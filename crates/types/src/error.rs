//! Workspace-wide error type.
//!
//! Hand-rolled (no `thiserror`) to keep the dependency set inside the
//! approved list; the variants cover every failure surfaced by the storage
//! services, the baseline file system, and the MPI-I/O layer.

use crate::ids::{BlobId, ChunkId, ProviderId, VersionId};
use serde::{DeError, Decode, Encode, Reader};
use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Any failure produced by the atomio stack.
#[derive(Debug, Clone, PartialEq, Eq, Encode)]
#[non_exhaustive]
#[allow(missing_docs)] // variant payload fields are self-describing
pub enum Error {
    /// A blob id was not found in the namespace.
    BlobNotFound(BlobId),
    /// The requested snapshot version has not been published (yet).
    VersionNotFound { blob: BlobId, version: VersionId },
    /// A data provider did not hold the requested chunk.
    ChunkNotFound {
        provider: ProviderId,
        chunk: ChunkId,
    },
    /// A provider id was unknown to the provider manager.
    ProviderNotFound(ProviderId),
    /// A provider is marked failed (fault injection) and refused service.
    ProviderFailed(ProviderId),
    /// A read touched bytes beyond the snapshot's size.
    OutOfBounds {
        /// What the caller asked for.
        requested_end: u64,
        /// Size of the snapshot that was read.
        snapshot_size: u64,
    },
    /// Caller-supplied buffer length does not match the extent list.
    BufferSizeMismatch { expected: u64, actual: u64 },
    /// An empty extent list was passed where data is required.
    EmptyAccess,
    /// Metadata store is missing a tree node — indicates corruption or a
    /// read of an unpublished version.
    MetadataNodeMissing(u64),
    /// A file handle was used in a mode it was not opened for.
    InvalidMode(&'static str),
    /// An MPI datatype construction was invalid (e.g. zero-size element).
    InvalidDatatype(String),
    /// A collective operation observed mismatched participation.
    CollectiveMismatch(String),
    /// The operation is unsupported by this backend/driver.
    Unsupported(&'static str),
    /// Replication could not reach the requested number of replicas.
    InsufficientReplicas { wanted: usize, placed: usize },
    /// A bounded host-side resource (e.g. the write-ahead log) is at
    /// capacity and rejected the request; retrying after the backlog
    /// drains below its low-water mark will succeed.
    Busy {
        resource: String,
        pending_bytes: u64,
        capacity: u64,
    },
    /// A server at its connection cap (`max_conns`) refused this
    /// connection at admission: the request was answered with a typed
    /// busy response and the connection closed, instead of queueing
    /// unboundedly or resetting. Retrying against another endpoint (or
    /// after backoff) is safe — nothing was executed.
    AdmissionRejected { active: u64, max_conns: u64 },
    /// A snapshot lease expired (or was never granted): the version it
    /// pinned may have been reclaimed, so the read is refused with a
    /// typed error instead of risking torn bytes. Re-acquire a lease on
    /// a retained snapshot to continue.
    LeaseExpired { lease: u64, version: VersionId },
    /// A slot-routed request landed on a shard that does not own the
    /// blob's slot (the client's `SlotMap` is stale, or the slot is
    /// mid-handoff). The payload carries the server's map epoch and the
    /// rejected slot so the client can refetch the map and re-route;
    /// nothing was executed, so the retry is safe.
    WrongShard { epoch: u64, slot: u16 },
    /// A transport-level failure talking to a remote service. The kind
    /// distinguishes causes so retry policy can branch (a timeout is worth
    /// retrying on the same endpoint; connection-refused is not).
    Transport {
        kind: TransportErrorKind,
        detail: String,
    },
    /// Generic internal invariant violation; carries a description.
    Internal(String),
}

impl Error {
    /// Wraps an I/O failure from a durable backend as an
    /// [`Error::Internal`] with context. The error enum deliberately has
    /// no dedicated I/O variant: disk failures are deployment faults,
    /// not protocol states, so nothing in the wire codec needs to change
    /// to carry them.
    pub fn io(context: impl std::fmt::Display, err: std::io::Error) -> Error {
        Error::Internal(format!("{context}: {err}"))
    }
}

/// Why a transport operation failed (see [`Error::Transport`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Encode, Decode)]
#[non_exhaustive]
pub enum TransportErrorKind {
    /// A read or write deadline elapsed with the peer still silent.
    Timeout,
    /// The peer actively refused the connection (nothing listening).
    ConnectionRefused,
    /// The connection dropped mid-exchange (peer died or link lost).
    ConnectionReset,
    /// The peer spoke, but the bytes did not decode as a valid frame.
    Protocol,
    /// The peer speaks a different protocol version; the frame was
    /// rejected before decoding. Retrying cannot help until one side is
    /// upgraded, so failover should drop the endpoint entirely.
    VersionMismatch,
}

impl TransportErrorKind {
    fn as_str(self) -> &'static str {
        match self {
            TransportErrorKind::Timeout => "timeout",
            TransportErrorKind::ConnectionRefused => "connection-refused",
            TransportErrorKind::ConnectionReset => "connection-reset",
            TransportErrorKind::Protocol => "protocol",
            TransportErrorKind::VersionMismatch => "version-mismatch",
        }
    }
}

impl fmt::Display for TransportErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::BlobNotFound(b) => write!(f, "blob not found: {b}"),
            Error::VersionNotFound { blob, version } => {
                write!(f, "version {version} of {blob} is not published")
            }
            Error::ChunkNotFound { provider, chunk } => {
                write!(f, "{chunk} not present on {provider}")
            }
            Error::ProviderNotFound(p) => write!(f, "unknown provider {p}"),
            Error::ProviderFailed(p) => write!(f, "provider {p} is failed"),
            Error::OutOfBounds {
                requested_end,
                snapshot_size,
            } => write!(
                f,
                "access ends at byte {requested_end} but snapshot has {snapshot_size} bytes"
            ),
            Error::BufferSizeMismatch { expected, actual } => write!(
                f,
                "buffer holds {actual} bytes but extent list covers {expected}"
            ),
            Error::EmptyAccess => write!(f, "empty extent list"),
            Error::MetadataNodeMissing(id) => write!(f, "metadata node {id} missing"),
            Error::InvalidMode(m) => write!(f, "file handle not opened for {m}"),
            Error::InvalidDatatype(msg) => write!(f, "invalid datatype: {msg}"),
            Error::CollectiveMismatch(msg) => write!(f, "collective mismatch: {msg}"),
            Error::Unsupported(what) => write!(f, "unsupported operation: {what}"),
            Error::InsufficientReplicas { wanted, placed } => {
                write!(f, "placed {placed} of {wanted} replicas")
            }
            Error::Busy {
                resource,
                pending_bytes,
                capacity,
            } => write!(
                f,
                "{resource} is busy: {pending_bytes} of {capacity} bytes pending"
            ),
            Error::AdmissionRejected { active, max_conns } => write!(
                f,
                "server refused the connection: {active} of {max_conns} connections active"
            ),
            Error::LeaseExpired { lease, version } => {
                write!(f, "lease {lease} on snapshot {version} has expired")
            }
            Error::WrongShard { epoch, slot } => {
                write!(f, "slot {slot} is not served here (map epoch {epoch})")
            }
            Error::Transport { kind, detail } => {
                write!(f, "transport failure ({kind}): {detail}")
            }
            Error::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

// Wire decoding. `Encode` is derived, so the tag of a variant is its
// position above; this reads the same layout back by hand, because the
// `&'static str` payloads can only decode lossily, into `Error::Internal`.
impl Decode for Error {
    /// `EmptyAccess`: the tag alone.
    const MIN_BYTES: usize = 1;

    fn decode(r: &mut Reader<'_>) -> std::result::Result<Self, DeError> {
        fn d<T: Decode>(r: &mut Reader<'_>) -> std::result::Result<T, DeError> {
            T::decode(r)
        }
        Ok(match r.u8()? {
            0 => Error::BlobNotFound(d(r)?),
            1 => Error::VersionNotFound {
                blob: d(r)?,
                version: d(r)?,
            },
            2 => Error::ChunkNotFound {
                provider: d(r)?,
                chunk: d(r)?,
            },
            3 => Error::ProviderNotFound(d(r)?),
            4 => Error::ProviderFailed(d(r)?),
            5 => Error::OutOfBounds {
                requested_end: d(r)?,
                snapshot_size: d(r)?,
            },
            6 => Error::BufferSizeMismatch {
                expected: d(r)?,
                actual: d(r)?,
            },
            7 => Error::EmptyAccess,
            8 => Error::MetadataNodeMissing(d(r)?),
            9 => Error::Internal(format!("remote InvalidMode: {}", d::<String>(r)?)),
            10 => Error::InvalidDatatype(d::<String>(r)?),
            11 => Error::CollectiveMismatch(d::<String>(r)?),
            12 => Error::Internal(format!("remote Unsupported: {}", d::<String>(r)?)),
            13 => Error::InsufficientReplicas {
                wanted: d(r)?,
                placed: d(r)?,
            },
            14 => Error::Busy {
                resource: d::<String>(r)?,
                pending_bytes: d(r)?,
                capacity: d(r)?,
            },
            15 => Error::AdmissionRejected {
                active: d(r)?,
                max_conns: d(r)?,
            },
            16 => Error::LeaseExpired {
                lease: d(r)?,
                version: d(r)?,
            },
            17 => Error::WrongShard {
                epoch: d(r)?,
                slot: d(r)?,
            },
            18 => Error::Transport {
                kind: d(r)?,
                detail: d::<String>(r)?,
            },
            19 => Error::Internal(d::<String>(r)?),
            tag => return Err(DeError::unknown_variant("Error", tag)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = Error::VersionNotFound {
            blob: BlobId::new(1),
            version: VersionId::new(5),
        };
        assert_eq!(e.to_string(), "version v5 of blob-1 is not published");

        let e = Error::OutOfBounds {
            requested_end: 100,
            snapshot_size: 64,
        };
        assert!(e.to_string().contains("100"));
        assert!(e.to_string().contains("64"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&Error::EmptyAccess);
    }

    #[test]
    fn errors_roundtrip_through_wire_encoding() {
        let samples = vec![
            Error::BlobNotFound(BlobId::new(7)),
            Error::VersionNotFound {
                blob: BlobId::new(1),
                version: VersionId::new(5),
            },
            Error::ChunkNotFound {
                provider: ProviderId::new(2),
                chunk: ChunkId::new(9),
            },
            Error::ProviderNotFound(ProviderId::new(3)),
            Error::ProviderFailed(ProviderId::new(4)),
            Error::OutOfBounds {
                requested_end: 10,
                snapshot_size: 4,
            },
            Error::BufferSizeMismatch {
                expected: 8,
                actual: 6,
            },
            Error::EmptyAccess,
            Error::MetadataNodeMissing(0xDEAD),
            Error::InvalidDatatype("bad".into()),
            Error::CollectiveMismatch("skew".into()),
            Error::InsufficientReplicas {
                wanted: 3,
                placed: 1,
            },
            Error::Busy {
                resource: "wal".into(),
                pending_bytes: 4096,
                capacity: 1024,
            },
            Error::AdmissionRejected {
                active: 1024,
                max_conns: 1024,
            },
            Error::LeaseExpired {
                lease: 11,
                version: VersionId::new(3),
            },
            Error::WrongShard { epoch: 7, slot: 42 },
            Error::Transport {
                kind: TransportErrorKind::Timeout,
                detail: "read deadline".into(),
            },
            Error::Internal("boom".into()),
        ];
        let roundtrip = |e: &Error| {
            let mut bytes = Vec::new();
            e.encode(&mut bytes);
            assert!(bytes.len() >= Error::MIN_BYTES);
            serde::decode_exact::<Error>(&bytes).unwrap()
        };
        for kind in [
            TransportErrorKind::Timeout,
            TransportErrorKind::ConnectionRefused,
            TransportErrorKind::ConnectionReset,
            TransportErrorKind::Protocol,
            TransportErrorKind::VersionMismatch,
        ] {
            let e = Error::Transport {
                kind,
                detail: kind.to_string(),
            };
            assert_eq!(roundtrip(&e), e);
        }
        for e in samples {
            assert_eq!(roundtrip(&e), e, "roundtrip of {e:?}");
        }
        // `&'static str` variants decode into owning stand-ins.
        assert_eq!(
            roundtrip(&Error::InvalidMode("write")),
            Error::Internal("remote InvalidMode: write".into())
        );
        assert_eq!(
            roundtrip(&Error::Unsupported("resize")),
            Error::Internal("remote Unsupported: resize".into())
        );
        // Past the last variant.
        assert!(serde::decode_exact::<Error>(&[20]).is_err());
    }

    #[test]
    fn errors_compare() {
        assert_eq!(
            Error::BlobNotFound(BlobId::new(2)),
            Error::BlobNotFound(BlobId::new(2))
        );
        assert_ne!(
            Error::BlobNotFound(BlobId::new(2)),
            Error::BlobNotFound(BlobId::new(3))
        );
    }
}
