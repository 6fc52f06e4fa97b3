//! Test support: at least one sample of every wire message, all 26
//! [`Request`] and 19 [`Response`] variants in declaration order (47
//! samples). The round-trip tests and the golden byte table in
//! [`crate::proto`] and the decoder properties in [`crate::fuzz`] all
//! walk these two lists, so a new variant is covered by all three once it
//! has a sample here.
//!
//! The golden table pins the *encoding* of exactly these values: changing
//! a sample changes its row, so add samples rather than editing them.

use crate::proto::{Request, Response};
use atomio_meta::{LeafEntry, Node, NodeBody, NodeKey, PieceSource, ResolvedPiece, WriteSummary};
use atomio_types::{
    BlobId, ByteRange, ChunkId, Error, ExtentList, ProviderId, RetentionPolicy, TransportErrorKind,
    VersionId,
};
use atomio_version::{GcFloor, LeaseGrant, SnapshotRecord, Ticket};
use std::sync::Arc;

/// The value-tree encoding of a null inside `depth` one-element arrays:
/// five bytes per level, so a header far under the length limits can
/// nest deeper than any stack follows.
pub(crate) fn nested_arrays(depth: usize) -> Vec<u8> {
    let mut bytes = [6u8, 1, 0, 0, 0].repeat(depth);
    bytes.push(0);
    bytes
}

pub(crate) fn key(blob: u64, version: u64, len: u64) -> NodeKey {
    NodeKey::new(
        BlobId::new(blob),
        VersionId::new(version),
        ByteRange::new(0, len),
    )
}

/// An inner node with one child and a leaf with two entries (one of them
/// replicated) and a backlink: both [`NodeBody`] shapes.
pub(crate) fn nodes() -> Vec<Node> {
    let entry = |offset, chunk, homes: &[u64]| LeafEntry {
        file_range: ByteRange::new(offset, 32),
        chunk: ChunkId::new(chunk),
        chunk_offset: 16,
        homes: homes.iter().map(|&p| ProviderId::new(p)).collect(),
    };
    vec![
        Node {
            key: key(7, 3, 128),
            body: NodeBody::Inner {
                left: Some(key(7, 2, 64)),
                right: None,
            },
        },
        Node {
            key: key(7, 3, 64),
            body: NodeBody::Leaf {
                entries: vec![entry(0, 9, &[0]), entry(32, 10, &[1, 2])],
                backlink: Some(key(7, 1, 64)),
            },
        },
    ]
}

pub(crate) fn requests() -> Vec<Request> {
    let provider = ProviderId::new(3);
    let chunk = ChunkId::new(9);
    vec![
        Request::Ping,
        Request::PutChunk {
            provider,
            arrival: 42,
            chunk,
        },
        Request::PutChunkBatch {
            provider: ProviderId::new(0),
            items: vec![(7, ChunkId::new(1), 16), (9, ChunkId::new(2), 64)],
        },
        Request::GetChunk {
            provider,
            arrival: 11,
            chunk,
        },
        Request::GetChunkRange {
            provider: ProviderId::new(1),
            arrival: 0,
            chunk: ChunkId::new(5),
            range: ByteRange::new(8, 24),
        },
        Request::GetChunkRangeBatch {
            provider: ProviderId::new(1),
            items: vec![(3, ChunkId::new(5), ByteRange::new(0, 8))],
        },
        Request::ProviderChunkCount { provider },
        Request::ProviderBytesStored { provider },
        Request::ProviderChecksumOf { provider, chunk },
        Request::ProviderEvictBatch {
            provider: ProviderId::new(2),
            chunks: vec![ChunkId::new(3), ChunkId::new(8)],
        },
        Request::MetaPutBatch { nodes: nodes() },
        Request::MetaGetBatch {
            keys: vec![key(7, 3, 128), key(7, 3, 64)],
        },
        Request::MetaEvictBatch {
            keys: vec![key(1, 2, 64)],
        },
        Request::MetaListKeys,
        Request::VmTicket {
            blob: 4,
            extents: ExtentList::from_pairs([(0u64, 64u64), (128, 64)]),
            known: 2,
        },
        Request::VmTicketAppend {
            blob: 4,
            len: 4096,
            known: 2,
        },
        Request::VmPublish {
            blob: 4,
            ticket: Ticket {
                version: VersionId::new(3),
                capacity: 256,
                size: 192,
            },
            root: key(4, 3, 256),
        },
        Request::VmIsPublished {
            blob: 4,
            version: VersionId::new(3),
        },
        Request::VmLatest { blob: 4 },
        Request::VmSnapshot {
            blob: 4,
            version: VersionId::new(2),
        },
        Request::VmSetRetention {
            blob: 1,
            policy: RetentionPolicy::KeepLast(2),
        },
        Request::VmLeaseAcquire {
            blob: 1,
            version: VersionId::new(4),
            ttl_ms: 5_000,
        },
        Request::VmLeaseRenew {
            blob: 1,
            lease: 9,
            ttl_ms: 5_000,
        },
        Request::VmLeaseRelease { blob: 1, lease: 9 },
        Request::VmGcFloor { blob: 1 },
        Request::MetaResolve {
            root: Some(key(7, 3, 128)),
            extents: ExtentList::from_pairs([(0u64, 48u64), (96, 64)]),
        },
    ]
}

pub(crate) fn responses() -> Vec<Response> {
    vec![
        Response::Pong,
        Response::Unit,
        Response::Done { done: 77 },
        Response::PutBatch {
            results: vec![Ok(5), Err(Error::ProviderFailed(ProviderId::new(1)))],
        },
        Response::ChunkData { sent: 78 },
        Response::ChunkBatch {
            results: vec![
                Ok((16, 99)),
                Err(Error::ChunkNotFound {
                    provider: ProviderId::new(0),
                    chunk: ChunkId::new(2),
                }),
            ],
        },
        Response::Flag { value: true },
        Response::Count { value: 12 },
        Response::Checksum { value: None },
        Response::Checksum {
            value: Some(0xDEAD),
        },
        Response::NodePuts {
            results: vec![Ok(()), Err(Error::MetadataNodeMissing(3))],
        },
        Response::NodeGets {
            results: nodes()
                .into_iter()
                .map(Ok)
                .chain([Err(Error::MetadataNodeMissing(4))])
                .collect(),
        },
        Response::Keys {
            keys: vec![key(7, 3, 128)],
        },
        Response::TicketGrant {
            ticket: Ticket {
                version: VersionId::new(3),
                capacity: 256,
                size: 192,
            },
            delta: vec![
                WriteSummary {
                    version: VersionId::new(2),
                    extents: Arc::new(ExtentList::from_pairs([(0u64, 64u64)])),
                    capacity: 128,
                },
                WriteSummary {
                    version: VersionId::new(3),
                    extents: Arc::new(ExtentList::from_pairs([(128u64, 64u64)])),
                    capacity: 256,
                },
            ],
        },
        Response::Snapshot {
            record: SnapshotRecord {
                version: VersionId::new(3),
                root: Some(key(4, 3, 256)),
                size: 192,
                capacity: 256,
            },
        },
        Response::Lease {
            grant: LeaseGrant {
                lease: 7,
                version: VersionId::new(3),
                expires_at_ms: 12_345,
            },
        },
        Response::GcFloor {
            info: GcFloor {
                floor: VersionId::new(5),
                leases_active: 2,
                lease_expirations: 1,
            },
        },
        Response::Busy {
            active: 1024,
            max_conns: 1024,
        },
        Response::Fail {
            error: Error::WrongShard { slot: 77 },
        },
        Response::Fail {
            error: Error::Transport {
                kind: TransportErrorKind::Timeout,
                detail: "read timed out".into(),
            },
        },
        // A stored piece with two homes, a hole, and a piece past the
        // tree's capacity read as a hole.
        Response::Pieces {
            pieces: vec![
                ResolvedPiece {
                    file_range: ByteRange::new(0, 32),
                    source: Some(PieceSource {
                        chunk: ChunkId::new(9),
                        chunk_offset: 16,
                        homes: vec![ProviderId::new(1), ProviderId::new(2)],
                    }),
                },
                ResolvedPiece {
                    file_range: ByteRange::new(32, 16),
                    source: None,
                },
                ResolvedPiece {
                    file_range: ByteRange::new(128, 32),
                    source: None,
                },
            ],
        },
    ]
}
