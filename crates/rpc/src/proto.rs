//! The wire protocol: request and response headers.
//!
//! Every message is encoded positionally — its variant's index as one
//! byte, then its fields in declaration order — in the frame header;
//! chunk payloads ride the frame's out-of-band payload section (see
//! [`crate::wire`] for the layout). The encoding *is* the enum
//! declaration: both enums derive [`Encode`]/[`Decode`], so the order of
//! the variants and of their fields below is the wire format (reordering
//! either moves bytes; the golden table in this module's tests says so).
//! Unknown tags decode to an error instead of panicking, so protocol skew
//! fails a single call, not the process.

use atomio_core::SlotMap;
use atomio_meta::{Node, NodeKey, WriteSummary};
use atomio_types::{ByteRange, ChunkId, Error, ProviderId, Result, RetentionPolicy, VersionId};
use atomio_version::{GcFloor, LeaseGrant, PublishRecord, SnapshotRecord, Ticket};
use serde::{Decode, Deserialize, Encode, Serialize};

/// Version tag carried by every frame (see [`crate::wire`]).
///
/// * **v1** — length-prefixed frames with strict one-call-per-round-trip
///   framing; no frame could be attributed to a call, so connections
///   were single-flight by construction.
/// * **v2** — adds a `request_id` to the frame prefix so responses can
///   be demultiplexed out of order on a shared connection (the mux
///   transport and the concurrent server dispatcher need it), and this
///   leading version byte so skewed peers are rejected with a typed
///   `TransportErrorKind::VersionMismatch` error instead of decoding
///   garbage.
/// * **v3** — same frame layout; the items of
///   [`Request::PutChunkBatch`] and [`Request::GetChunkRangeBatch`]
///   carry their own `arrival` (the provider manager books every copy of
///   a batch at its own instant), replacing the one batch-wide field.
/// * **v4** — same frame layout; the header is the positional binary
///   encoding (variant index, fields in order, fixed-width integers,
///   `u32` counts) instead of a self-describing value tree with string
///   keys, about a third of the bytes. [`Response::TicketGrant`] drops
///   its `extents`: the grantee's own history row, which always ends the
///   delta, carries them.
///
/// Peers must match exactly: the frame reader rejects any other value
/// before decoding a single header byte.
pub const PROTOCOL_VERSION: u8 = 4;

/// One RPC request. Data-provider ops carry the target provider id so a
/// single server process can host a whole fleet; `arrival` carries the
/// client's virtual-time booking instant through to the server's
/// reservation API (servers run a zero-cost model, so it echoes back
/// unchanged and real sockets supply the real latency).
///
/// `Serialize`/`Deserialize` only serve the frozen benchmark's probes (ROADMAP item 1c).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Encode, Decode)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Store one chunk; frame payload = the chunk bytes.
    PutChunk {
        /// Target provider.
        provider: ProviderId,
        /// Virtual-time instant the first payload byte arrives.
        arrival: u64,
        /// The chunk id to store under.
        chunk: ChunkId,
    },
    /// Store a batch of chunks in one frame (the wire form of List-I/O
    /// aggregation); frame payload = concatenated chunk bytes, split by
    /// the `items` lengths in order.
    PutChunkBatch {
        /// Target provider.
        provider: ProviderId,
        /// `(arrival instant, chunk id, payload length)` per item, in
        /// payload order.
        items: Vec<(u64, ChunkId, u64)>,
    },
    /// Fetch a whole chunk.
    GetChunk {
        /// Target provider.
        provider: ProviderId,
        /// Virtual-time arrival.
        arrival: u64,
        /// The chunk to fetch.
        chunk: ChunkId,
    },
    /// Fetch a sub-range of a chunk.
    GetChunkRange {
        /// Target provider.
        provider: ProviderId,
        /// Virtual-time arrival.
        arrival: u64,
        /// The chunk to read.
        chunk: ChunkId,
        /// The sub-range to read.
        range: ByteRange,
    },
    /// Fetch a batch of chunk ranges in one frame.
    GetChunkRangeBatch {
        /// Target provider.
        provider: ProviderId,
        /// `(arrival instant, chunk, range)` per item.
        items: Vec<(u64, ChunkId, ByteRange)>,
    },
    /// Presence probe (no cost charged).
    ProviderHasChunk {
        /// Target provider.
        provider: ProviderId,
        /// The chunk to probe.
        chunk: ChunkId,
    },
    /// Number of chunks held.
    ProviderChunkCount {
        /// Target provider.
        provider: ProviderId,
    },
    /// Total payload bytes held.
    ProviderBytesStored {
        /// Target provider.
        provider: ProviderId,
    },
    /// Delete a chunk (GC), returning bytes reclaimed.
    ProviderEvictChunk {
        /// Target provider.
        provider: ProviderId,
        /// The chunk to delete.
        chunk: ChunkId,
    },
    /// Ingest-time checksum lookup.
    ProviderChecksumOf {
        /// Target provider.
        provider: ProviderId,
        /// The chunk to look up.
        chunk: ChunkId,
    },
    /// Delete a batch of chunks in one frame (the GC sweep's wire
    /// form), returning total bytes reclaimed.
    ProviderEvictBatch {
        /// Target provider.
        provider: ProviderId,
        /// The chunks to delete.
        chunks: Vec<ChunkId>,
    },
    /// Bit-rot injection hook (integrity tests).
    ProviderCorruptChunk {
        /// Target provider.
        provider: ProviderId,
        /// The chunk to corrupt.
        chunk: ChunkId,
        /// Byte offset to flip.
        byte: u64,
    },
    /// Install a batch of tree nodes.
    MetaPutBatch {
        /// The nodes to install.
        nodes: Vec<Node>,
    },
    /// Fetch a batch of tree nodes.
    MetaGetBatch {
        /// The keys to fetch.
        keys: Vec<NodeKey>,
    },
    /// Presence probe for one node.
    MetaContains {
        /// The key to probe.
        key: NodeKey,
    },
    /// Total nodes stored across shards.
    MetaNodeCount,
    /// Delete one node (GC).
    MetaEvict {
        /// The key to delete.
        key: NodeKey,
    },
    /// Delete a batch of nodes in one frame (GC sweep), returning the
    /// number actually evicted.
    MetaEvictBatch {
        /// The keys to delete.
        keys: Vec<NodeKey>,
    },
    /// Every stored key (test/GC support).
    MetaListKeys,
    /// Issue a write ticket for an explicit extent list. `known` is the
    /// client's mirrored history length; the grant carries the summary
    /// delta since then.
    VmTicket {
        /// The blob the ticket is for.
        blob: u64,
        /// The extents the write covers (encoded inline).
        extents: atomio_types::ExtentList,
        /// Client's known history row count.
        known: u64,
    },
    /// Issue an append ticket for `len` bytes at end-of-blob.
    VmTicketAppend {
        /// The blob the ticket is for.
        blob: u64,
        /// Appended byte count.
        len: u64,
        /// Client's known history row count.
        known: u64,
    },
    /// Publish a built snapshot.
    VmPublish {
        /// The blob being published.
        blob: u64,
        /// The ticket being redeemed.
        ticket: Ticket,
        /// Root node of the built tree.
        root: NodeKey,
    },
    /// Non-blocking publication probe.
    VmIsPublished {
        /// The blob to probe.
        blob: u64,
        /// The version to probe.
        version: VersionId,
    },
    /// The latest published snapshot record.
    VmLatest {
        /// The blob to query.
        blob: u64,
    },
    /// A specific published snapshot record.
    VmSnapshot {
        /// The blob to query.
        blob: u64,
        /// The version to query.
        version: VersionId,
    },
    /// Set the blob's retention policy.
    VmSetRetention {
        /// The blob to configure.
        blob: u64,
        /// How much history collection must preserve.
        policy: RetentionPolicy,
    },
    /// Acquire a time-bounded snapshot lease.
    VmLeaseAcquire {
        /// The blob to lease on.
        blob: u64,
        /// The published version to pin.
        version: VersionId,
        /// Lease TTL in server-clock milliseconds.
        ttl_ms: u64,
    },
    /// Extend a live lease.
    VmLeaseRenew {
        /// The blob the lease is on.
        blob: u64,
        /// The lease to extend.
        lease: u64,
        /// New TTL from now, in milliseconds.
        ttl_ms: u64,
    },
    /// Release a lease (idempotent).
    VmLeaseRelease {
        /// The blob the lease is on.
        blob: u64,
        /// The lease to release.
        lease: u64,
    },
    /// The manager-side reclamation floor plus lease gauges.
    VmGcFloor {
        /// The blob to query.
        blob: u64,
    },
    /// The server's current slot map (clients refetch on
    /// [`Error::WrongShard`]).
    SlotMapGet,
    /// Install a new slot map (epoch must not regress).
    SlotMapInstall {
        /// The map to install.
        map: SlotMap,
    },
    /// Freeze `slots` ahead of a handoff at `epoch`: new tickets in the
    /// frozen slots are refused with [`Error::WrongShard`] carrying
    /// `epoch`, publishes of already-granted tickets still land. The
    /// response is the number of grants still outstanding across the
    /// frozen slots; the coordinator polls until it reaches zero.
    VmFreezeSlots {
        /// The slots being handed off.
        slots: Vec<u16>,
        /// The epoch the reassigned map will carry.
        epoch: u64,
    },
    /// Escalate a freeze to a **seal** ahead of the handoff export:
    /// publishes in the sealed slots are now refused too (typed, at
    /// `epoch`), and the server answers only after every in-flight
    /// publish has landed — so once this RPC returns, the slots' state
    /// is immutable and [`Request::VmExportSlots`] cannot miss a
    /// late-landing version. Seals a slot even if it was never frozen.
    /// The response is the number of grants still outstanding: those
    /// tickets are abandoned, their eventual publishes refused.
    VmSealSlots {
        /// The slots being handed off.
        slots: Vec<u16>,
        /// The epoch the reassigned map will carry.
        epoch: u64,
    },
    /// Export every hosted blob in `slots` (published prefixes plus
    /// retention) for replay on the slots' new owner.
    VmExportSlots {
        /// The slots being handed off.
        slots: Vec<u16>,
    },
    /// Install exported blobs verbatim (the receiving half of a slot
    /// handoff). Idempotent; bypasses the ownership check, because the
    /// importing server does not own the slots until the reassigned map
    /// is installed.
    VmImportBlobs {
        /// The blobs to install.
        blobs: Vec<BlobExport>,
    },
}

/// One blob's state in a slot-handoff export: its published prefix and
/// retention policy, replayed verbatim on the new owner. Leases do not
/// migrate — they lapse by TTL and readers re-acquire on the new shard.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Encode, Decode)]
pub struct BlobExport {
    /// The blob's raw id.
    pub blob: u64,
    /// The published prefix, dense from version 1.
    pub versions: Vec<PublishRecord>,
    /// The blob's retention policy.
    pub retention: RetentionPolicy,
}

impl Request {
    /// The blob a per-blob version-service request targets, if any.
    /// This is the routing key: a slot-routed transport hashes it to a
    /// slot and dials the owning shard; requests without one (provider,
    /// meta, control-plane) are not per-blob and route elsewhere.
    pub fn vm_blob(&self) -> Option<u64> {
        use Request::*;
        match self {
            VmTicket { blob, .. }
            | VmTicketAppend { blob, .. }
            | VmPublish { blob, .. }
            | VmIsPublished { blob, .. }
            | VmLatest { blob }
            | VmSnapshot { blob, .. }
            | VmSetRetention { blob, .. }
            | VmLeaseAcquire { blob, .. }
            | VmLeaseRenew { blob, .. }
            | VmLeaseRelease { blob, .. }
            | VmGcFloor { blob } => Some(*blob),
            _ => None,
        }
    }
}

/// One RPC response. `Fail` carries a full [`Error`] so the remote and
/// in-process call sites surface identical error values.
#[derive(Debug, Clone, PartialEq, Encode, Decode)]
pub enum Response {
    /// Liveness ack.
    Pong,
    /// Success with no result value.
    Unit,
    /// A reservation completion instant (puts).
    Done {
        /// Virtual-time completion of the booked transfer.
        done: u64,
    },
    /// Per-item outcomes of a chunk batch put.
    PutBatch {
        /// Completion instant per item, in request order.
        results: Vec<Result<u64>>,
    },
    /// Chunk data; frame payload = the bytes.
    ChunkData {
        /// Virtual-time instant the last byte left the provider.
        sent: u64,
    },
    /// Per-item outcomes of a chunk batch get; frame payload = the
    /// successful items' bytes concatenated in request order.
    ChunkBatch {
        /// `(payload length, sent instant)` per successful item.
        results: Vec<Result<(u64, u64)>>,
    },
    /// A boolean result.
    Flag {
        /// The value.
        value: bool,
    },
    /// A numeric result.
    Count {
        /// The value.
        value: u64,
    },
    /// An optional checksum.
    Checksum {
        /// The stored checksum, if the chunk exists.
        value: Option<u64>,
    },
    /// Per-node outcomes of a metadata batch put.
    NodePuts {
        /// One outcome per node, in request order.
        results: Vec<Result<()>>,
    },
    /// Per-key outcomes of a metadata batch get.
    NodeGets {
        /// One outcome per key, in request order.
        results: Vec<Result<Node>>,
    },
    /// A key listing.
    Keys {
        /// Every stored key.
        keys: Vec<NodeKey>,
    },
    /// A granted write ticket plus the history delta the client is
    /// missing (its mirror absorbs the delta before building metadata).
    TicketGrant {
        /// The issued ticket.
        ticket: Ticket,
        /// Write summaries the client has not seen yet. The grantee's own
        /// row — its version, its assigned extents — is always the last.
        delta: Vec<WriteSummary>,
    },
    /// A snapshot record.
    Snapshot {
        /// The record.
        record: SnapshotRecord,
    },
    /// A granted (or renewed) snapshot lease.
    Lease {
        /// The grant: id, pinned version, absolute expiry.
        grant: LeaseGrant,
    },
    /// The reclamation floor plus lease gauges.
    GcFloor {
        /// The floor record.
        info: GcFloor,
    },
    /// A slot map (reply to [`Request::SlotMapGet`]).
    SlotMapInfo {
        /// The server's current map.
        map: SlotMap,
    },
    /// The blobs exported from a set of slots (reply to
    /// [`Request::VmExportSlots`]).
    SlotExport {
        /// One record per hosted blob in the requested slots.
        blobs: Vec<BlobExport>,
    },
    /// Admission-control rejection: the server is at its connection cap
    /// (`max_conns`) and answered the connection's first request with
    /// this instead of executing it, then closed the connection.
    /// Clients surface it as [`Error::AdmissionRejected`].
    Busy {
        /// Connections active when the server refused this one.
        active: u64,
        /// The server's connection cap.
        max_conns: u64,
    },
    /// Operation-level failure.
    Fail {
        /// The error (its `&'static str` variants arrive as `Internal`).
        error: Error,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples;
    use atomio_provider::chunk_checksum;
    use std::collections::BTreeSet;

    fn encoded(sample: &impl Encode) -> Vec<u8> {
        let mut bytes = Vec::new();
        sample.encode(&mut bytes);
        bytes
    }

    /// The variant a sample is, by the name its `Debug` form starts with.
    fn variant(sample: &impl std::fmt::Debug) -> String {
        let debug = format!("{sample:?}");
        let end = debug.find(|c: char| !c.is_alphanumeric());
        debug[..end.unwrap_or(debug.len())].to_owned()
    }

    /// Round trip of every sample through the positional codec; returns
    /// how many distinct variants the samples covered.
    fn roundtrip_all<T>(samples: &[T]) -> usize
    where
        T: Encode + Decode + PartialEq + std::fmt::Debug,
    {
        let mut variants = BTreeSet::new();
        for sample in samples {
            let bytes = encoded(sample);
            assert!(bytes.len() >= T::MIN_BYTES, "{sample:?} under MIN_BYTES");
            assert_eq!(&serde::decode_exact::<T>(&bytes).unwrap(), sample);
            variants.insert(variant(sample));
        }
        variants.len()
    }

    #[test]
    fn requests_roundtrip() {
        assert_eq!(
            roundtrip_all(&samples::requests()),
            37,
            "a variant has no sample"
        );
    }

    #[test]
    fn responses_roundtrip() {
        assert_eq!(
            roundtrip_all(&samples::responses()),
            20,
            "a variant has no sample"
        );
    }

    #[test]
    fn requests_roundtrip_through_the_value_tree_the_benchmark_probes() {
        for request in samples::requests() {
            assert_eq!(Request::from_value(&request.to_value()), Ok(request));
        }
    }

    /// `(variant, encoded length, chunk_checksum of the encoding)` of
    /// every sample in [`samples`], requests then responses, as protocol
    /// v4 first encoded them. A row that fails means bytes moved on the
    /// wire: that is a `PROTOCOL_VERSION` bump, not a table refresh.
    const GOLDEN: &[(&str, usize, u64)] = &[
        ("Ping", 1, 0x30eb33fab282f8e7),
        ("PutChunk", 25, 0x2ec2947a0ccaf214),
        ("PutChunkBatch", 61, 0xfff078310789b2fa),
        ("GetChunk", 25, 0x47b04c8ea5116855),
        ("GetChunkRange", 41, 0x3abd4ac31cbc75a0),
        ("GetChunkRangeBatch", 45, 0x4bd991ab85f77e75),
        ("ProviderHasChunk", 17, 0xa0cb528765d2fce5),
        ("ProviderChunkCount", 9, 0x27419e59955353f3),
        ("ProviderBytesStored", 9, 0xf7cb87a0dfd46cd0),
        ("ProviderEvictChunk", 17, 0x582051c944ca7b24),
        ("ProviderChecksumOf", 17, 0xe887c969655ee673),
        ("ProviderEvictBatch", 29, 0x39db591af621a40c),
        ("ProviderCorruptChunk", 25, 0xad7a6bae392c0f03),
        ("MetaPutBatch", 238, 0xa7560be38e7a71b4),
        ("MetaGetBatch", 69, 0x68997d41bacabd9c),
        ("MetaContains", 33, 0x6b244487c7e2921a),
        ("MetaNodeCount", 1, 0x9ccd6040f4bd85e2),
        ("MetaEvict", 33, 0x4fca8bc1417ce535),
        ("MetaEvictBatch", 37, 0xb957422577092ceb),
        ("MetaListKeys", 1, 0xdda906abcabbde95),
        ("VmTicket", 53, 0x87952856c48e857f),
        ("VmTicketAppend", 25, 0x25ad69b753377f79),
        ("VmPublish", 65, 0x5758990a56bda134),
        ("VmIsPublished", 17, 0xb89de7dc5a45c4e0),
        ("VmLatest", 9, 0x9161413917e2e865),
        ("VmSnapshot", 17, 0x60044e09dedbb342),
        ("VmSetRetention", 18, 0x7f17912f283d7635),
        ("VmLeaseAcquire", 25, 0x1a0bb9439aaa4720),
        ("VmLeaseRenew", 25, 0x544217aac22afc32),
        ("VmLeaseRelease", 17, 0x72b1cc165a6c9f6a),
        ("VmGcFloor", 9, 0x81535e736e2215b0),
        ("SlotMapGet", 1, 0xac7449e06fe4f19c),
        ("SlotMapInstall", 69, 0x3ad1acee625ceff9),
        ("VmFreezeSlots", 19, 0x855655cb8e7e2c8a),
        ("VmSealSlots", 17, 0x1a7c8af64a9fbd92),
        ("VmExportSlots", 9, 0xae3b7e3bdee38c23),
        ("VmImportBlobs", 103, 0x0b62836caa8c2136),
        ("Pong", 1, 0x30eb33fab282f8e7),
        ("Unit", 1, 0x7bfd9893c82002b2),
        ("Done", 9, 0xf0d6ff8791865062),
        ("PutBatch", 24, 0xcfd9b5d3872f3061),
        ("ChunkData", 9, 0x777bb7a817f6afd3),
        ("ChunkBatch", 40, 0x9f77839e41e5caad),
        ("Flag", 2, 0x0d3961b92bcc2866),
        ("Count", 9, 0x9b07456a6bbc17e2),
        ("Checksum", 2, 0x40a62ee787b2d4a2),
        ("Checksum", 10, 0x5aaa8d78a5345678),
        ("NodePuts", 16, 0x9131ef8fea004ee3),
        ("NodeGets", 250, 0x624f1bd17a006c5d),
        ("Keys", 37, 0xaeb57e848d7666a5),
        ("TicketGrant", 101, 0xef036401c23294da),
        ("Snapshot", 58, 0x7fa991e65a6bb746),
        ("Lease", 25, 0xf825f1a8195d9f34),
        ("GcFloor", 25, 0x50babe45c3d24931),
        ("SlotMapInfo", 93, 0x7ef06f621c91803f),
        ("SlotExport", 103, 0xbec8a286958d3c02),
        ("SlotExport", 5, 0xbc36c265c3d38536),
        ("Busy", 17, 0x16834f236c338874),
        ("Fail", 12, 0x73691157ce5a2a40),
        ("Fail", 21, 0x0dc018c437207e28),
    ];

    /// Three of those encodings in full, same provenance.
    const GOLDEN_HEX: &[(&str, &str)] = &[
        ("Ping", "00"),
        (
            "PutChunk",
            "0103000000000000002a000000000000000900000000000000",
        ),
        (
            "PutBatch",
            "030200000000050000000000000001040100000000000000",
        ),
    ];

    /// The derived codec writes the pinned bytes for `sample`, and reads
    /// them back to `sample`.
    fn check_golden<T>(sample: &T, &(name, len, checksum): &(&str, usize, u64))
    where
        T: Encode + Decode + PartialEq + std::fmt::Debug,
    {
        assert_eq!(variant(sample), name);
        let bytes = encoded(sample);
        assert_eq!(
            (bytes.len(), chunk_checksum(&bytes)),
            (len, checksum),
            "the encoding of {name} moved: {sample:?}"
        );
        if let Some((_, hex)) = GOLDEN_HEX.iter().find(|(v, _)| *v == name) {
            let written: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(&written, hex, "the encoding of {name} moved");
        }
        assert_eq!(&serde::decode_exact::<T>(&bytes).unwrap(), sample);
    }

    #[test]
    fn the_derived_codec_writes_the_pinned_bytes() {
        let (requests, responses) = (samples::requests(), samples::responses());
        assert_eq!(requests.len() + responses.len(), GOLDEN.len());
        let (request_rows, response_rows) = GOLDEN.split_at(requests.len());
        for (sample, row) in requests.iter().zip(request_rows) {
            check_golden(sample, row);
        }
        for (sample, row) in responses.iter().zip(response_rows) {
            check_golden(sample, row);
        }
    }

    #[test]
    fn vm_blob_extracts_the_routing_key() {
        assert_eq!(Request::VmLatest { blob: 17 }.vm_blob(), Some(17));
        assert_eq!(
            Request::VmTicketAppend {
                blob: 3,
                len: 8,
                known: 0
            }
            .vm_blob(),
            Some(3)
        );
        assert_eq!(Request::Ping.vm_blob(), None);
        assert_eq!(Request::MetaNodeCount.vm_blob(), None);
        assert_eq!(Request::SlotMapGet.vm_blob(), None);
    }

    #[test]
    fn unknown_tags_fail_cleanly() {
        // One past the last variant of each message.
        let e = serde::decode_exact::<Request>(&[37]).unwrap_err();
        assert_eq!(e.to_string(), "unknown Request tag 37");
        let e = serde::decode_exact::<Response>(&[20]).unwrap_err();
        assert_eq!(e.to_string(), "unknown Response tag 20");
        // So does a batch outcome that is neither `Ok` (0) nor `Err` (1).
        let put_batch = encoded(&Response::PutBatch {
            results: vec![Ok(5)],
        });
        let mut bad = put_batch.clone();
        bad[5] = 2;
        let e = serde::decode_exact::<Response>(&bad).unwrap_err();
        assert_eq!(e.to_string(), "unknown Result tag 2");
    }
}
