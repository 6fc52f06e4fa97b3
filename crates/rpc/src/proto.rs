//! The wire protocol: request and response headers.
//!
//! Every message is encoded as a tagged object — `{"t": "VariantName",
//! ...fields}`, the fields in declaration order — in the frame header;
//! chunk payloads ride the frame's out-of-band payload section (see
//! [`crate::wire`]). The encoding *is* the enum declaration: both enums
//! derive [`Serialize`]/[`Deserialize`], so a variant's name, its field
//! names and their order below are the wire format (reordering fields
//! moves bytes; the golden table in this module's tests says so). Unknown
//! tags decode to an error instead of panicking, so protocol skew fails
//! a single call, not the process.

use atomio_core::SlotMap;
use atomio_meta::{Node, NodeKey, WriteSummary};
use atomio_types::{ByteRange, ChunkId, Error, ProviderId, Result, RetentionPolicy, VersionId};
use atomio_version::{GcFloor, LeaseGrant, PublishRecord, SnapshotRecord, Ticket};
use serde::{Deserialize, Serialize};

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
///
/// Peers must match exactly: the frame reader rejects any other value
/// before decoding a single header byte.
pub const PROTOCOL_VERSION: u8 = 3;

/// One RPC request. Data-provider ops carry the target provider id so a
/// single server process can host a whole fleet; `arrival` carries the
/// client's virtual-time booking instant through to the server's
/// reservation API (servers run a zero-cost model, so it echoes back
/// unchanged and real sockets supply the real latency).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
        /// The extents assigned to the write.
        extents: atomio_types::ExtentList,
        /// Write summaries the client has not seen yet.
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
        /// The error, round-tripped losslessly.
        error: Error,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{samples, wire};
    use atomio_provider::chunk_checksum;
    use serde::Value;
    use std::collections::BTreeSet;

    /// Value-level round trip of every sample; returns how many distinct
    /// variants the samples covered.
    fn roundtrip_all<T>(samples: &[T]) -> usize
    where
        T: Serialize + Deserialize + PartialEq + std::fmt::Debug,
    {
        let mut variants = BTreeSet::new();
        for sample in samples {
            let value = sample.to_value();
            assert_eq!(&T::from_value(&value).unwrap(), sample);
            variants.insert(value.variant_tag("sample").unwrap().to_owned());
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

    /// `(variant, encoded length, chunk_checksum of the encoding)` of
    /// every sample in [`samples`], requests then responses, as the
    /// hand-written codec of commit 2c5dc40 (the last tree that had one)
    /// encoded them. A row that fails means bytes moved on the wire:
    /// that is a `PROTOCOL_VERSION` bump, not a table refresh.
    const GOLDEN: &[(&str, usize, u64)] = &[
        ("Ping", 19, 0x88e7c498f047ab99),
        ("PutChunk", 82, 0x0c7203b253fb020f),
        ("PutChunkBatch", 127, 0x9e3ccb62febd51f6),
        ("GetChunk", 82, 0xc96e5bf5d728c676),
        ("GetChunkRange", 136, 0x8207d27a4ef19f86),
        ("GetChunkRangeBatch", 131, 0xefff51a224b0c770),
        ("ProviderHasChunk", 70, 0x20c2bcd4e62718d5),
        ("ProviderChunkCount", 54, 0x7e2bd64899ff73bd),
        ("ProviderBytesStored", 55, 0x87743234d487f7f5),
        ("ProviderEvictChunk", 72, 0x9d374e02d9d35f4d),
        ("ProviderChecksumOf", 72, 0x2bbcb7a707c4d8d1),
        ("ProviderEvictBatch", 87, 0x631d086889ab94df),
        ("ProviderCorruptChunk", 91, 0x04341ff4d4628eb1),
        ("MetaPutBatch", 789, 0xad9b212a8b6cf6c5),
        ("MetaGetBatch", 222, 0xde18d0d970b368dd),
        ("MetaContains", 125, 0x335b06f9517bb830),
        ("MetaNodeCount", 28, 0x221e28bb191384be),
        ("MetaEvict", 122, 0xac39da793c95cf4b),
        ("MetaEvictBatch", 133, 0x704e848f9151f29d),
        ("MetaListKeys", 27, 0x6a9011c098fc2acc),
        ("VmTicket", 169, 0x104d92f7fcab0329),
        ("VmTicketAppend", 80, 0x5444b3bce81434de),
        ("VmPublish", 213, 0x962c4d46382619b7),
        ("VmIsPublished", 65, 0x039a8ce52aa28a10),
        ("VmLatest", 40, 0x8a3d5a37fc5d5da7),
        ("VmSnapshot", 62, 0x9f762a2b3a10b859),
        ("VmSetRetention", 93, 0xdc8737c5d74fa246),
        ("VmLeaseAcquire", 85, 0xf708b381b2b5cd45),
        ("VmLeaseRenew", 81, 0xb7c9c0fb85633bf9),
        ("VmLeaseRelease", 64, 0x5ef90f5591b6dfc7),
        ("VmGcFloor", 41, 0x69ada603135ab975),
        ("SlotMapGet", 25, 0x10a6cdd3eb836fda),
        ("SlotMapInstall", 321, 0xa28cd9ce989f8aeb),
        ("VmFreezeSlots", 87, 0x19009e6e0cf9dc1b),
        ("VmSealSlots", 76, 0x2e2308ff449009f4),
        ("VmExportSlots", 60, 0x0e7cd651c6b3b409),
        ("VmImportBlobs", 364, 0xeefdb89aa4d56fce),
        ("Pong", 19, 0x8c2ce09656154662),
        ("Unit", 19, 0xa1dc40b40f6f2f60),
        ("Done", 36, 0x86bd19aeda9f1397),
        ("PutBatch", 143, 0x8ffcb91a37ab5e2d),
        ("ChunkData", 41, 0x159caf4860b42483),
        ("ChunkBatch", 176, 0x7e1bc636dae365a7),
        ("Flag", 30, 0xe1ec9efc27fe066e),
        ("Count", 38, 0x494ef08b93122ef7),
        ("Checksum", 33, 0x67a638c7307fa1e8),
        ("Checksum", 41, 0xbf51139c23bcbe27),
        ("NodePuts", 134, 0x1600b80f99f2efb1),
        ("NodeGets", 903, 0x2abc60f846a33006),
        ("Keys", 123, 0x9e90fd5e37188c4f),
        ("TicketGrant", 301, 0xff7394c1f63c7db4),
        ("Snapshot", 195, 0xbf7b8e6f26280e66),
        ("Lease", 98, 0xb83d0f2a334f6b7a),
        ("GcFloor", 109, 0xd5fe454b26b1f10d),
        ("SlotMapInfo", 432, 0x2d52a2b7011028a1),
        ("SlotExport", 361, 0x6d5513dc290282b5),
        ("SlotExport", 39, 0xe16f27cad141f3b4),
        ("Busy", 60, 0x928e58bec75fc582),
        ("Fail", 88, 0x7d1da4434c68547b),
        ("Fail", 101, 0x0723149c33e15c8d),
    ];

    /// Three of those encodings in full, same provenance.
    const GOLDEN_HEX: &[(&str, &str)] = &[
        ("Ping", "07010000000100000074050400000050696e67"),
        (
            "PutChunk",
            concat!(
                "0704000000010000007405080000005075744368756e6b0800000070726f7669",
                "646572020300000000000000070000006172726976616c022a00000000000000",
                "050000006368756e6b020900000000000000",
            ),
        ),
        (
            "PutBatch",
            concat!(
                "070200000001000000740508000000507574426174636807000000726573756c",
                "747306020000000702000000010000007405020000004f6b0100000076020500",
                "0000000000000702000000010000007405030000004572720100000065070200",
                "00000100000074050e00000050726f76696465724661696c6564080000007072",
                "6f7669646572020100000000000000",
            ),
        ),
    ];

    /// The derived codec writes the pinned bytes for `sample`, and reads
    /// them back to `sample`.
    fn check_golden<T>(sample: &T, &(variant, len, checksum): &(&str, usize, u64))
    where
        T: Serialize + Deserialize + PartialEq + std::fmt::Debug,
    {
        let value = sample.to_value();
        assert_eq!(value.variant_tag("sample"), Ok(variant));
        let mut bytes = Vec::new();
        wire::encode_value(&value, &mut bytes);
        assert_eq!(
            (bytes.len(), chunk_checksum(&bytes)),
            (len, checksum),
            "the encoding of {variant} moved: {sample:?}"
        );
        if let Some((_, hex)) = GOLDEN_HEX.iter().find(|(v, _)| *v == variant) {
            let written: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(&written, hex, "the encoding of {variant} moved");
        }
        let decoded = wire::decode_value(&bytes).unwrap();
        assert_eq!(&T::from_value(&decoded).unwrap(), sample);
    }

    #[test]
    fn the_derived_codec_writes_the_bytes_the_hand_written_one_wrote() {
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
        let v = Value::Object(vec![("t".into(), Value::Str("Nonsense".into()))]);
        assert!(Request::from_value(&v).is_err());
        assert!(Response::from_value(&v).is_err());
        // So does a batch outcome that is neither `Ok` nor `Err`.
        let v = Value::Object(vec![
            ("t".into(), Value::Str("PutBatch".into())),
            ("results".into(), Value::Array(vec![v])),
        ]);
        let e = Response::from_value(&v).unwrap_err().to_string();
        assert_eq!(e, "unknown Result tag \"Nonsense\"");
    }
}
