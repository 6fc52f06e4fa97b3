//! The wire protocol: request and response headers.
//!
//! Every message is encoded as a tagged object — `{"t": "VariantName",
//! ...fields}` — in the frame header; chunk payloads ride the frame's
//! out-of-band payload section (see [`crate::wire`]). The vendored serde
//! derive cannot express enums, so both enums carry hand-written
//! [`Serialize`]/[`Deserialize`] impls; unknown tags decode to an error
//! instead of panicking, so protocol skew fails a single call, not the
//! process.

use atomio_core::SlotMap;
use atomio_meta::{Node, NodeKey, WriteSummary};
use atomio_types::{ByteRange, ChunkId, Error, ProviderId, Result, RetentionPolicy, VersionId};
use atomio_version::{GcFloor, LeaseGrant, SnapshotRecord, Ticket, VersionExport};
use serde::{DeError, Deserialize, Serialize, Value};

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
#[derive(Debug, Clone, PartialEq)]
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
    pub versions: Vec<VersionExport>,
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
#[derive(Debug, Clone, PartialEq)]
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

fn tagged(tag: &str, mut fields: Vec<(String, Value)>) -> Value {
    let mut all = vec![("t".to_string(), Value::Str(tag.to_string()))];
    all.append(&mut fields);
    Value::Object(all)
}

fn field<T: Serialize>(name: &str, v: &T) -> (String, Value) {
    (name.to_string(), v.to_value())
}

fn get<T: Deserialize>(v: &Value, name: &str) -> std::result::Result<T, DeError> {
    T::from_value(v.get_or_null(name))
}

fn result_to_value<T: Serialize>(r: &Result<T>) -> Value {
    match r {
        Ok(v) => tagged("Ok", vec![field("v", v)]),
        Err(e) => tagged("Err", vec![field("e", e)]),
    }
}

fn result_from_value<T: Deserialize>(v: &Value) -> std::result::Result<Result<T>, DeError> {
    match get::<String>(v, "t")?.as_str() {
        "Ok" => Ok(Ok(get(v, "v")?)),
        "Err" => Ok(Err(get(v, "e")?)),
        other => Err(DeError::new(format!("unknown result tag {other:?}"))),
    }
}

fn results_to_value<T: Serialize>(rs: &[Result<T>]) -> Value {
    Value::Array(rs.iter().map(result_to_value).collect())
}

fn results_from_value<T: Deserialize>(v: &Value) -> std::result::Result<Vec<Result<T>>, DeError> {
    match v {
        Value::Array(items) => items.iter().map(result_from_value).collect(),
        other => Err(DeError::expected("array of results", other)),
    }
}

impl Serialize for Request {
    fn to_value(&self) -> Value {
        use Request::*;
        match self {
            Ping => tagged("Ping", vec![]),
            PutChunk {
                provider,
                arrival,
                chunk,
            } => tagged(
                "PutChunk",
                vec![
                    field("provider", provider),
                    field("arrival", arrival),
                    field("chunk", chunk),
                ],
            ),
            PutChunkBatch { provider, items } => tagged(
                "PutChunkBatch",
                vec![field("provider", provider), field("items", items)],
            ),
            GetChunk {
                provider,
                arrival,
                chunk,
            } => tagged(
                "GetChunk",
                vec![
                    field("provider", provider),
                    field("arrival", arrival),
                    field("chunk", chunk),
                ],
            ),
            GetChunkRange {
                provider,
                arrival,
                chunk,
                range,
            } => tagged(
                "GetChunkRange",
                vec![
                    field("provider", provider),
                    field("arrival", arrival),
                    field("chunk", chunk),
                    field("range", range),
                ],
            ),
            GetChunkRangeBatch { provider, items } => tagged(
                "GetChunkRangeBatch",
                vec![field("provider", provider), field("items", items)],
            ),
            ProviderHasChunk { provider, chunk } => tagged(
                "ProviderHasChunk",
                vec![field("provider", provider), field("chunk", chunk)],
            ),
            ProviderChunkCount { provider } => {
                tagged("ProviderChunkCount", vec![field("provider", provider)])
            }
            ProviderBytesStored { provider } => {
                tagged("ProviderBytesStored", vec![field("provider", provider)])
            }
            ProviderEvictChunk { provider, chunk } => tagged(
                "ProviderEvictChunk",
                vec![field("provider", provider), field("chunk", chunk)],
            ),
            ProviderEvictBatch { provider, chunks } => tagged(
                "ProviderEvictBatch",
                vec![field("provider", provider), field("chunks", chunks)],
            ),
            ProviderChecksumOf { provider, chunk } => tagged(
                "ProviderChecksumOf",
                vec![field("provider", provider), field("chunk", chunk)],
            ),
            ProviderCorruptChunk {
                provider,
                chunk,
                byte,
            } => tagged(
                "ProviderCorruptChunk",
                vec![
                    field("provider", provider),
                    field("chunk", chunk),
                    field("byte", byte),
                ],
            ),
            MetaPutBatch { nodes } => tagged("MetaPutBatch", vec![field("nodes", nodes)]),
            MetaGetBatch { keys } => tagged("MetaGetBatch", vec![field("keys", keys)]),
            MetaContains { key } => tagged("MetaContains", vec![field("key", key)]),
            MetaNodeCount => tagged("MetaNodeCount", vec![]),
            MetaEvict { key } => tagged("MetaEvict", vec![field("key", key)]),
            MetaEvictBatch { keys } => tagged("MetaEvictBatch", vec![field("keys", keys)]),
            MetaListKeys => tagged("MetaListKeys", vec![]),
            VmTicket {
                blob,
                extents,
                known,
            } => tagged(
                "VmTicket",
                vec![
                    field("blob", blob),
                    field("extents", extents),
                    field("known", known),
                ],
            ),
            VmTicketAppend { blob, len, known } => tagged(
                "VmTicketAppend",
                vec![
                    field("blob", blob),
                    field("len", len),
                    field("known", known),
                ],
            ),
            VmPublish { blob, ticket, root } => tagged(
                "VmPublish",
                vec![
                    field("blob", blob),
                    field("ticket", ticket),
                    field("root", root),
                ],
            ),
            VmIsPublished { blob, version } => tagged(
                "VmIsPublished",
                vec![field("blob", blob), field("version", version)],
            ),
            VmLatest { blob } => tagged("VmLatest", vec![field("blob", blob)]),
            VmSnapshot { blob, version } => tagged(
                "VmSnapshot",
                vec![field("blob", blob), field("version", version)],
            ),
            VmSetRetention { blob, policy } => tagged(
                "VmSetRetention",
                vec![field("blob", blob), field("policy", policy)],
            ),
            VmLeaseAcquire {
                blob,
                version,
                ttl_ms,
            } => tagged(
                "VmLeaseAcquire",
                vec![
                    field("blob", blob),
                    field("version", version),
                    field("ttl_ms", ttl_ms),
                ],
            ),
            VmLeaseRenew {
                blob,
                lease,
                ttl_ms,
            } => tagged(
                "VmLeaseRenew",
                vec![
                    field("blob", blob),
                    field("lease", lease),
                    field("ttl_ms", ttl_ms),
                ],
            ),
            VmLeaseRelease { blob, lease } => tagged(
                "VmLeaseRelease",
                vec![field("blob", blob), field("lease", lease)],
            ),
            VmGcFloor { blob } => tagged("VmGcFloor", vec![field("blob", blob)]),
            SlotMapGet => tagged("SlotMapGet", vec![]),
            SlotMapInstall { map } => tagged("SlotMapInstall", vec![field("map", map)]),
            VmFreezeSlots { slots, epoch } => tagged(
                "VmFreezeSlots",
                vec![field("slots", slots), field("epoch", epoch)],
            ),
            VmSealSlots { slots, epoch } => tagged(
                "VmSealSlots",
                vec![field("slots", slots), field("epoch", epoch)],
            ),
            VmExportSlots { slots } => tagged("VmExportSlots", vec![field("slots", slots)]),
            VmImportBlobs { blobs } => tagged("VmImportBlobs", vec![field("blobs", blobs)]),
        }
    }
}

impl Deserialize for Request {
    fn from_value(v: &Value) -> std::result::Result<Self, DeError> {
        use Request::*;
        Ok(match get::<String>(v, "t")?.as_str() {
            "Ping" => Ping,
            "PutChunk" => PutChunk {
                provider: get(v, "provider")?,
                arrival: get(v, "arrival")?,
                chunk: get(v, "chunk")?,
            },
            "PutChunkBatch" => PutChunkBatch {
                provider: get(v, "provider")?,
                items: get(v, "items")?,
            },
            "GetChunk" => GetChunk {
                provider: get(v, "provider")?,
                arrival: get(v, "arrival")?,
                chunk: get(v, "chunk")?,
            },
            "GetChunkRange" => GetChunkRange {
                provider: get(v, "provider")?,
                arrival: get(v, "arrival")?,
                chunk: get(v, "chunk")?,
                range: get(v, "range")?,
            },
            "GetChunkRangeBatch" => GetChunkRangeBatch {
                provider: get(v, "provider")?,
                items: get(v, "items")?,
            },
            "ProviderHasChunk" => ProviderHasChunk {
                provider: get(v, "provider")?,
                chunk: get(v, "chunk")?,
            },
            "ProviderChunkCount" => ProviderChunkCount {
                provider: get(v, "provider")?,
            },
            "ProviderBytesStored" => ProviderBytesStored {
                provider: get(v, "provider")?,
            },
            "ProviderEvictChunk" => ProviderEvictChunk {
                provider: get(v, "provider")?,
                chunk: get(v, "chunk")?,
            },
            "ProviderEvictBatch" => ProviderEvictBatch {
                provider: get(v, "provider")?,
                chunks: get(v, "chunks")?,
            },
            "ProviderChecksumOf" => ProviderChecksumOf {
                provider: get(v, "provider")?,
                chunk: get(v, "chunk")?,
            },
            "ProviderCorruptChunk" => ProviderCorruptChunk {
                provider: get(v, "provider")?,
                chunk: get(v, "chunk")?,
                byte: get(v, "byte")?,
            },
            "MetaPutBatch" => MetaPutBatch {
                nodes: get(v, "nodes")?,
            },
            "MetaGetBatch" => MetaGetBatch {
                keys: get(v, "keys")?,
            },
            "MetaContains" => MetaContains {
                key: get(v, "key")?,
            },
            "MetaNodeCount" => MetaNodeCount,
            "MetaEvict" => MetaEvict {
                key: get(v, "key")?,
            },
            "MetaEvictBatch" => MetaEvictBatch {
                keys: get(v, "keys")?,
            },
            "MetaListKeys" => MetaListKeys,
            "VmTicket" => VmTicket {
                blob: get(v, "blob")?,
                extents: get(v, "extents")?,
                known: get(v, "known")?,
            },
            "VmTicketAppend" => VmTicketAppend {
                blob: get(v, "blob")?,
                len: get(v, "len")?,
                known: get(v, "known")?,
            },
            "VmPublish" => VmPublish {
                blob: get(v, "blob")?,
                ticket: get(v, "ticket")?,
                root: get(v, "root")?,
            },
            "VmIsPublished" => VmIsPublished {
                blob: get(v, "blob")?,
                version: get(v, "version")?,
            },
            "VmLatest" => VmLatest {
                blob: get(v, "blob")?,
            },
            "VmSnapshot" => VmSnapshot {
                blob: get(v, "blob")?,
                version: get(v, "version")?,
            },
            "VmSetRetention" => VmSetRetention {
                blob: get(v, "blob")?,
                policy: get(v, "policy")?,
            },
            "VmLeaseAcquire" => VmLeaseAcquire {
                blob: get(v, "blob")?,
                version: get(v, "version")?,
                ttl_ms: get(v, "ttl_ms")?,
            },
            "VmLeaseRenew" => VmLeaseRenew {
                blob: get(v, "blob")?,
                lease: get(v, "lease")?,
                ttl_ms: get(v, "ttl_ms")?,
            },
            "VmLeaseRelease" => VmLeaseRelease {
                blob: get(v, "blob")?,
                lease: get(v, "lease")?,
            },
            "VmGcFloor" => VmGcFloor {
                blob: get(v, "blob")?,
            },
            "SlotMapGet" => SlotMapGet,
            "SlotMapInstall" => SlotMapInstall {
                map: get(v, "map")?,
            },
            "VmFreezeSlots" => VmFreezeSlots {
                slots: get(v, "slots")?,
                epoch: get(v, "epoch")?,
            },
            "VmSealSlots" => VmSealSlots {
                slots: get(v, "slots")?,
                epoch: get(v, "epoch")?,
            },
            "VmExportSlots" => VmExportSlots {
                slots: get(v, "slots")?,
            },
            "VmImportBlobs" => VmImportBlobs {
                blobs: get(v, "blobs")?,
            },
            other => return Err(DeError::new(format!("unknown request tag {other:?}"))),
        })
    }
}

impl Serialize for Response {
    fn to_value(&self) -> Value {
        use Response::*;
        match self {
            Pong => tagged("Pong", vec![]),
            Unit => tagged("Unit", vec![]),
            Done { done } => tagged("Done", vec![field("done", done)]),
            PutBatch { results } => tagged(
                "PutBatch",
                vec![("results".to_string(), results_to_value(results))],
            ),
            ChunkData { sent } => tagged("ChunkData", vec![field("sent", sent)]),
            ChunkBatch { results } => tagged(
                "ChunkBatch",
                vec![("results".to_string(), results_to_value(results))],
            ),
            Flag { value } => tagged("Flag", vec![field("value", value)]),
            Count { value } => tagged("Count", vec![field("value", value)]),
            Checksum { value } => tagged("Checksum", vec![field("value", value)]),
            NodePuts { results } => tagged(
                "NodePuts",
                vec![("results".to_string(), results_to_value(results))],
            ),
            NodeGets { results } => tagged(
                "NodeGets",
                vec![("results".to_string(), results_to_value(results))],
            ),
            Keys { keys } => tagged("Keys", vec![field("keys", keys)]),
            TicketGrant {
                ticket,
                extents,
                delta,
            } => tagged(
                "TicketGrant",
                vec![
                    field("ticket", ticket),
                    field("extents", extents),
                    field("delta", delta),
                ],
            ),
            Snapshot { record } => tagged("Snapshot", vec![field("record", record)]),
            Lease { grant } => tagged("Lease", vec![field("grant", grant)]),
            GcFloor { info } => tagged("GcFloor", vec![field("info", info)]),
            SlotMapInfo { map } => tagged("SlotMapInfo", vec![field("map", map)]),
            SlotExport { blobs } => tagged("SlotExport", vec![field("blobs", blobs)]),
            Busy { active, max_conns } => tagged(
                "Busy",
                vec![field("active", active), field("max_conns", max_conns)],
            ),
            Fail { error } => tagged("Fail", vec![field("error", error)]),
        }
    }
}

impl Deserialize for Response {
    fn from_value(v: &Value) -> std::result::Result<Self, DeError> {
        use Response::*;
        Ok(match get::<String>(v, "t")?.as_str() {
            "Pong" => Pong,
            "Unit" => Unit,
            "Done" => Done {
                done: get(v, "done")?,
            },
            "PutBatch" => PutBatch {
                results: results_from_value(v.get_or_null("results"))?,
            },
            "ChunkData" => ChunkData {
                sent: get(v, "sent")?,
            },
            "ChunkBatch" => ChunkBatch {
                results: results_from_value(v.get_or_null("results"))?,
            },
            "Flag" => Flag {
                value: get(v, "value")?,
            },
            "Count" => Count {
                value: get(v, "value")?,
            },
            "Checksum" => Checksum {
                value: get(v, "value")?,
            },
            "NodePuts" => NodePuts {
                results: results_from_value(v.get_or_null("results"))?,
            },
            "NodeGets" => NodeGets {
                results: results_from_value(v.get_or_null("results"))?,
            },
            "Keys" => Keys {
                keys: get(v, "keys")?,
            },
            "TicketGrant" => TicketGrant {
                ticket: get(v, "ticket")?,
                extents: get(v, "extents")?,
                delta: get(v, "delta")?,
            },
            "Snapshot" => Snapshot {
                record: get(v, "record")?,
            },
            "Lease" => Lease {
                grant: get(v, "grant")?,
            },
            "GcFloor" => GcFloor {
                info: get(v, "info")?,
            },
            "SlotMapInfo" => SlotMapInfo {
                map: get(v, "map")?,
            },
            "SlotExport" => SlotExport {
                blobs: get(v, "blobs")?,
            },
            "Busy" => Busy {
                active: get(v, "active")?,
                max_conns: get(v, "max_conns")?,
            },
            "Fail" => Fail {
                error: get(v, "error")?,
            },
            other => return Err(DeError::new(format!("unknown response tag {other:?}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomio_types::ExtentList;

    fn roundtrip_req(r: &Request) {
        assert_eq!(&Request::from_value(&r.to_value()).unwrap(), r);
    }

    fn roundtrip_resp(r: &Response) {
        assert_eq!(&Response::from_value(&r.to_value()).unwrap(), r);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(&Request::Ping);
        roundtrip_req(&Request::PutChunk {
            provider: ProviderId::new(3),
            arrival: 42,
            chunk: ChunkId::new(9),
        });
        roundtrip_req(&Request::PutChunkBatch {
            provider: ProviderId::new(0),
            items: vec![(7, ChunkId::new(1), 16), (9, ChunkId::new(2), 64)],
        });
        roundtrip_req(&Request::GetChunkRange {
            provider: ProviderId::new(1),
            arrival: 0,
            chunk: ChunkId::new(5),
            range: ByteRange::new(8, 24),
        });
        roundtrip_req(&Request::GetChunkRangeBatch {
            provider: ProviderId::new(1),
            items: vec![(3, ChunkId::new(5), ByteRange::new(0, 8))],
        });
        roundtrip_req(&Request::MetaNodeCount);
        roundtrip_req(&Request::ProviderEvictBatch {
            provider: ProviderId::new(2),
            chunks: vec![ChunkId::new(3), ChunkId::new(8)],
        });
        roundtrip_req(&Request::MetaEvictBatch {
            keys: vec![NodeKey {
                blob: atomio_types::BlobId::new(1),
                version: VersionId::new(2),
                range: ByteRange::new(0, 64),
            }],
        });
        roundtrip_req(&Request::VmSetRetention {
            blob: 1,
            policy: RetentionPolicy::KeepLast(2),
        });
        roundtrip_req(&Request::VmLeaseAcquire {
            blob: 1,
            version: VersionId::new(4),
            ttl_ms: 5_000,
        });
        roundtrip_req(&Request::VmLeaseRenew {
            blob: 1,
            lease: 9,
            ttl_ms: 5_000,
        });
        roundtrip_req(&Request::VmLeaseRelease { blob: 1, lease: 9 });
        roundtrip_req(&Request::VmGcFloor { blob: 1 });
        roundtrip_req(&Request::VmTicket {
            blob: 4,
            extents: ExtentList::from_pairs([(0u64, 64u64), (128, 64)]),
            known: 2,
        });
        roundtrip_req(&Request::VmPublish {
            blob: 4,
            ticket: Ticket {
                version: VersionId::new(3),
                capacity: 256,
                size: 192,
            },
            root: NodeKey {
                blob: atomio_types::BlobId::new(4),
                version: VersionId::new(3),
                range: ByteRange::new(0, 256),
            },
        });
        roundtrip_req(&Request::SlotMapGet);
        roundtrip_req(&Request::SlotMapInstall {
            map: SlotMap::uniform(4),
        });
        roundtrip_req(&Request::VmFreezeSlots {
            slots: vec![0, 7, 1023],
            epoch: 2,
        });
        roundtrip_req(&Request::VmSealSlots {
            slots: vec![0, 7],
            epoch: 2,
        });
        roundtrip_req(&Request::VmExportSlots { slots: vec![5, 6] });
        roundtrip_req(&Request::VmImportBlobs {
            blobs: vec![BlobExport {
                blob: 9,
                versions: vec![VersionExport {
                    version: VersionId::new(1),
                    root: Some(NodeKey {
                        blob: atomio_types::BlobId::new(9),
                        version: VersionId::new(1),
                        range: ByteRange::new(0, 64),
                    }),
                    size: 64,
                    capacity: 64,
                    extents: ExtentList::from_pairs([(0u64, 64u64)]),
                }],
                retention: RetentionPolicy::KeepLast(3),
            }],
        });
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
    fn responses_roundtrip() {
        roundtrip_resp(&Response::Pong);
        roundtrip_resp(&Response::Done { done: 77 });
        roundtrip_resp(&Response::PutBatch {
            results: vec![Ok(5), Err(Error::ProviderFailed(ProviderId::new(1)))],
        });
        roundtrip_resp(&Response::ChunkBatch {
            results: vec![
                Ok((16, 99)),
                Err(Error::ChunkNotFound {
                    provider: ProviderId::new(0),
                    chunk: ChunkId::new(2),
                }),
            ],
        });
        roundtrip_resp(&Response::Checksum { value: None });
        roundtrip_resp(&Response::Lease {
            grant: LeaseGrant {
                lease: 7,
                version: VersionId::new(3),
                expires_at_ms: 12_345,
            },
        });
        roundtrip_resp(&Response::GcFloor {
            info: GcFloor {
                floor: VersionId::new(5),
                leases_active: 2,
                lease_expirations: 1,
            },
        });
        roundtrip_resp(&Response::Checksum {
            value: Some(0xDEAD),
        });
        roundtrip_resp(&Response::NodePuts {
            results: vec![Ok(()), Err(Error::MetadataNodeMissing(3))],
        });
        roundtrip_resp(&Response::Busy {
            active: 1024,
            max_conns: 1024,
        });
        roundtrip_resp(&Response::SlotMapInfo {
            map: SlotMap::uniform(4).reassign(&[1, 2, 900], 3),
        });
        roundtrip_resp(&Response::SlotExport { blobs: vec![] });
        roundtrip_resp(&Response::Fail {
            error: Error::WrongShard { epoch: 3, slot: 77 },
        });
        roundtrip_resp(&Response::Fail {
            error: Error::Transport {
                kind: atomio_types::TransportErrorKind::Timeout,
                detail: "read timed out".into(),
            },
        });
    }

    #[test]
    fn unknown_tags_fail_cleanly() {
        let v = Value::Object(vec![("t".into(), Value::Str("Nonsense".into()))]);
        assert!(Request::from_value(&v).is_err());
        assert!(Response::from_value(&v).is_err());
    }
}
