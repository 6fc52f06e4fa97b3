//! Client-side proxies: drop-in substrates speaking RPC.
//!
//! * [`RemoteProvider`] implements [`ChunkStore`], so a
//!   `ProviderManager` built with `from_stores` routes chunk traffic
//!   through a [`Transport`] instead of in-process providers.
//! * [`RemoteMetaStore`] implements [`NodeStore`] for the tree builder
//!   and the read path; a read's resolve is one `MetaResolve` round
//!   trip, walked on the metadata server.
//! * [`RemoteVersionManager`] implements [`VersionOracle`] — and spells
//!   its calls nowhere else — in front of a server-hosted version
//!   manager, keeping a local [`VersionHistory`] mirror fed by the grant
//!   deltas, so metadata building proceeds from local history exactly as
//!   it does against the in-process manager.
//!
//! Proxies carry a **zero** cost model and idle device resources: over a
//! real transport, latency is real, so simulated device charging would
//! double-count. Infallible interface methods (`has_chunk`, counters)
//! degrade to neutral values on transport failure — the fallible data
//! path is where typed [`Error::Transport`] values surface and drive
//! the provider manager's failover.

use crate::proto::{Request, Response};
use crate::transport::{unexpected, Transport};
use crate::wire::PayloadCursor;
use atomio_meta::{Node, NodeCache, NodeKey, NodeStore, ResolvedPiece, VersionHistory};
use atomio_provider::ChunkStore;
use atomio_simgrid::clock::SimTime;
use atomio_simgrid::{CostModel, Participant, Resource};
use atomio_types::{
    ByteRange, ChunkId, Error, ExtentList, ProviderId, Result, RetentionPolicy, TransportErrorKind,
    VersionId,
};
use atomio_version::{GcFloor, LeaseGrant, SnapshotRecord, Ticket, VersionOracle};
use bytes::Bytes;
use std::sync::Arc;

/// A [`ChunkStore`] whose chunks live behind a transport.
#[derive(Debug)]
pub struct RemoteProvider {
    id: ProviderId,
    transport: Arc<dyn Transport>,
    cost: CostModel,
    disk: Resource,
    nic: Resource,
}

impl RemoteProvider {
    /// Creates a proxy for provider `id` reachable over `transport`.
    pub fn new(id: ProviderId, transport: Arc<dyn Transport>) -> Self {
        RemoteProvider {
            id,
            transport,
            cost: CostModel::zero(),
            // Idle placeholders: the trait asks for simulated devices,
            // which a remote proxy does not have.
            disk: Resource::new(format!("{id}/remote-disk")),
            nic: Resource::new(format!("{id}/remote-nic")),
        }
    }

    fn call(&self, request: &Request, payload: &[u8]) -> Result<(Response, Bytes)> {
        self.transport.call(request, payload)
    }
}

/// Payload bytes one batched data-plane frame carries at most (a single
/// larger chunk still travels, alone). A constant, not a tuning knob:
/// it has to stay far below [`MAX_PAYLOAD_BYTES`](crate::wire::MAX_PAYLOAD_BYTES)
/// whatever a caller batches, and every frame occupies the one mux
/// connection until its last byte is out, so it bounds how long a small
/// call (a ticket, a publish) queued behind a batch can wait.
pub const BATCH_FRAME_BYTES: usize = 1 << 20;

/// Items one batched frame carries at most: bounds the *header* of a
/// batch of tiny items the way [`BATCH_FRAME_BYTES`] bounds the payload
/// (the frame header limit is 16 MiB; an item encodes to tens of bytes).
const BATCH_FRAME_ITEMS: usize = 4096;

/// Cuts `items` into consecutive runs that each fit one batched frame.
fn frames<T>(items: &[T], payload_len: impl Fn(&T) -> u64) -> impl Iterator<Item = &[T]> {
    let mut rest = items;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let mut bytes = 0u64;
        let mut take = 0;
        while take < rest.len().min(BATCH_FRAME_ITEMS) {
            bytes = bytes.saturating_add(payload_len(&rest[take]));
            if take > 0 && bytes > BATCH_FRAME_BYTES as u64 {
                break;
            }
            take += 1;
        }
        let (frame, tail) = rest.split_at(take);
        rest = tail;
        Some(frame)
    })
}

/// The per-item outcomes of one frame of a batch: the service's own on
/// success; a frame-level failure (transport error, refusal, a reply of
/// the wrong shape) fans out as one cloned error per item, so callers
/// keep their one-outcome-per-input invariant.
fn fan_out<T: Clone>(items: usize, outcome: Result<Vec<Result<T>>>) -> Vec<Result<T>> {
    match outcome {
        Ok(results) => results,
        Err(e) => vec![Err(e); items],
    }
}

impl ChunkStore for RemoteProvider {
    fn id(&self) -> ProviderId {
        self.id
    }

    fn put_chunk(&self, _p: &Participant, chunk: ChunkId, data: Bytes) -> Result<()> {
        self.put_chunk_at(0, chunk, data).map(|_| ())
    }

    fn put_chunk_at(&self, arrival: SimTime, chunk: ChunkId, data: Bytes) -> Result<SimTime> {
        let request = Request::PutChunk {
            provider: self.id,
            arrival,
            chunk,
        };
        match self.call(&request, &data)? {
            (Response::Done { done }, _) => Ok(done),
            (other, _) => Err(unexpected("Done", other)),
        }
    }

    fn get_chunk(&self, _p: &Participant, chunk: ChunkId) -> Result<Bytes> {
        let request = Request::GetChunk {
            provider: self.id,
            arrival: 0,
            chunk,
        };
        match self.call(&request, &[])? {
            (Response::ChunkData { .. }, data) => Ok(data),
            (other, _) => Err(unexpected("ChunkData", other)),
        }
    }

    fn get_chunk_range(&self, _p: &Participant, chunk: ChunkId, range: ByteRange) -> Result<Bytes> {
        self.get_chunk_range_at(0, chunk, range)
            .map(|(data, _)| data)
    }

    fn get_chunk_range_at(
        &self,
        arrival: SimTime,
        chunk: ChunkId,
        range: ByteRange,
    ) -> Result<(Bytes, SimTime)> {
        let request = Request::GetChunkRange {
            provider: self.id,
            arrival,
            chunk,
            range,
        };
        match self.call(&request, &[])? {
            (Response::ChunkData { sent }, data) => Ok((data, sent)),
            (other, _) => Err(unexpected("ChunkData", other)),
        }
    }

    /// One `PutChunkBatch` frame per [`BATCH_FRAME_BYTES`] of payload;
    /// the chunks leave through [`Transport::call_vectored`], never
    /// joined into one buffer.
    fn put_batch_at(&self, items: &[(SimTime, ChunkId, Bytes)]) -> Vec<Result<SimTime>> {
        let mut outcomes = Vec::with_capacity(items.len());
        for frame in frames(items, |(_, _, data)| data.len() as u64) {
            let request = Request::PutChunkBatch {
                provider: self.id,
                items: frame
                    .iter()
                    .map(|(arrival, chunk, data)| (*arrival, *chunk, data.len() as u64))
                    .collect(),
            };
            let parts: Vec<Bytes> = frame.iter().map(|(_, _, data)| data.clone()).collect();
            let reply = self.transport.call_vectored(&request, &parts);
            outcomes.extend(fan_out(
                frame.len(),
                reply.and_then(|reply| match reply {
                    (Response::PutBatch { results }, _) if results.len() == frame.len() => {
                        Ok(results)
                    }
                    (other, _) => Err(unexpected("PutBatch", other)),
                }),
            ));
        }
        outcomes
    }

    /// One `GetChunkRangeBatch` frame per [`BATCH_FRAME_BYTES`] of
    /// requested payload; the items come back as zero-copy slices of the
    /// response frame.
    fn get_range_batch_at(
        &self,
        items: &[(SimTime, ChunkId, ByteRange)],
    ) -> Vec<Result<(Bytes, SimTime)>> {
        let mut outcomes = Vec::with_capacity(items.len());
        for frame in frames(items, |(_, _, range)| range.len) {
            let request = Request::GetChunkRangeBatch {
                provider: self.id,
                items: frame.to_vec(),
            };
            let reply = self.call(&request, &[]);
            outcomes.extend(fan_out(
                frame.len(),
                reply.and_then(|reply| match reply {
                    (Response::ChunkBatch { results }, payload) if results.len() == frame.len() => {
                        let mut cursor = PayloadCursor::new(&payload);
                        let items = results
                            .into_iter()
                            .map(|item| match item {
                                Ok((len, sent)) => Ok(Ok((cursor.take(len)?, sent))),
                                Err(e) => Ok(Err(e)),
                            })
                            .collect::<Result<Vec<_>>>()?;
                        cursor.finish()?;
                        Ok(items)
                    }
                    (other, _) => Err(unexpected("ChunkBatch", other)),
                }),
            ));
        }
        outcomes
    }

    fn chunk_count(&self) -> usize {
        let request = Request::ProviderChunkCount { provider: self.id };
        match self.call(&request, &[]) {
            Ok((Response::Count { value }, _)) => value as usize,
            _ => 0,
        }
    }

    fn bytes_stored(&self) -> u64 {
        let request = Request::ProviderBytesStored { provider: self.id };
        match self.call(&request, &[]) {
            Ok((Response::Count { value }, _)) => value,
            _ => 0,
        }
    }

    fn evict_chunk(&self, chunk: ChunkId) -> u64 {
        self.evict_chunk_batch(&[chunk])
    }

    fn evict_chunk_batch(&self, chunks: &[ChunkId]) -> u64 {
        let request = Request::ProviderEvictBatch {
            provider: self.id,
            chunks: chunks.to_vec(),
        };
        match self.call(&request, &[]) {
            Ok((Response::Count { value }, _)) => value,
            _ => 0,
        }
    }

    fn checksum_of(&self, chunk: ChunkId) -> Option<u64> {
        let request = Request::ProviderChecksumOf {
            provider: self.id,
            chunk,
        };
        match self.call(&request, &[]) {
            Ok((Response::Checksum { value }, _)) => value,
            _ => None,
        }
    }

    /// A no-op: a proxy holds no bytes to flip, and no request changes
    /// a stored chunk in place. Tests rot the hosted store they hold.
    fn corrupt_chunk(&self, _chunk: ChunkId, _byte: usize) {}

    fn disk(&self) -> &Resource {
        &self.disk
    }

    fn nic(&self) -> &Resource {
        &self.nic
    }

    fn cost(&self) -> &CostModel {
        &self.cost
    }
}

/// A [`NodeStore`] whose nodes live behind a transport. A transport
/// failure on a batch fans out as one cloned error per item, so callers
/// keep their one-outcome-per-input invariant. A resolve is one
/// `MetaResolve` round trip: the server walks the tree, so the client
/// node cache is never consulted.
#[derive(Debug)]
pub struct RemoteMetaStore {
    transport: Arc<dyn Transport>,
}

impl RemoteMetaStore {
    /// Creates a proxy over `transport`.
    pub fn new(transport: Arc<dyn Transport>) -> Self {
        RemoteMetaStore { transport }
    }
}

impl NodeStore for RemoteMetaStore {
    fn put_batch(&self, _p: &Participant, nodes: Vec<Node>) -> Vec<Result<()>> {
        let n = nodes.len();
        let request = Request::MetaPutBatch { nodes };
        match self.transport.call(&request, &[]) {
            Ok((Response::NodePuts { results }, _)) if results.len() == n => results,
            Ok((other, _)) => vec![Err(unexpected("NodePuts", other)); n],
            Err(e) => vec![Err(e); n],
        }
    }

    fn get_batch(&self, _p: &Participant, keys: &[NodeKey]) -> Vec<Result<Arc<Node>>> {
        let n = keys.len();
        let request = Request::MetaGetBatch {
            keys: keys.to_vec(),
        };
        match self.transport.call(&request, &[]) {
            Ok((Response::NodeGets { results }, _)) if results.len() == n => {
                results.into_iter().map(|r| r.map(Arc::new)).collect()
            }
            Ok((other, _)) => vec![Err(unexpected("NodeGets", other)); n],
            Err(e) => vec![Err(e); n],
        }
    }

    fn resolve(
        &self,
        _p: &Participant,
        root: Option<NodeKey>,
        extents: &ExtentList,
        _cache: Option<&NodeCache>,
    ) -> Result<Vec<ResolvedPiece>> {
        let request = Request::MetaResolve {
            root,
            extents: extents.clone(),
        };
        match self.transport.call(&request, &[])? {
            (Response::Pieces { pieces }, _) => {
                check_tiling(extents, &pieces)?;
                Ok(pieces)
            }
            (other, _) => Err(unexpected("Pieces", other)),
        }
    }

    fn contains(&self, key: NodeKey) -> bool {
        let request = Request::MetaGetBatch { keys: vec![key] };
        matches!(
            self.transport.call(&request, &[]),
            Ok((Response::NodeGets { results }, _)) if matches!(results[..], [Ok(_)])
        )
    }

    fn evict_batch(&self, keys: &[NodeKey]) -> u64 {
        let request = Request::MetaEvictBatch {
            keys: keys.to_vec(),
        };
        match self.transport.call(&request, &[]) {
            Ok((Response::Count { value }, _)) => value,
            _ => 0,
        }
    }

    fn list_keys(&self) -> Vec<NodeKey> {
        match self.transport.call(&Request::MetaListKeys, &[]) {
            Ok((Response::Keys { keys }, _)) => keys,
            _ => Vec::new(),
        }
    }
}

/// Checks that resolved pieces from a peer tile `extents` exactly —
/// sorted, gap-free, none empty, each inside one extent — and that no
/// stored piece's chunk range wraps: the read path indexes its buffer
/// and names chunk ranges by them.
pub(crate) fn check_tiling(extents: &ExtentList, pieces: &[ResolvedPiece]) -> Result<()> {
    let refuse = |why: &str| Error::Transport {
        kind: TransportErrorKind::Protocol,
        detail: format!("resolve reply of {} pieces {why}", pieces.len()),
    };
    let mut pieces = pieces.iter();
    for extent in extents {
        let mut at = extent.offset;
        while at < extent.end() {
            let piece = pieces.next().ok_or_else(|| refuse("leaves a gap"))?;
            let range = piece.file_range;
            if range.offset != at || range.len == 0 || range.end() > extent.end() {
                return Err(refuse("does not tile the extents"));
            }
            if let Some(src) = &piece.source {
                if src.chunk_offset.checked_add(range.len).is_none() {
                    return Err(refuse("names a chunk range that wraps"));
                }
            }
            at = range.end();
        }
    }
    match pieces.next() {
        Some(_) => Err(refuse("runs past the extents")),
        None => Ok(()),
    }
}

/// A client handle on a server-hosted version manager.
///
/// Mirrors the ticket contract of the in-process manager: every grant
/// carries the write summaries the client has not seen, the mirror
/// absorbs them, and the caller builds its metadata tree from the mirror
/// — one round trip per write. Its calls are spelled once, in its
/// [`VersionOracle`] impl.
#[derive(Debug)]
pub struct RemoteVersionManager {
    blob: u64,
    transport: Arc<dyn Transport>,
    mirror: Arc<VersionHistory>,
}

impl RemoteVersionManager {
    /// Creates a handle for `blob` over `transport` with an empty
    /// history mirror.
    pub fn new(blob: u64, transport: Arc<dyn Transport>) -> Self {
        RemoteVersionManager {
            blob,
            transport,
            mirror: Arc::new(VersionHistory::new()),
        }
    }

    /// The local history mirror (feeds the tree builder).
    pub fn history(&self) -> &Arc<VersionHistory> {
        &self.mirror
    }

    /// One control-plane round trip (no payload either way).
    fn call(&self, request: Request) -> Result<Response> {
        self.transport
            .call(&request, &[])
            .map(|(response, _)| response)
    }

    /// A ticket request; the mirror absorbs the returned history delta
    /// before this returns. The delta ends with the grantee's own row,
    /// which carries the extents the write was assigned. A delta that
    /// does not — or that the mirror refuses (a gap, a shrinking
    /// capacity) — is a typed protocol error, never a panic, and leaves
    /// the mirror as it was.
    fn grant(&self, request: Request) -> Result<(Ticket, Arc<ExtentList>)> {
        let (ticket, delta) = match self.call(request)? {
            Response::TicketGrant { ticket, delta } => (ticket, delta),
            other => return Err(unexpected("TicketGrant", other)),
        };
        let extents = match delta.last() {
            Some(own) if own.version == ticket.version => Arc::clone(&own.extents),
            last => {
                return Err(Error::Transport {
                    kind: TransportErrorKind::Protocol,
                    detail: format!(
                        "grant of {} ends its delta with {:?}, not the grantee's row",
                        ticket.version,
                        last.map(|row| row.version)
                    ),
                })
            }
        };
        self.mirror.absorb(delta)?;
        Ok((ticket, extents))
    }

    fn unit(&self, request: Request) -> Result<()> {
        match self.call(request)? {
            Response::Unit => Ok(()),
            other => Err(unexpected("Unit", other)),
        }
    }

    fn snapshot_call(&self, request: Request) -> Result<SnapshotRecord> {
        match self.call(request)? {
            Response::Snapshot { record } => Ok(record),
            other => Err(unexpected("Snapshot", other)),
        }
    }

    /// A lease request (the server may clamp the TTL).
    fn lease_call(&self, request: Request) -> Result<LeaseGrant> {
        match self.call(request)? {
            Response::Lease { grant } => Ok(grant),
            other => Err(unexpected("Lease", other)),
        }
    }
}

/// The oracle seam: a `Store` built with
/// `with_version_oracles(|blob| Arc::new(RemoteVersionManager::new(...)))`
/// runs the unchanged blob write path against an `atomio-version-server`.
///
/// The `Participant` is unused on the RPC legs themselves (network cost
/// is carried by the transport's blocking calls); it only paces the
/// timed publication poll in [`VersionOracle::wait_published`].
impl VersionOracle for RemoteVersionManager {
    fn history(&self) -> &Arc<VersionHistory> {
        &self.mirror
    }

    fn ticket(&self, _p: &Participant, extents: &ExtentList) -> Result<Ticket> {
        let request = Request::VmTicket {
            blob: self.blob,
            extents: extents.clone(),
            known: self.mirror.len() as u64,
        };
        self.grant(request).map(|(ticket, _)| ticket)
    }

    fn ticket_append(&self, _p: &Participant, len: u64) -> Result<(Ticket, ExtentList)> {
        let request = Request::VmTicketAppend {
            blob: self.blob,
            len,
            known: self.mirror.len() as u64,
        };
        let (ticket, extents) = self.grant(request)?;
        Ok((ticket, ExtentList::clone(&extents)))
    }

    fn publish(&self, _p: &Participant, ticket: Ticket, root: NodeKey) -> Result<()> {
        self.unit(Request::VmPublish {
            blob: self.blob,
            ticket,
            root,
        })
    }

    fn is_published(&self, version: VersionId) -> Result<bool> {
        let request = Request::VmIsPublished {
            blob: self.blob,
            version,
        };
        match self.call(request)? {
            Response::Flag { value } => Ok(value),
            other => Err(unexpected("Flag", other)),
        }
    }

    /// A timed poll, not an [`atomio_simgrid::Event`] wait: the state it
    /// waits on lives across a socket, where nothing can notify a local
    /// participant. The back-off (20 µs, growing 1.5× per miss to 2 ms)
    /// is virtual time, so it paces the loop only against other
    /// participants of the same clock. On a one-participant clock (one
    /// clock per client, as a socket deployment runs) every sleep returns
    /// at once and the loop sends `VmIsPublished` back to back until the
    /// version is visible. ROADMAP item 8(a) deletes the loop by parking
    /// `VmPublish` server-side.
    fn wait_published(&self, p: &Participant, version: VersionId) -> Result<()> {
        const FIRST_NS: u64 = 20_000;
        const CAP_NS: u64 = 2_000_000;
        let mut interval = FIRST_NS;
        while !self.is_published(version)? {
            p.sleep_ns(interval);
            interval = (interval + interval / 2).min(CAP_NS);
        }
        Ok(())
    }

    fn latest(&self, _p: &Participant) -> Result<SnapshotRecord> {
        self.snapshot_call(Request::VmLatest { blob: self.blob })
    }

    fn snapshot(&self, _p: &Participant, version: VersionId) -> Result<SnapshotRecord> {
        self.snapshot_call(Request::VmSnapshot {
            blob: self.blob,
            version,
        })
    }

    fn set_retention(&self, _p: &Participant, policy: RetentionPolicy) -> Result<()> {
        self.unit(Request::VmSetRetention {
            blob: self.blob,
            policy,
        })
    }

    fn lease_acquire(
        &self,
        _p: &Participant,
        version: VersionId,
        ttl_ms: u64,
    ) -> Result<LeaseGrant> {
        self.lease_call(Request::VmLeaseAcquire {
            blob: self.blob,
            version,
            ttl_ms,
        })
    }

    fn lease_renew(&self, _p: &Participant, lease: u64, ttl_ms: u64) -> Result<LeaseGrant> {
        self.lease_call(Request::VmLeaseRenew {
            blob: self.blob,
            lease,
            ttl_ms,
        })
    }

    fn lease_release(&self, _p: &Participant, lease: u64) -> Result<()> {
        self.unit(Request::VmLeaseRelease {
            blob: self.blob,
            lease,
        })
    }

    fn gc_floor(&self, _p: &Participant) -> Result<GcFloor> {
        match self.call(Request::VmGcFloor { blob: self.blob })? {
            Response::GcFloor { info } => Ok(info),
            other => Err(unexpected("GcFloor", other)),
        }
    }
}
