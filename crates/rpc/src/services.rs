//! Server-side request dispatch: what a hosted role *does* with one
//! decoded request.
//!
//! A [`Service`] maps one decoded request to one response; the three
//! concrete services mirror the deployment's three server roles, and
//! every request variant has exactly one of them as its home:
//!
//! * [`ProviderService`] hosts a fleet of chunk stores (chunk ops).
//! * [`MetaService`] hosts metadata shards (node ops) and nothing else.
//! * [`VersionService`] hosts one lazily-created [`VersionManager`] per
//!   blob (ticket, publish, snapshot and lease ops) and is the only
//!   service that answers them.
//!
//! `Ping` is answered by all three; any other request sent to a role
//! that is not its home draws a typed [`Error::Unsupported`].
//!
//! Servers run **zero-cost** device models: a real deployment's latency
//! comes from the real sockets, not from the simulation. The virtual
//! `arrival` instants clients pass through the protocol therefore echo
//! back unchanged, keeping remote and in-process bookkeeping aligned.

use crate::proto::{Request, Response};
use crate::wire::{self, PayloadCursor};
use atomio_core::{shard_of, slot_for_blob};
use atomio_meta::{
    node_store_for, resolve_with, MetaStore, NodeKey, NodeStore, ResolvedPiece, TreeConfig,
    WriteSummary,
};
use atomio_provider::{chunk_store_for, ChunkStore};
use atomio_simgrid::{ClientNics, CostModel, FaultInjector};
use atomio_types::{
    BackendConfig, BlobId, ByteRange, ChunkId, Error, ExtentList, ProviderId, Result,
    RetentionPolicy, TransportErrorKind,
};
use atomio_version::{version_manager_for, Ticket, VersionManager};
use bytes::Bytes;
use parking_lot::Mutex;
use serde::Decode;
use std::collections::HashMap;
use std::sync::Arc;

/// Maps one request (plus out-of-band payload) to one response (plus
/// out-of-band payload). Implementations never panic on bad input: every
/// failure becomes a [`Response::Fail`].
pub trait Service: Send + Sync + std::fmt::Debug {
    /// Handles one request.
    fn handle(&self, request: Request, payload: Bytes) -> (Response, Bytes);

    /// [`Self::handle`] for a front-end that frames the response payload
    /// from parts: the payload is the parts' concatenation. The default
    /// is the one part `handle` returns; a service whose answer is a
    /// batch of buffers overrides it so they are copied once, into the
    /// response frame, not joined first.
    fn handle_vectored(&self, request: Request, payload: Bytes) -> (Response, Vec<Bytes>) {
        let (response, out) = self.handle(request, payload);
        (response, one_part(out))
    }
}

/// A response payload as a list of parts (none when it is empty, which
/// allocates nothing — most responses carry no payload).
fn one_part(out: Bytes) -> Vec<Bytes> {
    if out.is_empty() {
        Vec::new()
    } else {
        vec![out]
    }
}

/// A payload-free answer: the response, or the error as a
/// [`Response::Fail`].
fn reply(result: Result<Response>) -> (Response, Bytes) {
    let response = result.unwrap_or_else(|error| Response::Fail { error });
    (response, Bytes::new())
}

fn unsupported(role: &'static str) -> (Response, Bytes) {
    reply(Err(Error::Unsupported(role)))
}

/// The typed refusal of a request whose answer could not fit one frame.
fn past_the_frame_limit(detail: String) -> Error {
    Error::Transport {
        kind: TransportErrorKind::Protocol,
        detail,
    }
}

/// Hosts a fleet of chunk stores behind the chunk RPCs. The stores are
/// whatever the deployment's [`BackendConfig`] selects: ephemeral
/// in-memory providers or durable
/// [`DiskProvider`](atomio_provider::DiskProvider)s that recover their
/// state when the server restarts over the same `--data-dir`.
#[derive(Debug)]
pub struct ProviderService {
    providers: Vec<Arc<dyn ChunkStore>>,
}

impl ProviderService {
    /// Creates `count` zero-cost in-memory providers with ids
    /// `0..count` — shorthand for
    /// [`Self::with_backend`]`(count, &BackendConfig::Memory)`.
    pub fn new(count: usize) -> Self {
        Self::with_backend(count, &BackendConfig::Memory)
            .expect("the memory backend cannot fail to open")
    }

    /// Creates `count` zero-cost stores with ids `0..count` over the
    /// chosen backend — what the `atomio-provider-server` binary calls
    /// with its `--data-dir`/`--fsync` flags.
    ///
    /// # Errors
    /// [`Error::Internal`] when a disk backend's directory cannot be
    /// opened or recovered.
    pub fn with_backend(count: usize, backend: &BackendConfig) -> Result<Self> {
        let faults = Arc::new(FaultInjector::default());
        Ok(Self::from_stores(
            (0..count)
                .map(|i| {
                    chunk_store_for(
                        backend,
                        ProviderId::new(i as u64),
                        CostModel::zero(),
                        &faults,
                    )
                })
                .collect::<Result<_>>()?,
        ))
    }

    /// Hosts caller-built chunk stores (ids must be unique).
    pub fn from_stores(providers: Vec<Arc<dyn ChunkStore>>) -> Self {
        ProviderService { providers }
    }

    /// The hosted stores.
    pub fn providers(&self) -> &[Arc<dyn ChunkStore>] {
        &self.providers
    }

    fn provider(&self, id: ProviderId) -> Result<&Arc<dyn ChunkStore>> {
        self.providers
            .iter()
            .find(|p| p.id() == id)
            .ok_or(Error::ProviderNotFound(id))
    }

    /// Serves one `GetChunkRangeBatch`: per-item results, plus the
    /// successful items' payloads in request order.
    fn get_range_batch(
        &self,
        provider: ProviderId,
        items: &[(u64, ChunkId, ByteRange)],
    ) -> (Response, Vec<Bytes>) {
        let store = match self.provider(provider) {
            Ok(s) => s,
            Err(error) => return (Response::Fail { error }, Vec::new()),
        };
        // Refuse a batch whose answer could not fit one frame before a
        // single byte is read for it.
        let fits = items
            .iter()
            .try_fold(0u64, |sum, (_, _, range)| sum.checked_add(range.len))
            .is_some_and(|sum| sum <= wire::MAX_PAYLOAD_BYTES as u64);
        if !fits {
            let error = past_the_frame_limit(format!(
                "batch of {} ranges asks for more than the {}-byte frame payload limit",
                items.len(),
                wire::MAX_PAYLOAD_BYTES
            ));
            return (Response::Fail { error }, Vec::new());
        }
        let mut parts = Vec::with_capacity(items.len());
        let results = store
            .get_range_batch_at(items)
            .into_iter()
            .map(|item| {
                item.map(|(data, sent)| {
                    let len = data.len() as u64;
                    parts.push(data);
                    (len, sent)
                })
            })
            .collect();
        (Response::ChunkBatch { results }, parts)
    }
}

impl Service for ProviderService {
    fn handle_vectored(&self, request: Request, payload: Bytes) -> (Response, Vec<Bytes>) {
        match request {
            Request::GetChunkRangeBatch { provider, items } => {
                self.get_range_batch(provider, &items)
            }
            other => {
                let (response, out) = self.handle(other, payload);
                (response, one_part(out))
            }
        }
    }

    fn handle(&self, request: Request, payload: Bytes) -> (Response, Bytes) {
        use Request::*;
        match request {
            Ping => reply(Ok(Response::Pong)),
            PutChunk {
                provider,
                arrival,
                chunk,
            } => reply(
                self.provider(provider)
                    .and_then(|s| s.put_chunk_at(arrival, chunk, payload))
                    .map(|done| Response::Done { done }),
            ),
            PutChunkBatch { provider, items } => {
                let store = match self.provider(provider) {
                    Ok(s) => s,
                    Err(e) => return reply(Err(e)),
                };
                // The lengths are network input: the cursor refuses any
                // that overrun or overflow the payload.
                let mut cursor = PayloadCursor::new(&payload);
                let batch = items
                    .into_iter()
                    .map(|(arrival, chunk, len)| Ok((arrival, chunk, cursor.take(len)?)))
                    .collect::<Result<Vec<_>>>()
                    .and_then(|batch| cursor.finish().map(|()| batch));
                reply(batch.map(|batch| Response::PutBatch {
                    results: store.put_batch_at(&batch),
                }))
            }
            GetChunk {
                provider,
                arrival,
                chunk,
            } => {
                let outcome = self.provider(provider).and_then(|s| {
                    let len = s
                        .chunk_len(chunk)
                        .ok_or(Error::ChunkNotFound { provider, chunk })?;
                    s.get_chunk_range_at(arrival, chunk, ByteRange::new(0, len))
                });
                match outcome {
                    Ok((data, sent)) => (Response::ChunkData { sent }, data),
                    Err(e) => reply(Err(e)),
                }
            }
            GetChunkRange {
                provider,
                arrival,
                chunk,
                range,
            } => match self
                .provider(provider)
                .and_then(|s| s.get_chunk_range_at(arrival, chunk, range))
            {
                Ok((data, sent)) => (Response::ChunkData { sent }, data),
                Err(e) => reply(Err(e)),
            },
            GetChunkRangeBatch { provider, items } => {
                let (response, parts) = self.get_range_batch(provider, &items);
                (response, Bytes::from(parts.concat()))
            }
            ProviderChunkCount { provider } => {
                reply(self.provider(provider).map(|s| Response::Count {
                    value: s.chunk_count() as u64,
                }))
            }
            ProviderBytesStored { provider } => {
                reply(self.provider(provider).map(|s| Response::Count {
                    value: s.bytes_stored(),
                }))
            }
            ProviderChecksumOf { provider, chunk } => {
                reply(self.provider(provider).map(|s| Response::Checksum {
                    value: s.checksum_of(chunk),
                }))
            }
            ProviderEvictBatch { provider, chunks } => {
                reply(self.provider(provider).map(|s| Response::Count {
                    value: s.evict_chunk_batch(&chunks),
                }))
            }
            _ => unsupported("metadata/version op sent to a provider server"),
        }
    }
}

/// Hosts per-blob version managers behind the version RPCs — the third
/// server role, mirroring BlobSeer's standalone version manager, and the
/// only service that answers a `Vm*` request. The
/// `atomio-version-server` binary wraps exactly this service.
#[derive(Debug)]
pub struct VersionService {
    chunk_size: u64,
    backend: BackendConfig,
    retention: RetentionPolicy,
    lease_ttl_cap_ms: u64,
    vms: Mutex<HashMap<u64, Arc<VersionManager>>>,
    /// `(i, n)`: this server is shard `i` of an `n`-way fleet and serves
    /// the slots [`shard_of`] assigns to `i`. An unsharded server is
    /// shard `(0, 1)`, which owns every slot.
    shard: (usize, usize),
}

/// Largest lease TTL a server grants by default (10 minutes): a crashed
/// reader can pin history for at most this long.
pub const DEFAULT_LEASE_TTL_CAP_MS: u64 = 600_000;

impl VersionService {
    /// Creates the in-memory service; version managers use `chunk_size`
    /// for their tree geometry.
    pub fn new(chunk_size: u64) -> Self {
        Self::with_backend(chunk_size, BackendConfig::Memory)
    }

    /// Creates the service over the chosen backend — with a disk
    /// backend each blob's manager keeps a durable publish log under
    /// `<dir>/version/blob-<id>` and replays it on reopen, so granted
    /// version numbers, published snapshots, retention policies, and
    /// live leases survive a server restart.
    pub fn with_backend(chunk_size: u64, backend: BackendConfig) -> Self {
        VersionService {
            chunk_size,
            backend,
            retention: RetentionPolicy::default(),
            lease_ttl_cap_ms: DEFAULT_LEASE_TTL_CAP_MS,
            vms: Mutex::new(HashMap::new()),
            shard: (0, 1),
        }
    }

    /// Makes this service shard `shard` of an `of`-way deployment (the
    /// binaries' `--shard I/N` flag): it serves only the blobs whose
    /// slot [`shard_of`] assigns to `shard` and answers everything else
    /// with [`Error::WrongShard`].
    pub fn with_shard(mut self, shard: usize, of: usize) -> Self {
        assert!(shard < of, "shard index {shard} out of {of}");
        self.shard = (shard, of);
        self
    }

    /// [`Self::vm`] behind the ownership check — the dispatch path for
    /// every per-blob RPC.
    fn vm_owned(&self, blob: u64) -> Result<Arc<VersionManager>> {
        let (shard, of) = self.shard;
        let slot = slot_for_blob(blob);
        if shard_of(slot, of) != shard {
            return Err(Error::WrongShard { slot });
        }
        self.vm(blob)
    }

    /// Sets the deployment's default retention policy (the binaries'
    /// `--retention` flag). Applied to each blob whose manager has no
    /// policy of its own — an explicitly set (or durably recovered)
    /// per-blob policy wins.
    pub fn with_retention(mut self, retention: RetentionPolicy) -> Self {
        self.retention = retention;
        self
    }

    /// Caps granted lease TTLs at `cap_ms` (the binaries'
    /// `--lease-ttl-ms` flag): requests for longer leases are clamped,
    /// bounding how long a crashed reader can pin history.
    pub fn with_lease_ttl_cap(mut self, cap_ms: u64) -> Self {
        self.lease_ttl_cap_ms = cap_ms.max(1);
        self
    }

    /// Wall-clock milliseconds for lease bookkeeping — network servers
    /// have no virtual clock, so lease TTLs run on real time.
    fn now_ms() -> u64 {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0)
    }

    /// The hosted version manager for `blob` (lazily created, like a
    /// blob's first ticket would; recovered from its publish log on a
    /// disk backend).
    ///
    /// # Errors
    /// [`Error::Internal`] when a disk backend's publish log cannot be
    /// opened or recovered.
    pub fn vm(&self, blob: u64) -> Result<Arc<VersionManager>> {
        let mut vms = self.vms.lock();
        if let Some(vm) = vms.get(&blob) {
            return Ok(Arc::clone(vm));
        }
        let vm = Arc::new(version_manager_for(
            &self.backend,
            BlobId::new(blob),
            TreeConfig::new(self.chunk_size),
            CostModel::zero(),
            self.retention,
        )?);
        vms.insert(blob, Arc::clone(&vm));
        Ok(vm)
    }
}

/// The reply to either ticket request. The assigned extents stay home:
/// they travel as the delta's last row, the grantee's own.
fn granted(grant: Result<(Ticket, ExtentList, Vec<WriteSummary>)>) -> (Response, Bytes) {
    reply(grant.map(|(ticket, _, delta)| Response::TicketGrant { ticket, delta }))
}

impl Service for VersionService {
    fn handle(&self, request: Request, _payload: Bytes) -> (Response, Bytes) {
        use Request::*;
        match request {
            Ping => reply(Ok(Response::Pong)),
            VmTicket {
                blob,
                extents,
                known,
            } => granted(
                self.vm_owned(blob)
                    .and_then(|vm| vm.ticket_local(&extents, known as usize)),
            ),
            VmTicketAppend { blob, len, known } => granted(
                self.vm_owned(blob)
                    .and_then(|vm| vm.ticket_append_local(len, known as usize)),
            ),
            VmPublish { blob, ticket, root } => reply(
                self.vm_owned(blob)
                    .and_then(|vm| vm.publish_local(ticket, root))
                    .map(|()| Response::Unit),
            ),
            VmIsPublished { blob, version } => {
                reply(self.vm_owned(blob).map(|vm| Response::Flag {
                    value: vm.is_published(version),
                }))
            }
            VmLatest { blob } => reply(self.vm_owned(blob).map(|vm| Response::Snapshot {
                record: vm.latest_local(),
            })),
            VmSnapshot { blob, version } => reply(
                self.vm_owned(blob)
                    .and_then(|vm| vm.snapshot_local(version))
                    .map(|record| Response::Snapshot { record }),
            ),
            VmSetRetention { blob, policy } => reply(
                self.vm_owned(blob)
                    .and_then(|vm| vm.set_retention_local(policy))
                    .map(|()| Response::Unit),
            ),
            VmLeaseAcquire {
                blob,
                version,
                ttl_ms,
            } => {
                let ttl = ttl_ms.min(self.lease_ttl_cap_ms);
                reply(
                    self.vm_owned(blob)
                        .and_then(|vm| vm.lease_acquire_local(version, ttl, Self::now_ms()))
                        .map(|grant| Response::Lease { grant }),
                )
            }
            VmLeaseRenew {
                blob,
                lease,
                ttl_ms,
            } => {
                let ttl = ttl_ms.min(self.lease_ttl_cap_ms);
                reply(
                    self.vm_owned(blob)
                        .and_then(|vm| vm.lease_renew_local(lease, ttl, Self::now_ms()))
                        .map(|grant| Response::Lease { grant }),
                )
            }
            VmLeaseRelease { blob, lease } => reply(
                self.vm_owned(blob)
                    .and_then(|vm| vm.lease_release_local(lease, Self::now_ms()))
                    .map(|()| Response::Unit),
            ),
            VmGcFloor { blob } => reply(self.vm_owned(blob).map(|vm| Response::GcFloor {
                info: vm.gc_floor_local(Self::now_ms()),
            })),
            _ => unsupported("chunk/metadata op sent to a version server"),
        }
    }
}

/// Hosts metadata shards behind the metadata RPCs.
#[derive(Debug)]
pub struct MetaService {
    store: MetaStore,
}

impl MetaService {
    /// Creates `shards` zero-cost in-memory metadata shards — shorthand
    /// for [`Self::with_backend`]`(shards, &BackendConfig::Memory)`.
    pub fn new(shards: usize) -> Self {
        Self::with_backend(shards, &BackendConfig::Memory)
            .expect("the memory backend cannot fail to open")
    }

    /// Creates the service over the chosen backend — what the
    /// `atomio-meta-server` binary calls with its
    /// `--data-dir`/`--fsync` flags. A disk backend recovers the shard
    /// node logs under `<dir>/meta`.
    ///
    /// # Errors
    /// [`Error::Internal`] when a disk backend's directory cannot be
    /// opened or recovered.
    pub fn with_backend(shards: usize, backend: &BackendConfig) -> Result<Self> {
        Ok(MetaService {
            store: node_store_for(
                backend,
                shards,
                CostModel::zero(),
                Arc::new(ClientNics::new()),
            )?,
        })
    }

    /// The hosted metadata store.
    pub fn store(&self) -> &MetaStore {
        &self.store
    }

    /// Serves one `MetaResolve`: the client's tree walk ([`resolve_with`])
    /// run over the hosted store, one `get_batch_local` per level. A key
    /// the store lacks fails the call with its typed
    /// [`Error::MetadataNodeMissing`]. The walk visits each stored node
    /// at most once, and an answer that could not fit one frame is
    /// refused typed, before the walk when the extent count alone says
    /// so.
    fn resolve(&self, root: Option<NodeKey>, extents: &ExtentList) -> Result<Vec<ResolvedPiece>> {
        let limit = wire::MAX_HEADER_BYTES as usize;
        // Every extent resolves to one piece at least.
        let least = PIECES_HEAD_BYTES + extents.range_count() * ResolvedPiece::MIN_BYTES;
        if least > limit {
            return Err(past_the_frame_limit(format!(
                "resolving {} extents answers with more than the {limit}-byte frame header limit",
                extents.range_count()
            )));
        }
        let pieces = resolve_with(
            |keys| self.store.get_batch_local(keys).into_iter().collect(),
            root,
            extents,
        )?;
        let bytes = PIECES_HEAD_BYTES + pieces.iter().map(piece_wire_bytes).sum::<usize>();
        if bytes > limit {
            return Err(past_the_frame_limit(format!(
                "{} resolved pieces encode to {bytes} bytes, past the {limit}-byte frame header limit",
                pieces.len()
            )));
        }
        Ok(pieces)
    }
}

/// Encoded bytes of a [`Response::Pieces`] besides its pieces: the
/// variant tag and the list's count.
const PIECES_HEAD_BYTES: usize = 1 + 4;

/// Encoded bytes of one resolved piece: its range and `Option` tag, plus
/// the chunk id, chunk offset and homes of a stored piece.
fn piece_wire_bytes(piece: &ResolvedPiece) -> usize {
    16 + 1
        + piece
            .source
            .as_ref()
            .map_or(0, |s| 8 + 8 + 4 + 8 * s.homes.len())
}

impl Service for MetaService {
    fn handle(&self, request: Request, _payload: Bytes) -> (Response, Bytes) {
        use Request::*;
        match request {
            Ping => reply(Ok(Response::Pong)),
            MetaPutBatch { nodes } => reply(Ok(Response::NodePuts {
                results: self.store.put_batch_local(nodes),
            })),
            MetaGetBatch { keys } => reply(Ok(Response::NodeGets {
                results: self
                    .store
                    .get_batch_local(&keys)
                    .into_iter()
                    .map(|r| r.map(|node| (*node).clone()))
                    .collect(),
            })),
            MetaEvictBatch { keys } => reply(Ok(Response::Count {
                value: self.store.evict_batch(&keys),
            })),
            MetaListKeys => reply(Ok(Response::Keys {
                keys: self.store.list_keys(),
            })),
            MetaResolve { root, extents } => reply(
                self.resolve(root, &extents)
                    .map(|pieces| Response::Pieces { pieces }),
            ),
            _ => unsupported("chunk/version op sent to a metadata server"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples;
    use atomio_meta::{Node, NodeBody};
    use atomio_simgrid::SimClock;
    use atomio_types::VersionId;
    use serde::Encode;
    use std::collections::HashSet;

    /// Every chunk the samples name.
    const SAMPLE_CHUNKS: [u64; 6] = [1, 2, 3, 5, 8, 9];

    /// Four providers that each hold every chunk the samples name, and a
    /// metadata store that holds every node they name.
    fn preloaded() -> (ProviderService, MetaService) {
        let providers = ProviderService::new(4);
        for store in providers.providers() {
            for raw in SAMPLE_CHUNKS {
                let data = Bytes::from(vec![raw as u8; 64]);
                store.put_chunk_at(0, ChunkId::new(raw), data).unwrap();
            }
        }
        let empty_leaf = |(blob, version, len)| Node {
            key: samples::key(blob, version, len),
            body: NodeBody::Leaf {
                entries: Vec::new(),
                backlink: None,
            },
        };
        let mut nodes = samples::nodes();
        nodes.extend([(1, 2, 64), (7, 2, 64), (7, 1, 64)].map(empty_leaf));
        let meta = MetaService::new(2);
        let stored = meta.store().put_batch_local(nodes);
        assert!(stored.iter().all(Result::is_ok));
        (providers, meta)
    }

    #[test]
    fn only_put_and_evict_requests_change_what_a_server_stores() {
        // Per provider, `(chunk, len, checksum)` of each sample chunk it
        // holds, its chunk count and a scrub; and the stored node keys.
        let held = |providers: &ProviderService, meta: &MetaService| {
            let p = SimClock::new().register();
            let stores: Vec<_> = providers
                .providers()
                .iter()
                .map(|store| {
                    let entries: Vec<_> = SAMPLE_CHUNKS
                        .map(ChunkId::new)
                        .into_iter()
                        .filter_map(|c| Some((c, store.chunk_len(c)?, store.checksum_of(c)?)))
                        .collect();
                    (entries, store.chunk_count(), store.scrub(&p))
                })
                .collect();
            let keys: HashSet<NodeKey> = meta.store().list_keys().into_iter().collect();
            (stores, keys)
        };
        let versions = VersionService::new(64);
        let mut changed = Vec::new();
        for request in samples::requests() {
            // A fresh deployment each, so no request hides behind
            // another's change.
            let (providers, meta) = preloaded();
            // Every variant is named, so a new request does not compile
            // until it is classified here.
            use Request::*;
            let home: &dyn Service = match &request {
                PutChunk { .. }
                | PutChunkBatch { .. }
                | ProviderEvictBatch { .. }
                | MetaPutBatch { .. }
                | MetaEvictBatch { .. } => continue,
                Ping
                | GetChunk { .. }
                | GetChunkRange { .. }
                | GetChunkRangeBatch { .. }
                | ProviderChunkCount { .. }
                | ProviderBytesStored { .. }
                | ProviderChecksumOf { .. } => &providers,
                MetaGetBatch { .. } | MetaListKeys | MetaResolve { .. } => &meta,
                VmTicket { .. }
                | VmTicketAppend { .. }
                | VmPublish { .. }
                | VmIsPublished { .. }
                | VmLatest { .. }
                | VmSnapshot { .. }
                | VmSetRetention { .. }
                | VmLeaseAcquire { .. }
                | VmLeaseRenew { .. }
                | VmLeaseRelease { .. }
                | VmGcFloor { .. } => &versions,
            };
            let before = held(&providers, &meta);
            let name = format!("{request:?}");
            home.handle(request, Bytes::new());
            if held(&providers, &meta) != before {
                changed.push(name);
            }
        }
        assert!(changed.is_empty(), "changed what is stored: {changed:?}");
    }

    #[test]
    fn piece_wire_bytes_is_what_the_codec_writes() {
        for response in samples::responses() {
            if let Response::Pieces { pieces } = &response {
                let mut bytes = Vec::new();
                response.encode(&mut bytes);
                let counted: usize = pieces.iter().map(piece_wire_bytes).sum();
                assert_eq!(PIECES_HEAD_BYTES + counted, bytes.len());
            }
        }
    }

    #[test]
    fn a_resolve_whose_reply_cannot_fit_a_frame_is_refused_before_the_walk() {
        // A million one-byte extents fit a request frame (16 B each) but
        // not the reply (17 B per piece at least). The root does not
        // exist, so a walk would have failed `MetadataNodeMissing`.
        let extents = ExtentList::from_pairs((0..1_000_000u64).map(|i| (2 * i, 1)));
        let root = NodeKey::new(
            BlobId::new(1),
            VersionId::new(1),
            ByteRange::new(0, 1 << 21),
        );
        let mut request = Vec::new();
        Request::MetaResolve {
            root: Some(root),
            extents: extents.clone(),
        }
        .encode(&mut request);
        assert!(request.len() <= wire::MAX_HEADER_BYTES as usize);
        let refused = MetaService::new(1).resolve(Some(root), &extents);
        assert!(
            matches!(
                &refused,
                Err(Error::Transport { kind: TransportErrorKind::Protocol, detail })
                    if detail.contains("frame header limit")
            ),
            "{refused:?}"
        );
        // A small list over the same missing root reaches the walk.
        let small = ExtentList::from_pairs([(0u64, 1u64)]);
        assert!(matches!(
            MetaService::new(1).resolve(Some(root), &small),
            Err(Error::MetadataNodeMissing(_))
        ));
    }
}
