//! Server-side request dispatch and the TCP accept loop.
//!
//! A [`Service`] maps one decoded request to one response; the two
//! concrete services mirror the paper's two server roles:
//!
//! * [`ProviderService`] hosts a fleet of [`DataProvider`]s (chunk ops).
//! * [`MetaService`] hosts [`MetaStore`] shards plus one lazily-created
//!   [`VersionManager`] per blob (metadata and version ops).
//!
//! Servers run **zero-cost** device models: a real deployment's latency
//! comes from the real sockets, not from the simulation. The virtual
//! `arrival` instants clients pass through the protocol therefore echo
//! back unchanged, keeping remote and in-process bookkeeping aligned.
//!
//! [`RpcServer`] is the hosting shell with two front-ends (the
//! [`ServerMode`] knob). **Threads** (the historical default): a
//! nonblocking accept loop on a dedicated thread, one reader thread per
//! connection. **Reactor**: a single epoll thread owns the listener and
//! every accepted socket, so server thread count stays constant no
//! matter how many clients connect (see `reactor.rs`). Both share
//! [`RpcServer::stop`], which also severs accepted connections so
//! failover tests can kill a live server deterministically, and both
//! enforce admission control: past [`crate::RpcConfig::max_conns`] open
//! connections a newcomer is accepted, answered with a typed
//! [`Response::Busy`], and closed.
//!
//! Either front-end feeds one bounded dispatch pool shared by all
//! connections ([`crate::RpcConfig::server_workers`], default 4):
//! requests from one multiplexed client dispatch concurrently, and
//! responses are written back in **completion** order, tagged with the
//! request id the client sent — the id, not arrival order, is what
//! routes a response to its caller. Front-ends hand workers whole
//! *batches* of buffered frames, so a backlogged connection pays one
//! dispatch handoff and one response write per burst rather than per
//! request.

use crate::proto::{BlobExport, Request, Response};
use crate::reactor::{run_reactor, ReactorShared};
use crate::transport::{counters, RpcConfig, ServerMode};
use crate::wire::{self, as_slices, PayloadCursor};
use atomio_core::{slot_for_blob, SlotMap};
use atomio_meta::{node_store_for, LocalNodeStore, TreeConfig, VersionHistory};
use atomio_provider::{chunk_store_for, ChunkStore, DataProvider};
use atomio_simgrid::{ClientNics, CostModel, FaultInjector, Metrics};
use atomio_types::{
    BackendConfig, ByteRange, ChunkId, Error, FsyncPolicy, ProviderId, Result, RetentionPolicy,
    TransportErrorKind,
};
use atomio_version::{TicketMode, VersionManager};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

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

fn fail(error: Error) -> (Response, Bytes) {
    (Response::Fail { error }, Bytes::new())
}

fn ok(response: Response) -> (Response, Bytes) {
    (response, Bytes::new())
}

fn unsupported(role: &'static str) -> (Response, Bytes) {
    fail(Error::Unsupported(role))
}

/// Hosts a fleet of chunk stores behind the chunk RPCs. The stores are
/// whatever the deployment's [`BackendConfig`] selects: ephemeral
/// in-memory [`DataProvider`]s or durable slot-sharded
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
        let faults = Arc::new(FaultInjector::new(0));
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

    /// Hosts caller-built in-memory providers (ids must be unique; any
    /// cost model). Convenience over [`Self::from_stores`] for harnesses
    /// that pre-load a [`DataProvider`]; new code should select the
    /// backend through [`Self::with_backend`].
    pub fn from_providers(providers: Vec<Arc<DataProvider>>) -> Self {
        Self::from_stores(
            providers
                .into_iter()
                .map(|p| p as Arc<dyn ChunkStore>)
                .collect(),
        )
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
            let error = Error::Transport {
                kind: TransportErrorKind::Protocol,
                detail: format!(
                    "batch of {} ranges asks for more than the {}-byte frame payload limit",
                    items.len(),
                    wire::MAX_PAYLOAD_BYTES
                ),
            };
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
            Ping => ok(Response::Pong),
            PutChunk {
                provider,
                arrival,
                chunk,
            } => match self
                .provider(provider)
                .and_then(|s| s.put_chunk_at(arrival, chunk, payload))
            {
                Ok(done) => ok(Response::Done { done }),
                Err(e) => fail(e),
            },
            PutChunkBatch { provider, items } => {
                let store = match self.provider(provider) {
                    Ok(s) => s,
                    Err(e) => return fail(e),
                };
                // The lengths are network input: the cursor refuses any
                // that overrun or overflow the payload.
                let mut cursor = PayloadCursor::new(&payload);
                let batch = items
                    .into_iter()
                    .map(|(arrival, chunk, len)| Ok((arrival, chunk, cursor.take(len)?)))
                    .collect::<Result<Vec<_>>>()
                    .and_then(|batch| cursor.finish().map(|()| batch));
                match batch {
                    Ok(batch) => ok(Response::PutBatch {
                        results: store.put_batch_at(&batch),
                    }),
                    Err(e) => fail(e),
                }
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
                    Err(e) => fail(e),
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
                Err(e) => fail(e),
            },
            GetChunkRangeBatch { provider, items } => {
                let (response, parts) = self.get_range_batch(provider, &items);
                (response, Bytes::from(parts.concat()))
            }
            ProviderHasChunk { provider, chunk } => match self.provider(provider) {
                Ok(s) => ok(Response::Flag {
                    value: s.has_chunk(chunk),
                }),
                Err(e) => fail(e),
            },
            ProviderChunkCount { provider } => match self.provider(provider) {
                Ok(s) => ok(Response::Count {
                    value: s.chunk_count() as u64,
                }),
                Err(e) => fail(e),
            },
            ProviderBytesStored { provider } => match self.provider(provider) {
                Ok(s) => ok(Response::Count {
                    value: s.bytes_stored(),
                }),
                Err(e) => fail(e),
            },
            ProviderEvictChunk { provider, chunk } => match self.provider(provider) {
                Ok(s) => ok(Response::Count {
                    value: s.evict_chunk(chunk),
                }),
                Err(e) => fail(e),
            },
            ProviderChecksumOf { provider, chunk } => match self.provider(provider) {
                Ok(s) => ok(Response::Checksum {
                    value: s.checksum_of(chunk),
                }),
                Err(e) => fail(e),
            },
            ProviderCorruptChunk {
                provider,
                chunk,
                byte,
            } => match self.provider(provider) {
                Ok(s) => {
                    s.corrupt_chunk(chunk, byte as usize);
                    ok(Response::Unit)
                }
                Err(e) => fail(e),
            },
            ProviderEvictBatch { provider, chunks } => match self.provider(provider) {
                Ok(s) => ok(Response::Count {
                    value: s.evict_chunk_batch(&chunks),
                }),
                Err(e) => fail(e),
            },
            MetaPutBatch { .. }
            | MetaGetBatch { .. }
            | MetaContains { .. }
            | MetaNodeCount
            | MetaEvict { .. }
            | MetaEvictBatch { .. }
            | MetaListKeys
            | VmTicket { .. }
            | VmTicketAppend { .. }
            | VmPublish { .. }
            | VmIsPublished { .. }
            | VmLatest { .. }
            | VmSnapshot { .. }
            | VmSetRetention { .. }
            | VmLeaseAcquire { .. }
            | VmLeaseRenew { .. }
            | VmLeaseRelease { .. }
            | VmGcFloor { .. }
            | SlotMapGet
            | SlotMapInstall { .. }
            | VmFreezeSlots { .. }
            | VmSealSlots { .. }
            | VmExportSlots { .. }
            | VmImportBlobs { .. } => unsupported("metadata/version op sent to a provider server"),
        }
    }
}

/// Hosts per-blob version managers behind the version RPCs — the third
/// server role, mirroring BlobSeer's standalone version manager. The
/// `atomio-version-server` binary wraps exactly this service; it also
/// nests inside [`MetaService`] so a two-server deployment (meta +
/// providers) keeps working unchanged.
#[derive(Debug)]
pub struct VersionService {
    chunk_size: u64,
    backend: BackendConfig,
    retention: RetentionPolicy,
    lease_ttl_cap_ms: u64,
    vms: Mutex<HashMap<u64, Arc<VersionManager>>>,
    /// This server's group in the slot map, or `None` for an unsharded
    /// deployment (every slot is served, no ownership checks).
    shard: Option<usize>,
    /// The slot map this server believes in. Requests for blobs whose
    /// slot this shard does not own are refused with
    /// [`Error::WrongShard`] carrying the map's epoch.
    map: RwLock<SlotMap>,
    /// Per-slot handoff state, keyed by slot so concurrent handoffs
    /// moving disjoint slot sets off this shard merge instead of
    /// clobbering each other. A *frozen* slot refuses new tickets
    /// (typed) but publishes of already-granted tickets still land so
    /// the handoff can drain; a *sealed* slot refuses publishes too, so
    /// the export that follows cannot miss a late-landing version.
    /// Entries are cleared when a map at (or past) their epoch installs.
    frozen: RwLock<BTreeMap<u16, SlotFreeze>>,
}

/// One slot's handoff state (see [`VersionService::frozen`]).
#[derive(Debug, Clone, Copy)]
struct SlotFreeze {
    /// The epoch the reassigned map will carry — returned in the
    /// [`Error::WrongShard`] refusals so clients refetch past it.
    epoch: u64,
    /// Escalated: publishes are refused as well as tickets.
    sealed: bool,
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
            shard: None,
            map: RwLock::new(SlotMap::single()),
            frozen: RwLock::new(BTreeMap::new()),
        }
    }

    /// Makes this service shard `shard` of an `of`-way deployment (the
    /// binaries' `--shard I/N` flag): it starts from the uniform
    /// `of`-group slot map, serves only the slots its group owns, and
    /// answers everything else with [`Error::WrongShard`] so stale
    /// clients refetch the map and re-route.
    pub fn with_shard(mut self, shard: usize, of: usize) -> Self {
        assert!(shard < of, "shard index {shard} out of {of}");
        self.shard = Some(shard);
        self.map = RwLock::new(SlotMap::uniform(of));
        self
    }

    /// The slot map this server currently believes in.
    pub fn slot_map(&self) -> SlotMap {
        self.map.read().clone()
    }

    /// Ownership gate: `Ok` when this server serves `blob`'s slot.
    fn owned(&self, blob: u64) -> Result<()> {
        let Some(group) = self.shard else {
            return Ok(());
        };
        let slot = slot_for_blob(blob);
        let map = self.map.read();
        if !map.owns(group, slot) {
            return Err(Error::WrongShard {
                epoch: map.epoch,
                slot,
            });
        }
        Ok(())
    }

    /// Gate for state-creating calls (tickets, retention changes): also
    /// refused while the blob's slot is frozen for a handoff, so the
    /// drain converges and the export cannot miss trailing state.
    fn ticket_gate(&self, blob: u64) -> Result<()> {
        self.owned(blob)?;
        let slot = slot_for_blob(blob);
        if let Some(f) = self.frozen.read().get(&slot) {
            return Err(Error::WrongShard {
                epoch: f.epoch,
                slot,
            });
        }
        Ok(())
    }

    /// [`Self::vm`] behind the ownership check — the dispatch path for
    /// every per-blob RPC except imports (which install state this
    /// server does not own *yet*).
    fn vm_owned(&self, blob: u64) -> Result<Arc<VersionManager>> {
        self.owned(blob)?;
        self.vm(blob)
    }

    /// [`Self::vm`] behind the ownership *and* freeze checks.
    fn vm_ticket(&self, blob: u64) -> Result<Arc<VersionManager>> {
        self.ticket_gate(blob)?;
        self.vm(blob)
    }

    /// Granted-but-unpublished tickets across the hosted blobs whose
    /// slot is in `set` — the drain gauge for a handoff coordinator.
    fn pending_grants_in(&self, set: &BTreeSet<u16>) -> u64 {
        self.vms
            .lock()
            .iter()
            .filter(|(blob, _)| set.contains(&slot_for_blob(**blob)))
            .map(|(_, vm)| vm.pending_grants())
            .sum()
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
        let vm = Arc::new(match &self.backend {
            BackendConfig::Memory => VersionManager::new(
                Arc::new(VersionHistory::new()),
                TreeConfig::new(self.chunk_size),
                CostModel::zero(),
                TicketMode::Pipelined,
            ),
            BackendConfig::Disk { dir, fsync } => VersionManager::durable(
                dir.join("version").join(format!("blob-{blob}")),
                Arc::new(VersionHistory::new()),
                TreeConfig::new(self.chunk_size),
                CostModel::zero(),
                TicketMode::Pipelined,
                *fsync,
            )?,
        });
        // The deployment default applies only where no per-blob policy
        // exists (freshly created, or recovered with none logged).
        if self.retention != RetentionPolicy::default()
            && vm.retention() == RetentionPolicy::default()
        {
            vm.set_retention_local(self.retention)?;
        }
        vms.insert(blob, Arc::clone(&vm));
        Ok(vm)
    }
}

impl Service for VersionService {
    fn handle(&self, request: Request, _payload: Bytes) -> (Response, Bytes) {
        use Request::*;
        match request {
            Ping => ok(Response::Pong),
            VmTicket {
                blob,
                extents,
                known,
            } => match self
                .vm_ticket(blob)
                .and_then(|vm| vm.ticket_local(&extents, known as usize))
            {
                Ok((ticket, extents, delta)) => ok(Response::TicketGrant {
                    ticket,
                    extents,
                    delta,
                }),
                Err(e) => fail(e),
            },
            VmTicketAppend { blob, len, known } => {
                match self
                    .vm_ticket(blob)
                    .and_then(|vm| vm.ticket_append_local(len, known as usize))
                {
                    Ok((ticket, extents, delta)) => ok(Response::TicketGrant {
                        ticket,
                        extents,
                        delta,
                    }),
                    Err(e) => fail(e),
                }
            }
            VmPublish { blob, ticket, root } => {
                // The freeze read-guard is held across the publish so a
                // concurrent `VmSealSlots` (which takes the write lock)
                // is a true barrier: once the seal RPC returns, every
                // in-flight publish has either landed — visible to the
                // export that follows — or is refused below. Without
                // this, a publish could pass the gate, the seal + export
                // could run, and the publish would then mutate state the
                // export already missed while still acking the writer.
                let frozen = self.frozen.read();
                let slot = slot_for_blob(blob);
                let result = match frozen.get(&slot) {
                    Some(f) if f.sealed => Err(Error::WrongShard {
                        epoch: f.epoch,
                        slot,
                    }),
                    _ => self
                        .vm_owned(blob)
                        .and_then(|vm| vm.publish_local(ticket, root)),
                };
                match result {
                    Ok(()) => ok(Response::Unit),
                    Err(e) => fail(e),
                }
            }
            VmIsPublished { blob, version } => match self.vm_owned(blob) {
                Ok(vm) => ok(Response::Flag {
                    value: vm.is_published(version),
                }),
                Err(e) => fail(e),
            },
            VmLatest { blob } => match self.vm_owned(blob) {
                Ok(vm) => ok(Response::Snapshot {
                    record: vm.latest_local(),
                }),
                Err(e) => fail(e),
            },
            VmSnapshot { blob, version } => {
                match self
                    .vm_owned(blob)
                    .and_then(|vm| vm.snapshot_local(version))
                {
                    Ok(record) => ok(Response::Snapshot { record }),
                    Err(e) => fail(e),
                }
            }
            VmSetRetention { blob, policy } => {
                match self
                    .vm_ticket(blob)
                    .and_then(|vm| vm.set_retention_local(policy))
                {
                    Ok(()) => ok(Response::Unit),
                    Err(e) => fail(e),
                }
            }
            VmLeaseAcquire {
                blob,
                version,
                ttl_ms,
            } => {
                let ttl = ttl_ms.min(self.lease_ttl_cap_ms);
                match self
                    .vm_owned(blob)
                    .and_then(|vm| vm.lease_acquire_local(version, ttl, Self::now_ms()))
                {
                    Ok(grant) => ok(Response::Lease { grant }),
                    Err(e) => fail(e),
                }
            }
            VmLeaseRenew {
                blob,
                lease,
                ttl_ms,
            } => {
                let ttl = ttl_ms.min(self.lease_ttl_cap_ms);
                match self
                    .vm_owned(blob)
                    .and_then(|vm| vm.lease_renew_local(lease, ttl, Self::now_ms()))
                {
                    Ok(grant) => ok(Response::Lease { grant }),
                    Err(e) => fail(e),
                }
            }
            VmLeaseRelease { blob, lease } => {
                match self
                    .vm_owned(blob)
                    .and_then(|vm| vm.lease_release_local(lease, Self::now_ms()))
                {
                    Ok(()) => ok(Response::Unit),
                    Err(e) => fail(e),
                }
            }
            VmGcFloor { blob } => match self.vm_owned(blob) {
                Ok(vm) => ok(Response::GcFloor {
                    info: vm.gc_floor_local(Self::now_ms()),
                }),
                Err(e) => fail(e),
            },
            SlotMapGet => ok(Response::SlotMapInfo {
                map: self.map.read().clone(),
            }),
            SlotMapInstall { map } => {
                // The map write-guard is released before touching the
                // freeze state: publishes take `frozen` then `map` (read
                // side), so holding both write locks here would invert
                // the order and deadlock.
                let installed_epoch = {
                    let mut cur = self.map.write();
                    if map.epoch < cur.epoch {
                        return fail(Error::Internal(format!(
                            "slot map epoch regressed: have {}, offered {}",
                            cur.epoch, map.epoch
                        )));
                    }
                    *cur = map;
                    cur.epoch
                };
                // Thaw every per-slot freeze the new map supersedes;
                // freezes for a yet-higher epoch stay in force.
                self.frozen.write().retain(|_, f| f.epoch > installed_epoch);
                ok(Response::Unit)
            }
            VmFreezeSlots { slots, epoch } => {
                let set: BTreeSet<u16> = slots.into_iter().collect();
                // Pending grants across the frozen slots: the coordinator
                // repeats this (idempotent) call until the count is zero.
                let pending = self.pending_grants_in(&set);
                // Merge per slot so two handoffs moving disjoint sets off
                // this shard cannot thaw each other mid-drain; a re-freeze
                // of a slot keeps any seal already in force.
                let mut frozen = self.frozen.write();
                for slot in set {
                    let f = frozen.entry(slot).or_insert(SlotFreeze {
                        epoch,
                        sealed: false,
                    });
                    f.epoch = f.epoch.max(epoch);
                }
                drop(frozen);
                ok(Response::Count { value: pending })
            }
            VmSealSlots { slots, epoch } => {
                let set: BTreeSet<u16> = slots.into_iter().collect();
                {
                    // Taking the write lock waits out every in-flight
                    // publish (they hold the read side across
                    // `publish_local`), so when this RPC returns the
                    // sealed slots are immutable: landed publishes are
                    // visible to the export, later ones are refused.
                    let mut frozen = self.frozen.write();
                    for slot in &set {
                        let f = frozen.entry(*slot).or_insert(SlotFreeze {
                            epoch,
                            sealed: true,
                        });
                        f.epoch = f.epoch.max(epoch);
                        f.sealed = true;
                    }
                }
                // Grants still outstanding are abandoned: their eventual
                // publishes draw `WrongShard` and fail typed on the new
                // owner, which never granted the ticket.
                ok(Response::Count {
                    value: self.pending_grants_in(&set),
                })
            }
            VmExportSlots { slots } => {
                let set: BTreeSet<u16> = slots.into_iter().collect();
                let vms: Vec<(u64, Arc<VersionManager>)> = self
                    .vms
                    .lock()
                    .iter()
                    .filter(|(blob, _)| set.contains(&slot_for_blob(**blob)))
                    .map(|(blob, vm)| (*blob, Arc::clone(vm)))
                    .collect();
                let blobs = vms
                    .into_iter()
                    .map(|(blob, vm)| {
                        let (versions, retention) = vm.export_published();
                        BlobExport {
                            blob,
                            versions,
                            retention,
                        }
                    })
                    .collect();
                ok(Response::SlotExport { blobs })
            }
            VmImportBlobs { blobs } => {
                let mut applied = 0u64;
                for b in blobs {
                    match self
                        .vm(b.blob)
                        .and_then(|vm| vm.import_published(&b.versions, b.retention))
                    {
                        Ok(n) => applied += n,
                        Err(e) => return fail(e),
                    }
                }
                ok(Response::Count { value: applied })
            }
            _ => unsupported("chunk/metadata op sent to a version server"),
        }
    }
}

/// Hosts metadata shards plus per-blob version managers behind the
/// metadata and version RPCs.
#[derive(Debug)]
pub struct MetaService {
    store: Arc<dyn LocalNodeStore>,
    versions: VersionService,
}

impl MetaService {
    /// Creates `shards` zero-cost in-memory metadata shards; version
    /// managers use `chunk_size` for their tree geometry — shorthand for
    /// [`Self::with_backend`]`(shards, chunk_size, &BackendConfig::Memory)`.
    pub fn new(shards: usize, chunk_size: u64) -> Self {
        Self::with_backend(shards, chunk_size, &BackendConfig::Memory)
            .expect("the memory backend cannot fail to open")
    }

    /// Creates the service over the chosen backend — what the
    /// `atomio-meta-server` binary calls with its
    /// `--data-dir`/`--fsync` flags. A disk backend recovers the shard
    /// node logs under `<dir>/meta` and keeps the nested version
    /// managers' publish logs under `<dir>/version`.
    ///
    /// # Errors
    /// [`Error::Internal`] when a disk backend's directory cannot be
    /// opened or recovered.
    pub fn with_backend(shards: usize, chunk_size: u64, backend: &BackendConfig) -> Result<Self> {
        Ok(MetaService {
            store: node_store_for(
                backend,
                shards,
                CostModel::zero(),
                Arc::new(ClientNics::new()),
            )?,
            versions: VersionService::with_backend(chunk_size, backend.clone()),
        })
    }

    /// The hosted metadata store.
    pub fn store(&self) -> &Arc<dyn LocalNodeStore> {
        &self.store
    }

    /// The nested version service (kept for two-server deployments; a
    /// three-server deployment runs a standalone [`VersionService`]).
    pub fn version_service(&self) -> &VersionService {
        &self.versions
    }

    /// Sets the default retention policy of the nested version service
    /// (see [`VersionService::with_retention`]).
    pub fn with_retention(mut self, retention: RetentionPolicy) -> Self {
        self.versions = self.versions.with_retention(retention);
        self
    }

    /// Pins the nested version service to shard `shard` of `of` (see
    /// [`VersionService::with_shard`]).
    pub fn with_shard(mut self, shard: usize, of: usize) -> Self {
        self.versions = self.versions.with_shard(shard, of);
        self
    }

    /// Caps lease TTLs of the nested version service (see
    /// [`VersionService::with_lease_ttl_cap`]).
    pub fn with_lease_ttl_cap(mut self, cap_ms: u64) -> Self {
        self.versions = self.versions.with_lease_ttl_cap(cap_ms);
        self
    }
}

impl Service for MetaService {
    fn handle(&self, request: Request, payload: Bytes) -> (Response, Bytes) {
        use Request::*;
        match request {
            Ping => ok(Response::Pong),
            MetaPutBatch { nodes } => ok(Response::NodePuts {
                results: self.store.put_batch_local(nodes),
            }),
            MetaGetBatch { keys } => ok(Response::NodeGets {
                results: self
                    .store
                    .get_batch_local(&keys)
                    .into_iter()
                    .map(|r| r.map(|node| (*node).clone()))
                    .collect(),
            }),
            MetaContains { key } => ok(Response::Flag {
                value: self.store.contains(key),
            }),
            MetaNodeCount => ok(Response::Count {
                value: self.store.node_count() as u64,
            }),
            MetaEvict { key } => {
                self.store.evict(key);
                ok(Response::Unit)
            }
            MetaEvictBatch { keys } => ok(Response::Count {
                value: self.store.evict_batch(&keys),
            }),
            MetaListKeys => ok(Response::Keys {
                keys: self.store.list_keys(),
            }),
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
            | VmGcFloor { .. }
            | SlotMapGet
            | SlotMapInstall { .. }
            | VmFreezeSlots { .. }
            | VmSealSlots { .. }
            | VmExportSlots { .. }
            | VmImportBlobs { .. } => self.versions.handle(request, payload),
            PutChunk { .. }
            | PutChunkBatch { .. }
            | GetChunk { .. }
            | GetChunkRange { .. }
            | GetChunkRangeBatch { .. }
            | ProviderHasChunk { .. }
            | ProviderChunkCount { .. }
            | ProviderBytesStored { .. }
            | ProviderEvictChunk { .. }
            | ProviderEvictBatch { .. }
            | ProviderChecksumOf { .. }
            | ProviderCorruptChunk { .. } => unsupported("chunk op sent to a metadata server"),
        }
    }
}

/// A running TCP server hosting one [`Service`].
#[derive(Debug)]
pub struct RpcServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    front_end: Option<JoinHandle<()>>,
    /// Threads-mode bookkeeping: the write half of every live
    /// connection, keyed by accept order, so [`RpcServer::stop`] can
    /// sever them and each connection's exit can reap its own entry.
    /// Reactor mode keeps this empty — the reactor owns its sockets.
    conns: Arc<Mutex<HashMap<u64, TcpStream>>>,
    reactor: Option<Arc<ReactorShared>>,
    open: Arc<AtomicUsize>,
}

impl RpcServer {
    /// Binds `addr` with default tuning; see [`RpcServer::start_with_config`].
    pub fn start(addr: impl ToSocketAddrs, service: Arc<dyn Service>) -> io::Result<Self> {
        Self::start_with_config(addr, service, RpcConfig::default())
    }

    /// Binds `addr` without a metrics registry; see
    /// [`RpcServer::start_with_metrics`].
    pub fn start_with_config(
        addr: impl ToSocketAddrs,
        service: Arc<dyn Service>,
        cfg: RpcConfig,
    ) -> io::Result<Self> {
        Self::start_with_metrics(addr, service, cfg, None)
    }

    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections under the configured [`ServerMode`]
    /// front-end. Either way a single bounded pool of
    /// `cfg.server_workers` dispatch workers is shared by every
    /// connection, so requests multiplexed over one socket execute
    /// concurrently without a thread explosion per connection.
    ///
    /// A `metrics` registry (server-side — distinct from any client
    /// transport registry) receives the connection counters:
    /// `rpc.accepts`, `rpc.conns_open`, `rpc.conns_peak`,
    /// `rpc.admission_rejects`, and — reactor only —
    /// `rpc.reactor_wakeups`.
    pub fn start_with_metrics(
        addr: impl ToSocketAddrs,
        service: Arc<dyn Service>,
        cfg: RpcConfig,
        metrics: Option<Metrics>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
        let open = Arc::new(AtomicUsize::new(0));

        // One bounded dispatch pool shared by every connection: the
        // front-end feeds request batches through this channel, workers
        // execute and route responses back to the batch's own
        // connection. The pool exits when the last sender (the
        // front-end and, in Threads mode, per-connection readers) is
        // gone.
        let workers = cfg.server_workers.max(1);
        let (job_tx, job_rx) = mpsc::sync_channel::<DispatchJob>(workers * 2);
        let job_rx = Arc::new(Mutex::new(job_rx));
        for _ in 0..workers {
            let job_rx = Arc::clone(&job_rx);
            let service = Arc::clone(&service);
            std::thread::spawn(move || dispatch_worker(job_rx, service));
        }

        let mut reactor = None;
        let front_end = match cfg.server_mode {
            ServerMode::Reactor => {
                let shared = ReactorShared::new()?;
                reactor = Some(Arc::clone(&shared));
                let shutdown = Arc::clone(&shutdown);
                let open = Arc::clone(&open);
                std::thread::spawn(move || {
                    run_reactor(listener, job_tx, shared, shutdown, open, cfg, metrics)
                })
            }
            ServerMode::Threads => {
                let shutdown = Arc::clone(&shutdown);
                let conns = Arc::clone(&conns);
                let open = Arc::clone(&open);
                std::thread::spawn(move || {
                    let mut next_id = 0u64;
                    while !shutdown.load(Ordering::Relaxed) {
                        match listener.accept() {
                            Ok((stream, _peer)) => {
                                if let Some(m) = &metrics {
                                    m.counter(counters::ACCEPTS).inc();
                                }
                                let _ = stream.set_nodelay(true);
                                // Connection threads block on frame
                                // reads; stop() severs the socket to
                                // wake them.
                                let _ = stream.set_nonblocking(false);
                                let active = open.load(Ordering::Relaxed);
                                if active >= cfg.max_conns {
                                    if let Some(m) = &metrics {
                                        m.counter(counters::ADMISSION_REJECTS).inc();
                                    }
                                    std::thread::spawn(move || {
                                        reject_connection(stream, active as u64, cfg)
                                    });
                                    continue;
                                }
                                let id = next_id;
                                next_id += 1;
                                if let Ok(clone) = stream.try_clone() {
                                    conns.lock().insert(id, clone);
                                }
                                let n = open.fetch_add(1, Ordering::Relaxed) + 1;
                                if let Some(m) = &metrics {
                                    m.counter(counters::CONNS_OPEN).set(n as u64);
                                    m.counter(counters::CONNS_PEAK).record_peak(n as u64);
                                }
                                let job_tx = job_tx.clone();
                                let conns = Arc::clone(&conns);
                                let open = Arc::clone(&open);
                                let metrics = metrics.clone();
                                std::thread::spawn(move || {
                                    serve_connection(stream, job_tx, cfg);
                                    // Reap on exit: a finished
                                    // connection must not pin its fd
                                    // (or the open gauge) until stop().
                                    conns.lock().remove(&id);
                                    let n = open.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
                                    if let Some(m) = &metrics {
                                        m.counter(counters::CONNS_OPEN).set(n as u64);
                                    }
                                });
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(5));
                            }
                            Err(_) => break,
                        }
                    }
                })
            }
        };

        Ok(RpcServer {
            addr,
            shutdown,
            front_end: Some(front_end),
            conns,
            reactor,
            open,
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections the server currently holds open. Admission-rejected
    /// connections never count; a closed connection leaves the gauge as
    /// soon as the front-end reaps it (connection-thread exit in
    /// Threads mode, hangup/EOF handling in Reactor mode).
    pub fn open_conns(&self) -> usize {
        self.open.load(Ordering::Relaxed)
    }

    /// Stops accepting, severs every accepted connection, and joins the
    /// front-end. In-flight calls on severed connections surface
    /// connection-reset transport errors at their clients — exactly the
    /// failure the provider manager's failover policy handles. (The
    /// reactor front-end owns its sockets outright: the eventfd wake
    /// below makes it observe shutdown and drop them all.)
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for (_, conn) in self.conns.lock().drain() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        if let Some(shared) = &self.reactor {
            shared.wake();
        }
        if let Some(handle) = self.front_end.take() {
            let _ = handle.join();
        }
    }
}

/// Answers an admission-rejected connection. The newcomer is past the
/// server's `max_conns`, but it still deserves a typed refusal instead
/// of a hang or a reset: read its first frame (blocking, bounded by the
/// server's timeouts so a silent client cannot pin this thread), reply
/// with [`Response::Busy`] tagged with that frame's id — the id is what
/// routes the refusal to the right caller on a multiplexed client —
/// and close.
fn reject_connection(mut stream: TcpStream, active: u64, cfg: RpcConfig) {
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    let Ok((id, _header, _payload, _)) = wire::read_frame(&mut &stream) else {
        return;
    };
    let busy = Response::Busy {
        active,
        max_conns: cfg.max_conns as u64,
    };
    let mut frame = Vec::new();
    if wire::write_frame(&mut frame, id, &busy.to_value(), &[]).is_ok() {
        let _ = io::Write::write_all(&mut stream, &frame);
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

impl Drop for RpcServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Largest number of request frames handed to one dispatch worker at a
/// time. Batches only form when a pipelining client has a backlog of
/// fully-buffered frames (see [`buffered_frame_ready`]); a strict
/// per-call client always produces batches of one.
pub(crate) const MAX_DISPATCH_BATCH: usize = 16;

/// True when the reader's buffer already holds one complete frame, so
/// decoding it cannot block. (If the head of the buffer is garbage the
/// declared lengths are garbage too; the worst case is a `false` here
/// and the next blocking `read_frame` reports the framing error.)
fn buffered_frame_ready(reader: &std::io::BufReader<&mut TcpStream>) -> bool {
    let b = reader.buffer();
    let prefix = wire::FRAME_PREFIX_BYTES as usize;
    if b.len() < prefix {
        return false;
    }
    let head_len = u32::from_be_bytes(b[9..13].try_into().unwrap()) as usize;
    let payload_len = u32::from_be_bytes(b[13..17].try_into().unwrap()) as usize;
    b.len() >= prefix + head_len + payload_len
}

/// Where a dispatch worker delivers one batch's encoded response
/// frames — the front-ends differ in who is allowed to touch the
/// socket.
#[derive(Debug, Clone)]
pub(crate) enum ResponseSink {
    /// Threads mode: workers write to the connection's shared write
    /// half directly (the per-connection writer mutex orders them).
    Direct(Arc<Mutex<TcpStream>>),
    /// Reactor mode: the reactor thread is the socket's *single
    /// writer*, so workers queue frames through [`ReactorShared`] and
    /// ring its eventfd instead of writing.
    Reactor {
        /// The reactor's key for the batch's connection.
        token: u64,
        /// The reactor's completion mailbox + eventfd.
        shared: Arc<ReactorShared>,
    },
}

/// One unit of dispatch work: where the responses go, plus a batch of
/// decoded request frames read back-to-back from one connection.
pub(crate) type DispatchJob = (ResponseSink, Vec<(u64, Value, Bytes)>);

/// A member of the server's shared dispatch pool: executes request
/// batches from any connection and routes each batch's responses —
/// tagged with the request ids — back through the batch's sink in a
/// single delivery. Responses leave in completion order; clients match
/// them by id. A dead connection only gets severed; the worker lives on
/// to serve the other connections.
fn dispatch_worker(rx: Arc<Mutex<mpsc::Receiver<DispatchJob>>>, service: Arc<dyn Service>) {
    loop {
        // Take the receiver lock only to pull one job; holding it
        // across `handle` would serialize the pool.
        let job = rx.lock().recv();
        let Ok((sink, batch)) = job else {
            // Every sender hung up: the server stopped, drain is done.
            return;
        };
        // Encode the responses of the batch into one run of wire bytes
        // and deliver it with a single gathered write (Threads) or one
        // completion handoff (Reactor). Small frames are coalesced into
        // one buffer; a large payload is queued by reference — the
        // buffers the service returned go to the socket uncopied.
        let responses = batch.len();
        let mut wire_bytes: Vec<Bytes> = Vec::new();
        let mut coalesced = Vec::new();
        let mut poisoned = false;
        for (id, header, payload) in batch {
            let (response, out) = match Request::from_value(&header) {
                Ok(request) => service.handle_vectored(request, payload),
                Err(e) => (
                    Response::Fail {
                        error: Error::Transport {
                            kind: TransportErrorKind::Protocol,
                            detail: format!("undecodable request: {e}"),
                        },
                    },
                    Vec::new(),
                ),
            };
            let payload_len: usize = out.iter().map(|part| part.len()).sum();
            let encoded = if payload_len <= RESPONSE_COALESCE_BYTES {
                wire::append_frame(&mut coalesced, id, &response.to_value(), &as_slices(&out))
                    .map(drop)
            } else {
                wire::append_frame_head(&mut coalesced, id, &response.to_value(), payload_len).map(
                    |_| {
                        wire_bytes.push(Bytes::from(std::mem::take(&mut coalesced)));
                        wire_bytes.extend(out);
                    },
                )
            };
            if encoded.is_err() {
                // Oversized response — nothing sane to send back.
                poisoned = true;
                break;
            }
        }
        if !coalesced.is_empty() {
            wire_bytes.push(Bytes::from(coalesced));
        }
        match sink {
            ResponseSink::Direct(writer) => {
                let mut w = writer.lock();
                let parts = as_slices(&wire_bytes);
                if poisoned || wire::write_all_gathered(&mut *w, &[], &parts).is_err() {
                    // Writes are dead: sever the socket so the
                    // connection's reader (blocked in read_frame)
                    // exits too.
                    let _ = w.shutdown(std::net::Shutdown::Both);
                }
            }
            ResponseSink::Reactor { token, shared } => {
                shared.complete(token, wire_bytes, responses, poisoned);
            }
        }
    }
}

/// Response payloads up to this size are copied into the burst's one
/// write buffer; larger ones are written from where they are. Lower than
/// the request side's threshold: a large response payload is a buffer
/// the store has just filled, and a second copy of it per in-flight
/// batch is what a small server's resident set is made of.
const RESPONSE_COALESCE_BYTES: usize = 64 * 1024;

/// Serves one connection: a reader loop on this thread feeds the
/// server's shared dispatch pool over a capacity-limited channel
/// (backpressure when every worker is busy).
///
/// The reader hands workers *batches*: after one blocking read it drains
/// whatever whole frames already sit in its buffer, so a backlogged
/// pipelining client pays one worker wakeup and one response-write
/// syscall per burst instead of per request.
fn serve_connection(mut stream: TcpStream, jobs: mpsc::SyncSender<DispatchJob>, cfg: RpcConfig) {
    let sink = match stream.try_clone() {
        Ok(w) => ResponseSink::Direct(Arc::new(Mutex::new(w))),
        Err(_) => return,
    };
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));

    // Buffered: pipelining clients send request frames back-to-back,
    // so one read syscall frequently yields several frames.
    let mut reader = std::io::BufReader::with_capacity(128 * 1024, &mut stream);
    'serve: loop {
        let mut burst = Vec::new();
        let mut read_dead = false;
        loop {
            match wire::read_frame(&mut reader) {
                Ok((id, header, payload, _)) => burst.push((id, header, payload)),
                // EOF, peer reset, a malformed frame, or a version
                // mismatch: drop the connection. (After a framing error
                // nothing on the stream can be trusted, so closing is
                // the only safe recovery.) Dispatch what already decoded.
                Err(_) => {
                    read_dead = true;
                    break;
                }
            }
            if burst.len() >= MAX_DISPATCH_BATCH || !buffered_frame_ready(&reader) {
                break;
            }
        }
        if dispatch_burst(&jobs, &sink, burst).is_err() {
            break;
        }
        if read_dead {
            break 'serve;
        }
    }
}

/// Hands one burst of requests to the dispatch pool. While the pool has
/// room each request becomes its own job, so independent requests
/// overlap across workers — what matters when service time (device
/// waits) dominates. Once the channel is full the remainder goes down
/// as a single batched job: under CPU saturation the work serializes
/// anyway, and one handoff per burst beats one per request.
pub(crate) fn dispatch_burst(
    jobs: &mpsc::SyncSender<DispatchJob>,
    sink: &ResponseSink,
    burst: Vec<(u64, Value, Bytes)>,
) -> std::result::Result<(), ()> {
    let mut overflow = Vec::new();
    for request in burst {
        if !overflow.is_empty() {
            overflow.push(request);
            continue;
        }
        match jobs.try_send((sink.clone(), vec![request])) {
            Ok(()) => {}
            Err(mpsc::TrySendError::Full((_, batch))) => overflow = batch,
            Err(mpsc::TrySendError::Disconnected(_)) => return Err(()),
        }
    }
    if !overflow.is_empty() && jobs.send((sink.clone(), overflow)).is_err() {
        return Err(());
    }
    Ok(())
}

/// Everything a server binary needs from one `--flag value` style
/// argument list: kept here so both binaries share the parsing and the
/// unit tests cover it.
#[derive(Debug, PartialEq, Eq)]
pub struct ServerArgs {
    /// Listen address, e.g. `127.0.0.1:7420`.
    pub addr: String,
    /// `--providers N` / `--shards N` style count (role-specific).
    pub count: usize,
    /// `--chunk-size BYTES` (meta and version servers, which carry the
    /// tree geometry; the provider role rejects it).
    pub chunk_size: u64,
    /// `--data-dir PATH`: root of this role's durable state. `None`
    /// (the default) keeps the in-memory backend.
    pub data_dir: Option<PathBuf>,
    /// `--fsync per-publish|group:N|deferred`: durability policy of a
    /// disk backend (ignored without `--data-dir`).
    pub fsync: FsyncPolicy,
    /// `--retention keep-all|keep-last:N|keep-above:V`: the default
    /// per-blob retention policy (version-capable roles only; the
    /// provider role rejects it).
    pub retention: RetentionPolicy,
    /// `--lease-ttl-ms N`: cap on granted snapshot-lease TTLs
    /// (version-capable roles only).
    pub lease_ttl_cap_ms: u64,
    /// `--shard I/N`: pin the hosted version service to shard `I` of an
    /// `N`-way slot map (version-capable roles only). `None` (the
    /// default) serves every slot unchecked.
    pub shard: Option<(usize, usize)>,
    /// Transport/dispatcher tuning assembled from the `--workers`,
    /// `--read-timeout-ms`, `--write-timeout-ms`, and `--backoff-ms`
    /// style flags (defaults from [`RpcConfig::default`]).
    pub cfg: RpcConfig,
}

impl ServerArgs {
    /// Parses `<addr> [--COUNT_FLAG n] [--chunk-size bytes]` plus the
    /// backend flags `--data-dir path` and
    /// `--fsync per-publish|group:N|deferred` (every role: each of the
    /// three services owns durable state under a disk backend) and the
    /// shared [`RpcConfig`] flags: `--workers n`, `--pool-conns n`,
    /// `--mux-streams-per-conn n`, `--connect-timeout-ms n`,
    /// `--read-timeout-ms n`, `--write-timeout-ms n`,
    /// `--connect-retries n`, `--backoff-ms n`,
    /// `--server-mode threads|reactor`, `--max-conns n`,
    /// `--max-inflight-per-conn n`.
    ///
    /// `--chunk-size`, `--retention`, and `--lease-ttl-ms` are
    /// role-gated: roles without version-manager state (the provider
    /// server) pass `accepts_chunk_size = false` and the flags are
    /// rejected instead of silently ignored —
    /// [`server_usage`] must advertise exactly what parses.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        count_flag: &str,
        default_count: usize,
        accepts_chunk_size: bool,
    ) -> std::result::Result<Self, String> {
        let mut args = args.into_iter();
        let addr = args.next().ok_or("missing listen address")?;
        let mut parsed = ServerArgs {
            addr,
            count: default_count,
            chunk_size: 64 * 1024,
            data_dir: None,
            fsync: FsyncPolicy::default(),
            retention: RetentionPolicy::default(),
            lease_ttl_cap_ms: DEFAULT_LEASE_TTL_CAP_MS,
            shard: None,
            cfg: RpcConfig::default(),
        };
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad {flag}: {value}");
            let ms = || value.parse().map(Duration::from_millis).map_err(|_| bad());
            if flag == count_flag {
                parsed.count = value.parse().map_err(|_| bad())?;
            } else if flag == "--chunk-size" {
                if !accepts_chunk_size {
                    return Err("--chunk-size: this role has no chunk geometry".into());
                }
                parsed.chunk_size = value.parse().map_err(|_| bad())?;
            } else if flag == "--retention" {
                if !accepts_chunk_size {
                    return Err("--retention: this role hosts no version managers".into());
                }
                parsed.retention =
                    RetentionPolicy::parse(&value).map_err(|e| format!("bad {flag}: {e}"))?;
            } else if flag == "--lease-ttl-ms" {
                if !accepts_chunk_size {
                    return Err("--lease-ttl-ms: this role hosts no version managers".into());
                }
                parsed.lease_ttl_cap_ms = value.parse().map_err(|_| bad())?;
            } else if flag == "--shard" {
                if !accepts_chunk_size {
                    return Err("--shard: this role hosts no version managers".into());
                }
                let (i, n) = value.split_once('/').ok_or_else(bad)?;
                let (i, n): (usize, usize) =
                    (i.parse().map_err(|_| bad())?, n.parse().map_err(|_| bad())?);
                if i >= n {
                    return Err(format!("bad {flag}: shard index {i} out of range for /{n}"));
                }
                parsed.shard = Some((i, n));
            } else if flag == "--data-dir" {
                parsed.data_dir = Some(PathBuf::from(&value));
            } else if flag == "--fsync" {
                parsed.fsync =
                    FsyncPolicy::parse(&value).map_err(|e| format!("bad {flag}: {e}"))?;
            } else if flag == "--workers" {
                parsed.cfg.server_workers = value.parse().map_err(|_| bad())?;
            } else if flag == "--pool-conns" {
                parsed.cfg.pool_conns = value.parse().map_err(|_| bad())?;
            } else if flag == "--mux-streams-per-conn" {
                parsed.cfg.mux_streams_per_conn = value.parse().map_err(|_| bad())?;
            } else if flag == "--connect-retries" {
                parsed.cfg.connect_retries = value.parse().map_err(|_| bad())?;
            } else if flag == "--connect-timeout-ms" {
                parsed.cfg.connect_timeout = ms()?;
            } else if flag == "--read-timeout-ms" {
                parsed.cfg.read_timeout = ms()?;
            } else if flag == "--write-timeout-ms" {
                parsed.cfg.write_timeout = ms()?;
            } else if flag == "--backoff-ms" {
                parsed.cfg.backoff = ms()?;
            } else if flag == "--server-mode" {
                parsed.cfg.server_mode =
                    ServerMode::parse(&value).map_err(|e| format!("bad {flag}: {e}"))?;
            } else if flag == "--max-conns" {
                parsed.cfg.max_conns = value.parse().map_err(|_| bad())?;
            } else if flag == "--max-inflight-per-conn" {
                parsed.cfg.max_inflight_per_conn = value.parse().map_err(|_| bad())?;
            } else {
                return Err(format!("unknown flag {flag}"));
            }
        }
        Ok(parsed)
    }

    /// The storage backend these flags select: a disk backend rooted at
    /// `--data-dir` with the `--fsync` policy, or the in-memory default
    /// when `--data-dir` was not given.
    pub fn backend(&self) -> BackendConfig {
        match &self.data_dir {
            Some(dir) => BackendConfig::disk(dir).with_fsync(self.fsync),
            None => BackendConfig::Memory,
        }
    }
}

/// Runs a service on `addr` until the process is killed (binary entry
/// point; blocks forever).
pub fn serve_forever(addr: &str, service: Arc<dyn Service>, cfg: RpcConfig) -> io::Result<()> {
    let server = RpcServer::start_with_config(addr, service, cfg)?;
    eprintln!("listening on {}", server.local_addr());
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// The shared transport/dispatcher flags every server binary accepts
/// (with each flag's value hint), in the order the usage line lists
/// them. [`server_usage`] renders this list, so the advertised flags
/// cannot drift from the parser.
const SHARED_FLAGS: [(&str, &str); 11] = [
    ("--workers", "N"),
    ("--read-timeout-ms", "N"),
    ("--write-timeout-ms", "N"),
    ("--connect-timeout-ms", "N"),
    ("--connect-retries", "N"),
    ("--backoff-ms", "N"),
    ("--pool-conns", "N"),
    ("--mux-streams-per-conn", "N"),
    ("--server-mode", "threads|reactor"),
    ("--max-conns", "N"),
    ("--max-inflight-per-conn", "N"),
];

/// Renders the one-line usage string of a server binary: exactly the
/// flags [`ServerArgs::parse`] accepts for that role — the role-specific
/// fleet-size flag (if any), `--chunk-size` only for roles that carry
/// chunk geometry, and the shared [`RpcConfig`] flags.
pub fn server_usage(name: &str, count_flag: Option<&str>, accepts_chunk_size: bool) -> String {
    let mut usage = format!("usage: {name} <listen-addr>");
    if let Some(flag) = count_flag {
        usage.push_str(&format!(" [{flag} N]"));
    }
    if accepts_chunk_size {
        usage.push_str(" [--chunk-size BYTES]");
        usage.push_str(" [--retention keep-all|keep-last:N|keep-above:V]");
        usage.push_str(" [--lease-ttl-ms N]");
        usage.push_str(" [--shard I/N]");
    }
    usage.push_str(" [--data-dir PATH] [--fsync per-publish|group:N|deferred]");
    for (flag, hint) in SHARED_FLAGS {
        usage.push_str(&format!(" [{flag} {hint}]"));
    }
    usage
}

/// The shared `main` of the three server binaries: parses the argument
/// list through [`ServerArgs`], builds the role's service, and serves
/// forever. `count_flag` is the role-specific fleet-size flag
/// (`--providers` / `--shards`) with its default, or `None` for roles
/// without one (the version server); `accepts_chunk_size` gates the
/// `--chunk-size` flag to the roles that carry chunk geometry. Exits
/// the process with status 2 on bad flags and 1 on a bind failure.
pub fn run_server_binary(
    name: &str,
    count_flag: Option<(&str, usize)>,
    accepts_chunk_size: bool,
    build: impl FnOnce(&ServerArgs) -> Arc<dyn Service>,
) {
    let (flag, default_count) = count_flag.unwrap_or(("", 0));
    let usage = server_usage(name, count_flag.map(|(f, _)| f), accepts_chunk_size);
    let args = match ServerArgs::parse(
        std::env::args().skip(1),
        flag,
        default_count,
        accepts_chunk_size,
    ) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{usage}");
            std::process::exit(2);
        }
    };
    let service = build(&args);
    if let Err(e) = serve_forever(&args.addr, service, args.cfg) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
