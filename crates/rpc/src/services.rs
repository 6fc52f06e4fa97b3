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
//!   blob (ticket, publish, snapshot, lease and slot-handoff ops) and is
//!   the only service that answers them.
//!
//! `Ping` is answered by all three; any other request sent to a role
//! that is not its home draws a typed [`Error::Unsupported`].
//!
//! Servers run **zero-cost** device models: a real deployment's latency
//! comes from the real sockets, not from the simulation. The virtual
//! `arrival` instants clients pass through the protocol therefore echo
//! back unchanged, keeping remote and in-process bookkeeping aligned.

use crate::proto::{BlobExport, Request, Response};
use crate::wire::{self, PayloadCursor};
use atomio_core::{slot_for_blob, SlotMap};
use atomio_meta::{node_store_for, LocalNodeStore, TreeConfig, WriteSummary};
use atomio_provider::{chunk_store_for, ChunkStore, DataProvider};
use atomio_simgrid::{ClientNics, CostModel, FaultInjector};
use atomio_types::{
    BackendConfig, BlobId, ByteRange, ChunkId, Error, ExtentList, ProviderId, Result,
    RetentionPolicy, TransportErrorKind,
};
use atomio_version::{version_manager_for, Ticket, VersionManager};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, BTreeSet, HashMap};
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
            ProviderHasChunk { provider, chunk } => {
                reply(self.provider(provider).map(|s| Response::Flag {
                    value: s.has_chunk(chunk),
                }))
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
            ProviderEvictChunk { provider, chunk } => {
                reply(self.provider(provider).map(|s| Response::Count {
                    value: s.evict_chunk(chunk),
                }))
            }
            ProviderChecksumOf { provider, chunk } => {
                reply(self.provider(provider).map(|s| Response::Checksum {
                    value: s.checksum_of(chunk),
                }))
            }
            ProviderCorruptChunk {
                provider,
                chunk,
                byte,
            } => reply(self.provider(provider).map(|s| {
                s.corrupt_chunk(chunk, byte as usize);
                Response::Unit
            })),
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
/// only service that answers a `Vm*` or slot-map request. The
/// `atomio-version-server` binary wraps exactly this service.
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
                self.vm_ticket(blob)
                    .and_then(|vm| vm.ticket_local(&extents, known as usize)),
            ),
            VmTicketAppend { blob, len, known } => granted(
                self.vm_ticket(blob)
                    .and_then(|vm| vm.ticket_append_local(len, known as usize)),
            ),
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
                reply(result.map(|()| Response::Unit))
            }
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
                self.vm_ticket(blob)
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
            SlotMapGet => reply(Ok(Response::SlotMapInfo {
                map: self.map.read().clone(),
            })),
            SlotMapInstall { map } => {
                // The map write-guard is released before touching the
                // freeze state: publishes take `frozen` then `map` (read
                // side), so holding both write locks here would invert
                // the order and deadlock.
                let installed_epoch = {
                    let mut cur = self.map.write();
                    if map.epoch < cur.epoch {
                        return reply(Err(Error::Internal(format!(
                            "slot map epoch regressed: have {}, offered {}",
                            cur.epoch, map.epoch
                        ))));
                    }
                    *cur = map;
                    cur.epoch
                };
                // Thaw every per-slot freeze the new map supersedes;
                // freezes for a yet-higher epoch stay in force.
                self.frozen.write().retain(|_, f| f.epoch > installed_epoch);
                reply(Ok(Response::Unit))
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
                reply(Ok(Response::Count { value: pending }))
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
                reply(Ok(Response::Count {
                    value: self.pending_grants_in(&set),
                }))
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
                reply(Ok(Response::SlotExport { blobs }))
            }
            VmImportBlobs { blobs } => {
                let applied = blobs.iter().try_fold(0u64, |applied, b| {
                    let vm = self.vm(b.blob)?;
                    Ok(applied + vm.import_published(&b.versions, b.retention)?)
                });
                reply(applied.map(|value| Response::Count { value }))
            }
            _ => unsupported("chunk/metadata op sent to a version server"),
        }
    }
}

/// Hosts metadata shards behind the metadata RPCs.
#[derive(Debug)]
pub struct MetaService {
    store: Arc<dyn LocalNodeStore>,
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
    pub fn store(&self) -> &Arc<dyn LocalNodeStore> {
        &self.store
    }
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
            MetaContains { key } => reply(Ok(Response::Flag {
                value: self.store.contains(key),
            })),
            MetaNodeCount => reply(Ok(Response::Count {
                value: self.store.node_count() as u64,
            })),
            MetaEvict { key } => {
                self.store.evict(key);
                reply(Ok(Response::Unit))
            }
            MetaEvictBatch { keys } => reply(Ok(Response::Count {
                value: self.store.evict_batch(&keys),
            })),
            MetaListKeys => reply(Ok(Response::Keys {
                keys: self.store.list_keys(),
            })),
            _ => unsupported("chunk/version op sent to a metadata server"),
        }
    }
}
