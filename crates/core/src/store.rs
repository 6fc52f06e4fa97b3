//! The assembled versioning store.

use crate::blob::Blob;
use crate::config::StoreConfig;
use crate::namespace::Namespace;
use atomio_meta::{NodeStore, TreeConfig};
use atomio_provider::ProviderManager;
use atomio_simgrid::{CostModel, FaultInjector, Metrics};
use atomio_types::ids::IdAllocator;
use atomio_types::{BlobId, ChunkGeometry};
use atomio_version::{version_manager_for, VersionOracle};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Builds the version oracle for each new blob: the seam through which
/// the version manager becomes a third independently deployable service
/// (see [`Store::with_version_oracles`]).
pub type VersionOracleFactory = Arc<dyn Fn(BlobId) -> Arc<dyn VersionOracle> + Send + Sync>;

/// One deployment of the versioning storage service.
///
/// Shared infrastructure (providers, metadata shards, fault plane) is
/// store-wide; each blob gets its own version oracle and write history.
pub struct Store {
    config: StoreConfig,
    providers: Arc<ProviderManager>,
    meta: Arc<dyn NodeStore>,
    faults: Arc<FaultInjector>,
    metrics: Metrics,
    chunk_ids: Arc<IdAllocator>,
    blob_ids: IdAllocator,
    blobs: RwLock<HashMap<BlobId, Blob>>,
    namespace: Namespace,
    oracles: VersionOracleFactory,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("config", &self.config)
            .field("providers", &self.providers)
            .field("meta", &self.meta)
            .field("blobs", &self.blobs.read().len())
            .finish_non_exhaustive()
    }
}

impl Store {
    /// Deploys a store, in process. A socket deployment dials its
    /// remote substrates with `atomio-rpc` and hands them to
    /// [`Self::with_substrates`].
    pub fn new(config: StoreConfig) -> Self {
        let costs = vec![config.cost; config.data_providers];
        Self::new_heterogeneous(config, costs)
    }

    /// Deploys a store with per-provider hardware (`costs[i]` for data
    /// provider `i`; overrides `config.data_providers`). Metadata shards
    /// and the version manager keep `config.cost`.
    ///
    /// # Panics
    /// With a [`BackendConfig::Disk`](atomio_types::BackendConfig)
    /// backend, panics when a backend directory cannot be opened or
    /// recovered — a deployment that cannot reach its durable state must
    /// not come up empty and silently shed data.
    pub fn new_heterogeneous(config: StoreConfig, costs: Vec<CostModel>) -> Self {
        let faults = Arc::new(FaultInjector::default());
        let providers = Arc::new(
            ProviderManager::with_backend(&config.backend, costs, Arc::clone(&faults))
                .expect("open storage backend"),
        );
        // Metadata and data traffic of one client contend for the same
        // simulated NIC: the meta store books on the provider registry.
        let meta = atomio_meta::node_store_for(
            &config.backend,
            config.meta_shards,
            config.cost,
            Arc::clone(providers.client_nic_registry()),
        )
        .expect("open metadata backend");
        Self::with_substrates(config, providers, Arc::new(meta))
    }

    /// Assembles a store over caller-built substrates — the seam the
    /// `atomio-rpc` transports plug into: pass a [`ProviderManager`]
    /// built from `RemoteProvider` handles and a `RemoteMetaStore`, and
    /// the whole write/read/scrub machinery runs over real sockets. The
    /// in-process constructors funnel through here too, so both
    /// deployments execute the same code path above this line.
    pub fn with_substrates(
        config: StoreConfig,
        providers: Arc<ProviderManager>,
        meta: Arc<dyn NodeStore>,
    ) -> Self {
        let faults = Arc::clone(providers.faults());
        // Default oracle factory: one in-process version manager per
        // blob, exactly the pre-RPC behavior — durable when the backend
        // is, so publish decisions survive crashes with the data. A
        // remote deployment swaps this out with `with_version_oracles`.
        let (backend, tree) = (config.backend.clone(), TreeConfig::new(config.chunk_size));
        let (cost, retention) = (config.cost, config.retention);
        let oracles: VersionOracleFactory = Arc::new(move |blob| {
            let vm = version_manager_for(&backend, blob, tree, cost, retention)
                .expect("open publish log");
            Arc::new(vm) as Arc<dyn VersionOracle>
        });
        // A reopened disk deployment resumes its chunk allocator past
        // every id already on any provider's media — chunk ids, like
        // version numbers, are never reused across restarts. (Blob ids
        // are allocated deterministically in creation order, so a client
        // that re-creates its blobs in the same order after a restart
        // re-binds the recovered state.)
        let first_free = providers
            .providers()
            .iter()
            .filter_map(|s| s.max_chunk_id())
            .map(|c| c.raw() + 1)
            .max()
            .unwrap_or(0);
        Store {
            providers,
            meta,
            faults,
            metrics: Metrics::new(),
            chunk_ids: Arc::new(IdAllocator::starting_at(first_free)),
            blob_ids: IdAllocator::new(),
            blobs: RwLock::new(HashMap::new()),
            namespace: Namespace::new(),
            config,
            oracles,
        }
    }

    /// Replaces the per-blob version-oracle factory — the third leg of
    /// the RPC seam. Pass a closure returning
    /// `atomio_rpc::RemoteVersionManager` handles dialed at an
    /// `atomio-version-server` and every blob created afterwards runs
    /// its ticket/publish/snapshot traffic over that transport; the
    /// data and metadata paths are untouched.
    pub fn with_version_oracles(
        mut self,
        factory: impl Fn(BlobId) -> Arc<dyn VersionOracle> + Send + Sync + 'static,
    ) -> Self {
        self.oracles = Arc::new(factory);
        self
    }

    /// Creates a new blob (one shared file) and returns its handle.
    pub fn create_blob(&self) -> Blob {
        let id = self.blob_ids.next_blob();
        let vm = (self.oracles)(id);
        let blob = Blob::assemble(
            id,
            ChunkGeometry::new(self.config.chunk_size),
            Arc::clone(&self.providers),
            Arc::clone(&self.meta),
            vm,
            Arc::clone(&self.chunk_ids),
            self.config.clone(),
            self.metrics.clone(),
        );
        self.blobs.write().insert(id, blob.clone());
        blob
    }

    /// Looks up an existing blob handle.
    pub fn blob(&self, id: BlobId) -> Option<Blob> {
        self.blobs.read().get(&id).cloned()
    }

    /// The store's configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// The provider fleet (for accounting and ablations).
    pub fn providers(&self) -> &Arc<ProviderManager> {
        &self.providers
    }

    /// The metadata store.
    pub fn meta(&self) -> &Arc<dyn NodeStore> {
        &self.meta
    }

    /// The fault-injection plane.
    pub fn faults(&self) -> &Arc<FaultInjector> {
        &self.faults
    }

    /// The store-wide metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The path namespace (see [`crate::namespace`]).
    pub(crate) fn namespace(&self) -> &Namespace {
        &self.namespace
    }

    /// Scrubs every data provider and repairs corrupted chunks from
    /// healthy replicas, using the metadata trees of every published
    /// snapshot to map chunks to their replica homes. A snapshot GC has
    /// retired (its tree reaches a collected node) maps nothing: what it
    /// shared with a retained snapshot is mapped through that one.
    /// Returns `(corruptions_found, repaired)`.
    pub fn scrub_and_repair(
        &self,
        p: &atomio_simgrid::Participant,
    ) -> atomio_types::Result<(u64, u64)> {
        use atomio_types::{Error, VersionId};
        use std::collections::HashSet;

        // Gather chunk→homes from every published version of every blob,
        // one walk per version, never fetching a node twice.
        let mut seen = HashSet::new();
        let mut homes = HashMap::new();
        let blobs: Vec<Blob> = self.blobs.read().values().cloned().collect();
        for blob in &blobs {
            let latest = blob.version_manager().latest(p)?.version;
            let mut v = VersionId::new(1);
            while v <= latest {
                if let Ok(snap) = blob.version_manager().snapshot(p, v) {
                    match atomio_meta::reach(self.meta.as_ref(), p, snap.root.as_slice(), &seen) {
                        Ok(reached) => {
                            homes.extend(reached.chunks);
                            seen.extend(reached.nodes);
                        }
                        Err(Error::MetadataNodeMissing(_)) => {}
                        Err(e) => return Err(e),
                    }
                }
                v = v.successor();
            }
        }
        Ok(self
            .providers
            .scrub_and_repair(p, |c| homes.get(&c).cloned().unwrap_or_default()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_lookup_blobs() {
        let store = Store::new(StoreConfig::default().with_zero_cost());
        let a = store.create_blob();
        let b = store.create_blob();
        assert_ne!(a.id(), b.id());
        assert_eq!(store.blob(a.id()).unwrap().id(), a.id());
        assert!(store.blob(BlobId::new(999)).is_none());
    }

    #[test]
    fn blobs_share_infrastructure_without_key_collisions() {
        // Regression: tree node keys include the blob id, so two blobs
        // writing the same version number over the same ranges must not
        // collide in the shared metadata store.
        let store = Store::new(
            StoreConfig::default()
                .with_zero_cost()
                .with_chunk_size(64)
                .with_data_providers(2),
        );
        let a = store.create_blob();
        let b = store.create_blob();
        atomio_simgrid::clock::run_actors(1, |_, p| {
            let va = a.write(p, 0, bytes::Bytes::from_static(b"AAAA")).unwrap();
            let vb = b.write(p, 0, bytes::Bytes::from_static(b"BBBB")).unwrap();
            assert_eq!(va, vb, "both blobs are at their own version 1");
            assert_eq!(a.read(p, 0, 4).unwrap(), b"AAAA");
            assert_eq!(b.read(p, 0, 4).unwrap(), b"BBBB");
        });
    }

    #[test]
    fn store_exposes_substrates() {
        let store = Store::new(
            StoreConfig::default()
                .with_zero_cost()
                .with_data_providers(3)
                .with_meta_shards(2),
        );
        assert_eq!(store.providers().provider_count(), 3);
        assert_eq!(store.meta().node_count(), 0);
        assert_eq!(store.config().data_providers, 3);
        assert_eq!(store.faults().failed_count(), 0);
    }
}
