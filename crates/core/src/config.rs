//! Store configuration.

use atomio_provider::AllocationStrategy;
use atomio_simgrid::CostModel;
use atomio_types::{BackendConfig, RetentionPolicy};

/// A label for how clients reach the services. It selects nothing: the
/// substrates a store is built over decide that ([`crate::Store::new`]
/// is in process, [`crate::Store::with_substrates`] takes whatever
/// `atomio-rpc` dialled). The enum, [`StoreConfig::transport_mode`] and
/// [`StoreConfig::with_transport_mode`] exist only because the frozen
/// wall-clock benchmark (`wallbench/src/deploy.rs`) sets
/// `TransportMode::Tcp`; the next benchmark PR that stops setting it
/// deletes all three.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportMode {
    /// In process (the default).
    #[default]
    Loopback,
    /// Over sockets.
    Tcp,
}

/// Configuration of a versioning store deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreConfig {
    /// Striping chunk size == metadata leaf size (power of two).
    pub chunk_size: u64,
    /// Number of data providers.
    pub data_providers: usize,
    /// Number of metadata shards.
    pub meta_shards: usize,
    /// Replicas per chunk (1 = no replication).
    pub replication: usize,
    /// Minimum replicas that must survive fault injection for a write to
    /// succeed.
    pub min_replicas: usize,
    /// Chunk placement: round-robin, the only one. Kept because
    /// `wallbench/src` passes it to `ProviderManager::from_stores`.
    pub allocation: AllocationStrategy,
    /// Simulated hardware prices.
    pub cost: CostModel,
    /// Read by nothing (see [`TransportMode`]).
    pub transport_mode: TransportMode,
    /// Client-side metadata cache size in nodes (0 disables caching).
    /// The cache serves the in-process tree walk only: a remote metadata
    /// store resolves a read on its server and never consults it.
    pub meta_cache_nodes: usize,
    /// Default snapshot retention policy applied to every blob at
    /// creation (a blob can still override it per-blob through its
    /// version oracle). [`RetentionPolicy::KeepAll`] — the default —
    /// disables reclamation entirely, preserving the behavior every
    /// committed benchmark result was produced under.
    pub retention: RetentionPolicy,
    /// Storage substrate of every service: in-memory tables
    /// ([`BackendConfig::Memory`], the default and the substrate every
    /// committed benchmark result was produced under) or durable
    /// append-only logs with crash recovery ([`BackendConfig::Disk`]).
    pub backend: BackendConfig,
    /// Read by nothing: no choice in the store is random. Kept, with
    /// [`Self::with_seed`], because the frozen wall-clock benchmark
    /// (`wallbench/src`) sets and passes it; the next benchmark PR that
    /// stops doing so deletes both.
    pub seed: u64,
}

impl Default for StoreConfig {
    /// The configuration used by the paper-scale experiments: 64 KiB
    /// chunks striped round-robin over 16 providers, 4 metadata shards,
    /// no replication, Grid'5000-like costs.
    fn default() -> Self {
        StoreConfig {
            chunk_size: 64 * 1024,
            data_providers: 16,
            meta_shards: 4,
            replication: 1,
            min_replicas: 1,
            allocation: AllocationStrategy::RoundRobin,
            cost: CostModel::grid5000(),
            transport_mode: TransportMode::Loopback,
            meta_cache_nodes: 4096,
            retention: RetentionPolicy::KeepAll,
            backend: BackendConfig::Memory,
            seed: 0x5EED,
        }
    }
}

impl StoreConfig {
    /// Zero-cost variant for semantics-only tests.
    pub fn with_zero_cost(mut self) -> Self {
        self.cost = CostModel::zero();
        self
    }

    /// Sets the chunk/leaf size.
    pub fn with_chunk_size(mut self, bytes: u64) -> Self {
        self.chunk_size = bytes;
        self
    }

    /// Sets the provider fleet size.
    pub fn with_data_providers(mut self, n: usize) -> Self {
        self.data_providers = n;
        self
    }

    /// Sets the metadata shard count.
    pub fn with_meta_shards(mut self, n: usize) -> Self {
        self.meta_shards = n;
        self
    }

    /// Sets replication (replicas per chunk and the write quorum).
    pub fn with_replication(mut self, replicas: usize, min_ok: usize) -> Self {
        self.replication = replicas;
        self.min_replicas = min_ok;
        self
    }

    /// Sets the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Sets [`Self::transport_mode`], which selects nothing (see
    /// [`TransportMode`]).
    pub fn with_transport_mode(mut self, mode: TransportMode) -> Self {
        self.transport_mode = mode;
        self
    }

    /// Sets the client-side metadata cache size (0 disables caching).
    pub fn with_meta_cache(mut self, nodes: usize) -> Self {
        self.meta_cache_nodes = nodes;
        self
    }

    /// Sets the default snapshot retention policy stamped onto every
    /// blob at creation.
    pub fn with_retention(mut self, policy: RetentionPolicy) -> Self {
        self.retention = policy;
        self
    }

    /// Sets the storage backend — **the one place** a deployment picks
    /// its substrate; providers, metadata shards, and the version
    /// manager all follow it.
    pub fn with_backend(mut self, backend: BackendConfig) -> Self {
        self.backend = backend;
        self
    }

    /// Sets [`Self::seed`], which selects nothing.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_scale() {
        let c = StoreConfig::default();
        assert_eq!(c.chunk_size, 64 * 1024);
        assert!(c.chunk_size.is_power_of_two());
        assert_eq!(c.data_providers, 16);
        assert_eq!(c.replication, 1);
        assert_eq!(c.transport_mode, TransportMode::Loopback);
        assert_eq!(c.meta_cache_nodes, 4096);
        assert_eq!(c.retention, RetentionPolicy::KeepAll);
        assert_eq!(c.backend, BackendConfig::Memory);
    }

    #[test]
    fn builder_methods_chain() {
        let c = StoreConfig::default()
            .with_zero_cost()
            .with_chunk_size(1024)
            .with_data_providers(4)
            .with_meta_shards(2)
            .with_replication(3, 2)
            .with_transport_mode(TransportMode::Tcp)
            .with_meta_cache(0)
            .with_retention(RetentionPolicy::KeepLast(2))
            .with_backend(BackendConfig::disk("/tmp/x"))
            .with_seed(7);
        assert_eq!(c.cost, CostModel::zero());
        assert_eq!(c.chunk_size, 1024);
        assert_eq!(c.data_providers, 4);
        assert_eq!(c.meta_shards, 2);
        assert_eq!((c.replication, c.min_replicas), (3, 2));
        assert_eq!(c.transport_mode, TransportMode::Tcp);
        assert_eq!(c.meta_cache_nodes, 0);
        assert_eq!(c.retention, RetentionPolicy::KeepLast(2));
        assert!(c.backend.is_disk());
        assert_eq!(c.seed, 7);
    }
}
