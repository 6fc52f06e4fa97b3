//! Backend construction shared by every experiment.
//!
//! All backends are deployed with the **same fleet size, stripe/chunk
//! size, and cost model**, so measured differences come from the
//! concurrency-control strategy alone.

use atomio_core::{Store, StoreConfig};
use atomio_mpiio::adio::AdioDriver;
use atomio_mpiio::drivers::{ConflictDetectDriver, LockingDriver, VersioningDriver};
use atomio_pfs::ParallelFs;
use atomio_simgrid::{CostModel, Metrics};
use std::sync::Arc;

/// The storage strategies under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The paper's proposal: versioning store, native atomic list-I/O.
    Versioning,
    /// Lustre-style covering byte-range locks.
    LustreLock,
    /// Overlap detection, locking only on conflict (Sehrish et al.).
    ConflictDetect,
    /// PVFS-style: no locks, no atomicity — the raw-bandwidth bound.
    NoLock,
}

impl Backend {
    /// All backends, in report order.
    pub const ALL: [Backend; 4] = [
        Backend::Versioning,
        Backend::LustreLock,
        Backend::ConflictDetect,
        Backend::NoLock,
    ];

    /// The atomic-mode backends the paper's headline compares.
    pub const ATOMIC: [Backend; 3] = [
        Backend::Versioning,
        Backend::LustreLock,
        Backend::ConflictDetect,
    ];

    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            Backend::Versioning => "versioning",
            Backend::LustreLock => "lustre-lock",
            Backend::ConflictDetect => "conflict-detect",
            Backend::NoLock => "no-lock (no atomicity)",
        }
    }

    /// Whether writes through this backend request MPI atomic mode.
    pub fn atomic_flag(&self) -> bool {
        !matches!(self, Backend::NoLock)
    }
}

/// Deployment parameters shared across backends in one experiment.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Storage servers (data providers / OSTs).
    pub servers: usize,
    /// Metadata shards (versioning backend only).
    pub meta_shards: usize,
    /// Chunk/stripe size in bytes.
    pub chunk_size: u64,
    /// Hardware prices.
    pub cost: CostModel,
}

impl Default for BenchConfig {
    /// The paper-scale deployment: 16 storage servers, 4 metadata
    /// shards, 256 KiB stripes, Grid'5000-like prices.
    fn default() -> Self {
        BenchConfig {
            servers: 16,
            meta_shards: 4,
            chunk_size: 256 * 1024,
            cost: CostModel::grid5000(),
        }
    }
}

impl BenchConfig {
    /// Builds a fresh driver (with its own fresh store/file system) for
    /// `backend`. Returns the driver and the metrics registry of the
    /// underlying deployment.
    pub fn build(&self, backend: Backend) -> (Arc<dyn AdioDriver>, Metrics) {
        match backend {
            Backend::Versioning => {
                let store = Store::new(
                    StoreConfig::default()
                        .with_cost(self.cost)
                        .with_chunk_size(self.chunk_size)
                        .with_data_providers(self.servers)
                        .with_meta_shards(self.meta_shards),
                );
                let metrics = store.metrics().clone();
                (
                    Arc::new(VersioningDriver::new(store.create_blob())),
                    metrics,
                )
            }
            Backend::LustreLock | Backend::NoLock => {
                let metrics = Metrics::new();
                let fs = ParallelFs::new(self.servers, self.cost, metrics.clone());
                (
                    Arc::new(LockingDriver::new(Arc::new(
                        fs.create_file(self.chunk_size),
                    ))),
                    metrics,
                )
            }
            Backend::ConflictDetect => {
                let metrics = Metrics::new();
                let fs = ParallelFs::new(self.servers, self.cost, metrics.clone());
                (
                    Arc::new(ConflictDetectDriver::new(
                        Arc::new(fs.create_file(self.chunk_size)),
                        self.cost,
                    )),
                    metrics,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomio_simgrid::clock::run_actors_on;
    use atomio_simgrid::SimClock;
    use atomio_types::{ClientId, ExtentList};
    use bytes::Bytes;

    #[test]
    fn every_backend_builds_and_writes() {
        let cfg = BenchConfig {
            cost: CostModel::zero(),
            ..BenchConfig::default()
        };
        for backend in Backend::ALL {
            let (driver, _) = cfg.build(backend);
            let clock = SimClock::new();
            run_actors_on(&clock, 1, |_, p| {
                let ext = ExtentList::from_pairs([(0u64, 64u64)]);
                driver
                    .write_extents(
                        p,
                        ClientId::new(0),
                        &ext,
                        Bytes::from(vec![7u8; 64]),
                        backend.atomic_flag(),
                    )
                    .unwrap();
                let got = driver
                    .read_extents(p, ClientId::new(0), &ext, false)
                    .unwrap();
                assert_eq!(got, vec![7u8; 64], "{}", backend.label());
            });
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = Backend::ALL.iter().map(|b| b.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Backend::ALL.len());
    }

    #[test]
    fn atomic_flags() {
        assert!(Backend::Versioning.atomic_flag());
        assert!(Backend::LustreLock.atomic_flag());
        assert!(!Backend::NoLock.atomic_flag());
    }
}
