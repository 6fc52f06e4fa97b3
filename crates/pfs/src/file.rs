//! Files striped over OSTs, with raw access paths and a per-file lock
//! service.

use crate::dlm::LockManager;
use crate::ost::{FileId, Ost};
use atomio_simgrid::{CostModel, FaultInjector, Metrics, Participant};
use atomio_types::{ByteRange, ChunkGeometry, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A Lustre-like parallel file system: a fleet of OSTs plus per-file lock
/// services.
#[derive(Debug)]
pub struct ParallelFs {
    osts: Vec<Arc<Ost>>,
    cost: CostModel,
    metrics: Metrics,
    next_file: AtomicU64,
    faults: Arc<FaultInjector>,
}

impl ParallelFs {
    /// Deploys a file system with `osts` storage targets.
    pub fn new(osts: usize, cost: CostModel, metrics: Metrics) -> Self {
        let faults = Arc::new(FaultInjector::default());
        Self::heterogeneous(vec![cost; osts], cost, metrics, faults)
    }

    /// Deploys with per-OST hardware (`ost_costs[i]` for OST `i`); the
    /// lock service uses `service_cost`.
    pub fn heterogeneous(
        ost_costs: Vec<CostModel>,
        service_cost: CostModel,
        metrics: Metrics,
        faults: Arc<FaultInjector>,
    ) -> Self {
        assert!(!ost_costs.is_empty(), "need at least one OST");
        ParallelFs {
            osts: ost_costs
                .into_iter()
                .enumerate()
                .map(|(i, cost)| {
                    Arc::new(Ost::new(
                        atomio_types::ProviderId::new(i as u64),
                        cost,
                        Arc::clone(&faults),
                    ))
                })
                .collect(),
            cost: service_cost,
            metrics,
            next_file: AtomicU64::new(1),
            faults,
        }
    }

    /// Creates a file striped over all OSTs with the given stripe size.
    pub fn create_file(&self, stripe_size: u64) -> PfsFile {
        let id = self.next_file.fetch_add(1, Ordering::Relaxed);
        PfsFile {
            id,
            geometry: ChunkGeometry::new(stripe_size),
            osts: self.osts.clone(),
            locks: Arc::new(LockManager::new(self.cost, self.metrics.clone())),
            size: AtomicU64::new(0),
        }
    }

    /// The OST fleet (for accounting).
    pub fn osts(&self) -> &[Arc<Ost>] {
        &self.osts
    }

    /// The fault plane.
    pub fn faults(&self) -> &Arc<FaultInjector> {
        &self.faults
    }
}

/// One striped file.
///
/// `pwrite`/`pread` are **raw**: they move bytes without any locking (the
/// PVFS-like mode — fast, but concurrent overlapping writes can tear).
/// Atomicity is the caller's: an MPI-I/O driver takes the file's
/// [`LockManager`] extent lock around its transfer.
#[derive(Debug)]
pub struct PfsFile {
    id: FileId,
    geometry: ChunkGeometry,
    osts: Vec<Arc<Ost>>,
    locks: Arc<LockManager>,
    size: AtomicU64,
}

impl PfsFile {
    /// The file's id.
    pub fn id(&self) -> FileId {
        self.id
    }

    /// Stripe geometry.
    pub fn geometry(&self) -> ChunkGeometry {
        self.geometry
    }

    /// The file's lock service — used by MPI-I/O drivers, which lock
    /// the covering range of a whole non-contiguous request.
    pub fn locks(&self) -> &Arc<LockManager> {
        &self.locks
    }

    /// Current file size (highest byte ever written).
    pub fn size(&self) -> u64 {
        self.size.load(Ordering::Relaxed)
    }

    fn ost_for_stripe(&self, stripe: u64) -> &Arc<Ost> {
        &self.osts[(stripe % self.osts.len() as u64) as usize]
    }

    /// Raw positional write: stripes `data` over the OSTs, no locking.
    pub fn pwrite(&self, p: &Participant, offset: u64, data: &[u8]) -> Result<()> {
        let range = ByteRange::new(offset, data.len() as u64);
        if range.is_empty() {
            return Ok(());
        }
        for span in self.geometry.split_range(range) {
            let ost = self.ost_for_stripe(span.index);
            let lo = (span.absolute.offset - offset) as usize;
            let hi = (span.absolute.end() - offset) as usize;
            ost.write_stripe(p, self.id, span.index, span.relative.offset, &data[lo..hi])?;
        }
        self.size.fetch_max(range.end(), Ordering::Relaxed);
        Ok(())
    }

    /// Raw positional read: gathers stripes, zero-filling sparse holes.
    pub fn pread(&self, p: &Participant, offset: u64, len: u64) -> Result<Vec<u8>> {
        let range = ByteRange::new(offset, len);
        let mut out = vec![0u8; len as usize];
        for span in self.geometry.split_range(range) {
            let ost = self.ost_for_stripe(span.index);
            let data = ost.read_stripe(p, self.id, span.index, span.relative)?;
            let lo = (span.absolute.offset - offset) as usize;
            out[lo..lo + data.len()].copy_from_slice(&data);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomio_simgrid::clock::run_actors;

    fn fs(osts: usize, cost: CostModel) -> ParallelFs {
        ParallelFs::new(osts, cost, Metrics::new())
    }

    #[test]
    fn striped_roundtrip() {
        let fs = fs(3, CostModel::zero());
        let f = fs.create_file(64);
        run_actors(1, |_, p| {
            let data: Vec<u8> = (0..=255).cycle().take(300).collect();
            f.pwrite(p, 10, &data).unwrap();
            assert_eq!(f.pread(p, 10, 300).unwrap(), data);
            assert_eq!(f.size(), 310);
        });
    }

    #[test]
    fn sparse_reads_are_zero() {
        let fs = fs(2, CostModel::zero());
        let f = fs.create_file(64);
        run_actors(1, |_, p| {
            f.pwrite(p, 200, b"end").unwrap();
            assert_eq!(f.pread(p, 0, 4).unwrap(), vec![0u8; 4]);
            let got = f.pread(p, 198, 5).unwrap();
            assert_eq!(got, b"\0\0end");
        });
    }

    #[test]
    fn zero_len_ops_are_noops() {
        let fs = fs(2, CostModel::zero());
        let f = fs.create_file(64);
        run_actors(1, |_, p| {
            f.pwrite(p, 5, b"").unwrap();
            assert_eq!(f.size(), 0);
            assert_eq!(f.pread(p, 5, 0).unwrap(), Vec::<u8>::new());
        });
    }

    #[test]
    fn stripes_map_round_robin_over_osts() {
        let fs = fs(4, CostModel::zero());
        let f = fs.create_file(64);
        run_actors(1, |_, p| {
            // 4 stripes of 64 bytes → one per OST.
            f.pwrite(p, 0, &vec![7u8; 256]).unwrap();
        });
        for ost in fs.osts() {
            assert_eq!(ost.bytes_stored(), 64, "uneven striping");
        }
    }

    #[test]
    fn striping_scales_bandwidth() {
        let cost = CostModel::grid5000();
        let time_with = |osts: usize| {
            let fs = fs(osts, cost);
            let f = Arc::new(fs.create_file(1 << 20));
            let fc = Arc::clone(&f);
            let (_, total) = run_actors(8, move |i, p| {
                // Disjoint 1 MiB regions, each exactly one stripe.
                fc.pwrite(p, i as u64 * (1 << 20), &vec![0u8; 1 << 20])
                    .unwrap();
            });
            total
        };
        let t1 = time_with(1);
        let t8 = time_with(8);
        let ratio = t1.as_secs_f64() / t8.as_secs_f64();
        assert!(ratio > 5.0, "striping speedup only {ratio:.2}");
    }
}
