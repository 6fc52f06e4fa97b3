//! The traditional baseline: covering byte-range locks over a POSIX-like
//! parallel file system (the Lustre/GPFS strategy from the paper's §III).
//!
//! * Atomic mode: take one **exclusive lock over the smallest contiguous
//!   range covering every region** of the request — including the gaps —
//!   hold it across the whole multi-region transfer, then release.
//! * Non-atomic mode: raw striped writes, no locks (the PVFS-like
//!   configuration: fast, but concurrent overlapping writes can tear).

use crate::adio::AdioDriver;
use atomio_pfs::{LockKind, PfsFile};
use atomio_simgrid::Participant;
use atomio_types::{ClientId, ExtentList, Result};
use bytes::Bytes;
use std::sync::Arc;

/// ADIO driver over the locking parallel file system.
#[derive(Debug, Clone)]
pub struct LockingDriver {
    file: Arc<PfsFile>,
}

impl LockingDriver {
    /// Wraps a PFS file as an MPI-I/O backend.
    pub fn new(file: Arc<PfsFile>) -> Self {
        LockingDriver { file }
    }
}

impl AdioDriver for LockingDriver {
    fn write_extents(
        &self,
        p: &Participant,
        client: ClientId,
        extents: &ExtentList,
        payload: Bytes,
        atomic: bool,
    ) -> Result<()> {
        let handle = atomic.then(|| {
            self.file
                .locks()
                .lock(p, client, extents.covering_range(), LockKind::Exclusive)
        });
        let mut result = Ok(());
        for (range, buf_off) in extents.with_buffer_offsets() {
            let data = &payload[buf_off as usize..(buf_off + range.len) as usize];
            result = self.file.pwrite(p, range.offset, data);
            if result.is_err() {
                break;
            }
        }
        if let Some(h) = handle {
            self.file.locks().unlock(p, h);
        }
        result
    }

    fn read_extents(
        &self,
        p: &Participant,
        client: ClientId,
        extents: &ExtentList,
        atomic: bool,
    ) -> Result<Vec<u8>> {
        let handle = atomic.then(|| {
            self.file
                .locks()
                .lock(p, client, extents.covering_range(), LockKind::Shared)
        });
        let mut out = vec![0u8; extents.total_len() as usize];
        let mut result = Ok(());
        for (range, buf_off) in extents.with_buffer_offsets() {
            match self.file.pread(p, range.offset, range.len) {
                Ok(data) => {
                    out[buf_off as usize..(buf_off + range.len) as usize].copy_from_slice(&data);
                }
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        if let Some(h) = handle {
            self.file.locks().unlock(p, h);
        }
        result.map(|()| out)
    }

    fn file_size(&self, _p: &Participant) -> u64 {
        self.file.size()
    }

    fn name(&self) -> &'static str {
        "lustre-lock"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomio_pfs::ParallelFs;
    use atomio_simgrid::clock::run_actors;
    use atomio_simgrid::{CostModel, Metrics};
    use std::time::Duration;

    fn driver(cost: CostModel) -> (LockingDriver, Metrics) {
        let metrics = Metrics::new();
        let fs = ParallelFs::new(4, cost, metrics.clone());
        (LockingDriver::new(Arc::new(fs.create_file(64))), metrics)
    }

    #[test]
    fn roundtrip() {
        let (d, _) = driver(CostModel::zero());
        run_actors(1, |_, p| {
            let ext = ExtentList::from_pairs([(0u64, 4u64), (100, 4)]);
            d.write_extents(
                p,
                ClientId::new(0),
                &ext,
                Bytes::from_static(b"aaaabbbb"),
                true,
            )
            .unwrap();
            let got = d.read_extents(p, ClientId::new(0), &ext, true).unwrap();
            assert_eq!(got, b"aaaabbbb");
            assert_eq!(d.file_size(p), 104);
        });
    }

    #[test]
    fn atomic_mode_takes_covering_lock() {
        let (d, metrics) = driver(CostModel::zero());
        run_actors(1, |_, p| {
            let ext = ExtentList::from_pairs([(0u64, 4u64), (100, 4)]);
            d.write_extents(p, ClientId::new(0), &ext, Bytes::from(vec![0; 8]), true)
                .unwrap();
        });
        assert_eq!(metrics.counter("dlm.locks_granted").get(), 1);
        // Non-atomic writes take none.
        run_actors(1, |_, p| {
            let ext = ExtentList::from_pairs([(0u64, 4u64)]);
            d.write_extents(p, ClientId::new(0), &ext, Bytes::from(vec![0; 4]), false)
                .unwrap();
        });
        assert_eq!(metrics.counter("dlm.locks_granted").get(), 1);
    }

    #[test]
    fn atomic_overlapping_writes_serialize() {
        let (d, _) = driver(CostModel::grid5000());
        let d = Arc::new(d);
        let dc = Arc::clone(&d);
        // Two writers, overlapping non-contiguous sets; atomic mode must
        // serialize the transfers (total ≈ 2× one transfer).
        let solo = {
            let (d1, _) = driver(CostModel::grid5000());
            run_actors(1, move |_, p| {
                let ext = ExtentList::from_pairs([(0u64, 1u64 << 20), (2 << 20, 1 << 20)]);
                d1.write_extents(
                    p,
                    ClientId::new(0),
                    &ext,
                    Bytes::from(vec![0; 2 << 20]),
                    true,
                )
                .unwrap();
            })
            .1
        };
        let (_, both) = run_actors(2, move |i, p| {
            let ext = ExtentList::from_pairs([(0u64, 1u64 << 20), (2 << 20, 1 << 20)]);
            dc.write_extents(
                p,
                ClientId::new(i as u64),
                &ext,
                Bytes::from(vec![i as u8; 2 << 20]),
                true,
            )
            .unwrap();
        });
        assert!(
            both.as_secs_f64() > solo.as_secs_f64() * 1.8,
            "atomic overlap did not serialize: solo {solo:?}, both {both:?}"
        );
        let _ = Duration::ZERO;
    }

    #[test]
    fn non_atomic_overlapping_writes_overlap_in_time() {
        let cost = CostModel::grid5000();
        let solo = {
            let (d1, _) = driver(cost);
            run_actors(1, move |_, p| {
                let ext = ExtentList::from_pairs([(0u64, 1u64 << 20)]);
                d1.write_extents(
                    p,
                    ClientId::new(0),
                    &ext,
                    Bytes::from(vec![0; 1 << 20]),
                    false,
                )
                .unwrap();
            })
            .1
        };
        let (d2, _) = driver(cost);
        let d2 = Arc::new(d2);
        let (_, both) = run_actors(2, move |i, p| {
            let ext = ExtentList::from_pairs([(0u64, 1u64 << 20)]);
            d2.write_extents(
                p,
                ClientId::new(i as u64),
                &ext,
                Bytes::from(vec![i as u8; 1 << 20]),
                false,
            )
            .unwrap();
        });
        // Striped over 4 OSTs, the two writers contend on disks but not
        // on locks; well under full serialization.
        assert!(
            both.as_secs_f64() < solo.as_secs_f64() * 1.9,
            "non-atomic writes serialized: solo {solo:?}, both {both:?}"
        );
    }
}
