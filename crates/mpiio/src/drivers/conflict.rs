//! Conflict-detection driver (Sehrish, Wang & Thakur, EuroPVM/MPI'09):
//! detect whether concurrent accesses actually overlap, and lock only
//! when they do.
//!
//! Writers register their extent list with a coordination service before
//! transferring. A writer with no conflict against in-flight writes
//! proceeds lock-free; a writer that conflicts waits for the conflicting
//! earlier registrations to finish and then performs its transfer under
//! the covering-range lock. The cost of the registration round trip is
//! paid by *every* write — the "unnecessary overhead ... for
//! non-overlapping concurrent I/O" the paper quotes as this approach's
//! acknowledged weakness.
//!
//! The transfers themselves are [`LockingDriver`]'s: a lock-free write is
//! its non-atomic write, a conflicting one its atomic write (covering
//! lock, the writes, unlock), and a read its read. This driver adds only
//! the coordinator.

use crate::adio::AdioDriver;
use crate::drivers::LockingDriver;
use atomio_pfs::PfsFile;
use atomio_simgrid::{CostModel, Event, Participant, Resource};
use atomio_types::{ClientId, ExtentList, Result};
use bytes::Bytes;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug)]
struct ActiveWrite {
    id: u64,
    extents: ExtentList,
}

/// ADIO driver with overlap detection.
#[derive(Debug, Clone)]
pub struct ConflictDetectDriver {
    locking: LockingDriver,
    cost: CostModel,
    coordinator: Arc<Coordinator>,
}

#[derive(Debug)]
struct Coordinator {
    cpu: Resource,
    active: Mutex<Vec<ActiveWrite>>,
    /// Notified when a write deregisters from `active`.
    retired: Event,
    next_id: AtomicU64,
    lock_free_writes: AtomicU64,
    locked_writes: AtomicU64,
}

impl ConflictDetectDriver {
    /// Wraps a PFS file with a conflict-detection coordinator.
    pub fn new(file: Arc<PfsFile>, cost: CostModel) -> Self {
        ConflictDetectDriver {
            locking: LockingDriver::new(file),
            cost,
            coordinator: Arc::new(Coordinator {
                cpu: Resource::new("conflict-coordinator/cpu"),
                active: Mutex::new(Vec::new()),
                retired: Event::new(),
                next_id: AtomicU64::new(1),
                lock_free_writes: AtomicU64::new(0),
                locked_writes: AtomicU64::new(0),
            }),
        }
    }

    /// `(lock_free, locked)` write counts — how often detection avoided
    /// locking.
    pub fn write_counts(&self) -> (u64, u64) {
        (
            self.coordinator.lock_free_writes.load(Ordering::Relaxed),
            self.coordinator.locked_writes.load(Ordering::Relaxed),
        )
    }
}

impl AdioDriver for ConflictDetectDriver {
    fn write_extents(
        &self,
        p: &Participant,
        client: ClientId,
        extents: &ExtentList,
        payload: Bytes,
        atomic: bool,
    ) -> Result<()> {
        if !atomic {
            // Non-atomic mode skips detection entirely.
            return self
                .locking
                .write_extents(p, client, extents, payload, false);
        }
        // Register with the coordinator (the per-op detection overhead).
        p.sleep(self.cost.rpc_round_trip());
        self.coordinator.cpu.serve(p, self.cost.meta_op);
        let my_id = self.coordinator.next_id.fetch_add(1, Ordering::Relaxed);
        let conflicting: Vec<u64> = {
            let mut active = self.coordinator.active.lock();
            let conflicts = active
                .iter()
                .filter(|w| w.id < my_id && w.extents.overlaps(extents))
                .map(|w| w.id)
                .collect();
            active.push(ActiveWrite {
                id: my_id,
                extents: extents.clone(),
            });
            conflicts
        };

        let locked = !conflicting.is_empty();
        if locked {
            // Wait for the earlier conflicting writes to retire, then
            // write under the covering lock.
            self.coordinator
                .locked_writes
                .fetch_add(1, Ordering::Relaxed);
            p.wait_until(&self.coordinator.retired, || {
                let active = self.coordinator.active.lock();
                conflicting
                    .iter()
                    .all(|id| !active.iter().any(|w| w.id == *id))
                    .then_some(())
            });
        } else {
            // No overlap with any in-flight write: proceed lock-free.
            self.coordinator
                .lock_free_writes
                .fetch_add(1, Ordering::Relaxed);
        }
        let result = self
            .locking
            .write_extents(p, client, extents, payload, locked);

        // Deregister.
        self.coordinator.active.lock().retain(|w| w.id != my_id);
        self.coordinator.retired.notify_all();
        result
    }

    fn read_extents(
        &self,
        p: &Participant,
        client: ClientId,
        extents: &ExtentList,
        atomic: bool,
    ) -> Result<Vec<u8>> {
        self.locking.read_extents(p, client, extents, atomic)
    }

    fn file_size(&self, p: &Participant) -> u64 {
        self.locking.file_size(p)
    }

    fn name(&self) -> &'static str {
        "conflict-detect"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomio_pfs::ParallelFs;
    use atomio_simgrid::clock::run_actors;
    use atomio_simgrid::Metrics;

    fn driver(cost: CostModel) -> ConflictDetectDriver {
        let fs = ParallelFs::new(4, cost, Metrics::new());
        ConflictDetectDriver::new(Arc::new(fs.create_file(64)), cost)
    }

    #[test]
    fn roundtrip() {
        let d = driver(CostModel::zero());
        run_actors(1, |_, p| {
            let ext = ExtentList::from_pairs([(0u64, 4u64), (64, 4)]);
            d.write_extents(
                p,
                ClientId::new(0),
                &ext,
                Bytes::from_static(b"aaaabbbb"),
                true,
            )
            .unwrap();
            assert_eq!(
                d.read_extents(p, ClientId::new(0), &ext, true).unwrap(),
                b"aaaabbbb"
            );
        });
        assert_eq!(d.write_counts(), (1, 0));
    }

    #[test]
    fn disjoint_writers_stay_lock_free() {
        let d = Arc::new(driver(CostModel::zero()));
        let dc = Arc::clone(&d);
        run_actors(4, move |i, p| {
            let ext = ExtentList::from_pairs([(i as u64 * 1000, 100u64)]);
            dc.write_extents(
                p,
                ClientId::new(i as u64),
                &ext,
                Bytes::from(vec![i as u8; 100]),
                true,
            )
            .unwrap();
        });
        assert_eq!(d.write_counts().1, 0, "disjoint writes must not lock");
        assert_eq!(d.write_counts().0, 4);
    }

    #[test]
    fn overlapping_writers_detect_and_serialize() {
        let cost = CostModel::grid5000();
        let d = Arc::new(driver(cost));
        let dc = Arc::clone(&d);
        let (_, _) = run_actors(3, move |i, p| {
            let ext = ExtentList::from_pairs([(0u64, 1u64 << 20)]);
            dc.write_extents(
                p,
                ClientId::new(i as u64),
                &ext,
                Bytes::from(vec![i as u8; 1 << 20]),
                true,
            )
            .unwrap();
        });
        let (lock_free, locked) = d.write_counts();
        assert_eq!(lock_free + locked, 3);
        assert!(locked >= 1, "overlap must be detected");
        // The coordinator table drains.
        assert!(d.coordinator.active.lock().is_empty());
    }

    #[test]
    fn detection_costs_time_even_without_conflicts() {
        let cost = CostModel::grid5000();
        // Same single write through the plain locking driver (non-atomic:
        // no lock, no detection) vs conflict driver (atomic: detection).
        let plain = {
            let fs = ParallelFs::new(4, cost, Metrics::new());
            let f = Arc::new(fs.create_file(64));
            run_actors(1, move |_, p| {
                for (range, _) in ExtentList::from_pairs([(0u64, 4096u64)]).with_buffer_offsets() {
                    f.pwrite(p, range.offset, &vec![0u8; range.len as usize])
                        .unwrap();
                }
            })
            .1
        };
        let detected = {
            let d = driver(cost);
            run_actors(1, move |_, p| {
                d.write_extents(
                    p,
                    ClientId::new(0),
                    &ExtentList::from_pairs([(0u64, 4096u64)]),
                    Bytes::from(vec![0u8; 4096]),
                    true,
                )
                .unwrap();
            })
            .1
        };
        assert!(
            detected > plain,
            "detection should cost overhead: {detected:?} vs {plain:?}"
        );
    }
}
