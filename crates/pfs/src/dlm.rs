//! The distributed lock manager: fair extent locks.
//!
//! Models the byte-range locking service of Lustre/GPFS: shared and
//! exclusive locks over byte ranges of one file, granted concurrently
//! when compatible, queued fairly (FIFO, no overtaking of a conflicting
//! earlier request — so writers cannot be starved by a stream of
//! readers).
//!
//! A queued requester waits in virtual time on an event the service
//! notifies when a release grants queued requests; order is decided by
//! the explicit queue, so fairness does not depend on wake-up order.

use atomio_simgrid::{CostModel, Event, Metrics, Participant, Resource};
use atomio_types::{ByteRange, ClientId};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Lock compatibility mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// Concurrent readers allowed.
    Shared,
    /// Writers exclude everything.
    Exclusive,
}

impl LockKind {
    fn conflicts_with(self, other: LockKind) -> bool {
        matches!(
            (self, other),
            (LockKind::Exclusive, _) | (_, LockKind::Exclusive)
        )
    }
}

#[derive(Debug, Clone)]
struct LockReq {
    id: u64,
    owner: ClientId,
    range: ByteRange,
    kind: LockKind,
}

fn conflicts(a: &LockReq, b: &LockReq) -> bool {
    a.kind.conflicts_with(b.kind) && a.range.overlaps(b.range)
}

/// Each granted lock is held once, in `granted`, and a conflict probe
/// scans it: every driver holds one covering lock per rank, so no
/// experiment has more than 64 locks granted at once.
#[derive(Debug, Default)]
struct LockTable {
    granted: Vec<LockReq>,
    queue: VecDeque<LockReq>,
}

impl LockTable {
    /// Grants every queued request that conflicts with no granted lock
    /// and no earlier-queued request (fair, no overtaking on conflict).
    /// Returns whether anything was granted.
    fn promote(&mut self) -> bool {
        let mut blocked: Vec<LockReq> = Vec::new();
        let mut still_waiting = VecDeque::new();
        let mut granted_any = false;
        for req in std::mem::take(&mut self.queue) {
            let conflict_granted = self.granted.iter().any(|g| conflicts(g, &req));
            let conflict_earlier = blocked.iter().any(|w| conflicts(w, &req));
            if conflict_granted || conflict_earlier {
                blocked.push(req.clone());
                still_waiting.push_back(req);
            } else {
                granted_any = true;
                self.granted.push(req);
            }
        }
        self.queue = still_waiting;
        granted_any
    }

    fn is_granted(&self, id: u64) -> bool {
        self.granted.iter().any(|g| g.id == id)
    }
}

/// A fair extent-lock service for one file.
///
/// ```
/// use atomio_pfs::{LockKind, LockManager};
/// use atomio_simgrid::{CostModel, Metrics, SimClock};
/// use atomio_types::{ByteRange, ClientId};
///
/// let mgr = LockManager::new(CostModel::zero(), Metrics::new());
/// let clock = SimClock::new();
/// let p = clock.register();
/// // Two disjoint exclusive locks coexist; release drains the table.
/// let a = mgr.lock(&p, ClientId::new(0), ByteRange::new(0, 100), LockKind::Exclusive);
/// let b = mgr.lock(&p, ClientId::new(1), ByteRange::new(100, 100), LockKind::Exclusive);
/// assert_eq!(mgr.granted_count(), 2);
/// mgr.unlock(&p, a);
/// mgr.unlock(&p, b);
/// assert_eq!(mgr.granted_count(), 0);
/// ```
#[derive(Debug)]
pub struct LockManager {
    cost: CostModel,
    cpu: Resource,
    table: Mutex<LockTable>,
    next_id: AtomicU64,
    metrics: Metrics,
    /// Notified when an unlock grants queued requests.
    grants: Event,
}

/// A granted lock; release it with [`LockManager::unlock`].
///
/// Deliberately not RAII: the simulated client must pay the unlock RPC
/// explicitly, and leaked locks are a bug we want tests to catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "locks must be released with LockManager::unlock"]
pub struct LockHandle {
    id: u64,
    /// The locked range (exposed for assertions and accounting).
    pub range: ByteRange,
    /// The lock mode.
    pub kind: LockKind,
}

impl LockManager {
    /// Creates a lock service.
    pub fn new(cost: CostModel, metrics: Metrics) -> Self {
        LockManager {
            cost,
            cpu: Resource::new("dlm/cpu"),
            table: Mutex::new(LockTable::default()),
            next_id: AtomicU64::new(1),
            metrics,
            grants: Event::new(),
        }
    }

    /// Acquires an extent lock, blocking (in virtual time) until granted.
    pub fn lock(
        &self,
        p: &Participant,
        owner: ClientId,
        range: ByteRange,
        kind: LockKind,
    ) -> LockHandle {
        assert!(!range.is_empty(), "cannot lock an empty range");
        let started = p.now();
        p.sleep(self.cost.rpc_round_trip());
        self.cpu.serve(p, self.cost.meta_op);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        {
            let mut table = self.table.lock();
            table.queue.push_back(LockReq {
                id,
                owner,
                range,
                kind,
            });
            // A request joining the tail can grant only itself, which
            // the wait below sees without a notify.
            table.promote();
        }
        p.wait_until(&self.grants, || {
            self.table.lock().is_granted(id).then_some(())
        });
        self.metrics.counter("dlm.locks_granted").inc();
        self.metrics
            .time_stat("dlm.lock_wait")
            .record(p.now() - started);
        LockHandle { id, range, kind }
    }

    /// Releases a granted lock.
    ///
    /// # Panics
    /// Panics if the handle is not currently granted (double unlock).
    pub fn unlock(&self, p: &Participant, handle: LockHandle) {
        p.sleep(self.cost.rpc_round_trip());
        self.cpu.serve(p, self.cost.meta_op);
        let mut table = self.table.lock();
        let before = table.granted.len();
        table.granted.retain(|g| g.id != handle.id);
        assert!(
            table.granted.len() + 1 == before,
            "unlock of a lock that is not granted"
        );
        if table.promote() {
            drop(table);
            self.grants.notify_all();
        }
    }

    /// Number of currently granted locks.
    pub fn granted_count(&self) -> usize {
        self.table.lock().granted.len()
    }

    /// Number of currently queued (waiting) requests.
    pub fn waiting_count(&self) -> usize {
        self.table.lock().queue.len()
    }

    /// Owners of the currently granted locks (diagnostics).
    pub fn holders(&self) -> Vec<ClientId> {
        self.table.lock().granted.iter().map(|g| g.owner).collect()
    }
}

/// Shared handle type used by files.
pub type SharedLockManager = Arc<LockManager>;

#[cfg(test)]
mod tests {
    use super::*;
    use atomio_simgrid::clock::run_actors;
    use std::sync::atomic::AtomicU64 as Counter;
    use std::time::Duration;

    fn mgr() -> Arc<LockManager> {
        Arc::new(LockManager::new(CostModel::zero(), Metrics::new()))
    }

    #[test]
    fn exclusive_locks_on_overlap_serialize() {
        let m = mgr();
        let active = Counter::new(0);
        let peak = Counter::new(0);
        run_actors(4, |i, p| {
            let h = m.lock(
                p,
                ClientId::new(i as u64),
                ByteRange::new(0, 100),
                LockKind::Exclusive,
            );
            let now = active.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            p.sleep(Duration::from_millis(1));
            active.fetch_sub(1, Ordering::SeqCst);
            m.unlock(p, h);
        });
        assert_eq!(
            peak.load(Ordering::SeqCst),
            1,
            "exclusive overlap ran concurrently"
        );
        assert_eq!(m.granted_count(), 0);
        assert_eq!(m.waiting_count(), 0);
    }

    #[test]
    fn disjoint_exclusive_locks_run_concurrently() {
        let m = mgr();
        let (_, total) = run_actors(4, |i, p| {
            let h = m.lock(
                p,
                ClientId::new(i as u64),
                ByteRange::new(i as u64 * 100, 100),
                LockKind::Exclusive,
            );
            p.sleep(Duration::from_millis(5));
            m.unlock(p, h);
        });
        assert!(
            total < Duration::from_millis(10),
            "disjoint locks serialized: {total:?}"
        );
    }

    #[test]
    fn shared_locks_coexist_and_block_writers() {
        let m = mgr();
        let (_, total) = run_actors(3, |i, p| {
            if i < 2 {
                // Two readers hold overlapping shared locks together.
                let h = m.lock(
                    p,
                    ClientId::new(i as u64),
                    ByteRange::new(0, 100),
                    LockKind::Shared,
                );
                p.sleep(Duration::from_millis(5));
                m.unlock(p, h);
            } else {
                // The writer (queued after both) must wait for both.
                p.sleep(Duration::from_millis(1));
                let h = m.lock(
                    p,
                    ClientId::new(9),
                    ByteRange::new(50, 10),
                    LockKind::Exclusive,
                );
                m.unlock(p, h);
            }
        });
        // Readers overlap (5ms), writer finishes after them.
        assert!(total >= Duration::from_millis(5));
        assert!(total < Duration::from_millis(8), "{total:?}");
    }

    #[test]
    fn fifo_prevents_reader_overtaking_writer() {
        // reader A holds [0,100); writer W queues for it; reader B arrives
        // later and overlaps W's range: B must NOT overtake W.
        let m = mgr();
        let order = Mutex::new(Vec::new());
        run_actors(3, |i, p| match i {
            0 => {
                let h = m.lock(
                    p,
                    ClientId::new(0),
                    ByteRange::new(0, 100),
                    LockKind::Shared,
                );
                p.sleep(Duration::from_millis(4));
                m.unlock(p, h);
                order.lock().push('A');
            }
            1 => {
                p.sleep(Duration::from_millis(1));
                let h = m.lock(
                    p,
                    ClientId::new(1),
                    ByteRange::new(0, 100),
                    LockKind::Exclusive,
                );
                order.lock().push('W');
                m.unlock(p, h);
            }
            _ => {
                p.sleep(Duration::from_millis(2));
                let h = m.lock(
                    p,
                    ClientId::new(2),
                    ByteRange::new(0, 100),
                    LockKind::Shared,
                );
                order.lock().push('B');
                m.unlock(p, h);
            }
        });
        let got: String = order.lock().iter().collect();
        assert_eq!(got, "AWB", "reader B overtook the queued writer");
    }

    #[test]
    fn covering_lock_blocks_untouched_gap() {
        // The pathology the paper describes: a covering lock on [0,300)
        // for a request that only touches [0,100) and [200,300) still
        // blocks an independent writer of the gap [100,200).
        let m = mgr();
        let (_, total) = run_actors(2, |i, p| {
            if i == 0 {
                let h = m.lock(
                    p,
                    ClientId::new(0),
                    ByteRange::new(0, 300),
                    LockKind::Exclusive,
                );
                p.sleep(Duration::from_millis(5));
                m.unlock(p, h);
            } else {
                p.sleep(Duration::from_millis(1));
                let h = m.lock(
                    p,
                    ClientId::new(1),
                    ByteRange::new(100, 100),
                    LockKind::Exclusive,
                );
                p.sleep(Duration::from_millis(5));
                m.unlock(p, h);
            }
        });
        assert!(
            total >= Duration::from_millis(10),
            "gap writer was not blocked: {total:?}"
        );
    }

    #[test]
    #[should_panic(expected = "not granted")]
    fn double_unlock_panics() {
        // Direct single-thread use (zero cost model never sleeps, so a
        // registered participant on the test thread is safe).
        let m = mgr();
        let clock = atomio_simgrid::SimClock::new();
        let p = clock.register();
        let h = m.lock(
            &p,
            ClientId::new(0),
            ByteRange::new(0, 10),
            LockKind::Exclusive,
        );
        assert_eq!(m.holders(), vec![ClientId::new(0)]);
        m.unlock(&p, h);
        m.unlock(&p, h);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_range_rejected() {
        let m = mgr();
        let clock = atomio_simgrid::SimClock::new();
        let p = clock.register();
        let _ = m.lock(&p, ClientId::new(0), ByteRange::empty(), LockKind::Shared);
    }

    #[test]
    fn lock_wait_metric_accumulates() {
        let metrics = Metrics::new();
        let m = Arc::new(LockManager::new(CostModel::zero(), metrics.clone()));
        run_actors(2, |i, p| {
            let h = m.lock(
                p,
                ClientId::new(i as u64),
                ByteRange::new(0, 10),
                LockKind::Exclusive,
            );
            p.sleep(Duration::from_millis(2));
            m.unlock(p, h);
        });
        assert_eq!(metrics.counter("dlm.locks_granted").get(), 2);
        // The second locker waited ~2ms.
        let wait = metrics.time_stat("dlm.lock_wait");
        assert!(wait.max() >= Duration::from_millis(2));
    }
}
