//! The virtual clock that coordinates all simulated actors.
//!
//! Invariant: virtual time advances to the earliest pending wake-up only
//! when **all** registered participants are blocked — in
//! [`Participant::sleep`] or in [`Participant::wait_until`]. A
//! participant that is executing CPU work holds time still, so no actor
//! ever observes time it has not lived through.
//!
//! There are two ways to block. Sleeping waits for virtual time to pass.
//! Waiting for a condition owned by another actor (a lock grant, a
//! barrier, a publication turn) is [`Participant::wait_until`] on an
//! [`Event`] the owner notifies whenever that state changes: the waiter
//! leaves the sleeper heap and costs nothing until a notify re-queues it
//! at the notifier's instant. Explicit FIFO queues inside the services
//! decide fairness.
//!
//! ## Deterministic execution
//!
//! Wake-ups are released **one participant at a time**, ordered by
//! `(wake time, participant id)`: when several actors are due at the same
//! virtual instant, the one with the smallest id runs first, and the next
//! is only released once it sleeps (or deregisters) again. Combined with
//! [`Participant::sync`] at actor start (see [`run_actors_on`]), exactly
//! one actor executes at any moment, so every side effect that happens at
//! one virtual instant — resource bookings via
//! [`crate::Resource::reserve_ns`], allocation-cursor bumps, table
//! inserts — lands in participant-id order regardless of how the OS
//! schedules the underlying threads. Simulations are therefore
//! bit-reproducible run-to-run; virtual timing is unchanged (sequencing
//! costs zero virtual time). A notified waiter re-enters the same order
//! as `(its clock's now, participant id)`, so waiters woken at one
//! instant resume in id order too.

use parking_lot::{Condvar, Mutex};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Duration;

/// Virtual nanoseconds since simulation start.
pub type SimTime = u64;

#[derive(Debug)]
struct ClockState {
    now: SimTime,
    /// Pending wake-ups: (wake time, participant ticket).
    sleepers: BinaryHeap<Reverse<(SimTime, u64)>>,
    /// Registered participants currently *not* blocked.
    runnable: usize,
    /// Participants enlisted on an [`Event`] and not yet notified: off
    /// the sleeper heap, waiting for a notify that may come from outside
    /// this clock.
    waiting: usize,
    /// Total registered participants.
    registered: usize,
    /// Hard ceiling on virtual time; exceeded => livelock, panic.
    horizon: SimTime,
    next_ticket: u64,
    /// The one sleeper released to run but not yet resumed. At most one
    /// wake-up is outstanding at a time: the next sleeper is released
    /// only after this one consumed its release (and went back to sleep
    /// or deregistered), which is what serializes same-instant actors in
    /// participant-id order.
    released: Option<u64>,
    /// Each registered participant's own wake slot, so a release wakes
    /// exactly the thread it released.
    wake_slots: HashMap<u64, Arc<Condvar>>,
}

/// A shared virtual clock. Cheap to clone (it is an `Arc` internally).
///
/// ```
/// use atomio_simgrid::clock::run_actors;
/// use std::time::Duration;
///
/// // Eight actors "transfer" for 10 ms each, in parallel: the whole
/// // simulation consumes 10 ms of virtual time and ~zero wall time.
/// let (ends, total) = run_actors(8, |_, p| {
///     p.sleep(Duration::from_millis(10));
///     p.now()
/// });
/// assert_eq!(total, Duration::from_millis(10));
/// assert!(ends.iter().all(|&e| e == total));
/// ```
#[derive(Clone)]
pub struct SimClock {
    inner: Arc<ClockInner>,
}

struct ClockInner {
    state: Mutex<ClockState>,
}

impl Default for SimClock {
    fn default() -> Self {
        Self::new()
    }
}

impl SimClock {
    /// Creates a clock at virtual time zero with a one-virtual-day horizon.
    pub fn new() -> Self {
        Self::with_horizon(Duration::from_secs(86_400))
    }

    /// Creates a clock with an explicit livelock horizon.
    pub fn with_horizon(horizon: Duration) -> Self {
        SimClock {
            inner: Arc::new(ClockInner {
                state: Mutex::new(ClockState {
                    now: 0,
                    sleepers: BinaryHeap::new(),
                    runnable: 0,
                    waiting: 0,
                    registered: 0,
                    horizon: horizon.as_nanos() as SimTime,
                    next_ticket: 0,
                    released: None,
                    wake_slots: HashMap::new(),
                }),
            }),
        }
    }

    /// Registers the calling thread as a simulated actor.
    ///
    /// The returned [`Participant`] must stay on this thread; dropping it
    /// deregisters the actor (allowing time to advance without it).
    pub fn register(&self) -> Participant {
        let mut st = self.inner.state.lock();
        st.runnable += 1;
        st.registered += 1;
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        let wake = Arc::new(Condvar::new());
        st.wake_slots.insert(ticket, Arc::clone(&wake));
        Participant {
            clock: Arc::clone(&self.inner),
            _ticket: ticket,
            wake,
            _not_sync: PhantomData,
        }
    }

    /// Current virtual time (for observers that never sleep, e.g. the
    /// experiment harness reading the final clock).
    pub fn now(&self) -> Duration {
        Duration::from_nanos(self.inner.state.lock().now)
    }
}

impl std::fmt::Debug for SimClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.state.lock();
        f.debug_struct("SimClock")
            .field("now_ns", &st.now)
            .field("registered", &st.registered)
            .field("runnable", &st.runnable)
            .field("waiting", &st.waiting)
            .field("sleepers", &st.sleepers.len())
            .finish()
    }
}

/// One registered simulated actor. Owned by exactly one thread.
pub struct Participant {
    clock: Arc<ClockInner>,
    _ticket: u64,
    /// This participant's wake slot (also in `ClockState::wake_slots`).
    wake: Arc<Condvar>,
    /// Participants must not be shared across threads: sleeping from two
    /// threads through one registration would corrupt the runnable count.
    _not_sync: PhantomData<std::cell::Cell<()>>,
}

impl Participant {
    /// Stable identifier of this registration: tickets are handed out
    /// monotonically by the clock and never reused, so the id is unique
    /// for the clock's lifetime. Services key per-client state (e.g. a
    /// client-side NIC) on it.
    pub fn id(&self) -> u64 {
        self._ticket
    }

    /// Current virtual time.
    pub fn now(&self) -> Duration {
        Duration::from_nanos(self.clock.state.lock().now)
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> SimTime {
        self.clock.state.lock().now
    }

    /// Blocks this actor for `d` of virtual time.
    pub fn sleep(&self, d: Duration) {
        self.sleep_ns(d.as_nanos() as u64);
    }

    /// Blocks this actor for `ns` virtual nanoseconds.
    pub fn sleep_ns(&self, ns: u64) {
        if ns == 0 {
            return;
        }
        let st = self.clock.state.lock();
        let wake = st.now + ns;
        self.sleep_until_locked(st, wake);
    }

    /// Blocks this actor until absolute virtual time `wake` (no-op if the
    /// clock is already there). Used by queueing resources that compute an
    /// absolute completion time.
    pub fn sleep_until_ns(&self, wake: SimTime) {
        let st = self.clock.state.lock();
        if wake <= st.now {
            return;
        }
        self.sleep_until_locked(st, wake);
    }

    /// Parks this actor at the *current* instant and resumes it in
    /// participant-id order relative to every other actor due now.
    ///
    /// Costs zero virtual time. [`run_actors_on`] calls this before each
    /// actor body so the segment an actor executes before its first sleep
    /// is sequenced like every later segment; services never need it.
    pub fn sync(&self) {
        let st = self.clock.state.lock();
        let wake = st.now;
        self.sleep_until_locked(st, wake);
    }

    fn sleep_until_locked(&self, mut st: parking_lot::MutexGuard<'_, ClockState>, wake: SimTime) {
        assert!(
            wake <= st.horizon,
            "virtual time horizon exceeded (wake at {wake} ns): livelock or runaway simulation"
        );
        st.sleepers.push(Reverse((wake, self._ticket)));
        self.park(st);
        debug_assert!(self.now_ns() >= wake);
    }

    /// Blocks until the clock releases this participant. Waking requires
    /// an explicit release (not merely `now` reaching a wake time):
    /// releases are handed out one at a time in (wake time, participant
    /// id) order, which keeps same-instant actors deterministic.
    fn park(&self, mut st: parking_lot::MutexGuard<'_, ClockState>) {
        st.runnable -= 1;
        Self::try_advance(&mut st);
        while st.released != Some(self._ticket) {
            self.wake.wait(&mut st);
        }
        st.released = None;
    }

    /// Blocks until `cond` returns `Some` and yields the value; `cond` is
    /// re-evaluated each time `event` is notified. The one way to wait
    /// for a condition owned by another actor (a lock grant, a barrier, a
    /// publication turn): whoever changes that state calls
    /// [`Event::notify_all`].
    ///
    /// An already-true condition returns at once, at zero virtual time.
    /// Otherwise the waiter leaves the runnable count without a wake-up
    /// of its own, and a notify re-queues it at its clock's current
    /// instant — it resumes at exactly the notifier's time, in
    /// participant-id order with everyone else due then.
    pub fn wait_until<T>(&self, event: &Event, mut cond: impl FnMut() -> Option<T>) -> T {
        loop {
            if let Some(v) = cond() {
                return v;
            }
            // Enlisted before the re-check, so a notify that lands after
            // the check cannot be lost — the notifier need not be a
            // participant of this clock.
            event.enlist(self);
            let ready = cond();
            if ready.is_none() || !event.withdraw(self) {
                // Not ready, or ready but a notify already re-queued us:
                // consume that release (zero virtual time) either way.
                self.park(self.clock.state.lock());
            }
            if let Some(v) = ready {
                return v;
            }
        }
    }

    /// Releases the earliest sleeper if every registered participant is
    /// blocked and no release is already outstanding. Exactly one sleeper
    /// is released per call — ties at one instant resolve by participant
    /// id because the heap orders on `(wake, ticket)` — and exactly one
    /// thread is woken, through the released participant's own slot.
    fn try_advance(st: &mut ClockState) {
        if st.runnable > 0 || st.released.is_some() {
            return;
        }
        let Some(&Reverse((wake, ticket))) = st.sleepers.peek() else {
            if st.registered > 0 && st.waiting == 0 {
                // Every live participant is deregistered-or-sleeping,
                // nobody posted a wake-up and nobody waits for a notify
                // (which could come from outside): nothing can ever run
                // again. With event waiters the clock idles instead.
                panic!(
                    "virtual-time deadlock: {} participants registered, none runnable, no pending wake-ups",
                    st.registered
                );
            }
            return;
        };
        debug_assert!(wake >= st.now);
        st.sleepers.pop();
        st.now = wake;
        st.runnable += 1;
        st.released = Some(ticket);
        st.wake_slots[&ticket].notify_one();
    }
}

impl Drop for Participant {
    fn drop(&mut self) {
        let mut st = self.clock.state.lock();
        st.runnable -= 1;
        st.registered -= 1;
        st.wake_slots.remove(&self._ticket);
        // Our departure may unblock time for the remaining sleepers.
        Participant::try_advance(&mut st);
    }
}

impl std::fmt::Debug for Participant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Participant")
            .field("ticket", &self._ticket)
            .finish()
    }
}

/// Something actors wait on with [`Participant::wait_until`]: the owner
/// of some state calls [`Event::notify_all`] after changing it.
///
/// An event belongs to no clock. Its waiters may come from several
/// clocks, and the notifier may be a participant of any of them or of
/// none (a plain thread).
#[derive(Default)]
pub struct Event {
    waiters: Mutex<Vec<Waiter>>,
}

struct Waiter {
    clock: Arc<ClockInner>,
    ticket: u64,
}

impl Event {
    /// Creates an event nobody waits on.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wakes every current waiter: each is re-queued at its own clock's
    /// current instant and re-checks its condition when released. With
    /// no waiters this is one uncontended lock and no allocation.
    pub fn notify_all(&self) {
        let mut waiters = self.waiters.lock();
        if waiters.is_empty() {
            return;
        }
        // Queue them all before releasing any, so waiters of one clock
        // resume in participant-id order even when the clock is idle.
        for w in waiters.iter() {
            let mut st = w.clock.state.lock();
            st.waiting -= 1;
            let now = st.now;
            st.sleepers.push(Reverse((now, w.ticket)));
        }
        for w in waiters.drain(..) {
            Participant::try_advance(&mut w.clock.state.lock());
        }
    }

    fn enlist(&self, p: &Participant) {
        let mut waiters = self.waiters.lock();
        p.clock.state.lock().waiting += 1;
        waiters.push(Waiter {
            clock: Arc::clone(&p.clock),
            ticket: p._ticket,
        });
    }

    /// Takes `p` off the list; false when a notify already re-queued it.
    fn withdraw(&self, p: &Participant) -> bool {
        let mut waiters = self.waiters.lock();
        let Some(i) = waiters
            .iter()
            .position(|w| w.ticket == p._ticket && Arc::ptr_eq(&w.clock, &p.clock))
        else {
            return false;
        };
        waiters.swap_remove(i);
        p.clock.state.lock().waiting -= 1;
        true
    }
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Event")
            .field("waiters", &self.waiters.lock().len())
            .finish()
    }
}

/// Runs `n` simulated actors to completion on a fresh clock and returns
/// their results plus the total virtual time consumed.
///
/// Convenience for tests and benchmarks: spawns one OS thread per actor,
/// registers each with the clock, and joins them all.
pub fn run_actors<T: Send>(
    n: usize,
    f: impl Fn(usize, &Participant) -> T + Sync,
) -> (Vec<T>, Duration) {
    let clock = SimClock::new();
    let results = run_actors_on(&clock, n, f);
    (results, clock.now())
}

/// Like [`run_actors`] but on an existing clock (so long-lived services
/// registered elsewhere keep their participants).
pub fn run_actors_on<T: Send>(
    clock: &SimClock,
    n: usize,
    f: impl Fn(usize, &Participant) -> T + Sync,
) -> Vec<T> {
    // Register before spawning so time cannot advance past a slow spawn.
    // Registration order = actor index order, so tickets (participant
    // ids) follow actor indices.
    let participants: Vec<Participant> = (0..n).map(|_| clock.register()).collect();
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (i, (p, slot)) in participants.into_iter().zip(slots.iter_mut()).enumerate() {
            let f = &f;
            scope.spawn(move || {
                // Sequence actor starts: the segment before the first
                // sleep executes in id order like every later segment,
                // making the whole run deterministic.
                p.sync();
                *slot = Some(f(i, &p));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("actor panicked"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn single_actor_accumulates_time() {
        let (times, total) = run_actors(1, |_, p| {
            p.sleep(Duration::from_millis(5));
            p.sleep(Duration::from_millis(7));
            p.now()
        });
        assert_eq!(times[0], Duration::from_millis(12));
        assert_eq!(total, Duration::from_millis(12));
    }

    #[test]
    fn parallel_sleeps_overlap() {
        // 8 actors each sleeping 10ms in parallel: total virtual time 10ms,
        // not 80ms.
        let (_, total) = run_actors(8, |_, p| {
            p.sleep(Duration::from_millis(10));
        });
        assert_eq!(total, Duration::from_millis(10));
    }

    #[test]
    fn staggered_sleeps_interleave_correctly() {
        let (ends, total) = run_actors(3, |i, p| {
            p.sleep(Duration::from_millis((i as u64 + 1) * 10));
            p.now()
        });
        assert_eq!(ends[0], Duration::from_millis(10));
        assert_eq!(ends[1], Duration::from_millis(20));
        assert_eq!(ends[2], Duration::from_millis(30));
        assert_eq!(total, Duration::from_millis(30));
    }

    #[test]
    fn zero_sleep_is_noop() {
        let (_, total) = run_actors(2, |_, p| {
            p.sleep(Duration::ZERO);
        });
        assert_eq!(total, Duration::ZERO);
    }

    #[test]
    fn sleep_until_past_is_noop() {
        let (_, total) = run_actors(1, |_, p| {
            p.sleep(Duration::from_millis(5));
            p.sleep_until_ns(1); // already past
            p.sleep_until_ns(8_000_000);
        });
        assert_eq!(total, Duration::from_millis(8));
    }

    #[test]
    fn waiter_resumes_at_the_notifiers_instant() {
        let flag = AtomicU64::new(0);
        let event = Event::new();
        let (results, total) = run_actors(2, |i, p| {
            if i == 0 {
                p.sleep(Duration::from_millis(3));
                flag.store(42, Ordering::SeqCst);
                event.notify_all();
                (0, p.now())
            } else {
                let v = p.wait_until(&event, || {
                    let v = flag.load(Ordering::SeqCst);
                    (v != 0).then_some(v)
                });
                (v, p.now())
            }
        });
        assert_eq!(results[1], (42, Duration::from_millis(3)));
        assert_eq!(total, Duration::from_millis(3));
    }

    #[test]
    fn waiters_notified_at_one_instant_resume_in_id_order() {
        let run = || {
            let go = AtomicU64::new(0);
            let event = Event::new();
            let order = parking_lot::Mutex::new(Vec::new());
            run_actors(9, |i, p| {
                if i == 8 {
                    p.sleep(Duration::from_millis(1));
                    go.store(1, Ordering::SeqCst);
                    event.notify_all();
                } else {
                    // Enlist in reverse id order.
                    p.sleep_ns(100 * (8 - i as u64));
                    p.wait_until(&event, || (go.load(Ordering::SeqCst) == 1).then_some(()));
                    order.lock().push((i, p.now()));
                }
            });
            order.into_inner()
        };
        let got = run();
        let expect: Vec<_> = (0..8).map(|i| (i, Duration::from_millis(1))).collect();
        assert_eq!(got, expect);
        assert_eq!(got, run(), "and identically on every run");
    }

    /// A lone waiter on its own clock counts to `steps`, each step
    /// published by `notifier(step)` from another thread once the waiter
    /// acknowledged the previous one — so every notify races the waiter's
    /// enlist-and-recheck. A lost wake-up hangs the test.
    fn count_across_threads(steps: u64, notifier: impl Fn(&dyn Fn(u64)) + Send + Sync) {
        let counter = AtomicU64::new(0);
        let acked = AtomicU64::new(0);
        let event = Event::new();
        let publish = |k: u64| {
            while acked.load(Ordering::SeqCst) < k - 1 {
                std::thread::yield_now();
            }
            counter.store(k, Ordering::SeqCst);
            event.notify_all();
        };
        std::thread::scope(|s| {
            s.spawn(|| notifier(&publish));
            let clock = SimClock::new();
            let p = clock.register();
            for k in 1..=steps {
                p.wait_until(&event, || {
                    (counter.load(Ordering::SeqCst) >= k).then_some(())
                });
                acked.store(k, Ordering::SeqCst);
            }
            assert_eq!(p.now(), Duration::ZERO, "waiting costs no virtual time");
        });
    }

    #[test]
    fn notify_from_a_plain_thread_is_never_lost() {
        count_across_threads(2_000, |publish| (1..=2_000).for_each(publish));
    }

    #[test]
    fn notify_from_another_clocks_participant_is_never_lost() {
        count_across_threads(2_000, |publish| {
            let other = SimClock::new();
            let p = other.register();
            for k in 1..=2_000 {
                p.sleep_ns(1_000);
                publish(k);
            }
        });
    }

    #[test]
    fn wait_until_on_a_true_condition_does_not_block() {
        let clock = SimClock::new();
        let p = clock.register();
        let event = Event::new();
        // Blocking here would hang: p is the clock's only participant
        // and nobody notifies.
        assert_eq!(p.wait_until(&event, || Some(7)), 7);
        assert_eq!(clock.now(), Duration::ZERO);
        assert_eq!(format!("{event:?}"), "Event { waiters: 0 }");
    }

    #[test]
    fn early_exit_of_one_actor_unblocks_others() {
        // Actor 1 exits immediately; actor 0's sleeps must still advance.
        let (_, total) = run_actors(2, |i, p| {
            if i == 0 {
                p.sleep(Duration::from_millis(5));
            }
        });
        assert_eq!(total, Duration::from_millis(5));
    }

    #[test]
    fn drop_of_registered_participant_releases_time() {
        // A registered-but-idle participant holds time still; once it
        // drops, pending sleepers advance. (The deadlock panic inside
        // `try_advance` is purely defensive: it is unreachable through
        // the safe API, which only blocks through the clock itself.)
        let clock = SimClock::new();
        let idle = clock.register();
        let clock2 = clock.clone();
        let h = std::thread::spawn(move || {
            let p = clock2.register();
            p.sleep(Duration::from_millis(2));
            p.now()
        });
        // Give the sleeper a moment to block, then release time.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(clock.now(), Duration::ZERO, "idle participant pins time");
        drop(idle);
        assert_eq!(h.join().unwrap(), Duration::from_millis(2));
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn horizon_catches_runaway() {
        let clock = SimClock::with_horizon(Duration::from_millis(1));
        let p = clock.register();
        p.sleep(Duration::from_secs(1));
    }

    #[test]
    fn many_actors_stress() {
        let counter = AtomicU64::new(0);
        let (_, total) = run_actors(32, |_, p| {
            for _ in 0..50 {
                p.sleep_ns(1_000);
                counter.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 32 * 50);
        // All actors sleep in lockstep: 50 µs total.
        assert_eq!(total, Duration::from_micros(50));
    }

    #[test]
    fn sync_costs_no_virtual_time() {
        let (_, total) = run_actors(3, |_, p| {
            p.sync();
            p.sync();
        });
        assert_eq!(total, Duration::ZERO);
    }

    #[test]
    fn same_instant_wakeups_release_in_id_order() {
        // 8 actors all due at the same instant resume smallest-id first,
        // regardless of OS scheduling.
        let order = parking_lot::Mutex::new(Vec::new());
        let (_, _) = run_actors(8, |i, p| {
            p.sleep(Duration::from_millis(1));
            order.lock().push(i);
        });
        assert_eq!(*order.lock(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn same_instant_bookings_serialize_by_participant_id() {
        // The ROADMAP nondeterminism item: concurrent clients booking one
        // device at the same virtual instant. The sequenced clock hands
        // the device to participants in id order, every run.
        let run = || {
            let disk = crate::resource::Resource::new("disk");
            let order = parking_lot::Mutex::new(Vec::new());
            run_actors(4, |i, p| {
                p.sleep(Duration::from_millis(1));
                let done = disk.reserve_ns(p.now_ns(), 1_000_000);
                order.lock().push((i, done));
            });
            order.into_inner()
        };
        let got = run();
        let expect: Vec<(usize, SimTime)> =
            (0..4).map(|i| (i, (i as u64 + 2) * 1_000_000)).collect();
        assert_eq!(got, expect, "bookings must land in participant-id order");
        assert_eq!(got, run(), "and identically on every run");
    }

    #[test]
    fn run_actors_on_shared_clock() {
        let clock = SimClock::new();
        let r1 = run_actors_on(&clock, 2, |_, p| {
            p.sleep(Duration::from_millis(1));
            p.now()
        });
        let r2 = run_actors_on(&clock, 1, |_, p| {
            p.sleep(Duration::from_millis(1));
            p.now()
        });
        assert_eq!(r1[0], Duration::from_millis(1));
        // Second batch starts where the first left off.
        assert_eq!(r2[0], Duration::from_millis(2));
    }
}
