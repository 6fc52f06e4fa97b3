//! Host-side write-ahead log: absorb checkpoint bursts at memory speed,
//! drain asynchronously in grant order.
//!
//! In [`crate::config::CommitMode::Logged`] a [`crate::Blob::write_list`]
//! appends its extents + payload to this client-side log and returns as
//! soon as the bytes are in host memory — the caller's barrier no longer
//! stalls on version-grant round trips or data transfer. A background
//! drainer ([`crate::Blob::wal_drain`]) pops entries **strictly in
//! append order**, acquires the version ticket for each, and replays it
//! through the unmodified commit pipeline. Because tickets are granted
//! in the drainer's call order (see `atomio_version`), the version
//! oracle observes exactly the sequential order the application saw:
//! the serialization witness of the drained state is the append order
//! itself, and atomic-publish semantics are untouched.
//!
//! The log is **bounded**: once `bytes_pending` exceeds the configured
//! capacity, appends backpressure — [`WriteAheadLog::try_append`]
//! returns a typed [`Error::Busy`] and the blocking path in
//! `write_list` waits (virtual time) until the drainer falls below the
//! low-water mark (half the capacity). The hysteresis keeps a stalled
//! burst from thrashing admission one entry at a time.

use atomio_simgrid::{Event, Metrics};
use atomio_types::{Error, ExtentList, Result};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::VecDeque;

/// One logged write: the flattened footprint plus its packed payload.
#[derive(Debug, Clone)]
pub struct WalEntry {
    /// 1-based append sequence number; the oracle will grant this entry
    /// version `base + seq`.
    pub seq: u64,
    /// The write's extent list (file-order footprint).
    pub extents: ExtentList,
    /// Payload bytes packed in file order.
    pub payload: Bytes,
    /// Virtual (or caller-supplied monotonic) time of the append, for
    /// the `wal.drain_lag` statistic.
    pub appended_at_ns: u64,
}

#[derive(Debug)]
struct WalState {
    queue: VecDeque<WalEntry>,
    /// Sequence number of the next append (1-based).
    next_seq: u64,
    /// Count of entries popped by the drainer (drained or failed).
    consumed: u64,
    bytes_pending: u64,
    /// Oracle history length at the first append: entry `seq` drains as
    /// version `base + seq`.
    base: Option<u64>,
    /// Set on a rejected append; admission stays closed until the
    /// backlog falls to the low-water mark.
    stalled: bool,
    closed: bool,
    paused: bool,
    /// First replay failure (sticky): the acked write whose payload was
    /// tombstoned instead of published. Surfaced by `Blob::wal_sync`.
    first_drain_error: Option<Error>,
}

/// A bounded, append-only, in-memory write-ahead log (one per blob).
///
/// The core is participant-free so wall-clock harnesses can drive it
/// from plain threads; virtual-time integration (append cost, blocking
/// backpressure, the drain actor) lives in [`crate::Blob`].
#[derive(Debug)]
pub struct WriteAheadLog {
    capacity: u64,
    low_water: u64,
    state: Mutex<WalState>,
    metrics: Metrics,
    /// Notified when an entry leaves the queue or the log closes: what
    /// blocked appenders and durability barriers wait on.
    changed: Event,
}

impl WriteAheadLog {
    /// Creates an empty log bounded at `capacity` bytes of pending
    /// payload, with a low-water mark at half the capacity.
    pub fn new(capacity: u64, metrics: Metrics) -> Self {
        WriteAheadLog {
            capacity,
            low_water: capacity / 2,
            state: Mutex::new(WalState {
                queue: VecDeque::new(),
                next_seq: 1,
                consumed: 0,
                bytes_pending: 0,
                base: None,
                stalled: false,
                closed: false,
                paused: false,
                first_drain_error: None,
            }),
            metrics,
            changed: Event::new(),
        }
    }

    /// Appends one write, or returns a typed [`Error::Busy`] when the
    /// log is over capacity (or still stalled above the low-water mark
    /// after an earlier rejection). An append to an **empty** log always
    /// succeeds, so an entry larger than the whole capacity still makes
    /// progress. `base_hint` is captured as the version base on the
    /// first append (the oracle history length at that moment).
    ///
    /// Returns the entry's 1-based sequence number; the drainer will
    /// commit it as version `base + seq`.
    pub fn try_append(
        &self,
        extents: ExtentList,
        payload: Bytes,
        now_ns: u64,
        base_hint: impl FnOnce() -> u64,
    ) -> Result<u64> {
        let len = payload.len() as u64;
        let mut st = self.state.lock();
        if st.closed {
            return Err(Error::Internal("append to a closed WAL".into()));
        }
        let below_low_water = st.bytes_pending <= self.low_water;
        if st.stalled && below_low_water {
            st.stalled = false;
        }
        let admit = st.queue.is_empty() || (!st.stalled && st.bytes_pending + len <= self.capacity);
        if !admit {
            st.stalled = true;
            self.metrics.counter("wal.busy_rejections").inc();
            return Err(Error::Busy {
                resource: "wal".into(),
                pending_bytes: st.bytes_pending,
                capacity: self.capacity,
            });
        }
        if st.base.is_none() {
            st.base = Some(base_hint());
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.bytes_pending += len;
        st.queue.push_back(WalEntry {
            seq,
            extents,
            payload,
            appended_at_ns: now_ns,
        });
        self.metrics.counter("wal.appends").inc();
        self.metrics
            .counter("wal.depth_peak")
            .record_peak(st.queue.len() as u64);
        self.metrics
            .value_stat("wal.bytes_pending")
            .record(st.bytes_pending);
        Ok(seq)
    }

    /// The oldest pending entry, if any (cloned; `Bytes` payloads are
    /// reference-counted so this is cheap). Returns `None` while paused.
    pub fn peek_front(&self) -> Option<WalEntry> {
        let st = self.state.lock();
        if st.paused {
            return None;
        }
        st.queue.front().cloned()
    }

    /// Pops the front entry after a successful replay. `seq` must be the
    /// front entry's sequence number (drain order is append order).
    pub fn complete_front(&self, seq: u64, now_ns: u64) {
        let mut st = self.state.lock();
        let entry = st.queue.pop_front().expect("complete on an empty WAL");
        assert_eq!(entry.seq, seq, "WAL drained out of order");
        st.bytes_pending -= entry.payload.len() as u64;
        st.consumed += 1;
        self.metrics.counter("wal.drained").inc();
        self.metrics
            .time_stat("wal.drain_lag")
            .record(std::time::Duration::from_nanos(
                now_ns.saturating_sub(entry.appended_at_ns),
            ));
        drop(st);
        self.changed.notify_all();
    }

    /// Pops the front entry after a replay failure that still consumed
    /// its version (the commit pipeline tombstoned it). The error is
    /// recorded sticky and surfaced by [`crate::Blob::wal_sync`].
    pub fn fail_front(&self, seq: u64, error: Error, now_ns: u64) {
        {
            let mut st = self.state.lock();
            self.metrics.counter("wal.drain_errors").inc();
            if st.first_drain_error.is_none() {
                st.first_drain_error = Some(error);
            }
        }
        // Recorded before the pop wakes a durability barrier.
        self.complete_front(seq, now_ns);
    }

    /// Version the drainer must be granted for entry `seq` — the log
    /// replays grants in append order, so this is `base + seq`.
    pub fn expected_version(&self, seq: u64) -> u64 {
        self.state.lock().base.unwrap_or(0) + seq
    }

    /// Version the oldest pending entry will build on (`base +
    /// consumed`), or `None` when the queue is empty. A collector must
    /// never retire this version while entries are pending: the next
    /// drain's ticket grants `base + consumed + 1`, and its tree is
    /// built against this snapshot's nodes.
    pub fn drain_base_version(&self) -> Option<u64> {
        let st = self.state.lock();
        if st.queue.is_empty() {
            None
        } else {
            Some(st.base.unwrap_or(0) + st.consumed)
        }
    }

    /// Sequence number of the newest append (0 when nothing was ever
    /// appended): the target a durability barrier waits for.
    pub fn appended_seq(&self) -> u64 {
        self.state.lock().next_seq - 1
    }

    /// True once every entry up to and including `seq` left the queue.
    pub fn drained_through(&self, seq: u64) -> bool {
        self.state.lock().consumed >= seq
    }

    /// Pending entry count.
    pub fn depth(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// Pending payload bytes.
    pub fn bytes_pending(&self) -> u64 {
        self.state.lock().bytes_pending
    }

    /// Marks the log closed: further appends error, and a running
    /// drainer returns once the queue empties.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.changed.notify_all();
    }

    /// True once [`WriteAheadLog::close`] was called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().closed
    }

    /// Suspends draining: `peek_front` returns `None` until resumed.
    /// Test hook for deterministic fault windows (kill a server while no
    /// entry is in flight).
    pub fn pause(&self) {
        self.state.lock().paused = true;
    }

    /// Resumes draining after [`WriteAheadLog::pause`].
    pub fn resume(&self) {
        self.state.lock().paused = false;
    }

    /// What to wait on for the queue to shrink or the log to close.
    pub(crate) fn changed(&self) -> &Event {
        &self.changed
    }

    /// The first replay failure, if any (the log stays usable; the
    /// failed entry's version exists as a tombstone).
    pub fn first_drain_error(&self) -> Option<Error> {
        self.state.lock().first_drain_error.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomio_types::ByteRange;

    fn ext(len: u64) -> ExtentList {
        ExtentList::single(ByteRange::new(0, len))
    }

    fn payload(len: usize) -> Bytes {
        Bytes::from(vec![0xABu8; len])
    }

    fn wal(capacity: u64) -> WriteAheadLog {
        WriteAheadLog::new(capacity, Metrics::new())
    }

    #[test]
    fn appends_assign_dense_sequence_numbers() {
        let w = wal(1024);
        for expect in 1..=5u64 {
            let seq = w.try_append(ext(10), payload(10), 0, || 0).unwrap();
            assert_eq!(seq, expect);
        }
        assert_eq!(w.depth(), 5);
        assert_eq!(w.bytes_pending(), 50);
        assert_eq!(w.appended_seq(), 5);
    }

    #[test]
    fn at_capacity_appends_busy_with_typed_error() {
        let w = wal(100);
        w.try_append(ext(60), payload(60), 0, || 0).unwrap();
        w.try_append(ext(40), payload(40), 0, || 0).unwrap();
        let err = w.try_append(ext(1), payload(1), 0, || 0).unwrap_err();
        assert_eq!(
            err,
            Error::Busy {
                resource: "wal".into(),
                pending_bytes: 100,
                capacity: 100,
            }
        );
        assert_eq!(w.metrics.counter("wal.busy_rejections").get(), 1);
    }

    #[test]
    fn stall_clears_only_below_low_water_mark() {
        // Capacity 100, low water 50. Fill to 100, stall, then drain one
        // 30-byte entry: 70 pending is over the low-water mark, so the
        // log must KEEP rejecting (hysteresis) even though 70 + 20 < 100
        // would naively fit.
        let w = wal(100);
        for _ in 0..10 {
            w.try_append(ext(10), payload(10), 0, || 0).unwrap();
        }
        assert!(w.try_append(ext(20), payload(20), 0, || 0).is_err());
        for seq in 1..=3u64 {
            w.complete_front(seq, 0);
        }
        assert_eq!(w.bytes_pending(), 70);
        assert!(
            w.try_append(ext(20), payload(20), 0, || 0).is_err(),
            "stalled log admits nothing above the low-water mark"
        );
        for seq in 4..=5u64 {
            w.complete_front(seq, 0);
        }
        assert_eq!(w.bytes_pending(), 50);
        let seq = w.try_append(ext(20), payload(20), 0, || 0).unwrap();
        assert_eq!(seq, 11, "sequence numbering continues across the stall");
    }

    #[test]
    fn entries_never_reorder_across_a_stall() {
        let w = wal(100);
        let mut appended = Vec::new();
        for i in 0..10u64 {
            appended.push(w.try_append(ext(10), payload(10), i, || 0).unwrap());
        }
        assert!(w.try_append(ext(10), payload(10), 10, || 0).is_err());
        // Drain everything, recording pop order.
        let mut popped = Vec::new();
        while let Some(e) = w.peek_front() {
            popped.push(e.seq);
            w.complete_front(e.seq, 100);
        }
        // Stall over; the next append continues the sequence.
        appended.push(w.try_append(ext(10), payload(10), 11, || 0).unwrap());
        let e = w.peek_front().unwrap();
        popped.push(e.seq);
        w.complete_front(e.seq, 101);
        assert_eq!(appended, (1..=11).collect::<Vec<u64>>());
        assert_eq!(popped, appended, "FIFO order survives the stall");
    }

    #[test]
    fn oversized_entry_admitted_when_empty() {
        let w = wal(100);
        let seq = w.try_append(ext(500), payload(500), 0, || 0).unwrap();
        assert_eq!(seq, 1);
        // But nothing more fits behind it.
        assert!(w.try_append(ext(1), payload(1), 0, || 0).is_err());
        w.complete_front(1, 0);
        assert!(w.try_append(ext(1), payload(1), 0, || 0).is_ok());
    }

    #[test]
    fn expected_version_offsets_by_base() {
        let w = wal(1024);
        w.try_append(ext(1), payload(1), 0, || 7).unwrap();
        w.try_append(ext(1), payload(1), 0, || 99).unwrap();
        // Base captured once, at the first append.
        assert_eq!(w.expected_version(1), 8);
        assert_eq!(w.expected_version(2), 9);
    }

    #[test]
    fn close_rejects_appends_and_drain_completes() {
        let w = wal(1024);
        w.try_append(ext(4), payload(4), 0, || 0).unwrap();
        w.close();
        assert!(matches!(
            w.try_append(ext(4), payload(4), 0, || 0),
            Err(Error::Internal(_))
        ));
        assert!(w.is_closed());
        let e = w.peek_front().unwrap();
        w.complete_front(e.seq, 10);
        assert_eq!(w.depth(), 0);
        assert!(w.drained_through(1));
    }

    #[test]
    fn pause_hides_entries_from_the_drainer() {
        let w = wal(1024);
        w.try_append(ext(4), payload(4), 0, || 0).unwrap();
        w.pause();
        assert!(w.peek_front().is_none());
        w.resume();
        assert_eq!(w.peek_front().unwrap().seq, 1);
    }

    #[test]
    fn failed_entries_record_a_sticky_error() {
        let w = wal(1024);
        w.try_append(ext(4), payload(4), 0, || 0).unwrap();
        w.try_append(ext(4), payload(4), 0, || 0).unwrap();
        w.fail_front(1, Error::EmptyAccess, 5);
        w.fail_front(2, Error::Internal("later".into()), 6);
        assert_eq!(w.first_drain_error(), Some(Error::EmptyAccess));
        assert_eq!(w.metrics.counter("wal.drain_errors").get(), 2);
        assert!(w.drained_through(2));
    }

    #[test]
    fn stats_track_depth_peak_and_bytes_pending() {
        let w = wal(1024);
        for _ in 0..4 {
            w.try_append(ext(8), payload(8), 0, || 0).unwrap();
        }
        w.complete_front(1, 0);
        w.try_append(ext(8), payload(8), 0, || 0).unwrap();
        assert_eq!(w.metrics.counter("wal.depth_peak").get(), 4);
        assert_eq!(w.metrics.value_stat("wal.bytes_pending").max(), 32);
        assert_eq!(w.metrics.counter("wal.appends").get(), 5);
        assert_eq!(w.metrics.counter("wal.drained").get(), 1);
    }
}
