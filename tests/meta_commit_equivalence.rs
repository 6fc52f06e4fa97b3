//! The metadata commit pipeline under concurrency: trees are built
//! without waiting and only publication is ordered (the paper's third
//! principle — the one ticket path there is). Every scenario here is one
//! where that ordering can matter: concurrent rounds must stay atomic
//! and bit-reproducible on the virtual clock, and a failed write must
//! still publish its tombstone, or ordered publication would stop at it.
//!
//! (The test names say "modes": each body used to run once per
//! `TicketMode`, and the names are tier-1 names.)

use atomio::core::{Store, StoreConfig};
use atomio::mpiio::adio::AdioDriver;
use atomio::mpiio::drivers::VersioningDriver;
use atomio::simgrid::clock::run_actors_on;
use atomio::simgrid::SimClock;
use atomio::types::{Error, ExtentList, ProviderId};
use atomio::workloads::{run_write_round, OverlapWorkload};
use bytes::Bytes;
use std::sync::Arc;

#[test]
fn concurrent_atomic_writes_serialize_in_both_modes() {
    let workload = OverlapWorkload::new(6, 8, 16 * 1024, 1, 2);
    let extents: Vec<ExtentList> = (0..6).map(|c| workload.extents_for(c)).collect();
    let store = Store::new(
        StoreConfig::default()
            .with_chunk_size(16 * 1024)
            .with_data_providers(8)
            .with_seed(0xD1CE),
    );
    let driver: Arc<dyn AdioDriver> = Arc::new(VersioningDriver::new(store.create_blob()));
    let clock = SimClock::new();
    let out = run_write_round(&clock, &driver, &extents, true, 9, true);
    assert!(
        out.is_atomic_ok(),
        "violated atomicity: {:?}",
        out.violation
    );
}

#[test]
fn concurrent_rounds_are_bit_reproducible_per_mode() {
    // The deterministic clock sequencer releases same-instant wake-ups
    // in participant-id order, so two identical concurrent runs must
    // agree on virtual time to the nanosecond (`results/*.json` are
    // byte-reproducible only because they do).
    let workload = OverlapWorkload::new(6, 8, 16 * 1024, 1, 2);
    let extents: Vec<ExtentList> = (0..6).map(|c| workload.extents_for(c)).collect();
    let run = || {
        let store = Store::new(
            StoreConfig::default()
                .with_chunk_size(16 * 1024)
                .with_data_providers(8)
                .with_seed(0xD1CE),
        );
        let driver: Arc<dyn AdioDriver> = Arc::new(VersioningDriver::new(store.create_blob()));
        let clock = SimClock::new();
        let out = run_write_round(&clock, &driver, &extents, true, 9, false);
        (out.elapsed, out.total_bytes, store.meta().node_count())
    };
    assert_eq!(run(), run(), "runs diverged");
}

#[test]
fn under_quorum_writes_tombstone_identically_in_both_modes() {
    let s = Store::new(
        StoreConfig::default()
            .with_zero_cost()
            .with_chunk_size(1024)
            .with_data_providers(2)
            .with_replication(2, 2),
    );
    let blob = s.create_blob();
    let clock = SimClock::new();
    run_actors_on(&clock, 1, |_, p| {
        s.faults().fail_provider(ProviderId::new(0));
        let err = blob.write(p, 0, Bytes::from(vec![1u8; 512])).unwrap_err();
        assert!(
            matches!(err, Error::InsufficientReplicas { .. }),
            "got {err}"
        );
        // The failed write must publish an invisible tombstone and
        // leave the pipeline retryable.
        let latest = blob.latest(p).unwrap().version;
        let zeros = blob
            .read_at(p, latest, &ExtentList::from_pairs([(0u64, 512u64)]))
            .unwrap();
        assert_eq!(zeros, vec![0u8; 512], "failed write visible");
        s.faults().heal_provider(ProviderId::new(0));
        let v = blob.write(p, 0, Bytes::from(vec![1u8; 512])).unwrap();
        let got = blob
            .read_at(p, v, &ExtentList::from_pairs([(0u64, 512u64)]))
            .unwrap();
        assert_eq!(got, vec![1u8; 512], "retry lost data");
    });
}
