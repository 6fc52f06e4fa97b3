//! Equivalence of the metadata commit pipeline's two ticket modes:
//! `TicketMode::Pipelined` (the paper's design — trees are built without
//! waiting and only publication is ordered) and
//! `TicketMode::SerializedBuild` (its principle-3 ablation, E7b). The
//! modes differ only in *when* concurrent writers may build, so every
//! scenario here is one where that can matter: concurrent rounds must
//! stay atomic and bit-reproducible on the virtual clock, and a failed
//! write must still publish its tombstone — under `SerializedBuild` the
//! next ticket is not even granted until it has.

use atomio::core::{Store, StoreConfig};
use atomio::mpiio::adio::AdioDriver;
use atomio::mpiio::drivers::VersioningDriver;
use atomio::simgrid::clock::run_actors_on;
use atomio::simgrid::SimClock;
use atomio::types::{Error, ExtentList, ProviderId};
use atomio::version::TicketMode;
use atomio::workloads::{run_write_round, OverlapWorkload};
use bytes::Bytes;
use std::sync::Arc;

const MODES: [TicketMode; 2] = [TicketMode::SerializedBuild, TicketMode::Pipelined];

#[test]
fn concurrent_atomic_writes_serialize_in_both_modes() {
    let workload = OverlapWorkload::new(6, 8, 16 * 1024, 1, 2);
    let extents: Vec<ExtentList> = (0..6).map(|c| workload.extents_for(c)).collect();
    for mode in MODES {
        let store = Store::new(
            StoreConfig::default()
                .with_chunk_size(16 * 1024)
                .with_data_providers(8)
                .with_ticket_mode(mode)
                .with_seed(0xD1CE),
        );
        let driver: Arc<dyn AdioDriver> = Arc::new(VersioningDriver::new(store.create_blob()));
        let clock = SimClock::new();
        let out = run_write_round(&clock, &driver, &extents, true, 9, true);
        assert!(
            out.is_atomic_ok(),
            "{mode:?} violated atomicity: {:?}",
            out.violation
        );
    }
}

#[test]
fn concurrent_rounds_are_bit_reproducible_per_mode() {
    // The deterministic clock sequencer releases same-instant wake-ups
    // in participant-id order, so two identical concurrent runs must
    // agree on virtual time to the nanosecond — in either ticket mode
    // (`results/e7b.json` is byte-reproducible only because they do).
    let workload = OverlapWorkload::new(6, 8, 16 * 1024, 1, 2);
    let extents: Vec<ExtentList> = (0..6).map(|c| workload.extents_for(c)).collect();
    for mode in MODES {
        let run = || {
            let store = Store::new(
                StoreConfig::default()
                    .with_chunk_size(16 * 1024)
                    .with_data_providers(8)
                    .with_ticket_mode(mode)
                    .with_seed(0xD1CE),
            );
            let driver: Arc<dyn AdioDriver> = Arc::new(VersioningDriver::new(store.create_blob()));
            let clock = SimClock::new();
            let out = run_write_round(&clock, &driver, &extents, true, 9, false);
            (out.elapsed, out.total_bytes, store.meta().node_count())
        };
        assert_eq!(run(), run(), "{mode:?}: runs diverged");
    }
}

#[test]
fn under_quorum_writes_tombstone_identically_in_both_modes() {
    for mode in MODES {
        let s = Store::new(
            StoreConfig::default()
                .with_zero_cost()
                .with_chunk_size(1024)
                .with_data_providers(2)
                .with_replication(2, 2)
                .with_ticket_mode(mode),
        );
        let blob = s.create_blob();
        let clock = SimClock::new();
        run_actors_on(&clock, 1, |_, p| {
            s.faults().fail_provider(ProviderId::new(0));
            let err = blob.write(p, 0, Bytes::from(vec![1u8; 512])).unwrap_err();
            assert!(
                matches!(err, Error::InsufficientReplicas { .. }),
                "{mode:?}: got {err}"
            );
            // The failed write must publish an invisible tombstone and
            // leave the pipeline retryable.
            let latest = blob.latest(p).unwrap().version;
            let zeros = blob
                .read_at(p, latest, &ExtentList::from_pairs([(0u64, 512u64)]))
                .unwrap();
            assert_eq!(zeros, vec![0u8; 512], "{mode:?}: failed write visible");
            s.faults().heal_provider(ProviderId::new(0));
            let v = blob.write(p, 0, Bytes::from(vec![1u8; 512])).unwrap();
            let got = blob
                .read_at(p, v, &ExtentList::from_pairs([(0u64, 512u64)]))
                .unwrap();
            assert_eq!(got, vec![1u8; 512], "{mode:?}: retry lost data");
        });
    }
}
