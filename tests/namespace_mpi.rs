//! Namespace + MPI integration: open a shared file by path, run a
//! collective job over it, pin a snapshot for analysis, rename the
//! output into an archive — the adoption-path workflow end to end.

use atomio::core::{Store, StoreConfig};
use atomio::mpiio::drivers::VersioningDriver;
use atomio::mpiio::{adio::AdioDriver, CollectiveStrategy, Communicator, File, OpenMode};
use atomio::simgrid::clock::run_actors_on;
use atomio::simgrid::SimClock;
use atomio::types::stamp::WriteStamp;
use atomio::types::{ClientId, ExtentList};
use atomio::workloads::TileWorkload;
use std::sync::Arc;

#[test]
fn full_job_lifecycle_over_named_files() {
    let store = Store::new(
        StoreConfig::default()
            .with_zero_cost()
            .with_chunk_size(4096)
            .with_data_providers(4),
    );
    let clock = SimClock::new();

    // 1. The job creates its output file by path.
    let blob = store.create_file("/jobs/climate/out.dat").unwrap();
    let driver: Arc<dyn AdioDriver> = Arc::new(VersioningDriver::new(blob.clone()));

    // 2. An MPI job writes tiles collectively (two-phase, atomic).
    let workload = TileWorkload::new(2, 2, 16, 16, 8, 2, 2);
    let ranks = workload.processes();
    let comm = Communicator::new(ranks, store.config().cost);
    let files: Vec<File> = (0..ranks)
        .map(|r| File::open(comm.clone(), r, Arc::clone(&driver), OpenMode::ReadWrite))
        .collect();
    let stamps: Vec<WriteStamp> = (0..ranks)
        .map(|r| WriteStamp::new(ClientId::new(r as u64), 1))
        .collect();
    run_actors_on(&clock, ranks, |rank, p| {
        let f = &files[rank];
        f.set_view(workload.view(rank).unwrap());
        f.set_atomic(true);
        f.set_collective(CollectiveStrategy::TwoPhase { aggregators: 4 });
        let payload = stamps[rank].payload_for(&workload.extents_for(rank));
        f.write_at_all(p, 0, &payload).unwrap();
    });

    // 3. Analysis pins the finished snapshot by path, under a lease.
    run_actors_on(&clock, 1, |_, p| {
        let source = store.open_file("/jobs/climate/out.dat").unwrap();
        let grant = source.lease_latest(p, 60_000).unwrap();
        // The snapshot holds the complete dataset.
        assert_eq!(
            source.size_at(p, grant.version).unwrap(),
            workload.dataset_bytes()
        );
        let all = ExtentList::from_pairs([(0u64, workload.dataset_bytes())]);
        let data = source.read_leased(p, &grant, 60_000, &all).unwrap();
        source.lease_release(p, grant.lease).unwrap();
        assert_eq!(data.len() as u64, workload.dataset_bytes());
        // Some rank's stamp appears at the dataset start (rank 0 owns it
        // unless a ghost neighbour won the corner — accept either).
        let matched = stamps
            .iter()
            .any(|stamp| stamp.matches(0, &data[..workload.sz_element as usize]));
        assert!(matched, "dataset start carries no rank's stamp");
    });

    // 4. The output is archived; the old path disappears.
    store
        .rename("/jobs/climate/out.dat", "/archive/climate/run-1.dat")
        .unwrap();
    assert!(store.open_file("/jobs/climate/out.dat").is_err());
    assert_eq!(store.list("/archive"), vec!["/archive/climate/run-1.dat"]);

    // 5. The archived file is still the same data.
    run_actors_on(&clock, 1, |_, p| {
        let archived = store.open_file("/archive/climate/run-1.dat").unwrap();
        assert_eq!(archived.id(), blob.id());
        assert_eq!(archived.latest(p).unwrap().size, workload.dataset_bytes());
    });
}

#[test]
fn two_jobs_on_different_paths_are_isolated() {
    let store = Store::new(
        StoreConfig::default()
            .with_zero_cost()
            .with_chunk_size(1024)
            .with_data_providers(2),
    );
    let clock = SimClock::new();
    let a = store.create_file("/a").unwrap();
    let b = store.create_file("/b").unwrap();
    run_actors_on(&clock, 2, |i, p| {
        let blob = if i == 0 { &a } else { &b };
        let fill = if i == 0 { 0xAA } else { 0xBB };
        for round in 0..3 {
            let _ = round;
            blob.write(p, 0, bytes::Bytes::from(vec![fill; 2048]))
                .unwrap();
        }
    });
    run_actors_on(&clock, 1, |_, p| {
        assert_eq!(a.read(p, 0, 2048).unwrap(), vec![0xAA; 2048]);
        assert_eq!(b.read(p, 0, 2048).unwrap(), vec![0xBB; 2048]);
        assert_eq!(a.latest(p).unwrap().version.raw(), 3);
        assert_eq!(b.latest(p).unwrap().version.raw(), 3);
    });
}
