//! Cross-backend equivalence: for deterministic (conflict-free or
//! single-writer) workloads, every backend must produce byte-identical
//! file contents — the concurrency-control strategy may change *when*
//! things happen, never *what* the file ends up holding.
//!
//! The same contract holds one layer down for *storage* backends: the
//! in-memory and disk substrates behind [`BackendConfig`] must yield
//! identical version chains, bytes, and metadata — see the last test.

use atomio::core::{ReadVersion, Store, StoreConfig};
use atomio::simgrid::clock::run_actors_on;
use atomio::simgrid::SimClock;
use atomio::types::stamp::WriteStamp;
use atomio::types::tempdir::TempDir;
use atomio::types::{BackendConfig, ByteRange, ClientId, ExtentList, VersionId};
use atomio::workloads::{CheckpointWorkload, OverlapWorkload, TileWorkload};
use atomio_bench::{Backend, BenchConfig};
use atomio_simgrid::CostModel;

fn final_state(backend: Backend, extents: &[ExtentList], sequential: bool) -> Vec<u8> {
    let cfg = BenchConfig {
        servers: 4,
        chunk_size: 4096,
        cost: CostModel::zero(),
        ..BenchConfig::default()
    };
    let (driver, _) = cfg.build(backend);
    let clock = SimClock::new();
    let n = extents.len();
    if sequential {
        run_actors_on(&clock, 1, |_, p| {
            for (i, e) in extents.iter().enumerate() {
                let stamp = WriteStamp::new(ClientId::new(i as u64), 1);
                driver
                    .write_extents(
                        p,
                        ClientId::new(i as u64),
                        e,
                        bytes::Bytes::from(stamp.payload_for(e)),
                        backend.atomic_flag(),
                    )
                    .unwrap();
            }
        });
    } else {
        run_actors_on(&clock, n, |i, p| {
            let stamp = WriteStamp::new(ClientId::new(i as u64), 1);
            driver
                .write_extents(
                    p,
                    ClientId::new(i as u64),
                    &extents[i],
                    bytes::Bytes::from(stamp.payload_for(&extents[i])),
                    backend.atomic_flag(),
                )
                .unwrap();
        });
    }
    let end = extents
        .iter()
        .map(|e| e.covering_range().end())
        .max()
        .unwrap();
    run_actors_on(&clock, 1, |_, p| {
        driver
            .read_extents(
                p,
                ClientId::new(99),
                &ExtentList::single(ByteRange::new(0, end)),
                false,
            )
            .unwrap()
    })
    .pop()
    .unwrap()
}

#[test]
fn concurrent_disjoint_workload_is_backend_independent() {
    let w = OverlapWorkload::new(6, 8, 2048, 0, 2); // zero overlap
    let extents: Vec<ExtentList> = (0..6).map(|c| w.extents_for(c)).collect();
    let reference = final_state(Backend::Versioning, &extents, false);
    for backend in [
        Backend::LustreLock,
        Backend::ConflictDetect,
        Backend::NoLock,
    ] {
        let got = final_state(backend, &extents, false);
        assert_eq!(got, reference, "{} differs", backend.label());
    }
}

#[test]
fn sequential_overlapping_workload_is_backend_independent() {
    // Sequential writes make the outcome deterministic even with
    // overlap: last writer wins everywhere in program order.
    let w = OverlapWorkload::new(4, 6, 1024, 1, 2);
    let extents: Vec<ExtentList> = (0..4).map(|c| w.extents_for(c)).collect();
    let reference = final_state(Backend::Versioning, &extents, true);
    for backend in [
        Backend::LustreLock,
        Backend::ConflictDetect,
        Backend::NoLock,
    ] {
        let got = final_state(backend, &extents, true);
        assert_eq!(got, reference, "{} differs", backend.label());
    }
}

#[test]
fn tile_without_ghosts_is_backend_independent() {
    let w = TileWorkload::new(2, 2, 8, 8, 4, 0, 0);
    let extents: Vec<ExtentList> = (0..w.processes()).map(|r| w.extents_for(r)).collect();
    let reference = final_state(Backend::Versioning, &extents, false);
    let got = final_state(Backend::LustreLock, &extents, false);
    assert_eq!(got, reference);
}

#[test]
fn checkpoint_without_halo_is_backend_independent() {
    let w = CheckpointWorkload::new(4, 256, 8, 0);
    let extents: Vec<ExtentList> = (0..w.ranks).map(|r| w.extents_for(r)).collect();
    let reference = final_state(Backend::Versioning, &extents, false);
    for backend in [Backend::LustreLock, Backend::NoLock] {
        assert_eq!(final_state(backend, &extents, false), reference);
    }
}

/// Runs a sequential tile workload through a full `Store` on the given
/// storage backend and images every committed version plus the final
/// metadata shape.
fn storage_backend_history(backend: BackendConfig) -> (VersionId, Vec<Vec<u8>>, usize) {
    let w = TileWorkload::new(2, 2, 16, 16, 8, 2, 0);
    let store = Store::new(
        StoreConfig::default()
            .with_zero_cost()
            .with_chunk_size(512)
            .with_data_providers(4)
            .with_meta_shards(2)
            .with_backend(backend)
            .with_seed(42),
    );
    let blob = store.create_blob();
    let clock = SimClock::new();
    let blob_ref = &blob;
    let w_ref = &w;
    // Sequential so both backends commit the same version chain; the
    // concurrent case is covered above per lock strategy, and by the
    // disk arms of the distributed suites.
    run_actors_on(&clock, 1, move |_, p| {
        for rank in 0..w_ref.processes() {
            let ext = w_ref.extents_for(rank);
            let stamp = WriteStamp::new(ClientId::new(rank as u64), 1);
            blob_ref
                .write_list(p, &ext, bytes::Bytes::from(stamp.payload_for(&ext)))
                .unwrap();
        }
    });
    let (latest, images) = run_actors_on(&clock, 1, move |_, p| {
        let latest = blob_ref.latest(p).unwrap().version;
        let images = (1..=latest.raw())
            .map(|v| {
                // Each version is imaged at its own snapshot size: early
                // tiles don't reach the end of the dataset yet.
                let size = blob_ref
                    .version_manager()
                    .snapshot(p, VersionId::new(v))
                    .unwrap()
                    .size;
                let full = ExtentList::single(ByteRange::new(0, size));
                blob_ref
                    .read_list(p, ReadVersion::At(VersionId::new(v)), &full)
                    .unwrap()
            })
            .collect::<Vec<_>>();
        (latest, images)
    })
    .pop()
    .unwrap();
    (latest, images, store.meta().node_count())
}

#[test]
fn memory_and_disk_storage_backends_produce_identical_version_chains() {
    let tmp = TempDir::new("atomio-backend-equiv");
    let (mem_latest, mem_images, mem_nodes) = storage_backend_history(BackendConfig::Memory);
    let (disk_latest, disk_images, disk_nodes) =
        storage_backend_history(BackendConfig::disk(tmp.path()));
    assert_eq!(disk_latest, mem_latest, "same number of committed versions");
    assert_eq!(
        disk_images, mem_images,
        "every version in the chain is byte-identical across substrates"
    );
    assert_eq!(disk_nodes, mem_nodes, "same metadata tree shape");
    assert!(mem_latest >= VersionId::new(4), "workload actually ran");
}
