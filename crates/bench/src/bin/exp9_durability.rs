//! E9d — the fsync-policy ablation for the durable disk backend: what
//! does each [`FsyncPolicy`] cost in barrier-ack latency, and how wide
//! is the durability window it leaves open?
//!
//! Two arms, both **wall clock** (fsync cost is real time, invisible to
//! the virtual clock):
//!
//! * **Store arm (the rows)** — iterative halo-overlap checkpoint
//!   bursts through an in-process loopback `Store`, sweeping writer
//!   count, with the storage substrate as the backend axis: `memory`
//!   (the RAM baseline) vs. the disk backend under `per-publish`,
//!   `group:4`, `group:16`, and `deferred` publish-log fsync. Every
//!   disk arm pays the same chunk/meta appends; only the publish-log
//!   sync schedule differs.
//! * **Publish-log arm (the notes/stats)** — a burst of ticket+publish
//!   pairs straight into a durable `VersionManager` per policy,
//!   reporting publish acks per second, the log's `unsynced_peak` (the
//!   worst-case count of *acknowledged* publishes a crash would roll
//!   back — the durability window the policy trades away), `syncs`
//!   issued, and the wall time to replay the log on reopen.
//!
//! Absolute numbers vary with the host and filesystem; the shape —
//! per-publish pays per-ack, group amortizes with a bounded window,
//! deferred is fastest with an unbounded window — is the result.
//!
//! Run: `cargo run -p atomio-bench --release --bin exp9_durability`

use atomio_bench::report::{results_dir, StatEntry};
use atomio_bench::{ExperimentReport, Row};
use atomio_core::{Store, StoreConfig};
use atomio_meta::{NodeKey, TreeConfig, VersionHistory};
use atomio_mpiio::comm::Communicator;
use atomio_simgrid::clock::run_actors_on;
use atomio_simgrid::{CostModel, SimClock};
use atomio_types::stamp::WriteStamp;
use atomio_types::tempdir::TempDir;
use atomio_types::{BackendConfig, BlobId, ByteRange, ClientId, FsyncPolicy};
use atomio_version::{TicketMode, VersionManager, VersionOracle};
use bytes::Bytes;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 0xE9D;
const CHUNK: u64 = 4096;
/// Bytes per domain cell.
const CELL: u64 = 16;
/// Domain cells per rank: 64 KiB of payload each.
const CELLS: u64 = 4096;
/// Ghost cells on each side of a slab.
const HALO: u64 = 32;
/// Checkpoint iterations per burst.
const ITERS: u64 = 4;

/// The fsync-policy sweep, label first (the row's backend column).
fn policies() -> [(&'static str, FsyncPolicy); 4] {
    [
        ("per-publish", FsyncPolicy::PerPublish),
        ("group:4", FsyncPolicy::Group(4)),
        ("group:16", FsyncPolicy::Group(16)),
        ("deferred", FsyncPolicy::Deferred),
    ]
}

fn store_on(backend: BackendConfig) -> Store {
    Store::new(
        StoreConfig::default()
            .with_zero_cost()
            .with_chunk_size(CHUNK)
            .with_data_providers(4)
            .with_meta_shards(2)
            .with_backend(backend)
            .with_seed(SEED),
    )
}

/// One wall-clock checkpoint burst: `writers` ranks dump their slabs
/// for [`ITERS`] barrier-fenced iterations. Returns `(ack, bytes)`.
fn wall_burst(store: &Store, writers: usize) -> (Duration, u64) {
    let workload = atomio_workloads::CheckpointWorkload::new(writers, CELLS, CELL, HALO);
    let blob = store.create_blob();
    let clock = SimClock::new();
    let comm = Communicator::new(writers, CostModel::zero());
    let blob_ref = &blob;
    let comm_ref = &comm;
    let workload_ref = &workload;
    let start = Instant::now();
    run_actors_on(&clock, writers, |i, p| {
        let extents = workload_ref.extents_for(i);
        for iter in 0..ITERS {
            comm_ref.barrier(p);
            let stamp = WriteStamp::new(ClientId::new(i as u64), iter);
            blob_ref
                .write_list(p, &extents, Bytes::from(stamp.payload_for(&extents)))
                .expect("E9d write");
            comm_ref.barrier(p);
        }
    });
    let ack = start.elapsed();
    let latest = run_actors_on(&clock, 1, |_, p| blob_ref.latest(p).unwrap().version)
        .pop()
        .unwrap();
    assert_eq!(latest.raw(), writers as u64 * ITERS, "all dumps published");
    let bytes = ITERS * (0..writers).map(|r| workload.bytes_for(r)).sum::<u64>();
    (ack, bytes)
}

/// Publishes per burst in the publish-log microbenchmark.
const PUBLISHES: u64 = 2000;

fn durable_vm(dir: &std::path::Path, fsync: FsyncPolicy) -> VersionManager {
    VersionManager::durable(
        dir,
        Arc::new(VersionHistory::new()),
        TreeConfig::new(CHUNK),
        CostModel::zero(),
        TicketMode::Pipelined,
        fsync,
    )
    .expect("open publish log")
}

/// Burst [`PUBLISHES`] ticket+publish pairs into a fresh durable
/// manager, then reopen the directory and time the replay. Returns
/// `(ack, replay, appends, syncs, unsynced_peak)`.
fn publish_burst(fsync: FsyncPolicy) -> (Duration, Duration, u64, u64, u32) {
    let tmp = TempDir::new("atomio-e9d-log");
    let vm = durable_vm(tmp.path(), fsync);
    let clock = SimClock::new();
    let vm_ref = &vm;
    let start = Instant::now();
    run_actors_on(&clock, 1, move |_, p| {
        for _ in 0..PUBLISHES {
            let (t, _) = vm_ref.ticket_append(p, CHUNK).expect("E9d ticket");
            let root = NodeKey {
                blob: BlobId::new(0),
                version: t.version,
                range: ByteRange::new(0, t.version.raw() * CHUNK),
            };
            vm_ref.publish(p, t, root).expect("E9d publish");
        }
    });
    let ack = start.elapsed();
    let stats = vm.publish_log_stats().expect("durable manager has a log");
    drop(vm);

    let t0 = Instant::now();
    let reopened = durable_vm(tmp.path(), fsync);
    let replay = t0.elapsed();
    // No crash happened, so even unsynced appends are in the page
    // cache and the full chain replays; `unsynced_peak` is what a
    // crash at the worst moment would have rolled back.
    let latest = run_actors_on(&clock, 1, |_, p| reopened.latest(p).map(|s| s.version))
        .pop()
        .unwrap()
        .expect("in-process oracle");
    assert_eq!(latest.raw(), PUBLISHES, "replay recovered the full chain");
    (ack, replay, stats.appends, stats.syncs, stats.unsynced_peak)
}

fn main() {
    let mut report = ExperimentReport::new(
        "E9d",
        "fsync-policy ablation: barrier-ack latency vs. durability window (disk backend, wall clock)",
        "writers",
    );
    report.note(
        "throughput column = checkpoint payload MiB per second of wall-clock barrier-ack \
         time through an in-process loopback store (4 providers, 2 shards, 64 KiB/rank x 4 \
         iterations); memory = RAM substrate baseline, disk arms differ only in the publish \
         log's fsync schedule; absolute numbers vary with the host filesystem, the \
         per-publish/group/deferred ordering is the result",
    );

    // --- Store arm: checkpoint bursts per substrate ------------------------
    for &writers in &[2usize, 4, 8] {
        {
            let store = store_on(BackendConfig::Memory);
            let (ack, bytes) = wall_burst(&store, writers);
            report.push(Row {
                x: writers as u64,
                backend: "memory".into(),
                throughput_mib_s: bytes as f64 / (1 << 20) as f64 / ack.as_secs_f64(),
                elapsed_s: ack.as_secs_f64(),
                bytes,
                atomic_ok: None,
            });
            eprintln!("  ... E9d memory {writers} writers done");
        }
        for (label, fsync) in policies() {
            let tmp = TempDir::new("atomio-e9d-store");
            let store = store_on(BackendConfig::disk(tmp.path()).with_fsync(fsync));
            let (ack, bytes) = wall_burst(&store, writers);
            report.push(Row {
                x: writers as u64,
                backend: format!("disk/{label}"),
                throughput_mib_s: bytes as f64 / (1 << 20) as f64 / ack.as_secs_f64(),
                elapsed_s: ack.as_secs_f64(),
                bytes,
                atomic_ok: None,
            });
            eprintln!("  ... E9d disk/{label} {writers} writers done");
        }
    }
    for x in report.xs() {
        if let Some(s) = report.speedup_at(x, "disk/deferred", "disk/per-publish") {
            report.note(format!(
                "deferred vs per-publish barrier-ack gain at {x} writers: {s:.2}x"
            ));
        }
    }

    // --- Publish-log arm: the window each policy leaves open ---------------
    for (label, fsync) in policies() {
        let (ack, replay, appends, syncs, unsynced_peak) = publish_burst(fsync);
        report.note(format!(
            "publish log under {label}: {PUBLISHES} publishes acked in {:.2} ms \
             ({:.0} acks/s), {syncs} fsyncs for {appends} appends, worst-case \
             durability window {unsynced_peak} acked publish(es), reopen replay {:.2} ms",
            ack.as_secs_f64() * 1e3,
            PUBLISHES as f64 / ack.as_secs_f64(),
            replay.as_secs_f64() * 1e3,
        ));
        for (name, value) in [
            ("appends", appends),
            ("syncs", syncs),
            ("unsynced_peak", u64::from(unsynced_peak)),
        ] {
            report.stats.push(StatEntry {
                name: format!("e9d.{label}.{name}"),
                value,
            });
        }
        eprintln!("  ... E9d publish-log {label} done");
    }

    println!("{}", report.render_table());
    report.save_json(results_dir()).ok();
}
