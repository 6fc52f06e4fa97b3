//! E8a/E8b — the host-side write-ahead log ablation: what does
//! `CommitMode::Logged` buy a checkpointing application, and what does
//! it cost in durability lag?
//!
//! * **E8a (virtual time, in-process)** — iterative halo-overlap
//!   checkpoint bursts under grid5000 costs, sweeping writer count with
//!   `CommitMode::Direct` as the ablation baseline. A third arm quarters
//!   the drain bandwidth (network + disk) to show the knob the log
//!   trades on: barrier-ack latency stays at memory speed while the
//!   durability lag stretches with the drain path. Notes carry a
//!   burst-size sweep at 4 writers.
//! * **E8b (wall clock, localhost TCP)** — the same burst against the
//!   full three-service deployment (provider/meta/version servers on
//!   real sockets, mux transport), with providers charging a 100 µs
//!   wall-clock device write per chunk as in E7g. Direct-mode barriers
//!   wait for real socket round trips and device time; Logged-mode
//!   barriers ack from the host log, and the drain pays the sockets
//!   afterwards. Absolute numbers vary with the host; the
//!   direct/logged barrier-ack *ratio* is the result.
//!
//! Run: `cargo run -p atomio-bench --release --bin exp8_wal`

use atomio_bench::report::{results_dir, wal_stat_entries};
use atomio_bench::{ExperimentReport, Row};
use atomio_core::{CommitMode, Store, StoreConfig, TransportMode};
use atomio_mpiio::comm::Communicator;
use atomio_provider::{chunk_store_for, ChunkStore, ProviderManager};
use atomio_rpc::{
    dial, MetaService, ProviderService, RemoteMetaStore, RemoteProvider, RemoteVersionManager,
    RpcConfig, RpcMode, RpcServer, Service, VersionService,
};
use atomio_simgrid::clock::run_actors_on;
use atomio_simgrid::{CostModel, FaultInjector, SimClock};
use atomio_types::stamp::WriteStamp;
use atomio_types::{ClientId, ProviderId};
use atomio_workloads::{run_checkpoint_burst, BurstOutcome, CheckpointWorkload};
use bytes::Bytes;
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 0xE8;
/// Bytes per domain cell.
const CELL: u64 = 16;
/// Ghost cells on each side of a slab: neighbouring dumps overlap.
const HALO: u64 = 32;
/// Checkpoint iterations per burst.
const ITERS: u64 = 4;

/// grid5000 with the drain path (network + disk) throttled to a
/// quarter: the ablation knob for "how fast can the log drain".
fn slow_drain_cost() -> CostModel {
    let mut cost = CostModel::grid5000();
    cost.net_bandwidth /= 4;
    cost.disk_bandwidth /= 4;
    cost
}

fn virtual_store(cost: CostModel, mode: CommitMode) -> Store {
    Store::new(
        StoreConfig::default()
            .with_cost(cost)
            .with_chunk_size(64 * 1024)
            .with_data_providers(8)
            .with_meta_shards(4)
            .with_commit_mode(mode)
            .with_seed(SEED),
    )
}

/// One virtual-time burst: `writers` ranks dump `cells`-cell slabs for
/// [`ITERS`] iterations. Returns the outcome and the store (for its
/// metrics).
fn virtual_burst(
    cost: CostModel,
    mode: CommitMode,
    writers: usize,
    cells: u64,
) -> (BurstOutcome, Store) {
    let store = virtual_store(cost, mode);
    let blob = store.create_blob();
    let clock = SimClock::new();
    let workload = CheckpointWorkload::new(writers, cells, CELL, HALO);
    let out = run_checkpoint_burst(&clock, &blob, &workload, ITERS);
    (out, store)
}

fn ack_row(x: u64, backend: &str, out: &BurstOutcome) -> Row {
    Row {
        x,
        backend: backend.into(),
        throughput_mib_s: out.total_bytes as f64 / (1 << 20) as f64 / out.ack_elapsed.as_secs_f64(),
        elapsed_s: out.ack_elapsed.as_secs_f64(),
        bytes: out.total_bytes,
        atomic_ok: None,
    }
}

/// Provider service for E8b whose every request costs `device` of
/// *wall-clock* time before the in-memory store runs — the per-chunk
/// device write a real storage node performs (~100 µs is NVMe-class).
/// It is what makes Direct-mode barriers expensive on real sockets, and
/// what the log drain overlaps with the application's next iterations.
#[derive(Debug)]
struct TimedProviderService {
    inner: ProviderService,
    device: Duration,
}

impl Service for TimedProviderService {
    fn handle(
        &self,
        request: atomio_rpc::Request,
        payload: Bytes,
    ) -> (atomio_rpc::Response, Bytes) {
        std::thread::sleep(self.device);
        Service::handle(&self.inner, request, payload)
    }
}

/// A three-service deployment (provider/meta/version servers on
/// ephemeral localhost ports, mux transport) for the wall-clock arm.
struct TcpDeployment {
    _provider_servers: Vec<RpcServer>,
    _meta_server: RpcServer,
    _version_server: RpcServer,
    store: Store,
}

const TCP_CHUNK: u64 = 4096;
const TCP_DEVICE_US: u64 = 100;

fn tcp_store(providers: usize, commit: CommitMode) -> TcpDeployment {
    let config = StoreConfig::default()
        .with_zero_cost()
        .with_chunk_size(TCP_CHUNK)
        .with_data_providers(providers)
        .with_meta_shards(2)
        .with_seed(SEED)
        .with_transport_mode(TransportMode::Tcp)
        .with_commit_mode(commit);

    let mut provider_servers = Vec::new();
    let mut stores: Vec<Arc<dyn ChunkStore>> = Vec::new();
    for i in 0..providers {
        let hosted = chunk_store_for(
            &atomio_types::BackendConfig::Memory,
            ProviderId::new(i as u64),
            CostModel::zero(),
            &Arc::new(FaultInjector::new(0)),
        )
        .expect("open hosted chunk store");
        let server = RpcServer::start(
            "127.0.0.1:0",
            Arc::new(TimedProviderService {
                inner: ProviderService::from_stores(vec![hosted]),
                device: Duration::from_micros(TCP_DEVICE_US),
            }),
        )
        .expect("bind E8b provider server");
        let transport = dial(
            server.local_addr(),
            RpcMode::Mux,
            RpcConfig::default(),
            None,
        );
        stores.push(Arc::new(RemoteProvider::new(
            ProviderId::new(i as u64),
            transport,
        )));
        provider_servers.push(server);
    }

    let meta_server = RpcServer::start(
        "127.0.0.1:0",
        Arc::new(MetaService::new(config.meta_shards)),
    )
    .expect("bind E8b meta server");
    let meta_transport = dial(
        meta_server.local_addr(),
        RpcMode::Mux,
        RpcConfig::default(),
        None,
    );

    let version_server = RpcServer::start(
        "127.0.0.1:0",
        Arc::new(VersionService::new(TCP_CHUNK)) as Arc<dyn Service>,
    )
    .expect("bind E8b version server");
    let version_transport = dial(
        version_server.local_addr(),
        RpcMode::Mux,
        RpcConfig::default(),
        None,
    );

    let manager = Arc::new(ProviderManager::from_stores(
        stores,
        config.allocation,
        Arc::new(FaultInjector::new(config.seed ^ 0xFA17)),
        config.seed,
    ));
    let meta = Arc::new(RemoteMetaStore::new(meta_transport));
    let store = Store::with_substrates(config, manager, meta).with_version_oracles(move |blob| {
        Arc::new(RemoteVersionManager::new(
            blob.raw(),
            Arc::clone(&version_transport),
        ))
    });

    TcpDeployment {
        _provider_servers: provider_servers,
        _meta_server: meta_server,
        _version_server: version_server,
        store,
    }
}

/// Runs the burst against a TCP-backed store and measures **wall-clock**
/// time to the last barrier ack, then (Logged mode) wall-clock drain
/// time with the log closed. Returns `(ack, drain_lag)`.
fn wall_burst(store: &Store, workload: &CheckpointWorkload, iters: u64) -> (Duration, Duration) {
    let blob = store.create_blob();
    let clock = SimClock::new();
    let n = workload.ranks;
    let comm = Communicator::new(n, CostModel::zero());
    let blob_ref = &blob;
    let comm_ref = &comm;
    let start = std::time::Instant::now();
    run_actors_on(&clock, n, |i, p| {
        let extents = workload.extents_for(i);
        for iter in 0..iters {
            comm_ref.barrier(p);
            let stamp = WriteStamp::new(ClientId::new(i as u64), iter);
            let payload = Bytes::from(stamp.payload_for(&extents));
            blob_ref
                .write_list(p, &extents, payload)
                .expect("E8b write");
            comm_ref.barrier(p);
        }
    });
    let ack = start.elapsed();

    let lag = if let Some(wal) = blob.wal() {
        wal.close();
        let t0 = std::time::Instant::now();
        run_actors_on(&clock, 1, |_, p| blob_ref.wal_drain(p).expect("E8b drain"));
        assert!(wal.first_drain_error().is_none(), "drain replay failed");
        t0.elapsed()
    } else {
        Duration::ZERO
    };

    // Sanity: every dump published exactly once, in both modes.
    let latest = run_actors_on(&clock, 1, |_, p| blob_ref.latest(p).unwrap().version)
        .pop()
        .unwrap();
    assert_eq!(latest.raw(), n as u64 * iters, "all dumps published");
    (ack, lag)
}

fn main() {
    // --- E8a: virtual-time writer sweep -----------------------------------
    let mut virt = ExperimentReport::new(
        "E8a",
        "WAL ablation: checkpoint barrier-ack latency vs. durability lag (virtual time)",
        "writers",
    );
    virt.note(
        "throughput column = checkpoint payload MiB per second of barrier-ack time \
         (grid5000 costs, 256 KiB/rank x 4 iterations, halo overlap); direct = durable \
         at ack, logged = host WAL absorbs the burst and drains in grant order, \
         logged-slowdrain = same log with net+disk drain bandwidth quartered",
    );
    const SWEEP_CELLS: u64 = 16 * 1024; // 256 KiB per rank at 16 B/cell
    type Arm = (&'static str, fn() -> CostModel, CommitMode);
    let arms: [Arm; 3] = [
        ("direct", CostModel::grid5000, CommitMode::Direct),
        ("logged", CostModel::grid5000, CommitMode::Logged),
        ("logged-slowdrain", slow_drain_cost, CommitMode::Logged),
    ];
    for &writers in &[2usize, 4, 8, 16] {
        for (label, cost, mode) in arms {
            let (out, store) = virtual_burst(cost(), mode, writers, SWEEP_CELLS);
            virt.push(ack_row(writers as u64, label, &out));
            if mode == CommitMode::Logged {
                virt.note(format!(
                    "{label} at {writers:>2} writers: drain lag {:.2} ms \
                     (ack {:.2} ms, durable {:.2} ms)",
                    out.drain_lag().as_secs_f64() * 1e3,
                    out.ack_elapsed.as_secs_f64() * 1e3,
                    out.durable_elapsed.as_secs_f64() * 1e3,
                ));
            }
            if writers == 16 && label == "logged" {
                virt.stats = wal_stat_entries(store.metrics());
            }
            eprintln!("  ... E8a {label} {writers} writers done");
        }
    }
    // Burst-size sweep at 4 writers: the ack gain and the lag both scale
    // with the bytes the log absorbs.
    for (label, cells) in [
        ("64 KiB", 4096u64),
        ("256 KiB", 16 * 1024),
        ("1 MiB", 64 * 1024),
    ] {
        let (d, _) = virtual_burst(CostModel::grid5000(), CommitMode::Direct, 4, cells);
        let (l, _) = virtual_burst(CostModel::grid5000(), CommitMode::Logged, 4, cells);
        virt.note(format!(
            "burst {label}/rank at 4 writers: ack direct {:.2} ms vs logged {:.2} ms \
             ({:.1}x), logged drain lag {:.2} ms",
            d.ack_elapsed.as_secs_f64() * 1e3,
            l.ack_elapsed.as_secs_f64() * 1e3,
            d.ack_elapsed.as_secs_f64() / l.ack_elapsed.as_secs_f64(),
            l.drain_lag().as_secs_f64() * 1e3,
        ));
        eprintln!("  ... E8a burst-size {label} done");
    }
    for x in virt.xs() {
        if let Some(s) = virt.speedup_at(x, "logged", "direct") {
            virt.note(format!(
                "logged barrier-ack gain at {x:>2} writers: {s:.2}x"
            ));
        }
    }
    println!("{}", virt.render_table());
    virt.save_json(results_dir()).ok();

    // --- E8b: wall-clock TCP arm ------------------------------------------
    let mut tcp = ExperimentReport::new(
        "E8b",
        "WAL ablation: checkpoint bursts over localhost TCP (three services, wall clock)",
        "writers",
    );
    tcp.note(
        "throughput column = checkpoint payload MiB per second of wall-clock barrier-ack \
         time over the three-service mux deployment (4 providers, 100us device write per \
         chunk, 64 KiB/rank x 4 iterations); direct barriers wait for sockets + device, \
         logged barriers ack from the host log and the drain pays them afterwards; \
         absolute numbers vary with the host, the direct/logged ratio is the result",
    );
    const TCP_CELLS: u64 = 4096; // 64 KiB per rank at 16 B/cell
    for &writers in &[2usize, 4, 8] {
        for (label, mode) in [
            ("direct", CommitMode::Direct),
            ("logged", CommitMode::Logged),
        ] {
            let deployment = tcp_store(4, mode);
            let workload = CheckpointWorkload::new(writers, TCP_CELLS, CELL, HALO);
            let (ack, lag) = wall_burst(&deployment.store, &workload, ITERS);
            let bytes = ITERS * (0..writers).map(|r| workload.bytes_for(r)).sum::<u64>();
            tcp.push(Row {
                x: writers as u64,
                backend: label.into(),
                throughput_mib_s: bytes as f64 / (1 << 20) as f64 / ack.as_secs_f64(),
                elapsed_s: ack.as_secs_f64(),
                bytes,
                atomic_ok: None,
            });
            if mode == CommitMode::Logged {
                tcp.note(format!(
                    "logged at {writers} writers: ack {:.2} ms, drain lag {:.2} ms",
                    ack.as_secs_f64() * 1e3,
                    lag.as_secs_f64() * 1e3,
                ));
                if writers == 8 {
                    tcp.stats = wal_stat_entries(deployment.store.metrics());
                }
            }
            eprintln!("  ... E8b {label} {writers} writers done");
        }
    }
    for x in tcp.xs() {
        if let Some(s) = tcp.speedup_at(x, "logged", "direct") {
            tcp.note(format!("logged barrier-ack gain at {x} writers: {s:.2}x"));
        }
    }
    println!("{}", tcp.render_table());
    tcp.save_json(results_dir()).ok();
}
