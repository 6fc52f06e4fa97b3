//! E7 — ablations of the versioning backend's design choices:
//!
//! * **Striping factor** — aggregated throughput vs. number of data
//!   providers (the paper's *data striping* principle);
//! * **Publication pipeline** — BlobSeer-style pipelined ticket/publish
//!   vs. naive serialized metadata builds (the *versioning without
//!   waiting* principle);
//! * **Allocation strategy** — round-robin vs. least-loaded vs. random
//!   chunk placement;
//! * **Socket transport** — multiplexed connection-pool transport vs.
//!   strict per-call framing over real localhost TCP (`DESIGN.md` §5).
//!   E7g is the one arm measured in **wall-clock** time on real sockets
//!   rather than simulated time, so its absolute numbers vary run to
//!   run; the per-call vs. mux *ratio* is the result. The provider
//!   behind it charges a 100 µs wall-clock device write per chunk
//!   ([`TimedProviderService`]) so the arm measures request *overlap* —
//!   the thing multiplexing buys — rather than codec microseconds.
//!
//! Run: `cargo run -p atomio-bench --release --bin exp7_ablation`

use atomio_bench::{Backend, BenchConfig, ExperimentReport, Row};
use atomio_core::{Store, StoreConfig};
use atomio_mpiio::adio::AdioDriver;
use atomio_mpiio::drivers::VersioningDriver;
use atomio_provider::{AllocationStrategy, ChunkStore};
use atomio_rpc::{dial, ProviderService, RemoteProvider, RpcConfig, RpcMode, RpcServer};
use atomio_simgrid::{Metrics, SimClock};
use atomio_types::{ChunkId, ExtentList, ProviderId};
use atomio_version::TicketMode;
use atomio_workloads::{run_write_round, OverlapWorkload};
use bytes::Bytes;
use std::sync::Arc;

const CLIENTS: usize = 16;

fn workload_extents() -> Vec<ExtentList> {
    let w = OverlapWorkload::new(CLIENTS, 32, 256 * 1024, 1, 2);
    (0..CLIENTS).map(|c| w.extents_for(c)).collect()
}

fn measure(driver: Arc<dyn AdioDriver>, extents: &[ExtentList]) -> (f64, f64, u64) {
    let clock = SimClock::new();
    let out = run_write_round(&clock, &driver, extents, true, 1, false);
    (
        out.throughput_mib_s(),
        out.elapsed.as_secs_f64(),
        out.total_bytes,
    )
}

/// Provider service for E7g whose every request costs `device` of
/// *wall-clock* time before the in-memory store runs, modeling the
/// device write a real storage node performs per chunk (~100 µs is
/// NVMe-class). Without it the in-memory handler finishes in ~1 µs and
/// the benchmark degenerates into a codec/context-switch microbenchmark
/// whose ratio tracks host load, not transport design. With it, the
/// arm measures what the mux transport is for: keeping many requests
/// in flight so their device times overlap across the server's worker
/// pool, where per-call strictly serializes them.
#[derive(Debug)]
struct TimedProviderService {
    inner: ProviderService,
    device: std::time::Duration,
}

impl atomio_rpc::Service for TimedProviderService {
    fn handle(
        &self,
        request: atomio_rpc::Request,
        payload: Bytes,
    ) -> (atomio_rpc::Response, Bytes) {
        std::thread::sleep(self.device);
        atomio_rpc::Service::handle(&self.inner, request, payload)
    }
}

fn main() {
    let cfg = BenchConfig::default();
    let extents = workload_extents();

    // --- Striping factor -------------------------------------------------
    let mut striping = ExperimentReport::new(
        "E7a",
        "ablation: striping factor (versioning, 16 clients, overlap stress)",
        "providers",
    );
    for &servers in &[1usize, 2, 4, 8, 16, 32] {
        let (driver, _) = BenchConfig { servers, ..cfg }.build(Backend::Versioning);
        let (tput, elapsed, bytes) = measure(driver, &extents);
        striping.push(Row {
            x: servers as u64,
            backend: "versioning".into(),
            throughput_mib_s: tput,
            elapsed_s: elapsed,
            bytes,
            atomic_ok: None,
        });
        eprintln!("  ... {servers} providers done");
    }
    println!("{}", striping.render_table());
    striping.save_json(atomio_bench::report::results_dir()).ok();

    // --- Publication pipeline --------------------------------------------
    let mut pipeline = ExperimentReport::new(
        "E7b",
        "ablation: pipelined vs. serialized metadata publication (versioning)",
        "clients",
    );
    for &clients in &[4usize, 8, 16, 32] {
        let w = OverlapWorkload::new(clients, 32, 256 * 1024, 1, 2);
        let ext: Vec<ExtentList> = (0..clients).map(|c| w.extents_for(c)).collect();
        for (label, mode) in [
            ("pipelined", TicketMode::Pipelined),
            ("serialized-build", TicketMode::SerializedBuild),
        ] {
            let (driver, _) = BenchConfig {
                ticket_mode: mode,
                ..cfg
            }
            .build(Backend::Versioning);
            let (tput, elapsed, bytes) = measure(driver, &ext);
            pipeline.push(Row {
                x: clients as u64,
                backend: label.into(),
                throughput_mib_s: tput,
                elapsed_s: elapsed,
                bytes,
                atomic_ok: None,
            });
        }
        eprintln!("  ... pipeline ablation {clients} clients done");
    }
    for x in pipeline.xs() {
        if let Some(s) = pipeline.speedup_at(x, "pipelined", "serialized-build") {
            pipeline.note(format!("pipelining gain at {x:>3} clients: {s:.2}x"));
        }
    }
    println!("{}", pipeline.render_table());
    pipeline.save_json(atomio_bench::report::results_dir()).ok();

    // --- Allocation strategy ----------------------------------------------
    let mut alloc = ExperimentReport::new(
        "E7c",
        "ablation: chunk allocation strategy (versioning, 16 clients)",
        "run",
    );
    for (label, strategy) in [
        ("round-robin", AllocationStrategy::RoundRobin),
        ("least-loaded", AllocationStrategy::LeastLoaded),
        ("random", AllocationStrategy::Random),
    ] {
        let store = Store::new(
            StoreConfig::default()
                .with_cost(cfg.cost)
                .with_chunk_size(cfg.chunk_size)
                .with_data_providers(cfg.servers)
                .with_meta_shards(cfg.meta_shards)
                .with_allocation(strategy)
                .with_seed(cfg.seed),
        );
        let driver: Arc<dyn AdioDriver> = Arc::new(VersioningDriver::new(store.create_blob()));
        let (tput, elapsed, bytes) = measure(driver, &extents);
        alloc.push(Row {
            x: 1,
            backend: label.into(),
            throughput_mib_s: tput,
            elapsed_s: elapsed,
            bytes,
            atomic_ok: None,
        });
        eprintln!("  ... allocation {label} done");
    }
    println!("{}", alloc.render_table());
    alloc.save_json(atomio_bench::report::results_dir()).ok();

    // --- Socket transport: per-call vs. multiplexed -----------------------
    // Aggregated RPC throughput of N concurrent clients sharing ONE
    // transport handle to one provider server over real localhost TCP.
    // Per-call serializes every round trip behind a single connection's
    // mutex; mux keeps one request per caller in flight across a pool of
    // 4 connections, demultiplexed by request id, against the server's
    // concurrent per-connection dispatch. Unlike E7a–c this arm runs on
    // real sockets in wall-clock time: absolute numbers vary with the
    // host, the mux/per-call ratio is the result.
    let mut mux = ExperimentReport::new(
        "E7g",
        "ablation: multiplexed vs. per-call TCP transport (real sockets, wall clock)",
        "clients",
    );
    mux.note(
        "throughput column = aggregated payload MiB/s over localhost TCP (wall clock); \
         per-call = one pooled connection with strict per-call framing, \
         mux = 4-connection pool with request-id demultiplexing; \
         the provider models a 100us device write per chunk, so the arm measures \
         how well each transport overlaps device time (per-call serializes it)",
    );
    const MUX_OPS_PER_CLIENT: u64 = 256;
    const MUX_PAYLOAD: usize = 4 * 1024;
    const MUX_DEVICE_US: u64 = 100;
    for &clients in &[1usize, 2, 4, 8, 16] {
        for (label, mode) in [("per-call", RpcMode::PerCall), ("mux", RpcMode::Mux)] {
            let mut server = RpcServer::start_with_config(
                "127.0.0.1:0",
                Arc::new(TimedProviderService {
                    inner: ProviderService::new(1),
                    device: std::time::Duration::from_micros(MUX_DEVICE_US),
                }),
                RpcConfig::default(),
            )
            .expect("bind E7g provider server");
            let metrics = Metrics::new();
            let transport = dial(
                server.local_addr(),
                mode,
                RpcConfig::default(),
                Some(metrics.clone()),
            );
            let start = std::time::Instant::now();
            std::thread::scope(|scope| {
                for t in 0..clients as u64 {
                    let transport = Arc::clone(&transport);
                    scope.spawn(move || {
                        let provider = RemoteProvider::new(ProviderId::new(0), transport);
                        let payload = Bytes::from(vec![t as u8; MUX_PAYLOAD]);
                        for i in 0..MUX_OPS_PER_CLIENT {
                            provider
                                .put_chunk_at(0, ChunkId::new(t << 32 | i), payload.clone())
                                .expect("E7g put");
                        }
                    });
                }
            });
            let elapsed = start.elapsed();
            let bytes = clients as u64 * MUX_OPS_PER_CLIENT * MUX_PAYLOAD as u64;
            mux.push(Row {
                x: clients as u64,
                backend: label.into(),
                throughput_mib_s: bytes as f64 / (1 << 20) as f64 / elapsed.as_secs_f64(),
                elapsed_s: elapsed.as_secs_f64(),
                bytes,
                atomic_ok: None,
            });
            if clients == 16 && mode == RpcMode::Mux {
                mux.stats = atomio_bench::report::rpc_counter_stats(&metrics);
                mux.note(
                    "stats = RPC counters of the 16-client mux arm \
                     (pool_conns, inflight_peak, mux_queue_time in ns)",
                );
            }
            server.stop();
            eprintln!("  ... transport {label} {clients} clients done");
        }
    }
    for x in mux.xs() {
        if let Some(s) = mux.speedup_at(x, "mux", "per-call") {
            mux.note(format!("mux gain at {x:>2} clients: {s:.2}x"));
        }
    }
    println!("{}", mux.render_table());
    mux.save_json(atomio_bench::report::results_dir()).ok();

    // --- Version-manager placement: in-process vs. remote service ---------
    // E7h: cost of promoting the version manager to the third deployable
    // service. N concurrent writers hammer ONE version manager with the
    // full commit round — append-ticket grant, then publication — either
    // as direct in-process calls (the Loopback deployment) or through
    // `RemoteVersionManager` proxies speaking the mux transport to a
    // `VersionService` on localhost TCP (the `atomio-version-server`
    // deployment). Like E7g this arm runs in wall-clock time on real
    // sockets: the in-process/remote *ratio* — the grant-latency price
    // of distribution, paid once per write regardless of its size — is
    // the result.
    let mut vm_place = ExperimentReport::new(
        "E7h",
        "ablation: in-process vs. remote version manager (ticket+publish rounds, wall clock)",
        "writers",
    );
    vm_place.note(
        "throughput column = ticket-grant + publish rounds per second aggregated over all \
         writers (wall clock); in-process = direct VersionManager calls, remote = \
         RemoteVersionManager over a 4-connection mux pool to a VersionService on \
         localhost TCP; all writers share one version manager (one blob)",
    );
    const VM_OPS_PER_WRITER: u64 = 256;
    const VM_CHUNK: u64 = 64 * 1024;
    let vm_root = |version: atomio_types::VersionId, capacity: u64| {
        atomio_meta::NodeKey::new(
            atomio_types::BlobId::new(1),
            version,
            atomio_types::ByteRange::new(0, capacity),
        )
    };
    for &writers in &[1usize, 2, 4, 8, 16] {
        let rounds = writers as u64 * VM_OPS_PER_WRITER;

        // In-process arm: the same participant-free entry points the
        // server dispatches to, minus the server.
        let vm = Arc::new(atomio_version::VersionManager::new(
            Arc::new(atomio_meta::VersionHistory::new()),
            atomio_meta::TreeConfig::new(VM_CHUNK),
            atomio_simgrid::CostModel::zero(),
            TicketMode::Pipelined,
        ));
        let start = std::time::Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..writers {
                let vm = Arc::clone(&vm);
                scope.spawn(move || {
                    for _ in 0..VM_OPS_PER_WRITER {
                        let known = vm.history().len();
                        let (ticket, _, _) = vm.ticket_append_local(64, known).expect("E7h ticket");
                        vm.publish_local(ticket, vm_root(ticket.version, ticket.capacity))
                            .expect("E7h publish");
                    }
                });
            }
        });
        let elapsed = start.elapsed();
        vm_place.push(Row {
            x: writers as u64,
            backend: "in-process".into(),
            throughput_mib_s: rounds as f64 / elapsed.as_secs_f64(),
            elapsed_s: elapsed.as_secs_f64(),
            bytes: rounds * 64,
            atomic_ok: None,
        });

        // Remote arm: the third service behind real sockets.
        let mut server = RpcServer::start_with_config(
            "127.0.0.1:0",
            Arc::new(atomio_rpc::VersionService::new(VM_CHUNK)),
            RpcConfig::default(),
        )
        .expect("bind E7h version server");
        let transport = dial(
            server.local_addr(),
            RpcMode::Mux,
            RpcConfig::default(),
            None,
        );
        let start = std::time::Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..writers {
                let transport = Arc::clone(&transport);
                scope.spawn(move || {
                    let vm = atomio_rpc::RemoteVersionManager::new(1, transport);
                    for _ in 0..VM_OPS_PER_WRITER {
                        let (ticket, _) = vm.ticket_append(64).expect("E7h remote ticket");
                        vm.publish(ticket, vm_root(ticket.version, ticket.capacity))
                            .expect("E7h remote publish");
                    }
                });
            }
        });
        let elapsed = start.elapsed();
        server.stop();
        vm_place.push(Row {
            x: writers as u64,
            backend: "remote".into(),
            throughput_mib_s: rounds as f64 / elapsed.as_secs_f64(),
            elapsed_s: elapsed.as_secs_f64(),
            bytes: rounds * 64,
            atomic_ok: None,
        });
        eprintln!("  ... vm placement {writers} writers done");
    }
    for x in vm_place.xs() {
        if let Some(s) = vm_place.speedup_at(x, "in-process", "remote") {
            vm_place.note(format!(
                "remote grant-round slowdown at {x:>2} writers: {s:.2}x"
            ));
        }
    }
    println!("{}", vm_place.render_table());
    vm_place.save_json(atomio_bench::report::results_dir()).ok();
}
