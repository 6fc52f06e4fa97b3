//! E7 — ablations of the versioning backend's design choices:
//!
//! * **Striping factor** — aggregated throughput vs. number of data
//!   providers (the paper's *data striping* principle);
//! * **Allocation strategy** — round-robin vs. least-loaded vs. random
//!   chunk placement.
//!
//! Both arms run in virtual time, so `results/e7{a,c}.json` are
//! byte-reproducible. (The arms this binary used to carry — E7b, the
//! publication-pipeline ablation whose losing mode is deleted, and the
//! wall-clock socket arms E7g and E7h — are frozen tables in
//! EXPERIMENTS.md.)
//!
//! Run: `cargo run -p atomio-bench --release --bin exp7_ablation`

use atomio_bench::{Backend, BenchConfig, ExperimentReport, Row};
use atomio_core::{Store, StoreConfig};
use atomio_mpiio::adio::AdioDriver;
use atomio_mpiio::drivers::VersioningDriver;
use atomio_provider::AllocationStrategy;
use atomio_simgrid::SimClock;
use atomio_types::ExtentList;
use atomio_workloads::{run_write_round, OverlapWorkload};
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
}
