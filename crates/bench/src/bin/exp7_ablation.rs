//! E7a — the striping factor: aggregated throughput vs. number of data
//! providers (the paper's *data striping* principle), in virtual time,
//! so `results/e7a.json` is byte-reproducible. (The arms this binary
//! used to carry — E7b, the publication-pipeline ablation, E7c, the
//! allocation-strategy ablation, whose losing modes are deleted, and
//! the wall-clock socket arms E7g and E7h — are frozen tables in
//! EXPERIMENTS.md.)
//!
//! Run: `cargo run -p atomio-bench --release --bin exp7_ablation`

use atomio_bench::{Backend, BenchConfig, ExperimentReport, Row};
use atomio_mpiio::adio::AdioDriver;
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
}
