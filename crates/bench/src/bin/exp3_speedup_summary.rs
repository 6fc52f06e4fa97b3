//! E3 — the paper's headline quantitative claim, checked:
//!
//! "It achieved an aggregated throughput ranging from 3.5 times to 10
//! times higher in several experimental setups" (paper, §VI).
//!
//! Reads the JSON produced by E1 and E2 and reports the versioning /
//! lustre-lock speedup for every multi-client configuration, flagging
//! where the measured band sits relative to the paper's 3.5x–10x. The
//! same computation ([`SpeedupBand`]) over the committed JSON is a test
//! of `atomio-bench`, so the claim is checked on every gate run.
//!
//! Run E1 and E2 first, then:
//! `cargo run -p atomio-bench --release --bin exp3_speedup_summary`

use atomio_bench::report::{results_dir, ExperimentReport, SpeedupBand, PAPER_BAND};

fn main() {
    let dir = results_dir();
    let mut reports = Vec::new();
    for id in ["e1", "e2"] {
        let path = dir.join(format!("{id}.json"));
        let Ok(text) = std::fs::read_to_string(&path) else {
            eprintln!(
                "missing {} — run exp1_scalability / exp2_tile_io first",
                path.display()
            );
            continue;
        };
        let report: ExperimentReport =
            serde_json::from_str(&text).expect("well-formed experiment JSON");
        reports.push(report);
    }

    let Some(band) = SpeedupBand::of(&reports) else {
        eprintln!("no data — nothing to summarize");
        std::process::exit(1);
    };

    println!("== E3 — versioning vs. lustre-lock speedup summary ==");
    println!("   paper claim: 3.5x to 10x across experimental setups\n");
    println!("{:>6} {:>10} {:>10}  band", "exp", "clients", "speedup");
    let mut in_band = 0usize;
    for (id, x, s) in &band.points {
        let marker = if PAPER_BAND.contains(s) {
            in_band += 1;
            "within paper band"
        } else if s > PAPER_BAND.end() {
            "above paper band (stronger win)"
        } else {
            "below paper band"
        };
        println!("{id:>6} {x:>10} {s:>9.2}x  {marker}");
    }
    println!(
        "\nmeasured band: {:.2}x – {:.2}x over {} configurations ({in_band} inside 3.5x–10x)",
        band.min,
        band.max,
        band.points.len()
    );
    println!(
        "the paper's claim reproduces when the measured band overlaps 3.5x–10x: {}",
        if band.overlaps_paper() { "YES" } else { "NO" }
    );
}
