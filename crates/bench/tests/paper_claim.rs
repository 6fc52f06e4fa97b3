//! E3 as a test: the paper's headline claim, checked against the
//! committed `results/e1.json` and `results/e2.json` (which
//! `scripts/check_results.sh` holds byte-identical to a fresh run).

use atomio_bench::report::{ExperimentReport, SpeedupBand};
use std::path::Path;

fn committed(id: &str) -> ExperimentReport {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(format!("{id}.json"));
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    serde_json::from_str(&text).expect("well-formed experiment JSON")
}

#[test]
fn versioning_speedup_band_overlaps_the_papers_3_5x_to_10x() {
    let band = SpeedupBand::of(&[committed("e1"), committed("e2")])
        .expect("E1 and E2 have multi-client points with both backends");
    assert!(
        band.overlaps_paper(),
        "measured band {:.2}x–{:.2}x misses the paper's 3.5x–10x",
        band.min,
        band.max
    );
    for (id, clients, speedup) in &band.points {
        assert!(
            *speedup > 1.0,
            "{id} at {clients} clients: versioning is not faster than locking ({speedup:.2}x)"
        );
    }
    // Both experiments contribute: the band is not one series' alone.
    for id in ["E1", "E2"] {
        assert!(band.points.iter().any(|p| p.0 == id), "no {id} point");
    }
}
