//! Experiment records and report rendering.
//!
//! Every experiment binary produces an [`ExperimentReport`]: a table of
//! rows (one per configuration × backend) printed as an aligned text
//! table and dumped as JSON under `results/` so `EXPERIMENTS.md` can
//! reference machine-readable outputs.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One measured configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// The sweep variable, e.g. client count or overlap percent.
    pub x: u64,
    /// Backend label.
    pub backend: String,
    /// Aggregated throughput, MiB per simulated second.
    pub throughput_mib_s: f64,
    /// Virtual time of the round, seconds.
    pub elapsed_s: f64,
    /// Total bytes moved.
    pub bytes: u64,
    /// Whether the round's final state passed the atomicity verifier
    /// (`None` when verification was skipped).
    pub atomic_ok: Option<bool>,
}

/// One named scalar statistic attached to a report — counter-style
/// bookkeeping that is not a sweep row, e.g. the per-RPC transport
/// counters (`rpc.messages`, `rpc.bytes_tx`, ...).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatEntry {
    /// Stat name, e.g. `"rpc.messages"`.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// A complete experiment result.
///
/// `Serialize`/`Deserialize` are hand-written (not derived) so the
/// `stats` section is omitted when empty: reports that never collect
/// counters keep their committed JSON byte-identical across schema
/// additions.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Experiment id ("E1", ...).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Name of the sweep variable (for the table header).
    pub x_label: String,
    /// The measured rows.
    pub rows: Vec<Row>,
    /// Free-form notes (parameters, cost model, observations).
    pub notes: Vec<String>,
    /// Named counters from a representative run (empty when not
    /// collected) — e.g. wire-transport message/byte/retry totals.
    pub stats: Vec<StatEntry>,
}

impl Serialize for ExperimentReport {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("id".to_owned(), self.id.to_value()),
            ("title".to_owned(), self.title.to_value()),
            ("x_label".to_owned(), self.x_label.to_value()),
            ("rows".to_owned(), self.rows.to_value()),
            ("notes".to_owned(), self.notes.to_value()),
        ];
        if !self.stats.is_empty() {
            fields.push(("stats".to_owned(), self.stats.to_value()));
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for ExperimentReport {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(ExperimentReport {
            id: Deserialize::from_value(v.get_or_null("id"))?,
            title: Deserialize::from_value(v.get_or_null("title"))?,
            x_label: Deserialize::from_value(v.get_or_null("x_label"))?,
            rows: Deserialize::from_value(v.get_or_null("rows"))?,
            notes: Deserialize::from_value(v.get_or_null("notes"))?,
            stats: Deserialize::from_value(v.get_or_null("stats"))?,
        })
    }
}

impl ExperimentReport {
    /// Creates an empty report.
    pub fn new(id: &str, title: &str, x_label: &str) -> Self {
        ExperimentReport {
            id: id.to_owned(),
            title: title.to_owned(),
            x_label: x_label.to_owned(),
            rows: Vec::new(),
            notes: Vec::new(),
            stats: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// Records a named counter (overwrites an existing entry with the
    /// same name so re-measured runs don't accumulate duplicates).
    pub fn stat(&mut self, name: impl Into<String>, value: u64) {
        let name = name.into();
        match self.stats.iter_mut().find(|s| s.name == name) {
            Some(s) => s.value = value,
            None => self.stats.push(StatEntry { name, value }),
        }
    }

    /// Appends a note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Speedup of `numerator` over `denominator` at sweep point `x`
    /// (ratio of throughputs), if both rows exist.
    pub fn speedup_at(&self, x: u64, numerator: &str, denominator: &str) -> Option<f64> {
        let get = |name: &str| {
            self.rows
                .iter()
                .find(|r| r.x == x && r.backend == name)
                .map(|r| r.throughput_mib_s)
        };
        match (get(numerator), get(denominator)) {
            (Some(a), Some(b)) if b > 0.0 => Some(a / b),
            _ => None,
        }
    }

    /// All distinct sweep points, in order of first appearance.
    pub fn xs(&self) -> Vec<u64> {
        let mut xs = Vec::new();
        for r in &self.rows {
            if !xs.contains(&r.x) {
                xs.push(r.x);
            }
        }
        xs
    }

    /// All distinct backends, in order of first appearance.
    pub fn backends(&self) -> Vec<String> {
        let mut bs = Vec::new();
        for r in &self.rows {
            if !bs.contains(&r.backend) {
                bs.push(r.backend.clone());
            }
        }
        bs
    }

    /// Renders the aligned text table: one line per sweep point, one
    /// throughput column per backend.
    pub fn render_table(&self) -> String {
        let backends = self.backends();
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        for note in &self.notes {
            let _ = writeln!(out, "   {note}");
        }
        let _ = write!(out, "{:>12} |", self.x_label);
        for b in &backends {
            let _ = write!(out, " {b:>22} |");
        }
        let _ = writeln!(out, "  (MiB/s, simulated)");
        let width = 14 + backends.len() * 25;
        let _ = writeln!(out, "{}", "-".repeat(width));
        for x in self.xs() {
            let _ = write!(out, "{x:>12} |");
            for b in &backends {
                match self.rows.iter().find(|r| r.x == x && r.backend == *b) {
                    Some(r) => {
                        let atomicity = match r.atomic_ok {
                            Some(true) => " ok",
                            Some(false) => " VIOLATED",
                            None => "",
                        };
                        let _ = write!(out, " {:>13.1}{atomicity:<9} |", r.throughput_mib_s);
                    }
                    None => {
                        let _ = write!(out, " {:>22} |", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        if !self.stats.is_empty() {
            let _ = writeln!(out, "-- counters (representative run) --");
            for s in &self.stats {
                let _ = writeln!(out, "{:>20} | {:>12}", s.name, s.value);
            }
        }
        out
    }

    /// Writes the report as pretty JSON under `dir` (created if needed)
    /// and returns the path.
    pub fn save_json(&self, dir: impl AsRef<Path>) -> std::io::Result<PathBuf> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id.to_lowercase()));
        std::fs::write(
            &path,
            serde_json::to_string_pretty(self).expect("serializable"),
        )?;
        Ok(path)
    }
}

/// E3, the paper's headline claim (§VI): versioning's aggregated
/// throughput is "3.5 times to 10 times higher" than locking's.
pub const PAPER_BAND: std::ops::RangeInclusive<f64> = 3.5..=10.0;

/// Versioning's speedup over lustre-lock at every multi-client sweep
/// point of a set of reports (E1 and E2), and the band they span.
#[derive(Debug, Clone)]
pub struct SpeedupBand {
    /// `(experiment id, clients, speedup)`, in report and sweep order.
    pub points: Vec<(String, u64, f64)>,
    /// Smallest speedup.
    pub min: f64,
    /// Largest speedup.
    pub max: f64,
}

impl SpeedupBand {
    /// The band over `reports`, or `None` when no report has a
    /// multi-client point with both backends. Single-client points are
    /// not a concurrency comparison and are skipped.
    pub fn of(reports: &[ExperimentReport]) -> Option<SpeedupBand> {
        let points: Vec<(String, u64, f64)> = reports
            .iter()
            .flat_map(|r| {
                r.xs().into_iter().filter(|&x| x > 1).filter_map(move |x| {
                    r.speedup_at(x, "versioning", "lustre-lock")
                        .map(|s| (r.id.clone(), x, s))
                })
            })
            .collect();
        let speedups = || points.iter().map(|p| p.2);
        let min = speedups().reduce(f64::min)?;
        let max = speedups().reduce(f64::max)?;
        Some(SpeedupBand { points, min, max })
    }

    /// Whether the measured band overlaps [`PAPER_BAND`] — the claim
    /// reproduces.
    pub fn overlaps_paper(&self) -> bool {
        self.min <= *PAPER_BAND.end() && self.max >= *PAPER_BAND.start()
    }
}

/// Extracts the reclamation statistics (`gc.*` namespace — passes,
/// versions retired, chunks/nodes evicted, bytes reclaimed, pass times,
/// live-lease gauge) from a metrics registry as flat entries, sorted by
/// name. Counters pass through; duration stats flatten to
/// `_mean_us`/`_max_us` microsecond entries and value stats to
/// `_mean`/`_peak`, keeping the report's `stats` block a uniform
/// name→u64 table. Empty when the run never ran a collector, so GC-less
/// reports (everything before E10) stay byte-identical.
pub fn gc_stat_entries(metrics: &atomio_simgrid::Metrics) -> Vec<StatEntry> {
    namespaced_stat_entries(metrics, "gc.")
}

fn namespaced_stat_entries(metrics: &atomio_simgrid::Metrics, prefix: &str) -> Vec<StatEntry> {
    let mut out: Vec<StatEntry> = metrics
        .counter_snapshot()
        .into_iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(name, value)| StatEntry { name, value })
        .collect();
    for (name, sum, count, max) in metrics.time_snapshot() {
        if !name.starts_with(prefix) || count == 0 {
            continue;
        }
        out.push(StatEntry {
            name: format!("{name}_mean_us"),
            value: (sum.as_micros() as u64) / count,
        });
        out.push(StatEntry {
            name: format!("{name}_max_us"),
            value: max.as_micros() as u64,
        });
    }
    for (name, sum, count, max) in metrics.value_snapshot() {
        if !name.starts_with(prefix) || count == 0 {
            continue;
        }
        out.push(StatEntry {
            name: format!("{name}_mean"),
            value: sum / count,
        });
        out.push(StatEntry {
            name: format!("{name}_peak"),
            value: max,
        });
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// The conventional output directory for experiment JSON.
pub fn results_dir() -> PathBuf {
    PathBuf::from(std::env::var("ATOMIO_RESULTS_DIR").unwrap_or_else(|_| "results".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentReport {
        let mut r = ExperimentReport::new("E9", "sample", "clients");
        r.push(Row {
            x: 1,
            backend: "versioning".into(),
            throughput_mib_s: 100.0,
            elapsed_s: 1.0,
            bytes: 1 << 20,
            atomic_ok: Some(true),
        });
        r.push(Row {
            x: 1,
            backend: "lustre-lock".into(),
            throughput_mib_s: 25.0,
            elapsed_s: 4.0,
            bytes: 1 << 20,
            atomic_ok: Some(true),
        });
        r.push(Row {
            x: 8,
            backend: "versioning".into(),
            throughput_mib_s: 400.0,
            elapsed_s: 1.0,
            bytes: 8 << 20,
            atomic_ok: None,
        });
        r
    }

    #[test]
    fn speedup_computation() {
        let r = sample();
        assert_eq!(r.speedup_at(1, "versioning", "lustre-lock"), Some(4.0));
        assert_eq!(r.speedup_at(8, "versioning", "lustre-lock"), None);
        assert_eq!(r.speedup_at(1, "versioning", "nope"), None);
    }

    #[test]
    fn table_lists_all_points() {
        let r = sample();
        let table = r.render_table();
        assert!(table.contains("E9"));
        assert!(table.contains("versioning"));
        assert!(table.contains("lustre-lock"));
        assert!(table.contains("100.0"));
        assert!(table.contains("400.0"));
        assert!(table.contains('-'), "missing cell placeholder");
    }

    #[test]
    fn xs_and_backends_preserve_order() {
        let r = sample();
        assert_eq!(r.xs(), vec![1, 8]);
        assert_eq!(r.backends(), vec!["versioning", "lustre-lock"]);
    }

    #[test]
    fn stats_render_roundtrip_and_overwrite() {
        let mut r = sample();
        r.stat("rpc.messages", 10);
        r.stat("rpc.bytes_tx", 4096);
        r.stat("rpc.messages", 12); // re-measured: overwrite, not append
        assert_eq!(r.stats.len(), 2);
        let table = r.render_table();
        assert!(table.contains("counters"));
        assert!(table.contains("rpc.messages"));
        assert!(table.contains("12"));
        let json = serde_json::to_string_pretty(&r).unwrap();
        let loaded: ExperimentReport = serde_json::from_str(&json).unwrap();
        assert_eq!(loaded.stats.len(), 2);
        assert_eq!(
            loaded
                .stats
                .iter()
                .find(|s| s.name == "rpc.messages")
                .map(|s| s.value),
            Some(12)
        );
    }

    #[test]
    fn gc_stat_entries_flatten_and_filter() {
        let metrics = atomio_simgrid::Metrics::new();
        metrics.counter("gc.versions_retired").add(5);
        metrics.counter("gc.bytes_reclaimed").add(4096);
        metrics.counter("core.writes").add(2); // other namespace
        metrics
            .time_stat("gc.pass_time")
            .record(std::time::Duration::from_micros(80));
        metrics.value_stat("gc.leases_active").record(1);
        metrics.value_stat("gc.leases_active").record(3);
        let stats = gc_stat_entries(&metrics);
        let get = |n: &str| stats.iter().find(|s| s.name == n).map(|s| s.value);
        assert_eq!(get("gc.versions_retired"), Some(5));
        assert_eq!(get("gc.bytes_reclaimed"), Some(4096));
        assert_eq!(get("gc.pass_time_mean_us"), Some(80));
        assert_eq!(get("gc.pass_time_max_us"), Some(80));
        assert_eq!(get("gc.leases_active_mean"), Some(2));
        assert_eq!(get("gc.leases_active_peak"), Some(3));
        assert!(get("core.writes").is_none());
        let names: Vec<&str> = stats.iter().map(|s| s.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "entries sorted by name");
        // A GC-less run contributes nothing: empty-stats omission keeps
        // every committed pre-E10 report byte-identical.
        assert!(gc_stat_entries(&atomio_simgrid::Metrics::new()).is_empty());
    }

    #[test]
    fn json_roundtrip() {
        let dir = std::env::temp_dir().join(format!("atomio-test-{}", std::process::id()));
        let r = sample();
        let path = r.save_json(&dir).unwrap();
        let loaded: ExperimentReport =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(loaded.rows.len(), r.rows.len());
        assert_eq!(loaded.id, "E9");
        std::fs::remove_dir_all(&dir).ok();
    }
}
