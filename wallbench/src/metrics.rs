//! Metric names, units, and how each is computed from what a pass
//! measured. `BENCHMARK.json` lists the same names (a unit test pins the
//! two together); direction and bounds live only there.

use crate::probes::Reading;
use crate::trace::Summary;
use crate::workloads::{Pass, Window};
use serde::Value;

/// End-to-end metrics, reported by an untraced run of every workload.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("mib_per_s", "MiB/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("server_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by a traced run of every workload. A
/// metric whose layer a workload never enters reads 0 there.
pub const PER_LAYER: [(&str, &str); 69] = [
    // core (trace)
    ("core.write_list.self_us", "us"),
    ("core.read_list.self_us", "us"),
    ("core.chunks_per_op", "count"),
    // types (probe)
    ("types.split_tile_extents_us", "us"),
    // provider (trace)
    ("provider.put.calls_per_op", "count"),
    ("provider.put.us_per_op", "us"),
    ("provider.put.p50_us", "us"),
    ("provider.get.calls_per_op", "count"),
    ("provider.get.us_per_op", "us"),
    ("provider.get.p50_us", "us"),
    ("provider.self_us_per_op", "us"),
    // provider (probes)
    ("provider.checksum_mib_s", "MiB/s"),
    ("provider.mem_put_64k_us", "us"),
    ("provider.disk_put_2k_us", "us"),
    ("provider.disk_put_2k_synced_us", "us"),
    ("provider.disk_put_64k_us", "us"),
    ("provider.disk_get_2k_us", "us"),
    ("provider.disk_get_64k_us", "us"),
    ("provider.service_put_2k_us", "us"),
    // meta (trace)
    ("meta.put_batch.calls_per_op", "count"),
    ("meta.put_batch.nodes_per_op", "count"),
    ("meta.put_batch.us_per_op", "us"),
    ("meta.get_batch.calls_per_op", "count"),
    ("meta.get_batch.nodes_per_op", "count"),
    ("meta.get_batch.us_per_op", "us"),
    ("meta.cache_hit_share", "ratio"),
    ("meta.self_us_per_op", "us"),
    // meta (probes)
    ("meta.tree_build_256_us", "us"),
    ("meta.tree_resolve_256_us", "us"),
    ("meta.disk_put_batch_256_us", "us"),
    ("meta.disk_get_batch_256_us", "us"),
    // version (trace)
    ("version.ticket.us_per_op", "us"),
    ("version.publish.us_per_op", "us"),
    ("version.wait_published.us_per_op", "us"),
    ("version.polls_per_publish", "count"),
    ("version.snapshot.us_per_op", "us"),
    ("version.self_us_per_op", "us"),
    // version (probes)
    ("version.grant_publish_mem_us", "us"),
    ("version.grant_publish_durable_us", "us"),
    ("version.log_replay_us_per_kpublish", "us"),
    // rpc (trace)
    ("rpc.calls_per_op", "count"),
    ("rpc.tx_bytes_per_op", "B"),
    ("rpc.rx_bytes_per_op", "B"),
    ("rpc.wire_bytes_per_user_byte", "ratio"),
    ("rpc.self_us_per_op", "us"),
    ("rpc.call.p50_us.PutChunk", "us"),
    ("rpc.call.p50_us.GetChunkRange", "us"),
    ("rpc.call.p50_us.MetaPutBatch", "us"),
    ("rpc.call.p50_us.MetaGetBatch", "us"),
    ("rpc.call.p50_us.VmTicketAppend", "us"),
    ("rpc.call.p50_us.VmTicket", "us"),
    ("rpc.call.p50_us.VmPublish", "us"),
    ("rpc.call.p50_us.VmIsPublished", "us"),
    ("rpc.call.p50_us.VmSnapshot", "us"),
    // rpc (probes)
    ("rpc.encode_put_header_ns", "ns"),
    ("rpc.decode_put_header_ns", "ns"),
    ("rpc.frame_write_64k_ns", "ns"),
    ("rpc.frame_read_64k_ns", "ns"),
    ("rpc.loopback_roundtrip_us", "us"),
    ("rpc.tcp_roundtrip_us", "us"),
    // rpc (processes)
    ("rpc.cpu_us_per_op.client", "us"),
    ("rpc.cpu_us_per_op.provider", "us"),
    ("rpc.cpu_us_per_op.meta", "us"),
    ("rpc.cpu_us_per_op.version", "us"),
    // durability and space (tile_write)
    ("recover_s", "s"),
    ("stored_bytes_per_user_byte", "ratio"),
    // validity of the budget itself
    ("trace.self_sum_error_share", "ratio"),
    ("trace.unspanned_call_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// One measured metric: name, unit, value, samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub n: u64,
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

const MIB: f64 = (1u64 << 20) as f64;

/// The best of `values`: the lowest, or the highest when
/// `higher_is_better`. The shared host this benchmark runs on only ever
/// adds time, in bursts and in phases of seconds to minutes, so of four
/// rounds the best is the one that says what the program does; a median
/// of four moves when the host disturbed two, this does not until it
/// disturbed all four.
fn best(values: &[f64], higher_is_better: bool) -> f64 {
    let pick = if higher_is_better { f64::max } else { f64::min };
    values.iter().copied().reduce(pick).unwrap_or(0.0)
}

/// One number from a value per (round, window): window position by window
/// position, the [`best`] over the rounds, then the mean over the
/// positions. A round's first window is not its last — `tile_write` slows
/// by a tenth as its history grows — so the best over all windows alike
/// would read the first ones only.
fn quiet_profile(by_round: &[Vec<f64>], higher_is_better: bool) -> f64 {
    let positions = by_round.iter().map(Vec::len).min().unwrap_or(0);
    let by_position = (0..positions).map(|i| {
        let column: Vec<f64> = by_round.iter().map(|round| round[i]).collect();
        best(&column, higher_is_better)
    });
    per(by_position.sum(), positions as u64)
}

/// The end-to-end metrics of an untraced run: `rounds` independent passes
/// (fresh deployment each), each cut into windows of consecutive ops (see
/// `workloads::windows`). Rate, median latency and tail latency are the
/// [`quiet_profile`] of the windows' own; CPU per op is the [`best`] of
/// the rounds' (a process's CPU time is read once per round), and so is
/// set-up time: a round's median set-up plus its warm-up, everything from
/// spawning the servers to the first timed op. Memory is a median.
/// `clk_tck` is the kernel's clock ticks per second.
pub fn end_to_end(rounds: &[Pass], clk_tck: f64) -> Vec<Metric> {
    let over_windows = |f: &dyn Fn(&Window) -> f64, higher_is_better| {
        let by_round: Vec<Vec<f64>> = rounds
            .iter()
            .map(|p| p.windows.iter().map(f).collect())
            .collect();
        quiet_profile(&by_round, higher_is_better)
    };
    let over_rounds = |f: &dyn Fn(&Pass) -> f64| rounds.iter().map(f).collect::<Vec<_>>();
    let count = |f: &dyn Fn(&Pass) -> usize| rounds.iter().map(f).sum::<usize>() as u64;
    let (n_setups, n_windows) = (count(&|p| p.setup_s.len()), count(&|p| p.windows.len()));
    let ops: u64 = rounds.iter().map(|p| p.ops).sum();
    let user_bytes: u64 = rounds.iter().map(|p| p.user_bytes).sum();
    let ops_per_s = over_windows(&|w| w.ops_per_s, true);
    let cpu_ms = |p: &Pass| {
        per(
            p.cpu_ticks.iter().sum::<u64>() as f64 * 1e3 / clk_tck,
            p.ops,
        )
    };
    let values = [
        (
            best(&over_rounds(&|p| median(&p.setup_s) + p.warmup_s), false),
            n_setups,
        ),
        (ops_per_s, n_windows),
        (ops_per_s * per(user_bytes as f64 / MIB, ops), n_windows),
        (over_windows(&|w| w.p50_ns / 1e6, false), n_windows),
        (over_windows(&|w| w.p95_ns / 1e6, false), n_windows),
        (best(&over_rounds(&cpu_ms), false), ops),
        (
            median(&over_rounds(&|p| p.server_rss_kib as f64 / 1024.0)),
            rounds.len() as u64,
        ),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, n))| Metric {
            name,
            unit,
            value,
            n,
        })
        .collect()
}

/// The per-layer metrics of one workload: `traced` is the pass run with
/// every client seam wrapped, `summary` its folded spans (half the ops'
/// — `ops` below counts those), `probes` the layer-probe readings.
pub fn per_layer(
    traced: &Pass,
    summary: &Summary,
    probes: &[Reading],
    clk_tck: f64,
) -> Vec<Metric> {
    let ops = summary.roots;
    let us = |ns: u64| ns as f64 / 1e3;
    let value_of = |name: &str| -> (f64, u64) {
        if let Some(&(_, value, n)) = probes.iter().find(|(probe, _, _)| *probe == name) {
            return (value, n);
        }
        if let Some(call) = name.strip_prefix("rpc.call.p50_us.") {
            let stats = summary.get(&format!("rpc.call.{call}"));
            return (stats.durations.quantile_ns(0.5) / 1e3, stats.calls);
        }
        if let Some(process) = name.strip_prefix("rpc.cpu_us_per_op.") {
            let i = ["client", "provider", "meta", "version"]
                .iter()
                .position(|p| *p == process)
                .expect("a process name");
            return (
                per(traced.cpu_ticks[i] as f64 * 1e6 / clk_tck, traced.ops),
                traced.ops,
            );
        }
        // `<span>.<aggregate>` over one span name.
        for (suffix, pick) in [
            (".calls_per_op", 0),
            (".nodes_per_op", 1),
            (".us_per_op", 2),
            (".p50_us", 3),
            (".self_us", 4),
        ] {
            let Some(span) = name.strip_suffix(suffix) else {
                continue;
            };
            if !summary.by_name.contains_key(span) {
                continue;
            }
            let stats = summary.get(span);
            let value = match pick {
                0 => per(stats.calls as f64, ops),
                1 => per(stats.items as f64, ops),
                2 => per(us(stats.total_ns), ops),
                3 => stats.durations.quantile_ns(0.5) / 1e3,
                _ => per(us(stats.self_ns), ops),
            };
            return (value, stats.calls);
        }
        match name {
            "core.chunks_per_op" => (traced.chunks_per_op, traced.ops),
            "meta.cache_hit_share" => (traced.cache_hit_share, traced.ops),
            "provider.self_us_per_op" => (per(us(summary.self_ns_under("provider.")), ops), ops),
            "meta.self_us_per_op" => (per(us(summary.self_ns_under("meta.")), ops), ops),
            "version.self_us_per_op" => (per(us(summary.self_ns_under("version.")), ops), ops),
            "rpc.self_us_per_op" => (per(us(summary.self_ns_under("rpc.")), ops), ops),
            "version.polls_per_publish" => {
                let publishes = summary.get("version.publish").calls;
                (
                    per(
                        summary.get("rpc.call.VmIsPublished").calls as f64,
                        publishes,
                    ),
                    publishes,
                )
            }
            // The transport's own counters cover every op of the pass.
            "rpc.calls_per_op" => (per(traced.rpc_calls as f64, traced.ops), traced.ops),
            "rpc.tx_bytes_per_op" => (per(traced.rpc_tx_bytes as f64, traced.ops), traced.ops),
            "rpc.rx_bytes_per_op" => (per(traced.rpc_rx_bytes as f64, traced.ops), traced.ops),
            "rpc.wire_bytes_per_user_byte" => (
                per(
                    (traced.rpc_tx_bytes + traced.rpc_rx_bytes) as f64,
                    traced.user_bytes,
                ),
                traced.ops,
            ),
            "recover_s" => (traced.recover_s, 1),
            "stored_bytes_per_user_byte" => (traced.stored_bytes_per_user_byte, 1),
            "trace.self_sum_error_share" => (summary.self_sum_error_share(), ops),
            "trace.unspanned_call_share" => {
                // Round trips the transport counted that no span covers:
                // half the ops are not recorded, so anything beyond that
                // half is client work that left the op's own thread.
                let spanned: u64 = summary
                    .by_name
                    .iter()
                    .filter(|(name, _)| name.starts_with("rpc.call."))
                    .map(|(_, s)| s.calls)
                    .sum();
                let expected = per(traced.rpc_calls as f64 * ops as f64, traced.ops);
                (
                    if expected > 0.0 {
                        1.0 - spanned as f64 / expected
                    } else {
                        0.0
                    },
                    traced.rpc_calls,
                )
            }
            "trace.overhead_share" => {
                let plain = traced.latency_plain.quantile_ns(0.5);
                let spanned = traced.latency_spanned.quantile_ns(0.5);
                (
                    if plain > 0.0 {
                        (spanned - plain) / plain
                    } else {
                        0.0
                    },
                    ops,
                )
            }
            // A span this workload never opened, or a probe that did not run.
            _ => (0.0, 0),
        }
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let (value, n) = value_of(name);
            Metric {
                name,
                unit,
                value,
                n,
            }
        })
        .collect()
}

/// `name unit value (n=…)`, one metric per line.
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("== {title}");
    for m in metrics {
        println!("{:<40} {:>7} {:>16.4} (n={})", m.name, m.unit, m.value, m.n);
    }
}

/// `{name: {"value": v, "unit": u}}` in table order.
pub fn to_json(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Float(m.value)),
                        ("unit".to_string(), Value::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_and_units(list: &Value) -> Vec<(String, String)> {
        let Value::Array(items) = list else {
            panic!("expected a list, got {}", list.kind());
        };
        items
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(Value::Str(name)), Some(Value::Str(unit))) => (name.clone(), unit.clone()),
                _ => panic!("metric without name/unit: {m:?}"),
            })
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let benchmark: Value = serde_json::from_str(&text).unwrap();
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(
            names_and_units(benchmark.get_or_null("end_to_end")),
            own(&END_TO_END)
        );
        assert_eq!(
            names_and_units(benchmark.get_or_null("per_layer")),
            own(&PER_LAYER)
        );
        let workloads: Vec<String> = match benchmark.get_or_null("workloads") {
            Value::Array(items) => items
                .iter()
                .map(|w| match w.get("name") {
                    Some(Value::Str(name)) => name.clone(),
                    _ => panic!("workload without a name"),
                })
                .collect(),
            other => panic!("workloads is {}", other.kind()),
        };
        let own_workloads: Vec<String> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, own_workloads);
    }

    #[test]
    fn best_is_the_lowest_or_the_highest() {
        assert_eq!(best(&[3.0, 1.0, 2.0], false), 1.0);
        assert_eq!(best(&[3.0, 1.0, 2.0], true), 3.0);
        assert_eq!(best(&[], false), 0.0);
    }

    #[test]
    fn quiet_profile_keeps_the_trend_and_drops_the_disturbed_rounds() {
        // Four rounds whose windows slow from 10 to 13; one round is
        // disturbed throughout, two more in some of their windows.
        let by_round = vec![
            vec![10.0, 16.0, 12.0, 18.0],
            vec![15.0, 16.0, 17.0, 18.0],
            vec![10.2, 11.0, 17.0, 19.0],
            vec![14.0, 11.1, 12.1, 13.0],
        ];
        assert!((quiet_profile(&by_round, false) - (10.0 + 11.0 + 12.0 + 13.0) / 4.0).abs() < 1e-9);
        // Rates: the highest of each column.
        assert!((quiet_profile(&by_round, true) - (15.0 + 16.0 + 17.0 + 19.0) / 4.0).abs() < 1e-9);
        // Rounds of unequal length (fewer ops than windows) share a prefix.
        assert_eq!(quiet_profile(&[vec![1.0, 2.0], vec![3.0]], false), 1.0);
        assert_eq!(quiet_profile(&[], false), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
