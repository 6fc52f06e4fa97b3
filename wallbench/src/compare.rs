//! `compare A.json B.json`: one row per (workload, end-to-end metric)
//! with base, new, ratio and a verdict against the bound `BENCHMARK.json`
//! fixes for that metric.

use serde::Value;

/// Seconds-valued metrics (`setup_s`) also need this much absolute change
/// before a relative move counts: 25 % of 80 ms is scheduler noise.
const SECONDS_FLOOR: f64 = 0.1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Worse,
    Better,
    WithinBound,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
        }
    }
}

/// One end-to-end metric's rule, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(x) => Some(*x),
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        _ => None,
    }
}

fn text(v: &Value, key: &str) -> Result<String, String> {
    match v.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        _ => Err(format!("missing string field {key:?}")),
    }
}

/// Reads the `end_to_end` rules of a parsed `BENCHMARK.json`.
pub fn rules(benchmark: &Value) -> Result<Vec<Rule>, String> {
    let Some(Value::Array(items)) = benchmark.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    items
        .iter()
        .map(|m| {
            Ok(Rule {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                higher_is_better: match text(m, "better")?.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("better is {other:?}")),
                },
                bound: m.get("bound").and_then(number).ok_or("missing bound")?,
            })
        })
        .collect()
}

/// Judges `new` against `base` under `rule`.
pub fn judge(rule: &Rule, base: f64, new: f64) -> Verdict {
    let floor = if rule.unit == "s" { SECONDS_FLOOR } else { 0.0 };
    let (gain, loss) = if rule.higher_is_better {
        (new - base, base - new)
    } else {
        (base - new, new - base)
    };
    let limit = (rule.bound * base.abs()).max(floor);
    if loss > limit {
        Verdict::Worse
    } else if gain > limit {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn metric_value(results: &Value, workload: &str, metric: &str) -> Option<f64> {
    results
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("value")
        .and_then(number)
}

/// Prints the comparison table; returns how many rows were `worse`.
pub fn compare(rules: &[Rule], base: &Value, new: &Value) -> Result<usize, String> {
    let Some(Value::Object(workloads)) = base.get("workloads") else {
        return Err("base results have no workloads".into());
    };
    println!(
        "{:<14} {:<16} {:>7} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "unit", "base", "new", "ratio"
    );
    let mut worse = 0;
    for (workload, _) in workloads {
        for rule in rules {
            let (Some(a), Some(b)) = (
                metric_value(base, workload, &rule.name),
                metric_value(new, workload, &rule.name),
            ) else {
                println!("{workload:<14} {:<16} missing on one side", rule.name);
                continue;
            };
            let verdict = judge(rule, a, b);
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "{workload:<14} {:<16} {:>7} {a:>14.4} {b:>14.4} {:>8.3}  {}",
                rule.name,
                rule.unit,
                b / a,
                verdict.label()
            );
        }
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(name: &str, unit: &str, higher_is_better: bool, bound: f64) -> Rule {
        Rule {
            name: name.into(),
            unit: unit.into(),
            higher_is_better,
            bound,
        }
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let throughput = rule("ops_per_s", "1/s", true, 0.10);
        assert_eq!(judge(&throughput, 100.0, 95.0), Verdict::WithinBound);
        assert_eq!(judge(&throughput, 100.0, 89.0), Verdict::Worse);
        assert_eq!(judge(&throughput, 100.0, 111.0), Verdict::Better);
        let latency = rule("op_p50_ms", "ms", false, 0.10);
        assert_eq!(judge(&latency, 50.0, 54.0), Verdict::WithinBound);
        assert_eq!(judge(&latency, 50.0, 56.0), Verdict::Worse);
        assert_eq!(judge(&latency, 50.0, 44.0), Verdict::Better);
    }

    #[test]
    fn seconds_need_a_tenth_of_a_second_too() {
        let setup = rule("setup_s", "s", false, 0.25);
        // +50 % of 80 ms is 40 ms: under the absolute floor.
        assert_eq!(judge(&setup, 0.08, 0.12), Verdict::WithinBound);
        assert_eq!(judge(&setup, 0.08, 0.20), Verdict::Worse);
        // On a 2 s set-up the relative bound is the binding one.
        assert_eq!(judge(&setup, 2.0, 2.4), Verdict::WithinBound);
        assert_eq!(judge(&setup, 2.0, 2.6), Verdict::Worse);
    }

    #[test]
    fn compare_counts_worse_rows() {
        let results = |ops: f64| -> Value {
            serde_json::from_str(&format!(
                r#"{{"workloads":{{"tile_write":{{"end_to_end":{{"ops_per_s":{{"value":{ops},"unit":"1/s"}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let rules = [rule("ops_per_s", "1/s", true, 0.10)];
        assert_eq!(compare(&rules, &results(17.5), &results(17.0)), Ok(0));
        assert_eq!(compare(&rules, &results(17.5), &results(12.0)), Ok(1));
    }

    #[test]
    fn rules_parse_from_benchmark_json() {
        let benchmark: Value = serde_json::from_str(
            r#"{"end_to_end":[{"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        assert_eq!(
            rules(&benchmark),
            Ok(vec![rule("ops_per_s", "1/s", true, 0.1)])
        );
        assert!(rules(&Value::Null).is_err());
    }
}
