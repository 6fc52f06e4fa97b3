//! `atomio-wallbench`: a wall-clock benchmark of the real three-service
//! atomio stack, with a per-layer budget. See `wallbench/README.md`.
//!
//! ```text
//! atomio-wallbench --workload W --seed N --seconds S --trace 0|1   one run; the last stdout line is the result
//! atomio-wallbench [--seed N] [--seconds S] [--workload W] [--smoke] [--selfcheck]   the whole suite
//! atomio-wallbench compare BASE.json NEW.json                       verdict per (workload, metric)
//! ```

mod compare;
mod deploy;
mod mem;
mod metrics;
mod pin;
mod probes;
mod recorder;
mod trace;
mod workloads;

use deploy::Env;
use metrics::Metric;
use probes::Reading;
use serde::Value;
use std::path::{Path, PathBuf};
use std::time::Duration;
use workloads::{run_pass, PassSpec, Workload};

/// Run length the suite uses when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
const SMOKE_SECONDS: f64 = 0.5;
/// Passes per end-to-end run, each on a fresh deployment.
const ROUNDS: usize = 4;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    selfcheck: bool,
    out_dir: PathBuf,
    run_dir: Option<PathBuf>,
    benchmark: PathBuf,
    positional: Vec<String>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        smoke: false,
        selfcheck: false,
        out_dir: PathBuf::from("wallbench/out"),
        run_dir: None,
        benchmark: PathBuf::from("BENCHMARK.json"),
        positional: Vec::new(),
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => parsed.workload = Some(Workload::parse(&value()?)?),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} is outside (0, 600]"));
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--smoke" => parsed.smoke = true,
            "--selfcheck" => parsed.selfcheck = true,
            "--out-dir" => parsed.out_dir = value()?.into(),
            "--run-dir" => parsed.run_dir = Some(value()?.into()),
            "--benchmark" => parsed.benchmark = value()?.into(),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => parsed.positional.push(arg),
        }
    }
    Ok(parsed)
}

/// Time each layer probe runs for in a run sized to `seconds`.
fn probe_budget(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds * 0.02).clamp(0.05, 1.0))
}

struct Measured {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Measured {
    fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn to_json(&self) -> Vec<(String, Value)> {
        vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::UInt(self.attempted)),
            ("failed".to_string(), Value::UInt(self.failed)),
        ]
    }

    /// The result line the benchmark contract asks for.
    fn result_line(&self) -> String {
        let mut fields = self.to_json();
        fields.push(("metrics".to_string(), metrics::to_json(&self.metrics)));
        serde_json::to_string(&Value::Object(fields)).expect("a value tree always serializes")
    }
}

/// The untraced run: `rounds` passes on a fresh deployment each, together
/// sized to `seconds`. A deployment settles at its own level — file
/// layout, thread placement — so the median of rounds is steadier than one
/// long window.
fn measure_end_to_end(
    env: &Env,
    workload: Workload,
    seed: u64,
    seconds: f64,
    rounds: usize,
) -> Result<Measured, String> {
    let mut passes = Vec::new();
    let seconds = seconds / rounds as f64;
    let stock = workload.warm_stock(seconds)?;
    for round in 0..rounds {
        passes.push(run_pass(
            env,
            &PassSpec {
                workload,
                seed,
                seconds,
                traced: false,
            },
            stock.as_ref(),
        )?);
        // Progress, and what to look at when a run's numbers surprise.
        let pass = &passes[round];
        let by_window = |f: &dyn Fn(&workloads::Window) -> f64| {
            let values: Vec<String> = pass
                .windows
                .iter()
                .map(|w| format!("{:.4}", f(w)))
                .collect();
            values.join(" ")
        };
        eprintln!(
            "{} round {round}: {} ops, {} set-up(s), {} CPU ticks; by window: ops/s {}; p50 ms {}; p95 ms {}",
            workload.name(),
            pass.ops,
            pass.setup_s.len(),
            pass.cpu_ticks.iter().sum::<u64>(),
            by_window(&|w| w.ops_per_s),
            by_window(&|w| w.p50_ns / 1e6),
            by_window(&|w| w.p95_ns / 1e6),
        );
    }
    Ok(Measured {
        metrics: metrics::end_to_end(&passes, deploy::clk_tck()),
        attempted: passes.iter().map(|p| p.ops).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
        problems: passes.into_iter().flat_map(|p| p.problems).collect(),
    })
}

/// The traced run: a quarter of the ops with every client seam wrapped in
/// its decorator. Alternate blocks of eight ops record their spans; the
/// blocks in between run with recording off and are the base of `trace.overhead_share`.
fn measure_layers(
    env: &Env,
    workload: Workload,
    seed: u64,
    seconds: f64,
    probes: &[Reading],
    out_dir: &Path,
) -> Result<Measured, String> {
    let seconds = seconds / 4.0;
    let traced = run_pass(
        env,
        &PassSpec {
            workload,
            seed,
            seconds,
            traced: true,
        },
        workload.warm_stock(seconds)?.as_ref(),
    )?;
    let summary = trace::summarize(&traced.spans);
    let dump = out_dir.join(format!("trace_{}.json", workload.name()));
    trace::write_json(&dump, workload.name(), &traced.spans)
        .map_err(|e| format!("write {}: {e}", dump.display()))?;
    Ok(Measured {
        metrics: metrics::per_layer(&traced, &summary, probes, deploy::clk_tck()),
        attempted: traced.ops,
        failed: traced.failed,
        problems: traced.problems,
    })
}

fn report_problems(workload: Workload, measured: &Measured) {
    for problem in &measured.problems {
        eprintln!("INCORRECT {}: {problem}", workload.name());
    }
}

/// One run for the benchmark driver: prints the metric table, then the
/// result line. Returns whether every correctness gate held.
fn single_run(env: &Env, args: &Args, workload: Workload, traced: bool) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let measured = if traced {
        let probes = probes::run_all(env, probe_budget(seconds))?;
        measure_layers(env, workload, args.seed, seconds, &probes, &args.out_dir)?
    } else {
        measure_end_to_end(env, workload, args.seed, seconds, ROUNDS)?
    };
    metrics::print_table(
        &format!("{} (seed {}, {seconds} s)", workload.name(), args.seed),
        &measured.metrics,
    );
    report_problems(workload, &measured);
    println!("{}", measured.result_line());
    Ok(measured.correct())
}

fn end_to_end_set(
    env: &Env,
    args: &Args,
    chosen: &[Workload],
    seconds: f64,
) -> Result<(Value, bool), String> {
    let mut all_correct = true;
    let mut by_workload = Vec::new();
    for &workload in chosen {
        let rounds = if args.smoke { 1 } else { ROUNDS };
        let measured = measure_end_to_end(env, workload, args.seed, seconds, rounds)?;
        metrics::print_table(
            &format!("{} end to end", workload.name()),
            &measured.metrics,
        );
        report_problems(workload, &measured);
        all_correct &= measured.correct();
        let mut entry = measured.to_json();
        entry.push((
            "end_to_end".to_string(),
            metrics::to_json(&measured.metrics),
        ));
        by_workload.push((workload.name().to_string(), Value::Object(entry)));
    }
    Ok((Value::Object(by_workload), all_correct))
}

fn load_json(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// The whole suite. Returns the process exit code.
fn suite(env: &Env, args: &Args) -> Result<i32, String> {
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let chosen: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let header = |set: Value| {
        Value::Object(vec![
            ("seed".to_string(), Value::UInt(args.seed)),
            ("seconds".to_string(), Value::Float(seconds)),
            (
                "nproc".to_string(),
                Value::UInt(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
            ),
            ("workloads".to_string(), set),
        ])
    };

    let (first, mut all_correct) = end_to_end_set(env, args, &chosen, seconds)?;
    if args.selfcheck {
        let (second, second_correct) = end_to_end_set(env, args, &chosen, seconds)?;
        let rules = compare::rules(&load_json(&args.benchmark)?)?;
        println!("== selfcheck: second set against the first");
        let worse = compare::compare(&rules, &header(first.clone()), &header(second.clone()))?;
        let better = compare::compare(&rules, &header(second), &header(first))?;
        if !(all_correct && second_correct) {
            return Ok(1);
        }
        if worse + better > 0 {
            eprintln!("selfcheck: {} metric(s) moved by more than their bound between two runs of one commit", worse + better);
            return Ok(3);
        }
        return Ok(0);
    }

    // Per-layer: the probes once, then a traced run of each workload.
    let budget = if args.smoke {
        probe_budget(seconds)
    } else {
        Duration::from_secs(1)
    };
    let probes = probes::run_all(env, budget)?;
    let Value::Object(mut by_workload) = first else {
        unreachable!("end_to_end_set returns an object");
    };
    for (&workload, (_, entry)) in chosen.iter().zip(by_workload.iter_mut()) {
        let measured = measure_layers(env, workload, args.seed, seconds, &probes, &args.out_dir)?;
        metrics::print_table(&format!("{} per layer", workload.name()), &measured.metrics);
        report_problems(workload, &measured);
        all_correct &= measured.correct();
        if let Value::Object(fields) = entry {
            fields.push(("per_layer".to_string(), metrics::to_json(&measured.metrics)));
            fields.push(("traced".to_string(), Value::Object(measured.to_json())));
        }
    }
    let results = args.out_dir.join("results.json");
    let text = serde_json::to_string_pretty(&header(Value::Object(by_workload)))
        .expect("a value tree always serializes");
    std::fs::write(&results, text + "\n")
        .map_err(|e| format!("write {}: {e}", results.display()))?;
    println!("wrote {}", results.display());
    Ok(if all_correct { 0 } else { 1 })
}

fn run(args: Args) -> Result<i32, String> {
    if args.positional.first().map(String::as_str) == Some("compare") {
        let [_, base, new] = args.positional.as_slice() else {
            return Err("usage: compare BASE.json NEW.json".into());
        };
        let rules = compare::rules(&load_json(&args.benchmark)?)?;
        let worse = compare::compare(
            &rules,
            &load_json(Path::new(base))?,
            &load_json(Path::new(new))?,
        )?;
        return Ok(if worse > 0 { 3 } else { 0 });
    }
    if let Some(stray) = args.positional.first() {
        return Err(format!("unexpected argument {stray:?}"));
    }

    let cpu = pin::to_one_cpu().map_err(|e| format!("pin to one CPU: {e}"))?;
    eprintln!("clients and servers pinned to CPU {cpu}");
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let run_dir = args
        .run_dir
        .clone()
        .unwrap_or_else(|| args.out_dir.join(format!("run.{}", std::process::id())));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("create {}: {e}", run_dir.display()))?;
    let env = Env {
        // The server binaries are built into the same target directory.
        bin_dir: exe
            .parent()
            .expect("a binary lives in a directory")
            .to_path_buf(),
        run_dir: run_dir.clone(),
    };
    let outcome = match (args.trace, args.workload) {
        (Some(traced), Some(workload)) => {
            single_run(&env, &args, workload, traced).map(|ok| if ok { 0 } else { 1 })
        }
        (Some(_), None) => Err("--trace needs --workload".to_string()),
        (None, _) => suite(&env, &args),
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    outcome
}

fn main() {
    let code = match parse_args(std::env::args().skip(1)).and_then(run) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_arguments_parse() {
        let args = parse(&[
            "--workload",
            "tile_read",
            "--seed",
            "42",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload, Some(Workload::TileRead));
        assert_eq!(args.seed, 42);
        assert_eq!(args.seconds, Some(15.0));
        assert_eq!(args.trace, Some(true));
        assert!(!args.smoke && !args.selfcheck);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse(&["--workload", "tile"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seconds"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn default_run_length_is_the_one_benchmark_json_fixes() {
        let benchmark = load_json(Path::new(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../BENCHMARK.json"
        )))
        .unwrap();
        assert_eq!(
            benchmark.get("run_seconds"),
            Some(&Value::UInt(DEFAULT_SECONDS as u64))
        );
    }

    #[test]
    fn an_incorrect_run_is_a_non_zero_exit() {
        let measured = Measured {
            metrics: Vec::new(),
            attempted: 10,
            failed: 0,
            problems: vec!["tile_read v14 rank 2: checksum mismatch".into()],
        };
        assert!(!measured.correct());
        assert_eq!(
            measured.to_json()[0],
            ("correct".to_string(), Value::Bool(false))
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let measured = Measured {
            metrics: vec![Metric {
                name: "ops_per_s",
                unit: "1/s",
                value: 17.25,
                n: 4,
            }],
            attempted: 4,
            failed: 0,
            problems: Vec::new(),
        };
        assert_eq!(
            measured.result_line(),
            r#"{"correct":true,"attempted":4,"failed":0,"metrics":{"ops_per_s":{"value":17.25,"unit":"1/s"}}}"#
        );
    }

    #[test]
    fn probe_budget_follows_the_run_length() {
        assert_eq!(probe_budget(15.0), Duration::from_millis(300));
        assert_eq!(probe_budget(0.5), Duration::from_millis(50));
        assert_eq!(probe_budget(600.0), Duration::from_secs(1));
    }
}
