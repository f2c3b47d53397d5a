//! **§V-B** — simulation speed of the four techniques, normalized to the
//! no-wrong-path model (host wall-clock time).
//!
//! Paper result: SPEC slowdowns 1.12× (instrec), 1.13× (conv), 2.1×
//! (wpemul, up to 16.2×); branch-miss-heavy GAP slowdowns 3.2×, 4.0×,
//! and 13.1× (up to 157×). The reconstruction techniques burden only the
//! performance simulator; emulation burdens the functional simulator.
//!
//! Each benchmark × technique entry is timed [`RUNS`] times, in
//! interleaved rounds so that host drift hits every technique alike, and
//! reports the median.
//!
//! `--techniques <label,...>` restricts the slowdown columns to a subset
//! of the registered techniques. The no-wrong-path model is the
//! normalization baseline, so it always runs even when filtered out.
//!
//! `--json PATH` additionally writes the measurements as
//! `BENCH_speed.json`: slowdowns as `slowdown_x100` scaled integers and
//! baselines as `nowp_us` microseconds (the report JSON dialect has no
//! floats). `results_check` validates the committed copy's schema.

use ffsim_bench::{
    gap_suite, mean, parse_techniques, render_table, run_mode, spec_suite, GAP_MAX_INSTRUCTIONS,
    SPEC_MAX_INSTRUCTIONS,
};
use ffsim_core::WrongPathMode;
use ffsim_obs::json::Value;
use ffsim_uarch::CoreConfig;
use ffsim_workloads::Workload;
use std::path::PathBuf;

/// `BENCH_speed.json` schema version; bump on structural change.
const JSON_VERSION: i64 = 1;

/// Timed runs per benchmark × technique; an entry is their median.
const RUNS: usize = 3;

/// One benchmark's measurements: baseline wall-clock and per-technique
/// slowdown, both exact enough for the text report and the JSON artifact.
struct BenchRow {
    benchmark: String,
    nowp_us: i64,
    /// Parallel to the selected `modes`.
    slowdowns: Vec<f64>,
}

struct SuiteResult {
    suite: &'static str,
    rows: Vec<BenchRow>,
}

fn measure(
    modes: &[WrongPathMode],
    workloads: &[&Workload],
    max_instructions: u64,
    suite: &'static str,
) -> SuiteResult {
    let core = CoreConfig::golden_cove_like();
    let timed: Vec<WrongPathMode> = std::iter::once(WrongPathMode::NoWrongPath)
        .chain(modes.iter().copied())
        .collect();
    let rows = workloads
        .iter()
        .map(|w| {
            let mut times = vec![Vec::with_capacity(RUNS); timed.len()];
            for _ in 0..RUNS {
                for (t, &mode) in times.iter_mut().zip(&timed) {
                    t.push(run_mode(w, &core, mode, max_instructions).wall_time);
                }
            }
            let medians: Vec<f64> = times
                .into_iter()
                .map(|mut t| {
                    t.sort();
                    t[RUNS / 2].as_secs_f64()
                })
                .collect();
            let nowp = medians[0];
            let slowdowns = medians[1..]
                .iter()
                .map(|&t| if nowp == 0.0 { 1.0 } else { t / nowp })
                .collect();
            BenchRow {
                benchmark: w.name().to_string(),
                nowp_us: (nowp * 1e6).round() as i64,
                slowdowns,
            }
        })
        .collect();
    SuiteResult { suite, rows }
}

/// Prints `result`'s table and mean slowdowns; nothing when `--benchmarks`
/// left the suite empty.
fn report(label: &str, modes: &[WrongPathMode], result: &SuiteResult) {
    if result.rows.is_empty() {
        return;
    }
    let rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| {
            let mut row = vec![r.benchmark.clone()];
            row.extend(r.slowdowns.iter().map(|s| format!("{s:.2}x")));
            row.push(format!("{:.1}ms", r.nowp_us as f64 / 1000.0));
            row
        })
        .collect();
    println!("--- {label} ---");
    let mut headers = vec!["benchmark"];
    headers.extend(modes.iter().map(|m| m.label()));
    headers.push("nowp time");
    println!("{}", render_table(&headers, &rows));
    let summary: Vec<String> = modes
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let slow: Vec<f64> = result.rows.iter().map(|r| r.slowdowns[i]).collect();
            let max = slow.iter().copied().fold(0.0f64, f64::max);
            format!("{} {:.2}x (max {max:.2}x)", m.label(), mean(&slow))
        })
        .collect();
    println!("average slowdown: {}\n", summary.join(", "));
}

/// The techniques ordered by their mean slowdown over `result`'s rows,
/// with `nowp` at 1.00x, e.g. `nowp 1.00x < instrec 2.17x < conv 2.85x`.
/// Means equal to two decimals are joined by `=`.
fn ordering(modes: &[WrongPathMode], result: &SuiteResult) -> String {
    let mut means: Vec<(&str, f64)> = vec![(WrongPathMode::NoWrongPath.label(), 1.0)];
    means.extend(modes.iter().enumerate().map(|(i, m)| {
        let slow: Vec<f64> = result.rows.iter().map(|r| r.slowdowns[i]).collect();
        (m.label(), mean(&slow))
    }));
    means.sort_by(|a, b| a.1.total_cmp(&b.1));
    let mut out = String::new();
    for (i, (label, m)) in means.iter().enumerate() {
        if i > 0 {
            out.push_str(if x100(*m) == x100(means[i - 1].1) {
                " = "
            } else {
                " < "
            });
        }
        out.push_str(&format!("{label} {m:.2}x"));
    }
    out
}

fn x100(value: f64) -> i64 {
    (value * 100.0).round() as i64
}

fn suite_json(modes: &[WrongPathMode], result: &SuiteResult) -> Value {
    let benchmarks: Vec<Value> = result
        .rows
        .iter()
        .map(|r| {
            let slowdowns: Vec<Value> = modes
                .iter()
                .zip(&r.slowdowns)
                .map(|(m, &s)| {
                    Value::Obj(vec![
                        ("technique".into(), Value::Str(m.label().into())),
                        ("slowdown_x100".into(), Value::Int(x100(s))),
                    ])
                })
                .collect();
            Value::Obj(vec![
                ("benchmark".into(), Value::Str(r.benchmark.clone())),
                ("nowp_us".into(), Value::Int(r.nowp_us)),
                ("slowdowns".into(), Value::Arr(slowdowns)),
            ])
        })
        .collect();
    let summary: Vec<Value> = modes
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let slow: Vec<f64> = result.rows.iter().map(|r| r.slowdowns[i]).collect();
            let max = slow.iter().copied().fold(0.0f64, f64::max);
            Value::Obj(vec![
                ("technique".into(), Value::Str(m.label().into())),
                ("mean_slowdown_x100".into(), Value::Int(x100(mean(&slow)))),
                ("max_slowdown_x100".into(), Value::Int(x100(max))),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("suite".into(), Value::Str(result.suite.into())),
        ("benchmarks".into(), Value::Arr(benchmarks)),
        ("summary".into(), Value::Arr(summary)),
    ])
}

struct Args {
    modes: Vec<WrongPathMode>,
    benchmarks: Option<Vec<String>>,
    json: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut modes: Option<Vec<WrongPathMode>> = None;
    let mut benchmarks = None;
    let mut json = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--techniques" => {
                let spec = argv.next().ok_or("--techniques needs a value")?;
                modes = Some(parse_techniques(&spec)?);
            }
            "--benchmarks" => {
                let spec = argv.next().ok_or("--benchmarks needs a value")?;
                let names: Vec<String> = spec
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
                if names.is_empty() {
                    return Err("--benchmarks needs at least one name".into());
                }
                benchmarks = Some(names);
            }
            "--json" => json = Some(PathBuf::from(argv.next().ok_or("--json needs a value")?)),
            other => {
                return Err(format!(
                    "unknown argument: {other} (supported: --techniques <label,...>, \
                     --benchmarks <name,...>, --json PATH)"
                ))
            }
        }
    }
    Ok(Args {
        modes: modes.unwrap_or_else(|| WrongPathMode::ALL.to_vec()),
        benchmarks,
        json,
    })
}

/// Applies the `--benchmarks` filter, erroring on names that match nothing
/// in either suite (catches typos before a long measurement run).
fn filter_workloads<'a>(
    workloads: Vec<&'a Workload>,
    filter: Option<&[String]>,
) -> Vec<&'a Workload> {
    match filter {
        None => workloads,
        Some(names) => workloads
            .into_iter()
            .filter(|w| names.iter().any(|n| n == w.name()))
            .collect(),
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("speed_comparison: {e}");
        std::process::exit(2);
    });
    let modes: Vec<WrongPathMode> = args
        .modes
        .iter()
        .copied()
        .filter(|&m| m != WrongPathMode::NoWrongPath)
        .collect();

    println!("SECTION V-B: simulation speed, normalized to the nowp model\n");
    let filter = args.benchmarks.as_deref();
    let gap = gap_suite();
    let gap_workloads = filter_workloads(gap.iter().collect(), filter);
    let spec = spec_suite();
    let spec_workloads = filter_workloads(spec.iter().map(|k| &k.workload).collect(), filter);
    if let Some(names) = filter {
        let known = |n: &String| {
            gap_workloads
                .iter()
                .chain(&spec_workloads)
                .any(|w| w.name() == *n)
        };
        if let Some(bad) = names.iter().find(|n| !known(n)) {
            eprintln!("speed_comparison: unknown benchmark: {bad}");
            std::process::exit(2);
        }
    }
    let gap_result = measure(&modes, &gap_workloads, GAP_MAX_INSTRUCTIONS, "GAP");
    report("GAP (branch-miss heavy)", &modes, &gap_result);
    let spec_result = measure(&modes, &spec_workloads, SPEC_MAX_INSTRUCTIONS, "SPEC-like");
    report("SPEC-like", &modes, &spec_result);
    println!("paper: SPEC 1.12x / 1.13x / 2.1x;  GAP 3.2x / 4.0x / 13.1x");
    println!("(absolute host ratios differ: our in-process emulator makes wrong-path");
    println!("emulation far cheaper than Pin checkpoint/inject)");
    for (label, result) in [("GAP", &gap_result), ("SPEC-like", &spec_result)] {
        if !result.rows.is_empty() {
            println!("measured {label} ordering: {}", ordering(&modes, result));
        }
    }

    if let Some(path) = args.json {
        let doc = Value::Obj(vec![
            ("version".into(), Value::Int(JSON_VERSION)),
            (
                "suites".into(),
                Value::Arr(vec![
                    suite_json(&modes, &gap_result),
                    suite_json(&modes, &spec_result),
                ]),
            ),
        ]);
        if let Err(e) = std::fs::write(&path, doc.to_json()) {
            eprintln!("speed_comparison: writing {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("speed_comparison: wrote {}", path.display());
    }
}
