//! # ffbench — the simulator's performance yardstick
//!
//! Host nanoseconds per simulated instruction for each wrong-path
//! technique on four workloads, with a per-layer breakdown measured from
//! outside the simulator through its public seams. See `README.md` beside
//! this file for the metric glossary and the comparison recipe.
//!
//! ```text
//! ffbench [--workload NAME] [--seed SEED] [--seconds SECS]
//! ffbench --workload NAME [--seed SEED] [--seconds SECS] --trace 0|1
//! ```
//!
//! Without `--trace`, each selected workload (all by default) runs in
//! child processes, one after another: an untraced pass for the
//! end-to-end metrics, then a traced pass for the per-layer metrics.
//!
//! With `--trace`, one pass of one workload runs in this process. It
//! prints each metric's median, min, max and sample count, and as its
//! last line a JSON result reporting the medians. It exits non-zero when
//! any simulation errors or produces a wrong result.
//!
//! Every pass runs the simulation workloads on one thread and the
//! campaign on two workers, with observability forced off.

mod calib;
mod campaign;
mod check;
mod seams;
mod sim;
mod spec;
mod stats;

use spec::{Metric, Scale, Workload};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

/// What one pass of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (simulations, campaign jobs) attempted.
    pub ops_total: u64,
    /// Operations that errored or produced a wrong result.
    pub ops_failed: u64,
    /// Why each failed operation failed, and other diagnostics.
    pub notes: Vec<String>,
    /// Samples of every metric the pass measured.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Repetitions (or campaign rounds) the pass made.
    pub reps: usize,
}

impl Outcome {
    /// Counts one operation, failed when `failure` names a reason.
    pub fn op(&mut self, failure: Option<String>) {
        self.ops_total += 1;
        if let Some(reason) = failure {
            self.ops_failed += 1;
            self.notes.push(reason);
        }
    }

    /// Adds one sample of metric `name`.
    pub fn sample(&mut self, name: impl Into<String>, value: f64) {
        self.samples.entry(name.into()).or_default().push(value);
    }

    /// The samples of metric `name`.
    pub fn samples_of(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// The value reported for metric `name`: its samples' median.
    pub fn value(&self, name: &str) -> f64 {
        let value = stats::median(self.samples_of(name));
        if value.is_finite() {
            value
        } else {
            0.0
        }
    }

    /// Keeps a diagnostic for stderr.
    pub fn note(&mut self, note: Option<String>) {
        self.notes.extend(note);
    }
}

/// `num / den`, or 0 when `den` is 0 (a layer the run never entered).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: Option<u64>,
    seconds: u64,
    trace: Option<bool>,
}

const USAGE: &str = "usage: ffbench [--workload NAME] [--seed SEED] [--seconds SECS] [--trace 0|1]";

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: None,
        seconds: 0,
        trace: None,
    };
    let mut workload = None;
    let mut argv = argv.into_iter();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = Some(number(value()?)?),
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = workload {
        args.workloads = vec![w];
    }
    if args.trace.is_some() && workload.is_none() {
        return Err("--trace runs one pass of one --workload".into());
    }
    Ok(args)
}

/// This process's peak resident memory since the last [`reset_peak_rss`]
/// (or since it started), from `/proc/self/status`.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Starts a new peak-memory window: Linux resets the high-water mark to
/// the current resident size. Where the reset is refused, the window
/// simply extends back to process start.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Samples `peak_rss_mib` for the repetition that began at the last
/// [`reset_peak_rss`], less the calibration loop's table, which stays
/// resident throughout.
pub fn sample_peak_rss(out: &mut Outcome) {
    match peak_rss_mib() {
        Some(mib) => out.sample("peak_rss_mib", mib - calib::TABLE_MIB),
        None => out.note(Some("peak_rss_mib: /proc/self/status has no VmHWM".into())),
    }
}

/// Runs one pass of `workload` in this process.
fn run_pass(workload: Workload, seed: u64, seconds: u64, traced: bool, scale: &Scale) -> Outcome {
    let seconds = Duration::from_secs(seconds);
    match workload {
        Workload::Campaign => campaign::run(seed, seconds, traced, scale),
        w => sim::run(w, seed, seconds, traced, scale),
    }
}

/// The metrics a pass reports: the end-to-end ones untraced, the
/// per-layer ones traced.
fn reported(traced: bool) -> Vec<Metric> {
    if traced {
        spec::per_layer()
    } else {
        spec::end_to_end()
    }
}

/// The pass's human-readable report: one row per metric, with the median
/// the JSON reports and the range of the samples behind it.
fn render(out: &Outcome, metrics: &[Metric]) -> String {
    let rows: Vec<Vec<String>> = metrics
        .iter()
        .map(|m| {
            let samples = out.samples_of(&m.name);
            let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
            let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let fmt = |v: f64| {
                if samples.is_empty() {
                    "-".into()
                } else {
                    format!("{v:.4}")
                }
            };
            vec![
                m.name.clone(),
                m.unit.to_string(),
                m.better.as_str().to_string(),
                fmt(out.value(&m.name)),
                fmt(min),
                fmt(max),
                samples.len().to_string(),
            ]
        })
        .collect();
    let headers = ["metric", "unit", "better", "median", "min", "max", "n"];
    ffsim_bench::render_table(&headers, &rows)
}

/// The pass's JSON result line.
fn result_json(out: &Outcome, metrics: &[Metric]) -> String {
    let values: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                spec::json_string(&m.name),
                out.value(&m.name),
                spec::json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.ops_failed == 0,
        out.ops_total,
        out.ops_failed,
        values.join(", ")
    )
}

/// Reads `(attempted, failed)` back from a line [`result_json`] printed.
fn read_result(line: &str) -> Option<(u64, u64)> {
    let field = |key: &str| -> Option<u64> {
        let rest = line.split_once(&format!("\"{key}\": "))?.1;
        rest[..rest.find(',')?].parse().ok()
    };
    Some((field("attempted")?, field("failed")?))
}

fn worker(workload: Workload, seed: u64, seconds: u64, traced: bool) -> ExitCode {
    // Observability stays off whatever the environment asks for: the
    // simulator and the campaign driver both read this switch.
    std::env::remove_var(ffsim_obs::ENV_VAR);
    let out = run_pass(workload, seed, seconds, traced, &Scale::FULL);
    let metrics = reported(traced);
    for note in &out.notes {
        eprintln!("ffbench: {note}");
    }
    println!(
        "ffbench {} seed={seed} trace={} reps={} ops_total={} ops_failed={}",
        workload.name(),
        u8::from(traced),
        out.reps,
        out.ops_total,
        out.ops_failed
    );
    print!("{}", render(&out, &metrics));
    println!("{}", result_json(&out, &metrics));
    if out.ops_failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one pass in a child process, echoing its report; why it failed,
/// if it did.
fn child(
    exe: &std::path::Path,
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<(), String> {
    let mut child = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut last = String::new();
    let mut read_error = None;
    for line in BufReader::new(stdout).lines() {
        match line {
            Ok(line) if line.starts_with('{') => last = line,
            Ok(line) => println!("{line}"),
            Err(e) => {
                read_error = Some(format!("reading the child's output: {e}"));
                let _ = child.kill();
                break;
            }
        }
    }
    let status = child.wait().map_err(|e| format!("waiting: {e}"))?;
    if let Some(e) = read_error {
        return Err(e);
    }
    let (attempted, failed) = read_result(&last).ok_or("no result line")?;
    if !status.success() || failed > 0 {
        return Err(format!("{failed} of {attempted} ops failed ({status})"));
    }
    Ok(())
}

fn orchestrate(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("ffbench: locating this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failures = Vec::new();
    for &w in &args.workloads {
        let seed = args.seed.unwrap_or(w.default_seed());
        println!("== {}: {}", w.name(), w.why());
        for traced in [false, true] {
            if let Err(e) = child(&exe, w, seed, args.seconds, traced) {
                failures.push(format!("{} trace={}: {e}", w.name(), u8::from(traced)));
            }
        }
    }
    for f in &failures {
        eprintln!("ffbench: {f}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ffbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.trace {
        Some(traced) => {
            let w = args.workloads[0];
            worker(
                w,
                args.seed.unwrap_or(w.default_seed()),
                args.seconds,
                traced,
            )
        }
        None => orchestrate(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn command_line_selects_workers_and_orchestration() {
        let a = args("--workload campaign --seed 7 --seconds 15 --trace 1").expect("valid");
        assert_eq!(a.workloads, vec![Workload::Campaign]);
        assert_eq!((a.seed, a.seconds, a.trace), (Some(7), 15, Some(true)));
        let all = args("").expect("valid");
        assert_eq!((all.workloads.len(), all.trace), (4, None));
        assert!(args("--trace 0").is_err(), "a pass needs a workload");
        assert!(args("--workload nope").is_err());
        assert!(args("--trace 2 --workload campaign").is_err());
        assert!(args("--seed").is_err());
    }

    #[test]
    fn result_line_round_trips() {
        let mut out = Outcome::default();
        out.op(None);
        out.op(Some("broken".into()));
        out.sample("setup_s", 0.25);
        out.sample("setup_s", 0.5);
        out.sample("setup_s", 0.75);
        let metrics = spec::end_to_end();
        let line = result_json(&out, &metrics);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
        assert_eq!(read_result(&line), Some((2, 1)));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"jobs_per_s\": {\"value\": 0, \"unit\": \"jobs/s\"}"));
        assert_eq!(line.matches("\"value\": ").count(), metrics.len());
    }

    /// Every workload runs both passes end to end at test scale with no
    /// failed op, and reports exactly the catalogue's metrics — which the
    /// committed BENCHMARK.json lists (see `spec`).
    #[test]
    fn every_workload_runs_at_test_scale() {
        for w in Workload::ALL {
            for traced in [false, true] {
                let out = run_pass(w, w.default_seed() + 1, 0, traced, &Scale::TEST);
                assert_eq!(
                    out.ops_failed,
                    0,
                    "{} trace={traced}: {:?}",
                    w.name(),
                    out.notes
                );
                assert!(out.ops_total > 0 && out.reps > 0);
                let want: BTreeSet<String> = reported(traced).into_iter().map(|m| m.name).collect();
                let all: BTreeSet<String> = spec::end_to_end()
                    .into_iter()
                    .chain(spec::per_layer())
                    .map(|m| m.name)
                    .collect();
                let got: BTreeSet<String> = out.samples.keys().cloned().collect();
                assert!(
                    got.is_subset(&all),
                    "{}: {:?}",
                    w.name(),
                    got.difference(&all)
                );
                let positive = |name: &str| {
                    let samples = out.samples.get(name).map_or(&[][..], Vec::as_slice);
                    !samples.is_empty() && samples.iter().all(|v| *v > 0.0)
                };
                let layer_probe = match w {
                    Workload::Campaign => "driver.warm_ms_per_job",
                    _ => "emu.fill_ns_per_instr.nowp",
                };
                if traced {
                    assert!(positive(layer_probe), "{} {layer_probe}", w.name());
                } else {
                    for name in &want {
                        assert!(positive(name), "{} {name}", w.name());
                    }
                }
            }
        }
    }
}
