//! Verifies that the committed `results_*.txt` files at the repository
//! root match what the bench binaries produce today.
//!
//! Committed results silently drift when the simulator changes; this check
//! regenerates each file by running the corresponding bench binary (found
//! next to this executable in the target directory) and diffs its stdout
//! against the committed copy. Cargo's own stderr chatter (`Finished`,
//! `Running`, …) that was captured into some committed files is stripped
//! before comparison.
//!
//! ```text
//! results_check [--only NAME] [--volatile] [--update]
//!               [--speed-tolerance PCT] [--repo-root PATH]
//! ```
//!
//! `results_speed.txt` contains host wall-clock timings and is skipped
//! unless `--volatile` is given. `--update` rewrites the committed files
//! from the regenerated output instead of failing.
//!
//! `--only bench_speed` doubles as the **speed regression gate**: it
//! re-measures the benchmark suite and fails when any per-technique mean
//! slowdown exceeds the committed `BENCH_speed.json` value by more than
//! `--speed-tolerance` percent (default 30).
//!
//! `--only experiments` checks EXPERIMENTS.md against the goldens: each
//! block of it marked `<!-- golden: results_X.txt -->` (the table or
//! list that follows the marker) may only quote numbers that appear in
//! that committed file, so a table cannot go stale when a golden changes.
//! It needs no bench binary.
//!
//! Besides the file diffs, the check asserts the committed **perf
//! budgets**: the `base` CPI of a canonical loop on the tiny core, per
//! technique. The committed results files all use the golden-cove core,
//! so a regression in the tiny core's scheduling (the configuration every
//! unit test runs on) would otherwise drift silently.

use ffsim_core::{SimConfig, Simulator, StallClass, WrongPathMode};
use ffsim_driver::{json, mode_from_label};
use ffsim_emu::Memory;
use ffsim_isa::{Asm, Program, Reg};
use ffsim_uarch::CoreConfig;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// A committed results file and the bench binary that regenerates it.
struct Target {
    /// Bench binary name (also the `--only` key).
    bin: &'static str,
    /// Results file at the repository root.
    file: &'static str,
    /// Whether the output contains host wall-clock values that change
    /// between runs (skipped unless `--volatile`).
    volatile: bool,
}

const TARGETS: &[Target] = &[
    Target {
        bin: "fig1_nowp_error",
        file: "results_fig1.txt",
        volatile: false,
    },
    Target {
        bin: "fig4_gap_techniques",
        file: "results_fig4_gap.txt",
        volatile: false,
    },
    Target {
        bin: "fig4_spec_distribution",
        file: "results_fig4_spec.txt",
        volatile: false,
    },
    Target {
        bin: "table1_config",
        file: "results_table1.txt",
        volatile: false,
    },
    Target {
        bin: "table2_wp_fraction",
        file: "results_table2.txt",
        volatile: false,
    },
    Target {
        bin: "table3_convergence",
        file: "results_table3.txt",
        volatile: false,
    },
    Target {
        bin: "ablations",
        file: "results_ablations.txt",
        volatile: false,
    },
    Target {
        bin: "fault_injection",
        file: "results_fault_injection.txt",
        volatile: false,
    },
    Target {
        bin: "robustness",
        file: "results_robustness.txt",
        volatile: false,
    },
    Target {
        bin: "speed_comparison",
        file: "results_speed.txt",
        volatile: true,
    },
    // Phase-attribution scope counts: stdout carries only counters that
    // are a pure function of the simulated instruction stream (wall-clock
    // attribution goes to stderr), so the file is golden-checkable.
    Target {
        bin: "perf_attrib",
        file: "results_profile.txt",
        volatile: false,
    },
    // Built by `-p ffsim-driver`, not ffsim-bench: the durable queue's
    // two-campaign demo report (no arguments = throwaway queue dir).
    Target {
        bin: "queue_smoke",
        file: "results_queue_smoke.txt",
        volatile: false,
    },
    // Built by `-p ffsim-serve`: the campaign-service demo — a wire
    // client submits two campaigns to an in-process server over
    // loopback and the drained report lands on stdout.
    Target {
        bin: "serve_smoke",
        file: "results_serve_smoke.txt",
        volatile: false,
    },
];

/// Loop trips of the base-CPI budget workload: enough to drown out warmup
/// so the measured CPI is stable to well under the tolerance.
const BASE_CPI_TRIPS: i64 = 50_000;

/// Committed tiny-core `base` CPI per technique for the canonical
/// countdown-div loop (the ROADMAP "obs-driven perf targets" budget).
/// `base` excludes every stall class, so this moves only when dispatch
/// width, issue scheduling, or latency tables change — exactly the
/// regressions the golden-cove results files are too coarse to localize.
const BASE_CPI_BUDGETS: &[(WrongPathMode, f64)] = &[
    (WrongPathMode::NoWrongPath, 5.9997),
    (WrongPathMode::InstructionReconstruction, 5.9997),
    (WrongPathMode::ConvergenceExploitation, 5.9997),
    (WrongPathMode::WrongPathEmulation, 5.9997),
];

/// Absolute tolerance on each base-CPI budget. The simulator is
/// deterministic, so this only absorbs deliberate small retunings; a real
/// scheduling regression overshoots it.
const BASE_CPI_TOLERANCE: f64 = 0.02;

fn base_cpi_workload() -> Result<Program, String> {
    let (i, c, q) = (Reg::new(1), Reg::new(2), Reg::new(3));
    let mut a = Asm::new();
    a.li(i, BASE_CPI_TRIPS);
    a.li(c, 1_000_003);
    a.label("loop");
    a.div(q, c, i);
    a.addi(i, i, -1);
    a.bnez(i, "loop");
    a.halt();
    a.assemble().map_err(|e| e.to_string())
}

/// Runs the budget workload on the tiny core under each technique and
/// compares the measured `base` CPI against the committed budget.
/// Returns the failure messages (empty means every budget holds).
fn check_base_cpi() -> Vec<String> {
    let program = match base_cpi_workload() {
        Ok(program) => program,
        Err(e) => return vec![format!("base-cpi workload failed to assemble: {e}")],
    };
    let mut failures = Vec::new();
    for &(mode, expected) in BASE_CPI_BUDGETS {
        let cfg = SimConfig::with_core(CoreConfig::tiny_for_tests(), mode);
        let result = Simulator::new(program.clone(), Memory::new(), cfg).and_then(Simulator::run);
        let result = match result {
            Ok(result) => result,
            Err(e) => {
                failures.push(format!("base-cpi run under {mode} failed: {e}"));
                continue;
            }
        };
        let measured = result.cpi.get(StallClass::Base) as f64 / result.instructions as f64;
        if (measured - expected).abs() > BASE_CPI_TOLERANCE {
            failures.push(format!(
                "base CPI under {} is {measured:.4}, outside committed {expected:.4} \
                 ± {BASE_CPI_TOLERANCE} (tiny core, countdown-div)",
                mode.label()
            ));
        } else {
            eprintln!(
                "results_check: ok base-cpi {} ({measured:.4})",
                mode.label()
            );
        }
    }
    failures
}

/// The committed speed-benchmark JSON artifact (`--only` key
/// `bench_speed`). Its wall-clock numbers are volatile, so the default
/// check validates the committed file's *schema*; `--volatile`
/// regenerates it and also compares the structure (suites, benchmarks,
/// technique labels) against the committed copy.
const BENCH_SPEED_FILE: &str = "BENCH_speed.json";

/// One suite's shape: its name, benchmark names, and technique labels.
type SuiteShape = (String, Vec<String>, Vec<String>);

/// Schema-validates a `BENCH_speed.json` document and returns its shape:
/// per suite, the benchmark names and the technique labels measured.
fn bench_speed_shape(doc: &json::Value) -> Result<Vec<SuiteShape>, String> {
    if doc.get("version").and_then(json::Value::as_int) != Some(1) {
        return Err("version must be 1".into());
    }
    let suites = doc
        .get("suites")
        .and_then(json::Value::as_arr)
        .ok_or("missing suites array")?;
    if suites.is_empty() {
        return Err("suites must be non-empty".into());
    }
    let mut shape = Vec::new();
    for suite in suites {
        let name = suite
            .get("suite")
            .and_then(json::Value::as_str)
            .ok_or("suite missing name")?
            .to_string();
        let benchmarks = suite
            .get("benchmarks")
            .and_then(json::Value::as_arr)
            .ok_or_else(|| format!("suite {name}: missing benchmarks"))?;
        if benchmarks.is_empty() {
            return Err(format!("suite {name}: benchmarks must be non-empty"));
        }
        let mut bench_names = Vec::new();
        let mut techniques: Vec<String> = Vec::new();
        for bench in benchmarks {
            let bench_name = bench
                .get("benchmark")
                .and_then(json::Value::as_str)
                .ok_or_else(|| format!("suite {name}: benchmark missing name"))?;
            bench_names.push(bench_name.to_string());
            if bench.get("nowp_us").and_then(json::Value::as_int) <= Some(0) {
                return Err(format!("{name}/{bench_name}: nowp_us must be positive"));
            }
            let slowdowns = bench
                .get("slowdowns")
                .and_then(json::Value::as_arr)
                .ok_or_else(|| format!("{name}/{bench_name}: missing slowdowns"))?;
            if slowdowns.is_empty() {
                return Err(format!("{name}/{bench_name}: slowdowns must be non-empty"));
            }
            let mut labels = Vec::new();
            for s in slowdowns {
                let label = s
                    .get("technique")
                    .and_then(json::Value::as_str)
                    .ok_or_else(|| format!("{name}/{bench_name}: slowdown missing technique"))?;
                if mode_from_label(label).is_none() {
                    return Err(format!("{name}/{bench_name}: unknown technique `{label}`"));
                }
                labels.push(label.to_string());
                if s.get("slowdown_x100").and_then(json::Value::as_int) <= Some(0) {
                    return Err(format!(
                        "{name}/{bench_name}/{label}: slowdown_x100 must be positive"
                    ));
                }
            }
            if techniques.is_empty() {
                techniques = labels;
            } else if techniques != labels {
                return Err(format!(
                    "{name}/{bench_name}: technique columns differ within the suite"
                ));
            }
        }
        let summary = suite
            .get("summary")
            .and_then(json::Value::as_arr)
            .ok_or_else(|| format!("suite {name}: missing summary"))?;
        if summary.len() != techniques.len() {
            return Err(format!("suite {name}: summary/technique count mismatch"));
        }
        shape.push((name, bench_names, techniques));
    }
    Ok(shape)
}

/// Per-suite, per-technique mean slowdown (×100) from a
/// `BENCH_speed.json` summary.
type SpeedSummary = Vec<(String, String, i64)>;

/// Extracts the summary means a regression is judged against.
fn speed_summary(doc: &json::Value) -> Result<SpeedSummary, String> {
    let suites = doc
        .get("suites")
        .and_then(json::Value::as_arr)
        .ok_or("missing suites array")?;
    let mut out = Vec::new();
    for suite in suites {
        let name = suite
            .get("suite")
            .and_then(json::Value::as_str)
            .ok_or("suite missing name")?;
        let summary = suite
            .get("summary")
            .and_then(json::Value::as_arr)
            .ok_or_else(|| format!("suite {name}: missing summary"))?;
        for entry in summary {
            let technique = entry
                .get("technique")
                .and_then(json::Value::as_str)
                .ok_or_else(|| format!("suite {name}: summary entry missing technique"))?;
            let mean = entry
                .get("mean_slowdown_x100")
                .and_then(json::Value::as_int)
                .ok_or_else(|| format!("suite {name}/{technique}: missing mean_slowdown_x100"))?;
            out.push((name.to_string(), technique.to_string(), mean));
        }
    }
    Ok(out)
}

/// The regression gate: each regenerated per-technique mean slowdown may
/// exceed its committed value by at most `tolerance_pct` percent.
/// Improvements never fail (re-commit with `--update` to tighten the
/// baseline); only a slower-than-committed drift beyond the tolerance
/// does. Returns the failure messages.
fn speed_regressions(
    committed: &SpeedSummary,
    regenerated: &SpeedSummary,
    tolerance_pct: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for (suite, technique, old) in committed {
        let found = regenerated
            .iter()
            .find(|(s, t, _)| s == suite && t == technique);
        let Some((_, _, new)) = found else {
            failures.push(format!(
                "{suite}/{technique}: missing from regenerated summary"
            ));
            continue;
        };
        if *old <= 0 {
            continue;
        }
        #[allow(clippy::cast_precision_loss)]
        let drift_pct = (*new - *old) as f64 * 100.0 / *old as f64;
        if drift_pct > tolerance_pct {
            failures.push(format!(
                "{suite}/{technique}: mean slowdown regressed {:.2}x -> {:.2}x \
                 (+{drift_pct:.0}%, tolerance {tolerance_pct:.0}%)",
                *old as f64 / 100.0,
                *new as f64 / 100.0,
            ));
        }
    }
    failures
}

/// Checks the committed `BENCH_speed.json`. Returns failure messages.
fn check_bench_speed(args: &Args, bin_dir: &Path) -> Vec<String> {
    let path = args.repo_root.join(BENCH_SPEED_FILE);
    // `--only bench_speed` is the CI regression gate: it re-measures and
    // compares against the committed means, not just the schema. The full
    // default sweep stays schema-only unless `--volatile` opts in.
    let regenerate = args.volatile || args.update || args.only.as_deref() == Some("bench_speed");

    let regenerated = if regenerate {
        let tmp = std::env::temp_dir().join(format!("BENCH_speed.{}.json", std::process::id()));
        let status = Command::new(bin_dir.join("speed_comparison"))
            .arg("--json")
            .arg(&tmp)
            .output();
        let text = match status {
            Ok(out) if out.status.success() => match std::fs::read_to_string(&tmp) {
                Ok(text) => text,
                Err(e) => return vec![format!("{BENCH_SPEED_FILE}: reading regenerated: {e}")],
            },
            Ok(out) => return vec![format!("speed_comparison exited with {}", out.status)],
            Err(e) => {
                return vec![format!(
                    "running speed_comparison ({e}); build the bench bins first: \
                     cargo build --release -p ffsim-bench"
                )]
            }
        };
        std::fs::remove_file(&tmp).ok();
        Some(text)
    } else {
        None
    };

    if args.update {
        let text = regenerated.expect("regenerated when updating");
        return match std::fs::write(&path, text) {
            Ok(()) => {
                eprintln!("results_check: updated {BENCH_SPEED_FILE}");
                Vec::new()
            }
            Err(e) => vec![format!("writing {}: {e}", path.display())],
        };
    }

    let committed = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => return vec![format!("reading {}: {e}", path.display())],
    };
    let committed_doc = match json::parse(&committed) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("{BENCH_SPEED_FILE}: {e}")],
    };
    let committed_shape = match bench_speed_shape(&committed_doc) {
        Ok(shape) => shape,
        Err(e) => return vec![format!("{BENCH_SPEED_FILE}: {e}")],
    };
    if let Some(text) = regenerated {
        let doc = match json::parse(&text) {
            Ok(doc) => doc,
            Err(e) => return vec![format!("{BENCH_SPEED_FILE} (regenerated): {e}")],
        };
        let shape = match bench_speed_shape(&doc) {
            Ok(shape) => shape,
            Err(e) => return vec![format!("{BENCH_SPEED_FILE} (regenerated): {e}")],
        };
        if shape != committed_shape {
            return vec![format!(
                "{BENCH_SPEED_FILE}: structure drifted — committed {committed_shape:?} \
                 vs regenerated {shape:?} (exact values are volatile; \
                 run with --update to rewrite)"
            )];
        }
        let gate = match (speed_summary(&committed_doc), speed_summary(&doc)) {
            (Ok(old), Ok(new)) => speed_regressions(&old, &new, args.speed_tolerance),
            (Err(e), _) | (_, Err(e)) => vec![format!("summary: {e}")],
        };
        if !gate.is_empty() {
            return gate;
        }
        eprintln!(
            "results_check: ok {BENCH_SPEED_FILE} (schema + structure + \
             means within {:.0}% of committed)",
            args.speed_tolerance
        );
    } else {
        eprintln!("results_check: ok {BENCH_SPEED_FILE} (schema)");
    }
    Vec::new()
}

/// The document whose marked tables [`check_experiment_tables`] checks
/// (`--only` key `experiments`).
const EXPERIMENTS_FILE: &str = "EXPERIMENTS.md";
const GOLDEN_MARKER: &str = "<!-- golden: ";

/// The numbers quoted in `text`, each as written with its sign (`-` for
/// either minus sign) and without it. A number starts at a digit that
/// does not continue a word (the `2` of `L2` is not one); a `-`, `−` or
/// `+` right before it is its sign unless it follows a digit (the `98` of
/// `62-98%` is unsigned). List markers (`3. `) at a line start are not
/// numbers.
fn numbers(text: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let trimmed = line.trim_start();
        let marker = trimmed
            .find(". ")
            .filter(|&n| n > 0 && trimmed[..n].bytes().all(|b| b.is_ascii_digit()));
        let line = marker.map_or(line, |n| &trimmed[n + 2..]);
        let chars: Vec<char> = line.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let prev = i.checked_sub(1).map(|j| chars[j]);
            let continues_word = prev.is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '.');
            if !chars[i].is_ascii_digit() || continues_word {
                i += 1;
                continue;
            }
            let start = i;
            while i < chars.len()
                && (chars[i].is_ascii_digit()
                    || (chars[i] == '.' && chars.get(i + 1).is_some_and(char::is_ascii_digit)))
            {
                i += 1;
            }
            let magnitude: String = chars[start..i].iter().collect();
            let sign = match (prev, start.checked_sub(2).map(|j| chars[j])) {
                (Some(c @ ('-' | '−' | '+')), before)
                    if !before.is_some_and(|b| b.is_ascii_digit()) =>
                {
                    if c == '+' {
                        "+"
                    } else {
                        "-"
                    }
                }
                _ => "",
            };
            out.push((format!("{sign}{magnitude}"), magnitude));
        }
    }
    out
}

/// The numbers of each block of `doc` marked with a golden that are not
/// in that golden, as `(golden, line, number)`; `read` fetches a golden's
/// text. A marked block is the run of non-blank lines after the marker. A
/// signed number must appear in the golden with that sign; an unsigned
/// one with any.
fn stale_numbers(
    doc: &str,
    mut read: impl FnMut(&str) -> Result<String, String>,
) -> Result<Vec<(String, usize, String)>, String> {
    let lines: Vec<&str> = doc.lines().collect();
    let mut stale = Vec::new();
    let mut marked = 0;
    for (at, line) in lines.iter().enumerate() {
        let Some(rest) = line.trim().strip_prefix(GOLDEN_MARKER) else {
            continue;
        };
        let golden = rest
            .strip_suffix("-->")
            .map(str::trim)
            .ok_or_else(|| format!("line {}: unterminated golden marker", at + 1))?;
        let known: Vec<(String, String)> = numbers(&read(golden)?);
        let first = lines[at + 1..]
            .iter()
            .position(|l| !l.trim().is_empty())
            .map(|n| at + 1 + n)
            .ok_or_else(|| format!("line {}: nothing follows the marker", at + 1))?;
        for (n, text) in lines[first..]
            .iter()
            .enumerate()
            .take_while(|(_, l)| !l.trim().is_empty())
        {
            for (signed, magnitude) in numbers(text) {
                let found = known.iter().any(|(s, m)| {
                    if signed == magnitude {
                        *m == magnitude
                    } else {
                        *s == signed
                    }
                });
                if !found {
                    stale.push((golden.to_string(), first + n + 1, signed));
                }
            }
        }
        marked += 1;
    }
    if marked == 0 {
        return Err("no marked tables".into());
    }
    Ok(stale)
}

/// Checks every table of EXPERIMENTS.md marked with a golden against it.
fn check_experiment_tables(root: &Path) -> Vec<String> {
    let doc = match std::fs::read_to_string(root.join(EXPERIMENTS_FILE)) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("reading {EXPERIMENTS_FILE}: {e}")],
    };
    let read = |golden: &str| {
        std::fs::read_to_string(root.join(golden)).map_err(|e| format!("reading {golden}: {e}"))
    };
    match stale_numbers(&doc, read) {
        Ok(stale) => stale
            .into_iter()
            .map(|(golden, line, number)| {
                format!("{EXPERIMENTS_FILE}:{line}: {number} is not in {golden}")
            })
            .collect(),
        Err(e) => vec![format!("{EXPERIMENTS_FILE}: {e}")],
    }
}

/// Drops cargo stderr chatter that leaked into committed files when they
/// were captured with `cargo run ... &> file`.
fn normalize(text: &str) -> String {
    let mut out: String = text
        .lines()
        .filter(|line| {
            let t = line.trim_start();
            !(t.starts_with("Finished")
                || t.starts_with("Running")
                || t.starts_with("Compiling")
                || t.starts_with("warning"))
        })
        .collect::<Vec<_>>()
        .join("\n");
    out.push('\n');
    out
}

fn first_difference(expected: &str, actual: &str) -> String {
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        if e != a {
            return format!(
                "first difference at line {}:\n  committed:   {e}\n  regenerated: {a}",
                i + 1
            );
        }
    }
    format!(
        "line counts differ: committed {} vs regenerated {}",
        expected.lines().count(),
        actual.lines().count()
    )
}

/// Default `--speed-tolerance`: generous enough that shared-runner noise
/// never trips the gate (slowdown *ratios* are already host-normalized),
/// tight enough that losing the batched-handoff/block-cache savings —
/// which bought ≥25% per technique — fails the gate.
const SPEED_TOLERANCE_DEFAULT: f64 = 30.0;

struct Args {
    only: Option<String>,
    volatile: bool,
    update: bool,
    speed_tolerance: f64,
    repo_root: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    // The driver crate lives at <root>/crates/driver.
    let mut args = Args {
        only: None,
        volatile: false,
        update: false,
        speed_tolerance: SPEED_TOLERANCE_DEFAULT,
        repo_root: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--only" => args.only = Some(argv.next().ok_or("--only needs a value")?),
            "--volatile" => args.volatile = true,
            "--update" => args.update = true,
            "--speed-tolerance" => {
                args.speed_tolerance = argv
                    .next()
                    .ok_or("--speed-tolerance needs a value")?
                    .parse()
                    .map_err(|e| format!("--speed-tolerance: {e}"))?;
            }
            "--repo-root" => {
                args.repo_root = PathBuf::from(argv.next().ok_or("--repo-root needs a value")?);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("results_check: {e}");
            eprintln!(
                "usage: results_check [--only NAME] [--volatile] [--update] [--repo-root PATH]"
            );
            return ExitCode::FAILURE;
        }
    };

    let bin_dir = match std::env::current_exe() {
        Ok(exe) => exe.parent().map(PathBuf::from).unwrap_or_default(),
        Err(e) => {
            eprintln!("results_check: locating executable: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut failures = 0u32;
    let mut checked = 0u32;
    for target in TARGETS {
        if args.only.as_deref().is_some_and(|only| only != target.bin) {
            continue;
        }
        if target.volatile && !args.volatile && args.only.is_none() {
            eprintln!(
                "results_check: skip {} (volatile; use --volatile)",
                target.file
            );
            continue;
        }

        let bin = bin_dir.join(target.bin);
        let output = match Command::new(&bin).output() {
            Ok(output) => output,
            Err(e) => {
                eprintln!(
                    "results_check: running {} ({e}); build the bench bins first: \
                     cargo build --release -p ffsim-bench",
                    bin.display()
                );
                failures += 1;
                continue;
            }
        };
        if !output.status.success() {
            eprintln!(
                "results_check: {} exited with {}",
                target.bin, output.status
            );
            failures += 1;
            continue;
        }
        let regenerated = normalize(&String::from_utf8_lossy(&output.stdout));

        let path = args.repo_root.join(target.file);
        if args.update {
            if let Err(e) = std::fs::write(&path, &regenerated) {
                eprintln!("results_check: writing {}: {e}", path.display());
                failures += 1;
                continue;
            }
            eprintln!("results_check: updated {}", target.file);
            checked += 1;
            continue;
        }

        let committed = match std::fs::read_to_string(&path) {
            Ok(text) => normalize(&text),
            Err(e) => {
                eprintln!("results_check: reading {}: {e}", path.display());
                failures += 1;
                continue;
            }
        };
        if committed == regenerated {
            eprintln!("results_check: ok {}", target.file);
            checked += 1;
        } else {
            eprintln!(
                "results_check: MISMATCH {} — {}",
                target.file,
                first_difference(&committed, &regenerated)
            );
            failures += 1;
        }
    }

    if args.only.is_none() || args.only.as_deref() == Some("experiments") {
        let stale = check_experiment_tables(&args.repo_root);
        if stale.is_empty() {
            eprintln!("results_check: ok {EXPERIMENTS_FILE} (marked tables)");
            checked += 1;
        }
        for failure in stale {
            eprintln!("results_check: STALE {failure}");
            failures += 1;
        }
    }

    if args.only.is_none() || args.only.as_deref() == Some("bench_speed") {
        let speed_failures = check_bench_speed(&args, &bin_dir);
        if speed_failures.is_empty() {
            checked += 1;
        }
        for failure in speed_failures {
            eprintln!("results_check: BENCH {failure}");
            failures += 1;
        }
    }

    if args.only.is_none() {
        for failure in check_base_cpi() {
            eprintln!("results_check: BUDGET {failure}");
            failures += 1;
        }
        checked += 1;
    }

    if failures > 0 {
        eprintln!("results_check: {failures} failure(s), {checked} ok");
        ExitCode::FAILURE
    } else {
        eprintln!("results_check: all {checked} checked files match");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_signs_and_skip_words_ranges_and_list_markers() {
        let got: Vec<String> = numbers("3. bc −41.6% L2 +8.0% 62-98% x 0.5 (7)")
            .into_iter()
            .map(|(signed, _)| signed)
            .collect();
        assert_eq!(got, ["-41.6", "+8.0", "62", "98", "0.5", "7"]);
    }

    #[test]
    fn marked_blocks_may_only_quote_their_golden() {
        let golden = "bc  -41.6%  ipc 0.343\naverage: 22.5%\n";
        let read = |name: &str| match name {
            "g.txt" => Ok(golden.to_string()),
            other => Err(format!("no {other}")),
        };
        let doc = "# T\n<!-- golden: g.txt -->\n\n| b | e |\n|---|---|\n| bc | −41.6% |\n| avg | 22.5% |\n\nprose 99\n";
        assert_eq!(stale_numbers(doc, read).unwrap(), []);
        let stale = doc.replace("22.5%", "22.4%");
        assert_eq!(
            stale_numbers(&stale, read).unwrap(),
            [("g.txt".to_string(), 7, "22.4".to_string())]
        );
        let flipped = doc.replace("−41.6%", "+41.6%");
        assert_eq!(
            stale_numbers(&flipped, read).unwrap().len(),
            1,
            "a sign is checked"
        );
        assert!(stale_numbers(&doc.replace("g.txt", "h.txt"), read).is_err());
        assert!(stale_numbers("no markers", read).is_err());
    }

    fn summary(entries: &[(&str, &str, i64)]) -> SpeedSummary {
        entries
            .iter()
            .map(|&(s, t, v)| (s.to_string(), t.to_string(), v))
            .collect()
    }

    #[test]
    fn gate_fails_when_a_mean_slowdown_regresses_beyond_tolerance() {
        // Committed wpemul mean 4.00x; the re-measured run says 9.00x —
        // a +125% drift against a 100% tolerance must fail the gate.
        let committed = summary(&[("GAP", "conv", 368), ("GAP", "wpemul", 400)]);
        let regressed = summary(&[("GAP", "conv", 380), ("GAP", "wpemul", 900)]);
        let failures = speed_regressions(&committed, &regressed, 100.0);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(
            failures[0].contains("GAP/wpemul") && failures[0].contains("4.00x -> 9.00x"),
            "{failures:?}"
        );
    }

    #[test]
    fn gate_passes_within_tolerance_and_on_improvements() {
        let committed = summary(&[("GAP", "conv", 368), ("SPEC-like", "wpemul", 500)]);
        // +50% drift on one, a large improvement on the other: both pass.
        let regenerated = summary(&[("GAP", "conv", 552), ("SPEC-like", "wpemul", 120)]);
        assert!(speed_regressions(&committed, &regenerated, 100.0).is_empty());
        // The same drift fails once the tolerance is tightened under it.
        assert_eq!(speed_regressions(&committed, &regenerated, 40.0).len(), 1);
    }

    #[test]
    fn gate_fails_when_a_technique_vanishes_from_the_summary() {
        let committed = summary(&[("GAP", "conv", 368)]);
        let failures = speed_regressions(&committed, &summary(&[]), 100.0);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("missing"), "{failures:?}");
    }

    #[test]
    fn speed_summary_extracts_per_suite_technique_means() {
        let doc = json::parse(
            r#"{"suites":[{"suite":"GAP","summary":[
                {"technique":"conv","mean_slowdown_x100":368,"max_slowdown_x100":627}
            ]}]}"#,
        )
        .unwrap();
        assert_eq!(
            speed_summary(&doc).unwrap(),
            summary(&[("GAP", "conv", 368)])
        );
        let bad = json::parse(r#"{"suites":[{"suite":"GAP"}]}"#).unwrap();
        assert!(speed_summary(&bad).unwrap_err().contains("missing summary"));
    }
}
