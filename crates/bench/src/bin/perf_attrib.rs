//! §V-B drill-down — *where* does the per-technique slowdown go?
//!
//! `speed_comparison` reports that wrong-path modeling costs 4.5–6.5× on
//! average (26× worst case); this binary runs a reduced GAP + SPEC-like
//! subset under every technique with the phase profiler enabled
//! (`ObsConfig::profiled()`) and attributes the host time to the fixed
//! phase taxonomy (`emu_exec`, `emu_handoff`, `timing_pipeline`,
//! `technique_hook:<label>`, `frontend_fetch`).
//!
//! Output discipline:
//!
//! * **stdout** is byte-deterministic: per-phase *scope counts* (how many
//!   times each phase was entered) and instruction counters. These depend
//!   only on the simulated instruction stream, never on host speed, so
//!   the committed copy at `results_profile.txt` is golden-checked by
//!   `results_check`.
//! * **stderr** carries the volatile half: wall time, slowdown vs `nowp`,
//!   telescoping coverage and the dominant phase per run.
//! * `--volatile` appends the host-dependent attribution table (per-phase
//!   share of attributed time) to stdout for human consumption.
//! * `--prom PATH` writes a deterministic Prometheus exposition of the
//!   stable counters through the unified [`MetricsRegistry`].
//!
//! Every run must satisfy the telescoping invariant (attributed phase
//! time ≥95% of wall time); a violation exits non-zero.

use ffsim_bench::{gap_suite, render_table, spec_suite};
use ffsim_core::{SimConfig, SimResult, Simulator, WrongPathMode};
use ffsim_obs::{MetricsRegistry, ObsConfig, Phase, PhaseProfiler};
use ffsim_uarch::CoreConfig;
use ffsim_workloads::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

/// Correct-path budget for the GAP subset (reduced from the full
/// experiment budget: attribution shares stabilize long before error
/// metrics do, and this binary runs twice in CI).
const GAP_BUDGET: u64 = 300_000;
/// Correct-path budget for the SPEC-like subset.
const SPEC_BUDGET: u64 = 200_000;

/// GAP kernels profiled (converging, branch-missing graph code).
const GAP_SUBSET: &[&str] = &["bfs", "pr"];
/// SPEC-like kernels profiled. `binary_search` is the paper's worst-case
/// slowdown (≈26× under full wrong-path emulation) and must stay in the
/// subset so the attribution names where that factor goes.
const SPEC_SUBSET: &[&str] = &["hash_probe", "binary_search"];

/// The simulator-side phases whose scope counts are deterministic (the
/// driver phases never fire inside a bare simulation).
const SIM_PHASES: [Phase; 5] = [
    Phase::FrontendFetch,
    Phase::EmuExec,
    Phase::EmuHandoff,
    Phase::TimingPipeline,
    Phase::TechniqueHook,
];

struct Run {
    mode: WrongPathMode,
    result: SimResult,
    profile: PhaseProfiler,
}

/// Runs one workload under `mode` with phase profiling on (and event
/// tracing off, independent of `FFSIM_OBS`, so stdout stays
/// reproducible in any environment).
fn run_profiled(workload: &Workload, core: &CoreConfig, mode: WrongPathMode, budget: u64) -> Run {
    let mut cfg = SimConfig::with_core(core.clone(), mode);
    cfg.max_instructions = Some(budget);
    cfg.obs = ObsConfig::profiled();
    let result = Simulator::new(workload.program().clone(), workload.memory().clone(), cfg)
        .and_then(Simulator::run)
        .unwrap_or_else(|e| panic!("profiled workload failed under {mode}: {e}"));
    let profile = result
        .obs
        .as_ref()
        .map(|obs| obs.profile.clone())
        .unwrap_or_else(|| panic!("profiled run under {mode} produced no ObsReport"));
    Run {
        mode,
        result,
        profile,
    }
}

/// The deterministic scope-count table for one workload.
fn render_counts(runs: &[Run]) -> String {
    let mut headers = vec!["technique", "instrs", "wp_instrs"];
    headers.extend(SIM_PHASES.iter().map(|p| p.name()));
    headers.push("wp_emul");
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|run| {
            let mut row = vec![
                run.mode.label().to_string(),
                run.result.instructions.to_string(),
                run.result.wrong_path_instructions.to_string(),
            ];
            row.extend(
                SIM_PHASES
                    .iter()
                    .map(|&p| run.profile.phase_agg(p).count.to_string()),
            );
            // Wrong-path instructions functionally emulated: with lazy
            // emulation, only what the pipeline fetched.
            row.push(run.result.wrong_path_emulated.to_string());
            row
        })
        .collect();
    render_table(&headers, &rows)
}

/// The host-dependent attribution table (only under `--volatile`):
/// slowdown vs `nowp` and each phase's share of attributed time.
fn render_shares(runs: &[Run]) -> String {
    let nowp_wall = runs
        .iter()
        .find(|r| r.mode == WrongPathMode::NoWrongPath)
        .map(|r| r.result.clone());
    let mut headers = vec!["technique", "slowdown", "wall_ms"];
    headers.extend(SIM_PHASES.iter().map(|p| p.name()));
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|run| {
            let slowdown = nowp_wall.as_ref().map_or_else(
                || "-".to_string(),
                |n| format!("{:.2}x", run.result.slowdown_vs(n)),
            );
            let attributed = run.profile.attributed_ns().max(1);
            let mut row = vec![
                run.mode.label().to_string(),
                slowdown,
                format!("{:.2}", run.result.wall_time.as_secs_f64() * 1e3),
            ];
            row.extend(SIM_PHASES.iter().map(|&p| {
                let ns = run.profile.phase_agg(p).total_ns;
                format!("{}%", ns.saturating_mul(100) / attributed)
            }));
            row
        })
        .collect();
    render_table(&headers, &rows)
}

/// Folds one run's stable counters into the Prometheus registry. Names
/// use the `:`-separated recording-rule dialect the registry accepts, so
/// the snapshot is a pure function of the simulated instruction stream.
fn record_prom(reg: &mut MetricsRegistry, group: &str, workload: &str, run: &Run) {
    let mut count = |name: String, v: u64| {
        let id = reg
            .counter(&name)
            .expect("perf_attrib metric names are valid");
        reg.inc(id, v);
    };
    let key = format!("{group}:{workload}:{}", run.mode.label());
    count("ffsim_profile_runs_total".into(), 1);
    count(
        format!("ffsim_profile_instructions_total:{key}"),
        run.result.instructions,
    );
    count(
        format!("ffsim_profile_wrong_path_total:{key}"),
        run.result.wrong_path_instructions,
    );
    for &p in &SIM_PHASES {
        count(
            format!("ffsim_profile_scopes_total:{key}:{}", p.name()),
            run.profile.phase_agg(p).count,
        );
    }
}

struct Args {
    volatile: bool,
    prom: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        volatile: false,
        prom: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--volatile" => args.volatile = true,
            "--prom" => args.prom = Some(PathBuf::from(argv.next().ok_or("--prom needs a value")?)),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf_attrib: {e}");
            eprintln!("usage: perf_attrib [--volatile] [--prom PATH]");
            return ExitCode::FAILURE;
        }
    };

    let core = CoreConfig::golden_cove_like();
    let gap: Vec<Workload> = gap_suite()
        .into_iter()
        .filter(|w| GAP_SUBSET.contains(&w.name()))
        .collect();
    let spec: Vec<Workload> = spec_suite()
        .into_iter()
        .map(|k| k.workload)
        .filter(|w| SPEC_SUBSET.contains(&w.name()))
        .collect();
    let groups: [(&str, &[Workload], u64); 2] =
        [("gap", &gap, GAP_BUDGET), ("spec", &spec, SPEC_BUDGET)];

    let mut out = String::new();
    out.push_str(
        "perf_attrib — host-phase attribution of the wrong-path slowdown\n\
         Scope counts below are deterministic (a function of the simulated\n\
         instruction stream); wall times and shares are host-dependent and\n\
         go to stderr (or stdout under --volatile).\n",
    );
    let mut prom = MetricsRegistry::enabled();
    let mut violations: Vec<String> = Vec::new();
    let mut worst_case: Option<(String, f64, String)> = None;

    for (group, workloads, budget) in groups {
        for workload in workloads {
            let runs: Vec<Run> = WrongPathMode::ALL
                .iter()
                .map(|&mode| run_profiled(workload, &core, mode, budget))
                .collect();
            let nowp = runs
                .iter()
                .find(|r| r.mode == WrongPathMode::NoWrongPath)
                .expect("ALL contains nowp")
                .result
                .clone();
            for run in &runs {
                let coverage = run.profile.coverage_permille();
                let dominant = run
                    .profile
                    .dominant_phase()
                    .map_or_else(|| "-".to_string(), |(p, _)| run.profile.phase_label(p));
                let slowdown = run.result.slowdown_vs(&nowp);
                eprintln!(
                    "perf_attrib: {group}/{}/{}: wall {:.2} ms, {slowdown:.2}x vs nowp, \
                     coverage {coverage}‰, dominant {dominant}",
                    workload.name(),
                    run.mode.label(),
                    run.result.wall_time.as_secs_f64() * 1e3,
                );
                if !run.profile.telescopes() {
                    violations.push(format!(
                        "{group}/{}/{}: attributed {coverage}‰ of wall time (floor {}‰)",
                        workload.name(),
                        run.mode.label(),
                        ffsim_obs::TELESCOPE_FLOOR_PERMILLE
                    ));
                }
                if run.mode != WrongPathMode::NoWrongPath
                    && worst_case.as_ref().is_none_or(|(_, s, _)| slowdown > *s)
                {
                    worst_case = Some((
                        format!("{group}/{}/{}", workload.name(), run.mode.label()),
                        slowdown,
                        dominant,
                    ));
                }
                record_prom(&mut prom, group, workload.name(), run);
            }
            out.push_str(&format!(
                "\n== {group}/{} ({budget} correct-path instr budget) ==\n",
                workload.name()
            ));
            out.push_str(&render_counts(&runs));
            if args.volatile {
                out.push_str("-- host attribution (volatile) --\n");
                out.push_str(&render_shares(&runs));
            }
        }
    }

    print!("{out}");
    if let Some((name, slowdown, dominant)) = &worst_case {
        eprintln!(
            "perf_attrib: worst case {name}: {slowdown:.2}x vs nowp — dominated by {dominant}"
        );
    }
    if let Some(path) = &args.prom {
        if let Err(e) = std::fs::write(path, prom.render_prometheus()) {
            eprintln!("perf_attrib: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("perf_attrib: TELESCOPE {v}");
        }
        eprintln!(
            "perf_attrib: {} run(s) violate the telescoping invariant",
            violations.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
