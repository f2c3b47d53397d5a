//! Small supervised campaign used by CI and by hand to smoke-test the
//! driver end to end: run it, kill it mid-flight, re-run it against the
//! same manifest, and diff the report against the committed golden copy.
//!
//! The report (and the manifest) are byte-deterministic: independent of
//! worker count, scheduling, kill timing, and how many times the campaign
//! was resumed. The golden report lives at
//! `crates/driver/golden/campaign_smoke.txt`.
//!
//! ```text
//! campaign_smoke --manifest /tmp/m.json --report /tmp/report.txt \
//!     [--workers N] [--cache-dir PATH]
//! ```
//!
//! With `--cache-dir` results are served from (and committed to) a
//! content-addressed cache; the flag does not change the report bytes on
//! a clean run. A damaged manifest is quarantined to a `.corrupt` sibling
//! and reported in a banner appended after the report.

use ffsim_core::WrongPathMode;
use ffsim_driver::{report, Campaign, CampaignConfig, Job, WorkloadFn};
use ffsim_emu::{FaultPolicy, Memory};
use ffsim_isa::{Asm, Program, Reg};
use ffsim_uarch::CoreConfig;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// Loop trips: sized so the eight jobs take long enough that a mid-flight
/// SIGTERM lands while work is unfinished, but CI stays fast.
const TRIPS: i64 = 200_000;

fn countdown_div() -> Result<Program, ffsim_core::SimError> {
    let (i, c, q) = (Reg::new(1), Reg::new(2), Reg::new(3));
    let mut a = Asm::new();
    a.li(i, TRIPS);
    a.li(c, 1_000_003);
    a.label("loop");
    a.div(q, c, i);
    a.addi(i, i, -1);
    a.bnez(i, "loop");
    a.halt();
    Ok(a.assemble()?)
}

fn countup_load() -> Result<Program, ffsim_core::SimError> {
    let (i, n, base, t, v) = (
        Reg::new(1),
        Reg::new(2),
        Reg::new(5),
        Reg::new(6),
        Reg::new(7),
    );
    let mut a = Asm::new();
    a.li(i, 0);
    a.li(n, TRIPS);
    a.li(base, 0x1000_0000);
    a.label("loop");
    a.slli(t, i, 3);
    a.add(t, t, base);
    a.ld(v, 0, t);
    a.addi(i, i, 1);
    a.blt(i, n, "loop");
    a.halt();
    Ok(a.assemble()?)
}

fn workload(program: fn() -> Result<Program, ffsim_core::SimError>) -> WorkloadFn {
    Arc::new(move || Ok((program()?, Memory::new())))
}

fn jobs() -> Vec<Job> {
    let core = CoreConfig::tiny_for_tests();
    let mut jobs = Vec::new();
    for mode in WrongPathMode::ALL {
        jobs.push(
            Job::new(
                format!("countdown-div/{mode}"),
                mode,
                workload(countdown_div),
            )
            .with_core(core.clone()),
        );
    }
    for mode in [
        WrongPathMode::NoWrongPath,
        WrongPathMode::ConvergenceExploitation,
        WrongPathMode::WrongPathEmulation,
    ] {
        jobs.push(
            Job::new(format!("countup-load/{mode}"), mode, workload(countup_load))
                .with_core(core.clone()),
        );
    }
    // One deliberately failing configuration: divide-by-zero trapping with
    // the abort policy faults the wrong path under full emulation only, so
    // the job degrades wpemul -> conv and the report shows the ladder.
    jobs.push(
        Job::new(
            "divzero-abort/wpemul",
            WrongPathMode::WrongPathEmulation,
            workload(countdown_div),
        )
        .with_core(core)
        .with_tweak(Arc::new(|cfg| {
            cfg.fault_model.trap_div_zero = true;
            cfg.fault_policy = FaultPolicy::AbortRun;
        })),
    );
    jobs
}

struct Args {
    workers: usize,
    cache_dir: Option<PathBuf>,
    manifest: PathBuf,
    report: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workers = 0;
    let mut cache_dir = None;
    let mut manifest = None;
    let mut report = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workers" => {
                workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--cache-dir" => cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--manifest" => manifest = Some(PathBuf::from(value("--manifest")?)),
            "--report" => report = Some(PathBuf::from(value("--report")?)),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Args {
        workers,
        cache_dir,
        manifest: manifest.ok_or("--manifest is required")?,
        report,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("campaign_smoke: {e}");
            eprintln!(
                "usage: campaign_smoke --manifest PATH [--report PATH] \
                 [--workers N] [--cache-dir PATH]"
            );
            return ExitCode::FAILURE;
        }
    };

    let cache_enabled = args.cache_dir.is_some();
    let campaign = Campaign::new(CampaignConfig {
        workers: args.workers,
        default_timeout: Some(Duration::from_secs(120)),
        manifest_path: Some(args.manifest),
        cache_dir: args.cache_dir,
        ..CampaignConfig::default()
    });
    let outcome = match campaign.run(jobs()) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("campaign_smoke: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Progress counters go to stderr: they depend on kill/resume history
    // and must stay out of the deterministic report artifact.
    eprintln!(
        "campaign_smoke: {} resumed, {} executed, cancelled: {}",
        outcome.resumed, outcome.executed, outcome.cancelled
    );
    if cache_enabled {
        eprintln!(
            "campaign_smoke: cache: {} hits, {} misses",
            outcome.cache_hits, outcome.cache_misses
        );
    }
    // Likewise the wall-clock timing and CPI-stack appendices (present
    // only under FFSIM_OBS telemetry).
    let timing = report::render_timing(&outcome.records);
    if !timing.is_empty() {
        eprint!("{timing}");
    }
    let cpi = report::render_cpi(&outcome.records);
    if !cpi.is_empty() {
        eprint!("{cpi}");
    }
    // Cache provenance depends on what earlier campaigns populated, so it
    // is an stderr appendix too, never part of the report artifact.
    let cached = report::render_cache(&outcome.records);
    if !cached.is_empty() {
        eprint!("{cached}");
    }
    // Host-phase attribution for the driver's own work (cache verify,
    // manifest commits) — stderr only, like every wall-clock appendix.
    if let Some((_, prof)) = ffsim_driver::hostobs::snapshot() {
        let profile = report::render_profile(&prof);
        if !profile.is_empty() {
            eprint!("\n{profile}");
        }
    }

    let mut text = report::render(&outcome.records);
    for quarantine in &outcome.quarantines {
        // Also on stderr so a watching operator sees it immediately.
        eprintln!("campaign_smoke: {quarantine}");
    }
    text.push_str(&report::render_quarantines(&outcome.quarantines));
    match &args.report {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("campaign_smoke: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}
