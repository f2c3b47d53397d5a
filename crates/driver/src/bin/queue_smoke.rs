//! Durable-queue smoke used by CI and by hand: enqueue two campaigns
//! into an on-disk job queue, optionally kill the service mid-drain,
//! damage the journal tail, then resume against the same directory and
//! diff the report against an uninterrupted run.
//!
//! The report is byte-deterministic: independent of worker count,
//! scheduling, kill timing, and how many times the queue was resumed. The committed copy lives at `results_queue_smoke.txt` and is
//! verified by `results_check`.
//!
//! ```text
//! queue_smoke [--dir PATH] [--report PATH] [--workers N]
//!     [--cache-dir PATH] [--kill-after N] [--resume]
//! ```
//!
//! Without `--dir` the queue lives in a throwaway temp directory that is
//! removed on success (the no-argument mode `results_check` runs).
//! `--kill-after N` cancels the service stop token when the `N`-th
//! execution starts — the in-process stand-in for `kill -9`, leaving the
//! journaled lease dangling exactly as a SIGKILL would — and exits
//! without writing a report. `--resume` asserts the directory already
//! holds queue state, so a typo'd fresh path cannot silently pass a
//! byte-identity diff.

use ffsim_core::{CancelToken, WrongPathMode};
use ffsim_driver::{
    report, Enqueued, Job, JobQueue, JobRecord, JobRunner, QueueConfig, RunContext, WorkloadFn,
};
use ffsim_emu::{FaultPolicy, Memory};
use ffsim_isa::{Asm, Program, Reg};
use ffsim_uarch::CoreConfig;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Loop trips: sized so a `--kill-after` lands while later jobs are still
/// pending, but the no-argument `results_check` run stays fast.
const TRIPS: i64 = 20_000;

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

/// Two campaigns sharing the one FIFO. Eight jobs total, including one
/// that degrades down the wrong-path ladder so the report shows a
/// non-trivial final mode.
fn campaigns() -> Vec<(&'static str, Vec<Job>)> {
    let core = CoreConfig::tiny_for_tests();
    let baseline = WrongPathMode::ALL
        .into_iter()
        .map(|mode| {
            Job::new(
                format!("countdown-div/{mode}"),
                mode,
                workload(countdown_div),
            )
            .with_core(core.clone())
        })
        .collect();
    let mut sweep: Vec<Job> = [
        WrongPathMode::NoWrongPath,
        WrongPathMode::ConvergenceExploitation,
        WrongPathMode::WrongPathEmulation,
    ]
    .into_iter()
    .map(|mode| {
        Job::new(format!("countup-load/{mode}"), mode, workload(countup_load))
            .with_core(core.clone())
    })
    .collect();
    // Divide-by-zero trapping under the abort policy faults the wrong
    // path under full emulation only: the job degrades wpemul -> conv and
    // the report shows the ladder.
    sweep.push(
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
    vec![("baseline", baseline), ("sweep", sweep)]
}

/// Cancels the service stop token when the `N`-th execution starts and
/// abandons that job, leaving its journaled lease dangling — the
/// in-process equivalent of `kill -9` mid-drain.
struct KillAfter<'q> {
    queue: &'q JobQueue,
    countdown: AtomicU64,
}

impl JobRunner for KillAfter<'_> {
    fn run(&self, ctx: &RunContext<'_>, job: &Job, takeback: &CancelToken) -> Option<JobRecord> {
        if self.countdown.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.queue.cancel_token().cancel();
            return None;
        }
        ctx.execute(job, takeback)
    }
}

struct Args {
    dir: Option<PathBuf>,
    workers: usize,
    cache_dir: Option<PathBuf>,
    report: Option<PathBuf>,
    kill_after: Option<u64>,
    resume: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        dir: None,
        workers: 0,
        cache_dir: None,
        report: None,
        kill_after: None,
        resume: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--dir" => args.dir = Some(PathBuf::from(value("--dir")?)),
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--cache-dir" => args.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--report" => args.report = Some(PathBuf::from(value("--report")?)),
            "--kill-after" => {
                args.kill_after = Some(
                    value("--kill-after")?
                        .parse()
                        .map_err(|e| format!("--kill-after: {e}"))?,
                );
            }
            "--resume" => args.resume = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if args.kill_after == Some(0) {
        return Err("--kill-after must be >= 1".into());
    }
    if (args.kill_after.is_some() || args.resume) && args.dir.is_none() {
        return Err("--kill-after and --resume need --dir (state must outlive this run)".into());
    }
    Ok(args)
}

/// Registers both campaigns and enqueues every job; idempotent across
/// resumes (already-durable jobs come back `AlreadyComplete`).
fn fill(queue: &JobQueue) -> Result<(), String> {
    for (campaign, jobs) in campaigns() {
        queue.register(campaign);
        for job in jobs {
            let id = job.id.clone();
            match queue.enqueue(campaign, job).map_err(|e| e.to_string())? {
                Enqueued::Accepted | Enqueued::AlreadyComplete => {}
                Enqueued::Poisoned => {
                    return Err(format!(
                        "{id} is quarantined as poison; inspect the queue dir"
                    ))
                }
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("queue_smoke: {e}");
            eprintln!(
                "usage: queue_smoke [--dir PATH] [--report PATH] [--workers N] \
                 [--cache-dir PATH] [--kill-after N] [--resume]"
            );
            return ExitCode::FAILURE;
        }
    };

    let throwaway = args.dir.is_none();
    let dir = args.dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("queue_smoke.{}", std::process::id()))
    });
    if throwaway {
        std::fs::remove_dir_all(&dir).ok();
    }
    if args.resume {
        let has_state = std::fs::read_dir(&dir)
            .map(|mut entries| entries.next().is_some())
            .unwrap_or(false);
        if !has_state {
            eprintln!(
                "queue_smoke: --resume but {} holds no queue state",
                dir.display()
            );
            return ExitCode::FAILURE;
        }
    }

    let cache_enabled = args.cache_dir.is_some();
    let queue = match JobQueue::open(QueueConfig {
        workers: args.workers,
        cache_dir: args.cache_dir,
        default_timeout: Some(Duration::from_secs(120)),
        // Small enough that CI kills interleave with compaction, so the
        // snapshot+tail replay path is on the smoke path too.
        compact_every: 8,
        ..QueueConfig::new(&dir)
    }) {
        Ok(queue) => queue,
        Err(e) => {
            eprintln!("queue_smoke: opening queue at {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };

    // Startup recovery is kill-history dependent, so it goes to stderr;
    // CI greps the re-leased count after a kill.
    let recovery = queue.recovery();
    eprintln!(
        "queue_smoke: recovery: {} re-leased, torn tail dropped: {}",
        recovery.re_leased, recovery.torn_tail_dropped
    );
    for quarantine in &recovery.quarantines {
        eprintln!("queue_smoke: {quarantine}");
    }

    if let Err(e) = fill(&queue) {
        eprintln!("queue_smoke: {e}");
        return ExitCode::FAILURE;
    }

    let drained = match args.kill_after {
        Some(n) => {
            let killer = KillAfter {
                queue: &queue,
                countdown: AtomicU64::new(n),
            };
            queue.drain_with(&killer)
        }
        None => queue.drain(),
    };
    let outcome = match drained {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("queue_smoke: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Progress counters depend on kill/resume history and worker timing:
    // stderr, never the report artifact.
    eprintln!(
        "queue_smoke: {} resumed, {} executed, {} re-leased, cancelled: {}",
        outcome.resumed, outcome.executed, outcome.re_leased, outcome.cancelled
    );
    eprintln!("queue_smoke: {} lease expiries", outcome.lease_expiries);
    if cache_enabled {
        eprintln!(
            "queue_smoke: cache: {} hits, {} misses",
            outcome.cache_hits, outcome.cache_misses
        );
    }
    let waits = report::render_queue_waits(&outcome.waits, &std::collections::BTreeMap::new());
    if !waits.is_empty() {
        eprint!("{waits}");
    }
    let timing = report::render_timing(&outcome.records);
    if !timing.is_empty() {
        eprint!("{timing}");
    }
    // Host-phase attribution for the queue's own machinery (journal
    // appends, compactions, cache io, manifest commits) plus the metric
    // counters behind it — stderr only, like every wall-clock appendix.
    if let Some((metrics, prof)) = ffsim_driver::hostobs::snapshot() {
        let profile = report::render_profile(&prof);
        if !profile.is_empty() {
            eprint!("\n{profile}");
        }
        if let Some(appends) = metrics.counter_by_name("queue_journal_appends_total") {
            eprintln!(
                "queue_smoke: {appends} journal appends, {} compactions, {} leases",
                metrics
                    .counter_by_name("queue_compactions_total")
                    .unwrap_or(0),
                metrics.counter_by_name("queue_leases_total").unwrap_or(0)
            );
        }
    }

    if outcome.cancelled {
        if args.kill_after.is_some() {
            // The simulated kill -9: leased jobs stay journaled; a later
            // run with --resume re-executes exactly those. No report —
            // the drain did not finish.
            eprintln!("queue_smoke: killed mid-drain as requested; resume with --resume");
            return ExitCode::SUCCESS;
        }
        eprintln!("queue_smoke: drain cancelled unexpectedly");
        return ExitCode::FAILURE;
    }

    // The deterministic artifact: merged records plus the poison and
    // quarantine appendices (all empty on a healthy run, and identical
    // however many kills and resumes preceded this drain).
    let mut text = report::render(&outcome.records);
    text.push_str(&report::render_poison(&outcome.poison));
    text.push_str(&report::render_quarantines(&outcome.quarantines));
    for quarantine in &outcome.quarantines {
        eprintln!("queue_smoke: {quarantine}");
    }
    match &args.report {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("queue_smoke: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        None => print!("{text}"),
    }
    if throwaway {
        std::fs::remove_dir_all(&dir).ok();
    }
    ExitCode::SUCCESS
}
