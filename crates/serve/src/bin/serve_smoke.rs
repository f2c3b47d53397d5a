//! Campaign-service smoke used by CI and by hand: a wire-protocol
//! client submits two campaigns to a [`CampaignServer`] over TCP, the
//! server drains them through the durable queue, and the final report is
//! diffed against the committed golden.
//!
//! The report is byte-deterministic: independent of worker count,
//! scheduling, transport faults, client retries, and how many times the
//! server was killed and restarted. The committed copy lives at
//! `results_serve_smoke.txt` and is verified by `results_check`.
//!
//! ```text
//! serve_smoke                                   # in-process demo (golden)
//! serve_smoke serve --dir PATH --addr HOST:PORT [--workers N] [--report PATH]
//! serve_smoke client submit --addr HOST:PORT [--chaos]
//! serve_smoke client wait --addr HOST:PORT [--jobs N] [--budget-secs S]
//! serve_smoke client report --addr HOST:PORT [--out PATH]
//! serve_smoke client shutdown --addr HOST:PORT
//! serve_smoke client cancel --addr HOST:PORT
//! ```
//!
//! The no-argument demo runs server and client in one process over a
//! loopback socket with a throwaway queue directory and prints the final
//! report to stdout. The `serve`/`client` subcommands split the two
//! halves across processes so CI can `kill -9` the server mid-drain,
//! restart it against the same `--dir`, re-run the client, and assert
//! the report is byte-identical to the uninterrupted demo. `--chaos`
//! tears the first connection of every other submit mid-frame, proving
//! the retry-plus-dedup path over a real socket.

use ffsim_driver::{mode_from_label, Job, JobQueue, QueueConfig, RetryPolicy, WorkloadFn};
use ffsim_emu::{FaultPolicy, Memory};
use ffsim_isa::{Asm, Program, Reg};
use ffsim_serve::{
    CampaignServer, Conn, Connector, FaultyTransport, JobFactory, JobSpec, ServeClient,
    ServeConfig, SubmitOutcome,
};
use ffsim_uarch::CoreConfig;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Loop trips: sized so a CI `kill -9` lands while later jobs are still
/// pending, but the no-argument `results_check` run stays fast.
const TRIPS: i64 = 20_000;

/// Jobs across both campaigns (the `client wait` default).
const TOTAL_JOBS: u64 = 8;

fn countdown_div(trips: i64) -> Result<Program, ffsim_core::SimError> {
    let (i, c, q) = (Reg::new(1), Reg::new(2), Reg::new(3));
    let mut a = Asm::new();
    a.li(i, trips);
    a.li(c, 1_000_003);
    a.label("loop");
    a.div(q, c, i);
    a.addi(i, i, -1);
    a.bnez(i, "loop");
    a.halt();
    Ok(a.assemble()?)
}

fn countup_load(trips: i64) -> Result<Program, ffsim_core::SimError> {
    let (i, n, base, t, v) = (
        Reg::new(1),
        Reg::new(2),
        Reg::new(5),
        Reg::new(6),
        Reg::new(7),
    );
    let mut a = Asm::new();
    a.li(i, 0);
    a.li(n, trips);
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

fn workload(program: fn(i64) -> Result<Program, ffsim_core::SimError>, trips: i64) -> WorkloadFn {
    Arc::new(move || Ok((program(trips)?, Memory::new())))
}

/// The server-side workload registry: the names a [`JobSpec`] may carry
/// and the payloads they re-attach. This is the factory a restarted
/// server rebuilds jobs from, so it must cover every workload CI ever
/// submits against a durable directory.
fn factory() -> JobFactory {
    Arc::new(|spec: &JobSpec| {
        let mode =
            mode_from_label(&spec.mode).ok_or_else(|| format!("unknown mode `{}`", spec.mode))?;
        let job = match spec.workload.as_str() {
            "countdown-div" => Job::new(&spec.id, mode, workload(countdown_div, spec.arg)),
            "countup-load" => Job::new(&spec.id, mode, workload(countup_load, spec.arg)),
            // Divide-by-zero trapping under the abort policy faults the
            // wrong path under full emulation only: the job degrades
            // wpemul -> conv and the report shows the ladder.
            "countdown-div-abort" => Job::new(&spec.id, mode, workload(countdown_div, spec.arg))
                .with_tweak(Arc::new(|cfg| {
                    cfg.fault_model.trap_div_zero = true;
                    cfg.fault_policy = FaultPolicy::AbortRun;
                })),
            other => return Err(format!("unknown workload `{other}`")),
        };
        Ok(job.with_core(CoreConfig::tiny_for_tests()))
    })
}

/// A campaign registration plus its job specs, as the client submits
/// them over the wire.
struct CampaignPlan {
    id: &'static str,
    quota: Option<u64>,
    jobs: Vec<JobSpec>,
}

/// Two campaigns mirroring the queue smoke's fixture shape but with
/// service-distinct job ids, so the two goldens stay independent
/// artifacts. A quota on `beta` keeps
/// the admission-quota path exercised (sized to never reject here).
fn plans() -> Vec<CampaignPlan> {
    let spec = |id: String, mode: &str, workload: &str| JobSpec {
        id,
        mode: mode.to_string(),
        workload: workload.to_string(),
        arg: TRIPS,
    };
    let alpha = ["nowp", "instrec", "conv", "wpemul"]
        .into_iter()
        .map(|mode| spec(format!("alpha-countdown/{mode}"), mode, "countdown-div"))
        .collect();
    let mut beta: Vec<JobSpec> = ["nowp", "conv", "wpemul"]
        .into_iter()
        .map(|mode| spec(format!("beta-countup/{mode}"), mode, "countup-load"))
        .collect();
    beta.push(spec(
        "beta-divzero/wpemul".to_string(),
        "wpemul",
        "countdown-div-abort",
    ));
    vec![
        CampaignPlan {
            id: "alpha",
            quota: None,
            jobs: alpha,
        },
        CampaignPlan {
            id: "beta",
            quota: Some(TOTAL_JOBS),
            jobs: beta,
        },
    ]
}

/// The client retry policy: deterministic jittered exponential backoff
/// patient enough to ride out a server restart between attempts.
fn client_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        base_backoff: Duration::from_millis(100),
        max_backoff: Duration::from_secs(2),
    }
}

const IO_TIMEOUT: Duration = Duration::from_secs(10);

fn client(addr: &str) -> ServeClient {
    ServeClient::tcp(addr.to_string(), IO_TIMEOUT, client_retry())
}

/// A client whose every odd-numbered connection tears mid-frame: each
/// first submit attempt dies partway into the request, and the retry on
/// a fresh connection must land exactly once server-side.
fn chaos_client(addr: &str) -> ServeClient {
    let addr = addr.to_string();
    let mut connections = 0u32;
    let connector: Connector = Box::new(move || {
        connections += 1;
        let stream = TcpStream::connect(&addr)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(if connections % 2 == 1 {
            Box::new(FaultyTransport::new(stream).cut_write_after(9)) as Box<dyn Conn>
        } else {
            Box::new(stream) as Box<dyn Conn>
        })
    });
    ServeClient::new(connector, client_retry())
}

fn queue_config(dir: &PathBuf, workers: usize) -> QueueConfig {
    QueueConfig {
        workers,
        default_timeout: Some(Duration::from_secs(120)),
        // Small enough that CI kills interleave with compaction, so the
        // snapshot+tail replay path is on the smoke path too.
        compact_every: 8,
        ..QueueConfig::new(dir)
    }
}

/// Registers every campaign and submits every job; idempotent across
/// retries, chaos, and server restarts.
fn submit_all(client: &mut ServeClient) -> Result<(), String> {
    for plan in plans() {
        client
            .register(plan.id, plan.quota)
            .map_err(|e| format!("register {}: {e}", plan.id))?;
        for job in plan.jobs {
            let id = job.id.clone();
            let (outcome, deduped) = client
                .submit(plan.id, job)
                .map_err(|e| format!("submit {id}: {e}"))?;
            eprintln!(
                "serve_smoke: submit {id}: {}{}",
                outcome.label(),
                if deduped { " (deduped)" } else { "" }
            );
            if outcome == SubmitOutcome::Poisoned {
                return Err(format!(
                    "{id} is quarantined as poison; inspect the queue dir"
                ));
            }
        }
    }
    // One deliberate duplicate: the dedup map must answer it without a
    // second enqueue, whatever state the job is in by now.
    let duplicate = plans().remove(0).jobs.remove(0);
    let id = duplicate.id.clone();
    let (outcome, deduped) = client
        .submit("alpha", duplicate)
        .map_err(|e| format!("duplicate submit {id}: {e}"))?;
    eprintln!(
        "serve_smoke: duplicate submit {id}: {} (deduped: {deduped})",
        outcome.label()
    );
    Ok(())
}

/// Polls status until every job reaches a terminal state, tolerating
/// connection failures (the server may be restarting) within the budget.
fn wait_drained(addr: &str, jobs: u64, budget: Duration) -> Result<(), String> {
    let deadline = Instant::now() + budget;
    loop {
        match client(addr).status() {
            Ok(stats) => {
                eprintln!(
                    "serve_smoke: status: {} pending, {} leased, {} committed, {} failed, {} quarantined",
                    stats.pending, stats.leased, stats.committed, stats.failed, stats.quarantined
                );
                if stats.drained() && stats.terminal() >= jobs {
                    return Ok(());
                }
            }
            Err(e) => eprintln!("serve_smoke: status unavailable ({e}); retrying"),
        }
        if Instant::now() >= deadline {
            return Err(format!("queue not drained within {budget:?}"));
        }
        std::thread::sleep(Duration::from_millis(500));
    }
}

/// The in-process demo: server and client over a loopback socket, a
/// throwaway queue directory, and the deterministic report on stdout.
/// With `chaos`, every other client connection tears mid-frame and the
/// report must come out identical anyway.
fn demo(report_path: Option<&PathBuf>, chaos: bool) -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!("serve_smoke.{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let queue = JobQueue::open(queue_config(&dir, 0)).map_err(|e| e.to_string())?;
    let server = CampaignServer::new(queue, factory(), ServeConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();

    let outcome = std::thread::scope(|scope| {
        let running = scope.spawn(|| server.run(listener));
        let mut client = if chaos {
            chaos_client(&addr)
        } else {
            client(&addr)
        };
        submit_all(&mut client)?;
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        running
            .join()
            .map_err(|_| "server panicked".to_string())?
            .map_err(|e| e.to_string())
    })?;

    // Request counts and wait distributions depend on retry and worker
    // timing: stderr, never the report artifact.
    eprintln!(
        "serve_smoke: {} requests, {} dedup hits, cancelled: {}",
        outcome.requests, outcome.dedup_hits, outcome.cancelled
    );
    let waits = ffsim_driver::report::render_queue_waits(&outcome.waits, &outcome.quota_rejections);
    if !waits.is_empty() {
        eprint!("{waits}");
    }
    match report_path {
        Some(path) => std::fs::write(path, &outcome.report)
            .map_err(|e| format!("writing {}: {e}", path.display()))?,
        None => print!("{}", outcome.report),
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

/// The server half: open the durable queue at `--dir` and serve until a
/// graceful shutdown (or a `kill -9`, which is the point of the CI leg).
fn serve(
    dir: &PathBuf,
    addr: &str,
    workers: usize,
    report: Option<&PathBuf>,
) -> Result<(), String> {
    let queue = JobQueue::open(queue_config(dir, workers))
        .map_err(|e| format!("opening queue at {}: {e}", dir.display()))?;
    let recovery = queue.recovery();
    eprintln!(
        "serve_smoke: recovery: {} re-leased, torn tail dropped: {}",
        recovery.re_leased, recovery.torn_tail_dropped
    );
    for quarantine in &recovery.quarantines {
        eprintln!("serve_smoke: {quarantine}");
    }
    let server = CampaignServer::new(queue, factory(), ServeConfig::default());
    let listener = TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
    eprintln!("serve_smoke: serving on {addr}, queue at {}", dir.display());
    let outcome = server.run(listener).map_err(|e| e.to_string())?;
    eprintln!(
        "serve_smoke: drained: {} requests, {} dedup hits, cancelled: {}",
        outcome.requests, outcome.dedup_hits, outcome.cancelled
    );
    let waits = ffsim_driver::report::render_queue_waits(&outcome.waits, &outcome.quota_rejections);
    if !waits.is_empty() {
        eprint!("{waits}");
    }
    if let Some(path) = report {
        std::fs::write(path, &outcome.report)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}

struct Flags {
    addr: Option<String>,
    dir: Option<PathBuf>,
    workers: usize,
    report: Option<PathBuf>,
    out: Option<PathBuf>,
    jobs: u64,
    budget_secs: u64,
    chaos: bool,
}

fn parse_flags(argv: impl Iterator<Item = String>) -> Result<Flags, String> {
    let mut flags = Flags {
        addr: None,
        dir: None,
        workers: 0,
        report: None,
        out: None,
        jobs: TOTAL_JOBS,
        budget_secs: 120,
        chaos: false,
    };
    let mut argv = argv.peekable();
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--addr" => flags.addr = Some(value("--addr")?),
            "--dir" => flags.dir = Some(PathBuf::from(value("--dir")?)),
            "--workers" => {
                flags.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--report" => flags.report = Some(PathBuf::from(value("--report")?)),
            "--out" => flags.out = Some(PathBuf::from(value("--out")?)),
            "--jobs" => {
                flags.jobs = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
            }
            "--budget-secs" => {
                flags.budget_secs = value("--budget-secs")?
                    .parse()
                    .map_err(|e| format!("--budget-secs: {e}"))?;
            }
            "--chaos" => flags.chaos = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(flags)
}

fn addr_of(flags: &Flags) -> Result<&str, String> {
    flags
        .addr
        .as_deref()
        .ok_or_else(|| "--addr is required".to_string())
}

fn dispatch() -> Result<(), String> {
    let mut argv = std::env::args().skip(1);
    match argv.next().as_deref() {
        None => demo(None, false),
        Some("serve") => {
            let flags = parse_flags(argv)?;
            let dir = flags.dir.clone().ok_or("serve needs --dir")?;
            serve(&dir, addr_of(&flags)?, flags.workers, flags.report.as_ref())
        }
        Some("client") => {
            let verb = argv.next().ok_or("client needs a verb")?;
            let flags = parse_flags(argv)?;
            let addr = addr_of(&flags)?;
            match verb.as_str() {
                "submit" => {
                    let mut client = if flags.chaos {
                        chaos_client(addr)
                    } else {
                        client(addr)
                    };
                    submit_all(&mut client)
                }
                "wait" => wait_drained(addr, flags.jobs, Duration::from_secs(flags.budget_secs)),
                "report" => {
                    let text = client(addr).report().map_err(|e| e.to_string())?;
                    match &flags.out {
                        Some(path) => std::fs::write(path, &text)
                            .map_err(|e| format!("writing {}: {e}", path.display()))?,
                        None => print!("{text}"),
                    }
                    Ok(())
                }
                "shutdown" => client(addr).shutdown().map_err(|e| e.to_string()),
                "cancel" => client(addr).cancel().map_err(|e| e.to_string()),
                other => Err(format!("unknown client verb `{other}`")),
            }
        }
        Some(other) => {
            // Allow `serve_smoke --report PATH [--chaos]` for the bare
            // demo too.
            if other.starts_with("--") {
                let args: Vec<String> = std::iter::once(other.to_string()).chain(argv).collect();
                let flags = parse_flags(args.into_iter())?;
                demo(flags.report.as_ref(), flags.chaos)
            } else {
                Err(format!("unknown subcommand `{other}`"))
            }
        }
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve_smoke: {e}");
            eprintln!(
                "usage: serve_smoke [serve --dir PATH --addr HOST:PORT [--workers N] \
                 [--report PATH] | client (submit [--chaos] | wait [--jobs N] \
                 [--budget-secs S] | report [--out PATH] | shutdown | cancel) \
                 --addr HOST:PORT]"
            );
            ExitCode::FAILURE
        }
    }
}
