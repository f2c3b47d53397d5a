//! End-to-end tests for the durable campaign job queue: journaled
//! crash-consistent ingest, lease edges (deadline zero, expiry racing
//! commit, dangling-lease reclaim), poison-job quarantine, FIFO order,
//! saturation backpressure, and byte-identical reports across
//! kill/resume and journal damage.

use ffsim_core::{CancelToken, WrongPathMode};
use ffsim_driver::{
    report, Enqueued, Job, JobQueue, JobRecord, JobRunner, QueueConfig, QueueError, RetryPolicy,
    RunContext, TelemetryConfig, WorkloadFn,
};
use ffsim_emu::Memory;
use ffsim_isa::{Asm, Program, Reg};
use ffsim_uarch::CoreConfig;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const TRIPS: i64 = 500;

fn countdown(trips: i64) -> Result<Program, ffsim_core::SimError> {
    let i = Reg::new(1);
    let mut a = Asm::new();
    a.li(i, trips);
    a.label("loop");
    a.addi(i, i, -1);
    a.bnez(i, "loop");
    a.halt();
    Ok(a.assemble()?)
}

fn workload(trips: i64) -> WorkloadFn {
    Arc::new(move || Ok((countdown(trips)?, Memory::new())))
}

fn job(id: &str, trips: i64) -> Job {
    Job::new(id, WrongPathMode::WrongPathEmulation, workload(trips))
        .with_core(CoreConfig::tiny_for_tests())
}

/// Two campaigns × two jobs each: the standard fixture most tests use.
fn standard_jobs() -> Vec<(&'static str, Job)> {
    vec![
        ("alpha", job("alpha/fast", TRIPS / 2)),
        ("alpha", job("alpha/slow", TRIPS)),
        ("beta", job("beta/fast", TRIPS / 2)),
        ("beta", job("beta/slow", TRIPS)),
    ]
}

fn qcfg(dir: &Path) -> QueueConfig {
    QueueConfig {
        workers: 1,
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        },
        default_timeout: Some(Duration::from_secs(60)),
        telemetry: TelemetryConfig::default(),
        ..QueueConfig::new(dir)
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn open_with_standard_jobs(cfg: QueueConfig) -> JobQueue {
    let queue = JobQueue::open(cfg).expect("queue opens");
    queue.register("alpha");
    queue.register("beta");
    for (campaign, j) in standard_jobs() {
        assert_eq!(
            queue.enqueue(campaign, j).expect("enqueue"),
            Enqueued::Accepted
        );
    }
    queue
}

/// The reference report: the same four jobs drained with no
/// interruptions or crashes.
fn reference_report(name: &str) -> String {
    let dir = tmp_dir(name);
    let queue = open_with_standard_jobs(qcfg(&dir));
    let outcome = queue.drain().expect("drain");
    assert_eq!(outcome.records.len(), 4);
    report::render(&outcome.records)
}

// ---------------------------------------------------------------------
// Plumbing and validation.
// ---------------------------------------------------------------------

#[test]
fn unknown_campaign_and_duplicates_are_typed_errors() {
    let dir = tmp_dir("queue_validation");
    let queue = JobQueue::open(qcfg(&dir)).expect("open");
    assert!(matches!(
        queue.enqueue("nope", job("nope/x", 10)),
        Err(QueueError::UnknownCampaign(_))
    ));
    queue.register("a");
    queue.enqueue("a", job("a/x", 10)).expect("first enqueue");
    assert!(matches!(
        queue.enqueue("a", job("a/x", 10)),
        Err(QueueError::DuplicateJob(_))
    ));
}

#[test]
fn saturation_is_backpressure_not_corruption() {
    let dir = tmp_dir("queue_saturated");
    let cfg = QueueConfig {
        capacity: 2,
        ..qcfg(&dir)
    };
    let queue = JobQueue::open(cfg).expect("open");
    queue.register("a");
    queue.enqueue("a", job("a/1", 10)).expect("fits");
    queue.enqueue("a", job("a/2", 10)).expect("fits");
    assert_eq!(
        queue.enqueue("a", job("a/3", 10)),
        Err(QueueError::Saturated {
            depth: 2,
            capacity: 2
        })
    );
    // Draining frees capacity.
    queue.drain().expect("drain");
    assert_eq!(
        queue.enqueue("a", job("a/3", 10)).expect("fits now"),
        Enqueued::Accepted
    );
}

// ---------------------------------------------------------------------
// Lease edges.
// ---------------------------------------------------------------------

/// A zero lease deadline means every lease is immediately reclaimable —
/// but with a single worker nothing reaps mid-run, so every job still
/// completes exactly once.
#[test]
fn lease_deadline_zero_completes_with_a_single_worker() {
    let dir = tmp_dir("queue_lease_zero");
    let cfg = QueueConfig {
        lease: Duration::ZERO,
        ..qcfg(&dir)
    };
    let queue = open_with_standard_jobs(cfg);
    let outcome = queue.drain().expect("drain");
    assert_eq!(outcome.records.len(), 4);
    assert_eq!(outcome.executed, 4);
    assert!(outcome.poison.is_empty());
}

/// Counts executions and forces the lease to expire at the exact moment
/// the record is ready: commit must win and the job must not re-run.
struct ExpireAtCommit<'q> {
    queue: &'q JobQueue,
    runs: AtomicUsize,
}

impl JobRunner for ExpireAtCommit<'_> {
    fn run(&self, ctx: &RunContext<'_>, job: &Job, takeback: &CancelToken) -> Option<JobRecord> {
        self.runs.fetch_add(1, Ordering::SeqCst);
        let record = ctx.execute(job, takeback);
        // The lease deadline is zero, so this marks *this* job's lease
        // as expired (and fires its take-back token) just before the
        // worker commits the finished record.
        self.queue.reap_expired();
        record
    }
}

#[test]
fn commit_wins_over_a_lease_expiring_at_commit_time() {
    let dir = tmp_dir("queue_commit_wins");
    let cfg = QueueConfig {
        lease: Duration::ZERO,
        ..qcfg(&dir)
    };
    let queue = open_with_standard_jobs(cfg);
    let runner = ExpireAtCommit {
        queue: &queue,
        runs: AtomicUsize::new(0),
    };
    let outcome = queue.drain_with(&runner).expect("drain");
    assert_eq!(outcome.records.len(), 4);
    assert_eq!(
        runner.runs.load(Ordering::SeqCst),
        4,
        "no job may execute twice when its commit races the expiry"
    );
    assert_eq!(outcome.executed, 4);
    assert_eq!(outcome.cache_hits, 0);
    assert_eq!(
        outcome.lease_expiries, 0,
        "an expiry that lost to the commit is not an expiry"
    );
    assert!(outcome.poison.is_empty());
}

/// Panics identically on one job until the queue quarantines it.
struct PoisonPill;

impl JobRunner for PoisonPill {
    fn run(&self, ctx: &RunContext<'_>, job: &Job, takeback: &CancelToken) -> Option<JobRecord> {
        assert!(job.id != "beta/slow", "boom");
        ctx.execute(job, takeback)
    }
}

#[test]
fn repeated_identical_panics_quarantine_the_job_as_poison() {
    let dir = tmp_dir("queue_poison");
    let cfg = QueueConfig {
        max_lease_failures: 2,
        ..qcfg(&dir)
    };
    let queue = open_with_standard_jobs(cfg);
    let outcome = queue.drain_with(&PoisonPill).expect("drain");
    assert_eq!(outcome.records.len(), 3, "the poison job never commits");
    assert_eq!(outcome.poison.len(), 1);
    let poison = &outcome.poison[0];
    assert_eq!(poison.id, "beta/slow");
    assert_eq!(poison.campaign, "beta");
    assert_eq!(poison.failures, 2);
    assert_eq!(poison.error, "panic: boom");

    let appendix = report::render_poison(&outcome.poison);
    assert!(appendix.contains("beta/slow [beta]: 2 identical failures, last: panic: boom"));

    // The quarantine is durable: a fresh open refuses to re-run it.
    drop(queue);
    let queue = JobQueue::open(QueueConfig {
        max_lease_failures: 2,
        ..qcfg(&dir)
    })
    .expect("reopen");
    queue.register("beta");
    assert_eq!(
        queue
            .enqueue("beta", job("beta/slow", TRIPS))
            .expect("enqueue"),
        Enqueued::Poisoned
    );
}

// ---------------------------------------------------------------------
// Crash, damage, and resume.
// ---------------------------------------------------------------------

/// Simulates kill -9 mid-drain: when the trigger job starts, the service
/// stop token fires and the runner abandons the job, leaving its lease
/// journaled and dangling.
struct KillAt<'q> {
    queue: &'q JobQueue,
    trigger: &'static str,
}

impl JobRunner for KillAt<'_> {
    fn run(&self, ctx: &RunContext<'_>, job: &Job, takeback: &CancelToken) -> Option<JobRecord> {
        if job.id == self.trigger {
            self.queue.cancel_token().cancel();
            return None;
        }
        ctx.execute(job, takeback)
    }
}

#[test]
fn killed_and_resumed_drain_yields_a_byte_identical_report() {
    let reference = reference_report("queue_reference");
    let dir = tmp_dir("queue_kill_resume");
    let queue = open_with_standard_jobs(qcfg(&dir));
    let runner = KillAt {
        queue: &queue,
        trigger: "beta/fast",
    };
    let outcome = queue.drain_with(&runner).expect("interrupted drain");
    assert!(outcome.cancelled);
    assert!(outcome.records.len() < 4, "the kill landed mid-drain");
    drop(queue);

    // A new process: reopen, re-register, re-enqueue the same sequence.
    let queue = JobQueue::open(qcfg(&dir)).expect("reopen");
    assert_eq!(
        queue.recovery().re_leased,
        1,
        "the dangling lease is reclaimed with its budget intact"
    );
    queue.register("alpha");
    queue.register("beta");
    let mut accepted = 0;
    for (campaign, j) in standard_jobs() {
        match queue.enqueue(campaign, j).expect("enqueue") {
            Enqueued::Accepted => accepted += 1,
            Enqueued::AlreadyComplete => {}
            Enqueued::Poisoned => panic!("nothing was poisoned"),
        }
    }
    assert!(accepted >= 1, "the killed job must re-run");
    let outcome = queue.drain().expect("resumed drain");
    assert_eq!(outcome.records.len(), 4);
    assert_eq!(report::render(&outcome.records), reference);
}

#[test]
fn torn_journal_tail_is_dropped_and_resume_is_byte_identical() {
    let reference = reference_report("queue_reference_torn");
    let dir = tmp_dir("queue_torn_tail");
    let queue = open_with_standard_jobs(qcfg(&dir));
    let outcome = queue.drain().expect("drain");
    let report_before = report::render(&outcome.records);
    assert_eq!(report_before, reference);
    drop(queue);

    // A crash mid-append leaves a half-written record at the tail.
    let journal = dir.join("queue.journal");
    let mut bytes = std::fs::read(&journal).expect("journal exists");
    bytes.extend_from_slice(b"{\n  \"record\": \"leased\",\n  \"job\": \"al");
    std::fs::write(&journal, &bytes).expect("tear the tail");

    let queue = JobQueue::open(qcfg(&dir)).expect("reopen");
    assert!(queue.recovery().torn_tail_dropped);
    assert!(queue.recovery().quarantines.is_empty());
    queue.register("alpha");
    queue.register("beta");
    for (campaign, j) in standard_jobs() {
        assert_eq!(
            queue.enqueue(campaign, j).expect("enqueue"),
            Enqueued::AlreadyComplete,
            "every result is still durable"
        );
    }
    let outcome = queue.drain().expect("no-op drain");
    assert_eq!(outcome.executed, 0);
    assert_eq!(report::render(&outcome.records), reference);
}

#[test]
fn mid_journal_corruption_quarantines_but_results_survive() {
    let reference = reference_report("queue_reference_corrupt");
    let dir = tmp_dir("queue_corrupt");
    let queue = open_with_standard_jobs(qcfg(&dir));
    queue.drain().expect("drain");
    drop(queue);

    // Flip bytes inside the FIRST record: damage before the tail is
    // corruption, not a torn append.
    let journal = dir.join("queue.journal");
    let text = std::fs::read_to_string(&journal).expect("journal exists");
    let damaged = text.replacen("alpha", "XXXXX", 1);
    assert_ne!(damaged, text);
    std::fs::write(&journal, &damaged).expect("damage the journal");

    let queue = JobQueue::open(qcfg(&dir)).expect("reopen");
    assert_eq!(
        queue.recovery().quarantines.len(),
        1,
        "the journal is quarantined as evidence"
    );
    assert!(dir.join("queue.journal.corrupt").exists());
    queue.register("alpha");
    queue.register("beta");
    for (campaign, j) in standard_jobs() {
        assert_eq!(
            queue.enqueue(campaign, j).expect("enqueue"),
            Enqueued::AlreadyComplete,
            "results live in results.json, not the journal"
        );
    }
    let outcome = queue.drain().expect("drain");
    assert_eq!(outcome.executed, 0);
    assert_eq!(report::render(&outcome.records), reference);
}

#[test]
fn compaction_snapshots_fold_the_journal_and_preserve_resume() {
    let reference = reference_report("queue_reference_compact");
    let dir = tmp_dir("queue_compact");
    let cfg = QueueConfig {
        compact_every: 3,
        ..qcfg(&dir)
    };
    let queue = open_with_standard_jobs(cfg.clone());
    queue.drain().expect("drain");
    assert!(
        dir.join("queue.snapshot").exists(),
        "4 jobs × 3 records crosses the compaction threshold"
    );
    drop(queue);

    let queue = JobQueue::open(cfg).expect("reopen replays snapshot + tail");
    queue.register("alpha");
    queue.register("beta");
    for (campaign, j) in standard_jobs() {
        assert_eq!(
            queue.enqueue(campaign, j).expect("enqueue"),
            Enqueued::AlreadyComplete
        );
    }
    let outcome = queue.drain().expect("drain");
    assert_eq!(outcome.executed, 0);
    assert_eq!(report::render(&outcome.records), reference);
}

#[test]
fn identical_points_resume_from_the_cache_across_queue_lives() {
    let dir_a = tmp_dir("queue_cache_a");
    let dir_b = tmp_dir("queue_cache_b");
    let cache = tmp_dir("queue_cache_store");
    let cfg = |dir: &Path| QueueConfig {
        cache_dir: Some(cache.clone()),
        ..qcfg(dir)
    };
    let first = open_with_standard_jobs(cfg(&dir_a)).drain().expect("drain");
    // alpha/fast and beta/fast (and the two slow jobs) are identical
    // campaign points, so the content-addressed cache dedups them even
    // within the first run: 2 misses simulate, 2 hits are re-keyed.
    assert_eq!(first.cache_hits, 2);
    assert_eq!(first.cache_misses, 2);

    // A brand-new queue directory, same campaign points: everything is
    // served from the content-addressed cache without simulating.
    let second = open_with_standard_jobs(cfg(&dir_b)).drain().expect("drain");
    assert_eq!(second.cache_hits, 4);
    assert_eq!(second.executed, 4);
    // The summary table ignores the `cached` provenance flag, so the
    // cache-served run renders byte-identically.
    assert_eq!(
        report::render(&first.records),
        report::render(&second.records)
    );
}

/// Both the journal and the snapshot are damaged: each goes to its own
/// quarantine path with its bytes intact, and the results still resume.
#[test]
fn damaged_journal_and_snapshot_keep_separate_evidence() {
    let reference = reference_report("queue_reference_both_damaged");
    let dir = tmp_dir("queue_both_damaged");
    let queue = open_with_standard_jobs(qcfg(&dir));
    queue.drain().expect("drain");
    drop(queue);

    let journal = dir.join("queue.journal");
    let snapshot = dir.join("queue.snapshot");
    let text = std::fs::read_to_string(&journal).expect("journal exists");
    let damaged_journal = text.replacen("alpha", "XXXXX", 1);
    assert_ne!(damaged_journal, text);
    std::fs::write(&journal, &damaged_journal).expect("damage the journal");
    let damaged_snapshot = "not a snapshot\n";
    std::fs::write(&snapshot, damaged_snapshot).expect("damage the snapshot");

    let queue = JobQueue::open(qcfg(&dir)).expect("reopen");
    let evidence: Vec<PathBuf> = queue
        .recovery()
        .quarantines
        .iter()
        .map(|q| q.quarantined_to.clone())
        .collect();
    assert_eq!(
        evidence,
        [
            dir.join("queue.snapshot.corrupt"),
            dir.join("queue.journal.corrupt")
        ]
    );
    assert_eq!(
        std::fs::read_to_string(&evidence[0]).expect("snapshot evidence"),
        damaged_snapshot
    );
    assert_eq!(
        std::fs::read_to_string(&evidence[1]).expect("journal evidence"),
        damaged_journal
    );
    queue.register("alpha");
    queue.register("beta");
    for (campaign, j) in standard_jobs() {
        assert_eq!(
            queue.enqueue(campaign, j).expect("enqueue"),
            Enqueued::AlreadyComplete,
            "results live in results.json, not the journal"
        );
    }
    let outcome = queue.drain().expect("drain");
    assert_eq!(outcome.executed, 0);
    assert_eq!(report::render(&outcome.records), reference);
    drop(queue);

    // A second damaged snapshot never replaces the first one's evidence.
    std::fs::write(&snapshot, "damaged again\n").expect("damage the snapshot");
    let queue = JobQueue::open(qcfg(&dir)).expect("reopen");
    assert_eq!(
        queue.recovery().quarantines[0].quarantined_to,
        dir.join("queue.snapshot.corrupt.1")
    );
    assert_eq!(
        std::fs::read_to_string(&evidence[0]).expect("first evidence"),
        damaged_snapshot
    );
}

// ---------------------------------------------------------------------
// Scheduling: one FIFO.
// ---------------------------------------------------------------------

/// Logs the execution order. The first run of `victim` expires its own
/// zero-deadline lease and is taken back; every other run delegates to
/// the real engine.
struct ExpireOnce<'q> {
    queue: &'q JobQueue,
    victim: &'static str,
    expired: AtomicBool,
    order: Mutex<Vec<String>>,
}

impl JobRunner for ExpireOnce<'_> {
    fn run(&self, ctx: &RunContext<'_>, job: &Job, takeback: &CancelToken) -> Option<JobRecord> {
        self.order.lock().expect("order log").push(job.id.clone());
        if job.id == self.victim && !self.expired.swap(true, Ordering::SeqCst) {
            assert_eq!(self.queue.reap_expired(), 1, "the victim's lease expires");
            assert!(takeback.is_cancelled());
        }
        ctx.execute(job, takeback)
    }
}

#[test]
fn jobs_run_in_enqueue_order_and_an_expired_lease_reruns_first() {
    let reference = reference_report("queue_reference_fifo");
    let dir = tmp_dir("queue_fifo");
    let cfg = QueueConfig {
        lease: Duration::ZERO,
        ..qcfg(&dir)
    };
    let queue = JobQueue::open(cfg).expect("open");
    queue.register("alpha");
    queue.register("beta");
    // Interleaved across campaigns, and not in campaign-id order.
    let jobs = standard_jobs();
    for index in [3, 0, 2, 1] {
        let (campaign, j) = jobs[index].clone();
        queue.enqueue(campaign, j).expect("enqueue");
    }
    let runner = ExpireOnce {
        queue: &queue,
        victim: "alpha/fast",
        expired: AtomicBool::new(false),
        order: Mutex::new(Vec::new()),
    };
    let outcome = queue.drain_with(&runner).expect("drain");
    let order = runner.order.into_inner().expect("order log");
    assert_eq!(
        order,
        [
            "beta/slow",
            "alpha/fast",
            "alpha/fast",
            "beta/fast",
            "alpha/slow"
        ],
        "enqueue order, and the taken-back job before anything behind it"
    );
    assert_eq!(outcome.lease_expiries, 1);
    assert!(outcome.poison.is_empty());
    assert_eq!(report::render(&outcome.records), reference);
}
