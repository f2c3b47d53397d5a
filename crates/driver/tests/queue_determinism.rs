//! Property test for the durable queue's headline invariant: for an
//! identical enqueue sequence, the merged report is byte-identical
//! whatever the campaign mix, worker count, and wherever a kill -9 lands
//! mid-drain — resumed runs re-execute only leased-but-uncommitted jobs
//! and converge on the same bytes.

use ffsim_core::{CancelToken, WrongPathMode};
use ffsim_driver::{
    report, Enqueued, Job, JobQueue, JobRecord, JobRunner, QueueConfig, RetryPolicy, RunContext,
    TelemetryConfig, WorkloadFn,
};
use ffsim_emu::Memory;
use ffsim_isa::{Asm, Program, Reg};
use ffsim_uarch::CoreConfig;
use proptest::collection::vec;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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

/// One randomly drawn campaign: its per-job trip counts.
type CampaignDraw = Vec<i64>;

fn campaign_jobs(index: usize, trips: &CampaignDraw) -> (String, Vec<Job>) {
    let id = format!("c{index}");
    let jobs = trips
        .iter()
        .enumerate()
        .map(|(j, &t)| {
            Job::new(
                format!("{id}/j{j}"),
                WrongPathMode::WrongPathEmulation,
                workload(t),
            )
            .with_core(CoreConfig::tiny_for_tests())
        })
        .collect();
    (id, jobs)
}

fn qcfg(dir: &Path, workers: usize) -> QueueConfig {
    QueueConfig {
        workers,
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        },
        default_timeout: Some(Duration::from_secs(60)),
        compact_every: 5, // small, so compaction interleaves with kills
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

fn open_and_fill(dir: &Path, workers: usize, campaigns: &[CampaignDraw]) -> JobQueue {
    let queue = JobQueue::open(qcfg(dir, workers)).expect("queue opens");
    for (index, draw) in campaigns.iter().enumerate() {
        let (id, jobs) = campaign_jobs(index, draw);
        queue.register(&id);
        for job in jobs {
            match queue.enqueue(&id, job).expect("enqueue") {
                Enqueued::Accepted | Enqueued::AlreadyComplete => {}
                Enqueued::Poisoned => panic!("no job may poison in this property"),
            }
        }
    }
    queue
}

/// Cancels the service token (the in-process stand-in for kill -9: the
/// journaled lease dangles exactly as a SIGKILL would leave it) when the
/// n-th execution starts, abandoning that job.
struct KillAtNth<'q> {
    queue: &'q JobQueue,
    countdown: AtomicU64,
}

impl JobRunner for KillAtNth<'_> {
    fn run(&self, ctx: &RunContext<'_>, job: &Job, takeback: &CancelToken) -> Option<JobRecord> {
        if self.countdown.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.queue.cancel_token().cancel();
            return None;
        }
        ctx.execute(job, takeback)
    }
}

proptest! {
    #[test]
    fn killed_resumed_drains_match_uninterrupted_bytes(
        campaigns in vec(vec(10i64..60, 2..4), 2..5),
        kill_at in 1u64..12,
        workers in 1usize..3,
    ) {
        let total: usize = campaigns.iter().map(Vec::len).sum();

        // Reference: the same enqueue sequence, drained uninterrupted.
        let dir_ref = tmp_dir("qprop_ref");
        let reference = {
            let queue = open_and_fill(&dir_ref, workers, &campaigns);
            let outcome = queue.drain().expect("reference drain");
            prop_assert_eq!(outcome.records.len(), total);
            report::render(&outcome.records)
        };

        // Interrupted: kill when the kill_at-th execution starts (a
        // kill_at past the job count means the drain finishes first —
        // resume must then be a byte-identical no-op).
        let dir = tmp_dir("qprop_killed");
        {
            let queue = open_and_fill(&dir, workers, &campaigns);
            let killer = KillAtNth { queue: &queue, countdown: AtomicU64::new(kill_at) };
            queue.drain_with(&killer).expect("interrupted drain");
        }

        // Resume in a "new process": reopen, re-register, re-enqueue the
        // identical sequence, drain to completion.
        let queue = open_and_fill(&dir, workers, &campaigns);
        let outcome = queue.drain().expect("resumed drain");
        prop_assert_eq!(outcome.records.len(), total);
        prop_assert!(outcome.poison.is_empty());
        prop_assert_eq!(report::render(&outcome.records), reference.clone());
    }
}

#[test]
fn property_harness_smoke() {
    // One fixed case outside the proptest loop, so a failure here gives
    // a readable panic rather than a shrunk counterexample.
    let campaigns = vec![vec![20, 30], vec![25, 35, 15]];
    let dir_ref = tmp_dir("qprop_smoke_ref");
    let reference = {
        let queue = open_and_fill(&dir_ref, 2, &campaigns);
        report::render(&queue.drain().expect("drain").records)
    };
    let dir = tmp_dir("qprop_smoke");
    {
        let queue = open_and_fill(&dir, 2, &campaigns);
        let killer = KillAtNth {
            queue: &queue,
            countdown: AtomicU64::new(2),
        };
        queue.drain_with(&killer).expect("interrupted drain");
    }
    let queue = open_and_fill(&dir, 2, &campaigns);
    let outcome = queue.drain().expect("resumed drain");
    assert_eq!(outcome.records.len(), 5);
    assert_eq!(report::render(&outcome.records), reference);
}
