//! Live campaign telemetry: periodic stderr heartbeats and the shared
//! progress counters behind them.
//!
//! Telemetry is **off by default** and is enabled by the same switch as
//! every other observability feature (`FFSIM_OBS`, see
//! [`ffsim_obs::ENV_VAR`]), or explicitly through [`TelemetryConfig`].
//! Heartbeats go to **stderr only** — stdout artifacts (reports,
//! manifests) stay byte-deterministic whatever the telemetry setting.
//!
//! The counters in [`Telemetry`] are plain atomics: workers bump them on
//! the job lifecycle edges (dequeue, retry, finish) and the heartbeat
//! thread renders a snapshot every [`TelemetryConfig::heartbeat`]. A
//! snapshot may be torn across counters (a job can move from `running` to
//! `done` between two loads) — heartbeats are progress indication, not an
//! audit log, and the manifest remains the source of truth.

use crate::job::{JobRecord, JobStatus};
use ffsim_core::WrongPathMode;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The `u64` sentinel for "no value" in [`QueueGauges`] age fields.
const NO_AGE: u64 = u64::MAX;

/// Campaign telemetry settings.
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Master switch. When `false`, no heartbeat thread is spawned and no
    /// per-job [`JobTiming`](crate::JobTiming) is recorded — the campaign
    /// behaves byte-for-byte as if this module did not exist.
    pub enabled: bool,
    /// Heartbeat period.
    pub heartbeat: Duration,
}

impl Default for TelemetryConfig {
    /// Disabled, 5-second heartbeat.
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            enabled: false,
            heartbeat: Duration::from_secs(5),
        }
    }
}

impl TelemetryConfig {
    /// Reads the master switch from the `FFSIM_OBS` environment variable
    /// (the shared observability gate); heartbeat period stays at the
    /// default.
    #[must_use]
    pub fn from_env() -> TelemetryConfig {
        TelemetryConfig {
            enabled: ffsim_obs::env_enabled(),
            ..TelemetryConfig::default()
        }
    }
}

/// Shared campaign progress counters, updated by workers and rendered by
/// the heartbeat thread. See the module docs of `telemetry.rs` for the
/// consistency contract.
#[derive(Debug)]
pub struct Telemetry {
    total: usize,
    start: Instant,
    running: AtomicUsize,
    done: AtomicUsize,
    failed: AtomicUsize,
    retries: AtomicUsize,
    /// Degraded-job count per final rung, indexed like
    /// [`WrongPathMode::ALL`].
    degraded: [AtomicUsize; 4],
    /// Correct-path instructions simulated by finished jobs (MIPS).
    instructions: AtomicU64,
    /// Queue gauges appended to the heartbeat line when the counters
    /// belong to a queue drain rather than a plain campaign.
    queue: Option<Arc<QueueGauges>>,
}

impl Telemetry {
    /// Fresh counters for a campaign of `total` pending jobs.
    #[must_use]
    pub fn new(total: usize) -> Telemetry {
        Telemetry {
            total,
            start: Instant::now(),
            running: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
            retries: AtomicUsize::new(0),
            degraded: [const { AtomicUsize::new(0) }; 4],
            instructions: AtomicU64::new(0),
            queue: None,
        }
    }

    /// [`Telemetry::new`] plus queue gauges: every heartbeat line also
    /// reports queue depth, outstanding leases, and wait ages.
    #[must_use]
    pub fn with_queue(total: usize, gauges: Arc<QueueGauges>) -> Telemetry {
        Telemetry {
            queue: Some(gauges),
            ..Telemetry::new(total)
        }
    }

    /// A worker dequeued a job.
    pub fn job_started(&self) {
        self.running.fetch_add(1, Ordering::Relaxed);
    }

    /// An attempt failed and the job will try again (same rung or the next
    /// one down the ladder).
    pub fn attempt_retried(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// A job reached a terminal record.
    pub fn job_finished(&self, record: &JobRecord) {
        self.running.fetch_sub(1, Ordering::Relaxed);
        self.done.fetch_add(1, Ordering::Relaxed);
        match record.status {
            JobStatus::Failed => {
                self.failed.fetch_add(1, Ordering::Relaxed);
            }
            JobStatus::Degraded => {
                if let Some(rung) = mode_index(record.final_mode) {
                    self.degraded[rung].fetch_add(1, Ordering::Relaxed);
                }
            }
            JobStatus::Completed => {}
        }
        if let Some(summary) = &record.summary {
            self.instructions
                .fetch_add(summary.instructions, Ordering::Relaxed);
        }
    }

    /// A job was abandoned without a record (campaign cancelled mid-job).
    pub fn job_abandoned(&self) {
        self.running.fetch_sub(1, Ordering::Relaxed);
    }

    /// One heartbeat line for the current counters and elapsed wall time.
    #[must_use]
    pub fn heartbeat_line(&self) -> String {
        self.line_at(self.start.elapsed())
    }

    /// [`Telemetry::heartbeat_line`] with an explicit elapsed time
    /// (deterministic rendering for tests).
    #[must_use]
    pub fn line_at(&self, elapsed: Duration) -> String {
        let done = self.done.load(Ordering::Relaxed);
        let running = self.running.load(Ordering::Relaxed);
        let failed = self.failed.load(Ordering::Relaxed);
        let retries = self.retries.load(Ordering::Relaxed);
        let instructions = self.instructions.load(Ordering::Relaxed);
        let secs = elapsed.as_secs_f64();
        let mips = if secs > 0.0 {
            instructions as f64 / secs / 1e6
        } else {
            0.0
        };
        let mut line = format!(
            "campaign: {done}/{} done, {running} running, {retries} retries, {failed} failed",
            self.total
        );
        let degraded: Vec<String> = WrongPathMode::ALL
            .into_iter()
            .enumerate()
            .filter_map(|(i, mode)| {
                let n = self.degraded[i].load(Ordering::Relaxed);
                (n > 0).then(|| format!("{}={n}", mode.label()))
            })
            .collect();
        if !degraded.is_empty() {
            line.push_str(&format!(", degraded to {}", degraded.join(" ")));
        }
        line.push_str(&format!(" | {mips:.2} MIPS | {:.0}s", secs));
        if let Some(queue) = &self.queue {
            line.push_str(&format!(" | {}", queue.render()));
        }
        line
    }
}

/// Live queue gauges rendered into the heartbeat line during a queue
/// drain. The queue refreshes them under its own lock on every lifecycle
/// edge (enqueue, lease, commit, re-enqueue, reap); like the campaign
/// counters they are progress indication, not an audit log — the journal
/// is the source of truth.
#[derive(Debug, Default)]
pub struct QueueGauges {
    depth: AtomicUsize,
    leased: AtomicUsize,
    /// Age of the oldest outstanding lease, in milliseconds as of the last
    /// refresh ([`NO_AGE`] = no lease outstanding).
    oldest_lease_ms: AtomicU64,
    /// Longest wait among currently pending jobs, in milliseconds as of
    /// the last refresh ([`NO_AGE`] = nothing pending).
    longest_wait_ms: AtomicU64,
}

impl QueueGauges {
    /// Fresh gauges (empty queue, no leases).
    #[must_use]
    pub fn new() -> Arc<QueueGauges> {
        Arc::new(QueueGauges {
            oldest_lease_ms: AtomicU64::new(NO_AGE),
            longest_wait_ms: AtomicU64::new(NO_AGE),
            ..QueueGauges::default()
        })
    }

    /// Replaces the snapshot: pending depth, outstanding leases, age of
    /// the oldest lease, and the longest pending wait.
    pub fn set(
        &self,
        depth: usize,
        leased: usize,
        oldest_lease: Option<Duration>,
        longest_wait: Option<Duration>,
    ) {
        self.depth.store(depth, Ordering::Relaxed);
        self.leased.store(leased, Ordering::Relaxed);
        self.oldest_lease_ms
            .store(age_ms(oldest_lease), Ordering::Relaxed);
        self.longest_wait_ms
            .store(age_ms(longest_wait), Ordering::Relaxed);
    }

    /// The heartbeat-line fragment for the current snapshot.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = format!(
            "queue: {} pending, {} leased",
            self.depth.load(Ordering::Relaxed),
            self.leased.load(Ordering::Relaxed)
        );
        let lease = self.oldest_lease_ms.load(Ordering::Relaxed);
        if lease != NO_AGE {
            s.push_str(&format!(", oldest lease {:.1}s", lease as f64 / 1000.0));
        }
        let wait = self.longest_wait_ms.load(Ordering::Relaxed);
        if wait != NO_AGE {
            s.push_str(&format!(", longest wait {:.1}s", wait as f64 / 1000.0));
        }
        s
    }
}

fn age_ms(age: Option<Duration>) -> u64 {
    age.map_or(NO_AGE, |d| {
        u64::try_from(d.as_millis()).unwrap_or(NO_AGE - 1)
    })
}

/// The heartbeat thread: renders [`Telemetry::heartbeat_line`] to stderr
/// every period, and — unlike the previous inline loop, which raced the
/// condvar timeout and occasionally lost the last line — always flushes
/// one final heartbeat from inside the thread on cooperative shutdown,
/// after the stop flag is set. [`Heartbeat::stop`] (or drop) signals the
/// flag and joins, so by the time it returns the final line covering every
/// settled counter is on stderr.
#[derive(Debug)]
pub struct Heartbeat {
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Heartbeat {
    /// Spawns the heartbeat thread.
    #[must_use]
    pub fn spawn(telemetry: Arc<Telemetry>, period: Duration) -> Heartbeat {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_stop = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("campaign-heartbeat".into())
            .spawn(move || {
                let (flag, cv) = &*thread_stop;
                let mut stopped = flag
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                loop {
                    if *stopped {
                        // The final flush: counters have settled (stop is
                        // signalled after the workers join), so this line
                        // reports the campaign's true end state.
                        eprintln!("{}", telemetry.heartbeat_line());
                        return;
                    }
                    let (guard, timeout) = cv
                        .wait_timeout(stopped, period)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    stopped = guard;
                    if timeout.timed_out() && !*stopped {
                        eprintln!("{}", telemetry.heartbeat_line());
                    }
                }
            })
            .expect("spawning the heartbeat thread cannot fail outside resource exhaustion");
        Heartbeat {
            stop,
            thread: Some(thread),
        }
    }

    /// Signals shutdown and waits for the final heartbeat to be flushed.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let (flag, cv) = &*self.stop;
        *flag
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = true;
        cv.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn mode_index(mode: WrongPathMode) -> Option<usize> {
    WrongPathMode::ALL.into_iter().position(|m| m == mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSummary;

    fn record(status: JobStatus, final_mode: WrongPathMode, instructions: u64) -> JobRecord {
        JobRecord {
            id: "j".into(),
            requested_mode: WrongPathMode::WrongPathEmulation,
            final_mode,
            status,
            attempts: vec![],
            summary: (status != JobStatus::Failed).then_some(JobSummary {
                instructions,
                cycles: instructions,
                wrong_path_instructions: 0,
                state_digest: 0,
            }),
            timing: None,
            cpi: None,
            cached: false,
            sim: None,
        }
    }

    #[test]
    fn default_config_is_off() {
        assert!(!TelemetryConfig::default().enabled);
    }

    #[test]
    fn counters_track_the_job_lifecycle() {
        let t = Telemetry::new(3);
        t.job_started();
        t.job_started();
        t.attempt_retried();
        t.job_finished(&record(
            JobStatus::Completed,
            WrongPathMode::WrongPathEmulation,
            2_000_000,
        ));
        t.job_finished(&record(
            JobStatus::Degraded,
            WrongPathMode::ConvergenceExploitation,
            1_000_000,
        ));
        t.job_started();
        t.job_finished(&record(JobStatus::Failed, WrongPathMode::NoWrongPath, 0));
        let line = t.line_at(Duration::from_secs(2));
        assert_eq!(
            line,
            "campaign: 3/3 done, 0 running, 1 retries, 1 failed, \
             degraded to conv=1 | 1.50 MIPS | 2s"
        );
    }

    #[test]
    fn queue_gauges_render_into_the_heartbeat_line() {
        let gauges = QueueGauges::new();
        gauges.set(
            3,
            2,
            Some(Duration::from_millis(1200)),
            Some(Duration::from_millis(300)),
        );
        let t = Telemetry::with_queue(5, gauges);
        let line = t.line_at(Duration::from_secs(1));
        assert_eq!(
            line,
            "campaign: 0/5 done, 0 running, 0 retries, 0 failed | 0.00 MIPS | 1s \
             | queue: 3 pending, 2 leased, oldest lease 1.2s, longest wait 0.3s"
        );
    }

    #[test]
    fn idle_queue_gauges_omit_the_age_fields() {
        let gauges = QueueGauges::new();
        gauges.set(0, 0, None, None);
        assert_eq!(gauges.render(), "queue: 0 pending, 0 leased");
    }

    #[test]
    fn heartbeat_stop_joins_after_the_final_flush() {
        // The final heartbeat is printed by the thread itself before it
        // exits; stop() returning proves the thread observed the flag and
        // flushed (the old inline loop could exit without the last line).
        let t = Arc::new(Telemetry::new(1));
        let hb = Heartbeat::spawn(Arc::clone(&t), Duration::from_secs(3600));
        t.job_started();
        t.job_finished(&record(
            JobStatus::Completed,
            WrongPathMode::WrongPathEmulation,
            1,
        ));
        hb.stop();
    }

    #[test]
    fn abandoned_jobs_leave_done_untouched() {
        let t = Telemetry::new(1);
        t.job_started();
        t.job_abandoned();
        let line = t.line_at(Duration::from_secs(1));
        assert!(line.starts_with("campaign: 0/1 done, 0 running"));
    }
}
