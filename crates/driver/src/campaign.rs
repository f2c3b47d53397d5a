//! The supervised campaign runner.
//!
//! A campaign executes a set of [`Job`]s across a worker pool. Every
//! attempt runs under full supervision:
//!
//! - **panic isolation** — attempts run inside `catch_unwind`, so a panic
//!   in the simulator (or a workload builder) fails one attempt, never the
//!   worker or sibling jobs;
//! - **wall-clock deadlines** — each attempt gets a fresh [`CancelToken`]
//!   registered with the [`Watchdog`]; a hung simulation is cancelled
//!   cooperatively ([`SimError::DeadlineExceeded`]), never thread-killed;
//! - **retry with backoff** — failed attempts retry up to the
//!   [`RetryPolicy`] bound with deterministic exponential backoff;
//! - **graceful degradation** — jobs whose attempts are exhausted under
//!   [`WrongPathEmulation`](ffsim_core::WrongPathMode::WrongPathEmulation)
//!   walk down the fidelity ladder (`wpemul → conv → instrec → nowp`),
//!   recording every rung, instead of failing the campaign.
//!
//! Completed jobs are persisted after each finish to a single
//! checksum-sealed JSON manifest ([`ManifestStore`]), so a killed campaign
//! resumes by re-running only the jobs without a record. With a
//! [`CampaignConfig::cache_dir`], results are
//! additionally committed to a content-addressed cache keyed by
//! (workload digest, config digest): a later campaign that schedules the
//! same point serves it from the cache without simulating.

use crate::cache::{self, CacheKey, CacheStore, Lookup};
use crate::job::{
    ladder_next, AttemptOutcome, AttemptRecord, Job, JobRecord, JobStatus, JobSummary, JobTiming,
};
use crate::manifest::{ManifestIo, ManifestStore, Quarantine, RealIo};
use crate::retry::RetryPolicy;
use crate::telemetry::{Heartbeat, QueueGauges, Telemetry, TelemetryConfig};
use crate::watchdog::Watchdog;
use ffsim_core::{CancelToken, SimConfig, SimError, Simulator};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A cloneable, campaign-wide [`ManifestIo`]: every manifest save and cache
/// write goes through it, so tests inject faults
/// ([`FaultyIo`](crate::FaultyIo), scripted failures) into a *running*
/// campaign and prove no committed result is ever lost. Defaults to the
/// real filesystem.
#[derive(Clone)]
pub struct SharedIo(Arc<Mutex<dyn ManifestIo + Send>>);

impl SharedIo {
    /// Wraps an [`ManifestIo`] implementation for campaign-wide use.
    #[must_use]
    pub fn new(io: impl ManifestIo + Send + 'static) -> SharedIo {
        SharedIo(Arc::new(Mutex::new(io)))
    }

    /// Runs `f` with exclusive access to the underlying io.
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut dyn ManifestIo) -> R) -> R {
        let mut guard = self
            .0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f(&mut *guard)
    }
}

impl fmt::Debug for SharedIo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SharedIo(..)")
    }
}

impl Default for SharedIo {
    fn default() -> SharedIo {
        SharedIo::new(RealIo)
    }
}

/// Upper bound on the worker count (`0` still means one per CPU).
pub const MAX_WORKERS: usize = 4096;

/// Validates a campaign or queue worker count at configuration time (`0`
/// is the documented "one per CPU" default and stays valid).
///
/// # Errors
///
/// [`SimError::InvalidConfig`] for counts above [`MAX_WORKERS`].
pub fn validate_worker_count(workers: usize) -> Result<(), SimError> {
    if workers > MAX_WORKERS {
        return Err(SimError::InvalidConfig(format!(
            "worker count {workers} exceeds the maximum of {MAX_WORKERS}"
        )));
    }
    Ok(())
}

/// Campaign-wide supervision settings.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Worker threads (`0` = one per available CPU; at most
    /// [`MAX_WORKERS`]).
    pub workers: usize,
    /// Retry policy applied to every job that does not override it.
    pub retry: RetryPolicy,
    /// Per-attempt wall-clock deadline for jobs without their own
    /// (`None` = attempts are only bounded by cancellation).
    pub default_timeout: Option<Duration>,
    /// Manifest location (`None` = in-memory campaign, no resume).
    pub manifest_path: Option<PathBuf>,
    /// Always `None`: campaigns keep one manifest file. The field remains
    /// only because the benchmark harness builds this struct with
    /// `shards: None`; it goes away in the next change to the benchmark.
    pub shards: Option<std::convert::Infallible>,
    /// Content-addressed result cache directory (`None` = no cache).
    pub cache_dir: Option<PathBuf>,
    /// The filesystem seam used for every manifest save and cache write.
    /// Production campaigns keep the default real filesystem; tests
    /// inject faults.
    pub io: SharedIo,
    /// Live telemetry: stderr heartbeats and per-job timing records.
    /// Defaults to the `FFSIM_OBS` environment switch (off unless set).
    pub telemetry: TelemetryConfig,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            workers: 0,
            retry: RetryPolicy::default(),
            default_timeout: Some(Duration::from_secs(300)),
            manifest_path: None,
            shards: None,
            cache_dir: None,
            io: SharedIo::default(),
            telemetry: TelemetryConfig::from_env(),
        }
    }
}

impl CampaignConfig {
    /// Validates the worker count before any job runs.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for an absurd worker count.
    pub fn validate(&self) -> Result<(), SimError> {
        validate_worker_count(self.workers)
    }
}

/// What a finished (or cancelled) campaign produced.
#[derive(Clone, Debug)]
pub struct CampaignOutcome {
    /// Records for every job with a terminal status — freshly executed
    /// ones plus any loaded from the manifest (id-sorted, independent of
    /// worker count and scheduling).
    pub records: BTreeMap<String, JobRecord>,
    /// Jobs skipped because the manifest already had their record.
    pub resumed: usize,
    /// Jobs executed to a terminal status by this invocation (cache hits
    /// included).
    pub executed: usize,
    /// Jobs served from the content-addressed result cache without
    /// simulating.
    pub cache_hits: usize,
    /// Jobs that probed the cache and missed (includes evicted-corrupt
    /// entries, which are recomputed).
    pub cache_misses: usize,
    /// Whether the campaign token fired; unfinished jobs stay absent from
    /// [`CampaignOutcome::records`] and re-run on resume.
    pub cancelled: bool,
    /// The notice for a manifest that was damaged and quarantined at
    /// startup (its jobs re-ran). Empty on clean runs, so reports stay
    /// byte-identical when nothing went wrong.
    pub quarantines: Vec<Quarantine>,
}

/// A supervised simulation campaign. See the module docs of
/// `campaign.rs`.
#[derive(Debug)]
pub struct Campaign {
    cfg: CampaignConfig,
    cancel: CancelToken,
}

impl Campaign {
    /// Creates a campaign with the given supervision settings.
    #[must_use]
    pub fn new(cfg: CampaignConfig) -> Campaign {
        Campaign {
            cfg,
            cancel: CancelToken::new(),
        }
    }

    /// The campaign-wide cancellation token. Firing it stops the campaign
    /// promptly: workers take no new jobs and in-flight attempts are
    /// cancelled through their own tokens by the watchdog.
    #[must_use]
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Runs `jobs` to completion (or cancellation).
    ///
    /// Jobs already present in the manifest are skipped and counted in
    /// [`CampaignOutcome::resumed`]. Job order in the output is by id,
    /// independent of worker count and scheduling.
    ///
    /// # Errors
    ///
    /// An invalid worker count, duplicate job ids, an
    /// unreadable manifest, or a manifest persist failure mid-campaign
    /// (the campaign stops at the first one — continuing would silently
    /// lose resume coverage).
    pub fn run(&self, jobs: Vec<Job>) -> Result<CampaignOutcome, String> {
        self.cfg.validate().map_err(|e| e.to_string())?;
        let mut seen = std::collections::HashSet::new();
        for job in &jobs {
            if !seen.insert(job.id.clone()) {
                return Err(format!("duplicate job id: {}", job.id));
            }
        }

        let mut store = ManifestStore::new(self.cfg.manifest_path.clone());
        let quarantines: Vec<Quarantine> = store
            .load()
            .map_err(|e| e.to_string())?
            .into_iter()
            .collect();
        let cache = self.cfg.cache_dir.clone().map(CacheStore::new);

        let resumed = jobs.iter().filter(|j| store.contains(&j.id)).count();
        let queue: VecDeque<Job> = jobs
            .into_iter()
            .filter(|j| !store.contains(&j.id))
            .collect();

        let watchdog = Watchdog::spawn(self.cancel.clone());
        let queue = Mutex::new(queue);
        let store = &store;
        let executed = Mutex::new(0usize);
        let cache_hits = Mutex::new(0usize);
        let cache_misses = Mutex::new(0usize);
        let persist_error: Mutex<Option<String>> = Mutex::new(None);

        let workers = if self.cfg.workers == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.cfg.workers
        };

        // Under telemetry the heartbeat line also carries live gauges for
        // the in-memory work queue: pending depth and jobs currently held
        // by workers (the campaign analogue of the durable queue's lease
        // count). Without telemetry the gauges are never created, so the
        // hot path stays untouched.
        let gauges = self.cfg.telemetry.enabled.then(QueueGauges::new);
        let held = std::sync::atomic::AtomicUsize::new(0);
        let total = lock(&queue).len();
        let telemetry = Arc::new(match &gauges {
            Some(g) => Telemetry::with_queue(total, Arc::clone(g)),
            None => Telemetry::new(total),
        });
        if let Some(g) = &gauges {
            g.set(total, 0, None, None);
        }
        let pool_start = Instant::now();
        let heartbeat = self
            .cfg
            .telemetry
            .enabled
            .then(|| Heartbeat::spawn(Arc::clone(&telemetry), self.cfg.telemetry.heartbeat));

        let refresh_gauges = || {
            if let Some(g) = &gauges {
                g.set(
                    lock(&queue).len(),
                    held.load(std::sync::atomic::Ordering::Relaxed),
                    None,
                    None,
                );
            }
        };
        std::thread::scope(|scope| {
            let telemetry = &telemetry;
            let refresh_gauges = &refresh_gauges;
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        loop {
                            if self.cancel.is_cancelled() {
                                return;
                            }
                            let Some(job) = lock(&queue).pop_front() else {
                                return;
                            };
                            held.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            refresh_gauges();
                            let dequeued = Instant::now();
                            telemetry.job_started();
                            let record = self.run_job(
                                &job,
                                &watchdog,
                                telemetry,
                                cache.as_ref(),
                                (&cache_hits, &cache_misses),
                            );
                            let Some(mut record) = record else {
                                // Campaign cancelled mid-job: leave it without
                                // a record so a resumed campaign re-runs it.
                                telemetry.job_abandoned();
                                held.fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
                                refresh_gauges();
                                return;
                            };
                            // Timing and the CPI stack ride the record only
                            // under telemetry: manifests written without it
                            // stay byte-stable.
                            if self.cfg.telemetry.enabled {
                                record.timing = Some(JobTiming {
                                    queue_wait_ms: millis(dequeued - pool_start),
                                    run_ms: millis(dequeued.elapsed()),
                                    sim_wall_ms: record
                                        .sim
                                        .as_ref()
                                        .map_or(0, |s| millis(s.wall_time)),
                                });
                                record.cpi = record.sim.as_ref().map(|s| s.cpi);
                            }
                            telemetry.job_finished(&record);
                            held.fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
                            refresh_gauges();
                            // The store serializes committers and snapshots
                            // under its lock, so an older manifest
                            // generation never overwrites a newer one.
                            let committed = self.cfg.io.with(|io| store.commit(io, record));
                            *lock(&executed) += 1;
                            if let Err(e) = committed {
                                lock(&persist_error).get_or_insert(e.to_string());
                                self.cancel.cancel();
                                return;
                            }
                        }
                    })
                })
                .collect();
            for handle in handles {
                let _ = handle.join();
            }
        });
        // Stopped after the workers join: the final heartbeat (flushed by
        // the thread itself, never lost to the condvar timeout race)
        // reports the settled counters.
        if let Some(heartbeat) = heartbeat {
            heartbeat.stop();
        }
        drop(watchdog);

        if let Some(e) = lock(&persist_error).take() {
            return Err(e);
        }
        Ok(CampaignOutcome {
            records: store.records(),
            resumed,
            executed: into_count(executed),
            cache_hits: into_count(cache_hits),
            cache_misses: into_count(cache_misses),
            cancelled: self.cancel.is_cancelled(),
            quarantines,
        })
    }

    /// Runs one job through the result cache, retries, and the
    /// degradation ladder. Returns `None` only when the campaign was
    /// cancelled mid-job (the job is then deliberately unrecorded).
    fn run_job(
        &self,
        job: &Job,
        watchdog: &Watchdog,
        telemetry: &Telemetry,
        cache: Option<&CacheStore>,
        (hits, misses): (&Mutex<usize>, &Mutex<usize>),
    ) -> Option<JobRecord> {
        let key = match probe_cache(cache, job, &self.cfg.retry) {
            Probe::Hit(record) => {
                *lock(hits) += 1;
                return Some(cache::rekey(*record, &job.id));
            }
            Probe::Miss(key) => {
                if key.is_some() {
                    *lock(misses) += 1;
                }
                key
            }
        };
        let executor = Executor {
            retry: self.cfg.retry,
            default_timeout: self.cfg.default_timeout,
            stop: self.cancel.clone(),
            watchdog,
            telemetry,
        };
        let record = executor.execute_job(job, None)?;
        store_cache(&self.cfg.io, cache, key, &record);
        Some(record)
    }
}

/// The effective attempts-per-rung bound for `job` under `retry`.
pub(crate) fn effective_attempts(job: &Job, retry: &RetryPolicy) -> u32 {
    job.max_attempts.unwrap_or(retry.max_attempts).max(1)
}

/// The content address of `job`: builds the workload once (pristine state,
/// exactly as an attempt would) and digests it together with the fully
/// tweaked config and the job's supervision fingerprint. `None` when the
/// workload builder fails — the normal attempt path will then record the
/// same failure.
pub(crate) fn job_cache_key(job: &Job, retry: &RetryPolicy) -> Option<CacheKey> {
    let (program, memory) = (job.workload)().ok()?;
    let mut cfg = SimConfig::with_core(job.core.clone(), job.mode);
    cfg.max_instructions = job.max_instructions;
    if let Some(tweak) = &job.tweak {
        tweak(&mut cfg);
    }
    Some(CacheKey {
        workload: cache::workload_digest(&program, &memory),
        config: cache::config_digest(&cfg, effective_attempts(job, retry), job.degrade),
    })
}

/// What [`probe_cache`] found for a job.
pub(crate) enum Probe {
    /// A verified cache entry, ready to re-key onto the job id.
    Hit(Box<JobRecord>),
    /// No usable entry; the key to store the fresh result under, or
    /// `None` when there is no cache (or the workload builder failed, in
    /// which case the attempt path records that failure uncached).
    Miss(Option<CacheKey>),
}

/// Probes the result cache for `job`; evicted-corrupt entries count as
/// misses and are reported to stderr. Shared by the campaign worker loop
/// and the queue drain so both serve identical points from the cache.
pub(crate) fn probe_cache(cache: Option<&CacheStore>, job: &Job, retry: &RetryPolicy) -> Probe {
    match cache.map(|store| job_cache_key(job, retry).map(|k| (k, store.lookup(k)))) {
        Some(Some((_, Lookup::Hit(record)))) => Probe::Hit(record),
        Some(Some((key, Lookup::Miss))) => Probe::Miss(Some(key)),
        Some(Some((key, Lookup::Evicted(error)))) => {
            eprintln!("campaign: evicted corrupt cache entry: {error}");
            Probe::Miss(Some(key))
        }
        Some(None) | None => Probe::Miss(None),
    }
}

/// Commits a deterministic result to the cache *before* the manifest
/// commit: once a record is durable in the manifest, an identical campaign
/// must find it in the cache (a crash between the two writes re-runs the
/// job and re-caches it; the reverse order would leave
/// committed-but-uncached jobs that silently miss). A failed cache write
/// loses an optimization, never a result.
pub(crate) fn store_cache(
    io: &SharedIo,
    cache: Option<&CacheStore>,
    key: Option<CacheKey>,
    record: &JobRecord,
) {
    if let (Some(store), Some(key)) = (cache, key) {
        if CacheStore::cacheable(record) {
            if let Err(e) = io.with(|io| store.store_with(io, key, record)) {
                eprintln!("campaign: cache write failed: {e}");
            }
        }
    }
}

/// The per-job execution engine shared by [`Campaign`] workers and the
/// queue drain: retries with backoff, the degradation ladder, watchdog
/// deadlines, and panic isolation — everything between "a worker picked
/// this job" and "this job has a terminal record".
pub(crate) struct Executor<'a> {
    /// Retry policy for jobs that do not override `max_attempts`.
    pub retry: RetryPolicy,
    /// Per-attempt deadline for jobs without their own.
    pub default_timeout: Option<Duration>,
    /// The campaign/service-wide stop token: firing it abandons the job
    /// without a record.
    pub stop: CancelToken,
    /// The shared deadline watchdog.
    pub watchdog: &'a Watchdog,
    /// Progress counters.
    pub telemetry: &'a Telemetry,
}

impl Executor<'_> {
    /// Runs one job's attempts (no cache involvement). Returns `None`
    /// when the stop token fired (job abandoned, re-run on resume) or
    /// when `job_token` fired mid-attempt (lease take-back: the job is
    /// re-enqueued by the caller, and the
    /// interrupted attempt burns no retry budget).
    pub(crate) fn execute_job(
        &self,
        job: &Job,
        job_token: Option<&CancelToken>,
    ) -> Option<JobRecord> {
        let retry = RetryPolicy {
            max_attempts: effective_attempts(job, &self.retry),
            ..self.retry
        };
        let timeout = job.timeout.or(self.default_timeout);
        let mut attempts: Vec<AttemptRecord> = Vec::new();
        let mut mode = job.mode;
        let taken_back =
            || self.stop.is_cancelled() || job_token.is_some_and(CancelToken::is_cancelled);

        loop {
            for rung_attempt in 1..=retry.max_attempts {
                if taken_back() {
                    return None;
                }
                let token = CancelToken::new();
                let deadline = timeout.map(|t| Instant::now() + t);
                let guard = self.watchdog.guard_linked(&token, deadline, job_token);
                let (outcome, result) = run_attempt(job, mode, &token);
                drop(guard);

                if matches!(outcome, AttemptOutcome::Cancelled) && taken_back() {
                    return None;
                }

                let attempt_no = attempts.len() as u32 + 1;
                if let Some(result) = result {
                    attempts.push(AttemptRecord {
                        attempt: attempt_no,
                        mode,
                        outcome: AttemptOutcome::Success,
                        backoff_ms: 0,
                    });
                    let status = if mode == job.mode {
                        JobStatus::Completed
                    } else {
                        JobStatus::Degraded
                    };
                    return Some(JobRecord {
                        id: job.id.clone(),
                        requested_mode: job.mode,
                        final_mode: mode,
                        status,
                        attempts,
                        summary: Some(JobSummary::of(&result)),
                        timing: None,
                        cpi: None,
                        cached: false,
                        sim: Some(result),
                    });
                }
                let retrying = rung_attempt < retry.max_attempts;
                if retrying {
                    self.telemetry.attempt_retried();
                }
                let backoff = if retrying {
                    retry.backoff(&job.id, rung_attempt)
                } else {
                    Duration::ZERO
                };
                attempts.push(AttemptRecord {
                    attempt: attempt_no,
                    mode,
                    outcome,
                    backoff_ms: backoff.as_millis() as u64,
                });
                if retrying && !backoff.is_zero() && !taken_back() {
                    std::thread::sleep(backoff);
                }
            }
            match ladder_next(mode).filter(|_| job.degrade) {
                Some(next) => {
                    self.telemetry.attempt_retried();
                    mode = next;
                }
                None => {
                    return Some(JobRecord {
                        id: job.id.clone(),
                        requested_mode: job.mode,
                        final_mode: mode,
                        status: JobStatus::Failed,
                        attempts,
                        summary: None,
                        timing: None,
                        cpi: None,
                        cached: false,
                        sim: None,
                    });
                }
            }
        }
    }
}

fn millis(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

fn into_count(mutex: Mutex<usize>) -> usize {
    mutex
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Attempt panics are contained by catch_unwind; any residual poison
    // must not wedge the campaign.
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn run_attempt(
    job: &Job,
    mode: ffsim_core::WrongPathMode,
    token: &CancelToken,
) -> (AttemptOutcome, Option<ffsim_core::SimResult>) {
    let caught = catch_unwind(AssertUnwindSafe(|| -> Result<_, SimError> {
        let (program, memory) = (job.workload)()?;
        let mut cfg = SimConfig::with_core(job.core.clone(), mode);
        cfg.max_instructions = job.max_instructions;
        if let Some(tweak) = &job.tweak {
            tweak(&mut cfg);
        }
        // Installed after the tweak: a tweak must not be able to detach
        // the attempt from supervision.
        cfg.cancel = Some(token.clone());
        Simulator::new(program, memory, cfg)?.run()
    }));
    match caught {
        Ok(Ok(result)) => (AttemptOutcome::Success, Some(result)),
        Ok(Err(SimError::Cancelled)) => (AttemptOutcome::Cancelled, None),
        Ok(Err(SimError::DeadlineExceeded)) => (AttemptOutcome::DeadlineExceeded, None),
        Ok(Err(e)) => (AttemptOutcome::Fault(e.to_string()), None),
        Err(payload) => (AttemptOutcome::Panic(panic_message(payload.as_ref())), None),
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
