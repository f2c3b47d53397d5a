//! The durable campaign job queue: journaled ingest, one FIFO of pending
//! jobs, lease-based ownership, and poison-job quarantine.
//!
//! The campaign manifest and the content-addressed cache make the
//! *storage* side of campaigns crash-consistent. This module is the
//! matching *ingest* side: a long-running service enqueues jobs from
//! several campaigns into one on-disk queue that survives kill -9 the same
//! way the manifest does, and a worker pool drains it.
//!
//! # The journal
//!
//! Every queue state transition appends one typed record to
//! `<dir>/queue.journal`: `Enqueued`, `Leased`, `Committed`, `Failed`, or
//! `Quarantined`. Each record is an individually sealed
//! document — JSON body plus the same FNV-1a `#checksum` trailer line the
//! manifests use ([`manifest::seal`]) — so replay can verify records
//! one at a time. Startup replay folds the journal over the last
//! snapshot:
//!
//! - a **half-written final record** (torn append at the moment of the
//!   crash) is dropped and the journal truncated back to the last sealed
//!   record — never an error;
//! - damage **before** the tail is real corruption: the whole journal is
//!   quarantined to `queue.journal.corrupt` (evidence preserved; a damaged
//!   snapshot goes to `queue.snapshot.corrupt`, and no quarantine ever
//!   replaces earlier evidence) and the state restarts from the snapshot —
//!   committed work is still safe, because result records live in
//!   `results.json`, and jobs whose terminal record was lost simply
//!   re-run;
//! - every [`QueueConfig::compact_every`] records the state is compacted
//!   into a sealed `queue.snapshot` (atomic temp + rename) and the
//!   journal truncated. Records carry the snapshot *generation* so a
//!   crash between the two steps replays nothing twice.
//!
//! # Leases
//!
//! A dequeued job is *leased*, not removed: the `Leased` record makes the
//! claim durable, and the lease carries a deadline. A worker (or whole
//! process) that dies mid-job leaves a dangling lease; replay counts it
//! as a lease failure and re-enqueues the job with its retry/backoff
//! budget intact. In-process, an expired lease is taken back through the
//! job's [`CancelToken`] — and **commit always wins**: a job that
//! finishes as its lease expires is committed once, never re-run (the
//! take-back marker is simply ignored when a record arrives). A job that
//! fails the same way ≥ [`QueueConfig::max_lease_failures`] times is
//! quarantined as a *poison job* with its last error recorded, instead of
//! wedging the queue forever.
//!
//! # Scheduling
//!
//! Pending jobs wait in one FIFO in enqueue order, whatever campaign they
//! belong to; a job taken back from its lease goes back to the front, so
//! it re-runs before anything enqueued after it. Scheduling shapes only
//! *latency*: the merged report is byte-identical for an identical
//! enqueue sequence whatever the crash and resume interleaving, because
//! records are content-deterministic and id-sorted.
//!
//! # Backpressure
//!
//! The queue holds at most [`QueueConfig::capacity`] live (pending or
//! leased) jobs; enqueueing past that returns
//! [`QueueError::Saturated`] instead of growing without bound.

use crate::cache::{self, CacheStore};
use crate::campaign::{self, validate_worker_count, Executor, Probe, SharedIo};
use crate::hostobs;
use crate::job::{AttemptOutcome, Job, JobRecord, JobStatus};
use crate::json::{parse, Value};
use crate::manifest::{self, ManifestError, ManifestStore, Quarantine};
use crate::retry::RetryPolicy;
use crate::telemetry::{Heartbeat, QueueGauges, Telemetry, TelemetryConfig};
use crate::watchdog::Watchdog;
use ffsim_core::{CancelToken, SimError};
use ffsim_obs::hist::Log2Hist;
use ffsim_obs::Phase;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Queue journal/snapshot format version; bumped on incompatible changes.
pub const QUEUE_VERSION: i64 = 2;

/// Journal file name inside the queue directory.
const JOURNAL_FILE: &str = "queue.journal";
/// Snapshot file name inside the queue directory.
const SNAPSHOT_FILE: &str = "queue.snapshot";
/// Merged result manifest name inside the queue directory.
const RESULTS_FILE: &str = "results.json";

/// The error a dangling or expired lease charges against a job.
const LEASE_LOST: &str = "lease lost before commit";

/// Why a queue operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueueError {
    /// The queue already holds [`QueueConfig::capacity`] live jobs;
    /// enqueue again after some drain. This is backpressure, not
    /// corruption.
    Saturated {
        /// Live (pending + leased) jobs at the moment of rejection.
        depth: usize,
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// The campaign id was never [registered](JobQueue::register).
    UnknownCampaign(String),
    /// A live job with this id (and a payload) is already queued.
    DuplicateJob(String),
    /// The configuration is unusable (zero capacity, bad worker count,
    /// concurrent drains, ...).
    InvalidConfig(String),
    /// The journal, snapshot, or result store failed at the filesystem
    /// level (content damage never surfaces here — it quarantines).
    Journal(ManifestError),
}

impl fmt::Display for QueueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueError::Saturated { depth, capacity } => {
                write!(
                    f,
                    "queue saturated: {depth} live jobs at capacity {capacity}"
                )
            }
            QueueError::UnknownCampaign(id) => write!(f, "unknown campaign `{id}`"),
            QueueError::DuplicateJob(id) => write!(f, "job `{id}` is already queued"),
            QueueError::InvalidConfig(m) => write!(f, "invalid queue config: {m}"),
            QueueError::Journal(e) => write!(f, "queue journal: {e}"),
        }
    }
}

impl std::error::Error for QueueError {}

impl From<ManifestError> for QueueError {
    fn from(e: ManifestError) -> QueueError {
        QueueError::Journal(e)
    }
}

/// Durable queue settings.
#[derive(Clone, Debug)]
pub struct QueueConfig {
    /// The queue directory: journal, snapshot, result manifest, and
    /// quarantined evidence all live here.
    pub dir: PathBuf,
    /// Maximum live (pending + leased) jobs before
    /// [`QueueError::Saturated`].
    pub capacity: usize,
    /// Lease deadline: a job leased longer than this without committing
    /// is taken back and re-enqueued. `Duration::ZERO` means every lease
    /// is immediately reclaimable — commit still wins if the job
    /// finishes first.
    pub lease: Duration,
    /// Lease-level failures (dangling leases at restart, expiries, runner
    /// panics) of the same kind before a job is quarantined as poison.
    pub max_lease_failures: u32,
    /// Journal records between compactions into the snapshot.
    pub compact_every: usize,
    /// Worker threads for [`JobQueue::drain`] (`0` = one per CPU).
    pub workers: usize,
    /// Retry policy for job attempts (reused for the lease backoff
    /// budget: re-enqueued jobs keep their attempt history semantics).
    pub retry: RetryPolicy,
    /// Per-attempt deadline for jobs without their own.
    pub default_timeout: Option<Duration>,
    /// Content-addressed result cache directory (`None` = no cache).
    pub cache_dir: Option<PathBuf>,
    /// The filesystem seam for journal appends, snapshot installs,
    /// manifest saves, and cache writes.
    pub io: SharedIo,
    /// Heartbeat telemetry (includes queue gauges when enabled).
    pub telemetry: TelemetryConfig,
}

impl QueueConfig {
    /// Defaults rooted at `dir`: capacity 4096, 60 s leases, quarantine
    /// after 3 lease failures, compaction every 256 records.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> QueueConfig {
        QueueConfig {
            dir: dir.into(),
            capacity: 4096,
            lease: Duration::from_secs(60),
            max_lease_failures: 3,
            compact_every: 256,
            workers: 0,
            retry: RetryPolicy::default(),
            default_timeout: Some(Duration::from_secs(300)),
            cache_dir: None,
            io: SharedIo::default(),
            telemetry: TelemetryConfig::from_env(),
        }
    }

    fn validate(&self) -> Result<(), QueueError> {
        let invalid = |m: String| Err(QueueError::InvalidConfig(m));
        if self.capacity == 0 {
            return invalid("capacity must be at least 1".into());
        }
        if self.max_lease_failures == 0 {
            return invalid("max_lease_failures must be at least 1".into());
        }
        if self.compact_every == 0 {
            return invalid("compact_every must be at least 1".into());
        }
        validate_worker_count(self.workers).map_err(|e| QueueError::InvalidConfig(e.to_string()))
    }
}

/// What [`JobQueue::enqueue`] did with a job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Enqueued {
    /// Queued (or re-attached to a recovered pending entry).
    Accepted,
    /// A durable result already exists; the job will appear in the merged
    /// report without re-running.
    AlreadyComplete,
    /// The job is quarantined as poison from an earlier run; it stays
    /// quarantined and is reported, not re-run.
    Poisoned,
}

/// A job quarantined after repeated identical lease-level failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoisonJob {
    /// The job id.
    pub id: String,
    /// The campaign it belonged to.
    pub campaign: String,
    /// How many identical failures it accumulated.
    pub failures: u32,
    /// The recorded last error (panic message, lease loss, or the
    /// underlying [`SimError`] text).
    pub error: String,
}

/// What startup recovery found in the queue directory.
#[derive(Clone, Debug, Default)]
pub struct Recovery {
    /// Quarantine notices for damaged files (journal, snapshot, result
    /// manifest). Empty on clean startups.
    pub quarantines: Vec<Quarantine>,
    /// Jobs whose dangling lease (worker died mid-job) was reclaimed and
    /// re-enqueued with their budget intact.
    pub re_leased: usize,
    /// Whether a half-written final journal record was dropped.
    pub torn_tail_dropped: bool,
}

/// Counters describing one finished [`JobQueue::drain`].
#[derive(Clone, Debug)]
pub struct DrainOutcome {
    /// Records for every job with a durable terminal result (freshly
    /// executed plus resumed), merged deterministically (id-sorted).
    pub records: BTreeMap<String, JobRecord>,
    /// Poison jobs quarantined so far, id-sorted; rendered in the report
    /// appendix.
    pub poison: Vec<PoisonJob>,
    /// Jobs skipped at enqueue because their result was already durable.
    pub resumed: usize,
    /// Jobs executed to a terminal record by this drain (cache hits
    /// included).
    pub executed: usize,
    /// Jobs served from the result cache without simulating.
    pub cache_hits: usize,
    /// Jobs that probed the cache and missed.
    pub cache_misses: usize,
    /// Leases taken back after expiring (commit-wins races excluded).
    pub lease_expiries: usize,
    /// Dangling leases reclaimed at startup (see [`Recovery`]).
    pub re_leased: usize,
    /// Whether the service stop token fired mid-drain; leased jobs stay
    /// journaled and re-run on resume.
    pub cancelled: bool,
    /// File-level quarantine notices from startup recovery.
    pub quarantines: Vec<Quarantine>,
    /// Per-campaign queue-wait distributions (milliseconds from enqueue
    /// to lease), for the stderr report appendix.
    pub waits: BTreeMap<String, Log2Hist>,
}

/// Aggregate queue state, for services and tests.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Jobs pending with a payload (runnable now).
    pub pending: usize,
    /// Jobs currently leased to workers.
    pub leased: usize,
    /// Jobs with a durable `Committed` terminal state.
    pub committed: usize,
    /// Jobs with a durable `Failed` terminal state.
    pub failed: usize,
    /// Poison jobs quarantined.
    pub quarantined: usize,
}

/// The execution context handed to a [`JobRunner`]: wraps the shared
/// per-job execution engine (retries, degradation ladder, watchdog
/// deadlines, panic isolation) so custom runners can delegate to the real
/// thing.
pub struct RunContext<'a> {
    executor: Executor<'a>,
}

impl fmt::Debug for RunContext<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunContext").finish_non_exhaustive()
    }
}

impl RunContext<'_> {
    /// Runs `job` under full supervision. Returns `None` when the service
    /// stop token or `takeback` fired mid-attempt (the queue re-enqueues
    /// the job; the interrupted attempt burns no retry budget).
    #[must_use]
    pub fn execute(&self, job: &Job, takeback: &CancelToken) -> Option<JobRecord> {
        self.executor.execute_job(job, Some(takeback))
    }
}

/// How a leased job is executed. The default runner delegates straight to
/// [`RunContext::execute`]; tests substitute runners that panic, stall,
/// or count invocations. A panic escaping `run` is contained by the queue
/// and counted as a lease-level failure toward poison quarantine.
pub trait JobRunner: Sync {
    /// Executes one leased job. Return `None` only when `takeback` (or
    /// the service stop token) fired; returning `None` otherwise is
    /// treated as a lease failure.
    fn run(&self, ctx: &RunContext<'_>, job: &Job, takeback: &CancelToken) -> Option<JobRecord>;
}

/// The production runner: full supervised execution.
#[derive(Clone, Copy, Debug, Default)]
pub struct DefaultRunner;

impl JobRunner for DefaultRunner {
    fn run(&self, ctx: &RunContext<'_>, job: &Job, takeback: &CancelToken) -> Option<JobRecord> {
        ctx.execute(job, takeback)
    }
}

/// Per-job lifecycle state, mirrored 1:1 by journal replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Pending,
    Leased,
    Committed,
    Failed,
    Quarantined,
}

impl State {
    fn label(self) -> &'static str {
        match self {
            State::Pending => "pending",
            State::Leased => "leased",
            State::Committed => "committed",
            State::Failed => "failed",
            State::Quarantined => "quarantined",
        }
    }

    fn from_label(label: &str) -> Option<State> {
        Some(match label {
            "pending" => State::Pending,
            "leased" => State::Leased,
            "committed" => State::Committed,
            "failed" => State::Failed,
            "quarantined" => State::Quarantined,
            _ => return None,
        })
    }

    fn is_terminal(self) -> bool {
        matches!(self, State::Committed | State::Failed | State::Quarantined)
    }
}

/// One job's queue entry. The journal is the durable form of exactly this
/// struct minus the payload (workload closures cannot be serialized; a
/// restarted service re-enqueues the same job sequence to re-attach
/// them).
#[derive(Clone, Debug)]
struct Entry {
    state: State,
    campaign: String,
    /// Consecutive identical lease-level failures (reset when the error
    /// changes).
    failures: u32,
    error: Option<String>,
    payload: Option<Job>,
    enqueued_at: Option<Instant>,
}

impl Entry {
    fn new(campaign: String) -> Entry {
        Entry {
            state: State::Pending,
            campaign,
            failures: 0,
            error: None,
            payload: None,
            enqueued_at: None,
        }
    }

    /// Charges one lease-level failure of kind `error`; identical
    /// consecutive failures accumulate toward poison quarantine, a
    /// different failure restarts the count.
    fn charge(&mut self, error: &str) {
        if self.error.as_deref() == Some(error) {
            self.failures += 1;
        } else {
            self.error = Some(error.to_string());
            self.failures = 1;
        }
    }
}

#[derive(Debug)]
struct Running {
    token: CancelToken,
    campaign: String,
    leased_at: Instant,
    deadline: Instant,
    /// Whether the lease passed its deadline and its token was fired.
    expired: bool,
}

#[derive(Debug, Default)]
struct Stats {
    resumed: usize,
    executed: usize,
    lease_expiries: usize,
    re_leased: usize,
}

#[derive(Debug)]
struct Inner {
    /// Registered campaign ids.
    campaigns: BTreeSet<String>,
    jobs: BTreeMap<String, Entry>,
    /// Pending job ids in enqueue order; taken-back jobs re-enter at the
    /// front.
    pending: VecDeque<String>,
    running: BTreeMap<String, Running>,
    /// Snapshot generation; journal records stamped with an older
    /// generation are already folded into the snapshot and skipped.
    gen: u64,
    records_since_compact: usize,
    /// Live (pending-with-payload + leased) jobs, for capacity checks.
    live: usize,
    drain_active: bool,
    stats: Stats,
    waits: BTreeMap<String, Log2Hist>,
    /// Per-campaign lease-to-commit run times (milliseconds), the basis
    /// for the suggested lease deadline services clamp against.
    runs: BTreeMap<String, Log2Hist>,
    persist_error: Option<ManifestError>,
}

/// The durable job queue. See the [module docs](self).
pub struct JobQueue {
    cfg: QueueConfig,
    journal_path: PathBuf,
    snapshot_path: PathBuf,
    /// The live lease deadline in milliseconds. Starts at
    /// [`QueueConfig::lease`]; services may raise it at runtime from the
    /// observed run-time distribution ([`JobQueue::set_lease`]).
    lease_ms: AtomicU64,
    inner: Mutex<Inner>,
    work: Condvar,
    cancel: CancelToken,
    gauges: Arc<QueueGauges>,
    store: ManifestStore,
    cache: Option<CacheStore>,
    recovery: Recovery,
    cache_hits: AtomicUsize,
    cache_misses: AtomicUsize,
}

impl fmt::Debug for JobQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobQueue")
            .field("dir", &self.cfg.dir)
            .finish_non_exhaustive()
    }
}

impl JobQueue {
    /// Opens (or creates) the queue at [`QueueConfig::dir`], replaying the
    /// snapshot and journal: a half-written final record is dropped,
    /// damaged files are quarantined to `.corrupt` siblings, dangling
    /// leases are reclaimed (or quarantined as poison once over budget).
    ///
    /// # Errors
    ///
    /// [`QueueError::InvalidConfig`] for unusable settings and
    /// [`QueueError::Journal`] for filesystem-level failures. Content
    /// damage never fails an open — it quarantines and is reported in
    /// [`JobQueue::recovery`].
    pub fn open(cfg: QueueConfig) -> Result<JobQueue, QueueError> {
        cfg.validate()?;
        std::fs::create_dir_all(&cfg.dir)
            .map_err(|e| ManifestError::Io(format!("creating {}: {e}", cfg.dir.display())))?;
        let journal_path = cfg.dir.join(JOURNAL_FILE);
        let snapshot_path = cfg.dir.join(SNAPSHOT_FILE);
        let mut recovery = Recovery::default();

        // 1. The snapshot: the folded base state. A damaged snapshot is
        // quarantined and replay proceeds from empty — terminal results
        // still live in the result manifest, so nothing durable is lost.
        let (gen, mut jobs) = match manifest::read_sealed(&snapshot_path) {
            Ok(Some(body)) => match parse_snapshot(&body) {
                Ok(state) => state,
                Err(error) => {
                    recovery
                        .quarantines
                        .push(manifest::quarantine_file(&snapshot_path, error)?);
                    (0, BTreeMap::new())
                }
            },
            Ok(None) => (0, BTreeMap::new()),
            Err(error) if error.is_corruption() => {
                recovery
                    .quarantines
                    .push(manifest::quarantine_file(&snapshot_path, error)?);
                (0, BTreeMap::new())
            }
            Err(io) => return Err(io.into()),
        };

        // 2. The journal tail: replayed record by record on top of the
        // snapshot. Only records of the current generation apply —
        // anything older is already folded into the snapshot (a crash
        // between snapshot install and journal truncation leaves stale
        // records behind; the generation stamp makes replay idempotent).
        let journal_text = match std::fs::read_to_string(&journal_path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => {
                return Err(QueueError::Journal(ManifestError::Io(format!(
                    "reading {}: {e}",
                    journal_path.display()
                ))))
            }
        };
        match parse_journal(&journal_text) {
            Ok((records, valid_len, torn)) => {
                for record in records {
                    if record.gen >= gen {
                        apply(&mut jobs, record);
                    }
                }
                if torn {
                    // Truncate back to the last sealed record so future
                    // appends never interleave with the torn garbage.
                    cfg.io
                        .with(|io| io.write(&journal_path, &journal_text.as_bytes()[..valid_len]))
                        .map_err(|e| {
                            ManifestError::Io(format!(
                                "truncating torn journal {}: {e}",
                                journal_path.display()
                            ))
                        })?;
                    recovery.torn_tail_dropped = true;
                }
            }
            Err(error) => {
                recovery
                    .quarantines
                    .push(manifest::quarantine_file(&journal_path, error)?);
            }
        }

        // 3. Dangling leases: the worker (or process) holding them died.
        // Reclaim with the budget intact, or quarantine poison jobs.
        let mut re_leased = 0usize;
        let mut poison_appends = Vec::new();
        for (id, entry) in &mut jobs {
            if entry.state == State::Leased {
                entry.charge(LEASE_LOST);
                if entry.failures >= cfg.max_lease_failures {
                    entry.state = State::Quarantined;
                    poison_appends.push(quarantined_record(gen, id, entry));
                } else {
                    entry.state = State::Pending;
                    re_leased += 1;
                }
            }
        }
        for text in poison_appends {
            cfg.io
                .with(|io| io.append(&journal_path, text.as_bytes()))
                .map_err(|e| {
                    ManifestError::Io(format!("appending to {}: {e}", journal_path.display()))
                })?;
        }
        recovery.re_leased = re_leased;

        // 4. The durable results and the cache.
        let mut store = ManifestStore::new(Some(cfg.dir.join(RESULTS_FILE)));
        recovery.quarantines.extend(store.load()?);
        let cache = cfg.cache_dir.clone().map(CacheStore::new);

        let inner = Inner {
            campaigns: BTreeSet::new(),
            jobs,
            pending: VecDeque::new(),
            running: BTreeMap::new(),
            gen,
            records_since_compact: 0,
            live: 0,
            drain_active: false,
            stats: Stats {
                re_leased,
                ..Stats::default()
            },
            waits: BTreeMap::new(),
            runs: BTreeMap::new(),
            persist_error: None,
        };
        let lease_ms = u64::try_from(cfg.lease.as_millis()).unwrap_or(u64::MAX);
        Ok(JobQueue {
            cfg,
            journal_path,
            snapshot_path,
            lease_ms: AtomicU64::new(lease_ms),
            inner: Mutex::new(inner),
            work: Condvar::new(),
            cancel: CancelToken::new(),
            gauges: QueueGauges::new(),
            store,
            cache,
            recovery,
            cache_hits: AtomicUsize::new(0),
            cache_misses: AtomicUsize::new(0),
        })
    }

    /// What startup recovery found (quarantines, reclaimed leases, torn
    /// tail).
    #[must_use]
    pub fn recovery(&self) -> &Recovery {
        &self.recovery
    }

    /// The service-wide stop token: firing it makes workers take no new
    /// leases and abandon in-flight jobs (their journaled leases dangle
    /// and are reclaimed on the next open — exactly like kill -9).
    #[must_use]
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The live gauges rendered into heartbeat lines.
    #[must_use]
    pub fn gauges(&self) -> Arc<QueueGauges> {
        Arc::clone(&self.gauges)
    }

    /// Registers a campaign id so jobs can be enqueued under it.
    /// Registering an id again is a no-op that keeps any queued jobs.
    pub fn register(&self, campaign: &str) {
        self.lock().campaigns.insert(campaign.to_string());
    }

    /// Enqueues `job` under `campaign`.
    ///
    /// Jobs whose result is already durable are skipped
    /// ([`Enqueued::AlreadyComplete`]); quarantined poison jobs stay
    /// quarantined ([`Enqueued::Poisoned`]). Jobs recovered from the
    /// journal in a non-terminal state re-attach their payload and keep
    /// their failure budget. Accepted jobs join the back of the FIFO.
    ///
    /// # Errors
    ///
    /// [`QueueError::UnknownCampaign`], [`QueueError::DuplicateJob`],
    /// [`QueueError::Saturated`], or a journal append failure.
    pub fn enqueue(&self, campaign: &str, job: Job) -> Result<Enqueued, QueueError> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        if !inner.campaigns.contains(campaign) {
            return Err(QueueError::UnknownCampaign(campaign.to_string()));
        }
        let id = job.id.clone();

        let existing = inner.jobs.get(&id).map(|e| (e.state, e.payload.is_some()));
        let needs_record = match existing {
            Some((State::Quarantined, _)) => return Ok(Enqueued::Poisoned),
            Some((State::Committed | State::Failed, _)) => {
                if self.store.contains(&id) {
                    inner.stats.resumed += 1;
                    return Ok(Enqueued::AlreadyComplete);
                }
                // Terminal in the journal but the durable record is
                // gone (e.g. a quarantined manifest): deliberate re-run.
                true
            }
            Some((State::Pending | State::Leased, has_payload)) => {
                if has_payload {
                    return Err(QueueError::DuplicateJob(id));
                }
                // A recovered entry: re-attach the payload, keep the
                // failure budget; the journal already knows this job.
                false
            }
            None => {
                if self.store.contains(&id) {
                    // Durable from a prior life whose journal was
                    // compacted or quarantined away; repair the journal.
                    self.append_record(inner, committed_record_body(&id))?;
                    let mut entry = Entry::new(campaign.to_string());
                    entry.state = State::Committed;
                    inner.jobs.insert(id, entry);
                    inner.stats.resumed += 1;
                    self.maybe_compact(inner);
                    return Ok(Enqueued::AlreadyComplete);
                }
                true
            }
        };

        if inner.live >= self.cfg.capacity {
            return Err(QueueError::Saturated {
                depth: inner.live,
                capacity: self.cfg.capacity,
            });
        }

        if needs_record {
            self.append_record(inner, enqueued_record_body(&id, campaign))?;
        }
        let now = Instant::now();
        let entry = inner
            .jobs
            .entry(id.clone())
            .or_insert_with(|| Entry::new(campaign.to_string()));
        if entry.state.is_terminal() {
            // Deliberate re-run of a job whose durable record was lost.
            entry.failures = 0;
            entry.error = None;
        }
        entry.state = State::Pending;
        entry.campaign = campaign.to_string();
        entry.payload = Some(job);
        entry.enqueued_at = Some(now);
        inner.live += 1;
        inner.pending.push_back(id);
        self.maybe_compact(inner);
        self.refresh_gauges(inner, now);
        self.work.notify_all();
        Ok(Enqueued::Accepted)
    }

    /// Takes back expired leases: each running job past its lease
    /// deadline is cancelled through its token and will be re-enqueued
    /// (unless it commits first — commit wins). Returns how many leases
    /// were marked. Called automatically by drain workers; exposed for
    /// services driving the queue directly (the campaign server wires it
    /// into a periodic tick). The cumulative reaped-lease count is
    /// published as the `queue_reaped_leases` gauge.
    pub fn reap_expired(&self) -> usize {
        let mut inner = self.lock();
        let reaped = self.reap_locked(&mut inner, Instant::now());
        hostobs::set_gauge(
            "queue_reaped_leases",
            i64::try_from(inner.stats.lease_expiries).unwrap_or(i64::MAX),
        );
        reaped
    }

    /// The live lease deadline (initially [`QueueConfig::lease`]).
    #[must_use]
    pub fn lease(&self) -> Duration {
        Duration::from_millis(self.lease_ms.load(Ordering::Relaxed))
    }

    /// Replaces the lease deadline for *future* leases; in-flight leases
    /// keep the deadline they were taken with. Services raise this when
    /// the observed run-time distribution says the configured deadline
    /// would reap healthy jobs.
    pub fn set_lease(&self, lease: Duration) {
        let ms = u64::try_from(lease.as_millis()).unwrap_or(u64::MAX);
        self.lease_ms.store(ms, Ordering::Relaxed);
    }

    /// Per-campaign enqueue-to-lease wait distributions (milliseconds),
    /// the data behind [`report::render_queue_waits`](crate::report).
    #[must_use]
    pub fn wait_hists(&self) -> BTreeMap<String, Log2Hist> {
        self.lock().waits.clone()
    }

    /// Per-campaign lease-to-commit run-time distributions (milliseconds).
    #[must_use]
    pub fn run_hists(&self) -> BTreeMap<String, Log2Hist> {
        self.lock().runs.clone()
    }

    /// A lease deadline suggestion derived from the run-time `Log2Hist`
    /// p99: four times the slowest campaign's p99 commit time, so retries
    /// and the degradation ladder fit inside one lease. `None` until at
    /// least one job has committed (no history to derive from).
    #[must_use]
    pub fn suggested_lease(&self) -> Option<Duration> {
        let inner = self.lock();
        let p99 = inner.runs.values().filter_map(Log2Hist::p99).max()?;
        Some(Duration::from_millis(p99.saturating_mul(4).max(1)))
    }

    /// Live (pending-with-payload + leased) jobs of one campaign, for
    /// per-campaign admission quotas layered over the global
    /// [`QueueConfig::capacity`].
    #[must_use]
    pub fn campaign_live(&self, campaign: &str) -> usize {
        let inner = self.lock();
        inner
            .jobs
            .values()
            .filter(|e| {
                e.campaign == campaign
                    && ((e.state == State::Pending && e.payload.is_some())
                        || e.state == State::Leased)
            })
            .count()
    }

    /// The merged durable result records (id-sorted), without draining:
    /// what [`report::render`](crate::report::render) turns into the
    /// deterministic campaign report.
    #[must_use]
    pub fn merged_records(&self) -> BTreeMap<String, JobRecord> {
        self.store.records()
    }

    /// Aggregate queue state.
    #[must_use]
    pub fn stats(&self) -> QueueStats {
        let inner = self.lock();
        let mut stats = QueueStats {
            leased: inner.running.len(),
            pending: inner.live - inner.running.len(),
            ..QueueStats::default()
        };
        for entry in inner.jobs.values() {
            match entry.state {
                State::Committed => stats.committed += 1,
                State::Failed => stats.failed += 1,
                State::Quarantined => stats.quarantined += 1,
                State::Pending | State::Leased => {}
            }
        }
        stats
    }

    /// The current poison jobs, id-sorted (deterministic for reports).
    #[must_use]
    pub fn poison_jobs(&self) -> Vec<PoisonJob> {
        poison_of(&self.lock().jobs)
    }

    /// Drains the queue with the production runner. See
    /// [`JobQueue::drain_with`].
    ///
    /// # Errors
    ///
    /// See [`JobQueue::drain_with`].
    pub fn drain(&self) -> Result<DrainOutcome, QueueError> {
        self.drain_with(&DefaultRunner)
    }

    /// Runs a worker pool until every runnable job has a durable terminal
    /// state (or the stop token fires). Jobs enqueued concurrently with
    /// the drain are picked up; payload-less recovered entries wait for
    /// their re-enqueue and do not block completion.
    ///
    /// # Errors
    ///
    /// The first journal/manifest persist failure (the drain stops rather
    /// than silently losing resume coverage), or
    /// [`QueueError::InvalidConfig`] for a concurrent drain.
    pub fn drain_with(&self, runner: &dyn JobRunner) -> Result<DrainOutcome, QueueError> {
        let workers = {
            let mut inner = self.lock();
            if inner.drain_active {
                return Err(QueueError::InvalidConfig(
                    "a drain is already active on this queue".into(),
                ));
            }
            inner.drain_active = true;
            if self.cfg.workers == 0 {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            } else {
                self.cfg.workers
            }
        };
        let total = {
            let inner = self.lock();
            inner.live + inner.stats.executed
        };
        let telemetry = Arc::new(Telemetry::with_queue(total, Arc::clone(&self.gauges)));
        let heartbeat = self
            .cfg
            .telemetry
            .enabled
            .then(|| Heartbeat::spawn(Arc::clone(&telemetry), self.cfg.telemetry.heartbeat));
        let watchdog = Watchdog::spawn(self.cancel.clone());

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| self.worker_loop(&watchdog, &telemetry, runner));
            }
        });

        if let Some(heartbeat) = heartbeat {
            heartbeat.stop();
        }
        drop(watchdog);

        let mut inner = self.lock();
        inner.drain_active = false;
        if let Some(error) = inner.persist_error.take() {
            return Err(error.into());
        }
        Ok(DrainOutcome {
            records: self.store.records(),
            poison: poison_of(&inner.jobs),
            resumed: inner.stats.resumed,
            executed: inner.stats.executed,
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            lease_expiries: inner.stats.lease_expiries,
            re_leased: inner.stats.re_leased,
            cancelled: self.cancel.is_cancelled(),
            quarantines: self.recovery.quarantines.clone(),
            waits: inner.waits.clone(),
        })
    }

    // ------------------------------------------------------------------
    // Worker internals.
    // ------------------------------------------------------------------

    fn worker_loop(&self, watchdog: &Watchdog, telemetry: &Telemetry, runner: &dyn JobRunner) {
        let ctx = RunContext {
            executor: Executor {
                retry: self.cfg.retry,
                default_timeout: self.cfg.default_timeout,
                stop: self.cancel.clone(),
                watchdog,
                telemetry,
            },
        };
        loop {
            let Some((id, job, token)) = self.next_job() else {
                return;
            };
            telemetry.job_started();
            let probe = campaign::probe_cache(self.cache.as_ref(), &job, &self.cfg.retry);
            let (record, key, hit) = match probe {
                Probe::Hit(record) => (Some(cache::rekey(*record, &job.id)), None, true),
                Probe::Miss(key) => {
                    if key.is_some() {
                        self.cache_misses.fetch_add(1, Ordering::Relaxed);
                    }
                    match catch_unwind(AssertUnwindSafe(|| runner.run(&ctx, &job, &token))) {
                        Ok(record) => (record, key, false),
                        Err(payload) => {
                            // A panic that escaped the runner itself:
                            // queue-level containment. Charge a lease
                            // failure and keep draining.
                            let message = campaign::panic_message(payload.as_ref());
                            telemetry.job_abandoned();
                            self.finish_failure(&id, &format!("panic: {message}"));
                            continue;
                        }
                    }
                }
            };
            match record {
                Some(record) => {
                    if hit {
                        self.cache_hits.fetch_add(1, Ordering::Relaxed);
                    } else {
                        campaign::store_cache(&self.cfg.io, self.cache.as_ref(), key, &record);
                    }
                    if !self.finish_commit(&id, record, telemetry) {
                        return;
                    }
                }
                None => {
                    telemetry.job_abandoned();
                    self.finish_takeback(&id);
                }
            }
        }
    }

    /// Blocks until a job is leased, the queue is drained, or the service
    /// stops. Returns `None` when the worker should exit.
    fn next_job(&self) -> Option<(String, Job, CancelToken)> {
        let mut inner = self.lock();
        loop {
            if self.cancel.is_cancelled() {
                self.work.notify_all();
                return None;
            }
            self.reap_locked(&mut inner, Instant::now());
            if let Some(picked) = self.pick_locked(&mut inner) {
                return Some(picked);
            }
            if inner.running.is_empty() {
                // Nothing runnable and nothing in flight that could
                // re-enqueue: the drain is complete.
                self.work.notify_all();
                return None;
            }
            let (guard, _) = self
                .work
                .wait_timeout(inner, Duration::from_millis(5))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            inner = guard;
        }
    }

    /// Leases the job at the head of the FIFO. Ids of jobs that left the
    /// pending state while queued are dropped on the way.
    fn pick_locked(&self, inner: &mut Inner) -> Option<(String, Job, CancelToken)> {
        while let Some(id) = inner.pending.pop_front() {
            let runnable = inner
                .jobs
                .get(&id)
                .is_some_and(|e| e.state == State::Pending && e.payload.is_some());
            if runnable {
                return self.lease_locked(inner, &id);
            }
        }
        None
    }

    /// Leases `id`: durable `Leased` record, running-set entry, wait
    /// histogram update. Reverts to pending if the journal append fails.
    fn lease_locked(&self, inner: &mut Inner, id: &str) -> Option<(String, Job, CancelToken)> {
        let now = Instant::now();
        if let Err(error) = self.append_record(inner, leased_record_body(id)) {
            if let QueueError::Journal(e) = error {
                inner.persist_error.get_or_insert(e);
            }
            self.cancel.cancel();
            return None;
        }
        let lease = self.lease();
        let entry = inner.jobs.get_mut(id).expect("leasing a known job");
        entry.state = State::Leased;
        let job = entry.payload.clone().expect("leasing requires a payload");
        let campaign = entry.campaign.clone();
        hostobs::inc("queue_leases_total");
        if let Some(enqueued_at) = entry.enqueued_at {
            let wait_ms =
                u64::try_from(now.duration_since(enqueued_at).as_millis()).unwrap_or(u64::MAX);
            inner
                .waits
                .entry(campaign.clone())
                .or_default()
                .record(wait_ms);
            hostobs::observe("queue_lease_wait_ms", wait_ms);
        }
        let token = CancelToken::new();
        inner.running.insert(
            id.to_string(),
            Running {
                token: token.clone(),
                campaign,
                leased_at: now,
                deadline: now + lease,
                expired: false,
            },
        );
        self.maybe_compact(inner);
        self.refresh_gauges(inner, now);
        Some((id.to_string(), job, token))
    }

    /// Marks expired leases for take-back (cancelling their tokens).
    fn reap_locked(&self, inner: &mut Inner, now: Instant) -> usize {
        let mut reaped = 0;
        for running in inner.running.values_mut() {
            if !running.expired && now >= running.deadline {
                running.expired = true;
                running.token.cancel();
                reaped += 1;
            }
        }
        inner.stats.lease_expiries += reaped;
        reaped
    }

    /// Commits a terminal record: durable result first (cache write
    /// already happened), then the journal transition. Returns `false`
    /// when a persist failure should stop the worker.
    fn finish_commit(&self, id: &str, record: JobRecord, telemetry: &Telemetry) -> bool {
        let failed = record.status == JobStatus::Failed;
        let error_text = failed.then(|| last_attempt_error(&record));
        let committed = self.cfg.io.with(|io| self.store.commit(io, record.clone()));
        let mut inner = self.lock();
        if let Some(running) = inner.running.remove(id) {
            if running.expired {
                // The commit-wins race: the lease expired but the record
                // arrived first. The take-back never took effect, so it
                // is not counted as an expiry.
                inner.stats.lease_expiries -= 1;
            }
            // Lease-to-commit run time: the distribution a service derives
            // its suggested lease deadline from.
            let run_ms = u64::try_from(running.leased_at.elapsed().as_millis()).unwrap_or(u64::MAX);
            inner
                .runs
                .entry(running.campaign.clone())
                .or_default()
                .record(run_ms);
            hostobs::observe("queue_job_run_ms", run_ms);
        }
        if let Err(e) = committed {
            inner.persist_error.get_or_insert(e);
            self.cancel.cancel();
            self.work.notify_all();
            return false;
        }
        let entry = inner.jobs.get_mut(id).expect("committing a known job");
        if entry.state.is_terminal() {
            // A commit racing a take-back that already resolved: the
            // durable store holds an identical record; nothing to redo.
            telemetry.job_finished(&record);
            self.work.notify_all();
            return true;
        }
        let body = if failed {
            failed_record_body(id, error_text.as_deref().unwrap_or("failed"))
        } else {
            committed_record_body(id)
        };
        if let Err(error) = self.append_record(&mut inner, body) {
            if let QueueError::Journal(e) = error {
                inner.persist_error.get_or_insert(e);
            }
            self.cancel.cancel();
            self.work.notify_all();
            return false;
        }
        let entry = inner.jobs.get_mut(id).expect("committing a known job");
        entry.state = if failed {
            State::Failed
        } else {
            State::Committed
        };
        entry.error = error_text;
        entry.payload = None;
        entry.enqueued_at = None;
        inner.live -= 1;
        inner.stats.executed += 1;
        self.maybe_compact(&mut inner);
        telemetry.job_finished(&record);
        self.refresh_gauges(&mut inner, Instant::now());
        self.work.notify_all();
        true
    }

    /// Resolves a job whose runner returned `None`: lease expired or
    /// service stop.
    fn finish_takeback(&self, id: &str) {
        let mut inner = self.lock();
        let Some(running) = inner.running.remove(id) else {
            return;
        };
        if running.expired {
            self.charge_failure(&mut inner, id, "lease expired");
        } else if self.cancel.is_cancelled() {
            // Service stop: leave the journaled lease dangling — the next
            // open reclaims it exactly like a crash. In-memory the job
            // goes back to pending so a fresh drain in this process could
            // still run it.
            self.requeue_front(&mut inner, id);
        } else {
            // A runner returned None with no take-back: treat as a lease
            // failure so a buggy runner cannot livelock the queue.
            self.charge_failure(&mut inner, id, "runner returned no record");
        }
        self.refresh_gauges(&mut inner, Instant::now());
        self.work.notify_all();
    }

    /// Queue-level failure (escaped panic) on a leased job.
    fn finish_failure(&self, id: &str, error: &str) {
        let mut inner = self.lock();
        inner.running.remove(id);
        self.charge_failure(&mut inner, id, error);
        self.refresh_gauges(&mut inner, Instant::now());
        self.work.notify_all();
    }

    /// Charges a lease-level failure; quarantines at the budget.
    fn charge_failure(&self, inner: &mut Inner, id: &str, error: &str) {
        let entry = inner.jobs.get_mut(id).expect("failing a known job");
        if entry.state.is_terminal() {
            return; // commit already won
        }
        entry.charge(error);
        if entry.failures >= self.cfg.max_lease_failures {
            let gen = inner.gen;
            let entry = inner.jobs.get_mut(id).expect("checked above");
            entry.state = State::Quarantined;
            entry.payload = None;
            entry.enqueued_at = None;
            let text = quarantined_record(gen, id, entry);
            inner.live -= 1;
            if self
                .cfg
                .io
                .with(|io| io.append(&self.journal_path, text.as_bytes()))
                .is_err()
            {
                self.cancel.cancel();
            } else {
                inner.records_since_compact += 1;
                self.maybe_compact(inner);
            }
        } else {
            self.requeue_front(inner, id);
        }
    }

    /// Puts a taken-back job at the front of the FIFO (it was the
    /// oldest: FIFO order is preserved across take-backs).
    fn requeue_front(&self, inner: &mut Inner, id: &str) {
        let entry = inner.jobs.get_mut(id).expect("requeueing a known job");
        entry.state = State::Pending;
        inner.pending.push_front(id.to_string());
    }

    /// Appends one sealed record to the journal. Compaction is NOT
    /// triggered here: the caller appends first, applies the matching
    /// in-memory transition, and only then calls
    /// [`JobQueue::maybe_compact`] — otherwise a compaction fired
    /// mid-transition would snapshot the *pre*-transition state while
    /// truncating the journal record that carried the transition,
    /// durably losing it.
    fn append_record(
        &self,
        inner: &mut Inner,
        body: Vec<(String, Value)>,
    ) -> Result<(), QueueError> {
        let text = sealed_record(inner.gen, body);
        hostobs::inc("queue_journal_appends_total");
        hostobs::scope(Phase::QueueJournal, || {
            self.cfg
                .io
                .with(|io| io.append(&self.journal_path, text.as_bytes()))
        })
        .map_err(|e| {
            ManifestError::Io(format!("appending to {}: {e}", self.journal_path.display()))
        })?;
        inner.records_since_compact += 1;
        Ok(())
    }

    /// Compacts when the journal has grown past the threshold. Must only
    /// be called when the in-memory state table fully reflects every
    /// appended record (see [`JobQueue::append_record`]). A compaction
    /// failure is a persist failure: the drain is stopped rather than
    /// risking resume coverage.
    fn maybe_compact(&self, inner: &mut Inner) {
        if inner.records_since_compact < self.cfg.compact_every {
            return;
        }
        if let Err(QueueError::Journal(e)) = self.compact_locked(inner) {
            inner.persist_error.get_or_insert(e);
            self.cancel.cancel();
        }
    }

    /// Folds the state table into a fresh snapshot and truncates the
    /// journal. Generation-stamped so a crash between the two steps
    /// replays nothing twice.
    fn compact_locked(&self, inner: &mut Inner) -> Result<(), QueueError> {
        hostobs::inc("queue_compactions_total");
        hostobs::timed(Phase::QueueJournal, "queue_compaction_ns", || {
            inner.gen += 1;
            let body = snapshot_body(inner.gen, &inner.jobs);
            let installed = self
                .cfg
                .io
                .with(|io| manifest::save_sealed_with(io, &self.snapshot_path, &body));
            if let Err(e) = installed {
                inner.gen -= 1; // nothing durable changed; stay on the old one
                return Err(e.into());
            }
            self.cfg
                .io
                .with(|io| io.write(&self.journal_path, b""))
                .map_err(|e| {
                    ManifestError::Io(format!(
                        "truncating {} after compaction: {e}",
                        self.journal_path.display()
                    ))
                })?;
            inner.records_since_compact = 0;
            Ok(())
        })
    }

    fn refresh_gauges(&self, inner: &mut Inner, now: Instant) {
        let leased = inner.running.len();
        let depth = inner.live.saturating_sub(leased);
        let oldest_lease = inner
            .running
            .values()
            .map(|r| now.saturating_duration_since(r.leased_at))
            .max();
        // The oldest pending job sits at the FIFO head.
        let longest_wait = inner
            .pending
            .front()
            .and_then(|id| inner.jobs.get(id).and_then(|e| e.enqueued_at))
            .map(|at| now.saturating_duration_since(at));
        self.gauges.set(depth, leased, oldest_lease, longest_wait);
        hostobs::set_gauge("queue_depth", i64::try_from(depth).unwrap_or(i64::MAX));
        hostobs::set_gauge("queue_leased", i64::try_from(leased).unwrap_or(i64::MAX));
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

// ----------------------------------------------------------------------
// Journal record encoding and replay.
// ----------------------------------------------------------------------

/// One decoded journal record.
#[derive(Clone, Debug, PartialEq)]
struct Record {
    gen: u64,
    kind: Kind,
    job: String,
    campaign: String,
    failures: u32,
    error: Option<String>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Enqueued,
    Leased,
    Committed,
    Failed,
    Quarantined,
}

impl Kind {
    fn from_label(label: &str) -> Option<Kind> {
        Some(match label {
            "enqueued" => Kind::Enqueued,
            "leased" => Kind::Leased,
            "committed" => Kind::Committed,
            "failed" => Kind::Failed,
            "quarantined" => Kind::Quarantined,
            _ => return None,
        })
    }
}

fn sealed_record(gen: u64, fields: Vec<(String, Value)>) -> String {
    let mut obj = vec![("gen".to_string(), Value::Int(gen as i64))];
    obj.extend(fields);
    manifest::seal(&Value::Obj(obj).to_json())
}

fn enqueued_record_body(id: &str, campaign: &str) -> Vec<(String, Value)> {
    vec![
        ("record".into(), Value::Str("enqueued".into())),
        ("job".into(), Value::Str(id.into())),
        ("campaign".into(), Value::Str(campaign.into())),
    ]
}

fn leased_record_body(id: &str) -> Vec<(String, Value)> {
    vec![
        ("record".into(), Value::Str("leased".into())),
        ("job".into(), Value::Str(id.into())),
    ]
}

fn committed_record_body(id: &str) -> Vec<(String, Value)> {
    vec![
        ("record".into(), Value::Str("committed".into())),
        ("job".into(), Value::Str(id.into())),
    ]
}

fn failed_record_body(id: &str, error: &str) -> Vec<(String, Value)> {
    vec![
        ("record".into(), Value::Str("failed".into())),
        ("job".into(), Value::Str(id.into())),
        ("error".into(), Value::Str(error.into())),
    ]
}

fn quarantined_record(gen: u64, id: &str, entry: &Entry) -> String {
    sealed_record(
        gen,
        vec![
            ("record".into(), Value::Str("quarantined".into())),
            ("job".into(), Value::Str(id.into())),
            ("failures".into(), Value::Int(i64::from(entry.failures))),
            (
                "error".into(),
                Value::Str(entry.error.clone().unwrap_or_else(|| LEASE_LOST.into())),
            ),
        ],
    )
}

/// Splits the journal into individually sealed records. Returns the
/// decoded records, the byte length of the valid prefix, and whether a
/// torn tail was dropped.
///
/// A record is the byte span up to and including a checksum trailer
/// line. The final span is allowed to be damaged in any way — that is
/// the torn tail a crash mid-append leaves — and is silently dropped.
/// Damage *before* the final span is corruption and errors out (the
/// caller quarantines the whole journal).
fn parse_journal(text: &str) -> Result<(Vec<Record>, usize, bool), ManifestError> {
    let mut records = Vec::new();
    let mut valid_len = 0usize;
    let mut pos = 0usize;
    let mut chunk_start = 0usize;
    for line in text.split_inclusive('\n') {
        pos += line.len();
        if line.starts_with(manifest::CHECKSUM_PREFIX) && line.ends_with('\n') {
            let chunk = &text[chunk_start..pos];
            match decode_record(chunk) {
                Ok(record) => {
                    records.push(record);
                    chunk_start = pos;
                    valid_len = pos;
                }
                Err(error) => {
                    if pos == text.len() {
                        // The final span: a torn (or otherwise damaged)
                        // last record is dropped, never an error.
                        return Ok((records, valid_len, true));
                    }
                    return Err(error.with_context("queue journal"));
                }
            }
        }
    }
    let torn = chunk_start < text.len();
    Ok((records, valid_len, torn))
}

fn decode_record(chunk: &str) -> Result<Record, ManifestError> {
    let body = manifest::unseal(chunk)?;
    let doc = parse(body).map_err(ManifestError::Malformed)?;
    let kind = doc
        .get("record")
        .and_then(Value::as_str)
        .and_then(Kind::from_label)
        .ok_or_else(|| ManifestError::Malformed("record kind missing or unknown".into()))?;
    let job = doc
        .get("job")
        .and_then(Value::as_str)
        .ok_or_else(|| ManifestError::Malformed("record missing job id".into()))?;
    let gen = doc
        .get("gen")
        .and_then(Value::as_int)
        .and_then(|g| u64::try_from(g).ok())
        .ok_or_else(|| ManifestError::Malformed("record missing generation".into()))?;
    Ok(Record {
        gen,
        kind,
        job: job.to_string(),
        campaign: doc
            .get("campaign")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string(),
        failures: doc
            .get("failures")
            .and_then(Value::as_int)
            .and_then(|f| u32::try_from(f).ok())
            .unwrap_or(0),
        error: doc.get("error").and_then(Value::as_str).map(str::to_string),
    })
}

/// Folds one record into the replayed state table. Transitions are
/// monotone toward terminal states, so replaying a stale journal suffix
/// over a newer snapshot (possible when a crash lands between snapshot
/// install and journal truncation) is harmless even before the
/// generation filter.
fn apply(jobs: &mut BTreeMap<String, Entry>, record: Record) {
    match record.kind {
        Kind::Enqueued => {
            let entry = jobs
                .entry(record.job)
                .or_insert_with(|| Entry::new(record.campaign.clone()));
            entry.campaign = record.campaign;
            if entry.state.is_terminal() {
                // An enqueue after a terminal state is always a
                // deliberate re-run (the live path only appends it when
                // the durable record is gone): fresh budget.
                entry.failures = 0;
                entry.error = None;
            }
            entry.state = State::Pending;
        }
        Kind::Leased => {
            if let Some(entry) = jobs.get_mut(&record.job) {
                match entry.state {
                    State::Pending => entry.state = State::Leased,
                    // A second lease without an intervening terminal or
                    // pending transition: the first lease was lost.
                    State::Leased => entry.charge(LEASE_LOST),
                    _ => {}
                }
            }
        }
        Kind::Committed => {
            let entry = jobs
                .entry(record.job)
                .or_insert_with(|| Entry::new(record.campaign.clone()));
            entry.state = State::Committed;
            entry.payload = None;
        }
        Kind::Failed => {
            let entry = jobs
                .entry(record.job)
                .or_insert_with(|| Entry::new(record.campaign.clone()));
            if entry.state != State::Committed {
                entry.state = State::Failed;
                entry.error = record.error;
                entry.payload = None;
            }
        }
        Kind::Quarantined => {
            let entry = jobs
                .entry(record.job)
                .or_insert_with(|| Entry::new(record.campaign.clone()));
            if entry.state != State::Committed {
                entry.state = State::Quarantined;
                entry.failures = record.failures;
                entry.error = record.error;
                entry.payload = None;
            }
        }
    }
}

fn snapshot_body(gen: u64, jobs: &BTreeMap<String, Entry>) -> String {
    Value::Obj(vec![
        ("version".into(), Value::Int(QUEUE_VERSION)),
        ("gen".into(), Value::Int(gen as i64)),
        (
            "jobs".into(),
            Value::Arr(
                jobs.iter()
                    .map(|(id, entry)| {
                        Value::Obj(vec![
                            ("job".into(), Value::Str(id.clone())),
                            ("campaign".into(), Value::Str(entry.campaign.clone())),
                            ("state".into(), Value::Str(entry.state.label().into())),
                            ("failures".into(), Value::Int(i64::from(entry.failures))),
                            (
                                "error".into(),
                                entry.error.clone().map_or(Value::Null, Value::Str),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .to_json()
}

fn parse_snapshot(body: &str) -> Result<(u64, BTreeMap<String, Entry>), ManifestError> {
    let malformed = |m: &str| ManifestError::Malformed(format!("queue snapshot: {m}"));
    let doc = parse(body).map_err(|e| malformed(&e))?;
    let version = doc
        .get("version")
        .and_then(Value::as_int)
        .ok_or_else(|| malformed("missing version"))?;
    if version != QUEUE_VERSION {
        return Err(malformed(&format!("unsupported version {version}")));
    }
    let gen = doc
        .get("gen")
        .and_then(Value::as_int)
        .and_then(|g| u64::try_from(g).ok())
        .ok_or_else(|| malformed("missing generation"))?;
    let mut jobs = BTreeMap::new();
    for item in doc
        .get("jobs")
        .and_then(Value::as_arr)
        .ok_or_else(|| malformed("missing jobs array"))?
    {
        let id = item
            .get("job")
            .and_then(Value::as_str)
            .ok_or_else(|| malformed("job entry missing id"))?;
        let state = item
            .get("state")
            .and_then(Value::as_str)
            .and_then(State::from_label)
            .ok_or_else(|| malformed("job entry missing state"))?;
        let mut entry = Entry::new(
            item.get("campaign")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
        );
        entry.state = state;
        entry.failures = item
            .get("failures")
            .and_then(Value::as_int)
            .and_then(|f| u32::try_from(f).ok())
            .unwrap_or(0);
        entry.error = item
            .get("error")
            .and_then(Value::as_str)
            .map(str::to_string);
        if jobs.insert(id.to_string(), entry).is_some() {
            return Err(malformed(&format!("duplicate job `{id}`")));
        }
    }
    Ok((gen, jobs))
}

fn poison_of(jobs: &BTreeMap<String, Entry>) -> Vec<PoisonJob> {
    jobs.iter()
        .filter(|(_, e)| e.state == State::Quarantined)
        .map(|(id, e)| PoisonJob {
            id: id.clone(),
            campaign: e.campaign.clone(),
            failures: e.failures,
            error: e.error.clone().unwrap_or_else(|| LEASE_LOST.into()),
        })
        .collect()
}

/// A human-readable cause for a `Failed` journal record, from the last
/// recorded attempt.
fn last_attempt_error(record: &JobRecord) -> String {
    match record.attempts.last().map(|a| &a.outcome) {
        Some(AttemptOutcome::Fault(m)) => m.clone(),
        Some(AttemptOutcome::Panic(m)) => format!("panic: {m}"),
        Some(AttemptOutcome::DeadlineExceeded) => SimError::DeadlineExceeded.to_string(),
        Some(AttemptOutcome::Cancelled) => SimError::Cancelled.to_string(),
        Some(AttemptOutcome::Success) | None => "failed".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(campaign: &str, state: State) -> Entry {
        let mut e = Entry::new(campaign.into());
        e.state = state;
        e
    }

    #[test]
    fn journal_records_round_trip() {
        let text = format!(
            "{}{}{}",
            sealed_record(0, enqueued_record_body("a/x", "a")),
            sealed_record(0, leased_record_body("a/x")),
            sealed_record(1, committed_record_body("a/x")),
        );
        let (records, valid_len, torn) = parse_journal(&text).unwrap();
        assert_eq!(records.len(), 3);
        assert!(!torn);
        assert_eq!(valid_len, text.len());
        assert_eq!(records[0].kind, Kind::Enqueued);
        assert_eq!(records[0].campaign, "a");
        assert_eq!(records[2].gen, 1);
    }

    #[test]
    fn torn_tail_at_every_byte_offset_is_dropped_not_an_error() {
        let full = format!(
            "{}{}",
            sealed_record(0, enqueued_record_body("a/x", "a")),
            sealed_record(0, leased_record_body("a/x")),
        );
        let first_len = sealed_record(0, enqueued_record_body("a/x", "a")).len();
        for cut in 0..full.len() {
            let (records, valid_len, torn) =
                parse_journal(&full[..cut]).expect("a torn tail must never be an error");
            if cut < first_len {
                assert_eq!(records.len(), 0, "cut at {cut}");
                assert_eq!(valid_len, 0);
                assert_eq!(torn, cut > 0, "cut at {cut}");
            } else {
                assert_eq!(records.len(), 1, "cut at {cut}");
                assert_eq!(valid_len, first_len);
                assert_eq!(torn, cut > first_len, "cut at {cut}");
            }
        }
    }

    #[test]
    fn mid_journal_damage_is_corruption() {
        let full = format!(
            "{}{}",
            sealed_record(0, enqueued_record_body("a/x", "a")),
            sealed_record(0, leased_record_body("a/x")),
        );
        // Flip a byte inside the *first* record's body.
        let damaged = full.replacen("\"a/x\"", "\"a/y\"", 1);
        assert_ne!(damaged, full);
        let err = parse_journal(&damaged).expect_err("mid-journal damage must surface");
        assert!(matches!(err, ManifestError::ChecksumMismatch(_)), "{err:?}");
    }

    #[test]
    fn replay_counts_repeated_lease_losses() {
        let mut jobs = BTreeMap::new();
        apply(&mut jobs, rec(Kind::Enqueued, "j"));
        apply(&mut jobs, rec(Kind::Leased, "j"));
        apply(&mut jobs, rec(Kind::Leased, "j"));
        apply(&mut jobs, rec(Kind::Leased, "j"));
        let e = &jobs["j"];
        assert_eq!(e.state, State::Leased);
        assert_eq!(e.failures, 2, "two leases were lost before the third");
    }

    #[test]
    fn replay_is_monotone_toward_terminal_states() {
        let mut jobs = BTreeMap::new();
        apply(&mut jobs, rec(Kind::Enqueued, "j"));
        apply(&mut jobs, rec(Kind::Leased, "j"));
        apply(&mut jobs, rec(Kind::Committed, "j"));
        // Stale records after the terminal state (post-compaction crash
        // replay) change nothing.
        apply(&mut jobs, rec(Kind::Leased, "j"));
        apply(&mut jobs, rec(Kind::Failed, "j"));
        assert_eq!(jobs["j"].state, State::Committed);
    }

    #[test]
    fn snapshot_round_trips() {
        let mut jobs = BTreeMap::new();
        jobs.insert("a/x".to_string(), entry("a", State::Committed));
        let mut poisoned = entry("b", State::Quarantined);
        poisoned.failures = 3;
        poisoned.error = Some("panic: boom".into());
        jobs.insert("b/y".to_string(), poisoned);
        let body = snapshot_body(7, &jobs);
        let (gen, back) = parse_snapshot(&body).unwrap();
        assert_eq!(gen, 7);
        assert_eq!(back.len(), 2);
        assert_eq!(back["a/x"].state, State::Committed);
        assert_eq!(back["b/y"].failures, 3);
        assert_eq!(back["b/y"].error.as_deref(), Some("panic: boom"));
    }

    fn rec(kind: Kind, job: &str) -> Record {
        Record {
            gen: 0,
            kind,
            job: job.to_string(),
            campaign: "c".to_string(),
            failures: 3,
            error: Some("x".into()),
        }
    }
}
