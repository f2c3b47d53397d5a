//! The campaign server: the wire protocol's request vocabulary mapped
//! onto the durable [`JobQueue`].
//!
//! Every robustness decision here leans on the queue's crash
//! consistency rather than re-inventing it:
//!
//! - **Exactly-once submits.** The first line of defence is an
//!   in-memory dedup map keyed by the content-derived request id; a
//!   retry of an applied submit replays the recorded decision. The map
//!   dies with the process, so the second line is the journal itself: a
//!   post-restart retry of an already-journaled submit surfaces as the
//!   queue's `DuplicateJob` (live) or `AlreadyComplete` (terminal), both
//!   of which the server folds back into an idempotent success.
//! - **Backpressure is vocabulary.** Global capacity maps to the typed
//!   [`Response::Saturated`] (carrying the queue's own depth/capacity
//!   numbers), per-campaign admission quotas to
//!   [`Response::QuotaExceeded`], and the connection bound to
//!   [`Response::Overloaded`]. None of these is recorded in the dedup
//!   map: a retry after backpressure re-attempts for real.
//! - **Leases stay honest.** A reap tick calls
//!   [`JobQueue::reap_expired`] on a fixed cadence so work owned by dead
//!   clients returns to the pool even while the drain loop is idle, and
//!   the server compares the configured lease deadline against the
//!   p99-derived [`JobQueue::suggested_lease`], raising it (with a
//!   warning) when a user configured a deadline shorter than observed
//!   run times — the classic self-inflicted lease-expiry storm.
//! - **Graceful drain.** A `Shutdown` request stops admission
//!   ([`Response::Draining`]), lets leased jobs finish, flushes the
//!   journal, and returns the final deterministic report.

use crate::proto::{
    read_frame, write_frame, FrameError, JobSpec, PoisonEntry, Request, Response, StatusReply,
    SubmitOutcome,
};
use ffsim_driver::{hostobs, report, Enqueued, Job, JobQueue, QueueError, QueueStats};
use ffsim_obs::prof::Phase;
use ffsim_obs::Log2Hist;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Builds a runnable [`Job`] from a wire [`JobSpec`]: the server-side
/// workload registry. Closures cannot cross the wire, so the factory is
/// where names become payloads — the same re-attachment a restarted
/// queue consumer performs for recovered journal entries.
pub type JobFactory = Arc<dyn Fn(&JobSpec) -> Result<Job, String> + Send + Sync>;

/// Poll quantum for connection reads and the idle drain loop: short
/// enough that shutdown is responsive, long enough to stay off the CPU.
const POLL: Duration = Duration::from_millis(50);

/// Server tuning knobs. The defaults suit a local smoke test; long
/// campaigns raise the read timeout.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Connection bound; accepts beyond it get a typed
    /// [`Response::Overloaded`] and are closed.
    pub max_connections: usize,
    /// Per-connection read deadline: a connection idle this long is
    /// closed (the client reconnects on its next request).
    pub read_timeout: Duration,
    /// Per-connection write deadline: a peer that stops draining its
    /// socket for this long forfeits the connection instead of wedging
    /// a handler thread.
    pub write_timeout: Duration,
    /// Cadence of the expired-lease reap tick.
    pub reap_interval: Duration,
    /// Dedup-map entry bound; on overflow the map is cleared (the
    /// journal still guarantees exactly-once, just via the
    /// `DuplicateJob`/`AlreadyComplete` slow path).
    pub dedup_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_connections: 32,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            reap_interval: Duration::from_millis(250),
            dedup_capacity: 65_536,
        }
    }
}

/// What a completed [`CampaignServer::run`] observed.
#[derive(Clone, Debug)]
pub struct ServeOutcome {
    /// The final deterministic report: merged records + poison appendix
    /// + quarantine appendix, byte-identical to an uninterrupted run.
    pub report: String,
    /// Requests handled over the server's lifetime.
    pub requests: u64,
    /// Submits answered from the idempotency dedup map.
    pub dedup_hits: u64,
    /// Per-campaign admission-quota rejections (distinct from global
    /// saturation; rendered in the queue-wait appendix).
    pub quota_rejections: BTreeMap<String, u64>,
    /// Per-campaign queue-wait distributions for the stderr appendix.
    pub waits: BTreeMap<String, Log2Hist>,
    /// Whether the run ended on the service stop token rather than a
    /// graceful drain.
    pub cancelled: bool,
}

/// Mutable server state behind one lock: the idempotency dedup map and
/// the per-campaign admission quotas.
#[derive(Default)]
struct ServeState {
    /// request id → the recorded terminal submit decision.
    dedup: HashMap<String, Response>,
    /// campaign → admission quota on live jobs.
    quotas: HashMap<String, u64>,
    /// campaign → submits rejected by quota (reported distinctly from
    /// global saturation).
    quota_rejections: BTreeMap<String, u64>,
}

/// The wire front over a [`JobQueue`]. [`handle`](CampaignServer::handle)
/// is the pure request→response map (directly unit-testable);
/// [`run`](CampaignServer::run) adds the sockets, the worker drain loop,
/// and the reap tick.
pub struct CampaignServer {
    queue: JobQueue,
    factory: JobFactory,
    cfg: ServeConfig,
    state: Mutex<ServeState>,
    /// `Shutdown` was requested: no new submits, finish what is queued.
    draining: AtomicBool,
    /// The run is over: every helper thread exits at its next poll.
    done: AtomicBool,
    active: AtomicUsize,
    requests: AtomicU64,
    dedup_hits: AtomicU64,
}

impl fmt::Debug for CampaignServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CampaignServer")
            .field("cfg", &self.cfg)
            .field("draining", &self.draining)
            .field("active", &self.active)
            .finish_non_exhaustive()
    }
}

impl CampaignServer {
    /// Wraps a queue and a workload factory with the given tuning.
    #[must_use]
    pub fn new(queue: JobQueue, factory: JobFactory, cfg: ServeConfig) -> CampaignServer {
        CampaignServer {
            queue,
            factory,
            cfg,
            state: Mutex::new(ServeState::default()),
            draining: AtomicBool::new(false),
            done: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            requests: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
        }
    }

    /// The underlying queue (tests and embedders).
    #[must_use]
    pub fn queue(&self) -> &JobQueue {
        &self.queue
    }

    /// Whether a `Shutdown` request has been received.
    #[must_use]
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    fn state(&self) -> MutexGuard<'_, ServeState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    // ------------------------------------------------------------------
    // Request dispatch (socket-free; the unit-testable core).
    // ------------------------------------------------------------------

    /// Maps one request to its response, attributing the wall time to
    /// the `serve_request` phase.
    pub fn handle(&self, request: &Request) -> Response {
        hostobs::timed(Phase::ServeRequest, "serve_request_ns", || {
            self.dispatch(request)
        })
    }

    fn dispatch(&self, request: &Request) -> Response {
        self.requests.fetch_add(1, Ordering::Relaxed);
        hostobs::inc("serve_requests_total");
        match request {
            Request::Register { campaign, quota } => self.register(campaign, *quota),
            Request::Submit {
                request_id,
                campaign,
                job,
            } => self.submit(request_id, campaign, job),
            Request::Status => Response::Stats(status_of(&self.queue.stats())),
            Request::Cancel => {
                self.queue.cancel_token().cancel();
                Response::Ok
            }
            Request::PoisonList => Response::Poison(
                self.queue
                    .poison_jobs()
                    .iter()
                    .map(PoisonEntry::from)
                    .collect(),
            ),
            Request::DrainReport => Response::Report(self.report()),
            Request::Shutdown => {
                self.draining.store(true, Ordering::Relaxed);
                Response::Ok
            }
        }
    }

    fn register(&self, campaign: &str, quota: Option<u64>) -> Response {
        self.queue.register(campaign);
        let mut state = self.state();
        match quota {
            Some(quota) => {
                state.quotas.insert(campaign.to_string(), quota);
            }
            None => {
                state.quotas.remove(campaign);
            }
        }
        Response::Ok
    }

    fn submit(&self, request_id: &str, campaign: &str, spec: &JobSpec) -> Response {
        // The request id is not trusted: it must equal the digest of the
        // content it claims to identify, or the dedup map could be
        // poisoned into acking a submit that was never applied.
        let expected = spec.digest(campaign);
        if request_id != expected {
            return Response::Error(format!(
                "request_id `{request_id}` does not match the content digest `{expected}`"
            ));
        }

        if let Some(previous) = self.state().dedup.get(request_id) {
            self.dedup_hits.fetch_add(1, Ordering::Relaxed);
            hostobs::inc("serve_dedup_hits_total");
            if let Response::Submitted { outcome, .. } = previous {
                return Response::Submitted {
                    outcome: *outcome,
                    deduped: true,
                };
            }
        }

        if self.draining.load(Ordering::Relaxed) {
            return Response::Draining;
        }

        // Admission quota: a per-campaign bound on live jobs, layered
        // under the queue's global capacity so one chatty campaign
        // cannot starve its siblings of queue slots.
        let quota = self.state().quotas.get(campaign).copied();
        if let Some(quota) = quota {
            let live = self.queue.campaign_live(campaign) as u64;
            if live >= quota {
                *self
                    .state()
                    .quota_rejections
                    .entry(campaign.to_string())
                    .or_insert(0) += 1;
                hostobs::inc("serve_quota_rejections_total");
                return Response::QuotaExceeded {
                    campaign: campaign.to_string(),
                    live,
                    quota,
                };
            }
        }

        let job = match (self.factory)(spec) {
            Ok(job) => job,
            Err(e) => return Response::Error(format!("workload factory: {e}")),
        };
        if job.id != spec.id {
            return Response::Error(format!(
                "factory returned job id `{}` for spec id `{}`",
                job.id, spec.id
            ));
        }

        match self.queue.enqueue(campaign, job) {
            Ok(enqueued) => {
                let outcome = match enqueued {
                    Enqueued::Accepted => SubmitOutcome::Accepted,
                    Enqueued::AlreadyComplete => SubmitOutcome::AlreadyComplete,
                    Enqueued::Poisoned => SubmitOutcome::Poisoned,
                };
                let response = Response::Submitted {
                    outcome,
                    deduped: false,
                };
                self.remember(request_id, &response);
                response
            }
            // Already journaled live: a previous process applied this
            // submit but its ack (and dedup map) was lost. Idempotent
            // success, not an error — this is the restart half of the
            // exactly-once guarantee.
            Err(QueueError::DuplicateJob(_)) => {
                let response = Response::Submitted {
                    outcome: SubmitOutcome::Accepted,
                    deduped: false,
                };
                self.remember(request_id, &response);
                hostobs::inc("serve_dedup_hits_total");
                self.dedup_hits.fetch_add(1, Ordering::Relaxed);
                Response::Submitted {
                    outcome: SubmitOutcome::Accepted,
                    deduped: true,
                }
            }
            // Backpressure is deliberately NOT remembered: a retry after
            // saturation must re-attempt, not replay the rejection.
            Err(QueueError::Saturated { depth, capacity }) => {
                hostobs::inc("serve_saturated_total");
                Response::Saturated {
                    depth: depth as u64,
                    capacity: capacity as u64,
                }
            }
            Err(e) => Response::Error(e.to_string()),
        }
    }

    fn remember(&self, request_id: &str, response: &Response) {
        let mut state = self.state();
        if state.dedup.len() >= self.cfg.dedup_capacity {
            state.dedup.clear();
        }
        state.dedup.insert(request_id.to_string(), response.clone());
    }

    /// The deterministic merged report: records + poison appendix +
    /// quarantine appendix, the exact composition the smoke binaries
    /// print and the goldens pin.
    #[must_use]
    pub fn report(&self) -> String {
        let mut text = report::render(&self.queue.merged_records());
        text.push_str(&report::render_poison(&self.queue.poison_jobs()));
        text.push_str(&report::render_quarantines(
            &self.queue.recovery().quarantines,
        ));
        text
    }

    /// Per-campaign quota rejections so far.
    #[must_use]
    pub fn quota_rejections(&self) -> BTreeMap<String, u64> {
        self.state().quota_rejections.clone()
    }

    // ------------------------------------------------------------------
    // The socket front.
    // ------------------------------------------------------------------

    /// Serves `listener` until a graceful `Shutdown` drain completes or
    /// the service stop token fires. Internally runs three concerns on
    /// scoped threads: the accept loop (with the connection bound), the
    /// expired-lease reap tick, and the queue drain loop on the calling
    /// thread.
    ///
    /// # Errors
    ///
    /// [`QueueError`] when the drain loop hits a filesystem-level
    /// journal failure; transport errors never surface here (they are
    /// per-connection and the client retries).
    pub fn run(&self, listener: TcpListener) -> Result<ServeOutcome, QueueError> {
        self.done.store(false, Ordering::Relaxed);
        listener
            .set_nonblocking(true)
            .map_err(|e| QueueError::InvalidConfig(format!("listener: {e}")))?;

        let drained = std::thread::scope(|scope| {
            scope.spawn(|| {
                while !self.done.load(Ordering::Relaxed) {
                    self.queue.reap_expired();
                    std::thread::sleep(self.cfg.reap_interval);
                }
            });
            scope.spawn(|| {
                while !self.done.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => self.admit(scope, stream),
                        Err(e)
                            if e.kind() == ErrorKind::WouldBlock
                                || e.kind() == ErrorKind::Interrupted =>
                        {
                            std::thread::sleep(POLL);
                        }
                        Err(_) => std::thread::sleep(POLL),
                    }
                }
            });
            let drained = self.drain_loop();
            // Everything stops — accept loop, reap tick, and any
            // connection handlers at their next read poll.
            self.done.store(true, Ordering::Relaxed);
            drained
        });
        drained.map(|cancelled| ServeOutcome {
            report: self.report(),
            requests: self.requests.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            quota_rejections: self.quota_rejections(),
            waits: self.queue.wait_hists(),
            cancelled,
        })
    }

    /// Hands an accepted connection to a scoped handler thread, or
    /// turns it away with a typed `Overloaded` when at the bound.
    fn admit<'scope>(
        &'scope self,
        scope: &'scope std::thread::Scope<'scope, '_>,
        mut stream: TcpStream,
    ) {
        let active = self.active.load(Ordering::Relaxed);
        if active >= self.cfg.max_connections {
            hostobs::inc("serve_overloaded_total");
            let _ = stream.set_write_timeout(Some(self.cfg.write_timeout));
            let reply = Response::Overloaded {
                active: active as u64,
                max: self.cfg.max_connections as u64,
            };
            let _ = write_frame(&mut stream, &reply.encode());
            return;
        }
        self.active.fetch_add(1, Ordering::Relaxed);
        hostobs::set_gauge(
            "serve_active_connections",
            i64::try_from(active + 1).unwrap_or(i64::MAX),
        );
        scope.spawn(move || {
            self.serve_stream(stream);
            let now = self.active.fetch_sub(1, Ordering::Relaxed) - 1;
            hostobs::set_gauge(
                "serve_active_connections",
                i64::try_from(now).unwrap_or(i64::MAX),
            );
        });
    }

    /// One connection's request loop. Frame damage closes the
    /// connection (the client retries idempotently); a malformed but
    /// intact frame gets a typed `Error` and the connection survives.
    fn serve_stream(&self, mut stream: TcpStream) {
        let _ = stream.set_read_timeout(Some(POLL));
        let _ = stream.set_write_timeout(Some(self.cfg.write_timeout));
        let mut idle = Duration::ZERO;
        loop {
            if self.done.load(Ordering::Relaxed) {
                return;
            }
            match read_frame(&mut stream) {
                Ok(payload) => {
                    idle = Duration::ZERO;
                    let response = match Request::decode(&payload) {
                        Ok(request) => self.handle(&request),
                        Err(e) => {
                            hostobs::inc("serve_decode_errors_total");
                            Response::Error(e)
                        }
                    };
                    if write_frame(&mut stream, &response.encode()).is_err() {
                        return;
                    }
                }
                Err(FrameError::TimedOut) => {
                    idle += POLL;
                    if idle >= self.cfg.read_timeout {
                        return;
                    }
                }
                Err(FrameError::Closed) => return,
                Err(_) => {
                    // Torn frame, checksum mismatch, bad magic, reset:
                    // nothing half-applied, so just drop the connection.
                    hostobs::inc("serve_frame_errors_total");
                    return;
                }
            }
        }
    }

    /// Drains the queue whenever work is pending; exits once draining
    /// was requested and everything reached a terminal state, or the
    /// stop token fired. Returns whether the exit was a cancellation.
    fn drain_loop(&self) -> Result<bool, QueueError> {
        self.advise_lease(true);
        let stop = self.queue.cancel_token();
        loop {
            if stop.is_cancelled() {
                return Ok(true);
            }
            let stats = self.queue.stats();
            if stats.pending > 0 {
                let outcome = self.queue.drain()?;
                self.advise_lease(false);
                if outcome.cancelled {
                    return Ok(true);
                }
            } else if self.draining.load(Ordering::Relaxed) && stats.leased == 0 {
                return Ok(false);
            } else {
                std::thread::sleep(POLL);
            }
        }
    }

    /// Satellite concern: compare the configured lease deadline against
    /// the p99-derived suggestion and raise it (with a warning) when a
    /// user configured a deadline shorter than observed run times.
    fn advise_lease(&self, at_start: bool) {
        let current = self.queue.lease();
        match self.queue.suggested_lease() {
            Some(suggested) => {
                if at_start {
                    eprintln!(
                        "serve: suggested lease deadline {}ms (4x observed p99 run time); configured {}ms",
                        suggested.as_millis(),
                        current.as_millis()
                    );
                }
                if current < suggested {
                    eprintln!(
                        "serve: warning: lease deadline {}ms is below the suggested {}ms; raising it to avoid spurious lease expiries",
                        current.as_millis(),
                        suggested.as_millis()
                    );
                    self.queue.set_lease(suggested);
                    hostobs::inc("serve_lease_raises_total");
                }
            }
            None if at_start => eprintln!(
                "serve: no run history yet; keeping configured lease deadline {}ms",
                current.as_millis()
            ),
            None => {}
        }
    }
}

fn status_of(stats: &QueueStats) -> StatusReply {
    StatusReply {
        pending: stats.pending as u64,
        leased: stats.leased as u64,
        committed: stats.committed as u64,
        failed: stats.failed as u64,
        quarantined: stats.quarantined as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsim_driver::{mode_from_label, QueueConfig, RetryPolicy, TelemetryConfig, WorkloadFn};
    use ffsim_emu::Memory;
    use ffsim_isa::{Asm, Reg};
    use ffsim_uarch::CoreConfig;
    use std::path::{Path, PathBuf};

    fn workload(trips: i64) -> WorkloadFn {
        Arc::new(move || {
            let i = Reg::new(1);
            let mut a = Asm::new();
            a.li(i, trips);
            a.label("loop");
            a.addi(i, i, -1);
            a.bnez(i, "loop");
            a.halt();
            Ok((a.assemble()?, Memory::new()))
        })
    }

    fn factory() -> JobFactory {
        Arc::new(|spec: &JobSpec| {
            let mode = mode_from_label(&spec.mode).ok_or_else(|| format!("mode {}", spec.mode))?;
            if spec.workload != "countdown" {
                return Err(format!("unknown workload `{}`", spec.workload));
            }
            Ok(
                Job::new(&spec.id, mode, workload(spec.arg))
                    .with_core(CoreConfig::tiny_for_tests()),
            )
        })
    }

    fn tmp_dir(name: &str) -> PathBuf {
        // CARGO_TARGET_TMPDIR only exists for integration tests; unit
        // tests get a namespaced corner of the system temp dir.
        let dir = std::env::temp_dir().join("ffsim_serve_unit").join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create test dir");
        dir
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

    fn server(name: &str) -> CampaignServer {
        let queue = JobQueue::open(qcfg(&tmp_dir(name))).expect("queue opens");
        CampaignServer::new(queue, factory(), ServeConfig::default())
    }

    fn spec(id: &str) -> JobSpec {
        JobSpec {
            id: id.to_string(),
            mode: "wpemul".into(),
            workload: "countdown".into(),
            arg: 30,
        }
    }

    fn submit_req(campaign: &str, job: JobSpec) -> Request {
        Request::Submit {
            request_id: job.digest(campaign),
            campaign: campaign.into(),
            job,
        }
    }

    fn register_req(campaign: &str, quota: Option<u64>) -> Request {
        Request::Register {
            campaign: campaign.into(),
            quota,
        }
    }

    #[test]
    fn duplicate_submit_dedups_instead_of_double_enqueueing() {
        let server = server("serve_dedup");
        assert_eq!(server.handle(&register_req("alpha", None)), Response::Ok);
        let request = submit_req("alpha", spec("alpha/j0"));
        assert_eq!(
            server.handle(&request),
            Response::Submitted {
                outcome: SubmitOutcome::Accepted,
                deduped: false
            }
        );
        // The retry replays the recorded decision; the queue still holds
        // exactly one live copy.
        assert_eq!(
            server.handle(&request),
            Response::Submitted {
                outcome: SubmitOutcome::Accepted,
                deduped: true
            }
        );
        assert_eq!(server.queue().stats().pending, 1);
    }

    #[test]
    fn post_restart_retry_of_a_journaled_submit_is_idempotent() {
        let server = server("serve_dup_job");
        assert_eq!(server.handle(&register_req("alpha", None)), Response::Ok);
        let request = submit_req("alpha", spec("alpha/j0"));
        assert_eq!(
            server.handle(&request),
            Response::Submitted {
                outcome: SubmitOutcome::Accepted,
                deduped: false
            }
        );
        // Simulate the ack (and the dedup map) dying with the process:
        // the retry goes down the queue's DuplicateJob path and must
        // still be an idempotent success.
        server.state().dedup.clear();
        assert_eq!(
            server.handle(&request),
            Response::Submitted {
                outcome: SubmitOutcome::Accepted,
                deduped: true
            }
        );
        assert_eq!(server.queue().stats().pending, 1);
    }

    #[test]
    fn forged_request_ids_are_refused() {
        let server = server("serve_forged");
        assert_eq!(server.handle(&register_req("alpha", None)), Response::Ok);
        let response = server.handle(&Request::Submit {
            request_id: "0000000000000000".into(),
            campaign: "alpha".into(),
            job: spec("alpha/j0"),
        });
        assert!(
            matches!(response, Response::Error(ref e) if e.contains("content digest")),
            "got {response:?}"
        );
        assert_eq!(server.queue().stats().pending, 0);
    }

    #[test]
    fn admission_quota_rejects_distinctly_from_saturation() {
        let server = server("serve_quota");
        assert_eq!(server.handle(&register_req("alpha", Some(1))), Response::Ok);
        assert_eq!(
            server.handle(&submit_req("alpha", spec("alpha/j0"))),
            Response::Submitted {
                outcome: SubmitOutcome::Accepted,
                deduped: false
            }
        );
        assert_eq!(
            server.handle(&submit_req("alpha", spec("alpha/j1"))),
            Response::QuotaExceeded {
                campaign: "alpha".into(),
                live: 1,
                quota: 1
            }
        );
        assert_eq!(server.quota_rejections().get("alpha"), Some(&1));
        // The rejection surfaces in the queue-wait appendix, labelled as
        // quota (not saturation).
        let appendix =
            report::render_queue_waits(&server.queue().wait_hists(), &server.quota_rejections());
        assert!(
            appendix.contains("admission-quota rejections"),
            "{appendix}"
        );
        assert!(appendix.contains("alpha: 1 submit(s)"), "{appendix}");
    }

    #[test]
    fn draining_refuses_new_submits_but_answers_reads() {
        let server = server("serve_draining");
        assert_eq!(server.handle(&register_req("alpha", None)), Response::Ok);
        assert_eq!(server.handle(&Request::Shutdown), Response::Ok);
        assert!(server.draining());
        assert_eq!(
            server.handle(&submit_req("alpha", spec("alpha/j0"))),
            Response::Draining
        );
        assert!(matches!(
            server.handle(&Request::Status),
            Response::Stats(_)
        ));
    }

    #[test]
    fn saturation_passes_through_depth_and_capacity_untouched() {
        let dir = tmp_dir("serve_saturated");
        let queue = JobQueue::open(QueueConfig {
            capacity: 2,
            ..qcfg(&dir)
        })
        .expect("queue opens");
        let server = CampaignServer::new(queue, factory(), ServeConfig::default());
        assert_eq!(server.handle(&register_req("alpha", None)), Response::Ok);
        for id in ["alpha/j0", "alpha/j1"] {
            assert!(matches!(
                server.handle(&submit_req("alpha", spec(id))),
                Response::Submitted { .. }
            ));
        }
        assert_eq!(
            server.handle(&submit_req("alpha", spec("alpha/j2"))),
            Response::Saturated {
                depth: 2,
                capacity: 2
            }
        );
        // Backpressure is not recorded: once there is room, the same
        // request id succeeds for real instead of replaying a rejection.
        let outcome = server.queue().drain().expect("drain");
        assert_eq!(outcome.records.len(), 2);
        assert_eq!(
            server.handle(&submit_req("alpha", spec("alpha/j2"))),
            Response::Submitted {
                outcome: SubmitOutcome::Accepted,
                deduped: false
            }
        );
    }

    #[test]
    fn run_serves_drains_and_reports_over_a_real_socket() {
        let server = server("serve_socket");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::scope(|scope| {
            let running = scope.spawn(|| server.run(listener).expect("run"));
            let mut stream = TcpStream::connect(addr).expect("connect");
            let mut call = |request: &Request| -> Response {
                write_frame(&mut stream, &request.encode()).expect("write");
                Response::decode(&read_frame(&mut stream).expect("read")).expect("decode")
            };
            assert_eq!(call(&register_req("alpha", None)), Response::Ok);
            assert_eq!(
                call(&submit_req("alpha", spec("alpha/j0"))),
                Response::Submitted {
                    outcome: SubmitOutcome::Accepted,
                    deduped: false
                }
            );
            assert_eq!(call(&Request::Shutdown), Response::Ok);
            let outcome = running.join().expect("no panic");
            assert!(!outcome.cancelled);
            assert!(outcome.report.contains("alpha/j0"), "{}", outcome.report);
            assert_eq!(outcome.requests, 3);
        });
    }
}
