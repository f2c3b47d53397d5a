//! Campaign jobs and their per-attempt records.

use crate::json::Value;
use ffsim_core::{CpiStack, SimConfig, SimError, SimResult, WrongPathMode};
use ffsim_emu::Memory;
use ffsim_isa::Program;
use ffsim_uarch::CoreConfig;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Builds a job's workload. Jobs carry a *builder* rather than a built
/// `(Program, Memory)` pair so each attempt starts from pristine state —
/// a retry after a panic or fault must not observe memory mutated by the
/// failed attempt.
pub type WorkloadFn = Arc<dyn Fn() -> Result<(Program, Memory), SimError> + Send + Sync>;

/// Adjusts the [`SimConfig`] of each attempt (fault injection, watchdog
/// overrides, convergence tunables, …). Runs before the driver installs the
/// per-attempt cancellation token, so a tweak cannot detach an attempt from
/// supervision.
pub type ConfigTweak = Arc<dyn Fn(&mut SimConfig) + Send + Sync>;

/// One unit of campaign work: a workload simulated in one wrong-path mode
/// on one core configuration.
#[derive(Clone)]
pub struct Job {
    /// Unique id; the manifest, report and resume logic key on it.
    pub id: String,
    /// The wrong-path mode requested. With degradation enabled, persistent
    /// failures retry down the ladder from here.
    pub mode: WrongPathMode,
    /// The simulated core.
    pub core: CoreConfig,
    /// Measured-instruction budget per run (`None` = run to `halt`).
    pub max_instructions: Option<u64>,
    /// Wall-clock deadline per attempt; `None` falls back to the campaign
    /// default, and `Some(None)` cannot be expressed — campaigns always
    /// have *some* deadline unless the campaign default is also `None`.
    pub timeout: Option<Duration>,
    /// Attempts per rung; `None` uses the campaign retry policy's count.
    pub max_attempts: Option<u32>,
    /// Whether persistent failures walk down the degradation ladder
    /// (`true` by default). When `false`, exhausting the requested mode's
    /// attempts fails the job outright.
    pub degrade: bool,
    /// Builds the workload for each attempt.
    pub workload: WorkloadFn,
    /// Optional per-attempt configuration adjustment.
    pub tweak: Option<ConfigTweak>,
}

impl fmt::Debug for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Job")
            .field("id", &self.id)
            .field("mode", &self.mode)
            .field("max_instructions", &self.max_instructions)
            .field("timeout", &self.timeout)
            .field("max_attempts", &self.max_attempts)
            .field("degrade", &self.degrade)
            .finish_non_exhaustive()
    }
}

impl Job {
    /// A job with campaign-default supervision (default timeout and retry
    /// policy, degradation enabled).
    #[must_use]
    pub fn new(id: impl Into<String>, mode: WrongPathMode, workload: WorkloadFn) -> Job {
        Job {
            id: id.into(),
            mode,
            core: CoreConfig::golden_cove_like(),
            max_instructions: None,
            timeout: None,
            max_attempts: None,
            degrade: true,
            workload,
            tweak: None,
        }
    }

    /// Sets the simulated core.
    #[must_use]
    pub fn with_core(mut self, core: CoreConfig) -> Job {
        self.core = core;
        self
    }

    /// Caps measured instructions per run.
    #[must_use]
    pub fn with_max_instructions(mut self, max: u64) -> Job {
        self.max_instructions = Some(max);
        self
    }

    /// Overrides the campaign's per-attempt wall-clock deadline.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Job {
        self.timeout = Some(timeout);
        self
    }

    /// Overrides the campaign's attempts-per-rung count.
    #[must_use]
    pub fn with_max_attempts(mut self, attempts: u32) -> Job {
        self.max_attempts = Some(attempts.max(1));
        self
    }

    /// Disables the degradation ladder for this job: failure at the
    /// requested mode is final.
    #[must_use]
    pub fn no_degradation(mut self) -> Job {
        self.degrade = false;
        self
    }

    /// Installs a per-attempt configuration tweak.
    #[must_use]
    pub fn with_tweak(mut self, tweak: ConfigTweak) -> Job {
        self.tweak = Some(tweak);
        self
    }
}

/// The next rung down the degradation ladder, or `None` at the bottom.
///
/// The ladder walks from the most capable wrong-path technique to the most
/// robust: `wpemul → conv → instrec → nowp`. Each step removes the
/// machinery most likely to be implicated in the failure (frontend
/// emulation first, then address recovery, then reconstruction).
#[must_use]
pub fn ladder_next(mode: WrongPathMode) -> Option<WrongPathMode> {
    // `WrongPathMode::ALL` is ordered from most robust to most capable,
    // so the ladder is a walk backwards through it.
    let rung = WrongPathMode::ALL.iter().position(|&m| m == mode)?;
    rung.checked_sub(1).map(|down| WrongPathMode::ALL[down])
}

/// Parses a mode from its figure label (`nowp`, `instrec`, `conv`,
/// `wpemul`), as stored in the manifest.
#[must_use]
pub fn mode_from_label(label: &str) -> Option<WrongPathMode> {
    WrongPathMode::ALL.into_iter().find(|m| m.label() == label)
}

/// Terminal status of a job within a campaign.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JobStatus {
    /// Succeeded in the requested mode.
    Completed,
    /// Succeeded, but only after degrading to a lower-fidelity mode.
    Degraded,
    /// Every rung (or the only rung) exhausted its attempts.
    Failed,
}

impl JobStatus {
    /// Manifest label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            JobStatus::Completed => "completed",
            JobStatus::Degraded => "degraded",
            JobStatus::Failed => "failed",
        }
    }

    /// Inverse of [`JobStatus::label`].
    #[must_use]
    pub fn from_label(label: &str) -> Option<JobStatus> {
        match label {
            "completed" => Some(JobStatus::Completed),
            "degraded" => Some(JobStatus::Degraded),
            "failed" => Some(JobStatus::Failed),
            _ => None,
        }
    }
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What one attempt of one job produced.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AttemptOutcome {
    /// The simulation ran to completion.
    Success,
    /// A typed simulation error (fatal fault, invalid config, …).
    Fault(String),
    /// The watchdog expired the attempt's wall-clock deadline.
    DeadlineExceeded,
    /// The campaign was cancelled while the attempt ran.
    Cancelled,
    /// The attempt panicked; the payload is the panic message.
    Panic(String),
}

impl AttemptOutcome {
    fn to_value(&self) -> Value {
        let (kind, detail) = match self {
            AttemptOutcome::Success => ("success", None),
            AttemptOutcome::Fault(msg) => ("fault", Some(msg.clone())),
            AttemptOutcome::DeadlineExceeded => ("deadline_exceeded", None),
            AttemptOutcome::Cancelled => ("cancelled", None),
            AttemptOutcome::Panic(msg) => ("panic", Some(msg.clone())),
        };
        let mut members = vec![("kind".to_string(), Value::Str(kind.into()))];
        if let Some(detail) = detail {
            members.push(("detail".to_string(), Value::Str(detail)));
        }
        Value::Obj(members)
    }

    fn from_value(value: &Value) -> Option<AttemptOutcome> {
        let detail = || {
            value
                .get("detail")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string()
        };
        match value.get("kind")?.as_str()? {
            "success" => Some(AttemptOutcome::Success),
            "fault" => Some(AttemptOutcome::Fault(detail())),
            "deadline_exceeded" => Some(AttemptOutcome::DeadlineExceeded),
            "cancelled" => Some(AttemptOutcome::Cancelled),
            "panic" => Some(AttemptOutcome::Panic(detail())),
            _ => None,
        }
    }
}

/// One attempt in a job's history.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AttemptRecord {
    /// 1-based attempt number within the job (across all rungs).
    pub attempt: u32,
    /// The mode this attempt ran in.
    pub mode: WrongPathMode,
    /// What happened.
    pub outcome: AttemptOutcome,
    /// Backoff slept after this attempt, in milliseconds (deterministic —
    /// see [`RetryPolicy::backoff`](crate::RetryPolicy::backoff)).
    pub backoff_ms: u64,
}

impl AttemptRecord {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("attempt".into(), Value::Int(i64::from(self.attempt))),
            ("mode".into(), Value::Str(self.mode.label().into())),
            ("outcome".into(), self.outcome.to_value()),
            (
                "backoff_ms".into(),
                Value::Int(i64::try_from(self.backoff_ms).unwrap_or(i64::MAX)),
            ),
        ])
    }

    fn from_value(value: &Value) -> Option<AttemptRecord> {
        Some(AttemptRecord {
            attempt: u32::try_from(value.get("attempt")?.as_int()?).ok()?,
            mode: mode_from_label(value.get("mode")?.as_str()?)?,
            outcome: AttemptOutcome::from_value(value.get("outcome")?)?,
            backoff_ms: u64::try_from(value.get("backoff_ms")?.as_int()?).ok()?,
        })
    }
}

/// The deterministic slice of a [`SimResult`] persisted in the manifest.
///
/// Wall-clock time is deliberately excluded: manifests must be
/// byte-identical across runs and worker counts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct JobSummary {
    /// Correct-path instructions retired.
    pub instructions: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Wrong-path instructions injected into the pipeline.
    pub wrong_path_instructions: u64,
    /// Final architectural state digest.
    pub state_digest: u64,
}

impl JobSummary {
    /// Extracts the deterministic slice of a full result.
    #[must_use]
    pub fn of(result: &SimResult) -> JobSummary {
        JobSummary {
            instructions: result.instructions,
            cycles: result.cycles,
            wrong_path_instructions: result.wrong_path_instructions,
            state_digest: result.state_digest,
        }
    }

    /// Projected performance, instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    fn to_value(self) -> Value {
        Value::Obj(vec![
            ("instructions".into(), int_value(self.instructions)),
            ("cycles".into(), int_value(self.cycles)),
            (
                "wrong_path_instructions".into(),
                int_value(self.wrong_path_instructions),
            ),
            (
                "state_digest".into(),
                Value::Str(format!("{:#018x}", self.state_digest)),
            ),
        ])
    }

    fn from_value(value: &Value) -> Option<JobSummary> {
        let digest = value.get("state_digest")?.as_str()?;
        Some(JobSummary {
            instructions: u64::try_from(value.get("instructions")?.as_int()?).ok()?,
            cycles: u64::try_from(value.get("cycles")?.as_int()?).ok()?,
            wrong_path_instructions: u64::try_from(value.get("wrong_path_instructions")?.as_int()?)
                .ok()?,
            state_digest: u64::from_str_radix(digest.strip_prefix("0x")?, 16).ok()?,
        })
    }
}

fn int_value(v: u64) -> Value {
    Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// Host-side timing breakdown of one job, recorded only when campaign
/// telemetry is enabled ([`TelemetryConfig`](crate::TelemetryConfig)).
///
/// Wall-clock values vary run to run, so the `timing` key is written to
/// the manifest only when present — with telemetry off (the default) the
/// manifest stays byte-identical to one written before this field existed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct JobTiming {
    /// From worker-pool start to this job's dequeue, in milliseconds.
    pub queue_wait_ms: u64,
    /// Total job wall time across all attempts, rungs, and backoff sleeps.
    pub run_ms: u64,
    /// Wall time of the successful simulation run alone (`0` for failed
    /// jobs).
    pub sim_wall_ms: u64,
}

impl JobTiming {
    fn to_value(self) -> Value {
        Value::Obj(vec![
            ("queue_wait_ms".into(), int_value(self.queue_wait_ms)),
            ("run_ms".into(), int_value(self.run_ms)),
            ("sim_wall_ms".into(), int_value(self.sim_wall_ms)),
        ])
    }

    fn from_value(value: &Value) -> Option<JobTiming> {
        Some(JobTiming {
            queue_wait_ms: u64::try_from(value.get("queue_wait_ms")?.as_int()?).ok()?,
            run_ms: u64::try_from(value.get("run_ms")?.as_int()?).ok()?,
            sim_wall_ms: u64::try_from(value.get("sim_wall_ms")?.as_int()?).ok()?,
        })
    }
}

/// Everything the campaign recorded about one job: final status, the full
/// attempt history, and (on success) the result summary.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// The job id.
    pub id: String,
    /// The mode the job asked for.
    pub requested_mode: WrongPathMode,
    /// The mode it last ran in (differs from `requested_mode` iff the job
    /// degraded).
    pub final_mode: WrongPathMode,
    /// Terminal status.
    pub status: JobStatus,
    /// Every attempt, in order, across all degradation rungs.
    pub attempts: Vec<AttemptRecord>,
    /// Deterministic result summary (successful jobs only).
    pub summary: Option<JobSummary>,
    /// Host-side timing breakdown; `Some` only when the campaign ran with
    /// telemetry enabled.
    pub timing: Option<JobTiming>,
    /// Per-job CPI stack of the successful run; `Some` only when the
    /// campaign ran with telemetry enabled (`FFSIM_OBS`). Deterministic
    /// (simulated cycles), but opt-in like `timing` so default manifests
    /// keep their pre-CPI shape.
    pub cpi: Option<CpiStack>,
    /// Whether this record was served from the content-addressed result
    /// cache instead of a fresh simulation. Serialized (as
    /// `"cached": true`) only when set, so campaigns without a cache
    /// keep their pre-cache manifest shape. The deterministic report
    /// ignores it; the cache appendix lists it.
    pub cached: bool,
    /// The full in-memory result of the successful run. Not serialized —
    /// a resumed campaign has only the [`JobSummary`].
    pub sim: Option<SimResult>,
}

impl JobRecord {
    /// Serializes the persistent slice (everything but [`JobRecord::sim`]).
    /// The `timing` and `cpi` keys are emitted only when present, so
    /// manifests written without telemetry are byte-identical to ones
    /// written before those fields existed.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let mut members = vec![
            ("id".to_string(), Value::Str(self.id.clone())),
            (
                "requested_mode".into(),
                Value::Str(self.requested_mode.label().into()),
            ),
            (
                "final_mode".into(),
                Value::Str(self.final_mode.label().into()),
            ),
            ("status".into(), Value::Str(self.status.label().into())),
            (
                "attempts".into(),
                Value::Arr(self.attempts.iter().map(AttemptRecord::to_value).collect()),
            ),
            (
                "summary".into(),
                self.summary.map_or(Value::Null, JobSummary::to_value),
            ),
        ];
        if let Some(timing) = self.timing {
            members.push(("timing".into(), timing.to_value()));
        }
        if let Some(cpi) = self.cpi {
            members.push(("cpi".into(), cpi.to_value()));
        }
        if self.cached {
            members.push(("cached".into(), Value::Bool(true)));
        }
        Value::Obj(members)
    }

    /// Deserializes a record written by [`JobRecord::to_value`].
    #[must_use]
    pub fn from_value(value: &Value) -> Option<JobRecord> {
        let summary = match value.get("summary")? {
            Value::Null => None,
            v => Some(JobSummary::from_value(v)?),
        };
        let timing = match value.get("timing") {
            None | Some(Value::Null) => None,
            Some(v) => Some(JobTiming::from_value(v)?),
        };
        let cpi = match value.get("cpi") {
            None | Some(Value::Null) => None,
            Some(v) => Some(CpiStack::from_value(v)?),
        };
        let cached = matches!(value.get("cached"), Some(Value::Bool(true)));
        Some(JobRecord {
            id: value.get("id")?.as_str()?.to_string(),
            requested_mode: mode_from_label(value.get("requested_mode")?.as_str()?)?,
            final_mode: mode_from_label(value.get("final_mode")?.as_str()?)?,
            status: JobStatus::from_label(value.get("status")?.as_str()?)?,
            attempts: value
                .get("attempts")?
                .as_arr()?
                .iter()
                .map(AttemptRecord::from_value)
                .collect::<Option<Vec<_>>>()?,
            summary,
            timing,
            cpi,
            cached,
            sim: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_walks_to_the_bottom() {
        let mut mode = WrongPathMode::WrongPathEmulation;
        let mut rungs = vec![mode];
        while let Some(next) = ladder_next(mode) {
            mode = next;
            rungs.push(mode);
        }
        assert_eq!(
            rungs,
            vec![
                WrongPathMode::WrongPathEmulation,
                WrongPathMode::ConvergenceExploitation,
                WrongPathMode::InstructionReconstruction,
                WrongPathMode::NoWrongPath,
            ]
        );
    }

    #[test]
    fn mode_labels_round_trip() {
        for mode in WrongPathMode::ALL {
            assert_eq!(mode_from_label(mode.label()), Some(mode));
        }
        assert_eq!(mode_from_label("bogus"), None);
    }

    #[test]
    fn record_round_trips_through_json() {
        let record = JobRecord {
            id: "bfs/wpemul".into(),
            requested_mode: WrongPathMode::WrongPathEmulation,
            final_mode: WrongPathMode::ConvergenceExploitation,
            status: JobStatus::Degraded,
            attempts: vec![
                AttemptRecord {
                    attempt: 1,
                    mode: WrongPathMode::WrongPathEmulation,
                    outcome: AttemptOutcome::Fault("wrong-path fault: misaligned".into()),
                    backoff_ms: 25,
                },
                AttemptRecord {
                    attempt: 2,
                    mode: WrongPathMode::ConvergenceExploitation,
                    outcome: AttemptOutcome::Success,
                    backoff_ms: 0,
                },
            ],
            summary: Some(JobSummary {
                instructions: 1000,
                cycles: 2500,
                wrong_path_instructions: 123,
                state_digest: 0xdead_beef_0123_4567,
            }),
            timing: Some(JobTiming {
                queue_wait_ms: 12,
                run_ms: 345,
                sim_wall_ms: 330,
            }),
            cpi: Some({
                let mut stack = CpiStack::new();
                stack.add(ffsim_core::StallClass::Base, false, 2000);
                stack.add(ffsim_core::StallClass::WrongPathFetch, true, 500);
                stack
            }),
            cached: false,
            sim: None,
        };
        let json = record.to_value().to_json();
        let parsed = JobRecord::from_value(&crate::json::parse(&json).unwrap()).unwrap();
        assert_eq!(parsed.id, record.id);
        assert_eq!(parsed.requested_mode, record.requested_mode);
        assert_eq!(parsed.final_mode, record.final_mode);
        assert_eq!(parsed.status, record.status);
        assert_eq!(parsed.attempts, record.attempts);
        assert_eq!(parsed.summary, record.summary);
        assert_eq!(parsed.timing, record.timing);
        assert_eq!(parsed.cpi, record.cpi);
    }

    #[test]
    fn timing_key_is_absent_without_telemetry() {
        let record = JobRecord {
            id: "quiet".into(),
            requested_mode: WrongPathMode::NoWrongPath,
            final_mode: WrongPathMode::NoWrongPath,
            status: JobStatus::Completed,
            attempts: vec![],
            summary: None,
            timing: None,
            cpi: None,
            cached: false,
            sim: None,
        };
        let json = record.to_value().to_json();
        assert!(
            !json.contains("timing"),
            "manifests without telemetry must not change shape"
        );
        assert!(
            !json.contains("cpi"),
            "manifests without telemetry must not change shape"
        );
        let parsed = JobRecord::from_value(&crate::json::parse(&json).unwrap()).unwrap();
        assert_eq!(parsed.timing, None);
        assert_eq!(parsed.cpi, None);
    }

    #[test]
    fn failed_record_has_null_summary() {
        let record = JobRecord {
            id: "x".into(),
            requested_mode: WrongPathMode::NoWrongPath,
            final_mode: WrongPathMode::NoWrongPath,
            status: JobStatus::Failed,
            attempts: vec![],
            summary: None,
            timing: None,
            cpi: None,
            cached: false,
            sim: None,
        };
        let json = record.to_value().to_json();
        let parsed = JobRecord::from_value(&crate::json::parse(&json).unwrap()).unwrap();
        assert!(parsed.summary.is_none());
        assert_eq!(parsed.status, JobStatus::Failed);
    }
}
