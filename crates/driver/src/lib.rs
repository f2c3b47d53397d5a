//! # ffsim-driver — supervised simulation campaigns
//!
//! Research simulators run in *campaigns*: many workloads × many
//! configurations, often overnight. One hung configuration, one panic in
//! an experimental code path, or one fault under aggressive injection
//! settings must not take down the other several hundred jobs. This crate
//! is the supervision layer that makes campaigns over
//! [`ffsim-core`](../ffsim_core/index.html) robust:
//!
//! - a parallel worker pool executing [`Job`]s,
//! - per-attempt **panic isolation** (`catch_unwind`),
//! - cooperative **wall-clock deadlines** enforced by a [`Watchdog`]
//!   thread through [`CancelToken`]s — hung simulations surface as
//!   [`SimError::DeadlineExceeded`](ffsim_core::SimError), they are never
//!   thread-killed,
//! - bounded **retry** with deterministic exponential backoff
//!   ([`RetryPolicy`]),
//! - a **graceful-degradation ladder** for wrong-path modeling: jobs that
//!   persistently fail under full wrong-path emulation retry under
//!   progressively simpler techniques (`wpemul → conv → instrec → nowp`),
//!   with every rung recorded,
//! - an incrementally persisted, checksum-sealed JSON **manifest**
//!   ([`ManifestStore`]) for crash-safe resume: a damaged manifest is
//!   quarantined and its jobs re-run,
//! - a **content-addressed result cache** ([`CacheStore`]) keyed by
//!   (workload digest, config digest): identical campaign points are
//!   served from the cache without simulating, and corrupt entries are
//!   evicted and recomputed, never served,
//! - a durable multi-campaign **job queue** ([`JobQueue`]): a journal,
//!   one FIFO of pending jobs, leases, and poison-job quarantine,
//! - byte-**deterministic** reports and manifests, independent of worker
//!   count and scheduling.
//!
//! # Examples
//!
//! ```
//! use ffsim_driver::{Campaign, CampaignConfig, Job};
//! use ffsim_core::WrongPathMode;
//! use ffsim_emu::Memory;
//! use ffsim_isa::{Asm, Reg};
//! use ffsim_uarch::CoreConfig;
//! use std::sync::Arc;
//!
//! let workload: ffsim_driver::WorkloadFn = Arc::new(|| {
//!     let mut a = Asm::new();
//!     a.li(Reg::new(1), 100);
//!     a.label("loop");
//!     a.addi(Reg::new(1), Reg::new(1), -1);
//!     a.bnez(Reg::new(1), "loop");
//!     a.halt();
//!     Ok((a.assemble()?, Memory::new()))
//! });
//!
//! let jobs = WrongPathMode::ALL
//!     .into_iter()
//!     .map(|mode| {
//!         Job::new(format!("countdown/{mode}"), mode, workload.clone())
//!             .with_core(CoreConfig::tiny_for_tests())
//!     })
//!     .collect();
//!
//! let outcome = Campaign::new(CampaignConfig::default()).run(jobs)?;
//! assert_eq!(outcome.records.len(), 4);
//! println!("{}", ffsim_driver::report::render(&outcome.records));
//! # Ok::<(), String>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
mod campaign;
pub use ffsim_isa::fnv;
pub mod hostobs;
mod job;
pub mod manifest;
pub mod queue;
pub mod report;
mod retry;
mod telemetry;
mod watchdog;

pub use cache::{CacheKey, CacheStore, Lookup};
pub use campaign::{
    validate_worker_count, Campaign, CampaignConfig, CampaignOutcome, SharedIo, MAX_WORKERS,
};
pub use ffsim_core::{CancelCause, CancelToken};
pub use ffsim_obs::json;
pub use job::{
    ladder_next, mode_from_label, AttemptOutcome, AttemptRecord, ConfigTweak, Job, JobRecord,
    JobStatus, JobSummary, JobTiming, WorkloadFn,
};
pub use manifest::{FaultyIo, ManifestError, ManifestIo, ManifestStore, Quarantine, RealIo};
pub use queue::{
    DefaultRunner, DrainOutcome, Enqueued, JobQueue, JobRunner, PoisonJob, QueueConfig, QueueError,
    QueueStats, Recovery, RunContext, QUEUE_VERSION,
};
pub use retry::RetryPolicy;
pub use telemetry::{Heartbeat, QueueGauges, Telemetry, TelemetryConfig};
pub use watchdog::{WatchGuard, Watchdog};
