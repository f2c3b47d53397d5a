//! End-to-end tests for crash-consistent campaigns over one manifest
//! file and the content-addressed result cache: interrupted campaigns
//! resume to byte-identical reports, injected persistence faults never
//! lose a committed result, and identical campaign re-runs are served
//! entirely from the cache.

use ffsim_core::{SimError, WrongPathMode};
use ffsim_driver::{
    manifest::ManifestIo, report, Campaign, CampaignConfig, Job, RetryPolicy, SharedIo, WorkloadFn,
    MAX_WORKERS,
};
use ffsim_emu::Memory;
use ffsim_isa::{Asm, Program, Reg};
use ffsim_uarch::CoreConfig;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Long enough that a mid-campaign cancel lands while jobs are in flight,
/// short enough for fast tests.
const TRIPS: i64 = 2_000;

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

/// Eight deterministic jobs spread across modes and two workloads.
fn jobs() -> Vec<Job> {
    let core = CoreConfig::tiny_for_tests();
    let mut jobs = Vec::new();
    for mode in WrongPathMode::ALL {
        jobs.push(
            Job::new(format!("countdown-a/{mode}"), mode, workload(TRIPS)).with_core(core.clone()),
        );
        jobs.push(
            Job::new(format!("countdown-b/{mode}"), mode, workload(TRIPS / 2))
                .with_core(core.clone()),
        );
    }
    jobs
}

fn fast_config(dir: &Path) -> CampaignConfig {
    CampaignConfig {
        workers: 2,
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        },
        default_timeout: Some(Duration::from_secs(60)),
        manifest_path: Some(dir.join("manifest.json")),
        telemetry: ffsim_driver::TelemetryConfig::default(),
        ..CampaignConfig::default()
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// Runs the campaign until every job has a record, tolerating
/// cancellation; returns the final outcome.
fn run_to_completion(cfg: &CampaignConfig) -> ffsim_driver::CampaignOutcome {
    for _ in 0..20 {
        let outcome = Campaign::new(cfg.clone())
            .run(jobs())
            .expect("campaign runs");
        if outcome.records.len() == jobs().len() {
            return outcome;
        }
    }
    panic!("campaign failed to finish in 20 resumes");
}

#[test]
fn config_validation_boundaries() {
    let base = CampaignConfig::default();
    assert!(base.validate().is_ok());

    let max_workers = CampaignConfig {
        workers: MAX_WORKERS,
        ..base.clone()
    };
    assert!(max_workers.validate().is_ok());

    let absurd_workers = CampaignConfig {
        workers: MAX_WORKERS + 1,
        ..base
    };
    assert!(matches!(
        absurd_workers.validate(),
        Err(SimError::InvalidConfig(_))
    ));

    // run() fails fast on the same validation, before any job executes.
    let err = Campaign::new(absurd_workers)
        .run(jobs())
        .expect_err("invalid config rejected");
    assert!(err.contains("worker count"), "{err}");
}

/// The stress test: whatever the worker count and wherever a cancel
/// lands mid-campaign, resuming always converges to a merged report
/// byte-identical to an uninterrupted run's.
#[test]
fn interrupted_campaigns_resume_to_identical_reports() {
    let clean_dir = tmp_dir("resume-stress-clean");
    let clean_cfg = fast_config(&clean_dir);
    let clean = run_to_completion(&clean_cfg);
    assert!(clean.quarantines.is_empty());
    let golden = report::render(&clean.records);

    for workers in [1, 4] {
        for delay_ms in [0u64, 5, 25] {
            let dir = tmp_dir(&format!("resume-stress-{workers}w-{delay_ms}ms"));
            let cfg = CampaignConfig {
                workers,
                ..fast_config(&dir)
            };

            // Interrupt the first run: fire the campaign token from a
            // second thread, like a SIGTERM handler would.
            let campaign = Campaign::new(cfg.clone());
            let token = campaign.cancel_token();
            let canceller = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(delay_ms));
                token.cancel();
            });
            let interrupted = campaign.run(jobs()).expect("interrupted run returns");
            canceller.join().expect("canceller joins");
            assert!(interrupted.records.len() <= jobs().len());

            let resumed = run_to_completion(&cfg);
            assert!(resumed.quarantines.is_empty());
            assert_eq!(
                report::render(&resumed.records),
                golden,
                "workers={workers} delay={delay_ms}ms"
            );
        }
    }
}

/// Fails every write after the first `allow` successful ones — a disk
/// going bad partway through a campaign.
#[derive(Debug)]
struct FailAfter {
    allow: usize,
}

impl ManifestIo for FailAfter {
    fn write(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        if self.allow == 0 {
            return Err(std::io::Error::other("disk failed (injected)"));
        }
        self.allow -= 1;
        std::fs::write(path, bytes)
    }

    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::rename(from, to)
    }
}

#[test]
fn mid_campaign_persistence_fault_loses_no_committed_result() {
    let dir = tmp_dir("manifest-io-fault");
    let faulty_cfg = CampaignConfig {
        workers: 1, // deterministic commit order for the fault schedule
        io: SharedIo::new(FailAfter { allow: 3 }),
        ..fast_config(&dir)
    };

    // The campaign stops at the first persist failure rather than running
    // on with silently lost resume coverage.
    let err = Campaign::new(faulty_cfg)
        .run(jobs())
        .expect_err("persist failure surfaces");
    assert!(err.contains("injected"), "{err}");

    // Every result committed before the fault survives; the resumed
    // campaign re-runs only the rest and converges to the clean report.
    let cfg = fast_config(&dir);
    let resumed = Campaign::new(cfg.clone()).run(jobs()).expect("resume runs");
    assert!(resumed.quarantines.is_empty(), "the manifest was not torn");
    assert_eq!(resumed.resumed, 3, "all three committed results survive");

    let final_outcome = run_to_completion(&cfg);
    let clean_dir = tmp_dir("manifest-io-fault-clean");
    let clean = run_to_completion(&fast_config(&clean_dir));
    assert_eq!(
        report::render(&final_outcome.records),
        report::render(&clean.records)
    );
}

#[test]
fn identical_campaign_reruns_entirely_from_cache() {
    let dir = tmp_dir("cache-rerun");
    let cache_dir = dir.join("cache");
    let first_cfg = CampaignConfig {
        manifest_path: Some(dir.join("m1.json")),
        cache_dir: Some(cache_dir.clone()),
        ..fast_config(&dir)
    };
    let first = Campaign::new(first_cfg).run(jobs()).expect("first run");
    assert_eq!(first.records.len(), jobs().len());
    assert_eq!(first.cache_hits, 0);
    assert_eq!(first.cache_misses, jobs().len());
    assert!(first.records.values().all(|r| !r.cached));

    // Same campaign, fresh manifest: every job is served from the cache
    // and the deterministic report is byte-identical.
    let second_cfg = CampaignConfig {
        manifest_path: Some(dir.join("m2.json")),
        cache_dir: Some(cache_dir.clone()),
        ..fast_config(&dir)
    };
    let second = Campaign::new(second_cfg).run(jobs()).expect("second run");
    assert_eq!(second.cache_hits, jobs().len(), "100% cache hits");
    assert_eq!(second.cache_misses, 0);
    assert!(second.records.values().all(|r| r.cached));
    assert_eq!(
        report::render(&second.records),
        report::render(&first.records),
        "cached results render byte-identically"
    );
    // Cache provenance is visible in the appendix, not the report body.
    assert!(!report::render_cache(&second.records).is_empty());
    assert!(report::render_cache(&first.records).is_empty());

    // A different workload is a different content address: nothing from
    // this cache leaks into it.
    let other_cfg = CampaignConfig {
        manifest_path: Some(dir.join("m3.json")),
        cache_dir: Some(cache_dir),
        ..fast_config(&dir)
    };
    let other_jobs: Vec<Job> = vec![Job::new(
        "countdown-a/nowp", // same id as a cached job, different program
        WrongPathMode::NoWrongPath,
        workload(TRIPS * 3),
    )
    .with_core(CoreConfig::tiny_for_tests())];
    let other = Campaign::new(other_cfg).run(other_jobs).expect("third run");
    assert_eq!(other.cache_hits, 0, "different workload digest must miss");
}

#[test]
fn corrupt_cache_entry_is_evicted_and_recomputed() {
    let dir = tmp_dir("cache-corrupt");
    let cache_dir = dir.join("cache");
    let first_cfg = CampaignConfig {
        manifest_path: Some(dir.join("m1.json")),
        cache_dir: Some(cache_dir.clone()),
        ..fast_config(&dir)
    };
    Campaign::new(first_cfg).run(jobs()).expect("first run");

    // Corrupt one cache entry by truncation.
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&cache_dir)
        .expect("cache dir exists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    assert_eq!(entries.len(), jobs().len(), "one entry per job");
    let victim = &entries[0];
    let healthy = std::fs::read_to_string(victim).expect("entry readable");
    std::fs::write(victim, &healthy[..healthy.len() / 2]).expect("truncate entry");

    let second_cfg = CampaignConfig {
        manifest_path: Some(dir.join("m2.json")),
        cache_dir: Some(cache_dir.clone()),
        ..fast_config(&dir)
    };
    let second = Campaign::new(second_cfg).run(jobs()).expect("second run");
    assert_eq!(second.cache_hits, jobs().len() - 1);
    assert_eq!(second.cache_misses, 1, "corrupt entry evicted, not served");
    assert_eq!(second.records.len(), jobs().len());

    // The recomputed entry replaced the corrupt one: a third run is all
    // hits again.
    let third_cfg = CampaignConfig {
        manifest_path: Some(dir.join("m3.json")),
        cache_dir: Some(cache_dir),
        ..fast_config(&dir)
    };
    let third = Campaign::new(third_cfg).run(jobs()).expect("third run");
    assert_eq!(third.cache_hits, jobs().len());
}

/// The manifest and the cache compose: an interrupted cached campaign
/// resumes cleanly, and every job committed before the kill is a cache
/// hit for an identical later campaign (the cache is written *before*
/// the manifest commit).
#[test]
fn committed_jobs_are_always_cache_hits_after_interruption() {
    let dir = tmp_dir("cache-interrupt");
    let cache_dir = dir.join("cache");
    let cfg = CampaignConfig {
        cache_dir: Some(cache_dir.clone()),
        ..fast_config(&dir)
    };

    let campaign = Campaign::new(cfg.clone());
    let token = campaign.cancel_token();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(10));
        token.cancel();
    });
    let interrupted = campaign.run(jobs()).expect("interrupted run returns");
    canceller.join().expect("canceller joins");
    let committed: BTreeMap<String, bool> = interrupted
        .records
        .iter()
        .map(|(id, r)| (id.clone(), r.cached))
        .collect();

    run_to_completion(&cfg);

    // Fresh manifest, same cache: every job hits.
    let rerun_cfg = CampaignConfig {
        manifest_path: Some(dir.join("m2.json")),
        cache_dir: Some(cache_dir),
        ..fast_config(&dir)
    };
    let rerun = Campaign::new(rerun_cfg).run(jobs()).expect("rerun");
    assert_eq!(
        rerun.cache_hits,
        jobs().len(),
        "every committed job (incl. pre-kill: {committed:?}) must hit"
    );
}
