//! The campaign workload: every SPEC-like kernel under every technique
//! as jobs of [`Campaign::run`] with two workers, a single-file manifest
//! and a content-addressed result cache. Each round makes a cold pass
//! (every job simulates, fills the cache and saves the manifest) and a
//! warm pass (a fresh manifest over the same cache: every job is a hit),
//! in a fresh directory under the working directory.

use crate::calib::{speed_scale, Calibration};
use crate::check::{Checker, Pinned};
use crate::sim::{
    fingerprint, host_speed_note, kernels, simulated_samples, timed_setup, Pacer, RepTimes,
};
use crate::spec::{labels, Scale, Workload};
use crate::{ratio, Outcome};
use ffsim_core::{ObsConfig, SimConfig, SimResult, WrongPathMode};
use ffsim_driver::{
    Campaign, CampaignConfig, CampaignOutcome, ConfigTweak, Job, JobRecord, JobStatus, RetryPolicy,
    SharedIo, TelemetryConfig,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Campaign worker threads (the benchmark host has two cores).
const WORKERS: usize = 2;

/// One job and the kernel × technique it simulates.
struct Point {
    kernel: String,
    kernel_index: usize,
    technique: usize,
    job: Job,
}

fn points(seed: u64, scale: &Scale) -> Vec<Point> {
    let obs_off: ConfigTweak = Arc::new(|cfg: &mut SimConfig| cfg.obs = ObsConfig::disabled());
    let mut points = Vec::new();
    for (kernel_index, kernel) in kernels(Workload::Campaign, seed, scale).iter().enumerate() {
        let workload = ffsim_bench::workload_fn(kernel);
        for (technique, mode) in WrongPathMode::ALL.into_iter().enumerate() {
            let id = format!("{}/{}", kernel.name(), mode.label());
            let job = Job::new(id, mode, Arc::clone(&workload))
                .with_max_instructions(scale.campaign_budget)
                .with_max_attempts(1)
                .no_degradation()
                .with_tweak(Arc::clone(&obs_off));
            points.push(Point {
                kernel: kernel.name().to_string(),
                kernel_index,
                technique,
                job,
            });
        }
    }
    points
}

fn campaign(manifest: PathBuf, cache: &Path) -> Campaign {
    Campaign::new(CampaignConfig {
        workers: WORKERS,
        retry: RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        },
        default_timeout: Some(Duration::from_secs(120)),
        manifest_path: Some(manifest),
        shards: None,
        cache_dir: Some(cache.to_path_buf()),
        io: SharedIo::default(),
        telemetry: TelemetryConfig::default(),
    })
}

/// Where campaign runs keep their stores: under the working directory,
/// not the system temporary directory, so that a run writes nothing
/// outside the tree it runs in.
const SCRATCH: &str = ".ffbench_tmp";

/// A directory of this run's own under [`SCRATCH`].
fn scratch_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(SCRATCH).join(format!("campaign-{}-{n}", std::process::id()))
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

/// Runs one pass of the campaign workload.
pub fn run(seed: u64, seconds: Duration, traced: bool, scale: &Scale) -> Outcome {
    let mut out = Outcome::default();
    let mut cal = Calibration::default();
    let points = if traced {
        points(seed, scale)
    } else {
        timed_setup(&mut out, scale, &mut cal, || points(seed, scale))
    };
    let jobs: Vec<Job> = points.iter().map(|p| p.job.clone()).collect();
    let mut checker = Checker::new(Workload::Campaign, seed, scale.pinned);
    let mut probes = Vec::new();
    let base = scratch_dir();
    let mut pacer = Pacer::new(scale.min_rounds, seconds);
    while pacer.next() {
        let round = pacer.started() - 1;
        crate::reset_peak_rss();
        let dir = base.join(format!("round-{round}"));
        match std::fs::create_dir_all(&dir) {
            Ok(()) => {
                let pass = Pass {
                    points: &points,
                    jobs: &jobs,
                    dir: &dir,
                    round,
                };
                let (before, after) = pass.run(&mut cal, &mut checker, &mut out);
                probes.extend([before, after]);
            }
            Err(e) => {
                for _ in 0..2 * jobs.len() {
                    out.op(Some(format!("creating {}: {e}", dir.display())));
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        if !traced {
            crate::sample_peak_rss(&mut out);
        }
    }
    let _ = std::fs::remove_dir_all(&base);
    // Fails, leaving the shared parent, while another run still uses it.
    let _ = std::fs::remove_dir(SCRATCH);
    out.reps = pacer.started();
    out.note(checker.report_mismatch());
    out.note(Some(host_speed_note(&probes)));
    out
}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64(), value)
}

fn summary_pinned(record: &JobRecord) -> Option<Pinned> {
    record.summary.map(|s| Pinned {
        instructions: s.instructions,
        cycles: s.cycles,
        wrong_path: s.wrong_path_instructions,
        digest: s.state_digest,
    })
}

/// The full result of a freshly simulated job, or why there is none.
fn cold_result(record: Option<&JobRecord>) -> Result<(Pinned, &SimResult), String> {
    let record = record.ok_or("no record")?;
    if record.status != JobStatus::Completed || record.cached {
        return Err(format!(
            "cold pass: status {}, cached {}",
            record.status.label(),
            record.cached
        ));
    }
    let sim = record.sim.as_ref().ok_or("cold pass: no result")?;
    Ok((summary_pinned(record).ok_or("cold pass: no summary")?, sim))
}

fn warm_failure(cold: Option<&JobRecord>, warm: Option<&JobRecord>) -> Option<String> {
    let Some(warm) = warm else {
        return Some("warm pass: no record".into());
    };
    if warm.status != JobStatus::Completed || !warm.cached {
        return Some(format!(
            "warm pass: status {}, cached {}",
            warm.status.label(),
            warm.cached
        ));
    }
    (summary_pinned(warm) != cold.and_then(summary_pinned))
        .then(|| "warm pass: cached summary differs from the cold pass".into())
}

/// A pass's records, or no records and the campaign's error.
fn records<'a>(
    pass: &'a Result<CampaignOutcome, String>,
    none: &'a BTreeMap<String, JobRecord>,
) -> (&'a BTreeMap<String, JobRecord>, Option<String>) {
    match pass {
        Ok(o) => (&o.records, None),
        Err(e) => (none, Some(e.clone())),
    }
}

/// One cold + warm round in its own directory.
struct Pass<'a> {
    points: &'a [Point],
    jobs: &'a [Job],
    dir: &'a Path,
    round: usize,
}

impl Pass<'_> {
    /// Runs the round; the host-speed probes taken before and after its
    /// cold pass, which scale the cold pass's timings.
    fn run(&self, cal: &mut Calibration, checker: &mut Checker, out: &mut Outcome) -> (f64, f64) {
        let cache = self.dir.join("cache");
        let manifest = self.dir.join("cold.json");
        let jobs = || self.jobs.to_vec();
        let before = cal.probe();
        let (cold_s, cold) = timed(|| campaign(manifest.clone(), &cache).run(jobs()));
        let after = cal.probe();
        let speed = speed_scale(&[before, after]);
        let (warm_s, warm) = timed(|| campaign(self.dir.join("warm.json"), &cache).run(jobs()));
        let none = BTreeMap::new();
        let (cold_records, cold_err) = records(&cold, &none);
        let (warm_records, warm_err) = records(&warm, &none);

        let labels = labels();
        let mut results: Vec<[Option<SimResult>; 4]> =
            vec![Default::default(); self.points.len() / 4];
        let mut times = RepTimes::default();
        for p in self.points {
            let label = labels[p.technique];
            let cold = cold_records.get(&p.job.id);
            let view = match (&cold_err, cold_result(cold)) {
                (Some(e), _) => Err(e.clone()),
                (None, Ok((pinned, sim))) => {
                    let ns = sim.wall_time.as_nanos() as f64;
                    times.add(p.technique, ns * speed, sim.instructions);
                    results[p.kernel_index][p.technique].get_or_insert_with(|| sim.clone());
                    Ok((pinned, fingerprint(sim)))
                }
                (None, Err(e)) => Err(e),
            };
            checker.op(out, &p.kernel, label, view);
            let warm_failure = match &warm_err {
                Some(e) => Some(e.clone()),
                None => warm_failure(cold, warm_records.get(&p.job.id)),
            };
            out.op(warm_failure.map(|e| format!("{} {label}: {e}", p.kernel)));
        }

        let jobs_n = self.jobs.len() as f64;
        let completed = results.iter().flatten().flatten().count() as f64;
        out.sample("jobs_per_s", ratio(completed, cold_s * speed));
        times.sample(out);
        for (m, label) in labels.iter().enumerate().skip(1) {
            out.sample(
                format!("slowdown.{label}"),
                ratio(times.ns_per_instr(m), times.ns_per_instr(0)),
            );
        }
        // Per-layer timings are plain host time: undo the jobs' scaling.
        out.sample(
            "driver.cold_overhead_ms_per_job",
            ratio(
                (WORKERS as f64 * cold_s - times.total_ns() / speed / 1e9) * 1000.0,
                jobs_n,
            ),
        );
        out.sample("driver.warm_ms_per_job", ratio(warm_s * 1000.0, jobs_n));
        if self.round == 0 {
            let manifest_bytes = std::fs::metadata(&manifest).map_or(0, |m| m.len());
            out.sample("driver.manifest_bytes", manifest_bytes as f64);
            out.sample("driver.cache_bytes", dir_bytes(&cache) as f64);
            simulated_samples(&results, out);
        }
        (before, after)
    }
}
