//! Deterministic campaign reports.
//!
//! The report contains no wall-clock values and is sorted by job id, so
//! the same campaign renders byte-identically whatever the worker count,
//! scheduling, or resume history.

use crate::job::{AttemptOutcome, JobRecord, JobStatus};
use crate::manifest::Quarantine;
use crate::queue::PoisonJob;
use ffsim_core::StallClass;
use ffsim_obs::hist::Log2Hist;
use ffsim_obs::{Phase, PhaseProfiler};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders the manifest-quarantine banner: one line per damaged file.
/// Empty (so clean runs stay byte-identical to their golden copies) when
/// nothing was quarantined.
#[must_use]
pub fn render_quarantines(quarantines: &[Quarantine]) -> String {
    if quarantines.is_empty() {
        return String::new();
    }
    let mut out = String::from("\nmanifest recovery\n\n");
    for quarantine in quarantines {
        let _ = writeln!(out, "  {quarantine}");
    }
    out
}

/// Renders the cache appendix: one line per job served from the
/// content-addressed result cache. Empty when no job was, so uncached
/// campaigns render byte-identically to their pre-cache goldens.
#[must_use]
pub fn render_cache(records: &BTreeMap<String, JobRecord>) -> String {
    let cached: Vec<&JobRecord> = records.values().filter(|r| r.cached).collect();
    if cached.is_empty() {
        return String::new();
    }
    let mut out = String::from("\nresult cache\n\n");
    for record in cached {
        let _ = writeln!(out, "  {}: served from cache", record.id);
    }
    out
}

/// Renders the poison-job appendix: one line per job the durable queue
/// quarantined after repeated identical failures, id-sorted. Empty when
/// nothing was quarantined, so healthy campaigns keep their byte layout.
///
/// Unlike the timing appendices this section IS part of the
/// deterministic report artifact: which jobs poisoned, how often, and
/// with what error is a property of the enqueue sequence, not of
/// scheduling.
#[must_use]
pub fn render_poison(poison: &[PoisonJob]) -> String {
    if poison.is_empty() {
        return String::new();
    }
    let mut out = String::from("\npoison jobs (quarantined by the queue)\n\n");
    for job in poison {
        let _ = writeln!(
            out,
            "  {} [{}]: {} identical failures, last: {}",
            job.id, job.campaign, job.failures, job.error
        );
    }
    out
}

/// Renders the per-campaign queue-wait appendix: one row per campaign
/// with the distribution of enqueue-to-lease waits in milliseconds,
/// followed by a distinct admission-quota section listing every campaign
/// whose submits were rejected by a per-campaign quota (so backpressure
/// from quotas is never conflated with global saturation). Returns the
/// empty string when no job was leased and nothing was rejected.
///
/// Wall-clock waits vary run to run, so like [`render_timing`] this
/// table is for stderr and interactive use only — never for the
/// deterministic report artifact.
#[must_use]
pub fn render_queue_waits(
    waits: &BTreeMap<String, Log2Hist>,
    quota_rejections: &BTreeMap<String, u64>,
) -> String {
    let pct = |p: Option<u64>| -> String { p.map_or_else(|| "-".into(), |v| v.to_string()) };
    let rows: Vec<Vec<String>> = waits
        .iter()
        .filter(|(_, h)| h.count() > 0)
        .map(|(campaign, h)| {
            vec![
                campaign.clone(),
                h.count().to_string(),
                h.min().map_or_else(|| "-".into(), |v| v.to_string()),
                format!("{:.1}", h.mean()),
                pct(h.p50()),
                pct(h.p90()),
                pct(h.p99()),
                h.max().map_or_else(|| "-".into(), |v| v.to_string()),
            ]
        })
        .collect();
    let rejected: Vec<(&String, &u64)> = quota_rejections.iter().filter(|(_, &n)| n > 0).collect();
    if rows.is_empty() && rejected.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    if !rows.is_empty() {
        out.push_str("queue waits per campaign (host wall clock, ms)\n\n");
        out.push_str(&table(
            &[
                "campaign", "leases", "min", "mean", "p50", "p90", "p99", "max",
            ],
            &rows,
        ));
    }
    if !rejected.is_empty() {
        out.push_str("\nadmission-quota rejections (per-campaign, not global saturation)\n\n");
        for (campaign, n) in rejected {
            let _ = writeln!(out, "  {campaign}: {n} submit(s) rejected by quota");
        }
    }
    out
}

/// Renders the host-phase profile appendix: one row per phase with
/// attributed time, sorted hottest-first, plus the telescoping summary
/// (wall time, attributed share). Returns the empty string when nothing
/// was attributed (profiling off, or an inert profiler).
///
/// Host time varies run to run, so like [`render_timing`] this appendix
/// is for stderr and interactive use only — never for the deterministic
/// report artifact.
#[must_use]
pub fn render_profile(prof: &PhaseProfiler) -> String {
    let mut phases: Vec<(String, &ffsim_obs::PhaseAgg)> = Phase::ALL
        .iter()
        .map(|&p| (prof.phase_label(p), prof.phase_agg(p)))
        .filter(|(_, agg)| agg.count > 0)
        .collect();
    if phases.is_empty() {
        return String::new();
    }
    phases.sort_by(|(la, a), (lb, b)| b.total_ns.cmp(&a.total_ns).then_with(|| la.cmp(lb)));
    let attributed = prof.attributed_ns().max(1);
    let rows: Vec<Vec<String>> = phases
        .iter()
        .map(|(label, agg)| {
            vec![
                label.clone(),
                agg.count.to_string(),
                format!("{:.2}", agg.total_ns as f64 / 1e6),
                format!("{:.1}", agg.total_ns as f64 * 100.0 / attributed as f64),
                agg.hist.p50().map_or_else(|| "-".into(), |v| v.to_string()),
                agg.hist.p99().map_or_else(|| "-".into(), |v| v.to_string()),
            ]
        })
        .collect();
    let mut out = String::from("host phase profile\n\n");
    out.push_str(&table(
        &["phase", "scopes", "total_ms", "share%", "p50_ns", "p99_ns"],
        &rows,
    ));
    if prof.wall_ns() > 0 {
        let _ = writeln!(
            out,
            "\nwall {:.2} ms, attributed {:.2} ms ({}‰ telescoped)",
            prof.wall_ns() as f64 / 1e6,
            prof.attributed_ns() as f64 / 1e6,
            prof.coverage_permille()
        );
    }
    out
}

/// Renders the campaign report: a summary table (one row per job, sorted
/// by id) followed by the attempt history of every job that needed more
/// than one attempt.
#[must_use]
pub fn render(records: &BTreeMap<String, JobRecord>) -> String {
    let rows: Vec<Vec<String>> = records
        .values()
        .map(|r| {
            let (instructions, cycles, ipc, digest) = match &r.summary {
                Some(s) => (
                    s.instructions.to_string(),
                    s.cycles.to_string(),
                    format!("{:.3}", s.ipc()),
                    format!("{:#018x}", s.state_digest),
                ),
                None => ("-".into(), "-".into(), "-".into(), "-".into()),
            };
            vec![
                r.id.clone(),
                r.requested_mode.label().to_string(),
                r.final_mode.label().to_string(),
                r.status.label().to_string(),
                r.attempts.len().to_string(),
                instructions,
                cycles,
                ipc,
                digest,
            ]
        })
        .collect();

    let mut out = String::from("campaign report\n\n");
    out.push_str(&table(
        &[
            "job",
            "requested",
            "final",
            "status",
            "attempts",
            "instructions",
            "cycles",
            "ipc",
            "digest",
        ],
        &rows,
    ));

    let (completed, degraded, failed) =
        records
            .values()
            .fold((0, 0, 0), |(c, d, f), r| match r.status {
                JobStatus::Completed => (c + 1, d, f),
                JobStatus::Degraded => (c, d + 1, f),
                JobStatus::Failed => (c, d, f + 1),
            });
    let _ = writeln!(
        out,
        "\n{} jobs: {completed} completed, {degraded} degraded, {failed} failed",
        records.len()
    );

    let eventful: Vec<&JobRecord> = records.values().filter(|r| r.attempts.len() > 1).collect();
    if !eventful.is_empty() {
        out.push_str("\nattempt history\n");
        for record in eventful {
            let _ = writeln!(out, "  {}:", record.id);
            for a in &record.attempts {
                let outcome = match &a.outcome {
                    AttemptOutcome::Success => "success".to_string(),
                    AttemptOutcome::Fault(msg) => format!("fault: {msg}"),
                    AttemptOutcome::DeadlineExceeded => "deadline exceeded".to_string(),
                    AttemptOutcome::Cancelled => "cancelled".to_string(),
                    AttemptOutcome::Panic(msg) => format!("panic: {msg}"),
                };
                let _ = writeln!(
                    out,
                    "    #{} [{}] {outcome} (backoff {} ms)",
                    a.attempt,
                    a.mode.label(),
                    a.backoff_ms
                );
            }
        }
    }
    out
}

/// Renders the host-side timing appendix: one row per job that carries a
/// [`JobTiming`](crate::JobTiming) record (campaigns run with telemetry
/// enabled). Returns the empty string when no record has timing.
///
/// Wall-clock values vary run to run, so this table is for stderr and
/// interactive use — it must never be written into the deterministic
/// report artifact that [`render`] produces.
#[must_use]
pub fn render_timing(records: &BTreeMap<String, JobRecord>) -> String {
    let rows: Vec<Vec<String>> = records
        .values()
        .filter_map(|r| {
            r.timing.map(|t| {
                vec![
                    r.id.clone(),
                    t.queue_wait_ms.to_string(),
                    t.run_ms.to_string(),
                    t.sim_wall_ms.to_string(),
                ]
            })
        })
        .collect();
    if rows.is_empty() {
        return String::new();
    }
    let mut out = String::from("job timing (host wall clock)\n\n");
    out.push_str(&table(
        &["job", "queue_wait_ms", "run_ms", "sim_wall_ms"],
        &rows,
    ));
    out
}

/// Renders the per-job CPI-stack appendix: one row per job that carries a
/// [`CpiStack`](ffsim_core::CpiStack) (campaigns run with telemetry
/// enabled). Memory-bound classes collapse into one `mem_bound` column and
/// the three window-full classes into `window`, so the table stays
/// readable; the full breakdown lives in the manifest's `cpi` key.
/// Returns the empty string when no record has a stack.
///
/// Cycle attribution is deterministic, but the appendix is opt-in like
/// [`render_timing`], so the report artifact [`render`] produces keeps its
/// pre-CPI byte layout.
#[must_use]
pub fn render_cpi(records: &BTreeMap<String, JobRecord>) -> String {
    let rows: Vec<Vec<String>> = records
        .values()
        .filter_map(|r| {
            r.cpi.map(|cpi| {
                let mem: u64 = [
                    StallClass::L1Bound,
                    StallClass::L2Bound,
                    StallClass::LlcBound,
                    StallClass::DramBound,
                ]
                .iter()
                .map(|&c| cpi.get(c))
                .sum();
                let window: u64 = [StallClass::RobFull, StallClass::IqFull, StallClass::LsqFull]
                    .iter()
                    .map(|&c| cpi.get(c))
                    .sum();
                vec![
                    r.id.clone(),
                    cpi.total().to_string(),
                    cpi.get(StallClass::Base).to_string(),
                    cpi.get(StallClass::FrontendMispredict).to_string(),
                    cpi.get(StallClass::WrongPathFetch).to_string(),
                    mem.to_string(),
                    window.to_string(),
                ]
            })
        })
        .collect();
    if rows.is_empty() {
        return String::new();
    }
    let mut out = String::from("job cpi stacks (cycles per stall class)\n\n");
    out.push_str(&table(
        &[
            "job",
            "total",
            "base",
            "mispredict",
            "wp_fetch",
            "mem_bound",
            "window",
        ],
        &rows,
    ));
    out
}

/// A right-aligned text table (same layout as the bench crate's tables;
/// duplicated here because the driver sits below the bench crate in the
/// dependency graph).
fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (c, cell) in row.iter().enumerate().take(cols) {
            widths[c] = widths[c].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        let mut line = String::new();
        for (c, cell) in cells.iter().enumerate() {
            if c > 0 {
                line.push_str("  ");
            }
            let _ = write!(line, "{cell:>w$}", w = widths[c]);
        }
        line
    };
    let mut out = String::new();
    let header_cells: Vec<String> = headers.iter().map(|h| (*h).to_string()).collect();
    out.push_str(&fmt_row(&header_cells));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{AttemptRecord, JobSummary};
    use ffsim_core::WrongPathMode;

    fn record(id: &str, attempts: usize) -> JobRecord {
        JobRecord {
            id: id.into(),
            requested_mode: WrongPathMode::WrongPathEmulation,
            final_mode: WrongPathMode::WrongPathEmulation,
            status: JobStatus::Completed,
            attempts: (1..=attempts)
                .map(|i| AttemptRecord {
                    attempt: i as u32,
                    mode: WrongPathMode::WrongPathEmulation,
                    outcome: if i == attempts {
                        AttemptOutcome::Success
                    } else {
                        AttemptOutcome::Panic("boom".into())
                    },
                    backoff_ms: 17,
                })
                .collect(),
            summary: Some(JobSummary {
                instructions: 1000,
                cycles: 2000,
                wrong_path_instructions: 50,
                state_digest: 0xabc,
            }),
            timing: None,
            cpi: None,
            cached: false,
            sim: None,
        }
    }

    #[test]
    fn report_is_sorted_and_deterministic() {
        let mut records = BTreeMap::new();
        records.insert("zz".to_string(), record("zz", 1));
        records.insert("aa".to_string(), record("aa", 2));
        let text = render(&records);
        assert_eq!(text, render(&records));
        assert!(text.find("aa").unwrap() < text.find("zz").unwrap());
        assert!(text.contains("2 jobs: 2 completed, 0 degraded, 0 failed"));
        // Only the multi-attempt job appears in the history section.
        assert!(text.contains("attempt history"));
        assert!(text.contains("panic: boom"));
    }

    #[test]
    fn timing_appendix_is_empty_without_telemetry() {
        let mut records = BTreeMap::new();
        records.insert("a".to_string(), record("a", 1));
        assert_eq!(render_timing(&records), "");
    }

    #[test]
    fn timing_appendix_lists_timed_jobs() {
        let mut rec = record("a", 1);
        rec.timing = Some(crate::job::JobTiming {
            queue_wait_ms: 3,
            run_ms: 120,
            sim_wall_ms: 100,
        });
        let mut records = BTreeMap::new();
        records.insert("a".to_string(), rec);
        records.insert("b".to_string(), record("b", 1)); // untimed: skipped
        let text = render_timing(&records);
        assert!(text.contains("job timing"));
        assert!(text.contains("queue_wait_ms"));
        assert!(text.contains("120"));
        assert!(
            !text.lines().any(|l| l.trim_start().starts_with('b')),
            "untimed jobs stay out of the table"
        );
    }

    #[test]
    fn cpi_appendix_is_empty_without_telemetry() {
        let mut records = BTreeMap::new();
        records.insert("a".to_string(), record("a", 1));
        assert_eq!(render_cpi(&records), "");
    }

    #[test]
    fn cpi_appendix_lists_jobs_with_stacks() {
        use ffsim_core::CpiStack;
        let mut stack = CpiStack::new();
        stack.add(StallClass::Base, false, 900);
        stack.add(StallClass::WrongPathFetch, true, 40);
        stack.add(StallClass::L2Bound, false, 25);
        stack.add(StallClass::DramBound, false, 35);
        stack.add(StallClass::RobFull, false, 10);
        let mut rec = record("a", 1);
        rec.cpi = Some(stack);
        let mut records = BTreeMap::new();
        records.insert("a".to_string(), rec);
        records.insert("b".to_string(), record("b", 1)); // no stack: skipped
        let text = render_cpi(&records);
        assert!(text.contains("job cpi stacks"));
        assert!(text.contains("1010"), "total column");
        assert!(text.contains("900"), "base column");
        assert!(
            text.contains("60"),
            "memory classes collapse into mem_bound"
        );
        assert!(
            !text.lines().any(|l| l.trim_start().starts_with('b')),
            "jobs without a stack stay out of the table"
        );
    }

    #[test]
    fn poison_appendix_is_empty_when_nothing_poisoned() {
        assert_eq!(render_poison(&[]), "");
    }

    #[test]
    fn poison_appendix_lists_quarantined_jobs() {
        let poison = vec![PoisonJob {
            id: "b/crash".into(),
            campaign: "b".into(),
            failures: 3,
            error: "panic: boom".into(),
        }];
        let text = render_poison(&poison);
        assert!(text.contains("poison jobs"));
        assert!(text.contains("b/crash [b]: 3 identical failures, last: panic: boom"));
        assert_eq!(text, render_poison(&poison), "deterministic");
    }

    #[test]
    fn queue_wait_appendix_is_empty_without_leases() {
        assert_eq!(render_queue_waits(&BTreeMap::new(), &BTreeMap::new()), "");
        // Zero-count rejections do not resurrect the appendix either.
        let silent = BTreeMap::from([("alpha".to_string(), 0u64)]);
        assert_eq!(render_queue_waits(&BTreeMap::new(), &silent), "");
    }

    #[test]
    fn queue_wait_appendix_lists_campaigns() {
        let mut hist = Log2Hist::new();
        hist.record(2);
        hist.record(10);
        let mut waits = BTreeMap::new();
        waits.insert("alpha".to_string(), hist);
        let text = render_queue_waits(&waits, &BTreeMap::new());
        assert!(text.contains("queue waits per campaign"));
        assert!(text.contains("alpha"));
        assert!(text.contains('2'), "count and min columns");
        assert!(text.contains("p50") && text.contains("p90") && text.contains("p99"));
        // The percentile columns reuse the Log2Hist helpers verbatim.
        assert!(text.contains(&hist.p50().unwrap().to_string()));
        assert!(text.contains(&hist.p99().unwrap().to_string()));
        assert!(!text.contains("admission-quota"), "no rejections recorded");
    }

    #[test]
    fn queue_wait_appendix_surfaces_quota_rejections_distinctly() {
        let rejections = BTreeMap::from([("alpha".to_string(), 3u64), ("beta".to_string(), 0u64)]);
        let text = render_queue_waits(&BTreeMap::new(), &rejections);
        assert!(text.contains("admission-quota rejections"));
        assert!(text.contains("alpha: 3 submit(s) rejected by quota"));
        assert!(!text.contains("beta"), "zero-count campaigns stay silent");
        assert!(
            !text.contains("queue waits per campaign"),
            "no wait table without leases"
        );
    }

    #[test]
    fn profile_appendix_is_empty_without_scopes() {
        assert_eq!(render_profile(&PhaseProfiler::disabled()), "");
        assert_eq!(render_profile(&PhaseProfiler::enabled()), "");
    }

    #[test]
    fn profile_appendix_sorts_hottest_phase_first() {
        let mut prof = PhaseProfiler::enabled();
        prof.record_scope_ns(Phase::CacheIo, 1_000_000);
        prof.record_scope_ns(Phase::QueueJournal, 5_000_000);
        prof.record_scope_ns(Phase::QueueJournal, 5_000_000);
        prof.add_wall_ns(11_000_000);
        let text = render_profile(&prof);
        assert!(text.contains("host phase profile"));
        assert!(
            text.find("queue_journal").unwrap() < text.find("cache_io").unwrap(),
            "hottest phase renders first"
        );
        assert!(text.contains("10.00"), "queue_journal total_ms");
        assert!(text.contains("1000‰"), "11ms wall, 11ms attributed");
    }

    #[test]
    fn failed_jobs_render_placeholders() {
        let mut rec = record("f", 1);
        rec.status = JobStatus::Failed;
        rec.summary = None;
        let mut records = BTreeMap::new();
        records.insert("f".to_string(), rec);
        let text = render(&records);
        assert!(text.contains("failed"));
        assert!(text.contains('-'));
    }
}
