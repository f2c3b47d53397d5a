//! Process-wide host-side observability for the campaign driver.
//!
//! The simulator's [`PhaseProfiler`] rides the
//! per-run [`ObsReport`](ffsim_core) — but the driver's own work (journal
//! appends, compactions, cache verification, manifest commits) happens
//! outside any single simulation. This module gives that work one global,
//! lazily created sink:
//!
//! - a [`MetricsRegistry`] of named counters/gauges/histograms
//!   (`queue_journal_appends_total`, `queue_lease_wait_ms`, …), and
//! - a *flat* [`PhaseProfiler`] fed by externally measured scope
//!   durations ([`scope`]). Driver phases do not nest, so no telescoping
//!   invariant applies here — the profile answers "how much wall time
//!   went to queue journaling vs cache io vs manifest commits".
//!
//! Everything is gated on the shared `FFSIM_OBS` switch (or
//! [`force_enable`] for bins and tests). Disabled, every entry point is a
//! single relaxed atomic load — no allocation, no locking, no clock
//! reads — preserving the observer-effect invariant for driver-level
//! artifacts too.

use ffsim_obs::json::Value;
use ffsim_obs::{MetricsRegistry, Phase, PhaseProfiler};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The global sink. Created on first recording while enabled.
static STATE: Mutex<Option<HostObs>> = Mutex::new(None);
/// Latched `FFSIM_OBS` reading (first query wins, like the heartbeat
/// switch).
static ENV: OnceLock<bool> = OnceLock::new();
/// Explicit opt-in that only ever turns observability *on* (never off),
/// so concurrently running tests cannot disable each other.
static FORCED: AtomicBool = AtomicBool::new(false);

/// Host metrics plus the flat driver-phase profile.
#[derive(Debug)]
struct HostObs {
    metrics: MetricsRegistry,
    prof: PhaseProfiler,
}

impl HostObs {
    fn new() -> HostObs {
        HostObs {
            metrics: MetricsRegistry::enabled(),
            prof: PhaseProfiler::enabled(),
        }
    }
}

/// Whether host-side observability is on (env switch or [`force_enable`]).
#[inline]
#[must_use]
pub fn enabled() -> bool {
    FORCED.load(Ordering::Relaxed) || *ENV.get_or_init(ffsim_obs::env_enabled)
}

/// Turns host-side observability on for this process, regardless of the
/// environment. Used by bins (`perf_attrib`) and tests; there is no way
/// to turn it back off.
pub fn force_enable() {
    FORCED.store(true, Ordering::Relaxed);
}

fn with<R>(f: impl FnOnce(&mut HostObs) -> R) -> R {
    let mut guard = STATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    f(guard.get_or_insert_with(HostObs::new))
}

/// Runs `f`, attributing its wall time to `phase` when enabled. The
/// duration is measured *outside* the global lock, so concurrent scopes
/// serialize only for the few nanoseconds of the recording itself.
#[inline]
pub fn scope<R>(phase: Phase, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    record_scope(phase, f)
}

#[cold]
fn record_scope<R>(phase: Phase, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    with(|o| o.prof.record_scope_ns(phase, ns));
    out
}

/// [`scope`] plus a named duration histogram: the measured nanoseconds
/// are also recorded into `hist` in the registry.
#[inline]
pub fn timed<R>(phase: Phase, hist: &str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let start = Instant::now();
    let out = f();
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    with(|o| {
        o.prof.record_scope_ns(phase, ns);
        if let Ok(id) = o.metrics.hist(hist) {
            o.metrics.observe(id, ns);
        }
    });
    out
}

/// Bumps the named counter by 1.
#[inline]
pub fn inc(name: &str) {
    if !enabled() {
        return;
    }
    inc_by(name, 1);
}

/// Bumps the named counter by `n`.
#[inline]
pub fn inc_by(name: &str, n: u64) {
    if !enabled() {
        return;
    }
    with(|o| {
        if let Ok(id) = o.metrics.counter(name) {
            o.metrics.inc(id, n);
        }
    });
}

/// Stores the named gauge.
#[inline]
pub fn set_gauge(name: &str, v: i64) {
    if !enabled() {
        return;
    }
    with(|o| {
        if let Ok(id) = o.metrics.gauge(name) {
            o.metrics.set(id, v);
        }
    });
}

/// Records a sample into the named histogram.
#[inline]
pub fn observe(name: &str, v: u64) {
    if !enabled() {
        return;
    }
    with(|o| {
        if let Ok(id) = o.metrics.hist(name) {
            o.metrics.observe(id, v);
        }
    });
}

/// A clone of the current registry and driver-phase profile, or `None`
/// when nothing was recorded (disabled, or enabled but never touched).
#[must_use]
pub fn snapshot() -> Option<(MetricsRegistry, PhaseProfiler)> {
    let guard = STATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    guard.as_ref().map(|o| (o.metrics.clone(), o.prof.clone()))
}

/// The Prometheus text exposition of the host registry (empty when
/// nothing was recorded).
#[must_use]
pub fn render_prometheus() -> String {
    snapshot().map_or_else(String::new, |(m, _)| m.render_prometheus())
}

/// The JSON snapshot: `{"metrics": {...}, "profile": {...}}`, or `Null`
/// when nothing was recorded.
#[must_use]
pub fn to_value() -> Value {
    snapshot().map_or(Value::Null, |(m, p)| {
        Value::Obj(vec![
            ("metrics".to_string(), m.to_value()),
            ("profile".to_string(), p.to_value()),
        ])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test exercises the whole module: the state is process-global,
    // so independent tests would race each other's counters.
    #[test]
    fn force_enable_then_record_everything() {
        let before_forced = FORCED.load(Ordering::Relaxed);
        if !before_forced && !enabled() {
            // Disabled entry points must not create the sink.
            inc("hostobs_test_counter");
            observe("hostobs_test_hist", 7);
            set_gauge("hostobs_test_gauge", 3);
            let r = scope(Phase::CacheIo, || 41 + 1);
            assert_eq!(r, 42);
        }
        force_enable();
        assert!(enabled());
        inc("hostobs_test_counter");
        inc_by("hostobs_test_counter", 4);
        observe("hostobs_test_hist", 7);
        set_gauge("hostobs_test_gauge", 3);
        let r = scope(Phase::CacheIo, || 41 + 1);
        assert_eq!(r, 42);
        let (metrics, prof) = snapshot().expect("recorded state exists");
        assert_eq!(metrics.counter_by_name("hostobs_test_counter"), Some(5));
        assert!(prof.phase_agg(Phase::CacheIo).count >= 1);
        let text = render_prometheus();
        assert!(text.contains("hostobs_test_counter 5"));
        assert!(text.contains("hostobs_test_gauge 3"));
        let json = to_value().to_json();
        assert!(json.contains("\"metrics\""));
        assert!(json.contains("\"profile\""));
    }
}
