//! Scoped host-side phase profiler with a fixed phase taxonomy.
//!
//! [`PhaseProfiler`] attributes monotonic host nanoseconds to simulator
//! phases so the attribution table can answer "where does the slowdown
//! go". Scopes nest: time spent in a child scope is charged to the child
//! only (self-time accounting), so summing every phase's total never
//! double-counts and the **telescoping invariant** holds — the sum of
//! attributed phase time must cover at least 95% of the run's wall time
//! (the remainder is loop glue outside any scope).
//!
//! The observer-effect discipline matches
//! [`EventRing`](crate::trace::EventRing): a disabled profiler costs one
//! predictable branch per scope boundary and never reads the clock, so a
//! `FFSIM_OBS`-off run is indistinguishable from an uninstrumented one.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::hist::Log2Hist;
use crate::json::Value;

/// Attributed phase time must cover at least this per-mille share of the
/// run's wall time (the telescoping invariant).
pub const TELESCOPE_FLOOR_PERMILLE: u64 = 950;

/// The fixed phase taxonomy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Functional emulator stepping (correct and wrong path) inside the
    /// frontend refill.
    EmuExec,
    /// Emulator→timing handoff: queue refill bookkeeping around the raw
    /// emulator steps (buffering, policy hooks, stream assembly).
    EmuHandoff,
    /// The timing pipeline proper, measured as the run loop's self time:
    /// retire accounting, predictor update, redirects, and the loop's own
    /// per-instruction bookkeeping (everything not nested in a fetch,
    /// emulator, or technique-hook scope).
    TimingPipeline,
    /// Wrong-path technique hooks (`on_instruction` / `on_mispredict` /
    /// `on_resolve`); rendered as `technique_hook:<label>` once a label
    /// is set.
    TechniqueHook,
    /// Frontend fetch: delivering the next entry to the timing loop
    /// (self time excludes the nested emulator phases).
    FrontendFetch,
    /// Driver result-cache lookups, verification and stores.
    CacheIo,
    /// Driver manifest commits: the record insert and the atomic rewrite
    /// of the store's one manifest file.
    ManifestIo,
    /// Driver queue journal appends, lease bookkeeping and compaction.
    QueueJournal,
    /// Campaign-server request handling: frame decode, queue mapping,
    /// and response encode for one wire request.
    ServeRequest,
}

/// Number of phases in the taxonomy.
pub const PHASE_COUNT: usize = 9;

impl Phase {
    /// Every phase, in rendering order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::EmuExec,
        Phase::EmuHandoff,
        Phase::TimingPipeline,
        Phase::TechniqueHook,
        Phase::FrontendFetch,
        Phase::CacheIo,
        Phase::ManifestIo,
        Phase::QueueJournal,
        Phase::ServeRequest,
    ];

    /// Stable snake_case name (the `technique_hook` base name; see
    /// [`PhaseProfiler::phase_label`] for the labelled form).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::EmuExec => "emu_exec",
            Phase::EmuHandoff => "emu_handoff",
            Phase::TimingPipeline => "timing_pipeline",
            Phase::TechniqueHook => "technique_hook",
            Phase::FrontendFetch => "frontend_fetch",
            Phase::CacheIo => "cache_io",
            Phase::ManifestIo => "manifest_io",
            Phase::QueueJournal => "queue_journal",
            Phase::ServeRequest => "serve_request",
        }
    }

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// Per-phase aggregate: scope count, total self-time, and a duration
/// histogram of per-scope self-times.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PhaseAgg {
    /// Completed scopes.
    pub count: u64,
    /// Total attributed self-time, ns.
    pub total_ns: u64,
    /// Per-scope self-time distribution, ns.
    pub hist: Log2Hist,
}

#[derive(Clone, Debug)]
struct OpenScope {
    phase: usize,
    last: Instant,
    self_ns: u64,
}

/// A scoped phase profiler with self-time attribution.
///
/// `enter`/`exit` pairs bracket phases; nesting charges inner time to the
/// inner phase only. Call [`start`](PhaseProfiler::start) /
/// [`finish`](PhaseProfiler::finish) around the measured region to
/// capture total wall time for the telescoping check.
#[derive(Clone, Debug, Default)]
pub struct PhaseProfiler {
    enabled: bool,
    phases: [PhaseAgg; PHASE_COUNT],
    stack: Vec<OpenScope>,
    run_started: Option<Instant>,
    wall_ns: u64,
    hook_label: Option<String>,
}

impl PartialEq for PhaseProfiler {
    fn eq(&self, other: &PhaseProfiler) -> bool {
        self.enabled == other.enabled
            && self.phases == other.phases
            && self.wall_ns == other.wall_ns
            && self.hook_label == other.hook_label
    }
}

impl PhaseProfiler {
    /// A disabled profiler: every operation is a no-op behind one branch
    /// and the clock is never read.
    #[must_use]
    pub fn disabled() -> PhaseProfiler {
        PhaseProfiler::default()
    }

    /// An enabled profiler.
    #[must_use]
    pub fn enabled() -> PhaseProfiler {
        PhaseProfiler {
            enabled: true,
            ..PhaseProfiler::default()
        }
    }

    /// Whether scopes are recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Names the technique for `technique_hook:<label>` rendering.
    pub fn set_hook_label(&mut self, label: &str) {
        if self.enabled {
            self.hook_label = Some(label.to_string());
        }
    }

    /// The rendered name of a phase: `technique_hook:<label>` when a
    /// label is set, the plain taxonomy name otherwise.
    #[must_use]
    pub fn phase_label(&self, phase: Phase) -> String {
        match (phase, &self.hook_label) {
            (Phase::TechniqueHook, Some(label)) => format!("technique_hook:{label}"),
            _ => phase.name().to_string(),
        }
    }

    /// Marks the start of the measured region (for wall-time capture).
    pub fn start(&mut self) {
        if !self.enabled {
            return;
        }
        self.run_started = Some(Instant::now());
    }

    /// Marks the end of the measured region, folding the elapsed wall
    /// time into [`wall_ns`](PhaseProfiler::wall_ns). Open scopes are
    /// force-closed first so their time is not lost.
    pub fn finish(&mut self) {
        if !self.enabled {
            return;
        }
        while !self.stack.is_empty() {
            self.exit();
        }
        if let Some(started) = self.run_started.take() {
            self.wall_ns = self
                .wall_ns
                .saturating_add(ns_u64(started.elapsed().as_nanos()));
        }
    }

    /// Opens a scope for `phase`. One branch when disabled.
    #[inline]
    pub fn enter(&mut self, phase: Phase) {
        if !self.enabled {
            return;
        }
        self.push(phase);
    }

    #[cold]
    fn push(&mut self, phase: Phase) {
        let now = Instant::now();
        if let Some(top) = self.stack.last_mut() {
            top.self_ns = top
                .self_ns
                .saturating_add(ns_u64(now.duration_since(top.last).as_nanos()));
        }
        self.stack.push(OpenScope {
            phase: phase.index(),
            last: now,
            self_ns: 0,
        });
    }

    /// Closes the innermost open scope. One branch when disabled; a
    /// no-op when no scope is open.
    #[inline]
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        self.pop();
    }

    #[cold]
    fn pop(&mut self) {
        let now = Instant::now();
        let Some(top) = self.stack.pop() else {
            return;
        };
        let self_ns = top
            .self_ns
            .saturating_add(ns_u64(now.duration_since(top.last).as_nanos()));
        let agg = &mut self.phases[top.phase];
        agg.count += 1;
        agg.total_ns = agg.total_ns.saturating_add(self_ns);
        agg.hist.record(self_ns);
        if let Some(parent) = self.stack.last_mut() {
            // The child's span must not also count as parent self time.
            parent.last = now;
        }
    }

    /// Runs `f` inside a `phase` scope.
    pub fn scope<R>(&mut self, phase: Phase, f: impl FnOnce() -> R) -> R {
        self.enter(phase);
        let out = f();
        self.exit();
        out
    }

    /// Folds an externally measured scope into a phase (used when a
    /// duration is captured by other means, and by tests needing
    /// deterministic input).
    pub fn record_scope_ns(&mut self, phase: Phase, ns: u64) {
        if !self.enabled {
            return;
        }
        let agg = &mut self.phases[phase.index()];
        agg.count += 1;
        agg.total_ns = agg.total_ns.saturating_add(ns);
        agg.hist.record(ns);
    }

    /// Adds externally measured wall time (for merged profiles).
    pub fn add_wall_ns(&mut self, ns: u64) {
        if !self.enabled {
            return;
        }
        self.wall_ns = self.wall_ns.saturating_add(ns);
    }

    /// The aggregate for one phase.
    #[must_use]
    pub fn phase_agg(&self, phase: Phase) -> &PhaseAgg {
        &self.phases[phase.index()]
    }

    /// Total wall time captured by `start`/`finish`, ns.
    #[must_use]
    pub fn wall_ns(&self) -> u64 {
        self.wall_ns
    }

    /// Sum of all phases' attributed self-time, ns.
    #[must_use]
    pub fn attributed_ns(&self) -> u64 {
        self.phases
            .iter()
            .fold(0u64, |acc, a| acc.saturating_add(a.total_ns))
    }

    /// Attributed share of wall time, in per-mille (1000 when no wall
    /// time was captured — nothing to telescope against).
    #[must_use]
    pub fn coverage_permille(&self) -> u64 {
        if self.wall_ns == 0 {
            return 1000;
        }
        self.attributed_ns()
            .saturating_mul(1000)
            .checked_div(self.wall_ns)
            .unwrap_or(1000)
    }

    /// Whether the telescoping invariant holds (attributed time ≥95% of
    /// wall time).
    #[must_use]
    pub fn telescopes(&self) -> bool {
        self.coverage_permille() >= TELESCOPE_FLOOR_PERMILLE
    }

    /// The phase with the largest attributed time, with its total
    /// (`None` when nothing was attributed).
    #[must_use]
    pub fn dominant_phase(&self) -> Option<(Phase, u64)> {
        Phase::ALL
            .iter()
            .map(|&p| (p, self.phases[p.index()].total_ns))
            .max_by_key(|&(_, ns)| ns)
            .filter(|&(_, ns)| ns > 0)
    }

    /// Merges another profiler's aggregates and wall time into this one
    /// (per-worker profiles into a campaign-wide one).
    pub fn merge(&mut self, other: &PhaseProfiler) {
        if !self.enabled {
            return;
        }
        for (mine, theirs) in self.phases.iter_mut().zip(other.phases.iter()) {
            mine.count += theirs.count;
            mine.total_ns = mine.total_ns.saturating_add(theirs.total_ns);
            mine.hist.merge(&theirs.hist);
        }
        self.wall_ns = self.wall_ns.saturating_add(other.wall_ns);
        if self.hook_label.is_none() {
            self.hook_label.clone_from(&other.hook_label);
        }
    }

    /// Absorbs a profiler whose whole measured region ran *inside* one of
    /// this profiler's `parent` scopes (e.g. the frontend's internal
    /// profile inside the `frontend_fetch` scope): the child's aggregates
    /// merge in, and its attributed total is subtracted from the parent
    /// phase so the telescoped sum stays double-count-free. The child's
    /// own wall time is not added.
    pub fn absorb_nested(&mut self, child: &PhaseProfiler, parent: Phase) {
        if !self.enabled {
            return;
        }
        let child_total = child.attributed_ns();
        for (mine, theirs) in self.phases.iter_mut().zip(child.phases.iter()) {
            mine.count += theirs.count;
            mine.total_ns = mine.total_ns.saturating_add(theirs.total_ns);
            mine.hist.merge(&theirs.hist);
        }
        let agg = &mut self.phases[parent.index()];
        agg.total_ns = agg.total_ns.saturating_sub(child_total);
    }

    /// Deterministic JSON form: per-phase `{count, total_ns, hist}` plus
    /// wall time and coverage (in per-mille, keeping the integer-only
    /// dialect).
    #[must_use]
    pub fn to_value(&self) -> Value {
        let int = |v: u64| Value::Int(i64::try_from(v).unwrap_or(i64::MAX));
        let phases = Phase::ALL
            .iter()
            .map(|&p| {
                let agg = &self.phases[p.index()];
                (
                    self.phase_label(p),
                    Value::Obj(vec![
                        ("count".into(), int(agg.count)),
                        ("total_ns".into(), int(agg.total_ns)),
                        ("hist".into(), agg.hist.to_value()),
                    ]),
                )
            })
            .collect();
        Value::Obj(vec![
            ("phases".into(), Value::Obj(phases)),
            ("wall_ns".into(), int(self.wall_ns)),
            ("attributed_ns".into(), int(self.attributed_ns())),
            ("coverage_permille".into(), int(self.coverage_permille())),
        ])
    }
}

#[inline]
fn ns_u64(ns: u128) -> u64 {
    u64::try_from(ns).unwrap_or(u64::MAX)
}

#[cold]
fn enter_slow(inner: &Mutex<PhaseProfiler>, phase: Phase) {
    inner.lock().expect("profiler lock poisoned").enter(phase);
}

#[cold]
fn exit_slow(inner: &Mutex<PhaseProfiler>) {
    inner.lock().expect("profiler lock poisoned").exit();
}

/// A shareable handle to one [`PhaseProfiler`], so producer and consumer
/// sides of a seam (the simulator run loop and the functional frontend it
/// drives) attribute into a single nesting stack: emulator scopes opened
/// while a technique hook peeks the frontend nest under the hook's scope,
/// exactly as they ran.
///
/// A disabled handle holds no allocation and every call is one branch; an
/// enabled handle locks a mutex per scope boundary — the profiler is
/// attribution tooling, not a free-running production counter.
#[derive(Clone, Debug, Default)]
pub struct ProfHandle {
    inner: Option<Arc<Mutex<PhaseProfiler>>>,
}

impl ProfHandle {
    /// A disabled handle (no-op, no allocation).
    #[must_use]
    pub fn disabled() -> ProfHandle {
        ProfHandle::default()
    }

    /// An enabled handle around a fresh profiler.
    #[must_use]
    pub fn enabled() -> ProfHandle {
        ProfHandle {
            inner: Some(Arc::new(Mutex::new(PhaseProfiler::enabled()))),
        }
    }

    /// Whether scopes are recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with(&self, f: impl FnOnce(&mut PhaseProfiler)) {
        if let Some(inner) = &self.inner {
            f(&mut inner.lock().expect("profiler lock poisoned"));
        }
    }

    /// See [`PhaseProfiler::enter`]. The disabled fast path is one
    /// predictable branch; the lock-and-record slow path is outlined so
    /// it never bloats the caller's hot loop.
    #[inline]
    pub fn enter(&self, phase: Phase) {
        if let Some(inner) = &self.inner {
            enter_slow(inner, phase);
        }
    }

    /// See [`PhaseProfiler::exit`]. Same fast/slow split as
    /// [`enter`](ProfHandle::enter).
    #[inline]
    pub fn exit(&self) {
        if let Some(inner) = &self.inner {
            exit_slow(inner);
        }
    }

    /// See [`PhaseProfiler::start`].
    pub fn start(&self) {
        self.with(PhaseProfiler::start);
    }

    /// See [`PhaseProfiler::finish`].
    pub fn finish(&self) {
        self.with(PhaseProfiler::finish);
    }

    /// See [`PhaseProfiler::set_hook_label`].
    pub fn set_hook_label(&self, label: &str) {
        self.with(|p| p.set_hook_label(label));
    }

    /// A snapshot of the profiler's current state (a disabled
    /// [`PhaseProfiler`] for a disabled handle).
    #[must_use]
    pub fn snapshot(&self) -> PhaseProfiler {
        match &self.inner {
            Some(inner) => inner.lock().expect("profiler lock poisoned").clone(),
            None => PhaseProfiler::disabled(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_is_inert() {
        let mut p = PhaseProfiler::disabled();
        p.start();
        p.enter(Phase::EmuExec);
        p.exit();
        p.record_scope_ns(Phase::EmuExec, 100);
        p.finish();
        assert_eq!(p.attributed_ns(), 0);
        assert_eq!(p.wall_ns(), 0);
        assert_eq!(p.phase_agg(Phase::EmuExec).count, 0);
        assert!(p.telescopes(), "vacuously: no wall time captured");
    }

    #[test]
    fn nesting_attributes_self_time_only() {
        let mut p = PhaseProfiler::enabled();
        p.start();
        p.enter(Phase::FrontendFetch);
        spin_for_at_least_us(50);
        p.enter(Phase::EmuExec);
        spin_for_at_least_us(50);
        p.exit();
        spin_for_at_least_us(50);
        p.exit();
        p.finish();
        let fetch = p.phase_agg(Phase::FrontendFetch);
        let exec = p.phase_agg(Phase::EmuExec);
        assert_eq!(fetch.count, 1);
        assert_eq!(exec.count, 1);
        assert!(fetch.total_ns > 0 && exec.total_ns > 0);
        // Self times sum to at most the wall time (no double counting).
        assert!(p.attributed_ns() <= p.wall_ns());
        // A near-fully-scoped region telescopes.
        assert!(p.telescopes(), "coverage {}", p.coverage_permille());
    }

    #[test]
    fn deterministic_injection_and_telescoping_math() {
        let mut p = PhaseProfiler::enabled();
        p.record_scope_ns(Phase::EmuExec, 600);
        p.record_scope_ns(Phase::TimingPipeline, 350);
        p.add_wall_ns(1000);
        assert_eq!(p.attributed_ns(), 950);
        assert_eq!(p.coverage_permille(), 950);
        assert!(p.telescopes());
        p.add_wall_ns(100);
        assert!(!p.telescopes());
        assert_eq!(p.dominant_phase(), Some((Phase::EmuExec, 600)));
    }

    #[test]
    fn hook_label_renders_into_phase_name() {
        let mut p = PhaseProfiler::enabled();
        assert_eq!(p.phase_label(Phase::TechniqueHook), "technique_hook");
        p.set_hook_label("conv");
        assert_eq!(p.phase_label(Phase::TechniqueHook), "technique_hook:conv");
        assert_eq!(p.phase_label(Phase::EmuExec), "emu_exec");
    }

    #[test]
    fn merge_and_absorb_nested() {
        let mut parent = PhaseProfiler::enabled();
        parent.record_scope_ns(Phase::FrontendFetch, 1000);
        let mut child = PhaseProfiler::enabled();
        child.record_scope_ns(Phase::EmuExec, 700);
        child.record_scope_ns(Phase::EmuHandoff, 200);
        // The child ran inside the frontend_fetch scope: its 900ns move
        // out of frontend_fetch and into their own phases.
        parent.absorb_nested(&child, Phase::FrontendFetch);
        assert_eq!(parent.phase_agg(Phase::FrontendFetch).total_ns, 100);
        assert_eq!(parent.phase_agg(Phase::EmuExec).total_ns, 700);
        assert_eq!(parent.phase_agg(Phase::EmuHandoff).total_ns, 200);
        assert_eq!(parent.attributed_ns(), 1000);

        let mut other = PhaseProfiler::enabled();
        other.record_scope_ns(Phase::EmuExec, 50);
        other.add_wall_ns(60);
        parent.add_wall_ns(1000);
        parent.merge(&other);
        assert_eq!(parent.phase_agg(Phase::EmuExec).total_ns, 750);
        assert_eq!(parent.wall_ns(), 1060);
    }

    #[test]
    fn finish_force_closes_open_scopes() {
        let mut p = PhaseProfiler::enabled();
        p.start();
        p.enter(Phase::QueueJournal);
        p.enter(Phase::CacheIo);
        p.finish();
        assert_eq!(p.phase_agg(Phase::QueueJournal).count, 1);
        assert_eq!(p.phase_agg(Phase::CacheIo).count, 1);
        assert!(p.stack.is_empty());
    }

    #[test]
    fn json_snapshot_has_all_phases() {
        let mut p = PhaseProfiler::enabled();
        p.set_hook_label("wpemul");
        p.record_scope_ns(Phase::TechniqueHook, 5);
        let doc = crate::json::parse(&p.to_value().to_json()).unwrap();
        let phases = doc.get("phases").unwrap();
        for phase in Phase::ALL {
            let label = p.phase_label(phase);
            assert!(phases.get(&label).is_some(), "missing {label}");
        }
        assert_eq!(
            phases
                .get("technique_hook:wpemul")
                .and_then(|v| v.get("total_ns"))
                .and_then(Value::as_int),
            Some(5)
        );
    }

    fn spin_for_at_least_us(us: u64) {
        let start = std::time::Instant::now();
        while start.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }
}
