//! Per-layer timing measured from outside the simulator.
//!
//! [`TimedTechnique`] wraps a built-in [`WrongPathTechnique`] and is
//! handed to [`Simulator::with_technique`](ffsim_core::Simulator::with_technique);
//! its `build_frontend` wraps the technique's [`FetchSource`] in
//! [`TimedFetch`]. Together they time the two calls the run loop makes
//! into the lower layers: `FetchSource::fill` (once per handoff batch)
//! and `on_mispredict` (once per episode, wrong-path timing included).
//! `peek` calls are only counted: timing each would cost more than the
//! work it measures.
//!
//! [`replay`] drives a standalone [`Pipeline`] over correct-path
//! instructions recorded by [`TimedFetch`], timing `feed_correct`,
//! `feed_wrong` and the `begin_wrong_path`/`end_wrong_path` pair.

use ffsim_core::{
    CancelCause, FetchSource, LoadTiming, MispredictContext, Pipeline, SimConfig, TechniqueStats,
    WpInst, WrongPathMode, WrongPathTechnique,
};
use ffsim_emu::{DynInst, Emulator, Fault, StreamBuf, StreamEntry, WrongPathFaultStats};
use ffsim_obs::{Log2Hist, ProfHandle, TraceEvent};
use ffsim_uarch::CoreConfig;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What one traced simulation spent and counted at the two seams.
#[derive(Clone, Default, Debug)]
pub struct SeamStats {
    /// Host nanoseconds inside `FetchSource::fill`/`pop`.
    pub fill_ns: u64,
    /// Correct-path entries those calls delivered.
    pub delivered: u64,
    /// Wrong-path instructions emulated into the delivered entries'
    /// bundles (wrong-path emulation only).
    pub wp_emulated: u64,
    /// `FetchSource::peek` calls (lookahead past the handoff batch).
    pub peeks: u64,
    /// Host nanoseconds inside `on_mispredict`.
    pub mispredict_ns: u64,
    /// Misprediction episodes.
    pub episodes: u64,
    /// Wrong-path instructions injected during those episodes.
    pub injected: u64,
    /// The first delivered correct-path instructions, when recording.
    pub recorded: Vec<DynInst>,
    /// Sequence numbers of the mispredicted branches, when recording.
    pub mispredicted: Vec<u64>,
}

/// The shared sink both decorators publish into when the simulator
/// drops them at the end of a run.
pub type Sink = Arc<Mutex<SeamStats>>;

fn nanos(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A built-in technique with its `on_mispredict` calls timed.
#[derive(Debug)]
pub struct TimedTechnique {
    inner: Box<dyn WrongPathTechnique>,
    sink: Sink,
    /// Correct-path instructions the frontend decorator records (0 =
    /// record nothing).
    record: usize,
    local: SeamStats,
}

impl TimedTechnique {
    /// Decorates the built-in technique for `cfg.mode`.
    pub fn new(cfg: &SimConfig, sink: Sink, record: usize) -> TimedTechnique {
        let inner = ffsim_core::TechniqueRegistry::builtin()
            .build_for_mode(cfg.mode, cfg)
            .expect("the builtin registry covers every WrongPathMode");
        TimedTechnique {
            inner,
            sink,
            record,
            local: SeamStats::default(),
        }
    }
}

impl WrongPathTechnique for TimedTechnique {
    fn mode(&self) -> WrongPathMode {
        self.inner.mode()
    }

    fn build_frontend(&self, emu: Emulator, cfg: &SimConfig) -> Box<dyn FetchSource> {
        Box::new(TimedFetch {
            inner: self.inner.build_frontend(emu, cfg),
            sink: Arc::clone(&self.sink),
            record: self.record,
            local: SeamStats::default(),
        })
    }

    fn on_instruction(&mut self, inst: &DynInst) {
        self.inner.on_instruction(inst);
    }

    fn on_mispredict(&mut self, cx: &mut MispredictContext<'_>) {
        let before = cx.pipeline.wrong_path_injected();
        let start = Instant::now();
        self.inner.on_mispredict(cx);
        self.local.mispredict_ns += nanos(start);
        self.local.injected += cx.pipeline.wrong_path_injected() - before;
        self.local.episodes += 1;
        if self.record > 0 {
            self.local.mispredicted.push(cx.entry.inst.seq);
        }
    }

    fn inject_wrong_path(
        &mut self,
        pipeline: &mut Pipeline,
        wp: &[WpInst],
        resolve: u64,
        budget: usize,
    ) {
        self.inner.inject_wrong_path(pipeline, wp, resolve, budget);
    }

    fn on_resolve(&mut self, resolve: u64) {
        self.inner.on_resolve(resolve);
    }

    fn stats(&self) -> TechniqueStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn conv_distance(&self) -> Log2Hist {
        self.inner.conv_distance()
    }
}

impl Drop for TimedTechnique {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.lock() {
            sink.mispredict_ns += self.local.mispredict_ns;
            sink.injected += self.local.injected;
            sink.episodes += self.local.episodes;
            sink.mispredicted.append(&mut self.local.mispredicted);
        }
    }
}

/// A technique's frontend with its `fill` calls timed and its deliveries
/// and `peek` calls counted.
#[derive(Debug)]
pub struct TimedFetch {
    inner: Box<dyn FetchSource>,
    sink: Sink,
    record: usize,
    local: SeamStats,
}

impl TimedFetch {
    fn account(&mut self, delivered: &[StreamEntry]) {
        self.local.delivered += delivered.len() as u64;
        self.local.wp_emulated += delivered
            .iter()
            .filter_map(|e| e.wrong_path.as_ref())
            .map(|bundle| bundle.insts.len() as u64)
            .sum::<u64>();
        let room = self.record.saturating_sub(self.local.recorded.len());
        self.local
            .recorded
            .extend(delivered.iter().take(room).map(|e| e.inst));
    }
}

impl FetchSource for TimedFetch {
    fn pop(&mut self) -> Option<StreamEntry> {
        let start = Instant::now();
        let entry = self.inner.pop();
        self.local.fill_ns += nanos(start);
        self.account(entry.as_slice());
        entry
    }

    fn fill(&mut self, buf: &mut StreamBuf, max: usize) -> usize {
        let first = buf.len();
        let start = Instant::now();
        let filled = self.inner.fill(buf, max);
        self.local.fill_ns += nanos(start);
        self.account(&buf.entries()[first..]);
        filled
    }

    fn peek(&mut self, index: usize) -> Option<&StreamEntry> {
        self.local.peeks += 1;
        self.inner.peek(index)
    }

    fn fault(&self) -> Option<Fault> {
        self.inner.fault()
    }

    fn fault_was_wrong_path(&self) -> bool {
        self.inner.fault_was_wrong_path()
    }

    fn fault_stats(&self) -> WrongPathFaultStats {
        self.inner.fault_stats()
    }

    fn cancelled(&self) -> Option<CancelCause> {
        self.inner.cancelled()
    }

    fn emulator(&self) -> &Emulator {
        self.inner.emulator()
    }

    fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.inner.take_trace()
    }

    fn trace_dropped(&self) -> u64 {
        self.inner.trace_dropped()
    }

    fn install_profiler(&mut self, prof: ProfHandle) {
        self.inner.install_profiler(prof);
    }
}

impl Drop for TimedFetch {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.lock() {
            sink.fill_ns += self.local.fill_ns;
            sink.delivered += self.local.delivered;
            sink.wp_emulated += self.local.wp_emulated;
            sink.peeks += self.local.peeks;
            sink.recorded.append(&mut self.local.recorded);
        }
    }
}

/// Host time of one [`replay`], with the work it covered.
#[derive(Clone, Copy, Default, Debug)]
pub struct ReplayCost {
    /// Nanoseconds in `feed_correct` (the replay minus its episodes).
    pub correct_ns: u64,
    /// Correct-path instructions fed.
    pub correct: u64,
    /// Nanoseconds in `feed_wrong`.
    pub wrong_ns: u64,
    /// Wrong-path instructions fed.
    pub wrong: u64,
    /// Nanoseconds in `snapshot_regs`/`begin_wrong_path` and
    /// `end_wrong_path`/`restore_regs`.
    pub episode_ns: u64,
    /// Wrong-path episodes.
    pub episodes: u64,
}

impl ReplayCost {
    /// Adds another replay's totals.
    pub fn add(&mut self, other: ReplayCost) {
        self.correct_ns += other.correct_ns;
        self.correct += other.correct;
        self.wrong_ns += other.wrong_ns;
        self.wrong += other.wrong;
        self.episode_ns += other.episode_ns;
        self.episodes += other.episodes;
    }
}

/// Replays `insts` through a fresh pipeline. After every branch whose
/// sequence number is in `mispredicted`, a wrong-path episode of
/// `wp_len` instructions (the instructions that follow, standing in for
/// the wrong path, timed as L1 hits) runs before fetch redirects.
pub fn replay(
    core: &CoreConfig,
    insts: &[DynInst],
    mispredicted: &HashSet<u64>,
    wp_len: usize,
) -> ReplayCost {
    let mut pipeline = Pipeline::new(core.clone());
    let mut cost = ReplayCost::default();
    let mut in_episodes = 0u64;
    let start = Instant::now();
    for (i, inst) in insts.iter().enumerate() {
        let times = pipeline.feed_correct(inst.pc, &inst.instr, inst.mem);
        let Some(outcome) = inst.branch else {
            continue;
        };
        if !mispredicted.contains(&inst.seq) {
            if outcome.taken {
                pipeline.break_fetch_group();
            }
            continue;
        }
        let resolve = times.complete;
        let begin = Instant::now();
        let regs = pipeline.snapshot_regs();
        let mut window = pipeline.begin_wrong_path();
        let feed = Instant::now();
        let wrong = &insts[i + 1..insts.len().min(i + 1 + wp_len)];
        for w in wrong {
            pipeline.feed_wrong(
                &mut window,
                w.pc,
                &w.instr,
                None,
                LoadTiming::AssumeL1Hit,
                resolve,
            );
        }
        let fed = Instant::now();
        pipeline.end_wrong_path(window);
        pipeline.restore_regs(regs);
        let end = Instant::now();
        pipeline.redirect(resolve + core.redirect_penalty);
        cost.wrong_ns += nanos_between(feed, fed);
        cost.wrong += wrong.len() as u64;
        cost.episode_ns += nanos_between(begin, feed) + nanos_between(fed, end);
        cost.episodes += 1;
        in_episodes += nanos_between(begin, end);
    }
    cost.correct_ns = nanos(start).saturating_sub(in_episodes);
    cost.correct = insts.len() as u64;
    cost
}

fn nanos_between(from: Instant, to: Instant) -> u64 {
    u64::try_from((to - from).as_nanos()).unwrap_or(u64::MAX)
}
