//! The pluggable wrong-path technique layer.
//!
//! Each of the paper's four wrong-path modeling configurations (§IV) is a
//! [`WrongPathTechnique`] implementation that owns its technique-specific
//! state — the code cache, the convergence scanner, the frontend replica
//! wiring — and plugs into the [`Simulator`](crate::Simulator) run loop
//! through a small set of hooks:
//!
//! * [`build_frontend`](WrongPathTechnique::build_frontend) — choose the
//!   functional-frontend wiring (a passive runahead queue, or one carrying
//!   the branch-predictor replica that checkpoints wrong paths for §III-B
//!   emulation),
//! * [`on_instruction`](WrongPathTechnique::on_instruction) — observe
//!   every consumed correct-path instruction (the §III-A code-cache fill),
//! * [`on_mispredict`](WrongPathTechnique::on_mispredict) — produce and
//!   inject the wrong path for a detected misprediction,
//! * [`inject_wrong_path`](WrongPathTechnique::inject_wrong_path) — feed a
//!   buffered wrong-path sequence into the pipeline (the built-in
//!   techniques feed the shared [`inject_wrong_path`] function directly),
//! * [`on_resolve`](WrongPathTechnique::on_resolve) — the squash point,
//!   after the episode is traced and before fetch redirects,
//! * [`stats`](WrongPathTechnique::stats) — technique-owned counters
//!   folded into the run's [`SimResult`](crate::SimResult).
//!
//! The [`TechniqueRegistry`] maps technique labels to factories;
//! [`TechniqueRegistry::builtin`] carries the paper's four, and
//! experimental techniques register without touching the run loop.

pub mod code_cache;
mod conv;
mod instrec;
pub mod mode;
mod nowp;
pub mod replica;
mod wpemul;
pub mod wrongpath;

pub use conv::ConvergenceTechnique;
pub use instrec::ReconstructionTechnique;
pub use nowp::NoWrongPathTechnique;
pub use wpemul::{EmulationTechnique, PredictorSteer};

use crate::error::SimError;
use crate::metrics::FaultStats;
use crate::pipeline::{LoadTiming, Pipeline};
use crate::sim::SimConfig;
use crate::technique::code_cache::CodeCacheStats;
use crate::technique::mode::WrongPathMode;
use crate::technique::wrongpath::{ConvergenceStats, WpInst};
use ffsim_emu::{DynInst, Emulator, FetchSource, InstrQueue, NoFrontendWrongPath, StreamEntry};
use ffsim_isa::{Addr, INSTR_BYTES};
use ffsim_obs::{EventRing, Log2Hist};
use ffsim_uarch::BranchPredictor;
use std::fmt;

/// Everything a technique may touch while handling one misprediction: the
/// triggering stream entry, the fetch and resolution cycles, mutable
/// access to the pipeline, frontend, and event ring, and a slot to end
/// the run with an error.
#[derive(Debug)]
pub struct MispredictContext<'a> {
    /// The stream entry carrying the mispredicted branch (and, in
    /// wrong-path-emulation runs, its wrong-path checkpoint).
    pub entry: &'a StreamEntry,
    /// The cycle the mispredicted branch was fetched at.
    pub fetch: u64,
    /// The cycle the mispredicted branch resolves (executes) at.
    pub resolve: u64,
    /// First wrong-path pc, when the predictor could name one.
    pub wrong_path_start: Option<Addr>,
    /// The unconsumed tail of the current handoff batch: future
    /// correct-path entries already delivered by the frontend, directly
    /// addressable without a virtual call. [`MispredictContext::peek_ahead`]
    /// reads these first and falls through to [`FetchSource::peek`].
    pub lookahead: &'a [StreamEntry],
    /// Total lookahead bound (batch tail + frontend peeks), matching the
    /// frontend's own queue depth so batched and per-instruction delivery
    /// expose the exact same peek window.
    pub peek_cap: usize,
    /// The timing model's branch predictor (read-only: speculative
    /// predictions steer reconstruction without perturbing training).
    pub predictor: &'a BranchPredictor,
    /// The timing backend the wrong path is injected into.
    pub pipeline: &'a mut Pipeline,
    /// The functional frontend (lookahead peeking, fault state, and the
    /// emulator wrong paths are emulated on).
    pub frontend: &'a mut dyn FetchSource,
    /// The timing-model event ring.
    pub trace: &'a mut EventRing,
    /// Set by a technique to end the run with this error once the hook
    /// returns: a wrong-path fault under
    /// [`FaultPolicy::AbortRun`](ffsim_emu::FaultPolicy::AbortRun), or a
    /// cancellation observed mid-wrong-path.
    pub abort: Option<SimError>,
}

impl MispredictContext<'_> {
    /// Peeks `index` future correct-path entries past the mispredicted
    /// branch (0 = the architecturally next instruction), bounded by
    /// [`peek_cap`](MispredictContext::peek_cap). Entries still in the
    /// current batch are served from the [`lookahead`] slice; the rest
    /// come from the frontend's runahead buffer. After any number of
    /// per-instruction pops the frontend keeps `queue_depth` entries
    /// buffered, so this window is identical to what per-instruction
    /// delivery would expose through [`FetchSource::peek`] alone.
    ///
    /// [`lookahead`]: MispredictContext::lookahead
    pub fn peek_ahead(&mut self, index: usize) -> Option<&StreamEntry> {
        if index >= self.peek_cap {
            return None;
        }
        if index < self.lookahead.len() {
            return Some(&self.lookahead[index]);
        }
        self.frontend.peek(index - self.lookahead.len())
    }
}

/// Technique-owned statistics folded into [`SimResult`](crate::SimResult).
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct TechniqueStats {
    /// Convergence counters (Table III); zero outside the convergence
    /// technique.
    pub convergence: ConvergenceStats,
    /// Code-cache counters; zero for techniques without a code cache.
    pub code_cache: CodeCacheStats,
    /// Wrong-path fault counters; zero for techniques that do not emulate
    /// wrong paths.
    pub faults: FaultStats,
    /// Wrong-path instructions functionally emulated; zero for techniques
    /// that do not emulate wrong paths.
    pub wrong_path_emulated: u64,
}

/// One wrong-path modeling strategy (paper §III), owning its state and
/// driven by the [`Simulator`](crate::Simulator) run loop through hooks.
///
/// Hook call order per retired instruction: [`on_instruction`] always;
/// then, on a detected misprediction, [`on_mispredict`] (which typically
/// calls [`inject_wrong_path`]) followed by [`on_resolve`] once the
/// episode has been traced, just before fetch redirects to the correct
/// path.
///
/// [`on_instruction`]: WrongPathTechnique::on_instruction
/// [`on_mispredict`]: WrongPathTechnique::on_mispredict
/// [`on_resolve`]: WrongPathTechnique::on_resolve
pub trait WrongPathTechnique: Send + fmt::Debug {
    /// The mode this technique models (labels, reporting).
    fn mode(&self) -> WrongPathMode;

    /// Builds the functional frontend this technique consumes: by default
    /// the [`passive_frontend`]; wrong-path emulation installs the
    /// branch-predictor replica here.
    fn build_frontend(&self, emu: Emulator, cfg: &SimConfig) -> Box<dyn FetchSource> {
        passive_frontend(emu, cfg)
    }

    /// A correct-path instruction was consumed by the timing model
    /// (the §III-A code-cache fill point).
    fn on_instruction(&mut self, inst: &DynInst) {
        let _ = inst;
    }

    /// The timing model detected a misprediction; produce and inject the
    /// wrong path.
    fn on_mispredict(&mut self, cx: &mut MispredictContext<'_>);

    /// Feeds a buffered wrong-path sequence into the pipeline. The default
    /// performs the shared §III-A/§V-C injection (snapshot, bounded feed,
    /// squash) of the free function [`inject_wrong_path`], which the
    /// built-in techniques call directly with their own lazy sources.
    fn inject_wrong_path(
        &mut self,
        pipeline: &mut Pipeline,
        wp: &[WpInst],
        resolve: u64,
        budget: usize,
    ) {
        inject_wrong_path(pipeline, wp.iter().copied(), resolve, budget);
    }

    /// The mispredicted branch resolved (squash point); fetch redirects
    /// right after this hook returns.
    fn on_resolve(&mut self, resolve: u64) {
        let _ = resolve;
    }

    /// Technique-owned counters for the final result.
    fn stats(&self) -> TechniqueStats {
        TechniqueStats::default()
    }

    /// Resets technique-owned statistics, keeping technique state warm.
    /// The simulator never calls it and no built-in technique overrides
    /// it; it remains for wrappers that forward every hook.
    fn reset_stats(&mut self) {}

    /// Convergence-distance histogram for the observability report; empty
    /// outside the convergence technique.
    fn conv_distance(&self) -> Log2Hist {
        Log2Hist::new()
    }
}

/// Builds the passive runahead frontend used by every technique that does
/// not emulate wrong paths functionally (nowp, instrec, conv — and any
/// external technique that reconstructs rather than emulates).
#[must_use]
pub fn passive_frontend(emu: Emulator, cfg: &SimConfig) -> Box<dyn FetchSource> {
    Box::new(InstrQueue::new(
        emu,
        NoFrontendWrongPath,
        cfg.core.queue_depth,
    ))
}

/// Injects a wrong-path instruction sequence into the pipeline.
///
/// Fetch of wrong-path instructions continues until the mispredicted
/// branch resolves (`resolve`), the sequence ends, or the budget runs
/// out; the register scoreboard is snapshotted and restored around the
/// injection (the squash). Loads with known addresses access the real
/// hierarchy; the rest are modeled as L1 hits (§III-A, §V-C). The
/// resolve check comes before each instruction is pulled from `wp`, so a
/// lazy sequence is never advanced past what the pipeline takes, and
/// every instruction pulled is fed.
///
/// Returns the number of instructions fed, which is the number pulled.
pub fn inject_wrong_path(
    pipeline: &mut Pipeline,
    wp: impl IntoIterator<Item = WpInst>,
    resolve: u64,
    budget: usize,
) -> usize {
    let snapshot = pipeline.snapshot_regs();
    let mut window = pipeline.begin_wrong_path();
    let mut wp = wp.into_iter().take(budget);
    let mut fed = 0;
    while pipeline.next_fetch_cycle() < resolve {
        let Some(w) = wp.next() else {
            break;
        };
        fed += 1;
        let timing = if w.instr.is_load() && w.mem.is_some() {
            LoadTiming::Real
        } else {
            LoadTiming::AssumeL1Hit
        };
        let _ = pipeline.feed_wrong(&mut window, w.pc, &w.instr, w.mem, timing, resolve);
        if w.instr.is_branch() && w.next_pc != w.pc.wrapping_add(INSTR_BYTES) {
            pipeline.break_fetch_group();
        }
    }
    pipeline.end_wrong_path(window);
    pipeline.restore_regs(snapshot);
    fed
}

/// A technique factory: builds a fresh technique for one run's
/// configuration.
pub type TechniqueFactory = Box<dyn Fn(&SimConfig) -> Box<dyn WrongPathTechnique> + Send + Sync>;

struct RegistryEntry {
    label: &'static str,
    mode: WrongPathMode,
    factory: TechniqueFactory,
}

/// A label-indexed registry of wrong-path technique factories.
///
/// [`TechniqueRegistry::builtin`] carries the paper's four techniques in
/// [`WrongPathMode::ALL`] order; experimental techniques are added with
/// [`TechniqueRegistry::register`] and run through
/// [`Simulator::with_technique`](crate::Simulator::with_technique) without
/// touching the core run loop.
pub struct TechniqueRegistry {
    entries: Vec<RegistryEntry>,
}

impl TechniqueRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> TechniqueRegistry {
        TechniqueRegistry {
            entries: Vec::new(),
        }
    }

    /// The four paper techniques, labeled as in the figures (`nowp`,
    /// `instrec`, `conv`, `wpemul`), in [`WrongPathMode::ALL`] order.
    #[must_use]
    pub fn builtin() -> TechniqueRegistry {
        let mut r = TechniqueRegistry::new();
        r.register(
            WrongPathMode::NoWrongPath.label(),
            WrongPathMode::NoWrongPath,
            |_cfg| Box::new(NoWrongPathTechnique::new()),
        );
        r.register(
            WrongPathMode::InstructionReconstruction.label(),
            WrongPathMode::InstructionReconstruction,
            |cfg| Box::new(ReconstructionTechnique::new(cfg)),
        );
        r.register(
            WrongPathMode::ConvergenceExploitation.label(),
            WrongPathMode::ConvergenceExploitation,
            |cfg| Box::new(ConvergenceTechnique::new(cfg)),
        );
        r.register(
            WrongPathMode::WrongPathEmulation.label(),
            WrongPathMode::WrongPathEmulation,
            |cfg| Box::new(EmulationTechnique::new(cfg)),
        );
        r
    }

    /// Registers a technique factory under `label`. A duplicate label
    /// shadows the earlier entry (latest registration wins on build).
    pub fn register(
        &mut self,
        label: &'static str,
        mode: WrongPathMode,
        factory: impl Fn(&SimConfig) -> Box<dyn WrongPathTechnique> + Send + Sync + 'static,
    ) {
        self.entries.push(RegistryEntry {
            label,
            mode,
            factory: Box::new(factory),
        });
    }

    /// Registered `(label, mode)` pairs in registration order.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, WrongPathMode)> + '_ {
        self.entries.iter().map(|e| (e.label, e.mode))
    }

    /// Number of registered techniques.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Builds the technique registered under `label` for `cfg`.
    #[must_use]
    pub fn build(&self, label: &str, cfg: &SimConfig) -> Option<Box<dyn WrongPathTechnique>> {
        self.entries
            .iter()
            .rev()
            .find(|e| e.label == label)
            .map(|e| (e.factory)(cfg))
    }

    /// Builds the (latest-registered) technique modeling `mode` for `cfg`.
    #[must_use]
    pub fn build_for_mode(
        &self,
        mode: WrongPathMode,
        cfg: &SimConfig,
    ) -> Option<Box<dyn WrongPathTechnique>> {
        self.entries
            .iter()
            .rev()
            .find(|e| e.mode == mode)
            .map(|e| (e.factory)(cfg))
    }
}

impl Default for TechniqueRegistry {
    fn default() -> TechniqueRegistry {
        TechniqueRegistry::builtin()
    }
}

impl fmt::Debug for TechniqueRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TechniqueRegistry")
            .field(
                "labels",
                &self.entries.iter().map(|e| e.label).collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsim_isa::Instr;
    use ffsim_uarch::CoreConfig;

    /// An endless straight-line wrong path of `nop`s that counts its pulls.
    struct CountingNops {
        pc: Addr,
        pulls: usize,
    }

    impl Iterator for CountingNops {
        type Item = WpInst;

        fn next(&mut self) -> Option<WpInst> {
            self.pulls += 1;
            let pc = self.pc;
            self.pc += INSTR_BYTES;
            Some(WpInst {
                pc,
                instr: Instr::Nop,
                mem: None,
                next_pc: self.pc,
            })
        }
    }

    /// Injects into a fresh pipeline: (instructions fed, instructions
    /// pulled, fetch cycle afterwards).
    fn inject_counting(resolve: u64, budget: usize) -> (usize, usize, u64) {
        let mut pipeline = Pipeline::new(CoreConfig::tiny_for_tests());
        let mut wp = CountingNops {
            pc: 0x4000,
            pulls: 0,
        };
        let fed = inject_wrong_path(&mut pipeline, &mut wp, resolve, budget);
        assert_eq!(pipeline.wrong_path_injected(), fed as u64);
        (fed, wp.pulls, pipeline.next_fetch_cycle())
    }

    #[test]
    fn injection_pulls_exactly_what_it_feeds() {
        for resolve in [0, 1, 260, 261, 270, 300, 600, 2000] {
            for budget in [0, 1, 7, 64, 4096] {
                let (fed, pulls, fetch) = inject_counting(resolve, budget);
                assert_eq!(pulls, fed, "resolve {resolve}, budget {budget}");
                assert!(fed <= budget);
                if fed < budget {
                    // The source never ends, so only resolution stops it.
                    assert!(fetch >= resolve, "resolve {resolve}, budget {budget}");
                }
                if fed > 0 {
                    // The state the last pull was made in: fetch was still
                    // before resolution.
                    let (_, _, before_last) = inject_counting(resolve, fed - 1);
                    assert!(before_last < resolve, "resolve {resolve}, budget {budget}");
                }
            }
        }
        // Both stops are reached: the budget, and resolution.
        assert_eq!(inject_counting(600, 7).0, 7);
        assert!(inject_counting(600, 4096).0 < 4096);
    }

    #[test]
    fn builtin_registry_covers_all_modes_in_order() {
        let r = TechniqueRegistry::builtin();
        let modes: Vec<WrongPathMode> = r.entries().map(|(_, m)| m).collect();
        assert_eq!(modes, WrongPathMode::ALL.to_vec());
        let labels: Vec<&str> = r.entries().map(|(l, _)| l).collect();
        assert_eq!(labels, vec!["nowp", "instrec", "conv", "wpemul"]);
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
    }

    #[test]
    fn build_by_label_and_mode_agree() {
        let r = TechniqueRegistry::builtin();
        let cfg = SimConfig::new(WrongPathMode::ConvergenceExploitation);
        let by_label = r.build("conv", &cfg).expect("conv is builtin");
        let by_mode = r
            .build_for_mode(WrongPathMode::ConvergenceExploitation, &cfg)
            .expect("mode is builtin");
        assert_eq!(by_label.mode(), by_mode.mode());
        assert!(r.build("no-such-technique", &cfg).is_none());
    }
}
