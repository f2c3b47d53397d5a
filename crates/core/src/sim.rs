//! The decoupled functional-first simulator: functional frontend, timing
//! backend, and the four wrong-path modeling techniques.

use crate::error::SimError;
use crate::metrics::{BlockCacheStats, ObsReport, SimResult};
use crate::pipeline::Pipeline;
use crate::technique::mode::WrongPathMode;
use crate::technique::replica::PcCorruption;
use crate::technique::wrongpath::ConvergenceConfig;
use crate::technique::{MispredictContext, TechniqueRegistry, WrongPathTechnique};
use ffsim_emu::{CancelToken, Emulator, FaultModel, FaultPolicy, FetchSource, Memory};
use ffsim_isa::Program;
use ffsim_obs::{
    EventRing, Log2Hist, ObsConfig, Phase, ProfHandle, TraceEvent, TraceEventKind, TraceSource,
};
use ffsim_uarch::{BranchPredictor, CoreConfig};
use std::time::Instant;

/// Builds a timing-model trace event (cycle timestamps).
fn timing_event(ts: u64, kind: TraceEventKind) -> TraceEvent {
    TraceEvent {
        ts,
        source: TraceSource::Timing,
        kind,
    }
}

/// Configuration of one simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// The simulated core (Table I parameters).
    pub core: CoreConfig,
    /// The wrong-path modeling technique.
    pub mode: WrongPathMode,
    /// Stop after this many correct-path instructions (`None` = run to
    /// `halt`).
    pub max_instructions: Option<u64>,
    /// How many entries the run loop pulls from the frontend per batched
    /// [`FetchSource::fill`] call. Any positive value produces the
    /// identical simulation (batching is a pure host-speed knob; the
    /// final batch is clamped to the remaining instruction budget);
    /// [`SimConfig::DEFAULT_HANDOFF_BATCH`] is chosen by the
    /// `handoff_batch` Criterion bench. Must be non-zero.
    pub handoff_batch: usize,
    /// Bound the code cache (`None` = unbounded, the paper's setup).
    pub code_cache_capacity: Option<usize>,
    /// Convergence-technique tunables (used in
    /// [`WrongPathMode::ConvergenceExploitation`] only).
    pub convergence: ConvergenceConfig,
    /// What to do when wrong-path emulation faults: squash and resume
    /// (default — mirrors hardware, where speculative faults are deferred
    /// and dropped on squash), or abort the whole run.
    pub fault_policy: FaultPolicy,
    /// Maximum speculative instructions per wrong-path emulation before the
    /// watchdog trips (`None` = unbounded). Defensive bound against wild
    /// speculative paths looping forever; must be non-zero.
    pub wrong_path_watchdog: Option<u64>,
    /// Which conditions the functional emulator treats as faults (address
    /// limits, divide-by-zero trapping). The default is permissive RISC-V
    /// semantics: no address limit, `x / 0 = -1`.
    pub fault_model: FaultModel,
    /// Deterministic wrong-path start-pc corruption (fault injection,
    /// [`WrongPathMode::WrongPathEmulation`] only). `None` disables it.
    pub wp_pc_corruption: Option<PcCorruption>,
    /// Cooperative cancellation token shared with a supervisor (`None` =
    /// uncancellable). Checked once per retired instruction in
    /// [`Simulator::run`] and once per emulated instruction, correct path
    /// and wrong path alike; a fired token surfaces as
    /// [`SimError::Cancelled`] or [`SimError::DeadlineExceeded`].
    pub cancel: Option<CancelToken>,
    /// Observability: event tracing and wrong-path histograms. Defaults to
    /// the `FFSIM_OBS` environment opt-in (off unless set); disabled runs
    /// produce results bit-identical to an uninstrumented simulator.
    pub obs: ObsConfig,
}

impl SimConfig {
    /// Default wrong-path watchdog limit: far above any real speculative
    /// window (ROB + frontend), far below a hang.
    pub const DEFAULT_WATCHDOG: u64 = 65_536;

    /// Default frontend→timing handoff batch size. 64 sits on the flat
    /// part of the batch-size curve (see the `handoff` bench): large
    /// enough to amortize the per-batch seam crossing, small enough that
    /// the reusable buffer stays cache-resident.
    pub const DEFAULT_HANDOFF_BATCH: usize = 64;

    /// A run of `mode` on the default Golden Cove–like core.
    #[must_use]
    pub fn new(mode: WrongPathMode) -> SimConfig {
        SimConfig::with_core(CoreConfig::golden_cove_like(), mode)
    }

    /// A run of `mode` on a specific core configuration.
    #[must_use]
    pub fn with_core(core: CoreConfig, mode: WrongPathMode) -> SimConfig {
        SimConfig {
            core,
            mode,
            max_instructions: None,
            handoff_batch: SimConfig::DEFAULT_HANDOFF_BATCH,
            code_cache_capacity: None,
            convergence: ConvergenceConfig::default(),
            fault_policy: FaultPolicy::default(),
            wrong_path_watchdog: Some(SimConfig::DEFAULT_WATCHDOG),
            fault_model: FaultModel::default(),
            wp_pc_corruption: None,
            cancel: None,
            obs: ObsConfig::from_env(),
        }
    }

    /// Checks the configuration for nonsense values; called by
    /// [`Simulator::new`].
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] naming the offending knob.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.core.queue_depth == 0 {
            return Err(SimError::InvalidConfig(
                "core.queue_depth must be non-zero".into(),
            ));
        }
        if self.handoff_batch == 0 {
            return Err(SimError::InvalidConfig(
                "handoff_batch must be non-zero".into(),
            ));
        }
        // Zero-sized window structures would make the dispatch-stage
        // "full window" checks (`len() >= size`) fire on empty queues and
        // panic inside the timing model; reject them up front.
        for (size, knob) in [
            (self.core.rob_size, "core.rob_size"),
            (self.core.iq_size, "core.iq_size"),
            (self.core.load_queue, "core.load_queue"),
            (self.core.store_queue, "core.store_queue"),
        ] {
            if size == 0 {
                return Err(SimError::InvalidConfig(format!("{knob} must be non-zero")));
            }
        }
        if self.code_cache_capacity == Some(0) {
            return Err(SimError::InvalidConfig(
                "code_cache_capacity must be non-zero (use None for unbounded)".into(),
            ));
        }
        if self.wrong_path_watchdog == Some(0) {
            return Err(SimError::InvalidConfig(
                "wrong_path_watchdog must be non-zero (use None for unbounded)".into(),
            ));
        }
        if let Some(c) = self.wp_pc_corruption {
            if c.every_nth == 0 {
                return Err(SimError::InvalidConfig(
                    "wp_pc_corruption.every_nth must be non-zero".into(),
                ));
            }
        }
        Ok(())
    }
}

/// A complete decoupled functional-first simulation.
///
/// # Examples
///
/// ```
/// use ffsim_core::{SimConfig, Simulator, WrongPathMode};
/// use ffsim_emu::Memory;
/// use ffsim_isa::{Asm, Reg};
///
/// let mut a = Asm::new();
/// a.li(Reg::new(1), 100);
/// a.label("loop");
/// a.addi(Reg::new(1), Reg::new(1), -1);
/// a.bnez(Reg::new(1), "loop");
/// a.halt();
///
/// let cfg = SimConfig::new(WrongPathMode::ConvergenceExploitation);
/// let result = Simulator::new(a.assemble()?, Memory::new(), cfg)?.run()?;
/// assert_eq!(result.instructions, 202);
/// assert!(result.ipc() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Simulator {
    cfg: SimConfig,
    /// The wrong-path modeling strategy driving this run.
    technique: Box<dyn WrongPathTechnique>,
    frontend: Box<dyn FetchSource>,
    predictor: BranchPredictor,
    pipeline: Pipeline,
    /// Timing-model event ring (disabled unless `cfg.obs.enabled`).
    trace: EventRing,
    /// Host-phase profiler handle, shared with the frontend so emulator
    /// scopes nest under the run loop's (disabled unless
    /// `cfg.obs.profile`).
    prof: ProfHandle,
    /// Wrong-path instructions injected per misprediction episode.
    wp_episode_hist: Log2Hist,
}

impl Simulator {
    /// Builds a simulator for `program` with an initial `memory` image,
    /// selecting the built-in technique matching `cfg.mode`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for nonsense configuration values and
    /// [`SimError::Emulator`] when the program's entry point is not
    /// executable.
    pub fn new(program: Program, memory: Memory, cfg: SimConfig) -> Result<Simulator, SimError> {
        let technique = TechniqueRegistry::builtin()
            .build_for_mode(cfg.mode, &cfg)
            .expect("builtin registry covers every WrongPathMode");
        Simulator::with_technique(program, memory, cfg, technique)
    }

    /// Builds a simulator driven by an explicit technique — the extension
    /// point for experimental strategies registered outside the built-in
    /// set ([`TechniqueRegistry::register`]). `cfg.mode` is only used for
    /// labeling the result; all behavior comes from `technique`.
    ///
    /// # Errors
    ///
    /// As for [`Simulator::new`].
    pub fn with_technique(
        program: Program,
        memory: Memory,
        cfg: SimConfig,
        technique: Box<dyn WrongPathTechnique>,
    ) -> Result<Simulator, SimError> {
        cfg.validate()?;
        let pipeline = Pipeline::for_program(cfg.core.clone(), &program);
        let mut emu = Emulator::with_memory(program, memory)?;
        emu.set_fault_model(cfg.fault_model);
        emu.set_cancel_token(cfg.cancel.clone());
        let mut frontend = technique.build_frontend(emu, &cfg);
        let predictor = BranchPredictor::new(cfg.core.branch);
        let trace = cfg.obs.ring();
        let prof = cfg.obs.prof_handle();
        prof.set_hook_label(cfg.mode.label());
        frontend.install_profiler(prof.clone());
        Ok(Simulator {
            cfg,
            technique,
            frontend,
            predictor,
            pipeline,
            trace,
            prof,
            wp_episode_hist: Log2Hist::new(),
        })
    }

    /// Runs the simulation to completion (program `halt` or the configured
    /// instruction limit) and returns the result.
    ///
    /// # Errors
    ///
    /// [`SimError::CorrectPathFault`] when a correct-path instruction
    /// faults (a workload bug), and [`SimError::WrongPathFault`] when the
    /// emulated part of a wrong path faults under
    /// [`FaultPolicy::AbortRun`](ffsim_emu::FaultPolicy::AbortRun). Under
    /// the default squash policy wrong-path faults are absorbed and only
    /// counted in [`SimResult::faults`].
    ///
    /// With a [`CancelToken`] configured, a fired token surfaces as
    /// [`SimError::Cancelled`] or [`SimError::DeadlineExceeded`] within one
    /// retired instruction — the cooperative cancellation contract the
    /// campaign driver's watchdog relies on.
    pub fn run(mut self) -> Result<SimResult, SimError> {
        let started = Instant::now();
        self.prof.start();
        // The timing pipeline is the run loop's *self time*: one scope
        // spans the whole loop, and the fetch / technique-hook / emulator
        // scopes nest inside it, so per-iteration bookkeeping between the
        // child scopes is attributed (to the pipeline) rather than lost —
        // that glue is what would otherwise break the telescoping floor.
        self.prof.enter(Phase::TimingPipeline);
        let cancel = self.cfg.cancel.clone();
        let mut instructions: u64 = 0;
        // The hot loop consumes the frontend in batched runs: one
        // `fill` call delivers up to `handoff_batch` entries into this
        // reusable buffer, and the per-entry processing below works on
        // plain slice indices. The final batch is clamped to the
        // remaining instruction budget, so the frontend produces exactly
        // as many entries as `handoff_batch = 1` would — batching can
        // never change the simulated stream or the final state digest.
        let batch_cap = self.cfg.handoff_batch;
        let mut batch = ffsim_emu::StreamBuf::with_capacity(batch_cap);

        'run: loop {
            let headroom = match self.cfg.max_instructions {
                Some(max) => max.saturating_sub(instructions),
                None => u64::MAX,
            };
            if headroom == 0 {
                break;
            }
            let want = usize::try_from(headroom).map_or(batch_cap, |h| batch_cap.min(h));
            batch.clear();
            self.prof.enter(Phase::FrontendFetch);
            let filled = self.frontend.fill(&mut batch, want);
            self.prof.exit();
            if filled == 0 {
                break;
            }
            for idx in 0..filled {
                // Cancellation point: one relaxed load per retired
                // instruction.
                if let Some(cause) = cancel.as_ref().and_then(CancelToken::cause) {
                    return Err(cause.into());
                }
                let entries = batch.entries();
                let entry = &entries[idx];
                // The unconsumed tail of this batch: already-delivered
                // future correct-path entries a technique may peek before
                // falling through to the frontend's own runahead buffer.
                let lookahead = &entries[idx + 1..];
                // By reference: a copy of the record, read back in pieces
                // for the calls below, stalls on store forwarding.
                let inst = &entry.inst;
                self.prof.enter(Phase::TechniqueHook);
                self.technique.on_instruction(inst);
                self.prof.exit();
                let times = self.pipeline.feed_correct(inst.pc, &inst.instr, inst.mem);
                instructions += 1;

                let Some(outcome) = inst.branch else {
                    continue;
                };
                let res =
                    self.predictor
                        .observe(inst.pc, &inst.instr, outcome.taken, outcome.next_pc);
                if !res.mispredicted {
                    if outcome.taken {
                        self.pipeline.break_fetch_group();
                    }
                    continue;
                }

                // Misprediction: the branch resolves when it executes.
                let resolve = times.complete;
                let branch_pc = inst.pc;
                self.trace.record(|| {
                    timing_event(
                        times.fetch,
                        TraceEventKind::MispredictDetect { pc: branch_pc },
                    )
                });
                if res.prediction.taken {
                    // Fetch had redirected to the (wrongly) predicted target.
                    self.pipeline.break_fetch_group();
                }

                let wp_before = self.pipeline.wrong_path_injected();
                self.prof.enter(Phase::TechniqueHook);
                let mut cx = MispredictContext {
                    entry,
                    fetch: times.fetch,
                    resolve,
                    wrong_path_start: res.wrong_path_start,
                    lookahead,
                    peek_cap: self.cfg.core.queue_depth,
                    predictor: &self.predictor,
                    pipeline: &mut self.pipeline,
                    frontend: &mut *self.frontend,
                    trace: &mut self.trace,
                    abort: None,
                };
                self.technique.on_mispredict(&mut cx);
                self.prof.exit();
                if let Some(err) = cx.abort {
                    return Err(err);
                }

                if self.trace.is_enabled() {
                    let injected = self.pipeline.wrong_path_injected() - wp_before;
                    self.wp_episode_hist.record(injected);
                    if injected > 0 {
                        // The wrong-path episode spans branch fetch to
                        // resolution, rendered as a B/E duration pair.
                        let start = res.wrong_path_start.unwrap_or(branch_pc);
                        self.trace.record(|| {
                            timing_event(times.fetch, TraceEventKind::WrongPathEnter { pc: start })
                        });
                        self.trace.record(|| {
                            timing_event(
                                resolve,
                                TraceEventKind::WrongPathExit {
                                    instructions: injected,
                                },
                            )
                        });
                    }
                    self.trace.record(|| {
                        timing_event(
                            resolve,
                            TraceEventKind::Squash {
                                instructions: injected,
                            },
                        )
                    });
                    self.trace.record(|| {
                        timing_event(resolve, TraceEventKind::MispredictResolve { pc: branch_pc })
                    });
                }
                self.technique.on_resolve(resolve);
                let resume = resolve + self.cfg.core.redirect_penalty;
                self.trace.record(|| {
                    timing_event(
                        resume,
                        TraceEventKind::FetchRedirect {
                            resume_cycle: resume,
                        },
                    )
                });
                self.pipeline.redirect(resume);
            }
            if self.cfg.max_instructions.is_none() && filled < want {
                // Unbounded run: a short batch means the stream ended.
                break 'run;
            }
        }

        if let Some(cause) = self.frontend.cancelled() {
            // The token fired inside the functional frontend's runahead
            // rather than between retirements.
            return Err(cause.into());
        }
        if let Some(fault) = self.frontend.fault() {
            return Err(SimError::CorrectPathFault {
                fault,
                retired: instructions,
            });
        }

        self.prof.exit();
        self.prof.finish();
        let obs = if self.cfg.obs.any() {
            // Timing-model and frontend-track events share the ring and the
            // cycle axis; they are separate tracks in the Chrome export. In
            // profile-only mode the ring is disabled and the event vector
            // stays empty.
            Some(ObsReport {
                events: self.trace.take(),
                dropped_events: self.trace.dropped(),
                wp_episode_len: self.wp_episode_hist,
                conv_distance: self.technique.conv_distance(),
                profile: self.prof.snapshot(),
            })
        } else {
            None
        };

        let technique_stats = self.technique.stats();
        let h = self.pipeline.hierarchy();
        Ok(SimResult {
            mode: self.cfg.mode,
            instructions,
            cycles: self.pipeline.cycles(),
            wrong_path_instructions: self.pipeline.wrong_path_injected(),
            wrong_path_emulated: technique_stats.wrong_path_emulated,
            branch: self.predictor.stats(),
            convergence: technique_stats.convergence,
            code_cache: technique_stats.code_cache,
            block_cache: BlockCacheStats::default(),
            l1i: h.l1i().stats(),
            l1d: h.l1d().stats(),
            l2: h.l2().stats(),
            llc: h.llc().stats(),
            dram: h.dram().stats(),
            itlb: h.itlb().stats(),
            dtlb: h.dtlb().stats(),
            wall_time: started.elapsed(),
            faults: technique_stats.faults,
            state_digest: self.frontend.emulator().digest(),
            cpi: self.pipeline.cpi(),
            obs,
        })
    }
}

/// Convenience: run one program under all four built-in wrong-path
/// techniques with the same core configuration, returning results in
/// [`WrongPathMode::ALL`] order (the [`TechniqueRegistry::builtin`]
/// registration order). The program and memory image are reused via
/// cloning, so all four runs see identical workloads.
///
/// The four runs are independent (each gets its own emulator, predictor
/// and pipeline), so they execute on separate threads; results are
/// collected in registration order, which keeps the output — and the
/// choice of which error is reported — deterministic regardless of which
/// thread finishes first.
///
/// # Errors
///
/// The first [`SimError`] (in registration order) any of the runs
/// produces.
pub fn run_all_modes(
    program: &Program,
    memory: &Memory,
    core: &CoreConfig,
    max_instructions: Option<u64>,
) -> Result<[SimResult; 4], SimError> {
    let registry = TechniqueRegistry::builtin();
    let results: Vec<Result<SimResult, SimError>> = std::thread::scope(|s| {
        let handles: Vec<_> = registry
            .entries()
            .map(|(label, mode)| {
                let registry = &registry;
                s.spawn(move || {
                    let mut cfg = SimConfig::with_core(core.clone(), mode);
                    cfg.max_instructions = max_instructions;
                    let technique = registry
                        .build(label, &cfg)
                        .expect("iterated entries are buildable");
                    Simulator::with_technique(program.clone(), memory.clone(), cfg, technique)?
                        .run()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    let mut out = Vec::with_capacity(results.len());
    for result in results {
        out.push(result?);
    }
    Ok(out.try_into().expect("exactly four built-in techniques"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsim_isa::{Asm, Reg};

    fn tiny(mode: WrongPathMode) -> SimConfig {
        SimConfig::with_core(CoreConfig::tiny_for_tests(), mode)
    }

    /// A loop with a data-dependent branch over zero-initialized memory:
    /// never taken, so the only mispredictions are cold ones.
    fn simple_loop(n: i64) -> Program {
        let (i, limit) = (Reg::new(1), Reg::new(2));
        let mut a = Asm::new();
        a.li(i, n);
        a.li(limit, 0);
        a.label("loop");
        a.addi(i, i, -1);
        a.bnez(i, "loop");
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn all_modes_agree_on_instruction_count() {
        let p = simple_loop(200);
        let results =
            run_all_modes(&p, &Memory::new(), &CoreConfig::tiny_for_tests(), None).unwrap();
        let counts: Vec<u64> = results.iter().map(|r| r.instructions).collect();
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "functional behaviour must be identical across modes: {counts:?}"
        );
        assert_eq!(counts[0], 1 + 1 + 400 + 1);
        for r in &results {
            assert!(r.cycles > 0);
        }
        // Bit-identical final architectural state across all four modes.
        let digests: Vec<u64> = results.iter().map(|r| r.state_digest).collect();
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "state digests must agree across modes: {digests:?}"
        );
    }

    #[test]
    fn nowp_never_injects_wrong_path() {
        let p = simple_loop(100);
        let r = Simulator::new(p, Memory::new(), tiny(WrongPathMode::NoWrongPath))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(r.wrong_path_instructions, 0);
        assert_eq!(r.l1d.misses.get(ffsim_uarch::PathKind::Wrong), 0);
        assert_eq!(r.l1i.misses.get(ffsim_uarch::PathKind::Wrong), 0);
    }

    #[test]
    fn wrong_path_modes_inject_on_loop_exit() {
        let p = simple_loop(100);
        for mode in [
            WrongPathMode::InstructionReconstruction,
            WrongPathMode::ConvergenceExploitation,
            WrongPathMode::WrongPathEmulation,
        ] {
            let r = Simulator::new(p.clone(), Memory::new(), tiny(mode))
                .unwrap()
                .run()
                .unwrap();
            assert!(
                r.wrong_path_instructions > 0,
                "{mode}: loop-exit misprediction must inject wrong path"
            );
        }
    }

    #[test]
    fn instrec_never_touches_data_cache_on_wrong_path() {
        let p = simple_loop(100);
        let r = Simulator::new(
            p,
            Memory::new(),
            tiny(WrongPathMode::InstructionReconstruction),
        )
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(r.l1d.misses.get(ffsim_uarch::PathKind::Wrong), 0);
        assert_eq!(r.l1d.hits.get(ffsim_uarch::PathKind::Wrong), 0);
    }

    #[test]
    fn max_instructions_truncates() {
        let p = simple_loop(1000);
        let mut cfg = tiny(WrongPathMode::NoWrongPath);
        cfg.max_instructions = Some(50);
        let r = Simulator::new(p, Memory::new(), cfg)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(r.instructions, 50);
    }

    #[test]
    fn branch_stats_track_the_loop() {
        let p = simple_loop(100);
        let r = Simulator::new(p, Memory::new(), tiny(WrongPathMode::NoWrongPath))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(r.branch.cond_branches, 100);
        // The back edge trains quickly; the loop exit mispredicts.
        assert!(r.branch.cond_mispredicts >= 1);
        assert!(r.branch.cond_mispredicts <= 5);
    }

    /// A loop streaming twice over an array: the first pass pays
    /// compulsory misses, the second mostly hits.
    fn streaming_loop(elems: i64) -> Program {
        let (i, n, base, v) = (Reg::new(1), Reg::new(2), Reg::new(5), Reg::new(6));
        let mut a = Asm::new();
        a.li(base, 0x1000_0000);
        a.li(i, 0);
        a.li(n, elems);
        a.label("outer");
        a.slli(v, i, 3);
        a.add(v, v, base);
        a.ld(v, 0, v);
        a.addi(i, i, 1);
        a.blt(i, n, "outer");
        // Second pass over the same data.
        a.li(i, 0);
        a.label("second");
        a.slli(v, i, 3);
        a.add(v, v, base);
        a.ld(v, 0, v);
        a.addi(i, i, 1);
        a.blt(i, n, "second");
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let p = simple_loop(5);
        let mut cfg = tiny(WrongPathMode::NoWrongPath);
        cfg.wrong_path_watchdog = Some(0);
        assert!(matches!(
            Simulator::new(p.clone(), Memory::new(), cfg),
            Err(SimError::InvalidConfig(_))
        ));
        let mut cfg = tiny(WrongPathMode::WrongPathEmulation);
        cfg.wp_pc_corruption = Some(PcCorruption {
            every_nth: 0,
            xor_mask: 1,
        });
        assert!(Simulator::new(p, Memory::new(), cfg).is_err());
    }

    #[test]
    fn zero_sized_windows_are_rejected_not_panicking() {
        // A zero-sized window structure or code cache would previously
        // panic deep inside the timing model; validation must surface a
        // typed error instead.
        let p = simple_loop(5);
        for tweak in [
            (|cfg: &mut SimConfig| cfg.core.rob_size = 0) as fn(&mut SimConfig),
            |cfg| cfg.core.iq_size = 0,
            |cfg| cfg.core.load_queue = 0,
            |cfg| cfg.core.store_queue = 0,
            |cfg| cfg.code_cache_capacity = Some(0),
        ] {
            let mut cfg = tiny(WrongPathMode::NoWrongPath);
            tweak(&mut cfg);
            assert!(matches!(
                Simulator::new(p.clone(), Memory::new(), cfg),
                Err(SimError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn cancel_token_surfaces_as_typed_error() {
        // A pre-fired token stops the run before the first retirement.
        let token = CancelToken::new();
        token.cancel();
        let mut cfg = tiny(WrongPathMode::NoWrongPath);
        cfg.cancel = Some(token);
        let err = Simulator::new(simple_loop(100), Memory::new(), cfg)
            .unwrap()
            .run()
            .unwrap_err();
        assert_eq!(err, SimError::Cancelled);

        // An expired deadline maps to DeadlineExceeded.
        let token = CancelToken::new();
        token.expire();
        let mut cfg = tiny(WrongPathMode::WrongPathEmulation);
        cfg.cancel = Some(token);
        let err = Simulator::new(simple_loop(100), Memory::new(), cfg)
            .unwrap()
            .run()
            .unwrap_err();
        assert_eq!(err, SimError::DeadlineExceeded);
    }

    #[test]
    fn cancellation_from_another_thread_stops_a_long_run() {
        // An effectively-unbounded loop; the watcher thread fires the
        // token and the run must come back with the typed error rather
        // than spinning forever.
        let token = CancelToken::new();
        let watcher = token.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            watcher.expire();
        });
        let mut cfg = tiny(WrongPathMode::ConvergenceExploitation);
        cfg.cancel = Some(token);
        let err = Simulator::new(simple_loop(2_000_000_000), Memory::new(), cfg)
            .unwrap()
            .run()
            .unwrap_err();
        assert_eq!(err, SimError::DeadlineExceeded);
        handle.join().unwrap();
    }

    #[test]
    fn correct_path_fault_is_a_typed_error() {
        // Two stores to either side of an address limit: the second
        // faults on the correct path.
        let a1 = Reg::new(1);
        let a2 = Reg::new(2);
        let mut a = Asm::new();
        a.li(a1, 0x1000_0000);
        a.li(a2, 0x2000_0000);
        a.sd(a1, 0, a1);
        a.sd(a2, 0, a2);
        a.halt();
        let p = a.assemble().unwrap();
        let mut cfg = tiny(WrongPathMode::NoWrongPath);
        cfg.fault_model.addr_limit = Some(0x2000_0000);
        let err = Simulator::new(p, Memory::new(), cfg)
            .unwrap()
            .run()
            .unwrap_err();
        match err {
            SimError::CorrectPathFault { fault, retired } => {
                assert!(matches!(fault, ffsim_emu::Fault::OutOfRange { .. }));
                assert_eq!(retired, 3, "li, li, sd retire before the faulting sd");
            }
            other => panic!("expected a correct-path fault, got {other}"),
        }
    }

    #[test]
    fn cpi_components_sum_to_cycles_in_every_mode() {
        let p = streaming_loop(100);
        for mode in WrongPathMode::ALL {
            let r = Simulator::new(p.clone(), Memory::new(), tiny(mode))
                .unwrap()
                .run()
                .unwrap();
            assert_eq!(
                r.cpi.total(),
                r.cycles,
                "{mode}: CPI stack must sum exactly to cycles"
            );
            assert!(r.cpi.get(ffsim_obs::StallClass::Base) > 0, "{mode}");
        }
    }

    #[test]
    fn wrong_path_fetch_cycles_appear_only_in_injecting_modes() {
        use ffsim_obs::StallClass;
        let p = simple_loop(200);
        let nowp = Simulator::new(p.clone(), Memory::new(), tiny(WrongPathMode::NoWrongPath))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            nowp.cpi.get(StallClass::WrongPathFetch),
            0,
            "no wrong path, no stolen fetch cycles"
        );
        assert_eq!(nowp.cpi.total_wrong(), 0);
        let wpemul = Simulator::new(p, Memory::new(), tiny(WrongPathMode::WrongPathEmulation))
            .unwrap()
            .run()
            .unwrap();
        assert!(
            wpemul.cpi.get_lane(StallClass::WrongPathFetch, true) > 0,
            "wrong-path emulation must charge stolen fetch cycles: {:?}",
            wpemul.cpi
        );
    }

    #[test]
    fn obs_run_collects_trace_and_histograms() {
        let p = simple_loop(100);
        let mut cfg = tiny(WrongPathMode::ConvergenceExploitation);
        cfg.obs = ObsConfig::enabled();
        let r = Simulator::new(p, Memory::new(), cfg)
            .unwrap()
            .run()
            .unwrap();
        let obs = r.obs.expect("enabled run must carry an ObsReport");
        assert!(!obs.events.is_empty(), "mispredictions must leave events");
        assert_eq!(
            obs.wp_episode_len.count(),
            r.branch.mispredicts(),
            "one episode sample per misprediction"
        );
        assert!(
            obs.events
                .iter()
                .any(|e| matches!(e.kind, TraceEventKind::MispredictResolve { .. })),
            "resolve events present"
        );
        // Disabled runs carry no report.
        let p2 = simple_loop(100);
        let r2 = Simulator::new(
            p2,
            Memory::new(),
            tiny(WrongPathMode::ConvergenceExploitation),
        )
        .unwrap()
        .run()
        .unwrap();
        assert!(r2.obs.is_none());
    }

    #[test]
    fn frontend_trace_events_share_the_cycle_timebase() {
        // Timebase unification: wrong-path emulation events must land on
        // the fetch cycle of their triggering branch — the same cycle the
        // timing model stamps on its MispredictDetect event.
        let p = simple_loop(100);
        let mut cfg = tiny(WrongPathMode::WrongPathEmulation);
        cfg.obs = ObsConfig::enabled();
        let r = Simulator::new(p, Memory::new(), cfg)
            .unwrap()
            .run()
            .unwrap();
        let obs = r.obs.expect("enabled run must carry an ObsReport");
        let detect_cycles: std::collections::HashSet<u64> = obs
            .events
            .iter()
            .filter(|e| {
                e.source == TraceSource::Timing
                    && matches!(e.kind, TraceEventKind::MispredictDetect { .. })
            })
            .map(|e| e.ts)
            .collect();
        let frontend: Vec<&TraceEvent> = obs
            .events
            .iter()
            .filter(|e| e.source == TraceSource::Frontend)
            .collect();
        assert!(
            !frontend.is_empty(),
            "wpemul episodes must leave frontend events"
        );
        for e in &frontend {
            assert!(
                detect_cycles.contains(&e.ts),
                "frontend event at ts {} not on a branch fetch cycle {detect_cycles:?}",
                e.ts
            );
        }
    }

    #[test]
    fn observability_has_no_observer_effect() {
        // The hard invariant: tracing on vs. off yields identical timing
        // and architectural results in every mode.
        let p = streaming_loop(60);
        for mode in WrongPathMode::ALL {
            let run = |enabled: bool| {
                let mut cfg = tiny(mode);
                cfg.obs = if enabled {
                    ObsConfig::enabled()
                } else {
                    ObsConfig::disabled()
                };
                let r = Simulator::new(p.clone(), Memory::new(), cfg)
                    .unwrap()
                    .run()
                    .unwrap();
                (
                    r.cycles,
                    r.instructions,
                    r.wrong_path_instructions,
                    r.state_digest,
                )
            };
            assert_eq!(run(false), run(true), "{mode}: observer effect detected");
        }
    }

    #[test]
    fn ipc_is_plausible() {
        let p = simple_loop(500);
        let r = Simulator::new(p, Memory::new(), tiny(WrongPathMode::NoWrongPath))
            .unwrap()
            .run()
            .unwrap();
        // The loop body is a 1-cycle dependence chain (addi) plus a branch:
        // IPC must be positive and below the 6-wide frontend bound.
        let ipc = r.ipc();
        assert!(ipc > 0.1, "ipc {ipc}");
        assert!(ipc <= 6.0, "ipc {ipc}");
    }
}
