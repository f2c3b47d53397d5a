//! Full functional wrong-path emulation (paper §III-B) — the accuracy
//! reference.

use crate::error::SimError;
use crate::metrics::FaultStats;
use crate::sim::SimConfig;
use crate::technique::mode::WrongPathMode;
use crate::technique::replica::ReplicaPolicy;
use crate::technique::{inject_wrong_path, MispredictContext, TechniqueStats, WrongPathTechnique};
use ffsim_emu::{
    BranchOracle, BranchOutcome, Emulator, Fault, FaultPolicy, FetchSource, InstrQueue,
    WrongPathStop,
};
use ffsim_isa::{Addr, Instr};
use ffsim_obs::{TraceEvent, TraceEventKind, TraceSource};
use ffsim_uarch::WrongPathPredictor;

/// The functional frontend checkpoints the wrong path of every branch its
/// branch-predictor replica ([`ReplicaPolicy`]) predicts mispredicted, and
/// the technique emulates it from that checkpoint when the timing model
/// detects the misprediction — one instruction per instruction the
/// pipeline fetches, so the tail the branch's resolution cuts off is never
/// emulated. The one exception is a watchdog set within the budget: the
/// wrong path is then emulated on to the watchdog, so a runaway trips it
/// however early the branch resolves.
#[derive(Debug)]
pub struct EmulationTechnique {
    budget: usize,
    watchdog: Option<u64>,
    fault_policy: FaultPolicy,
    faults: FaultStats,
    emulated: u64,
}

impl EmulationTechnique {
    /// Creates the technique with the configured per-miss wrong-path
    /// budget, watchdog and fault policy.
    #[must_use]
    pub fn new(cfg: &SimConfig) -> EmulationTechnique {
        EmulationTechnique {
            budget: cfg.core.wrong_path_budget(),
            watchdog: cfg.wrong_path_watchdog,
            fault_policy: cfg.fault_policy,
            faults: FaultStats::default(),
            emulated: 0,
        }
    }

    /// Whether the watchdog can end a wrong path before the budget does.
    fn watchdog_binds(&self) -> bool {
        self.watchdog.is_some_and(|w| w <= self.budget as u64)
    }

    /// Counts (or, under [`FaultPolicy::AbortRun`], raises) the stop the
    /// emulated part of a wrong path reached.
    fn account(&mut self, stop: Option<WrongPathStop>, cx: &mut MispredictContext<'_>) {
        let fault = match stop {
            Some(WrongPathStop::IllegalPc(_)) => {
                self.faults.illegal_pc_stops += 1;
                return;
            }
            Some(WrongPathStop::Cancelled(cause)) => {
                cx.abort = Some(cause.into());
                return;
            }
            Some(WrongPathStop::Fault(fault)) => fault,
            Some(WrongPathStop::WatchdogExceeded { pc, limit }) => {
                Fault::WatchdogExceeded { pc, limit }
            }
            _ => return,
        };
        match (self.fault_policy, fault) {
            (FaultPolicy::AbortRun, _) => cx.abort = Some(SimError::WrongPathFault(fault)),
            (FaultPolicy::SquashWrongPath, Fault::WatchdogExceeded { .. }) => {
                self.faults.watchdog_trips += 1;
            }
            (FaultPolicy::SquashWrongPath, _) => self.faults.squashed_faults += 1,
        }
    }
}

/// Steers wrong-path branches by the timing model's speculative
/// predictions (paper §III-A: "the predicted target is used to continue
/// the wrong path"), without training the predictor.
#[derive(Clone, Debug)]
pub struct PredictorSteer<'a>(pub WrongPathPredictor<'a>);

impl BranchOracle for PredictorSteer<'_> {
    fn next_fetch_pc(&mut self, pc: Addr, instr: &Instr, _computed: BranchOutcome) -> Option<Addr> {
        self.0.predict(pc, instr).next_pc
    }
}

impl WrongPathTechnique for EmulationTechnique {
    fn mode(&self) -> WrongPathMode {
        WrongPathMode::WrongPathEmulation
    }

    fn build_frontend(&self, mut emu: Emulator, cfg: &SimConfig) -> Box<dyn FetchSource> {
        // Wrong paths are emulated after the frontend has run past their
        // branch; the store log lets their loads see memory as of it.
        emu.set_store_log(true);
        Box::new(InstrQueue::new(
            emu,
            ReplicaPolicy::new(cfg.core.branch).with_pc_corruption(cfg.wp_pc_corruption),
            cfg.core.queue_depth,
        ))
    }

    fn on_mispredict(&mut self, cx: &mut MispredictContext<'_>) {
        // The frontend replica predicted this misprediction and
        // checkpointed its wrong path; both predictors are deterministic on
        // the program-order stream, so the checkpoint is present exactly
        // when we mispredict with a known wrong-path start.
        let entry = cx.entry;
        debug_assert_eq!(
            entry.wrong_path.is_some(),
            cx.wrong_path_start.is_some(),
            "frontend replica desynchronized at pc {:#x}",
            entry.inst.pc
        );
        let Some(checkpoint) = &entry.wrong_path else {
            return;
        };
        let emu = cx.frontend.emulator();
        let to_watchdog = self.watchdog_binds();
        let steer = PredictorSteer(cx.predictor.wrong_path_view());
        let mut stream = emu.wrong_path_stream(
            entry.inst.seq,
            checkpoint,
            self.budget,
            self.watchdog,
            steer,
        );
        // Each instruction is emulated as the pipeline pulls it.
        inject_wrong_path(cx.pipeline, &mut stream, cx.resolve, self.budget);
        if to_watchdog {
            // A watchdog within the budget asks whether the wrong path runs
            // away, which the fetched prefix alone cannot tell: emulate on
            // to the watchdog, injecting nothing.
            stream.by_ref().for_each(drop);
        }
        let (emulated, stop) = (stream.emitted() as u64, stream.stop());
        self.emulated += emulated;

        // Frontend-track events, stamped with the branch's fetch cycle.
        let ts = cx.fetch;
        let event = |kind| TraceEvent {
            ts,
            source: TraceSource::Frontend,
            kind,
        };
        let start = checkpoint.start;
        cx.trace
            .record(|| event(TraceEventKind::WrongPathEnter { pc: start }));
        match stop {
            Some(WrongPathStop::WatchdogExceeded { pc, limit }) => {
                cx.trace
                    .record(|| event(TraceEventKind::WatchdogTrip { pc, limit }));
            }
            Some(WrongPathStop::Fault(_)) => {
                cx.trace.record(|| {
                    event(TraceEventKind::Squash {
                        instructions: emulated,
                    })
                });
            }
            _ => {}
        }
        cx.trace.record(|| {
            event(TraceEventKind::WrongPathExit {
                instructions: emulated,
            })
        });
        self.account(stop, cx);
    }

    fn stats(&self) -> TechniqueStats {
        TechniqueStats {
            faults: self.faults,
            wrong_path_emulated: self.emulated,
            ..TechniqueStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::EmulationTechnique;
    use crate::pipeline::Pipeline;
    use crate::sim::{SimConfig, Simulator};
    use crate::technique::mode::WrongPathMode;
    use crate::technique::{MispredictContext, WrongPathTechnique};
    use crate::SimError;
    use ffsim_emu::{CancelToken, Emulator, Fault, FaultPolicy, Memory, StreamBuf};
    use ffsim_isa::{Asm, Program, Reg};
    use ffsim_obs::{EventRing, ObsConfig, TraceEventKind, TraceSource};
    use ffsim_uarch::{BranchPredictor, CoreConfig};

    fn cfg() -> SimConfig {
        let mut cfg = SimConfig::with_core(
            CoreConfig::tiny_for_tests(),
            WrongPathMode::WrongPathEmulation,
        );
        cfg.obs = ObsConfig::disabled();
        cfg
    }

    /// A trained loop whose exit mispredicts. The wrong path re-enters the
    /// body with `x1 = 0`: its third instruction divides by zero (a fault
    /// under `trap_div_zero`), and without trapping it counts down from
    /// -1 forever (watchdog fodder).
    fn exit_fault_program() -> Program {
        let (x1, x2, x3, x4) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
        let mut a = Asm::new();
        a.li(x1, 200);
        a.li(x2, 0x8000);
        a.label("loop");
        a.andi(x4, x1, 1);
        a.add(x4, x4, x2);
        a.div(x3, x2, x1);
        a.addi(x1, x1, -1);
        a.bnez(x1, "loop");
        a.halt();
        a.assemble().unwrap()
    }

    fn run(cfg: SimConfig) -> Result<crate::SimResult, SimError> {
        Simulator::new(exit_fault_program(), Memory::new(), cfg)?.run()
    }

    #[test]
    fn wrong_path_fault_squashes_by_default() {
        let mut strict = cfg();
        strict.fault_model.trap_div_zero = true;
        let clean = run(cfg()).unwrap();
        let r = run(strict).unwrap();
        assert_eq!(r.instructions, clean.instructions);
        assert_eq!(r.state_digest, clean.state_digest);
        assert!(r.faults.squashed_faults >= 1, "{:?}", r.faults);
        assert_eq!(r.faults.watchdog_trips, 0);
        assert_eq!(clean.faults.squashed_faults, 0);
    }

    #[test]
    fn wrong_path_fault_aborts_under_abort_policy() {
        let mut strict = cfg();
        strict.fault_model.trap_div_zero = true;
        strict.fault_policy = FaultPolicy::AbortRun;
        match run(strict) {
            Err(SimError::WrongPathFault(Fault::DivideByZero { .. })) => {}
            other => panic!("expected a wrong-path divide fault, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_trips_are_counted_and_squash() {
        let mut tight = cfg();
        tight.wrong_path_watchdog = Some(2);
        let r = run(tight.clone()).unwrap();
        assert!(r.faults.watchdog_trips >= 1, "{:?}", r.faults);
        assert_eq!(r.state_digest, run(cfg()).unwrap().state_digest);
        tight.fault_policy = FaultPolicy::AbortRun;
        assert!(matches!(
            run(tight),
            Err(SimError::WrongPathFault(Fault::WatchdogExceeded {
                limit: 2,
                ..
            }))
        ));
    }

    #[test]
    fn faults_past_resolution_are_neither_counted_nor_fatal() {
        // A two-instruction wrong-path budget: the pipeline never fetches
        // the faulting division, so it is never emulated, counted or fatal.
        let mut short = cfg();
        short.core.rob_size = 2;
        short.core.frontend_depth = 0;
        short.fault_model.trap_div_zero = true;
        short.fault_policy = FaultPolicy::AbortRun;
        let r = run(short).unwrap();
        assert_eq!(r.faults, crate::FaultStats::default());
        assert!(r.wrong_path_emulated > 0);
    }

    #[test]
    fn a_watchdog_within_the_budget_is_emulated_up_to() {
        // The loop exit resolves long before the pipeline fetches a
        // budget's worth of the runaway wrong path; a watchdog at the
        // budget must trip all the same.
        let mut tight = cfg();
        tight.wrong_path_watchdog = Some(tight.core.wrong_path_budget() as u64);
        let r = run(tight).unwrap();
        assert!(r.faults.watchdog_trips >= 1, "{:?}", r.faults);
        assert!(r.wrong_path_emulated > r.wrong_path_instructions);
        let free = run(cfg()).unwrap();
        assert_eq!(free.faults, crate::FaultStats::default());
        assert_eq!(free.wrong_path_emulated, free.wrong_path_instructions);
    }

    #[test]
    fn wrong_path_trace_records_episodes_on_the_cycle_axis() {
        let mut traced = cfg();
        traced.obs = ObsConfig::enabled();
        traced.wrong_path_watchdog = Some(2);
        let r = run(traced).unwrap();
        let obs = r.obs.expect("enabled run carries a report");
        let frontend: Vec<_> = obs
            .events
            .iter()
            .filter(|e| e.source == TraceSource::Frontend)
            .collect();
        let kinds: Vec<&str> = frontend.iter().map(|e| e.kind.name()).collect();
        assert!(kinds
            .windows(3)
            .any(|w| w == ["wrong-path", "watchdog-trip", "wrong-path"]));
        let exits: u64 = frontend
            .iter()
            .map(|e| match e.kind {
                TraceEventKind::WrongPathExit { instructions } => instructions,
                _ => 0,
            })
            .sum();
        assert_eq!(exits, r.wrong_path_emulated);
    }

    /// Runs `on_mispredict` on the first checkpointed branch of
    /// [`exit_fault_program`], with the emulator's token fired by `fire`
    /// after the frontend delivered that branch; returns the abort the
    /// technique asked for.
    fn abort_on_fired_token(fire: fn(&CancelToken)) -> Option<SimError> {
        let cfg = cfg();
        let mut technique = EmulationTechnique::new(&cfg);
        let token = CancelToken::new();
        let mut emu = Emulator::new(exit_fault_program()).unwrap();
        emu.set_cancel_token(Some(token.clone()));
        let mut frontend = technique.build_frontend(emu, &cfg);
        let mut buf = StreamBuf::new();
        let entry = loop {
            buf.clear();
            assert_eq!(frontend.fill(&mut buf, 1), 1, "no checkpointed branch");
            if buf.entries()[0].wrong_path.is_some() {
                break buf.entries()[0].clone();
            }
        };
        fire(&token);
        let predictor = BranchPredictor::new(cfg.core.branch);
        let mut pipeline = Pipeline::new(cfg.core.clone());
        let mut trace = EventRing::disabled();
        let mut cx = MispredictContext {
            entry: &entry,
            fetch: 0,
            resolve: 100,
            wrong_path_start: entry.wrong_path.as_ref().map(|cp| cp.start),
            lookahead: &[],
            peek_cap: cfg.core.queue_depth,
            predictor: &predictor,
            pipeline: &mut pipeline,
            frontend: &mut *frontend,
            trace: &mut trace,
            abort: None,
        };
        technique.on_mispredict(&mut cx);
        assert_eq!(technique.stats().wrong_path_emulated, 0);
        cx.abort
    }

    #[test]
    fn cancellation_mid_wrong_path_aborts_with_its_cause() {
        assert_eq!(
            abort_on_fired_token(CancelToken::cancel),
            Some(SimError::Cancelled)
        );
        assert_eq!(
            abort_on_fired_token(CancelToken::expire),
            Some(SimError::DeadlineExceeded)
        );
    }
}
