//! Full functional wrong-path emulation (paper §III-B) — the accuracy
//! reference.

use crate::sim::SimConfig;
use crate::technique::mode::WrongPathMode;
use crate::technique::replica::ReplicaPolicy;
use crate::technique::{emulated_feed, inject_wrong_path, MispredictContext, WrongPathTechnique};
use ffsim_emu::{Emulator, FetchSource, InstrQueue};

/// The functional frontend checkpoints, redirects, and fully emulates the
/// wrong path: a branch-predictor replica in the frontend
/// ([`ReplicaPolicy`]) predicts each misprediction ahead of time and
/// attaches the emulated wrong-path bundle to the triggering stream entry.
#[derive(Debug)]
pub struct EmulationTechnique {
    budget: usize,
}

impl EmulationTechnique {
    /// Creates the technique with the configured per-miss wrong-path
    /// budget.
    #[must_use]
    pub fn new(cfg: &SimConfig) -> EmulationTechnique {
        EmulationTechnique {
            budget: cfg.core.wrong_path_budget(),
        }
    }
}

impl WrongPathTechnique for EmulationTechnique {
    fn mode(&self) -> WrongPathMode {
        WrongPathMode::WrongPathEmulation
    }

    fn build_frontend(&self, emu: Emulator, cfg: &SimConfig) -> Box<dyn FetchSource> {
        Box::new(
            InstrQueue::new(
                emu,
                ReplicaPolicy::new(cfg.core.branch, cfg.core.wrong_path_budget())
                    .with_pc_corruption(cfg.wp_pc_corruption),
                cfg.core.queue_depth,
            )
            .with_fault_policy(cfg.fault_policy)
            .with_watchdog(cfg.wrong_path_watchdog)
            .with_trace(cfg.obs.ring()),
        )
    }

    fn on_mispredict(&mut self, cx: &mut MispredictContext<'_>) {
        // The frontend replica predicted this misprediction and emulated
        // the wrong path; both predictors are deterministic on the
        // program-order stream, so the bundle is present exactly when we
        // mispredict — unless the stream ended abnormally (pending
        // abort-policy fault or cancellation), in which case the trailing
        // entries legitimately carry no bundle.
        debug_assert!(
            cx.entry.wrong_path.is_some() == cx.wrong_path_start.is_some()
                || cx.frontend.fault().is_some()
                || cx.frontend.cancelled().is_some(),
            "frontend replica desynchronized at pc {:#x}",
            cx.entry.inst.pc
        );
        if let Some(bundle) = &cx.entry.wrong_path {
            // The bundle holds packed records; the instructions the
            // pipeline takes are re-read from the program text as they
            // are injected.
            let program = cx.frontend.emulator().program();
            let feed = emulated_feed(&bundle.insts, program);
            inject_wrong_path(cx.pipeline, feed, cx.resolve, self.budget, None);
        }
    }
}
