//! Convergence exploitation (paper §III-C) — the paper's novel technique.

use crate::sim::SimConfig;
use crate::technique::code_cache::CodeCache;
use crate::technique::mode::WrongPathMode;
use crate::technique::wrongpath::{
    ConvergenceConfig, ConvergenceStats, ConvergenceStream, FutureCache, FutureWindow, Walk,
    WalkBuf,
};
use crate::technique::{inject_wrong_path, MispredictContext, TechniqueStats, WrongPathTechnique};
use ffsim_emu::DynInst;
use ffsim_obs::{Log2Hist, TraceEvent, TraceEventKind, TraceSource};

/// Instruction reconstruction plus memory-address recovery: the future
/// correct path — visible thanks to functional runahead — is scanned for a
/// convergence point with the reconstructed wrong path, and addresses of
/// register-independence-checked operations are copied across.
#[derive(Debug)]
pub struct ConvergenceTechnique {
    code_cache: CodeCache,
    convergence: ConvergenceConfig,
    budget: usize,
    rob: usize,
    stats: ConvergenceStats,
    /// Convergence distances (observability histogram).
    dist_hist: Log2Hist,
    /// Future correct-path instructions kept across episodes.
    future: FutureCache,
    /// Reusable buffers for the reconstructed wrong path.
    walk_buf: WalkBuf,
}

impl ConvergenceTechnique {
    /// Creates the technique with the configured convergence tunables,
    /// code-cache bound, and window sizes.
    #[must_use]
    pub fn new(cfg: &SimConfig) -> ConvergenceTechnique {
        ConvergenceTechnique {
            code_cache: match cfg.code_cache_capacity {
                Some(cap) => CodeCache::with_capacity(cap),
                None => CodeCache::unbounded(),
            },
            convergence: cfg.convergence,
            budget: cfg.core.wrong_path_budget(),
            rob: cfg.core.rob_size,
            stats: ConvergenceStats::default(),
            dist_hist: Log2Hist::new(),
            future: FutureCache::default(),
            walk_buf: WalkBuf::default(),
        }
    }
}

impl WrongPathTechnique for ConvergenceTechnique {
    fn mode(&self) -> WrongPathMode {
        WrongPathMode::ConvergenceExploitation
    }

    fn on_instruction(&mut self, inst: &DynInst) {
        self.code_cache.insert(inst.pc, inst.instr);
    }

    fn on_mispredict(&mut self, cx: &mut MispredictContext<'_>) {
        let Some(start) = cx.wrong_path_start else {
            return;
        };
        let walk = Walk::new(
            &mut self.code_cache,
            cx.predictor,
            start,
            self.budget,
            &mut self.walk_buf,
        );
        // The future correct path comes out of the runahead queue (§III-C:
        // "take a peek in the future correct-path instructions"): the batch
        // tail first, then the frontend's buffer, at most one ROB deep.
        let future = FutureWindow::new(
            cx.entry.inst.seq + 1,
            cx.lookahead,
            Some(&mut *cx.frontend),
            cx.peek_cap.min(self.rob),
            &mut self.future,
        );
        let mut stream = ConvergenceStream::new(walk, future, self.convergence);
        if cx.trace.is_enabled() {
            if let Some(distance) = stream.convergence_distance() {
                self.dist_hist.record(distance as u64);
                let resolve = cx.resolve;
                cx.trace.record(|| TraceEvent {
                    ts: resolve,
                    source: TraceSource::Timing,
                    kind: TraceEventKind::ConvergenceHit {
                        distance: distance as u64,
                    },
                });
            }
        }
        inject_wrong_path(cx.pipeline, &mut stream, cx.resolve, self.budget);
        self.stats += stream.stats();
    }

    fn stats(&self) -> TechniqueStats {
        TechniqueStats {
            convergence: self.stats,
            code_cache: self.code_cache.stats(),
            ..TechniqueStats::default()
        }
    }

    fn reset_stats(&mut self) {
        self.code_cache.reset_stats();
        self.stats = ConvergenceStats::default();
        self.dist_hist = Log2Hist::new();
    }

    fn conv_distance(&self) -> Log2Hist {
        self.dist_hist
    }
}
