//! Instruction reconstruction from the code cache (paper §III-A).

use crate::sim::SimConfig;
use crate::technique::code_cache::CodeCache;
use crate::technique::mode::WrongPathMode;
use crate::technique::wrongpath::Reconstruct;
use crate::technique::{inject_wrong_path, MispredictContext, TechniqueStats, WrongPathTechnique};
use ffsim_emu::DynInst;

/// Wrong-path instructions are rebuilt from a [`CodeCache`] of previously
/// seen decode information, steered by speculative branch predictions.
/// Memory addresses remain unknown, so wrong-path memory operations are
/// modeled as data-cache hits and never touch cache state.
#[derive(Debug)]
pub struct ReconstructionTechnique {
    code_cache: CodeCache,
    budget: usize,
}

impl ReconstructionTechnique {
    /// Creates the technique with the configured code-cache bound and
    /// per-miss wrong-path budget.
    #[must_use]
    pub fn new(cfg: &SimConfig) -> ReconstructionTechnique {
        ReconstructionTechnique {
            code_cache: match cfg.code_cache_capacity {
                Some(cap) => CodeCache::with_capacity(cap),
                None => CodeCache::unbounded(),
            },
            budget: cfg.core.wrong_path_budget(),
        }
    }
}

impl WrongPathTechnique for ReconstructionTechnique {
    fn mode(&self) -> WrongPathMode {
        WrongPathMode::InstructionReconstruction
    }

    fn on_instruction(&mut self, inst: &DynInst) {
        self.code_cache.insert(inst.pc, inst.instr);
    }

    fn on_mispredict(&mut self, cx: &mut MispredictContext<'_>) {
        if let Some(start) = cx.wrong_path_start {
            // The lazy path is looked up only as far as the pipeline takes
            // it before the branch resolves.
            let wp = Reconstruct::new(&mut self.code_cache, cx.predictor, start);
            inject_wrong_path(cx.pipeline, wp, cx.resolve, self.budget);
        }
    }

    fn stats(&self) -> TechniqueStats {
        TechniqueStats {
            code_cache: self.code_cache.stats(),
            ..TechniqueStats::default()
        }
    }

    fn reset_stats(&mut self) {
        self.code_cache.reset_stats();
    }
}
