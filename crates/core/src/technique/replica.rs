//! The frontend branch-predictor replica that checkpoints wrong paths.
//!
//! For the *wrong-path emulation* technique the functional simulator must
//! know, while it runs ahead, which branches the timing model will later
//! mispredict — the paper solves this by placing "a copy of the branch
//! predictor model" in the functional simulator (§III-B). [`ReplicaPolicy`]
//! is that copy: it observes the correct-path instruction stream in program
//! order through the [`FrontendPolicy`] hook of the instruction queue,
//! maintains a [`BranchPredictor`] identical to the timing model's, and
//! requests a wrong-path checkpoint whenever its replica mispredicts.
//!
//! Because both predictors are deterministic functions of the program-order
//! branch stream (see `ffsim_uarch::branch`), the replica's mispredictions
//! coincide exactly with the timing model's. The wrong path itself is
//! emulated later, when the timing model detects the misprediction,
//! steered by the timing model's own speculative predictions — bit-identical
//! to the replica's at the branch, since both have observed the same
//! stream.

use ffsim_emu::{DynInst, FrontendPolicy, WrongPathRequest};
use ffsim_uarch::{BranchConfig, BranchPredictor};

/// Deterministic wrong-path pc corruption, for fault injection.
///
/// Every `every_nth` wrong-path request has its start pc XORed with
/// `xor_mask` *before* emulation. Because corruption only perturbs the
/// speculative stream — which is checkpointed and squashed — it must never
/// change correct-path results; the fault-injection harness asserts exactly
/// that.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PcCorruption {
    /// Corrupt the Nth, 2Nth, ... wrong-path request (must be non-zero).
    pub every_nth: u64,
    /// Mask XORed into the wrong-path start pc.
    pub xor_mask: u64,
}

/// Frontend policy holding the branch-predictor replica.
#[derive(Clone, Debug)]
pub struct ReplicaPolicy {
    predictor: BranchPredictor,
    corruption: Option<PcCorruption>,
    requests: u64,
    corrupted: u64,
}

impl ReplicaPolicy {
    /// Creates a replica with the given predictor sizing.
    #[must_use]
    pub fn new(branch_cfg: BranchConfig) -> ReplicaPolicy {
        ReplicaPolicy {
            predictor: BranchPredictor::new(branch_cfg),
            corruption: None,
            requests: 0,
            corrupted: 0,
        }
    }

    /// Enables deterministic wrong-path pc corruption (fault injection).
    #[must_use]
    pub fn with_pc_corruption(mut self, corruption: Option<PcCorruption>) -> ReplicaPolicy {
        self.corruption = corruption;
        self
    }

    /// The replica predictor (for sync validation against the timing
    /// model's predictor).
    #[must_use]
    pub fn predictor(&self) -> &BranchPredictor {
        &self.predictor
    }

    /// How many wrong-path start pcs were corrupted so far.
    #[must_use]
    pub fn corrupted_requests(&self) -> u64 {
        self.corrupted
    }
}

impl FrontendPolicy for ReplicaPolicy {
    fn on_instruction(&mut self, inst: &DynInst) -> Option<WrongPathRequest> {
        let b = inst.branch?;
        let res = self
            .predictor
            .observe(inst.pc, &inst.instr, b.taken, b.next_pc);
        let mut start = res.wrong_path_start?;
        self.requests += 1;
        if let Some(c) = self.corruption {
            if c.every_nth > 0 && self.requests.is_multiple_of(c.every_nth) {
                start ^= c.xor_mask;
                self.corrupted += 1;
            }
        }
        Some(WrongPathRequest { start })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsim_emu::{Emulator, InstrQueue};
    use ffsim_isa::{Asm, Reg};
    use ffsim_uarch::CoreConfig;

    fn branch_cfg() -> BranchConfig {
        CoreConfig::tiny_for_tests().branch
    }

    /// A loop whose final iteration mispredicts the back-edge.
    fn loop_program(n: i64) -> ffsim_isa::Program {
        let x = Reg::new(1);
        let mut a = Asm::new();
        a.li(x, n);
        a.label("loop");
        a.addi(x, x, -1);
        a.bnez(x, "loop");
        a.li(Reg::new(2), 7);
        a.li(Reg::new(3), 8);
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn replica_checkpoints_the_final_back_edge() {
        let policy = ReplicaPolicy::new(branch_cfg());
        let mut q = InstrQueue::new(Emulator::new(loop_program(50)).unwrap(), policy, 256);
        let mut checkpoints = Vec::new();
        while let Some(e) = q.pop() {
            if let Some(cp) = e.wrong_path {
                checkpoints.push((e.inst, cp));
            }
        }
        // The trained back-edge mispredicts on loop exit (plus possibly a
        // couple of cold mispredictions at the start); its wrong path
        // re-enters the loop body.
        let (branch, last) = checkpoints.last().expect("loop exit mispredicts");
        assert_eq!(last.start, branch.instr.direct_target().unwrap());
        let first = q.emulator().program().instr_at(last.start).unwrap();
        assert_eq!(first.to_string(), "addi x1, x1, -1");
        assert_eq!(
            last.state.reg(Reg::new(1)),
            0,
            "state right after the branch"
        );
    }

    #[test]
    fn replica_matches_independent_predictor() {
        // A second predictor fed the same stream must mispredict at the
        // same branches the replica checkpointed, with the same start pcs.
        let policy = ReplicaPolicy::new(branch_cfg());
        let mut q = InstrQueue::new(Emulator::new(loop_program(30)).unwrap(), policy, 256);
        let mut shadow = BranchPredictor::new(branch_cfg());
        while let Some(e) = q.pop() {
            if let Some(b) = e.inst.branch {
                let res = shadow.observe(e.inst.pc, &e.inst.instr, b.taken, b.next_pc);
                let expect = res.wrong_path_start.filter(|_| res.mispredicted);
                assert_eq!(
                    e.wrong_path.map(|cp| cp.start),
                    expect,
                    "replica desync at pc {:#x}",
                    e.inst.pc
                );
            } else {
                assert!(e.wrong_path.is_none());
            }
        }
    }

    #[test]
    fn pc_corruption_is_counted_and_confined_to_wrong_path() {
        let corruption = PcCorruption {
            every_nth: 1,
            xor_mask: 0xffff_0000,
        };
        let policy = ReplicaPolicy::new(branch_cfg()).with_pc_corruption(Some(corruption));
        let mut q = InstrQueue::new(Emulator::new(loop_program(50)).unwrap(), policy, 256);
        let mut starts = Vec::new();
        let mut retired = 0;
        while let Some(e) = q.pop() {
            retired += 1;
            starts.extend(e.wrong_path.map(|cp| cp.start));
        }
        assert!(q.policy().corrupted_requests() >= 1);
        assert!(
            starts
                .iter()
                .all(|&pc| q.emulator().program().instr_at(pc).is_none()),
            "corrupted start pcs land outside the text"
        );
        assert!(q.fault().is_none(), "corruption never ends the stream");
        // Same correct-path length as an uncorrupted run.
        let clean = ReplicaPolicy::new(branch_cfg());
        let mut q2 = InstrQueue::new(Emulator::new(loop_program(50)).unwrap(), clean, 256);
        let mut clean_retired = 0;
        while q2.pop().is_some() {
            clean_retired += 1;
        }
        assert_eq!(retired, clean_retired);
        assert_eq!(
            q.emulator().digest(),
            q2.emulator().digest(),
            "architectural state is bit-identical"
        );
    }
}
