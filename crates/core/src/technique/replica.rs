//! The frontend branch-predictor replica driving wrong-path emulation.
//!
//! For the *wrong-path emulation* technique the functional simulator must
//! know, while it runs ahead, which branches the timing model will later
//! mispredict — the paper solves this by placing "a copy of the branch
//! predictor model" in the functional simulator (§III-B). [`ReplicaPolicy`]
//! is that copy: it observes the correct-path instruction stream in program
//! order through the [`FrontendPolicy`] hook of the instruction queue,
//! maintains a [`BranchPredictor`] identical to the timing model's, and
//! requests full wrong-path emulation whenever its replica mispredicts.
//!
//! Because both predictors are deterministic functions of the program-order
//! branch stream (see `ffsim_uarch::branch`), the replica's mispredictions
//! coincide exactly with the timing model's, and the emulated wrong path is
//! steered by the same speculative predictions the timing model would make.

use ffsim_emu::{BranchOracle, BranchOutcome, DynInst, FrontendPolicy, WrongPathRequest};
use ffsim_isa::{Addr, Instr};
use ffsim_uarch::{BranchConfig, BranchPredictor, SpeculativeState};

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
    wrong_path_budget: usize,
    /// Speculative fetch state for the wrong path currently being emulated.
    scratch: Option<SpeculativeState>,
    corruption: Option<PcCorruption>,
    requests: u64,
    corrupted: u64,
}

impl ReplicaPolicy {
    /// Creates a replica with the given predictor sizing and per-miss
    /// wrong-path instruction budget (ROB + frontend buffers).
    #[must_use]
    pub fn new(branch_cfg: BranchConfig, wrong_path_budget: usize) -> ReplicaPolicy {
        ReplicaPolicy {
            predictor: BranchPredictor::new(branch_cfg),
            wrong_path_budget,
            scratch: None,
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

impl BranchOracle for ReplicaPolicy {
    fn next_fetch_pc(&mut self, pc: Addr, instr: &Instr, _computed: BranchOutcome) -> Option<Addr> {
        // Steer wrong-path branches by prediction, not by their computed
        // outcome (paper §III-A): "the predicted target is used to
        // continue the wrong path".
        let state = self
            .scratch
            .as_mut()
            // Invariant: the emulator only consults the oracle between
            // `begin_wrong_path` (which installs the scratch state) and
            // the matching `end_wrong_path`.
            .expect("oracle called outside wrong-path emulation");
        self.predictor.predict_speculative(pc, instr, state).next_pc
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
        self.scratch = Some(self.predictor.speculative_state());
        Some(WrongPathRequest {
            start,
            max_insts: self.wrong_path_budget,
        })
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
    fn replica_attaches_bundle_at_final_back_edge() {
        let policy = ReplicaPolicy::new(branch_cfg(), 16);
        let mut q = InstrQueue::new(Emulator::new(loop_program(50)).unwrap(), policy, 256);
        let mut bundles = Vec::new();
        while let Some(e) = q.pop() {
            if let Some(wp) = e.wrong_path {
                bundles.push((e.inst.pc, wp));
            }
        }
        // The trained back-edge mispredicts on loop exit (plus possibly a
        // couple of cold mispredictions at the start).
        assert!(!bundles.is_empty());
        let (_pc, last) = bundles.last().unwrap();
        // The wrong path on exit re-enters the loop body: addi, bnez, ...
        assert!(!last.insts.is_empty());
        let first = q.emulator().program().instr_at(last.insts[0].pc()).unwrap();
        assert_eq!(first.to_string(), "addi x1, x1, -1");
    }

    #[test]
    fn replica_matches_independent_predictor() {
        // A second predictor fed the same stream must mispredict at the
        // same branches the replica requested bundles for.
        let policy = ReplicaPolicy::new(branch_cfg(), 16);
        let mut q = InstrQueue::new(Emulator::new(loop_program(30)).unwrap(), policy, 256);
        let mut shadow = BranchPredictor::new(branch_cfg());
        while let Some(e) = q.pop() {
            if let Some(b) = e.inst.branch {
                let res = shadow.observe(e.inst.pc, &e.inst.instr, b.taken, b.next_pc);
                let expect_bundle = res.mispredicted && res.wrong_path_start.is_some();
                assert_eq!(
                    e.wrong_path.is_some(),
                    expect_bundle,
                    "replica desync at pc {:#x}",
                    e.inst.pc
                );
                if let (Some(wp), Some(start)) = (&e.wrong_path, res.wrong_path_start) {
                    if let Some(first) = wp.insts.first() {
                        assert_eq!(first.pc(), start);
                    }
                }
            } else {
                assert!(e.wrong_path.is_none());
            }
        }
    }

    #[test]
    fn pc_corruption_is_counted_and_confined_to_wrong_path() {
        let policy = ReplicaPolicy::new(branch_cfg(), 16).with_pc_corruption(Some(PcCorruption {
            every_nth: 1,
            xor_mask: 0xffff_0000,
        }));
        let mut q = InstrQueue::new(Emulator::new(loop_program(50)).unwrap(), policy, 256);
        let mut retired = 0;
        while q.pop().is_some() {
            retired += 1;
        }
        assert!(q.policy().corrupted_requests() >= 1);
        assert!(
            q.fault_stats().illegal_pc_stops >= 1,
            "corrupted start pcs land outside the text"
        );
        assert!(q.fault().is_none(), "corruption never ends the stream");
        // Same correct-path length as an uncorrupted run.
        let clean = ReplicaPolicy::new(branch_cfg(), 16);
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

    #[test]
    fn budget_is_honoured() {
        let policy = ReplicaPolicy::new(branch_cfg(), 5);
        let mut q = InstrQueue::new(Emulator::new(loop_program(40)).unwrap(), policy, 256);
        while let Some(e) = q.pop() {
            if let Some(wp) = e.wrong_path {
                assert!(wp.insts.len() <= 5);
            }
        }
    }
}
