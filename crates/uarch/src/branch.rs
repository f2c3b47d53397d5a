//! Branch prediction: hybrid gshare/bimodal direction predictor, tagged
//! indirect target predictor, and a return-address stack.
//!
//! ## Determinism and replica synchronization
//!
//! The paper's wrong-path *emulation* technique keeps "a copy of the
//! branch predictor model" in the functional simulator (§III-B). For the
//! copy to trigger wrong paths exactly where the timing model detects
//! mispredictions, both predictors must compute identical predictions.
//! This implementation guarantees that by making all predictor state a
//! deterministic function of the *program-order* branch stream: state is
//! only mutated by [`BranchPredictor::observe`], which both sides call
//! with the same in-order sequence of `(pc, instruction, actual outcome)`.
//! Prediction happens inside `observe`, *before* the update, exactly once
//! per dynamic branch.
//!
//! Wrong-path branches are predicted through a [`WrongPathPredictor`]
//! view: it reads the shared tables but keeps scratch global history and a
//! scratch return-address stack, so wrong-path lookups never perturb
//! predictor state (on either side), as in the paper.

use crate::config::BranchConfig;
use ffsim_isa::{Addr, BranchKind, Instr, INSTR_BYTES};

/// A branch prediction: direction plus predicted next fetch pc.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Prediction {
    /// Predicted taken?
    pub taken: bool,
    /// Predicted next fetch pc. `None` when the direction is taken but no
    /// target is available (indirect predictor / RAS miss) — fetch must
    /// stall, and no wrong path can be reconstructed.
    pub next_pc: Option<Addr>,
}

impl Prediction {
    /// Whether this prediction disagrees with the actual `next_pc`.
    #[must_use]
    pub fn mispredicts(&self, actual_next_pc: Addr) -> bool {
        self.next_pc != Some(actual_next_pc)
    }
}

/// The outcome of observing one dynamic branch in program order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BranchResolution {
    /// The prediction made (before state update).
    pub prediction: Prediction,
    /// Whether the prediction was wrong.
    pub mispredicted: bool,
    /// Where fetch would go under the wrong prediction — the start of the
    /// wrong path (paper §III-A: "the next instruction if the branch is
    /// predicted not taken, the branch target if the branch is predicted
    /// taken, or the predicted target for an indirect branch").
    /// `None` when correctly predicted, or when no wrong-path target
    /// exists (unpredictable indirect).
    pub wrong_path_start: Option<Addr>,
}

/// Prediction accuracy counters.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct BranchStats {
    /// Conditional branches observed.
    pub cond_branches: u64,
    /// Conditional branches mispredicted (direction).
    pub cond_mispredicts: u64,
    /// Indirect jumps/calls observed.
    pub indirect_branches: u64,
    /// Indirect jumps/calls mispredicted (target).
    pub indirect_mispredicts: u64,
    /// Returns observed.
    pub returns: u64,
    /// Returns mispredicted.
    pub return_mispredicts: u64,
    /// Unconditional direct jumps/calls observed (never mispredicted).
    pub direct_jumps: u64,
}

impl BranchStats {
    /// All observed branches.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.cond_branches + self.indirect_branches + self.returns + self.direct_jumps
    }

    /// All mispredictions.
    #[must_use]
    pub fn mispredicts(&self) -> u64 {
        self.cond_mispredicts + self.indirect_mispredicts + self.return_mispredicts
    }

    /// Mispredictions per kilo-branch (0 when no branches ran).
    #[must_use]
    pub fn mpki_per_branch(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.mispredicts() as f64 * 1000.0 / self.total() as f64
        }
    }
}

/// Circular return-address stack.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReturnStack {
    buf: Vec<Addr>,
    top: usize,
    count: usize,
}

impl ReturnStack {
    /// Creates an empty stack with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> ReturnStack {
        assert!(capacity > 0, "RAS capacity must be positive");
        ReturnStack {
            buf: vec![0; capacity],
            top: 0,
            count: 0,
        }
    }

    /// Pushes a return address, overwriting the oldest entry when full.
    pub fn push(&mut self, addr: Addr) {
        self.top = (self.top + 1) % self.buf.len();
        self.buf[self.top] = addr;
        self.count = (self.count + 1).min(self.buf.len());
    }

    /// Pops the most recent return address.
    pub fn pop(&mut self) -> Option<Addr> {
        if self.count == 0 {
            return None;
        }
        let v = self.buf[self.top];
        self.top = (self.top + self.buf.len() - 1) % self.buf.len();
        self.count -= 1;
        Some(v)
    }

    /// The most recent return address without popping.
    #[must_use]
    pub fn peek(&self) -> Option<Addr> {
        (self.count > 0).then(|| self.buf[self.top])
    }

    /// Current depth.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the stack is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

fn counter_update(c: &mut u8, taken: bool) {
    if taken {
        *c = (*c + 1).min(3);
    } else {
        *c = c.saturating_sub(1);
    }
}

/// The branch predictor: gshare + bimodal hybrid with a per-pc chooser,
/// a tagged direct-mapped indirect target predictor, and a return-address
/// stack.
///
/// # Examples
///
/// ```
/// use ffsim_uarch::{BranchPredictor, BranchConfig};
/// use ffsim_isa::{Instr, BranchCond, Reg};
///
/// let mut bp = BranchPredictor::new(BranchConfig {
///     gshare_history_bits: 8, gshare_table_bits: 10,
///     bimodal_table_bits: 10, indirect_entries: 64, ras_entries: 8,
/// });
/// let branch = Instr::Branch { cond: BranchCond::Ne, rs1: Reg::new(1), rs2: Reg::new(2), target: 0x1000 };
/// // A loop branch taken 100 times trains quickly.
/// let mut mispredicts = 0;
/// for _ in 0..100 {
///     let r = bp.observe(0x2000, &branch, true, 0x1000);
///     if r.mispredicted { mispredicts += 1; }
/// }
/// assert!(mispredicts <= 2);
/// ```
#[derive(Clone, Debug)]
pub struct BranchPredictor {
    cfg: BranchConfig,
    gshare: Vec<u8>,
    bimodal: Vec<u8>,
    chooser: Vec<u8>,
    ghr: u64,
    indirect: Vec<Option<(u64, Addr)>>,
    ras: ReturnStack,
    stats: BranchStats,
}

impl BranchPredictor {
    /// Creates a predictor with all counters weakly not-taken and empty
    /// target structures.
    #[must_use]
    pub fn new(cfg: BranchConfig) -> BranchPredictor {
        BranchPredictor {
            cfg,
            gshare: vec![1; 1 << cfg.gshare_table_bits],
            bimodal: vec![1; 1 << cfg.bimodal_table_bits],
            chooser: vec![2; 1 << cfg.gshare_table_bits],
            ghr: 0,
            indirect: vec![None; cfg.indirect_entries],
            ras: ReturnStack::new(cfg.ras_entries),
            stats: BranchStats::default(),
        }
    }

    /// Accumulated accuracy statistics.
    #[must_use]
    pub fn stats(&self) -> BranchStats {
        self.stats
    }

    fn gshare_index(&self, pc: Addr, ghr: u64) -> usize {
        let hist = ghr & ((1u64 << self.cfg.gshare_history_bits) - 1);
        (((pc >> 2) ^ hist) & ((1 << self.cfg.gshare_table_bits) - 1)) as usize
    }

    fn bimodal_index(&self, pc: Addr) -> usize {
        ((pc >> 2) & ((1 << self.cfg.bimodal_table_bits) - 1)) as usize
    }

    fn indirect_index(&self, pc: Addr) -> usize {
        ((pc >> 2) as usize) % self.indirect.len()
    }

    fn predict_direction(&self, pc: Addr, ghr: u64) -> bool {
        let g = self.gshare[self.gshare_index(pc, ghr)] >= 2;
        let b = self.bimodal[self.bimodal_index(pc)] >= 2;
        let use_gshare = self.chooser[self.gshare_index(pc, 0)] >= 2;
        if use_gshare {
            g
        } else {
            b
        }
    }

    fn predict_with(&self, pc: Addr, instr: &Instr, ghr: u64, ras_top: Option<Addr>) -> Prediction {
        let fallthrough = pc + INSTR_BYTES;
        match instr.branch_kind() {
            Some(BranchKind::Conditional) => {
                let taken = self.predict_direction(pc, ghr);
                let next = if taken {
                    instr.direct_target()
                } else {
                    Some(fallthrough)
                };
                Prediction {
                    taken,
                    next_pc: next,
                }
            }
            Some(BranchKind::DirectJump | BranchKind::DirectCall) => Prediction {
                taken: true,
                next_pc: instr.direct_target(),
            },
            Some(BranchKind::Return) => Prediction {
                taken: true,
                next_pc: ras_top,
            },
            Some(BranchKind::Indirect | BranchKind::IndirectCall) => {
                let e = self.indirect[self.indirect_index(pc)];
                let target = e.and_then(|(tag, t)| (tag == pc).then_some(t));
                Prediction {
                    taken: true,
                    next_pc: target,
                }
            }
            None => Prediction {
                taken: false,
                next_pc: Some(fallthrough),
            },
        }
    }

    /// Predicts the branch at `pc` using committed state, without updating.
    #[must_use]
    pub fn predict(&self, pc: Addr, instr: &Instr) -> Prediction {
        self.predict_with(pc, instr, self.ghr, self.ras.peek())
    }

    /// Observes one dynamic branch **in program order**: predicts, compares
    /// against the actual outcome, updates all state, and reports where the
    /// wrong path would have started.
    ///
    /// This is the single mutation point of the predictor; calling it with
    /// the same sequence on two instances keeps them bit-identical — the
    /// property the wrong-path-emulation replica relies on.
    pub fn observe(
        &mut self,
        pc: Addr,
        instr: &Instr,
        actual_taken: bool,
        actual_next_pc: Addr,
    ) -> BranchResolution {
        let prediction = self.predict(pc, instr);
        let mispredicted = prediction.mispredicts(actual_next_pc);
        let fallthrough = pc + INSTR_BYTES;

        match instr.branch_kind() {
            Some(BranchKind::Conditional) => {
                self.stats.cond_branches += 1;
                if mispredicted {
                    self.stats.cond_mispredicts += 1;
                }
                let gi = self.gshare_index(pc, self.ghr);
                let bi = self.bimodal_index(pc);
                let g_correct = (self.gshare[gi] >= 2) == actual_taken;
                let b_correct = (self.bimodal[bi] >= 2) == actual_taken;
                let ci = self.gshare_index(pc, 0);
                if g_correct != b_correct {
                    counter_update(&mut self.chooser[ci], g_correct);
                }
                counter_update(&mut self.gshare[gi], actual_taken);
                counter_update(&mut self.bimodal[bi], actual_taken);
                self.ghr = (self.ghr << 1) | u64::from(actual_taken);
            }
            Some(BranchKind::DirectJump) => {
                self.stats.direct_jumps += 1;
            }
            Some(BranchKind::DirectCall) => {
                self.stats.direct_jumps += 1;
                self.ras.push(fallthrough);
            }
            Some(BranchKind::Return) => {
                self.stats.returns += 1;
                if mispredicted {
                    self.stats.return_mispredicts += 1;
                }
                let _ = self.ras.pop();
            }
            Some(BranchKind::Indirect) => {
                self.stats.indirect_branches += 1;
                if mispredicted {
                    self.stats.indirect_mispredicts += 1;
                }
                let idx = self.indirect_index(pc);
                self.indirect[idx] = Some((pc, actual_next_pc));
            }
            Some(BranchKind::IndirectCall) => {
                self.stats.indirect_branches += 1;
                if mispredicted {
                    self.stats.indirect_mispredicts += 1;
                }
                let idx = self.indirect_index(pc);
                self.indirect[idx] = Some((pc, actual_next_pc));
                self.ras.push(fallthrough);
            }
            None => {}
        }

        let wrong_path_start = if mispredicted {
            match prediction.next_pc {
                // Predicted path differs from actual: the wrong path is the
                // predicted one.
                Some(p) if p != actual_next_pc => Some(p),
                _ => {
                    // Unpredictable (no target): conditional branches never
                    // land here; for indirect/returns there is no wrong
                    // path to follow.
                    let _ = actual_taken;
                    None
                }
            }
        } else {
            None
        };

        BranchResolution {
            prediction,
            mispredicted,
            wrong_path_start,
        }
    }

    /// Starts a wrong-path prediction view: reads committed tables, with
    /// scratch global history and a scratch copy of the RAS. Used to steer
    /// branch directions while reconstructing or emulating a wrong path.
    #[must_use]
    pub fn wrong_path_view(&self) -> WrongPathPredictor<'_> {
        WrongPathPredictor {
            parent: self,
            ghr: self.ghr,
            ras: self.ras.clone(),
        }
    }
}

/// Speculative predictor view for steering wrong-path fetch.
///
/// Direction/target tables are read from the parent (never written);
/// global history and the return-address stack evolve locally so
/// consecutive wrong-path branches see self-consistent speculative state.
#[derive(Clone, Debug)]
pub struct WrongPathPredictor<'a> {
    parent: &'a BranchPredictor,
    ghr: u64,
    ras: ReturnStack,
}

impl WrongPathPredictor<'_> {
    /// Predicts the wrong-path branch at `pc` and speculatively advances
    /// the local history/RAS.
    pub fn predict(&mut self, pc: Addr, instr: &Instr) -> Prediction {
        let p = self
            .parent
            .predict_with(pc, instr, self.ghr, self.ras.peek());
        match instr.branch_kind() {
            Some(BranchKind::Conditional) => {
                self.ghr = (self.ghr << 1) | u64::from(p.taken);
            }
            Some(BranchKind::DirectCall | BranchKind::IndirectCall) => {
                self.ras.push(pc + INSTR_BYTES);
            }
            Some(BranchKind::Return) => {
                let _ = self.ras.pop();
            }
            _ => {}
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsim_isa::{BranchCond, Reg};

    fn cfg() -> BranchConfig {
        BranchConfig {
            gshare_history_bits: 8,
            gshare_table_bits: 10,
            bimodal_table_bits: 10,
            indirect_entries: 16,
            ras_entries: 4,
        }
    }

    fn cond(target: Addr) -> Instr {
        Instr::Branch {
            cond: BranchCond::Ne,
            rs1: Reg::new(1),
            rs2: Reg::new(2),
            target,
        }
    }

    #[test]
    fn ras_push_pop_lifo() {
        let mut r = ReturnStack::new(3);
        r.push(1);
        r.push(2);
        r.push(3);
        assert_eq!(r.peek(), Some(3));
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), Some(1));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn ras_overflow_drops_oldest() {
        let mut r = ReturnStack::new(2);
        r.push(1);
        r.push(2);
        r.push(3);
        assert_eq!(r.len(), 2);
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn trains_on_biased_branch() {
        let mut bp = BranchPredictor::new(cfg());
        let b = cond(0x100);
        let mut wrong = 0;
        for _ in 0..200 {
            let r = bp.observe(0x2000, &b, true, 0x100);
            if r.mispredicted {
                wrong += 1;
            }
        }
        assert!(wrong <= 2, "biased branch should train fast, got {wrong}");
        assert_eq!(bp.stats().cond_branches, 200);
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        let mut bp = BranchPredictor::new(cfg());
        let b = cond(0x100);
        let mut wrong_late = 0;
        for i in 0..400 {
            let taken = i % 2 == 0;
            let next = if taken { 0x100 } else { 0x2004 };
            let r = bp.observe(0x2000, &b, taken, next);
            if i >= 100 && r.mispredicted {
                wrong_late += 1;
            }
        }
        assert!(
            wrong_late <= 5,
            "gshare should capture a T/N/T/N pattern, got {wrong_late} late mispredicts"
        );
    }

    #[test]
    fn wrong_path_start_is_the_other_direction() {
        let mut bp = BranchPredictor::new(cfg());
        let b = cond(0x100);
        // Train taken.
        for _ in 0..50 {
            let _ = bp.observe(0x2000, &b, true, 0x100);
        }
        // Now the actual outcome is not-taken → prediction (taken, 0x100)
        // is wrong; wrong path starts at the predicted target.
        let r = bp.observe(0x2000, &b, false, 0x2004);
        assert!(r.mispredicted);
        assert_eq!(r.wrong_path_start, Some(0x100));
        // Re-train not-taken until prediction flips...
        for _ in 0..10 {
            let _ = bp.observe(0x2000, &b, false, 0x2004);
        }
        // ...then a taken outcome makes the wrong path the fall-through.
        let r = bp.observe(0x2000, &b, true, 0x100);
        assert!(r.mispredicted);
        assert_eq!(r.wrong_path_start, Some(0x2004));
    }

    #[test]
    fn direct_jumps_never_mispredict() {
        let mut bp = BranchPredictor::new(cfg());
        let j = Instr::Jal {
            rd: Reg::ZERO,
            target: 0x500,
        };
        let r = bp.observe(0x2000, &j, true, 0x500);
        assert!(!r.mispredicted);
        assert_eq!(bp.stats().direct_jumps, 1);
    }

    #[test]
    fn call_return_pairs_predict_via_ras() {
        let mut bp = BranchPredictor::new(cfg());
        let call = Instr::Jal {
            rd: Reg::RA,
            target: 0x500,
        };
        let ret = Instr::Jalr {
            rd: Reg::ZERO,
            base: Reg::RA,
            offset: 0,
        };
        let r = bp.observe(0x2000, &call, true, 0x500);
        assert!(!r.mispredicted);
        let r = bp.observe(0x500, &ret, true, 0x2004);
        assert!(!r.mispredicted, "return predicted from RAS");
        // Empty RAS → unpredictable return, no wrong-path target.
        let r = bp.observe(0x500, &ret, true, 0x2004);
        assert!(r.mispredicted);
        assert_eq!(r.wrong_path_start, None);
    }

    #[test]
    fn indirect_learns_last_target() {
        let mut bp = BranchPredictor::new(cfg());
        let jr = Instr::Jalr {
            rd: Reg::ZERO,
            base: Reg::new(5),
            offset: 0,
        };
        let r = bp.observe(0x2000, &jr, true, 0x700);
        assert!(r.mispredicted, "cold indirect mispredicts");
        assert_eq!(r.wrong_path_start, None, "no target to follow");
        let r = bp.observe(0x2000, &jr, true, 0x700);
        assert!(!r.mispredicted, "repeated target predicted");
        let r = bp.observe(0x2000, &jr, true, 0x900);
        assert!(r.mispredicted, "target change mispredicts");
        assert_eq!(
            r.wrong_path_start,
            Some(0x700),
            "wrong path follows stale predicted target"
        );
    }

    #[test]
    fn two_instances_stay_bit_identical() {
        let mut a = BranchPredictor::new(cfg());
        let mut b = BranchPredictor::new(cfg());
        let branch = cond(0x100);
        // A pseudo-random but deterministic outcome sequence.
        let mut x = 12345u64;
        for i in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let taken = x & 4 != 0;
            let pc = 0x2000 + (i % 7) * 4;
            let next = if taken { 0x100 } else { pc + 4 };
            let ra = a.observe(pc, &branch, taken, next);
            let rb = b.observe(pc, &branch, taken, next);
            assert_eq!(ra, rb);
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn wrong_path_view_does_not_mutate_parent() {
        let mut bp = BranchPredictor::new(cfg());
        let b = cond(0x100);
        for _ in 0..20 {
            let _ = bp.observe(0x2000, &b, true, 0x100);
        }
        let stats_before = bp.stats();
        let snapshot = bp.clone();
        {
            let mut view = bp.wrong_path_view();
            for pc in [0x3000u64, 0x3004, 0x3008] {
                let _ = view.predict(pc, &b);
            }
            let call = Instr::Jal {
                rd: Reg::RA,
                target: 0x500,
            };
            let _ = view.predict(0x300c, &call);
        }
        assert_eq!(bp.stats(), stats_before);
        assert_eq!(bp.predict(0x2000, &b), snapshot.predict(0x2000, &b));
    }

    #[test]
    fn wrong_path_view_speculative_ras_is_consistent() {
        let mut bp = BranchPredictor::new(cfg());
        let call = Instr::Jal {
            rd: Reg::RA,
            target: 0x500,
        };
        let ret = Instr::Jalr {
            rd: Reg::ZERO,
            base: Reg::RA,
            offset: 0,
        };
        let _ = bp.observe(0x2000, &call, true, 0x500);
        let mut view = bp.wrong_path_view();
        // Wrong path calls then returns: the speculative RAS should nest.
        let _ = view.predict(0x3000, &call); // pushes 0x3004
        let p = view.predict(0x500, &ret);
        assert_eq!(p.next_pc, Some(0x3004));
        let p = view.predict(0x500, &ret);
        assert_eq!(p.next_pc, Some(0x2004), "outer frame from committed RAS");
    }
}
