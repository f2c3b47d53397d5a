//! Wrong-path instruction reconstruction and convergence-based memory
//! address recovery — the paper's §III-A and §III-C techniques.
//!
//! **Instruction reconstruction** ([`reconstruct`]): on a misprediction,
//! walk the [`CodeCache`] from the wrong-path start, steering branches with
//! speculative predictions, until the budget is exhausted or an address is
//! not remembered. The result carries no data addresses.
//!
//! **Convergence exploitation** ([`recover_addresses`]): exploit the
//! functional simulator's runahead to peek at the *future correct path*;
//! if the wrong and correct paths converge (one-sided branches only, per
//! the paper), copy memory addresses from matching post-convergence
//! correct-path instructions into the wrong path — but only for
//! operations that are register-dependence-free of the non-converged code
//! ("dirty registers"), to avoid the optimism pitfall of §III-C.

use crate::technique::code_cache::{CodeCache, RunEnd, RUN_CAP};
use ffsim_emu::{DynInst, MemAccess};
use ffsim_isa::{Addr, Instr, RegSet, INSTR_BYTES};
use ffsim_uarch::BranchPredictor;

/// One reconstructed wrong-path instruction.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct WpInst {
    /// Instruction address.
    pub pc: Addr,
    /// Decoded instruction (from the code cache).
    pub instr: Instr,
    /// Data memory access, if known. Reconstruction leaves this `None`;
    /// convergence recovery fills some of them in.
    pub mem: Option<MemAccess>,
    /// The next wrong-path fetch pc actually followed.
    pub next_pc: Addr,
}

/// Reconstructs the wrong path starting at `start` from the code cache,
/// steering branch directions with speculative predictions from
/// `predictor` (which is never mutated).
///
/// Reconstruction stops at the first address the code cache does not
/// remember, at an unpredictable branch (which is still included, as it
/// was fetched), or when `budget` instructions have been produced — the
/// stopping rules of §III-A.
#[must_use]
pub fn reconstruct(
    code_cache: &mut CodeCache,
    predictor: &BranchPredictor,
    start: Addr,
    budget: usize,
) -> Vec<WpInst> {
    let mut out = Vec::new();
    reconstruct_into(code_cache, predictor, start, budget, &mut out);
    out
}

/// [`reconstruct`] into a caller-owned buffer, so techniques can reuse one
/// allocation across mispredictions. The buffer is cleared first.
///
/// Straight-line stretches between branches are served from the code
/// cache's memoized runs when available (see [`CodeCache`]); stretches
/// walked per-instruction are memoized for the next episode. The produced
/// stream and the hit/miss statistics are identical either way: a run hit
/// counts one cache hit per instruction consumed, exactly as the
/// per-instruction walk would have.
pub fn reconstruct_into(
    code_cache: &mut CodeCache,
    predictor: &BranchPredictor,
    start: Addr,
    budget: usize,
    out: &mut Vec<WpInst>,
) {
    out.clear();
    let mut spec = predictor.speculative_state();
    let mut pc = start;
    'outer: while out.len() < budget {
        let remaining = budget - out.len();
        // Fast path: replay a memoized run entered at `pc`.
        if let Some((run, end)) = code_cache.run_at(pc) {
            let m = run.len().min(remaining);
            let full = m == run.len();
            // A fully consumed branch-terminated run needs its last
            // instruction steered through the predictor; everything before
            // it (and every truncated prefix) falls through sequentially.
            let last_is_branch = full && end == RunEnd::Branch;
            let straight = if last_is_branch { m - 1 } else { m };
            for (i, &instr) in run[..straight].iter().enumerate() {
                let ipc = pc + i as Addr * INSTR_BYTES;
                out.push(WpInst {
                    pc: ipc,
                    instr,
                    mem: None,
                    next_pc: ipc + INSTR_BYTES,
                });
            }
            // One hit per consumed instruction; the per-instruction walk
            // additionally probes the terminating `halt` — but only when
            // still under budget.
            let mut hits = m as u64;
            let mut next = pc + straight as Addr * INSTR_BYTES;
            let mut stop = !full;
            if last_is_branch {
                let bpc = pc + (m - 1) as Addr * INSTR_BYTES;
                let instr = run[m - 1];
                match predictor
                    .predict_speculative(bpc, &instr, &mut spec)
                    .next_pc
                {
                    Some(t) => {
                        out.push(WpInst {
                            pc: bpc,
                            instr,
                            mem: None,
                            next_pc: t,
                        });
                        next = t;
                    }
                    None => {
                        // The branch itself was fetched; reconstruction
                        // cannot continue past it.
                        out.push(WpInst {
                            pc: bpc,
                            instr,
                            mem: None,
                            next_pc: bpc + INSTR_BYTES,
                        });
                        stop = true;
                    }
                }
            } else if full && end == RunEnd::Halt {
                if m < remaining {
                    hits += 1;
                }
                stop = true;
            }
            code_cache.add_run_hits(hits);
            if stop {
                return;
            }
            pc = next;
            continue;
        }
        // Slow path: probe per instruction, exactly like the original walk,
        // recording the stretch so the next episode through this entry pc
        // replays it. Only complete runs (branch / remembered halt / cap)
        // are memoized — a budget- or unknown-pc-ended prefix could grow
        // longer in a later episode.
        let run_start = pc;
        let mut recorded: Vec<Instr> = Vec::new();
        loop {
            if out.len() >= budget {
                return;
            }
            let Some(instr) = code_cache.lookup(pc) else {
                return;
            };
            if matches!(instr, Instr::Halt) {
                code_cache.memoize_run(run_start, recorded, RunEnd::Halt);
                return;
            }
            recorded.push(instr);
            if instr.is_branch() {
                match predictor.predict_speculative(pc, &instr, &mut spec).next_pc {
                    Some(t) => {
                        out.push(WpInst {
                            pc,
                            instr,
                            mem: None,
                            next_pc: t,
                        });
                        code_cache.memoize_run(run_start, recorded, RunEnd::Branch);
                        pc = t;
                        continue 'outer;
                    }
                    None => {
                        // The branch itself was fetched; reconstruction
                        // cannot continue past it.
                        out.push(WpInst {
                            pc,
                            instr,
                            mem: None,
                            next_pc: pc + INSTR_BYTES,
                        });
                        code_cache.memoize_run(run_start, recorded, RunEnd::Branch);
                        return;
                    }
                }
            }
            out.push(WpInst {
                pc,
                instr,
                mem: None,
                next_pc: pc + INSTR_BYTES,
            });
            pc += INSTR_BYTES;
            if recorded.len() >= RUN_CAP {
                code_cache.memoize_run(run_start, recorded, RunEnd::Cap);
                continue 'outer;
            }
        }
    }
}

/// Tunables of the convergence-exploitation technique (paper §III-C plus
/// the ablation knobs discussed in §III-C.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ConvergenceConfig {
    /// Restrict convergence detection to one-sided branches: only check
    /// whether the first wrong-path instruction appears in the future
    /// correct path, or the first correct-path instruction appears in the
    /// wrong path (the paper's choice — at most 2×ROB comparisons).
    /// When `false`, search for the earliest matching pair anywhere in
    /// both windows (the two-sided ablation).
    pub one_sided_only: bool,
    /// Track registers written before the convergence point and refuse to
    /// recover addresses of dependent operations (the paper's
    /// independence check). Disabling this is the "overly optimistic"
    /// ablation the paper warns about.
    pub track_dirty_regs: bool,
}

impl Default for ConvergenceConfig {
    fn default() -> ConvergenceConfig {
        ConvergenceConfig {
            one_sided_only: true,
            track_dirty_regs: true,
        }
    }
}

/// Counters behind the paper's Table III.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct ConvergenceStats {
    /// Branch misses where convergence detection ran.
    pub branch_misses_checked: u64,
    /// Branch misses where a convergence point was found (→ "Conv frac").
    pub converged: u64,
    /// Sum of instruction distances to the convergence point
    /// (→ "Conv dist" when divided by `converged`).
    pub distance_sum: u64,
    /// Wrong-path memory operations *executed* (injected into the
    /// pipeline before the branch resolved), loads + stores. This is the
    /// paper's Table III denominator: operations on reconstructed wrong
    /// path that never reach the pipeline do not count.
    pub wp_mem_ops: u64,
    /// Executed wrong-path memory operations whose address was recovered
    /// (→ "Addr recover").
    pub wp_mem_recovered: u64,
    /// Total post-convergence instructions scanned in lock-step.
    pub scan_length_sum: u64,
    /// Lock-step scans ended by an instruction-pointer mismatch.
    pub scan_stop_pc_mismatch: u64,
    /// Lock-step scans ended by a control divergence (wrong-path branch
    /// predicted differently from the correct path's actual direction).
    pub scan_stop_control: u64,
    /// Memory operations skipped because their sources were dirty.
    pub skipped_dirty: u64,
    /// Convergence points re-detected after an intra-wrong-path
    /// divergence (loop-structured code reconverges every iteration).
    pub reconvergences: u64,
}

impl ConvergenceStats {
    /// Fraction of branch misses where convergence was found.
    #[must_use]
    pub fn conv_frac(&self) -> f64 {
        if self.branch_misses_checked == 0 {
            0.0
        } else {
            self.converged as f64 / self.branch_misses_checked as f64
        }
    }

    /// Average instructions until the convergence point.
    #[must_use]
    pub fn avg_distance(&self) -> f64 {
        if self.converged == 0 {
            0.0
        } else {
            self.distance_sum as f64 / self.converged as f64
        }
    }

    /// Fraction of wrong-path memory operations with recovered addresses.
    #[must_use]
    pub fn recover_frac(&self) -> f64 {
        if self.wp_mem_ops == 0 {
            0.0
        } else {
            self.wp_mem_recovered as f64 / self.wp_mem_ops as f64
        }
    }
}

fn written_regs<'a>(instrs: impl Iterator<Item = &'a Instr>) -> RegSet {
    let mut dirty = RegSet::new();
    for i in instrs {
        if let Some(dst) = i.operands().dst {
            dirty.insert(dst);
        }
    }
    dirty
}

/// Indexed access to the future correct-path window used by convergence
/// detection and address recovery.
///
/// The window is always a contiguous prefix: once `at(i)` returns `None`,
/// every larger index is `None` too. Abstracting the access lets the
/// convergence technique serve the window lazily out of the frontend's
/// runahead buffer — materializing only the entries the scans actually
/// visit — while tests and the equivalence oracle keep passing plain
/// slices. The recovery logic is identical either way.
pub trait FutureSource {
    /// The `i`th future correct-path instruction, if the window reaches
    /// that deep.
    fn at(&mut self, i: usize) -> Option<&DynInst>;
}

impl FutureSource for &[DynInst] {
    fn at(&mut self, i: usize) -> Option<&DynInst> {
        self.get(i)
    }
}

/// Finds the next convergence point between `wp[wi..]` and the future
/// window past `fi` under the configured detection rule. Returns
/// window-relative offsets.
fn detect_convergence<F: FutureSource + ?Sized>(
    wp: &[WpInst],
    future: &mut F,
    wi: usize,
    fi: usize,
    cfg: &ConvergenceConfig,
) -> Option<(usize, usize)> {
    let wp_rest = &wp[wi..];
    if wp_rest.is_empty() {
        return None;
    }
    let fut_head = future.at(fi)?.pc;
    // One-sided detection (§III-C.1): the convergence point is the first
    // instruction of one of the two paths. The two scans are interleaved
    // by depth so the search stops at the shallowest match instead of
    // walking both full windows; on convergent code (the common case —
    // Table III distances are tens of instructions against ROB-sized
    // windows) this exits after a handful of comparisons. Checking the
    // future side first at each depth preserves the original tie-break:
    // equal depths resolve to case A, i.e. `k <= j` picks `(0, k)`.
    let wp_head = wp_rest[0].pc;
    let mut one_sided = None;
    let mut fut_ended = false;
    let mut i = 0;
    loop {
        if !fut_ended {
            match future.at(fi + i) {
                Some(d) if d.pc == wp_head => {
                    one_sided = Some((0, i));
                    break;
                }
                Some(_) => {}
                None => fut_ended = true,
            }
        }
        if let Some(w) = wp_rest.get(i) {
            if w.pc == fut_head {
                one_sided = Some((i, 0));
                break;
            }
        }
        i += 1;
        if fut_ended && i >= wp_rest.len() {
            break;
        }
    }
    match one_sided {
        Some(found) => Some(found),
        None => {
            if cfg.one_sided_only {
                return None;
            }
            // Two-sided ablation: earliest matching pair by summed depth.
            let mut first_at = std::collections::HashMap::new();
            let mut k = 0;
            while let Some(d) = future.at(fi + k) {
                first_at.entry(d.pc).or_insert(k);
                k += 1;
            }
            let mut best: Option<(usize, usize)> = None;
            for (j, w) in wp_rest.iter().enumerate() {
                if let Some(&k) = first_at.get(&w.pc) {
                    if best.is_none_or(|(bj, bk)| j + k < bj + bk) {
                        best = Some((j, k));
                    }
                }
            }
            best
        }
    }
}

/// Detects wrong/correct-path convergence and copies memory addresses from
/// the future correct path (`future`, the instructions that will follow the
/// mispredicted branch) into matching, register-independent wrong-path
/// instructions. Returns the distance to the first convergence point when
/// one was found.
///
/// Matching follows the paper's Fig. 3: from the convergence point both
/// paths are scanned in lock-step, copying addresses while instruction
/// pointers match and operands are independent of non-converged code. When
/// the paths diverge again (a wrong-path branch predicted differently from
/// the correct path's actual direction — e.g. a misprediction along the
/// wrong path), the scan re-detects convergence further down both paths;
/// instructions skipped on either side dirty their destination registers.
pub fn recover_addresses(
    wp: &mut [WpInst],
    future: &[DynInst],
    cfg: &ConvergenceConfig,
    stats: &mut ConvergenceStats,
) -> Option<usize> {
    recover_addresses_from(wp, &mut { future }, cfg, stats)
}

/// [`recover_addresses`] against an abstract [`FutureSource`], so the
/// convergence technique can serve the window lazily from the frontend's
/// runahead buffer. Behavior — matching, dirty-register tracking, and
/// every statistic — is identical to the slice version.
pub fn recover_addresses_from<F: FutureSource + ?Sized>(
    wp: &mut [WpInst],
    future: &mut F,
    cfg: &ConvergenceConfig,
    stats: &mut ConvergenceStats,
) -> Option<usize> {
    stats.branch_misses_checked += 1;

    let (wj, fk) = detect_convergence(wp, future, 0, 0, cfg)?;
    let distance = wj + fk;
    stats.converged += 1;
    stats.distance_sum += distance as u64;

    let mut dirty = RegSet::new();
    let mut wi = 0usize;
    let mut fi = 0usize;
    let (mut next_wi, mut next_fi) = (wj, fk);

    loop {
        // Instructions skipped on either side before this convergence
        // point hold values the other path did not compute: their
        // destinations become dirty (§III-C.2). Every index below
        // `next_fi` exists: detection just matched an entry there.
        if cfg.track_dirty_regs {
            dirty = dirty.union(written_regs(wp[wi..next_wi].iter().map(|w| &w.instr)));
            for i in fi..next_fi {
                if let Some(d) = future.at(i) {
                    if let Some(dst) = d.instr.operands().dst {
                        dirty.insert(dst);
                    }
                }
            }
        }
        wi = next_wi;
        fi = next_fi;

        // Lock-step matching.
        let mut diverged = false;
        while wi < wp.len() {
            let Some(f) = future.at(fi) else {
                break; // future window exhausted
            };
            let (f_pc, f_mem, f_next_pc) = (f.pc, f.mem, f.next_pc);
            let w = &mut wp[wi];
            if w.pc != f_pc {
                stats.scan_stop_pc_mismatch += 1;
                diverged = true;
                break;
            }
            stats.scan_length_sum += 1;
            let ops = w.instr.operands();
            let src_dirty = cfg.track_dirty_regs && ops.src_iter().any(|r| dirty.contains(r));
            if w.instr.is_mem() {
                if src_dirty {
                    stats.skipped_dirty += 1;
                } else if let Some(m) = f_mem {
                    w.mem = Some(m);
                }
            }
            if let Some(dst) = ops.dst {
                if src_dirty {
                    dirty.insert(dst);
                } else {
                    // Clean sources recompute the same value: the register
                    // is no longer dirty past this point.
                    dirty.remove(dst);
                }
            }
            let control_diverges = w.next_pc != f_next_pc;
            wi += 1;
            fi += 1;
            if control_diverges {
                stats.scan_stop_control += 1;
                diverged = true;
                break;
            }
        }
        if !diverged {
            break; // one side exhausted
        }
        // Re-detect convergence past the divergence.
        match detect_convergence(wp, future, wi, fi, cfg) {
            Some((dj, dk)) => {
                stats.reconvergences += 1;
                next_wi = wi + dj;
                next_fi = fi + dk;
            }
            None => break,
        }
    }
    Some(distance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsim_emu::BranchOutcome;
    use ffsim_isa::{AluOp, MemWidth, Reg};
    use ffsim_uarch::{BranchConfig, CoreConfig};

    fn predictor() -> BranchPredictor {
        let cfg: BranchConfig = CoreConfig::tiny_for_tests().branch;
        BranchPredictor::new(cfg)
    }

    fn load(rd: u8, base: u8, offset: i64) -> Instr {
        Instr::Load {
            rd: Reg::new(rd),
            base: Reg::new(base),
            offset,
            width: MemWidth::D,
            signed: false,
        }
    }

    fn alu(rd: u8, rs1: u8, rs2: u8) -> Instr {
        Instr::Alu {
            op: AluOp::Add,
            rd: Reg::new(rd),
            rs1: Reg::new(rs1),
            rs2: Reg::new(rs2),
        }
    }

    fn dyn_at(pc: Addr, instr: Instr, mem: Option<MemAccess>) -> DynInst {
        DynInst {
            seq: 0,
            pc,
            instr,
            mem,
            branch: None,
            next_pc: pc + 4,
        }
    }

    fn fill_code_cache(cc: &mut CodeCache, base: Addr, instrs: &[Instr]) {
        for (i, ins) in instrs.iter().enumerate() {
            cc.insert(base + i as Addr * 4, *ins);
        }
    }

    #[test]
    fn reconstruct_straight_line() {
        let mut cc = CodeCache::unbounded();
        fill_code_cache(&mut cc, 0x1000, &[alu(1, 2, 3), alu(2, 3, 4), alu(3, 4, 5)]);
        let p = predictor();
        let wp = reconstruct(&mut cc, &p, 0x1000, 16);
        assert_eq!(wp.len(), 3, "stops at first unknown pc");
        assert_eq!(wp[0].pc, 0x1000);
        assert_eq!(wp[2].next_pc, 0x100c);
        assert!(wp.iter().all(|w| w.mem.is_none()));
    }

    #[test]
    fn reconstruct_respects_budget() {
        let mut cc = CodeCache::unbounded();
        let instrs: Vec<Instr> = (0..20).map(|i| alu((i % 8) as u8 + 1, 2, 3)).collect();
        fill_code_cache(&mut cc, 0x1000, &instrs);
        let p = predictor();
        assert_eq!(reconstruct(&mut cc, &p, 0x1000, 5).len(), 5);
    }

    #[test]
    fn reconstruct_follows_predicted_taken_branch() {
        // Train the predictor that the branch at 0x1004 is taken to 0x2000.
        let mut p = predictor();
        let branch = Instr::Branch {
            cond: ffsim_isa::BranchCond::Ne,
            rs1: Reg::new(1),
            rs2: Reg::new(2),
            target: 0x2000,
        };
        for _ in 0..20 {
            let _ = p.observe(0x1004, &branch, true, 0x2000);
        }
        let mut cc = CodeCache::unbounded();
        cc.insert(0x1000, alu(1, 2, 3));
        cc.insert(0x1004, branch);
        cc.insert(0x2000, alu(5, 6, 7));
        let wp = reconstruct(&mut cc, &p, 0x1000, 16);
        assert_eq!(wp.len(), 3);
        assert_eq!(wp[1].next_pc, 0x2000);
        assert_eq!(wp[2].pc, 0x2000);
    }

    #[test]
    fn reconstruct_stops_on_unpredictable_indirect() {
        let mut cc = CodeCache::unbounded();
        cc.insert(0x1000, alu(1, 2, 3));
        cc.insert(
            0x1004,
            Instr::Jalr {
                rd: Reg::ZERO,
                base: Reg::new(5),
                offset: 0,
            },
        );
        cc.insert(0x1008, alu(2, 3, 4));
        let p = predictor();
        let wp = reconstruct(&mut cc, &p, 0x1000, 16);
        // The indirect jump itself is fetched, then reconstruction stops.
        assert_eq!(wp.len(), 2);
        assert!(wp[1].instr.is_branch());
    }

    #[test]
    fn reconstruct_stops_at_halt() {
        let mut cc = CodeCache::unbounded();
        cc.insert(0x1000, alu(1, 2, 3));
        cc.insert(0x1004, Instr::Halt);
        let p = predictor();
        let wp = reconstruct(&mut cc, &p, 0x1000, 16);
        assert_eq!(wp.len(), 1);
    }

    /// Case A convergence: the correct path falls through W X and then
    /// reaches the wrong path's start (one-sided taken branch predicted
    /// not-taken... i.e. wp = target ABCD, correct = WX then ABCD).
    #[test]
    fn case_a_convergence_recovers_independent_addresses() {
        // Wrong path: A B C where B is a load x5 <- [x6], C a load x7 <- [x4].
        let a_pc = 0x3000;
        let mut wp = vec![
            WpInst {
                pc: a_pc,
                instr: alu(1, 2, 3),
                mem: None,
                next_pc: a_pc + 4,
            },
            WpInst {
                pc: a_pc + 4,
                instr: load(5, 6, 0),
                mem: None,
                next_pc: a_pc + 8,
            },
            WpInst {
                pc: a_pc + 8,
                instr: load(7, 4, 0),
                mem: None,
                next_pc: a_pc + 12,
            },
        ];
        // Future correct path: two skipped instructions (writing x4!),
        // then A B C with real addresses.
        let future = vec![
            dyn_at(0x2000, alu(4, 9, 9), None), // writes x4 → dirty
            dyn_at(0x2004, alu(8, 9, 9), None),
            dyn_at(a_pc, alu(1, 2, 3), None),
            dyn_at(
                a_pc + 4,
                load(5, 6, 0),
                Some(MemAccess {
                    addr: 0xAAAA8,
                    size: 8,
                    is_store: false,
                }),
            ),
            dyn_at(
                a_pc + 8,
                load(7, 4, 0),
                Some(MemAccess {
                    addr: 0xBBBB8,
                    size: 8,
                    is_store: false,
                }),
            ),
        ];
        let mut stats = ConvergenceStats::default();
        let d = recover_addresses(&mut wp, &future, &ConvergenceConfig::default(), &mut stats);
        assert_eq!(d, Some(2));
        assert_eq!(stats.converged, 1);
        assert_eq!(stats.distance_sum, 2);
        // Load via x6 (clean) recovered; load via x4 (dirty: written by
        // skipped correct-path code) must NOT be recovered.
        assert_eq!(wp[1].mem.map(|m| m.addr), Some(0xAAAA8));
        assert_eq!(wp[2].mem, None);
        assert_eq!(stats.skipped_dirty, 1);
    }

    /// Case B convergence: the wrong path executes extra instructions and
    /// then reaches the correct path's start.
    #[test]
    fn case_b_convergence_dirty_from_wrong_path() {
        let conv_pc = 0x2000;
        let mut wp = vec![
            // Pre-convergence wrong-path instruction writing x6.
            WpInst {
                pc: 0x3000,
                instr: alu(6, 1, 1),
                mem: None,
                next_pc: conv_pc,
            },
            // Post-convergence: load via x6 (dirty), load via x7 (clean).
            WpInst {
                pc: conv_pc,
                instr: load(2, 6, 0),
                mem: None,
                next_pc: conv_pc + 4,
            },
            WpInst {
                pc: conv_pc + 4,
                instr: load(3, 7, 0),
                mem: None,
                next_pc: conv_pc + 8,
            },
        ];
        let future = vec![
            dyn_at(
                conv_pc,
                load(2, 6, 0),
                Some(MemAccess {
                    addr: 0x111_000,
                    size: 8,
                    is_store: false,
                }),
            ),
            dyn_at(
                conv_pc + 4,
                load(3, 7, 0),
                Some(MemAccess {
                    addr: 0x222_000,
                    size: 8,
                    is_store: false,
                }),
            ),
        ];
        let mut stats = ConvergenceStats::default();
        let d = recover_addresses(&mut wp, &future, &ConvergenceConfig::default(), &mut stats);
        assert_eq!(d, Some(1));
        assert_eq!(wp[1].mem, None, "x6 was written on the wrong path");
        assert_eq!(wp[2].mem.map(|m| m.addr), Some(0x222_000));
    }

    #[test]
    fn clean_overwrite_clears_dirtiness() {
        let conv_pc = 0x2000;
        let mut wp = vec![
            WpInst {
                pc: 0x3000,
                instr: alu(6, 1, 1), // x6 dirty
                mem: None,
                next_pc: conv_pc,
            },
            // x6 = x9 + x9 with clean sources → x6 clean again.
            WpInst {
                pc: conv_pc,
                instr: alu(6, 9, 9),
                mem: None,
                next_pc: conv_pc + 4,
            },
            WpInst {
                pc: conv_pc + 4,
                instr: load(2, 6, 0),
                mem: None,
                next_pc: conv_pc + 8,
            },
        ];
        let future = vec![
            dyn_at(conv_pc, alu(6, 9, 9), None),
            dyn_at(
                conv_pc + 4,
                load(2, 6, 0),
                Some(MemAccess {
                    addr: 0x9_000,
                    size: 8,
                    is_store: false,
                }),
            ),
        ];
        let mut stats = ConvergenceStats::default();
        let _ = recover_addresses(&mut wp, &future, &ConvergenceConfig::default(), &mut stats);
        assert_eq!(wp[2].mem.map(|m| m.addr), Some(0x9_000));
    }

    #[test]
    fn control_divergence_stops_recovery() {
        let conv_pc = 0x2000;
        let br = Instr::Branch {
            cond: ffsim_isa::BranchCond::Ne,
            rs1: Reg::new(1),
            rs2: Reg::new(2),
            target: 0x4000,
        };
        let mut wp = vec![
            // Convergence at first instruction; branch follows, predicted
            // differently (next_pc differs), then a load.
            WpInst {
                pc: conv_pc,
                instr: br,
                mem: None,
                next_pc: 0x4000, // wrong path predicted taken
            },
            WpInst {
                pc: 0x4000,
                instr: load(2, 7, 0),
                mem: None,
                next_pc: 0x4004,
            },
        ];
        let mut fut_branch = dyn_at(conv_pc, br, None);
        fut_branch.next_pc = conv_pc + 4; // correct path falls through
        fut_branch.branch = Some(BranchOutcome {
            taken: false,
            next_pc: conv_pc + 4,
        });
        let future = vec![
            fut_branch,
            dyn_at(
                conv_pc + 4,
                load(2, 7, 0),
                Some(MemAccess {
                    addr: 0x5_000,
                    size: 8,
                    is_store: false,
                }),
            ),
        ];
        let mut stats = ConvergenceStats::default();
        let _ = recover_addresses(&mut wp, &future, &ConvergenceConfig::default(), &mut stats);
        assert_eq!(
            wp[1].mem, None,
            "instructions past an unreconverged control divergence must not be recovered"
        );
    }

    #[test]
    fn no_convergence_no_recovery() {
        let mut wp = vec![WpInst {
            pc: 0x3000,
            instr: load(2, 7, 0),
            mem: None,
            next_pc: 0x3004,
        }];
        let future = vec![dyn_at(
            0x2000,
            load(2, 7, 0),
            Some(MemAccess {
                addr: 0x5_000,
                size: 8,
                is_store: false,
            }),
        )];
        let mut stats = ConvergenceStats::default();
        let d = recover_addresses(&mut wp, &future, &ConvergenceConfig::default(), &mut stats);
        assert_eq!(d, None);
        assert_eq!(stats.converged, 0);
        assert_eq!(wp[0].mem, None);
        assert_eq!(stats.branch_misses_checked, 1);
    }

    #[test]
    fn optimistic_ablation_ignores_dirty_registers() {
        let conv_pc = 0x2000;
        let mut wp = vec![
            WpInst {
                pc: 0x3000,
                instr: alu(6, 1, 1),
                mem: None,
                next_pc: conv_pc,
            },
            WpInst {
                pc: conv_pc,
                instr: load(2, 6, 0),
                mem: None,
                next_pc: conv_pc + 4,
            },
        ];
        let future = vec![dyn_at(
            conv_pc,
            load(2, 6, 0),
            Some(MemAccess {
                addr: 0x111_000,
                size: 8,
                is_store: false,
            }),
        )];
        let mut stats = ConvergenceStats::default();
        let cfg = ConvergenceConfig {
            one_sided_only: true,
            track_dirty_regs: false,
        };
        let _ = recover_addresses(&mut wp, &future, &cfg, &mut stats);
        assert_eq!(
            wp[1].mem.map(|m| m.addr),
            Some(0x111_000),
            "without dirty tracking the dependent load is (optimistically) recovered"
        );
    }

    #[test]
    fn two_sided_ablation_finds_interior_convergence() {
        // Neither first instruction appears in the other path, but both
        // paths reach 0x5000 after one private instruction (if-then-else).
        let mut wp = vec![
            WpInst {
                pc: 0x3000,
                instr: alu(1, 2, 3),
                mem: None,
                next_pc: 0x5000,
            },
            WpInst {
                pc: 0x5000,
                instr: load(2, 7, 0),
                mem: None,
                next_pc: 0x5004,
            },
        ];
        let future = vec![
            dyn_at(0x2000, alu(4, 2, 3), None),
            dyn_at(
                0x5000,
                load(2, 7, 0),
                Some(MemAccess {
                    addr: 0x6_000,
                    size: 8,
                    is_store: false,
                }),
            ),
        ];
        let one_sided = ConvergenceConfig::default();
        let mut stats = ConvergenceStats::default();
        let mut wp1 = wp.clone();
        assert_eq!(
            recover_addresses(&mut wp1, &future, &one_sided, &mut stats),
            None,
            "one-sided detection misses if-then-else reconvergence"
        );
        let two_sided = ConvergenceConfig {
            one_sided_only: false,
            track_dirty_regs: true,
        };
        let mut stats2 = ConvergenceStats::default();
        let d = recover_addresses(&mut wp, &future, &two_sided, &mut stats2);
        assert_eq!(d, Some(2));
        assert_eq!(wp[1].mem.map(|m| m.addr), Some(0x6_000));
    }
}
