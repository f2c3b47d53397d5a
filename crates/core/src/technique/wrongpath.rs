//! Wrong-path instruction reconstruction and convergence-based memory
//! address recovery — the paper's §III-A and §III-C techniques.
//!
//! **Instruction reconstruction** ([`Reconstruct`], [`reconstruct`]): on
//! a misprediction, walk the [`CodeCache`] from the wrong-path start,
//! steering branches with speculative predictions, until the budget is
//! exhausted or an address is not remembered. The result carries no data
//! addresses. [`Walk`] reads the same path a stretch at a time, for
//! convergence matching.
//!
//! **Convergence exploitation** ([`recover_addresses`]): exploit the
//! functional simulator's runahead to peek at the *future correct path*;
//! if the wrong and correct paths converge (one-sided branches only, per
//! the paper), copy memory addresses from matching post-convergence
//! correct-path instructions into the wrong path — but only for
//! operations that are register-dependence-free of the non-converged code
//! ("dirty registers"), to avoid the optimism pitfall of §III-C. The
//! simulator runs it lazily as a [`ConvergenceStream`], which walks,
//! peeks and matches only as far as the pipeline takes the wrong path.

use crate::technique::code_cache::{CodeCache, Decoded, StretchEnd};
pub use ffsim_emu::WpInst;
use ffsim_emu::{DynInst, FetchSource, MemAccess, StreamEntry};
use ffsim_isa::{Addr, ArchReg, Instr, RegSet, INSTR_BYTES};
use ffsim_uarch::{BranchPredictor, WrongPathPredictor};

/// The reconstructed wrong path from a start pc, one code-cache lookup
/// per instruction pulled, steering branch directions with speculative
/// predictions from a predictor that is never mutated.
///
/// The path ends at the first address the code cache does not remember
/// (a miss), at a remembered `halt` (a hit), or after an unpredictable
/// branch (which is still yielded, as it was fetched) — the stopping
/// rules of §III-A. The budget is the consumer's: `take` it.
#[derive(Debug)]
pub struct Reconstruct<'a> {
    code_cache: &'a mut CodeCache,
    predictor: WrongPathPredictor<'a>,
    /// The pc to look up next; `None` once the path has ended.
    pc: Option<Addr>,
}

impl<'a> Reconstruct<'a> {
    /// The wrong path from `start`.
    pub fn new(
        code_cache: &'a mut CodeCache,
        predictor: &'a BranchPredictor,
        start: Addr,
    ) -> Reconstruct<'a> {
        Reconstruct {
            code_cache,
            predictor: predictor.wrong_path_view(),
            pc: Some(start),
        }
    }
}

impl Iterator for Reconstruct<'_> {
    type Item = WpInst;

    #[inline]
    fn next(&mut self) -> Option<WpInst> {
        let pc = self.pc.take()?;
        let (instr, is_branch) = self.code_cache.walk_at(pc)?;
        let mut next_pc = pc + INSTR_BYTES;
        self.pc = Some(next_pc);
        if is_branch {
            // An unpredictable branch is still fetched, but reconstruction
            // cannot continue past it.
            self.pc = self.predictor.predict(pc, instr).next_pc;
            next_pc = self.pc.unwrap_or(next_pc);
        }
        Some(WpInst {
            pc,
            instr: *instr,
            mem: None,
            next_pc,
        })
    }
}

/// Reconstructs at most `budget` wrong-path instructions from `start`
/// (see [`Reconstruct`]).
#[must_use]
pub fn reconstruct(
    code_cache: &mut CodeCache,
    predictor: &BranchPredictor,
    start: Addr,
    budget: usize,
) -> Vec<WpInst> {
    Reconstruct::new(code_cache, predictor, start)
        .take(budget)
        .collect()
}

/// The most instructions one [`Walk`] step appends. A walk reads the code
/// cache a whole step past the instruction it was asked for, so this also
/// sets how far conv's code-cache counters look past what it injects.
const WALK_STEP: usize = 64;

/// A straight-line stretch of a walk: instructions `start..end` sit at
/// consecutive pcs from `pc`. Stretches that fall through to each other
/// share one segment.
#[derive(Clone, Copy, Debug)]
struct Segment {
    pc: Addr,
    start: usize,
    end: usize,
}

impl Segment {
    /// The pc of walk instruction `i`, which lies in this segment (or,
    /// for `i == end`, the pc that falls through from it).
    fn pc_of(&self, i: usize) -> Addr {
        self.pc + (i - self.start) as Addr * INSTR_BYTES
    }
}

/// The buffers a [`Walk`] fills, owned by the caller so that one
/// allocation serves every episode. They hold pcs only: a walked
/// instruction's decoded form is read from its code-cache slot.
#[derive(Clone, Default, Debug)]
pub struct WalkBuf {
    /// The pc of each walked instruction, in path order.
    pcs: Vec<Addr>,
    /// The segments covering the walk, in order and without gaps.
    segs: Vec<Segment>,
}

/// A wrong-path instruction as lock-step matching reads it.
struct WpView<'d> {
    pc: Addr,
    next_pc: Addr,
    decoded: &'d Decoded,
}

/// A resumable wrong-path reconstruction walk over the code cache: the
/// path of [`reconstruct`], extended on demand so a consumer that stops
/// early never walks the tail of the budget.
///
/// The walk appends one remembered straight-line stretch of at most
/// `WALK_STEP` (64) instructions at a time: their pcs go to a flat
/// buffer, and the stretch to a list of segments, so a pc search is one
/// range test per segment. The decoded instructions stay in the code
/// cache and are read in place: the walk holds the cache borrowed for
/// its whole life, so no insert can move or evict a walked slot. A
/// [`WpInst`] is built only when a consumer asks for instruction `i`.
/// The code cache counts a hit or miss for each pc of a stretch exactly
/// as a per-instruction walk would, so the statistics count the
/// stretches actually walked.
#[derive(Debug)]
pub struct Walk<'a> {
    code_cache: &'a mut CodeCache,
    predictor: WrongPathPredictor<'a>,
    /// Where the walk goes next: the successor of its last instruction.
    pc: Addr,
    budget: usize,
    buf: &'a mut WalkBuf,
    ended: bool,
}

impl<'a> Walk<'a> {
    /// Starts a walk at `start` into `buf`, which is cleared first.
    pub fn new(
        code_cache: &'a mut CodeCache,
        predictor: &'a BranchPredictor,
        start: Addr,
        budget: usize,
        buf: &'a mut WalkBuf,
    ) -> Walk<'a> {
        buf.pcs.clear();
        buf.segs.clear();
        Walk {
            code_cache,
            predictor: predictor.wrong_path_view(),
            pc: start,
            budget,
            buf,
            ended: false,
        }
    }

    /// Instructions walked so far.
    fn len(&self) -> usize {
        self.buf.pcs.len()
    }

    /// Walks until instruction `i` exists; returns whether it does (it
    /// does not when the walk ends first). Most queries read an
    /// instruction already walked, so only the test is inlined.
    #[inline]
    fn reach(&mut self, i: usize) -> bool {
        i < self.len() || self.walk_to(i)
    }

    /// [`Walk::reach`] past the instructions walked so far.
    #[inline(never)]
    fn walk_to(&mut self, i: usize) -> bool {
        while self.len() <= i && !self.ended {
            self.extend();
        }
        i < self.len()
    }

    /// The decoded form of walked instruction `i`, read from its slot.
    #[inline]
    fn decoded(&self, i: usize) -> &Decoded {
        let cc = &*self.code_cache;
        cc.decoded(cc.walked_slot(self.buf.pcs[i]))
    }

    /// The pc of instruction `i`, walking until it exists; `None` when the
    /// walk ends first.
    fn pc(&mut self, i: usize) -> Option<Addr> {
        self.reach(i).then(|| self.buf.pcs[i])
    }

    /// Walked instruction `i` as lock-step matching reads it. The walk
    /// goes on at each instruction's successor, so that is the next
    /// instruction's pc, or for the last one the walk's next pc.
    #[inline]
    fn view(&self, i: usize) -> WpView<'_> {
        let pcs = &self.buf.pcs;
        WpView {
            pc: pcs[i],
            next_pc: pcs.get(i + 1).copied().unwrap_or(self.pc),
            decoded: self.decoded(i),
        }
    }

    /// The first offset `j < depth` at which instruction `from + j` has
    /// pc `pc`, walking no further than that instruction: each segment is
    /// one range test.
    fn find(&mut self, from: usize, pc: Addr, depth: usize) -> Option<usize> {
        let end = from.saturating_add(depth);
        // Walking on may grow the last segment rather than add one, so
        // the scan starts a segment early and moves to the one holding
        // `i` each time.
        let mut s = self.buf.segs.partition_point(|g| g.end <= from);
        s = s.saturating_sub(1);
        let mut i = from;
        while i < end && self.reach(i) {
            while self.buf.segs[s].end <= i {
                s += 1;
            }
            let g = self.buf.segs[s];
            let hi = g.end.min(end);
            let lo_pc = g.pc_of(i);
            if pc >= lo_pc && (pc - lo_pc).is_multiple_of(INSTR_BYTES) {
                let n = ((pc - lo_pc) / INSTR_BYTES) as usize;
                if n < hi - i {
                    return Some(i + n - from);
                }
            }
            i = hi;
        }
        None
    }

    /// Appends the next remembered stretch and steers its closing
    /// branch. A stretch with no room left ends the walk at its budget.
    fn extend(&mut self) {
        let start = self.len();
        let entry = self.pc;
        let room = (self.budget - start).min(WALK_STEP);
        let (slots, end) = self.code_cache.stretch(entry, room);
        let end_pc = entry + slots.len() as Addr * INSTR_BYTES;
        self.pc = end_pc;
        match end {
            StretchEnd::Room => self.ended = room == 0,
            StretchEnd::Branch => {
                let instr = &self.code_cache.decoded(slots.end - 1).instr;
                let bpc = end_pc - INSTR_BYTES;
                match self.predictor.predict(bpc, instr).next_pc {
                    Some(t) => self.pc = t,
                    // Unpredictable: the branch itself was fetched, but
                    // reconstruction cannot continue past it.
                    None => self.ended = true,
                }
            }
            StretchEnd::Halt | StretchEnd::Unknown => self.ended = true,
        }
        if slots.is_empty() {
            return;
        }
        let end = start + slots.len();
        let pcs = (0..slots.len() as Addr).map(|j| entry + j * INSTR_BYTES);
        self.buf.pcs.extend(pcs);
        match self.buf.segs.last_mut() {
            // A stretch the previous one falls through to (one split at
            // the step, or after a not-taken branch) continues its pcs.
            Some(g) if g.pc_of(g.end) == entry => g.end = end,
            _ => self.buf.segs.push(Segment {
                pc: entry,
                start,
                end,
            }),
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
///
/// The detection counters (`branch_misses_checked`, `converged`,
/// `distance_sum`) describe each episode's first convergence detection.
/// The memory-operation counters cover the instructions injected into the
/// pipeline. The lock-step counters (`scan_length_sum` through
/// `reconvergences`) count the matching work: in a simulation, where the
/// convergence technique matches lazily through a [`ConvergenceStream`],
/// only the work for the injected prefix of each wrong path; for
/// [`recover_addresses`], the whole wrong path.
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
    /// Post-convergence instructions matched in lock-step (per injected
    /// prefix in a simulation).
    pub scan_length_sum: u64,
    /// Lock-step scans ended by an instruction-pointer mismatch (per
    /// injected prefix in a simulation).
    pub scan_stop_pc_mismatch: u64,
    /// Lock-step scans ended by a control divergence — a wrong-path branch
    /// predicted differently from the correct path's actual direction (per
    /// injected prefix in a simulation).
    pub scan_stop_control: u64,
    /// Memory operations skipped because their sources were dirty (per
    /// injected prefix in a simulation).
    pub skipped_dirty: u64,
    /// Convergence points re-detected after an intra-wrong-path divergence
    /// — loop-structured code reconverges every iteration (per injected
    /// prefix in a simulation).
    pub reconvergences: u64,
}

impl std::ops::AddAssign for ConvergenceStats {
    fn add_assign(&mut self, other: ConvergenceStats) {
        let ConvergenceStats {
            branch_misses_checked,
            converged,
            distance_sum,
            wp_mem_ops,
            wp_mem_recovered,
            scan_length_sum,
            scan_stop_pc_mismatch,
            scan_stop_control,
            skipped_dirty,
            reconvergences,
        } = other;
        self.branch_misses_checked += branch_misses_checked;
        self.converged += converged;
        self.distance_sum += distance_sum;
        self.wp_mem_ops += wp_mem_ops;
        self.wp_mem_recovered += wp_mem_recovered;
        self.scan_length_sum += scan_length_sum;
        self.scan_stop_pc_mismatch += scan_stop_pc_mismatch;
        self.scan_stop_control += scan_stop_control;
        self.skipped_dirty += skipped_dirty;
        self.reconvergences += reconvergences;
    }
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

/// One side of a convergence search: the pcs of a path from the current
/// scan position on.
trait PcPath {
    /// The pc `i` instructions on, or `None` past the path's end.
    fn pc(&mut self, i: usize) -> Option<Addr>;

    /// The first offset below `depth` holding `pc`, reading the path no
    /// deeper than that offset.
    fn find(&mut self, pc: Addr, depth: usize) -> Option<usize> {
        (0..depth).map_while(|i| self.pc(i)).position(|p| p == pc)
    }
}

/// A path read one pc at a time through a closure (the eager reference).
struct Probe<F>(F);

impl<F: FnMut(usize) -> Option<Addr>> PcPath for Probe<F> {
    fn pc(&mut self, i: usize) -> Option<Addr> {
        (self.0)(i)
    }
}

/// Finds the next convergence point under the configured detection rule.
/// `wp` and `fut` are the wrong path and the future correct path from
/// the current scan position; the result is the offsets `(j, k)` of the
/// matching pair.
fn detect_convergence(
    wp: &mut impl PcPath,
    fut: &mut impl PcPath,
    cfg: &ConvergenceConfig,
) -> Option<(usize, usize)> {
    let wp_head = wp.pc(0)?;
    let fut_head = fut.pc(0)?;
    // One-sided detection (§III-C.1): the convergence point is the first
    // instruction of one of the two paths — the shallowest of the future
    // reaching the wrong path's head (depth `a`, case A) and the wrong
    // path reaching the future's head (case B), equal depths resolving to
    // case A. The future side is searched first: it is a plain buffer,
    // while each wrong-path instruction searched must be reconstructed,
    // and the wrong path is then searched no deeper than `a`. On
    // convergent code (the common case — Table III distances are tens of
    // instructions against ROB-sized windows) both searches end after a
    // handful of comparisons.
    let a = fut.find(wp_head, usize::MAX);
    if let Some(j) = wp.find(fut_head, a.unwrap_or(usize::MAX)) {
        return Some((j, 0));
    }
    if let Some(k) = a {
        return Some((0, k));
    }
    if cfg.one_sided_only {
        return None;
    }
    // Two-sided ablation: earliest matching pair by summed depth.
    let mut first_at = std::collections::HashMap::new();
    for (k, pc) in (0..).map_while(|k| fut.pc(k)).enumerate() {
        first_at.entry(pc).or_insert(k);
    }
    let mut best: Option<(usize, usize)> = None;
    for (j, pc) in (0..).map_while(|j| wp.pc(j)).enumerate() {
        if let Some(&k) = first_at.get(&pc) {
            if best.is_none_or(|(bj, bk)| j + k < bj + bk) {
                best = Some((j, k));
            }
        }
    }
    best
}

/// How one lock-step comparison ended.
enum Lockstep {
    /// The pcs differ: the paths diverged before this pair.
    PcMismatch,
    /// The pair matched; the scan goes on to the next pair.
    Matched,
    /// The pair matched, but the wrong path's predicted successor differs
    /// from the correct path's actual one.
    ControlDiverged,
}

/// Compares wrong-path instruction `w` with future correct-path
/// instruction `f` at the same scan depth (the paper's Fig. 3). On a pc
/// match, a memory operation whose sources are independent of
/// non-converged code takes `f`'s address into `mem`, and `dirty` follows
/// the destination register.
fn lockstep(
    w: WpView<'_>,
    mem: &mut Option<MemAccess>,
    f: &FutureInst,
    dirty: &mut RegSet,
    cfg: &ConvergenceConfig,
    stats: &mut ConvergenceStats,
) -> Lockstep {
    if w.pc != f.pc {
        stats.scan_stop_pc_mismatch += 1;
        return Lockstep::PcMismatch;
    }
    stats.scan_length_sum += 1;
    let d = w.decoded;
    let src_dirty = cfg.track_dirty_regs && d.srcs.intersects(*dirty);
    if d.instr.is_mem() {
        if src_dirty {
            stats.skipped_dirty += 1;
        } else if let Some(m) = f.mem {
            *mem = Some(m);
        }
    }
    if let Some(dst) = d.dst {
        if src_dirty {
            dirty.insert(dst);
        } else {
            // Clean sources recompute the same value: the register is no
            // longer dirty past this point.
            dirty.remove(dst);
        }
    }
    if w.next_pc == f.next_pc {
        Lockstep::Matched
    } else {
        stats.scan_stop_control += 1;
        Lockstep::ControlDiverged
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
///
/// This is the eager form over whole buffers, probing one pc at a time,
/// and the reference the lazy [`ConvergenceStream`] is checked against.
pub fn recover_addresses(
    wp: &mut [WpInst],
    future: &[DynInst],
    cfg: &ConvergenceConfig,
    stats: &mut ConvergenceStats,
) -> Option<usize> {
    stats.branch_misses_checked += 1;

    let (wj, fk) = detect_convergence(
        &mut Probe(|j: usize| wp.get(j).map(|w| w.pc)),
        &mut Probe(|k: usize| future.get(k).map(|d| d.pc)),
        cfg,
    )?;
    let distance = wj + fk;
    stats.converged += 1;
    stats.distance_sum += distance as u64;

    let mut dirty = RegSet::new();
    let (mut wi, mut fi) = (0, 0);
    let (mut next_wi, mut next_fi) = (wj, fk);
    loop {
        // Instructions skipped on either side before this convergence
        // point hold values the other path did not compute: their
        // destinations become dirty (§III-C.2).
        if cfg.track_dirty_regs {
            dirty = dirty
                .union(written_regs(wp[wi..next_wi].iter().map(|w| &w.instr)))
                .union(written_regs(future[fi..next_fi].iter().map(|d| &d.instr)));
        }
        wi = next_wi;
        fi = next_fi;

        // Lock-step matching until a divergence or either side ends.
        let diverged = loop {
            let (Some(w), Some(f)) = (wp.get_mut(wi), future.get(fi)) else {
                break false;
            };
            let decoded = Decoded::from(w.instr);
            let view = WpView {
                pc: w.pc,
                next_pc: w.next_pc,
                decoded: &decoded,
            };
            match lockstep(view, &mut w.mem, &f.into(), &mut dirty, cfg, stats) {
                Lockstep::PcMismatch => break true,
                Lockstep::Matched => (wi, fi) = (wi + 1, fi + 1),
                Lockstep::ControlDiverged => {
                    (wi, fi) = (wi + 1, fi + 1);
                    break true;
                }
            }
        };
        if !diverged {
            break;
        }
        // Re-detect convergence past the divergence.
        match detect_convergence(
            &mut Probe(|j: usize| wp.get(wi + j).map(|w| w.pc)),
            &mut Probe(|k: usize| future.get(fi + k).map(|d| d.pc)),
            cfg,
        ) {
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

/// A future correct-path instruction, reduced to what matching reads.
#[derive(Clone, Copy, Debug)]
struct FutureInst {
    seq: u64,
    pc: Addr,
    next_pc: Addr,
    mem: Option<MemAccess>,
    dst: Option<ArchReg>,
}

impl From<&DynInst> for FutureInst {
    fn from(d: &DynInst) -> FutureInst {
        FutureInst {
            seq: d.seq,
            pc: d.pc,
            next_pc: d.next_pc,
            mem: d.mem,
            dst: d.instr.operands().dst,
        }
    }
}

/// Future correct-path instructions read by earlier episodes, kept for
/// the next one. Mispredictions come close together, so consecutive
/// episodes look at largely the same stretch of the future: each entry is
/// read from the frontend once and reused until the run loop passes it.
/// The correct path never changes, so a kept entry is exactly what a
/// fresh peek would return.
#[derive(Clone, Default, Debug)]
pub struct FutureCache {
    /// Consecutive correct-path instructions by sequence number; those
    /// before `start` are already in the past.
    insts: Vec<FutureInst>,
    /// The pcs of `insts`, contiguous so that a search is a slice scan.
    pcs: Vec<Addr>,
    start: usize,
}

impl FutureCache {
    fn clear(&mut self) {
        self.insts.clear();
        self.pcs.clear();
        self.start = 0;
    }

    fn push(&mut self, d: &DynInst) {
        self.insts.push(d.into());
        self.pcs.push(d.pc);
    }

    /// Entries from `start` on.
    fn kept(&self) -> usize {
        self.insts.len() - self.start
    }
}

/// The future correct-path window past a mispredicted branch (§III-C:
/// "take a peek in the future correct-path instructions"), read on
/// demand: from the [`FutureCache`], then from the current handoff batch,
/// then from the frontend's runahead buffer — only as deep as the matcher
/// looks. The window ends at `cap` entries or at the end of the stream.
#[derive(Debug)]
pub struct FutureWindow<'a> {
    batch: &'a [StreamEntry],
    frontend: Option<&'a mut dyn FetchSource>,
    cap: usize,
    cache: &'a mut FutureCache,
    exhausted: bool,
}

impl<'a> FutureWindow<'a> {
    /// A window of at most `cap` entries starting at the correct-path
    /// instruction numbered `first_seq`: `batch` (the unconsumed tail of
    /// the handoff batch, [`MispredictContext::lookahead`]), then
    /// `frontend`'s buffer (none: the window is `batch` alone). Entries
    /// `cache` holds from `first_seq` on are reused; older ones are
    /// dropped.
    ///
    /// [`MispredictContext::lookahead`]: crate::MispredictContext::lookahead
    pub fn new(
        first_seq: u64,
        batch: &'a [StreamEntry],
        frontend: Option<&'a mut dyn FetchSource>,
        cap: usize,
        cache: &'a mut FutureCache,
    ) -> FutureWindow<'a> {
        let kept = &cache.insts[cache.start..];
        cache.start += kept.partition_point(|f| f.seq < first_seq);
        if cache
            .insts
            .get(cache.start)
            .is_none_or(|f| f.seq != first_seq)
        {
            cache.clear();
        } else if cache.start >= cache.insts.len() / 2 {
            cache.insts.drain(..cache.start);
            cache.pcs.drain(..cache.start);
            cache.start = 0;
        }
        FutureWindow {
            batch,
            frontend,
            cap,
            cache,
            exhausted: false,
        }
    }

    /// Reads the next future instruction past the cache's end into the
    /// cache; `false` when the stream has ended.
    fn fill_next(&mut self) -> bool {
        if self.exhausted {
            return false;
        }
        let j = self.cache.kept();
        let entry = match self.batch.get(j) {
            Some(e) => Some(e),
            None => self
                .frontend
                .as_mut()
                .and_then(|f| f.peek(j - self.batch.len())),
        };
        match entry {
            Some(e) => self.cache.push(&e.inst),
            None => self.exhausted = true,
        }
        !self.exhausted
    }

    /// The `i`th future correct-path instruction (0 = the architecturally
    /// next one), if the window reaches that deep. Most queries read an
    /// entry already kept, so only the test is inlined.
    #[inline]
    fn at(&mut self, i: usize) -> Option<&FutureInst> {
        if i >= self.cap {
            return None;
        }
        if self.cache.kept() <= i {
            self.fill_to(i);
        }
        self.cache.insts.get(self.cache.start + i)
    }

    /// Reads the future until entry `i` is kept or the stream ends.
    #[inline(never)]
    fn fill_to(&mut self, i: usize) {
        while self.cache.kept() <= i && self.fill_next() {}
    }

    /// Future instructions `range`, which detection has already read.
    fn read(&self, range: std::ops::Range<usize>) -> &[FutureInst] {
        &self.cache.insts[self.cache.start..][range]
    }

    /// The first offset `k` at which future instruction `from + k` has pc
    /// `pc`: a slice scan over the entries already read, then one read at
    /// a time past them, so the window is read no deeper than the match.
    fn find(&mut self, from: usize, pc: Addr) -> Option<usize> {
        let mut i = from;
        loop {
            let filled = self.cache.kept().min(self.cap);
            if i < filled {
                let start = self.cache.start;
                if let Some(n) = position(&self.cache.pcs[start + i..start + filled], pc) {
                    return Some(i + n - from);
                }
                i = filled;
            }
            if i >= self.cap || !self.fill_next() {
                return None;
            }
        }
    }
}

/// The first index of `pc` in `pcs`. Each block of pcs is compared
/// without an exit per element, so the scan vectorizes.
fn position(pcs: &[Addr], pc: Addr) -> Option<usize> {
    const BLOCK: usize = 8;
    let mut base = 0;
    for block in pcs.chunks_exact(BLOCK) {
        if block.iter().fold(false, |hit, &p| hit | (p == pc)) {
            break;
        }
        base += BLOCK;
    }
    pcs[base..].iter().position(|&p| p == pc).map(|n| base + n)
}

/// The wrong path from walk instruction `.1` on, as a [`PcPath`].
struct WalkFrom<'w, 'a>(&'w mut Walk<'a>, usize);

impl PcPath for WalkFrom<'_, '_> {
    fn pc(&mut self, i: usize) -> Option<Addr> {
        self.0.pc(self.1 + i)
    }

    fn find(&mut self, pc: Addr, depth: usize) -> Option<usize> {
        self.0.find(self.1, pc, depth)
    }
}

/// The future from window entry `.1` on, as a [`PcPath`].
struct WindowFrom<'w, 'a>(&'w mut FutureWindow<'a>, usize);

impl PcPath for WindowFrom<'_, '_> {
    fn pc(&mut self, i: usize) -> Option<Addr> {
        self.0.at(self.1 + i).map(|f| f.pc)
    }

    fn find(&mut self, pc: Addr, depth: usize) -> Option<usize> {
        self.0.find(self.1, pc).filter(|&k| k < depth)
    }
}

/// Convergence exploitation as a pull-based wrong-path stream: a [`Walk`]
/// matched against a [`FutureWindow`] by an incremental form of
/// [`recover_addresses`] (detect → lock-step → re-detect).
///
/// The first convergence detection runs when the stream is built, so the
/// detection counters and [`convergence_distance`] equal the eager
/// scan's. After that, wrong-path instruction `k` is finalized — matched
/// in lock-step, or skipped on the way to the next convergence point —
/// only when the consumer pulls it, so matching, walking and peeking stop
/// where injection stops. Every yielded instruction, recovered address
/// included, equals the eager [`reconstruct`] + [`recover_addresses`]
/// result at the same index. The lock-step counters and `reconvergences`
/// count the work done for the pulled prefix, and the memory-operation
/// counters (Table III) count the memory operations yielded; apart from
/// those, a drained stream's [`stats`] equal the eager scan's.
///
/// [`convergence_distance`]: ConvergenceStream::convergence_distance
/// [`stats`]: ConvergenceStream::stats
#[derive(Debug)]
pub struct ConvergenceStream<'a> {
    walk: Walk<'a>,
    future: FutureWindow<'a>,
    cfg: ConvergenceConfig,
    stats: ConvergenceStats,
    distance: Option<usize>,
    dirty: RegSet,
    /// The next wrong-path and future indices to compare in lock-step.
    wi: usize,
    fi: usize,
    /// The paths diverged at `(wi, fi)`: re-detect before comparing.
    diverged: bool,
    /// Matching has ended: every further instruction is final as walked.
    done: bool,
    /// Index of the next instruction to yield.
    next: usize,
}

impl<'a> ConvergenceStream<'a> {
    /// Builds the stream and runs the first convergence detection.
    pub fn new(
        walk: Walk<'a>,
        future: FutureWindow<'a>,
        cfg: ConvergenceConfig,
    ) -> ConvergenceStream<'a> {
        let mut stream = ConvergenceStream {
            walk,
            future,
            cfg,
            stats: ConvergenceStats {
                branch_misses_checked: 1,
                ..ConvergenceStats::default()
            },
            distance: None,
            dirty: RegSet::new(),
            wi: 0,
            fi: 0,
            diverged: false,
            done: false,
            next: 0,
        };
        match stream.detect() {
            Some((wj, fk)) => {
                stream.stats.converged = 1;
                stream.stats.distance_sum = (wj + fk) as u64;
                stream.distance = Some(wj + fk);
                stream.converge_at(wj, fk);
            }
            None => stream.done = true,
        }
        stream
    }

    /// Distance to the first convergence point, when one was found.
    #[must_use]
    pub fn convergence_distance(&self) -> Option<usize> {
        self.distance
    }

    /// This episode's counters so far.
    #[must_use]
    pub fn stats(&self) -> ConvergenceStats {
        self.stats
    }

    /// Detects the next convergence point past the lock-step position.
    fn detect(&mut self) -> Option<(usize, usize)> {
        detect_convergence(
            &mut WalkFrom(&mut self.walk, self.wi),
            &mut WindowFrom(&mut self.future, self.fi),
            &self.cfg,
        )
    }

    /// Moves the lock-step position `dj`/`dk` instructions on to a
    /// convergence point. What either side skipped holds values the other
    /// path did not compute: its destinations become dirty (§III-C.2).
    fn converge_at(&mut self, dj: usize, dk: usize) {
        let (wi, fi) = (self.wi + dj, self.fi + dk);
        if self.cfg.track_dirty_regs {
            for j in self.wi..wi {
                if let Some(dst) = self.walk.decoded(j).dst {
                    self.dirty.insert(dst);
                }
            }
            for f in self.future.read(self.fi..fi) {
                if let Some(dst) = f.dst {
                    self.dirty.insert(dst);
                }
            }
        }
        (self.wi, self.fi) = (wi, fi);
    }

    /// Advances the matcher by one lock-step comparison or one
    /// re-detection. A comparison returns the address it recovered for
    /// the wrong-path instruction it read, if any.
    #[inline]
    fn step(&mut self) -> Option<Option<MemAccess>> {
        if self.diverged {
            self.diverged = false;
            match self.detect() {
                Some((dj, dk)) => {
                    self.stats.reconvergences += 1;
                    self.converge_at(dj, dk);
                }
                None => self.done = true,
            }
            return None;
        }
        if !self.walk.reach(self.wi) {
            self.done = true;
            return None;
        }
        let Some(f) = self.future.at(self.fi) else {
            self.done = true;
            return None;
        };
        let mut mem = None;
        let w = self.walk.view(self.wi);
        match lockstep(w, &mut mem, f, &mut self.dirty, &self.cfg, &mut self.stats) {
            Lockstep::PcMismatch => self.diverged = true,
            Lockstep::Matched => (self.wi, self.fi) = (self.wi + 1, self.fi + 1),
            Lockstep::ControlDiverged => {
                (self.wi, self.fi) = (self.wi + 1, self.fi + 1);
                self.diverged = true;
            }
        }
        Some(mem)
    }
}

impl Iterator for ConvergenceStream<'_> {
    type Item = WpInst;

    #[inline]
    fn next(&mut self) -> Option<WpInst> {
        let k = self.next;
        if !self.walk.reach(k) {
            return None;
        }
        self.next += 1;
        // Instruction `k` is final once matching has moved past it. The
        // previous pull left matching at `k` or beyond, so every
        // comparison made here reads `k`, and the last one decides its
        // address.
        let mut mem = None;
        while !self.done && self.wi <= k {
            if let Some(m) = self.step() {
                mem = m;
            }
        }
        // The record is built once, from the slot, and never read back.
        let w = self.walk.view(k);
        let instr = &w.decoded.instr;
        // Table III accounting: the injector feeds every instruction it
        // pulls, so the memory operations yielded are those executed.
        if instr.is_mem() {
            self.stats.wp_mem_ops += 1;
            if mem.is_some() {
                self.stats.wp_mem_recovered += 1;
            }
        }
        Some(WpInst {
            pc: w.pc,
            instr: *instr,
            mem,
            next_pc: w.next_pc,
        })
    }
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

    fn pcs(pcs: &[Addr]) -> impl FnMut(usize) -> Option<Addr> + '_ {
        |i| pcs.get(i).copied()
    }

    /// One-sided detection takes the shallower of case A (the future
    /// reaches the wrong path's head) and case B (the wrong path reaches
    /// the future's head), and case A when both are equally deep.
    #[test]
    fn detection_takes_the_shallower_case_and_case_a_on_ties() {
        let cfg = ConvergenceConfig::default();
        let detect = |wp: &[Addr], fut: &[Addr]| {
            detect_convergence(&mut Probe(pcs(wp)), &mut Probe(pcs(fut)), &cfg)
        };
        assert_eq!(detect(&[0xa, 0xb, 0xc], &[0xc, 0xd, 0xa]), Some((0, 2)));
        assert_eq!(detect(&[0xa, 0xc, 0xb], &[0xc, 0xd, 0xa]), Some((1, 0)));
        assert_eq!(detect(&[0xa, 0xb, 0xe, 0xc], &[0xc, 0xa]), Some((0, 1)));
        // Case B past the end of the future window.
        assert_eq!(detect(&[0xa, 0xb, 0xe, 0xc], &[0xc, 0xd]), Some((3, 0)));
        assert_eq!(detect(&[0xa, 0xb], &[0xc, 0xd]), None);
        assert_eq!(detect(&[], &[0xc]), None);
    }

    /// Future correct-path entries at `pcs`, numbered from 0.
    fn entries(pcs: &[Addr]) -> Vec<StreamEntry> {
        pcs.iter()
            .enumerate()
            .map(|(i, &pc)| StreamEntry {
                inst: DynInst {
                    seq: i as u64,
                    ..dyn_at(pc, Instr::Nop, None)
                },
                wrong_path: None,
            })
            .collect()
    }

    /// The first convergence distance of a stream walking `cc` from
    /// `start` against the future `pcs`, checked against the eager scan.
    /// The stream runs twice: first from a cold future cache, then over
    /// the entries the first run left behind.
    fn first_distance(
        cc: &mut CodeCache,
        start: Addr,
        budget: usize,
        pcs: &[Addr],
        cap: usize,
    ) -> Option<usize> {
        let p = predictor();
        let batch = entries(pcs);
        let cfg = ConvergenceConfig::default();
        let mut eager = reconstruct(&mut cc.clone(), &p, start, budget);
        let window: Vec<DynInst> = batch.iter().take(cap).map(|e| e.inst).collect();
        let mut stats = ConvergenceStats::default();
        let expected = recover_addresses(&mut eager, &window, &cfg, &mut stats);
        let (mut buf, mut cache) = (WalkBuf::default(), FutureCache::default());
        for _ in 0..2 {
            let walk = Walk::new(cc, &p, start, budget, &mut buf);
            let future = FutureWindow::new(0, &batch, None, cap, &mut cache);
            let stream = ConvergenceStream::new(walk, future, cfg);
            assert_eq!(stream.convergence_distance(), expected);
            assert!(cache.kept() <= cap, "read past the window");
        }
        expected
    }

    /// Straight-line code of `n` instructions at `base`.
    fn straight_line(cc: &mut CodeCache, base: Addr, n: usize) {
        for i in 0..n {
            cc.insert(base + i as Addr * 4, alu((i % 8) as u8 + 1, 2, 3));
        }
    }

    /// Case A at the window's edge: the wrong path's head found as the
    /// window's last entry, and missed one entry past it.
    #[test]
    fn future_search_ends_at_the_window_cap() {
        let mut cc = CodeCache::unbounded();
        straight_line(&mut cc, 0x3000, 4);
        let cap = 16;
        let at = |i: usize| -> Vec<Addr> {
            let mut pcs: Vec<Addr> = (0..=i as Addr).map(|k| 0x8000 + k * 4).collect();
            pcs[i] = 0x3000;
            pcs
        };
        assert_eq!(
            first_distance(&mut cc, 0x3000, 4, &at(cap - 1), cap),
            Some(cap - 1)
        );
        assert_eq!(first_distance(&mut cc, 0x3000, 4, &at(cap), cap), None);
        // An entry a deeper window read and kept stays out of a shallower
        // one.
        let (p, batch) = (predictor(), entries(&at(cap)));
        let (mut buf, mut cache) = (WalkBuf::default(), FutureCache::default());
        for (window, expected) in [(cap + 1, Some(cap)), (cap, None)] {
            let walk = Walk::new(&mut cc, &p, 0x3000, 4, &mut buf);
            let future = FutureWindow::new(0, &batch, None, window, &mut cache);
            let stream = ConvergenceStream::new(walk, future, ConvergenceConfig::default());
            assert_eq!(stream.convergence_distance(), expected);
        }
    }

    /// Case B at segment boundaries: the future's head is the branch that
    /// ends one segment, or the target that starts the next.
    #[test]
    fn wrong_path_search_spans_segments() {
        let mut cc = CodeCache::unbounded();
        straight_line(&mut cc, 0x3000, 2);
        cc.insert(
            0x3008,
            Instr::Jal {
                rd: Reg::ZERO,
                target: 0x5000,
            },
        );
        straight_line(&mut cc, 0x5000, 4);
        assert_eq!(first_distance(&mut cc, 0x3000, 16, &[0x3008], 8), Some(2));
        assert_eq!(first_distance(&mut cc, 0x3000, 16, &[0x5000], 8), Some(3));
        assert_eq!(first_distance(&mut cc, 0x3000, 16, &[0x300c], 8), None);
    }

    /// Case B across a stretch split at `WALK_STEP`: the future's head is
    /// the last instruction before the split or the first after it.
    #[test]
    fn wrong_path_search_crosses_a_walk_step() {
        let mut cc = CodeCache::unbounded();
        straight_line(&mut cc, 0x3000, WALK_STEP + 8);
        let pc = |i: usize| 0x3000 + i as Addr * 4;
        for i in [WALK_STEP - 1, WALK_STEP] {
            assert_eq!(
                first_distance(&mut cc, 0x3000, 2 * WALK_STEP, &[pc(i)], 8),
                Some(i)
            );
        }
        // A search from the walk's end, where walking on grows the last
        // segment instead of adding one.
        let (p, mut buf) = (predictor(), WalkBuf::default());
        let mut walk = Walk::new(&mut cc, &p, 0x3000, 2 * WALK_STEP, &mut buf);
        assert!(walk.reach(0));
        assert_eq!(walk.len(), WALK_STEP);
        assert_eq!(walk.find(WALK_STEP, pc(WALK_STEP + 3), 8), Some(3));
    }

    /// Walks `cc` from `start` to its end: (instructions walked, segments,
    /// code-cache hits, misses).
    fn walk_to_end(cc: &mut CodeCache, start: Addr, budget: usize) -> (usize, usize, u64, u64) {
        let (p, mut buf) = (predictor(), WalkBuf::default());
        let before = cc.stats();
        let mut walk = Walk::new(cc, &p, start, budget, &mut buf);
        assert!(!walk.reach(budget), "the walk stays within its budget");
        let len = walk.len();
        let after = cc.stats();
        (
            len,
            buf.segs.len(),
            after.hits - before.hits,
            after.misses - before.misses,
        )
    }

    /// 70 straight-line instructions and then an unknown pc: two stretches
    /// (64 + 6) merged into one segment, a hit per instruction and one
    /// miss.
    #[test]
    fn walk_counts_each_instruction_of_a_long_stretch_and_its_miss() {
        let mut cc = CodeCache::unbounded();
        straight_line(&mut cc, 0x3000, 70);
        assert_eq!(walk_to_end(&mut cc, 0x3000, 128), (70, 1, 70, 1));
    }

    /// A remembered `halt` is looked up (one hit) only while the walk is
    /// under its budget; it is never walked.
    #[test]
    fn walk_probes_a_halt_only_under_budget() {
        let mut cc = CodeCache::unbounded();
        straight_line(&mut cc, 0x3000, 5);
        cc.insert(0x3014, Instr::Halt);
        assert_eq!(walk_to_end(&mut cc, 0x3000, 6), (5, 1, 6, 0));
        assert_eq!(walk_to_end(&mut cc, 0x3000, 5), (5, 1, 5, 0));
        assert_eq!(walk_to_end(&mut cc, 0x3014, 1), (0, 0, 1, 0));
        assert_eq!(walk_to_end(&mut cc, 0x3014, 0), (0, 0, 0, 0));
    }

    /// A walk that reaches its budget ends with a stretch of no room,
    /// which looks nothing up: the pc past the budget is neither a hit
    /// nor a miss.
    #[test]
    fn walk_at_its_budget_counts_nothing_more() {
        let mut cc = CodeCache::unbounded();
        straight_line(&mut cc, 0x3000, 70);
        assert_eq!(walk_to_end(&mut cc, 0x3000, 70), (70, 1, 70, 0));
        assert_eq!(walk_to_end(&mut cc, 0x3000, 64), (64, 1, 64, 0));
        assert_eq!(walk_to_end(&mut cc, 0x3000, 0), (0, 0, 0, 0));
        // Nor is an unknown pc at a budget of zero.
        assert_eq!(walk_to_end(&mut cc, 0x9000, 0), (0, 0, 0, 0));
    }

    /// Case B at the walk budget: the future's head found as the last
    /// instruction within the budget, and missed one past it.
    #[test]
    fn wrong_path_search_ends_at_the_budget() {
        let mut cc = CodeCache::unbounded();
        straight_line(&mut cc, 0x3000, 40);
        let pc = |i: usize| 0x3000 + i as Addr * 4;
        let budget = 16;
        assert_eq!(
            first_distance(&mut cc, 0x3000, budget, &[pc(budget - 1)], 8),
            Some(budget - 1)
        );
        assert_eq!(
            first_distance(&mut cc, 0x3000, budget, &[pc(budget)], 8),
            None
        );
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
