//! The out-of-order core timing model.
//!
//! A one-pass timestamping pipeline model in the spirit of Sniper's core
//! models: each instruction, processed in fetch order, is assigned fetch /
//! dispatch / issue / complete (and, for correct-path instructions, retire)
//! cycles subject to:
//!
//! * fetch width, instruction-cache misses, and taken-branch fetch breaks,
//! * frontend pipeline depth with decode-buffer backpressure,
//! * ROB / issue-queue / load-queue / store-queue occupancy,
//! * register (RAW) dependences through the architectural register file,
//! * functional-unit counts and latencies (pipelined or blocking),
//! * load latencies from the full cache/TLB/DRAM hierarchy,
//! * in-order retirement at the configured width.
//!
//! Wrong-path instructions flow through the very same stages — occupying
//! fetch slots, window entries and functional units, and touching the
//! caches according to the active wrong-path technique — but vacate the
//! window at the mispredicted branch's resolution instead of retiring.
//! This is what makes the four wrong-path modes directly comparable: the
//! performance model is identical, only the wrong-path instruction streams
//! differ (paper §IV).

use crate::issue_queue::IssueQueue;
use ffsim_emu::MemAccess;
use ffsim_isa::{Addr, ExecClass, Instr, Program, Uop, INSTR_BYTES, NUM_ARCH_REGS};
use ffsim_obs::{CpiStack, StallClass};
use ffsim_uarch::{CoreConfig, Level, MemoryHierarchy, PathKind};
use std::collections::VecDeque;
use std::sync::Arc;

/// Maps the hierarchy level that served an access to the stall class that
/// charges cycles to it.
fn level_class(level: Level) -> StallClass {
    match level {
        Level::L1 => StallClass::L1Bound,
        Level::L2 => StallClass::L2Bound,
        Level::Llc => StallClass::LlcBound,
        Level::Memory => StallClass::DramBound,
    }
}

/// Extra decode-buffer slack (cycles) between fetch and dispatch
/// backpressure.
const DECODE_SLACK: u64 = 2;

/// How a wrong-path load's latency is modeled.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LoadTiming {
    /// Access the real cache hierarchy (address is known).
    Real,
    /// Assume an L1D hit: fixed L1 latency, no cache-state change. This is
    /// what instruction reconstruction must do for every wrong-path memory
    /// operation, since addresses cannot be reconstructed (§III-A, §V-C).
    AssumeL1Hit,
}

/// The pipeline timestamps assigned to one instruction.
///
/// A wrong-path instruction whose operands are ready only at or after its
/// mispredicted branch resolves is squashed before it issues. It never
/// executes: `issue` and `complete` both read the cycle its operands are
/// ready, which is at or after the flush. No functional unit and no cache
/// sees it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InstrTimes {
    /// Cycle the instruction was fetched.
    pub fetch: u64,
    /// Cycle it entered the out-of-order window.
    pub dispatch: u64,
    /// Cycle it began execution.
    pub issue: u64,
    /// Cycle its result became available (branch resolution point for
    /// branches).
    pub complete: u64,
}

/// Every execution class, in discriminant order: `ALL_CLASSES[i] as
/// usize == i`.
const ALL_CLASSES: [ExecClass; 9] = [
    ExecClass::IntAlu,
    ExecClass::IntMul,
    ExecClass::IntDiv,
    ExecClass::FpAdd,
    ExecClass::FpMul,
    ExecClass::FpDiv,
    ExecClass::Load,
    ExecClass::Store,
    ExecClass::Branch,
];

/// The functional units of one execution class.
#[derive(Clone, Debug)]
struct FuClass {
    /// Cycles a server stays booked per instruction: 1 when pipelined,
    /// the whole latency when not.
    busy: u64,
    /// Result latency in cycles.
    latency: u64,
    /// Next-free cycle of each server; never empty.
    free: Vec<u64>,
}

impl FuClass {
    /// Computes the issue cycle on the first of the servers that free
    /// earliest (the one `min_by_key` would pick) and returns it with the
    /// latency. The booking is only committed for instructions that
    /// actually execute: wrong-path instructions squashed before issue
    /// (the flush happens first) must not hold functional units.
    #[inline(always)]
    fn acquire(&mut self, ready: u64, squash_at: Option<u64>) -> (u64, u64) {
        let mut best = 0;
        for (i, &free) in self.free.iter().enumerate().skip(1) {
            if free < self.free[best] {
                best = i;
            }
        }
        let issue = ready.max(self.free[best]);
        if squash_at.is_none_or(|resolve| issue < resolve) {
            self.free[best] = issue + self.busy;
        }
        (issue, self.latency)
    }
}

/// The correct-path window occupancy: vacate cycles of in-flight
/// instructions in the ROB (dispatch order), issue queue, and load/store
/// queues. See [`WindowState`] for the issue queue's floor.
#[derive(Default, Debug)]
struct Window {
    rob: VecDeque<u64>,
    iq: IssueQueue,
    lq: VecDeque<u64>,
    sq: VecDeque<u64>,
}

impl Window {
    /// The issue queue and the ROB, LQ and SQ as the path being fed sees
    /// them: this window's own, or a wrong-path episode's `scratch`.
    #[inline(always)]
    fn view<'a>(
        &'a mut self,
        scratch: Option<&'a mut WindowState>,
    ) -> (&'a mut IssueQueue, [Fifo<'a>; 3]) {
        let Window { rob, iq, lq, sq } = self;
        match scratch {
            Some(s) => (
                &mut s.iq,
                [
                    Fifo::new(rob, Some(&mut s.rob)),
                    Fifo::new(lq, Some(&mut s.lq)),
                    Fifo::new(sq, Some(&mut s.sq)),
                ],
            ),
            None => (
                iq,
                [
                    Fifo::new(rob, None),
                    Fifo::new(lq, None),
                    Fifo::new(sq, None),
                ],
            ),
        }
    }
}

/// One FIFO window resource (ROB, LQ or SQ) as a wrong-path episode sees
/// it: the correct-path queue without its first `popped` entries, then
/// the entries the episode pushed. The correct-path queue is read in
/// place and never written.
#[derive(Clone, Default, Debug)]
struct Overlay {
    popped: usize,
    pushed: VecDeque<u64>,
}

impl Overlay {
    fn len(&self, base: &VecDeque<u64>) -> usize {
        base.len() - self.popped + self.pushed.len()
    }

    fn pop_front(&mut self, base: &VecDeque<u64>) -> Option<u64> {
        match base.get(self.popped) {
            Some(&oldest) => {
                self.popped += 1;
                Some(oldest)
            }
            None => self.pushed.pop_front(),
        }
    }

    fn clear(&mut self) {
        self.popped = 0;
        self.pushed.clear();
    }
}

/// A FIFO window resource as the path being fed sees it: the correct-path
/// queue itself, or a wrong-path overlay on it.
struct Fifo<'a> {
    base: &'a mut VecDeque<u64>,
    overlay: Option<&'a mut Overlay>,
}

impl<'a> Fifo<'a> {
    fn new(base: &'a mut VecDeque<u64>, overlay: Option<&'a mut Overlay>) -> Fifo<'a> {
        Fifo { base, overlay }
    }

    /// Pops the oldest entry if the resource holds `size` or more.
    /// Invariant: the pop cannot fail, since `SimConfig::validate`
    /// rejects zero-sized windows, so `len() >= size` implies the
    /// resource is non-empty.
    #[inline(always)]
    fn pop_if_full(&mut self, size: usize) -> Option<u64> {
        let oldest = match self.overlay.as_deref_mut() {
            Some(o) if o.len(self.base) >= size => o.pop_front(self.base),
            Some(_) => return None,
            None if self.base.len() >= size => self.base.pop_front(),
            None => return None,
        };
        Some(oldest.expect("a full window resource is non-empty"))
    }

    #[inline(always)]
    fn push(&mut self, vacate: u64) {
        match self.overlay.as_deref_mut() {
            Some(o) => o.pushed.push_back(vacate),
            None => self.base.push_back(vacate),
        }
    }
}

/// A wrong-path episode's window, from [`Pipeline::begin_wrong_path`].
///
/// Squashed instructions contend for window entries against the
/// genuinely in-flight instructions, but their bookkeeping must not leak
/// into the post-resolution correct path. The ROB, LQ and SQ are
/// overlays on the correct-path queues: each records how many
/// correct-path entries the episode has popped, plus the episode's own
/// pushes, and reads the correct-path queue in place. The issue queue is
/// a copy, since a pop takes its earliest entry from anywhere in it. So
/// until the episode ends, only wrong-path instructions may be fed: a
/// correct-path feed would move the queues under the overlays.
///
/// The issue queue keeps a *floor*: `fetch + frontend_depth` of the latest
/// instruction fed on this window, below which no later dispatch on the
/// window can fall. That holds because the correct-path fetch cursor
/// never decreases: `fetch_one`, `break_fetch_group` and decode
/// backpressure only raise it, and [`Pipeline::redirect`] resumes at the
/// mispredicted branch's resolution plus the redirect penalty, which is
/// after that branch's fetch. A wrong-path episode starts from the
/// correct-path floor and the correct-path cursor, and wrong-path fetch
/// only raises the cursor too. Entries that vacate at or below the floor
/// are therefore only counted (see `IssueQueue`).
#[derive(Clone, Default, Debug)]
pub struct WindowState {
    rob: Overlay,
    iq: IssueQueue,
    lq: Overlay,
    sq: Overlay,
    /// Correct-path instructions retired when the episode began.
    retired_at_begin: u64,
}

/// The core timing model. See the module-level documentation for the
/// modeling approach.
#[derive(Debug)]
pub struct Pipeline {
    cfg: CoreConfig,
    hierarchy: MemoryHierarchy,
    // The µop of each text slot of the timed program, from `text_base`;
    // empty when the pipeline was built without a program.
    text_base: Addr,
    uops: Arc<[Uop]>,
    // Frontend state.
    fetch_cycle: u64,
    fetch_in_cycle: usize,
    last_fetch_line: Option<u64>,
    line_shift: u32,
    // Dataflow state: completion cycle of each architectural register's
    // latest writer.
    reg_ready: [u64; NUM_ARCH_REGS],
    // Correct-path window occupancy.
    window: Window,
    // Functional units, indexed by `ExecClass as usize`.
    fu: [FuClass; 9],
    // Retirement.
    last_retire: u64,
    retired_in_cycle: usize,
    retired: u64,
    wrong_path_injected: u64,
    // CPI-stack accounting: retire gaps are attributed to the stall class
    // on the backward critical path of the retiring instruction, so the
    // components telescope to exactly `cycles()`.
    cpi: CpiStack,
    // Stall class each architectural register's latest correct-path writer
    // completed under — propagates memory-boundness down RAW chains.
    reg_class: [StallClass; NUM_ARCH_REGS],
    // Culprit profile of the most recently fed correct-path instruction:
    // (critical-path class, cycles of memory latency beyond the FU).
    last_profile: (StallClass, u64),
    // Misprediction-recovery state: set by `redirect`, consumed by the
    // first correct-path retire after it.
    redirect_pending: bool,
    // Fetch cycles consumed by wrong-path fetch since the last correct
    // retire (charged to the WrongPathFetch lane at recovery).
    wp_fetch_pending: u64,
    last_wp_fetch_cycle: u64,
    // Retired scratch window recycled across injection episodes so
    // `begin_wrong_path` is allocation-free in steady state.
    wp_spare: Option<WindowState>,
}

impl Pipeline {
    /// Creates an idle pipeline over a fresh memory hierarchy. It decodes
    /// each instruction it times; [`Pipeline::for_program`] reads a
    /// program's µop table instead.
    #[must_use]
    pub fn new(cfg: CoreConfig) -> Pipeline {
        let hierarchy = MemoryHierarchy::new(&cfg);
        let fu = ALL_CLASSES.map(|c| {
            let pool = cfg.fu_pool(c);
            FuClass {
                busy: if pool.pipelined { 1 } else { pool.latency },
                latency: pool.latency,
                free: vec![0; pool.count.max(1)],
            }
        });
        let line_shift = cfg.l1i.line_bytes.trailing_zeros();
        Pipeline {
            cfg,
            hierarchy,
            text_base: 0,
            uops: Arc::from([]),
            fetch_cycle: 0,
            fetch_in_cycle: 0,
            last_fetch_line: None,
            line_shift,
            reg_ready: [0; NUM_ARCH_REGS],
            window: Window::default(),
            fu,
            last_retire: 0,
            retired_in_cycle: 0,
            retired: 0,
            wrong_path_injected: 0,
            cpi: CpiStack::new(),
            reg_class: [StallClass::Base; NUM_ARCH_REGS],
            last_profile: (StallClass::Base, 0),
            redirect_pending: false,
            wp_fetch_pending: 0,
            last_wp_fetch_cycle: u64::MAX,
            wp_spare: None,
        }
    }

    /// Creates an idle pipeline that times `program`'s instructions: it
    /// reads each pc's µop from the program's table
    /// ([`Program::uops`]), and decodes only instructions fed from outside
    /// the program's text. Every instruction fed at a pc in the text must
    /// be the program's instruction there.
    #[must_use]
    pub fn for_program(cfg: CoreConfig, program: &Program) -> Pipeline {
        Pipeline {
            text_base: program.base(),
            uops: Arc::clone(program.uops()),
            ..Pipeline::new(cfg)
        }
    }

    /// The memory hierarchy (stats inspection).
    #[must_use]
    pub fn hierarchy(&self) -> &MemoryHierarchy {
        &self.hierarchy
    }

    /// Total cycles elapsed (cycle of the last retirement).
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.last_retire
    }

    /// Correct-path instructions retired.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Wrong-path instructions injected into the pipeline.
    #[must_use]
    pub fn wrong_path_injected(&self) -> u64 {
        self.wrong_path_injected
    }

    /// The CPI stack accumulated since construction. Its
    /// [`CpiStack::total`] equals [`Pipeline::cycles`].
    #[must_use]
    pub fn cpi(&self) -> CpiStack {
        self.cpi
    }

    /// The cycle the next instruction would be fetched.
    #[must_use]
    pub fn next_fetch_cycle(&self) -> u64 {
        self.fetch_cycle
    }

    /// Snapshot of the register-dependence scoreboard, taken before
    /// injecting a wrong path (whose register writes must not leak into
    /// the post-resolution correct path).
    #[must_use]
    pub fn snapshot_regs(&self) -> [u64; NUM_ARCH_REGS] {
        self.reg_ready
    }

    /// Restores a register-dependence snapshot (wrong-path flush).
    pub fn restore_regs(&mut self, snapshot: [u64; NUM_ARCH_REGS]) {
        self.reg_ready = snapshot;
    }

    /// Ends the current fetch group (taken branch): the next instruction
    /// fetches in a new cycle.
    pub fn break_fetch_group(&mut self) {
        if self.fetch_in_cycle > 0 {
            self.fetch_cycle += 1;
            self.fetch_in_cycle = 0;
        }
        self.last_fetch_line = None;
    }

    /// Redirects fetch to resume at `cycle` (misprediction recovery:
    /// squash + rename restore + refetch). Unlike
    /// [`Pipeline::break_fetch_group`], this *resets* the fetch cursor —
    /// wherever wrong-path fetch had advanced to, the frontend is squashed
    /// and restarts at the recovery point.
    ///
    /// The resume cycle must not be below the correct-path window's floor
    /// (the latest correct-path instruction's `fetch + frontend_depth`), so
    /// that the correct-path fetch cursor never decreases as seen by the
    /// window (see [`WindowState`]). A misprediction resumes at its
    /// branch's resolution plus the redirect penalty, and the branch
    /// resolves no earlier than it dispatches.
    pub fn redirect(&mut self, cycle: u64) {
        debug_assert!(
            cycle >= self.window.iq.floor(),
            "redirect to cycle {cycle} is below the correct-path floor {}",
            self.window.iq.floor()
        );
        self.fetch_cycle = cycle;
        self.fetch_in_cycle = 0;
        self.last_fetch_line = None;
        self.redirect_pending = true;
    }

    fn fetch_one(&mut self, pc: Addr, path: PathKind) -> (u64, Level) {
        let line = pc >> self.line_shift;
        let mut served_by = Level::L1;
        if self.last_fetch_line != Some(line) {
            let res = self.hierarchy.fetch(pc, self.fetch_cycle, path);
            served_by = res.served_by;
            if res.served_by != Level::L1 {
                // The L1I hit latency is pipelined into the frontend depth;
                // only the excess stalls fetch.
                let stall = res.latency - self.cfg.l1i.latency;
                self.fetch_cycle += stall;
                self.fetch_in_cycle = 0;
                if path == PathKind::Wrong {
                    self.wp_fetch_pending += stall;
                }
            }
            self.last_fetch_line = Some(line);
        }
        if self.fetch_in_cycle >= self.cfg.fetch_width {
            self.fetch_cycle += 1;
            self.fetch_in_cycle = 0;
        }
        self.fetch_in_cycle += 1;
        // Each distinct cycle in which wrong-path instructions occupy fetch
        // slots is bandwidth stolen from post-recovery refill.
        if path == PathKind::Wrong && self.fetch_cycle != self.last_wp_fetch_cycle {
            self.wp_fetch_pending += 1;
            self.last_wp_fetch_cycle = self.fetch_cycle;
        }
        (self.fetch_cycle, served_by)
    }

    /// The µop of `instr`, fed at `pc`: the program's table entry when
    /// `pc` lies in its text, else decoded on the spot.
    #[inline(always)]
    fn uop_at(&self, pc: Addr, instr: &Instr) -> Uop {
        let slot = pc.wrapping_sub(self.text_base) / INSTR_BYTES;
        let uop = usize::try_from(slot)
            .ok()
            .and_then(|i| self.uops.get(i))
            .map_or_else(|| instr.uop(), |&uop| uop);
        debug_assert_eq!(uop, instr.uop(), "{instr} at {pc:#x} is not the program's");
        uop
    }

    /// Sends one instruction through fetch→dispatch→issue→complete.
    ///
    /// `flush_at` is `None` for correct-path instructions (they will
    /// retire) and `Some(resolve)` for wrong-path instructions (they
    /// vacate the window when the mispredicted branch resolves).
    /// `scratch` is the wrong-path episode's window, or `None` for the
    /// pipeline's own correct-path window. The body is inlined into
    /// [`Pipeline::feed_correct`] and [`Pipeline::feed_wrong`], so each
    /// keeps only its own path's work.
    ///
    /// Each call raises the window's issue-queue floor to this instruction's
    /// `fetch + frontend_depth`. That is only sound because fetch never
    /// moves backwards along the path the window belongs to (see
    /// [`WindowState`] and [`Pipeline::redirect`]).
    #[inline(always)]
    #[allow(clippy::too_many_arguments)] // one timing model entry point, mirrored stages
    fn feed(
        &mut self,
        scratch: Option<&mut WindowState>,
        pc: Addr,
        instr: &Instr,
        mem: Option<MemAccess>,
        path: PathKind,
        load_timing: LoadTiming,
        flush_at: Option<u64>,
    ) -> InstrTimes {
        let uop = self.uop_at(pc, instr);
        let class = uop.class();
        let (fetch, fetch_level) = self.fetch_one(pc, path);

        let (iq, [mut rob, mut lq, mut sq]) = self.window.view(scratch);

        // Dispatch: wait for window resources. `window_clamp` remembers
        // which full resource (if any) pushed dispatch back the furthest,
        // for CPI attribution.
        let mut dispatch = fetch + self.cfg.frontend_depth;
        iq.advance(dispatch);
        let mut window_clamp = None;
        let mut wait_for = |oldest: Option<u64>, full: StallClass| {
            if let Some(oldest) = oldest.filter(|&oldest| oldest > dispatch) {
                dispatch = oldest;
                window_clamp = Some(full);
            }
        };
        wait_for(rob.pop_if_full(self.cfg.rob_size), StallClass::RobFull);
        if iq.len() >= self.cfg.iq_size {
            wait_for(Some(iq.pop_earliest()), StallClass::IqFull);
        }
        if uop.is_load() {
            wait_for(lq.pop_if_full(self.cfg.load_queue), StallClass::LsqFull);
        }
        if uop.is_store() {
            wait_for(sq.pop_if_full(self.cfg.store_queue), StallClass::LsqFull);
        }
        // Decode-buffer backpressure: fetch cannot run arbitrarily far
        // ahead of a stalled dispatch stage.
        self.fetch_cycle = self
            .fetch_cycle
            .max(dispatch.saturating_sub(self.cfg.frontend_depth + DECODE_SLACK));

        // Register dependences. `dep_class` tracks the stall class of the
        // producer that gates readiness the longest.
        let mut ready = dispatch;
        let mut dep_class = StallClass::Base;
        for src in uop.srcs() {
            let idx = src.flat_index();
            if self.reg_ready[idx] > ready {
                ready = self.reg_ready[idx];
                dep_class = self.reg_class[idx];
            }
        }

        let (issue, complete) = if flush_at.is_some_and(|resolve| ready >= resolve) {
            // A wrong-path instruction whose operands are ready only at or
            // after resolution is squashed before issue, whatever the
            // functional units hold: the timing simulator "discards the
            // unneeded instructions of the wrong path" (§III-B). It books
            // no unit and touches no cache, and its result need only read
            // as not before the flush, which `ready` does.
            (ready, ready)
        } else {
            // Issue on a functional unit.
            let (issue, fu_latency) = self.fu[class as usize].acquire(ready, flush_at);

            // Wrong-path instructions that have not issued by the time the
            // mispredicted branch resolves are squashed before execution:
            // they never reach the cache.
            let squashed_before_issue = flush_at.is_some_and(|resolve| issue >= resolve);

            // Completion. `mem_level` records which level served a load
            // (for CPI attribution); `mem_extra` the latency beyond the FU.
            let mut mem_level = None;
            let mut mem_extra = 0;
            let complete = match class {
                ExecClass::Load => {
                    let lat = match (load_timing, mem) {
                        _ if squashed_before_issue => 0,
                        (LoadTiming::Real, Some(m)) => {
                            let res = self.hierarchy.data_access(m.addr, false, issue, path);
                            mem_level = Some(res.served_by);
                            res.latency
                        }
                        // Address unknown (instruction reconstruction):
                        // model as an L1D hit without touching cache state.
                        _ => {
                            mem_level = Some(Level::L1);
                            self.cfg.l1d.latency
                        }
                    };
                    mem_extra = lat;
                    issue + fu_latency + lat
                }
                ExecClass::Store => {
                    // Stores leave the critical path through the store
                    // buffer; the cache access happens for state/bandwidth
                    // purposes on the correct path only (wrong-path stores
                    // are suppressed before they would access the cache).
                    if path == PathKind::Correct {
                        if let Some(m) = mem {
                            let _ = self.hierarchy.data_access(m.addr, true, issue, path);
                        }
                    }
                    issue + fu_latency
                }
                _ => issue + fu_latency,
            };

            // Backward critical-path culprit of a correct-path instruction
            // (the next correct-path feed overwrites a wrong-path one
            // before any retire reads it), in priority order: the
            // instruction's own below-L1 memory access, then the gating
            // producer's class (propagating memory-boundness down RAW
            // chains), then FU contention, a full window resource, an
            // instruction-cache miss, an L1-hit load, and finally base
            // issue bandwidth. The class scoreboard only tracks
            // correct-path writers: wrong-path `reg_ready` writes are
            // rolled back via `restore_regs`, and stale classes behind
            // rolled-back ready times are never consulted.
            if path == PathKind::Correct {
                let culprit = if let Some(level) = mem_level.filter(|&l| l != Level::L1) {
                    level_class(level)
                } else if ready > dispatch {
                    dep_class
                } else if issue > ready {
                    StallClass::Base
                } else if let Some(clamp) = window_clamp {
                    clamp
                } else if fetch_level != Level::L1 {
                    level_class(fetch_level)
                } else if mem_level.is_some() {
                    StallClass::L1Bound
                } else {
                    StallClass::Base
                };
                self.last_profile = (culprit, mem_extra);
                if let Some(dst) = uop.dst() {
                    self.reg_class[dst.flat_index()] = match culprit {
                        c if c.is_memory_bound() => c,
                        _ => StallClass::Base,
                    };
                }
            }
            (issue, complete)
        };
        if let Some(dst) = uop.dst() {
            self.reg_ready[dst.flat_index()] = complete;
        }

        // Window occupancy bookkeeping. Wrong-path entries vacate at the
        // flush; correct-path ROB entries are pushed by `feed_correct`.
        let vacate = flush_at.unwrap_or(complete);
        iq.push(issue.min(vacate));
        if uop.is_load() {
            lq.push(complete.min(vacate));
        }
        if uop.is_store() {
            sq.push(complete.min(vacate));
        }
        if let Some(flush) = flush_at {
            rob.push(flush);
            self.wrong_path_injected += 1;
        }

        InstrTimes {
            fetch,
            dispatch,
            issue,
            complete,
        }
    }

    /// Processes one correct-path instruction and retires it in order.
    /// Returns its timestamps; the retire cycle is folded into
    /// [`Pipeline::cycles`].
    pub fn feed_correct(&mut self, pc: Addr, instr: &Instr, mem: Option<MemAccess>) -> InstrTimes {
        let prev_retire = self.last_retire;
        let t = self.feed(
            None,
            pc,
            instr,
            mem,
            PathKind::Correct,
            LoadTiming::Real,
            None,
        );
        let retire = self.retire_in_order(t.complete);
        self.window.rob.push_back(retire);
        self.retired += 1;
        self.attribute_retire_gap(retire - prev_retire);
        t
    }

    /// Charges the cycles between consecutive retires to stall classes.
    /// Gaps telescope (`retire - prev_retire` summed over all retires is
    /// exactly the final retire cycle), so the stack's total always equals
    /// [`Pipeline::cycles`].
    fn attribute_retire_gap(&mut self, gap: u64) {
        if gap > 0 {
            // The retire slot itself is useful bandwidth.
            self.cpi.add(StallClass::Base, false, 1);
            let stall = gap - 1;
            if stall > 0 {
                let (culprit, mem_extra) = self.last_profile;
                if self.redirect_pending {
                    // Misprediction-recovery gap: the retiring instruction's
                    // own memory latency keeps its class; fetch cycles the
                    // wrong path consumed go to the wrong-path lane; the
                    // rest is redirect + refill.
                    let mut rest = stall;
                    if culprit.is_memory_bound() {
                        let mem_part = rest.min(mem_extra);
                        self.cpi.add(culprit, false, mem_part);
                        rest -= mem_part;
                    }
                    let stolen = rest.min(self.wp_fetch_pending);
                    self.cpi.add(StallClass::WrongPathFetch, true, stolen);
                    rest -= stolen;
                    self.cpi.add(StallClass::FrontendMispredict, false, rest);
                } else {
                    self.cpi.add(culprit, false, stall);
                }
            }
        }
        self.redirect_pending = false;
        self.wp_fetch_pending = 0;
        self.last_wp_fetch_cycle = u64::MAX;
    }

    /// Starts a wrong-path injection episode: a window that overlays the
    /// current correct-path occupancy (see [`WindowState`]). Until
    /// [`Pipeline::end_wrong_path`], feed only wrong-path instructions.
    #[must_use]
    pub fn begin_wrong_path(&mut self) -> WindowState {
        let mut scratch = self.wp_spare.take().unwrap_or_default();
        for overlay in [&mut scratch.rob, &mut scratch.lq, &mut scratch.sq] {
            overlay.clear();
        }
        scratch.iq.copy_from(&self.window.iq);
        scratch.retired_at_begin = self.retired;
        scratch
    }

    /// Ends a wrong-path injection episode, recycling the scratch window's
    /// allocations for the next one. Purely a host-speed device — dropping
    /// the scratch instead is equally correct, just slower.
    pub fn end_wrong_path(&mut self, scratch: WindowState) {
        self.wp_spare = Some(scratch);
    }

    /// Injects one wrong-path instruction that will be flushed when the
    /// mispredicted branch resolves at `resolve`, against the scratch
    /// window from [`Pipeline::begin_wrong_path`].
    ///
    /// An instruction whose operands are ready only at or after `resolve`
    /// is squashed before issue (see [`InstrTimes`]): it still takes a
    /// fetch slot and window entries until the flush, but it books no
    /// functional unit, its load reaches no cache, and its `issue` and
    /// `complete` are the cycle its operands are ready.
    #[inline]
    pub fn feed_wrong(
        &mut self,
        window: &mut WindowState,
        pc: Addr,
        instr: &Instr,
        mem: Option<MemAccess>,
        load_timing: LoadTiming,
        resolve: u64,
    ) -> InstrTimes {
        debug_assert_eq!(
            window.retired_at_begin, self.retired,
            "a correct-path instruction was fed during a wrong-path episode"
        );
        self.feed(
            Some(window),
            pc,
            instr,
            mem,
            PathKind::Wrong,
            load_timing,
            Some(resolve),
        )
    }

    fn retire_in_order(&mut self, complete: u64) -> u64 {
        // +1: results written back this cycle retire the next.
        let mut r = (complete + 1).max(self.last_retire);
        if r == self.last_retire {
            if self.retired_in_cycle >= self.cfg.retire_width {
                r += 1;
                self.retired_in_cycle = 1;
            } else {
                self.retired_in_cycle += 1;
            }
        } else {
            self.retired_in_cycle = 1;
        }
        self.last_retire = r;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsim_isa::{AluOp, MemWidth, Reg};
    use proptest::prelude::*;

    fn pipeline() -> Pipeline {
        Pipeline::new(CoreConfig::tiny_for_tests())
    }

    fn alu(rd: u8, rs1: u8, rs2: u8) -> Instr {
        Instr::Alu {
            op: AluOp::Add,
            rd: Reg::new(rd),
            rs1: Reg::new(rs1),
            rs2: Reg::new(rs2),
        }
    }

    fn load(rd: u8, base: u8) -> Instr {
        Instr::Load {
            rd: Reg::new(rd),
            base: Reg::new(base),
            offset: 0,
            width: MemWidth::D,
            signed: false,
        }
    }

    fn mem(addr: Addr) -> Option<MemAccess> {
        Some(MemAccess {
            addr,
            size: 8,
            is_store: false,
        })
    }

    #[test]
    fn independent_alu_ops_pipeline_at_full_width() {
        let mut p = pipeline();
        // Cold pass: pays instruction-cache misses.
        for i in 0..60u64 {
            let _ = p.feed_correct(0x1000 + i * 4, &alu((i % 8 + 1) as u8, 9, 10), None);
        }
        let cold_cycles = p.cycles();
        // Warm pass over the same addresses: fetch-limited throughput.
        for i in 0..60u64 {
            let _ = p.feed_correct(0x1000 + i * 4, &alu((i % 8 + 1) as u8, 9, 10), None);
        }
        let warm_cycles = p.cycles() - cold_cycles;
        assert_eq!(p.retired(), 120);
        // 60 independent adds, 6-wide fetch, 8-wide retire, 5 ALUs:
        // the warm pass should take tens of cycles, not hundreds.
        assert!(warm_cycles < 40, "warm pass took {warm_cycles} cycles");
        assert!(cold_cycles > warm_cycles, "cold pass pays icache misses");
    }

    #[test]
    fn dependence_chain_serializes() {
        let mut p = pipeline();
        let mut pc = 0x1000;
        let mut last_complete = 0;
        for _ in 0..30 {
            // x1 = x1 + x1 — a pure chain.
            let t = p.feed_correct(pc, &alu(1, 1, 1), None);
            assert!(t.complete > last_complete);
            last_complete = t.complete;
            pc += 4;
        }
        // The chain is 30 cycles long at minimum.
        assert!(p.cycles() >= 30);
    }

    #[test]
    fn load_miss_latency_propagates_to_dependents() {
        let mut p = pipeline();
        let t_load = p.feed_correct(0x1000, &load(1, 2), mem(0x8_0000));
        // Dependent add cannot complete before the load.
        let t_add = p.feed_correct(0x1004, &alu(3, 1, 1), None);
        assert!(t_add.issue >= t_load.complete);
        // An independent add issues long before the load completes.
        let t_indep = p.feed_correct(0x1008, &alu(4, 5, 6), None);
        assert!(t_indep.issue < t_load.complete);
    }

    #[test]
    fn warm_load_is_fast() {
        let mut p = pipeline();
        let cold = p.feed_correct(0x1000, &load(1, 2), mem(0x8_0000));
        let warm = p.feed_correct(0x1004, &load(3, 2), mem(0x8_0000));
        assert!(
            warm.complete - warm.issue < cold.complete - cold.issue,
            "second access to the same line must be faster"
        );
    }

    #[test]
    fn assume_hit_skips_cache_state() {
        let mut p = pipeline();
        let mut w = p.begin_wrong_path();
        let t = p.feed_wrong(
            &mut w,
            0x1000,
            &load(1, 2),
            None,
            LoadTiming::AssumeL1Hit,
            1000,
        );
        // No data-cache access happened at all.
        assert_eq!(p.hierarchy().l1d().stats().accesses(), 0);
        // And latency is the fixed L1 latency.
        let cfg = CoreConfig::tiny_for_tests();
        assert_eq!(t.complete, t.issue + 1 + cfg.l1d.latency);
    }

    #[test]
    fn wrong_path_load_with_address_touches_cache() {
        let mut p = pipeline();
        let mut w = p.begin_wrong_path();
        let _ = p.feed_wrong(
            &mut w,
            0x1000,
            &load(1, 2),
            mem(0x9000),
            LoadTiming::Real,
            1000,
        );
        assert_eq!(p.hierarchy().l1d().stats().misses.get(PathKind::Wrong), 1);
        assert!(p.hierarchy().l1d().probe(0x9000));
        assert_eq!(p.wrong_path_injected(), 1);
        assert_eq!(p.retired(), 0, "wrong-path instructions never retire");
    }

    #[test]
    fn wrong_path_register_writes_are_flushable() {
        let mut p = pipeline();
        let snap = p.snapshot_regs();
        let mut w = p.begin_wrong_path();
        let _ = p.feed_wrong(
            &mut w,
            0x1000,
            &load(1, 2),
            mem(0x9000),
            LoadTiming::Real,
            1000,
        );
        p.restore_regs(snap);
        // A dependent correct-path consumer of x1 is not delayed by the
        // squashed wrong-path load.
        let t = p.feed_correct(0x1004, &alu(3, 1, 1), None);
        assert!(t.issue <= t.dispatch + 1);
    }

    #[test]
    fn rob_fill_stalls_dispatch() {
        let mut p = pipeline();
        // One very long load...
        let t0 = p.feed_correct(0x1000, &load(1, 2), mem(0x8_0000));
        // ...then a chain of dependent ALU ops long past the tiny 32-entry
        // ROB. Entries cannot dispatch until the blocked head retires.
        let mut pc = 0x1004;
        let mut times = Vec::new();
        for _ in 0..40 {
            times.push(p.feed_correct(pc, &alu(1, 1, 1), None));
            pc += 4;
        }
        // The 40th instruction dispatches after the load completed.
        assert!(times.last().unwrap().dispatch >= t0.complete);
    }

    #[test]
    fn redirect_halts_fetch_until_resume() {
        let mut p = pipeline();
        let _ = p.feed_correct(0x1000, &alu(1, 2, 3), None);
        p.redirect(500);
        let t = p.feed_correct(0x1004, &alu(4, 5, 6), None);
        assert!(t.fetch >= 500);
    }

    #[test]
    fn mispredict_redirect_resumes_at_or_above_the_floor() {
        use ffsim_isa::BranchCond;
        let cfg = CoreConfig::tiny_for_tests();
        let mut p = pipeline();
        for i in 0..20u64 {
            let _ = p.feed_correct(0x1000 + i * 4, &alu((i % 8 + 1) as u8, 9, 10), None);
        }
        // A branch on a DRAM load: a long wrong-path shadow.
        let _ = p.feed_correct(0x1050, &load(1, 2), mem(0x80_0000));
        let branch = Instr::Branch {
            cond: BranchCond::Ne,
            rs1: Reg::new(1),
            rs2: Reg::new(0),
            target: 0x2000,
        };
        let t = p.feed_correct(0x1054, &branch, None);
        let floor = p.window.iq.floor();
        assert_eq!(floor, t.fetch + cfg.frontend_depth);
        // Wrong-path fetch runs ahead on the scratch copy, as in the run
        // loop, then fetch redirects to the resolution plus the penalty.
        let resolve = t.complete;
        let mut w = p.begin_wrong_path();
        let mut pc = 0x2000;
        while p.next_fetch_cycle() < resolve {
            let _ = p.feed_wrong(&mut w, pc, &alu(3, 4, 5), None, LoadTiming::Real, resolve);
            pc += 4;
        }
        assert!(
            w.iq.floor() >= floor,
            "the scratch floor starts at the correct one"
        );
        p.end_wrong_path(w);
        let resume = resolve + cfg.redirect_penalty;
        assert!(resume >= floor, "resume {resume} below floor {floor}");
        p.redirect(resume);
        let after = p.feed_correct(0x1058, &alu(6, 7, 8), None);
        assert!(after.fetch >= resume);
        assert!(p.window.iq.floor() > floor);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "below the correct-path floor")]
    fn redirect_below_the_floor_is_caught() {
        let mut p = pipeline();
        p.redirect(500);
        let _ = p.feed_correct(0x1000, &alu(1, 2, 3), None);
        p.redirect(10);
    }

    #[test]
    fn fetch_group_breaks_on_taken_branch() {
        let mut p = pipeline();
        let t1 = p.feed_correct(0x1000, &alu(1, 2, 3), None);
        p.break_fetch_group();
        let t2 = p.feed_correct(0x2000, &alu(4, 5, 6), None);
        assert!(t2.fetch > t1.fetch);
    }

    #[test]
    fn unpipelined_divider_blocks() {
        let mut p = pipeline();
        let div = Instr::Alu {
            op: AluOp::Div,
            rd: Reg::new(1),
            rs1: Reg::new(2),
            rs2: Reg::new(3),
        };
        let div2 = Instr::Alu {
            op: AluOp::Div,
            rd: Reg::new(4),
            rs1: Reg::new(5),
            rs2: Reg::new(6),
        };
        let t1 = p.feed_correct(0x1000, &div, None);
        let t2 = p.feed_correct(0x1004, &div2, None);
        // Independent divides still serialize on the single divider.
        assert!(t2.issue >= t1.issue + 18);
        let _ = (t1, t2);
    }

    #[test]
    fn retire_width_limits_throughput() {
        let mut cfg = CoreConfig::tiny_for_tests();
        cfg.retire_width = 1;
        let mut p = Pipeline::new(cfg);
        let mut pc = 0x1000;
        for i in 0..20 {
            let _ = p.feed_correct(pc, &alu((i % 8 + 1) as u8, 9, 10), None);
            pc += 4;
        }
        // 1-wide retire: at least 20 cycles.
        assert!(p.cycles() >= 20);
    }

    #[test]
    fn cpi_stack_sums_to_cycles() {
        use ffsim_obs::StallClass;
        let mut p = pipeline();
        // A mix of stall behaviors: icache misses, dependence chains,
        // DRAM-bound loads, ROB pressure, a wrong-path episode with a
        // redirect.
        for i in 0..50u64 {
            let _ = p.feed_correct(0x1000 + i * 4, &alu(1, 1, 1), None);
        }
        let _ = p.feed_correct(0x2000, &load(1, 2), mem(0x80_0000));
        let t_branch = p.feed_correct(0x2004, &alu(3, 1, 1), None);
        // The mispredicted branch resolves when it completes (as in the
        // simulator's run loop); wrong-path work fills the shadow.
        let resolve = t_branch.complete + 100;
        let snap = p.snapshot_regs();
        let mut w = p.begin_wrong_path();
        for i in 0..10u64 {
            let _ = p.feed_wrong(
                &mut w,
                0x9000 + i * 4,
                &load(4, 5),
                mem(0xA0_0000 + i * 64),
                LoadTiming::Real,
                resolve,
            );
        }
        p.restore_regs(snap);
        p.redirect(resolve + 5);
        for i in 0..20u64 {
            let _ = p.feed_correct(0x3000 + i * 4, &alu(2, 2, 2), None);
        }
        assert_eq!(
            p.cpi().total(),
            p.cycles(),
            "CPI components must sum exactly to elapsed cycles"
        );
        assert!(p.cpi().get(StallClass::FrontendMispredict) > 0);
        assert!(p.cpi().get_lane(StallClass::WrongPathFetch, true) > 0);
        assert!(p.cpi().get(StallClass::DramBound) > 0);
    }

    #[test]
    fn dependence_on_dram_load_is_charged_to_dram() {
        use ffsim_obs::StallClass;
        let mut p = pipeline();
        let _ = p.feed_correct(0x1000, &load(1, 2), mem(0x80_0000));
        // A long chain of dependents on the missing load: their stall
        // cycles are memory-bound, not base.
        let _ = p.feed_correct(0x1004, &alu(3, 1, 1), None);
        assert!(
            p.cpi().get(StallClass::DramBound) > p.cpi().get(StallClass::Base),
            "dependents of a DRAM miss must charge DramBound, got {:?}",
            p.cpi()
        );
    }

    #[test]
    fn icache_miss_stalls_fetch() {
        let mut p = pipeline();
        let t1 = p.feed_correct(0x1000, &alu(1, 2, 3), None);
        // Same line: no extra stall.
        let t2 = p.feed_correct(0x1004, &alu(2, 3, 4), None);
        assert!(t2.fetch <= t1.fetch + 1);
        // Far line: cold instruction fetch stalls.
        let t3 = p.feed_correct(0x8000, &alu(3, 4, 5), None);
        assert!(t3.fetch > t2.fetch + 10);
    }

    fn div(rd: u8, rs1: u8) -> Instr {
        Instr::Alu {
            op: AluOp::Div,
            rd: Reg::new(rd),
            rs1: Reg::new(rs1),
            rs2: Reg::new(3),
        }
    }

    fn store(src: u8, base: u8) -> Instr {
        Instr::Store {
            src: Reg::new(src),
            base: Reg::new(base),
            offset: 0,
            width: MemWidth::D,
        }
    }

    #[test]
    fn classes_index_their_own_table() {
        for (i, class) in ALL_CLASSES.into_iter().enumerate() {
            assert_eq!(class as usize, i, "{class:?}");
        }
    }

    /// The ROB, LQ and SQ as plain queues.
    type Queues = [VecDeque<u64>; 3];

    proptest! {
        /// The first-minimum scan books the server `min_by_key` picks.
        #[test]
        fn acquire_books_the_server_min_by_key_picks(
            free in proptest::collection::vec(0u64..6, 1..6),
            ready in 0u64..8,
            resolve in 0u64..12,
        ) {
            let mut fu = FuClass { busy: 4, latency: 4, free: free.clone() };
            let (issue, _) = fu.acquire(ready, Some(resolve));
            let (best, &earliest) = free
                .iter()
                .enumerate()
                .min_by_key(|(_, &f)| f)
                .expect("non-empty");
            let mut want = free.clone();
            if ready.max(earliest) < resolve {
                want[best] = ready.max(earliest) + 4;
            }
            prop_assert_eq!(issue, ready.max(earliest));
            prop_assert_eq!(fu.free, want);
        }

        /// The overlaid ROB, LQ and SQ agree with clones of the
        /// correct-path queues, the copying window they replace, on every
        /// pop and length: through correct-path pops and pushes, and
        /// through episodes begun and ended on the recycled spare window.
        /// An ended episode leaves the correct-path queues as they were.
        #[test]
        fn overlay_matches_a_cloned_window(
            ops in proptest::collection::vec((0u8..7, 0u64..1 << 16), 1..500),
        ) {
            let mut p = pipeline();
            // The episode's window, the reference clones it works on, and
            // the correct-path queues as they were at its start.
            let mut episode: Option<(WindowState, Queues, Queues)> = None;
            for &(kind, arg) in &ops {
                let q = (arg % 3) as usize;
                if kind == 0 {
                    match episode.take() {
                        None => {
                            let w = p.begin_wrong_path();
                            let copy = [
                                p.window.rob.clone(),
                                p.window.lq.clone(),
                                p.window.sq.clone(),
                            ];
                            episode = Some((w, copy.clone(), copy));
                        }
                        Some((w, _, before)) => {
                            p.end_wrong_path(w);
                            prop_assert_eq!(
                                [&p.window.rob, &p.window.lq, &p.window.sq],
                                [&before[0], &before[1], &before[2]]
                            );
                        }
                    }
                    continue;
                }
                let (scratch, reference) = match episode.as_mut() {
                    Some((w, reference, _)) => (Some(w), Some(reference)),
                    None => (None, None),
                };
                let (_, mut fifos) = p.window.view(scratch);
                let fifo = &mut fifos[q];
                match (kind, reference) {
                    // Pops, twice as often as pushes.
                    (1..=4, Some(r)) => prop_assert_eq!(fifo.pop_if_full(1), r[q].pop_front()),
                    (1..=4, None) => {
                        let _ = fifo.pop_if_full(1);
                    }
                    (_, r) => {
                        fifo.push(arg);
                        if let Some(r) = r {
                            r[q].push_back(arg);
                        }
                    }
                }
                if let Some((w, r, _)) = &episode {
                    let bases = [&p.window.rob, &p.window.lq, &p.window.sq];
                    for (i, overlay) in [&w.rob, &w.lq, &w.sq].into_iter().enumerate() {
                        prop_assert_eq!(overlay.len(bases[i]), r[i].len());
                    }
                }
            }
        }
    }

    /// Wrong-path loads and stores that fill the episode's ROB, LQ and SQ
    /// pop correct-path entries through the overlay; ending the episode
    /// leaves the correct-path queues exactly as they were, episode after
    /// episode on the recycled window.
    #[test]
    fn an_episode_leaves_the_correct_path_window_unchanged() {
        let mut p = pipeline();
        for i in 0..60u64 {
            let pc = 0x1000 + i * 4;
            let addr = 0x8_0000 + i * 64;
            let _ = match i % 3 {
                0 => p.feed_correct(pc, &load(1, 2), mem(addr)),
                1 => p.feed_correct(
                    pc,
                    &store(4, 2),
                    Some(MemAccess {
                        addr,
                        size: 8,
                        is_store: true,
                    }),
                ),
                _ => p.feed_correct(pc, &alu(5, 1, 1), None),
            };
        }
        let cfg = CoreConfig::tiny_for_tests();
        assert_eq!(p.window.rob.len(), cfg.rob_size);
        let before = (
            p.window.rob.clone(),
            p.window.lq.clone(),
            p.window.sq.clone(),
        );
        let resolve = p.cycles() + 500;
        for episode in 0..3u64 {
            let mut w = p.begin_wrong_path();
            for i in 0..80u64 {
                let pc = 0x4000 + (episode * 80 + i) * 4;
                let instr = if i % 2 == 0 { load(6, 7) } else { store(6, 7) };
                let _ = p.feed_wrong(&mut w, pc, &instr, mem(0x9_0000), LoadTiming::Real, resolve);
            }
            assert!(w.rob.popped > 0 && w.lq.popped > 0 && w.sq.popped > 0);
            p.end_wrong_path(w);
            let after = (
                p.window.rob.clone(),
                p.window.lq.clone(),
                p.window.sq.clone(),
            );
            assert_eq!(after, before, "episode {episode}");
        }
    }

    /// A wrong-path instruction whose operand is ready only after the
    /// mispredicted branch resolves is squashed before issue: its load
    /// reaches no cache and its divide books no divider.
    #[test]
    fn operands_ready_after_resolve_squash_before_issue() {
        let cfg = CoreConfig::tiny_for_tests();
        let run = |wrong_path: bool| {
            let mut p = pipeline();
            // x1 comes from DRAM, long after the mispredicted branch (an
            // independent add) resolves.
            let t_load = p.feed_correct(0x1000, &load(1, 2), mem(0x80_0000));
            let resolve = p.feed_correct(0x1004, &alu(4, 5, 6), None).complete;
            assert!(t_load.complete > resolve);
            if wrong_path {
                let accesses = p.hierarchy().l1d().stats().accesses();
                let snapshot = p.snapshot_regs();
                let mut w = p.begin_wrong_path();
                // In the branch's fetch line: no instruction-cache miss
                // delays dispatch, so the operand is what gates issue.
                let t = p.feed_wrong(
                    &mut w,
                    0x1010,
                    &load(7, 1),
                    mem(0x90_0000),
                    LoadTiming::Real,
                    resolve,
                );
                assert_eq!(p.hierarchy().l1d().stats().accesses(), accesses);
                assert_eq!(p.wrong_path_injected(), 1);
                assert_eq!((t.issue, t.complete), (t_load.complete, t_load.complete));
                let _ = p.feed_wrong(&mut w, 0x1014, &div(8, 1), None, LoadTiming::Real, resolve);
                assert_eq!(p.wrong_path_injected(), 2);
                p.end_wrong_path(w);
                p.restore_regs(snapshot);
            }
            p.redirect(resolve + cfg.redirect_penalty);
            p.feed_correct(0x1008, &div(9, 10), None)
        };
        assert!(run(true).issue <= run(false).issue);
    }

    /// The rule's boundary: a wrong-path load whose operand is ready the
    /// cycle before resolve still issues and reaches the cache; one whose
    /// operand is ready at resolve does not.
    #[test]
    fn squash_before_issue_starts_at_resolve() {
        let accesses_at = |resolve_after_ready: u64| {
            let mut p = pipeline();
            let ready = p.feed_correct(0x1000, &load(1, 2), mem(0x80_0000)).complete;
            let before = p.hierarchy().l1d().stats().accesses();
            let mut w = p.begin_wrong_path();
            let resolve = ready + resolve_after_ready;
            let t = p.feed_wrong(
                &mut w,
                0x1010,
                &load(7, 1),
                mem(0x90_0000),
                LoadTiming::Real,
                resolve,
            );
            assert_eq!(t.issue, ready);
            p.hierarchy().l1d().stats().accesses() - before
        };
        assert_eq!(accesses_at(0), 0);
        assert_eq!(accesses_at(1), 1);
    }
}
