//! The code cache between the functional and performance simulators.
//!
//! The functional simulator only ever delivers *correct-path* instructions.
//! But a static branch executed several times has, at some point, had both
//! of its successor paths delivered. The code cache (paper §III-A)
//! remembers the decode information of every instruction the performance
//! simulator has consumed — "instruction address, instruction type, input
//! and output registers" — so that on a misprediction the wrong path can
//! be *reconstructed* by walking remembered instructions from the wrong
//! target. A lookup miss stops reconstruction and falls back to halting
//! fetch.
//!
//! Program text is contiguous and immutable, so the cache is a table
//! indexed by text slot, `(pc − base) / 4`, rather than a map keyed by
//! pc: an insert is an index computation, and a wrong-path walk reads a
//! whole remembered straight-line stretch with one scan.

use ffsim_isa::{Addr, ArchReg, Instr, RegSet, INSTR_BYTES};
use std::collections::VecDeque;

/// Lookup/insert statistics of the code cache.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct CodeCacheStats {
    /// Successful wrong-path lookups.
    pub hits: u64,
    /// Lookups that found no remembered instruction (reconstruction stop).
    pub misses: u64,
    /// Entries evicted due to the capacity bound.
    pub evictions: u64,
}

/// A remembered instruction with the registers convergence matching
/// reads, decoded once when it is inserted rather than on every
/// lock-step comparison.
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) struct Decoded {
    pub(crate) instr: Instr,
    /// Source registers (x0 excluded).
    pub(crate) srcs: RegSet,
    /// Destination register (x0 excluded).
    pub(crate) dst: Option<ArchReg>,
}

impl From<Instr> for Decoded {
    fn from(instr: Instr) -> Decoded {
        let ops = instr.operands();
        let mut srcs = RegSet::new();
        for r in ops.src_iter() {
            srcs.insert(r);
        }
        Decoded {
            instr,
            srcs,
            dst: ops.dst,
        }
    }
}

/// What the cache knows about one text slot: one byte, so that a
/// [`CodeCache::stretch`] is a byte scan.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
enum Kind {
    /// Nothing remembered here.
    Unknown,
    /// A remembered instruction that falls through.
    Plain,
    /// A remembered control-flow instruction.
    Branch,
    /// A remembered `halt`.
    Halt,
}

impl Kind {
    fn of(instr: &Instr) -> Kind {
        if matches!(instr, Instr::Halt) {
            Kind::Halt
        } else if instr.is_branch() {
            Kind::Branch
        } else {
            Kind::Plain
        }
    }
}

/// How a [`CodeCache::stretch`] ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum StretchEnd {
    /// The room ran out; the pc after the stretch was not looked up.
    Room,
    /// The stretch's last instruction is a branch.
    Branch,
    /// The pc after the stretch holds a remembered `halt` (a hit).
    Halt,
    /// The pc after the stretch is not remembered (a miss).
    Unknown,
}

/// Decode-information cache indexed by instruction address.
///
/// The cache is one table with a slot per 4-byte text word, from `base`,
/// the lowest pc inserted so far, to the highest; it grows on demand in
/// both directions. Program text is contiguous, so the table is as dense
/// as the text the run has touched (pcs inserted far apart would make it
/// span the gap; the simulator inserts only program text). Each slot
/// holds the decoded instruction and a one-byte kind (unknown, plain,
/// branch or halt), so a wrong-path walk reads a whole straight-line
/// stretch with one byte scan and one copy.
///
/// By default the cache is unbounded — program text is finite, which
/// mirrors the paper's implementation. A capacity bound (with FIFO
/// replacement in insertion order, so runs are bit-reproducible) is
/// available for the code-cache-size ablation study.
///
/// # Examples
///
/// ```
/// use ffsim_core::CodeCache;
/// use ffsim_isa::Instr;
/// let mut cc = CodeCache::unbounded();
/// cc.insert(0x1000, Instr::Nop);
/// assert_eq!(cc.lookup(0x1000), Some(Instr::Nop));
/// assert_eq!(cc.lookup(0x2000), None);
/// ```
#[derive(Clone, Debug)]
pub struct CodeCache {
    /// The pc of slot 0 (meaningless while the table is empty).
    base: Addr,
    /// The kind of each slot.
    kinds: Vec<Kind>,
    /// The decoded instruction of each slot; stale where the kind is
    /// [`Kind::Unknown`].
    slots: Vec<Decoded>,
    /// Remembered instructions (slots not [`Kind::Unknown`]).
    len: usize,
    /// Insertion order of live pcs (bounded caches only): the FIFO
    /// eviction queue. The front is always the oldest live pc.
    order: VecDeque<Addr>,
    capacity: Option<usize>,
    stats: CodeCacheStats,
}

impl CodeCache {
    /// Creates an unbounded code cache (the paper's configuration).
    #[must_use]
    pub fn unbounded() -> CodeCache {
        CodeCache {
            base: 0,
            kinds: Vec::new(),
            slots: Vec::new(),
            len: 0,
            order: VecDeque::new(),
            capacity: None,
            stats: CodeCacheStats::default(),
        }
    }

    /// Creates a capacity-bounded code cache with deterministic FIFO
    /// replacement in insertion order (for ablation studies).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> CodeCache {
        assert!(capacity > 0, "code cache capacity must be positive");
        CodeCache {
            order: VecDeque::with_capacity(capacity),
            capacity: Some(capacity),
            ..CodeCache::unbounded()
        }
    }

    /// Number of remembered instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CodeCacheStats {
        self.stats
    }

    /// The table index of `pc`, if it lies on the table's grid.
    fn slot(&self, pc: Addr) -> Option<usize> {
        let off = pc.wrapping_sub(self.base);
        let i = usize::try_from(off / INSTR_BYTES).ok()?;
        (off.is_multiple_of(INSTR_BYTES) && i < self.kinds.len()).then_some(i)
    }

    /// Grows the table to cover `pc` and returns its index.
    fn grow_to(&mut self, pc: Addr) -> usize {
        assert!(
            pc.is_multiple_of(INSTR_BYTES),
            "instruction pcs are 4-byte aligned"
        );
        let words = |from: Addr, to: Addr| {
            usize::try_from((to - from) / INSTR_BYTES).expect("the text span fits in memory")
        };
        let unknown = Decoded::from(Instr::Nop);
        if self.kinds.is_empty() {
            self.base = pc;
        } else if pc < self.base {
            let n = words(pc, self.base);
            self.kinds
                .splice(..0, std::iter::repeat_n(Kind::Unknown, n));
            self.slots.splice(..0, std::iter::repeat_n(unknown, n));
            self.base = pc;
        }
        let i = words(self.base, pc);
        if i >= self.kinds.len() {
            self.kinds.resize(i + 1, Kind::Unknown);
            self.slots.resize(i + 1, unknown);
        }
        i
    }

    /// Remembers the decode information of a consumed correct-path
    /// instruction.
    ///
    /// A pc's instruction never changes (program text is immutable), so a
    /// pc that is already remembered returns at once.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is not 4-byte aligned (program text always is), and
    /// in debug builds if `pc` is remembered with another instruction.
    pub fn insert(&mut self, pc: Addr, instr: Instr) {
        let i = match self.slot(pc) {
            Some(i) => i,
            None => self.grow_to(pc),
        };
        if self.kinds[i] != Kind::Unknown {
            debug_assert_eq!(
                self.slots[i].instr, instr,
                "the instruction at {pc:#x} changed"
            );
            return;
        }
        if let Some(cap) = self.capacity {
            if self.len >= cap {
                if let Some(victim) = self.order.pop_front() {
                    let v = self.slot(victim).expect("live pcs lie in the table");
                    self.kinds[v] = Kind::Unknown;
                    self.len -= 1;
                    self.stats.evictions += 1;
                }
            }
            self.order.push_back(pc);
        }
        self.len += 1;
        self.slots[i] = Decoded::from(instr);
        self.kinds[i] = Kind::of(&instr);
    }

    /// The index of `pc` if an instruction is remembered there.
    fn known(&self, pc: Addr) -> Option<usize> {
        self.slot(pc).filter(|&i| self.kinds[i] != Kind::Unknown)
    }

    /// Looks up the remembered instruction at `pc`, counting hit/miss.
    pub fn lookup(&mut self, pc: Addr) -> Option<Instr> {
        match self.known(pc) {
            Some(i) => {
                self.stats.hits += 1;
                Some(self.slots[i].instr)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// The remembered instruction at `pc` by reference, with whether it
    /// is a branch (read from the slot's kind), for a wrong-path walk.
    /// Counts a hit or a miss as [`CodeCache::lookup`] does; a remembered
    /// `halt` is a hit that ends the walk, so it reads as `None`.
    pub(crate) fn walk_at(&mut self, pc: Addr) -> Option<(&Instr, bool)> {
        let Some(i) = self.known(pc) else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        match self.kinds[i] {
            Kind::Halt => None,
            kind => Some((&self.slots[i].instr, kind == Kind::Branch)),
        }
    }

    /// Checks presence without touching statistics.
    #[must_use]
    pub fn contains(&self, pc: Addr) -> bool {
        self.known(pc).is_some()
    }

    /// The remembered straight-line stretch from `pc`, at most `room`
    /// instructions: it ends after a branch, before a `halt` or an
    /// unknown pc, or when the room runs out. The statistics count
    /// exactly what looking up each pc in turn would: a hit per
    /// instruction returned, a hit for a `halt` met within the room, and
    /// a miss for an unknown pc met within the room.
    pub(crate) fn stretch(&mut self, pc: Addr, room: usize) -> (&[Decoded], StretchEnd) {
        // Off the table, the scan starts at its end: the first pc is
        // unknown.
        let i = self.slot(pc).unwrap_or(self.kinds.len());
        let end = self.kinds.len().min(i.saturating_add(room));
        let (n, how) = match self.kinds[i..end].iter().position(|&k| k != Kind::Plain) {
            Some(n) => match self.kinds[i + n] {
                Kind::Branch => (n + 1, StretchEnd::Branch),
                Kind::Halt => (n, StretchEnd::Halt),
                _ => (n, StretchEnd::Unknown),
            },
            None if end - i == room => (room, StretchEnd::Room),
            // The table ends within the room.
            None => (end - i, StretchEnd::Unknown),
        };
        self.stats.hits += n as u64 + u64::from(how == StretchEnd::Halt);
        self.stats.misses += u64::from(how == StretchEnd::Unknown);
        (&self.slots[i..i + n], how)
    }
}

impl Default for CodeCache {
    fn default() -> CodeCache {
        CodeCache::unbounded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsim_isa::{AluOp, Reg};

    fn alu(n: u8) -> Instr {
        Instr::Alu {
            op: AluOp::Add,
            rd: Reg::new(n),
            rs1: Reg::new(1),
            rs2: Reg::new(2),
        }
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut cc = CodeCache::unbounded();
        cc.insert(0x1000, alu(3));
        cc.insert(0x1004, alu(4));
        assert_eq!(cc.lookup(0x1000), Some(alu(3)));
        assert_eq!(cc.lookup(0x1004), Some(alu(4)));
        assert_eq!(cc.lookup(0x1008), None);
        assert_eq!(cc.stats().hits, 2);
        assert_eq!(cc.stats().misses, 1);
    }

    #[test]
    fn reinsert_keeps_the_entry() {
        let mut cc = CodeCache::unbounded();
        cc.insert(0x1000, alu(3));
        cc.insert(0x1000, alu(3));
        assert_eq!(cc.len(), 1);
        assert_eq!(cc.lookup(0x1000), Some(alu(3)));
    }

    /// A pc's instruction never changes; debug builds catch a caller that
    /// says otherwise.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "the instruction at 0x1000 changed")]
    fn conflicting_reinsert_panics_in_debug_builds() {
        let mut cc = CodeCache::unbounded();
        cc.insert(0x1000, alu(3));
        cc.insert(0x1000, alu(5));
    }

    #[test]
    fn capacity_bound_evicts() {
        let mut cc = CodeCache::with_capacity(4);
        for i in 0..10u64 {
            cc.insert(0x1000 + i * 4, alu((i % 30) as u8));
        }
        assert_eq!(cc.len(), 4);
        assert_eq!(cc.stats().evictions, 6);
    }

    #[test]
    fn reinsert_does_not_evict_when_at_capacity() {
        let mut cc = CodeCache::with_capacity(2);
        cc.insert(0x1000, alu(3));
        cc.insert(0x1004, alu(4));
        cc.insert(0x1000, alu(3));
        assert_eq!(cc.len(), 2);
        assert_eq!(cc.stats().evictions, 0);
        assert!(cc.contains(0x1004));
    }

    #[test]
    fn eviction_is_fifo_in_insertion_order() {
        let mut cc = CodeCache::with_capacity(3);
        for pc in [0x1000u64, 0x1004, 0x1008] {
            cc.insert(pc, alu(1));
        }
        // Re-inserting 0x1000 must not refresh its age: it is still the
        // oldest and the next victim.
        cc.insert(0x1000, alu(1));
        cc.insert(0x2000, alu(3));
        assert!(!cc.contains(0x1000), "oldest key evicted first");
        assert!(cc.contains(0x1004));
        assert!(cc.contains(0x1008));
        assert!(cc.contains(0x2000));
        cc.insert(0x2004, alu(4));
        assert!(!cc.contains(0x1004), "second-oldest evicted next");
    }

    #[test]
    fn bounded_inserts_are_reproducible() {
        // Two caches fed the same sequence end with identical contents —
        // the determinism the ablations golden relies on.
        let seq: Vec<u64> = (0..200).map(|i| 0x1000 + (i * 37 % 64) * 4).collect();
        let mut a = CodeCache::with_capacity(16);
        let mut b = CodeCache::with_capacity(16);
        for &pc in &seq {
            a.insert(pc, alu(1));
            b.insert(pc, alu(1));
        }
        assert_eq!(a.stats().evictions, b.stats().evictions);
        for &pc in &seq {
            assert_eq!(a.contains(pc), b.contains(pc), "divergence at {pc:#x}");
        }
    }

    /// A region with every kind of slot: plain runs, a branch, a `halt`
    /// and holes, starting below the first insert.
    fn mixed() -> CodeCache {
        let mut cc = CodeCache::unbounded();
        let jal = Instr::Jal {
            rd: Reg::ZERO,
            target: 0x1000,
        };
        for (i, instr) in [(4, alu(1)), (5, alu(2)), (6, jal), (7, alu(3))] {
            cc.insert(0x1000 + i * 4, instr);
        }
        for (i, instr) in [(0, alu(4)), (1, alu(5)), (3, Instr::Halt), (9, alu(6))] {
            cc.insert(0x1000 + i * 4, instr);
        }
        cc
    }

    /// A stretch returns and counts exactly what looking up each pc in
    /// turn does, from every start on and off the table and its grid, for
    /// every room.
    #[test]
    fn stretch_counts_what_per_pc_lookups_count() {
        for start in (0xff0u64..0x1034).step_by(2) {
            for room in 0..12 {
                let mut by_lookup = mixed();
                let mut want = Vec::new();
                let mut how = StretchEnd::Room;
                let mut pc = start;
                while want.len() < room {
                    match by_lookup.lookup(pc) {
                        None => how = StretchEnd::Unknown,
                        Some(Instr::Halt) => how = StretchEnd::Halt,
                        Some(i) => {
                            want.push(i);
                            pc += 4;
                            if !i.is_branch() {
                                continue;
                            }
                            how = StretchEnd::Branch;
                        }
                    }
                    break;
                }
                let mut cc = mixed();
                let (got, end) = cc.stretch(start, room);
                let got: Vec<Instr> = got.iter().map(|d| d.instr).collect();
                assert_eq!((got, end), (want, how), "{start:#x}, room {room}");
                assert_eq!(cc.stats(), by_lookup.stats(), "{start:#x}, room {room}");
            }
        }
    }

    #[test]
    fn contains_is_stats_free() {
        let mut cc = CodeCache::unbounded();
        cc.insert(0x1000, alu(3));
        assert!(cc.contains(0x1000));
        assert!(!cc.contains(0x2000));
        assert_eq!(cc.stats().hits + cc.stats().misses, 0);
    }
}
