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

use ffsim_emu::FxBuildHasher;
use ffsim_isa::{Addr, ArchReg, Instr, RegSet};
use std::collections::{HashMap, VecDeque};

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

/// How a memoized straight-line run of remembered instructions ends.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum RunEnd {
    /// The run's last instruction is a branch (always included, per the
    /// reconstruction stopping rules).
    Branch,
    /// The pc after the run holds a remembered `halt`. A run of length
    /// zero with this end marks an entry pc that is itself `halt`.
    Halt,
    /// Split at [`RUN_CAP`]; the walk continues at the pc after the run.
    Cap,
}

/// A remembered instruction with the registers convergence matching
/// reads, decoded once when its run is recorded rather than on every
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

/// Maximum instructions per memoized run, mirroring the emulator-side
/// block cache's length cap: long branch-free stretches are chunked so a
/// single run never holds a pathological amount of straight-line code.
pub(crate) const RUN_CAP: usize = 64;

/// Decode-information cache indexed by instruction address.
///
/// By default the cache is unbounded — program text is finite, which
/// mirrors the paper's implementation. A capacity bound (with FIFO
/// replacement in insertion order, so runs are bit-reproducible) is
/// available for the code-cache-size ablation study.
///
/// Unbounded caches additionally memoize *straight-line runs* keyed by
/// entry pc (the timing-side analogue of the emulator's basic-block
/// cache, see DESIGN.md §"Batched handoff and the block cache"): repeated
/// wrong-path reconstruction of the same region then iterates a decoded
/// slice instead of probing the map once per instruction. Runs are only
/// memoized when their end can never move — a terminating branch, a
/// remembered `halt`, or the length cap — so later inserts cannot stale
/// them; bounded (ablation) caches evict, so they never memoize.
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
    /// Keyed with the cheap address-mixing hasher: lookups sit on the
    /// wrong-path reconstruction hot loop, where SipHash dominates.
    entries: HashMap<Addr, Instr, FxBuildHasher>,
    /// Insertion order of live keys (bounded caches only): the FIFO
    /// eviction queue. The front is always the oldest live key.
    order: VecDeque<Addr>,
    /// Memoized straight-line runs by entry pc (unbounded caches only).
    runs: HashMap<Addr, (Box<[Decoded]>, RunEnd), FxBuildHasher>,
    capacity: Option<usize>,
    stats: CodeCacheStats,
}

impl CodeCache {
    /// Creates an unbounded code cache (the paper's configuration).
    #[must_use]
    pub fn unbounded() -> CodeCache {
        CodeCache {
            entries: HashMap::default(),
            order: VecDeque::new(),
            runs: HashMap::default(),
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
            entries: HashMap::with_capacity_and_hasher(capacity, FxBuildHasher::default()),
            order: VecDeque::with_capacity(capacity),
            runs: HashMap::default(),
            capacity: Some(capacity),
            stats: CodeCacheStats::default(),
        }
    }

    /// Number of remembered instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CodeCacheStats {
        self.stats
    }

    /// Resets statistics (entries are kept — use after warmup).
    pub fn reset_stats(&mut self) {
        self.stats = CodeCacheStats::default();
    }

    /// Remembers the decode information of a consumed correct-path
    /// instruction.
    pub fn insert(&mut self, pc: Addr, instr: Instr) {
        if let Some(slot) = self.entries.get_mut(&pc) {
            if *slot != instr {
                // A remembered pc changed meaning (never happens for real
                // programs — text is immutable — but the API permits it):
                // every memoized run is suspect, drop them all.
                self.runs.clear();
            }
            *slot = instr;
            return;
        }
        if let Some(cap) = self.capacity {
            if self.entries.len() >= cap {
                // FIFO replacement: evict the oldest live key, so bounded
                // runs are deterministic (HashMap iteration order is not).
                if let Some(victim) = self.order.pop_front() {
                    self.entries.remove(&victim);
                    self.stats.evictions += 1;
                }
            }
        }
        self.entries.insert(pc, instr);
        if self.capacity.is_some() {
            self.order.push_back(pc);
        }
    }

    /// Looks up the remembered instruction at `pc`, counting hit/miss.
    pub fn lookup(&mut self, pc: Addr) -> Option<Instr> {
        match self.entries.get(&pc) {
            Some(&i) => {
                self.stats.hits += 1;
                Some(i)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Checks presence without touching statistics.
    #[must_use]
    pub fn contains(&self, pc: Addr) -> bool {
        self.entries.contains_key(&pc)
    }

    /// The memoized straight-line run entered at `pc`, if one was recorded
    /// by an earlier reconstruction walk. Statistics are untouched — the
    /// caller counts one hit per instruction it actually consumes, which
    /// keeps the counters identical to a per-instruction walk.
    pub(crate) fn run_at(&self, pc: Addr) -> Option<(&[Decoded], RunEnd)> {
        self.runs.get(&pc).map(|(run, end)| (&run[..], *end))
    }

    /// Memoizes the straight-line run entered at `pc`. No-op for bounded
    /// caches: eviction could remove a member instruction, and the run
    /// memo has no per-member back-pointers to notice.
    pub(crate) fn memoize_run(&mut self, pc: Addr, run: &[Decoded], end: RunEnd) {
        if self.capacity.is_none() {
            self.runs.insert(pc, (run.into(), end));
        }
    }

    /// Counts `n` successful lookups served from a memoized run.
    pub(crate) fn add_run_hits(&mut self, n: u64) {
        self.stats.hits += n;
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
    fn reinsert_updates_in_place() {
        let mut cc = CodeCache::unbounded();
        cc.insert(0x1000, alu(3));
        cc.insert(0x1000, alu(5));
        assert_eq!(cc.len(), 1);
        assert_eq!(cc.lookup(0x1000), Some(alu(5)));
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
        cc.insert(0x1000, alu(5));
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
        cc.insert(0x1000, alu(2));
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

    #[test]
    fn contains_is_stats_free() {
        let mut cc = CodeCache::unbounded();
        cc.insert(0x1000, alu(3));
        assert!(cc.contains(0x1000));
        assert!(!cc.contains(0x2000));
        assert_eq!(cc.stats().hits + cc.stats().misses, 0);
    }
}
