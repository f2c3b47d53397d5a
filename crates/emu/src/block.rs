//! Pre-decoded basic-block cache for wrong-path re-emulation.
//!
//! Wrong-path emulation re-executes the same handful of blocks over and
//! over: every mispredicted branch at the same site re-enters the same
//! not-taken (or taken) region, and loop-heavy kernels revisit their loop
//! bodies thousands of times per run. The per-instruction loop paid a
//! bounds-checked `Program::instr_at` fetch plus halt test for every one
//! of those re-executions. This cache decodes a *basic block* — a maximal
//! straight-line run of instructions starting at an entry pc — once, and
//! hands out a slot handle whose `&[Instr]` slice the emulator walks
//! thereafter.
//!
//! Invariants (see DESIGN.md §"Batched handoff and the block cache"):
//!
//! * A block starts at its entry pc and extends through contiguous text,
//!   **including** its terminating control-flow instruction, and stops
//!   *before* `halt`, the end of text, or the [`BLOCK_LEN_CAP`] length
//!   cap. Entry pcs that address `halt` or lie outside the text are
//!   reported as [`BlockFetch::Halt`] / [`BlockFetch::Illegal`] and
//!   never cached.
//! * Program text is immutable, so cached blocks never need invalidation.
//! * Eviction is FIFO by insertion order — deterministic, like the
//!   timing-side code cache — and the hit/miss/eviction counters are
//!   observational only: they can never perturb the simulated stream.

use crate::hash::FxBuildHasher;
use ffsim_isa::{Addr, Instr, Program, INSTR_BYTES};
use ffsim_obs::{Phase, ProfHandle};
use std::collections::{HashMap, VecDeque};

/// Maximum instructions per cached block. Long branch-free runs are split
/// at this boundary; the next chunk becomes its own cache entry.
pub const BLOCK_LEN_CAP: usize = 64;

/// Default block-cache capacity, in blocks. Sized like the timing-side
/// code cache: generously above any kernel's static block count so
/// steady-state eviction only happens on pathological code footprints.
pub const DEFAULT_BLOCK_CACHE_BLOCKS: usize = 4096;

/// Hit/miss/eviction counters for the block cache. Purely observational.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct BlockCacheStats {
    /// Probes that found a cached block.
    pub hits: u64,
    /// Probes that had to decode (including probes of `halt`/illegal entry
    /// pcs, which decode to a terminal marker and are not cached).
    pub misses: u64,
    /// Blocks evicted to stay within capacity.
    pub evictions: u64,
}

impl BlockCacheStats {
    /// Hit fraction in [0, 1]; 0 when the cache was never probed.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let probes = self.hits + self.misses;
        if probes == 0 {
            0.0
        } else {
            self.hits as f64 / probes as f64
        }
    }
}

/// What a probe of the cache returns for an entry pc: a handle to the
/// cached block, or a terminal classification. The handle stays valid
/// until the next probe (which may evict), so a caller can walk the block
/// one instruction at a time through [`BlockCache::block`] without
/// holding a borrow of the cache between instructions — what a resumable
/// wrong-path stream needs — and without cloning the block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum BlockFetch {
    /// A decoded straight-line run (never empty, never contains `halt`).
    Block(BlockId),
    /// The entry pc addresses `halt`.
    Halt,
    /// The entry pc is outside the program text.
    Illegal,
}

/// A handle to a cached block, valid until the cache's next probe.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct BlockId(u32);

/// How [`BlockCache::decode_insert`] classified an entry pc.
enum Decoded {
    /// A real run was decoded and cached in this slot.
    Cached(BlockId),
    /// The entry pc addresses `halt`; nothing was cached.
    Halt,
    /// The entry pc is outside the program text; nothing was cached.
    Illegal,
}

/// The cache proper: entry pc → slot of a decoded block, FIFO-evicted.
#[derive(Clone, Debug)]
pub struct BlockCache {
    index: HashMap<Addr, BlockId, FxBuildHasher>,
    slots: Vec<Box<[Instr]>>,
    order: VecDeque<Addr>,
    capacity: usize,
    stats: BlockCacheStats,
}

impl BlockCache {
    /// Creates a cache holding at most `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> BlockCache {
        assert!(capacity > 0, "block cache capacity must be positive");
        BlockCache {
            index: HashMap::default(),
            slots: Vec::new(),
            order: VecDeque::new(),
            capacity,
            stats: BlockCacheStats::default(),
        }
    }

    /// The counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> BlockCacheStats {
        self.stats
    }

    /// Zeroes the counters; cached blocks stay.
    pub fn reset_stats(&mut self) {
        self.stats = BlockCacheStats::default();
    }

    /// Probes for the block entered at `pc`, counting a hit, and on a miss
    /// decodes, caches, and counts it. Decode time is attributed to `prof`
    /// as [`Phase::BlockDecode`].
    pub(crate) fn probe(&mut self, program: &Program, pc: Addr, prof: &ProfHandle) -> BlockFetch {
        if let Some(&id) = self.index.get(&pc) {
            self.stats.hits += 1;
            return BlockFetch::Block(id);
        }
        prof.enter(Phase::BlockDecode);
        let decoded = self.decode_insert(program, pc);
        prof.exit();
        match decoded {
            Decoded::Cached(id) => BlockFetch::Block(id),
            Decoded::Halt => BlockFetch::Halt,
            Decoded::Illegal => BlockFetch::Illegal,
        }
    }

    /// The instructions of the block `id` from the latest probe.
    #[must_use]
    pub(crate) fn block(&self, id: BlockId) -> &[Instr] {
        &self.slots[id.0 as usize]
    }

    /// Decodes the block entered at `pc` from `program`, caches it when it
    /// is a real run of instructions, and counts a miss.
    fn decode_insert(&mut self, program: &Program, pc: Addr) -> Decoded {
        self.stats.misses += 1;
        let mut instrs = Vec::new();
        let mut cur = pc;
        while let Some(&instr) = program.instr_at(cur) {
            if matches!(instr, Instr::Halt) {
                break;
            }
            instrs.push(instr);
            if instr.is_branch() || instrs.len() >= BLOCK_LEN_CAP {
                break;
            }
            cur += INSTR_BYTES;
        }
        if instrs.is_empty() {
            // Terminal entry pc: classify, never cache.
            return if program.instr_at(pc).is_some() {
                Decoded::Halt
            } else {
                Decoded::Illegal
            };
        }
        let block = instrs.into_boxed_slice();
        let id = if self.index.len() >= self.capacity {
            // FIFO eviction by insertion order; insertion never re-inserts
            // a live key (`probe` looks up before decoding), so `order`
            // always mirrors the index's key set exactly. The new block
            // takes the victim's slot.
            let victim = self.order.pop_front().expect("a full cache has entries");
            let id = self.index.remove(&victim).expect("order mirrors the index");
            self.stats.evictions += 1;
            self.slots[id.0 as usize] = block;
            id
        } else {
            let id = BlockId(u32::try_from(self.slots.len()).expect("capacity fits in u32"));
            self.slots.push(block);
            id
        };
        self.index.insert(pc, id);
        self.order.push_back(pc);
        Decoded::Cached(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsim_isa::{Asm, Reg};

    fn prof() -> ProfHandle {
        ProfHandle::disabled()
    }

    fn program() -> Program {
        // li; loop: addi; bnez loop; halt
        let x = Reg::new(1);
        let mut a = Asm::new();
        a.li(x, 3);
        a.label("loop");
        a.addi(x, x, -1);
        a.bnez(x, "loop");
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn block_ends_at_branch_inclusive() {
        let p = program();
        let mut cache = BlockCache::new(8);
        let BlockFetch::Block(id) = cache.probe(&p, p.base(), &prof()) else {
            panic!("entry block expected");
        };
        // li, addi, bnez — the branch terminates the block and is included.
        let b = cache.block(id);
        assert_eq!(b.len(), 3);
        assert!(b[2].is_branch());
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn hits_count_and_return_same_block() {
        let p = program();
        let mut cache = BlockCache::new(8);
        let BlockFetch::Block(first) = cache.probe(&p, p.base(), &prof()) else {
            panic!("entry block expected");
        };
        let first_ptr = cache.block(first).as_ptr();
        let BlockFetch::Block(again) = cache.probe(&p, p.base(), &prof()) else {
            panic!("hit expected");
        };
        assert_eq!(first, again, "hit returns the same slot");
        assert_eq!(
            first_ptr,
            cache.block(again).as_ptr(),
            "hit lends the same block"
        );
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn halt_and_illegal_entries_are_terminal_and_uncached() {
        let p = program();
        let halt_pc = p.base() + 3 * INSTR_BYTES;
        let mut cache = BlockCache::new(8);
        assert!(matches!(
            cache.probe(&p, halt_pc, &prof()),
            BlockFetch::Halt
        ));
        assert!(matches!(
            cache.probe(&p, 0xdead_0000, &prof()),
            BlockFetch::Illegal
        ));
        // Terminal pcs are never cached: re-probing decodes (misses) again.
        assert!(matches!(
            cache.probe(&p, halt_pc, &prof()),
            BlockFetch::Halt
        ));
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn fifo_eviction_is_by_insertion_order() {
        let p = program();
        let mut cache = BlockCache::new(2);
        // Three distinct entry pcs: program base, the loop head, the bnez.
        let pcs = [p.base(), p.base() + INSTR_BYTES, p.base() + 2 * INSTR_BYTES];
        for pc in pcs {
            assert!(matches!(cache.probe(&p, pc, &prof()), BlockFetch::Block(_)));
        }
        assert_eq!(cache.stats().evictions, 1);
        // Newest two entries survive; the oldest was evicted, so probing it
        // re-decodes (a miss), while the survivors hit.
        assert!(matches!(
            cache.probe(&p, pcs[1], &prof()),
            BlockFetch::Block(_)
        ));
        assert!(matches!(
            cache.probe(&p, pcs[2], &prof()),
            BlockFetch::Block(_)
        ));
        assert_eq!(cache.stats().hits, 2);
        assert!(matches!(
            cache.probe(&p, pcs[0], &prof()),
            BlockFetch::Block(_)
        ));
        assert_eq!(cache.stats().misses, 4, "oldest block was evicted");
    }

    #[test]
    fn long_runs_split_at_the_cap() {
        let mut a = Asm::new();
        let x = Reg::new(1);
        for _ in 0..(BLOCK_LEN_CAP + 10) {
            a.addi(x, x, 1);
        }
        a.halt();
        let p = a.assemble().unwrap();
        let mut cache = BlockCache::new(8);
        let len = match cache.probe(&p, p.base(), &prof()) {
            BlockFetch::Block(id) => cache.block(id).len(),
            other => panic!("entry block expected, got {other:?}"),
        };
        assert_eq!(len, BLOCK_LEN_CAP);
        let next = p.base() + (BLOCK_LEN_CAP as u64) * INSTR_BYTES;
        let rest = match cache.probe(&p, next, &prof()) {
            BlockFetch::Block(id) => cache.block(id).len(),
            other => panic!("tail block expected, got {other:?}"),
        };
        assert_eq!(rest, 10, "tail stops before halt");
    }

    #[test]
    fn hit_rate_reflects_counters() {
        let stats = BlockCacheStats {
            hits: 3,
            misses: 1,
            evictions: 0,
        };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(BlockCacheStats::default().hit_rate(), 0.0);
    }
}
