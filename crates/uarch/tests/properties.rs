//! Property-based tests for the microarchitectural components: cache and
//! TLB vs. reference LRU models, predictor determinism, RAS semantics,
//! DRAM bandwidth accounting, and hierarchy invariants.

use ffsim_isa::{BranchCond, Instr, Reg};
use ffsim_uarch::{
    BranchConfig, BranchPredictor, Cache, CacheConfig, CoreConfig, Dram, DramConfig, Level, Lookup,
    MemoryHierarchy, PathKind, ReturnStack, Tlb, TlbConfig, TlbStats,
};
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

/// Reference LRU set-associative cache model (slow but obviously correct).
struct RefCache {
    sets: Vec<VecDeque<u64>>, // front = MRU line numbers
    assoc: usize,
    line_shift: u32,
    set_count: u64,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> RefCache {
        RefCache {
            sets: vec![VecDeque::new(); cfg.num_sets() as usize],
            assoc: cfg.assoc as usize,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_count: cfg.num_sets(),
        }
    }

    fn set_of(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) % self.set_count) as usize
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    fn lookup(&mut self, addr: u64) -> bool {
        let set = self.set_of(addr);
        let line = self.line_of(addr);
        if let Some(pos) = self.sets[set].iter().position(|&l| l == line) {
            let l = self.sets[set].remove(pos).unwrap();
            self.sets[set].push_front(l);
            true
        } else {
            false
        }
    }

    fn fill(&mut self, addr: u64) {
        let set = self.set_of(addr);
        let line = self.line_of(addr);
        if let Some(pos) = self.sets[set].iter().position(|&l| l == line) {
            let l = self.sets[set].remove(pos).unwrap();
            self.sets[set].push_front(l);
            return;
        }
        if self.sets[set].len() == self.assoc {
            self.sets[set].pop_back();
        }
        self.sets[set].push_front(line);
    }
}

/// Reference TLB: the page → LRU-stamp map with a min-stamp victim scan
/// that `Tlb` used before its flat slots (slow but obviously exact LRU).
struct RefTlb {
    cfg: TlbConfig,
    page_shift: u32,
    entries: HashMap<u64, u64>,
    clock: u64,
    stats: TlbStats,
}

impl RefTlb {
    fn new(cfg: TlbConfig) -> RefTlb {
        RefTlb {
            cfg,
            page_shift: cfg.page_bytes.trailing_zeros(),
            entries: HashMap::new(),
            clock: 0,
            stats: TlbStats::default(),
        }
    }

    fn access(&mut self, addr: u64, path: PathKind) -> u64 {
        self.clock += 1;
        let page = addr >> self.page_shift;
        if let Some(stamp) = self.entries.get_mut(&page) {
            *stamp = self.clock;
            self.stats.hits.bump(path);
            return 0;
        }
        self.stats.misses.bump(path);
        if self.entries.len() >= self.cfg.entries {
            let victim = *self
                .entries
                .iter()
                .min_by_key(|(_, &stamp)| stamp)
                .expect("non-empty")
                .0;
            self.entries.remove(&victim);
        }
        self.entries.insert(page, self.clock);
        self.cfg.walk_latency
    }
}

proptest! {
    /// The cache's hit/miss behaviour matches the reference LRU model for
    /// arbitrary access/fill interleavings (fill-on-miss protocol).
    #[test]
    fn cache_matches_reference_lru(
        addrs in proptest::collection::vec(0u64..0x8000, 1..400),
    ) {
        let cfg = CacheConfig { size_bytes: 2048, assoc: 4, line_bytes: 64, latency: 1 };
        let mut cache = Cache::new("dut", cfg);
        let mut reference = RefCache::new(cfg);
        for addr in addrs {
            let got_hit = cache.lookup(addr, false, PathKind::Correct) == Lookup::Hit;
            let want_hit = reference.lookup(addr);
            prop_assert_eq!(got_hit, want_hit, "divergence at {:#x}", addr);
            if !got_hit {
                cache.fill(addr, false);
                reference.fill(addr);
            }
        }
    }

    /// `probe` agrees with a subsequent lookup's hit/miss and never
    /// changes behaviour.
    #[test]
    fn probe_is_a_pure_observer(
        addrs in proptest::collection::vec(0u64..0x2000, 1..200),
    ) {
        let cfg = CacheConfig { size_bytes: 1024, assoc: 2, line_bytes: 64, latency: 1 };
        let mut a = Cache::new("with-probe", cfg);
        let mut b = Cache::new("without", cfg);
        for addr in addrs {
            let probed = a.probe(addr);
            let hit_a = a.lookup(addr, false, PathKind::Correct) == Lookup::Hit;
            prop_assert_eq!(probed, hit_a);
            let hit_b = b.lookup(addr, false, PathKind::Correct) == Lookup::Hit;
            prop_assert_eq!(hit_a, hit_b);
            if !hit_a {
                a.fill(addr, false);
                b.fill(addr, false);
            }
        }
    }

    /// The RAS behaves like a depth-bounded stack whose bottom falls away.
    #[test]
    fn ras_matches_bounded_stack(
        cap in 1usize..16,
        ops in proptest::collection::vec(prop_oneof![
            (1u64..1_000_000).prop_map(Some),
            Just(None),
        ], 0..100),
    ) {
        let mut ras = ReturnStack::new(cap);
        let mut reference: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                Some(addr) => {
                    ras.push(addr);
                    reference.push(addr);
                    if reference.len() > cap {
                        reference.remove(0);
                    }
                }
                None => {
                    prop_assert_eq!(ras.pop(), reference.pop());
                }
            }
            prop_assert_eq!(ras.len(), reference.len());
            prop_assert_eq!(ras.peek(), reference.last().copied());
        }
    }

    /// Two predictors fed the same program-order stream stay identical,
    /// and wrong-path views never perturb them.
    #[test]
    fn predictor_replica_stays_in_sync(
        outcomes in proptest::collection::vec((0u64..32, any::<bool>()), 1..300),
        probe_wp in any::<bool>(),
    ) {
        let cfg = BranchConfig {
            gshare_history_bits: 8,
            gshare_table_bits: 8,
            bimodal_table_bits: 8,
            indirect_entries: 16,
            ras_entries: 4,
        };
        let mut a = BranchPredictor::new(cfg);
        let mut b = BranchPredictor::new(cfg);
        for (slot, taken) in outcomes {
            let pc = 0x1000 + slot * 4;
            let target = 0x8000 + slot * 16;
            let instr = Instr::Branch {
                cond: BranchCond::Ne,
                rs1: Reg::new(1),
                rs2: Reg::new(2),
                target,
            };
            let next = if taken { target } else { pc + 4 };
            if probe_wp {
                // Interleave wrong-path probing on one side only; it must
                // not cause divergence.
                let mut view = a.wrong_path_view();
                let _ = view.predict(pc ^ 0x40, &instr);
                let _ = view.predict(pc ^ 0x80, &instr);
            }
            let ra = a.observe(pc, &instr, taken, next);
            let rb = b.observe(pc, &instr, taken, next);
            prop_assert_eq!(ra, rb);
        }
        prop_assert_eq!(a.stats(), b.stats());
    }

    /// DRAM: latency is always >= fixed latency; total queueing equals the
    /// sum of individual queue delays; line spacing is enforced.
    #[test]
    fn dram_bandwidth_accounting(times in proptest::collection::vec(0u64..10_000, 1..100)) {
        let cfg = DramConfig { latency: 100, cycles_per_line: 7 };
        let mut d = Dram::new(cfg);
        let mut sorted = times.clone();
        sorted.sort_unstable();
        let mut total_queue = 0;
        for t in sorted {
            let lat = d.access(t, PathKind::Correct);
            prop_assert!(lat >= cfg.latency);
            total_queue += lat - cfg.latency;
        }
        prop_assert_eq!(d.stats().queue_cycles, total_queue);
        prop_assert_eq!(d.stats().accesses.get(PathKind::Correct) as usize, times.len());
    }

    /// TLB: accesses within one page never miss twice in a row; capacity
    /// is respected (a working set <= entries never misses after warmup).
    #[test]
    fn tlb_working_set_fits(pages in proptest::collection::vec(0u64..8, 16..100)) {
        let mut t = Tlb::new(TlbConfig { entries: 8, page_bytes: 4096, walk_latency: 30 });
        // Warm up all 8 possible pages.
        for p in 0..8u64 {
            let _ = t.access(p * 4096, PathKind::Correct);
        }
        for p in pages {
            prop_assert_eq!(t.access(p * 4096 + 123, PathKind::Correct), 0);
        }
    }

    /// TLB: every access's latency and the final per-path hit and miss
    /// counts equal the reference model's, for streams that mix a hot set
    /// (hit-heavy) with pages drawn from a wide range (miss-heavy).
    #[test]
    fn tlb_matches_reference_lru(
        entries in prop_oneof![Just(96usize), Just(128usize), 1usize..131],
        page_log2 in 0u32..22,
        hot_pages in 1u64..200,
        hot_quarters in 0u64..5,
        ops in proptest::collection::vec((0u64..4, any::<u64>(), any::<bool>()), 1..3000),
    ) {
        let cfg = TlbConfig { entries, page_bytes: 1 << page_log2, walk_latency: 30 };
        let mut tlb = Tlb::new(cfg);
        let mut reference = RefTlb::new(cfg);
        for (i, (quarter, raw, wrong)) in ops.into_iter().enumerate() {
            let page = if quarter < hot_quarters { raw % hot_pages } else { raw % (1 << 16) };
            let addr = (page << page_log2) | ((raw >> 32) & (cfg.page_bytes - 1));
            let path = if wrong { PathKind::Wrong } else { PathKind::Correct };
            prop_assert_eq!(tlb.access(addr, path), reference.access(addr, path), "access {}", i);
        }
        prop_assert_eq!(tlb.stats(), reference.stats);
    }

    /// Hierarchy: after any access the line is present in L1, and repeat
    /// access at the same address is always an L1 hit with lower or equal
    /// latency.
    #[test]
    fn hierarchy_repeat_access_hits_l1(
        addrs in proptest::collection::vec(0u64..0x10_0000, 1..100),
        writes in proptest::collection::vec(any::<bool>(), 100),
    ) {
        let mut mh = MemoryHierarchy::new(&CoreConfig::tiny_for_tests());
        let mut now = 0;
        for (addr, w) in addrs.iter().zip(writes) {
            let first = mh.data_access(*addr, w, now, PathKind::Correct);
            now += 1000;
            let again = mh.data_access(*addr, w, now, PathKind::Correct);
            now += 1000;
            prop_assert_eq!(again.served_by, Level::L1);
            prop_assert!(again.latency <= first.latency);
        }
    }
}
