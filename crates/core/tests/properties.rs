//! Property-based tests for the timing model and the wrong-path
//! techniques: timestamp ordering, window invariants, reconstruction
//! chain integrity, recovery soundness, and simulator determinism.

use ffsim_core::technique::wrongpath::{
    ConvergenceStream, FutureCache, FutureWindow, Walk, WalkBuf,
};
use ffsim_core::{
    reconstruct, recover_addresses, CodeCache, CodeCacheStats, ConvergenceConfig, ConvergenceStats,
    ObsConfig, Pipeline, SimConfig, Simulator, WpInst, WrongPathMode,
};
use ffsim_emu::{BranchOutcome, DynInst, MemAccess, Memory, StreamEntry};
use ffsim_isa::{
    Addr, AluOp, BranchCond, ExecClass, FReg, FpCmpOp, FpOp, Instr, MemWidth, Program, Reg,
    INSTR_BYTES,
};
use ffsim_uarch::{BranchPredictor, CoreConfig};
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

fn arb_reg() -> impl Strategy<Value = Reg> {
    (1u8..30).prop_map(Reg::new)
}

/// Straight-line instructions with occasional aligned loads off a fixed
/// base register (x30, set up by the test driver).
fn arb_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        (arb_reg(), arb_reg(), arb_reg()).prop_map(|(rd, rs1, rs2)| Instr::Alu {
            op: AluOp::Add,
            rd,
            rs1,
            rs2
        }),
        (arb_reg(), arb_reg()).prop_map(|(rd, rs1)| Instr::Alu {
            op: AluOp::Mul,
            rd,
            rs1,
            rs2: Reg::new(9)
        }),
        (arb_reg(), 0i64..128).prop_map(|(rd, w)| Instr::Load {
            rd,
            base: Reg::new(30),
            offset: w * 8,
            width: MemWidth::D,
            signed: false,
        }),
        (arb_reg(), 0i64..128).prop_map(|(src, w)| Instr::Store {
            src,
            base: Reg::new(30),
            offset: w * 8,
            width: MemWidth::D,
        }),
        Just(Instr::Nop),
    ]
}

/// [`arb_instr`] and every other instruction shape the decoders tell
/// apart (control flow, FP, divides), with `x0` among the operands.
fn arb_any_instr() -> impl Strategy<Value = Instr> {
    let reg = || (0u8..32).prop_map(Reg::new);
    let freg = || (0u8..16).prop_map(FReg::new);
    prop_oneof![
        arb_instr(),
        (reg(), reg(), reg()).prop_map(|(rd, rs1, rs2)| Instr::Alu {
            op: AluOp::Div,
            rd,
            rs1,
            rs2
        }),
        (reg(), reg()).prop_map(|(rd, rs1)| Instr::AluImm {
            op: AluOp::And,
            rd,
            rs1,
            imm: 1
        }),
        reg().prop_map(|rd| Instr::LoadImm { rd, imm: 7 }),
        (reg(), reg()).prop_map(|(rd, base)| Instr::Load {
            rd,
            base,
            offset: 0,
            width: MemWidth::W,
            signed: true,
        }),
        (freg(), freg(), freg()).prop_map(|(fd, fs1, fs2)| Instr::FpAlu {
            op: FpOp::Div,
            fd,
            fs1,
            fs2
        }),
        (freg(), reg()).prop_map(|(fd, base)| Instr::FpLoad {
            fd,
            base,
            offset: 8
        }),
        (freg(), reg()).prop_map(|(fs, base)| Instr::FpStore {
            fs,
            base,
            offset: 8
        }),
        (reg(), freg(), freg()).prop_map(|(rd, fs1, fs2)| Instr::FpCmp {
            op: FpCmpOp::Lt,
            rd,
            fs1,
            fs2
        }),
        (freg(), reg()).prop_map(|(fd, rs)| Instr::IntToFp { fd, rs }),
        (reg(), freg()).prop_map(|(rd, fs)| Instr::FpToInt { rd, fs }),
        (reg(), reg()).prop_map(|(rs1, rs2)| Instr::Branch {
            cond: BranchCond::Ne,
            rs1,
            rs2,
            target: 0x1000
        }),
        reg().prop_map(|rd| Instr::Jal { rd, target: 0x1000 }),
        (reg(), reg()).prop_map(|(rd, base)| Instr::Jalr {
            rd,
            base,
            offset: 0
        }),
        Just(Instr::Halt),
    ]
}

fn mem_of(instr: &Instr) -> Option<MemAccess> {
    match instr {
        Instr::Load { offset, .. } => Some(MemAccess {
            addr: 0x10_0000u64 + *offset as u64,
            size: 8,
            is_store: false,
        }),
        Instr::Store { offset, .. } => Some(MemAccess {
            addr: 0x10_0000u64 + *offset as u64,
            size: 8,
            is_store: true,
        }),
        _ => None,
    }
}

/// splitmix64: one seed drives a whole random convergence episode.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn chance(&mut self, pct: usize) -> bool {
        self.below(100) < pct
    }

    fn reg(&mut self) -> Reg {
        // Few registers, so dirty-register tracking has dependences to see.
        Reg::new(1 + self.below(6) as u8)
    }
}

/// One misprediction episode for the convergence matcher: a code cache
/// over a small branchy region, a trained predictor, a wrong-path start
/// and budget, and a future correct path through the same region.
struct Episode {
    code_cache: CodeCache,
    predictor: BranchPredictor,
    start: Addr,
    budget: usize,
    future: Vec<StreamEntry>,
    /// Window depth bound (may cut the future short).
    cap: usize,
}

fn random_episode(seed: u64) -> Episode {
    let mut r = Mix(seed);
    let base = 0x4000u64;
    let n = 8 + r.below(40);
    let pc_of = |i: usize| base + i as u64 * INSTR_BYTES;
    let mut code = Vec::with_capacity(n);
    for _ in 0..n {
        let instr = match r.below(20) {
            0..=5 => Instr::Alu {
                op: AluOp::Add,
                rd: r.reg(),
                rs1: r.reg(),
                rs2: r.reg(),
            },
            6..=9 => Instr::Load {
                rd: r.reg(),
                base: r.reg(),
                offset: 8 * r.below(16) as i64,
                width: MemWidth::D,
                signed: false,
            },
            10..=11 => Instr::Store {
                src: r.reg(),
                base: r.reg(),
                offset: 8 * r.below(16) as i64,
                width: MemWidth::D,
            },
            12..=15 => Instr::Branch {
                cond: BranchCond::Ne,
                rs1: r.reg(),
                rs2: r.reg(),
                target: pc_of(r.below(n)),
            },
            16 => Instr::Jal {
                rd: Reg::ZERO,
                target: pc_of(r.below(n)),
            },
            17 => Instr::Jalr {
                rd: Reg::ZERO,
                base: r.reg(),
                offset: 0,
            },
            _ => Instr::Nop,
        };
        code.push(instr);
    }
    // Close the region into a loop, so both paths stay in it for long.
    code[n - 1] = Instr::Jal {
        rd: Reg::ZERO,
        target: pc_of(r.below(n / 2)),
    };
    let mut code_cache = CodeCache::unbounded();
    for (i, instr) in code.iter().enumerate() {
        if r.chance(97) {
            code_cache.insert(pc_of(i), *instr);
        }
    }
    let mut predictor = BranchPredictor::new(CoreConfig::tiny_for_tests().branch);
    for _ in 0..r.below(64) {
        let i = r.below(n);
        let pc = pc_of(i);
        let (taken, next_pc) = match code[i] {
            Instr::Branch { target, .. } if r.chance(50) => (true, target),
            Instr::Branch { .. } => (false, pc + INSTR_BYTES),
            Instr::Jal { target, .. } => (true, target),
            Instr::Jalr { .. } => (true, pc_of(r.below(n))),
            _ => continue,
        };
        let _ = predictor.observe(pc, &code[i], taken, next_pc);
    }
    // The future correct path: a random walk through the same region.
    // Now and then the next entry starts somewhere its predecessor's
    // `next_pc` does not name, so lock-step also meets pc mismatches.
    let mut future = Vec::new();
    let mut i = r.below(n);
    for seq in 0..r.below(160) as u64 {
        let pc = pc_of(i);
        let instr = code[i];
        let (branch, next) = match instr {
            Instr::Branch { target, .. } => {
                let taken = r.chance(50);
                let next = if taken { target } else { pc + INSTR_BYTES };
                (Some(taken), next)
            }
            Instr::Jal { target, .. } => (Some(true), target),
            Instr::Jalr { .. } => (Some(true), pc_of(r.below(n))),
            _ => (None, pc + INSTR_BYTES),
        };
        let mem = match instr {
            Instr::Load { .. } | Instr::Store { .. } => Some(MemAccess {
                addr: 0x10_0000 + 8 * r.below(512) as u64,
                size: 8,
                is_store: matches!(instr, Instr::Store { .. }),
            }),
            _ => None,
        };
        future.push(StreamEntry {
            inst: DynInst {
                seq,
                pc,
                instr,
                mem,
                branch: branch.map(|taken| BranchOutcome {
                    taken,
                    next_pc: next,
                }),
                next_pc: next,
            },
            wrong_path: None,
        });
        i = if r.chance(5) {
            r.below(n)
        } else {
            match usize::try_from((next - base) / INSTR_BYTES) {
                Ok(j) if j < n => j,
                _ => break,
            }
        };
    }
    let cap = r.below(future.len() + 8);
    Episode {
        code_cache,
        predictor,
        start: pc_of(r.below(n)),
        budget: r.below(200),
        future,
        cap,
    }
}

/// Reference code cache: the pc-keyed map with a FIFO queue of live pcs
/// that `CodeCache` used before its text-indexed table (slow but
/// obviously right).
struct RefCodeCache {
    entries: HashMap<Addr, Instr>,
    order: VecDeque<Addr>,
    capacity: Option<usize>,
    stats: CodeCacheStats,
}

impl RefCodeCache {
    fn new(capacity: Option<usize>) -> RefCodeCache {
        RefCodeCache {
            entries: HashMap::new(),
            order: VecDeque::new(),
            capacity,
            stats: CodeCacheStats::default(),
        }
    }

    fn insert(&mut self, pc: Addr, instr: Instr) {
        if let Some(slot) = self.entries.get_mut(&pc) {
            *slot = instr;
            return;
        }
        if let Some(cap) = self.capacity {
            if self.entries.len() >= cap {
                if let Some(victim) = self.order.pop_front() {
                    self.entries.remove(&victim);
                    self.stats.evictions += 1;
                }
            }
            self.order.push_back(pc);
        }
        self.entries.insert(pc, instr);
    }

    fn lookup(&mut self, pc: Addr) -> Option<Instr> {
        let found = self.entries.get(&pc).copied();
        if found.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        found
    }
}

proptest! {
    /// Pipeline stages are causally ordered for every instruction, and
    /// global cycle count never decreases.
    #[test]
    fn pipeline_timestamps_are_ordered(instrs in proptest::collection::vec(arb_instr(), 1..300)) {
        let mut p = Pipeline::new(CoreConfig::tiny_for_tests());
        let cfg = CoreConfig::tiny_for_tests();
        let mut pc = 0x1000u64;
        let mut last_cycles = 0;
        for instr in &instrs {
            let t = p.feed_correct(pc, instr, mem_of(instr));
            prop_assert!(t.fetch <= t.dispatch);
            prop_assert!(t.dispatch >= t.fetch + cfg.frontend_depth);
            prop_assert!(t.dispatch <= t.issue);
            prop_assert!(t.issue < t.complete);
            prop_assert!(p.cycles() > t.complete - 1, "retire at or after completion");
            prop_assert!(p.cycles() >= last_cycles);
            last_cycles = p.cycles();
            pc += INSTR_BYTES;
        }
        prop_assert_eq!(p.retired(), instrs.len() as u64);
        prop_assert_eq!(p.wrong_path_injected(), 0);
    }

    /// The timing model's four-byte decode agrees with the full one: the
    /// class, the sources in order and the destination, `x0` excluded;
    /// and a class of load, store or branch holds exactly when the
    /// instruction is one.
    #[test]
    fn uop_agrees_with_the_full_decode(
        instrs in proptest::collection::vec(prop_oneof![arb_instr(), arb_any_instr()], 1..64),
    ) {
        for instr in &instrs {
            let (uop, ops) = (instr.uop(), instr.operands());
            prop_assert_eq!(uop.class(), instr.exec_class(), "{}", instr);
            prop_assert_eq!(
                uop.srcs().collect::<Vec<_>>(),
                ops.src_iter().collect::<Vec<_>>(),
                "{}", instr
            );
            prop_assert_eq!(uop.dst(), ops.dst, "{}", instr);
            prop_assert_eq!(uop.class() == ExecClass::Load, instr.is_load(), "{}", instr);
            prop_assert_eq!(uop.class() == ExecClass::Store, instr.is_store(), "{}", instr);
            prop_assert_eq!(uop.class() == ExecClass::Branch, instr.is_branch(), "{}", instr);
            prop_assert_eq!((uop.is_load(), uop.is_store()), (instr.is_load(), instr.is_store()));
        }
    }

    /// A program's µop table holds each slot's decode, and its clones
    /// share the one allocation.
    #[test]
    fn program_uop_table_is_the_per_slot_decode(
        instrs in proptest::collection::vec(arb_any_instr(), 1..64),
    ) {
        let program = Program::new(0x1000, instrs.clone());
        let table = program.uops();
        prop_assert_eq!(table.len(), instrs.len());
        for (i, instr) in instrs.iter().enumerate() {
            prop_assert_eq!(table[i], instr.uop(), "slot {}", i);
        }
        prop_assert!(Arc::ptr_eq(table, program.clone().uops()));
    }

    /// Wrong-path injection with register snapshot/restore never slows the
    /// *dataflow* of subsequent correct-path instructions: a consumer of a
    /// register written only by squashed instructions is not delayed by
    /// them.
    #[test]
    fn wrong_path_register_writes_never_leak(
        wp_instrs in proptest::collection::vec(arb_instr(), 1..64),
        resolve in 1u64..5000,
    ) {
        let mut p = Pipeline::new(CoreConfig::tiny_for_tests());
        let snap = p.snapshot_regs();
        let mut window = p.begin_wrong_path();
        let mut pc = 0x2000u64;
        for instr in &wp_instrs {
            let _ = p.feed_wrong(&mut window, pc, instr, mem_of(instr),
                                 ffsim_core::LoadTiming::AssumeL1Hit, resolve);
            pc += INSTR_BYTES;
        }
        p.restore_regs(snap);
        prop_assert_eq!(p.snapshot_regs(), snap);
        prop_assert_eq!(p.retired(), 0);
        prop_assert_eq!(p.wrong_path_injected(), wp_instrs.len() as u64);
    }

    /// Reconstruction produces a well-chained sequence: every pc is in the
    /// code cache, non-branch successors are sequential, and length never
    /// exceeds the budget.
    #[test]
    fn reconstruction_chains_are_well_formed(
        instrs in proptest::collection::vec(arb_instr(), 1..100),
        budget in 0usize..128,
        start_idx in 0usize..100,
    ) {
        let base = 0x4000u64;
        let mut cc = CodeCache::unbounded();
        for (i, instr) in instrs.iter().enumerate() {
            cc.insert(base + i as u64 * INSTR_BYTES, *instr);
        }
        let predictor = BranchPredictor::new(CoreConfig::tiny_for_tests().branch);
        let start = base + (start_idx % instrs.len()) as u64 * INSTR_BYTES;
        let wp = reconstruct(&mut cc, &predictor, start, budget);
        prop_assert!(wp.len() <= budget);
        for (i, w) in wp.iter().enumerate() {
            prop_assert!(cc.contains(w.pc), "reconstructed pc must come from the cache");
            prop_assert!(w.mem.is_none(), "reconstruction cannot know addresses");
            if !w.instr.is_branch() {
                prop_assert_eq!(w.next_pc, w.pc + INSTR_BYTES);
            }
            if i + 1 < wp.len() {
                prop_assert_eq!(wp[i + 1].pc, w.next_pc, "chain must follow next_pc");
            }
        }
    }

    /// Recovery soundness: every recovered address comes from a future
    /// instruction at the same pc, and non-memory instructions are never
    /// given addresses.
    #[test]
    fn recovery_is_sound(
        instrs in proptest::collection::vec(arb_instr(), 1..80),
        skip in 0usize..8,
    ) {
        // Future = the instruction sequence with real addresses; wrong
        // path = the same sequence offset by `skip` (converging suffix).
        let base = 0x4000u64;
        let future: Vec<DynInst> = instrs
            .iter()
            .enumerate()
            .map(|(i, instr)| DynInst {
                seq: i as u64,
                pc: base + i as u64 * INSTR_BYTES,
                instr: *instr,
                mem: mem_of(instr),
                branch: None,
                next_pc: base + (i as u64 + 1) * INSTR_BYTES,
            })
            .collect();
        let mut wp: Vec<WpInst> = future
            .iter()
            .skip(skip.min(instrs.len().saturating_sub(1)))
            .map(|d| WpInst {
                pc: d.pc,
                instr: d.instr,
                mem: None,
                next_pc: d.next_pc,
            })
            .collect();
        let mut stats = ConvergenceStats::default();
        let result = recover_addresses(&mut wp, &future, &ConvergenceConfig::default(), &mut stats);
        if !wp.is_empty() {
            prop_assert!(result.is_some(), "identical suffix must converge");
        }
        for w in &wp {
            if let Some(m) = w.mem {
                let f = future.iter().find(|f| f.pc == w.pc).expect("pc exists");
                prop_assert_eq!(Some(m), f.mem, "recovered address must match future");
                prop_assert!(w.instr.is_mem());
            }
        }
        prop_assert!(stats.converged <= stats.branch_misses_checked);
    }

    /// The lazy convergence stream is the eager scan, cut short: for every
    /// cut point `k`, the first `k` instructions it yields equal
    /// `reconstruct` + `recover_addresses` element-wise, its detection
    /// counters equal the eager scan's, its lock-step counters never
    /// decrease as `k` grows, its memory-operation counters count the
    /// memory operations it yielded, and a drained stream reproduces every
    /// other eager counter, code-cache hits and misses included. Later
    /// episodes on the same future cache, starting further down the
    /// future, match the eager scan over their own window.
    #[test]
    fn convergence_stream_is_the_eager_scan_cut_short(seed in any::<u64>()) {
        let ep = random_episode(seed);
        let configs = [
            ConvergenceConfig::default(),
            ConvergenceConfig { one_sided_only: false, track_dirty_regs: true },
            ConvergenceConfig { one_sided_only: true, track_dirty_regs: false },
        ];
        // The eager scan over the future from entry `s` on, with the
        // code-cache hits and misses its walk counted.
        let eager_from = |s: usize, cfg: &ConvergenceConfig| {
            let mut fresh = ep.code_cache.clone();
            let mut wp = reconstruct(&mut fresh, &ep.predictor, ep.start, ep.budget);
            let walked = (fresh.stats().hits, fresh.stats().misses);
            let window: Vec<DynInst> =
                ep.future[s..].iter().take(ep.cap).map(|e| e.inst).collect();
            let mut stats = ConvergenceStats::default();
            let distance = recover_addresses(&mut wp, &window, cfg, &mut stats);
            (wp, stats, distance, walked)
        };
        // The Table III counters over yielded instructions: memory
        // operations, and those with a recovered address.
        let mem_counts = |wp: &[WpInst]| {
            let ops = wp.iter().filter(|w| w.instr.is_mem());
            (ops.clone().count() as u64, ops.filter(|w| w.mem.is_some()).count() as u64)
        };
        let without_mem = |s: ConvergenceStats| ConvergenceStats {
            wp_mem_ops: 0,
            wp_mem_recovered: 0,
            ..s
        };
        for cfg in configs {
            let (eager, eager_stats, distance, eager_walked) = eager_from(0, &cfg);
            let mut code_cache = ep.code_cache.clone();
            let (mut walk_buf, mut cache) = (WalkBuf::default(), FutureCache::default());
            let mut last = ConvergenceStats::default();
            for k in 0..=eager.len() + 1 {
                let before = code_cache.stats();
                let walk = Walk::new(&mut code_cache, &ep.predictor, ep.start, ep.budget, &mut walk_buf);
                let future = FutureWindow::new(0, &ep.future, None, ep.cap, &mut cache);
                let mut stream = ConvergenceStream::new(walk, future, cfg);
                prop_assert_eq!(stream.convergence_distance(), distance);
                let pulled: Vec<WpInst> = stream.by_ref().take(k).collect();
                prop_assert_eq!(&pulled[..], &eager[..k.min(eager.len())], "cut at {}", k);
                let s = stream.stats();
                prop_assert_eq!(s.branch_misses_checked, eager_stats.branch_misses_checked);
                prop_assert_eq!(s.converged, eager_stats.converged);
                prop_assert_eq!(s.distance_sum, eager_stats.distance_sum);
                prop_assert!(s.scan_length_sum >= last.scan_length_sum);
                prop_assert!(s.scan_stop_pc_mismatch >= last.scan_stop_pc_mismatch);
                prop_assert!(s.scan_stop_control >= last.scan_stop_control);
                prop_assert!(s.skipped_dirty >= last.skipped_dirty);
                prop_assert!(s.reconvergences >= last.reconvergences);
                prop_assert_eq!((s.wp_mem_ops, s.wp_mem_recovered), mem_counts(&pulled), "cut at {}", k);
                if k >= eager.len() {
                    prop_assert_eq!(without_mem(s), eager_stats, "drained at {}", k);
                }
                if k > eager.len() {
                    // The last pull found the walk's end.
                    let after = code_cache.stats();
                    let walked = (after.hits - before.hits, after.misses - before.misses);
                    prop_assert_eq!(walked, eager_walked, "code-cache counts, drained at {}", k);
                }
                last = s;
            }
            let n = ep.future.len();
            for first in [1, 2, 3, n / 2, n].into_iter().filter(|&s| s <= n) {
                let (eager, eager_stats, distance, _) = eager_from(first, &cfg);
                let walk = Walk::new(&mut code_cache, &ep.predictor, ep.start, ep.budget, &mut walk_buf);
                let future = FutureWindow::new(first as u64, &ep.future[first..], None, ep.cap, &mut cache);
                let mut stream = ConvergenceStream::new(walk, future, cfg);
                prop_assert_eq!(stream.convergence_distance(), distance, "from {}", first);
                let drained: Vec<WpInst> = stream.by_ref().collect();
                prop_assert_eq!(&drained, &eager, "from {}", first);
                let s = stream.stats();
                prop_assert_eq!(without_mem(s), eager_stats, "from {}", first);
                prop_assert_eq!((s.wp_mem_ops, s.wp_mem_recovered), mem_counts(&drained), "from {}", first);
            }
        }
    }

    /// Bounded code caches never exceed their capacity.
    #[test]
    fn code_cache_capacity_is_respected(
        cap in 1usize..64,
        pcs in proptest::collection::vec(0u64..4096, 1..300),
    ) {
        let mut cc = CodeCache::with_capacity(cap);
        for pc in pcs {
            cc.insert(pc * 4, Instr::Nop);
            prop_assert!(cc.len() <= cap);
        }
    }

    /// The text-indexed code cache answers every lookup and `contains`,
    /// and keeps `len` and the statistics, exactly as the pc-keyed
    /// reference does, unbounded and bounded. Inserts land around a random
    /// start, also below the first insert, and re-insert pcs, each with its
    /// one fixed instruction as program text has; lookups also go off the
    /// 4-byte grid and past every insert.
    #[test]
    fn code_cache_matches_reference(
        cap in prop_oneof![Just(None), (1usize..65).prop_map(Some)],
        start in 0x100u64..(1 << 40),
        text in proptest::collection::vec(0usize..4, 128),
        ops in proptest::collection::vec((0u8..4, -96i64..96, 0u64..4), 1..400),
    ) {
        let instrs = [
            Instr::Nop,
            Instr::Alu { op: AluOp::Add, rd: Reg::new(1), rs1: Reg::new(2), rs2: Reg::new(3) },
            Instr::Jal { rd: Reg::ZERO, target: 0x1000 },
            Instr::Halt,
        ];
        let mut cc = cap.map_or_else(CodeCache::unbounded, CodeCache::with_capacity);
        let mut reference = RefCodeCache::new(cap);
        for (i, (op, off, sub)) in ops.into_iter().enumerate() {
            let slot = off.clamp(-64, 63);
            let grid = (start as i64 + slot) as Addr * INSTR_BYTES;
            let pc = (start as i64 + off) as Addr * INSTR_BYTES + sub;
            match op {
                0 | 1 => {
                    let instr = instrs[text[(slot + 64) as usize]];
                    cc.insert(grid, instr);
                    reference.insert(grid, instr);
                }
                2 => prop_assert_eq!(cc.lookup(pc), reference.lookup(pc), "op {} at {:#x}", i, pc),
                _ => prop_assert_eq!(
                    cc.contains(pc),
                    reference.entries.contains_key(&pc),
                    "op {} at {:#x}", i, pc
                ),
            }
            prop_assert_eq!(cc.len(), reference.entries.len(), "op {}", i);
            prop_assert_eq!(cc.stats(), reference.stats, "op {}", i);
        }
        for pc in reference.entries.keys() {
            prop_assert!(cc.contains(*pc));
        }
    }

    /// Full-simulator determinism over random straight-line programs with
    /// a loop wrapper, across all four modes.
    #[test]
    fn simulator_is_deterministic_across_modes(
        body in proptest::collection::vec(arb_instr(), 1..40),
        trip in 1i64..40,
    ) {
        // do { body } while (--x1): exercises branch prediction and, on
        // the final iteration, a wrong path.
        let base = 0x1000u64;
        let mut instrs = vec![
            Instr::LoadImm { rd: Reg::new(31), imm: trip },
            Instr::LoadImm { rd: Reg::new(30), imm: 0x10_0000 },
        ];
        let loop_start = base + instrs.len() as u64 * INSTR_BYTES;
        instrs.extend(body.iter().copied());
        instrs.push(Instr::AluImm { op: AluOp::Add, rd: Reg::new(31), rs1: Reg::new(31), imm: -1 });
        instrs.push(Instr::Branch {
            cond: ffsim_isa::BranchCond::Ne,
            rs1: Reg::new(31),
            rs2: Reg::ZERO,
            target: loop_start,
        });
        instrs.push(Instr::Halt);
        let program = Program::new(base, instrs);

        for mode in WrongPathMode::ALL {
            let cfg = SimConfig::with_core(CoreConfig::tiny_for_tests(), mode);
            let r1 = Simulator::new(program.clone(), Memory::new(), cfg.clone()).unwrap().run().unwrap();
            let r2 = Simulator::new(program.clone(), Memory::new(), cfg).unwrap().run().unwrap();
            prop_assert_eq!(r1.cycles, r2.cycles, "{} must be deterministic", mode);
            prop_assert_eq!(r1.instructions, r2.instructions);
            prop_assert_eq!(r1.wrong_path_instructions, r2.wrong_path_instructions);
            prop_assert_eq!(r1.state_digest, r2.state_digest);
        }
    }

    /// The handoff batch size is a pure host-speed knob (see DESIGN.md
    /// §"Batched handoff"): per-instruction delivery
    /// (`handoff_batch = 1`) and every batched size must produce
    /// bit-identical simulations across all four techniques — same
    /// cycles, retired counts, wrong-path injections, CPI stacks,
    /// technique counters, and final architectural digest.
    #[test]
    fn handoff_batch_size_never_changes_the_simulation(
        body in proptest::collection::vec(arb_instr(), 1..40),
        trip in 1i64..40,
        batch in prop_oneof![Just(3usize), Just(16), Just(64), Just(256)],
    ) {
        let base = 0x1000u64;
        let mut instrs = vec![
            Instr::LoadImm { rd: Reg::new(31), imm: trip },
            Instr::LoadImm { rd: Reg::new(30), imm: 0x10_0000 },
        ];
        let loop_start = base + instrs.len() as u64 * INSTR_BYTES;
        instrs.extend(body.iter().copied());
        instrs.push(Instr::AluImm { op: AluOp::Add, rd: Reg::new(31), rs1: Reg::new(31), imm: -1 });
        instrs.push(Instr::Branch {
            cond: ffsim_isa::BranchCond::Ne,
            rs1: Reg::new(31),
            rs2: Reg::ZERO,
            target: loop_start,
        });
        instrs.push(Instr::Halt);
        let program = Program::new(base, instrs);

        for mode in WrongPathMode::ALL {
            let mut cfg = SimConfig::with_core(CoreConfig::tiny_for_tests(), mode);
            cfg.handoff_batch = 1;
            let per_instr = Simulator::new(program.clone(), Memory::new(), cfg.clone())
                .unwrap().run().unwrap();
            cfg.handoff_batch = batch;
            let batched = Simulator::new(program.clone(), Memory::new(), cfg)
                .unwrap().run().unwrap();
            prop_assert_eq!(per_instr.cycles, batched.cycles,
                "{}: batch {} changed cycles", mode, batch);
            prop_assert_eq!(per_instr.instructions, batched.instructions);
            prop_assert_eq!(per_instr.wrong_path_instructions, batched.wrong_path_instructions,
                "{}: batch {} changed wrong-path injection", mode, batch);
            prop_assert_eq!(per_instr.branch.mispredicts(), batched.branch.mispredicts());
            prop_assert_eq!(per_instr.convergence, batched.convergence);
            prop_assert_eq!(per_instr.code_cache, batched.code_cache);
            prop_assert_eq!(per_instr.state_digest, batched.state_digest);
            prop_assert_eq!(per_instr.cpi.total(), batched.cpi.total());
        }
    }

    /// Observer-effect invariant: enabling CPI/event tracing never changes
    /// the simulated outcome. Same workload, obs on vs. off, across all
    /// four modes — identical cycles, instructions, and state digest.
    #[test]
    fn observability_never_perturbs_the_simulation(
        body in proptest::collection::vec(arb_instr(), 1..40),
        trip in 1i64..40,
    ) {
        let base = 0x1000u64;
        let mut instrs = vec![
            Instr::LoadImm { rd: Reg::new(31), imm: trip },
            Instr::LoadImm { rd: Reg::new(30), imm: 0x10_0000 },
        ];
        let loop_start = base + instrs.len() as u64 * INSTR_BYTES;
        instrs.extend(body.iter().copied());
        instrs.push(Instr::AluImm { op: AluOp::Add, rd: Reg::new(31), rs1: Reg::new(31), imm: -1 });
        instrs.push(Instr::Branch {
            cond: ffsim_isa::BranchCond::Ne,
            rs1: Reg::new(31),
            rs2: Reg::ZERO,
            target: loop_start,
        });
        instrs.push(Instr::Halt);
        let program = Program::new(base, instrs);

        for mode in WrongPathMode::ALL {
            let mut off = SimConfig::with_core(CoreConfig::tiny_for_tests(), mode);
            off.obs = ObsConfig::disabled();
            let quiet = Simulator::new(program.clone(), Memory::new(), off.clone()).unwrap().run().unwrap();
            // Full tracing and profiling-only must both leave the simulated
            // outcome untouched — the phase profiler perturbs wall time,
            // never simulated state.
            for obs in [ObsConfig::enabled(), ObsConfig::profiled()] {
                let tracing = obs.enabled;
                let mut on = off.clone();
                on.obs = obs;
                let observed = Simulator::new(program.clone(), Memory::new(), on).unwrap().run().unwrap();
                prop_assert_eq!(quiet.cycles, observed.cycles, "{}: cycles must not move", mode);
                prop_assert_eq!(quiet.instructions, observed.instructions);
                prop_assert_eq!(quiet.wrong_path_instructions, observed.wrong_path_instructions);
                prop_assert_eq!(quiet.state_digest, observed.state_digest);
                prop_assert_eq!(quiet.cpi.total(), observed.cpi.total());
                let report = observed.obs.as_ref().expect("observed run must produce a report");
                prop_assert!(report.profile.is_enabled(), "profiling is on in both configs");
                prop_assert!(
                    report.profile.phase_agg(ffsim_core::Phase::TimingPipeline).count > 0,
                    "the run loop must record its pipeline scope"
                );
                if !tracing {
                    prop_assert!(report.events.is_empty(), "profile-only mode buffers no events");
                }
            }
            prop_assert!(quiet.obs.is_none(), "disabled run must not allocate a report");
        }
    }

    /// Monotone workload growth: more loop iterations never reduce cycles.
    #[test]
    fn cycles_grow_with_work(extra in 1i64..200) {
        let make = |trips: i64| {
            let mut a = ffsim_isa::Asm::new();
            a.li(Reg::new(1), trips);
            a.label("l");
            a.addi(Reg::new(1), Reg::new(1), -1);
            a.bnez(Reg::new(1), "l");
            a.halt();
            a.assemble().unwrap()
        };
        let cfg = SimConfig::with_core(CoreConfig::tiny_for_tests(), WrongPathMode::NoWrongPath);
        let small = Simulator::new(make(10), Memory::new(), cfg.clone()).unwrap().run().unwrap();
        let large = Simulator::new(make(10 + extra), Memory::new(), cfg).unwrap().run().unwrap();
        prop_assert!(large.cycles > small.cycles);
        prop_assert!(large.instructions > small.instructions);
    }
}
