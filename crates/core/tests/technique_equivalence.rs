//! Cross-technique equivalence: the extracted [`WrongPathTechnique`]
//! strategies must behave exactly like the pre-refactor monolithic
//! dispatch. The oracle below reimplements the old `Simulator::run`
//! mode switch as one monolithic technique built from the same public
//! building blocks (`reconstruct`, `recover_addresses`,
//! `inject_wrong_path`, `emulated_feed`, eager wrong-path emulation),
//! and the property drives both through identical random workloads.
//!
//! For wrong-path emulation the oracle is independent of the frontend
//! checkpoint and store log it checks: it keeps a shadow emulator in
//! lockstep with the consumed correct path and, at each misprediction,
//! emulates the whole wrong path eagerly from the branch, steered by the
//! timing model's predictor.

use ffsim_core::technique::{emulated_feed, inject_wrong_path, PredictorSteer};
use ffsim_core::{
    passive_frontend, reconstruct, recover_addresses, CodeCache, ConvergenceConfig,
    ConvergenceStats, FaultStats, MispredictContext, ObsConfig, SimConfig, SimResult, Simulator,
    TechniqueStats, WrongPathMode, WrongPathTechnique,
};
use ffsim_emu::{DynInst, Emulator, FetchSource, Memory, WrongPathStop};
use ffsim_isa::{AluOp, Asm, Instr, MemWidth, Program, Reg, INSTR_BYTES};
use ffsim_uarch::CoreConfig;
use proptest::prelude::*;
use std::cell::RefCell;

/// The pre-refactor behavior, expressed as a single technique holding the
/// union of all per-mode state and branching on `mode` at every hook —
/// exactly the shape `Simulator::run` had before the strategy extraction.
#[derive(Debug)]
struct MonolithOracle {
    mode: WrongPathMode,
    code_cache: CodeCache,
    convergence: ConvergenceConfig,
    budget: usize,
    rob: usize,
    conv_stats: ConvergenceStats,
    watchdog: Option<u64>,
    /// Wrong-path emulation: an emulator in lockstep with the consumed
    /// correct path, cloned from the frontend's at construction.
    shadow: RefCell<Option<Emulator>>,
    faults: FaultStats,
    emulated: u64,
}

impl MonolithOracle {
    fn new(cfg: &SimConfig) -> MonolithOracle {
        MonolithOracle {
            watchdog: cfg.wrong_path_watchdog,
            shadow: RefCell::new(None),
            faults: FaultStats::default(),
            emulated: 0,
            mode: cfg.mode,
            code_cache: match cfg.code_cache_capacity {
                Some(cap) => CodeCache::with_capacity(cap),
                None => CodeCache::unbounded(),
            },
            convergence: cfg.convergence,
            budget: cfg.core.wrong_path_budget(),
            rob: cfg.core.rob_size,
            conv_stats: ConvergenceStats::default(),
        }
    }
}

impl WrongPathTechnique for MonolithOracle {
    fn mode(&self) -> WrongPathMode {
        self.mode
    }

    fn build_frontend(&self, emu: Emulator, cfg: &SimConfig) -> Box<dyn FetchSource> {
        if self.mode == WrongPathMode::WrongPathEmulation {
            *self.shadow.borrow_mut() = Some(emu.clone());
        }
        passive_frontend(emu, cfg)
    }

    fn on_instruction(&mut self, inst: &DynInst) {
        if self.mode.uses_code_cache() {
            self.code_cache.insert(inst.pc, inst.instr);
        }
        if let Some(shadow) = self.shadow.get_mut() {
            let stepped = shadow.step().expect("the shadow retires the consumed path");
            assert_eq!(&stepped, inst, "shadow emulator out of lockstep");
        }
    }

    fn on_mispredict(&mut self, cx: &mut MispredictContext<'_>) {
        if self.mode == WrongPathMode::InstructionReconstruction {
            if let Some(start) = cx.wrong_path_start {
                let wp = reconstruct(&mut self.code_cache, cx.predictor, start, self.budget);
                inject_wrong_path(cx.pipeline, wp.iter().copied(), cx.resolve, self.budget);
            }
        } else if self.mode == WrongPathMode::ConvergenceExploitation {
            let Some(start) = cx.wrong_path_start else {
                return;
            };
            let mut wp = reconstruct(&mut self.code_cache, cx.predictor, start, self.budget);
            // The future window as per-instruction delivery would expose
            // it: the unconsumed batch tail, then the frontend's buffer.
            let mut future = Vec::new();
            for i in 0..self.rob {
                match cx.peek_ahead(i) {
                    Some(e) => future.push(e.inst),
                    None => break,
                }
            }
            let _ = recover_addresses(&mut wp, &future, &self.convergence, &mut self.conv_stats);
            let n = inject_wrong_path(cx.pipeline, wp.iter().copied(), cx.resolve, self.budget);
            // Table III accounting: only the memory operations fed count.
            for w in wp[..n].iter().filter(|w| w.instr.is_mem()) {
                self.conv_stats.wp_mem_ops += 1;
                if w.mem.is_some() {
                    self.conv_stats.wp_mem_recovered += 1;
                }
            }
        } else if self.mode == WrongPathMode::WrongPathEmulation {
            let Some(start) = cx.wrong_path_start else {
                return;
            };
            let shadow = self
                .shadow
                .get_mut()
                .as_mut()
                .expect("built in build_frontend");
            let mut steer = PredictorSteer(cx.predictor.wrong_path_view());
            let bundle =
                shadow.emulate_wrong_path_bounded(start, self.budget, self.watchdog, &mut steer);
            self.emulated += bundle.insts.len() as u64;
            match bundle.stop {
                WrongPathStop::Fault(_) => self.faults.squashed_faults += 1,
                WrongPathStop::WatchdogExceeded { .. } => self.faults.watchdog_trips += 1,
                WrongPathStop::IllegalPc(_) => self.faults.illegal_pc_stops += 1,
                _ => {}
            }
            let feed = emulated_feed(bundle.insts.iter().copied(), shadow.program());
            inject_wrong_path(cx.pipeline, feed, cx.resolve, self.budget);
        }
        // NoWrongPath: detection only, nothing injected.
    }

    fn stats(&self) -> TechniqueStats {
        TechniqueStats {
            convergence: self.conv_stats,
            code_cache: self.code_cache.stats(),
            faults: self.faults,
            wrong_path_emulated: self.emulated,
        }
    }

    fn reset_stats(&mut self) {
        self.code_cache.reset_stats();
        self.conv_stats = ConvergenceStats::default();
        self.faults = FaultStats::default();
        self.emulated = 0;
    }
}

fn arb_reg() -> impl Strategy<Value = Reg> {
    (1u8..29).prop_map(Reg::new)
}

/// Straight-line bodies with loads/stores off the x30 base set up by the
/// loop wrapper.
fn arb_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        (arb_reg(), arb_reg(), arb_reg()).prop_map(|(rd, rs1, rs2)| Instr::Alu {
            op: AluOp::Add,
            rd,
            rs1,
            rs2
        }),
        (arb_reg(), 0i64..64).prop_map(|(rd, w)| Instr::Load {
            rd,
            base: Reg::new(30),
            offset: w * 8,
            width: MemWidth::D,
            signed: false,
        }),
        (arb_reg(), 0i64..64).prop_map(|(src, w)| Instr::Store {
            src,
            base: Reg::new(30),
            offset: w * 8,
            width: MemWidth::D,
        }),
        Just(Instr::Nop),
    ]
}

/// `do { body } while (--x31 != 0)`: branchy enough to mispredict on
/// predictor warmup and on loop exit, so every technique's wrong-path
/// machinery is exercised.
fn loop_program(body: &[Instr], trip: i64) -> Program {
    let base = 0x1000u64;
    let mut instrs = vec![
        Instr::LoadImm {
            rd: Reg::new(31),
            imm: trip,
        },
        Instr::LoadImm {
            rd: Reg::new(30),
            imm: 0x10_0000,
        },
    ];
    let loop_start = base + instrs.len() as u64 * INSTR_BYTES;
    instrs.extend(body.iter().copied());
    instrs.push(Instr::AluImm {
        op: AluOp::Add,
        rd: Reg::new(31),
        rs1: Reg::new(31),
        imm: -1,
    });
    instrs.push(Instr::Branch {
        cond: ffsim_isa::BranchCond::Ne,
        rs1: Reg::new(31),
        rs2: Reg::ZERO,
        target: loop_start,
    });
    instrs.push(Instr::Halt);
    Program::new(base, instrs)
}

proptest! {
    /// For every mode, the registry-built technique and the monolithic
    /// oracle produce bit-identical results: same cycles, same injected
    /// wrong path, same technique-owned counters, same final state.
    #[test]
    fn techniques_match_the_pre_refactor_monolith(
        body in proptest::collection::vec(arb_instr(), 1..32),
        trip in 1i64..32,
        bounded_cache in (0u8..2).prop_map(|b| b == 1),
    ) {
        let program = loop_program(&body, trip);
        for mode in WrongPathMode::ALL {
            let mut cfg = SimConfig::with_core(CoreConfig::tiny_for_tests(), mode);
            cfg.obs = ObsConfig::disabled();
            if bounded_cache {
                cfg.code_cache_capacity = Some(16);
            }
            let refactored = Simulator::new(program.clone(), Memory::new(), cfg.clone())
                .unwrap()
                .run()
                .unwrap();
            let oracle = Simulator::with_technique(
                program.clone(),
                Memory::new(),
                cfg.clone(),
                Box::new(MonolithOracle::new(&cfg)),
            )
            .unwrap()
            .run()
            .unwrap();

            prop_assert_eq!(refactored.cycles, oracle.cycles, "{}: cycles diverged", mode);
            prop_assert_eq!(refactored.instructions, oracle.instructions);
            prop_assert_eq!(
                refactored.wrong_path_instructions,
                oracle.wrong_path_instructions,
                "{}: wrong-path injection diverged", mode
            );
            prop_assert_eq!(
                refactored.branch.mispredicts(),
                oracle.branch.mispredicts()
            );
            prop_assert_eq!(refactored.convergence, oracle.convergence);
            // Code-cache counters match everywhere except instruction
            // reconstruction, whose fused reconstruct+inject walk probes
            // only the prefix the pipeline consumes; the eager oracle
            // reconstructs the full budget, so it counts more probes. The
            // injected stream and timing still match exactly (asserted
            // above via cycles / wrong_path_instructions / digest).
            if mode != WrongPathMode::InstructionReconstruction {
                prop_assert_eq!(refactored.code_cache, oracle.code_cache);
            }
            prop_assert_eq!(refactored.state_digest, oracle.state_digest);
            prop_assert_eq!(refactored.cpi.total(), oracle.cpi.total());
            emulated_within_the_eager_oracle(&refactored, &oracle);
        }
    }
}

/// Lazy wrong-path emulation emulates — and so meets faults on — at most
/// the wrong paths the eager oracle emulates in full.
fn emulated_within_the_eager_oracle(refactored: &SimResult, oracle: &SimResult) {
    let (r, o) = (refactored.faults, oracle.faults);
    assert!(r.squashed_faults <= o.squashed_faults, "{r:?} vs {o:?}");
    assert!(r.watchdog_trips <= o.watchdog_trips, "{r:?} vs {o:?}");
    assert!(r.illegal_pc_stops <= o.illegal_pc_stops, "{r:?} vs {o:?}");
    assert!(refactored.wrong_path_emulated <= oracle.wrong_path_emulated);
}

/// The same equivalence holds across the warmup boundary, where
/// `reset_stats` must clear counters without cooling technique state
/// (code-cache contents survive, statistics do not).
#[test]
fn warmup_reset_matches_the_monolith() {
    let body: Vec<Instr> = (0..8)
        .map(|i| Instr::Load {
            rd: Reg::new(1 + (i % 8) as u8),
            base: Reg::new(30),
            offset: i * 8,
            width: MemWidth::D,
            signed: false,
        })
        .collect();
    let program = loop_program(&body, 24);
    for mode in WrongPathMode::ALL {
        let mut cfg = SimConfig::with_core(CoreConfig::tiny_for_tests(), mode);
        cfg.obs = ObsConfig::disabled();
        cfg.warmup_instructions = 50;
        let refactored = Simulator::new(program.clone(), Memory::new(), cfg.clone())
            .unwrap()
            .run()
            .unwrap();
        let oracle = Simulator::with_technique(
            program.clone(),
            Memory::new(),
            cfg.clone(),
            Box::new(MonolithOracle::new(&cfg)),
        )
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(refactored.cycles, oracle.cycles, "{mode}: cycles diverged");
        assert_eq!(refactored.instructions, oracle.instructions);
        assert_eq!(
            refactored.wrong_path_instructions,
            oracle.wrong_path_instructions
        );
        assert_eq!(refactored.convergence, oracle.convergence);
        // See techniques_match_the_pre_refactor_monolith: instrec's fused
        // walk probes fewer pcs than the eager oracle.
        if mode != WrongPathMode::InstructionReconstruction {
            assert_eq!(refactored.code_cache, oracle.code_cache);
        }
        assert_eq!(refactored.state_digest, oracle.state_digest);
        emulated_within_the_eager_oracle(&refactored, &oracle);
    }
}

/// A loop opening with a hammock on a pseudo-random bit (one LCG step),
/// followed by a long converged stretch of loads off the loop counter. The
/// hammock mispredicts about half the time and both paths converge right
/// after it, so the eager scan lock-steps through the whole future window;
/// but the bit comes from a short ALU chain, so the branch resolves after
/// a fraction of that window has been injected.
fn hammock_program(trip: i64) -> Program {
    let r = Reg::new;
    let mut a = Asm::new();
    a.li(r(31), trip).li(r(30), 0x10_0000).li(r(5), 12345);
    a.li(r(7), 6_364_136_223_846_793_005);
    a.label("loop");
    a.mul(r(5), r(5), r(7))
        .addi(r(5), r(5), 1_442_695_040_888_963_407);
    a.srli(r(6), r(5), 40).andi(r(6), r(6), 1);
    a.beqz(r(6), "join");
    a.ld(r(8), 8, r(30))
        .add(r(9), r(9), r(8))
        .sd(r(9), 16, r(30));
    a.label("join");
    a.slli(r(12), r(31), 6).add(r(12), r(12), r(30));
    for i in 0..24 {
        a.ld(r(13 + (i % 8) as u8), i * 8, r(12));
    }
    a.addi(r(31), r(31), -1).bnez(r(31), "loop").halt();
    a.assemble().unwrap()
}

/// conv matches the eager monolith where its laziness shows: on the
/// golden-cove core the hammock branch resolves long before the scan of
/// its ROB-deep future window would end. Everything simulated — timing,
/// the injected wrong path, the final state and the five Table III
/// fields — is exact. Only the work counters may be smaller than the
/// oracle's: the five lock-step counters, which conv counts over the
/// injected prefix, and the code-cache probes, which cover only the
/// walked prefix (as instrec's fused walk already does).
#[test]
fn conv_matches_the_monolith_when_resolution_cuts_the_scan_short() {
    let mut cfg = SimConfig::with_core(
        CoreConfig::golden_cove_like(),
        WrongPathMode::ConvergenceExploitation,
    );
    cfg.obs = ObsConfig::disabled();
    let program = hammock_program(300);
    let refactored = Simulator::new(program.clone(), Memory::new(), cfg.clone())
        .unwrap()
        .run()
        .unwrap();
    let oracle = Simulator::with_technique(
        program,
        Memory::new(),
        cfg.clone(),
        Box::new(MonolithOracle::new(&cfg)),
    )
    .unwrap()
    .run()
    .unwrap();

    assert_eq!(refactored.cycles, oracle.cycles);
    assert_eq!(refactored.instructions, oracle.instructions);
    assert_eq!(
        refactored.wrong_path_instructions,
        oracle.wrong_path_instructions
    );
    assert_eq!(refactored.state_digest, oracle.state_digest);
    assert_eq!(refactored.cpi.total(), oracle.cpi.total());
    let (r, o) = (refactored.convergence, oracle.convergence);
    assert_eq!(r.branch_misses_checked, o.branch_misses_checked);
    assert_eq!(r.converged, o.converged);
    assert_eq!(r.distance_sum, o.distance_sum);
    assert_eq!(r.wp_mem_ops, o.wp_mem_ops);
    assert_eq!(r.wp_mem_recovered, o.wp_mem_recovered);
    assert!(r.scan_length_sum <= o.scan_length_sum);
    assert!(r.scan_stop_pc_mismatch <= o.scan_stop_pc_mismatch);
    assert!(r.scan_stop_control <= o.scan_stop_control);
    assert!(r.skipped_dirty <= o.skipped_dirty);
    assert!(r.reconvergences <= o.reconvergences);
    assert!(refactored.code_cache.hits <= oracle.code_cache.hits);
    assert!(refactored.code_cache.misses <= oracle.code_cache.misses);
    assert_eq!(refactored.code_cache.evictions, oracle.code_cache.evictions);
    // The input must keep exercising the laziness it exists for.
    assert!(r.converged > 0 && r.wp_mem_recovered > 0);
    assert!(
        r.scan_length_sum < o.scan_length_sum,
        "resolution no longer cuts the scan short: {r:?} vs {o:?}"
    );
}

/// A loop over a 4 MiB array, one load per 4 KiB page, whose branch on
/// the loaded word's low bit (pseudo-random data) waits for a DRAM miss.
/// The wrong path after each misprediction runs long, but the branch still
/// resolves before the pipeline has fetched the full wrong-path budget.
fn long_latency_program(trip: i64) -> (Program, Memory) {
    const BASE: u64 = 0x1000_0000;
    let r = Reg::new;
    let mut a = Asm::new();
    a.li(r(31), trip).li(r(30), BASE as i64).li(r(9), 0);
    a.label("loop");
    a.ld(r(5), 0, r(30));
    a.andi(r(6), r(5), 1);
    a.beqz(r(6), "skip");
    a.addi(r(9), r(9), 3).xor(r(9), r(9), r(5));
    a.label("skip");
    for i in 0..12 {
        a.addi(r(10 + i % 4), r(9), i64::from(i));
    }
    a.addi(r(30), r(30), 4096)
        .addi(r(31), r(31), -1)
        .bnez(r(31), "loop");
    a.halt();
    let mut mem = Memory::new();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for page in 0..1024u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        mem.write_u64(BASE + page * 4096, x);
    }
    (a.assemble().unwrap(), mem)
}

/// wpemul matches the eager oracle exactly where its laziness shows: the
/// oracle emulates every wrong path to the full budget, the technique only
/// the prefix the pipeline fetches before the branch resolves. Everything
/// simulated is exact; only the emulated count is smaller.
#[test]
fn wpemul_matches_the_monolith_when_resolution_cuts_emulation_short() {
    let mut cfg = SimConfig::with_core(
        CoreConfig::golden_cove_like(),
        WrongPathMode::WrongPathEmulation,
    );
    cfg.obs = ObsConfig::disabled();
    let (program, memory) = long_latency_program(1000);
    let refactored = Simulator::new(program.clone(), memory.clone(), cfg.clone())
        .unwrap()
        .run()
        .unwrap();
    let oracle = Simulator::with_technique(
        program,
        memory,
        cfg.clone(),
        Box::new(MonolithOracle::new(&cfg)),
    )
    .unwrap()
    .run()
    .unwrap();

    assert_eq!(refactored.cycles, oracle.cycles);
    assert_eq!(refactored.instructions, oracle.instructions);
    assert_eq!(
        refactored.wrong_path_instructions,
        oracle.wrong_path_instructions
    );
    assert_eq!(refactored.state_digest, oracle.state_digest);
    assert_eq!(refactored.cpi.total(), oracle.cpi.total());
    emulated_within_the_eager_oracle(&refactored, &oracle);
    // The lazy stream emulates exactly what the pipeline took.
    assert_eq!(
        refactored.wrong_path_emulated,
        refactored.wrong_path_instructions
    );
    // The input must keep exercising the laziness it exists for: long
    // wrong paths, cut short of the budget.
    let episodes = refactored.branch.mispredicts();
    assert!(refactored.wrong_path_instructions > 100 * episodes);
    assert!(
        refactored.wrong_path_emulated < oracle.wrong_path_emulated,
        "resolution no longer cuts emulation short: {} vs {}",
        refactored.wrong_path_emulated,
        oracle.wrong_path_emulated
    );
}
