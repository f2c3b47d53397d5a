//! Property-based tests for the functional emulator: memory model
//! equivalence, execution determinism, wrong-path state isolation,
//! queue/emulator stream coherence, and the packed wrong-path records.

use ffsim_emu::{
    BranchOracle, BranchOutcome, DynInst, Emulator, FaultModel, FaultPolicy, FollowComputed,
    FrontendPolicy, InstrQueue, Memory, NoFrontendWrongPath, StepError, WrongPathRequest,
};
use ffsim_isa::{Addr, AluOp, BranchCond, FReg, Instr, MemWidth, Program, Reg, INSTR_BYTES};
use proptest::prelude::*;
use std::collections::HashMap;

/// A hostile frontend policy: requests wrong-path emulation every `k`-th
/// instruction from a (possibly corrupted) start pc. Used to prove that
/// whatever the wrong path does — fault, run wild, trip the watchdog — the
/// correct-path stream is untouched under the squash policy.
struct InjectEveryK {
    k: u64,
    seen: u64,
    xor_mask: u64,
    budget: usize,
}

impl BranchOracle for InjectEveryK {
    fn next_fetch_pc(
        &mut self,
        _pc: Addr,
        _instr: &Instr,
        computed: BranchOutcome,
    ) -> Option<Addr> {
        Some(computed.next_pc)
    }
}

impl FrontendPolicy for InjectEveryK {
    fn on_instruction(&mut self, inst: &DynInst) -> Option<WrongPathRequest> {
        self.seen += 1;
        self.seen
            .is_multiple_of(self.k)
            .then_some(WrongPathRequest {
                start: inst.pc ^ self.xor_mask,
                max_insts: self.budget,
            })
    }
}

fn arb_reg() -> impl Strategy<Value = Reg> {
    // x30 is reserved as the data base pointer in generated programs and
    // must never be clobbered, or loads/stores would fault on wild
    // addresses; x31 is left free for the same reason.
    (0u8..30).prop_map(Reg::new)
}

fn arb_alu_op() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
        Just(AluOp::Sll),
        Just(AluOp::Srl),
        Just(AluOp::Sra),
        Just(AluOp::Slt),
        Just(AluOp::Sltu),
        Just(AluOp::Mul),
        Just(AluOp::Div),
        Just(AluOp::Rem),
    ]
}

/// A random program: ALU soup over a small aligned data region, with
/// aligned loads/stores and a final halt. Always fault-free.
fn arb_program() -> impl Strategy<Value = Program> {
    let instr =
        prop_oneof![
            (arb_alu_op(), arb_reg(), arb_reg(), arb_reg())
                .prop_map(|(op, rd, rs1, rs2)| Instr::Alu { op, rd, rs1, rs2 }),
            (arb_reg(), -1000i64..1000).prop_map(|(rd, imm)| Instr::LoadImm { rd, imm }),
            // Loads/stores against a fixed aligned base materialized in x30.
            (arb_reg(), 0i64..64).prop_map(|(rd, word)| Instr::Load {
                rd,
                base: Reg::new(30),
                offset: word * 8,
                width: MemWidth::D,
                signed: false,
            }),
            (arb_reg(), 0i64..64).prop_map(|(src, word)| Instr::Store {
                src,
                base: Reg::new(30),
                offset: word * 8,
                width: MemWidth::D,
            }),
            Just(Instr::Nop),
        ];
    proptest::collection::vec(instr, 1..60).prop_map(|body| {
        let mut instrs = vec![Instr::LoadImm {
            rd: Reg::new(30),
            imm: 0x10_0000,
        }];
        instrs.extend(body);
        instrs.push(Instr::Halt);
        Program::new(0x1000, instrs)
    })
}

/// A branch-predictor replica in miniature: a table of 2-bit counters,
/// trained on the correct path, that requests the wrong path at every
/// conditional branch it mispredicts and steers wrong-path conditional
/// branches by its predictions without training on them, so wrong-path
/// fetch both follows and departs from the computed outcomes.
struct BimodalReplica {
    counters: [u8; 64],
    budget: usize,
}

impl BimodalReplica {
    fn slot(pc: Addr) -> usize {
        ((pc / INSTR_BYTES) % 64) as usize
    }

    fn predicted_next(&self, pc: Addr, target: Addr) -> Addr {
        if self.counters[Self::slot(pc)] >= 2 {
            target
        } else {
            pc + INSTR_BYTES
        }
    }
}

impl BranchOracle for BimodalReplica {
    fn next_fetch_pc(&mut self, pc: Addr, instr: &Instr, computed: BranchOutcome) -> Option<Addr> {
        match *instr {
            Instr::Branch { target, .. } => Some(self.predicted_next(pc, target)),
            _ => Some(computed.next_pc),
        }
    }
}

impl FrontendPolicy for BimodalReplica {
    fn on_instruction(&mut self, inst: &DynInst) -> Option<WrongPathRequest> {
        let (Instr::Branch { target, .. }, Some(outcome)) = (inst.instr, inst.branch) else {
            return None;
        };
        let predicted = self.predicted_next(inst.pc, target);
        let counter = &mut self.counters[Self::slot(inst.pc)];
        *counter = if outcome.taken {
            (*counter + 1).min(3)
        } else {
            counter.saturating_sub(1)
        };
        (predicted != outcome.next_pc).then_some(WrongPathRequest {
            start: predicted,
            max_insts: self.budget,
        })
    }
}

/// Text base of [`arb_branchy_program`].
const BRANCHY_BASE: Addr = 0x4000;
/// Data region of [`arb_branchy_program`]: 64 words at x30, which the
/// program never writes.
const DATA_BASE: Addr = 0x10_0000;

/// A loop of 1–5 iterations (counter in x29) over a random body of ALU
/// ops, loads and stores of every width and FP, and forward conditional
/// branches that skip up to the back edge. Always fault-free and
/// terminating; its data accesses stay in the 64-word region at x30.
/// Yields the program and its trip count.
fn arb_branchy_program() -> impl Strategy<Value = (Program, i64)> {
    let reg = || (1u8..29).prop_map(Reg::new);
    let width = || {
        prop_oneof![
            Just(MemWidth::B),
            Just(MemWidth::H),
            Just(MemWidth::W),
            Just(MemWidth::D),
        ]
    };
    let cond = prop_oneof![
        Just(BranchCond::Eq),
        Just(BranchCond::Ne),
        Just(BranchCond::Lt),
        Just(BranchCond::Geu),
    ];
    let base = Reg::new(30);
    // Branches are generated with a skip distance and resolved to an
    // absolute target once the layout is known.
    let item = prop_oneof![
        (arb_alu_op(), reg(), reg(), reg())
            .prop_map(|(op, rd, rs1, rs2)| (Instr::Alu { op, rd, rs1, rs2 }, 0)),
        (reg(), -4i64..4).prop_map(|(rd, imm)| (Instr::LoadImm { rd, imm }, 0)),
        (reg(), 0i64..64, width(), any::<bool>()).prop_map(move |(rd, word, width, signed)| {
            let offset = word * 8;
            (
                Instr::Load {
                    rd,
                    base,
                    offset,
                    width,
                    signed,
                },
                0,
            )
        }),
        (reg(), 0i64..64, width()).prop_map(move |(src, word, width)| {
            let offset = word * 8;
            (
                Instr::Store {
                    src,
                    base,
                    offset,
                    width,
                },
                0,
            )
        }),
        (0u8..8, 0i64..64).prop_map(move |(f, word)| {
            let (fd, offset) = (FReg::new(f), word * 8);
            (Instr::FpLoad { fd, base, offset }, 0)
        }),
        (0u8..8, 0i64..64).prop_map(move |(f, word)| {
            let (fs, offset) = (FReg::new(f), word * 8);
            (Instr::FpStore { fs, base, offset }, 0)
        }),
        (cond, reg(), reg(), 1u64..8).prop_map(|(cond, rs1, rs2, skip)| {
            (
                Instr::Branch {
                    cond,
                    rs1,
                    rs2,
                    target: 0,
                },
                skip,
            )
        }),
    ];
    (proptest::collection::vec(item, 1..40), 1i64..6).prop_map(|(body, trips)| {
        let counter = Reg::new(29);
        let pc_of = |i: usize| BRANCHY_BASE + i as Addr * INSTR_BYTES;
        let mut instrs = vec![
            Instr::LoadImm {
                rd: Reg::new(30),
                imm: DATA_BASE as i64,
            },
            Instr::LoadImm {
                rd: counter,
                imm: trips,
            },
        ];
        let head = instrs.len();
        let back_edge = head + body.len();
        for (i, (mut instr, skip)) in body.into_iter().enumerate() {
            if let Instr::Branch { target, .. } = &mut instr {
                let here = head + i;
                *target = pc_of((here + 1 + skip as usize).min(back_edge));
            }
            instrs.push(instr);
        }
        instrs.push(Instr::AluImm {
            op: AluOp::Add,
            rd: counter,
            rs1: counter,
            imm: -1,
        });
        instrs.push(Instr::Branch {
            cond: BranchCond::Ne,
            rs1: counter,
            rs2: Reg::new(0),
            target: pc_of(head),
        });
        instrs.push(Instr::Halt);
        (Program::new(BRANCHY_BASE, instrs), trips)
    })
}

proptest! {
    /// Memory behaves exactly like a sparse byte map.
    #[test]
    fn memory_matches_reference(
        script in proptest::collection::vec(
            (0u64..0x4_0000u64, prop_oneof![Just(1u64), Just(2), Just(4), Just(8)], any::<u64>(), any::<bool>()),
            0..200,
        )
    ) {
        let mut mem = Memory::new();
        let mut reference: HashMap<u64, u8> = HashMap::new();
        for (addr, width, value, is_write) in script {
            if is_write {
                mem.write_uint(addr, width, value);
                for i in 0..width {
                    reference.insert(addr + i, (value >> (8 * i)) as u8);
                }
            } else {
                let got = mem.read_uint(addr, width);
                let mut expect = 0u64;
                for i in 0..width {
                    expect |= u64::from(*reference.get(&(addr + i)).unwrap_or(&0)) << (8 * i);
                }
                prop_assert_eq!(got, expect);
            }
        }
    }

    /// Two emulators on the same program produce byte-identical streams.
    #[test]
    fn execution_is_deterministic(p in arb_program()) {
        let mut a = Emulator::new(p.clone()).unwrap();
        let mut b = Emulator::new(p).unwrap();
        loop {
            match (a.step(), b.step()) {
                (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
                (Err(x), Err(y)) => { prop_assert_eq!(x, y); break; }
                (x, y) => prop_assert!(false, "divergence: {x:?} vs {y:?}"),
            }
        }
        prop_assert_eq!(a.mem().read_u64(0x10_0000), b.mem().read_u64(0x10_0000));
    }

    /// Sequence numbers are dense and next_pc links chain correctly for
    /// straight-line programs.
    #[test]
    fn stream_is_well_linked(p in arb_program()) {
        let mut emu = Emulator::new(p).unwrap();
        let mut prev: Option<(u64, Addr)> = None;
        while let Ok(inst) = emu.step() {
            if let Some((seq, next_pc)) = prev {
                prop_assert_eq!(inst.seq, seq + 1);
                prop_assert_eq!(inst.pc, next_pc);
            }
            if !matches!(inst.instr, Instr::Halt) {
                prop_assert_eq!(inst.next_pc, inst.pc + INSTR_BYTES);
            }
            prev = Some((inst.seq, inst.next_pc));
        }
    }

    /// Wrong-path emulation at an arbitrary point with an arbitrary start
    /// never perturbs registers, pc, or memory.
    #[test]
    fn wrong_path_is_hermetic(
        p in arb_program(),
        warmup in 0u64..32,
        start_word in 0u64..128,
        budget in 1usize..64,
    ) {
        let mut emu = Emulator::new(p.clone()).unwrap();
        let _ = emu.run_to_halt(warmup);
        let state_before = emu.checkpoint();
        let mem_words: Vec<u64> = (0..64).map(|i| emu.mem().read_u64(0x10_0000 + i * 8)).collect();
        // Start anywhere, including outside the text image.
        let start = 0x1000 + start_word * INSTR_BYTES;
        let _ = emu.emulate_wrong_path(start, budget, &mut FollowComputed);
        prop_assert_eq!(emu.checkpoint(), state_before);
        for (i, w) in mem_words.iter().enumerate() {
            prop_assert_eq!(emu.mem().read_u64(0x10_0000 + i as u64 * 8), *w);
        }
        // And the correct path still completes identically to a fresh run.
        let mut fresh = Emulator::new(p).unwrap();
        let _ = fresh.run_to_halt(warmup);
        loop {
            match (emu.step(), fresh.step()) {
                (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
                (Err(StepError::Halted), Err(StepError::Halted)) => break,
                (x, y) => prop_assert!(false, "divergence after wp: {x:?} vs {y:?}"),
            }
        }
    }

    /// The queue yields exactly the emulator's stream, regardless of an
    /// interleaved pattern of peeks and pops.
    #[test]
    fn queue_matches_direct_stream(
        p in arb_program(),
        peeks in proptest::collection::vec(0usize..16, 0..64),
        depth in 1usize..64,
    ) {
        let mut direct = Emulator::new(p.clone()).unwrap();
        let mut q = InstrQueue::new(Emulator::new(p).unwrap(), NoFrontendWrongPath, depth);
        let mut peek_iter = peeks.into_iter().cycle();
        loop {
            // Random peeking must not disturb the stream.
            if let Some(k) = peek_iter.next() {
                let _ = q.peek(k % depth);
            }
            match (q.pop(), direct.step()) {
                (Some(entry), Ok(inst)) => {
                    prop_assert_eq!(entry.inst, inst);
                    prop_assert!(entry.wrong_path.is_none());
                }
                (None, Err(StepError::Halted)) => break,
                (a, b) => prop_assert!(false, "queue/direct divergence: {a:?} vs {b:?}"),
            }
        }
    }

    /// Wrong-path budget is respected exactly: never more instructions than
    /// requested.
    #[test]
    fn wrong_path_budget_respected(p in arb_program(), budget in 0usize..32) {
        let mut emu = Emulator::new(p.clone()).unwrap();
        let bundle = emu.emulate_wrong_path(p.entry(), budget, &mut FollowComputed);
        prop_assert!(bundle.insts.len() <= budget);
    }

    /// Squash invariance: injecting wrong-path emulation at random points —
    /// with corrupted start pcs, a strict fault model, and a tiny watchdog —
    /// never changes the correct-path stream or the final architectural
    /// state under `FaultPolicy::SquashWrongPath`.
    #[test]
    fn wrong_path_fault_injection_is_squashed(
        p in arb_program(),
        k in 1u64..8,
        xor_mask in prop_oneof![Just(0u64), Just(8), Just(0x40), Just(0xffff_0000)],
        budget in 1usize..48,
        watchdog in 1u64..32,
    ) {
        let injected_policy = InjectEveryK { k, seen: 0, xor_mask, budget };
        let mut injected = InstrQueue::new(Emulator::new(p.clone()).unwrap(), injected_policy, 32)
            .with_fault_policy(FaultPolicy::SquashWrongPath)
            .with_watchdog(Some(watchdog));
        // A strict fault model bounding data accesses to just past the
        // program's 64-word data region, so wild wrong paths fault readily.
        // (trap_div_zero stays off: it would also trap the *correct* path,
        // which arb_program allows to divide by zero.)
        injected.emulator_mut().set_fault_model(FaultModel {
            trap_div_zero: false,
            addr_limit: Some(0x10_0000 + 64 * 8),
        });
        let mut clean = InstrQueue::new(
            Emulator::new(p).unwrap(),
            NoFrontendWrongPath,
            32,
        );
        loop {
            match (injected.pop(), clean.pop()) {
                (Some(a), Some(b)) => prop_assert_eq!(a.inst, b.inst),
                (None, None) => break,
                (a, b) => prop_assert!(false, "stream divergence: {a:?} vs {b:?}"),
            }
        }
        prop_assert!(injected.fault().is_none(), "squash policy never ends the stream");
        prop_assert_eq!(injected.emulator().digest(), clean.emulator().digest());
    }

    /// Every packed record of a replica-driven bundle decodes against the
    /// program text: its pc holds an instruction, `mem` is present exactly
    /// for loads and stores with the instruction's size and kind at an
    /// address inside the data region, and its redirect flag says whether
    /// the next record's pc is anything but the fall-through.
    #[test]
    fn wrong_path_records_decode_against_the_text(
        program in arb_branchy_program(),
        budget in 1usize..96,
    ) {
        let (p, trips) = program;
        let replica = BimodalReplica { counters: [1; 64], budget };
        let mut q = InstrQueue::new(Emulator::new(p.clone()).unwrap(), replica, 16)
            .with_fault_policy(FaultPolicy::SquashWrongPath);
        let mut bundles = 0;
        while let Some(entry) = q.pop() {
            let Some(bundle) = entry.wrong_path else { continue };
            bundles += 1;
            prop_assert!(bundle.insts.len() <= budget);
            for rec in &bundle.insts {
                let instr = p.instr_at(rec.pc());
                prop_assert!(instr.is_some(), "record pc {:#x} outside the text", rec.pc());
                let instr = instr.unwrap();
                let shape = match *instr {
                    Instr::Load { width, .. } => Some((width.bytes(), false)),
                    Instr::Store { width, .. } => Some((width.bytes(), true)),
                    Instr::FpLoad { .. } => Some((8, false)),
                    Instr::FpStore { .. } => Some((8, true)),
                    _ => None,
                };
                let mem = rec.mem(instr);
                prop_assert_eq!(mem.map(|m| (u64::from(m.size), m.is_store)), shape);
                if let Some(m) = mem {
                    prop_assert!((DATA_BASE..DATA_BASE + 64 * 8).contains(&m.addr));
                    prop_assert_eq!(m.addr % u64::from(m.size), 0);
                }
            }
            for pair in bundle.insts.windows(2) {
                let falls_through = pair[1].pc() == pair[0].pc() + INSTR_BYTES;
                prop_assert_eq!(pair[0].redirected(), !falls_through, "at {:#x}", pair[0].pc());
            }
        }
        prop_assert!(q.fault().is_none());
        // The back edge starts weakly not-taken, so a loop that runs twice
        // mispredicts at least once.
        prop_assert!(trips < 2 || bundles > 0);
    }
}
