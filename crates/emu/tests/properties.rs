//! Property-based tests for the functional emulator: memory model
//! equivalence, execution determinism, wrong-path state isolation,
//! queue/emulator stream coherence, the packed wrong-path records, and
//! lazy wrong-path emulation against the eager reference.

use ffsim_emu::{
    BranchOracle, BranchOutcome, DynInst, Emulator, FaultModel, FollowComputed, FrontendPolicy,
    InstrQueue, Memory, NoFrontendWrongPath, StepError, WrongPathCheckpoint, WrongPathRequest,
};
use ffsim_isa::{Addr, AluOp, BranchCond, FReg, Instr, MemWidth, Program, Reg, INSTR_BYTES};
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

/// A hostile frontend policy: requests a wrong path every `k`-th
/// instruction from a (possibly corrupted) start pc. Used to prove that
/// whatever the wrong path does — fault, run wild, trip the watchdog — the
/// correct-path stream is untouched.
struct InjectEveryK {
    k: u64,
    seen: u64,
    xor_mask: u64,
}

impl FrontendPolicy for InjectEveryK {
    fn on_instruction(&mut self, inst: &DynInst) -> Option<WrongPathRequest> {
        self.seen += 1;
        self.seen
            .is_multiple_of(self.k)
            .then_some(WrongPathRequest {
                start: inst.pc ^ self.xor_mask,
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

/// A table of 2-bit counters steering wrong-path conditional branches by
/// its predictions, so wrong-path fetch both follows and departs from the
/// computed outcomes.
#[derive(Clone)]
struct Bimodal {
    counters: [u8; 64],
}

impl Bimodal {
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

impl BranchOracle for Bimodal {
    fn next_fetch_pc(&mut self, pc: Addr, instr: &Instr, computed: BranchOutcome) -> Option<Addr> {
        match *instr {
            Instr::Branch { target, .. } => Some(self.predicted_next(pc, target)),
            _ => Some(computed.next_pc),
        }
    }
}

/// A branch-predictor replica in miniature: trains its [`Bimodal`] table
/// on the correct path and requests the wrong path at every conditional
/// branch it mispredicts. The frontend runs ahead of the consumer, so it
/// keeps a copy of the table as of each requested branch for steering
/// that wrong path.
struct BimodalReplica {
    table: Bimodal,
    at_requests: VecDeque<Bimodal>,
}

impl FrontendPolicy for BimodalReplica {
    fn on_instruction(&mut self, inst: &DynInst) -> Option<WrongPathRequest> {
        let (Instr::Branch { target, .. }, Some(outcome)) = (inst.instr, inst.branch) else {
            return None;
        };
        let predicted = self.table.predicted_next(inst.pc, target);
        let counter = &mut self.table.counters[Bimodal::slot(inst.pc)];
        *counter = if outcome.taken {
            (*counter + 1).min(3)
        } else {
            counter.saturating_sub(1)
        };
        if predicted == outcome.next_pc {
            return None;
        }
        self.at_requests.push_back(self.table.clone());
        Some(WrongPathRequest { start: predicted })
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

/// Where [`arb_rewind_program`]'s data lives: four words at x30, and four
/// words on each of the [`REWIND_PAGES`] pages after it, which start
/// unmaterialized. So few words that loads often read what a later store
/// overwrote.
const REWIND_PAGES: i64 = 1;

/// A loop of 1–12 iterations (counter in x29) over a body that both loads
/// and overwrites its data: loads and stores of every width at every
/// aligned byte offset of a word (so sub-word stores land over
/// doubleword data and loads see partly rewound words), FP loads and
/// stores, stores and loads on pages nothing touched before (so the
/// correct path materializes pages past a branch), loads whose address
/// comes from loaded data, forward branches on loaded values, and stores
/// right after a branch. A wrong
/// path that read memory as of the wrong instruction would go down a
/// different path or touch different addresses.
fn arb_rewind_program() -> impl Strategy<Value = Program> {
    let reg = || (1u8..29).prop_map(Reg::new);
    let counter = Reg::new(29);
    let src = move || prop_oneof![reg(), Just(counter)];
    let width = || {
        prop_oneof![
            Just(MemWidth::B),
            Just(MemWidth::H),
            Just(MemWidth::W),
            Just(MemWidth::D),
        ]
    };
    let base = Reg::new(30);
    // A naturally aligned offset: word `w` of page `page` (0 = the region
    // at x30), byte `lane` rounded down to the access width.
    let offset = |page: i64, w: i64, lane: i64, bytes: u64| {
        page * 4096 + w * 8 + (lane & !(bytes as i64 - 1))
    };
    let item = prop_oneof![
        (arb_alu_op(), reg(), reg(), reg())
            .prop_map(|(op, rd, rs1, rs2)| vec![(Instr::Alu { op, rd, rs1, rs2 }, 0)]),
        (reg(), -4i64..4).prop_map(|(rd, imm)| vec![(Instr::LoadImm { rd, imm }, 0)]),
        (
            reg(),
            (0i64..REWIND_PAGES + 1, 0i64..4, 0i64..8),
            width(),
            any::<bool>()
        )
            .prop_map(move |(rd, (page, w, lane), width, signed)| {
                let offset = offset(page, w, lane, width.bytes());
                vec![(
                    Instr::Load {
                        rd,
                        base,
                        offset,
                        width,
                        signed,
                    },
                    0,
                )]
            }),
        // Half the stores write the loop counter, so each iteration's
        // store to a word differs from the last.
        (src(), (0i64..REWIND_PAGES + 1, 0i64..4, 0i64..8), width()).prop_map(
            move |(src, (page, w, lane), width)| {
                let offset = offset(page, w, lane, width.bytes());
                vec![(
                    Instr::Store {
                        src,
                        base,
                        offset,
                        width,
                    },
                    0,
                )]
            }
        ),
        (0u8..8, 0i64..4, any::<bool>()).prop_map(move |(f, w, store)| {
            let (f, offset) = (FReg::new(f), w * 8);
            let instr = if store {
                Instr::FpStore {
                    fs: f,
                    base,
                    offset,
                }
            } else {
                Instr::FpLoad {
                    fd: f,
                    base,
                    offset,
                }
            };
            vec![(instr, 0)]
        }),
        // rd = mem[x30 + (8 * mem[x30 + 8w] & 0x18)]: the address is data.
        (reg(), 0i64..4).prop_map(move |(rd, w)| {
            vec![
                (
                    Instr::Load {
                        rd,
                        base,
                        offset: w * 8,
                        width: MemWidth::D,
                        signed: false,
                    },
                    0,
                ),
                (
                    Instr::AluImm {
                        op: AluOp::Sll,
                        rd,
                        rs1: rd,
                        imm: 3,
                    },
                    0,
                ),
                (
                    Instr::AluImm {
                        op: AluOp::And,
                        rd,
                        rs1: rd,
                        imm: 0x18,
                    },
                    0,
                ),
                (
                    Instr::Alu {
                        op: AluOp::Add,
                        rd,
                        rs1: rd,
                        rs2: base,
                    },
                    0,
                ),
                (
                    Instr::Load {
                        rd,
                        base: rd,
                        offset: 0,
                        width: MemWidth::D,
                        signed: false,
                    },
                    0,
                ),
            ]
        }),
        (reg(), src(), 1u64..8).prop_map(|(rs1, rs2, skip)| {
            let branch = Instr::Branch {
                cond: BranchCond::Ltu,
                rs1,
                rs2,
                target: 0,
            };
            vec![(branch, skip)]
        }),
        // A branch over a store of the counter: the store is the first
        // instruction after the branch on one of its paths.
        (reg(), 2u64..8, 0i64..4).prop_map(move |(rs1, skip, w)| {
            let branch = Instr::Branch {
                cond: BranchCond::Ltu,
                rs1,
                rs2: counter,
                target: 0,
            };
            let store = Instr::Store {
                src: counter,
                base,
                offset: w * 8,
                width: MemWidth::D,
            };
            vec![(branch, skip), (store, 0)]
        }),
    ];
    (proptest::collection::vec(item, 1..24), 1i64..13).prop_map(|(body, trips)| {
        let body: Vec<(Instr, u64)> = body.into_iter().flatten().collect();
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
                *target = pc_of((head + i + 1 + skip as usize).min(back_edge));
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
        Program::new(BRANCHY_BASE, instrs)
    })
}

/// Steers wrong-path branches by their computed outcome, except every
/// third, which goes the other way.
struct FlipEveryThird(u32);

impl BranchOracle for FlipEveryThird {
    fn next_fetch_pc(&mut self, pc: Addr, instr: &Instr, computed: BranchOutcome) -> Option<Addr> {
        let Instr::Branch { target, .. } = *instr else {
            return Some(computed.next_pc);
        };
        self.0 += 1;
        if self.0.is_multiple_of(3) {
            Some(if computed.taken {
                pc + INSTR_BYTES
            } else {
                target
            })
        } else {
            Some(computed.next_pc)
        }
    }
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
        let emu = Emulator::new(p.clone()).unwrap();
        let bundle = emu.emulate_wrong_path(p.entry(), budget, &mut FollowComputed);
        prop_assert!(bundle.insts.len() <= budget);
    }

    /// Squash invariance: emulating wrong paths at random points — with
    /// corrupted start pcs, a strict fault model, and a tiny watchdog —
    /// never changes the correct-path stream or the final architectural
    /// state.
    #[test]
    fn wrong_path_fault_injection_is_squashed(
        p in arb_program(),
        k in 1u64..8,
        xor_mask in prop_oneof![Just(0u64), Just(8), Just(0x40), Just(0xffff_0000)],
        budget in 1usize..48,
        watchdog in 1u64..32,
    ) {
        let mut emu = Emulator::new(p.clone()).unwrap();
        emu.set_store_log(true);
        // A strict fault model bounding data accesses to just past the
        // program's 64-word data region, so wild wrong paths fault readily.
        // (trap_div_zero stays off: it would also trap the *correct* path,
        // which arb_program allows to divide by zero.)
        emu.set_fault_model(FaultModel {
            trap_div_zero: false,
            addr_limit: Some(0x10_0000 + 64 * 8),
        });
        let mut injected = InstrQueue::new(emu, InjectEveryK { k, seen: 0, xor_mask }, 32);
        let mut clean = InstrQueue::new(
            Emulator::new(p).unwrap(),
            NoFrontendWrongPath,
            32,
        );
        loop {
            match (injected.pop(), clean.pop()) {
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.inst, b.inst);
                    if let Some(cp) = &a.wrong_path {
                        let stream = injected.emulator().wrong_path_stream(
                            a.inst.seq, cp, budget, Some(watchdog), FollowComputed);
                        prop_assert!(stream.count() <= budget);
                    }
                }
                (None, None) => break,
                (a, b) => prop_assert!(false, "stream divergence: {a:?} vs {b:?}"),
            }
        }
        prop_assert!(injected.fault().is_none(), "wrong paths never end the stream");
        prop_assert_eq!(injected.emulator().digest(), clean.emulator().digest());
    }

    /// Every packed record of a replica-driven wrong path decodes against
    /// the program text: its pc holds an instruction, `mem` is present
    /// exactly for loads and stores with the instruction's size and kind
    /// at an address inside the data region, and its redirect flag says
    /// whether the next record's pc is anything but the fall-through.
    #[test]
    fn wrong_path_records_decode_against_the_text(
        program in arb_branchy_program(),
        budget in 1usize..96,
    ) {
        let (p, trips) = program;
        let replica = BimodalReplica {
            table: Bimodal { counters: [1; 64] },
            at_requests: VecDeque::new(),
        };
        let mut emu = Emulator::new(p.clone()).unwrap();
        emu.set_store_log(true);
        let mut q = InstrQueue::new(emu, replica, 16);
        let mut wrong_paths = 0;
        while let Some(entry) = q.pop() {
            let Some(cp) = &entry.wrong_path else { continue };
            wrong_paths += 1;
            let steer = q.policy_mut().at_requests.pop_front().expect("one table per request");
            let records: Vec<_> = q
                .emulator()
                .wrong_path_stream(entry.inst.seq, cp, budget, None, steer)
                .collect();
            prop_assert!(records.len() <= budget);
            for rec in &records {
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
            for pair in records.windows(2) {
                let falls_through = pair[1].pc() == pair[0].pc() + INSTR_BYTES;
                prop_assert_eq!(pair[0].redirected(), !falls_through, "at {:#x}", pair[0].pc());
            }
        }
        prop_assert!(q.fault().is_none());
        // The back edge starts weakly not-taken, so a loop that runs twice
        // mispredicts at least once.
        prop_assert!(trips < 2 || wrong_paths > 0);
    }

    /// Lazy wrong-path emulation is the eager reference, cut short. At
    /// every conditional branch an emulator stopped right after it
    /// emulates the wrong path eagerly; a second one, with its store log
    /// on, has run ahead of the branch by anything from none to more than
    /// a full queue plus a handoff batch (overwriting, with sub-word, FP
    /// and page-materializing stores, the memory the wrong path reads) and
    /// pruned its log through the branch. For any cut point `k` its lazy
    /// stream yields the eager stream's first `k` records, and drained,
    /// the same records and the same stop.
    #[test]
    fn lazy_wrong_path_matches_the_eager_reference(
        p in arb_rewind_program(),
        runahead in proptest::collection::vec(0u64..160, 1..8),
        budget in 1usize..96,
        cut in 0usize..100,
        watchdog in prop_oneof![Just(None), (1u64..64).prop_map(Some)],
    ) {
        let mut reference = Emulator::new(p.clone()).unwrap();
        let mut ahead = Emulator::new(p).unwrap();
        ahead.set_store_log(true);
        let mut runahead = runahead.into_iter().cycle();
        let mut episodes = 0;
        while let Ok(inst) = reference.step() {
            let (Instr::Branch { target, .. }, Some(outcome)) = (inst.instr, inst.branch) else {
                continue;
            };
            let start = if outcome.taken { inst.fallthrough() } else { target };
            let ahead_to = inst.seq + 1 + runahead.next().unwrap_or_default();
            while ahead.instructions_executed() < ahead_to && ahead.step().is_ok() {}
            ahead.prune_store_log(inst.seq);
            let eager = reference.emulate_wrong_path_bounded(
                start, budget, watchdog, &mut FlipEveryThird(0));
            let cp = WrongPathCheckpoint::new(start, reference.state());
            let mut lazy = ahead.wrong_path_stream(
                inst.seq, &cp, budget, watchdog, FlipEveryThird(0));
            let k = cut.min(eager.insts.len());
            let prefix: Vec<_> = lazy.by_ref().take(k).collect();
            prop_assert_eq!(&prefix[..], &eager.insts[..k], "cut at {}", k);
            prop_assert_eq!(lazy.emitted(), k);
            let rest: Vec<_> = lazy.by_ref().collect();
            prop_assert_eq!(&rest[..], &eager.insts[k..]);
            prop_assert_eq!(lazy.stop(), Some(eager.stop));
            episodes += 1;
        }
        prop_assert!(episodes > 0, "the back edge is a conditional branch");
    }
}
