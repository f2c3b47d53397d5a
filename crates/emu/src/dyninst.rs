//! Dynamic instruction records — the payload flowing from the functional
//! simulator to the performance simulator.
//!
//! A [`DynInst`] carries everything the timing model needs about one
//! executed instruction: its address and decoded form, the data memory
//! access it performed (if any), and the actual control-flow outcome for
//! branches. This is the functional-first contract described in §II of the
//! paper: "instruction address, disassembled instruction, memory addresses".
//!
//! Emulated wrong-path instructions travel as [`WpRecord`]s instead: a
//! 16-byte record of what the program text cannot give back.

use crate::cancel::CancelCause;
use crate::exec::Fault;
use crate::state::ArchState;
use ffsim_isa::{Addr, BranchKind, ExecClass, Instr, Operands, INSTR_BYTES};

/// A data-memory access performed by an instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemAccess {
    /// Byte address of the access.
    pub addr: Addr,
    /// Access size in bytes.
    pub size: u8,
    /// Whether the access is a store.
    pub is_store: bool,
}

impl MemAccess {
    /// The access `instr` makes at `addr`, or `None` if it is not a load or
    /// store. Size and load/store kind are static properties of the
    /// instruction; only the address is dynamic.
    #[must_use]
    pub(crate) fn of(instr: &Instr, addr: Addr) -> Option<MemAccess> {
        let (size, is_store) = match *instr {
            Instr::Load { width, .. } => (width.bytes(), false),
            Instr::Store { width, .. } => (width.bytes(), true),
            Instr::FpLoad { .. } => (8, false),
            Instr::FpStore { .. } => (8, true),
            _ => return None,
        };
        Some(MemAccess {
            addr,
            size: size as u8,
            is_store,
        })
    }
}

/// The resolved outcome of a control-flow instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BranchOutcome {
    /// Whether the branch was taken (always true for jumps).
    pub taken: bool,
    /// The instruction's actual successor pc (target if taken, fall-through
    /// otherwise).
    pub next_pc: Addr,
}

/// One correct-path instruction executed by the functional simulator.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct DynInst {
    /// Program-order sequence number assigned by the functional simulator.
    pub seq: u64,
    /// Address of the instruction.
    pub pc: Addr,
    /// The decoded instruction.
    pub instr: Instr,
    /// The data memory access, if the instruction is a load or store.
    pub mem: Option<MemAccess>,
    /// The control-flow outcome, if the instruction is a branch/jump.
    pub branch: Option<BranchOutcome>,
    /// The pc of the next instruction in the executed path.
    pub next_pc: Addr,
}

impl DynInst {
    /// The µop execution class (delegates to the decoded instruction).
    #[must_use]
    pub fn exec_class(&self) -> ExecClass {
        self.instr.exec_class()
    }

    /// The branch kind, if this is a control-flow instruction.
    #[must_use]
    pub fn branch_kind(&self) -> Option<BranchKind> {
        self.instr.branch_kind()
    }

    /// The static register operands.
    #[must_use]
    pub fn operands(&self) -> Operands {
        self.instr.operands()
    }

    /// Whether this is a load with a known address.
    #[must_use]
    pub fn is_load_with_addr(&self) -> bool {
        self.mem.is_some_and(|m| !m.is_store)
    }

    /// The fall-through pc (`pc + 4`).
    #[must_use]
    pub fn fallthrough(&self) -> Addr {
        self.pc + ffsim_isa::INSTR_BYTES
    }
}

/// One functionally emulated wrong-path instruction, packed into 16 bytes.
///
/// A record keeps only what the program text cannot give back: the pc and
/// the data address. The instruction, the access size and the load/store
/// kind are re-read from the program at injection ([`WpRecord::mem`]).
/// Instruction addresses are 4-byte aligned, so the pc's low bits are
/// always zero; bit 0 carries the "fetch redirected" flag.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WpRecord {
    /// The pc, with [`REDIRECTED`] in its alignment bits.
    pc_flags: Addr,
    /// The data address; zero unless the instruction is a load or store.
    addr: Addr,
}

/// Flag bit in [`WpRecord::pc_flags`]: fetch did not continue at `pc + 4`.
const REDIRECTED: Addr = 1;

impl WpRecord {
    /// Packs the instruction at `pc`, its data access `mem`, and the pc
    /// fetch followed after it, `next_pc`.
    #[must_use]
    pub fn new(pc: Addr, mem: Option<MemAccess>, next_pc: Addr) -> WpRecord {
        debug_assert!(pc.is_multiple_of(INSTR_BYTES), "unaligned pc {pc:#x}");
        let redirected = next_pc != pc.wrapping_add(INSTR_BYTES);
        WpRecord {
            pc_flags: pc | Addr::from(redirected),
            addr: mem.map_or(0, |m| m.addr),
        }
    }

    /// Address of the instruction.
    #[must_use]
    pub fn pc(self) -> Addr {
        self.pc_flags & !REDIRECTED
    }

    /// Whether fetch was redirected after this instruction (a taken
    /// branch or jump), rather than falling through to `pc + 4`.
    #[must_use]
    pub fn redirected(self) -> bool {
        self.pc_flags & REDIRECTED != 0
    }

    /// The data access of this record, given its instruction `instr` as
    /// decoded from the program text at [`WpRecord::pc`].
    #[must_use]
    pub fn mem(self, instr: &Instr) -> Option<MemAccess> {
        MemAccess::of(instr, self.addr)
    }
}

/// Why wrong-path generation stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WrongPathStop {
    /// The per-misprediction instruction budget (ROB size plus frontend
    /// buffers, per the paper) was exhausted.
    BudgetExhausted,
    /// Execution left the program text (wild indirect target, fall-through
    /// off the image) — the analogue of Pin hitting kernel code or an
    /// unmapped region.
    IllegalPc(Addr),
    /// A fault occurred on the wrong path (e.g. misaligned access); faults
    /// must be suppressed, so generation stops. The
    /// [`FaultPolicy`](crate::FaultPolicy) decides whether the fault is
    /// squashed with the wrong path or aborts the run.
    Fault(Fault),
    /// The wrong path ran for `limit` instructions without terminating and
    /// the watchdog fired (see [`crate::Emulator::emulate_wrong_path_bounded`]);
    /// the pc is where emulation was cut off.
    WatchdogExceeded {
        /// Wrong-path pc at which the watchdog fired.
        pc: Addr,
        /// The configured limit, in wrong-path instructions.
        limit: u64,
    },
    /// The wrong path reached a `halt` (the syscall analogue — emulation
    /// cannot continue past it).
    Halt,
    /// The branch-direction oracle declined to predict (e.g. indirect
    /// branch without a target in the predictor).
    OracleStop,
    /// The run's [`CancelToken`](crate::CancelToken) fired mid-emulation;
    /// the run ends cooperatively.
    Cancelled(CancelCause),
}

/// What to do when a fault (or watchdog trip) occurs during *wrong-path*
/// emulation.
///
/// Correct-path faults always terminate the stream and surface as a typed
/// error — they indicate a workload bug. Wrong-path faults are a normal
/// consequence of speculation; the default mirrors hardware, which squashes
/// the speculative work and carries on.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FaultPolicy {
    /// End the wrong path at the fault, keep the prefix already fetched
    /// (the timing model plays it and squashes it, as hardware would), count
    /// the event, and resume the correct path. The default.
    #[default]
    SquashWrongPath,
    /// Treat any wrong-path fault as fatal: end the run and report the
    /// fault. Useful for debugging workloads.
    AbortRun,
}

/// Counters for wrong-path fault handling under
/// [`FaultPolicy::SquashWrongPath`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WrongPathFaultStats {
    /// Wrong paths that ended in a fault and were squashed.
    pub squashed_faults: u64,
    /// Wrong paths cut off by the watchdog.
    pub watchdog_trips: u64,
    /// Wrong paths that ran off the program text (wild fetch address).
    /// Counted under either policy: leaving the text is normal speculative
    /// behaviour, not a fault.
    pub illegal_pc_stops: u64,
}

/// What the functional frontend keeps for a branch its predictor replica
/// predicts mispredicted: the checkpoint the wrong path is later emulated
/// from, lazily, as far as the timing model fetches it (see
/// [`crate::Emulator::wrong_path_stream`]). Memory is not copied: the
/// frontend's store log rewinds it to the branch.
#[derive(Clone, PartialEq, Debug)]
pub struct WrongPathCheckpoint {
    /// First wrong-path pc.
    pub start: Addr,
    /// The architectural registers right after the branch executed.
    pub state: Box<ArchState>,
    /// Always empty: wrong paths are no longer emulated into the entry.
    /// Kept only so code that counted the records of the former eager
    /// bundle still compiles.
    pub insts: [WpRecord; 0],
}

impl WrongPathCheckpoint {
    /// A checkpoint of `state` for a wrong path starting at `start`.
    #[must_use]
    pub fn new(start: Addr, state: &ArchState) -> WrongPathCheckpoint {
        WrongPathCheckpoint {
            start,
            state: Box::new(state.clone()),
            insts: [],
        }
    }
}

/// A wrong path emulated eagerly to its end, produced by
/// [`crate::Emulator::emulate_wrong_path`].
#[derive(Clone, PartialEq, Debug)]
pub struct WrongPathBundle {
    /// The wrong-path instructions in fetch order, with functionally
    /// emulated memory addresses (stores suppressed).
    pub insts: Vec<WpRecord>,
    /// Why generation stopped.
    pub stop: WrongPathStop,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsim_isa::{AluOp, BranchCond, FReg, Instr, MemWidth, Reg, DEFAULT_TEXT_BASE};

    /// A pc at the default text base, one at a high aligned base, and the
    /// highest aligned pc, whose fall-through wraps to zero.
    const PCS: [Addr; 3] = [
        DEFAULT_TEXT_BASE,
        0xffff_ffff_ffff_f000,
        Addr::MAX & !(INSTR_BYTES - 1),
    ];

    /// Every load and store shape (each integer width, and FP) with the
    /// size and store flag its access must report.
    fn mem_instrs() -> Vec<(Instr, u8, bool)> {
        let (r, base) = (Reg::new(1), Reg::new(2));
        let mut out = Vec::new();
        for (width, size) in [
            (MemWidth::B, 1),
            (MemWidth::H, 2),
            (MemWidth::W, 4),
            (MemWidth::D, 8),
        ] {
            for signed in [true, false] {
                let load = Instr::Load {
                    rd: r,
                    base,
                    offset: -8,
                    width,
                    signed,
                };
                out.push((load, size, false));
            }
            let store = Instr::Store {
                src: r,
                base,
                offset: 16,
                width,
            };
            out.push((store, size, true));
        }
        let (f, offset) = (FReg::new(3), 8);
        out.push((
            Instr::FpLoad {
                fd: f,
                base,
                offset,
            },
            8,
            false,
        ));
        out.push((
            Instr::FpStore {
                fs: f,
                base,
                offset,
            },
            8,
            true,
        ));
        out
    }

    #[test]
    fn wp_record_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<WpRecord>(), 16);
    }

    #[test]
    fn wp_record_round_trips_loads_and_stores() {
        for pc in PCS {
            for (instr, size, is_store) in mem_instrs() {
                for addr in [0, 0x80, 0xffff_ffff_ffff_fff8] {
                    let access = MemAccess {
                        addr,
                        size,
                        is_store,
                    };
                    let rec = WpRecord::new(pc, Some(access), pc.wrapping_add(INSTR_BYTES));
                    assert_eq!(rec.pc(), pc);
                    assert!(!rec.redirected());
                    assert_eq!(rec.mem(&instr), Some(access), "{instr} at {pc:#x}");
                    assert_eq!(MemAccess::of(&instr, addr), Some(access));
                }
            }
        }
    }

    #[test]
    fn wp_record_without_access_decodes_none() {
        let add = Instr::Alu {
            op: AluOp::Add,
            rd: Reg::new(1),
            rs1: Reg::new(2),
            rs2: Reg::new(3),
        };
        for pc in PCS {
            let rec = WpRecord::new(pc, None, pc.wrapping_add(INSTR_BYTES));
            assert_eq!(rec.pc(), pc);
            assert!(!rec.redirected());
            assert_eq!(rec.mem(&add), None);
            assert_eq!(rec.mem(&Instr::Nop), None);
        }
    }

    #[test]
    fn wp_record_keeps_branch_redirects() {
        for pc in PCS {
            let branch = Instr::Branch {
                cond: BranchCond::Ne,
                rs1: Reg::new(1),
                rs2: Reg::new(0),
                target: pc.wrapping_sub(0x40),
            };
            let taken = WpRecord::new(pc, None, pc.wrapping_sub(0x40));
            assert_eq!(taken.pc(), pc);
            assert!(taken.redirected(), "taken branch at {pc:#x}");
            assert_eq!(taken.mem(&branch), None);
            let fallthrough = WpRecord::new(pc, None, pc.wrapping_add(INSTR_BYTES));
            assert_eq!(fallthrough.pc(), pc);
            assert!(!fallthrough.redirected(), "fall-through at {pc:#x}");
        }
    }

    fn mk(instr: Instr) -> DynInst {
        DynInst {
            seq: 0,
            pc: 0x1000,
            instr,
            mem: None,
            branch: None,
            next_pc: 0x1004,
        }
    }

    #[test]
    fn fallthrough_is_pc_plus_4() {
        let d = mk(Instr::Nop);
        assert_eq!(d.fallthrough(), 0x1004);
    }

    #[test]
    fn load_with_addr_detection() {
        let mut d = mk(Instr::Load {
            rd: Reg::new(1),
            base: Reg::new(2),
            offset: 0,
            width: ffsim_isa::MemWidth::D,
            signed: true,
        });
        assert!(!d.is_load_with_addr());
        d.mem = Some(MemAccess {
            addr: 0x80,
            size: 8,
            is_store: false,
        });
        assert!(d.is_load_with_addr());
        d.mem = Some(MemAccess {
            addr: 0x80,
            size: 8,
            is_store: true,
        });
        assert!(!d.is_load_with_addr());
    }

    #[test]
    fn delegation_to_instr() {
        let d = mk(Instr::Alu {
            op: AluOp::Add,
            rd: Reg::new(1),
            rs1: Reg::new(2),
            rs2: Reg::new(3),
        });
        assert_eq!(d.exec_class(), ffsim_isa::ExecClass::IntAlu);
        assert_eq!(d.branch_kind(), None);
        assert_eq!(d.operands().src_iter().count(), 2);
    }
}
