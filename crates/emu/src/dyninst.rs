//! Dynamic instruction records — the payload flowing from the functional
//! simulator to the performance simulator.
//!
//! A [`DynInst`] carries everything the timing model needs about one
//! executed instruction: its address and decoded form, the data memory
//! access it performed (if any), and the actual control-flow outcome for
//! branches. This is the functional-first contract described in §II of the
//! paper: "instruction address, disassembled instruction, memory addresses".
//!
//! A wrong-path instruction, however it was produced (reconstructed from
//! the code cache, emulated, or given addresses by convergence), travels
//! as a [`WpInst`]: the fields of a [`DynInst`] less the sequence number
//! and the resolved branch outcome, which only the correct path has.

use crate::cancel::CancelCause;
use crate::exec::Fault;
use crate::state::ArchState;
use ffsim_isa::{Addr, BranchKind, ExecClass, Instr, Operands};

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

/// One wrong-path instruction, as the timing model is fed it.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct WpInst {
    /// Instruction address.
    pub pc: Addr,
    /// The decoded instruction.
    pub instr: Instr,
    /// Data memory access, if known. Emulation knows every one;
    /// reconstruction knows none, and convergence recovers some.
    pub mem: Option<MemAccess>,
    /// The next wrong-path fetch pc actually followed.
    pub next_pc: Addr,
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
    pub insts: [WpInst; 0],
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
    pub insts: Vec<WpInst>,
    /// Why generation stopped.
    pub stop: WrongPathStop,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsim_isa::{AluOp, Instr, Reg};

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
