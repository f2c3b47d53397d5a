//! Pure instruction semantics: computes the effects of one instruction
//! against a register state and memory, without committing them.
//!
//! Keeping execution side-effect-free lets the emulator share one semantic
//! core between normal (correct-path) stepping and wrong-path emulation,
//! where stores must be suppressed and control flow follows the branch
//! predictor rather than the computed outcome.

use crate::dyninst::{BranchOutcome, MemAccess};
use crate::mem::MemRead;
use crate::state::ArchState;
use ffsim_isa::{Addr, AluOp, BranchCond, FpCmpOp, FpOp, Instr, INSTR_BYTES};
use std::error::Error;
use std::fmt;

/// Faults raised by instruction execution.
///
/// On the correct path a fault indicates a workload bug and surfaces as a
/// typed error; on the wrong path faults are expected — real speculative
/// execution dereferences garbage pointers and divides by zero all the
/// time — and the [`FaultPolicy`](crate::FaultPolicy) decides whether they
/// squash the speculative stream or abort the run, per the paper (§III-B:
/// "Stores, as well as exceptions, need to be suppressed").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fault {
    /// A memory access that is not naturally aligned.
    Misaligned {
        /// Instruction address.
        pc: Addr,
        /// Offending data address.
        addr: Addr,
    },
    /// The program counter does not address an instruction.
    IllegalPc {
        /// Offending pc.
        pc: Addr,
    },
    /// A memory access beyond the configured address-space bound (see
    /// [`FaultModel::addr_limit`]).
    OutOfRange {
        /// Instruction address.
        pc: Addr,
        /// Offending data address.
        addr: Addr,
    },
    /// Integer division (or remainder) by zero under
    /// [`FaultModel::trap_div_zero`]. With the default model this is not a
    /// fault: RISC-V semantics apply (`x/0 = -1`, `x%0 = x`).
    DivideByZero {
        /// Instruction address.
        pc: Addr,
    },
    /// A wrong path ran past the configured watchdog limit without
    /// terminating (see [`crate::Emulator::emulate_wrong_path_bounded`]).
    WatchdogExceeded {
        /// Wrong-path pc at which the watchdog fired.
        pc: Addr,
        /// The configured limit, in wrong-path instructions.
        limit: u64,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Misaligned { pc, addr } => {
                write!(f, "misaligned access to {addr:#x} at pc {pc:#x}")
            }
            Fault::IllegalPc { pc } => write!(f, "illegal program counter {pc:#x}"),
            Fault::OutOfRange { pc, addr } => {
                write!(f, "out-of-range access to {addr:#x} at pc {pc:#x}")
            }
            Fault::DivideByZero { pc } => write!(f, "integer division by zero at pc {pc:#x}"),
            Fault::WatchdogExceeded { pc, limit } => {
                write!(
                    f,
                    "wrong-path watchdog ({limit} instructions) fired at pc {pc:#x}"
                )
            }
        }
    }
}

impl Error for Fault {}

/// Configurable fault semantics for instruction execution.
///
/// The default model matches the seed simulator: RISC-V division semantics
/// (never faulting) and an unbounded address space. Hardening knobs let
/// the fault-injection harness and strict deployments turn latent
/// wild-address or divide-by-zero behaviour into typed [`Fault`]s.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FaultModel {
    /// Raise [`Fault::DivideByZero`] on integer division/remainder by zero
    /// instead of applying RISC-V semantics.
    pub trap_div_zero: bool,
    /// Raise [`Fault::OutOfRange`] on any data access at or beyond this
    /// address (`None` = full 64-bit space).
    pub addr_limit: Option<Addr>,
}

impl FaultModel {
    /// The permissive model: RISC-V division, unbounded addresses.
    #[must_use]
    pub fn permissive() -> FaultModel {
        FaultModel::default()
    }

    /// Checks a data access of `size` bytes at `addr` against the model.
    fn check_access(&self, pc: Addr, addr: Addr, size: u64) -> Result<(), Fault> {
        if let Some(limit) = self.addr_limit {
            if addr >= limit || addr.saturating_add(size) > limit {
                return Err(Fault::OutOfRange { pc, addr });
            }
        }
        Ok(())
    }
}

/// A pending register write.
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) enum RegWrite {
    Int(ffsim_isa::Reg, u64),
    Fp(ffsim_isa::FReg, f64),
}

/// A pending store (value carried as raw little-endian bits).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct StoreOp {
    pub addr: Addr,
    pub width: u64,
    pub bits: u64,
}

/// The computed effects of one instruction.
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) struct ExecOutcome {
    pub reg_write: Option<RegWrite>,
    pub store: Option<StoreOp>,
    pub mem: Option<MemAccess>,
    pub branch: Option<BranchOutcome>,
    pub next_pc: Addr,
}

fn alu(op: AluOp, a: u64, b: u64) -> u64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Sll => a.wrapping_shl((b & 63) as u32),
        AluOp::Srl => a.wrapping_shr((b & 63) as u32),
        AluOp::Sra => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
        AluOp::Slt => u64::from((a as i64) < (b as i64)),
        AluOp::Sltu => u64::from(a < b),
        AluOp::Mul => a.wrapping_mul(b),
        // RISC-V semantics: x/0 = -1, x%0 = x, MIN/-1 wraps.
        AluOp::Div => {
            let (a, b) = (a as i64, b as i64);
            if b == 0 {
                u64::MAX
            } else {
                a.wrapping_div(b) as u64
            }
        }
        AluOp::Rem => {
            let (a, b) = (a as i64, b as i64);
            if b == 0 {
                a as u64
            } else {
                a.wrapping_rem(b) as u64
            }
        }
    }
}

fn fp_alu(op: FpOp, a: f64, b: f64) -> f64 {
    match op {
        FpOp::Add => a + b,
        FpOp::Sub => a - b,
        FpOp::Mul => a * b,
        FpOp::Div => a / b,
        FpOp::Min => a.min(b),
        FpOp::Max => a.max(b),
    }
}

fn branch_taken(cond: BranchCond, a: u64, b: u64) -> bool {
    match cond {
        BranchCond::Eq => a == b,
        BranchCond::Ne => a != b,
        BranchCond::Lt => (a as i64) < (b as i64),
        BranchCond::Ge => (a as i64) >= (b as i64),
        BranchCond::Ltu => a < b,
        BranchCond::Geu => a >= b,
    }
}

fn check_div(model: &FaultModel, pc: Addr, op: AluOp, divisor: u64) -> Result<(), Fault> {
    if model.trap_div_zero && matches!(op, AluOp::Div | AluOp::Rem) && divisor == 0 {
        return Err(Fault::DivideByZero { pc });
    }
    Ok(())
}

fn sign_extend(value: u64, width_bytes: u64) -> u64 {
    let bits = width_bytes * 8;
    if bits == 64 {
        return value;
    }
    let shift = 64 - bits;
    (((value << shift) as i64) >> shift) as u64
}

/// Executes `instr` at `pc`, reading `state` and `mem`, without mutating
/// either. The caller decides which effects to commit. `model` selects
/// which conditions fault (see [`FaultModel`]). Generic over the memory
/// view, so the correct path's instance reads [`Memory`](crate::Memory)
/// directly.
// Each instance has one caller, the per-instruction loop of the correct
// path or of a wrong-path stream; left to itself the compiler calls it
// out of line, which costs the correct-path handoff about a fifth of its
// throughput (the `handoff` bench).
#[inline(always)]
pub(crate) fn execute<M: MemRead>(
    state: &ArchState,
    mem: &M,
    pc: Addr,
    instr: &Instr,
    model: &FaultModel,
) -> Result<ExecOutcome, Fault> {
    let fallthrough = pc + INSTR_BYTES;
    let mut out = ExecOutcome {
        reg_write: None,
        store: None,
        mem: None,
        branch: None,
        next_pc: fallthrough,
    };
    match *instr {
        Instr::Alu { op, rd, rs1, rs2 } => {
            let b = state.reg(rs2);
            check_div(model, pc, op, b)?;
            out.reg_write = Some(RegWrite::Int(rd, alu(op, state.reg(rs1), b)));
        }
        Instr::AluImm { op, rd, rs1, imm } => {
            check_div(model, pc, op, imm as u64)?;
            out.reg_write = Some(RegWrite::Int(rd, alu(op, state.reg(rs1), imm as u64)));
        }
        Instr::LoadImm { rd, imm } => {
            out.reg_write = Some(RegWrite::Int(rd, imm as u64));
        }
        Instr::Load {
            rd,
            base,
            offset,
            width,
            signed,
        } => {
            let addr = state.reg(base).wrapping_add(offset as u64);
            let size = width.bytes();
            if !addr.is_multiple_of(size) {
                return Err(Fault::Misaligned { pc, addr });
            }
            model.check_access(pc, addr, size)?;
            let raw = mem.read_uint(addr, size);
            let value = if signed { sign_extend(raw, size) } else { raw };
            out.reg_write = Some(RegWrite::Int(rd, value));
            out.mem = Some(MemAccess {
                addr,
                size: size as u8,
                is_store: false,
            });
        }
        Instr::Store {
            src,
            base,
            offset,
            width,
        } => {
            let addr = state.reg(base).wrapping_add(offset as u64);
            let size = width.bytes();
            if !addr.is_multiple_of(size) {
                return Err(Fault::Misaligned { pc, addr });
            }
            model.check_access(pc, addr, size)?;
            out.store = Some(StoreOp {
                addr,
                width: size,
                bits: state.reg(src),
            });
            out.mem = Some(MemAccess {
                addr,
                size: size as u8,
                is_store: true,
            });
        }
        Instr::FpAlu { op, fd, fs1, fs2 } => {
            out.reg_write = Some(RegWrite::Fp(
                fd,
                fp_alu(op, state.freg(fs1), state.freg(fs2)),
            ));
        }
        Instr::FpLoad { fd, base, offset } => {
            let addr = state.reg(base).wrapping_add(offset as u64);
            if !addr.is_multiple_of(8) {
                return Err(Fault::Misaligned { pc, addr });
            }
            model.check_access(pc, addr, 8)?;
            out.reg_write = Some(RegWrite::Fp(fd, mem.read_f64(addr)));
            out.mem = Some(MemAccess {
                addr,
                size: 8,
                is_store: false,
            });
        }
        Instr::FpStore { fs, base, offset } => {
            let addr = state.reg(base).wrapping_add(offset as u64);
            if !addr.is_multiple_of(8) {
                return Err(Fault::Misaligned { pc, addr });
            }
            model.check_access(pc, addr, 8)?;
            out.store = Some(StoreOp {
                addr,
                width: 8,
                bits: state.freg(fs).to_bits(),
            });
            out.mem = Some(MemAccess {
                addr,
                size: 8,
                is_store: true,
            });
        }
        Instr::FpCmp { op, rd, fs1, fs2 } => {
            let (a, b) = (state.freg(fs1), state.freg(fs2));
            let v = match op {
                FpCmpOp::Eq => a == b,
                FpCmpOp::Lt => a < b,
                FpCmpOp::Le => a <= b,
            };
            out.reg_write = Some(RegWrite::Int(rd, u64::from(v)));
        }
        Instr::IntToFp { fd, rs } => {
            out.reg_write = Some(RegWrite::Fp(fd, state.reg(rs) as i64 as f64));
        }
        Instr::FpToInt { rd, fs } => {
            out.reg_write = Some(RegWrite::Int(rd, state.freg(fs) as i64 as u64));
        }
        Instr::Branch {
            cond,
            rs1,
            rs2,
            target,
        } => {
            let taken = branch_taken(cond, state.reg(rs1), state.reg(rs2));
            let next = if taken { target } else { fallthrough };
            out.branch = Some(BranchOutcome {
                taken,
                next_pc: next,
            });
            out.next_pc = next;
        }
        Instr::Jal { rd, target } => {
            out.reg_write = Some(RegWrite::Int(rd, fallthrough));
            out.branch = Some(BranchOutcome {
                taken: true,
                next_pc: target,
            });
            out.next_pc = target;
        }
        Instr::Jalr { rd, base, offset } => {
            let target = state.reg(base).wrapping_add(offset as u64) & !(INSTR_BYTES - 1);
            out.reg_write = Some(RegWrite::Int(rd, fallthrough));
            out.branch = Some(BranchOutcome {
                taken: true,
                next_pc: target,
            });
            out.next_pc = target;
        }
        Instr::Nop => {}
        Instr::Halt => {
            out.next_pc = pc;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::Memory;
    use ffsim_isa::{FReg, MemWidth, Reg};

    fn setup() -> (ArchState, Memory) {
        (ArchState::new(0x1000), Memory::new())
    }

    #[test]
    fn alu_semantics() {
        assert_eq!(alu(AluOp::Add, u64::MAX, 1), 0);
        assert_eq!(alu(AluOp::Sub, 0, 1), u64::MAX);
        assert_eq!(alu(AluOp::Slt, (-1i64) as u64, 1), 1);
        assert_eq!(alu(AluOp::Sltu, (-1i64) as u64, 1), 0);
        assert_eq!(alu(AluOp::Sra, (-8i64) as u64, 1), (-4i64) as u64);
        assert_eq!(alu(AluOp::Srl, 8, 1), 4);
        assert_eq!(alu(AluOp::Div, 7, 0), u64::MAX, "div by zero is -1");
        assert_eq!(alu(AluOp::Rem, 7, 0), 7, "rem by zero is dividend");
        assert_eq!(
            alu(AluOp::Div, i64::MIN as u64, (-1i64) as u64),
            i64::MIN as u64,
            "overflowing division wraps"
        );
        assert_eq!(alu(AluOp::Sll, 1, 64), 1, "shift amount masked to 6 bits");
    }

    #[test]
    fn sign_extension() {
        assert_eq!(sign_extend(0xff, 1), u64::MAX);
        assert_eq!(sign_extend(0x7f, 1), 0x7f);
        assert_eq!(sign_extend(0xffff_ffff, 4), u64::MAX);
        assert_eq!(sign_extend(0x8000, 2), 0xffff_ffff_ffff_8000);
    }

    #[test]
    fn load_sign_and_zero_extend() {
        let (mut s, mut m) = setup();
        s.set_reg(Reg::new(1), 0x100);
        m.write_u32(0x100, 0xffff_fff6); // -10 as i32
        let signed = Instr::Load {
            rd: Reg::new(2),
            base: Reg::new(1),
            offset: 0,
            width: MemWidth::W,
            signed: true,
        };
        let out = execute(&s, &m, 0x1000, &signed, &FaultModel::default()).unwrap();
        assert_eq!(
            out.reg_write,
            Some(RegWrite::Int(Reg::new(2), (-10i64) as u64))
        );
        let unsigned = Instr::Load {
            rd: Reg::new(2),
            base: Reg::new(1),
            offset: 0,
            width: MemWidth::W,
            signed: false,
        };
        let out = execute(&s, &m, 0x1000, &unsigned, &FaultModel::default()).unwrap();
        assert_eq!(out.reg_write, Some(RegWrite::Int(Reg::new(2), 0xffff_fff6)));
    }

    #[test]
    fn misaligned_access_faults() {
        let (mut s, m) = setup();
        s.set_reg(Reg::new(1), 0x101);
        let ld = Instr::Load {
            rd: Reg::new(2),
            base: Reg::new(1),
            offset: 0,
            width: MemWidth::D,
            signed: true,
        };
        assert_eq!(
            execute(&s, &m, 0x1000, &ld, &FaultModel::default()),
            Err(Fault::Misaligned {
                pc: 0x1000,
                addr: 0x101
            })
        );
    }

    #[test]
    fn branch_outcomes() {
        let (mut s, m) = setup();
        s.set_reg(Reg::new(1), 5);
        s.set_reg(Reg::new(2), 5);
        let b = Instr::Branch {
            cond: BranchCond::Eq,
            rs1: Reg::new(1),
            rs2: Reg::new(2),
            target: 0x2000,
        };
        let out = execute(&s, &m, 0x1000, &b, &FaultModel::default()).unwrap();
        assert_eq!(out.next_pc, 0x2000);
        assert_eq!(
            out.branch,
            Some(BranchOutcome {
                taken: true,
                next_pc: 0x2000
            })
        );
        s.set_reg(Reg::new(2), 6);
        let out = execute(&s, &m, 0x1000, &b, &FaultModel::default()).unwrap();
        assert_eq!(out.next_pc, 0x1004);
        assert!(!out.branch.unwrap().taken);
    }

    #[test]
    fn jalr_aligns_target_and_links() {
        let (mut s, m) = setup();
        s.set_reg(Reg::new(5), 0x2003);
        let j = Instr::Jalr {
            rd: Reg::new(1),
            base: Reg::new(5),
            offset: 0,
        };
        let out = execute(&s, &m, 0x1000, &j, &FaultModel::default()).unwrap();
        assert_eq!(out.next_pc, 0x2000);
        assert_eq!(out.reg_write, Some(RegWrite::Int(Reg::new(1), 0x1004)));
    }

    #[test]
    fn store_effects_not_applied_by_execute() {
        let (mut s, m) = setup();
        s.set_reg(Reg::new(1), 0x100);
        s.set_reg(Reg::new(2), 77);
        let st = Instr::Store {
            src: Reg::new(2),
            base: Reg::new(1),
            offset: 0,
            width: MemWidth::D,
        };
        let out = execute(&s, &m, 0x1000, &st, &FaultModel::default()).unwrap();
        assert_eq!(
            out.store,
            Some(StoreOp {
                addr: 0x100,
                width: 8,
                bits: 77
            })
        );
        assert_eq!(m.read_u64(0x100), 0, "execute() must not mutate memory");
        assert!(out.mem.unwrap().is_store);
    }

    #[test]
    fn fp_ops_and_conversions() {
        let (mut s, m) = setup();
        s.set_freg(FReg::new(1), 1.5);
        s.set_freg(FReg::new(2), 2.0);
        let f = Instr::FpAlu {
            op: FpOp::Mul,
            fd: FReg::new(0),
            fs1: FReg::new(1),
            fs2: FReg::new(2),
        };
        let out = execute(&s, &m, 0x1000, &f, &FaultModel::default()).unwrap();
        assert_eq!(out.reg_write, Some(RegWrite::Fp(FReg::new(0), 3.0)));

        s.set_reg(Reg::new(3), (-7i64) as u64);
        let cvt = Instr::IntToFp {
            fd: FReg::new(3),
            rs: Reg::new(3),
        };
        let out = execute(&s, &m, 0x1000, &cvt, &FaultModel::default()).unwrap();
        assert_eq!(out.reg_write, Some(RegWrite::Fp(FReg::new(3), -7.0)));

        s.set_freg(FReg::new(4), -2.9);
        let cvt2 = Instr::FpToInt {
            rd: Reg::new(4),
            fs: FReg::new(4),
        };
        let out = execute(&s, &m, 0x1000, &cvt2, &FaultModel::default()).unwrap();
        assert_eq!(
            out.reg_write,
            Some(RegWrite::Int(Reg::new(4), (-2i64) as u64)),
            "fp→int truncates toward zero"
        );
    }

    #[test]
    fn div_by_zero_traps_only_when_enabled() {
        let (mut s, m) = setup();
        s.set_reg(Reg::new(1), 7);
        let div = Instr::Alu {
            op: AluOp::Div,
            rd: Reg::new(2),
            rs1: Reg::new(1),
            rs2: Reg::new(3), // x3 = 0
        };
        let out = execute(&s, &m, 0x1000, &div, &FaultModel::default()).unwrap();
        assert_eq!(out.reg_write, Some(RegWrite::Int(Reg::new(2), u64::MAX)));
        let strict = FaultModel {
            trap_div_zero: true,
            ..FaultModel::default()
        };
        assert_eq!(
            execute(&s, &m, 0x1000, &div, &strict),
            Err(Fault::DivideByZero { pc: 0x1000 })
        );
        // Mul with a zero operand must not trap.
        let mul = Instr::Alu {
            op: AluOp::Mul,
            rd: Reg::new(2),
            rs1: Reg::new(1),
            rs2: Reg::new(3),
        };
        assert!(execute(&s, &m, 0x1000, &mul, &strict).is_ok());
    }

    #[test]
    fn addr_limit_bounds_data_accesses() {
        let (mut s, m) = setup();
        let model = FaultModel {
            addr_limit: Some(0x200),
            ..FaultModel::default()
        };
        s.set_reg(Reg::new(1), 0x1f8);
        let ld = Instr::Load {
            rd: Reg::new(2),
            base: Reg::new(1),
            offset: 0,
            width: MemWidth::D,
            signed: false,
        };
        assert!(
            execute(&s, &m, 0x1000, &ld, &model).is_ok(),
            "last in-bounds dword"
        );
        s.set_reg(Reg::new(1), 0x200);
        assert_eq!(
            execute(&s, &m, 0x1000, &ld, &model),
            Err(Fault::OutOfRange {
                pc: 0x1000,
                addr: 0x200
            })
        );
        // Straddling the limit faults too.
        s.set_reg(Reg::new(1), 0x1fc);
        let ld_w = Instr::Load {
            rd: Reg::new(2),
            base: Reg::new(1),
            offset: 0,
            width: MemWidth::W,
            signed: false,
        };
        assert!(execute(&s, &m, 0x1000, &ld_w, &model).is_ok());
        let st = Instr::Store {
            src: Reg::new(2),
            base: Reg::new(1),
            offset: 8,
            width: MemWidth::W,
        };
        assert_eq!(
            execute(&s, &m, 0x1000, &st, &model),
            Err(Fault::OutOfRange {
                pc: 0x1000,
                addr: 0x204
            })
        );
    }

    #[test]
    fn halt_points_at_itself() {
        let (s, m) = setup();
        let out = execute(&s, &m, 0x1000, &Instr::Halt, &FaultModel::default()).unwrap();
        assert_eq!(out.next_pc, 0x1000);
    }
}
