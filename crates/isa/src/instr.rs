//! Instruction definitions, operand extraction and disassembly.
//!
//! The ISA is a compact 64-bit RISC: integer ALU/multiply/divide, IEEE-754
//! double-precision floating point, sized loads and stores, conditional
//! branches, and direct/indirect jumps with an optional link register. It is
//! deliberately small — a functional-first performance simulator only needs
//! the dynamic stream of *instruction effects* (see the paper, §II) — but it
//! is complete enough to express real kernels (graph analytics, sorting,
//! hashing, streaming FP) with realistic control flow and memory behaviour.

use crate::reg::{ArchReg, FReg, Reg};
use std::fmt;

/// A byte address in the simulated machine (code or data).
pub type Addr = u64;

/// Size of one encoded instruction in bytes.
///
/// All instructions occupy one 4-byte slot; the program counter advances by
/// `INSTR_BYTES` per sequential instruction.
pub const INSTR_BYTES: u64 = 4;

/// Integer ALU operations (register-register and register-immediate forms).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (shift amount masked to 6 bits).
    Sll,
    /// Logical shift right.
    Srl,
    /// Arithmetic shift right.
    Sra,
    /// Set-less-than, signed: `rd = (rs1 < rs2) as u64`.
    Slt,
    /// Set-less-than, unsigned.
    Sltu,
    /// Wrapping multiplication (low 64 bits).
    Mul,
    /// Signed division (division by zero yields all-ones, as on RISC-V).
    Div,
    /// Signed remainder (remainder of division by zero yields the dividend).
    Rem,
}

impl AluOp {
    /// The execution class this operation occupies in the timing model.
    #[inline]
    #[must_use]
    pub fn exec_class(self) -> ExecClass {
        match self {
            AluOp::Mul => ExecClass::IntMul,
            AluOp::Div | AluOp::Rem => ExecClass::IntDiv,
            _ => ExecClass::IntAlu,
        }
    }
}

/// Floating-point ALU operations (double precision).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FpOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Minimum (propagates the non-NaN operand).
    Min,
    /// Maximum (propagates the non-NaN operand).
    Max,
}

impl FpOp {
    /// The execution class this operation occupies in the timing model.
    #[inline]
    #[must_use]
    pub fn exec_class(self) -> ExecClass {
        match self {
            FpOp::Add | FpOp::Sub | FpOp::Min | FpOp::Max => ExecClass::FpAdd,
            FpOp::Mul => ExecClass::FpMul,
            FpOp::Div => ExecClass::FpDiv,
        }
    }
}

/// Floating-point comparison operations, producing 0/1 in an integer register.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FpCmpOp {
    /// Equal.
    Eq,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
}

/// Conditions for conditional branches.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BranchCond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ltu,
    /// Unsigned greater-or-equal.
    Geu,
}

/// Memory access widths.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MemWidth {
    /// 1 byte.
    B,
    /// 2 bytes.
    H,
    /// 4 bytes.
    W,
    /// 8 bytes.
    D,
}

impl MemWidth {
    /// The access size in bytes.
    #[must_use]
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::B => 1,
            MemWidth::H => 2,
            MemWidth::W => 4,
            MemWidth::D => 8,
        }
    }
}

/// Coarse µop classes used by the timing model to pick functional units,
/// latencies and queue resources.
///
/// The discriminants run from 0 in declaration order, so `class as usize`
/// indexes a per-class table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum ExecClass {
    /// Single-cycle integer ALU operation.
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide / remainder (unpipelined).
    IntDiv,
    /// FP add/sub/min/max/compare/convert.
    FpAdd,
    /// FP multiply.
    FpMul,
    /// FP divide (unpipelined).
    FpDiv,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Any control-flow instruction (conditional or unconditional).
    Branch,
}

/// Classification of control-flow instructions, used by the branch
/// predictor (BTB vs. indirect predictor vs. return-address stack).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BranchKind {
    /// Conditional direct branch (taken / not-taken).
    Conditional,
    /// Unconditional direct jump (`jal x0`).
    DirectJump,
    /// Unconditional direct call (`jal` with a link register).
    DirectCall,
    /// Indirect jump through a register (`jalr x0`, not a return).
    Indirect,
    /// Indirect call (`jalr` with a link register).
    IndirectCall,
    /// Function return (`jalr x0, x1, 0` by convention).
    Return,
}

/// The static source/destination operands of an instruction.
///
/// At most two register sources and one register destination exist in this
/// ISA. The hard-wired zero register is never reported, because it carries
/// no dependence.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct Operands {
    /// Source registers (dependences), in operand order.
    pub srcs: [Option<ArchReg>; 2],
    /// Destination register, if the instruction writes one.
    pub dst: Option<ArchReg>,
}

impl Operands {
    #[inline]
    fn new(srcs: &[ArchReg], dst: Option<ArchReg>) -> Operands {
        let mut out = Operands::default();
        let mut n = 0;
        for &s in srcs {
            // x0 is not a dependence; writes to it are discarded.
            if s.as_int().is_some_and(Reg::is_zero) {
                continue;
            }
            out.srcs[n] = Some(s);
            n += 1;
        }
        out.dst = dst.filter(|d| !d.as_int().is_some_and(Reg::is_zero));
        out
    }

    /// Iterates over the (non-zero) source registers.
    #[inline]
    pub fn src_iter(&self) -> impl Iterator<Item = ArchReg> + '_ {
        self.srcs.iter().flatten().copied()
    }
}

/// What the timing model needs of one instruction, in four bytes: its
/// execution class, its source registers and its destination, with the
/// zero register excluded as in [`Operands`].
///
/// This is the paper's code-cache record, "instruction address,
/// instruction type, input and output registers" (§III-A), less the
/// address. [`Program`](crate::Program) decodes one per text slot, so a
/// timing model reads a pc's µop from that table instead of decoding the
/// [`Instr`] again every time the instruction is timed.
///
/// # Examples
///
/// ```
/// use ffsim_isa::{ArchReg, ExecClass, Instr, MemWidth, Reg};
/// let (rd, base) = (Reg::new(3), Reg::new(4));
/// let ld = Instr::Load { rd, base, offset: 8, width: MemWidth::D, signed: false };
/// let uop = ld.uop();
/// assert_eq!(uop.class(), ExecClass::Load);
/// assert!(uop.is_load());
/// assert_eq!(uop.srcs().collect::<Vec<_>>(), [ArchReg::from(base)]);
/// assert_eq!(uop.dst(), Some(ArchReg::from(rd)));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Uop {
    class: ExecClass,
    /// Flat indices of the sources in operand order, then zeros. `x0` is
    /// never a dependence, so its index 0 marks an empty slot.
    srcs: [u8; 2],
    /// Flat index of the destination, or 0 for none.
    dst: u8,
}

impl Uop {
    /// The execution class.
    #[inline]
    #[must_use]
    pub fn class(self) -> ExecClass {
        self.class
    }

    /// The source registers, in operand order (as [`Operands::src_iter`]).
    #[inline]
    pub fn srcs(self) -> impl Iterator<Item = ArchReg> {
        self.srcs.into_iter().filter(|&r| r != 0).map(ArchReg)
    }

    /// The destination register, if the instruction writes one other than
    /// `x0`.
    #[inline]
    #[must_use]
    pub fn dst(self) -> Option<ArchReg> {
        (self.dst != 0).then_some(ArchReg(self.dst))
    }

    /// Whether the instruction reads memory (as [`Instr::is_load`]).
    #[inline]
    #[must_use]
    pub fn is_load(self) -> bool {
        self.class == ExecClass::Load
    }

    /// Whether the instruction writes memory (as [`Instr::is_store`]).
    #[inline]
    #[must_use]
    pub fn is_store(self) -> bool {
        self.class == ExecClass::Store
    }
}

/// One machine instruction.
///
/// Branch and jump targets are stored as resolved absolute addresses — the
/// assembler ([`crate::Asm`]) patches label references during
/// [`crate::Asm::assemble`].
///
/// # Examples
///
/// ```
/// use ffsim_isa::{Instr, AluOp, Reg, ExecClass};
/// let i = Instr::Alu { op: AluOp::Add, rd: Reg::new(3), rs1: Reg::new(1), rs2: Reg::new(2) };
/// assert_eq!(i.exec_class(), ExecClass::IntAlu);
/// assert_eq!(i.to_string(), "add x3, x1, x2");
/// ```
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Instr {
    /// Register-register integer ALU operation: `rd = rs1 op rs2`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },
    /// Register-immediate integer ALU operation: `rd = rs1 op imm`.
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// Source.
        rs1: Reg,
        /// Sign-extended immediate.
        imm: i64,
    },
    /// Load a 64-bit immediate: `rd = imm`.
    LoadImm {
        /// Destination.
        rd: Reg,
        /// Immediate value.
        imm: i64,
    },
    /// Memory load: `rd = mem[rs(base) + offset]`.
    Load {
        /// Destination.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        offset: i64,
        /// Access width.
        width: MemWidth,
        /// Sign-extend sub-64-bit loads when true, zero-extend when false.
        signed: bool,
    },
    /// Memory store: `mem[rs(base) + offset] = src`.
    Store {
        /// Value to store.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        offset: i64,
        /// Access width (stores the low `width` bytes).
        width: MemWidth,
    },
    /// Floating-point ALU operation: `fd = fs1 op fs2`.
    FpAlu {
        /// Operation.
        op: FpOp,
        /// Destination.
        fd: FReg,
        /// First source.
        fs1: FReg,
        /// Second source.
        fs2: FReg,
    },
    /// Floating-point load (double): `fd = mem[base + offset]`.
    FpLoad {
        /// Destination.
        fd: FReg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        offset: i64,
    },
    /// Floating-point store (double): `mem[base + offset] = fs`.
    FpStore {
        /// Value to store.
        fs: FReg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        offset: i64,
    },
    /// Floating-point comparison into an integer register: `rd = fs1 cmp fs2`.
    FpCmp {
        /// Comparison.
        op: FpCmpOp,
        /// Destination (integer).
        rd: Reg,
        /// First source.
        fs1: FReg,
        /// Second source.
        fs2: FReg,
    },
    /// Convert a signed integer to double: `fd = rs as f64`.
    IntToFp {
        /// Destination.
        fd: FReg,
        /// Source (integer).
        rs: Reg,
    },
    /// Convert a double to a signed integer (truncating): `rd = fs as i64`.
    FpToInt {
        /// Destination (integer).
        rd: Reg,
        /// Source.
        fs: FReg,
    },
    /// Conditional branch to an absolute target.
    Branch {
        /// Condition.
        cond: BranchCond,
        /// First comparison operand.
        rs1: Reg,
        /// Second comparison operand.
        rs2: Reg,
        /// Absolute target address when taken.
        target: Addr,
    },
    /// Direct jump-and-link: `rd = pc + 4; pc = target`.
    Jal {
        /// Link register (`x0` for a plain jump).
        rd: Reg,
        /// Absolute target address.
        target: Addr,
    },
    /// Indirect jump-and-link: `rd = pc + 4; pc = (base + offset) & !3`.
    Jalr {
        /// Link register (`x0` for a plain indirect jump).
        rd: Reg,
        /// Register holding the target address.
        base: Reg,
        /// Byte offset added to the register value.
        offset: i64,
    },
    /// No operation.
    Nop,
    /// Stop the program; the functional simulator ends the stream here.
    Halt,
}

impl Instr {
    /// The µop execution class, used by the timing model.
    #[inline]
    #[must_use]
    pub fn exec_class(&self) -> ExecClass {
        match self {
            Instr::Alu { op, .. } | Instr::AluImm { op, .. } => op.exec_class(),
            Instr::LoadImm { .. } | Instr::Nop | Instr::Halt => ExecClass::IntAlu,
            Instr::Load { .. } | Instr::FpLoad { .. } => ExecClass::Load,
            Instr::Store { .. } | Instr::FpStore { .. } => ExecClass::Store,
            Instr::FpAlu { op, .. } => op.exec_class(),
            Instr::FpCmp { .. } | Instr::IntToFp { .. } | Instr::FpToInt { .. } => ExecClass::FpAdd,
            Instr::Branch { .. } | Instr::Jal { .. } | Instr::Jalr { .. } => ExecClass::Branch,
        }
    }

    /// Classifies control-flow instructions; `None` for non-branches.
    ///
    /// By convention `jalr x0, x1, 0` is a [`BranchKind::Return`]; `jal`/`jalr`
    /// with a non-zero link register are calls.
    #[inline]
    #[must_use]
    pub fn branch_kind(&self) -> Option<BranchKind> {
        match *self {
            Instr::Branch { .. } => Some(BranchKind::Conditional),
            Instr::Jal { rd, .. } => Some(if rd.is_zero() {
                BranchKind::DirectJump
            } else {
                BranchKind::DirectCall
            }),
            Instr::Jalr { rd, base, offset } => Some(if !rd.is_zero() {
                BranchKind::IndirectCall
            } else if base == Reg::RA && offset == 0 {
                BranchKind::Return
            } else {
                BranchKind::Indirect
            }),
            _ => None,
        }
    }

    /// Whether this is any control-flow instruction.
    #[inline]
    #[must_use]
    pub fn is_branch(&self) -> bool {
        self.branch_kind().is_some()
    }

    /// Whether this instruction reads or writes memory.
    #[inline]
    #[must_use]
    pub fn is_mem(&self) -> bool {
        matches!(
            self,
            Instr::Load { .. } | Instr::Store { .. } | Instr::FpLoad { .. } | Instr::FpStore { .. }
        )
    }

    /// Whether this instruction writes memory.
    #[inline]
    #[must_use]
    pub fn is_store(&self) -> bool {
        matches!(self, Instr::Store { .. } | Instr::FpStore { .. })
    }

    /// Whether this instruction reads memory.
    #[inline]
    #[must_use]
    pub fn is_load(&self) -> bool {
        matches!(self, Instr::Load { .. } | Instr::FpLoad { .. })
    }

    /// The static register operands (sources and destination).
    ///
    /// This is exactly the decode information the paper's *code cache*
    /// stores: "instruction address, instruction type, input and output
    /// registers" (§III-A). The zero register is filtered out.
    #[inline]
    #[must_use]
    pub fn operands(&self) -> Operands {
        use ArchReg as A;
        match *self {
            Instr::Alu { rd, rs1, rs2, .. } => {
                Operands::new(&[A::from(rs1), A::from(rs2)], Some(A::from(rd)))
            }
            Instr::AluImm { rd, rs1, .. } => Operands::new(&[A::from(rs1)], Some(A::from(rd))),
            Instr::LoadImm { rd, .. } => Operands::new(&[], Some(A::from(rd))),
            Instr::Load { rd, base, .. } => Operands::new(&[A::from(base)], Some(A::from(rd))),
            Instr::Store { src, base, .. } => Operands::new(&[A::from(src), A::from(base)], None),
            Instr::FpAlu { fd, fs1, fs2, .. } => {
                Operands::new(&[A::from(fs1), A::from(fs2)], Some(A::from(fd)))
            }
            Instr::FpLoad { fd, base, .. } => Operands::new(&[A::from(base)], Some(A::from(fd))),
            Instr::FpStore { fs, base, .. } => Operands::new(&[A::from(fs), A::from(base)], None),
            Instr::FpCmp { rd, fs1, fs2, .. } => {
                Operands::new(&[A::from(fs1), A::from(fs2)], Some(A::from(rd)))
            }
            Instr::IntToFp { fd, rs } => Operands::new(&[A::from(rs)], Some(A::from(fd))),
            Instr::FpToInt { rd, fs } => Operands::new(&[A::from(fs)], Some(A::from(rd))),
            Instr::Branch { rs1, rs2, .. } => Operands::new(&[A::from(rs1), A::from(rs2)], None),
            Instr::Jal { rd, .. } => Operands::new(&[], Some(A::from(rd))),
            Instr::Jalr { rd, base, .. } => Operands::new(&[A::from(base)], Some(A::from(rd))),
            Instr::Nop | Instr::Halt => Operands::default(),
        }
    }

    /// The timing model's decode of this instruction: [`Instr::exec_class`]
    /// and [`Instr::operands`] in four bytes.
    #[inline]
    #[must_use]
    pub fn uop(&self) -> Uop {
        let ops = self.operands();
        let flat = |r: Option<ArchReg>| r.map_or(0, |r| r.0);
        Uop {
            class: self.exec_class(),
            srcs: [flat(ops.srcs[0]), flat(ops.srcs[1])],
            dst: flat(ops.dst),
        }
    }

    /// The direct branch/jump target, if statically known.
    #[inline]
    #[must_use]
    pub fn direct_target(&self) -> Option<Addr> {
        match *self {
            Instr::Branch { target, .. } | Instr::Jal { target, .. } => Some(target),
            _ => None,
        }
    }
}

fn alu_name(op: AluOp) -> &'static str {
    match op {
        AluOp::Add => "add",
        AluOp::Sub => "sub",
        AluOp::And => "and",
        AluOp::Or => "or",
        AluOp::Xor => "xor",
        AluOp::Sll => "sll",
        AluOp::Srl => "srl",
        AluOp::Sra => "sra",
        AluOp::Slt => "slt",
        AluOp::Sltu => "sltu",
        AluOp::Mul => "mul",
        AluOp::Div => "div",
        AluOp::Rem => "rem",
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::Alu { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", alu_name(op))
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                write!(f, "{}i {rd}, {rs1}, {imm}", alu_name(op))
            }
            Instr::LoadImm { rd, imm } => write!(f, "li {rd}, {imm}"),
            Instr::Load {
                rd,
                base,
                offset,
                width,
                signed,
            } => {
                let w = match (width, signed) {
                    (MemWidth::B, true) => "lb",
                    (MemWidth::B, false) => "lbu",
                    (MemWidth::H, true) => "lh",
                    (MemWidth::H, false) => "lhu",
                    (MemWidth::W, true) => "lw",
                    (MemWidth::W, false) => "lwu",
                    (MemWidth::D, _) => "ld",
                };
                write!(f, "{w} {rd}, {offset}({base})")
            }
            Instr::Store {
                src,
                base,
                offset,
                width,
            } => {
                let w = match width {
                    MemWidth::B => "sb",
                    MemWidth::H => "sh",
                    MemWidth::W => "sw",
                    MemWidth::D => "sd",
                };
                write!(f, "{w} {src}, {offset}({base})")
            }
            Instr::FpAlu { op, fd, fs1, fs2 } => {
                let n = match op {
                    FpOp::Add => "fadd",
                    FpOp::Sub => "fsub",
                    FpOp::Mul => "fmul",
                    FpOp::Div => "fdiv",
                    FpOp::Min => "fmin",
                    FpOp::Max => "fmax",
                };
                write!(f, "{n} {fd}, {fs1}, {fs2}")
            }
            Instr::FpLoad { fd, base, offset } => write!(f, "fld {fd}, {offset}({base})"),
            Instr::FpStore { fs, base, offset } => write!(f, "fsd {fs}, {offset}({base})"),
            Instr::FpCmp { op, rd, fs1, fs2 } => {
                let n = match op {
                    FpCmpOp::Eq => "feq",
                    FpCmpOp::Lt => "flt",
                    FpCmpOp::Le => "fle",
                };
                write!(f, "{n} {rd}, {fs1}, {fs2}")
            }
            Instr::IntToFp { fd, rs } => write!(f, "fcvt.d.l {fd}, {rs}"),
            Instr::FpToInt { rd, fs } => write!(f, "fcvt.l.d {rd}, {fs}"),
            Instr::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                let n = match cond {
                    BranchCond::Eq => "beq",
                    BranchCond::Ne => "bne",
                    BranchCond::Lt => "blt",
                    BranchCond::Ge => "bge",
                    BranchCond::Ltu => "bltu",
                    BranchCond::Geu => "bgeu",
                };
                write!(f, "{n} {rs1}, {rs2}, {target:#x}")
            }
            Instr::Jal { rd, target } => write!(f, "jal {rd}, {target:#x}"),
            Instr::Jalr { rd, base, offset } => write!(f, "jalr {rd}, {offset}({base})"),
            Instr::Nop => write!(f, "nop"),
            Instr::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_class_mapping() {
        let add = Instr::Alu {
            op: AluOp::Add,
            rd: Reg::new(1),
            rs1: Reg::new(2),
            rs2: Reg::new(3),
        };
        assert_eq!(add.exec_class(), ExecClass::IntAlu);
        let div = Instr::AluImm {
            op: AluOp::Div,
            rd: Reg::new(1),
            rs1: Reg::new(2),
            imm: 3,
        };
        assert_eq!(div.exec_class(), ExecClass::IntDiv);
        let fdiv = Instr::FpAlu {
            op: FpOp::Div,
            fd: FReg::new(0),
            fs1: FReg::new(1),
            fs2: FReg::new(2),
        };
        assert_eq!(fdiv.exec_class(), ExecClass::FpDiv);
        let ld = Instr::Load {
            rd: Reg::new(1),
            base: Reg::new(2),
            offset: 0,
            width: MemWidth::D,
            signed: true,
        };
        assert_eq!(ld.exec_class(), ExecClass::Load);
        assert!(ld.is_load() && ld.is_mem() && !ld.is_store());
    }

    #[test]
    fn branch_kind_classification() {
        let b = Instr::Branch {
            cond: BranchCond::Eq,
            rs1: Reg::new(1),
            rs2: Reg::new(2),
            target: 0x100,
        };
        assert_eq!(b.branch_kind(), Some(BranchKind::Conditional));
        assert_eq!(
            Instr::Jal {
                rd: Reg::ZERO,
                target: 0x40
            }
            .branch_kind(),
            Some(BranchKind::DirectJump)
        );
        assert_eq!(
            Instr::Jal {
                rd: Reg::RA,
                target: 0x40
            }
            .branch_kind(),
            Some(BranchKind::DirectCall)
        );
        assert_eq!(
            Instr::Jalr {
                rd: Reg::ZERO,
                base: Reg::RA,
                offset: 0
            }
            .branch_kind(),
            Some(BranchKind::Return)
        );
        assert_eq!(
            Instr::Jalr {
                rd: Reg::ZERO,
                base: Reg::new(5),
                offset: 0
            }
            .branch_kind(),
            Some(BranchKind::Indirect)
        );
        assert_eq!(
            Instr::Jalr {
                rd: Reg::RA,
                base: Reg::new(5),
                offset: 0
            }
            .branch_kind(),
            Some(BranchKind::IndirectCall)
        );
        assert_eq!(Instr::Nop.branch_kind(), None);
    }

    #[test]
    fn operands_filter_zero_register() {
        let i = Instr::Alu {
            op: AluOp::Add,
            rd: Reg::ZERO,
            rs1: Reg::ZERO,
            rs2: Reg::new(3),
        };
        let ops = i.operands();
        assert_eq!(ops.dst, None);
        assert_eq!(ops.src_iter().count(), 1);
        assert_eq!(ops.srcs[0], Some(ArchReg::from(Reg::new(3))));
    }

    #[test]
    fn operands_store_has_two_sources_no_dst() {
        let s = Instr::Store {
            src: Reg::new(4),
            base: Reg::new(5),
            offset: 8,
            width: MemWidth::W,
        };
        let ops = s.operands();
        assert_eq!(ops.dst, None);
        let srcs: Vec<_> = ops.src_iter().collect();
        assert_eq!(
            srcs,
            vec![ArchReg::from(Reg::new(4)), ArchReg::from(Reg::new(5))]
        );
    }

    #[test]
    fn operands_fp_cross_file() {
        let c = Instr::FpCmp {
            op: FpCmpOp::Lt,
            rd: Reg::new(7),
            fs1: FReg::new(1),
            fs2: FReg::new(2),
        };
        let ops = c.operands();
        assert_eq!(ops.dst, Some(ArchReg::from(Reg::new(7))));
        assert!(ops.src_iter().all(|r| r.as_fp().is_some()));
    }

    #[test]
    fn disassembly_smoke() {
        let cases: Vec<(Instr, &str)> = vec![
            (
                Instr::AluImm {
                    op: AluOp::Add,
                    rd: Reg::new(1),
                    rs1: Reg::new(2),
                    imm: -4,
                },
                "addi x1, x2, -4",
            ),
            (
                Instr::Load {
                    rd: Reg::new(3),
                    base: Reg::new(4),
                    offset: 16,
                    width: MemWidth::W,
                    signed: false,
                },
                "lwu x3, 16(x4)",
            ),
            (
                Instr::Branch {
                    cond: BranchCond::Ne,
                    rs1: Reg::new(1),
                    rs2: Reg::ZERO,
                    target: 0x1000,
                },
                "bne x1, x0, 0x1000",
            ),
            (Instr::Halt, "halt"),
        ];
        for (i, s) in cases {
            assert_eq!(i.to_string(), s);
        }
    }

    #[test]
    fn mem_width_bytes() {
        assert_eq!(MemWidth::B.bytes(), 1);
        assert_eq!(MemWidth::H.bytes(), 2);
        assert_eq!(MemWidth::W.bytes(), 4);
        assert_eq!(MemWidth::D.bytes(), 8);
    }

    #[test]
    fn direct_target() {
        let j = Instr::Jal {
            rd: Reg::ZERO,
            target: 0x2000,
        };
        assert_eq!(j.direct_target(), Some(0x2000));
        assert_eq!(Instr::Nop.direct_target(), None);
        let jr = Instr::Jalr {
            rd: Reg::ZERO,
            base: Reg::new(3),
            offset: 0,
        };
        assert_eq!(jr.direct_target(), None);
    }
}
