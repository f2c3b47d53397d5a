//! # ffsim-isa — instruction set for the wrong-path simulation stack
//!
//! A compact 64-bit RISC-style instruction set, shared by the functional
//! emulator ([`ffsim-emu`]) and the out-of-order timing model
//! ([`ffsim-core`]) of this repository's reproduction of *“Simulating
//! Wrong-Path Instructions in Decoupled Functional-First Simulation”*
//! (Eyerman et al., ISPASS 2023).
//!
//! The crate provides:
//!
//! * [`Instr`] and friends — the instruction definitions, with per-µop
//!   execution classes ([`ExecClass`]) and branch classification
//!   ([`BranchKind`]) for the timing model,
//! * [`Operands`] extraction — exactly the decode information the paper's
//!   *code cache* keeps (instruction address, type, input/output registers),
//!   and [`Uop`], the same in four bytes for the timing model,
//! * [`Reg`]/[`FReg`]/[`ArchReg`]/[`RegSet`] — typed register names and a
//!   dense register set used for dependence ("dirty register") tracking by
//!   the convergence-exploitation technique,
//! * [`Program`] — an assembled code image with a µop per text slot,
//! * [`Asm`] — a label-based assembler all bundled workloads are written in,
//!   and
//! * [`fnv`] — the FNV-1a hash behind every stable digest in the workspace.
//!
//! # Examples
//!
//! ```
//! use ffsim_isa::{Asm, Reg};
//!
//! // sum = 0; for i in (1..=10) { sum += i }
//! let (sum, i) = (Reg::new(10), Reg::new(11));
//! let mut a = Asm::new();
//! a.li(sum, 0);
//! a.li(i, 10);
//! a.label("loop");
//! a.add(sum, sum, i);
//! a.addi(i, i, -1);
//! a.bnez(i, "loop");
//! a.halt();
//! let program = a.assemble()?;
//! assert_eq!(program.len(), 6);
//! # Ok::<(), ffsim_isa::AsmError>(())
//! ```
//!
//! [`ffsim-emu`]: ../ffsim_emu/index.html
//! [`ffsim-core`]: ../ffsim_core/index.html

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod asm;
pub mod fnv;
mod instr;
mod program;
mod reg;

pub use asm::{Asm, AsmError};
pub use instr::{
    Addr, AluOp, BranchCond, BranchKind, ExecClass, FpCmpOp, FpOp, Instr, MemWidth, Operands, Uop,
    INSTR_BYTES,
};
pub use program::{Program, DEFAULT_TEXT_BASE};
pub use reg::{ArchReg, FReg, Reg, RegSet, NUM_ARCH_REGS, NUM_FP_REGS, NUM_INT_REGS};
