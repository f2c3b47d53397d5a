//! # ffsim-emu — the functional simulator (Pin substitute)
//!
//! This crate is the *functional* half of the decoupled functional-first
//! simulator reproducing *“Simulating Wrong-Path Instructions in Decoupled
//! Functional-First Simulation”* (Eyerman et al., ISPASS 2023). The paper
//! uses Intel Pin as the functional frontend; this crate provides the same
//! contract for the custom ISA defined in [`ffsim-isa`]:
//!
//! * [`Emulator`] — executes programs and emits [`DynInst`] records
//!   (address, decoded instruction, memory address, branch outcome),
//! * [`Memory`] / [`ArchState`] — the simulated machine state, with cheap
//!   checkpoints (Pin's `PIN_SaveContext`/`PIN_ExecuteAt` analogues),
//! * [`Emulator::wrong_path_stream`] — full functional wrong-path
//!   emulation with suppressed stores and faults (paper §III-B), from a
//!   branch checkpoint into packed 16-byte [`WpRecord`]s, one record per
//!   pull; [`Emulator::emulate_wrong_path`] drains one eagerly,
//! * [`InstrQueue`] — the runahead queue between functional and
//!   performance simulation, with lookahead peeking for the convergence
//!   technique (paper §III-C) and [`FrontendPolicy`] hooks for the
//!   frontend-resident branch predictor replica, which checkpoints the
//!   branches it predicts mispredicted.
//!
//! # Examples
//!
//! ```
//! use ffsim_emu::{Emulator, InstrQueue, NoFrontendWrongPath};
//! use ffsim_isa::{Asm, Reg};
//!
//! let mut a = Asm::new();
//! a.li(Reg::new(1), 5);
//! a.li(Reg::new(2), 0x1000);
//! a.sd(Reg::new(1), 0, Reg::new(2));
//! a.halt();
//!
//! // Functional-only run:
//! let mut emu = Emulator::new(a.assemble()?)?;
//! emu.run_to_halt(100)?;
//! assert_eq!(emu.mem().read_u64(0x1000), 5);
//!
//! // Or as the frontend of a decoupled simulation:
//! let mut a2 = Asm::new();
//! a2.nop();
//! a2.halt();
//! let mut queue = InstrQueue::new(Emulator::new(a2.assemble()?)?, NoFrontendWrongPath, 256);
//! while let Some(entry) = queue.pop() {
//!     // ... feed entry.inst to a timing model ...
//!     let _ = entry;
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`ffsim-isa`]: ../ffsim_isa/index.html

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cancel;
mod dyninst;
mod emulator;
mod exec;
mod hash;
mod mem;
mod queue;
mod state;
mod undo;

pub use cancel::{CancelCause, CancelToken};
pub use dyninst::{
    BranchOutcome, DynInst, FaultPolicy, MemAccess, WpRecord, WrongPathBundle, WrongPathCheckpoint,
    WrongPathFaultStats, WrongPathStop,
};
pub use emulator::{BranchOracle, EmuError, Emulator, FollowComputed, StepError, WrongPathStream};
pub use exec::{Fault, FaultModel};
pub use mem::{Memory, MemoryLimitError, PAGE_BYTES};
pub use queue::{
    FetchSource, FrontendPolicy, InstrQueue, NoFrontendWrongPath, StreamBuf, StreamEntry,
    WrongPathRequest,
};
pub use state::ArchState;
