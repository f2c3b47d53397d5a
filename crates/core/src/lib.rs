//! # ffsim-core — wrong-path modeling in a functional-first simulator
//!
//! The primary contribution of *“Simulating Wrong-Path Instructions in
//! Decoupled Functional-First Simulation”* (Eyerman et al., ISPASS 2023),
//! implemented from scratch in Rust: an out-of-order core timing model fed
//! by a decoupled functional frontend ([`ffsim-emu`]), with four wrong-path
//! modeling techniques ([`WrongPathMode`]):
//!
//! 1. **No wrong path** — fetch halts on a misprediction (the common
//!    functional-first default),
//! 2. **Instruction reconstruction** — wrong-path instructions are rebuilt
//!    from a [`CodeCache`] of previously seen decode information; memory
//!    addresses remain unknown,
//! 3. **Convergence exploitation** — the paper's novel technique: detect
//!    convergence between the wrong path and the *future* correct path
//!    (visible thanks to functional runahead) and copy memory addresses
//!    into register-independent wrong-path operations,
//! 4. **Wrong-path emulation** — the functional frontend checkpoints,
//!    redirects, and fully emulates the wrong path (accuracy reference).
//!
//! # Examples
//!
//! Compare the four techniques on a program:
//!
//! ```
//! use ffsim_core::{run_all_modes, WrongPathMode};
//! use ffsim_emu::Memory;
//! use ffsim_isa::{Asm, Reg};
//! use ffsim_uarch::CoreConfig;
//!
//! let mut a = Asm::new();
//! a.li(Reg::new(1), 50);
//! a.label("loop");
//! a.addi(Reg::new(1), Reg::new(1), -1);
//! a.bnez(Reg::new(1), "loop");
//! a.halt();
//! let program = a.assemble()?;
//!
//! let results = run_all_modes(&program, &Memory::new(), &CoreConfig::tiny_for_tests(), None)?;
//! let reference = &results[3]; // wpemul
//! for r in &results {
//!     println!("{}: ipc {:.3}, error {:+.2}%", r.mode, r.ipc(), r.error_vs(reference));
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`ffsim-emu`]: ../ffsim_emu/index.html

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod issue_queue;
mod metrics;
mod pipeline;
mod sim;
pub mod technique;

pub use error::SimError;
pub use ffsim_emu::{CancelCause, CancelToken, FetchSource};
pub use ffsim_obs::{CpiStack, ObsConfig, Phase, PhaseProfiler, StallClass};
pub use metrics::{BlockCacheStats, FaultStats, ObsReport, SimResult};
pub use pipeline::{InstrTimes, LoadTiming, Pipeline, WindowState};
pub use sim::{run_all_modes, SimConfig, Simulator};
pub use technique::code_cache::{CodeCache, CodeCacheStats};
pub use technique::mode::WrongPathMode;
pub use technique::replica::{PcCorruption, ReplicaPolicy};
pub use technique::wrongpath::{
    reconstruct, recover_addresses, ConvergenceConfig, ConvergenceStats, WpInst,
};
pub use technique::{
    passive_frontend, MispredictContext, TechniqueRegistry, TechniqueStats, WrongPathTechnique,
};
