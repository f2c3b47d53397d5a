//! # ffsim-uarch — microarchitectural components for the timing model
//!
//! The hardware-structure substrate of this repository's reproduction of
//! *“Simulating Wrong-Path Instructions in Decoupled Functional-First
//! Simulation”* (Eyerman et al., ISPASS 2023):
//!
//! * [`CoreConfig`] — the simulated core parameters; the default
//!   [`CoreConfig::golden_cove_like`] mirrors the paper's Table I setup
//!   (Alder Lake P-core with per-core-downscaled LLC and memory bandwidth),
//! * [`Cache`] / [`MemoryHierarchy`] / [`Tlb`] / [`Dram`] — set-associative
//!   caches with LRU, write-back/write-allocate, per-path statistics, a
//!   bandwidth-limited DRAM model, and TLBs,
//! * [`BranchPredictor`] — a gshare/bimodal hybrid with indirect target
//!   prediction and a return-address stack, designed so two instances fed
//!   the same program-order branch stream remain bit-identical (the
//!   synchronization property the wrong-path-emulation replica requires),
//! * [`PathKind`] — correct-path vs wrong-path attribution threaded
//!   through every component, making wrong-path cache interference — the
//!   paper's subject — directly measurable.
//!
//! # Examples
//!
//! ```
//! use ffsim_uarch::{CoreConfig, MemoryHierarchy, PathKind, Level};
//!
//! let cfg = CoreConfig::golden_cove_like();
//! let mut mh = MemoryHierarchy::new(&cfg);
//! // A wrong-path access warms the cache...
//! mh.data_access(0x4_0000, false, 0, PathKind::Wrong);
//! // ...so the later correct-path access hits: positive interference.
//! let r = mh.data_access(0x4_0000, false, 50, PathKind::Correct);
//! assert_eq!(r.served_by, Level::L1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod branch;
mod cache;
mod config;
mod dram;
mod hierarchy;
mod path;
mod tlb;

pub use branch::{
    BranchPredictor, BranchResolution, BranchStats, Prediction, ReturnStack, WrongPathPredictor,
};
pub use cache::{Cache, CacheStats, Lookup};
pub use config::{BranchConfig, CacheConfig, CoreConfig, DramConfig, FuPool, TlbConfig};
pub use dram::{Dram, DramStats};
pub use hierarchy::{AccessResult, Level, MemoryHierarchy};
pub use path::{PathKind, PerPath};
pub use tlb::{Tlb, TlbStats};
