//! # ffsim-fuzz — deterministic differential fuzzing for the simulator
//!
//! The four wrong-path techniques (`nowp`, `instrec`, `conv`, `wpemul`)
//! model *timing* differently but must never disagree on *architecture*:
//! the correct path retires the same instructions and produces the same
//! final state no matter how the frontend treats a misprediction. That
//! invariant is exactly what decoupled functional-first simulation rests
//! on — and exactly what a hand-written test suite under-exercises,
//! because interesting violations hide behind branchy, aliasing,
//! re-converging control flow.
//!
//! This crate closes the gap with three deterministic pieces:
//!
//! - [`gen`] — a seeded program generator producing *structurally
//!   terminating* programs biased toward branches, loops, convergence
//!   diamonds, indirect jumps, and data-dependent memory aliasing. The
//!   same seed always yields the same program.
//! - [`oracle`] — a differential oracle running each program through
//!   every technique registered in a
//!   [`TechniqueRegistry`](ffsim_core::TechniqueRegistry) under several
//!   config variants (fault trapping, wrong-path PC corruption, tight
//!   watchdogs), asserting identical retired-instruction counts, state
//!   digests, and typed error outcomes. It also cross-checks
//!   checkpoint/restore exactness around every wrong-path excursion.
//! - [`shrink`](mod@shrink) + [`artifact`] — a delta-debugging shrinker that
//!   minimizes a divergent program, and a textual `.fsm` format that
//!   persists the repro independent of generator seeds, together with a
//!   regression-test stub.
//! - [`corpus`] — a content-addressed permanent regression corpus
//!   (`corpus/` at the repository root): shrunk repros accumulate there,
//!   are replayed by every `fuzz_smoke --corpus` run and by the test
//!   suite, and never duplicate.
//!
//! The `fuzz_smoke` binary wires these together behind `--seed`,
//! `--budget`, and `--corpus` flags; its output is byte-identical across
//! runs for a fixed seed and corpus, so CI can diff it.

pub mod artifact;
pub mod corpus;
pub mod gen;
pub mod oracle;
pub mod shrink;

pub use gen::{generate, seed_for, GenConfig, ProgramGen};
pub use oracle::{Divergence, Oracle, OracleReport, RunOutcome, Variant};
pub use shrink::shrink;
