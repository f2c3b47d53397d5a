//! Simulation results and the paper's error metric.

use crate::technique::code_cache::CodeCacheStats;
use crate::technique::mode::WrongPathMode;
use crate::technique::wrongpath::ConvergenceStats;
use ffsim_obs::{CpiStack, Log2Hist, PhaseProfiler, TraceEvent};
use ffsim_uarch::{BranchStats, CacheStats, DramStats, TlbStats};
use std::time::Duration;

/// Observability artifacts collected during a run when the
/// [`ObsConfig`](ffsim_obs::ObsConfig) enables tracing and/or profiling:
/// the event trace, the wrong-path shape histograms, and the host-phase
/// profile. `None` on a fully disabled run — the observer-effect
/// invariant guarantees every other [`SimResult`] field is identical
/// either way.
#[derive(Clone, Debug, Default)]
pub struct ObsReport {
    /// Buffered trace events in recording order, all on the cycle
    /// timebase: timing-model events, and the frontend-track events of
    /// wrong-path emulation stamped with their branch's fetch cycle.
    /// Export with [`ffsim_obs::chrome_trace`].
    pub events: Vec<TraceEvent>,
    /// Events evicted from the bounded rings during the run.
    pub dropped_events: u64,
    /// Wrong-path instructions injected per misprediction episode
    /// (compare to the paper's Table III wrong-path footprints).
    pub wp_episode_len: Log2Hist,
    /// Instructions scanned before the wrong path converged with the
    /// future correct path (convergence-exploitation mode only).
    pub conv_distance: Log2Hist,
    /// Host-phase wall-time attribution for the run (enabled when
    /// [`ObsConfig::profile`](ffsim_obs::ObsConfig) is set; an inert
    /// disabled profiler otherwise). Phases cover the emulator, handoff,
    /// timing pipeline and technique hooks; see
    /// [`ffsim_obs::prof::Phase`].
    pub profile: PhaseProfiler,
}

/// Wrong-path fault-handling counters (squashes, watchdog trips, wild
/// fetches) — re-exported from the functional layer.
pub use ffsim_emu::WrongPathFaultStats as FaultStats;

/// Counters of a wrong-path block cache the simulator no longer has:
/// always zero. The type remains only because the benchmark harness reads
/// `hits` and `misses`; it goes away in the next change to the benchmark.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct BlockCacheStats {
    /// Always zero.
    pub hits: u64,
    /// Always zero.
    pub misses: u64,
}

/// The complete result of one simulation run.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// The wrong-path modeling technique used.
    pub mode: WrongPathMode,
    /// Correct-path instructions simulated (retired).
    pub instructions: u64,
    /// Simulated core cycles.
    pub cycles: u64,
    /// Wrong-path instructions injected into the pipeline.
    pub wrong_path_instructions: u64,
    /// Wrong-path instructions functionally emulated (wrong-path
    /// emulation only). Emulation is lazy, so this is the part of each
    /// wrong path the pipeline fetched before the branch resolved, plus,
    /// under a watchdog within the budget, the rest up to the watchdog.
    pub wrong_path_emulated: u64,
    /// Branch prediction statistics (timing-model predictor).
    pub branch: BranchStats,
    /// Convergence-exploitation statistics (non-zero only in that mode).
    pub convergence: ConvergenceStats,
    /// Code-cache statistics (non-zero only in reconstruction modes).
    pub code_cache: CodeCacheStats,
    /// Always zero; see [`BlockCacheStats`].
    pub block_cache: BlockCacheStats,
    /// L1 instruction cache statistics.
    pub l1i: CacheStats,
    /// L1 data cache statistics.
    pub l1d: CacheStats,
    /// Unified L2 statistics.
    pub l2: CacheStats,
    /// Last-level cache statistics.
    pub llc: CacheStats,
    /// DRAM statistics.
    pub dram: DramStats,
    /// Instruction TLB statistics.
    pub itlb: TlbStats,
    /// Data TLB statistics.
    pub dtlb: TlbStats,
    /// Host wall-clock time of the run (simulation speed comparisons).
    pub wall_time: Duration,
    /// Wrong-path fault handling counters (faults squashed, watchdog
    /// trips, wild fetches), over the emulated part of each wrong path: a
    /// fault past the point where the branch resolved is never reached.
    /// Fatal faults are not recorded here — they surface as
    /// [`SimError`](crate::SimError) from `Simulator::run`.
    pub faults: FaultStats,
    /// A 64-bit digest of the final architectural state (registers, pc,
    /// logical memory). Runs that retire the same correct path end with
    /// the same digest, whatever happened on wrong paths — the invariant
    /// the fault-injection harness checks.
    pub state_digest: u64,
    /// Per-cycle stall attribution over the measured sample. Its
    /// [`CpiStack::total`] equals [`SimResult::cycles`] exactly, so
    /// [`SimResult::error_vs`] gaps between wrong-path techniques can be
    /// decomposed into which stall class moved. Always collected — the
    /// accounting rides the existing per-retire bookkeeping.
    pub cpi: CpiStack,
    /// Event trace and wrong-path histograms; `Some` only when the run's
    /// [`ObsConfig`](ffsim_obs::ObsConfig) enabled observability.
    pub obs: Option<ObsReport>,
}

impl SimResult {
    /// Projected performance: retired instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Wrong-path instructions relative to correct-path instructions, in
    /// percent — the paper's Table II metric (100% means as many
    /// wrong-path as correct-path instructions).
    #[must_use]
    pub fn wrong_path_fraction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.wrong_path_instructions as f64 * 100.0 / self.instructions as f64
        }
    }

    /// The paper's performance estimation error against a reference run
    /// (normally [`WrongPathMode::WrongPathEmulation`]), in percent.
    /// Negative means this technique *underestimates* performance, the
    /// signature of unmodeled wrong-path prefetching (Fig. 1).
    #[must_use]
    pub fn error_vs(&self, reference: &SimResult) -> f64 {
        let ref_ipc = reference.ipc();
        if ref_ipc == 0.0 {
            0.0
        } else {
            (self.ipc() - ref_ipc) / ref_ipc * 100.0
        }
    }

    /// Host-side simulation slowdown relative to a reference run
    /// (normally [`WrongPathMode::NoWrongPath`], the fastest technique).
    #[must_use]
    pub fn slowdown_vs(&self, reference: &SimResult) -> f64 {
        let ref_secs = reference.wall_time.as_secs_f64();
        if ref_secs == 0.0 {
            1.0
        } else {
            self.wall_time.as_secs_f64() / ref_secs
        }
    }

    /// Branch mispredictions per kilo-instruction.
    #[must_use]
    pub fn branch_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.branch.mispredicts() as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// L2 misses per kilo-instruction (correct path only).
    #[must_use]
    pub fn l2_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.l2.misses.get(ffsim_uarch::PathKind::Correct) as f64 * 1000.0
                / self.instructions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(mode: WrongPathMode, instructions: u64, cycles: u64) -> SimResult {
        SimResult {
            mode,
            instructions,
            cycles,
            wrong_path_instructions: 0,
            wrong_path_emulated: 0,
            branch: BranchStats::default(),
            convergence: ConvergenceStats::default(),
            code_cache: CodeCacheStats::default(),
            block_cache: BlockCacheStats::default(),
            l1i: CacheStats::default(),
            l1d: CacheStats::default(),
            l2: CacheStats::default(),
            llc: CacheStats::default(),
            dram: DramStats::default(),
            itlb: TlbStats::default(),
            dtlb: TlbStats::default(),
            wall_time: Duration::from_millis(100),
            faults: FaultStats::default(),
            state_digest: 0,
            cpi: CpiStack::new(),
            obs: None,
        }
    }

    #[test]
    fn ipc_and_error() {
        let slow = result(WrongPathMode::NoWrongPath, 1000, 2000); // ipc 0.5
        let fast = result(WrongPathMode::WrongPathEmulation, 1000, 1000); // ipc 1.0
        assert!((slow.ipc() - 0.5).abs() < 1e-12);
        assert!((slow.error_vs(&fast) + 50.0).abs() < 1e-9, "-50% error");
        assert!((fast.error_vs(&fast)).abs() < 1e-12);
    }

    #[test]
    fn wrong_path_fraction_percent() {
        let mut r = result(WrongPathMode::WrongPathEmulation, 1000, 1000);
        r.wrong_path_instructions = 2400;
        assert!((r.wrong_path_fraction() - 240.0).abs() < 1e-9);
    }

    #[test]
    fn zero_division_guards() {
        let r = result(WrongPathMode::NoWrongPath, 0, 0);
        assert_eq!(r.ipc(), 0.0);
        assert_eq!(r.wrong_path_fraction(), 0.0);
        assert_eq!(r.branch_mpki(), 0.0);
        assert_eq!(r.error_vs(&r), 0.0);
    }

    #[test]
    fn slowdown() {
        let mut a = result(WrongPathMode::NoWrongPath, 1, 1);
        let mut b = result(WrongPathMode::WrongPathEmulation, 1, 1);
        a.wall_time = Duration::from_millis(100);
        b.wall_time = Duration::from_millis(1300);
        assert!((b.slowdown_vs(&a) - 13.0).abs() < 1e-9);
    }
}
