//! Main-memory timing: fixed latency plus a per-core bandwidth share.
//!
//! The paper downscales memory bandwidth "to reflect the available ...
//! memory bandwidth per core in common SKUs" (§IV). [`Dram`] models that
//! share as a minimum spacing between line transfers: each access pays the
//! fixed latency, plus queueing delay when lines are requested faster than
//! the share allows.

use crate::config::DramConfig;
use crate::path::{PathKind, PerPath};

/// DRAM statistics.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct DramStats {
    /// Line transfers per path.
    pub accesses: PerPath,
    /// Total cycles spent queueing behind the bandwidth limit.
    pub queue_cycles: u64,
}

/// Bandwidth-limited main memory.
///
/// # Examples
///
/// ```
/// use ffsim_uarch::{Dram, DramConfig, PathKind};
/// let mut d = Dram::new(DramConfig { latency: 100, cycles_per_line: 10 });
/// // Two back-to-back requests at the same cycle: the second queues.
/// assert_eq!(d.access(1000, PathKind::Correct), 100);
/// assert!(d.access(1000, PathKind::Correct) > 100);
/// ```
#[derive(Clone, Debug)]
pub struct Dram {
    cfg: DramConfig,
    next_free: u64,
    stats: DramStats,
}

impl Dram {
    /// Creates an idle memory.
    #[must_use]
    pub fn new(cfg: DramConfig) -> Dram {
        Dram {
            cfg,
            next_free: 0,
            stats: DramStats::default(),
        }
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Requests one line at cycle `now`; returns the total latency
    /// (fixed latency + any bandwidth queueing).
    pub fn access(&mut self, now: u64, path: PathKind) -> u64 {
        self.stats.accesses.bump(path);
        let start = now.max(self.next_free);
        let queue = start - now;
        self.stats.queue_cycles += queue;
        self.next_free = start + self.cfg.cycles_per_line;
        queue + self.cfg.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramConfig {
            latency: 100,
            cycles_per_line: 10,
        })
    }

    #[test]
    fn isolated_access_pays_only_latency() {
        let mut d = dram();
        assert_eq!(d.access(500, PathKind::Correct), 100);
        assert_eq!(d.stats().queue_cycles, 0);
    }

    #[test]
    fn burst_queues_behind_bandwidth() {
        let mut d = dram();
        assert_eq!(d.access(0, PathKind::Correct), 100);
        assert_eq!(d.access(0, PathKind::Correct), 110);
        assert_eq!(d.access(0, PathKind::Correct), 120);
        assert_eq!(d.stats().queue_cycles, 10 + 20);
    }

    #[test]
    fn spaced_accesses_do_not_queue() {
        let mut d = dram();
        assert_eq!(d.access(0, PathKind::Correct), 100);
        assert_eq!(d.access(10, PathKind::Correct), 100);
        assert_eq!(d.access(1000, PathKind::Correct), 100);
    }

    #[test]
    fn out_of_order_request_times_are_tolerated() {
        let mut d = dram();
        let _ = d.access(100, PathKind::Correct);
        // An earlier-stamped request arriving later still queues correctly.
        let lat = d.access(50, PathKind::Wrong);
        assert_eq!(lat, 60 + 100);
        assert_eq!(d.stats().accesses.get(PathKind::Wrong), 1);
    }
}
