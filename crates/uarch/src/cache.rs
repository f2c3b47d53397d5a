//! Set-associative, write-back, write-allocate cache with LRU replacement
//! and per-path statistics.

use crate::config::CacheConfig;
use crate::path::{PathKind, PerPath};
use ffsim_isa::Addr;

/// Result of a cache lookup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Lookup {
    /// The line is present.
    Hit,
    /// The line is absent; the caller should fetch it from the next level
    /// and [`Cache::fill`] it.
    Miss,
}

/// Per-cache statistics, split by correct/wrong path.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct CacheStats {
    /// Hits per path.
    pub hits: PerPath,
    /// Misses per path.
    pub misses: PerPath,
    /// Lines evicted (any state).
    pub evictions: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses across both paths.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits.total() + self.misses.total()
    }

    /// Miss ratio across both paths (0 when there were no accesses).
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        let acc = self.accesses();
        if acc == 0 {
            0.0
        } else {
            self.misses.total() as f64 / acc as f64
        }
    }
}

#[derive(Clone, Copy, Default, Debug)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// LRU timestamp — larger is more recent.
    stamp: u64,
}

/// A single cache level.
///
/// The cache tracks presence, recency and dirtiness only — data contents
/// live in the functional simulator. Lookups and fills are attributed to a
/// [`PathKind`] so wrong-path pollution and prefetching effects can be
/// measured (the heart of the paper's evaluation).
///
/// # Examples
///
/// ```
/// use ffsim_uarch::{Cache, CacheConfig, Lookup, PathKind};
/// let cfg = CacheConfig { size_bytes: 1024, assoc: 2, line_bytes: 64, latency: 1 };
/// let mut c = Cache::new("L1D", cfg);
/// assert_eq!(c.lookup(0x40, false, PathKind::Correct), Lookup::Miss);
/// c.fill(0x40, false);
/// assert_eq!(c.lookup(0x40, false, PathKind::Correct), Lookup::Hit);
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    name: &'static str,
    cfg: CacheConfig,
    sets: Vec<Vec<Line>>,
    set_mask: u64,
    line_shift: u32,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see
    /// [`CacheConfig::num_sets`]).
    #[must_use]
    pub fn new(name: &'static str, cfg: CacheConfig) -> Cache {
        let sets = cfg.num_sets();
        assert!(cfg.line_bytes.is_power_of_two(), "line size power of two");
        Cache {
            name,
            cfg,
            sets: vec![vec![Line::default(); cfg.assoc as usize]; sets as usize],
            set_mask: sets - 1,
            line_shift: cfg.line_bytes.trailing_zeros(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache's display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The configured geometry.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn index(&self, addr: Addr) -> (usize, u64) {
        let line = addr >> self.line_shift;
        (
            (line & self.set_mask) as usize,
            line >> self.set_mask.count_ones(),
        )
    }

    /// Looks up `addr`, updating recency, dirtiness and statistics.
    ///
    /// A miss does *not* allocate — call [`Cache::fill`] after fetching
    /// from the next level, so multi-level hierarchies control allocation
    /// order themselves.
    pub fn lookup(&mut self, addr: Addr, is_write: bool, path: PathKind) -> Lookup {
        self.clock += 1;
        let (set_idx, tag) = self.index(addr);
        let clock = self.clock;
        for line in &mut self.sets[set_idx] {
            if line.valid && line.tag == tag {
                line.stamp = clock;
                line.dirty |= is_write;
                self.stats.hits.bump(path);
                return Lookup::Hit;
            }
        }
        self.stats.misses.bump(path);
        Lookup::Miss
    }

    /// Checks for presence without updating recency or statistics.
    #[must_use]
    pub fn probe(&self, addr: Addr) -> bool {
        let (set_idx, tag) = self.index(addr);
        self.sets[set_idx].iter().any(|l| l.valid && l.tag == tag)
    }

    /// Inserts the line containing `addr`, evicting the LRU line of its set
    /// if needed. Returns the evicted line's base address if the victim was
    /// dirty (the caller writes it back to the next level).
    pub fn fill(&mut self, addr: Addr, dirty: bool) -> Option<Addr> {
        self.clock += 1;
        let clock = self.clock;
        let (set_idx, tag) = self.index(addr);
        let set_bits = self.set_mask.count_ones();
        let set = &mut self.sets[set_idx];
        // Already present (e.g. racing fills): refresh in place.
        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.stamp = clock;
            line.dirty |= dirty;
            return None;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|l| if l.valid { l.stamp } else { 0 })
            .expect("associativity is non-zero");
        let mut evicted_dirty = None;
        if victim.valid {
            self.stats.evictions += 1;
            if victim.dirty {
                self.stats.writebacks += 1;
                let victim_line = (victim.tag << set_bits) | set_idx as u64;
                evicted_dirty = Some(victim_line << self.line_shift);
            }
        }
        *victim = Line {
            tag,
            valid: true,
            dirty,
            stamp: clock,
        };
        evicted_dirty
    }

    /// Invalidates all lines and resets recency (not statistics).
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            for line in set {
                *line = Line::default();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 2 sets * 2 ways * 64B lines.
        Cache::new(
            "test",
            CacheConfig {
                size_bytes: 256,
                assoc: 2,
                line_bytes: 64,
                latency: 1,
            },
        )
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        assert_eq!(c.lookup(0x1000, false, PathKind::Correct), Lookup::Miss);
        assert_eq!(c.fill(0x1000, false), None);
        assert_eq!(c.lookup(0x1000, false, PathKind::Correct), Lookup::Hit);
        assert_eq!(c.stats().hits.get(PathKind::Correct), 1);
        assert_eq!(c.stats().misses.get(PathKind::Correct), 1);
    }

    #[test]
    fn same_line_different_bytes_hit() {
        let mut c = small();
        c.fill(0x1000, false);
        assert_eq!(c.lookup(0x103f, false, PathKind::Correct), Lookup::Hit);
        assert_eq!(c.lookup(0x1040, false, PathKind::Correct), Lookup::Miss);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // All map to set 0: line addresses with bit 6 (set index) = 0.
        let a = 0x0000;
        let b = 0x0080;
        let d = 0x0100;
        c.fill(a, false);
        c.fill(b, false);
        // Touch a so b becomes LRU.
        assert_eq!(c.lookup(a, false, PathKind::Correct), Lookup::Hit);
        c.fill(d, false); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = small();
        c.fill(0x0000, false);
        assert_eq!(c.lookup(0x0000, true, PathKind::Correct), Lookup::Hit);
        c.fill(0x0080, false);
        // Evict set 0's LRU (0x0000, dirty).
        let evicted = c.fill(0x0100, false);
        assert_eq!(evicted, Some(0x0000));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn fill_with_dirty_flag() {
        let mut c = small();
        c.fill(0x0000, true);
        c.fill(0x0080, false);
        let evicted = c.fill(0x0100, false);
        assert_eq!(evicted, Some(0x0000));
    }

    #[test]
    fn wrong_path_stats_are_separate() {
        let mut c = small();
        let _ = c.lookup(0x0000, false, PathKind::Wrong);
        c.fill(0x0000, false);
        let _ = c.lookup(0x0000, false, PathKind::Correct);
        assert_eq!(c.stats().misses.get(PathKind::Wrong), 1);
        assert_eq!(c.stats().misses.get(PathKind::Correct), 0);
        assert_eq!(c.stats().hits.get(PathKind::Correct), 1);
    }

    #[test]
    fn probe_does_not_touch_recency_or_stats() {
        let mut c = small();
        c.fill(0x0000, false);
        c.fill(0x0080, false);
        // Probing 0x0000 must not refresh it.
        assert!(c.probe(0x0000));
        let stats_before = c.stats();
        c.fill(0x0100, false); // LRU is still 0x0000
        assert!(!c.probe(0x0000));
        assert_eq!(stats_before.accesses(), c.stats().accesses());
    }

    #[test]
    fn flush_invalidates_everything() {
        let mut c = small();
        c.fill(0x0000, true);
        c.flush();
        assert!(!c.probe(0x0000));
        assert_eq!(c.lookup(0x0000, false, PathKind::Correct), Lookup::Miss);
    }

    #[test]
    fn refill_existing_line_is_idempotent() {
        let mut c = small();
        c.fill(0x0000, false);
        assert_eq!(c.fill(0x0000, true), None);
        assert_eq!(c.stats().evictions, 0);
        // The in-place refresh merged the dirty bit.
        c.fill(0x0080, false);
        assert_eq!(c.fill(0x0100, false), Some(0x0000));
    }

    #[test]
    fn miss_ratio() {
        let mut c = small();
        let _ = c.lookup(0x0000, false, PathKind::Correct);
        c.fill(0x0000, false);
        let _ = c.lookup(0x0000, false, PathKind::Correct);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
    }
}
