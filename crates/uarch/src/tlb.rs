//! Translation lookaside buffers.
//!
//! A small fully-associative LRU TLB per access stream (instruction and
//! data). The simulated machine is physically addressed, so the TLB only
//! models the *timing* of translation: a miss charges a fixed page-walk
//! latency.

use crate::config::TlbConfig;
use crate::path::{PathKind, PerPath};
use ffsim_isa::Addr;

/// TLB statistics, split by path.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct TlbStats {
    /// Hits per path.
    pub hits: PerPath,
    /// Misses (page walks) per path.
    pub misses: PerPath,
}

/// A fully-associative, LRU translation lookaside buffer.
///
/// # Examples
///
/// ```
/// use ffsim_uarch::{Tlb, TlbConfig, PathKind};
/// let mut tlb = Tlb::new(TlbConfig { entries: 2, page_bytes: 4096, walk_latency: 20 });
/// assert_eq!(tlb.access(0x1000, PathKind::Correct), 20, "cold miss walks");
/// assert_eq!(tlb.access(0x1fff, PathKind::Correct), 0, "same page hits");
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    cfg: TlbConfig,
    page_shift: u32,
    /// Resident page numbers, one per slot. Slots fill in order and are
    /// reused in place once all `entries` are taken.
    pages: Vec<u64>,
    /// LRU stamp of each slot: the clock of its last access. Stamps are
    /// unique, so the least-recent slot — the victim — is exact.
    stamps: Vec<u64>,
    /// A slot guess per page bucket: the slot where a page of the bucket
    /// last hit or was filled. A guess is checked against `pages`, so a
    /// stale one (another page of the bucket came since) only costs the
    /// scan; it never decides a hit or a victim. There are twice as many
    /// buckets as slots, so few resident pages share one.
    hints: Vec<u32>,
    /// `64 - log2(hints.len())`: a page's bucket is the top bits of the
    /// page number times 2^64 / φ, which spreads strided pages evenly.
    hint_shift: u32,
    clock: u64,
    stats: TlbStats,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or the page size is not a power of two.
    #[must_use]
    pub fn new(cfg: TlbConfig) -> Tlb {
        assert!(cfg.entries > 0, "TLB must have entries");
        assert!(
            cfg.page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        let buckets = (2 * cfg.entries).next_power_of_two().max(2);
        Tlb {
            cfg,
            page_shift: cfg.page_bytes.trailing_zeros(),
            pages: Vec::with_capacity(cfg.entries),
            stamps: Vec::with_capacity(cfg.entries),
            hints: vec![0; buckets],
            hint_shift: 64 - buckets.trailing_zeros(),
            clock: 0,
            stats: TlbStats::default(),
        }
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Translates `addr`, returning the extra latency (0 on a hit, the
    /// configured walk latency on a miss). Misses allocate, evicting the
    /// least recently used entry when the TLB is full.
    pub fn access(&mut self, addr: Addr, path: PathKind) -> u64 {
        self.clock += 1;
        let page = addr >> self.page_shift;
        let bucket = (page.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.hint_shift) as usize;
        let hint = self.hints[bucket] as usize;
        let slot = if self.pages.get(hint) == Some(&page) {
            Some(hint)
        } else {
            position(&self.pages, page)
        };
        if let Some(slot) = slot {
            self.stamps[slot] = self.clock;
            self.hints[bucket] = slot as u32;
            self.stats.hits.bump(path);
            return 0;
        }
        self.stats.misses.bump(path);
        let slot = if self.pages.len() < self.cfg.entries {
            self.pages.push(page);
            self.stamps.push(self.clock);
            self.pages.len() - 1
        } else {
            let oldest = self.stamps.iter().min().copied().expect("non-empty");
            let victim = position(&self.stamps, oldest).expect("the minimum is present");
            self.pages[victim] = page;
            self.stamps[victim] = self.clock;
            victim
        };
        self.hints[bucket] = slot as u32;
        self.cfg.walk_latency
    }
}

/// The index of `x` in `xs`: whole blocks of 8 are compared without an
/// early exit (so they vectorize) until one holds `x`.
fn position(xs: &[u64], x: u64) -> Option<usize> {
    const BLOCK: usize = 8;
    let mut base = 0;
    for block in xs.chunks_exact(BLOCK) {
        if block.iter().fold(false, |hit, &y| hit | (y == x)) {
            break;
        }
        base += BLOCK;
    }
    xs[base..].iter().position(|&y| y == x).map(|n| base + n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb(entries: usize) -> Tlb {
        Tlb::new(TlbConfig {
            entries,
            page_bytes: 4096,
            walk_latency: 25,
        })
    }

    #[test]
    fn hit_after_walk() {
        let mut t = tlb(4);
        assert_eq!(t.access(0x12345, PathKind::Correct), 25);
        assert_eq!(t.access(0x12345, PathKind::Correct), 0);
        assert_eq!(t.stats().hits.get(PathKind::Correct), 1);
        assert_eq!(t.stats().misses.get(PathKind::Correct), 1);
    }

    #[test]
    fn lru_replacement() {
        let mut t = tlb(2);
        let page = |n: u64| n * 4096;
        assert_eq!(t.access(page(1), PathKind::Correct), 25);
        assert_eq!(t.access(page(2), PathKind::Correct), 25);
        // Touch page 1 → page 2 becomes LRU.
        assert_eq!(t.access(page(1), PathKind::Correct), 0);
        assert_eq!(t.access(page(3), PathKind::Correct), 25);
        assert_eq!(t.access(page(2), PathKind::Correct), 25, "page 2 evicted");
        assert_eq!(
            t.access(page(1), PathKind::Correct),
            25,
            "page 1 now evicted"
        );
    }

    /// The TLB sizes of the modelled cores' DTLB (96) and ITLB (128).
    const SIZES: [usize; 2] = [96, 128];

    fn page(n: u64) -> u64 {
        n * 4096
    }

    #[test]
    fn cyclic_sweep_one_past_capacity_always_misses() {
        // LRU evicts exactly the page the sweep needs next.
        for entries in SIZES {
            let mut t = tlb(entries);
            let pages = entries as u64 + 1;
            for n in 0..3 * pages {
                assert_eq!(
                    t.access(page(n % pages), PathKind::Correct),
                    25,
                    "{entries}: {n}"
                );
            }
            assert_eq!(t.stats().hits.get(PathKind::Correct), 0);
            assert_eq!(t.stats().misses.get(PathKind::Correct), 3 * pages);
        }
    }

    #[test]
    fn cyclic_sweep_at_capacity_misses_only_cold() {
        for entries in SIZES {
            let mut t = tlb(entries);
            let pages = entries as u64;
            for n in 0..3 * pages {
                let _ = t.access(page(n % pages), PathKind::Correct);
            }
            assert_eq!(t.stats().misses.get(PathKind::Correct), pages);
            assert_eq!(t.stats().hits.get(PathKind::Correct), 2 * pages);
        }
    }

    #[test]
    fn retouched_oldest_page_makes_second_oldest_the_victim() {
        for entries in SIZES {
            let mut t = tlb(entries);
            let pages = entries as u64;
            for n in 0..pages {
                assert_eq!(t.access(page(n), PathKind::Correct), 25);
            }
            // Page 0 is the oldest; touching it leaves page 1 the oldest.
            assert_eq!(t.access(page(0), PathKind::Correct), 0);
            assert_eq!(t.access(page(pages), PathKind::Correct), 25, "fill evicts");
            // Every page but 1 is still resident (hits evict nothing)...
            for n in (0..=pages).filter(|&n| n != 1) {
                assert_eq!(
                    t.access(page(n), PathKind::Correct),
                    0,
                    "{entries}: page {n}"
                );
            }
            // ...and page 1 walks again.
            assert_eq!(t.access(page(1), PathKind::Correct), 25, "page 1 evicted");
        }
    }

    #[test]
    fn wrong_path_walks_are_attributed() {
        let mut t = tlb(4);
        let _ = t.access(0x5000, PathKind::Wrong);
        assert_eq!(t.stats().misses.get(PathKind::Wrong), 1);
        assert_eq!(t.stats().misses.get(PathKind::Correct), 0);
        // And the wrong-path walk warms the TLB for the correct path —
        // the interference effect the paper studies.
        assert_eq!(t.access(0x5abc, PathKind::Correct), 0);
    }
}
