//! Memory as of an earlier branch: the correct-path store undo log.
//!
//! Lazy wrong-path emulation runs a branch's wrong path only when the
//! timing model detects the misprediction, by which time the functional
//! frontend has run up to `queue_depth + handoff_batch` correct-path
//! instructions past the branch. Wrong-path loads must still read memory
//! as it was right after the branch (paper §III-B: the wrong path runs
//! from a checkpoint at the branch, with stores suppressed). [`StoreLog`]
//! records the bytes every correct-path store overwrote; [`MemAsOf`]
//! reads [`Memory`] through the log, patching back the bytes that stores
//! newer than the branch overwrote.

use crate::mem::{MemRead, Memory};
use ffsim_isa::Addr;
use std::collections::VecDeque;

/// Filter buckets: a power of two, so a bucket is the top bits of a
/// multiplicative hash of the 8-byte word address.
const BUCKET_BITS: u32 = 12;

/// One logged correct-path store: what it overwrote.
#[derive(Clone, Copy, Debug)]
struct LoggedStore {
    /// Sequence number of the storing instruction.
    seq: u64,
    /// Byte address (naturally aligned to `width`).
    addr: Addr,
    /// Store width in bytes (1, 2, 4 or 8).
    width: u64,
    /// The `width` bytes at `addr` before the store, little-endian.
    old: u64,
}

/// Correct-path stores newer than the oldest branch whose wrong path may
/// still be emulated, oldest first.
///
/// A per-bucket count keyed by word address filters the common case: a
/// load whose word no logged store touched reads [`Memory`] directly.
#[derive(Clone, Debug)]
pub(crate) struct StoreLog {
    entries: VecDeque<LoggedStore>,
    counts: Box<[u32]>,
}

impl Default for StoreLog {
    fn default() -> StoreLog {
        StoreLog {
            entries: VecDeque::new(),
            counts: vec![0; 1 << BUCKET_BITS].into_boxed_slice(),
        }
    }
}

/// The filter bucket of the aligned 8-byte word holding `addr`.
fn bucket(addr: Addr) -> usize {
    ((addr >> 3).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - BUCKET_BITS)) as usize
}

/// The low `width` bytes of a word, as a bit mask.
fn byte_mask(width: u64) -> u64 {
    if width >= 8 {
        u64::MAX
    } else {
        (1 << (8 * width)) - 1
    }
}

impl StoreLog {
    /// Logs that the store of instruction `seq` overwrote `old`, the
    /// `width` bytes at `addr`.
    pub(crate) fn record(&mut self, seq: u64, addr: Addr, width: u64, old: u64) {
        debug_assert!(self.entries.back().is_none_or(|e| e.seq <= seq));
        self.counts[bucket(addr)] += 1;
        self.entries.push_back(LoggedStore {
            seq,
            addr,
            width,
            old,
        });
    }

    /// Drops every store of an instruction at or before `seq`: no wrong
    /// path from a branch that old will be emulated any more.
    pub(crate) fn prune_through(&mut self, seq: u64) {
        while let Some(e) = self.entries.front() {
            if e.seq > seq {
                break;
            }
            self.counts[bucket(e.addr)] -= 1;
            self.entries.pop_front();
        }
    }

    /// Number of logged stores.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Undoes, in `now` (the `width` bytes at `addr` as memory holds them
    /// now), every byte that a store newer than instruction `after`
    /// overwrote. The oldest such store saw the byte as it was after
    /// `after`, so it wins.
    fn undo(&self, now: u64, addr: Addr, width: u64, after: u64) -> u64 {
        let word = addr & !7;
        let shift = 8 * (addr & 7);
        let want = byte_mask(width) << shift;
        let mut value = now << shift;
        let mut patched = 0u64;
        let first = self.entries.partition_point(|e| e.seq <= after);
        for e in self.entries.range(first..) {
            if e.addr & !7 != word {
                continue;
            }
            let at = 8 * (e.addr & 7);
            let take = (byte_mask(e.width) << at) & want & !patched;
            if take != 0 {
                value = (value & !take) | ((e.old << at) & take);
                patched |= take;
                if patched == want {
                    break;
                }
            }
        }
        (value & want) >> shift
    }
}

/// Memory as it was right after correct-path instruction `after`: the
/// architectural [`Memory`] with the bytes later logged stores overwrote
/// patched back. Without a log it is the memory as it is now.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MemAsOf<'a> {
    mem: &'a Memory,
    log: Option<&'a StoreLog>,
    after: u64,
}

impl<'a> MemAsOf<'a> {
    /// `mem` as of right after instruction `after`, rewound through `log`.
    pub(crate) fn new(mem: &'a Memory, log: Option<&'a StoreLog>, after: u64) -> MemAsOf<'a> {
        MemAsOf { mem, log, after }
    }
}

impl MemRead for MemAsOf<'_> {
    fn read_uint(&self, addr: Addr, width: u64) -> u64 {
        let now = self.mem.read_uint(addr, width);
        match self.log {
            Some(log) if log.counts[bucket(addr)] != 0 => log.undo(now, addr, width, self.after),
            _ => now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Applies a store to `mem`, logging what it overwrote.
    fn store(mem: &mut Memory, log: &mut StoreLog, seq: u64, addr: Addr, width: u64, v: u64) {
        log.record(seq, addr, width, mem.read_uint(addr, width));
        mem.write_uint(addr, width, v);
    }

    #[test]
    fn oldest_newer_store_wins_byte_by_byte() {
        let mut mem = Memory::new();
        let mut log = StoreLog::default();
        mem.write_u64(0x100, 0x1111_1111_1111_1111);
        store(&mut mem, &mut log, 3, 0x100, 8, 0x2222_2222_2222_2222);
        store(&mut mem, &mut log, 5, 0x102, 2, 0x3333);
        store(&mut mem, &mut log, 7, 0x100, 8, 0x4444_4444_4444_4444);
        let at = |after| MemAsOf::new(&mem, Some(&log), after).read_uint(0x100, 8);
        assert_eq!(at(7), 0x4444_4444_4444_4444);
        assert_eq!(at(5), 0x2222_2222_3333_2222);
        assert_eq!(at(4), 0x2222_2222_2222_2222);
        assert_eq!(at(2), 0x1111_1111_1111_1111);
        // Sub-word loads see their own bytes only.
        let half = |after| MemAsOf::new(&mem, Some(&log), after).read_uint(0x102, 2);
        assert_eq!(half(4), 0x2222);
        assert_eq!(half(5), 0x3333);
        assert_eq!(MemAsOf::new(&mem, Some(&log), 4).read_uint(0x106, 1), 0x22);
    }

    #[test]
    fn stores_that_materialize_pages_undo_to_zero() {
        let mut mem = Memory::new();
        let mut log = StoreLog::default();
        store(&mut mem, &mut log, 9, 0x7_0008, 4, 0xdead_beef);
        let view = MemAsOf::new(&mem, Some(&log), 8);
        assert_eq!(view.read_uint(0x7_0008, 8), 0);
        assert_eq!(view.read_f64(0x7_0008), 0.0);
        assert_eq!(
            MemAsOf::new(&mem, Some(&log), 9).read_uint(0x7_0008, 4),
            0xdead_beef
        );
    }

    #[test]
    fn pruning_drops_old_stores_and_clears_the_filter() {
        let mut mem = Memory::new();
        let mut log = StoreLog::default();
        store(&mut mem, &mut log, 1, 0x40, 8, 1);
        store(&mut mem, &mut log, 2, 0x48, 8, 2);
        log.prune_through(1);
        assert_eq!(log.len(), 1);
        assert_eq!(
            log.counts[bucket(0x40)],
            u32::from(bucket(0x40) == bucket(0x48))
        );
        log.prune_through(2);
        assert_eq!(log.len(), 0);
        assert!(log.counts.iter().all(|&c| c == 0));
        // Without newer stores the view is the memory itself.
        assert_eq!(MemAsOf::new(&mem, Some(&log), 0).read_uint(0x48, 8), 2);
        assert_eq!(MemAsOf::new(&mem, None, 0).read_uint(0x40, 8), 1);
    }
}
