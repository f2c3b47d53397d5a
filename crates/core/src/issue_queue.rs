//! Issue-queue occupancy for the timing model.
//!
//! The pipeline asks one question of the issue queue: "the queue is full,
//! so when does an entry leave?" It pops the earliest vacate cycle and
//! delays dispatch to it if that is later than the dispatch it already
//! has. [`IssueQueue`] answers exactly that with three tiers instead of a
//! general heap:
//!
//! * **Floor and dead count.** The *floor* is a lower bound on every later
//!   dispatch on this window (the owner keeps it that way, see
//!   [`IssueQueue::advance`]). An entry that vacates at or before it can
//!   never delay a dispatch, so it is only counted, and popping one
//!   reports the floor.
//! * **Cycle ring.** Entries in `(floor, floor + RING]` are counted per
//!   cycle in a power-of-two ring with an occupancy bitmap and a summary
//!   bitmap of its non-zero words; a pop takes the first occupied slot
//!   after the floor, and a search, clear or copy touches only occupied
//!   words.
//! * **Overflow.** Entries past the ring's horizon wait in a min-heap and
//!   move into the ring only when the floor brings the heap's minimum
//!   inside the horizon — one peek per advance.
//!
//! `RING` is 16384 cycles: the smallest power of two past which no
//! entry of any ffbench kernel vacates. With 1024, `pointer_chase`'s DRAM
//! chains sent half of its two million pushes (1.0M) to the heap, and
//! 4096 and 8192 still sent 128k and 54k; `stream_triad`, `spmv` and
//! GAP `bc` sent 196k, 2.4k and 10.8k at 1024 and none at 2048, and no
//! other kernel spilled at all.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cycles the ring covers past the floor (a power of two, a multiple of
/// 4096 so that the bitmap's words fill whole summary words).
const RING: usize = 16384;
const MASK: usize = RING - 1;
const WORDS: usize = RING / 64;
const GROUPS: usize = WORDS / 64;

/// Per-cycle entry counts over one ring's span, with a bitmap of the
/// non-zero slots and a summary bitmap of the non-zero bitmap words, so
/// that a search, a clear or a copy touches only occupied words. Boxed by
/// [`IssueQueue`] so that the queue itself stays a few words: the
/// pipeline moves the wrong-path scratch window in and out of its spare
/// slot on every episode.
#[derive(Clone, Debug)]
struct Ring {
    summary: [u64; GROUPS],
    occupied: [u64; WORDS],
    counts: [u32; RING],
}

impl Ring {
    fn boxed() -> Box<Ring> {
        Box::new(Ring {
            summary: [0; GROUPS],
            occupied: [0; WORDS],
            counts: [0; RING],
        })
    }

    fn add(&mut self, slot: usize) {
        self.counts[slot] += 1;
        let word = slot / 64;
        self.occupied[word] |= 1 << (slot % 64);
        self.summary[word / 64] |= 1 << (word % 64);
    }

    /// Clears `bits` of bitmap word `word`, and its summary bit if the
    /// word empties.
    fn unmark(&mut self, word: usize, bits: u64) {
        self.occupied[word] &= !bits;
        if self.occupied[word] == 0 {
            self.summary[word / 64] &= !(1 << (word % 64));
        }
    }

    fn take_one(&mut self, slot: usize) {
        self.counts[slot] -= 1;
        if self.counts[slot] == 0 {
            self.unmark(slot / 64, 1 << (slot % 64));
        }
    }

    /// Empties `span` consecutive slots starting at `start` (wrapping) and
    /// returns how many entries they held.
    fn drain(&mut self, start: usize, span: usize) -> usize {
        let mut slot = start;
        let mut left = span;
        let mut drained = 0;
        while left > 0 {
            let (word, bit) = (slot / 64, slot % 64);
            let take = (64 - bit).min(left);
            let mask = (u64::MAX >> (64 - take)) << bit;
            let mut hit = self.occupied[word] & mask;
            if hit != 0 {
                self.unmark(word, hit);
                while hit != 0 {
                    let s = word * 64 + hit.trailing_zeros() as usize;
                    drained += std::mem::take(&mut self.counts[s]) as usize;
                    hit &= hit - 1;
                }
            }
            slot = (slot + take) & MASK;
            left -= take;
        }
        drained
    }

    /// The occupied bitmap words, in index order.
    fn occupied_words(summary: [u64; GROUPS]) -> impl Iterator<Item = usize> {
        summary
            .into_iter()
            .enumerate()
            .flat_map(|(group, mut bits)| {
                std::iter::from_fn(move || {
                    (bits != 0).then(|| {
                        let word = group * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        word
                    })
                })
            })
    }

    /// Empties every slot. Touches only the occupied ones.
    fn clear(&mut self) {
        for word in Ring::occupied_words(std::mem::take(&mut self.summary)) {
            let mut hit = std::mem::take(&mut self.occupied[word]);
            while hit != 0 {
                self.counts[word * 64 + hit.trailing_zeros() as usize] = 0;
                hit &= hit - 1;
            }
        }
    }

    /// Makes this ring equal to `src`, given that this ring is empty.
    fn fill_from(&mut self, src: &Ring) {
        self.summary = src.summary;
        for word in Ring::occupied_words(src.summary) {
            let bits = src.occupied[word];
            self.occupied[word] = bits;
            let mut hit = bits;
            while hit != 0 {
                let s = word * 64 + hit.trailing_zeros() as usize;
                self.counts[s] = src.counts[s];
                hit &= hit - 1;
            }
        }
    }

    /// The first occupied slot at or after `start`, wrapping. The ring
    /// must hold at least one entry.
    fn first_from(&self, start: usize) -> usize {
        let first_word = start / 64;
        let head = self.occupied[first_word] & (u64::MAX << (start % 64));
        if head != 0 {
            return first_word * 64 + head.trailing_zeros() as usize;
        }
        // The next occupied word after the first, wrapping, from the
        // summary. The last step revisits the first summary word in full:
        // if that finds the first word again, its set bits all lie before
        // `start`.
        let next = (first_word + 1) % WORDS;
        let head = self.summary[next / 64] & (u64::MAX << (next % 64));
        let word = if head != 0 {
            next / 64 * 64 + head.trailing_zeros() as usize
        } else {
            (1..=GROUPS)
                .map(|i| (next / 64 + i) % GROUPS)
                .find_map(|g| {
                    let bits = self.summary[g];
                    (bits != 0).then(|| g * 64 + bits.trailing_zeros() as usize)
                })
                .expect("ring holds an entry")
        };
        word * 64 + self.occupied[word].trailing_zeros() as usize
    }
}

/// The vacate cycles of the entries in one window's issue queue, as an
/// exact multiset as far as dispatch can observe: `len` is exact, and a
/// pop returns the earliest vacate cycle, or the floor when that cycle is
/// at or below it.
///
/// The default queue is empty, has floor 0, and allocates nothing; the
/// ring is allocated on first use.
#[derive(Clone, Debug, Default)]
pub(crate) struct IssueQueue {
    /// Lower bound on every later dispatch on this window.
    floor: u64,
    /// Entries that vacate at or before `floor`.
    dead: usize,
    /// Entries counted in `ring`, all in `(floor, floor + RING]`.
    ring_len: usize,
    ring: Option<Box<Ring>>,
    /// Entries past `floor + RING`.
    overflow: BinaryHeap<Reverse<u64>>,
}

impl IssueQueue {
    /// The ring, allocated on first use.
    fn ring(&mut self) -> &mut Ring {
        self.ring.get_or_insert_with(Ring::boxed)
    }

    /// Number of entries in the queue.
    pub(crate) fn len(&self) -> usize {
        self.dead + self.ring_len + self.overflow.len()
    }

    /// The current floor.
    pub(crate) fn floor(&self) -> u64 {
        self.floor
    }

    /// Raises the floor to `floor`; a lower value leaves it unchanged.
    /// The caller guarantees that no later pop is compared against a
    /// dispatch below the floor it set.
    pub(crate) fn advance(&mut self, floor: u64) {
        if floor <= self.floor {
            return;
        }
        if self.ring_len > 0 {
            let span = floor - self.floor;
            let killed = if span >= RING as u64 {
                self.ring().clear();
                self.ring_len
            } else {
                let start = (self.floor + 1) as usize & MASK;
                self.ring().drain(start, span as usize)
            };
            self.ring_len -= killed;
            self.dead += killed;
        }
        self.floor = floor;
        let horizon = floor + RING as u64;
        while let Some(&Reverse(vacate)) = self.overflow.peek() {
            if vacate > horizon {
                break;
            }
            self.overflow.pop();
            self.push(vacate);
        }
    }

    /// Adds an entry that vacates at `vacate`.
    pub(crate) fn push(&mut self, vacate: u64) {
        if vacate <= self.floor {
            self.dead += 1;
        } else if vacate - self.floor <= RING as u64 {
            self.ring().add(vacate as usize & MASK);
            self.ring_len += 1;
        } else {
            self.overflow.push(Reverse(vacate));
        }
    }

    /// Removes the earliest-vacating entry and returns its vacate cycle,
    /// or the floor if that cycle is at or below the floor.
    ///
    /// # Panics
    ///
    /// If the queue is empty.
    pub(crate) fn pop_earliest(&mut self) -> u64 {
        if self.dead > 0 {
            self.dead -= 1;
            return self.floor;
        }
        if self.ring_len > 0 {
            let start = (self.floor + 1) as usize & MASK;
            let ring = self.ring();
            let slot = ring.first_from(start);
            ring.take_one(slot);
            self.ring_len -= 1;
            return self.floor + 1 + (slot.wrapping_sub(start) & MASK) as u64;
        }
        self.overflow.pop().expect("issue queue is non-empty").0
    }

    /// `clone_from` that reuses this queue's ring and heap allocations and
    /// touches only occupied ring slots.
    pub(crate) fn copy_from(&mut self, src: &IssueQueue) {
        self.floor = src.floor;
        self.dead = src.dead;
        self.overflow.clone_from(&src.overflow);
        if self.ring_len > 0 {
            self.ring().clear();
        }
        self.ring_len = src.ring_len;
        if src.ring_len > 0 {
            let from = src.ring.as_ref().expect("ring entries imply a ring");
            self.ring().fill_from(from);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference model: the general min-heap the queue replaces.
    #[derive(Clone, Default)]
    struct Reference {
        floor: u64,
        heap: BinaryHeap<Reverse<u64>>,
    }

    impl Reference {
        /// What `feed` observes of a pop: the popped cycle, raised to the
        /// floor.
        fn pop(&mut self) -> u64 {
            self.heap.pop().expect("non-empty").0.max(self.floor)
        }
    }

    const R: u64 = RING as u64;

    /// One generated step; `arg` picks the size of the step.
    fn step(
        kind: u8,
        arg: u64,
        cap: usize,
        q: &mut IssueQueue,
        r: &mut Reference,
        last_push: &mut u64,
    ) {
        match kind {
            // Floor advances: small steps, and jumps of a ring or more.
            0..=2 => {
                let delta = match kind {
                    0 => arg % 4,
                    1 => R - 2 + arg % 5,
                    _ => 3 * R + arg % 7,
                };
                r.floor += delta;
                q.advance(r.floor);
            }
            // Pushes below the floor, inside the ring, past the horizon,
            // and duplicates, each behind a pop-when-full as in `feed`.
            _ => {
                if q.len() >= cap {
                    assert_eq!(q.pop_earliest().max(r.floor), r.pop());
                }
                let vacate = match kind {
                    3 => r.floor.saturating_sub(arg % 8),
                    4 | 5 => r.floor + 1 + arg % R,
                    6 => r.floor + R + 1 + arg % (3 * R),
                    _ => *last_push,
                };
                q.push(vacate);
                r.heap.push(Reverse(vacate));
                *last_push = vacate;
            }
        }
    }

    proptest! {
        /// The queue agrees with a min-heap on everything dispatch
        /// observes — `len`, and a pop raised to the floor — through
        /// floor jumps, ring wrap-around, overflow refills, and
        /// wrong-path episodes run on copies of the queue.
        #[test]
        fn matches_reference_min_heap(
            ops in proptest::collection::vec((0u8..9, 0u64..1 << 20), 1..600),
            cap in 1usize..80,
        ) {
            let mut main = (IssueQueue::default(), Reference::default());
            // The recycled scratch queue of `Pipeline::begin_wrong_path`:
            // stale contents from the previous episode.
            let mut spare = IssueQueue::default();
            let mut episode: Option<(IssueQueue, Reference)> = None;
            let mut last_push = 0;
            for (i, &(kind, arg)) in ops.iter().enumerate() {
                match kind {
                    // Begin or end a wrong-path episode. Alternate between
                    // the derived clone and the allocation-reusing copy.
                    8 => match episode.take() {
                        None => {
                            let copy = if i % 2 == 0 {
                                main.0.clone()
                            } else {
                                let mut s = std::mem::take(&mut spare);
                                s.copy_from(&main.0);
                                s
                            };
                            episode = Some((copy, main.1.clone()));
                        }
                        Some((scratch, _)) => spare = scratch,
                    },
                    // Pop until empty.
                    7 if arg % 16 == 0 => {
                        let (q, r) = episode.as_mut().unwrap_or(&mut main);
                        while q.len() > 0 {
                            prop_assert_eq!(q.pop_earliest().max(r.floor), r.pop());
                        }
                    }
                    _ => {
                        let (q, r) = episode.as_mut().unwrap_or(&mut main);
                        step(kind, arg, cap, q, r, &mut last_push);
                    }
                }
                for (q, r) in std::iter::once(&main).chain(episode.as_ref()) {
                    prop_assert_eq!(q.len(), r.heap.len());
                    prop_assert_eq!(q.floor(), r.floor);
                }
            }
        }
    }

    /// Entries on both sides of the ring's horizon, popped through floor
    /// jumps that move the overflow into the ring and past the floor.
    #[test]
    fn horizon_boundary_matches_reference() {
        let mut q = IssueQueue::default();
        let mut r = Reference::default();
        fn push(q: &mut IssueQueue, r: &mut Reference, vacate: u64) {
            q.push(vacate);
            r.heap.push(Reverse(vacate));
        }
        let floor = 5 * R + 17;
        q.advance(floor);
        r.floor = floor;
        for offset in [R - 1, R, R + 1, R - 1, R + 1] {
            push(&mut q, &mut r, floor + offset);
        }
        assert_eq!(
            q.ring_len, 3,
            "floor + RING - 1 and floor + RING are in the ring"
        );
        assert_eq!(q.overflow.len(), 2, "floor + RING + 1 overflows");
        // Pop the earliest, then let the floor reach each boundary in turn.
        assert_eq!(q.pop_earliest().max(r.floor), r.pop());
        for jump in [1, R - 2, 1, 1] {
            r.floor += jump;
            q.advance(r.floor);
            assert_eq!(q.len(), r.heap.len());
            assert_eq!(q.pop_earliest().max(r.floor), r.pop());
            // Refill at the new horizon, and below the floor.
            let floor = r.floor;
            push(&mut q, &mut r, floor + R + 1);
            push(&mut q, &mut r, floor + R);
            push(&mut q, &mut r, floor - 1);
        }
        // A jump past the whole ring, then drain.
        r.floor += 2 * R;
        q.advance(r.floor);
        while q.len() > 0 {
            assert_eq!(q.pop_earliest().max(r.floor), r.pop());
        }
        assert!(r.heap.is_empty());
    }

    #[test]
    fn default_queue_allocates_nothing() {
        let q = IssueQueue::default();
        assert!(q.ring.is_none());
        assert_eq!(q.overflow.capacity(), 0);
    }
}
