//! Sparse, paged data memory for the functional emulator.
//!
//! Memory is a flat 64-bit byte-addressed space backed by 4 KiB pages that
//! are allocated on first write. Reads of never-written locations return
//! zero, like anonymous mmap'd memory; this keeps workload setup simple and
//! means wrong-path loads from wild addresses are always well-defined (they
//! read zeros) instead of faulting — matching the paper's requirement that
//! wrong-path emulation never perturbs functional state.
//!
//! [`Memory::digest`] is incremental. Every clone of one image shares a
//! memo of the digest's fold over that image, and each memory tracks the
//! lowest page it has written since it took its memo (its *clean mark*).
//! Pages below the clean mark equal the memo's image, so a digest resumes
//! from the memo's state there and folds only the pages at and above the
//! mark; a never-written clone of an already-digested image folds none.

use crate::hash::FxBuildHasher;
use ffsim_isa::fnv::{Fnv1a, OFFSET_BASIS};
use ffsim_isa::Addr;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Bytes per backing page.
pub const PAGE_BYTES: usize = 4096;

const PAGE_SHIFT: u32 = 12;
const PAGE_MASK: u64 = PAGE_BYTES as u64 - 1;

/// No page has been written since the memo was taken (page indices stop
/// at 2^52, so this is never a real page).
const ALL_CLEAN: u64 = u64::MAX;

/// How far the digest fold of one memory image has been computed.
#[derive(Debug, Default)]
struct Folded {
    /// `(page index, FNV-1a state after folding that page)` for the image's
    /// non-zero pages below `covered`, ascending.
    states: Vec<(u64, u64)>,
    /// Every non-zero page of the image below this index is in `states`
    /// ([`ALL_CLEAN`] once the whole image is).
    covered: u64,
}

impl Folded {
    /// The fold state after every non-zero page below `page`
    /// (`page <= covered`).
    fn state_below(&self, page: u64) -> u64 {
        let n = self.states.partition_point(|&(i, _)| i < page);
        n.checked_sub(1)
            .map_or(OFFSET_BASIS, |last| self.states[last].1)
    }

    /// The part of this fold that holds for any image equal to this one
    /// below page `clean`, with room for the states of `pages` pages.
    ///
    /// The room is reserved here, by the thread that makes the memo, so
    /// that clones digesting on other threads record into it without
    /// allocating: a memo outlives their work, and a long-lived block in
    /// a campaign worker's allocator arena keeps that arena from shrinking
    /// (it raised `campaign`'s peak RSS by about 2 MiB).
    fn below(&self, clean: u64, pages: usize) -> Folded {
        let covered = self.covered.min(clean);
        let n = self.states.partition_point(|&(i, _)| i < covered);
        let mut states = Vec::with_capacity(pages.max(n));
        states.extend_from_slice(&self.states[..n]);
        Folded { states, covered }
    }

    /// Records `learned`, the states of an image's non-zero pages from
    /// some page at or below `covered` up to `upto`, in ascending order.
    fn learn(&mut self, learned: &[(u64, u64)], upto: u64) {
        if upto > self.covered {
            let n = learned.partition_point(|&(i, _)| i < self.covered);
            self.states.extend_from_slice(&learned[n..]);
            self.covered = upto;
        }
    }
}

/// A digest memo, shared by every clone of one image.
type Memo = Arc<Mutex<Folded>>;

fn new_memo(folded: Folded) -> Memo {
    Arc::new(Mutex::new(folded))
}

/// Locks `memo`. Nothing panics while holding it, but a poisoned memo is
/// still consistent: it only ever grows by whole recorded prefixes.
fn lock(memo: &Memo) -> MutexGuard<'_, Folded> {
    memo.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-only data memory as instruction execution sees it: the
/// architectural [`Memory`] on the correct path, or a view of it as of an
/// earlier branch for lazily emulated wrong paths. Accesses are naturally
/// aligned (execution faults misaligned ones before reading).
pub(crate) trait MemRead {
    /// Reads `width` bytes at `addr` as a zero-extended `u64` (width ∈
    /// {1,2,4,8}).
    fn read_uint(&self, addr: Addr, width: u64) -> u64;

    /// Reads an `f64` (IEEE-754 bits, little-endian).
    fn read_f64(&self, addr: Addr) -> f64 {
        f64::from_bits(self.read_uint(addr, 8))
    }
}

impl MemRead for Memory {
    fn read_uint(&self, addr: Addr, width: u64) -> u64 {
        Memory::read_uint(self, addr, width)
    }

    fn read_f64(&self, addr: Addr) -> f64 {
        Memory::read_f64(self, addr)
    }
}

/// Sparse paged byte-addressable memory.
///
/// # Examples
///
/// ```
/// use ffsim_emu::Memory;
/// let mut m = Memory::new();
/// m.write_u64(0x1000, 0xdead_beef);
/// assert_eq!(m.read_u64(0x1000), 0xdead_beef);
/// assert_eq!(m.read_u64(0x9_0000), 0, "untouched memory reads as zero");
/// ```
#[derive(Debug)]
pub struct Memory {
    // Fx-hashed: every emulated load probes this map, and `digest()` sorts
    // page indices, so the hasher never shows in results.
    pages: HashMap<u64, Box<[u8; PAGE_BYTES]>, FxBuildHasher>,
    /// The digest memo of the image this memory was created or cloned as.
    memo: Memo,
    /// The lowest page index written since `memo` was taken
    /// ([`ALL_CLEAN`] if none): every page below it equals `memo`'s image.
    clean: u64,
    /// The memo of this memory's current image, made by the first clone
    /// after a write and shared by every clone until the next write.
    current: OnceLock<Memo>,
}

impl Default for Memory {
    fn default() -> Memory {
        Memory {
            pages: HashMap::default(),
            memo: new_memo(Folded::default()),
            clean: ALL_CLEAN,
            current: OnceLock::new(),
        }
    }
}

impl Clone for Memory {
    fn clone(&self) -> Memory {
        Memory {
            pages: self.pages.clone(),
            memo: Arc::clone(self.clone_memo()),
            clean: ALL_CLEAN,
            current: OnceLock::new(),
        }
    }
}

impl Memory {
    /// Creates an empty memory (all zeros).
    #[must_use]
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Number of pages that have been materialized by writes.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// A 64-bit FNV-1a digest of the logical memory contents.
    ///
    /// Pages are folded in ascending address order and all-zero pages are
    /// skipped, so the digest depends only on observable contents — two
    /// memories that read identically digest identically regardless of
    /// which pages happen to be resident. Used by the fault-injection
    /// harness to assert bit-identical final state across runs.
    ///
    /// The fold resumes from the memo this memory shares with its clones
    /// and folds only the pages written since it took that memo, plus
    /// clean pages no clone has folded yet (which it records for them).
    #[must_use]
    pub fn digest(&self) -> u64 {
        let (memo, clean) = self.image_memo();
        let (from, mut h) = {
            let folded = lock(memo);
            let from = clean.min(folded.covered);
            (from, folded.state_below(from))
        };
        if from == ALL_CLEAN {
            return h;
        }
        let mut indices: Vec<u64> = self
            .pages
            .iter()
            .filter(|&(&i, p)| i >= from && p.iter().any(|&b| b != 0))
            .map(|(&i, _)| i)
            .collect();
        indices.sort_unstable();
        // Folded outside the lock: clones on other threads may digest the
        // same image at the same time.
        let mut learned = Vec::new();
        for i in indices {
            h = Fnv1a::resume(h)
                .update(&i.to_le_bytes())
                .update(&self.pages[&i][..])
                .finish();
            if i < clean {
                learned.push((i, h));
            }
        }
        lock(memo).learn(&learned, clean);
        h
    }

    /// The memo of an image and the page below which this memory equals
    /// it: the current image's memo if a clone has made one, else the memo
    /// taken at creation or clone time and the clean mark.
    fn image_memo(&self) -> (&Memo, u64) {
        match self.current.get() {
            Some(current) => (current, ALL_CLEAN),
            None => (&self.memo, self.clean),
        }
    }

    /// The memo a clone shares: this memory's own if it was never written,
    /// else the current image's, made now from the clean prefix of its own
    /// if this is the first clone since a write.
    fn clone_memo(&self) -> &Memo {
        if self.clean == ALL_CLEAN {
            &self.memo
        } else {
            self.current
                .get_or_init(|| new_memo(lock(&self.memo).below(self.clean, self.pages.len())))
        }
    }

    /// Notes a write to page `idx`: the current image's memo (if a clone
    /// made one) becomes this memory's own, and the clean mark drops to
    /// `idx`.
    fn mark_written(&mut self, idx: u64) {
        if let Some(current) = self.current.take() {
            self.memo = current;
            self.clean = idx;
        } else if idx < self.clean {
            self.clean = idx;
        }
    }

    /// Reads a single byte.
    #[must_use]
    pub fn read_u8(&self, addr: Addr) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(p) => p[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Materializes the page containing `addr` and marks it written.
    fn page_mut(&mut self, addr: Addr) -> &mut [u8; PAGE_BYTES] {
        let idx = addr >> PAGE_SHIFT;
        self.mark_written(idx);
        self.pages
            .entry(idx)
            .or_insert_with(|| Box::new([0u8; PAGE_BYTES]))
    }

    /// Writes a single byte, materializing the page if needed.
    pub fn write_u8(&mut self, addr: Addr, value: u8) {
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = value;
    }

    /// Reads `N` little-endian bytes starting at `addr`.
    ///
    /// Accesses may straddle page boundaries.
    #[must_use]
    pub fn read_bytes<const N: usize>(&self, addr: Addr) -> [u8; N] {
        let mut out = [0u8; N];
        // Fast path: fully inside one page.
        let off = (addr & PAGE_MASK) as usize;
        if off + N <= PAGE_BYTES {
            if let Some(p) = self.pages.get(&(addr >> PAGE_SHIFT)) {
                out.copy_from_slice(&p[off..off + N]);
            }
            return out;
        }
        for (i, b) in out.iter_mut().enumerate() {
            *b = self.read_u8(addr.wrapping_add(i as u64));
        }
        out
    }

    /// Writes little-endian bytes starting at `addr`.
    ///
    /// Accesses may straddle page boundaries.
    pub fn write_bytes(&mut self, addr: Addr, bytes: &[u8]) {
        let off = (addr & PAGE_MASK) as usize;
        if off + bytes.len() <= PAGE_BYTES {
            self.page_mut(addr)[off..off + bytes.len()].copy_from_slice(bytes);
            return;
        }
        for (i, &b) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), b);
        }
    }

    /// Reads a little-endian `u16`.
    #[must_use]
    pub fn read_u16(&self, addr: Addr) -> u16 {
        u16::from_le_bytes(self.read_bytes(addr))
    }

    /// Reads a little-endian `u32`.
    #[must_use]
    pub fn read_u32(&self, addr: Addr) -> u32 {
        u32::from_le_bytes(self.read_bytes(addr))
    }

    /// Reads a little-endian `u64`.
    #[must_use]
    pub fn read_u64(&self, addr: Addr) -> u64 {
        u64::from_le_bytes(self.read_bytes(addr))
    }

    /// Reads an `f64` (IEEE-754 bits, little-endian).
    #[must_use]
    pub fn read_f64(&self, addr: Addr) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes a little-endian `u16`.
    pub fn write_u16(&mut self, addr: Addr, value: u16) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: Addr, value: u32) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: Addr, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Writes an `f64` (IEEE-754 bits, little-endian).
    pub fn write_f64(&mut self, addr: Addr, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// Reads `width` bytes as a zero-extended `u64` (width ∈ {1,2,4,8}).
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1, 2, 4 or 8.
    #[must_use]
    pub fn read_uint(&self, addr: Addr, width: u64) -> u64 {
        match width {
            1 => u64::from(self.read_u8(addr)),
            2 => u64::from(self.read_u16(addr)),
            4 => u64::from(self.read_u32(addr)),
            8 => self.read_u64(addr),
            w => panic!("unsupported access width {w}"),
        }
    }

    /// Writes the low `width` bytes of `value` (width ∈ {1,2,4,8}).
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1, 2, 4 or 8 (internal invariant: widths
    /// come from `MemWidth::bytes()`).
    pub fn write_uint(&mut self, addr: Addr, width: u64, value: u64) {
        match width {
            1 => self.write_bytes(addr, &[value as u8]),
            2 => self.write_bytes(addr, &(value as u16).to_le_bytes()),
            4 => self.write_bytes(addr, &(value as u32).to_le_bytes()),
            8 => self.write_bytes(addr, &value.to_le_bytes()),
            w => panic!("unsupported access width {w}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let m = Memory::new();
        assert_eq!(m.read_u64(0), 0);
        assert_eq!(m.read_u8(u64::MAX), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn roundtrip_all_widths() {
        let mut m = Memory::new();
        m.write_u8(0x10, 0xab);
        m.write_u16(0x20, 0xbeef);
        m.write_u32(0x30, 0xdead_beef);
        m.write_u64(0x40, 0x0123_4567_89ab_cdef);
        m.write_f64(0x50, -2.5);
        assert_eq!(m.read_u8(0x10), 0xab);
        assert_eq!(m.read_u16(0x20), 0xbeef);
        assert_eq!(m.read_u32(0x30), 0xdead_beef);
        assert_eq!(m.read_u64(0x40), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_f64(0x50), -2.5);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new();
        m.write_u32(0x100, 0x0403_0201);
        assert_eq!(m.read_u8(0x100), 1);
        assert_eq!(m.read_u8(0x103), 4);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = PAGE_BYTES as u64 - 4; // straddles first/second page
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn read_uint_widths() {
        let mut m = Memory::new();
        m.write_u64(0x200, 0xffff_ffff_ffff_ffff);
        assert_eq!(m.read_uint(0x200, 1), 0xff);
        assert_eq!(m.read_uint(0x200, 2), 0xffff);
        assert_eq!(m.read_uint(0x200, 4), 0xffff_ffff);
        assert_eq!(m.read_uint(0x200, 8), u64::MAX);
    }

    #[test]
    fn write_uint_partial() {
        let mut m = Memory::new();
        m.write_u64(0x300, u64::MAX);
        m.write_uint(0x300, 2, 0);
        assert_eq!(m.read_u64(0x300), 0xffff_ffff_ffff_0000);
    }

    #[test]
    #[should_panic(expected = "unsupported access width")]
    fn bad_width_panics() {
        let _ = Memory::new().read_uint(0, 3);
    }

    #[test]
    fn digest_tracks_logical_contents() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        assert_eq!(a.digest(), b.digest());
        a.write_u64(0x40, 77);
        assert_ne!(a.digest(), b.digest());
        b.write_u64(0x40, 77);
        // `b` also materializes (but zeroes) an unrelated page.
        b.write_u8(0x7000, 1);
        b.write_u8(0x7000, 0);
        assert_eq!(a.digest(), b.digest(), "zero pages are not observable");
        b.write_u64(0x40, 78);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn clones_share_one_memo_until_a_write() {
        let mut image = Memory::new();
        image.write_u64(0x1000, 7);
        image.write_u64(0x3000, 9);
        let a = image.clone();
        let b = image.clone();
        assert!(Arc::ptr_eq(&a.memo, &b.memo), "one memo per written image");
        let d = a.digest();
        assert_eq!(lock(&b.memo).covered, ALL_CLEAN, "a's fold is b's");
        assert_eq!((b.digest(), image.digest()), (d, d));
        let c = b.clone();
        assert!(Arc::ptr_eq(&b.memo, &c.memo), "an unwritten clone shares");

        image.write_u8(0x3000, 1);
        let e = image.clone();
        assert!(!Arc::ptr_eq(&e.memo, &a.memo), "a write drops the memo");
        let kept = lock(&e.memo).below(ALL_CLEAN, 0);
        assert_eq!((kept.covered, kept.states.len()), (3, 1), "page 1 kept");
        assert_ne!(e.digest(), d);
        assert_eq!(a.digest(), d);
    }

    #[test]
    fn concurrent_digests_of_one_image_agree() {
        let mut image = Memory::new();
        for page in 0..64u64 {
            image.write_u64(page << PAGE_SHIFT, page + 1);
        }
        let expect = image.clone().digest();
        image.write_u8(0, 0xff);
        let clones: Vec<Memory> = (0..4).map(|_| image.clone()).collect();
        // All four start folding the shared, empty memo at once.
        let start = std::sync::Barrier::new(clones.len());
        let digests: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = clones
                .iter()
                .map(|m| {
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        m.digest()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(digests.windows(2).all(|w| w[0] == w[1]), "{digests:?}");
        assert_ne!(digests[0], expect);
        let mut fresh = Memory::new();
        for page in 0..64u64 {
            fresh.write_u64(page << PAGE_SHIFT, page + 1);
        }
        fresh.write_u8(0, 0xff);
        assert_eq!(fresh.digest(), digests[0]);
    }
}
