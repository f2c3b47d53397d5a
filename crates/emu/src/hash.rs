//! A minimal multiply-rotate hasher for the simulator's hot lookup maps.
//!
//! The standard library's default hasher (SipHash-1-3) is keyed and
//! DoS-resistant, which the simulator does not need: its hot maps are
//! keyed by *program addresses* — small, trusted integers derived from the
//! workload's own text and data segments. Profiling (`perf_attrib`)
//! showed the per-lookup SipHash cost dominating such maps, so the
//! emulator's page map uses this hasher instead. The construction is the
//! familiar rotate-xor-multiply mix used by rustc's FxHash family; it is
//! **not** collision-resistant against adversarial keys and must only be
//! used for trusted-key maps.

use std::hash::{BuildHasherDefault, Hasher};

/// [`std::hash::BuildHasher`] producing [`FxHasher`]s — drop this into the
/// third type parameter of a `HashMap` whose keys are trusted integers.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Multiplicative mix constant (the 64-bit golden-ratio-derived constant
/// used by the FxHash family).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The hasher state: a single 64-bit accumulator.
#[derive(Clone, Copy, Default, Debug)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic path for composite keys: fold 8-byte words, then the
        // tail. Hot paths use the fixed-width methods below.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut tail = 0u64;
        for (i, &b) in chunks.remainder().iter().enumerate() {
            tail |= u64::from(b) << (8 * i);
        }
        if !chunks.remainder().is_empty() {
            self.add(tail);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn map_roundtrips_addresses() {
        let mut m: HashMap<u64, u32, FxBuildHasher> = HashMap::default();
        for pc in (0x1_0000u64..0x1_1000).step_by(4) {
            m.insert(pc, (pc & 0xffff) as u32);
        }
        assert_eq!(m.len(), 0x1000 / 4);
        assert_eq!(m.get(&0x1_0004), Some(&0x0004));
        assert_eq!(m.get(&0x2_0000), None);
    }

    #[test]
    fn hash_is_deterministic_and_spreads() {
        let h = |v: u64| {
            let mut hasher = FxHasher::default();
            hasher.write_u64(v);
            hasher.finish()
        };
        assert_eq!(h(42), h(42));
        // Word-aligned pcs differing only in low bits must not collide in
        // the upper bits the hashmap consumes.
        assert_ne!(h(0x1_0000) >> 32, h(0x1_0004) >> 32);
    }

    #[test]
    fn generic_write_handles_tails() {
        let h = |bytes: &[u8]| {
            let mut hasher = FxHasher::default();
            hasher.write(bytes);
            hasher.finish()
        };
        assert_ne!(h(b"abcdefgh"), h(b"abcdefg"));
        assert_ne!(h(b"abcdefghi"), h(b"abcdefgh"));
    }
}
