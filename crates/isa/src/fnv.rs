//! FNV-1a: the one stable hash the workspace shares.
//!
//! Program text digests, emulator state and memory digests, fuzz corpus
//! entry names, the driver's manifest and journal checksum trailers, its
//! cache content digests, the wire protocol's request ids, and retry
//! jitter all need the same thing: a dependency-free hash that is stable
//! across platforms, Rust versions, and releases, because its outputs are
//! persisted (`#checksum` trailers, cache keys, corpus file names) or
//! pinned (digests in committed expectations). This module is the only
//! implementation; the known-answer test below pins the function to the
//! published FNV-1a vectors so an accidental change breaks loudly instead
//! of silently invalidating every on-disk artifact.
//!
//! This is a tripwire, not cryptography: it catches truncation, bit flips,
//! and schema drift, and makes no adversarial claims.

/// FNV-1a 64-bit offset basis.
pub const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const PRIME: u64 = 0x0000_0100_0000_01b3;

/// One-shot FNV-1a over `bytes`.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv1a::new().update(bytes).finish()
}

/// Streaming FNV-1a hasher for callers that digest several fields without
/// concatenating them first (e.g. retry jitter hashes a job id followed by
/// the attempt number). Feeding the same bytes in any split produces the
/// same hash as [`fnv1a`] over their concatenation.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// A fresh hasher at the offset basis.
    #[must_use]
    pub fn new() -> Fnv1a {
        Fnv1a(OFFSET_BASIS)
    }

    /// A hasher that continues an earlier FNV-1a hash from its value
    /// `state`: FNV-1a has no finalization step, so resuming from the hash
    /// of `a` and folding `b` gives the hash of `a` followed by `b`.
    #[must_use]
    pub fn resume(state: u64) -> Fnv1a {
        Fnv1a(state)
    }

    /// Folds `bytes` into the hash; returns `self` for chaining.
    #[inline]
    #[must_use]
    pub fn update(mut self, bytes: &[u8]) -> Fnv1a {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
        self
    }

    /// The current hash value.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer_vectors() {
        // Published FNV-1a 64-bit test vectors (Fowler/Noll/Vo reference
        // implementation). If any of these change, every persisted
        // artifact — checksum trailers, cache keys, recorded backoffs —
        // silently invalidates; this test makes it loud.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let whole = fnv1a(b"job-7:3");
        let split = Fnv1a::new().update(b"job-7").update(b":3").finish();
        assert_eq!(whole, split);
    }
}
