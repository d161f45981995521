//! Deterministic hashing primitives for content-addressed cache keys.
//!
//! The STF builder derives every task's cache key from these; the result
//! cache and the runtime reuse them to fingerprint buffer contents. Both
//! are tiny, dependency-free and stable across platforms:
//!
//! * **FNV-1a** (64-bit) — the audit layer's and the bench replay's
//!   schedule hashes fold the same constants;
//! * **splitmix64's finalizer** — a full-avalanche bijection used to
//!   derive per-output data versions from a task key.

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice.
pub fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a folding whole 64-bit words (one multiply per word).
pub fn fnv1a_words(words: &[u64]) -> u64 {
    let mut h = FNV_OFFSET;
    for &w in words {
        h ^= w;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// splitmix64 finalizer: a cheap full-avalanche mix.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vector() {
        // Well-known FNV-1a test vectors.
        assert_eq!(fnv1a_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn mix64_is_injective_on_small_range() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix64(i)));
        }
    }

    #[test]
    fn word_fold_differs_from_permutations() {
        assert_ne!(fnv1a_words(&[1, 2]), fnv1a_words(&[2, 1]));
        assert_ne!(fnv1a_words(&[0]), fnv1a_words(&[0, 0]));
    }
}
