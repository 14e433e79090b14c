//! Fast, non-cryptographic hashing used across the workspace.
//!
//! Bloom filters need two independent 64-bit hashes per value (double
//! hashing, Kirsch–Mitzenmacher). Because values are interned to stable
//! [`crate::ValueId`]s, it is enough — and much faster — to mix the id
//! itself instead of re-hashing the underlying string. Determinism per id is
//! exactly what preserves the subset property of Bloom filters (Section 4.1).

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
///
/// Passes the avalanche tests used for SplitMix64's output function; every
/// input bit affects every output bit.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A pair of independent 64-bit hashes for double hashing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hash128 {
    /// Base hash `h1`.
    pub h1: u64,
    /// Step hash `h2`; forced odd so that the double-hashing probe sequence
    /// `h1 + i·h2 (mod m)` cycles through all positions for power-of-two `m`.
    pub h2: u64,
}

impl Hash128 {
    /// Derives the hash pair for a stable 64-bit key (e.g. a value id).
    #[inline]
    pub fn of_key(key: u64) -> Self {
        let h1 = splitmix64(key);
        let h2 = splitmix64(h1 ^ 0x6A09_E667_F3BC_C909) | 1;
        Hash128 { h1, h2 }
    }

    /// The `i`-th probe position in a filter of `m` bits.
    #[inline]
    pub fn probe(&self, i: u32, m: u32) -> u32 {
        debug_assert!(m > 0);
        ((self.h1.wrapping_add(u64::from(i).wrapping_mul(self.h2))) % u64::from(m)) as u32
    }
}

/// FxHash-style string hash; used where we need a fast hash of raw bytes
/// (dictionary interning fast path).
#[inline]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let v = u64::from_le_bytes(c.try_into().expect("exact 8-byte chunk"));
        h = (h.rotate_left(5) ^ v).wrapping_mul(SEED);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut buf = [0u8; 8];
        buf[..rem.len()].copy_from_slice(rem);
        let v = u64::from_le_bytes(buf) ^ (rem.len() as u64) << 56;
        h = (h.rotate_left(5) ^ v).wrapping_mul(SEED);
    }
    splitmix64(h)
}

/// A `BuildHasher` for [`std::collections::HashMap`] that mixes `u32`/`u64`
/// keys with SplitMix64. Substantially faster than SipHash for the id-keyed
/// maps on hot paths (violation tracking, sliding-window count maps).
#[derive(Debug, Default, Clone, Copy)]
pub struct MixBuildHasher;

impl std::hash::BuildHasher for MixBuildHasher {
    type Hasher = MixHasher;

    #[inline]
    fn build_hasher(&self) -> MixHasher {
        MixHasher { state: 0 }
    }
}

/// Hasher produced by [`MixBuildHasher`].
#[derive(Debug)]
pub struct MixHasher {
    state: u64,
}

impl std::hash::Hasher for MixHasher {
    #[inline]
    fn finish(&self) -> u64 {
        splitmix64(self.state)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic fall-back; the fast paths below cover the id-keyed maps.
        self.state = self.state.rotate_left(7) ^ hash_bytes(bytes);
    }

    /// `str` keys end with `write_u8(0xff)`: without this the terminator
    /// would run a second `hash_bytes`.
    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.state = self.state.rotate_left(7) ^ u64::from(i);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.state = self.state.rotate_left(7) ^ u64::from(i);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.state = self.state.rotate_left(7) ^ i;
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// A `HashMap` keyed with the fast mixing hasher.
pub type FastMap<K, V> = std::collections::HashMap<K, V, MixBuildHasher>;
/// A `HashSet` keyed with the fast mixing hasher.
pub type FastSet<K> = std::collections::HashSet<K, MixBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hasher};

    #[test]
    fn splitmix_is_deterministic_and_disperses() {
        assert_eq!(splitmix64(42), splitmix64(42));
        let outs: HashSet<u64> = (0..10_000u64).map(splitmix64).collect();
        assert_eq!(outs.len(), 10_000, "no collisions on small consecutive keys");
    }

    #[test]
    fn hash128_h2_is_odd() {
        for key in 0..1000u64 {
            assert_eq!(Hash128::of_key(key).h2 & 1, 1);
        }
    }

    #[test]
    fn probes_stay_in_range_and_vary() {
        let h = Hash128::of_key(7);
        let m = 97;
        let probes: Vec<u32> = (0..10).map(|i| h.probe(i, m)).collect();
        assert!(probes.iter().all(|&p| p < m));
        let distinct: HashSet<u32> = probes.iter().copied().collect();
        assert!(distinct.len() > 5, "double hashing should not collapse");
    }

    #[test]
    fn hash_bytes_discriminates_lengths_and_content() {
        assert_ne!(hash_bytes(b""), hash_bytes(b"\0"));
        assert_ne!(hash_bytes(b"abc"), hash_bytes(b"abd"));
        assert_ne!(hash_bytes(b"abcdefgh"), hash_bytes(b"abcdefg"));
        assert_eq!(hash_bytes(b"hello world"), hash_bytes(b"hello world"));
    }

    #[test]
    fn fast_map_works_with_u32_keys() {
        let mut m: FastMap<u32, u32> = FastMap::default();
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&500], 1000);
    }

    #[test]
    fn mix_hasher_distinguishes_write_paths() {
        let b = MixBuildHasher;
        let mut h1 = b.build_hasher();
        h1.write_u32(5);
        let mut h2 = b.build_hasher();
        h2.write_u32(6);
        assert_ne!(h1.finish(), h2.finish());
    }

    /// `str`'s terminator byte is still mixed in, so adjacent string keys
    /// cannot trade bytes.
    #[test]
    fn mix_hasher_separates_string_boundaries() {
        let b = MixBuildHasher;
        assert_ne!(b.hash_one(("ab", "c")), b.hash_one(("a", "bc")));
        assert_ne!(b.hash_one(("", "x")), b.hash_one(("x", "")));
        assert_eq!(b.hash_one("key"), b.hash_one(String::from("key")));
    }
}
