//! A fast, non-cryptographic hasher for hot hash maps.
//!
//! The debugger's inner loops (pair-state maps, inverted indexes, overlap
//! databases) hash small integer keys millions of times. `SipHash`, the
//! standard-library default, is needlessly slow for this; we implement the
//! well-known FxHash multiply-xor scheme (as used by rustc) instead of
//! pulling in an external crate.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Firefox/rustc FxHash implementation.
const SEED64: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style streaming hasher: `state = (state.rotate_left(5) ^ word) * SEED`.
#[derive(Default, Clone)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED64);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Creates an empty [`FxHashMap`].
pub fn fx_map<K, V>() -> FxHashMap<K, V> {
    FxHashMap::default()
}

/// Creates an empty [`FxHashMap`] with capacity.
pub fn fx_map_with_capacity<K, V>(cap: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(cap, FxBuildHasher::default())
}

/// Creates an empty [`FxHashSet`].
pub fn fx_set<T>() -> FxHashSet<T> {
    FxHashSet::default()
}

/// Creates an empty [`FxHashSet`] with capacity.
pub fn fx_set_with_capacity<T>(cap: usize) -> FxHashSet<T> {
    FxHashSet::with_capacity_and_hasher(cap, FxBuildHasher::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m = fx_map();
        for i in 0..1000u64 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&500), Some(&1000));
    }

    #[test]
    fn hash_is_deterministic() {
        let mut h1 = FxHasher::default();
        let mut h2 = FxHasher::default();
        h1.write_u64(42);
        h2.write_u64(42);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn distinct_keys_usually_distinct_hashes() {
        let mut seen = HashSet::new();
        for i in 0..10_000u64 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            seen.insert(h.finish());
        }
        // No collisions expected over a tiny dense range.
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn byte_stream_tail_is_hashed() {
        let mut h1 = FxHasher::default();
        h1.write(b"abcdefghi"); // 8-byte chunk + 1 tail byte
        let mut h2 = FxHasher::default();
        h2.write(b"abcdefghj");
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn set_roundtrip() {
        let mut s = fx_set_with_capacity(4);
        assert!(s.insert("x"));
        assert!(!s.insert("x"));
        assert!(s.contains("x"));
        let m: FxHashMap<u32, u32> = fx_map_with_capacity(8);
        assert!(m.capacity() >= 8);
    }
}
