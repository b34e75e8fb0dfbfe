//! Fast non-cryptographic hashing for topology-sized maps, and the two
//! run-stable mixers ([`mix64`], [`fnv1a`]) every layer seeds and
//! fingerprints with.
//!
//! A CAIDA-scale graph resolves ~80k ASNs through `asn_to_idx` while
//! loading and every `Topology::idx` call afterwards; SipHash (std's
//! default) is the wrong tool for 4-byte integer keys the topology itself
//! produced. This is the same FxHash-style multiplicative hasher the
//! engine uses for its intern tables, hoisted to the bottom of the crate
//! stack so every layer can share it. Not DoS-resistant — keys here are
//! simulator-internal, never attacker-controlled.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A fast multiplicative (FxHash-style) hasher for small integer keys.
#[derive(Debug, Default, Clone)]
pub struct FxHasher(u64);

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche so the map's bucket-index truncation sees
        // well-mixed low bits even for tiny keys.
        let mut x = self.0;
        x ^= x >> 32;
        x = x.wrapping_mul(0xd6e8_feb8_6659_fd93);
        x ^= x >> 32;
        x
    }
}

/// `HashMap` with the fast topology hasher.
pub type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` with the fast topology hasher.
pub type FxSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// splitmix64 — the deterministic mixer behind salted tiebreaks,
/// scheduling phases and per-group RNG seeds. (Private hashing that must
/// not depend on `std`'s hasher stability.)
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a 64 over a byte stream — stable across runs and platforms, so
/// digests, checkpoint checksums and path fingerprints can be pinned.
#[inline]
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// [`fnv1a`] carried on from `h`, the hash of the bytes before these:
/// `fnv1a_extend(fnv1a(a), b)` is `fnv1a` of `a` then `b`, so a stream
/// that arrives in pieces is hashed as they arrive.
#[inline]
pub fn fnv1a_extend(h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_splitmix64() {
        // The reference generator's first outputs from state 0: every
        // seeded schedule, tiebreak and pinned digest hangs off these.
        assert_eq!(mix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(mix64(0x9e37_79b9_7f4a_7c15), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a([]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(*b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_extend(fnv1a(*b"foo"), *b"bar"), fnv1a(*b"foobar"), "in pieces");
    }

    #[test]
    fn deterministic_and_spreading() {
        let h = |v: u32| {
            let mut hasher = FxHasher::default();
            hasher.write_u32(v);
            hasher.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));
        // Low bits must differ for consecutive keys (bucket truncation).
        assert_ne!(h(1) & 0xffff, h(2) & 0xffff);
    }

    #[test]
    fn map_round_trip() {
        let mut m: FxMap<u32, u32> = FxMap::default();
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.get(&500), Some(&1000));
        assert_eq!(m.len(), 1000);
    }
}
