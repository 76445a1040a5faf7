//! A fixed hasher for maps keyed by branch word addresses.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed by a 32-bit word, hashed by [`WordHasher`].
pub type WordMap<V> = HashMap<u32, V, BuildHasherDefault<WordHasher>>;

/// A multiplicative hasher with fixed constants: one multiply per word,
/// where the std default (SipHash) runs several rounds. Branch addresses
/// come from the trace, not from an adversary, and a collision costs only
/// a longer probe, never a wrong answer.
#[derive(Debug, Clone, Copy, Default)]
pub struct WordHasher(u64);

impl WordHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.add(u64::from(byte));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.add(u64::from(word));
    }

    /// One multiply for the whole word, then its high half folded into the
    /// low one: the low bits of a product depend only on the low bits of
    /// the input, and a map picks its bucket from the low bits, so keys
    /// that differ only above bit 32 (a concatenated pattern over a branch
    /// address) would otherwise share a bucket.
    fn write_u64(&mut self, word: u64) {
        self.add(word);
        self.0 ^= self.0 >> 32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_maps_store_and_find_every_key() {
        let mut map: WordMap<u32> = WordMap::default();
        for word in (0..4096u32).map(|i| i.wrapping_mul(0x9e37_79b9)) {
            map.insert(word, word ^ 1);
        }
        assert_eq!(map.len(), 4096);
        for word in (0..4096u32).map(|i| i.wrapping_mul(0x9e37_79b9)) {
            assert_eq!(map.get(&word), Some(&(word ^ 1)));
        }
    }

    #[test]
    fn the_hash_is_fixed() {
        let hash = |word: u32| {
            let mut h = WordHasher::default();
            h.write_u32(word);
            h.finish()
        };
        assert_eq!(hash(7), 7u64.wrapping_mul(WordHasher::K));
        assert_ne!(hash(7), hash(8));
    }

    #[test]
    fn a_u64_is_one_word_whose_high_bits_reach_the_low_ones() {
        let hash = |word: u64| {
            let mut h = WordHasher::default();
            h.write_u64(word);
            h.finish()
        };
        let product = 7u64.wrapping_mul(WordHasher::K);
        assert_eq!(hash(7), product ^ (product >> 32));
        // Keys equal in their low 32 bits land in different low bits.
        let low = |word: u64| hash(word) & 0xffff;
        assert_ne!(low(5), low(5 | 1 << 40));
        assert_ne!(low(5 | 1 << 40), low(5 | 2 << 40));
    }
}
