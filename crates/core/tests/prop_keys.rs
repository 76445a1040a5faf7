//! Property-based tests for key construction: compression, interleaving
//! and key schemes.

use ibp_core::{
    CompressedKeySpec, HistoryRegister, Interleaving, KeyScheme, PatternCompressor, MAX_PATH,
};
use ibp_trace::Addr;
use proptest::prelude::*;

/// The reference layout: deals the pattern out one bit at a time, visiting
/// targets in an explicit order vector — the straightforward reading of
/// §5.2.1 that the table-driven `Interleaving::layout` must reproduce.
fn oracle_layout(scheme: Interleaving, chunks: &[u32], b: u32) -> u64 {
    let p = chunks.len();
    if p == 0 || b == 0 {
        return 0;
    }
    let bit = |c: u32, r: u32| (u64::from(c) >> r) & 1;
    let order: Vec<usize> = match scheme {
        Interleaving::Concat => {
            let mut pat = 0u64;
            for (i, &c) in chunks.iter().enumerate() {
                for r in 0..b {
                    pat |= bit(c, r) << (i as u32 * b + r);
                }
            }
            return pat;
        }
        Interleaving::Straight => (0..p).collect(),
        Interleaving::Reverse => (0..p).rev().collect(),
        Interleaving::PingPong => {
            let mut order = Vec::with_capacity(p);
            let (mut lo, mut hi) = (0usize, p - 1);
            while order.len() < p {
                order.push(lo);
                lo += 1;
                if order.len() < p {
                    order.push(hi);
                    hi = hi.saturating_sub(1);
                }
            }
            order
        }
    };
    let mut pat = 0u64;
    // Bit r of the k-th visited target lands at position r * p + k.
    for r in 0..b {
        for (k, &j) in order.iter().enumerate() {
            pat |= bit(chunks[j], r) << (r * p as u32 + k as u32);
        }
    }
    pat
}

/// The reference key of `spec`: its chunks laid out by the oracle, xored
/// with the branch's table component and cut to the key width.
fn oracle_key(spec: &CompressedKeySpec, pc: Addr, history: &HistoryRegister) -> u64 {
    let b = spec.bits_per_target();
    let chunks: Vec<u32> = history.path()[..spec.path_len()]
        .iter()
        .map(|&t| spec.compressor().chunk(t, b))
        .collect();
    let pattern = oracle_layout(spec.interleaving(), &chunks, b);
    let addr = u64::from(spec.table_sharing().address_component(pc));
    (pattern ^ addr) & ((1u64 << spec.key_width()) - 1)
}

fn word() -> impl Strategy<Value = u32> {
    // 30-bit word addresses.
    0u32..(1 << 30)
}

fn history(depth: usize) -> impl Strategy<Value = HistoryRegister> {
    proptest::collection::vec(word(), 0..=depth).prop_map(move |targets| {
        let mut h = HistoryRegister::new(depth);
        for t in targets {
            h.push(Addr::from_word(t));
        }
        h
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The table-driven layout equals the bit-dealing oracle for every
    /// layout, every path length up to `MAX_PATH` and every chunk width
    /// that fits 64 bits. The chunks carry random bits above `b`, which
    /// both must ignore.
    #[test]
    fn layout_matches_bit_dealing_oracle(
        chunks in proptest::collection::vec(any::<u32>(), MAX_PATH),
        p in 1usize..=MAX_PATH,
    ) {
        let chunks = &chunks[..p];
        for b in 1..=64 / p as u32 {
            for scheme in Interleaving::ALL {
                prop_assert_eq!(
                    scheme.layout(chunks, b),
                    oracle_layout(scheme, chunks, b),
                    "{} p={} b={}", scheme, p, b
                );
            }
        }
    }

    /// Every practical key (`p = 0..=18`) equals the key assembled from
    /// the oracle layout, over random histories and branch addresses.
    #[test]
    fn practical_keys_match_oracle_keys(pc in word(), h in history(MAX_PATH)) {
        let pc = Addr::from_word(pc);
        for p in 0..=MAX_PATH {
            let spec = CompressedKeySpec::practical(p);
            prop_assert_eq!(spec.key(pc, &h), oracle_key(&spec, pc, &h), "p={}", p);
        }
    }
}

proptest! {
    /// Every interleaving layout is a permutation of the chunk bits: the
    /// total popcount is preserved and the result fits in `p * b` bits.
    #[test]
    fn layouts_are_bit_permutations(
        chunks in proptest::collection::vec(any::<u32>(), 1..12),
        b in 1u32..6,
    ) {
        let masked: Vec<u32> = chunks.iter().map(|c| c & ((1 << b) - 1)).collect();
        let total: u32 = masked.iter().map(|c| c.count_ones()).sum();
        for scheme in Interleaving::ALL {
            let pat = scheme.layout(&chunks, b);
            prop_assert_eq!(pat.count_ones(), total, "{}", scheme);
            let width = chunks.len() as u32 * b;
            prop_assert!(pat < (1u64 << width.min(63)) || width >= 64);
        }
    }

    /// Round-robin layouts are injective: distinct chunk vectors give
    /// distinct patterns.
    #[test]
    fn layouts_are_injective(
        a in proptest::collection::vec(0u32..16, 4),
        c in proptest::collection::vec(0u32..16, 4),
    ) {
        for scheme in Interleaving::ALL {
            let pa = scheme.layout(&a, 4);
            let pc = scheme.layout(&c, 4);
            prop_assert_eq!(a == c, pa == pc, "{}", scheme);
        }
    }

    /// The index-precision accounting matches the actual layout: a target's
    /// index-resident bits can be recovered by toggling them.
    #[test]
    fn index_precision_consistent_with_layout(
        p in 1usize..9,
        b in 1u32..5,
        index_bits in 1u32..12,
        j_seed in any::<u64>(),
    ) {
        let j = (j_seed % p as u64) as usize;
        for scheme in Interleaving::ALL {
            let expected = scheme.index_precision(p, b, index_bits, j);
            // Count how many of target j's bits land below index_bits by
            // toggling them one at a time.
            let base = vec![0u32; p];
            let mut count = 0;
            for bit in 0..b {
                let mut toggled = base.clone();
                toggled[j] = 1 << bit;
                let pat = scheme.layout(&toggled, b);
                let mask = if index_bits >= 64 { u64::MAX } else { (1u64 << index_bits) - 1 };
                if pat & mask != 0 {
                    count += 1;
                }
            }
            prop_assert_eq!(count, expected, "{} p={} b={} j={}", scheme, p, b, j);
        }
    }

    /// Key construction is a pure function: same inputs, same key; and the
    /// xor scheme always fits the advertised width.
    #[test]
    fn keys_are_deterministic_and_bounded(
        pc in word(),
        h in history(12),
        p in 0usize..=12,
    ) {
        let spec = CompressedKeySpec::practical(p);
        let pc = Addr::from_word(pc);
        let k1 = spec.key(pc, &h);
        let k2 = spec.key(pc, &h);
        prop_assert_eq!(k1, k2);
        prop_assert!(k1 < (1u64 << spec.key_width()));
        let concat = spec.with_scheme(KeyScheme::Concat);
        prop_assert!(concat.key(pc, &h) < (1u64 << concat.key_width().min(63)) || concat.key_width() >= 64);
    }

    /// With the concat scheme, different branch addresses can never collide
    /// (the address occupies its own bits).
    #[test]
    fn concat_keys_separate_branches(
        pc1 in word(),
        pc2 in word(),
        h in history(8),
        p in 0usize..=8,
    ) {
        prop_assume!(pc1 != pc2);
        let spec = CompressedKeySpec::practical(p).with_scheme(KeyScheme::Concat);
        let k1 = spec.key(Addr::from_word(pc1), &h);
        let k2 = spec.key(Addr::from_word(pc2), &h);
        prop_assert_ne!(k1, k2);
    }

    /// Gshare keys differ between two branch addresses exactly by the xor
    /// of the addresses (for a shared history).
    #[test]
    fn gshare_xor_difference_is_address_difference(
        pc1 in word(),
        pc2 in word(),
        h in history(8),
        p in 0usize..=8,
    ) {
        let spec = CompressedKeySpec::practical(p);
        let k1 = spec.key(Addr::from_word(pc1), &h);
        let k2 = spec.key(Addr::from_word(pc2), &h);
        prop_assert_eq!(k1 ^ k2, u64::from(pc1 ^ pc2));
    }

    /// Bit-select and xor-fold chunks stay within `b` bits.
    #[test]
    fn chunks_fit_width(t in word(), b in 1u32..16) {
        let target = Addr::from_word(t);
        for c in [PatternCompressor::BitSelect { a: 2 }, PatternCompressor::XorFold] {
            prop_assert!(c.chunk(target, b) < (1 << b));
        }
    }

    /// The history register is a sliding window: pushing `depth` new
    /// elements completely replaces the old content.
    #[test]
    fn history_window_slides(
        depth in 1usize..=18,
        first in proptest::collection::vec(word(), 1..18),
        second in proptest::collection::vec(word(), 18..36),
    ) {
        let mut a = HistoryRegister::new(depth);
        for &t in &first {
            a.push(Addr::from_word(t));
        }
        for &t in &second {
            a.push(Addr::from_word(t));
        }
        let mut b = HistoryRegister::new(depth);
        for &t in &second {
            b.push(Addr::from_word(t));
        }
        prop_assert_eq!(a.snapshot(), b.snapshot());
    }
}
