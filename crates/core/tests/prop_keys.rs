//! Property-based tests for key construction: compression, interleaving
//! and key schemes, and the key recipes that let lanes share key streams.

use ibp_core::{
    Associativity, CompressedKeySpec, HistoryElement, HistoryRegister, HistorySharing,
    Interleaving, KeyScheme, KeyStreams, PatternCompressor, Predictor, PredictorConfig,
    TableSharing, UpdateRule, MAX_PATH,
};
use ibp_trace::{Addr, BranchKind, Trace, TraceEvent};
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

/// The key half of a random compressed config: path length, pattern
/// budget, compressor, interleaving, key scheme, table sharing `h`,
/// history sharing `s`, address-xor-target elements, conditional targets.
type KeyParams = (
    usize,
    u32,
    PatternCompressor,
    Interleaving,
    KeyScheme,
    u32,
    u32,
    bool,
    bool,
);

fn key_params() -> impl Strategy<Value = KeyParams> {
    (
        0usize..=8,
        prop_oneof![Just(12u32), Just(24), Just(32)],
        prop_oneof![
            Just(PatternCompressor::BitSelect { a: 2 }),
            Just(PatternCompressor::BitSelect { a: 4 }),
            Just(PatternCompressor::XorFold),
            Just(PatternCompressor::ShiftXor),
        ],
        prop_oneof![
            Just(Interleaving::Concat),
            Just(Interleaving::Straight),
            Just(Interleaving::Reverse),
            Just(Interleaving::PingPong),
        ],
        prop_oneof![Just(KeyScheme::GshareXor), Just(KeyScheme::Concat)],
        prop_oneof![Just(2u32), Just(9), Just(31)],
        prop_oneof![Just(2u32), Just(8), Just(31)],
        any::<bool>(),
        any::<bool>(),
    )
}

/// `base` with one field of `other` in place of its own: field `field`
/// counts from 0, in [`KeyParams`] order.
fn neighbour(base: KeyParams, other: KeyParams, field: usize) -> KeyParams {
    let mut k = base;
    match field {
        0 => k.0 = other.0,
        1 => k.1 = other.1,
        2 => k.2 = other.2,
        3 => k.3 = other.3,
        4 => k.4 = other.4,
        5 => k.5 = other.5,
        6 => k.6 = other.6,
        7 => k.7 = other.7,
        _ => k.8 = other.8,
    }
    k
}

/// What sits behind the key: the table size (`None` for unbounded), its
/// associativity, the confidence width and whether the rule is
/// always-update.
type TableParams = (Option<usize>, Associativity, u8, bool);

fn table_params() -> impl Strategy<Value = TableParams> {
    (
        prop_oneof![Just(None), Just(Some(64usize)), Just(Some(512))],
        prop_oneof![
            Just(Associativity::Tagless),
            Just(Associativity::Ways(1)),
            Just(Associativity::Ways(2)),
            Just(Associativity::Ways(4)),
            Just(Associativity::Full),
        ],
        1u8..=4,
        any::<bool>(),
    )
}

/// `base`, whose kind and path lengths stay, with every key and table
/// parameter set.
fn with_params(base: PredictorConfig, k: KeyParams, t: TableParams) -> PredictorConfig {
    let (_, budget, compressor, interleaving, scheme, h, s, xor, cond) = k;
    let (entries, assoc, bits, always) = t;
    let element = if xor {
        HistoryElement::AddressXorTarget
    } else {
        HistoryElement::Target
    };
    let rule = if always {
        UpdateRule::Always
    } else {
        UpdateRule::TwoBitCounter
    };
    let cfg = base
        .with_pattern_budget(budget)
        .with_compressor(compressor)
        .with_interleaving(interleaving)
        .with_key_scheme(scheme)
        .with_table_sharing(TableSharing::per_set(h))
        .with_history_sharing(HistorySharing::per_set(s))
        .with_history_element(element)
        .with_cond_targets(cond)
        .with_associativity(assoc)
        .with_confidence_bits(bits)
        .with_update_rule(rule);
    match entries {
        Some(n) => cfg.with_entries(n),
        None => cfg.with_unbounded_table(),
    }
}

/// A short random trace over sites in several 256-byte regions, so per-set
/// histories split, with conditional branches among the indirect ones.
fn recipe_trace() -> impl Strategy<Value = Trace> {
    proptest::collection::vec((0u32..6, 0u32..5, 0u32..4), 1..300).prop_map(|v| {
        let mut t = Trace::new("recipe");
        for (s, target, kind) in v {
            let pc = Addr::new(0x1000 + s * 0x104);
            let target = Addr::new(0x8000 + target * 0x24);
            if kind == 0 {
                t.push_cond(pc, target, s % 2 == 0);
            } else {
                t.push_indirect(pc, target, BranchKind::Switch);
            }
        }
        t
    })
}

/// The keys a predictor builds for itself, event by event, under the
/// legacy predict-then-update protocol.
fn own_keys(cfg: &PredictorConfig, trace: &Trace) -> Vec<u64> {
    let mut p = cfg.try_build_two_level().expect("a valid two-level config");
    let mut keys = Vec::new();
    for event in trace.events() {
        match event {
            TraceEvent::Indirect(b) => {
                keys.push(p.key_fingerprint(b.pc));
                p.update(b.pc, b.target);
            }
            TraceEvent::Cond(b) => p.observe_cond(b.pc, b.outcome()),
        }
    }
    keys
}

/// The key stream a [`KeyStreams`] builds for a config's lane, filled in
/// chunks of `fill` events.
fn stream_keys(cfg: &PredictorConfig, trace: &Trace, fill: usize) -> Vec<u64> {
    let mut kernel = cfg.build_kernel();
    let mut streams = KeyStreams::new(0);
    let lane = streams.attach(&mut kernel).expect("a compressed-key lane");
    let mut keys = Vec::new();
    for chunk in trace.events().chunks(fill) {
        streams.fold_chunk(chunk);
        keys.extend_from_slice(streams.keys(lane, 0));
    }
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Two predictors with equal key recipes build identical key streams,
    /// and a stream equals the keys its predictor builds for itself. The
    /// second config is the first with one key parameter drawn afresh, so
    /// a recipe that missed a parameter would pair two different streams.
    #[test]
    fn equal_recipes_build_identical_key_streams(
        a in key_params(),
        b in key_params(),
        field in 0usize..9,
        ta in table_params(),
        tb in table_params(),
        trace in recipe_trace(),
        fill in 1usize..40,
    ) {
        let b = neighbour(a, b, field);
        let configs = [
            with_params(PredictorConfig::compressed_unbounded(a.0), a, ta),
            with_params(PredictorConfig::compressed_unbounded(b.0), b, tb),
        ];
        let mut recipes = Vec::new();
        let mut keys = Vec::new();
        for cfg in &configs {
            let own = own_keys(cfg, &trace);
            prop_assert_eq!(&stream_keys(cfg, &trace, fill), &own, "{}", cfg.cache_key());
            let p = cfg.try_build_two_level().expect("a valid two-level config");
            recipes.push(p.key_recipe().expect("a compressed key has a recipe"));
            keys.push(own);
        }
        if recipes[0] == recipes[1] {
            prop_assert_eq!(&keys[0], &keys[1], "{:?}", recipes[0]);
        }
    }

    /// Configs that differ only behind the key — table size,
    /// associativity, confidence width, update rule or metapredictor —
    /// share a recipe, so a pass folds them from one stream per path
    /// length.
    #[test]
    fn table_and_metapredictor_parameters_share_a_recipe(
        k in key_params(),
        p2 in 0usize..=8,
        ta in table_params(),
        tb in table_params(),
    ) {
        let single = |t| with_params(PredictorConfig::compressed_unbounded(k.0), k, t);
        let recipe = |cfg: &PredictorConfig| {
            cfg.try_build_two_level().expect("a valid two-level config").key_recipe()
        };
        prop_assert_eq!(recipe(&single(ta)), recipe(&single(tb)));
        prop_assert!(recipe(&single(ta)).is_some());

        let hybrid = with_params(PredictorConfig::hybrid(k.0, p2, 64, 4), k, ta);
        let bpst = with_params(PredictorConfig::bpst(k.0, p2, 64, 4), k, tb);
        let mut kernels = [&single(ta), &single(tb), &hybrid, &bpst].map(PredictorConfig::build_kernel);
        let [first, second, h, b] = &mut kernels;
        let mut streams = KeyStreams::new(0);
        let first = streams.attach(first).expect("keyed");
        let second = streams.attach(second).expect("keyed");
        prop_assert_eq!(streams.len(), 1);
        // Equal shapes share one table: an unbounded table has no
        // associativity.
        let same_shape = ta == tb || (ta.0.is_none() && tb.0.is_none() && (ta.2, ta.3) == (tb.2, tb.3));
        prop_assert_eq!(streams.components(), if same_shape { 1 } else { 2 });
        let h = streams.attach(h).expect("keyed");
        let after_hybrid = streams.len();
        let b = streams.attach(b).expect("keyed");
        prop_assert_eq!(streams.len(), after_hybrid, "the BPST adds no stream");
        // Which stream a part reads, told apart by the stream's buffer.
        let mut one = Trace::new("one");
        one.push_indirect(Addr::new(0x1000), Addr::new(0x8000), BranchKind::Switch);
        streams.fold_chunk(one.events());
        prop_assert_eq!(streams.keys(h, 0).as_ptr(), streams.keys(first, 0).as_ptr());
        prop_assert_eq!(streams.keys(b, 0).as_ptr(), streams.keys(h, 0).as_ptr());
        prop_assert_eq!(streams.keys(b, 1).as_ptr(), streams.keys(h, 1).as_ptr());
        prop_assert_eq!(streams.keys(second, 0).as_ptr(), streams.keys(first, 0).as_ptr());
        prop_assert_eq!(after_hybrid, if p2 == k.0 { 1 } else { 2 });
    }
}
