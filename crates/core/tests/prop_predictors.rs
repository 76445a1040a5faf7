//! Property-based tests over whole predictors, driven by random little
//! traces.

use ibp_core::{
    Btb, HistoryElement, HistorySharing, HybridPredictor, MetaSpec, Predictor, PredictorConfig,
    TableSharing, TwoLevelPredictor, UpdateRule, MAX_PATH,
};
use ibp_trace::Addr;
use proptest::prelude::*;

/// A random event stream over a handful of sites and targets — small
/// alphabets maximise collision coverage.
fn events() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0u32..6, 0u32..5), 1..300).prop_map(|v| {
        v.into_iter()
            .map(|(s, t)| (0x1000 + s * 4, 0x8000 + t * 4))
            .collect()
    })
}

/// The parameters of a random full-key family: history sharing `s`, table
/// sharing `h`, whether elements are address ⊕ target, precision, whether
/// the rule is always-update, and whether conditional targets enter the
/// history.
type FullKeyParams = (u32, u32, bool, Option<u32>, bool, bool);

fn full_key_params() -> impl Strategy<Value = FullKeyParams> {
    (
        prop_oneof![Just(2u32), Just(3), Just(8), Just(31)],
        prop_oneof![Just(2u32), Just(9), Just(31)],
        any::<bool>(),
        prop_oneof![Just(None), Just(Some(1u32)), Just(Some(2)), Just(Some(8))],
        any::<bool>(),
        any::<bool>(),
    )
}

/// The family's member at path length `p`.
fn full_key_config(params: FullKeyParams, p: usize) -> PredictorConfig {
    let (s, h, xor, precision, always, cond) = params;
    let mut cfg = PredictorConfig::unconstrained(p)
        .with_history_sharing(HistorySharing::per_set(s))
        .with_table_sharing(TableSharing::per_set(h))
        .with_cond_targets(cond);
    if xor {
        cfg = cfg.with_history_element(HistoryElement::AddressXorTarget);
    }
    if let Some(b) = precision {
        cfg = cfg.with_precision(b);
    }
    if always {
        cfg = cfg.with_update_rule(UpdateRule::Always);
    }
    cfg
}

/// A short random trace: `(pc, target, conditional)` over a handful of
/// sites and targets, conditional branches among the indirect ones.
fn mixed_events() -> impl Strategy<Value = Vec<(u32, u32, bool)>> {
    proptest::collection::vec((0u32..6, 0u32..5, 0u32..5), 1..300).prop_map(|v| {
        v.into_iter()
            .map(|(s, t, kind)| (0x1000 + s * 0x104, 0x8000 + t * 0x24, kind == 0))
            .collect()
    })
}

fn drive(p: &mut dyn Predictor, events: &[(u32, u32)]) -> (u64, u64) {
    let mut misses = 0;
    for &(pc, target) in events {
        let (pc, target) = (Addr::new(pc), Addr::new(target));
        if p.predict(pc) != Some(target) {
            misses += 1;
        }
        p.update(pc, target);
    }
    (events.len() as u64, misses)
}

proptest! {
    /// A two-level predictor with path length 0 is exactly a BTB under the
    /// same update rule.
    #[test]
    fn p0_two_level_equals_btb(events in events()) {
        for rule in [UpdateRule::Always, UpdateRule::TwoBitCounter] {
            let mut tl = TwoLevelPredictor::unconstrained(0, HistorySharing::GLOBAL)
                .with_update_rule(rule);
            let mut btb = Btb::unconstrained(rule);
            for &(pc, target) in &events {
                let (pc, target) = (Addr::new(pc), Addr::new(target));
                prop_assert_eq!(tl.predict(pc), btb.predict(pc));
                tl.update(pc, target);
                btb.update(pc, target);
            }
        }
    }

    /// Predictors are deterministic: the same event stream produces the
    /// same miss count twice.
    #[test]
    fn predictors_are_deterministic(events in events()) {
        for make in [
            || PredictorConfig::btb_2bc().build(),
            || PredictorConfig::unconstrained(3).build(),
            || PredictorConfig::practical(3, 64, 2).build(),
            || PredictorConfig::hybrid(3, 1, 32, 2).build(),
        ] {
            let mut a = make();
            let mut b = make();
            prop_assert_eq!(drive(a.as_mut(), &events), drive(b.as_mut(), &events));
        }
    }

    /// The oracle floor (ROADMAP item 6): with no warmup, a full-precision
    /// unbounded table misses at least once per distinct key it stores, so
    /// `stored_patterns()` bounds its misses from below. And the distinct
    /// keys never fall as the path length grows: a length-(p+1) key
    /// extends a length-p key, so every length-p key seen is the prefix of
    /// one seen at p + 1. The path trie's one node per prefix rests on
    /// this.
    #[test]
    fn full_key_misses_cover_distinct_keys_and_keys_grow_with_p(
        params in full_key_params(),
        events in mixed_events(),
    ) {
        let mut shorter = 0usize;
        for p in 0..=MAX_PATH {
            let mut tl = full_key_config(params, p)
                .try_build_two_level()
                .expect("a valid full-key config");
            let mut misses = 0u64;
            for &(pc, target, cond) in &events {
                let (pc, target) = (Addr::new(pc), Addr::new(target));
                if cond {
                    tl.observe_cond(pc, target);
                    continue;
                }
                if tl.predict(pc) != Some(target) {
                    misses += 1;
                }
                tl.update(pc, target);
            }
            let keys = tl.stored_patterns();
            prop_assert!(misses >= keys as u64, "p={}: {} misses, {} keys", p, misses, keys);
            prop_assert!(keys >= shorter, "p={}: {} keys after {} at p-1", p, keys, shorter);
            shorter = keys;
        }
    }

    /// A bounded fully-associative table large enough to never evict is
    /// observationally identical to the unbounded table: capacity is the
    /// *only* difference between the two organisations.
    ///
    /// (A genuinely smaller table is not always worse on a given stream —
    /// an eviction can drop a stale target that the unbounded table would
    /// keep mispredicting with under the 2bc rule — so the comparison is
    /// made at the no-eviction point.)
    #[test]
    fn ample_bounded_table_equals_unbounded(events in events()) {
        let spec = |p| ibp_core::CompressedKeySpec::practical(p);
        // 6 sites x 5 targets^2 possible (pc, pattern) keys at p = 2 is
        // at most 150 < 4096: no evictions can occur.
        let mut unbounded = TwoLevelPredictor::compressed_unbounded(spec(2));
        let mut bounded = TwoLevelPredictor::full_assoc(spec(2), 4096);
        for &(pc, target) in &events {
            let (pc, target) = (Addr::new(pc), Addr::new(target));
            prop_assert_eq!(unbounded.predict(pc), bounded.predict(pc));
            unbounded.update(pc, target);
            bounded.update(pc, target);
        }
    }

    /// A hybrid never misses a branch that *both* of its components would
    /// have predicted correctly (agreement case).
    #[test]
    fn hybrid_respects_component_agreement(events in events()) {
        let mut c1 = TwoLevelPredictor::unconstrained(3, HistorySharing::GLOBAL);
        let mut c2 = TwoLevelPredictor::unconstrained(1, HistorySharing::GLOBAL);
        let mut hybrid = HybridPredictor::new(vec![c1.clone(), c2.clone()], MetaSpec::Confidence);
        for &(pc, target) in &events {
            let (pc, target) = (Addr::new(pc), Addr::new(target));
            let p1 = c1.predict(pc);
            let p2 = c2.predict(pc);
            let ph = hybrid.predict(pc);
            if p1 == Some(target) && p2 == Some(target) {
                prop_assert_eq!(ph, Some(target));
            }
            // The hybrid's prediction always comes from one of the
            // components (or is a miss when both miss).
            prop_assert!(ph == p1 || ph == p2 || (ph.is_none() && p1.is_none() && p2.is_none()));
            c1.update(pc, target);
            c2.update(pc, target);
            hybrid.update(pc, target);
        }
    }

    /// Storage accounting: hybrids report the sum of their components and
    /// bounded tables report their configured size.
    #[test]
    fn storage_accounting(size_log2 in 5u32..12, ways_log2 in 0u32..3) {
        let size = 1usize << size_log2;
        let ways = 1usize << ways_log2;
        let p = PredictorConfig::practical(3, size, ways).build();
        prop_assert_eq!(p.storage_entries(), Some(size));
        let h = PredictorConfig::hybrid(3, 1, size, ways).build();
        prop_assert_eq!(h.storage_entries(), Some(2 * size));
    }
}
