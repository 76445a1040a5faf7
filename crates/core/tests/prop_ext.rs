//! Property-based tests for the §8.1 / §7 extension predictors.

use ibp_core::ext::{AheadPredictor, IttageLite, SharedTableHybrid, TargetCache};
use ibp_core::{
    CompressedKeySpec, HistorySharing, HybridPredictor, MetaSpec, Predictor, TwoLevelPredictor,
};
use ibp_trace::Addr;
use proptest::prelude::*;

fn events() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0u32..6, 0u32..5), 1..250).prop_map(|v| {
        v.into_iter()
            .map(|(s, t)| (0x1000 + s * 4, 0x8000 + t * 4))
            .collect()
    })
}

fn drive(p: &mut dyn Predictor, events: &[(u32, u32)]) -> u64 {
    let mut misses = 0;
    for &(pc, target) in events {
        let (pc, target) = (Addr::new(pc), Addr::new(target));
        if p.predict(pc) != Some(target) {
            misses += 1;
        }
        p.update(pc, target);
    }
    misses
}

fn all_ext_predictors() -> Vec<Box<dyn Predictor>> {
    vec![
        Box::new(HybridPredictor::new(
            vec![
                TwoLevelPredictor::set_assoc(CompressedKeySpec::practical(4), 64, 2),
                TwoLevelPredictor::set_assoc(CompressedKeySpec::practical(1), 64, 2),
            ],
            MetaSpec::FirstHit,
        )),
        Box::new(HybridPredictor::new(
            vec![
                TwoLevelPredictor::unconstrained(3, HistorySharing::GLOBAL),
                TwoLevelPredictor::unconstrained(1, HistorySharing::GLOBAL),
                TwoLevelPredictor::unconstrained(0, HistorySharing::GLOBAL),
            ],
            MetaSpec::Confidence,
        )),
        Box::new(SharedTableHybrid::new(
            vec![
                CompressedKeySpec::practical(3),
                CompressedKeySpec::practical(1),
            ],
            64,
            2,
        )),
        Box::new(AheadPredictor::new(3)),
        Box::new(IttageLite::new(64, 3, 2)),
        Box::new(TargetCache::new(6, 64)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every extension predictor is deterministic.
    #[test]
    fn ext_predictors_are_deterministic(events in events()) {
        for (a, b) in all_ext_predictors().into_iter().zip(all_ext_predictors()) {
            let (mut a, mut b) = (a, b);
            let first = drive(a.as_mut(), &events);
            let other = drive(b.as_mut(), &events);
            prop_assert_eq!(first, other, "{}", a.name());
        }
    }

    /// Extension predictors never claim more storage than constructed with
    /// and keep names stable across runs.
    #[test]
    fn ext_reporting_is_stable(events in events()) {
        for mut p in all_ext_predictors() {
            let name_before = p.name();
            let entries_before = p.storage_entries();
            drive(p.as_mut(), &events);
            prop_assert_eq!(p.name(), name_before);
            prop_assert_eq!(p.storage_entries(), entries_before);
        }
    }

    /// An ahead predictor's depth-1 chain agrees with `predict_next`.
    #[test]
    fn ahead_chain_head_is_predict_next(events in events()) {
        let mut p = AheadPredictor::new(3);
        for &(pc, target) in &events {
            p.update(Addr::new(pc), Addr::new(target));
            let next = p.predict_next();
            let chain = p.predict_chain(4);
            prop_assert_eq!(chain.first().copied(), next);
            // Chains never exceed the requested depth.
            prop_assert!(chain.len() <= 4);
        }
    }

    /// ITTAGE never loses to an empty predictor and its provider logic
    /// yields some prediction once the base is trained.
    #[test]
    fn ittage_predicts_trained_branches(events in events()) {
        let mut p = IttageLite::new(64, 3, 2);
        let mut seen = std::collections::HashSet::new();
        for &(pc, target) in &events {
            let (pc, target) = (Addr::new(pc), Addr::new(target));
            if seen.contains(&pc) {
                // The base BTB always holds *some* target for a seen pc, so
                // ITTAGE must offer a prediction.
                prop_assert!(p.predict(pc).is_some());
            }
            p.update(pc, target);
            seen.insert(pc);
        }
    }

    /// The target cache's history register only ever holds `bits` bits.
    #[test]
    fn target_cache_history_bounded(
        outcomes in proptest::collection::vec(any::<bool>(), 0..100),
        bits in 1u32..12,
    ) {
        let mut tc = TargetCache::new(bits, 64);
        for taken in outcomes {
            let pc = Addr::new(0x100);
            let outcome = if taken { Addr::new(0x5000) } else { pc.offset_words(1) };
            tc.observe_cond(pc, outcome);
            prop_assert!(tc.cond_history() < (1 << bits));
        }
    }
}
