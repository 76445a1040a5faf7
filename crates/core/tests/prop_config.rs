//! Property test for `PredictorConfig::cache_key`. The key memoizes
//! simulation results in the sweep engine and names the rows of the
//! persistent result cache, so it must cover every field: two
//! configurations that differ anywhere must get different keys.

use ibp_core::{
    Associativity, HistoryElement, HistorySharing, Interleaving, KeyScheme, PatternCompressor,
    PredictorConfig, TableSharing, UpdateRule,
};
use proptest::prelude::*;

/// Public constructors [`constructor`] picks from.
const CONSTRUCTORS: u8 = 11;

/// `with_*` builders [`apply`] picks from.
const BUILDERS: u8 = 14;

/// The `kind`-th public constructor, with path lengths and sizes drawn
/// from `arg`.
fn constructor(kind: u8, arg: u64) -> PredictorConfig {
    let p1 = (arg % 13) as usize;
    let p2 = ((arg >> 4) % 13) as usize;
    let entries = 64usize << ((arg >> 8) % 6);
    let ways = [1usize, 2, 4][((arg >> 12) % 3) as usize];
    match kind {
        0 => PredictorConfig::btb(),
        1 => PredictorConfig::btb_2bc(),
        2 => PredictorConfig::btb_bounded(entries),
        3 => PredictorConfig::unconstrained(p1),
        4 => PredictorConfig::compressed_unbounded(p1),
        5 => PredictorConfig::practical(p1, entries, ways),
        6 => PredictorConfig::tagless(p1, entries),
        7 => PredictorConfig::full_assoc(p1, entries),
        8 => PredictorConfig::hybrid(p1, p2, entries, ways),
        9 => PredictorConfig::hybrid_tagless(p1, p2, entries),
        _ => PredictorConfig::bpst(p1, p2, entries, ways),
    }
}

/// Applies the `builder`-th `with_*` builder with a value drawn from `v`.
fn apply(cfg: PredictorConfig, builder: u8, v: u64) -> PredictorConfig {
    let exponent = 2 + (v % 30) as u32;
    let odd = v & 1 == 1;
    match builder {
        0 => cfg.with_entries(16usize << (v % 8)),
        1 => cfg.with_unbounded_table(),
        2 => cfg.with_associativity(match v % 3 {
            0 => Associativity::Tagless,
            1 => Associativity::Ways(1 << ((v / 3) % 4)),
            _ => Associativity::Full,
        }),
        3 => cfg.with_history_sharing(HistorySharing::per_set(exponent)),
        4 => cfg.with_table_sharing(TableSharing::per_set(exponent)),
        5 => cfg.with_history_element(if odd {
            HistoryElement::AddressXorTarget
        } else {
            HistoryElement::Target
        }),
        6 => cfg.with_precision(1 + (v % 32) as u32),
        7 => cfg.with_pattern_budget(4 + (v % 29) as u32),
        8 => cfg.with_compressor(match v % 3 {
            0 => PatternCompressor::BitSelect {
                a: ((v / 3) % 8) as u32,
            },
            1 => PatternCompressor::XorFold,
            _ => PatternCompressor::ShiftXor,
        }),
        9 => cfg.with_interleaving(
            [
                Interleaving::Concat,
                Interleaving::Straight,
                Interleaving::Reverse,
                Interleaving::PingPong,
            ][(v % 4) as usize],
        ),
        10 => cfg.with_key_scheme(if odd {
            KeyScheme::GshareXor
        } else {
            KeyScheme::Concat
        }),
        11 => cfg.with_update_rule(if odd {
            UpdateRule::TwoBitCounter
        } else {
            UpdateRule::Always
        }),
        12 => cfg.with_confidence_bits(1 + (v % 4) as u8),
        _ => cfg.with_cond_targets(odd),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A random configuration (a constructor, then a few builders), and a
    /// copy with one more builder applied: whenever the two differ in any
    /// field (their derived `Debug` output), their cache keys differ too.
    #[test]
    fn distinct_configs_get_distinct_cache_keys(
        kind in 0u8..CONSTRUCTORS,
        arg in any::<u64>(),
        steps in proptest::collection::vec((0u8..BUILDERS, any::<u64>()), 0..6),
        builder in 0u8..BUILDERS,
        value in any::<u64>(),
    ) {
        let cfg = steps
            .iter()
            .fold(constructor(kind, arg), |c, &(b, v)| apply(c, b, v));
        let other = apply(cfg.clone(), builder, value);
        if format!("{cfg:?}") != format!("{other:?}") {
            prop_assert!(
                cfg.cache_key() != other.cache_key(),
                "one cache key for two configs:\n  {cfg:?}\n  {other:?}"
            );
        }
    }
}
