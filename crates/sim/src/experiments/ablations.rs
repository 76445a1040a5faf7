//! Ablations: confidence-counter width (§6.1), history variations (§3.3),
//! and BPST metaprediction (§6.1).

use ibp_core::{HistoryElement, PredictorConfig};
use ibp_workload::BenchmarkGroup;

use crate::engine;
use crate::report::{Cell, Table};
use crate::suite::Suite;

fn avg_rate(result: &crate::suite::SuiteResult) -> f64 {
    result.group_rate(BenchmarkGroup::Avg).unwrap_or(0.0)
}

/// Table sizes used for the hybrid ablations (total entries).
pub const SIZES: [usize; 3] = [1024, 4096, 16384];

/// Confidence-counter width (§6.1): 1–4 bit counters on a `p = 3.1` 4-way
/// hybrid. Paper finding: "although the performance difference between
/// 2, 3 and 4 bit counters was small, 2-bit counters usually performed
/// best".
#[must_use]
pub fn confidence_width(suite: &Suite) -> Table {
    let mut headers = vec!["size".to_string()];
    headers.extend((1..=4u8).map(|b| format!("{b}-bit")));
    let mut t = Table::new(
        "§6.1: confidence counter width (hybrid 3.1, 4-way)",
        headers,
    );
    // `metapredictor`'s BPSTs ride along: their components are the 2-bit
    // hybrids' tables, so the pass folds those once for both tables, and
    // `metapredictor` finds every cell memoized.
    let configs = SIZES
        .iter()
        .flat_map(|&size| {
            (1..=4u8).map(move |bits| {
                PredictorConfig::hybrid(3, 1, size / 2, 4).with_confidence_bits(bits)
            })
        })
        .chain(SIZES.iter().map(|&size| bpst(size)))
        .collect();
    let mut results = engine::run_configs(suite, configs).into_iter();
    for size in SIZES {
        let mut row = vec![Cell::Count(size as u64)];
        for _ in 1..=4u8 {
            let result = results.next().expect("one result per config");
            row.push(Cell::Percent(avg_rate(&result)));
        }
        t.push_row(row);
    }
    t
}

/// History variations (§3.3): the paper tried (a) polluting the indirect
/// history with conditional-branch targets and (b) using branch address ⊕
/// target as history elements; both were inferior to plain target
/// histories. Pollution dilutes the indirect context roughly by the
/// cond/indirect ratio, so the damage is clearest at the path length where
/// plain targets are already optimal (p = 3 on this workload; the paper
/// quotes p = 8, where its own optimum lay).
#[must_use]
pub fn history_variations(suite: &Suite) -> Table {
    let mut t = Table::new(
        "§3.3: history element variations (unconstrained)",
        ["variant", "p", "AVG", "AVG-OO", "AVG-C"],
    );
    type Variant = (&'static str, fn(usize) -> PredictorConfig);
    let variants: [Variant; 3] = [
        ("targets only (paper)", PredictorConfig::unconstrained),
        ("+ conditional targets", |p| {
            PredictorConfig::unconstrained(p).with_cond_targets(true)
        }),
        ("address xor target", |p| {
            PredictorConfig::unconstrained(p).with_history_element(HistoryElement::AddressXorTarget)
        }),
    ];
    let configs = [3usize, 8]
        .iter()
        .flat_map(|&p| variants.iter().map(move |(_, make)| make(p)))
        .collect();
    let mut results = engine::run_configs(suite, configs).into_iter();
    for p in [3usize, 8] {
        for (label, _) in variants {
            let result = results.next().expect("one result per config");
            t.push_row(vec![
                Cell::from(label),
                Cell::Count(p as u64),
                Cell::Percent(result.group_rate(BenchmarkGroup::Avg).unwrap_or(0.0)),
                Cell::Percent(result.group_rate(BenchmarkGroup::AvgOo).unwrap_or(0.0)),
                Cell::Percent(result.group_rate(BenchmarkGroup::AvgC).unwrap_or(0.0)),
            ]);
        }
    }
    t
}

/// The BPST of [`metapredictor`] at `size` total entries.
fn bpst(size: usize) -> PredictorConfig {
    PredictorConfig::bpst(3, 1, size / 2, 4)
}

/// Metaprediction (§6.1): per-entry confidence counters versus a per-branch
/// BPST selector, on the same components. The paper argues the per-pattern
/// scheme is finer grained.
#[must_use]
pub fn metapredictor(suite: &Suite) -> Table {
    let mut t = Table::new(
        "§6.1: metapredictor comparison (hybrid 3.1, 4-way)",
        ["size", "confidence counters", "BPST"],
    );
    let configs = SIZES
        .iter()
        .flat_map(|&size| [PredictorConfig::hybrid(3, 1, size / 2, 4), bpst(size)])
        .collect();
    let mut results = engine::run_configs(suite, configs).into_iter();
    for size in SIZES {
        let conf = avg_rate(&results.next().expect("one result per config"));
        let bpst = avg_rate(&results.next().expect("one result per config"));
        t.push_row(vec![
            Cell::Count(size as u64),
            Cell::Percent(conf),
            Cell::Percent(bpst),
        ]);
    }
    t
}

/// Update rule (§3.1/§3.2): always-update vs two-bit-counter on the
/// unconstrained two-level predictor. The paper saw "a slight improvement
/// with 2-bit counters" at every configuration it tried.
#[must_use]
pub fn update_rule(suite: &Suite) -> Table {
    let mut t = Table::new(
        "§3.2: update rule (unconstrained two-level)",
        ["p", "always-update", "2bc"],
    );
    const P_VALUES: [usize; 5] = [0, 1, 3, 6, 8];
    let configs = P_VALUES
        .iter()
        .flat_map(|&p| {
            [
                PredictorConfig::unconstrained(p).with_update_rule(ibp_core::UpdateRule::Always),
                PredictorConfig::unconstrained(p),
            ]
        })
        .collect();
    let mut results = engine::run_configs(suite, configs).into_iter();
    for p in P_VALUES {
        let always = avg_rate(&results.next().expect("one result per config"));
        let two_bit = avg_rate(&results.next().expect("one result per config"));
        t.push_row(vec![
            Cell::Count(p as u64),
            Cell::Percent(always),
            Cell::Percent(two_bit),
        ]);
    }
    t
}

/// All ablation tables.
#[must_use]
pub fn run(suite: &Suite) -> Vec<Table> {
    vec![
        confidence_width(suite),
        history_variations(suite),
        metapredictor(suite),
        update_rule(suite),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_workload::Benchmark;

    fn tiny_suite() -> Suite {
        Suite::with_benchmarks_and_len(&[Benchmark::Ixx, Benchmark::Porky], 12_000)
    }

    #[test]
    fn cond_pollution_hurts_at_the_optimum() {
        let suite = tiny_suite();
        let t = history_variations(&suite);
        let avg = |row: usize| t.expect_percent(row, 2);
        // Rows 0..3 are the p = 3 block: polluting the history with
        // conditional targets is worse than plain target histories at the
        // plain optimum.
        assert!(avg(1) > avg(0), "polluted {} vs plain {}", avg(1), avg(0));
    }

    #[test]
    fn all_tables_emitted() {
        let suite = tiny_suite();
        let tables = run(&suite);
        assert_eq!(tables.len(), 4);
        for t in &tables {
            assert!(!t.rows().is_empty());
        }
    }
}
