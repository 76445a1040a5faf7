//! Figures 12, 14 and 15: limited associativity and pattern interleaving.

use ibp_core::{Associativity, Interleaving, PredictorConfig};
use ibp_workload::BenchmarkGroup;

use crate::engine;
use crate::report::{Cell, Table};
use crate::suite::Suite;

/// Total table size used in the paper's Figures 12–15.
pub const TABLE_ENTRIES: usize = 4096;

/// The associativities compared.
pub const ASSOCS: [Associativity; 4] = [
    Associativity::Tagless,
    Associativity::Ways(1),
    Associativity::Ways(2),
    Associativity::Ways(4),
];

fn assoc_label(a: Associativity) -> String {
    a.to_string()
}

fn sweep(suite: &Suite, interleaving: Interleaving, title: &str) -> Table {
    let mut headers = vec!["p".to_string()];
    headers.extend(ASSOCS.iter().map(|&a| assoc_label(a)));
    let mut t = Table::new(title, headers);
    // One flat (p x associativity) grid through the engine.
    let configs = (0..=12usize)
        .flat_map(|p| {
            ASSOCS.iter().map(move |&assoc| {
                PredictorConfig::practical(p, TABLE_ENTRIES, 1)
                    .with_associativity(assoc)
                    .with_interleaving(interleaving)
            })
        })
        .collect();
    let mut results = engine::run_configs(suite, configs).into_iter();
    for p in 0..=12usize {
        let mut row = vec![Cell::Count(p as u64)];
        for _ in ASSOCS {
            let rate = results
                .next()
                .expect("one result per config")
                .group_rate(BenchmarkGroup::Avg)
                .unwrap_or(0.0);
            row.push(Cell::Percent(rate));
        }
        t.push_row(row);
    }
    t
}

/// Reproduces the associativity × interleaving study on a 4096-entry
/// table:
///
/// * **Figure 12** — concatenated pattern bits: low associativities show
///   the saw-tooth pathology (paths differing only in older targets share
///   a set);
/// * **Figure 14** — reverse interleaving: the pathology disappears and
///   higher associativity consistently helps, with the tagless table
///   overtaking tagged ones at long paths (positive interference);
/// * **Figure 15 companion** — all four layouts compared at 1-way
///   associativity, where layout matters most.
#[must_use]
pub fn run(suite: &Suite) -> Vec<Table> {
    let fig12 = sweep(
        suite,
        Interleaving::Concat,
        "Figure 12: 4096-entry table, concatenated pattern",
    );
    let fig14 = sweep(
        suite,
        Interleaving::Reverse,
        "Figure 14: 4096-entry table, reverse interleaving",
    );

    // Figure 15 companion: interleaving schemes head to head (1-way).
    let mut headers = vec!["p".to_string()];
    headers.extend(Interleaving::ALL.iter().map(ToString::to_string));
    let mut fig15 = Table::new(
        "Figure 15 companion: interleaving schemes (4096-entry, 1-way)",
        headers,
    );
    let configs = (0..=12usize)
        .flat_map(|p| {
            Interleaving::ALL.iter().map(move |&scheme| {
                PredictorConfig::practical(p, TABLE_ENTRIES, 1).with_interleaving(scheme)
            })
        })
        .collect();
    let mut results = engine::run_configs(suite, configs).into_iter();
    for p in 0..=12usize {
        let mut row = vec![Cell::Count(p as u64)];
        for _ in Interleaving::ALL {
            let rate = results
                .next()
                .expect("one result per config")
                .group_rate(BenchmarkGroup::Avg)
                .unwrap_or(0.0);
            row.push(Cell::Percent(rate));
        }
        fig15.push_row(row);
    }
    vec![fig12, fig14, fig15]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_workload::Benchmark;

    #[test]
    fn interleaving_beats_concatenation_at_long_paths() {
        let suite = Suite::with_benchmarks_and_len(&[Benchmark::Ixx, Benchmark::Porky], 15_000);
        let tables = run(&suite);
        let (fig12, fig14) = (&tables[0], &tables[1]);
        // Column 2 = 1-way. Average over the longer paths where layout
        // matters (p >= 4).
        let mean =
            |t: &Table| -> f64 { (4..=12).map(|p| t.expect_percent(p, 2)).sum::<f64>() / 9.0 };
        let concat = mean(fig12);
        let reverse = mean(fig14);
        assert!(
            reverse < concat,
            "reverse {reverse} vs concat {concat} (1-way, p>=4)"
        );
    }

    #[test]
    fn higher_associativity_helps_with_interleaving() {
        let suite = Suite::with_benchmarks_and_len(&[Benchmark::Ixx, Benchmark::Porky], 15_000);
        let fig14 = &run(&suite)[1];
        // 4-way (col 4) <= 1-way (col 2) averaged over p = 1..=6.
        let one: f64 = (1..=6).map(|p| fig14.expect_percent(p, 2)).sum::<f64>();
        let four: f64 = (1..=6).map(|p| fig14.expect_percent(p, 4)).sum::<f64>();
        assert!(four <= one + 0.01, "4-way {four} vs 1-way {one}");
    }
}
