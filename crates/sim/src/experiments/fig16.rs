//! Figure 16: misprediction rates over table size, for tagless, 2-way and
//! 4-way tables.

use ibp_core::{Associativity, PredictorConfig};
use ibp_workload::BenchmarkGroup;

use crate::engine;
use crate::report::{Cell, Table};
use crate::suite::Suite;

/// Sizes plotted (the paper's Figure 16 shows 128..=32768).
pub const SIZES: [usize; 9] = [128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768];

/// Associativities of the three panels.
pub const ASSOCS: [Associativity; 3] = [
    Associativity::Tagless,
    Associativity::Ways(2),
    Associativity::Ways(4),
];

/// Sweeps the practical predictor over table size × path length for each
/// associativity panel.
///
/// Paper shape: for every size, higher associativity is at least as good;
/// the best path length per size grows with size (e.g. 4-way: `p = 2` for
/// 256..1K, `p = 3` up to 4K, `p = 4`..`p = 5` beyond); tagless tables
/// favour shorter paths but stay competitive thanks to positive
/// interference.
#[must_use]
pub fn run(suite: &Suite) -> Vec<Table> {
    let mut tables = Vec::new();
    for assoc in ASSOCS {
        let mut headers = vec!["p".to_string()];
        headers.extend(SIZES.iter().map(|s| s.to_string()));
        let mut t = Table::new(
            format!("Figure 16: AVG misprediction, {assoc} tables"),
            headers,
        );
        // One flat (p x size) grid per panel through the engine.
        let configs = (0..=12usize)
            .flat_map(|p| {
                SIZES.iter().map(move |&size| {
                    PredictorConfig::practical(p, size, 1).with_associativity(assoc)
                })
            })
            .collect();
        let mut results = engine::run_configs(suite, configs).into_iter();
        for p in 0..=12usize {
            let mut row = vec![Cell::Count(p as u64)];
            for _ in SIZES {
                let rate = results
                    .next()
                    .expect("one result per config")
                    .group_rate(BenchmarkGroup::Avg)
                    .unwrap_or(0.0);
                row.push(Cell::Percent(rate));
            }
            t.push_row(row);
        }
        tables.push(t);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_workload::Benchmark;

    #[test]
    fn best_path_grows_with_size() {
        let suite = Suite::with_benchmarks_and_len(&[Benchmark::Ixx, Benchmark::Porky], 15_000);
        let four_way = &run(&suite)[2];
        let best_p = |col: usize| -> usize {
            (0..=12)
                .min_by(|&a, &b| {
                    four_way
                        .expect_percent(a, col)
                        .partial_cmp(&four_way.expect_percent(b, col))
                        .unwrap()
                })
                .unwrap()
        };
        // Smallest (col 1) vs largest (col 9) plotted size.
        assert!(best_p(1) <= best_p(9), "{} vs {}", best_p(1), best_p(9));
    }

    #[test]
    fn bigger_is_at_least_as_good_at_fixed_p() {
        let suite = Suite::with_benchmarks_and_len(&[Benchmark::Ixx, Benchmark::Porky], 15_000);
        let four_way = &run(&suite)[2];
        // p = 3 row: last size <= first size.
        assert!(four_way.expect_percent(3, 9) <= four_way.expect_percent(3, 1) + 0.01);
    }
}
