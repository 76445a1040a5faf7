//! §5.1's analytical asides: capacity-miss attribution and the pattern
//! census.

use ibp_core::{CompressedKeySpec, TwoLevelPredictor};
use ibp_workload::Benchmark;

use crate::analysis::{pattern_census_source, simulate_classified_source, MissBreakdown};
use crate::parallel_map;
use crate::report::{Cell, Table};
use crate::suite::Suite;

/// The `(size, path length)` points the paper attributes in §5.1:
/// "p = 2 wins at table size 256 with a misprediction rate of 12.5 %,
/// 3.6 % of which is due to capacity misses. For size 1024, p = 3 takes
/// over … 1.4 % due to capacity misses. For a 8192-entry table, p = 6 …
/// 0.6 % due to capacity misses."
pub const ATTRIBUTION_POINTS: [(usize, usize); 3] = [(256, 2), (1024, 3), (8192, 6)];

/// Misprediction attribution for the §5.1 points (fully-associative LRU
/// tables, AVG over the suite).
#[must_use]
pub fn miss_attribution(suite: &Suite) -> Table {
    let mut t = Table::new(
        "§5.1: miss attribution (fully-associative tables, AVG)",
        [
            "size",
            "p",
            "total miss",
            "capacity",
            "cold",
            "wrong target",
        ],
    );
    // One pass per benchmark classifies all the points as lanes.
    let benchmarks = suite.benchmarks();
    let per_benchmark: Vec<Vec<MissBreakdown>> = parallel_map(&benchmarks, |&b| {
        let mut predictors: Vec<TwoLevelPredictor> = ATTRIBUTION_POINTS
            .iter()
            .map(|&(size, p)| TwoLevelPredictor::full_assoc(CompressedKeySpec::practical(p), size))
            .collect();
        simulate_classified_source(&mut *suite.source(b), &mut predictors)
            .expect("suite sources cannot fail")
    });
    for (point, (size, p)) in ATTRIBUTION_POINTS.into_iter().enumerate() {
        // AVG semantics: arithmetic mean of per-benchmark rates over the
        // non-infrequent members.
        let members: Vec<&MissBreakdown> = benchmarks
            .iter()
            .zip(&per_benchmark)
            .filter(|(b, _)| !b.is_infrequent())
            .map(|(_, d)| &d[point])
            .collect();
        let mean = |f: &dyn Fn(&MissBreakdown) -> f64| -> f64 {
            if members.is_empty() {
                0.0
            } else {
                members.iter().map(|d| f(d)).sum::<f64>() / members.len() as f64
            }
        };
        t.push_row(vec![
            Cell::Count(size as u64),
            Cell::Count(p as u64),
            Cell::Percent(mean(&MissBreakdown::misprediction_rate)),
            Cell::Percent(mean(&MissBreakdown::capacity_rate)),
            Cell::Percent(mean(&MissBreakdown::cold_rate)),
            Cell::Percent(mean(&|d: &MissBreakdown| {
                d.misprediction_rate() - d.capacity_rate() - d.cold_rate()
            })),
        ]);
    }
    t
}

/// Benchmarks whose pattern census is tabulated (the paper quotes *ixx*:
/// 203 patterns at `p = 0`, 402 at 1, 865 at 2, 1469 at 3, 9403 at 12).
pub const CENSUS_BENCHMARKS: [Benchmark; 4] = [
    Benchmark::Ixx,
    Benchmark::Eqn,
    Benchmark::Gcc,
    Benchmark::Xlisp,
];

/// Distinct `(branch, path)` patterns per path length (§5.1).
#[must_use]
pub fn census(suite: &Suite) -> Table {
    let mut headers = vec!["p".to_string()];
    let present: Vec<Benchmark> = CENSUS_BENCHMARKS
        .into_iter()
        .filter(|b| suite.benchmarks().contains(b))
        .collect();
    headers.extend(present.iter().map(|b| b.name().to_string()));
    let mut t = Table::new("§5.1: distinct patterns by path length", headers);
    let paths: Vec<usize> = (0..=12).collect();
    // One pass per benchmark counts every path length as a lane.
    let counts: Vec<Vec<usize>> = parallel_map(&present, |&b| {
        pattern_census_source(&mut *suite.source(b), &paths).expect("suite sources cannot fail")
    });
    for (i, &p) in paths.iter().enumerate() {
        let mut row = vec![Cell::Count(p as u64)];
        row.extend(counts.iter().map(|c| Cell::Count(c[i] as u64)));
        t.push_row(row);
    }
    t
}

/// Both §5.1 analysis tables.
#[must_use]
pub fn run(suite: &Suite) -> Vec<Table> {
    vec![miss_attribution(suite), census(suite)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_suite() -> Suite {
        Suite::with_benchmarks_and_len(&[Benchmark::Ixx, Benchmark::Porky], 10_000)
    }

    #[test]
    fn attribution_components_sum_to_total() {
        let suite = tiny_suite();
        let t = miss_attribution(&suite);
        for row in 0..t.rows().len() {
            let total = t.expect_percent(row, 2);
            let parts =
                t.expect_percent(row, 3) + t.expect_percent(row, 4) + t.expect_percent(row, 5);
            assert!((total - parts).abs() < 1e-9, "{total} vs {parts}");
        }
    }

    #[test]
    fn capacity_share_shrinks_with_size() {
        let suite = tiny_suite();
        let t = miss_attribution(&suite);
        let cap = |row: usize| t.expect_percent(row, 3);
        assert!(cap(0) >= cap(2), "256-entry {} vs 8K {}", cap(0), cap(2));
    }

    #[test]
    fn census_monotone_in_p() {
        let suite = tiny_suite();
        let t = census(&suite);
        let count = |row: usize, col: usize| match t.rows()[row][col] {
            Cell::Count(c) => c,
            _ => panic!("count cell"),
        };
        for col in 1..t.headers().len() {
            for row in 1..t.rows().len() {
                assert!(
                    count(row, col) >= count(row - 1, col),
                    "col {col} row {row}"
                );
            }
        }
    }
}
