//! §5.1's analytical asides: capacity-miss attribution and the pattern
//! census.

use ibp_core::PredictorConfig;
use ibp_workload::Benchmark;

use crate::analysis::{CensusLane, MissBreakdown, MissLane};
use crate::engine::Sweep;
use crate::report::{Cell, Table};
use crate::run::Measurement;
use crate::suite::Suite;

/// The `(size, path length)` points the paper attributes in §5.1:
/// "p = 2 wins at table size 256 with a misprediction rate of 12.5 %,
/// 3.6 % of which is due to capacity misses. For size 1024, p = 3 takes
/// over … 1.4 % due to capacity misses. For a 8192-entry table, p = 6 …
/// 0.6 % due to capacity misses."
pub const ATTRIBUTION_POINTS: [(usize, usize); 3] = [(256, 2), (1024, 3), (8192, 6)];

/// Benchmarks whose pattern census is tabulated (the paper quotes *ixx*:
/// 203 patterns at `p = 0`, 402 at 1, 865 at 2, 1469 at 3, 9403 at 12).
pub const CENSUS_BENCHMARKS: [Benchmark; 4] = [
    Benchmark::Ixx,
    Benchmark::Eqn,
    Benchmark::Gcc,
    Benchmark::Xlisp,
];

/// The path lengths the census counts patterns at.
pub const CENSUS_PATHS: std::ops::RangeInclusive<usize> = 0..=12;

/// The census benchmarks present in `suite`, in [`CENSUS_BENCHMARKS`]
/// order.
fn census_benchmarks(suite: &Suite) -> Vec<Benchmark> {
    CENSUS_BENCHMARKS
        .into_iter()
        .filter(|b| suite.benchmarks().contains(b))
        .collect()
}

/// Both §5.1 analysis tables: the miss attribution (fully-associative LRU
/// tables, AVG over the suite) and the pattern census. Every attribution
/// point of every benchmark and every census length of every census
/// benchmark is one cell of a single engine sweep.
#[must_use]
pub fn run(suite: &Suite) -> Vec<Table> {
    let benchmarks = suite.benchmarks();
    let census = census_benchmarks(suite);
    let mut sweep = Sweep::new(suite);
    for (size, p) in ATTRIBUTION_POINTS {
        // A practical fully-associative LRU table.
        let cfg = PredictorConfig::full_assoc(p, size);
        sweep.measure(MissLane::key(&cfg), &benchmarks, move || {
            Box::new(MissLane::new(&cfg))
        });
    }
    for p in CENSUS_PATHS {
        let cfg = PredictorConfig::unconstrained(p);
        sweep.measure(CensusLane::key(&cfg), &census, move || {
            Box::new(CensusLane::new(&cfg))
        });
    }
    let (_, measured) = sweep.run_all();
    let (attribution, patterns) = measured.split_at(ATTRIBUTION_POINTS.len());
    let breakdowns: Vec<Vec<MissBreakdown>> = attribution
        .iter()
        .map(|cells| {
            cells
                .iter()
                .map(|m| match *m {
                    Measurement::Misses(d) => d,
                    other => unreachable!("a misses cell holds {}", other.kind()),
                })
                .collect()
        })
        .collect();
    let counts: Vec<Vec<u64>> = patterns
        .iter()
        .map(|cells| {
            cells
                .iter()
                .map(|m| match *m {
                    Measurement::Patterns(n) => n,
                    other => unreachable!("a patterns cell holds {}", other.kind()),
                })
                .collect()
        })
        .collect();
    vec![
        attribution_table(&benchmarks, &breakdowns),
        census_table(&census, &counts),
    ]
}

/// The §5.1 attribution table from `breakdowns[point][benchmark]`, one
/// row per [`ATTRIBUTION_POINTS`] entry.
fn attribution_table(benchmarks: &[Benchmark], breakdowns: &[Vec<MissBreakdown>]) -> Table {
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
    for ((size, p), per_benchmark) in ATTRIBUTION_POINTS.into_iter().zip(breakdowns) {
        // AVG semantics: arithmetic mean of per-benchmark rates over the
        // non-infrequent members.
        let members: Vec<&MissBreakdown> = benchmarks
            .iter()
            .zip(per_benchmark)
            .filter(|(b, _)| !b.is_infrequent())
            .map(|(_, d)| d)
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

/// The §5.1 census table from `counts[path length][benchmark]`: distinct
/// `(branch, path)` patterns per path length.
fn census_table(census: &[Benchmark], counts: &[Vec<u64>]) -> Table {
    let mut headers = vec!["p".to_string()];
    headers.extend(census.iter().map(|b| b.name().to_string()));
    let mut t = Table::new("§5.1: distinct patterns by path length", headers);
    for (p, per_benchmark) in CENSUS_PATHS.zip(counts) {
        let mut row = vec![Cell::Count(p as u64)];
        row.extend(per_benchmark.iter().map(|&c| Cell::Count(c)));
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{pattern_census_source, simulate_classified_source};
    use crate::parallel_map;
    use ibp_core::{CompressedKeySpec, TwoLevelPredictor};

    /// Below `trace_cache::MIN_CACHE_EVENTS`, so no corpus is written, and
    /// used by no other test, so the first engine run folds every cell.
    const SHORT: [u64; 2] = [10_000, 40_000];

    fn tiny_suite() -> Suite {
        Suite::with_benchmarks_and_len(&[Benchmark::Ixx, Benchmark::Porky], 12_000)
    }

    /// The fold the engine sweep replaced: one pass per benchmark over its
    /// own source, classifying every attribution point, then one per
    /// census benchmark counting every path length, on private
    /// `parallel_map` calls.
    fn folded(suite: &Suite) -> Vec<Table> {
        let benchmarks = suite.benchmarks();
        let breakdowns: Vec<Vec<MissBreakdown>> = parallel_map(&benchmarks, |&b| {
            let mut predictors: Vec<TwoLevelPredictor> = ATTRIBUTION_POINTS
                .iter()
                .map(|&(size, p)| {
                    TwoLevelPredictor::full_assoc(CompressedKeySpec::practical(p), size)
                })
                .collect();
            simulate_classified_source(&mut *suite.source(b), &mut predictors)
                .expect("suite sources cannot fail")
        });
        let census = census_benchmarks(suite);
        let paths: Vec<usize> = CENSUS_PATHS.collect();
        let counts: Vec<Vec<usize>> = parallel_map(&census, |&b| {
            pattern_census_source(&mut *suite.source(b), &paths)
                .expect("suite sources cannot fail")
        });
        // Transpose to the engine's [job][benchmark] order.
        let by_point: Vec<Vec<MissBreakdown>> = (0..ATTRIBUTION_POINTS.len())
            .map(|i| breakdowns.iter().map(|d| d[i]).collect())
            .collect();
        let by_path: Vec<Vec<u64>> = (0..paths.len())
            .map(|i| counts.iter().map(|c| c[i] as u64).collect())
            .collect();
        vec![
            attribution_table(&benchmarks, &by_point),
            census_table(&census, &by_path),
        ]
    }

    #[test]
    fn engine_cells_equal_the_fold_cold_and_memoized() {
        for events in SHORT {
            let suite = Suite::with_benchmarks_and_len(
                &[Benchmark::Ixx, Benchmark::Porky, Benchmark::Gcc],
                events,
            );
            let oracle = folded(&suite);
            for round in ["cold", "memoized"] {
                let swept = run(&suite);
                assert_eq!(swept.len(), oracle.len());
                for (s, o) in swept.iter().zip(&oracle) {
                    assert_eq!(s.to_csv(), o.to_csv(), "{round} at {events} events");
                }
            }
        }
    }

    #[test]
    fn attribution_components_sum_to_total() {
        let suite = tiny_suite();
        let t = &run(&suite)[0];
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
        let t = &run(&suite)[0];
        let cap = |row: usize| t.expect_percent(row, 3);
        assert!(cap(0) >= cap(2), "256-entry {} vs 8K {}", cap(0), cap(2));
    }

    #[test]
    fn census_monotone_in_p() {
        let suite = tiny_suite();
        let t = &run(&suite)[1];
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
