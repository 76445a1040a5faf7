//! Figure 11: limited-size fully-associative tables.

use ibp_core::PredictorConfig;
use ibp_workload::BenchmarkGroup;

use crate::engine;
use crate::experiments::TABLE_SIZES;
use crate::report::{Cell, Table};
use crate::suite::Suite;

/// The path lengths plotted in the paper's Figure 11.
pub const PATHS: [usize; 9] = [0, 1, 2, 3, 4, 6, 8, 10, 12];

/// Sweeps bounded fully-associative LRU tables (capacity misses only) over
/// size and path length.
///
/// Paper shape: short paths saturate early (`p = 0` stops improving at 256
/// entries), longer paths keep improving with size, and the best path
/// length for a given size grows with the size — `p = 2` wins at 256
/// entries, `p = 3` at 1K, `p = 6` at 8K.
#[must_use]
pub fn run(suite: &Suite) -> Vec<Table> {
    let mut headers = vec!["size".to_string()];
    headers.extend(PATHS.iter().map(|p| format!("p={p}")));
    let mut t = Table::new("Figure 11: fully-associative tables (AVG, LRU)", headers);
    // One flat (size x p) grid through the engine.
    let configs = TABLE_SIZES
        .iter()
        .flat_map(|&size| {
            PATHS
                .iter()
                .map(move |&p| PredictorConfig::full_assoc(p, size))
        })
        .collect();
    let mut results = engine::run_configs(suite, configs).into_iter();
    for size in TABLE_SIZES {
        let mut row = vec![Cell::Count(size as u64)];
        for _ in PATHS {
            let rate = results
                .next()
                .expect("one result per config")
                .group_rate(BenchmarkGroup::Avg)
                .unwrap_or(0.0);
            row.push(Cell::Percent(rate));
        }
        t.push_row(row);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_workload::Benchmark;

    #[test]
    fn bigger_tables_help_and_long_paths_need_them() {
        let suite = Suite::with_benchmarks_and_len(&[Benchmark::Ixx, Benchmark::Porky], 15_000);
        let t = &run(&suite)[0];
        // Columns: size, p=0..12 (indices 1..=9); rows = sizes ascending.
        let smallest = 0;
        let largest = t.rows().len() - 1;
        // For a mid path length, a larger table is at least as good.
        let p3_small = t.expect_percent(smallest, 4);
        let p3_large = t.expect_percent(largest, 4);
        assert!(p3_large <= p3_small + 0.01);
        // At tiny sizes, short paths beat long ones (capacity misses).
        assert!(t.expect_percent(smallest, 2) < t.expect_percent(smallest, 9));
    }
}
