//! Figure 17: hybrid predictor hit rates over all path-length pairs.

use ibp_core::PredictorConfig;
use ibp_workload::BenchmarkGroup;

use crate::engine;
use crate::report::{Cell, Table};
use crate::suite::Suite;

/// Component table sizes of the two panels (entries per component).
pub const COMPONENT_SIZES: [usize; 2] = [2048, 8192];

/// Largest path length in the surface.
pub const MAX_P: usize = 12;

/// The configs of one panel, row-major over `(p1, p2)`: the hybrid of two
/// `size`-entry 4-way components off the diagonal, and on it the
/// non-hybrid of twice the component size.
#[must_use]
pub fn surface(size: usize) -> Vec<PredictorConfig> {
    (0..=MAX_P)
        .flat_map(|p1| {
            (0..=MAX_P).map(move |p2| {
                if p1 == p2 {
                    PredictorConfig::practical(p1, 2 * size, 4)
                } else {
                    PredictorConfig::hybrid(p1, p2, size, 4)
                }
            })
        })
        .collect()
}

/// Computes the AVG *hit rate* surface over all `(p1, p2)` combinations
/// for 4-way associative components with 2-bit confidence counters. The
/// diagonal (`p1 = p2`) shows a non-hybrid predictor of twice the
/// component size, as in the paper.
///
/// Paper shape: the best combinations pair a short path (1–3) with a long
/// one (5–12); the surface is roughly symmetric about the diagonal and
/// beats the diagonal itself away from it.
#[must_use]
pub fn run(suite: &Suite) -> Vec<Table> {
    let mut tables = Vec::new();
    for size in COMPONENT_SIZES {
        let mut headers = vec!["p1 \\ p2".to_string()];
        headers.extend((0..=MAX_P).map(|p| p.to_string()));
        let mut t = Table::new(
            format!("Figure 17: hybrid AVG hit rate, {size}-entry 4-way components"),
            headers,
        );
        // The whole (p1 x p2) surface as one flat engine sweep.
        let mut results = engine::run_configs(suite, surface(size)).into_iter();
        for p1 in 0..=MAX_P {
            let mut row = vec![Cell::Count(p1 as u64)];
            for _ in 0..=MAX_P {
                let rate = results
                    .next()
                    .expect("one result per config")
                    .group_rate(BenchmarkGroup::Avg);
                row.push(Cell::Percent(1.0 - rate.unwrap_or(1.0)));
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
    fn short_long_combo_beats_equal_paths() {
        let suite = Suite::with_benchmarks_and_len(&[Benchmark::Ixx, Benchmark::Porky], 15_000);
        // Use small components directly rather than the full surface (the
        // full run is exercised by the fig17 binary).
        let avg = |p1: usize, p2: usize| {
            suite
                .run(move || PredictorConfig::hybrid(p1, p2, 512, 4).build())
                .avg()
        };
        let short_long = avg(5, 1);
        let both_long = avg(8, 7);
        assert!(
            short_long <= both_long + 0.01,
            "5.1 {short_long} vs 8.7 {both_long}"
        );
    }
}
