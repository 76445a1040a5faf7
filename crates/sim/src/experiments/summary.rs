//! The headline numbers from the abstract and conclusions (§8).

use ibp_core::PredictorConfig;
use ibp_workload::BenchmarkGroup;

use crate::engine::Sweep;
use crate::report::{Cell, Table};
use crate::suite::Suite;

/// Regenerates the abstract's claims:
///
/// * an ideal (unconstrained) BTB mispredicts ≈ 25 % of indirect branches;
/// * a practical two-level predictor reaches ≈ 9.8 % with a 1K-entry table
///   and ≈ 7.3 % with 8K (4-way, `p = 3`/`p = 4`) — "more than a threefold
///   improvement over an ideal BTB";
/// * hybrids further reduce these to ≈ 8.98 % and ≈ 5.95 %.
///
/// The reproduced numbers use this repo's best path lengths (chosen by a
/// small sweep) rather than hard-coding the paper's. All 17 configs queue
/// on one sweep, so each benchmark folds them in one pass, where the
/// practical and hybrid lanes share their key streams.
#[must_use]
pub fn run(suite: &Suite) -> Vec<Table> {
    /// A row: its label, the config at each path length, the path lengths
    /// it takes the best of, and the paper's number.
    type Row = (
        &'static str,
        fn(usize) -> PredictorConfig,
        &'static [usize],
        f64,
    );
    let rows: [Row; 5] = [
        (
            "ideal BTB (2bc)",
            |_| PredictorConfig::btb_2bc(),
            &[0],
            0.249,
        ),
        (
            "two-level, 1K 4-way",
            |p| PredictorConfig::practical(p, 1024, 4),
            &[1, 2, 3, 4],
            0.098,
        ),
        (
            "two-level, 8K 4-way",
            |p| PredictorConfig::practical(p, 8192, 4),
            &[2, 3, 4, 5, 6],
            0.073,
        ),
        (
            "hybrid, 1K total 4-way",
            |p| PredictorConfig::hybrid(p, 1, 512, 4),
            &[2, 3, 4],
            0.0898,
        ),
        (
            "hybrid, 8K total 4-way",
            |p| PredictorConfig::hybrid(p, 2, 4096, 4),
            &[4, 5, 6, 7],
            0.0595,
        ),
    ];
    let mut sweep = Sweep::new(suite);
    for (_, config, paths, _) in &rows {
        for &p in *paths {
            sweep.config(config(p));
        }
    }
    let mut results = sweep.run().into_iter();

    let mut t = Table::new(
        "Headline numbers (AVG misprediction)",
        ["predictor", "measured", "paper"],
    );
    for (label, _, paths, paper) in rows {
        let measured = results
            .by_ref()
            .take(paths.len())
            .map(|r| r.group_rate(BenchmarkGroup::Avg).unwrap_or(0.0))
            .fold(f64::INFINITY, f64::min);
        t.push_row(vec![
            Cell::from(label),
            Cell::Percent(measured),
            Cell::Percent(paper),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_workload::Benchmark;

    #[test]
    fn two_level_improves_over_btb_threefold_shape() {
        let suite = Suite::with_benchmarks_and_len(
            &[Benchmark::Ixx, Benchmark::Porky, Benchmark::Eqn],
            15_000,
        );
        let t = &run(&suite)[0];
        let btb = t.expect_percent(0, 1);
        let tl_8k = t.expect_percent(2, 1);
        assert!(
            tl_8k * 2.0 < btb,
            "8K two-level {tl_8k} not well below BTB {btb}"
        );
    }
}
