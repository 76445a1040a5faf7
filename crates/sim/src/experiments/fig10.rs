//! Figure 10: misprediction rates for limited-precision history patterns.

use ibp_core::PredictorConfig;
use ibp_workload::BenchmarkGroup;

use crate::engine;
use crate::report::{Cell, Table};
use crate::suite::Suite;

/// The per-target precisions plotted (bits from each target address,
/// selected from bit 2 up), plus full precision.
pub const PRECISIONS: [u32; 5] = [1, 2, 3, 4, 8];

/// Sweeps per-target precision against path length on unconstrained tables.
///
/// Paper shape: the `b = 8` curve "almost completely overlaps with the
/// full-address curve"; low precision hurts short paths most (at `p = 3`,
/// 2 bits gives 10.6 % vs 7.1 % full precision) while for `p = 10` two
/// bits are nearly as good as full addresses.
#[must_use]
pub fn run(suite: &Suite) -> Vec<Table> {
    let mut headers = vec!["p".to_string()];
    headers.extend(PRECISIONS.iter().map(|b| format!("b={b}")));
    headers.push("full".to_string());

    let mut t = Table::new(
        "Figure 10: limited-precision patterns (AVG, unconstrained tables)",
        headers,
    );
    // One flat (p x precision) grid through the engine.
    let mut configs = Vec::new();
    for p in 0..=12usize {
        for &b in &PRECISIONS {
            configs.push(PredictorConfig::unconstrained(p).with_precision(b));
        }
        configs.push(PredictorConfig::unconstrained(p));
    }
    let mut results = engine::run_configs(suite, configs).into_iter();
    for p in 0..=12usize {
        let mut row = vec![Cell::Count(p as u64)];
        for _ in 0..=PRECISIONS.len() {
            let result = results.next().expect("one result per config");
            row.push(Cell::Percent(
                result.group_rate(BenchmarkGroup::Avg).unwrap_or(0.0),
            ));
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
    fn eight_bits_track_full_precision() {
        let suite = Suite::with_benchmarks_and_len(&[Benchmark::Ixx, Benchmark::Porky], 15_000);
        let t = &run(&suite)[0];
        // Columns: p, b=1, b=2, b=3, b=4, b=8, full.
        for row in 2..=6 {
            let b8 = t.expect_percent(row, 5);
            let full = t.expect_percent(row, 6);
            assert!(
                (b8 - full).abs() < 0.02,
                "row {row}: b=8 {b8} vs full {full}"
            );
        }
    }

    #[test]
    fn low_precision_hurts_short_paths_more() {
        let suite = Suite::with_benchmarks_and_len(&[Benchmark::Ixx, Benchmark::Porky], 15_000);
        let t = &run(&suite)[0];
        // Penalty of b=1 vs full at p=2 exceeds the penalty at p=10.
        let short = t.expect_percent(2, 1) - t.expect_percent(2, 6);
        let long = t.expect_percent(10, 1) - t.expect_percent(10, 6);
        assert!(short > long - 0.01, "short {short} vs long {long}");
    }
}
