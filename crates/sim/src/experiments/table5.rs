//! Table 5: concatenation versus xor of the history pattern with the
//! branch address.

use ibp_core::{KeyScheme, PredictorConfig};
use ibp_workload::BenchmarkGroup;

use crate::engine;
use crate::report::{Cell, Table};
use crate::suite::Suite;

/// Compares the two §4.2 key schemes over path lengths 0..=12 on
/// unconstrained tables with 24-bit compressed patterns.
///
/// Paper shape: the gshare-style xor (30-bit keys) costs at most a few
/// tenths of a percent over concatenation (54-bit keys) — e.g. 6.01 % vs
/// 5.99 % at `p = 6` — while halving tag storage, so the paper adopts xor.
#[must_use]
pub fn run(suite: &Suite) -> Vec<Table> {
    let mut t = Table::new(
        "Table 5: key scheme (AVG, 24-bit patterns, unconstrained tables)",
        ["p", "xor", "concat", "xor - concat"],
    );
    let configs = (0..=12usize)
        .flat_map(|p| {
            [KeyScheme::GshareXor, KeyScheme::Concat]
                .map(|scheme| PredictorConfig::compressed_unbounded(p).with_key_scheme(scheme))
        })
        .collect();
    let mut results = engine::run_configs(suite, configs).into_iter();
    for p in 0..=12usize {
        let rate = |r: crate::suite::SuiteResult| r.group_rate(BenchmarkGroup::Avg).unwrap_or(0.0);
        let xor = rate(results.next().expect("one result per config"));
        let concat = rate(results.next().expect("one result per config"));
        t.push_row(vec![
            Cell::Count(p as u64),
            Cell::Percent(xor),
            Cell::Percent(concat),
            Cell::Percent(xor - concat),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_workload::Benchmark;

    #[test]
    fn xor_penalty_is_small() {
        let suite = Suite::with_benchmarks_and_len(&[Benchmark::Ixx, Benchmark::Porky], 15_000);
        let t = &run(&suite)[0];
        for row in 0..t.rows().len() {
            let delta = t.expect_percent(row, 3);
            // Xor may only cost a small amount over concatenation.
            assert!(delta < 0.02, "xor penalty {delta}");
        }
    }

    #[test]
    fn p0_schemes_identical() {
        let suite = Suite::with_benchmarks_and_len(&[Benchmark::Ixx], 10_000);
        let t = &run(&suite)[0];
        let delta = t.expect_percent(0, 3);
        assert!(delta.abs() < 1e-12, "p=0 keys are the branch address only");
    }
}
