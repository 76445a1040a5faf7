//! Trace-length sensitivity of the path-length sweep.
//!
//! The paper's traces run 0.03M–6M indirect branches; this reproduction
//! defaults to 120k per benchmark. Long-path predictors are warm-up bound,
//! so the right-hand side of Figure 9 depends on trace length: short traces
//! exaggerate the rise, long traces flatten it toward the paper's gentle
//! slope. This runner quantifies that, and backs the deviation note in
//! EXPERIMENTS.md.

use ibp_core::{FoldKernel, PredictorConfig};
use ibp_workload::Benchmark;

use crate::parallel_map;
use crate::report::{Cell, Table};
use crate::run::simulate_source_kernels;
use crate::suite::{streaming_enabled, Suite};

/// Path lengths probed.
pub const PATHS: [usize; 4] = [3, 6, 9, 12];

/// Trace lengths probed (indirect branches per benchmark).
pub const LENGTHS: [u64; 4] = [30_000, 120_000, 480_000, 960_000];

/// The benchmarks used (a fast OO subset; the effect is universal).
pub const BENCHMARKS: [Benchmark; 3] = [Benchmark::Ixx, Benchmark::Porky, Benchmark::Eqn];

/// Sweeps the unconstrained predictor over trace length × path length.
/// The interesting column is the *excess* of long paths over `p = 3`,
/// which shrinks as traces grow.
#[must_use]
pub fn run(_suite: &Suite) -> Vec<Table> {
    run_with_lengths(&LENGTHS)
}

/// [`run`] with explicit trace lengths (tests use short ones).
#[must_use]
pub fn run_with_lengths(lengths: &[u64]) -> Vec<Table> {
    let mut headers = vec!["events".to_string()];
    headers.extend(PATHS.iter().map(|p| format!("p={p}")));
    headers.push("p=12 excess over p=3".to_string());
    let mut t = Table::new(
        "Trace-length sensitivity of the Figure 9 tail (mean of ixx/porky/eqn)",
        headers,
    );
    for &events in lengths {
        // One generator pass per benchmark at this length, feeding all
        // path-length predictors at once (results are identical to
        // dedicated passes). Long lengths stream instead of materialising.
        let rates: Vec<Vec<f64>> = parallel_map(&BENCHMARKS, |&b| {
            let mut kernels: Vec<FoldKernel> = PATHS
                .iter()
                .map(|&p| PredictorConfig::unconstrained(p).build_kernel())
                .collect();
            let stats = if streaming_enabled(events) {
                simulate_source_kernels(&mut b.source(events), &mut kernels, 0)
            } else {
                let trace = b.trace_with_len(events);
                simulate_source_kernels(&mut trace.cursor(), &mut kernels, 0)
            }
            .expect("generator sources cannot fail");
            stats.into_iter().map(|s| s.misprediction_rate()).collect()
        });
        let mean =
            |col: usize| -> f64 { rates.iter().map(|r| r[col]).sum::<f64>() / rates.len() as f64 };
        let mut row = vec![Cell::Count(events)];
        for col in 0..PATHS.len() {
            row.push(Cell::Percent(mean(col)));
        }
        row.push(Cell::Percent(mean(PATHS.len() - 1) - mean(0)));
        t.push_row(row);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longer_traces_flatten_the_tail() {
        let tables = run_with_lengths(&[10_000, 80_000]);
        let t = &tables[0];
        let excess = |row: usize| t.expect_percent(row, t.headers().len() - 1);
        assert!(
            excess(1) < excess(0),
            "80k excess {} should be below 10k excess {}",
            excess(1),
            excess(0)
        );
    }
}
