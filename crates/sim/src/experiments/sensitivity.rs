//! Trace-length sensitivity of the path-length sweep.
//!
//! The paper's traces run 0.03M–6M indirect branches; this reproduction
//! defaults to 120k per benchmark. Long-path predictors are warm-up bound,
//! so the right-hand side of Figure 9 depends on trace length: short traces
//! exaggerate the rise, long traces flatten it toward the paper's gentle
//! slope. This runner quantifies that, and backs the deviation note in
//! EXPERIMENTS.md.

use ibp_core::PredictorConfig;
use ibp_workload::Benchmark;

use crate::engine;
use crate::report::{Cell, Table};
use crate::suite::{Suite, SuiteResult};

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
///
/// Each length is one engine sweep, so its cells share the memo and
/// persistent result caches, the streamed groups and the trace corpus with
/// every other experiment; at the default 120k events that row is
/// Figure 9's own cells.
#[must_use]
pub fn run_with_lengths(lengths: &[u64]) -> Vec<Table> {
    table(lengths, |events| {
        let suite = Suite::with_benchmarks_and_len(&BENCHMARKS, events);
        engine::run_configs(&suite, PATHS.map(PredictorConfig::unconstrained).to_vec())
    })
}

/// Assembles the table from `results(events)`, one result per path length
/// in [`PATHS`] order.
fn table(lengths: &[u64], results: impl Fn(u64) -> Vec<SuiteResult>) -> Vec<Table> {
    let mut headers = vec!["events".to_string()];
    headers.extend(PATHS.iter().map(|p| format!("p={p}")));
    headers.push("p=12 excess over p=3".to_string());
    let mut t = Table::new(
        "Trace-length sensitivity of the Figure 9 tail (mean of ixx/porky/eqn)",
        headers,
    );
    for &events in lengths {
        let results = results(events);
        let mean = |col: usize| -> f64 {
            let rate = |b| results[col].rate(b).expect("every benchmark simulated");
            BENCHMARKS.iter().map(|&b| rate(b)).sum::<f64>() / BENCHMARKS.len() as f64
        };
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
    use crate::parallel_map;
    use crate::run::{simulate_source_kernels, RunStats};
    use ibp_core::FoldKernel;

    /// Below `trace_cache::MIN_CACHE_EVENTS`, so no corpus is written.
    const SHORT: [u64; 2] = [10_000, 40_000];

    /// The fold the engine sweep replaced: one generator pass per
    /// benchmark feeding every path length's kernel at once.
    fn folded(lengths: &[u64]) -> Vec<Table> {
        table(lengths, |events| {
            let per_benchmark: Vec<Vec<RunStats>> = parallel_map(&BENCHMARKS, |&b| {
                let mut kernels: Vec<FoldKernel> = PATHS
                    .iter()
                    .map(|&p| PredictorConfig::unconstrained(p).build_kernel())
                    .collect();
                simulate_source_kernels(&mut b.source(events), &mut kernels, 0)
                    .expect("generator sources cannot fail")
            });
            (0..PATHS.len())
                .map(|col| {
                    let runs = BENCHMARKS.iter().zip(&per_benchmark);
                    SuiteResult::from_runs(runs.map(|(&b, stats)| (b, stats[col])).collect())
                })
                .collect()
        })
    }

    #[test]
    fn memoized_sweep_equals_the_kernel_fold() {
        let swept = run_with_lengths(&SHORT);
        let oracle = folded(&SHORT);
        assert_eq!(swept[0].rows(), oracle[0].rows());
    }

    #[test]
    fn longer_traces_flatten_the_tail() {
        let tables = run_with_lengths(&SHORT);
        let t = &tables[0];
        let excess = |row: usize| t.expect_percent(row, t.headers().len() - 1);
        assert!(
            excess(1) < excess(0),
            "40k excess {} should be below 10k excess {}",
            excess(1),
            excess(0)
        );
    }
}
