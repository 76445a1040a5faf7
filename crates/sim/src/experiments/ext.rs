//! §8.1 future-work predictors, evaluated at equal storage budgets.

use ibp_core::ext::{IttageLite, SharedTableHybrid};
use ibp_core::{
    CompressedKeySpec, FoldKernel, HybridPredictor, MetaSpec, PredictorConfig, TwoLevelPredictor,
};
use ibp_workload::{Benchmark, BenchmarkGroup};

use crate::analysis::{AheadHits, AheadLane, AHEAD_DEPTHS};
use crate::engine::Sweep;
use crate::report::{Cell, Table};
use crate::run::Measurement;
use crate::suite::{Suite, SuiteResult};

/// Total-entry budgets compared.
pub const BUDGETS: [usize; 3] = [2048, 8192, 32768];

/// Compares the paper's §8.1 sketches against the §6 two-component hybrid
/// at the same total entry budget:
///
/// * the baseline `p = 5.1` hybrid (two halves, 4-way);
/// * a three-component hybrid (§8.1 "three or more components"),
///   quarter/quarter/half split;
/// * a PPM-style cascade (§7 Chen et al. mimicry), long stage first;
/// * a shared-table hybrid with "chosen" counters (§8.1);
/// * ITTAGE-lite, a simplified modern descendant of the hybrid and
///   cascade designs.
///
/// The first four fold through the pass's component bank: the hybrid's
/// second component is also the three-stage designs' `p = 1` stage, and
/// the multi-hybrid and the cascade train the same three stage tables, so
/// each budget folds four distinct tables. ITTAGE-lite folds on its own
/// lane. The second table is the ahead-prediction depth study
/// ([`AheadLane`]), queued on the same sweep.
#[must_use]
pub fn run(suite: &Suite) -> Vec<Table> {
    let mut sweep = Sweep::new(suite);
    for total in BUDGETS {
        sweep.config(PredictorConfig::hybrid(5, 1, total / 2, 4));
        sweep.custom(
            format!("ext::MultiHybrid[6,3,1]({total}, 4-way)"),
            move || FoldKernel::Hybrid(multi_hybrid(total)),
        );
        sweep.custom(format!("ext::Cascade[6,3,1]({total}, 4-way)"), move || {
            FoldKernel::Hybrid(cascade(total))
        });
        sweep.custom(
            format!("ext::SharedTable[5,1]({total}, 4-way)"),
            move || FoldKernel::SharedTable(shared_table(total)),
        );
        sweep.custom(format!("ext::IttageLite({total}/4, 4, 2)"), move || {
            FoldKernel::from_boxed(Box::new(ittage_lite(total)))
        });
    }
    let ahead = ahead_benchmarks(suite);
    sweep.measure(AheadLane::key(AHEAD_PATH), &ahead, || {
        Box::new(AheadLane::new(AHEAD_PATH))
    });
    let (results, mut measured) = sweep.run_all();
    let hits: Vec<AheadHits> = measured
        .pop()
        .expect("one ahead measurement")
        .into_iter()
        .map(|m| match m {
            Measurement::Ahead(hits) => hits,
            other => unreachable!("an ahead cell holds {}", other.kind()),
        })
        .collect();
    vec![budget_table(results), ahead_table(&ahead, &hits)]
}

/// The equal-budget table from the sweep's results, five per budget in
/// queue order.
fn budget_table(results: Vec<SuiteResult>) -> Table {
    let mut t = Table::new(
        "§8.1: future-work predictors (AVG, equal total entries)",
        [
            "total",
            "hybrid 5.1",
            "3-component 6.3.1",
            "cascade 6>3>1",
            "shared-table 5.1",
            "ittage-lite",
        ],
    );
    let mut results = results.into_iter();
    for total in BUDGETS {
        let mut rate = || -> f64 {
            results
                .next()
                .expect("one result per predictor")
                .group_rate(BenchmarkGroup::Avg)
                .unwrap_or(0.0)
        };
        let (hybrid, multi, cascade, shared, ittage) = (rate(), rate(), rate(), rate(), rate());
        t.push_row(vec![
            Cell::Count(total as u64),
            Cell::Percent(hybrid),
            Cell::Percent(multi),
            Cell::Percent(cascade),
            Cell::Percent(shared),
            Cell::Percent(ittage),
        ]);
    }
    t
}

/// The 3-component hybrid `6.3.1` at `total` entries: quarter, quarter and
/// half, 4-way, under the confidence rule.
#[must_use]
pub fn multi_hybrid(total: usize) -> HybridPredictor {
    HybridPredictor::new(stages_631(total), MetaSpec::Confidence)
}

/// The PPM-style cascade `6>3>1` at `total` entries, split like
/// [`multi_hybrid`]: the same components under the first-hit rule.
#[must_use]
pub fn cascade(total: usize) -> HybridPredictor {
    HybridPredictor::new(stages_631(total), MetaSpec::FirstHit)
}

fn stages_631(total: usize) -> Vec<TwoLevelPredictor> {
    vec![
        TwoLevelPredictor::set_assoc(CompressedKeySpec::practical(6), total / 4, 4),
        TwoLevelPredictor::set_assoc(CompressedKeySpec::practical(3), total / 4, 4),
        TwoLevelPredictor::set_assoc(CompressedKeySpec::practical(1), total / 2, 4),
    ]
}

/// The shared-table hybrid `5.1`: one `total`-entry 4-way table.
#[must_use]
pub fn shared_table(total: usize) -> SharedTableHybrid {
    SharedTableHybrid::new(
        vec![
            CompressedKeySpec::practical(5),
            CompressedKeySpec::practical(1),
        ],
        total,
        4,
    )
}

/// ITTAGE-lite at `total` entries: 4 tagged tables sharing the budget,
/// geometric histories 2/4/8/16, plus the base BTB.
#[must_use]
pub fn ittage_lite(total: usize) -> IttageLite {
    IttageLite::new(total / 4, 4, 2)
}

/// The benchmarks used for the ahead-prediction depth study.
const AHEAD_BENCHMARKS: [Benchmark; 3] = [Benchmark::Ixx, Benchmark::Xlisp, Benchmark::Gcc];

/// The ahead predictor's path length.
const AHEAD_PATH: usize = 4;

/// The ahead-study benchmarks present in `suite`, in [`AHEAD_BENCHMARKS`]
/// order.
fn ahead_benchmarks(suite: &Suite) -> Vec<Benchmark> {
    AHEAD_BENCHMARKS
        .into_iter()
        .filter(|b| suite.benchmarks().contains(b))
        .collect()
}

/// §8.1's last idea, running ahead of execution: for each lookahead depth
/// `d`, the fraction of branches where the predictor — fed only its *own*
/// chained predictions as context — correctly anticipated both the branch
/// address and the target `d` steps in advance. `hits` holds one
/// measurement per benchmark of `present`.
fn ahead_table(present: &[Benchmark], hits: &[AheadHits]) -> Table {
    let mut headers = vec!["depth".to_string()];
    headers.extend(present.iter().map(|b| b.name().to_string()));
    let mut t = Table::new(
        "§8.1: ahead prediction accuracy by lookahead depth",
        headers,
    );
    let rates: Vec<[f64; 4]> = hits.iter().map(AheadHits::rates).collect();
    for (row_idx, &d) in AHEAD_DEPTHS.iter().enumerate() {
        let mut row = vec![Cell::Count(d as u64)];
        row.extend(rates.iter().map(|r| Cell::Percent(r[row_idx])));
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel_map;
    use ibp_core::ext::{AheadPrediction, AheadPredictor};
    use ibp_core::Predictor;
    use ibp_trace::{chunk_events, TraceChunk, TraceEvent};

    /// Below `trace_cache::MIN_CACHE_EVENTS`, so no corpus is written, and
    /// used by no other test, so the first engine run folds every cell.
    const SHORT: [u64; 2] = [10_000, 40_000];

    /// The fold the engine lane replaced: one pass per benchmark over its
    /// own source, keeping a window of pending chained predictions and
    /// scoring each depth as branches resolve, on a private
    /// `parallel_map`.
    fn folded_ahead(suite: &Suite) -> Table {
        let depths: [usize; 4] = [1, 2, 4, 8];
        let present = ahead_benchmarks(suite);
        let per_bench: Vec<AheadHits> = parallel_map(&present, |&b| {
            let mut source = suite.source(b);
            let max_depth = *depths.last().expect("depths");
            let mut predictor = AheadPredictor::new(4);
            // pending[d] = predictions made d+1 branches ago at chain depth d.
            let mut pending: Vec<std::collections::VecDeque<AheadPrediction>> =
                vec![std::collections::VecDeque::new(); max_depth];
            let mut correct = vec![0u64; max_depth];
            let mut scored = 0u64;
            let mut chunk = TraceChunk::default();
            loop {
                let more = source
                    .fill(&mut chunk, chunk_events())
                    .expect("suite sources cannot fail");
                for event in chunk.events() {
                    let TraceEvent::Indirect(br) = event else {
                        continue;
                    };
                    scored += 1;
                    for (d, queue) in pending.iter_mut().enumerate() {
                        if queue.len() > d {
                            if let Some(pred) = queue.pop_front() {
                                if pred.pc == br.pc && pred.target == br.target {
                                    correct[d] += 1;
                                }
                            }
                        }
                    }
                    predictor.update(br.pc, br.target);
                    let chain = predictor.predict_chain(max_depth);
                    for (d, queue) in pending.iter_mut().enumerate() {
                        match chain.get(d) {
                            Some(&p) => queue.push_back(p),
                            None => queue.push_back(AheadPrediction {
                                pc: ibp_trace::Addr::ZERO,
                                target: ibp_trace::Addr::ZERO,
                            }),
                        }
                    }
                }
                if !more {
                    break;
                }
            }
            AheadHits {
                scored,
                correct: depths.map(|d| correct[d - 1]),
            }
        });
        ahead_table(&present, &per_bench)
    }

    #[test]
    fn engine_ahead_cells_equal_the_fold_cold_and_memoized() {
        for events in SHORT {
            let suite = Suite::with_benchmarks_and_len(
                &[Benchmark::Ixx, Benchmark::Porky, Benchmark::Gcc],
                events,
            );
            let oracle = folded_ahead(&suite);
            for round in ["cold", "memoized"] {
                let swept = run(&suite);
                assert_eq!(
                    swept[1].to_csv(),
                    oracle.to_csv(),
                    "{round} at {events} events"
                );
            }
        }
    }

    /// The budget table's header promises equal total entries: at every
    /// budget, the snapshot of each composite the bank folds holds only
    /// bounded tables, whose capacities sum to exactly the column's total.
    /// (ITTAGE-lite's base BTB is unbounded.)
    #[test]
    fn bank_composites_hold_exactly_the_budget() {
        for total in BUDGETS {
            let composites: [Box<dyn Predictor>; 4] = [
                PredictorConfig::hybrid(5, 1, total / 2, 4).build(),
                Box::new(multi_hybrid(total)),
                Box::new(cascade(total)),
                Box::new(shared_table(total)),
            ];
            for p in composites {
                let snapshot = p.snapshot().expect("a composite snapshots");
                let capacities: Option<Vec<u64>> = snapshot
                    .components
                    .iter()
                    .map(|c| c.table.capacity)
                    .collect();
                let capacities =
                    capacities.unwrap_or_else(|| panic!("{}: an unbounded table", p.name()));
                assert_eq!(
                    capacities.iter().sum::<u64>(),
                    total as u64,
                    "{} at {total}",
                    p.name()
                );
            }
        }
    }

    #[test]
    fn ahead_accuracy_decays_with_depth() {
        let suite = Suite::with_benchmarks_and_len(&[Benchmark::Xlisp], 12_000);
        let t = &run(&suite)[1];
        let rate = |row: usize| t.expect_percent(row, 1);
        // Depth-1 accuracy is substantial and deeper lookaheads do not
        // beat shallower ones.
        assert!(rate(0) > 0.3, "depth-1 {}", rate(0));
        for w in 1..t.rows().len() {
            assert!(rate(w) <= rate(w - 1) + 0.02, "row {w}");
        }
    }

    #[test]
    fn all_variants_predict_sensibly() {
        let suite = Suite::with_benchmarks_and_len(&[Benchmark::Ixx, Benchmark::Porky], 12_000);
        let t = &run(&suite)[0];
        for row in 0..t.rows().len() {
            for col in 1..t.headers().len() {
                let r = t.expect_percent(row, col);
                // Every §8.1 variant must beat an always-miss predictor by a
                // wide margin.
                assert!((0.0..0.5).contains(&r), "rate {r}");
            }
        }
    }
}
