//! §8.1 future-work predictors, evaluated at equal storage budgets.

use ibp_core::ext::{
    AheadPredictor, CascadePredictor, IttageLite, MultiHybridPredictor, SharedTableHybrid,
};
use ibp_core::{CompressedKeySpec, Predictor, PredictorConfig, TwoLevelPredictor};
use ibp_trace::{chunk_events, TraceChunk, TraceEvent};
use ibp_workload::{Benchmark, BenchmarkGroup};

use crate::engine::Sweep;
use crate::parallel_map;
use crate::report::{Cell, Table};
use crate::suite::Suite;

/// Total-entry budgets compared.
pub const BUDGETS: [usize; 3] = [2048, 8192, 32768];

/// Compares the paper's §8.1 sketches against the §6 two-component hybrid
/// at the same total entry budget:
///
/// * the baseline `p = 5.1` hybrid (two halves, 4-way);
/// * a three-component hybrid (§8.1 "three or more components"),
///   quarter/quarter/half split;
/// * a PPM-style cascade (§7 Chen et al. mimicry), long stage first;
/// * a shared-table hybrid with "chosen" counters (§8.1).
#[must_use]
pub fn run(suite: &Suite) -> Vec<Table> {
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
    let mut sweep = Sweep::new(suite);
    for total in BUDGETS {
        sweep.config(PredictorConfig::hybrid(5, 1, total / 2, 4));
        sweep.custom(
            format!("ext::MultiHybrid[6,3,1]({total}, 4-way)"),
            move || Box::new(multi_hybrid(total)) as Box<dyn Predictor>,
        );
        sweep.custom(format!("ext::Cascade[6,3,1]({total}, 4-way)"), move || {
            Box::new(cascade(total)) as Box<dyn Predictor>
        });
        sweep.custom(
            format!("ext::SharedTable[5,1]({total}, 4-way)"),
            move || Box::new(shared_table(total)) as Box<dyn Predictor>,
        );
        sweep.custom(format!("ext::IttageLite({total}/4, 4, 2)"), move || {
            Box::new(ittage_lite(total)) as Box<dyn Predictor>
        });
    }
    let mut results = sweep.run().into_iter();
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
    vec![t, ahead_accuracy(suite)]
}

/// The 3-component hybrid `6.3.1` at `total` entries: quarter, quarter and
/// half, 4-way.
#[must_use]
pub fn multi_hybrid(total: usize) -> MultiHybridPredictor {
    MultiHybridPredictor::new(stages_631(total))
}

/// The PPM-style cascade `6>3>1` at `total` entries, split like
/// [`multi_hybrid`].
#[must_use]
pub fn cascade(total: usize) -> CascadePredictor {
    CascadePredictor::new(stages_631(total))
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

/// §8.1's last idea: running ahead of execution. For each lookahead depth
/// `d`, the fraction of branches where the predictor — fed only its *own*
/// chained predictions as context — correctly anticipated both the branch
/// address and the target `d` steps in advance.
#[must_use]
pub fn ahead_accuracy(suite: &Suite) -> Table {
    let depths: [usize; 4] = [1, 2, 4, 8];
    let present: Vec<Benchmark> = AHEAD_BENCHMARKS
        .into_iter()
        .filter(|b| suite.benchmarks().contains(b))
        .collect();
    let mut headers = vec!["depth".to_string()];
    headers.extend(present.iter().map(|b| b.name().to_string()));
    let mut t = Table::new(
        "§8.1: ahead prediction accuracy by lookahead depth",
        headers,
    );

    // One pass per benchmark: maintain a window of pending chained
    // predictions and score each depth as branches resolve.
    let per_bench: Vec<Vec<f64>> = parallel_map(&present, |&b| {
        let mut source = suite.source(b);
        let max_depth = *depths.last().expect("depths");
        let mut predictor = AheadPredictor::new(4);
        // pending[d] = predictions made d+1 branches ago at chain depth d.
        let mut pending: Vec<std::collections::VecDeque<ibp_core::ext::AheadPrediction>> =
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
                // Score the chained predictions issued d branches ago.
                for (d, queue) in pending.iter_mut().enumerate() {
                    if queue.len() > d {
                        if let Some(pred) = queue.pop_front() {
                            if pred.pc == br.pc && pred.target == br.target {
                                correct[d] += 1;
                            }
                        }
                    }
                }
                // Resolve this branch first, then look ahead: chain[d] is
                // the prediction for the branch d+1 steps in the future.
                predictor.update(br.pc, br.target);
                let chain = predictor.predict_chain(max_depth);
                for (d, queue) in pending.iter_mut().enumerate() {
                    match chain.get(d) {
                        Some(&p) => queue.push_back(p),
                        None => queue.push_back(ibp_core::ext::AheadPrediction {
                            // A sentinel that can never match (the zero
                            // address never appears as a site).
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
        depths
            .iter()
            .map(|&d| {
                if scored == 0 {
                    0.0
                } else {
                    correct[d - 1] as f64 / scored as f64
                }
            })
            .collect()
    });

    for (row_idx, &d) in depths.iter().enumerate() {
        let mut row = vec![Cell::Count(d as u64)];
        for rates in &per_bench {
            row.push(Cell::Percent(rates[row_idx]));
        }
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ahead_accuracy_decays_with_depth() {
        let suite = Suite::with_benchmarks_and_len(&[Benchmark::Xlisp], 12_000);
        let t = ahead_accuracy(&suite);
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
