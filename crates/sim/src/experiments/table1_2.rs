//! Tables 1–2: benchmark characteristics.

use crate::analysis::{TraceCounts, TraceLane};
use crate::engine::Sweep;
use crate::report::{Cell, Table};
use crate::run::Measurement;
use crate::suite::Suite;

/// Regenerates the paper's benchmark tables from the synthetic traces:
/// dynamic branch counts, instructions and conditional branches per
/// indirect branch, virtual-call fraction, and the active-site coverage
/// columns. Each benchmark's characteristics are one engine cell
/// ([`TraceLane`]).
#[must_use]
pub fn run(suite: &Suite) -> Vec<Table> {
    let headers = [
        "name",
        "branches",
        "instr/ind",
        "cond/ind",
        "virt",
        "90%",
        "95%",
        "99%",
        "100%",
    ];
    let mut oo = Table::new("Table 1: OO benchmarks", headers);
    let mut c = Table::new("Table 2: C benchmarks", headers);
    let benchmarks = suite.benchmarks();
    let mut sweep = Sweep::new(suite);
    sweep.measure(TraceLane::KEY, &benchmarks, || Box::<TraceLane>::default());
    let (_, mut measured) = sweep.run_all();
    let cells = measured.pop().expect("one trace measurement");
    for (b, m) in benchmarks.into_iter().zip(cells) {
        let Measurement::Trace(counts) = m else {
            unreachable!("a trace cell holds {}", m.kind());
        };
        let row = row(b.name(), b.is_object_oriented(), &counts);
        if b.is_object_oriented() {
            oo.push_row(row);
        } else {
            c.push_row(row);
        }
    }
    vec![oo, c]
}

/// One benchmark's row; the virtual-call column is Table 1's only.
fn row(name: &str, object_oriented: bool, counts: &TraceCounts) -> Vec<Cell> {
    let mut row = vec![
        Cell::from(name),
        Cell::Count(counts.indirect),
        Cell::Number(counts.instructions_per_indirect().round()),
        Cell::Number(counts.cond_per_indirect().round()),
        if object_oriented {
            Cell::Percent(counts.virtual_fraction())
        } else {
            Cell::Empty
        },
    ];
    row.extend(counts.active_sites.iter().map(|&n| Cell::Count(n)));
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel_map;
    use ibp_trace::{CoverageLevel, TraceStats};
    use ibp_workload::Benchmark;

    /// Below `trace_cache::MIN_CACHE_EVENTS`, so no corpus is written, and
    /// used by no other test, so the first engine run folds every cell.
    const SHORT: [u64; 2] = [10_000, 40_000];

    /// The fold the engine lane replaced: each benchmark's `TraceStats`
    /// over its own source pass, on a private `parallel_map`.
    fn folded(suite: &Suite) -> Vec<Table> {
        let headers = [
            "name",
            "branches",
            "instr/ind",
            "cond/ind",
            "virt",
            "90%",
            "95%",
            "99%",
            "100%",
        ];
        let mut oo = Table::new("Table 1: OO benchmarks", headers);
        let mut c = Table::new("Table 2: C benchmarks", headers);
        let benchmarks = suite.benchmarks();
        let all_stats = parallel_map(&benchmarks, |&b| {
            suite.pass(b, |source| TraceStats::from_source(source))
        });
        for (b, stats) in benchmarks.into_iter().zip(all_stats) {
            let row = vec![
                Cell::from(b.name()),
                Cell::Count(stats.indirect_branches),
                Cell::Number(stats.instructions_per_indirect.round()),
                Cell::Number(stats.cond_per_indirect.round()),
                if b.is_object_oriented() {
                    Cell::Percent(stats.virtual_fraction)
                } else {
                    Cell::Empty
                },
                Cell::Count(stats.active_sites(CoverageLevel::P90) as u64),
                Cell::Count(stats.active_sites(CoverageLevel::P95) as u64),
                Cell::Count(stats.active_sites(CoverageLevel::P99) as u64),
                Cell::Count(stats.active_sites(CoverageLevel::P100) as u64),
            ];
            if b.is_object_oriented() {
                oo.push_row(row);
            } else {
                c.push_row(row);
            }
        }
        vec![oo, c]
    }

    #[test]
    fn engine_cells_equal_the_fold_cold_and_memoized() {
        for events in SHORT {
            let suite = Suite::with_benchmarks_and_len(
                &[
                    Benchmark::Idl,
                    Benchmark::Xlisp,
                    Benchmark::Gcc,
                    Benchmark::Go,
                ],
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
    fn splits_suites_and_reports_ratios() {
        let suite =
            Suite::with_benchmarks_and_len(&[Benchmark::Idl, Benchmark::Gcc, Benchmark::Go], 5_000);
        let tables = run(&suite);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].rows().len(), 1); // idl
        assert_eq!(tables[1].rows().len(), 2); // gcc, go
        let text = tables[1].to_text();
        assert!(text.contains("gcc"));
        assert!(text.contains("go"));
    }
}
