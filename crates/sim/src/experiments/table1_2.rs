//! Tables 1–2: benchmark characteristics.

use ibp_trace::CoverageLevel;

use crate::parallel_map;
use crate::report::{Cell, Table};
use crate::suite::Suite;

/// Regenerates the paper's benchmark tables from the synthetic traces:
/// dynamic branch counts, instructions and conditional branches per
/// indirect branch, virtual-call fraction, and the active-site coverage
/// columns.
#[must_use]
pub fn run(suite: &Suite) -> Vec<Table> {
    let mut oo = Table::new(
        "Table 1: OO benchmarks",
        [
            "name",
            "branches",
            "instr/ind",
            "cond/ind",
            "virt",
            "90%",
            "95%",
            "99%",
            "100%",
        ],
    );
    let mut c = Table::new(
        "Table 2: C benchmarks",
        [
            "name",
            "branches",
            "instr/ind",
            "cond/ind",
            "virt",
            "90%",
            "95%",
            "99%",
            "100%",
        ],
    );
    let benchmarks = suite.benchmarks();
    let all_stats = parallel_map(&benchmarks, |&b| suite.stats(b));
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

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_workload::Benchmark;

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
