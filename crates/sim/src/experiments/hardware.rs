//! Equal-hardware-budget comparison (§5.2.2's cost argument).
//!
//! The paper compares organisations at equal *entry* counts, then argues in
//! prose that tagless tables "require no tags and tag checking logic, so
//! the hardware implementation … is smaller and faster" and "may be the
//! preferable choice under many circumstances". This runner makes the
//! argument quantitative: it recompares the organisations at equal
//! **storage bits** (targets + counters + tags + valid bits), where a
//! tagless table affords roughly 1.7× the entries of a 4-way tagged one.

use ibp_core::{Associativity, PredictorConfig};
use ibp_workload::BenchmarkGroup;

use crate::engine;
use crate::report::{Cell, Table};
use crate::suite::Suite;

/// Bit budgets compared (kilobits of predictor storage). Chosen to
/// straddle power-of-two entry boundaries: a tagless entry costs 33 bits
/// vs ~56 for a 4-way tagged one, so at these budgets the tagless table
/// affords a full power-of-two step more entries.
pub const BUDGETS_KBIT: [u64; 5] = [24, 48, 96, 384, 1536];

/// The organisations compared.
const ORGS: [(&str, Associativity); 3] = [
    ("tagless", Associativity::Tagless),
    ("2-way", Associativity::Ways(2)),
    ("4-way", Associativity::Ways(4)),
];

/// The entry counts probed for each budget: powers of two from 32 to 128K.
const PROBED_LOG2_ENTRIES: std::ops::RangeInclusive<u32> = 5..=17;

/// The largest power-of-two entry count whose storage fits `budget_bits`
/// for the given organisation, probed via the cost model itself, read off
/// each configuration without building its tables.
fn entries_for_budget(assoc: Associativity, budget_bits: u64) -> Option<usize> {
    let mut best = None;
    for log2 in PROBED_LOG2_ENTRIES {
        let entries = 1usize << log2;
        let config = PredictorConfig::practical(3, entries, 1).with_associativity(assoc);
        match config.storage_bits() {
            Some(bits) if bits <= budget_bits => best = Some(entries),
            Some(_) => break,
            None => return None,
        }
    }
    best
}

/// For each bit budget and organisation: the affordable entry count and the
/// best misprediction rate over a small path search.
#[must_use]
pub fn run(suite: &Suite) -> Vec<Table> {
    let mut headers = vec!["budget".to_string()];
    for (name, _) in ORGS {
        headers.push(format!("{name} entries"));
        headers.push(format!("{name} miss"));
    }
    let mut t = Table::new(
        "§5.2.2: equal hardware budget (storage bits, best p in 1..=5)",
        headers,
    );
    // Resolve every cell's entry count first, then evaluate the whole
    // (budget × organisation × p) space as one flat sweep.
    let cells: Vec<Option<usize>> = BUDGETS_KBIT
        .iter()
        .flat_map(|&kbit| ORGS.map(|(_, assoc)| entries_for_budget(assoc, kbit * 1024)))
        .collect();
    let configs = cells
        .iter()
        .zip(BUDGETS_KBIT.iter().flat_map(|_| ORGS))
        .filter_map(|(&entries, (_, assoc))| entries.map(|e| (e, assoc)))
        .flat_map(|(entries, assoc)| {
            (1..=5usize)
                .map(move |p| PredictorConfig::practical(p, entries, 1).with_associativity(assoc))
        })
        .collect();
    let mut results = engine::run_configs(suite, configs).into_iter();
    let mut cells = cells.into_iter();
    for kbit in BUDGETS_KBIT {
        let mut row = vec![Cell::Text(format!("{kbit} Kbit"))];
        for _ in ORGS {
            match cells.next().expect("one cell per budget and organisation") {
                None => {
                    row.push(Cell::Empty);
                    row.push(Cell::Empty);
                }
                Some(entries) => {
                    let best = (1..=5usize)
                        .map(|_| {
                            results
                                .next()
                                .expect("one result per config")
                                .group_rate(BenchmarkGroup::Avg)
                                .unwrap_or(1.0)
                        })
                        .fold(f64::INFINITY, f64::min);
                    row.push(Cell::Count(entries as u64));
                    row.push(Cell::Percent(best));
                }
            }
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
    fn tagless_affords_more_entries_per_bit() {
        let budget = 512 * 1024;
        let tagless = entries_for_budget(Associativity::Tagless, budget).unwrap();
        let four_way = entries_for_budget(Associativity::Ways(4), budget).unwrap();
        assert!(
            tagless >= four_way,
            "tagless {tagless} vs 4-way {four_way} at equal bits"
        );
    }

    /// The storage a configuration reports is what the predictor it builds
    /// reports, for every organisation and size the budgets probe.
    #[test]
    fn configured_storage_is_the_built_predictors() {
        for (_, assoc) in ORGS {
            for log2 in PROBED_LOG2_ENTRIES {
                let config = PredictorConfig::practical(3, 1 << log2, 1).with_associativity(assoc);
                let bits = config.storage_bits();
                assert!(bits.is_some(), "{assoc} at 2^{log2} entries");
                assert_eq!(bits, config.build().storage_bits(), "{assoc} at 2^{log2}");
            }
        }
    }

    #[test]
    fn budgets_are_respected() {
        for (_, assoc) in ORGS {
            let entries = entries_for_budget(assoc, 64 * 1024).unwrap();
            let p = PredictorConfig::practical(3, entries, 1)
                .with_associativity(assoc)
                .build();
            assert!(p.storage_bits().unwrap() <= 64 * 1024);
            // Doubling would exceed the budget.
            let bigger = PredictorConfig::practical(3, entries * 2, 1)
                .with_associativity(assoc)
                .build();
            assert!(bigger.storage_bits().unwrap() > 64 * 1024);
        }
    }

    #[test]
    fn run_emits_complete_rows() {
        let suite = Suite::with_benchmarks_and_len(&[Benchmark::Ixx], 6_000);
        let t = &run(&suite)[0];
        assert_eq!(t.rows().len(), BUDGETS_KBIT.len());
        assert_eq!(t.headers().len(), 1 + 2 * ORGS.len());
    }
}
