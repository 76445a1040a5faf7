//! Figure 18 and Tables 6, A-1, A-2: the best predictor for every table
//! size, organisation and (for hybrids) path-length pair.

use std::collections::HashMap;

use ibp_core::{Associativity, PredictorConfig};
use ibp_workload::BenchmarkGroup;

use crate::engine;
use crate::experiments::TABLE_SIZES;
use crate::report::{Cell, Table};
use crate::suite::{Suite, SuiteResult};

/// Search-space options. The defaults match the appendix reproduction; the
/// integration tests use reduced spaces.
#[derive(Debug, Clone)]
pub struct Options {
    /// Total table sizes (entries).
    pub sizes: Vec<usize>,
    /// Candidate path lengths for non-hybrid predictors.
    pub paths: Vec<usize>,
    /// Candidate short-component path lengths for hybrids.
    pub short_paths: Vec<usize>,
    /// Candidate long-component path lengths for hybrids.
    pub long_paths: Vec<usize>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            sizes: TABLE_SIZES.to_vec(),
            paths: (0..=8).collect(),
            short_paths: vec![0, 1, 2, 3],
            long_paths: (1..=9).collect(),
        }
    }
}

/// The predictor organisations of Table A-1, in column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictorClass {
    /// Bounded fully-associative BTB (`btb fullassoc`).
    BtbFullAssoc,
    /// Two-level, tagless table.
    Tagless,
    /// Two-level, 1-way associative.
    Assoc1,
    /// Two-level, 2-way associative.
    Assoc2,
    /// Two-level, 4-way associative.
    Assoc4,
    /// Two-level, fully associative (LRU).
    FullAssoc,
    /// Hybrid over tagless components.
    HybridTagless,
    /// Hybrid over 1-way components.
    HybridAssoc1,
    /// Hybrid over 2-way components.
    HybridAssoc2,
    /// Hybrid over 4-way components.
    HybridAssoc4,
}

impl PredictorClass {
    /// All classes, Table A-1 column order.
    pub const ALL: [PredictorClass; 10] = [
        PredictorClass::BtbFullAssoc,
        PredictorClass::Tagless,
        PredictorClass::Assoc1,
        PredictorClass::Assoc2,
        PredictorClass::Assoc4,
        PredictorClass::FullAssoc,
        PredictorClass::HybridTagless,
        PredictorClass::HybridAssoc1,
        PredictorClass::HybridAssoc2,
        PredictorClass::HybridAssoc4,
    ];

    /// The Table A-1 column label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PredictorClass::BtbFullAssoc => "btb",
            PredictorClass::Tagless => "tagless",
            PredictorClass::Assoc1 => "assoc1",
            PredictorClass::Assoc2 => "assoc2",
            PredictorClass::Assoc4 => "assoc4",
            PredictorClass::FullAssoc => "fullassoc",
            PredictorClass::HybridTagless => "hyb-tagless",
            PredictorClass::HybridAssoc1 => "hyb-assoc1",
            PredictorClass::HybridAssoc2 => "hyb-assoc2",
            PredictorClass::HybridAssoc4 => "hyb-assoc4",
        }
    }

    /// Whether this is a hybrid organisation.
    #[must_use]
    pub fn is_hybrid(self) -> bool {
        matches!(
            self,
            PredictorClass::HybridTagless
                | PredictorClass::HybridAssoc1
                | PredictorClass::HybridAssoc2
                | PredictorClass::HybridAssoc4
        )
    }

    fn component_assoc(self) -> Associativity {
        match self {
            PredictorClass::Tagless | PredictorClass::HybridTagless => Associativity::Tagless,
            PredictorClass::Assoc1 | PredictorClass::HybridAssoc1 => Associativity::Ways(1),
            PredictorClass::Assoc2 | PredictorClass::HybridAssoc2 => Associativity::Ways(2),
            PredictorClass::Assoc4 | PredictorClass::HybridAssoc4 => Associativity::Ways(4),
            PredictorClass::FullAssoc | PredictorClass::BtbFullAssoc => Associativity::Full,
        }
    }
}

/// The winning configuration of one `(class, size)` search cell.
#[derive(Debug, Clone)]
pub struct BestCell {
    /// The organisation.
    pub class: PredictorClass,
    /// Total table entries.
    pub size: usize,
    /// Path label (`"3"` for non-hybrid, `"6.2"` for hybrids: long.short).
    pub path_label: String,
    /// Per-benchmark results of the winner.
    pub result: SuiteResult,
}

impl BestCell {
    /// The winner's AVG misprediction rate.
    #[must_use]
    pub fn avg(&self) -> f64 {
        self.result.avg()
    }
}

fn candidates(
    class: PredictorClass,
    size: usize,
    opts: &Options,
) -> Vec<(String, PredictorConfig)> {
    let assoc = class.component_assoc();
    let valid_assoc = |entries: usize| match assoc {
        Associativity::Ways(w) => w <= entries,
        _ => true,
    };
    match class {
        PredictorClass::BtbFullAssoc => {
            vec![("0".to_string(), PredictorConfig::btb_bounded(size))]
        }
        c if !c.is_hybrid() => opts
            .paths
            .iter()
            .filter(|_| valid_assoc(size))
            .map(|&p| {
                (
                    p.to_string(),
                    PredictorConfig::practical(p, size, 1).with_associativity(assoc),
                )
            })
            .collect(),
        _ => {
            // Hybrid: two components of half the total size each.
            let component = size / 2;
            if component < 32 || !valid_assoc(component) {
                return Vec::new();
            }
            let mut out = Vec::new();
            for &short in &opts.short_paths {
                for &long in &opts.long_paths {
                    if long <= short {
                        continue;
                    }
                    let cfg = PredictorConfig::hybrid(long, short, component, 1)
                        .with_associativity(assoc);
                    out.push((format!("{long}.{short}"), cfg));
                }
            }
            out
        }
    }
}

/// Finds the best configuration (by AVG) for one organisation and size.
/// Returns `None` when the organisation cannot be built at this size
/// (e.g. a hybrid needs at least two 32-entry components).
#[must_use]
pub fn best_cell(
    suite: &Suite,
    class: PredictorClass,
    size: usize,
    opts: &Options,
) -> Option<BestCell> {
    best_cells(suite, &[(class, size)], opts).pop().flatten()
}

/// The best configuration of each `(class, size)` cell, in order, from
/// one engine sweep over all their candidates.
fn best_cells(
    suite: &Suite,
    cells: &[(PredictorClass, usize)],
    opts: &Options,
) -> Vec<Option<BestCell>> {
    let searched: Vec<_> = cells
        .iter()
        .map(|&(class, size)| (class, size, candidates(class, size, opts)))
        .collect();
    let configs = searched
        .iter()
        .flat_map(|(_, _, candidates)| candidates.iter().map(|(_, cfg)| cfg.clone()))
        .collect();
    let mut results = engine::run_configs(suite, configs).into_iter();
    searched
        .into_iter()
        .map(|(class, size, candidates)| {
            let mut best: Option<(f64, String, SuiteResult)> = None;
            for ((label, _), result) in candidates.into_iter().zip(results.by_ref()) {
                let avg = result.avg();
                let better = best.as_ref().is_none_or(|(b, _, _)| avg < *b);
                if better {
                    best = Some((avg, label, result));
                }
            }
            best.map(|(_, path_label, result)| BestCell {
                class,
                size,
                path_label,
                result,
            })
        })
        .collect()
}

/// The hybrid organisation whose components are `class`'s tables, for a
/// non-hybrid two-level class.
fn hybrid_of(class: PredictorClass) -> Option<PredictorClass> {
    match class {
        PredictorClass::Tagless => Some(PredictorClass::HybridTagless),
        PredictorClass::Assoc1 => Some(PredictorClass::HybridAssoc1),
        PredictorClass::Assoc2 => Some(PredictorClass::HybridAssoc2),
        PredictorClass::Assoc4 => Some(PredictorClass::HybridAssoc4),
        _ => None,
    }
}

/// Runs the full search and emits Figure 18, Table A-2, Table 6 and
/// Table A-1 (averages plus per-benchmark sections).
#[must_use]
pub fn run(suite: &Suite) -> Vec<Table> {
    run_with(suite, &Options::default())
}

/// [`run`] with an explicit search space.
#[must_use]
pub fn run_with(suite: &Suite, opts: &Options) -> Vec<Table> {
    // Search every (class, size) cell. A non-hybrid cell sweeps together
    // with the hybrid cell twice its size, whose components are its
    // predictors' tables, so each pass folds those tables and builds their
    // key streams once for both cells (DESIGN §5r).
    let mut found: HashMap<(PredictorClass, usize), Option<BestCell>> = HashMap::new();
    for class in PredictorClass::ALL {
        for &size in &opts.sizes {
            if found.contains_key(&(class, size)) {
                continue;
            }
            let mut group = vec![(class, size)];
            if let Some(hybrid) = hybrid_of(class) {
                if opts.sizes.contains(&(2 * size)) {
                    group.push((hybrid, 2 * size));
                }
            }
            found.extend(group.iter().copied().zip(best_cells(suite, &group, opts)));
        }
    }
    let mut cells: Vec<BestCell> = Vec::new();
    for class in PredictorClass::ALL {
        for &size in &opts.sizes {
            cells.extend(found.remove(&(class, size)).flatten());
        }
    }
    let lookup = |class: PredictorClass, size: usize| {
        cells.iter().find(|c| c.class == class && c.size == size)
    };

    let mut headers = vec!["size".to_string()];
    headers.extend(PredictorClass::ALL.iter().map(|c| c.label().to_string()));

    // Figure 18: best AVG per class and size.
    let mut fig18 = Table::new(
        "Figure 18: best AVG misprediction per organisation",
        headers.clone(),
    );
    // Table A-2: the winning path lengths.
    let mut a2 = Table::new(
        "Table A-2: path length of the best predictor",
        headers.clone(),
    );
    for &size in &opts.sizes {
        let mut miss_row = vec![Cell::Count(size as u64)];
        let mut path_row = vec![Cell::Count(size as u64)];
        for class in PredictorClass::ALL {
            match lookup(class, size) {
                Some(cell) => {
                    miss_row.push(Cell::Percent(cell.avg()));
                    path_row.push(Cell::from(cell.path_label.clone()));
                }
                None => {
                    miss_row.push(Cell::Empty);
                    path_row.push(Cell::Empty);
                }
            }
        }
        fig18.push_row(miss_row);
        a2.push_row(path_row);
    }

    // Table 6: best hybrids per size for tagless / 2-way / 4-way.
    let mut t6 = Table::new(
        "Table 6: best hybrid predictors (miss% and p1.p2)",
        [
            "size", "tagless", "p1.p2", "assoc2", "p1.p2", "assoc4", "p1.p2",
        ],
    );
    for &size in &opts.sizes {
        let mut row = vec![Cell::Count(size as u64)];
        for class in [
            PredictorClass::HybridTagless,
            PredictorClass::HybridAssoc2,
            PredictorClass::HybridAssoc4,
        ] {
            match lookup(class, size) {
                Some(cell) => {
                    row.push(Cell::Percent(cell.avg()));
                    row.push(Cell::from(cell.path_label.clone()));
                }
                None => {
                    row.push(Cell::Empty);
                    row.push(Cell::Empty);
                }
            }
        }
        t6.push_row(row);
    }

    // Table A-1: per-group and per-benchmark misprediction matrices.
    let mut tables = vec![fig18, a2, t6];
    let emit_section = |title: String, rate: &dyn Fn(&BestCell) -> Option<f64>| {
        let mut t = Table::new(title, headers.clone());
        for &size in &opts.sizes {
            let mut row = vec![Cell::Count(size as u64)];
            for class in PredictorClass::ALL {
                row.push(match lookup(class, size).and_then(rate) {
                    Some(r) => Cell::Percent(r),
                    None => Cell::Empty,
                });
            }
            t.push_row(row);
        }
        t
    };
    for group in [
        BenchmarkGroup::Avg,
        BenchmarkGroup::AvgOo,
        BenchmarkGroup::AvgC,
        BenchmarkGroup::Avg100,
        BenchmarkGroup::Avg200,
        BenchmarkGroup::AvgInfreq,
    ] {
        tables.push(emit_section(
            format!("Table A-1 ({})", group.name()),
            &move |cell: &BestCell| cell.result.group_rate(group),
        ));
    }
    for b in suite.benchmarks() {
        tables.push(emit_section(
            format!("Table A-1 ({})", b.name()),
            &move |cell: &BestCell| cell.result.rate(b),
        ));
    }
    tables
}

/// A reduced option set for smoke tests and quick runs.
#[must_use]
pub fn quick_options() -> Options {
    Options {
        sizes: vec![256, 1024, 4096],
        paths: vec![0, 1, 2, 3, 4],
        short_paths: vec![0, 1],
        long_paths: vec![2, 3, 5],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_workload::Benchmark;

    fn tiny_suite() -> Suite {
        Suite::with_benchmarks_and_len(&[Benchmark::Ixx, Benchmark::Porky], 10_000)
    }

    #[test]
    fn best_cell_prefers_lower_avg() {
        let suite = tiny_suite();
        let opts = quick_options();
        let cell = best_cell(&suite, PredictorClass::Assoc4, 1024, &opts).unwrap();
        // The winner must be at least as good as an arbitrary candidate.
        let p0 = suite
            .run(|| PredictorConfig::practical(0, 1024, 4).build())
            .avg();
        assert!(cell.avg() <= p0 + 1e-12);
        assert_eq!(cell.size, 1024);
    }

    #[test]
    fn hybrid_cell_absent_for_tiny_tables() {
        let suite = tiny_suite();
        let opts = quick_options();
        assert!(best_cell(&suite, PredictorClass::HybridAssoc4, 32, &opts).is_none());
    }

    #[test]
    fn run_with_emits_expected_tables() {
        let suite = tiny_suite();
        let tables = run_with(&suite, &quick_options());
        // fig18 + A-2 + table6 + 6 groups + 2 benchmarks.
        assert_eq!(tables.len(), 3 + 6 + 2);
        assert!(tables[0].title().contains("Figure 18"));
        assert!(tables[2].title().contains("Table 6"));
        assert_eq!(tables[0].rows().len(), 3); // three sizes
    }
}
