//! Integration tests of the analysis layer over real synthetic benchmarks.

use ibp_core::{CompressedKeySpec, PredictorConfig, TwoLevelPredictor};
use ibp_sim::analysis::{pattern_census, simulate_classified, simulate_per_site, CensusLane};
use ibp_sim::engine::Sweep;
use ibp_sim::experiments::analysis::{CENSUS_BENCHMARKS, CENSUS_PATHS};
use ibp_sim::{simulate, Measurement, Suite};
use ibp_workload::Benchmark;

/// The oracle floor across two experiments. With no warmup, every pattern
/// an unbounded full-key table stores entered it on a miss, so a
/// benchmark's Figure 9 misses at path length `p` are at least §5.1's
/// census of stored patterns at `p`, which counts the stored keys of
/// Figure 9's own predictor. Both are cells of one sweep: the misses come
/// off the prefix trie that folds Figure 9's path-length family, the
/// census off its own measure lanes, so this checks the one fold against
/// the other on every census benchmark at every census length.
#[test]
fn fig9_misses_are_at_least_the_census_patterns() {
    let suite = Suite::with_benchmarks_and_len(&CENSUS_BENCHMARKS, 20_000);
    let mut sweep = Sweep::new(&suite);
    for p in CENSUS_PATHS {
        sweep.config(PredictorConfig::unconstrained(p));
    }
    for p in CENSUS_PATHS {
        let cfg = PredictorConfig::unconstrained(p);
        sweep.measure(CensusLane::key(&cfg), &CENSUS_BENCHMARKS, move || {
            Box::new(CensusLane::new(&cfg))
        });
    }
    let (runs, measured) = sweep.run_all();
    assert_eq!(runs.len(), CENSUS_PATHS.count());
    for ((p, run), census) in CENSUS_PATHS.zip(&runs).zip(&measured) {
        for (&b, cell) in CENSUS_BENCHMARKS.iter().zip(census) {
            let Measurement::Patterns(patterns) = *cell else {
                panic!("a census cell counts patterns, not {}", cell.kind());
            };
            let misses = run.stats(b).expect("benchmark in the suite").mispredicted;
            assert!(patterns > 0, "test premise: {b} stores patterns at p = {p}");
            assert!(
                misses >= patterns,
                "{b} at p = {p}: {misses} misses but {patterns} stored patterns"
            );
        }
    }
}

#[test]
fn classification_is_exhaustive_and_consistent() {
    let trace = Benchmark::Porky.trace_with_len(15_000);
    for (entries, p) in [(256usize, 2usize), (4096, 3)] {
        let mut classified =
            TwoLevelPredictor::full_assoc(CompressedKeySpec::practical(p), entries);
        let breakdown = simulate_classified(&trace, &mut classified);
        assert_eq!(breakdown.total(), 15_000);

        let mut plain = TwoLevelPredictor::full_assoc(CompressedKeySpec::practical(p), entries);
        let stats = simulate(&trace, &mut plain);
        assert_eq!(
            breakdown.total() - breakdown.hits,
            stats.mispredicted,
            "classification must not change behaviour"
        );
    }
}

#[test]
fn capacity_misses_vanish_with_table_size() {
    // The §5.1 observation: growing the table converts capacity misses into
    // hits, leaving wrong-target and cold misses.
    let trace = Benchmark::Ixx.trace_with_len(20_000);
    let capacity_at = |entries: usize| {
        let mut p = TwoLevelPredictor::full_assoc(CompressedKeySpec::practical(3), entries);
        simulate_classified(&trace, &mut p).capacity_rate()
    };
    let small = capacity_at(64);
    let large = capacity_at(16_384);
    assert!(small > large, "capacity {small} at 64 vs {large} at 16K");
    assert!(large < 0.01, "large tables should have ~no capacity misses");
}

#[test]
fn unbounded_has_zero_capacity_class() {
    let trace = Benchmark::Eqn.trace_with_len(10_000);
    let mut p = TwoLevelPredictor::compressed_unbounded(CompressedKeySpec::practical(4));
    let b = simulate_classified(&trace, &mut p);
    assert_eq!(b.capacity, 0);
    assert!(b.cold > 0);
}

#[test]
fn per_site_misses_sum_to_total() {
    let trace = Benchmark::Gcc.trace_with_len(10_000);
    let mut k = PredictorConfig::practical(3, 1024, 4).build_kernel();
    let sites = simulate_per_site(&mut trace.cursor(), &mut k).expect("in-memory source");
    let total_exec: u64 = sites.iter().map(|s| s.executions).sum();
    let total_miss: u64 = sites.iter().map(|s| s.mispredicted).sum();
    assert_eq!(total_exec, 10_000);

    let mut fresh = PredictorConfig::practical(3, 1024, 4).build();
    let stats = simulate(&trace, fresh.as_mut());
    assert_eq!(total_miss, stats.mispredicted);
    // Sorted by miss volume.
    for w in sites.windows(2) {
        assert!(w[0].mispredicted >= w[1].mispredicted);
    }
}

#[test]
fn census_shape_matches_paper_claims() {
    // §5.1: pattern count at p = 0 equals the active site count, and grows
    // by one to two orders of magnitude by p = 12.
    let trace = Benchmark::Ixx.trace_with_len(30_000);
    let p0 = pattern_census(&trace, 0);
    let p12 = pattern_census(&trace, 12);
    assert_eq!(p0, trace.stats().distinct_sites);
    assert!(
        p12 > p0 * 5,
        "pattern explosion expected: {p0} at p=0 vs {p12} at p=12"
    );
}

#[test]
fn misses_concentrate_on_polymorphic_sites() {
    let trace = Benchmark::Jhm.trace_with_len(15_000);
    let trace_stats = trace.stats();
    let mut k = PredictorConfig::btb_2bc().build_kernel();
    let sites = simulate_per_site(&mut trace.cursor(), &mut k).expect("in-memory source");
    // The top miss site must be polymorphic in the trace.
    let top = &sites[0];
    let site_info = trace_stats
        .sites
        .iter()
        .find(|s| s.pc == top.pc)
        .expect("top site in stats");
    assert!(
        site_info.distinct_targets > 1,
        "top BTB miss site should be polymorphic"
    );
}
