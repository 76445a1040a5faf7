//! Trace-corpus-cache equivalence: replaying cached `.ibpb` segments must
//! be observationally identical to generating traces directly — for every
//! benchmark, cold and warm. Also the suite contract: building a suite
//! publishes missing segments and reads none, a sweep opens one source per
//! benchmark and reads exactly its segments' bytes, and a sweep whose
//! cells all hit reads no trace — nor does a second run of the experiments
//! that measure traces.

use std::path::{Path, PathBuf};

use ibp_core::PredictorConfig;
use ibp_sim::analysis::TraceLane;
use ibp_sim::engine;
use ibp_sim::experiments;
use ibp_sim::trace_cache;
use ibp_sim::{Suite, SuiteResult};
use ibp_trace::collect_source;
use ibp_workload::Benchmark;

const EVENTS: u64 = 6_000;

/// The overrides and counters touched here are process-wide; the tests in
/// this binary must not interleave.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn scratch_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ibp-trace-cache-equivalence-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The bytes of every segment file under a corpus root.
fn corpus_bytes(root: &Path) -> u64 {
    let mut bytes = 0;
    for dir in std::fs::read_dir(root).expect("corpus root").flatten() {
        for segment in std::fs::read_dir(dir.path()).expect("schema dir").flatten() {
            bytes += segment.metadata().expect("segment").len();
        }
    }
    bytes
}

/// A config sample over the kernel families: a BTB, a bounded two-level
/// predictor and a hybrid.
fn sample_configs() -> Vec<PredictorConfig> {
    vec![
        PredictorConfig::btb_2bc(),
        PredictorConfig::practical(3, 1024, 4),
        PredictorConfig::hybrid(5, 1, 2048, 4),
    ]
}

/// Runs the config sample over `suite` with the memo cache cleared, so
/// every cell simulates live.
fn run_sample(suite: &Suite) -> Vec<SuiteResult> {
    engine::clear_memo_cache();
    engine::run_configs(suite, sample_configs())
}

fn assert_identical(baseline: &[SuiteResult], other: &[SuiteResult], round: &str) {
    for (config, (b, g)) in sample_configs().iter().zip(baseline.iter().zip(other)) {
        for benchmark in Benchmark::ALL {
            assert_eq!(
                b.stats(benchmark),
                g.stats(benchmark),
                "{round}: {benchmark} diverges under {}",
                config.cache_key()
            );
        }
    }
}

#[test]
fn cached_replay_is_identical_across_all_benchmarks() {
    let _guard = serial();
    let root = scratch_root("replay");
    trace_cache::override_root(Some(root.clone()));

    // Baseline: trace cache pinned off, traces generated directly.
    trace_cache::override_policy(Some(false));
    let baseline_suite = Suite::with_benchmarks_and_len(&Benchmark::ALL, EVENTS);
    let baseline = run_sample(&baseline_suite);

    // Cold round: cache on, every segment generated and published by the
    // suite; the sweep then replays each benchmark once.
    trace_cache::override_policy(Some(true));
    let cold_suite = Suite::with_benchmarks_and_len(&Benchmark::ALL, EVENTS);
    let before_cold = trace_cache::stats();
    let cold = run_sample(&cold_suite);
    let cold_delta = trace_cache::stats().since(before_cold);
    assert_eq!(cold_delta.misses, 0, "the suite published every segment");
    assert_eq!(
        cold_delta.hits,
        Benchmark::ALL.len() as u64,
        "cold sweep replays every benchmark once"
    );
    assert_identical(&baseline, &cold, "cold");

    // Warm round: a fresh suite's sweep replays every segment from disk.
    let warm_suite = Suite::with_benchmarks_and_len(&Benchmark::ALL, EVENTS);
    let before_warm = trace_cache::stats();
    let warm = run_sample(&warm_suite);
    let warm_delta = trace_cache::stats().since(before_warm);
    assert_eq!(warm_delta.misses, 0, "warm sweep regenerates nothing");
    assert_eq!(
        warm_delta.hits,
        Benchmark::ALL.len() as u64,
        "warm sweep replays every benchmark"
    );
    assert_identical(&baseline, &warm, "warm");

    trace_cache::override_policy(None);
    trace_cache::override_root(None);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn streamed_replay_matches_the_generator_event_for_event() {
    let _guard = serial();
    let root = scratch_root("streamed");
    trace_cache::override_root(Some(root.clone()));
    trace_cache::override_policy(Some(true));

    for benchmark in [Benchmark::Ixx, Benchmark::Gcc, Benchmark::Eqn] {
        let mut replay =
            trace_cache::source_for(benchmark, EVENTS).expect("cache engaged and writable");
        let replayed = collect_source(&mut replay).expect("replay");
        let direct = benchmark.trace_with_len(EVENTS);
        assert_eq!(replayed.events(), direct.events(), "{benchmark}");
        assert_eq!(
            replayed.instructions(),
            direct.instructions(),
            "{benchmark}"
        );
        assert_eq!(replayed.cond_count(), direct.cond_count(), "{benchmark}");
        assert_eq!(replayed.name(), direct.name(), "{benchmark}");
    }

    trace_cache::override_policy(None);
    trace_cache::override_root(None);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn building_a_suite_publishes_missing_segments_and_reads_none() {
    let _guard = serial();
    let root = scratch_root("publish");
    trace_cache::override_root(Some(root.clone()));
    trace_cache::override_policy(Some(true));

    let before = trace_cache::stats();
    let _cold = Suite::with_benchmarks_and_len(&Benchmark::ALL, EVENTS);
    let cold = trace_cache::stats().since(before);
    assert_eq!(
        cold.misses,
        Benchmark::ALL.len() as u64,
        "one segment per benchmark"
    );
    assert!(cold.bytes_written > 0);
    assert_eq!(
        (cold.hits, cold.bytes_read),
        (0, 0),
        "publishing reads nothing"
    );

    // Over a full corpus, construction moves no counter.
    let before = trace_cache::stats();
    let _warm = Suite::with_benchmarks_and_len(&Benchmark::ALL, EVENTS);
    assert_eq!(
        trace_cache::stats().since(before),
        trace_cache::TraceCacheStats::default(),
        "full corpus"
    );

    trace_cache::override_policy(None);
    trace_cache::override_root(None);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_replay_counts_the_bytes_it_reads_as_it_fills() {
    let _guard = serial();
    let root = scratch_root("bytes");
    trace_cache::override_root(Some(root.clone()));
    trace_cache::override_policy(Some(true));
    drop(Suite::with_benchmarks_and_len(&[Benchmark::Gcc], EVENTS));

    // Opening a replay reads its header, but a replay dropped unread
    // counts none of it.
    let before = trace_cache::stats();
    drop(trace_cache::source_for(Benchmark::Gcc, EVENTS));
    let dropped = trace_cache::stats().since(before);
    assert_eq!((dropped.hits, dropped.bytes_read), (1, 0));

    // A drained replay counts the file's whole length.
    let before = trace_cache::stats();
    let mut replay = trace_cache::source_for(Benchmark::Gcc, EVENTS).expect("segment");
    collect_source(&mut replay).expect("clean replay");
    drop(replay);
    assert_eq!(
        trace_cache::stats().since(before).bytes_read,
        corpus_bytes(&root)
    );

    trace_cache::override_policy(None);
    trace_cache::override_root(None);
    let _ = std::fs::remove_dir_all(&root);
}

/// The benchmarks of the sweep tests: enough for a pass to carry several
/// cells, few enough to stay fast.
const SWEEP_BENCHMARKS: [Benchmark; 3] = [Benchmark::Ixx, Benchmark::Gcc, Benchmark::Go];

#[test]
fn a_sweep_opens_one_source_per_benchmark() {
    let _guard = serial();
    let root = scratch_root("one-pass");
    trace_cache::override_root(Some(root.clone()));
    trace_cache::override_policy(Some(true));

    // All three configs and the trace measurement of every benchmark fold
    // in one pass.
    let suite = Suite::with_benchmarks_and_len(&SWEEP_BENCHMARKS, EVENTS);
    engine::clear_memo_cache();
    let mut sweep = engine::Sweep::new(&suite);
    for cfg in sample_configs() {
        sweep.config(cfg);
    }
    sweep.measure(TraceLane::KEY, &SWEEP_BENCHMARKS, || {
        Box::<TraceLane>::default()
    });
    let before = trace_cache::stats();
    let _ = sweep.run_all();
    let delta = trace_cache::stats().since(before);
    assert_eq!(delta.misses, 0);
    assert_eq!(
        delta.hits,
        SWEEP_BENCHMARKS.len() as u64,
        "{} cells open one source per benchmark",
        (sample_configs().len() + 1) * SWEEP_BENCHMARKS.len()
    );
    assert_eq!(
        delta.bytes_read,
        corpus_bytes(&root),
        "the sweep reads each segment it replays once, whole"
    );

    trace_cache::override_policy(None);
    trace_cache::override_root(None);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_sweep_whose_cells_all_hit_reads_no_trace() {
    let _guard = serial();
    let root = scratch_root("all-hit");
    trace_cache::override_root(Some(root.clone()));
    trace_cache::override_policy(Some(true));
    let first = run_sample(&Suite::with_benchmarks_and_len(&SWEEP_BENCHMARKS, EVENTS));

    // Every cell is now a memo hit: a fresh suite and its sweep read
    // nothing from the corpus.
    let before = trace_cache::stats();
    let fresh = Suite::with_benchmarks_and_len(&SWEEP_BENCHMARKS, EVENTS);
    let again = engine::run_configs(&fresh, sample_configs());
    assert_eq!(
        trace_cache::stats().since(before),
        trace_cache::TraceCacheStats::default(),
        "an all-hit sweep moves no trace-cache counter"
    );
    for (a, b) in first.iter().zip(&again) {
        assert_eq!(a.rates(), b.rates());
    }

    trace_cache::override_policy(None);
    trace_cache::override_root(None);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_second_run_of_the_trace_measuring_experiments_reads_no_trace() {
    let _guard = serial();
    let root = scratch_root("measures");
    trace_cache::override_root(Some(root.clone()));
    trace_cache::override_policy(Some(true));
    let run_all = || {
        let suite = Suite::with_benchmarks_and_len(&SWEEP_BENCHMARKS, EVENTS);
        ["analysis", "ext", "table1_2"].map(|id| {
            let experiment = experiments::by_id(id).expect("registered experiment");
            let tables = (experiment.run)(&suite);
            tables.iter().map(|t| t.to_csv()).collect::<Vec<_>>()
        })
    };
    let first = run_all();

    // Every measurement is now a memo hit: the second run opens no segment.
    let before = trace_cache::stats();
    let again = run_all();
    assert_eq!(
        trace_cache::stats().since(before),
        trace_cache::TraceCacheStats::default(),
        "a second analysis, ext and table1_2 move no trace-cache counter"
    );
    assert_eq!(first, again, "identical tables from the memo");

    trace_cache::override_policy(None);
    trace_cache::override_root(None);
    let _ = std::fs::remove_dir_all(&root);
}
