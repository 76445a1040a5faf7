//! Trace-corpus-cache equivalence: replaying cached `.ibpb` segments must
//! be observationally identical to generating traces directly — for every
//! benchmark, cold and warm.

use std::path::PathBuf;

use ibp_core::PredictorConfig;
use ibp_sim::engine;
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

    // Cold round: cache on, every segment generated and published.
    trace_cache::override_policy(Some(true));
    let before_cold = trace_cache::stats();
    let cold_suite = Suite::with_benchmarks_and_len(&Benchmark::ALL, EVENTS);
    let cold_delta = trace_cache::stats().since(before_cold);
    assert_eq!(
        cold_delta.misses,
        Benchmark::ALL.len() as u64,
        "cold build generates one segment per benchmark"
    );
    let cold = run_sample(&cold_suite);
    assert_identical(&baseline, &cold, "cold");

    // Warm round: a fresh suite replays every segment from disk.
    let before_warm = trace_cache::stats();
    let warm_suite = Suite::with_benchmarks_and_len(&Benchmark::ALL, EVENTS);
    let warm_delta = trace_cache::stats().since(before_warm);
    assert_eq!(warm_delta.misses, 0, "warm build regenerates nothing");
    assert_eq!(
        warm_delta.hits,
        Benchmark::ALL.len() as u64,
        "warm build replays every benchmark"
    );
    let warm = run_sample(&warm_suite);
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
        let mut replay = trace_cache::source_for(benchmark, EVENTS)
            .expect("cache engaged and writable");
        let replayed = collect_source(&mut replay).expect("replay");
        let direct = benchmark.trace_with_len(EVENTS);
        assert_eq!(replayed.events(), direct.events(), "{benchmark}");
        assert_eq!(replayed.instructions(), direct.instructions(), "{benchmark}");
        assert_eq!(replayed.cond_count(), direct.cond_count(), "{benchmark}");
        assert_eq!(replayed.name(), direct.name(), "{benchmark}");
    }

    trace_cache::override_policy(None);
    trace_cache::override_root(None);
    let _ = std::fs::remove_dir_all(&root);
}
