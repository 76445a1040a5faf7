//! Engine integration tests: the memoizing sweep must be observationally
//! identical to direct `Suite::run` calls, and repeated work must be served
//! from the process-wide cache.

use ibp_core::PredictorConfig;
use ibp_sim::engine::{self, Sweep};
use ibp_sim::Suite;
use ibp_workload::Benchmark;

fn suite() -> Suite {
    Suite::with_benchmarks_and_len(&[Benchmark::Ixx, Benchmark::Porky, Benchmark::Gcc], 8_000)
}

/// The engine counters are process-wide; tests asserting exact deltas must
/// not interleave with other engine activity in this binary.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A sample of the configuration space the experiments actually sweep.
fn sample_configs() -> Vec<PredictorConfig> {
    vec![
        PredictorConfig::btb(),
        PredictorConfig::btb_2bc(),
        PredictorConfig::unconstrained(0),
        PredictorConfig::unconstrained(6),
        PredictorConfig::practical(3, 1024, 4),
        PredictorConfig::practical(1, 256, 1),
        PredictorConfig::tagless(3, 512),
        PredictorConfig::hybrid(5, 1, 2048, 4),
        PredictorConfig::bpst(3, 1, 512, 4),
    ]
}

#[test]
fn engine_sweep_equals_direct_runs() {
    let _guard = serial();
    let suite = suite();
    let configs = sample_configs();
    let from_engine = engine::run_configs(&suite, configs.clone());
    assert_eq!(from_engine.len(), configs.len());
    for (cfg, engine_result) in configs.into_iter().zip(from_engine) {
        let direct = suite.run(|| cfg.build());
        assert_eq!(
            engine_result.rates(),
            direct.rates(),
            "engine result diverges from Suite::run for {}",
            cfg.cache_key()
        );
        for b in suite.benchmarks() {
            assert_eq!(engine_result.stats(b), direct.stats(b), "stats for {b}");
        }
    }
}

#[test]
fn repeated_sweeps_are_served_from_cache() {
    let _guard = serial();
    let suite = suite();
    let configs = sample_configs();
    let first = engine::run_configs(&suite, configs.clone());

    // Every (config, benchmark) pair is warm now, whether this test or a
    // concurrent one simulated it: re-running the sweep must add hits and
    // no misses.
    let before = engine::stats();
    let second = engine::run_configs(&suite, configs.clone());
    let delta = engine::stats().since(before);
    let lookups = (configs.len() * suite.benchmarks().len()) as u64;
    assert_eq!(delta.misses, 0, "everything was memoized");
    assert_eq!(delta.hits, lookups, "every lookup hit the cache");
    assert_eq!(delta.simulated_events, 0, "no live simulation");

    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.rates(), b.rates());
    }
}

#[test]
fn mixed_config_and_custom_jobs_keep_queue_order() {
    let _guard = serial();
    let suite = suite();
    let mut sweep = Sweep::new(&suite);
    sweep
        .config(PredictorConfig::unconstrained(4))
        .custom("it-custom-btb", || PredictorConfig::btb().build_kernel())
        .config(PredictorConfig::unconstrained(4));
    let results = sweep.run();
    assert_eq!(results.len(), 3);
    // Slots 0 and 2 are the same key; the custom job in between must not
    // disturb them.
    assert_eq!(results[0].rates(), results[2].rates());
    let direct_btb = suite.run(|| PredictorConfig::btb().build());
    assert_eq!(results[1].rates(), direct_btb.rates());
}
