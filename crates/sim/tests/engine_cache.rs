//! Engine integration tests: the memoizing sweep must be observationally
//! identical to direct `Suite::run` calls, and repeated work must be served
//! from the process-wide cache.

use std::path::Path;

use ibp_core::PredictorConfig;
use ibp_obs::{Kind, Record};
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

/// Selects the phase of a two-process test that a child process runs.
const PHASE: &str = "IBP_ENGINE_CACHE_TEST_PHASE";

/// Runs this binary's `test` alone in a child process under `results`, so
/// the child's memo is fresh and loads only what is on disk there; with a
/// `journal`, the child traces into it.
fn run_phase(test: &str, phase: &str, results: &Path, journal: Option<&Path>) {
    let exe = std::env::current_exe().expect("the test binary");
    let mut child = std::process::Command::new(exe);
    child
        .args([test, "--exact", "--nocapture", "--test-threads=1"])
        .env(PHASE, phase)
        .env("IBP_RESULTS", results)
        .env("IBP_CACHE", "1");
    match journal {
        Some(path) => child.env("IBP_TRACE", path),
        None => child.env_remove("IBP_TRACE"),
    };
    let out = child.output().expect("spawn the test binary");
    assert!(
        out.status.success(),
        "phase {phase} failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A cache row holding some of a key's benchmarks serves those and leaves
/// the rest to the fold: one process persists a sweep over two
/// benchmarks, and a fresh one sweeps the same configs over three.
#[test]
fn a_partial_row_serves_its_cells_and_folds_the_rest() {
    const EVENTS: u64 = 8_000;
    let two = [Benchmark::Ixx, Benchmark::Porky];
    let configs = sample_configs();
    match std::env::var(PHASE).as_deref() {
        Ok("persist") => {
            let suite = Suite::with_benchmarks_and_len(&two, EVENTS);
            let _ = engine::run_configs(&suite, configs);
            engine::persist_cache();
        }
        Ok("extend") => {
            let suite = Suite::with_benchmarks_and_len(&[two[0], two[1], Benchmark::Gcc], EVENTS);
            let before = engine::stats();
            let results = engine::run_configs(&suite, configs.clone());
            let delta = engine::stats().since(before);
            // No job can hit more than its two stored cells or fold fewer
            // than its one new one, so these totals pin every job.
            let jobs = configs.len() as u64;
            assert_eq!(delta.persistent_hits, 2 * jobs, "two stored cells per job");
            assert_eq!(delta.hits, 2 * jobs);
            assert_eq!(delta.misses, jobs, "one folded cell per job");
            assert_eq!(
                delta.simulated_events,
                jobs * EVENTS,
                "one trace per config"
            );
            for (cfg, result) in configs.iter().zip(results) {
                let direct = suite.run(|| cfg.build());
                for b in suite.benchmarks() {
                    assert_eq!(
                        result.stats(b),
                        direct.stats(b),
                        "{} on {b}",
                        cfg.cache_key()
                    );
                }
            }
        }
        _ => {
            let scratch =
                std::env::temp_dir().join(format!("ibp-engine-cache-itest-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&scratch);
            let test = "a_partial_row_serves_its_cells_and_folds_the_rest";
            run_phase(test, "persist", &scratch, None);
            run_phase(test, "extend", &scratch, None);
            let _ = std::fs::remove_dir_all(&scratch);
        }
    }
}

/// A traced sweep journals one `cell` hit record per job, naming the
/// benchmarks the memo cache served and how many of them it loaded from
/// disk. One process persists the sample sweep; a fresh, traced one
/// repeats it with a duplicate job, whose cells are on disk too, then
/// sweeps a new key twice, where the second job hits what the first
/// folded.
#[test]
fn a_warm_traced_sweep_journals_one_hit_record_per_job() {
    const EVENTS: u64 = 8_000;
    let three = [Benchmark::Ixx, Benchmark::Porky, Benchmark::Gcc];
    let configs = sample_configs();
    let fresh = PredictorConfig::unconstrained(5).with_pattern_budget(9);
    match std::env::var(PHASE).as_deref() {
        Ok("persist") => {
            let suite = Suite::with_benchmarks_and_len(&three, EVENTS);
            let _ = engine::run_configs(&suite, configs);
            engine::persist_cache();
        }
        Ok("warm") => {
            let suite = Suite::with_benchmarks_and_len(&three, EVENTS);
            let mut warm = configs.clone();
            warm.push(configs[0].clone());
            let _ = engine::run_configs(&suite, warm);
            let _ = engine::run_configs(&suite, vec![fresh.clone(), fresh]);
        }
        _ => {
            let scratch = std::env::temp_dir().join(format!(
                "ibp-engine-hit-records-itest-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&scratch);
            let journal = scratch.join("warm.jsonl");
            let test = "a_warm_traced_sweep_journals_one_hit_record_per_job";
            run_phase(test, "persist", &scratch, None);
            run_phase(test, "warm", &scratch, Some(&journal));
            let records = ibp_obs::read_journal(&journal).expect("the warm journal");
            let _ = std::fs::remove_dir_all(&scratch);

            let all = three.map(Benchmark::name).join(",");
            let mut want: Vec<(String, String, u64, u64)> = configs
                .iter()
                .chain([&configs[0]])
                .map(|cfg| (cfg.cache_key(), all.clone(), 3, 3))
                .collect();
            want.push((fresh.cache_key(), all.clone(), 3, 0));
            let cells: Vec<&Record> = records
                .iter()
                .filter(|r| r.kind == Kind::Event && r.name == "cell")
                .collect();
            let hits: Vec<(String, String, u64, u64)> = cells
                .iter()
                .filter(|r| r.field_str("outcome") == Some("hit"))
                .map(|r| {
                    let text = |f: &str| r.field_str(f).unwrap_or_default().to_string();
                    let count = |f: &str| r.field_u64(f).unwrap_or(u64::MAX);
                    (
                        text("config"),
                        text("benchmarks"),
                        count("hits"),
                        count("from_disk"),
                    )
                })
                .collect();
            assert_eq!(hits, want, "one hit record per job, in queue order");
            let misses = cells
                .iter()
                .filter(|r| r.field_str("outcome") == Some("miss"))
                .count();
            assert_eq!(misses, 3, "the new key folds once per benchmark");
            let sweeps: Vec<(Option<u64>, Option<u64>)> = records
                .iter()
                .filter(|r| r.kind == Kind::Span && r.name == "sweep")
                .map(|r| (r.field_u64("lookups"), r.field_u64("simulated")))
                .collect();
            assert_eq!(sweeps, [(Some(30), Some(0)), (Some(6), Some(3))]);
        }
    }
}

/// The `name` spans of a journal.
fn spans<'r>(records: &'r [Record], name: &str) -> Vec<&'r Record> {
    records
        .iter()
        .filter(|r| r.kind == Kind::Span && r.name == name)
        .collect()
}

/// A warm traced sweep journals its load of the persistent cache as one
/// `cache_load` span that holds every persisted row, and saves nothing.
/// One traced process persists the sample sweep from a cold root; a
/// fresh, traced one repeats the sweep, all hits, and calls
/// `persist_cache`, which has nothing new to write.
#[test]
fn a_warm_traced_sweep_journals_one_cache_load_and_no_save() {
    const EVENTS: u64 = 8_000;
    let three = [Benchmark::Ixx, Benchmark::Porky, Benchmark::Gcc];
    let configs = sample_configs();
    match std::env::var(PHASE).as_deref() {
        Ok("persist") => {
            let suite = Suite::with_benchmarks_and_len(&three, EVENTS);
            let _ = engine::run_configs(&suite, configs);
            engine::persist_cache();
        }
        Ok("warm") => {
            let suite = Suite::with_benchmarks_and_len(&three, EVENTS);
            let before = engine::stats();
            let _ = engine::run_configs(&suite, configs.clone());
            let delta = engine::stats().since(before);
            assert_eq!(delta.persistent_hits, 3 * configs.len() as u64);
            assert_eq!(delta.misses, 0);
            engine::persist_cache();
        }
        _ => {
            let scratch = std::env::temp_dir().join(format!(
                "ibp-engine-cache-load-itest-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&scratch);
            let journal = |phase: &str| scratch.join(format!("{phase}.jsonl"));
            let test = "a_warm_traced_sweep_journals_one_cache_load_and_no_save";
            run_phase(test, "persist", &scratch, Some(&journal("persist")));
            run_phase(test, "warm", &scratch, Some(&journal("warm")));
            let persisted = ibp_obs::read_journal(&journal("persist")).expect("persist journal");
            let warm = ibp_obs::read_journal(&journal("warm")).expect("the warm journal");
            let version = std::fs::read_dir(scratch.join(".cache"))
                .expect("the cache root")
                .flatten()
                .find(|entry| entry.file_name().to_string_lossy().starts_with('v'))
                .expect("a schema version directory");
            let text = std::fs::read_to_string(version.path().join("engine.tsv")).expect("file");
            let _ = std::fs::remove_dir_all(&scratch);

            let rows = text.lines().filter(|l| !l.starts_with('#')).count() as u64;
            let bytes = text.len() as u64;
            assert_eq!(rows, configs.len() as u64, "one row per key");
            let fields = |r: &Record, names: &[&str]| -> Vec<Option<u64>> {
                names.iter().map(|&name| r.field_u64(name)).collect()
            };
            let load = ["rows", "cells", "bytes", "dropped"];
            let cold_load = spans(&persisted, "cache_load");
            assert_eq!(cold_load.len(), 1, "one load per process");
            assert_eq!(
                fields(cold_load[0], &load),
                [Some(0), Some(0), Some(0), Some(0)],
                "a cold root loads nothing"
            );
            let save = spans(&persisted, "cache_save");
            assert_eq!(save.len(), 1, "the cold process saves once");
            assert_eq!(
                fields(save[0], &["rows", "bytes"]),
                [Some(rows), Some(bytes)]
            );

            let warm_load = spans(&warm, "cache_load");
            assert_eq!(warm_load.len(), 1, "one load per process");
            assert_eq!(
                fields(warm_load[0], &load),
                [Some(rows), Some(3 * rows), Some(bytes), Some(0)],
                "the warm load holds every persisted row"
            );
            assert!(
                spans(&warm, "cache_save").is_empty(),
                "a run that folded nothing saves nothing"
            );
        }
    }
}
