//! Engine-level fault-containment equivalence: an injected `parallel_map`
//! worker panic during `Sweep::run` (at the first, middle, or last armed
//! occurrence) and each I/O fault site must end in the unfaulted run's
//! exact tables plus — where the journal survives — at least one
//! `degraded` record. Never a process abort, never a wrong number. A
//! failed result-cache save also leaves its results unsaved, so the next
//! `persist_cache` publishes them, while a process that simulated nothing
//! new never reaches the writer.
//!
//! Every registered site outside the library pipelines (`shard.*`,
//! `component.*`, which their modules' unit tests arm) is armed here, and
//! a site registered in `faults::SITES` that this file does not arm fails
//! it.
//!
//! A trace corpus damaged on disk costs time, never correctness, too: a
//! payload byte flipped in one segment, which only its replay's checks
//! see, and another segment truncated, which the length check at open
//! sees, must end in the corpus-off tables with one `trace_cache.read`
//! record per damaged segment; so must the same sweep when a
//! `parallel.worker` fault's inline retry meets the corrupt replay.
//!
//! The tests serialise on a local mutex: fault arming, the memo cache and
//! the journal sink are process-global.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use ibp_core::PredictorConfig;
use ibp_obs::{self as obs, Kind, Record};
use ibp_sim::engine::{self, Sweep};
use ibp_sim::{faults, trace_cache, Suite, SuiteResult};
use ibp_workload::Benchmark;

const BENCHMARKS: [Benchmark; 2] = [Benchmark::Ixx, Benchmark::Xlisp];
const EVENTS: u64 = 6_000;

/// The engine's worker site: `parallel_map` retries a panicked item inline.
const WORKER_SITE: &str = "parallel.worker";

/// The I/O sites a suite build, a sweep and a cache persist cross; each
/// warns and continues.
const IO_SITES: [&str; 6] = [
    "trace_cache.write",
    "trace_cache.rename",
    "trace_cache.read",
    "cache.write",
    "cache.rename",
    "journal.write",
];

fn serial() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A journal sink the test can read back after `uninstall`.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedBuf {
    /// The site of each journaled `degraded` record.
    fn degraded_sites(&self) -> Vec<String> {
        let bytes = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        String::from_utf8_lossy(&bytes)
            .lines()
            .filter_map(|l| Record::parse(l).ok())
            .filter(|r| r.kind == Kind::Event && r.name == "degraded")
            .map(|r| r.field_str("site").unwrap_or_default().to_string())
            .collect()
    }

    fn degraded_count(&self) -> usize {
        self.degraded_sites().len()
    }

    fn degraded_at(&self, site: &str) -> usize {
        self.degraded_sites().iter().filter(|s| *s == site).count()
    }
}

/// One sweep over a BTB, an unbounded two-level config and a hybrid: six
/// (config × benchmark) cells, folded as two benchmark passes on the
/// engine's `parallel_map` queue.
fn run_sweep(suite: &Suite) -> String {
    let results: Vec<SuiteResult> = Sweep::new(suite)
        .config(PredictorConfig::btb_2bc())
        .config(PredictorConfig::unconstrained(3))
        .config(PredictorConfig::hybrid(6, 2, 256, 4))
        .run();
    let mut out = String::new();
    for (i, r) in results.iter().enumerate() {
        for &b in &BENCHMARKS {
            let s = r.stats(b).expect("every benchmark simulated");
            out.push_str(&format!(
                "{i},{},{},{}\n",
                b.name(),
                s.indirect,
                s.mispredicted
            ));
        }
    }
    out
}

/// Arms `spec`, runs one sweep with a capturing journal, disarms, and
/// returns (tables, times the site fired, degraded records journaled).
fn faulted_pass(suite: &Suite, site: &str, spec: &str) -> (String, u64, usize) {
    faults::override_spec(Some(spec)).expect("valid spec");
    let buf = SharedBuf::default();
    obs::journal::install_writer(Box::new(buf.clone()));
    engine::clear_memo_cache();
    let tables = run_sweep(suite);
    obs::journal::uninstall();
    let fired = faults::fired(site);
    faults::override_spec(None).expect("disarm");
    (tables, fired, buf.degraded_count())
}

#[test]
fn worker_panics_at_first_mid_and_last_occurrence_degrade_without_divergence() {
    let _serial = serial();
    let suite = Suite::with_benchmarks_and_len(&BENCHMARKS, EVENTS);
    engine::clear_memo_cache();
    let baseline = run_sweep(&suite);
    let site = WORKER_SITE;

    // Probe pass: arm far beyond reach to count how many times the site is
    // consulted by one sweep, without firing. That pins the first / middle
    // / last occurrence targets to this exact workload instead of a
    // guessed cell count.
    faults::override_spec(Some(&format!("{site}@1000000000"))).expect("probe spec");
    engine::clear_memo_cache();
    let clean = run_sweep(&suite);
    let occurrences = faults::seen(site);
    faults::override_spec(None).expect("disarm probe");
    assert_eq!(clean, baseline, "the armed but unfired pass must match");
    assert!(occurrences >= 1, "{site} must be on the sweep's path");

    let mut targets = vec![1, (occurrences / 2).max(1), occurrences];
    targets.dedup();
    for target in targets {
        let (tables, fired, degraded) = faulted_pass(&suite, site, &format!("{site}@{target}"));
        assert_eq!(fired, 1, "{site}@{target} must fire exactly once");
        assert_eq!(
            tables, baseline,
            "{site}@{target}: degraded tables must be byte-identical"
        );
        assert!(
            degraded >= 1,
            "{site}@{target}: the retry must journal a degraded record"
        );
    }
}

#[test]
fn io_faults_warn_and_continue_without_divergence() {
    let _serial = serial();
    // All cache traffic lands in scratch: the result cache reads
    // IBP_RESULTS per call, the trace cache takes an explicit root.
    let scratch = std::env::temp_dir().join(format!("ibp-fault-itest-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    std::env::set_var("IBP_RESULTS", &scratch);
    trace_cache::override_root(Some(scratch.join("traces")));
    trace_cache::override_policy(Some(true));

    // The trace-cache write sites fire when suite construction publishes
    // a missing segment, and the read site when a replay fills, so every
    // pass builds its suite fresh inside the armed window.
    engine::clear_memo_cache();
    let baseline = {
        let suite = Suite::with_benchmarks_and_len(&BENCHMARKS, EVENTS);
        let tables = run_sweep(&suite);
        engine::persist_cache();
        tables
    };

    for site in IO_SITES {
        // A hit segment skips the write/publish path; purge so the pass
        // regenerates. Every replay reaches the read site.
        if matches!(site, "trace_cache.write" | "trace_cache.rename") {
            trace_cache::purge();
        }
        faults::override_spec(Some(&format!("{site}@1"))).expect("valid spec");
        let buf = SharedBuf::default();
        obs::journal::install_writer(Box::new(buf.clone()));
        engine::clear_memo_cache();
        let suite = Suite::with_benchmarks_and_len(&BENCHMARKS, EVENTS);
        let tables = run_sweep(&suite);
        engine::persist_cache();
        obs::journal::uninstall();
        let fired = faults::fired(site);
        faults::override_spec(None).expect("disarm");

        assert_eq!(fired, 1, "{site} must fire exactly once");
        assert_eq!(tables, baseline, "{site}: tables must be byte-identical");
        if site != "journal.write" {
            // The journal fault disables the journal itself — its clean
            // outcome is the warn, not a record.
            assert!(
                buf.degraded_count() >= 1,
                "{site}: warn-and-continue must journal a degraded record"
            );
        }
    }

    trace_cache::override_policy(None);
    trace_cache::override_root(None);
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn every_site_outside_the_library_pipelines_is_armed_here() {
    let mut armed = IO_SITES.to_vec();
    armed.push(WORKER_SITE);
    armed.sort_unstable();
    let mut registered: Vec<&str> = faults::SITES
        .iter()
        .copied()
        .filter(|site| !site.starts_with("shard.") && !site.starts_with("component."))
        .collect();
    registered.sort_unstable();
    assert_eq!(
        armed, registered,
        "each registered engine site needs a containment test in this file"
    );
}

/// The published trace segment of `benchmark` under a corpus root.
fn segment(root: &Path, benchmark: Benchmark) -> PathBuf {
    let prefix = format!("{}-{EVENTS}-", benchmark.name());
    std::fs::read_dir(root)
        .expect("corpus root")
        .flatten()
        .flat_map(|dir| std::fs::read_dir(dir.path()).expect("schema dir").flatten())
        .map(|entry| entry.path())
        .find(|path| {
            path.file_name()
                .is_some_and(|name| name.to_string_lossy().starts_with(&prefix))
        })
        .unwrap_or_else(|| panic!("no segment for {benchmark}"))
}

/// Publishes a corpus, flips a payload byte in the middle of the first
/// benchmark's segment and truncates the second's, and sweeps it with
/// `worker_fault` armed. The first benchmark's pass is the sweep's first
/// `parallel_map` item, so `parallel.worker@1` lands on it, and its inline
/// retry then replays the corrupt segment: a retry of a failed replay that
/// went through a panic would panic twice on that item and abort.
fn damaged_corpus_sweep(tag: &str, worker_fault: Option<&str>) {
    let [flipped, truncated] = BENCHMARKS;
    let root = std::env::temp_dir().join(format!("ibp-damage-itest-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    trace_cache::override_root(Some(root.clone()));
    trace_cache::override_policy(Some(false));
    engine::clear_memo_cache();
    let baseline = run_sweep(&Suite::with_benchmarks_and_len(&BENCHMARKS, EVENTS));

    trace_cache::override_policy(Some(true));
    let suite = Suite::with_benchmarks_and_len(&BENCHMARKS, EVENTS);
    let flipped = segment(&root, flipped);
    let mut bytes = std::fs::read(&flipped).expect("read");
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0xFF;
    std::fs::write(&flipped, &bytes).expect("flip a byte");
    let truncated = segment(&root, truncated);
    let bytes = std::fs::read(&truncated).expect("read");
    std::fs::write(&truncated, &bytes[..bytes.len() - 100]).expect("truncate");

    if let Some(spec) = worker_fault {
        faults::override_spec(Some(spec)).expect("valid spec");
    }
    let buf = SharedBuf::default();
    obs::journal::install_writer(Box::new(buf.clone()));
    engine::clear_memo_cache();
    let before = trace_cache::stats();
    let damaged = run_sweep(&suite);
    let delta = trace_cache::stats().since(before);
    obs::journal::uninstall();
    let worker_fired = faults::fired(WORKER_SITE);
    faults::override_spec(None).expect("disarm");

    assert_eq!(damaged, baseline, "a damaged corpus changes no table");
    assert_eq!(
        buf.degraded_at("trace_cache.read"),
        2,
        "one trace_cache.read record per damaged segment"
    );
    // The truncated segment failed its length check at open and was
    // regenerated; the flipped one opened as a hit, its replay failed
    // mid-pass and evicted it, and its pass folded again on the generator.
    assert_eq!((delta.hits, delta.misses), (1, 1));
    assert!(!flipped.exists(), "the failed replay evicts its segment");
    if worker_fault.is_some() {
        assert_eq!(worker_fired, 1, "the worker fault fires once");
        assert_eq!(buf.degraded_at(WORKER_SITE), 1);
    }

    // The next sweep regenerates the evicted segment and replays both
    // clean.
    let buf = SharedBuf::default();
    obs::journal::install_writer(Box::new(buf.clone()));
    engine::clear_memo_cache();
    let before = trace_cache::stats();
    let clean = run_sweep(&suite);
    let delta = trace_cache::stats().since(before);
    obs::journal::uninstall();
    assert_eq!(clean, baseline);
    assert_eq!((delta.hits, delta.misses), (1, 1));
    assert_eq!(buf.degraded_count(), 0);

    trace_cache::override_policy(None);
    trace_cache::override_root(None);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_flipped_byte_and_a_truncated_segment_change_no_table() {
    let _serial = serial();
    damaged_corpus_sweep("plain", None);
}

#[test]
fn a_worker_retry_that_meets_a_corrupt_replay_changes_no_table() {
    let _serial = serial();
    damaged_corpus_sweep("worker", Some("parallel.worker@1"));
}

/// The published result-cache file under a results root, whatever its
/// schema directory.
fn engine_tsv(root: &std::path::Path) -> Option<std::path::PathBuf> {
    std::fs::read_dir(root.join(".cache"))
        .ok()?
        .flatten()
        .map(|entry| entry.path().join("engine.tsv"))
        .find(|path| path.exists())
}

/// Arms `cache.write@1` around one `persist_cache` call with a capturing
/// journal; returns (times the site fired, degraded records journaled).
fn armed_persist() -> (u64, usize) {
    faults::override_spec(Some("cache.write@1")).expect("valid spec");
    let buf = SharedBuf::default();
    obs::journal::install_writer(Box::new(buf.clone()));
    engine::persist_cache();
    obs::journal::uninstall();
    let fired = faults::fired("cache.write");
    faults::override_spec(None).expect("disarm");
    (fired, buf.degraded_count())
}

#[test]
fn persist_cache_writes_exactly_when_something_is_new() {
    let _serial = serial();
    let scratch = std::env::temp_dir().join(format!("ibp-persist-itest-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    std::env::set_var("IBP_RESULTS", &scratch);
    let suite = Suite::with_benchmarks_and_len(&BENCHMARKS, EVENTS);

    // Simulate and save, so nothing this process computed is unsaved.
    engine::clear_memo_cache();
    let baseline = run_sweep(&suite);
    engine::persist_cache();
    let published = engine_tsv(&scratch).expect("the first save publishes");

    // A sweep served from the memo cache adds nothing to save.
    assert_eq!(run_sweep(&suite), baseline);
    assert_eq!(
        armed_persist(),
        (0, 0),
        "a hit-only sweep must not reach the writer"
    );

    // A sweep that simulates does; the injected write fault degrades.
    engine::clear_memo_cache();
    assert_eq!(run_sweep(&suite), baseline);
    let (fired, degraded) = armed_persist();
    assert_eq!(fired, 1, "new results reach the writer");
    assert!(degraded >= 1, "the failed save journals a degraded record");

    // The failed save left its results unsaved, so the next call publishes.
    std::fs::remove_file(&published).expect("remove the published file");
    engine::persist_cache();
    assert!(
        published.exists(),
        "the retry after a failed save publishes"
    );

    let _ = std::fs::remove_dir_all(&scratch);
}
