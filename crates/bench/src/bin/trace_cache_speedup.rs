//! Measures the persistent binary trace corpus cache: cold generation
//! (generator pass teed into `.ibpb` segments) against warm replay
//! (bulk-decode from disk) and plain generation with the corpus off, in
//! one process.
//!
//! Usage: `trace_cache_speedup [experiment...]` (default: `fig2`). The
//! trace cache is purged, then the suite is built and the experiments run
//! three times — a cold pass whose suite construction generates and
//! publishes every segment, a warm pass that replays them, and a
//! `generate` pass with the corpus off, which runs the generator in every
//! pass as a process without a corpus would. The result-cache is disabled
//! for the whole process (`IBP_CACHE=0`) and the in-process memo cache
//! cleared before each pass, so neither can mask the trace work. The three
//! table sets must be byte-identical, the warm pass must be 100 %
//! trace-cache hits and the `generate` pass must not touch the corpus (the
//! run aborts otherwise). Suites stream, so every replay happens inside
//! the runs: the headline number is the end-to-end cold-over-warm
//! speedup, with suite construction (the cold pass's corpus publish)
//! reported alongside, and the warm pass's time against the `generate`
//! pass's says whether replay beats plain generation. Results go to
//! stderr, `results/trace_cache_speedup.csv`, `results/manifest.csv` and,
//! with `IBP_TRACE`, one `trace_cache_speedup` journal event per run.

use std::fs;
use std::time::{Duration, Instant};

use ibp_bench::ExperimentMetrics;
use ibp_obs as obs;
use ibp_sim::engine;
use ibp_sim::trace_cache::{self, TraceCacheStats};

fn usage() -> ! {
    eprintln!("usage: trace_cache_speedup [experiment...]");
    std::process::exit(2);
}

struct Pass {
    construction: Duration,
    total: Duration,
    trace: TraceCacheStats,
    tables_csv: Vec<String>,
    metrics: Vec<ExperimentMetrics>,
}

fn main() {
    // The persistent *result* cache would serve the warm pass's runs from
    // disk and mask the trace-replay cost being measured. Disable it for
    // the whole process before the first knob read (knobs are parsed once).
    std::env::set_var("IBP_CACHE", "0");

    let mut ids: Vec<String> = std::env::args().skip(1).collect();
    if ids.iter().any(|a| a.starts_with('-')) {
        usage();
    }
    if ids.is_empty() {
        ids = vec!["fig2".to_string()];
    }
    let experiments: Vec<_> = ids
        .iter()
        .map(|id| {
            ibp_sim::experiments::by_id(id).unwrap_or_else(|| panic!("unknown experiment id {id}"))
        })
        .collect();

    eprintln!(
        "== trace-cache speedup: {} (cold generate vs warm replay vs plain generation) ==",
        ids.join(", ")
    );

    trace_cache::purge();

    let mut passes: Vec<Pass> = Vec::new();
    for (label, corpus) in [("cold", true), ("warm", true), ("generate", false)] {
        // The cold and warm passes engage the corpus whatever the event
        // threshold says, since this binary exists to measure it; the
        // generate pass turns it off.
        trace_cache::override_policy(Some(corpus));
        // Each pass must simulate from scratch; only the trace source may
        // differ between them.
        engine::clear_memo_cache();
        let trace_before = trace_cache::stats();
        let t0 = Instant::now();
        let suite = ibp_bench::full_suite();
        let construction = t0.elapsed();
        let mut tables_csv = Vec::new();
        let mut metrics = Vec::new();
        for experiment in &experiments {
            let (tables, m) = ibp_bench::run_instrumented(experiment, &suite);
            tables_csv.push(tables.iter().map(ibp_sim::report::Table::to_csv).collect());
            metrics.push(m);
        }
        let total = t0.elapsed();
        let trace = trace_cache::stats().since(trace_before);
        eprintln!(
            "{label}: suite construction {construction:.2?}, total {total:.2?} \
             ({} trace hits / {} misses, {} bytes read, {} bytes written)",
            trace.hits, trace.misses, trace.bytes_read, trace.bytes_written,
        );
        passes.push(Pass {
            construction,
            total,
            trace,
            tables_csv,
            metrics,
        });
    }
    trace_cache::override_policy(None);
    let [cold, warm, generate] = <[Pass; 3]>::try_from(passes).ok().expect("three passes");

    for (i, experiment) in experiments.iter().enumerate() {
        assert_eq!(
            cold.tables_csv[i], warm.tables_csv[i],
            "{}: warm replay diverges from cold generation — equivalence bug",
            experiment.id
        );
        assert_eq!(
            generate.tables_csv[i], warm.tables_csv[i],
            "{}: warm replay diverges from plain generation — equivalence bug",
            experiment.id
        );
    }
    eprintln!("result tables identical across cold, warm and generate passes");
    assert!(
        cold.trace.misses > 0,
        "cold pass generated no segments — purge or engagement is broken"
    );
    assert_eq!(
        warm.trace.misses, 0,
        "warm pass regenerated a segment — cache keying is broken"
    );
    assert!(
        warm.trace.hits > 0,
        "warm pass never touched the trace cache"
    );
    eprintln!(
        "warm pass: 100.0% trace-cache hits ({} of {})",
        warm.trace.hits, warm.trace.hits
    );
    assert_eq!(
        generate.trace,
        TraceCacheStats::default(),
        "generate pass touched the trace cache — the policy override is broken"
    );

    let over = |pass: &Pass| cold.total.as_secs_f64() / pass.total.as_secs_f64().max(1e-9);
    let speedup = over(&warm);
    eprintln!(
        "end-to-end speedup: {speedup:.2}x ({:.2?} -> {:.2?}); \
         suite construction {:.2?} -> {:.2?}",
        cold.total, warm.total, cold.construction, warm.construction,
    );
    let replay_over_generate = generate.total.as_secs_f64() / warm.total.as_secs_f64().max(1e-9);
    eprintln!(
        "warm replay against plain generation: {replay_over_generate:.2}x ({:.2?} -> {:.2?})",
        generate.total, warm.total,
    );
    let mut failed = false;
    if speedup < 2.0 {
        eprintln!(
            "below the 2.0x target — warm replay should beat cold generate-and-encode \
             comfortably; rerun on an unloaded machine before reading much into it"
        );
        failed = true;
    }
    obs::event!(
        "trace_cache_speedup",
        experiments = ids.join("+"),
        cold_construction_us = u64::try_from(cold.construction.as_micros()).unwrap_or(u64::MAX),
        warm_construction_us = u64::try_from(warm.construction.as_micros()).unwrap_or(u64::MAX),
        cold_total_us = u64::try_from(cold.total.as_micros()).unwrap_or(u64::MAX),
        warm_total_us = u64::try_from(warm.total.as_micros()).unwrap_or(u64::MAX),
        generate_total_us = u64::try_from(generate.total.as_micros()).unwrap_or(u64::MAX),
        warm_hits = warm.trace.hits,
        bytes_written = cold.trace.bytes_written,
        speedup = speedup
    );

    let mut csv = String::from(
        "pass,construction_seconds,total_seconds,trace_hits,trace_misses,\
         bytes_read,bytes_written,speedup\n",
    );
    for (label, pass) in [("cold", &cold), ("warm", &warm), ("generate", &generate)] {
        let ratio = over(pass);
        csv.push_str(&format!(
            "{label},{:.3},{:.3},{},{},{},{},{ratio:.2}\n",
            pass.construction.as_secs_f64(),
            pass.total.as_secs_f64(),
            pass.trace.hits,
            pass.trace.misses,
            pass.trace.bytes_read,
            pass.trace.bytes_written,
        ));
    }

    let all_metrics: Vec<ExperimentMetrics> = [cold.metrics, warm.metrics, generate.metrics]
        .into_iter()
        .flatten()
        .collect();
    match ibp_bench::write_manifest(&all_metrics) {
        Ok(path) => eprintln!("runtime manifest written to {}", path.display()),
        Err(e) => obs::warn!("could not write manifest.csv: {e}"),
    }
    let dir = obs::results_root();
    if fs::create_dir_all(&dir).is_ok() {
        let path = dir.join("trace_cache_speedup.csv");
        match fs::write(&path, csv) {
            Ok(()) => eprintln!("speedup record written to {}", path.display()),
            Err(e) => obs::warn!("could not write trace_cache_speedup.csv: {e}"),
        }
    }
    ibp_bench::print_trace_cache_summary();
    obs::flush();
    if failed {
        std::process::exit(1);
    }
}
