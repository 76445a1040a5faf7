//! Measures the persistent binary trace corpus cache: cold generation
//! (generator pass teed into `.ibpb` segments) against warm replay
//! (bulk-decode from disk), in one process.
//!
//! Usage: `trace_cache_speedup [experiment...]` (default: `fig2`). The
//! trace cache is purged, then the suite is built and the experiments run
//! twice — a cold pass that generates and publishes every segment, and a
//! warm pass that replays them. The result-cache is disabled for the
//! whole process (`IBP_CACHE=0`) and the in-process memo cache cleared
//! before each pass, so neither can mask the trace work. The two table
//! sets must be byte-identical and the warm pass must be 100 % trace-cache
//! hits (the run aborts otherwise). The headline number is the suite
//! *generation-phase* speedup (cold generate-and-encode vs warm decode);
//! end-to-end wall time for both
//! passes is reported alongside, unmasked. Results go to stderr,
//! `results/trace_cache_speedup.csv`, `results/manifest.csv` and, with
//! `IBP_TRACE`, one `trace_cache_speedup` journal event per run.

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
    generation: Duration,
    total: Duration,
    trace: TraceCacheStats,
    tables_csv: Vec<String>,
    metrics: Vec<ExperimentMetrics>,
}

fn main() {
    // The persistent *result* cache would serve the warm pass's runs from
    // disk and mask the trace-replay cost being measured. Disable it for
    // the whole process before anything reads the knob.
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
        "== trace-cache speedup: {} (cold generate vs warm replay, single-thread) ==",
        ids.join(", ")
    );

    // Engage the cache regardless of IBP_TRACE_CACHE and the event
    // threshold: this binary exists to measure it.
    trace_cache::override_policy(Some(true));
    trace_cache::purge();

    let mut passes: Vec<Pass> = Vec::new();
    let mut streamed = false;
    for label in ["cold", "warm"] {
        // Each pass must simulate from scratch; only the trace source may
        // differ between them.
        engine::clear_memo_cache();
        let trace_before = trace_cache::stats();
        let t0 = Instant::now();
        let suite = ibp_bench::full_suite();
        let generation = t0.elapsed();
        streamed = suite.streamed();
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
            "{label}: suite generation {generation:.2?}, total {total:.2?} \
             ({} trace hits / {} misses, {} bytes read, {} bytes written)",
            trace.hits, trace.misses, trace.bytes_read, trace.bytes_written,
        );
        passes.push(Pass {
            generation,
            total,
            trace,
            tables_csv,
            metrics,
        });
    }
    let [cold, warm] = <[Pass; 2]>::try_from(passes).ok().expect("two passes");

    for (i, experiment) in experiments.iter().enumerate() {
        assert_eq!(
            cold.tables_csv[i], warm.tables_csv[i],
            "{}: warm replay diverges from cold generation — equivalence bug",
            experiment.id
        );
    }
    eprintln!("result tables identical across cold and warm passes");
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

    // In materialised mode the suite build *is* the generation phase; when
    // streaming, generation happens inside the runs, so the honest
    // comparison is end-to-end wall time.
    let (cold_phase, warm_phase, phase_label) = if streamed {
        (cold.total, warm.total, "end-to-end (streamed suite)")
    } else {
        (cold.generation, warm.generation, "suite generation")
    };
    let speedup = cold_phase.as_secs_f64() / warm_phase.as_secs_f64().max(1e-9);
    eprintln!(
        "{phase_label} speedup: {speedup:.2}x ({cold_phase:.2?} -> {warm_phase:.2?}); \
         end-to-end {:.2?} -> {:.2?}",
        cold.total, warm.total,
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
        cold_generation_us = u64::try_from(cold.generation.as_micros()).unwrap_or(u64::MAX),
        warm_generation_us = u64::try_from(warm.generation.as_micros()).unwrap_or(u64::MAX),
        cold_total_us = u64::try_from(cold.total.as_micros()).unwrap_or(u64::MAX),
        warm_total_us = u64::try_from(warm.total.as_micros()).unwrap_or(u64::MAX),
        warm_hits = warm.trace.hits,
        bytes_written = cold.trace.bytes_written,
        speedup = speedup
    );

    let mut csv = String::from(
        "pass,generation_seconds,total_seconds,trace_hits,trace_misses,\
         bytes_read,bytes_written,speedup\n",
    );
    for (label, pass, ratio) in [("cold", &cold, 1.0), ("warm", &warm, speedup)] {
        csv.push_str(&format!(
            "{label},{:.3},{:.3},{},{},{},{},{ratio:.2}\n",
            pass.generation.as_secs_f64(),
            pass.total.as_secs_f64(),
            pass.trace.hits,
            pass.trace.misses,
            pass.trace.bytes_read,
            pass.trace.bytes_written,
        ));
    }

    trace_cache::override_policy(None);

    let all_metrics: Vec<ExperimentMetrics> = cold
        .metrics
        .into_iter()
        .chain(warm.metrics)
        .collect();
    match ibp_bench::write_manifest(&all_metrics) {
        Ok(path) => eprintln!("runtime manifest written to {}", path.display()),
        Err(e) => obs::warn!("could not write manifest.csv: {e}"),
    }
    let dir = ibp_bench::results_dir();
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
