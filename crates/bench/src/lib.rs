//! Shared plumbing for the experiment binaries (`src/bin/`).
//!
//! Each binary regenerates one figure or table of the paper by calling the
//! corresponding [`ibp_sim::experiments`] runner over the full benchmark
//! suite, printing the result tables and writing CSVs under `results/`.
//!
//! Environment:
//!
//! * `IBP_EVENTS` — indirect branches per benchmark trace (default
//!   120 000). The paper traced 0.03M–6M events per program; larger values
//!   flatten the long-path warm-up penalty at the cost of run time. Every
//!   suite streams its traces chunk by chunk, so even multi-million-event
//!   runs hold memory constant.
//! * `IBP_RESULTS` — output root for CSVs, the persistent caches and the
//!   `IBP_TRACE=1` journal (default `results`).
//! * `IBP_CACHE` — `0` disables the persistent cross-process result cache
//!   under `results/.cache/` (default enabled).
//! * `IBP_TRACE` — JSONL run journal: `1` writes
//!   `$IBP_RESULTS/journal/<run-id>.jsonl`, any other value is used as the
//!   journal path. It holds the per-sweep and per-experiment progress
//!   lines too; render it with the `obs_report` binary.
//! * `IBP_PROBE` — predictor-internals probes in the journal: `0` (the
//!   default) off, `1` samples occupancy/aliasing snapshots and per-site
//!   miss attribution per run, `deep` adds interval samples and the
//!   cold/capacity split. Needs `IBP_TRACE`; result tables stay
//!   byte-identical either way.
//! * `IBP_FAULTS` — deterministic fault injection (`ibp_sim::faults`).
//!
//! Every knob is read once, by [`ibp_obs::knobs()`], except `IBP_RESULTS`,
//! which is read per call; an invalid value prints one warning and the
//! default applies. Each `(benchmark, events)` trace at 50k events or more
//! is generated once into the trace corpus under `results/.cache/traces/`
//! and replayed by every later run; results are byte-identical either way.
//! `IBP_LOG` is retired and has no effect. The README's "Environment
//! knobs" table lists the same knobs; `tests/readme.rs` fails when it and
//! the knobs a journal header records differ.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ibp_obs as obs;
use ibp_sim::engine::{self, EngineStats};
use ibp_sim::experiments::Experiment;
use ibp_sim::report::Table;
use ibp_sim::trace_cache::{self, TraceCacheStats};
use ibp_sim::Suite;

/// Builds the full 17-benchmark suite (honours `IBP_EVENTS`), publishing
/// any trace-corpus segment it is missing.
#[must_use]
pub fn full_suite() -> Suite {
    eprintln!("preparing 17 benchmark trace sources...");
    Suite::new()
}

/// Prints the tables and writes one CSV per table under
/// `$IBP_RESULTS/<id>/`.
pub fn emit(id: &str, tables: &[Table]) {
    let dir = obs::results_root().join(id);
    let persisted = fs::create_dir_all(&dir).is_ok();
    for (i, t) in tables.iter().enumerate() {
        println!("{}", t.to_text());
        if persisted {
            let slug: String = t
                .title()
                .chars()
                .map(|c| {
                    if c.is_alphanumeric() {
                        c.to_ascii_lowercase()
                    } else {
                        '_'
                    }
                })
                .collect();
            let path = dir.join(format!("{i:02}_{}.csv", slug.trim_matches('_')));
            if let Err(e) = fs::write(&path, t.to_csv()) {
                obs::warn!("could not write {}: {e}", path.display());
            }
        }
    }
    if persisted {
        eprintln!("csv written to {}", dir.display());
    }
}

/// Runs one experiment end to end: build suite, run (instrumented), emit.
pub fn run_experiment(id: &str) {
    let experiment =
        ibp_sim::experiments::by_id(id).unwrap_or_else(|| panic!("unknown experiment id {id}"));
    eprintln!("== {} ==", experiment.title);
    let suite = full_suite();
    let (tables, _metrics) = run_instrumented(&experiment, &suite);
    emit(id, &tables);
    engine::persist_cache();
    print_trace_cache_summary();
}

/// Prints the greppable process-wide trace-cache summary line on stderr
/// (CI gates on it), or nothing if the cache saw no traffic.
pub fn print_trace_cache_summary() {
    let stats = trace_cache::stats();
    if stats.hits + stats.misses == 0 {
        return;
    }
    eprintln!(
        "trace-cache hit rate: {:.1}% ({} hits / {} misses, {} bytes read, {} bytes written)",
        stats.hit_rate_pct(),
        stats.hits,
        stats.misses,
        stats.bytes_read,
        stats.bytes_written,
    );
}

/// Wall time and engine-counter deltas attributed to one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentMetrics {
    /// The experiment id (`fig9`, …).
    pub id: &'static str,
    /// Wall-clock duration of the runner.
    pub wall: Duration,
    /// Cache hit/miss and simulated-event deltas (see
    /// [`EngineStats::since`]).
    pub engine: EngineStats,
    /// Trace-corpus-cache counter deltas for this experiment (see
    /// [`TraceCacheStats::since`]).
    pub trace_cache: TraceCacheStats,
    /// The process's peak RSS in bytes when the experiment finished
    /// (`None` off Linux). A whole-run high-water mark, not a per-
    /// experiment delta: compare it against a memory ceiling, not across
    /// experiments.
    pub peak_rss: Option<u64>,
}

impl ExperimentMetrics {
    /// Indirect-branch events simulated per second of wall time
    /// (0 when nothing was simulated live).
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.engine.simulated_events as f64 / secs
        } else {
            0.0
        }
    }

    /// Cache hits as a percentage of all engine lookups this experiment
    /// made (0 when it made none).
    #[must_use]
    pub fn hit_rate_pct(&self) -> f64 {
        let lookups = self.engine.hits + self.engine.misses;
        if lookups > 0 {
            100.0 * self.engine.hits as f64 / lookups as f64
        } else {
            0.0
        }
    }
}

/// Runs one experiment through the shared traced runner path, attributing
/// wall time and engine-counter deltas to it. With `IBP_TRACE`, the run is
/// recorded as one root `experiment` span in the journal, followed by a
/// progress line with its metrics.
pub fn run_instrumented(experiment: &Experiment, suite: &Suite) -> (Vec<Table>, ExperimentMetrics) {
    let before = engine::stats();
    let trace_before = trace_cache::stats();
    let t0 = Instant::now();
    let tables = experiment.run_traced(suite);
    let metrics = ExperimentMetrics {
        id: experiment.id,
        wall: t0.elapsed(),
        engine: engine::stats().since(before),
        trace_cache: trace_cache::stats().since(trace_before),
        peak_rss: obs::peak_rss_bytes(),
    };
    if let Some(bytes) = metrics.peak_rss {
        obs::event!("peak_rss", experiment = metrics.id, bytes = bytes);
    }
    obs::info!(
        "[{}] {:.2?}, {} hits / {} misses ({:.1}% hit rate), {} events ({:.0} events/s), \
         peak rss {} MB",
        metrics.id,
        metrics.wall,
        metrics.engine.hits,
        metrics.engine.misses,
        metrics.hit_rate_pct(),
        metrics.engine.simulated_events,
        metrics.events_per_sec(),
        peak_rss_mb(metrics.peak_rss),
    );
    (tables, metrics)
}

/// Renders a peak-RSS sample in whole megabytes, or `na` when the
/// platform gave no reading — a fabricated `0` would look like a real
/// measurement.
fn peak_rss_mb(bytes: Option<u64>) -> String {
    match bytes {
        Some(b) => format!("{:.0}", b as f64 / (1 << 20) as f64),
        None => "na".to_string(),
    }
}

/// Writes `$IBP_RESULTS/manifest.csv`: one row of runtime metrics per
/// experiment (wall time, cache hit/miss counts and rate, simulated
/// events, throughput). Returns the path written.
///
/// # Errors
///
/// Propagates directory-creation and write failures; callers decide how to
/// report them (`repro_all` logs through the event API).
pub fn write_manifest(metrics: &[ExperimentMetrics]) -> std::io::Result<PathBuf> {
    let dir = obs::results_root();
    fs::create_dir_all(&dir)?;
    let path = dir.join("manifest.csv");
    fs::write(&path, manifest_csv(metrics))?;
    Ok(path)
}

/// The manifest CSV content (see [`write_manifest`]). A missing peak-RSS
/// reading leaves the `peak_rss_mb` field empty rather than writing a
/// fabricated `0.0`.
#[must_use]
pub fn manifest_csv(metrics: &[ExperimentMetrics]) -> String {
    let mut csv = String::from(
        "experiment,wall_seconds,cache_hits,cache_misses,persistent_hits,hit_rate_pct,\
         simulated_events,events_per_sec,trace_hits,trace_misses,peak_rss_mb\n",
    );
    for m in metrics {
        let rss = match m.peak_rss {
            Some(b) => format!("{:.1}", b as f64 / (1 << 20) as f64),
            None => String::new(),
        };
        csv.push_str(&format!(
            "{},{:.3},{},{},{},{:.1},{},{:.0},{},{},{rss}\n",
            m.id,
            m.wall.as_secs_f64(),
            m.engine.hits,
            m.engine.misses,
            m.engine.persistent_hits,
            m.hit_rate_pct(),
            m.engine.simulated_events,
            m.events_per_sec(),
            m.trace_cache.hits,
            m.trace_cache.misses,
        ));
    }
    csv
}

/// Prints the end-of-run cache/throughput summary on stderr.
pub fn print_summary(metrics: &[ExperimentMetrics], total_wall: Duration) {
    let total: EngineStats = metrics
        .iter()
        .fold(EngineStats::default(), |acc, m| EngineStats {
            hits: acc.hits + m.engine.hits,
            misses: acc.misses + m.engine.misses,
            persistent_hits: acc.persistent_hits + m.engine.persistent_hits,
            simulated_events: acc.simulated_events + m.engine.simulated_events,
            ..EngineStats::default()
        });
    let lookups = total.hits + total.misses;
    let hit_pct = if lookups > 0 {
        100.0 * total.hits as f64 / lookups as f64
    } else {
        0.0
    };
    let persistent_pct = if lookups > 0 {
        100.0 * total.persistent_hits as f64 / lookups as f64
    } else {
        0.0
    };
    let rate = if total_wall.as_secs_f64() > 0.0 {
        total.simulated_events as f64 / total_wall.as_secs_f64()
    } else {
        0.0
    };
    // `filter_map` keeps unreadable samples out of the max; if no
    // experiment got a reading, the clause is omitted entirely.
    let rss = match metrics.iter().filter_map(|m| m.peak_rss).max() {
        Some(bytes) => format!(", peak rss {} MB", peak_rss_mb(Some(bytes))),
        None => String::new(),
    };
    eprintln!(
        "{} experiments in {:.2?}: {} cache hits / {} misses ({hit_pct:.1}% hit rate), \
         {} indirect branches simulated ({rate:.0} events/s){rss}",
        metrics.len(),
        total_wall,
        total.hits,
        total.misses,
        total.simulated_events,
    );
    // One greppable line for the cross-process cache (CI gates on it).
    eprintln!(
        "persistent-cache hit rate: {persistent_pct:.1}% ({} of {lookups} lookups)",
        total.persistent_hits,
    );
    print_trace_cache_summary();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(id: &'static str, peak_rss: Option<u64>) -> ExperimentMetrics {
        ExperimentMetrics {
            id,
            wall: Duration::from_millis(1500),
            engine: EngineStats {
                hits: 3,
                misses: 1,
                persistent_hits: 2,
                simulated_events: 40,
                ..EngineStats::default()
            },
            trace_cache: TraceCacheStats {
                hits: 17,
                misses: 4,
                bytes_read: 1024,
                bytes_written: 512,
            },
            peak_rss,
        }
    }

    #[test]
    fn manifest_leaves_peak_rss_empty_when_unreadable() {
        let csv = manifest_csv(&[sample("fig17", None)]);
        let mut lines = csv.lines();
        let header = lines.next().expect("header row");
        assert!(header.ends_with("events_per_sec,trace_hits,trace_misses,peak_rss_mb"));
        let row = lines.next().expect("one data row");
        assert!(
            row.ends_with(",27,17,4,"),
            "rss field must be empty, got {row}"
        );
        assert!(!row.contains(",0.0"), "no fabricated rss reading: {row}");
        assert_eq!(
            row.split(',').count(),
            header.split(',').count(),
            "empty field still keeps the column count"
        );
    }

    #[test]
    fn manifest_reports_real_peak_rss_readings() {
        let csv = manifest_csv(&[sample("fig9", Some(5 << 20))]);
        let row = csv.lines().nth(1).expect("one data row");
        assert!(row.ends_with(",27,17,4,5.0"), "got {row}");
    }

    #[test]
    fn stderr_peak_rss_is_na_when_unreadable() {
        assert_eq!(peak_rss_mb(None), "na");
        assert_eq!(peak_rss_mb(Some(6 << 20)), "6");
    }
}
