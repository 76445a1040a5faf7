//! `repro_all`-shaped end-to-end test of the observability layer: a full
//! (small, `IBP_EVENTS=2000`) reproduction run with tracing on must journal
//! one root `experiment` span per experiment, write the extended manifest,
//! and render through `obs_report` — both the human summary and loadable
//! Chrome trace-event JSON.

use std::path::Path;
use std::process::Command;

use ibp_obs::json::Json;
use ibp_obs::{read_journal, Kind};

fn run(bin: &str, args: &[&str], envs: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = Command::new(bin);
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().unwrap_or_else(|e| panic!("spawn {bin}: {e}"))
}

#[test]
fn repro_all_journals_one_root_span_per_experiment() {
    let dir = std::env::temp_dir().join(format!("ibp-repro-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp results dir");
    let journal = dir.join("journal.jsonl");

    let out = run(
        env!("CARGO_BIN_EXE_repro_all"),
        &[],
        &[
            ("IBP_EVENTS", "2000"),
            ("IBP_TRACE", journal.to_str().expect("utf8 path")),
            ("IBP_RESULTS", dir.to_str().expect("utf8 path")),
        ],
    );
    assert!(
        out.status.success(),
        "repro_all failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let records = read_journal(&journal).expect("parse journal");
    assert_eq!(records[0].kind, Kind::Meta, "journal starts with the run header");

    // Exactly one root `experiment` span per experiment, carrying the
    // engine-counter attribution fields.
    let roots: Vec<_> = records
        .iter()
        .filter(|r| r.kind == Kind::Span && r.name == "experiment" && r.depth == Some(0))
        .collect();
    let experiments = ibp_sim::experiments::all();
    assert_eq!(roots.len(), experiments.len());
    for e in &experiments {
        let root = roots
            .iter()
            .find(|r| r.field_str("id") == Some(e.id))
            .unwrap_or_else(|| panic!("no root span for experiment {}", e.id));
        assert!(root.dur_us.is_some());
        assert!(root.field_u64("cache_hits").is_some());
        assert!(root.field_u64("cache_misses").is_some());
    }

    // The run also recorded cell and worker spans and flushed the registry.
    assert!(records.iter().any(|r| r.kind == Kind::Span && r.name == "cell"));
    assert!(records.iter().any(|r| r.kind == Kind::Span && r.name == "worker"));
    assert!(records.iter().any(|r| r.kind == Kind::Metrics));

    // On Linux the runner also journals the memory high-water mark.
    if ibp_obs::peak_rss_bytes().is_some() {
        let rss = records
            .iter()
            .find(|r| r.kind == Kind::Event && r.name == "peak_rss")
            .expect("peak_rss event journaled");
        assert!(rss.field_u64("bytes").expect("bytes field") > 0);
    }

    // The manifest gained the cache, simulated-events and peak-RSS columns.
    let manifest = std::fs::read_to_string(dir.join("manifest.csv")).expect("manifest.csv");
    let header = manifest.lines().next().expect("manifest header");
    assert_eq!(
        header,
        "experiment,wall_seconds,cache_hits,cache_misses,persistent_hits,hit_rate_pct,simulated_events,events_per_sec,trace_hits,trace_misses,peak_rss_mb"
    );
    assert_eq!(manifest.lines().count(), experiments.len() + 1);

    // obs_report renders the journal: human summary + valid Chrome JSON.
    let chrome = dir.join("trace.json");
    let out = run(
        env!("CARGO_BIN_EXE_obs_report"),
        &[
            journal.to_str().expect("utf8 path"),
            "--chrome",
            chrome.to_str().expect("utf8 path"),
        ],
        &[],
    );
    assert!(
        out.status.success(),
        "obs_report failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(&format!("experiments ({})", experiments.len())), "{stdout}");
    assert!(stdout.contains("slowest cells"), "{stdout}");
    assert!(stdout.contains("worker utilization"), "{stdout}");
    assert!(stdout.contains("metrics snapshot"), "{stdout}");
    assert_chrome_trace(&chrome);

    std::fs::remove_dir_all(&dir).ok();
}

fn assert_chrome_trace(path: &Path) {
    let text = std::fs::read_to_string(path).expect("chrome trace file");
    let doc = ibp_obs::json::parse(&text).expect("chrome trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    // Every experiment root span appears as a complete ("X") event with a
    // duration, which is what Perfetto renders as a slice.
    let complete = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("X")
                && e.get("name").and_then(Json::as_str) == Some("experiment")
                && e.get("dur").and_then(Json::as_u64).is_some()
        })
        .count();
    assert_eq!(complete, ibp_sim::experiments::all().len());
}
