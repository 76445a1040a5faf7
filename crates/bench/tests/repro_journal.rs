//! `repro_all`-shaped end-to-end test of the observability layer: a full
//! (small, `IBP_EVENTS=2000`) reproduction run with tracing on must journal
//! one root `experiment` span per experiment and one `cell` event per
//! simulated cell, write the extended manifest, and render through
//! `obs_report` — both the human summary and loadable Chrome trace-event
//! JSON. The other tests pin where `IBP_TRACE=1` puts its journal, what
//! the journal's `meta` header records, that each simulated cell names the
//! fold that made it (a trie, shared key streams or its own lane), and that
//! each malformed knob warns exactly once.

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
    assert_eq!(
        records[0].kind,
        Kind::Meta,
        "journal starts with the run header"
    );

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

    // Every simulated cell keeps its provenance: one `miss` event per cell
    // the root spans count, beside the per-benchmark pass spans.
    let misses: u64 = roots
        .iter()
        .map(|r| r.field_u64("cache_misses").expect("cache_misses"))
        .sum();
    let miss_events: Vec<_> = records
        .iter()
        .filter(|r| r.kind == Kind::Event && r.name == "cell")
        .filter(|r| r.field_str("outcome") == Some("miss"))
        .collect();
    assert_eq!(miss_events.len() as u64, misses);
    assert!(miss_events
        .iter()
        .all(|r| r.field_str("config").is_some() && r.field_str("benchmark").is_some()));

    // The run also recorded pass and worker spans and flushed the registry.
    assert!(records
        .iter()
        .any(|r| r.kind == Kind::Span && r.name == "cell"));
    assert!(records
        .iter()
        .any(|r| r.kind == Kind::Span && r.name == "worker"));
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
    assert!(stdout.contains("run: schema 1, "), "{stdout}");
    assert!(
        stdout.contains(&format!("experiments ({})", experiments.len())),
        "{stdout}"
    );
    assert!(stdout.contains("slowest benchmark passes"), "{stdout}");
    assert!(stdout.contains("worker utilization"), "{stdout}");
    assert!(stdout.contains("metrics snapshot"), "{stdout}");
    assert_chrome_trace(&chrome);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_1_journals_under_the_results_root() {
    let tmp = std::env::temp_dir().join(format!("ibp-trace-root-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let (out_dir, cwd) = (tmp.join("out"), tmp.join("cwd"));
    std::fs::create_dir_all(&cwd).expect("working directory");

    let out = Command::new(env!("CARGO_BIN_EXE_table1_2"))
        .current_dir(&cwd)
        .env("IBP_EVENTS", "2000")
        .env("IBP_TRACE", "1")
        .env("IBP_RESULTS", &out_dir)
        .output()
        .expect("spawn table1_2");
    assert!(
        out.status.success(),
        "table1_2 failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let journals: Vec<_> = std::fs::read_dir(out_dir.join("journal"))
        .expect("journal directory under IBP_RESULTS")
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "jsonl"))
        .collect();
    assert_eq!(journals.len(), 1, "one journal under {}", out_dir.display());
    assert!(
        !cwd.join("results").exists(),
        "nothing may land in the working directory's results/"
    );
    std::fs::remove_dir_all(&tmp).ok();
}

/// Figure 9 sweeps one path-length family per benchmark, so every cell it
/// simulates comes off a trie lane, and each pass span names the family's
/// depths. Figure 5's configs differ in history sharing, so each is a
/// family of one and folds on its own lane.
#[test]
fn each_simulated_cell_names_its_fold() {
    let tmp = std::env::temp_dir().join(format!("ibp-cell-fold-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let figures = [
        (env!("CARGO_BIN_EXE_fig9_path_length"), "trie"),
        (env!("CARGO_BIN_EXE_fig5_history_sharing"), "lane"),
    ];
    for (bin, fold) in figures {
        let root = tmp.join(fold);
        let journal = root.join("journal.jsonl");
        let out = run(
            bin,
            &[],
            &[
                ("IBP_EVENTS", "2000"),
                ("IBP_PROBE", "0"),
                ("IBP_TRACE", journal.to_str().expect("utf8 path")),
                ("IBP_RESULTS", root.to_str().expect("utf8 path")),
            ],
        );
        assert!(
            out.status.success(),
            "{bin} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let records = read_journal(&journal).expect("parse journal");
        let cells: Vec<_> = records
            .iter()
            .filter(|r| r.kind == Kind::Event && r.name == "cell")
            .filter(|r| r.field_str("outcome") == Some("miss"))
            .collect();
        assert!(!cells.is_empty(), "{bin} simulated no cell");
        for cell in &cells {
            assert_eq!(cell.field_str("fold"), Some(fold), "{bin}: {cell:?}");
        }
        let passes = records
            .iter()
            .filter(|r| r.kind == Kind::Span && r.name == "cell");
        for pass in passes {
            let tries = (fold == "trie").then_some("0..=18");
            assert_eq!(pass.field_str("tries"), tries, "{bin}: {pass:?}");
        }
    }
    std::fs::remove_dir_all(&tmp).ok();
}

/// The ablations fold all three ways: the confidence-width hybrids and the
/// BPSTs read shared key streams, two per pass (`p = 3` and `p = 1`
/// keys); the always-update family `{0, 1, 3, 6, 8}` folds as one trie;
/// and the full-key history variations, like the two-bit-counter members
/// left over from them, fold on their own lanes.
#[test]
fn ablations_cells_name_keyed_trie_and_lane_folds() {
    let tmp = std::env::temp_dir().join(format!("ibp-ablation-folds-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let journal = tmp.join("journal.jsonl");
    let out = run(
        env!("CARGO_BIN_EXE_ablations"),
        &[],
        &[
            ("IBP_EVENTS", "2000"),
            ("IBP_PROBE", "0"),
            ("IBP_TRACE", journal.to_str().expect("utf8 path")),
            ("IBP_RESULTS", tmp.to_str().expect("utf8 path")),
        ],
    );
    assert!(
        out.status.success(),
        "ablations failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let records = read_journal(&journal).expect("parse journal");
    let mut folds = std::collections::BTreeMap::new();
    for cell in records
        .iter()
        .filter(|r| r.kind == Kind::Event && r.name == "cell")
        .filter(|r| r.field_str("outcome") == Some("miss"))
    {
        let config = cell.field_str("config").expect("a cell names its config");
        let expected = if config.starts_with("Hybrid|") || config.starts_with("Bpst|") {
            "keyed"
        } else if config.contains("|rule=Always|") {
            "trie"
        } else {
            "lane"
        };
        assert_eq!(cell.field_str("fold"), Some(expected), "{cell:?}");
        *folds.entry(expected).or_insert(0) += 1;
    }
    assert_eq!(
        folds.keys().copied().collect::<Vec<_>>(),
        ["keyed", "lane", "trie"],
        "every fold simulates some cell: {folds:?}"
    );
    let keys: Vec<Option<u64>> = records
        .iter()
        .filter(|r| r.kind == Kind::Span && r.name == "cell")
        .map(|pass| pass.field_u64("keys"))
        .collect();
    assert!(keys.contains(&Some(2)), "a hybrid pass builds two streams");
    assert!(keys.contains(&None), "a full-key pass builds none");
    assert!(keys.iter().all(|k| matches!(k, None | Some(2))), "{keys:?}");
    std::fs::remove_dir_all(&tmp).ok();
}

/// Runs `bin` traced at 2,000 events, probe off, in a fresh results root
/// under `tmp`, and returns its journal.
fn traced_run(bin: &str, tmp: &Path) -> Vec<ibp_obs::Record> {
    let journal = tmp.join("journal.jsonl");
    let out = run(
        bin,
        &[],
        &[
            ("IBP_EVENTS", "2000"),
            ("IBP_PROBE", "0"),
            ("IBP_TRACE", journal.to_str().expect("utf8 path")),
            ("IBP_RESULTS", tmp.to_str().expect("utf8 path")),
        ],
    );
    assert!(
        out.status.success(),
        "{bin} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    read_journal(&journal).expect("parse journal")
}

/// The `components` each benchmark pass notes.
fn pass_components(records: &[ibp_obs::Record]) -> Vec<Option<u64>> {
    records
        .iter()
        .filter(|r| r.kind == Kind::Span && r.name == "cell")
        .map(|pass| pass.field_u64("components"))
        .collect()
}

/// The component bank's routing, which no table shows: a lane that fell
/// back to its own fold would leave every table byte-identical, so only
/// the journal's fold names and counts catch it. `ext`'s hybrid and §8.1
/// composites fold through the bank and ITTAGE-lite on its own lane; each
/// budget's hybrid and three-stage designs rest on four distinct tables
/// (`p = 5` and `p = 1` at half the budget, `p = 6` and `p = 3` at a
/// quarter), so every `ext` pass folds 12. Each Figure 17 pass folds its
/// 13 hybrid components and 13 diagonal tables once each: 26. Figure 18
/// sweeps each hybrid cell with the two-level cell of its component size,
/// whose nine tables are nine of the 30 hybrids' ten components, so such
/// a pass folds 39 configs over 10 tables.
#[test]
fn the_component_bank_folds_each_distinct_table_once() {
    let tmp = std::env::temp_dir().join(format!("ibp-component-bank-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let records = traced_run(env!("CARGO_BIN_EXE_ext_future_work"), &tmp.join("ext"));
    let mut folds = std::collections::BTreeMap::new();
    for cell in records
        .iter()
        .filter(|r| r.kind == Kind::Event && r.name == "cell")
        .filter(|r| r.field_str("outcome") == Some("miss"))
    {
        let config = cell.field_str("config").expect("a cell names its config");
        let (kind, expected) = if config.starts_with("Hybrid|") {
            ("hybrid", "keyed")
        } else if config.starts_with("ext::MultiHybrid") {
            ("multi-hybrid", "keyed")
        } else if config.starts_with("ext::Cascade") {
            ("cascade", "keyed")
        } else if config.starts_with("ext::SharedTable") {
            ("shared-table", "keyed")
        } else if config.starts_with("ext::IttageLite") {
            ("ittage-lite", "lane")
        } else {
            assert!(config.starts_with("ahead|"), "unexpected cell {config}");
            ("ahead", "lane")
        };
        assert_eq!(cell.field_str("fold"), Some(expected), "{cell:?}");
        *folds.entry(kind).or_insert(0) += 1;
    }
    assert_eq!(
        folds.keys().copied().collect::<Vec<_>>(),
        [
            "ahead",
            "cascade",
            "hybrid",
            "ittage-lite",
            "multi-hybrid",
            "shared-table"
        ],
        "every contender simulates some cell: {folds:?}"
    );
    let components = pass_components(&records);
    assert!(!components.is_empty(), "ext folded no pass");
    assert!(components.iter().all(|&c| c == Some(12)), "{components:?}");

    let records = traced_run(
        env!("CARGO_BIN_EXE_fig17_hybrid_surface"),
        &tmp.join("fig17"),
    );
    let components = pass_components(&records);
    assert!(!components.is_empty(), "fig17 folded no pass");
    assert!(components.iter().all(|&c| c == Some(26)), "{components:?}");

    let records = traced_run(
        env!("CARGO_BIN_EXE_fig18_best_predictors"),
        &tmp.join("fig18"),
    );
    let shared: Vec<Option<u64>> = records
        .iter()
        .filter(|r| r.kind == Kind::Span && r.name == "cell")
        .filter(|pass| pass.field_u64("configs") == Some(39))
        .map(|pass| pass.field_u64("components"))
        .collect();
    assert!(
        !shared.is_empty(),
        "fig18 swept no hybrid cell with its tables"
    );
    assert!(shared.iter().all(|&c| c == Some(10)), "{shared:?}");

    // The ablations' BPSTs ride on the confidence-width sweep, whose
    // 2-bit hybrids hold their components: each pass folds 12 hybrids and
    // 3 BPSTs on 24 tables, and no pass folds the BPSTs alone.
    let records = traced_run(env!("CARGO_BIN_EXE_ablations"), &tmp.join("ablations"));
    let keyed: Vec<(Option<u64>, Option<u64>)> = records
        .iter()
        .filter(|r| r.kind == Kind::Span && r.name == "cell")
        .filter(|pass| pass.field_u64("components").is_some())
        .map(|pass| (pass.field_u64("configs"), pass.field_u64("components")))
        .collect();
    assert_eq!(keyed, vec![(Some(15), Some(24)); 17], "{keyed:?}");
    std::fs::remove_dir_all(&tmp).ok();
}

/// Figure 9's node probes over its 17 trie passes at 2,000 events.
const TRIE_PROBES: u64 = 509_641;
/// The branches those passes pruned before the deepest depth.
const TRIE_PRUNED: u64 = 14_374;

/// The trie's work is counted exactly, so turning its pruning off, or
/// routing Figure 9 away from it, changes these totals and fails here
/// rather than only in a timing. At 2,000 events on 17 benchmarks a fold
/// without pruning would make 17 × 2,000 × 19 = 646,000 probes.
#[test]
fn fig9_trie_probes_and_pruned_branches_are_pinned() {
    let tmp = std::env::temp_dir().join(format!("ibp-trie-work-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let records = traced_run(env!("CARGO_BIN_EXE_fig9_path_length"), &tmp);
    let passes: Vec<_> = records
        .iter()
        .filter(|r| r.kind == Kind::Span && r.name == "cell")
        .collect();
    assert_eq!(passes.len(), 17, "one pass per benchmark");
    let total = |field: &str| -> u64 {
        passes
            .iter()
            .map(|pass| {
                pass.field_u64(field)
                    .unwrap_or_else(|| panic!("{pass:?} notes no {field}"))
            })
            .sum()
    };
    assert_eq!(
        (total("trie_probes"), total("trie_pruned")),
        (TRIE_PROBES, TRIE_PRUNED)
    );
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn the_journal_header_states_the_knobs_and_cores() {
    let tmp = std::env::temp_dir().join(format!("ibp-journal-meta-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("temp dir");
    let journal = tmp.join("j.jsonl");

    let out = run(
        env!("CARGO_BIN_EXE_table1_2"),
        &[],
        &[
            ("IBP_EVENTS", "2000"),
            ("IBP_PROBE", "1"),
            ("IBP_TRACE", journal.to_str().expect("utf8 path")),
            ("IBP_RESULTS", tmp.to_str().expect("utf8 path")),
        ],
    );
    assert!(
        out.status.success(),
        "table1_2 failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let records = read_journal(&journal).expect("parse journal");
    let meta = &records[0];
    assert_eq!(meta.kind, Kind::Meta);
    let knobs = meta.field("knobs").expect("knobs in the header");
    assert_eq!(knobs.get("IBP_EVENTS").and_then(Json::as_u64), Some(2000));
    assert_eq!(knobs.get("IBP_PROBE").and_then(Json::as_str), Some("1"));
    assert!(meta.field_u64("threads").expect("threads in the header") >= 1);
    assert_eq!(meta.field_u64("schema"), Some(1));
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn each_malformed_knob_warns_once() {
    let tmp = std::env::temp_dir().join(format!("ibp-knob-warnings-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let out = run(
        env!("CARGO_BIN_EXE_table1_2"),
        &[],
        &[
            ("IBP_EVENTS", "2000"),
            ("IBP_CACHE", "yes"),
            ("IBP_PROBE", "loud"),
            ("IBP_LOG", "2"),
            ("IBP_RESULTS", tmp.to_str().expect("utf8 path")),
        ],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "table1_2 failed:\n{stderr}");
    for knob in ["IBP_CACHE", "IBP_PROBE", "IBP_LOG"] {
        let prefix = format!("warning: ignoring invalid {knob}=");
        let lines = stderr.lines().filter(|l| l.starts_with(&prefix)).count();
        assert_eq!(lines, 1, "{knob}:\n{stderr}");
    }
    let warnings = stderr
        .lines()
        .filter(|l| l.starts_with("warning: ignoring invalid"))
        .count();
    assert_eq!(warnings, 3, "{stderr}");
    std::fs::remove_dir_all(&tmp).ok();
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
