//! Renders a trace journal (`IBP_TRACE` JSONL) into a human summary and,
//! optionally, Chrome trace-event JSON loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! ```text
//! obs_report <journal.jsonl> [--chrome <out.json>] [--top <N>] [--internals] [--strict]
//! ```
//!
//! The summary opens with a `run:` line (the journal header's schema,
//! core count and effective knobs) and a `result cache:` line (the rows,
//! cells and bytes the persistent result cache loaded and saved, and how
//! long each took), then covers where a run's time went:
//! per-experiment wall time, cache effectiveness and peak RSS (from the
//! root `experiment` spans and the `peak_rss` events), the slowest
//! benchmark passes with the cells each folded, the key streams and
//! component tables it shared them over and its trie families' node
//! probes (and of them, those that hashed), pruned branches and buffer
//! bytes,
//! per-worker busy/idle utilization, and the final metrics-registry
//! snapshot. `--internals` renders the `IBP_PROBE` probe records: per-run
//! occupancy/eviction/conflict tables, selector-usage breakdowns for
//! hybrids, miss attribution and the aliasing-heaviest sites.
//!
//! The summary always includes a "degraded cells" section when the journal
//! carries `degraded` events — work items (such as a benchmark pass) whose
//! `parallel_map` worker panicked and were retried inline, plus
//! cache-layer warn-and-continue failures.
//! `--strict` makes any degraded event a nonzero exit, for CI jobs that
//! want faults surfaced, not absorbed.
//!
//! Corrupt journal lines are skipped with a warning (the footer counts
//! them), so a truncated journal from a crashed run still renders.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use ibp_obs::json::Json;
use ibp_obs::{read_journal_counting, Kind, Record};

struct Options {
    journal: PathBuf,
    chrome: Option<PathBuf>,
    top: usize,
    internals: bool,
    strict: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut journal = None;
    let mut chrome = None;
    let mut top = 10usize;
    let mut internals = false;
    let mut strict = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--internals" => internals = true,
            "--strict" => strict = true,
            "--chrome" => {
                chrome = Some(PathBuf::from(
                    args.next().ok_or("--chrome needs a path".to_string())?,
                ));
            }
            "--top" => {
                top = args
                    .next()
                    .and_then(|n| n.parse().ok())
                    .ok_or("--top needs a number".to_string())?;
            }
            "--help" | "-h" => return Err(String::new()),
            other if journal.is_none() && !other.starts_with('-') => {
                journal = Some(PathBuf::from(other));
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(Options {
        journal: journal.ok_or("missing journal path".to_string())?,
        chrome,
        top,
        internals,
        strict,
    })
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

/// The `run:` line: the schema, core count and effective knobs from the
/// journal's `meta` header (`?` where an older journal has none).
fn run_line(meta: Option<&Record>) -> String {
    let show = |key| {
        let value = meta.and_then(|m| m.field(key));
        value.map_or_else(|| "?".to_string(), Json::to_string)
    };
    format!(
        "run: schema {}, {} threads, knobs {}",
        show("schema"),
        show("threads"),
        show("knobs")
    )
}

/// The `result cache:` line: what the persistent result cache's load and
/// save (the `cache_load` and `cache_save` spans) moved, and how long each
/// took, summed over the journal.
fn result_cache_line(records: &[Record]) -> String {
    let spans = |name: &'static str| {
        records
            .iter()
            .filter(move |r| r.kind == Kind::Span && r.name == name)
    };
    let sum = |name, field| -> u64 { spans(name).filter_map(|r| r.field_u64(field)).sum() };
    let took = |name| fmt_us(spans(name).filter_map(|r| r.dur_us).sum());
    let load = if spans("cache_load").next().is_some() {
        format!(
            "loaded {} rows ({} cells, {} bytes, {} dropped) in {}",
            sum("cache_load", "rows"),
            sum("cache_load", "cells"),
            sum("cache_load", "bytes"),
            sum("cache_load", "dropped"),
            took("cache_load")
        )
    } else {
        "not loaded".to_string()
    };
    let save = if spans("cache_save").next().is_some() {
        format!(
            "saved {} rows ({} bytes) in {}",
            sum("cache_save", "rows"),
            sum("cache_save", "bytes"),
            took("cache_save")
        )
    } else {
        "nothing saved".to_string()
    };
    format!("result cache: {load}; {save}")
}

fn print_experiments(records: &[Record]) {
    let mut roots: Vec<&Record> = records
        .iter()
        .filter(|r| r.kind == Kind::Span && r.name == "experiment")
        .collect();
    if roots.is_empty() {
        println!("experiments: none recorded\n");
        return;
    }
    println!("experiments ({}):", roots.len());
    println!(
        "  {:<14} {:>9} {:>8} {:>8} {:>6} {:>12} {:>11} {:>9}",
        "id", "wall", "hits", "misses", "hit%", "sim events", "events/s", "peak rss"
    );
    roots.sort_by_key(|r| std::cmp::Reverse(r.dur_us.unwrap_or(0)));
    for r in roots {
        println!("{}", experiment_row(r, records));
    }
    println!();
}

/// One experiment span's row of the experiments table. Its peak RSS is
/// the `peak_rss` event journaled for its id, or `-`.
fn experiment_row(r: &Record, records: &[Record]) -> String {
    let id = r.field_str("id").unwrap_or("?");
    let dur = r.dur_us.unwrap_or(0);
    let hits = r.field_u64("cache_hits").unwrap_or(0);
    let misses = r.field_u64("cache_misses").unwrap_or(0);
    let events = r.field_u64("simulated_events").unwrap_or(0);
    let lookups = hits + misses;
    let hit_pct = if lookups > 0 {
        100.0 * hits as f64 / lookups as f64
    } else {
        0.0
    };
    let rate = if dur > 0 {
        events as f64 / (dur as f64 / 1e6)
    } else {
        0.0
    };
    let rss = records
        .iter()
        .filter(|e| e.kind == Kind::Event && e.name == "peak_rss")
        .find(|e| e.field_str("experiment") == Some(id))
        .and_then(|e| e.field_u64("bytes"))
        .map_or("-".to_string(), |b| {
            format!("{:.1}MB", b as f64 / (1 << 20) as f64)
        });
    format!(
        "  {id:<14} {:>9} {hits:>8} {misses:>8} {hit_pct:>5.1} {events:>12} {rate:>11.0} {rss:>9}",
        fmt_us(dur)
    )
}

/// Cells with the given `outcome` (`"hit"` or `"miss"`): one per `miss`
/// event, and each `hit` event's `hits` (a journal that predates the
/// field holds one `hit` event per cell).
fn count_cells(records: &[Record], outcome: &str) -> u64 {
    records
        .iter()
        .filter(|r| r.kind == Kind::Event && r.name == "cell")
        .filter(|r| r.field_str("outcome") == Some(outcome))
        .map(|r| r.field_u64("hits").unwrap_or(1))
        .sum()
}

/// Simulated (`miss`) `cell` events made by the given `fold`: `"trie"`
/// for a path-length family's trie lane, `"keyed"` for a lane folded
/// through the pass's component bank, `"lane"` for a cell's own fold.
fn count_folds(records: &[Record], fold: &str) -> usize {
    records
        .iter()
        .filter(|r| r.kind == Kind::Event && r.name == "cell")
        .filter(|r| r.field_str("outcome") == Some("miss"))
        .filter(|r| r.field_str("fold") == Some(fold))
        .count()
}

/// Ranks the engine's benchmark passes (the `cell` spans) by run time,
/// with the number of cells each folded, its key streams and distinct
/// component tables, its trie families' node probes, the probes that
/// hashed, pruned branches and buffer bytes, and their depths.
fn print_slowest_passes(records: &[Record], top: usize) {
    let mut passes: Vec<&Record> = records
        .iter()
        .filter(|r| r.kind == Kind::Span && r.name == "cell")
        .collect();
    let hits = count_cells(records, "hit");
    if passes.is_empty() {
        println!("cells: none simulated ({hits} served from cache)\n");
        return;
    }
    passes.sort_by_key(|r| std::cmp::Reverse(r.dur_us.unwrap_or(0)));
    println!(
        "top {} slowest benchmark passes \
         (of {} passes folding {} cells, {} cells served from cache):",
        top.min(passes.len()),
        passes.len(),
        count_cells(records, "miss"),
        hits
    );
    println!(
        "  simulated cells by fold: {} trie, {} keyed, {} lane",
        count_folds(records, "trie"),
        count_folds(records, "keyed"),
        count_folds(records, "lane")
    );
    println!(
        "  {:<9} {:>9} {:<10} {:>6} {:>5} {:>10} {:>11} {:>9} {:>9} {:>10}  tries",
        "run",
        "wait",
        "benchmark",
        "cells",
        "keys",
        "components",
        "trie probes",
        "hashed",
        "pruned",
        "bytes"
    );
    for r in passes.iter().take(top) {
        println!("{}", pass_row(r));
    }
    println!();
}

/// One pass's row of the slowest-passes table. A pass that built no key
/// stream notes neither `keys` nor `components`, and one without a trie
/// none of `trie_probes`, `trie_hashed`, `trie_pruned` and `trie_bytes`;
/// each shows `-`.
fn pass_row(r: &Record) -> String {
    let count = |field: &str| {
        r.field_u64(field)
            .map_or_else(|| "-".to_string(), |n| n.to_string())
    };
    format!(
        "  {:<9} {:>9} {:<10} {:>6} {:>5} {:>10} {:>11} {:>9} {:>9} {:>10}  {}",
        fmt_us(r.dur_us.unwrap_or(0)),
        fmt_us(r.field_u64("wait_us").unwrap_or(0)),
        r.field_str("benchmark").unwrap_or("?"),
        r.field_u64("configs").unwrap_or(0),
        count("keys"),
        count("components"),
        count("trie_probes"),
        count("trie_hashed"),
        count("trie_pruned"),
        count("trie_bytes"),
        r.field_str("tries").unwrap_or("-"),
    )
}

fn print_worker_utilization(records: &[Record]) {
    let workers: Vec<&Record> = records
        .iter()
        .filter(|r| r.kind == Kind::Span && r.name == "worker")
        .collect();
    if workers.is_empty() {
        println!("workers: none recorded\n");
        return;
    }
    // Aggregate by thread id: tids are reused across parallel_map calls,
    // so this shows how evenly the whole run's work spread over threads.
    let mut per_tid: BTreeMap<u64, (u64, u64, u64, u64)> = BTreeMap::new();
    for w in &workers {
        let e = per_tid.entry(w.tid).or_default();
        e.0 += 1;
        e.1 += w.field_u64("busy_us").unwrap_or(0);
        e.2 += w.field_u64("idle_us").unwrap_or(0);
        e.3 += w.field_u64("items").unwrap_or(0);
    }
    let (mut busy_total, mut idle_total) = (0u64, 0u64);
    println!("worker utilization ({} worker spans):", workers.len());
    println!(
        "  {:<5} {:>6} {:>10} {:>10} {:>8} {:>6}",
        "tid", "spans", "busy", "idle", "items", "util%"
    );
    for (tid, (spans, busy, idle, items)) in &per_tid {
        busy_total += busy;
        idle_total += idle;
        let util = if busy + idle > 0 {
            100.0 * *busy as f64 / (busy + idle) as f64
        } else {
            0.0
        };
        println!(
            "  {:<5} {:>6} {:>10} {:>10} {:>8} {:>6.1}",
            tid,
            spans,
            fmt_us(*busy),
            fmt_us(*idle),
            items,
            util
        );
    }
    let overall = if busy_total + idle_total > 0 {
        100.0 * busy_total as f64 / (busy_total + idle_total) as f64
    } else {
        0.0
    };
    println!(
        "  overall: busy {}, idle {} -> {overall:.1}% utilization\n",
        fmt_us(busy_total),
        fmt_us(idle_total)
    );
}

/// The fault-containment section: every `degraded` event in the journal —
/// a `parallel_map` item whose worker panicked and was retried inline
/// (site `parallel.worker`), or a cache layer that hit a warn-and-continue
/// I/O failure. Returns the count so `--strict` can gate on it. Silent
/// when the run saw no faults.
fn print_degraded(records: &[Record]) -> usize {
    let degraded: Vec<&Record> = records
        .iter()
        .filter(|r| r.kind == Kind::Event && r.name == "degraded")
        .collect();
    if degraded.is_empty() {
        return 0;
    }
    println!("degraded cells ({}):", degraded.len());
    println!(
        "  {:<20} {:<30} {:<10} {:>9} detail",
        "site", "config", "benchmark", "retry"
    );
    for r in &degraded {
        println!(
            "  {:<20} {:<30} {:<10} {:>9} {}",
            r.field_str("site").unwrap_or("?"),
            r.field_str("config").unwrap_or("-"),
            r.field_str("benchmark").unwrap_or("-"),
            r.field_u64("retry_us").map_or("-".to_string(), fmt_us),
            r.field_str("detail").unwrap_or(""),
        );
    }
    println!();
    degraded.len()
}

/// Sums one numeric key over a probe record's `components` array.
fn probe_total(r: &Record, key: &str) -> u64 {
    r.field("components")
        .and_then(Json::as_arr)
        .map_or(0, |cs| {
            cs.iter()
                .filter_map(|c| c.get(key).and_then(Json::as_u64))
                .sum()
        })
}

/// The `--internals` section: what `IBP_PROBE` sampled. One row per
/// predictor component of every probed run's end-of-run snapshot, then
/// selector usage for hybrids, miss attribution, and the aliasing-heaviest
/// sites across the whole journal. Probe-free journals degrade to a hint.
fn print_internals(records: &[Record], top: usize) {
    let probes: Vec<&Record> = records.iter().filter(|r| r.kind == Kind::Probe).collect();
    if probes.is_empty() {
        println!("internals: no probe records in journal (run with IBP_PROBE=1 or deep)\n");
        return;
    }
    // The last end-point record per (trace, predictor) run — re-runs of
    // the same cell overwrite, mirroring how the engine would re-simulate.
    let mut ends: BTreeMap<(String, String), &Record> = BTreeMap::new();
    for r in &probes {
        if r.field_str("point") == Some("end") {
            let key = (
                r.field_str("trace").unwrap_or("?").to_string(),
                r.name.clone(),
            );
            ends.insert(key, r);
        }
    }
    println!(
        "predictor internals ({} probe records, {} probed runs):",
        probes.len(),
        ends.len()
    );
    println!(
        "  {:<10} {:<34} {:<30} {:>9} {:>9} {:>9} {:>8} {:>8}",
        "trace", "predictor", "component", "occupied", "capacity", "evict", "tagconf", "entropy"
    );
    for ((trace, name), r) in &ends {
        let Some(comps) = r.field("components").and_then(Json::as_arr) else {
            continue;
        };
        for c in comps {
            let capacity = c
                .get("capacity")
                .and_then(Json::as_u64)
                .map_or("unbnd".to_string(), |v| v.to_string());
            let entropy = c
                .get("history")
                .and_then(|h| h.get("entropy_millibits"))
                .and_then(Json::as_u64)
                .map_or("-".to_string(), |mb| format!("{:.2}b", mb as f64 / 1000.0));
            println!(
                "  {:<10} {:<34} {:<30} {:>9} {:>9} {:>9} {:>8} {:>8}",
                trace,
                name,
                c.get("label").and_then(Json::as_str).unwrap_or("?"),
                c.get("occupied").and_then(Json::as_u64).unwrap_or(0),
                capacity,
                c.get("evictions").and_then(Json::as_u64).unwrap_or(0),
                c.get("tag_conflicts").and_then(Json::as_u64).unwrap_or(0),
                entropy,
            );
        }
    }
    println!();

    let hybrids: Vec<(&(String, String), &[Json])> = ends
        .iter()
        .filter_map(|(k, r)| {
            r.field("selectors")
                .and_then(Json::as_arr)
                .filter(|a| !a.is_empty())
                .map(|a| (k, a))
        })
        .collect();
    if hybrids.is_empty() {
        println!("selector usage: no hybrid selector histograms recorded\n");
    } else {
        println!("selector usage (BPST selector-counter value -> sites):");
        for ((trace, name), hist) in hybrids {
            let counts: Vec<u64> = hist.iter().filter_map(Json::as_u64).collect();
            let total: u64 = counts.iter().sum();
            let cells: Vec<String> = counts
                .iter()
                .enumerate()
                .map(|(v, c)| format!("{v}: {c}"))
                .collect();
            println!(
                "  {trace:<10} {name:<34} [{}] ({total} sites)",
                cells.join(", ")
            );
        }
        println!();
    }

    let attributed: Vec<(&(String, String), &Json)> = ends
        .iter()
        .filter_map(|(k, r)| r.field("attribution").map(|a| (k, a)))
        .collect();
    if attributed.is_empty() {
        println!("miss attribution: none recorded\n");
    } else {
        println!("miss attribution (scored events):");
        println!(
            "  {:<10} {:<34} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7}",
            "trace", "predictor", "hits", "wrong", "noentry", "cold", "capacity", "miss%"
        );
        for ((trace, name), a) in attributed {
            let get = |k: &str| a.get(k).and_then(Json::as_u64).unwrap_or(0);
            let (hits, wrong, no_entry) = (get("hits"), get("wrong_target"), get("no_entry"));
            let scored = hits + wrong + no_entry;
            let miss_pct = if scored > 0 {
                100.0 * (wrong + no_entry) as f64 / scored as f64
            } else {
                0.0
            };
            println!(
                "  {:<10} {:<34} {:>9} {:>9} {:>9} {:>9} {:>9} {:>6.1}%",
                trace,
                name,
                hits,
                wrong,
                no_entry,
                get("cold"),
                get("capacity"),
                miss_pct,
            );
        }
        println!();
    }

    // Aliasing-heavy sites, aggregated across all probed runs: the same
    // pc missing under several predictors floats to the top.
    let mut sites: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for r in ends.values() {
        let Some(tops) = r.field("top_sites").and_then(Json::as_arr) else {
            continue;
        };
        for s in tops {
            let Some(pc) = s.get("pc").and_then(Json::as_str) else {
                continue;
            };
            let e = sites.entry(pc.to_string()).or_default();
            e.0 += s.get("wrong_target").and_then(Json::as_u64).unwrap_or(0);
            e.1 += s.get("no_entry").and_then(Json::as_u64).unwrap_or(0);
        }
    }
    if sites.is_empty() {
        println!("aliasing sites: none recorded\n");
    } else {
        let mut ranked: Vec<(String, (u64, u64))> = sites.into_iter().collect();
        ranked.sort_by(|a, b| {
            (b.1 .0 + b.1 .1)
                .cmp(&(a.1 .0 + a.1 .1))
                .then(a.0.cmp(&b.0))
        });
        println!(
            "top {} aliasing-heavy sites (summed over probed runs):",
            top.min(ranked.len())
        );
        println!(
            "  {:<12} {:>12} {:>12} {:>12}",
            "pc", "wrong", "noentry", "total"
        );
        for (pc, (wrong, no_entry)) in ranked.into_iter().take(top) {
            println!(
                "  {pc:<12} {wrong:>12} {no_entry:>12} {:>12}",
                wrong + no_entry
            );
        }
        println!();
    }
}

/// One-line summary of the persistent trace corpus cache, from the last
/// metrics snapshot's `trace_cache.*` counters. Silent when the run never
/// touched the cache.
fn print_trace_cache(records: &[Record]) {
    let Some(snap) = records.iter().rev().find(|r| r.kind == Kind::Metrics) else {
        return;
    };
    let counter = |name: &str| -> u64 {
        match snap.field("counters") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .find(|(n, _)| n == name)
                .and_then(|(_, v)| v.as_u64())
                .unwrap_or(0),
            _ => 0,
        }
    };
    let hits = counter("trace_cache.hits");
    let misses = counter("trace_cache.misses");
    if hits + misses == 0 {
        return;
    }
    println!(
        "trace cache: {:.1}% hit rate ({hits} hits / {misses} misses, \
         {} bytes read, {} bytes written)\n",
        100.0 * hits as f64 / (hits + misses) as f64,
        counter("trace_cache.bytes_read"),
        counter("trace_cache.bytes_written"),
    );
}

fn print_metrics(records: &[Record]) {
    let Some(snap) = records.iter().rev().find(|r| r.kind == Kind::Metrics) else {
        println!("metrics: no snapshot in journal (run did not call flush)\n");
        return;
    };
    println!("metrics snapshot:");
    for section in ["counters", "gauges"] {
        if let Some(Json::Obj(pairs)) = snap.field(section) {
            for (name, value) in pairs {
                println!("  {name} = {value}");
            }
        }
    }
    if let Some(Json::Obj(pairs)) = snap.field("histograms") {
        for (name, h) in pairs {
            let count = h.get("count").and_then(Json::as_u64).unwrap_or(0);
            let sum = h.get("sum").and_then(Json::as_u64).unwrap_or(0);
            let mean = if count > 0 {
                sum as f64 / count as f64
            } else {
                0.0
            };
            println!("  {name}: count={count} mean={mean:.1}");
            if let (Some(bounds), Some(counts)) = (
                h.get("bounds").and_then(Json::as_arr),
                h.get("counts").and_then(Json::as_arr),
            ) {
                let buckets: Vec<String> = counts
                    .iter()
                    .enumerate()
                    .map(|(i, c)| {
                        let label = bounds
                            .get(i)
                            .and_then(Json::as_u64)
                            .map_or("inf".to_string(), |b| b.to_string());
                        format!("<={label}: {c}")
                    })
                    .collect();
                println!("    [{}]", buckets.join(", "));
            }
        }
    }
    println!();
}

/// Converts the journal to Chrome trace-event JSON (the `traceEvents`
/// object form Perfetto and `chrome://tracing` both load).
fn chrome_trace(records: &[Record]) -> Json {
    let mut events = Vec::new();
    events.push(Json::Obj(vec![
        ("name".to_string(), Json::Str("process_name".to_string())),
        ("ph".to_string(), Json::Str("M".to_string())),
        ("pid".to_string(), Json::Num(1.0)),
        ("tid".to_string(), Json::Num(0.0)),
        (
            "args".to_string(),
            Json::Obj(vec![(
                "name".to_string(),
                Json::Str("ibp repro".to_string()),
            )]),
        ),
    ]));
    for r in records {
        // Probe records become counter tracks ("C" phase): one occupancy /
        // eviction / conflict sample per snapshot point, plotted over the
        // run in Perfetto alongside the spans that produced them.
        if r.kind == Kind::Probe {
            events.push(Json::Obj(vec![
                (
                    "name".to_string(),
                    Json::Str(format!(
                        "probe {} @ {}",
                        r.name,
                        r.field_str("trace").unwrap_or("?")
                    )),
                ),
                ("ph".to_string(), Json::Str("C".to_string())),
                ("ts".to_string(), Json::Num(r.ts_us as f64)),
                ("pid".to_string(), Json::Num(1.0)),
                ("tid".to_string(), Json::Num(r.tid as f64)),
                (
                    "args".to_string(),
                    Json::Obj(vec![
                        (
                            "occupied".to_string(),
                            Json::Num(probe_total(r, "occupied") as f64),
                        ),
                        (
                            "evictions".to_string(),
                            Json::Num(probe_total(r, "evictions") as f64),
                        ),
                        (
                            "tag_conflicts".to_string(),
                            Json::Num(probe_total(r, "tag_conflicts") as f64),
                        ),
                    ]),
                ),
            ]));
            continue;
        }
        let (ph, extra): (&str, Vec<(String, Json)>) = match r.kind {
            Kind::Span => (
                "X",
                vec![("dur".to_string(), Json::Num(r.dur_us.unwrap_or(0) as f64))],
            ),
            Kind::Event | Kind::Log => ("i", vec![("s".to_string(), Json::Str("t".to_string()))]),
            Kind::Meta | Kind::Metrics | Kind::Probe => continue,
        };
        let name = if r.kind == Kind::Log {
            r.field_str("msg").unwrap_or("log").to_string()
        } else {
            r.name.clone()
        };
        let mut pairs = vec![
            ("name".to_string(), Json::Str(name)),
            ("ph".to_string(), Json::Str(ph.to_string())),
            ("ts".to_string(), Json::Num(r.ts_us as f64)),
            ("pid".to_string(), Json::Num(1.0)),
            ("tid".to_string(), Json::Num(r.tid as f64)),
        ];
        pairs.extend(extra);
        if !r.fields.is_empty() {
            pairs.push(("args".to_string(), Json::Obj(r.fields.clone())));
        }
        events.push(Json::Obj(pairs));
    }
    Json::Obj(vec![("traceEvents".to_string(), Json::Arr(events))])
}

fn run(opts: &Options) -> Result<(), String> {
    let (records, bad_lines) = read_journal_counting(&opts.journal).map_err(|e| e.to_string())?;
    if records.is_empty() {
        return Err(format!("{}: empty journal", opts.journal.display()));
    }

    let spans = records.iter().filter(|r| r.kind == Kind::Span).count();
    let events = records.iter().filter(|r| r.kind == Kind::Event).count();
    let logs = records.iter().filter(|r| r.kind == Kind::Log).count();
    let wall_us = records
        .iter()
        .map(|r| r.ts_us + r.dur_us.unwrap_or(0))
        .max()
        .unwrap_or(0);
    let meta = records.iter().find(|r| r.kind == Kind::Meta);
    let run_id = meta.and_then(|r| r.field_str("run_id")).unwrap_or("?");
    println!(
        "journal {} — run {run_id}, {} records ({spans} spans, {events} events, {logs} logs), wall {}",
        opts.journal.display(),
        records.len(),
        fmt_us(wall_us)
    );
    println!("{}", run_line(meta));
    println!("{}\n", result_cache_line(&records));

    print_experiments(&records);
    print_trace_cache(&records);
    print_slowest_passes(&records, opts.top);
    print_worker_utilization(&records);
    let degraded = print_degraded(&records);
    if opts.strict && degraded == 0 {
        println!("degraded cells: none\n");
    }
    if opts.internals {
        print_internals(&records, opts.top);
    }
    print_metrics(&records);
    println!("journal.bad_lines = {bad_lines}");

    if let Some(out) = &opts.chrome {
        let trace = chrome_trace(&records);
        std::fs::write(out, format!("{trace}\n"))
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        println!(
            "chrome trace written to {} (open at https://ui.perfetto.dev)",
            out.display()
        );
    }
    if opts.strict && degraded > 0 {
        return Err(format!(
            "--strict: {degraded} degraded event(s) in journal — \
             a fault was contained, not absent"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!(
                "usage: obs_report <journal.jsonl> [--chrome <out.json>] [--top <N>] \
                 [--internals] [--strict]"
            );
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_trace_shapes_spans_and_events() {
        let span = Record::parse(
            r#"{"t":"span","name":"cell","ts":10,"dur":5,"tid":2,"depth":0,"f":{"benchmark":"ixx"}}"#,
        )
        .unwrap();
        let event = Record::parse(r#"{"t":"event","name":"cell","ts":11,"tid":0}"#).unwrap();
        let meta = Record::parse(r#"{"t":"meta","run_id":"x","ts":0}"#).unwrap();
        let doc = chrome_trace(&[span, event, meta]);
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents");
        // Metadata record + span + instant; meta journal line is skipped.
        assert_eq!(events.len(), 3);
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(events[1].get("dur").and_then(Json::as_u64), Some(5));
        assert_eq!(events[2].get("ph").and_then(Json::as_str), Some("i"));
        // Output must itself be parseable JSON.
        let parsed = ibp_obs::json::parse(&doc.to_string()).expect("valid json");
        assert!(parsed.get("traceEvents").is_some());
    }

    #[test]
    fn chrome_trace_makes_probe_counter_tracks() {
        let probe = Record::parse(
            r#"{"t":"probe","name":"hybrid","ts":7,"tid":1,"f":{"trace":"ixx","point":"end","components":[{"label":"a","occupied":5,"evictions":2,"tag_conflicts":1},{"label":"b","occupied":3,"evictions":0,"tag_conflicts":0}],"selectors":[]}}"#,
        )
        .unwrap();
        let doc = chrome_trace(&[probe]);
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents");
        assert_eq!(events.len(), 2);
        let counter = &events[1];
        assert_eq!(counter.get("ph").and_then(Json::as_str), Some("C"));
        let args = counter.get("args").expect("args");
        assert_eq!(args.get("occupied").and_then(Json::as_u64), Some(8));
        assert_eq!(args.get("evictions").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn degraded_events_are_counted() {
        let plain = Record::parse(r#"{"t":"event","name":"cell","ts":1,"tid":0}"#).unwrap();
        assert_eq!(print_degraded(&[plain]), 0);
        let degraded = Record::parse(
            r#"{"t":"event","name":"degraded","ts":5,"tid":0,"f":{"site":"parallel.worker","item":3,"detail":"injected fault: parallel.worker","retry_us":1200}}"#,
        )
        .unwrap();
        let bare = Record::parse(r#"{"t":"event","name":"degraded","ts":6,"tid":0}"#).unwrap();
        assert_eq!(print_degraded(&[degraded, bare]), 2);
    }

    #[test]
    fn cells_are_counted_by_outcome() {
        let cell = |outcome: &str| {
            Record::parse(&format!(
                r#"{{"t":"event","name":"cell","ts":1,"tid":0,"f":{{"outcome":"{outcome}"}}}}"#
            ))
            .unwrap()
        };
        let pass = Record::parse(
            r#"{"t":"span","name":"cell","ts":0,"dur":9,"tid":0,"depth":0,"f":{"outcome":"miss"}}"#,
        )
        .unwrap();
        let job = Record::parse(
            r#"{"t":"event","name":"cell","ts":1,"tid":0,"f":{"outcome":"hit","hits":3}}"#,
        )
        .unwrap();
        let records = [cell("hit"), job, cell("miss"), cell("miss"), pass];
        assert_eq!(
            count_cells(&records, "hit"),
            4,
            "one job's record holds its hits"
        );
        assert_eq!(
            count_cells(&records, "miss"),
            2,
            "the pass span is not a cell"
        );
    }

    #[test]
    fn simulated_cells_are_counted_by_fold() {
        let cell = |outcome: &str, fold: &str| {
            Record::parse(&format!(
                r#"{{"t":"event","name":"cell","ts":1,"tid":0,"f":{{"outcome":"{outcome}","fold":"{fold}"}}}}"#
            ))
            .unwrap()
        };
        let hit =
            Record::parse(r#"{"t":"event","name":"cell","ts":1,"tid":0,"f":{"outcome":"hit"}}"#)
                .unwrap();
        let records = [
            cell("miss", "trie"),
            cell("miss", "trie"),
            cell("miss", "keyed"),
            cell("miss", "keyed"),
            cell("miss", "keyed"),
            cell("miss", "lane"),
            hit,
        ];
        assert_eq!(count_folds(&records, "trie"), 2);
        assert_eq!(count_folds(&records, "keyed"), 3);
        assert_eq!(
            count_folds(&records, "lane"),
            1,
            "a hit is folded by no lane"
        );
    }

    #[test]
    fn a_pass_row_shows_its_keys_components_and_trie_work() {
        let keyed = Record::parse(
            r#"{"t":"span","name":"cell","ts":0,"dur":2500000,"tid":0,"depth":0,"f":{"benchmark":"ixx","configs":15,"wait_us":12,"keys":5,"components":12}}"#,
        )
        .unwrap();
        assert_eq!(
            pass_row(&keyed),
            "  2.50s          12us ixx            15     5         12           -         -         -          -  -"
        );
        let trie = Record::parse(
            r#"{"t":"span","name":"cell","ts":0,"dur":9,"tid":0,"depth":0,"f":{"benchmark":"gcc","configs":19,"tries":"0..=18","trie_probes":28917,"trie_hashed":6034,"trie_pruned":812,"trie_bytes":32000}}"#,
        )
        .unwrap();
        assert_eq!(
            pass_row(&trie),
            "  9us             0us gcc            19     -          -       28917      6034       812      32000  0..=18"
        );
    }

    #[test]
    fn an_experiment_row_shows_the_peak_rss_journaled_for_it() {
        let span = |id: &str| {
            Record::parse(&format!(
                r#"{{"t":"span","name":"experiment","ts":0,"dur":2000000,"tid":0,"depth":0,"f":{{"id":"{id}","cache_hits":1,"cache_misses":3,"simulated_events":4000000}}}}"#
            ))
            .unwrap()
        };
        let peak_rss = |id: &str, bytes: u64| {
            Record::parse(&format!(
                r#"{{"t":"event","name":"peak_rss","ts":1,"tid":0,"f":{{"experiment":"{id}","bytes":{bytes}}}}}"#
            ))
            .unwrap()
        };
        let records = [
            span("fig2"),
            peak_rss("fig2", 20 << 20),
            span("fig9"),
            peak_rss("fig9", 53_162_803),
            span("fig10"),
        ];
        assert_eq!(
            experiment_row(&records[2], &records),
            "  fig9               2.00s        1        3  25.0      4000000     2000000    50.7MB"
        );
        assert!(experiment_row(&records[0], &records).ends_with("    20.0MB"));
        assert!(
            experiment_row(&records[4], &records).ends_with(" 2000000         -"),
            "no peak_rss event names fig10"
        );
    }

    #[test]
    fn run_line_renders_the_meta_header() {
        let meta = Record::parse(
            r#"{"t":"meta","run_id":"x","ts":0,"schema":1,"threads":2,"knobs":{"IBP_EVENTS":2000,"IBP_PROBE":"1"}}"#,
        )
        .unwrap();
        assert_eq!(
            run_line(Some(&meta)),
            r#"run: schema 1, 2 threads, knobs {"IBP_EVENTS":2000,"IBP_PROBE":"1"}"#
        );
        let old = Record::parse(r#"{"t":"meta","run_id":"x","ts":0}"#).unwrap();
        assert_eq!(run_line(Some(&old)), "run: schema ?, ? threads, knobs ?");
        assert_eq!(run_line(None), "run: schema ?, ? threads, knobs ?");
    }

    #[test]
    fn the_result_cache_line_sums_the_load_and_save_spans() {
        let load = Record::parse(
            r#"{"t":"span","name":"cache_load","ts":1,"dur":6100,"tid":0,"depth":0,"f":{"rows":2374,"cells":39951,"bytes":1220282,"dropped":2}}"#,
        )
        .unwrap();
        let save = Record::parse(
            r#"{"t":"span","name":"cache_save","ts":9,"dur":12000,"tid":0,"depth":0,"f":{"rows":2375,"bytes":1220400}}"#,
        )
        .unwrap();
        assert_eq!(
            result_cache_line(std::slice::from_ref(&load)),
            "result cache: loaded 2374 rows (39951 cells, 1220282 bytes, 2 dropped) in 6.1ms; \
             nothing saved"
        );
        assert_eq!(
            result_cache_line(&[load, save]),
            "result cache: loaded 2374 rows (39951 cells, 1220282 bytes, 2 dropped) in 6.1ms; \
             saved 2375 rows (1220400 bytes) in 12.0ms"
        );
        assert_eq!(
            result_cache_line(&[]),
            "result cache: not loaded; nothing saved"
        );
    }

    #[test]
    fn fmt_us_scales() {
        assert_eq!(fmt_us(12), "12us");
        assert_eq!(fmt_us(1_500), "1.5ms");
        assert_eq!(fmt_us(2_500_000), "2.50s");
    }
}
