//! Sweeps every fault-injection site over the engine and asserts
//! containment.
//!
//! Usage: `fault_matrix [--events N] [--watchdog MS]` (defaults: 20000
//! events, 250 ms watchdog). For every registered injection site (see
//! `ibp_sim::faults::SITES`) the harness arms the fault at its first
//! occurrence, runs a small sweep (plus a cache persist and a fresh suite
//! build so the I/O sites are on the path), and checks that:
//!
//! * the process neither aborts nor hangs, and
//! * the result tables are byte-identical to the unfaulted baseline — a
//!   fault may cost wall time (a `degraded` journal event records the
//!   fallback), never correctness.
//!
//! Each site is rated `ok (degraded)` when the fault fired and a degraded
//! event was journaled, `ok (contained)` when it fired and was absorbed by
//! a warn-and-continue path (e.g. the journal disabling itself), `ok (not
//! hit)` when the site is off the engine's path (the `shard.*` and
//! `component.*` sites live in library pipelines the engine never runs),
//! and `DIVERGED` — a failure, nonzero exit — when tables differ.
//!
//! All output lands in a scratch directory (the harness sets
//! `IBP_RESULTS` and the trace-cache root before any cache is touched),
//! so runs never dirty a working tree.

use std::path::PathBuf;
use std::process::ExitCode;

use ibp_core::PredictorConfig;
use ibp_obs as obs;
use ibp_sim::engine::{self, Sweep};
use ibp_sim::{faults, trace_cache, Suite, SuiteResult};
use ibp_workload::Benchmark;

const BENCHMARKS: [Benchmark; 2] = [Benchmark::Ixx, Benchmark::Xlisp];

fn usage() -> ! {
    eprintln!("usage: fault_matrix [--events N] [--watchdog MS]");
    std::process::exit(2);
}

/// One full pass: fresh suite (so trace-cache I/O is on the path), a
/// three-config sweep, and a cache persist (so result-cache I/O is on the
/// path). Returns the canonical table rendering.
fn run_pass(events: u64) -> String {
    let suite = Suite::with_benchmarks_and_len(&BENCHMARKS, events);
    let results = Sweep::new(&suite)
        .config(PredictorConfig::btb_2bc())
        .config(PredictorConfig::unconstrained(3))
        .config(PredictorConfig::hybrid(6, 2, 256, 4))
        .run();
    engine::persist_cache();
    render(&results)
}

fn render(results: &[SuiteResult]) -> String {
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

/// Counts `degraded` events in one pass's journal. A journal the injected
/// fault itself disabled reads as zero — that is the warn-and-continue
/// outcome, not an error.
fn degraded_events(path: &std::path::Path) -> usize {
    match obs::read_journal(path) {
        Ok(records) => records
            .iter()
            .filter(|r| r.kind == obs::Kind::Event && r.name == "degraded")
            .count(),
        Err(_) => 0,
    }
}

fn main() -> ExitCode {
    let mut events: u64 = 20_000;
    let mut watchdog: u64 = 250;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = |name: &str| -> u64 {
            args.next().and_then(|n| n.parse().ok()).unwrap_or_else(|| {
                eprintln!("error: {name} needs a number");
                usage()
            })
        };
        match arg.as_str() {
            "--events" => events = num("--events"),
            "--watchdog" => watchdog = num("--watchdog"),
            _ => usage(),
        }
    }

    // Everything — result cache, trace cache, journals — lands in scratch.
    let scratch = std::env::temp_dir().join(format!("ibp-fault-matrix-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    std::env::set_var("IBP_RESULTS", &scratch);
    trace_cache::override_root(Some(scratch.join("traces")));
    // Force the trace cache on below its normal threshold so its I/O
    // sites are exercised at harness-sized event counts.
    trace_cache::override_policy(Some(true));

    eprintln!(
        "== fault matrix: {} sites ({events} events, watchdog {watchdog} ms) ==",
        faults::sites().len()
    );

    // Unfaulted baseline: the truth every faulted pass must reproduce
    // byte-identically.
    engine::clear_memo_cache();
    let baseline = run_pass(events);

    let mut failures = 0usize;
    let mut grid: Vec<(&str, &str)> = Vec::new();
    for site in faults::sites() {
        // Site prep: make the armed code path reachable again.
        match site.name {
            // A hit segment skips the write/publish path; purge so the
            // pass regenerates (and re-writes) its segments.
            "trace_cache.write" | "trace_cache.rename" => trace_cache::purge(),
            // Verification only runs once per process per segment.
            "trace_cache.read" => trace_cache::forget_verified(),
            _ => {}
        }
        engine::clear_memo_cache();
        let journal: PathBuf = scratch.join(format!("journal-{}.jsonl", site.name));
        let _ = std::fs::remove_file(&journal);
        obs::journal::install(&journal).expect("install journal");

        faults::override_spec(Some(&format!("{}@1;watchdog={watchdog}", site.name)))
            .expect("registered site");
        let table = run_pass(events);
        let fired = faults::fired(site.name);
        faults::override_spec(None).expect("disarm");
        obs::journal::uninstall();

        let verdict = if table != baseline {
            failures += 1;
            "DIVERGED"
        } else if fired == 0 {
            "ok (not hit)"
        } else if degraded_events(&journal) > 0 {
            "ok (degraded)"
        } else {
            "ok (contained)"
        };
        grid.push((site.name, verdict));
    }
    trace_cache::override_policy(None);
    trace_cache::override_root(None);

    println!("{:<20} verdict", "site");
    for (site, verdict) in &grid {
        println!("{site:<20} {verdict}");
    }
    let _ = std::fs::remove_dir_all(&scratch);

    if failures > 0 {
        eprintln!("error: {failures} site(s) diverged from the unfaulted baseline");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "all {} sites contained: tables byte-identical to baseline",
        grid.len()
    );
    ExitCode::SUCCESS
}
