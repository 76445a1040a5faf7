//! Measures what the probe layer costs: the same experiment set runs
//! twice in-process — probes off, then the requested probe policy — with
//! the memo cache cleared before each pass, and the wall-time ratio is
//! reported and journaled.
//!
//! Usage: `probe_overhead [experiment|all] [1|deep]` (defaults: `all`,
//! `1`). The two passes' result tables must be byte-identical (the run
//! aborts otherwise — probes are observational by contract); the
//! comparison goes to stderr, `results/probe_overhead.csv` and, with
//! `IBP_TRACE`, a `probe_overhead` journal event.
//!
//! The honest caveats: probe records only exist inside a journal, so
//! without `IBP_TRACE` the "on" pass measures just the disabled-gate
//! branch (the tool warns); and wall-clock ratios on a loaded or 1-CPU
//! host carry a few percent of scheduling noise — treat small deltas as
//! bounds, not point estimates.

use std::fs;
use std::time::Instant;

use ibp_obs as obs;
use ibp_sim::engine;
use ibp_sim::probe::{self, ProbePolicy};

fn usage() -> ! {
    eprintln!("usage: probe_overhead [experiment|all] [1|deep]");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let id = args.next().unwrap_or_else(|| "all".to_string());
    let policy = match args.next().as_deref() {
        None | Some("1") => ProbePolicy::On,
        Some("deep") => ProbePolicy::Deep,
        Some(_) => usage(),
    };
    if args.next().is_some() {
        usage();
    }
    let experiments = if id == "all" {
        ibp_sim::experiments::all()
    } else {
        vec![ibp_sim::experiments::by_id(&id)
            .unwrap_or_else(|| panic!("unknown experiment id {id}"))]
    };
    if !obs::enabled() {
        eprintln!(
            "warning: IBP_TRACE is not set — probe records need a journal, so the \
             probed pass only measures the disabled gate"
        );
    }

    eprintln!(
        "== probe overhead: {} experiment(s), policy {policy:?} ==",
        experiments.len()
    );
    let suite = ibp_bench::full_suite();

    let mut passes = Vec::new();
    for (label, pass_policy) in [("off", ProbePolicy::Off), ("on", policy)] {
        probe::override_policy(Some(pass_policy));
        // Both passes must simulate from scratch — cached cells skip the
        // fold entirely and would dilute the measured overhead to zero.
        engine::clear_memo_cache();
        let t0 = Instant::now();
        let mut csv = String::new();
        for experiment in &experiments {
            let (tables, _metrics) = ibp_bench::run_instrumented(experiment, &suite);
            csv.extend(tables.iter().map(ibp_sim::report::Table::to_csv));
        }
        let wall = t0.elapsed();
        eprintln!("probes {label}: {wall:.2?}");
        passes.push((label, wall, csv));
    }
    probe::override_policy(None);

    let (_, base_wall, base_csv) = &passes[0];
    let (_, probed_wall, probed_csv) = &passes[1];
    assert_eq!(
        base_csv, probed_csv,
        "probed results diverge from probe-free results — the probe layer leaked into scoring"
    );
    eprintln!("result tables byte-identical across probe policies");

    let overhead_pct =
        100.0 * (probed_wall.as_secs_f64() / base_wall.as_secs_f64().max(1e-9) - 1.0);
    eprintln!(
        "overhead: {overhead_pct:+.2}% ({:.2?} -> {:.2?})",
        base_wall, probed_wall
    );
    obs::event!(
        "probe_overhead",
        experiments = experiments.len() as u64,
        policy = format!("{policy:?}"),
        off_us = u64::try_from(base_wall.as_micros()).unwrap_or(u64::MAX),
        on_us = u64::try_from(probed_wall.as_micros()).unwrap_or(u64::MAX),
        overhead_pct = overhead_pct
    );

    let dir = obs::results_root();
    let csv = format!(
        "experiments,policy,off_seconds,on_seconds,overhead_pct\n\
         {id},{policy:?},{:.3},{:.3},{overhead_pct:.2}\n",
        base_wall.as_secs_f64(),
        probed_wall.as_secs_f64(),
    );
    if fs::create_dir_all(&dir).is_ok() {
        let path = dir.join("probe_overhead.csv");
        match fs::write(&path, csv) {
            Ok(()) => eprintln!("overhead record written to {}", path.display()),
            Err(e) => obs::warn!("could not write probe_overhead.csv: {e}"),
        }
    }
    obs::flush();
}
