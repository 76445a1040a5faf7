//! Simulate any predictor over an external trace file.
//!
//! This is the bridge to real trace-generation tools: dump your program's
//! indirect branches in the IBPT text format (see `ibp_trace::io`) from
//! Pin/DynamoRIO/QEMU/gem5/ChampSim, then:
//!
//! ```text
//! simulate_trace trace.ibpt --predictor practical --path 3 --entries 1024 --ways 4
//! simulate_trace trace.ibpt --predictor hybrid --path 5 --path2 1 --entries 4096
//! simulate_trace trace.ibpt --predictor btb2bc --per-site
//! simulate_trace trace.ibpt --predictor tagless --entries 256 --sweep
//! ```
//!
//! With `--classify`, the mispredictions of the predictor scored (any
//! single two-level table or BTB) are broken down into wrong-target /
//! capacity / cold classes. `unconstrained` keys are full precision, so
//! its table is unbounded whatever `--entries` says; any other invalid
//! combination prints its `ConfigError` and exits 2.
//!
//! The trace file is never materialised: every pass streams it through a
//! chunked [`ibp_trace::io::TextSource`], so arbitrarily long traces simulate
//! in constant memory. `--sweep` scores the chosen predictor at path
//! lengths 0 to 12 (a hybrid's first path; `--path2` stays) in one pass;
//! the BTBs have no path length, so a BTB sweep exits 2.
//!
//! Both trace formats are accepted and auto-detected by magic bytes: the
//! IBPT text format and the IBPB binary segment format that
//! `export_trace --binary` and the trace corpus cache produce.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::process::ExitCode;

use ibp_core::{Associativity, PredictorConfig, UpdateRule};
use ibp_sim::analysis::{simulate_classified_source, simulate_per_site};
use ibp_sim::simulate_source_kernels;
use ibp_trace::io::TextSource;
use ibp_trace::{looks_binary, BinarySource, EventSource, TraceStats};

struct Args {
    trace: String,
    predictor: String,
    path: usize,
    path2: usize,
    entries: Option<usize>,
    ways: String,
    per_site: bool,
    classify: bool,
    sweep: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        trace: String::new(),
        predictor: "practical".to_string(),
        path: 3,
        path2: 1,
        entries: Some(1024),
        ways: "4".to_string(),
        per_site: false,
        classify: false,
        sweep: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(a) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match a.as_str() {
            "--predictor" => args.predictor = value("--predictor")?,
            "--path" => {
                args.path = value("--path")?
                    .parse()
                    .map_err(|_| "bad --path".to_string())?;
            }
            "--path2" => {
                args.path2 = value("--path2")?
                    .parse()
                    .map_err(|_| "bad --path2".to_string())?;
            }
            "--entries" => {
                let v = value("--entries")?;
                args.entries = if v == "unbounded" {
                    None
                } else {
                    Some(v.parse().map_err(|_| "bad --entries".to_string())?)
                };
            }
            "--ways" => args.ways = value("--ways")?,
            "--per-site" => args.per_site = true,
            "--classify" => args.classify = true,
            "--sweep" => args.sweep = true,
            "--help" | "-h" => return Err("help".to_string()),
            other if args.trace.is_empty() && !other.starts_with('-') => {
                args.trace = other.to_string();
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.trace.is_empty() {
        return Err("no trace file given".to_string());
    }
    Ok(args)
}

fn usage() {
    eprintln!(
        "usage: simulate_trace <trace.ibpt|trace.ibpb> [options]\n\
         \n\
         options:\n\
           --predictor <btb|btb2bc|unconstrained|practical|tagless|fullassoc|hybrid>\n\
           --path <N>         path length (default 3)\n\
           --path2 <N>        second path length for hybrids (default 1)\n\
           --entries <N|unbounded>  table entries (default 1024; hybrids: per component;
                              unconstrained is always unbounded)\n\
           --ways <N>         set associativity (default 4)\n\
           --per-site         print the ten worst-predicted sites\n\
           --classify         break misses into wrong-target/capacity/cold\n\
           --sweep            score the predictor at paths 0..=12 instead of --path
                              (hybrids: the first path)"
    );
}

/// The configuration of `args.predictor` at path length `path` that the
/// rest of `args` select, unchecked: building it reports an invalid
/// combination as a [`ConfigError`](ibp_core::ConfigError).
fn build(args: &Args, path: usize) -> Result<PredictorConfig, String> {
    let predictor = args.predictor.as_str();
    let assoc = match args.ways.as_str() {
        "tagless" => Associativity::Tagless,
        "full" => Associativity::Full,
        n => Associativity::Ways(n.parse().map_err(|_| "bad --ways".to_string())?),
    };
    let compressed = PredictorConfig::compressed_unbounded(path);
    Ok(match predictor {
        "btb" | "btb2bc" => {
            let rule = if predictor == "btb" {
                UpdateRule::Always
            } else {
                UpdateRule::TwoBitCounter
            };
            match args.entries {
                Some(n) => PredictorConfig::btb_bounded(n),
                None => PredictorConfig::btb_2bc(),
            }
            .with_update_rule(rule)
        }
        "unconstrained" => PredictorConfig::unconstrained(path),
        "practical" => sized(compressed.with_associativity(assoc), args.entries),
        "tagless" => sized(
            compressed.with_associativity(Associativity::Tagless),
            args.entries,
        ),
        "fullassoc" => sized(
            compressed.with_associativity(Associativity::Full),
            args.entries,
        ),
        "hybrid" => sized(
            PredictorConfig::hybrid(path, args.path2, 1, 1).with_associativity(assoc),
            args.entries,
        ),
        other => return Err(format!("unknown predictor {other}")),
    })
}

/// `cfg` with `entries` table entries, or an unbounded table.
fn sized(cfg: PredictorConfig, entries: Option<usize>) -> PredictorConfig {
    match entries {
        Some(n) => cfg.with_entries(n),
        None => cfg.with_unbounded_table(),
    }
}

/// Opens one streaming pass over the trace file (header and metadata
/// prologue already consumed), sniffing the magic bytes to pick the
/// text (IBPT) or binary (IBPB) decoder.
fn open(path: &str) -> Result<Box<dyn EventSource>, String> {
    let mut file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut magic = [0u8; 4];
    let got = file
        .read(&mut magic)
        .map_err(|e| format!("cannot read {path}: {e}"))?;
    file.seek(SeekFrom::Start(0))
        .map_err(|e| format!("cannot rewind {path}: {e}"))?;
    if looks_binary(&magic[..got]) {
        Ok(Box::new(
            BinarySource::new(file).map_err(|e| e.to_string())?,
        ))
    } else {
        Ok(Box::new(TextSource::new(file).map_err(|e| e.to_string())?))
    }
}

/// Reports `e` and exits with `code`: 2 for a bad option value or an
/// invalid configuration, 1 for a trace that cannot be read.
fn error(e: impl std::fmt::Display, code: u8) -> ExitCode {
    eprintln!("error: {e}");
    ExitCode::from(code)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if e != "help" {
                eprintln!("error: {e}\n");
            }
            usage();
            return ExitCode::from(2);
        }
    };
    if args.sweep && matches!(args.predictor.as_str(), "btb" | "btb2bc") {
        return error(format!("{} has no path length to sweep", args.predictor), 2);
    }
    let paths = if args.sweep {
        0..=12
    } else {
        args.path..=args.path
    };
    let configs: Result<Vec<PredictorConfig>, String> =
        paths.map(|path| build(&args, path)).collect();
    let configs = match configs {
        Ok(configs) => configs,
        Err(e) => return error(e, 2),
    };
    let kernels: Result<Vec<_>, _> = configs
        .iter()
        .map(PredictorConfig::try_build_kernel)
        .collect();
    let mut kernels = match kernels {
        Ok(kernels) => kernels,
        Err(e) => return error(e, 2),
    };

    // First pass: name and summary statistics, streamed.
    let (name, stats) = match open(&args.trace).and_then(|mut src| {
        let name = src.name().to_string();
        TraceStats::from_source(&mut *src)
            .map(|stats| (name, stats))
            .map_err(|e| e.to_string())
    }) {
        Ok(v) => v,
        Err(e) => return error(e, 1),
    };
    println!(
        "trace {:?}: {} indirect branches, {} sites",
        name, stats.indirect_branches, stats.distinct_sites
    );
    if !args.sweep {
        println!("predictor: {}", kernels[0].as_predictor().name());
    }

    // Second pass: every kernel at once.
    let runs = match open(&args.trace).and_then(|mut src| {
        simulate_source_kernels(&mut *src, &mut kernels, 0).map_err(|e| e.to_string())
    }) {
        Ok(runs) => runs,
        Err(e) => return error(e, 1),
    };
    if args.sweep {
        println!("\n{:>3} {:>12}", "p", "mispredict");
        for (p, run) in runs.iter().enumerate() {
            println!("{p:>3} {:>11.2}%", run.misprediction_rate() * 100.0);
        }
        return ExitCode::SUCCESS;
    }
    let (cfg, run) = (&configs[0], &runs[0]);
    println!(
        "misprediction: {:.2}% ({} of {})",
        run.misprediction_rate() * 100.0,
        run.mispredicted,
        run.indirect
    );

    if args.classify {
        match cfg.try_build_two_level() {
            Ok(tl) => {
                let b = match open(&args.trace).and_then(|mut src| {
                    simulate_classified_source(&mut *src, &mut [tl]).map_err(|e| e.to_string())
                }) {
                    Ok(breakdowns) => breakdowns[0],
                    Err(e) => return error(e, 1),
                };
                println!(
                    "breakdown: wrong-target {:.2}%, capacity {:.2}%, cold {:.2}%",
                    (b.misprediction_rate() - b.capacity_rate() - b.cold_rate()) * 100.0,
                    b.capacity_rate() * 100.0,
                    b.cold_rate() * 100.0
                );
            }
            Err(_) => eprintln!("note: --classify applies to single-table predictors only"),
        }
    }

    if args.per_site {
        let mut fresh = cfg.build_kernel();
        let sites = match open(&args.trace)
            .and_then(|mut src| simulate_per_site(&mut *src, &mut fresh).map_err(|e| e.to_string()))
        {
            Ok(sites) => sites,
            Err(e) => return error(e, 1),
        };
        println!("\nworst-predicted sites:");
        for s in sites.iter().take(10) {
            println!(
                "  {}  {:>8} execs  {:>8} misses  {:>6.2}%",
                s.pc,
                s.executions,
                s.mispredicted,
                s.rate() * 100.0
            );
        }
    }
    ExitCode::SUCCESS
}
