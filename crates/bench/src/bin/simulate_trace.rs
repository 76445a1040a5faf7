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
//! simulate_trace trace.ibpt --sweep            # path-length sweep
//! ```
//!
//! With `--classify`, mispredictions of two-level predictors are broken
//! down into wrong-target / capacity / cold classes.
//!
//! The trace file is never materialised: every pass streams it through a
//! chunked [`ibp_trace::io::TextSource`], so arbitrarily long traces simulate
//! in constant memory (multi-pass modes like `--sweep` re-read the file).
//!
//! Both trace formats are accepted and auto-detected by magic bytes: the
//! IBPT text format and the IBPB binary segment format that
//! `export_trace --binary` and the trace corpus cache produce.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::process::ExitCode;

use ibp_core::{Associativity, PredictorConfig, TwoLevelPredictor};
use ibp_sim::analysis::{simulate_classified_source, simulate_per_site};
use ibp_sim::simulate_source;
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
           --entries <N|unbounded>  table entries (default 1024; hybrids: per component)\n\
           --ways <N>         set associativity (default 4)\n\
           --per-site         print the ten worst-predicted sites\n\
           --classify         break misses into wrong-target/capacity/cold\n\
           --sweep            run a path-length sweep instead of one config"
    );
}

fn build(args: &Args) -> Result<PredictorConfig, String> {
    let assoc = match args.ways.as_str() {
        "tagless" => Associativity::Tagless,
        "full" => Associativity::Full,
        n => Associativity::Ways(n.parse().map_err(|_| "bad --ways".to_string())?),
    };
    let cfg = match args.predictor.as_str() {
        "btb" => PredictorConfig::btb(),
        "btb2bc" => PredictorConfig::btb_2bc(),
        "unconstrained" => PredictorConfig::unconstrained(args.path),
        "practical" => PredictorConfig::compressed_unbounded(args.path).with_associativity(assoc),
        "tagless" => PredictorConfig::compressed_unbounded(args.path)
            .with_associativity(Associativity::Tagless),
        "fullassoc" => {
            PredictorConfig::compressed_unbounded(args.path).with_associativity(Associativity::Full)
        }
        "hybrid" => {
            let mut c =
                PredictorConfig::hybrid(args.path, args.path2, 1, 1).with_associativity(assoc);
            if let Some(n) = args.entries {
                c = c.with_entries(n);
            }
            return Ok(c);
        }
        other => return Err(format!("unknown predictor {other}")),
    };
    Ok(match args.entries {
        Some(n) if args.predictor != "btb" && args.predictor != "btb2bc" => cfg.with_entries(n),
        Some(n) if args.predictor.starts_with("btb") => PredictorConfig::btb_bounded(n)
            .with_update_rule(if args.predictor == "btb" {
                ibp_core::UpdateRule::Always
            } else {
                ibp_core::UpdateRule::TwoBitCounter
            }),
        _ => cfg,
    })
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
    // First pass: name and summary statistics, streamed.
    let (name, stats) = match open(&args.trace).and_then(|mut src| {
        let name = src.name().to_string();
        TraceStats::from_source(&mut *src)
            .map(|stats| (name, stats))
            .map_err(|e| e.to_string())
    }) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "trace {:?}: {} indirect branches, {} sites",
        name, stats.indirect_branches, stats.distinct_sites
    );

    if args.sweep {
        println!("\n{:>3} {:>12}", "p", "mispredict");
        for p in 0..=12usize {
            let sweep_args = Args {
                path: p,
                predictor: "practical".to_string(),
                trace: args.trace.clone(),
                ways: args.ways.clone(),
                ..args
            };
            let cfg = build(&sweep_args).expect("sweep config");
            let mut predictor = cfg.build();
            let run = open(&args.trace)
                .and_then(|mut src| {
                    simulate_source(&mut *src, predictor.as_mut(), 0).map_err(|e| e.to_string())
                })
                .expect("sweep pass");
            println!("{p:>3} {:>11.2}%", run.misprediction_rate() * 100.0);
        }
        return ExitCode::SUCCESS;
    }

    let cfg = match build(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut predictor = cfg.build();
    println!("predictor: {}", predictor.name());
    let run = match open(&args.trace).and_then(|mut src| {
        simulate_source(&mut *src, predictor.as_mut(), 0).map_err(|e| e.to_string())
    }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "misprediction: {:.2}% ({} of {})",
        run.misprediction_rate() * 100.0,
        run.mispredicted,
        run.indirect
    );

    if args.classify {
        match try_two_level(&args) {
            Some(tl) => {
                let b = open(&args.trace)
                    .and_then(|mut src| {
                        simulate_classified_source(&mut *src, &mut [tl]).map_err(|e| e.to_string())
                    })
                    .expect("classify pass")[0];
                println!(
                    "breakdown: wrong-target {:.2}%, capacity {:.2}%, cold {:.2}%",
                    (b.misprediction_rate() - b.capacity_rate() - b.cold_rate()) * 100.0,
                    b.capacity_rate() * 100.0,
                    b.cold_rate() * 100.0
                );
            }
            None => eprintln!("note: --classify applies to two-level predictors only"),
        }
    }

    if args.per_site {
        let mut fresh = cfg.build_kernel();
        let sites = open(&args.trace)
            .and_then(|mut src| simulate_per_site(&mut *src, &mut fresh).map_err(|e| e.to_string()))
            .expect("per-site pass");
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

/// Rebuilds the configured predictor as a concrete `TwoLevelPredictor` for
/// classification, when the CLI selection maps to one.
fn try_two_level(args: &Args) -> Option<TwoLevelPredictor> {
    let spec = ibp_core::CompressedKeySpec::practical(args.path);
    match (args.predictor.as_str(), args.entries) {
        ("practical", Some(n)) => {
            let ways = args.ways.parse().unwrap_or(4);
            Some(TwoLevelPredictor::set_assoc(spec, n, ways))
        }
        ("practical", None) => Some(TwoLevelPredictor::compressed_unbounded(spec)),
        ("tagless", Some(n)) => Some(TwoLevelPredictor::tagless(spec, n)),
        ("fullassoc", Some(n)) => Some(TwoLevelPredictor::full_assoc(spec, n)),
        _ => None,
    }
}
