//! The simulator side of `perfbench/run.py`. Each invocation is one fresh
//! simulator process that does one thing and writes one JSON record to
//! `--record`:
//!
//! * `setup` builds the suite (trace-corpus generation or open) and stops;
//! * `timed` builds the suite, then runs the listed experiments plus
//!   `persist_cache` under one wall clock, and writes every table as CSV
//!   under `$IBP_RESULTS` for the reference check;
//! * `layers` times calls into each simulator layer's public functions.
//!
//! `run.py` owns the workloads, run isolation, the reference check and the
//! statistics; this program only measures.
//!
//! Usage: `perfbench <setup|timed|layers> --record PATH --events N
//! [--benchmarks a,b,..] [--experiments a,b,..] [--corpus DIR]
//! [--journal PATH] [--seed N]`

use std::fs;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ibp_core::ext::IttageLite;
use ibp_core::{FoldKernel, PredictorConfig, MAX_PATH};
use ibp_obs::json::Json;
use ibp_sim::experiments::{self, Experiment};
use ibp_sim::{component, engine, shard, trace_cache, RunStats, Suite};
use ibp_trace::binary::{write_binary_source, BinarySource};
use ibp_trace::{chunk_events, collect_source, EventSource, Trace, TraceChunk};
use ibp_workload::{Benchmark, ProgramConfig};

/// Presets whose reseeded traces feed the codec and fold measurements: one
/// object-oriented program and the C program with the most sites.
const LAYER_PRESETS: [Benchmark; 2] = [Benchmark::Ixx, Benchmark::Gcc];

/// Each rate measurement repeats its call until this much time has passed.
const MIN_MEASURE_S: f64 = 0.3;

/// Trace length of the suite the cache-bypassing experiments run on when
/// the workload's own suite streams.
const UNCACHED_EVENTS: u64 = 60_000;

struct Args {
    mode: String,
    record: PathBuf,
    events: u64,
    benchmarks: Vec<Benchmark>,
    experiments: Vec<Experiment>,
    corpus: Option<PathBuf>,
    journal: Option<PathBuf>,
    seed: u64,
}

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench <setup|timed|layers> --record PATH --events N \
         [--benchmarks a,b] [--experiments a,b] [--corpus DIR] [--journal PATH] [--seed N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut raw = std::env::args().skip(1);
    let mode = raw.next().unwrap_or_else(|| usage("missing mode"));
    if !["setup", "timed", "layers"].contains(&mode.as_str()) {
        usage(&format!("unknown mode {mode:?}"));
    }
    let mut args = Args {
        mode,
        record: PathBuf::new(),
        events: 0,
        benchmarks: Benchmark::ALL.to_vec(),
        experiments: Vec::new(),
        corpus: None,
        journal: None,
        seed: 0,
    };
    while let Some(flag) = raw.next() {
        let value = raw
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let number = || -> u64 {
            value
                .parse()
                .unwrap_or_else(|_| usage(&format!("{flag} wants a number, got {value:?}")))
        };
        match flag.as_str() {
            "--record" => args.record = PathBuf::from(&value),
            "--events" => args.events = number(),
            "--seed" => args.seed = number(),
            "--corpus" => args.corpus = Some(PathBuf::from(&value)),
            "--journal" => args.journal = Some(PathBuf::from(&value)),
            "--benchmarks" => {
                args.benchmarks = value
                    .split(',')
                    .map(|name| {
                        Benchmark::from_name(name)
                            .unwrap_or_else(|| usage(&format!("unknown benchmark {name:?}")))
                    })
                    .collect();
            }
            "--experiments" => {
                args.experiments = value
                    .split(',')
                    .map(|id| {
                        experiments::by_id(id)
                            .unwrap_or_else(|| usage(&format!("unknown experiment {id:?}")))
                    })
                    .collect();
            }
            _ => usage(&format!("unknown flag {flag:?}")),
        }
    }
    if args.record.as_os_str().is_empty() || args.events == 0 {
        usage("--record and a nonzero --events are required");
    }
    args
}

fn main() {
    let args = parse_args();
    if let Some(root) = &args.corpus {
        trace_cache::override_root(Some(root.clone()));
    }
    let record = match args.mode.as_str() {
        "setup" => setup(&args),
        "timed" => timed(&args),
        _ => layers(&args),
    };
    if let Err(e) = fs::write(&args.record, record.to_string()) {
        eprintln!("perfbench: cannot write {}: {e}", args.record.display());
        std::process::exit(1);
    }
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn count(n: u64) -> Json {
    Json::Num(n as f64)
}

/// Builds the suite and readies every trace for replay: a materialised
/// suite generates or decodes its traces here, and a streamed one opens and
/// verifies each corpus segment, so the experiments afterwards only replay.
fn build_suite(benchmarks: &[Benchmark], events: u64) -> Suite {
    let suite = Suite::with_benchmarks_and_len(benchmarks, events);
    if suite.streamed() {
        for &b in benchmarks {
            drop(trace_cache::source_for(b, events));
        }
    }
    suite
}

fn setup(args: &Args) -> Json {
    let t = Instant::now();
    let _suite = build_suite(&args.benchmarks, args.events);
    obj([("setup_s", Json::Num(secs_since(t)))])
}

fn engine_json(d: &engine::EngineStats) -> Json {
    obj([
        ("hits", count(d.hits)),
        ("misses", count(d.misses)),
        ("persistent_hits", count(d.persistent_hits)),
        ("simulated_events", count(d.simulated_events)),
        ("sharded_cells", count(d.sharded_cells)),
        ("component_cells", count(d.component_cells)),
        ("degraded_cells", count(d.degraded_cells)),
    ])
}

/// Seconds covered by the journal's spans called `name`.
fn journal_span_secs(path: &Path, name: &str) -> f64 {
    let records = ibp_obs::read_journal(path)
        .unwrap_or_else(|e| panic!("cannot read journal {}: {e}", path.display()));
    let micros: u64 = records
        .iter()
        .filter(|r| r.kind == ibp_obs::Kind::Span && r.name == name)
        .filter_map(|r| r.dur_us)
        .sum();
    micros as f64 / 1e6
}

/// Path lengths `experiments::analysis::census` counts patterns at (`0..=12`).
const CENSUS_PATHS: u64 = 13;

/// Indirect-branch events that experiment `id` replays outside the sweep
/// engine, which `engine.simulated_events` does not count: one pass per
/// benchmark for each attribution point and census path length
/// (`analysis`), per probed trace length (`sensitivity`) and for the trace
/// statistics (`table1_2`). Every other experiment folds through the engine.
fn bypass_events(id: &str, suite: &Suite) -> u64 {
    use ibp_sim::experiments::{analysis, sensitivity};
    let n = suite.events();
    let benchmarks = suite.benchmarks();
    match id {
        "analysis" => {
            let census = analysis::CENSUS_BENCHMARKS
                .iter()
                .filter(|b| benchmarks.contains(b))
                .count() as u64;
            n * (analysis::ATTRIBUTION_POINTS.len() as u64 * benchmarks.len() as u64
                + CENSUS_PATHS * census)
        }
        "sensitivity" => {
            sensitivity::LENGTHS.iter().sum::<u64>() * sensitivity::BENCHMARKS.len() as u64
        }
        "table1_2" => n * benchmarks.len() as u64,
        _ => 0,
    }
}

fn timed(args: &Args) -> Json {
    if let Some(path) = &args.journal {
        ibp_obs::journal::install(path)
            .unwrap_or_else(|e| panic!("cannot open journal {}: {e}", path.display()));
    }
    let t = Instant::now();
    let suite = build_suite(&args.benchmarks, args.events);
    let setup_s = secs_since(t);

    let before = engine::stats();
    let t = Instant::now();
    let mut per_experiment = Vec::new();
    let mut emitted = Vec::new();
    for e in &args.experiments {
        let (tables, m) = ibp_bench::run_instrumented(e, &suite);
        per_experiment.push(obj([
            ("id", Json::Str(m.id.to_string())),
            ("wall_s", Json::Num(m.wall.as_secs_f64())),
            ("events_per_s", Json::Num(m.events_per_sec())),
            ("engine", engine_json(&m.engine)),
        ]));
        emitted.push((e.id, tables));
    }
    engine::persist_cache();
    let wall_s = secs_since(t);
    let delta = engine::stats().since(before);
    let bypass_events: u64 = args
        .experiments
        .iter()
        .map(|e| bypass_events(e.id, &suite))
        .sum();

    for (id, tables) in &emitted {
        ibp_bench::emit(id, tables);
    }
    ibp_obs::flush();
    let sweep_s = args
        .journal
        .as_deref()
        .map_or(Json::Null, |p| Json::Num(journal_span_secs(p, "sweep")));
    let tc = trace_cache::stats();
    obj([
        ("setup_s", Json::Num(setup_s)),
        ("wall_s", Json::Num(wall_s)),
        ("events", count(suite.events())),
        (
            "threads",
            count(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
        ),
        ("engine", engine_json(&delta)),
        ("bypass_events", count(bypass_events)),
        (
            "trace_cache",
            obj([
                ("hits", count(tc.hits)),
                ("misses", count(tc.misses)),
                ("bytes_read", count(tc.bytes_read)),
                ("bytes_written", count(tc.bytes_written)),
            ]),
        ),
        ("sweep_s", sweep_s),
        ("experiments", Json::Arr(per_experiment)),
    ])
}

/// Timings of the calls `layers` makes into the simulator, kept in memory
/// and written out with the record: one span per call.
struct Recorder {
    epoch: Instant,
    spans: Vec<Json>,
    metrics: Vec<(String, Json)>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Runs `f` once as a span of `layer` and returns its result and
    /// duration in seconds.
    fn time<R>(&mut self, layer: &str, call: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        let dur = secs_since(start);
        let start_us = start.duration_since(self.epoch).as_micros() as f64;
        self.spans.push(obj([
            ("layer", Json::Str(layer.to_string())),
            ("call", Json::Str(call.to_string())),
            ("start_us", Json::Num(start_us)),
            ("dur_us", Json::Num((dur * 1e6).round())),
        ]));
        (out, dur)
    }

    /// Repeats `f` (which returns the events it processed) until
    /// [`MIN_MEASURE_S`] have passed, and returns events per second.
    fn rate(&mut self, layer: &str, call: &str, mut f: impl FnMut() -> u64) -> f64 {
        let (mut events, mut busy) = (0u64, 0.0f64);
        while busy < MIN_MEASURE_S {
            let (n, dur) = self.time(layer, call, &mut f);
            events += n;
            busy += dur;
        }
        events as f64 / busy
    }

    fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), Json::Num(value)));
    }
}

/// A calibrated preset with its generator seed moved by `seed`; seed 0
/// leaves the preset as calibrated.
fn reseeded(b: Benchmark, seed: u64) -> ProgramConfig {
    let mut cfg = b.config();
    cfg.seed ^= seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    cfg
}

/// Drains a source and returns the indirect branches it produced.
fn drain(source: &mut dyn EventSource) -> u64 {
    let mut chunk = TraceChunk::default();
    let mut indirect = 0;
    loop {
        let more = source
            .fill(&mut chunk, chunk_events())
            .expect("in-memory sources cannot fail");
        indirect += chunk.indirect_count();
        if !more {
            return indirect;
        }
    }
}

fn fold(trace: &Trace, kernel: &mut FoldKernel) -> RunStats {
    ibp_sim::simulate_kernel(&mut trace.cursor(), kernel, 0).expect("in-memory sources cannot fail")
}

type MakeKernel = Box<dyn Fn() -> FoldKernel>;

/// One representative configuration per fold-kernel family.
fn fold_families() -> Vec<(&'static str, MakeKernel)> {
    let config = |cfg: PredictorConfig| -> MakeKernel { Box::new(move || cfg.build_kernel()) };
    vec![
        ("set_assoc", config(PredictorConfig::practical(3, 1024, 4))),
        ("full_assoc", config(PredictorConfig::full_assoc(3, 1024))),
        ("tagless", config(PredictorConfig::tagless(3, 1024))),
        ("hybrid", config(PredictorConfig::hybrid(3, 1, 2048, 4))),
        ("bpst", config(PredictorConfig::bpst(3, 1, 2048, 4))),
        (
            "dyn",
            Box::new(|| FoldKernel::from_boxed(Box::new(IttageLite::new(512, 4, 2)))),
        ),
        ("btb", config(PredictorConfig::btb_2bc())),
        ("unbounded", config(PredictorConfig::unconstrained(6))),
    ]
}

/// Wall time of the sequential fold over the wall time of `parallel`,
/// which must reproduce the sequential result exactly.
fn speedup(
    rec: &mut Recorder,
    layer: &str,
    trace: &Trace,
    cfg: &PredictorConfig,
    parallel: impl FnOnce() -> RunStats,
) -> f64 {
    let (sequential, seq_s) = rec.time(layer, "simulate_kernel", || {
        fold(trace, &mut cfg.build_kernel())
    });
    let (split, par_s) = rec.time(layer, "parallel_fold", parallel);
    assert_eq!(
        sequential, split,
        "{layer} fold diverges from the sequential fold"
    );
    seq_s / par_s
}

fn layers(args: &Args) -> Json {
    let mut rec = Recorder::new();
    let events = args.events;

    // Trace cache: the first, verifying (or generating) open of a segment.
    let first = args.benchmarks[0];
    let (_, open_s) = rec.time("trace_cache", "source_for", || {
        trace_cache::source_for(first, events)
    });
    rec.metric("trace_cache.open_s", open_s);

    // Workload generator and trace codec, on reseeded presets.
    let configs: Vec<ProgramConfig> = LAYER_PRESETS
        .iter()
        .map(|&b| reseeded(b, args.seed))
        .collect();
    let gen = rec.rate("workload", "ProgramModel::source", || {
        configs
            .iter()
            .map(|c| drain(&mut c.build().source(events)))
            .sum()
    });
    rec.metric("workload.gen_events_per_s", gen);
    let traces: Vec<Trace> = configs
        .iter()
        .map(|c| collect_source(&mut c.build().source(events)).expect("generators cannot fail"))
        .collect();
    let mut segments = Vec::new();
    let encode = rec.rate("trace", "write_binary_source", || {
        segments.clear();
        traces
            .iter()
            .map(|t| {
                let mut out = Cursor::new(Vec::new());
                write_binary_source(&mut t.cursor(), &mut out)
                    .expect("in-memory writes cannot fail");
                segments.push(out.into_inner());
                t.indirect_count()
            })
            .sum()
    });
    rec.metric("trace.encode_events_per_s", encode);
    let decode = rec.rate("trace", "BinarySource::fill", || {
        segments
            .iter()
            .map(|bytes| {
                drain(
                    &mut BinarySource::new(Cursor::new(bytes.as_slice()))
                        .expect("segment just written"),
                )
            })
            .sum()
    });
    rec.metric("trace.decode_events_per_s", decode);

    // Fold kernels, one family at a time, single thread.
    for (family, make) in fold_families() {
        let rate = rec.rate("fold", family, || {
            traces.iter().map(|t| fold(t, &mut make()).indirect).sum()
        });
        rec.metric(&format!("fold.{family}.events_per_s"), rate);
    }
    let lanes = rec.rate("fold", "simulate_source_kernels", || {
        let mut kernels: Vec<FoldKernel> = (0..=MAX_PATH)
            .map(|p| PredictorConfig::unconstrained(p).build_kernel())
            .collect();
        let stats = ibp_sim::simulate_source_kernels(&mut traces[0].cursor(), &mut kernels, 0)
            .expect("in-memory sources cannot fail");
        stats.iter().map(|s| s.indirect).sum()
    });
    rec.metric("fold.multi_lane_events_per_s", lanes);

    // The two intra-cell parallel pipelines at two workers.
    let unbounded = PredictorConfig::unconstrained(0);
    let routing = unbounded.shardable().expect("p = 0 unbounded cells shard");
    let trace = &traces[1];
    let make = || unbounded.build_kernel();
    let shard_x = speedup(&mut rec, "shard", trace, &unbounded, || {
        shard::simulate_source_sharded(&mut trace.cursor(), &make, routing, 2, 0)
            .expect("sharded fold failed")
    });
    rec.metric("shard.speedup_2w", shard_x);
    let hybrid = PredictorConfig::hybrid(3, 1, 2048, 4);
    let parts = hybrid.decompose().expect("hybrids decompose");
    let component_x = speedup(&mut rec, "component", trace, &hybrid, || {
        component::simulate_source_components(&mut trace.cursor(), &parts, 2, 0)
            .expect("component fold failed")
    });
    rec.metric("component.speedup_2w", component_x);

    // Result cache: the first sweep loads engine.tsv from `$IBP_RESULTS`;
    // the workload's own run left `btb_2bc` there, so the sweep is all hits.
    let suite = build_suite(&args.benchmarks, events);
    let before = engine::stats();
    let (_, load_s) = rec.time("cache", "Sweep::run", || {
        engine::run_configs(&suite, vec![PredictorConfig::btb_2bc()])
    });
    let delta = engine::stats().since(before);
    assert_eq!(
        delta.misses, 0,
        "the results root holds no warm result cache"
    );
    rec.metric("cache.load_s", load_s);
    let (_, save_s) = rec.time("cache", "persist_cache", engine::persist_cache);
    rec.metric("cache.save_s", save_s);

    // The experiments that bypass both caches.
    let small = if suite.streamed() {
        build_suite(&args.benchmarks, UNCACHED_EVENTS)
    } else {
        suite
    };
    let mut uncached_s = 0.0;
    for id in ["analysis", "sensitivity", "table1_2"] {
        let e = experiments::by_id(id).expect("registered experiment");
        uncached_s += rec.time("experiments", id, || e.run_traced(&small)).1;
    }
    rec.metric("experiments.uncached_s", uncached_s);

    obj([
        ("metrics", Json::Obj(rec.metrics)),
        ("spans", Json::Arr(rec.spans)),
    ])
}
