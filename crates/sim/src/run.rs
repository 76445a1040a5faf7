//! Scoring a predictor over a trace or streaming event source.
//!
//! Every fold in this module runs through the chunk-fold kernel layer
//! ([`ibp_core::FoldKernel`]): one dispatch per chunk, then a batched
//! pass over full keys or one [`Predictor::step`] per event, the same
//! skeleton borrowed `dyn Predictor`s fold through. Beside the predictor
//! lanes, the sweep engine's grouped pass can carry [`PathTrie`] lanes,
//! each folding a whole path-length family of unbounded predictors one
//! depth at a time over the pass's buffered branches, and
//! [`MeasureLane`]s: folds that measure the trace, or a predictor's misses
//! by cause, rather than score a prediction. Every compressed-key kernel
//! folds through one component bank ([`KeyStreams`]): one key stream per
//! distinct key recipe and one table per distinct component, each folded
//! once for all the lanes that read it, and a lane that shares a table
//! replays its arbitration over its components' recorded lookups.
//!
//! A probed pass folds the same way. Each predictor lane reports its
//! events into its own [`ProbeRun`], and the driver cuts the chunks right
//! after the events at which every lane samples its structure (the one
//! that ends the warmup and, under `deep`, every 8,192nd scored one),
//! brings the bank's kernels up to date there and samples every lane.

use ibp_core::{
    fold_dyn_chunk, ChunkScorer, FoldKernel, KeyStreams, KeyedLane, PathTrie, Predictor,
};
use ibp_trace::io::TraceIoError;
use ibp_trace::{chunk_events, EventSource, Trace, TraceChunk, TraceEvent};

use crate::analysis::{AheadHits, MissBreakdown, TraceCounts};
use crate::probe::{self, ProbeRun};

/// One simulation lane: an owned kernel (its own chunk fold), a kernel
/// attached to the pass's component bank, or a borrowed predictor (one
/// virtual `step` per event through the same skeleton).
enum Lane<'a> {
    Kernel(&'a mut FoldKernel),
    Keyed(KeyedLane),
    Dyn(&'a mut (dyn Predictor + 'static)),
}

impl Lane<'_> {
    /// Folds a chunk on the lane's own fold; a keyed lane folds through the
    /// bank instead.
    fn fold_chunk(&mut self, events: &[TraceEvent], scorer: &mut ChunkScorer<'_>) {
        match self {
            Lane::Kernel(k) => k.fold_chunk(events, scorer),
            Lane::Dyn(p) => fold_dyn_chunk(*p, events, scorer),
            Lane::Keyed(_) => {}
        }
    }

    fn predictor<'s>(&'s self, bank: &'s KeyStreams<'_>) -> &'s dyn Predictor {
        match self {
            Lane::Kernel(k) => k.as_predictor(),
            Lane::Dyn(p) => *p,
            Lane::Keyed(keyed) => bank.predictor(*keyed),
        }
    }
}

/// What one pass folded ([`simulate_source_cells`]).
pub(crate) struct PassFold {
    /// One per predictor lane, in input order.
    pub(crate) stats: Vec<RunStats>,
    /// One per measure lane, in input order.
    pub(crate) measured: Vec<Measurement>,
    /// Per predictor lane, whether it folded through the pass's component
    /// bank.
    pub(crate) keyed: Vec<bool>,
    /// The distinct key recipes the pass built streams for.
    pub(crate) keys: usize,
    /// The distinct component tables the pass folded.
    pub(crate) components: usize,
}

/// The outcome of simulating one predictor over one trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Indirect branches scored.
    pub indirect: u64,
    /// Of those, how many were mispredicted (a table miss counts as a
    /// misprediction, as in the paper).
    pub mispredicted: u64,
}

impl RunStats {
    /// What a fold scored.
    fn scored(scorer: &ChunkScorer<'_>) -> Self {
        RunStats {
            indirect: scorer.indirect(),
            mispredicted: scorer.mispredicted(),
        }
    }

    /// Mispredictions per indirect branch, in `[0, 1]`. Zero-length runs
    /// report 0.
    #[must_use]
    pub fn misprediction_rate(&self) -> f64 {
        if self.indirect == 0 {
            0.0
        } else {
            self.mispredicted as f64 / self.indirect as f64
        }
    }

    /// The complement: correct predictions per indirect branch.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        1.0 - self.misprediction_rate()
    }

    /// Merges two runs (e.g. per-benchmark partial runs of one program).
    #[must_use]
    pub fn merged(self, other: RunStats) -> RunStats {
        RunStats {
            indirect: self.indirect + other.indirect,
            mispredicted: self.mispredicted + other.mispredicted,
        }
    }
}

/// The value of one sweep cell: what one lane measured over one trace.
/// Each kind has a fixed number of counts, so the persistent result cache
/// stores every kind in the same row layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measurement {
    /// A predictor's score: every `config` and `custom` cell.
    Run(RunStats),
    /// A two-level predictor's misses by cause (§5.1 attribution).
    Misses(MissBreakdown),
    /// The distinct patterns an unbounded table stored (§5.1 census).
    Patterns(u64),
    /// Ahead-prediction hits by lookahead depth (§8.1).
    Ahead(AheadHits),
    /// The trace's own characteristics (Tables 1–2).
    Trace(TraceCounts),
}

impl Measurement {
    /// The kind's name: the `<kind>|` prefix of a measurement's memo key,
    /// and the kind column of its persistent-cache row. `Run` cells are
    /// keyed by their predictor alone.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Measurement::Run(_) => "run",
            Measurement::Misses(_) => "misses",
            Measurement::Patterns(_) => "patterns",
            Measurement::Ahead(_) => "ahead",
            Measurement::Trace(_) => "trace",
        }
    }
}

/// A measurement folded as a lane of a benchmark's pass, beside the
/// predictor lanes: it sees every chunk of the trace in order, then
/// reports one [`Measurement`]. A lane shares no state with the other
/// lanes of its pass, so its result is what a dedicated pass would give.
pub trait MeasureLane: Send {
    /// Folds the next chunk of the pass.
    fn fold_chunk(&mut self, chunk: &TraceChunk);

    /// The measurement over every chunk folded.
    fn finish(self: Box<Self>) -> Measurement;
}

/// Simulates a predictor over a full trace.
///
/// For every indirect branch: predict, score against the actual target
/// (`None` scores as a miss), then update. Conditional-branch events are
/// forwarded to [`Predictor::observe_cond`], which all §3.3-variation
/// predictors use and everything else ignores.
pub fn simulate(trace: &Trace, predictor: &mut (dyn Predictor + 'static)) -> RunStats {
    simulate_warm(trace, predictor, 0)
}

/// Like [`simulate`], but the first `warmup` indirect branches train the
/// predictor without being scored.
///
/// The paper skips initialisation phases for two benchmarks (jhm, self) at
/// the *trace* level; a warmup separates cold-start misses from
/// steady-state behaviour. No experiment uses one: every figure scores
/// its traces from the first branch, as the paper does.
///
/// With tracing on (`IBP_TRACE`), each run emits a `simulate` span carrying
/// the warmup/scored split and the achieved events/sec.
pub fn simulate_warm(
    trace: &Trace,
    predictor: &mut (dyn Predictor + 'static),
    warmup: u64,
) -> RunStats {
    simulate_source(&mut trace.cursor(), predictor, warmup).expect("in-memory source cannot fail")
}

/// Folds a predictor over a streaming [`EventSource`]: identical scoring to
/// [`simulate_warm`], but memory stays bounded by the chunk size.
///
/// # Errors
///
/// Propagates the source's I/O or parse failures (in-memory sources are
/// infallible).
pub fn simulate_source<S: EventSource + ?Sized>(
    source: &mut S,
    predictor: &mut (dyn Predictor + 'static),
    warmup: u64,
) -> Result<RunStats, TraceIoError> {
    let mut stats = simulate_source_multi(source, &mut [predictor], warmup)?;
    Ok(stats.pop().expect("one result per predictor"))
}

/// Folds several independent predictors over **one** pass of an
/// [`EventSource`], returning one [`RunStats`] per predictor (in input
/// order).
///
/// Each event is replayed into every predictor before the next event is
/// read, so per-predictor results are exactly what a dedicated pass would
/// produce — this is how sweep cells share a single trace pass instead of
/// each replaying the trace.
///
/// With tracing on (`IBP_TRACE`), the run emits a `simulate` span carrying
/// the warmup/scored split, chunk count and the achieved events/sec, plus
/// one `chunk` event per chunk with its own throughput.
///
/// # Errors
///
/// Propagates the source's I/O or parse failures.
pub fn simulate_source_multi<S: EventSource + ?Sized>(
    source: &mut S,
    predictors: &mut [&mut (dyn Predictor + 'static)],
    warmup: u64,
) -> Result<Vec<RunStats>, TraceIoError> {
    let lanes: Vec<Lane<'_>> = predictors.iter_mut().map(|p| Lane::Dyn(&mut **p)).collect();
    Ok(fold_source_lanes(source, lanes, &mut [], &mut [], warmup, false)?.stats)
}

/// Folds one chunk-fold kernel over a streaming source — the fast,
/// single-dispatch-per-chunk counterpart of [`simulate_source`].
///
/// # Errors
///
/// Propagates the source's I/O or parse failures.
pub fn simulate_kernel<S: EventSource + ?Sized>(
    source: &mut S,
    kernel: &mut FoldKernel,
    warmup: u64,
) -> Result<RunStats, TraceIoError> {
    let mut stats = simulate_source_kernels(source, std::slice::from_mut(kernel), warmup)?;
    Ok(stats.pop().expect("one result per kernel"))
}

/// Folds one kernel over a streaming source, chunk by chunk, and never
/// probes, whatever the probe policy says: the library pipelines'
/// one-worker fallback, which keeps their promise that nothing they fold
/// feeds the probe layer.
///
/// # Errors
///
/// Propagates the source's I/O or parse failures.
pub(crate) fn fold_kernel_unprobed<S: EventSource + ?Sized>(
    source: &mut S,
    kernel: &mut FoldKernel,
    warmup: u64,
) -> Result<RunStats, TraceIoError> {
    let mut scorer = ChunkScorer::new(warmup);
    let mut chunk = TraceChunk::default();
    loop {
        let more = source.fill(&mut chunk, chunk_events())?;
        kernel.fold_chunk(chunk.events(), &mut scorer);
        if !more {
            return Ok(RunStats::scored(&scorer));
        }
    }
}

/// Folds several kernels over **one** pass of a streaming source — the
/// kernel counterpart of [`simulate_source_multi`]. Within each chunk the
/// lanes fold one after another, which yields per-lane results identical
/// to the legacy event-interleaved order: lanes share no state, and each
/// lane sees the same events in the same order either way. The
/// compressed-key kernels fold through one component bank
/// ([`KeyStreams`]) and end the pass holding the tables and histories
/// their own folds would have left.
///
/// # Errors
///
/// Propagates the source's I/O or parse failures.
pub fn simulate_source_kernels<S: EventSource + ?Sized>(
    source: &mut S,
    kernels: &mut [FoldKernel],
    warmup: u64,
) -> Result<Vec<RunStats>, TraceIoError> {
    let lanes: Vec<Lane<'_>> = kernels.iter_mut().map(Lane::Kernel).collect();
    Ok(fold_source_lanes(source, lanes, &mut [], &mut [], warmup, true)?.stats)
}

/// The sweep engine's grouped pass: folds `kernels`, `tries` and
/// `measures` over **one** pass of a streaming source, scoring every
/// event. Returns one [`RunStats`] per kernel and one [`Measurement`] per
/// measure lane, each in input order, and which kernels folded through the
/// component bank; each trie's members are read off the trie afterwards
/// ([`trie_stats`]). The kernels end the pass unrestored: the engine drops
/// them, so their components' final tables are not copied back.
///
/// # Errors
///
/// Propagates the source's I/O or parse failures.
pub(crate) fn simulate_source_cells<S: EventSource + ?Sized>(
    source: &mut S,
    kernels: &mut [FoldKernel],
    tries: &mut [PathTrie],
    mut measures: Vec<Box<dyn MeasureLane>>,
) -> Result<PassFold, TraceIoError> {
    let lanes: Vec<Lane<'_>> = kernels.iter_mut().map(Lane::Kernel).collect();
    let mut pass = fold_source_lanes(source, lanes, tries, &mut measures, 0, false)?;
    pass.measured = measures.into_iter().map(MeasureLane::finish).collect();
    Ok(pass)
}

/// One [`RunStats`] per member of a folded trie, in member order: exactly
/// what each member's own kernel lane would have scored.
#[must_use]
pub fn trie_stats(trie: &PathTrie) -> Vec<RunStats> {
    trie.depths()
        .iter()
        .map(|&depth| RunStats {
            indirect: trie.scored(),
            mispredicted: trie.mispredicted(depth),
        })
        .collect()
}

/// The one fold driver behind every sequential simulation: reads chunks,
/// folds each through the component bank ([`KeyStreams`]), which every
/// kernel it can fold attaches to, and each other lane (one dispatch per
/// lane per chunk), buffers it in each trie and hands it to each measure
/// lane; after the last chunk each trie folds what it buffered, and with
/// `restore` every keyed kernel takes its components' final tables and
/// histories. The measure lanes' values are left for the caller to finish.
///
/// Probed, every predictor lane reports its events into a [`ProbeRun`].
/// The lanes share the warmup, so they all sample at the same events: the
/// driver folds each chunk in segments that end right after those events,
/// and at each cut syncs the bank and samples every lane.
fn fold_source_lanes<S: EventSource + ?Sized>(
    source: &mut S,
    lanes: Vec<Lane<'_>>,
    tries: &mut [PathTrie],
    measures: &mut [Box<dyn MeasureLane>],
    warmup: u64,
    restore: bool,
) -> Result<PassFold, TraceIoError> {
    let mut span = ibp_obs::span("simulate");
    let timer = span.armed().then(std::time::Instant::now);
    let policy = probe::active_policy();
    let mut probes: Vec<ProbeRun> = if policy.on() {
        lanes.iter().map(|_| ProbeRun::new(policy)).collect()
    } else {
        Vec::new()
    };
    let (sinks, mut samples): (Vec<_>, Vec<_>) = probes.iter_mut().map(ProbeRun::split).unzip();
    let mut sinks = sinks.into_iter();
    let mut bank = KeyStreams::new(warmup);
    let mut scorers: Vec<ChunkScorer<'_>> = Vec::new();
    let mut lanes: Vec<Lane<'_>> = lanes
        .into_iter()
        .map(|lane| {
            let mut sink = sinks.next();
            let lane = match lane {
                Lane::Kernel(k) => match bank.attach(k) {
                    Ok(keyed) => {
                        if let Some(sink) = sink.take() {
                            bank.probe(keyed, sink);
                        }
                        Lane::Keyed(keyed)
                    }
                    Err(k) => Lane::Kernel(k),
                },
                other => other,
            };
            scorers.push(match sink {
                Some(sink) => ChunkScorer::probed(warmup, sink),
                None => ChunkScorer::new(warmup),
            });
            lane
        })
        .collect();
    // The next sample: the indirect events folded by then, and its point.
    let interval = policy.deep().then_some(probe::DEEP_INTERVAL);
    let mut next_sample = match (policy.on(), warmup) {
        (false, _) => None,
        (true, 0) => interval.map(|n| (n, "interval")),
        (true, w) => Some((w, "warm")),
    };
    let mut seen = 0u64;
    let mut chunks = 0u64;
    let mut chunk = TraceChunk::default();
    loop {
        let chunk_timer = timer.map(|_| std::time::Instant::now());
        let more = source.fill(&mut chunk, chunk_events())?;
        let mut folded = seen;
        seen += chunk.indirect_count();
        let mut rest = chunk.events();
        loop {
            let cut = next_sample.and_then(|(at, _)| after_indirect(rest, at - folded));
            let (segment, tail) = rest.split_at(cut.unwrap_or(rest.len()));
            bank.fold_chunk(segment);
            for (lane, scorer) in lanes.iter_mut().zip(&mut scorers) {
                lane.fold_chunk(segment, scorer);
            }
            for trie in tries.iter_mut() {
                trie.fold_chunk(segment);
            }
            let Some((at, point)) = next_sample.filter(|_| cut.is_some()) else {
                break;
            };
            bank.sync();
            for (lane, samples) in lanes.iter().zip(&mut samples) {
                samples.sample(point, lane.predictor(&bank));
            }
            folded = at;
            next_sample = interval
                .and_then(|n| at.checked_add(n))
                .map(|at| (at, "interval"));
            rest = tail;
        }
        for measure in measures.iter_mut() {
            measure.fold_chunk(&chunk);
        }
        chunks += 1;
        if let Some(t0) = chunk_timer {
            let secs = t0.elapsed().as_secs_f64();
            if secs > 0.0 && chunk.indirect_count() > 0 {
                ibp_obs::event!(
                    "chunk",
                    trace = source.name(),
                    indirect = chunk.indirect_count(),
                    events_per_sec = (chunk.indirect_count() as f64 / secs).round()
                );
            }
        }
        if !more {
            break;
        }
    }
    for trie in tries.iter_mut() {
        trie.finish();
    }
    let stats: Vec<RunStats> = lanes
        .iter()
        .zip(&scorers)
        .map(|(lane, s)| match lane {
            Lane::Keyed(keyed) => RunStats::scored(bank.scorer(*keyed)),
            _ => RunStats::scored(s),
        })
        .collect();
    if restore || policy.on() {
        bank.sync();
    }
    let mut names = Vec::new();
    for (lane, samples) in lanes.iter().zip(&mut samples) {
        let predictor = lane.predictor(&bank);
        samples.sample("end", predictor);
        names.push(predictor.name());
    }
    let keyed = lanes
        .iter()
        .map(|lane| matches!(lane, Lane::Keyed(_)))
        .collect();
    let (keys, components, predictors) = (bank.len(), bank.components(), lanes.len());
    drop((bank, scorers, samples, lanes));
    for (probe, name) in probes.iter().zip(&names) {
        probe.emit(source.name(), name);
    }
    if let Some(t0) = timer {
        span.note("trace", source.name());
        span.note("events", seen);
        span.note("warmup", seen.min(warmup));
        let scored = stats.first().map(|s| s.indirect);
        span.note(
            "scored",
            scored.or(tries.first().map(PathTrie::scored)).unwrap_or(0),
        );
        span.note("predictors", predictors);
        span.note("tries", tries.len());
        span.note("measures", measures.len());
        span.note("chunks", chunks);
        let secs = t0.elapsed().as_secs_f64();
        if secs > 0.0 {
            span.note("events_per_sec", (seen as f64 / secs).round());
        }
    }
    Ok(PassFold {
        stats,
        measured: Vec::new(),
        keyed,
        keys,
        components,
    })
}

/// The index just past the `n`-th indirect event of `events` (`n` ≥ 1),
/// or `None` when `events` holds fewer.
fn after_indirect(events: &[TraceEvent], n: u64) -> Option<usize> {
    let n = usize::try_from(n).ok()?;
    events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.as_indirect().is_some())
        .nth(n.checked_sub(1)?)
        .map(|(i, _)| i + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_core::PredictorConfig;
    use ibp_trace::{Addr, BranchKind};

    fn alternating_trace(n: u64) -> Trace {
        let mut t = Trace::new("alt");
        for i in 0..n {
            let target = if i % 2 == 0 { 0x900 } else { 0xA00 };
            t.push_indirect(Addr::new(0x100), Addr::new(target), BranchKind::Switch);
        }
        t
    }

    #[test]
    fn btb_always_misses_alternation() {
        let t = alternating_trace(100);
        let mut p = PredictorConfig::btb().build();
        let r = simulate(&t, p.as_mut());
        assert_eq!(r.indirect, 100);
        // Every prediction wrong (first is a cold miss).
        assert_eq!(r.mispredicted, 100);
        assert!((r.misprediction_rate() - 1.0).abs() < 1e-12);
        assert!(r.hit_rate().abs() < 1e-12);
    }

    #[test]
    fn two_level_learns_alternation() {
        let t = alternating_trace(100);
        let mut p = PredictorConfig::unconstrained(1).build();
        let r = simulate(&t, p.as_mut());
        // Only warm-up misses.
        assert!(r.mispredicted <= 4, "misses = {}", r.mispredicted);
    }

    #[test]
    fn warmup_excludes_cold_misses() {
        let t = alternating_trace(100);
        let mut p = PredictorConfig::unconstrained(1).build();
        let r = simulate_warm(&t, p.as_mut(), 10);
        assert_eq!(r.indirect, 90);
        assert_eq!(r.mispredicted, 0);
    }

    #[test]
    fn cond_events_do_not_score() {
        let mut t = Trace::new("c");
        t.push_cond(Addr::new(0x10), Addr::new(0x20), true);
        t.push_indirect(Addr::new(0x100), Addr::new(0x900), BranchKind::Switch);
        let mut p = PredictorConfig::btb_2bc().build();
        let r = simulate(&t, p.as_mut());
        assert_eq!(r.indirect, 1);
    }

    #[test]
    fn empty_trace_zero_rate() {
        let t = Trace::new("empty");
        let mut p = PredictorConfig::btb_2bc().build();
        let r = simulate(&t, p.as_mut());
        assert_eq!(r.misprediction_rate(), 0.0);
    }

    #[test]
    fn source_fold_matches_whole_trace_fold() {
        let t = alternating_trace(500);
        for warmup in [0, 10] {
            let mut p1 = PredictorConfig::unconstrained(2).build();
            let whole = simulate_warm(&t, p1.as_mut(), warmup);
            let mut p2 = PredictorConfig::unconstrained(2).build();
            let streamed = simulate_source(&mut t.cursor(), p2.as_mut(), warmup).unwrap();
            assert_eq!(whole, streamed, "warmup = {warmup}");
        }
    }

    #[test]
    fn multi_predictor_pass_matches_dedicated_passes() {
        let t = alternating_trace(300);
        let mut a = PredictorConfig::btb().build();
        let mut b = PredictorConfig::btb_2bc().build();
        let mut c = PredictorConfig::unconstrained(3).build();
        let shared = simulate_source_multi(
            &mut t.cursor(),
            &mut [a.as_mut(), b.as_mut(), c.as_mut()],
            5,
        )
        .unwrap();
        let dedicated: Vec<RunStats> = [
            PredictorConfig::btb(),
            PredictorConfig::btb_2bc(),
            PredictorConfig::unconstrained(3),
        ]
        .into_iter()
        .map(|cfg| {
            let mut p = cfg.build();
            simulate_warm(&t, p.as_mut(), 5)
        })
        .collect();
        assert_eq!(shared, dedicated);
    }

    #[test]
    fn merged_adds_counts() {
        let a = RunStats {
            indirect: 10,
            mispredicted: 2,
        };
        let b = RunStats {
            indirect: 30,
            mispredicted: 3,
        };
        let m = a.merged(b);
        assert_eq!(m.indirect, 40);
        assert_eq!(m.mispredicted, 5);
        assert!((m.misprediction_rate() - 0.125).abs() < 1e-12);
    }
}
