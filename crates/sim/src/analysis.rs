//! Deeper simulation analytics: miss classification, per-site breakdowns,
//! pattern censuses, ahead-prediction depth and trace characteristics.
//!
//! These reproduce the *analytical* observations scattered through the
//! paper's prose — e.g. §5.1's "p = 2 wins at table size 256 with a
//! misprediction rate of 12.5 %, 3.6 % of which is due to capacity misses"
//! and "*ixx* generates 203 different patterns for path length p = 0 …
//! and ends up with 9403 patterns for p = 12".
//!
//! The experiments fold them as [`MeasureLane`]s of the sweep engine's
//! grouped pass ([`Sweep::measure`](crate::engine::Sweep::measure)), so
//! each is memoized and persisted like a predictor cell: [`MissLane`],
//! [`CensusLane`], [`AheadLane`] and [`TraceLane`].

use std::collections::{HashMap, VecDeque};

use ibp_core::ext::{AheadPrediction, AheadPredictor};
use ibp_core::{
    fold_two_level_chunk, ChunkScorer, FoldKernel, Predictor, PredictorConfig, ProbeSink,
    TwoLevelPredictor,
};
use ibp_trace::io::TraceIoError;
use ibp_trace::{
    chunk_events, Addr, BranchKind, CoverageLevel, EventSource, Trace, TraceChunk, TraceEvent,
    TraceStatsBuilder,
};

use crate::probe::MissClassifier;
use crate::run::{MeasureLane, Measurement};

/// Misprediction breakdown by cause for a two-level predictor.
///
/// Every scored indirect branch falls into exactly one class:
///
/// * **hit** — predicted correctly;
/// * **wrong target** — the key was in the table but held another target
///   (the branch genuinely changed behaviour, or the 2bc rule is mid
///   transition);
/// * **capacity** — the key had been trained earlier but was evicted
///   (capacity or conflict, depending on the organisation);
/// * **cold** — the key had never been trained (compulsory / warm-up).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MissBreakdown {
    /// Correct predictions.
    pub hits: u64,
    /// Mispredictions with the pattern present.
    pub wrong_target: u64,
    /// Mispredictions because the pattern was evicted.
    pub capacity: u64,
    /// Mispredictions because the pattern was never seen.
    pub cold: u64,
}

impl MissBreakdown {
    /// Scored branches.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.hits + self.wrong_target + self.capacity + self.cold
    }

    /// Total misprediction rate.
    #[must_use]
    pub fn misprediction_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (self.wrong_target + self.capacity + self.cold) as f64 / total as f64
        }
    }

    /// The capacity/conflict component of the misprediction rate — the
    /// quantity the paper attributes in §5.1.
    #[must_use]
    pub fn capacity_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.capacity as f64 / total as f64
        }
    }

    /// The compulsory (cold) component of the misprediction rate.
    #[must_use]
    pub fn cold_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.cold as f64 / total as f64
        }
    }
}

/// Simulates a two-level predictor while classifying every misprediction.
///
/// The [`MissClassifier`] shadows the predictor with an ever-seen key set
/// (over [`TwoLevelPredictor::key_fingerprint`]): a missing key that *was*
/// seen is a capacity/conflict miss, a missing key never seen is a cold
/// miss. For unbounded tables the capacity class is structurally zero.
pub fn simulate_classified(trace: &Trace, predictor: &mut TwoLevelPredictor) -> MissBreakdown {
    simulate_classified_source(&mut trace.cursor(), std::slice::from_mut(predictor))
        .expect("in-memory source cannot fail")
        .pop()
        .expect("one breakdown per predictor")
}

/// Streaming, multi-lane form of [`simulate_classified`]: folds every
/// predictor, each with its own classifier, over **one** chunked pass of
/// an [`EventSource`], and returns one breakdown per predictor in input
/// order. Lanes share no state, so each breakdown is exactly what a
/// dedicated pass would give. Memory is bounded by the chunk size plus
/// the ever-seen key sets, which grow with the number of distinct
/// patterns, not events.
///
/// # Errors
///
/// Propagates the source's I/O or parse failures (in-memory sources are
/// infallible).
pub fn simulate_classified_source<S: EventSource + ?Sized>(
    source: &mut S,
    predictors: &mut [TwoLevelPredictor],
) -> Result<Vec<MissBreakdown>, TraceIoError> {
    let mut sinks: Vec<MissClassifier> = predictors
        .iter()
        .map(|_| MissClassifier::new(true))
        .collect();
    let mut chunk = TraceChunk::default();
    loop {
        let more = source.fill(&mut chunk, chunk_events())?;
        for (predictor, sink) in predictors.iter_mut().zip(&mut sinks) {
            classify_chunk(predictor, sink, chunk.events());
        }
        if !more {
            return Ok(sinks.iter().map(MissClassifier::breakdown).collect());
        }
    }
}

/// Folds one chunk of `predictor`'s events, classifying each miss into
/// `sink`. Unwarmed, so a scorer per chunk folds exactly like one kept
/// across the pass.
fn classify_chunk(
    predictor: &mut TwoLevelPredictor,
    sink: &mut MissClassifier,
    events: &[TraceEvent],
) {
    fold_two_level_chunk(predictor, events, &mut ChunkScorer::probed(0, sink));
}

/// Per-site misprediction statistics from one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteMisses {
    /// The branch site.
    pub pc: Addr,
    /// Scored executions.
    pub executions: u64,
    /// Mispredicted executions.
    pub mispredicted: u64,
}

impl SiteMisses {
    /// The site's misprediction rate.
    #[must_use]
    pub fn rate(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.mispredicted as f64 / self.executions as f64
        }
    }
}

/// Folds a [`FoldKernel`] over a chunked [`EventSource`] and returns
/// per-site misprediction counts, sorted by descending misprediction
/// volume. Memory is bounded by the chunk size plus one accumulator per
/// distinct site.
///
/// Useful for the "which sites dominate the misses" question that drives
/// the paper's focus on a handful of megamorphic branches.
///
/// # Errors
///
/// Propagates the source's I/O or parse failures (in-memory sources are
/// infallible).
pub fn simulate_per_site<S: EventSource + ?Sized>(
    source: &mut S,
    kernel: &mut FoldKernel,
) -> Result<Vec<SiteMisses>, TraceIoError> {
    let mut sink = SiteSink::default();
    let mut scorer = ChunkScorer::probed(0, &mut sink);
    let mut chunk = TraceChunk::default();
    loop {
        let more = source.fill(&mut chunk, chunk_events())?;
        kernel.fold_chunk(chunk.events(), &mut scorer);
        if !more {
            break;
        }
    }
    let mut out: Vec<SiteMisses> = sink
        .per_site
        .into_iter()
        .map(|(pc, (executions, mispredicted))| SiteMisses {
            pc,
            executions,
            mispredicted,
        })
        .collect();
    out.sort_by(|a, b| b.mispredicted.cmp(&a.mispredicted).then(a.pc.cmp(&b.pc)));
    Ok(out)
}

/// A [`ProbeSink`] accumulating per-site execution/misprediction counts.
#[derive(Debug, Default)]
struct SiteSink {
    per_site: HashMap<Addr, (u64, u64)>,
}

impl ProbeSink for SiteSink {
    fn wants_fingerprint(&self) -> bool {
        false
    }

    fn score(&mut self, pc: Addr, predicted: Option<Addr>, actual: Addr, _fp: Option<u64>) {
        let entry = self.per_site.entry(pc).or_insert((0, 0));
        entry.0 += 1;
        if predicted != Some(actual) {
            entry.1 += 1;
        }
    }
}

/// Counts the distinct `(branch, path)` patterns a trace generates at a
/// given path length — the paper's §5.1 pattern-census (203 patterns at
/// `p = 0` up to 9403 at `p = 12` for *ixx*).
#[must_use]
pub fn pattern_census(trace: &Trace, path_len: usize) -> usize {
    let counts = pattern_census_source(&mut trace.cursor(), &[path_len])
        .expect("in-memory source cannot fail");
    counts[0]
}

/// Streaming, multi-lane form of [`pattern_census`]: counts the patterns
/// at every path length in `path_lens` over **one** pass of an
/// [`EventSource`], returning the counts in input order. Table growth is
/// bounded by the number of distinct patterns, never the trace length.
///
/// # Errors
///
/// Propagates the source's I/O or parse failures.
pub fn pattern_census_source<S: EventSource + ?Sized>(
    source: &mut S,
    path_lens: &[usize],
) -> Result<Vec<usize>, TraceIoError> {
    let mut predictors: Vec<TwoLevelPredictor> = path_lens
        .iter()
        .map(|&p| TwoLevelPredictor::unconstrained(p, ibp_core::HistorySharing::GLOBAL))
        .collect();
    // An infinite warmup keeps every event unscored: the kernel fold then
    // trains the table without ever probing it, exactly like the old
    // update-only loop.
    let mut scorers: Vec<ChunkScorer<'_>> = predictors
        .iter()
        .map(|_| ChunkScorer::new(u64::MAX))
        .collect();
    let mut chunk = TraceChunk::default();
    loop {
        let more = source.fill(&mut chunk, chunk_events())?;
        for (predictor, scorer) in predictors.iter_mut().zip(&mut scorers) {
            fold_two_level_chunk(predictor, chunk.events(), scorer);
        }
        if !more {
            return Ok(predictors
                .iter()
                .map(TwoLevelPredictor::stored_patterns)
                .collect());
        }
    }
}

/// Classifies every miss of one two-level predictor, as a lane of a
/// sweep pass: the [`simulate_classified_source`] fold, reporting a
/// [`Measurement::Misses`].
pub struct MissLane {
    predictor: TwoLevelPredictor,
    sink: MissClassifier,
}

impl MissLane {
    /// A lane classifying the misses of `cfg`'s predictor. Its memo key is
    /// [`MissLane::key`].
    ///
    /// # Panics
    ///
    /// Panics unless `cfg` builds a single two-level predictor.
    #[must_use]
    pub fn new(cfg: &PredictorConfig) -> Self {
        MissLane {
            predictor: cfg
                .try_build_two_level()
                .expect("miss classification needs a two-level predictor"),
            sink: MissClassifier::new(true),
        }
    }

    /// The memo key of `MissLane::new(cfg)`: `misses|` and
    /// [`PredictorConfig::cache_key`].
    #[must_use]
    pub fn key(cfg: &PredictorConfig) -> String {
        format!("misses|{}", cfg.cache_key())
    }
}

impl MeasureLane for MissLane {
    fn fold_chunk(&mut self, chunk: &TraceChunk) {
        classify_chunk(&mut self.predictor, &mut self.sink, chunk.events());
    }

    fn finish(self: Box<Self>) -> Measurement {
        Measurement::Misses(self.sink.breakdown())
    }
}

/// Counts the patterns one unbounded two-level table stores over a trace,
/// as a lane of a sweep pass: the [`pattern_census_source`] fold,
/// reporting a [`Measurement::Patterns`].
pub struct CensusLane {
    predictor: TwoLevelPredictor,
}

impl CensusLane {
    /// A lane counting the patterns `cfg`'s predictor stores. Its memo key
    /// is [`CensusLane::key`].
    ///
    /// # Panics
    ///
    /// Panics unless `cfg` builds a single two-level predictor.
    #[must_use]
    pub fn new(cfg: &PredictorConfig) -> Self {
        CensusLane {
            predictor: cfg
                .try_build_two_level()
                .expect("a pattern census needs a two-level predictor"),
        }
    }

    /// The memo key of `CensusLane::new(cfg)`: `patterns|` and
    /// [`PredictorConfig::cache_key`].
    #[must_use]
    pub fn key(cfg: &PredictorConfig) -> String {
        format!("patterns|{}", cfg.cache_key())
    }
}

impl MeasureLane for CensusLane {
    fn fold_chunk(&mut self, chunk: &TraceChunk) {
        // An endless warmup trains without ever probing, as in
        // `pattern_census_source`.
        let mut scorer = ChunkScorer::new(u64::MAX);
        fold_two_level_chunk(&mut self.predictor, chunk.events(), &mut scorer);
    }

    fn finish(self: Box<Self>) -> Measurement {
        Measurement::Patterns(self.predictor.stored_patterns() as u64)
    }
}

/// The lookahead depths the ahead-prediction study scores (§8.1).
pub const AHEAD_DEPTHS: [usize; 4] = [1, 2, 4, 8];

/// Ahead-prediction hits over one trace: of the `scored` indirect
/// branches, how many the chained prediction issued `d` branches earlier
/// anticipated exactly (site and target), for each `d` in
/// [`AHEAD_DEPTHS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AheadHits {
    /// Indirect branches scored.
    pub scored: u64,
    /// Correct anticipations per depth, in [`AHEAD_DEPTHS`] order.
    pub correct: [u64; 4],
}

impl AheadHits {
    /// The accuracy at each depth, in [`AHEAD_DEPTHS`] order (0 for an
    /// empty trace).
    #[must_use]
    pub fn rates(&self) -> [f64; 4] {
        self.correct.map(|c| {
            if self.scored == 0 {
                0.0
            } else {
                c as f64 / self.scored as f64
            }
        })
    }
}

/// §8.1's last idea, running ahead of execution, as a lane of a sweep
/// pass: an [`AheadPredictor`] fed only its own chained predictions as
/// context, scored at every depth as branches resolve. Reports a
/// [`Measurement::Ahead`].
pub struct AheadLane {
    predictor: AheadPredictor,
    /// `pending[d]` holds the predictions made at chain depth `d`, one per
    /// branch, until the branch `d + 1` steps later resolves.
    pending: Vec<VecDeque<AheadPrediction>>,
    correct: Vec<u64>,
    scored: u64,
}

impl AheadLane {
    /// A lane over an `AheadPredictor::new(path_len)`. Its memo key is
    /// [`AheadLane::key`].
    #[must_use]
    pub fn new(path_len: usize) -> Self {
        let max_depth = AHEAD_DEPTHS[AHEAD_DEPTHS.len() - 1];
        AheadLane {
            predictor: AheadPredictor::new(path_len),
            pending: vec![VecDeque::new(); max_depth],
            correct: vec![0; max_depth],
            scored: 0,
        }
    }

    /// The memo key of `AheadLane::new(path_len)`: every parameter of the
    /// lane.
    #[must_use]
    pub fn key(path_len: usize) -> String {
        format!("ahead|AheadPredictor::new({path_len})|depths={AHEAD_DEPTHS:?}")
    }
}

impl MeasureLane for AheadLane {
    fn fold_chunk(&mut self, chunk: &TraceChunk) {
        let max_depth = self.pending.len();
        for event in chunk.events() {
            let TraceEvent::Indirect(br) = event else {
                continue;
            };
            self.scored += 1;
            // Score the chained predictions issued d branches ago.
            for (d, queue) in self.pending.iter_mut().enumerate() {
                if queue.len() > d {
                    if let Some(pred) = queue.pop_front() {
                        if pred.pc == br.pc && pred.target == br.target {
                            self.correct[d] += 1;
                        }
                    }
                }
            }
            // Resolve this branch first, then look ahead: chain[d] is the
            // prediction for the branch d+1 steps in the future.
            self.predictor.update(br.pc, br.target);
            let chain = self.predictor.predict_chain(max_depth);
            for (d, queue) in self.pending.iter_mut().enumerate() {
                queue.push_back(chain.get(d).copied().unwrap_or(AheadPrediction {
                    // A sentinel that can never match (the zero address
                    // never appears as a site).
                    pc: Addr::ZERO,
                    target: Addr::ZERO,
                }));
            }
        }
    }

    fn finish(self: Box<Self>) -> Measurement {
        Measurement::Ahead(AheadHits {
            scored: self.scored,
            correct: AHEAD_DEPTHS.map(|d| self.correct[d - 1]),
        })
    }
}

/// A trace's characteristics as Tables 1–2 report them, in counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCounts {
    /// Dynamic indirect branches.
    pub indirect: u64,
    /// Instructions executed.
    pub instructions: u64,
    /// Conditional branches executed.
    pub conditionals: u64,
    /// Of the indirect branches, how many were virtual calls.
    pub virtual_calls: u64,
    /// Sites covering 90/95/99/100 % of the indirect branches, in
    /// [`CoverageLevel::ALL`] order.
    pub active_sites: [u64; 4],
}

impl TraceCounts {
    /// Instructions per indirect branch; infinite for a trace without
    /// one, like [`TraceStats`](ibp_trace::TraceStats).
    #[must_use]
    pub fn instructions_per_indirect(&self) -> f64 {
        self.per_indirect(self.instructions)
    }

    /// Conditional branches per indirect branch; infinite for a trace
    /// without one.
    #[must_use]
    pub fn cond_per_indirect(&self) -> f64 {
        self.per_indirect(self.conditionals)
    }

    /// The fraction of indirect branches that are virtual calls (0 for a
    /// trace without one).
    #[must_use]
    pub fn virtual_fraction(&self) -> f64 {
        if self.indirect == 0 {
            0.0
        } else {
            self.virtual_calls as f64 / self.indirect as f64
        }
    }

    fn per_indirect(&self, count: u64) -> f64 {
        if self.indirect == 0 {
            f64::INFINITY
        } else {
            count as f64 / self.indirect as f64
        }
    }
}

/// Measures a trace's Tables 1–2 characteristics as a lane of a sweep
/// pass, reporting a [`Measurement::Trace`]. Its memo key is
/// [`TraceLane::KEY`].
#[derive(Default)]
pub struct TraceLane {
    sites: TraceStatsBuilder,
    instructions: u64,
    conditionals: u64,
    virtual_calls: u64,
}

impl TraceLane {
    /// The memo key: every parameter of the lane.
    pub const KEY: &'static str = "trace|coverage=90,95,99,100";
}

impl MeasureLane for TraceLane {
    fn fold_chunk(&mut self, chunk: &TraceChunk) {
        self.sites.record_chunk(chunk);
        self.instructions += chunk.instructions();
        self.conditionals += chunk.cond_count();
        self.virtual_calls += chunk
            .events()
            .iter()
            .filter_map(TraceEvent::as_indirect)
            .filter(|b| b.kind == BranchKind::VirtualCall)
            .count() as u64;
    }

    fn finish(self: Box<Self>) -> Measurement {
        let stats = self.sites.finish();
        Measurement::Trace(TraceCounts {
            indirect: stats.indirect_branches,
            instructions: self.instructions,
            conditionals: self.conditionals,
            virtual_calls: self.virtual_calls,
            active_sites: CoverageLevel::ALL.map(|level| stats.active_sites(level) as u64),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_core::CompressedKeySpec;
    use ibp_trace::BranchKind;

    fn a(raw: u32) -> Addr {
        Addr::new(raw)
    }

    /// A trace cycling through n distinct monomorphic sites.
    fn cycling_trace(sites: u32, rounds: u32) -> Trace {
        let mut t = Trace::new("cycle");
        for _ in 0..rounds {
            for s in 0..sites {
                t.push_indirect(a(0x100 + s * 4), a(0x9000 + s * 4), BranchKind::Switch);
            }
        }
        t
    }

    #[test]
    fn unbounded_tables_have_no_capacity_misses() {
        let t = cycling_trace(16, 10);
        let mut p = TwoLevelPredictor::compressed_unbounded(CompressedKeySpec::practical(0));
        let b = simulate_classified(&t, &mut p);
        assert_eq!(b.capacity, 0);
        assert_eq!(b.cold, 16);
        assert_eq!(b.wrong_target, 0);
        assert_eq!(b.hits, 16 * 9);
        assert_eq!(b.total(), 160);
    }

    #[test]
    fn thrashing_table_shows_capacity_misses() {
        // 16 sites cycling through a 4-entry LRU: every access after the
        // first round is a capacity miss.
        let t = cycling_trace(16, 10);
        let mut p = TwoLevelPredictor::full_assoc(CompressedKeySpec::practical(0), 4);
        let b = simulate_classified(&t, &mut p);
        assert_eq!(b.cold, 16);
        assert_eq!(b.capacity, 16 * 9);
        assert_eq!(b.hits, 0);
        assert!((b.capacity_rate() - 0.9).abs() < 1e-12);
        assert!((b.misprediction_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wrong_target_class_detected() {
        // One site alternating targets: BTB-style predictor keeps the key
        // resident but mispredicts half the time.
        let mut t = Trace::new("alt");
        for i in 0..40u32 {
            t.push_indirect(a(0x100), a(0x9000 + (i % 2) * 4), BranchKind::Switch);
        }
        let mut p = TwoLevelPredictor::compressed_unbounded(CompressedKeySpec::practical(0));
        let b = simulate_classified(&t, &mut p);
        assert_eq!(b.cold, 1);
        assert_eq!(b.capacity, 0);
        assert!(b.wrong_target > 10);
    }

    #[test]
    fn per_site_attribution() {
        // Site A monomorphic, site B alternating: B owns the misses.
        let mut t = Trace::new("two");
        for i in 0..30u32 {
            t.push_indirect(a(0x100), a(0x9000), BranchKind::Switch);
            t.push_indirect(a(0x200), a(0xA000 + (i % 2) * 4), BranchKind::Switch);
        }
        let mut k = ibp_core::PredictorConfig::btb().build_kernel();
        let sites = simulate_per_site(&mut t.cursor(), &mut k).expect("in-memory source");
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].pc, a(0x200));
        assert!(sites[0].rate() > 0.9);
        assert!(sites[1].rate() < 0.1);
        assert_eq!(sites[0].executions, 30);
    }

    #[test]
    fn pattern_census_grows_with_path_length() {
        let trace = {
            let mut t = Trace::new("mix");
            for i in 0..400u32 {
                let s = i % 5;
                let target = 0x9000 + ((i * 7 + s) % 6) * 4;
                t.push_indirect(a(0x100 + s * 4), a(target), BranchKind::Switch);
            }
            t
        };
        let p0 = pattern_census(&trace, 0);
        let p2 = pattern_census(&trace, 2);
        let p6 = pattern_census(&trace, 6);
        assert_eq!(p0, 5);
        assert!(p2 > p0);
        assert!(p6 >= p2);
    }

    #[test]
    fn multi_lane_passes_match_single_lane_passes() {
        // Longer than one chunk, so lanes cross chunk boundaries.
        let trace = ibp_workload::Benchmark::Ixx.trace_with_len(2 * chunk_events() + 1_000);
        let configs = [(256, 2), (1024, 3), (8192, 6)];
        let mut lanes: Vec<TwoLevelPredictor> = configs
            .iter()
            .map(|&(size, p)| TwoLevelPredictor::full_assoc(CompressedKeySpec::practical(p), size))
            .collect();
        let shared = simulate_classified_source(&mut trace.cursor(), &mut lanes).unwrap();
        for (&(size, p), got) in configs.iter().zip(&shared) {
            let mut alone = TwoLevelPredictor::full_assoc(CompressedKeySpec::practical(p), size);
            assert_eq!(
                *got,
                simulate_classified(&trace, &mut alone),
                "size {size}, p {p}"
            );
        }

        let paths: Vec<usize> = (0..=12).collect();
        let counts = pattern_census_source(&mut trace.cursor(), &paths).unwrap();
        for (&p, &got) in paths.iter().zip(&counts) {
            assert_eq!(got, pattern_census(&trace, p), "p = {p}");
        }
    }

    /// Folds `lane` over every chunk of `trace`.
    fn measure(lane: Box<dyn MeasureLane>, trace: &Trace) -> Measurement {
        let mut lane = lane;
        let mut cursor = trace.cursor();
        let mut chunk = TraceChunk::default();
        loop {
            let more = cursor.fill(&mut chunk, chunk_events()).expect("in-memory");
            lane.fold_chunk(&chunk);
            if !more {
                return lane.finish();
            }
        }
    }

    #[test]
    fn trace_lane_matches_whole_trace_stats() {
        let trace = ibp_workload::Benchmark::Ixx.trace_with_len(2 * chunk_events() + 1_000);
        let direct = trace.stats();
        let Measurement::Trace(counts) = measure(Box::<TraceLane>::default(), &trace) else {
            panic!("a trace lane measures the trace");
        };
        assert_eq!(counts.indirect, direct.indirect_branches);
        assert_eq!(
            counts.instructions_per_indirect(),
            direct.instructions_per_indirect
        );
        assert_eq!(counts.cond_per_indirect(), direct.cond_per_indirect);
        assert_eq!(counts.virtual_fraction(), direct.virtual_fraction);
        for (level, &sites) in CoverageLevel::ALL.iter().zip(&counts.active_sites) {
            assert_eq!(sites, direct.active_sites(*level) as u64, "{level}");
        }
    }

    #[test]
    fn miss_and_census_lanes_match_their_folds() {
        let trace = ibp_workload::Benchmark::Gcc.trace_with_len(2 * chunk_events() + 1_000);
        let cfg = PredictorConfig::full_assoc(3, 1024);
        let mut alone = cfg.try_build_two_level().expect("two-level");
        assert_eq!(
            measure(Box::new(MissLane::new(&cfg)), &trace),
            Measurement::Misses(simulate_classified(&trace, &mut alone))
        );
        let cfg = PredictorConfig::unconstrained(6);
        assert_eq!(
            measure(Box::new(CensusLane::new(&cfg)), &trace),
            Measurement::Patterns(pattern_census(&trace, 6) as u64)
        );
    }

    #[test]
    fn breakdown_totals_match_plain_simulation() {
        let t = cycling_trace(8, 6);
        let mut classified = TwoLevelPredictor::full_assoc(CompressedKeySpec::practical(1), 8);
        let b = simulate_classified(&t, &mut classified);
        let mut plain = TwoLevelPredictor::full_assoc(CompressedKeySpec::practical(1), 8);
        let stats = crate::simulate(&t, &mut plain);
        assert_eq!(b.total(), stats.indirect);
        assert!((b.misprediction_rate() - stats.misprediction_rate()).abs() < 1e-12);
    }
}
