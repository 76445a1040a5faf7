//! Chunk-fold kernels: one dispatch per chunk, one step per event.
//!
//! A [`FoldKernel`] holds one predictor, its hot families as concrete
//! variants, and [`FoldKernel::fold_chunk`] folds a whole chunk of events
//! into a [`ChunkScorer`] after one dispatch. There are two folds:
//!
//! * [`fold_two_level_chunk`], the `TwoLevel` variant's: a fold over a
//!   full-key unbounded table builds the whole chunk's keys before its
//!   first probe, and every other chunk takes the per-event step;
//! * [`fold_dyn_chunk`], every other variant's and every borrowed
//!   predictor's: one [`Predictor::step`] per indirect event. By default
//!   `step` is the predict-then-update pair. The two-level predictor, the
//!   hybrid and the shared-table hybrid override it to build each key once
//!   and probe each table once, looking up and training in one pass.
//!
//! A grouped pass goes further for compressed keys: its component bank
//! ([`KeyStreams`](crate::KeyStreams)) attaches to the concrete variants,
//! builds each distinct key stream once and folds each distinct component
//! table once, and every lane replays its arbitration over its components'
//! lookups.
//!
//! Scoring and probing stay caller-owned: every fold reports into a
//! [`ChunkScorer`], which counts scored and mispredicted events and, when a
//! [`ProbeSink`] is attached, reports each event to it: the key
//! fingerprint before training, `score` before `note_trained`. Structural
//! samples are not a fold's business: the pass driver cuts its chunks at
//! the sample points and reads the predictors between two folds. Results
//! are byte-identical to the predict-then-update sequence by construction:
//! an overridden `step` looks up, then trains, with nothing in between.

use ibp_trace::{Addr, TraceEvent};

use crate::ext::SharedTableHybrid;
use crate::hybrid::HybridPredictor;
use crate::predictor::Predictor;
use crate::two_level::{full_key_fingerprint, TwoLevelPredictor};

/// Where a fold reports per-event probe information. Implemented by
/// `ibp-sim`'s miss classifier and probe layer and by its per-site
/// scoring; all methods are state-only — they never touch the predictor.
pub trait ProbeSink {
    /// Whether the fold should compute a table-key fingerprint per event
    /// (the miss classifier's cold/capacity split). Queried once per fold.
    fn wants_fingerprint(&self) -> bool;

    /// A scored indirect branch: the prediction made against the actual
    /// target, plus the key fingerprint when requested. Called **before**
    /// [`note_trained`](ProbeSink::note_trained) for the same event, so a
    /// sink can distinguish keys trained before this event from this
    /// event's own training.
    fn score(&mut self, pc: Addr, predicted: Option<Addr>, actual: Addr, fp: Option<u64>);

    /// Every indirect branch trains its key: called after the event's
    /// training (and after [`score`](ProbeSink::score) when scored) with
    /// the key's fingerprint, whenever the fold took one. The default
    /// ignores it.
    fn note_trained(&mut self, fp: u64) {
        let _ = fp;
    }
}

/// Fold state threaded through [`FoldKernel::fold_chunk`]: the warmup
/// countdown, the scored/mispredicted counters, and an optional probe
/// attachment. One scorer persists across all the chunks of a run.
pub struct ChunkScorer<'a> {
    /// Indirect events still to consume unscored.
    to_warm: u64,
    indirect: u64,
    mispredicted: u64,
    probe: Option<&'a mut dyn ProbeSink>,
    /// Whether the probe wants each event's key fingerprint.
    fingerprints: bool,
}

impl<'a> ChunkScorer<'a> {
    /// A probe-free scorer: the first `warmup` indirect events train
    /// without being scored.
    #[must_use]
    pub fn new(warmup: u64) -> Self {
        ChunkScorer {
            to_warm: warmup,
            indirect: 0,
            mispredicted: 0,
            probe: None,
            fingerprints: false,
        }
    }

    /// A scorer that reports every event into `sink`.
    #[must_use]
    pub fn probed(warmup: u64, sink: &'a mut dyn ProbeSink) -> Self {
        ChunkScorer {
            fingerprints: sink.wants_fingerprint(),
            probe: Some(sink),
            ..ChunkScorer::new(warmup)
        }
    }

    /// Overrides the remaining warmup countdown — the sharded fold sets
    /// this per batch, since each batch carries its own share of the global
    /// warmup prefix.
    pub fn set_warmup(&mut self, warmup: u64) {
        self.to_warm = warmup;
    }

    /// Scored indirect branches so far.
    #[must_use]
    pub fn indirect(&self) -> u64 {
        self.indirect
    }

    /// Of the scored branches, how many were mispredicted.
    #[must_use]
    pub fn mispredicted(&self) -> u64 {
        self.mispredicted
    }

    /// Counts one indirect event off the warmup prefix: `true` when the
    /// event is scored, `false` while the prefix lasts.
    fn take_scored(&mut self) -> bool {
        if self.to_warm > 0 {
            self.to_warm -= 1;
            false
        } else {
            true
        }
    }

    /// Scores one indirect event's prediction when `scored`, and reports
    /// the event, with the key fingerprint `fp` taken before its training,
    /// to the attached sink.
    fn record(
        &mut self,
        pc: Addr,
        actual: Addr,
        scored: bool,
        predicted: Option<Addr>,
        fp: Option<u64>,
    ) {
        if scored {
            self.indirect += 1;
            if predicted != Some(actual) {
                self.mispredicted += 1;
            }
        }
        if let Some(sink) = &mut self.probe {
            if scored {
                sink.score(pc, predicted, actual, fp);
            }
            if let Some(fp) = fp {
                sink.note_trained(fp);
            }
        }
    }
}

/// Folds a chunk through a borrowed `dyn Predictor`, one virtual
/// [`Predictor::step`] per indirect event (looking up only when scored):
/// the fold of every [`FoldKernel`] variant but `TwoLevel`, of borrowed
/// predictors, and of every two-level chunk that takes no batched pass.
/// A probed fold reads [`Predictor::probe_key_fingerprint`] before each
/// step when its sink wants fingerprints.
pub fn fold_dyn_chunk(
    p: &mut (dyn Predictor + 'static),
    events: &[TraceEvent],
    scorer: &mut ChunkScorer<'_>,
) {
    for event in events {
        match event {
            TraceEvent::Indirect(b) => {
                let scored = scorer.take_scored();
                let fp = scorer
                    .fingerprints
                    .then(|| p.probe_key_fingerprint(b.pc))
                    .flatten();
                let predicted = p.step(b.pc, b.target, scored);
                scorer.record(b.pc, b.target, scored, predicted, fp);
            }
            TraceEvent::Cond(b) => p.observe_cond(b.pc, b.outcome()),
        }
    }
}

/// The fold skeleton over indirect branches whose keys (or lookups) were
/// built ahead: `branches` yields each indirect event's address and
/// target, `fingerprint` gets the event's index among them (the index of
/// its key or record) and returns its key fingerprint, asked for only when
/// the scorer's sink wants one, and `step` gets the event's index, its
/// address and target, and whether it is scored, and returns the
/// prediction. Conditional events never reach it: whoever built the keys
/// ran the history over them.
pub(crate) fn fold_prekeyed<K, F>(
    branches: impl Iterator<Item = (Addr, Addr)>,
    scorer: &mut ChunkScorer<'_>,
    fingerprint: K,
    mut step: F,
) where
    K: Fn(usize) -> Option<u64>,
    F: FnMut(usize, Addr, Addr, bool) -> Option<Addr>,
{
    for (i, (pc, actual)) in branches.enumerate() {
        let scored = scorer.take_scored();
        let fp = scorer.fingerprints.then(|| fingerprint(i)).flatten();
        let predicted = step(i, pc, actual, scored);
        scorer.record(pc, actual, scored, predicted, fp);
    }
}

/// No key fingerprint: a composite has no single key.
pub(crate) fn no_fingerprint(_: usize) -> Option<u64> {
    None
}

/// The address and target of each indirect event in `events`, in order.
pub(crate) fn indirect_branches(events: &[TraceEvent]) -> impl Iterator<Item = (Addr, Addr)> + '_ {
    events
        .iter()
        .filter_map(TraceEvent::as_indirect)
        .map(|b| (b.pc, b.target))
}

/// Folds a chunk through a borrowed [`TwoLevelPredictor`]: the
/// [`FoldKernel::TwoLevel`] fold, also used by analysis folds (miss
/// classification, pattern censuses) that keep ownership of their
/// predictor instead of wrapping it in a [`FoldKernel`].
///
/// Over a full-key unbounded table the fold runs in two passes: first the
/// key and hash tag of every indirect event in the chunk, then the probes
/// and training over those keys. The history depends only on the events,
/// so the keys are exactly what the per-event step would compute, and so
/// is each key's fingerprint. A compressed key, which a pass shares
/// through [`KeyStreams`](crate::KeyStreams) instead, takes
/// [`fold_dyn_chunk`]'s per-event [`Predictor::step`].
pub fn fold_two_level_chunk(
    p: &mut TwoLevelPredictor,
    events: &[TraceEvent],
    scorer: &mut ChunkScorer<'_>,
) {
    if let Some((table, batch, rule)) = p.batch_keys(events) {
        let width = table.key_words();
        fold_prekeyed(
            indirect_branches(events),
            scorer,
            |i| Some(full_key_fingerprint(batch.key(i, width).0)),
            |i, _, actual, scored| {
                let (key, tag) = batch.key(i, width);
                table
                    .lookup_update_tagged(key, tag, actual, rule, scored)
                    .map(|h| h.target)
            },
        );
        return;
    }
    fold_dyn_chunk(p, events, scorer);
}

/// An enum-dispatched simulation kernel: the hot predictor families as
/// concrete variants (BTB configurations build [`TwoLevelPredictor`]s with
/// path length zero, so `TwoLevel` covers them and every §3–§5 table
/// organisation; `Hybrid` covers every metaprediction rule — the fig17
/// hybrids, the BPST, and §8.1's multi-hybrid and cascade — and
/// `SharedTable` the shared-table hybrid), plus a
/// [`Dyn`](FoldKernel::Dyn) fallback for everything else. A pass's
/// component bank attaches to the concrete variants. Build one from a
/// configuration with
/// [`PredictorConfig::build_kernel`](crate::PredictorConfig::build_kernel),
/// or wrap any boxed predictor with [`from_boxed`](FoldKernel::from_boxed).
pub enum FoldKernel {
    /// A two-level predictor (BTBs included: path length 0).
    TwoLevel(TwoLevelPredictor),
    /// A hybrid under any metaprediction rule (§6, §6.1, §7, §8.1).
    Hybrid(HybridPredictor),
    /// A shared-table hybrid (§8.1).
    SharedTable(SharedTableHybrid),
    /// Fallback: any other predictor.
    Dyn(Box<dyn Predictor>),
}

impl FoldKernel {
    /// Wraps an already-built predictor in the fallback variant.
    #[must_use]
    pub fn from_boxed(p: Box<dyn Predictor>) -> Self {
        FoldKernel::Dyn(p)
    }

    /// The kernel viewed as a predictor (for names, snapshots, storage).
    #[must_use]
    pub fn as_predictor(&self) -> &dyn Predictor {
        match self {
            FoldKernel::TwoLevel(p) => p,
            FoldKernel::Hybrid(p) => p,
            FoldKernel::SharedTable(p) => p,
            FoldKernel::Dyn(p) => &**p,
        }
    }

    /// Mutable predictor view (for direct training in tests).
    pub fn as_predictor_mut(&mut self) -> &mut (dyn Predictor + 'static) {
        match self {
            FoldKernel::TwoLevel(p) => p,
            FoldKernel::Hybrid(p) => p,
            FoldKernel::SharedTable(p) => p,
            FoldKernel::Dyn(p) => &mut **p,
        }
    }

    /// Folds one chunk of events, scoring into `scorer`: `TwoLevel`
    /// through [`fold_two_level_chunk`], every other variant through
    /// [`fold_dyn_chunk`].
    pub fn fold_chunk(&mut self, events: &[TraceEvent], scorer: &mut ChunkScorer<'_>) {
        match self {
            FoldKernel::TwoLevel(p) => fold_two_level_chunk(p, events, scorer),
            other => fold_dyn_chunk(other.as_predictor_mut(), events, scorer),
        }
    }
}

impl std::fmt::Debug for FoldKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let variant = match self {
            FoldKernel::TwoLevel(_) => "TwoLevel",
            FoldKernel::Hybrid(_) => "Hybrid",
            FoldKernel::SharedTable(_) => "SharedTable",
            FoldKernel::Dyn(_) => "Dyn",
        };
        write!(f, "FoldKernel::{variant}({})", self.as_predictor().name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PredictorConfig;
    use ibp_trace::{BranchKind, Trace};

    fn a(raw: u32) -> Addr {
        Addr::new(raw)
    }

    fn mixed_trace(n: u64) -> Trace {
        let mut t = Trace::new("kernel-mix");
        for i in 0..n {
            let site = 0x100 + u32::try_from(i % 7).unwrap() * 8;
            // Mostly a three-target cycle, with a scrambled target every
            // fourth branch so that components of different path lengths
            // disagree.
            let phase = if i % 4 == 3 {
                (i * 2_654_435_761) >> 16
            } else {
                i
            };
            let target = 0x900 + u32::try_from(phase % 3).unwrap() * 0x100;
            t.push_indirect(a(site), a(target), BranchKind::Switch);
            if i % 5 == 0 {
                t.push_cond(a(0x40), a(0x60), i % 2 == 0);
            }
        }
        t
    }

    /// Hides a predictor's `step` override: every method a fold calls but
    /// `step` is forwarded, so a fold over the wrapper runs the default
    /// predict-then-update `step`.
    struct DefaultStep(Box<dyn Predictor>);

    impl Predictor for DefaultStep {
        fn predict(&self, pc: Addr) -> Option<Addr> {
            self.0.predict(pc)
        }

        fn update(&mut self, pc: Addr, actual: Addr) {
            self.0.update(pc, actual);
        }

        fn observe_cond(&mut self, pc: Addr, target: Addr) {
            self.0.observe_cond(pc, target);
        }

        fn name(&self) -> String {
            self.0.name()
        }

        fn snapshot(&self) -> Option<crate::snapshot::Snapshot> {
            self.0.snapshot()
        }

        fn probe_key_fingerprint(&self, pc: Addr) -> Option<u64> {
            self.0.probe_key_fingerprint(pc)
        }
    }

    /// Folds trace events through the kernel and through the
    /// predict-then-update sequence (the default `step` over the
    /// [`DefaultStep`] wrapper), returning both (indirect, mispredicted)
    /// pairs.
    fn both_folds(cfg: &PredictorConfig, warmup: u64) -> ((u64, u64), (u64, u64)) {
        let trace = mixed_trace(400);
        let mut kernel = cfg.build_kernel();
        let mut scorer = ChunkScorer::new(warmup);
        kernel.fold_chunk(trace.events(), &mut scorer);

        let mut legacy = DefaultStep(cfg.build());
        let mut dyn_scorer = ChunkScorer::new(warmup);
        fold_dyn_chunk(&mut legacy, trace.events(), &mut dyn_scorer);
        (
            (scorer.indirect(), scorer.mispredicted()),
            (dyn_scorer.indirect(), dyn_scorer.mispredicted()),
        )
    }

    #[test]
    fn kernel_matches_dyn_fold_across_families() {
        for cfg in [
            PredictorConfig::btb(),
            PredictorConfig::btb_2bc(),
            PredictorConfig::unconstrained(4),
            PredictorConfig::practical(2, 64, 4),
            PredictorConfig::tagless(2, 64),
            PredictorConfig::full_assoc(2, 64),
            PredictorConfig::hybrid(3, 1, 64, 4),
            PredictorConfig::bpst(3, 1, 64, 4),
        ] {
            assert!(
                !matches!(cfg.build_kernel(), FoldKernel::Dyn(_)),
                "test premise: {} builds a concrete variant",
                cfg.cache_key()
            );
            for warmup in [0, 37] {
                let (kernel, legacy) = both_folds(&cfg, warmup);
                assert_eq!(kernel, legacy, "{} warmup={warmup}", cfg.cache_key());
            }
        }
    }

    #[test]
    fn fused_step_states_match_sequential_protocol() {
        // Beyond counters: the *state* after a kernel fold equals the state
        // after the sequential predict/update protocol, witnessed by
        // identical future predictions.
        for cfg in [
            PredictorConfig::unconstrained(3),
            PredictorConfig::practical(2, 64, 2),
            PredictorConfig::hybrid(3, 1, 64, 4),
            PredictorConfig::bpst(3, 1, 64, 4),
        ] {
            let trace = mixed_trace(300);
            let mut kernel = cfg.build_kernel();
            let mut scorer = ChunkScorer::new(0);
            kernel.fold_chunk(trace.events(), &mut scorer);
            let mut legacy = cfg.build();
            for event in trace.events() {
                if let TraceEvent::Indirect(b) = event {
                    let _ = legacy.predict(b.pc);
                    legacy.update(b.pc, b.target);
                }
            }
            for probe in [a(0x100), a(0x108), a(0x110), a(0x118)] {
                assert_eq!(
                    kernel.as_predictor().predict(probe),
                    legacy.predict(probe),
                    "{} diverges at {probe:?}",
                    cfg.cache_key()
                );
            }
        }
    }

    #[test]
    fn scorer_warmup_countdown_spans_chunks() {
        let trace = mixed_trace(100);
        let mut kernel = PredictorConfig::btb_2bc().build_kernel();
        let mut scorer = ChunkScorer::new(30);
        let events = trace.events();
        let (head, tail) = events.split_at(events.len() / 2);
        kernel.fold_chunk(head, &mut scorer);
        kernel.fold_chunk(tail, &mut scorer);
        let total = trace.indirect_count();
        assert_eq!(scorer.indirect(), total - 30);
    }
}
