//! Chunk-fold kernels: one dispatch per chunk instead of two per event.
//!
//! Every simulation loop in `ibp-sim` used to drive predictors through
//! `&mut dyn Predictor`, paying two to three virtual calls per indirect
//! branch (`predict`, `update`, and under probing `probe_key_fingerprint`)
//! plus a duplicated history-register/key computation inside each of them.
//! A [`FoldKernel`] hoists that cost out of the inner loop: the hot
//! predictor families get an enum variant holding the **concrete** type, and
//! [`FoldKernel::fold_chunk`] dispatches **once per chunk** into a
//! monomorphized fold whose per-event step is the family's `fused_step` —
//! register and key computed once, table probe and training fused in a
//! single probe (full-key unbounded tables also compute a whole chunk's
//! keys before probing; see [`fold_two_level_chunk`]). A grouped pass
//! goes further for compressed keys: its component bank
//! ([`KeyStreams`](crate::KeyStreams)) builds each distinct key stream once
//! and folds each distinct component table once, and every lane replays
//! its arbitration over its components' lookups. Everything
//! the enum does not name falls back to [`FoldKernel::Dyn`], which runs one
//! virtual [`Predictor::step`] per event through the same fold skeleton, so
//! every `Box<dyn Predictor>` keeps working: by default `step` is the
//! legacy predict-then-update pair, and the `ext` predictors override it to
//! build their keys once.
//!
//! Scoring and probing stay caller-owned: the fold reports into a
//! [`ChunkScorer`], which counts scored/mispredicted events and, when a
//! [`ProbeSink`] is attached, replays the probe layer's exact per-event
//! protocol (fingerprint before training, score before `note_trained`,
//! warm/interval samples at the same points). Results are byte-identical to
//! the legacy dyn fold by construction: `fused_step` is pure-lookup +
//! train with nothing in between, exactly the simulation protocol.

use ibp_trace::{Addr, TraceEvent};

use crate::ext::{CascadePredictor, MultiHybridPredictor, SharedTableHybrid};
use crate::hybrid::HybridPredictor;
use crate::meta::BpstMetaPredictor;
use crate::predictor::Predictor;
use crate::two_level::TwoLevelPredictor;

/// Where a fold reports per-event probe information. Implemented by
/// `ibp-sim`'s probe layer and by its analysis folds (per-site scoring,
/// miss classification); all methods are state-only — they never touch the
/// predictor.
pub trait ProbeSink {
    /// Whether the fold should compute a table-key fingerprint per event
    /// (the deep-probe miss-attribution protocol). Queried once per fold.
    fn wants_fingerprint(&self) -> bool;

    /// A scored indirect branch: the prediction made against the actual
    /// target, plus the key fingerprint when requested. Called **before**
    /// [`note_trained`](ProbeSink::note_trained) for the same event, so a
    /// sink can distinguish keys trained before this event from this
    /// event's own training.
    fn score(&mut self, pc: Addr, predicted: Option<Addr>, actual: Addr, fp: Option<u64>);

    /// Every indirect branch trains its key; called after the event's
    /// training (and after [`score`](ProbeSink::score) when scored).
    fn note_trained(&mut self, fp: Option<u64>);

    /// A structural snapshot point ("warm" / "interval"); read-only.
    fn sample(&mut self, point: &str, predictor: &dyn Predictor);
}

/// When the attached [`ProbeSink`] takes its "warm" sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmTrigger {
    /// On the event where the warmup countdown reaches zero, after that
    /// event's training — the sequential fold's `seen == warmup` point.
    /// Never fires when the warmup is zero.
    AtCrossing,
    /// Immediately before the first scored event — the sharded fold's
    /// convention, where each worker sees only its own slice of the global
    /// warmup prefix. Callers that never score sample at exit instead (see
    /// [`ChunkScorer::warm_pending`]).
    BeforeFirstScored,
}

/// The probe half of a [`ChunkScorer`].
struct ScorerProbe<'a> {
    sink: &'a mut dyn ProbeSink,
    fingerprints: bool,
    warm: WarmTrigger,
    /// Deep interval-sample spacing in scored events, or `None` for no
    /// interval samples.
    interval: Option<u64>,
    warm_pending: bool,
}

/// Fold state threaded through [`FoldKernel::fold_chunk`]: the warmup
/// countdown, the scored/mispredicted counters, and an optional probe
/// attachment. One scorer persists across all the chunks of a run.
pub struct ChunkScorer<'a> {
    /// Indirect events still to consume unscored.
    to_warm: u64,
    /// Scored indirect events so far (drives interval sampling).
    scored_seen: u64,
    indirect: u64,
    mispredicted: u64,
    probe: Option<ScorerProbe<'a>>,
}

impl<'a> ChunkScorer<'a> {
    /// A probe-free scorer: the first `warmup` indirect events train
    /// without being scored.
    #[must_use]
    pub fn new(warmup: u64) -> Self {
        ChunkScorer {
            to_warm: warmup,
            scored_seen: 0,
            indirect: 0,
            mispredicted: 0,
            probe: None,
        }
    }

    /// A scorer that reports every event into `sink`, sampling "warm" per
    /// `warm` and "interval" every `interval` scored events (when deep).
    #[must_use]
    pub fn probed(
        warmup: u64,
        sink: &'a mut dyn ProbeSink,
        warm: WarmTrigger,
        interval: Option<u64>,
    ) -> Self {
        let fingerprints = sink.wants_fingerprint();
        ChunkScorer {
            to_warm: warmup,
            scored_seen: 0,
            indirect: 0,
            mispredicted: 0,
            probe: Some(ScorerProbe {
                sink,
                fingerprints,
                warm,
                interval,
                warm_pending: warm == WarmTrigger::BeforeFirstScored,
            }),
        }
    }

    /// Overrides the remaining warmup countdown — the sharded fold sets
    /// this per batch, since each batch carries its own share of the global
    /// warmup prefix.
    pub fn set_warmup(&mut self, warmup: u64) {
        self.to_warm = warmup;
    }

    /// Whether a [`WarmTrigger::BeforeFirstScored`] warm sample is still
    /// outstanding (the fold never scored); such callers sample at exit.
    #[must_use]
    pub fn warm_pending(&self) -> bool {
        self.probe.as_ref().is_some_and(|p| p.warm_pending)
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
}

/// View a concrete predictor as `&dyn Predictor` for read-only probe
/// samples, without forcing the fold itself through a vtable.
trait AsDynPredictor {
    fn as_dyn_predictor(&self) -> &dyn Predictor;
}

impl<P: Predictor + 'static> AsDynPredictor for P {
    fn as_dyn_predictor(&self) -> &dyn Predictor {
        self
    }
}

impl AsDynPredictor for dyn Predictor + 'static {
    fn as_dyn_predictor(&self) -> &dyn Predictor {
        self
    }
}

/// Counts one indirect event off the warmup prefix: `true` when the event
/// is scored, `false` while the prefix lasts.
fn take_scored(to_warm: &mut u64) -> bool {
    if *to_warm > 0 {
        *to_warm -= 1;
        false
    } else {
        true
    }
}

/// The shared fold skeleton: `step` performs one fused
/// predict(-when-scored)+train step and returns the prediction. The fast
/// path (no probe) is branch-light; the probed path replays the probe
/// layer's exact event protocol.
fn fold_events<P, F>(p: &mut P, events: &[TraceEvent], scorer: &mut ChunkScorer<'_>, mut step: F)
where
    P: Predictor + AsDynPredictor + ?Sized,
    F: FnMut(&mut P, Addr, Addr, bool) -> Option<Addr>,
{
    let ChunkScorer {
        to_warm,
        scored_seen,
        indirect,
        mispredicted,
        probe,
    } = scorer;
    match probe {
        None => {
            for event in events {
                match event {
                    TraceEvent::Indirect(b) => {
                        let scored = take_scored(to_warm);
                        let predicted = step(p, b.pc, b.target, scored);
                        if scored {
                            *indirect += 1;
                            if predicted != Some(b.target) {
                                *mispredicted += 1;
                            }
                        }
                    }
                    TraceEvent::Cond(b) => p.observe_cond(b.pc, b.outcome()),
                }
            }
        }
        Some(probe) => {
            for event in events {
                match event {
                    TraceEvent::Indirect(b) => {
                        let scored = take_scored(to_warm);
                        // This event exhausts the warmup prefix.
                        let crossed = !scored && *to_warm == 0;
                        if scored && probe.warm_pending {
                            probe.warm_pending = false;
                            probe.sink.sample("warm", p.as_dyn_predictor());
                        }
                        let fp = if probe.fingerprints {
                            p.probe_key_fingerprint(b.pc)
                        } else {
                            None
                        };
                        let predicted = step(p, b.pc, b.target, scored);
                        if scored {
                            *scored_seen += 1;
                            *indirect += 1;
                            if predicted != Some(b.target) {
                                *mispredicted += 1;
                            }
                            probe.sink.score(b.pc, predicted, b.target, fp);
                        }
                        probe.sink.note_trained(fp);
                        if crossed {
                            if probe.warm == WarmTrigger::AtCrossing {
                                probe.sink.sample("warm", p.as_dyn_predictor());
                            }
                        } else if scored {
                            if let Some(n) = probe.interval {
                                if scored_seen.is_multiple_of(n) {
                                    probe.sink.sample("interval", p.as_dyn_predictor());
                                }
                            }
                        }
                    }
                    TraceEvent::Cond(b) => p.observe_cond(b.pc, b.outcome()),
                }
            }
        }
    }
}

/// Folds a chunk through a borrowed `dyn Predictor`, one virtual
/// [`Predictor::step`] per indirect event (looking up only when scored) —
/// the path [`FoldKernel::Dyn`] and borrowed-predictor callers run on. For
/// a predictor on the default `step` this is the legacy predict-then-update
/// sequence every kernel variant must match byte for byte.
pub fn fold_dyn_chunk(
    p: &mut (dyn Predictor + 'static),
    events: &[TraceEvent],
    scorer: &mut ChunkScorer<'_>,
) {
    fold_events(p, events, scorer, |p, pc, actual, scored| {
        p.step(pc, actual, scored)
    });
}

/// The probe-free fold skeleton over indirect branches whose keys (or
/// lookups) were built ahead: `branches` yields each indirect event's
/// address and target, and `step` gets the event's index among them (the
/// index of its key or record), its address and target, and whether it is
/// scored, and returns the prediction. Conditional events never reach it:
/// whoever built the keys ran the history over them.
///
/// # Panics
///
/// Panics if `scorer` carries a probe, whose samples read the live
/// history mid-chunk.
pub(crate) fn fold_prekeyed<F>(
    branches: impl Iterator<Item = (Addr, Addr)>,
    scorer: &mut ChunkScorer<'_>,
    mut step: F,
) where
    F: FnMut(usize, Addr, Addr, bool) -> Option<Addr>,
{
    assert!(
        scorer.probe.is_none(),
        "a probed fold reads the live history"
    );
    for (i, (pc, actual)) in branches.enumerate() {
        let scored = take_scored(&mut scorer.to_warm);
        let predicted = step(i, pc, actual, scored);
        if scored {
            scorer.indirect += 1;
            if predicted != Some(actual) {
                scorer.mispredicted += 1;
            }
        }
    }
}

/// The address and target of each indirect event in `events`, in order.
pub(crate) fn indirect_branches(events: &[TraceEvent]) -> impl Iterator<Item = (Addr, Addr)> + '_ {
    events
        .iter()
        .filter_map(TraceEvent::as_indirect)
        .map(|b| (b.pc, b.target))
}

/// Folds a chunk through a borrowed [`TwoLevelPredictor`] on the
/// monomorphized path — the [`FoldKernel::TwoLevel`] fold, also used by
/// analysis folds (miss classification, pattern censuses) that keep
/// ownership of their predictor instead of wrapping it in a
/// [`FoldKernel`].
///
/// Over a full-key unbounded table an unprobed fold runs in two passes:
/// first the key and hash tag of every indirect event in the chunk, then
/// the probes and training over those keys. The history depends only on
/// the events, so the keys are exactly what the per-event step would
/// compute. A fold with a [`ProbeSink`] keeps the per-event `fused_step`,
/// because its mid-chunk samples read the live history, and so does a
/// compressed key here; a pass shares those through
/// [`KeyStreams`](crate::KeyStreams) instead.
pub fn fold_two_level_chunk(
    p: &mut TwoLevelPredictor,
    events: &[TraceEvent],
    scorer: &mut ChunkScorer<'_>,
) {
    if scorer.probe.is_none() {
        if let Some((table, batch, rule)) = p.batch_keys(events) {
            let width = table.key_words();
            fold_prekeyed(indirect_branches(events), scorer, |i, _, actual, scored| {
                let (key, tag) = batch.key(i, width);
                table
                    .lookup_update_tagged(key, tag, actual, rule, scored)
                    .map(|h| h.target)
            });
            return;
        }
    }
    fold_events(p, events, scorer, |p, pc, actual, scored| {
        p.fused_step(pc, actual, scored).map(|h| h.target)
    });
}

/// An enum-dispatched simulation kernel: the hot predictor families as
/// concrete variants (BTB configurations build [`TwoLevelPredictor`]s with
/// path length zero, so `TwoLevel` covers them and every §3–§5 table
/// organisation; `Hybrid`/`Bpst` cover the fig17 metapredictors, and
/// `Multi`/`Cascade`/`SharedTable` the §8.1 composites), plus a
/// [`Dyn`](FoldKernel::Dyn) fallback for everything else. Build one from a
/// configuration with
/// [`PredictorConfig::build_kernel`](crate::PredictorConfig::build_kernel),
/// or wrap any boxed predictor with [`from_boxed`](FoldKernel::from_boxed).
pub enum FoldKernel {
    /// A monomorphized two-level predictor (BTBs included: path length 0).
    TwoLevel(TwoLevelPredictor),
    /// A monomorphized confidence-arbitrated hybrid (§6).
    Hybrid(HybridPredictor),
    /// A monomorphized BPST-arbitrated hybrid (§6.1 alternative).
    Bpst(BpstMetaPredictor),
    /// A monomorphized hybrid of three or more components (§8.1).
    Multi(MultiHybridPredictor),
    /// A monomorphized PPM-style cascade (§7, §8.1).
    Cascade(CascadePredictor),
    /// A monomorphized shared-table hybrid (§8.1).
    SharedTable(SharedTableHybrid),
    /// Fallback: any predictor, driven through one virtual
    /// [`Predictor::step`] per event.
    Dyn(Box<dyn Predictor>),
}

impl FoldKernel {
    /// Wraps an already-built predictor in the fallback variant.
    #[must_use]
    pub fn from_boxed(p: Box<dyn Predictor>) -> Self {
        FoldKernel::Dyn(p)
    }

    /// Whether this kernel folds through a monomorphized variant (`false`
    /// for the [`Dyn`](FoldKernel::Dyn) fallback).
    #[must_use]
    pub fn is_monomorphized(&self) -> bool {
        !matches!(self, FoldKernel::Dyn(_))
    }

    /// The kernel viewed as a predictor (for names, snapshots, storage).
    #[must_use]
    pub fn as_predictor(&self) -> &dyn Predictor {
        match self {
            FoldKernel::TwoLevel(p) => p,
            FoldKernel::Hybrid(p) => p,
            FoldKernel::Bpst(p) => p,
            FoldKernel::Multi(p) => p,
            FoldKernel::Cascade(p) => p,
            FoldKernel::SharedTable(p) => p,
            FoldKernel::Dyn(p) => &**p,
        }
    }

    /// Mutable predictor view (for `reset`, direct training in tests).
    pub fn as_predictor_mut(&mut self) -> &mut (dyn Predictor + 'static) {
        match self {
            FoldKernel::TwoLevel(p) => p,
            FoldKernel::Hybrid(p) => p,
            FoldKernel::Bpst(p) => p,
            FoldKernel::Multi(p) => p,
            FoldKernel::Cascade(p) => p,
            FoldKernel::SharedTable(p) => p,
            FoldKernel::Dyn(p) => &mut **p,
        }
    }

    /// Folds one chunk of events: a single dispatch on the variant, then a
    /// monomorphized per-event loop (fused key/probe/train steps), scoring
    /// into `scorer`. Byte-identical to replaying the chunk through
    /// [`fold_dyn_chunk`].
    pub fn fold_chunk(&mut self, events: &[TraceEvent], scorer: &mut ChunkScorer<'_>) {
        match self {
            FoldKernel::TwoLevel(p) => fold_two_level_chunk(p, events, scorer),
            FoldKernel::Hybrid(p) => fold_events(p, events, scorer, |p, pc, actual, scored| {
                p.fused_step(pc, actual, scored).map(|h| h.target)
            }),
            FoldKernel::Bpst(p) => fold_events(p, events, scorer, |p, pc, actual, scored| {
                p.fused_step(pc, actual, scored)
            }),
            FoldKernel::Multi(p) => fold_events(p, events, scorer, |p, pc, actual, scored| {
                p.step(pc, actual, scored)
            }),
            FoldKernel::Cascade(p) => fold_events(p, events, scorer, |p, pc, actual, scored| {
                p.step(pc, actual, scored)
            }),
            FoldKernel::SharedTable(p) => {
                fold_events(p, events, scorer, |p, pc, actual, scored| {
                    p.step(pc, actual, scored)
                })
            }
            FoldKernel::Dyn(p) => fold_dyn_chunk(&mut **p, events, scorer),
        }
    }
}

impl std::fmt::Debug for FoldKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let variant = match self {
            FoldKernel::TwoLevel(_) => "TwoLevel",
            FoldKernel::Hybrid(_) => "Hybrid",
            FoldKernel::Bpst(_) => "Bpst",
            FoldKernel::Multi(_) => "Multi",
            FoldKernel::Cascade(_) => "Cascade",
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
            let target = 0x900 + u32::try_from(i % 3).unwrap() * 0x100;
            t.push_indirect(a(site), a(target), BranchKind::Switch);
            if i % 5 == 0 {
                t.push_cond(a(0x40), a(0x60), i % 2 == 0);
            }
        }
        t
    }

    /// Folds trace events through the kernel and through the legacy
    /// per-event dyn sequence, returning both (indirect, mispredicted)
    /// pairs.
    fn both_folds(cfg: &PredictorConfig, warmup: u64) -> ((u64, u64), (u64, u64)) {
        let trace = mixed_trace(400);
        let mut kernel = cfg.build_kernel();
        let mut scorer = ChunkScorer::new(warmup);
        kernel.fold_chunk(trace.events(), &mut scorer);

        let mut legacy = cfg.build();
        let mut dyn_scorer = ChunkScorer::new(warmup);
        fold_dyn_chunk(legacy.as_mut(), trace.events(), &mut dyn_scorer);
        (
            (scorer.indirect(), scorer.mispredicted()),
            (dyn_scorer.indirect(), dyn_scorer.mispredicted()),
        )
    }

    #[test]
    fn kernel_matches_dyn_fold_across_families() {
        for (cfg, monomorphized) in [
            (PredictorConfig::btb(), true),
            (PredictorConfig::btb_2bc(), true),
            (PredictorConfig::unconstrained(4), true),
            (PredictorConfig::practical(2, 64, 4), true),
            (PredictorConfig::tagless(2, 64), true),
            (PredictorConfig::full_assoc(2, 64), true),
            (PredictorConfig::hybrid(3, 1, 64, 4), true),
            (PredictorConfig::bpst(3, 1, 64, 4), true),
        ] {
            assert_eq!(cfg.build_kernel().is_monomorphized(), monomorphized);
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
