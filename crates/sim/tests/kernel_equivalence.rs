//! The fold-kernel layer's one promise: folding through the chunk kernels,
//! the overridden `Predictor::step`s and the batched full-key pass changes
//! *nothing* observable against the predict-then-update sequence — not the
//! scored `RunStats` at any probe level, in the sequential fold or either
//! library pipeline, and not the sequential fold's probe payloads.
//!
//! The grid test drives every benchmark through every kernel family (BTB,
//! tagless, set-associative, fully-associative, unbounded, a fig17 hybrid,
//! a BPST metapredictor) plus a `Dyn`-fallback extension predictor; the
//! `ext` test pins every overridden `Predictor::step` to the explicit
//! predict-then-update loop; the probe test pins payload equality under
//! `IBP_PROBE=deep` against a fold on the default `step`; the pipeline
//! test covers the sequential fold and both library pipelines × all three
//! probe levels in one sweep, and that the pipelines never probe. The trie test
//! pins the sweep engine's one-walk fold of a path-length family to each
//! member's own kernel fold, and the keyed test pins a pass whose
//! compressed-key lanes fold through one component bank, sharing key
//! streams and component tables, to each lane's legacy fold.

use std::sync::{Arc, Mutex, MutexGuard};

use ibp_core::ext::TargetCache;
use ibp_core::snapshot::Snapshot;
use ibp_core::{
    ChunkScorer, CompressedKeySpec, FoldKernel, HistoryElement, HistorySharing, HybridPredictor,
    KeyScheme, KeyStreams, KeyedLane, MetaSpec, PathTrie, PatternCompressor, Predictor,
    PredictorConfig, TableSharing, TwoLevelPredictor, UpdateRule,
};
use ibp_obs::json::Json;
use ibp_obs::{journal, Kind, Record};
use ibp_sim::component::simulate_source_components;
use ibp_sim::experiments::{ext, fig17};
use ibp_sim::probe::{self, ProbePolicy};
use ibp_sim::shard::simulate_source_sharded;
use ibp_sim::{simulate_kernel, simulate_source, simulate_source_kernels, trie_stats, RunStats};
use ibp_trace::{Addr, Trace, TraceEvent};
use ibp_workload::Benchmark;

/// The representative configuration set: one per table organisation the
/// paper sweeps, plus both hybrid arbitration schemes. Every one of these
/// builds a concrete kernel variant.
fn kernel_configs() -> Vec<PredictorConfig> {
    vec![
        PredictorConfig::btb_2bc(),
        PredictorConfig::compressed_unbounded(3)
            .with_entries(512)
            .with_associativity(ibp_core::Associativity::Tagless),
        PredictorConfig::practical(3, 1024, 4),
        PredictorConfig::compressed_unbounded(2)
            .with_entries(256)
            .with_associativity(ibp_core::Associativity::Full),
        PredictorConfig::compressed_unbounded(4),
        PredictorConfig::hybrid(6, 2, 256, 4),
        PredictorConfig::bpst(3, 0, 128, 2),
    ]
}

/// A three-stage cascade from the extension zoo: no config kind maps to
/// it, so it exercises the boxed `Dyn` fallback arm end to end.
fn dyn_fallback() -> Box<dyn Predictor> {
    Box::new(HybridPredictor::new(
        vec![
            TwoLevelPredictor::set_assoc(CompressedKeySpec::practical(6), 128, 4),
            TwoLevelPredictor::set_assoc(CompressedKeySpec::practical(3), 128, 4),
            TwoLevelPredictor::set_assoc(CompressedKeySpec::practical(1), 256, 4),
        ],
        MetaSpec::FirstHit,
    ))
}

/// The journal sink and the probe override are process-global: a fold in
/// one test would journal probe records into another test's capture, so
/// every test that folds holds this lock.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The legacy result, spelled out: for every indirect event `predict` when
/// scored, then `update`; conditional events go to `observe_cond`. It runs
/// neither a fold nor `Predictor::step`, so it is a reference for the
/// default `step` and for every override alike.
fn legacy(trace: &Trace, predictor: &mut dyn Predictor, warmup: u64) -> RunStats {
    legacy_events(trace.events(), predictor, warmup)
}

fn legacy_events(events: &[TraceEvent], predictor: &mut dyn Predictor, warmup: u64) -> RunStats {
    let mut stats = RunStats::default();
    let mut to_warm = warmup;
    for event in events {
        match event {
            TraceEvent::Indirect(b) => {
                if to_warm > 0 {
                    to_warm -= 1;
                } else {
                    stats.indirect += 1;
                    if predictor.predict(b.pc) != Some(b.target) {
                        stats.mispredicted += 1;
                    }
                }
                predictor.update(b.pc, b.target);
            }
            TraceEvent::Cond(b) => predictor.observe_cond(b.pc, b.outcome()),
        }
    }
    stats
}

/// The borrowed-predictor `Dyn` lane (`simulate_source`): one
/// `Predictor::step` per event, and unlike [`legacy`] it feeds the probe
/// layer.
fn dyn_lane(trace: &Trace, predictor: &mut (dyn Predictor + 'static), warmup: u64) -> RunStats {
    simulate_source(&mut trace.cursor(), predictor, warmup).expect("in-memory source")
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

    fn snapshot(&self) -> Option<Snapshot> {
        self.0.snapshot()
    }

    fn probe_key_fingerprint(&self, pc: Addr) -> Option<u64> {
        self.0.probe_key_fingerprint(pc)
    }
}

/// The default chunk capacity `c`.
fn chunk_capacity() -> usize {
    usize::try_from(ibp_trace::chunk_events()).expect("chunk fits usize")
}

/// A warmup that ends mid-chunk at fills c−1, c and c+1 on `events`.
fn mid_chunk_warmup(events: &[TraceEvent]) -> u64 {
    let c = chunk_capacity();
    let warm = c as u64 / 2 + 37;
    let last_warm = events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.as_indirect().is_some())
        .nth(warm as usize - 1)
        .expect("trace longer than the warmup")
        .0;
    for fill in [c - 1, c, c + 1] {
        assert_ne!(
            last_warm % fill,
            fill - 1,
            "test premise: warmup ends mid-chunk"
        );
    }
    warm
}

fn scorer_stats(s: &ChunkScorer<'_>) -> RunStats {
    RunStats {
        indirect: s.indirect(),
        mispredicted: s.mispredicted(),
    }
}

/// Every benchmark × every kernel family × warmups 0 and 150: the
/// monomorphized fold must reproduce the legacy loop's `RunStats` exactly.
#[test]
fn kernel_matches_dyn_fold_on_every_benchmark() {
    let _guard = serial();
    let traces: Vec<(Benchmark, ibp_trace::Trace)> = Benchmark::ALL
        .iter()
        .map(|&b| (b, b.trace_with_len(2_500)))
        .collect();
    for cfg in kernel_configs() {
        for (b, trace) in &traces {
            for warmup in [0u64, 150] {
                let expected = legacy(trace, cfg.build().as_mut(), warmup);
                let mut kernel = cfg.build_kernel();
                assert!(
                    !matches!(kernel, FoldKernel::Dyn(_)),
                    "test premise: {} builds a concrete variant",
                    cfg.cache_key()
                );
                let got = simulate_kernel(&mut trace.cursor(), &mut kernel, warmup)
                    .expect("in-memory source");
                assert_eq!(
                    got,
                    expected,
                    "{} on {b} with warmup {warmup} diverges",
                    cfg.cache_key()
                );
            }
        }
    }
}

/// The `Dyn` fallback arm: a predictor no config kind covers still runs
/// through the kernel driver and still matches the legacy fold.
#[test]
fn dyn_fallback_arm_matches_legacy_fold() {
    let _guard = serial();
    for b in [Benchmark::Ixx, Benchmark::SelfVm, Benchmark::Gcc] {
        let trace = b.trace_with_len(3_000);
        for warmup in [0u64, 200] {
            let expected = legacy(&trace, dyn_fallback().as_mut(), warmup);
            let mut kernel = FoldKernel::from_boxed(dyn_fallback());
            assert!(matches!(kernel, FoldKernel::Dyn(_)));
            let got = simulate_kernel(&mut trace.cursor(), &mut kernel, warmup)
                .expect("in-memory source");
            assert_eq!(
                got, expected,
                "dyn fallback on {b} warmup {warmup} diverges"
            );
        }
    }
}

/// Over full-key unbounded tables an unprobed kernel fold computes a whole
/// chunk's keys before its first probe. That must be invisible at every
/// chunk boundary: for each unbounded configuration the §3–§4 sweeps use,
/// the kernel fold's `RunStats` equal the explicit predict-then-update
/// loop's at chunk fill sizes 1, c−1, c and c+1 (c = the default chunk
/// capacity), cold and with a warmup that ends mid-chunk. The compressed
/// config takes the per-event fused step here; a pass folds it from a key
/// stream (the keyed test below).
#[test]
fn batched_unbounded_fold_matches_dyn_fold_at_every_chunk_fill() {
    let _guard = serial();
    let c = chunk_capacity();
    let trace = Benchmark::Gcc.trace_with_len(2 * c as u64 + 500);
    let events = trace.events();
    assert!(
        events.iter().any(|e| e.as_cond().is_some()),
        "test premise: the trace carries conditional branches"
    );
    let warm = mid_chunk_warmup(events);
    let configs = [
        PredictorConfig::unconstrained(0),
        PredictorConfig::unconstrained(1),
        PredictorConfig::unconstrained(6),
        PredictorConfig::unconstrained(18),
        PredictorConfig::unconstrained(6).with_history_sharing(HistorySharing::PER_ADDRESS),
        PredictorConfig::unconstrained(6).with_cond_targets(true),
        PredictorConfig::unconstrained(6).with_history_element(HistoryElement::AddressXorTarget),
        PredictorConfig::unconstrained(6).with_precision(4),
        PredictorConfig::compressed_unbounded(3),
    ];
    for cfg in &configs {
        for warmup in [0, warm] {
            let expected = legacy_events(events, cfg.build().as_mut(), warmup);
            for fill in [1, c - 1, c, c + 1] {
                let mut kernel = cfg.build_kernel();
                let mut scorer = ChunkScorer::new(warmup);
                for chunk in events.chunks(fill) {
                    kernel.fold_chunk(chunk, &mut scorer);
                }
                assert_eq!(
                    scorer_stats(&scorer),
                    expected,
                    "{} warmup={warmup} fill={fill}",
                    cfg.cache_key()
                );
            }
        }
    }
}

/// A path-length family as a config per path length, with a label for
/// failure messages.
type Family = (&'static str, fn(usize) -> PredictorConfig);

/// One family per full-key parameter the trie must carry: table sharing,
/// precision, conditional targets, the history element and the update
/// rule, then all of the non-default ones at once. A trie keeps one
/// global history, so every family is over global history.
fn trie_families() -> Vec<Family> {
    vec![
        (
            "global history, per-address tables",
            PredictorConfig::unconstrained,
        ),
        ("per-set tables h=9", |p| {
            PredictorConfig::unconstrained(p).with_table_sharing(TableSharing::per_set(9))
        }),
        ("one global table", |p| {
            PredictorConfig::unconstrained(p).with_table_sharing(TableSharing::GLOBAL)
        }),
        ("1-bit precision", |p| {
            PredictorConfig::unconstrained(p).with_precision(1)
        }),
        ("8-bit precision", |p| {
            PredictorConfig::unconstrained(p).with_precision(8)
        }),
        ("conditional targets", |p| {
            PredictorConfig::unconstrained(p).with_cond_targets(true)
        }),
        ("address xor target", |p| {
            PredictorConfig::unconstrained(p).with_history_element(HistoryElement::AddressXorTarget)
        }),
        ("always-update", |p| {
            PredictorConfig::unconstrained(p).with_update_rule(UpdateRule::Always)
        }),
        ("h=9, 8-bit, conditional targets, always-update", |p| {
            PredictorConfig::unconstrained(p)
                .with_table_sharing(TableSharing::per_set(9))
                .with_precision(8)
                .with_cond_targets(true)
                .with_update_rule(UpdateRule::Always)
        }),
    ]
}

/// The member path lengths the sweep engine folds as one trie: Figure 9's
/// 0..=18, Figure 10's 0..=12 and the update-rule ablation's sparse
/// {0, 1, 3, 6, 8}.
fn trie_depths() -> [Vec<usize>; 3] {
    [(0..=18).collect(), (0..=12).collect(), vec![0, 1, 3, 6, 8]]
}

/// A path-length family folded as one prefix trie, depth by depth, scores
/// every member exactly as the member's own kernel lane does, and stores as many
/// keys at each depth as that lane's table: every full-key variation, four
/// benchmarks, chunk fills 1, c−1, c and c+1, cold and with a warmup that
/// ends mid-chunk.
#[test]
fn path_trie_matches_each_members_kernel_at_every_chunk_fill() {
    let _guard = serial();
    let c = chunk_capacity();
    let traces: Vec<(Benchmark, Trace)> = [
        Benchmark::Ixx,
        Benchmark::SelfVm,
        Benchmark::Gcc,
        Benchmark::Perl,
    ]
    .iter()
    .map(|&b| (b, b.trace_with_len(2 * c as u64 + 500)))
    .collect();
    assert!(
        traces
            .iter()
            .all(|(_, t)| t.events().iter().any(|e| e.as_cond().is_some())),
        "test premise: every trace carries conditional branches"
    );
    for (label, config) in trie_families() {
        let (family, _) = config(0).path_family().expect("a full-key family");
        for p in 0..=ibp_core::MAX_PATH {
            assert_eq!(config(p).path_family(), Some((family, p)), "{label}: p={p}");
        }
        for (b, trace) in &traces {
            let events = trace.events();
            for warmup in [0, mid_chunk_warmup(events)] {
                let lanes: Vec<(RunStats, u64)> = (0..=ibp_core::MAX_PATH)
                    .map(|p| {
                        let mut kernel = config(p).build_kernel();
                        let stats = simulate_kernel(&mut trace.cursor(), &mut kernel, warmup)
                            .expect("in-memory source");
                        let FoldKernel::TwoLevel(lane) = kernel else {
                            panic!("test premise: {label} folds as a two-level kernel");
                        };
                        (stats, lane.stored_patterns() as u64)
                    })
                    .collect();
                for depths in trie_depths() {
                    let expected: Vec<RunStats> = depths.iter().map(|&d| lanes[d].0).collect();
                    for fill in [1, c - 1, c, c + 1] {
                        let mut trie = PathTrie::new(family, &depths, warmup);
                        for chunk in events.chunks(fill) {
                            trie.fold_chunk(chunk);
                        }
                        trie.finish();
                        let context =
                            format!("{label}, p in {depths:?}, {b}, warmup {warmup}, fill {fill}");
                        assert_eq!(trie_stats(&trie), expected, "{context}: stats");
                        let deepest = depths[depths.len() - 1];
                        for (d, &(_, patterns)) in lanes.iter().enumerate().take(deepest + 1) {
                            assert_eq!(
                                trie.stored_patterns(d),
                                patterns,
                                "{context}: keys at p={d}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// One lane of the keyed suite: a label, the kernel the pass folds, and
/// the predictor the legacy loop drives as its reference.
struct KeyedCase {
    label: String,
    kernel: Box<dyn Fn() -> FoldKernel>,
    legacy: Box<dyn Fn() -> Box<dyn Predictor>>,
}

impl KeyedCase {
    fn config(cfg: PredictorConfig) -> Self {
        let reference = cfg.clone();
        KeyedCase {
            label: cfg.cache_key(),
            kernel: Box::new(move || cfg.build_kernel()),
            legacy: Box::new(move || reference.build()),
        }
    }

    fn custom<P: Predictor + 'static>(
        label: String,
        make: impl Fn() -> P + Clone + 'static,
        wrap: fn(P) -> FoldKernel,
    ) -> Self {
        let reference = make.clone();
        KeyedCase {
            label,
            kernel: Box::new(move || wrap(make())),
            legacy: Box::new(move || Box::new(reference())),
        }
    }
}

/// One pass's lanes, most of them sharing key recipes or whole component
/// tables with another:
/// * every table organisation behind `p = 3` keys, hybrids at confidence
///   widths 1 and 4 on one geometry, and pairs that share the
///   always-update rule, conditional targets, address-xor-target
///   elements, per-set history (s = 8), the concat scheme and the
///   xor-fold and shift-xor compressors, and both BTBs (`p = 0`
///   compressed keys);
/// * one component table read by a single lane, a hybrid, a BPST and a
///   multi-hybrid stage (`p = 3` and `p = 1` at 256 entries, 4-way);
/// * `ext`'s hybrid, multi-hybrid, cascade and shared-table hybrid at
///   every budget, whose stages share tables with each other, with the
///   hybrid's second component and with the 512-entry `p = 3` lane;
/// * a BTB trained on `prefix` before the pass, whose table is not empty,
///   beside a fresh one of the same shape.
///
/// The last four build their own keys: full-key predictors, a hybrid of
/// full-key components, and ITTAGE-lite.
fn keyed_pass_cases(prefix: &[TraceEvent]) -> Vec<KeyedCase> {
    let s8 = HistorySharing::per_set(8);
    let xor = HistoryElement::AddressXorTarget;
    let mut cases: Vec<KeyedCase> = [
        PredictorConfig::practical(3, 512, 1),
        PredictorConfig::practical(3, 512, 2),
        PredictorConfig::practical(3, 512, 4),
        PredictorConfig::full_assoc(3, 512),
        PredictorConfig::tagless(3, 512),
        PredictorConfig::compressed_unbounded(3),
        PredictorConfig::hybrid(3, 1, 256, 4).with_confidence_bits(1),
        PredictorConfig::hybrid(3, 1, 256, 4).with_confidence_bits(4),
        PredictorConfig::bpst(3, 1, 256, 4),
        PredictorConfig::practical(3, 256, 4),
        PredictorConfig::hybrid(3, 1, 256, 4),
        PredictorConfig::practical(3, 256, 4).with_update_rule(UpdateRule::Always),
        PredictorConfig::hybrid(3, 1, 256, 2).with_update_rule(UpdateRule::Always),
        PredictorConfig::practical(3, 512, 4).with_cond_targets(true),
        PredictorConfig::hybrid(3, 1, 256, 4).with_cond_targets(true),
        PredictorConfig::practical(3, 512, 4).with_history_element(xor),
        PredictorConfig::bpst(3, 1, 256, 4).with_history_element(xor),
        PredictorConfig::practical(3, 512, 4).with_history_sharing(s8),
        PredictorConfig::tagless(3, 1024).with_history_sharing(s8),
        PredictorConfig::practical(2, 512, 4).with_key_scheme(KeyScheme::Concat),
        PredictorConfig::full_assoc(2, 256).with_key_scheme(KeyScheme::Concat),
        PredictorConfig::practical(4, 512, 4).with_compressor(PatternCompressor::XorFold),
        PredictorConfig::tagless(4, 512).with_compressor(PatternCompressor::XorFold),
        PredictorConfig::practical(4, 512, 4).with_compressor(PatternCompressor::ShiftXor),
        PredictorConfig::practical(4, 1024, 2).with_compressor(PatternCompressor::ShiftXor),
        PredictorConfig::btb(),
        PredictorConfig::btb_2bc(),
    ]
    .into_iter()
    .map(KeyedCase::config)
    .collect();
    cases.push(KeyedCase::custom(
        "multi-hybrid over the p = 3 and p = 1 256-entry tables".to_string(),
        || {
            HybridPredictor::new(
                vec![
                    TwoLevelPredictor::set_assoc(CompressedKeySpec::practical(3), 256, 4),
                    TwoLevelPredictor::set_assoc(CompressedKeySpec::practical(1), 256, 4),
                    TwoLevelPredictor::set_assoc(CompressedKeySpec::practical(1), 512, 4),
                ],
                MetaSpec::Confidence,
            )
        },
        FoldKernel::Hybrid,
    ));
    for total in ext::BUDGETS {
        let hybrid = PredictorConfig::hybrid(5, 1, total / 2, 4);
        cases.push(KeyedCase::config(hybrid));
        cases.push(KeyedCase::custom(
            format!("ext multi-hybrid {total}"),
            move || ext::multi_hybrid(total),
            FoldKernel::Hybrid,
        ));
        cases.push(KeyedCase::custom(
            format!("ext cascade {total}"),
            move || ext::cascade(total),
            FoldKernel::Hybrid,
        ));
        cases.push(KeyedCase::custom(
            format!("ext shared-table {total}"),
            move || ext::shared_table(total),
            FoldKernel::SharedTable,
        ));
    }
    let trained = prefix.to_vec();
    let legacy_trained = prefix.to_vec();
    cases.push(KeyedCase {
        label: "BTB-2bc trained before the pass".to_string(),
        kernel: Box::new(move || {
            let mut kernel = PredictorConfig::btb_2bc().build_kernel();
            legacy_events(&trained, kernel.as_predictor_mut(), u64::MAX);
            kernel
        }),
        legacy: Box::new(move || {
            let mut p = PredictorConfig::btb_2bc().build();
            legacy_events(&legacy_trained, p.as_mut(), u64::MAX);
            p
        }),
    });
    cases.extend(
        [
            PredictorConfig::unconstrained(0),
            PredictorConfig::unconstrained(3).with_cond_targets(true),
            PredictorConfig::hybrid(3, 1, 256, 4)
                .with_unbounded_table()
                .with_precision(8),
        ]
        .into_iter()
        .map(KeyedCase::config),
    );
    cases.push(KeyedCase {
        label: "ittage-lite 2048".to_string(),
        kernel: Box::new(|| FoldKernel::from_boxed(Box::new(ext::ittage_lite(2048)))),
        legacy: Box::new(|| Box::new(ext::ittage_lite(2048))),
    });
    cases
}

/// The lanes of [`keyed_pass_cases`] that build their own keys.
const UNKEYED_LANES: usize = 4;

/// The distinct key recipes of [`keyed_pass_cases`]: `p = 3` and `p = 1`
/// keys plain, with conditional targets and with address-xor-target
/// elements; `p = 3` per-set; `p = 2` concat; `p = 4` xor-fold and
/// shift-xor; `p = 0`; and `ext`'s `p = 6` and `p = 5`.
const KEY_STREAMS: usize = 13;

/// The distinct component tables of [`keyed_pass_cases`]: the first
/// group's 31 (its plain `p = 3` and `p = 1` tables of 256 entries, 4-way,
/// are read by a BPST, a single lane, a hybrid and the multi-hybrid), the
/// multi-hybrid's 512-entry stage, 11 of `ext`'s 12 (its 512-entry
/// `p = 3` stage is the first group's `practical(3, 512, 4)`), and the
/// trained BTB's.
const COMPONENTS: usize = 44;

/// Folds `kernels` over `events` in chunks of `fill` events as one pass
/// does: the keyed kernels through one component bank, the rest on their
/// own folds, then each keyed kernel takes its components' tables and
/// histories.
fn keyed_pass(
    kernels: &mut [FoldKernel],
    events: &[TraceEvent],
    fill: usize,
    warmup: u64,
) -> Vec<RunStats> {
    let mut bank = KeyStreams::new(warmup);
    let mut lanes: Vec<_> = kernels
        .iter_mut()
        .map(|k| (bank.attach(k), ChunkScorer::new(warmup)))
        .collect();
    for chunk in events.chunks(fill) {
        bank.fold_chunk(chunk);
        for (lane, scorer) in &mut lanes {
            if let Err(kernel) = lane {
                kernel.fold_chunk(chunk, scorer);
            }
        }
    }
    let stats = lanes
        .iter()
        .map(|(lane, scorer)| match lane {
            Ok(keyed) => scorer_stats(bank.scorer(*keyed)),
            Err(_) => scorer_stats(scorer),
        })
        .collect();
    bank.sync();
    stats
}

/// A pass whose compressed-key lanes fold through one component bank
/// scores every lane exactly as the legacy predict-then-update loop scores
/// its predictor, and leaves every kernel predicting what the legacy
/// predictor predicts at the trace's branch sites: four benchmarks, chunk
/// fills 1, c−1, c and c+1, cold and with a warmup that ends mid-chunk,
/// and once through `simulate_source_kernels` at its own chunking.
#[test]
fn keyed_pass_matches_each_lanes_legacy_fold_at_every_chunk_fill() {
    let _guard = serial();
    let c = chunk_capacity();
    for b in [
        Benchmark::Ixx,
        Benchmark::SelfVm,
        Benchmark::Gcc,
        Benchmark::Perl,
    ] {
        let trace = b.trace_with_len(2 * c as u64 + 500);
        let events = trace.events();
        assert!(
            events.iter().any(|e| e.as_cond().is_some()),
            "test premise: {b} carries conditional branches"
        );
        let cases = keyed_pass_cases(&events[..1000]);
        let mut premise: Vec<FoldKernel> = cases.iter().map(|case| (case.kernel)()).collect();
        let mut bank = KeyStreams::new(0);
        let keyed = premise
            .iter_mut()
            .filter_map(|k| bank.attach(k).ok())
            .count();
        assert_eq!(
            keyed,
            cases.len() - UNKEYED_LANES,
            "test premise: every compressed-key lane is keyed"
        );
        assert_eq!(
            (bank.len(), bank.components()),
            (KEY_STREAMS, COMPONENTS),
            "test premise: {keyed} lanes share {KEY_STREAMS} streams and {COMPONENTS} tables"
        );
        drop(bank);
        let mut sites: Vec<Addr> = Vec::new();
        for br in events.iter().filter_map(TraceEvent::as_indirect) {
            if !sites.contains(&br.pc) {
                sites.push(br.pc);
            }
        }
        for warmup in [0, mid_chunk_warmup(events)] {
            let mut expected = Vec::new();
            let mut answers = Vec::new();
            for case in &cases {
                let mut reference = (case.legacy)();
                expected.push(legacy_events(events, reference.as_mut(), warmup));
                answers.push(
                    sites
                        .iter()
                        .map(|&pc| reference.predict(pc))
                        .collect::<Vec<_>>(),
                );
            }
            let check = |kernels: &[FoldKernel], stats: &[RunStats], how: &str| {
                for (j, case) in cases.iter().enumerate() {
                    let context = format!("{} on {b}, warmup {warmup}, {how}", case.label);
                    assert_eq!(stats[j], expected[j], "{context}: stats");
                    let got: Vec<Option<Addr>> = sites
                        .iter()
                        .map(|&pc| kernels[j].as_predictor().predict(pc))
                        .collect();
                    assert_eq!(got, answers[j], "{context}: state after the pass");
                }
            };
            for fill in [1, c - 1, c, c + 1] {
                let mut kernels: Vec<FoldKernel> =
                    cases.iter().map(|case| (case.kernel)()).collect();
                let stats = keyed_pass(&mut kernels, events, fill, warmup);
                check(&kernels, &stats, &format!("fill {fill}"));
            }
            let mut kernels: Vec<FoldKernel> = cases.iter().map(|case| (case.kernel)()).collect();
            let stats = simulate_source_kernels(&mut trace.cursor(), &mut kernels, warmup)
                .expect("in-memory source");
            check(&kernels, &stats, "simulate_source_kernels");
        }
    }
}

/// Every fig17 config, both panels with their diagonals, on all 17
/// presets: one bank pass per (panel, benchmark) folds the 169 configs from
/// 26 component tables — the 13 path lengths' hybrid components and the 13
/// diagonal tables — with a warmup that ends mid-trace, and scores each
/// config exactly as its legacy predict-then-update fold.
#[test]
fn fig17_grid_on_the_bank_matches_each_configs_legacy_fold() {
    let _guard = serial();
    let warmup = 700;
    for size in fig17::COMPONENT_SIZES {
        let configs = fig17::surface(size);
        for b in Benchmark::ALL {
            let trace = b.trace_with_len(2_000);
            let mut kernels: Vec<FoldKernel> =
                configs.iter().map(PredictorConfig::build_kernel).collect();
            let mut bank = KeyStreams::new(warmup);
            let lanes: Vec<KeyedLane> = kernels
                .iter_mut()
                .map(|k| {
                    bank.attach(k)
                        .expect("test premise: every fig17 config is keyed")
                })
                .collect();
            assert_eq!(
                bank.components(),
                26,
                "test premise: one fig17 pass folds 26 component tables"
            );
            for chunk in trace.events().chunks(chunk_capacity()) {
                bank.fold_chunk(chunk);
            }
            for (cfg, &lane) in configs.iter().zip(&lanes) {
                assert_eq!(
                    scorer_stats(bank.scorer(lane)),
                    legacy(&trace, cfg.build().as_mut(), warmup),
                    "{} on {b}, warmup {warmup}",
                    cfg.cache_key()
                );
            }
        }
    }
}

/// A predictor factory with a label for failure messages.
type Contender = (String, Box<dyn Fn() -> Box<dyn Predictor>>);

/// The `ext` sweep's contenders at every `experiments::ext` budget — each
/// overrides `Predictor::step` — plus `TargetCache` on the default `step`.
fn ext_contenders() -> Vec<Contender> {
    let mut contenders: Vec<Contender> = Vec::new();
    for total in ext::BUDGETS {
        contenders.push((
            format!("multi-hybrid {total}"),
            Box::new(move || Box::new(ext::multi_hybrid(total))),
        ));
        contenders.push((
            format!("cascade {total}"),
            Box::new(move || Box::new(ext::cascade(total))),
        ));
        contenders.push((
            format!("shared-table {total}"),
            Box::new(move || Box::new(ext::shared_table(total))),
        ));
        contenders.push((
            format!("ittage-lite {total}"),
            Box::new(move || Box::new(ext::ittage_lite(total))),
        ));
    }
    contenders.push((
        "target cache (default step)".to_string(),
        Box::new(|| Box::new(TargetCache::new(9, 512))),
    ));
    contenders
}

/// Every overridden `Predictor::step` against the explicit
/// predict-then-update loop: the `FoldKernel::from_boxed` fold (one `step`
/// per event) must score the same `RunStats` and leave the same state,
/// witnessed by `predict` at every site of the trace afterwards. Three
/// benchmarks, chunk fills 1, c−1, c and c+1, cold and with a warmup that
/// ends mid-chunk.
#[test]
fn ext_steps_match_predict_then_update() {
    let _guard = serial();
    let c = chunk_capacity();
    let contenders = ext_contenders();
    for b in [Benchmark::Ixx, Benchmark::Perl, Benchmark::Gcc] {
        let trace = b.trace_with_len(2 * c as u64 + 500);
        let events = trace.events();
        let mut sites: Vec<Addr> = Vec::new();
        for br in events.iter().filter_map(TraceEvent::as_indirect) {
            if !sites.contains(&br.pc) {
                sites.push(br.pc);
            }
        }
        let warm = mid_chunk_warmup(events);
        for (label, make) in &contenders {
            for warmup in [0, warm] {
                let mut reference = make();
                let expected = legacy_events(events, reference.as_mut(), warmup);
                let answers: Vec<Option<Addr>> =
                    sites.iter().map(|&pc| reference.predict(pc)).collect();
                assert!(
                    answers.iter().any(Option::is_some),
                    "test premise: {label} predicts after training on {b}"
                );
                for fill in [1, c - 1, c, c + 1] {
                    let mut kernel = FoldKernel::from_boxed(make());
                    let mut scorer = ChunkScorer::new(warmup);
                    for chunk in events.chunks(fill) {
                        kernel.fold_chunk(chunk, &mut scorer);
                    }
                    let context = format!("{label} on {b}, warmup {warmup}, fill {fill}");
                    assert_eq!(scorer_stats(&scorer), expected, "{context}: stats");
                    let got: Vec<Option<Addr>> = sites
                        .iter()
                        .map(|&pc| kernel.as_predictor().predict(pc))
                        .collect();
                    assert_eq!(got, answers, "{context}: state after the fold");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Probe-level and scheduling-mode equivalence.
// ---------------------------------------------------------------------------

#[derive(Clone, Default)]
struct Capture(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for Capture {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("capture").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs `body` under a captured journal and forced probe policy, returning
/// the probe records it emitted.
fn probes_under(policy: ProbePolicy, body: impl FnOnce()) -> Vec<Record> {
    let cap = Capture::default();
    journal::install_writer(Box::new(cap.clone()));
    probe::override_policy(Some(policy));
    body();
    probe::override_policy(None);
    journal::uninstall();
    let bytes = cap.0.lock().expect("capture").clone();
    String::from_utf8(bytes)
        .expect("utf8 journal")
        .lines()
        .map(|l| Record::parse(l).expect("parseable record"))
        .filter(|r| r.kind == Kind::Probe)
        .collect()
}

/// The comparable payload of a probe record: its name and fields.
fn payload(r: &Record) -> (String, Vec<(String, Json)>) {
    (r.name.clone(), r.fields.clone())
}

/// The deep probe records of the `Dyn` lane over a [`DefaultStep`] wrapper
/// of `cfg`'s predictor, which runs the default predict-then-update `step`.
fn dyn_probes(cfg: &PredictorConfig, trace: &Trace, warmup: u64) -> Vec<Record> {
    probes_under(ProbePolicy::Deep, || {
        dyn_lane(trace, &mut DefaultStep(cfg.build()), warmup);
    })
}

/// How many of `records` sample `point`.
fn samples_at(records: &[Record], point: &str) -> usize {
    records
        .iter()
        .filter(|r| r.field_str("point") == Some(point))
        .count()
}

/// `IBP_PROBE=deep`: the bank must feed the probe layer the exact same
/// samples, attribution splits and top sites as the `Dyn` lane over a
/// [`DefaultStep`] wrapper — fingerprints, warm/interval/end points,
/// everything in the payload. Each config alone, at 6,000 events and at
/// 20,000, where two interval samples follow the warmup; then one pass of
/// three configs that share component tables, where each config's records
/// must still equal its own fold's.
#[test]
fn deep_probe_payloads_identical_kernel_vs_dyn() {
    let _guard = serial();
    let warmup = 500;
    for (events, intervals) in [(6_000, 0), (20_000, 2)] {
        let trace = Benchmark::Edg.trace_with_len(events);
        for cfg in [
            PredictorConfig::practical(2, 256, 4),
            PredictorConfig::hybrid(5, 1, 256, 4),
            PredictorConfig::bpst(3, 0, 128, 2),
        ] {
            let via_dyn = dyn_probes(&cfg, &trace, warmup);
            let via_kernel = probes_under(ProbePolicy::Deep, || {
                let mut kernel = cfg.build_kernel();
                simulate_kernel(&mut trace.cursor(), &mut kernel, warmup)
                    .expect("in-memory source");
            });
            assert_eq!(
                (
                    samples_at(&via_dyn, "warm"),
                    samples_at(&via_dyn, "interval")
                ),
                (1, intervals),
                "test premise: {} samples the warmup and {intervals} intervals",
                cfg.cache_key()
            );
            assert_eq!(
                via_dyn.iter().map(payload).collect::<Vec<_>>(),
                via_kernel.iter().map(payload).collect::<Vec<_>>(),
                "{} at {events} events: deep probe payloads diverge between folds",
                cfg.cache_key()
            );
        }
    }

    let trace = Benchmark::Edg.trace_with_len(20_000);
    let shared = [
        PredictorConfig::practical(3, 256, 4),
        PredictorConfig::hybrid(3, 1, 256, 4),
        PredictorConfig::bpst(3, 1, 256, 4),
    ];
    let mut kernels: Vec<FoldKernel> = shared.iter().map(PredictorConfig::build_kernel).collect();
    let mut premise: Vec<FoldKernel> = shared.iter().map(PredictorConfig::build_kernel).collect();
    let mut bank = KeyStreams::new(warmup);
    for kernel in &mut premise {
        bank.attach(kernel).expect("test premise: keyed");
    }
    assert_eq!(
        bank.components(),
        2,
        "test premise: five parts share two component tables"
    );
    drop(bank);
    let via_pass = probes_under(ProbePolicy::Deep, || {
        simulate_source_kernels(&mut trace.cursor(), &mut kernels, warmup)
            .expect("in-memory source");
    });
    for cfg in &shared {
        let name = cfg.build().name();
        let via_dyn = dyn_probes(cfg, &trace, warmup);
        assert_eq!(samples_at(&via_dyn, "interval"), 2, "test premise");
        assert_eq!(
            via_pass
                .iter()
                .filter(|r| r.name == name)
                .map(payload)
                .collect::<Vec<_>>(),
            via_dyn.iter().map(payload).collect::<Vec<_>>(),
            "{}: deep probe payloads of a shared pass diverge from its own fold",
            cfg.cache_key()
        );
    }
}

/// The sequential fold and both library pipelines × all three probe levels
/// produce the same scored stats as the legacy sequential fold, and the
/// pipelines fold unprobed: under a captured journal they emit no probe
/// record at any level, though the sequential fold's records show the
/// policy took effect.
#[test]
fn all_sched_modes_match_under_every_probe_level() {
    let _guard = serial();
    let trace = Benchmark::Eqn.trace_with_len(5_000);
    let shardable = PredictorConfig::btb_2bc();
    let routing = shardable.shardable().expect("test premise: shardable");
    let decomposable = PredictorConfig::hybrid(6, 2, 256, 4);
    let d = decomposable
        .decompose()
        .expect("test premise: decomposable");
    for policy in [ProbePolicy::Off, ProbePolicy::On, ProbePolicy::Deep] {
        let mut results: Vec<(String, RunStats, RunStats)> = Vec::new();
        let sequential = probes_under(policy, || {
            // Sequential kernel vs legacy dyn.
            for cfg in [&shardable, &decomposable] {
                let expected = legacy(&trace, cfg.build().as_mut(), 300);
                let mut kernel = cfg.build_kernel();
                let got = simulate_kernel(&mut trace.cursor(), &mut kernel, 300)
                    .expect("in-memory source");
                results.push((format!("sequential {}", cfg.cache_key()), got, expected));
            }
        });
        assert_eq!(
            sequential.is_empty(),
            policy == ProbePolicy::Off,
            "test premise: the sequential fold probes under {policy:?}"
        );
        let pipelines = probes_under(policy, || {
            for shards in [1, 4] {
                let expected = legacy(&trace, shardable.build().as_mut(), 300);
                let make = || shardable.build_kernel();
                let got = simulate_source_sharded(&mut trace.cursor(), &make, routing, shards, 300)
                    .expect("in-memory source");
                results.push((
                    format!("site-shard x{shards} {}", shardable.cache_key()),
                    got,
                    expected,
                ));
            }
            for workers in [1, 2] {
                let expected = legacy(&trace, decomposable.build().as_mut(), 300);
                let got = simulate_source_components(&mut trace.cursor(), &d, workers, 300)
                    .expect("in-memory source");
                results.push((
                    format!("component-fold x{workers} {}", decomposable.cache_key()),
                    got,
                    expected,
                ));
            }
        });
        assert!(
            pipelines.is_empty(),
            "the pipelines emitted {} probe records under {policy:?}",
            pipelines.len()
        );
        for (label, got, expected) in results {
            assert_eq!(got, expected, "{label} diverges under {policy:?}");
        }
    }
}
