//! The component-parallel fold for hybrid predictors.
//!
//! fig17's bounded-table hybrids dominate `repro_all` wall time, and the
//! per-site sharded pipeline ([`crate::shard`]) can never touch them:
//! bounded tables alias across site regions by construction, so
//! [`PredictorConfig::shardable`] refuses every fig17 hybrid. But a hybrid
//! has a second decomposition axis — its *components*. The two component
//! predictors never read each other's state; only the metapredictor needs
//! both, and only through each component's per-event prediction. So:
//!
//! * [`PredictorConfig::decompose`] splits the hybrid config into two
//!   standalone component configs plus a [`MetaSpec`];
//! * a **router** (the calling thread) pulls chunks from the one shared
//!   [`EventSource`] pass and broadcasts each as an [`Arc<TraceChunk>`]
//!   to both component workers over the bounded SPSC queues the shard
//!   pipeline already uses — no event payload is cloned per worker;
//! * each **component worker** owns one [`TwoLevelPredictor`] and folds
//!   every event exactly as it would inside the sequential hybrid
//!   (indirect events update, conditionals `observe_cond`), emitting one
//!   compact [`PredRecord`] per indirect event: hit/miss plus the
//!   predicted target and its confidence, captured *before* the update —
//!   precisely what the sequential predictor's `predict` would have seen;
//! * the **merge fold** (the router again, with a bounded in-flight
//!   window) replays the paired record streams through a [`MetaState`],
//!   the very rule and selector table the sequential hybrid steps through,
//!   consulted and trained in the sequential `predict`-then-`update` order. The
//!   produced [`RunStats`] is therefore byte-identical to the sequential
//!   hybrid fold — not statistically close, identical.
//!
//! Records cover warmup events too: BPST selectors train on *every*
//! update, including the unscored warmup prefix, so the merge must see
//! those lookups even though it scores none of them.
//!
//! The caller picks the worker count. The sweep engine never routes a
//! cell here: measured on two cores, the pipeline only slowed fig17
//! (DESIGN.md §5e), so it stays as library code with its equivalence
//! tests. It folds unprobed whatever `IBP_PROBE` says: only the sequential
//! fold feeds the probe layer.
//!
//! With tracing on, every run emits a `component_pipeline` span, one
//! `component` span per worker (events, busy/idle split), and the
//! registry tracks `component.*` counters plus the record-buffer
//! high-water mark (`component.record_hwm`).
//!
//! [`PredictorConfig::shardable`]: ibp_core::PredictorConfig::shardable
//! [`PredictorConfig::decompose`]: ibp_core::PredictorConfig::decompose
//! [`MetaSpec`]: ibp_core::MetaSpec
//! [`MetaState`]: ibp_core::MetaState
//! [`TwoLevelPredictor`]: ibp_core::TwoLevelPredictor
//! [`PredRecord`]: ibp_core::PredRecord

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

use ibp_core::{
    Decomposition, FoldKernel, HybridPredictor, MetaSpec, MetaState, PredRecord, Predictor,
};
use ibp_obs as obs;
use ibp_obs::metrics::{Counter, Histogram, WorkClock};
use ibp_trace::{chunk_events, EventSource, TraceChunk, TraceEvent};

use crate::faults;
use crate::run::{fold_kernel_unprobed, RunStats};
use crate::shard::{PipelineError, QueueStalled, SpscQueue, WorkerFault, QUEUE_CAPACITY};

fn runs_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| obs::metrics::counter("component.runs"))
}

fn events_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| obs::metrics::counter("component.events"))
}

fn busy_us_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| obs::metrics::counter("component.busy_us"))
}

fn idle_us_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| obs::metrics::counter("component.idle_us"))
}

fn occupancy_histogram() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        obs::metrics::histogram(
            "component.occupancy_pct",
            &[10, 25, 50, 75, 90, 95, 99, 100],
        )
    })
}

/// Rebuilds the sequential hybrid from its decomposition as a chunk-fold
/// kernel — the fallback when the budget grants no parallelism.
fn build_sequential(d: &Decomposition) -> FoldKernel {
    let components = [&d.first, &d.second].map(|c| {
        c.try_build_two_level()
            .expect("decomposed component config builds")
    });
    FoldKernel::Hybrid(HybridPredictor::new(components.into(), d.meta))
}

/// Replays one broadcast chunk's paired record streams through the
/// metapredictor with the sequential scoring rules: `seen` counts every
/// indirect event against the global warmup prefix, scored events
/// arbitrate-then-score, and the selector trains on every event (that is
/// what `replay` does — arbitration is pure, training matches `update`).
struct MergeFold<'a> {
    meta: &'a mut MetaState,
    stats: &'a mut RunStats,
    seen: &'a mut u64,
    warmup: u64,
}

fn merge_chunk(
    chunk: &TraceChunk,
    first: &[PredRecord],
    second: &[PredRecord],
    fold: &mut MergeFold,
) {
    debug_assert_eq!(first.len() as u64, chunk.indirect_count());
    debug_assert_eq!(second.len() as u64, chunk.indirect_count());
    for ((b, f), s) in chunk.indirect().zip(first).zip(second) {
        *fold.seen += 1;
        let predicted = fold.meta.replay(b.pc, [f.unpack(), s.unpack()], b.target);
        if *fold.seen > fold.warmup {
            fold.stats.indirect += 1;
            if predicted != Some(b.target) {
                fold.stats.mispredicted += 1;
            }
        }
    }
}

/// One component worker: folds every broadcast chunk into its own
/// predictor, emitting the pre-update lookup record per indirect event.
fn component_worker(
    index: usize,
    cfg: &ibp_core::PredictorConfig,
    input: &SpscQueue<Arc<TraceChunk>>,
    output: &SpscQueue<Vec<PredRecord>>,
) -> Result<(), WorkerFault> {
    let mut span = obs::span!("component", component = index);
    let mut clock = WorkClock::start();
    let mut predictor = cfg
        .try_build_two_level()
        .expect("decomposed component config builds");
    let mut events = 0u64;
    loop {
        let chunk = match input.pop() {
            Ok(Some(chunk)) => chunk,
            Ok(None) => break,
            Err(QueueStalled) => {
                return Err(WorkerFault::stalled("component.queue", "the router"));
            }
        };
        if faults::should_fire("component.stall") {
            // An injected stall: stop consuming *without* closing either
            // queue, so the router/merger trips the watchdog — the
            // hang-containment path, not the panic path.
            return Err(WorkerFault {
                site: "component.stall",
                detail: "injected worker stall".to_string(),
            });
        }
        faults::fire_panic("component.worker");
        let records = clock.busy(|| {
            let mut records = Vec::with_capacity(chunk.indirect_count() as usize);
            for event in chunk.events() {
                match event {
                    TraceEvent::Indirect(b) => {
                        // Fused pre-update lookup + train: one key
                        // computation and (for unbounded backends) one
                        // table probe per event, same record as
                        // `lookup` followed by `update`.
                        records.push(PredRecord::pack(predictor.fused_step(b.pc, b.target, true)));
                    }
                    TraceEvent::Cond(b) => predictor.observe_cond(b.pc, b.outcome()),
                }
            }
            records
        });
        events += records.len() as u64;
        if output.push(records).is_err() {
            return Err(WorkerFault::stalled(
                "component.queue",
                "the merge to drain this component's records",
            ));
        }
    }
    events_counter().add(events);
    busy_us_counter().add(clock.busy_us());
    idle_us_counter().add(clock.idle_us());
    occupancy_histogram().record(clock.util_pct());
    span.note("path_len", cfg.path_len() as u64);
    span.note("events", events);
    span.note("busy_us", clock.busy_us());
    span.note("idle_us", clock.idle_us());
    span.note("occupancy_pct", clock.util_pct());
    Ok(())
}

/// Folds one event source through a decomposed hybrid's components in
/// parallel and merges the recorded prediction streams through the
/// metapredictor — byte-identical to the sequential hybrid fold.
///
/// `workers <= 1` falls back to the sequential fold (rebuilt from the
/// decomposition); values above the component count clamp to it. Nothing
/// is probed, whatever `IBP_PROBE` says. The
/// chunk granularity is [`chunk_events`]; see
/// [`simulate_source_components_with_chunk`] for an explicit granularity
/// (chunk boundaries never change the result — the equivalence property
/// tests pin that down).
///
/// # Errors
///
/// [`PipelineError::Io`] propagates the source's I/O or parse failures
/// (workers are unblocked and joined first; partial records are
/// discarded). [`PipelineError::Fault`] reports a contained worker
/// failure — a caught panic or a watchdogged queue stall; the caller can
/// re-run the same fold sequentially for a byte-identical result.
pub fn simulate_source_components<S: EventSource + ?Sized>(
    source: &mut S,
    decomposition: &Decomposition,
    workers: usize,
    warmup: u64,
) -> Result<RunStats, PipelineError> {
    simulate_source_components_with_chunk(source, decomposition, workers, warmup, chunk_events())
}

/// [`simulate_source_components`] with an explicit chunk granularity.
///
/// The result is independent of `chunk` (record streams are paired with
/// their chunk, and warmup is a global event count), so this exists for
/// boundary tests and tuning, not correctness.
///
/// # Errors
///
/// Propagates the source's I/O or parse failures.
///
/// # Panics
///
/// Panics if `chunk` is zero.
pub fn simulate_source_components_with_chunk<S: EventSource + ?Sized>(
    source: &mut S,
    decomposition: &Decomposition,
    workers: usize,
    warmup: u64,
    chunk: u64,
) -> Result<RunStats, PipelineError> {
    assert!(chunk > 0, "chunk granularity must be positive");
    if workers <= 1 {
        let mut kernel = build_sequential(decomposition);
        return fold_kernel_unprobed(source, &mut kernel, warmup).map_err(PipelineError::Io);
    }
    let meta_name = match decomposition.meta {
        MetaSpec::Confidence => "confidence",
        MetaSpec::FirstHit => "first-hit",
        MetaSpec::Bpst { .. } => "bpst",
    };
    let mut span = obs::span!(
        "component_pipeline",
        trace = source.name(),
        components = 2,
        meta = meta_name
    );
    runs_counter().incr();
    let configs = [&decomposition.first, &decomposition.second];
    let inputs: Vec<SpscQueue<Arc<TraceChunk>>> = (0..2).map(|_| SpscQueue::new()).collect();
    let outputs: Vec<SpscQueue<Vec<PredRecord>>> = (0..2).map(|_| SpscQueue::new()).collect();
    let mut meta = MetaState::new(decomposition.meta);
    let mut stats = RunStats::default();
    let mut seen = 0u64;
    let mut record_hwm = 0u64;
    let fault_scope = faults::current_scope();
    let routed = std::thread::scope(|scope| -> Result<u64, PipelineError> {
        let mut handles = Vec::with_capacity(2);
        for (i, cfg) in configs.into_iter().enumerate() {
            let (input, output) = (&inputs[i], &outputs[i]);
            handles.push(scope.spawn(move || {
                faults::enter_scope(fault_scope);
                // The containment boundary: a panic anywhere in the
                // component fold becomes a fault report, and the dying
                // worker closes both of its queues so the router's
                // broadcast drops and the merge sees a closed stream
                // instead of waiting out the watchdog.
                match catch_unwind(AssertUnwindSafe(|| component_worker(i, cfg, input, output))) {
                    Ok(result) => result,
                    Err(payload) => {
                        input.close();
                        output.close();
                        Err(WorkerFault::from_panic("component.worker", payload))
                    }
                }
            }));
        }
        // Router + merger: broadcast each freshly filled chunk (fill
        // clears its argument, and the previous chunk is still shared
        // with the workers, so every fill gets a fresh allocation), and
        // keep at most QUEUE_CAPACITY chunks in flight before merging
        // the oldest. That bound is what makes the single-threaded
        // router/merger deadlock-free: a worker never has more than
        // QUEUE_CAPACITY unmerged record buffers outstanding, so its
        // output push never blocks forever.
        let mut ring: VecDeque<Arc<TraceChunk>> = VecDeque::with_capacity(QUEUE_CAPACITY);
        let mut inflight_records = 0u64;
        let mut routed = 0u64;
        let mut merge_oldest =
            |ring: &mut VecDeque<Arc<TraceChunk>>, inflight: &mut u64| -> Result<(), WorkerFault> {
                let chunk = ring.pop_front().expect("merge on empty ring");
                let take = |which: usize, label: &str| match outputs[which].pop() {
                    Ok(Some(records)) => Ok(records),
                    // A closed output with no records means the worker
                    // died mid-chunk; the join below carries its real
                    // fault, this one just aborts the merge.
                    Ok(None) => Err(WorkerFault {
                        site: "component.queue",
                        detail: format!("the {label} component quit before returning records"),
                    }),
                    Err(QueueStalled) => Err(WorkerFault::stalled(
                        "component.queue",
                        &format!("the {label} component's records"),
                    )),
                };
                let first = take(0, "first")?;
                let second = take(1, "second")?;
                let mut fold = MergeFold {
                    meta: &mut meta,
                    stats: &mut stats,
                    seen: &mut seen,
                    warmup,
                };
                merge_chunk(&chunk, &first, &second, &mut fold);
                *inflight -= 2 * chunk.indirect_count();
                Ok(())
            };
        let mut failure: Option<PipelineError> = None;
        'route: {
            loop {
                let mut fresh = TraceChunk::default();
                let more = match source.fill(&mut fresh, chunk) {
                    Ok(more) => more,
                    Err(e) => {
                        failure = Some(PipelineError::Io(e));
                        break 'route;
                    }
                };
                let shared = Arc::new(fresh);
                routed += shared.indirect_count();
                inflight_records += 2 * shared.indirect_count();
                record_hwm = record_hwm.max(inflight_records);
                for q in &inputs {
                    if q.push(Arc::clone(&shared)).is_err() {
                        failure = Some(PipelineError::Fault(WorkerFault::stalled(
                            "component.queue",
                            "a component to drain its input",
                        )));
                        break 'route;
                    }
                }
                ring.push_back(shared);
                if ring.len() >= QUEUE_CAPACITY {
                    if let Err(f) = merge_oldest(&mut ring, &mut inflight_records) {
                        failure = Some(PipelineError::Fault(f));
                        break 'route;
                    }
                }
                if !more {
                    break;
                }
            }
            for q in &inputs {
                q.close();
            }
            while !ring.is_empty() {
                if let Err(f) = merge_oldest(&mut ring, &mut inflight_records) {
                    failure = Some(PipelineError::Fault(f));
                    break 'route;
                }
            }
        }
        // Shutdown: unblock both sides (idempotent on the clean path,
        // where inputs are already closed and outputs drained) so the
        // joins below are brief even after an abort.
        for q in &inputs {
            q.close();
        }
        for q in &outputs {
            q.close();
        }
        let joined: Vec<Result<(), WorkerFault>> = handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(result) => result,
                // A panic that escaped the worker's own catch still
                // joins as a fault — never a poison cascade.
                Err(payload) => Err(WorkerFault::from_panic("component.worker", payload)),
            })
            .collect();
        // Prefer a worker's own fault over the router/merge-side
        // symptom it causes: the worker knows the true site.
        let faults = joined.iter().filter_map(|r| r.as_ref().err());
        if let Some(fault) = WorkerFault::root_cause(faults) {
            return Err(PipelineError::Fault(fault.clone()));
        }
        if let Some(failure) = failure {
            return Err(failure);
        }
        Ok(routed)
    })?;
    obs::metrics::gauge("component.record_hwm").set(i64::try_from(record_hwm).unwrap_or(i64::MAX));
    span.note("events", routed);
    span.note("scored", stats.indirect);
    span.note("record_hwm", record_hwm);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::simulate_warm;
    use ibp_core::PredictorConfig;
    use ibp_trace::{Addr, BranchKind, Trace};

    /// A polymorphic trace over a handful of sites with phase changes, so
    /// the two components genuinely disagree and the metapredictor state
    /// matters.
    fn phased_trace(n: u64) -> Trace {
        let mut t = Trace::new("phased");
        for i in 0..n {
            let site = 0x1000 + 0x10 * (i % 7) as u32;
            let target = if i < n / 2 {
                0x9000 + 8 * ((i / 2) % 4) as u32
            } else {
                0xA000 + 8 * (i % 3) as u32
            };
            if i % 5 == 0 {
                t.push_cond(Addr::new(site + 4), Addr::new(0x40), i % 2 == 0);
            }
            t.push_indirect(Addr::new(site), Addr::new(target), BranchKind::VirtualCall);
        }
        t
    }

    #[test]
    fn component_fold_matches_sequential_hybrid() {
        let t = phased_trace(2_000);
        for cfg in [
            PredictorConfig::hybrid(6, 2, 256, 4),
            PredictorConfig::bpst(3, 0, 128, 2),
        ] {
            let d = cfg.decompose().expect("hybrids decompose");
            for warmup in [0u64, 150] {
                let mut p = cfg.build();
                let expected = simulate_warm(&t, p.as_mut(), warmup);
                for workers in [1usize, 2, 5] {
                    let got = simulate_source_components(&mut t.cursor(), &d, workers, warmup)
                        .expect("in-memory source");
                    assert_eq!(
                        got,
                        expected,
                        "{} with {workers} workers, warmup {warmup}",
                        cfg.cache_key()
                    );
                }
            }
        }
    }

    #[test]
    fn chunk_granularity_is_invisible() {
        let t = phased_trace(500);
        let cfg = PredictorConfig::bpst(2, 0, 64, 2);
        let d = cfg.decompose().expect("decomposes");
        let mut p = cfg.build();
        let expected = simulate_warm(&t, p.as_mut(), 30);
        for chunk in [1u64, 63, 64, 65, 4096] {
            let got = simulate_source_components_with_chunk(&mut t.cursor(), &d, 2, 30, chunk)
                .expect("in-memory source");
            assert_eq!(got, expected, "chunk = {chunk}");
        }
    }

    #[test]
    fn empty_source_merges_to_zero() {
        let t = Trace::new("empty");
        let d = PredictorConfig::hybrid(3, 1, 64, 2)
            .decompose()
            .expect("decomposes");
        let got = simulate_source_components(&mut t.cursor(), &d, 2, 0).expect("in-memory source");
        assert_eq!(got, RunStats::default());
    }

    #[test]
    fn record_packing_round_trips() {
        let hit = ibp_core::table::TableHit {
            target: Addr::new(0x9000),
            confidence: 3,
        };
        assert_eq!(PredRecord::pack(Some(hit)).unpack(), Some(hit));
        assert_eq!(PredRecord::pack(None).unpack(), None);
    }

    #[test]
    fn injected_worker_panic_is_contained_as_a_fault() {
        let _guard = faults::test_guard();
        faults::override_spec(Some("component.worker@1")).unwrap();
        let t = phased_trace(2_000);
        let cfg = PredictorConfig::hybrid(6, 2, 256, 4);
        let d = cfg.decompose().expect("hybrids decompose");
        let err = simulate_source_components_with_chunk(&mut t.cursor(), &d, 2, 0, 256)
            .expect_err("armed panic must surface as a pipeline error");
        match err {
            PipelineError::Fault(f) => {
                assert_eq!(f.site, "component.worker");
                assert!(f.detail.contains("injected fault"), "detail: {}", f.detail);
            }
            PipelineError::Io(e) => panic!("unexpected io error: {e}"),
        }
        faults::override_spec(None).unwrap();
        // The pipeline is intact for the sequential retry path.
        let clean = simulate_source_components_with_chunk(&mut t.cursor(), &d, 2, 0, 256)
            .expect("unfaulted rerun");
        let mut p = cfg.build();
        assert_eq!(clean, simulate_warm(&t, p.as_mut(), 0));
    }

    #[test]
    fn injected_worker_stall_is_contained_as_a_fault() {
        let _guard = faults::test_guard();
        faults::override_spec(Some("component.stall@2;watchdog=100")).unwrap();
        let t = phased_trace(2_000);
        let d = PredictorConfig::hybrid(6, 2, 256, 4)
            .decompose()
            .expect("hybrids decompose");
        let err = simulate_source_components_with_chunk(&mut t.cursor(), &d, 2, 0, 256)
            .expect_err("armed stall must surface as a pipeline error");
        match err {
            PipelineError::Fault(f) => assert_eq!(f.site, "component.stall"),
            PipelineError::Io(e) => panic!("unexpected io error: {e}"),
        }
        faults::override_spec(None).unwrap();
    }
}
