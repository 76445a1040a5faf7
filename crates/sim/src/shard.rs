//! The chunk-parallel sharded simulation pipeline.
//!
//! A sequential fold ([`simulate_source`]) walks one trace into one
//! predictor. For configurations whose state partitions disjointly by
//! branch site ([`PredictorConfig::shardable`]), the same run can be split
//! across workers without changing a single predicted target:
//!
//! * a **router** (the calling thread) pulls [`TraceChunk`]s from the
//!   source, partitions each by site region
//!   ([`TraceChunk::partition_by_site`]) and pushes the per-shard batches
//!   onto bounded SPSC queues — backpressure caps memory at
//!   `shards × capacity` chunks;
//! * each **shard worker** owns a full predictor instance but, by the
//!   routing invariant, only ever touches the state partition of its own
//!   site regions; it folds its batches in order with exactly the
//!   sequential scoring rules;
//! * the **merge** sums per-shard [`RunStats`]. Both fields are event
//!   counts, so the merged result is identical — not just statistically
//!   close — to the sequential fold's.
//!
//! Warmup is a global prefix of the event stream; since routing preserves
//! per-shard order, it maps onto a per-shard prefix that the router
//! attaches to each batch.
//!
//! The caller picks the shard count. The sweep engine never routes a cell
//! here: measured on two cores, the pipeline only slowed the sweeps it
//! was given (DESIGN.md §5e), so it stays as library code with its
//! equivalence tests. It folds unprobed whatever `IBP_PROBE` says: only
//! the sequential fold feeds the probe layer.
//!
//! With tracing on (`IBP_TRACE`), every sharded run emits a
//! `shard_pipeline` span and one `shard` span per worker (events folded,
//! busy/idle split); the registry tracks per-shard occupancy under
//! `shard.*`.
//!
//! [`PredictorConfig::shardable`]: ibp_core::PredictorConfig::shardable
//! [`simulate_source`]: crate::simulate_source

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use ibp_core::{ChunkScorer, FoldKernel, ShardRouting};
use ibp_obs as obs;
use ibp_obs::metrics::{Counter, Histogram, WorkClock};
use ibp_trace::io::TraceIoError;
use ibp_trace::{chunk_events, EventSource, TraceChunk, TraceEvent};

use crate::faults;
use crate::run::{fold_kernel_unprobed, RunStats};

/// A contained failure in one pipeline worker: a caught panic, an
/// injected stall, or a queue wait that exceeded the watchdog. Reported
/// through the pipeline's result channel — never a poisoned lock or a
/// process abort.
#[derive(Debug, Clone)]
pub struct WorkerFault {
    /// Where the fault happened (a `faults` site name for injected
    /// faults, `shard.queue`/`component.queue` for watchdogged waits).
    pub site: &'static str,
    /// Human-readable payload: the panic message or the stalled wait.
    pub detail: String,
}

impl WorkerFault {
    /// The fault to report for a pipeline whose workers joined with
    /// `faults`: the first that is not a watchdogged queue wait. A worker
    /// that stalls or panics leaves its peers waiting on their queues too,
    /// and any of them may time out first; only the faulting worker knows
    /// the true site.
    pub(crate) fn root_cause<'a>(
        faults: impl Iterator<Item = &'a WorkerFault>,
    ) -> Option<&'a WorkerFault> {
        faults.min_by_key(|f| f.site.ends_with(".queue"))
    }

    pub(crate) fn from_panic(
        site: &'static str,
        payload: Box<dyn std::any::Any + Send>,
    ) -> WorkerFault {
        WorkerFault {
            site,
            detail: faults::panic_detail(payload.as_ref()),
        }
    }

    pub(crate) fn stalled(site: &'static str, waiting_for: &str) -> WorkerFault {
        WorkerFault {
            site,
            detail: format!(
                "queue wait exceeded the {:?} watchdog waiting for {waiting_for}",
                faults::watchdog()
            ),
        }
    }
}

impl fmt::Display for WorkerFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker fault at {}: {}", self.site, self.detail)
    }
}

/// Why a parallel pipeline could not produce a result. A `Fault` is
/// retryable: the sequential kernel fold reproduces the result exactly.
#[derive(Debug)]
pub enum PipelineError {
    /// The event source itself failed — sequential retry would hit the
    /// same error, so this propagates.
    Io(TraceIoError),
    /// A worker thread failed or a queue stalled; the work is retryable.
    Fault(WorkerFault),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Io(e) => write!(f, "{e}"),
            PipelineError::Fault(fault) => write!(f, "{fault}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<TraceIoError> for PipelineError {
    fn from(e: TraceIoError) -> Self {
        PipelineError::Io(e)
    }
}

fn runs_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| obs::metrics::counter("shard.runs"))
}

fn events_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| obs::metrics::counter("shard.events"))
}

fn busy_us_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| obs::metrics::counter("shard.busy_us"))
}

fn idle_us_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| obs::metrics::counter("shard.idle_us"))
}

fn occupancy_histogram() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        obs::metrics::histogram("shard.occupancy_pct", &[10, 25, 50, 75, 90, 95, 99, 100])
    })
}

/// One routed unit of work: a per-shard slice of a source chunk plus how
/// many of its leading indirect events fall inside the global warmup
/// window.
struct Batch {
    chunk: TraceChunk,
    warmup: u64,
}

/// Items the producer may buffer per queue before blocking. Bounds memory
/// and keeps a router from racing arbitrarily far ahead of a slow worker.
pub(crate) const QUEUE_CAPACITY: usize = 4;

/// A bounded single-producer single-consumer queue. The sharded pipeline
/// runs one per shard (router produces batches, shard worker consumes);
/// the component pipeline (`crate::component`) reuses it for chunk
/// broadcast and record return.
pub(crate) struct SpscQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
    space: Condvar,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded queue wait exceeded the watchdog: the peer thread stopped
/// making progress (it failed without closing the queue, or is wedged).
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueueStalled;

impl<T> SpscQueue<T> {
    pub(crate) fn new() -> Self {
        SpscQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(QUEUE_CAPACITY),
                closed: false,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
        }
    }

    /// Locks the queue state, recovering from poison. A worker that
    /// panicked while holding the lock was between two field writes at
    /// worst (push_back/pop_front keep the deque coherent), and the
    /// containment layer needs the router to keep draining after any
    /// worker dies — poison propagation would turn one contained panic
    /// into a pipeline-wide abort.
    fn lock(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks while the queue is full, up to the watchdog bound per wait
    /// (consulted only when a wait is actually needed — the uncontended
    /// path costs nothing extra). Pushing after `close` drops the item
    /// (the consumer is gone; only shutdown paths do this).
    pub(crate) fn push(&self, item: T) -> Result<(), QueueStalled> {
        let mut state = self.lock();
        while state.items.len() >= QUEUE_CAPACITY && !state.closed {
            let (guard, timeout) = self
                .space
                .wait_timeout(state, faults::watchdog())
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
            if timeout.timed_out() && state.items.len() >= QUEUE_CAPACITY && !state.closed {
                return Err(QueueStalled);
            }
        }
        if !state.closed {
            state.items.push_back(item);
            self.ready.notify_one();
        }
        Ok(())
    }

    /// Blocks until an item arrives (watchdog-bounded per wait);
    /// `Ok(None)` once the queue is closed and drained.
    pub(crate) fn pop(&self) -> Result<Option<T>, QueueStalled> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                self.space.notify_one();
                return Ok(Some(item));
            }
            if state.closed {
                return Ok(None);
            }
            let (guard, timeout) = self
                .ready
                .wait_timeout(state, faults::watchdog())
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
            if timeout.timed_out() && state.items.is_empty() && !state.closed {
                return Err(QueueStalled);
            }
        }
    }

    pub(crate) fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        self.ready.notify_all();
        self.space.notify_all();
    }
}

/// The router loop: pull source chunks, allocate the global warmup prefix
/// to shards in event order, partition by site region, push batches. A
/// push that trips the watchdog means a worker died without closing its
/// queue; the router reports the stall and lets the pipeline shut down.
fn route_events<S: EventSource + ?Sized>(
    source: &mut S,
    routing: ShardRouting,
    queues: &[SpscQueue<Batch>],
    warmup: u64,
) -> Result<u64, PipelineError> {
    let shards = queues.len();
    let mut chunk = TraceChunk::default();
    let mut parts: Vec<TraceChunk> = vec![TraceChunk::default(); shards];
    let mut warm = vec![0u64; shards];
    let mut warmup_remaining = warmup;
    let mut routed = 0u64;
    loop {
        let more = source.fill(&mut chunk, chunk_events())?;
        if warmup_remaining > 0 {
            for event in chunk.events() {
                if warmup_remaining == 0 {
                    break;
                }
                if let TraceEvent::Indirect(b) = event {
                    warm[routing.shard_of(b.pc, shards)] += 1;
                    warmup_remaining -= 1;
                }
            }
        }
        chunk.partition_by_site(
            |pc| routing.shard_of(pc, shards),
            routing.routes_cond(),
            &mut parts,
        );
        routed += chunk.indirect_count();
        for (i, part) in parts.iter_mut().enumerate() {
            if !part.is_empty() || warm[i] > 0 {
                let batch = Batch {
                    chunk: std::mem::take(part),
                    warmup: std::mem::take(&mut warm[i]),
                };
                if queues[i].push(batch).is_err() {
                    return Err(PipelineError::Fault(WorkerFault::stalled(
                        "shard.queue",
                        &format!("shard {i} to drain its queue"),
                    )));
                }
            }
        }
        if !more {
            return Ok(routed);
        }
    }
}

/// One shard worker's fold loop. Runs under the spawn's `catch_unwind`
/// boundary; queue stalls (watchdogged waits) and injected stalls report
/// as [`WorkerFault`]s through the return value.
fn shard_worker(
    shard: usize,
    queue: &SpscQueue<Batch>,
    make: &(dyn Fn() -> FoldKernel + Sync),
) -> Result<RunStats, WorkerFault> {
    let mut shard_span = obs::span!("shard", shard = shard);
    let mut clock = WorkClock::start();
    let mut kernel = make();
    let mut scorer = ChunkScorer::new(0);
    let mut events = 0u64;
    loop {
        let batch = match queue.pop() {
            Ok(Some(batch)) => batch,
            Ok(None) => break,
            Err(QueueStalled) => {
                return Err(WorkerFault::stalled("shard.queue", "the router"));
            }
        };
        if faults::should_fire("shard.stall") {
            // An injected stall: stop consuming *without* closing the
            // queue, so the router's bounded push trips the watchdog —
            // this exercises the hang-containment path, not the panic
            // path.
            return Err(WorkerFault {
                site: "shard.stall",
                detail: "injected worker stall".to_string(),
            });
        }
        faults::fire_panic("shard.worker");
        events += batch.chunk.indirect_count();
        clock.busy(|| {
            scorer.set_warmup(batch.warmup);
            kernel.fold_chunk(batch.chunk.events(), &mut scorer);
        });
    }
    let stats = RunStats {
        indirect: scorer.indirect(),
        mispredicted: scorer.mispredicted(),
    };
    events_counter().add(events);
    busy_us_counter().add(clock.busy_us());
    idle_us_counter().add(clock.idle_us());
    occupancy_histogram().record(clock.util_pct());
    shard_span.note("events", events);
    shard_span.note("busy_us", clock.busy_us());
    shard_span.note("idle_us", clock.idle_us());
    shard_span.note("occupancy_pct", clock.util_pct());
    Ok(stats)
}

/// Folds one event source across `shards` parallel workers and merges the
/// result — identical to the sequential
/// [`simulate_source`](crate::simulate_source) fold, provided `routing`
/// came from [`shardable`](ibp_core::PredictorConfig::shardable) on the
/// configuration that `make` builds.
///
/// Each worker constructs its own chunk-fold kernel via `make` and folds
/// its batches through [`FoldKernel::fold_chunk`] — one dispatch per batch,
/// with the scorer's warmup countdown overwritten per batch from the
/// router's global-prefix allocation (exactly the sequential scoring
/// rules). The routing invariant guarantees the workers' state partitions
/// never overlap, so per-site state evolves exactly as in one sequential
/// instance. A shard count of one (or zero) falls back to the sequential
/// fold directly. Nothing is probed, whatever `IBP_PROBE` says.
///
/// # Errors
///
/// [`PipelineError::Io`] propagates the source's I/O or parse failures
/// (workers are joined first; their partial stats are discarded).
/// [`PipelineError::Fault`] reports a contained worker failure — a
/// caught panic or a watchdogged queue stall; the caller can re-run the
/// same fold sequentially for a byte-identical result.
pub fn simulate_source_sharded<S: EventSource + ?Sized>(
    source: &mut S,
    make: &(dyn Fn() -> FoldKernel + Sync),
    routing: ShardRouting,
    shards: usize,
    warmup: u64,
) -> Result<RunStats, PipelineError> {
    if shards <= 1 {
        let mut kernel = make();
        return fold_kernel_unprobed(source, &mut kernel, warmup).map_err(PipelineError::Io);
    }
    let mut span = obs::span!(
        "shard_pipeline",
        trace = source.name(),
        shards = shards,
        exponent = routing.exponent()
    );
    runs_counter().incr();
    let queues: Vec<SpscQueue<Batch>> = (0..shards).map(|_| SpscQueue::new()).collect();
    let fault_scope = faults::current_scope();
    let outcome = std::thread::scope(|scope| {
        let handles: Vec<_> = queues
            .iter()
            .enumerate()
            .map(|(i, queue)| {
                scope.spawn(move || {
                    faults::enter_scope(fault_scope);
                    // The containment boundary: a panic anywhere in the
                    // fold (including an injected one) becomes a fault
                    // report on the worker's result channel, and the
                    // dying worker closes its own queue so the router's
                    // next push drops instead of backing up.
                    match catch_unwind(AssertUnwindSafe(|| shard_worker(i, queue, make))) {
                        Ok(result) => result,
                        Err(payload) => {
                            queue.close();
                            Err(WorkerFault::from_panic("shard.worker", payload))
                        }
                    }
                })
            })
            .collect();
        let routed = route_events(source, routing, &queues, warmup);
        for queue in &queues {
            queue.close();
        }
        let joined: Vec<Result<RunStats, WorkerFault>> = handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(result) => result,
                // A panic that escaped the worker's own catch still
                // joins as a fault — never a poison cascade.
                Err(payload) => Err(WorkerFault::from_panic("shard.worker", payload)),
            })
            .collect();
        // Prefer a worker's own fault over the router-side symptom it
        // causes (a stalled push): the worker knows the true site.
        let faults = joined.iter().filter_map(|r| r.as_ref().err());
        if let Some(fault) = WorkerFault::root_cause(faults) {
            return Err(PipelineError::Fault(fault.clone()));
        }
        let routed = routed?;
        let per_shard: Vec<RunStats> = joined
            .into_iter()
            .map(|r| r.expect("worker faults handled above"))
            .collect();
        Ok((routed, per_shard))
    });
    let (routed, per_shard) = outcome?;
    // Merge in shard order. Both fields are u64 event counts, so the sum
    // is exact and order-independent — byte-identical to the sequential
    // fold's RunStats.
    let merged = per_shard
        .iter()
        .fold(RunStats::default(), |acc, s| acc.merged(*s));
    span.note("events", routed);
    span.note("scored", merged.indirect);
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::simulate_warm;
    use ibp_core::PredictorConfig;
    use ibp_trace::{Addr, BranchKind, Trace};

    /// A trace spread over many sites in distinct 2^2-regions, with
    /// conditionals interleaved, so every shard receives work.
    fn spread_trace(n: u64) -> Trace {
        let mut t = Trace::new("spread");
        for i in 0..n {
            let site = 0x1000 + 0x10 * (i % 23) as u32;
            let target = 0x9000 + 8 * ((i / 3) % 5) as u32;
            if i % 4 == 0 {
                t.push_cond(Addr::new(site + 4), Addr::new(0x40), i % 8 == 0);
            }
            t.push_indirect(Addr::new(site), Addr::new(target), BranchKind::VirtualCall);
        }
        t
    }

    #[test]
    fn sharded_fold_matches_sequential_fold() {
        let t = spread_trace(3_000);
        let cfg = PredictorConfig::btb_2bc();
        let routing = cfg.shardable().expect("BTB-2bc shards");
        for warmup in [0u64, 100] {
            let mut p = cfg.build();
            let expected = simulate_warm(&t, p.as_mut(), warmup);
            for shards in [1usize, 2, 4, 7] {
                let make = || cfg.build_kernel();
                let got = simulate_source_sharded(&mut t.cursor(), &make, routing, shards, warmup)
                    .expect("in-memory source");
                assert_eq!(got, expected, "shards = {shards}, warmup = {warmup}");
            }
        }
    }

    #[test]
    fn sharded_fold_matches_with_history_and_conditionals() {
        let t = spread_trace(2_000);
        let cfg = PredictorConfig::unconstrained(4)
            .with_history_sharing(ibp_core::HistorySharing::per_set(6))
            .with_cond_targets(true);
        let routing = cfg.shardable().expect("per-set history shards");
        assert!(routing.routes_cond());
        let mut p = cfg.build();
        let expected = simulate_warm(&t, p.as_mut(), 50);
        let make = || cfg.build_kernel();
        let got = simulate_source_sharded(&mut t.cursor(), &make, routing, 3, 50)
            .expect("in-memory source");
        assert_eq!(got, expected);
    }

    #[test]
    fn empty_source_merges_to_zero() {
        let t = Trace::new("empty");
        let cfg = PredictorConfig::btb();
        let routing = cfg.shardable().expect("shards");
        let make = || cfg.build_kernel();
        let got = simulate_source_sharded(&mut t.cursor(), &make, routing, 4, 0)
            .expect("in-memory source");
        assert_eq!(got, RunStats::default());
    }

    #[test]
    fn queue_closes_cleanly_when_empty() {
        let q = SpscQueue::new();
        q.close();
        assert!(q.pop().expect("closed, not stalled").is_none());
        // Pushing after close drops the batch rather than blocking.
        q.push(Batch {
            chunk: TraceChunk::default(),
            warmup: 0,
        })
        .expect("push after close drops");
        assert!(q.pop().expect("closed, not stalled").is_none());
    }

    #[test]
    fn queue_delivers_in_order_under_backpressure() {
        let q = SpscQueue::new();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // More batches than QUEUE_CAPACITY: the producer must block
                // until the consumer drains.
                for i in 0..(QUEUE_CAPACITY as u64 * 3) {
                    q.push(Batch {
                        chunk: TraceChunk::default(),
                        warmup: i,
                    })
                    .expect("live consumer");
                }
                q.close();
            });
            let mut expected = 0u64;
            while let Some(batch) = q.pop().expect("live producer") {
                assert_eq!(batch.warmup, expected);
                expected += 1;
            }
            assert_eq!(expected, QUEUE_CAPACITY as u64 * 3);
        });
    }

    #[test]
    fn queue_waits_are_bounded_by_the_watchdog() {
        let _guard = faults::test_guard();
        faults::override_spec(Some("watchdog=50")).unwrap();
        let q: SpscQueue<u64> = SpscQueue::new();
        // No producer: an empty-queue pop must stall out, not hang.
        assert!(q.pop().is_err());
        // No consumer: a push past capacity must stall out, not hang.
        for i in 0..QUEUE_CAPACITY as u64 {
            q.push(i).expect("below capacity");
        }
        let start = std::time::Instant::now();
        assert!(q.push(99).is_err());
        assert!(start.elapsed() >= std::time::Duration::from_millis(50));
        // The queue stays usable after a stalled wait.
        assert_eq!(q.pop().expect("items buffered"), Some(0));
        faults::override_spec(None).unwrap();
    }

    #[test]
    fn injected_worker_panic_is_contained_as_a_fault() {
        let _guard = faults::test_guard();
        faults::override_spec(Some("shard.worker@2")).unwrap();
        let t = spread_trace(3_000);
        let cfg = PredictorConfig::btb_2bc();
        let routing = cfg.shardable().expect("BTB-2bc shards");
        let make = || cfg.build_kernel();
        let err = simulate_source_sharded(&mut t.cursor(), &make, routing, 3, 0)
            .expect_err("armed panic must surface as a pipeline error");
        match err {
            PipelineError::Fault(f) => {
                assert_eq!(f.site, "shard.worker");
                assert!(f.detail.contains("injected fault"), "detail: {}", f.detail);
            }
            PipelineError::Io(e) => panic!("unexpected io error: {e}"),
        }
        faults::override_spec(None).unwrap();
        // The pipeline is intact for the sequential retry path.
        let clean = simulate_source_sharded(&mut t.cursor(), &make, routing, 3, 0)
            .expect("unfaulted rerun");
        let mut p = cfg.build();
        assert_eq!(clean, simulate_warm(&t, p.as_mut(), 0));
    }

    #[test]
    fn injected_worker_stall_is_contained_as_a_fault() {
        let _guard = faults::test_guard();
        faults::override_spec(Some("shard.stall@1;watchdog=100")).unwrap();
        let t = spread_trace(3_000);
        let cfg = PredictorConfig::btb_2bc();
        let routing = cfg.shardable().expect("BTB-2bc shards");
        let make = || cfg.build_kernel();
        let err = simulate_source_sharded(&mut t.cursor(), &make, routing, 3, 0)
            .expect_err("armed stall must surface as a pipeline error");
        match err {
            PipelineError::Fault(f) => assert_eq!(f.site, "shard.stall"),
            PipelineError::Io(e) => panic!("unexpected io error: {e}"),
        }
        faults::override_spec(None).unwrap();
    }
}
