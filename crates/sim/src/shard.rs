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
//! How many shards a run gets is a scheduling decision
//! ([`shard_budget`]): `IBP_SHARDS=0` disables the pipeline, `IBP_SHARDS=n`
//! forces `n` workers regardless of core count (the equivalence tests rely
//! on that), and `auto` (the default) spends idle cores on intra-run
//! shards only when the work queue is tail-heavy — fewer cells left than
//! threads to run them, the regime the journal's per-cell queue-wait data
//! identified as the wall-time tail.
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

use ibp_core::{ChunkScorer, FoldKernel, ShardRouting, WarmTrigger};
use ibp_obs as obs;
use ibp_obs::metrics::{Counter, Histogram, WorkClock};
use ibp_trace::io::TraceIoError;
use ibp_trace::{chunk_events, EventSource, TraceChunk, TraceEvent};

use crate::faults;
use crate::probe::{self, ProbePayload, ProbePolicy, ProbeRun};
use crate::run::{simulate_kernel, RunStats};

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

/// Why a parallel pipeline could not produce a result. The engine treats
/// `Fault` as containable: it logs a `degraded` event and re-runs the
/// cell on the sequential kernel fold, which is byte-identical.
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

/// How many shard workers a run may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPolicy {
    /// Never shard (`IBP_SHARDS=0`): every run folds sequentially.
    Off,
    /// Shard when the scheduler finds idle capacity (`IBP_SHARDS=auto`,
    /// the default).
    Auto,
    /// Always use exactly this many shard workers for shardable runs
    /// (`IBP_SHARDS=n`), regardless of core count.
    Fixed(usize),
}

fn env_policy() -> ShardPolicy {
    static POLICY: OnceLock<ShardPolicy> = OnceLock::new();
    *POLICY.get_or_init(|| match std::env::var("IBP_SHARDS") {
        Ok(raw) => match raw.as_str() {
            "auto" => ShardPolicy::Auto,
            _ => match raw.parse::<usize>() {
                Ok(0) => ShardPolicy::Off,
                Ok(n) => ShardPolicy::Fixed(n),
                Err(_) => {
                    eprintln!(
                        "warning: ignoring invalid IBP_SHARDS={raw:?} \
                         (expected a shard count, \"auto\" or 0); using auto"
                    );
                    ShardPolicy::Auto
                }
            },
        },
        Err(_) => ShardPolicy::Auto,
    })
}

fn override_slot() -> &'static Mutex<Option<ShardPolicy>> {
    static SLOT: Mutex<Option<ShardPolicy>> = Mutex::new(None);
    &SLOT
}

/// Replaces the `IBP_SHARDS` policy for this process (`None` restores the
/// environment's). For tests and measurement binaries that compare
/// policies within one process — the environment variable is read once.
pub fn override_policy(policy: Option<ShardPolicy>) {
    *override_slot()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = policy;
}

/// The active shard policy: the process-wide override if one is set
/// ([`override_policy`]), else `IBP_SHARDS` parsed once with
/// warn-and-default (like `IBP_EVENTS`).
#[must_use]
pub fn shard_policy() -> ShardPolicy {
    override_slot()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .unwrap_or_else(env_policy)
}

pub(crate) fn threads_available() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// How many shard workers each of `tasks` queued cells should get.
///
/// `Fixed(n)` always grants `n`. `Auto` grants extra workers only when the
/// queue is tail-heavy — fewer tasks than threads, so cores would
/// otherwise idle while the stragglers finish — and caps the grant at 8
/// (diminishing returns: the router becomes the bottleneck). When a
/// journal from a prior run is on disk, the grant is sized by the
/// *observed* cell-duration tail (p95/mean — the same figures
/// `obs_report --sharding` prints) instead of queue depth alone; see
/// [`auto_budget`]. `Off` and a saturated queue grant 1 (sequential).
#[must_use]
pub fn shard_budget(tasks: usize) -> usize {
    let budget = match shard_policy() {
        ShardPolicy::Off => 1,
        ShardPolicy::Fixed(n) => n.max(1),
        ShardPolicy::Auto => auto_budget(tasks, threads_available(), observed_tail_ratio()),
    };
    if budget > 1 {
        obs::debug!("[shard] budget: {tasks} tasks -> {budget} shards each");
    }
    budget
}

/// The `auto` grant for `tasks` remaining cells on `threads` cores, given
/// the cell-duration tail ratio (p95/mean) observed in a prior run's
/// journal, when one exists.
///
/// A saturated queue (`tasks >= threads`) never fans out — every core
/// already has a cell. On a tail-heavy queue the depth heuristic spreads
/// idle cores evenly (`threads / tasks`); with variance data the grant is
/// raised to the observed ratio, because a p95 straggler runs `ratio`×
/// the mean cell and needs that many workers to finish in roughly mean
/// time. Both are capped by the pool size and by 8 (the router becomes
/// the bottleneck beyond that).
fn auto_budget(tasks: usize, threads: usize, tail_ratio: Option<f64>) -> usize {
    if tasks == 0 || tasks >= threads {
        return 1;
    }
    let depth = (threads / tasks).clamp(1, 8);
    match tail_ratio {
        Some(ratio) if ratio.is_finite() && ratio >= 1.0 => {
            let boost = (ratio.ceil() as usize).min(threads).min(8);
            depth.max(boost)
        }
        _ => depth,
    }
}

/// The cell-duration tail ratio (p95/mean) from the most recent prior-run
/// journal under `$IBP_RESULTS/journal`, loaded once per process. The
/// active journal (if tracing is on) is excluded — it describes *this*
/// run, which is still in flight.
fn observed_tail_ratio() -> Option<f64> {
    static RATIO: OnceLock<Option<f64>> = OnceLock::new();
    *RATIO.get_or_init(|| {
        let path = latest_prior_journal()?;
        let records = obs::read_journal(&path).ok()?;
        let mut durs: Vec<u64> = records
            .iter()
            .filter(|r| r.kind == obs::journal::Kind::Span && r.name == "cell")
            .filter_map(|r| r.dur_us)
            .collect();
        let ratio = tail_ratio(&mut durs)?;
        obs::debug!(
            "[shard] prior journal {}: cell tail p95/mean = {ratio:.2}",
            path.display()
        );
        Some(ratio)
    })
}

fn latest_prior_journal() -> Option<std::path::PathBuf> {
    let dir = std::path::PathBuf::from(
        std::env::var("IBP_RESULTS").unwrap_or_else(|_| "results".into()),
    )
    .join("journal");
    let active = obs::journal::path();
    let mut newest: Option<(std::time::SystemTime, std::path::PathBuf)> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("jsonl") {
            continue;
        }
        if Some(&path) == active.as_ref() {
            continue;
        }
        let Ok(modified) = entry.metadata().and_then(|m| m.modified()) else {
            continue;
        };
        if newest.as_ref().is_none_or(|(t, _)| modified > *t) {
            newest = Some((modified, path));
        }
    }
    newest.map(|(_, path)| path)
}

/// p95/mean of a duration sample. `None` below 8 cells — too little
/// signal to outweigh the depth heuristic.
fn tail_ratio(durs: &mut [u64]) -> Option<f64> {
    if durs.len() < 8 {
        return None;
    }
    durs.sort_unstable();
    let mean = durs.iter().sum::<u64>() as f64 / durs.len() as f64;
    if mean <= 0.0 {
        return None;
    }
    // Nearest-rank p95, 0-based ceil(0.95 * n) capped at the last cell.
    // The old `(n - 1) * 95 / 100` rounded *down*: at n = 20 it indexed
    // cell 18, so one straggler in 20 — exactly the regime the auto
    // scheduler exists for — read as a flat tail and never fanned out.
    let idx = (durs.len() * 95).div_ceil(100).min(durs.len() - 1);
    let p95 = durs[idx] as f64;
    Some(p95 / mean)
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
    policy: ProbePolicy,
    warmup: u64,
) -> Result<(RunStats, Option<ProbePayload>), WorkerFault> {
    let mut shard_span = obs::span!("shard", shard = shard);
    let mut clock = WorkClock::start();
    let mut kernel = make();
    let mut probe = policy.on().then(|| ProbeRun::new(policy));
    // The global warmup window is a stream prefix, so a
    // worker's slice of the warm-point state is its state
    // just before its first scored event (or at worker
    // exit, if it never scores one). With no warmup there
    // is no warm sample at all, hence the trigger choice:
    // `AtCrossing` can never fire on a zero countdown.
    // Interval samples stay sequential-only (`None`).
    let mut scorer = match probe.as_mut() {
        Some(p) if warmup > 0 => ChunkScorer::probed(0, p, WarmTrigger::BeforeFirstScored, None),
        Some(p) => ChunkScorer::probed(0, p, WarmTrigger::AtCrossing, None),
        None => ChunkScorer::new(0),
    };
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
    let warm_pending = scorer.warm_pending();
    let payload = probe.map(|mut p| {
        // A worker that never scored an event still owns
        // its slice of the warm-point state.
        if warm_pending {
            p.sample("warm", kernel.as_predictor());
        }
        p.sample("end", kernel.as_predictor());
        p.into_payload()
    });
    events_counter().add(events);
    busy_us_counter().add(clock.busy_us());
    idle_us_counter().add(clock.idle_us());
    occupancy_histogram().record(clock.util_pct());
    shard_span.note("events", events);
    shard_span.note("busy_us", clock.busy_us());
    shard_span.note("idle_us", clock.idle_us());
    shard_span.note("occupancy_pct", clock.util_pct());
    Ok((stats, payload))
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
/// fold directly.
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
        return simulate_kernel(source, &mut kernel, warmup).map_err(PipelineError::Io);
    }
    let mut span = obs::span!(
        "shard_pipeline",
        trace = source.name(),
        shards = shards,
        exponent = routing.exponent()
    );
    runs_counter().incr();
    let policy = probe::active_policy();
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
                    match catch_unwind(AssertUnwindSafe(|| {
                        shard_worker(i, queue, make, policy, warmup)
                    })) {
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
        let joined: Vec<Result<(RunStats, Option<ProbePayload>), WorkerFault>> = handles
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
        let per_shard: Vec<(RunStats, Option<ProbePayload>)> = joined
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
        .fold(RunStats::default(), |acc, (s, _)| acc.merged(*s));
    if policy.on() {
        // Shardable state partitions disjointly by site, so the per-shard
        // snapshots merge by addition into exactly the sequential fold's
        // snapshot; attribution counts add the same way (deep mode's
        // ever-seen key sets are per-shard, which is exact — keys live in
        // disjoint site partitions).
        let mut merged_probe = ProbePayload::default();
        for (_, payload) in per_shard {
            if let Some(p) = payload {
                merged_probe.absorb(p);
            }
        }
        merged_probe.emit(source.name(), &make().as_predictor().name(), "site-shard");
    }
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

    #[test]
    fn override_policy_wins_over_environment() {
        override_policy(Some(ShardPolicy::Fixed(3)));
        assert_eq!(shard_policy(), ShardPolicy::Fixed(3));
        assert_eq!(shard_budget(1_000), 3, "Fixed ignores queue depth");
        override_policy(Some(ShardPolicy::Off));
        assert_eq!(shard_budget(1), 1);
        override_policy(None);
    }

    #[test]
    fn auto_budget_only_fans_out_on_a_tail_heavy_queue() {
        override_policy(Some(ShardPolicy::Auto));
        let threads = threads_available();
        // A queue deeper than the thread pool never shards.
        assert_eq!(shard_budget(threads + 1), 1);
        assert_eq!(shard_budget(0), 1);
        // A single straggler gets the whole pool (capped at 8).
        assert_eq!(shard_budget(1), threads.clamp(1, 8));
        override_policy(None);
    }

    #[test]
    fn auto_budget_scales_with_observed_tail() {
        // No journal: the depth heuristic. 16 threads / 5 tasks -> 3.
        assert_eq!(auto_budget(5, 16, None), 3);
        // A heavier observed tail than the depth grant raises it: a p95
        // straggler at 6x the mean gets 6 workers.
        assert_eq!(auto_budget(5, 16, Some(6.3)), 7);
        assert_eq!(auto_budget(5, 16, Some(5.2)), 6);
        // ...capped by the pool and by 8.
        assert_eq!(auto_budget(3, 4, Some(40.0)), 4);
        assert_eq!(auto_budget(5, 16, Some(40.0)), 8);
        // A flat tail (ratio ~ 1) leaves the depth heuristic in charge.
        assert_eq!(auto_budget(5, 16, Some(1.0)), 3);
        // Degenerate ratios are ignored, and a saturated queue never
        // fans out no matter what the journal says.
        assert_eq!(auto_budget(5, 16, Some(f64::NAN)), 3);
        assert_eq!(auto_budget(16, 16, Some(6.0)), 1);
        assert_eq!(auto_budget(0, 16, Some(6.0)), 1);
    }

    #[test]
    fn tail_ratio_needs_a_sample_and_measures_p95_over_mean() {
        // Too few cells: no signal.
        assert_eq!(tail_ratio(&mut [100; 7]), None);
        assert_eq!(tail_ratio(&mut Vec::new()), None);
        // Flat cells: ratio 1.
        let flat = tail_ratio(&mut [100; 20]).expect("enough cells");
        assert!((flat - 1.0).abs() < 1e-9);
        // 18 cells at 100us plus two 2000us stragglers: p95 lands on a
        // straggler, the mean stays near 100us.
        let mut durs: Vec<u64> = vec![100; 18];
        durs.extend([2_000, 2_000]);
        let heavy = tail_ratio(&mut durs).expect("enough cells");
        assert!(heavy > 5.0, "p95/mean = {heavy}");
    }

    #[test]
    fn tail_ratio_sees_a_single_straggler_in_twenty() {
        // One 2000us straggler among 19 flat 100us cells — the queue-tail
        // regime the auto scheduler targets. The truncating p95 index
        // (`(n - 1) * 95 / 100` = cell 18) read this as a flat tail;
        // nearest-rank lands on the straggler.
        let mut durs: Vec<u64> = vec![100; 19];
        durs.push(2_000);
        let ratio = tail_ratio(&mut durs).expect("enough cells");
        assert!(ratio > 5.0, "p95/mean = {ratio}, straggler missed");
        // And the scheduler grant follows: the observed tail raises the
        // depth heuristic's fan-out.
        assert_eq!(auto_budget(5, 16, Some(ratio)), 8);
    }
}
