//! Minimal work-stealing-free parallel map over an item list.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use ibp_obs as obs;
use ibp_obs::metrics::{Counter, Histogram, WorkClock};

use crate::faults;

fn busy_us_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| obs::metrics::counter("parallel.busy_us"))
}

fn idle_us_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| obs::metrics::counter("parallel.idle_us"))
}

fn items_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| obs::metrics::counter("parallel.items"))
}

fn util_histogram() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        obs::metrics::histogram("parallel.worker_util_pct", &[10, 25, 50, 75, 90, 95, 99, 100])
    })
}

/// Applies `f` to one item inside a `catch_unwind` containment boundary.
/// A caught panic is retried once, inline on the same thread: the work
/// queue is deterministic per item, so a first-attempt panic that does
/// not reproduce was transient (or injected) and the retried result is
/// exactly what the clean run computes. A second panic propagates — a
/// deterministic failure is a real bug, not a fault to swallow.
fn call_contained<T, R, F>(f: &F, item: &T, index: usize) -> R
where
    F: Fn(&T) -> R,
{
    match catch_unwind(AssertUnwindSafe(|| {
        faults::fire_panic("parallel.worker");
        f(item)
    })) {
        Ok(result) => result,
        Err(payload) => {
            let detail = faults::panic_detail(payload.as_ref());
            obs::warn!(
                "parallel_map: contained a worker panic on item {index} ({detail}); retrying inline"
            );
            let start = Instant::now();
            let result = f(item);
            obs::event!(
                "degraded",
                site = "parallel.worker",
                item = index,
                detail = detail.as_str(),
                retry_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
            );
            result
        }
    }
}

/// Records one worker's busy/idle split into the metrics registry and an
/// open `worker` span (fields only materialise when tracing is on).
fn observe_worker(span: &mut obs::Span, clock: &WorkClock, items: usize) {
    busy_us_counter().add(clock.busy_us());
    idle_us_counter().add(clock.idle_us());
    items_counter().add(items as u64);
    util_histogram().record(clock.util_pct());
    span.note("items", items);
    span.note("busy_us", clock.busy_us());
    span.note("idle_us", clock.idle_us());
    span.note("util_pct", clock.util_pct());
}

/// Applies `f` to every item, spreading work over the available cores, and
/// returns results in input order.
///
/// The experiments sweep hundreds of (benchmark × predictor) simulations
/// that are embarrassingly parallel; this helper uses `std::thread::scope`
/// and an atomic cursor — no external dependencies, deterministic output
/// order.
///
/// `f` must be `Sync` (it is shared across threads) and is called exactly
/// once per item.
///
/// Every worker records its busy/idle split into the metrics registry
/// (`parallel.busy_us`, `parallel.idle_us`, `parallel.items`, and the
/// `parallel.worker_util_pct` histogram — idle time is queue-exhaustion
/// tail wait, so utilization directly measures how evenly the queue
/// drained) and, when tracing is on, emits one `worker` span.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(n);
    obs::metrics::gauge("parallel.queue_len").set(n as i64);
    if threads <= 1 {
        let mut span = obs::span!("worker", threads = 1usize);
        let mut clock = WorkClock::start();
        let out: Vec<R> = clock.busy(|| {
            items
                .iter()
                .enumerate()
                .map(|(i, item)| call_contained(&f, item, i))
                .collect()
        });
        observe_worker(&mut span, &clock, n);
        return out;
    }

    // Each worker collects (index, result) pairs locally — no lock on the
    // hot path — and the joined batches are scattered back into input
    // order afterwards.
    let cursor = AtomicUsize::new(0);
    let fault_scope = faults::current_scope();
    let batches: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    faults::enter_scope(fault_scope);
                    let mut span = obs::span("worker");
                    let mut clock = WorkClock::start();
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let r = clock.busy(|| call_contained(&f, &items[i], i));
                        local.push((i, r));
                    }
                    observe_worker(&mut span, &clock, local.len());
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            // `call_contained` retries the first panic per item, so a
            // failed join means the same item panicked twice — a
            // deterministic bug that must surface, not a contained fault.
            .map(|h| h.join().expect("parallel_map worker panicked twice on one item"))
            .collect()
    });

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in batches.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "item {i} computed twice");
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("all slots filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = parallel_map(&[] as &[u32], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(parallel_map(&[7], |&x| x + 1), vec![8]);
    }

    #[test]
    fn workers_record_utilization_metrics() {
        let items_before = items_counter().get();
        let hist_before = util_histogram().snapshot().count;
        let items: Vec<u64> = (0..16).collect();
        let out = parallel_map(&items, |&x| x + 1);
        assert_eq!(out.len(), 16);
        // Counters are process-wide (other tests may add more), so assert
        // minimum deltas only.
        assert!(items_counter().get() >= items_before + 16);
        assert!(util_histogram().snapshot().count > hist_before);
    }

    #[test]
    fn injected_panic_is_contained_and_retried() {
        let _guard = faults::test_guard();
        faults::override_spec(Some("parallel.worker@3")).unwrap();
        let items: Vec<u64> = (0..12).collect();
        let out = parallel_map(&items, |&x| x * 3);
        assert_eq!(out, (0..12).map(|x| x * 3).collect::<Vec<_>>());
        assert_eq!(faults::fired("parallel.worker"), 1);
        faults::override_spec(None).unwrap();
    }

    #[test]
    fn heavy_closure_state_is_shared_safely() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let items: Vec<u32> = (0..37).collect();
        let out = parallel_map(&items, |&x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 37);
        assert_eq!(calls.load(Ordering::Relaxed), 37);
    }
}
