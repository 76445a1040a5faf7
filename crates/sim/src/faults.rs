//! Deterministic fault injection for the containment layer (`IBP_FAULTS`).
//!
//! The simulator promises that a worker panic or a failed cache write
//! costs wall time, never correctness: `parallel_map` retries a panicked
//! cell inline, and the caches warn and continue. The library pipelines
//! (`shard`, `component`) report a panicked or stalled worker as a
//! `PipelineError::Fault` instead of dying. That promise is only worth
//! having if it is exercised, so this module lets a run arm faults at
//! *named sites* that fire at a deterministic occurrence count — every
//! failure is reproducible from the spec alone.
//!
//! # Spec grammar
//!
//! `IBP_FAULTS` is a semicolon-separated list of clauses:
//!
//! ```text
//! IBP_FAULTS="parallel.worker@3;trace_cache.read;watchdog=250"
//! ```
//!
//! * `<site>` — arm `site` to fire at its first occurrence;
//! * `<site>@<n>` — arm `site` to fire at its `n`-th occurrence (1-based);
//! * `watchdog=<ms>` — bound every pipeline condvar wait to `ms`
//!   milliseconds (default 30000): a wait that exceeds the bound is
//!   reported as a stalled-queue fault instead of hanging the process.
//!
//! Unset or empty means injection is off (the only extra cost on hot
//! paths is one relaxed atomic load). A malformed spec warns and leaves
//! injection off — a bad knob must never corrupt a measurement run. The
//! spec string comes from [`ibp_obs::knobs()`], which reads `IBP_FAULTS`
//! once; the grammar is this module's.
//!
//! Each armed site fires **exactly once** per arming: the n-th call to
//! [`should_fire`] for that site returns true, every other call false.
//! One-shot semantics are what make the inline retry safe to drive under
//! injection — the retry never re-trips the same fault.
//!
//! # Sites
//!
//! [`SITES`] names every site a spec may arm:
//!
//! * `parallel.worker` (panic): a `parallel_map` item's fold panics; the
//!   item is retried inline on the calling path.
//! * `shard.worker` (panic): a site-shard worker panics mid-batch; the
//!   pipeline reports a fault.
//! * `shard.stall` (stall): a site-shard worker stops draining its queue;
//!   the router trips the watchdog.
//! * `component.worker` (panic): a component-fold worker panics
//!   mid-chunk; the pipeline reports a fault.
//! * `component.stall` (stall): a component-fold worker stops
//!   mid-pipeline; the router or merger trips the watchdog.
//! * `cache.write` (I/O): the persistent result cache's temp-file write
//!   fails, ENOSPC-style; the temp file is removed, and the run warns and
//!   continues.
//! * `cache.rename` (I/O): the result cache's atomic publish rename
//!   fails; the temp file is removed, and the run warns and continues.
//! * `trace_cache.write` (I/O): a trace segment's encode or write fails;
//!   the pass falls back to direct generation.
//! * `trace_cache.rename` (I/O): a trace segment's publish rename fails;
//!   the temp file is removed and the pass generates directly.
//! * `trace_cache.read` (I/O): a corpus replay's first fill fails as a
//!   corrupt segment's would; the replay evicts its segment, and its pass
//!   folds again on the generator.
//! * `journal.write` (I/O): the journal sink's write fails; the journal
//!   disables itself with a warning and the run continues.
//!
//! The `shard.*` and `component.*` sites live in the library pipelines,
//! which the engine never runs; their modules' unit tests arm them.
//! `crates/sim/tests/fault_matrix.rs` arms every other site over the
//! engine, and fails when a site is registered that it does not arm.
//!
//! # Scopes
//!
//! A plan parsed from `IBP_FAULTS` counts occurrences on every thread. A
//! plan armed through [`override_spec`] counts them only in the arming
//! thread's *scope*: that thread and the workers it spawns, which join its
//! scope with `enter_scope`. So two tests in one process never trip each
//! other's faults or watchdog bounds, whichever sites they cross.

use std::any::Any;
use std::cell::Cell;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// Every site a spec may arm, as written in the spec; the module doc
/// describes each.
pub const SITES: &[&str] = &[
    "parallel.worker",
    "shard.worker",
    "shard.stall",
    "component.worker",
    "component.stall",
    "cache.write",
    "cache.rename",
    "trace_cache.write",
    "trace_cache.rename",
    "trace_cache.read",
    "journal.write",
];

fn site_known(name: &str) -> bool {
    SITES.contains(&name)
}

/// One armed site: fire at exactly the `fire_at`-th occurrence.
#[derive(Debug, Clone)]
struct Arm {
    fire_at: u64,
    seen: u64,
    fired: u64,
}

#[derive(Debug, Clone, Default)]
struct Plan {
    arms: HashMap<&'static str, Arm>,
    watchdog_ms: Option<u64>,
    /// The scope whose threads the plan applies to; `None` for every
    /// thread.
    scope: Option<u64>,
}

impl Plan {
    fn is_armed(&self) -> bool {
        !self.arms.is_empty()
    }

    /// Whether the calling thread is in the plan's scope.
    fn applies_here(&self) -> bool {
        self.scope.is_none_or(|scope| scope == current_scope())
    }
}

thread_local! {
    /// The calling thread's fault scope; zero until the thread arms a plan
    /// or joins its spawner's scope.
    static SCOPE: Cell<u64> = const { Cell::new(0) };
}

/// The calling thread's fault scope, to hand to the workers it spawns.
#[must_use]
pub(crate) fn current_scope() -> u64 {
    SCOPE.with(Cell::get)
}

/// Puts the calling thread (a freshly spawned worker) in `scope`, the
/// [`current_scope`] of the thread that spawned it, so the faults armed
/// there fire here too.
pub(crate) fn enter_scope(scope: u64) {
    SCOPE.with(|s| s.set(scope));
}

/// The calling thread's scope, opening a fresh one if it has none.
fn own_scope() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    SCOPE.with(|s| {
        if s.get() == 0 {
            s.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        s.get()
    })
}

/// Default bound on pipeline condvar waits. Generous enough that no
/// honest backpressure ever trips it (a worker drains a batch in
/// microseconds), small enough that a genuinely wedged pipeline surfaces
/// as a contained fault instead of a hung sweep.
const DEFAULT_WATCHDOG_MS: u64 = 30_000;

/// Whether any fault site is armed — the hot-path gate.
static ACTIVE: AtomicBool = AtomicBool::new(false);

fn plan() -> &'static Mutex<Plan> {
    static PLAN: OnceLock<Mutex<Plan>> = OnceLock::new();
    PLAN.get_or_init(|| {
        let parsed = env_plan().unwrap_or_else(|warning| {
            eprintln!("{warning}");
            Plan::default()
        });
        apply(&parsed);
        Mutex::new(parsed)
    })
}

/// The plan `IBP_FAULTS` arms ([`ibp_obs::knobs()`]): unarmed when unset,
/// `Err` with the warning to print when malformed.
fn env_plan() -> Result<Plan, String> {
    match &ibp_obs::knobs().faults {
        None => Ok(Plan::default()),
        Some(raw) => parse_spec(raw).map_err(|e| {
            format!("warning: ignoring invalid IBP_FAULTS={raw:?}: {e} (injection off)")
        }),
    }
}

fn lock_plan() -> std::sync::MutexGuard<'static, Plan> {
    plan().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Publishes a plan's derived state: the hot-path flag and the journal
/// write-fault hook (the journal lives below this crate, so injection
/// reaches it through `ibp_obs`'s hook slot).
fn apply(p: &Plan) {
    ACTIVE.store(p.is_armed(), Ordering::Relaxed);
    if p.arms.contains_key("journal.write") {
        ibp_obs::journal::set_fault_hook(Some(Box::new(|| io_error("journal.write"))));
    } else {
        ibp_obs::journal::set_fault_hook(None);
    }
}

fn parse_spec(raw: &str) -> Result<Plan, String> {
    let mut plan = Plan::default();
    for clause in raw.split(';') {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        if let Some(value) = clause.strip_prefix("watchdog=") {
            let ms: u64 = value
                .trim()
                .parse()
                .map_err(|_| format!("watchdog wants milliseconds, got {value:?}"))?;
            if ms == 0 {
                return Err("watchdog must be nonzero".to_string());
            }
            plan.watchdog_ms = Some(ms);
            continue;
        }
        let (name, fire_at) = match clause.split_once('@') {
            Some((name, n)) => {
                let n: u64 = n
                    .trim()
                    .parse()
                    .map_err(|_| format!("occurrence in {clause:?} is not an integer"))?;
                if n == 0 {
                    return Err(format!("occurrence in {clause:?} is 1-based, got 0"));
                }
                (name.trim(), n)
            }
            None => (clause, 1),
        };
        let Some(&site) = SITES.iter().find(|&&s| s == name) else {
            return Err(format!(
                "unknown site {name:?} (known: {})",
                SITES.join(", ")
            ));
        };
        plan.arms.insert(
            site,
            Arm {
                fire_at,
                seen: 0,
                fired: 0,
            },
        );
    }
    Ok(plan)
}

/// Whether any site is armed. One relaxed load — the only cost injection
/// adds to an unarmed run.
#[must_use]
pub fn active() -> bool {
    // Touch the plan once so env parsing (and hook installation) happens
    // before the first hot-path check races it.
    let _ = plan();
    ACTIVE.load(Ordering::Relaxed)
}

/// Counts one occurrence of `site` and reports whether the armed fault
/// fires *now* (exactly once, at the configured occurrence). Occurrences
/// outside the plan's scope are not counted.
#[must_use]
pub fn should_fire(site: &'static str) -> bool {
    debug_assert!(site_known(site), "unregistered fault site {site:?}");
    if !active() {
        return false;
    }
    let mut plan = lock_plan();
    if !plan.applies_here() {
        return false;
    }
    let Some(arm) = plan.arms.get_mut(site) else {
        return false;
    };
    arm.seen += 1;
    if arm.seen == arm.fire_at {
        arm.fired += 1;
        return true;
    }
    false
}

/// Panics with a recognisable payload when `site` fires. Call from code
/// that runs under a `catch_unwind` containment boundary.
pub fn fire_panic(site: &'static str) {
    if should_fire(site) {
        panic!("injected fault: {site}");
    }
}

/// The injected I/O error when `site` fires, `None` otherwise.
#[must_use]
pub fn io_error(site: &'static str) -> Option<io::Error> {
    should_fire(site)
        .then(|| io::Error::other(format!("injected fault: {site} (no space left on device)")))
}

/// How many times `site` has fired since the plan was (re)armed.
#[must_use]
pub fn fired(site: &str) -> u64 {
    plan()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .arms
        .get(site)
        .map_or(0, |a| a.fired)
}

/// How many occurrences of `site` have been counted since the plan was
/// (re)armed. Harness plumbing: arm a site far beyond its occurrence
/// count, run clean, and `seen` tells you how many chances it had — the
/// honest way to target "the last chunk".
#[must_use]
pub fn seen(site: &str) -> u64 {
    plan()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .arms
        .get(site)
        .map_or(0, |a| a.seen)
}

/// The bound on pipeline condvar waits: the plan's in its scope, the
/// default elsewhere. Consulted only once a wait is actually necessary —
/// the uncontended queue fast path never reads it.
#[must_use]
pub fn watchdog() -> Duration {
    let plan = lock_plan();
    let ms = match plan.watchdog_ms {
        Some(ms) if plan.applies_here() => ms,
        _ => DEFAULT_WATCHDOG_MS,
    };
    Duration::from_millis(ms)
}

/// Replaces the plan for this process: `Some(spec)` arms the spec
/// (counters zeroed) in the calling thread's scope, `None` restores the
/// `IBP_FAULTS` plan. Test plumbing — the knob itself is read once.
///
/// # Errors
///
/// Returns the parse error message for a malformed spec; the previous
/// plan stays armed.
pub fn override_spec(spec: Option<&str>) -> Result<(), String> {
    let next = match spec {
        Some(raw) => Plan {
            scope: Some(own_scope()),
            ..parse_spec(raw)?
        },
        None => env_plan().unwrap_or_default(),
    };
    let mut guard = lock_plan();
    apply(&next);
    *guard = next;
    Ok(())
}

/// Renders a panic payload (from `catch_unwind` or a failed join) as the
/// human-readable detail string carried on the fault report.
#[must_use]
pub fn panic_detail(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Serialises the tests that arm a plan: there is one plan per process,
/// even though each fires only in its arming test's scope.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_by_default_and_cheap() {
        let _guard = test_guard();
        override_spec(None).unwrap();
        assert!(!should_fire("shard.worker"));
        assert_eq!(fired("shard.worker"), 0);
    }

    #[test]
    fn fires_exactly_once_at_the_nth_occurrence() {
        let _guard = test_guard();
        override_spec(Some("shard.worker@3")).unwrap();
        assert!(!should_fire("shard.worker"));
        assert!(!should_fire("shard.worker"));
        assert!(should_fire("shard.worker"));
        assert!(!should_fire("shard.worker"));
        assert_eq!(fired("shard.worker"), 1);
        assert_eq!(seen("shard.worker"), 4);
        override_spec(None).unwrap();
    }

    #[test]
    fn unarmed_sites_do_not_fire() {
        let _guard = test_guard();
        override_spec(Some("shard.worker@1")).unwrap();
        assert!(!should_fire("component.worker"));
        assert!(io_error("cache.write").is_none());
        override_spec(None).unwrap();
    }

    #[test]
    fn io_error_carries_the_site_name() {
        let _guard = test_guard();
        override_spec(Some("cache.write")).unwrap();
        let e = io_error("cache.write").expect("armed at occurrence 1");
        assert!(e.to_string().contains("cache.write"));
        assert!(io_error("cache.write").is_none(), "one-shot");
        override_spec(None).unwrap();
    }

    #[test]
    fn watchdog_parses_and_restores() {
        let _guard = test_guard();
        override_spec(Some("shard.stall@1;watchdog=250")).unwrap();
        assert_eq!(watchdog(), Duration::from_millis(250));
        override_spec(None).unwrap();
        assert_eq!(watchdog(), Duration::from_millis(DEFAULT_WATCHDOG_MS));
    }

    #[test]
    fn malformed_specs_are_rejected() {
        let _guard = test_guard();
        assert!(override_spec(Some("no.such.site@1")).is_err());
        assert!(override_spec(Some("shard.worker@0")).is_err());
        assert!(override_spec(Some("watchdog=banana")).is_err());
        assert!(override_spec(Some("shard.worker@two")).is_err());
        // The retired `seed=` term is an unknown site now.
        assert!(override_spec(Some("seed=42;shard.worker")).is_err());
        override_spec(None).unwrap();
    }

    #[test]
    fn armed_plans_fire_only_in_their_scope() {
        let _guard = test_guard();
        override_spec(Some("shard.worker@1;watchdog=250")).unwrap();
        let scope = current_scope();
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(!should_fire("shard.worker"), "outsider does not count");
                assert_eq!(watchdog(), Duration::from_millis(DEFAULT_WATCHDOG_MS));
            });
        });
        assert_eq!(seen("shard.worker"), 0);
        std::thread::scope(|s| {
            s.spawn(|| {
                enter_scope(scope);
                assert_eq!(watchdog(), Duration::from_millis(250));
                assert!(should_fire("shard.worker"), "joined worker counts");
            });
        });
        assert_eq!(fired("shard.worker"), 1);
        override_spec(None).unwrap();
    }

    #[test]
    fn panic_detail_extracts_common_payloads() {
        assert_eq!(panic_detail(&"boom"), "boom");
        assert_eq!(panic_detail(&"boom".to_string()), "boom");
        assert_eq!(panic_detail(&42u32), "opaque panic payload");
    }

    #[test]
    fn every_registered_site_has_a_unique_name() {
        for (i, a) in SITES.iter().enumerate() {
            assert!(!SITES[i + 1..].contains(a), "{a} registered twice");
        }
    }
}
