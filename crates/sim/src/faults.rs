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
//! * `seed=<s>` — derive the occurrence for every armed site without an
//!   explicit `@<n>` from `s` (a cheap deterministic mix of seed and site
//!   name), so one integer explores many schedules reproducibly;
//! * `watchdog=<ms>` — bound every pipeline condvar wait to `ms`
//!   milliseconds (default 30000): a wait that exceeds the bound is
//!   reported as a stalled-queue fault instead of hanging the process.
//!
//! Unset or empty means injection is off (the only extra cost on hot
//! paths is one relaxed atomic load). A malformed spec warns and leaves
//! injection off — a bad knob must never corrupt a measurement run.
//!
//! Each armed site fires **exactly once** per arming: the n-th call to
//! [`should_fire`] for that site returns true, every other call false.
//! One-shot semantics are what make the inline retry safe to drive under
//! injection — the retry never re-trips the same fault.
//!
//! The registered sites are listed in [`SITES`]; `fault_matrix` sweeps
//! all of them over the engine.
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

/// What an armed site does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker thread panics (`fire_panic`).
    Panic,
    /// The worker stops consuming/producing without closing its queues,
    /// so progress depends on the watchdog (`should_fire` at a stall
    /// check site).
    Stall,
    /// An I/O operation fails with an injected error (`io_error`).
    Io,
}

/// One registered injection point.
#[derive(Debug, Clone, Copy)]
pub struct FaultSite {
    /// Site name as written in the spec (e.g. `shard.worker`).
    pub name: &'static str,
    /// What firing does.
    pub kind: FaultKind,
    /// Where the site lives and what failing there exercises.
    pub what: &'static str,
}

/// Every site the harness can arm. `fault_matrix` iterates this table.
pub const SITES: &[FaultSite] = &[
    FaultSite {
        name: "parallel.worker",
        kind: FaultKind::Panic,
        what: "parallel_map item fold panics; retried inline on the calling path",
    },
    FaultSite {
        name: "shard.worker",
        kind: FaultKind::Panic,
        what: "site-shard worker panics mid-batch; the pipeline reports a fault",
    },
    FaultSite {
        name: "shard.stall",
        kind: FaultKind::Stall,
        what: "site-shard worker stops draining its queue; router trips the watchdog",
    },
    FaultSite {
        name: "component.worker",
        kind: FaultKind::Panic,
        what: "component-fold worker panics mid-chunk; the pipeline reports a fault",
    },
    FaultSite {
        name: "component.stall",
        kind: FaultKind::Stall,
        what: "component-fold worker stops mid-pipeline; router/merger trips the watchdog",
    },
    FaultSite {
        name: "cache.write",
        kind: FaultKind::Io,
        what: "persistent result cache tmp write fails (ENOSPC-style); tmp cleaned, warn and continue",
    },
    FaultSite {
        name: "cache.rename",
        kind: FaultKind::Io,
        what: "persistent result cache atomic publish rename fails; tmp cleaned, warn and continue",
    },
    FaultSite {
        name: "trace_cache.write",
        kind: FaultKind::Io,
        what: "trace segment encode/write fails; falls back to direct generation",
    },
    FaultSite {
        name: "trace_cache.rename",
        kind: FaultKind::Io,
        what: "trace segment publish rename fails; tmp cleaned, falls back to direct generation",
    },
    FaultSite {
        name: "trace_cache.read",
        kind: FaultKind::Io,
        what: "trace segment verification reads corrupt; segment evicted and regenerated",
    },
    FaultSite {
        name: "journal.write",
        kind: FaultKind::Io,
        what: "journal sink write fails; journal disables itself with a warning, run continues",
    },
];

/// The registered sites (spec vocabulary), for harnesses and `--help`
/// style listings.
#[must_use]
pub fn sites() -> &'static [FaultSite] {
    SITES
}

fn site_known(name: &str) -> bool {
    SITES.iter().any(|s| s.name == name)
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
        let parsed = match std::env::var("IBP_FAULTS") {
            Ok(raw) if !raw.trim().is_empty() => match parse_spec(&raw) {
                Ok(plan) => plan,
                Err(e) => {
                    eprintln!("warning: ignoring invalid IBP_FAULTS={raw:?}: {e} (injection off)");
                    Plan::default()
                }
            },
            _ => Plan::default(),
        };
        apply(&parsed);
        Mutex::new(parsed)
    })
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

/// A cheap deterministic mix (splitmix64 over seed ⊕ site bytes) mapping
/// a seed to a small 1-based occurrence, so `seed=<s>` explores early,
/// mid and late firings without hand-written `@<n>` clauses.
fn derive_occurrence(seed: u64, site: &str) -> u64 {
    let mut x = seed ^ 0x9e37_79b9_7f4a_7c15;
    for &b in site.as_bytes() {
        x = x.wrapping_add(u64::from(b)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
    }
    (x % 8) + 1
}

fn parse_spec(raw: &str) -> Result<Plan, String> {
    let mut plan = Plan::default();
    let mut seed: Option<u64> = None;
    let mut unseeded: Vec<&'static str> = Vec::new();
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
        if let Some(value) = clause.strip_prefix("seed=") {
            seed = Some(
                value
                    .trim()
                    .parse()
                    .map_err(|_| format!("seed wants an integer, got {value:?}"))?,
            );
            continue;
        }
        let (name, occurrence) = match clause.split_once('@') {
            Some((name, n)) => {
                let n: u64 = n
                    .trim()
                    .parse()
                    .map_err(|_| format!("occurrence in {clause:?} is not an integer"))?;
                if n == 0 {
                    return Err(format!("occurrence in {clause:?} is 1-based, got 0"));
                }
                (name.trim(), Some(n))
            }
            None => (clause, None),
        };
        let Some(site) = SITES.iter().find(|s| s.name == name) else {
            let known: Vec<&str> = SITES.iter().map(|s| s.name).collect();
            return Err(format!("unknown site {name:?} (known: {})", known.join(", ")));
        };
        match occurrence {
            Some(n) => {
                plan.arms.insert(site.name, Arm { fire_at: n, seen: 0, fired: 0 });
            }
            None => unseeded.push(site.name),
        }
    }
    for name in unseeded {
        let fire_at = seed.map_or(1, |s| derive_occurrence(s, name));
        plan.arms.insert(name, Arm { fire_at, seen: 0, fired: 0 });
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
/// `IBP_FAULTS` environment parse. Harness plumbing (`fault_matrix`,
/// tests) — the env itself is read once.
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
        None => match std::env::var("IBP_FAULTS") {
            Ok(raw) if !raw.trim().is_empty() => parse_spec(&raw).unwrap_or_default(),
            _ => Plan::default(),
        },
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
    fn seed_derives_occurrences_deterministically() {
        let _guard = test_guard();
        let a = derive_occurrence(42, "shard.worker");
        let b = derive_occurrence(42, "shard.worker");
        assert_eq!(a, b);
        assert!((1..=8).contains(&a));
        override_spec(Some("seed=42;shard.worker")).unwrap();
        for _ in 0..a.saturating_sub(1) {
            assert!(!should_fire("shard.worker"));
        }
        assert!(should_fire("shard.worker"));
        override_spec(None).unwrap();
    }

    #[test]
    fn malformed_specs_are_rejected() {
        let _guard = test_guard();
        assert!(override_spec(Some("no.such.site@1")).is_err());
        assert!(override_spec(Some("shard.worker@0")).is_err());
        assert!(override_spec(Some("watchdog=banana")).is_err());
        assert!(override_spec(Some("shard.worker@two")).is_err());
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
            for b in &SITES[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }
}
