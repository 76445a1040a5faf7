//! The memoizing sweep engine.
//!
//! Experiments sweep dozens of predictor configurations over the same
//! benchmark traces, and many of them re-run identical (configuration,
//! benchmark) pairs — the BTB-2bc baseline alone is re-simulated by five
//! different experiments. This module makes the *(config × benchmark)
//! grid* the unit of scheduling and caching:
//!
//! * a [`Sweep`] flattens all its configurations against all suite
//!   benchmarks into one work queue for
//!   [`parallel_map`](crate::parallel_map), instead of barriering
//!   per-configuration on 17 traces;
//! * when the suite streams (`IBP_STREAM=1`, or traces beyond the length
//!   threshold), the cells of one benchmark share a single chunked
//!   generator pass ([`simulate_source_kernels`]) instead of each
//!   materialising or regenerating the trace; materialised cells fold
//!   one by one through [`simulate_kernel`];
//! * results are memoized in a process-wide cache keyed by
//!   `(PredictorConfig::cache_key(), benchmark, events, warmup)` — traces
//!   are pure functions of `(benchmark, events)`, so a repeated pair is
//!   guaranteed to reproduce the same [`RunStats`] and is never simulated
//!   twice, within or across experiments;
//! * the memo cache is seeded from the **persistent result cache**
//!   (`results/.cache/`, see [`crate::cache`]) on first use, and
//!   measurement binaries publish it back via [`persist_cache`] once they
//!   have simulated something new — so the guarantee extends across
//!   processes (`IBP_CACHE=0` opts out);
//! * global hit/miss/event counters ([`stats`]) let callers report cache
//!   effectiveness and simulation throughput — they live in the
//!   [`ibp_obs::metrics`] registry (`engine.cache.hits`,
//!   `engine.cache.misses`, `engine.cache.persistent_hits`,
//!   `engine.simulated_events`), so a journal snapshot carries them too;
//! * a worker panic inside a cell is contained by [`parallel_map`],
//!   which retries the cell inline and journals a `degraded` event — a
//!   fault costs wall time, never correctness;
//! * with tracing on (`IBP_TRACE`), every simulated cell emits a `cell`
//!   span (config, benchmark, queue wait vs. run time) and every memoized
//!   lookup a `cell` event with `outcome = "hit"`.
//!
//! Set `IBP_LOG=1` for a per-sweep progress line on stderr.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use ibp_core::{FoldKernel, Predictor, PredictorConfig};
use ibp_obs as obs;
use ibp_obs::metrics::Counter;
use ibp_workload::Benchmark;

use crate::cache::CacheKey;
use crate::parallel::parallel_map;
use crate::run::{simulate_kernel, simulate_source_kernels, RunStats};
use crate::suite::{Suite, SuiteResult};

fn cache() -> &'static Mutex<HashMap<CacheKey, RunStats>> {
    static CACHE: OnceLock<Mutex<HashMap<CacheKey, RunStats>>> = OnceLock::new();
    CACHE.get_or_init(|| {
        let loaded = crate::cache::load();
        if !loaded.is_empty() {
            obs::info!("[engine] persistent cache: {} entries loaded", loaded.len());
            persistent_keys()
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .extend(loaded.keys().cloned());
        }
        Mutex::new(loaded)
    })
}

/// Whether the memo cache holds simulated results the persistent cache has
/// not saved: set where [`Sweep::run`] publishes simulated units, cleared
/// by a successful [`persist_cache`] and left set by a failed one. It is
/// set, and cleared for a save, under the memo cache's lock, so a save's
/// snapshot holds every unit published before the clear. It guards no
/// data of its own, so relaxed ordering suffices.
static UNSAVED: AtomicBool = AtomicBool::new(false);

/// Keys that entered the memo cache from disk rather than live simulation
/// — hits on these count as persistent (cross-process) hits.
fn persistent_keys() -> &'static Mutex<HashSet<CacheKey>> {
    static SET: OnceLock<Mutex<HashSet<CacheKey>>> = OnceLock::new();
    SET.get_or_init(|| Mutex::new(HashSet::new()))
}

fn hits() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| obs::metrics::counter("engine.cache.hits"))
}

fn misses() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| obs::metrics::counter("engine.cache.misses"))
}

fn persistent_hits() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| obs::metrics::counter("engine.cache.persistent_hits"))
}

fn simulated_events() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| obs::metrics::counter("engine.simulated_events"))
}

/// Counts a memo-cache hit, attributing it to the persistent cache when
/// the key was seeded from disk.
fn count_hit(key: &CacheKey) {
    hits().incr();
    if persistent_keys()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .contains(key)
    {
        persistent_hits().incr();
    }
}

/// A snapshot of the process-wide engine counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Lookups served from the memo cache (never simulated again).
    pub hits: u64,
    /// Lookups that had to be simulated.
    pub misses: u64,
    /// Of the hits, how many were served from results loaded off disk
    /// (the persistent cross-process cache) rather than computed earlier
    /// in this process.
    pub persistent_hits: u64,
    /// Indirect-branch events processed by live simulation (warmup
    /// included); cache hits contribute nothing.
    pub simulated_events: u64,
    /// Always 0: the engine routes no cell to the sharded pipeline
    /// ([`crate::shard`]). Kept for callers that still read it.
    pub sharded_cells: u64,
    /// Always 0: the engine routes no cell to the component pipeline
    /// ([`crate::component`]). Kept for callers that still read it.
    pub component_cells: u64,
    /// Always 0: it counted pipeline faults the engine re-ran, and the
    /// engine no longer runs a pipeline. A contained `parallel_map`
    /// panic shows as a `degraded` journal event instead.
    pub degraded_cells: u64,
}

impl EngineStats {
    /// The counter deltas accumulated since an `earlier` snapshot.
    #[must_use]
    pub fn since(&self, earlier: EngineStats) -> EngineStats {
        EngineStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            persistent_hits: self.persistent_hits - earlier.persistent_hits,
            simulated_events: self.simulated_events - earlier.simulated_events,
            ..EngineStats::default()
        }
    }
}

/// The current process-wide counters. Diff two snapshots (see
/// [`EngineStats::since`]) to attribute work to a region of code.
#[must_use]
pub fn stats() -> EngineStats {
    EngineStats {
        hits: hits().get(),
        misses: misses().get(),
        persistent_hits: persistent_hits().get(),
        simulated_events: simulated_events().get(),
        ..EngineStats::default()
    }
}

/// Publishes the process's memo cache to the persistent result cache on
/// disk (merging with concurrent publishers; no-op under `IBP_CACHE=0`).
/// Measurement binaries call this once before exiting. It touches no file
/// unless the process simulated a result since its last successful save,
/// so a run served entirely from the caches leaves `engine.tsv` as it was.
pub fn persist_cache() {
    let entries: Vec<(CacheKey, RunStats)> = {
        let cache = cache()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if !UNSAVED.swap(false, Ordering::Relaxed) {
            return;
        }
        cache.iter().map(|(k, &v)| (k.clone(), v)).collect()
    };
    match crate::cache::save(&entries) {
        Ok(0) => {}
        Ok(n) => obs::info!("[engine] persistent cache: {n} entries saved"),
        Err(e) => {
            // Losing the cache costs re-simulation time on the next run,
            // never correctness — warn, journal, and leave the results
            // unsaved so the next call retries.
            UNSAVED.store(true, Ordering::Relaxed);
            eprintln!("warning: could not persist the result cache: {e}");
            let detail = e.to_string();
            obs::event!("degraded", site = "cache.save", detail = detail.as_str());
        }
    }
}

/// Empties the in-process memo cache (and its record of disk-loaded
/// keys). For measurement harnesses and tests that need to re-simulate
/// work this process already saw — never needed for correctness.
pub fn clear_memo_cache() {
    cache()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clear();
    persistent_keys()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clear();
}

struct Job<'a> {
    key: String,
    make: Box<dyn Fn() -> FoldKernel + Sync + 'a>,
}

/// A batch of predictor configurations to evaluate over one suite.
///
/// Queue configurations with [`config`](Sweep::config) (or
/// [`custom`](Sweep::custom) for predictors that `PredictorConfig` cannot
/// express), then call [`run`](Sweep::run): results come back in queue
/// order, one [`SuiteResult`] per configuration, exactly as if each had
/// been run through [`Suite::run`].
pub struct Sweep<'a> {
    suite: &'a Suite,
    warmup: u64,
    jobs: Vec<Job<'a>>,
}

impl<'a> Sweep<'a> {
    /// An empty sweep over `suite`.
    #[must_use]
    pub fn new(suite: &'a Suite) -> Self {
        Sweep {
            suite,
            warmup: 0,
            jobs: Vec::new(),
        }
    }

    /// Trains each predictor on the first `warmup` indirect branches of a
    /// trace without scoring them (cached separately per warmup value).
    pub fn warmup(&mut self, warmup: u64) -> &mut Self {
        self.warmup = warmup;
        self
    }

    /// Queues a predictor configuration; its memo key is
    /// [`PredictorConfig::cache_key`].
    pub fn config(&mut self, cfg: PredictorConfig) -> &mut Self {
        self.jobs.push(Job {
            key: cfg.cache_key(),
            make: Box::new(move || cfg.build_kernel()),
        });
        self
    }

    /// Queues a custom predictor constructor under an explicit memo key.
    ///
    /// The key must fully determine the constructed predictor's behaviour
    /// (it plays the role [`PredictorConfig::cache_key`] plays for
    /// `config`); two `custom` jobs with equal keys are assumed
    /// interchangeable and only one of them is simulated.
    pub fn custom<F>(&mut self, key: impl Into<String>, make: F) -> &mut Self
    where
        F: Fn() -> Box<dyn Predictor> + Sync + 'a,
    {
        self.jobs.push(Job {
            key: key.into(),
            // Custom predictors fold through the kernel's `Dyn` fallback:
            // same chunk skeleton, one virtual `step` per event.
            make: Box::new(move || FoldKernel::from_boxed(make())),
        });
        self
    }

    /// Number of queued configurations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether no configuration is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Evaluates every queued configuration over every suite benchmark:
    /// one flattened (config × benchmark) work queue, memoized against the
    /// process-wide cache. Returns one result per configuration, in queue
    /// order.
    #[must_use]
    pub fn run(&self) -> Vec<SuiteResult> {
        let t0 = Instant::now();
        let events = self.suite.events();
        let benchmarks = self.suite.benchmarks();
        let nb = benchmarks.len();
        let mut sweep_span = obs::span!("sweep", configs = self.jobs.len(), benchmarks = nb);

        // Phase 1: serve what we can from the cache; claim one simulation
        // unit per distinct (key, benchmark) among the rest, so duplicate
        // keys inside one sweep are simulated once.
        let mut results: Vec<Vec<Option<RunStats>>> = vec![vec![None; nb]; self.jobs.len()];
        let mut units: Vec<(usize, usize)> = Vec::new();
        {
            let cache = cache()
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let mut claimed: HashMap<(&str, Benchmark), ()> = HashMap::new();
            for (j, job) in self.jobs.iter().enumerate() {
                for (bi, &b) in benchmarks.iter().enumerate() {
                    let full_key = (job.key.clone(), b, events, self.warmup);
                    if let Some(&cached) = cache.get(&full_key) {
                        results[j][bi] = Some(cached);
                        count_hit(&full_key);
                        obs::event!("cell", config = job.key.as_str(), benchmark = b.name(), outcome = "hit");
                    } else if claimed.insert((job.key.as_str(), b), ()).is_none() {
                        units.push((j, bi));
                    }
                }
            }
        }

        // Phase 2: simulate all missing units. Materialized suites keep
        // the flat (config × benchmark) queue, each cell re-walking the
        // shared in-memory trace. Streamed suites never hold a trace, so
        // the cells of one benchmark share a single generator pass with
        // every event replayed into all of the group's predictors.
        let simulated: Vec<RunStats> = if self.suite.streamed() {
            self.run_units_streamed(&units, &benchmarks, t0)
        } else {
            parallel_map(&units, |&(j, bi)| {
                let b = benchmarks[bi];
                // Queue wait: time from sweep start until a worker picked
                // the cell up; the span's own duration is the run time.
                let wait_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
                let mut cell = obs::span("cell");
                cell.note("config", self.jobs[j].key.as_str());
                cell.note("benchmark", b.name());
                cell.note("outcome", "miss");
                cell.note("wait_us", wait_us);
                let trace = self.suite.trace(b);
                let mut kernel = (self.jobs[j].make)();
                let stats = simulate_kernel(&mut trace.cursor(), &mut kernel, self.warmup)
                    .expect("in-memory source cannot fail");
                cell.note("events", trace.indirect_count());
                simulated_events().add(trace.indirect_count());
                stats
            })
        };
        misses().add(units.len() as u64);

        // Phase 3: publish the new results, then fill every remaining slot
        // (duplicate keys within this sweep) from the cache.
        {
            let mut cache = cache()
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for (&(j, bi), &stats) in units.iter().zip(&simulated) {
                results[j][bi] = Some(stats);
                cache.insert(
                    (self.jobs[j].key.clone(), benchmarks[bi], events, self.warmup),
                    stats,
                );
            }
            if !units.is_empty() {
                UNSAVED.store(true, Ordering::Relaxed);
            }
            for (j, job) in self.jobs.iter().enumerate() {
                for (bi, &b) in benchmarks.iter().enumerate() {
                    if results[j][bi].is_none() {
                        let full_key = (job.key.clone(), b, events, self.warmup);
                        results[j][bi] = Some(
                            *cache
                                .get(&full_key)
                                .expect("duplicate-key slot filled by its representative"),
                        );
                        count_hit(&full_key);
                        obs::event!("cell", config = job.key.as_str(), benchmark = b.name(), outcome = "hit");
                    }
                }
            }
        }

        {
            let lookups = (self.jobs.len() * nb) as u64;
            let sim = units.len() as u64;
            sweep_span.note("lookups", lookups);
            sweep_span.note("simulated", sim);
            obs::info!(
                "[engine] sweep: {} configs x {} benchmarks = {} lookups, \
                 {} simulated, {} cached, {:.2?}",
                self.jobs.len(),
                nb,
                lookups,
                sim,
                lookups - sim,
                t0.elapsed(),
            );
        }

        results
            .into_iter()
            .map(|per_bench| {
                SuiteResult::from_runs(
                    benchmarks
                        .iter()
                        .zip(per_bench)
                        .map(|(&b, s)| (b, s.expect("all slots filled")))
                        .collect(),
                )
            })
            .collect()
    }

    /// Streamed phase 2: groups units by benchmark and folds each group's
    /// kernels over one shared source pass ([`simulate_source_kernels`]),
    /// so a sweep of N configurations costs one trace pass per benchmark
    /// instead of N. Results come back in `units` order.
    fn run_units_streamed(
        &self,
        units: &[(usize, usize)],
        benchmarks: &[Benchmark],
        t0: Instant,
    ) -> Vec<RunStats> {
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        for (u, &(_, bi)) in units.iter().enumerate() {
            match groups.iter_mut().find(|(gbi, _)| *gbi == bi) {
                Some((_, members)) => members.push(u),
                None => groups.push((bi, vec![u])),
            }
        }
        let per_group: Vec<Vec<RunStats>> = parallel_map(&groups, |(bi, members)| {
            let b = benchmarks[*bi];
            let wait_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
            let mut cell = obs::span("cell");
            cell.note("benchmark", b.name());
            cell.note("outcome", "miss");
            cell.note("configs", members.len());
            cell.note("wait_us", wait_us);
            let mut source = self.suite.source(b);
            // Event accounting stays per-unit even though a pass is
            // shared: each cell still scores one trace length of events.
            simulated_events().add(self.suite.events() * members.len() as u64);
            cell.note("events", self.suite.events());
            let mut kernels: Vec<FoldKernel> = members
                .iter()
                .map(|&u| (self.jobs[units[u].0].make)())
                .collect();
            simulate_source_kernels(&mut *source, &mut kernels, self.warmup)
                .expect("suite sources cannot fail")
        });
        let mut out: Vec<Option<RunStats>> = vec![None; units.len()];
        for ((_, members), stats) in groups.iter().zip(per_group) {
            for (&u, s) in members.iter().zip(stats) {
                out[u] = Some(s);
            }
        }
        out.into_iter()
            .map(|s| s.expect("every unit simulated"))
            .collect()
    }
}

/// Runs one configuration through the engine (memoized [`Suite::run`]).
#[must_use]
pub fn run_config(suite: &Suite, cfg: PredictorConfig) -> SuiteResult {
    let mut sweep = Sweep::new(suite);
    sweep.config(cfg);
    sweep.run().pop().expect("one result per config")
}

/// Runs a batch of configurations through the engine, returning results in
/// input order.
#[must_use]
pub fn run_configs(suite: &Suite, configs: Vec<PredictorConfig>) -> Vec<SuiteResult> {
    let mut sweep = Sweep::new(suite);
    for cfg in configs {
        sweep.config(cfg);
    }
    sweep.run()
}

/// Runs one custom predictor through the engine under an explicit memo key
/// (see [`Sweep::custom`] for the key contract).
#[must_use]
pub fn run_custom<F>(suite: &Suite, key: impl Into<String>, make: F) -> SuiteResult
where
    F: Fn() -> Box<dyn Predictor> + Sync,
{
    let mut sweep = Sweep::new(suite);
    sweep.custom(key, make);
    sweep.run().pop().expect("one result per config")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_workload::Benchmark;

    fn tiny_suite() -> Suite {
        Suite::with_benchmarks_and_len(&[Benchmark::Ixx, Benchmark::Xlisp], 4_000)
    }

    /// The hit/miss counters are process-wide, so tests asserting exact
    /// deltas must not interleave with other engine activity.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn sweep_matches_direct_suite_run() {
        let _guard = serial();
        let suite = tiny_suite();
        let configs = vec![
            PredictorConfig::btb(),
            PredictorConfig::btb_2bc(),
            PredictorConfig::unconstrained(3),
            PredictorConfig::practical(2, 1024, 4),
        ];
        let engine_results = run_configs(&suite, configs.clone());
        for (cfg, from_engine) in configs.into_iter().zip(engine_results) {
            let direct = suite.run(|| cfg.build());
            for b in suite.benchmarks() {
                assert_eq!(
                    from_engine.stats(b),
                    direct.stats(b),
                    "engine diverges from Suite::run for {b} under {}",
                    cfg.cache_key()
                );
            }
        }
    }

    #[test]
    fn repeated_config_hits_cache() {
        let _guard = serial();
        let suite = tiny_suite();
        let cfg = PredictorConfig::unconstrained(5).with_pattern_budget(17);
        let before = stats();
        let first = run_config(&suite, cfg.clone());
        let mid = stats();
        assert_eq!(mid.since(before).misses, 2, "two fresh benchmarks");
        let second = run_config(&suite, cfg);
        let after = stats();
        assert_eq!(after.since(mid).misses, 0, "everything memoized");
        assert_eq!(after.since(mid).hits, 2);
        for b in suite.benchmarks() {
            assert_eq!(first.stats(b), second.stats(b));
        }
    }

    #[test]
    fn duplicate_keys_in_one_sweep_simulate_once() {
        let _guard = serial();
        let suite = tiny_suite();
        let cfg = PredictorConfig::unconstrained(7).with_pattern_budget(19);
        let before = stats();
        let mut sweep = Sweep::new(&suite);
        sweep.config(cfg.clone()).config(cfg.clone()).config(cfg);
        let results = sweep.run();
        let delta = stats().since(before);
        assert_eq!(results.len(), 3);
        assert_eq!(delta.misses, 2, "one simulation per benchmark");
        assert_eq!(delta.hits, 4, "the two duplicates are cache-filled");
        assert_eq!(results[0].rates(), results[1].rates());
        assert_eq!(results[0].rates(), results[2].rates());
    }

    #[test]
    fn warmup_is_part_of_the_key() {
        let _guard = serial();
        let suite = tiny_suite();
        let cfg = PredictorConfig::unconstrained(2).with_pattern_budget(21);
        let cold = run_config(&suite, cfg.clone());
        let mut sweep = Sweep::new(&suite);
        sweep.warmup(1_000).config(cfg);
        let warm = sweep.run().pop().expect("one result");
        let b = Benchmark::Ixx;
        assert!(warm.stats(b).expect("present").indirect < cold.stats(b).expect("present").indirect);
    }

    #[test]
    fn custom_jobs_memoize_under_their_key() {
        let _guard = serial();
        let suite = tiny_suite();
        let make = || PredictorConfig::unconstrained(9).with_pattern_budget(23).build();
        let before = stats();
        let first = run_custom(&suite, "test-custom-u9b23", make);
        let second = run_custom(&suite, "test-custom-u9b23", make);
        let delta = stats().since(before);
        assert_eq!(delta.misses, 2);
        assert_eq!(delta.hits, 2);
        assert_eq!(first.rates(), second.rates());
    }

    #[test]
    fn simulated_events_count_live_work_only() {
        let _guard = serial();
        let suite = tiny_suite();
        let cfg = PredictorConfig::unconstrained(11).with_pattern_budget(13);
        let before = stats();
        let _ = run_config(&suite, cfg.clone());
        let mid = stats();
        assert_eq!(mid.since(before).simulated_events, 8_000, "2 traces x 4000");
        let _ = run_config(&suite, cfg);
        assert_eq!(stats().since(mid).simulated_events, 0);
    }
}
