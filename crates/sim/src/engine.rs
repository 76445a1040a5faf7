//! The memoizing sweep engine.
//!
//! Experiments sweep dozens of predictor configurations over the same
//! benchmark traces, and many of them re-run identical (configuration,
//! benchmark) pairs — the BTB-2bc baseline alone is re-simulated by five
//! different experiments. This module makes the *(job × benchmark) grid*
//! the unit of scheduling and caching, where a job is a predictor
//! configuration or a measurement of the trace:
//!
//! * a [`Sweep`] looks up all its jobs against their benchmarks at once,
//!   instead of barriering per configuration on 17 traces;
//! * the cells that miss are grouped by benchmark, and each group folds
//!   all its kernels and [`MeasureLane`]s over one shared source pass,
//!   with the groups spread over [`parallel_map`] — so a sweep opens at
//!   most one trace pass per benchmark, and none when every cell hits;
//! * within a pass, the unbounded full-key configs of one path-length
//!   family ([`PredictorConfig::path_family`]) fold as one [`PathTrie`]
//!   lane when the family is dense enough for the trie to pay, except in
//!   a probed pass: a trie folds depth by depth after the pass, so it has
//!   no table to sample mid-pass. The compressed-key lanes fold through
//!   one component bank ([`KeyStreams`](ibp_core::KeyStreams)), probed or
//!   not: one key stream per key recipe and one table per distinct
//!   component, which every lane holding it reads. Every other cell folds
//!   on its own lane;
//! * a cell's value is a [`Measurement`]: a predictor's
//!   [`RunStats`](crate::RunStats), or
//!   what a measure lane found (a miss breakdown, a pattern count,
//!   ahead-prediction hits, a trace's characteristics);
//! * values are memoized in one process-wide map keyed by the job's key
//!   ([`PredictorConfig::cache_key`], a `custom` key, or a measurement's
//!   `<kind>|…` key), which holds per trace length one compact row of
//!   counts over every benchmark — traces are pure functions of
//!   `(benchmark, events)`, so a repeated cell is guaranteed to reproduce
//!   the same value and is never folded twice, within or across
//!   experiments, and a sweep looks up all of a job's benchmarks with one
//!   probe of the map;
//! * the memo map is the **persistent result cache**'s rows
//!   (`results/.cache/`), loaded on first use with each cell marked as
//!   loaded from disk, and measurement binaries publish it back via
//!   [`persist_cache`] once they have folded something new — so the
//!   guarantee extends across processes (`IBP_CACHE=0` opts out), and a
//!   second `repro_all` folds nothing and reads no trace;
//! * global hit/miss/event counters ([`stats`]) let callers report cache
//!   effectiveness and simulation throughput — they live in the
//!   [`ibp_obs::metrics`] registry (`engine.cache.hits`,
//!   `engine.cache.misses`, `engine.cache.persistent_hits`,
//!   `engine.simulated_events`), so a journal snapshot carries them too;
//! * a worker panic inside a benchmark pass is contained by
//!   [`parallel_map`], which retries the pass inline and journals a
//!   `degraded` event — a fault costs wall time, never correctness;
//! * with tracing on (`IBP_TRACE`), every benchmark pass emits a `cell`
//!   span (benchmark, config count, queue wait vs. run time, the depths
//!   of its trie families, their node probes, the probes that hashed,
//!   pruned branches and buffer bytes as `trie_probes`, `trie_hashed`,
//!   `trie_pruned` and `trie_bytes`, its number of key streams as `keys`
//!   and of distinct component tables as `components`),
//!   every folded cell a `cell` event with `outcome = "miss"` and the
//!   `fold` that made it (`"trie"`, `"keyed"` or `"lane"`), and every job
//!   whose lookups the memo cache served one `cell` event per sweep with
//!   `outcome = "hit"`, naming those `benchmarks`, their count as `hits`
//!   and how many of them were loaded from disk as `from_disk`.
//!
//! With tracing on, each sweep also journals one progress line.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use ibp_core::{FoldKernel, PathFamily, PathTrie, PredictorConfig};
use ibp_obs as obs;
use ibp_obs::metrics::Counter;
use ibp_workload::Benchmark;

use crate::cache::Rows;
use crate::parallel::parallel_map;
use crate::probe;
use crate::run::{simulate_source_cells, trie_stats, MeasureLane, Measurement};
use crate::suite::{Suite, SuiteResult};

/// The memo cache: the persistent cache's [`Rows`], loaded on first use,
/// with the cells this process folds written into them in place.
fn cache() -> MutexGuard<'static, Rows> {
    static CACHE: OnceLock<Mutex<Rows>> = OnceLock::new();
    CACHE
        .get_or_init(|| Mutex::new(crate::cache::load()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Whether the memo cache holds folded results the persistent cache has
/// not saved: set where [`Sweep::run_all`] publishes folded units, cleared
/// by a successful [`persist_cache`] and left set by a failed one. It is
/// set, and cleared for a save, under the memo cache's lock, which the
/// save holds, so the save writes every unit published before the clear.
/// It guards no data of its own, so relaxed ordering suffices.
static UNSAVED: AtomicBool = AtomicBool::new(false);

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
/// the value was loaded from disk.
fn count_hit(from_disk: bool) {
    hits().incr();
    if from_disk {
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
    /// Indirect-branch events processed by live simulation, one trace
    /// length per folded cell; cache hits contribute nothing.
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
/// unless the process folded a cell since its last successful save, so a
/// run served entirely from the caches leaves `engine.tsv` as it was.
pub fn persist_cache() {
    let cache = cache();
    if !UNSAVED.swap(false, Ordering::Relaxed) {
        return;
    }
    if let Err(e) = crate::cache::save(&cache) {
        // Losing the cache costs re-simulation time on the next run,
        // never correctness — warn, journal, and leave the results
        // unsaved so the next call retries.
        UNSAVED.store(true, Ordering::Relaxed);
        eprintln!("warning: could not persist the result cache: {e}");
        let detail = e.to_string();
        obs::event!("degraded", site = "cache.save", detail = detail.as_str());
    }
}

/// Empties the in-process memo cache, disk-loaded values included. For
/// measurement harnesses and tests that need to re-simulate work this
/// process already saw — never needed for correctness.
pub fn clear_memo_cache() {
    cache().clear();
}

/// How a job's missing cells fold in their benchmark's pass.
enum Fold<'a> {
    /// A configuration's cell: scored by its own kernel lane, or by a trie
    /// lane with the rest of its path-length family.
    Config(PredictorConfig),
    /// A custom kernel's cell, scored by its own lane.
    Kernel(Box<dyn Fn() -> FoldKernel + Sync + 'a>),
    /// A measurement cell, folded by its own lane.
    Measure(Box<dyn Fn() -> Box<dyn MeasureLane> + Sync + 'a>),
}

struct Job<'a> {
    key: String,
    /// The benchmarks the job covers; `None` is the whole suite.
    benchmarks: Option<Vec<Benchmark>>,
    fold: Fold<'a>,
}

impl Job<'_> {
    /// The benchmarks of the job's cells, given the suite's.
    fn cells<'s>(&'s self, suite: &'s [Benchmark]) -> &'s [Benchmark] {
        self.benchmarks.as_deref().unwrap_or(suite)
    }
}

/// The lookups of one job in one sweep that the memo cache served: the
/// sweep journals them as one `cell` event.
#[derive(Clone, Default)]
struct JobHits {
    benchmarks: Vec<&'static str>,
    from_disk: u64,
}

impl JobHits {
    fn note(&mut self, benchmark: Benchmark, from_disk: bool) {
        self.benchmarks.push(benchmark.name());
        self.from_disk += u64::from(from_disk);
    }
}

/// One cell to fold: a job's cell on one benchmark.
struct Unit {
    job: usize,
    cell: usize,
    benchmark: Benchmark,
}

/// Where a unit folds in its benchmark's pass.
#[derive(Clone, Copy)]
enum Route {
    /// Its own kernel lane: the index among the pass's kernels.
    Kernel(usize),
    /// A trie lane: the trie's index, then the unit's member index in it.
    Trie(usize, usize),
    /// Its measure lane: the index among the pass's measure lanes.
    Measure(usize),
}

/// The lanes of one benchmark pass, and each unit's route to them.
struct PassPlan {
    kernels: Vec<FoldKernel>,
    tries: Vec<PathTrie>,
    measures: Vec<Box<dyn MeasureLane>>,
    routes: Vec<Route>,
}

/// Whether a path-length family with members at path lengths `depths`
/// folds faster as one [`PathTrie`] than as one lane per member. The
/// trie folds every depth from 0 to the deepest member's, so it pays
/// when there are at least two distinct lengths and either there is one
/// for every four depths past depth 0 or there are four of them or more:
/// Figure 9's 0..=18, Figure 10's 0..=12, the update-rule ablation's
/// always-update {0, 1, 3, 6, 8} and two-bit {0, 1, 6}, the history
/// variations' {3, 8} and the sensitivity study's {3, 6, 9, 12} route;
/// two lengths as far apart as {0, 12} or {3, 12} keep their lanes,
/// where folding the unscored depths costs as much as it saves or more
/// (DESIGN §5p).
fn trie_pays(depths: &[usize]) -> bool {
    let mut distinct = depths.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let deepest = distinct.last().copied().unwrap_or(0);
    distinct.len() >= 2 && (4 * distinct.len() >= deepest || distinct.len() >= 4)
}

/// A trie lane's depths for the pass span, e.g. `0..=18` or `0,1,3,6,8`.
fn describe_depths(depths: &[usize]) -> String {
    let mut distinct = depths.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let (first, last) = (distinct[0], distinct[distinct.len() - 1]);
    if last - first + 1 == distinct.len() {
        format!("{first}..={last}")
    } else {
        let lengths: Vec<String> = distinct.iter().map(usize::to_string).collect();
        lengths.join(",")
    }
}

/// A batch of predictor configurations and measurements to evaluate over
/// one suite.
///
/// Queue configurations with [`config`](Sweep::config) (or
/// [`custom`](Sweep::custom) for predictors that `PredictorConfig` cannot
/// express) and measurements with [`measure`](Sweep::measure), then call
/// [`run`](Sweep::run): results come back in queue order, one
/// [`SuiteResult`] per configuration, exactly as if each had been run
/// through [`Suite::run`]. [`run_all`](Sweep::run_all) also returns the
/// measurements.
pub struct Sweep<'a> {
    suite: &'a Suite,
    jobs: Vec<Job<'a>>,
}

impl<'a> Sweep<'a> {
    /// An empty sweep over `suite`.
    #[must_use]
    pub fn new(suite: &'a Suite) -> Self {
        Sweep {
            suite,
            jobs: Vec::new(),
        }
    }

    /// Queues a predictor configuration; its memo key is
    /// [`PredictorConfig::cache_key`].
    pub fn config(&mut self, cfg: PredictorConfig) -> &mut Self {
        self.jobs.push(Job {
            key: cfg.cache_key(),
            benchmarks: None,
            fold: Fold::Config(cfg),
        });
        self
    }

    /// Queues a custom kernel constructor under an explicit memo key.
    ///
    /// The key must fully determine the constructed predictor's behaviour
    /// (it plays the role [`PredictorConfig::cache_key`] plays for
    /// `config`); two `custom` jobs with equal keys are assumed
    /// interchangeable and only one of them is simulated. A concrete kernel
    /// variant — a [`HybridPredictor`](ibp_core::HybridPredictor) of any
    /// rule, such as §8.1's multi-hybrid or cascade, or a shared-table
    /// hybrid — folds through the pass's component bank like a config; a
    /// predictor wrapped by [`FoldKernel::from_boxed`] folds through one
    /// virtual `step` per event.
    pub fn custom<F>(&mut self, key: impl Into<String>, make: F) -> &mut Self
    where
        F: Fn() -> FoldKernel + Sync + 'a,
    {
        self.jobs.push(Job {
            key: key.into(),
            benchmarks: None,
            fold: Fold::Kernel(Box::new(make)),
        });
        self
    }

    /// Queues a measurement of each of `benchmarks` under an explicit memo
    /// key. On a miss, `make` builds the benchmark's lane, which folds
    /// every chunk of the benchmark's pass beside the predictor lanes: a
    /// cold measurement opens no pass of its own, and a warm one is a
    /// lookup.
    ///
    /// The key is `<kind>|…`, the [`Measurement::kind`] of what the lane
    /// reports followed by every parameter of the lane (in
    /// [`PredictorConfig::cache_key`] form where the lane's predictor has
    /// a config), so no measurement key can equal a predictor's.
    ///
    /// # Panics
    ///
    /// Panics if a benchmark is not part of the suite.
    pub fn measure<F>(
        &mut self,
        key: impl Into<String>,
        benchmarks: &[Benchmark],
        make: F,
    ) -> &mut Self
    where
        F: Fn() -> Box<dyn MeasureLane> + Sync + 'a,
    {
        let suite = self.suite.benchmarks();
        for b in benchmarks {
            assert!(suite.contains(b), "benchmark {b} not in suite");
        }
        self.jobs.push(Job {
            key: key.into(),
            benchmarks: Some(benchmarks.to_vec()),
            fold: Fold::Measure(Box::new(make)),
        });
        self
    }

    /// Number of queued jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether no job is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Evaluates every queued job, memoized against the process-wide
    /// cache: the cells that miss fold in one source pass per benchmark.
    /// Returns one result per configuration, in queue order.
    #[must_use]
    pub fn run(&self) -> Vec<SuiteResult> {
        self.run_all().0
    }

    /// [`run`](Sweep::run), also returning one result per
    /// [`measure`](Sweep::measure) job in queue order: its measurement of
    /// each of its benchmarks, in the order they were given.
    ///
    /// # Panics
    ///
    /// Panics if a configuration's key holds a measurement (a `custom` key
    /// that reuses a measurement's `<kind>|` prefix).
    #[must_use]
    pub fn run_all(&self) -> (Vec<SuiteResult>, Vec<Vec<Measurement>>) {
        let t0 = Instant::now();
        let events = self.suite.events();
        let suite_benchmarks = self.suite.benchmarks();
        let mut sweep_span = obs::span!(
            "sweep",
            configs = self.jobs.len(),
            benchmarks = suite_benchmarks.len()
        );

        // Phase 1: serve what we can from the cache; claim one unit per
        // distinct (key, benchmark) among the rest, so duplicate keys
        // inside one sweep are folded once.
        let mut results: Vec<Vec<Option<Measurement>>> = self
            .jobs
            .iter()
            .map(|job| vec![None; job.cells(&suite_benchmarks).len()])
            .collect();
        let mut units: Vec<Unit> = Vec::new();
        let mut journaled_hits = obs::enabled().then(|| vec![JobHits::default(); self.jobs.len()]);
        {
            let cache = cache();
            let mut claimed: HashSet<(&str, Benchmark)> = HashSet::new();
            for (j, job) in self.jobs.iter().enumerate() {
                let row = cache.get(&job.key, events);
                for (cell, &b) in job.cells(&suite_benchmarks).iter().enumerate() {
                    if let Some((value, from_disk)) = row.and_then(|row| row.cell(b)) {
                        results[j][cell] = Some(value);
                        count_hit(from_disk);
                        if let Some(hits) = &mut journaled_hits {
                            hits[j].note(b, from_disk);
                        }
                    } else if claimed.insert((job.key.as_str(), b)) {
                        units.push(Unit {
                            job: j,
                            cell,
                            benchmark: b,
                        });
                    }
                }
            }
        }

        // Phase 2: fold all missing units, one pass per benchmark.
        let folded = self.fold_units(&units, t0);
        misses().add(units.len() as u64);

        // Phase 3: publish the new values, then fill every remaining slot
        // (duplicate keys within this sweep) from the cache.
        {
            let mut cache = cache();
            for (unit, &value) in units.iter().zip(&folded) {
                let job = &self.jobs[unit.job];
                debug_assert!(
                    !matches!(job.fold, Fold::Measure(_))
                        || job.key.split('|').next() == Some(value.kind()),
                    "measurement key {} does not start with its kind {}",
                    job.key,
                    value.kind()
                );
                results[unit.job][unit.cell] = Some(value);
                cache.set(&job.key, events, unit.benchmark, &value);
            }
            if !units.is_empty() {
                UNSAVED.store(true, Ordering::Relaxed);
            }
            for (j, job) in self.jobs.iter().enumerate() {
                if results[j].iter().all(Option::is_some) {
                    continue;
                }
                let row = cache.get(&job.key, events);
                for (cell, &b) in job.cells(&suite_benchmarks).iter().enumerate() {
                    if results[j][cell].is_none() {
                        let (value, from_disk) = row
                            .and_then(|row| row.cell(b))
                            .expect("duplicate-key slot filled by its representative");
                        results[j][cell] = Some(value);
                        count_hit(from_disk);
                        if let Some(hits) = &mut journaled_hits {
                            hits[j].note(b, from_disk);
                        }
                    }
                }
            }
        }
        for (job, hits) in self.jobs.iter().zip(journaled_hits.iter().flatten()) {
            if !hits.benchmarks.is_empty() {
                obs::event!(
                    "cell",
                    config = job.key.as_str(),
                    outcome = "hit",
                    benchmarks = hits.benchmarks.join(","),
                    hits = hits.benchmarks.len(),
                    from_disk = hits.from_disk
                );
            }
        }

        {
            let lookups = results.iter().map(Vec::len).sum::<usize>() as u64;
            let folded = units.len() as u64;
            sweep_span.note("lookups", lookups);
            sweep_span.note("simulated", folded);
            obs::info!(
                "[engine] sweep: {} jobs over {} benchmarks = {} lookups, \
                 {} simulated, {} cached, {:.2?}",
                self.jobs.len(),
                suite_benchmarks.len(),
                lookups,
                folded,
                lookups - folded,
                t0.elapsed(),
            );
        }

        let mut runs = Vec::new();
        let mut measured = Vec::new();
        for (job, values) in self.jobs.iter().zip(results) {
            let values = values.into_iter().map(|v| v.expect("all slots filled"));
            match job.fold {
                Fold::Config(_) | Fold::Kernel(_) => {
                    let stats = values.map(|value| match value {
                        Measurement::Run(stats) => stats,
                        other => panic!("key {} holds a {} measurement", job.key, other.kind()),
                    });
                    runs.push(SuiteResult::from_runs(
                        job.cells(&suite_benchmarks)
                            .iter()
                            .copied()
                            .zip(stats)
                            .collect(),
                    ));
                }
                Fold::Measure(_) => measured.push(values.collect()),
            }
        }
        (runs, measured)
    }

    /// Phase 2: groups units by benchmark and folds each group's kernels
    /// and measure lanes over one shared source pass, so a sweep of N jobs
    /// costs one trace pass per benchmark instead of N. Values come back
    /// in `units` order.
    fn fold_units(&self, units: &[Unit], t0: Instant) -> Vec<Measurement> {
        let mut groups: Vec<(Benchmark, Vec<usize>)> = Vec::new();
        for (u, unit) in units.iter().enumerate() {
            match groups.iter_mut().find(|(b, _)| *b == unit.benchmark) {
                Some((_, members)) => members.push(u),
                None => groups.push((unit.benchmark, vec![u])),
            }
        }
        let per_group: Vec<Vec<Measurement>> = parallel_map(&groups, |(b, members)| {
            // Queue wait: time from sweep start until a worker picked the
            // pass up; the span's own duration is the run time.
            let wait_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
            let mut cell = obs::span("cell");
            cell.note("benchmark", b.name());
            cell.note("outcome", "miss");
            cell.note("configs", members.len());
            cell.note("wait_us", wait_us);
            // Event accounting stays per-unit even though a pass is
            // shared: each cell still folds one trace length of events.
            simulated_events().add(self.suite.events() * members.len() as u64);
            cell.note("events", self.suite.events());
            // A pass whose replay fails is planned and folded afresh.
            let (plan, pass) = self.suite.pass(*b, |source| {
                let mut plan = self.plan_pass(units, members);
                let measures = std::mem::take(&mut plan.measures);
                let pass =
                    simulate_source_cells(source, &mut plan.kernels, &mut plan.tries, measures)?;
                Ok((plan, pass))
            });
            if !plan.tries.is_empty() {
                let families: Vec<String> = plan
                    .tries
                    .iter()
                    .map(|t| describe_depths(t.depths()))
                    .collect();
                cell.note("tries", families.join("; "));
            }
            if pass.keys > 0 {
                cell.note("keys", pass.keys);
            }
            if pass.components > 0 {
                cell.note("components", pass.components);
            }
            if !plan.tries.is_empty() {
                let total = |count: fn(&PathTrie) -> u64| plan.tries.iter().map(count).sum::<u64>();
                cell.note("trie_probes", total(PathTrie::probes));
                cell.note("trie_hashed", total(PathTrie::hashed));
                cell.note("trie_pruned", total(PathTrie::pruned));
                cell.note("trie_bytes", total(PathTrie::buffer_bytes));
            }
            let trie_runs: Vec<_> = plan.tries.iter().map(trie_stats).collect();
            members
                .iter()
                .zip(&plan.routes)
                .map(|(&u, &route)| {
                    let (value, fold) = match route {
                        Route::Kernel(k) => {
                            let fold = if pass.keyed[k] { "keyed" } else { "lane" };
                            (Measurement::Run(pass.stats[k]), fold)
                        }
                        Route::Trie(t, m) => (Measurement::Run(trie_runs[t][m]), "trie"),
                        Route::Measure(m) => (pass.measured[m], "lane"),
                    };
                    // Per-cell provenance: the pass span names only its
                    // benchmark.
                    let key = self.jobs[units[u].job].key.as_str();
                    obs::event!(
                        "cell",
                        config = key,
                        benchmark = b.name(),
                        outcome = "miss",
                        fold = fold
                    );
                    value
                })
                .collect()
        });
        let mut out: Vec<Option<Measurement>> = vec![None; units.len()];
        for ((_, members), values) in groups.iter().zip(per_group) {
            for (&u, value) in members.iter().zip(values) {
                out[u] = Some(value);
            }
        }
        out.into_iter()
            .map(|value| value.expect("every unit folded"))
            .collect()
    }

    /// Builds the lanes of one benchmark pass over `members` (indices into
    /// `units`): one [`PathTrie`] per path-length family the trie pays for
    /// ([`trie_pays`]), its buffer sized for the suite's trace length, one
    /// kernel lane per other config or custom job, and each measurement's
    /// lane. A probed pass routes no family to a trie: the probe layer
    /// samples each predictor's tables, and a trie holds one depth's table
    /// at a time, and only after the pass.
    fn plan_pass(&self, units: &[Unit], members: &[usize]) -> PassPlan {
        let mut families: Vec<(PathFamily, Vec<(usize, usize)>)> = Vec::new();
        if !probe::active_policy().on() {
            for (i, &u) in members.iter().enumerate() {
                let Fold::Config(cfg) = &self.jobs[units[u].job].fold else {
                    continue;
                };
                let Some((family, depth)) = cfg.path_family() else {
                    continue;
                };
                match families.iter_mut().find(|(f, _)| *f == family) {
                    Some((_, found)) => found.push((i, depth)),
                    None => families.push((family, vec![(i, depth)])),
                }
            }
        }
        let mut routes: Vec<Option<Route>> = vec![None; members.len()];
        let mut tries = Vec::new();
        for (family, found) in families {
            let depths: Vec<usize> = found.iter().map(|&(_, depth)| depth).collect();
            if trie_pays(&depths) {
                for (m, &(i, _)) in found.iter().enumerate() {
                    routes[i] = Some(Route::Trie(tries.len(), m));
                }
                tries.push(PathTrie::new(family, &depths, 0).sized_for(self.suite.events()));
            }
        }
        let mut kernels = Vec::new();
        let mut measures = Vec::new();
        let routes = members
            .iter()
            .zip(routes)
            .map(|(&u, route)| {
                route.unwrap_or_else(|| match &self.jobs[units[u].job].fold {
                    Fold::Config(cfg) => {
                        kernels.push(cfg.build_kernel());
                        Route::Kernel(kernels.len() - 1)
                    }
                    Fold::Kernel(make) => {
                        kernels.push(make());
                        Route::Kernel(kernels.len() - 1)
                    }
                    Fold::Measure(make) => {
                        measures.push(make());
                        Route::Measure(measures.len() - 1)
                    }
                })
            })
            .collect();
        PassPlan {
            kernels,
            tries,
            measures,
            routes,
        }
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

/// Runs one custom kernel through the engine under an explicit memo key
/// (see [`Sweep::custom`] for the key contract).
#[must_use]
pub fn run_custom<F>(suite: &Suite, key: impl Into<String>, make: F) -> SuiteResult
where
    F: Fn() -> FoldKernel + Sync,
{
    let mut sweep = Sweep::new(suite);
    sweep.custom(key, make);
    sweep.run().pop().expect("one result per config")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{CensusLane, TraceLane};
    use ibp_workload::Benchmark;

    fn tiny_suite() -> Suite {
        Suite::with_benchmarks_and_len(&[Benchmark::Ixx, Benchmark::Xlisp], 4_000)
    }

    /// The hit/miss counters are process-wide, so tests asserting exact
    /// deltas must not interleave with other engine activity.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
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

    /// Figure 9's sweep folds each benchmark's 19 path lengths as one trie
    /// lane; every member must score what `Suite::run` scores for its
    /// config alone. The pattern budget does not touch a full-key
    /// predictor, so it only makes the cache keys this test's own.
    #[test]
    fn fig9_sweep_through_the_trie_matches_direct_suite_runs() {
        let _guard = serial();
        let suite = tiny_suite();
        let configs: Vec<PredictorConfig> = (0..=ibp_core::MAX_PATH)
            .map(|p| PredictorConfig::unconstrained(p).with_pattern_budget(5))
            .collect();
        let before = stats();
        let engine_results = run_configs(&suite, configs.clone());
        assert_eq!(stats().since(before).misses, 2 * configs.len() as u64);
        for (cfg, from_engine) in configs.into_iter().zip(engine_results) {
            let direct = suite.run(|| cfg.build());
            for b in suite.benchmarks() {
                assert_eq!(
                    from_engine.stats(b),
                    direct.stats(b),
                    "trie diverges from Suite::run for {b} under {}",
                    cfg.cache_key()
                );
            }
        }
    }

    #[test]
    fn dense_families_route_to_the_trie_and_sparse_ones_keep_their_lanes() {
        let routed: [&[usize]; 10] = [
            &[
                0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18,
            ],
            &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
            &[0, 1, 3, 6, 8],
            &[8, 6, 3, 1, 0, 8],
            &[3, 6, 9, 12],
            &[0, 1],
            &[2, 3, 4],
            &[0, 1, 6],
            &[3, 8],
            &[8, 3, 3],
        ];
        for depths in routed {
            assert!(trie_pays(depths), "{depths:?}");
        }
        let kept: [&[usize]; 4] = [&[5], &[0, 0], &[0, 12], &[12, 3, 3]];
        for depths in kept {
            assert!(!trie_pays(depths), "{depths:?}");
        }
        assert_eq!(describe_depths(&[2, 0, 1]), "0..=2");
        assert_eq!(describe_depths(&[0, 1, 3, 6, 8]), "0,1,3,6,8");

        // A trie keeps one global history: a dense per-set family forms no
        // path family, so it keeps its lanes beside the global one's trie.
        let suite = tiny_suite();
        let mut sweep = Sweep::new(&suite);
        for p in 0..3 {
            sweep.config(PredictorConfig::unconstrained(p));
            sweep.config(
                PredictorConfig::unconstrained(p)
                    .with_history_sharing(ibp_core::HistorySharing::per_set(8)),
            );
        }
        let units: Vec<Unit> = (0..sweep.jobs.len())
            .map(|job| Unit {
                job,
                cell: 0,
                benchmark: Benchmark::Ixx,
            })
            .collect();
        let members: Vec<usize> = (0..units.len()).collect();
        let plan = sweep.plan_pass(&units, &members);
        assert_eq!(plan.tries.len(), 1);
        assert_eq!(plan.tries[0].depths(), [0, 1, 2]);
        assert_eq!(plan.kernels.len(), 3, "the per-set family's lanes");
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
    fn custom_jobs_memoize_under_their_key() {
        let _guard = serial();
        let suite = tiny_suite();
        let make = || {
            PredictorConfig::unconstrained(9)
                .with_pattern_budget(23)
                .build_kernel()
        };
        let before = stats();
        let first = run_custom(&suite, "test-custom-u9b23", make);
        let second = run_custom(&suite, "test-custom-u9b23", make);
        let delta = stats().since(before);
        assert_eq!(delta.misses, 2);
        assert_eq!(delta.hits, 2);
        assert_eq!(first.rates(), second.rates());
    }

    #[test]
    fn measurements_memoize_beside_configs() {
        let _guard = serial();
        let suite = tiny_suite();
        let cfg = PredictorConfig::unconstrained(4).with_pattern_budget(15);
        let census = PredictorConfig::unconstrained(4).with_pattern_budget(15);
        let sweep_once = || {
            let mut sweep = Sweep::new(&suite);
            sweep.config(cfg.clone());
            sweep.measure(CensusLane::key(&census), &[Benchmark::Xlisp], || {
                Box::new(CensusLane::new(&census))
            });
            sweep.run_all()
        };
        let before = stats();
        let (runs, measured) = sweep_once();
        let mid = stats();
        assert_eq!(
            mid.since(before).misses,
            3,
            "two predictor cells, one census cell"
        );
        assert_eq!(runs.len(), 1);
        assert_eq!(measured.len(), 1);
        let Measurement::Patterns(patterns) = measured[0][0] else {
            panic!("a census cell counts patterns");
        };
        assert!(patterns > 0);
        let (again, measured_again) = sweep_once();
        let delta = stats().since(mid);
        assert_eq!((delta.hits, delta.misses), (3, 0), "all three memoized");
        assert_eq!(measured_again, measured);
        assert_eq!(again[0].rates(), runs[0].rates());
    }

    #[test]
    #[should_panic(expected = "not in suite")]
    fn measuring_a_benchmark_outside_the_suite_panics() {
        let suite = tiny_suite();
        let mut sweep = Sweep::new(&suite);
        sweep.measure(TraceLane::KEY, &[Benchmark::Gcc], || {
            Box::<TraceLane>::default()
        });
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
