//! The benchmark suite: trace sources, per-benchmark rates, group averages.

use ibp_core::Predictor;
use ibp_trace::io::TraceIoError;
use ibp_trace::EventSource;
use ibp_workload::{Benchmark, BenchmarkGroup};

use crate::parallel::parallel_map;
use crate::run::{simulate_source, RunStats};

/// A set of benchmark traces replayed across predictor configurations.
///
/// A suite holds no events: it names its benchmarks and their trace
/// length, and every consumer folds a fresh chunked pass through
/// [`pass`](Suite::pass) — over a replay of the benchmark's trace-corpus
/// segment ([`crate::trace_cache`]), which checks the segment as it
/// streams, or over a generator pass when the corpus is off or the traces
/// are too short for it. Memory therefore stays constant in the trace
/// length, and a suite whose cells are all cache hits reads no trace at
/// all.
#[derive(Debug)]
pub struct Suite {
    benchmarks: Vec<Benchmark>,
    events: u64,
}

impl Suite {
    /// Builds all 17 benchmarks at the default trace length
    /// (120k indirect branches, or `IBP_EVENTS`).
    #[must_use]
    pub fn new() -> Self {
        Suite::with_benchmarks(&Benchmark::ALL)
    }

    /// Builds the given benchmarks at the default trace length.
    #[must_use]
    pub fn with_benchmarks(benchmarks: &[Benchmark]) -> Self {
        Suite::with_benchmarks_and_len(benchmarks, ibp_obs::knobs().events)
    }

    /// Builds the given benchmarks with `events` indirect branches each.
    ///
    /// When the trace corpus engages at this length, every benchmark
    /// whose segment is not on disk yet has it generated and published
    /// here, in parallel; segments already on disk are not opened until a
    /// pass replays them.
    #[must_use]
    pub fn with_benchmarks_and_len(benchmarks: &[Benchmark], events: u64) -> Self {
        crate::trace_cache::publish_missing(benchmarks, events);
        Suite {
            benchmarks: benchmarks.to_vec(),
            events,
        }
    }

    /// The indirect-branch event count each trace was generated with.
    /// Together with the benchmark this identifies a trace exactly (trace
    /// generation is a pure function of both), which is what makes
    /// cross-suite memoization in [`crate::engine`] sound.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Always `true`: every suite streams its traces.
    #[must_use]
    pub fn streamed(&self) -> bool {
        true
    }

    /// All benchmarks in the suite, in construction order.
    #[must_use]
    pub fn benchmarks(&self) -> Vec<Benchmark> {
        self.benchmarks.clone()
    }

    /// Folds `pass` over a fresh source of the benchmark's trace and
    /// returns what it computed: a replay of its corpus segment, or a new
    /// generator pass. A replay checks its segment as it streams, so the
    /// result of a pass over one counts only once the replay has drained
    /// clean. If the replay fails instead, it has evicted its segment and
    /// journaled the fault: the result is dropped, and `pass` runs once more
    /// over a generator source. No panic is involved, so the retry holds
    /// inside a `parallel_map` item that is itself a retry.
    ///
    /// # Panics
    ///
    /// Panics if the benchmark is not part of this suite, or if `pass`
    /// fails over a generator source, which cannot fail.
    pub fn pass<R>(
        &self,
        benchmark: Benchmark,
        mut pass: impl FnMut(&mut dyn EventSource) -> Result<R, TraceIoError>,
    ) -> R {
        assert!(
            self.benchmarks.contains(&benchmark),
            "benchmark {benchmark} not in suite"
        );
        if let Some(mut replay) = crate::trace_cache::source_for(benchmark, self.events) {
            if let Ok(result) = pass(&mut replay).and_then(|r| replay.drain().map(|()| r)) {
                return result;
            }
        }
        pass(&mut benchmark.source(self.events)).expect("generator sources cannot fail")
    }

    /// Runs a fresh predictor (from `make`) over every benchmark, in
    /// parallel.
    #[must_use]
    pub fn run<F>(&self, make: F) -> SuiteResult
    where
        F: Fn() -> Box<dyn Predictor> + Sync,
    {
        let rates = parallel_map(&self.benchmarks, |&b| {
            let stats = self.pass(b, |source| simulate_source(source, make().as_mut(), 0));
            (b, stats)
        });
        SuiteResult { runs: rates }
    }
}

impl Default for Suite {
    fn default() -> Self {
        Suite::new()
    }
}

/// Per-benchmark results of one predictor configuration over a [`Suite`].
#[derive(Debug, Clone)]
pub struct SuiteResult {
    runs: Vec<(Benchmark, RunStats)>,
}

impl SuiteResult {
    /// Assembles a result from per-benchmark stats (used by the sweep
    /// engine, which fills in memoized runs).
    pub(crate) fn from_runs(runs: Vec<(Benchmark, RunStats)>) -> Self {
        SuiteResult { runs }
    }

    /// The run statistics for one benchmark, if it was part of the suite.
    #[must_use]
    pub fn stats(&self, benchmark: Benchmark) -> Option<RunStats> {
        self.runs
            .iter()
            .find(|(b, _)| *b == benchmark)
            .map(|(_, r)| *r)
    }

    /// The misprediction rate for one benchmark, if present.
    #[must_use]
    pub fn rate(&self, benchmark: Benchmark) -> Option<f64> {
        self.stats(benchmark).map(|r| r.misprediction_rate())
    }

    /// All `(benchmark, misprediction rate)` pairs in suite order.
    #[must_use]
    pub fn rates(&self) -> Vec<(Benchmark, f64)> {
        self.runs
            .iter()
            .map(|(b, r)| (*b, r.misprediction_rate()))
            .collect()
    }

    /// The paper's group average: the arithmetic mean of per-benchmark
    /// misprediction rates over the group members present in this suite.
    /// `None` when no member is present.
    #[must_use]
    pub fn group_rate(&self, group: BenchmarkGroup) -> Option<f64> {
        let rates: Vec<f64> = self
            .runs
            .iter()
            .filter(|(b, _)| group.contains(*b))
            .map(|(_, r)| r.misprediction_rate())
            .collect();
        if rates.is_empty() {
            None
        } else {
            Some(rates.iter().sum::<f64>() / rates.len() as f64)
        }
    }

    /// Shorthand for the headline `AVG` group rate.
    ///
    /// # Panics
    ///
    /// Panics if no `AVG` member is present in the suite.
    #[must_use]
    pub fn avg(&self) -> f64 {
        self.group_rate(BenchmarkGroup::Avg)
            .expect("AVG members present")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_core::PredictorConfig;

    fn tiny_suite() -> Suite {
        Suite::with_benchmarks_and_len(&[Benchmark::Ixx, Benchmark::Xlisp], 5_000)
    }

    #[test]
    fn suite_holds_requested_benchmarks() {
        let s = tiny_suite();
        assert_eq!(s.benchmarks(), vec![Benchmark::Ixx, Benchmark::Xlisp]);
        let remaining = s.pass(Benchmark::Ixx, |source| Ok(source.remaining_indirect()));
        assert_eq!(remaining, Some(5_000));
    }

    #[test]
    #[should_panic(expected = "not in suite")]
    fn missing_benchmark_panics() {
        let s = tiny_suite();
        s.pass(Benchmark::Gcc, |_| Ok(()));
    }

    #[test]
    fn run_reports_all_benchmarks() {
        let s = tiny_suite();
        let r = s.run(|| PredictorConfig::btb_2bc().build());
        assert!(r.rate(Benchmark::Ixx).is_some());
        assert!(r.rate(Benchmark::Xlisp).is_some());
        assert!(r.rate(Benchmark::Gcc).is_none());
        assert_eq!(r.rates().len(), 2);
    }

    #[test]
    fn group_rate_averages_members() {
        let s = tiny_suite();
        let r = s.run(|| PredictorConfig::btb_2bc().build());
        // Both benchmarks are AVG members; the group rate is their mean.
        let avg = r.group_rate(BenchmarkGroup::Avg).unwrap();
        let expect = (r.rate(Benchmark::Ixx).unwrap() + r.rate(Benchmark::Xlisp).unwrap()) / 2.0;
        assert!((avg - expect).abs() < 1e-12);
        assert!((r.avg() - expect).abs() < 1e-12);
        // No infrequent benchmark present.
        assert!(r.group_rate(BenchmarkGroup::AvgInfreq).is_none());
    }

    #[test]
    fn long_suites_stream_without_materialising() {
        // Construction is free: no generation happens until a source is
        // pulled, and then only chunk by chunk. Pin the trace cache off so
        // pulling a source here does not write a segment file into the
        // crate's working directory.
        const LONG: u64 = 1_000_000;
        let _guard = crate::trace_cache::override_guard();
        crate::trace_cache::override_policy(Some(false));
        let s = Suite::with_benchmarks_and_len(&[Benchmark::Ixx], LONG);
        assert!(s.streamed());
        assert_eq!(s.benchmarks(), vec![Benchmark::Ixx]);
        s.pass(Benchmark::Ixx, |src| {
            assert_eq!(src.remaining_indirect(), Some(LONG));
            let mut chunk = ibp_trace::TraceChunk::default();
            let more = src.fill(&mut chunk, 64)?;
            assert!(more);
            assert_eq!(chunk.indirect_count(), 64);
            Ok(())
        });
        crate::trace_cache::override_policy(None);
    }

    #[test]
    fn two_level_beats_btb_on_suite() {
        let s = tiny_suite();
        let btb = s.run(|| PredictorConfig::btb_2bc().build());
        let tl = s.run(|| PredictorConfig::unconstrained(4).build());
        assert!(tl.avg() < btb.avg(), "{} vs {}", tl.avg(), btb.avg());
    }
}
