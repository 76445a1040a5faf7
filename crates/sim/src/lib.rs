//! Trace-driven simulation of indirect-branch predictors.
//!
//! This crate drives [`ibp_core`] predictors over [`ibp_workload`] traces
//! and reproduces the paper's evaluation methodology:
//!
//! * [`simulate`] — score one predictor over one trace (predict → compare →
//!   update per indirect branch, §2's protocol); [`simulate_source`] and
//!   [`simulate_source_multi`] are the streaming forms, folding over a
//!   chunked [`ibp_trace::EventSource`] in constant memory;
//! * [`Suite`] — the 17-benchmark suite with per-benchmark rates and the
//!   paper's group averages (`AVG`, `AVG-OO`, …, Table 3 semantics); it
//!   holds no events, and every consumer pulls a fresh chunked pass;
//! * [`engine`] — the memoizing sweep engine: folds the missing cells of
//!   a (config × benchmark) grid in one trace pass per benchmark, the
//!   benchmarks in parallel, and never simulates the same pair twice
//!   across experiments — or across *processes*, via the persistent
//!   result cache under `results/.cache/`;
//! * [`shard`] — the chunk-parallel sharded pipeline: site-partitionable
//!   configurations ([`ibp_core::PredictorConfig::shardable`]) fold one
//!   run across several workers with byte-identical results. Library
//!   code only: the engine never routes a cell to it;
//! * [`component`] — the component-parallel fold for hybrids
//!   ([`ibp_core::PredictorConfig::decompose`]): one shared source pass
//!   broadcast to per-component workers, merged through the
//!   metapredictor with byte-identical results. Library code only, like
//!   [`shard`];
//! * [`probe`] — the predictor-internals probe layer (`IBP_PROBE`):
//!   occupancy/aliasing snapshots and per-site miss attribution sampled
//!   into the run journal, byte-identical results on or off;
//! * [`trace_cache`] — the persistent binary trace corpus cache: each
//!   `(benchmark, events)` trace of at least
//!   [`MIN_CACHE_EVENTS`](trace_cache::MIN_CACHE_EVENTS) events is
//!   generated once into an IBPB segment under `results/.cache/traces/`
//!   and replayed at memory speed by every later pass, with
//!   byte-identical results;
//! * [`faults`] — deterministic fault injection (`IBP_FAULTS`): named
//!   panic/stall/IO sites firing on one-shot occurrence schedules, which
//!   exercise the containment layer — a contained worker panic retries
//!   the cell with byte-identical results;
//! * [`report`] — plain-text and CSV rendering of result tables;
//! * [`experiments`] — one runner per figure/table of the paper (the
//!   `ibp-bench` binaries are thin wrappers over these).
//!
//! The `IBP_*` knobs these modules honour are read once, by
//! [`ibp_obs::knobs()`]; an invalid value warns and means the default.
//!
//! # Example
//!
//! ```
//! use ibp_core::PredictorConfig;
//! use ibp_sim::simulate;
//! use ibp_workload::Benchmark;
//!
//! let trace = Benchmark::Ixx.trace_with_len(20_000);
//! let mut p = PredictorConfig::practical(3, 1024, 4).build();
//! let run = simulate(&trace, p.as_mut());
//! assert_eq!(run.indirect, 20_000);
//! assert!(run.misprediction_rate() < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod cache;
pub mod component;
pub mod engine;
pub mod experiments;
pub mod faults;
mod parallel;
pub mod probe;
pub mod report;
mod run;
pub mod shard;
mod suite;
pub mod trace_cache;

pub use parallel::parallel_map;
pub use run::{
    simulate, simulate_kernel, simulate_source, simulate_source_kernels, simulate_source_multi,
    simulate_warm, trie_stats, MeasureLane, Measurement, RunStats,
};
pub use suite::{Suite, SuiteResult};
