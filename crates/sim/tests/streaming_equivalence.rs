//! Streamed and materialized pipelines must be indistinguishable: for every
//! benchmark, folding a predictor over a chunked [`EventSource`] produces
//! the same `RunStats` as simulating the materialized trace, and incremental
//! `TraceStats` match the whole-trace computation. This is the contract that
//! lets every `Suite` stream without changing any table.

use ibp_core::PredictorConfig;
use ibp_sim::{simulate_source, simulate_warm};
use ibp_trace::{collect_source, EventSource, TraceStats};
use ibp_workload::Benchmark;

const EVENTS: u64 = 6_000;
const WARMUP: u64 = 500;

#[test]
fn run_stats_match_streamed_for_every_benchmark() {
    for &b in Benchmark::ALL.iter() {
        let trace = b.trace_with_len(EVENTS);
        let mut materialized = PredictorConfig::unconstrained(6).build();
        let expected = simulate_warm(&trace, materialized.as_mut(), WARMUP);

        let mut streamed = PredictorConfig::unconstrained(6).build();
        let got = simulate_source(&mut b.source(EVENTS), streamed.as_mut(), WARMUP)
            .expect("generator sources cannot fail");
        assert_eq!(got, expected, "{}: streamed RunStats diverge", b.name());
    }
}

#[test]
fn trace_stats_match_streamed_for_every_benchmark() {
    for &b in Benchmark::ALL.iter() {
        let expected = b.trace_with_len(EVENTS).stats();
        let got =
            TraceStats::from_source(&mut b.source(EVENTS)).expect("generator sources cannot fail");
        assert_eq!(
            got.indirect_branches,
            expected.indirect_branches,
            "{}",
            b.name()
        );
        assert_eq!(got.distinct_sites, expected.distinct_sites, "{}", b.name());
        assert_eq!(got.sites, expected.sites, "{}", b.name());
        // The derived ratios come from identical sums in both paths, so
        // they must match to the bit, not merely approximately.
        for (label, a, e) in [
            (
                "instr/indirect",
                got.instructions_per_indirect,
                expected.instructions_per_indirect,
            ),
            (
                "cond/indirect",
                got.cond_per_indirect,
                expected.cond_per_indirect,
            ),
            (
                "virtual fraction",
                got.virtual_fraction,
                expected.virtual_fraction,
            ),
        ] {
            assert_eq!(a.to_bits(), e.to_bits(), "{}: {label} {a} vs {e}", b.name());
        }
    }
}

#[test]
fn streamed_events_match_materialized_event_for_event() {
    // Exhaustive event comparison on a representative OO benchmark and the
    // procedural outlier; the RunStats test above covers the rest.
    for b in [Benchmark::Ixx, Benchmark::Gcc] {
        let expected = b.trace_with_len(EVENTS);
        let events = collect_source(&mut b.source(EVENTS)).expect("generator sources cannot fail");
        assert_eq!(events.events(), expected.events(), "{}", b.name());
    }
}

#[test]
fn source_metadata_matches_benchmark() {
    let source = Benchmark::Ixx.source(EVENTS);
    assert_eq!(source.name(), Benchmark::Ixx.name());
    assert_eq!(source.remaining_indirect(), Some(EVENTS));
}
