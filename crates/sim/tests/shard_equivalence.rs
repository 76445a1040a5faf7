//! The sharded pipeline's one promise: for every shardable configuration,
//! folding a trace through N shard workers produces *exactly* the
//! sequential fold's `RunStats` — same scored count, same misprediction
//! count, at every shard width.
//!
//! The pipeline is library code the sweep engine never routes to. The
//! benchmark-level test drives it over all 17 benchmarks, so the router,
//! warmup accounting, queue plumbing and merge are all on the hook, and a
//! property test exercises arbitrary chunk-boundary / routing
//! interleavings.

use ibp_core::{HistorySharing, KeyScheme, PredictorConfig};
use ibp_sim::shard::simulate_source_sharded;
use ibp_sim::simulate_warm;
use ibp_workload::Benchmark;
use proptest::prelude::*;

/// Configurations that [`PredictorConfig::shardable`] accepts, spanning
/// the distinct routing shapes: address-only BTBs, per-set history with
/// and without conditional-branch noise, full-precision keys, compressed
/// concatenated keys, and a two-component unbounded hybrid.
fn shardable_configs() -> Vec<PredictorConfig> {
    let configs = vec![
        PredictorConfig::btb(),
        PredictorConfig::btb_2bc(),
        PredictorConfig::unconstrained(2).with_history_sharing(HistorySharing::per_set(4)),
        PredictorConfig::unconstrained(5)
            .with_history_sharing(HistorySharing::per_set(8))
            .with_cond_targets(true),
        PredictorConfig::compressed_unbounded(3)
            .with_pattern_budget(18)
            .with_key_scheme(KeyScheme::Concat)
            .with_history_sharing(HistorySharing::per_set(6)),
        PredictorConfig::hybrid(3, 1, 512, 4)
            .with_unbounded_table()
            .with_key_scheme(KeyScheme::Concat)
            .with_history_sharing(HistorySharing::per_set(5)),
    ];
    for cfg in &configs {
        assert!(
            cfg.shardable().is_some(),
            "test premise: {} must be shardable",
            cfg.cache_key()
        );
    }
    configs
}

/// Every shardable config, every benchmark, shard widths 1/2/4/7 — the
/// direct pipeline API against the sequential fold.
#[test]
fn sharded_pipeline_matches_sequential_on_all_benchmarks() {
    for cfg in shardable_configs() {
        let routing = cfg.shardable().expect("checked above");
        for b in Benchmark::ALL {
            let trace = b.trace_with_len(3_000);
            let mut p = cfg.build();
            let expected = simulate_warm(&trace, p.as_mut(), 200);
            for shards in [1usize, 2, 4, 7] {
                let make = || cfg.build_kernel();
                let got = simulate_source_sharded(&mut trace.cursor(), &make, routing, shards, 200)
                    .expect("in-memory source");
                assert_eq!(
                    got,
                    expected,
                    "{} on {b} with {shards} shards diverges",
                    cfg.cache_key()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary event streams, shard widths and warmups: routing through
    /// the chunked pipeline (which re-chunks at `chunk_events()` boundaries
    /// independent of how sites interleave) never changes the fold.
    #[test]
    fn random_streams_fold_identically(
        sites in proptest::collection::vec(0u32..64, 1..400),
        shards in 1usize..8,
        warmup in 0u64..50,
    ) {
        let mut trace = ibp_trace::Trace::new("prop");
        for (i, &s) in sites.iter().enumerate() {
            // Sites spread over distinct 2^2 regions; targets cycle so
            // predictors see both hits and misses.
            let pc = ibp_trace::Addr::new(0x400 + s * 0x8);
            let target = ibp_trace::Addr::new(0x9000 + ((i as u32) % 7) * 0x10);
            if i % 3 == 0 {
                trace.push_cond(ibp_trace::Addr::new(0x400 + s * 0x8 + 4), target, i % 2 == 0);
            }
            trace.push_indirect(pc, target, ibp_trace::BranchKind::Switch);
        }
        let cfg = PredictorConfig::unconstrained(4)
            .with_history_sharing(HistorySharing::per_set(3))
            .with_cond_targets(true);
        let routing = cfg.shardable().expect("shardable");
        let mut p = cfg.build();
        let expected = simulate_warm(&trace, p.as_mut(), warmup);
        let make = || cfg.build_kernel();
        let got = simulate_source_sharded(&mut trace.cursor(), &make, routing, shards, warmup)
            .expect("in-memory source");
        prop_assert_eq!(got, expected);
    }
}
