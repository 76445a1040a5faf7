//! The component pipeline's one promise: for every decomposable hybrid,
//! broadcasting one source pass to per-component workers and replaying the
//! recorded prediction streams through the metapredictor produces
//! *exactly* the sequential fold's `RunStats`.
//!
//! The pipeline is library code the sweep engine never routes to. The
//! grid test covers every hybrid cell of the fig17 surface over all 17
//! benchmarks at component counts 1 and 2; a BPST test covers the
//! selector-table metapredictor fig17 does not use; and a property test
//! pins down that record-buffer chunk boundaries (sizes 1, c−1, c, c+1)
//! never change the merged result.

use ibp_core::PredictorConfig;
use ibp_sim::component::{simulate_source_components, simulate_source_components_with_chunk};
use ibp_sim::experiments::fig17;
use ibp_sim::simulate_warm;
use ibp_trace::Trace;
use ibp_workload::Benchmark;
use proptest::prelude::*;

/// Every off-diagonal cell of the fig17 surface: `hybrid(p1, p2, size, 4)`
/// for both panel sizes. The diagonal is a non-hybrid (`practical`) and
/// correctly refuses to decompose.
fn fig17_hybrids() -> Vec<PredictorConfig> {
    let mut configs = Vec::new();
    for size in fig17::COMPONENT_SIZES {
        for p1 in 0..=fig17::MAX_P {
            for p2 in 0..=fig17::MAX_P {
                if p1 != p2 {
                    configs.push(PredictorConfig::hybrid(p1, p2, size, 4));
                }
            }
        }
    }
    for cfg in &configs {
        assert!(
            cfg.decompose().is_some(),
            "test premise: {} must decompose",
            cfg.cache_key()
        );
    }
    configs
}

/// Every fig17 hybrid, every benchmark, component counts 1 and 2 — the
/// direct pipeline API against the sequential fold. Short traces keep the
/// full 2 × 12 × 13 × 17 grid tractable; the streams are long enough to
/// exercise both confidence arbitration arms and warmup accounting.
#[test]
fn component_fold_matches_sequential_on_the_fig17_grid() {
    let traces: Vec<(Benchmark, Trace)> = Benchmark::ALL
        .iter()
        .map(|&b| (b, b.trace_with_len(260)))
        .collect();
    for cfg in fig17_hybrids() {
        let d = cfg.decompose().expect("checked above");
        for (b, trace) in &traces {
            let mut p = cfg.build();
            let expected = simulate_warm(trace, p.as_mut(), 40);
            for workers in [1usize, 2] {
                let got = simulate_source_components(&mut trace.cursor(), &d, workers, 40)
                    .expect("in-memory source");
                assert_eq!(
                    got,
                    expected,
                    "{} on {b} with {workers} workers diverges",
                    cfg.cache_key()
                );
            }
        }
    }
}

/// The BPST metapredictor (per-branch selector counters, trained on every
/// event including warmup) merges identically too — fig17 itself never
/// exercises this arm, so it gets its own benchmark sweep.
#[test]
fn component_fold_matches_sequential_for_bpst() {
    for cfg in [
        PredictorConfig::bpst(3, 0, 256, 4),
        PredictorConfig::bpst(6, 2, 1024, 4),
    ] {
        let d = cfg.decompose().expect("bpst decomposes");
        for b in Benchmark::ALL {
            let trace = b.trace_with_len(1_500);
            for warmup in [0u64, 120] {
                let mut p = cfg.build();
                let expected = simulate_warm(&trace, p.as_mut(), warmup);
                for workers in [1usize, 2] {
                    let got = simulate_source_components(&mut trace.cursor(), &d, workers, warmup)
                        .expect("in-memory source");
                    assert_eq!(
                        got,
                        expected,
                        "{} on {b} with {workers} workers, warmup {warmup} diverges",
                        cfg.cache_key()
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary event streams and warmups: the record-buffer chunk
    /// granularity — including the off-by-one boundaries around the
    /// stream's own length — never changes the merged fold.
    #[test]
    fn record_chunk_boundaries_never_change_the_merge(
        sites in proptest::collection::vec(0u32..48, 1..300),
        chunk_base in 2u64..80,
        warmup in 0u64..40,
        bpst in any::<bool>(),
    ) {
        let mut trace = Trace::new("prop");
        for (i, &s) in sites.iter().enumerate() {
            let pc = ibp_trace::Addr::new(0x400 + s * 0x8);
            let target = ibp_trace::Addr::new(0x9000 + ((i as u32) % 5) * 0x10);
            if i % 4 == 0 {
                trace.push_cond(ibp_trace::Addr::new(0x400 + s * 0x8 + 4), target, i % 2 == 0);
            }
            trace.push_indirect(pc, target, ibp_trace::BranchKind::Switch);
        }
        let cfg = if bpst {
            PredictorConfig::bpst(4, 1, 128, 2)
        } else {
            PredictorConfig::hybrid(4, 1, 128, 2)
        };
        let d = cfg.decompose().expect("decomposable");
        let mut p = cfg.build();
        let expected = simulate_warm(&trace, p.as_mut(), warmup);
        for chunk in [1, chunk_base - 1, chunk_base, chunk_base + 1] {
            let got = simulate_source_components_with_chunk(
                &mut trace.cursor(), &d, 2, warmup, chunk,
            ).expect("in-memory source");
            prop_assert_eq!(got, expected, "chunk {} diverges", chunk);
        }
    }
}
