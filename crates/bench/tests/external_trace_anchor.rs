//! Regression anchor for the external-trace path: the checked-in sample
//! IBPT trace under `results/ext/` must simulate to *exactly* these
//! misprediction counts, read by the `TextSource` that `simulate_trace`
//! streams (and folded by `simulate_source`, which scores what its kernel
//! fold scores).
//!
//! If this test moves, either the IBPT parser, the workload generator
//! that produced the sample, or a predictor changed behaviour — all three
//! are things a release should call out, not discover in the field.

use std::fs::File;
use std::path::PathBuf;

use ibp_core::PredictorConfig;
use ibp_sim::simulate_source;
use ibp_trace::io::TextSource;
use ibp_trace::{EventSource, TraceStats};

fn sample_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/ext/sample_ixx.ibpt")
}

fn open() -> TextSource<File> {
    let path = sample_path();
    let file = File::open(&path).unwrap_or_else(|e| panic!("cannot open {}: {e}", path.display()));
    TextSource::new(file).expect("valid IBPT header")
}

#[test]
fn sample_trace_parses_with_expected_shape() {
    let mut src = open();
    assert_eq!(src.name(), "ixx");
    let stats = TraceStats::from_source(&mut src).expect("streamable");
    assert_eq!(stats.indirect_branches, 2_000);
    assert!(stats.distinct_sites > 1, "ixx is polymorphic");
}

#[test]
fn sample_trace_misprediction_rates_are_pinned() {
    // (config, expected mispredictions out of 2000). Computed once from
    // the checked-in trace; exact equality on purpose.
    let anchors: [(PredictorConfig, u64); 4] = [
        (PredictorConfig::btb_2bc(), 611),
        (PredictorConfig::unconstrained(3), 396),
        (PredictorConfig::practical(3, 1024, 4), 422),
        (PredictorConfig::bpst(3, 0, 128, 2), 480),
    ];
    for (cfg, expected) in anchors {
        let mut p = cfg.build();
        let run = simulate_source(&mut open(), p.as_mut(), 0).expect("streamable");
        assert_eq!(run.indirect, 2_000, "{}", cfg.cache_key());
        assert_eq!(
            run.mispredicted,
            expected,
            "{} drifted on the anchored sample trace",
            cfg.cache_key()
        );
    }
}
