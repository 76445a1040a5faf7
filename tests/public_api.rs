//! Public-API ergonomics and contract tests across the façade crate.

use ibp::core::{ConfigError, Predictor, PredictorConfig};
use ibp::sim::{simulate, RunStats};
use ibp::trace::{Addr, BranchKind, Trace};
use ibp::workload::{Benchmark, BenchmarkGroup, ProgramConfig};

#[test]
fn predictors_are_object_safe_and_send() {
    fn assert_send<T: Send>(_: &T) {}
    let boxed: Vec<Box<dyn Predictor>> = vec![
        PredictorConfig::btb_2bc().build(),
        PredictorConfig::practical(3, 256, 4).build(),
        PredictorConfig::hybrid(3, 1, 128, 2).build(),
    ];
    for p in &boxed {
        assert_send(p);
        assert!(!p.name().is_empty());
    }
}

#[test]
fn traces_are_send_and_shareable() {
    fn assert_sync<T: Sync>(_: &T) {}
    let t = Benchmark::Ixx.trace_with_len(1_000);
    assert_sync(&t);
}

#[test]
fn errors_are_std_error() {
    let err: Box<dyn std::error::Error> = Box::new(
        PredictorConfig::practical(3, 100, 4)
            .try_build()
            .map(drop)
            .unwrap_err(),
    );
    assert!(err.to_string().contains("100"));
    let unaligned: Box<dyn std::error::Error> = Box::new(Addr::try_new(3).unwrap_err());
    assert!(unaligned.to_string().contains("align"));
}

#[test]
fn config_error_variants_are_matchable() {
    match PredictorConfig::practical(3, 100, 4).try_build() {
        Err(ConfigError::BadTableSize(100)) => {}
        other => panic!("unexpected: {:?}", other.err()),
    }
}

#[test]
fn hand_built_traces_simulate() {
    let mut t = Trace::new("hand");
    let site = Addr::new(0x100);
    for i in 0..50u32 {
        let target = Addr::new(0x1000 + (i % 2) * 0x40);
        t.push_indirect(site, target, BranchKind::Switch);
    }
    let mut p = PredictorConfig::unconstrained(1).build();
    let run: RunStats = simulate(&t, p.as_mut());
    assert_eq!(run.indirect, 50);
    assert!(
        run.misprediction_rate() < 0.2,
        "{}",
        run.misprediction_rate()
    );
}

#[test]
fn custom_program_config_round_trip() {
    let mut cfg = ProgramConfig::new("custom");
    cfg.sites = 30;
    cfg.events = 2_000;
    let model = cfg.build();
    assert_eq!(model.config().sites, 30);
    let trace = model.generate();
    assert_eq!(trace.indirect_count(), 2_000);
    assert_eq!(trace.name(), "custom");
}

#[test]
fn group_membership_is_consistent_with_benchmarks() {
    for b in Benchmark::ALL {
        let groups: Vec<BenchmarkGroup> = BenchmarkGroup::ALL
            .into_iter()
            .filter(|g| g.contains(b))
            .collect();
        // Every benchmark is in exactly one of {AVG-100, AVG-200,
        // AVG-infreq}.
        let freq = groups
            .iter()
            .filter(|g| {
                matches!(
                    g,
                    BenchmarkGroup::Avg100 | BenchmarkGroup::Avg200 | BenchmarkGroup::AvgInfreq
                )
            })
            .count();
        assert_eq!(freq, 1, "{b}: {groups:?}");
    }
}
