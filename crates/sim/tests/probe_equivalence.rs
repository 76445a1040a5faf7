//! The probe layer's promise, pinned end to end: scored results are
//! identical with probes off, on and deep — probe counters are write-only
//! side state the prediction path never reads. Beside it, a deep probe
//! attributes every scored event, and a probe-free run journals no probe
//! record.
//!
//! The journal sink and the probe policy override are process-global, so
//! every test here holds one serial lock.

use std::sync::{Arc, Mutex, MutexGuard};

use ibp_core::PredictorConfig;
use ibp_obs::json::Json;
use ibp_obs::{journal, Kind, Record};
use ibp_sim::probe::{self, ProbePolicy};
use ibp_sim::{simulate_warm, RunStats};
use ibp_workload::Benchmark;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[derive(Clone, Default)]
struct Capture(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for Capture {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("capture").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs `body` with the journal captured and the probe policy forced to
/// `policy`, returning the emitted probe records (kind, name, payload
/// fields) in emission order.
fn probes_under(policy: ProbePolicy, body: impl FnOnce()) -> Vec<Record> {
    let cap = Capture::default();
    journal::install_writer(Box::new(cap.clone()));
    probe::override_policy(Some(policy));
    body();
    probe::override_policy(None);
    journal::uninstall();
    let bytes = cap.0.lock().expect("capture").clone();
    String::from_utf8(bytes)
        .expect("utf8 journal")
        .lines()
        .map(|l| Record::parse(l).expect("parseable record"))
        .filter(|r| r.kind == Kind::Probe)
        .collect()
}

#[test]
fn results_byte_identical_probes_off_on_deep() {
    let _guard = serial();
    let trace = Benchmark::Ixx.trace_with_len(6_000);
    for cfg in [
        PredictorConfig::btb_2bc(),
        PredictorConfig::unconstrained(3),
        PredictorConfig::practical(3, 1024, 4),
        PredictorConfig::bpst(3, 0, 128, 2),
    ] {
        let mut per_policy: Vec<RunStats> = Vec::new();
        for policy in [ProbePolicy::Off, ProbePolicy::On, ProbePolicy::Deep] {
            let cap = Capture::default();
            journal::install_writer(Box::new(cap.clone()));
            probe::override_policy(Some(policy));
            let mut p = cfg.build();
            per_policy.push(simulate_warm(&trace, p.as_mut(), 500));
            probe::override_policy(None);
            journal::uninstall();
        }
        assert_eq!(per_policy[0], per_policy[1], "{}: on != off", cfg.cache_key());
        assert_eq!(per_policy[0], per_policy[2], "{}: deep != off", cfg.cache_key());
    }
}

#[test]
fn deep_probe_emits_attribution_split() {
    let _guard = serial();
    let trace = Benchmark::Edg.trace_with_len(6_000);
    let cfg = PredictorConfig::practical(2, 256, 4);
    let records = probes_under(ProbePolicy::Deep, || {
        let mut p = cfg.build();
        simulate_warm(&trace, p.as_mut(), 500);
    });
    let end = records
        .iter()
        .find(|r| r.field("point").and_then(Json::as_str) == Some("end"))
        .expect("end probe record");
    let attr = end.field("attribution").expect("attribution on end record");
    let scored = 5_500;
    let hits = attr.get("hits").and_then(Json::as_u64).expect("hits");
    let wrong = attr.get("wrong_target").and_then(Json::as_u64).expect("wrong_target");
    let no_entry = attr.get("no_entry").and_then(Json::as_u64).expect("no_entry");
    assert_eq!(hits + wrong + no_entry, scored, "every scored event attributed");
    let cold = attr.get("cold").and_then(Json::as_u64).expect("cold");
    let capacity = attr.get("capacity").and_then(Json::as_u64).expect("capacity");
    assert_eq!(cold + capacity, no_entry, "deep splits every no-entry miss");
    assert!(end.field("top_sites").and_then(Json::as_arr).is_some());
}

#[test]
fn probe_free_run_emits_no_probe_records() {
    let _guard = serial();
    let trace = Benchmark::Ixx.trace_with_len(1_000);
    let records = probes_under(ProbePolicy::Off, || {
        let mut p = PredictorConfig::btb().build();
        simulate_warm(&trace, p.as_mut(), 0);
    });
    assert!(records.is_empty());
}
