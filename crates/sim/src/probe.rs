//! The predictor-internals probe layer.
//!
//! Misprediction rates say *what* a predictor got wrong; they do not say
//! *why*. The paper's §5 interference analysis ("as the table gets
//! smaller, capacity misses dominate"; "the selector saturates towards the
//! long-path component") is about predictor-internal structure — table
//! occupancy, eviction and tag-conflict pressure, selector usage, history
//! state. This module samples that structure into the run journal:
//!
//! * every predictor exposes its internals through
//!   [`ibp_core::StructuralSnapshot`] (occupancy, evictions, tag
//!   conflicts, confidence and LRU-depth histograms, history-register
//!   entropy);
//! * a run samples one snapshot at end-of-warmup (`point = "warm"`) and
//!   one at end-of-run (`point = "end"`), plus an `interval` sample every
//!   8,192 scored events under `IBP_PROBE=deep`;
//! * scored events are attributed per site: correct, wrong-target
//!   (pattern present, different target) or no-entry (table miss); deep
//!   mode splits no-entry into cold vs. capacity with an ever-seen key
//!   set over each event's key fingerprint — the [`MissClassifier`] that
//!   [`crate::analysis::simulate_classified`] runs too;
//! * everything lands in compact `probe` journal records
//!   ([`ibp_obs::probe`]), rendered by `obs_report --internals`.
//!
//! The layer is gated by `IBP_PROBE` (`0`/unset off, `1` on, `deep` adds
//! interval samples and the cold/capacity split) and is inert unless the
//! journal is active (`IBP_TRACE`). When off, the prediction hot path pays
//! one relaxed atomic load and a branch; when on, probe counters are
//! write-only side state that the prediction path never reads, so scored
//! results are byte-identical either way — the equivalence tests below pin
//! that down.
//!
//! Only the sequential fold behind [`crate::simulate_source`],
//! [`crate::simulate_kernel`] and the sweep engine's passes probes, one
//! [`ProbeRun`] per predictor lane. A probed pass folds like a plain one,
//! its compressed-key kernels through the component bank: each lane's
//! fold reports every event into its run's [`Attribution`] through the
//! kernel layer's [`ibp_core::ProbeSink`] protocol, and the pass driver
//! takes the run's [`Samples`] between two folds, at the events where
//! every lane samples. The library pipelines ([`crate::shard`],
//! [`crate::component`]) fold unprobed whatever the policy says.

use std::collections::HashSet;
use std::sync::Mutex;

use ibp_core::snapshot::{HistorySnapshot, Snapshot, TableSnapshot};
use ibp_core::{Predictor, ProbeSink, WordMap};
use ibp_obs as obs;
use ibp_obs::json::Json;
use ibp_trace::Addr;

use crate::analysis::MissBreakdown;

pub use ibp_obs::ProbePolicy;

/// Scored events between two `interval` snapshots under `deep`.
pub(crate) const DEEP_INTERVAL: u64 = 8_192;

/// How many aliasing-heavy sites a probe record keeps.
const TOP_SITES: usize = 8;

fn override_slot() -> &'static Mutex<Option<ProbePolicy>> {
    static SLOT: Mutex<Option<ProbePolicy>> = Mutex::new(None);
    &SLOT
}

/// Replaces the `IBP_PROBE` policy for this process (`None` restores the
/// environment's). For tests and measurement binaries that compare
/// policies within one process — the knob is read once.
pub fn override_policy(policy: Option<ProbePolicy>) {
    *override_slot()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = policy;
}

/// The configured probe policy: the process-wide override if one is set
/// ([`override_policy`]), else `IBP_PROBE` ([`ibp_obs::knobs()`]).
#[must_use]
pub fn probe_policy() -> ProbePolicy {
    override_slot()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .unwrap_or(obs::knobs().probe)
}

/// The policy a run should actually use, with the core-crate counter gate
/// synced to it. Probe records only exist in the journal, so the policy
/// degrades to `Off` while tracing is disabled — no journal, no reason to
/// pay for counters. Every concurrent cell computes the same value, so
/// the racing gate stores are benign.
#[must_use]
pub fn active_policy() -> ProbePolicy {
    let policy = if obs::enabled() {
        probe_policy()
    } else {
        ProbePolicy::Off
    };
    ibp_core::set_probe_counters(policy.on());
    policy
}

/// The one miss classifier, of the §5.1 miss measurements
/// ([`MissLane`](crate::analysis::MissLane)) and of every probed run's
/// [`Attribution`]: every scored event is a hit, a wrong-target miss (the
/// pattern held another target) or a no-entry miss (the pattern was
/// absent). A no-entry miss whose key fingerprint was trained before,
/// warmup included, is a capacity miss and one never trained a cold miss;
/// without a fingerprint it stays unsplit.
#[derive(Debug, Default)]
pub struct MissClassifier {
    fingerprints: bool,
    seen: HashSet<u64>,
    breakdown: MissBreakdown,
    unsplit: u64,
}

impl MissClassifier {
    /// A classifier that asks its fold for key fingerprints when
    /// `fingerprints`, and otherwise leaves every no-entry miss unsplit.
    #[must_use]
    pub fn new(fingerprints: bool) -> Self {
        MissClassifier {
            fingerprints,
            ..MissClassifier::default()
        }
    }

    /// The scored events by class; unsplit no-entry misses are in no
    /// class.
    #[must_use]
    pub fn breakdown(&self) -> MissBreakdown {
        self.breakdown
    }
}

impl ProbeSink for MissClassifier {
    fn wants_fingerprint(&self) -> bool {
        self.fingerprints
    }

    fn score(&mut self, _pc: Addr, predicted: Option<Addr>, actual: Addr, fp: Option<u64>) {
        let b = &mut self.breakdown;
        match (predicted, fp) {
            (Some(p), _) if p == actual => b.hits += 1,
            (Some(_), _) => b.wrong_target += 1,
            (None, Some(key)) if self.seen.contains(&key) => b.capacity += 1,
            (None, Some(_)) => b.cold += 1,
            (None, None) => self.unsplit += 1,
        }
    }

    fn note_trained(&mut self, fp: u64) {
        self.seen.insert(fp);
    }
}

/// Per-site misprediction split for one probed run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteAttribution {
    /// Scored mispredictions with the pattern present but wrong.
    pub wrong_target: u64,
    /// Scored mispredictions with no table entry for the pattern.
    pub no_entry: u64,
}

impl SiteAttribution {
    fn total(self) -> u64 {
        self.wrong_target + self.no_entry
    }
}

/// Miss attribution over the scored events of one probed run: the
/// [`MissClassifier`]'s split, whose no-entry misses split into cold and
/// capacity under `deep` when the predictor has a key fingerprint, plus
/// each site's misses. It is the sink a probed lane's fold reports into.
#[derive(Debug, Default)]
pub struct Attribution {
    classifier: MissClassifier,
    /// Per-site miss counts, updated only on misses (a hot, well-predicted
    /// site costs no memory).
    sites: WordMap<SiteAttribution>,
}

impl Attribution {
    /// Scored events with the pattern absent from the table: cold,
    /// capacity and unsplit.
    fn no_entry(&self) -> u64 {
        let b = self.classifier.breakdown;
        b.cold + b.capacity + self.classifier.unsplit
    }

    /// The aliasing-heaviest sites, by descending miss volume.
    #[must_use]
    pub fn top_sites(&self, n: usize) -> Vec<(u32, SiteAttribution)> {
        let mut sites: Vec<(u32, SiteAttribution)> =
            self.sites.iter().map(|(&pc, &s)| (pc, s)).collect();
        sites.sort_by(|a, b| b.1.total().cmp(&a.1.total()).then(a.0.cmp(&b.0)));
        sites.truncate(n);
        sites
    }
}

impl ProbeSink for Attribution {
    fn wants_fingerprint(&self) -> bool {
        self.classifier.wants_fingerprint()
    }

    fn score(&mut self, pc: Addr, predicted: Option<Addr>, actual: Addr, fp: Option<u64>) {
        self.classifier.score(pc, predicted, actual, fp);
        match predicted {
            Some(p) if p == actual => {}
            Some(_) => self.sites.entry(pc.raw()).or_default().wrong_target += 1,
            None => self.sites.entry(pc.raw()).or_default().no_entry += 1,
        }
    }

    fn note_trained(&mut self, fp: u64) {
        self.classifier.note_trained(fp);
    }
}

/// The structural snapshots of one probed run, in the order taken.
#[derive(Debug, Default)]
pub struct Samples(Vec<(&'static str, Snapshot)>);

impl Samples {
    /// Takes a structural snapshot labelled `point` ("warm", "interval" or
    /// "end"), if the predictor exposes one.
    pub fn sample(&mut self, point: &'static str, predictor: &dyn Predictor) {
        if let Some(snapshot) = predictor.snapshot() {
            self.0.push((point, snapshot));
        }
    }
}

/// Probe state for one predictor over one run: the attribution its fold
/// reports into, and the snapshots its pass driver takes. One per lane of
/// a probed pass.
#[derive(Debug, Default)]
pub struct ProbeRun {
    attribution: Attribution,
    samples: Samples,
}

impl ProbeRun {
    /// Fresh probe state under `policy` (which must be on): key
    /// fingerprints, and so the cold/capacity split, under `deep` only.
    #[must_use]
    pub fn new(policy: ProbePolicy) -> ProbeRun {
        ProbeRun {
            attribution: Attribution {
                classifier: MissClassifier::new(policy.deep()),
                ..Attribution::default()
            },
            samples: Samples::default(),
        }
    }

    /// The run's two halves during a pass: the sink its fold reports every
    /// event into, and the samples its driver takes between two folds.
    pub fn split(&mut self) -> (&mut Attribution, &mut Samples) {
        (&mut self.attribution, &mut self.samples)
    }

    /// Emits one `probe` journal record per sample; the `end` sample
    /// carries the attribution and top-site payload.
    pub fn emit(&self, trace: &str, predictor: &str) {
        for (point, snapshot) in &self.samples.0 {
            let attribution = (*point == "end").then_some(&self.attribution);
            emit_record(trace, predictor, point, snapshot, attribution);
        }
    }
}

fn u64_arr(values: &[u64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v as f64)).collect())
}

fn table_fields(t: &TableSnapshot, fields: &mut Vec<(String, Json)>) {
    fields.push(("occupied".to_string(), Json::Num(t.occupied as f64)));
    if let Some(capacity) = t.capacity {
        fields.push(("capacity".to_string(), Json::Num(capacity as f64)));
    }
    fields.push(("evictions".to_string(), Json::Num(t.evictions as f64)));
    fields.push((
        "tag_conflicts".to_string(),
        Json::Num(t.tag_conflicts as f64),
    ));
    if !t.confidence.is_empty() {
        fields.push(("confidence".to_string(), u64_arr(&t.confidence)));
    }
    if !t.lru_depths.is_empty() {
        fields.push(("lru_depths".to_string(), u64_arr(&t.lru_depths)));
    }
}

fn history_json(h: &HistorySnapshot) -> Json {
    Json::Obj(vec![
        ("registers".to_string(), Json::Num(h.registers as f64)),
        (
            "entropy_millibits".to_string(),
            Json::Num(h.entropy_millibits() as f64),
        ),
        (
            "distinct_states".to_string(),
            Json::Num(h.states.len() as f64),
        ),
    ])
}

/// The JSON shape of one structural snapshot: a `components` array plus a
/// `selectors` histogram (empty for non-hybrid predictors).
#[must_use]
pub fn snapshot_json(snapshot: &Snapshot) -> (Json, Json) {
    let components = Json::Arr(
        snapshot
            .components
            .iter()
            .map(|c| {
                let mut fields = vec![("label".to_string(), Json::Str(c.label.clone()))];
                table_fields(&c.table, &mut fields);
                if let Some(h) = &c.history {
                    fields.push(("history".to_string(), history_json(h)));
                }
                Json::Obj(fields)
            })
            .collect(),
    );
    (components, u64_arr(&snapshot.selectors))
}

fn attribution_json(a: &Attribution) -> Json {
    let misses = a.classifier.breakdown;
    Json::Obj(vec![
        ("hits".to_string(), Json::Num(misses.hits as f64)),
        (
            "wrong_target".to_string(),
            Json::Num(misses.wrong_target as f64),
        ),
        ("no_entry".to_string(), Json::Num(a.no_entry() as f64)),
        ("cold".to_string(), Json::Num(misses.cold as f64)),
        ("capacity".to_string(), Json::Num(misses.capacity as f64)),
    ])
}

fn top_sites_json(a: &Attribution) -> Json {
    Json::Arr(
        a.top_sites(TOP_SITES)
            .into_iter()
            .map(|(pc, s)| {
                Json::Obj(vec![
                    ("pc".to_string(), Json::Str(format!("{:#x}", pc))),
                    ("wrong_target".to_string(), Json::Num(s.wrong_target as f64)),
                    ("no_entry".to_string(), Json::Num(s.no_entry as f64)),
                ])
            })
            .collect(),
    )
}

/// Writes one `probe` journal record for a snapshot point.
pub fn emit_record(
    trace: &str,
    predictor: &str,
    point: &str,
    snapshot: &Snapshot,
    attribution: Option<&Attribution>,
) {
    if !obs::enabled() {
        return;
    }
    let (components, selectors) = snapshot_json(snapshot);
    let mut fields = vec![
        ("trace".to_string(), Json::Str(trace.to_string())),
        ("point".to_string(), Json::Str(point.to_string())),
        ("components".to_string(), components),
        ("selectors".to_string(), selectors),
    ];
    if let Some(a) = attribution {
        fields.push(("attribution".to_string(), attribution_json(a)));
        fields.push(("top_sites".to_string(), top_sites_json(a)));
    }
    obs::probe(predictor, Json::Obj(fields));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(raw: u32) -> Addr {
        Addr::new(raw)
    }

    #[test]
    fn override_policy_wins_over_environment() {
        override_policy(Some(ProbePolicy::Deep));
        assert_eq!(probe_policy(), ProbePolicy::Deep);
        assert!(probe_policy().on());
        assert!(probe_policy().deep());
        override_policy(Some(ProbePolicy::Off));
        assert!(!probe_policy().on());
        override_policy(None);
    }

    #[test]
    fn inactive_without_tracing() {
        // No journal installed in this test: whatever the policy says, the
        // active policy is Off and the core gate follows it.
        if obs::enabled() {
            return; // another test installed a sink; skip rather than race
        }
        override_policy(Some(ProbePolicy::Deep));
        assert_eq!(active_policy(), ProbePolicy::Off);
        assert!(!ibp_core::probe_counters_on());
        override_policy(None);
    }

    #[test]
    fn attribution_classifies_and_splits() {
        let mut run = ProbeRun::new(ProbePolicy::Deep);
        let (attr, _) = run.split();
        assert!(attr.wants_fingerprint());
        // Hit.
        attr.score(a(0x100), Some(a(0x900)), a(0x900), Some(1));
        attr.note_trained(1);
        // Wrong target.
        attr.score(a(0x100), Some(a(0x900)), a(0xA00), Some(1));
        attr.note_trained(1);
        // Cold no-entry (key 2 never trained).
        attr.score(a(0x200), None, a(0xB00), Some(2));
        attr.note_trained(2);
        // Capacity no-entry (key 2 trained above, now absent).
        attr.score(a(0x200), None, a(0xB00), Some(2));
        // No fingerprint: no split.
        attr.score(a(0x300), None, a(0xC00), None);
        let misses = attr.classifier.breakdown;
        assert_eq!(misses.hits, 1);
        assert_eq!(misses.wrong_target, 1);
        assert_eq!(attr.no_entry(), 3);
        assert_eq!(misses.cold, 1);
        assert_eq!(misses.capacity, 1);
        assert_eq!(attr.sites.len(), 3);
        assert_eq!(attr.sites[&0x100].wrong_target, 1);
        assert_eq!(attr.sites[&0x200].no_entry, 2);
        let top = attr.top_sites(2);
        assert_eq!(top[0].0, 0x200);
        assert_eq!(top.len(), 2);
        assert!(!ProbeRun::new(ProbePolicy::On).split().0.wants_fingerprint());
    }

    #[test]
    fn snapshot_json_shape() {
        let snap = Snapshot::single(
            "64-entry 4-way",
            TableSnapshot {
                occupied: 10,
                capacity: Some(64),
                evictions: 2,
                tag_conflicts: 2,
                confidence: vec![1, 9],
                lru_depths: vec![5, 3, 2],
            },
        );
        let (components, selectors) = snapshot_json(&snap);
        let comps = components.as_arr().expect("array");
        assert_eq!(comps.len(), 1);
        assert_eq!(
            comps[0].get("label").and_then(Json::as_str),
            Some("64-entry 4-way")
        );
        assert_eq!(comps[0].get("occupied").and_then(Json::as_u64), Some(10));
        assert_eq!(comps[0].get("capacity").and_then(Json::as_u64), Some(64));
        assert_eq!(
            comps[0]
                .get("lru_depths")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(selectors.as_arr().map(<[Json]>::len), Some(0));
    }
}
