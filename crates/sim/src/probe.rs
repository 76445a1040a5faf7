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
//!   one at end-of-run (`point = "end"`), plus periodic `interval`
//!   samples under `IBP_PROBE=deep`;
//! * scored events are attributed per site: correct, wrong-target
//!   (pattern present, different target) or no-entry (table miss); deep
//!   mode splits no-entry into cold vs. capacity with an ever-seen key
//!   set over [`ibp_core::Predictor::probe_key_fingerprint`], the same
//!   classification [`crate::analysis::simulate_classified`] performs;
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
//! `ProbeRun` per predictor lane, through the kernel layer's
//! [`ibp_core::ProbeSink`] protocol. The library pipelines ([`crate::shard`],
//! [`crate::component`]) fold unprobed whatever the policy says.

use std::collections::{BTreeMap, HashSet};
use std::sync::Mutex;

use ibp_core::snapshot::{HistorySnapshot, Snapshot, TableSnapshot};
use ibp_core::Predictor;
use ibp_obs as obs;
use ibp_obs::json::Json;
use ibp_trace::Addr;

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

/// Miss attribution over the scored events of one run: every scored event
/// is a hit, a wrong-target miss or a no-entry miss; under `deep`,
/// no-entry splits into cold (pattern never trained) and capacity
/// (trained, then evicted) when the predictor exposes a key fingerprint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Correct scored predictions.
    pub hits: u64,
    /// The pattern was resident but held another target.
    pub wrong_target: u64,
    /// The pattern was absent from the table.
    pub no_entry: u64,
    /// Of `no_entry`: the pattern had never been trained (deep only).
    pub cold: u64,
    /// Of `no_entry`: the pattern was trained earlier and evicted (deep
    /// only; structurally zero for unbounded tables).
    pub capacity: u64,
    /// Per-site miss counts, updated only on misses (a hot, well-predicted
    /// site costs no memory).
    pub sites: BTreeMap<u32, SiteAttribution>,
}

impl Attribution {
    /// Attributes one scored event. `key_seen` says whether the pattern's
    /// key fingerprint had been trained before (deep mode; `None` skips
    /// the cold/capacity split).
    pub fn score(
        &mut self,
        pc: Addr,
        predicted: Option<Addr>,
        actual: Addr,
        key_seen: Option<bool>,
    ) {
        match predicted {
            Some(p) if p == actual => self.hits += 1,
            Some(_) => {
                self.wrong_target += 1;
                self.sites.entry(pc.raw()).or_default().wrong_target += 1;
            }
            None => {
                self.no_entry += 1;
                match key_seen {
                    Some(true) => self.capacity += 1,
                    Some(false) => self.cold += 1,
                    None => {}
                }
                self.sites.entry(pc.raw()).or_default().no_entry += 1;
            }
        }
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

/// Probe state for one predictor over one run: attribution plus the
/// snapshots taken so far. Owned by the sequential fold, one per lane.
#[derive(Debug, Default)]
pub struct ProbeRun {
    deep: bool,
    attribution: Attribution,
    seen_keys: HashSet<u64>,
    samples: Vec<(String, Snapshot)>,
}

impl ProbeRun {
    /// Fresh probe state under `policy` (which must be on).
    #[must_use]
    pub fn new(policy: ProbePolicy) -> ProbeRun {
        ProbeRun {
            deep: policy.deep(),
            ..ProbeRun::default()
        }
    }

    /// Whether this run wants key fingerprints (deep mode).
    #[must_use]
    pub fn deep(&self) -> bool {
        self.deep
    }

    /// Attributes one scored event. `fingerprint` is the pre-update key
    /// fingerprint under deep mode (`None` otherwise, or when the
    /// predictor exposes none — no cold/capacity split then).
    pub fn score(
        &mut self,
        pc: Addr,
        predicted: Option<Addr>,
        actual: Addr,
        fingerprint: Option<u64>,
    ) {
        let key_seen = fingerprint.map(|key| self.seen_keys.contains(&key));
        self.attribution.score(pc, predicted, actual, key_seen);
    }

    /// Records a trained key fingerprint (call after the update; warmup
    /// events included — they train the table, so a later miss on their
    /// pattern is capacity, not cold).
    pub fn note_trained(&mut self, fingerprint: Option<u64>) {
        if let Some(key) = fingerprint {
            self.seen_keys.insert(key);
        }
    }

    /// Takes a structural snapshot labelled `point`, if the predictor
    /// exposes one.
    pub fn sample(&mut self, point: &str, predictor: &dyn Predictor) {
        if let Some(snapshot) = predictor.snapshot() {
            self.samples.push((point.to_string(), snapshot));
        }
    }

    /// Emits one `probe` journal record per sample; the `end` sample
    /// carries the attribution and top-site payload.
    pub fn emit(&self, trace: &str, predictor: &str) {
        for (point, snapshot) in &self.samples {
            let attribution = (point == "end").then_some(&self.attribution);
            emit_record(trace, predictor, point, snapshot, attribution);
        }
    }
}

/// The chunk-fold kernels report through this sink exactly as the legacy
/// per-event fold called these methods directly: fingerprints only under
/// deep, `score` before `note_trained`, read-only samples.
impl ibp_core::ProbeSink for ProbeRun {
    fn wants_fingerprint(&self) -> bool {
        self.deep()
    }

    fn score(&mut self, pc: Addr, predicted: Option<Addr>, actual: Addr, fp: Option<u64>) {
        ProbeRun::score(self, pc, predicted, actual, fp);
    }

    fn note_trained(&mut self, fp: Option<u64>) {
        ProbeRun::note_trained(self, fp);
    }

    fn sample(&mut self, point: &str, predictor: &dyn Predictor) {
        ProbeRun::sample(self, point, predictor);
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
    Json::Obj(vec![
        ("hits".to_string(), Json::Num(a.hits as f64)),
        ("wrong_target".to_string(), Json::Num(a.wrong_target as f64)),
        ("no_entry".to_string(), Json::Num(a.no_entry as f64)),
        ("cold".to_string(), Json::Num(a.cold as f64)),
        ("capacity".to_string(), Json::Num(a.capacity as f64)),
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
        assert!(run.deep());
        // Hit.
        run.score(a(0x100), Some(a(0x900)), a(0x900), Some(1));
        run.note_trained(Some(1));
        // Wrong target.
        run.score(a(0x100), Some(a(0x900)), a(0xA00), Some(1));
        run.note_trained(Some(1));
        // Cold no-entry (key 2 never trained).
        run.score(a(0x200), None, a(0xB00), Some(2));
        run.note_trained(Some(2));
        // Capacity no-entry (key 2 trained above, now absent).
        run.score(a(0x200), None, a(0xB00), Some(2));
        // No fingerprint: no split.
        run.score(a(0x300), None, a(0xC00), None);
        let attr = &run.attribution;
        assert_eq!(attr.hits, 1);
        assert_eq!(attr.wrong_target, 1);
        assert_eq!(attr.no_entry, 3);
        assert_eq!(attr.cold, 1);
        assert_eq!(attr.capacity, 1);
        assert_eq!(attr.sites.len(), 3);
        assert_eq!(attr.sites[&0x100].wrong_target, 1);
        assert_eq!(attr.sites[&0x200].no_entry, 2);
        let top = attr.top_sites(2);
        assert_eq!(top[0].0, 0x200);
        assert_eq!(top.len(), 2);
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
