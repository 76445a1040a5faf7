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
//! that down, as do the sharded and component pipelines, whose merged
//! probe payloads match the sequential fold's exactly.

use std::collections::{BTreeMap, HashSet};
use std::sync::{Mutex, OnceLock};

use ibp_core::snapshot::{HistorySnapshot, Snapshot, TableSnapshot};
use ibp_core::Predictor;
use ibp_obs as obs;
use ibp_obs::json::Json;
use ibp_trace::Addr;

/// How much predictor-internal telemetry a run collects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbePolicy {
    /// No probes (`IBP_PROBE=0` or unset): the hot path pays one branch.
    Off,
    /// Sample snapshots at end-of-warmup and end-of-run, attribute scored
    /// misses per site (`IBP_PROBE=1`).
    On,
    /// Everything `On` does, plus periodic interval snapshots and the
    /// cold/capacity split of no-entry misses (`IBP_PROBE=deep`).
    Deep,
}

impl ProbePolicy {
    /// Whether any probing is active.
    #[must_use]
    pub fn on(self) -> bool {
        self != ProbePolicy::Off
    }

    /// Whether deep (interval + cold/capacity) probing is active.
    #[must_use]
    pub fn deep(self) -> bool {
        self == ProbePolicy::Deep
    }
}

/// Scored events between two `interval` snapshots under `deep`.
pub(crate) const DEEP_INTERVAL: u64 = 8_192;

/// How many aliasing-heavy sites a probe record keeps.
const TOP_SITES: usize = 8;

fn env_policy() -> ProbePolicy {
    static POLICY: OnceLock<ProbePolicy> = OnceLock::new();
    *POLICY.get_or_init(|| match std::env::var("IBP_PROBE") {
        Ok(raw) => match raw.as_str() {
            "" | "0" => ProbePolicy::Off,
            "1" => ProbePolicy::On,
            "deep" => ProbePolicy::Deep,
            _ => {
                eprintln!(
                    "warning: ignoring invalid IBP_PROBE={raw:?} \
                     (expected 0, 1 or \"deep\"); probes off"
                );
                ProbePolicy::Off
            }
        },
        Err(_) => ProbePolicy::Off,
    })
}

fn override_slot() -> &'static Mutex<Option<ProbePolicy>> {
    static SLOT: Mutex<Option<ProbePolicy>> = Mutex::new(None);
    &SLOT
}

/// Replaces the `IBP_PROBE` policy for this process (`None` restores the
/// environment's). For tests and measurement binaries that compare
/// policies within one process — the environment variable is read once.
pub fn override_policy(policy: Option<ProbePolicy>) {
    *override_slot()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = policy;
}

/// The configured probe policy: the process-wide override if one is set
/// ([`override_policy`]), else `IBP_PROBE` parsed once with
/// warn-and-default (like `IBP_EVENTS`).
#[must_use]
pub fn probe_policy() -> ProbePolicy {
    override_slot()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .unwrap_or_else(env_policy)
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

    /// Folds another run's attribution in (shard merge).
    pub fn absorb(&mut self, other: &Attribution) {
        self.hits += other.hits;
        self.wrong_target += other.wrong_target;
        self.no_entry += other.no_entry;
        self.cold += other.cold;
        self.capacity += other.capacity;
        for (&pc, s) in &other.sites {
            let e = self.sites.entry(pc).or_default();
            e.wrong_target += s.wrong_target;
            e.no_entry += s.no_entry;
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
/// snapshots taken so far. Owned by the sequential fold and by each shard
/// worker; the pipelines merge via [`ProbeRun::into_payload`].
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
    /// carries the attribution and top-site payload. Sequential folds own
    /// their `ProbeRun` directly, so records are journaled with
    /// `sched_mode = "sequential"`.
    pub fn emit(&self, trace: &str, predictor: &str) {
        for (point, snapshot) in &self.samples {
            let attribution = (point == "end").then_some(&self.attribution);
            emit_record(trace, predictor, point, "sequential", snapshot, attribution);
        }
    }

    /// Collapses into the warm/end payload the parallel pipelines merge.
    /// Interval samples (deep, sequential-only) are dropped — the
    /// pipelines never take them.
    #[must_use]
    pub fn into_payload(mut self) -> ProbePayload {
        let mut warm = None;
        let mut end = None;
        for (point, snapshot) in self.samples.drain(..) {
            match point.as_str() {
                "warm" => warm = Some(snapshot),
                "end" => end = Some(snapshot),
                _ => {}
            }
        }
        ProbePayload {
            warm,
            end,
            attribution: self.attribution,
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

/// One run's mergeable probe outcome: the warm and end snapshots plus the
/// scored-event attribution. Shard workers each produce one; the router
/// folds them in shard order and emits a single merged set of records —
/// exactly what the sequential fold would have written.
#[derive(Debug, Default)]
pub struct ProbePayload {
    /// End-of-warmup snapshot (absent when `warmup == 0`).
    pub warm: Option<Snapshot>,
    /// End-of-run snapshot.
    pub end: Option<Snapshot>,
    /// Scored-event miss attribution.
    pub attribution: Attribution,
}

impl ProbePayload {
    /// Folds another worker's payload in (call in shard order; snapshots
    /// of shard-disjoint state merge by addition, attribution adds).
    pub fn absorb(&mut self, other: ProbePayload) {
        match (&mut self.warm, other.warm) {
            (Some(mine), Some(theirs)) => mine.absorb(&theirs),
            (mine @ None, theirs) => *mine = theirs,
            (Some(_), None) => {}
        }
        match (&mut self.end, other.end) {
            (Some(mine), Some(theirs)) => mine.absorb(&theirs),
            (mine @ None, theirs) => *mine = theirs,
            (Some(_), None) => {}
        }
        self.attribution.absorb(&other.attribution);
    }

    /// Emits the warm and end `probe` records (attribution rides on the
    /// end record, mirroring [`ProbeRun::emit`]). `sched_mode` names the
    /// pipeline that produced this merged payload (`"site-shard"` or
    /// `"component-fold"`), so `obs_report --internals` can explain why
    /// deep interval samples are absent from a parallel run's journal.
    pub fn emit(&self, trace: &str, predictor: &str, sched_mode: &str) {
        if let Some(warm) = &self.warm {
            emit_record(trace, predictor, "warm", sched_mode, warm, None);
        }
        if let Some(end) = &self.end {
            emit_record(trace, predictor, "end", sched_mode, end, Some(&self.attribution));
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
    fields.push(("tag_conflicts".to_string(), Json::Num(t.tag_conflicts as f64)));
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
                    (
                        "wrong_target".to_string(),
                        Json::Num(s.wrong_target as f64),
                    ),
                    ("no_entry".to_string(), Json::Num(s.no_entry as f64)),
                ])
            })
            .collect(),
    )
}

/// Writes one `probe` journal record for a snapshot point. `sched_mode`
/// records which scheduling pipeline produced the sample (`"sequential"`,
/// `"site-shard"` or `"component-fold"`) — parallel modes never take deep
/// interval samples, and the reader uses this field to say so.
pub fn emit_record(
    trace: &str,
    predictor: &str,
    point: &str,
    sched_mode: &str,
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
        ("sched_mode".to_string(), Json::Str(sched_mode.to_string())),
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
    fn payload_absorb_adds() {
        let mut x = ProbePayload {
            warm: None,
            end: Some(Snapshot::single(
                "t",
                TableSnapshot {
                    occupied: 3,
                    ..TableSnapshot::default()
                },
            )),
            attribution: Attribution {
                hits: 1,
                ..Attribution::default()
            },
        };
        let y = ProbePayload {
            warm: None,
            end: Some(Snapshot::single(
                "t",
                TableSnapshot {
                    occupied: 4,
                    ..TableSnapshot::default()
                },
            )),
            attribution: Attribution {
                hits: 2,
                no_entry: 1,
                ..Attribution::default()
            },
        };
        x.absorb(y);
        assert_eq!(x.end.as_ref().map(Snapshot::occupied), Some(7));
        assert_eq!(x.attribution.hits, 3);
        assert_eq!(x.attribution.no_entry, 1);
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
        assert_eq!(comps[0].get("label").and_then(Json::as_str), Some("64-entry 4-way"));
        assert_eq!(comps[0].get("occupied").and_then(Json::as_u64), Some(10));
        assert_eq!(comps[0].get("capacity").and_then(Json::as_u64), Some(64));
        assert_eq!(
            comps[0].get("lru_depths").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(selectors.as_arr().map(<[Json]>::len), Some(0));
    }
}
