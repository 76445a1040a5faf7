//! Hybrid prediction (§6): independent two-level components under one
//! metaprediction rule.

use ibp_trace::Addr;

use crate::meta::{MetaSpec, MetaState};
use crate::predictor::Predictor;
use crate::snapshot::{Snapshot, StructuralSnapshot};
use crate::table::TableHit;
use crate::two_level::TwoLevelPredictor;

/// A hybrid predictor: two-level components of different path lengths,
/// each with its own history and table, and one [`MetaState`] rule that
/// picks among their lookups.
///
/// Every component trains on every branch and the components share no
/// state, so a short-path component adapts quickly through phase changes
/// while a long-path one accumulates longer-term correlations. The rule
/// ([`MetaSpec`]) makes the paper's designs:
///
/// * `Confidence` — the §6 hybrid. Each table entry carries an n-bit
///   confidence counter (2-bit by default) tracking its recent success, and
///   the hit with the higher confidence wins, the earlier component on
///   ties; a component that misses never wins over one that hits. The paper
///   found two such components to beat equal-total-size non-hybrid
///   predictors for tables of 1K entries and up; with three or more it is
///   §8.1's multi-hybrid.
/// * `Bpst` — §6.1's alternative: a counter per *branch* over exactly two
///   components (McFarling-style), where the paper argues for its finer
///   per-*pattern* confidence.
/// * `FirstHit` — §7's mimicry of prediction by partial matching, the
///   cascade: "a PPM predictor predicts for the longest pattern for which a
///   prediction is available". Components are consulted longest path first
///   and the first whose table hits supplies the prediction, whatever its
///   confidence. Its stages should use tagged tables: a tagless one hits on
///   every initialised index and would starve later stages.
///
/// # Example
///
/// ```
/// use ibp_core::PredictorConfig;
///
/// // The paper's best 8K-entry 4-way configuration: p1 = 6, p2 = 2,
/// // two 4096-entry components (Table 6).
/// let hybrid = PredictorConfig::hybrid(6, 2, 4096, 4).build();
/// assert_eq!(hybrid.storage_entries(), Some(8192));
/// ```
#[derive(Debug, Clone)]
pub struct HybridPredictor {
    components: Vec<TwoLevelPredictor>,
    meta: MetaState,
}

impl HybridPredictor {
    /// Combines `components` under the rule `spec`. Order matters: earlier
    /// components win confidence ties and the BPST's cold selectors, and
    /// the cascade consults them in order. So pass the *first* path length
    /// of a "p1.p2" pair first, and a cascade's longest path first.
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty, if a [`MetaSpec::Bpst`] gets other
    /// than two components or a selector width outside `1..=7`, or if a
    /// [`MetaSpec::FirstHit`] cascade's path lengths increase along the
    /// vector (which catches accidental mis-ordering).
    #[must_use]
    pub fn new(components: Vec<TwoLevelPredictor>, spec: MetaSpec) -> Self {
        assert!(!components.is_empty(), "at least one component required");
        match spec {
            MetaSpec::Confidence => {}
            MetaSpec::FirstHit => assert!(
                components
                    .windows(2)
                    .all(|w| w[0].path_len() >= w[1].path_len()),
                "cascade stages must be ordered longest path first"
            ),
            MetaSpec::Bpst { .. } => assert_eq!(
                components.len(),
                2,
                "a BPST arbitrates exactly two components"
            ),
        }
        HybridPredictor {
            components,
            meta: MetaState::new(spec),
        }
    }

    /// The components, in arbitration order.
    #[must_use]
    pub fn components(&self) -> &[TwoLevelPredictor] {
        &self.components
    }

    /// The components, in arbitration order.
    pub(crate) fn components_mut(&mut self) -> &mut [TwoLevelPredictor] {
        &mut self.components
    }

    /// The metaprediction rule and its state.
    #[must_use]
    pub fn meta(&self) -> &MetaState {
        &self.meta
    }

    /// The rule's state, which a pass's component bank replays the
    /// components' recorded lookups through.
    pub(crate) fn meta_mut(&mut self) -> &mut MetaState {
        &mut self.meta
    }

    /// Looks up the arbitrated prediction with its confidence.
    #[must_use]
    pub fn lookup(&self, pc: Addr) -> Option<TableHit> {
        self.meta
            .arbitrate(pc, self.components.iter().map(|c| c.lookup(pc)))
    }
}

impl Predictor for HybridPredictor {
    fn predict(&self, pc: Addr) -> Option<Addr> {
        self.lookup(pc).map(|h| h.target)
    }

    fn update(&mut self, pc: Addr, actual: Addr) {
        let _ = self.step(pc, actual, false);
    }

    /// Each component computes its key once and performs its pre-update
    /// lookup and its training in a single pass
    /// ([`TwoLevelPredictor::fused_step`]), then the rule arbitrates over
    /// those lookups and trains. Byte-identical to `predict` + `update`:
    /// the components share no state, so training one before looking up
    /// the next cannot change the next's answer. The BPST selector trains
    /// on the components' answers on *every* event, warmup included, so
    /// under it the components look up whatever `want_lookup` says.
    fn step(&mut self, pc: Addr, actual: Addr, want_lookup: bool) -> Option<Addr> {
        let look = want_lookup || matches!(self.meta.spec(), MetaSpec::Bpst { .. });
        let hits = self
            .components
            .iter_mut()
            .map(|c| c.fused_step(pc, actual, look));
        let predicted = self.meta.replay(pc, hits, actual);
        predicted.filter(|_| want_lookup)
    }

    fn observe_cond(&mut self, pc: Addr, target: Addr) {
        for c in &mut self.components {
            c.observe_cond(pc, target);
        }
    }

    fn name(&self) -> String {
        let paths = |sep: &str| {
            let paths: Vec<String> = self
                .components
                .iter()
                .map(|c| c.path_len().to_string())
                .collect();
            paths.join(sep)
        };
        match (self.meta.spec(), self.components.as_slice()) {
            (MetaSpec::FirstHit, _) => format!("cascade p={}", paths(">")),
            (spec, [first, second]) => format!(
                "{} p={}.{} [{} | {}]",
                if spec == MetaSpec::Confidence {
                    "hybrid"
                } else {
                    "bpst"
                },
                first.path_len(),
                second.path_len(),
                first.name(),
                second.name()
            ),
            _ => format!("multi-hybrid p={}", paths(".")),
        }
    }

    fn storage_entries(&self) -> Option<usize> {
        self.components.iter().map(Predictor::storage_entries).sum()
    }

    /// The components' sum; `None` under a BPST, whose selector table is
    /// unbounded.
    fn storage_bits(&self) -> Option<u64> {
        if matches!(self.meta.spec(), MetaSpec::Bpst { .. }) {
            return None;
        }
        self.components.iter().map(Predictor::storage_bits).sum()
    }

    fn snapshot(&self) -> Option<Snapshot> {
        Some(self.structural_snapshot())
    }
}

impl StructuralSnapshot for HybridPredictor {
    /// The components' snapshots in order (a `p1 == p2` hybrid keeps two),
    /// plus the selector histogram under a BPST.
    fn structural_snapshot(&self) -> Snapshot {
        Snapshot {
            components: self
                .components
                .iter()
                .flat_map(|c| c.structural_snapshot().components)
                .collect(),
            selectors: self.meta.selector_histogram(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistorySharing;
    use crate::key::CompressedKeySpec;

    fn a(raw: u32) -> Addr {
        Addr::new(raw)
    }

    fn unconstrained(paths: &[usize], spec: MetaSpec) -> HybridPredictor {
        HybridPredictor::new(
            paths
                .iter()
                .map(|&p| TwoLevelPredictor::unconstrained(p, HistorySharing::GLOBAL))
                .collect(),
            spec,
        )
    }

    fn confidence(paths: &[usize]) -> HybridPredictor {
        unconstrained(paths, MetaSpec::Confidence)
    }

    fn bpst(p1: usize, p2: usize) -> HybridPredictor {
        unconstrained(&[p1, p2], MetaSpec::Bpst { selector_bits: 2 })
    }

    fn cascade(paths: &[usize]) -> HybridPredictor {
        unconstrained(paths, MetaSpec::FirstHit)
    }

    fn set_assoc(path_len: usize, entries: usize) -> TwoLevelPredictor {
        TwoLevelPredictor::set_assoc(CompressedKeySpec::practical(path_len), entries, 4)
    }

    #[test]
    fn single_hit_wins() {
        let mut h = confidence(&[2, 0]);
        // Only the p = 0 component has an entry for a cold history.
        h.update(a(0x100), a(0x900));
        // The p = 0 key (pc only) hits; p = 2's trained pattern no longer
        // matches the shifted history, so the BTB-like component answers.
        assert_eq!(h.predict(a(0x100)), Some(a(0x900)));
    }

    #[test]
    fn higher_confidence_component_wins() {
        // Construct a direct conflict: component 1 (p = 0) learns the wrong
        // target with low confidence; component 2 keeps hitting.
        let mut h = confidence(&[0, 1]);
        let site = a(0x100);
        // Periodic targets t1, t2: p = 0 alternates (low confidence),
        // p = 1 learns the alternation (high confidence).
        let (t1, t2) = (a(0x900), a(0xA00));
        for _ in 0..8 {
            h.update(site, t1);
            h.update(site, t2);
        }
        // Next in sequence is t1; the p = 0 component holds whichever target
        // the 2bc rule left, with confidence <= the p = 1 entry's.
        assert_eq!(h.predict(site), Some(t1));
    }

    #[test]
    fn tie_goes_to_first_component() {
        // Identical p = 0 components diverge only via the tie-break; train a
        // single update so both have confidence 0.
        let mut h = confidence(&[0, 0]);
        h.update(a(0x100), a(0x900));
        let hit = h.lookup(a(0x100)).unwrap();
        assert_eq!(hit.target, a(0x900));
        assert_eq!(hit.confidence, 0);
    }

    #[test]
    fn storage_sums_components() {
        let h = HybridPredictor::new(
            vec![set_assoc(3, 1024), set_assoc(1, 1024)],
            MetaSpec::Confidence,
        );
        assert_eq!(h.storage_entries(), Some(2048));
        assert_eq!(
            h.storage_bits(),
            Some(
                h.components()
                    .iter()
                    .map(|c| c.storage_bits().unwrap())
                    .sum()
            )
        );
        assert!(h.name().contains("p=3.1"));
        // Any unbounded component makes the whole unbounded.
        assert_eq!(confidence(&[1, 2]).storage_entries(), None);
        // The BPST's selector table has no cost model.
        let b = HybridPredictor::new(
            vec![set_assoc(3, 1024), set_assoc(1, 1024)],
            MetaSpec::Bpst { selector_bits: 2 },
        );
        assert_eq!(b.storage_entries(), Some(2048));
        assert_eq!(b.storage_bits(), None);
    }

    #[test]
    fn hybrid_beats_components_on_phase_mix() {
        // A workload whose first half rewards long paths (period-4 cycle at
        // one site) and whose second half changes phase: the hybrid should
        // do at least as well as the best single component.
        let run = |p: &mut dyn Predictor| -> u32 {
            let mut misses = 0;
            let site = a(0x100);
            let phase1 = [0x900u32, 0xA00, 0xB00, 0xA00];
            let phase2 = [0xC00u32, 0x900];
            for _ in 0..50 {
                for &t in &phase1 {
                    if p.predict(site) != Some(a(t)) {
                        misses += 1;
                    }
                    p.update(site, a(t));
                }
            }
            for _ in 0..50 {
                for &t in &phase2 {
                    if p.predict(site) != Some(a(t)) {
                        misses += 1;
                    }
                    p.update(site, a(t));
                }
            }
            misses
        };
        let mut short = TwoLevelPredictor::unconstrained(1, HistorySharing::GLOBAL);
        let mut long = TwoLevelPredictor::unconstrained(3, HistorySharing::GLOBAL);
        let mut hybrid = confidence(&[3, 1]);
        let (s, l, h) = (run(&mut short), run(&mut long), run(&mut hybrid));
        assert!(h <= s.max(l), "hybrid {h} vs short {s} / long {l}");
    }

    #[test]
    fn bpst_falls_back_when_chosen_misses() {
        let mut m = bpst(2, 0);
        m.update(a(0x100), a(0x900));
        // Selector prefers first (p = 2) which misses on the shifted
        // history; the p = 0 component answers.
        assert_eq!(m.predict(a(0x100)), Some(a(0x900)));
    }

    #[test]
    fn bpst_selector_learns_better_component() {
        // Alternating targets: p = 1 (second component) predicts them,
        // p = 0 cannot.
        let mut m = bpst(0, 1);
        let site = a(0x100);
        for _ in 0..12 {
            m.update(site, a(0x900));
            m.update(site, a(0xA00));
        }
        assert!(m.meta().prefers_second(site));
        assert_eq!(m.predict(site), Some(a(0x900)));
    }

    #[test]
    fn bpst_selectors_are_per_branch() {
        let mut m = bpst(0, 1);
        // Branch A rewards the second component...
        for _ in 0..12 {
            m.update(a(0x100), a(0x900));
            m.update(a(0x100), a(0xA00));
        }
        // ...branch B is monomorphic (either component fine; selector stays
        // at its initial preference for the first).
        m.update(a(0x200), a(0xC00));
        m.update(a(0x200), a(0xC00));
        assert!(m.meta().prefers_second(a(0x100)));
        assert!(!m.meta().prefers_second(a(0x200)));
    }

    #[test]
    fn bpst_replay_matches_predictor() {
        // Drive the sequential BPST and a MetaState replay with the same
        // event stream; predictions must agree at every step.
        let mut seq = bpst(0, 1);
        let mut first = TwoLevelPredictor::unconstrained(0, HistorySharing::GLOBAL);
        let mut second = TwoLevelPredictor::unconstrained(1, HistorySharing::GLOBAL);
        let mut meta = MetaState::new(MetaSpec::Bpst { selector_bits: 2 });
        let site = a(0x100);
        for i in 0..32u32 {
            let actual = if i % 2 == 0 { a(0x900) } else { a(0xA00) };
            let expected = seq.predict(site);
            let lookups = [first.lookup(site), second.lookup(site)];
            let got = meta.arbitrate(site, lookups).map(|h| h.target);
            assert_eq!(got, expected, "step {i}");
            assert_eq!(meta.replay(site, lookups, actual), expected, "step {i}");
            seq.update(site, actual);
            first.update(site, actual);
            second.update(site, actual);
        }
        assert!(meta.prefers_second(site));
        assert_eq!(
            seq.structural_snapshot().selectors,
            meta.selector_histogram()
        );
    }

    #[test]
    #[should_panic(expected = "exactly two components")]
    fn bpst_takes_two_components() {
        let _ = unconstrained(&[3, 1, 0], MetaSpec::Bpst { selector_bits: 2 });
    }

    #[test]
    fn multi_hybrid_answers_from_any_component() {
        let mut m = confidence(&[3, 1, 0]);
        m.update(a(0x100), a(0x900));
        // Only the p = 0 component hits after history shift.
        assert_eq!(m.predict(a(0x100)), Some(a(0x900)));
    }

    #[test]
    fn three_components_cover_mixed_periods() {
        // Alternation needs p >= 1; a BTB covers monomorphic sites
        // instantly; a p = 3 covers a longer cycle.
        let mut m = confidence(&[3, 1, 0]);
        let mut misses = 0;
        let cycle = [0x900u32, 0xA00, 0x900, 0xB00];
        for round in 0..20 {
            for &t in &cycle {
                if round > 4 && m.predict(a(0x100)) != Some(a(t)) {
                    misses += 1;
                }
                m.update(a(0x100), a(t));
            }
        }
        assert_eq!(misses, 0);
    }

    #[test]
    fn multi_hybrid_storage_sums_or_none() {
        let bounded = HybridPredictor::new(
            vec![set_assoc(1, 256), set_assoc(1, 512), set_assoc(1, 256)],
            MetaSpec::Confidence,
        );
        assert_eq!(bounded.storage_entries(), Some(1024));
        assert!(bounded.storage_bits().is_some());
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn empty_rejected() {
        let _ = HybridPredictor::new(vec![], MetaSpec::Confidence);
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn empty_cascade_rejected() {
        let _ = HybridPredictor::new(vec![], MetaSpec::FirstHit);
    }

    #[test]
    fn names_follow_the_rule() {
        assert_eq!(confidence(&[5, 2, 0]).name(), "multi-hybrid p=5.2.0");
        assert!(confidence(&[3, 1]).name().starts_with("hybrid p=3.1 ["));
        assert!(bpst(3, 1).name().starts_with("bpst p=3.1 ["));
        assert_eq!(cascade(&[6, 2, 0]).name(), "cascade p=6>2>0");
    }

    #[test]
    fn cascade_longest_matching_stage_wins() {
        let mut c = cascade(&[2, 0]);
        let site = a(0x100);
        // Teach the p = 0 stage (and p = 2 with a cold history).
        c.update(site, a(0x900));
        // After the history shifted, only p = 0 hits.
        assert_eq!(c.predict(site), Some(a(0x900)));
        // Re-train until the p = 2 patterns are populated on a two-cycle.
        for _ in 0..6 {
            c.update(site, a(0x900));
            c.update(site, a(0xA00));
        }
        // p = 2 stage now hits and overrides the p = 0 stage even though
        // the p = 0 entry (2bc) still holds a stale target.
        assert_eq!(c.predict(site), Some(a(0x900)));
    }

    #[test]
    fn cascade_falls_through_on_cold_long_stage() {
        let mut c = cascade(&[4, 1, 0]);
        c.update(a(0x200), a(0xB00));
        // Fresh site with never-seen history: p = 4 and p = 1 stages miss.
        c.update(a(0x300), a(0xC00));
        assert_eq!(c.predict(a(0x300)), Some(a(0xC00)));
    }

    #[test]
    #[should_panic(expected = "longest path first")]
    fn cascade_increasing_paths_rejected() {
        let _ = cascade(&[1, 3]);
    }

    #[test]
    fn bounded_cascade_storage() {
        let c = HybridPredictor::new(
            vec![set_assoc(6, 1024), set_assoc(2, 512), set_assoc(0, 512)],
            MetaSpec::FirstHit,
        );
        assert_eq!(c.storage_entries(), Some(2048));
        assert_eq!(c.name(), "cascade p=6>2>0");
    }

    #[test]
    fn snapshot_lists_components_and_bpst_selectors() {
        let mut h = confidence(&[1, 1]);
        h.update(a(0x100), a(0x900));
        let snap = h.structural_snapshot();
        assert_eq!(snap.components.len(), 2);
        assert!(snap.selectors.is_empty());
        let mut m = bpst(0, 1);
        for _ in 0..12 {
            m.update(a(0x100), a(0x900));
            m.update(a(0x100), a(0xA00));
        }
        let snap = m.structural_snapshot();
        assert_eq!(snap.components.len(), 2);
        assert_eq!(snap.selectors.iter().sum::<u64>(), 1);
    }
}
