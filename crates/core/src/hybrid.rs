//! Hybrid prediction with per-entry confidence counters (§6).

use ibp_trace::Addr;

use crate::predictor::Predictor;
use crate::snapshot::{Snapshot, StructuralSnapshot};
use crate::table::TableHit;
use crate::two_level::TwoLevelPredictor;

/// A hybrid predictor combining two component predictors of different path
/// lengths (§6).
///
/// Each component's table entries carry an n-bit confidence counter (2-bit
/// by default) tracking the entry's recent success. On a prediction, the
/// hybrid selects the component whose *hit entry* has the higher confidence;
/// ties go to the first component. A component that misses never wins over
/// one that hits.
///
/// Both components are trained on every branch (each also maintains its own
/// history register), so the short-path component adapts quickly through
/// phase changes while the long-path component accumulates longer-term
/// correlations — the combination the paper found to beat equal-total-size
/// non-hybrid predictors for tables of 1K entries and up.
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
    first: TwoLevelPredictor,
    second: TwoLevelPredictor,
}

impl HybridPredictor {
    /// Combines two component predictors. `first` wins confidence ties, so
    /// by the paper's convention pass the *first* path length of a "p1.p2"
    /// pair as `first`.
    #[must_use]
    pub fn new(first: TwoLevelPredictor, second: TwoLevelPredictor) -> Self {
        HybridPredictor { first, second }
    }

    /// The tie-winning component.
    #[must_use]
    pub fn first(&self) -> &TwoLevelPredictor {
        &self.first
    }

    /// The other component.
    #[must_use]
    pub fn second(&self) -> &TwoLevelPredictor {
        &self.second
    }

    /// The metaprediction rule: picks the hit with the higher confidence,
    /// first component winning ties. A component that misses never wins
    /// over one that hits.
    ///
    /// Public because it is *the* confidence-arbitration rule: a pass's
    /// component bank ([`KeyStreams`](crate::KeyStreams)) and the
    /// component-parallel merge fold ([`MetaState`](crate::MetaState))
    /// replay recorded component lookups through this same function, which
    /// is what makes their results byte-identical to the sequential hybrid.
    /// It is [`MultiHybridPredictor`](crate::ext::MultiHybridPredictor)'s
    /// rule at two components.
    #[must_use]
    pub fn select(first: Option<TableHit>, second: Option<TableHit>) -> Option<TableHit> {
        match (first, second) {
            (Some(a), Some(b)) => Some(if b.confidence > a.confidence { b } else { a }),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }

    /// Looks up the arbitrated prediction with its confidence.
    #[must_use]
    pub fn lookup(&self, pc: Addr) -> Option<TableHit> {
        HybridPredictor::select(self.first.lookup(pc), self.second.lookup(pc))
    }

    /// Both components, first then second.
    pub(crate) fn components_mut(&mut self) -> [&mut TwoLevelPredictor; 2] {
        [&mut self.first, &mut self.second]
    }
}

impl Predictor for HybridPredictor {
    fn predict(&self, pc: Addr) -> Option<Addr> {
        self.lookup(pc).map(|h| h.target)
    }

    fn update(&mut self, pc: Addr, actual: Addr) {
        // Each component trains its own entry and shifts its own history;
        // confidence counters advance inside the tables.
        self.first.update(pc, actual);
        self.second.update(pc, actual);
    }

    /// Each component computes its key once and performs its pre-update
    /// lookup and its training in a single pass
    /// ([`TwoLevelPredictor::fused_step`]), then the usual confidence rule
    /// arbitrates. Byte-identical to `lookup` + `update`: the components
    /// share no state, so training the first before looking up the second
    /// cannot change the second's answer.
    fn step(&mut self, pc: Addr, actual: Addr, want_lookup: bool) -> Option<Addr> {
        let first = self.first.fused_step(pc, actual, want_lookup);
        let second = self.second.fused_step(pc, actual, want_lookup);
        HybridPredictor::select(first, second).map(|h| h.target)
    }

    fn observe_cond(&mut self, pc: Addr, target: Addr) {
        self.first.observe_cond(pc, target);
        self.second.observe_cond(pc, target);
    }

    fn reset(&mut self) {
        self.first.reset();
        self.second.reset();
    }

    fn name(&self) -> String {
        format!(
            "hybrid p={}.{} [{} | {}]",
            self.first.path_len(),
            self.second.path_len(),
            self.first.name(),
            self.second.name()
        )
    }

    fn storage_entries(&self) -> Option<usize> {
        match (self.first.storage_entries(), self.second.storage_entries()) {
            (Some(a), Some(b)) => Some(a + b),
            _ => None,
        }
    }

    fn storage_bits(&self) -> Option<u64> {
        match (self.first.storage_bits(), self.second.storage_bits()) {
            (Some(a), Some(b)) => Some(a + b),
            _ => None,
        }
    }

    fn snapshot(&self) -> Option<Snapshot> {
        Some(self.structural_snapshot())
    }
}

impl StructuralSnapshot for HybridPredictor {
    fn structural_snapshot(&self) -> Snapshot {
        // Components in (first, second) order; a plain concat keeps
        // p1 == p2 hybrids as two components.
        let mut snap = self.first.structural_snapshot();
        snap.components
            .extend(self.second.structural_snapshot().components);
        snap
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

    fn unconstrained_pair(p1: usize, p2: usize) -> HybridPredictor {
        HybridPredictor::new(
            TwoLevelPredictor::unconstrained(p1, HistorySharing::GLOBAL),
            TwoLevelPredictor::unconstrained(p2, HistorySharing::GLOBAL),
        )
    }

    #[test]
    fn single_hit_wins() {
        let mut h = unconstrained_pair(2, 0);
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
        let mut h = unconstrained_pair(0, 1);
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
        let c1 = TwoLevelPredictor::unconstrained(0, HistorySharing::GLOBAL);
        let c2 = TwoLevelPredictor::unconstrained(0, HistorySharing::GLOBAL);
        let mut h = HybridPredictor::new(c1, c2);
        // Identical p = 0 components diverge only via the tie-break; train a
        // single update so both have confidence 0.
        h.update(a(0x100), a(0x900));
        let hit = h.lookup(a(0x100)).unwrap();
        assert_eq!(hit.target, a(0x900));
        assert_eq!(hit.confidence, 0);
    }

    #[test]
    fn select_logic() {
        let hit = |t: u32, c: u8| {
            Some(TableHit {
                target: a(t),
                confidence: c,
            })
        };
        assert_eq!(HybridPredictor::select(None, None), None);
        assert_eq!(HybridPredictor::select(hit(0x100, 0), None), hit(0x100, 0));
        assert_eq!(HybridPredictor::select(None, hit(0x200, 0)), hit(0x200, 0));
        // Strictly greater second wins.
        assert_eq!(
            HybridPredictor::select(hit(0x100, 1), hit(0x200, 2)),
            hit(0x200, 2)
        );
        // Tie: first wins.
        assert_eq!(
            HybridPredictor::select(hit(0x100, 2), hit(0x200, 2)),
            hit(0x100, 2)
        );
    }

    #[test]
    fn storage_sums_components() {
        let spec1 = CompressedKeySpec::practical(3);
        let spec2 = CompressedKeySpec::practical(1);
        let h = HybridPredictor::new(
            TwoLevelPredictor::set_assoc(spec1, 1024, 4),
            TwoLevelPredictor::set_assoc(spec2, 1024, 4),
        );
        assert_eq!(h.storage_entries(), Some(2048));
        assert!(h.name().contains("p=3.1"));
    }

    #[test]
    fn reset_clears_both() {
        let mut h = unconstrained_pair(0, 1);
        h.update(a(0x100), a(0x900));
        h.reset();
        assert_eq!(h.predict(a(0x100)), None);
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
        let mut hybrid = unconstrained_pair(3, 1);
        let (s, l, h) = (run(&mut short), run(&mut long), run(&mut hybrid));
        assert!(h <= s.max(l), "hybrid {h} vs short {s} / long {l}");
    }
}
