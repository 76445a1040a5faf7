//! BPST metaprediction (§6.1 alternative) and the replayable
//! metapredictor state shared with a pass's component bank and the
//! component-parallel merge fold.

use ibp_trace::Addr;

use crate::counter::SaturatingCounter;
use crate::hash::WordMap;
use crate::hybrid::HybridPredictor;
use crate::predictor::Predictor;
use crate::snapshot::{Snapshot, StructuralSnapshot};
use crate::table::TableHit;
use crate::two_level::TwoLevelPredictor;

/// Which metapredictor arbitrates between a hybrid's two components.
///
/// Produced by [`PredictorConfig::decompose`](crate::PredictorConfig::decompose)
/// and consumed by [`MetaState`], which replays recorded component lookups
/// through exactly the arbitration the sequential predictor uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaSpec {
    /// Per-entry confidence counters (§6): the hit with the higher
    /// confidence wins, first component winning ties. Stateless — the
    /// confidence lives inside the component tables.
    Confidence,
    /// A branch predictor selection table (McFarling-style): one
    /// `selector_bits`-wide counter per branch site tracks which component
    /// has been more accurate there lately.
    Bpst {
        /// Selector counter width in bits (`1..=7`).
        selector_bits: u8,
    },
}

/// Replayable metapredictor state.
///
/// The component-parallel fold records each component's *pre-update* table
/// lookup per indirect event; feeding those records through
/// [`replay`](MetaState::replay) in event order reproduces, bit for bit,
/// the prediction stream of the sequential [`HybridPredictor`] or
/// [`BpstMetaPredictor`] — the confidence rule is literally
/// [`HybridPredictor::select`], and the BPST selector table here *is* the
/// one `BpstMetaPredictor` owns.
#[derive(Debug, Clone)]
pub struct MetaState {
    spec: MetaSpec,
    /// One counter per branch site, keyed by its word address.
    selectors: WordMap<SaturatingCounter>,
}

impl MetaState {
    /// Fresh state for the given arbitration scheme. BPST selectors start
    /// low, i.e. preferring the first component.
    ///
    /// # Panics
    ///
    /// Panics if a [`MetaSpec::Bpst`] selector width is outside `1..=7`.
    #[must_use]
    pub fn new(spec: MetaSpec) -> Self {
        if let MetaSpec::Bpst { selector_bits } = spec {
            assert!((1..=7).contains(&selector_bits));
        }
        MetaState {
            spec,
            selectors: WordMap::default(),
        }
    }

    /// The arbitration scheme this state implements.
    #[must_use]
    pub fn spec(&self) -> MetaSpec {
        self.spec
    }

    /// Whether the selector table currently prefers the second component
    /// for this branch. Always `false` under [`MetaSpec::Confidence`],
    /// which has no per-branch state.
    #[must_use]
    pub fn prefers_second(&self, pc: Addr) -> bool {
        matches!(self.spec, MetaSpec::Bpst { .. })
            && self.selectors.get(&pc.word()).is_some_and(|c| c.is_high())
    }

    /// Arbitrates the two components' lookup results without touching
    /// state: the sequential predictor's `predict`, expressed over
    /// recorded lookups.
    #[must_use]
    pub fn arbitrate(
        &self,
        pc: Addr,
        first: Option<TableHit>,
        second: Option<TableHit>,
    ) -> Option<Addr> {
        match self.spec {
            MetaSpec::Confidence => HybridPredictor::select(first, second).map(|h| h.target),
            MetaSpec::Bpst { .. } => {
                let (chosen, other) = if self.prefers_second(pc) {
                    (second, first)
                } else {
                    (first, second)
                };
                // Fall back to the other component when the chosen one
                // misses.
                chosen.map(|h| h.target).or(other.map(|h| h.target))
            }
        }
    }

    /// Trains the selector toward the component that was (exclusively)
    /// correct. No-op under [`MetaSpec::Confidence`].
    pub fn observe(&mut self, pc: Addr, first_correct: bool, second_correct: bool) {
        let MetaSpec::Bpst { selector_bits } = self.spec else {
            return;
        };
        if first_correct != second_correct {
            let c = self
                .selectors
                .entry(pc.word())
                .or_insert_with(|| SaturatingCounter::new(selector_bits));
            if second_correct {
                c.increment();
            } else {
                c.decrement();
            }
        }
    }

    /// One indirect event of the merge fold: arbitrates the recorded
    /// pre-update lookups, then trains the selector against `actual` —
    /// the same read-then-train order as the sequential
    /// `predict`/`update` pair.
    pub fn replay(
        &mut self,
        pc: Addr,
        first: Option<TableHit>,
        second: Option<TableHit>,
        actual: Addr,
    ) -> Option<Addr> {
        let predicted = self.arbitrate(pc, first, second);
        self.observe(
            pc,
            first.map(|h| h.target) == Some(actual),
            second.map(|h| h.target) == Some(actual),
        );
        predicted
    }

    /// Clears the selector table.
    pub fn reset(&mut self) {
        self.selectors.clear();
    }

    /// Histogram of selector-counter values, indexed by value. Empty under
    /// [`MetaSpec::Confidence`] (no selector state exists).
    #[must_use]
    pub fn selector_histogram(&self) -> Vec<u64> {
        let MetaSpec::Bpst { selector_bits } = self.spec else {
            return Vec::new();
        };
        let mut hist = vec![0u64; 1usize << selector_bits];
        for c in self.selectors.values() {
            hist[c.value() as usize] += 1;
        }
        hist
    }
}

/// A hybrid predictor arbitrated by a branch predictor selection table
/// (BPST, McFarling-style) instead of per-entry confidence counters.
///
/// A two-bit counter per *branch* tracks which of the two components has
/// been more accurate for that branch lately; the counter's high half
/// selects the second component. The paper argues its per-*pattern*
/// confidence scheme is finer grained than this per-branch scheme; the
/// `ablation_metapredictor` runner compares the two.
///
/// The selection table here is unbounded (one counter per branch site seen),
/// which favours the BPST slightly — sites are few, so a real table of a
/// few hundred counters would behave identically.
#[derive(Debug, Clone)]
pub struct BpstMetaPredictor {
    first: TwoLevelPredictor,
    second: TwoLevelPredictor,
    meta: MetaState,
}

impl BpstMetaPredictor {
    /// Combines two components under a 2-bit-per-branch selection table.
    /// Counters start low, i.e. preferring `first`.
    #[must_use]
    pub fn new(first: TwoLevelPredictor, second: TwoLevelPredictor) -> Self {
        BpstMetaPredictor::with_selector_bits(first, second, 2)
    }

    /// Like [`new`](BpstMetaPredictor::new) with an explicit selector
    /// counter width.
    ///
    /// # Panics
    ///
    /// Panics if `selector_bits` is outside `1..=7`.
    #[must_use]
    pub fn with_selector_bits(
        first: TwoLevelPredictor,
        second: TwoLevelPredictor,
        selector_bits: u8,
    ) -> Self {
        BpstMetaPredictor {
            first,
            second,
            meta: MetaState::new(MetaSpec::Bpst { selector_bits }),
        }
    }

    /// Whether the selection table currently prefers the second component
    /// for this branch.
    #[must_use]
    pub fn prefers_second(&self, pc: Addr) -> bool {
        self.meta.prefers_second(pc)
    }

    /// The selector table, which a pass's component bank replays the
    /// components' recorded lookups through.
    pub(crate) fn meta_mut(&mut self) -> &mut MetaState {
        &mut self.meta
    }

    /// Both components, first then second.
    pub(crate) fn components(&self) -> [&TwoLevelPredictor; 2] {
        [&self.first, &self.second]
    }

    /// Both components, first then second.
    pub(crate) fn components_mut(&mut self) -> [&mut TwoLevelPredictor; 2] {
        [&mut self.first, &mut self.second]
    }
}

impl Predictor for BpstMetaPredictor {
    fn predict(&self, pc: Addr) -> Option<Addr> {
        self.meta
            .arbitrate(pc, self.first.lookup(pc), self.second.lookup(pc))
    }

    fn update(&mut self, pc: Addr, actual: Addr) {
        let first_correct = self.first.predict(pc) == Some(actual);
        let second_correct = self.second.predict(pc) == Some(actual);
        // Move the selector toward the component that was (exclusively)
        // correct, as in McFarling's combining scheme.
        self.meta.observe(pc, first_correct, second_correct);
        self.first.update(pc, actual);
        self.second.update(pc, actual);
    }

    /// Both components always run a fused lookup+train pass
    /// ([`TwoLevelPredictor::fused_step`]; the selector trains on their
    /// pre-update answers on *every* event, warmup included, exactly as
    /// `update` recomputes them); the BPST arbitration is read before the
    /// selector moves, preserving the predict-then-observe order.
    /// Byte-identical to `predict` + `update`: component training touches
    /// no selector state and `observe` touches no component state.
    fn step(&mut self, pc: Addr, actual: Addr, want_lookup: bool) -> Option<Addr> {
        let first = self.first.fused_step(pc, actual, true);
        let second = self.second.fused_step(pc, actual, true);
        let predicted = if want_lookup {
            self.meta.arbitrate(pc, first, second)
        } else {
            None
        };
        self.meta.observe(
            pc,
            first.map(|h| h.target) == Some(actual),
            second.map(|h| h.target) == Some(actual),
        );
        predicted
    }

    fn observe_cond(&mut self, pc: Addr, target: Addr) {
        self.first.observe_cond(pc, target);
        self.second.observe_cond(pc, target);
    }

    fn reset(&mut self) {
        self.first.reset();
        self.second.reset();
        self.meta.reset();
    }

    fn name(&self) -> String {
        format!(
            "bpst p={}.{} [{} | {}]",
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

    fn snapshot(&self) -> Option<Snapshot> {
        Some(self.structural_snapshot())
    }
}

impl StructuralSnapshot for BpstMetaPredictor {
    fn structural_snapshot(&self) -> Snapshot {
        let mut snap = self.first.structural_snapshot();
        snap.components
            .extend(self.second.structural_snapshot().components);
        snap.selectors = self.meta.selector_histogram();
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistorySharing;

    fn a(raw: u32) -> Addr {
        Addr::new(raw)
    }

    fn pair(p1: usize, p2: usize) -> BpstMetaPredictor {
        BpstMetaPredictor::new(
            TwoLevelPredictor::unconstrained(p1, HistorySharing::GLOBAL),
            TwoLevelPredictor::unconstrained(p2, HistorySharing::GLOBAL),
        )
    }

    #[test]
    fn falls_back_when_chosen_misses() {
        let mut m = pair(2, 0);
        m.update(a(0x100), a(0x900));
        // Selector prefers first (p = 2) which misses on the shifted
        // history; the p = 0 component answers.
        assert_eq!(m.predict(a(0x100)), Some(a(0x900)));
    }

    #[test]
    fn selector_learns_better_component() {
        // Alternating targets: p = 1 (second component) predicts them,
        // p = 0 cannot.
        let mut m = pair(0, 1);
        let site = a(0x100);
        for _ in 0..12 {
            m.update(site, a(0x900));
            m.update(site, a(0xA00));
        }
        assert!(m.prefers_second(site));
        assert_eq!(m.predict(site), Some(a(0x900)));
    }

    #[test]
    fn selectors_are_per_branch() {
        let mut m = pair(0, 1);
        // Branch A rewards the second component...
        for _ in 0..12 {
            m.update(a(0x100), a(0x900));
            m.update(a(0x100), a(0xA00));
        }
        // ...branch B is monomorphic (either component fine; selector stays
        // at its initial preference for the first).
        m.update(a(0x200), a(0xC00));
        m.update(a(0x200), a(0xC00));
        assert!(m.prefers_second(a(0x100)));
        assert!(!m.prefers_second(a(0x200)));
    }

    #[test]
    fn reset_clears_selectors() {
        let mut m = pair(0, 1);
        for _ in 0..12 {
            m.update(a(0x100), a(0x900));
            m.update(a(0x100), a(0xA00));
        }
        m.reset();
        assert!(!m.prefers_second(a(0x100)));
        assert_eq!(m.predict(a(0x100)), None);
    }

    #[test]
    fn name_mentions_both_paths() {
        let m = pair(3, 1);
        assert!(m.name().starts_with("bpst p=3.1"));
    }

    #[test]
    fn confidence_meta_state_matches_select_and_is_stateless() {
        let hit = |t: u32, c: u8| {
            Some(TableHit {
                target: a(t),
                confidence: c,
            })
        };
        let mut m = MetaState::new(MetaSpec::Confidence);
        assert_eq!(m.spec(), MetaSpec::Confidence);
        // Strictly-greater second wins, ties go first, misses never win.
        assert_eq!(
            m.replay(a(0x100), hit(0x900, 1), hit(0xA00, 2), a(0x900)),
            Some(a(0xA00))
        );
        assert_eq!(
            m.replay(a(0x100), hit(0x900, 2), hit(0xA00, 2), a(0x900)),
            Some(a(0x900))
        );
        assert_eq!(
            m.replay(a(0x100), None, hit(0xA00, 0), a(0x900)),
            Some(a(0xA00))
        );
        assert_eq!(m.replay(a(0x100), None, None, a(0x900)), None);
        // No per-branch state accrues.
        assert!(!m.prefers_second(a(0x100)));
    }

    #[test]
    fn bpst_meta_state_replay_matches_predictor() {
        // Drive the sequential BPST and a MetaState replay with the same
        // event stream; predictions must agree at every step.
        let mut seq = pair(0, 1);
        let mut first = TwoLevelPredictor::unconstrained(0, HistorySharing::GLOBAL);
        let mut second = TwoLevelPredictor::unconstrained(1, HistorySharing::GLOBAL);
        let mut meta = MetaState::new(MetaSpec::Bpst { selector_bits: 2 });
        let site = a(0x100);
        for i in 0..32u32 {
            let actual = if i % 2 == 0 { a(0x900) } else { a(0xA00) };
            let expected = seq.predict(site);
            let got = meta.arbitrate(site, first.lookup(site), second.lookup(site));
            assert_eq!(got, expected, "step {i}");
            meta.replay(site, first.lookup(site), second.lookup(site), actual);
            seq.update(site, actual);
            first.update(site, actual);
            second.update(site, actual);
        }
        assert!(meta.prefers_second(site));
    }
}
