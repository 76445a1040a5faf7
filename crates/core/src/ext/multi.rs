//! Hybrids of three or more components (§8.1).

use ibp_trace::Addr;

use crate::predictor::Predictor;
use crate::snapshot::{Snapshot, StructuralSnapshot};
use crate::table::TableHit;
use crate::two_level::TwoLevelPredictor;

/// A hybrid predictor over any number of component predictors.
///
/// Generalises [`HybridPredictor`](crate::HybridPredictor) to N components
/// ("we plan to … combine three or more components", §8.1). Selection picks
/// the hit with the highest confidence; ties go to the earliest component in
/// construction order, so order components by descending priority.
#[derive(Debug, Clone)]
pub struct MultiHybridPredictor {
    components: Vec<TwoLevelPredictor>,
}

impl MultiHybridPredictor {
    /// Combines the given components.
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty.
    #[must_use]
    pub fn new(components: Vec<TwoLevelPredictor>) -> Self {
        assert!(!components.is_empty(), "at least one component required");
        MultiHybridPredictor { components }
    }

    /// The components, in priority order.
    #[must_use]
    pub fn components(&self) -> &[TwoLevelPredictor] {
        &self.components
    }

    /// The components, in priority order.
    pub(crate) fn components_mut(&mut self) -> &mut [TwoLevelPredictor] {
        &mut self.components
    }

    /// Looks up the arbitrated prediction.
    #[must_use]
    pub fn lookup(&self, pc: Addr) -> Option<TableHit> {
        MultiHybridPredictor::select(self.components.iter().map(|c| c.lookup(pc)))
    }

    /// The arbitration rule over the components' hits, in priority order:
    /// the highest confidence wins, earlier components winning ties. At two
    /// components it is [`HybridPredictor::select`](crate::HybridPredictor::select).
    /// Consumes every hit, so a training iterator trains every component.
    pub(crate) fn select(hits: impl Iterator<Item = Option<TableHit>>) -> Option<TableHit> {
        hits.flatten().fold(None, |best, hit| match best {
            // Strict: earlier components win ties.
            Some(b) if hit.confidence <= b.confidence => Some(b),
            _ => Some(hit),
        })
    }
}

impl Predictor for MultiHybridPredictor {
    fn predict(&self, pc: Addr) -> Option<Addr> {
        self.lookup(pc).map(|h| h.target)
    }

    fn update(&mut self, pc: Addr, actual: Addr) {
        let _ = self.step(pc, actual, false);
    }

    /// Each component computes its key once, looking up (when
    /// `want_lookup`) and training in one
    /// [`fused_step`](TwoLevelPredictor::fused_step); the components share
    /// no state, so arbitrating over their pre-training hits equals
    /// `predict` followed by training.
    fn step(&mut self, pc: Addr, actual: Addr, want_lookup: bool) -> Option<Addr> {
        let hits = self
            .components
            .iter_mut()
            .map(|c| c.fused_step(pc, actual, want_lookup));
        MultiHybridPredictor::select(hits).map(|h| h.target)
    }

    fn observe_cond(&mut self, pc: Addr, target: Addr) {
        for c in &mut self.components {
            c.observe_cond(pc, target);
        }
    }

    fn reset(&mut self) {
        for c in &mut self.components {
            c.reset();
        }
    }

    fn name(&self) -> String {
        let paths: Vec<String> = self
            .components
            .iter()
            .map(|c| c.path_len().to_string())
            .collect();
        format!("multi-hybrid p={}", paths.join("."))
    }

    fn storage_entries(&self) -> Option<usize> {
        self.components
            .iter()
            .map(Predictor::storage_entries)
            .try_fold(0usize, |acc, e| e.map(|n| acc + n))
    }

    fn snapshot(&self) -> Option<Snapshot> {
        Some(self.structural_snapshot())
    }
}

impl StructuralSnapshot for MultiHybridPredictor {
    fn structural_snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for c in &self.components {
            snap.components.extend(c.structural_snapshot().components);
        }
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

    fn unconstrained(paths: &[usize]) -> MultiHybridPredictor {
        MultiHybridPredictor::new(
            paths
                .iter()
                .map(|&p| TwoLevelPredictor::unconstrained(p, HistorySharing::GLOBAL))
                .collect(),
        )
    }

    #[test]
    fn answers_from_any_component() {
        let mut m = unconstrained(&[3, 1, 0]);
        m.update(a(0x100), a(0x900));
        // Only the p = 0 component hits after history shift.
        assert_eq!(m.predict(a(0x100)), Some(a(0x900)));
    }

    #[test]
    fn three_components_cover_mixed_periods() {
        // Alternation needs p >= 1; a BTB covers monomorphic sites
        // instantly; a p = 3 covers a longer cycle.
        let mut m = unconstrained(&[3, 1, 0]);
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
    fn storage_sums_or_none() {
        let spec = CompressedKeySpec::practical(1);
        let bounded = MultiHybridPredictor::new(vec![
            TwoLevelPredictor::set_assoc(spec, 256, 2),
            TwoLevelPredictor::set_assoc(spec, 512, 2),
            TwoLevelPredictor::set_assoc(spec, 256, 2),
        ]);
        assert_eq!(bounded.storage_entries(), Some(1024));
        let mixed = unconstrained(&[1, 2]);
        assert_eq!(mixed.storage_entries(), None);
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn empty_rejected() {
        let _ = MultiHybridPredictor::new(vec![]);
    }

    #[test]
    fn name_lists_paths() {
        assert_eq!(unconstrained(&[5, 2, 0]).name(), "multi-hybrid p=5.2.0");
    }

    #[test]
    fn reset_all() {
        let mut m = unconstrained(&[1, 0]);
        m.update(a(0x100), a(0x900));
        m.reset();
        assert_eq!(m.predict(a(0x100)), None);
    }
}
