//! PPM-style cascade prediction (§7, Chen et al.; §8.1).

use ibp_trace::Addr;

use crate::predictor::Predictor;
use crate::snapshot::{Snapshot, StructuralSnapshot};
use crate::table::TableHit;
use crate::two_level::TwoLevelPredictor;

/// A staged, prediction-by-partial-matching predictor.
///
/// "Since a PPM predictor predicts for the longest pattern for which a
/// prediction is available (choosing progressively shorter path lengths
/// until a prediction is found), a hybrid predictor with different path
/// length components can mimic this behavior" (§7). This type implements
/// the mimicry directly: stages are consulted longest-path first and the
/// first stage whose (tagged) table *hits* supplies the prediction,
/// regardless of confidence. This is the structural ancestor of cascaded
/// and ITTAGE-style indirect predictors.
///
/// Stages should use tagged tables (set-associative, fully-associative or
/// unbounded); a tagless stage hits on every initialised index and would
/// starve later stages.
#[derive(Debug, Clone)]
pub struct CascadePredictor {
    /// Longest path first.
    stages: Vec<TwoLevelPredictor>,
}

impl CascadePredictor {
    /// Builds a cascade from stages. They are consulted in the given order,
    /// so pass the longest path length first; construction enforces
    /// non-increasing path lengths to catch accidental mis-ordering.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty or path lengths increase along the
    /// vector.
    #[must_use]
    pub fn new(stages: Vec<TwoLevelPredictor>) -> Self {
        assert!(!stages.is_empty(), "at least one stage required");
        assert!(
            stages
                .windows(2)
                .all(|w| w[0].path_len() >= w[1].path_len()),
            "cascade stages must be ordered longest path first"
        );
        CascadePredictor { stages }
    }

    /// The stages, longest path first.
    #[must_use]
    pub fn stages(&self) -> &[TwoLevelPredictor] {
        &self.stages
    }

    /// The stages, longest path first.
    pub(crate) fn stages_mut(&mut self) -> &mut [TwoLevelPredictor] {
        &mut self.stages
    }

    /// The cascade's rule over the stages' hits, longest path first: the
    /// first hit wins. Consumes every hit, so a training iterator trains
    /// every stage.
    pub(crate) fn select(hits: impl Iterator<Item = Option<TableHit>>) -> Option<TableHit> {
        hits.fold(None, |first, hit| first.or(hit))
    }

    /// Looks up the first-hitting stage's prediction.
    #[must_use]
    pub fn lookup(&self, pc: Addr) -> Option<TableHit> {
        self.stages.iter().find_map(|s| s.lookup(pc))
    }
}

impl Predictor for CascadePredictor {
    fn predict(&self, pc: Addr) -> Option<Addr> {
        self.lookup(pc).map(|h| h.target)
    }

    fn update(&mut self, pc: Addr, actual: Addr) {
        let _ = self.step(pc, actual, false);
    }

    /// Every stage computes its key once, looking up (when `want_lookup`)
    /// and training in one [`fused_step`](TwoLevelPredictor::fused_step)
    /// — the simple "update-all" PPM policy. The first stage that hit
    /// before training supplies the prediction; the stages share no state,
    /// so this equals `predict` followed by training.
    fn step(&mut self, pc: Addr, actual: Addr, want_lookup: bool) -> Option<Addr> {
        let hits = self
            .stages
            .iter_mut()
            .map(|s| s.fused_step(pc, actual, want_lookup));
        CascadePredictor::select(hits).map(|h| h.target)
    }

    fn observe_cond(&mut self, pc: Addr, target: Addr) {
        for s in &mut self.stages {
            s.observe_cond(pc, target);
        }
    }

    fn reset(&mut self) {
        for s in &mut self.stages {
            s.reset();
        }
    }

    fn name(&self) -> String {
        let paths: Vec<String> = self
            .stages
            .iter()
            .map(|s| s.path_len().to_string())
            .collect();
        format!("cascade p={}", paths.join(">"))
    }

    fn storage_entries(&self) -> Option<usize> {
        self.stages
            .iter()
            .map(Predictor::storage_entries)
            .try_fold(0usize, |acc, e| e.map(|n| acc + n))
    }

    fn snapshot(&self) -> Option<Snapshot> {
        Some(self.structural_snapshot())
    }
}

impl StructuralSnapshot for CascadePredictor {
    fn structural_snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for s in &self.stages {
            snap.components.extend(s.structural_snapshot().components);
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

    fn unconstrained(paths: &[usize]) -> CascadePredictor {
        CascadePredictor::new(
            paths
                .iter()
                .map(|&p| TwoLevelPredictor::unconstrained(p, HistorySharing::GLOBAL))
                .collect(),
        )
    }

    #[test]
    fn longest_matching_stage_wins() {
        let mut c = unconstrained(&[2, 0]);
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
    fn falls_through_on_cold_long_stage() {
        let mut c = unconstrained(&[4, 1, 0]);
        c.update(a(0x200), a(0xB00));
        // Fresh site with never-seen history: p = 4 and p = 1 stages miss.
        c.update(a(0x300), a(0xC00));
        assert_eq!(c.predict(a(0x300)), Some(a(0xC00)));
    }

    #[test]
    #[should_panic(expected = "longest path first")]
    fn increasing_paths_rejected() {
        let _ = unconstrained(&[1, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_rejected() {
        let _ = CascadePredictor::new(vec![]);
    }

    #[test]
    fn bounded_cascade_storage() {
        let c = CascadePredictor::new(vec![
            TwoLevelPredictor::set_assoc(CompressedKeySpec::practical(6), 1024, 4),
            TwoLevelPredictor::set_assoc(CompressedKeySpec::practical(2), 512, 4),
            TwoLevelPredictor::set_assoc(CompressedKeySpec::practical(0), 512, 4),
        ]);
        assert_eq!(c.storage_entries(), Some(2048));
        assert_eq!(c.name(), "cascade p=6>2>0");
    }

    #[test]
    fn reset_all_stages() {
        let mut c = unconstrained(&[1, 0]);
        c.update(a(0x100), a(0x900));
        c.reset();
        assert_eq!(c.predict(a(0x100)), None);
    }
}
