//! The predictor interface.

use ibp_trace::Addr;

use crate::snapshot::Snapshot;

/// When a history-table entry's target address is overwritten (§3.1/§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum UpdateRule {
    /// Replace the stored target after every misprediction.
    Always,
    /// Replace only after two *consecutive* mispredictions — the paper's
    /// "two-bit counter" rule (one hysteresis bit suffices for indirect
    /// branches). The paper found this better "in virtually all cases" and
    /// uses it throughout.
    #[default]
    TwoBitCounter,
}

impl std::fmt::Display for UpdateRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            UpdateRule::Always => "always-update",
            UpdateRule::TwoBitCounter => "2bc",
        })
    }
}

/// An indirect-branch predictor.
///
/// The simulation protocol per indirect branch is: call
/// [`predict`](Predictor::predict) with the branch address, score it against
/// the actual target, then call [`update`](Predictor::update) with the
/// actual target (which trains tables *and* shifts histories). Folds run
/// both halves as one [`step`](Predictor::step). Conditional branches, when
/// a variant cares about them (§3.3), are fed through
/// [`observe_cond`](Predictor::observe_cond).
///
/// The trait is object-safe and requires `Send` (every predictor is plain
/// owned data), so boxed predictors can move across the simulation worker
/// threads; heterogeneous predictor sets (as in the experiment sweeps) are
/// handled as `Box<dyn Predictor>`.
pub trait Predictor: Send {
    /// Predicts the target of the indirect branch at `pc`, or `None` when
    /// the predictor has no prediction (a BTB/table miss). A `None` counts
    /// as a misprediction when scored.
    fn predict(&self, pc: Addr) -> Option<Addr>;

    /// Trains the predictor with the resolved target of the branch at `pc`.
    fn update(&mut self, pc: Addr, actual: Addr);

    /// One simulation step for the branch at `pc` resolving to `actual`:
    /// the prediction [`predict`](Predictor::predict) would make now (only
    /// when `want_lookup`; `None` otherwise), then the training of
    /// [`update`](Predictor::update).
    ///
    /// The default body is exactly that predict-then-update pair.
    /// Predictors whose two halves would build the same keys override it to
    /// build them once; their `update` is then `step` with
    /// `want_lookup = false`, so the override is their only training code.
    fn step(&mut self, pc: Addr, actual: Addr, want_lookup: bool) -> Option<Addr> {
        let predicted = if want_lookup { self.predict(pc) } else { None };
        self.update(pc, actual);
        predicted
    }

    /// Observes a conditional-branch execution. The default implementation
    /// ignores it; the §3.3 variation predictors shift the conditional
    /// target into their history.
    fn observe_cond(&mut self, pc: Addr, target: Addr) {
        let _ = (pc, target);
    }

    /// A short human-readable description, used in reports.
    fn name(&self) -> String;

    /// Total second-level table entries, or `None` for unbounded
    /// predictors. Hybrids report the sum over components.
    fn storage_entries(&self) -> Option<usize> {
        None
    }

    /// Estimated hardware storage in bits, or `None` for unbounded
    /// predictors — the paper's §5.2.2 cost argument: tagged organisations
    /// pay tag bits per entry, tagless ones only store targets and
    /// counters. Hybrids report the sum over components, but a BPST, whose
    /// selector table has no cost model, reports `None`.
    fn storage_bits(&self) -> Option<u64> {
        None
    }

    /// The predictor's internal structure for the probe layer, or `None`
    /// when it does not expose one. Implementations must be read-only:
    /// taking a snapshot never changes future predictions.
    fn snapshot(&self) -> Option<Snapshot> {
        None
    }

    /// A stable fingerprint of the table key the branch at `pc` would use
    /// *right now* (history included), or `None` when the predictor has no
    /// single-key lookup (hybrids). The probe layer uses this to split
    /// no-entry mispredictions into cold and capacity misses, mirroring
    /// `sim::analysis`.
    fn probe_key_fingerprint(&self, pc: Addr) -> Option<u64> {
        let _ = pc;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_rule_is_two_bit_counter() {
        assert_eq!(UpdateRule::default(), UpdateRule::TwoBitCounter);
        assert_eq!(UpdateRule::TwoBitCounter.to_string(), "2bc");
        assert_eq!(UpdateRule::Always.to_string(), "always-update");
    }
}
