//! Branch target buffers (§3.1).

use ibp_trace::Addr;

use crate::history::HistorySharing;
use crate::key::CompressedKeySpec;
use crate::predictor::{Predictor, UpdateRule};
use crate::snapshot::{Snapshot, StructuralSnapshot};
use crate::table::TableHit;
use crate::two_level::TwoLevelPredictor;

/// A branch target buffer: a table keyed by branch address only, caching
/// the branch's most recent target.
///
/// A BTB is exactly a two-level predictor with path length zero, and is
/// implemented as such; this wrapper exists because the BTB is the paper's
/// baseline (its "ideal BTB" achieves only ~75 % prediction accuracy, §1)
/// and deserves a first-class name. The paper's two variants are both
/// available:
///
/// * `BTB` — the stored target is replaced after every miss
///   ([`UpdateRule::Always`]);
/// * `BTB-2bc` — replaced only after two consecutive misses
///   ([`UpdateRule::TwoBitCounter`]), following Calder & Grunwald.
///
/// # Example
///
/// ```
/// use ibp_core::{Btb, Predictor, UpdateRule};
/// use ibp_trace::Addr;
///
/// let mut btb = Btb::unconstrained(UpdateRule::TwoBitCounter);
/// let site = Addr::new(0x1000);
/// btb.update(site, Addr::new(0x2000));
/// assert_eq!(btb.predict(site), Some(Addr::new(0x2000)));
/// ```
#[derive(Debug, Clone)]
pub struct Btb {
    inner: TwoLevelPredictor,
    rule: UpdateRule,
}

impl Btb {
    /// An unconstrained (infinite, fully-associative) BTB — the paper's §3.1
    /// idealisation.
    #[must_use]
    pub fn unconstrained(rule: UpdateRule) -> Self {
        let inner =
            TwoLevelPredictor::unconstrained(0, HistorySharing::GLOBAL).with_update_rule(rule);
        Btb { inner, rule }
    }

    /// A bounded fully-associative BTB with LRU replacement (the
    /// `btb fullassoc` column of Table A-1).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a non-zero power of two.
    #[must_use]
    pub fn full_assoc(entries: usize, rule: UpdateRule) -> Self {
        let inner = TwoLevelPredictor::full_assoc(CompressedKeySpec::practical(0), entries)
            .with_update_rule(rule);
        Btb { inner, rule }
    }

    /// A set-associative BTB.
    ///
    /// # Panics
    ///
    /// Panics if `entries`/`ways` are not non-zero powers of two or
    /// `ways > entries`.
    #[must_use]
    pub fn set_assoc(entries: usize, ways: usize, rule: UpdateRule) -> Self {
        let inner = TwoLevelPredictor::set_assoc(CompressedKeySpec::practical(0), entries, ways)
            .with_update_rule(rule);
        Btb { inner, rule }
    }

    /// The update rule in use.
    #[must_use]
    pub fn rule(&self) -> UpdateRule {
        self.rule
    }

    /// Looks up the prediction with confidence (for hybrid composition).
    #[must_use]
    pub fn lookup(&self, pc: Addr) -> Option<TableHit> {
        self.inner.lookup(pc)
    }
}

impl Predictor for Btb {
    fn predict(&self, pc: Addr) -> Option<Addr> {
        self.inner.predict(pc)
    }

    fn update(&mut self, pc: Addr, actual: Addr) {
        self.inner.update(pc, actual);
    }

    fn step(&mut self, pc: Addr, actual: Addr, want_lookup: bool) -> Option<Addr> {
        self.inner.step(pc, actual, want_lookup)
    }

    fn name(&self) -> String {
        match self.inner.storage_entries() {
            None => format!("btb ({})", self.rule),
            Some(n) => format!("btb {n}-entry ({})", self.rule),
        }
    }

    fn storage_entries(&self) -> Option<usize> {
        self.inner.storage_entries()
    }

    fn snapshot(&self) -> Option<Snapshot> {
        Some(self.inner.structural_snapshot())
    }

    fn probe_key_fingerprint(&self, pc: Addr) -> Option<u64> {
        self.inner.probe_key_fingerprint(pc)
    }
}

impl StructuralSnapshot for Btb {
    fn structural_snapshot(&self) -> Snapshot {
        self.inner.structural_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(raw: u32) -> Addr {
        Addr::new(raw)
    }

    #[test]
    fn caches_last_target() {
        let mut b = Btb::unconstrained(UpdateRule::Always);
        b.update(a(0x100), a(0x900));
        assert_eq!(b.predict(a(0x100)), Some(a(0x900)));
        b.update(a(0x100), a(0xA00));
        assert_eq!(b.predict(a(0x100)), Some(a(0xA00)));
    }

    #[test]
    fn two_bit_counter_keeps_dominant_target() {
        let mut b = Btb::unconstrained(UpdateRule::TwoBitCounter);
        b.update(a(0x100), a(0x900));
        b.update(a(0x100), a(0x900));
        // A lone excursion does not displace the dominant target.
        b.update(a(0x100), a(0xA00));
        assert_eq!(b.predict(a(0x100)), Some(a(0x900)));
    }

    #[test]
    fn history_does_not_affect_btb() {
        // Unlike a two-level predictor, other branches never change a BTB's
        // prediction for a site.
        let mut b = Btb::unconstrained(UpdateRule::TwoBitCounter);
        b.update(a(0x100), a(0x900));
        b.update(a(0x200), a(0xC00));
        b.update(a(0x300), a(0xD00));
        assert_eq!(b.predict(a(0x100)), Some(a(0x900)));
    }

    #[test]
    fn bounded_btb_evicts() {
        let mut b = Btb::full_assoc(2, UpdateRule::TwoBitCounter);
        b.update(a(0x100), a(0x900));
        b.update(a(0x200), a(0xA00));
        b.update(a(0x300), a(0xB00));
        assert_eq!(b.predict(a(0x100)), None);
        assert_eq!(b.storage_entries(), Some(2));
    }

    #[test]
    fn set_assoc_btb_conflicts() {
        // 2 entries, 1-way: word addresses congruent mod 2 conflict.
        let mut b = Btb::set_assoc(2, 1, UpdateRule::Always);
        b.update(a(0x100), a(0x900)); // word 0x40, index 0
        b.update(a(0x108), a(0xA00)); // word 0x42, index 0 -> evicts
        assert_eq!(b.predict(a(0x100)), None);
        assert_eq!(b.predict(a(0x108)), Some(a(0xA00)));
    }

    #[test]
    fn names() {
        let b = Btb::full_assoc(64, UpdateRule::TwoBitCounter);
        assert!(b.name().contains("64-entry"));
        assert_eq!(b.rule(), UpdateRule::TwoBitCounter);
    }
}
