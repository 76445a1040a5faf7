//! Chang, Hao & Patt's Target Cache (§7 related work).
//!
//! The paper compares its path-based design against the "Pattern History
//! Tagless Target Cache" of [CHP97]: a gshare-style predictor that xors a
//! global k-bit **taken/not-taken history of conditional branches** with
//! the indirect branch's address and indexes a tagless target table. The
//! key difference from this paper's predictors is the history *content*:
//! direction bits of conditional branches instead of indirect-branch
//! target addresses.
//!
//! Reproducing it lets the `related_work` experiment restage the paper's
//! §7 comparison: "a comparable non-hybrid predictor (p=3, tagless
//! 512-entry) reaches a misprediction ratio of 31.5 % for gcc" versus the
//! Target Cache's 30.9 %.

use ibp_trace::Addr;

use crate::predictor::{Predictor, UpdateRule};
use crate::snapshot::{ComponentSnapshot, Snapshot, StructuralSnapshot};
use crate::table::TaglessTable;

/// A gshare(k) tagless target cache driven by conditional-branch history.
///
/// # Example
///
/// ```
/// use ibp_core::ext::TargetCache;
/// use ibp_core::Predictor;
/// use ibp_trace::Addr;
///
/// // The paper's §7 configuration: gshare(9), 512-entry tagless table.
/// let mut tc = TargetCache::new(9, 512);
/// // Conditional outcomes steer the history...
/// tc.observe_cond(Addr::new(0x100), Addr::new(0x200)); // taken
/// // ...and indirect branches are predicted from (pc ⊕ history).
/// tc.update(Addr::new(0x1000), Addr::new(0x9000));
/// assert_eq!(tc.predict(Addr::new(0x1000)), Some(Addr::new(0x9000)));
/// ```
#[derive(Debug, Clone)]
pub struct TargetCache {
    /// Global taken/not-taken shift register (low `history_bits` bits).
    cond_history: u32,
    history_bits: u32,
    table: TaglessTable,
    rule: UpdateRule,
}

impl TargetCache {
    /// Creates a gshare(`history_bits`) target cache with a tagless table
    /// of `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `history_bits > 30` or `entries` is not a non-zero power
    /// of two.
    #[must_use]
    pub fn new(history_bits: u32, entries: usize) -> Self {
        assert!(history_bits <= 30, "history {history_bits} bits exceeds 30");
        TargetCache {
            cond_history: 0,
            history_bits,
            table: TaglessTable::new(entries, 2),
            rule: UpdateRule::TwoBitCounter,
        }
    }

    /// The current direction-history register value.
    #[must_use]
    pub fn cond_history(&self) -> u32 {
        self.cond_history
    }

    fn key(&self, pc: Addr) -> u64 {
        u64::from(pc.word() ^ self.cond_history)
    }

    fn mask(&self) -> u32 {
        if self.history_bits == 0 {
            0
        } else {
            (1u32 << self.history_bits) - 1
        }
    }
}

impl Predictor for TargetCache {
    fn predict(&self, pc: Addr) -> Option<Addr> {
        self.table.lookup(self.key(pc)).map(|h| h.target)
    }

    fn update(&mut self, pc: Addr, actual: Addr) {
        self.table.update(self.key(pc), actual, self.rule);
    }

    fn observe_cond(&mut self, pc: Addr, target: Addr) {
        // The simulation protocol delivers the *outcome* address; the
        // branch was taken iff control did not fall through.
        let taken = target != pc.offset_words(1);
        self.cond_history = ((self.cond_history << 1) | u32::from(taken)) & self.mask();
    }

    fn name(&self) -> String {
        format!(
            "target cache gshare({}) {}-entry tagless",
            self.history_bits,
            self.table.capacity()
        )
    }

    fn storage_entries(&self) -> Option<usize> {
        Some(self.table.capacity())
    }

    fn storage_bits(&self) -> Option<u64> {
        // Tagless entries: 30-bit target + hysteresis + 2-bit confidence.
        Some(self.table.capacity() as u64 * 33)
    }

    fn snapshot(&self) -> Option<Snapshot> {
        Some(self.structural_snapshot())
    }

    fn probe_key_fingerprint(&self, pc: Addr) -> Option<u64> {
        Some(self.key(pc))
    }
}

impl StructuralSnapshot for TargetCache {
    fn structural_snapshot(&self) -> Snapshot {
        Snapshot {
            components: vec![ComponentSnapshot {
                label: format!(
                    "gshare({}) {}-entry tagless",
                    self.history_bits,
                    self.table.capacity()
                ),
                table: self.table.table_snapshot(),
                history: None,
            }],
            selectors: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(raw: u32) -> Addr {
        Addr::new(raw)
    }

    /// Feeds a conditional outcome with an explicit direction.
    fn cond(tc: &mut TargetCache, pc: u32, taken: bool) {
        let pc = a(pc);
        let outcome = if taken { a(0x5000) } else { pc.offset_words(1) };
        tc.observe_cond(pc, outcome);
    }

    #[test]
    fn direction_history_shifts() {
        let mut tc = TargetCache::new(4, 64);
        cond(&mut tc, 0x100, true);
        cond(&mut tc, 0x104, false);
        cond(&mut tc, 0x108, true);
        assert_eq!(tc.cond_history(), 0b101);
        // Saturates at the configured width.
        for _ in 0..10 {
            cond(&mut tc, 0x10C, true);
        }
        assert_eq!(tc.cond_history(), 0b1111);
    }

    #[test]
    fn disambiguates_by_direction_history() {
        // One indirect branch whose target correlates with the preceding
        // conditional's direction.
        let mut tc = TargetCache::new(4, 256);
        let site = a(0x1000);
        for _ in 0..8 {
            cond(&mut tc, 0x100, true);
            tc.update(site, a(0x9000));
            cond(&mut tc, 0x100, false);
            tc.update(site, a(0xA000));
        }
        cond(&mut tc, 0x100, true);
        assert_eq!(tc.predict(site), Some(a(0x9000)));
        cond(&mut tc, 0x100, false);
        // History 0b...10 now; trained with 0xA000.
        assert_eq!(tc.predict(site), Some(a(0xA000)));
    }

    #[test]
    fn zero_history_is_a_tagless_btb() {
        let mut tc = TargetCache::new(0, 64);
        cond(&mut tc, 0x100, true); // ignored at width 0
        assert_eq!(tc.cond_history(), 0);
        tc.update(a(0x1000), a(0x9000));
        assert_eq!(tc.predict(a(0x1000)), Some(a(0x9000)));
    }

    #[test]
    fn reporting() {
        let mut tc = TargetCache::new(9, 512);
        tc.update(a(0x1000), a(0x9000));
        assert_eq!(tc.storage_entries(), Some(512));
        assert_eq!(tc.storage_bits(), Some(512 * 33));
        assert!(tc.name().contains("gshare(9)"));
    }

    #[test]
    #[should_panic(expected = "exceeds 30")]
    fn oversized_history_rejected() {
        let _ = TargetCache::new(31, 64);
    }
}
