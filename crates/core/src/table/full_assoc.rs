//! Bounded fully-associative tables with LRU replacement (§5.1).

use ibp_trace::Addr;

use crate::predictor::UpdateRule;
use crate::snapshot::{
    lru_depth_bucket, probe_counters_on, Snapshot, StructuralSnapshot, TableSnapshot,
    LRU_DEPTH_BUCKETS,
};
use crate::table::{check_power_of_two, LruMap, Slot, TableHit};

/// Probe-mode sampling stride for LRU stack-depth measurement: every
/// `LRU_DEPTH_SAMPLE`-th update walks the recency list (capped) to find the
/// touched entry's depth. Sampling keeps the probed run's overhead bounded
/// on large tables.
const LRU_DEPTH_SAMPLE: u64 = 64;

/// Cap on the recency-list walk; deeper hits land in the last bucket.
const LRU_DEPTH_WALK: usize = 64;

/// A fully-associative history table of limited size with LRU replacement.
///
/// This is the paper's §5.1 organisation, used to isolate *capacity misses*
/// from the conflict misses that limited associativity adds later. Keys are
/// the compressed `u64` patterns produced by
/// [`CompressedKeySpec`](crate::CompressedKeySpec).
///
/// Recency is advanced on [`update`](FullyAssocTable::update) — each
/// executed branch touches its entry exactly once per execution, so this is
/// equivalent to promoting on access.
#[derive(Debug, Clone)]
pub struct FullyAssocTable {
    entries: LruMap<u64, Slot>,
    confidence_bits: u8,
    /// Probe-gated side counters: never read by the prediction path.
    evictions: u64,
    depth_hist: [u64; LRU_DEPTH_BUCKETS],
    probe_tick: u64,
}

impl FullyAssocTable {
    /// The width of each entry's confidence counter, in bits.
    pub(crate) fn confidence_bits(&self) -> u8 {
        self.confidence_bits
    }

    /// Creates a table with the given number of entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or not a power of two (the paper only
    /// evaluates power-of-two sizes, and this keeps size accounting
    /// comparable across organisations), or if `confidence_bits` is outside
    /// `1..=7`.
    #[must_use]
    pub fn new(entries: usize, confidence_bits: u8) -> Self {
        check_power_of_two(entries);
        assert!((1..=7).contains(&confidence_bits));
        FullyAssocTable {
            entries: LruMap::new(entries),
            confidence_bits,
            evictions: 0,
            depth_hist: [0; LRU_DEPTH_BUCKETS],
            probe_tick: 0,
        }
    }

    /// Looks up a key (does not change recency).
    #[must_use]
    pub fn lookup(&self, key: u64) -> Option<TableHit> {
        self.entries.peek(&key).map(Slot::hit)
    }

    /// Trains the entry for `key`, inserting (and possibly evicting the
    /// least-recently-used entry) on a tag miss.
    pub fn update(&mut self, key: u64, actual: Addr, rule: UpdateRule) {
        let _ = self.lookup_update(key, actual, rule, false);
    }

    /// Fused [`lookup`](FullyAssocTable::lookup) + [`update`](FullyAssocTable::update)
    /// in one probe of the index: returns the pre-update hit (when
    /// `want_lookup`), then trains the entry, exactly as a `lookup`
    /// followed by an `update` with the same key would.
    pub fn lookup_update(
        &mut self,
        key: u64,
        actual: Addr,
        rule: UpdateRule,
        want_lookup: bool,
    ) -> Option<TableHit> {
        let probing = probe_counters_on();
        if probing {
            self.probe_tick += 1;
            if self.probe_tick.is_multiple_of(LRU_DEPTH_SAMPLE) {
                if let Some(depth) = self
                    .entries
                    .iter()
                    .take(LRU_DEPTH_WALK)
                    .position(|(k, _)| *k == key)
                {
                    self.depth_hist[lru_depth_bucket(depth)] += 1;
                } else if self.entries.contains(&key) {
                    self.depth_hist[LRU_DEPTH_BUCKETS - 1] += 1;
                }
            }
        }
        if let Some(slot) = self.entries.get_promote(&key) {
            let hit = want_lookup.then(|| slot.hit());
            slot.train(actual, rule);
            hit
        } else {
            let evicted = self
                .entries
                .insert(key, Slot::new(actual, self.confidence_bits));
            if probing && evicted.is_some() {
                self.evictions += 1;
            }
            None
        }
    }

    /// Total capacity in entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Occupied entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The table's structure for the probe layer.
    #[must_use]
    pub fn table_snapshot(&self) -> TableSnapshot {
        let mut confidence = vec![0u64; 1usize << self.confidence_bits];
        for (_, slot) in self.entries.iter() {
            confidence[slot.hit().confidence as usize] += 1;
        }
        TableSnapshot {
            occupied: self.entries.len() as u64,
            capacity: Some(self.entries.capacity() as u64),
            evictions: self.evictions,
            tag_conflicts: 0,
            confidence,
            lru_depths: self.depth_hist.to_vec(),
        }
    }
}

impl StructuralSnapshot for FullyAssocTable {
    fn structural_snapshot(&self) -> Snapshot {
        Snapshot::single(
            format!("{}-entry full-assoc", self.entries.capacity()),
            self.table_snapshot(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(raw: u32) -> Addr {
        Addr::new(raw)
    }

    #[test]
    fn capacity_evicts_lru() {
        let mut t = FullyAssocTable::new(2, 2);
        t.update(1, a(0x100), UpdateRule::TwoBitCounter);
        t.update(2, a(0x200), UpdateRule::TwoBitCounter);
        t.update(3, a(0x300), UpdateRule::TwoBitCounter);
        // Key 1 was least recently used.
        assert_eq!(t.lookup(1), None);
        assert_eq!(t.lookup(2).unwrap().target, a(0x200));
        assert_eq!(t.lookup(3).unwrap().target, a(0x300));
        assert_eq!(t.len(), 2);
        assert_eq!(t.capacity(), 2);
    }

    #[test]
    fn update_promotes_recency() {
        let mut t = FullyAssocTable::new(2, 2);
        t.update(1, a(0x100), UpdateRule::TwoBitCounter);
        t.update(2, a(0x200), UpdateRule::TwoBitCounter);
        t.update(1, a(0x100), UpdateRule::TwoBitCounter); // promote 1
        t.update(3, a(0x300), UpdateRule::TwoBitCounter);
        assert!(t.lookup(1).is_some());
        assert_eq!(t.lookup(2), None);
    }

    #[test]
    fn lookup_does_not_promote() {
        let mut t = FullyAssocTable::new(2, 2);
        t.update(1, a(0x100), UpdateRule::TwoBitCounter);
        t.update(2, a(0x200), UpdateRule::TwoBitCounter);
        let _ = t.lookup(1);
        t.update(3, a(0x300), UpdateRule::TwoBitCounter);
        // 1 evicted despite the lookup.
        assert_eq!(t.lookup(1), None);
    }

    #[test]
    fn evicted_then_reinserted_entry_is_cold() {
        let mut t = FullyAssocTable::new(1, 2);
        t.update(1, a(0x100), UpdateRule::TwoBitCounter);
        t.update(1, a(0x100), UpdateRule::TwoBitCounter);
        assert!(t.lookup(1).unwrap().confidence > 0);
        t.update(2, a(0x200), UpdateRule::TwoBitCounter); // evicts 1
        t.update(1, a(0x100), UpdateRule::TwoBitCounter); // reinsert
                                                          // Confidence reset to zero on replacement, per §6.1.
        assert_eq!(t.lookup(1).unwrap().confidence, 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = FullyAssocTable::new(3, 2);
    }
}
