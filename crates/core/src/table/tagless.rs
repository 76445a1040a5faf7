//! Tagless (direct-mapped, no-tag) history tables (§5.2).

use ibp_trace::Addr;

use crate::predictor::UpdateRule;
use crate::snapshot::{probe_counters_on, Snapshot, StructuralSnapshot, TableSnapshot};
use crate::table::{check_power_of_two, Slot, TableHit};

/// A direct-mapped table without tags.
///
/// "Where a one-way associative table will register a miss if the search
/// pattern is not in the table, a tagless table will simply return the
/// target corresponding to the index part of the pattern" (§5.2). Because
/// many patterns map to few targets, this *positive interference* lets a
/// tagless table beat tagged associative tables at long path lengths, while
/// requiring no tag storage or compare logic.
#[derive(Debug, Clone)]
pub struct TaglessTable {
    entries: Vec<Option<Slot>>,
    confidence_bits: u8,
    occupied: usize,
    /// Probe-gated shadow tags (the key that last wrote each slot), used
    /// only to count destructive aliasing; never read by prediction.
    shadow: Option<Vec<u64>>,
    tag_conflicts: u64,
}

impl TaglessTable {
    /// The width of each entry's confidence counter, in bits.
    pub(crate) fn confidence_bits(&self) -> u8 {
        self.confidence_bits
    }

    /// Creates a table with the given number of entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or not a power of two, or if
    /// `confidence_bits` is outside `1..=7`.
    #[must_use]
    pub fn new(entries: usize, confidence_bits: u8) -> Self {
        check_power_of_two(entries);
        assert!((1..=7).contains(&confidence_bits));
        TaglessTable {
            entries: vec![None; entries],
            confidence_bits,
            occupied: 0,
            shadow: None,
            tag_conflicts: 0,
        }
    }

    fn index(&self, key: u64) -> usize {
        (key & (self.entries.len() as u64 - 1)) as usize
    }

    /// Looks up a key: returns whatever target is stored at the index —
    /// there is no tag to reject an aliasing pattern. `None` only for
    /// never-written entries.
    #[must_use]
    pub fn lookup(&self, key: u64) -> Option<TableHit> {
        self.entries[self.index(key)].as_ref().map(Slot::hit)
    }

    /// Trains the entry at the key's index. Aliasing patterns train the
    /// same entry (negative *and* positive interference).
    pub fn update(&mut self, key: u64, actual: Addr, rule: UpdateRule) {
        let _ = self.lookup_update(key, actual, rule, false);
    }

    /// Fused [`lookup`](TaglessTable::lookup) + [`update`](TaglessTable::update)
    /// at one index: returns the pre-update hit (when `want_lookup`), then
    /// trains the entry, exactly as a `lookup` followed by an `update` with
    /// the same key would.
    pub fn lookup_update(
        &mut self,
        key: u64,
        actual: Addr,
        rule: UpdateRule,
        want_lookup: bool,
    ) -> Option<TableHit> {
        let i = self.index(key);
        if probe_counters_on() {
            let cap = self.entries.len();
            let shadow = self.shadow.get_or_insert_with(|| vec![u64::MAX; cap]);
            // A live slot last written by a different key: this update is
            // an aliasing write (interference, §5.2).
            if self.entries[i].is_some() && shadow[i] != key {
                self.tag_conflicts += 1;
            }
            shadow[i] = key;
        }
        match &mut self.entries[i] {
            Some(slot) => {
                let hit = want_lookup.then(|| slot.hit());
                slot.train(actual, rule);
                hit
            }
            e @ None => {
                *e = Some(Slot::new(actual, self.confidence_bits));
                self.occupied += 1;
                None
            }
        }
    }

    /// Total capacity in entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Entries written at least once.
    #[must_use]
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// Whether no entry has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// The table's structure for the probe layer. `tag_conflicts` counts
    /// aliasing writes (a live slot overwritten-or-trained by a different
    /// key than the one that last wrote it) — the paper's interference.
    #[must_use]
    pub fn table_snapshot(&self) -> TableSnapshot {
        let mut confidence = vec![0u64; 1usize << self.confidence_bits];
        for slot in self.entries.iter().flatten() {
            confidence[slot.hit().confidence as usize] += 1;
        }
        TableSnapshot {
            occupied: self.occupied as u64,
            capacity: Some(self.entries.len() as u64),
            evictions: 0,
            tag_conflicts: self.tag_conflicts,
            confidence,
            lru_depths: Vec::new(),
        }
    }
}

impl StructuralSnapshot for TaglessTable {
    fn structural_snapshot(&self) -> Snapshot {
        Snapshot::single(
            format!("{}-entry tagless", self.entries.len()),
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

    const R: UpdateRule = UpdateRule::TwoBitCounter;

    #[test]
    fn returns_aliased_entry() {
        let mut t = TaglessTable::new(4, 2);
        t.update(0, a(0x100), R);
        // Key 4 aliases to index 0: a tagged table would miss; the tagless
        // table returns the stored target.
        assert_eq!(t.lookup(4).unwrap().target, a(0x100));
    }

    #[test]
    fn aliasing_update_trains_same_slot() {
        let mut t = TaglessTable::new(4, 2);
        t.update(0, a(0x100), R);
        // Aliasing pattern disagrees twice: 2bc rule replaces on the second.
        t.update(4, a(0x200), R);
        assert_eq!(t.lookup(0).unwrap().target, a(0x100));
        t.update(4, a(0x200), R);
        assert_eq!(t.lookup(0).unwrap().target, a(0x200));
    }

    #[test]
    fn cold_entries_miss() {
        let t = TaglessTable::new(4, 2);
        assert_eq!(t.lookup(1), None);
        assert!(t.is_empty());
    }

    #[test]
    fn occupancy_counts_written_slots() {
        let mut t = TaglessTable::new(4, 2);
        t.update(0, a(0x100), R);
        t.update(1, a(0x100), R);
        t.update(4, a(0x100), R); // aliases slot 0
        assert_eq!(t.len(), 2);
        assert_eq!(t.capacity(), 4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = TaglessTable::new(6, 2);
    }
}
