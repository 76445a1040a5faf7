//! Set-associative history tables (§5.2).

use ibp_trace::Addr;

use crate::predictor::UpdateRule;
use crate::snapshot::{
    lru_depth_bucket, probe_counters_on, Snapshot, StructuralSnapshot, TableSnapshot,
    LRU_DEPTH_BUCKETS,
};
use crate::table::{check_power_of_two, Slot, TableHit};

#[derive(Debug, Clone)]
struct Way {
    tag: u64,
    slot: Slot,
    /// LRU stamp within the set (global monotone tick).
    stamp: u64,
}

/// A limited-associativity history table.
///
/// The low `log2(sets)` bits of the key select a set; the remaining bits
/// form the tag checked against each of the set's `ways`. Replacement
/// within a set is LRU. A table of `sets * ways` entries is compared against
/// other organisations of the same *total* entry count, as in the paper.
///
/// # Example
///
/// ```
/// use ibp_core::table::SetAssocTable;
/// use ibp_core::UpdateRule;
/// use ibp_trace::Addr;
///
/// // 1K entries, 4-way: 256 sets.
/// let mut t = SetAssocTable::new(1024, 4, 2);
/// t.update(0x2A, Addr::new(0x100), UpdateRule::TwoBitCounter);
/// assert_eq!(t.lookup(0x2A).unwrap().target, Addr::new(0x100));
/// // A key in the same set with a different tag misses.
/// assert!(t.lookup(0x2A + (1 << 8)).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocTable {
    /// `sets * ways` slots; set `s` occupies `[s*ways, (s+1)*ways)`.
    ways_store: Vec<Option<Way>>,
    sets: usize,
    ways: usize,
    index_bits: u32,
    confidence_bits: u8,
    tick: u64,
    occupied: usize,
    /// Probe-gated side counters: never read by the prediction path.
    evictions: u64,
    tag_conflicts: u64,
    depth_hist: [u64; LRU_DEPTH_BUCKETS],
}

impl SetAssocTable {
    /// The width of each entry's confidence counter, in bits.
    pub(crate) fn confidence_bits(&self) -> u8 {
        self.confidence_bits
    }

    /// Creates a table of `entries` total slots organised as
    /// `entries / ways` sets of `ways` entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `ways` is not a non-zero power of two, if
    /// `ways > entries`, or if `confidence_bits` is outside `1..=7`.
    #[must_use]
    pub fn new(entries: usize, ways: usize, confidence_bits: u8) -> Self {
        check_power_of_two(entries);
        check_power_of_two(ways);
        assert!(
            ways <= entries,
            "ways {ways} exceed total entries {entries}"
        );
        assert!((1..=7).contains(&confidence_bits));
        let sets = entries / ways;
        SetAssocTable {
            ways_store: vec![None; entries],
            sets,
            ways,
            index_bits: sets.trailing_zeros(),
            confidence_bits,
            tick: 0,
            occupied: 0,
            evictions: 0,
            tag_conflicts: 0,
            depth_hist: [0; LRU_DEPTH_BUCKETS],
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Bits of the key used as the set index.
    #[must_use]
    pub fn index_bits(&self) -> u32 {
        self.index_bits
    }

    /// Total capacity in entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    /// Occupied entries. The ratio to [`capacity`](SetAssocTable::capacity)
    /// is the paper's "table utilization" (§5.2.1).
    #[must_use]
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// Whether no entry is occupied.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    fn split(&self, key: u64) -> (usize, u64) {
        let index = (key & (self.sets as u64 - 1)) as usize;
        let tag = key >> self.index_bits;
        (index, tag)
    }

    fn set_range(&self, index: usize) -> std::ops::Range<usize> {
        let base = index * self.ways;
        base..base + self.ways
    }

    /// Looks up a key: a hit requires a tag match within the indexed set.
    #[must_use]
    pub fn lookup(&self, key: u64) -> Option<TableHit> {
        let (index, tag) = self.split(key);
        self.ways_store[self.set_range(index)]
            .iter()
            .flatten()
            .find(|w| w.tag == tag)
            .map(|w| w.slot.hit())
    }

    /// Trains the entry for `key`. On a tag miss the least-recently-used
    /// way of the set is replaced with a fresh entry (conflict/capacity
    /// eviction).
    pub fn update(&mut self, key: u64, actual: Addr, rule: UpdateRule) {
        let _ = self.lookup_update(key, actual, rule, false);
    }

    /// Fused [`lookup`](SetAssocTable::lookup) + [`update`](SetAssocTable::update)
    /// in one scan of the set: returns the pre-update hit (when
    /// `want_lookup`), then trains the entry, exactly as a `lookup`
    /// followed by an `update` with the same key would.
    pub fn lookup_update(
        &mut self,
        key: u64,
        actual: Addr,
        rule: UpdateRule,
        want_lookup: bool,
    ) -> Option<TableHit> {
        self.tick += 1;
        let tick = self.tick;
        let (index, tag) = self.split(key);
        let set = self.set_range(index);
        // One scan finds the tag, the first invalid way and the LRU way.
        let mut free = None;
        let mut lru = set.start;
        let mut oldest = u64::MAX;
        for i in set.clone() {
            match &self.ways_store[i] {
                Some(w) if w.tag == tag => {
                    if probe_counters_on() {
                        // LRU stack depth within the set = ways touched
                        // more recently than this one.
                        let depth = self.ways_store[set]
                            .iter()
                            .flatten()
                            .filter(|o| o.stamp > w.stamp)
                            .count();
                        self.depth_hist[lru_depth_bucket(depth)] += 1;
                    }
                    let w = self.ways_store[i].as_mut().expect("hit way");
                    let hit = want_lookup.then(|| w.slot.hit());
                    w.slot.train(actual, rule);
                    w.stamp = tick;
                    return hit;
                }
                Some(w) => {
                    if w.stamp < oldest {
                        oldest = w.stamp;
                        lru = i;
                    }
                }
                None => {
                    free.get_or_insert(i);
                }
            }
        }
        // Miss: fill the first invalid way, else evict the LRU way.
        let victim = match free {
            Some(i) => {
                self.occupied += 1;
                i
            }
            None => {
                if probe_counters_on() {
                    // A miss in a full set replaces a live way: one
                    // eviction, and by the paper's §5.2 taxonomy a tag
                    // conflict in this set.
                    self.evictions += 1;
                    self.tag_conflicts += 1;
                }
                lru
            }
        };
        self.ways_store[victim] = Some(Way {
            tag,
            slot: Slot::new(actual, self.confidence_bits),
            stamp: tick,
        });
        None
    }

    /// The table's structure for the probe layer.
    #[must_use]
    pub fn table_snapshot(&self) -> TableSnapshot {
        let mut confidence = vec![0u64; 1usize << self.confidence_bits];
        for w in self.ways_store.iter().flatten() {
            confidence[w.slot.hit().confidence as usize] += 1;
        }
        TableSnapshot {
            occupied: self.occupied as u64,
            capacity: Some(self.capacity() as u64),
            evictions: self.evictions,
            tag_conflicts: self.tag_conflicts,
            confidence,
            lru_depths: self.depth_hist.to_vec(),
        }
    }
}

impl StructuralSnapshot for SetAssocTable {
    fn structural_snapshot(&self) -> Snapshot {
        Snapshot::single(
            format!("{}-entry {}-way", self.capacity(), self.ways),
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
    fn geometry() {
        let t = SetAssocTable::new(1024, 4, 2);
        assert_eq!(t.sets(), 256);
        assert_eq!(t.ways(), 4);
        assert_eq!(t.index_bits(), 8);
        assert_eq!(t.capacity(), 1024);
    }

    #[test]
    fn direct_mapped_conflicts() {
        // 4 entries, 1-way: keys congruent mod 4 conflict.
        let mut t = SetAssocTable::new(4, 1, 2);
        t.update(0, a(0x100), R);
        t.update(4, a(0x200), R); // same set, different tag -> evicts
        assert_eq!(t.lookup(0), None);
        assert_eq!(t.lookup(4).unwrap().target, a(0x200));
    }

    #[test]
    fn two_way_tolerates_one_conflict() {
        let mut t = SetAssocTable::new(8, 2, 2); // 4 sets
        t.update(0, a(0x100), R);
        t.update(4, a(0x200), R); // same set, second way
        assert_eq!(t.lookup(0).unwrap().target, a(0x100));
        assert_eq!(t.lookup(4).unwrap().target, a(0x200));
        // Third key in the set evicts the LRU (key 0).
        t.update(8, a(0x300), R);
        assert_eq!(t.lookup(0), None);
        assert!(t.lookup(4).is_some());
        assert!(t.lookup(8).is_some());
    }

    #[test]
    fn update_refreshes_lru_within_set() {
        let mut t = SetAssocTable::new(8, 2, 2);
        t.update(0, a(0x100), R);
        t.update(4, a(0x200), R);
        t.update(0, a(0x100), R); // refresh key 0
        t.update(8, a(0x300), R); // should evict key 4
        assert!(t.lookup(0).is_some());
        assert_eq!(t.lookup(4), None);
    }

    #[test]
    fn tag_distinguishes_all_upper_bits() {
        let mut t = SetAssocTable::new(4, 1, 2);
        t.update(0x1000, a(0x100), R);
        // Same index (low 2 bits), different high bits: must miss.
        assert_eq!(t.lookup(0x2000), None);
    }

    #[test]
    fn utilization_counts_occupied() {
        let mut t = SetAssocTable::new(4, 2, 2);
        assert_eq!(t.len(), 0);
        t.update(0, a(0x100), R);
        t.update(1, a(0x100), R);
        assert_eq!(t.len(), 2);
        // Re-training the same key does not grow occupancy.
        t.update(0, a(0x100), R);
        assert_eq!(t.len(), 2);
        // Eviction keeps occupancy constant.
        t.update(2, a(0x100), R);
        t.update(4, a(0x100), R);
        t.update(6, a(0x100), R); // set 0 full; evicts
        assert!(t.len() <= 4);
    }

    #[test]
    fn single_set_is_fully_associative() {
        // 4 entries, 4-way: one set, pure LRU.
        let mut t = SetAssocTable::new(4, 4, 2);
        for k in 0..4u64 {
            t.update(k << 10, a(0x100), R);
        }
        t.update(5 << 10, a(0x200), R); // evicts the oldest
        assert_eq!(t.lookup(0), None);
        assert!(t.lookup(1 << 10).is_some());
    }

    #[test]
    #[should_panic(expected = "ways")]
    fn ways_exceeding_entries_rejected() {
        let _ = SetAssocTable::new(2, 4, 2);
    }
}
