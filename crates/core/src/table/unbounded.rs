//! The idealised, unconstrained history table (§3).

use ibp_trace::Addr;

use crate::predictor::UpdateRule;
use crate::snapshot::{Snapshot, StructuralSnapshot, TableSnapshot};
use crate::table::{Slot, TableHit};

/// Buckets in a fresh index (a power of two).
const INITIAL_BUCKETS: usize = 16;

/// An unlimited fully-associative table: every key has its own entry and
/// nothing is ever evicted.
///
/// This models the paper's §3 setting ("unconstrained, fully associative
/// tables and full 32-bit addresses") in which the intrinsic predictability
/// of indirect branches is measured before hardware constraints are
/// introduced. Keys are fixed-width runs of `u32` words, so one table
/// serves both full-precision keys (`1 + p` words: the table identifier
/// `pc >> h`, then the path newest first) and compressed `u64` keys (two
/// words).
///
/// # Layout
///
/// Entries are appended in insertion order as structure-of-arrays: entry
/// `i` owns key words `keys[i * width..(i + 1) * width]` and payload
/// `slots[i]`. They are found through an open-addressing index of
/// power-of-two size whose buckets pack a 32-bit hash tag with the entry
/// id (`tag << 32 | (id + 1)`, zero meaning empty). A probe starts at
/// bucket `tag & mask` and walks forward; only a bucket whose tag matches
/// costs a key comparison. The index grows at three-quarters load by
/// re-placing buckets by their tags alone, without reading a key.
#[derive(Debug, Clone)]
pub struct UnboundedTable {
    width: usize,
    keys: Vec<u32>,
    slots: Vec<Slot>,
    index: Vec<u64>,
    confidence_bits: u8,
}

impl UnboundedTable {
    /// Creates an empty table over `key_words`-word keys whose entries
    /// carry confidence counters of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `key_words` is zero or `confidence_bits` is outside
    /// `1..=7`.
    #[must_use]
    pub fn new(key_words: usize, confidence_bits: u8) -> Self {
        assert!(key_words > 0, "keys need at least one word");
        assert!((1..=7).contains(&confidence_bits));
        UnboundedTable {
            width: key_words,
            keys: Vec::new(),
            slots: Vec::new(),
            index: vec![0; INITIAL_BUCKETS],
            confidence_bits,
        }
    }

    /// The key width in words.
    #[must_use]
    pub(crate) fn key_words(&self) -> usize {
        self.width
    }

    /// The 32-bit hash tag of a key: a multiply-rotate fold over word
    /// pairs, then a final multiply so the low bits, which pick the home
    /// bucket, depend on every word.
    #[must_use]
    pub(crate) fn tag(key: &[u32]) -> u32 {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let mut h = 0u64;
        let mut pairs = key.chunks_exact(2);
        for pair in &mut pairs {
            let word = u64::from(pair[0]) | (u64::from(pair[1]) << 32);
            h = (h.rotate_left(5) ^ word).wrapping_mul(K);
        }
        if let [last] = pairs.remainder() {
            h = (h.rotate_left(5) ^ u64::from(*last)).wrapping_mul(K);
        }
        ((h ^ (h >> 32)).wrapping_mul(K) >> 32) as u32
    }

    fn key(&self, id: usize) -> &[u32] {
        &self.keys[id * self.width..(id + 1) * self.width]
    }

    /// The entry id holding `key`, or the empty bucket where it would go.
    fn find(&self, key: &[u32], tag: u32) -> Result<usize, usize> {
        debug_assert_eq!(key.len(), self.width, "key width");
        self.probe(tag, self.home(tag), |stored| stored == key)
    }

    /// The probe behind every lookup: walks forward from `tag`'s home
    /// bucket, whose content is `home`, to the entry whose key `matches`
    /// (its id), or to the empty bucket where that key would go. Only a
    /// bucket whose tag matches costs a key comparison.
    fn probe(&self, tag: u32, home: u64, matches: impl Fn(&[u32]) -> bool) -> Result<usize, usize> {
        let mask = self.index.len() - 1;
        let mut at = tag as usize & mask;
        let mut bucket = home;
        loop {
            if bucket == 0 {
                return Err(at);
            }
            if (bucket >> 32) as u32 == tag {
                let id = (bucket as u32 - 1) as usize;
                if matches(self.key(id)) {
                    return Ok(id);
                }
            }
            at = (at + 1) & mask;
            bucket = self.index[at];
        }
    }

    /// Appends a fresh entry for `key`, points the empty bucket `at` at it,
    /// and returns its id.
    fn insert(&mut self, at: usize, key: &[u32], tag: u32, actual: Addr) -> u32 {
        let id = u32::try_from(self.slots.len() + 1).expect("fewer than 2^32 entries");
        self.keys.extend_from_slice(key);
        self.slots.push(Slot::new(actual, self.confidence_bits));
        self.index[at] = (u64::from(tag) << 32) | u64::from(id);
        if self.slots.len() * 4 > self.index.len() * 3 {
            self.grow();
        }
        id - 1
    }

    fn grow(&mut self) {
        let mask = self.index.len() * 2 - 1;
        let mut index = vec![0u64; mask + 1];
        for &bucket in self.index.iter().filter(|&&b| b != 0) {
            let mut at = (bucket >> 32) as usize & mask;
            while index[at] != 0 {
                at = (at + 1) & mask;
            }
            index[at] = bucket;
        }
        self.index = index;
    }

    /// Looks up a key.
    #[must_use]
    pub fn lookup(&self, key: &[u32]) -> Option<TableHit> {
        self.find(key, Self::tag(key))
            .ok()
            .map(|id| self.slots[id].hit())
    }

    /// Trains the entry for `key` with the resolved target, inserting a
    /// fresh entry on first encounter.
    pub fn update(&mut self, key: &[u32], actual: Addr, rule: UpdateRule) {
        let _ = self.lookup_update(key, actual, rule, false);
    }

    /// Fused [`lookup`](UnboundedTable::lookup) + [`update`](UnboundedTable::update)
    /// through a single probe: returns the pre-update hit (when
    /// `want_lookup`), then trains the entry — exactly the result of a
    /// `lookup` followed by an `update` with the same key.
    pub fn lookup_update(
        &mut self,
        key: &[u32],
        actual: Addr,
        rule: UpdateRule,
        want_lookup: bool,
    ) -> Option<TableHit> {
        self.lookup_update_tagged(key, Self::tag(key), actual, rule, want_lookup)
    }

    /// [`lookup_update`](UnboundedTable::lookup_update) with the key's
    /// [`tag`](UnboundedTable::tag) computed ahead, as the batched chunk
    /// fold does for a whole chunk before its first probe.
    pub(crate) fn lookup_update_tagged(
        &mut self,
        key: &[u32],
        tag: u32,
        actual: Addr,
        rule: UpdateRule,
        want_lookup: bool,
    ) -> Option<TableHit> {
        match self.find(key, tag) {
            Ok(id) => {
                let slot = &mut self.slots[id];
                let hit = want_lookup.then(|| slot.hit());
                slot.train(actual, rule);
                hit
            }
            Err(at) => {
                self.insert(at, key, tag, actual);
                None
            }
        }
    }

    /// The home bucket of `tag`: the index word a probe for any key with
    /// this tag reads first. A caller with several probes to make reads
    /// all their home buckets ahead, so the loads overlap, then hands each
    /// to [`entry_from_home`](UnboundedTable::entry_from_home).
    pub(crate) fn home(&self, tag: u32) -> u64 {
        self.index[tag as usize & (self.index.len() - 1)]
    }

    /// The entry id of `key`, found from `tag`, with the entry itself when
    /// it was already stored. A key not yet stored gets a fresh entry for
    /// `actual`, and `None` in place of the entry. Ids count entries in
    /// insertion order from zero, so a caller can key deeper entries by
    /// this one's id, as a path trie keys a node by its parent's. The tag
    /// may be any function of the key, as long as the same key always
    /// comes with the same tag. `home` must be what
    /// [`home`](UnboundedTable::home) returns for `tag` since the table
    /// last gained an entry.
    pub(crate) fn entry_from_home<const N: usize>(
        &mut self,
        key: [u32; N],
        tag: u32,
        home: u64,
        actual: Addr,
    ) -> (u32, Option<&mut Slot>) {
        debug_assert_eq!(N, self.width, "key width");
        debug_assert_eq!(
            home,
            self.home(tag),
            "home bucket read since the table changed"
        );
        // A fixed-width comparison, unrolled, where `find` compares slices
        // of run-time width.
        let matches = |stored: &[u32]| stored.iter().zip(&key).all(|(a, b)| a == b);
        match self.probe(tag, home, matches) {
            Ok(id) => (id as u32, Some(&mut self.slots[id])),
            Err(at) => (self.insert(at, &key, tag, actual), None),
        }
    }

    /// Number of distinct patterns stored so far. This is the quantity the
    /// paper reports when discussing pattern-set growth with path length
    /// (§5.1, e.g. *ixx*'s 203 → 9403 patterns from `p = 0` to `p = 12`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no patterns have been stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Removes all entries, keeping the allocations.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.slots.clear();
        self.index.fill(0);
    }

    /// Histogram of stored confidence-counter values, indexed by value.
    #[must_use]
    pub fn confidence_histogram(&self) -> Vec<u64> {
        let mut hist = vec![0u64; (1usize << self.confidence_bits.min(7)).min(128)];
        for slot in &self.slots {
            hist[slot.hit().confidence as usize] += 1;
        }
        hist
    }

    /// The table's structure for the probe layer. Nothing is ever evicted
    /// here, so only occupancy and confidence are meaningful.
    #[must_use]
    pub fn table_snapshot(&self) -> TableSnapshot {
        TableSnapshot {
            occupied: self.slots.len() as u64,
            capacity: None,
            evictions: 0,
            tag_conflicts: 0,
            confidence: self.confidence_histogram(),
            lru_depths: Vec::new(),
        }
    }
}

impl StructuralSnapshot for UnboundedTable {
    fn structural_snapshot(&self) -> Snapshot {
        Snapshot::single("unbounded", self.table_snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(raw: u32) -> Addr {
        Addr::new(raw)
    }

    #[test]
    fn miss_then_learn() {
        let mut t = UnboundedTable::new(2, 2);
        assert_eq!(t.lookup(&[1, 0]), None);
        t.update(&[1, 0], a(0x100), UpdateRule::TwoBitCounter);
        assert_eq!(t.lookup(&[1, 0]).unwrap().target, a(0x100));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_keys_distinct_entries() {
        let mut t = UnboundedTable::new(2, 2);
        t.update(&[1, 0], a(0x100), UpdateRule::TwoBitCounter);
        t.update(&[2, 0], a(0x200), UpdateRule::TwoBitCounter);
        assert_eq!(t.lookup(&[1, 0]).unwrap().target, a(0x100));
        assert_eq!(t.lookup(&[2, 0]).unwrap().target, a(0x200));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn two_bit_counter_rule_applies() {
        let mut t = UnboundedTable::new(1, 2);
        t.update(&[1], a(0x100), UpdateRule::TwoBitCounter);
        t.update(&[1], a(0x200), UpdateRule::TwoBitCounter);
        // One miss: target retained.
        assert_eq!(t.lookup(&[1]).unwrap().target, a(0x100));
        t.update(&[1], a(0x200), UpdateRule::TwoBitCounter);
        assert_eq!(t.lookup(&[1]).unwrap().target, a(0x200));
    }

    #[test]
    fn clear_empties() {
        let mut t = UnboundedTable::new(1, 2);
        t.update(&[1], a(0x100), UpdateRule::Always);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.lookup(&[1]), None);
    }

    #[test]
    fn entries_survive_index_growth() {
        let mut t = UnboundedTable::new(3, 2);
        for i in 0..1_000u32 {
            t.update(&[i, i ^ 0xFFFF, 7], Addr::from_word(i), UpdateRule::Always);
        }
        assert_eq!(t.len(), 1_000);
        assert!(t.index.len() >= 1_000 * 4 / 3);
        for i in 0..1_000u32 {
            assert_eq!(
                t.lookup(&[i, i ^ 0xFFFF, 7]).unwrap().target,
                Addr::from_word(i)
            );
        }
        assert_eq!(t.lookup(&[1_000, 1_000 ^ 0xFFFF, 7]), None);
    }
}
