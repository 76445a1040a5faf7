//! Property-based tests for the table substrates.

use std::collections::HashMap;

use ibp_core::table::{FullyAssocTable, LruMap, SetAssocTable, Slot, TaglessTable, UnboundedTable};
use ibp_core::UpdateRule;
use ibp_trace::Addr;
use proptest::prelude::*;

/// A reference LRU model: most-recent at the back of a Vec.
#[derive(Default)]
struct ModelLru {
    entries: Vec<(u16, u32)>,
    capacity: usize,
}

impl ModelLru {
    fn insert(&mut self, k: u16, v: u32) -> Option<(u16, u32)> {
        if let Some(pos) = self.entries.iter().position(|e| e.0 == k) {
            self.entries.remove(pos);
            self.entries.push((k, v));
            return None;
        }
        let evicted = (self.entries.len() == self.capacity).then(|| self.entries.remove(0));
        self.entries.push((k, v));
        evicted
    }

    fn promote(&mut self, k: u16) -> Option<u32> {
        let pos = self.entries.iter().position(|e| e.0 == k)?;
        let e = self.entries.remove(pos);
        self.entries.push(e);
        Some(e.1)
    }

    fn remove(&mut self, k: u16) -> Option<u32> {
        let pos = self.entries.iter().position(|e| e.0 == k)?;
        Some(self.entries.remove(pos).1)
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u16, u32),
    Promote(u16),
    Peek(u16),
    Remove(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u16..24, any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (0u16..24).prop_map(Op::Promote),
        (0u16..24).prop_map(Op::Peek),
        (0u16..24).prop_map(Op::Remove),
    ]
}

/// One operation on an unbounded table. Keys are drawn from a few hundred
/// seeds, so they repeat, and a run stores hundreds of keys, growing the
/// index from 16 buckets several times.
#[derive(Debug, Clone)]
enum FlatOp {
    Lookup(u16),
    LookupUpdate(u16, u32, bool),
}

fn flat_op_strategy() -> impl Strategy<Value = FlatOp> {
    prop_oneof![
        250 => (0u16..600).prop_map(FlatOp::Lookup),
        750 => (0u16..600, 0u32..4, any::<bool>())
            .prop_map(|(k, t, want)| FlatOp::LookupUpdate(k, t, want)),
    ]
}

/// The `width`-word key of a seed. Keys share their first word in groups
/// of eight and differ in their last, so long keys are told apart only by
/// a full comparison.
fn flat_key(seed: u16, width: usize) -> Vec<u32> {
    let seed = u32::from(seed);
    let mut key: Vec<u32> = (0..width as u32)
        .map(|i| (seed >> 3) ^ (i * 0x9E37))
        .collect();
    key[0] = seed & 7;
    key[width - 1] = seed;
    key
}

proptest! {
    /// LRU inclusion (the stack property, ROADMAP item 6): under the
    /// always-update rule, every key an N-entry fully-associative LRU
    /// table holds, a 2N-entry one holds with the same, latest target. So
    /// every correct prediction of the smaller table is correct in the
    /// larger one too, and the larger table never misses more.
    #[test]
    fn lru_inclusion_under_always_update(
        size_log2 in 0u32..6,
        stream in proptest::collection::vec((0u64..48, 0u32..4), 1..600),
    ) {
        let n = 1usize << size_log2;
        let mut small = FullyAssocTable::new(n, 2);
        let mut large = FullyAssocTable::new(2 * n, 2);
        let (mut small_misses, mut large_misses) = (0u64, 0u64);
        for (i, &(key, t)) in stream.iter().enumerate() {
            let actual = Addr::from_word(0x100 + t);
            let small_hit = small.lookup(key).map(|h| h.target) == Some(actual);
            let large_hit = large.lookup(key).map(|h| h.target) == Some(actual);
            prop_assert!(
                !small_hit || large_hit,
                "event {}: key {} predicted by {} entries but not by {}", i, key, n, 2 * n
            );
            small_misses += u64::from(!small_hit);
            large_misses += u64::from(!large_hit);
            small.update(key, actual, UpdateRule::Always);
            large.update(key, actual, UpdateRule::Always);
        }
        prop_assert!(large_misses <= small_misses);
    }

    /// The flat unbounded table agrees with a `HashMap` model on every
    /// sequence of lookups and fused lookup-updates: same hits,
    /// same occupancy, same confidence histogram.
    #[test]
    fn unbounded_table_matches_hash_map_model(
        width in prop_oneof![Just(1usize), Just(2usize), Just(19usize)],
        bits in 1u8..=7,
        ops in proptest::collection::vec(flat_op_strategy(), 1..1_500),
    ) {
        let mut table = UnboundedTable::new(width, bits);
        let mut model: HashMap<Vec<u32>, Slot> = HashMap::new();
        for op in ops {
            match op {
                FlatOp::Lookup(seed) => {
                    let key = flat_key(seed, width);
                    prop_assert_eq!(table.lookup(&key), model.get(&key).map(Slot::hit));
                }
                FlatOp::LookupUpdate(seed, t, want) => {
                    let key = flat_key(seed, width);
                    let target = Addr::from_word(0x100 + t);
                    let expect = match model.get_mut(&key) {
                        Some(slot) => {
                            let hit = want.then(|| slot.hit());
                            slot.train(target, UpdateRule::TwoBitCounter);
                            hit
                        }
                        None => {
                            model.insert(key.clone(), Slot::new(target, bits));
                            None
                        }
                    };
                    let got = table.lookup_update(&key, target, UpdateRule::TwoBitCounter, want);
                    prop_assert_eq!(got, expect);
                }
            }
            prop_assert_eq!(table.len(), model.len());
            let mut hist = vec![0u64; (1usize << bits).min(128)];
            for slot in model.values() {
                hist[usize::from(slot.hit().confidence)] += 1;
            }
            prop_assert_eq!(table.confidence_histogram(), hist);
        }
    }

    /// The hand-rolled LRU map agrees with a brute-force model on every
    /// operation sequence.
    #[test]
    fn lru_map_matches_model(
        capacity in 1usize..12,
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        let mut lru = LruMap::new(capacity);
        let mut model = ModelLru { capacity, ..ModelLru::default() };
        for op in ops {
            match op {
                Op::Insert(k, v) => prop_assert_eq!(lru.insert(k, v), model.insert(k, v)),
                Op::Promote(k) => {
                    prop_assert_eq!(lru.get_promote(&k).map(|v| *v), model.promote(k));
                }
                Op::Peek(k) => {
                    let expect = model.entries.iter().find(|e| e.0 == k).map(|e| e.1);
                    prop_assert_eq!(lru.peek(&k).copied(), expect);
                }
                Op::Remove(k) => prop_assert_eq!(lru.remove(&k), model.remove(k)),
            }
            prop_assert_eq!(lru.len(), model.entries.len());
            prop_assert!(lru.len() <= capacity);
            let order: Vec<u16> = lru.iter().map(|(&k, _)| k).collect();
            let expect: Vec<u16> = model.entries.iter().rev().map(|e| e.0).collect();
            prop_assert_eq!(order, expect);
        }
    }

    /// A set-associative table with a single set behaves exactly like the
    /// bounded fully-associative table (both are LRU over the same keys).
    #[test]
    fn single_set_equals_fully_associative(
        updates in proptest::collection::vec((0u64..64, 0u32..16), 1..300),
    ) {
        let ways = 8usize;
        let mut set_assoc = SetAssocTable::new(ways, ways, 2);
        let mut full = FullyAssocTable::new(ways, 2);
        for (key, t) in updates {
            let target = Addr::from_word(0x4000 + t);
            set_assoc.update(key, target, UpdateRule::TwoBitCounter);
            full.update(key, target, UpdateRule::TwoBitCounter);
            for probe in 0..64u64 {
                prop_assert_eq!(
                    set_assoc.lookup(probe),
                    full.lookup(probe),
                    "probe {}", probe
                );
            }
        }
    }

    /// A tagless table never reports a miss for an index that has been
    /// written, regardless of which key wrote it.
    #[test]
    fn tagless_positive_interference(
        entries_log2 in 2u32..6,
        updates in proptest::collection::vec((any::<u64>(), 0u32..64), 1..120),
    ) {
        let entries = 1usize << entries_log2;
        let mut t = TaglessTable::new(entries, 2);
        let mut written = std::collections::HashSet::new();
        for (key, tv) in updates {
            t.update(key, Addr::from_word(0x8000 + tv), UpdateRule::Always);
            written.insert(key & (entries as u64 - 1));
            for index in 0..entries as u64 {
                prop_assert_eq!(t.lookup(index).is_some(), written.contains(&index));
                // Any key aliasing the same index sees the same entry.
                let alias = index | 0xF00;
                prop_assert_eq!(
                    t.lookup(alias & !(entries as u64 - 1) | index),
                    t.lookup(index)
                );
            }
        }
        prop_assert_eq!(t.len(), written.len());
    }

    /// Table occupancy never exceeds capacity and lookups after an update
    /// with `Always` return the just-written target.
    #[test]
    fn set_assoc_always_update_visible(
        entries_log2 in 2u32..7,
        ways_log2 in 0u32..3,
        updates in proptest::collection::vec((any::<u64>(), 0u32..1024), 1..200),
    ) {
        let entries = 1usize << entries_log2;
        let ways = (1usize << ways_log2).min(entries);
        let mut t = SetAssocTable::new(entries, ways, 2);
        for (key, tv) in updates {
            let target = Addr::from_word(0x1_0000 + tv);
            t.update(key, target, UpdateRule::Always);
            prop_assert_eq!(t.lookup(key).map(|h| h.target), Some(target));
            prop_assert!(t.len() <= t.capacity());
        }
    }
}
