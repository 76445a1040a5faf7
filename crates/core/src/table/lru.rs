//! A bounded map with least-recently-used eviction.
//!
//! Implemented from scratch (no external crates): a slab of doubly-linked
//! nodes threaded through a `HashMap` index, hashed by the crate's fixed
//! word hasher rather than SipHash (a miss hashes its key up to four
//! times). All operations are O(1) expected time. Used by [`FullyAssocTable`](crate::table::FullyAssocTable)
//! to model the paper's fully-associative LRU history tables (§5.1).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash};

use crate::hash::WordHasher;

use crate::snapshot::{Snapshot, StructuralSnapshot, TableSnapshot};

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node<K, V> {
    key: K,
    /// `None` only for freed slots awaiting reuse.
    value: Option<V>,
    prev: usize,
    next: usize,
}

/// A fixed-capacity hash map that evicts the least-recently-used entry on
/// overflow.
///
/// Recency order is explicit: [`insert`](LruMap::insert) and
/// [`get_promote`](LruMap::get_promote) mark an entry most-recently-used;
/// [`peek`](LruMap::peek) does not.
///
/// # Example
///
/// ```
/// use ibp_core::table::LruMap;
///
/// let mut m = LruMap::new(2);
/// m.insert("a", 1);
/// m.insert("b", 2);
/// m.get_promote(&"a");        // "a" is now most recent
/// let evicted = m.insert("c", 3);
/// assert_eq!(evicted, Some(("b", 2))); // "b" was least recent
/// ```
#[derive(Debug, Clone)]
pub struct LruMap<K, V> {
    index: HashMap<K, usize, BuildHasherDefault<WordHasher>>,
    nodes: Vec<Node<K, V>>,
    free: Vec<usize>,
    /// Most recently used.
    head: usize,
    /// Least recently used.
    tail: usize,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V> LruMap<K, V> {
    /// Creates a map that holds at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "lru capacity must be non-zero");
        LruMap {
            index: HashMap::with_capacity_and_hasher(capacity.min(1 << 20), Default::default()),
            nodes: Vec::with_capacity(capacity.min(1 << 20)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// The maximum number of entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The current number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the map is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether `key` is present (does not affect recency).
    #[must_use]
    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// Reads a value without changing recency order.
    #[must_use]
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.index
            .get(key)
            .map(|&i| self.nodes[i].value.as_ref().expect("live node"))
    }

    /// Reads a value mutably and marks the entry most-recently-used.
    pub fn get_promote(&mut self, key: &K) -> Option<&mut V> {
        let &i = self.index.get(key)?;
        self.unlink(i);
        self.link_front(i);
        Some(self.nodes[i].value.as_mut().expect("live node"))
    }

    /// Inserts or replaces a value, marking it most-recently-used.
    ///
    /// Returns the entry evicted to make room, if any. Replacing an
    /// existing key never evicts.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&i) = self.index.get(&key) {
            self.nodes[i].value = Some(value);
            self.unlink(i);
            self.link_front(i);
            return None;
        }
        let (slot, out) = if self.index.len() == self.capacity {
            // Evict the LRU entry and reuse its slot for the new one.
            let tail = self.tail;
            debug_assert_ne!(tail, NIL);
            self.unlink(tail);
            let node = &mut self.nodes[tail];
            let old_key = std::mem::replace(&mut node.key, key.clone());
            let old_value = node.value.replace(value).expect("live node");
            self.index.remove(&old_key);
            (tail, Some((old_key, old_value)))
        } else {
            let slot_idx = if let Some(i) = self.free.pop() {
                self.nodes[i] = Node {
                    key: key.clone(),
                    value: Some(value),
                    prev: NIL,
                    next: NIL,
                };
                i
            } else {
                self.nodes.push(Node {
                    key: key.clone(),
                    value: Some(value),
                    prev: NIL,
                    next: NIL,
                });
                self.nodes.len() - 1
            };
            (slot_idx, None)
        };

        self.index.insert(key, slot);
        self.link_front(slot);
        out
    }

    /// Removes an entry, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.index.remove(key)?;
        self.unlink(i);
        self.free.push(i);
        Some(self.nodes[i].value.take().expect("live node"))
    }

    /// The least-recently-used key, if any.
    #[must_use]
    pub fn lru_key(&self) -> Option<&K> {
        if self.tail == NIL {
            None
        } else {
            Some(&self.nodes[self.tail].key)
        }
    }

    /// The most-recently-used key, if any.
    #[must_use]
    pub fn mru_key(&self) -> Option<&K> {
        if self.head == NIL {
            None
        } else {
            Some(&self.nodes[self.head].key)
        }
    }

    /// Iterates over entries from most to least recently used.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter {
            map: self,
            cursor: self.head,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else if self.head == i {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else if self.tail == i {
            self.tail = prev;
        }
        self.nodes[i].prev = NIL;
        self.nodes[i].next = NIL;
    }

    fn link_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }
}

/// Iterator over an [`LruMap`] from most to least recently used, produced by
/// [`LruMap::iter`].
#[derive(Debug)]
pub struct Iter<'a, K, V> {
    map: &'a LruMap<K, V>,
    cursor: usize,
}

impl<'a, K: Hash + Eq + Clone, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor == NIL {
            return None;
        }
        let node = &self.map.nodes[self.cursor];
        self.cursor = node.next;
        Some((&node.key, node.value.as_ref().expect("live node")))
    }
}

impl<K: Hash + Eq + Clone, V> StructuralSnapshot for LruMap<K, V> {
    fn structural_snapshot(&self) -> Snapshot {
        Snapshot::single(
            format!("{}-entry lru", self.capacity),
            TableSnapshot {
                occupied: self.len() as u64,
                capacity: Some(self.capacity as u64),
                ..TableSnapshot::default()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_peek() {
        let mut m = LruMap::new(4);
        assert!(m.is_empty());
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.len(), 2);
        assert_eq!(m.peek(&1), Some(&"a"));
        assert_eq!(m.peek(&3), None);
        assert!(m.contains(&2));
    }

    #[test]
    fn evicts_least_recent() {
        let mut m = LruMap::new(2);
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.insert(3, "c"), Some((1, "a")));
        assert_eq!(m.len(), 2);
        assert!(!m.contains(&1));
    }

    #[test]
    fn promote_changes_victim() {
        let mut m = LruMap::new(2);
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.get_promote(&1), Some(&mut "a"));
        assert_eq!(m.insert(3, "c"), Some((2, "b")));
        assert!(m.contains(&1));
    }

    #[test]
    fn reinsert_updates_without_evicting() {
        let mut m = LruMap::new(2);
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.insert(1, "a2"), None);
        assert_eq!(m.peek(&1), Some(&"a2"));
        // 2 is now LRU.
        assert_eq!(m.insert(3, "c").map(|(k, _)| k), Some(2));
    }

    #[test]
    fn peek_does_not_promote() {
        let mut m = LruMap::new(2);
        m.insert(1, "a");
        m.insert(2, "b");
        let _ = m.peek(&1);
        assert_eq!(m.insert(3, "c").map(|(k, _)| k), Some(1));
    }

    #[test]
    fn capacity_one() {
        let mut m = LruMap::new(1);
        m.insert(1, "a");
        assert_eq!(m.insert(2, "b"), Some((1, "a")));
        assert_eq!(m.len(), 1);
        assert_eq!(m.lru_key(), Some(&2));
        assert_eq!(m.mru_key(), Some(&2));
    }

    #[test]
    fn iter_is_mru_to_lru() {
        let mut m = LruMap::new(3);
        m.insert(1, ());
        m.insert(2, ());
        m.insert(3, ());
        m.get_promote(&1);
        let order: Vec<i32> = m.iter().map(|(&k, _)| k).collect();
        assert_eq!(order, vec![1, 3, 2]);
    }

    #[test]
    fn remove_middle_and_ends() {
        let mut m = LruMap::new(4);
        for k in 1..=4 {
            m.insert(k, k * 10);
        }
        assert_eq!(m.remove(&3), Some(30));
        assert_eq!(m.remove(&3), None);
        assert_eq!(m.len(), 3);
        assert_eq!(m.remove(&1), Some(10)); // LRU end
        assert_eq!(m.remove(&4), Some(40)); // MRU end
        let order: Vec<i32> = m.iter().map(|(&k, _)| k).collect();
        assert_eq!(order, vec![2]);
        // Map still usable after removals.
        m.insert(9, 90);
        assert_eq!(m.peek(&9), Some(&90));
    }

    #[test]
    #[should_panic(expected = "lru capacity")]
    fn zero_capacity_rejected() {
        let _: LruMap<u32, ()> = LruMap::new(0);
    }

    // Model-based test: compare against a straightforward Vec model.
    #[test]
    fn matches_reference_model_on_random_ops() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        #[derive(Default)]
        struct Model {
            // Most recent at the back.
            entries: Vec<(u8, u32)>,
            capacity: usize,
        }
        impl Model {
            fn insert(&mut self, k: u8, v: u32) -> Option<(u8, u32)> {
                if let Some(pos) = self.entries.iter().position(|e| e.0 == k) {
                    self.entries.remove(pos);
                    self.entries.push((k, v));
                    return None;
                }
                let evicted = if self.entries.len() == self.capacity {
                    Some(self.entries.remove(0))
                } else {
                    None
                };
                self.entries.push((k, v));
                evicted
            }
            fn promote(&mut self, k: u8) -> Option<u32> {
                let pos = self.entries.iter().position(|e| e.0 == k)?;
                let e = self.entries.remove(pos);
                self.entries.push(e);
                Some(e.1)
            }
            fn remove(&mut self, k: u8) -> Option<u32> {
                let pos = self.entries.iter().position(|e| e.0 == k)?;
                Some(self.entries.remove(pos).1)
            }
        }

        let mut rng = SmallRng::seed_from_u64(42);
        for cap in [1usize, 2, 3, 8] {
            let mut lru = LruMap::new(cap);
            let mut model = Model {
                capacity: cap,
                ..Model::default()
            };
            for step in 0..2000u32 {
                let k: u8 = rng.gen_range(0..12);
                match rng.gen_range(0..4) {
                    0 | 1 => {
                        assert_eq!(lru.insert(k, step), model.insert(k, step), "cap={cap}");
                    }
                    2 => {
                        assert_eq!(
                            lru.get_promote(&k).map(|v| *v),
                            model.promote(k),
                            "cap={cap}"
                        );
                    }
                    _ => {
                        assert_eq!(lru.remove(&k), model.remove(k), "cap={cap}");
                    }
                }
                assert_eq!(lru.len(), model.entries.len());
                let order: Vec<u8> = lru.iter().map(|(&k, _)| k).collect();
                let expect: Vec<u8> = model.entries.iter().rev().map(|e| e.0).collect();
                assert_eq!(order, expect, "cap={cap}");
            }
        }
    }
}
