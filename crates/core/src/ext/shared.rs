//! Shared-table hybrid with "chosen" counters (§8.1).

use ibp_trace::Addr;

use crate::counter::SaturatingCounter;
use crate::history::{Histories, HistoryElement, HistorySharing};
use crate::key::CompressedKeySpec;
use crate::predictor::{Predictor, UpdateRule};
use crate::snapshot::{
    probe_counters_on, ComponentSnapshot, Snapshot, StructuralSnapshot, TableSnapshot,
};
use crate::streams::KeyRecipe;
use crate::table::{check_power_of_two, Slot};

#[derive(Debug, Clone)]
struct SharedWay {
    tag: u64,
    /// Which component inserted the entry (diagnostics only — any component
    /// may later match it if keys collide).
    owner: u8,
    slot: Slot,
    stamp: u64,
    /// §8.1's "chosen" counter: how often the hybrid actually used this
    /// entry's prediction lately. Consulted at replacement so that
    /// seldom-used entries are recuperated first.
    chosen: SaturatingCounter,
}

/// A hybrid predictor whose components share one physical table (§8.1).
///
/// "Furthermore, the different components can use one shared table. Entries
/// can be augmented with a 'chosen' counter, which keeps track of the number
/// of times an entry's prediction is used by the hybrid predictor. This
/// counter is consulted when updating table entries, so that seldom used
/// entries can be recuperated by a different component, for better use of
/// available hardware."
///
/// Each component contributes a key built from its own
/// [`CompressedKeySpec`] over a common global history; all keys probe the
/// same set-associative array. Selection among component hits is by entry
/// confidence (ties to the earlier component). The replacement victim
/// within a set is the entry with the lowest `(chosen, recency)` — a cold,
/// never-chosen entry is recuperated before a hot one regardless of age.
#[derive(Debug, Clone)]
pub struct SharedTableHybrid {
    specs: Vec<CompressedKeySpec>,
    histories: Histories,
    ways_store: Vec<Option<SharedWay>>,
    sets: usize,
    ways: usize,
    rule: UpdateRule,
    confidence_bits: u8,
    tick: u64,
    /// Probe-gated side counter: never read by the prediction path.
    evictions: u64,
}

impl SharedTableHybrid {
    /// The most components one hybrid may have: their keys are built on the
    /// stack, once per event.
    pub const MAX_COMPONENTS: usize = 8;

    /// Creates a shared-table hybrid over `entries` total slots of
    /// associativity `ways`, with one component per key spec (pass specs in
    /// descending priority).
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty or longer than
    /// [`MAX_COMPONENTS`](SharedTableHybrid::MAX_COMPONENTS), or
    /// `entries`/`ways` are not non-zero powers of two, or `ways > entries`.
    #[must_use]
    pub fn new(specs: Vec<CompressedKeySpec>, entries: usize, ways: usize) -> Self {
        assert!(!specs.is_empty(), "at least one component spec required");
        assert!(
            specs.len() <= SharedTableHybrid::MAX_COMPONENTS,
            "{} component specs exceed {}",
            specs.len(),
            SharedTableHybrid::MAX_COMPONENTS
        );
        check_power_of_two(entries);
        check_power_of_two(ways);
        assert!(
            ways <= entries,
            "ways {ways} exceed total entries {entries}"
        );
        let max_path = specs
            .iter()
            .map(CompressedKeySpec::path_len)
            .max()
            .unwrap_or(0);
        SharedTableHybrid {
            specs,
            histories: Histories::new(HistorySharing::GLOBAL, HistoryElement::Target, max_path),
            ways_store: vec![None; entries],
            sets: entries / ways,
            ways,
            rule: UpdateRule::TwoBitCounter,
            confidence_bits: 2,
            tick: 0,
            evictions: 0,
        }
    }

    /// Total table entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    /// The component key specs, in priority order.
    #[must_use]
    pub fn specs(&self) -> &[CompressedKeySpec] {
        &self.specs
    }

    /// How many live entries each component currently owns (inserted),
    /// index-aligned with [`specs`](SharedTableHybrid::specs). Diagnostic
    /// for the §8.1 storage-sharing question.
    #[must_use]
    pub fn owner_histogram(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.specs.len()];
        for w in self.ways_store.iter().flatten() {
            counts[usize::from(w.owner)] += 1;
        }
        counts
    }

    fn split(&self, key: u64) -> (usize, u64) {
        let index = (key & (self.sets as u64 - 1)) as usize;
        (index, key >> self.sets.trailing_zeros())
    }

    fn set_range(&self, index: usize) -> std::ops::Range<usize> {
        let base = index * self.ways;
        base..base + self.ways
    }

    fn find(&self, key: u64) -> Option<usize> {
        let (index, tag) = self.split(key);
        self.set_range(index)
            .find(|&i| matches!(&self.ways_store[i], Some(w) if w.tag == tag))
    }

    /// Writes the component keys for a branch under the current history
    /// into `buf` and returns them, in component order.
    fn keys<'b>(
        &self,
        pc: Addr,
        buf: &'b mut [u64; SharedTableHybrid::MAX_COMPONENTS],
    ) -> &'b [u64] {
        let register = self.histories.register(pc);
        for (key, spec) in buf.iter_mut().zip(&self.specs) {
            *key = spec.key(pc, register);
        }
        &buf[..self.specs.len()]
    }

    /// The way holding the winning prediction among the component keys'
    /// hits, if any: the highest confidence, earlier components winning
    /// ties.
    fn select(&self, keys: &[u64]) -> Option<usize> {
        let mut best: Option<(usize, u8)> = None;
        for &key in keys {
            if let Some(i) = self.find(key) {
                let conf = self.way(i).slot.hit().confidence;
                if best.is_none_or(|(_, b)| conf > b) {
                    best = Some((i, conf));
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// The key recipe of each component, in priority order: its spec over
    /// the hybrid's one global target history. A spec reads only the
    /// newest `p` elements of that history, so the keys equal those of a
    /// history of the component's own path length.
    pub(crate) fn key_recipes(&self) -> impl Iterator<Item = KeyRecipe> + '_ {
        self.specs.iter().map(|&spec| KeyRecipe {
            spec,
            sharing: self.histories.sharing(),
            element: self.histories.element(),
            include_cond: false,
        })
    }

    /// The first level.
    pub(crate) fn histories(&self) -> &Histories {
        &self.histories
    }

    /// Takes over a first level that a key stream of the deepest
    /// component's path length ran forward for this hybrid.
    pub(crate) fn adopt_histories(&mut self, histories: &Histories) {
        debug_assert_eq!(histories.depth(), self.histories.depth());
        self.histories.clone_from(histories);
    }

    /// One event's table step over the components' keys, in priority order:
    /// reads the prediction (when `want_lookup`) and credits the chosen
    /// entry, then trains or inserts every component's entry. The history
    /// does not move here.
    pub(crate) fn keyed_step(
        &mut self,
        keys: &[u64],
        actual: Addr,
        want_lookup: bool,
    ) -> Option<Addr> {
        self.tick += 1;
        let tick = self.tick;

        // Read the prediction and credit the chosen entry before training
        // moves anything.
        let chosen = self.select(keys);
        let predicted = chosen
            .filter(|_| want_lookup)
            .map(|i| self.way(i).slot.target());
        if let Some(i) = chosen {
            self.way_mut(i).chosen.increment();
        }

        for (c, &key) in keys.iter().enumerate() {
            if let Some(i) = self.find(key) {
                let rule = self.rule;
                let w = self.way_mut(i);
                let correct = w.slot.train(actual, rule);
                w.stamp = tick;
                if !correct {
                    // A wrong entry slowly loses its protection.
                    w.chosen.decrement();
                }
                continue;
            }
            // Insert: victim = invalid way, else the lowest (chosen, stamp).
            let (index, tag) = self.split(key);
            let mut victim = None;
            let mut victim_rank = (u8::MAX, u64::MAX);
            for i in self.set_range(index) {
                match &self.ways_store[i] {
                    None => {
                        victim = Some(i);
                        break;
                    }
                    Some(w) => {
                        let rank = (w.chosen.value(), w.stamp);
                        if rank < victim_rank {
                            victim_rank = rank;
                            victim = Some(i);
                        }
                    }
                }
            }
            let i = victim.expect("non-empty set");
            if probe_counters_on() && self.ways_store[i].is_some() {
                self.evictions += 1;
            }
            self.ways_store[i] = Some(SharedWay {
                tag,
                owner: c as u8,
                slot: Slot::new(actual, self.confidence_bits),
                stamp: tick,
                chosen: SaturatingCounter::new(2),
            });
        }
        predicted
    }

    fn way(&self, i: usize) -> &SharedWay {
        self.ways_store[i].as_ref().expect("found way")
    }

    fn way_mut(&mut self, i: usize) -> &mut SharedWay {
        self.ways_store[i].as_mut().expect("found way")
    }
}

impl Predictor for SharedTableHybrid {
    fn predict(&self, pc: Addr) -> Option<Addr> {
        let mut buf = [0; SharedTableHybrid::MAX_COMPONENTS];
        let keys = self.keys(pc, &mut buf);
        self.select(keys).map(|i| self.way(i).slot.target())
    }

    fn update(&mut self, pc: Addr, actual: Addr) {
        let _ = self.step(pc, actual, false);
    }

    /// Builds the component keys once, then takes the
    /// table step over them, and shifts the history.
    fn step(&mut self, pc: Addr, actual: Addr, want_lookup: bool) -> Option<Addr> {
        let mut buf = [0; SharedTableHybrid::MAX_COMPONENTS];
        let keys = self.keys(pc, &mut buf);
        let predicted = self.keyed_step(keys, actual, want_lookup);
        self.histories.record(pc, actual);
        predicted
    }

    fn name(&self) -> String {
        let paths: Vec<String> = self
            .specs
            .iter()
            .map(|s| s.path_len().to_string())
            .collect();
        format!(
            "shared-table hybrid p={} {}-entry {}-way",
            paths.join("."),
            self.capacity(),
            self.ways
        )
    }

    fn storage_entries(&self) -> Option<usize> {
        Some(self.capacity())
    }

    fn snapshot(&self) -> Option<Snapshot> {
        Some(self.structural_snapshot())
    }
}

impl StructuralSnapshot for SharedTableHybrid {
    fn structural_snapshot(&self) -> Snapshot {
        let mut confidence = vec![0u64; 1usize << self.confidence_bits];
        // The "chosen" counters play the selector role here: their
        // distribution shows how much of the shared table is actively used.
        let mut chosen = vec![0u64; 4];
        let mut occupied = 0u64;
        for w in self.ways_store.iter().flatten() {
            occupied += 1;
            confidence[w.slot.hit().confidence as usize] += 1;
            chosen[w.chosen.value() as usize] += 1;
        }
        Snapshot {
            components: vec![ComponentSnapshot {
                label: format!("shared {}-entry {}-way", self.capacity(), self.ways),
                table: TableSnapshot {
                    occupied,
                    capacity: Some(self.capacity() as u64),
                    evictions: self.evictions,
                    tag_conflicts: 0,
                    confidence,
                    lru_depths: Vec::new(),
                },
                history: self.histories.history_snapshot(),
            }],
            selectors: chosen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(raw: u32) -> Addr {
        Addr::new(raw)
    }

    fn hybrid(p1: usize, p2: usize, entries: usize, ways: usize) -> SharedTableHybrid {
        SharedTableHybrid::new(
            vec![
                CompressedKeySpec::practical(p1),
                CompressedKeySpec::practical(p2),
            ],
            entries,
            ways,
        )
    }

    #[test]
    fn learns_monomorphic_site() {
        let mut h = hybrid(3, 0, 64, 4);
        for _ in 0..4 {
            h.update(a(0x100), a(0x900));
        }
        assert_eq!(h.predict(a(0x100)), Some(a(0x900)));
    }

    #[test]
    fn learns_alternation_via_long_component() {
        let mut h = hybrid(1, 0, 256, 4);
        let site = a(0x100);
        for _ in 0..10 {
            h.update(site, a(0x900));
            h.update(site, a(0xA00));
        }
        // Next target in sequence is 0x900; the p = 1 entry should win over
        // the low-confidence p = 0 entry.
        assert_eq!(h.predict(site), Some(a(0x900)));
    }

    #[test]
    fn components_share_capacity() {
        let h = hybrid(3, 1, 1024, 4);
        assert_eq!(h.storage_entries(), Some(1024));
        assert_eq!(h.capacity(), 1024);
        assert_eq!(h.specs().len(), 2);
    }

    #[test]
    fn chosen_counter_protects_useful_entries() {
        // Fill a tiny 1-way table: a frequently chosen entry should survive
        // pressure from never-chosen insertions elsewhere in its set.
        let mut h = hybrid(0, 0, 2, 1);
        let hot = a(0x100);
        for _ in 0..8 {
            h.update(hot, a(0x900));
            let _ = h.predict(hot);
        }
        assert_eq!(h.predict(hot), Some(a(0x900)));
    }

    #[test]
    fn name_lists_paths() {
        let h = hybrid(3, 1, 64, 2);
        assert!(h.name().contains("p=3.1"));
    }

    #[test]
    fn owner_histogram_tracks_insertions() {
        let mut h = hybrid(1, 0, 64, 2);
        for i in 0..8u32 {
            h.update(a(0x100 + i * 4), a(0x900));
        }
        let hist = h.owner_histogram();
        assert_eq!(hist.len(), 2);
        assert!(hist.iter().sum::<usize>() > 0);
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn empty_specs_rejected() {
        let _ = SharedTableHybrid::new(vec![], 64, 2);
    }

    #[test]
    #[should_panic(expected = "component specs exceed")]
    fn too_many_specs_rejected() {
        let specs = vec![CompressedKeySpec::practical(1); SharedTableHybrid::MAX_COMPONENTS + 1];
        let _ = SharedTableHybrid::new(specs, 64, 2);
    }
}
