//! A simplified ITTAGE-style predictor — the modern descendant of the
//! paper's hybrid design.
//!
//! The paper's hybrid (§6) pairs two path lengths; its cascade sketch (§7)
//! orders tagged tables longest-history-first. ITTAGE (Seznec & Michaud's
//! indirect-target TAGE) completes that lineage: a base predictor plus
//! several tagged tables with **geometrically growing history lengths**,
//! prediction by the longest matching table, and *useful* counters steering
//! allocation. This module implements a faithful-in-structure, simplified
//! version so the `ext_future_work` experiments can compare where two
//! decades of follow-up work landed relative to the paper's designs.
//!
//! Simplifications relative to production ITTAGE: per-table index/tag
//! hashes come from one mixing function rather than folded CSRs; there is
//! no periodic useful-counter reset tick (a decay on allocation failure
//! plays that role); and the "alternate prediction" heuristic is a plain
//! confidence check.

use ibp_trace::Addr;

use crate::btb::Btb;
use crate::counter::SaturatingCounter;
use crate::history::{HistoryRegister, MAX_PATH};
use crate::predictor::{Predictor, UpdateRule};
use crate::snapshot::{
    probe_counters_on, ComponentSnapshot, Snapshot, StructuralSnapshot, TableSnapshot,
};

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[derive(Debug, Clone)]
struct TaggedEntry {
    tag: u16,
    target: Addr,
    confidence: SaturatingCounter,
    useful: SaturatingCounter,
}

#[derive(Debug, Clone)]
struct TaggedTable {
    history_len: usize,
    entries: Vec<Option<TaggedEntry>>,
    /// Probe-gated: live entries overwritten by allocation.
    evictions: u64,
}

impl TaggedTable {
    /// The entry index and tag for the hash of this table's history.
    fn index_and_tag(&self, h: u64) -> (usize, u16) {
        let index = (h as usize) & (self.entries.len() - 1);
        // Tag from independent high bits; avoid the all-zero degenerate tag
        // check being meaningful (entries are Option anyway).
        let tag = (h >> 40) as u16;
        (index, tag)
    }

    fn matches(&self, (index, tag): (usize, u16)) -> bool {
        matches!(&self.entries[index], Some(e) if e.tag == tag)
    }
}

/// The most tagged tables: history lengths double from table to table and
/// the longest fits [`MAX_PATH`].
const MAX_TABLES: usize = MAX_PATH.ilog2() as usize + 1;

/// A simplified indirect-target TAGE predictor.
///
/// # Example
///
/// ```
/// use ibp_core::ext::IttageLite;
/// use ibp_core::Predictor;
/// use ibp_trace::Addr;
///
/// // 4 tagged tables of 256 entries with history lengths 2,4,8,16, plus a
/// // 256-entry BTB base: 1280 entries total.
/// let mut p = IttageLite::new(256, 4, 2);
/// p.update(Addr::new(0x100), Addr::new(0x900));
/// assert_eq!(p.predict(Addr::new(0x100)), Some(Addr::new(0x900)));
/// ```
#[derive(Debug, Clone)]
pub struct IttageLite {
    base: Btb,
    tables: Vec<TaggedTable>,
    history: HistoryRegister,
    /// Deterministic allocation "randomness".
    alloc_seed: u64,
}

impl IttageLite {
    /// Creates a predictor with `num_tables` tagged tables of
    /// `entries_per_table` entries each, history lengths
    /// `min_history * 2^i`, plus an `entries_per_table` BTB base.
    ///
    /// # Panics
    ///
    /// Panics if `entries_per_table` is not a non-zero power of two, if
    /// `num_tables` is zero, or if the longest history
    /// `min_history * 2^(num_tables-1)` exceeds [`MAX_PATH`].
    #[must_use]
    pub fn new(entries_per_table: usize, num_tables: usize, min_history: usize) -> Self {
        assert!(num_tables > 0, "at least one tagged table required");
        assert!(
            entries_per_table.is_power_of_two() && entries_per_table > 0,
            "entries per table must be a non-zero power of two"
        );
        let max_history = min_history << (num_tables - 1);
        assert!(
            (1..=MAX_PATH).contains(&max_history),
            "longest history {max_history} outside 1..={MAX_PATH}"
        );
        let tables = (0..num_tables)
            .map(|i| TaggedTable {
                history_len: min_history << i,
                entries: vec![None; entries_per_table],
                evictions: 0,
            })
            .collect();
        IttageLite {
            base: Btb::unconstrained(UpdateRule::TwoBitCounter),
            tables,
            history: HistoryRegister::new(max_history),
            alloc_seed: 0x9E37_79B9,
        }
    }

    /// The geometric history lengths, shortest first.
    #[must_use]
    pub fn history_lengths(&self) -> Vec<usize> {
        self.tables.iter().map(|t| t.history_len).collect()
    }

    /// Total tagged entries (excluding the unbounded base BTB).
    #[must_use]
    pub fn tagged_entries(&self) -> usize {
        self.tables.iter().map(|t| t.entries.len()).sum()
    }

    /// Every tagged table's `(index, tag)` for a branch at `pc` under the
    /// current history, in table order. Each table hashes `pc` and then its
    /// history's targets newest first; the histories are nested prefixes
    /// of one path, so one running hash serves every table.
    fn slots(&self, pc: Addr) -> [(usize, u16); MAX_TABLES] {
        let mut slots = [(0, 0); MAX_TABLES];
        let mut acc = u64::from(pc.word());
        let mut depth = 0;
        for (slot, table) in slots.iter_mut().zip(&self.tables) {
            for &t in &self.history.path()[depth..table.history_len] {
                acc = mix(acc ^ (u64::from(t.word()) << 1));
            }
            depth = table.history_len;
            *slot = table.index_and_tag(acc);
        }
        slots
    }

    /// The provider: the longest-history table whose entry matches, as
    /// `(table index, entry index)`.
    fn provider(&self, slots: &[(usize, u16)]) -> Option<(usize, usize)> {
        (0..self.tables.len())
            .rev()
            .find(|&ti| self.tables[ti].matches(slots[ti]))
            .map(|ti| (ti, slots[ti].0))
    }

    /// The prediction given the provider and the base predictor's answer.
    fn prediction(&self, provider: Option<(usize, usize)>, base: Option<Addr>) -> Option<Addr> {
        match provider {
            Some((ti, index)) => {
                let e = self.tables[ti].entries[index]
                    .as_ref()
                    .expect("provider entry");
                // Low-confidence fresh entries defer to the base predictor
                // (the "alternate prediction" heuristic).
                if e.confidence.value() == 0 {
                    base.or(Some(e.target))
                } else {
                    Some(e.target)
                }
            }
            None => base,
        }
    }

    /// Allocates into a longer table than the provider after a
    /// misprediction (TAGE's growth rule): finds a not-useful slot in one of
    /// the tables above the provider, and decays usefulness when none is
    /// free.
    fn allocate(
        &mut self,
        pc: Addr,
        actual: Addr,
        provider: Option<(usize, usize)>,
        slots: &[(usize, u16)],
    ) {
        let start = provider.map_or(0, |(ti, _)| ti + 1);
        self.alloc_seed = mix(self.alloc_seed ^ u64::from(pc.word()));
        let candidates = self.tables.len() - start;
        if candidates == 0 {
            return;
        }
        // Deterministic pseudo-random start slot spreads allocation pressure
        // across the longer tables.
        let offset = (self.alloc_seed as usize) % candidates;
        for step in 0..candidates {
            let ti = start + (offset + step) % candidates;
            let (index, tag) = slots[ti];
            let (free, live) = match &self.tables[ti].entries[index] {
                None => (true, false),
                Some(e) => (e.useful.value() == 0, true),
            };
            if free {
                if probe_counters_on() && live {
                    self.tables[ti].evictions += 1;
                }
                self.tables[ti].entries[index] = Some(TaggedEntry {
                    tag,
                    target: actual,
                    confidence: SaturatingCounter::new(2),
                    useful: SaturatingCounter::new(2),
                });
                return;
            }
        }
        // Global decay: make room for future allocations.
        for (table, &(index, _)) in self.tables.iter_mut().zip(slots).skip(start) {
            if let Some(e) = &mut table.entries[index] {
                e.useful.decrement();
            }
        }
    }
}

impl Predictor for IttageLite {
    fn predict(&self, pc: Addr) -> Option<Addr> {
        let slots = self.slots(pc);
        let provider = self.provider(&slots[..self.tables.len()]);
        self.prediction(provider, self.base.predict(pc))
    }

    fn update(&mut self, pc: Addr, actual: Addr) {
        let _ = self.step(pc, actual, false);
    }

    /// Hashes each tagged table's index and tag once, reads the prediction,
    /// then trains the provider, allocates on a misprediction and trains
    /// the base. The base shares no state with the tagged tables, so its
    /// single lookup-and-train probe comes first.
    fn step(&mut self, pc: Addr, actual: Addr, want_lookup: bool) -> Option<Addr> {
        let slots = self.slots(pc);
        let slots = &slots[..self.tables.len()];
        let provider = self.provider(slots);
        let base = self.base.step(pc, actual, true);
        let predicted = self.prediction(provider, base);

        if let Some((ti, index)) = provider {
            let e = self.tables[ti].entries[index]
                .as_mut()
                .expect("provider entry");
            let entry_correct = e.target == actual;
            e.confidence.record(entry_correct);
            e.useful.record(entry_correct);
            if !entry_correct && e.confidence.value() == 0 {
                e.target = actual;
            }
        }
        if predicted != Some(actual) {
            self.allocate(pc, actual, provider, slots);
        }
        self.history.push(actual);
        predicted.filter(|_| want_lookup)
    }

    fn name(&self) -> String {
        let lens: Vec<String> = self
            .history_lengths()
            .iter()
            .map(ToString::to_string)
            .collect();
        format!(
            "ittage-lite {}x{} histories {}",
            self.tables.len(),
            self.tables.first().map_or(0, |t| t.entries.len()),
            lens.join("/")
        )
    }

    fn storage_entries(&self) -> Option<usize> {
        // The base BTB is unbounded; report tagged storage only.
        Some(self.tagged_entries())
    }

    fn snapshot(&self) -> Option<Snapshot> {
        Some(self.structural_snapshot())
    }
}

impl StructuralSnapshot for IttageLite {
    fn structural_snapshot(&self) -> Snapshot {
        let mut snap = self.base.structural_snapshot();
        if let Some(base) = snap.components.first_mut() {
            base.label = format!("base {}", base.label);
        }
        for t in &self.tables {
            // Confidence and useful counters are both 2-bit.
            let mut confidence = vec![0u64; 4];
            let mut occupied = 0u64;
            for e in t.entries.iter().flatten() {
                occupied += 1;
                confidence[e.confidence.value() as usize] += 1;
            }
            snap.components.push(ComponentSnapshot {
                label: format!("h={} {}-entry tagged", t.history_len, t.entries.len()),
                table: TableSnapshot {
                    occupied,
                    capacity: Some(t.entries.len() as u64),
                    evictions: t.evictions,
                    tag_conflicts: 0,
                    confidence,
                    lru_depths: Vec::new(),
                },
                history: None,
            });
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(raw: u32) -> Addr {
        Addr::new(raw)
    }

    #[test]
    fn geometry() {
        let p = IttageLite::new(128, 4, 2);
        assert_eq!(p.history_lengths(), vec![2, 4, 8, 16]);
        assert_eq!(p.tagged_entries(), 512);
        assert_eq!(p.storage_entries(), Some(512));
        assert!(p.name().contains("ittage-lite"));
    }

    #[test]
    fn monomorphic_branch_served_by_base() {
        let mut p = IttageLite::new(64, 3, 2);
        p.update(a(0x100), a(0x900));
        assert_eq!(p.predict(a(0x100)), Some(a(0x900)));
    }

    #[test]
    fn learns_alternation_via_tagged_tables() {
        let mut p = IttageLite::new(256, 3, 2);
        let site = a(0x100);
        let mut misses = 0;
        for i in 0..200u32 {
            let t = a(0x900 + (i % 2) * 0x40);
            if p.predict(site) != Some(t) {
                misses += 1;
            }
            p.update(site, t);
        }
        // A BTB alone would miss ~always; tagged history tables learn it.
        assert!(misses < 60, "misses {misses}");
    }

    #[test]
    fn learns_longer_periods_than_short_histories() {
        // Period-12 target sequence: needs a longer history table.
        let mut p = IttageLite::new(512, 4, 2); // histories 2,4,8,16
        let site = a(0x200);
        let seq: Vec<Addr> = (0..12u32).map(|i| a(0x1000 + (i % 5) * 0x40)).collect();
        let mut late_misses = 0;
        for round in 0..60 {
            for &t in &seq {
                if p.predict(site) != Some(t) && round >= 40 {
                    late_misses += 1;
                }
                p.update(site, t);
            }
        }
        let total_late = 20 * seq.len() as u32;
        assert!(
            late_misses < total_late / 4,
            "late misses {late_misses}/{total_late}"
        );
    }

    #[test]
    #[should_panic(expected = "longest history")]
    fn oversized_history_rejected() {
        let _ = IttageLite::new(64, 5, 2); // 2 << 4 = 32 > MAX_PATH
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_table_size_rejected() {
        let _ = IttageLite::new(100, 3, 2);
    }
}
