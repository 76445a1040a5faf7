//! Structural snapshots of predictor internals (the probe layer).
//!
//! The paper's §5 narrative attributes accuracy loss under bounded tables
//! to *capacity* and *interference* (tag conflicts, tagless aliasing).
//! This module gives every predictor a way to report the structure behind
//! those effects — table occupancy, eviction and tag-conflict counts, LRU
//! stack-depth histograms, per-entry confidence and selector distributions,
//! and history-register state entropy — without perturbing prediction:
//! snapshots only *read* predictor state, and the side counters they report
//! are write-only from the prediction path, so results are byte-identical
//! with probing on or off.
//!
//! Cost discipline: the table-internal counters (evictions, conflicts,
//! sampled LRU depths) only advance while the process-global probe gate is
//! on — [`set_probe_counters`] — so the hot path pays one relaxed atomic
//! load and a branch when probing is off.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

/// Process-global gate for the table-internal probe counters.
static PROBE_COUNTERS: AtomicBool = AtomicBool::new(false);

/// Turns the table-internal probe counters on or off for the whole process.
/// Driven by `IBP_PROBE` in `ibp-sim`; callable directly from tests.
pub fn set_probe_counters(on: bool) {
    PROBE_COUNTERS.store(on, Ordering::Relaxed);
}

/// Whether the table-internal probe counters are on.
#[inline]
#[must_use]
pub fn probe_counters_on() -> bool {
    PROBE_COUNTERS.load(Ordering::Relaxed)
}

/// Number of buckets in the LRU stack-depth histograms: bucket 0 is depth
/// 0 (MRU hit), bucket `i >= 1` covers depths `2^(i-1) ..= 2^i - 1`, and
/// the last bucket absorbs everything deeper.
pub const LRU_DEPTH_BUCKETS: usize = 8;

/// The histogram bucket for an LRU stack depth.
#[must_use]
pub fn lru_depth_bucket(depth: usize) -> usize {
    if depth == 0 {
        0
    } else {
        ((usize::BITS - depth.leading_zeros()) as usize).min(LRU_DEPTH_BUCKETS - 1)
    }
}

/// Structure of one second-level table at a snapshot point.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableSnapshot {
    /// Entries currently live.
    pub occupied: u64,
    /// Total entries, or `None` for unbounded tables.
    pub capacity: Option<u64>,
    /// Valid entries replaced since construction (probe-gated counter).
    pub evictions: u64,
    /// Tag conflicts: set-associative misses in a full set, or destructive
    /// tagless aliasing — a different key overwriting a live slot's shadow
    /// tag (probe-gated counter).
    pub tag_conflicts: u64,
    /// Histogram of per-entry confidence counter values, indexed by value.
    pub confidence: Vec<u64>,
    /// Sampled LRU stack-depth histogram (see [`lru_depth_bucket`]); empty
    /// for organisations without a recency stack.
    pub lru_depths: Vec<u64>,
}

/// First-level history state at a snapshot point: a fingerprint census of
/// the materialised registers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistorySnapshot {
    /// Distinct registers materialised.
    pub registers: u64,
    /// Register-content fingerprint → number of registers in that state.
    /// A `BTreeMap` so snapshots serialise deterministically.
    pub states: BTreeMap<u64, u64>,
}

impl HistorySnapshot {
    /// Shannon entropy of the register-state distribution, in millibits.
    /// Zero for a single register (global history) or when every register
    /// holds the same path.
    #[must_use]
    pub fn entropy_millibits(&self) -> u64 {
        let total: u64 = self.states.values().sum();
        if total == 0 {
            return 0;
        }
        let total_f = total as f64;
        let bits: f64 = self
            .states
            .values()
            .map(|&c| {
                let p = c as f64 / total_f;
                -p * p.log2()
            })
            .sum();
        (bits * 1000.0).round().max(0.0) as u64
    }
}

/// One predictor component's structure: a second-level table plus the
/// first-level history feeding it (absent for history-less components).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentSnapshot {
    /// Short structural label, e.g. `"p=6 1024-entry 4-way"`.
    pub label: String,
    /// The component's table.
    pub table: TableSnapshot,
    /// The component's history registers, when it has any (path length
    /// zero and direction-history designs report `None`).
    pub history: Option<HistorySnapshot>,
}

/// A predictor's full structural state at one snapshot point.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// One entry per component, in the predictor's own component order.
    pub components: Vec<ComponentSnapshot>,
    /// Histogram of metapredictor selector-counter values, indexed by
    /// value (BPST hybrids only; empty otherwise).
    pub selectors: Vec<u64>,
}

impl Snapshot {
    /// A single-component snapshot with no history (convenience for bare
    /// tables).
    #[must_use]
    pub fn single(label: impl Into<String>, table: TableSnapshot) -> Self {
        Snapshot {
            components: vec![ComponentSnapshot {
                label: label.into(),
                table,
                history: None,
            }],
            selectors: Vec::new(),
        }
    }

    /// Total live entries across components.
    #[must_use]
    pub fn occupied(&self) -> u64 {
        self.components.iter().map(|c| c.table.occupied).sum()
    }

    /// Total evictions across components.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.components.iter().map(|c| c.table.evictions).sum()
    }

    /// Total tag conflicts across components.
    #[must_use]
    pub fn tag_conflicts(&self) -> u64 {
        self.components.iter().map(|c| c.table.tag_conflicts).sum()
    }
}

/// Types that can report their internal structure to the probe layer.
///
/// Implementations must be read-only over prediction state: taking a
/// snapshot never changes what the predictor will predict next.
pub trait StructuralSnapshot {
    /// The current structural state.
    fn structural_snapshot(&self) -> Snapshot;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_buckets_are_log2() {
        assert_eq!(lru_depth_bucket(0), 0);
        assert_eq!(lru_depth_bucket(1), 1);
        assert_eq!(lru_depth_bucket(2), 2);
        assert_eq!(lru_depth_bucket(3), 2);
        assert_eq!(lru_depth_bucket(4), 3);
        assert_eq!(lru_depth_bucket(15), 4);
        assert_eq!(lru_depth_bucket(16), 5);
        assert_eq!(lru_depth_bucket(1 << 20), LRU_DEPTH_BUCKETS - 1);
    }

    #[test]
    fn probe_gate_toggles() {
        set_probe_counters(true);
        assert!(probe_counters_on());
        set_probe_counters(false);
        assert!(!probe_counters_on());
    }

    #[test]
    fn history_entropy() {
        let mut h = HistorySnapshot::default();
        assert_eq!(h.entropy_millibits(), 0);
        h.states.insert(1, 2);
        h.states.insert(2, 2);
        h.registers = 4;
        // Two equiprobable states: exactly 1 bit.
        assert_eq!(h.entropy_millibits(), 1000);
        h.states.insert(3, 2);
        h.states.insert(4, 2);
        assert_eq!(h.entropy_millibits(), 2000);
    }
}
