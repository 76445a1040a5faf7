//! The metaprediction rules: how a [`HybridPredictor`](crate::HybridPredictor)
//! picks one prediction among its components' lookups — §6's confidence
//! counters, §6.1's BPST, §7's PPM-style first hit — and the state the
//! BPST keeps.

use ibp_trace::Addr;

use crate::counter::SaturatingCounter;
use crate::hash::WordMap;
use crate::table::TableHit;

/// Which metaprediction rule arbitrates between a hybrid's components.
///
/// [`HybridPredictor::new`](crate::HybridPredictor::new) takes one, and
/// [`PredictorConfig::decompose`](crate::PredictorConfig::decompose)
/// reports a configured hybrid's (never [`FirstHit`](MetaSpec::FirstHit)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaSpec {
    /// Per-entry confidence counters (§6): the hit with the highest
    /// confidence wins. A miss never beats a hit, and a later component
    /// wins only with strictly greater confidence. Stateless — the
    /// confidence lives inside the component tables. Any number of
    /// components (§8.1's "three or more").
    Confidence,
    /// Prediction by partial matching (§7): the first component that hits
    /// wins, whatever its confidence. Stateless. Any number of components,
    /// longest path first: the cascade.
    FirstHit,
    /// A branch predictor selection table (McFarling-style, §6.1): one
    /// `selector_bits`-wide counter per branch site tracks which of exactly
    /// two components has been more accurate there lately.
    Bpst {
        /// Selector counter width in bits (`1..=7`).
        selector_bits: u8,
    },
}

/// A metaprediction rule and its state: the one place a hybrid's
/// arbitration lives.
///
/// The sequential [`HybridPredictor`](crate::HybridPredictor) step, a
/// pass's component bank ([`KeyStreams`](crate::KeyStreams)) and the
/// component-parallel merge fold all arbitrate through it, the latter two
/// over recorded *pre-update* component lookups fed in event order, so all
/// three predict alike bit for bit.
#[derive(Debug, Clone)]
pub struct MetaState {
    spec: MetaSpec,
    /// BPST only: one counter per branch site, keyed by its word address.
    /// Unbounded (a counter per site seen), which favours the BPST slightly
    /// — sites are few, so a real table of a few hundred counters would
    /// behave identically.
    selectors: WordMap<SaturatingCounter>,
}

impl MetaState {
    /// Fresh state for the given rule. BPST selectors start low, i.e.
    /// preferring the first component.
    ///
    /// # Panics
    ///
    /// Panics if a [`MetaSpec::Bpst`] selector width is outside `1..=7`.
    #[must_use]
    pub fn new(spec: MetaSpec) -> Self {
        if let MetaSpec::Bpst { selector_bits } = spec {
            assert!((1..=7).contains(&selector_bits));
        }
        MetaState {
            spec,
            selectors: WordMap::default(),
        }
    }

    /// The rule this state implements.
    #[must_use]
    pub fn spec(&self) -> MetaSpec {
        self.spec
    }

    /// Whether the selector table currently prefers the second component
    /// for this branch. Always `false` but under [`MetaSpec::Bpst`], the one
    /// rule with per-branch state.
    #[must_use]
    pub fn prefers_second(&self, pc: Addr) -> bool {
        matches!(self.spec, MetaSpec::Bpst { .. })
            && self.selectors.get(&pc.word()).is_some_and(|c| c.is_high())
    }

    /// The confidence rule over `hits`, in component order: the highest
    /// confidence wins, earlier components winning ties, and a miss never
    /// beats a hit. Reads every lookup `hits` yields.
    pub(crate) fn most_confident(
        hits: impl IntoIterator<Item = Option<TableHit>>,
    ) -> Option<TableHit> {
        hits.into_iter()
            .flatten()
            .fold(None, |best, hit| match best {
                Some(b) if hit.confidence <= b.confidence => Some(b),
                _ => Some(hit),
            })
    }

    /// The cascade's rule over `hits`, in component order: the first hit
    /// wins. Reads every lookup `hits` yields.
    pub(crate) fn first_hit(hits: impl IntoIterator<Item = Option<TableHit>>) -> Option<TableHit> {
        hits.into_iter().fold(None, |first, hit| first.or(hit))
    }

    /// The selector's pick: the preferred component's hit, or the other's
    /// when the preferred one misses.
    fn bpst_pick(
        &self,
        pc: Addr,
        first: Option<TableHit>,
        second: Option<TableHit>,
    ) -> Option<TableHit> {
        if self.prefers_second(pc) {
            second.or(first)
        } else {
            first.or(second)
        }
    }

    /// One BPST event over the two components' pre-update lookups: the
    /// selector's pick, then the selector moved toward the component that
    /// was (exclusively) correct against `actual`.
    pub(crate) fn bpst(
        &mut self,
        pc: Addr,
        first: Option<TableHit>,
        second: Option<TableHit>,
        actual: Addr,
    ) -> Option<Addr> {
        let MetaSpec::Bpst { selector_bits } = self.spec else {
            unreachable!("only a BPST has selectors")
        };
        let predicted = self.bpst_pick(pc, first, second).map(|h| h.target);
        let first_correct = first.map(|h| h.target) == Some(actual);
        let second_correct = second.map(|h| h.target) == Some(actual);
        if first_correct != second_correct {
            let c = self
                .selectors
                .entry(pc.word())
                .or_insert_with(|| SaturatingCounter::new(selector_bits));
            if second_correct {
                c.increment();
            } else {
                c.decrement();
            }
        }
        predicted
    }

    /// The rule's pick among the components' lookups `hits`, in component
    /// order, without training: the sequential predictor's `predict`.
    #[must_use]
    pub fn arbitrate(
        &self,
        pc: Addr,
        hits: impl IntoIterator<Item = Option<TableHit>>,
    ) -> Option<TableHit> {
        match self.spec {
            MetaSpec::Confidence => MetaState::most_confident(hits),
            MetaSpec::FirstHit => MetaState::first_hit(hits),
            MetaSpec::Bpst { .. } => {
                let mut hits = hits.into_iter();
                let (first, second) = (hits.next().flatten(), hits.next().flatten());
                self.bpst_pick(pc, first, second)
            }
        }
    }

    /// One event: arbitrates the components' pre-update lookups `hits`,
    /// then trains the selector against `actual` — the read-then-train
    /// order of the sequential `predict`/`update` pair. Reads every lookup
    /// `hits` yields, so an iterator that steps the components steps every
    /// one.
    pub fn replay(
        &mut self,
        pc: Addr,
        hits: impl IntoIterator<Item = Option<TableHit>>,
        actual: Addr,
    ) -> Option<Addr> {
        let MetaSpec::Bpst { .. } = self.spec else {
            return self.arbitrate(pc, hits).map(|h| h.target);
        };
        let mut hits = hits.into_iter();
        let (first, second) = (hits.next().flatten(), hits.next().flatten());
        self.bpst(pc, first, second, actual)
    }

    /// Histogram of selector-counter values, indexed by value. Empty but
    /// under [`MetaSpec::Bpst`] (no selector state exists).
    #[must_use]
    pub fn selector_histogram(&self) -> Vec<u64> {
        let MetaSpec::Bpst { selector_bits } = self.spec else {
            return Vec::new();
        };
        let mut hist = vec![0u64; 1usize << selector_bits];
        for c in self.selectors.values() {
            hist[c.value() as usize] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(raw: u32) -> Addr {
        Addr::new(raw)
    }

    fn hit(t: u32, c: u8) -> Option<TableHit> {
        Some(TableHit {
            target: a(t),
            confidence: c,
        })
    }

    #[test]
    fn confidence_rule() {
        let m = MetaState::new(MetaSpec::Confidence);
        let pick = |hits: &[Option<TableHit>]| m.arbitrate(a(0x100), hits.iter().copied());
        assert_eq!(pick(&[None, None]), None);
        assert_eq!(pick(&[hit(0x100, 0), None]), hit(0x100, 0));
        assert_eq!(pick(&[None, hit(0x200, 0)]), hit(0x200, 0));
        // Strictly greater later component wins.
        assert_eq!(pick(&[hit(0x100, 1), hit(0x200, 2)]), hit(0x200, 2));
        // Tie: the earlier component wins.
        assert_eq!(pick(&[hit(0x100, 2), hit(0x200, 2)]), hit(0x100, 2));
        // Over three components: the highest, earliest on ties.
        assert_eq!(
            pick(&[hit(0x100, 1), hit(0x200, 3), hit(0x300, 3)]),
            hit(0x200, 3)
        );
        assert_eq!(pick(&[None, None, hit(0x300, 0)]), hit(0x300, 0));
    }

    #[test]
    fn first_hit_rule() {
        let m = MetaState::new(MetaSpec::FirstHit);
        let pick = |hits: &[Option<TableHit>]| m.arbitrate(a(0x100), hits.iter().copied());
        assert_eq!(pick(&[None, None, None]), None);
        // Confidence does not matter: the first hit wins.
        assert_eq!(pick(&[hit(0x100, 0), hit(0x200, 3)]), hit(0x100, 0));
        assert_eq!(pick(&[None, hit(0x200, 0), hit(0x300, 3)]), hit(0x200, 0));
    }

    #[test]
    fn replay_reads_every_lookup() {
        for spec in [
            MetaSpec::Confidence,
            MetaSpec::FirstHit,
            MetaSpec::Bpst { selector_bits: 2 },
        ] {
            let n = if matches!(spec, MetaSpec::Bpst { .. }) {
                2
            } else {
                3
            };
            let mut read = 0;
            let hits = (0..n).map(|_| {
                read += 1;
                hit(0x900, 1)
            });
            let mut m = MetaState::new(spec);
            assert_eq!(m.replay(a(0x100), hits, a(0x900)), Some(a(0x900)));
            assert_eq!(read, n, "{spec:?}");
        }
    }

    #[test]
    fn stateless_rules_keep_no_state() {
        for spec in [MetaSpec::Confidence, MetaSpec::FirstHit] {
            let mut m = MetaState::new(spec);
            assert_eq!(m.spec(), spec);
            for _ in 0..8 {
                m.replay(a(0x100), [hit(0x900, 1), hit(0xA00, 2)], a(0xA00));
            }
            assert!(!m.prefers_second(a(0x100)));
            assert!(m.selector_histogram().is_empty());
        }
    }

    #[test]
    fn bpst_falls_back_and_learns_per_branch() {
        let mut m = MetaState::new(MetaSpec::Bpst { selector_bits: 2 });
        // Cold: prefers the first component, falls back when it misses.
        assert_eq!(
            m.arbitrate(a(0x100), [hit(0x900, 0), hit(0xA00, 3)]),
            hit(0x900, 0)
        );
        assert_eq!(m.arbitrate(a(0x100), [None, hit(0xA00, 0)]), hit(0xA00, 0));
        // Only the second is right at 0x100, twice: the selector crosses
        // its midpoint there and nowhere else.
        for _ in 0..2 {
            m.replay(a(0x100), [hit(0x900, 0), hit(0xA00, 0)], a(0xA00));
        }
        // Both right, or both wrong: no move.
        m.replay(a(0x200), [hit(0x900, 0), hit(0x900, 0)], a(0x900));
        m.replay(a(0x200), [hit(0x900, 0), hit(0x900, 0)], a(0xA00));
        assert!(m.prefers_second(a(0x100)));
        assert!(!m.prefers_second(a(0x200)));
        assert_eq!(
            m.arbitrate(a(0x100), [hit(0x900, 3), hit(0xA00, 0)]),
            hit(0xA00, 0)
        );
        assert_eq!(m.arbitrate(a(0x100), [hit(0x900, 3), None]), hit(0x900, 3));
        assert_eq!(m.selector_histogram(), vec![0, 0, 1, 0]);
    }

    #[test]
    #[should_panic]
    fn bpst_selector_width_is_bounded() {
        let _ = MetaState::new(MetaSpec::Bpst { selector_bits: 8 });
    }
}
