//! Ahead prediction (§8.1, last paragraph).
//!
//! "A predictor could predict not only the target of a branch but also the
//! address of the next indirect branch to be executed. This disambiguates
//! branches that lie on different conditional branch control flow paths
//! but share the same indirect branch path, and allows a predictor to run,
//! in principle, arbitrarily far ahead of execution."

use std::collections::HashMap;

use ibp_trace::Addr;

use crate::history::{HistoryRegister, MAX_PATH};
use crate::interleave::Interleaving;
use crate::pattern::PatternCompressor;
use crate::predictor::{Predictor, UpdateRule};
use crate::snapshot::{ComponentSnapshot, Snapshot, StructuralSnapshot, TableSnapshot};
use crate::table::Slot;

/// Stable mixing for the anchor address, so that structurally related
/// (pc, target) pairs do not alias systematically under xor.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A pair predicted by the ahead predictor: where the next indirect branch
/// is, and where it will go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AheadPrediction {
    /// Address of the next indirect branch instruction.
    pub pc: Addr,
    /// Its predicted target.
    pub target: Addr,
}

#[derive(Debug, Clone)]
struct AheadEntry {
    pc: Addr,
    target: Slot,
    pc_miss_bit: bool,
}

/// The §8.1 ahead predictor: keyed by the path history *alone*, each entry
/// stores the address of the next indirect branch **and** its target.
///
/// Because the key does not include the branch address, the predictor can
/// chain: feed its own predicted target back into a scratch history and
/// predict the branch after next, and so on — see
/// [`predict_chain`](AheadPredictor::predict_chain). Accuracy decays
/// geometrically with depth (each link multiplies the per-step hit rate),
/// which is exactly the trade-off the paper gestures at.
///
/// The table is unbounded (this is a future-work study, evaluated like the
/// paper's §3 predictors).
#[derive(Debug, Clone)]
pub struct AheadPredictor {
    history: HistoryRegister,
    /// Address of the most recently executed indirect branch — known at
    /// prediction time and a legitimate key component (it anchors the
    /// path to a code location, like the branch address does for ordinary
    /// two-level predictors).
    last_pc: Addr,
    path_len: usize,
    bits_per_target: u32,
    table: HashMap<u64, AheadEntry>,
    rule: UpdateRule,
}

impl AheadPredictor {
    /// Creates an ahead predictor with the given path length (the paper's
    /// 24-bit pattern budget applies).
    ///
    /// # Panics
    ///
    /// Panics if `path_len` is zero (an empty history cannot anticipate
    /// anything) or exceeds [`MAX_PATH`].
    #[must_use]
    pub fn new(path_len: usize) -> Self {
        assert!(
            (1..=MAX_PATH).contains(&path_len),
            "ahead prediction needs a path length in 1..={MAX_PATH}"
        );
        AheadPredictor {
            history: HistoryRegister::new(path_len),
            last_pc: Addr::ZERO,
            path_len,
            bits_per_target: (24 / path_len as u32).max(1),
            table: HashMap::new(),
            rule: UpdateRule::TwoBitCounter,
        }
    }

    /// The path length.
    #[must_use]
    pub fn path_len(&self) -> usize {
        self.path_len
    }

    fn key_of(&self, history: &HistoryRegister, anchor_pc: Addr) -> u64 {
        let compressor = PatternCompressor::default();
        let mut chunks = [0u32; MAX_PATH];
        for (i, c) in chunks.iter_mut().take(self.path_len).enumerate() {
            *c = compressor.chunk(history.recent(i), self.bits_per_target);
        }
        let pattern = Interleaving::Reverse.layout(&chunks[..self.path_len], self.bits_per_target);
        // Gshare-style combination with the (mixed) anchoring branch
        // address; tables are unbounded hash maps, so spreading the anchor
        // only removes systematic aliasing.
        pattern ^ mix(u64::from(anchor_pc.word()))
    }

    /// Predicts the next indirect branch and its target from the current
    /// history — *before* the front end has even fetched the branch.
    #[must_use]
    pub fn predict_next(&self) -> Option<AheadPrediction> {
        self.table
            .get(&self.key_of(&self.history, self.last_pc))
            .map(|e| AheadPrediction {
                pc: e.pc,
                target: e.target.hit().target,
            })
    }

    /// Runs the predictor ahead of execution: returns up to `depth`
    /// predicted (branch, target) pairs, each obtained by pushing the
    /// previous *predicted* target into a scratch history. Stops early at
    /// the first table miss.
    #[must_use]
    pub fn predict_chain(&self, depth: usize) -> Vec<AheadPrediction> {
        let mut scratch = self.history.clone();
        let mut anchor = self.last_pc;
        let mut out = Vec::with_capacity(depth);
        for _ in 0..depth {
            match self.table.get(&self.key_of(&scratch, anchor)) {
                None => break,
                Some(e) => {
                    let p = AheadPrediction {
                        pc: e.pc,
                        target: e.target.hit().target,
                    };
                    scratch.push(p.target);
                    anchor = p.pc;
                    out.push(p);
                }
            }
        }
        out
    }

    /// Number of stored history patterns.
    #[must_use]
    pub fn stored_patterns(&self) -> usize {
        self.table.len()
    }
}

impl Predictor for AheadPredictor {
    fn predict(&self, pc: Addr) -> Option<Addr> {
        // Scored like an ordinary predictor: the prediction only counts
        // when the anticipated branch address matches the branch actually
        // being predicted.
        self.predict_next().filter(|p| p.pc == pc).map(|p| p.target)
    }

    fn update(&mut self, pc: Addr, actual: Addr) {
        let key = self.key_of(&self.history, self.last_pc);
        match self.table.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                let e = o.get_mut();
                // Train the pc component with the same two-consecutive-miss
                // hysteresis as targets.
                if e.pc == pc {
                    e.pc_miss_bit = false;
                    e.target.train(actual, self.rule);
                } else if e.pc_miss_bit {
                    *e = AheadEntry {
                        pc,
                        target: Slot::new(actual, 2),
                        pc_miss_bit: false,
                    };
                } else {
                    e.pc_miss_bit = true;
                }
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(AheadEntry {
                    pc,
                    target: Slot::new(actual, 2),
                    pc_miss_bit: false,
                });
            }
        }
        self.history.push(actual);
        self.last_pc = pc;
    }

    fn name(&self) -> String {
        format!("ahead p={} (next-branch + target)", self.path_len)
    }

    fn snapshot(&self) -> Option<Snapshot> {
        Some(self.structural_snapshot())
    }

    fn probe_key_fingerprint(&self, pc: Addr) -> Option<u64> {
        // The ahead key ignores the queried pc (it anchors on the *last*
        // branch), so the fingerprint is the key the next update will use.
        let _ = pc;
        Some(self.key_of(&self.history, self.last_pc))
    }
}

impl StructuralSnapshot for AheadPredictor {
    fn structural_snapshot(&self) -> Snapshot {
        // Target slots carry 2-bit confidence (see `update`).
        let mut confidence = vec![0u64; 4];
        for e in self.table.values() {
            confidence[e.target.hit().confidence as usize] += 1;
        }
        Snapshot {
            components: vec![ComponentSnapshot {
                label: format!("p={} ahead unbounded", self.path_len),
                table: TableSnapshot {
                    occupied: self.table.len() as u64,
                    capacity: None,
                    evictions: 0,
                    tag_conflicts: 0,
                    confidence,
                    lru_depths: Vec::new(),
                },
                history: None,
            }],
            selectors: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(raw: u32) -> Addr {
        Addr::new(raw)
    }

    /// A deterministic three-branch cycle.
    fn cycle() -> Vec<(Addr, Addr)> {
        vec![
            (a(0x100), a(0x900)),
            (a(0x200), a(0xA00)),
            (a(0x300), a(0xB00)),
        ]
    }

    fn train(p: &mut AheadPredictor, rounds: usize) {
        for _ in 0..rounds {
            for &(pc, t) in &cycle() {
                p.update(pc, t);
            }
        }
    }

    #[test]
    fn anticipates_next_branch_and_target() {
        let mut p = AheadPredictor::new(3);
        train(&mut p, 5);
        // History now ends after a full cycle; the next branch is 0x100.
        let next = p.predict_next().expect("trained");
        assert_eq!(next.pc, a(0x100));
        assert_eq!(next.target, a(0x900));
    }

    #[test]
    fn chains_arbitrarily_far_on_periodic_code() {
        let mut p = AheadPredictor::new(3);
        train(&mut p, 6);
        let chain = p.predict_chain(9);
        assert_eq!(chain.len(), 9);
        // The chain walks the cycle exactly.
        for (i, pred) in chain.iter().enumerate() {
            let expect = cycle()[i % 3];
            assert_eq!((pred.pc, pred.target), expect, "depth {i}");
        }
    }

    #[test]
    fn scored_as_predictor_requires_pc_match() {
        let mut p = AheadPredictor::new(3);
        train(&mut p, 5);
        // Correct anticipated branch: prediction offered.
        assert_eq!(p.predict(a(0x100)), Some(a(0x900)));
        // A different branch than anticipated: no prediction.
        assert_eq!(p.predict(a(0x300)), None);
    }

    #[test]
    fn chain_stops_at_unseen_history() {
        let p = AheadPredictor::new(2);
        assert!(p.predict_chain(4).is_empty());
        assert_eq!(p.predict_next(), None);
    }

    #[test]
    fn pc_hysteresis_requires_two_misses() {
        let mut p = AheadPredictor::new(1);
        // Pattern [0x900] -> (0x200, 0xA00), trained twice.
        p.update(a(0x100), a(0x900));
        p.update(a(0x200), a(0xA00));
        p.update(a(0x100), a(0x900));
        p.update(a(0x200), a(0xA00));
        // One deviation after [0x900] does not replace the entry...
        p.update(a(0x100), a(0x900));
        p.update(a(0x500), a(0xF00));
        p.update(a(0x100), a(0x900));
        assert_eq!(p.predict_next().map(|x| x.pc), Some(a(0x200)));
    }

    #[test]
    fn stores_patterns_and_names() {
        let mut p = AheadPredictor::new(4);
        train(&mut p, 3);
        assert!(p.stored_patterns() > 0);
        assert!(p.name().contains("ahead p=4"));
    }

    #[test]
    #[should_panic(expected = "path length")]
    fn zero_path_rejected() {
        let _ = AheadPredictor::new(0);
    }
}
