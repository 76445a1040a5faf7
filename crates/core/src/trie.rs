//! Path-length families folded as one prefix-trie walk (§3, Figures 9
//! and 10).
//!
//! A full-precision key of path length `p` is the table word `pc >> h`
//! followed by the `p` newest history elements, so it extends the key of
//! length `p − 1` by one word: every length-`p` pattern grows out of a
//! length-`(p − 1)` one (§5.1's census). A [`PathTrie`] stores each
//! distinct key prefix once, as a node keyed by its parent node's id and
//! its last word, and one walk from the root down an event's key scores
//! and trains every path length of a family at once.

use ibp_trace::{Addr, TraceEvent};

use crate::history::{Histories, HistoryElement, HistorySharing, MAX_PATH};
use crate::key::{FullKeySpec, TableSharing};
use crate::predictor::UpdateRule;
use crate::table::UnboundedTable;

/// What the members of a *path-length family* share: every parameter of a
/// full-precision, unbounded two-level configuration except its path
/// length. [`PredictorConfig::path_family`](crate::PredictorConfig::path_family)
/// reads it off a configuration; two configurations with equal families
/// build predictors that differ only in how many history elements their
/// keys read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathFamily {
    pub(crate) history_sharing: HistorySharing,
    pub(crate) table_sharing: TableSharing,
    pub(crate) element: HistoryElement,
    pub(crate) precision: Option<u32>,
    pub(crate) rule: UpdateRule,
    pub(crate) confidence_bits: u8,
    pub(crate) include_cond: bool,
}

/// The parent word of a depth-0 node. Node ids start at zero, so a parent
/// is named by its id plus one.
const ROOT: u32 = 0;

/// The multiplier of the rolling tag, as in [`UnboundedTable`]'s own tag.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Folds one more key word into a rolling hash.
fn roll(h: u64, word: u32) -> u64 {
    (h.rotate_left(5) ^ u64::from(word)).wrapping_mul(K)
}

/// The 32-bit tag of a rolling hash: a final multiply, so the low bits,
/// which pick the home bucket, depend on every word folded in.
fn finish(h: u64) -> u32 {
    ((h ^ (h >> 32)).wrapping_mul(K) >> 32) as u32
}

/// A path-length family folded as one lane: the unconstrained two-level
/// predictors of one [`PathFamily`] at several path lengths, over one
/// history and one prefix trie.
///
/// # Layout
///
/// The trie lives in one [`UnboundedTable`] of 2-word keys. The node for
/// key words `w0..=wd` sits at depth `d`, keyed by `[parent, wd]`, where
/// `parent` names the node for `w0..wd` (or the root at depth 0), and it
/// holds depth `d`'s entry. A node id names its whole prefix, so depth
/// `d`'s nodes correspond one to one with the distinct keys of the path
/// length `d` predictor, and its entries train exactly as that
/// predictor's do: per-member results are exact. Each depth's probe
/// starts from a rolling tag over the key's words `0..=d` rather than from
/// a hash of the parent's id, so an event's probes depend on no earlier
/// probe's load and can overlap.
///
/// Depths between the members that no member scores still get nodes, since
/// deeper nodes hang off them, but their entries are never trained or
/// read.
///
/// # Example
///
/// ```
/// use ibp_core::{PathTrie, PredictorConfig};
/// use ibp_trace::{Addr, BranchKind, Trace};
///
/// let mut trace = Trace::new("alt");
/// for i in 0..100u32 {
///     let target = if i % 2 == 0 { 0x900 } else { 0xA00 };
///     trace.push_indirect(Addr::new(0x100), Addr::new(target), BranchKind::Switch);
/// }
/// let (family, _) = PredictorConfig::unconstrained(0).path_family().unwrap();
/// let mut trie = PathTrie::new(family, &[0, 1, 2], 0);
/// trie.fold_chunk(trace.events());
/// assert_eq!(trie.scored(), 100);
/// assert!(trie.mispredicted(0) >= 50, "p = 0, a BTB, cannot learn an alternation");
/// assert!(trie.mispredicted(1) <= 4, "p = 1 can");
/// assert_eq!(trie.stored_patterns(1), 3, "the cold history, then each target");
/// ```
#[derive(Debug, Clone)]
pub struct PathTrie {
    histories: Histories,
    /// The key recipe of the deepest member: every shallower key is a
    /// prefix of its words.
    key: FullKeySpec,
    table: UnboundedTable,
    rule: UpdateRule,
    include_cond: bool,
    /// The members' path lengths, in member order.
    depths: Vec<usize>,
    /// Whether some member scores depth `d`.
    member_at: [bool; MAX_PATH + 1],
    /// Indirect events still to consume unscored.
    to_warm: u64,
    scored: u64,
    mispredicted: [u64; MAX_PATH + 1],
    patterns: [u64; MAX_PATH + 1],
}

impl PathTrie {
    /// A trie over the members of `family` with path lengths `depths`
    /// (in member order; a length may repeat). The first `warmup`
    /// indirect branches train every member without being scored.
    ///
    /// # Panics
    ///
    /// Panics if `depths` is empty or a length exceeds [`MAX_PATH`].
    #[must_use]
    pub fn new(family: PathFamily, depths: &[usize], warmup: u64) -> Self {
        let deepest = *depths.iter().max().expect("a family has members");
        assert!(
            deepest <= MAX_PATH,
            "path length {deepest} exceeds {MAX_PATH}"
        );
        let mut member_at = [false; MAX_PATH + 1];
        for &d in depths {
            member_at[d] = true;
        }
        PathTrie {
            histories: Histories::new(family.history_sharing, family.element, deepest),
            key: FullKeySpec::new(deepest, family.table_sharing, family.precision),
            table: UnboundedTable::new(2, family.confidence_bits),
            rule: family.rule,
            include_cond: family.include_cond,
            depths: depths.to_vec(),
            member_at,
            to_warm: warmup,
            scored: 0,
            mispredicted: [0; MAX_PATH + 1],
            patterns: [0; MAX_PATH + 1],
        }
    }

    /// The members' path lengths, in member order.
    #[must_use]
    pub fn depths(&self) -> &[usize] {
        &self.depths
    }

    /// Folds the next chunk of events: for each indirect branch, one walk
    /// down its key scores every member (when past the warmup) and trains
    /// it; conditional branches feed the history when the family takes
    /// conditional targets.
    pub fn fold_chunk(&mut self, events: &[TraceEvent]) {
        self.fold_with(events, |tag| tag);
    }

    /// [`fold_chunk`](PathTrie::fold_chunk) with every probe's tag passed
    /// through `narrow`. Tests narrow the tags to force collisions, which
    /// the node comparison alone must then resolve.
    fn fold_with(&mut self, events: &[TraceEvent], narrow: impl Fn(u32) -> u32 + Copy) {
        let width = self.key.words();
        for event in events {
            match event {
                TraceEvent::Indirect(b) => {
                    let scored = if self.to_warm > 0 {
                        self.to_warm -= 1;
                        false
                    } else {
                        self.scored += 1;
                        true
                    };
                    let mut words = [0u32; MAX_PATH + 1];
                    let words = &mut words[..width];
                    self.key.write(b.pc, self.histories.register(b.pc), words);
                    self.walk(words, b.target, scored, narrow);
                    self.histories.record(b.pc, b.target);
                }
                TraceEvent::Cond(b) => {
                    if self.include_cond {
                        self.histories.record(b.pc, b.outcome());
                    }
                }
            }
        }
    }

    /// One event's walk from the root down the nodes of `words`. Every
    /// depth's tag, and the home bucket it picks, is read before the first
    /// probe, so the walk's index loads overlap instead of waiting on one
    /// another. The homes stay valid until the walk inserts a node; from
    /// there down every node is new, and each probe re-reads its home.
    fn walk(&mut self, words: &[u32], actual: Addr, scored: bool, narrow: impl Fn(u32) -> u32) {
        let mut tags = [0u32; MAX_PATH + 1];
        let mut h = 0u64;
        for (tag, &word) in tags.iter_mut().zip(words) {
            h = roll(h, word);
            *tag = narrow(finish(h));
        }
        let mut homes = [0u64; MAX_PATH + 1];
        for (home, &tag) in homes.iter_mut().zip(&tags[..words.len()]) {
            *home = self.table.home(tag);
        }
        let mut parent = ROOT;
        let mut grew = false;
        for (d, (&word, &tag)) in words.iter().zip(&tags).enumerate() {
            let home = if grew { self.table.home(tag) } else { homes[d] };
            let (id, entry) = self
                .table
                .entry_from_home([parent, word], tag, home, actual);
            let correct = match entry {
                Some(slot) => self.member_at[d] && slot.train(actual, self.rule),
                None => {
                    self.patterns[d] += 1;
                    grew = true;
                    false
                }
            };
            if scored && !correct && self.member_at[d] {
                self.mispredicted[d] += 1;
            }
            parent = id + 1;
        }
    }

    /// Indirect branches scored so far: the same for every member.
    #[must_use]
    pub fn scored(&self) -> u64 {
        self.scored
    }

    /// Of the scored branches, how many the member of path length `depth`
    /// mispredicted (a table miss counts as a misprediction).
    ///
    /// # Panics
    ///
    /// Panics if no member has path length `depth`.
    #[must_use]
    pub fn mispredicted(&self, depth: usize) -> u64 {
        assert!(
            depth <= MAX_PATH && self.member_at[depth],
            "no member has path length {depth}"
        );
        self.mispredicted[depth]
    }

    /// Distinct keys of path length `depth` stored so far: what the
    /// member's own table would hold
    /// ([`TwoLevelPredictor::stored_patterns`](crate::TwoLevelPredictor::stored_patterns)).
    /// Any depth up to the deepest member's has them.
    ///
    /// # Panics
    ///
    /// Panics if `depth` exceeds the deepest member's path length.
    #[must_use]
    pub fn stored_patterns(&self, depth: usize) -> u64 {
        assert!(
            depth < self.key.words(),
            "depth {depth} is deeper than every member"
        );
        self.patterns[depth]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PredictorConfig;
    use crate::predictor::Predictor;
    use ibp_trace::{BranchKind, Trace};

    /// A trace over 40 sites and 24 targets from a fixed linear
    /// congruential sequence, with a conditional branch every fifth event.
    fn lcg_trace(n: u32) -> Trace {
        let mut t = Trace::new("lcg");
        let mut x = 12_345u32;
        for i in 0..n {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            let site = Addr::from_word(0x400 + (x >> 16) % 40);
            let target = Addr::from_word(0x2000 + (x >> 8) % 24 * 3);
            t.push_indirect(site, target, BranchKind::VirtualCall);
            if i % 5 == 0 {
                t.push_cond(
                    Addr::from_word(0x100),
                    Addr::from_word(0x180 + i % 7),
                    i % 2 == 0,
                );
            }
        }
        t
    }

    /// Each member's (mispredicted, stored keys) from its own predictor.
    fn lanes(
        config: fn(usize) -> PredictorConfig,
        depths: &[usize],
        trace: &Trace,
    ) -> Vec<(u64, u64)> {
        depths
            .iter()
            .map(|&p| {
                let mut lane = config(p).try_build_two_level().expect("valid config");
                let mut misses = 0;
                for event in trace.events() {
                    match event {
                        TraceEvent::Indirect(b) => {
                            misses += u64::from(lane.predict(b.pc) != Some(b.target));
                            lane.update(b.pc, b.target);
                        }
                        TraceEvent::Cond(b) => lane.observe_cond(b.pc, b.outcome()),
                    }
                }
                (misses, lane.stored_patterns() as u64)
            })
            .collect()
    }

    /// With tags narrowed to a few bits, most nodes share their tag with
    /// nodes of other prefixes, and only the comparison of the parent id
    /// and the last word tells them apart: results must stay exact.
    #[test]
    fn colliding_tags_leave_results_exact() {
        let trace = lcg_trace(3_000);
        let families: [fn(usize) -> PredictorConfig; 2] = [PredictorConfig::unconstrained, |p| {
            PredictorConfig::unconstrained(p)
                .with_table_sharing(crate::TableSharing::GLOBAL)
                .with_cond_targets(true)
        }];
        let depths = [0, 1, 2, 3, 4, 6];
        for config in families {
            let expected = lanes(config, &depths, &trace);
            let (family, _) = config(0).path_family().expect("a full-key family");
            for bits in [2u32, 8, 32] {
                let mut trie = PathTrie::new(family, &depths, 0);
                trie.fold_with(trace.events(), |tag| tag & (u32::MAX >> (32 - bits)));
                let got: Vec<(u64, u64)> = depths
                    .iter()
                    .map(|&d| (trie.mispredicted(d), trie.stored_patterns(d)))
                    .collect();
                assert_eq!(got, expected, "{}-bit tags", bits);
            }
        }
    }

    #[test]
    fn unscored_depths_keep_nodes_but_score_nothing() {
        let trace = lcg_trace(500);
        let (family, _) = PredictorConfig::unconstrained(0)
            .path_family()
            .expect("family");
        let mut trie = PathTrie::new(family, &[3, 1, 3], 100);
        trie.fold_chunk(trace.events());
        assert_eq!(trie.depths(), [3, 1, 3]);
        assert_eq!(trie.scored(), 400);
        let expected = lanes(PredictorConfig::unconstrained, &[0, 2], &trace);
        assert_eq!(trie.stored_patterns(0), expected[0].1);
        assert_eq!(trie.stored_patterns(2), expected[1].1);
    }

    #[test]
    #[should_panic(expected = "no member has path length 2")]
    fn unscored_depths_have_no_misprediction_count() {
        let (family, _) = PredictorConfig::unconstrained(0)
            .path_family()
            .expect("family");
        let _ = PathTrie::new(family, &[1, 3], 0).mispredicted(2);
    }
}
