//! Path-length families folded one depth at a time (§3, Figures 9 and
//! 10).
//!
//! A full-precision key of path length `p` is the table word `pc >> h`
//! followed by the `p` newest history elements, so it extends the key of
//! length `p − 1` by one word: every length-`p` pattern grows out of a
//! length-`(p − 1)` one (§5.1's census). A [`PathTrie`] names each
//! distinct key prefix by a node, keyed by its parent node's id and its
//! last word, and folds every path length of a family over one buffered
//! trace, one depth at a time: depth `d`'s nodes need only depth
//! `d − 1`'s ids, so only one depth's nodes are ever live.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use ibp_trace::{Addr, TraceEvent};

use crate::hash::WordHasher;
use crate::history::{HistoryElement, MAX_PATH};
use crate::key::{FullKeySpec, TableSharing};
use crate::predictor::UpdateRule;
use crate::table::Slot;

/// What the members of a *path-length family* share: every parameter of a
/// full-precision, unbounded two-level configuration over global history
/// except its path length. Global history is the paper's setting for its
/// path-length sweeps (§3, Figures 9 and 10), and the one history
/// register a trie keeps.
/// [`PredictorConfig::path_family`](crate::PredictorConfig::path_family)
/// reads it off a configuration; two configurations with equal families
/// build predictors that differ only in how many history elements their
/// keys read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathFamily {
    pub(crate) table_sharing: TableSharing,
    pub(crate) element: HistoryElement,
    pub(crate) precision: Option<u32>,
    pub(crate) rule: UpdateRule,
    pub(crate) confidence_bits: u8,
    pub(crate) include_cond: bool,
}

/// The index before the history's oldest element, `0 − 1`. A key that
/// reads that far reads [`Addr::ZERO`], as from a cold register.
const COLD: u32 = u32::MAX;

/// A buffered indirect branch, folded in place: its target, its node at
/// the depth last folded, and the element its key reads at the next depth.
#[derive(Debug, Clone, Copy)]
struct Walker {
    target: Addr,
    /// Until depth 0 is folded, the key's first word, `pc >> h`.
    node: u32,
    /// An index into the element chain, or [`COLD`].
    next: u32,
}

/// A node's first child at the next depth: the child's last key word and
/// its id.
#[derive(Clone, Copy)]
struct FirstChild {
    word: u32,
    node: u32,
}

impl FirstChild {
    /// A node with no child yet.
    const NONE: FirstChild = FirstChild {
        word: 0,
        node: u32::MAX,
    };
}

/// The children of a depth's nodes after each node's first, keyed by
/// `parent << 32 | word`.
type ChildMap = HashMap<u64, u32, BuildHasherDefault<WordHasher>>;

/// A path-length family folded as one lane: the unconstrained two-level
/// predictors of one [`PathFamily`] at several path lengths, over one
/// buffered trace and one prefix trie.
///
/// # Layout
///
/// [`fold_chunk`](PathTrie::fold_chunk) only buffers. Each indirect
/// branch appends one walker: its target, its table word and the index of
/// the history's newest element (12 bytes). Each element the branch, or
/// a conditional branch when the family records conditional targets,
/// shifts into the history appends its key word (4 bytes). The history is
/// one global register, so the elements form one chain in trace order:
/// element `i`'s older neighbour is element `i − 1`, and reading a
/// branch's key one word deeper steps its index down by one; past element
/// 0 it reads the cold register's [`Addr::ZERO`]. The walkers and the
/// elements are the trie's only per-branch arrays: 16 bytes a branch,
/// plus 4 a conditional branch with conditional targets, from the first
/// chunk to the end of `finish`.
/// [`sized_for`](PathTrie::sized_for) allocates them once for the trace's
/// length; unsized, they grow as they fill.
///
/// [`finish`](PathTrie::finish) then folds the walkers in place, in trace
/// order, at depth 0, depth 1 and so on to the deepest member's: depth 0
/// replaces each walker's table word by its node, and each deeper depth
/// replaces its node by its child's and steps its index one element older.
/// Depth `d`'s node for key words `w0..=wd` is the child of the branch's
/// node at depth `d − 1` (of one root at depth 0) by the word `wd`, and it
/// holds depth `d`'s entry. Nodes are numbered in order of creation,
/// from 0 at each depth. Each node of the depth before keeps its first
/// child inline, in an array indexed by its id, so a probe that matches
/// it hashes nothing; only later children are found in a map keyed by
/// `parent << 32 | wd` ([`hashed`](PathTrie::hashed) counts those
/// probes). Past the shallowest depths most probes match the first
/// child. A node id names its whole prefix, so depth `d`'s nodes
/// correspond one to one with the distinct keys of the path length `d`
/// predictor, and each entry trains on its own branches in trace order,
/// exactly as that predictor's does: per-member results are exact.
///
/// A branch whose depth-`d` node no other branch visits leaves the fold:
/// each of its deeper nodes is new on its one visit, so it stores one key
/// per deeper depth and, where that depth is a member and the branch is
/// scored, one miss, with no probe. Depths between the members that no
/// member scores still get nodes, since deeper nodes hang off them, but
/// their entries are never trained or read.
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
/// trie.finish();
/// assert_eq!(trie.scored(), 100);
/// assert!(trie.mispredicted(0) >= 50, "p = 0, a BTB, cannot learn an alternation");
/// assert!(trie.mispredicted(1) <= 4, "p = 1 can");
/// assert_eq!(trie.stored_patterns(1), 3, "the cold history, then each target");
/// ```
#[derive(Debug, Clone)]
pub struct PathTrie {
    family: PathFamily,
    /// The key recipe of the deepest member: every shallower key is a
    /// prefix of its words.
    key: FullKeySpec,
    /// The members' path lengths, in member order.
    depths: Vec<usize>,
    /// Whether some member scores depth `d`.
    member_at: [bool; MAX_PATH + 1],
    /// Indirect branches that train every member unscored.
    warmup: u64,
    /// The indirect branches buffered so far, in trace order.
    walkers: Vec<Walker>,
    /// Every history element recorded so far as its key word, in trace
    /// order: the global history, oldest first.
    elements: Vec<u32>,
    /// The buffer's bytes when the fold began.
    buffer_bytes: u64,
    finished: bool,
    scored: u64,
    mispredicted: [u64; MAX_PATH + 1],
    patterns: [u64; MAX_PATH + 1],
    probes: u64,
    hashed: u64,
    pruned: u64,
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
            family,
            key: FullKeySpec::new(deepest, family.table_sharing, family.precision),
            depths: depths.to_vec(),
            member_at,
            warmup,
            walkers: Vec::new(),
            elements: Vec::new(),
            buffer_bytes: 0,
            finished: false,
            scored: 0,
            mispredicted: [0; MAX_PATH + 1],
            patterns: [0; MAX_PATH + 1],
            probes: 0,
            hashed: 0,
            pruned: 0,
        }
    }

    /// Sizes the buffer for a trace of `branches` indirect branches, so
    /// that it is allocated once: the walkers, and the elements too when
    /// the family takes no conditional targets (one element a branch). A
    /// longer trace still folds, its buffer growing as it fills, and so
    /// does any trace when the allocation fails.
    #[must_use]
    pub fn sized_for(mut self, branches: u64) -> Self {
        let branches = usize::try_from(branches).unwrap_or(usize::MAX);
        self.walkers.try_reserve_exact(branches).ok();
        if !self.family.include_cond {
            self.elements.try_reserve_exact(branches).ok();
        }
        self
    }

    /// The members' path lengths, in member order.
    #[must_use]
    pub fn depths(&self) -> &[usize] {
        &self.depths
    }

    /// Buffers the next chunk of events: each indirect branch, and the
    /// history element it records; a conditional branch records its
    /// element when the family takes conditional targets.
    ///
    /// # Panics
    ///
    /// Panics once the trie is [finished](PathTrie::finish).
    pub fn fold_chunk(&mut self, events: &[TraceEvent]) {
        assert!(!self.finished, "a finished PathTrie takes no more events");
        for event in events {
            match event {
                TraceEvent::Indirect(b) => {
                    let next = self.record(b.pc, b.target);
                    self.walkers.push(Walker {
                        target: b.target,
                        node: self.family.table_sharing.address_component(b.pc),
                        next,
                    });
                }
                TraceEvent::Cond(b) => {
                    if self.family.include_cond {
                        self.record(b.pc, b.outcome());
                    }
                }
            }
        }
    }

    /// Appends the element a branch at `pc` to `to` shifts into the
    /// history, and returns the element it displaces as the newest.
    fn record(&mut self, pc: Addr, to: Addr) -> u32 {
        let id = u32::try_from(self.elements.len())
            .ok()
            .filter(|&id| id != COLD)
            .expect("fewer than 2^32 - 1 history elements");
        let word = self.key.element_word(self.family.element.encode(pc, to));
        self.elements.push(word);
        id.wrapping_sub(1)
    }

    /// Folds the buffered trace, one depth at a time from 0 to the deepest
    /// member's, scores and trains every member, and frees the buffer. The
    /// results are read after this call. A second call does nothing, so
    /// the results stand; called before any chunk, it folds an empty
    /// trace, which scores nothing and stores no key.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let mut walkers = std::mem::take(&mut self.walkers);
        let elements = std::mem::take(&mut self.elements);
        self.buffer_bytes = (walkers.capacity() * std::mem::size_of::<Walker>()
            + elements.capacity() * std::mem::size_of::<u32>()) as u64;
        let (rule, confidence_bits) = (self.family.rule, self.family.confidence_bits);
        self.scored = (walkers.len() as u64).saturating_sub(self.warmup);
        // The walkers still in the fold that train unscored. Pruning keeps
        // the walkers' order, so these are their first `warm`.
        let mut warm = self.warmup;
        let cold = self.key.element_word(Addr::ZERO);
        // The nodes of the depth being folded, by id, and whether each has
        // had a second visit.
        let mut slots: Vec<Slot> = Vec::new();
        let mut shared: Vec<bool> = Vec::new();
        // Each node of the depth before's first child, by the node's id
        // (depth 0 hangs off one root, id 0), and its later children.
        let mut first: Vec<FirstChild> = Vec::new();
        let mut later: ChildMap = ChildMap::default();
        // Branches that left the fold at a shallower depth, and how many
        // of them are scored.
        let (mut left, mut left_scored) = (0u64, 0u64);
        let words = self.key.words();
        for d in 0..words {
            first.clear();
            first.resize(slots.len().max(1), FirstChild::NONE);
            later.clear();
            slots.clear();
            shared.clear();
            let member = self.member_at[d];
            let (mut misses, mut hashed) = (0u64, 0u64);
            for (i, w) in (0u64..).zip(&mut walkers) {
                let (parent, word) = if d == 0 {
                    (0, w.node)
                } else if let Some(&word) = elements.get(w.next as usize) {
                    w.next = w.next.wrapping_sub(1);
                    (w.node, word)
                } else {
                    (w.node, cold)
                };
                // Every branch records an element, so there are fewer
                // than 2^32 - 1 branches, and no node id reaches NONE's.
                let fresh = slots.len() as u32;
                let child = &mut first[parent as usize];
                let node = if child.node == FirstChild::NONE.node {
                    *child = FirstChild { word, node: fresh };
                    fresh
                } else if child.word == word {
                    child.node
                } else {
                    hashed += 1;
                    *later
                        .entry(u64::from(parent) << 32 | u64::from(word))
                        .or_insert(fresh)
                };
                let correct = if node == fresh {
                    slots.push(Slot::new(w.target, confidence_bits));
                    shared.push(false);
                    false
                } else {
                    shared[node as usize] = true;
                    member && slots[node as usize].train(w.target, rule)
                };
                misses += u64::from(!correct && i >= warm);
                w.node = node;
            }
            self.probes += walkers.len() as u64;
            self.hashed += hashed;
            self.patterns[d] = slots.len() as u64 + left;
            if member {
                self.mispredicted[d] = misses + left_scored;
            }
            if d + 1 < words {
                let (mut i, mut kept_warm) = (0u64, 0u64);
                walkers.retain(|w| {
                    let (stays, scored) = (shared[w.node as usize], i >= warm);
                    i += 1;
                    kept_warm += u64::from(stays && !scored);
                    left += u64::from(!stays);
                    left_scored += u64::from(!stays && scored);
                    stays
                });
                warm = kept_warm;
            }
        }
        self.pruned = left;
    }

    /// Panics unless the trie is finished: before that no member has
    /// scored anything.
    fn assert_finished(&self) {
        assert!(self.finished, "a PathTrie has no results before finish");
    }

    /// Indirect branches scored: the same for every member.
    ///
    /// # Panics
    ///
    /// Panics before [`finish`](PathTrie::finish).
    #[must_use]
    pub fn scored(&self) -> u64 {
        self.assert_finished();
        self.scored
    }

    /// Of the scored branches, how many the member of path length `depth`
    /// mispredicted (a table miss counts as a misprediction).
    ///
    /// # Panics
    ///
    /// Panics before [`finish`](PathTrie::finish), or if no member has
    /// path length `depth`.
    #[must_use]
    pub fn mispredicted(&self, depth: usize) -> u64 {
        self.assert_finished();
        assert!(
            depth <= MAX_PATH && self.member_at[depth],
            "no member has path length {depth}"
        );
        self.mispredicted[depth]
    }

    /// Distinct keys of path length `depth` stored: what the member's own
    /// table would hold
    /// ([`TwoLevelPredictor::stored_patterns`](crate::TwoLevelPredictor::stored_patterns)).
    /// Any depth up to the deepest member's has them.
    ///
    /// # Panics
    ///
    /// Panics before [`finish`](PathTrie::finish), or if `depth` exceeds
    /// the deepest member's path length.
    #[must_use]
    pub fn stored_patterns(&self, depth: usize) -> u64 {
        self.assert_finished();
        assert!(
            depth < self.key.words(),
            "depth {depth} is deeper than every member"
        );
        self.patterns[depth]
    }

    /// Node probes the fold made: over every depth, the branches still in
    /// the fold there. A fold without pruning makes one per branch and
    /// depth.
    #[must_use]
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Of the [`probes`](PathTrie::probes), those that looked a node up
    /// in the map of later children: its parent's first child had another
    /// word.
    #[must_use]
    pub fn hashed(&self) -> u64 {
        self.hashed
    }

    /// Branches that left the fold before the deepest depth, their node
    /// there visited by no other branch.
    #[must_use]
    pub fn pruned(&self) -> u64 {
        self.pruned
    }

    /// The bytes the buffer held when the fold began: its walkers' and
    /// its elements' capacity. A trie [sized](PathTrie::sized_for) for a
    /// trace without conditional targets holds 16 bytes a branch.
    #[must_use]
    pub fn buffer_bytes(&self) -> u64 {
        self.buffer_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PredictorConfig;
    use crate::kernel::{ChunkScorer, FoldKernel};
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

    /// One site whose branches go to `targets`, in order.
    fn one_site(targets: impl IntoIterator<Item = Addr>) -> Trace {
        let mut t = Trace::new("one-site");
        for target in targets {
            t.push_indirect(Addr::new(0x100), target, BranchKind::Switch);
        }
        t
    }

    /// A full-precision family over global history and per-address tables.
    fn plain(p: usize) -> PredictorConfig {
        PredictorConfig::unconstrained(p)
    }

    /// A trie over `depths` with `warmup`, fed `trace` in one chunk.
    fn buffered(
        config: fn(usize) -> PredictorConfig,
        depths: &[usize],
        trace: &Trace,
        warmup: u64,
    ) -> PathTrie {
        let (family, _) = config(0).path_family().expect("a full-key family");
        let mut trie = PathTrie::new(family, depths, warmup);
        trie.fold_chunk(trace.events());
        trie
    }

    /// Checks the finished `trie` against each path length's own kernel:
    /// every member's score, and every depth's stored keys.
    fn assert_matches_kernels(
        trie: &PathTrie,
        config: fn(usize) -> PredictorConfig,
        trace: &Trace,
        warmup: u64,
    ) {
        let deepest = trie.depths().iter().copied().max().expect("members");
        for d in 0..=deepest {
            let mut kernel = config(d).build_kernel();
            let mut scorer = ChunkScorer::new(warmup);
            kernel.fold_chunk(trace.events(), &mut scorer);
            let FoldKernel::TwoLevel(lane) = &kernel else {
                panic!("a full-key config folds as a two-level kernel");
            };
            assert_eq!(
                trie.stored_patterns(d),
                lane.stored_patterns() as u64,
                "keys at p={d}"
            );
            if trie.depths().contains(&d) {
                assert_eq!(
                    (trie.scored(), trie.mispredicted(d)),
                    (scorer.indirect(), scorer.mispredicted()),
                    "scored and mispredicted at p={d}"
                );
            }
        }
    }

    /// Folds `trace` through a finished trie and checks it against the
    /// kernels.
    fn exact(
        config: fn(usize) -> PredictorConfig,
        depths: &[usize],
        trace: &Trace,
        warmup: u64,
    ) -> PathTrie {
        let mut trie = buffered(config, depths, trace, warmup);
        trie.finish();
        assert_matches_kernels(&trie, config, trace, warmup);
        trie
    }

    /// One site cycling through six targets gives a node many children at
    /// one depth and one child at others. Depth 0's one node has seven
    /// children at depth 1, the cold register and each target before, so
    /// depth 1 has more nodes than depth 0, and every probe there after
    /// the first is hashed: 599. From depth 2 on, a lap fixes each
    /// target's predecessor, so five of the six nodes a branch can probe
    /// from have one child and match it inline. The sixth's first child
    /// is the cold one that the walker starting the cycle reads, so its
    /// later visits, 99 at depths 2–6 and 98 at 7 and 8, are hashed.
    #[test]
    fn first_children_match_inline_and_later_ones_through_the_map() {
        let lap: Vec<Addr> = (0..6).map(|i| Addr::from_word(0x1000 + i)).collect();
        let trace = one_site(lap.iter().copied().cycle().take(600));
        let trie = exact(plain, &[0, 1, 2, 4, 8], &trace, 0);
        assert_eq!((trie.stored_patterns(0), trie.stored_patterns(1)), (1, 7));
        assert_eq!(trie.hashed(), 599 + 5 * 99 + 2 * 98);
        assert_eq!(trie.pruned(), 7, "each depth's cold walker leaves");
        assert_eq!(trie.probes(), 600 + 600 + (593..=599).sum::<u64>());

        let trace = lcg_trace(3_000);
        let families: [fn(usize) -> PredictorConfig; 2] = [plain, |p| {
            PredictorConfig::unconstrained(p)
                .with_table_sharing(crate::TableSharing::GLOBAL)
                .with_cond_targets(true)
        }];
        for config in families {
            let trie = exact(config, &[0, 1, 2, 3, 4, 6], &trace, 0);
            assert!(0 < trie.hashed() && trie.hashed() < trie.probes());
        }
    }

    /// The buffer the docs quote: 12 bytes a walker and 4 an element, so a
    /// trie sized for its trace holds 16 bytes an indirect branch. With
    /// conditional targets only the walkers are sized; the elements, one
    /// per indirect and conditional branch, grow as they fill.
    #[test]
    fn a_branch_buffers_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Walker>(), 12);
        let trace = lcg_trace(1_000);
        let conds = (trace.events().len() - 1_000) as u64;
        let sized = |config: fn(usize) -> PredictorConfig, branches: u64| {
            let (family, _) = config(0).path_family().expect("a full-key family");
            let mut trie = PathTrie::new(family, &[0, 1, 2], 0).sized_for(branches);
            trie.fold_chunk(trace.events());
            trie.finish();
            assert_matches_kernels(&trie, config, &trace, 0);
            trie.buffer_bytes()
        };
        assert_eq!(sized(plain, 1_000), 16 * 1_000);
        let with_cond: fn(usize) -> PredictorConfig =
            |p| PredictorConfig::unconstrained(p).with_cond_targets(true);
        let bytes = sized(with_cond, 1_000);
        assert!(bytes >= 12 * 1_000 + 4 * (1_000 + conds), "{bytes}");
        assert!(
            sized(plain, 600) > 16 * 1_000,
            "a short size grows as it fills"
        );
    }

    /// Depths 0 and 2 are no member's. Most branches leave the fold at
    /// depth 1 or 2, so each warmup ends among branches that stay in it
    /// after earlier ones left: fewer walkers than the warmup are still
    /// warming at depths 2 and 3.
    #[test]
    fn unscored_depths_keep_nodes_but_score_nothing() {
        let trace = lcg_trace(500);
        for warmup in [100, 233, 377, 499] {
            let trie = exact(plain, &[3, 1, 3], &trace, warmup);
            assert_eq!(trie.depths(), [3, 1, 3]);
            assert_eq!(trie.scored(), 500 - warmup);
        }
    }

    #[test]
    #[should_panic(expected = "no member has path length 2")]
    fn unscored_depths_have_no_misprediction_count() {
        let trie = exact(plain, &[1, 3], &lcg_trace(50), 0);
        let _ = trie.mispredicted(2);
    }

    /// Distinct targets at one site: every branch shares the one depth-0
    /// node, and its depth-1 node, keyed by the previous target, is its
    /// own. So every branch leaves the fold at depth 1, after two probes.
    #[test]
    fn every_branch_leaves_at_depth_one() {
        let n = 300u64;
        let trace = one_site((1..=n as u32).map(|i| Addr::from_word(0x1000 + i)));
        let trie = exact(plain, &[0, 1, 2, 5], &trace, 0);
        assert_eq!(trie.pruned(), n);
        assert_eq!(trie.probes(), 2 * n);
        assert_eq!(trie.stored_patterns(5), n);
        assert_eq!(trie.mispredicted(5), n);
    }

    /// A cycle whose zero targets read like the cold register: from the
    /// third lap on every branch revisits the nodes of an earlier one, and
    /// so does every branch of the first, at every depth. No branch ever
    /// leaves the fold.
    #[test]
    fn a_short_cycle_never_prunes() {
        let lap = [Addr::ZERO, Addr::ZERO, Addr::ZERO, Addr::new(0x900)];
        let trace = one_site(lap.iter().copied().cycle().take(40));
        let trie = exact(plain, &[0, 1, 2, 3], &trace, 0);
        assert_eq!(trie.pruned(), 0);
        assert_eq!(trie.probes(), 4 * 40);
        assert!(trie.mispredicted(3) < trie.mispredicted(0));
    }

    #[test]
    fn an_empty_trace_scores_nothing() {
        let trie = exact(plain, &[0, 2], &Trace::new("empty"), 0);
        assert_eq!(trie.scored(), 0);
        assert_eq!(trie.mispredicted(2), 0);
        assert_eq!(trie.stored_patterns(1), 0);
        assert_eq!((trie.probes(), trie.pruned()), (0, 0));
    }

    /// A warmup at least as long as the trace scores nothing, yet every
    /// depth still stores what its kernel stores.
    #[test]
    fn a_warmup_as_long_as_the_trace_scores_nothing() {
        let trace = lcg_trace(400);
        for warmup in [400, 401, u64::MAX] {
            let trie = exact(plain, &[0, 1, 3, 6, 8], &trace, warmup);
            assert_eq!(trie.scored(), 0);
            assert_eq!(trie.mispredicted(8), 0);
        }
    }

    /// The warmup ends among branches that all leave the fold at depth 1:
    /// their deeper misses count from the first scored one on.
    #[test]
    fn a_warmup_ending_inside_a_pruned_chain() {
        let trace = one_site((1..=200u32).map(|i| Addr::from_word(0x1000 + i)));
        let trie = exact(plain, &[0, 3, 4], &trace, 117);
        assert_eq!(trie.pruned(), 200);
        assert_eq!(trie.mispredicted(4), 200 - 117);
    }

    /// Conditional targets interleave the chain's elements with the
    /// walkers, and a chunk boundary falls anywhere in it.
    #[test]
    fn the_chain_matches_the_kernels_across_chunks() {
        let trace = lcg_trace(2_000);
        let config: fn(usize) -> PredictorConfig =
            |p| PredictorConfig::unconstrained(p).with_cond_targets(true);
        let (family, _) = config(0).path_family().expect("a full-key family");
        let mut trie = PathTrie::new(family, &[0, 1, 2, 4, 7], 37);
        for chunk in trace.events().chunks(333) {
            trie.fold_chunk(chunk);
        }
        trie.finish();
        assert_matches_kernels(&trie, config, &trace, 37);
    }

    /// `finish` folds once: a second call leaves every result as it was,
    /// and a trie finished before any chunk holds an empty trace's.
    #[test]
    fn finish_folds_once() {
        let trace = lcg_trace(700);
        let mut trie = exact(plain, &[0, 1, 2], &trace, 50);
        let first = (trie.scored(), trie.mispredicted(2), trie.probes());
        trie.finish();
        assert_eq!((trie.scored(), trie.mispredicted(2), trie.probes()), first);
        assert_matches_kernels(&trie, plain, &trace, 50);

        let (family, _) = plain(0).path_family().expect("family");
        let mut unfed = PathTrie::new(family, &[0, 1, 2], 50);
        unfed.finish();
        assert_eq!(unfed.scored(), 0);
        assert_eq!(unfed.mispredicted(1), 0);
        assert_eq!(unfed.stored_patterns(2), 0);
    }

    #[test]
    #[should_panic(expected = "a finished PathTrie takes no more events")]
    fn a_finished_trie_takes_no_more_events() {
        let (family, _) = plain(0).path_family().expect("family");
        let mut trie = PathTrie::new(family, &[0, 1], 0);
        trie.finish();
        trie.fold_chunk(lcg_trace(10).events());
    }

    #[test]
    #[should_panic(expected = "a PathTrie has no results before finish")]
    fn an_unfinished_trie_has_no_results() {
        let trie = buffered(plain, &[0, 1], &lcg_trace(10), 0);
        let _ = trie.mispredicted(1);
    }
}
