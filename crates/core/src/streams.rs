//! The component bank of a pass: every key stream built once per distinct
//! recipe, and every component table folded once per distinct identity.
//!
//! A compressed key depends on the events alone: the history register runs
//! over the trace whatever the table predicts, and the key is a fixed
//! function of that register and the branch address. Lanes whose keys come
//! from the same [`KeyRecipe`], and whose histories start cold, therefore
//! see the same key for every event. A [`KeyStreams`] runs one history per
//! such recipe and writes each indirect event's key.
//!
//! A hybrid goes one level further: its components share no state, so a
//! component's pre-update lookups depend on the trace alone as well. A
//! *component* is one compressed-key table a lane reads: a single
//! two-level kernel, or one of a hybrid's components. Two components with
//! equal recipes and equal [`TableShape`]s (organisation, size, update rule
//! and confidence width), both with an empty table, answer and train
//! identically on every event, so the bank folds them as one: it trains
//! the table of the component's first holder in place and records every
//! lookup as a [`PredRecord`]. Each hybrid lane then replays its
//! [`MetaState`] rule over its components' records — the confidence rule,
//! the cascade's first hit, or the BPST selector — and scores the result.
//! The records are folded and replayed in blocks of at most
//! [`BLOCK_EVENTS`] indirect events, so the record buffers stay small
//! however many components a pass holds.
//!
//! A component that one lane alone holds records and replays the same
//! way. A shared-table hybrid reads its components' key streams and keeps
//! its own table step. [`sync`](KeyStreams::sync) gives every holder its
//! component's current table and its recipe's history, so every kernel
//! stands exactly where its own fold would have left it. A lane may report
//! into a [`ProbeSink`] as its own fold would, a single-table lane with
//! its stream's key as the key fingerprint.

use ibp_trace::{Addr, TraceEvent};

use crate::ext::SharedTableHybrid;
use crate::history::{Histories, HistoryElement, HistorySharing};
use crate::kernel::{
    fold_prekeyed, indirect_branches, no_fingerprint, ChunkScorer, FoldKernel, ProbeSink,
};
use crate::key::CompressedKeySpec;
use crate::meta::{MetaSpec, MetaState};
use crate::predictor::Predictor;
use crate::table::TableHit;
use crate::two_level::{TableShape, TwoLevelPredictor};

/// The most indirect events a recorded component folds at a time: one
/// block's lookup records per component.
pub const BLOCK_EVENTS: usize = 1024;

/// Everything that fixes a compressed-key predictor's key stream from the
/// events alone: the key spec, the history sharing and element, and
/// whether conditional-branch targets enter the history. Read it off a
/// predictor with [`TwoLevelPredictor::key_recipe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyRecipe {
    pub(crate) spec: CompressedKeySpec,
    pub(crate) sharing: HistorySharing,
    pub(crate) element: HistoryElement,
    pub(crate) include_cond: bool,
}

impl KeyRecipe {
    /// A cold first level of this recipe's shape.
    fn cold_histories(&self) -> Histories {
        Histories::new(self.sharing, self.element, self.spec.path_len())
    }
}

/// One component's pre-update table lookup for one indirect event: the
/// predicted target and its confidence, or a miss. 8 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredRecord {
    target: u32,
    confidence: u8,
    hit: bool,
}

impl PredRecord {
    /// Packs a lookup.
    #[must_use]
    pub fn pack(hit: Option<TableHit>) -> Self {
        match hit {
            Some(h) => PredRecord {
                target: h.target.raw(),
                confidence: h.confidence,
                hit: true,
            },
            None => PredRecord {
                target: 0,
                confidence: 0,
                hit: false,
            },
        }
    }

    /// The lookup this record packed.
    #[must_use]
    pub fn unpack(self) -> Option<TableHit> {
        self.hit.then_some(TableHit {
            target: Addr::new(self.target),
            confidence: self.confidence,
        })
    }
}

/// One recipe's history and the current chunk's keys.
#[derive(Debug, Clone)]
struct Stream {
    recipe: KeyRecipe,
    histories: Histories,
    keys: Vec<u64>,
}

impl Stream {
    /// Writes the key of every indirect event in `events`, shifting the
    /// history as the events go by — the key and history half of each
    /// event's `fused_step` and `observe_cond`.
    fn fill(&mut self, events: &[TraceEvent]) {
        let Stream {
            recipe,
            histories,
            keys,
        } = self;
        keys.clear();
        for event in events {
            match event {
                TraceEvent::Indirect(b) => {
                    keys.push(recipe.spec.key(b.pc, histories.register(b.pc)));
                    histories.record(b.pc, b.target);
                }
                TraceEvent::Cond(b) => {
                    if recipe.include_cond {
                        histories.record(b.pc, b.outcome());
                    }
                }
            }
        }
    }
}

/// Where a component's table lives: a part of an attached kernel.
#[derive(Debug, Clone, Copy)]
struct Holder {
    lane: usize,
    part: usize,
}

/// One distinct component table of the pass.
#[derive(Debug)]
struct Component {
    stream: usize,
    /// `None` for a table that was not empty when attached: it folds, but
    /// shares with no other holder.
    shape: Option<TableShape>,
    /// The first holder's table is the one that trains.
    holders: Vec<Holder>,
    /// The current block's lookups.
    records: Vec<PredRecord>,
}

/// How an attached lane folds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneFold {
    /// Per block, its arbitration over its components' records.
    Replay,
    /// Per chunk, a shared-table hybrid's own table step on its
    /// components' streams.
    SharedTable,
}

/// One attached kernel, what it reads — the component of each of its
/// parts, or for a shared-table hybrid the key stream of each of its
/// components — and its score.
struct BankLane<'k> {
    kernel: &'k mut FoldKernel,
    reads: Vec<usize>,
    fold: LaneFold,
    scorer: ChunkScorer<'k>,
}

/// The handle of a kernel attached to a [`KeyStreams`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyedLane(usize);

/// The two-level parts of a kernel the bank folds, in its order, or
/// `None` for a kernel that is not made of compressed-key tables.
fn parts(kernel: &FoldKernel) -> Option<Vec<&TwoLevelPredictor>> {
    Some(match kernel {
        FoldKernel::TwoLevel(p) => vec![p],
        FoldKernel::Hybrid(h) => h.components().iter().collect(),
        FoldKernel::SharedTable(_) | FoldKernel::Dyn(_) => return None,
    })
}

/// Part `part` of a kernel [`parts`] accepted.
fn part_mut(kernel: &mut FoldKernel, part: usize) -> &mut TwoLevelPredictor {
    match kernel {
        FoldKernel::TwoLevel(p) => p,
        FoldKernel::Hybrid(h) => &mut h.components_mut()[part],
        FoldKernel::SharedTable(_) | FoldKernel::Dyn(_) => {
            unreachable!("the bank folds no part of this kernel")
        }
    }
}

/// The component bank of one pass: one history and one chunk of keys per
/// distinct recipe, and one table and one block of lookups per distinct
/// component among the attached kernels.
///
/// [`attach`](KeyStreams::attach) (and [`probe`](KeyStreams::probe))
/// every kernel before the first chunk, then
/// [`fold_chunk`](KeyStreams::fold_chunk) each chunk, or each piece of one,
/// and read each lane's score off [`scorer`](KeyStreams::scorer). Between
/// two folds, [`sync`](KeyStreams::sync) brings every kernel up to date.
pub struct KeyStreams<'k> {
    streams: Vec<Stream>,
    components: Vec<Component>,
    lanes: Vec<BankLane<'k>>,
    /// The current chunk's indirect branches, addresses and targets apart.
    pcs: Vec<Addr>,
    targets: Vec<Addr>,
    warmup: u64,
    started: bool,
}

impl<'k> KeyStreams<'k> {
    /// No streams, components or lanes yet. Each lane's first `warmup`
    /// indirect events train without being scored.
    #[must_use]
    pub fn new(warmup: u64) -> Self {
        KeyStreams {
            streams: Vec::new(),
            components: Vec::new(),
            lanes: Vec::new(),
            pcs: Vec::new(),
            targets: Vec::new(),
            warmup,
            started: false,
        }
    }

    /// Attaches a kernel for the pass: finds or adds a stream for each of
    /// its components' recipes, each starting from a cold history, and a
    /// component for each of its tables, shared with an attached one of
    /// the same recipe and shape when both tables are empty. Hands the
    /// kernel back, adding nothing, if it builds its own keys: a
    /// full-precision predictor or a composite with a full-precision
    /// component, a [`Dyn`](FoldKernel::Dyn) predictor, or one whose
    /// history is not cold, since a stream starts cold.
    ///
    /// # Errors
    ///
    /// Returns the kernel when it cannot fold from the bank.
    ///
    /// # Panics
    ///
    /// Panics once a chunk has been folded: a new stream would start at
    /// another point of the trace than the kernel.
    pub fn attach(&mut self, kernel: &'k mut FoldKernel) -> Result<KeyedLane, &'k mut FoldKernel> {
        assert!(!self.started, "attach every kernel before the first chunk");
        let lane = self.lanes.len();
        let reads = if let FoldKernel::SharedTable(s) = kernel {
            if !s.histories().is_cold() {
                return Err(kernel);
            }
            s.key_recipes().map(|r| self.stream(r)).collect()
        } else {
            let Some(parts) = parts(kernel) else {
                return Err(kernel);
            };
            let mut keyed = Vec::with_capacity(parts.len());
            for part in &parts {
                match (part.key_recipe(), part.table_shape()) {
                    (Some(recipe), Some(shape)) if part.histories().is_cold() => {
                        let empty = part.stored_patterns() == 0;
                        keyed.push((recipe, empty.then_some(shape)));
                    }
                    _ => return Err(kernel),
                }
            }
            keyed
                .into_iter()
                .enumerate()
                .map(|(part, (recipe, shape))| {
                    let stream = self.stream(recipe);
                    self.component(stream, shape, Holder { lane, part })
                })
                .collect()
        };
        let fold = if matches!(kernel, FoldKernel::SharedTable(_)) {
            LaneFold::SharedTable
        } else {
            LaneFold::Replay
        };
        self.lanes.push(BankLane {
            kernel,
            reads,
            fold,
            scorer: ChunkScorer::new(self.warmup),
        });
        Ok(KeyedLane(lane))
    }

    /// Reports the events of `lane` into `sink` from the first chunk on.
    ///
    /// # Panics
    ///
    /// Panics once a chunk has been folded.
    pub fn probe(&mut self, lane: KeyedLane, sink: &'k mut dyn ProbeSink) {
        assert!(!self.started, "probe every lane before the first chunk");
        self.lanes[lane.0].scorer = ChunkScorer::probed(self.warmup, sink);
    }

    fn stream(&mut self, recipe: KeyRecipe) -> usize {
        let found = self.streams.iter().position(|s| s.recipe == recipe);
        found.unwrap_or_else(|| {
            self.streams.push(Stream {
                recipe,
                histories: recipe.cold_histories(),
                keys: Vec::new(),
            });
            self.streams.len() - 1
        })
    }

    /// The component of `holder`, a table read off `stream` whose shape is
    /// `shape` when the table is empty: an attached component of the same
    /// identity, or a new one.
    fn component(&mut self, stream: usize, shape: Option<TableShape>, holder: Holder) -> usize {
        let found = shape.and_then(|shape| {
            self.components
                .iter()
                .position(|c| c.stream == stream && c.shape == Some(shape))
        });
        match found {
            Some(c) => {
                self.components[c].holders.push(holder);
                c
            }
            None => {
                self.components.push(Component {
                    stream,
                    shape,
                    holders: vec![holder],
                    records: Vec::new(),
                });
                self.components.len() - 1
            }
        }
    }

    /// The number of streams: distinct recipes among the attached kernels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// Whether no stream is built: no kernel is attached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// The number of distinct component tables the bank folds.
    #[must_use]
    pub fn components(&self) -> usize {
        self.components.len()
    }

    /// The keys of the chunk last folded that part `part` of `lane` reads:
    /// its component's stream, or for a shared-table hybrid its `part`-th
    /// component's. One key per indirect event.
    #[must_use]
    pub fn keys(&self, lane: KeyedLane, part: usize) -> &[u64] {
        let BankLane { fold, reads, .. } = &self.lanes[lane.0];
        let stream = match fold {
            LaneFold::SharedTable => reads[part],
            LaneFold::Replay => self.components[reads[part]].stream,
        };
        &self.streams[stream].keys
    }

    /// The score of `lane` over the chunks folded so far.
    #[must_use]
    pub fn scorer(&self, lane: KeyedLane) -> &ChunkScorer<'k> {
        &self.lanes[lane.0].scorer
    }

    /// The kernel of `lane` as a predictor, current after a
    /// [`sync`](KeyStreams::sync).
    #[must_use]
    pub fn predictor(&self, lane: KeyedLane) -> &dyn Predictor {
        self.lanes[lane.0].kernel.as_predictor()
    }

    /// Folds the next chunk through every attached lane: builds each
    /// stream's keys, lets the shared-table hybrids fold the whole chunk,
    /// then per block of at most [`BLOCK_EVENTS`] indirect events folds
    /// each component once — its table step on its stream's key,
    /// recording the lookup — and lets each replaying lane score the
    /// block.
    pub fn fold_chunk(&mut self, events: &[TraceEvent]) {
        self.started = true;
        for stream in &mut self.streams {
            stream.fill(events);
        }
        let KeyStreams {
            streams,
            components,
            lanes,
            pcs,
            targets,
            ..
        } = self;
        for lane in lanes.iter_mut().filter(|l| l.fold == LaneFold::SharedTable) {
            fold_shared_table(lane, streams, events);
        }
        if components.is_empty() {
            return;
        }
        pcs.clear();
        targets.clear();
        for (pc, target) in indirect_branches(events) {
            pcs.push(pc);
            targets.push(target);
        }
        let mut start = 0;
        while start < targets.len() {
            let span = start..targets.len().min(start + BLOCK_EVENTS);
            for c in components.iter_mut() {
                let Holder { lane, part } = c.holders[0];
                part_mut(lanes[lane].kernel, part).fold_keys(
                    &streams[c.stream].keys[span.clone()],
                    &targets[span.clone()],
                    &mut c.records,
                );
            }
            let (pcs, targets) = (&pcs[span.clone()], &targets[span.clone()]);
            for lane in lanes.iter_mut().filter(|l| l.fold == LaneFold::Replay) {
                replay(lane, streams, components, pcs, targets, span.start);
            }
            start = span.end;
        }
    }

    /// Copies each component's table from its first holder into the
    /// others, and each stream's history into every predictor that reads
    /// it, so every attached kernel stands exactly where its own fold
    /// would.
    pub fn sync(&mut self) {
        let KeyStreams {
            streams,
            components,
            lanes,
            ..
        } = self;
        for c in components.iter() {
            let history = &streams[c.stream].histories;
            let (first, rest) = c.holders.split_first().expect("a component has a holder");
            let trained = part_mut(lanes[first.lane].kernel, first.part);
            trained.adopt_histories(history);
            if rest.is_empty() {
                continue;
            }
            let trained = trained.clone();
            for h in rest {
                let holder = part_mut(lanes[h.lane].kernel, h.part);
                holder.adopt_table(&trained);
                holder.adopt_histories(history);
            }
        }
        for lane in lanes.iter_mut() {
            if let FoldKernel::SharedTable(s) = lane.kernel {
                // The deepest component's stream ran the hybrid's history.
                let deepest = lane
                    .reads
                    .iter()
                    .map(|&r| &streams[r].histories)
                    .max_by_key(|h| h.depth())
                    .expect("a shared-table hybrid has components");
                s.adopt_histories(deepest);
            }
        }
    }
}

/// Folds a whole chunk through a shared-table hybrid's lane: its own
/// table step on its components' streams.
fn fold_shared_table(lane: &mut BankLane<'_>, streams: &[Stream], events: &[TraceEvent]) {
    let BankLane {
        kernel,
        reads,
        scorer,
        ..
    } = lane;
    let FoldKernel::SharedTable(s) = kernel else {
        unreachable!("a shared-table lane holds a shared-table hybrid")
    };
    let mut keys = [0; SharedTableHybrid::MAX_COMPONENTS];
    let keys = &mut keys[..reads.len()];
    fold_prekeyed(
        indirect_branches(events),
        scorer,
        no_fingerprint,
        |i, _, actual, scored| {
            for (key, &stream) in keys.iter_mut().zip(reads.iter()) {
                *key = streams[stream].keys[i];
            }
            s.keyed_step(keys, actual, scored)
        },
    );
}

/// Scores one block of a replaying lane, whose indirect branches, from
/// the chunk's `start`-th on, have the addresses `pcs` and the targets
/// `targets`: per branch, a single table's recorded lookup, or a hybrid's
/// [`MetaState`] rule over its components' recorded lookups. A lane's rule
/// is fixed, so the block matches on it once.
fn replay(
    lane: &mut BankLane<'_>,
    streams: &[Stream],
    components: &[Component],
    pcs: &[Addr],
    targets: &[Addr],
    start: usize,
) {
    let BankLane {
        kernel,
        reads,
        scorer,
        ..
    } = lane;
    let records = |part: usize| components[reads[part]].records.as_slice();
    let target = |hit: Option<TableHit>| hit.map(|h| h.target);
    let block = || pcs.iter().copied().zip(targets.iter().copied());
    match kernel {
        FoldKernel::TwoLevel(_) => {
            let only = records(0);
            let keys = &streams[components[reads[0]].stream].keys[start..];
            fold_prekeyed(
                block(),
                scorer,
                |i| Some(keys[i]),
                |i, _, _, _| target(only[i].unpack()),
            );
        }
        FoldKernel::Hybrid(h) => {
            let parts: Vec<&[PredRecord]> = (0..reads.len()).map(records).collect();
            let hits = |i: usize| parts.iter().map(move |r| r[i].unpack());
            // Two confidence components, every configured hybrid, read
            // their two records directly: the loop over the parts cost
            // cold `ablations` and `summary` about 7 % more CPU.
            match (h.meta().spec(), parts.as_slice()) {
                (MetaSpec::Confidence, [first, second]) => {
                    fold_prekeyed(block(), scorer, no_fingerprint, |i, _, _, _| {
                        target(MetaState::most_confident([
                            first[i].unpack(),
                            second[i].unpack(),
                        ]))
                    });
                }
                (MetaSpec::Confidence, _) => {
                    fold_prekeyed(block(), scorer, no_fingerprint, |i, _, _, _| {
                        target(MetaState::most_confident(hits(i)))
                    });
                }
                (MetaSpec::FirstHit, _) => {
                    fold_prekeyed(block(), scorer, no_fingerprint, |i, _, _, _| {
                        target(MetaState::first_hit(hits(i)))
                    });
                }
                (MetaSpec::Bpst { .. }, _) => {
                    let (first, second) = (parts[0], parts[1]);
                    let meta = h.meta_mut();
                    fold_prekeyed(block(), scorer, no_fingerprint, |i, pc, actual, _| {
                        meta.bpst(pc, first[i].unpack(), second[i].unpack(), actual)
                    });
                }
            }
        }
        FoldKernel::SharedTable(_) | FoldKernel::Dyn(_) => {
            unreachable!("a replaying lane reads component records")
        }
    }
}
