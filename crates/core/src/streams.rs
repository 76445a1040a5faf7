//! Shared key streams: the first level of every compressed-key lane of a
//! pass, built once per distinct recipe.
//!
//! A compressed key depends on the events alone: the history register runs
//! over the trace whatever the table predicts, and the key is a fixed
//! function of that register and the branch address. Lanes whose keys come
//! from the same [`KeyRecipe`], and whose histories start cold, therefore
//! see the same key for every event, though they differ in table size,
//! associativity, confidence width, update rule or metapredictor. A
//! [`KeyStreams`] runs one history per such recipe over a chunk, writes
//! each indirect event's key, and folds every attached kernel from those
//! keys through the same table step its own fused fold takes
//! ([`TwoLevelPredictor::fused_step`]). After the pass,
//! [`restore`](KeyStreams::restore) hands each kernel its recipe's history,
//! so the kernel ends exactly as its own fold would have left it.

use ibp_trace::TraceEvent;

use crate::history::{Histories, HistoryElement, HistorySharing};
use crate::kernel::{fold_prekeyed, ChunkScorer, FoldKernel};
use crate::key::CompressedKeySpec;
use crate::two_level::TwoLevelPredictor;

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

/// Where an attached kernel reads its keys: one stream per two-level
/// predictor it holds, first component first. A single two-level kernel
/// reads the same stream twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyedLane {
    streams: [usize; 2],
}

impl KeyedLane {
    /// The indices of the streams the lane reads (see
    /// [`KeyStreams::keys`]).
    #[must_use]
    pub fn streams(&self) -> [usize; 2] {
        self.streams
    }
}

/// The key streams of one pass: one history and one chunk of keys per
/// distinct recipe among the attached kernels.
///
/// Attach every kernel before the first chunk, then per chunk
/// [`fill`](KeyStreams::fill) once and [`fold`](KeyStreams::fold) each
/// attached kernel; after the last chunk, [`restore`](KeyStreams::restore)
/// each. The folds take no [`ProbeSink`](crate::ProbeSink): a probed fold
/// samples the live history mid-chunk, so it keeps the kernel's own fold.
#[derive(Debug, Clone, Default)]
pub struct KeyStreams {
    streams: Vec<Stream>,
    filled: bool,
}

impl KeyStreams {
    /// No streams yet.
    #[must_use]
    pub fn new() -> Self {
        KeyStreams::default()
    }

    /// Attaches a kernel: finds or adds a stream for each of its two-level
    /// predictors, one per distinct recipe, each starting from a cold
    /// history. Returns `None`, adding nothing, for a kernel that builds
    /// its own keys: a full-precision predictor, a hybrid with a
    /// full-precision component, a [`Dyn`](FoldKernel::Dyn) predictor, or
    /// one whose history is not cold, since a stream starts cold.
    ///
    /// # Panics
    ///
    /// Panics once a chunk has been filled: a new stream would start at
    /// another point of the trace than the kernel.
    pub fn attach(&mut self, kernel: &FoldKernel) -> Option<KeyedLane> {
        assert!(!self.filled, "attach every kernel before the first chunk");
        let parts = match kernel {
            FoldKernel::TwoLevel(p) => [p, p],
            FoldKernel::Hybrid(h) => [h.first(), h.second()],
            FoldKernel::Bpst(b) => b.components(),
            FoldKernel::Dyn(_) => return None,
        };
        if !parts.iter().all(|p| p.histories().is_cold()) {
            return None;
        }
        let [Some(first), Some(second)] = parts.map(TwoLevelPredictor::key_recipe) else {
            return None;
        };
        Some(KeyedLane {
            streams: [self.stream(first), self.stream(second)],
        })
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

    /// The number of streams: distinct recipes among the attached kernels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// Whether no kernel folds from a stream.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// Builds every stream's keys for the next chunk.
    pub fn fill(&mut self, events: &[TraceEvent]) {
        self.filled = true;
        for stream in &mut self.streams {
            stream.fill(events);
        }
    }

    /// The current chunk's keys of stream `stream`, one per indirect event.
    #[must_use]
    pub fn keys(&self, stream: usize) -> &[u64] {
        &self.streams[stream].keys
    }

    /// Folds the chunk last [`fill`](KeyStreams::fill)ed through `kernel`,
    /// which `lane` was attached for, scoring into `scorer`: per indirect
    /// event, the table step of each two-level predictor on its stream's
    /// key, then the kernel's arbitration.
    ///
    /// # Panics
    ///
    /// Panics if `scorer` carries a probe, or if `kernel` is not the kind
    /// of kernel `lane` was attached for.
    pub fn fold(
        &self,
        lane: KeyedLane,
        kernel: &mut FoldKernel,
        events: &[TraceEvent],
        scorer: &mut ChunkScorer<'_>,
    ) {
        let [first, second] = lane.streams.map(|s| self.keys(s));
        match kernel {
            FoldKernel::TwoLevel(p) => fold_prekeyed(events, scorer, |i, _, actual, scored| {
                p.keyed_step(first[i], actual, scored).map(|h| h.target)
            }),
            FoldKernel::Hybrid(h) => fold_prekeyed(events, scorer, |i, _, actual, scored| {
                h.keyed_step([first[i], second[i]], actual, scored)
                    .map(|h| h.target)
            }),
            FoldKernel::Bpst(b) => fold_prekeyed(events, scorer, |i, pc, actual, scored| {
                b.keyed_step(pc, [first[i], second[i]], actual, scored)
            }),
            FoldKernel::Dyn(_) => panic!("a Dyn kernel builds its own keys"),
        }
    }

    /// Copies each stream's history into the predictors of `kernel` that
    /// read it, so the kernel leaves the pass exactly as its own fold
    /// would have left it.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` is a [`Dyn`](FoldKernel::Dyn) kernel.
    pub fn restore(&self, lane: KeyedLane, kernel: &mut FoldKernel) {
        let parts: Vec<&mut TwoLevelPredictor> = match kernel {
            FoldKernel::TwoLevel(p) => vec![p],
            FoldKernel::Hybrid(h) => h.components_mut().into(),
            FoldKernel::Bpst(b) => b.components_mut().into(),
            FoldKernel::Dyn(_) => panic!("a Dyn kernel builds its own keys"),
        };
        for (part, s) in parts.into_iter().zip(lane.streams) {
            part.adopt_histories(&self.streams[s].histories);
        }
    }
}
