//! The two-level indirect branch predictor (§3–§5).

use ibp_trace::{Addr, TraceEvent};

use crate::config::Associativity;
use crate::history::{Histories, HistoryElement, HistoryRegister, HistorySharing, MAX_PATH};
use crate::key::{CompressedKeySpec, FullKeySpec, TableSharing};
use crate::predictor::{Predictor, UpdateRule};
use crate::snapshot::{ComponentSnapshot, Snapshot, StructuralSnapshot, TableSnapshot};
use crate::streams::{KeyRecipe, PredRecord};
use crate::table::{FullyAssocTable, SetAssocTable, TableHit, TaglessTable, UnboundedTable};

/// A compressed key as the two words of an [`UnboundedTable`] key.
fn key_words(key: u64) -> [u32; 2] {
    [key as u32, (key >> 32) as u32]
}

/// The fingerprint of a full-precision key: a hash of its words. A
/// compressed key is its own fingerprint.
pub(crate) fn full_key_fingerprint(words: &[u32]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    words.hash(&mut h);
    h.finish()
}

/// Runs `f` on the full-precision key of a branch at `pc`, built on the
/// stack.
fn with_full_key<R>(
    key: &FullKeySpec,
    pc: Addr,
    register: &HistoryRegister,
    f: impl FnOnce(&[u32]) -> R,
) -> R {
    let mut buf = [0u32; MAX_PATH + 1];
    let words = &mut buf[..key.words()];
    key.write(pc, register, words);
    f(words)
}

/// Second-level storage for a compressed-key predictor.
#[derive(Debug, Clone)]
pub(crate) enum Backend {
    /// No size limit (§4: isolates precision loss from capacity loss).
    Unbounded(UnboundedTable),
    /// Bounded, fully associative, LRU (§5.1: adds capacity misses).
    FullAssoc(FullyAssocTable),
    /// Bounded, limited associativity (§5.2: adds conflict misses).
    SetAssoc(SetAssocTable),
    /// Bounded, direct-mapped, no tags (§5.2: adds interference, positive
    /// and negative).
    Tagless(TaglessTable),
}

impl Backend {
    fn lookup(&self, key: u64) -> Option<TableHit> {
        match self {
            Backend::Unbounded(t) => t.lookup(&key_words(key)),
            Backend::FullAssoc(t) => t.lookup(key),
            Backend::SetAssoc(t) => t.lookup(key),
            Backend::Tagless(t) => t.lookup(key),
        }
    }

    /// The one table step of a compressed-key predictor: the pre-update
    /// lookup (when `want_lookup`) and the training of `key`'s entry, in
    /// one probe of the table.
    fn lookup_update(
        &mut self,
        key: u64,
        actual: Addr,
        rule: UpdateRule,
        want_lookup: bool,
    ) -> Option<TableHit> {
        match self {
            Backend::Unbounded(t) => t.lookup_update(&key_words(key), actual, rule, want_lookup),
            Backend::FullAssoc(t) => t.lookup_update(key, actual, rule, want_lookup),
            Backend::SetAssoc(t) => t.lookup_update(key, actual, rule, want_lookup),
            Backend::Tagless(t) => t.lookup_update(key, actual, rule, want_lookup),
        }
    }

    /// The organisation and size, the confidence width, and `rule`: what
    /// fixes how the table answers and trains, apart from its contents.
    fn shape(&self, rule: UpdateRule) -> TableShape {
        let (geometry, confidence_bits) = match self {
            Backend::Unbounded(t) => (Geometry::Unbounded, t.confidence_bits()),
            Backend::FullAssoc(t) => (Geometry::FullAssoc(t.capacity()), t.confidence_bits()),
            Backend::SetAssoc(t) => (
                Geometry::SetAssoc(t.capacity(), t.ways()),
                t.confidence_bits(),
            ),
            Backend::Tagless(t) => (Geometry::Tagless(t.capacity()), t.confidence_bits()),
        };
        TableShape {
            geometry,
            rule,
            confidence_bits,
        }
    }

    fn capacity(&self) -> Option<usize> {
        match self {
            Backend::Unbounded(_) => None,
            Backend::FullAssoc(t) => Some(t.capacity()),
            Backend::SetAssoc(t) => Some(t.capacity()),
            Backend::Tagless(t) => Some(t.capacity()),
        }
    }

    fn len(&self) -> usize {
        match self {
            Backend::Unbounded(t) => t.len(),
            Backend::FullAssoc(t) => t.len(),
            Backend::SetAssoc(t) => t.len(),
            Backend::Tagless(t) => t.len(),
        }
    }

    fn describe(&self) -> String {
        match self {
            Backend::Unbounded(_) => "unbounded".to_string(),
            Backend::FullAssoc(t) => format!("{}-entry full-assoc", t.capacity()),
            Backend::SetAssoc(t) => {
                format!("{}-entry {}-way", t.capacity(), t.ways())
            }
            Backend::Tagless(t) => format!("{}-entry tagless", t.capacity()),
        }
    }

    fn table_snapshot(&self) -> TableSnapshot {
        match self {
            Backend::Unbounded(t) => t.table_snapshot(),
            Backend::FullAssoc(t) => t.table_snapshot(),
            Backend::SetAssoc(t) => t.table_snapshot(),
            Backend::Tagless(t) => t.table_snapshot(),
        }
    }
}

/// A second level's organisation and size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Geometry {
    Unbounded,
    FullAssoc(usize),
    SetAssoc(usize, usize),
    Tagless(usize),
}

/// Everything about a compressed-key predictor's second level except its
/// contents: organisation and size, update rule and confidence width. Two
/// predictors with equal [`KeyRecipe`]s and equal shapes, both cold and
/// empty, answer and train identically on every event, so a pass folds
/// them as one component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TableShape {
    geometry: Geometry,
    rule: UpdateRule,
    confidence_bits: u8,
}

#[derive(Debug, Clone)]
enum Mode {
    /// Full 32-bit target addresses in the key (§3), optionally reduced to
    /// `precision` bits each (§4.1 / Figure 10). Always unbounded.
    Full {
        key: FullKeySpec,
        table: UnboundedTable,
    },
    /// Compressed ≤ 64-bit keys over any backend (§4.2, §5).
    Compressed {
        spec: CompressedKeySpec,
        backend: Backend,
    },
}

/// A two-level indirect branch predictor.
///
/// The first level is a path history of recent indirect-branch targets
/// (shared according to [`HistorySharing`]); the second level is a history
/// table keyed by the combination of that path with the branch address.
/// Every §3–§5 configuration of the paper is expressible:
///
/// ```
/// use ibp_core::{HistorySharing, Predictor, TwoLevelPredictor};
/// use ibp_trace::Addr;
///
/// // The paper's best unconstrained predictor: global history, per-branch
/// // tables, path length 6.
/// let mut p = TwoLevelPredictor::unconstrained(6, HistorySharing::GLOBAL);
///
/// // A periodic target sequence at one site becomes perfectly predictable.
/// let site = Addr::new(0x1000);
/// let targets = [Addr::new(0x2000), Addr::new(0x3000), Addr::new(0x4000)];
/// for round in 0..5 {
///     for &t in &targets {
///         let hit = p.predict(site) == Some(t);
///         p.update(site, t);
///         // The p = 6 history spans two periods, so every periodic
///         // pattern has been seen (and trained) by round 3.
///         if round >= 3 {
///             assert!(hit, "periodic pattern learned");
///         }
///     }
/// }
/// ```
#[derive(Debug, Clone)]
pub struct TwoLevelPredictor {
    histories: Histories,
    path_len: usize,
    rule: UpdateRule,
    mode: Mode,
    include_cond: bool,
    batch: KeyBatch,
}

/// One chunk's precomputed full keys: the words of every indirect event's
/// key, back to back, and each key's hash tag.
#[derive(Debug, Clone, Default)]
pub(crate) struct KeyBatch {
    words: Vec<u32>,
    tags: Vec<u32>,
}

impl KeyBatch {
    /// The `i`-th indirect event's `width`-word key, with its tag.
    pub(crate) fn key(&self, i: usize, width: usize) -> (&[u32], u32) {
        (&self.words[i * width..(i + 1) * width], self.tags[i])
    }
}

impl TwoLevelPredictor {
    /// An unconstrained full-precision predictor (§3) with per-branch
    /// history tables (`h = 2`).
    #[must_use]
    pub fn unconstrained(path_len: usize, history_sharing: HistorySharing) -> Self {
        TwoLevelPredictor::unconstrained_full(
            path_len,
            history_sharing,
            TableSharing::PER_ADDRESS,
            None,
        )
    }

    /// An unconstrained predictor with explicit table sharing (§3.2.2) and
    /// optional per-target precision in bits (§4.1 / Figure 10).
    #[must_use]
    pub fn unconstrained_full(
        path_len: usize,
        history_sharing: HistorySharing,
        table_sharing: TableSharing,
        precision: Option<u32>,
    ) -> Self {
        TwoLevelPredictor {
            histories: Histories::new(history_sharing, HistoryElement::Target, path_len),
            path_len,
            rule: UpdateRule::TwoBitCounter,
            mode: Mode::Full {
                key: FullKeySpec::new(path_len, table_sharing, precision),
                table: UnboundedTable::new(1 + path_len, 2),
            },
            include_cond: false,
            batch: KeyBatch::default(),
        }
    }

    /// A compressed-key predictor over the given backend. The history
    /// sharing is global (the paper's recommendation); use
    /// [`with_history_sharing`](TwoLevelPredictor::with_history_sharing) to
    /// override.
    #[must_use]
    pub(crate) fn compressed(spec: CompressedKeySpec, backend: Backend) -> Self {
        TwoLevelPredictor {
            histories: Histories::new(
                HistorySharing::GLOBAL,
                HistoryElement::Target,
                spec.path_len(),
            ),
            path_len: spec.path_len(),
            rule: UpdateRule::TwoBitCounter,
            mode: Mode::Compressed { spec, backend },
            include_cond: false,
            batch: KeyBatch::default(),
        }
    }

    /// A compressed-key predictor with an unbounded table (§4).
    #[must_use]
    pub fn compressed_unbounded(spec: CompressedKeySpec) -> Self {
        TwoLevelPredictor::compressed(spec, Backend::Unbounded(UnboundedTable::new(2, 2)))
    }

    /// A compressed-key predictor with a bounded fully-associative LRU
    /// table (§5.1).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a non-zero power of two.
    #[must_use]
    pub fn full_assoc(spec: CompressedKeySpec, entries: usize) -> Self {
        TwoLevelPredictor::compressed(spec, Backend::FullAssoc(FullyAssocTable::new(entries, 2)))
    }

    /// A compressed-key predictor with a set-associative table (§5.2).
    ///
    /// # Panics
    ///
    /// Panics if `entries`/`ways` are not non-zero powers of two or
    /// `ways > entries`.
    #[must_use]
    pub fn set_assoc(spec: CompressedKeySpec, entries: usize, ways: usize) -> Self {
        TwoLevelPredictor::compressed(
            spec,
            Backend::SetAssoc(SetAssocTable::new(entries, ways, 2)),
        )
    }

    /// A compressed-key predictor with a tagless table (§5.2).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a non-zero power of two.
    #[must_use]
    pub fn tagless(spec: CompressedKeySpec, entries: usize) -> Self {
        TwoLevelPredictor::compressed(spec, Backend::Tagless(TaglessTable::new(entries, 2)))
    }

    /// Overrides the first-level history sharing (§3.2.1).
    #[must_use]
    pub fn with_history_sharing(mut self, sharing: HistorySharing) -> Self {
        self.histories = Histories::new(sharing, HistoryElement::Target, self.path_len);
        self
    }

    /// Overrides the history element encoding (§3.3 variation).
    #[must_use]
    pub fn with_history_element(mut self, element: HistoryElement) -> Self {
        self.histories = Histories::new(self.histories.sharing(), element, self.path_len);
        self
    }

    /// Overrides the target update rule (§3.1: always-update vs 2bc).
    #[must_use]
    pub fn with_update_rule(mut self, rule: UpdateRule) -> Self {
        self.rule = rule;
        self
    }

    /// Overrides the confidence counter width of the second-level entries
    /// (§6.1; meaningful when used as a hybrid component).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=7`.
    #[must_use]
    pub fn with_confidence_bits(mut self, bits: u8) -> Self {
        match &mut self.mode {
            Mode::Full { key, table } => *table = UnboundedTable::new(key.words(), bits),
            Mode::Compressed { backend, .. } => match backend {
                Backend::Unbounded(_) => {
                    *backend = Backend::Unbounded(UnboundedTable::new(2, bits));
                }
                Backend::FullAssoc(t) => {
                    *backend = Backend::FullAssoc(FullyAssocTable::new(t.capacity(), bits));
                }
                Backend::SetAssoc(t) => {
                    *backend = Backend::SetAssoc(SetAssocTable::new(t.capacity(), t.ways(), bits));
                }
                Backend::Tagless(t) => {
                    *backend = Backend::Tagless(TaglessTable::new(t.capacity(), bits));
                }
            },
        }
        self
    }

    /// Feeds conditional-branch targets into the history too (§3.3
    /// variation — the paper found it harmful).
    #[must_use]
    pub fn with_cond_targets(mut self, include: bool) -> Self {
        self.include_cond = include;
        self
    }

    /// The path length `p`.
    #[must_use]
    pub fn path_len(&self) -> usize {
        self.path_len
    }

    /// Number of distinct patterns currently stored.
    #[must_use]
    pub fn stored_patterns(&self) -> usize {
        match &self.mode {
            Mode::Full { table, .. } => table.len(),
            Mode::Compressed { backend, .. } => backend.len(),
        }
    }

    /// A stable fingerprint of the table key this branch would use right
    /// now (branch address + current history). Two calls with identical
    /// predictor state and `pc` return the same value; distinct keys
    /// collide only with 64-bit-hash probability.
    ///
    /// Used by the miss-classification analysis in `ibp-sim` to tell
    /// *compulsory* misses (key never trained) from *capacity/conflict*
    /// misses (key trained before but evicted since).
    #[must_use]
    pub fn key_fingerprint(&self, pc: Addr) -> u64 {
        let register = self.histories.register(pc);
        match &self.mode {
            Mode::Full { key, .. } => with_full_key(key, pc, register, full_key_fingerprint),
            Mode::Compressed { spec, backend: _ } => spec.key(pc, register),
        }
    }

    /// One fused simulation step: computes the history register and table
    /// key **once**, optionally probes the table (when `want_lookup`),
    /// trains the entry, and shifts the history — byte-identical to a
    /// [`lookup`](TwoLevelPredictor::lookup) followed by an
    /// [`update`](Predictor::update), because `lookup` is pure and no state
    /// changes between the two in the simulation protocol.
    ///
    /// It is the predictor's [`step`](Predictor::step) and the per-event
    /// step of every composite's components: the predict-then-update pair
    /// computes the register and key twice, this computes them once. The
    /// lookup and the update share a single probe of the table, the same
    /// table step a pass's component bank
    /// ([`KeyStreams`](crate::KeyStreams)) runs over a block of prebuilt
    /// keys.
    pub fn fused_step(&mut self, pc: Addr, actual: Addr, want_lookup: bool) -> Option<TableHit> {
        let register = self.histories.register(pc);
        let hit = match &mut self.mode {
            Mode::Full { key, table } => with_full_key(key, pc, register, |words| {
                table.lookup_update(words, actual, self.rule, want_lookup)
            }),
            Mode::Compressed { spec, backend } => {
                backend.lookup_update(spec.key(pc, register), actual, self.rule, want_lookup)
            }
        };
        self.histories.record(pc, actual);
        hit
    }

    /// The table half of [`fused_step`](TwoLevelPredictor::fused_step)
    /// over a block of keys built ahead by a key stream: for each key, the
    /// pre-update lookup and the training of its entry against the
    /// matching target, every lookup packed into `records`. The table
    /// organisation is dispatched once per block. The history is the
    /// stream's, so it does not move here.
    ///
    /// # Panics
    ///
    /// Panics for a full-precision predictor, which has no key recipe.
    pub(crate) fn fold_keys(
        &mut self,
        keys: &[u64],
        targets: &[Addr],
        records: &mut Vec<PredRecord>,
    ) {
        let Mode::Compressed { backend, .. } = &mut self.mode else {
            unreachable!("a full-key predictor has no key stream")
        };
        let rule = self.rule;
        let steps = keys.iter().zip(targets);
        records.clear();
        match backend {
            Backend::Unbounded(t) => records.extend(steps.map(|(&key, &actual)| {
                PredRecord::pack(t.lookup_update(&key_words(key), actual, rule, true))
            })),
            Backend::FullAssoc(t) => {
                records.extend(steps.map(|(&key, &actual)| {
                    PredRecord::pack(t.lookup_update(key, actual, rule, true))
                }))
            }
            Backend::SetAssoc(t) => {
                records.extend(steps.map(|(&key, &actual)| {
                    PredRecord::pack(t.lookup_update(key, actual, rule, true))
                }))
            }
            Backend::Tagless(t) => {
                records.extend(steps.map(|(&key, &actual)| {
                    PredRecord::pack(t.lookup_update(key, actual, rule, true))
                }))
            }
        }
    }

    /// The shape of a compressed-key predictor's second level, or `None`
    /// for full-precision keys.
    pub(crate) fn table_shape(&self) -> Option<TableShape> {
        match &self.mode {
            Mode::Compressed { backend, .. } => Some(backend.shape(self.rule)),
            Mode::Full { .. } => None,
        }
    }

    /// Takes over a copy of `source`'s second level, as if this predictor
    /// had trained it.
    ///
    /// # Panics
    ///
    /// Panics unless both predictors have compressed keys.
    pub(crate) fn adopt_table(&mut self, source: &TwoLevelPredictor) {
        match (&mut self.mode, &source.mode) {
            (Mode::Compressed { backend, .. }, Mode::Compressed { backend: from, .. }) => {
                backend.clone_from(from);
            }
            _ => unreachable!("only compressed-key tables are shared"),
        }
    }

    /// What fixes this predictor's key stream from the events alone — its
    /// [`CompressedKeySpec`], history sharing and element, and whether
    /// conditional targets enter the history — or `None` for full-precision
    /// keys. Predictors with equal recipes build the same key for every
    /// event from a cold start, whatever their tables.
    #[must_use]
    pub fn key_recipe(&self) -> Option<KeyRecipe> {
        match &self.mode {
            Mode::Compressed { spec, .. } => Some(KeyRecipe {
                spec: *spec,
                sharing: self.histories.sharing(),
                element: self.histories.element(),
                include_cond: self.include_cond,
            }),
            Mode::Full { .. } => None,
        }
    }

    /// The first level.
    pub(crate) fn histories(&self) -> &Histories {
        &self.histories
    }

    /// Takes over a first level that a key stream ran forward for this
    /// predictor, as if its own steps had.
    pub(crate) fn adopt_histories(&mut self, histories: &Histories) {
        self.histories.clone_from(histories);
    }

    /// The key pass of a batched chunk fold over a full-key unbounded
    /// table, whose probe dominates the fold: runs the history forward over
    /// the whole chunk and records every indirect event's key words and
    /// tag. This is exact because history depends only on the events,
    /// never on a prediction. Returns what the probe pass needs — the
    /// table, the batch and the update rule — or `None`, touching nothing,
    /// for a compressed key, which folds from a shared key stream instead.
    pub(crate) fn batch_keys(
        &mut self,
        events: &[TraceEvent],
    ) -> Option<(&mut UnboundedTable, &KeyBatch, UpdateRule)> {
        let TwoLevelPredictor {
            histories,
            rule,
            mode,
            include_cond,
            batch,
            ..
        } = self;
        let Mode::Full { key, table } = mode else {
            return None;
        };
        fill_batch(batch, histories, *include_cond, events, key);
        Some((table, batch, *rule))
    }

    /// Looks up the prediction and its confidence — the interface hybrid
    /// metaprediction builds on (§6.1).
    #[must_use]
    pub fn lookup(&self, pc: Addr) -> Option<TableHit> {
        let register = self.histories.register(pc);
        match &self.mode {
            Mode::Full { key, table } => {
                with_full_key(key, pc, register, |words| table.lookup(words))
            }
            Mode::Compressed { spec, backend } => backend.lookup(spec.key(pc, register)),
        }
    }
}

/// Fills `batch` with the full key and tag of every indirect event in
/// `events`, shifting the history as the events go by.
fn fill_batch(
    batch: &mut KeyBatch,
    histories: &mut Histories,
    include_cond: bool,
    events: &[TraceEvent],
    key: &FullKeySpec,
) {
    batch.words.clear();
    batch.tags.clear();
    for event in events {
        match event {
            TraceEvent::Indirect(b) => {
                let start = batch.words.len();
                batch.words.resize(start + key.words(), 0);
                let words = &mut batch.words[start..];
                key.write(b.pc, histories.register(b.pc), words);
                batch.tags.push(UnboundedTable::tag(words));
                histories.record(b.pc, b.target);
            }
            TraceEvent::Cond(b) => {
                if include_cond {
                    histories.record(b.pc, b.outcome());
                }
            }
        }
    }
}

impl StructuralSnapshot for TwoLevelPredictor {
    fn structural_snapshot(&self) -> Snapshot {
        let table = match &self.mode {
            Mode::Full { table, .. } => table.table_snapshot(),
            Mode::Compressed { backend, .. } => backend.table_snapshot(),
        };
        let describe = match &self.mode {
            Mode::Full { .. } => "unbounded".to_string(),
            Mode::Compressed { backend, .. } => backend.describe(),
        };
        Snapshot {
            components: vec![ComponentSnapshot {
                label: format!("p={} {describe}", self.path_len),
                table,
                history: self.histories.history_snapshot(),
            }],
            selectors: Vec::new(),
        }
    }
}

impl Predictor for TwoLevelPredictor {
    fn predict(&self, pc: Addr) -> Option<Addr> {
        self.lookup(pc).map(|h| h.target)
    }

    fn update(&mut self, pc: Addr, actual: Addr) {
        let register = self.histories.register(pc);
        match &mut self.mode {
            Mode::Full { key, table } => {
                with_full_key(key, pc, register, |words| {
                    table.update(words, actual, self.rule);
                });
            }
            Mode::Compressed { spec, backend } => {
                let key = spec.key(pc, register);
                let _ = backend.lookup_update(key, actual, self.rule, false);
            }
        }
        self.histories.record(pc, actual);
    }

    /// The [`fused_step`](TwoLevelPredictor::fused_step): the register, the
    /// key and the table probe once for both halves.
    fn step(&mut self, pc: Addr, actual: Addr, want_lookup: bool) -> Option<Addr> {
        self.fused_step(pc, actual, want_lookup).map(|h| h.target)
    }

    fn observe_cond(&mut self, pc: Addr, target: Addr) {
        if self.include_cond {
            self.histories.record(pc, target);
        }
    }

    fn name(&self) -> String {
        let sharing = if self.histories.sharing().is_global() {
            "global".to_string()
        } else {
            format!("s={}", self.histories.sharing().s())
        };
        match &self.mode {
            Mode::Full { key, .. } => {
                let prec = match key.precision() {
                    None => "full-precision".to_string(),
                    Some(b) => format!("{b}-bit"),
                };
                format!(
                    "two-level p={} {sharing} history, h={}, {prec}, unbounded",
                    self.path_len,
                    key.table_sharing().h()
                )
            }
            Mode::Compressed { spec, backend } => format!(
                "two-level p={} {sharing} history, {} key, {} interleave, {}",
                self.path_len,
                spec.scheme(),
                spec.interleaving(),
                backend.describe()
            ),
        }
    }

    fn storage_entries(&self) -> Option<usize> {
        match &self.mode {
            Mode::Full { .. } => None,
            Mode::Compressed { backend, .. } => backend.capacity(),
        }
    }

    fn storage_bits(&self) -> Option<u64> {
        let Mode::Compressed { spec, backend } = &self.mode else {
            return None;
        };
        let (entries, assoc) = match backend {
            Backend::Unbounded(_) => return None,
            Backend::Tagless(t) => (t.capacity(), Associativity::Tagless),
            Backend::SetAssoc(t) => (t.capacity(), Associativity::Ways(t.ways())),
            Backend::FullAssoc(t) => (t.capacity(), Associativity::Full),
        };
        Some(assoc.table_bits(entries, spec.key_width()))
    }

    fn snapshot(&self) -> Option<Snapshot> {
        Some(self.structural_snapshot())
    }

    fn probe_key_fingerprint(&self, pc: Addr) -> Option<u64> {
        Some(self.key_fingerprint(pc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyScheme;

    fn a(raw: u32) -> Addr {
        Addr::new(raw)
    }

    /// Drives a predictor over a repeating (site, target) sequence and
    /// returns the misprediction count over the last repetition.
    fn final_round_misses(p: &mut dyn Predictor, seq: &[(u32, u32)], rounds: usize) -> usize {
        let mut misses = 0;
        for round in 0..rounds {
            for &(pc, t) in seq {
                let hit = p.predict(a(pc)) == Some(a(t));
                p.update(a(pc), a(t));
                if round == rounds - 1 && !hit {
                    misses += 1;
                }
            }
        }
        misses
    }

    #[test]
    fn p0_behaves_like_btb() {
        let mut p = TwoLevelPredictor::unconstrained(0, HistorySharing::GLOBAL);
        p.update(a(0x100), a(0x900));
        assert_eq!(p.predict(a(0x100)), Some(a(0x900)));
        assert_eq!(p.predict(a(0x200)), None);
    }

    #[test]
    fn learns_alternating_targets_btb_cannot() {
        // Site alternates between two targets: a BTB (p = 0) always misses,
        // a p = 1 two-level predictor learns the alternation.
        let seq = [(0x100u32, 0x900u32), (0x100, 0xA00)];
        let mut btb = TwoLevelPredictor::unconstrained(0, HistorySharing::GLOBAL)
            .with_update_rule(UpdateRule::Always);
        let mut tl = TwoLevelPredictor::unconstrained(1, HistorySharing::GLOBAL);
        assert_eq!(final_round_misses(&mut btb, &seq, 10), 2);
        assert_eq!(final_round_misses(&mut tl, &seq, 10), 0);
    }

    #[test]
    fn global_history_sees_other_branches() {
        // Branch X at 0x300 follows four helper branches; its target is
        // determined by *which helper ran last*, while its own target
        // sequence (C, C, D, D) is ambiguous at path length 1.
        let seq = [
            (0x10u32, 0x90u32),
            (0x300, 0xC00),
            (0x14, 0x94),
            (0x300, 0xC00),
            (0x18, 0x98),
            (0x300, 0xD00),
            (0x1C, 0x9C),
            (0x300, 0xD00),
        ];
        let mut global = TwoLevelPredictor::unconstrained(1, HistorySharing::GLOBAL);
        let mut local = TwoLevelPredictor::unconstrained(1, HistorySharing::PER_ADDRESS);
        assert_eq!(final_round_misses(&mut global, &seq, 10), 0);
        // Per-address history at 0x300 sees pattern [C] precede both C and
        // D (and likewise [D]), which with 2bc never stabilises.
        assert!(final_round_misses(&mut local, &seq, 10) > 0);
    }

    #[test]
    fn compressed_key_matches_unconstrained_on_small_workload() {
        let seq = [
            (0x100u32, 0x900u32),
            (0x100, 0xA00),
            (0x200, 0xB00),
            (0x100, 0x900),
        ];
        let spec = CompressedKeySpec::practical(2);
        let mut c = TwoLevelPredictor::compressed_unbounded(spec);
        let mut u = TwoLevelPredictor::unconstrained(2, HistorySharing::GLOBAL);
        assert_eq!(
            final_round_misses(&mut c, &seq, 8),
            final_round_misses(&mut u, &seq, 8)
        );
    }

    #[test]
    fn bounded_table_capacity_misses() {
        // More sites than entries: a 4-entry table thrashes, unbounded does
        // not.
        let seq: Vec<(u32, u32)> = (0..16u32).map(|i| (0x100 + i * 4, 0x900 + i * 4)).collect();
        let spec = CompressedKeySpec::practical(0);
        let mut small = TwoLevelPredictor::full_assoc(spec, 4);
        let mut big = TwoLevelPredictor::full_assoc(spec, 64);
        assert!(final_round_misses(&mut small, &seq, 6) > 0);
        assert_eq!(final_round_misses(&mut big, &seq, 6), 0);
    }

    #[test]
    fn tagless_aliasing_still_predicts() {
        let spec = CompressedKeySpec::practical(0);
        let mut t = TwoLevelPredictor::tagless(spec, 2);
        t.update(a(0x100), a(0x900));
        // Any pc aliasing the same slot returns the stored target.
        let alias = a(0x100 + 2 * 4);
        assert_eq!(t.predict(a(0x108)), Some(a(0x900)));
        let _ = alias;
    }

    #[test]
    fn observe_cond_only_when_enabled() {
        let site = a(0x100);
        let mut plain = TwoLevelPredictor::unconstrained(1, HistorySharing::GLOBAL);
        let mut noisy = plain.clone().with_cond_targets(true);

        // Train both identically: after two updates the pattern
        // [0x900] -> 0x900 is learned.
        for p in [&mut plain, &mut noisy] {
            p.update(site, a(0x900));
            p.update(site, a(0x900));
        }
        assert_eq!(plain.predict(site), Some(a(0x900)));
        // A conditional branch intervenes: it shifts `noisy`'s history (to a
        // never-trained pattern) but leaves `plain` untouched.
        plain.observe_cond(a(0x200), a(0x300));
        noisy.observe_cond(a(0x200), a(0x300));
        assert_eq!(plain.predict(site), Some(a(0x900)));
        assert_eq!(noisy.predict(site), None);
    }

    #[test]
    fn names_are_descriptive() {
        let u = TwoLevelPredictor::unconstrained(6, HistorySharing::GLOBAL);
        assert!(u.name().contains("p=6"));
        assert!(u.name().contains("global"));
        let spec = CompressedKeySpec::practical(3).with_scheme(KeyScheme::GshareXor);
        let s = TwoLevelPredictor::set_assoc(spec, 1024, 4);
        assert!(s.name().contains("4-way"));
        assert_eq!(s.storage_entries(), Some(1024));
    }

    #[test]
    fn storage_bits_reflect_tag_costs() {
        let spec = CompressedKeySpec::practical(3); // 30-bit xor keys
        let tagless = TwoLevelPredictor::tagless(spec, 1024);
        let set4 = TwoLevelPredictor::set_assoc(spec, 1024, 4);
        let full = TwoLevelPredictor::full_assoc(spec, 1024);
        let unbounded = TwoLevelPredictor::compressed_unbounded(spec);
        // Tagless: payload only.
        assert_eq!(tagless.storage_bits(), Some(1024 * 33));
        // 4-way over 1024 entries: 256 sets -> 8 index bits -> 22-bit tag
        // + valid.
        assert_eq!(set4.storage_bits(), Some(1024 * (33 + 23)));
        // Fully associative: full 30-bit tag + valid.
        assert_eq!(full.storage_bits(), Some(1024 * (33 + 31)));
        assert_eq!(unbounded.storage_bits(), None);
        // Ordering: the paper's hardware argument.
        assert!(tagless.storage_bits() < set4.storage_bits());
        assert!(set4.storage_bits() < full.storage_bits());
    }

    #[test]
    fn key_fingerprint_tracks_history_and_pc() {
        let mut p = TwoLevelPredictor::unconstrained(2, HistorySharing::GLOBAL);
        let f1 = p.key_fingerprint(a(0x100));
        assert_eq!(f1, p.key_fingerprint(a(0x100)), "stable");
        assert_ne!(f1, p.key_fingerprint(a(0x200)), "pc-sensitive");
        p.update(a(0x100), a(0x900));
        assert_ne!(f1, p.key_fingerprint(a(0x100)), "history-sensitive");
        // Compressed predictors expose the raw key.
        let c = TwoLevelPredictor::compressed_unbounded(CompressedKeySpec::practical(0));
        assert_eq!(c.key_fingerprint(a(0x100)), u64::from(a(0x100).word()));
    }

    #[test]
    fn precision_masks_distinguishable_targets() {
        // Two targets differing only above bit 3 are indistinguishable at
        // b = 1 precision but distinguishable at full precision.
        let seq = [
            (0x100u32, 0x900u32),
            (0x100, 0xA00), // differs from 0x900 above bit 3
            (0x100, 0x904),
            (0x100, 0xA04),
        ];
        let mut low = TwoLevelPredictor::unconstrained_full(
            1,
            HistorySharing::GLOBAL,
            TableSharing::PER_ADDRESS,
            Some(1),
        );
        let mut full = TwoLevelPredictor::unconstrained(1, HistorySharing::GLOBAL);
        let low_misses = final_round_misses(&mut low, &seq, 10);
        let full_misses = final_round_misses(&mut full, &seq, 10);
        assert!(low_misses > full_misses);
    }
}
