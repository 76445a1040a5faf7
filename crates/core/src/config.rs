//! Predictor configuration and construction.

use std::fmt;

use ibp_trace::Addr;

use crate::history::{HistoryElement, HistorySharing, MAX_PATH};
use crate::hybrid::HybridPredictor;
use crate::interleave::Interleaving;
use crate::kernel::FoldKernel;
use crate::key::{CompressedKeySpec, KeyScheme, TableSharing};
use crate::meta::{BpstMetaPredictor, MetaSpec};
use crate::pattern::PatternCompressor;
use crate::predictor::{Predictor, UpdateRule};
use crate::trie::PathFamily;
use crate::two_level::TwoLevelPredictor;

/// Second-level table associativity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Associativity {
    /// Direct-mapped without tags (§5.2).
    Tagless,
    /// Set-associative with the given number of ways (1, 2 or 4 in the
    /// paper).
    Ways(usize),
    /// Fully associative with LRU replacement (§5.1).
    Full,
}

impl fmt::Display for Associativity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Associativity::Tagless => f.write_str("tagless"),
            Associativity::Ways(w) => write!(f, "{w}-way"),
            Associativity::Full => f.write_str("full-assoc"),
        }
    }
}

/// The family of predictor a [`PredictorConfig`] builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictorKind {
    /// Branch target buffer (§3.1): path length zero.
    Btb,
    /// Two-level predictor (§3–§5).
    TwoLevel,
    /// Two-component hybrid with per-entry confidence counters (§6).
    Hybrid,
    /// Two-component hybrid with a BPST metapredictor (§6.1 alternative).
    Bpst,
}

/// Error returned by [`PredictorConfig::try_build`] for invalid parameter
/// combinations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The path length exceeds [`MAX_PATH`].
    PathTooLong(usize),
    /// A bounded table size is zero or not a power of two.
    BadTableSize(usize),
    /// Set-associative ways invalid for the table size.
    BadAssociativity {
        /// Total entries requested.
        entries: usize,
        /// Ways requested.
        ways: usize,
    },
    /// Full-precision (unconstrained) keys require an unbounded table.
    BoundedFullPrecision,
    /// A hybrid configuration is missing its second path length.
    MissingSecondPath,
    /// Hybrid/BPST predictors need bounded component tables to be
    /// meaningful; use two unconstrained predictors directly otherwise.
    Unrepresentable(&'static str),
    /// Confidence counter width outside `1..=7`.
    BadConfidenceBits(u8),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::PathTooLong(p) => {
                write!(
                    f,
                    "path length {p} exceeds the supported maximum {MAX_PATH}"
                )
            }
            ConfigError::BadTableSize(n) => {
                write!(f, "table size {n} is not a non-zero power of two")
            }
            ConfigError::BadAssociativity { entries, ways } => {
                write!(f, "associativity {ways} invalid for {entries}-entry table")
            }
            ConfigError::BoundedFullPrecision => {
                f.write_str("full-precision keys require an unbounded table")
            }
            ConfigError::MissingSecondPath => {
                f.write_str("hybrid predictors need a second path length")
            }
            ConfigError::Unrepresentable(what) => write!(f, "unrepresentable config: {what}"),
            ConfigError::BadConfidenceBits(b) => {
                write!(f, "confidence width {b} bits outside 1..=7")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder covering the paper's complete predictor design space.
///
/// Start from a preset ([`btb_2bc`](PredictorConfig::btb_2bc),
/// [`unconstrained`](PredictorConfig::unconstrained),
/// [`practical`](PredictorConfig::practical),
/// [`hybrid`](PredictorConfig::hybrid), …), refine with `with_*` methods,
/// then [`build`](PredictorConfig::build).
///
/// # Example
///
/// ```
/// use ibp_core::{Interleaving, PredictorConfig};
///
/// // Figure 12's pathological configuration: concatenated (non-interleaved)
/// // key bits on a 4K-entry direct-mapped table.
/// let p = PredictorConfig::practical(2, 4096, 1)
///     .with_interleaving(Interleaving::Concat)
///     .build();
/// assert!(p.name().contains("concat interleave"));
/// ```
#[derive(Debug, Clone)]
pub struct PredictorConfig {
    kind: PredictorKind,
    path_len: usize,
    path_len2: usize,
    history_sharing: HistorySharing,
    table_sharing: TableSharing,
    history_element: HistoryElement,
    /// `None` = compressed keys; `Some(precision)` = full keys, optionally
    /// masked to a per-target precision.
    full_precision: Option<Option<u32>>,
    pattern_budget: u32,
    compressor: PatternCompressor,
    interleaving: Interleaving,
    scheme: KeyScheme,
    /// `None` = unbounded.
    entries: Option<usize>,
    assoc: Associativity,
    rule: UpdateRule,
    confidence_bits: u8,
    include_cond: bool,
}

impl PredictorConfig {
    fn base(kind: PredictorKind, path_len: usize) -> Self {
        PredictorConfig {
            kind,
            path_len,
            path_len2: 0,
            history_sharing: HistorySharing::GLOBAL,
            table_sharing: TableSharing::PER_ADDRESS,
            history_element: HistoryElement::Target,
            full_precision: None,
            pattern_budget: 24,
            compressor: PatternCompressor::default(),
            interleaving: Interleaving::Reverse,
            scheme: KeyScheme::GshareXor,
            entries: None,
            assoc: Associativity::Ways(4),
            rule: UpdateRule::TwoBitCounter,
            confidence_bits: 2,
            include_cond: false,
        }
    }

    /// An unconstrained BTB with always-update (the paper's plain "BTB").
    #[must_use]
    pub fn btb() -> Self {
        PredictorConfig::base(PredictorKind::Btb, 0).with_update_rule(UpdateRule::Always)
    }

    /// An unconstrained BTB with two-bit-counter update ("BTB-2bc", the
    /// paper's baseline).
    #[must_use]
    pub fn btb_2bc() -> Self {
        PredictorConfig::base(PredictorKind::Btb, 0)
    }

    /// A bounded fully-associative BTB (the `btb fullassoc` column of
    /// Table A-1).
    #[must_use]
    pub fn btb_bounded(entries: usize) -> Self {
        PredictorConfig::base(PredictorKind::Btb, 0)
            .with_entries(entries)
            .with_associativity(Associativity::Full)
    }

    /// An unconstrained full-precision two-level predictor (§3) with global
    /// history and per-branch tables.
    #[must_use]
    pub fn unconstrained(path_len: usize) -> Self {
        let mut c = PredictorConfig::base(PredictorKind::TwoLevel, path_len);
        c.full_precision = Some(None);
        c
    }

    /// A compressed-key two-level predictor over an unbounded table (§4).
    #[must_use]
    pub fn compressed_unbounded(path_len: usize) -> Self {
        PredictorConfig::base(PredictorKind::TwoLevel, path_len)
    }

    /// The paper's practical predictor: compressed keys (24-bit budget,
    /// gshare-xor, reverse interleaving) over a bounded set-associative
    /// table.
    #[must_use]
    pub fn practical(path_len: usize, entries: usize, ways: usize) -> Self {
        PredictorConfig::base(PredictorKind::TwoLevel, path_len)
            .with_entries(entries)
            .with_associativity(Associativity::Ways(ways))
    }

    /// A practical predictor with a tagless table.
    #[must_use]
    pub fn tagless(path_len: usize, entries: usize) -> Self {
        PredictorConfig::base(PredictorKind::TwoLevel, path_len)
            .with_entries(entries)
            .with_associativity(Associativity::Tagless)
    }

    /// A practical predictor with a bounded fully-associative table (§5.1).
    #[must_use]
    pub fn full_assoc(path_len: usize, entries: usize) -> Self {
        PredictorConfig::base(PredictorKind::TwoLevel, path_len)
            .with_entries(entries)
            .with_associativity(Associativity::Full)
    }

    /// A two-component hybrid (§6): path lengths `p1` (tie-winner) and
    /// `p2`, each with its own `entries_each`-entry table of the given
    /// associativity. Total size is `2 * entries_each`.
    #[must_use]
    pub fn hybrid(p1: usize, p2: usize, entries_each: usize, ways: usize) -> Self {
        let mut c = PredictorConfig::base(PredictorKind::Hybrid, p1)
            .with_entries(entries_each)
            .with_associativity(Associativity::Ways(ways));
        c.path_len2 = p2;
        c
    }

    /// A hybrid over tagless component tables.
    #[must_use]
    pub fn hybrid_tagless(p1: usize, p2: usize, entries_each: usize) -> Self {
        let mut c = PredictorConfig::base(PredictorKind::Hybrid, p1)
            .with_entries(entries_each)
            .with_associativity(Associativity::Tagless);
        c.path_len2 = p2;
        c
    }

    /// A two-component hybrid arbitrated by a BPST metapredictor instead of
    /// confidence counters.
    #[must_use]
    pub fn bpst(p1: usize, p2: usize, entries_each: usize, ways: usize) -> Self {
        let mut c = PredictorConfig::hybrid(p1, p2, entries_each, ways);
        c.kind = PredictorKind::Bpst;
        c
    }

    /// Sets the bounded table size (entries). Hybrids interpret this as the
    /// per-component size.
    #[must_use]
    pub fn with_entries(mut self, entries: usize) -> Self {
        self.entries = Some(entries);
        self
    }

    /// Makes the second level unbounded.
    #[must_use]
    pub fn with_unbounded_table(mut self) -> Self {
        self.entries = None;
        self
    }

    /// Sets the table associativity.
    #[must_use]
    pub fn with_associativity(mut self, assoc: Associativity) -> Self {
        self.assoc = assoc;
        self
    }

    /// Sets the first-level history sharing `s` (§3.2.1).
    #[must_use]
    pub fn with_history_sharing(mut self, sharing: HistorySharing) -> Self {
        self.history_sharing = sharing;
        self
    }

    /// Sets the second-level table sharing `h` (§3.2.2).
    #[must_use]
    pub fn with_table_sharing(mut self, sharing: TableSharing) -> Self {
        self.table_sharing = sharing;
        self
    }

    /// Sets the history element encoding (§3.3 variation).
    #[must_use]
    pub fn with_history_element(mut self, element: HistoryElement) -> Self {
        self.history_element = element;
        self
    }

    /// For unconstrained predictors: masks each history element to `b` bits
    /// (§4.1 / Figure 10).
    #[must_use]
    pub fn with_precision(mut self, b: u32) -> Self {
        self.full_precision = Some(Some(b));
        self
    }

    /// Sets the compressed-pattern bit budget (default 24).
    #[must_use]
    pub fn with_pattern_budget(mut self, bits: u32) -> Self {
        self.pattern_budget = bits;
        self
    }

    /// Sets the target-address compressor (§4.1).
    #[must_use]
    pub fn with_compressor(mut self, compressor: PatternCompressor) -> Self {
        self.compressor = compressor;
        self
    }

    /// Sets the pattern-bit interleaving (§5.2.1).
    #[must_use]
    pub fn with_interleaving(mut self, interleaving: Interleaving) -> Self {
        self.interleaving = interleaving;
        self
    }

    /// Sets how the branch address combines with the pattern (§4.2).
    #[must_use]
    pub fn with_key_scheme(mut self, scheme: KeyScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Sets the target update rule (§3.1).
    #[must_use]
    pub fn with_update_rule(mut self, rule: UpdateRule) -> Self {
        self.rule = rule;
        self
    }

    /// Sets the per-entry confidence counter width (§6.1).
    #[must_use]
    pub fn with_confidence_bits(mut self, bits: u8) -> Self {
        self.confidence_bits = bits;
        self
    }

    /// Feeds conditional branch targets into the history (§3.3 variation).
    #[must_use]
    pub fn with_cond_targets(mut self, include: bool) -> Self {
        self.include_cond = include;
        self
    }

    /// The family this config builds.
    #[must_use]
    pub fn kind(&self) -> PredictorKind {
        self.kind
    }

    /// The (first) path length.
    #[must_use]
    pub fn path_len(&self) -> usize {
        self.path_len
    }

    /// Whether this configuration's predictor state partitions disjointly
    /// by branch site, and if so at which granularity.
    ///
    /// A sharded simulator may route events to independent workers — each
    /// owning one partition of predictor state — and merge per-shard stats
    /// into results identical to a sequential fold, **iff** no two sites in
    /// different partitions can ever read or write the same state. Three
    /// parameters decide that:
    ///
    /// * **table bound** — a bounded table ([`with_entries`]) interleaves
    ///   replacement decisions across all sites: evicting site A's entry
    ///   depends on when site B inserted. Only unbounded tables partition.
    /// * **history sharing `s`** — for path lengths above zero, branches
    ///   with the same `pc >> s` share a history register; `s = 31`
    ///   (global) chains every site together. BTBs and `p = 0` components
    ///   never read the history, so it does not constrain them.
    /// * **table sharing `h` and the key scheme** — entries must be
    ///   reachable from only one site region. Full-precision keys carry
    ///   `pc >> h` as a distinct field and concatenated compressed keys
    ///   give it disjoint bits, so both partition at granularity `h` (when
    ///   `h < 31`). A gshare-**xor** key with a non-empty pattern folds the
    ///   address into the pattern bits: two sites in different regions can
    ///   alias to one entry, so such configs never shard.
    ///
    /// The resulting [`ShardRouting`] routes by `pc >> max(s, h)` (taking
    /// only the constraints that apply); hybrid and BPST configs must
    /// satisfy all of this for both components (BPST selector counters are
    /// per-branch and never constrain). Returns `None` when any condition
    /// fails — callers fall back to the sequential fold.
    ///
    /// [`with_entries`]: PredictorConfig::with_entries
    #[must_use]
    pub fn shardable(&self) -> Option<ShardRouting> {
        if self.entries.is_some() {
            return None;
        }
        let mut exponent = 0u32;
        let mut routes_cond = false;
        let path_lens: &[usize] = match self.kind {
            PredictorKind::Btb | PredictorKind::TwoLevel => &[self.path_len][..],
            PredictorKind::Hybrid | PredictorKind::Bpst => &[self.path_len, self.path_len2][..],
        };
        for &p in path_lens {
            // Key aliasing: full-precision and concatenated keys keep the
            // address component separable; xor keys only when the pattern
            // is empty (p = 0 — the key degenerates to the bare address).
            let separable =
                self.full_precision.is_some() || p == 0 || self.scheme == KeyScheme::Concat;
            if !separable || self.table_sharing.h() >= 31 {
                return None;
            }
            exponent = exponent.max(self.table_sharing.h());
            if p > 0 {
                // The component reads its history register.
                if self.history_sharing.is_global() {
                    return None;
                }
                exponent = exponent.max(self.history_sharing.s());
                // Conditional targets feed the same per-set registers, so
                // they must follow the same routing.
                routes_cond |= self.include_cond;
            }
        }
        Some(ShardRouting {
            exponent,
            routes_cond,
        })
    }

    /// The [`PathFamily`] and path length of a full-precision, unbounded,
    /// single two-level configuration (a BTB kind included), or `None` for
    /// any other configuration and for invalid ones. A
    /// [`PathTrie`](crate::PathTrie) over the family at this path length
    /// scores what [`build_kernel`](PredictorConfig::build_kernel) would.
    #[must_use]
    pub fn path_family(&self) -> Option<(PathFamily, usize)> {
        let precision = self.full_precision?;
        let single = matches!(self.kind, PredictorKind::Btb | PredictorKind::TwoLevel);
        if !single || self.entries.is_some() || self.validate().is_err() {
            return None;
        }
        let family = PathFamily {
            history_sharing: self.history_sharing,
            table_sharing: self.table_sharing,
            element: self.history_element,
            precision,
            rule: self.rule,
            confidence_bits: self.confidence_bits,
            include_cond: self.include_cond,
        };
        Some((family, self.path_len))
    }

    /// Splits a hybrid configuration into its two component configurations
    /// plus the metapredictor specification that arbitrates them. Returns
    /// `None` for non-hybrid kinds and for invalid configurations.
    ///
    /// Each component config is this config with the kind forced to
    /// [`PredictorKind::TwoLevel`] and one of the pair's path lengths, so
    /// `component.try_build_two_level()` constructs *exactly* the
    /// predictor [`try_build`](PredictorConfig::try_build) would embed in
    /// the hybrid. That is the foundation of the component-parallel fold
    /// (`ibp_sim::component`): fold each component independently, then
    /// replay the recorded lookups through a
    /// [`MetaState`](crate::MetaState) built from the returned
    /// [`MetaSpec`] — the result is byte-identical to the sequential
    /// hybrid fold. The sweep engine folds every hybrid by this
    /// decomposition: its pass's component bank
    /// ([`KeyStreams`](crate::KeyStreams)) splits each hybrid kernel into
    /// the same two components, folds each distinct component once for
    /// every lane that holds it, and replays the recorded lookups through
    /// the same arbitration.
    #[must_use]
    pub fn decompose(&self) -> Option<Decomposition> {
        let meta = match self.kind {
            PredictorKind::Hybrid => MetaSpec::Confidence,
            // The BPST selector width is not a config knob; `try_build`
            // always constructs the default 2-bit selectors.
            PredictorKind::Bpst => MetaSpec::Bpst { selector_bits: 2 },
            PredictorKind::Btb | PredictorKind::TwoLevel => return None,
        };
        self.validate().ok()?;
        let component = |path_len: usize| {
            let mut c = self.clone();
            c.kind = PredictorKind::TwoLevel;
            c.path_len = path_len;
            c.path_len2 = 0;
            c
        };
        Some(Decomposition {
            first: component(self.path_len),
            second: component(self.path_len2),
            meta,
        })
    }

    /// Builds the typed two-level predictor for a non-hybrid
    /// configuration. Component workers use this instead of
    /// [`build`](PredictorConfig::build) because they need
    /// [`TwoLevelPredictor::lookup`] — the confidence-carrying variant of
    /// `predict` that the metapredictor replay consumes.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for invalid parameter combinations, or
    /// [`ConfigError::Unrepresentable`] for hybrid kinds (decompose those
    /// first).
    pub fn try_build_two_level(&self) -> Result<TwoLevelPredictor, ConfigError> {
        match self.kind {
            PredictorKind::Btb | PredictorKind::TwoLevel => {
                self.validate()?;
                self.build_component(self.path_len)
            }
            PredictorKind::Hybrid | PredictorKind::Bpst => Err(ConfigError::Unrepresentable(
                "a hybrid is not a single two-level component",
            )),
        }
    }

    /// A canonical identity string covering *every* parameter of this
    /// configuration: two configs with the same key build predictors with
    /// identical behaviour, so simulation results may be memoized under it
    /// (`ibp_sim::engine` does exactly that).
    #[must_use]
    pub fn cache_key(&self) -> String {
        format!(
            "{:?}|p={},{}|hshare={:?}|tshare={:?}|elem={:?}|full={:?}|budget={}\
             |comp={:?}|il={:?}|scheme={:?}|entries={:?}|assoc={:?}|rule={:?}\
             |conf={}|cond={}",
            self.kind,
            self.path_len,
            self.path_len2,
            self.history_sharing,
            self.table_sharing,
            self.history_element,
            self.full_precision,
            self.pattern_budget,
            self.compressor,
            self.interleaving,
            self.scheme,
            self.entries,
            self.assoc,
            self.rule,
            self.confidence_bits,
            self.include_cond,
        )
    }

    /// Builds the predictor.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameter combinations; see
    /// [`try_build`](PredictorConfig::try_build) for the fallible variant.
    #[must_use]
    pub fn build(&self) -> Box<dyn Predictor> {
        self.try_build().expect("invalid predictor configuration")
    }

    /// Builds the predictor, reporting invalid combinations as errors.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first invalid parameter
    /// combination found.
    pub fn try_build(&self) -> Result<Box<dyn Predictor>, ConfigError> {
        self.validate()?;
        match self.kind {
            PredictorKind::Btb | PredictorKind::TwoLevel => {
                Ok(Box::new(self.build_component(self.path_len)?))
            }
            PredictorKind::Hybrid => {
                let first = self.build_component(self.path_len)?;
                let second = self.build_component(self.path_len2)?;
                Ok(Box::new(HybridPredictor::new(first, second)))
            }
            PredictorKind::Bpst => {
                let first = self.build_component(self.path_len)?;
                let second = self.build_component(self.path_len2)?;
                Ok(Box::new(BpstMetaPredictor::new(first, second)))
            }
        }
    }

    /// Builds the chunk-fold kernel for this configuration: every kind
    /// maps to a concrete [`FoldKernel`] variant (BTBs are two-level
    /// predictors with path length zero), which a pass's component bank
    /// can attach to. Use [`FoldKernel::from_boxed`] to wrap
    /// externally-built predictors in the `Dyn` fallback instead.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameter combinations; see
    /// [`try_build_kernel`](PredictorConfig::try_build_kernel) for the
    /// fallible variant.
    #[must_use]
    pub fn build_kernel(&self) -> FoldKernel {
        self.try_build_kernel()
            .expect("invalid predictor configuration")
    }

    /// Builds the chunk-fold kernel, reporting invalid combinations as
    /// errors.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first invalid parameter
    /// combination found.
    pub fn try_build_kernel(&self) -> Result<FoldKernel, ConfigError> {
        self.validate()?;
        match self.kind {
            PredictorKind::Btb | PredictorKind::TwoLevel => {
                Ok(FoldKernel::TwoLevel(self.build_component(self.path_len)?))
            }
            PredictorKind::Hybrid => {
                let first = self.build_component(self.path_len)?;
                let second = self.build_component(self.path_len2)?;
                Ok(FoldKernel::Hybrid(HybridPredictor::new(first, second)))
            }
            PredictorKind::Bpst => {
                let first = self.build_component(self.path_len)?;
                let second = self.build_component(self.path_len2)?;
                Ok(FoldKernel::Bpst(BpstMetaPredictor::new(first, second)))
            }
        }
    }

    fn validate(&self) -> Result<(), ConfigError> {
        for p in [self.path_len, self.path_len2] {
            if p > MAX_PATH {
                return Err(ConfigError::PathTooLong(p));
            }
        }
        if !(1..=7).contains(&self.confidence_bits) {
            return Err(ConfigError::BadConfidenceBits(self.confidence_bits));
        }
        if let Some(entries) = self.entries {
            if entries == 0 || !entries.is_power_of_two() {
                return Err(ConfigError::BadTableSize(entries));
            }
            if let Associativity::Ways(w) = self.assoc {
                if w == 0 || !w.is_power_of_two() || w > entries {
                    return Err(ConfigError::BadAssociativity { entries, ways: w });
                }
            }
            if self.full_precision.is_some() {
                return Err(ConfigError::BoundedFullPrecision);
            }
        }
        if matches!(self.kind, PredictorKind::Hybrid | PredictorKind::Bpst)
            && self.full_precision.is_some()
            && self.path_len == self.path_len2
        {
            return Err(ConfigError::Unrepresentable(
                "hybrid of identical unconstrained components",
            ));
        }
        Ok(())
    }

    fn build_component(&self, path_len: usize) -> Result<TwoLevelPredictor, ConfigError> {
        let p = match self.full_precision {
            Some(precision) => TwoLevelPredictor::unconstrained_full(
                path_len,
                self.history_sharing,
                self.table_sharing,
                precision,
            ),
            None => {
                let spec = CompressedKeySpec::new(
                    path_len,
                    self.pattern_budget,
                    self.compressor,
                    self.interleaving,
                    self.scheme,
                )
                .with_table_sharing(self.table_sharing);
                let base = match (self.entries, self.assoc) {
                    (None, _) => TwoLevelPredictor::compressed_unbounded(spec),
                    (Some(n), Associativity::Tagless) => TwoLevelPredictor::tagless(spec, n),
                    (Some(n), Associativity::Full) => TwoLevelPredictor::full_assoc(spec, n),
                    (Some(n), Associativity::Ways(w)) => TwoLevelPredictor::set_assoc(spec, n, w),
                };
                base.with_history_sharing(self.history_sharing)
            }
        };
        Ok(p.with_history_element(self.history_element)
            .with_update_rule(self.rule)
            .with_confidence_bits(self.confidence_bits)
            .with_cond_targets(self.include_cond))
    }
}

/// A hybrid configuration split into its parts by
/// [`PredictorConfig::decompose`]: the two component configurations (each
/// a standalone [`PredictorKind::TwoLevel`] config) plus the metapredictor
/// specification that arbitrates between them per event.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// The tie-winning component ("p1" of a `p1.p2` pair).
    pub first: PredictorConfig,
    /// The other component.
    pub second: PredictorConfig,
    /// What arbitrates per-event between the components' predictions.
    pub meta: MetaSpec,
}

/// How to route trace events to shard workers for a configuration that
/// passed [`PredictorConfig::shardable`].
///
/// Two branch sites whose addresses agree above the exponent —
/// `pc >> exponent` equal — may share predictor state and must land on the
/// same shard; [`shard_of`](ShardRouting::shard_of) guarantees that while
/// spreading site regions evenly over the workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouting {
    exponent: u32,
    routes_cond: bool,
}

impl ShardRouting {
    /// The sharing granularity: sites with equal `pc >> exponent` must stay
    /// together.
    #[must_use]
    pub fn exponent(&self) -> u32 {
        self.exponent
    }

    /// Whether conditional-branch events must be routed like indirect ones
    /// (they feed per-set histories); when `false` a sharded consumer may
    /// drop them — `observe_cond` is a no-op for the configuration.
    #[must_use]
    pub fn routes_cond(&self) -> bool {
        self.routes_cond
    }

    /// The worker index in `0..shards` for a branch at `pc`.
    ///
    /// Deterministic in `(pc, shards)`: the site region id is mixed with a
    /// Fibonacci multiplier so consecutive regions (the common layout of
    /// generated call sites) do not all collapse onto shard
    /// `region % shards`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn shard_of(&self, pc: Addr, shards: usize) -> usize {
        assert!(shards > 0, "shard_of needs at least one shard");
        let region = u64::from(pc.set_id(self.exponent));
        let mixed = region.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17;
        (mixed % shards as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(raw: u32) -> Addr {
        Addr::new(raw)
    }

    #[test]
    fn presets_build() {
        for cfg in [
            PredictorConfig::btb(),
            PredictorConfig::btb_2bc(),
            PredictorConfig::btb_bounded(256),
            PredictorConfig::unconstrained(6),
            PredictorConfig::compressed_unbounded(8),
            PredictorConfig::practical(3, 1024, 4),
            PredictorConfig::tagless(3, 1024),
            PredictorConfig::full_assoc(3, 1024),
            PredictorConfig::hybrid(3, 1, 512, 4),
            PredictorConfig::hybrid_tagless(3, 1, 512),
            PredictorConfig::bpst(3, 1, 512, 4),
        ] {
            let mut p = cfg.build();
            p.update(a(0x100), a(0x900));
            let _ = p.predict(a(0x100));
        }
    }

    #[test]
    fn practical_reports_storage() {
        let p = PredictorConfig::practical(3, 1024, 4).build();
        assert_eq!(p.storage_entries(), Some(1024));
        let h = PredictorConfig::hybrid(3, 1, 1024, 4).build();
        assert_eq!(h.storage_entries(), Some(2048));
    }

    #[test]
    fn bad_table_size_rejected() {
        let err = PredictorConfig::practical(3, 1000, 4)
            .try_build()
            .map(drop)
            .unwrap_err();
        assert_eq!(err, ConfigError::BadTableSize(1000));
    }

    #[test]
    fn bad_ways_rejected() {
        let err = PredictorConfig::practical(3, 64, 3)
            .try_build()
            .map(drop)
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::BadAssociativity {
                entries: 64,
                ways: 3
            }
        );
        let err = PredictorConfig::practical(3, 2, 4)
            .try_build()
            .map(drop)
            .unwrap_err();
        assert!(matches!(err, ConfigError::BadAssociativity { .. }));
    }

    #[test]
    fn bounded_full_precision_rejected() {
        let err = PredictorConfig::unconstrained(3)
            .with_entries(1024)
            .try_build()
            .map(drop)
            .unwrap_err();
        assert_eq!(err, ConfigError::BoundedFullPrecision);
    }

    #[test]
    fn path_too_long_rejected() {
        let err = PredictorConfig::unconstrained(19)
            .try_build()
            .map(drop)
            .unwrap_err();
        assert_eq!(err, ConfigError::PathTooLong(19));
    }

    #[test]
    fn bad_confidence_rejected() {
        let err = PredictorConfig::practical(3, 64, 2)
            .with_confidence_bits(0)
            .try_build()
            .map(drop)
            .unwrap_err();
        assert_eq!(err, ConfigError::BadConfidenceBits(0));
    }

    #[test]
    fn errors_display_lowercase() {
        let msgs = [
            ConfigError::PathTooLong(19).to_string(),
            ConfigError::BadTableSize(7).to_string(),
            ConfigError::BoundedFullPrecision.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(m.chars().next().unwrap().is_lowercase() || m.starts_with(char::is_numeric));
            assert!(!m.ends_with('.'));
        }
    }

    #[test]
    fn kind_and_path_accessors() {
        let c = PredictorConfig::hybrid(5, 2, 256, 2);
        assert_eq!(c.kind(), PredictorKind::Hybrid);
        assert_eq!(c.path_len(), 5);
    }

    #[test]
    fn decompose_covers_hybrid_kinds_only() {
        assert!(PredictorConfig::btb().decompose().is_none());
        assert!(PredictorConfig::practical(3, 1024, 4).decompose().is_none());
        let d = PredictorConfig::hybrid(6, 2, 4096, 4)
            .decompose()
            .expect("hybrids decompose");
        assert_eq!(d.meta, MetaSpec::Confidence);
        assert_eq!(d.first.kind(), PredictorKind::TwoLevel);
        assert_eq!(d.first.path_len(), 6);
        assert_eq!(d.second.path_len(), 2);
        let d = PredictorConfig::bpst(3, 1, 512, 4)
            .decompose()
            .expect("bpst");
        assert_eq!(d.meta, MetaSpec::Bpst { selector_bits: 2 });
        // Invalid configs do not decompose.
        assert!(PredictorConfig::hybrid(3, 1, 1000, 4).decompose().is_none());
    }

    #[test]
    fn decomposed_components_build_the_embedded_predictors() {
        let cfg = PredictorConfig::hybrid(6, 2, 4096, 4);
        let d = cfg.decompose().expect("decomposes");
        let first = d.first.try_build_two_level().expect("first builds");
        let second = d.second.try_build_two_level().expect("second builds");
        let hybrid = cfg.build();
        // Rebuilding the hybrid from the decomposed components reproduces
        // the sequential predictor exactly (name covers every knob the
        // component builder reads).
        assert_eq!(HybridPredictor::new(first, second).name(), hybrid.name());
        assert!(cfg.try_build_two_level().is_err());
    }

    #[test]
    fn btb_rules_differ() {
        // BTB replaces on one miss; BTB-2bc needs two.
        let mut btb = PredictorConfig::btb().build();
        let mut btb2 = PredictorConfig::btb_2bc().build();
        for p in [&mut btb, &mut btb2] {
            p.update(a(0x100), a(0x900));
            p.update(a(0x100), a(0xA00));
        }
        assert_eq!(btb.predict(a(0x100)), Some(a(0xA00)));
        assert_eq!(btb2.predict(a(0x100)), Some(a(0x900)));
    }

    #[test]
    fn precision_setting_builds() {
        let p = PredictorConfig::unconstrained(8).with_precision(2).build();
        assert!(p.name().contains("2-bit"));
    }

    #[test]
    fn btb_shards_by_table_region() {
        // p = 0: the history never constrains, the xor key degenerates to
        // the bare address. Routes at h = 2, ignores conditionals.
        for cfg in [PredictorConfig::btb(), PredictorConfig::btb_2bc()] {
            let r = cfg.shardable().expect("unbounded BTB shards");
            assert_eq!(r.exponent(), 2);
            assert!(!r.routes_cond());
        }
    }

    #[test]
    fn bounded_tables_never_shard() {
        assert!(PredictorConfig::btb_bounded(256).shardable().is_none());
        assert!(PredictorConfig::practical(3, 1024, 4).shardable().is_none());
        assert!(PredictorConfig::hybrid(3, 1, 512, 4).shardable().is_none());
    }

    #[test]
    fn global_history_never_shards_at_positive_path_length() {
        // The presets default to global history.
        assert!(PredictorConfig::unconstrained(8).shardable().is_none());
        assert!(PredictorConfig::compressed_unbounded(3)
            .shardable()
            .is_none());
    }

    #[test]
    fn per_set_history_shards_at_the_coarser_exponent() {
        let r = PredictorConfig::unconstrained(8)
            .with_history_sharing(HistorySharing::per_set(9))
            .shardable()
            .expect("per-set full-precision config shards");
        assert_eq!(r.exponent(), 9, "max(s = 9, h = 2)");
        let r = PredictorConfig::unconstrained(4)
            .with_history_sharing(HistorySharing::PER_ADDRESS)
            .with_table_sharing(TableSharing::per_set(12))
            .shardable()
            .expect("h above s");
        assert_eq!(r.exponent(), 12, "max(s = 2, h = 12)");
    }

    #[test]
    fn xor_keys_with_patterns_never_shard() {
        // A gshare-xor key folds the address into the pattern bits: sites
        // in different regions can alias to one unbounded-table entry.
        let cfg = PredictorConfig::compressed_unbounded(3)
            .with_history_sharing(HistorySharing::PER_ADDRESS);
        assert!(cfg.shardable().is_none());
        // The same config with disjoint (concatenated) address bits shards.
        let r = cfg
            .with_key_scheme(KeyScheme::Concat)
            .shardable()
            .expect("concat keys keep regions disjoint");
        assert_eq!(r.exponent(), 2);
    }

    #[test]
    fn global_table_sharing_never_shards() {
        let cfg = PredictorConfig::unconstrained(0).with_table_sharing(TableSharing::GLOBAL);
        assert!(cfg.shardable().is_none());
    }

    #[test]
    fn cond_targets_route_only_when_histories_consume_them() {
        let base =
            PredictorConfig::unconstrained(6).with_history_sharing(HistorySharing::per_set(4));
        assert!(!base.clone().shardable().expect("shards").routes_cond());
        assert!(base
            .with_cond_targets(true)
            .shardable()
            .expect("still shards")
            .routes_cond());
        // p = 0 ignores history entirely, conditionals included.
        assert!(!PredictorConfig::btb()
            .with_cond_targets(true)
            .shardable()
            .expect("shards")
            .routes_cond());
    }

    #[test]
    fn hybrid_components_must_both_shard() {
        // Unbounded concat hybrid with per-set history: both components
        // satisfy the conditions.
        let mut ok = PredictorConfig::hybrid(3, 1, 512, 4)
            .with_unbounded_table()
            .with_key_scheme(KeyScheme::Concat)
            .with_history_sharing(HistorySharing::per_set(5));
        assert_eq!(ok.shardable().expect("shards").exponent(), 5);
        // Flip one shared parameter and both components fail together.
        ok = ok.with_history_sharing(HistorySharing::GLOBAL);
        assert!(ok.shardable().is_none());
    }

    #[test]
    fn shard_of_is_deterministic_and_in_range() {
        let r = PredictorConfig::btb().shardable().expect("shards");
        for shards in [1usize, 2, 4, 7] {
            for i in 0..200u32 {
                let pc = a(0x1000 + 8 * i);
                let s1 = r.shard_of(pc, shards);
                assert!(s1 < shards);
                assert_eq!(s1, r.shard_of(pc, shards));
            }
        }
    }

    #[test]
    fn shard_of_keeps_a_site_region_together() {
        let r = PredictorConfig::unconstrained(3)
            .with_history_sharing(HistorySharing::per_set(8))
            .shardable()
            .expect("shards");
        // Two addresses in one 2^8-byte region always co-locate.
        assert_eq!(r.shard_of(a(0x4200), 7), r.shard_of(a(0x42FC), 7));
    }
}
