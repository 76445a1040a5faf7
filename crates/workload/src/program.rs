//! The synthetic program model and trace generator.
//!
//! # Generative model
//!
//! Traces are produced by a four-level hierarchy mirroring how real
//! programs produce indirect-branch streams:
//!
//! 1. **Activities** — basic units of work (an AST node visit, a bytecode
//!    handler). Each activity executes a fixed *script* of 1–2 indirect
//!    branch sites, with the target of each site determined by a fixed
//!    `(activity, site) → class` map. Targets come from a shared *method
//!    pool*, so one target address is reachable from many contexts.
//! 2. **Idioms** — short fixed sequences of activities (3–7), globally
//!    shared, like common code shapes (`push push add`, a loop header, a
//!    call sequence). Because idioms share activities and appear inside
//!    many melodies, a short history suffix is ambiguous; disambiguation
//!    needs a path history on the order of the idiom length — this is what
//!    places the paper's misprediction minimum at `p ≈ 6` rather than
//!    `p = 1`.
//! 3. **Modes** — "functions": each mode cycles through a fixed *melody*
//!    of idioms. Every visit to a mode replays the same melody, so its
//!    patterns recur and stay learnable (real programs loop).
//! 4. **The program** — switches between modes at random intervals. The
//!    switch decisions, rare idiom *deviations*, and per-burst class
//!    *variants* are the genuinely data-dependent, unpredictable part and
//!    set each benchmark's misprediction floor.
//!
//! Everything structural is derived by stable hashing from the seed, so a
//! config generates bit-identical traces on every run.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ibp_trace::io::TraceIoError;
use ibp_trace::{chunk_events, Addr, BranchKind, EventSource, Trace, TraceChunk};

use crate::mix::KindMix;
use crate::zipf::Zipf;

/// Stable 64-bit mixing (splitmix64 finaliser). Used for all *structural*
/// pseudo-randomness (target maps, idioms, melodies) so that the model is a
/// pure function of the seed, independent of RNG call order.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hashes a sequence of values into one stable 64-bit value.
fn stable_hash(parts: &[u64]) -> u64 {
    let mut acc = 0x51_7c_c1_b7_27_22_0a_95u64;
    for &p in parts {
        acc = mix64(acc ^ p);
    }
    acc
}

/// Converts a hash to a unit-interval float.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Configuration of a synthetic program.
///
/// This is a passive parameter record (all fields public); build a
/// [`ProgramModel`] from it to generate traces. The defaults produce a
/// mid-sized object-oriented program; the [`Benchmark`](crate::Benchmark)
/// presets override fields per paper benchmark. See the module docs for
/// the generative model.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramConfig {
    /// Program name (becomes the trace name).
    pub name: String,
    /// Default number of indirect-branch events to generate.
    pub events: u64,
    /// Number of distinct indirect-branch sites.
    pub sites: usize,
    /// Number of activities.
    pub activities: usize,
    /// Number of shared idioms.
    pub idioms: usize,
    /// Idiom length range in activities, `(min, max)` inclusive.
    pub idiom_len: (usize, usize),
    /// Melody length range in idioms per mode, `(min, max)` inclusive.
    pub melody_len: (usize, usize),
    /// Number of modes ("functions" the program switches between).
    pub modes: usize,
    /// How many times a mode visit repeats its melody before the program
    /// switches modes, `(min, max)` inclusive. Switches happen only at
    /// melody boundaries, so the window combinations around a switch are
    /// finite and recur — the reason real traces' misprediction grows only
    /// gently with very long path histories.
    pub mode_reps: (u64, u64),
    /// Number of idiom families. Idioms within a family share their prefix
    /// activities and diverge only in the second half, so early-idiom
    /// events are ambiguous until the history reaches back past the
    /// divergence point — this is what pushes the best path length beyond
    /// 1–2.
    pub idiom_families: usize,
    /// Probability, at each idiom boundary, of substituting a random idiom
    /// for the melody's next one — rare data-dependent control flow.
    pub deviation: f64,
    /// Script length range per activity, `(min, max)` inclusive.
    pub script_len: (usize, usize),
    /// Maximum distinct targets (classes) per polymorphic site.
    pub classes: usize,
    /// Fraction of sites that are monomorphic (placed in the cold tail;
    /// hot sites are always polymorphic, as in real programs).
    pub mono_fraction: f64,
    /// Probability that an `(activity, site)` pair maps to class 0 — the
    /// dominant-target skew object-oriented programs exhibit.
    pub class_skew: f64,
    /// Stationary fraction of bursts executing the activity's *variant*
    /// class map instead of its usual one. Variants model data-dependent
    /// behaviour; they arrive in sticky runs (persistence 0.7) because real
    /// rare paths cluster — a loop hitting unusual data hits it repeatedly.
    /// Run starts are unpredictable (the misprediction floor); run
    /// interiors are recurring, learnable context.
    pub noise: f64,
    /// Re-draw melodies every this many indirect events (a slow program
    /// phase change, penalising long-history predictors).
    pub phase_events: Option<u64>,
    /// Conditional branches per indirect branch (Tables 1–2 column).
    pub cond_per_indirect: f64,
    /// Instructions per indirect branch (Tables 1–2 column).
    pub instr_per_indirect: f64,
    /// At most this many conditional branches are materialised as events
    /// per indirect branch; the rest are summarised (counts only).
    pub cond_trace_cap: f64,
    /// Zipf exponent for site selection when building scripts.
    pub site_zipf: f64,
    /// Mix of virtual / fn-pointer / switch sites.
    pub kind_mix: KindMix,
    /// Size of the shared "method" pool targets are drawn from, or `None`
    /// to derive `max(12, sites / 4)`. Smaller pools mean more target
    /// sharing between contexts, i.e. more ambiguity for short histories.
    pub method_pool: Option<usize>,
    /// Code region size in bytes (sites are placed within it).
    pub code_bytes: u32,
    /// Seed for both structure and event randomness.
    pub seed: u64,
}

/// Version of the generative model. Bump whenever generation semantics
/// change — any model or calibration edit that alters the event stream
/// emitted for an unchanged [`ProgramConfig`] — so that persisted trace
/// segments keyed by [`ProgramConfig::fingerprint`] are regenerated
/// rather than silently replayed stale.
pub const GENERATOR_VERSION: u32 = 1;

impl ProgramConfig {
    /// A stable 64-bit fingerprint of everything the generated event
    /// stream depends on: [`GENERATOR_VERSION`] plus every configuration
    /// field (floats hashed by bit pattern). Two configs with equal
    /// fingerprints generate identical streams; any parameter or model
    /// change moves the fingerprint, which is how the persistent trace
    /// corpus cache in `ibp-sim` invalidates stale segments.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let f = f64::to_bits;
        let name_hash = self
            .name
            .bytes()
            .map(u64::from)
            .fold(0, |a, b| mix64(a ^ b));
        stable_hash(&[
            u64::from(GENERATOR_VERSION),
            name_hash,
            self.seed,
            self.events,
            self.sites as u64,
            self.activities as u64,
            self.idioms as u64,
            self.idiom_len.0 as u64,
            self.idiom_len.1 as u64,
            self.melody_len.0 as u64,
            self.melody_len.1 as u64,
            self.modes as u64,
            self.mode_reps.0,
            self.mode_reps.1,
            self.idiom_families as u64,
            f(self.deviation),
            self.script_len.0 as u64,
            self.script_len.1 as u64,
            self.classes as u64,
            f(self.mono_fraction),
            f(self.class_skew),
            f(self.noise),
            u64::from(self.phase_events.is_some()),
            self.phase_events.unwrap_or(0),
            f(self.cond_per_indirect),
            f(self.instr_per_indirect),
            f(self.cond_trace_cap),
            f(self.site_zipf),
            f(self.kind_mix.virtual_fraction()),
            f(self.kind_mix.fn_pointer_fraction()),
            u64::from(self.method_pool.is_some()),
            self.method_pool.unwrap_or(0) as u64,
            u64::from(self.code_bytes),
        ])
    }

    /// A default configuration named `name`, seeded from the name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        let seed = stable_hash(&[name.bytes().map(u64::from).fold(0, |a, b| mix64(a ^ b)), 1]);
        ProgramConfig {
            name,
            events: 120_000,
            sites: 200,
            activities: 96,
            idioms: 24,
            idiom_len: (3, 7),
            melody_len: (4, 10),
            modes: 12,
            mode_reps: (1, 4),
            idiom_families: 8,
            deviation: 0.02,
            script_len: (1, 2),
            classes: 8,
            mono_fraction: 0.35,
            class_skew: 0.40,
            noise: 0.01,
            phase_events: Some(60_000),
            cond_per_indirect: 12.0,
            instr_per_indirect: 120.0,
            cond_trace_cap: 2.0,
            site_zipf: 0.9,
            kind_mix: KindMix::default(),
            method_pool: None,
            code_bytes: 1 << 20,
            seed,
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range parameters (zero counts, inverted ranges,
    /// probabilities outside `[0, 1]`, instruction budget below
    /// `1 + cond_per_indirect`).
    pub fn validate(&self) {
        assert!(self.sites > 0, "sites must be non-zero");
        assert!(self.activities > 0, "activities must be non-zero");
        assert!(self.idioms > 0, "idioms must be non-zero");
        assert!(
            self.idiom_len.0 >= 1 && self.idiom_len.0 <= self.idiom_len.1,
            "invalid idiom length range"
        );
        assert!(
            self.melody_len.0 >= 1 && self.melody_len.0 <= self.melody_len.1,
            "invalid melody length range"
        );
        assert!(self.modes >= 1, "modes must be non-zero");
        assert!(
            self.mode_reps.0 >= 1 && self.mode_reps.0 <= self.mode_reps.1,
            "invalid mode repetition range"
        );
        assert!(self.idiom_families >= 1, "idiom families must be non-zero");
        assert!(
            (0.0..=1.0).contains(&self.deviation),
            "deviation out of range"
        );
        assert!(
            self.script_len.0 >= 1 && self.script_len.0 <= self.script_len.1,
            "invalid script length range"
        );
        assert!(self.classes >= 1, "classes must be non-zero");
        assert!(
            (0.0..=1.0).contains(&self.mono_fraction),
            "mono fraction out of range"
        );
        assert!(
            (0.0..=1.0).contains(&self.class_skew),
            "class skew out of range"
        );
        assert!((0.0..=1.0).contains(&self.noise), "noise out of range");
        assert!(
            self.instr_per_indirect >= 1.0 + self.cond_per_indirect,
            "instruction budget below branch count"
        );
    }

    /// Builds the program structure (sites, scripts, idioms).
    #[must_use]
    pub fn build(&self) -> ProgramModel {
        ProgramModel::new(self.clone())
    }

    /// Convenience: builds the model and generates the default-length trace.
    #[must_use]
    pub fn generate(&self) -> Trace {
        self.build().generate()
    }
}

impl Default for ProgramConfig {
    fn default() -> Self {
        ProgramConfig::new("synthetic")
    }
}

#[derive(Debug, Clone)]
struct Site {
    pc: Addr,
    kind: BranchKind,
    targets: Vec<Addr>,
}

/// A fully constructed program: site tables, activity scripts and the idiom
/// library, ready to generate traces.
///
/// Construction and generation are deterministic functions of the
/// [`ProgramConfig`] (including its seed).
#[derive(Debug, Clone)]
pub struct ProgramModel {
    config: ProgramConfig,
    sites: Vec<Site>,
    /// Per-activity script: `(site index, usual class, variant class)`.
    scripts: Vec<Vec<(u32, u16, u16)>>,
    /// The idiom library: fixed activity sequences.
    idioms: Vec<Vec<u16>>,
    /// Melody length per mode.
    melody_lens: Vec<usize>,
    /// Pool of conditional-branch sites `(pc, taken target, taken prob)`.
    cond_sites: Vec<(Addr, Addr, f64)>,
}

impl ProgramModel {
    fn new(config: ProgramConfig) -> Self {
        config.validate();
        let mut rng = SmallRng::seed_from_u64(mix64(config.seed ^ 0xA11));

        // Place sites at distinct word addresses within the code region.
        let code_words = (config.code_bytes / 4).max(config.sites as u32 * 2);
        let mut used = std::collections::HashSet::new();
        let base_word = 0x0001_0000u32;
        let mut sites = Vec::with_capacity(config.sites);
        // Shared method pool: targets are drawn from this pool so that the
        // same target address is reachable from many contexts.
        let pool_size = config
            .method_pool
            .unwrap_or_else(|| (config.sites / 4).max(12));
        let target_base = base_word + code_words + 0x1000;
        let methods: Vec<Addr> = (0..pool_size)
            .map(|m| {
                Addr::from_word(
                    target_base
                        + (stable_hash(&[config.seed, 0x3E7, m as u64]) % u64::from(code_words * 4))
                            as u32,
                )
            })
            .collect();
        for s in 0..config.sites {
            let word = loop {
                let w = base_word + rng.gen_range(0..code_words);
                if used.insert(w) {
                    break w;
                }
            };
            let kind = config
                .kind_mix
                .pick(unit(stable_hash(&[config.seed, 0x6B1D, s as u64])));
            // Hot (low-rank) sites are polymorphic — megamorphic dispatch
            // sites dominate real traces — while the monomorphic fraction
            // sits in the cold tail.
            let mono_threshold =
                ((1.0 - config.mono_fraction) * config.sites as f64).round() as usize;
            let mono = s >= mono_threshold;
            let hot = s < (config.sites / 16).max(2);
            let n_targets = if mono {
                1
            } else if hot || config.classes <= 2 {
                config.classes.max(1)
            } else {
                2 + (stable_hash(&[config.seed, 0xC1A55, s as u64]) % (config.classes as u64 - 1))
                    as usize
            };
            // Pick n distinct methods from the shared pool (linear probe on
            // collision).
            let n_targets = n_targets.min(pool_size);
            let mut chosen: Vec<usize> = Vec::with_capacity(n_targets);
            for c in 0..n_targets {
                let mut m = (stable_hash(&[config.seed, 0x7A6, s as u64, c as u64])
                    % pool_size as u64) as usize;
                while chosen.contains(&m) {
                    m = (m + 1) % pool_size;
                }
                chosen.push(m);
            }
            let targets = chosen.into_iter().map(|m| methods[m]).collect();
            sites.push(Site {
                pc: Addr::from_word(word),
                kind,
                targets,
            });
        }

        // Scripts: Zipf-skewed site choices, fixed per activity, with the
        // usual and variant class per (activity, site).
        let zipf = Zipf::new(config.sites, config.site_zipf);
        let scripts: Vec<Vec<(u32, u16, u16)>> = (0..config.activities)
            .map(|a| {
                let len = rng.gen_range(config.script_len.0..=config.script_len.1);
                (0..len)
                    .map(|_| {
                        let site = zipf.sample(&mut rng) as u32;
                        let n = sites[site as usize].targets.len() as u64;
                        let h = stable_hash(&[config.seed, 0x5EED, a as u64, u64::from(site)]);
                        let class = if unit(h) < config.class_skew {
                            0
                        } else {
                            (mix64(h) % n) as u16
                        };
                        let alt = (stable_hash(&[config.seed, 0xA17E, a as u64, u64::from(site)])
                            % n) as u16;
                        (site, class, alt)
                    })
                    .collect()
            })
            .collect();

        // The idiom library: short fixed activity sequences. Idioms in the
        // same family share their *ending*: after such a shared suffix the
        // recent history looks identical for every family member, so
        // predicting what follows requires a history long enough to reach
        // back past the suffix — while each idiom's unique opening keeps
        // mode switches genuinely surprising.
        let idioms: Vec<Vec<u16>> = (0..config.idioms)
            .map(|i| {
                let len = config.idiom_len.0
                    + (stable_hash(&[config.seed, 0x1D10, i as u64])
                        % (config.idiom_len.1 - config.idiom_len.0 + 1) as u64)
                        as usize;
                let family =
                    stable_hash(&[config.seed, 0xFA3, i as u64]) % config.idiom_families as u64;
                let suffix_start = len - len / 2;
                (0..len)
                    .map(|k| {
                        let h = if k >= suffix_start {
                            // Suffix positions are indexed from the end so
                            // family members of different lengths share the
                            // same closing sequence.
                            stable_hash(&[config.seed, 0xFA317, family, (len - k) as u64])
                        } else {
                            stable_hash(&[config.seed, 0xAC7, i as u64, k as u64])
                        };
                        (h % config.activities as u64) as u16
                    })
                    .collect()
            })
            .collect();

        // Melody lengths (content is derived per phase on the fly).
        let melody_lens = (0..config.modes)
            .map(|m| {
                config.melody_len.0
                    + (stable_hash(&[config.seed, 0x3E10D, m as u64])
                        % (config.melody_len.1 - config.melody_len.0 + 1) as u64)
                        as usize
            })
            .collect();

        // Conditional-branch site pool. Real conditional branches are
        // strongly biased (loop back-edges ~always taken, error checks
        // ~never), so each site gets an extreme bias; the residual
        // activity dependence and a small random flip supply the variety.
        let cond_sites = (0..64)
            .map(|i| {
                let pc = Addr::from_word(base_word + code_words + 0x4000 + i * 2);
                let target = Addr::from_word(base_word + code_words + 0x8000 + i * 3);
                let h = stable_hash(&[config.seed, 0xC01D, u64::from(i)]);
                let taken = if unit(h) < 0.5 { 0.92 } else { 0.08 };
                (pc, target, taken)
            })
            .collect();

        ProgramModel {
            config,
            sites,
            scripts,
            idioms,
            melody_lens,
            cond_sites,
        }
    }

    /// The configuration this model was built from.
    #[must_use]
    pub fn config(&self) -> &ProgramConfig {
        &self.config
    }

    /// Number of indirect-branch sites.
    #[must_use]
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Number of idioms in the library.
    #[must_use]
    pub fn idiom_count(&self) -> usize {
        self.idioms.len()
    }

    /// The idiom at melody position `pos` of `mode` during `phase`.
    fn melody_idiom(&self, mode: usize, pos: usize, phase: u64) -> usize {
        (stable_hash(&[self.config.seed, 0x3E10, mode as u64, pos as u64, phase])
            % self.config.idioms as u64) as usize
    }

    /// Generates a trace of the configured default length.
    #[must_use]
    pub fn generate(&self) -> Trace {
        self.generate_with_len(self.config.events)
    }

    /// Generates a trace with exactly `events` indirect-branch executions.
    ///
    /// This drains a [`ProgramSource`] into a materialised trace, so the
    /// streamed and materialised paths are the same code by construction.
    #[must_use]
    pub fn generate_with_len(&self, events: u64) -> Trace {
        let cfg = &self.config;
        // Capacity for the indirect branches plus exactly the conditional
        // events that will materialise (the accumulator emits at most
        // ceil(events * ratio) of them; zero-conditional configs reserve
        // nothing extra).
        let cond_ratio = cfg.cond_trace_cap.min(cfg.cond_per_indirect).max(0.0);
        let capacity = (events as usize)
            .saturating_add((events as f64 * cond_ratio).ceil() as usize)
            .min(64 << 20);
        let mut trace = Trace::with_capacity(cfg.name.clone(), capacity);
        let mut state = GenState::new(self);
        let mut chunk = TraceChunk::default();
        loop {
            let more = state.fill(self, events, &mut chunk, chunk_events());
            trace.extend_chunk(&chunk);
            if !more {
                return trace;
            }
        }
    }

    /// A resumable [`EventSource`] producing exactly `events` indirect
    /// branches, event-for-event identical to
    /// [`generate_with_len`](ProgramModel::generate_with_len) regardless of
    /// how consumers chunk it.
    #[must_use]
    pub fn source(&self, events: u64) -> ProgramSource {
        ProgramSource {
            state: GenState::new(self),
            model: self.clone(),
            events,
        }
    }
}

/// Sticky variant persistence (see [`GenState`] and the `noise` config).
const VARIANT_PERSIST: f64 = 0.7;

/// The generator's complete resumable state: both RNG streams, the
/// fractional accumulators, and the position within the
/// mode/melody/idiom/script hierarchy.
///
/// [`fill`](GenState::fill) is the single generation loop; it suspends
/// whenever a chunk's indirect budget is reached and resumes exactly where
/// it left off. Suspension points consume no randomness, so the emitted
/// stream is independent of chunk boundaries.
#[derive(Debug, Clone)]
struct GenState {
    rng: SmallRng,
    cond_rng: SmallRng,
    emitted: u64,
    cond_acc: f64,
    instr_acc: f64,
    // Program position: which mode, how many melody repetitions remain,
    // where in its melody, and where in the current idiom.
    mode: usize,
    reps_left: u64,
    mel_pos: usize,
    idiom: usize,
    idiom_pos: usize,
    // Sticky variant state: stationary fraction `noise`, persistence
    // VARIANT_PERSIST.
    variant: bool,
    // Mid-burst suspension state: the activity being executed, the next
    // script element, and the phase captured at burst start (the idiom
    // advance at the burst's end uses the *entry* phase).
    in_burst: bool,
    activity: usize,
    script_pos: usize,
    burst_phase: u64,
}

impl GenState {
    fn new(model: &ProgramModel) -> Self {
        let cfg = &model.config;
        let mut rng = SmallRng::seed_from_u64(mix64(cfg.seed ^ 0xE7E9));
        // Conditional-branch randomness draws from its own stream so that
        // changes to the conditional policy can never perturb the indirect
        // target sequence (which the per-benchmark calibration pins down).
        let cond_rng = SmallRng::seed_from_u64(mix64(cfg.seed ^ 0xC01D1));
        let reps_left: u64 = rng.gen_range(cfg.mode_reps.0..=cfg.mode_reps.1);
        let idiom = model.melody_idiom(0, 0, 0);
        GenState {
            rng,
            cond_rng,
            emitted: 0,
            cond_acc: 0.0,
            instr_acc: 0.0,
            mode: 0,
            reps_left,
            mel_pos: 0,
            idiom,
            idiom_pos: 0,
            variant: false,
            in_burst: false,
            activity: 0,
            script_pos: 0,
            burst_phase: 0,
        }
    }

    /// Appends up to `max_indirect` indirect branches (with their
    /// conditional/instruction context) of a `total_events`-long trace into
    /// `chunk`; returns whether more events remain.
    fn fill(
        &mut self,
        model: &ProgramModel,
        total_events: u64,
        chunk: &mut TraceChunk,
        max_indirect: u64,
    ) -> bool {
        let cfg = &model.config;
        let per_event_instr = cfg.instr_per_indirect - 1.0 - cfg.cond_per_indirect;
        let enter_rate = if cfg.noise >= 1.0 {
            1.0
        } else {
            (cfg.noise * (1.0 - VARIANT_PERSIST) / (1.0 - cfg.noise)).min(1.0)
        };
        chunk.clear();
        let mut produced = 0u64;
        loop {
            if self.emitted >= total_events {
                return false;
            }
            if produced >= max_indirect {
                return true;
            }
            if !self.in_burst {
                // One burst: the current activity's script.
                self.burst_phase = match cfg.phase_events {
                    Some(n) if n > 0 => self.emitted / n,
                    _ => 0,
                };
                self.activity = usize::from(model.idioms[self.idiom][self.idiom_pos]);
                self.variant = if self.variant {
                    self.rng.gen::<f64>() < VARIANT_PERSIST
                } else {
                    cfg.noise > 0.0 && self.rng.gen::<f64>() < enter_rate
                };
                self.script_pos = 0;
                self.in_burst = true;
            }
            let script = &model.scripts[self.activity];
            while self.script_pos < script.len() {
                if self.emitted >= total_events {
                    // Generation ends mid-burst, exactly as the historical
                    // whole-trace loop broke out of its script; no further
                    // randomness is consumed.
                    return false;
                }
                if produced >= max_indirect {
                    return true;
                }
                let (site_idx, class, alt_class) = script[self.script_pos];
                let class = if self.variant { alt_class } else { class };
                // Conditional-branch context before the indirect branch.
                self.cond_acc += cfg.cond_per_indirect;
                let due = self.cond_acc.floor();
                self.cond_acc -= due;
                let due = due as u64;
                let traced = due.min(cfg.cond_trace_cap as u64);
                for j in 0..traced {
                    // Conditional branches correlate with program state but
                    // only weakly discriminate it: most dynamic conditionals
                    // are ubiquitous loop/bounds tests (drawn from a small
                    // common pool), a minority are activity-specific, and
                    // directions are strongly biased per site with a small
                    // data-dependent flip. (Were they i.i.d. random, the
                    // §3.3 history-pollution experiment would degrade to
                    // total misprediction; were they fully
                    // activity-determined, pollution would *help*.)
                    let h = stable_hash(&[cfg.seed, 0xCB7, self.activity as u64, j]);
                    let site = if unit(h) < 0.10 {
                        // Activity-specific conditional.
                        (mix64(h) % model.cond_sites.len() as u64) as usize
                    } else {
                        // Common-pool conditional (hot loop tests), with a
                        // slow drift that is uncorrelated with the activity:
                        // it dilutes polluted histories without identifying
                        // anything.
                        (stable_hash(&[cfg.seed, 0x9C2, j, self.emitted / 7 % 3]) % 6) as usize
                    };
                    let (pc, target, taken_p) = model.cond_sites[site];
                    let usually = unit(mix64(h ^ 0x5A)) < taken_p;
                    let flipped = self.cond_rng.gen::<f64>() < 0.05;
                    chunk.push_cond(pc, target, usually != flipped);
                }
                if due > traced {
                    chunk.record_cond_summary(due - traced);
                }
                // Plain instructions.
                self.instr_acc += per_event_instr;
                let gap = self.instr_acc.floor();
                self.instr_acc -= gap;
                chunk.record_instructions(gap as u64);

                // The indirect branch itself.
                let site = &model.sites[site_idx as usize];
                let target = site.targets[usize::from(class) % site.targets.len()];
                chunk.push_indirect(site.pc, target, site.kind);
                self.emitted += 1;
                produced += 1;
                self.script_pos += 1;
            }
            self.in_burst = false;

            // Advance program state by one burst.
            self.idiom_pos += 1;
            if self.idiom_pos >= model.idioms[self.idiom].len() {
                // Idiom boundary: follow the melody, or rarely deviate.
                self.idiom_pos = 0;
                self.mel_pos += 1;
                if self.mel_pos >= model.melody_lens[self.mode] {
                    // Melody complete.
                    self.mel_pos = 0;
                    self.reps_left -= 1;
                    if self.reps_left == 0 {
                        // Mode switch — the data-dependent "call": control
                        // moves to a random next mode. Switching only at
                        // melody boundaries keeps the set of windows around
                        // a switch finite, so they recur and stay learnable.
                        self.mode = self.rng.gen_range(0..cfg.modes);
                        self.reps_left = self.rng.gen_range(cfg.mode_reps.0..=cfg.mode_reps.1);
                    }
                }
                self.idiom = if cfg.deviation > 0.0 && self.rng.gen::<f64>() < cfg.deviation {
                    self.rng.gen_range(0..cfg.idioms)
                } else {
                    model.melody_idiom(self.mode, self.mel_pos, self.burst_phase)
                };
            }
        }
    }
}

/// A streaming trace generator: [`ProgramModel::source`].
///
/// Implements [`EventSource`]; draining it through any sequence of
/// [`fill`](EventSource::fill) calls yields the same events as
/// [`ProgramModel::generate_with_len`].
#[derive(Debug, Clone)]
pub struct ProgramSource {
    model: ProgramModel,
    events: u64,
    state: GenState,
}

impl ProgramSource {
    /// The model this source generates from.
    #[must_use]
    pub fn model(&self) -> &ProgramModel {
        &self.model
    }

    /// Total indirect branches this source produces over its lifetime.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }
}

impl EventSource for ProgramSource {
    fn name(&self) -> &str {
        &self.model.config.name
    }

    fn fill(&mut self, chunk: &mut TraceChunk, max_indirect: u64) -> Result<bool, TraceIoError> {
        Ok(self
            .state
            .fill(&self.model, self.events, chunk, max_indirect))
    }

    fn remaining_indirect(&self) -> Option<u64> {
        Some(self.events - self.state.emitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ProgramConfig {
        let mut c = ProgramConfig::new("test");
        c.events = 5_000;
        c.sites = 40;
        c.activities = 24;
        c.idioms = 8;
        c.modes = 6;
        c
    }

    #[test]
    fn generation_is_deterministic() {
        let t1 = small().generate();
        let t2 = small().generate();
        assert_eq!(t1.events(), t2.events());
        assert_eq!(t1.instructions(), t2.instructions());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = small();
        let mut b = small();
        a.seed = 1;
        b.seed = 2;
        assert_ne!(a.generate().events(), b.generate().events());
    }

    #[test]
    fn event_count_exact() {
        let t = small().build().generate_with_len(1234);
        assert_eq!(t.indirect_count(), 1234);
    }

    #[test]
    fn ratios_match_config() {
        let mut c = small();
        c.cond_per_indirect = 9.0;
        c.instr_per_indirect = 150.0;
        let t = c.generate();
        assert!(
            (t.cond_per_indirect() - 9.0).abs() < 0.05,
            "{}",
            t.cond_per_indirect()
        );
        assert!(
            (t.instructions_per_indirect() - 150.0).abs() < 1.0,
            "{}",
            t.instructions_per_indirect()
        );
    }

    #[test]
    fn cond_cap_limits_materialised_events() {
        let mut c = small();
        c.cond_per_indirect = 20.0;
        c.instr_per_indirect = 60.0;
        c.cond_trace_cap = 2.0;
        let t = c.generate();
        // Total cond count matches the ratio...
        assert!((t.cond_per_indirect() - 20.0).abs() < 0.1);
        // ...but materialised events are capped at ~2 per indirect.
        let materialised = t.events().iter().filter(|e| e.as_cond().is_some()).count() as u64;
        assert!(materialised <= t.indirect_count() * 2 + 2);
    }

    #[test]
    fn sites_within_bounds_and_skewed() {
        let m = small().build();
        assert_eq!(m.site_count(), 40);
        assert_eq!(m.idiom_count(), 8);
        let t = m.generate_with_len(5_000);
        let stats = t.stats();
        assert!(stats.distinct_sites <= 40);
        // Zipf skew: far fewer sites cover 90 % than 100 %.
        assert!(
            stats.active_sites(ibp_trace::CoverageLevel::P90)
                < stats.active_sites(ibp_trace::CoverageLevel::P100)
        );
    }

    #[test]
    fn mono_fraction_yields_monomorphic_sites() {
        let mut c = small();
        c.mono_fraction = 1.0;
        c.noise = 0.0;
        let t = c.generate();
        let stats = t.stats();
        assert!(stats.sites.iter().all(|s| s.is_monomorphic()));
        // All-mono programs are perfectly dominated.
        assert!((stats.weighted_dominant_share() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn variants_create_target_variation() {
        let mut c = small();
        c.mono_fraction = 0.0;
        c.classes = 6;
        c.class_skew = 1.0; // usual class is always 0...
        c.noise = 0.3; // ...variant bursts still diversify targets
        let with_variants = c.generate();
        c.noise = 0.0;
        let without = c.generate();
        assert!(
            with_variants.stats().polymorphic_site_fraction()
                > without.stats().polymorphic_site_fraction()
        );
    }

    #[test]
    fn virtual_fraction_tracks_mix() {
        let mut c = small();
        c.kind_mix = KindMix::object_oriented(0.9);
        let t = c.generate();
        let vf = t.stats().virtual_fraction;
        assert!((vf - 0.9).abs() < 0.25, "virtual fraction {vf}");
    }

    #[test]
    #[should_panic(expected = "instruction budget")]
    fn invalid_budget_rejected() {
        let mut c = small();
        c.instr_per_indirect = 5.0;
        c.cond_per_indirect = 10.0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "idiom length")]
    fn inverted_idiom_range_rejected() {
        let mut c = small();
        c.idiom_len = (5, 3);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "deviation out of range")]
    fn bad_deviation_rejected() {
        let mut c = small();
        c.deviation = 1.5;
        c.validate();
    }

    #[test]
    fn stable_hash_is_stable() {
        assert_eq!(stable_hash(&[1, 2, 3]), stable_hash(&[1, 2, 3]));
        assert_ne!(stable_hash(&[1, 2, 3]), stable_hash(&[1, 3, 2]));
    }

    #[test]
    fn fingerprint_is_stable_and_parameter_sensitive() {
        let base = small();
        assert_eq!(base.fingerprint(), small().fingerprint());
        let mut tweaked = small();
        tweaked.noise += 1e-9;
        assert_ne!(base.fingerprint(), tweaked.fingerprint());
        let mut pool = small();
        pool.method_pool = Some(0);
        assert_ne!(
            base.fingerprint(),
            pool.fingerprint(),
            "None and Some(0) must hash apart"
        );
        assert_ne!(
            ProgramConfig::new("a").fingerprint(),
            ProgramConfig::new("b").fingerprint()
        );
    }

    #[test]
    fn method_pool_shares_targets_across_sites() {
        let mut c = small();
        c.method_pool = Some(4);
        c.mono_fraction = 0.0;
        let t = c.generate();
        // With only four methods, distinct targets across the whole trace
        // cannot exceed the pool size.
        let stats = t.stats();
        let mut all_targets = std::collections::HashSet::new();
        for e in t.indirect() {
            all_targets.insert(e.target);
        }
        assert!(all_targets.len() <= 4);
        assert!(stats.distinct_sites > 4);
    }
}
