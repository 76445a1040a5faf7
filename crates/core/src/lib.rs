//! Indirect-branch predictors.
//!
//! This crate implements the full predictor design space of Driesen &
//! Hölzle, *Accurate Indirect Branch Prediction* (ISCA '98 / UCSB
//! TRCS97-19):
//!
//! * **branch target buffers** (§3.1) — the baseline used by contemporary
//!   processors, with either always-update or two-bit-counter update;
//! * **two-level predictors** (§3.2) — a first-level *history* of recent
//!   indirect-branch targets (shared per-set by parameter `s`, global at
//!   `s = 31`), combined with the branch address into a key for a second
//!   level *history table* (shared per-set by parameter `h`, per-branch at
//!   `h = 2`), over path lengths `p = 0..=18`;
//! * **limited-precision patterns** (§4) — partial target addresses
//!   (`b` bits each, 24-bit pattern budget) and gshare-style xor of the
//!   branch address into the key;
//! * **resource-constrained tables** (§5) — bounded fully-associative LRU
//!   tables, 1/2/4-way set-associative tables, and tagless tables, with
//!   concatenated or interleaved (straight / reverse / ping-pong) index
//!   bits;
//! * **hybrid predictors** (§6) — components of different path lengths
//!   arbitrated by per-entry n-bit confidence counters, by a
//!   branch-predictor-selection-table (BPST) metapredictor for comparison,
//!   or by a PPM-style first hit (a cascade, §7); one type, with any number
//!   of components under the confidence and first-hit rules (§8.1);
//! * **future-work extensions** (§8.1) — a shared-table hybrid with
//!   "chosen" counters, an ahead predictor, and more.
//!
//! Every predictor implements the object-safe [`Predictor`] trait and can be
//! built through [`PredictorConfig`], which validates parameter
//! combinations.
//!
//! # Example
//!
//! ```
//! use ibp_core::{Predictor, PredictorConfig};
//! use ibp_trace::Addr;
//!
//! // Practical two-level predictor: path length 3, 1K-entry, 4-way.
//! let mut p = PredictorConfig::practical(3, 1024, 4).build();
//!
//! let site = Addr::new(0x1000);
//! assert_eq!(p.predict(site), None); // cold
//! p.update(site, Addr::new(0x2000));
//! // After one update with an empty history, the same history state
//! // predicts the learned target.
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod btb;
mod config;
mod counter;
pub mod ext;
mod hash;
mod history;
mod hybrid;
mod interleave;
mod kernel;
mod key;
mod meta;
mod pattern;
mod predictor;
pub mod snapshot;
mod streams;
pub mod table;
mod trie;
mod two_level;

pub use btb::Btb;
pub use config::{
    Associativity, ConfigError, Decomposition, PredictorConfig, PredictorKind, ShardRouting,
};
pub use counter::SaturatingCounter;
pub use hash::{WordHasher, WordMap};
pub use history::{Histories, HistoryElement, HistoryRegister, HistorySharing, MAX_PATH};
pub use hybrid::HybridPredictor;
pub use interleave::Interleaving;
pub use kernel::{fold_dyn_chunk, fold_two_level_chunk, ChunkScorer, FoldKernel, ProbeSink};
pub use key::{CompressedKeySpec, KeyScheme, TableSharing};
pub use meta::{MetaSpec, MetaState};
pub use pattern::PatternCompressor;
pub use predictor::{Predictor, UpdateRule};
pub use snapshot::{
    probe_counters_on, set_probe_counters, ComponentSnapshot, HistorySnapshot, Snapshot,
    StructuralSnapshot, TableSnapshot,
};
pub use streams::{KeyRecipe, KeyStreams, KeyedLane, PredRecord, BLOCK_EVENTS};
pub use trie::{PathFamily, PathTrie};
pub use two_level::TwoLevelPredictor;
