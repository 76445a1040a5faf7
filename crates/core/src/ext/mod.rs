//! Extensions sketched in the paper's §8.1 (future work) and §7 (related
//! work), implemented here so the `ext_future_work` runner can evaluate
//! them. Two of these designs need no type of their own: a hybrid of three
//! or more components and a PPM-style cascade (Chen et al.'s
//! prediction-by-partial-matching mimicked with tagged tables, the ancestor
//! of cascaded/ITTAGE-style designs) are each a
//! [`HybridPredictor`](crate::HybridPredictor) under a
//! [`MetaSpec`](crate::MetaSpec) rule (`Confidence` and `FirstHit`). The
//! rest are here:
//!
//! * [`SharedTableHybrid`] — components of different path lengths sharing
//!   one physical table, with "chosen" counters protecting useful entries;
//! * [`AheadPredictor`] — predicts the *next* indirect branch's address
//!   together with its target, and can chain arbitrarily far ahead;
//! * [`IttageLite`] — a simplified ITTAGE, the modern descendant of the
//!   paper's hybrid/cascade designs, for a then-vs-now comparison;
//! * [`TargetCache`] — Chang et al.'s gshare-over-direction-bits predictor
//!   (§7 related work), for restaging the paper's comparison.

mod ahead;
mod ittage;
mod shared;
mod target_cache;

pub use ahead::{AheadPrediction, AheadPredictor};
pub use ittage::IttageLite;
pub use shared::SharedTableHybrid;
pub use target_cache::TargetCache;
