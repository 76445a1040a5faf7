//! Trace representation for indirect-branch prediction studies.
//!
//! This crate provides the substrate that the rest of the `ibp` workspace is
//! built on: code addresses ([`Addr`]), dynamic branch events
//! ([`TraceEvent`]), whole program traces ([`Trace`]), and the static/dynamic
//! statistics the paper reports in its benchmark tables ([`TraceStats`]).
//!
//! The original study (Driesen & Hölzle, *Accurate Indirect Branch
//! Prediction*, ISCA '98) obtained traces from the *shade* instruction-level
//! simulator. Here, traces are produced synthetically by the `ibp-workload`
//! crate, but the representation is generator-agnostic: a [`Trace`] is simply
//! an ordered sequence of branch events plus an instruction count.
//!
//! # Example
//!
//! ```
//! use ibp_trace::{Addr, BranchKind, Trace};
//!
//! let mut trace = Trace::new("tiny");
//! trace.record_instructions(40);
//! trace.push_indirect(Addr::new(0x1000), Addr::new(0x2000), BranchKind::VirtualCall);
//! trace.record_instructions(55);
//! trace.push_indirect(Addr::new(0x1000), Addr::new(0x2040), BranchKind::VirtualCall);
//!
//! assert_eq!(trace.indirect_count(), 2);
//! let stats = trace.stats();
//! assert_eq!(stats.distinct_sites, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
pub mod binary;
mod event;
pub mod io;
mod source;
mod stats;
mod trace;

pub use addr::{Addr, UnalignedAddrError};
pub use binary::{looks_binary, write_binary_source, BinarySource};
pub use event::{BranchKind, CondBranch, IndirectBranch, TraceEvent};
pub use source::{
    chunk_events, collect_source, EventSource, TraceChunk, TraceCursor, CHUNK_EVENTS,
};
pub use stats::{CoverageLevel, SiteStats, TraceStats, TraceStatsBuilder};
pub use trace::{IndirectIter, Trace};
