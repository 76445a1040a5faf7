//! Pull-based chunked event sources.
//!
//! A [`Trace`] materialises every event in memory, which caps run length:
//! at the paper's multi-million-event trace sizes a `Vec<TraceEvent>` per
//! benchmark (times one clone per sweep cell) dominates RSS. An
//! [`EventSource`] instead hands out events a bounded [`TraceChunk`] at a
//! time, so consumers — the simulator fold, the stats builder, the text
//! writer — run in memory proportional to the chunk size, not the trace
//! length.
//!
//! Two contracts make a source interchangeable with the trace it streams:
//!
//! * **Event equivalence** — concatenating the chunks yields exactly the
//!   event sequence of the materialised trace, in order. Chunk *boundaries*
//!   carry no meaning; any split of the same stream is equivalent.
//! * **Counter equivalence** — summing each chunk's instruction /
//!   conditional-summary counters reproduces the materialised trace's
//!   totals. Sources place whole-trace counters (e.g. a trace file's
//!   front-loaded `instr` line) in their first chunk.

use crate::io::TraceIoError;
use crate::{Addr, BranchKind, CondBranch, IndirectBranch, Trace, TraceEvent};

/// Maximum indirect branches per chunk for streaming consumers.
pub const CHUNK_EVENTS: u64 = 8_192;

/// The chunk granularity for streaming consumers: [`CHUNK_EVENTS`]
/// indirect branches per chunk.
#[must_use]
pub const fn chunk_events() -> u64 {
    CHUNK_EVENTS
}

/// A bounded window of trace events plus the counter deltas that belong to
/// it — the unit an [`EventSource`] produces.
///
/// The counter methods mirror [`Trace`] exactly (a branch event counts its
/// own instruction, summarised conditionals count without materialising),
/// so replaying every chunk into a trace reproduces the trace's counters.
#[derive(Debug, Clone, Default)]
pub struct TraceChunk {
    events: Vec<TraceEvent>,
    instructions: u64,
    indirect_count: u64,
    cond_count: u64,
    cond_summarised: u64,
}

impl TraceChunk {
    /// An empty chunk with space reserved for `events` events.
    #[must_use]
    pub fn with_capacity(events: usize) -> Self {
        TraceChunk {
            events: Vec::with_capacity(events),
            ..TraceChunk::default()
        }
    }

    /// Empties the chunk, keeping its allocation for reuse.
    pub fn clear(&mut self) {
        self.events.clear();
        self.instructions = 0;
        self.indirect_count = 0;
        self.cond_count = 0;
        self.cond_summarised = 0;
    }

    /// The events of this window, in program order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Iterates over only the indirect-branch events, in order. Merge
    /// folds that pair a broadcast chunk with per-component prediction
    /// records (one record per indirect event) walk this.
    pub fn indirect(&self) -> impl Iterator<Item = &IndirectBranch> {
        self.events.iter().filter_map(TraceEvent::as_indirect)
    }

    /// Whether the chunk carries neither events nor counters.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.instructions == 0 && self.cond_count == 0
    }

    /// Number of events (indirect + conditional) in the chunk.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Indirect-branch executions in this chunk.
    #[must_use]
    pub fn indirect_count(&self) -> u64 {
        self.indirect_count
    }

    /// Conditional-branch executions in this chunk (materialised plus
    /// summarised).
    #[must_use]
    pub fn cond_count(&self) -> u64 {
        self.cond_count
    }

    /// Conditional executions counted without materialised events.
    #[must_use]
    pub fn cond_summarised(&self) -> u64 {
        self.cond_summarised
    }

    /// Instructions attributed to this chunk (branches included).
    #[must_use]
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Instructions that are neither materialised events nor summarised
    /// conditionals — what a text writer emits as an `instr` line.
    #[must_use]
    pub fn plain_instructions(&self) -> u64 {
        self.instructions - self.events.len() as u64 - self.cond_summarised
    }

    /// Adds non-branch instructions to the chunk's count.
    pub fn record_instructions(&mut self, count: u64) {
        self.instructions += count;
    }

    /// Appends an indirect-branch execution (counts one instruction).
    pub fn push_indirect(&mut self, pc: Addr, target: Addr, kind: BranchKind) {
        self.events
            .push(TraceEvent::Indirect(IndirectBranch { pc, target, kind }));
        self.indirect_count += 1;
        self.instructions += 1;
    }

    /// Appends a conditional-branch execution (counts one instruction).
    pub fn push_cond(&mut self, pc: Addr, target: Addr, taken: bool) {
        self.events
            .push(TraceEvent::Cond(CondBranch { pc, target, taken }));
        self.cond_count += 1;
        self.instructions += 1;
    }

    /// Counts `count` conditional executions (and instructions) without
    /// materialising events.
    pub fn record_cond_summary(&mut self, count: u64) {
        self.cond_count += count;
        self.cond_summarised += count;
        self.instructions += count;
    }

    /// Appends any event.
    pub fn push(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::Indirect(b) => self.push_indirect(b.pc, b.target, b.kind),
            TraceEvent::Cond(b) => self.push_cond(b.pc, b.target, b.taken),
        }
    }

    /// Splits this chunk's events into per-shard chunks by branch site:
    /// each event is appended to `out[route(pc)]`, preserving program
    /// order within every shard (the partition view a sharded simulator
    /// consumes).
    ///
    /// When `route_cond` is `false`, conditional events are counted as a
    /// summary on their routed shard instead of materialised — the
    /// per-shard instruction/conditional totals still sum to this chunk's,
    /// but consumers that ignore `observe_cond` skip the copy. Counters
    /// not attached to any event (plain instructions, pre-existing
    /// conditional summaries) are credited to `out[0]`.
    ///
    /// The output chunks are appended to, not cleared: callers reusing
    /// scratch chunks across source chunks clear them after draining.
    ///
    /// # Panics
    ///
    /// Panics if `out` is empty or `route` returns an out-of-range index.
    pub fn partition_by_site<F>(&self, mut route: F, route_cond: bool, out: &mut [TraceChunk])
    where
        F: FnMut(Addr) -> usize,
    {
        assert!(!out.is_empty(), "partitioning needs at least one shard");
        out[0].record_instructions(self.plain_instructions());
        out[0].record_cond_summary(self.cond_summarised);
        for event in &self.events {
            match event {
                TraceEvent::Indirect(b) => {
                    out[route(b.pc)].push_indirect(b.pc, b.target, b.kind);
                }
                TraceEvent::Cond(b) => {
                    let shard = &mut out[route(b.pc)];
                    if route_cond {
                        shard.push_cond(b.pc, b.target, b.taken);
                    } else {
                        shard.record_cond_summary(1);
                    }
                }
            }
        }
    }
}

/// A resumable producer of trace events, consumed one [`TraceChunk`] at a
/// time.
///
/// Implementors: [`Trace::cursor`] (replays a materialised trace),
/// `ProgramSource` in `ibp-workload` (generates events on demand), and
/// `TextSource` in [`crate::io`] (parses a trace file incrementally).
pub trait EventSource {
    /// The trace name (benchmark name for generated traces).
    fn name(&self) -> &str;

    /// Clears `chunk`, then appends up to `max_indirect` indirect branches
    /// — plus their interleaved conditional events and instruction counts —
    /// and returns whether the source may produce more afterwards.
    ///
    /// The final chunk (return value `false`) can still carry events;
    /// consume every chunk this method fills. `max_indirect` of zero is a
    /// caller bug: no progress is possible.
    ///
    /// # Errors
    ///
    /// In-memory sources are infallible; file-backed sources surface I/O
    /// and parse failures.
    fn fill(&mut self, chunk: &mut TraceChunk, max_indirect: u64) -> Result<bool, TraceIoError>;

    /// Indirect branches this source will still produce, when known ahead
    /// of time (used only for capacity hints).
    fn remaining_indirect(&self) -> Option<u64> {
        None
    }
}

impl<S: EventSource + ?Sized> EventSource for &mut S {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn fill(&mut self, chunk: &mut TraceChunk, max_indirect: u64) -> Result<bool, TraceIoError> {
        (**self).fill(chunk, max_indirect)
    }

    fn remaining_indirect(&self) -> Option<u64> {
        (**self).remaining_indirect()
    }
}

/// Drains a source into a materialised [`Trace`].
///
/// The result is event- and counter-identical to the trace the source
/// streams; this is the bridge from the streaming world back to APIs that
/// want a whole trace (and the reference implementation the equivalence
/// tests check streaming consumers against).
///
/// # Errors
///
/// Propagates the source's I/O or parse failures.
pub fn collect_source<S: EventSource + ?Sized>(source: &mut S) -> Result<Trace, TraceIoError> {
    let capacity = source.remaining_indirect().map_or(0, |n| {
        usize::try_from(n).unwrap_or(usize::MAX).min(64 << 20)
    });
    let mut trace = Trace::with_capacity(source.name().to_owned(), capacity);
    let mut chunk = TraceChunk::default();
    loop {
        let more = source.fill(&mut chunk, chunk_events())?;
        trace.extend_chunk(&chunk);
        if !more {
            return Ok(trace);
        }
    }
}

/// Replays a materialised [`Trace`] as an [`EventSource`].
///
/// Whole-trace counters that are not attached to events (recorded plain
/// instructions, summarised conditionals) are carried by the first chunk.
#[derive(Debug, Clone)]
pub struct TraceCursor<'a> {
    trace: &'a Trace,
    pos: usize,
    started: bool,
}

impl<'a> TraceCursor<'a> {
    /// A cursor at the start of `trace`.
    #[must_use]
    pub fn new(trace: &'a Trace) -> Self {
        TraceCursor {
            trace,
            pos: 0,
            started: false,
        }
    }
}

impl EventSource for TraceCursor<'_> {
    fn name(&self) -> &str {
        self.trace.name()
    }

    fn fill(&mut self, chunk: &mut TraceChunk, max_indirect: u64) -> Result<bool, TraceIoError> {
        chunk.clear();
        if !self.started {
            self.started = true;
            let trace = self.trace;
            let summarised = trace.cond_count()
                - trace
                    .events()
                    .iter()
                    .filter(|e| e.as_cond().is_some())
                    .count() as u64;
            let plain = trace.instructions() - trace.len() as u64 - summarised;
            chunk.record_instructions(plain);
            chunk.record_cond_summary(summarised);
        }
        let events = self.trace.events();
        let mut indirect = 0u64;
        while self.pos < events.len() && indirect < max_indirect {
            let event = events[self.pos];
            if event.as_indirect().is_some() {
                indirect += 1;
            }
            chunk.push(event);
            self.pos += 1;
        }
        Ok(self.pos < events.len())
    }

    fn remaining_indirect(&self) -> Option<u64> {
        Some(
            self.trace.events()[self.pos..]
                .iter()
                .filter(|e| e.as_indirect().is_some())
                .count() as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new("sample");
        t.record_instructions(40);
        for i in 0..10u32 {
            t.push_cond(Addr::new(0x20), Addr::new(0x80), i % 2 == 0);
            t.push_indirect(
                Addr::new(0x100 + 8 * (i % 3)),
                Addr::new(0x900 + 8 * (i % 2)),
                BranchKind::VirtualCall,
            );
        }
        t.record_cond_summary(7);
        t.push_cond(Addr::new(0x24), Addr::new(0x90), true);
        t
    }

    #[test]
    fn chunk_counters_mirror_trace_semantics() {
        let mut c = TraceChunk::default();
        c.record_instructions(10);
        c.push_indirect(Addr::new(0x10), Addr::new(0x100), BranchKind::Switch);
        c.push_cond(Addr::new(0x20), Addr::new(0x80), true);
        c.record_cond_summary(5);
        assert_eq!(c.len(), 2);
        assert_eq!(c.indirect_count(), 1);
        assert_eq!(c.cond_count(), 6);
        assert_eq!(c.cond_summarised(), 5);
        assert_eq!(c.instructions(), 17);
        assert_eq!(c.plain_instructions(), 10);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.instructions(), 0);
    }

    #[test]
    fn cursor_round_trips_through_collect() {
        let t = sample();
        for max in [1, 2, 3, 7, 64] {
            let mut cursor = TraceCursor::new(&t);
            let mut chunk = TraceChunk::default();
            let mut rebuilt = Trace::new(cursor.name().to_owned());
            loop {
                let more = cursor.fill(&mut chunk, max).expect("in-memory");
                rebuilt.extend_chunk(&chunk);
                if !more {
                    break;
                }
            }
            assert_eq!(rebuilt.events(), t.events(), "max_indirect = {max}");
            assert_eq!(rebuilt.instructions(), t.instructions());
            assert_eq!(rebuilt.indirect_count(), t.indirect_count());
            assert_eq!(rebuilt.cond_count(), t.cond_count());
        }
    }

    #[test]
    fn collect_source_matches_trace() {
        let t = sample();
        let rebuilt = collect_source(&mut t.cursor()).expect("in-memory");
        assert_eq!(rebuilt.events(), t.events());
        assert_eq!(rebuilt.name(), t.name());
        assert_eq!(rebuilt.instructions(), t.instructions());
    }

    #[test]
    fn first_chunk_carries_whole_trace_counters() {
        let t = sample();
        let mut cursor = t.cursor();
        let mut chunk = TraceChunk::default();
        let more = cursor.fill(&mut chunk, 1).expect("in-memory");
        assert!(more);
        // 40 plain instructions and 7 summarised conditionals front-loaded.
        assert_eq!(chunk.plain_instructions(), 40);
        assert_eq!(chunk.cond_summarised(), 7);
        let mut rest = TraceChunk::default();
        while cursor.fill(&mut rest, 1).expect("in-memory") {
            assert_eq!(rest.plain_instructions(), 0);
        }
    }

    #[test]
    fn chunks_respect_the_indirect_budget() {
        let t = sample();
        let mut cursor = t.cursor();
        let mut chunk = TraceChunk::default();
        let mut total_indirect = 0u64;
        loop {
            let more = cursor.fill(&mut chunk, 2).expect("in-memory");
            assert!(chunk.indirect_count() <= 2);
            total_indirect += chunk.indirect_count();
            if !more {
                break;
            }
        }
        assert_eq!(total_indirect, t.indirect_count());
    }

    #[test]
    fn remaining_indirect_tracks_progress() {
        let t = sample();
        let mut cursor = t.cursor();
        assert_eq!(cursor.remaining_indirect(), Some(10));
        let mut chunk = TraceChunk::default();
        let _ = cursor.fill(&mut chunk, 4).expect("in-memory");
        assert_eq!(cursor.remaining_indirect(), Some(6));
    }

    #[test]
    fn partition_preserves_per_shard_order_and_counters() {
        let t = sample();
        let mut cursor = t.cursor();
        let mut chunk = TraceChunk::default();
        let _ = cursor.fill(&mut chunk, 1_000).expect("in-memory");
        let route = |pc: Addr| (pc.word() as usize) % 3;
        let mut parts = vec![TraceChunk::default(); 3];
        chunk.partition_by_site(route, true, &mut parts);

        // Every shard's events appear in program order and on the right
        // shard; concatenating by a stable walk reproduces the multiset.
        let mut seen = 0;
        for (i, part) in parts.iter().enumerate() {
            let mut expected = chunk
                .events()
                .iter()
                .filter(|e| match e {
                    TraceEvent::Indirect(b) => route(b.pc) == i,
                    TraceEvent::Cond(b) => route(b.pc) == i,
                })
                .copied();
            for got in part.events() {
                assert_eq!(Some(*got), expected.next(), "shard {i} order");
                seen += 1;
            }
            assert!(expected.next().is_none(), "shard {i} complete");
        }
        assert_eq!(seen, chunk.len());

        // Counter equivalence: the shards sum to the source chunk.
        assert_eq!(
            parts.iter().map(TraceChunk::indirect_count).sum::<u64>(),
            chunk.indirect_count()
        );
        assert_eq!(
            parts.iter().map(TraceChunk::cond_count).sum::<u64>(),
            chunk.cond_count()
        );
        assert_eq!(
            parts.iter().map(TraceChunk::instructions).sum::<u64>(),
            chunk.instructions()
        );
    }

    #[test]
    fn partition_can_summarise_conditionals() {
        let t = sample();
        let mut cursor = t.cursor();
        let mut chunk = TraceChunk::default();
        let _ = cursor.fill(&mut chunk, 1_000).expect("in-memory");
        let mut parts = vec![TraceChunk::default(); 2];
        chunk.partition_by_site(|pc| (pc.word() as usize) % 2, false, &mut parts);
        for part in &parts {
            assert!(part
                .events()
                .iter()
                .all(|e| matches!(e, TraceEvent::Indirect(_))));
        }
        // Conditional executions are still all accounted for.
        assert_eq!(
            parts.iter().map(TraceChunk::cond_count).sum::<u64>(),
            chunk.cond_count()
        );
        assert_eq!(
            parts.iter().map(TraceChunk::instructions).sum::<u64>(),
            chunk.instructions()
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn partition_into_nothing_panics() {
        let chunk = TraceChunk::default();
        chunk.partition_by_site(|_| 0, true, &mut []);
    }
}
