//! Property-based tests for IBPB binary trace serialization.

use std::io::Cursor;

use ibp_trace::io::TraceIoError;
use ibp_trace::{
    chunk_events, collect_source, write_binary_source, Addr, BinarySource, BranchKind, EventSource,
    Trace, TraceChunk,
};
use proptest::prelude::*;

fn kind_strategy() -> impl Strategy<Value = BranchKind> {
    prop_oneof![
        Just(BranchKind::VirtualCall),
        Just(BranchKind::FnPointer),
        Just(BranchKind::Switch),
    ]
}

#[derive(Debug, Clone)]
enum Record {
    Indirect(u32, u32, BranchKind),
    Cond(u32, u32, bool),
    Instr(u64),
    CondSummary(u64),
}

fn record_strategy() -> impl Strategy<Value = Record> {
    prop_oneof![
        (0u32..1 << 20, 0u32..1 << 20, kind_strategy()).prop_map(|(pc, t, k)| Record::Indirect(
            pc * 4,
            t * 4,
            k
        )),
        (0u32..1 << 20, 0u32..1 << 20, any::<bool>()).prop_map(|(pc, t, taken)| Record::Cond(
            pc * 4,
            t * 4,
            taken
        )),
        (0u64..10_000).prop_map(Record::Instr),
        (0u64..10_000).prop_map(Record::CondSummary),
    ]
}

fn build(name: &str, records: &[Record]) -> Trace {
    let mut t = Trace::new(name);
    for r in records {
        match *r {
            Record::Indirect(pc, target, kind) => {
                t.push_indirect(Addr::new(pc), Addr::new(target), kind);
            }
            Record::Cond(pc, target, taken) => {
                t.push_cond(Addr::new(pc), Addr::new(target), taken);
            }
            Record::Instr(n) => t.record_instructions(n),
            Record::CondSummary(n) => t.record_cond_summary(n),
        }
    }
    t
}

fn encode(t: &Trace) -> Vec<u8> {
    let mut buf = Cursor::new(Vec::new());
    write_binary_source(&mut t.cursor(), &mut buf).expect("encode");
    buf.into_inner()
}

/// Drains a decoder with a fixed per-fill indirect budget.
fn drain(bytes: &[u8], budget: u64) -> Trace {
    let mut src = BinarySource::new(Cursor::new(bytes)).expect("header");
    let mut out = Trace::new(src.name());
    let mut chunk = TraceChunk::default();
    loop {
        let more = src.fill(&mut chunk, budget).expect("fill");
        out.record_instructions(chunk.plain_instructions());
        out.record_cond_summary(chunk.cond_summarised());
        for event in chunk.events() {
            out.push(*event);
        }
        if !more {
            break;
        }
    }
    out
}

/// Opens and drains a segment as a replay does, keeping no event: the
/// drain ends with the checks of the record counts, trailing bytes and
/// checksum.
fn drain_checked(bytes: &[u8]) -> Result<(), TraceIoError> {
    let mut src = BinarySource::new(Cursor::new(bytes))?;
    let mut chunk = TraceChunk::default();
    while src.fill(&mut chunk, chunk_events())? {}
    Ok(())
}

proptest! {
    /// Encode → decode recovers the exact event sequence and all
    /// counters, for any chunk-fill budget around the record count
    /// (1, c−1, c, c+1): chunk boundaries carry no meaning.
    #[test]
    fn round_trip_is_lossless_at_any_fill_size(
        records in proptest::collection::vec(record_strategy(), 0..200),
    ) {
        let original = build("prop", &records);
        let bytes = encode(&original);
        let c = original.indirect_count().max(2);
        for budget in [1, c - 1, c, c + 1] {
            let back = drain(&bytes, budget);
            prop_assert_eq!(back.name(), original.name());
            prop_assert_eq!(back.events(), original.events());
            prop_assert_eq!(back.indirect_count(), original.indirect_count());
            prop_assert_eq!(back.cond_count(), original.cond_count());
            prop_assert_eq!(back.instructions(), original.instructions());
        }
    }

    /// Serialization is deterministic, and re-encoding a decoded stream
    /// reproduces the original bytes.
    #[test]
    fn serialization_is_deterministic(
        records in proptest::collection::vec(record_strategy(), 0..100),
    ) {
        let t = build("prop", &records);
        let a = encode(&t);
        let b = encode(&t);
        prop_assert_eq!(&a, &b);
        let mut src = BinarySource::new(Cursor::new(&a[..])).expect("header");
        let decoded = collect_source(&mut src).expect("decode");
        prop_assert_eq!(encode(&decoded), a);
    }

    /// Arbitrary garbage never panics the decoder — it errors or parses.
    #[test]
    fn decoder_never_panics(input in proptest::collection::vec(any::<u8>(), 0..400)) {
        if let Ok(mut src) = BinarySource::new(Cursor::new(&input[..])) {
            let _ = collect_source(&mut src);
        }
        let _ = drain_checked(&input);
    }

    /// Any single-byte corruption of a payload is detected by the
    /// checksum or structural validation — never replayed silently.
    #[test]
    fn corrupted_payload_never_drains(
        records in proptest::collection::vec(record_strategy(), 1..60),
        flip in any::<u16>(),
        bit in 0u8..8u8,
    ) {
        let t = build("prop", &records);
        let mut bytes = encode(&t);
        // Corrupt strictly inside the record payload (the checksum does
        // not cover the fixed header or the name).
        let payload_start = 36 + "prop".len();
        if bytes.len() > payload_start {
            let i = payload_start + usize::from(flip) % (bytes.len() - payload_start);
            bytes[i] ^= 1 << bit;
            let verdict = drain_checked(&bytes);
            prop_assert!(verdict.is_err(), "flipped byte {} went undetected", i);
        }
    }
}
