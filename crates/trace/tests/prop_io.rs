//! Property-based tests for IBPT trace serialization.

use ibp_trace::io::{read_text, write_text};
use ibp_trace::{Addr, BranchKind, Trace};
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

proptest! {
    /// Write → read recovers the exact event sequence and all counters.
    #[test]
    fn round_trip_is_lossless(
        records in proptest::collection::vec(record_strategy(), 0..200),
    ) {
        let original = build("prop", &records);
        let mut buf = Vec::new();
        write_text(&original, &mut buf).expect("write");
        let back = read_text(&buf[..]).expect("read");
        prop_assert_eq!(back.name(), original.name());
        prop_assert_eq!(back.events(), original.events());
        prop_assert_eq!(back.indirect_count(), original.indirect_count());
        prop_assert_eq!(back.cond_count(), original.cond_count());
        prop_assert_eq!(back.instructions(), original.instructions());
    }

    /// Serialization is deterministic.
    #[test]
    fn serialization_is_deterministic(
        records in proptest::collection::vec(record_strategy(), 0..100),
    ) {
        let t = build("prop", &records);
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_text(&t, &mut a).expect("write a");
        write_text(&t, &mut b).expect("write b");
        prop_assert_eq!(a, b);
    }

    /// Arbitrary garbage never panics the parser — it errors or parses.
    #[test]
    fn parser_never_panics(input in "\\PC{0,300}") {
        let _ = read_text(input.as_bytes());
    }

    /// Prepending comments and blank lines never changes the parse.
    #[test]
    fn comments_and_blanks_are_transparent(
        records in proptest::collection::vec(record_strategy(), 0..50),
        comment in "[a-z ]{0,30}",
    ) {
        let t = build("prop", &records);
        let mut buf = Vec::new();
        write_text(&t, &mut buf).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        let decorated = format!("# {comment}\n\n{text}\n# trailing\n");
        let back = read_text(decorated.as_bytes()).expect("read");
        prop_assert_eq!(back.events(), t.events());
    }
}
