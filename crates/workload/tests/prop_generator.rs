//! Property-based tests for the synthetic trace generator.

use ibp_workload::{KindMix, ProgramConfig};
use proptest::prelude::*;

fn arbitrary_config() -> impl Strategy<Value = ProgramConfig> {
    (
        2usize..80,         // sites
        4usize..64,         // activities
        2usize..24,         // idioms
        1usize..6,          // idiom families
        1usize..8,          // modes
        (1u64..4, 0u64..4), // mode reps (min, extra)
        0.0f64..0.3,        // deviation
        0.0f64..0.3,        // noise
        0.0f64..1.0,        // class skew
        0.0f64..1.0,        // mono fraction
        1usize..12,         // classes
        any::<u64>(),       // seed
    )
        .prop_map(
            |(
                sites,
                activities,
                idioms,
                families,
                modes,
                (rep_min, rep_extra),
                deviation,
                noise,
                skew,
                mono,
                classes,
                seed,
            )| {
                let mut c = ProgramConfig::new("prop");
                c.sites = sites;
                c.activities = activities;
                c.idioms = idioms;
                c.idiom_families = families;
                c.modes = modes;
                c.mode_reps = (rep_min, rep_min + rep_extra);
                c.deviation = deviation;
                c.noise = noise;
                c.class_skew = skew;
                c.mono_fraction = mono;
                c.classes = classes;
                c.seed = seed;
                c.events = 2_000;
                c
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any valid configuration generates, with the exact requested event
    /// count and plausible statistics.
    #[test]
    fn generates_for_arbitrary_configs(c in arbitrary_config()) {
        let trace = c.generate();
        prop_assert_eq!(trace.indirect_count(), 2_000);
        let stats = trace.stats();
        prop_assert!(stats.distinct_sites <= c.sites);
        prop_assert!(stats.distinct_sites >= 1);
        // Instruction budget respected within rounding.
        let instr = trace.instructions_per_indirect();
        prop_assert!((instr - c.instr_per_indirect).abs() < 2.0,
            "instr/ind {} vs {}", instr, c.instr_per_indirect);
    }

    /// Generation is a pure function of the config.
    #[test]
    fn same_config_same_trace(c in arbitrary_config()) {
        let a = c.generate();
        let b = c.generate();
        prop_assert_eq!(a.events(), b.events());
        prop_assert_eq!(a.instructions(), b.instructions());
    }

    /// Prefixes are stable: a shorter trace is a prefix of a longer one
    /// from the same model.
    #[test]
    fn shorter_traces_are_prefixes(c in arbitrary_config()) {
        let model = c.build();
        let long = model.generate_with_len(1_500);
        let short = model.generate_with_len(700);
        let long_prefix: Vec<_> = long
            .indirect()
            .take(700)
            .map(|b| (b.pc, b.target))
            .collect();
        let short_all: Vec<_> = short.indirect().map(|b| (b.pc, b.target)).collect();
        prop_assert_eq!(long_prefix, short_all);
    }

    /// Chunk boundaries carry no meaning: filling the streamed source with
    /// any `max_indirect` schedule — including the degenerate 1-event fill
    /// and the off-by-one sizes around a chunk — concatenates to exactly
    /// the materialized event sequence.
    #[test]
    fn chunk_boundaries_do_not_change_the_stream(
        c in arbitrary_config(),
        chunk in 2u64..96,
    ) {
        let mut c = c;
        c.events = 600;
        let model = c.build();
        let expected = model.generate_with_len(c.events);
        for max_indirect in [1, chunk - 1, chunk, chunk + 1] {
            let mut source = model.source(c.events);
            let mut streamed = ibp_trace::Trace::new(expected.name());
            let mut buf = ibp_trace::TraceChunk::default();
            loop {
                let more = ibp_trace::EventSource::fill(&mut source, &mut buf, max_indirect)
                    .expect("generator sources cannot fail");
                prop_assert!(buf.indirect_count() <= max_indirect,
                    "fill overshot: {} > {max_indirect}", buf.indirect_count());
                streamed.extend_chunk(&buf);
                if !more {
                    break;
                }
            }
            prop_assert_eq!(streamed.events(), expected.events(),
                "stream diverges at fill size {}", max_indirect);
        }
    }

    /// All emitted sites and targets are word-aligned and land in disjoint
    /// code/target regions.
    #[test]
    fn addresses_are_sane(c in arbitrary_config()) {
        let trace = c.generate();
        for b in trace.indirect() {
            prop_assert_eq!(b.pc.raw() % 4, 0);
            prop_assert_eq!(b.target.raw() % 4, 0);
            prop_assert_ne!(b.pc, b.target);
        }
    }

    /// The kind mix steers the virtual-call fraction monotonically.
    #[test]
    fn kind_mix_monotone(seed in any::<u64>()) {
        let mut low = ProgramConfig::new("mix");
        low.seed = seed;
        low.events = 3_000;
        low.kind_mix = KindMix::object_oriented(0.2);
        let mut high = low.clone();
        high.kind_mix = KindMix::object_oriented(0.95);
        let lo = low.generate().stats().virtual_fraction;
        let hi = high.generate().stats().virtual_fraction;
        prop_assert!(hi >= lo, "high {} vs low {}", hi, lo);
    }
}
