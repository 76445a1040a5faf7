//! Table geometry read off exact miss counts, as the BTB
//! reverse-engineering literature reads it off timing: hand-built branch
//! sequences whose misses follow from the paper's definitions of §5's
//! capacity, associativity and tagless aliasing alone, not from a second
//! implementation of ours.
//!
//! Every case folds twice: the boxed predictor through `simulate` (one
//! `Predictor::step` per event) and its kernel through `simulate_kernel`
//! (a pass's component bank). Both must count the same misses, and the
//! count must be the one the geometry predicts.
//!
//! At path length 0 a practical key is the branch's word address
//! (`pc >> 2`), so the low `log2(sets)` bits of the word address index a
//! set, and the low `log2(entries)` bits a tagless entry. Every site keeps
//! one target, so a branch misses only when its entry is gone.

use ibp_core::{KeyStreams, PredictorConfig};
use ibp_sim::{simulate, simulate_kernel};
use ibp_trace::{Addr, BranchKind, Trace};

/// Rounds each site sequence is repeated for.
const ROUNDS: u64 = 8;

/// A site at word address `word`.
fn site(word: u32) -> Addr {
    Addr::new(word << 2)
}

/// `ROUNDS` passes over `words` in order, each site always jumping to its
/// own target.
fn cycle(words: &[u32]) -> Trace {
    let mut trace = Trace::new("geometry");
    for _ in 0..ROUNDS {
        for &w in words {
            trace.push_indirect(site(w), site(0x4000 + w), BranchKind::Switch);
        }
    }
    trace
}

/// The misses `cfg` scores over `trace` with no warmup, the same through
/// both folds.
fn misses(cfg: &PredictorConfig, trace: &Trace) -> u64 {
    let label = cfg.cache_key();
    let mut premise = cfg.build_kernel();
    assert!(
        KeyStreams::new(0).attach(&mut premise).is_ok(),
        "test premise: {label} folds through the component bank"
    );
    let stepped = simulate(trace, cfg.build().as_mut());
    let mut kernel = cfg.build_kernel();
    let banked = simulate_kernel(&mut trace.cursor(), &mut kernel, 0).expect("in-memory source");
    assert_eq!(stepped, banked, "{label}: the step and bank folds disagree");
    assert_eq!(
        stepped.indirect,
        trace.indirect_count(),
        "{label}: every event scored"
    );
    stepped.mispredicted
}

/// Capacity and LRU replacement: K sites cycled through a fully
/// associative table of N entries miss only cold while K ≤ N, and on every
/// event at K = N + 1, where LRU always evicts the site that comes next.
#[test]
fn a_fully_associative_lru_table_holds_n_sites_and_thrashes_at_n_plus_one() {
    for entries in [4u32, 16, 64] {
        let cfg = PredictorConfig::full_assoc(0, entries as usize);
        for k in [1, entries / 2, entries - 1, entries] {
            let words: Vec<u32> = (0..k).map(|i| 0x400 + 3 * i).collect();
            assert_eq!(
                misses(&cfg, &cycle(&words)),
                u64::from(k),
                "{} sites in {entries} entries: cold misses only",
                k
            );
        }
        let words: Vec<u32> = (0..=entries).map(|i| 0x400 + 3 * i).collect();
        let trace = cycle(&words);
        assert_eq!(
            misses(&cfg, &trace),
            trace.indirect_count(),
            "{} sites in {entries} entries: every event misses",
            entries + 1
        );
    }
}

/// Associativity and the set index: W + 1 sites whose word addresses
/// agree in the low index bits thrash one set of a W-way table, while W
/// such sites fit, and W + 1 sites spread over two sets fit as well.
#[test]
fn w_plus_one_keys_of_one_set_thrash_a_w_way_table() {
    for (entries, ways) in [(64u32, 1u32), (64, 2), (64, 4), (256, 8)] {
        let sets = entries / ways;
        let cfg = PredictorConfig::practical(0, entries as usize, ways as usize);
        let label = format!("{entries} entries, {ways}-way");
        let one_set = |n: u32| -> Vec<u32> { (0..n).map(|j| 5 + j * sets).collect() };
        assert_eq!(
            misses(&cfg, &cycle(&one_set(ways))),
            u64::from(ways),
            "{label}: {ways} keys of one set miss only cold"
        );
        let trace = cycle(&one_set(ways + 1));
        assert_eq!(
            misses(&cfg, &trace),
            trace.indirect_count(),
            "{label}: {} keys of one set miss on every event",
            ways + 1
        );
        let mut two_sets = one_set(ways);
        two_sets.push(6);
        assert_eq!(
            misses(&cfg, &cycle(&two_sets)),
            u64::from(ways + 1),
            "{label}: a key of another set does not evict"
        );
    }
}

/// Tagless aliasing: two sites whose word addresses agree in the low
/// index bits share one tagless entry, so the second site's first branch
/// reads the target the first site trained. A tagged table of the same
/// index, or sites of distinct indices, miss it cold.
#[test]
fn keys_with_equal_index_bits_share_a_tagless_entry() {
    for entries in [16u32, 256, 1024] {
        let (a, alias, apart) = (0x321, 0x321 + entries, 0x322 + entries);
        // Both sites jump to one target, so only a shared entry makes the
        // second site's first branch a hit.
        let shared = |second: u32| -> Trace {
            let mut trace = Trace::new("tagless");
            for pc in [a, second] {
                for _ in 0..ROUNDS {
                    trace.push_indirect(site(pc), site(0x4000), BranchKind::VirtualCall);
                }
            }
            trace
        };
        let tagless = PredictorConfig::tagless(0, entries as usize);
        let tagged = PredictorConfig::practical(0, entries as usize, 1);
        assert_eq!(
            misses(&tagless, &shared(alias)),
            1,
            "{entries}-entry tagless: the alias hits on the first site's entry"
        );
        assert_eq!(
            misses(&tagless, &shared(apart)),
            2,
            "{entries}-entry tagless: another index misses cold"
        );
        assert_eq!(
            misses(&tagged, &shared(alias)),
            2,
            "{entries}-entry direct-mapped: the tag rejects the alias"
        );
    }
}
