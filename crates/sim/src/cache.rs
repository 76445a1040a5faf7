//! The persistent cross-process result cache.
//!
//! The engine's memo cache (see [`crate::engine`]) already guarantees a
//! `(config, benchmark, events, warmup)` pair is simulated at most once
//! *per process*. This module extends that guarantee across processes: on
//! first use the engine loads previously published results from
//! `results/.cache/v<schema>/engine.tsv`, and measurement binaries persist
//! the merged cache back on exit. A second `repro_all` run then folds
//! nothing at all — every lookup is a persistent hit, and no trace is read.
//!
//! Each row holds one cell: its key, benchmark, events and warmup, the
//! [`Measurement::kind`], then that kind's counts (two for run stats, four
//! for a miss breakdown, one for a pattern count, five for ahead hits,
//! eight for trace characteristics). A row whose count arity does not
//! match its kind loads as nothing.
//!
//! Correctness rests on the same purity argument as the memo cache: traces
//! are pure functions of `(benchmark, events)` and predictors pure
//! functions of the config key, so a stored [`Measurement`] is exact, not
//! an approximation. A trace is pure only for one generator, so the file's
//! header records the generator fingerprint (one hash over every preset's
//! [`ProgramConfig::fingerprint`](ibp_workload::ProgramConfig::fingerprint),
//! the key the trace corpus names its segments by): a file written under
//! another generator loads as empty, and the next save replaces it. The
//! schema version directory exists for the *format*: when the TSV layout
//! changes, stale `v*` directories are evicted wholesale on load.
//!
//! `IBP_CACHE=0` disables both load and save (an invalid value warns and
//! means enabled, like every knob [`ibp_obs::knobs()`] reads). The cache
//! lives under the results directory (`IBP_RESULTS`, default `results/`), so
//! redirecting results also isolates the cache.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use ibp_workload::Benchmark;

use crate::analysis::{AheadHits, MissBreakdown, TraceCounts};
use crate::run::{Measurement, RunStats};

/// Full identity of one memoized cell. Under one generator the trace is a
/// pure function of `(benchmark, events)`, and the lane a pure function of
/// the key, so this tuple determines the [`Measurement`] exactly; the file
/// header pins the generator.
pub(crate) type CacheKey = (String, Benchmark, u64, u64);

/// Bump when the TSV layout (or the meaning of any field) changes; older
/// version directories are deleted on load.
const SCHEMA_VERSION: u32 = 3;

/// The most counts any [`Measurement`] kind stores.
const MAX_COUNTS: usize = 8;

/// A stable FNV-1a hash over the generator fingerprint of every benchmark
/// preset: any generator or calibration change moves it.
fn generator_fingerprint() -> u64 {
    Benchmark::ALL
        .iter()
        .flat_map(|b| b.config().fingerprint().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The first line of `engine.tsv`: the generator the stored results were
/// simulated under, then the column names.
fn file_header() -> String {
    format!(
        "# ibp engine cache, generator {:016x}: \
         key\tbenchmark\tevents\twarmup\tkind\tcounts",
        generator_fingerprint()
    )
}

fn cache_root() -> PathBuf {
    ibp_obs::results_root().join(".cache")
}

/// `root/v<version>`: where a store of that schema version lives.
pub(crate) fn schema_dir(root: &Path, version: u32) -> PathBuf {
    root.join(format!("v{version}"))
}

fn version_dir(root: &Path) -> PathBuf {
    schema_dir(root, SCHEMA_VERSION)
}

/// Deletes the `v*` siblings of `root/v<version>`: the result cache and the
/// trace corpus evict whole directories of another schema version, whose
/// entries cannot be trusted to mean the same thing and would otherwise
/// grow the store without bound across schema bumps. `label` names the
/// store in the note.
pub(crate) fn evict_stale(root: &Path, version: u32, label: &str) {
    let Ok(entries) = fs::read_dir(root) else {
        return;
    };
    let keep = format!("v{version}");
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('v') && name != keep && fs::remove_dir_all(entry.path()).is_ok() {
            eprintln!("note: evicted stale {label} {}", entry.path().display());
        }
    }
}

/// A measurement's row fields: its kind and counts.
fn encode(value: &Measurement) -> (&'static str, Vec<u64>) {
    let counts = match *value {
        Measurement::Run(s) => vec![s.indirect, s.mispredicted],
        Measurement::Misses(m) => vec![m.hits, m.wrong_target, m.capacity, m.cold],
        Measurement::Patterns(n) => vec![n],
        Measurement::Ahead(a) => [&[a.scored][..], &a.correct].concat(),
        Measurement::Trace(t) => [
            &[t.indirect, t.instructions, t.conditionals, t.virtual_calls][..],
            &t.active_sites,
        ]
        .concat(),
    };
    (value.kind(), counts)
}

/// The measurement a row's kind and counts encode, or `None` for an
/// unknown kind or a count arity that does not match it.
fn decode(kind: &str, counts: &[u64]) -> Option<Measurement> {
    Some(match (kind, counts) {
        ("run", &[indirect, mispredicted]) => Measurement::Run(RunStats {
            indirect,
            mispredicted,
        }),
        ("misses", &[hits, wrong_target, capacity, cold]) => {
            Measurement::Misses(MissBreakdown {
                hits,
                wrong_target,
                capacity,
                cold,
            })
        }
        ("patterns", &[n]) => Measurement::Patterns(n),
        ("ahead", &[scored, d1, d2, d4, d8]) => Measurement::Ahead(AheadHits {
            scored,
            correct: [d1, d2, d4, d8],
        }),
        ("trace", &[indirect, instructions, conditionals, virtual_calls, p90, p95, p99, p100]) => {
            Measurement::Trace(TraceCounts {
                indirect,
                instructions,
                conditionals,
                virtual_calls,
                active_sites: [p90, p95, p99, p100],
            })
        }
        _ => return None,
    })
}

fn parse_line(line: &str) -> Option<(CacheKey, Measurement)> {
    let mut fields = line.split('\t');
    let key = fields.next()?.to_string();
    let benchmark = Benchmark::from_name(fields.next()?)?;
    let events = fields.next()?.parse().ok()?;
    let warmup = fields.next()?.parse().ok()?;
    let kind = fields.next()?;
    let mut counts = [0u64; MAX_COUNTS];
    let mut n = 0;
    for field in fields {
        *counts.get_mut(n)? = field.parse().ok()?;
        n += 1;
    }
    Some(((key, benchmark, events, warmup), decode(kind, &counts[..n])?))
}

/// Loads every entry stored under `root` (evicting stale schema versions
/// first). Missing files, files from another generator and malformed lines
/// load as nothing — a corrupt or foreign cache degrades to a cold one,
/// never to an error.
fn load_from(root: &Path) -> Vec<(CacheKey, Measurement)> {
    evict_stale(root, SCHEMA_VERSION, "result cache");
    let Ok(text) = fs::read_to_string(version_dir(root).join("engine.tsv")) else {
        return Vec::new();
    };
    let mut lines = text.lines();
    if lines.next() != Some(file_header().as_str()) {
        return Vec::new();
    }
    lines
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(parse_line)
        .collect()
}

/// Loads the persistent cache from the environment-selected results
/// directory; empty when disabled.
pub(crate) fn load() -> Vec<(CacheKey, Measurement)> {
    if !ibp_obs::knobs().cache {
        return Vec::new();
    }
    load_from(&cache_root())
}

/// Writes `entries` merged with whatever is already on disk (ours win on
/// key collisions — the values are deterministic, so collisions agree
/// anyway), atomically via a temp file + rename. Returns the merged entry
/// count.
fn save_to(root: &Path, entries: &[(CacheKey, Measurement)]) -> io::Result<usize> {
    let dir = version_dir(root);
    fs::create_dir_all(&dir)?;
    let mut merged: HashMap<CacheKey, Measurement> = load_from(root).into_iter().collect();
    for (key, value) in entries {
        merged.insert(key.clone(), *value);
    }
    let mut rows: Vec<String> = merged
        .iter()
        .filter(|((key, ..), _)| !key.contains('\t') && !key.contains('\n'))
        .map(|((key, b, events, warmup), value)| {
            let (kind, counts) = encode(value);
            let counts: Vec<String> = counts.iter().map(u64::to_string).collect();
            format!(
                "{key}\t{}\t{events}\t{warmup}\t{kind}\t{}",
                b.name(),
                counts.join("\t")
            )
        })
        .collect();
    rows.sort_unstable();
    let tmp = dir.join("engine.tsv.tmp");
    let published = write_and_publish(&tmp, &dir, &rows);
    if published.is_err() {
        // A failed write or rename must not leave the half-written temp
        // file behind — the previously published engine.tsv (if any)
        // stays the newest complete snapshot.
        let _ = fs::remove_file(&tmp);
    }
    published.map(|()| rows.len())
}

/// Writes `rows` to `tmp` and atomically publishes it as `engine.tsv`.
/// Split out so `save_to` can clean up the temp file on any failure.
fn write_and_publish(tmp: &Path, dir: &Path, rows: &[String]) -> io::Result<()> {
    let mut file = fs::File::create(tmp)?;
    if let Some(e) = crate::faults::io_error("cache.write") {
        return Err(e);
    }
    writeln!(file, "{}", file_header())?;
    for row in rows {
        writeln!(file, "{row}")?;
    }
    file.sync_all()?;
    drop(file);
    if let Some(e) = crate::faults::io_error("cache.rename") {
        return Err(e);
    }
    fs::rename(tmp, dir.join("engine.tsv"))
}

/// Persists `entries` into the environment-selected results directory;
/// no-op (returning 0) when disabled.
pub(crate) fn save(entries: &[(CacheKey, Measurement)]) -> io::Result<usize> {
    if !ibp_obs::knobs().cache {
        return Ok(0);
    }
    save_to(&cache_root(), entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_root(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ibp-cache-test-{}-{tag}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_entries() -> Vec<(CacheKey, Measurement)> {
        vec![
            (
                ("btb-2bc".into(), Benchmark::Ixx, 6_000, 0),
                Measurement::Run(RunStats {
                    indirect: 6_000,
                    mispredicted: 1_234,
                }),
            ),
            (
                ("two-level|p=4".into(), Benchmark::Xlisp, 6_000, 500),
                Measurement::Run(RunStats {
                    indirect: 5_500,
                    mispredicted: 321,
                }),
            ),
        ]
    }

    /// One cell of every kind.
    fn one_of_each_kind() -> Vec<(CacheKey, Measurement)> {
        let key = |k: &str| (k.to_string(), Benchmark::Gcc, 6_000, 0);
        vec![
            (
                key("TwoLevel|p=3"),
                Measurement::Run(RunStats {
                    indirect: 6_000,
                    mispredicted: 17,
                }),
            ),
            (
                key("misses|TwoLevel|p=2"),
                Measurement::Misses(MissBreakdown {
                    hits: 5_000,
                    wrong_target: 600,
                    capacity: 300,
                    cold: 100,
                }),
            ),
            (key("patterns|TwoLevel|p=12"), Measurement::Patterns(9_403)),
            (
                key("ahead|AheadPredictor::new(4)"),
                Measurement::Ahead(AheadHits {
                    scored: 6_000,
                    correct: [4_000, 3_000, 2_000, 1_000],
                }),
            ),
            (
                key("trace|coverage"),
                Measurement::Trace(TraceCounts {
                    indirect: 6_000,
                    instructions: 600_000,
                    conditionals: 60_000,
                    virtual_calls: 4_500,
                    active_sites: [10, 20, 40, 80],
                }),
            ),
        ]
    }

    #[test]
    fn round_trips_entries_through_disk() {
        let root = scratch_root("roundtrip");
        let entries = sample_entries();
        assert_eq!(save_to(&root, &entries).expect("save"), 2);
        let loaded: HashMap<_, _> = load_from(&root).into_iter().collect();
        assert_eq!(loaded.len(), 2);
        for (key, value) in &entries {
            assert_eq!(loaded.get(key), Some(value));
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn one_row_of_each_kind_round_trips() {
        let root = scratch_root("kinds");
        let entries = one_of_each_kind();
        assert_eq!(save_to(&root, &entries).expect("save"), entries.len());
        let loaded: HashMap<_, _> = load_from(&root).into_iter().collect();
        assert_eq!(loaded.len(), entries.len());
        for (key, value) in &entries {
            assert_eq!(loaded.get(key), Some(value), "{}", value.kind());
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_row_whose_arity_does_not_match_its_kind_loads_as_nothing() {
        let root = scratch_root("arity");
        let dir = version_dir(&root);
        fs::create_dir_all(&dir).expect("mkdir");
        fs::write(
            dir.join("engine.tsv"),
            format!(
                "{}\n\
                 short\tixx\t100\t0\tmisses\t1\t2\t3\n\
                 long\tixx\t100\t0\trun\t100\t7\t1\n\
                 overlong\tixx\t100\t0\ttrace\t1\t2\t3\t4\t5\t6\t7\t8\t9\n\
                 unknown\tixx\t100\t0\tnoise\t1\n\
                 patterns|p=1\tixx\t100\t0\tpatterns\t42\n",
                file_header()
            ),
        )
        .expect("write");
        let loaded = load_from(&root);
        assert_eq!(
            loaded,
            vec![(
                ("patterns|p=1".into(), Benchmark::Ixx, 100, 0),
                Measurement::Patterns(42)
            )],
            "only the row whose counts match its kind survives"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_file_from_another_generator_loads_nothing() {
        let root = scratch_root("fingerprint");
        let entries = sample_entries();
        save_to(&root, &entries).expect("save");
        assert_eq!(
            load_from(&root).len(),
            2,
            "the current generator round-trips"
        );
        let path = version_dir(&root).join("engine.tsv");
        let text = fs::read_to_string(&path).expect("read");
        let current = format!("{:016x}", generator_fingerprint());
        let other = format!("{:016x}", generator_fingerprint() ^ 1);
        assert!(text.lines().next().expect("header").contains(&current));
        fs::write(&path, text.replacen(&current, &other, 1)).expect("rewrite header");
        assert!(
            load_from(&root).is_empty(),
            "another generator's results are not served"
        );
        // The next save replaces the foreign file instead of merging it.
        assert_eq!(save_to(&root, &entries[..1]).expect("save over it"), 1);
        assert_eq!(load_from(&root).len(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn save_merges_with_existing_disk_contents() {
        let root = scratch_root("merge");
        let entries = sample_entries();
        save_to(&root, &entries[..1]).expect("first save");
        // A "second process" saves a disjoint entry; the first must survive.
        save_to(&root, &entries[1..]).expect("second save");
        let loaded = load_from(&root);
        assert_eq!(loaded.len(), 2, "merge keeps both processes' entries");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn stale_schema_directories_are_evicted() {
        let root = scratch_root("evict");
        let stale = [root.join("v0"), root.join("v2")];
        for dir in &stale {
            fs::create_dir_all(dir).expect("mk stale");
            fs::write(dir.join("engine.tsv"), "junk\n").expect("stale file");
        }
        save_to(&root, &sample_entries()).expect("save");
        let _ = load_from(&root);
        for dir in &stale {
            assert!(!dir.exists(), "{} evicted", dir.display());
        }
        assert!(version_dir(&root).join("engine.tsv").exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn failed_write_cleans_up_the_temp_file_and_keeps_the_old_snapshot() {
        let _guard = crate::faults::test_guard();
        let root = scratch_root("write-fault");
        let entries = sample_entries();
        save_to(&root, &entries[..1]).expect("clean first save");
        crate::faults::override_spec(Some("cache.write@1")).unwrap();
        let err = save_to(&root, &entries[1..]).expect_err("injected write fault");
        crate::faults::override_spec(None).unwrap();
        assert!(err.to_string().contains("injected fault: cache.write"), "{err}");
        let dir = version_dir(&root);
        assert!(!dir.join("engine.tsv.tmp").exists(), "temp file cleaned up");
        let loaded = load_from(&root);
        assert_eq!(loaded, entries[..1], "previous snapshot survives a failed save");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn failed_rename_cleans_up_the_temp_file_and_keeps_the_old_snapshot() {
        let _guard = crate::faults::test_guard();
        let root = scratch_root("rename-fault");
        let entries = sample_entries();
        save_to(&root, &entries[..1]).expect("clean first save");
        crate::faults::override_spec(Some("cache.rename@1")).unwrap();
        let err = save_to(&root, &entries).expect_err("injected rename fault");
        crate::faults::override_spec(None).unwrap();
        assert!(err.to_string().contains("injected fault: cache.rename"), "{err}");
        let dir = version_dir(&root);
        assert!(!dir.join("engine.tsv.tmp").exists(), "temp file cleaned up");
        assert_eq!(load_from(&root).len(), 1, "old snapshot intact");
        // A clean retry after the fault publishes normally.
        assert_eq!(save_to(&root, &entries).expect("retry"), 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn malformed_lines_degrade_to_a_cold_cache() {
        let root = scratch_root("malformed");
        let dir = version_dir(&root);
        fs::create_dir_all(&dir).expect("mkdir");
        fs::write(
            dir.join("engine.tsv"),
            format!(
                "{}\n\
                 not-enough-fields\t3\n\
                 key\tno-such-benchmark\t1\t0\trun\t1\t0\n\
                 key\tixx\t1\t0\trun\t1\tnot-a-count\n\
                 btb\tixx\t100\t0\trun\t100\t7\n",
                file_header()
            ),
        )
        .expect("write");
        let loaded = load_from(&root);
        assert_eq!(
            loaded,
            vec![(
                ("btb".into(), Benchmark::Ixx, 100, 0),
                Measurement::Run(RunStats {
                    indirect: 100,
                    mispredicted: 7
                })
            )],
            "only the well-formed line survives"
        );
        let _ = fs::remove_dir_all(&root);
    }
}
