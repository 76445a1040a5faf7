//! The persistent cross-process result cache.
//!
//! The engine's memo cache (see [`crate::engine`]) already guarantees a
//! `(config, benchmark, events)` cell is simulated at most once *per
//! process*. This module extends that guarantee across processes: on
//! first use the engine loads previously published results from
//! `results/.cache/v<schema>/engine.tsv`, and measurement binaries persist
//! the merged cache back on exit. A second `repro_all` run then folds
//! nothing at all — every lookup is a persistent hit, and no trace is read.
//!
//! The file is key-major, like the memo cache and like a sweep's lookups:
//! each [`Row`] holds one key's cells at one trace length. A line holds
//! the key, the events, the [`Measurement::kind`] every cell of the key
//! shares, then one `benchmark=count,count…` field per stored
//! benchmark in [`Benchmark::ALL`] order, with that kind's counts (two for
//! run stats, four for a miss breakdown, one for a pattern count, five for
//! ahead hits, eight for trace characteristics). Lines are sorted by key.
//! A malformed field — an unknown benchmark, a count that does not parse,
//! an arity that does not match the kind — drops its whole row, and only
//! that row.
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

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use ibp_workload::Benchmark;

use crate::analysis::{AheadHits, MissBreakdown, TraceCounts};
use crate::run::{Measurement, RunStats};

/// Cells per row: one per benchmark.
pub(crate) const SLOTS: usize = Benchmark::ALL.len();

/// A benchmark's cell in a row: its position in [`Benchmark::ALL`], which
/// lists the benchmarks in declaration order.
pub(crate) fn slot(b: Benchmark) -> usize {
    b as usize
}

/// One row of the cache: a key's cells at one trace length, indexed by
/// [`slot`]. Under one generator the trace is a pure function
/// of `(benchmark, events)`, and the lane a pure function of the key, so
/// the row's identity and a cell's benchmark determine its
/// [`Measurement`] exactly; the file header pins the generator.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Row {
    pub(crate) key: String,
    pub(crate) events: u64,
    pub(crate) cells: [Option<Measurement>; SLOTS],
}

/// Bump when the TSV layout (or the meaning of any field) changes; older
/// version directories are deleted on load.
const SCHEMA_VERSION: u32 = 5;

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
         key\tevents\tkind\tbenchmark=count,...",
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

/// A measurement's counts, in its row field's order.
fn encode(value: &Measurement) -> Vec<u64> {
    match *value {
        Measurement::Run(s) => vec![s.indirect, s.mispredicted],
        Measurement::Misses(m) => vec![m.hits, m.wrong_target, m.capacity, m.cold],
        Measurement::Patterns(n) => vec![n],
        Measurement::Ahead(a) => [&[a.scored][..], &a.correct].concat(),
        Measurement::Trace(t) => [
            &[t.indirect, t.instructions, t.conditionals, t.virtual_calls][..],
            &t.active_sites,
        ]
        .concat(),
    }
}

/// The measurement a row's kind and a field's counts encode, or `None`
/// for an unknown kind or a count arity that does not match it.
fn decode(kind: &str, counts: &[u64]) -> Option<Measurement> {
    Some(match (kind, counts) {
        ("run", &[indirect, mispredicted]) => Measurement::Run(RunStats {
            indirect,
            mispredicted,
        }),
        ("misses", &[hits, wrong_target, capacity, cold]) => Measurement::Misses(MissBreakdown {
            hits,
            wrong_target,
            capacity,
            cold,
        }),
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

/// A `benchmark=count,count…` field's cell under the row's `kind`.
fn parse_field(kind: &str, field: &str) -> Option<(Benchmark, Measurement)> {
    let (name, list) = field.split_once('=')?;
    let benchmark = Benchmark::from_name(name)?;
    let mut counts = [0u64; MAX_COUNTS];
    let mut n = 0;
    for count in list.split(',') {
        *counts.get_mut(n)? = count.parse().ok()?;
        n += 1;
    }
    Some((benchmark, decode(kind, &counts[..n])?))
}

/// A line's row, or `None` if any of its fields is malformed or it stores
/// no cell.
fn parse_row(line: &str) -> Option<Row> {
    let mut fields = line.split('\t');
    let key = fields.next()?;
    let events = fields.next()?.parse().ok()?;
    let kind = fields.next()?;
    let mut cells = [None; SLOTS];
    for field in fields {
        let (benchmark, value) = parse_field(kind, field)?;
        cells[slot(benchmark)] = Some(value);
    }
    cells.iter().any(Option::is_some).then(|| Row {
        key: key.to_string(),
        events,
        cells,
    })
}

/// A row's line, or `None` when it stores no cell or its key holds a tab
/// or a newline, which the line cannot delimit. The row's kind is its
/// first cell's; a cell of another kind, which the engine never stores
/// under one key, is left out.
fn format_row(row: &Row) -> Option<String> {
    if row.key.contains(['\t', '\n']) {
        return None;
    }
    let kind = row.cells.iter().flatten().next()?.kind();
    let mut line = format!("{}\t{}\t{kind}", row.key, row.events);
    for (b, value) in Benchmark::ALL.iter().zip(&row.cells) {
        let Some(value) = value.filter(|v| v.kind() == kind) else {
            continue;
        };
        line.push('\t');
        line.push_str(b.name());
        for (i, count) in encode(&value).into_iter().enumerate() {
            line.push(if i == 0 { '=' } else { ',' });
            write!(line, "{count}").expect("writing to a String cannot fail");
        }
    }
    Some(line)
}

/// Loads every row stored under `root` (evicting stale schema versions
/// first). Missing files, files from another generator and malformed rows
/// load as nothing — a corrupt or foreign cache degrades to a cold one,
/// never to an error.
fn load_from(root: &Path) -> Vec<Row> {
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
        .filter_map(parse_row)
        .collect()
}

/// Loads the persistent cache from the environment-selected results
/// directory; empty when disabled.
pub(crate) fn load() -> Vec<Row> {
    if !ibp_obs::knobs().cache {
        return Vec::new();
    }
    load_from(&cache_root())
}

/// Writes `rows` merged cell by cell with whatever is already on disk
/// (ours win where both hold a cell — the values are deterministic, so
/// they agree anyway), sorted by key, atomically via a temp file + rename.
/// Returns the number of rows written.
fn save_to(root: &Path, rows: &[Row]) -> io::Result<usize> {
    let dir = version_dir(root);
    fs::create_dir_all(&dir)?;
    let mut merged: BTreeMap<(String, u64), [Option<Measurement>; SLOTS]> = load_from(root)
        .into_iter()
        .map(|row| ((row.key, row.events), row.cells))
        .collect();
    for row in rows {
        let cells = merged
            .entry((row.key.clone(), row.events))
            .or_insert([None; SLOTS]);
        for (cell, ours) in cells.iter_mut().zip(&row.cells) {
            if ours.is_some() {
                *cell = *ours;
            }
        }
    }
    let lines: Vec<String> = merged
        .into_iter()
        .filter_map(|((key, events), cells)| format_row(&Row { key, events, cells }))
        .collect();
    let tmp = dir.join("engine.tsv.tmp");
    let published = write_and_publish(&tmp, &dir, &lines);
    if published.is_err() {
        // A failed write or rename must not leave the half-written temp
        // file behind — the previously published engine.tsv (if any)
        // stays the newest complete snapshot.
        let _ = fs::remove_file(&tmp);
    }
    published.map(|()| lines.len())
}

/// Writes `lines` to `tmp` and atomically publishes it as `engine.tsv`.
/// Split out so `save_to` can clean up the temp file on any failure.
fn write_and_publish(tmp: &Path, dir: &Path, lines: &[String]) -> io::Result<()> {
    let mut file = io::BufWriter::new(fs::File::create(tmp)?);
    if let Some(e) = crate::faults::io_error("cache.write") {
        return Err(e);
    }
    writeln!(file, "{}", file_header())?;
    for line in lines {
        writeln!(file, "{line}")?;
    }
    let file = file.into_inner().map_err(io::IntoInnerError::into_error)?;
    file.sync_all()?;
    drop(file);
    if let Some(e) = crate::faults::io_error("cache.rename") {
        return Err(e);
    }
    fs::rename(tmp, dir.join("engine.tsv"))
}

/// Persists `rows` into the environment-selected results directory;
/// no-op (returning 0) when disabled.
pub(crate) fn save(rows: &[Row]) -> io::Result<usize> {
    if !ibp_obs::knobs().cache {
        return Ok(0);
    }
    save_to(&cache_root(), rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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

    /// A row of `key` at `events` holding `cells`.
    fn row(key: &str, events: u64, cells: &[(Benchmark, Measurement)]) -> Row {
        let mut row = Row {
            key: key.to_string(),
            events,
            cells: [None; SLOTS],
        };
        for &(b, value) in cells {
            row.cells[slot(b)] = Some(value);
        }
        row
    }

    fn run(indirect: u64, mispredicted: u64) -> Measurement {
        Measurement::Run(RunStats {
            indirect,
            mispredicted,
        })
    }

    fn sample_rows() -> Vec<Row> {
        vec![
            row(
                "btb-2bc",
                6_000,
                &[
                    (Benchmark::Ixx, run(6_000, 1_234)),
                    (Benchmark::Gcc, run(6_000, 99)),
                ],
            ),
            row(
                "two-level|p=4",
                6_000,
                &[(Benchmark::Xlisp, run(5_500, 321))],
            ),
        ]
    }

    /// One measurement of every kind, each with its counts drawn from
    /// `c`.
    fn one_of_each_kind(c: [u64; MAX_COUNTS]) -> [Measurement; 5] {
        [
            run(c[0], c[1]),
            Measurement::Misses(MissBreakdown {
                hits: c[0],
                wrong_target: c[1],
                capacity: c[2],
                cold: c[3],
            }),
            Measurement::Patterns(c[0]),
            Measurement::Ahead(AheadHits {
                scored: c[0],
                correct: [c[1], c[2], c[3], c[4]],
            }),
            Measurement::Trace(TraceCounts {
                indirect: c[0],
                instructions: c[1],
                conditionals: c[2],
                virtual_calls: c[3],
                active_sites: [c[4], c[5], c[6], c[7]],
            }),
        ]
    }

    /// Writes `body` under the current header as `root`'s engine.tsv.
    fn write_cache(root: &Path, body: &str) {
        let dir = version_dir(root);
        fs::create_dir_all(&dir).expect("mkdir");
        fs::write(dir.join("engine.tsv"), format!("{}\n{body}", file_header())).expect("write");
    }

    #[test]
    fn a_benchmarks_slot_is_its_position_in_all() {
        for (i, &b) in Benchmark::ALL.iter().enumerate() {
            assert_eq!(slot(b), i, "{b}");
        }
    }

    #[test]
    fn round_trips_rows_through_disk() {
        let root = scratch_root("roundtrip");
        let rows = sample_rows();
        assert_eq!(save_to(&root, &rows).expect("save"), 2);
        let mut loaded = load_from(&root);
        loaded.sort_by(|a, b| a.key.cmp(&b.key));
        assert_eq!(loaded, rows);
        let text = fs::read_to_string(version_dir(&root).join("engine.tsv")).expect("read");
        assert_eq!(
            text.lines().nth(1),
            Some("btb-2bc\t6000\trun\tixx=6000,1234\tgcc=6000,99"),
            "one line per key, its benchmarks in Benchmark::ALL order"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn one_row_of_each_kind_round_trips() {
        let root = scratch_root("kinds");
        let rows: Vec<Row> = one_of_each_kind([6_000, 17, 300, 100, 80, 20, 40, 10])
            .into_iter()
            .map(|value| {
                let key = format!("{}|TwoLevel|p=3", value.kind());
                row(
                    &key,
                    6_000,
                    &[(Benchmark::Gcc, value), (Benchmark::Go, value)],
                )
            })
            .collect();
        assert_eq!(save_to(&root, &rows).expect("save"), rows.len());
        let loaded = load_from(&root);
        assert_eq!(loaded.len(), rows.len());
        for row in &rows {
            assert!(loaded.contains(row), "{}", row.key);
        }
        let _ = fs::remove_dir_all(&root);
    }

    proptest! {
        /// Any set of rows, of every kind, over any benchmarks, at several
        /// trace lengths per key, and under keys that hold the characters
        /// the line's fields are split on, loads back as saved.
        #[test]
        fn rows_round_trip_through_disk(
            keys in proptest::collection::vec("[a-z0-9|=,: {}()]{0,24}", 1..6),
            cells in proptest::collection::vec(
                (0usize..6, 0u64..3, 0usize..SLOTS, any::<u64>(), any::<u64>()),
                1..40,
            )
        ) {
            let mut expected: BTreeMap<(String, u64), [Option<Measurement>; SLOTS]> =
                BTreeMap::new();
            for (k, events, b, x, y) in cells {
                // Each key stores one kind, as the engine's keys do, and
                // the six keys cover all five.
                let key = format!("{}{}", keys[k % keys.len()], k);
                let kind = k % 5;
                let counts = [x, y, x ^ y, x / 3, y / 5, x.rotate_left(7), 7, 0];
                let value = one_of_each_kind(counts)[kind];
                expected.entry((key, events * 60_000)).or_insert([None; SLOTS])[b] = Some(value);
            }
            let rows: Vec<Row> = expected
                .iter()
                .map(|((key, events), cells)| Row {
                    key: key.clone(),
                    events: *events,
                    cells: *cells,
                })
                .collect();
            let root = scratch_root("prop");
            prop_assert_eq!(save_to(&root, &rows).expect("save"), rows.len());
            let loaded = load_from(&root);
            let _ = fs::remove_dir_all(&root);
            prop_assert_eq!(loaded, rows);
        }
    }

    #[test]
    fn a_field_whose_arity_does_not_match_its_kind_voids_its_row() {
        let root = scratch_root("arity");
        write_cache(
            &root,
            "short\t100\tmisses\tixx=1,2,3\n\
             long\t100\trun\tixx=100,7,1\n\
             overlong\t100\ttrace\tixx=1,2,3,4,5,6,7,8,9\n\
             unknown\t100\tnoise\tixx=1\n\
             patterns|p=1\t100\tpatterns\tixx=42\n",
        );
        assert_eq!(
            load_from(&root),
            vec![row(
                "patterns|p=1",
                100,
                &[(Benchmark::Ixx, Measurement::Patterns(42))]
            )],
            "only the row whose counts match its kind survives"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_file_from_another_generator_loads_nothing() {
        let root = scratch_root("fingerprint");
        let rows = sample_rows();
        save_to(&root, &rows).expect("save");
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
        assert_eq!(save_to(&root, &rows[..1]).expect("save over it"), 1);
        assert_eq!(load_from(&root).len(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn save_merges_with_existing_disk_contents() {
        let root = scratch_root("merge");
        let rows = sample_rows();
        save_to(&root, &rows[..1]).expect("first save");
        // A "second process" saves a disjoint row; the first must survive.
        save_to(&root, &rows[1..]).expect("second save");
        let loaded = load_from(&root);
        assert_eq!(loaded.len(), 2, "merge keeps both processes' rows");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn two_saves_of_one_key_merge_cell_by_cell() {
        let root = scratch_root("merge-cells");
        let first = row(
            "btb",
            6_000,
            &[
                (Benchmark::Ixx, run(6_000, 10)),
                (Benchmark::Gcc, run(6_000, 11)),
            ],
        );
        save_to(&root, &[first]).expect("first save");
        // Another process saves other benchmarks of the same key, and one
        // it shares with the first, whose value it restates.
        let second = row(
            "btb",
            6_000,
            &[
                (Benchmark::Idl, run(6_000, 12)),
                (Benchmark::Gcc, run(6_000, 11)),
            ],
        );
        assert_eq!(
            save_to(&root, &[second]).expect("second save"),
            1,
            "one key, one row"
        );
        let merged = row(
            "btb",
            6_000,
            &[
                (Benchmark::Idl, run(6_000, 12)),
                (Benchmark::Ixx, run(6_000, 10)),
                (Benchmark::Gcc, run(6_000, 11)),
            ],
        );
        assert_eq!(load_from(&root), vec![merged]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn stale_schema_directories_are_evicted() {
        let root = scratch_root("evict");
        let stale = [root.join("v0"), root.join("v3"), root.join("v4")];
        for dir in &stale {
            fs::create_dir_all(dir).expect("mk stale");
            fs::write(dir.join("engine.tsv"), "junk\n").expect("stale file");
        }
        assert!(load_from(&root).is_empty(), "no v5 file yet");
        for dir in &stale {
            assert!(!dir.exists(), "{} evicted on first load", dir.display());
        }
        save_to(&root, &sample_rows()).expect("save");
        assert!(version_dir(&root).join("engine.tsv").exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn failed_write_cleans_up_the_temp_file_and_keeps_the_old_snapshot() {
        let _guard = crate::faults::test_guard();
        let root = scratch_root("write-fault");
        let rows = sample_rows();
        save_to(&root, &rows[..1]).expect("clean first save");
        crate::faults::override_spec(Some("cache.write@1")).unwrap();
        let err = save_to(&root, &rows[1..]).expect_err("injected write fault");
        crate::faults::override_spec(None).unwrap();
        assert!(
            err.to_string().contains("injected fault: cache.write"),
            "{err}"
        );
        let dir = version_dir(&root);
        assert!(!dir.join("engine.tsv.tmp").exists(), "temp file cleaned up");
        let loaded = load_from(&root);
        assert_eq!(
            loaded,
            rows[..1],
            "previous snapshot survives a failed save"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn failed_rename_cleans_up_the_temp_file_and_keeps_the_old_snapshot() {
        let _guard = crate::faults::test_guard();
        let root = scratch_root("rename-fault");
        let rows = sample_rows();
        save_to(&root, &rows[..1]).expect("clean first save");
        crate::faults::override_spec(Some("cache.rename@1")).unwrap();
        let err = save_to(&root, &rows).expect_err("injected rename fault");
        crate::faults::override_spec(None).unwrap();
        assert!(
            err.to_string().contains("injected fault: cache.rename"),
            "{err}"
        );
        let dir = version_dir(&root);
        assert!(!dir.join("engine.tsv.tmp").exists(), "temp file cleaned up");
        assert_eq!(load_from(&root).len(), 1, "old snapshot intact");
        // A clean retry after the fault publishes normally.
        assert_eq!(save_to(&root, &rows).expect("retry"), 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn one_malformed_field_voids_only_its_row() {
        let root = scratch_root("malformed");
        write_cache(
            &root,
            "not-enough-fields\t3\n\
             no-cell\t100\trun\n\
             a\t100\trun\tixx=100,7\tno-such-benchmark=1,0\n\
             b\t100\trun\tixx=100,7\tgcc=1,not-a-count\n\
             c\t100\trun\tixx=100,7\tgcc=1,0,\n\
             d\t100\trun\tixx=100,7\tgcc\n\
             e\tmany\trun\tixx=100,7\n\
             btb\t100\trun\tixx=100,7\tgcc=100,9\n",
        );
        assert_eq!(
            load_from(&root),
            vec![row(
                "btb",
                100,
                &[(Benchmark::Ixx, run(100, 7)), (Benchmark::Gcc, run(100, 9))]
            )],
            "only the well-formed row survives, and each bad one goes whole"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_key_holding_a_tab_or_newline_is_never_written() {
        let root = scratch_root("tab");
        let mut rows = sample_rows();
        rows.push(row(
            "split\there",
            6_000,
            &[(Benchmark::Ixx, run(6_000, 1))],
        ));
        rows.push(row(
            "split\nhere",
            6_000,
            &[(Benchmark::Ixx, run(6_000, 2))],
        ));
        assert_eq!(
            save_to(&root, &rows).expect("save"),
            2,
            "the two keys left out"
        );
        let text = fs::read_to_string(version_dir(&root).join("engine.tsv")).expect("read");
        assert_eq!(text.lines().count(), 3, "the header and the two clean rows");
        assert!(!text.contains("split"));
        assert_eq!(load_from(&root).len(), 2);
        let _ = fs::remove_dir_all(&root);
    }
}
