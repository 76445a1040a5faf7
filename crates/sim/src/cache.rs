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
//! One [`Row`] type is both the memo map's entry and the file's line: a
//! key's cells at one trace length, stored compactly as the kind, a mask
//! of the benchmarks it holds, a mask of those loaded from disk, and the
//! kind's counts for every benchmark in one flat array. A [`Measurement`]
//! is decoded only when a sweep reads a cell. A line holds the key, the
//! events, the [`Measurement::kind`] every cell of the key shares, then
//! one `benchmark=count,count…` field per stored benchmark in
//! [`Benchmark::ALL`] order, with that kind's counts (two for run stats,
//! four for a miss breakdown, one for a pattern count, five for ahead
//! hits, eight for trace characteristics). Lines are sorted by key.
//! [`load`] parses each line straight into its row; a malformed field —
//! an unknown benchmark, a count that does not parse or overflows, an
//! arity that does not match the kind — drops its whole row, and only
//! that row, and the load warns with the number of rows it dropped.
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
//! With tracing on, a load journals a `cache_load` span (`rows`, `cells`,
//! `bytes`, `dropped`) and a save a `cache_save` span (`rows`, `bytes`).
//!
//! `IBP_CACHE=0` disables both load and save (an invalid value warns and
//! means enabled, like every knob [`ibp_obs::knobs()`] reads). The cache
//! lives under the results directory (`IBP_RESULTS`, default `results/`), so
//! redirecting results also isolates the cache.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use ibp_obs as obs;
use ibp_workload::Benchmark;

use crate::analysis::{AheadHits, MissBreakdown, TraceCounts};
use crate::run::{Measurement, RunStats};

/// Cells per row: one per benchmark.
const SLOTS: usize = Benchmark::ALL.len();

/// A benchmark's cell in a row: its position in [`Benchmark::ALL`], which
/// lists the benchmarks in declaration order.
fn slot(b: Benchmark) -> usize {
    b as usize
}

/// What every cell of a row measures: a [`Measurement`] variant, named
/// in the line's kind column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Run,
    Misses,
    Patterns,
    Ahead,
    Trace,
}

impl Kind {
    const ALL: [Kind; 5] = [
        Kind::Run,
        Kind::Misses,
        Kind::Patterns,
        Kind::Ahead,
        Kind::Trace,
    ];

    pub(crate) fn of(value: &Measurement) -> Kind {
        match value {
            Measurement::Run(_) => Kind::Run,
            Measurement::Misses(_) => Kind::Misses,
            Measurement::Patterns(_) => Kind::Patterns,
            Measurement::Ahead(_) => Kind::Ahead,
            Measurement::Trace(_) => Kind::Trace,
        }
    }

    pub(crate) fn name(self) -> &'static str {
        match self {
            Kind::Run => "run",
            Kind::Misses => "misses",
            Kind::Patterns => "patterns",
            Kind::Ahead => "ahead",
            Kind::Trace => "trace",
        }
    }

    fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The counts one cell of the kind stores.
    fn arity(self) -> usize {
        match self {
            Kind::Run => 2,
            Kind::Misses => 4,
            Kind::Patterns => 1,
            Kind::Ahead => 5,
            Kind::Trace => 8,
        }
    }
}

/// Writes `value`'s counts, in its line field's order, into `out`, which
/// holds its kind's arity.
fn encode(value: &Measurement, out: &mut [u64]) {
    match *value {
        Measurement::Run(s) => out.copy_from_slice(&[s.indirect, s.mispredicted]),
        Measurement::Misses(m) => {
            out.copy_from_slice(&[m.hits, m.wrong_target, m.capacity, m.cold]);
        }
        Measurement::Patterns(n) => out.copy_from_slice(&[n]),
        Measurement::Ahead(a) => {
            out[0] = a.scored;
            out[1..].copy_from_slice(&a.correct);
        }
        Measurement::Trace(t) => {
            out[..4].copy_from_slice(&[
                t.indirect,
                t.instructions,
                t.conditionals,
                t.virtual_calls,
            ]);
            out[4..].copy_from_slice(&t.active_sites);
        }
    }
}

/// The measurement of `kind` that `c`, its arity of counts, encodes.
fn decode(kind: Kind, c: &[u64]) -> Measurement {
    match kind {
        Kind::Run => Measurement::Run(RunStats {
            indirect: c[0],
            mispredicted: c[1],
        }),
        Kind::Misses => Measurement::Misses(MissBreakdown {
            hits: c[0],
            wrong_target: c[1],
            capacity: c[2],
            cold: c[3],
        }),
        Kind::Patterns => Measurement::Patterns(c[0]),
        Kind::Ahead => Measurement::Ahead(AheadHits {
            scored: c[0],
            correct: [c[1], c[2], c[3], c[4]],
        }),
        Kind::Trace => Measurement::Trace(TraceCounts {
            indirect: c[0],
            instructions: c[1],
            conditionals: c[2],
            virtual_calls: c[3],
            active_sites: [c[4], c[5], c[6], c[7]],
        }),
    }
}

/// One key's cells at one trace length: an entry of the memo map and a
/// line of `engine.tsv`. Under one generator the trace is a pure function
/// of `(benchmark, events)`, and the lane a pure function of the key, so
/// the row's identity and a cell's benchmark determine its
/// [`Measurement`] exactly; the file header pins the generator.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Row {
    events: u64,
    kind: Kind,
    /// Bit [`slot`]`(b)` is set when the row holds `b`'s cell.
    present: u32,
    /// Bit [`slot`]`(b)` is set when `b`'s cell was loaded from disk, not
    /// folded in this process: hits on it count as persistent hits.
    from_disk: u32,
    /// The kind's arity of counts for every slot, held or not.
    counts: Box<[u64]>,
}

impl Row {
    fn empty(events: u64, kind: Kind) -> Row {
        Row {
            events,
            kind,
            present: 0,
            from_disk: 0,
            counts: vec![0; kind.arity() * SLOTS].into_boxed_slice(),
        }
    }

    fn counts(&self, slot: usize) -> &[u64] {
        let arity = self.kind.arity();
        &self.counts[slot * arity..(slot + 1) * arity]
    }

    fn counts_mut(&mut self, slot: usize) -> &mut [u64] {
        let arity = self.kind.arity();
        &mut self.counts[slot * arity..(slot + 1) * arity]
    }

    /// `b`'s cell, and whether it was loaded from disk, if the row holds
    /// one.
    pub(crate) fn cell(&self, b: Benchmark) -> Option<(Measurement, bool)> {
        let bit = 1 << slot(b);
        (self.present & bit != 0).then(|| {
            (
                decode(self.kind, self.counts(slot(b))),
                self.from_disk & bit != 0,
            )
        })
    }

    /// Copies the cells `other`, a row of the same kind, holds over this
    /// row's, with their from-disk marks.
    fn merge(&mut self, other: &Row) {
        debug_assert_eq!(self.kind, other.kind);
        for s in (0..SLOTS).filter(|s| other.present & (1 << s) != 0) {
            self.counts_mut(s).copy_from_slice(other.counts(s));
        }
        self.present |= other.present;
        self.from_disk = (self.from_disk & !other.present) | other.from_disk;
    }
}

/// The row at `events` among one key's `rows`, created empty when absent,
/// and emptied when it holds another kind: a key holds one kind.
fn row_at(rows: &mut Vec<Row>, events: u64, kind: Kind) -> &mut Row {
    let at = match rows.iter().position(|row| row.events == events) {
        Some(at) => {
            if rows[at].kind != kind {
                rows[at] = Row::empty(events, kind);
            }
            at
        }
        None => {
            rows.push(Row::empty(events, kind));
            rows.len() - 1
        }
    };
    &mut rows[at]
}

/// Every key's rows, one per trace length it holds cells at: the memo
/// map, which [`load`] fills and [`save`] merges into the file.
#[derive(Debug, Default)]
pub(crate) struct Rows(HashMap<String, Vec<Row>>);

impl Rows {
    /// The row of `key` at `events`, if any: one probe of the map, with
    /// the key borrowed.
    pub(crate) fn get(&self, key: &str, events: u64) -> Option<&Row> {
        self.0.get(key)?.iter().find(|row| row.events == events)
    }

    /// Stores `value`, folded in this process, as `b`'s cell of `key` at
    /// `events`, in place (see [`row_at`]).
    pub(crate) fn set(&mut self, key: &str, events: u64, b: Benchmark, value: &Measurement) {
        let row = row_at(self.rows_mut(key), events, Kind::of(value));
        encode(value, row.counts_mut(slot(b)));
        row.present |= 1 << slot(b);
        row.from_disk &= !(1 << slot(b));
    }

    /// Copies `row`'s cells over `key`'s row at the same trace length.
    fn merge(&mut self, key: &str, row: &Row) {
        row_at(self.rows_mut(key), row.events, row.kind).merge(row);
    }

    /// `key`'s rows, created empty when absent; the key is copied only
    /// then.
    fn rows_mut(&mut self, key: &str) -> &mut Vec<Row> {
        if !self.0.contains_key(key) {
            self.0.insert(key.to_owned(), Vec::new());
        }
        self.0.get_mut(key).expect("inserted above")
    }

    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }
}

/// Bump when the TSV layout (or the meaning of any field) changes; older
/// version directories are deleted on load.
const SCHEMA_VERSION: u32 = 5;

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

/// Parses the counts of a field, comma-separated decimals up to the next
/// tab or the end of `text`, into `out` in one pass. Returns the bytes
/// read, or `None` unless the field holds exactly `out.len()` counts,
/// each one or more digits within a `u64`.
fn parse_counts(text: &[u8], out: &mut [u64]) -> Option<usize> {
    let mut n = 0;
    let (mut value, mut digits) = (0u64, 0);
    let mut read = 0;
    for &byte in text {
        if byte == b'\t' {
            break;
        }
        read += 1;
        if byte == b',' {
            if digits == 0 {
                return None;
            }
            *out.get_mut(n)? = value;
            n += 1;
            (value, digits) = (0, 0);
            continue;
        }
        let digit = byte.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        value = value.checked_mul(10)?.checked_add(u64::from(digit))?;
        digits += 1;
    }
    if digits == 0 {
        return None;
    }
    *out.get_mut(n)? = value;
    (n + 1 == out.len()).then_some(read)
}

/// A line's key and row, every cell marked as loaded from disk, or `None`
/// if any of its fields is malformed or it stores no cell.
fn parse_row(line: &str) -> Option<(&str, Row)> {
    let (key, rest) = line.split_once('\t')?;
    let (events, rest) = rest.split_once('\t')?;
    let (kind, fields) = rest.split_once('\t')?;
    let mut count = [0];
    parse_counts(events.as_bytes(), &mut count)?;
    let mut row = Row::empty(count[0], Kind::from_name(kind)?);
    let mut fields = fields.as_bytes();
    // A saved line lists its benchmarks in `Benchmark::ALL` order, so the
    // benchmark after the previous field's is tried first.
    let mut next = 0;
    loop {
        let (s, eq) = match Benchmark::ALL.get(next).map(|b| b.name().as_bytes()) {
            Some(name) if fields.starts_with(name) && fields.get(name.len()) == Some(&b'=') => {
                (next, name.len())
            }
            _ => {
                let eq = fields.iter().position(|&byte| byte == b'=')?;
                let name = std::str::from_utf8(&fields[..eq]).ok()?;
                (slot(Benchmark::from_name(name)?), eq)
            }
        };
        next = s + 1;
        let counts = &fields[eq + 1..];
        let read = parse_counts(counts, row.counts_mut(s))?;
        row.present |= 1 << s;
        match counts.get(read) {
            Some(_) => fields = &counts[read + 1..],
            None => break,
        }
    }
    row.from_disk = row.present;
    Some((key, row))
}

/// Appends a row's line to `out`, returning whether it did: a row that
/// stores no cell, or whose key holds a tab or a newline, which the line
/// cannot delimit, is left out.
fn format_row(out: &mut String, key: &str, row: &Row) -> bool {
    if row.present == 0 || key.contains(['\t', '\n']) {
        return false;
    }
    let kind = row.kind.name();
    write!(out, "{key}\t{}\t{kind}", row.events).expect("writing to a String cannot fail");
    for (s, b) in Benchmark::ALL.iter().enumerate() {
        if row.present & (1 << s) == 0 {
            continue;
        }
        out.push('\t');
        out.push_str(b.name());
        for (i, count) in row.counts(s).iter().enumerate() {
            out.push(if i == 0 { '=' } else { ',' });
            write!(out, "{count}").expect("writing to a String cannot fail");
        }
    }
    out.push('\n');
    true
}

/// What one load found: the rows and cells it kept, the file's size, and
/// the malformed rows it dropped.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Loaded {
    rows: usize,
    cells: usize,
    bytes: usize,
    dropped: usize,
}

/// Loads every row stored under `root` (evicting stale schema versions
/// first). Missing files, files from another generator and malformed rows
/// load as nothing — a corrupt or foreign cache degrades to a cold one,
/// never to an error.
fn load_from(root: &Path) -> (Rows, Loaded) {
    evict_stale(root, SCHEMA_VERSION, "result cache");
    let mut rows = Rows::default();
    let mut loaded = Loaded::default();
    let Ok(text) = fs::read_to_string(version_dir(root).join("engine.tsv")) else {
        return (rows, loaded);
    };
    loaded.bytes = text.len();
    let mut lines = text.lines();
    if lines.next() != Some(file_header().as_str()) {
        return (rows, loaded);
    }
    for line in lines.filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let Some((key, row)) = parse_row(line) else {
            loaded.dropped += 1;
            continue;
        };
        loaded.rows += 1;
        loaded.cells += row.present.count_ones() as usize;
        match rows.0.entry(key.to_owned()) {
            Entry::Occupied(held) => row_at(held.into_mut(), row.events, row.kind).merge(&row),
            Entry::Vacant(vacant) => {
                vacant.insert(vec![row]);
            }
        }
    }
    (rows, loaded)
}

/// Loads the persistent cache from the environment-selected results
/// directory; empty when disabled. Warns once when it drops malformed
/// rows, which the engine then folds again.
pub(crate) fn load() -> Rows {
    if !ibp_obs::knobs().cache {
        return Rows::default();
    }
    let mut span = obs::span("cache_load");
    let root = cache_root();
    let (rows, loaded) = load_from(&root);
    span.note("rows", loaded.rows);
    span.note("cells", loaded.cells);
    span.note("bytes", loaded.bytes);
    span.note("dropped", loaded.dropped);
    if loaded.dropped > 0 {
        obs::warn!(
            "result cache: dropped {} malformed rows of {}",
            loaded.dropped,
            version_dir(&root).join("engine.tsv").display()
        );
    }
    rows
}

/// Writes `ours` merged cell by cell with whatever is already on disk
/// (ours win where both hold a cell — the values are deterministic, so
/// they agree anyway), sorted by key, atomically via a temp file + rename.
/// Returns the number of rows written and the file's size.
fn save_to(root: &Path, ours: &Rows) -> io::Result<(usize, usize)> {
    let dir = version_dir(root);
    fs::create_dir_all(&dir)?;
    let (mut merged, _) = load_from(root);
    for (key, rows) in &ours.0 {
        for row in rows {
            merged.merge(key, row);
        }
    }
    let mut sorted: Vec<(&str, &Row)> = merged
        .0
        .iter()
        .flat_map(|(key, rows)| rows.iter().map(move |row| (key.as_str(), row)))
        .collect();
    sorted.sort_unstable_by_key(|&(key, row)| (key, row.events));
    let mut text = file_header();
    text.push('\n');
    let rows = sorted
        .into_iter()
        .filter(|&(key, row)| format_row(&mut text, key, row))
        .count();
    let tmp = dir.join("engine.tsv.tmp");
    let published = write_and_publish(&tmp, &dir, &text);
    if published.is_err() {
        // A failed write or rename must not leave the half-written temp
        // file behind — the previously published engine.tsv (if any)
        // stays the newest complete snapshot.
        let _ = fs::remove_file(&tmp);
    }
    published.map(|()| (rows, text.len()))
}

/// Writes `text` to `tmp` and atomically publishes it as `engine.tsv`.
/// Split out so `save_to` can clean up the temp file on any failure.
fn write_and_publish(tmp: &Path, dir: &Path, text: &str) -> io::Result<()> {
    let mut file = fs::File::create(tmp)?;
    if let Some(e) = crate::faults::io_error("cache.write") {
        return Err(e);
    }
    file.write_all(text.as_bytes())?;
    file.sync_all()?;
    drop(file);
    if let Some(e) = crate::faults::io_error("cache.rename") {
        return Err(e);
    }
    fs::rename(tmp, dir.join("engine.tsv"))
}

/// Persists `rows` into the environment-selected results directory;
/// no-op when disabled.
pub(crate) fn save(rows: &Rows) -> io::Result<()> {
    if !ibp_obs::knobs().cache {
        return Ok(());
    }
    let mut span = obs::span("cache_save");
    let (rows, bytes) = save_to(&cache_root(), rows)?;
    span.note("rows", rows);
    span.note("bytes", bytes);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Every cell a row map holds, decoded: (key, events, benchmark) →
    /// (value, loaded from disk). Tests compare maps through it, whatever
    /// the rows' layout.
    type Cells = BTreeMap<(String, u64, Benchmark), (Measurement, bool)>;

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

    fn cells_of(rows: &Rows) -> Cells {
        let mut cells = Cells::new();
        for (key, rows) in &rows.0 {
            for row in rows {
                for &b in &Benchmark::ALL {
                    if let Some(cell) = row.cell(b) {
                        cells.insert((key.clone(), row.events, b), cell);
                    }
                }
            }
        }
        cells
    }

    /// The cells `rows` holds, as folded in this process.
    fn folded(rows: &Rows) -> Cells {
        let mut cells = cells_of(rows);
        for cell in cells.values_mut() {
            cell.1 = false;
        }
        cells
    }

    /// What a load of `root` holds, each cell checked as marked loaded
    /// from disk and returned as a folded one, for comparing with the rows
    /// that were saved.
    fn loaded(root: &Path) -> Cells {
        let (rows, _) = load_from(root);
        let cells = cells_of(&rows);
        assert!(cells.values().all(|&(_, from_disk)| from_disk));
        folded(&rows)
    }

    /// The rows a row map holds.
    fn row_count(rows: &Rows) -> usize {
        rows.0.values().map(Vec::len).sum()
    }

    /// Adds `key`'s `cells` at `events` to `rows`.
    fn add(rows: &mut Rows, key: &str, events: u64, cells: &[(Benchmark, Measurement)]) {
        for (b, value) in cells {
            rows.set(key, events, *b, value);
        }
    }

    fn run(indirect: u64, mispredicted: u64) -> Measurement {
        Measurement::Run(RunStats {
            indirect,
            mispredicted,
        })
    }

    fn sample_rows() -> [Rows; 2] {
        let mut btb = Rows::default();
        add(
            &mut btb,
            "btb-2bc",
            6_000,
            &[
                (Benchmark::Ixx, run(6_000, 1_234)),
                (Benchmark::Gcc, run(6_000, 99)),
            ],
        );
        let mut two_level = Rows::default();
        add(
            &mut two_level,
            "two-level|p=4",
            6_000,
            &[(Benchmark::Xlisp, run(5_500, 321))],
        );
        [btb, two_level]
    }

    /// Both sample rows in one map.
    fn both_sample_rows() -> Rows {
        let [mut rows, other] = sample_rows();
        for (key, held) in &other.0 {
            for row in held {
                rows.merge(key, row);
            }
        }
        rows
    }

    /// The most counts any [`Measurement`] kind stores.
    const MAX_COUNTS: usize = 8;

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
        assert!(SLOTS <= u32::BITS as usize, "a row's masks hold every slot");
    }

    #[test]
    fn a_folded_cell_replaces_a_loaded_one_in_place() {
        let mut rows = Rows::default();
        let (key, events) = ("btb", 6_000);
        let (_, row) = parse_row("btb\t6000\trun\tixx=6000,10\tgcc=6000,11").expect("a row");
        rows.merge(key, &row);
        rows.set(key, events, Benchmark::Gcc, &run(6_000, 12));
        rows.set(key, events, Benchmark::Go, &run(6_000, 13));
        let row = rows.get(key, events).expect("one row");
        assert_eq!(row.cell(Benchmark::Ixx), Some((run(6_000, 10), true)));
        assert_eq!(row.cell(Benchmark::Gcc), Some((run(6_000, 12), false)));
        assert_eq!(row.cell(Benchmark::Go), Some((run(6_000, 13), false)));
        assert_eq!(row.cell(Benchmark::Idl), None);
        assert_eq!(row_count(&rows), 1, "one key, one trace length, one row");
        rows.set(key, 8_000, Benchmark::Ixx, &run(8_000, 1));
        assert_eq!(row_count(&rows), 2, "another trace length, another row");
        // A key holds one kind: a cell of another kind replaces the row.
        rows.set(key, events, Benchmark::Go, &Measurement::Patterns(5));
        let row = rows.get(key, events).expect("one row");
        assert_eq!(row.cell(Benchmark::Ixx), None);
        assert_eq!(
            row.cell(Benchmark::Go),
            Some((Measurement::Patterns(5), false))
        );
    }

    #[test]
    fn counts_parse_as_plain_decimals_within_a_u64() {
        let parse = |text: &str, arity: usize| {
            let mut out = vec![0; arity];
            parse_counts(text.as_bytes(), &mut out).map(|read| (read, out))
        };
        assert_eq!(parse("0", 1), Some((1, vec![0])));
        assert_eq!(parse("1234,5", 2), Some((6, vec![1_234, 5])));
        assert_eq!(
            parse("7,8\tgcc=1,2", 2),
            Some((3, vec![7, 8])),
            "a field ends at a tab"
        );
        let max = u64::MAX.to_string();
        assert_eq!(parse(&max, 1), Some((max.len(), vec![u64::MAX])));
        for bad in [
            "",
            "18446744073709551616",
            "99999999999999999999",
            "-1",
            "+1",
            "1.5",
            "1 ",
        ] {
            assert_eq!(parse(bad, 1), None, "{bad:?}");
        }
        for bad in ["1", "1,2,3", "1,", ",1", "1,,2"] {
            assert_eq!(parse(bad, 2), None, "{bad:?} holds two counts");
        }
    }

    #[test]
    fn round_trips_rows_through_disk() {
        let root = scratch_root("roundtrip");
        let rows = both_sample_rows();
        assert_eq!(save_to(&root, &rows).expect("save").0, 2);
        assert_eq!(loaded(&root), folded(&rows));
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
        let mut rows = Rows::default();
        for value in one_of_each_kind([6_000, 17, 300, 100, 80, 20, 40, 10]) {
            let key = format!("{}|TwoLevel|p=3", value.kind());
            add(
                &mut rows,
                &key,
                6_000,
                &[(Benchmark::Gcc, value), (Benchmark::Go, value)],
            );
        }
        assert_eq!(save_to(&root, &rows).expect("save").0, 5);
        let (back, stats) = load_from(&root);
        assert_eq!(row_count(&back), 5);
        assert_eq!((stats.rows, stats.cells, stats.dropped), (5, 10, 0));
        assert_eq!(loaded(&root), folded(&rows));
        let _ = fs::remove_dir_all(&root);
    }

    /// The file format, pinned: a file holding rows of every kind, sparse
    /// and full rows, and one key at two trace lengths loads, and a save
    /// of what it loaded writes it back byte for byte.
    #[test]
    fn a_file_of_every_kind_is_rewritten_byte_for_byte() {
        let full: Vec<String> = Benchmark::ALL
            .iter()
            .enumerate()
            .map(|(i, b)| format!("{}={},{}", b.name(), 60_000 + i, 1_000 * i))
            .collect();
        let body = format!(
            "ahead|d=1,2,4,8\t60000\tahead\tself=1,2,3,4,5\tgcc=60000,50000,40000,30000,20000\n\
             btb\t30000\trun\tixx=30000,0\n\
             btb\t60000\trun\t{}\n\
             misses|practical\t60000\tmisses\tidl=9,8,7,6\tperl=0,0,0,0\n\
             patterns|p=3\t60000\tpatterns\tjhm=18446744073709551615\n\
             trace\t120000\ttrace\tedg=1,2,3,4,5,6,7,8\n",
            full.join("\t")
        );
        let root = scratch_root("pinned");
        write_cache(&root, &body);
        let (rows, stats) = load_from(&root);
        let bytes = file_header().len() + 1 + body.len();
        assert_eq!(
            stats,
            Loaded {
                rows: 6,
                cells: 7 + SLOTS,
                bytes,
                dropped: 0
            }
        );
        let copy = scratch_root("pinned-copy");
        assert_eq!(save_to(&copy, &rows).expect("save"), (6, bytes));
        let path = |root: &Path| version_dir(root).join("engine.tsv");
        let original = fs::read(path(&root)).expect("read");
        assert_eq!(fs::read(path(&copy)).expect("read the copy"), original);
        // Saving over the file it was loaded from merges it with itself.
        assert_eq!(save_to(&root, &rows).expect("save in place"), (6, bytes));
        assert_eq!(fs::read(path(&root)).expect("read again"), original);
        let _ = fs::remove_dir_all(&root);
        let _ = fs::remove_dir_all(&copy);
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
            let mut rows = Rows::default();
            let mut expected = Cells::new();
            for (k, events, b, x, y) in cells {
                // Each key stores one kind, as the engine's keys do, and
                // the six keys cover all five.
                let key = format!("{}{}", keys[k % keys.len()], k);
                let kind = k % 5;
                let counts = [x, y, x ^ y, x / 3, y / 5, x.rotate_left(7), 7, 0];
                let value = one_of_each_kind(counts)[kind];
                let b = Benchmark::ALL[b];
                rows.set(&key, events * 60_000, b, &value);
                expected.insert((key, events * 60_000, b), (value, false));
            }
            prop_assert_eq!(folded(&rows), expected.clone());
            let root = scratch_root("prop");
            prop_assert_eq!(save_to(&root, &rows).expect("save").0, row_count(&rows));
            let back = loaded(&root);
            let _ = fs::remove_dir_all(&root);
            prop_assert_eq!(back, expected);
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
        let mut want = Rows::default();
        add(
            &mut want,
            "patterns|p=1",
            100,
            &[(Benchmark::Ixx, Measurement::Patterns(42))],
        );
        assert_eq!(
            loaded(&root),
            folded(&want),
            "only the row whose counts match its kind survives"
        );
        assert_eq!(load_from(&root).1.dropped, 4);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_file_from_another_generator_loads_nothing() {
        let root = scratch_root("fingerprint");
        let rows = both_sample_rows();
        save_to(&root, &rows).expect("save");
        assert_eq!(
            row_count(&load_from(&root).0),
            2,
            "the current generator round-trips"
        );
        let path = version_dir(&root).join("engine.tsv");
        let text = fs::read_to_string(&path).expect("read");
        let current = format!("{:016x}", generator_fingerprint());
        let other = format!("{:016x}", generator_fingerprint() ^ 1);
        assert!(text.lines().next().expect("header").contains(&current));
        fs::write(&path, text.replacen(&current, &other, 1)).expect("rewrite header");
        let (foreign, stats) = load_from(&root);
        assert!(
            cells_of(&foreign).is_empty(),
            "another generator's results are not served"
        );
        assert_eq!(
            (stats.rows, stats.dropped),
            (0, 0),
            "nor counted as dropped"
        );
        // The next save replaces the foreign file instead of merging it.
        let [first, _] = sample_rows();
        assert_eq!(save_to(&root, &first).expect("save over it").0, 1);
        assert_eq!(row_count(&load_from(&root).0), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn save_merges_with_existing_disk_contents() {
        let root = scratch_root("merge");
        let [first, second] = sample_rows();
        save_to(&root, &first).expect("first save");
        // A "second process" saves a disjoint row; the first must survive.
        save_to(&root, &second).expect("second save");
        let back = load_from(&root).0;
        assert_eq!(row_count(&back), 2, "merge keeps both processes' rows");
        assert_eq!(folded(&back), folded(&both_sample_rows()));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn two_saves_of_one_key_merge_cell_by_cell() {
        let root = scratch_root("merge-cells");
        let mut first = Rows::default();
        add(
            &mut first,
            "btb",
            6_000,
            &[
                (Benchmark::Ixx, run(6_000, 10)),
                (Benchmark::Gcc, run(6_000, 11)),
            ],
        );
        save_to(&root, &first).expect("first save");
        // Another process saves other benchmarks of the same key, and one
        // it shares with the first, whose value it restates.
        let mut second = Rows::default();
        add(
            &mut second,
            "btb",
            6_000,
            &[
                (Benchmark::Idl, run(6_000, 12)),
                (Benchmark::Gcc, run(6_000, 11)),
            ],
        );
        assert_eq!(
            save_to(&root, &second).expect("second save").0,
            1,
            "one key, one row"
        );
        let mut merged = Rows::default();
        add(
            &mut merged,
            "btb",
            6_000,
            &[
                (Benchmark::Idl, run(6_000, 12)),
                (Benchmark::Ixx, run(6_000, 10)),
                (Benchmark::Gcc, run(6_000, 11)),
            ],
        );
        assert_eq!(loaded(&root), folded(&merged));
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
        assert!(cells_of(&load_from(&root).0).is_empty(), "no v5 file yet");
        for dir in &stale {
            assert!(!dir.exists(), "{} evicted on first load", dir.display());
        }
        save_to(&root, &both_sample_rows()).expect("save");
        assert!(version_dir(&root).join("engine.tsv").exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn failed_write_cleans_up_the_temp_file_and_keeps_the_old_snapshot() {
        let _guard = crate::faults::test_guard();
        let root = scratch_root("write-fault");
        let [first, second] = sample_rows();
        save_to(&root, &first).expect("clean first save");
        crate::faults::override_spec(Some("cache.write@1")).unwrap();
        let err = save_to(&root, &second).expect_err("injected write fault");
        crate::faults::override_spec(None).unwrap();
        assert!(
            err.to_string().contains("injected fault: cache.write"),
            "{err}"
        );
        let dir = version_dir(&root);
        assert!(!dir.join("engine.tsv.tmp").exists(), "temp file cleaned up");
        assert_eq!(
            loaded(&root),
            folded(&first),
            "previous snapshot survives a failed save"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn failed_rename_cleans_up_the_temp_file_and_keeps_the_old_snapshot() {
        let _guard = crate::faults::test_guard();
        let root = scratch_root("rename-fault");
        let [first, _] = sample_rows();
        let rows = both_sample_rows();
        save_to(&root, &first).expect("clean first save");
        crate::faults::override_spec(Some("cache.rename@1")).unwrap();
        let err = save_to(&root, &rows).expect_err("injected rename fault");
        crate::faults::override_spec(None).unwrap();
        assert!(
            err.to_string().contains("injected fault: cache.rename"),
            "{err}"
        );
        let dir = version_dir(&root);
        assert!(!dir.join("engine.tsv.tmp").exists(), "temp file cleaned up");
        assert_eq!(row_count(&load_from(&root).0), 1, "old snapshot intact");
        // A clean retry after the fault publishes normally.
        assert_eq!(save_to(&root, &rows).expect("retry").0, 2);
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
             f\t100\trun\tixx=100,18446744073709551616\n\
             btb\t100\trun\tixx=100,7\tgcc=100,9\n",
        );
        let mut want = Rows::default();
        add(
            &mut want,
            "btb",
            100,
            &[(Benchmark::Ixx, run(100, 7)), (Benchmark::Gcc, run(100, 9))],
        );
        assert_eq!(
            loaded(&root),
            folded(&want),
            "only the well-formed row survives, and each bad one goes whole"
        );
        let (_, stats) = load_from(&root);
        assert_eq!(
            (stats.rows, stats.cells, stats.dropped),
            (1, 2, 8),
            "every bad row is counted as dropped"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn fields_out_of_order_load_through_the_name_lookup() {
        let root = scratch_root("order");
        write_cache(&root, "btb\t100\trun\tgcc=100,9\tixx=100,7\tgcc=100,8\n");
        let mut want = Rows::default();
        add(
            &mut want,
            "btb",
            100,
            &[(Benchmark::Ixx, run(100, 7)), (Benchmark::Gcc, run(100, 8))],
        );
        assert_eq!(
            loaded(&root),
            folded(&want),
            "a repeated field's last value wins"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_key_holding_a_tab_or_newline_is_never_written() {
        let root = scratch_root("tab");
        let mut rows = both_sample_rows();
        add(
            &mut rows,
            "split\there",
            6_000,
            &[(Benchmark::Ixx, run(6_000, 1))],
        );
        add(
            &mut rows,
            "split\nhere",
            6_000,
            &[(Benchmark::Ixx, run(6_000, 2))],
        );
        assert_eq!(
            save_to(&root, &rows).expect("save").0,
            2,
            "the two keys left out"
        );
        let text = fs::read_to_string(version_dir(&root).join("engine.tsv")).expect("read");
        assert_eq!(text.lines().count(), 3, "the header and the two clean rows");
        assert!(!text.contains("split"));
        assert_eq!(row_count(&load_from(&root).0), 2);
        let _ = fs::remove_dir_all(&root);
    }
}
