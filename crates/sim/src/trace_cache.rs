//! The persistent binary trace corpus cache.
//!
//! The paper's methodology captured each program's trace once (under the
//! *shade* simulator) and replayed it for every predictor sweep. This
//! module gives the synthetic pipeline the same property: the first time
//! a `(benchmark, events)` trace is needed, the generator pass is teed
//! through the IBPB binary writer (see [`ibp_trace::binary`]) into a
//! segment file under `results/.cache/traces/v<schema>/`; every later
//! pass, in any process, bulk-decodes the segment instead of re-running
//! the RNG + zipf hierarchy walk. Passes are independent cursors over the
//! same file. [`crate::Suite`] construction publishes the segments it is
//! missing, and each consumer pass opens one through [`source_for`].
//!
//! # Keying and eviction
//!
//! A segment is named `<benchmark>-<events>-<fingerprint>.ibpb`, where
//! the fingerprint is [`ibp_workload::ProgramConfig::fingerprint`] —
//! a stable hash of `GENERATOR_VERSION` plus every generator parameter.
//! Any calibration or model change moves the fingerprint, so stale
//! segments can never be replayed; same-key segments with old
//! fingerprints are deleted when the new one is published. The schema
//! version directory mirrors the result cache (`crate::cache`): stale
//! `v*` siblings are evicted wholesale, and segments are published by
//! atomic temp-file + rename so concurrent processes never observe a
//! half-written file.
//!
//! # Correctness
//!
//! Replay is byte-identical by construction: the writer drains the very
//! generator source the consumer would have used, the IBPB codec
//! round-trips events and counters exactly, and chunk boundaries carry no
//! meaning under the [`ibp_trace::EventSource`] contract. Opening a
//! segment parses its header and checks the file's length against it, so
//! a torn or truncated file is evicted with a warning and regenerated
//! before any pass reads it. Each [`Replay`] then checks the rest as it
//! streams: every record's tag and address alignment as it decodes, and
//! the record and indirect counts, trailing bytes and payload checksum
//! when it drains. A replay that fails evicts its segment and journals a
//! `degraded` record, and [`crate::Suite::pass`] drops what the pass
//! computed and folds it again on the generator: a corrupt file costs
//! time, never a panic and never a silently wrong table. If the cache
//! directory is unusable the caller falls back to direct generation.
//!
//! The cache engages for suites of [`MIN_CACHE_EVENTS`] events or more —
//! below that, generation is cheaper than the I/O bookkeeping, and the
//! repo's many tiny test suites must not write cache files into working
//! directories. [`override_policy`] pins it on or off for tests and
//! harnesses; no knob does.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use ibp_obs as obs;
use ibp_trace::binary::{write_binary_source, BinarySource};
use ibp_trace::io::TraceIoError;
use ibp_trace::{chunk_events, EventSource, TraceChunk};
use ibp_workload::Benchmark;

use crate::parallel::parallel_map;

/// Bump when the segment layout or naming changes; older version
/// directories are deleted on first use.
const TRACE_SCHEMA_VERSION: u32 = 1;

/// Smallest per-benchmark event count the cache engages for by default.
/// [`override_policy`] bypasses the threshold in both directions.
pub const MIN_CACHE_EVENTS: u64 = 50_000;

fn policy_override() -> &'static Mutex<Option<bool>> {
    static OVERRIDE: Mutex<Option<bool>> = Mutex::new(None);
    &OVERRIDE
}

fn root_override() -> &'static Mutex<Option<PathBuf>> {
    static ROOT: Mutex<Option<PathBuf>> = Mutex::new(None);
    &ROOT
}

/// In-process override of the cache's engagement: `Some(true)` forces the
/// cache on regardless of the [`MIN_CACHE_EVENTS`] threshold, `Some(false)`
/// forces it off, `None` restores the threshold. Process-global — harness
/// binaries and equivalence tests use it to pin the policy per pass.
pub fn override_policy(policy: Option<bool>) {
    *policy_override()
        .lock()
        .unwrap_or_else(PoisonError::into_inner) = policy;
}

/// In-process override of the cache root directory (normally
/// `$IBP_RESULTS/.cache/traces`). Tests point this at scratch space so
/// cache traffic never lands in a working tree.
pub fn override_root(root: Option<PathBuf>) {
    *root_override()
        .lock()
        .unwrap_or_else(PoisonError::into_inner) = root;
}

/// Whether the cache would engage for an `events`-long trace.
#[must_use]
pub fn engaged(events: u64) -> bool {
    match *policy_override()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
    {
        Some(policy) => policy,
        None => events >= MIN_CACHE_EVENTS,
    }
}

struct Counters {
    hits: Arc<obs::metrics::Counter>,
    misses: Arc<obs::metrics::Counter>,
    bytes_read: Arc<obs::metrics::Counter>,
    bytes_written: Arc<obs::metrics::Counter>,
}

fn counters() -> &'static Counters {
    static COUNTERS: OnceLock<Counters> = OnceLock::new();
    COUNTERS.get_or_init(|| Counters {
        hits: obs::metrics::counter("trace_cache.hits"),
        misses: obs::metrics::counter("trace_cache.misses"),
        bytes_read: obs::metrics::counter("trace_cache.bytes_read"),
        bytes_written: obs::metrics::counter("trace_cache.bytes_written"),
    })
}

/// Snapshot of the process-wide trace-cache counters. A *hit* is a trace
/// request served from a segment on disk; a *miss* generated (and
/// published) the segment first. `bytes_read` counts what replays read,
/// as they fill; `bytes_written` what publishing wrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCacheStats {
    /// Requests served from a segment already on disk.
    pub hits: u64,
    /// Requests that had to generate and publish the segment.
    pub misses: u64,
    /// Bytes replays read from segment files.
    pub bytes_read: u64,
    /// Bytes written publishing new segments.
    pub bytes_written: u64,
}

impl TraceCacheStats {
    /// The counter deltas since an earlier snapshot.
    #[must_use]
    pub fn since(self, earlier: TraceCacheStats) -> TraceCacheStats {
        TraceCacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
        }
    }

    /// Hits as a percentage of all requests (0 when there were none).
    #[must_use]
    pub fn hit_rate_pct(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups > 0 {
            100.0 * self.hits as f64 / lookups as f64
        } else {
            0.0
        }
    }
}

/// The current process-wide counter values.
#[must_use]
pub fn stats() -> TraceCacheStats {
    let c = counters();
    TraceCacheStats {
        hits: c.hits.get(),
        misses: c.misses.get(),
        bytes_read: c.bytes_read.get(),
        bytes_written: c.bytes_written.get(),
    }
}

fn traces_root() -> PathBuf {
    if let Some(root) = root_override()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
    {
        return root;
    }
    obs::results_root().join(".cache").join("traces")
}

fn version_dir(root: &Path) -> PathBuf {
    crate::cache::schema_dir(root, TRACE_SCHEMA_VERSION)
}

fn segment_file_name(benchmark: Benchmark, events: u64) -> String {
    let fingerprint = benchmark.config().fingerprint();
    format!("{}-{events}-{fingerprint:016x}.ibpb", benchmark.name())
}

/// Serialises open and generate work per segment path: concurrent
/// requests for the same trace block until the first one has published
/// (instead of racing duplicate generator passes).
fn key_lock(path: &Path) -> Arc<Mutex<()>> {
    static LOCKS: OnceLock<Mutex<HashMap<PathBuf, Arc<Mutex<()>>>>> = OnceLock::new();
    LOCKS
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .entry(path.to_owned())
        .or_default()
        .clone()
}

/// Evicts the stale schema directories under `root` the first time this
/// process opens a segment there.
fn evict_stale_once(root: &Path) {
    static SWEPT: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());
    let mut swept = SWEPT.lock().unwrap_or_else(PoisonError::into_inner);
    if !swept.iter().any(|r| r == root) {
        crate::cache::evict_stale(root, TRACE_SCHEMA_VERSION, "trace cache");
        swept.push(root.to_owned());
    }
}

/// Deletes a segment that failed a check, with a warning and one
/// `degraded` journal record at `trace_cache.read`.
fn evict(path: &Path, detail: &str) {
    obs::warn!(
        "trace cache: evicting corrupt segment {}: {detail}",
        path.display()
    );
    obs::event!("degraded", site = "trace_cache.read", detail = detail);
    let _ = fs::remove_file(path);
}

/// A segment file that counts the bytes read from it.
struct Counted {
    file: fs::File,
    bytes: u64,
}

impl Read for Counted {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.file.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

/// One pass's replay of a corpus segment: an [`EventSource`] event- and
/// counter-identical to a generator pass over the same trace.
///
/// It checks the segment as it streams (see the module docs). When a fill
/// fails, or its first fill meets an injected `trace_cache.read` fault, it
/// evicts the segment and journals one `degraded` record before it returns
/// the error. Each fill adds what the replay has read so far to
/// `trace_cache.bytes_read`, the header included, so a drained replay adds
/// its file's length and one dropped unread adds nothing.
pub struct Replay {
    path: PathBuf,
    source: BinarySource<Counted>,
    /// Bytes of the file already added to the counter.
    counted: u64,
}

impl Replay {
    /// Opens the segment at `path`: `Ok(None)` when there is none, and an
    /// error when its header does not parse or the file's length is not
    /// the one the header gives.
    fn open(path: &Path) -> Result<Option<Replay>, String> {
        let file = match fs::File::open(path) {
            Ok(file) => file,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.to_string()),
        };
        let len = file.metadata().map_err(|e| e.to_string())?.len();
        let source = BinarySource::new(Counted { file, bytes: 0 }).map_err(|e| e.to_string())?;
        if len != source.encoded_len() {
            return Err(format!(
                "{len} bytes on disk where the header gives {}",
                source.encoded_len()
            ));
        }
        Ok(Some(Replay {
            path: path.to_owned(),
            source,
            counted: 0,
        }))
    }

    /// Reads what a pass left of the segment, so that its end-of-stream
    /// checks have run when this returns `Ok`; over a drained replay it
    /// reads nothing.
    ///
    /// # Errors
    ///
    /// The replay's failure, as [`EventSource::fill`] returns it.
    pub(crate) fn drain(&mut self) -> Result<(), TraceIoError> {
        let mut chunk = TraceChunk::default();
        while self.fill(&mut chunk, chunk_events())? {}
        Ok(())
    }
}

impl EventSource for Replay {
    fn name(&self) -> &str {
        self.source.name()
    }

    fn fill(&mut self, chunk: &mut TraceChunk, max_indirect: u64) -> Result<bool, TraceIoError> {
        // The fault site stands for a segment that reads corrupt, so each
        // replay crosses it once: at its first fill, before it has counted
        // any byte.
        let fault = if self.counted == 0 {
            crate::faults::io_error("trace_cache.read")
        } else {
            None
        };
        let filled = match fault {
            Some(e) => Err(TraceIoError::Io(e)),
            None => self.source.fill(chunk, max_indirect),
        };
        let read = self.source.get_ref().bytes;
        counters().bytes_read.add(read - self.counted);
        self.counted = read;
        filled.inspect_err(|e| evict(&self.path, &e.to_string()))
    }

    fn remaining_indirect(&self) -> Option<u64> {
        self.source.remaining_indirect()
    }
}

/// Generates the benchmark trace into `tmp`, fsyncing before returning
/// the byte count.
fn write_segment(benchmark: Benchmark, events: u64, tmp: &Path) -> Result<u64, String> {
    let mut file = fs::File::create(tmp).map_err(|e| e.to_string())?;
    if let Some(e) = crate::faults::io_error("trace_cache.write") {
        return Err(e.to_string());
    }
    let mut source = benchmark.source(events);
    let bytes = write_binary_source(&mut source, &mut file).map_err(|e| e.to_string())?;
    file.sync_all().map_err(|e| e.to_string())?;
    Ok(bytes)
}

/// Removes same-`(benchmark, events)` segments whose fingerprint differs
/// from the freshly published `keep` — their generator parameters are
/// stale and they can never be requested again.
fn remove_stale_fingerprints(dir: &Path, benchmark: Benchmark, events: u64, keep: &Path) {
    let prefix = format!("{}-{events}-", benchmark.name());
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with(&prefix)
            && name.ends_with(".ibpb")
            && entry.path() != keep
            && fs::remove_file(entry.path()).is_ok()
        {
            eprintln!(
                "note: evicted stale-fingerprint trace segment {}",
                entry.path().display()
            );
        }
    }
}

/// Opens the segment for `(benchmark, events)` under `root` for replay,
/// generating and publishing it first when it is missing or fails its
/// open checks. Returns the replay, `None` when the cache directory is
/// unusable (the caller falls back to direct generation), together with
/// the counts this request added to the process-wide counters: a tally no
/// other request can move. A replay's reads are counted as it fills.
fn replay_at(root: &Path, benchmark: Benchmark, events: u64) -> (Option<Replay>, TraceCacheStats) {
    let mut tally = TraceCacheStats::default();
    let replay = find_or_publish(root, benchmark, events, &mut tally);
    let c = counters();
    c.hits.add(tally.hits);
    c.misses.add(tally.misses);
    c.bytes_written.add(tally.bytes_written);
    (replay, tally)
}

/// [`replay_at`]'s work, counting into `tally`.
fn find_or_publish(
    root: &Path,
    benchmark: Benchmark,
    events: u64,
    tally: &mut TraceCacheStats,
) -> Option<Replay> {
    let dir = version_dir(root);
    let path = dir.join(segment_file_name(benchmark, events));
    let lock = key_lock(&path);
    let _guard = lock.lock().unwrap_or_else(PoisonError::into_inner);

    evict_stale_once(root);
    match Replay::open(&path) {
        Ok(Some(replay)) => {
            tally.hits += 1;
            return Some(replay);
        }
        Ok(None) => {}
        Err(e) => evict(&path, &e),
    }

    // Miss: run the generator once, teed through the binary writer, and
    // publish atomically so concurrent readers never see a partial file.
    tally.misses += 1;
    if let Err(e) = fs::create_dir_all(&dir) {
        obs::warn!("trace cache: cannot create {}: {e}", dir.display());
        return None;
    }
    let tmp = dir.join(format!(
        "{}.tmp.{}",
        segment_file_name(benchmark, events),
        std::process::id()
    ));
    let mut span = obs::span!(
        "trace_segment_write",
        benchmark = benchmark.name(),
        events = events
    );
    let bytes = match write_segment(benchmark, events, &tmp) {
        Ok(bytes) => bytes,
        Err(e) => {
            obs::warn!("trace cache: cannot write {}: {e}", tmp.display());
            obs::event!("degraded", site = "trace_cache.write", detail = e.as_str());
            let _ = fs::remove_file(&tmp);
            return None;
        }
    };
    let published = match crate::faults::io_error("trace_cache.rename") {
        Some(e) => Err(e),
        None => fs::rename(&tmp, &path),
    };
    if let Err(e) = published {
        obs::warn!("trace cache: cannot publish {}: {e}", path.display());
        let detail = e.to_string();
        obs::event!(
            "degraded",
            site = "trace_cache.rename",
            detail = detail.as_str()
        );
        let _ = fs::remove_file(&tmp);
        return None;
    }
    span.note("bytes", bytes);
    remove_stale_fingerprints(&dir, benchmark, events, &path);
    tally.bytes_written += bytes;
    Replay::open(&path).unwrap_or_else(|e| {
        obs::warn!("trace cache: cannot replay {}: {e}", path.display());
        None
    })
}

/// Publishes the segments of `benchmarks` at `events` that are not on disk
/// yet, generating them on the [`parallel_map`] queue; does nothing when
/// the cache is not engaged at this length. A segment already on disk is
/// not opened here: that waits for the first [`source_for`] of a pass. So
/// over a full corpus this moves no counter and starts no worker, and
/// over an empty one it counts one miss per segment and reads nothing.
pub(crate) fn publish_missing(benchmarks: &[Benchmark], events: u64) {
    if !engaged(events) {
        return;
    }
    let root = traces_root();
    let dir = version_dir(&root);
    let missing: Vec<Benchmark> = benchmarks
        .iter()
        .copied()
        .filter(|&b| !dir.join(segment_file_name(b, events)).exists())
        .collect();
    parallel_map(&missing, |&b| {
        replay_at(&root, b, events);
    });
}

/// A fresh replay of the cached segment for `(benchmark, events)`: an
/// independent cursor over the file, whose checks finish when it drains.
/// `None` when the cache is not engaged at this event count or is
/// unusable; callers fall back to direct generation.
#[must_use]
pub fn source_for(benchmark: Benchmark, events: u64) -> Option<Replay> {
    if !engaged(events) {
        return None;
    }
    replay_at(&traces_root(), benchmark, events).0
}

/// Deletes the entire trace cache directory. Harness binaries use it to
/// force a cold first pass.
pub fn purge() {
    let _ = fs::remove_dir_all(traces_root());
}

/// Serialises tests that flip the process-global policy/root overrides
/// (they would otherwise race with tests that rely on the defaults).
#[cfg(test)]
pub(crate) fn override_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_trace::collect_source;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch_root(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ibp-trace-cache-test-{}-{tag}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    const EVENTS: u64 = 2_000;

    fn segment(root: &Path, benchmark: Benchmark) -> PathBuf {
        version_dir(root).join(segment_file_name(benchmark, EVENTS))
    }

    /// Drains a replay and checks it against the generator.
    fn assert_replays_the_generator(replay: Option<Replay>, benchmark: Benchmark) {
        let mut replay = replay.expect("segment");
        let replayed = collect_source(&mut replay).expect("clean replay");
        let direct = benchmark.trace_with_len(EVENTS);
        assert_eq!(replayed.name(), direct.name());
        assert_eq!(replayed.events(), direct.events());
        assert_eq!(replayed.instructions(), direct.instructions());
        assert_eq!(replayed.cond_count(), direct.cond_count());
    }

    #[test]
    fn miss_generates_then_hit_replays_identically() {
        let root = scratch_root("roundtrip");
        let (replay, miss) = replay_at(&root, Benchmark::Ixx, EVENTS);
        assert!(segment(&root, Benchmark::Ixx).exists());
        assert_eq!((miss.hits, miss.misses), (0, 1));
        assert!(miss.bytes_written > 0);
        drop(replay);

        let (again, hit) = replay_at(&root, Benchmark::Ixx, EVENTS);
        assert_eq!((hit.hits, hit.misses, hit.bytes_written), (1, 0, 0));
        assert_replays_the_generator(again, Benchmark::Ixx);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_segment_is_evicted_and_regenerated() {
        let root = scratch_root("corrupt");
        drop(replay_at(&root, Benchmark::Gcc, EVENTS));
        let path = segment(&root, Benchmark::Gcc);
        // Garble the last payload byte: the open checks pass, and only the
        // drain's checksum sees it.
        let mut bytes = fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).expect("garble");

        let (replay, tally) = replay_at(&root, Benchmark::Gcc, EVENTS);
        assert_eq!(tally.hits, 1, "the open checks pass");
        let err = collect_source(&mut replay.expect("segment")).expect_err("checksum");
        assert!(matches!(err, TraceIoError::Corrupt { .. }), "{err}");
        assert!(!path.exists(), "the failed replay evicts its segment");

        let (regenerated, tally) = replay_at(&root, Benchmark::Gcc, EVENTS);
        assert_eq!(tally.misses, 1, "evicted -> regenerate");
        assert_replays_the_generator(regenerated, Benchmark::Gcc);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn truncated_segment_is_evicted_and_regenerated() {
        let root = scratch_root("truncated");
        drop(replay_at(&root, Benchmark::Perl, EVENTS));
        let path = segment(&root, Benchmark::Perl);
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");

        // The length check at open catches it before any pass reads it.
        let (regenerated, tally) = replay_at(&root, Benchmark::Perl, EVENTS);
        assert_eq!((tally.hits, tally.misses), (0, 1));
        assert_eq!(
            fs::metadata(&path).expect("published").len(),
            bytes.len() as u64
        );
        assert_replays_the_generator(regenerated, Benchmark::Perl);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn stale_schema_and_fingerprint_segments_are_evicted() {
        let root = scratch_root("evict");
        let stale_dir = root.join("v0");
        fs::create_dir_all(&stale_dir).expect("mk stale");
        fs::write(stale_dir.join("junk.ibpb"), b"junk").expect("stale file");
        let dir = version_dir(&root);
        fs::create_dir_all(&dir).expect("mkdir");
        let stale_fp = dir.join(format!(
            "{}-{EVENTS}-{:016x}.ibpb",
            Benchmark::Ixx.name(),
            0
        ));
        fs::write(&stale_fp, b"old fingerprint").expect("stale fp");

        replay_at(&root, Benchmark::Ixx, EVENTS).0.expect("segment");
        assert!(!stale_dir.exists(), "v0 evicted");
        assert!(!stale_fp.exists(), "old fingerprint evicted");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn streamed_cursors_are_independent() {
        let root = scratch_root("cursors");
        let (mut a, _) = replay_at(&root, Benchmark::Ixx, EVENTS);
        let (mut b, _) = replay_at(&root, Benchmark::Ixx, EVENTS);
        let ta = collect_source(a.as_mut().expect("a")).expect("a");
        let tb = collect_source(b.as_mut().expect("b")).expect("b");
        assert_eq!(ta.events(), tb.events());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_read_fault_evicts_and_regenerates() {
        let _faults = crate::faults::test_guard();
        let root = scratch_root("read-fault");
        drop(replay_at(&root, Benchmark::Ixx, EVENTS));
        let path = segment(&root, Benchmark::Ixx);
        crate::faults::override_spec(Some("trace_cache.read@2")).unwrap();
        // A replay crosses the site once, at its first fill: the first
        // drains clean in many fills, and the second fails at its first.
        let mut clean = replay_at(&root, Benchmark::Ixx, EVENTS).0.expect("segment");
        let mut chunk = TraceChunk::default();
        while clean.fill(&mut chunk, 64).expect("clean fill") {}
        let (replay, tally) = replay_at(&root, Benchmark::Ixx, EVENTS);
        assert_eq!(tally.hits, 1, "the fault fires at a fill, not at open");
        let failed = replay.expect("segment").drain();
        let (seen, fired) = (
            crate::faults::seen("trace_cache.read"),
            crate::faults::fired("trace_cache.read"),
        );
        crate::faults::override_spec(None).unwrap();
        assert_eq!((seen, fired), (2, 1));
        assert!(matches!(failed, Err(TraceIoError::Io(_))), "{failed:?}");
        assert!(!path.exists(), "the failed replay evicts its segment");

        let (regenerated, tally) = replay_at(&root, Benchmark::Ixx, EVENTS);
        assert_eq!(tally.misses, 1, "read fault -> evict + regenerate");
        assert_replays_the_generator(regenerated, Benchmark::Ixx);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_write_fault_cleans_up_and_falls_back() {
        let _faults = crate::faults::test_guard();
        let root = scratch_root("write-fault");
        crate::faults::override_spec(Some("trace_cache.write@1")).unwrap();
        assert!(
            replay_at(&root, Benchmark::Ixx, EVENTS).0.is_none(),
            "write fault -> caller falls back to direct generation"
        );
        crate::faults::override_spec(None).unwrap();
        if let Ok(entries) = fs::read_dir(version_dir(&root)) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                assert!(
                    !name.to_string_lossy().contains(".tmp."),
                    "temp file left behind: {name:?}"
                );
            }
        }
        replay_at(&root, Benchmark::Ixx, EVENTS)
            .0
            .expect("clean retry publishes");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_rename_fault_cleans_up_and_falls_back() {
        let _faults = crate::faults::test_guard();
        let root = scratch_root("rename-fault");
        crate::faults::override_spec(Some("trace_cache.rename@1")).unwrap();
        assert!(replay_at(&root, Benchmark::Ixx, EVENTS).0.is_none());
        crate::faults::override_spec(None).unwrap();
        if let Ok(entries) = fs::read_dir(version_dir(&root)) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                assert!(
                    !name.to_string_lossy().contains(".tmp."),
                    "temp file left behind: {name:?}"
                );
            }
        }
        replay_at(&root, Benchmark::Ixx, EVENTS)
            .0
            .expect("clean retry publishes");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn engagement_honours_threshold_and_override() {
        let _guard = override_guard();
        // No override: tiny suites stay out of the cache.
        assert!(!engaged(MIN_CACHE_EVENTS - 1));
        override_policy(Some(true));
        assert!(engaged(1));
        override_policy(Some(false));
        assert!(!engaged(u64::MAX));
        override_policy(None);
    }
}
