//! The persistent binary trace corpus cache.
//!
//! The paper's methodology captured each program's trace once (under the
//! *shade* simulator) and replayed it for every predictor sweep. This
//! module gives the synthetic pipeline the same property: the first time
//! a `(benchmark, events)` trace is needed, the generator pass is teed
//! through the IBPB binary writer (see [`ibp_trace::binary`]) into a
//! segment file under `results/.cache/traces/v<schema>/`; every later
//! use — materialised or streamed, any process — bulk-decodes the
//! segment instead of re-running the RNG + zipf hierarchy walk. Streamed
//! passes are independent cursors over the same file.
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
//! meaning under the [`ibp_trace::EventSource`] contract. Segments are verified
//! (length, counts, checksum, per-record structure) once per process
//! before first use; corrupt files are evicted with a warning and
//! regenerated — never a panic, never a silently wrong replay. If the
//! cache directory is unusable the caller falls back to direct
//! generation.
//!
//! `IBP_TRACE_CACHE=0` disables the cache (warn-and-default parsing like
//! the other knobs). When enabled, it engages for suites of
//! [`MIN_CACHE_EVENTS`] events or more — below that, generation is
//! cheaper than the I/O bookkeeping, and the repo's many tiny test
//! suites must not write cache files into working directories.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use ibp_obs as obs;
use ibp_trace::binary::{verify_binary, write_binary_source, BinarySource};
use ibp_trace::{collect_source, Trace};
use ibp_workload::Benchmark;

/// Bump when the segment layout or naming changes; older version
/// directories are deleted on first use.
const TRACE_SCHEMA_VERSION: u32 = 1;

/// Smallest per-benchmark event count the cache engages for by default.
/// [`override_policy`] bypasses the threshold in both directions.
pub const MIN_CACHE_EVENTS: u64 = 50_000;

/// `IBP_TRACE_CACHE` parsed once with warn-and-default: unset or invalid
/// mean enabled; only `0` disables.
fn env_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| match std::env::var("IBP_TRACE_CACHE") {
        Ok(raw) => match raw.as_str() {
            "0" => false,
            "1" => true,
            _ => {
                eprintln!(
                    "warning: ignoring invalid IBP_TRACE_CACHE={raw:?} \
                     (expected 0 or 1); trace cache stays enabled"
                );
                true
            }
        },
        Err(_) => true,
    })
}

fn policy_override() -> &'static Mutex<Option<bool>> {
    static OVERRIDE: Mutex<Option<bool>> = Mutex::new(None);
    &OVERRIDE
}

fn root_override() -> &'static Mutex<Option<PathBuf>> {
    static ROOT: Mutex<Option<PathBuf>> = Mutex::new(None);
    &ROOT
}

/// In-process override of the `IBP_TRACE_CACHE` policy: `Some(true)`
/// forces the cache on regardless of the environment and the
/// [`MIN_CACHE_EVENTS`] threshold, `Some(false)` forces it off, `None`
/// restores the environment policy. Process-global — harness binaries
/// and equivalence tests use it to pin the policy per pass.
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
        None => env_enabled() && events >= MIN_CACHE_EVENTS,
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
/// request served from a verified segment file; a *miss* generated (and
/// published) the segment first. Byte counters cover segment I/O in both
/// directions, verification reads included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCacheStats {
    /// Requests served from an existing verified segment.
    pub hits: u64,
    /// Requests that had to generate and publish the segment.
    pub misses: u64,
    /// Bytes read from segment files (verification + replay).
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
    PathBuf::from(std::env::var("IBP_RESULTS").unwrap_or_else(|_| "results".into()))
        .join(".cache")
        .join("traces")
}

fn version_dir(root: &Path) -> PathBuf {
    root.join(format!("v{TRACE_SCHEMA_VERSION}"))
}

/// Deletes `v*` sibling directories of other schema versions, mirroring
/// the result cache's eviction rule.
fn evict_stale(root: &Path) {
    let Ok(entries) = fs::read_dir(root) else {
        return;
    };
    let keep = format!("v{TRACE_SCHEMA_VERSION}");
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('v') && name != keep && fs::remove_dir_all(entry.path()).is_ok() {
            eprintln!("note: evicted stale trace cache {}", entry.path().display());
        }
    }
}

fn segment_file_name(benchmark: Benchmark, events: u64) -> String {
    let fingerprint = benchmark.config().fingerprint();
    format!("{}-{events}-{fingerprint:016x}.ibpb", benchmark.name())
}

/// Serialises generate/verify work per segment path: concurrent requests
/// for the same trace block until the first one has published (instead of
/// racing duplicate generator passes).
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

/// Segment files already verified (or written) by this process; replays
/// of these skip the per-process verification pass.
fn verified() -> &'static Mutex<HashSet<PathBuf>> {
    static VERIFIED: OnceLock<Mutex<HashSet<PathBuf>>> = OnceLock::new();
    VERIFIED.get_or_init(|| Mutex::new(HashSet::new()))
}

/// Full checksum + structure verification of one segment file; returns
/// the file length on success.
fn verify_file(path: &Path) -> Result<u64, String> {
    if let Some(e) = crate::faults::io_error("trace_cache.read") {
        return Err(e.to_string());
    }
    let file = fs::File::open(path).map_err(|e| e.to_string())?;
    let len = file.metadata().map_err(|e| e.to_string())?.len();
    verify_binary(file).map_err(|e| e.to_string())?;
    Ok(len)
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

/// Ensures a verified segment for `(benchmark, events)` exists under
/// `root`, generating it on a miss. Returns the segment, `None` when the
/// cache directory is unusable (the caller falls back to direct
/// generation), together with the counts this request added to the
/// process-wide counters: a tally no other request can move.
fn ensure_segment_at(
    root: &Path,
    benchmark: Benchmark,
    events: u64,
) -> (Option<PathBuf>, TraceCacheStats) {
    let mut tally = TraceCacheStats::default();
    let path = find_or_publish(root, benchmark, events, &mut tally);
    let c = counters();
    c.hits.add(tally.hits);
    c.misses.add(tally.misses);
    c.bytes_read.add(tally.bytes_read);
    c.bytes_written.add(tally.bytes_written);
    (path, tally)
}

/// [`ensure_segment_at`]'s work, counting into `tally`.
fn find_or_publish(
    root: &Path,
    benchmark: Benchmark,
    events: u64,
    tally: &mut TraceCacheStats,
) -> Option<PathBuf> {
    let dir = version_dir(root);
    let path = dir.join(segment_file_name(benchmark, events));
    let lock = key_lock(&path);
    let _guard = lock.lock().unwrap_or_else(PoisonError::into_inner);

    if verified()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .contains(&path)
    {
        tally.hits += 1;
        return Some(path);
    }
    evict_stale(root);
    if path.exists() {
        match verify_file(&path) {
            Ok(len) => {
                tally.hits += 1;
                tally.bytes_read += len;
                verified()
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(path.clone());
                return Some(path);
            }
            Err(e) => {
                obs::warn!(
                    "trace cache: evicting corrupt segment {}: {e}",
                    path.display()
                );
                obs::event!("degraded", site = "trace_cache.read", detail = e.as_str());
                let _ = fs::remove_file(&path);
            }
        }
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
        obs::event!("degraded", site = "trace_cache.rename", detail = detail.as_str());
        let _ = fs::remove_file(&tmp);
        return None;
    }
    span.note("bytes", bytes);
    remove_stale_fingerprints(&dir, benchmark, events, &path);
    tally.bytes_written += bytes;
    // We wrote and fsynced it ourselves; no verification pass needed.
    verified()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(path.clone());
    Some(path)
}

fn open_segment(path: &Path) -> Result<BinarySource<fs::File>, String> {
    let file = fs::File::open(path).map_err(|e| e.to_string())?;
    let len = file.metadata().map_err(|e| e.to_string())?.len();
    let source = BinarySource::new(file).map_err(|e| e.to_string())?;
    counters().bytes_read.add(len);
    Ok(source)
}

/// A fresh replay cursor over the cached segment for
/// `(benchmark, events)` — an independent [`ibp_trace::EventSource`], event- and
/// counter-identical to a generator pass. `None` when the cache is
/// disabled, not engaged at this event count, or unusable; callers fall
/// back to direct generation.
#[must_use]
pub fn source_for(benchmark: Benchmark, events: u64) -> Option<BinarySource<fs::File>> {
    if !engaged(events) {
        return None;
    }
    let path = ensure_segment_at(&traces_root(), benchmark, events).0?;
    match open_segment(&path) {
        Ok(source) => Some(source),
        Err(e) => {
            obs::warn!("trace cache: cannot replay {}: {e}", path.display());
            None
        }
    }
}

/// The materialised trace for `(benchmark, events)`, decoded from the
/// cached segment. Same `None` semantics as [`source_for`].
#[must_use]
pub fn trace_for(benchmark: Benchmark, events: u64) -> Option<Trace> {
    let mut source = source_for(benchmark, events)?;
    match collect_source(&mut source) {
        Ok(trace) => Some(trace),
        Err(e) => {
            obs::warn!("trace cache: replay of {benchmark} failed, regenerating: {e}");
            None
        }
    }
}

/// Deletes the entire trace cache directory (and this process's
/// verified-segment memory). Harness binaries use it to force a cold
/// first pass.
pub fn purge() {
    let root = traces_root();
    let _ = fs::remove_dir_all(&root);
    verified()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}

/// Forgets every segment this process has verified (or written), forcing
/// the next request for each to re-verify the file on disk — what a fresh
/// process would do. Fault harnesses use it to re-exercise the
/// verification path without spawning a process.
pub fn forget_verified() {
    verified()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
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

    /// Forgets per-process verification state for `path`, simulating a
    /// fresh process that must re-verify the file on disk.
    fn forget(path: &Path) {
        verified()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(path);
    }

    const EVENTS: u64 = 2_000;

    #[test]
    fn miss_generates_then_hit_replays_identically() {
        let root = scratch_root("roundtrip");
        let (path, miss) = ensure_segment_at(&root, Benchmark::Ixx, EVENTS);
        let path = path.expect("segment");
        assert!(path.exists());
        assert_eq!(miss.misses, 1);
        assert!(miss.bytes_written > 0);

        let (again, hit) = ensure_segment_at(&root, Benchmark::Ixx, EVENTS);
        assert_eq!(again.expect("segment"), path);
        assert_eq!(miss.hits + hit.hits, 1);

        let mut source = open_segment(&path).expect("open");
        let replay = collect_source(&mut source).expect("replay");
        let direct = Benchmark::Ixx.trace_with_len(EVENTS);
        assert_eq!(replay.name(), direct.name());
        assert_eq!(replay.events(), direct.events());
        assert_eq!(replay.instructions(), direct.instructions());
        assert_eq!(replay.cond_count(), direct.cond_count());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_segment_is_evicted_and_regenerated() {
        let root = scratch_root("corrupt");
        let path = ensure_segment_at(&root, Benchmark::Gcc, EVENTS).0.expect("segment");
        // Garble one payload byte, then pretend we are a new process.
        let mut bytes = fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).expect("garble");
        forget(&path);

        let (regenerated, tally) = ensure_segment_at(&root, Benchmark::Gcc, EVENTS);
        assert_eq!(regenerated.expect("segment"), path);
        assert_eq!(tally.misses, 1, "verify failed -> regenerate");
        let mut source = open_segment(&path).expect("open");
        let replay = collect_source(&mut source).expect("replay after regeneration");
        assert_eq!(replay.events(), Benchmark::Gcc.trace_with_len(EVENTS).events());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn truncated_segment_is_evicted_and_regenerated() {
        let root = scratch_root("truncated");
        let path = ensure_segment_at(&root, Benchmark::Perl, EVENTS).0.expect("segment");
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        forget(&path);

        let (regenerated, tally) = ensure_segment_at(&root, Benchmark::Perl, EVENTS);
        regenerated.expect("segment");
        assert_eq!(tally.misses, 1);
        verify_file(&path).expect("regenerated segment verifies");
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
        let stale_fp = dir.join(format!("{}-{EVENTS}-{:016x}.ibpb", Benchmark::Ixx.name(), 0));
        fs::write(&stale_fp, b"old fingerprint").expect("stale fp");

        ensure_segment_at(&root, Benchmark::Ixx, EVENTS).0.expect("segment");
        assert!(!stale_dir.exists(), "v0 evicted");
        assert!(!stale_fp.exists(), "old fingerprint evicted");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn streamed_cursors_are_independent() {
        let root = scratch_root("cursors");
        let path = ensure_segment_at(&root, Benchmark::Ixx, EVENTS).0.expect("segment");
        let mut a = open_segment(&path).expect("open a");
        let mut b = open_segment(&path).expect("open b");
        let ta = collect_source(&mut a).expect("a");
        let tb = collect_source(&mut b).expect("b");
        assert_eq!(ta.events(), tb.events());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_read_fault_evicts_and_regenerates() {
        let _faults = crate::faults::test_guard();
        let root = scratch_root("read-fault");
        let path = ensure_segment_at(&root, Benchmark::Ixx, EVENTS).0.expect("segment");
        forget(&path);
        crate::faults::override_spec(Some("trace_cache.read@1")).unwrap();
        let (again, tally) = ensure_segment_at(&root, Benchmark::Ixx, EVENTS);
        crate::faults::override_spec(None).unwrap();
        assert_eq!(again.expect("segment"), path);
        assert_eq!(tally.misses, 1, "read fault -> evict + regenerate");
        verify_file(&path).expect("regenerated segment verifies");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_write_fault_cleans_up_and_falls_back() {
        let _faults = crate::faults::test_guard();
        let root = scratch_root("write-fault");
        crate::faults::override_spec(Some("trace_cache.write@1")).unwrap();
        assert!(
            ensure_segment_at(&root, Benchmark::Ixx, EVENTS).0.is_none(),
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
        ensure_segment_at(&root, Benchmark::Ixx, EVENTS)
            .0
            .expect("clean retry publishes");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn injected_rename_fault_cleans_up_and_falls_back() {
        let _faults = crate::faults::test_guard();
        let root = scratch_root("rename-fault");
        crate::faults::override_spec(Some("trace_cache.rename@1")).unwrap();
        assert!(ensure_segment_at(&root, Benchmark::Ixx, EVENTS).0.is_none());
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
        ensure_segment_at(&root, Benchmark::Ixx, EVENTS)
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
