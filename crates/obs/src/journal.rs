//! The JSONL run journal: a global sink for spans, events and logs.
//!
//! The sink is configured once per process from `IBP_TRACE`:
//!
//! * unset, empty or `0` — tracing disabled (every emit is a cheap
//!   atomic-load no-op);
//! * `1` — journal to `<results root>/journal/<run-id>.jsonl`, where the
//!   results root is [`results_root`](crate::results_root) (`IBP_RESULTS`,
//!   default `results`) and the run id is `<unix-seconds>-<pid>`;
//! * anything else — treated as the journal file path.
//!
//! Each journal line is one JSON object (see [`Record`] for the parsed
//! form). The first line is a `meta` record identifying the run and what
//! it was configured with: run id, pid, `schema` (1), `threads` (the
//! available parallelism) and `knobs`, every knob's effective value
//! ([`Knobs::to_json`](crate::Knobs::to_json)); a
//! [`flush`](crate::flush) at the end of a run appends a `metrics` record
//! with the full registry snapshot. Lines are flushed as they are written —
//! record volume is per-cell/per-worker, not per simulated event, so
//! durability wins over buffering.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, Once, OnceLock, PoisonError};
use std::time::{Instant, SystemTime};

use crate::json::{self, Json};

/// Process start reference for journal timestamps.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process-local trace epoch.
#[must_use]
pub fn now_us() -> u64 {
    u64::try_from(epoch().elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// A small dense per-thread id (0 for the first thread that emits).
#[must_use]
pub fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

struct Sink {
    writer: Box<dyn Write + Send>,
    path: Option<PathBuf>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static INIT: Once = Once::new();

fn sink() -> &'static Mutex<Option<Sink>> {
    static SINK: OnceLock<Mutex<Option<Sink>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// Locks the sink, recovering from poison: a worker that panicked while
/// holding the lock was mid-`write_all` at worst, which can only leave a
/// torn trailing line — and the journal reader already skips malformed
/// lines. Losing the whole journal to a contained panic would be the
/// greater harm.
fn lock_sink() -> MutexGuard<'static, Option<Sink>> {
    sink().lock().unwrap_or_else(PoisonError::into_inner)
}

type FaultHook = Box<dyn Fn() -> Option<std::io::Error> + Send + Sync>;

fn fault_hook() -> &'static Mutex<Option<FaultHook>> {
    static HOOK: OnceLock<Mutex<Option<FaultHook>>> = OnceLock::new();
    HOOK.get_or_init(|| Mutex::new(None))
}

/// Installs (or clears) a write-fault hook: before each record write the
/// hook may return an `io::Error` that is treated exactly like a real
/// sink failure (warn, disable). Fault-injection plumbing for
/// `ibp_sim::faults` — the journal must prove it degrades cleanly, and
/// this crate sits below the injector in the dependency order.
#[doc(hidden)]
pub fn set_fault_hook(hook: Option<FaultHook>) {
    *fault_hook().lock().unwrap_or_else(PoisonError::into_inner) = hook;
}

fn run_id() -> String {
    let unix = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    format!("{unix}-{}", std::process::id())
}

fn init_from_env() {
    // NOTE: `open_sink` (not `install`) is called from inside the Once
    // closure — `Once::call_once` is not reentrant.
    INIT.call_once(|| match crate::knobs().trace.as_deref() {
        None => {}
        Some("1") => {
            let path = crate::results_root()
                .join("journal")
                .join(format!("{}.jsonl", run_id()));
            if let Err(e) = open_sink(&path) {
                eprintln!("warning: IBP_TRACE=1: cannot open {}: {e}", path.display());
            }
        }
        Some(path) => {
            if let Err(e) = open_sink(Path::new(path)) {
                eprintln!("warning: IBP_TRACE: cannot open {path}: {e}");
            }
        }
    });
}

/// Whether the journal is active. False means every span/event emit is a
/// no-op; call sites can also use this to skip building field values.
#[must_use]
pub fn enabled() -> bool {
    init_from_env();
    ENABLED.load(Ordering::Relaxed)
}

/// Opens `path` (creating parent directories) as the journal sink and
/// writes the `meta` header record. Normally driven by `IBP_TRACE`, but
/// callable directly (tests, embedding).
///
/// # Errors
///
/// Propagates filesystem errors; the journal stays disabled on failure.
pub fn install(path: &Path) -> std::io::Result<()> {
    // Claim env initialisation so a later `enabled()` cannot override an
    // explicit install. Safe here: `install` is never called from inside
    // the Once closure (that path uses `open_sink`).
    INIT.call_once(|| {});
    open_sink(path)
}

fn open_sink(path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let file = fs::File::create(path)?;
    let mut guard = lock_sink();
    *guard = Some(Sink {
        writer: Box::new(file),
        path: Some(path.to_path_buf()),
    });
    ENABLED.store(true, Ordering::Relaxed);
    drop(guard);
    write_record(&Json::Obj(vec![
        ("t".to_string(), Json::Str("meta".to_string())),
        ("run_id".to_string(), Json::Str(run_id())),
        ("ts".to_string(), Json::Num(now_us() as f64)),
        (
            "unix_ms".to_string(),
            Json::Num(
                SystemTime::now()
                    .duration_since(SystemTime::UNIX_EPOCH)
                    .map(|d| d.as_millis() as f64)
                    .unwrap_or(0.0),
            ),
        ),
        ("pid".to_string(), Json::Num(f64::from(std::process::id()))),
        ("schema".to_string(), Json::Num(1.0)),
        (
            "threads".to_string(),
            Json::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64),
        ),
        ("knobs".to_string(), crate::knobs().to_json()),
    ]));
    Ok(())
}

/// Redirects the journal to an arbitrary writer (no `meta` header). Test
/// plumbing: lets unit tests capture records in memory.
#[doc(hidden)]
pub fn install_writer(writer: Box<dyn Write + Send>) {
    INIT.call_once(|| {});
    let mut guard = lock_sink();
    *guard = Some(Sink { writer, path: None });
    ENABLED.store(true, Ordering::Relaxed);
}

/// Disables the journal and drops the sink. Test plumbing.
#[doc(hidden)]
pub fn uninstall() {
    ENABLED.store(false, Ordering::Relaxed);
    let mut guard = lock_sink();
    *guard = None;
}

/// The journal file path, when journaling to a file.
#[must_use]
pub fn path() -> Option<PathBuf> {
    if !enabled() {
        return None;
    }
    lock_sink().as_ref().and_then(|s| s.path.clone())
}

/// Serialises and writes one record line. No-op when disabled; write
/// failures disable the journal with a warning rather than panicking.
pub(crate) fn write_record(record: &Json) {
    // Raw load, not `enabled()`: the meta record in `open_sink` is written
    // from inside the env-init Once closure, where re-entering
    // `init_from_env` would deadlock.
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let mut line = String::new();
    record.write(&mut line);
    line.push('\n');
    // Consult the fault hook before taking the sink lock (the hook may
    // take its own locks); an injected error is handled exactly like a
    // real write failure below.
    let injected = fault_hook()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .as_ref()
        .and_then(|hook| hook());
    let mut guard = lock_sink();
    if let Some(s) = guard.as_mut() {
        let outcome = match injected {
            Some(e) => Err(e),
            None => s
                .writer
                .write_all(line.as_bytes())
                .and_then(|()| s.writer.flush()),
        };
        if let Err(e) = outcome {
            eprintln!("warning: trace journal write failed, disabling: {e}");
            ENABLED.store(false, Ordering::Relaxed);
            *guard = None;
        }
    }
}

/// The kind of a journal record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Run header (first line).
    Meta,
    /// A closed span: `ts` is the start, `dur_us` the duration.
    Span,
    /// An instant event.
    Event,
    /// A log line routed through the event API.
    Log,
    /// A metrics-registry snapshot.
    Metrics,
    /// A predictor-internals probe sample (see `ibp-sim`'s probe layer).
    Probe,
}

impl Kind {
    fn from_tag(tag: &str) -> Option<Kind> {
        Some(match tag {
            "meta" => Kind::Meta,
            "span" => Kind::Span,
            "event" => Kind::Event,
            "log" => Kind::Log,
            "metrics" => Kind::Metrics,
            "probe" => Kind::Probe,
            _ => return None,
        })
    }
}

/// One parsed journal record. Field names mirror the on-disk JSON; every
/// record keeps its raw [`Json`] fields for kind-specific payloads.
#[derive(Debug, Clone)]
pub struct Record {
    /// What the record is.
    pub kind: Kind,
    /// Span/event/log name (empty for meta and metrics records).
    pub name: String,
    /// Microseconds since the run's trace epoch.
    pub ts_us: u64,
    /// Span duration in microseconds (spans only).
    pub dur_us: Option<u64>,
    /// Dense thread id of the emitting thread.
    pub tid: u64,
    /// Span nesting depth on its thread (0 = root; spans only).
    pub depth: Option<u64>,
    /// Log level (logs only; 0 = warn, 1 = info).
    pub level: Option<u64>,
    /// Key/value payload (`fields` object for spans/events, the whole
    /// record for meta/metrics).
    pub fields: Vec<(String, Json)>,
}

impl Record {
    /// Looks up one field by key.
    #[must_use]
    pub fn field(&self, key: &str) -> Option<&Json> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A field as a string.
    #[must_use]
    pub fn field_str(&self, key: &str) -> Option<&str> {
        self.field(key).and_then(Json::as_str)
    }

    /// A field as an unsigned integer.
    #[must_use]
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        self.field(key).and_then(Json::as_u64)
    }

    /// Parses one journal line.
    ///
    /// # Errors
    ///
    /// Returns a message when the line is not valid JSON or not a known
    /// record shape.
    pub fn parse(line: &str) -> Result<Record, String> {
        let doc = json::parse(line).map_err(|e| e.to_string())?;
        let tag = doc
            .get("t")
            .and_then(Json::as_str)
            .ok_or_else(|| "record has no \"t\" tag".to_string())?;
        let kind = Kind::from_tag(tag).ok_or_else(|| format!("unknown record tag {tag:?}"))?;
        let fields = match kind {
            Kind::Meta | Kind::Metrics => doc
                .as_obj()
                .map(<[(String, Json)]>::to_vec)
                .unwrap_or_default(),
            _ => doc
                .get("f")
                .and_then(Json::as_obj)
                .map(<[(String, Json)]>::to_vec)
                .unwrap_or_default(),
        };
        Ok(Record {
            kind,
            name: doc
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            ts_us: doc.get("ts").and_then(Json::as_u64).unwrap_or(0),
            dur_us: doc.get("dur").and_then(Json::as_u64),
            tid: doc.get("tid").and_then(Json::as_u64).unwrap_or(0),
            depth: doc.get("depth").and_then(Json::as_u64),
            level: doc.get("level").and_then(Json::as_u64),
            fields,
        })
    }
}

/// Reads and parses a whole journal file, skipping malformed lines.
///
/// Equivalent to [`read_journal_counting`] with the bad-line count
/// discarded.
///
/// # Errors
///
/// Propagates I/O errors only.
pub fn read_journal(path: &Path) -> std::io::Result<Vec<Record>> {
    read_journal_counting(path).map(|(records, _)| records)
}

/// Reads and parses a whole journal file. A line that is not valid JSON or
/// not a known record shape is skipped with a warning (a crashed or
/// concurrently-written run can leave a truncated tail — the rest of the
/// journal is still worth rendering); the second element counts how many
/// lines were dropped.
///
/// # Errors
///
/// Propagates I/O errors only.
pub fn read_journal_counting(path: &Path) -> std::io::Result<(Vec<Record>, usize)> {
    let file = fs::File::open(path)?;
    let mut records = Vec::new();
    let mut bad_lines = 0usize;
    for (i, line) in BufReader::new(file).lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        match Record::parse(&line) {
            Ok(record) => records.push(record),
            Err(e) => {
                bad_lines += 1;
                crate::warn!(
                    "skipping corrupt journal line {}:{}: {e}",
                    path.display(),
                    i + 1
                );
            }
        }
    }
    Ok((records, bad_lines))
}
