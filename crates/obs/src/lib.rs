//! Structured observability for the ibp workspace: span/event tracing, a
//! process-wide metrics registry, leveled logging and a JSONL run journal.
//!
//! The design goal is *zero-dependency, near-zero-cost when off*:
//!
//! * [`span()`] returns a guard that records start/stop timestamps, thread id,
//!   nesting depth and `key=value` fields, and journals itself on drop.
//!   When tracing is disabled the guard is inert (one atomic load, no
//!   allocation).
//! * [`event()`] journals an instant (zero-duration) occurrence.
//! * [`metrics`] holds named counters, gauges and fixed-bucket histograms;
//!   they are always on (relaxed atomics) and snapshotted into the journal
//!   by [`flush`].
//! * [`warn!`] routes a warning to stderr *and* to the journal; [`info!`]
//!   routes a progress line to the journal only, so a trace captures the
//!   full log stream.
//! * [`knobs()`] is the one reader of the `IBP_*` environment variables:
//!   each is parsed once, and a malformed value warns and means the
//!   default (see [`knobs`](mod@knobs)).
//!
//! Tracing is enabled by `IBP_TRACE` (`1` for the default
//! `<results root>/journal/<run-id>.jsonl` — see [`results_root`] — or an
//! explicit path; see [`journal`]); the journal can be read back with [`read_journal`] and
//! rendered by the `obs_report` binary in `ibp-bench`.
//!
//! # Example
//!
//! ```
//! use ibp_obs as obs;
//!
//! // Counters/gauges/histograms work with or without tracing.
//! let runs = obs::metrics::counter("example.runs");
//! runs.incr();
//!
//! // Spans are inert unless IBP_TRACE is set.
//! let mut sp = obs::span!("example", kind = "doc");
//! sp.note("outcome", "ok");
//! drop(sp);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;
pub mod json;
pub mod knobs;
pub mod metrics;

use std::cell::Cell;
use std::marker::PhantomData;
use std::time::Instant;

pub use journal::{enabled, read_journal, read_journal_counting, Kind, Record};
use json::Json;
pub use knobs::{knobs, results_root, Knobs, ProbePolicy};

/// A field value attached to a span, event or log record.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Text.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    fn to_json(&self) -> Json {
        match self {
            Value::U64(v) => Json::Num(*v as f64),
            Value::I64(v) => Json::Num(*v as f64),
            Value::F64(v) => Json::Num(*v),
            Value::Str(s) => Json::Str(s.clone()),
            Value::Bool(b) => Json::Bool(*b),
        }
    }
}

macro_rules! impl_value_from {
    ($($ty:ty => $variant:ident via $conv:expr),* $(,)?) => {
        $(impl From<$ty> for Value {
            fn from(v: $ty) -> Value {
                #[allow(clippy::redundant_closure_call)]
                Value::$variant(($conv)(v))
            }
        })*
    };
}

impl_value_from! {
    u64 => U64 via |v| v,
    u32 => U64 via u64::from,
    usize => U64 via |v| v as u64,
    i64 => I64 via |v| v,
    i32 => I64 via i64::from,
    f64 => F64 via |v| v,
    bool => Bool via |v| v,
    String => Str via |v| v,
    &str => Str via str::to_owned,
}

thread_local! {
    static DEPTH: Cell<u64> = const { Cell::new(0) };
}

/// A span guard: measures from construction to drop and journals one
/// `span` record with its fields. Obtain one from [`span()`] or the
/// [`span!`] macro. Guards are `!Send` — a span belongs to the thread that
/// opened it (that is what the nesting depth counts).
#[derive(Debug)]
pub struct Span {
    start: Option<Instant>,
    start_us: u64,
    name: &'static str,
    depth: u64,
    fields: Vec<(&'static str, Value)>,
    _not_send: PhantomData<*const ()>,
}

impl Span {
    /// Whether this guard will journal a record on drop (tracing was
    /// enabled when it was opened).
    #[must_use]
    pub fn armed(&self) -> bool {
        self.start.is_some()
    }

    /// Attaches a field (builder style). No-op when disarmed.
    #[must_use]
    pub fn field(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        self.note(key, value);
        self
    }

    /// Attaches a field to an open span (for values only known later, e.g.
    /// an outcome). No-op when disarmed.
    pub fn note(&mut self, key: &'static str, value: impl Into<Value>) {
        if self.armed() {
            self.fields.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let dur_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        let fields = std::mem::take(&mut self.fields);
        journal::write_record(&record_json(
            "span",
            self.name,
            self.start_us,
            &[
                ("dur", Json::Num(dur_us as f64)),
                ("depth", Json::Num(self.depth as f64)),
            ],
            fields,
        ));
    }
}

fn record_json(
    tag: &str,
    name: &str,
    ts_us: u64,
    extra: &[(&str, Json)],
    fields: Vec<(&'static str, Value)>,
) -> Json {
    let mut pairs = vec![
        ("t".to_string(), Json::Str(tag.to_string())),
        ("name".to_string(), Json::Str(name.to_string())),
        ("ts".to_string(), Json::Num(ts_us as f64)),
        ("tid".to_string(), Json::Num(journal::thread_id() as f64)),
    ];
    for (k, v) in extra {
        pairs.push(((*k).to_string(), v.clone()));
    }
    if !fields.is_empty() {
        pairs.push((
            "f".to_string(),
            Json::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v.to_json()))
                    .collect(),
            ),
        ));
    }
    Json::Obj(pairs)
}

/// Opens a span named `name`. Inert (no allocation, no timestamps) when
/// tracing is disabled.
#[must_use]
pub fn span(name: &'static str) -> Span {
    if !journal::enabled() {
        return Span {
            start: None,
            start_us: 0,
            name,
            depth: 0,
            fields: Vec::new(),
            _not_send: PhantomData,
        };
    }
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    Span {
        start: Some(Instant::now()),
        start_us: journal::now_us(),
        name,
        depth,
        fields: Vec::new(),
        _not_send: PhantomData,
    }
}

/// Opens a span with inline fields:
/// `span!("cell", benchmark = name, outcome = "miss")`.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::span($name)$(.field(stringify!($key), $value))*
    };
}

/// Journals an instant event. Call sites that build field values should
/// gate on [`enabled`] to avoid the allocations when tracing is off.
pub fn event(name: &'static str, fields: Vec<(&'static str, Value)>) {
    if !journal::enabled() {
        return;
    }
    journal::write_record(&record_json("event", name, journal::now_us(), &[], fields));
}

/// Journals a `probe` record carrying a predictor-internals payload.
///
/// `payload` must be a [`Json::Obj`]; its members become the record's
/// fields on read-back (probe payloads are nested — component arrays,
/// histograms — which the flat [`Value`] field type cannot express, hence
/// the raw-JSON signature). No-op when tracing is off; callers should gate
/// payload construction on [`enabled`].
pub fn probe(name: &str, payload: Json) {
    if !journal::enabled() {
        return;
    }
    journal::write_record(&Json::Obj(vec![
        ("t".to_string(), Json::Str("probe".to_string())),
        ("name".to_string(), Json::Str(name.to_string())),
        ("ts".to_string(), Json::Num(journal::now_us() as f64)),
        ("tid".to_string(), Json::Num(journal::thread_id() as f64)),
        ("f".to_string(), payload),
    ]));
}

/// Journals an instant event with inline fields:
/// `event!("cell", outcome = "hit")`.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::event($name, vec![$((stringify!($key), $crate::Value::from($value))),*]);
        }
    };
}

/// Emits one log line: a warning (level 0) always reaches stderr with a
/// `warning:` prefix, and both warnings and progress (level 1) reach the
/// journal (as a `log` record) whenever tracing is on. Prefer the
/// [`warn!`]/[`info!`] macros.
pub fn log_message(level: u8, message: &str) {
    if level == 0 {
        eprintln!("warning: {message}");
    }
    if journal::enabled() {
        journal::write_record(&record_json(
            "log",
            "log",
            journal::now_us(),
            &[
                ("level", Json::Num(f64::from(level))),
                ("msg", Json::Str(message.to_string())),
            ],
            Vec::new(),
        ));
    }
}

/// Logs a warning: always printed to stderr (`warning:` prefix), always
/// journaled when tracing is on.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        $crate::log_message(0, &format!($($arg)*))
    };
}

/// Logs progress (level 1) to the journal; formats nothing when tracing
/// is off.
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        if $crate::enabled() {
            $crate::log_message(1, &format!($($arg)*));
        }
    };
}

/// The process's peak resident set size in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable or
/// unparseable (non-Linux platforms).
///
/// This is the whole-run high-water mark the kernel tracks — the figure to
/// quote when claiming a run fits a memory ceiling, e.g. that a streamed
/// million-event suite stays constant-memory.
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())?;
    Some(kb * 1024)
}

/// Appends a metrics-registry snapshot record to the journal (no-op when
/// tracing is off). Call once at the end of a run.
pub fn flush() {
    if !journal::enabled() {
        return;
    }
    let snap = metrics::snapshot();
    let counters = Json::Obj(
        snap.counters
            .into_iter()
            .map(|(k, v)| (k, Json::Num(v as f64)))
            .collect(),
    );
    let gauges = Json::Obj(
        snap.gauges
            .into_iter()
            .map(|(k, v)| (k, Json::Num(v as f64)))
            .collect(),
    );
    let histograms = Json::Obj(
        snap.histograms
            .into_iter()
            .map(|(k, h)| {
                (
                    k,
                    Json::Obj(vec![
                        (
                            "bounds".to_string(),
                            Json::Arr(h.bounds.iter().map(|&b| Json::Num(b as f64)).collect()),
                        ),
                        (
                            "counts".to_string(),
                            Json::Arr(h.counts.iter().map(|&c| Json::Num(c as f64)).collect()),
                        ),
                        ("sum".to_string(), Json::Num(h.sum as f64)),
                        ("count".to_string(), Json::Num(h.count as f64)),
                    ]),
                )
            })
            .collect(),
    );
    journal::write_record(&Json::Obj(vec![
        ("t".to_string(), Json::Str("metrics".to_string())),
        ("ts".to_string(), Json::Num(journal::now_us() as f64)),
        ("counters".to_string(), counters),
        ("gauges".to_string(), gauges),
        ("histograms".to_string(), histograms),
    ]));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex, MutexGuard};

    /// The journal sink is process-global; tests that install/uninstall it
    /// must not interleave.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[derive(Clone, Default)]
    struct Capture(Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for Capture {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("capture").extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn capture_records(body: impl FnOnce()) -> Vec<Record> {
        let cap = Capture::default();
        journal::install_writer(Box::new(cap.clone()));
        body();
        journal::uninstall();
        let bytes = cap.0.lock().expect("capture").clone();
        String::from_utf8(bytes)
            .expect("utf8 journal")
            .lines()
            .map(|l| Record::parse(l).expect("parseable record"))
            .collect()
    }

    #[test]
    fn disarmed_span_emits_nothing() {
        let _guard = serial();
        journal::uninstall();
        let mut sp = span("quiet").field("k", 1u64);
        assert!(!sp.armed());
        sp.note("k2", "v");
        drop(sp);
        // No sink installed: nothing to assert beyond "did not panic", but
        // the fields vec must have stayed empty (no allocation contract).
        let sp2 = span("quiet2");
        assert!(sp2.fields.is_empty());
    }

    #[test]
    fn span_nesting_depth_and_drop_order() {
        let _guard = serial();
        let records = capture_records(|| {
            let outer = span!("outer", which = "a");
            {
                let mut inner = span("inner");
                inner.note("which", "b");
                let innermost = span("innermost");
                drop(innermost);
            }
            drop(outer);
            // Depth must be back to zero: a sibling span is a root again.
            let sibling = span("sibling");
            drop(sibling);
        });
        let names: Vec<&str> = records.iter().map(|r| r.name.as_str()).collect();
        // Records appear in drop order (inner guards close first).
        assert_eq!(names, vec!["innermost", "inner", "outer", "sibling"]);
        let depth_of = |n: &str| {
            records
                .iter()
                .find(|r| r.name == n)
                .and_then(|r| r.depth)
                .expect("span depth")
        };
        assert_eq!(depth_of("outer"), 0);
        assert_eq!(depth_of("inner"), 1);
        assert_eq!(depth_of("innermost"), 2);
        assert_eq!(depth_of("sibling"), 0);
        let outer = records.iter().find(|r| r.name == "outer").expect("outer");
        assert_eq!(outer.kind, Kind::Span);
        assert_eq!(outer.field_str("which"), Some("a"));
        assert!(outer.dur_us.is_some());
        // The outer span strictly contains the inner one in time.
        let inner = records.iter().find(|r| r.name == "inner").expect("inner");
        assert!(outer.ts_us <= inner.ts_us);
        assert!(
            outer.ts_us + outer.dur_us.expect("dur") >= inner.ts_us + inner.dur_us.expect("dur")
        );
    }

    #[test]
    fn events_and_logs_are_journaled() {
        let _guard = serial();
        let records = capture_records(|| {
            event!("cell", outcome = "hit", n = 3u64);
            // info! lines reach the journal only.
            info!("progress {}", 42);
        });
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].kind, Kind::Event);
        assert_eq!(records[0].name, "cell");
        assert_eq!(records[0].field_str("outcome"), Some("hit"));
        assert_eq!(records[0].field_u64("n"), Some(3));
        assert_eq!(records[1].kind, Kind::Log);
        assert_eq!(records[1].level, Some(1));
    }

    #[test]
    fn flush_snapshots_metrics() {
        let _guard = serial();
        metrics::counter("test.lib.flush_counter").add(5);
        metrics::histogram("test.lib.flush_hist", &[10, 20]).record(15);
        let records = capture_records(flush);
        let snap = records
            .iter()
            .find(|r| r.kind == Kind::Metrics)
            .expect("metrics record");
        let counters = snap.field("counters").expect("counters object");
        assert!(counters
            .get("test.lib.flush_counter")
            .and_then(Json::as_u64)
            .is_some_and(|v| v >= 5));
        let hist = snap
            .field("histograms")
            .and_then(|h| h.get("test.lib.flush_hist"))
            .expect("histogram entry");
        assert_eq!(
            hist.get("bounds").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(
            hist.get("counts").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
    }

    #[test]
    fn probe_record_round_trips() {
        let _guard = serial();
        let records = capture_records(|| {
            probe(
                "gcc/p=8 unbounded",
                Json::Obj(vec![
                    ("point".to_string(), Json::Str("end".to_string())),
                    (
                        "components".to_string(),
                        Json::Arr(vec![Json::Obj(vec![
                            ("label".to_string(), Json::Str("unbounded".to_string())),
                            ("occupied".to_string(), Json::Num(42.0)),
                            (
                                "confidence".to_string(),
                                Json::Arr(vec![Json::Num(1.0), Json::Num(41.0)]),
                            ),
                        ])]),
                    ),
                ]),
            );
        });
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.kind, Kind::Probe);
        assert_eq!(r.name, "gcc/p=8 unbounded");
        assert_eq!(r.field_str("point"), Some("end"));
        let comps = r
            .field("components")
            .and_then(Json::as_arr)
            .expect("components");
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].get("occupied").and_then(Json::as_u64), Some(42));
        assert_eq!(
            comps[0]
                .get("confidence")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn probe_is_noop_when_disabled() {
        let _guard = serial();
        journal::uninstall();
        // Must not panic or require a sink.
        probe("quiet", Json::Obj(vec![]));
    }

    #[test]
    fn read_journal_skips_corrupt_lines() {
        let _guard = serial();
        let dir = std::env::temp_dir().join(format!("ibp-obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("corrupt.jsonl");
        std::fs::write(
            &path,
            concat!(
                "{\"t\":\"event\",\"name\":\"ok1\",\"ts\":1,\"tid\":0}\n",
                "{\"t\":\"event\",\"name\":\"trunc\",\"ts\":2,\n",
                "not json at all\n",
                "{\"t\":\"mystery\",\"name\":\"unknown-tag\",\"ts\":3}\n",
                "{\"t\":\"event\",\"name\":\"ok2\",\"ts\":4,\"tid\":0}\n",
            ),
        )
        .expect("write journal");
        let (records, bad) = read_journal_counting(&path).expect("io ok");
        std::fs::remove_file(&path).ok();
        assert_eq!(bad, 3);
        let names: Vec<&str> = records.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["ok1", "ok2"]);
        // The lossy default reader agrees.
        std::fs::write(
            &path,
            "{\"t\":\"event\",\"name\":\"only\",\"ts\":1}\nbroken\n",
        )
        .expect("write journal");
        let records = read_journal(&path).expect("io ok");
        std::fs::remove_file(&path).ok();
        assert_eq!(records.len(), 1);
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(3u32), Value::U64(3));
        assert_eq!(Value::from(3usize), Value::U64(3));
        assert_eq!(Value::from(-3i32), Value::I64(-3));
        assert_eq!(Value::from(0.5f64), Value::F64(0.5));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("s"), Value::Str("s".to_string()));
        assert_eq!(Value::from("s".to_string()), Value::Str("s".to_string()));
    }
}
