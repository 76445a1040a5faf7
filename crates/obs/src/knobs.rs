//! The `IBP_*` knobs, read in one place.
//!
//! [`knobs()`] parses `IBP_EVENTS`, `IBP_CACHE`, `IBP_TRACE`, `IBP_PROBE`
//! and `IBP_FAULTS` once, on first use. Unset means the default; a
//! malformed value prints one `warning: ignoring invalid IBP_X=…` line on
//! stderr and means the default. The warning goes straight to stderr,
//! never through [`warn!`](crate::warn), because the journal reads
//! `IBP_TRACE` from here while it starts up. A retired knob, such as
//! `IBP_LOG` (progress lines now reach only the journal), is not read at
//! all: setting it has no effect and prints nothing.
//!
//! `IBP_RESULTS` is the exception: [`results_root`] reads it on every
//! call, so a process that redirects it moves its later writes with it.

use std::path::PathBuf;
use std::sync::OnceLock;

use crate::json::Json;

/// Indirect branches per benchmark trace when `IBP_EVENTS` is unset.
const DEFAULT_EVENTS: u64 = 120_000;

/// How much predictor-internal telemetry a run collects (`IBP_PROBE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbePolicy {
    /// No probes (`IBP_PROBE=0` or unset): the hot path pays one branch.
    Off,
    /// Sample snapshots at end-of-warmup and end-of-run, attribute scored
    /// misses per site (`IBP_PROBE=1`).
    On,
    /// Everything `On` does, plus periodic interval snapshots and the
    /// cold/capacity split of no-entry misses (`IBP_PROBE=deep`).
    Deep,
}

impl ProbePolicy {
    /// Whether any probing is active.
    #[must_use]
    pub fn on(self) -> bool {
        self != ProbePolicy::Off
    }

    /// Whether deep (interval + cold/capacity) probing is active.
    #[must_use]
    pub fn deep(self) -> bool {
        self == ProbePolicy::Deep
    }
}

/// The effective value of every knob [`knobs()`] parses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Knobs {
    /// `IBP_EVENTS`: indirect branches per benchmark trace.
    pub events: u64,
    /// `IBP_CACHE`: whether the persistent result cache loads and saves
    /// (`0` turns it off).
    pub cache: bool,
    /// `IBP_TRACE`: `None` when off (unset, empty or `0`), else `1` or the
    /// journal path.
    pub trace: Option<String>,
    /// `IBP_PROBE`: `0`, `1` or `deep`.
    pub probe: ProbePolicy,
    /// `IBP_FAULTS`: the fault spec, `None` when unset or blank. Its
    /// grammar belongs to `ibp_sim::faults`, which parses this string.
    pub faults: Option<String>,
}

/// `name` through `parse`, or `default` when unset or rejected (with one
/// warning naming what `parse` expected).
fn read<T>(
    var: &impl Fn(&str) -> Option<String>,
    warn: &mut impl FnMut(String),
    name: &str,
    default: T,
    parse: impl FnOnce(&str) -> Result<T, &'static str>,
) -> T {
    let Some(raw) = var(name) else {
        return default;
    };
    parse(&raw).unwrap_or_else(|expected| {
        warn(format!(
            "warning: ignoring invalid {name}={raw:?} (expected {expected}); using the default"
        ));
        default
    })
}

impl Knobs {
    /// Parses the knobs from `var` (a variable lookup: `None` when unset),
    /// handing each warning line to `warn`.
    pub fn parse(var: impl Fn(&str) -> Option<String>, mut warn: impl FnMut(String)) -> Knobs {
        let count = |raw: &str| raw.parse().map_err(|_| "an unsigned integer");
        let switch = |raw: &str| match raw {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err("0 or 1"),
        };
        let probe = |raw: &str| match raw {
            "" | "0" => Ok(ProbePolicy::Off),
            "1" => Ok(ProbePolicy::On),
            "deep" => Ok(ProbePolicy::Deep),
            _ => Err("0, 1 or \"deep\""),
        };
        let w = &mut warn;
        Knobs {
            events: read(&var, w, "IBP_EVENTS", DEFAULT_EVENTS, count),
            cache: read(&var, w, "IBP_CACHE", true, switch),
            trace: var("IBP_TRACE").filter(|r| !r.is_empty() && r != "0"),
            probe: read(&var, w, "IBP_PROBE", ProbePolicy::Off, probe),
            faults: var("IBP_FAULTS").filter(|r| !r.trim().is_empty()),
        }
    }

    /// Every knob's effective value, `IBP_RESULTS` included, each as the
    /// value that sets it (`IBP_EVENTS` as a number): what the journal's
    /// `meta` header records.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let text = |s: &str| Json::Str(s.to_string());
        let switch = |on: bool| text(if on { "1" } else { "0" });
        let probe = match self.probe {
            ProbePolicy::Off => "0",
            ProbePolicy::On => "1",
            ProbePolicy::Deep => "deep",
        };
        let pairs = [
            ("IBP_EVENTS", Json::Num(self.events as f64)),
            ("IBP_RESULTS", text(&results_root().to_string_lossy())),
            ("IBP_CACHE", switch(self.cache)),
            ("IBP_TRACE", text(self.trace.as_deref().unwrap_or("0"))),
            ("IBP_PROBE", text(probe)),
            ("IBP_FAULTS", text(self.faults.as_deref().unwrap_or(""))),
        ];
        Json::Obj(pairs.map(|(k, v)| (k.to_string(), v)).into())
    }
}

/// The process's knobs, parsed from the environment on first use.
#[must_use]
pub fn knobs() -> &'static Knobs {
    static KNOBS: OnceLock<Knobs> = OnceLock::new();
    KNOBS.get_or_init(|| Knobs::parse(|name| std::env::var(name).ok(), |w| eprintln!("{w}")))
}

/// The root every run writes its outputs under: `$IBP_RESULTS`, default
/// `results`. Tables, the persistent caches and the `IBP_TRACE=1` journal
/// all live below it. Read on every call, so a process that changes
/// `IBP_RESULTS` moves its later writes with it.
#[must_use]
pub fn results_root() -> PathBuf {
    std::env::var_os("IBP_RESULTS").map_or_else(|| PathBuf::from("results"), PathBuf::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `vars` as the whole environment, returning the knobs and the
    /// warnings.
    fn parse(vars: &[(&str, &str)]) -> (Knobs, Vec<String>) {
        let var = |name: &str| {
            let hit = vars.iter().find(|(k, _)| *k == name);
            hit.map(|(_, v)| (*v).to_string())
        };
        let mut warnings = Vec::new();
        let knobs = Knobs::parse(var, |w| warnings.push(w));
        (knobs, warnings)
    }

    fn defaults() -> Knobs {
        Knobs {
            events: DEFAULT_EVENTS,
            cache: true,
            trace: None,
            probe: ProbePolicy::Off,
            faults: None,
        }
    }

    #[test]
    fn every_knob_unset_valid_and_malformed() {
        let d = defaults();
        let with = |edit: fn(&mut Knobs)| {
            let mut k = defaults();
            edit(&mut k);
            k
        };
        // (variable, value, knobs it yields, whether it warns)
        let table: Vec<(&str, &str, Knobs, bool)> = vec![
            ("IBP_EVENTS", "2000", with(|k| k.events = 2000), false),
            ("IBP_EVENTS", "0", with(|k| k.events = 0), false),
            ("IBP_EVENTS", "banana", d.clone(), true),
            ("IBP_EVENTS", "-1", d.clone(), true),
            ("IBP_CACHE", "0", with(|k| k.cache = false), false),
            ("IBP_CACHE", "1", d.clone(), false),
            ("IBP_CACHE", "yes", d.clone(), true),
            (
                "IBP_TRACE",
                "1",
                with(|k| k.trace = Some("1".into())),
                false,
            ),
            (
                "IBP_TRACE",
                "/tmp/j.jsonl",
                with(|k| k.trace = Some("/tmp/j.jsonl".into())),
                false,
            ),
            ("IBP_TRACE", "0", d.clone(), false),
            ("IBP_TRACE", "", d.clone(), false),
            ("IBP_PROBE", "1", with(|k| k.probe = ProbePolicy::On), false),
            (
                "IBP_PROBE",
                "deep",
                with(|k| k.probe = ProbePolicy::Deep),
                false,
            ),
            ("IBP_PROBE", "0", d.clone(), false),
            ("IBP_PROBE", "", d.clone(), false),
            ("IBP_PROBE", "loud", d.clone(), true),
            (
                "IBP_FAULTS",
                "cache.write",
                with(|k| k.faults = Some("cache.write".into())),
                false,
            ),
            ("IBP_FAULTS", "  ", d.clone(), false),
            // Retired knobs read as nothing at all, valid or not.
            ("IBP_TRACE_CACHE", "0", d.clone(), false),
            ("IBP_LOG", "1", d.clone(), false),
            ("IBP_LOG", "2", d.clone(), false),
        ];
        assert_eq!(
            parse(&[]),
            (d, Vec::new()),
            "unset means every default, silently"
        );
        for (name, value, want, warns) in table {
            let (knobs, warnings) = parse(&[(name, value)]);
            assert_eq!(knobs, want, "{name}={value:?}");
            assert_eq!(
                warnings.len(),
                usize::from(warns),
                "{name}={value:?}: {warnings:?}"
            );
            if warns {
                let prefix = format!("warning: ignoring invalid {name}={value:?}");
                assert!(warnings[0].starts_with(&prefix), "{}", warnings[0]);
            }
        }
    }

    #[test]
    fn the_header_records_every_knob_as_the_value_that_sets_it() {
        let (knobs, _) = parse(&[("IBP_EVENTS", "2000"), ("IBP_PROBE", "deep")]);
        let json = knobs.to_json();
        let names: Vec<&str> = json
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let all = ["EVENTS", "RESULTS", "CACHE", "TRACE", "PROBE", "FAULTS"];
        assert_eq!(names, all.map(|k| format!("IBP_{k}")));
        assert_eq!(json.get("IBP_EVENTS").and_then(Json::as_u64), Some(2000));
        assert_eq!(json.get("IBP_CACHE").and_then(Json::as_str), Some("1"));
        assert_eq!(json.get("IBP_TRACE").and_then(Json::as_str), Some("0"));
        assert_eq!(json.get("IBP_PROBE").and_then(Json::as_str), Some("deep"));
        assert_eq!(json.get("IBP_FAULTS").and_then(Json::as_str), Some(""));
    }
}
