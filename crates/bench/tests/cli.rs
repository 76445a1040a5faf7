//! End-to-end tests of the command-line tools: `export_trace` piped into
//! `simulate_trace`.

use std::io::Write;
use std::process::Command;

fn export(benchmark: &str, events: &str) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_export_trace"))
        .args([benchmark, events])
        .output()
        .expect("run export_trace");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn simulate_output(trace_path: &str, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_simulate_trace"))
        .arg(trace_path)
        .args(args)
        .output()
        .expect("run simulate_trace")
}

fn simulate(trace_path: &str, args: &[&str]) -> (String, String, bool) {
    let out = simulate_output(trace_path, args);
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// The percentages on the first stdout line starting with `prefix`.
fn percents(stdout: &str, prefix: &str) -> Vec<f64> {
    let line = stdout
        .lines()
        .find(|l| l.trim_start().starts_with(prefix))
        .unwrap_or_else(|| panic!("no {prefix:?} line in:\n{stdout}"));
    line.split_whitespace()
        .filter_map(|word| word.trim_end_matches(',').strip_suffix('%'))
        .map(|n| n.parse().expect("a percentage"))
        .collect()
}

fn temp_trace(benchmark: &str, events: &str) -> std::path::PathBuf {
    let data = export(benchmark, events);
    let path = std::env::temp_dir().join(format!(
        "ibp-cli-test-{benchmark}-{events}-{}.ibpt",
        std::process::id()
    ));
    std::fs::File::create(&path)
        .and_then(|mut f| f.write_all(&data))
        .expect("write temp trace");
    path
}

#[test]
fn export_emits_valid_ibpt() {
    let data = export("ixx", "2000");
    let text = String::from_utf8(data).expect("utf8");
    assert!(text.starts_with("ibpt 1"));
    assert!(text.contains("name ixx"));
    assert_eq!(text.lines().filter(|l| l.starts_with("i ")).count(), 2000);
}

#[test]
fn export_rejects_unknown_benchmark() {
    let out = Command::new(env!("CARGO_BIN_EXE_export_trace"))
        .arg("nonesuch")
        .output()
        .expect("run export_trace");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown benchmark"));
}

#[test]
fn simulate_runs_practical_predictor() {
    let path = temp_trace("ixx", "3000");
    let (stdout, _, ok) = simulate(
        path.to_str().unwrap(),
        &[
            "--predictor",
            "practical",
            "--path",
            "3",
            "--entries",
            "1024",
            "--ways",
            "4",
        ],
    );
    std::fs::remove_file(&path).ok();
    assert!(ok, "{stdout}");
    assert!(stdout.contains("3000 indirect branches"), "{stdout}");
    assert!(stdout.contains("misprediction:"), "{stdout}");
}

#[test]
fn simulate_classify_and_per_site() {
    let path = temp_trace("xlisp", "3000");
    let (stdout, _, ok) = simulate(path.to_str().unwrap(), &["--classify", "--per-site"]);
    std::fs::remove_file(&path).ok();
    assert!(ok, "{stdout}");
    assert!(stdout.contains("breakdown:"), "{stdout}");
    assert!(stdout.contains("worst-predicted sites"), "{stdout}");
}

/// The sweep folds every path length in one pass; each row is what a
/// single run of the practical predictor at that length scores.
#[test]
fn simulate_sweep_prints_all_paths() {
    let path = temp_trace("xlisp", "2000");
    let trace = path.to_str().unwrap();
    let (stdout, _, ok) = simulate(trace, &["--sweep"]);
    assert!(ok, "{stdout}");
    for p in ["0", "3", "12"] {
        let (single, stderr, ok) = simulate(trace, &["--path", p]);
        assert!(ok, "{stderr}");
        let row = percents(&stdout, &format!("{p} "));
        assert_eq!(row, percents(&single, "misprediction:")[..1], "p = {p}");
    }
    std::fs::remove_file(&path).ok();
    // 13 sweep rows (p = 0..=12).
    let rows = stdout
        .lines()
        .filter(|l| {
            l.trim_start()
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_digit())
        })
        .count();
    assert!(rows >= 13, "{stdout}");
}

/// The sweep scores the predictor `--predictor` names: each row of a
/// tagless and an unconstrained sweep is what a single run of that
/// predictor at that path length scores. A BTB has no path length.
#[test]
fn the_sweep_scores_the_chosen_predictor() {
    let path = temp_trace("gcc", "5000");
    let trace = path.to_str().unwrap();
    for predictor in ["tagless", "unconstrained"] {
        let base = ["--predictor", predictor, "--entries", "256"];
        let (stdout, stderr, ok) = simulate(trace, &[&base[..], &["--sweep"]].concat());
        assert!(ok, "{stderr}");
        for p in ["0", "1", "12"] {
            let (single, stderr, ok) = simulate(trace, &[&base[..], &["--path", p]].concat());
            assert!(ok, "{stderr}");
            let row = percents(&stdout, &format!("{p} "));
            assert_eq!(
                row,
                percents(&single, "misprediction:")[..1],
                "{predictor}, p = {p}"
            );
        }
    }
    let out = simulate_output(trace, &["--predictor", "btb", "--sweep"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("error: btb has no path length"), "{stderr}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn simulate_reports_usage_on_bad_args() {
    let (_, stderr, ok) = simulate("/nonexistent.ibpt", &["--bogus"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn simulate_fails_cleanly_on_missing_file() {
    let (_, stderr, ok) = simulate("/nonexistent.ibpt", &[]);
    assert!(!ok);
    assert!(stderr.contains("cannot open"), "{stderr}");
}

/// The breakdown `--classify` prints adds up to the misprediction rate of
/// the predictor scored, whatever its table organisation, BTBs included.
#[test]
fn classify_breaks_down_the_table_it_scores() {
    let path = temp_trace("gcc", "20000");
    let trace = path.to_str().unwrap();
    let cases: [&[&str]; 4] = [
        &["--ways", "4"],
        &["--ways", "full"],
        &["--ways", "tagless"],
        &["--predictor", "btb2bc"],
    ];
    for case in cases {
        let mut args = vec!["--path", "3", "--entries", "256", "--classify"];
        args.extend(case);
        let (stdout, stderr, ok) = simulate(trace, &args);
        assert!(ok, "{stderr}");
        let scored = percents(&stdout, "misprediction:")[0];
        let parts: f64 = percents(&stdout, "breakdown:").iter().sum();
        // Each of the four figures is rounded to 0.01.
        assert!(
            (parts - scored).abs() <= 0.02,
            "{case:?}: breakdown sums to {parts}, scored {scored}:\n{stdout}"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// Full-precision keys need an unbounded table, so `unconstrained` keeps
/// one under the default `--entries`.
#[test]
fn unconstrained_is_unbounded_under_the_default_entries() {
    let path = temp_trace("ixx", "2500");
    let (stdout, stderr, ok) = simulate(path.to_str().unwrap(), &["--predictor", "unconstrained"]);
    std::fs::remove_file(&path).ok();
    assert!(ok, "{stderr}");
    assert!(stdout.contains("full-precision, unbounded"), "{stdout}");
    assert!(stdout.contains("misprediction:"), "{stdout}");
}

#[test]
fn an_invalid_configuration_exits_2_with_its_error() {
    let path = temp_trace("ixx", "2000");
    let trace = path.to_str().unwrap();
    let cases: [(&[&str], &str); 3] = [
        (
            &["--entries", "1000"],
            "table size 1000 is not a non-zero power of two",
        ),
        (
            &["--ways", "3"],
            "associativity 3 invalid for 1024-entry table",
        ),
        (
            &["--sweep", "--entries", "1000"],
            "table size 1000 is not a non-zero power of two",
        ),
    ];
    for (args, error) in cases {
        let out = simulate_output(trace, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("error: {error}")),
            "{args:?}: {stderr}"
        );
    }
    std::fs::remove_file(&path).ok();
}
