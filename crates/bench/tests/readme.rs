//! README drift check: its "Environment knobs" table lists exactly the
//! variables a journal header records ([`Knobs::to_json`]), its binaries
//! table names every binary under `src/bin/`, and every binary the README
//! names exists.

use std::path::PathBuf;

use ibp_obs::Knobs;

fn repo_file(path: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(path)
}

fn readme() -> String {
    let path = repo_file("../../README.md");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The backticked words in `text`.
fn backticked(text: &str) -> Vec<String> {
    text.split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

/// The backticked words in the first column of the table whose header row
/// is `header`.
fn first_column(readme: &str, header: &str) -> Vec<String> {
    let mut lines = readme.lines().skip_while(|l| l.trim() != header);
    assert!(
        lines.next().is_some(),
        "README has no table headed {header:?}"
    );
    lines
        .skip(1)
        .take_while(|l| l.starts_with('|'))
        .flat_map(|row| backticked(row.split('|').nth(1).unwrap_or_default()))
        .collect()
}

#[test]
fn the_knob_table_lists_exactly_the_recorded_knobs() {
    let recorded: Vec<String> = Knobs::parse(|_| None, |_| {})
        .to_json()
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(name, _)| name.clone())
        .collect();
    let listed = first_column(&readme(), "| Variable | Meaning | Default |");
    assert_eq!(
        listed, recorded,
        "README's knob table against the knobs a journal header records"
    );
}

#[test]
fn the_binaries_table_names_every_binary_and_only_binaries() {
    let mut bins: Vec<String> = std::fs::read_dir(repo_file("src/bin"))
        .expect("src/bin")
        .map(|entry| entry.expect("a directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
        .map(|path| {
            path.file_stem()
                .expect("a file name")
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    bins.sort_unstable();
    let readme = readme();
    let mut table = first_column(&readme, "| binary | artifact |");
    table.sort_unstable();
    assert_eq!(table, bins, "README's binaries table against src/bin/");
    let mut words = readme.split_whitespace();
    while let Some(word) = words.next() {
        if word == "--bin" {
            let word = words.next().expect("a binary after --bin");
            let name = word
                .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                .next()
                .unwrap_or_default();
            assert!(
                bins.iter().any(|b| b == name),
                "README runs a missing binary {name}"
            );
        }
    }
}
