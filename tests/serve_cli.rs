//! `cocoon-serve`'s command line against its reference: the flags `--help`
//! prints must be exactly the rows of the "Running the server" table in
//! `docs/API.md`, and a flag that is in neither is refused.

use std::process::{Command, Output};

const API_REFERENCE: &str = include_str!("../docs/API.md");

fn serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cocoon-serve")).args(args).output().expect("run cocoon-serve")
}

/// Flag spellings (`--addr HOST:PORT`) from the USAGE text: a flag line
/// starts with `--`, and its description follows after a run of spaces.
fn usage_flags(usage: &str) -> Vec<String> {
    usage
        .lines()
        .map(str::trim_start)
        .filter(|line| line.starts_with("--"))
        .map(|line| line.split("  ").next().unwrap_or(line).trim_end().to_string())
        .collect()
}

/// Flag spellings from the first column of the "Running the server" table.
fn documented_flags(reference: &str) -> Vec<String> {
    let section = reference
        .split("\n## Running the server\n")
        .nth(1)
        .expect("docs/API.md has a \"Running the server\" section");
    let section = section.split("\n#").next().unwrap_or(section);
    section
        .lines()
        .filter_map(|line| line.strip_prefix("| `--"))
        .map(|rest| format!("--{}", rest.split('`').next().unwrap_or(rest).replace("\\|", "|")))
        .collect()
}

#[test]
fn usage_lists_the_flags_the_api_reference_documents() {
    let help = serve(&["--help"]);
    assert!(help.status.success(), "--help exits 0: {:?}", help.status);
    let usage = String::from_utf8(help.stdout).expect("utf-8 usage");
    let printed = usage_flags(&usage);
    assert!(printed.iter().any(|flag| flag == "--rate-limit RPS[:BURST]"), "{usage}");
    assert_eq!(printed, documented_flags(API_REFERENCE), "USAGE and docs/API.md disagree");
}

#[test]
fn removed_flags_are_unknown() {
    for (flag, value) in [
        ("--batch-window-ms", "2"),
        ("--max-batch", "64"),
        ("--accept-backlog", "64"),
        ("--event-threads", "2"),
    ] {
        let out = serve(&[flag, value]);
        assert_eq!(out.status.code(), Some(2), "{flag} must be refused");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown flag \"{flag}\"")), "{flag}: {stderr}");
    }
}
