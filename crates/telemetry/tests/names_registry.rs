//! Every metric name and span kind recorded in program code is a
//! `syd_telemetry::names` constant, and every constant is recorded
//! somewhere: a typo'd name cannot split a metric in two, and a metric
//! that lost its last call site does not linger in the registry.
//!
//! A plain text search over the workspace's sources: a call of one of
//! the recording methods whose first argument is a string literal is a
//! finding, in program code (each file up to its `#[cfg(test)]` module)
//! outside this crate, which defines the methods.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use std::fs;
use std::path::{Path, PathBuf};

/// Methods whose first argument is a metric name.
const METRIC_METHODS: [&str; 6] = [
    "counter",
    "gauge",
    "histogram",
    "get_counter",
    "get_gauge",
    "get_histogram",
];

/// Methods whose first argument is a span kind.
const SPAN_METHODS: [&str; 4] = ["span", "span_root", "record_span", "finish_handle"];

fn workspace() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The sources under `kind` (`src`, `tests`, …) of every crate and of the
/// root package.
fn sources(kinds: &[&str]) -> Vec<(PathBuf, String)> {
    let root = workspace();
    let mut dirs: Vec<PathBuf> = kinds.iter().map(|kind| root.join(kind)).collect();
    for krate in fs::read_dir(root.join("crates")).unwrap() {
        let krate = krate.unwrap().path();
        dirs.extend(kinds.iter().map(|kind| krate.join(kind)));
    }
    let mut files = Vec::new();
    for dir in &dirs {
        rust_files(dir, &mut files);
    }
    files
        .into_iter()
        .map(|path| {
            let text = fs::read_to_string(&path).unwrap();
            (path, text)
        })
        .collect()
}

/// `text` up to its test module: the first `#[cfg(test)]` at the start of
/// a line whose next item, past further attributes, is a `mod`.
fn program(text: &str) -> &str {
    let mut offset = 0;
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        if line == "#[cfg(test)]" {
            let mut rest = lines.clone().skip_while(|l| l.starts_with("#["));
            if rest.next().is_some_and(|l| l.starts_with("mod ")) {
                return &text[..offset];
            }
        }
        offset += line.len() + 1;
    }
    text
}

/// The lines (1-based) of `text` that call one of `methods` with a string
/// literal first, comments aside.
fn literal_calls(text: &str, methods: &[&str]) -> Vec<usize> {
    let mut found = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("//") {
            continue;
        }
        let literal = |method: &&str| {
            let call = format!(".{method}(");
            line.match_indices(&call).any(|(at, _)| {
                let after = &line[at + call.len()..];
                // A call broken after its parenthesis names its first
                // argument on the next line.
                let first = match after.trim() {
                    "" => text.lines().nth(n + 1).unwrap_or(""),
                    _ => after,
                };
                first.trim_start().starts_with('"')
            })
        };
        if methods.iter().any(literal) {
            found.push(n + 1);
        }
    }
    found
}

/// The `(name, value)` of each `pub const NAME: &str = "value";` in `text`.
fn registry_constants(text: &str) -> Vec<(&str, &str)> {
    text.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("pub const ")?;
            let (name, value) = rest.split_once(": &str = ")?;
            Some((name, value.trim_end_matches(';').trim_matches('"')))
        })
        .collect()
}

/// Whether `word` occurs in `text` as a whole identifier.
fn mentions(text: &str, word: &str) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    text.match_indices(word).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = text[at + word.len()..].chars().next();
        !before.is_some_and(ident) && !after.is_some_and(ident)
    })
}

#[test]
fn program_code_records_metrics_and_spans_under_registered_names() {
    let methods: Vec<&str> = METRIC_METHODS
        .iter()
        .chain(&SPAN_METHODS)
        .copied()
        .collect();
    let mut findings = Vec::new();
    for (path, text) in sources(&["src"]) {
        if path.components().any(|c| c.as_os_str() == "telemetry") {
            continue;
        }
        for line in literal_calls(program(&text), &methods) {
            findings.push(format!("{}:{line}", path.display()));
        }
    }
    assert!(
        findings.is_empty(),
        "a literal name where a `syd_telemetry::names` constant belongs:\n{}",
        findings.join("\n")
    );
}

#[test]
fn every_registered_name_is_used_outside_the_registry() {
    let registry = workspace().join("crates/telemetry/src/names.rs");
    let names = fs::read_to_string(&registry).unwrap();
    let constants = registry_constants(&names);
    assert!(constants.len() > 20, "the registry did not parse");
    let others: Vec<String> = sources(&["src", "tests", "benches", "examples"])
        .into_iter()
        .filter(|(path, _)| !path.ends_with("telemetry/src/names.rs"))
        .map(|(_, text)| text)
        .collect();
    let orphans: Vec<String> = constants
        .iter()
        .filter(|(name, _)| !others.iter().any(|text| mentions(text, name)))
        .map(|(name, value)| format!("{name} (\"{value}\")"))
        .collect();
    assert!(
        orphans.is_empty(),
        "registered names nothing records:\n{}",
        orphans.join("\n")
    );
}

#[test]
fn a_literal_metric_name_or_span_kind_is_found() {
    let fixture = "fn record(metrics: &Registry, tracer: &Tracer) {\n\
                   \x20   metrics.counter(\"fixture.unregistered\").inc();\n\
                   \x20   let _span = tracer.span(\n\
                   \x20       \"fixture.unregistered_kind\",\n\
                   \x20   );\n\
                   \x20   metrics.counter(names::RPC_CALL).inc();\n\
                   \x20   // metrics.counter(\"in a comment\")\n\
                   }\n";
    assert_eq!(literal_calls(fixture, &METRIC_METHODS), vec![2]);
    assert_eq!(literal_calls(fixture, &SPAN_METHODS), vec![3]);
}

#[test]
fn a_name_used_only_in_the_registry_is_an_orphan() {
    let registry = "/// Counter: nothing records it.\n\
                    pub const FIXTURE_ORPHAN: &str = \"fixture.orphan\";\n";
    let constants = registry_constants(registry);
    assert_eq!(constants, vec![("FIXTURE_ORPHAN", "fixture.orphan")]);
    assert!(!mentions("use names::FIXTURE_ORPHANED;", "FIXTURE_ORPHAN"));
    assert!(mentions(
        "m.counter(names::FIXTURE_ORPHAN)",
        "FIXTURE_ORPHAN"
    ));
}

#[test]
fn test_modules_are_not_program_code() {
    let text = "fn f() {}\n#[cfg(test)]\n#[allow(x)]\nmod tests {\n    fn g() {}\n}\n";
    assert_eq!(program(text), "fn f() {}\n");
    let field = "struct S {\n#[cfg(test)]\n    n: u8,\n}\n";
    assert_eq!(program(field), field);
}
