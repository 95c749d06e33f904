//! Every remote method is declared once, as a `Verb` `const` naming its
//! service, its wire name, its arguments and its reply; its handler and
//! every caller name that `const`. A method name written a second time —
//! a positional `arg(args, i)` read, an untyped `Method::new` table entry,
//! or a string literal handed to a call — would be a mismatch found only
//! at run time.
//!
//! A plain text search over the workspace's program code (each file up
//! to its `#[cfg(test)]` module, comments skipped): the untyped substrate
//! that defines the calls by name, and the stored-name dispatch of
//! `SyD_LinkMethod` rows, are the only places a call is made by a name
//! that is not a verb's.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Files allowed to build a call from a service and method name: the
/// substrate that defines the untyped path, and the dispatch of a stored
/// link's `dst_method` (data in `SyD_LinkMethod`, not code).
const UNTYPED_PATH: [&str; 3] = [
    "crates/net/src/",
    "crates/core/src/engine.rs",
    "crates/core/src/links.rs",
];

/// Calls that take a method name, and the position of that name among
/// their arguments.
const NAMED_CALLS: [(&str, usize); 10] = [
    ("Call::new(", 2),
    ("Call::broadcast(", 2),
    (".invoke(", 2),
    (".invoke_group(", 2),
    (".invoke_with_deadline(", 2),
    (".invoke_group_by_name(", 2),
    (".call(", 2),
    (".call_with(", 2),
    (".call_async(", 2),
    (".call_async_to(", 3),
];

/// The untyped constructors: only the allowed files use them at all.
const UNTYPED_CALLS: [&str; 6] = [
    "Call::new(",
    "Call::broadcast(",
    ".invoke(",
    ".invoke_group(",
    ".invoke_with_deadline(",
    ".invoke_group_by_name(",
];

fn workspace() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf()
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

/// The program code of the workspace: every crate's `src`, the root
/// package's `src` and the examples, each file up to its test module and
/// without its comments, with its path relative to the workspace.
fn program_sources() -> Vec<(String, String)> {
    let root = workspace();
    let mut dirs = vec![root.join("src"), root.join("examples")];
    for krate in fs::read_dir(root.join("crates")).unwrap() {
        dirs.push(krate.unwrap().path().join("src"));
    }
    let mut files = Vec::new();
    for dir in &dirs {
        rust_files(dir, &mut files);
    }
    files.sort();
    let sources: Vec<(String, String)> = files
        .into_iter()
        .map(|path| {
            let text = fs::read_to_string(&path).unwrap();
            let relative = path.strip_prefix(&root).unwrap();
            let relative = relative.to_string_lossy().replace('\\', "/");
            (relative, program(&text))
        })
        .collect();
    assert!(sources.len() > 50, "the walk found the workspace's sources");
    sources
}

/// `text` up to its test module (the first `#[cfg(test)]` line followed,
/// past further attributes, by a `mod`), its comment lines blanked.
fn program(text: &str) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let mut end = lines.len();
    for (i, line) in lines.iter().enumerate() {
        if *line == "#[cfg(test)]" {
            let mut rest = lines[i + 1..].iter().skip_while(|l| l.starts_with("#["));
            if rest.next().is_some_and(|l| l.starts_with("mod ")) {
                end = i;
                break;
            }
        }
    }
    let mut code = String::new();
    for line in &lines[..end] {
        if !line.trim_start().starts_with("//") {
            code.push_str(line);
        }
        code.push('\n');
    }
    code
}

/// The top-level arguments of the call whose `(` is at `open`.
fn arguments(text: &str, open: usize) -> Vec<String> {
    let (mut depth, mut in_str, mut escaped) = (0usize, false, false);
    let (mut args, mut current) = (Vec::new(), String::new());
    for c in text[open..].chars() {
        if in_str {
            current.push(c);
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                current.push(c);
            }
            '(' | '[' | '{' => {
                depth += 1;
                if depth > 1 {
                    current.push(c);
                }
            }
            ')' | ']' | '}' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
                current.push(c);
            }
            ',' if depth == 1 => args.push(std::mem::take(&mut current)),
            _ => current.push(c),
        }
    }
    args.push(current);
    args.into_iter().map(|a| a.trim().to_owned()).collect()
}

/// The package a source file is compiled into: a crate, the root
/// package, or an example of its own.
fn program_of(file: &str) -> String {
    match file.split('/').collect::<Vec<_>>()[..] {
        ["crates", krate, ..] => format!("crates/{krate}"),
        ["examples", example, ..] => format!("examples/{example}"),
        _ => "src".to_owned(),
    }
}

/// `file:line` of byte `at` of `text`.
fn place(file: &str, text: &str, at: usize) -> String {
    format!("{file}:{}", text[..at].matches('\n').count() + 1)
}

#[test]
fn verbs_are_written_once() {
    let mut findings = Vec::new();
    let mut declared: HashMap<(String, String, String), String> = HashMap::new();
    for (file, text) in program_sources() {
        let untyped_allowed = UNTYPED_PATH.iter().any(|p| file.starts_with(p));
        for banned in ["arg(args", "Method::new("] {
            for (at, _) in text.match_indices(banned) {
                findings.push(format!("{}: `{banned}`", place(&file, &text, at)));
            }
        }
        if !untyped_allowed {
            for call in UNTYPED_CALLS {
                for (at, _) in text.match_indices(call) {
                    let at_place = place(&file, &text, at);
                    findings.push(format!("{at_place}: untyped `{call}..)`"));
                }
            }
        }
        for (call, position) in NAMED_CALLS {
            for (at, _) in text.match_indices(call) {
                let args = arguments(&text, at + call.len() - 1);
                if args.get(position).is_some_and(|a| a.starts_with('"')) {
                    let name = &args[position];
                    let at_place = place(&file, &text, at);
                    findings.push(format!("{at_place}: method {name} named in `{call}..)`"));
                }
            }
        }
        for (at, _) in text.match_indices("Verb::new(") {
            let args = arguments(&text, at + "Verb::new".len());
            let [service, name] = &args[..] else {
                findings.push(format!(
                    "{}: `Verb::new` of {args:?}",
                    place(&file, &text, at)
                ));
                continue;
            };
            let at_place = place(&file, &text, at);
            let key = (program_of(&file), service.clone(), name.clone());
            if let Some(first) = declared.insert(key, at_place.clone()) {
                findings.push(format!(
                    "{at_place}: {service}.{name} declared again ({first})"
                ));
            }
        }
    }
    assert!(
        declared.len() >= 40,
        "the verbs were found: {}",
        declared.len()
    );
    assert!(
        findings.is_empty(),
        "a method named outside its verb:\n{}",
        findings.join("\n")
    );
}

/// The search finds what it is meant to: a literal method name, an
/// untyped constructor, a positional read and a verb declared twice.
#[test]
fn the_search_sees_what_it_looks_for() {
    let text = program(
        "let a = Call::new(user, &svc, \"ping\", vec![]);\n\
         // engine.invoke(user, &svc, \"in a comment\", vec![])\n\
         let b = node.call(addr, &svc, \"ping\", (1, (2, 3)));\n\
         #[cfg(test)]\nmod tests {\n    let c = arg(args, 0);\n}\n",
    );
    let at = text.find("Call::new(").unwrap() + "Call::new".len();
    assert_eq!(arguments(&text, at), ["user", "&svc", "\"ping\"", "vec![]"]);
    let at = text.find(".call(").unwrap() + ".call".len();
    assert_eq!(arguments(&text, at)[3], "(1, (2, 3))");
    assert!(!text.contains("in a comment"));
    assert!(
        !text.contains("arg(args"),
        "the test module is not program code"
    );
}
