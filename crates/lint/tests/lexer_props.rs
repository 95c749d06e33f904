//! Lexer hardening properties: the token scanner is the foundation every
//! rule stands on, so it must (a) never panic on arbitrary input and
//! (b) keep brace accounting balanced on every real workspace file —
//! an unbalanced count silently truncates function bodies and makes
//! the interprocedural rules blind.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use syd_lint::lexer::{lex, Tok};
use syd_types::rng::{cases, Rng};

/// Rust-ish source fragments chosen to stress the tricky scanner states:
/// raw strings, raw identifiers, turbofish, lifetimes vs char literals,
/// and unterminated comment/string openers.
const FRAGMENTS: [&str; 18] = [
    "r#\"raw \"quoted\" body\"#",
    "r##\"nested \"# hash\"##",
    "\"plain string\\\"esc\"",
    "b\"bytes\"",
    "r#match",
    "Vec::<HashMap<String, Vec<u8>>>::new()",
    "x >> 2 >= y",
    "fn f<'a>(s: &'a str) -> &'a str {",
    "}",
    "'x'",
    "'\\n'",
    "// line comment",
    "/* block /* nested */ comment */",
    "/* unterminated",
    "\"unterminated",
    "r#\"unterminated raw",
    "#[derive(Clone)]",
    "let _ = 0x1f_u64 + 1.5e-3;",
];

fn arb_fragment(rng: &mut Rng) -> &'static str {
    FRAGMENTS[rng.below(FRAGMENTS.len() as u64) as usize]
}

/// Arbitrary input — control characters, quotes, backslashes and
/// non-ASCII scalars included — must lex without panicking.
#[test]
fn lex_never_panics_on_arbitrary_input() {
    cases(256, |rng| {
        let _ = lex(&rng.string(400));
    });
}

/// Concatenated Rust-ish fragments — including unterminated openers —
/// must lex without panicking, in both space- and newline-joined form.
#[test]
fn lex_never_panics_on_fragment_soup() {
    cases(256, |rng| {
        let parts: Vec<&str> = (0..rng.below(24)).map(|_| arb_fragment(rng)).collect();
        let _ = lex(&parts.join(" "));
        let _ = lex(&parts.join("\n"));
    });
}

#[test]
fn workspace_files_lex_with_balanced_braces() {
    // Every checked-in source file must scan to an exactly balanced brace
    // stream — this is the invariant the function walker depends on.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut checked = 0usize;
    for entry in walk_rs_files(std::path::Path::new(root)) {
        let src = std::fs::read_to_string(&entry).unwrap();
        let toks = lex(&src);
        let mut depth = 0i64;
        for t in &toks {
            match t.kind {
                Tok::LBrace => depth += 1,
                Tok::RBrace => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "negative brace depth in {}", entry.display());
        }
        assert_eq!(depth, 0, "unbalanced braces in {}", entry.display());
        checked += 1;
    }
    assert!(checked > 40, "workspace walk found only {checked} files");
}

fn walk_rs_files(root: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.join("crates")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out
}
