//! Per-file source model: the token stream plus the structure the rules
//! need — functions (with body ranges and test-ness), and declared
//! `Mutex`/`RwLock` fields that anchor lock identity.

use crate::lexer::{lex, Tok, Token};

/// Which lock primitive a declaration names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// `Mutex<T>` (`syd_types::sync` or plain `std::sync`).
    Mutex,
    /// `RwLock<T>` — acquired via `.read()` / `.write()`.
    RwLock,
}

/// A lock-bearing declaration: a struct field or a `let` binding whose
/// type is (or wraps) a `Mutex`/`RwLock`.
#[derive(Debug, Clone)]
pub struct LockDecl {
    /// Field or binding name — the last path segment at acquisition sites.
    pub name: String,
    /// Mutex or RwLock.
    pub kind: LockKind,
    /// 1-indexed declaration line.
    pub line: u32,
}

/// One `fn` item with its body token range.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Function name.
    pub name: String,
    /// 1-indexed line of the `fn` keyword.
    pub line: u32,
    /// Token index of the body's `{` (exclusive range start is `+1`).
    pub body_start: usize,
    /// Token index of the body's matching `}`.
    pub body_end: usize,
    /// True for `#[test]` fns, fns inside `#[cfg(test)]` modules, and
    /// every fn in a test-path file.
    pub is_test: bool,
}

/// A field (or typed binding) declared as `Arc<T>` or `Weak<T>` — the
/// anchor for strong-capture analysis: `Arc::clone(&self.field)` bound
/// into a shared-runtime closure pins `T`.
#[derive(Debug, Clone)]
pub struct RefField {
    /// Field name.
    pub name: String,
    /// The first type segment inside the angle brackets (`DeviceInner`
    /// for `Arc<DeviceInner>`).
    pub ty: String,
    /// True for `Arc<T>`, false for `Weak<T>`.
    pub strong: bool,
    /// 1-indexed declaration line.
    pub line: u32,
}

/// A lexed file plus extracted structure.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// File stem (`tcp` for `crates/transport/src/tcp.rs`), used to
    /// qualify lock identities.
    pub stem: String,
    /// Full token stream.
    pub tokens: Vec<Token>,
    /// Extracted functions, in source order.
    pub fns: Vec<FnInfo>,
    /// Lock declarations found in this file.
    pub locks: Vec<LockDecl>,
    /// `Arc<T>` / `Weak<T>` field declarations found in this file.
    pub ref_fields: Vec<RefField>,
    /// True when the whole file is test/bench/example code.
    pub is_test_path: bool,
}

impl SourceFile {
    /// Lexes and extracts structure from one file.
    pub fn parse(path: &str, src: &str) -> SourceFile {
        let tokens = lex(src);
        let is_test_path = path_is_test(path);
        let fns = extract_fns(&tokens, is_test_path);
        let locks = extract_locks(&tokens);
        let ref_fields = extract_ref_fields(&tokens);
        let stem = path
            .rsplit('/')
            .next()
            .and_then(|f| f.strip_suffix(".rs"))
            .unwrap_or(path)
            .to_string();
        SourceFile {
            path: path.to_string(),
            stem,
            tokens,
            fns,
            locks,
            ref_fields,
            is_test_path,
        }
    }

    /// The qualified id (`stem.field`) for a lock declared in this file.
    pub fn lock_id(&self, field: &str) -> String {
        format!("{}.{field}", self.stem)
    }
}

/// Test/bench/example/fixture code is exempt from most rules.
fn path_is_test(path: &str) -> bool {
    path.split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples" || seg == "fixtures")
}

fn ident(tokens: &[Token], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.kind) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// Walks the token stream once, pairing braces, to find every `fn` body
/// and whether it lives under `#[cfg(test)]` / carries `#[test]`.
fn extract_fns(tokens: &[Token], file_is_test: bool) -> Vec<FnInfo> {
    #[derive(Clone, Copy)]
    enum Frame {
        /// Index into `fns` whose `body_end` this `}` will close.
        Fn(usize),
        /// Any other brace; payload: does it put contents in test scope?
        Other(bool),
    }

    let mut fns: Vec<FnInfo> = Vec::new();
    let mut stack: Vec<Frame> = Vec::new();
    // Pending state between an item keyword and its `{`.
    let mut pending_fn: Option<(String, u32, bool)> = None;
    let mut pending_mod_test = false;
    let mut attr_test = false; // saw #[test]-like since last item boundary
    let mut attr_cfg_test = false; // saw #[cfg(test)] since last item boundary
    let mut i = 0;

    while i < tokens.len() {
        let in_test_scope = file_is_test
            || stack.iter().any(|f| matches!(f, Frame::Other(true)))
            || fns.iter().zip(0..).any(|(f, idx)| {
                f.is_test
                    && stack
                        .iter()
                        .any(|fr| matches!(fr, Frame::Fn(j) if *j == idx))
            });
        match &tokens[i].kind {
            Tok::Pound => {
                // Attribute: #[ ... ] — scan its bracket group.
                if matches!(tokens.get(i + 1).map(|t| &t.kind), Some(Tok::LBracket)) {
                    let mut depth = 0usize;
                    let mut j = i + 1;
                    let mut words: Vec<&str> = Vec::new();
                    while j < tokens.len() {
                        match &tokens[j].kind {
                            Tok::LBracket => depth += 1,
                            Tok::RBracket => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            Tok::Ident(s) => words.push(s),
                            _ => {}
                        }
                        j += 1;
                    }
                    if words.first() == Some(&"cfg") && words.contains(&"test") {
                        attr_cfg_test = true;
                    }
                    if words.last() == Some(&"test") && words.first() != Some(&"cfg") {
                        attr_test = true;
                    }
                    i = j + 1;
                    continue;
                }
                i += 1;
            }
            Tok::Ident(kw) if kw == "fn" => {
                if let Some(name) = ident(tokens, i + 1) {
                    let test = file_is_test || attr_test || attr_cfg_test || in_test_scope;
                    pending_fn = Some((name.to_string(), tokens[i].line, test));
                }
                attr_test = false;
                attr_cfg_test = false;
                i += 2;
            }
            Tok::Ident(kw) if kw == "mod" => {
                pending_mod_test = attr_cfg_test;
                attr_test = false;
                attr_cfg_test = false;
                i += 1;
            }
            Tok::LBrace => {
                if let Some((name, line, test)) = pending_fn.take() {
                    fns.push(FnInfo {
                        name,
                        line,
                        body_start: i,
                        body_end: usize::MAX,
                        is_test: test,
                    });
                    stack.push(Frame::Fn(fns.len() - 1));
                } else {
                    stack.push(Frame::Other(pending_mod_test || in_test_scope));
                    pending_mod_test = false;
                }
                i += 1;
            }
            Tok::RBrace => {
                if let Some(Frame::Fn(idx)) = stack.pop() {
                    fns[idx].body_end = i;
                }
                i += 1;
            }
            Tok::Semi => {
                pending_fn = None;
                pending_mod_test = false;
                attr_test = false;
                attr_cfg_test = false;
                i += 1;
            }
            _ => i += 1,
        }
    }
    fns.retain(|f| f.body_end != usize::MAX);
    fns
}

/// Finds `name: [wrappers<]* Mutex/RwLock <` field declarations and
/// `let name = … Mutex/RwLock::new(…)` bindings.
fn extract_locks(tokens: &[Token]) -> Vec<LockDecl> {
    let mut out: Vec<LockDecl> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let kind = match &t.kind {
            Tok::Ident(s) if s == "Mutex" => LockKind::Mutex,
            Tok::Ident(s) if s == "RwLock" => LockKind::RwLock,
            _ => continue,
        };
        let next = tokens.get(i + 1).map(|t| &t.kind);
        if matches!(next, Some(Tok::Punct('<'))) {
            // Field (or typed binding): walk back over `Wrapper<` pairs
            // and an optional `syd_types::sync::` path prefix to the `:`.
            let mut j = i;
            while j >= 2
                && matches!(tokens[j - 1].kind, Tok::PathSep)
                && matches!(tokens[j - 2].kind, Tok::Ident(_))
            {
                j -= 2;
            }
            while j >= 2
                && matches!(tokens[j - 1].kind, Tok::Punct('<'))
                && matches!(tokens[j - 2].kind, Tok::Ident(_))
            {
                j -= 2;
            }
            if j >= 2 && matches!(tokens[j - 1].kind, Tok::Punct(':')) {
                if let Some(name) = ident(tokens, j - 2) {
                    out.push(LockDecl {
                        name: name.to_string(),
                        kind,
                        line: tokens[j - 2].line,
                    });
                }
            }
        } else if matches!(next, Some(Tok::PathSep)) && ident(tokens, i + 2) == Some("new") {
            // `let name = Arc::new(Mutex::new(..))` — scan back within
            // the statement for `let [mut] name =`.
            let mut j = i;
            while j > 0 {
                match &tokens[j - 1].kind {
                    Tok::Semi | Tok::LBrace | Tok::RBrace => break,
                    _ => j -= 1,
                }
            }
            if ident(tokens, j) == Some("let") {
                let name_idx = if ident(tokens, j + 1) == Some("mut") {
                    j + 2
                } else {
                    j + 1
                };
                if let Some(name) = ident(tokens, name_idx) {
                    // Skip `let _ = …` and typed duplicates of field finds.
                    if name != "_" && !out.iter().any(|d| d.name == name) {
                        out.push(LockDecl {
                            name: name.to_string(),
                            kind,
                            line: tokens[j].line,
                        });
                    }
                }
            }
        }
    }
    out.dedup_by(|a, b| a.name == b.name && a.kind == b.kind);
    out
}

/// Finds `name: Arc<T>` / `name: Weak<T>` field declarations. The type
/// argument is the first identifier inside the angle brackets (skipping
/// a leading path qualifier such as `crate::`).
fn extract_ref_fields(tokens: &[Token]) -> Vec<RefField> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let strong = match &t.kind {
            Tok::Ident(s) if s == "Arc" => true,
            Tok::Ident(s) if s == "Weak" => false,
            _ => continue,
        };
        // `name : Arc <` — field or typed binding position.
        if !matches!(tokens.get(i + 1).map(|t| &t.kind), Some(Tok::Punct('<')))
            || !matches!(
                tokens.get(i.wrapping_sub(1)).map(|t| &t.kind),
                Some(Tok::Punct(':'))
            )
        {
            continue;
        }
        let Some(name) = ident(tokens, i.wrapping_sub(2)) else {
            continue;
        };
        // Type argument: first ident chain after `<`, last path segment.
        let mut j = i + 2;
        let mut ty: Option<&str> = None;
        while let Some(tok) = tokens.get(j) {
            match &tok.kind {
                Tok::Ident(s) => {
                    ty = Some(s);
                    if !matches!(tokens.get(j + 1).map(|t| &t.kind), Some(Tok::PathSep)) {
                        break;
                    }
                    j += 2;
                }
                Tok::PathSep => j += 1,
                _ => break,
            }
        }
        if let Some(ty) = ty {
            out.push(RefField {
                name: name.to_string(),
                ty: ty.to_string(),
                strong,
                line: tokens[i].line,
            });
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;

    #[test]
    fn finds_fns_and_marks_tests() {
        let src = r#"
            pub fn real_work(x: u32) -> u32 { x + 1 }
            #[cfg(test)]
            mod tests {
                #[test]
                fn a_test() { assert!(true); }
                fn helper() {}
            }
        "#;
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let real = f.fns.iter().find(|f| f.name == "real_work");
        let test = f.fns.iter().find(|f| f.name == "a_test");
        let helper = f.fns.iter().find(|f| f.name == "helper");
        assert!(matches!(real, Some(fi) if !fi.is_test));
        assert!(matches!(test, Some(fi) if fi.is_test));
        assert!(matches!(helper, Some(fi) if fi.is_test), "{helper:?}");
    }

    #[test]
    fn test_path_files_are_all_test() {
        let f = SourceFile::parse("crates/x/tests/it.rs", "fn plain() {}");
        assert!(f.fns[0].is_test);
    }

    #[test]
    fn finds_lock_fields_and_bindings() {
        let src = r#"
            struct S {
                state: Mutex<u32>,
                pub(crate) tables: RwLock<HashMap<String, u32>>,
                cache: Arc<syd_types::sync::Mutex<u8>>,
                by_meeting: HashMap<u64, Arc<Mutex<()>>>,
            }
            fn f() {
                let local = Arc::new(RwLock::new(0u32));
            }
        "#;
        let f = SourceFile::parse("crates/x/src/node.rs", src);
        let names: Vec<&str> = f.locks.iter().map(|l| l.name.as_str()).collect();
        assert!(names.contains(&"state"));
        assert!(names.contains(&"tables"));
        assert!(names.contains(&"cache"));
        assert!(names.contains(&"local"));
        // The HashMap value-position Mutex has no field name before `:`
        // going back through wrappers — `by_meeting` is keyed by the map,
        // not the Mutex, so it must not be recorded for the inner lock.
        assert!(!names.contains(&"by_meeting"), "{names:?}");
        assert_eq!(f.lock_id("state"), "node.state");
    }

    #[test]
    fn finds_arc_and_weak_fields() {
        let src = r#"
            struct DeviceRuntime {
                inner: Arc<DeviceInner>,
                backref: Weak<RuntimeInner>,
                qualified: Arc<crate::runtime::RuntimeInner>,
                plain: u32,
            }
        "#;
        let f = SourceFile::parse("crates/x/src/device.rs", src);
        let find = |n: &str| f.ref_fields.iter().find(|r| r.name == n);
        assert!(matches!(find("inner"), Some(r) if r.strong && r.ty == "DeviceInner"));
        assert!(matches!(find("backref"), Some(r) if !r.strong && r.ty == "RuntimeInner"));
        assert!(matches!(find("qualified"), Some(r) if r.strong && r.ty == "RuntimeInner"));
        assert!(find("plain").is_none());
    }

    #[test]
    fn nested_fn_body_ranges_close_correctly() {
        let src = "fn outer() { if x { y(); } } fn after() {}";
        let f = SourceFile::parse("crates/x/src/a.rs", src);
        assert_eq!(f.fns.len(), 2);
        assert!(f.fns[0].body_end < f.fns[1].body_start);
    }
}
