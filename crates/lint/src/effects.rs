//! The effect lattice: per-function summaries propagated to fixpoint
//! over the workspace call graph.
//!
//! Each function gets a set of *effect atoms* — [`Atom::Blocks`],
//! [`Atom::Rpc`], [`Atom::SpawnsThread`], [`Atom::Acquires`] (one per
//! lock id) and [`Atom::CapturesStrong`] (one per runtime-owning type).
//! Intrinsic atoms come from the function's own body; the fixpoint then
//! unions every callee's summary into its callers, so `poll_loop →
//! helper → thread::sleep` surfaces on `poll_loop` even though the
//! sleep is two hops away.
//!
//! Every atom carries an [`Origin`]: either the intrinsic site, or the
//! call edge that imported it. Origins form a DAG (an atom's origin is
//! fixed the first time it appears, before any caller can import it), so
//! [`Effects::chain`] can always render the full `file:line` hop list a
//! diagnostic needs.
//!
//! The blocking matchers here are *narrower* than the intraprocedural
//! poll-loop rule's `forbidden` list: `.join()` and `.recv()` only count
//! with empty argument lists (a thread join / channel receive, not
//! `path.join("x")` or `str::join(sep)`), because a transitive false
//! positive multiplies through every caller.

use crate::callgraph::CallGraph;
use crate::config::Config;
use crate::lexer::Tok;
use crate::source::SourceFile;
use crate::walker::Events;
use std::collections::{BTreeMap, BTreeSet};

/// One element of the effect lattice.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Atom {
    /// May block the calling thread (sleep, channel recv, thread join).
    Blocks,
    /// Performs (or dispatches) a remote call.
    Rpc,
    /// Spawns a thread.
    SpawnsThread,
    /// Acquires the named lock.
    Acquires(String),
    /// Registers a closure holding a strong `Arc` of a runtime-owning
    /// type on shared infrastructure (runtime loop / worker pool).
    CapturesStrong(String),
}

impl Atom {
    /// Short human label for chain rendering.
    pub fn label(&self) -> String {
        match self {
            Atom::Blocks => "blocks".into(),
            Atom::Rpc => "performs RPC".into(),
            Atom::SpawnsThread => "spawns thread".into(),
            Atom::Acquires(l) => format!("acquires `{l}`"),
            Atom::CapturesStrong(t) => format!("captures strong `{t}`"),
        }
    }
}

/// Where an atom in a function's summary came from.
#[derive(Debug, Clone)]
pub enum Origin {
    /// The effect happens in the function's own body.
    Intrinsic {
        /// File of the effect site.
        file: String,
        /// Line of the effect site.
        line: u32,
        /// Rendered site (`thread::sleep`, `.recv`, lock id, …).
        what: String,
    },
    /// The effect was imported from a callee.
    Call {
        /// File of the call site.
        file: String,
        /// Line of the call site.
        line: u32,
        /// Callee node id in the call graph.
        callee: usize,
    },
}

/// A strong-capture registration site (input to `strong-capture-cycle`).
#[derive(Debug, Clone)]
pub struct StrongCapture {
    /// Runtime-owning type captured.
    pub ty: String,
    /// The binding name carried into the closure.
    pub binding: String,
    /// The registration method (`register_periodic`, `schedule_periodic`, …).
    pub reg_method: String,
    /// File of the registration call.
    pub file: String,
    /// Line of the registration call.
    pub line: u32,
    /// Enclosing function.
    pub function: String,
    /// Whether the enclosing function is test code.
    pub is_test: bool,
}

/// Per-function effect summaries over a call graph.
#[derive(Debug, Default)]
pub struct Effects {
    /// `summaries[node] = atom → origin`.
    pub summaries: Vec<BTreeMap<Atom, Origin>>,
    /// Strong-capture registration sites, in file order.
    pub captures: Vec<StrongCapture>,
}

impl Effects {
    /// Seeds intrinsic effects and propagates them to fixpoint.
    pub fn compute(
        files: &[SourceFile],
        events: &Events,
        graph: &CallGraph,
        config: &Config,
    ) -> Effects {
        let mut eff = Effects {
            summaries: vec![BTreeMap::new(); graph.nodes.len()],
            captures: Vec::new(),
        };
        let file_idx: BTreeMap<&str, usize> = files
            .iter()
            .enumerate()
            .map(|(i, f)| (f.path.as_str(), i))
            .collect();
        let node_of = |file: &str, caller_start: usize| -> Option<usize> {
            graph.node_at(*file_idx.get(file)?, caller_start)
        };

        // Intrinsic: lock acquisitions.
        for a in &events.acquisitions {
            if a.is_test {
                continue;
            }
            if let Some(n) = node_of(&a.file, a.caller_start) {
                eff.summaries[n]
                    .entry(Atom::Acquires(a.id.clone()))
                    .or_insert(Origin::Intrinsic {
                        file: a.file.clone(),
                        line: a.line,
                        what: a.id.clone(),
                    });
            }
        }

        // Intrinsic: RPC, blocking and thread-spawn call sites. Calls
        // inside spawn/registration closures run on another thread and
        // contribute nothing to the enclosing function's summary.
        for c in &events.calls {
            if c.is_test || c.in_spawn {
                continue;
            }
            let Some(n) = node_of(&c.file, c.caller_start) else {
                continue;
            };
            let mut put = |atom: Atom, what: String| {
                eff.summaries[n].entry(atom).or_insert(Origin::Intrinsic {
                    file: c.file.clone(),
                    line: c.line,
                    what,
                });
            };
            if c.is_rpc {
                put(Atom::Rpc, format!(".{}", c.name));
            }
            let qualified = c.qualifier.as_deref().map(|q| format!("{q}::{}", c.name));
            if let Some(q) = &qualified {
                if config.blocking_qualified.iter().any(|b| b == q) {
                    put(Atom::Blocks, q.clone());
                }
                if q == "thread::spawn" {
                    put(Atom::SpawnsThread, q.clone());
                }
            }
            if c.is_method {
                let zero = config.blocking_zero_arg.iter().any(|b| b == &c.name);
                let any = config.blocking_any_arg.iter().any(|b| b == &c.name);
                if (zero && c.empty_args) || any {
                    put(Atom::Blocks, format!(".{}", c.name));
                }
                if c.name == "spawn" {
                    put(Atom::SpawnsThread, format!(".{}", c.name));
                }
            }
        }

        // Intrinsic: strong captures at registration sites.
        let strong_fields = build_strong_field_table(files, config);
        for f in files {
            scan_strong_captures(f, &strong_fields, config, &mut eff.captures);
        }
        for cap in &eff.captures {
            if cap.is_test {
                continue;
            }
            // Attribute to the enclosing fn via name lookup within file.
            let Some(&fi) = file_idx.get(cap.file.as_str()) else {
                continue;
            };
            let Some(func) = files[fi].fns.iter().find(|fn_| fn_.name == cap.function) else {
                continue;
            };
            if let Some(n) = graph.node_at(fi, func.body_start) {
                eff.summaries[n]
                    .entry(Atom::CapturesStrong(cap.ty.clone()))
                    .or_insert(Origin::Intrinsic {
                        file: cap.file.clone(),
                        line: cap.line,
                        what: format!("{}(move || …{}…)", cap.reg_method, cap.binding),
                    });
            }
        }

        // Fixpoint: union callee summaries into callers. Monotone over a
        // finite lattice, so the loop terminates even on recursion.
        loop {
            let mut changed = false;
            for e in &graph.edges {
                if e.caller == e.callee {
                    continue;
                }
                let imported: Vec<Atom> = eff.summaries[e.callee]
                    .keys()
                    .filter(|a| !eff.summaries[e.caller].contains_key(*a))
                    .cloned()
                    .collect();
                for atom in imported {
                    eff.summaries[e.caller].insert(
                        atom,
                        Origin::Call {
                            file: e.file.clone(),
                            line: e.line,
                            callee: e.callee,
                        },
                    );
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        eff
    }

    /// Whether `node`'s summary contains `atom`.
    pub fn has(&self, node: usize, atom: &Atom) -> bool {
        self.summaries[node].contains_key(atom)
    }

    /// Renders the full call chain for `atom` on `node`:
    /// `helper (a.rs:10) -> inner (b.rs:4) -> `thread::sleep` (b.rs:9)`.
    pub fn chain(&self, graph: &CallGraph, node: usize, atom: &Atom) -> String {
        let mut hops = Vec::new();
        let mut cur = node;
        let mut guard = 0;
        while let Some(origin) = self.summaries[cur].get(atom) {
            guard += 1;
            if guard > 64 {
                hops.push("…".to_string());
                break;
            }
            match origin {
                Origin::Intrinsic { file, line, what } => {
                    hops.push(format!("`{what}` ({file}:{line})"));
                    break;
                }
                Origin::Call { file, line, callee } => {
                    hops.push(format!("{} ({file}:{line})", graph.nodes[*callee].name));
                    cur = *callee;
                }
            }
        }
        hops.join(" -> ")
    }

    /// The first hop of the chain (the call/effect site inside `node`) —
    /// where the diagnostic anchors.
    pub fn site(&self, node: usize, atom: &Atom) -> Option<(String, u32)> {
        match self.summaries[node].get(atom)? {
            Origin::Intrinsic { file, line, .. } | Origin::Call { file, line, .. } => {
                Some((file.clone(), *line))
            }
        }
    }
}

/// Global `field name → runtime-owning type` table for strong `Arc<T>`
/// fields. Unique names win; an ambiguous name (declared with different
/// types in different files) is dropped.
fn build_strong_field_table(files: &[SourceFile], config: &Config) -> BTreeMap<String, String> {
    let mut table: BTreeMap<String, String> = BTreeMap::new();
    let mut ambiguous: BTreeSet<String> = BTreeSet::new();
    for f in files {
        for rf in &f.ref_fields {
            if !rf.strong || !config.runtime_owning.iter().any(|t| t == &rf.ty) {
                continue;
            }
            match table.get(&rf.name) {
                Some(ty) if ty != &rf.ty => {
                    ambiguous.insert(rf.name.clone());
                }
                _ => {
                    table.insert(rf.name.clone(), rf.ty.clone());
                }
            }
        }
    }
    for name in ambiguous {
        table.remove(&name);
    }
    table
}

/// Scans one file for closures handed to configured registration methods
/// that capture a strong binding of a runtime-owning type.
///
/// Binding model (token-level, sequential within each function):
/// * `let b = Arc::clone(&…field)` / `let b = …field.clone()` where
///   `field` is a strong `Arc<T>` field of a runtime-owning `T` → `b`
///   is a strong handle.
/// * `let b = Arc::clone(&other)` where `other` is already strong →
///   strength propagates.
/// * `let b = Arc::downgrade(&…)` → weak; never flagged.
///
/// Registration: `recv.M(…, move |…| body)` with `M` in
/// `registration_methods`; any identifier in `body` (excluding closure
/// parameters and member accesses) naming a strong binding fires.
fn scan_strong_captures(
    file: &SourceFile,
    strong_fields: &BTreeMap<String, String>,
    config: &Config,
    out: &mut Vec<StrongCapture>,
) {
    let t = &file.tokens;
    let ident = |i: usize| match t.get(i).map(|x| &x.kind) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    };
    for func in &file.fns {
        // Strong bindings established so far in this function.
        let mut strong: BTreeMap<String, String> = BTreeMap::new();
        let mut weak: BTreeSet<String> = BTreeSet::new();
        let mut i = func.body_start + 1;
        while i < func.body_end {
            // `let [mut] NAME = …`
            if ident(i) == Some("let") {
                let name_idx = if ident(i + 1) == Some("mut") {
                    i + 2
                } else {
                    i + 1
                };
                if let (Some(name), Some(Tok::Punct('='))) =
                    (ident(name_idx), t.get(name_idx + 1).map(|x| &x.kind))
                {
                    let rhs = name_idx + 2;
                    // Arc::clone(&PATH) / Arc::downgrade(&PATH)
                    if ident(rhs) == Some("Arc")
                        && matches!(t.get(rhs + 1).map(|x| &x.kind), Some(Tok::PathSep))
                    {
                        let method = ident(rhs + 2);
                        let src = last_ident_before_close(t, rhs + 3, func.body_end);
                        match (method, src) {
                            (Some("downgrade"), _) => {
                                weak.insert(name.to_string());
                            }
                            (Some("clone"), Some(src)) => {
                                if let Some(ty) = strong_of(src, &strong, &weak, strong_fields) {
                                    strong.insert(name.to_string(), ty);
                                }
                            }
                            _ => {}
                        }
                    }
                    // PATH.clone()
                    else if let Some(dot) = find_clone_call(t, rhs, func.body_end) {
                        if let Some(src) = ident(dot.wrapping_sub(1)) {
                            if let Some(ty) = strong_of(src, &strong, &weak, strong_fields) {
                                strong.insert(name.to_string(), ty);
                            }
                        }
                    }
                }
            }
            // Registration call: `.M(` with M configured.
            if let Some(m) = ident(i) {
                if config.registration_methods.iter().any(|r| r == m)
                    && matches!(t.get(i.wrapping_sub(1)).map(|x| &x.kind), Some(Tok::Dot))
                    && matches!(t.get(i + 1).map(|x| &x.kind), Some(Tok::LParen))
                {
                    let close = match_paren(t, i + 1, func.body_end);
                    if let Some((binding, ty)) = closure_strong_capture(t, i + 2, close, &strong) {
                        out.push(StrongCapture {
                            ty,
                            binding,
                            reg_method: m.to_string(),
                            file: file.path.clone(),
                            line: t[i].line,
                            function: func.name.clone(),
                            is_test: func.is_test,
                        });
                    }
                }
            }
            i += 1;
        }
    }
}

/// Strength of `src`: a local strong binding, or a strong runtime-owning
/// field (unless locally rebound weak).
fn strong_of(
    src: &str,
    strong: &BTreeMap<String, String>,
    weak: &BTreeSet<String>,
    strong_fields: &BTreeMap<String, String>,
) -> Option<String> {
    if weak.contains(src) {
        return None;
    }
    strong.get(src).or_else(|| strong_fields.get(src)).cloned()
}

/// Last identifier before the `)` closing the paren opened at or after
/// `from` — the field name in `Arc::clone(&self.inner)`.
fn last_ident_before_close(t: &[crate::lexer::Token], from: usize, end: usize) -> Option<&str> {
    let open = (from..end).find(|&i| matches!(t[i].kind, Tok::LParen))?;
    let close = match_paren(t, open, end);
    let mut last = None;
    for tok in t.get(open + 1..close)? {
        if let Tok::Ident(s) = &tok.kind {
            last = Some(s.as_str());
        }
    }
    last
}

/// Does the statement starting at `rhs` end in `.clone()`? Returns the
/// index of the `clone` token.
fn find_clone_call(t: &[crate::lexer::Token], rhs: usize, end: usize) -> Option<usize> {
    let mut i = rhs;
    while i < end {
        match &t[i].kind {
            Tok::Semi => return None,
            Tok::Ident(s)
                if s == "clone"
                    && matches!(t.get(i.wrapping_sub(1)).map(|x| &x.kind), Some(Tok::Dot))
                    && matches!(t.get(i + 1).map(|x| &x.kind), Some(Tok::LParen))
                    && matches!(t.get(i + 2).map(|x| &x.kind), Some(Tok::RParen)) =>
            {
                return Some(i)
            }
            _ => i += 1,
        }
    }
    None
}

/// Index of the `)` matching the `(` at `open` (bounded by `end`).
fn match_paren(t: &[crate::lexer::Token], open: usize, end: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < end.min(t.len()) {
        match t[i].kind {
            Tok::LParen => depth += 1,
            Tok::RParen => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    end.min(t.len().saturating_sub(1))
}

/// Finds a `move |…| body` closure inside the argument range and returns
/// the first captured identifier that names a strong binding.
fn closure_strong_capture(
    t: &[crate::lexer::Token],
    args_start: usize,
    args_end: usize,
    strong: &BTreeMap<String, String>,
) -> Option<(String, String)> {
    let mut i = args_start;
    while i < args_end {
        if matches!(&t[i].kind, Tok::Ident(s) if s == "move")
            && matches!(t.get(i + 1).map(|x| &x.kind), Some(Tok::Punct('|')))
        {
            // Closure params: idents until the closing `|` (or `||`).
            let mut params: BTreeSet<&str> = BTreeSet::new();
            let mut j = i + 2;
            while j < args_end && !matches!(t[j].kind, Tok::Punct('|')) {
                if let Tok::Ident(s) = &t[j].kind {
                    params.insert(s.as_str());
                }
                j += 1;
            }
            // Body: to the end of this argument (the closure is in tail
            // position at every real registration site, so scanning to
            // the call's `)` is exact enough).
            for k in j + 1..args_end {
                let Tok::Ident(s) = &t[k].kind else { continue };
                if params.contains(s.as_str()) {
                    continue;
                }
                // Skip member accesses (`x.inner`) and path segments.
                if matches!(
                    t.get(k.wrapping_sub(1)).map(|x| &x.kind),
                    Some(Tok::Dot | Tok::PathSep)
                ) {
                    continue;
                }
                if let Some(ty) = strong.get(s.as_str()) {
                    return Some((s.clone(), ty.clone()));
                }
            }
            return None;
        }
        i += 1;
    }
    None
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use crate::walker::{self, LockTable, WalkRules};

    fn compute(files: &[(&str, &str)]) -> (Vec<SourceFile>, CallGraph, Effects) {
        let config = Config::default();
        let parsed: Vec<SourceFile> = files.iter().map(|(p, s)| SourceFile::parse(p, s)).collect();
        let table = LockTable::build(&parsed);
        let detached = crate::rules::detached_callees(&config);
        let rules = WalkRules {
            rpc_methods: &config.rpc_methods,
            rpc_qualified: &config.rpc_qualified,
            forbidden: &config.poll_forbidden,
            detached: &detached,
        };
        let mut events = Events::default();
        for f in &parsed {
            walker::walk_file(f, &table, &rules, &mut events);
        }
        let graph = CallGraph::build(&parsed, &events.calls, &config);
        let eff = Effects::compute(&parsed, &events, &graph, &config);
        (parsed, graph, eff)
    }

    fn node_named(graph: &CallGraph, name: &str) -> usize {
        graph
            .nodes
            .iter()
            .position(|n| n.name == name)
            .unwrap_or_else(|| panic!("no node {name}"))
    }

    #[test]
    fn blocking_propagates_through_two_hops() {
        let (_, graph, eff) = compute(&[(
            "crates/a/src/pipe.rs",
            "fn deep() { thread::sleep(d); }\n\
             fn middle() { deep(); }\n\
             fn top() { middle(); }",
        )]);
        let top = node_named(&graph, "top");
        assert!(eff.has(top, &Atom::Blocks));
        let chain = eff.chain(&graph, top, &Atom::Blocks);
        assert!(
            chain.contains("middle") && chain.contains("deep") && chain.contains("thread::sleep"),
            "{chain}"
        );
    }

    #[test]
    fn path_join_with_args_is_not_blocking() {
        let (_, graph, eff) = compute(&[(
            "crates/a/src/pathy.rs",
            "fn f(p: &Path) { let q = p.join(\"x\"); let parts = v.join(\", \"); }",
        )]);
        let f = node_named(&graph, "f");
        assert!(!eff.has(f, &Atom::Blocks));
    }

    #[test]
    fn zero_arg_join_and_recv_block() {
        let (_, graph, eff) = compute(&[(
            "crates/a/src/thready.rs",
            "fn f(h: JoinHandle<()>) { h.join(); }\nfn g(rx: Receiver<u8>) { rx.recv(); }",
        )]);
        assert!(eff.has(node_named(&graph, "f"), &Atom::Blocks));
        assert!(eff.has(node_named(&graph, "g"), &Atom::Blocks));
    }

    #[test]
    fn acquires_propagates_with_lock_id() {
        let (_, graph, eff) = compute(&[(
            "crates/a/src/store.rs",
            "struct S { tables: Mutex<u8> }\n\
             impl S { fn low(&self) { let g = self.tables.lock(); } \
                      fn high(&self) { self.low(); } }",
        )]);
        let high = node_named(&graph, "high");
        assert!(eff.has(high, &Atom::Acquires("store.tables".into())));
    }

    #[test]
    fn recursion_reaches_fixpoint() {
        let (_, graph, eff) = compute(&[(
            "crates/a/src/rec.rs",
            "fn ping(n: u8) { pong(n); }\n\
             fn pong(n: u8) { ping(n); thread::sleep(d); }",
        )]);
        assert!(eff.has(node_named(&graph, "ping"), &Atom::Blocks));
        assert!(eff.has(node_named(&graph, "pong"), &Atom::Blocks));
        // Chains terminate despite the cycle.
        let chain = eff.chain(&graph, node_named(&graph, "ping"), &Atom::Blocks);
        assert!(chain.contains("thread::sleep"), "{chain}");
    }

    #[test]
    fn strong_capture_detected_and_weak_is_clean() {
        let (_, _, eff) = compute(&[(
            "crates/a/src/device.rs",
            "struct DeviceRuntime { inner: Arc<DeviceInner> }\n\
             impl DeviceRuntime {\n\
               fn leaky(&self) {\n\
                 let inner = Arc::clone(&self.inner);\n\
                 self.events.register_periodic(\"t\", d, move || { inner.scan(); });\n\
               }\n\
               fn fixed(&self) {\n\
                 let inner = Arc::downgrade(&self.inner);\n\
                 self.events.register_periodic(\"t\", d, move || { if let Some(i) = inner.upgrade() { i.scan(); } });\n\
               }\n\
             }",
        )]);
        assert_eq!(eff.captures.len(), 1, "{:?}", eff.captures);
        assert_eq!(eff.captures[0].ty, "DeviceInner");
        assert_eq!(eff.captures[0].binding, "inner");
        assert_eq!(eff.captures[0].function, "leaky");
    }
}
