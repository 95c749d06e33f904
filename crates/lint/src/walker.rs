//! The scope walker: tracks lock-guard liveness through a function body
//! and emits the events the concurrency rules consume — nested-acquisition
//! edges, RPC calls made while a guard is live, and blocking calls.
//!
//! Guard-lifetime model (edition 2021):
//! * `let g = x.lock();` — guard lives to the end of the enclosing block
//!   or an explicit `drop(g)`. Handing it through a condvar wait
//!   (`g = cv.wait(g);`, as `std::sync` has it) keeps the same guard live.
//! * `x.lock().f();` and chained uses — temporary, dropped at the end of
//!   the statement (`;` or `,` at bracket depth 0).
//! * locks acquired in an `if let` / `match` / `while` header — held for
//!   the attached block(s), including `else` chains (scrutinee temporary
//!   scope).
//!
//! Known limits (token-level, no types): guards returned out of a
//! function or bound through destructuring are treated as temporaries,
//! and a closure body is analyzed with the guards live at its definition
//! site (right for inline iterator closures, conservative for spawns).

use crate::lexer::{Tok, Token};
use crate::source::{FnInfo, LockKind, SourceFile};

/// A nested acquisition: `to` acquired while `from` was held.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Lock held.
    pub from: String,
    /// Lock acquired under it.
    pub to: String,
    /// File of the inner acquisition.
    pub file: String,
    /// Line of the inner acquisition.
    pub line: u32,
    /// Enclosing function.
    pub function: String,
    /// Whether the enclosing function is test code.
    pub is_test: bool,
}

/// An RPC-ish call made while at least one guard was live.
#[derive(Debug, Clone)]
pub struct RpcWhileHeld {
    /// The method called (`invoke_group`, `send`, …).
    pub method: String,
    /// Guards live at the call: (lock id, acquisition line).
    pub held: Vec<(String, u32)>,
    /// File / line / function of the call.
    pub file: String,
    /// Line of the call.
    pub line: u32,
    /// Enclosing function.
    pub function: String,
    /// Whether the enclosing function is test code.
    pub is_test: bool,
}

/// A potentially blocking call (rule filters by enclosing function).
#[derive(Debug, Clone)]
pub struct BlockingCall {
    /// Rendered callee (`thread::sleep`, `.recv`, …).
    pub callee: String,
    /// File of the call.
    pub file: String,
    /// Line of the call.
    pub line: u32,
    /// Enclosing function.
    pub function: String,
    /// Whether the enclosing function is test code.
    pub is_test: bool,
}

/// Any call site: `name(…)`, `recv.name(…)` or `qual::name(…)`. The
/// call-graph builder resolves these to workspace functions; the guard
/// snapshot powers the interprocedural lock/RPC rules.
#[derive(Debug, Clone)]
pub struct CallEvent {
    /// Callee name (last segment).
    pub name: String,
    /// Ident immediately before `.name(` (`node` in `self.node.f()`),
    /// when it is a plain ident.
    pub receiver: Option<String>,
    /// Ident immediately before `::name(`.
    pub qualifier: Option<String>,
    /// True for `recv.name(…)` calls, even when the receiver is not a
    /// plain ident (chained calls).
    pub is_method: bool,
    /// True when the argument list is empty (`()`).
    pub empty_args: bool,
    /// True when the callee is a configured RPC method (already covered
    /// by the direct guard-across-rpc rule when guards are held).
    pub is_rpc: bool,
    /// True when the call site sits inside the argument list of a
    /// thread-detaching call (`spawn`, `execute`, `schedule*`, …): the
    /// callee runs on another thread, so the caller does not inherit its
    /// blocking/RPC/lock effects.
    pub in_spawn: bool,
    /// Guards live at the call: (lock id, acquisition line).
    pub held: Vec<(String, u32)>,
    /// File of the call.
    pub file: String,
    /// Line of the call.
    pub line: u32,
    /// `body_start` token index of the enclosing function (unique per
    /// file — the call-graph key).
    pub caller_start: usize,
    /// Enclosing function name.
    pub function: String,
    /// Whether the enclosing function is test code.
    pub is_test: bool,
}

/// Every lock acquisition, independent of what else was held.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Qualified lock id.
    pub id: String,
    /// File of the acquisition.
    pub file: String,
    /// Line of the acquisition.
    pub line: u32,
    /// `body_start` token index of the enclosing function.
    pub caller_start: usize,
    /// Whether the enclosing function is test code.
    pub is_test: bool,
}

/// Walker output for a whole file set.
#[derive(Debug, Default)]
pub struct Events {
    /// Nested lock acquisitions.
    pub edges: Vec<Edge>,
    /// RPCs under a live guard.
    pub rpcs: Vec<RpcWhileHeld>,
    /// Blocking calls (everywhere; rules filter by function).
    pub blocking: Vec<BlockingCall>,
    /// Every call site, with the live-guard snapshot.
    pub calls: Vec<CallEvent>,
    /// Every lock acquisition.
    pub acquisitions: Vec<Acquisition>,
}

/// Resolves `receiver.lock()`-style acquisitions to qualified lock ids.
pub struct LockTable {
    /// (field name, kind) → declaring file stems.
    entries: Vec<(String, LockKind, String)>,
}

impl LockTable {
    /// Builds the global table from every scanned file.
    pub fn build(files: &[SourceFile]) -> LockTable {
        let mut entries = Vec::new();
        for f in files {
            for d in &f.locks {
                entries.push((d.name.clone(), d.kind, f.stem.clone()));
            }
        }
        LockTable { entries }
    }

    /// Resolves a receiver segment + acquisition method to a lock id.
    /// Prefers a declaration in `file`; falls back to a globally unique
    /// declaration; `None` when unknown or ambiguous (io `read`/`write`
    /// and foreign receivers fall out here).
    fn resolve(&self, file: &SourceFile, seg: &str, kind: LockKind) -> Option<String> {
        if file.locks.iter().any(|d| d.name == seg && d.kind == kind) {
            return Some(file.lock_id(seg));
        }
        let mut hits = self
            .entries
            .iter()
            .filter(|(n, k, _)| n == seg && *k == kind)
            .map(|(_, _, stem)| stem);
        match (hits.next(), hits.next()) {
            (Some(stem), None) => Some(format!("{stem}.{seg}")),
            _ => None,
        }
    }
}

/// Method-name sets the walker matches against.
pub struct WalkRules<'a> {
    /// Plain RPC method names.
    pub rpc_methods: &'a [String],
    /// `receiver.method` qualified RPC pairs.
    pub rpc_qualified: &'a [String],
    /// Forbidden (blocking) callee names.
    pub forbidden: &'a [String],
    /// Callees whose closure arguments run on another thread (`spawn`
    /// plus the configured registration methods); calls inside their
    /// argument lists get [`CallEvent::in_spawn`].
    pub detached: &'a [String],
}

#[derive(Debug, Clone)]
struct Held {
    id: String,
    binding: Option<String>,
    line: u32,
}

struct Walker<'a> {
    file: &'a SourceFile,
    func: &'a FnInfo,
    table: &'a LockTable,
    rules: &'a WalkRules<'a>,
    held: Vec<Held>,
    /// Token ranges (exclusive of the callee ident) of thread-detaching
    /// argument lists within this function body.
    detached: Vec<(usize, usize)>,
    out: &'a mut Events,
}

/// Walks every function of `file`, appending events to `out`.
pub fn walk_file(file: &SourceFile, table: &LockTable, rules: &WalkRules<'_>, out: &mut Events) {
    for func in &file.fns {
        // Nested fns are walked on their own; skip the outer copy of an
        // inner fn's body by walking only tokens outside child fns.
        let detached =
            detached_ranges(&file.tokens, func.body_start, func.body_end, rules.detached);
        let mut w = Walker {
            file,
            func,
            table,
            rules,
            held: Vec::new(),
            detached,
            out,
        };
        w.walk_block(func.body_start + 1, func.body_end);
    }
}

/// Argument-list token ranges of calls to thread-detaching methods.
fn detached_ranges(
    tokens: &[Token],
    start: usize,
    end: usize,
    names: &[String],
) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in start..end.min(tokens.len()) {
        let Tok::Ident(s) = &tokens[i].kind else {
            continue;
        };
        if !names.iter().any(|n| n == s)
            || !matches!(tokens.get(i + 1).map(|t| &t.kind), Some(Tok::LParen))
        {
            continue;
        }
        let mut depth = 0usize;
        let mut j = i + 1;
        while j < end.min(tokens.len()) {
            match tokens[j].kind {
                Tok::LParen => depth += 1,
                Tok::RParen => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        out.push((i + 1, j));
    }
    out
}

fn match_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        match t.kind {
            Tok::LBrace => depth += 1,
            Tok::RBrace => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    tokens.len() - 1
}

const MUTEX_METHODS: &[&str] = &["lock", "try_lock"];
const RWLOCK_METHODS: &[&str] = &["read", "write", "try_read", "try_write"];

impl Walker<'_> {
    fn ident(&self, i: usize) -> Option<&str> {
        match self.file.tokens.get(i).map(|t| &t.kind) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    fn kind(&self, i: usize) -> Option<&Tok> {
        self.file.tokens.get(i).map(|t| &t.kind)
    }

    /// Walks tokens in `[start, end)` (inside one brace pair).
    #[allow(clippy::too_many_lines)]
    fn walk_block(&mut self, start: usize, end: usize) {
        let base = self.held.len();
        let mut stmt_temps: Vec<Held> = Vec::new();
        let mut stmt_start = start;
        let mut depth = 0usize; // parens + brackets
        let mut angle = 0usize; // turbofish `::<…>` generic-args depth
        let mut i = start;

        while i < end {
            match &self.file.tokens[i].kind {
                Tok::LParen | Tok::LBracket => {
                    depth += 1;
                    i += 1;
                }
                Tok::RParen | Tok::RBracket => {
                    depth = depth.saturating_sub(1);
                    i += 1;
                }
                // Turbofish: commas inside `get::<A, B>(…)` are argument
                // separators of the *type* list, not statement boundaries.
                Tok::PathSep if matches!(self.kind(i + 1), Some(Tok::Punct('<'))) => {
                    angle += 1;
                    i += 2;
                }
                Tok::Punct('<') if angle > 0 => {
                    angle += 1;
                    i += 1;
                }
                Tok::Punct('>') if angle > 0 => {
                    // `->` inside a turbofished `fn` type is not a closer.
                    if !matches!(self.kind(i.wrapping_sub(1)), Some(Tok::Punct('-'))) {
                        angle -= 1;
                    }
                    i += 1;
                }
                Tok::LBrace => {
                    // Header guards (if-let / match scrutinee) stay held
                    // through the attached block.
                    let m = match_brace(&self.file.tokens, i);
                    let promoted = stmt_temps.len();
                    self.held.append(&mut stmt_temps);
                    // Skip the bodies of nested `fn` items — they are
                    // walked as their own functions.
                    if !self.is_nested_fn_body(i) {
                        self.walk_block(i + 1, m);
                    }
                    for _ in 0..promoted {
                        if let Some(h) = self.held.pop() {
                            stmt_temps.push(h);
                        }
                    }
                    stmt_temps.reverse();
                    let else_follows = matches!(self.ident(m + 1), Some("else"));
                    if !else_follows && depth == 0 {
                        stmt_temps.clear();
                        stmt_start = m + 1;
                    }
                    i = m + 1;
                }
                Tok::RBrace => {
                    // Unbalanced only if ranges are wrong; stop cleanly.
                    i += 1;
                }
                Tok::Semi if depth == 0 => {
                    // A `;` at paren depth 0 cannot be inside generic
                    // args — also resets a desynced angle count.
                    angle = 0;
                    stmt_temps.clear();
                    stmt_start = i + 1;
                    i += 1;
                }
                Tok::Comma if depth == 0 && angle == 0 => {
                    stmt_temps.clear();
                    stmt_start = i + 1;
                    i += 1;
                }
                Tok::Ident(name) => {
                    if self.try_drop(i, &mut stmt_temps)
                        || self.try_lock_acq(i, stmt_start, &mut stmt_temps)
                        || self.try_call(i, name, &stmt_temps)
                    {
                        // handled; all matchers advance by one token
                    }
                    i += 1;
                }
                _ => i += 1,
            }
        }
        self.held.truncate(base);
    }

    /// Is the brace at `open` the body of a nested `fn` item?
    fn is_nested_fn_body(&self, open: usize) -> bool {
        self.file
            .fns
            .iter()
            .any(|f| f.body_start == open && f.body_start != self.func.body_start)
    }

    /// `drop(name)` releases a named guard early.
    fn try_drop(&mut self, i: usize, stmt_temps: &mut Vec<Held>) -> bool {
        if self.ident(i) != Some("drop") || !matches!(self.kind(i + 1), Some(Tok::LParen)) {
            return false;
        }
        let (Some(name), Some(Tok::RParen)) = (self.ident(i + 2), self.kind(i + 3)) else {
            return false;
        };
        let name = name.to_string();
        self.held
            .retain(|h| h.binding.as_deref() != Some(name.as_str()));
        stmt_temps.retain(|h| h.binding.as_deref() != Some(name.as_str()));
        true
    }

    /// `receiver.lock()` / `.read()` / … acquisition.
    fn try_lock_acq(&mut self, i: usize, stmt_start: usize, stmt_temps: &mut Vec<Held>) -> bool {
        let Some(method) = self.ident(i) else {
            return false;
        };
        let kind = if MUTEX_METHODS.contains(&method) {
            LockKind::Mutex
        } else if RWLOCK_METHODS.contains(&method) {
            LockKind::RwLock
        } else {
            return false;
        };
        if !matches!(self.kind(i.wrapping_sub(1)), Some(Tok::Dot))
            || !matches!(self.kind(i + 1), Some(Tok::LParen))
            || !matches!(self.kind(i + 2), Some(Tok::RParen))
        {
            return false;
        }
        let Some(seg) = self.ident(i.wrapping_sub(2)) else {
            return false;
        };
        let Some(id) = self.table.resolve(self.file, seg, kind) else {
            return false;
        };
        let line = self.file.tokens[i].line;
        self.out.acquisitions.push(Acquisition {
            id: id.clone(),
            file: self.file.path.clone(),
            line,
            caller_start: self.func.body_start,
            is_test: self.func.is_test,
        });
        for h in self.held.iter().chain(stmt_temps.iter()) {
            self.out.edges.push(Edge {
                from: h.id.clone(),
                to: id.clone(),
                file: self.file.path.clone(),
                line,
                function: self.func.name.clone(),
                is_test: self.func.is_test,
            });
        }
        // Scope: `let g = x.lock();` → block guard; anything chained or
        // non-let → statement temporary (header temps are promoted by
        // the block logic).
        let after = i + 3;
        let chained = matches!(self.kind(after), Some(Tok::Dot));
        let is_let = self.ident(stmt_start) == Some("let");
        let binding = if !chained && is_let {
            let name_idx = if self.ident(stmt_start + 1) == Some("mut") {
                stmt_start + 2
            } else {
                stmt_start + 1
            };
            self.ident(name_idx).map(str::to_string)
        } else {
            None
        };
        let held = Held { id, binding, line };
        if held.binding.is_some() && matches!(self.kind(after), Some(Tok::Semi)) {
            self.held.push(held);
        } else {
            stmt_temps.push(held);
        }
        true
    }

    /// Any call site: records a [`CallEvent`] for the call-graph, plus
    /// the direct RPC-under-guard and blocking events the intraprocedural
    /// rules consume.
    fn try_call(&mut self, i: usize, name: &str, stmt_temps: &[Held]) -> bool {
        if !matches!(self.kind(i + 1), Some(Tok::LParen)) {
            return false;
        }
        let (receiver, qualifier, is_method) = match self.kind(i.wrapping_sub(1)) {
            Some(Tok::Dot) => (
                self.ident(i.wrapping_sub(2)).map(str::to_string),
                None,
                true,
            ),
            Some(Tok::PathSep) => (
                None,
                self.ident(i.wrapping_sub(2)).map(str::to_string),
                false,
            ),
            // `fn name(` is a nested item signature, not a call; control
            // keywords take parenthesized expressions, not arguments.
            Some(Tok::Ident(kw)) if kw == "fn" => return false,
            _ if CALL_KEYWORDS.contains(&name) => return false,
            _ => (None, None, false),
        };

        let plain_rpc = self.rules.rpc_methods.iter().any(|m| m == name);
        let qualified_rpc = receiver.as_deref().is_some_and(|recv| {
            self.rules
                .rpc_qualified
                .iter()
                .any(|q| q.as_str() == format!("{recv}.{name}"))
        });
        let is_rpc = (is_method && plain_rpc) || qualified_rpc;

        let held: Vec<(String, u32)> = self
            .held
            .iter()
            .chain(stmt_temps.iter())
            .map(|h| (h.id.clone(), h.line))
            .collect();

        if is_rpc && !held.is_empty() {
            self.out.rpcs.push(RpcWhileHeld {
                method: name.to_string(),
                held: held.clone(),
                file: self.file.path.clone(),
                line: self.file.tokens[i].line,
                function: self.func.name.clone(),
                is_test: self.func.is_test,
            });
        }

        if self.rules.forbidden.iter().any(|m| m == name) {
            let callee = if is_method {
                Some(format!(".{name}"))
            } else {
                qualifier.as_deref().map(|q| format!("{q}::{name}"))
            };
            if let Some(callee) = callee {
                self.out.blocking.push(BlockingCall {
                    callee,
                    file: self.file.path.clone(),
                    line: self.file.tokens[i].line,
                    function: self.func.name.clone(),
                    is_test: self.func.is_test,
                });
            }
        }

        self.out.calls.push(CallEvent {
            name: name.to_string(),
            receiver,
            qualifier,
            is_method,
            empty_args: matches!(self.kind(i + 2), Some(Tok::RParen)),
            is_rpc,
            in_spawn: self.detached.iter().any(|&(s, e)| s < i && i < e),
            held,
            file: self.file.path.clone(),
            line: self.file.tokens[i].line,
            caller_start: self.func.body_start,
            function: self.func.name.clone(),
            is_test: self.func.is_test,
        });
        true
    }
}

/// Keywords that look like calls when followed by `(`.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "let", "else", "in", "move", "break",
    "continue", "as", "await", "yield",
];

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;

    fn walk(src: &str) -> Events {
        let file = SourceFile::parse("crates/x/src/node.rs", src);
        let table = LockTable::build(std::slice::from_ref(&file));
        let rpc: Vec<String> = vec!["invoke".into(), "call".into()];
        let qual: Vec<String> = vec!["net.send".into()];
        let forbidden: Vec<String> = vec!["sleep".into(), "recv".into()];
        let detached: Vec<String> = vec!["spawn".into(), "execute".into()];
        let rules = WalkRules {
            rpc_methods: &rpc,
            rpc_qualified: &qual,
            forbidden: &forbidden,
            detached: &detached,
        };
        let mut out = Events::default();
        walk_file(&file, &table, &rules, &mut out);
        out
    }

    const DECLS: &str = "struct S { pending: Mutex<u8>, state: Mutex<u8>, meta: RwLock<u8> }";

    #[test]
    fn nested_acquisition_produces_edge() {
        let ev = walk(&format!(
            "{DECLS} fn f(&self) {{ let a = self.pending.lock(); let b = self.state.lock(); }}"
        ));
        assert_eq!(ev.edges.len(), 1);
        assert_eq!(ev.edges[0].from, "node.pending");
        assert_eq!(ev.edges[0].to, "node.state");
    }

    #[test]
    fn sequential_acquisition_is_clean() {
        let ev = walk(&format!(
            "{DECLS} fn f(&self) {{ self.pending.lock().checked_add(1); self.state.lock().checked_add(1); }}"
        ));
        assert!(ev.edges.is_empty(), "{:?}", ev.edges);
    }

    #[test]
    fn drop_releases_guard() {
        let ev = walk(&format!(
            "{DECLS} fn f(&self) {{ let a = self.pending.lock(); drop(a); let b = self.state.lock(); }}"
        ));
        assert!(ev.edges.is_empty(), "{:?}", ev.edges);
    }

    #[test]
    fn a_guard_handed_through_a_condvar_wait_stays_live_until_dropped() {
        let ev = walk(&format!(
            "{DECLS} fn f(&self) {{ let mut g = self.pending.lock(); g = self.cv.wait(g); \
             (g, timed_out) = self.cv.wait_timeout(g, d); let b = self.state.lock(); \
             drop(b); drop(g); self.node.invoke(1); }}"
        ));
        assert_eq!(ev.edges.len(), 1, "{:?}", ev.edges);
        assert_eq!(ev.edges[0].from, "node.pending");
        assert!(ev.rpcs.is_empty(), "{:?}", ev.rpcs);
    }

    #[test]
    fn block_scope_releases_guard() {
        let ev = walk(&format!(
            "{DECLS} fn f(&self) {{ {{ let a = self.pending.lock(); }} let b = self.state.lock(); }}"
        ));
        assert!(ev.edges.is_empty(), "{:?}", ev.edges);
    }

    #[test]
    fn if_let_header_guard_lives_through_block() {
        let ev = walk(&format!(
            "{DECLS} fn f(&self) {{ if let Some(g) = self.pending.try_lock() {{ let b = self.state.lock(); }} }}"
        ));
        assert_eq!(ev.edges.len(), 1, "{:?}", ev.edges);
    }

    #[test]
    fn rpc_under_guard_is_flagged_and_clean_after_scope() {
        let ev = walk(&format!(
            "{DECLS} fn f(&self) {{ let g = self.pending.lock(); self.node.invoke(1); }} \
             fn ok(&self) {{ {{ let g = self.pending.lock(); }} self.node.invoke(1); }}"
        ));
        assert_eq!(ev.rpcs.len(), 1, "{:?}", ev.rpcs);
        assert_eq!(ev.rpcs[0].method, "invoke");
        assert_eq!(ev.rpcs[0].held[0].0, "node.pending");
    }

    #[test]
    fn qualified_send_is_rpc_but_plain_send_is_not() {
        let ev = walk(&format!(
            "{DECLS} fn f(&self) {{ let g = self.pending.lock(); self.net.send(e); }} \
             fn g(&self) {{ let g = self.pending.lock(); self.tx.send(e); }}"
        ));
        assert_eq!(ev.rpcs.len(), 1, "{:?}", ev.rpcs);
        assert_eq!(ev.rpcs[0].method, "send");
    }

    #[test]
    fn io_read_write_do_not_resolve_as_locks() {
        let ev = walk(&format!(
            "{DECLS} fn f(&self) {{ let g = self.meta.write(); stream.write(buf); socket.read(buf); }}"
        ));
        // The io calls take arguments, so the `()` shape check also
        // rejects them; either way no edge appears.
        assert!(ev.edges.is_empty(), "{:?}", ev.edges);
    }

    #[test]
    fn blocking_calls_are_recorded_with_context() {
        let ev = walk("fn poll_loop(&self) { thread::sleep(d); let x = rx.recv(); }");
        let callees: Vec<&str> = ev.blocking.iter().map(|b| b.callee.as_str()).collect();
        assert_eq!(callees, vec!["thread::sleep", ".recv"]);
    }

    #[test]
    fn calls_inside_spawn_closures_are_marked_detached() {
        let ev = walk(
            "fn f(&self) { thread::spawn(move || worker_loop(inner)); helper(); \
             self.pool.execute(move || job.run()); }",
        );
        let flag = |name: &str| ev.calls.iter().find(|c| c.name == name).map(|c| c.in_spawn);
        assert_eq!(flag("worker_loop"), Some(true));
        assert_eq!(flag("run"), Some(true));
        assert_eq!(flag("helper"), Some(false));
        assert_eq!(flag("spawn"), Some(false));
        assert_eq!(flag("execute"), Some(false));
    }

    #[test]
    fn test_fns_are_marked() {
        let file = SourceFile::parse(
            "crates/x/src/node.rs",
            "struct S { pending: Mutex<u8>, state: Mutex<u8> } \
             #[cfg(test)] mod tests { #[test] fn t(s: &S) { let a = s.pending.lock(); let b = s.state.lock(); } }",
        );
        let table = LockTable::build(std::slice::from_ref(&file));
        let rules = WalkRules {
            rpc_methods: &[],
            rpc_qualified: &[],
            forbidden: &[],
            detached: &[],
        };
        let mut out = Events::default();
        walk_file(&file, &table, &rules, &mut out);
        assert_eq!(out.edges.len(), 1);
        assert!(out.edges[0].is_test);
    }
}
