//! The syd-lint rules, built on the walker events, the workspace call
//! graph and the interprocedural effect summaries.

use crate::callgraph::CallGraph;
use crate::config::Config;
use crate::effects::{Atom, Effects, Origin};
use crate::lexer::Tok;
use crate::report::{Diagnostic, Report, Rule};
use crate::source::SourceFile;
use crate::walker::{self, Events, LockTable, WalkRules};
use std::collections::{BTreeMap, BTreeSet};

/// Runs every rule over the parsed file set.
///
/// `workspace_mode` enables whole-workspace checks (orphaned metric
/// constants, unused suppressions) that are meaningless on a partial
/// file list.
pub fn run_all(files: &[SourceFile], config: &Config, workspace_mode: bool) -> Report {
    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };

    let table = LockTable::build(files);
    let detached = detached_callees(config);
    let rules = WalkRules {
        rpc_methods: &config.rpc_methods,
        rpc_qualified: &config.rpc_qualified,
        forbidden: &config.poll_forbidden,
        detached: &detached,
    };
    let mut events = Events::default();
    for f in files {
        walker::walk_file(f, &table, &rules, &mut events);
    }
    let graph = CallGraph::build(files, &events.calls, config);
    let effects = Effects::compute(files, &events, &graph, config);

    lock_order(&events, &graph, &effects, config, &mut report);
    guard_across_rpc(&events, &graph, &effects, &mut report);
    no_blocking_in_poll_loop(&events, config, &mut report);
    transitive_blocking(&graph, &effects, config, &mut report);
    strong_capture_cycle(&effects, &mut report);
    counter_registry(files, config, workspace_mode, &mut report);
    coordination_boundary(files, config, &mut report);

    report.apply_allowlist(config);
    stale_suppressions(config, workspace_mode, &mut report);
    report
}

/// Callees whose closure arguments execute on another thread: `spawn`
/// plus every configured registration method. Calls inside their
/// argument lists are excluded from effect propagation.
pub fn detached_callees(config: &Config) -> Vec<String> {
    let mut v = config.registration_methods.clone();
    v.push("spawn".into());
    v
}

/// An acquired-while-holding edge discovered through a call chain: the
/// caller holds `from` at a call site whose callee transitively
/// acquires `to`.
struct ChainEdge {
    from: String,
    to: String,
    file: String,
    line: u32,
    function: String,
    chain: String,
}

/// Collects interprocedural acquisition edges from the effect summaries.
fn chain_edges(graph: &CallGraph, effects: &Effects) -> Vec<ChainEdge> {
    let mut out = Vec::new();
    let mut seen: BTreeSet<(String, String, String, u32)> = BTreeSet::new();
    for e in &graph.edges {
        if e.is_test || e.held.is_empty() {
            continue;
        }
        for atom in effects.summaries[e.callee].keys() {
            let Atom::Acquires(to) = atom else { continue };
            for (from, _) in &e.held {
                if !seen.insert((from.clone(), to.clone(), e.file.clone(), e.line)) {
                    continue;
                }
                out.push(ChainEdge {
                    from: from.clone(),
                    to: to.clone(),
                    file: e.file.clone(),
                    line: e.line,
                    function: graph.nodes[e.caller].name.clone(),
                    chain: format!(
                        "{} ({}:{}) -> {}",
                        graph.nodes[e.callee].name,
                        e.file,
                        e.line,
                        effects.chain(graph, e.callee, atom)
                    ),
                });
            }
        }
    }
    out
}

/// lock-order: reentrancy, hierarchy-rank inversions, and cycles in the
/// global acquisition graph — including edges that only exist through
/// call chains (caller holds A, callee transitively acquires B).
fn lock_order(
    events: &Events,
    graph: &CallGraph,
    effects: &Effects,
    config: &Config,
    report: &mut Report,
) {
    let edges: Vec<_> = events.edges.iter().filter(|e| !e.is_test).collect();

    for e in &edges {
        if e.from == e.to {
            report.diagnostics.push(Diagnostic {
                rule: Rule::LockOrder,
                file: e.file.clone(),
                line: e.line,
                function: Some(e.function.clone()),
                message: format!(
                    "lock `{}` acquired while already held in `{}` — std::sync locks are not reentrant, this self-deadlocks",
                    e.to, e.function
                ),
            });
        } else if let (Some((fr, fname)), Some((tr, tname))) =
            (config.rank_of(&e.from), config.rank_of(&e.to))
        {
            if fr > tr {
                report.diagnostics.push(Diagnostic {
                    rule: Rule::LockOrder,
                    file: e.file.clone(),
                    line: e.line,
                    function: Some(e.function.clone()),
                    message: format!(
                        "`{}` (level {tname}, rank {tr}) acquired while holding `{}` (level {fname}, rank {fr}); declared hierarchy is {}",
                        e.to,
                        e.from,
                        hierarchy_str(config)
                    ),
                });
            }
        }
    }

    // Interprocedural edges: the same three checks, with the call chain
    // in the message so the hop sequence is actionable.
    let inter = chain_edges(graph, effects);
    for e in &inter {
        if e.from == e.to {
            report.diagnostics.push(Diagnostic {
                rule: Rule::LockOrder,
                file: e.file.clone(),
                line: e.line,
                function: Some(e.function.clone()),
                message: format!(
                    "lock `{}` is held here and acquired again through the call chain {} — std::sync locks are not reentrant, this self-deadlocks",
                    e.to, e.chain
                ),
            });
        } else if let (Some((fr, fname)), Some((tr, tname))) =
            (config.rank_of(&e.from), config.rank_of(&e.to))
        {
            if fr > tr {
                report.diagnostics.push(Diagnostic {
                    rule: Rule::LockOrder,
                    file: e.file.clone(),
                    line: e.line,
                    function: Some(e.function.clone()),
                    message: format!(
                        "`{}` (level {tname}, rank {tr}) acquired while holding `{}` (level {fname}, rank {fr}) through the call chain {}; declared hierarchy is {}",
                        e.to,
                        e.from,
                        e.chain,
                        hierarchy_str(config)
                    ),
                });
            }
        }
    }

    // Cycle detection over distinct (from, to) pairs, direct and
    // interprocedural alike.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut locate: BTreeMap<(&str, &str), (&str, u32)> = BTreeMap::new();
    for e in &edges {
        if e.from != e.to {
            adj.entry(&e.from).or_default().insert(&e.to);
            locate.entry((&e.from, &e.to)).or_insert((&e.file, e.line));
        }
    }
    for e in &inter {
        if e.from != e.to {
            adj.entry(&e.from).or_default().insert(&e.to);
            locate.entry((&e.from, &e.to)).or_insert((&e.file, e.line));
        }
    }
    for cycle in find_cycles(&adj) {
        let hops: Vec<String> = cycle
            .iter()
            .zip(cycle.iter().cycle().skip(1))
            .map(|(a, b)| {
                let (file, line) = locate
                    .get(&(a.as_str(), b.as_str()))
                    .copied()
                    .unwrap_or(("?", 0));
                format!("{a} -> {b} ({file}:{line})")
            })
            .collect();
        let (file, line) = locate
            .get(&(cycle[0].as_str(), cycle[1 % cycle.len()].as_str()))
            .copied()
            .unwrap_or(("?", 0));
        report.diagnostics.push(Diagnostic {
            rule: Rule::LockOrder,
            file: file.to_string(),
            line,
            function: None,
            message: format!("lock acquisition cycle: {}", hops.join(", ")),
        });
    }
}

fn hierarchy_str(config: &Config) -> String {
    let mut levels: Vec<_> = config.levels.iter().collect();
    levels.sort_by_key(|l| l.rank);
    levels
        .iter()
        .map(|l| l.name.as_str())
        .collect::<Vec<_>>()
        .join(" < ")
}

/// Finds elementary cycles: one canonical cycle per strongly connected
/// component with ≥ 2 nodes (enough to pinpoint the offending edges
/// without flooding the report).
fn find_cycles(adj: &BTreeMap<&str, BTreeSet<&str>>) -> Vec<Vec<String>> {
    // Tarjan SCC, iterative-enough for the graph sizes involved.
    let nodes: Vec<&str> = adj
        .iter()
        .flat_map(|(k, vs)| std::iter::once(*k).chain(vs.iter().copied()))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let index_of: BTreeMap<&str, usize> = nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let n = nodes.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    #[allow(clippy::too_many_arguments)]
    fn strongconnect(
        v: usize,
        nodes: &[&str],
        adj: &BTreeMap<&str, BTreeSet<&str>>,
        index_of: &BTreeMap<&str, usize>,
        index: &mut [usize],
        low: &mut [usize],
        on_stack: &mut [bool],
        stack: &mut Vec<usize>,
        next_index: &mut usize,
        sccs: &mut Vec<Vec<usize>>,
    ) {
        index[v] = *next_index;
        low[v] = *next_index;
        *next_index += 1;
        stack.push(v);
        on_stack[v] = true;
        if let Some(succs) = adj.get(nodes[v]) {
            for s in succs {
                let w = index_of[s];
                if index[w] == usize::MAX {
                    strongconnect(
                        w, nodes, adj, index_of, index, low, on_stack, stack, next_index, sccs,
                    );
                    low[v] = low[v].min(low[w]);
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            }
        }
        if low[v] == index[v] {
            let mut comp = Vec::new();
            while let Some(w) = stack.pop() {
                on_stack[w] = false;
                comp.push(w);
                if w == v {
                    break;
                }
            }
            sccs.push(comp);
        }
    }

    for v in 0..n {
        if index[v] == usize::MAX {
            strongconnect(
                v,
                &nodes,
                adj,
                &index_of,
                &mut index,
                &mut low,
                &mut on_stack,
                &mut stack,
                &mut next_index,
                &mut sccs,
            );
        }
    }

    let mut out = Vec::new();
    for comp in sccs {
        if comp.len() < 2 {
            continue;
        }
        // Walk one cycle within the component, deterministically.
        let members: BTreeSet<&str> = comp.iter().map(|&i| nodes[i]).collect();
        let start = *members.iter().min().unwrap_or(&"");
        let mut path = vec![start.to_string()];
        let mut cur = start;
        loop {
            let next = adj
                .get(cur)
                .and_then(|s| s.iter().find(|x| members.contains(*x)))
                .copied();
            let Some(next) = next else { break };
            if next == start {
                break;
            }
            if path.contains(&next.to_string()) {
                break;
            }
            path.push(next.to_string());
            cur = next;
        }
        if path.len() >= 2 {
            out.push(path);
        }
    }
    out
}

/// guard-across-rpc: any lock guard live across an RPC / transport send
/// — at the call site itself, or through a helper that transitively
/// performs one.
fn guard_across_rpc(events: &Events, graph: &CallGraph, effects: &Effects, report: &mut Report) {
    for r in events.rpcs.iter().filter(|r| !r.is_test) {
        let held: Vec<String> = r
            .held
            .iter()
            .map(|(id, line)| format!("`{id}` (acquired line {line})"))
            .collect();
        report.diagnostics.push(Diagnostic {
            rule: Rule::GuardAcrossRpc,
            file: r.file.clone(),
            line: r.line,
            function: Some(r.function.clone()),
            message: format!(
                "remote call `{}` made while holding {} — a slow or dead peer extends the critical section into a distributed deadlock",
                r.method,
                held.join(", ")
            ),
        });
    }

    // Interprocedural: a guard is live at a call whose callee reaches an
    // RPC. Direct RPC call sites (`is_rpc`) are already covered above.
    let mut seen: BTreeSet<(String, u32, usize)> = BTreeSet::new();
    for e in &graph.edges {
        if e.is_test || e.is_rpc || e.held.is_empty() || !effects.has(e.callee, &Atom::Rpc) {
            continue;
        }
        if !seen.insert((e.file.clone(), e.line, e.callee)) {
            continue;
        }
        let held: Vec<String> = e
            .held
            .iter()
            .map(|(id, line)| format!("`{id}` (acquired line {line})"))
            .collect();
        report.diagnostics.push(Diagnostic {
            rule: Rule::GuardAcrossRpc,
            file: e.file.clone(),
            line: e.line,
            function: Some(graph.nodes[e.caller].name.clone()),
            message: format!(
                "`{}` is called while holding {} and transitively performs a remote call: {} — a slow or dead peer extends the critical section into a distributed deadlock",
                graph.nodes[e.callee].name,
                held.join(", "),
                effects.chain(graph, e.callee, &Atom::Rpc)
            ),
        });
    }
}

/// no-blocking-in-poll-loop: forbidden callees inside poll/tick fns.
fn no_blocking_in_poll_loop(events: &Events, config: &Config, report: &mut Report) {
    for b in events.blocking.iter().filter(|b| !b.is_test) {
        if !config.poll_fns.iter().any(|f| f == &b.function) {
            continue;
        }
        report.diagnostics.push(Diagnostic {
            rule: Rule::NoBlockingInPollLoop,
            file: b.file.clone(),
            line: b.line,
            function: Some(b.function.clone()),
            message: format!(
                "blocking call `{}` inside poll-loop function `{}` stalls every connection sharing the loop; use non-blocking ops or a condvar wait",
                b.callee, b.function
            ),
        });
    }
}

/// transitive-blocking: a poll-loop function reaches a blocking call
/// through one or more helpers. Direct blocking calls inside the poll fn
/// itself are left to `no-blocking-in-poll-loop`.
fn transitive_blocking(graph: &CallGraph, effects: &Effects, config: &Config, report: &mut Report) {
    for (id, node) in graph.nodes.iter().enumerate() {
        if node.is_test || !config.poll_fns.iter().any(|f| f == &node.name) {
            continue;
        }
        let Some(origin) = effects.summaries[id].get(&Atom::Blocks) else {
            continue;
        };
        // Intrinsic origin means the blocking call is in this body — the
        // direct rule owns that diagnostic.
        let Origin::Call { file, line, .. } = origin else {
            continue;
        };
        report.diagnostics.push(Diagnostic {
            rule: Rule::TransitiveBlocking,
            file: file.clone(),
            line: *line,
            function: Some(node.name.clone()),
            message: format!(
                "poll-loop function `{}` transitively blocks: {} — every connection sharing the loop stalls for the full chain",
                node.name,
                effects.chain(graph, id, &Atom::Blocks)
            ),
        });
    }
}

/// strong-capture-cycle: a closure registered on shared infrastructure
/// (runtime loop, worker pool) captures a strong `Arc` of a
/// runtime-owning type, so the registration keeps the runtime alive
/// after the last external handle drops — the leak class fixed in
/// `DeviceRuntime::register_periodic_tasks` by downgrading to `Weak`.
fn strong_capture_cycle(effects: &Effects, report: &mut Report) {
    for cap in effects.captures.iter().filter(|c| !c.is_test) {
        report.diagnostics.push(Diagnostic {
            rule: Rule::StrongCaptureCycle,
            file: cap.file.clone(),
            line: cap.line,
            function: Some(cap.function.clone()),
            message: format!(
                "closure registered via `{}` captures strong `Arc<{}>` (binding `{}`) — the shared loop/pool pins the runtime after the last external handle drops; capture `Arc::downgrade(..)` and upgrade inside the closure",
                cap.reg_method, cap.ty, cap.binding
            ),
        });
    }
}

/// stale-suppression: `[[allow]]` entries that have expired, or (in
/// workspace mode, where every diagnostic the entry could match is in
/// view) no longer suppress anything. Runs after the allowlist is
/// applied — a suppression cannot allowlist its own staleness.
fn stale_suppressions(config: &Config, workspace_mode: bool, report: &mut Report) {
    for (i, a) in config.allows.iter().enumerate() {
        let expired = match (&a.expires, &config.today) {
            (Some(exp), Some(today)) => exp.as_str() <= today.as_str(),
            _ => false,
        };
        if expired {
            report.diagnostics.push(Diagnostic {
                rule: Rule::StaleSuppression,
                file: "lint.toml".into(),
                line: a.line as u32,
                function: None,
                message: format!(
                    "[[allow]] for `{}` on `{}` expired {}; remove it or renew the expiry after re-review",
                    a.rule,
                    a.file,
                    a.expires.as_deref().unwrap_or("?")
                ),
            });
        } else if workspace_mode && !report.allow_hits.contains(&i) {
            report.diagnostics.push(Diagnostic {
                rule: Rule::StaleSuppression,
                file: "lint.toml".into(),
                line: a.line as u32,
                function: None,
                message: format!(
                    "[[allow]] for `{}` on `{}` no longer matches any diagnostic — the underlying issue is gone; remove the entry",
                    a.rule, a.file
                ),
            });
        }
    }
    report.sort();
}

/// counter-registry: metric names *and span kinds* must be
/// `syd_telemetry::names` constants; constants without call sites are
/// orphaned. Span kinds (`Tracer::span` & friends) share the registry
/// so trace assembly and the exporters see one stable vocabulary.
fn counter_registry(
    files: &[SourceFile],
    config: &Config,
    workspace_mode: bool,
    report: &mut Report,
) {
    // Registry constants: `pub const NAME: &str = "value";`
    let registry = files
        .iter()
        .find(|f| f.path.ends_with(&config.registry_path));
    let mut consts: Vec<(String, String, u32)> = Vec::new(); // (ident, value, line)
    if let Some(reg) = registry {
        let t = &reg.tokens;
        for i in 0..t.len() {
            if !matches!(&t[i].kind, Tok::Ident(s) if s == "const") {
                continue;
            }
            let (Some(Tok::Ident(name)), Some(Tok::Punct(':'))) =
                (t.get(i + 1).map(|x| &x.kind), t.get(i + 2).map(|x| &x.kind))
            else {
                continue;
            };
            // const NAME: &str = "value";
            if let (Some(Tok::Punct('=')), Some(Tok::Str(v))) =
                (t.get(i + 5).map(|x| &x.kind), t.get(i + 6).map(|x| &x.kind))
            {
                consts.push((name.clone(), v.clone(), t[i + 1].line));
            }
        }
    }
    // Inline literals at metric call sites.
    for f in files {
        if config.registry_exempt.iter().any(|p| f.path.starts_with(p)) {
            continue;
        }
        let t = &f.tokens;
        for i in 0..t.len() {
            let Tok::Ident(m) = &t[i].kind else { continue };
            let is_metric = config.metric_methods.iter().any(|mm| mm == m);
            let is_span = config.span_methods.iter().any(|sm| sm == m);
            if (!is_metric && !is_span)
                || !matches!(t.get(i.wrapping_sub(1)).map(|x| &x.kind), Some(Tok::Dot))
                || !matches!(t.get(i + 1).map(|x| &x.kind), Some(Tok::LParen))
            {
                continue;
            }
            let Some(Tok::Str(lit)) = t.get(i + 2).map(|x| &x.kind) else {
                continue;
            };
            if f.is_test_path || fn_is_test_at(f, i) {
                continue;
            }
            let hint = consts.iter().find(|(_, v, _)| v == lit).map_or_else(
                || {
                    format!(
                        "not in the registry — add a constant to {} and use it",
                        config.registry_path
                    )
                },
                |(name, _, _)| format!("use syd_telemetry::names::{name}"),
            );
            let what = if is_metric {
                "metric name"
            } else {
                "span kind"
            };
            report.diagnostics.push(Diagnostic {
                rule: Rule::CounterRegistry,
                file: f.path.clone(),
                line: t[i].line,
                function: enclosing_fn(f, i),
                message: format!("inline {what} \"{lit}\" in `{m}()`; {hint}"),
            });
        }
    }

    // Orphan constants: defined in the registry, referenced nowhere else.
    if workspace_mode && registry.is_some() {
        for (name, value, line) in &consts {
            let referenced = files.iter().any(|f| {
                !f.path.ends_with(&config.registry_path)
                    && f.tokens
                        .iter()
                        .any(|t| matches!(&t.kind, Tok::Ident(s) if s == name))
            });
            if !referenced {
                report.diagnostics.push(Diagnostic {
                    rule: Rule::CounterRegistry,
                    file: registry.map(|r| r.path.clone()).unwrap_or_default(),
                    line: *line,
                    function: None,
                    message: format!(
                        "metric constant `{name}` (\"{value}\") has no call sites — orphaned counter"
                    ),
                });
            }
        }
    }
}

/// coordination-boundary: §4.3 protocol invocations and LockManager
/// mutations only from the negotiation core.
fn coordination_boundary(files: &[SourceFile], config: &Config, report: &mut Report) {
    for f in files {
        if f.is_test_path || config.boundary_allowed.iter().any(|p| f.path.ends_with(p)) {
            continue;
        }
        let t = &f.tokens;
        for i in 0..t.len() {
            let Tok::Ident(m) = &t[i].kind else { continue };
            // invoke-family call with a protected method-name literal arg.
            if config.rpc_methods.iter().any(|mm| mm == m)
                && matches!(t.get(i.wrapping_sub(1)).map(|x| &x.kind), Some(Tok::Dot))
                && matches!(t.get(i + 1).map(|x| &x.kind), Some(Tok::LParen))
            {
                let mut depth = 0usize;
                let mut j = i + 1;
                while j < t.len() {
                    match &t[j].kind {
                        Tok::LParen => depth += 1,
                        Tok::RParen => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        Tok::Str(s)
                            if config.protocol_methods.iter().any(|p| p == s)
                                && !fn_is_test_at(f, i) =>
                        {
                            report.diagnostics.push(Diagnostic {
                                rule: Rule::CoordinationBoundary,
                                file: f.path.clone(),
                                line: t[i].line,
                                function: enclosing_fn(f, i),
                                message: format!(
                                    "negotiation protocol method \"{s}\" invoked outside the negotiation core (`core::negotiate`); the CALM fast-path split requires all §4.3 coordination to flow through one module"
                                ),
                            });
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            // `.locks().acquire(…)`-style LockManager mutation.
            if config.lock_manager_methods.iter().any(|mm| mm == m)
                && matches!(t.get(i.wrapping_sub(1)).map(|x| &x.kind), Some(Tok::Dot))
                && matches!(t.get(i + 1).map(|x| &x.kind), Some(Tok::LParen))
                && matches!(t.get(i.wrapping_sub(2)).map(|x| &x.kind), Some(Tok::RParen))
                && matches!(t.get(i.wrapping_sub(3)).map(|x| &x.kind), Some(Tok::LParen))
                && matches!(
                    t.get(i.wrapping_sub(4)).map(|x| &x.kind),
                    Some(Tok::Ident(recv)) if recv == "locks"
                )
                && !fn_is_test_at(f, i)
            {
                report.diagnostics.push(Diagnostic {
                    rule: Rule::CoordinationBoundary,
                    file: f.path.clone(),
                    line: t[i].line,
                    function: enclosing_fn(f, i),
                    message: format!(
                        "LockManager mutation `{m}` outside the coordination boundary; row locks may only change under the §4.3 protocol (core::negotiate / kernel mark handlers)"
                    ),
                });
            }
        }
    }
}

/// Innermost function containing token `idx`, if any.
fn enclosing_fn(f: &SourceFile, idx: usize) -> Option<String> {
    f.fns
        .iter()
        .filter(|fi| fi.body_start < idx && idx < fi.body_end)
        .max_by_key(|fi| fi.body_start)
        .map(|fi| fi.name.clone())
}

/// Is token `idx` inside a test function (or test module)?
fn fn_is_test_at(f: &SourceFile, idx: usize) -> bool {
    f.fns
        .iter()
        .filter(|fi| fi.body_start < idx && idx < fi.body_end)
        .max_by_key(|fi| fi.body_start)
        .is_some_and(|fi| fi.is_test)
}
