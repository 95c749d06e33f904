//! Cross-device span-tree assembly.
//!
//! A [`Collector`] ingests [`SpanRecord`]s drained from any number of
//! device logs and groups them by trace id. [`Collector::assemble`] then
//! builds one [`SpanTree`] per trace:
//!
//! * **dedup** — at-least-once RPC delivery can record the same span
//!   view twice (a retried request re-runs the server handler under
//!   the same span id). Views are deduplicated on
//!   `(span, kind, device)`, keeping the earliest start; the number of
//!   dropped duplicates is reported on the tree.
//! * **merge** — the client and server sides of an RPC record under
//!   the *same* span id (the one minted by the caller and carried in
//!   the wire `TraceContext`). The non-server record is the node's
//!   primary view; an `rpc.server` record becomes its
//!   [`ServerView`]. Parentage always comes from the primary view,
//!   because only the caller knows the parent.
//! * **lossy tolerance** — mirroring `syd-check`'s strict/lossy modes:
//!   in [`AssemblyMode::Strict`], a missing parent, an orphaned server
//!   view, or an unmatched RPC client span is an [`AssembleError`]; in
//!   [`AssemblyMode::Lossy`] the tree is still built, the stray nodes
//!   are attached under the root, and the tree is flagged
//!   `complete = false` with a human-readable anomaly list.

use std::collections::HashMap;
use std::fmt;
use syd_telemetry::ring::live_logs;
use syd_telemetry::{names, Journal, SpanRecord};

/// How tolerant assembly is of missing records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AssemblyMode {
    /// Any hole in the tree is an error.
    Strict,
    /// Holes degrade to a flagged-incomplete tree.
    Lossy,
}

/// Why strict assembly refused to build a tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AssembleError {
    /// No records were ingested for the requested trace id.
    UnknownTrace(u64),
    /// No root span (parent 0, non-server view) was found.
    NoRoot(u64),
    /// More than one root span claims the trace.
    MultipleRoots(u64, usize),
    /// A span references a parent that was never recorded.
    MissingParent {
        /// The span whose parent is missing.
        span: u64,
        /// The referenced, unrecorded parent id.
        parent: u64,
    },
    /// An `rpc.server` view has no matching client-side record.
    OrphanServer {
        /// The orphaned span id.
        span: u64,
    },
    /// An `rpc.client` span has no matching server view.
    UnmatchedClient {
        /// The unmatched span id.
        span: u64,
    },
}

impl fmt::Display for AssembleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssembleError::UnknownTrace(t) => write!(f, "no records for trace {t:016x}"),
            AssembleError::NoRoot(t) => write!(f, "trace {t:016x} has no root span"),
            AssembleError::MultipleRoots(t, n) => {
                write!(f, "trace {t:016x} has {n} root spans")
            }
            AssembleError::MissingParent { span, parent } => {
                write!(
                    f,
                    "span {span:016x} references missing parent {parent:016x}"
                )
            }
            AssembleError::OrphanServer { span } => {
                write!(f, "server view {span:016x} has no client record")
            }
            AssembleError::UnmatchedClient { span } => {
                write!(f, "client span {span:016x} has no server view")
            }
        }
    }
}

impl std::error::Error for AssembleError {}

/// The server-side view of an RPC span (same span id, other device).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerView {
    /// Device that served the request.
    pub device: u64,
    /// Handler entry, µs.
    pub start_us: u64,
    /// Response sent, µs.
    pub end_us: u64,
}

impl ServerView {
    /// Handler wall time, µs.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// One node of an assembled tree: a span plus its merged views.
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// Span id.
    pub span: u64,
    /// Parent span id (0 for the root).
    pub parent: u64,
    /// Primary kind (the caller/local view).
    pub kind: &'static str,
    /// Device that recorded the primary view.
    pub device: u64,
    /// Primary-view start, µs.
    pub start_us: u64,
    /// Primary-view end, µs.
    pub end_us: u64,
    /// Numeric attributes from the primary view.
    pub attrs: Vec<(&'static str, u64)>,
    /// Merged `rpc.server` view, when one was recorded.
    pub server: Option<ServerView>,
    /// Indices of child nodes, ordered by start time.
    pub children: Vec<usize>,
}

impl SpanNode {
    /// Primary-view wall time, µs.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// An assembled cross-device span tree for one trace.
#[derive(Clone, Debug)]
pub struct SpanTree {
    /// The trace id the tree describes.
    pub trace: u64,
    /// All nodes; index 0 is unused structure-wise, see [`SpanTree::root`].
    pub nodes: Vec<SpanNode>,
    /// Index of the root node in [`SpanTree::nodes`].
    pub root: usize,
    /// False when assembly had to paper over missing records.
    pub complete: bool,
    /// Human-readable descriptions of every hole papered over.
    pub anomalies: Vec<String>,
    /// At-least-once duplicates dropped during dedup.
    pub duplicates_dropped: u64,
}

impl SpanTree {
    /// Root-span wall time, µs.
    pub fn duration_us(&self) -> u64 {
        self.nodes[self.root].duration_us()
    }

    /// Kind of the root span (the operation this trace describes).
    pub fn op(&self) -> &'static str {
        self.nodes[self.root].kind
    }

    /// Indices of every node with the given kind.
    pub fn find_kind(&self, kind: &str) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].kind == kind)
            .collect()
    }

    /// Multiset of `(kind, child kinds)` pairs, a device- and
    /// timing-independent shape signature for structural comparison.
    pub fn shape(&self) -> Vec<(String, Vec<&'static str>)> {
        let mut shape: Vec<(String, Vec<&'static str>)> = self
            .nodes
            .iter()
            .map(|n| {
                let mut kids: Vec<&'static str> =
                    n.children.iter().map(|&c| self.nodes[c].kind).collect();
                kids.sort_unstable();
                (n.kind.to_string(), kids)
            })
            .collect();
        shape.sort();
        shape
    }
}

/// Ingests drained records and assembles per-trace span trees.
pub struct Collector {
    mode: AssemblyMode,
    traces: HashMap<u64, Vec<SpanRecord>>,
    labels: HashMap<u64, String>,
}

impl Collector {
    /// Creates an empty collector with the given tolerance.
    pub fn new(mode: AssemblyMode) -> Collector {
        Collector {
            mode,
            traces: HashMap::new(),
            labels: HashMap::new(),
        }
    }

    /// Adds one record.
    pub fn ingest(&mut self, rec: SpanRecord) {
        self.traces.entry(rec.trace).or_default().push(rec);
    }

    /// Drains every buffered span out of `log`; its events stay.
    pub fn drain(&mut self, log: &Journal) {
        self.labels
            .entry(log.device())
            .or_insert_with(|| log.label().to_string());
        for rec in log.drain_spans() {
            self.ingest(rec);
        }
    }

    /// Drains the spans of every live device log in the process.
    pub fn drain_global(&mut self) {
        for log in live_logs() {
            self.drain(&log);
        }
    }

    /// Device → label map gathered from drained logs (for exporters).
    pub fn labels(&self) -> &HashMap<u64, String> {
        &self.labels
    }

    /// Trace ids with at least one ingested record.
    pub fn trace_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.traces.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Forgets all ingested records (labels are kept).
    pub fn clear(&mut self) {
        self.traces.clear();
    }

    /// Assembles the tree for one trace. See the module docs for the
    /// dedup/merge/tolerance rules.
    pub fn assemble(&self, trace: u64) -> Result<SpanTree, AssembleError> {
        let records = self
            .traces
            .get(&trace)
            .ok_or(AssembleError::UnknownTrace(trace))?;

        // Dedup on (span, kind, device), keeping the earliest start.
        let mut views: HashMap<(u64, &'static str, u64), SpanRecord> = HashMap::new();
        let mut duplicates_dropped = 0u64;
        for rec in records {
            match views.entry((rec.span, rec.kind, rec.device)) {
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(rec.clone());
                }
                std::collections::hash_map::Entry::Occupied(mut o) => {
                    duplicates_dropped += 1;
                    if rec.start_us < o.get().start_us {
                        o.insert(rec.clone());
                    }
                }
            }
        }

        // Merge views per span id: one primary + optional server view.
        let mut primaries: HashMap<u64, SpanRecord> = HashMap::new();
        let mut servers: HashMap<u64, ServerView> = HashMap::new();
        let mut anomalies: Vec<String> = Vec::new();
        for ((span, kind, _), rec) in views {
            if kind == names::SPAN_RPC_SERVER {
                // A retried RPC can be served by the same handler twice
                // from different pool threads; keep the earliest.
                match servers.entry(span) {
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(ServerView {
                            device: rec.device,
                            start_us: rec.start_us,
                            end_us: rec.end_us,
                        });
                    }
                    std::collections::hash_map::Entry::Occupied(mut o) => {
                        duplicates_dropped += 1;
                        if rec.start_us < o.get().start_us {
                            o.insert(ServerView {
                                device: rec.device,
                                start_us: rec.start_us,
                                end_us: rec.end_us,
                            });
                        }
                    }
                }
            } else {
                match primaries.entry(span) {
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(rec);
                    }
                    std::collections::hash_map::Entry::Occupied(mut o) => {
                        anomalies.push(format!(
                            "span {span:016x} has conflicting primary views ({} vs {})",
                            o.get().kind,
                            rec.kind
                        ));
                        if rec.start_us < o.get().start_us {
                            o.insert(rec);
                        }
                    }
                }
            }
        }

        // Orphaned server views (client record lost): strict error,
        // lossy synthesized primary flagged in the anomaly list.
        let mut complete = true;
        let orphan_spans: Vec<u64> = servers
            .keys()
            .copied()
            .filter(|s| !primaries.contains_key(s))
            .collect();
        for span in orphan_spans {
            if self.mode == AssemblyMode::Strict {
                return Err(AssembleError::OrphanServer { span });
            }
            complete = false;
            if let Some(sv) = servers.get(&span) {
                anomalies.push(format!(
                    "server view {span:016x} on device {} has no client record",
                    sv.device
                ));
                primaries.insert(
                    span,
                    SpanRecord {
                        trace,
                        span,
                        parent: 0,
                        kind: names::SPAN_RPC_SERVER,
                        device: sv.device,
                        start_us: sv.start_us,
                        end_us: sv.end_us,
                        attrs: Default::default(),
                    },
                );
            }
        }

        // Unmatched RPC client spans (server record lost or not served).
        for (span, rec) in &primaries {
            if rec.kind == names::SPAN_RPC_CLIENT && !servers.contains_key(span) {
                if self.mode == AssemblyMode::Strict {
                    return Err(AssembleError::UnmatchedClient { span: *span });
                }
                complete = false;
                anomalies.push(format!("client span {span:016x} has no server view"));
            }
        }

        // Build nodes, identify the root, wire up children.
        let mut order: Vec<u64> = primaries.keys().copied().collect();
        order.sort_unstable();
        let index: HashMap<u64, usize> = order.iter().enumerate().map(|(i, s)| (*s, i)).collect();
        let mut nodes: Vec<SpanNode> = order
            .iter()
            .map(|span| {
                let rec = &primaries[span];
                SpanNode {
                    span: *span,
                    parent: rec.parent,
                    kind: rec.kind,
                    device: rec.device,
                    start_us: rec.start_us,
                    end_us: rec.end_us,
                    attrs: rec.attrs.to_vec(),
                    server: servers.get(span).cloned(),
                    children: Vec::new(),
                }
            })
            .collect();

        let roots: Vec<usize> = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.parent == 0 && n.kind != names::SPAN_RPC_SERVER)
            .map(|(i, _)| i)
            .collect();
        let root = match roots.len() {
            1 => roots[0],
            0 => {
                if self.mode == AssemblyMode::Strict {
                    return Err(AssembleError::NoRoot(trace));
                }
                complete = false;
                anomalies.push("no root span; earliest span promoted".to_string());
                let earliest = nodes
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, n)| n.start_us)
                    .map(|(i, _)| i)
                    .ok_or(AssembleError::UnknownTrace(trace))?;
                nodes[earliest].parent = 0;
                earliest
            }
            n => {
                if self.mode == AssemblyMode::Strict {
                    return Err(AssembleError::MultipleRoots(trace, n));
                }
                complete = false;
                anomalies.push(format!("{n} root spans; earliest kept, rest reparented"));
                let first = roots
                    .iter()
                    .copied()
                    .min_by_key(|&i| nodes[i].start_us)
                    .unwrap_or(roots[0]);
                let first_span = nodes[first].span;
                for &r in &roots {
                    if r != first {
                        nodes[r].parent = first_span;
                    }
                }
                first
            }
        };

        let root_span = nodes[root].span;
        for i in 0..nodes.len() {
            if i == root {
                continue;
            }
            let parent = nodes[i].parent;
            let parent_idx = match index.get(&parent) {
                Some(&p) => p,
                None => {
                    if self.mode == AssemblyMode::Strict {
                        return Err(AssembleError::MissingParent {
                            span: nodes[i].span,
                            parent,
                        });
                    }
                    complete = false;
                    anomalies.push(format!(
                        "span {:016x} lost parent {parent:016x}; reattached to root",
                        nodes[i].span
                    ));
                    nodes[i].parent = root_span;
                    root
                }
            };
            nodes[parent_idx].children.push(i);
        }
        for i in 0..nodes.len() {
            let mut kids = std::mem::take(&mut nodes[i].children);
            kids.sort_by_key(|&c| (nodes[c].start_us, nodes[c].span));
            nodes[i].children = kids;
        }

        Ok(SpanTree {
            trace,
            nodes,
            root,
            complete,
            anomalies,
            duplicates_dropped,
        })
    }

    /// Assembles every ingested trace, skipping ones that fail strict
    /// assembly (their errors are returned alongside).
    pub fn assemble_all(&self) -> (Vec<SpanTree>, Vec<AssembleError>) {
        let mut trees = Vec::new();
        let mut errors = Vec::new();
        for id in self.trace_ids() {
            match self.assemble(id) {
                Ok(t) => trees.push(t),
                Err(e) => errors.push(e),
            }
        }
        (trees, errors)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;

    fn rec(
        trace: u64,
        span: u64,
        parent: u64,
        kind: &'static str,
        device: u64,
        start: u64,
        end: u64,
    ) -> SpanRecord {
        SpanRecord {
            trace,
            span,
            parent,
            kind,
            device,
            start_us: start,
            end_us: end,
            attrs: Default::default(),
        }
    }

    fn sample(collector: &mut Collector) {
        // root(schedule) -> mark_round -> rpc X (client dev1 / server dev2)
        collector.ingest(rec(5, 10, 0, names::SPAN_SCHEDULE, 1, 0, 100));
        collector.ingest(rec(5, 11, 10, names::SPAN_MARK_ROUND, 1, 5, 80));
        collector.ingest(rec(5, 12, 11, names::SPAN_RPC_CLIENT, 1, 10, 70));
        collector.ingest(rec(5, 12, 0, names::SPAN_RPC_SERVER, 2, 20, 60));
    }

    #[test]
    fn merges_client_and_server_views() {
        let mut c = Collector::new(AssemblyMode::Strict);
        sample(&mut c);
        let tree = c.assemble(5).unwrap();
        assert!(tree.complete);
        assert_eq!(tree.op(), names::SPAN_SCHEDULE);
        assert_eq!(tree.duration_us(), 100);
        let rpc = tree.find_kind(names::SPAN_RPC_CLIENT);
        assert_eq!(rpc.len(), 1);
        let node = &tree.nodes[rpc[0]];
        let server = node.server.as_ref().unwrap();
        assert_eq!(server.device, 2);
        assert_eq!(server.duration_us(), 40);
        // parentage: rpc under mark_round under root
        let mark = tree.find_kind(names::SPAN_MARK_ROUND)[0];
        assert_eq!(node.parent, tree.nodes[mark].span);
        assert_eq!(tree.nodes[mark].parent, tree.nodes[tree.root].span);
    }

    #[test]
    fn deduplicates_at_least_once_redelivery() {
        let mut c = Collector::new(AssemblyMode::Strict);
        sample(&mut c);
        // The server handler ran twice for a retried request.
        c.ingest(rec(5, 12, 0, names::SPAN_RPC_SERVER, 2, 25, 65));
        let tree = c.assemble(5).unwrap();
        assert!(tree.complete);
        assert_eq!(tree.duplicates_dropped, 1);
        assert_eq!(
            tree.nodes[tree.find_kind(names::SPAN_RPC_CLIENT)[0]]
                .server
                .as_ref()
                .unwrap()
                .start_us,
            20,
            "earliest server view wins"
        );
    }

    #[test]
    fn strict_rejects_missing_parent_lossy_flags_it() {
        let mut strict = Collector::new(AssemblyMode::Strict);
        let mut lossy = Collector::new(AssemblyMode::Lossy);
        for c in [&mut strict, &mut lossy] {
            sample(c);
            // A span whose parent record was evicted from its ring.
            c.ingest(rec(5, 13, 999, names::SPAN_LOCK_WAIT, 2, 30, 40));
        }
        assert_eq!(
            strict.assemble(5).unwrap_err(),
            AssembleError::MissingParent {
                span: 13,
                parent: 999
            }
        );
        let tree = lossy.assemble(5).unwrap();
        assert!(!tree.complete);
        assert!(!tree.anomalies.is_empty());
        // The stray span hangs off the root instead of vanishing.
        let stray = tree.find_kind(names::SPAN_LOCK_WAIT)[0];
        assert_eq!(tree.nodes[stray].parent, tree.nodes[tree.root].span);
    }

    #[test]
    fn strict_rejects_orphan_server_lossy_keeps_it() {
        let mut strict = Collector::new(AssemblyMode::Strict);
        let mut lossy = Collector::new(AssemblyMode::Lossy);
        for c in [&mut strict, &mut lossy] {
            sample(c);
            // Server view whose client-side record was lost.
            c.ingest(rec(5, 14, 0, names::SPAN_RPC_SERVER, 3, 30, 40));
        }
        assert_eq!(
            strict.assemble(5).unwrap_err(),
            AssembleError::OrphanServer { span: 14 }
        );
        let tree = lossy.assemble(5).unwrap();
        assert!(!tree.complete);
        assert_eq!(tree.find_kind(names::SPAN_RPC_SERVER).len(), 1);
    }

    #[test]
    fn unmatched_client_is_incomplete() {
        let mut c = Collector::new(AssemblyMode::Lossy);
        c.ingest(rec(9, 1, 0, names::SPAN_SCHEDULE, 1, 0, 50));
        c.ingest(rec(9, 2, 1, names::SPAN_RPC_CLIENT, 1, 5, 45));
        let tree = c.assemble(9).unwrap();
        assert!(!tree.complete);

        let strict = {
            let mut s = Collector::new(AssemblyMode::Strict);
            s.ingest(rec(9, 1, 0, names::SPAN_SCHEDULE, 1, 0, 50));
            s.ingest(rec(9, 2, 1, names::SPAN_RPC_CLIENT, 1, 5, 45));
            s.assemble(9)
        };
        assert_eq!(
            strict.unwrap_err(),
            AssembleError::UnmatchedClient { span: 2 }
        );
    }

    #[test]
    fn shape_is_stable_across_devices_and_timing() {
        let mut a = Collector::new(AssemblyMode::Strict);
        sample(&mut a);
        let mut b = Collector::new(AssemblyMode::Strict);
        b.ingest(rec(8, 20, 0, names::SPAN_SCHEDULE, 9, 1000, 1900));
        b.ingest(rec(8, 21, 20, names::SPAN_MARK_ROUND, 9, 1100, 1800));
        b.ingest(rec(8, 22, 21, names::SPAN_RPC_CLIENT, 9, 1200, 1700));
        b.ingest(rec(8, 22, 0, names::SPAN_RPC_SERVER, 7, 1300, 1600));
        assert_eq!(
            a.assemble(5).unwrap().shape(),
            b.assemble(8).unwrap().shape()
        );
    }

    #[test]
    fn unknown_trace_errors() {
        let c = Collector::new(AssemblyMode::Lossy);
        assert!(matches!(c.assemble(1), Err(AssembleError::UnknownTrace(1))));
    }
}
