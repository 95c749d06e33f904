//! Critical-path attribution: where did a negotiation's wall time go?
//!
//! The analyzer maps an assembled [`SpanTree`] to a fixed set of phase
//! buckets whose values sum to the root span's wall time:
//!
//! 1. Start with everything in `other` (the root's own time).
//! 2. DFS the tree. Every *phase* span (`dir.resolve`,
//!    `negotiate.mark_round`, `negotiate.commit_round`,
//!    `links.cascade`) moves its duration out of the nearest enclosing
//!    phase bucket into its own — exclusive attribution, so nested
//!    phases (a directory resolve inside a mark round) are not
//!    double-counted.
//! 3. For each phase span, the **critical RPC** — the longest direct
//!    `rpc.client` child — is decomposed: its `transport.queue`
//!    children move into `transport_queue`, and whatever remains of
//!    the RPC after subtracting its server-handler time and queueing
//!    moves into `rpc_gap` (network latency, retry backoff, response
//!    delivery). Sibling RPCs run in parallel with the critical one
//!    and are deliberately ignored: the round's wall time is governed
//!    by its slowest call, so only that call's costs are on the
//!    critical path.
//!
//! Because every move is a transfer between buckets, the bucket total
//! equals the root duration (up to saturation clamps on malformed
//! clocks), which is what makes the per-phase table trustworthy
//! against the measured end-to-end latency.

use crate::collect::{ServerView, SpanTree};
use syd_telemetry::names;

/// Phase bucket names, in report order. `other` is the remainder:
/// root-span time not covered by any instrumented phase.
pub const PHASES: &[&str] = &[
    "dir_resolve",
    "mark_round",
    "commit_round",
    "cascade",
    "transport_queue",
    "rpc_gap",
    "other",
];

const TRANSPORT_QUEUE: usize = 4;
const RPC_GAP: usize = 5;
const OTHER: usize = 6;

fn bucket_of(kind: &str) -> Option<usize> {
    match kind {
        k if k == names::SPAN_DIR_RESOLVE => Some(0),
        k if k == names::SPAN_MARK_ROUND => Some(1),
        k if k == names::SPAN_COMMIT_ROUND => Some(2),
        k if k == names::SPAN_CASCADE => Some(3),
        _ => None,
    }
}

/// Per-phase attribution of one trace's wall time.
#[derive(Clone, Debug)]
pub struct Attribution {
    /// Root-span wall time, µs.
    pub total_us: u64,
    /// `(phase, µs)` in [`PHASES`] order; sums to `total_us`.
    pub phases: Vec<(&'static str, u64)>,
    /// Whether the underlying tree was complete.
    pub complete: bool,
}

impl Attribution {
    /// Value of one phase bucket, µs.
    pub fn phase_us(&self, phase: &str) -> u64 {
        self.phases
            .iter()
            .find(|(p, _)| *p == phase)
            .map_or(0, |(_, v)| *v)
    }

    /// Sum of all buckets, µs (equals `total_us` up to clamping).
    pub fn sum_us(&self) -> u64 {
        self.phases.iter().map(|(_, v)| *v).sum()
    }
}

/// Attributes the tree's wall time to phase buckets.
pub fn attribute(tree: &SpanTree) -> Attribution {
    let mut buckets = [0u64; 7];
    let total = tree.duration_us();
    buckets[OTHER] = total;

    // Pass 1: exclusive phase attribution via iterative DFS carrying
    // the nearest enclosing phase bucket.
    let mut stack: Vec<(usize, usize)> = vec![(tree.root, OTHER)];
    let mut phase_nodes: Vec<(usize, usize)> = Vec::new(); // (node, bucket)
    while let Some((idx, enclosing)) = stack.pop() {
        let node = &tree.nodes[idx];
        let here = match bucket_of(node.kind) {
            Some(b) if idx != tree.root => {
                let dur = node.duration_us();
                buckets[b] += dur;
                buckets[enclosing] = buckets[enclosing].saturating_sub(dur);
                phase_nodes.push((idx, b));
                b
            }
            _ => enclosing,
        };
        for &child in &node.children {
            stack.push((child, here));
        }
    }
    // The root itself owns the `other` bucket and is also decomposed.
    phase_nodes.push((tree.root, OTHER));

    // Pass 2: decompose each phase's critical RPC into queueing and
    // network/retry gap.
    for (idx, bucket) in phase_nodes {
        let node = &tree.nodes[idx];
        let crit = node
            .children
            .iter()
            .copied()
            .filter(|&c| tree.nodes[c].kind == names::SPAN_RPC_CLIENT)
            .max_by_key(|&c| tree.nodes[c].duration_us());
        let Some(crit) = crit else { continue };
        let rpc = &tree.nodes[crit];
        let queue_us: u64 = rpc
            .children
            .iter()
            .copied()
            .filter(|&c| tree.nodes[c].kind == names::SPAN_TRANSPORT_QUEUE)
            .map(|c| tree.nodes[c].duration_us())
            .sum();
        let serve_us = rpc.server.as_ref().map_or(0, ServerView::duration_us);
        let gap_us = rpc
            .duration_us()
            .saturating_sub(serve_us)
            .saturating_sub(queue_us);
        let moved = (queue_us + gap_us).min(buckets[bucket]);
        // Keep the transfer balanced even when clocks misbehave.
        let queue_moved = queue_us.min(moved);
        let gap_moved = moved - queue_moved;
        buckets[bucket] -= moved;
        buckets[TRANSPORT_QUEUE] += queue_moved;
        buckets[RPC_GAP] += gap_moved;
    }

    Attribution {
        total_us: total,
        phases: PHASES.iter().copied().zip(buckets).collect(),
        complete: tree.complete,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use crate::collect::{AssemblyMode, Collector};
    use crate::SpanRecord;

    fn rec(
        span: u64,
        parent: u64,
        kind: &'static str,
        device: u64,
        start: u64,
        end: u64,
    ) -> SpanRecord {
        SpanRecord {
            trace: 1,
            span,
            parent,
            kind,
            device,
            start_us: start,
            end_us: end,
            attrs: Default::default(),
        }
    }

    /// root [0,1000]
    ///   dir.resolve [0,100]
    ///   mark_round [100,600]
    ///     rpc A [110,580] (crit) server [300,500], queue [115,150]
    ///     rpc B [110,300] server [150,250]  (parallel, ignored)
    ///   commit_round [600,900]
    ///     rpc C [610,890] server [700,850]
    fn build() -> crate::collect::SpanTree {
        let mut c = Collector::new(AssemblyMode::Lossy);
        c.ingest(rec(1, 0, names::SPAN_SCHEDULE, 1, 0, 1000));
        c.ingest(rec(2, 1, names::SPAN_DIR_RESOLVE, 1, 0, 100));
        c.ingest(rec(3, 1, names::SPAN_MARK_ROUND, 1, 100, 600));
        c.ingest(rec(4, 3, names::SPAN_RPC_CLIENT, 1, 110, 580));
        c.ingest(rec(4, 0, names::SPAN_RPC_SERVER, 2, 300, 500));
        c.ingest(rec(7, 4, names::SPAN_TRANSPORT_QUEUE, 1, 115, 150));
        c.ingest(rec(5, 3, names::SPAN_RPC_CLIENT, 1, 110, 300));
        c.ingest(rec(5, 0, names::SPAN_RPC_SERVER, 3, 150, 250));
        c.ingest(rec(6, 1, names::SPAN_COMMIT_ROUND, 1, 600, 900));
        c.ingest(rec(8, 6, names::SPAN_RPC_CLIENT, 1, 610, 890));
        c.ingest(rec(8, 0, names::SPAN_RPC_SERVER, 2, 700, 850));
        c.assemble(1).unwrap()
    }

    #[test]
    fn buckets_sum_to_total() {
        let attr = attribute(&build());
        assert_eq!(attr.total_us, 1000);
        assert_eq!(attr.sum_us(), 1000);
        assert!(attr.complete);
    }

    #[test]
    fn phases_get_exclusive_time_and_rpc_decomposes() {
        let attr = attribute(&build());
        assert_eq!(attr.phase_us("dir_resolve"), 100);
        // mark round: 500 total, minus crit-RPC queue (35) and gap
        // (470 - 200 server - 35 queue = 235).
        assert_eq!(attr.phase_us("mark_round"), 500 - 35 - 235);
        assert_eq!(attr.phase_us("transport_queue"), 35);
        // commit round: 300, crit rpc 280, server 150, gap 130.
        assert_eq!(attr.phase_us("commit_round"), 300 - 130);
        assert_eq!(attr.phase_us("rpc_gap"), 235 + 130);
        // other: 1000 - 100 - 500 - 300 = 100 (slot search etc.)
        assert_eq!(attr.phase_us("other"), 100);
    }

    #[test]
    fn parallel_sibling_rpcs_do_not_overdraw_the_round() {
        // Two parallel RPCs each longer than naive subtraction would
        // allow; only the critical one is decomposed.
        let mut c = Collector::new(AssemblyMode::Lossy);
        c.ingest(rec(1, 0, names::SPAN_SCHEDULE, 1, 0, 200));
        c.ingest(rec(2, 1, names::SPAN_MARK_ROUND, 1, 0, 200));
        c.ingest(rec(3, 2, names::SPAN_RPC_CLIENT, 1, 0, 190));
        c.ingest(rec(3, 0, names::SPAN_RPC_SERVER, 2, 10, 20));
        c.ingest(rec(4, 2, names::SPAN_RPC_CLIENT, 1, 0, 185));
        c.ingest(rec(4, 0, names::SPAN_RPC_SERVER, 3, 10, 20));
        let attr = attribute(&c.assemble(1).unwrap());
        assert_eq!(attr.sum_us(), attr.total_us);
        // Only crit (190): gap 180; bucket keeps the rest.
        assert_eq!(attr.phase_us("rpc_gap"), 180);
        assert_eq!(attr.phase_us("mark_round"), 20);
    }

    #[test]
    fn empty_tree_is_all_other() {
        let mut c = Collector::new(AssemblyMode::Lossy);
        c.ingest(rec(1, 0, names::SPAN_SCHEDULE, 1, 0, 50));
        let attr = attribute(&c.assemble(1).unwrap());
        assert_eq!(attr.phase_us("other"), 50);
        assert_eq!(attr.sum_us(), 50);
    }
}
