//! Worst-K slow-trace exemplar retention.
//!
//! Aggregated phase tables tell you *where* time goes on average; the
//! exemplar store keeps the actual worst trees per operation so the
//! pathological cases (the 10s TCP reconnect stall, the mark round
//! that waited out a lock) can be opened in Perfetto after the run.

use crate::collect::SpanTree;
use std::collections::HashMap;

/// Retains the `k` slowest assembled trees per root operation.
#[derive(Debug, Default)]
pub struct ExemplarStore {
    k: usize,
    by_op: HashMap<&'static str, Vec<SpanTree>>,
}

impl ExemplarStore {
    /// Creates a store retaining at most `k` trees per operation.
    pub fn new(k: usize) -> ExemplarStore {
        ExemplarStore {
            k: k.max(1),
            by_op: HashMap::new(),
        }
    }

    /// Offers one tree; it is kept only if it ranks among the worst
    /// `k` for its root kind.
    pub fn offer(&mut self, tree: SpanTree) {
        let slot = self.by_op.entry(tree.op()).or_default();
        let pos = slot
            .binary_search_by(|t| tree.duration_us().cmp(&t.duration_us()))
            .unwrap_or_else(|p| p);
        if pos < self.k {
            slot.insert(pos, tree);
            slot.truncate(self.k);
        }
    }

    /// The retained trees for `op`, slowest first.
    pub fn worst(&self, op: &str) -> &[SpanTree] {
        self.by_op.get(op).map_or(&[], Vec::as_slice)
    }

    /// Operations with at least one retained tree, sorted.
    pub fn ops(&self) -> Vec<&'static str> {
        let mut ops: Vec<&'static str> = self.by_op.keys().copied().collect();
        ops.sort_unstable();
        ops
    }

    /// Every retained tree across all operations (for export).
    pub fn all(&self) -> Vec<&SpanTree> {
        let mut trees: Vec<&SpanTree> = self.by_op.values().flatten().collect();
        trees.sort_by_key(|t| std::cmp::Reverse(t.duration_us()));
        trees
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code
mod tests {
    use super::*;
    use crate::collect::{AssemblyMode, Collector};
    use crate::SpanRecord;
    use syd_telemetry::names;

    fn tree(trace: u64, dur: u64) -> SpanTree {
        let mut c = Collector::new(AssemblyMode::Lossy);
        c.ingest(SpanRecord {
            trace,
            span: trace,
            parent: 0,
            kind: names::SPAN_SCHEDULE,
            device: 1,
            start_us: 0,
            end_us: dur,
            attrs: Vec::new(),
        });
        c.assemble(trace).unwrap()
    }

    #[test]
    fn keeps_only_the_worst_k_slowest_first() {
        let mut store = ExemplarStore::new(2);
        for (trace, dur) in [(1, 50), (2, 500), (3, 5), (4, 200)] {
            store.offer(tree(trace, dur));
        }
        let worst = store.worst(names::SPAN_SCHEDULE);
        assert_eq!(worst.len(), 2);
        assert_eq!(worst[0].duration_us(), 500);
        assert_eq!(worst[1].duration_us(), 200);
        assert_eq!(store.ops(), vec![names::SPAN_SCHEDULE]);
        assert_eq!(store.all().len(), 2);
        assert!(store.worst("unknown.op").is_empty());
    }
}
