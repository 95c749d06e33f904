//! Chrome `trace_event` JSON export (loadable in Perfetto and
//! chrome://tracing).
//!
//! Each SyD device becomes a chrome *process* (named via metadata
//! events from the drained logs' labels); spans become complete `"X"`
//! events. Overlapping sibling spans on one device (a parallel RPC
//! fan-out) cannot share a chrome thread lane, so lanes are assigned
//! greedily per device: each span takes the lowest-numbered lane that
//! is free at its start time. Server views render on the serving
//! device under the `rpc.server` name.

use crate::collect::SpanTree;
use std::collections::HashMap;
use std::fmt::Write as _;
use syd_telemetry::export::json_escape;
use syd_telemetry::names;

struct Event {
    device: u64,
    name: &'static str,
    start_us: u64,
    end_us: u64,
    trace: u64,
    span: u64,
    attrs: Vec<(&'static str, u64)>,
}

/// Renders assembled trees as one chrome `trace_event` JSON document.
///
/// `labels` maps device ids to display names (from
/// `Collector::labels`); unlabeled devices render as `dev-<id>`.
pub fn chrome_trace(trees: &[SpanTree], labels: &HashMap<u64, String>) -> String {
    let mut events: Vec<Event> = Vec::new();
    for tree in trees {
        for node in &tree.nodes {
            events.push(Event {
                device: node.device,
                name: node.kind,
                start_us: node.start_us,
                end_us: node.end_us,
                trace: tree.trace,
                span: node.span,
                attrs: node.attrs.clone(),
            });
            if let Some(server) = &node.server {
                events.push(Event {
                    device: server.device,
                    name: names::SPAN_RPC_SERVER,
                    start_us: server.start_us,
                    end_us: server.end_us,
                    trace: tree.trace,
                    span: node.span,
                    attrs: Vec::new(),
                });
            }
        }
    }

    // Greedy lane assignment per device: sort by start, give each
    // event the first lane whose previous occupant has ended.
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by_key(|&i| (events[i].device, events[i].start_us, events[i].span));
    let mut lanes: HashMap<u64, Vec<u64>> = HashMap::new(); // device -> lane end times
    let mut lane_of: Vec<usize> = vec![0; events.len()];
    for &i in &order {
        let ev = &events[i];
        let ends = lanes.entry(ev.device).or_default();
        let lane = ends.iter().position(|&end| end <= ev.start_us);
        let lane = match lane {
            Some(l) => l,
            None => {
                ends.push(0);
                ends.len() - 1
            }
        };
        ends[lane] = ev.end_us;
        lane_of[i] = lane;
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut devices: Vec<u64> = lanes.keys().copied().collect();
    devices.sort_unstable();
    for device in devices {
        let name = labels
            .get(&device)
            .cloned()
            .unwrap_or_else(|| format!("dev-{device}"));
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{device},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(&name)
        );
    }
    for (i, ev) in events.iter().enumerate() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"syd\",\"pid\":{},\"tid\":{},\
             \"ts\":{},\"dur\":{},\"args\":{{\"trace\":\"{:016x}\",\"span\":\"{:016x}\"",
            json_escape(ev.name),
            ev.device,
            lane_of[i],
            ev.start_us,
            ev.end_us.saturating_sub(ev.start_us),
            ev.trace,
            ev.span,
        );
        for (key, value) in &ev.attrs {
            let _ = write!(out, ",\"{}\":{value}", json_escape(key));
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
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
            trace: 3,
            span,
            parent,
            kind,
            device,
            start_us: start,
            end_us: end,
            attrs: if kind == names::SPAN_SCHEDULE {
                [("participants", 4)][..].into()
            } else {
                Default::default()
            },
        }
    }

    #[test]
    fn emits_one_x_event_per_view_plus_metadata() {
        let mut c = Collector::new(AssemblyMode::Lossy);
        c.ingest(rec(1, 0, names::SPAN_SCHEDULE, 1, 0, 100));
        c.ingest(rec(2, 1, names::SPAN_RPC_CLIENT, 1, 10, 90));
        c.ingest(rec(2, 0, names::SPAN_RPC_SERVER, 2, 30, 70));
        let tree = c.assemble(3).unwrap();
        let labels = HashMap::from([(1, "alice".to_string()), (2, "bob".to_string())]);
        let doc = chrome_trace(&[tree], &labels);
        assert_eq!(doc.matches("\"ph\":\"X\"").count(), 3);
        assert_eq!(doc.matches("\"ph\":\"M\"").count(), 2);
        assert!(doc.contains("\"name\":\"alice\""), "{doc}");
        assert!(doc.contains("\"rpc.server\""), "{doc}");
        assert!(doc.contains("\"participants\":4"), "{doc}");
    }

    #[test]
    fn overlapping_siblings_get_distinct_lanes() {
        let mut c = Collector::new(AssemblyMode::Lossy);
        c.ingest(rec(1, 0, names::SPAN_SCHEDULE, 1, 0, 100));
        c.ingest(rec(2, 1, names::SPAN_MARK_ROUND, 1, 5, 95));
        let tree = c.assemble(3).unwrap();
        let doc = chrome_trace(&[tree], &HashMap::new());
        // Root occupies lane 0 for [0,100]; the nested span overlaps
        // it and must land on lane 1.
        assert!(doc.contains("\"tid\":1"), "{doc}");
        assert!(doc.contains("dev-1"), "{doc}");
    }
}
