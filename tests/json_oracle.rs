//! Property oracle: every JSON artifact the observability plane emits
//! must parse under the strict `syd_bench::json` parser and round-trip
//! its strings byte-for-byte — arbitrary quotes, backslashes, control
//! characters, and non-ASCII included.
//!
//! The parser is deliberately the *other* implementation (schema
//! validation, no serde), so an escaping bug on either side shows up
//! as a parse failure or a mismatched round-trip here.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use std::collections::HashMap;

use syd::trace::{chrome_trace, AssemblyMode, Collector, SpanRecord};
use syd::types::rng::cases;
use syd_bench::json::Json;
use syd_telemetry::{names, Event, EventKind, Journal, Vote};

/// `Journal::to_jsonl` emits one strict-JSON object per line, and
/// the `detail` string survives the escape/parse round trip.
#[test]
fn journal_jsonl_round_trips_arbitrary_details() {
    cases(256, |rng| {
        let details: Vec<String> = (0..1 + rng.below(7)).map(|_| rng.string(64)).collect();
        let journal = Journal::new(64);
        for detail in &details {
            journal.record(EventKind::Info, detail.clone());
        }
        let jsonl = journal.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), details.len(), "one line per event");
        for (line, want) in lines.iter().zip(&details) {
            let parsed = Json::parse(line);
            assert!(
                parsed.is_ok(),
                "parse failed: {:?}\nline: {line}",
                parsed.err()
            );
            let doc = parsed.unwrap();
            assert_eq!(
                doc.get("detail").and_then(Json::as_str),
                Some(want.as_str()),
                "detail must round-trip"
            );
            assert!(doc.get("seq").and_then(Json::as_f64).is_some());
            assert!(doc.get("kind").and_then(Json::as_str).is_some());
        }
    });
}

/// Typed protocol events whose entity, refusal reason and correlation
/// id are arbitrary text export as strict JSON too, and the `detail`
/// that comes back is the event's one rendering.
#[test]
fn journal_jsonl_round_trips_typed_events_with_arbitrary_strings() {
    cases(256, |rng| {
        let (entity, reason, corr) = (rng.string(24), rng.string(24), rng.string(24));
        let events = [
            Event::lock(rng.any_u64(), entity.as_str()),
            Event::vote(rng.any_u64(), entity.as_str(), Vote::Refused(reason)),
            Event::LinkDeleted {
                id: rng.any_u64(),
                corr,
                cascade: rng.chance(1, 2),
            },
        ];
        let journal = Journal::new(8);
        for event in &events {
            journal.emit(event.clone());
        }
        let jsonl = journal.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), events.len(), "one line per event:\n{jsonl}");
        for (line, event) in lines.iter().zip(&events) {
            let doc = Json::parse(line).unwrap_or_else(|e| panic!("{e:?}\nline: {line}"));
            assert_eq!(
                doc.get("detail").and_then(Json::as_str),
                Some(event.to_string().as_str())
            );
            assert_eq!(
                doc.get("kind").and_then(Json::as_str),
                Some(event.kind().to_string().as_str())
            );
        }
    });
}

/// The chrome `trace_event` exporter produces one strict-JSON
/// document; device labels (the only free-form strings in it)
/// round-trip through the process_name metadata events.
#[test]
fn chrome_trace_round_trips_arbitrary_device_labels() {
    cases(256, |rng| {
        let (label, fanout) = (rng.string(64), 1 + rng.below(3) as usize);
        let mut collector = Collector::new(AssemblyMode::Lossy);
        collector.ingest(SpanRecord {
            trace: 7,
            span: 1,
            parent: 0,
            kind: names::SPAN_SCHEDULE,
            device: 1,
            start_us: 0,
            end_us: 1000,
            attrs: vec![("participants", fanout as u64)],
        });
        for i in 0..fanout {
            let span = 2 + i as u64;
            collector.ingest(SpanRecord {
                trace: 7,
                span,
                parent: 1,
                kind: names::SPAN_RPC_CLIENT,
                device: 1,
                start_us: 10,
                end_us: 900,
                attrs: Vec::new(),
            });
            collector.ingest(SpanRecord {
                trace: 7,
                span,
                parent: 0,
                kind: names::SPAN_RPC_SERVER,
                device: 2,
                start_us: 100,
                end_us: 800,
                attrs: Vec::new(),
            });
        }
        let tree = collector.assemble(7).expect("assembles");
        let labels = HashMap::from([(1u64, label.clone())]);
        let doc = chrome_trace(&[tree], &labels);
        let result = Json::parse(&doc);
        assert!(
            result.is_ok(),
            "parse failed: {:?}\ndoc: {doc}",
            result.err()
        );
        let parsed = result.unwrap();
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        // 1 root + fanout clients + fanout server views, plus one
        // process_name metadata event per device.
        let x_events = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .count();
        assert_eq!(x_events, 1 + 2 * fanout);
        let meta_name = events
            .iter()
            .find(|e| {
                e.get("ph").and_then(Json::as_str) == Some("M")
                    && e.get("pid").and_then(Json::as_f64) == Some(1.0)
            })
            .and_then(|e| e.get("args"))
            .and_then(|a| a.get("name"))
            .and_then(Json::as_str);
        assert_eq!(meta_name, Some(label.as_str()), "label must round-trip");
    });
}
