//! Timed span trees for SyD: per-device bounded span rings, a
//! collector that assembles cross-device trees keyed by trace id, a
//! critical-path analyzer that attributes a negotiation's wall time to
//! protocol phases, a worst-K exemplar store, and a chrome
//! `trace_event` exporter.
//!
//! Spans extend the flat trace *ids* of `syd_telemetry::trace`: a
//! [`SpanRecord`] carries start/end timestamps on a process-wide
//! monotonic clock, a parent span id, a kind string from
//! `syd_telemetry::names`, the recording device, and numeric
//! key/value attributes. Records ride the existing optional trailing
//! `TraceContext` wire field — no wire-format change is needed,
//! because client and server both record under the span id minted by
//! the caller and the collector merges the two views.
//!
//! The hot path is one push under the ring's mutex per finished span;
//! nothing waits on I/O, and a full ring evicts its oldest record (the drop is
//! counted, and assembly degrades to a flagged-incomplete tree rather
//! than a panic — see [`collect`]).

#![forbid(unsafe_code)]

pub mod analyze;
pub mod collect;
pub mod exemplar;
pub mod export;
pub mod ring;

pub use analyze::{attribute, Attribution, PHASES};
pub use collect::{AssembleError, AssemblyMode, Collector, ServerView, SpanNode, SpanTree};
pub use exemplar::ExemplarStore;
pub use export::chrome_trace;
pub use ring::{registry_stats, ActiveSpan, FinishSpan, RingStats, SpanRecord, SpanRing, Tracer};
/// The process-wide clock span records are stamped from — the one the
/// journals use, so spans and journal lines share a time axis.
pub use syd_telemetry::now_us;
