//! The benchmark's own spans: one record per call into a layer, kept in
//! memory during the run and written as JSON lines when it ends.
//!
//! These are recorded from the benchmark's files, around the program's
//! public functions; the program's internal span rings are a separate
//! source (drained through `syd_trace::Collector` in `run.rs`).

use std::borrow::Cow;
use std::io::Write;
use std::time::Instant;

/// Index of a recorded span; `SpanId::NONE` is "no parent".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanId(u32);

impl SpanId {
    /// The parent of a root span.
    pub const NONE: SpanId = SpanId(0);
}

struct Span {
    name: Cow<'static, str>,
    parent: SpanId,
    /// The cycle the span belongs to; spans of one cycle share it.
    cycle: u32,
    start_us: u64,
    end_us: u64,
}

/// In-memory span log. Recording can be switched off (the untraced
/// blocks of a traced run), in which case every call is a no-op.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    pub enabled: bool,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            enabled: false,
        }
    }

    fn us(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Records a finished span.
    pub fn push(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        parent: SpanId,
        cycle: u32,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        self.spans.push(Span {
            name: name.into(),
            parent,
            cycle,
            start_us: self.us(start),
            end_us: self.us(end),
        });
        SpanId(self.spans.len() as u32)
    }

    /// Opens a span whose children are recorded before it ends.
    pub fn open(&mut self, name: &'static str, cycle: u32, start: Instant) -> SpanId {
        self.push(name, SpanId::NONE, cycle, start, start)
    }

    /// Ends a span opened with [`Recorder::open`].
    pub fn close(&mut self, id: SpanId, end: Instant) {
        let end_us = self.us(end);
        if let Some(span) = (id.0 as usize)
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i))
        {
            span.end_us = end_us;
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span: id, parent (0 = root), name,
    /// cycle, start and end in µs since the recorder was created.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"cycle\":{},\"start_us\":{},\"end_us\":{}}}",
                i + 1,
                s.parent.0,
                s.name,
                s.cycle,
                s.start_us,
                s.end_us
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_link_to_their_parent_and_serialise() {
        let mut rec = Recorder::new();
        rec.enabled = true;
        let t0 = Instant::now();
        let cycle = rec.open("bench.cycle", 7, t0);
        let child = rec.push("calendar.find", cycle, 7, t0, t0 + Duration::from_micros(5));
        rec.close(cycle, t0 + Duration::from_micros(9));
        assert_ne!(child, cycle);
        let mut out = Vec::new();
        rec.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"id\":1,\"parent\":0,\"name\":\"bench.cycle\",\"cycle\":7"));
        assert!(lines[1].contains("\"id\":2,\"parent\":1,\"name\":\"calendar.find\""));
        let dur = |l: &str| {
            let num = |key: &str| -> u64 {
                let rest = &l[l.find(key).unwrap() + key.len()..];
                rest[..rest.find([',', '}']).unwrap()].parse().unwrap()
            };
            num("\"end_us\":") - num("\"start_us\":")
        };
        assert_eq!((dur(lines[0]), dur(lines[1])), (9, 5));
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new();
        let t = Instant::now();
        let id = rec.open("bench.cycle", 0, t);
        rec.close(id, t);
        assert_eq!((id, rec.len()), (SpanId::NONE, 0));
    }
}
