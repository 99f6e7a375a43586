//! In-memory span recorder for the traced run. Spans are recorded by the
//! benchmark around its calls into each layer (name, start, end, parent and
//! per-span counters) and written out as JSON once the run is over.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Counters measured at this boundary (hook nanoseconds, book deltas…).
    pub attrs: Vec<(&'static str, u64)>,
}

/// Collects spans in memory; nothing is written until [`Tracer::to_json`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn offset(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span whose end is set later by [`Tracer::close`]; returns its id.
    pub fn open(&mut self, name: &'static str, start: Instant, parent: Option<usize>) -> usize {
        let start_ns = self.offset(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            attrs: Vec::new(),
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize, end: Instant) {
        let end_ns = self.offset(end);
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = end_ns;
        }
    }

    /// Record a finished span; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        attrs: Vec<(&'static str, u64)>,
    ) -> usize {
        let id = self.open(name, start, parent);
        self.close(id, end);
        self.spans[id].attrs = attrs;
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 64);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        );
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                span.name, span.start_ns, span.end_ns
            );
            match span.parent {
                Some(parent) => {
                    let _ = write!(out, "{parent}");
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"attrs\":{");
            for (index, (key, value)) in span.attrs.iter().enumerate() {
                if index > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{key}\":{value}");
            }
            out.push_str("}}");
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_nest_and_serialise() {
        let mut tracer = Tracer::new();
        let t0 = tracer.origin;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = tracer.open("rep", at(0), None);
        let step = tracer.record("sim.step", at(1), at(5), Some(root), vec![]);
        tracer.record("child", at(2), at(3), Some(step), vec![("n", 7)]);
        tracer.close(root, at(10));
        let durations: Vec<u64> = tracer
            .spans()
            .iter()
            .map(|span| span.end_ns - span.start_ns)
            .collect();
        assert_eq!(durations, vec![10_000_000, 4_000_000, 1_000_000]);
        let json = tracer.to_json("w", 1);
        assert!(json.starts_with("{\"workload\":\"w\",\"seed\":1,\"spans\":[{\"id\":0"));
        assert!(json
            .contains("\"start_ns\":2000000,\"end_ns\":3000000,\"parent\":1,\"attrs\":{\"n\":7}"));
        assert!(json.contains("\"parent\":null"));
    }
}
