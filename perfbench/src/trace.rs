//! In-memory spans recorded around the calls into each layer, written out
//! as a Chrome trace when the run ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed interval. Callback spans are aggregates: `dur` is the summed
/// time of `calls` calls made inside the parent span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// The cell the span belongs to (the request it serves).
    cell: usize,
    parent: Option<usize>,
    start: Duration,
    dur: Duration,
    calls: Option<u64>,
}

/// Spans of one run, kept in memory.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Trace {
    /// Records a span that started at `start` and lasted `dur`; returns its
    /// id for use as a parent.
    pub fn add(
        &mut self,
        name: &'static str,
        cell: usize,
        parent: Option<usize>,
        start: Instant,
        dur: Duration,
    ) -> usize {
        self.spans.push(Span {
            name,
            cell,
            parent,
            start: start.saturating_duration_since(self.origin),
            dur,
            calls: None,
        });
        self.spans.len() - 1
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: usize) {
        let span = &mut self.spans[id];
        span.dur = self.origin.elapsed().saturating_sub(span.start);
    }

    /// Records `calls` calls totalling `ns` inside `parent`.
    pub fn add_calls(&mut self, name: &'static str, parent: usize, calls: u64, ns: u64) {
        if calls == 0 {
            return;
        }
        let p = &self.spans[parent];
        self.spans.push(Span {
            name,
            cell: p.cell,
            parent: Some(parent),
            start: p.start,
            dur: Duration::from_nanos(ns),
            calls: Some(calls),
        });
    }

    /// The spans as Chrome trace-event JSON, one track per cell.
    pub fn to_chrome_json(&self, labels: &[String]) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{},\"cell\":\"{}\"",
                s.name,
                s.cell,
                s.start.as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6,
                s.parent.map_or(-1, |p| p as i64),
                labels.get(s.cell).map_or("", String::as_str),
            );
            if let Some(calls) = s.calls {
                let _ = write!(out, ",\"calls\":{calls}");
            }
            out.push_str("}}");
        }
        out.push_str("]}\n");
        out
    }
}
