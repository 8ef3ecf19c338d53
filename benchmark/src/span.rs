//! In-memory spans around calls into the layers, for the traced run.
//!
//! A span is `(name, start, end, parent, round)`. Spans nest by call
//! order on one thread; the layer a span belongs to is the prefix of its
//! name up to the first `.`. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.what`, e.g. `store.sync_step`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; 0 while open.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The round (request identifier) the span belongs to.
    pub round: u32,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::enter`]; `None` inside when disabled.
#[derive(Debug, Clone, Copy)]
#[must_use = "pass the handle back to Tracer::exit"]
pub struct SpanId(Option<usize>);

/// Span recorder. A disabled tracer records nothing and reads no clock,
/// so the same driver code serves the overhead comparison.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Start or stop recording. Only between spans: a span opened while
    /// recording must be closed while recording.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    /// Open a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str, round: u32) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            round,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Close a span; spans close innermost first.
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end = self.epoch.elapsed().as_nanos() as u64;
        assert_eq!(self.open.pop(), Some(id), "spans must close in LIFO order");
        self.spans[id].end_ns = end;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name: a span's duration minus the part its direct
/// children cover. Summed over all names this equals the total duration
/// of the root spans.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.duration_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, child_ns) in spans.iter().zip(covered) {
        *out.entry(s.name).or_insert(0) += s.duration_ns().saturating_sub(child_ns);
    }
    out
}

/// Write spans as JSON lines.
pub fn write_jsonl(out: &mut impl Write, spans: &[Span]) -> io::Result<()> {
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"round\":{}}}",
            s.name, s.start_ns, s.end_ns, s.round
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("round", 0, 100, None),
            span("store.sync_step", 10, 60, Some(0)),
            span("core.on_sync", 20, 50, Some(1)),
            span("net.flight", 60, 90, Some(0)),
            span("round", 100, 150, None),
        ];
        let t = self_times(&spans);
        assert_eq!(t["round"], (100 - 50 - 30) + 50);
        assert_eq!(t["store.sync_step"], 50 - 30);
        assert_eq!(t["core.on_sync"], 30);
        assert_eq!(t["net.flight"], 30);
        // Nothing is counted twice: self times add up to the roots.
        assert_eq!(t.values().sum::<u64>(), 150);
    }

    #[test]
    fn tracer_nests_by_call_order_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let a = t.enter("round", 7);
        let b = t.enter("store.absorb", 7);
        t.exit(b);
        let c = t.enter("net.flight", 7);
        t.exit(c);
        t.exit(a);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(s[0].end_ns >= s[2].end_ns && s[1].end_ns <= s[2].start_ns);
        assert_eq!(s[1].round, 7);

        let mut off = Tracer::new(false);
        let x = off.enter("round", 0);
        off.exit(x);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn jsonl_lines() {
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &[span("net.flight", 5, 9, Some(0))]).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "{\"id\":0,\"name\":\"net.flight\",\"start_ns\":5,\"end_ns\":9,\"parent\":0,\"round\":0}\n"
        );
    }
}
