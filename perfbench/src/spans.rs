//! In-memory spans recorded by the benchmark's own code around each
//! call it makes into a layer. A span has a name, start, end and the
//! index of its parent; spans of one request share its id. Recording
//! writes into capacity reserved up front (no allocation while the
//! measured window runs), the spans are written out when the run ends,
//! and a layer's self time is its span's duration minus what its
//! children cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Request (or operation) id shared by a request's spans.
    pub id: u64,
    /// Layer call the span wraps, e.g. `server.admit`.
    pub name: &'static str,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the parent span in the same tracer, if any.
    pub parent: Option<u32>,
}

/// Handle to an open span; closing an inert handle does nothing.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

impl Open {
    /// No span: a root's parent, or what an off tracer hands out.
    pub const NONE: Open = Open(None);
}

/// A per-thread span recorder. Off, or full, it records nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A recorder with room for `capacity` spans (reserved now).
    pub fn new(on: bool, epoch: Instant, capacity: usize) -> Self {
        let spans = Vec::with_capacity(if on { capacity } else { 0 });
        Self { on, epoch, spans, dropped: 0 }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` for request `id`, under `parent`.
    pub fn open(&mut self, id: u64, name: &'static str, parent: Open) -> Open {
        if !self.on {
            return Open::NONE;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return Open::NONE;
        }
        let start_ns = self.ns();
        self.spans.push(Span { id, name, start_ns, end_ns: start_ns, parent: parent.0 });
        Open(Some(self.spans.len() as u32 - 1))
    }

    /// Close a span opened by [`Tracer::open`].
    pub fn close(&mut self, span: Open) {
        if let Some(i) = span.0 {
            let end = self.ns();
            self.spans[i as usize].end_ns = end;
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans not recorded because the reserved capacity ran out.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children (children of one parent never overlap here: each
/// tracer belongs to one thread and spans nest).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p as usize] += s.end_ns - s.start_ns;
        }
    }
    spans.iter().zip(child).map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c)).collect()
}

/// Self times grouped by span name, across any number of tracers.
pub fn self_times_by_name<'a>(
    tracers: impl IntoIterator<Item = &'a Tracer>,
) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for t in tracers {
        for (s, own) in t.spans().iter().zip(self_times(t.spans())) {
            out.entry(s.name).or_default().push(own as f64);
        }
    }
    out
}

/// Tracing overhead in percent: per-operation time of traced over
/// untraced operations, minus one, from `[traced ns, traced ops,
/// untraced ns, untraced ops]` of the same run.
pub fn overhead_pct(op: [f64; 4]) -> Option<f64> {
    (op[1] > 0.0 && op[3] > 0.0).then(|| ((op[0] / op[1]) / (op[2] / op[3]) - 1.0) * 100.0)
}

/// Write one tracer's spans as JSON lines. `tracer` numbers the tracer
/// within the file and `thread` labels the thread that recorded it;
/// `parent` is an index into the same tracer's spans, -1 for a root.
pub fn write_jsonl(
    out: &mut impl Write,
    tracer: usize,
    thread: &str,
    spans: &[Span],
) -> io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or(-1, i64::from);
        writeln!(
            out,
            "{{\"tracer\":{tracer},\"thread\":\"{thread}\",\"id\":{},\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            s.id, s.name, s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { id: 1, name, start_ns, end_ns, parent }
    }

    #[test]
    fn overhead_compares_traced_with_untraced_operations() {
        let pct = overhead_pct([2200.0, 20.0, 1000.0, 10.0]).expect("both kinds ran");
        assert!((pct - 10.0).abs() < 1e-9, "{pct}");
        assert_eq!(overhead_pct([5.0, 1.0, 0.0, 0.0]), None);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 35, Some(1)),
            span("b", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 10, 20, 10]);
    }

    #[test]
    fn off_or_full_records_nothing() {
        let mut off = Tracer::new(false, Instant::now(), 8);
        let s = off.open(1, "x", Open::NONE);
        off.close(s);
        assert!(off.spans().is_empty());

        let mut t = Tracer::new(true, Instant::now(), 2);
        let root = t.open(7, "root", Open::NONE);
        let kid = t.open(7, "kid", root);
        let lost = t.open(7, "lost", root);
        t.close(lost);
        t.close(kid);
        t.close(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        let by = self_times_by_name([&t]);
        assert_eq!(by["root"].len(), 1);

        let mut buf = Vec::new();
        write_jsonl(&mut buf, 3, "gen", t.spans()).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\":\"kid\"") && text.contains("\"parent\":0"), "{text}");
        for line in text.lines() {
            let v = psd_obs::JsonValue::parse(line).expect("each line is JSON");
            assert_eq!(v.get("tracer").and_then(psd_obs::JsonValue::as_u64), Some(3));
        }
    }
}
