//! Spans and counters recorded from outside the program, around the calls
//! the benchmark makes into each layer's public functions.
//!
//! A span has a name (`layer.call`), a start and an end, the span that
//! caused it (the op span for calls made inside an op) and the op id, plus
//! the bytes the counting allocator handed out while it was open.  Spans
//! stay in memory and are written out when the run ends.  When the tracer
//! is off, [`Tracer::span`] only calls through.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::ALLOC;

/// The name of the span covering one op's write and read phases.
pub const OP_SPAN: &str = "op";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    pub alloc_bytes: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The span recorder of one run.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open_op: Option<usize>,
    op: u64,
    counts: BTreeMap<&'static str, f64>,
    maxima: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open_op: None,
            op: 0,
            counts: BTreeMap::new(),
            maxima: BTreeMap::new(),
        }
    }

    /// Whether calls are being recorded right now.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Start op `op`, recording its spans when `on`.
    pub fn begin_op(&mut self, op: u64, on: bool) {
        self.on = on;
        self.op = op;
        if on {
            self.open_op = Some(self.spans.len());
            self.spans.push(self.open(OP_SPAN, None));
        }
    }

    /// Close the op span; spans recorded until the next `begin_op` (the
    /// benchmark's own probes) have no parent.
    pub fn end_op(&mut self) {
        if let Some(i) = self.open_op.take() {
            self.close(i);
        }
    }

    /// Call `f` as one call into the layer `name` names.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let i = self.spans.len();
        self.spans.push(self.open(name, self.open_op));
        let out = f();
        self.close(i);
        out
    }

    /// Add `value` to counter `name` (while recording).
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            *self.counts.entry(name).or_insert(0.0) += value;
        }
    }

    /// Raise gauge `name` to at least `value` (while recording).
    pub fn max(&mut self, name: &'static str, value: f64) {
        if self.on {
            let slot = self.maxima.entry(name).or_insert(value);
            *slot = slot.max(value);
        }
    }

    fn open(&self, name: &'static str, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            op: self.op,
            alloc_bytes: ALLOC.allocated(),
        }
    }

    fn close(&mut self, i: usize) {
        let now = self.origin.elapsed().as_nanos() as u64;
        let allocated = ALLOC.allocated();
        let span = &mut self.spans[i];
        span.end_ns = now;
        span.alloc_bytes = allocated - span.alloc_bytes;
    }

    /// Summed milliseconds of the spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .fold(0.0, |a, b| a + b)
    }

    /// Summed allocated bytes of the spans named `name`.
    pub fn total_alloc(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.alloc_bytes as f64)
            .fold(0.0, |a, b| a + b)
    }

    /// Counter `name` (0 when never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Gauge `name` (0 when never raised).
    pub fn maximum(&self, name: &str) -> f64 {
        self.maxima.get(name).copied().unwrap_or(0.0)
    }

    /// Recorded op spans.
    pub fn ops(&self) -> usize {
        self.spans.iter().filter(|s| s.name == OP_SPAN).count()
    }

    /// Summed self time of the op spans: their duration minus the part
    /// their child spans (the layer calls) cover — the benchmark's own
    /// glue between layer calls.
    pub fn op_self_ms(&self) -> f64 {
        let mut children = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p] += span.ms();
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .filter(|(s, _)| s.name == OP_SPAN)
            .map(|(s, c)| s.ms() - c)
            .sum()
    }

    /// The spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{},\"alloc_bytes\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op, s.alloc_bytes
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_op_and_self_time_excludes_children() {
        let mut t = Tracer::new();
        t.begin_op(7, true);
        t.span("layer.call", || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.count("layer.things", 3.0);
        t.end_op();
        t.span("probe.call", || ());
        t.begin_op(8, false);
        t.span("layer.call", || ());
        t.count("layer.things", 5.0);
        t.end_op();
        assert_eq!(t.ops(), 1);
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].op, 7);
        assert_eq!(t.spans[2].parent, None);
        assert_eq!(t.counter("layer.things"), 3.0);
        assert!(t.total_ms("layer.call") >= 2.0);
        let op = t.spans[0].ms();
        assert!((t.op_self_ms() - (op - t.spans[1].ms())).abs() < 1e-9);
        assert_eq!(t.to_json_lines().lines().count(), 3);
    }
}
