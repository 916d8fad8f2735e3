//! The harness tracer: in-memory spans around every call into a layer.
//!
//! Spans are recorded by the benchmark's own code, from outside the
//! program under test. End-to-end metrics are measured with the tracer
//! off (`begin`/`end` then cost one branch and no clock read); a traced
//! run repeats a pass with it on, and the difference between the two is
//! reported as the tracing overhead.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `parent` indexes the enclosing span; spans of
/// one op share `op_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`]; `None` while the tracer is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op_id: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), op_id: 0 }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans begun from now on belong to op `id`.
    pub fn set_op(&mut self, id: u64) {
        self.op_id = id;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    pub fn end(&mut self, id: SpanId) {
        if let SpanId(Some(index)) = id {
            self.spans[index].end_ns = self.now_ns();
            // Spans close innermost first; anything still open above this
            // one was abandoned by an early return and closes with it.
            while let Some(top) = self.open.pop() {
                if top == index {
                    break;
                }
                self.spans[top].end_ns = self.spans[index].end_ns;
            }
        }
    }

    /// Record a leaf span around `f`.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
    }

    /// Write the spans as JSONL, one object per line, with their self
    /// times.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"op_id\":{},\"self_ns\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op_id, self_ns[i]
            )?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the part of that interval
/// its direct children cover. The harness is single-threaded, so children
/// of one span never overlap each other.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut self_ns: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let covered = s.end_ns.min(spans[p].end_ns).saturating_sub(s.start_ns);
            self_ns[p] = self_ns[p].saturating_sub(covered);
        }
    }
    self_ns
}

/// Total self time in nanoseconds per layer, where a span's layer is the
/// part of its name before the first `.`.
pub fn layer_self_ns(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut layers: Vec<(&'static str, u64)> = Vec::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        match layers.iter_mut().find(|(l, _)| *l == layer) {
            Some(slot) => slot.1 += ns,
            None => layers.push((layer, ns)),
        }
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, op_id: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("op.total", 0, 100, None),
            span("sim.run", 10, 70, Some(0)),
            span("json.encode", 70, 90, Some(0)),
            span("sim.inner", 20, 30, Some(1)),
        ];
        // op: 100 - 60 - 20; run: 60 - 10; grandchildren are charged to
        // their parent only, never twice.
        assert_eq!(self_times(&spans), vec![20, 50, 20, 10]);
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100, "self times partition the root");
        let layers = layer_self_ns(&spans);
        assert_eq!(layers, vec![("op", 20), ("sim", 60), ("json", 20)]);
    }

    #[test]
    fn a_child_running_past_its_parent_is_clipped() {
        let spans = vec![span("a.x", 0, 50, None), span("b.y", 40, 80, Some(0))];
        assert_eq!(self_times(&spans), vec![40, 40]);
    }

    #[test]
    fn tracer_nests_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_op(3);
        let outer = t.begin("op.total");
        t.timed("sim.run", || std::hint::black_box(1 + 1));
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].op_id, 3);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);

        let mut off = Tracer::new(false);
        let id = off.begin("op.total");
        off.end(id);
        assert!(off.spans().is_empty());
    }
}
