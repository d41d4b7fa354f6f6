//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions: name, start, end, parent span, and the request (event,
//! segment, or tick) id they belong to. A disabled tracer records nothing
//! and reads no clock. Spans stay in memory and are written out as JSON
//! lines when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// Sentinel handle returned by a disabled tracer.
const NONE: usize = usize::MAX;

/// One recorded span, in nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `policy.psafe_check`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this span served: an event seq, a segment, or a tick.
    pub id: u64,
}

/// Total and self time of every span of one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layer {
    /// Spans recorded.
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of durations minus the time covered by direct children.
    pub self_ns: u64,
}

impl Layer {
    /// Mean self time per span.
    #[must_use]
    pub fn mean_self_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span nested in the innermost open one. Returns a handle for
    /// [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, id: u64) -> usize {
        if !self.enabled {
            return NONE;
        }
        let parent = self.open.last().copied();
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        self.open.push(idx);
        idx
    }

    /// Close the span `handle` (and any child left open inside it).
    pub fn end(&mut self, handle: usize) {
        if handle == NONE {
            return;
        }
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == handle {
                break;
            }
        }
    }

    /// Every recorded span, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals, with self time = duration minus direct children.
    #[must_use]
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let dur = span.end_ns - span.start_ns;
            let layer = out.entry(span.name).or_default();
            layer.count += 1;
            layer.total_ns += dur;
            layer.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// The spans as JSON lines.
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (idx, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"span\":{idx},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.id
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 1);
        let inner = t.begin("inner", 1);
        let leaf = t.begin("leaf", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(leaf);
        t.end(inner);
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        let layers = t.layers();
        let sum: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(
            sum, layers["outer"].total_ns,
            "self times partition the root span"
        );
        assert!(layers["leaf"].self_ns >= 2_000_000);
        assert_eq!(t.to_json_lines().lines().count(), 3);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let h = t.begin("x", 0);
        t.end(h);
        assert!(t.spans().is_empty());
        assert!(t.layers().is_empty());
    }
}
