//! Spans recorded by perfbench around its calls into each layer.
//!
//! A span has a layer, a name, a start, an end and a parent; all spans
//! of one operation (a set-up or a pass) share the operation's id.
//! Spans stay in memory and are written out as JSON lines when the run
//! ends. A disabled tracer records nothing, so untraced passes pay one
//! branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::host_clock;

/// Layers perfbench times from outside, in report order. `bench` is
/// perfbench itself: the part of an operation no layer span covers.
pub const LAYERS: [&str; 6] = [
    "bench",
    "experiments",
    "runtime",
    "telemetry",
    "daemon",
    "daemon_replay",
];

#[derive(Debug, Clone)]
struct Span {
    op: u64,
    layer: &'static str,
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<usize>);

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: host_clock(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Turns recording on or off between operations.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "toggle tracing between operations");
        self.enabled = enabled;
    }

    /// Opens the root span of a new operation, in the `bench` layer.
    pub fn begin_op(&mut self, name: &str) -> Open {
        self.op += 1;
        self.begin("bench", name)
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, layer: &'static str, name: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            op: self.op,
            layer,
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end = self.now_ns();
        assert_eq!(self.stack.pop(), Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = end;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per layer, in ns: each span's duration minus the part
    /// its children cover (children never overlap: perfbench is one
    /// thread making one call at a time).
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(children);
            *out.entry(s.layer).or_insert(0) += own;
        }
        out
    }

    /// Operations (root spans) that contain at least one span of each
    /// layer, for per-operation averages.
    pub fn ops_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut seen = std::collections::BTreeSet::new();
        for s in &self.spans {
            seen.insert((s.layer, s.op));
        }
        let mut out = BTreeMap::new();
        for (layer, _) in seen {
            *out.entry(layer).or_insert(0) += 1;
        }
        out
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"op\":{},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.layer, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let root = t.begin_op("pass");
        let child = t.begin("runtime", "run");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(root);
        let by = t.self_ns_by_layer();
        assert!(by["runtime"] >= 2_000_000);
        assert!(by["bench"] < by["runtime"]);
        assert_eq!(t.ops_by_layer()["runtime"], 1);
        assert_eq!(t.to_jsonl().lines().count(), 2);
        assert!(t.to_jsonl().contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.begin_op("pass");
        let child = t.begin("runtime", "run");
        t.end(child);
        t.end(root);
        assert_eq!(t.len(), 0);
    }
}
