//! Structured runtime telemetry — the observability substrate of the
//! reproduction.
//!
//! The paper's whole methodology is trace-driven (§4.2, §4.4.3): it
//! derives (de)serialization costs, user-code fractions, and resource
//! wastage from Paraver traces of the PyCOMPSs runtime. This module
//! gives our runtime the equivalent first-class instrumentation:
//!
//! * a zero-cost-when-disabled **event bus** ([`EventBus`]) threaded
//!   through the executor, scheduler, and worker caches, emitting typed
//!   [`TelemetryEvent`]s for task lifecycle, scheduler decisions (with
//!   scored candidate sets and per-decision master overhead), cache
//!   hit/miss/evict, link transfers, and per-node resource gauges;
//! * writers and folds over the recorded [`TelemetryLog`]: a Chrome
//!   `trace_event`/Perfetto exporter ([`to_chrome_trace`]), a
//!   deterministic JSONL serializer ([`TelemetryLog::to_jsonl`]), and
//!   the metrics, span and profile folds;
//! * an [`OverheadReport`] decomposing the makespan into master /
//!   compute / data-movement / idle buckets, after the Dask-overheads
//!   analysis style.
//!
//! The Paraver export ([`crate::to_paraver_prv`]) and the trace
//! analytics ([`crate::trace_analysis`]) consume the same stream via
//! [`crate::Trace::from_telemetry`], so there is exactly one source of
//! truth for what happened during a run.
//!
//! Enable collection with [`crate::RunConfig::with_telemetry`]; the
//! resulting [`crate::RunReport::telemetry`] log is the one record of
//! the run that every view reads.

mod alert;
mod chrome;
mod diff;
mod event;
mod flame;
mod histogram;
mod metrics;
mod overhead;
mod sampler;
mod span;

use std::fmt::Write as _;

pub use alert::{AlertEngine, AlertRule, AlertSeverity, AlertState, AlertTransition, RuleKind};
pub use chrome::to_chrome_trace;
pub use diff::{
    BucketDelta, CriticalSegment, PathChange, PathDelta, ResourceProfile, RunDiff, RunProfile,
    TaskTypeProfile, TypeDelta,
};
pub use event::{json_escape_into, CandidateScore, LinkKind, SchedulerDecision, TelemetryEvent};
pub use flame::to_collapsed;
pub use histogram::{Histogram, HistogramDigest};
pub use metrics::{
    fmt_seconds, BucketHistogram, MetricsHub, MetricsRegistry, SampleRow, DEFAULT_SAMPLE_INTERVAL,
};
pub use overhead::OverheadReport;
pub use sampler::{SampleStats, SpanSampler};
pub use span::{PhaseSpan, SpanForest, SpanPhase, TaskSpans};

/// The executor-side collector: a no-op unless activated, so disabled
/// runs pay a single branch per emission site.
///
/// Two independent consumers can be attached: the in-memory record
/// (telemetry collection) and a live [`MetricsHub`] that folds
/// each event as it is emitted, so an HTTP scrape sees the run's
/// current state without buffering the stream.
#[derive(Debug, Clone, Default)]
pub struct EventBus {
    record: bool,
    live: Option<MetricsHub>,
    events: Vec<TelemetryEvent>,
}

impl EventBus {
    /// A bus that records events iff `record`.
    pub fn new(record: bool) -> Self {
        EventBus {
            record,
            live: None,
            events: Vec::new(),
        }
    }

    /// Attaches a live metrics hub; every emitted event is folded into
    /// it immediately.
    pub fn with_live(mut self, hub: MetricsHub) -> Self {
        self.live = Some(hub);
        self
    }

    /// Whether emissions are consumed by anything. Emission sites guard
    /// event construction on this, so a bus with no consumer allocates
    /// nothing.
    #[inline]
    pub fn active(&self) -> bool {
        self.record || self.live.is_some()
    }

    /// Emits one event: forwards to the live hub if attached, then
    /// records it (dropped when no consumer is attached).
    #[inline]
    pub fn push(&mut self, ev: TelemetryEvent) {
        if let Some(hub) = &self.live {
            hub.observe(&ev);
        }
        if self.record {
            self.events.push(ev);
        }
    }

    /// Events recorded so far.
    pub fn events(&self) -> &[TelemetryEvent] {
        &self.events
    }

    /// Seals the live hub's series, if one is attached (call at end of
    /// run, before the bus is consumed).
    pub fn finish_live(&self) {
        if let Some(hub) = &self.live {
            hub.finish();
        }
    }

    /// Consumes the bus into an immutable log.
    pub fn into_log(self) -> TelemetryLog {
        TelemetryLog {
            events: self.events,
        }
    }
}

/// An immutable event stream from one run, in emission order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryLog {
    events: Vec<TelemetryEvent>,
}

impl TelemetryLog {
    /// Wraps a pre-built event sequence.
    pub fn from_events(events: Vec<TelemetryEvent>) -> Self {
        TelemetryLog { events }
    }

    /// The events, in emission order.
    pub fn events(&self) -> &[TelemetryEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The deterministic JSONL serialization of the stream: one JSON
    /// object per event, each on its own line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }

    /// The scheduler decisions, in dispatch order.
    pub fn decisions(&self) -> impl Iterator<Item = &SchedulerDecision> {
        self.events.iter().filter_map(|e| match e {
            TelemetryEvent::Decision(d) => Some(d),
            _ => None,
        })
    }

    /// Renders the scheduler decision log as a text table: one line per
    /// decision with the scored candidate set and the chosen node.
    pub fn render_decisions(&self) -> String {
        let mut out = String::from(
            "time_s       task   node  queue  overhead_us  candidates (node:slots/cached)\n",
        );
        for d in self.decisions() {
            let mut cands = String::new();
            for (i, c) in d.candidates.iter().enumerate() {
                if i > 0 {
                    cands.push(' ');
                }
                let _ = write!(cands, "{}:{}/{}", c.node, c.free_slots, c.cached_bytes);
            }
            let _ = writeln!(
                out,
                "{:<12.6} {:<6} {:<5} {:<6} {:<12.1} {}",
                d.at.as_secs_f64(),
                d.task.0,
                d.chosen,
                d.queue_depth,
                d.sim_overhead.as_nanos() as f64 / 1e3,
                cands
            );
        }
        out
    }

    /// Event counts per kind, `(kind, count)` in a fixed report order.
    pub fn summary_counts(&self) -> Vec<(&'static str, usize)> {
        const KINDS: [&str; 16] = [
            "ready",
            "decision",
            "dispatch",
            "stage",
            "transfer",
            "cache",
            "evict",
            "gauge",
            "complete",
            "fault",
            "failed",
            "retry",
            "resubmit",
            "node-down",
            "node-up",
            "invalidate",
        ];
        KINDS
            .iter()
            .map(|kind| {
                (
                    *kind,
                    self.events.iter().filter(|e| e.kind() == *kind).count(),
                )
            })
            .collect()
    }

    /// Event counts per kind, in a fixed report order.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "telemetry events: {}", self.len());
        for (kind, n) in self.summary_counts() {
            let _ = writeln!(out, "  {kind:<10} {n}");
        }
        out
    }

    /// Machine-readable counterpart of [`TelemetryLog::summary`]: a
    /// single deterministic JSON object, `{"events": N, "kinds":
    /// {"ready": N, ...}}` with kinds in the fixed report order.
    pub fn summary_json(&self) -> String {
        let mut out = String::from("{\"events\":");
        let _ = write!(out, "{}", self.len());
        out.push_str(",\"kinds\":{");
        for (i, (kind, n)) in self.summary_counts().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{kind}\":{n}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskId;
    use gpuflow_sim::SimTime;

    fn ready(task: u32) -> TelemetryEvent {
        TelemetryEvent::TaskReady {
            at: SimTime::ZERO,
            task: TaskId(task),
        }
    }

    #[test]
    fn inactive_bus_drops_events() {
        let mut bus = EventBus::new(false);
        assert!(!bus.active());
        bus.push(ready(0));
        assert!(bus.into_log().is_empty());
    }

    #[test]
    fn active_bus_preserves_order() {
        let mut bus = EventBus::new(true);
        bus.push(ready(2));
        bus.push(ready(1));
        let log = bus.into_log();
        assert_eq!(log.len(), 2);
        assert!(matches!(
            log.events()[0],
            TelemetryEvent::TaskReady {
                task: TaskId(2),
                ..
            }
        ));
    }

    #[test]
    fn jsonl_has_one_line_per_event() {
        let mut bus = EventBus::new(true);
        bus.push(ready(0));
        bus.push(ready(1));
        let log = bus.into_log();
        let jsonl = log.to_jsonl();
        assert_eq!(jsonl.lines().count(), log.len());
        assert!(jsonl.ends_with('\n'));
    }

    #[test]
    fn summary_counts_kinds() {
        let log = TelemetryLog::from_events(vec![ready(0), ready(1)]);
        let s = log.summary();
        assert!(s.contains("telemetry events: 2"));
        assert!(s.contains("ready      2"));
        assert!(s.contains("failed     0"), "fault kinds listed: {s}");
    }

    #[test]
    fn summary_json_matches_text_counts() {
        let log = TelemetryLog::from_events(vec![ready(0), ready(1)]);
        let json = log.summary_json();
        assert!(json.starts_with("{\"events\":2,\"kinds\":{"));
        assert!(json.contains("\"ready\":2"));
        assert!(json.contains("\"invalidate\":0"));
        assert!(json.ends_with("}}"));
        // Every kind in the text summary appears in the JSON.
        for (kind, _) in log.summary_counts() {
            assert!(json.contains(&format!("\"{kind}\":")));
        }
    }

    #[test]
    fn decision_log_renders_header_even_when_empty() {
        let log = TelemetryLog::default();
        assert!(log.render_decisions().starts_with("time_s"));
        assert_eq!(log.decisions().count(), 0);
    }
}
