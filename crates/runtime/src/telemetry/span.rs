//! Causal span trees folded from the telemetry stream.
//!
//! A [`SpanForest`] turns the flat [`TelemetryEvent`] stream into a
//! per-task-instance span tree: every task owns a root span spanning
//! ready→completion, with child phase spans for queue-wait,
//! input-fetch, deserialize, compute, serialize and writeback, plus
//! retry/resubmit spans whenever the chaos layer re-ran the task.
//! Causal parent edges point at the data-dependency producer that
//! finished last, ties on the higher [`TaskId`] — the one rule the
//! critical-path walk-back uses too. The critical path is marked by
//! walking those causal parents back from the last task to finish.
//!
//! Everything is folded in integer virtual-time nanoseconds from the
//! deterministic event stream, so the exports ([`SpanForest::to_otlp_json`]
//! and the collapsed-stack form in [`super::flame`]) are byte-identical
//! at any `--threads` setting.

use std::fmt::Write as _;

use gpuflow_chaos::mix64;

use crate::task::{TaskId, TaskTable};
use crate::trace::TraceState;
use crate::trace_analysis::latest_finishing;
use crate::workflow::Workflow;

use super::event::{json_escape_into, LinkKind, TelemetryEvent};
use super::TelemetryLog;

/// Seed folded into every deterministic span/trace identifier.
const SPAN_ID_SEED: u64 = 0x5A5A_D00D_5EED_0001;

/// The lifecycle phase a span covers, in canonical pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanPhase {
    /// Ready-to-dispatch interval (scheduler queue residency).
    QueueWait,
    /// Input transfers toward the executing node (`read` / `h2d`).
    InputFetch,
    /// Input deserialization on the worker.
    Deserialize,
    /// Kernel execution (serial + parallel fractions and CPU↔GPU
    /// coordination are aggregated under one compute span).
    Compute,
    /// Output serialization on the worker.
    Serialize,
    /// Output transfers away from the node (`write` / `d2h`).
    Writeback,
    /// Backoff window between a failed attempt and its retry.
    RetryBackoff,
    /// Zero-length marker: the task was resubmitted after a node loss.
    Resubmit,
}

impl SpanPhase {
    /// Every phase in canonical pipeline order.
    pub const ALL: [SpanPhase; 8] = [
        SpanPhase::QueueWait,
        SpanPhase::InputFetch,
        SpanPhase::Deserialize,
        SpanPhase::Compute,
        SpanPhase::Serialize,
        SpanPhase::Writeback,
        SpanPhase::RetryBackoff,
        SpanPhase::Resubmit,
    ];

    /// Stable label used in exports and flame-graph frames.
    pub fn label(self) -> &'static str {
        match self {
            SpanPhase::QueueWait => "queue-wait",
            SpanPhase::InputFetch => "input-fetch",
            SpanPhase::Deserialize => "deserialize",
            SpanPhase::Compute => "compute",
            SpanPhase::Serialize => "serialize",
            SpanPhase::Writeback => "writeback",
            SpanPhase::RetryBackoff => "retry",
            SpanPhase::Resubmit => "resubmit",
        }
    }

    /// Canonical index (position in [`SpanPhase::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One phase interval inside a task instance, in virtual-time ns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Which lifecycle phase this span covers.
    pub phase: SpanPhase,
    /// Inclusive start, virtual ns.
    pub t0_ns: u64,
    /// Exclusive end, virtual ns (`t0_ns` for zero-length markers).
    pub t1_ns: u64,
    /// Execution attempt the span belongs to (0 = first run).
    pub attempt: u32,
}

impl PhaseSpan {
    /// Span width in virtual ns.
    pub fn duration_ns(&self) -> u64 {
        self.t1_ns.saturating_sub(self.t0_ns)
    }
}

/// The span tree of one task instance.
#[derive(Debug, Clone)]
pub struct TaskSpans {
    /// The task this tree describes.
    pub task: TaskId,
    /// Task-type name (flame-graph grouping key).
    pub task_type: String,
    /// Node the final (successful) attempt ran on.
    pub node: usize,
    /// Child phase spans, sorted by `(t0_ns, phase order, t1_ns)`.
    pub phases: Vec<PhaseSpan>,
    /// Root-span start: first observable moment of the task, virtual ns.
    pub start_ns: u64,
    /// Root-span end: completion time, virtual ns.
    pub end_ns: u64,
    /// Causal parent: the latest-finishing data-dependency producer
    /// (ties to the higher task id), if the task has predecessors.
    pub causal_parent: Option<TaskId>,
    /// Whether the task lies on the run's critical path.
    pub on_critical_path: bool,
}

impl TaskSpans {
    /// Total virtual ns attributed to `phase` across all attempts.
    pub fn phase_total_ns(&self, phase: SpanPhase) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.phase == phase)
            .map(PhaseSpan::duration_ns)
            .sum()
    }

    /// End-to-end latency of the root span in virtual ns.
    pub fn latency_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Highest attempt index seen in any phase span.
    pub fn attempts(&self) -> u32 {
        self.phases.iter().map(|p| p.attempt).max().unwrap_or(0)
    }
}

/// What [`SpanForest::from_telemetry`] accumulates for one task.
#[derive(Debug, Default)]
struct TaskFold {
    /// Instant the task last became ready, until its dispatch.
    ready_at: Option<u64>,
    /// The attempt now running (0 = first run).
    attempt: u32,
    /// Phase spans in stream order.
    phases: Vec<PhaseSpan>,
    /// Earliest observable instant.
    start: Option<u64>,
    /// Completion instant and node.
    end: Option<(u64, usize)>,
}

impl TaskFold {
    fn note_start(&mut self, at: u64) {
        self.start = Some(self.start.map_or(at, |s| s.min(at)));
    }

    /// Appends a `phase` span of the current attempt.
    fn push(&mut self, phase: SpanPhase, t0_ns: u64, t1_ns: u64) {
        self.phases.push(PhaseSpan {
            phase,
            t0_ns,
            t1_ns,
            attempt: self.attempt,
        });
    }
}

/// The complete causal span forest of one run.
#[derive(Debug, Clone, Default)]
pub struct SpanForest {
    /// Per-task span trees, ordered by ascending task id.
    pub tasks: Vec<TaskSpans>,
}

impl SpanForest {
    /// Folds the forest from a workflow and its telemetry log.
    ///
    /// Single pass over the event stream; completion times, phase
    /// intervals and retry attempts are accumulated per task, then
    /// causal parents and the critical-path marking are derived from
    /// the workflow's dependency structure. Tasks that never completed
    /// (e.g. the run was truncated) are dropped — a span tree without
    /// an end is not a span tree.
    pub fn from_telemetry(workflow: &Workflow, log: &TelemetryLog) -> SpanForest {
        let n = workflow.tasks().len();
        let mut folds: TaskTable<TaskFold> = TaskTable::new(n);

        for ev in log.events() {
            match ev {
                TelemetryEvent::TaskReady { at, task } => {
                    let f = folds.get_or_insert_with(*task, TaskFold::default);
                    f.ready_at = Some(at.as_nanos());
                    f.note_start(at.as_nanos());
                }
                TelemetryEvent::TaskDispatched { at, task, .. } => {
                    let f = folds.get_or_insert_with(*task, TaskFold::default);
                    if let Some(t0) = f.ready_at.take() {
                        f.push(SpanPhase::QueueWait, t0, at.as_nanos());
                    }
                }
                TelemetryEvent::Stage {
                    task,
                    state,
                    t0,
                    t1,
                    ..
                } => {
                    let phase = match state {
                        TraceState::Deserialize => SpanPhase::Deserialize,
                        TraceState::Serialize => SpanPhase::Serialize,
                        _ => SpanPhase::Compute,
                    };
                    let f = folds.get_or_insert_with(*task, TaskFold::default);
                    f.note_start(t0.as_nanos());
                    f.push(phase, t0.as_nanos(), t1.as_nanos());
                }
                TelemetryEvent::Transfer {
                    task, link, t0, t1, ..
                } => {
                    let phase = match link {
                        LinkKind::StorageRead | LinkKind::HostToDevice => SpanPhase::InputFetch,
                        LinkKind::StorageWrite | LinkKind::DeviceToHost => SpanPhase::Writeback,
                    };
                    let f = folds.get_or_insert_with(*task, TaskFold::default);
                    f.note_start(t0.as_nanos());
                    f.push(phase, t0.as_nanos(), t1.as_nanos());
                }
                TelemetryEvent::TaskFailed {
                    task, attempt: a, ..
                } => {
                    folds.get_or_insert_with(*task, TaskFold::default).attempt = a + 1;
                }
                TelemetryEvent::TaskRetry {
                    at,
                    task,
                    attempt: a,
                    until,
                } => {
                    folds
                        .get_or_insert_with(*task, TaskFold::default)
                        .phases
                        .push(PhaseSpan {
                            phase: SpanPhase::RetryBackoff,
                            t0_ns: at.as_nanos(),
                            t1_ns: until.as_nanos(),
                            attempt: *a,
                        });
                }
                TelemetryEvent::TaskResubmitted { at, task, .. } => {
                    let f = folds.get_or_insert_with(*task, TaskFold::default);
                    f.push(SpanPhase::Resubmit, at.as_nanos(), at.as_nanos());
                }
                TelemetryEvent::TaskCompleted { at, task, node } => {
                    folds.get_or_insert_with(*task, TaskFold::default).end =
                        Some((at.as_nanos(), *node));
                }
                _ => {}
            }
        }

        let types = workflow.task_types();
        let end_of =
            |folds: &TaskTable<TaskFold>, task: TaskId| folds.get(task).and_then(|f| f.end);
        let mut tasks: Vec<TaskSpans> = Vec::with_capacity(n);
        for id in 0..n as u32 {
            let task = TaskId(id);
            let Some((end_ns, node)) = end_of(&folds, task) else {
                continue;
            };
            let causal_parent = latest_finishing(
                workflow
                    .predecessors(task)
                    .iter()
                    .filter_map(|p| end_of(&folds, *p).map(|(e, _)| (*p, e))),
            )
            .map(|(t, _)| t);
            let (mut ph, start_ns) = match folds.get_mut(task) {
                Some(f) => (std::mem::take(&mut f.phases), f.start.unwrap_or(end_ns)),
                None => (Vec::new(), end_ns),
            };
            ph.sort_by_key(|p| (p.t0_ns, p.phase.index(), p.t1_ns, p.attempt));
            tasks.push(TaskSpans {
                task,
                task_type: types[workflow.type_id(task) as usize].to_string(),
                node,
                phases: ph,
                start_ns,
                end_ns,
                causal_parent,
                on_critical_path: false,
            });
        }

        // The critical path: from the last task to finish, follow the
        // causal parents back to a root.
        let mut hop = latest_finishing(tasks.iter().map(|t| (t.task, t.end_ns))).map(|(t, _)| t);
        while let Some(i) = hop.and_then(|task| tasks.binary_search_by_key(&task, |t| t.task).ok())
        {
            tasks[i].on_critical_path = true;
            hop = tasks[i].causal_parent;
        }
        SpanForest { tasks }
    }

    /// Number of task span trees in the forest.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the forest holds no spans.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Total span count (roots + phase children).
    pub fn span_count(&self) -> usize {
        self.tasks.len() + self.tasks.iter().map(|t| t.phases.len()).sum::<usize>()
    }

    /// Deterministic 64-bit root-span id of `task`.
    pub fn root_span_id(task: TaskId) -> u64 {
        mix64(SPAN_ID_SEED ^ ((task.0 as u64) << 1) ^ 1)
    }

    /// The OTLP/JSON-shaped export: one resource, one scope, every span
    /// flattened with stringified integer virtual-ns timestamps and
    /// deterministic hex ids. Parent edges encode the causal structure:
    /// phase spans point at their task root, task roots point at the
    /// root of their causal-parent task.
    pub fn to_otlp_json(&self) -> String {
        let trace_id = {
            let a = mix64(SPAN_ID_SEED);
            let b = mix64(SPAN_ID_SEED ^ 0xFF);
            format!("{a:016x}{b:016x}")
        };
        let mut spans = String::new();
        let mut first = true;
        let push_span = |buf: &mut String,
                         first: &mut bool,
                         id: u64,
                         parent: Option<u64>,
                         name: &str,
                         t0: u64,
                         t1: u64,
                         attrs: &[(&str, String)]| {
            if !*first {
                buf.push(',');
            }
            *first = false;
            let parent_field = match parent {
                Some(p) => format!("\"parentSpanId\":\"{p:016x}\","),
                None => String::new(),
            };
            let _ = write!(
                buf,
                "{{\"traceId\":\"{trace_id}\",\"spanId\":\"{id:016x}\",{parent_field}\"name\":\""
            );
            json_escape_into(buf, name);
            let _ = write!(
                buf,
                "\",\"kind\":1,\"startTimeUnixNano\":\"{t0}\",\"endTimeUnixNano\":\"{t1}\",\"attributes\":["
            );
            for (i, (k, v)) in attrs.iter().enumerate() {
                if i > 0 {
                    buf.push(',');
                }
                let _ = write!(buf, "{{\"key\":\"{k}\",\"value\":{{\"stringValue\":\"");
                json_escape_into(buf, v);
                buf.push_str("\"}}");
            }
            buf.push_str("]}");
        };

        for t in &self.tasks {
            let root = Self::root_span_id(t.task);
            let parent = t.causal_parent.map(Self::root_span_id);
            push_span(
                &mut spans,
                &mut first,
                root,
                parent,
                &format!("task/{}", t.task_type),
                t.start_ns,
                t.end_ns,
                &[
                    ("gpuflow.task", t.task.0.to_string()),
                    ("gpuflow.node", t.node.to_string()),
                    ("gpuflow.attempts", (t.attempts() + 1).to_string()),
                    (
                        "gpuflow.critical_path",
                        if t.on_critical_path { "true" } else { "false" }.to_string(),
                    ),
                ],
            );
            for (i, p) in t.phases.iter().enumerate() {
                let id = mix64(root ^ (i as u64 + 1));
                push_span(
                    &mut spans,
                    &mut first,
                    id,
                    Some(root),
                    p.phase.label(),
                    p.t0_ns,
                    p.t1_ns,
                    &[("gpuflow.attempt", p.attempt.to_string())],
                );
            }
        }

        format!(
            "{{\"resourceSpans\":[{{\"resource\":{{\"attributes\":[{{\"key\":\"service.name\",\
             \"value\":{{\"stringValue\":\"gpuflow\"}}}}]}},\"scopeSpans\":[{{\"scope\":\
             {{\"name\":\"gpuflow.telemetry.span\"}},\"spans\":[{spans}]}}]}}]}}\n"
        )
    }

    /// Fixed-shape integer summary for `obs summary --json`: task and
    /// span counts, critical-path size, retries, and total virtual ns
    /// per phase (every phase key always present, zero when unused).
    pub fn summary_json(&self) -> String {
        let critical = self.tasks.iter().filter(|t| t.on_critical_path).count();
        let retries: u64 = self.tasks.iter().map(|t| t.attempts() as u64).sum();
        let mut o = String::from("{");
        let _ = write!(
            o,
            "\"tasks\":{},\"spans\":{},\"critical_path_tasks\":{critical},\"retries\":{retries}",
            self.tasks.len(),
            self.span_count()
        );
        o.push_str(",\"phase_ns\":{");
        for (i, phase) in SpanPhase::ALL.iter().enumerate() {
            let total: u64 = self.tasks.iter().map(|t| t.phase_total_ns(*phase)).sum();
            if i > 0 {
                o.push(',');
            }
            let _ = write!(o, "\"{}\":{total}", phase.label());
        }
        o.push_str("}}");
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Direction;
    use crate::task::CostProfile;
    use crate::workflow::WorkflowBuilder;
    use gpuflow_cluster::KernelWork;
    use gpuflow_sim::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn diamond() -> Workflow {
        // 0 -> {1, 2} -> 3
        let mut b = WorkflowBuilder::new();
        let x = b.intermediate("x", 64);
        let y1 = b.intermediate("y1", 64);
        let y2 = b.intermediate("y2", 64);
        let c = CostProfile::serial_only(KernelWork::NONE);
        b.submit("src", c, &[(x, Direction::Out)], true).unwrap();
        b.submit("map", c, &[(x, Direction::In), (y1, Direction::Out)], true)
            .unwrap();
        b.submit("map", c, &[(x, Direction::In), (y2, Direction::Out)], true)
            .unwrap();
        b.submit(
            "reduce",
            c,
            &[(y1, Direction::In), (y2, Direction::In)],
            true,
        )
        .unwrap();
        b.build()
    }

    fn log_for_diamond() -> TelemetryLog {
        let ev = |v: TelemetryEvent| v;
        TelemetryLog::from_events(vec![
            ev(TelemetryEvent::TaskReady {
                at: t(0),
                task: TaskId(0),
            }),
            ev(TelemetryEvent::TaskDispatched {
                at: t(10),
                task: TaskId(0),
                task_type: "src".into(),
                node: 0,
                core: 0,
                cores: 1,
                gpu: None,
            }),
            ev(TelemetryEvent::Stage {
                task: TaskId(0),
                node: 0,
                core: 0,
                gpu: None,
                state: TraceState::ParallelFraction,
                t0: t(10),
                t1: t(100),
            }),
            ev(TelemetryEvent::TaskCompleted {
                at: t(100),
                task: TaskId(0),
                node: 0,
            }),
            ev(TelemetryEvent::TaskReady {
                at: t(100),
                task: TaskId(1),
            }),
            ev(TelemetryEvent::TaskReady {
                at: t(100),
                task: TaskId(2),
            }),
            ev(TelemetryEvent::TaskDispatched {
                at: t(110),
                task: TaskId(1),
                task_type: "map".into(),
                node: 0,
                core: 0,
                cores: 1,
                gpu: None,
            }),
            ev(TelemetryEvent::Transfer {
                task: TaskId(1),
                node: 0,
                link: LinkKind::StorageRead,
                bytes: 64,
                t0: t(110),
                t1: t(120),
            }),
            ev(TelemetryEvent::TaskCompleted {
                at: t(200),
                task: TaskId(1),
                node: 0,
            }),
            ev(TelemetryEvent::TaskDispatched {
                at: t(110),
                task: TaskId(2),
                task_type: "map".into(),
                node: 1,
                core: 0,
                cores: 1,
                gpu: None,
            }),
            ev(TelemetryEvent::TaskCompleted {
                at: t(300),
                task: TaskId(2),
                node: 1,
            }),
            ev(TelemetryEvent::TaskReady {
                at: t(300),
                task: TaskId(3),
            }),
            ev(TelemetryEvent::TaskDispatched {
                at: t(320),
                task: TaskId(3),
                task_type: "reduce".into(),
                node: 1,
                core: 0,
                cores: 1,
                gpu: None,
            }),
            ev(TelemetryEvent::TaskCompleted {
                at: t(400),
                task: TaskId(3),
                node: 1,
            }),
        ])
    }

    #[test]
    fn folds_queue_wait_and_phase_spans() {
        let wf = diamond();
        let forest = SpanForest::from_telemetry(&wf, &log_for_diamond());
        assert_eq!(forest.len(), 4);
        let t0 = &forest.tasks[0];
        assert_eq!(t0.phase_total_ns(SpanPhase::QueueWait), 10);
        assert_eq!(t0.phase_total_ns(SpanPhase::Compute), 90);
        let t1 = &forest.tasks[1];
        assert_eq!(t1.phase_total_ns(SpanPhase::InputFetch), 10);
    }

    #[test]
    fn causal_parent_is_latest_finishing_predecessor() {
        let wf = diamond();
        let forest = SpanForest::from_telemetry(&wf, &log_for_diamond());
        // Task 3's predecessors finish at 200 (task 1) and 300 (task 2).
        assert_eq!(forest.tasks[3].causal_parent, Some(TaskId(2)));
        assert_eq!(forest.tasks[0].causal_parent, None);
    }

    /// The tasks a forest marks as critical, ascending.
    fn marked(forest: &SpanForest) -> Vec<u32> {
        forest
            .tasks
            .iter()
            .filter(|t| t.on_critical_path)
            .map(|t| t.task.0)
            .collect()
    }

    /// A three-point stencil, `width` cells by `steps` steps.
    fn stencil(width: usize, steps: usize) -> Workflow {
        let mut b = WorkflowBuilder::new();
        let mut prev: Vec<_> = (0..width)
            .map(|i| b.input(format!("x{i}"), 1 << 20))
            .collect();
        let cost = CostProfile::fully_parallel(KernelWork::data_parallel(1e9, 1e8));
        for s in 0..steps {
            let next: Vec<_> = (0..width)
                .map(|i| b.intermediate(format!("c{s}_{i}"), 1 << 20))
                .collect();
            for (i, &out) in next.iter().enumerate() {
                let lo = i.saturating_sub(1);
                let hi = (i + 1).min(width - 1);
                let mut params: Vec<_> =
                    prev[lo..=hi].iter().map(|&x| (x, Direction::In)).collect();
                params.push((out, Direction::Out));
                b.submit("cell", cost, &params, false).unwrap();
            }
            prev = next;
        }
        b.build()
    }

    #[test]
    fn critical_path_marking_matches_walk_back() {
        use crate::trace_analysis::critical_path_from_telemetry;
        use crate::{run, RunConfig};
        use gpuflow_chaos::FaultPlan;
        use gpuflow_cluster::{ClusterSpec, ProcessorKind, StorageArchitecture};

        let wf = diamond();
        let forest = SpanForest::from_telemetry(&wf, &log_for_diamond());
        assert_eq!(marked(&forest), vec![0, 2, 3]);

        // A faulted run: a node crash that loses local-disk blocks
        // (lineage re-execution) and transient failures (retries).
        let wf = stencil(6, 6);
        let mut cfg = RunConfig::new(ClusterSpec::tiny(), ProcessorKind::Cpu)
            .with_storage(StorageArchitecture::LocalDisk)
            .with_telemetry();
        cfg.jitter_sigma = 0.0;
        let m = run(&wf, &cfg).unwrap().makespan();
        let plan = FaultPlan::new(17)
            .with_node_crash(0, m * 0.5, Some(m * 0.1))
            .with_task_failures(Some("cell"), 0.2);
        let report = run(&wf, &cfg.with_faults(plan)).unwrap();
        assert!(report.recovery.retries > 0, "{:?}", report.recovery);
        assert!(
            report.recovery.regenerated_tasks > 0,
            "{:?}",
            report.recovery
        );
        let forest = SpanForest::from_telemetry(&wf, &report.telemetry);
        let mut walk: Vec<u32> = critical_path_from_telemetry(&wf, &report.telemetry)
            .iter()
            .map(|h| h.task.0)
            .collect();
        walk.sort();
        assert!(walk.len() > 1);
        assert_eq!(marked(&forest), walk);
    }

    #[test]
    fn otlp_export_is_wellformed_and_deterministic() {
        let wf = diamond();
        let forest = SpanForest::from_telemetry(&wf, &log_for_diamond());
        let a = forest.to_otlp_json();
        let b = SpanForest::from_telemetry(&wf, &log_for_diamond()).to_otlp_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"resourceSpans\":["));
        assert!(a.contains("\"parentSpanId\""));
        assert!(a.contains("\"name\":\"queue-wait\""));
        assert!(a.ends_with("}\n"));
    }

    #[test]
    fn summary_json_has_every_phase_key() {
        let wf = diamond();
        let forest = SpanForest::from_telemetry(&wf, &log_for_diamond());
        let s = forest.summary_json();
        for phase in SpanPhase::ALL {
            assert!(s.contains(phase.label()), "missing {}: {s}", phase.label());
        }
        assert!(s.contains("\"critical_path_tasks\":3"));
    }

    #[test]
    fn retry_spans_carry_attempt_numbers() {
        let wf = {
            let mut b = WorkflowBuilder::new();
            let x = b.intermediate("x", 8);
            b.submit(
                "solo",
                CostProfile::serial_only(KernelWork::NONE),
                &[(x, Direction::Out)],
                true,
            )
            .unwrap();
            b.build()
        };
        let log = TelemetryLog::from_events(vec![
            TelemetryEvent::TaskReady {
                at: t(0),
                task: TaskId(0),
            },
            TelemetryEvent::TaskDispatched {
                at: t(5),
                task: TaskId(0),
                task_type: "solo".into(),
                node: 0,
                core: 0,
                cores: 1,
                gpu: None,
            },
            TelemetryEvent::TaskFailed {
                at: t(50),
                task: TaskId(0),
                node: 0,
                attempt: 0,
                started: t(5),
                reason: "transient",
            },
            TelemetryEvent::TaskRetry {
                at: t(50),
                task: TaskId(0),
                attempt: 0,
                until: t(80),
            },
            TelemetryEvent::TaskReady {
                at: t(80),
                task: TaskId(0),
            },
            TelemetryEvent::TaskDispatched {
                at: t(90),
                task: TaskId(0),
                task_type: "solo".into(),
                node: 0,
                core: 0,
                cores: 1,
                gpu: None,
            },
            TelemetryEvent::TaskCompleted {
                at: t(140),
                task: TaskId(0),
                node: 0,
            },
        ]);
        let forest = SpanForest::from_telemetry(&wf, &log);
        let t0 = &forest.tasks[0];
        assert_eq!(t0.phase_total_ns(SpanPhase::RetryBackoff), 30);
        assert_eq!(t0.attempts(), 1);
        let second_wait: Vec<_> = t0
            .phases
            .iter()
            .filter(|p| p.phase == SpanPhase::QueueWait && p.attempt == 1)
            .collect();
        assert_eq!(second_wait.len(), 1);
        assert_eq!(second_wait[0].duration_ns(), 10);
    }
}
