//! Chrome `trace_event` / Perfetto export.
//!
//! Produces the JSON object format (`{"traceEvents": [...]}`) accepted
//! by Perfetto and `chrome://tracing`:
//!
//! * one *process* per cluster node plus one for the master scheduler;
//! * one *thread* (track) per host core, and one per GPU device
//!   (`tid = 1000 + gpu`);
//! * complete (`"X"`) events for every processing-stage interval and
//!   every scheduler decision;
//! * async (`"b"`/`"e"`) spans covering each task dispatch→completion;
//! * counter (`"C"`) tracks for ready-queue depth, cluster-wide busy
//!   cores/GPUs, and per-node working-set RAM, sampled at every
//!   sim-time occupancy change.
//!
//! Timestamps are microseconds with nanosecond precision (`ts`/`dur`
//! are fractional), directly comparable across exports of the same run.

use crate::task::{TaskId, TaskTable};
use crate::trace::TraceState;

use super::event::{json_escape_into, TelemetryEvent};
use super::TelemetryLog;

/// Thread-track id of GPU device `g` within its node's process.
fn gpu_tid(g: u16) -> u64 {
    1000 + g as u64
}

/// Capacity reserved per rendered event; the longest common events
/// (decisions, gauges, stages) stay under it.
const EVENT_BYTES_HINT: usize = 112;

/// The JSON document under construction: one buffer, events separated
/// by `",\n"`, numbers formatted by hand.
struct Doc {
    out: String,
    events: usize,
}

impl Doc {
    /// Starts the next event with `head`.
    fn event(&mut self, head: &str) -> &mut Self {
        if self.events > 0 {
            self.out.push_str(",\n");
        }
        self.events += 1;
        self.out.push_str(head);
        self
    }

    /// A literal fragment.
    fn s(&mut self, s: &str) -> &mut Self {
        self.out.push_str(s);
        self
    }

    /// A string escaped for a JSON literal.
    fn esc(&mut self, s: &str) -> &mut Self {
        json_escape_into(&mut self.out, s);
        self
    }

    /// An unsigned integer in decimal.
    fn n(&mut self, mut v: u64) -> &mut Self {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        loop {
            i -= 1;
            digits[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        for &d in &digits[i..] {
            self.out.push(char::from(d));
        }
        self
    }

    /// Nanoseconds as microseconds with nanosecond precision
    /// (`{us}.{ns:03}`), the unit of `ts` and `dur`.
    fn us(&mut self, ns: u64) -> &mut Self {
        self.n(ns / 1000).s(".");
        let frac = (ns % 1000) as u16;
        for d in [frac / 100, frac / 10 % 10, frac % 10] {
            self.out.push(char::from(b'0' + d as u8));
        }
        self
    }

    /// The `"pid":…,"tid":0,"ts":…` fields of a per-process track.
    fn track(&mut self, pid: u64, ns: u64) -> &mut Self {
        self.s(",\"pid\":").n(pid).s(",\"tid\":0,\"ts\":").us(ns)
    }

    /// A metadata event up to the opening quote of its `args.name`.
    fn meta(&mut self, pid: u64, tid: Option<u64>, kind: &str) -> &mut Self {
        self.event("{\"ph\":\"M\",\"pid\":").n(pid);
        if let Some(tid) = tid {
            self.s(",\"tid\":").n(tid);
        }
        self.s(",\"name\":\"").s(kind).s("\",\"args\":{\"name\":\"")
    }

    /// A task's async-span name: its type and id, or just the id when
    /// the stream never dispatched it.
    fn task_name(&mut self, names: &TaskTable<&str>, task: TaskId) -> &mut Self {
        if let Some(ty) = names.get(task) {
            self.esc(ty).s(" ");
        }
        self.s("t").n(task.0 as u64)
    }
}

/// Sets `sets[node][i]`, growing both levels as needed.
fn mark(sets: &mut Vec<Vec<bool>>, node: usize, i: u16) {
    if node >= sets.len() {
        sets.resize_with(node + 1, Vec::new);
    }
    let set = &mut sets[node];
    if i as usize >= set.len() {
        set.resize(i as usize + 1, false);
    }
    set[i as usize] = true;
}

/// The members of `sets[node]` in ascending order.
fn members(sets: &[Vec<bool>], node: usize) -> impl Iterator<Item = u16> + '_ {
    sets.get(node)
        .map_or(&[][..], Vec::as_slice)
        .iter()
        .enumerate()
        .filter(|(_, on)| **on)
        .map(|(i, _)| i as u16)
}

/// Exports a telemetry log as a Chrome `trace_event` JSON document.
pub fn to_chrome_trace(log: &TelemetryLog) -> String {
    // Pass 1: discover tracks and task names, and count the events the
    // document will hold.
    let mut cores: Vec<Vec<bool>> = Vec::new(); // node -> core seen
    let mut gpus: Vec<Vec<bool>> = Vec::new();
    let mut task_names: TaskTable<&str> = TaskTable::new(log.len());
    let mut max_node = 0usize;
    let mut rendered = 0usize;
    for ev in log.events() {
        rendered += match ev {
            TelemetryEvent::TaskReady { .. }
            | TelemetryEvent::Transfer { .. }
            | TelemetryEvent::CacheAccess { .. }
            | TelemetryEvent::CacheEvicted { .. } => 0,
            TelemetryEvent::Decision(_) | TelemetryEvent::NodeGauge { .. } => 2,
            _ => 1,
        };
        match ev {
            TelemetryEvent::Stage {
                node, core, gpu, ..
            } => {
                max_node = max_node.max(*node);
                mark(&mut cores, *node, *core);
                if let Some(g) = gpu {
                    mark(&mut gpus, *node, *g);
                }
            }
            TelemetryEvent::TaskDispatched {
                task,
                task_type,
                node,
                ..
            } => {
                max_node = max_node.max(*node);
                task_names.insert(*task, task_type.as_str());
            }
            TelemetryEvent::NodeGauge { node, .. } => max_node = max_node.max(*node),
            TelemetryEvent::FaultInjected {
                node: Some(node), ..
            }
            | TelemetryEvent::TaskFailed { node, .. }
            | TelemetryEvent::NodeDown { node, .. }
            | TelemetryEvent::NodeUp { node, .. }
            | TelemetryEvent::BlocksInvalidated { node, .. } => max_node = max_node.max(*node),
            _ => {}
        }
    }
    let master = max_node + 1;
    let master_pid = master as u64;
    let tracks = cores
        .iter()
        .chain(&gpus)
        .flatten()
        .filter(|on| **on)
        .count();

    const HEADER: &str = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    let mut doc = Doc {
        out: String::with_capacity(
            HEADER.len() + (rendered + tracks + 2 * master + 2) * EVENT_BYTES_HINT,
        ),
        events: 0,
    };
    doc.s(HEADER);
    // Metadata: processes and named tracks.
    for node in 0..=max_node {
        let pid = node as u64;
        doc.meta(pid, None, "process_name")
            .s("node ")
            .n(pid)
            .s("\"}}");
        for c in members(&cores, node) {
            doc.meta(pid, Some(c as u64), "thread_name")
                .s("core ")
                .n(c as u64)
                .s("\"}}");
        }
        for g in members(&gpus, node) {
            doc.meta(pid, Some(gpu_tid(g)), "thread_name")
                .s("gpu ")
                .n(g as u64)
                .s("\"}}");
        }
    }
    doc.meta(master_pid, None, "process_name")
        .s("master scheduler\"}}");
    doc.meta(master_pid, Some(0), "thread_name")
        .s("decisions\"}}");

    // Pass 2: spans and counters. Cluster-wide busy counters are the
    // running sum of the latest per-node gauges.
    let mut node_busy = vec![(0usize, 0usize); master];
    let (mut busy_cores_total, mut busy_gpus_total) = (0usize, 0usize);
    for ev in log.events() {
        match ev {
            TelemetryEvent::Stage {
                task,
                node,
                core,
                gpu,
                state,
                t0,
                t1,
            } => {
                let tid = match (gpu, state) {
                    (Some(g), TraceState::ParallelFraction | TraceState::CpuGpuComm) => gpu_tid(*g),
                    _ => *core as u64,
                };
                doc.event("{\"name\":\"")
                    .s(state.label())
                    .s("\",\"cat\":\"stage\",\"ph\":\"X\",\"pid\":")
                    .n(*node as u64)
                    .s(",\"tid\":")
                    .n(tid)
                    .s(",\"ts\":")
                    .us(t0.as_nanos())
                    .s(",\"dur\":")
                    .us(t1.duration_since(*t0).as_nanos())
                    .s(",\"args\":{\"task\":")
                    .n(task.0 as u64)
                    .s("}}");
            }
            TelemetryEvent::Decision(d) => {
                let at = d.at.as_nanos();
                doc.event("{\"name\":\"place t")
                    .n(d.task.0 as u64)
                    .s("\",\"cat\":\"decision\",\"ph\":\"X\"")
                    .track(master_pid, at)
                    .s(",\"dur\":")
                    .us(d.sim_overhead.as_nanos())
                    .s(",\"args\":{\"chosen\":")
                    .n(d.chosen as u64)
                    .s(",\"queue_depth\":")
                    .n(d.queue_depth as u64)
                    .s(",\"candidates\":")
                    .n(d.candidates.len() as u64)
                    .s("}}");
                doc.event("{\"name\":\"queue_depth\",\"ph\":\"C\"")
                    .track(master_pid, at)
                    .s(",\"args\":{\"ready\":")
                    .n(d.queue_depth as u64)
                    .s("}}");
            }
            TelemetryEvent::TaskDispatched { at, task, node, .. } => {
                doc.event("{\"name\":\"")
                    .task_name(&task_names, *task)
                    .s("\",\"cat\":\"task\",\"ph\":\"b\",\"id\":")
                    .n(task.0 as u64)
                    .track(*node as u64, at.as_nanos())
                    .s("}");
            }
            TelemetryEvent::TaskCompleted { at, task, node } => {
                doc.event("{\"name\":\"")
                    .task_name(&task_names, *task)
                    .s("\",\"cat\":\"task\",\"ph\":\"e\",\"id\":")
                    .n(task.0 as u64)
                    .track(*node as u64, at.as_nanos())
                    .s("}");
            }
            TelemetryEvent::NodeGauge {
                at,
                node,
                ram_used,
                busy_cores,
                busy_gpus,
            } => {
                let at = at.as_nanos();
                let (cores_was, gpus_was) =
                    std::mem::replace(&mut node_busy[*node], (*busy_cores, *busy_gpus));
                busy_cores_total = busy_cores_total - cores_was + busy_cores;
                busy_gpus_total = busy_gpus_total - gpus_was + busy_gpus;
                doc.event("{\"name\":\"ram_bytes\",\"ph\":\"C\"")
                    .track(*node as u64, at)
                    .s(",\"args\":{\"bytes\":")
                    .n(*ram_used)
                    .s("}}");
                doc.event("{\"name\":\"cluster_busy\",\"ph\":\"C\"")
                    .track(master_pid, at)
                    .s(",\"args\":{\"cores\":")
                    .n(busy_cores_total as u64)
                    .s(",\"gpus\":")
                    .n(busy_gpus_total as u64)
                    .s("}}");
            }
            TelemetryEvent::FaultInjected { at, node, what } => {
                doc.event("{\"name\":\"fault: ")
                    .s(what)
                    .s("\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"p\"")
                    .track(node.unwrap_or(master) as u64, at.as_nanos())
                    .s("}");
            }
            TelemetryEvent::TaskFailed {
                at,
                task,
                node,
                attempt,
                reason,
                ..
            } => {
                doc.event("{\"name\":\"failed t")
                    .n(task.0 as u64)
                    .s(" (")
                    .s(reason)
                    .s(")\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"p\"")
                    .track(*node as u64, at.as_nanos())
                    .s(",\"args\":{\"attempt\":")
                    .n(*attempt as u64)
                    .s("}}");
            }
            TelemetryEvent::TaskRetry {
                at,
                task,
                attempt,
                until,
            } => {
                doc.event("{\"name\":\"backoff t")
                    .n(task.0 as u64)
                    .s("\",\"cat\":\"recovery\",\"ph\":\"X\"")
                    .track(master_pid, at.as_nanos())
                    .s(",\"dur\":")
                    .us(until.duration_since(*at).as_nanos())
                    .s(",\"args\":{\"attempt\":")
                    .n(*attempt as u64)
                    .s("}}");
            }
            TelemetryEvent::TaskResubmitted {
                at,
                task,
                from_node,
            } => {
                doc.event("{\"name\":\"resubmit t")
                    .n(task.0 as u64)
                    .s("\",\"cat\":\"recovery\",\"ph\":\"i\",\"s\":\"p\"")
                    .track(master_pid, at.as_nanos())
                    .s(",\"args\":{\"from_node\":")
                    .n(*from_node as u64)
                    .s("}}");
            }
            TelemetryEvent::NodeDown { at, node } => {
                doc.event("{\"name\":\"node down\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"p\"")
                    .track(*node as u64, at.as_nanos())
                    .s("}");
            }
            TelemetryEvent::NodeUp { at, node } => {
                doc.event("{\"name\":\"node up\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"p\"")
                    .track(*node as u64, at.as_nanos())
                    .s("}");
            }
            TelemetryEvent::BlocksInvalidated {
                at,
                node,
                count,
                lost_versions,
            } => {
                doc.event(
                    "{\"name\":\"blocks invalidated\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"p\"",
                )
                .track(*node as u64, at.as_nanos())
                .s(",\"args\":{\"count\":")
                .n(*count)
                .s(",\"lost_versions\":")
                .n(*lost_versions)
                .s("}}");
            }
            TelemetryEvent::TaskReady { .. }
            | TelemetryEvent::Transfer { .. }
            | TelemetryEvent::CacheAccess { .. }
            | TelemetryEvent::CacheEvicted { .. } => {}
        }
    }

    if doc.events > 0 {
        doc.s("\n");
    }
    doc.s("]}\n");
    doc.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskType;
    use gpuflow_sim::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn sample_log() -> TelemetryLog {
        TelemetryLog::from_events(vec![
            TelemetryEvent::TaskDispatched {
                at: t(0),
                task: TaskId(0),
                task_type: TaskType::new("map"),
                node: 0,
                core: 1,
                cores: 1,
                gpu: Some(0),
            },
            TelemetryEvent::Stage {
                task: TaskId(0),
                node: 0,
                core: 1,
                gpu: Some(0),
                state: TraceState::ParallelFraction,
                t0: t(1_500),
                t1: t(2_500),
            },
            TelemetryEvent::NodeGauge {
                at: t(0),
                node: 0,
                ram_used: 42,
                busy_cores: 1,
                busy_gpus: 1,
            },
            TelemetryEvent::TaskCompleted {
                at: t(3_000),
                task: TaskId(0),
                node: 0,
            },
        ])
    }

    #[test]
    fn trace_has_envelope_and_tracks() {
        let json = to_chrome_trace(&sample_log());
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("gpu 0"));
        assert!(json.contains("\"ph\":\"C\""), "counter tracks required");
        assert!(json.contains("\"ph\":\"b\"") && json.contains("\"ph\":\"e\""));
    }

    #[test]
    fn kernel_stages_land_on_the_gpu_track() {
        let json = to_chrome_trace(&sample_log());
        assert!(json.contains("\"tid\":1000"), "gpu track tid: {json}");
    }

    #[test]
    fn timestamps_are_fractional_microseconds() {
        let json = to_chrome_trace(&sample_log());
        assert!(json.contains("\"ts\":1.500"), "{json}");
        assert!(json.contains("\"dur\":1.000"));
    }

    #[test]
    fn empty_log_is_still_valid() {
        let json = to_chrome_trace(&TelemetryLog::default());
        assert!(json.contains("traceEvents"));
    }

    #[test]
    fn fault_events_render_as_instants_and_spans() {
        let log = TelemetryLog::from_events(vec![
            TelemetryEvent::NodeDown {
                at: t(1_000),
                node: 2,
            },
            TelemetryEvent::TaskFailed {
                at: t(2_000),
                task: TaskId(7),
                node: 2,
                attempt: 0,
                started: t(500),
                reason: "node-crash",
            },
            TelemetryEvent::TaskRetry {
                at: t(2_000),
                task: TaskId(7),
                attempt: 1,
                until: t(4_000),
            },
            TelemetryEvent::NodeUp {
                at: t(9_000),
                node: 2,
            },
        ]);
        let json = to_chrome_trace(&log);
        assert!(json.contains("\"name\":\"node down\""), "{json}");
        assert!(json.contains("\"name\":\"failed t7 (node-crash)\""));
        assert!(json.contains("\"name\":\"backoff t7\""));
        assert!(json.contains("\"ph\":\"i\""), "instant markers required");
        // The crashed node's process exists even with no stage events.
        assert!(json.contains("node 2"), "{json}");
    }
}
