//! Trace analytics — the Paraver side of the paper's methodology.
//!
//! The paper extracts its data-movement metrics from Paraver traces
//! (§4.4.3) and motivates the whole study with *resource wastage*: "a non
//! desirable situation would be to keep the CPUs busy while the GPUs stay
//! idle" (§1). This module turns a [`Trace`], the task records or the
//! telemetry stream into those analyses:
//!
//! * per-node busy/idle timelines and utilization profiles,
//! * state-time breakdowns (how much of the run went to deserialization
//!   vs. compute vs. transfers — the stacked story of Fig. 7's bottom
//!   charts),
//! * the resource-wastage measure (simultaneous CPU-busy/GPU-idle time),
//! * critical-path extraction (which chain of tasks determines the
//!   makespan).

use std::collections::BTreeMap;

use gpuflow_cluster::ProcessorKind;
use gpuflow_sim::SimTime;

use crate::metrics::TaskRecord;
use crate::task::{TaskId, TaskTable};
use crate::telemetry::{TelemetryEvent, TelemetryLog};
use crate::trace::{Trace, TraceState};
use crate::workflow::Workflow;

/// Seconds spent in each processing state, cluster-wide.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StateBreakdown {
    /// Deserialization (read + decode).
    pub deserialize: f64,
    /// Serial fraction.
    pub serial: f64,
    /// Parallel fraction (CPU compute or GPU kernel).
    pub parallel: f64,
    /// CPU-GPU communication.
    pub comm: f64,
    /// Serialization (encode + write).
    pub serialize: f64,
}

impl StateBreakdown {
    /// Total accounted seconds.
    pub fn total(&self) -> f64 {
        self.deserialize + self.serial + self.parallel + self.comm + self.serialize
    }

    /// The share of each state in `[0, 1]`, in trace-state order.
    pub fn shares(&self) -> [(TraceState, f64); 5] {
        let t = self.total().max(1e-12);
        [
            (TraceState::Deserialize, self.deserialize / t),
            (TraceState::SerialFraction, self.serial / t),
            (TraceState::ParallelFraction, self.parallel / t),
            (TraceState::CpuGpuComm, self.comm / t),
            (TraceState::Serialize, self.serialize / t),
        ]
    }
}

/// Computes the cluster-wide state breakdown of a trace.
pub fn state_breakdown(trace: &Trace) -> StateBreakdown {
    let mut out = StateBreakdown::default();
    for r in trace.records() {
        let dur = (r.t1 - r.t0).as_secs_f64();
        match r.state {
            TraceState::Deserialize => out.deserialize += dur,
            TraceState::SerialFraction => out.serial += dur,
            TraceState::ParallelFraction => out.parallel += dur,
            TraceState::CpuGpuComm => out.comm += dur,
            TraceState::Serialize => out.serialize += dur,
        }
    }
    out
}

/// A merged busy interval on one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusyInterval {
    /// Start.
    pub t0: SimTime,
    /// End.
    pub t1: SimTime,
    /// Number of concurrently busy tasks over the interval (minimum 1).
    pub min_concurrency: usize,
}

/// Per-node busy timelines derived from task records (a task is "busy"
/// on its node from dispatch to completion, like a Paraver worker lane).
pub fn node_timelines(records: &[TaskRecord]) -> BTreeMap<usize, Vec<BusyInterval>> {
    let mut edges: BTreeMap<usize, Vec<(u64, i32)>> = BTreeMap::new();
    for r in records {
        edges
            .entry(r.node)
            .or_default()
            .extend([(r.start.as_nanos(), 1), (r.end.as_nanos(), -1)]);
    }
    edges
        .into_iter()
        .map(|(node, edges)| (node, merge_busy(edges)))
        .collect()
}

/// Merges residency edges `(t_ns, +1 | -1)` on one node into busy
/// intervals: an interval opens when the depth leaves zero and closes
/// when it returns there. Empty intervals are dropped.
pub(crate) fn merge_busy(mut edges: Vec<(u64, i32)>) -> Vec<BusyInterval> {
    edges.sort();
    let mut intervals = Vec::new();
    let mut depth = 0i32;
    let mut open_at = 0u64;
    let mut min_c = usize::MAX;
    for (t, d) in edges {
        if depth == 0 && d > 0 {
            open_at = t;
            min_c = usize::MAX;
        }
        depth += d;
        if depth > 0 {
            min_c = min_c.min(depth as usize);
        }
        if depth == 0 && t > open_at {
            intervals.push(BusyInterval {
                t0: SimTime::from_nanos(open_at),
                t1: SimTime::from_nanos(t),
                min_concurrency: if min_c == usize::MAX { 1 } else { min_c },
            });
        }
    }
    intervals
}

/// One task attempt's residency: from its dispatch to its completion
/// or failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttemptWindow {
    /// Dispatch instant.
    pub t0: SimTime,
    /// Completion or failure instant.
    pub t1: SimTime,
    /// Host cores held; a CPU attempt counts at least one.
    pub cores: u16,
    /// Whether the attempt held a GPU (its cores then do not count as
    /// CPU-busy).
    pub on_gpu: bool,
}

/// The attempt windows of a telemetry stream: a `TaskDispatched` opens
/// a window that the task's next `TaskCompleted` or `TaskFailed`
/// closes, so failed attempts release their cores and GPU too. Windows
/// come out in closing order; an attempt the stream never closes
/// yields none.
pub fn attempt_windows(log: &TelemetryLog) -> Vec<AttemptWindow> {
    // A full stream dispatches every task, so its ids lie below its
    // length; the table spills anything else.
    let mut open: TaskTable<AttemptWindow> = TaskTable::new(log.len());
    let mut windows = Vec::new();
    for ev in log.events() {
        match ev {
            TelemetryEvent::TaskDispatched {
                at,
                task,
                cores,
                gpu,
                ..
            } => {
                open.insert(
                    *task,
                    AttemptWindow {
                        t0: *at,
                        t1: *at,
                        cores: *cores,
                        on_gpu: gpu.is_some(),
                    },
                );
            }
            TelemetryEvent::TaskCompleted { at, task, .. }
            | TelemetryEvent::TaskFailed { at, task, .. } => {
                if let Some(w) = open.remove(*task) {
                    windows.push(AttemptWindow { t1: *at, ..w });
                }
            }
            _ => {}
        }
    }
    windows
}

/// The one CPU-busy/GPU-idle sweep behind both wastage measures, in
/// ns. A threshold of 0 counts as 1, so a fully idle cluster wastes
/// nothing.
fn cpu_busy_gpu_idle_ns(
    windows: impl IntoIterator<Item = AttemptWindow>,
    cpu_threshold: usize,
) -> u64 {
    let mut edges: Vec<(u64, i32, i32)> = Vec::new(); // (t, d_cpu, d_gpu)
    for w in windows {
        let (dc, dg) = if w.on_gpu {
            (0, 1)
        } else {
            (i32::from(w.cores.max(1)), 0)
        };
        edges.push((w.t0.as_nanos(), dc, dg));
        edges.push((w.t1.as_nanos(), -dc, -dg));
    }
    edges.sort();
    let threshold = cpu_threshold.max(1);
    let (mut cpu, mut gpu) = (0i32, 0i32);
    let mut wasted = 0u64;
    let mut prev = 0u64;
    for (t, dc, dg) in edges {
        if cpu as usize >= threshold && gpu == 0 {
            wasted += t - prev;
        }
        cpu += dc;
        gpu += dg;
        prev = t;
    }
    wasted
}

/// The resource-wastage measure of §1: seconds during which at least
/// `max(cpu_threshold, 1)` CPU cores are busy while *no* GPU kernel
/// runs ("CPUs busy while the GPUs stay idle"), over each record's
/// dispatch-to-completion window. Multi-threaded CPU tasks count every
/// core they hold. Only meaningful for GPU runs.
pub fn cpu_busy_gpu_idle_seconds(records: &[TaskRecord], cpu_threshold: usize) -> f64 {
    let windows = records.iter().map(|r| AttemptWindow {
        t0: r.start,
        t1: r.end,
        cores: r.cores,
        on_gpu: r.processor == ProcessorKind::Gpu,
    });
    cpu_busy_gpu_idle_ns(windows, cpu_threshold) as f64 / 1e9
}

/// The same wastage measure in integer nanoseconds over the
/// [`attempt_windows`] of a telemetry stream, failed attempts included,
/// for exact profile digests ([`crate::telemetry::RunProfile`]).
pub fn cpu_busy_gpu_idle_nanos_from_telemetry(log: &TelemetryLog, cpu_threshold: usize) -> u64 {
    cpu_busy_gpu_idle_ns(attempt_windows(log), cpu_threshold)
}

/// One hop of the critical path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriticalHop {
    /// The task.
    pub task: TaskId,
    /// Its completion time.
    pub end: SimTime,
}

/// Extracts the critical path of a run: walk back from the task that
/// finished last through, at each step, the latest-finishing predecessor.
/// The returned path is in execution order (first task first).
pub fn critical_path(workflow: &Workflow, records: &[TaskRecord]) -> Vec<CriticalHop> {
    let mut end_of = TaskTable::new(workflow.tasks().len());
    for r in records {
        end_of.insert(r.task, r.end);
    }
    critical_path_walk_back(workflow, &end_of)
}

/// The critical-path rule: of `(task, end)` candidates, the one that
/// finished last, ties to the higher [`TaskId`]. The walk-back and the
/// span forest's causal parents both choose with it, so a walk along
/// causal parents from the last task is the critical path.
pub(crate) fn latest_finishing<T: Ord + Copy>(
    candidates: impl IntoIterator<Item = (TaskId, T)>,
) -> Option<(TaskId, T)> {
    candidates
        .into_iter()
        .max_by_key(|&(task, end)| (end, task))
}

/// The walk-back over per-task completion times: start at the
/// latest-finishing task and repeatedly hop to the latest-finishing
/// predecessor ([`latest_finishing`]).
pub(crate) fn critical_path_walk_back(
    workflow: &Workflow,
    end_of: &TaskTable<SimTime>,
) -> Vec<CriticalHop> {
    let mut path = Vec::new();
    let mut hop = latest_finishing(end_of.iter().map(|(task, end)| (task, *end)));
    while let Some((task, end)) = hop {
        path.push(CriticalHop { task, end });
        hop = latest_finishing(
            workflow
                .predecessors(task)
                .iter()
                .filter_map(|p| end_of.get(*p).map(|end| (*p, *end))),
        );
    }
    path.reverse();
    path
}

/// Renders a utilization profile: for each node, the fraction of
/// `[0, makespan]` with at least one task running.
pub fn node_utilization(records: &[TaskRecord], makespan: f64) -> BTreeMap<usize, f64> {
    node_timelines(records)
        .into_iter()
        .map(|(node, intervals)| {
            let busy: f64 = intervals.iter().map(|i| (i.t1 - i.t0).as_secs_f64()).sum();
            (node, busy / makespan.max(1e-12))
        })
        .collect()
}

/// [`critical_path`] computed from a telemetry event stream: completion
/// events supply the per-task finish times that the record-based
/// variant reads from [`TaskRecord`]s. Both variants share the same
/// walk-back over per-task completion times, so they agree hop for hop
/// on the same run.
pub fn critical_path_from_telemetry(workflow: &Workflow, log: &TelemetryLog) -> Vec<CriticalHop> {
    let mut end_of = TaskTable::new(workflow.tasks().len());
    for ev in log.events() {
        if let TelemetryEvent::TaskCompleted { at, task, .. } = ev {
            end_of.insert(*task, *at);
        }
    }
    critical_path_walk_back(workflow, &end_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpuflow_sim::SimDuration;

    fn rec(task: u32, node: usize, proc: ProcessorKind, start_s: f64, end_s: f64) -> TaskRecord {
        TaskRecord {
            task: TaskId(task),
            task_type: "t".into(),
            node,
            core: 0,
            cores: 1,
            processor: proc,
            level: 0,
            start: SimTime::from_nanos((start_s * 1e9) as u64),
            end: SimTime::from_nanos((end_s * 1e9) as u64),
            deser: SimDuration::ZERO,
            ser: SimDuration::ZERO,
            serial: SimDuration::ZERO,
            parallel: SimDuration::ZERO,
            comm: SimDuration::ZERO,
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    #[test]
    fn breakdown_sums_trace_intervals() {
        let mut trace = Trace::new();
        let t = |s: f64| SimTime::from_nanos((s * 1e9) as u64);
        trace.push(crate::trace::TraceRecord {
            node: 0,
            core: 0,
            task: TaskId(0),
            state: TraceState::Deserialize,
            t0: t(0.0),
            t1: t(1.0),
        });
        trace.push(crate::trace::TraceRecord {
            node: 0,
            core: 0,
            task: TaskId(0),
            state: TraceState::ParallelFraction,
            t0: t(1.0),
            t1: t(4.0),
        });
        let b = state_breakdown(&trace);
        assert_eq!(b.deserialize, 1.0);
        assert_eq!(b.parallel, 3.0);
        assert_eq!(b.total(), 4.0);
        let shares = b.shares();
        assert!((shares[2].1 - 0.75).abs() < 1e-12);
    }

    #[test]
    fn timelines_merge_overlapping_tasks() {
        let records = vec![
            rec(0, 0, ProcessorKind::Cpu, 0.0, 2.0),
            rec(1, 0, ProcessorKind::Cpu, 1.0, 3.0), // overlaps task 0
            rec(2, 0, ProcessorKind::Cpu, 5.0, 6.0), // separate interval
            rec(3, 1, ProcessorKind::Cpu, 0.0, 1.0),
        ];
        let tl = node_timelines(&records);
        assert_eq!(tl[&0].len(), 2);
        assert_eq!(tl[&0][0].t1.as_secs_f64(), 3.0);
        assert_eq!(tl[&1].len(), 1);
    }

    #[test]
    fn utilization_fraction_of_makespan() {
        let records = vec![rec(0, 0, ProcessorKind::Cpu, 0.0, 2.0)];
        let u = node_utilization(&records, 4.0);
        assert!((u[&0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn wastage_counts_cpu_busy_gpu_idle_time() {
        // CPU task runs 0..4; GPU kernel task only 1..2.
        let records = vec![
            rec(0, 0, ProcessorKind::Cpu, 0.0, 4.0),
            rec(1, 0, ProcessorKind::Gpu, 1.0, 2.0),
        ];
        // GPU idle while >=1 CPU busy: [0,1) and [2,4) = 3 s.
        let wasted = cpu_busy_gpu_idle_seconds(&records, 1);
        assert!((wasted - 3.0).abs() < 1e-9);
    }

    #[test]
    fn wastage_zero_when_gpu_always_busy() {
        let records = vec![
            rec(0, 0, ProcessorKind::Cpu, 0.0, 2.0),
            rec(1, 0, ProcessorKind::Gpu, 0.0, 2.0),
        ];
        assert_eq!(cpu_busy_gpu_idle_seconds(&records, 1), 0.0);
    }

    #[test]
    fn wastage_ignores_a_fully_idle_cluster_at_threshold_zero() {
        // CPU busy 0..1 and 3..4; nothing runs in 1..3.
        let records = vec![
            rec(0, 0, ProcessorKind::Cpu, 0.0, 1.0),
            rec(1, 0, ProcessorKind::Cpu, 3.0, 4.0),
        ];
        assert!((cpu_busy_gpu_idle_seconds(&records, 0) - 2.0).abs() < 1e-9);
        assert_eq!(
            cpu_busy_gpu_idle_seconds(&records, 0),
            cpu_busy_gpu_idle_seconds(&records, 1)
        );
    }

    #[test]
    fn failed_attempts_close_their_wastage_windows() {
        let dispatch =
            |at: u64, task: u32, cores: u16, gpu: Option<u16>| TelemetryEvent::TaskDispatched {
                at: SimTime::from_nanos(at),
                task: TaskId(task),
                task_type: "t".into(),
                node: 0,
                core: 0,
                cores,
                gpu,
            };
        let failed = |at: u64, task: u32| TelemetryEvent::TaskFailed {
            at: SimTime::from_nanos(at),
            task: TaskId(task),
            node: 0,
            attempt: 0,
            started: SimTime::ZERO,
            reason: "transient",
        };
        let completed = |at: u64, task: u32| TelemetryEvent::TaskCompleted {
            at: SimTime::from_nanos(at),
            task: TaskId(task),
            node: 0,
        };
        let log = TelemetryLog::from_events(vec![
            dispatch(0, 0, 2, None),    // CPU attempt on 2 cores ...
            dispatch(0, 1, 1, Some(0)), // ... beside a GPU attempt
            failed(100, 1),             // the GPU attempt fails
            failed(300, 0),             // then the CPU attempt
            dispatch(400, 0, 1, None),  // the CPU retry
            completed(600, 0),
            dispatch(700, 1, 1, Some(0)), // the GPU retry
            completed(900, 1),
        ]);
        let windows = attempt_windows(&log);
        assert_eq!(windows.len(), 4, "every dispatch closes: {windows:?}");
        assert_eq!(
            windows[0],
            AttemptWindow {
                t0: SimTime::ZERO,
                t1: SimTime::from_nanos(100),
                cores: 1,
                on_gpu: true,
            }
        );
        // CPU busy, GPU idle: [100, 300) on 2 cores + [400, 600) on 1.
        assert_eq!(cpu_busy_gpu_idle_nanos_from_telemetry(&log, 1), 400);
        assert_eq!(cpu_busy_gpu_idle_nanos_from_telemetry(&log, 2), 200);
    }

    #[test]
    fn critical_path_follows_latest_predecessors() {
        use crate::data::Direction;
        use crate::task::CostProfile;
        use crate::workflow::WorkflowBuilder;
        use gpuflow_cluster::KernelWork;
        // Diamond DAG: t0 -> {t1 (slow), t2 (fast)} -> t3.
        let mut b = WorkflowBuilder::new();
        let cost = CostProfile::fully_parallel(KernelWork::data_parallel(1.0, 1.0));
        let x = b.intermediate("x", 8);
        let y1 = b.intermediate("y1", 8);
        let y2 = b.intermediate("y2", 8);
        b.submit("a", cost, &[(x, Direction::Out)], false).unwrap();
        b.submit(
            "b",
            cost,
            &[(x, Direction::In), (y1, Direction::Out)],
            false,
        )
        .unwrap();
        b.submit(
            "c",
            cost,
            &[(x, Direction::In), (y2, Direction::Out)],
            false,
        )
        .unwrap();
        b.submit(
            "d",
            cost,
            &[(y1, Direction::In), (y2, Direction::In)],
            false,
        )
        .unwrap();
        let wf = b.build();
        let records = vec![
            rec(0, 0, ProcessorKind::Cpu, 0.0, 1.0),
            rec(1, 0, ProcessorKind::Cpu, 1.0, 5.0), // the slow branch
            rec(2, 0, ProcessorKind::Cpu, 1.0, 2.0),
            rec(3, 0, ProcessorKind::Cpu, 5.0, 6.0),
        ];
        let path: Vec<u32> = critical_path(&wf, &records)
            .iter()
            .map(|h| h.task.0)
            .collect();
        assert_eq!(path, vec![0, 1, 3], "path must go through the slow branch");
    }

    #[test]
    fn empty_inputs_yield_empty_analyses() {
        assert!(node_timelines(&[]).is_empty());
        assert_eq!(state_breakdown(&Trace::new()), StateBreakdown::default());
        assert_eq!(cpu_busy_gpu_idle_seconds(&[], 1), 0.0);
    }
}
