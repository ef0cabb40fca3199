//! Differential run analysis — profiles, diffs, and the blame table.
//!
//! The paper's methodology is inherently *comparative*: every figure
//! sets two configurations side by side (CPU vs GPU, shared vs local
//! disk, granularity A vs B) and attributes the makespan delta to a
//! factor following Jain's systematic method. This module is that
//! machinery:
//!
//! * [`RunProfile`] — a deterministic digest of one telemetry stream:
//!   per-task-type duration histograms with exact nearest-rank
//!   percentiles, per-stage time sums, transfer volumes, per-node
//!   busy/idle accounting, the critical path (compressed to task-type
//!   segments), and the five-bucket overhead partition of
//!   [`super::OverheadReport`]. Profiles render to a line-oriented text
//!   format that parses back losslessly, so they can be committed as
//!   baselines and diffed across builds.
//! * [`RunDiff`] — the comparison of two profiles: a ranked **blame
//!   table** over the overhead buckets whose per-bucket deltas sum to
//!   the observed makespan delta *exactly* (each profile's buckets
//!   partition its makespan on the nanosecond grid, so the attribution
//!   is conservative by construction), per-task-type deltas, critical
//!   path alignment (which segments appeared, disappeared, stretched),
//!   and the factor changes between the two configurations.
//!
//! Everything here is integer arithmetic over the telemetry stream, so
//! profiles and diffs are byte-identical across thread counts and
//! reruns for a fixed seed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use gpuflow_sim::SimTime;

use crate::task::{TaskId, TaskTable};
use crate::trace_analysis::{
    cpu_busy_gpu_idle_nanos_from_telemetry, critical_path_walk_back, merge_busy,
};
use crate::workflow::Workflow;

use super::event::{json_escape_into, TelemetryEvent};
use super::histogram::{Histogram, HistogramDigest};
use super::{OverheadReport, TelemetryLog};

/// Serialization header of the profile text format.
const PROFILE_HEADER: &str = "gpuflow-profile v1";

/// Fixed bucket order of the overhead partition (render, blame table).
const BUCKETS: [&str; 5] = ["compute", "data_movement", "recovery", "master", "idle"];

/// Per-task-type digest of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaskTypeProfile {
    /// Per-task duration (dispatch → completion) distribution, ns.
    /// `duration.count` is the number of completed tasks of this type.
    pub duration: HistogramDigest,
    /// Total deserialization time, ns.
    pub deser_ns: u64,
    /// Total serialization time, ns.
    pub ser_ns: u64,
    /// Total serial-fraction time, ns.
    pub serial_ns: u64,
    /// Total parallel-fraction time, ns.
    pub parallel_ns: u64,
    /// Total CPU-GPU communication time, ns.
    pub comm_ns: u64,
    /// Total bytes moved over modelled links.
    pub transfer_bytes: u64,
    /// Total link-transfer time, ns.
    pub transfer_ns: u64,
}

impl TaskTypeProfile {
    /// The per-stage sums as `key value` pairs in serialization order.
    fn stage_fields(&self) -> [(&'static str, u64); 7] {
        [
            ("deser", self.deser_ns),
            ("ser", self.ser_ns),
            ("serial", self.serial_ns),
            ("parallel", self.parallel_ns),
            ("comm", self.comm_ns),
            ("xfer_bytes", self.transfer_bytes),
            ("xfer_ns", self.transfer_ns),
        ]
    }
}

/// Per-node busy accounting of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceProfile {
    /// Nanoseconds with at least one task resident on the node.
    pub busy_ns: u64,
    /// Number of merged busy intervals.
    pub intervals: u64,
}

/// One segment of the critical path: a run of consecutive hops that
/// share a task type, with the wall-clock span the segment advanced the
/// path by. Segment spans sum to the completion time of the last task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalSegment {
    /// Task type of the hops.
    pub task_type: String,
    /// Consecutive hops merged into this segment.
    pub hops: u64,
    /// Wall-clock the path advanced across the segment, ns.
    pub span_ns: u64,
}

/// A deterministic digest of one run, distilled from its telemetry
/// stream. See the module docs for the construction and the text
/// format.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunProfile {
    /// Human label of the run (configuration description).
    pub label: String,
    /// Makespan on the nanosecond grid.
    pub makespan_ns: u64,
    /// Tasks completed.
    pub tasks: u64,
    /// Scheduler decisions made.
    pub decisions: u64,
    /// Resource wastage (CPU busy while all GPUs idle), ns.
    pub wastage_ns: u64,
    /// Worker-cache hits across all tasks.
    pub cache_hits: u64,
    /// Worker-cache misses across all tasks.
    pub cache_misses: u64,
    /// Configuration factors (`processor`, `storage`, `policy`, plus
    /// whatever the caller adds — workload, grid, …).
    pub factors: BTreeMap<String, String>,
    /// The five-bucket overhead partition, ns. Sums to `makespan_ns`
    /// exactly.
    pub compute_ns: u64,
    /// Data-movement bucket, ns.
    pub data_movement_ns: u64,
    /// Recovery bucket, ns.
    pub recovery_ns: u64,
    /// Master bucket, ns.
    pub master_ns: u64,
    /// Idle bucket, ns.
    pub idle_ns: u64,
    /// Per-task-type digests.
    pub per_type: BTreeMap<String, TaskTypeProfile>,
    /// Per-node busy accounting.
    pub resources: BTreeMap<usize, ResourceProfile>,
    /// Critical path, compressed to task-type segments.
    pub critical_path: Vec<CriticalSegment>,
}

/// The type name of `task`; tasks the stream never dispatched count
/// under the empty name.
fn type_name<'a>(type_of: &TaskTable<&'a str>, task: TaskId) -> &'a str {
    type_of.get(task).copied().unwrap_or_default()
}

/// The profile of type `ty`, added on first sight. The name is copied
/// only then.
fn type_entry<'m>(
    per_type: &'m mut BTreeMap<String, TaskTypeProfile>,
    ty: &str,
) -> &'m mut TaskTypeProfile {
    if !per_type.contains_key(ty) {
        per_type.insert(ty.to_string(), TaskTypeProfile::default());
    }
    per_type.get_mut(ty).expect("inserted above")
}

impl RunProfile {
    /// Distills a profile from a run's telemetry stream.
    ///
    /// # Errors
    /// The stream must be non-empty — profiles of runs without
    /// telemetry would silently compare as all-zero.
    pub fn from_telemetry(
        label: &str,
        workflow: &Workflow,
        log: &TelemetryLog,
        makespan: f64,
    ) -> Result<Self, String> {
        if log.is_empty() {
            return Err("telemetry stream is empty (run with telemetry enabled)".into());
        }
        let overhead = OverheadReport::from_log(log, makespan);
        let mut profile = RunProfile {
            label: label.to_string(),
            makespan_ns: overhead.makespan_ns,
            decisions: overhead.decisions as u64,
            wastage_ns: cpu_busy_gpu_idle_nanos_from_telemetry(log, 1),
            compute_ns: overhead.compute_ns,
            data_movement_ns: overhead.data_movement_ns,
            recovery_ns: overhead.recovery_ns,
            master_ns: overhead.master_ns,
            idle_ns: overhead.idle_ns,
            ..RunProfile::default()
        };

        // One pass over the stream for types, durations, completion
        // times, stages, transfers, caches, and the per-node residency
        // edges. Per-task state lives in dense tables and type names are
        // looked up as `&str`, so no event hashes an id or allocates a
        // name.
        let bound = workflow.tasks().len();
        let mut type_of: TaskTable<&str> = TaskTable::new(bound);
        let mut dispatched_at: TaskTable<SimTime> = TaskTable::new(bound);
        let mut end_of: TaskTable<SimTime> = TaskTable::new(bound);
        let mut durations: BTreeMap<&str, Histogram> = BTreeMap::new();
        let mut node_events: BTreeMap<usize, Vec<(u64, i32)>> = BTreeMap::new();
        for ev in log.events() {
            match ev {
                TelemetryEvent::TaskDispatched {
                    at,
                    task,
                    task_type,
                    ..
                } => {
                    type_of.insert(*task, task_type.as_str());
                    // Overwritten on retry: the duration histogram
                    // digests the successful attempt.
                    dispatched_at.insert(*task, *at);
                }
                TelemetryEvent::TaskCompleted { at, task, node } => {
                    profile.tasks += 1;
                    end_of.insert(*task, *at);
                    if let Some(start) = dispatched_at.get(*task) {
                        durations
                            .entry(type_name(&type_of, *task))
                            .or_default()
                            .record(at.duration_since(*start).as_nanos());
                        node_events
                            .entry(*node)
                            .or_default()
                            .extend([(start.as_nanos(), 1), (at.as_nanos(), -1)]);
                    }
                }
                TelemetryEvent::Stage {
                    task,
                    state,
                    t0,
                    t1,
                    ..
                } => {
                    let t = type_entry(&mut profile.per_type, type_name(&type_of, *task));
                    let dur = t1.duration_since(*t0).as_nanos();
                    use crate::trace::TraceState;
                    match state {
                        TraceState::Deserialize => t.deser_ns += dur,
                        TraceState::Serialize => t.ser_ns += dur,
                        TraceState::SerialFraction => t.serial_ns += dur,
                        TraceState::ParallelFraction => t.parallel_ns += dur,
                        TraceState::CpuGpuComm => t.comm_ns += dur,
                    }
                }
                TelemetryEvent::Transfer {
                    task,
                    bytes,
                    t0,
                    t1,
                    ..
                } => {
                    let t = type_entry(&mut profile.per_type, type_name(&type_of, *task));
                    t.transfer_bytes += bytes;
                    t.transfer_ns += t1.duration_since(*t0).as_nanos();
                }
                TelemetryEvent::CacheAccess { hit, .. } => {
                    if *hit {
                        profile.cache_hits += 1;
                    } else {
                        profile.cache_misses += 1;
                    }
                }
                _ => {}
            }
        }
        for (ty, hist) in durations {
            type_entry(&mut profile.per_type, ty).duration = hist.digest();
        }

        // Per-node busy intervals: merge overlapping task residencies.
        for (node, edges) in node_events {
            let intervals = merge_busy(edges);
            profile.resources.insert(
                node,
                ResourceProfile {
                    busy_ns: intervals
                        .iter()
                        .map(|i| i.t1.duration_since(i.t0).as_nanos())
                        .sum(),
                    intervals: intervals.len() as u64,
                },
            );
        }

        // Critical path, compressed to task-type segments. Segment
        // spans chain from the previous segment's completion, so they
        // sum to the last task's completion time.
        let hops = critical_path_walk_back(workflow, &end_of);
        let mut prev_end = 0u64;
        for hop in &hops {
            let ty = match type_of.get(hop.task) {
                Some(ty) => ty.to_string(),
                None => format!("task{}", hop.task.0),
            };
            let end = hop.end.as_nanos();
            let span = end.saturating_sub(prev_end);
            prev_end = end;
            match profile.critical_path.last_mut() {
                Some(seg) if seg.task_type == ty => {
                    seg.hops += 1;
                    seg.span_ns += span;
                }
                _ => profile.critical_path.push(CriticalSegment {
                    task_type: ty,
                    hops: 1,
                    span_ns: span,
                }),
            }
        }
        Ok(profile)
    }

    /// Adds or overwrites a configuration factor.
    pub fn with_factor(mut self, key: &str, value: &str) -> Self {
        self.factors.insert(key.to_string(), value.to_string());
        self
    }

    /// The five overhead buckets `(name, ns)` in report order.
    pub fn buckets(&self) -> [(&'static str, u64); 5] {
        [
            (BUCKETS[0], self.compute_ns),
            (BUCKETS[1], self.data_movement_ns),
            (BUCKETS[2], self.recovery_ns),
            (BUCKETS[3], self.master_ns),
            (BUCKETS[4], self.idle_ns),
        ]
    }

    /// Sum of the five buckets; equals [`RunProfile::makespan_ns`] for
    /// any profile built by [`RunProfile::from_telemetry`].
    pub fn buckets_total_ns(&self) -> u64 {
        self.buckets().iter().map(|(_, v)| v).sum()
    }

    /// Completion time of the last critical-path task, ns (sum of the
    /// segment spans).
    pub fn critical_path_ns(&self) -> u64 {
        self.critical_path.iter().map(|s| s.span_ns).sum()
    }

    /// Serializes the profile to its line-oriented text format. The
    /// output is deterministic and [`RunProfile::parse`] inverts it
    /// exactly.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = writeln!(out, "{PROFILE_HEADER}");
        let _ = writeln!(out, "label {}", self.label);
        let _ = writeln!(out, "makespan_ns {}", self.makespan_ns);
        let _ = writeln!(out, "tasks {}", self.tasks);
        let _ = writeln!(out, "decisions {}", self.decisions);
        let _ = writeln!(out, "wastage_ns {}", self.wastage_ns);
        let _ = writeln!(out, "cache_hits {}", self.cache_hits);
        let _ = writeln!(out, "cache_misses {}", self.cache_misses);
        for (k, v) in &self.factors {
            let _ = writeln!(out, "factor {k} {v}");
        }
        for (name, ns) in self.buckets() {
            let _ = writeln!(out, "bucket {name} {ns}");
        }
        for (name, t) in &self.per_type {
            let _ = write!(out, "type");
            for (k, v) in t.duration.fields() {
                let _ = write!(out, " {k} {v}");
            }
            for (k, v) in t.stage_fields() {
                let _ = write!(out, " {k} {v}");
            }
            let _ = writeln!(out, " name {name}");
        }
        for (node, r) in &self.resources {
            let _ = writeln!(
                out,
                "resource {node} busy {} intervals {}",
                r.busy_ns, r.intervals
            );
        }
        for seg in &self.critical_path {
            let _ = writeln!(
                out,
                "path hops {} span {} type {}",
                seg.hops, seg.span_ns, seg.task_type
            );
        }
        out
    }

    /// Parses the text format written by [`RunProfile::render`].
    ///
    /// # Errors
    /// Reports the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(PROFILE_HEADER) => {}
            other => {
                return Err(format!(
                    "not a gpuflow profile (expected '{PROFILE_HEADER}', found {other:?})"
                ))
            }
        }
        let mut p = RunProfile::default();
        for (no, line) in lines.enumerate() {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let err = |msg: &str| format!("line {}: {msg}: '{line}'", no + 2);
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            let parse_u64 =
                |v: &str, what: &str| v.parse::<u64>().map_err(|_| err(&format!("bad {what}")));
            match tag {
                "label" => p.label = rest.to_string(),
                "makespan_ns" => p.makespan_ns = parse_u64(rest, "makespan")?,
                "tasks" => p.tasks = parse_u64(rest, "task count")?,
                "decisions" => p.decisions = parse_u64(rest, "decision count")?,
                "wastage_ns" => p.wastage_ns = parse_u64(rest, "wastage")?,
                "cache_hits" => p.cache_hits = parse_u64(rest, "cache hits")?,
                "cache_misses" => p.cache_misses = parse_u64(rest, "cache misses")?,
                "factor" => {
                    let (k, v) = rest
                        .split_once(' ')
                        .ok_or_else(|| err("factor needs key and value"))?;
                    p.factors.insert(k.to_string(), v.to_string());
                }
                "bucket" => {
                    let (name, v) = rest
                        .split_once(' ')
                        .ok_or_else(|| err("bucket needs name and value"))?;
                    let ns = parse_u64(v, "bucket value")?;
                    match name {
                        "compute" => p.compute_ns = ns,
                        "data_movement" => p.data_movement_ns = ns,
                        "recovery" => p.recovery_ns = ns,
                        "master" => p.master_ns = ns,
                        "idle" => p.idle_ns = ns,
                        other => return Err(err(&format!("unknown bucket '{other}'"))),
                    }
                }
                "type" => {
                    // Fixed key-value pairs, then `name <rest of line>`.
                    let (fields, name) = rest
                        .split_once(" name ")
                        .ok_or_else(|| err("type line needs a trailing name"))?;
                    let mut toks = fields.split_ascii_whitespace();
                    let duration = HistogramDigest::parse_fields(&mut toks).map_err(|e| err(&e))?;
                    let mut t = TaskTypeProfile {
                        duration,
                        ..TaskTypeProfile::default()
                    };
                    for (key, _) in t.clone().stage_fields() {
                        let k = toks.next().ok_or_else(|| err(&format!("missing {key}")))?;
                        if k != key {
                            return Err(err(&format!("expected '{key}', found '{k}'")));
                        }
                        let v = toks
                            .next()
                            .ok_or_else(|| err(&format!("{key} needs a value")))
                            .and_then(|v| parse_u64(v, key))?;
                        match key {
                            "deser" => t.deser_ns = v,
                            "ser" => t.ser_ns = v,
                            "serial" => t.serial_ns = v,
                            "parallel" => t.parallel_ns = v,
                            "comm" => t.comm_ns = v,
                            "xfer_bytes" => t.transfer_bytes = v,
                            "xfer_ns" => t.transfer_ns = v,
                            _ => unreachable!(),
                        }
                    }
                    p.per_type.insert(name.to_string(), t);
                }
                "resource" => {
                    let mut toks = rest.split_ascii_whitespace();
                    let node: usize = toks
                        .next()
                        .ok_or_else(|| err("resource needs a node"))?
                        .parse()
                        .map_err(|_| err("bad node index"))?;
                    let mut want = |key: &str| -> Result<u64, String> {
                        match (toks.next(), toks.next()) {
                            (Some(k), Some(v)) if k == key => parse_u64(v, key),
                            _ => Err(err(&format!("expected '{key} N'"))),
                        }
                    };
                    let busy_ns = want("busy")?;
                    let intervals = want("intervals")?;
                    p.resources
                        .insert(node, ResourceProfile { busy_ns, intervals });
                }
                "path" => {
                    let (fields, ty) = rest
                        .split_once(" type ")
                        .ok_or_else(|| err("path line needs a trailing type"))?;
                    let mut toks = fields.split_ascii_whitespace();
                    let mut want = |key: &str| -> Result<u64, String> {
                        match (toks.next(), toks.next()) {
                            (Some(k), Some(v)) if k == key => parse_u64(v, key),
                            _ => Err(err(&format!("expected '{key} N'"))),
                        }
                    };
                    let hops = want("hops")?;
                    let span_ns = want("span")?;
                    p.critical_path.push(CriticalSegment {
                        task_type: ty.to_string(),
                        hops,
                        span_ns,
                    });
                }
                other => return Err(err(&format!("unknown tag '{other}'"))),
            }
        }
        Ok(p)
    }
}

/// Signed change `b_ns - a_ns` for u64 nanosecond readings, widened
/// through i128 so no input pair can overflow, then clamped into i64.
pub fn signed_delta(a_ns: u64, b_ns: u64) -> i64 {
    let wide = b_ns as i128 - a_ns as i128;
    wide.clamp(i64::MIN as i128, i64::MAX as i128) as i64
}

/// One row of the blame table: how one overhead bucket moved between
/// the two runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketDelta {
    /// Bucket name.
    pub name: &'static str,
    /// Bucket value in run A, ns.
    pub a_ns: u64,
    /// Bucket value in run B, ns.
    pub b_ns: u64,
}

impl BucketDelta {
    /// Signed change `B - A`, ns.
    pub fn delta_ns(&self) -> i64 {
        signed_delta(self.a_ns, self.b_ns)
    }
}

/// Per-task-type comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeDelta {
    /// Task type.
    pub name: String,
    /// Task count in A / B.
    pub a_count: u64,
    /// Task count in B.
    pub b_count: u64,
    /// Total task-duration sum in A, ns.
    pub a_sum_ns: u64,
    /// Total task-duration sum in B, ns.
    pub b_sum_ns: u64,
    /// Median task duration in A, ns.
    pub a_p50_ns: u64,
    /// Median task duration in B, ns.
    pub b_p50_ns: u64,
    /// Per-stage `(stage, a_ns, b_ns)` sums, fixed order.
    pub stages: Vec<(&'static str, u64, u64)>,
}

impl TypeDelta {
    /// Signed duration-sum change `B - A`, ns.
    pub fn delta_ns(&self) -> i64 {
        signed_delta(self.a_sum_ns, self.b_sum_ns)
    }

    /// The stage with the largest absolute change, if any moved.
    pub fn dominant_stage(&self) -> Option<(&'static str, i64)> {
        self.stages
            .iter()
            .map(|&(s, a, b)| (s, signed_delta(a, b)))
            .max_by_key(|&(_, d)| d.abs())
            .filter(|&(_, d)| d != 0)
    }
}

/// How one task type's critical-path presence changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathChange {
    /// On B's path but not on A's.
    Appeared,
    /// On A's path but not on B's.
    Disappeared,
    /// Span grew.
    Stretched,
    /// Span shrank.
    Shrunk,
    /// Span unchanged.
    Steady,
}

impl PathChange {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            PathChange::Appeared => "appeared",
            PathChange::Disappeared => "disappeared",
            PathChange::Stretched => "stretched",
            PathChange::Shrunk => "shrunk",
            PathChange::Steady => "steady",
        }
    }
}

/// Critical-path alignment for one task type (hops and spans merged
/// across each run's whole path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathDelta {
    /// Task type.
    pub task_type: String,
    /// Hops on A's path.
    pub a_hops: u64,
    /// Path span in A, ns.
    pub a_span_ns: u64,
    /// Hops on B's path.
    pub b_hops: u64,
    /// Path span in B, ns.
    pub b_span_ns: u64,
    /// Classification of the change.
    pub change: PathChange,
}

impl PathDelta {
    /// Signed span change `B - A`, ns.
    pub fn delta_ns(&self) -> i64 {
        signed_delta(self.a_span_ns, self.b_span_ns)
    }
}

/// The comparison of two [`RunProfile`]s. `A` is the baseline, `B` the
/// candidate; every delta is `B - A`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunDiff {
    /// Baseline label.
    pub a_label: String,
    /// Candidate label.
    pub b_label: String,
    /// Baseline makespan, ns.
    pub a_makespan_ns: u64,
    /// Candidate makespan, ns.
    pub b_makespan_ns: u64,
    /// Blame table: per-bucket deltas ranked by magnitude. Their sum
    /// equals the makespan delta exactly.
    pub blame: Vec<BucketDelta>,
    /// Per-task-type deltas ranked by magnitude.
    pub types: Vec<TypeDelta>,
    /// Critical-path alignment ranked by span-change magnitude.
    pub path: Vec<PathDelta>,
    /// Factors that differ: `(key, a_value, b_value)`. Missing factors
    /// render as `-`.
    pub factor_changes: Vec<(String, String, String)>,
}

/// A named stage-sum accessor over a task-type profile.
type StageAccessor = (&'static str, fn(&TaskTypeProfile) -> u64);

/// Stage-sum accessors shared by the type-delta construction.
const STAGES: [StageAccessor; 6] = [
    ("deser", |t| t.deser_ns),
    ("ser", |t| t.ser_ns),
    ("serial", |t| t.serial_ns),
    ("parallel", |t| t.parallel_ns),
    ("comm", |t| t.comm_ns),
    ("xfer", |t| t.transfer_ns),
];

impl RunDiff {
    /// Compares baseline `a` against candidate `b`.
    pub fn compare(a: &RunProfile, b: &RunProfile) -> RunDiff {
        // Blame table: one row per bucket, ranked by |delta| (stable on
        // the fixed bucket order for ties).
        let mut blame: Vec<BucketDelta> = a
            .buckets()
            .iter()
            .zip(b.buckets().iter())
            .map(|(&(name, a_ns), &(_, b_ns))| BucketDelta { name, a_ns, b_ns })
            .collect();
        blame.sort_by_key(|d| std::cmp::Reverse(d.delta_ns().abs()));

        // Per-type deltas over the union of type names.
        let empty = TaskTypeProfile::default();
        let names: std::collections::BTreeSet<&String> =
            a.per_type.keys().chain(b.per_type.keys()).collect();
        let mut types: Vec<TypeDelta> = names
            .into_iter()
            .map(|name| {
                let ta = a.per_type.get(name).unwrap_or(&empty);
                let tb = b.per_type.get(name).unwrap_or(&empty);
                TypeDelta {
                    name: name.clone(),
                    a_count: ta.duration.count,
                    b_count: tb.duration.count,
                    a_sum_ns: ta.duration.sum,
                    b_sum_ns: tb.duration.sum,
                    a_p50_ns: ta.duration.p50,
                    b_p50_ns: tb.duration.p50,
                    stages: STAGES.iter().map(|&(s, f)| (s, f(ta), f(tb))).collect(),
                }
            })
            .collect();
        types.sort_by_key(|d| std::cmp::Reverse(d.delta_ns().abs()));

        // Critical-path alignment: merge each path by task type, then
        // classify the change per type.
        let merge = |p: &RunProfile| -> BTreeMap<String, (u64, u64)> {
            let mut m: BTreeMap<String, (u64, u64)> = BTreeMap::new();
            for seg in &p.critical_path {
                let e = m.entry(seg.task_type.clone()).or_default();
                e.0 += seg.hops;
                e.1 += seg.span_ns;
            }
            m
        };
        let (ma, mb) = (merge(a), merge(b));
        let path_names: std::collections::BTreeSet<&String> = ma.keys().chain(mb.keys()).collect();
        let mut path: Vec<PathDelta> = path_names
            .into_iter()
            .map(|name| {
                let &(a_hops, a_span_ns) = ma.get(name).unwrap_or(&(0, 0));
                let &(b_hops, b_span_ns) = mb.get(name).unwrap_or(&(0, 0));
                let change = if a_hops == 0 {
                    PathChange::Appeared
                } else if b_hops == 0 {
                    PathChange::Disappeared
                } else if b_span_ns > a_span_ns {
                    PathChange::Stretched
                } else if b_span_ns < a_span_ns {
                    PathChange::Shrunk
                } else {
                    PathChange::Steady
                };
                PathDelta {
                    task_type: name.clone(),
                    a_hops,
                    a_span_ns,
                    b_hops,
                    b_span_ns,
                    change,
                }
            })
            .collect();
        path.sort_by_key(|d| std::cmp::Reverse(d.delta_ns().abs()));

        // Factor changes over the union of keys.
        let keys: std::collections::BTreeSet<&String> =
            a.factors.keys().chain(b.factors.keys()).collect();
        let factor_changes = keys
            .into_iter()
            .filter(|k| a.factors.get(*k) != b.factors.get(*k))
            .map(|k| {
                let get = |p: &RunProfile| p.factors.get(k).cloned().unwrap_or_else(|| "-".into());
                (k.clone(), get(a), get(b))
            })
            .collect();

        RunDiff {
            a_label: a.label.clone(),
            b_label: b.label.clone(),
            a_makespan_ns: a.makespan_ns,
            b_makespan_ns: b.makespan_ns,
            blame,
            types,
            path,
            factor_changes,
        }
    }

    /// Observed makespan delta `B - A`, ns.
    pub fn makespan_delta_ns(&self) -> i64 {
        signed_delta(self.a_makespan_ns, self.b_makespan_ns)
    }

    /// Sum of the blame-table deltas, ns.
    pub fn attributed_delta_ns(&self) -> i64 {
        self.blame.iter().map(BucketDelta::delta_ns).sum()
    }

    /// Whether the attribution is conservative: the blame-table deltas
    /// sum exactly to the observed makespan delta. True for any pair of
    /// profiles built by [`RunProfile::from_telemetry`].
    pub fn is_conservative(&self) -> bool {
        self.attributed_delta_ns() == self.makespan_delta_ns()
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let s = |ns: u64| ns as f64 / 1e9;
        let sd = |ns: i64| ns as f64 / 1e9;
        let delta = self.makespan_delta_ns();
        let mut out = String::with_capacity(2048);
        let _ = writeln!(out, "run diff: A = {}", self.a_label);
        let _ = writeln!(out, "          B = {}", self.b_label);
        let verdict = match delta.cmp(&0) {
            std::cmp::Ordering::Greater => "slower",
            std::cmp::Ordering::Less => "faster",
            std::cmp::Ordering::Equal => "equal",
        };
        let pct = if self.a_makespan_ns > 0 {
            100.0 * delta as f64 / self.a_makespan_ns as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "makespan: A {:.6} s -> B {:.6} s   delta {:+.6} s ({pct:+.1} %, B is {verdict})",
            s(self.a_makespan_ns),
            s(self.b_makespan_ns),
            sd(delta),
        );
        if !self.factor_changes.is_empty() {
            let _ = writeln!(out, "\nfactor changes:");
            for (k, a, b) in &self.factor_changes {
                let _ = writeln!(out, "  {k:<12} {a} -> {b}");
            }
        }
        let _ = writeln!(
            out,
            "\nblame table (bucket deltas sum to the makespan delta exactly):"
        );
        let _ = writeln!(
            out,
            "  {:<14} {:>12} {:>12} {:>12} {:>7}",
            "bucket", "A (s)", "B (s)", "delta (s)", "share"
        );
        for b in &self.blame {
            let share = if delta != 0 {
                format!("{:>6.1} %", 100.0 * b.delta_ns() as f64 / delta as f64)
            } else {
                "     - ".to_string()
            };
            let _ = writeln!(
                out,
                "  {:<14} {:>12.6} {:>12.6} {:>+12.6} {share}",
                b.name,
                s(b.a_ns),
                s(b.b_ns),
                sd(b.delta_ns()),
            );
        }
        let _ = writeln!(
            out,
            "  {:<14} {:>12.6} {:>12.6} {:>+12.6}  100.0 %",
            "total",
            s(self.a_makespan_ns),
            s(self.b_makespan_ns),
            sd(self.attributed_delta_ns()),
        );
        let _ = writeln!(out, "\nper-task-type (total task duration, B - A):");
        let _ = writeln!(
            out,
            "  {:<20} {:>7} {:>7} {:>12} {:>12} {:>12}  dominant stage",
            "type", "n(A)", "n(B)", "sum A (s)", "sum B (s)", "delta (s)"
        );
        for t in &self.types {
            let dom = match t.dominant_stage() {
                Some((stage, d)) => format!("{stage} {:+.6} s", sd(d)),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "  {:<20} {:>7} {:>7} {:>12.6} {:>12.6} {:>+12.6}  {dom}",
                t.name,
                t.a_count,
                t.b_count,
                s(t.a_sum_ns),
                s(t.b_sum_ns),
                sd(t.delta_ns()),
            );
        }
        let _ = writeln!(out, "\ncritical-path alignment (span by task type):");
        let _ = writeln!(
            out,
            "  {:<20} {:>6} {:>6} {:>12} {:>12}  change",
            "type", "hops A", "hops B", "span A (s)", "span B (s)"
        );
        for p in &self.path {
            let _ = writeln!(
                out,
                "  {:<20} {:>6} {:>6} {:>12.6} {:>12.6}  {}",
                p.task_type,
                p.a_hops,
                p.b_hops,
                s(p.a_span_ns),
                s(p.b_span_ns),
                p.change.label(),
            );
        }
        out
    }

    /// Deterministic JSON rendering (machine-readable `--json` output).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\"a\":\"");
        json_escape_into(&mut s, &self.a_label);
        s.push_str("\",\"b\":\"");
        json_escape_into(&mut s, &self.b_label);
        let _ = write!(
            s,
            "\",\"a_makespan_ns\":{},\"b_makespan_ns\":{},\"delta_ns\":{},\"conservative\":{},\"blame\":[",
            self.a_makespan_ns,
            self.b_makespan_ns,
            self.makespan_delta_ns(),
            self.is_conservative(),
        );
        for (i, b) in self.blame.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}{{\"bucket\":\"{}\",\"a_ns\":{},\"b_ns\":{},\"delta_ns\":{}}}",
                b.name,
                b.a_ns,
                b.b_ns,
                b.delta_ns()
            );
        }
        s.push_str("],\"types\":[");
        for (i, t) in self.types.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}{{\"type\":\"");
            json_escape_into(&mut s, &t.name);
            let _ = write!(
                s,
                "\",\"a_count\":{},\"b_count\":{},\"a_sum_ns\":{},\"b_sum_ns\":{},\"delta_ns\":{}}}",
                t.a_count,
                t.b_count,
                t.a_sum_ns,
                t.b_sum_ns,
                t.delta_ns()
            );
        }
        s.push_str("],\"path\":[");
        for (i, p) in self.path.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}{{\"type\":\"");
            json_escape_into(&mut s, &p.task_type);
            let _ = write!(
                s,
                "\",\"a_hops\":{},\"b_hops\":{},\"a_span_ns\":{},\"b_span_ns\":{},\"change\":\"{}\"}}",
                p.a_hops,
                p.b_hops,
                p.a_span_ns,
                p.b_span_ns,
                p.change.label()
            );
        }
        s.push_str("],\"factor_changes\":[");
        for (i, (k, a, b)) in self.factor_changes.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}{{\"factor\":\"");
            json_escape_into(&mut s, k);
            s.push_str("\",\"a\":\"");
            json_escape_into(&mut s, a);
            s.push_str("\",\"b\":\"");
            json_escape_into(&mut s, b);
            s.push_str("\"}");
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(label: &str, buckets: [u64; 5]) -> RunProfile {
        let mut p = RunProfile {
            label: label.into(),
            makespan_ns: buckets.iter().sum(),
            tasks: 4,
            decisions: 4,
            compute_ns: buckets[0],
            data_movement_ns: buckets[1],
            recovery_ns: buckets[2],
            master_ns: buckets[3],
            idle_ns: buckets[4],
            ..RunProfile::default()
        };
        p.factors.insert("processor".into(), "cpu".into());
        p.per_type.insert(
            "mm".into(),
            TaskTypeProfile {
                duration: HistogramDigest {
                    count: 4,
                    sum: 4_000,
                    min: 1_000,
                    p25: 1_000,
                    p50: 1_000,
                    p75: 1_000,
                    p90: 1_000,
                    p99: 1_000,
                    max: 1_000,
                },
                parallel_ns: 3_000,
                ..TaskTypeProfile::default()
            },
        );
        p.resources.insert(
            0,
            ResourceProfile {
                busy_ns: 4_000,
                intervals: 1,
            },
        );
        p.critical_path.push(CriticalSegment {
            task_type: "mm".into(),
            hops: 2,
            span_ns: 2_000,
        });
        p
    }

    #[test]
    fn profile_text_round_trips() {
        let p = profile("matmul cpu shared", [100, 20, 0, 5, 10]);
        let text = p.render();
        let parsed = RunProfile::parse(&text).unwrap();
        assert_eq!(parsed, p);
        assert_eq!(parsed.render(), text, "render is a fixed point");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(RunProfile::parse("not a profile").is_err());
        let mut text = profile("x", [1, 1, 1, 1, 1]).render();
        text.push_str("mystery line\n");
        assert!(RunProfile::parse(&text).unwrap_err().contains("mystery"));
        let bad = format!("{PROFILE_HEADER}\nbucket nonsense 5\n");
        assert!(RunProfile::parse(&bad).unwrap_err().contains("nonsense"));
    }

    #[test]
    fn type_names_with_spaces_survive() {
        let mut p = profile("x", [1, 0, 0, 0, 0]);
        let t = p.per_type.remove("mm").unwrap();
        p.per_type.insert("partial sums (gpu)".into(), t);
        p.critical_path[0].task_type = "partial sums (gpu)".into();
        let parsed = RunProfile::parse(&p.render()).unwrap();
        assert_eq!(parsed, p);
    }

    #[test]
    fn blame_deltas_sum_to_makespan_delta() {
        let a = profile("A", [100, 20, 0, 5, 10]);
        let b = profile("B", [90, 45, 3, 5, 2]);
        let d = RunDiff::compare(&a, &b);
        assert_eq!(d.makespan_delta_ns(), 10);
        assert_eq!(d.attributed_delta_ns(), 10);
        assert!(d.is_conservative());
        // Ranked by magnitude: data_movement (+25) first.
        assert_eq!(d.blame[0].name, "data_movement");
        assert_eq!(d.blame[0].delta_ns(), 25);
    }

    #[test]
    fn diff_tracks_types_paths_and_factors() {
        let a = profile("A", [100, 20, 0, 5, 10]);
        let mut b = profile("B", [100, 20, 0, 5, 10]);
        b.factors.insert("processor".into(), "gpu".into());
        b.per_type.insert(
            "new_type".into(),
            TaskTypeProfile {
                duration: HistogramDigest {
                    count: 1,
                    sum: 500,
                    ..HistogramDigest::default()
                },
                ..TaskTypeProfile::default()
            },
        );
        b.critical_path = vec![CriticalSegment {
            task_type: "new_type".into(),
            hops: 1,
            span_ns: 9_000,
        }];
        let d = RunDiff::compare(&a, &b);
        assert_eq!(
            d.factor_changes,
            vec![("processor".into(), "cpu".into(), "gpu".into())]
        );
        let nt = d.types.iter().find(|t| t.name == "new_type").unwrap();
        assert_eq!((nt.a_count, nt.b_count), (0, 1));
        let appeared = d.path.iter().find(|p| p.task_type == "new_type").unwrap();
        assert_eq!(appeared.change, PathChange::Appeared);
        let gone = d.path.iter().find(|p| p.task_type == "mm").unwrap();
        assert_eq!(gone.change, PathChange::Disappeared);
    }

    #[test]
    fn render_and_json_cover_every_section() {
        let a = profile("A", [100, 20, 0, 5, 10]);
        let b = profile("B", [90, 45, 3, 5, 2]);
        let d = RunDiff::compare(&a, &b);
        let text = d.render();
        for needle in ["blame table", "per-task-type", "critical-path", "share"] {
            assert!(text.contains(needle), "missing {needle}:\n{text}");
        }
        let json = d.to_json();
        assert!(json.contains("\"conservative\":true"));
        assert!(json.contains("\"bucket\":\"data_movement\""));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}
