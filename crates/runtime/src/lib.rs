//! # gpuflow-runtime — a COMPSs-like distributed task-based runtime
//!
//! The system substrate of the reproduction: applications register data
//! and submit tasks with directional parameters; the runtime derives the
//! dependency DAG (§3.1), schedules ready tasks under one of two policies
//! (§3.2), and executes them on a simulated heterogeneous cluster through
//! the full task lifecycle of Fig. 4 — deserialization, serial fraction,
//! CPU compute or GPU offload over PCIe, serialization — while measuring
//! every metric of §4.2.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cache;
mod data;
mod executor;
pub mod jobs;
mod metrics;
mod scheduler;
mod task;
pub mod telemetry;
mod trace;
pub mod trace_analysis;
mod workflow;

pub use cache::BlockCache;
pub use data::{DataId, DataRegistry, DataVersion, Direction};
pub use executor::{run, RecoveryStats, RunConfig, RunError, RunReport};
pub use gpuflow_chaos::{FaultPlan, RecoveryPolicy};
pub use jobs::{BuiltJob, JobEntry, JobSchedule, JobShape, JobSpec, TenantSpec};
pub use metrics::{LevelStats, RunMetrics, TaskRecord, UserCodeStats};
pub use scheduler::{
    decision_overhead, pick, place, NodeAvail, RankKey, ReadyQueue, SchedulingPolicy, TaskClass,
};
pub use task::{CostProfile, Param, TaskId, TaskSpec, TaskType};
pub use telemetry::{
    json_escape_into, to_chrome_trace, to_collapsed, AlertEngine, AlertRule, AlertSeverity,
    AlertState, AlertTransition, BucketDelta, BucketHistogram, CandidateScore, CriticalSegment,
    EventBus, Histogram, HistogramDigest, LinkKind, MetricsHub, MetricsRegistry, OverheadReport,
    PathChange, PathDelta, PhaseSpan, ResourceProfile, RuleKind, RunDiff, RunProfile, SampleRow,
    SampleStats, SchedulerDecision, SpanForest, SpanPhase, SpanSampler, TaskSpans, TaskTypeProfile,
    TelemetryEvent, TelemetryLog, TypeDelta,
};
pub use trace::{paraver_pcf, to_paraver_prv, Trace, TraceRecord, TraceState};
pub use workflow::{DagShape, Workflow, WorkflowBuilder};
