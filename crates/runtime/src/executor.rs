//! The workflow executor: a discrete-event simulation of PyCOMPSs-style
//! task execution on a heterogeneous CPU-GPU cluster.
//!
//! Each task moves through the processing stages of Fig. 4:
//!
//! ```text
//! dispatch -> deserialize inputs -> serial fraction ->
//!   CPU run:   parallel fraction on the held core
//!   GPU run:   H2D transfer -> GPU kernel -> D2H transfer
//! -> serialize outputs -> release resources
//! ```
//!
//! Resource contention is modelled with `gpuflow-sim` primitives: CPU
//! cores and GPU devices as counted slots per node, the PCIe bus and the
//! node-local disks as fair-share links, and the shared file system as a
//! grouped link (per-node NICs in front of the GPFS backend). A per-node
//! object cache lets well-placed tasks skip deserialization, which is the
//! mechanism coupling scheduling policy and storage architecture.

use std::collections::BTreeMap;
use std::fmt;

use fxhash::{FxHashMap, FxHashSet};

use gpuflow_chaos::{mix64, FaultPlan, RecoveryPolicy};
use gpuflow_cluster::{ClusterSpec, ProcessorKind, StorageArchitecture};
use gpuflow_sim::{Engine, FairShareLink, FlowId, GroupedLink, Jitter, SimDuration, SimTime};

use crate::cache::BlockCache;
use crate::data::{DataId, DataVersion};
use crate::jobs::JobSchedule;
use crate::metrics::{RunMetrics, TaskRecord};
use crate::scheduler::{
    decision_overhead, place, NodeAvail, ReadyQueue, SchedulingPolicy, TaskClass,
};
use crate::task::TaskId;
use crate::telemetry::{
    CandidateScore, EventBus, LinkKind, MetricsHub, SchedulerDecision, TelemetryEvent, TelemetryLog,
};
use crate::trace::TraceState;
use crate::workflow::{DagShape, Workflow};

/// Configuration of one run — the factor combination of Table 1.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The cluster.
    pub cluster: ClusterSpec,
    /// Processor type factor: where parallel fractions execute.
    pub processor: ProcessorKind,
    /// Storage architecture factor.
    pub storage: StorageArchitecture,
    /// Scheduling policy factor.
    pub policy: SchedulingPolicy,
    /// Seed for execution jitter.
    pub seed: u64,
    /// Relative amplitude of run-to-run noise on compute/(de)ser stages.
    pub jitter_sigma: f64,
    /// Collect the full structured telemetry stream (task lifecycle,
    /// scheduler decisions, stage intervals, cache activity, transfers,
    /// gauges) into [`RunReport::telemetry`]. Every view of a run —
    /// Paraver and CSV traces via [`crate::Trace::from_telemetry`], spans,
    /// profiles, metrics — reads that one stream. Costs memory on big
    /// runs; when off (and no live hub is attached) the event bus is
    /// inert and the run pays one branch per emission site.
    pub collect_telemetry: bool,
    /// Fraction of node RAM used as the worker object cache.
    pub cache_fraction: f64,
    /// CPU cores assigned to each CPU task's parallel fraction. The
    /// paper's frameworks recommend 1 (no oversubscription, §3.3) and
    /// leave multi-threaded CPU tasks as future work; values > 1 trade
    /// task-level parallelism for intra-task thread parallelism with
    /// sub-linear scaling (see [`RunConfig::with_cpu_threads`]).
    pub cpu_threads_per_task: usize,
    /// Deterministic fault plan injected into the run. `None` (or an
    /// empty plan) leaves the executor byte-identical to a fault-free
    /// run; any non-empty plan turns on the recovery machinery.
    pub faults: Option<FaultPlan>,
    /// Recovery policy applied when `faults` is active: retry budget,
    /// virtual-time backoff, alternate-node resubmission, GPU-to-CPU
    /// fallback.
    pub recovery: RecoveryPolicy,
    /// Live metrics hub: when set, every telemetry event is folded into
    /// this shared [`MetricsHub`] as it is emitted, so another thread
    /// (e.g. `gpuflow serve`) can scrape a current snapshot while the
    /// run executes. Independent of `collect_telemetry`.
    pub live_metrics: Option<MetricsHub>,
    /// Submission times, virtual seconds, for root tasks (tasks with no
    /// dependencies): `(task, at_secs)`. Listed tasks enter the ready
    /// queue at their submission instant instead of time zero —
    /// the replay frontend's arrival process. Empty = all roots at 0.
    pub arrivals: Vec<(TaskId, f64)>,
    /// Multi-tenant job gate (see [`JobSchedule`]): jobs become
    /// *eligible* at their arrival instants but are released into a
    /// bounded in-flight window under stride fair-share + priority —
    /// the `gpuflowd` admission path. Mutually exclusive with
    /// [`RunConfig::arrivals`].
    pub jobs: Option<JobSchedule>,
}

impl RunConfig {
    /// A config with the defaults used throughout the paper's experiments:
    /// shared disk, generation-order scheduling, ±2 % jitter.
    pub fn new(cluster: ClusterSpec, processor: ProcessorKind) -> Self {
        RunConfig {
            cluster,
            processor,
            storage: StorageArchitecture::SharedDisk,
            policy: SchedulingPolicy::GenerationOrder,
            seed: 0xC0FFEE,
            jitter_sigma: 0.02,
            collect_telemetry: false,
            cache_fraction: 0.5,
            cpu_threads_per_task: 1,
            faults: None,
            recovery: RecoveryPolicy::default(),
            live_metrics: None,
            arrivals: Vec::new(),
            jobs: None,
        }
    }

    /// Marginal efficiency of each extra CPU thread inside a task
    /// (synchronisation and memory-bandwidth sharing eat into scaling).
    pub const THREAD_MARGINAL_EFFICIENCY: f64 = 0.85;

    /// Sets the CPU threads per task (the §3.3 future-work experiment).
    ///
    /// # Panics
    /// Panics when `threads` is zero.
    pub fn with_cpu_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "tasks need at least one thread");
        self.cpu_threads_per_task = threads;
        self
    }

    /// Speedup of a `threads`-way parallel fraction over one thread.
    pub fn thread_speedup(threads: usize) -> f64 {
        1.0 + Self::THREAD_MARGINAL_EFFICIENCY * (threads.saturating_sub(1)) as f64
    }

    /// Sets the storage architecture.
    pub fn with_storage(mut self, storage: StorageArchitecture) -> Self {
        self.storage = storage;
        self
    }

    /// Sets the scheduling policy.
    pub fn with_policy(mut self, policy: SchedulingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the jitter seed (repeat runs with different seeds).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables structured telemetry collection (see
    /// [`RunReport::telemetry`]).
    pub fn with_telemetry(mut self) -> Self {
        self.collect_telemetry = true;
        self
    }

    /// Injects a deterministic fault plan (see [`FaultPlan`]).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Sets the recovery policy applied under fault injection.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Attaches a live metrics hub (see [`RunConfig::live_metrics`]).
    pub fn with_live_metrics(mut self, hub: MetricsHub) -> Self {
        self.live_metrics = Some(hub);
        self
    }

    /// Sets submission times for root tasks (see
    /// [`RunConfig::arrivals`]).
    pub fn with_arrivals(mut self, arrivals: Vec<(TaskId, f64)>) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Gates whole jobs behind a fair-share in-flight window (see
    /// [`RunConfig::jobs`]).
    pub fn with_jobs(mut self, jobs: JobSchedule) -> Self {
        self.jobs = Some(jobs);
        self
    }
}

/// Why a run failed — the failure modes the paper reports in its charts.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// A task footprint exceeded GPU device memory ("GPU OOM" in
    /// Figs. 7-10).
    GpuOom {
        /// Task type that overflowed.
        task_type: String,
        /// Bytes required on the device.
        required: u64,
        /// Device capacity.
        capacity: u64,
    },
    /// A task's working set exceeded node RAM ("CPU OOM" in Fig. 9a).
    HostOom {
        /// Task type that overflowed.
        task_type: String,
        /// Bytes required on the host.
        required: u64,
        /// Node RAM.
        capacity: u64,
    },
    /// The executor stalled with tasks pending (an internal invariant
    /// violation, never expected).
    Deadlock {
        /// Tasks completed before the stall.
        completed: usize,
        /// Total tasks.
        total: usize,
    },
    /// A task exhausted its retry budget under fault injection.
    TaskFailed {
        /// Task type that kept failing.
        task_type: String,
        /// Attempts made (initial dispatch plus retries).
        attempts: u32,
    },
    /// The injected faults left the workflow unable to finish (e.g. all
    /// nodes holding a required resource are permanently down).
    Unrecoverable {
        /// Tasks in a completed state when the run stalled.
        completed: usize,
        /// Total tasks.
        total: usize,
    },
    /// The cluster specification is inconsistent.
    InvalidConfig(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::GpuOom {
                task_type,
                required,
                capacity,
            } => write!(
                f,
                "GPU OOM: task '{task_type}' needs {required} B on a {capacity} B device"
            ),
            RunError::HostOom {
                task_type,
                required,
                capacity,
            } => write!(
                f,
                "host OOM: task '{task_type}' needs {required} B on a {capacity} B node"
            ),
            RunError::Deadlock { completed, total } => {
                write!(f, "executor deadlock after {completed}/{total} tasks")
            }
            RunError::TaskFailed {
                task_type,
                attempts,
            } => write!(
                f,
                "task '{task_type}' failed permanently after {attempts} attempts"
            ),
            RunError::Unrecoverable { completed, total } => {
                write!(
                    f,
                    "injected faults are unrecoverable: stalled at {completed}/{total} tasks"
                )
            }
            RunError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Counters of fault-injection and recovery activity during one run.
/// All zero when the run had no fault plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Fault-plan entries armed for this run (crashes, GPU failures,
    /// stragglers, link degradations, transient-rate rules).
    pub faults_injected: usize,
    /// Task attempts killed by sampled transient failures.
    pub transient_failures: usize,
    /// Task attempts killed by node crashes or GPU failures.
    pub crash_failures: usize,
    /// Retries scheduled after transient failures (backoff waits).
    pub retries: usize,
    /// Attempts resubmitted after losing their node or device.
    pub resubmissions: usize,
    /// Completed tasks re-executed to regenerate lost data (lineage
    /// recovery).
    pub regenerated_tasks: usize,
    /// GPU-capable tasks degraded to CPU execution.
    pub gpu_fallbacks: usize,
    /// Cache entries and local-disk block versions destroyed by crashes.
    pub blocks_invalidated: u64,
}

/// The outcome of a successful run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Aggregated metrics (§4.2).
    pub metrics: RunMetrics,
    /// Raw per-task records.
    pub records: Vec<TaskRecord>,
    /// Structured telemetry stream (empty unless
    /// [`RunConfig::collect_telemetry`] is set).
    pub telemetry: TelemetryLog,
    /// DAG shape of the executed workflow.
    pub shape: DagShape,
    /// Processor factor of the run.
    pub processor: ProcessorKind,
    /// Storage factor of the run.
    pub storage: StorageArchitecture,
    /// Policy factor of the run.
    pub policy: SchedulingPolicy,
    /// Fault-injection and recovery activity (all zero without a plan).
    pub recovery: RecoveryStats,
    /// Deterministic lineage fingerprint of the workflow's terminal
    /// outputs (versions written but never consumed). A faulted run
    /// that recovered correctly produces the same fingerprint as a
    /// fault-free run of the same workflow.
    pub output_fingerprint: u64,
}

impl RunReport {
    /// Wall-clock makespan in seconds.
    pub fn makespan(&self) -> f64 {
        self.metrics.makespan
    }

    /// Validates the executor's bookkeeping against the workflow and the
    /// cluster: record completeness, dependency ordering, per-node
    /// concurrency caps, metric decomposition, and cache accounting.
    /// Intended for tests (property suites call this after every run).
    ///
    /// Under fault injection each record describes a task's *first
    /// successful* attempt (failed attempts and lineage re-executions
    /// are not recorded), so there is still exactly one record per task,
    /// dependency ordering holds between recorded attempts, and the
    /// concurrency sweep bounds only successfully recorded work.
    ///
    /// # Errors
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(
        &self,
        workflow: &Workflow,
        cluster: &ClusterSpec,
    ) -> Result<(), String> {
        if self.records.len() != workflow.tasks().len() {
            return Err(format!(
                "{} records for {} tasks",
                self.records.len(),
                workflow.tasks().len()
            ));
        }
        let mut seen = vec![false; workflow.tasks().len()];
        let by_task: FxHashMap<TaskId, &TaskRecord> =
            self.records.iter().map(|r| (r.task, r)).collect();
        for r in &self.records {
            let idx = r.task.0 as usize;
            if idx >= seen.len() || seen[idx] {
                return Err(format!("duplicate or unknown record for {}", r.task));
            }
            seen[idx] = true;
            if r.end < r.start {
                return Err(format!("{} ends before it starts", r.task));
            }
            // User code decomposes exactly into its fractions.
            if r.user_code() != r.serial + r.parallel + r.comm {
                return Err(format!("{}: user code does not decompose", r.task));
            }
            // Cache lookups cover exactly the declared reads.
            let reads = workflow.task(r.task).reads().count() as u32;
            if r.cache_hits + r.cache_misses != reads {
                return Err(format!(
                    "{}: {} cache lookups for {} reads",
                    r.task,
                    r.cache_hits + r.cache_misses,
                    reads
                ));
            }
            // Dependencies finished before this task started.
            for p in workflow.predecessors(r.task) {
                let pred = by_task
                    .get(p)
                    .ok_or_else(|| format!("missing record {p}"))?;
                if pred.end > r.start {
                    return Err(format!("{p} overlaps its dependent {}", r.task));
                }
            }
            // The makespan covers everything.
            if r.end.as_secs_f64() > self.makespan() + 1e-9 {
                return Err(format!("{} ends after the makespan", r.task));
            }
        }
        // Concurrency sweep per node: held cores <= cores, GPU
        // records <= devices. Multi-threaded CPU tasks weigh in with
        // every core they hold.
        // BTreeMap so a violation is always attributed to the lowest
        // offending node, independent of hash order.
        let mut events: BTreeMap<usize, Vec<(u64, i32, i32)>> = BTreeMap::new();
        for r in &self.records {
            let (dc, dg) = match r.processor {
                ProcessorKind::Cpu => (r.cores.max(1) as i32, 0),
                ProcessorKind::Gpu => (1, 1), // GPU task holds a core too
            };
            let e = events.entry(r.node).or_default();
            e.push((r.start.as_nanos(), dc, dg));
            e.push((r.end.as_nanos(), -dc, -dg));
        }
        for (node, mut evs) in events {
            evs.sort();
            let (mut cpu, mut gpu) = (0i32, 0i32);
            for (_, dc, dg) in evs {
                cpu += dc;
                gpu += dg;
                if cpu as usize > cluster.cores_of(node) {
                    return Err(format!("node {node}: core concurrency exceeded"));
                }
                if gpu as usize > cluster.gpus_of(node) {
                    return Err(format!("node {node}: GPU concurrency exceeded"));
                }
            }
        }
        // Recovery accounting: every retry follows a transient failure.
        if self.recovery.retries > self.recovery.transient_failures {
            return Err(format!(
                "{} retries for {} transient failures",
                self.recovery.retries, self.recovery.transient_failures
            ));
        }
        Ok(())
    }
}

/// Runs `workflow` under `config`.
///
/// # Errors
/// Fails on OOM (the paper's charts mark these configurations) or on an
/// invalid cluster spec.
pub fn run(workflow: &Workflow, config: &RunConfig) -> Result<RunReport, RunError> {
    config
        .cluster
        .validate()
        .map_err(|errs| RunError::InvalidConfig(errs.join("; ")))?;
    // A task needing more threads than any node has cores could never be
    // placed; fail fast instead of deadlocking.
    let max_cores = (0..config.cluster.nodes)
        .map(|n| config.cluster.cores_of(n))
        .max()
        .unwrap_or(0);
    if config.cpu_threads_per_task > max_cores {
        return Err(RunError::InvalidConfig(format!(
            "cpu_threads_per_task ({}) exceeds the largest node's {} cores",
            config.cpu_threads_per_task, max_cores
        )));
    }
    if !(0.0..1.0).contains(&config.jitter_sigma) {
        return Err(RunError::InvalidConfig(format!(
            "jitter_sigma must be in [0, 1), got {}",
            config.jitter_sigma
        )));
    }
    if !(0.0..=1.0).contains(&config.cache_fraction) {
        return Err(RunError::InvalidConfig(format!(
            "cache_fraction must be in [0, 1], got {}",
            config.cache_fraction
        )));
    }
    if let Some(plan) = &config.faults {
        plan.validate(config.cluster.nodes)
            .map_err(|errs| RunError::InvalidConfig(errs.join("; ")))?;
    }
    for &(tid, at_secs) in &config.arrivals {
        let idx = tid.0 as usize;
        if idx >= workflow.tasks().len() {
            return Err(RunError::InvalidConfig(format!(
                "arrival for unknown task {}",
                tid.0
            )));
        }
        if !workflow.predecessors(tid).is_empty() {
            return Err(RunError::InvalidConfig(format!(
                "arrival for task {} which has dependencies; only root tasks can have submission times",
                tid.0
            )));
        }
        if !at_secs.is_finite() || at_secs < 0.0 {
            return Err(RunError::InvalidConfig(format!(
                "arrival time for task {} must be finite and non-negative, got {at_secs}",
                tid.0
            )));
        }
    }
    if let Some(sched) = &config.jobs {
        validate_job_schedule(workflow, config, sched)?;
    }
    let mut exec = Exec::new(workflow, config);
    exec.schedule_faults();
    exec.seed_ready();
    exec.try_start_master();
    while let Some(ev) = exec.engine.pop() {
        let payload = ev.payload;
        exec.handle(payload)?;
        if let Some(e) = exec.fatal.take() {
            return Err(e);
        }
    }
    exec.finish()
}

/// Checks a [`JobSchedule`] against the workflow: sane window and
/// weights, in-range non-overlapping task ranges, no cross-job
/// dependencies, and every dependency-free task of a job's range listed
/// among its roots (an unlisted one would enter the ready queue at time
/// zero and bypass the gate, corrupting the window accounting).
fn validate_job_schedule(
    workflow: &Workflow,
    config: &RunConfig,
    sched: &JobSchedule,
) -> Result<(), RunError> {
    let bad = |msg: String| Err(RunError::InvalidConfig(msg));
    if !config.arrivals.is_empty() {
        return bad("arrivals and a job schedule are mutually exclusive".into());
    }
    if sched.max_inflight == 0 {
        return bad("job schedule needs max_inflight >= 1".into());
    }
    if sched.tenants.is_empty() {
        return bad("job schedule needs at least one tenant".into());
    }
    if let Some(t) = sched.tenants.iter().find(|t| t.weight == 0) {
        return bad(format!("tenant {} has zero fair-share weight", t.name));
    }
    let n_tasks = workflow.tasks().len() as u32;
    for (j, job) in sched.jobs.iter().enumerate() {
        if job.tenant >= sched.tenants.len() {
            return bad(format!("job {j} names unknown tenant {}", job.tenant));
        }
        if job.task_lo > job.task_hi || job.task_hi >= n_tasks {
            return bad(format!(
                "job {j} has task range {}..={} outside the workflow's {n_tasks} tasks",
                job.task_lo, job.task_hi
            ));
        }
        if !job.arrival_secs.is_finite() || job.arrival_secs < 0.0 {
            return bad(format!(
                "job {j} arrival must be finite and non-negative, got {}",
                job.arrival_secs
            ));
        }
        let roots: FxHashSet<u32> = job.roots.iter().map(|t| t.0).collect();
        for &r in &job.roots {
            if !(job.task_lo..=job.task_hi).contains(&r.0) {
                return bad(format!("job {j} root {} outside its task range", r.0));
            }
        }
        for tid in job.task_lo..=job.task_hi {
            let preds = workflow.predecessors(TaskId(tid));
            if preds.is_empty() && !roots.contains(&tid) {
                return bad(format!(
                    "job {j}: dependency-free task {tid} is not listed as a root"
                ));
            }
            if let Some(p) = preds
                .iter()
                .find(|p| !(job.task_lo..=job.task_hi).contains(&p.0))
            {
                return bad(format!(
                    "job {j}: task {tid} depends on task {} of another job",
                    p.0
                ));
            }
        }
    }
    let mut ranges: Vec<(u32, u32)> = sched.jobs.iter().map(|j| (j.task_lo, j.task_hi)).collect();
    ranges.sort_unstable();
    if let Some(w) = ranges.windows(2).find(|w| w[1].0 <= w[0].1) {
        return bad(format!(
            "job task ranges {}..={} and {}..={} overlap",
            w[0].0, w[0].1, w[1].0, w[1].1
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Internal machinery
// ---------------------------------------------------------------------

/// Sentinel in the dense `home` table: the block has no disk home (yet).
const NO_HOME: usize = usize::MAX;

/// Recycled `TaskRun` buffers — `(inputs, outputs, core_ids)` — so the
/// steady-state dispatch path reuses capacity instead of allocating
/// three fresh vectors per task.
type RunBuffers = (Vec<(DataVersion, u64)>, Vec<(DataVersion, u64)>, Vec<u16>);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum LinkKey {
    Pcie(usize),
    Disk(usize),
    Shared,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    MasterDone,
    /// Stage delay for a task attempt; the attempt tag lets delays from
    /// an aborted attempt be recognised as stale and dropped.
    TaskDelay(TaskId, u32),
    LinkTick(LinkKey, u64),
    /// A discrete fault from the plan (index into the fault timeline).
    Fault(usize),
    /// End of a transient-failure backoff window.
    Retry(TaskId),
    /// Submission instant of a root task with a configured arrival time
    /// (see [`RunConfig::arrivals`]): the task enters the ready queue.
    Release(TaskId),
    /// Eligibility instant of a gated job (index into
    /// [`JobSchedule::jobs`]): the job may now be released into the
    /// fair-share window when a slot frees up.
    JobArrive(usize),
}

/// Runtime state of the [`JobSchedule`] gate (see
/// [`RunConfig::jobs`]): which jobs are eligible/released, how much of
/// each is still running, and the per-tenant stride accounting.
#[derive(Debug)]
struct JobGate {
    /// Job reached its arrival instant (eligible for release).
    arrived: Vec<bool>,
    /// Job's roots have been released into the ready queue.
    released: Vec<bool>,
    /// Unfinished tasks per job; 0 after release means the job is done
    /// and its window slot frees up.
    remaining: Vec<usize>,
    /// Released-but-unfinished jobs (bounded by `max_inflight`).
    inflight: usize,
    /// Released-but-unfinished jobs per tenant.
    tenant_inflight: Vec<usize>,
    /// Stride accounting: tasks released per tenant. The next slot goes
    /// to the eligible job minimising `consumed / weight`, compared
    /// exactly by cross-multiplication.
    consumed: Vec<u64>,
    /// `(task_lo, task_hi, job index)`, sorted, for task-to-job lookup
    /// on completion.
    ranges: Vec<(u32, u32, usize)>,
}

/// A discrete fault materialised from the plan at a fixed virtual time.
#[derive(Debug, Clone, Copy)]
enum FaultAction {
    Crash { node: usize },
    Rejoin { node: usize },
    GpuFail { node: usize },
}

#[derive(Debug, Clone, Copy)]
enum Stage {
    ReadLatency { key: DataVersion, bytes: u64 },
    ReadFlow { key: DataVersion, bytes: u64 },
    Decode { key: DataVersion, bytes: u64 },
    SerialFrac,
    H2dLatency,
    H2dFlow,
    Kernel,
    D2hLatency,
    D2hFlow,
    CpuCompute,
    Encode { key: DataVersion, bytes: u64 },
    WriteLatency { key: DataVersion, bytes: u64 },
    WriteFlow { key: DataVersion, bytes: u64 },
}

struct TaskRun {
    node: usize,
    stage: Stage,
    on_gpu: bool,
    cores_held: usize,
    core_ids: Vec<u16>,
    /// GPU device identity held for the task's lifetime, if any.
    gpu_id: Option<u16>,
    inputs: Vec<(DataVersion, u64)>, // pending, reversed (pop from back)
    outputs: Vec<(DataVersion, u64)>, // pending, reversed
    in_bytes: u64,
    out_bytes: u64,
    host_footprint: u64,
    anchor: SimTime,
    /// Start of the in-flight link flow (for transfer telemetry).
    flow_start: SimTime,
    /// Lineage hash folded over this attempt's input versions at
    /// dispatch time (inputs are guaranteed available then, even if a
    /// later crash invalidates them mid-run).
    in_hash: u64,
    rec: TaskRecord,
}

struct Exec<'a> {
    wf: &'a Workflow,
    cfg: &'a RunConfig,
    engine: Engine<Ev>,
    // Resources.
    free_cores: Vec<usize>,
    /// Free core identities per node (for trace lanes).
    core_stacks: Vec<Vec<u16>>,
    free_gpus: Vec<usize>,
    /// Free GPU device identities per node (for telemetry lanes).
    gpu_stacks: Vec<Vec<u16>>,
    peak_cores: Vec<usize>,
    ram_used: Vec<u64>,
    peak_ram: u64,
    pcie: Vec<FairShareLink>,
    disks: Vec<FairShareLink>,
    shared: GroupedLink,
    flow_task: FxHashMap<(LinkKey, FlowId), TaskId>,
    /// Scratch for a link tick's finished flows, reused across ticks.
    harvest_scratch: Vec<FlowId>,
    // Scheduling.
    /// HEFT-style upward rank per task (estimated seconds on the
    /// critical path to the sink), used by the CriticalPath policy.
    upward_rank: Vec<f64>,
    rr_cursor: usize,
    master_busy: bool,
    pending_assign: Option<(TaskId, usize)>,
    sched_overhead: f64,
    ready: ReadyQueue,
    deps_left: Vec<usize>,
    /// Scratch for node scoring, reused across decisions.
    avail_scratch: Vec<NodeAvail>,
    /// Scratch for the chosen task's resolved reads `(version, bytes)`,
    /// reused across decisions.
    reads_scratch: Vec<(DataVersion, u64)>,
    // Task state.
    runs: Vec<Option<TaskRun>>,
    records: Vec<TaskRecord>,
    /// Freed [`TaskRun`] buffers, recycled by the next dispatch.
    run_pool: Vec<RunBuffers>,
    done: usize,
    // Data placement & caching.
    caches: Vec<BlockCache>,
    /// Home node per `DataId` (dense, indexed by id), `NO_HOME` where a
    /// block has no disk home yet. Only meaningful under local disks.
    home: Vec<usize>,
    jitter: Jitter,
    /// The telemetry bus; it records when telemetry is collected and
    /// feeds the live hub when one is attached.
    bus: EventBus,
    gpu_kernel_seconds: f64,
    core_held_seconds: f64,
    gpu_held_seconds: f64,
    // Fault injection & recovery. `faults` is `None` when the config has
    // no plan *or* an empty one, so an empty plan is a pure observer.
    faults: Option<&'a FaultPlan>,
    /// Discrete faults in deterministic firing order.
    fault_timeline: Vec<(SimTime, FaultAction)>,
    /// Dispatch count per task (1-based after first dispatch).
    attempts: Vec<u32>,
    /// Transient failures per task, charged against the retry budget.
    transient_fails: Vec<u32>,
    /// Node of the task's last failed attempt (alternate-node
    /// resubmission steers away from it when possible).
    last_failed_node: Vec<Option<usize>>,
    /// Task sits out a backoff window and must not be scheduled.
    in_backoff: Vec<bool>,
    /// Root tasks with a future submission time: invisible to the
    /// scheduler (and to recovery re-admission) until released.
    unarrived: FxHashSet<u32>,
    /// The job gate, when [`RunConfig::jobs`] is set.
    gate: Option<JobGate>,
    /// Task currently has a valid completed output.
    completed: Vec<bool>,
    /// Task's first successful attempt has been recorded.
    recorded: Vec<bool>,
    node_up: Vec<bool>,
    /// Permanently failed GPU devices per node.
    gpus_dead: Vec<usize>,
    /// Dense lineage slot of version 0 per `DataId`, plus the total
    /// slot count at the end: version `v` of object `id` lives at slot
    /// `vbase[id] + v` of the per-version tables below, so slot order
    /// is `(id, version)` order.
    vbase: Vec<usize>,
    /// Home node of every *written* (non-durable) version by slot,
    /// `NO_HOME` elsewhere; shared-disk writes are durable and never
    /// get one. Empty without a fault plan.
    version_home: Vec<usize>,
    /// Producing task of every written version, by slot.
    producer: Vec<Option<TaskId>>,
    /// Slots of the versions written but never read by any task,
    /// ascending — the fingerprint domain.
    terminal: Vec<usize>,
    /// Lineage hash of every currently available produced version, by
    /// slot; `None` where the version is not (or no longer) available.
    data_hash: Vec<Option<u64>>,
    stats: RecoveryStats,
    /// Fatal error raised deep inside the stage machinery; the run loop
    /// surfaces it after the current event.
    fatal: Option<RunError>,
}

impl<'a> Exec<'a> {
    fn new(wf: &'a Workflow, cfg: &'a RunConfig) -> Self {
        let c = &cfg.cluster;
        let nodes = c.nodes;
        let cache_bytes = (c.node.ram_bytes as f64 * cfg.cache_fraction) as u64;
        let mut home = vec![NO_HOME; wf.registry().len()];
        // Initial dataset blocks round-robin over node disks (local-disk
        // architecture); with shared disk the home node is irrelevant.
        let mut rr = 0usize;
        for obj in wf.registry().iter() {
            if obj.initial {
                home[obj.id.0 as usize] = rr % nodes;
                rr += 1;
            }
        }
        // Upward ranks: est(t) + max over successors (reverse topological
        // pass; tasks are indexed in topological order by construction).
        let cpu = c.node.cpu;
        let mut upward_rank = vec![0.0f64; wf.tasks().len()];
        for idx in (0..wf.tasks().len()).rev() {
            let t = &wf.tasks()[idx];
            let est =
                cpu.time(&t.cost.serial).as_secs_f64() + cpu.time(&t.cost.parallel).as_secs_f64();
            let succ_max = wf
                .successors(t.id)
                .iter()
                .map(|s| upward_rank[s.0 as usize])
                .fold(0.0, f64::max);
            upward_rank[idx] = est + succ_max;
        }
        // Lineage bookkeeping on dense version slots: who writes each
        // version, and which versions are terminal (written, never
        // consumed). Every version a task names is at most its object's
        // final version, so it has a slot.
        let mut vbase = Vec::with_capacity(wf.registry().len() + 1);
        vbase.push(0);
        for obj in wf.registry().iter() {
            vbase.push(vbase[vbase.len() - 1] + obj.version as usize + 1);
        }
        let slots = vbase[vbase.len() - 1];
        let mut producer: Vec<Option<TaskId>> = vec![None; slots];
        let mut consumed = vec![false; slots];
        for t in wf.tasks() {
            for (id, version) in t.reads() {
                consumed[vbase[id.0 as usize] + version as usize] = true;
            }
            for (id, version) in t.writes() {
                producer[vbase[id.0 as usize] + version as usize] = Some(t.id);
            }
        }
        let terminal: Vec<usize> = (0..slots)
            .filter(|&s| producer[s].is_some() && !consumed[s])
            .collect();
        // An empty plan must be indistinguishable from no plan.
        let faults = cfg.faults.as_ref().filter(|p| !p.is_empty());
        let mut fault_timeline: Vec<(SimTime, FaultAction)> = Vec::new();
        if let Some(plan) = faults {
            // (time, class, node) gives a total deterministic order;
            // same-time events then fire in schedule order (FIFO).
            let mut timed: Vec<(f64, u8, usize, FaultAction)> = Vec::new();
            for cr in &plan.node_crashes {
                timed.push((cr.at_secs, 0, cr.node, FaultAction::Crash { node: cr.node }));
                if let Some(rejoin) = cr.rejoin_after_secs {
                    timed.push((
                        cr.at_secs + rejoin,
                        2,
                        cr.node,
                        FaultAction::Rejoin { node: cr.node },
                    ));
                }
            }
            for g in &plan.gpu_failures {
                timed.push((g.at_secs, 1, g.node, FaultAction::GpuFail { node: g.node }));
            }
            timed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
            fault_timeline = timed
                .into_iter()
                .map(|(at, _, _, action)| (SimTime::ZERO + SimDuration::from_secs_f64(at), action))
                .collect();
        }
        let n_tasks = wf.tasks().len();
        // The event population is bounded by resources, not tasks: one
        // delay per running attempt (≤ cores), one tick per link, the
        // master, and the armed fault timeline.
        let pending_bound =
            c.total_cpu_cores() + c.total_gpus() + 2 * nodes + fault_timeline.len() + 8;
        Exec {
            wf,
            cfg,
            engine: Engine::with_capacity(pending_bound),
            free_cores: (0..nodes).map(|n| c.cores_of(n)).collect(),
            core_stacks: (0..nodes)
                .map(|n| (0..c.cores_of(n) as u16).rev().collect())
                .collect(),
            free_gpus: (0..nodes).map(|n| c.gpus_of(n)).collect(),
            gpu_stacks: (0..nodes)
                .map(|n| (0..c.gpus_of(n) as u16).rev().collect())
                .collect(),
            peak_cores: vec![0; nodes],
            ram_used: vec![0; nodes],
            peak_ram: 0,
            pcie: (0..nodes)
                .map(|_| FairShareLink::new(c.node.pcie.bandwidth_bps))
                .collect(),
            disks: (0..nodes)
                .map(|_| FairShareLink::new(c.node.local_disk.bandwidth_bps))
                .collect(),
            shared: GroupedLink::new(c.shared_disk.bandwidth_bps, nodes, c.network.nic_bps),
            flow_task: FxHashMap::default(),
            harvest_scratch: Vec::new(),
            upward_rank,
            rr_cursor: 0,
            master_busy: false,
            pending_assign: None,
            sched_overhead: 0.0,
            ready: ReadyQueue::new(cfg.policy),
            deps_left: wf
                .tasks()
                .iter()
                .map(|t| wf.predecessors(t.id).len())
                .collect(),
            avail_scratch: Vec::with_capacity(nodes),
            reads_scratch: Vec::new(),
            runs: wf.tasks().iter().map(|_| None).collect(),
            records: Vec::with_capacity(wf.tasks().len()),
            done: 0,
            caches: (0..nodes).map(|_| BlockCache::new(cache_bytes)).collect(),
            home,
            jitter: Jitter::new(cfg.seed, cfg.jitter_sigma),
            bus: {
                let bus = EventBus::new(cfg.collect_telemetry);
                match &cfg.live_metrics {
                    Some(hub) => bus.with_live(hub.clone()),
                    None => bus,
                }
            },
            gpu_kernel_seconds: 0.0,
            core_held_seconds: 0.0,
            gpu_held_seconds: 0.0,
            faults,
            fault_timeline,
            attempts: vec![0; n_tasks],
            transient_fails: vec![0; n_tasks],
            last_failed_node: vec![None; n_tasks],
            in_backoff: vec![false; n_tasks],
            unarrived: FxHashSet::default(),
            gate: cfg.jobs.as_ref().map(|sched| {
                let mut ranges: Vec<(u32, u32, usize)> = sched
                    .jobs
                    .iter()
                    .enumerate()
                    .map(|(j, job)| (job.task_lo, job.task_hi, j))
                    .collect();
                ranges.sort_unstable();
                JobGate {
                    arrived: vec![false; sched.jobs.len()],
                    released: vec![false; sched.jobs.len()],
                    remaining: sched.jobs.iter().map(|j| j.task_count() as usize).collect(),
                    inflight: 0,
                    tenant_inflight: vec![0; sched.tenants.len()],
                    consumed: vec![0; sched.tenants.len()],
                    ranges,
                }
            }),
            completed: vec![false; n_tasks],
            recorded: vec![false; n_tasks],
            node_up: vec![true; nodes],
            gpus_dead: vec![0; nodes],
            vbase,
            // Only a fault plan crashes nodes, so only then does a
            // written version's home matter.
            version_home: match faults {
                Some(_) => vec![NO_HOME; slots],
                None => Vec::new(),
            },
            producer,
            terminal,
            data_hash: vec![None; slots],
            run_pool: Vec::new(),
            stats: RecoveryStats::default(),
            fatal: None,
        }
    }

    /// Arms the discrete fault timeline and announces every plan entry
    /// to the telemetry stream (continuous perturbations — stragglers,
    /// link degradation, transient rates — need no engine events; they
    /// are pure functions of the virtual clock).
    fn schedule_faults(&mut self) {
        for (idx, &(at, _)) in self.fault_timeline.iter().enumerate() {
            self.engine.schedule_at(at, Ev::Fault(idx));
        }
        let Some(plan) = self.faults else { return };
        self.stats.faults_injected = plan.node_crashes.len()
            + plan.gpu_failures.len()
            + plan.stragglers.len()
            + plan.link_degradations.len()
            + plan.task_failures.len();
        if self.bus.active() {
            for s in &plan.stragglers {
                self.bus.push(TelemetryEvent::FaultInjected {
                    at: SimTime::ZERO + SimDuration::from_secs_f64(s.at_secs),
                    node: Some(s.node),
                    what: "straggler",
                });
            }
            for l in &plan.link_degradations {
                self.bus.push(TelemetryEvent::FaultInjected {
                    at: SimTime::ZERO + SimDuration::from_secs_f64(l.at_secs),
                    node: None,
                    what: "link-degradation",
                });
            }
            for _ in &plan.task_failures {
                self.bus.push(TelemetryEvent::FaultInjected {
                    at: SimTime::ZERO,
                    node: None,
                    what: "transient-rate",
                });
            }
        }
    }

    fn now(&self) -> SimTime {
        self.engine.now()
    }

    fn seed_ready(&mut self) {
        // Roots with a configured future submission time are held back
        // and released by an engine event at their arrival instant.
        for &(tid, at_secs) in &self.cfg.arrivals {
            if at_secs > 0.0 {
                self.unarrived.insert(tid.0);
                self.engine.schedule_at(
                    SimTime::ZERO + SimDuration::from_secs_f64(at_secs),
                    Ev::Release(tid),
                );
            }
        }
        // Gated jobs: every root is held back — even at time zero — and
        // only the fair-share window releases it (see `job_fill_window`).
        if let Some(sched) = self.cfg.jobs.as_ref() {
            for (j, job) in sched.jobs.iter().enumerate() {
                for r in &job.roots {
                    self.unarrived.insert(r.0);
                }
                self.engine.schedule_at(
                    SimTime::ZERO + SimDuration::from_secs_f64(job.arrival_secs),
                    Ev::JobArrive(j),
                );
            }
        }
        for i in 0..self.deps_left.len() {
            if self.deps_left[i] == 0 && !self.unarrived.contains(&(i as u32)) {
                self.make_ready(TaskId(i as u32), SimTime::ZERO);
            }
        }
    }

    /// A held-back root task reached its submission time.
    fn on_release(&mut self, tid: TaskId) {
        if !self.unarrived.remove(&tid.0) {
            return;
        }
        self.make_ready(tid, self.now());
        self.try_start_master();
    }

    /// A gated job reached its arrival instant: mark it eligible and
    /// try to release work into the window.
    fn on_job_arrive(&mut self, j: usize) {
        match self.gate.as_mut() {
            Some(gate) if !gate.arrived[j] => gate.arrived[j] = true,
            _ => return,
        }
        self.job_fill_window();
    }

    /// Releases eligible jobs into the in-flight window until it is
    /// full or no job qualifies. Pick rule (stride fair-share): the
    /// eligible job whose tenant minimises `consumed / weight` —
    /// compared exactly by cross-multiplication, no floats — with ties
    /// broken by priority (higher first), then submission order. A
    /// released job's roots leave `unarrived` and enter the ready
    /// queue at the current virtual instant.
    fn job_fill_window(&mut self) {
        // `cfg` is a copyable `&'a RunConfig`, so `sched` borrows the
        // config for `'a` rather than `self` — the loop below mutates
        // `self` freely.
        let cfg: &'a RunConfig = self.cfg;
        let Some(sched) = cfg.jobs.as_ref() else {
            return;
        };
        let now = self.now();
        loop {
            let gate = self.gate.as_ref().expect("gate exists with a schedule");
            if gate.inflight >= sched.max_inflight {
                break;
            }
            let mut best: Option<usize> = None;
            for (j, job) in sched.jobs.iter().enumerate() {
                if !gate.arrived[j] || gate.released[j] {
                    continue;
                }
                if sched.max_inflight_per_tenant > 0
                    && gate.tenant_inflight[job.tenant] >= sched.max_inflight_per_tenant
                {
                    continue;
                }
                best = match best {
                    None => Some(j),
                    Some(b) => {
                        let other = &sched.jobs[b];
                        let lhs = gate.consumed[job.tenant] as u128
                            * sched.tenants[other.tenant].weight as u128;
                        let rhs = gate.consumed[other.tenant] as u128
                            * sched.tenants[job.tenant].weight as u128;
                        let ord = lhs
                            .cmp(&rhs)
                            .then(other.priority.cmp(&job.priority))
                            .then(std::cmp::Ordering::Greater);
                        if ord == std::cmp::Ordering::Less {
                            Some(j)
                        } else {
                            Some(b)
                        }
                    }
                };
            }
            let Some(j) = best else { break };
            let job = &sched.jobs[j];
            let gate = self.gate.as_mut().expect("gate exists with a schedule");
            gate.released[j] = true;
            gate.inflight += 1;
            gate.tenant_inflight[job.tenant] += 1;
            gate.consumed[job.tenant] += job.task_count();
            for &r in &job.roots {
                if self.unarrived.remove(&r.0) {
                    self.make_ready(r, now);
                }
            }
        }
        self.try_start_master();
    }

    /// Job-gate bookkeeping for a task's first successful completion:
    /// when the job's last task finishes, its window slot frees up and
    /// the window refills.
    fn job_task_done(&mut self, tid: TaskId) {
        let Some(gate) = self.gate.as_mut() else {
            return;
        };
        let Ok(idx) = gate.ranges.binary_search_by(|&(lo, hi, _)| {
            if hi < tid.0 {
                std::cmp::Ordering::Less
            } else if lo > tid.0 {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Equal
            }
        }) else {
            return;
        };
        let j = gate.ranges[idx].2;
        gate.remaining[j] -= 1;
        if gate.remaining[j] == 0 {
            let sched = self.cfg.jobs.as_ref().expect("gate exists with a schedule");
            let tenant = sched.jobs[j].tenant;
            let gate = self.gate.as_mut().expect("gate exists with a schedule");
            gate.inflight -= 1;
            gate.tenant_inflight[tenant] -= 1;
            self.job_fill_window();
        }
    }

    /// Does this task offload its parallel fraction to a GPU in this run?
    fn is_gpu_task(&self, tid: TaskId) -> bool {
        self.class_of(tid) == TaskClass::Gpu
    }

    /// Host cores a task occupies: GPU tasks and serial tasks hold one;
    /// CPU tasks with a parallel fraction hold the configured thread
    /// count.
    fn cores_needed(&self, tid: TaskId) -> usize {
        self.class_of(tid).cores(self.cfg.cpu_threads_per_task)
    }

    /// The one source of a task's resource class. In a GPU run, a task
    /// with a parallel fraction runs on a GPU unless it is CPU-only.
    /// Otherwise a task without a parallel fraction is serial, and one
    /// with it holds the configured thread count of cores.
    fn class_of(&self, tid: TaskId) -> TaskClass {
        let t = self.wf.task(tid);
        if self.cfg.processor == ProcessorKind::Gpu && !t.cpu_only && t.cost.parallel.flops > 0.0 {
            TaskClass::Gpu
        } else if t.cost.parallel.flops <= 0.0 {
            TaskClass::CpuSerial
        } else {
            TaskClass::CpuParallel
        }
    }

    /// Queues `tid` under its class and upward rank, without telemetry
    /// (a re-queue after a failed assignment).
    fn enqueue(&mut self, tid: TaskId) {
        let class = self.class_of(tid);
        self.ready
            .insert(class, self.upward_rank[tid.0 as usize], tid);
    }

    /// Queues `tid` and records that it became ready at `at`.
    fn make_ready(&mut self, tid: TaskId, at: SimTime) {
        self.enqueue(tid);
        if self.bus.active() {
            self.bus.push(TelemetryEvent::TaskReady { at, task: tid });
        }
    }

    /// GPU devices on `node` that have not permanently failed.
    fn alive_gpus(&self, node: usize) -> usize {
        self.cfg.cluster.gpus_of(node) - self.gpus_dead[node]
    }

    /// Schedules a stage delay tagged with the task's current attempt,
    /// so delays outliving an aborted attempt are dropped as stale.
    fn delay(&mut self, d: SimDuration, tid: TaskId) {
        let att = self.attempts[tid.0 as usize];
        self.engine.schedule_after(d, Ev::TaskDelay(tid, att));
    }

    /// Applies the active straggler slowdown of `node` to a stage
    /// duration. A factor of exactly 1.0 (or no plan) returns `d`
    /// untouched, keeping fault-free runs byte-identical.
    fn stretch(&self, node: usize, d: SimDuration) -> SimDuration {
        if let Some(plan) = self.faults {
            let f = plan.straggle_factor(node, self.now().as_secs_f64());
            if f != 1.0 {
                return d.mul_f64(f);
            }
        }
        d
    }

    /// Effective bytes of a link flow under the active link-degradation
    /// window (degradation inflates the transferred volume).
    fn flow_bytes(&self, bytes: u64) -> f64 {
        let b = bytes as f64;
        if let Some(plan) = self.faults {
            let f = plan.link_factor(self.now().as_secs_f64());
            if f != 1.0 {
                return b * f;
            }
        }
        b
    }

    /// Disk home of `data`, if it has one (dense-table lookup).
    fn home_of(&self, data: DataId) -> Option<usize> {
        match self.home[data.0 as usize] {
            NO_HOME => None,
            h => Some(h),
        }
    }

    /// Dense lineage slot of `v` (see [`Exec::vbase`]).
    fn slot(&self, v: DataVersion) -> usize {
        self.vbase[v.id.0 as usize] + v.version as usize
    }

    /// Lineage hash of a version nobody produces (initial datasets, and
    /// their durable re-fetched copies).
    fn source_hash(v: DataVersion) -> u64 {
        mix64(0x9E37_79B9_7F4A_7C15 ^ ((v.id.0 as u64) << 32) ^ v.version as u64)
    }

    /// Free execution slots on `node` for `tid`.
    fn free_slots(&self, node: usize, tid: TaskId) -> usize {
        if self.faults.is_some() && !self.node_up[node] {
            return 0;
        }
        let class = self.class_of(tid);
        if class == TaskClass::Gpu {
            if self.faults.is_some() && self.alive_gpus(node) == 0 {
                // Every device on the node is dead: degrade to a CPU
                // core when the policy allows it, else the node cannot
                // host this task.
                return if self.cfg.recovery.gpu_to_cpu_fallback {
                    self.free_cores[node]
                } else {
                    0
                };
            }
            self.free_cores[node].min(self.free_gpus[node])
        } else {
            self.free_cores[node] / class.cores(self.cfg.cpu_threads_per_task)
        }
    }

    fn try_start_master(&mut self) {
        if self.master_busy || self.ready.is_empty() {
            return;
        }
        // O(nodes) pre-aggregates. `place` succeeds exactly when some
        // node has a free slot for the task's resource class, i.e. when
        // the matching aggregate below is non-zero — so the first ready
        // task (in dispatch order) whose class passes these O(1) tests
        // is the one the seed implementation placed after scoring every
        // candidate.
        let chaos = self.faults.is_some();
        let nodes = self.cfg.cluster.nodes;
        let total_free_cores: usize = if chaos {
            (0..nodes)
                .filter(|&n| self.node_up[n])
                .map(|n| self.free_cores[n])
                .sum()
        } else {
            self.free_cores.iter().sum()
        };
        if total_free_cores == 0 {
            return;
        }
        let max_free_cores: usize = if chaos {
            (0..nodes)
                .filter(|&n| self.node_up[n])
                .map(|n| self.free_cores[n])
                .max()
                .unwrap_or(0)
        } else {
            self.free_cores.iter().copied().max().unwrap_or(0)
        };
        let total_free_gpu_slots: usize = if chaos {
            (0..nodes)
                .map(|n| {
                    if !self.node_up[n] {
                        0
                    } else if self.alive_gpus(n) == 0 {
                        if self.cfg.recovery.gpu_to_cpu_fallback {
                            self.free_cores[n]
                        } else {
                            0
                        }
                    } else {
                        self.free_cores[n].min(self.free_gpus[n])
                    }
                })
                .sum()
        } else {
            self.free_cores
                .iter()
                .zip(&self.free_gpus)
                .map(|(&c, &g)| c.min(g))
                .sum()
        };
        // Placeability depends only on the class, so the queue compares
        // one head per eligible class. `queue_depth` is sampled first so
        // telemetry still counts the chosen task (the seed removed it
        // only after scoring).
        let queue_depth = self.ready.len();
        let threads = self.cfg.cpu_threads_per_task;
        let chosen = self.ready.take_first(|class| match class {
            TaskClass::Gpu => total_free_gpu_slots > 0,
            _ => class.cores(threads) <= max_free_cores,
        });
        let Some(tid) = chosen else { return };

        // Score the nodes exactly once, for the task that will be
        // placed. The task's reads are resolved to `(version, bytes)`
        // once, then each node only pays a cache peek per read.
        let score_cache = matches!(
            self.cfg.policy,
            SchedulingPolicy::DataLocality | SchedulingPolicy::CriticalPath
        );
        let mut avail = std::mem::take(&mut self.avail_scratch);
        let mut reads = std::mem::take(&mut self.reads_scratch);
        avail.clear();
        reads.clear();
        if score_cache {
            let reg = self.wf.registry();
            reads.extend(self.wf.task(tid).reads().map(|(data, version)| {
                (DataVersion { id: data, version }, reg.object(data).bytes)
            }));
        }
        for node in 0..self.cfg.cluster.nodes {
            let free_slots = self.free_slots(node, tid);
            let cached_bytes = if score_cache && free_slots > 0 {
                reads
                    .iter()
                    .filter(|&&(key, _)| self.caches[node].peek(key))
                    .map(|&(_, bytes)| bytes)
                    .sum()
            } else {
                0
            };
            avail.push(NodeAvail {
                node,
                free_slots,
                cached_bytes,
            });
        }
        // Resubmission steers a previously failed task away from the
        // node that killed it, when any alternative has capacity.
        if chaos && self.cfg.recovery.resubmit_alternate {
            if let Some(bad) = self.last_failed_node[tid.0 as usize] {
                if avail.iter().any(|a| a.node != bad && a.free_slots > 0) {
                    if let Some(slot) = avail.iter_mut().find(|a| a.node == bad) {
                        slot.free_slots = 0;
                    }
                }
            }
        }
        let placed = place(self.cfg.policy, &avail, self.rr_cursor);
        let node = placed.expect("a ready task passing the slot pre-checks is placeable");
        self.rr_cursor = self.rr_cursor.wrapping_add(1);
        self.master_busy = true;
        self.pending_assign = Some((tid, node));
        let overhead = decision_overhead(
            self.cfg.policy,
            self.cfg.cluster.sched_overhead_fifo,
            self.cfg.cluster.sched_overhead_locality,
        );
        self.sched_overhead += overhead.as_secs_f64();
        if self.bus.active() {
            self.bus.push(TelemetryEvent::Decision(SchedulerDecision {
                at: self.now(),
                task: tid,
                chosen: node,
                queue_depth,
                sim_overhead: overhead,
                candidates: avail
                    .iter()
                    .map(|a| CandidateScore {
                        node: a.node,
                        free_slots: a.free_slots,
                        cached_bytes: a.cached_bytes,
                    })
                    .collect(),
            }));
        }
        self.avail_scratch = avail;
        self.reads_scratch = reads;
        self.engine.schedule_after(overhead, Ev::MasterDone);
    }

    fn handle(&mut self, ev: Ev) -> Result<(), RunError> {
        match ev {
            Ev::MasterDone => {
                let (tid, node) = self.pending_assign.take().expect("assignment pending");
                self.master_busy = false;
                if self.faults.is_some() {
                    // A fault may have invalidated the assignment while
                    // the master was deciding.
                    let i = tid.0 as usize;
                    if self.completed[i] || self.runs[i].is_some() {
                        self.try_start_master();
                        return Ok(());
                    }
                    if self.deps_left[i] > 0 {
                        // Inputs were lost mid-decision; the task will
                        // re-enter through dependency tracking.
                        self.try_start_master();
                        return Ok(());
                    }
                    if self.free_slots(node, tid) == 0 {
                        if !self.in_backoff[i] {
                            self.enqueue(tid);
                        }
                        self.try_start_master();
                        return Ok(());
                    }
                }
                self.dispatch(tid, node)?;
                self.try_start_master();
                Ok(())
            }
            Ev::TaskDelay(tid, att) => {
                // Stale if the attempt died (abort) or was superseded.
                let i = tid.0 as usize;
                if self.runs[i].is_none() || att != self.attempts[i] {
                    return Ok(());
                }
                self.on_delay_done(tid)
            }
            Ev::Fault(idx) => {
                let (_, action) = self.fault_timeline[idx];
                match action {
                    FaultAction::Crash { node } => self.on_node_crash(node),
                    FaultAction::Rejoin { node } => self.on_node_rejoin(node),
                    FaultAction::GpuFail { node } => self.on_gpu_failure(node),
                }
                Ok(())
            }
            Ev::Retry(tid) => {
                self.on_retry(tid);
                Ok(())
            }
            Ev::Release(tid) => {
                self.on_release(tid);
                Ok(())
            }
            Ev::JobArrive(j) => {
                self.on_job_arrive(j);
                Ok(())
            }
            Ev::LinkTick(key, gen) => {
                if gen != self.link_generation(key) {
                    return Ok(()); // stale tick
                }
                let now = self.now();
                let mut flows = std::mem::take(&mut self.harvest_scratch);
                match key {
                    LinkKey::Pcie(n) => self.pcie[n].harvest(now, &mut flows),
                    LinkKey::Disk(n) => self.disks[n].harvest(now, &mut flows),
                    LinkKey::Shared => self.shared.harvest(now, &mut flows),
                }
                for &flow in &flows {
                    if let Some(tid) = self.flow_task.remove(&(key, flow)) {
                        self.on_flow_done(tid)?;
                    }
                }
                self.harvest_scratch = flows;
                self.reschedule_link(key);
                Ok(())
            }
        }
    }

    fn link_generation(&self, key: LinkKey) -> u64 {
        match key {
            LinkKey::Pcie(n) => self.pcie[n].generation(),
            LinkKey::Disk(n) => self.disks[n].generation(),
            LinkKey::Shared => self.shared.generation(),
        }
    }

    fn reschedule_link(&mut self, key: LinkKey) {
        let now = self.now();
        let (gen, next) = match key {
            LinkKey::Pcie(n) => (self.pcie[n].generation(), self.pcie[n].next_completion(now)),
            LinkKey::Disk(n) => (
                self.disks[n].generation(),
                self.disks[n].next_completion(now),
            ),
            LinkKey::Shared => (self.shared.generation(), self.shared.next_completion(now)),
        };
        if let Some(t) = next {
            self.engine.schedule_at(t.max(now), Ev::LinkTick(key, gen));
        }
    }

    fn dispatch(&mut self, tid: TaskId, node: usize) -> Result<(), RunError> {
        let spec = self.wf.task(tid);
        let gpu_capable = self.is_gpu_task(tid);
        // Graceful degradation: a GPU task lands on its core when every
        // device on the node has failed (the scheduler only offers such
        // a node when the fallback policy is on).
        let on_gpu = gpu_capable && (self.faults.is_none() || self.alive_gpus(node) > 0);
        if gpu_capable && !on_gpu {
            self.stats.gpu_fallbacks += 1;
        }
        self.attempts[tid.0 as usize] += 1;
        let reg = self.wf.registry();
        // Reuse buffers from a finished attempt; steady-state dispatch
        // then allocates nothing.
        let (mut inputs, mut outputs, mut core_ids) = self.run_pool.pop().unwrap_or_default();
        inputs.clear();
        outputs.clear();
        core_ids.clear();
        inputs
            .extend(spec.reads().map(|(data, version)| {
                (DataVersion { id: data, version }, reg.object(data).bytes)
            }));
        outputs
            .extend(spec.writes().map(|(data, version)| {
                (DataVersion { id: data, version }, reg.object(data).bytes)
            }));
        let in_bytes: u64 = inputs.iter().map(|(_, b)| b).sum();
        let out_bytes: u64 = outputs.iter().map(|(_, b)| b).sum();

        // OOM checks — these abort the run, as on the real cluster.
        if on_gpu {
            let required = in_bytes + out_bytes + spec.cost.gpu_extra_bytes;
            let capacity = self.cfg.cluster.node.gpu.memory_bytes;
            if required > capacity {
                return Err(RunError::GpuOom {
                    task_type: spec.task_type.to_string(),
                    required,
                    capacity,
                });
            }
        }
        let host_footprint = in_bytes + out_bytes + spec.cost.host_extra_bytes;
        let ram = self.cfg.cluster.node.ram_bytes;
        if self.ram_used[node] + host_footprint > ram {
            return Err(RunError::HostOom {
                task_type: spec.task_type.to_string(),
                required: self.ram_used[node] + host_footprint,
                capacity: ram,
            });
        }

        // Acquire resources (the scheduler guaranteed availability).
        let cores = self.cores_needed(tid);
        assert!(
            self.free_cores[node] >= cores,
            "dispatch without free cores"
        );
        self.free_cores[node] -= cores;
        core_ids.extend((0..cores).map(|_| {
            self.core_stacks[node]
                .pop()
                .expect("core identity available")
        }));
        let gpu_id = if on_gpu {
            assert!(self.free_gpus[node] > 0, "dispatch without a free GPU");
            self.free_gpus[node] -= 1;
            Some(self.gpu_stacks[node].pop().expect("GPU identity available"))
        } else {
            None
        };
        let in_use = self.cfg.cluster.cores_of(node) - self.free_cores[node];
        self.peak_cores[node] = self.peak_cores[node].max(in_use);
        self.ram_used[node] += host_footprint;
        self.peak_ram = self.peak_ram.max(self.ram_used[node]);

        let now = self.now();
        // Fold the attempt's input lineage now: every input version is
        // available at dispatch (dependency tracking guarantees it).
        let mut in_hash = mix64(0x517C_C1B7_2722_0A95 ^ tid.0 as u64);
        for &(v, _) in &inputs {
            let hv = self.data_hash[self.slot(v)].unwrap_or_else(|| Self::source_hash(v));
            in_hash = mix64(in_hash ^ hv);
        }
        inputs.reverse();
        outputs.reverse();
        self.runs[tid.0 as usize] = Some(TaskRun {
            node,
            stage: Stage::SerialFrac, // placeholder; set by enter_inputs
            on_gpu,
            cores_held: cores,
            core_ids,
            gpu_id,
            inputs,
            outputs,
            in_bytes,
            out_bytes,
            host_footprint,
            anchor: now,
            flow_start: now,
            in_hash,
            rec: TaskRecord {
                task: tid,
                task_type: spec.task_type.clone(),
                node,
                core: 0, // set below from the acquired identity
                cores: cores as u16,
                processor: if on_gpu {
                    ProcessorKind::Gpu
                } else {
                    ProcessorKind::Cpu
                },
                level: self.wf.level(tid),
                start: now,
                end: now,
                deser: SimDuration::ZERO,
                ser: SimDuration::ZERO,
                serial: SimDuration::ZERO,
                parallel: SimDuration::ZERO,
                comm: SimDuration::ZERO,
                cache_hits: 0,
                cache_misses: 0,
            },
        });
        {
            let run = self.runs[tid.0 as usize].as_mut().expect("run");
            run.rec.core = run.core_ids[0];
        }
        if self.bus.active() {
            let run = self.runs[tid.0 as usize].as_ref().expect("run");
            self.bus.push(TelemetryEvent::TaskDispatched {
                at: now,
                task: tid,
                task_type: spec.task_type.clone(),
                node,
                core: run.rec.core,
                cores: cores as u16,
                gpu: gpu_id,
            });
            self.push_gauge(node, now);
        }
        self.enter_inputs(tid);
        Ok(())
    }

    /// Emits a [`TelemetryEvent::NodeGauge`] sample for `node` (callers
    /// guard on `bus.active()`).
    fn push_gauge(&mut self, node: usize, at: SimTime) {
        let c = &self.cfg.cluster;
        self.bus.push(TelemetryEvent::NodeGauge {
            at,
            node,
            ram_used: self.ram_used[node],
            busy_cores: c.cores_of(node) - self.free_cores[node],
            busy_gpus: c.gpus_of(node) - self.free_gpus[node],
        });
    }

    /// Latency preceding a storage read of `data` from `node`.
    fn read_latency(&self, node: usize, data: DataId) -> SimDuration {
        let c = &self.cfg.cluster;
        match self.cfg.storage {
            StorageArchitecture::SharedDisk => c.network.latency + c.shared_disk.latency,
            StorageArchitecture::LocalDisk => {
                let home = self.home_of(data).unwrap_or(node);
                if home == node {
                    c.node.local_disk.latency
                } else {
                    // Remote block: disk seek plus a network round trip.
                    c.node.local_disk.latency + c.network.latency + c.network.latency
                }
            }
        }
    }

    /// Starts a storage read flow for `tid` on the right link.
    fn start_read_flow(&mut self, tid: TaskId, data: DataId, bytes: u64) {
        let run = self.runs[tid.0 as usize].as_ref().expect("running task");
        let node = run.node;
        let now = self.now();
        let key = match self.cfg.storage {
            StorageArchitecture::SharedDisk => LinkKey::Shared,
            StorageArchitecture::LocalDisk => {
                let home = self.home_of(data).unwrap_or(node);
                LinkKey::Disk(home)
            }
        };
        let eff = self.flow_bytes(bytes);
        let flow = match key {
            LinkKey::Shared => self.shared.start(now, node, eff),
            LinkKey::Disk(n) => self.disks[n].start(now, eff),
            LinkKey::Pcie(_) => unreachable!("reads never use the PCIe bus"),
        };
        self.flow_task.insert((key, flow), tid);
        self.reschedule_link(key);
    }

    /// Starts a storage write flow for `tid`.
    fn start_write_flow(&mut self, tid: TaskId, bytes: u64) {
        let run = self.runs[tid.0 as usize].as_ref().expect("running task");
        let node = run.node;
        let now = self.now();
        let key = match self.cfg.storage {
            StorageArchitecture::SharedDisk => LinkKey::Shared,
            StorageArchitecture::LocalDisk => LinkKey::Disk(node),
        };
        let eff = self.flow_bytes(bytes);
        let flow = match key {
            LinkKey::Shared => self.shared.start(now, node, eff),
            LinkKey::Disk(n) => self.disks[n].start(now, eff),
            LinkKey::Pcie(_) => unreachable!("writes never use the PCIe bus"),
        };
        self.flow_task.insert((key, flow), tid);
        self.reschedule_link(key);
    }

    /// Consumes pending inputs: cache hits cost nothing; the first miss
    /// starts a read. When inputs are exhausted, moves on to compute.
    fn enter_inputs(&mut self, tid: TaskId) {
        loop {
            let run = self.runs[tid.0 as usize].as_mut().expect("running task");
            let node = run.node;
            match run.inputs.pop() {
                Some((key, bytes)) => {
                    let hit = self.caches[node].lookup(key);
                    if self.bus.active() {
                        self.bus.push(TelemetryEvent::CacheAccess {
                            at: self.engine.now(),
                            node,
                            task: tid,
                            key,
                            hit,
                        });
                    }
                    if hit {
                        self.runs[tid.0 as usize]
                            .as_mut()
                            .expect("run")
                            .rec
                            .cache_hits += 1;
                        continue;
                    }
                    {
                        let run = self.runs[tid.0 as usize].as_mut().expect("run");
                        run.rec.cache_misses += 1;
                        run.anchor = self.engine.now();
                        run.stage = Stage::ReadLatency { key, bytes };
                    }
                    let latency = self.read_latency(node, key.id);
                    self.delay(latency, tid);
                    return;
                }
                None => {
                    self.enter_compute(tid);
                    return;
                }
            }
        }
    }

    fn enter_compute(&mut self, tid: TaskId) {
        let cost = self.wf.task(tid).cost;
        let serial_time = self.cfg.cluster.node.cpu.time(&cost.serial);
        if !serial_time.is_zero() {
            let d = self.jitter.apply(serial_time);
            let now = self.now();
            let run = self.runs[tid.0 as usize].as_mut().expect("run");
            run.stage = Stage::SerialFrac;
            run.anchor = now;
            let node = run.node;
            let d = self.stretch(node, d);
            self.delay(d, tid);
        } else {
            self.enter_parallel(tid);
        }
    }

    fn enter_parallel(&mut self, tid: TaskId) {
        let cost = self.wf.task(tid).cost;
        if cost.parallel.flops <= 0.0 && cost.parallel.bytes <= 0.0 {
            self.enter_outputs(tid);
            return;
        }
        let now = self.now();
        let on_gpu = self.runs[tid.0 as usize].as_ref().expect("run").on_gpu;
        if on_gpu {
            let run = self.runs[tid.0 as usize].as_mut().expect("run");
            run.stage = Stage::H2dLatency;
            run.anchor = now;
            let latency = self.cfg.cluster.node.pcie.latency;
            self.delay(latency, tid);
        } else {
            let threads = self.runs[tid.0 as usize].as_ref().expect("run").cores_held;
            let single = self.cfg.cluster.node.cpu.time(&cost.parallel);
            let d = self
                .jitter
                .apply(single.mul_f64(1.0 / RunConfig::thread_speedup(threads)));
            let run = self.runs[tid.0 as usize].as_mut().expect("run");
            run.stage = Stage::CpuCompute;
            run.anchor = now;
            let node = run.node;
            let d = self.stretch(node, d);
            self.delay(d, tid);
        }
    }

    fn enter_outputs(&mut self, tid: TaskId) {
        let now = self.now();
        let next = self.runs[tid.0 as usize]
            .as_mut()
            .expect("run")
            .outputs
            .pop();
        match next {
            Some((key, bytes)) => {
                let run = self.runs[tid.0 as usize].as_mut().expect("run");
                run.stage = Stage::Encode { key, bytes };
                run.anchor = now;
                let node = run.node;
                let d = self
                    .jitter
                    .apply(self.cfg.cluster.serde.serialize_time(bytes as f64));
                let d = self.stretch(node, d);
                self.delay(d, tid);
            }
            None => self.finalize(tid),
        }
    }

    fn on_delay_done(&mut self, tid: TaskId) -> Result<(), RunError> {
        let now = self.now();
        let stage = self.runs[tid.0 as usize].as_ref().expect("run").stage;
        match stage {
            Stage::ReadLatency { key, bytes } => {
                let run = self.runs[tid.0 as usize].as_mut().expect("run");
                run.stage = Stage::ReadFlow { key, bytes };
                run.flow_start = now;
                self.start_read_flow(tid, key.id, bytes);
            }
            Stage::Decode { key, bytes } => {
                let run = self.runs[tid.0 as usize].as_mut().expect("run");
                let node = run.node;
                run.rec.deser += now - run.anchor;
                let (anchor, rnode) = (run.anchor, node);
                self.cache_insert(node, key, bytes, now);
                self.push_trace(rnode, tid, TraceState::Deserialize, anchor, now);
                self.enter_inputs(tid);
            }
            Stage::SerialFrac => {
                let run = self.runs[tid.0 as usize].as_mut().expect("run");
                run.rec.serial += now - run.anchor;
                let (anchor, node) = (run.anchor, run.node);
                self.push_trace(node, tid, TraceState::SerialFraction, anchor, now);
                self.enter_parallel(tid);
            }
            Stage::H2dLatency => {
                let run = self.runs[tid.0 as usize].as_mut().expect("run");
                run.stage = Stage::H2dFlow;
                run.flow_start = now;
                let bytes = run.in_bytes;
                let node = run.node;
                let eff = self.flow_bytes(bytes);
                let flow = self.pcie[node].start(now, eff);
                self.flow_task.insert((LinkKey::Pcie(node), flow), tid);
                self.reschedule_link(LinkKey::Pcie(node));
            }
            Stage::Kernel => {
                let run = self.runs[tid.0 as usize].as_mut().expect("run");
                let kernel = now - run.anchor;
                run.rec.parallel += kernel;
                self.gpu_kernel_seconds += kernel.as_secs_f64();
                let (anchor, node) = (run.anchor, run.node);
                self.push_trace(node, tid, TraceState::ParallelFraction, anchor, now);
                let run = self.runs[tid.0 as usize].as_mut().expect("run");
                run.stage = Stage::D2hLatency;
                run.anchor = now;
                let latency = self.cfg.cluster.node.pcie.latency;
                self.delay(latency, tid);
            }
            Stage::D2hLatency => {
                let run = self.runs[tid.0 as usize].as_mut().expect("run");
                run.stage = Stage::D2hFlow;
                run.flow_start = now;
                let bytes = run.out_bytes;
                let node = run.node;
                let eff = self.flow_bytes(bytes);
                let flow = self.pcie[node].start(now, eff);
                self.flow_task.insert((LinkKey::Pcie(node), flow), tid);
                self.reschedule_link(LinkKey::Pcie(node));
            }
            Stage::CpuCompute => {
                let run = self.runs[tid.0 as usize].as_mut().expect("run");
                run.rec.parallel += now - run.anchor;
                let (anchor, node) = (run.anchor, run.node);
                self.push_trace(node, tid, TraceState::ParallelFraction, anchor, now);
                self.enter_outputs(tid);
            }
            Stage::Encode { key, bytes } => {
                let run = self.runs[tid.0 as usize].as_mut().expect("run");
                run.stage = Stage::WriteLatency { key, bytes };
                let latency = match self.cfg.storage {
                    StorageArchitecture::SharedDisk => {
                        self.cfg.cluster.network.latency + self.cfg.cluster.shared_disk.latency
                    }
                    StorageArchitecture::LocalDisk => self.cfg.cluster.node.local_disk.latency,
                };
                self.delay(latency, tid);
            }
            Stage::WriteLatency { key, bytes } => {
                let run = self.runs[tid.0 as usize].as_mut().expect("run");
                run.stage = Stage::WriteFlow { key, bytes };
                run.flow_start = now;
                self.start_write_flow(tid, bytes);
            }
            Stage::ReadFlow { .. } | Stage::H2dFlow | Stage::D2hFlow | Stage::WriteFlow { .. } => {
                unreachable!("flow stages complete via link ticks, not delays")
            }
        }
        Ok(())
    }

    /// Emits a [`TelemetryEvent::Transfer`] for a completed link flow
    /// of `tid` (callers guard on `bus.active()`).
    fn push_transfer(&mut self, tid: TaskId, link: LinkKind, bytes: u64, t1: SimTime) {
        let run = self.runs[tid.0 as usize].as_ref().expect("run");
        let (node, t0) = (run.node, run.flow_start);
        self.bus.push(TelemetryEvent::Transfer {
            task: tid,
            node,
            link,
            bytes,
            t0,
            t1,
        });
    }

    fn on_flow_done(&mut self, tid: TaskId) -> Result<(), RunError> {
        let now = self.now();
        let stage = self.runs[tid.0 as usize].as_ref().expect("run").stage;
        match stage {
            Stage::ReadFlow { key, bytes } => {
                if self.bus.active() {
                    self.push_transfer(tid, LinkKind::StorageRead, bytes, now);
                }
                // Storage read finished; decode on the held core.
                let run = self.runs[tid.0 as usize].as_mut().expect("run");
                run.stage = Stage::Decode { key, bytes };
                let node = run.node;
                let d = self
                    .jitter
                    .apply(self.cfg.cluster.serde.deserialize_time(bytes as f64));
                let d = self.stretch(node, d);
                self.delay(d, tid);
            }
            Stage::H2dFlow => {
                let run = self.runs[tid.0 as usize].as_mut().expect("run");
                run.rec.comm += now - run.anchor;
                let (anchor, node, bytes) = (run.anchor, run.node, run.in_bytes);
                if self.bus.active() {
                    self.push_transfer(tid, LinkKind::HostToDevice, bytes, now);
                }
                self.push_trace(node, tid, TraceState::CpuGpuComm, anchor, now);
                let cost = self.wf.task(tid).cost;
                let d = self
                    .jitter
                    .apply(self.cfg.cluster.node.gpu.time(&cost.parallel));
                let d = self.stretch(node, d);
                let run = self.runs[tid.0 as usize].as_mut().expect("run");
                run.stage = Stage::Kernel;
                run.anchor = now;
                self.delay(d, tid);
            }
            Stage::D2hFlow => {
                let run = self.runs[tid.0 as usize].as_mut().expect("run");
                run.rec.comm += now - run.anchor;
                let (anchor, node, bytes) = (run.anchor, run.node, run.out_bytes);
                if self.bus.active() {
                    self.push_transfer(tid, LinkKind::DeviceToHost, bytes, now);
                }
                self.push_trace(node, tid, TraceState::CpuGpuComm, anchor, now);
                self.enter_outputs(tid);
            }
            Stage::WriteFlow { key, bytes } => {
                let run = self.runs[tid.0 as usize].as_mut().expect("run");
                run.rec.ser += now - run.anchor;
                let node = run.node;
                let anchor = run.anchor;
                if self.bus.active() {
                    self.push_transfer(tid, LinkKind::StorageWrite, bytes, now);
                }
                // Output object stays in the worker's memory cache and,
                // with local disks, now lives on this node's disk.
                self.cache_insert(node, key, bytes, now);
                if self.cfg.storage == StorageArchitecture::LocalDisk {
                    self.home[key.id.0 as usize] = node;
                    if self.faults.is_some() {
                        // Written versions on a local disk die with the
                        // node; shared-disk writes are durable.
                        let slot = self.slot(key);
                        self.version_home[slot] = node;
                    }
                }
                self.push_trace(node, tid, TraceState::Serialize, anchor, now);
                self.enter_outputs(tid);
            }
            other => unreachable!("unexpected flow completion in stage {other:?}"),
        }
        Ok(())
    }

    fn finalize(&mut self, tid: TaskId) {
        let i = tid.0 as usize;
        // A chaos plan may kill this attempt at its commit point; the
        // sampler is a stateless hash of (plan seed, task, attempt), so
        // the verdict is identical at any thread count and the jitter
        // stream is never touched.
        if let Some(plan) = self.faults {
            let p = plan.failure_probability(self.wf.task(tid).task_type.as_str());
            if p > 0.0
                && gpuflow_chaos::transient_failure(
                    plan.seed,
                    tid.0,
                    self.attempts[i].saturating_sub(1),
                    p,
                )
            {
                self.fail_transient(tid);
                self.try_start_master();
                return;
            }
        }
        let now = self.now();
        let mut run = self.runs[i].take().expect("run");
        run.rec.end = now;
        let node = run.node;
        self.free_cores[node] += run.cores_held;
        self.core_stacks[node].extend(run.core_ids.iter().copied());
        self.core_held_seconds +=
            run.cores_held as f64 * (run.rec.end - run.rec.start).as_secs_f64();
        if run.on_gpu {
            self.free_gpus[node] += 1;
            self.gpu_stacks[node].push(run.gpu_id.expect("GPU task holds a device"));
            self.gpu_held_seconds += (run.rec.end - run.rec.start).as_secs_f64();
        }
        self.ram_used[node] -= run.host_footprint;
        // Commit the outputs' lineage hashes: pure functions of the task
        // and its input lineage, so a regenerated producer reinserts the
        // exact value a crash destroyed.
        for (id, version) in self.wf.task(tid).writes() {
            let h = mix64(run.in_hash ^ (((id.0 as u64) << 32) | version as u64));
            let slot = self.slot(DataVersion { id, version });
            self.data_hash[slot] = Some(h);
        }
        debug_assert!(!self.completed[i], "double completion of {tid}");
        self.completed[i] = true;
        self.run_pool.push((run.inputs, run.outputs, run.core_ids));
        if !self.recorded[i] {
            // Only the first successful attempt is recorded; lineage
            // re-executions keep the books at one record per task.
            self.recorded[i] = true;
            self.records.push(run.rec);
            self.done += 1;
            self.job_task_done(tid);
        }
        if self.bus.active() {
            self.bus.push(TelemetryEvent::TaskCompleted {
                at: now,
                task: tid,
                node,
            });
            self.push_gauge(node, now);
        }
        for &succ in self.wf.successors(tid) {
            let si = succ.0 as usize;
            if self.completed[si] || self.runs[si].is_some() {
                // A lineage re-execution's successor may already be
                // done or running; never feed it back into the queue.
                continue;
            }
            let d = &mut self.deps_left[si];
            *d = d.saturating_sub(1);
            if *d == 0 {
                let pending = self.pending_assign.map(|(t, _)| t) == Some(succ);
                if !self.in_backoff[si] && !pending {
                    self.make_ready(succ, now);
                }
            }
        }
        self.try_start_master();
    }

    /// Tears down a live attempt: releases its core(s), RAM, and —
    /// unless the device itself died — its GPU, drops its in-flight
    /// link flows (the orphaned flows drain harmlessly; their
    /// completions find no owner), and reports the failure. Pending
    /// stage delays become stale via the attempt tag.
    fn abort_attempt(&mut self, tid: TaskId, reason: &'static str, release_gpu: bool) {
        let now = self.now();
        let i = tid.0 as usize;
        // lint: allow(R1, caller-contract invariant: every abort site holds a live attempt; not fault-dependent state)
        let run = self.runs[i].take().expect("aborting a live attempt");
        let node = run.node;
        self.free_cores[node] += run.cores_held;
        self.core_stacks[node].extend(run.core_ids.iter().copied());
        self.core_held_seconds += run.cores_held as f64 * (now - run.rec.start).as_secs_f64();
        if run.on_gpu {
            self.gpu_held_seconds += (now - run.rec.start).as_secs_f64();
            if release_gpu {
                self.free_gpus[node] += 1;
                // lint: allow(R1, on_gpu attempts always record their device id at dispatch)
                self.gpu_stacks[node].push(run.gpu_id.expect("GPU attempt holds a device"));
            }
        }
        self.ram_used[node] -= run.host_footprint;
        self.flow_task.retain(|_, t| *t != tid);
        if self.bus.active() {
            self.bus.push(TelemetryEvent::TaskFailed {
                at: now,
                task: tid,
                node,
                attempt: self.attempts[i].saturating_sub(1),
                started: run.rec.start,
                reason,
            });
            self.push_gauge(node, now);
        }
        self.run_pool.push((run.inputs, run.outputs, run.core_ids));
    }

    /// Kills the current attempt with a sampled transient failure and
    /// either schedules a backed-off retry or, with the budget spent,
    /// raises the fatal [`RunError::TaskFailed`].
    fn fail_transient(&mut self, tid: TaskId) {
        let i = tid.0 as usize;
        let now = self.now();
        let node = self.runs[i].as_ref().expect("failing a live attempt").node;
        self.stats.transient_failures += 1;
        self.transient_fails[i] += 1;
        self.abort_attempt(tid, "transient", true);
        if self.transient_fails[i] > self.cfg.recovery.max_retries {
            self.fatal = Some(RunError::TaskFailed {
                task_type: self.wf.task(tid).task_type.to_string(),
                attempts: self.attempts[i],
            });
            return;
        }
        if self.cfg.recovery.resubmit_alternate {
            self.last_failed_node[i] = Some(node);
        }
        self.stats.retries += 1;
        let backoff =
            SimDuration::from_secs_f64(self.cfg.recovery.backoff_secs(self.transient_fails[i]));
        self.in_backoff[i] = true;
        if self.bus.active() {
            self.bus.push(TelemetryEvent::TaskRetry {
                at: now,
                task: tid,
                attempt: self.attempts[i],
                until: now + backoff,
            });
        }
        self.engine.schedule_after(backoff, Ev::Retry(tid));
    }

    /// End of a backoff window: the task re-enters the ready queue if
    /// its dependencies still hold (a crash may have invalidated them;
    /// dependency tracking re-admits it later in that case).
    fn on_retry(&mut self, tid: TaskId) {
        let i = tid.0 as usize;
        if !self.in_backoff[i] {
            return;
        }
        self.in_backoff[i] = false;
        self.requeue(tid);
        self.try_start_master();
    }

    /// Re-inserts a task whose attempt was torn down, if it is runnable
    /// right now (dependencies met, not completed/running/pending).
    fn requeue(&mut self, tid: TaskId) {
        let i = tid.0 as usize;
        if self.completed[i]
            || self.runs[i].is_some()
            || self.in_backoff[i]
            || self.deps_left[i] > 0
            || self.unarrived.contains(&tid.0)
            || self.pending_assign.map(|(t, _)| t) == Some(tid)
        {
            return;
        }
        // A crash may have destroyed produced input versions while this
        // attempt ran on a surviving node or sat in backoff — it was
        // live then, so no crash-time sweep chased its inputs. Re-read
        // lineage now: a missing produced version forces regeneration of
        // its producer before this task may run again.
        let lost_input = self.wf.task(tid).reads().any(|(id, version)| {
            let s = self.slot(DataVersion { id, version });
            self.data_hash[s].is_none() && self.producer[s].is_some()
        });
        if lost_input {
            self.mark_regeneration(&[]);
            self.rebuild_dependencies();
            return;
        }
        self.make_ready(tid, self.now());
    }

    /// A node dies: every attempt on it is killed and resubmitted, its
    /// worker cache is wiped, and (with local disks) every block version
    /// written to its disk is lost — forcing lineage regeneration of the
    /// producers. Initial dataset blocks are durable and are re-homed
    /// onto surviving nodes.
    fn on_node_crash(&mut self, node: usize) {
        if !self.node_up[node] {
            return;
        }
        let now = self.now();
        self.node_up[node] = false;
        if self.bus.active() {
            self.bus.push(TelemetryEvent::FaultInjected {
                at: now,
                node: Some(node),
                what: "node-crash",
            });
            self.bus.push(TelemetryEvent::NodeDown { at: now, node });
        }
        let victims: Vec<TaskId> = (0..self.runs.len())
            .filter(|&i| self.runs[i].as_ref().is_some_and(|r| r.node == node))
            .map(|i| TaskId(i as u32))
            .collect();
        for tid in victims {
            self.stats.crash_failures += 1;
            self.stats.resubmissions += 1;
            if self.cfg.recovery.resubmit_alternate {
                self.last_failed_node[tid.0 as usize] = Some(node);
            }
            self.abort_attempt(tid, "node-crash", true);
            if self.bus.active() {
                self.bus.push(TelemetryEvent::TaskResubmitted {
                    at: now,
                    task: tid,
                    from_node: node,
                });
            }
        }
        let dropped = self.caches[node].clear();
        let mut lost: Vec<DataVersion> = Vec::new();
        if self.cfg.storage == StorageArchitecture::LocalDisk {
            // Slot order is `(id, version)` order, so the scan yields the
            // lost versions already sorted.
            for (id, w) in self.vbase.windows(2).enumerate() {
                for slot in w[0]..w[1] {
                    if self.version_home[slot] == node {
                        self.version_home[slot] = NO_HOME;
                        self.data_hash[slot] = None;
                        lost.push(DataVersion {
                            id: DataId(id as u32),
                            version: (slot - w[0]) as u32,
                        });
                    }
                }
            }
            for &v in &lost {
                // Cached copies elsewhere are invalidated too: a lost
                // version must be regenerated before anyone consumes it
                // again, which is what makes fingerprint equality prove
                // lineage recovery.
                for cache in &mut self.caches {
                    cache.invalidate(v);
                }
            }
            // Durable initial blocks move to surviving disks. The dense
            // table is already in ascending-id order, matching the old
            // map's collect-and-sort.
            let ids: Vec<usize> = self
                .home
                .iter()
                .enumerate()
                .filter(|&(_, &h)| h == node)
                .map(|(id, _)| id)
                .collect();
            let alive: Vec<usize> = (0..self.cfg.cluster.nodes)
                .filter(|&n| self.node_up[n])
                .collect();
            if !alive.is_empty() {
                for (k, id) in ids.into_iter().enumerate() {
                    self.home[id] = alive[k % alive.len()];
                }
            }
        }
        self.stats.blocks_invalidated += dropped + lost.len() as u64;
        if self.bus.active() {
            self.bus.push(TelemetryEvent::BlocksInvalidated {
                at: now,
                node,
                count: dropped,
                lost_versions: lost.len() as u64,
            });
            // The crash released every resource on the node; gauge the
            // new (empty) occupancy so down intervals read as idle.
            self.push_gauge(node, now);
        }
        self.mark_regeneration(&lost);
        self.rebuild_dependencies();
        self.try_start_master();
    }

    /// A transiently crashed node comes back: empty cache, full core
    /// complement (permanently failed GPUs stay dead).
    fn on_node_rejoin(&mut self, node: usize) {
        if self.node_up[node] {
            return;
        }
        let now = self.now();
        self.node_up[node] = true;
        if self.bus.active() {
            self.bus.push(TelemetryEvent::NodeUp { at: now, node });
            // A rejoined node restarts cold: gauge the empty occupancy.
            self.push_gauge(node, now);
        }
        self.try_start_master();
    }

    /// One GPU device on `node` fails permanently. An idle device is
    /// simply removed from the pool; otherwise the lowest-id running
    /// GPU attempt on the node dies with its device and is resubmitted.
    fn on_gpu_failure(&mut self, node: usize) {
        if self.gpus_dead[node] >= self.cfg.cluster.gpus_of(node) {
            return;
        }
        let now = self.now();
        self.gpus_dead[node] += 1;
        if self.bus.active() {
            self.bus.push(TelemetryEvent::FaultInjected {
                at: now,
                node: Some(node),
                what: "gpu-failure",
            });
        }
        if self.free_gpus[node] > 0 {
            self.free_gpus[node] -= 1;
            self.gpu_stacks[node].pop();
        } else if let Some(tid) = (0..self.runs.len())
            .find(|&i| {
                self.runs[i]
                    .as_ref()
                    .is_some_and(|r| r.node == node && r.on_gpu)
            })
            .map(|i| TaskId(i as u32))
        {
            self.stats.crash_failures += 1;
            self.stats.resubmissions += 1;
            if self.cfg.recovery.resubmit_alternate {
                self.last_failed_node[tid.0 as usize] = Some(node);
            }
            self.abort_attempt(tid, "gpu-failure", false);
            if self.bus.active() {
                self.bus.push(TelemetryEvent::TaskResubmitted {
                    at: now,
                    task: tid,
                    from_node: node,
                });
            }
            self.requeue(tid);
        }
        self.try_start_master();
    }

    /// Marks every task whose (transitive) inputs were lost for
    /// re-execution. Seeds are all pending tasks (they may need lost
    /// inputs) plus the producers of lost *terminal* versions, which
    /// must regenerate even with no pending consumer — the run's output
    /// set itself was damaged.
    fn mark_regeneration(&mut self, lost: &[DataVersion]) {
        let n = self.wf.tasks().len();
        let mut work: Vec<TaskId> = (0..n)
            .filter(|&i| !self.completed[i] && self.runs[i].is_none())
            .map(|i| TaskId(i as u32))
            .collect();
        for &v in lost {
            let s = self.slot(v);
            if self.terminal.binary_search(&s).is_ok() {
                work.extend(self.producer[s]);
            }
        }
        let mut visited = vec![false; n];
        while let Some(t) = work.pop() {
            let i = t.0 as usize;
            if visited[i] {
                continue;
            }
            visited[i] = true;
            if self.completed[i] {
                self.completed[i] = false;
                self.stats.regenerated_tasks += 1;
            }
            // Chase lost inputs upstream: a produced version missing
            // from the lineage table forces its producer to re-run
            // (initial versions have no producer — they are durable).
            for (id, version) in self.wf.task(t).reads() {
                let s = self.slot(DataVersion { id, version });
                if self.data_hash[s].is_none() {
                    if let Some(p) = self.producer[s] {
                        if !visited[p.0 as usize] {
                            work.push(p);
                        }
                    }
                }
            }
        }
    }

    /// Recomputes `deps_left` and rebuilds the ready queue from scratch
    /// after regeneration changed the completion frontier.
    fn rebuild_dependencies(&mut self) {
        let now = self.now();
        self.ready.clear();
        for i in 0..self.wf.tasks().len() {
            if self.completed[i] || self.runs[i].is_some() {
                continue;
            }
            let tid = TaskId(i as u32);
            let deps = self
                .wf
                .predecessors(tid)
                .iter()
                .filter(|p| !self.completed[p.0 as usize])
                .count();
            self.deps_left[i] = deps;
            let pending = self.pending_assign.map(|(t, _)| t) == Some(tid);
            if deps == 0 && !self.in_backoff[i] && !pending && !self.unarrived.contains(&tid.0) {
                self.make_ready(tid, now);
            }
        }
    }

    /// Emits one processing-stage interval to the bus — the single
    /// source feeding both the Paraver trace and the telemetry stream.
    fn push_trace(
        &mut self,
        node: usize,
        task: TaskId,
        state: TraceState,
        t0: SimTime,
        t1: SimTime,
    ) {
        if self.bus.active() {
            let (core, gpu_held) = self.runs[task.0 as usize]
                .as_ref()
                .map_or((0, None), |r| (r.core_ids[0], r.gpu_id));
            // Only device-side stages run on the GPU; host-side stages
            // of a GPU task still belong to the held core's lane.
            let gpu = match state {
                TraceState::ParallelFraction | TraceState::CpuGpuComm => gpu_held,
                _ => None,
            };
            self.bus.push(TelemetryEvent::Stage {
                task,
                node,
                core,
                gpu,
                state,
                t0,
                t1,
            });
        }
    }

    /// Inserts into a node cache, reporting LRU evictions to the bus.
    fn cache_insert(&mut self, node: usize, key: DataVersion, bytes: u64, at: SimTime) {
        let before = self.caches[node].evictions();
        self.caches[node].insert(key, bytes);
        if self.bus.active() {
            let evicted = self.caches[node].evictions() - before;
            if evicted > 0 {
                self.bus.push(TelemetryEvent::CacheEvicted {
                    at,
                    node,
                    count: evicted,
                });
                // Eviction instants are occupancy-relevant sample points
                // too (the metrics series reads RAM between dispatches).
                self.push_gauge(node, at);
            }
        }
    }

    fn finish(self) -> Result<RunReport, RunError> {
        let total = self.wf.tasks().len();
        let completed_now = self.completed.iter().filter(|&&c| c).count();
        if self.done < total || completed_now < total {
            // With a fault plan the stall is the plan's doing (e.g. a
            // permanent crash of the only capable node); without one it
            // is an internal invariant violation.
            if self.faults.is_some() {
                return Err(RunError::Unrecoverable {
                    completed: completed_now,
                    total,
                });
            }
            return Err(RunError::Deadlock {
                completed: self.done,
                total,
            });
        }
        let makespan = self.now().as_secs_f64();
        let cores_used: usize = self.peak_cores.iter().sum();
        let c = &self.cfg.cluster;
        let denom = makespan.max(1e-12);
        let cpu_util = self.core_held_seconds / (c.total_cpu_cores() as f64 * denom);
        let gpu_util = if self.cfg.processor == ProcessorKind::Gpu {
            self.gpu_kernel_seconds / (c.total_gpus() as f64 * denom)
        } else {
            0.0
        };
        let metrics = RunMetrics::aggregate(
            &self.records,
            makespan,
            cores_used,
            self.sched_overhead,
            cpu_util,
            gpu_util,
            self.peak_ram,
        );
        self.bus.finish_live();
        let telemetry = self.bus.into_log();
        // Fold the lineage hashes of the terminal outputs, in a fixed
        // order — the run's output fingerprint.
        let mut fingerprint = 0xCBF2_9CE4_8422_2325u64;
        for &s in &self.terminal {
            fingerprint = mix64(fingerprint ^ self.data_hash[s].unwrap_or(0));
        }
        Ok(RunReport {
            metrics,
            records: self.records,
            telemetry,
            shape: self.wf.shape(),
            processor: self.cfg.processor,
            storage: self.cfg.storage,
            policy: self.cfg.policy,
            recovery: self.stats,
            output_fingerprint: fingerprint,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Direction;
    use crate::task::CostProfile;
    use crate::trace::Trace;
    use crate::workflow::WorkflowBuilder;
    use gpuflow_cluster::KernelWork;

    const MB: u64 = 1 << 20;

    fn cluster() -> ClusterSpec {
        ClusterSpec::tiny()
    }

    fn compute_cost(flops: f64) -> CostProfile {
        CostProfile::fully_parallel(KernelWork {
            flops,
            bytes: flops / 10.0,
            parallelism: 1e9,
        })
    }

    /// A flat map workflow: n independent tasks, each reading one block.
    fn map_workflow(n: usize, block_bytes: u64, flops: f64) -> Workflow {
        let mut b = WorkflowBuilder::new();
        for i in 0..n {
            let x = b.input(format!("x{i}"), block_bytes);
            let y = b.intermediate(format!("y{i}"), block_bytes);
            b.submit(
                "map",
                compute_cost(flops),
                &[(x, Direction::In), (y, Direction::Out)],
                false,
            )
            .unwrap();
        }
        b.build()
    }

    fn cfg(processor: ProcessorKind) -> RunConfig {
        let mut c = RunConfig::new(cluster(), processor);
        c.jitter_sigma = 0.0;
        c
    }

    #[test]
    fn all_tasks_complete_and_metrics_cover_them() {
        let wf = map_workflow(10, MB, 1e9);
        let report = run(&wf, &cfg(ProcessorKind::Cpu)).unwrap();
        assert_eq!(report.records.len(), 10);
        assert!(report.makespan() > 0.0);
        let stats = report.metrics.task_type("map").unwrap();
        assert_eq!(stats.count, 10);
        assert!(stats.parallel > 0.0);
        assert_eq!(stats.comm, 0.0, "CPU run has no CPU-GPU communication");
    }

    #[test]
    fn gpu_run_records_comm_and_kernel_time() {
        let wf = map_workflow(4, MB, 1e9);
        let report = run(&wf, &cfg(ProcessorKind::Gpu)).unwrap();
        let stats = report.metrics.task_type("map").unwrap();
        assert!(stats.comm > 0.0, "H2D/D2H must be accounted");
        assert!(stats.parallel > 0.0);
        assert!(report.metrics.gpu_utilization > 0.0);
        assert!(report
            .records
            .iter()
            .all(|r| r.processor == ProcessorKind::Gpu));
    }

    #[test]
    fn gpu_parallel_fraction_beats_cpu_for_big_parallel_work() {
        let wf = map_workflow(1, MB, 1e11);
        let cpu = run(&wf, &cfg(ProcessorKind::Cpu)).unwrap();
        let gpu = run(&wf, &cfg(ProcessorKind::Gpu)).unwrap();
        let sp = cpu.metrics.mean_parallel() / gpu.metrics.mean_parallel();
        assert!(sp > 3.0, "expected a clear device speedup, got {sp}");
    }

    #[test]
    fn dependent_tasks_run_sequentially() {
        let mut b = WorkflowBuilder::new();
        let x = b.input("x", MB);
        let y = b.intermediate("y", MB);
        let z = b.intermediate("z", MB);
        b.submit(
            "first",
            compute_cost(1e9),
            &[(x, Direction::In), (y, Direction::Out)],
            false,
        )
        .unwrap();
        b.submit(
            "second",
            compute_cost(1e9),
            &[(y, Direction::In), (z, Direction::Out)],
            false,
        )
        .unwrap();
        let wf = b.build();
        let report = run(&wf, &cfg(ProcessorKind::Cpu)).unwrap();
        let first = &report.records[0];
        let second = &report.records[1];
        assert_eq!(first.task_type, "first");
        assert!(second.start >= first.end, "RAW dependency must serialise");
    }

    #[test]
    fn second_read_of_same_version_hits_cache() {
        // r2 depends on r1 and re-reads x; with one node the re-read is a
        // cache hit (the dependency keeps the reads from racing).
        let mut spec = cluster();
        spec.nodes = 1;
        let mut b = WorkflowBuilder::new();
        let x = b.input("x", MB);
        let y = b.intermediate("y", MB);
        b.submit(
            "r1",
            compute_cost(1e9),
            &[(x, Direction::In), (y, Direction::Out)],
            false,
        )
        .unwrap();
        b.submit(
            "r2",
            compute_cost(1e9),
            &[(x, Direction::In), (y, Direction::In)],
            false,
        )
        .unwrap();
        let wf = b.build();
        let mut c = cfg(ProcessorKind::Cpu);
        c.cluster = spec;
        let report = run(&wf, &c).unwrap();
        let hits: u32 = report.records.iter().map(|r| r.cache_hits).sum();
        let misses: u32 = report.records.iter().map(|r| r.cache_misses).sum();
        // r1 misses x; r2 hits both x (decoded by r1) and y (written here).
        assert_eq!((hits, misses), (2, 1));
        // The all-hits task has zero deser time.
        assert!(report.records.iter().any(|r| r.deser.is_zero()));
    }

    #[test]
    fn gpu_oom_for_oversized_block() {
        let big = 13 * (1u64 << 30); // > 12 GB device memory
        let wf = map_workflow(1, big, 1e9);
        let mut c = cfg(ProcessorKind::Gpu);
        c.cluster.node.ram_bytes = 512 * (1 << 30); // keep host out of the way
        let err = run(&wf, &c).unwrap_err();
        assert!(matches!(err, RunError::GpuOom { .. }), "{err}");
        // The same workflow runs fine on CPUs.
        let mut c2 = cfg(ProcessorKind::Cpu);
        c2.cluster.node.ram_bytes = 512 * (1 << 30);
        assert!(run(&wf, &c2).is_ok());
    }

    #[test]
    fn host_oom_for_oversized_working_set() {
        let wf = map_workflow(1, MB, 1e9);
        let mut c = cfg(ProcessorKind::Cpu);
        c.cluster.node.ram_bytes = MB; // 1 MB of RAM cannot host 2 MB
        let err = run(&wf, &c).unwrap_err();
        assert!(matches!(err, RunError::HostOom { .. }), "{err}");
    }

    #[test]
    fn local_disk_faster_than_shared_for_data_heavy_run() {
        let wf = map_workflow(8, 256 * MB, 1e6);
        let shared = run(&wf, &cfg(ProcessorKind::Cpu)).unwrap();
        let local = run(
            &wf,
            &cfg(ProcessorKind::Cpu).with_storage(StorageArchitecture::LocalDisk),
        )
        .unwrap();
        // The nodes' local disks in parallel beat the NIC-constrained
        // GPFS path for this layout (round-robin block homes).
        assert!(
            local.makespan() < shared.makespan(),
            "local {} vs shared {}",
            local.makespan(),
            shared.makespan()
        );
    }

    #[test]
    fn locality_policy_accumulates_more_sched_overhead() {
        let wf = map_workflow(16, MB, 1e8);
        let fifo = run(&wf, &cfg(ProcessorKind::Cpu)).unwrap();
        let loc = run(
            &wf,
            &cfg(ProcessorKind::Cpu).with_policy(SchedulingPolicy::DataLocality),
        )
        .unwrap();
        assert!(loc.metrics.sched_overhead > fifo.metrics.sched_overhead);
    }

    #[test]
    fn task_parallelism_bounded_by_gpu_count() {
        // tiny(): 2 nodes x 1 GPU. 8 GPU tasks must run in >= 4 waves,
        // while the CPU run (2x4 cores) finishes in one wave.
        let wf = map_workflow(8, MB, 1e10);
        let cpu = run(&wf, &cfg(ProcessorKind::Cpu)).unwrap();
        let gpu = run(&wf, &cfg(ProcessorKind::Gpu)).unwrap();
        let cpu_span = cpu.metrics.levels[0].span;
        let gpu_span = gpu.metrics.levels[0].span;
        // Per-task GPU compute is ~14x faster, but 4 forced waves eat it.
        let per_task_cpu = cpu.metrics.mean_parallel();
        let per_task_gpu = gpu.metrics.mean_parallel();
        assert!(per_task_gpu < per_task_cpu);
        assert!(
            gpu_span > per_task_gpu * 3.9,
            "waves must serialise GPU tasks"
        );
        assert!(
            cpu_span < per_task_cpu * 3.0,
            "CPU run is one wave (plus skew)"
        );
    }

    #[test]
    fn trace_from_telemetry_has_one_parallel_interval_per_task() {
        let wf = map_workflow(2, MB, 1e9);
        let without = run(&wf, &cfg(ProcessorKind::Cpu)).unwrap();
        assert!(without.telemetry.is_empty());
        assert!(Trace::from_telemetry(&without.telemetry).is_empty());
        let with = run(&wf, &cfg(ProcessorKind::Cpu).with_telemetry()).unwrap();
        let trace = Trace::from_telemetry(&with.telemetry);
        assert!(!trace.is_empty());
        // Every completed task shows a parallel-fraction interval.
        let parallel = trace
            .records()
            .iter()
            .filter(|r| r.state == TraceState::ParallelFraction)
            .count();
        assert_eq!(parallel, 2);
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        let wf = map_workflow(12, MB, 1e9);
        let mut c = cfg(ProcessorKind::Cpu);
        c.jitter_sigma = 0.02;
        let a = run(&wf, &c).unwrap();
        let b = run(&wf, &c).unwrap();
        assert_eq!(a.makespan(), b.makespan());
        let c2 = c.clone().with_seed(999);
        let d = run(&wf, &c2).unwrap();
        assert_ne!(
            a.makespan(),
            d.makespan(),
            "different seed, different noise"
        );
    }

    #[test]
    fn sched_overhead_scales_with_task_count() {
        let few = run(&map_workflow(4, MB, 1e8), &cfg(ProcessorKind::Cpu)).unwrap();
        let many = run(&map_workflow(32, MB, 1e8), &cfg(ProcessorKind::Cpu)).unwrap();
        let ratio = many.metrics.sched_overhead / few.metrics.sched_overhead;
        assert!(
            (ratio - 8.0).abs() < 1e-6,
            "one decision per task, got {ratio}"
        );
    }

    #[test]
    fn empty_workflow_completes_immediately() {
        let wf = WorkflowBuilder::new().build();
        let report = run(&wf, &cfg(ProcessorKind::Cpu)).unwrap();
        assert_eq!(report.makespan(), 0.0);
        assert!(report.records.is_empty());
    }
}

#[cfg(test)]
mod thread_tests {
    use super::*;
    use crate::data::Direction;
    use crate::task::CostProfile;
    use crate::workflow::{Workflow, WorkflowBuilder};
    use gpuflow_cluster::KernelWork;

    const MB: u64 = 1 << 20;

    fn map_workflow(n: usize) -> Workflow {
        let mut b = WorkflowBuilder::new();
        let cost = CostProfile::fully_parallel(KernelWork {
            flops: 1e10,
            bytes: 1e8,
            parallelism: 1e9,
        });
        for i in 0..n {
            let x = b.input(format!("x{i}"), MB);
            b.submit("map", cost, &[(x, Direction::In)], false).unwrap();
        }
        b.build()
    }

    fn cfg(threads: usize) -> RunConfig {
        let mut c =
            RunConfig::new(ClusterSpec::tiny(), ProcessorKind::Cpu).with_cpu_threads(threads);
        c.jitter_sigma = 0.0;
        c
    }

    #[test]
    fn thread_speedup_model_is_sublinear() {
        assert_eq!(RunConfig::thread_speedup(1), 1.0);
        assert!(RunConfig::thread_speedup(4) < 4.0);
        assert!(RunConfig::thread_speedup(4) > RunConfig::thread_speedup(2));
    }

    #[test]
    fn single_task_benefits_from_threads() {
        // One task on an idle cluster: intra-task threads are free wins.
        let wf = map_workflow(1);
        let t1 = run(&wf, &cfg(1)).unwrap().makespan();
        let t4 = run(&wf, &cfg(4)).unwrap().makespan();
        assert!(t4 < t1, "threads must accelerate a lone task: {t1} vs {t4}");
    }

    #[test]
    fn saturated_cluster_prefers_one_thread_per_task() {
        // 16 tasks on 8 cores (tiny cluster): oversubscribing threads
        // costs task parallelism and loses overall — the practice the
        // paper's frameworks recommend (§3.3).
        let wf = map_workflow(16);
        let t1 = run(&wf, &cfg(1)).unwrap().makespan();
        let t4 = run(&wf, &cfg(4)).unwrap().makespan();
        assert!(
            t1 < t4,
            "under task abundance one core per task must win: {t1} vs {t4}"
        );
    }

    #[test]
    fn bad_noise_and_cache_configs_fail_fast() {
        let wf = map_workflow(1);
        let mut c = cfg(1);
        c.jitter_sigma = 1.5;
        assert!(matches!(run(&wf, &c), Err(RunError::InvalidConfig(_))));
        let mut c = cfg(1);
        c.cache_fraction = -0.1;
        assert!(matches!(run(&wf, &c), Err(RunError::InvalidConfig(_))));
    }

    #[test]
    fn oversized_thread_counts_fail_fast() {
        let wf = map_workflow(1);
        // tiny() nodes have 4 cores; 8 threads per task cannot ever fit.
        let err = run(&wf, &cfg(8)).unwrap_err();
        assert!(matches!(err, RunError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn threads_never_used_by_gpu_or_serial_tasks() {
        let mut b = WorkflowBuilder::new();
        let x = b.input("x", MB);
        let serial = CostProfile::serial_only(KernelWork {
            flops: 1e8,
            bytes: 1e6,
            parallelism: 1.0,
        });
        b.submit("serial", serial, &[(x, Direction::In)], false)
            .unwrap();
        let wf = b.build();
        // With 4-thread config a serial task still holds one core: eight
        // such workflows' worth of slots remain on a 4-core node.
        let mut c = cfg(4);
        c.cluster.nodes = 1;
        let report = run(&wf, &c).unwrap();
        assert_eq!(report.records.len(), 1);
        // GPU mode: device tasks keep one host core regardless of config.
        let wfg = map_workflow(2);
        let cg = RunConfig::new(ClusterSpec::tiny(), ProcessorKind::Gpu).with_cpu_threads(4);
        assert!(run(&wfg, &cg).is_ok());
    }
}

#[cfg(test)]
mod critical_path_tests {
    use super::*;
    use crate::data::Direction;
    use crate::task::CostProfile;
    use crate::workflow::WorkflowBuilder;
    use gpuflow_cluster::KernelWork;

    /// A 3-task heavy chain competes with light filler tasks on two
    /// cores. Generation order starts the fillers (lower ids) and delays
    /// the chain — which is the critical path — while the CP policy
    /// starts the chain immediately and hides the fillers behind it.
    fn contended_workflow() -> Workflow {
        let mut b = WorkflowBuilder::new();
        let heavy = CostProfile::fully_parallel(KernelWork {
            flops: 3e10,
            bytes: 1e6,
            parallelism: 1e9,
        });
        let light = CostProfile::fully_parallel(KernelWork {
            flops: 1e10,
            bytes: 1e6,
            parallelism: 1e9,
        });
        // Fillers submitted FIRST (generation-order bait).
        for i in 0..3 {
            let s = b.input(format!("s{i}"), 1 << 20);
            b.submit("filler", light, &[(s, Direction::In)], false)
                .unwrap();
        }
        // The chain.
        let x = b.input("x", 1 << 20);
        let mut prev = x;
        for i in 0..3 {
            let out = b.intermediate(format!("c{i}"), 1 << 20);
            b.submit(
                "chain",
                heavy,
                &[(prev, Direction::In), (out, Direction::Out)],
                false,
            )
            .unwrap();
            prev = out;
        }
        b.build()
    }

    fn two_core_cluster() -> ClusterSpec {
        let mut c = ClusterSpec::tiny();
        c.nodes = 1;
        c.node.cpu_cores = 2;
        c.node.gpus = 1;
        c
    }

    #[test]
    fn upward_rank_prioritises_the_chain() {
        let wf = contended_workflow();
        let mut cfg = RunConfig::new(two_core_cluster(), ProcessorKind::Cpu)
            .with_policy(SchedulingPolicy::CriticalPath);
        cfg.jitter_sigma = 0.0;
        let cp = run(&wf, &cfg).unwrap();
        let fifo_cfg = {
            let mut c = cfg.clone();
            c.policy = SchedulingPolicy::GenerationOrder;
            c
        };
        let fifo = run(&wf, &fifo_cfg).unwrap();
        // FIFO fills both cores with fillers before the chain can start;
        // CP starts the critical path at t=0 and hides the fillers on the
        // second core.
        assert!(
            cp.makespan() < fifo.makespan() * 0.95,
            "critical-path should beat FIFO here: {} vs {}",
            cp.makespan(),
            fifo.makespan()
        );
        // First dispatched task under CP is the chain head, not a filler.
        let first_cp = cp.records.iter().min_by_key(|r| r.start).unwrap();
        assert_eq!(first_cp.task_type, "chain");
    }

    #[test]
    fn critical_path_completes_all_workload_shapes() {
        let wf = contended_workflow();
        for proc in ProcessorKind::ALL {
            let cfg = RunConfig::new(ClusterSpec::tiny(), proc)
                .with_policy(SchedulingPolicy::CriticalPath);
            let report = run(&wf, &cfg).unwrap();
            assert_eq!(report.records.len(), wf.tasks().len());
        }
    }
}

#[cfg(test)]
mod heterogeneous_tests {
    use super::*;
    use crate::data::Direction;
    use crate::task::CostProfile;
    use crate::workflow::{Workflow, WorkflowBuilder};
    use gpuflow_cluster::{KernelWork, NodeResources};

    fn gpu_heavy_workflow(n: usize) -> Workflow {
        let mut b = WorkflowBuilder::new();
        let cost = CostProfile::fully_parallel(KernelWork {
            flops: 1e11,
            bytes: 1e8,
            parallelism: 1e9,
        });
        for i in 0..n {
            let x = b.input(format!("x{i}"), 1 << 20);
            b.submit("work", cost, &[(x, Direction::In)], false)
                .unwrap();
        }
        b.build()
    }

    #[test]
    fn gpu_tasks_avoid_gpu_less_nodes() {
        // Node 0 has no GPUs; every GPU task must land on node 1.
        let cluster = ClusterSpec::tiny().with_overrides(vec![
            NodeResources {
                cpu_cores: 4,
                gpus: 0,
            },
            NodeResources {
                cpu_cores: 4,
                gpus: 2,
            },
        ]);
        let wf = gpu_heavy_workflow(6);
        let report = run(&wf, &RunConfig::new(cluster.clone(), ProcessorKind::Gpu)).unwrap();
        assert!(report.records.iter().all(|r| r.node == 1));
        report.check_invariants(&wf, &cluster).unwrap();
    }

    #[test]
    fn cpu_runs_use_all_heterogeneous_cores() {
        let cluster = ClusterSpec::tiny().with_overrides(vec![
            NodeResources {
                cpu_cores: 6,
                gpus: 0,
            },
            NodeResources {
                cpu_cores: 2,
                gpus: 2,
            },
        ]);
        let wf = gpu_heavy_workflow(8);
        let report = run(&wf, &RunConfig::new(cluster.clone(), ProcessorKind::Cpu)).unwrap();
        report.check_invariants(&wf, &cluster).unwrap();
        // Both nodes participated and node 0 hosted more tasks.
        let on_node = |n: usize| report.records.iter().filter(|r| r.node == n).count();
        assert!(on_node(0) > on_node(1), "{} vs {}", on_node(0), on_node(1));
        assert!(on_node(1) > 0);
    }

    #[test]
    fn denser_gpu_nodes_pay_more_pcie_contention() {
        // Same 8 GPUs total: spread over 8 nodes (1 per bus) vs packed
        // into 2 nodes (4 per bus). Transfer-heavy tasks finish sooner
        // when every device has its own PCIe bus.
        let mut spread = ClusterSpec::minotauro();
        spread.node.gpus = 1;
        let packed = ClusterSpec::minotauro().with_overrides(
            (0..8)
                .map(|n| NodeResources {
                    cpu_cores: 16,
                    gpus: if n < 2 { 4 } else { 0 },
                })
                .collect(),
        );
        // Transfer-dominated GPU tasks: big bytes, modest flops.
        let mut b = WorkflowBuilder::new();
        let cost = CostProfile::fully_parallel(KernelWork {
            flops: 1e9,
            bytes: 1e9,
            parallelism: 1e9,
        });
        for i in 0..8 {
            let x = b.input(format!("x{i}"), 1 << 30);
            b.submit("xfer", cost, &[(x, Direction::In)], false)
                .unwrap();
        }
        let wf = b.build();
        let t_spread = run(&wf, &RunConfig::new(spread, ProcessorKind::Gpu))
            .unwrap()
            .makespan();
        let t_packed = run(&wf, &RunConfig::new(packed, ProcessorKind::Gpu))
            .unwrap()
            .makespan();
        assert!(
            t_spread < t_packed,
            "dedicated buses must win: spread {t_spread} vs packed {t_packed}"
        );
    }
}

#[cfg(test)]
mod chaos_tests {
    use super::*;
    use crate::data::Direction;
    use crate::task::CostProfile;
    use crate::workflow::WorkflowBuilder;
    use gpuflow_cluster::KernelWork;

    const MB: u64 = 1 << 20;

    fn compute_cost(flops: f64) -> CostProfile {
        CostProfile::fully_parallel(KernelWork {
            flops,
            bytes: flops / 10.0,
            parallelism: 1e9,
        })
    }

    /// A three-stage pipeline over `width` independent chains; plenty of
    /// intermediates to lose in a crash.
    fn pipeline(width: usize) -> Workflow {
        let mut b = WorkflowBuilder::new();
        for i in 0..width {
            let x = b.input(format!("x{i}"), MB);
            let a = b.intermediate(format!("a{i}"), MB);
            let c = b.intermediate(format!("c{i}"), MB);
            b.submit(
                "stage0",
                compute_cost(1e9),
                &[(x, Direction::In), (a, Direction::Out)],
                false,
            )
            .unwrap();
            b.submit(
                "stage1",
                compute_cost(1e9),
                &[(a, Direction::In), (c, Direction::Out)],
                false,
            )
            .unwrap();
        }
        b.build()
    }

    fn base_cfg() -> RunConfig {
        let mut c = RunConfig::new(ClusterSpec::tiny(), ProcessorKind::Cpu);
        c.jitter_sigma = 0.0;
        c.storage = StorageArchitecture::LocalDisk;
        c
    }

    #[test]
    fn empty_plan_is_a_pure_observer() {
        let wf = pipeline(6);
        let plain = run(&wf, &base_cfg().with_telemetry()).unwrap();
        let observed = run(
            &wf,
            &base_cfg().with_telemetry().with_faults(FaultPlan::new(7)),
        )
        .unwrap();
        assert_eq!(plain.telemetry.to_jsonl(), observed.telemetry.to_jsonl());
        assert_eq!(plain.makespan(), observed.makespan());
        assert_eq!(plain.output_fingerprint, observed.output_fingerprint);
        assert_eq!(observed.recovery, RecoveryStats::default());
    }

    #[test]
    fn transient_failures_retry_and_converge() {
        let wf = pipeline(6);
        let baseline = run(&wf, &base_cfg()).unwrap();
        let plan = FaultPlan::new(42).with_task_failures(None, 0.3);
        let faulted = run(&wf, &base_cfg().with_faults(plan)).unwrap();
        assert!(faulted.recovery.transient_failures > 0, "p=0.3 must bite");
        assert_eq!(
            faulted.recovery.retries,
            faulted.recovery.transient_failures
        );
        assert_eq!(faulted.output_fingerprint, baseline.output_fingerprint);
        assert!(faulted.makespan() > baseline.makespan());
        faulted.check_invariants(&wf, &ClusterSpec::tiny()).unwrap();
    }

    #[test]
    fn retry_budget_exhaustion_is_a_typed_error() {
        let wf = pipeline(2);
        let plan = FaultPlan::new(1).with_task_failures(Some("stage0"), 0.9999);
        match run(&wf, &base_cfg().with_faults(plan)) {
            Err(RunError::TaskFailed {
                task_type,
                attempts,
            }) => {
                assert_eq!(task_type, "stage0");
                assert_eq!(attempts, RecoveryPolicy::default().max_retries + 1);
            }
            other => panic!("expected TaskFailed, got {other:?}"),
        }
    }

    #[test]
    fn transient_node_crash_recovers_with_same_fingerprint() {
        let wf = pipeline(8);
        let baseline = run(&wf, &base_cfg()).unwrap();
        // Crash node 0 mid-run, long before the fault-free makespan
        // ends, and bring it back shortly after.
        let at = baseline.makespan() * 0.4;
        let plan = FaultPlan::new(3).with_node_crash(0, at, Some(at));
        let faulted = run(&wf, &base_cfg().with_telemetry().with_faults(plan)).unwrap();
        assert_eq!(faulted.output_fingerprint, baseline.output_fingerprint);
        assert!(
            faulted.recovery.blocks_invalidated > 0,
            "the crash must cost something: {:?}",
            faulted.recovery
        );
        faulted.check_invariants(&wf, &ClusterSpec::tiny()).unwrap();
        let jsonl = faulted.telemetry.to_jsonl();
        assert!(jsonl.contains("\"ev\":\"node-down\""));
        assert!(jsonl.contains("\"ev\":\"node-up\""));
    }

    #[test]
    fn permanent_crash_of_every_node_is_unrecoverable() {
        let wf = pipeline(4);
        let plan = FaultPlan::new(5)
            .with_node_crash(0, 1e-4, None)
            .with_node_crash(1, 1e-4, None);
        match run(&wf, &base_cfg().with_faults(plan)) {
            Err(RunError::Unrecoverable { completed, total }) => {
                assert!(completed < total);
            }
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
    }

    #[test]
    fn gpu_failure_degrades_to_cpu_only_when_allowed() {
        let wf = pipeline(4);
        let mut cfg = base_cfg();
        cfg.processor = ProcessorKind::Gpu;
        let baseline = run(&wf, &cfg).unwrap();
        // Kill the single GPU on both tiny-cluster nodes immediately.
        let plan = FaultPlan::new(9)
            .with_gpu_failure(0, 0.0)
            .with_gpu_failure(1, 0.0);
        let strict = run(&wf, &cfg.clone().with_faults(plan.clone()));
        assert!(
            matches!(strict, Err(RunError::Unrecoverable { .. })),
            "no fallback, no devices, no progress: {strict:?}"
        );
        let fallback = RecoveryPolicy {
            gpu_to_cpu_fallback: true,
            ..RecoveryPolicy::default()
        };
        let degraded = run(&wf, &cfg.with_faults(plan).with_recovery(fallback)).unwrap();
        assert!(degraded.recovery.gpu_fallbacks > 0);
        assert_eq!(degraded.output_fingerprint, baseline.output_fingerprint);
        assert!(
            degraded
                .records
                .iter()
                .all(|r| r.processor == ProcessorKind::Cpu),
            "every recorded attempt ran on a core"
        );
    }

    #[test]
    fn straggler_and_link_degradation_slow_the_run() {
        let wf = pipeline(6);
        let baseline = run(&wf, &base_cfg()).unwrap();
        let horizon = baseline.makespan() * 10.0;
        let slow = FaultPlan::new(11)
            .with_straggler(0, 0.0, horizon, 4.0)
            .with_straggler(1, 0.0, horizon, 4.0)
            .with_link_degradation(0.0, horizon, 3.0);
        let slowed = run(&wf, &base_cfg().with_faults(slow)).unwrap();
        assert!(
            slowed.makespan() > baseline.makespan() * 2.0,
            "4x compute + 3x links must dominate: {} vs {}",
            slowed.makespan(),
            baseline.makespan()
        );
        assert_eq!(slowed.output_fingerprint, baseline.output_fingerprint);
    }

    #[test]
    fn faulted_runs_reproduce_bit_for_bit() {
        let wf = pipeline(8);
        let plan = FaultPlan::new(21)
            .with_node_crash(1, 0.02, Some(0.05))
            .with_task_failures(None, 0.15);
        let cfg = base_cfg().with_telemetry().with_faults(plan);
        let a = run(&wf, &cfg).unwrap();
        let b = run(&wf, &cfg).unwrap();
        assert_eq!(a.telemetry.to_jsonl(), b.telemetry.to_jsonl());
        assert_eq!(a.makespan(), b.makespan());
        assert_eq!(a.recovery, b.recovery);
        assert_eq!(a.output_fingerprint, b.output_fingerprint);
    }
}
