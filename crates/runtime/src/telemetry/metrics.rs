//! Prometheus-format metrics over the telemetry stream.
//!
//! The EventBus gives one linear, deterministic event stream per run;
//! this module folds that stream into a **metrics registry** — the
//! pull-based observability surface production schedulers expose — and
//! renders it in the Prometheus *text exposition format* with zero
//! external dependencies:
//!
//! * **counters** — tasks ready/dispatched/completed (per type),
//!   failures, retries, resubmissions, faults, cache hits/misses/
//!   evictions, per-link transfer counts and bytes, scheduler
//!   decisions and modelled overhead;
//! * **gauges** — ready-set depth, running tasks, per-node busy
//!   cores/GPUs/RAM/liveness, the virtual clock;
//! * **fixed-bucket histograms** — per-type task latency (dispatch to
//!   completion), with Prometheus cumulative `le` buckets.
//!
//! Between snapshots the registry also *samples itself* into a
//! virtual-time series at a configurable interval, so a finished run
//! yields metrics-over-time without any wall-clock involvement.
//!
//! Determinism contract: every number is derived from integer-ns event
//! times and integer counts, families render in fixed (BTreeMap or
//! declaration) order, and seconds are formatted as exact `ns/1e9`
//! fixed-point strings — so the exposition text is byte-identical for
//! identical runs at any `--threads` count, whether folded live
//! ([`MetricsHub`] attached to the bus) or replayed from a log
//! ([`MetricsRegistry::from_log`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use fxhash::FxHashMap;
use gpuflow_sim::SimDuration;

use super::alert::{AlertEngine, AlertRule, AlertSnapshot};
use super::event::{LinkKind, TelemetryEvent};
use super::TelemetryLog;

/// Default self-sampling interval of the virtual-time series: 10 ms of
/// simulated time.
pub const DEFAULT_SAMPLE_INTERVAL: SimDuration = SimDuration::from_nanos(10_000_000);

/// Upper bounds (nanoseconds) of the finite task-latency buckets; the
/// `+Inf` bucket is implicit. Spans 1 ms to 10 s — the range simulated
/// task durations occupy across the paper's workloads and the stress
/// shapes.
const LATENCY_BOUNDS_NS: [u64; 13] = [
    1_000_000,
    2_500_000,
    5_000_000,
    10_000_000,
    25_000_000,
    50_000_000,
    100_000_000,
    250_000_000,
    500_000_000,
    1_000_000_000,
    2_500_000_000,
    5_000_000_000,
    10_000_000_000,
];

/// `le` label of each finite bucket, pre-rendered so the exposition
/// never formats a float.
const LATENCY_LE_LABELS: [&str; 13] = [
    "0.001", "0.0025", "0.005", "0.01", "0.025", "0.05", "0.1", "0.25", "0.5", "1", "2.5", "5",
    "10",
];

/// A fixed-bucket histogram in the Prometheus style: per-bucket counts
/// (non-cumulative internally; rendered cumulatively), an exact
/// integer-ns sum, and the observation count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BucketHistogram {
    /// One slot per finite bound plus the overflow (`+Inf`) slot.
    counts: [u64; LATENCY_BOUNDS_NS.len() + 1],
    /// Sum of observed values, integer nanoseconds.
    sum_ns: u64,
    /// Total observations.
    count: u64,
}

impl BucketHistogram {
    /// Records one observation of `ns` nanoseconds.
    pub fn observe_ns(&mut self, ns: u64) {
        let slot = LATENCY_BOUNDS_NS
            .iter()
            .position(|&b| ns <= b)
            .unwrap_or(LATENCY_BOUNDS_NS.len());
        self.counts[slot] += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.count += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations, integer nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Per-bucket (non-cumulative) counts, overflow slot last.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Upper bound (integer ns) of the smallest bucket whose cumulative
    /// count reaches `ceil(count·num/den)` — the bucketed quantile
    /// estimate alert rules use. Returns `None` on an empty histogram
    /// and `Some(u64::MAX)` when only the `+Inf` slot reaches the rank.
    pub fn quantile_bound_ns(&self, num: u64, den: u64) -> Option<u64> {
        if self.count == 0 || den == 0 {
            return None;
        }
        let rank = (self.count.saturating_mul(num)).div_ceil(den).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(LATENCY_BOUNDS_NS.get(i).copied().unwrap_or(u64::MAX));
            }
        }
        Some(u64::MAX)
    }
}

/// Per-link transfer counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LinkCounters {
    transfers: u64,
    bytes: u64,
}

/// Per-tenant accounting of the multi-tenant daemon path: admission
/// counters fed by the daemon's journal and task counters attributed by
/// task-id range (see [`MetricsRegistry::begin_epoch`]). Families
/// render in declaration (daemon-config) order, so the exposition
/// stays byte-identical for identical runs.
#[derive(Debug, Clone, Default, PartialEq)]
struct TenantMetrics {
    name: String,
    weight: u32,
    /// Jobs admitted but not yet finished (gauge, set by the daemon).
    queued: u64,
    admitted: u64,
    cancelled: u64,
    /// Typed rejects, keyed by reason label.
    rejected: BTreeMap<String, u64>,
    completed_tasks: u64,
    latency: BucketHistogram,
}

/// Sampled per-node occupancy, tracked from `NodeGauge` and
/// `NodeDown`/`NodeUp` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NodeState {
    busy_cores: u64,
    busy_gpus: u64,
    ram_used: u64,
    up: bool,
}

impl Default for NodeState {
    fn default() -> Self {
        NodeState {
            busy_cores: 0,
            busy_gpus: 0,
            ram_used: 0,
            up: true,
        }
    }
}

/// One row of the virtual-time series: the registry's cluster-wide
/// state at a sampling instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SampleRow {
    /// Sampling instant, integer nanoseconds of virtual time.
    pub t_ns: u64,
    /// Ready-set depth.
    pub ready: u64,
    /// Running tasks.
    pub running: u64,
    /// Busy host cores, summed over nodes.
    pub busy_cores: u64,
    /// Busy GPU devices, summed over nodes.
    pub busy_gpus: u64,
    /// Resident working-set bytes, summed over nodes.
    pub ram_used: u64,
    /// Cumulative completed tasks.
    pub completed: u64,
    /// Cumulative cache hits.
    pub cache_hits: u64,
    /// Cumulative cache misses.
    pub cache_misses: u64,
    /// Cumulative transfer bytes over every modelled link.
    pub transfer_bytes: u64,
}

/// The metrics registry: counters, gauges, and fixed-bucket histograms
/// folded incrementally from [`TelemetryEvent`]s, plus the self-sampled
/// virtual-time series. See the module docs for the determinism
/// contract.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    interval_ns: u64,
    /// Monotonic virtual clock: the maximum primary event time seen.
    /// Fault-plan announcements carry *future* timestamps at stream
    /// start and deliberately do not advance it.
    clock_ns: u64,
    next_sample_ns: u64,
    sealed: bool,
    // Gauges.
    ready_tasks: u64,
    running_tasks: u64,
    nodes: Vec<NodeState>,
    // High-water marks (for the summary).
    max_queue_depth: u64,
    peak_running: u64,
    // Counters.
    ready_total: u64,
    decisions_total: u64,
    dispatched_total: u64,
    failed_total: u64,
    retries_total: u64,
    resubmissions_total: u64,
    faults_total: u64,
    node_downs_total: u64,
    node_ups_total: u64,
    invalidated_blocks_total: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    /// Indexed by [`link_index`]: read, write, h2d, d2h.
    links: [LinkCounters; 4],
    sched_overhead_ns: u64,
    completed_by_type: BTreeMap<String, u64>,
    latency_by_type: BTreeMap<String, BucketHistogram>,
    /// Dispatch instant and task type of each running attempt; entries
    /// are only inserted and removed by key, never iterated, so the
    /// hash order cannot reach any output.
    inflight: FxHashMap<u32, (u64, String)>,
    samples: Vec<SampleRow>,
    // Multi-tenant daemon state (empty outside the daemon path, which
    // keeps the exposition byte-identical to the single-run format).
    /// Virtual-time offset added to every event time, so one registry
    /// can concatenate the epochs of a daemon's successive drains onto
    /// one monotonic clock (see [`MetricsRegistry::begin_epoch`]).
    offset_ns: u64,
    /// Per-tenant accounting, in declaration order.
    tenants: Vec<TenantMetrics>,
    /// `(task_lo, task_hi, tenant)` of the current epoch, sorted —
    /// completion events are attributed to tenants by binary search.
    tenant_ranges: Vec<(u32, u32, usize)>,
    /// Ready→dispatch queue residency per attempt; folded always (it is
    /// cheap), exposed only while the alert engine is enabled so the
    /// pre-alerting exposition stays byte-identical.
    queue_wait: BucketHistogram,
    /// Ready instants of tasks not yet dispatched; insert/remove by key
    /// only, never iterated, so hash order cannot reach any output.
    pending_ready: FxHashMap<u32, u64>,
    /// SLO rule evaluator, stepped at every sealed sample boundary.
    alerts: Option<AlertEngine>,
}

/// Declaration-order index of a link label in [`MetricsRegistry::links`].
fn link_index(link: LinkKind) -> usize {
    match link {
        LinkKind::StorageRead => 0,
        LinkKind::StorageWrite => 1,
        LinkKind::HostToDevice => 2,
        LinkKind::DeviceToHost => 3,
    }
}

/// Label of each [`MetricsRegistry::links`] slot, in slot order.
const LINK_LABELS: [&str; 4] = ["read", "write", "h2d", "d2h"];

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new(DEFAULT_SAMPLE_INTERVAL)
    }
}

impl MetricsRegistry {
    /// An empty registry self-sampling every `interval` of virtual
    /// time. A zero interval disables the series (snapshot-only).
    pub fn new(interval: SimDuration) -> Self {
        let interval_ns = interval.as_nanos();
        MetricsRegistry {
            interval_ns,
            clock_ns: 0,
            next_sample_ns: interval_ns.max(1),
            sealed: false,
            ready_tasks: 0,
            running_tasks: 0,
            nodes: Vec::new(),
            max_queue_depth: 0,
            peak_running: 0,
            ready_total: 0,
            decisions_total: 0,
            dispatched_total: 0,
            failed_total: 0,
            retries_total: 0,
            resubmissions_total: 0,
            faults_total: 0,
            node_downs_total: 0,
            node_ups_total: 0,
            invalidated_blocks_total: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            links: [LinkCounters::default(); 4],
            sched_overhead_ns: 0,
            completed_by_type: BTreeMap::new(),
            latency_by_type: BTreeMap::new(),
            inflight: FxHashMap::default(),
            samples: Vec::new(),
            offset_ns: 0,
            tenants: Vec::new(),
            tenant_ranges: Vec::new(),
            queue_wait: BucketHistogram::default(),
            pending_ready: FxHashMap::default(),
            alerts: None,
        }
    }

    /// Folds a complete telemetry log into a sealed registry.
    pub fn from_log(log: &TelemetryLog, interval: SimDuration) -> Self {
        let mut reg = MetricsRegistry::new(interval);
        for ev in log.events() {
            reg.observe(ev);
        }
        reg.seal();
        reg
    }

    /// The sampling interval, integer nanoseconds (0 = disabled).
    pub fn interval_ns(&self) -> u64 {
        self.interval_ns
    }

    /// The virtual-time series sampled so far.
    pub fn samples(&self) -> &[SampleRow] {
        &self.samples
    }

    /// The per-type latency histograms.
    pub fn latency_histograms(&self) -> &BTreeMap<String, BucketHistogram> {
        &self.latency_by_type
    }

    /// Total completed tasks across types.
    pub fn completed_total(&self) -> u64 {
        self.completed_by_type.values().sum()
    }

    fn ensure_node(&mut self, node: usize) -> &mut NodeState {
        if node >= self.nodes.len() {
            self.nodes.resize(node + 1, NodeState::default());
        }
        &mut self.nodes[node]
    }

    fn push_sample(&mut self, t_ns: u64) {
        self.samples.push(SampleRow {
            t_ns,
            ready: self.ready_tasks,
            running: self.running_tasks,
            busy_cores: self.nodes.iter().map(|n| n.busy_cores).sum(),
            busy_gpus: self.nodes.iter().map(|n| n.busy_gpus).sum(),
            ram_used: self.nodes.iter().map(|n| n.ram_used).sum(),
            completed: self.completed_total(),
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            transfer_bytes: self.links.iter().map(|l| l.bytes).sum(),
        });
    }

    /// Advances the sampling clock to `t_ns`, sealing every sample
    /// boundary the stream has moved past. A boundary's row reflects
    /// every event with time `<= boundary`, because it is only sealed
    /// once a strictly later event arrives.
    ///
    /// The epoch offset is applied here — and only here — so every
    /// other computation (latencies, overheads) works on raw event
    /// times where the offset cancels out of the differences.
    fn advance_clock(&mut self, t_ns: u64) {
        let t_ns = t_ns.saturating_add(self.offset_ns);
        if t_ns <= self.clock_ns {
            return;
        }
        if self.interval_ns > 0 {
            while self.next_sample_ns < t_ns {
                let at = self.next_sample_ns;
                self.push_sample(at);
                self.eval_alerts(at);
                self.next_sample_ns += self.interval_ns;
            }
        }
        self.clock_ns = t_ns;
    }

    /// Seals the series: flushes every boundary up to the clock and
    /// appends the end-state row. Idempotent.
    pub fn seal(&mut self) {
        if self.sealed {
            return;
        }
        self.sealed = true;
        if self.interval_ns > 0 {
            while self.next_sample_ns <= self.clock_ns {
                let at = self.next_sample_ns;
                self.push_sample(at);
                self.eval_alerts(at);
                self.next_sample_ns += self.interval_ns;
            }
        }
        if self.samples.last().map(|s| s.t_ns) != Some(self.clock_ns) {
            self.push_sample(self.clock_ns);
        }
        self.eval_alerts(self.clock_ns);
    }

    /// Enables SLO alerting: `rules` are evaluated at every sealed
    /// sample boundary from here on, and the exposition grows the
    /// queue-wait, recording-rule, and `gpuflow_alert_state` families.
    pub fn enable_alerts(&mut self, rules: Vec<AlertRule>) {
        self.alerts = Some(AlertEngine::new(rules));
    }

    /// The alert engine, when [`enable_alerts`](Self::enable_alerts)
    /// has been called.
    pub fn alerts(&self) -> Option<&AlertEngine> {
        self.alerts.as_ref()
    }

    /// The ready→dispatch queue-wait histogram.
    pub fn queue_wait_histogram(&self) -> &BucketHistogram {
        &self.queue_wait
    }

    /// Steps the alert engine at boundary `at_ns` (absolute virtual
    /// ns). The engine is taken out for the call so it can read the
    /// registry without aliasing; per-boundary idempotence lives in
    /// [`AlertEngine::step`].
    fn eval_alerts(&mut self, at_ns: u64) {
        let Some(mut eng) = self.alerts.take() else {
            return;
        };
        let mut rejects: BTreeMap<String, u64> = BTreeMap::new();
        for t in &self.tenants {
            for (reason, n) in &t.rejected {
                *rejects.entry(reason.clone()).or_insert(0) += n;
            }
        }
        let tenants: Vec<(&str, u64, u64)> = self
            .tenants
            .iter()
            .map(|t| (t.name.as_str(), t.queued, t.completed_tasks))
            .collect();
        eng.step(&AlertSnapshot {
            at_ns,
            queue_wait: &self.queue_wait,
            rejects,
            tenants,
        });
        self.alerts = Some(eng);
    }

    /// Declares the tenant set (daemon config order). Resets any prior
    /// per-tenant accounting; the exposition grows the per-tenant
    /// families from here on.
    pub fn set_tenants(&mut self, tenants: &[(String, u32)]) {
        self.tenants = tenants
            .iter()
            .map(|(name, weight)| TenantMetrics {
                name: name.clone(),
                weight: *weight,
                ..TenantMetrics::default()
            })
            .collect();
    }

    /// Starts a drain epoch: every event observed from here on runs on
    /// an executor clock restarting at zero, and is shifted onto this
    /// registry's monotonic clock by the current offset. `ranges` are
    /// the epoch's `(task_lo, task_hi, tenant)` spans (sorted), used to
    /// attribute completions to tenants.
    pub fn begin_epoch(&mut self, ranges: Vec<(u32, u32, usize)>) {
        self.offset_ns = self.clock_ns;
        self.sealed = false;
        self.tenant_ranges = ranges;
        // Task ids restart from zero each epoch; stale in-flight
        // entries must not leak across.
        self.inflight.clear();
        self.pending_ready.clear();
        // An epoch starts with nothing ready or running; the gauges may
        // hold a stale residue when the previous epoch's final Decision
        // resync preceded late ready insertions. High-water marks
        // (`max_queue_depth`, `peak_running`) deliberately persist —
        // they summarise the whole session, not one epoch.
        self.ready_tasks = 0;
        self.running_tasks = 0;
    }

    /// Counts a job admission for `tenant`.
    pub fn record_job_admitted(&mut self, tenant: usize) {
        if let Some(t) = self.tenants.get_mut(tenant) {
            t.admitted += 1;
        }
    }

    /// Counts a typed job reject for `tenant`.
    pub fn record_job_rejected(&mut self, tenant: usize, reason: &str) {
        if let Some(t) = self.tenants.get_mut(tenant) {
            *t.rejected.entry(reason.to_string()).or_insert(0) += 1;
        }
    }

    /// Counts a job cancellation for `tenant`.
    pub fn record_job_cancelled(&mut self, tenant: usize) {
        if let Some(t) = self.tenants.get_mut(tenant) {
            t.cancelled += 1;
        }
    }

    /// Sets the queued-jobs gauge for `tenant`.
    pub fn set_tenant_queued(&mut self, tenant: usize, queued: u64) {
        if let Some(t) = self.tenants.get_mut(tenant) {
            t.queued = queued;
        }
    }

    /// The tenant owning raw task id `tid` in the current epoch.
    fn tenant_of_task(&self, tid: u32) -> Option<usize> {
        self.tenant_ranges
            .binary_search_by(|&(lo, hi, _)| {
                if hi < tid {
                    std::cmp::Ordering::Less
                } else if lo > tid {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .ok()
            .map(|i| self.tenant_ranges[i].2)
    }

    /// Folds one event into every affected counter, gauge, and
    /// histogram.
    pub fn observe(&mut self, ev: &TelemetryEvent) {
        match ev {
            TelemetryEvent::TaskReady { at, task } => {
                self.advance_clock(at.as_nanos());
                self.ready_total += 1;
                self.ready_tasks += 1;
                self.max_queue_depth = self.max_queue_depth.max(self.ready_tasks);
                self.pending_ready.insert(task.0, at.as_nanos());
            }
            TelemetryEvent::Decision(d) => {
                self.advance_clock(d.at.as_nanos());
                self.decisions_total += 1;
                // The scheduler removes the chosen task from the ready
                // set at decision time; `queue_depth` was sampled just
                // before the removal, so it resynchronises the gauge
                // even when recovery re-inserted tasks silently.
                self.max_queue_depth = self.max_queue_depth.max(d.queue_depth as u64);
                self.ready_tasks = (d.queue_depth as u64).saturating_sub(1);
                self.sched_overhead_ns = self
                    .sched_overhead_ns
                    .saturating_add(d.sim_overhead.as_nanos());
            }
            TelemetryEvent::TaskDispatched {
                at,
                task,
                task_type,
                ..
            } => {
                self.advance_clock(at.as_nanos());
                self.dispatched_total += 1;
                self.running_tasks += 1;
                self.peak_running = self.peak_running.max(self.running_tasks);
                if let Some(ready_ns) = self.pending_ready.remove(&task.0) {
                    self.queue_wait
                        .observe_ns(at.as_nanos().saturating_sub(ready_ns));
                }
                self.inflight
                    .insert(task.0, (at.as_nanos(), task_type.to_string()));
            }
            TelemetryEvent::Stage { t1, .. } => {
                self.advance_clock(t1.as_nanos());
            }
            TelemetryEvent::Transfer {
                link, bytes, t1, ..
            } => {
                self.advance_clock(t1.as_nanos());
                let slot = &mut self.links[link_index(*link)];
                slot.transfers += 1;
                slot.bytes = slot.bytes.saturating_add(*bytes);
            }
            TelemetryEvent::CacheAccess { at, hit, .. } => {
                self.advance_clock(at.as_nanos());
                if *hit {
                    self.cache_hits += 1;
                } else {
                    self.cache_misses += 1;
                }
            }
            TelemetryEvent::CacheEvicted { at, count, .. } => {
                self.advance_clock(at.as_nanos());
                self.cache_evictions += count;
            }
            TelemetryEvent::NodeGauge {
                at,
                node,
                ram_used,
                busy_cores,
                busy_gpus,
            } => {
                self.advance_clock(at.as_nanos());
                let slot = self.ensure_node(*node);
                slot.busy_cores = *busy_cores as u64;
                slot.busy_gpus = *busy_gpus as u64;
                slot.ram_used = *ram_used;
            }
            TelemetryEvent::TaskCompleted { at, task, .. } => {
                self.advance_clock(at.as_nanos());
                self.running_tasks = self.running_tasks.saturating_sub(1);
                let (start_ns, task_type) = self
                    .inflight
                    .remove(&task.0)
                    .unwrap_or((at.as_nanos(), String::from("unknown")));
                let latency = at.as_nanos().saturating_sub(start_ns);
                *self.completed_by_type.entry(task_type.clone()).or_insert(0) += 1;
                self.latency_by_type
                    .entry(task_type)
                    .or_default()
                    .observe_ns(latency);
                if let Some(tix) = self.tenant_of_task(task.0) {
                    if let Some(t) = self.tenants.get_mut(tix) {
                        t.completed_tasks += 1;
                        t.latency.observe_ns(latency);
                    }
                }
            }
            TelemetryEvent::FaultInjected { .. } => {
                // Plan entries are announced up front with their future
                // firing times; counting them must not advance the
                // sampling clock past the real frontier.
                self.faults_total += 1;
            }
            TelemetryEvent::TaskFailed { at, task, .. } => {
                self.advance_clock(at.as_nanos());
                self.failed_total += 1;
                self.running_tasks = self.running_tasks.saturating_sub(1);
                self.inflight.remove(&task.0);
            }
            TelemetryEvent::TaskRetry { at, .. } => {
                self.advance_clock(at.as_nanos());
                self.retries_total += 1;
            }
            TelemetryEvent::TaskResubmitted { at, .. } => {
                self.advance_clock(at.as_nanos());
                self.resubmissions_total += 1;
            }
            TelemetryEvent::NodeDown { at, node } => {
                self.advance_clock(at.as_nanos());
                self.node_downs_total += 1;
                self.ensure_node(*node).up = false;
            }
            TelemetryEvent::NodeUp { at, node } => {
                self.advance_clock(at.as_nanos());
                self.node_ups_total += 1;
                self.ensure_node(*node).up = true;
            }
            TelemetryEvent::BlocksInvalidated {
                at,
                count,
                lost_versions,
                ..
            } => {
                self.advance_clock(at.as_nanos());
                self.invalidated_blocks_total += count + lost_versions;
            }
        }
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (version 0.0.4). Byte-identical for identical runs.
    pub fn expose(&self) -> String {
        let mut o = String::with_capacity(4096);
        gauge(
            &mut o,
            "gpuflow_sim_time_seconds",
            "Virtual time of this snapshot.",
            &fmt_seconds(self.clock_ns),
        );
        gauge(
            &mut o,
            "gpuflow_ready_tasks",
            "Tasks in the ready set.",
            &self.ready_tasks.to_string(),
        );
        gauge(
            &mut o,
            "gpuflow_running_tasks",
            "Tasks holding resources.",
            &self.running_tasks.to_string(),
        );
        self.expose_node_gauges(&mut o);
        counter(
            &mut o,
            "gpuflow_tasks_ready_total",
            "Ready-queue insertions.",
            self.ready_total,
        );
        counter(
            &mut o,
            "gpuflow_scheduler_decisions_total",
            "Master scheduling decisions.",
            self.decisions_total,
        );
        counter(
            &mut o,
            "gpuflow_tasks_dispatched_total",
            "Task attempts dispatched.",
            self.dispatched_total,
        );
        family(
            &mut o,
            "gpuflow_tasks_completed_total",
            "Tasks completed, by task type.",
            "counter",
        );
        for (ty, n) in &self.completed_by_type {
            let _ = writeln!(
                o,
                "gpuflow_tasks_completed_total{{type=\"{}\"}} {n}",
                label_escape(ty)
            );
        }
        counter(
            &mut o,
            "gpuflow_tasks_failed_total",
            "Task attempts lost to faults.",
            self.failed_total,
        );
        counter(
            &mut o,
            "gpuflow_task_retries_total",
            "Retry backoffs scheduled.",
            self.retries_total,
        );
        counter(
            &mut o,
            "gpuflow_task_resubmissions_total",
            "Attempts resubmitted after losing their node or device.",
            self.resubmissions_total,
        );
        counter(
            &mut o,
            "gpuflow_faults_injected_total",
            "Fault-plan entries announced.",
            self.faults_total,
        );
        counter(
            &mut o,
            "gpuflow_node_transitions_down_total",
            "Node quarantine transitions.",
            self.node_downs_total,
        );
        counter(
            &mut o,
            "gpuflow_node_transitions_up_total",
            "Node rejoin transitions.",
            self.node_ups_total,
        );
        counter(
            &mut o,
            "gpuflow_blocks_invalidated_total",
            "Cache entries and block versions destroyed by crashes.",
            self.invalidated_blocks_total,
        );
        counter(
            &mut o,
            "gpuflow_cache_hits_total",
            "Worker cache hits.",
            self.cache_hits,
        );
        counter(
            &mut o,
            "gpuflow_cache_misses_total",
            "Worker cache misses.",
            self.cache_misses,
        );
        counter(
            &mut o,
            "gpuflow_cache_evictions_total",
            "LRU evictions.",
            self.cache_evictions,
        );
        family(
            &mut o,
            "gpuflow_transfers_total",
            "Link flows completed, by link.",
            "counter",
        );
        for (i, slot) in self.links.iter().enumerate() {
            let _ = writeln!(
                o,
                "gpuflow_transfers_total{{link=\"{}\"}} {}",
                LINK_LABELS[i], slot.transfers
            );
        }
        family(
            &mut o,
            "gpuflow_transfer_bytes_total",
            "Payload bytes moved, by link.",
            "counter",
        );
        for (i, slot) in self.links.iter().enumerate() {
            let _ = writeln!(
                o,
                "gpuflow_transfer_bytes_total{{link=\"{}\"}} {}",
                LINK_LABELS[i], slot.bytes
            );
        }
        family(
            &mut o,
            "gpuflow_scheduler_overhead_seconds_total",
            "Modelled master-side decision overhead.",
            "counter",
        );
        let _ = writeln!(
            o,
            "gpuflow_scheduler_overhead_seconds_total {}",
            fmt_seconds(self.sched_overhead_ns)
        );
        counter(
            &mut o,
            "gpuflow_metrics_samples_total",
            "Virtual-time series rows sampled.",
            self.samples.len() as u64,
        );
        family(
            &mut o,
            "gpuflow_task_duration_seconds",
            "Dispatch-to-completion latency, by task type.",
            "histogram",
        );
        for (ty, h) in &self.latency_by_type {
            let ty = label_escape(ty);
            let mut cum = 0u64;
            for (i, &c) in h.counts.iter().enumerate() {
                cum += c;
                let le = LATENCY_LE_LABELS.get(i).copied().unwrap_or("+Inf");
                let _ = writeln!(
                    o,
                    "gpuflow_task_duration_seconds_bucket{{type=\"{ty}\",le=\"{le}\"}} {cum}"
                );
            }
            let _ = writeln!(
                o,
                "gpuflow_task_duration_seconds_sum{{type=\"{ty}\"}} {}",
                fmt_seconds(h.sum_ns)
            );
            let _ = writeln!(
                o,
                "gpuflow_task_duration_seconds_count{{type=\"{ty}\"}} {}",
                h.count
            );
        }
        self.expose_tenants(&mut o);
        self.expose_alerts(&mut o);
        o
    }

    /// The alerting families, appended last and emitted only while an
    /// [`AlertEngine`] is enabled — every pre-alerting exposition (and
    /// its goldens) stays byte-identical.
    fn expose_alerts(&self, o: &mut String) {
        let Some(eng) = &self.alerts else {
            return;
        };
        family(
            o,
            "gpuflow_queue_wait_seconds",
            "Ready-to-dispatch queue residency per task attempt.",
            "histogram",
        );
        let h = &self.queue_wait;
        let mut cum = 0u64;
        for (i, &c) in h.counts.iter().enumerate() {
            cum += c;
            let le = LATENCY_LE_LABELS.get(i).copied().unwrap_or("+Inf");
            let _ = writeln!(o, "gpuflow_queue_wait_seconds_bucket{{le=\"{le}\"}} {cum}");
        }
        let _ = writeln!(
            o,
            "gpuflow_queue_wait_seconds_sum {}",
            fmt_seconds(h.sum_ns)
        );
        let _ = writeln!(o, "gpuflow_queue_wait_seconds_count {}", h.count);
        family(
            o,
            "gpuflow:queue_wait_seconds:p99",
            "Recording rule: bucketed p99 of the queue-wait histogram.",
            "gauge",
        );
        let p99 = match h.quantile_bound_ns(99, 100) {
            None => fmt_seconds(0),
            Some(u64::MAX) => "+Inf".to_string(),
            Some(bound) => fmt_seconds(bound),
        };
        let _ = writeln!(o, "gpuflow:queue_wait_seconds:p99 {p99}");
        eng.expose_state(o);
    }

    /// The per-tenant families of the daemon path, appended after the
    /// single-run families. Emitted only when a tenant set has been
    /// declared, so every pre-daemon exposition (and its goldens) is
    /// byte-identical to before.
    fn expose_tenants(&self, o: &mut String) {
        if self.tenants.is_empty() {
            return;
        }
        family(
            o,
            "gpuflow_tenant_weight",
            "Fair-share weight, per tenant.",
            "gauge",
        );
        for t in &self.tenants {
            let _ = writeln!(
                o,
                "gpuflow_tenant_weight{{tenant=\"{}\"}} {}",
                label_escape(&t.name),
                t.weight
            );
        }
        family(
            o,
            "gpuflow_tenant_queued_jobs",
            "Jobs admitted and not yet finished, per tenant.",
            "gauge",
        );
        for t in &self.tenants {
            let _ = writeln!(
                o,
                "gpuflow_tenant_queued_jobs{{tenant=\"{}\"}} {}",
                label_escape(&t.name),
                t.queued
            );
        }
        family(
            o,
            "gpuflow_tenant_jobs_admitted_total",
            "Jobs accepted into the queue, per tenant.",
            "counter",
        );
        for t in &self.tenants {
            let _ = writeln!(
                o,
                "gpuflow_tenant_jobs_admitted_total{{tenant=\"{}\"}} {}",
                label_escape(&t.name),
                t.admitted
            );
        }
        family(
            o,
            "gpuflow_tenant_jobs_cancelled_total",
            "Queued jobs cancelled before running, per tenant.",
            "counter",
        );
        for t in &self.tenants {
            let _ = writeln!(
                o,
                "gpuflow_tenant_jobs_cancelled_total{{tenant=\"{}\"}} {}",
                label_escape(&t.name),
                t.cancelled
            );
        }
        family(
            o,
            "gpuflow_tenant_jobs_rejected_total",
            "Submissions rejected by admission control, per tenant and reason.",
            "counter",
        );
        for t in &self.tenants {
            for (reason, n) in &t.rejected {
                let _ = writeln!(
                    o,
                    "gpuflow_tenant_jobs_rejected_total{{tenant=\"{}\",reason=\"{}\"}} {n}",
                    label_escape(&t.name),
                    label_escape(reason)
                );
            }
        }
        family(
            o,
            "gpuflow_tenant_tasks_completed_total",
            "Tasks completed, per tenant.",
            "counter",
        );
        for t in &self.tenants {
            let _ = writeln!(
                o,
                "gpuflow_tenant_tasks_completed_total{{tenant=\"{}\"}} {}",
                label_escape(&t.name),
                t.completed_tasks
            );
        }
        family(
            o,
            "gpuflow_tenant_task_duration_seconds",
            "Dispatch-to-completion latency, by tenant.",
            "histogram",
        );
        for t in &self.tenants {
            let name = label_escape(&t.name);
            let h = &t.latency;
            let mut cum = 0u64;
            for (i, &c) in h.counts.iter().enumerate() {
                cum += c;
                let le = LATENCY_LE_LABELS.get(i).copied().unwrap_or("+Inf");
                let _ = writeln!(
                    o,
                    "gpuflow_tenant_task_duration_seconds_bucket{{tenant=\"{name}\",le=\"{le}\"}} {cum}"
                );
            }
            let _ = writeln!(
                o,
                "gpuflow_tenant_task_duration_seconds_sum{{tenant=\"{name}\"}} {}",
                fmt_seconds(h.sum_ns)
            );
            let _ = writeln!(
                o,
                "gpuflow_tenant_task_duration_seconds_count{{tenant=\"{name}\"}} {}",
                h.count
            );
        }
    }

    fn expose_node_gauges(&self, o: &mut String) {
        family(
            o,
            "gpuflow_node_busy_cores",
            "Host cores held by tasks, per node.",
            "gauge",
        );
        for (i, n) in self.nodes.iter().enumerate() {
            let _ = writeln!(
                o,
                "gpuflow_node_busy_cores{{node=\"{i}\"}} {}",
                n.busy_cores
            );
        }
        family(
            o,
            "gpuflow_node_busy_gpus",
            "GPU devices held by tasks, per node.",
            "gauge",
        );
        for (i, n) in self.nodes.iter().enumerate() {
            let _ = writeln!(o, "gpuflow_node_busy_gpus{{node=\"{i}\"}} {}", n.busy_gpus);
        }
        family(
            o,
            "gpuflow_node_ram_bytes",
            "Working-set bytes resident, per node.",
            "gauge",
        );
        for (i, n) in self.nodes.iter().enumerate() {
            let _ = writeln!(o, "gpuflow_node_ram_bytes{{node=\"{i}\"}} {}", n.ram_used);
        }
        family(o, "gpuflow_node_up", "Node liveness (1 = up).", "gauge");
        for (i, n) in self.nodes.iter().enumerate() {
            let _ = writeln!(
                o,
                "gpuflow_node_up{{node=\"{i}\"}} {}",
                if n.up { 1 } else { 0 }
            );
        }
    }

    /// Renders the virtual-time series as a text table (integer-derived
    /// columns only).
    pub fn render_series(&self) -> String {
        let mut o = String::from(
            "time_s        ready  running  busy_cores  busy_gpus  ram_mib  completed  cache_hits  cache_misses  xfer_mib\n",
        );
        for s in &self.samples {
            let _ = writeln!(
                o,
                "{:<13} {:<6} {:<8} {:<11} {:<10} {:<8} {:<10} {:<11} {:<13} {}",
                fmt_seconds(s.t_ns),
                s.ready,
                s.running,
                s.busy_cores,
                s.busy_gpus,
                s.ram_used >> 20,
                s.completed,
                s.cache_hits,
                s.cache_misses,
                s.transfer_bytes >> 20
            );
        }
        o
    }

    /// The `metrics` section of `gpuflow obs summary --json`: a fixed
    /// integer-only object (schema in `tests/schemas/obs_summary.json`).
    pub fn summary_json(&self) -> String {
        let mut o = String::from("{");
        let _ = write!(o, "\"interval_ns\":{}", self.interval_ns);
        let _ = write!(o, ",\"samples\":{}", self.samples.len());
        let _ = write!(o, ",\"max_queue_depth\":{}", self.max_queue_depth);
        let _ = write!(o, ",\"peak_running\":{}", self.peak_running);
        let _ = write!(o, ",\"completed\":{}", self.completed_total());
        let _ = write!(o, ",\"failed\":{}", self.failed_total);
        let _ = write!(o, ",\"retries\":{}", self.retries_total);
        let _ = write!(o, ",\"cache_hits\":{}", self.cache_hits);
        let _ = write!(o, ",\"cache_misses\":{}", self.cache_misses);
        let _ = write!(o, ",\"cache_evictions\":{}", self.cache_evictions);
        let _ = write!(
            o,
            ",\"transfer_bytes\":{}",
            self.links.iter().map(|l| l.bytes).sum::<u64>()
        );
        o.push('}');
        o
    }
}

/// A thread-safe shared handle over a [`MetricsRegistry`] — the live
/// endpoint `gpuflow serve` scrapes while the executor (on another
/// thread) feeds the bus. Cloning shares the underlying registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsHub {
    inner: Arc<Mutex<MetricsRegistry>>,
}

impl MetricsHub {
    /// A hub sampling every `interval` of virtual time.
    pub fn new(interval: SimDuration) -> Self {
        MetricsHub {
            inner: Arc::new(Mutex::new(MetricsRegistry::new(interval))),
        }
    }

    /// Locks the registry, recovering from a poisoned lock (a panicking
    /// simulation thread must not take the metrics endpoint down).
    fn lock(&self) -> std::sync::MutexGuard<'_, MetricsRegistry> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Folds one event (called by the bus on the simulation thread).
    pub fn observe(&self, ev: &TelemetryEvent) {
        self.lock().observe(ev);
    }

    /// Seals the series at the end of the run.
    pub fn finish(&self) {
        self.lock().seal();
    }

    /// The current Prometheus exposition snapshot.
    pub fn expose(&self) -> String {
        self.lock().expose()
    }

    /// The current virtual-time series rendering.
    pub fn render_series(&self) -> String {
        self.lock().render_series()
    }

    /// A deep copy of the registry at this instant.
    pub fn snapshot(&self) -> MetricsRegistry {
        self.lock().clone()
    }

    /// Runs `f` under the registry lock — the daemon's hook for tenant
    /// declarations, admission counters, and epoch boundaries.
    pub fn update<R>(&self, f: impl FnOnce(&mut MetricsRegistry) -> R) -> R {
        f(&mut self.lock())
    }
}

/// Writes the `# HELP` / `# TYPE` preamble of one metric family.
fn family(o: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(o, "# HELP {name} {help}");
    let _ = writeln!(o, "# TYPE {name} {kind}");
}

/// Writes a single-sample gauge family.
fn gauge(o: &mut String, name: &str, help: &str, value: &str) {
    family(o, name, help, "gauge");
    let _ = writeln!(o, "{name} {value}");
}

/// Writes a single-sample counter family.
fn counter(o: &mut String, name: &str, help: &str, value: u64) {
    family(o, name, help, "counter");
    let _ = writeln!(o, "{name} {value}");
}

/// Formats integer nanoseconds as exact decimal seconds (fixed-point,
/// trailing zeros trimmed to at least one fractional digit) — float-free
/// so the exposition is byte-stable.
pub fn fmt_seconds(ns: u64) -> String {
    let secs = ns / 1_000_000_000;
    let frac = ns % 1_000_000_000;
    let mut s = format!("{secs}.{frac:09}");
    while s.ends_with('0') && !s.ends_with(".0") {
        s.pop();
    }
    s
}

/// Escapes a Prometheus label value (backslash, quote, newline).
fn label_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{TaskId, TaskType};
    use gpuflow_sim::SimTime;

    fn ready(t_ns: u64, task: u32) -> TelemetryEvent {
        TelemetryEvent::TaskReady {
            at: SimTime::from_nanos(t_ns),
            task: TaskId(task),
        }
    }

    fn dispatch(t_ns: u64, task: u32, ty: &str) -> TelemetryEvent {
        TelemetryEvent::TaskDispatched {
            at: SimTime::from_nanos(t_ns),
            task: TaskId(task),
            task_type: TaskType::from(ty),
            node: 0,
            core: 0,
            cores: 1,
            gpu: None,
        }
    }

    fn complete(t_ns: u64, task: u32) -> TelemetryEvent {
        TelemetryEvent::TaskCompleted {
            at: SimTime::from_nanos(t_ns),
            task: TaskId(task),
            node: 0,
        }
    }

    #[test]
    fn fixed_point_seconds_are_exact() {
        assert_eq!(fmt_seconds(0), "0.0");
        assert_eq!(fmt_seconds(440_342_880), "0.44034288");
        assert_eq!(fmt_seconds(1_000_000_000), "1.0");
        assert_eq!(fmt_seconds(1_000_000_001), "1.000000001");
    }

    #[test]
    fn histogram_buckets_sum_to_count() {
        let mut h = BucketHistogram::default();
        for ns in [0, 1_000_000, 1_000_001, 9_999_999_999, u64::MAX] {
            h.observe_ns(ns);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), h.count());
        // <= is the bucket rule: exactly 1 ms lands in the 0.001 bucket.
        assert_eq!(h.bucket_counts()[0], 2);
        assert_eq!(h.bucket_counts()[LATENCY_BOUNDS_NS.len()], 1);
    }

    #[test]
    fn latency_is_measured_dispatch_to_completion_per_type() {
        let mut reg = MetricsRegistry::new(SimDuration::ZERO);
        reg.observe(&dispatch(1_000, 0, "map"));
        reg.observe(&dispatch(2_000, 1, "reduce"));
        reg.observe(&complete(2_001_000, 0));
        reg.observe(&complete(5_002_000, 1));
        assert_eq!(reg.completed_total(), 2);
        let map = &reg.latency_histograms()["map"];
        assert_eq!(map.count(), 1);
        assert_eq!(map.sum_ns(), 2_000_000);
        let red = &reg.latency_histograms()["reduce"];
        assert_eq!(red.sum_ns(), 5_000_000);
        assert_eq!(reg.running_tasks, 0);
    }

    #[test]
    fn sampling_seals_interval_boundaries() {
        let mut reg = MetricsRegistry::new(SimDuration::from_nanos(100));
        reg.observe(&ready(0, 0));
        reg.observe(&dispatch(50, 0, "t"));
        // Crossing t=350 seals boundaries 100, 200, 300.
        reg.observe(&complete(350, 0));
        assert_eq!(
            reg.samples().iter().map(|s| s.t_ns).collect::<Vec<_>>(),
            vec![100, 200, 300]
        );
        let s100 = reg.samples()[0];
        assert_eq!(s100.running, 1, "dispatch at 50 visible at t=100");
        assert_eq!(s100.completed, 0);
        reg.seal();
        // Seal appends the end-state row at the clock.
        assert_eq!(reg.samples().last().map(|s| s.t_ns), Some(350));
        assert_eq!(reg.samples().last().map(|s| s.completed), Some(1));
        // Sealing twice changes nothing.
        let n = reg.samples().len();
        reg.seal();
        assert_eq!(reg.samples().len(), n);
    }

    #[test]
    fn fault_announcements_do_not_advance_the_clock() {
        let mut reg = MetricsRegistry::new(SimDuration::from_nanos(100));
        reg.observe(&TelemetryEvent::FaultInjected {
            at: SimTime::from_nanos(10_000),
            node: Some(0),
            what: "straggler",
        });
        assert_eq!(reg.clock_ns, 0);
        assert!(reg.samples().is_empty());
        assert_eq!(reg.faults_total, 1);
    }

    #[test]
    fn exposition_renders_histograms_cumulatively() {
        let mut reg = MetricsRegistry::new(SimDuration::ZERO);
        reg.observe(&dispatch(0, 0, "map"));
        reg.observe(&complete(2_000_000, 0)); // 2 ms -> le 0.0025 bucket
        reg.seal();
        let text = reg.expose();
        assert!(text.contains("gpuflow_task_duration_seconds_bucket{type=\"map\",le=\"0.001\"} 0"));
        assert!(text.contains("gpuflow_task_duration_seconds_bucket{type=\"map\",le=\"0.0025\"} 1"));
        assert!(text.contains("gpuflow_task_duration_seconds_bucket{type=\"map\",le=\"+Inf\"} 1"));
        assert!(text.contains("gpuflow_task_duration_seconds_sum{type=\"map\"} 0.002"));
        assert!(text.contains("gpuflow_task_duration_seconds_count{type=\"map\"} 1"));
        assert!(text.contains("gpuflow_sim_time_seconds 0.002"));
    }

    #[test]
    fn decision_resynchronises_the_ready_gauge() {
        let mut reg = MetricsRegistry::new(SimDuration::ZERO);
        reg.observe(&ready(0, 0));
        reg.observe(&ready(0, 1));
        assert_eq!(reg.ready_tasks, 2);
        reg.observe(&TelemetryEvent::Decision(
            crate::telemetry::SchedulerDecision {
                at: SimTime::from_nanos(10),
                task: TaskId(0),
                chosen: 0,
                queue_depth: 2,
                sim_overhead: SimDuration::from_nanos(500),
                candidates: Vec::new(),
            },
        ));
        assert_eq!(reg.ready_tasks, 1);
        assert_eq!(reg.max_queue_depth, 2);
        assert_eq!(reg.sched_overhead_ns, 500);
    }

    #[test]
    fn hub_is_shared_and_seals_once() {
        let hub = MetricsHub::new(SimDuration::from_nanos(100));
        let clone = hub.clone();
        clone.observe(&ready(0, 0));
        hub.finish();
        assert!(hub.expose().contains("gpuflow_tasks_ready_total 1"));
        assert_eq!(hub.snapshot().samples().len(), 1);
    }

    #[test]
    fn label_escape_handles_specials() {
        assert_eq!(label_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(label_escape("plain"), "plain");
    }

    #[test]
    fn tenant_families_appear_only_with_tenants() {
        let mut reg = MetricsRegistry::new(SimDuration::ZERO);
        reg.observe(&dispatch(0, 0, "map"));
        reg.observe(&complete(2_000_000, 0));
        assert!(!reg.expose().contains("gpuflow_tenant_"));
        reg.set_tenants(&[("acme".into(), 3), ("beta".into(), 1)]);
        reg.record_job_admitted(0);
        reg.record_job_rejected(1, "quota");
        reg.record_job_cancelled(0);
        reg.set_tenant_queued(0, 2);
        let text = reg.expose();
        assert!(text.contains("gpuflow_tenant_weight{tenant=\"acme\"} 3"));
        assert!(text.contains("gpuflow_tenant_queued_jobs{tenant=\"acme\"} 2"));
        assert!(text.contains("gpuflow_tenant_jobs_admitted_total{tenant=\"acme\"} 1"));
        assert!(text.contains("gpuflow_tenant_jobs_cancelled_total{tenant=\"acme\"} 1"));
        assert!(
            text.contains("gpuflow_tenant_jobs_rejected_total{tenant=\"beta\",reason=\"quota\"} 1")
        );
        // No tenant ranges declared: the completion stays unattributed.
        assert!(text.contains("gpuflow_tenant_tasks_completed_total{tenant=\"acme\"} 0"));
    }

    #[test]
    fn epoch_offset_concatenates_runs_onto_one_clock() {
        let mut reg = MetricsRegistry::new(SimDuration::from_nanos(1_000_000));
        reg.set_tenants(&[("acme".into(), 1), ("beta".into(), 2)]);
        // Epoch 1: tasks 0..=1 belong to acme.
        reg.begin_epoch(vec![(0, 1, 0)]);
        reg.observe(&dispatch(0, 0, "map"));
        reg.observe(&complete(2_000_000, 0));
        reg.seal();
        let end1 = reg.clock_ns;
        assert_eq!(end1, 2_000_000);
        // Epoch 2 restarts the executor clock at zero; task 0 now
        // belongs to beta.
        reg.begin_epoch(vec![(0, 3, 1)]);
        reg.observe(&dispatch(1_000_000, 0, "map"));
        reg.observe(&complete(4_000_000, 0));
        reg.seal();
        assert_eq!(
            reg.clock_ns,
            end1 + 4_000_000,
            "epoch 2 shifted by epoch 1's end"
        );
        // Latency math uses raw times, so the offset cancels.
        let text = reg.expose();
        assert!(text.contains("gpuflow_tenant_tasks_completed_total{tenant=\"acme\"} 1"));
        assert!(text.contains("gpuflow_tenant_tasks_completed_total{tenant=\"beta\"} 1"));
        assert!(text.contains("gpuflow_tenant_task_duration_seconds_sum{tenant=\"beta\"} 0.003"));
        // Series rows are strictly monotonic across epochs.
        assert!(reg.samples().windows(2).all(|w| w[0].t_ns < w[1].t_ns));
    }

    #[test]
    fn gauges_reset_but_high_water_marks_persist_across_epochs() {
        let mut reg = MetricsRegistry::new(SimDuration::from_nanos(1_000_000));
        reg.set_tenants(&[("acme".into(), 1)]);
        // Epoch 1 ends with a stale residue: two tasks became ready but
        // only one was dispatched and completed (no Decision events, so
        // nothing resynchronised the ready gauge downward).
        reg.begin_epoch(vec![(0, 9, 0)]);
        reg.observe(&ready(0, 0));
        reg.observe(&ready(0, 1));
        reg.observe(&dispatch(10, 0, "map"));
        reg.observe(&complete(2_000_000, 0));
        reg.seal();
        assert_eq!(reg.ready_tasks, 2, "stale residue by construction");
        assert_eq!(reg.max_queue_depth, 2);
        assert_eq!(reg.peak_running, 1);
        // Epoch 2 must start from zero — no carry-over into its samples.
        reg.begin_epoch(vec![(0, 9, 0)]);
        assert_eq!(reg.ready_tasks, 0, "queued gauge carried stale value");
        assert_eq!(reg.running_tasks, 0, "running gauge carried stale value");
        reg.observe(&ready(0, 0));
        reg.observe(&dispatch(10, 0, "map"));
        reg.observe(&complete(3_000_000, 0));
        reg.seal();
        let epoch2: Vec<_> = reg
            .samples()
            .iter()
            .filter(|s| s.t_ns > 2_000_000)
            .collect();
        assert!(!epoch2.is_empty());
        assert!(
            epoch2.iter().all(|s| s.ready <= 1),
            "epoch 2 samples must not double-count epoch 1 residue"
        );
        // Session-level high-water marks survive the epoch boundary
        // (no double-reset): the session max is still 2.
        assert_eq!(reg.max_queue_depth, 2);
        assert_eq!(reg.peak_running, 1);
    }

    #[test]
    fn queue_wait_histogram_folds_ready_to_dispatch() {
        let mut reg = MetricsRegistry::new(SimDuration::ZERO);
        reg.observe(&ready(0, 0));
        reg.observe(&dispatch(2_000_000, 0, "map"));
        reg.observe(&ready(1_000_000, 1));
        reg.observe(&dispatch(1_500_000, 1, "map"));
        let h = reg.queue_wait_histogram();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum_ns(), 2_500_000);
    }

    #[test]
    fn alert_families_appear_only_when_enabled() {
        let mut reg = MetricsRegistry::new(SimDuration::from_nanos(1_000_000));
        reg.observe(&ready(0, 0));
        reg.observe(&dispatch(10, 0, "map"));
        reg.observe(&complete(2_000_000, 0));
        reg.seal();
        let plain = reg.expose();
        assert!(!plain.contains("gpuflow_alert_state"));
        assert!(!plain.contains("gpuflow_queue_wait_seconds"));
        assert!(!plain.contains("gpuflow:queue_wait_seconds:p99"));

        let mut reg = MetricsRegistry::new(SimDuration::from_nanos(1_000_000));
        reg.enable_alerts(AlertRule::standard());
        reg.observe(&ready(0, 0));
        reg.observe(&dispatch(10, 0, "map"));
        reg.observe(&complete(2_000_000, 0));
        reg.seal();
        let text = reg.expose();
        assert!(text.contains("# TYPE gpuflow_queue_wait_seconds histogram"));
        assert!(text.contains("# TYPE gpuflow:queue_wait_seconds:p99 gauge"));
        assert!(text.contains(
            "gpuflow_alert_state{alert=\"queue_wait_p99\",severity=\"warning\",subject=\"global\"} 0"
        ));
    }

    #[test]
    fn alert_timeline_fires_deterministically_on_queue_pressure() {
        let run = || {
            let mut reg = MetricsRegistry::new(SimDuration::from_nanos(10_000_000));
            reg.enable_alerts(AlertRule::standard());
            // 60 ms queue wait > the 50 ms threshold; boundaries every
            // 10 ms step the engine into pending then firing.
            reg.observe(&ready(0, 0));
            reg.observe(&dispatch(60_000_000, 0, "map"));
            reg.observe(&complete(200_000_000, 0));
            reg.seal();
            reg.alerts().unwrap().render_timeline()
        };
        let a = run();
        assert_eq!(a, run(), "timeline must be deterministic");
        assert!(
            a.contains("alert=queue_wait_p99 subject=global state=pending"),
            "{a}"
        );
        assert!(
            a.contains("alert=queue_wait_p99 subject=global state=firing"),
            "{a}"
        );
    }
}
