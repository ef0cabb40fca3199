//! Causal span-trace artifact (`repro spans`).
//!
//! The chaos replay scenario of [`crate::replay`] exercised through the
//! span-tracing subsystem: the run's telemetry is folded into a
//! [`SpanForest`] (per-task queue-wait → input-fetch → compute →
//! writeback phase trees with causal parent edges and critical-path
//! marking), aggregated into a collapsed-stack flame graph, filtered by
//! the deterministic [`SpanSampler`], and evaluated against the
//! standard SLO alert rules — all in integer virtual time, so every
//! section of the artifact is byte-identical at any `--threads` count.
//!
//! `--stress` swaps the scenario for a [`crate::stress`] DAG
//! (10⁶ tasks by default) and asserts the sampler's documented size
//! bound plus 100% critical-path retention — the property that makes
//! head sampling safe at fleet scale.

use std::fmt::Write as _;

use gpuflow_cluster::{ClusterSpec, ProcessorKind, StorageArchitecture};
use gpuflow_runtime::jobs::build_jobs;
use gpuflow_runtime::{
    to_collapsed, AlertRule, MetricsRegistry, RunConfig, SampleStats, SchedulingPolicy, SpanForest,
    SpanSampler,
};
use gpuflow_sim::SimDuration;

use crate::replay::{self, ReplaySpec};
use crate::stress;

/// Head-sampling rate (ppm) of the pinned artifact: keep ~25% of task
/// trees by the head rule, on top of the two always-keep rules.
pub const DEFAULT_RATE_PPM: u64 = 250_000;

/// Sampler seed of the pinned artifact.
pub const DEFAULT_SAMPLER_SEED: u64 = 0x5EED;

/// Everything one span-trace run produces.
#[derive(Debug, Clone)]
pub struct SpansReport {
    /// The replay scenario parameters.
    pub spec: ReplaySpec,
    /// Head-sampling rate, parts per million.
    pub rate_ppm: u64,
    /// Sampler seed.
    pub sampler_seed: u64,
    /// The full (unsampled) span forest.
    pub forest: SpanForest,
    /// The sampled sub-forest.
    pub sampled: SpanForest,
    /// Per-rule sampler statistics.
    pub stats: SampleStats,
    /// The documented worst-case kept-size bound for this forest.
    pub bound: usize,
    /// The folded metrics registry with the standard alert rules.
    pub metrics: MetricsRegistry,
    /// Virtual makespan, seconds.
    pub makespan: f64,
    /// Output fingerprint of the run (lineage hash).
    pub fingerprint: u64,
}

/// Runs the chaos replay scenario and folds its telemetry into spans,
/// flame weights, sampler statistics, and the alert timeline.
pub fn run(spec: &ReplaySpec, rate_ppm: u64, sampler_seed: u64) -> SpansReport {
    let jobs = replay::generate(spec);
    let (workflow, built) = build_jobs(&jobs);
    let mut arrivals = Vec::new();
    let mut ranges: Vec<(u32, u32, usize)> = Vec::with_capacity(built.len());
    for (job, b) in jobs.iter().zip(&built) {
        for &t in &b.roots {
            arrivals.push((t, job.arrival_secs));
        }
        ranges.push((b.task_lo, b.task_hi, job.tenant));
    }
    ranges.sort_unstable();
    let mut cfg = RunConfig::new(ClusterSpec::minotauro(), ProcessorKind::Gpu)
        .with_storage(StorageArchitecture::SharedDisk)
        .with_policy(SchedulingPolicy::GenerationOrder)
        .with_seed(spec.seed)
        .with_arrivals(arrivals)
        .with_telemetry();
    cfg.jitter_sigma = 0.0;
    if spec.chaos {
        cfg = cfg.with_faults(replay::fault_plan(spec));
    }
    let report = gpuflow_runtime::run(&workflow, &cfg).expect("spans scenario must complete");

    let forest = SpanForest::from_telemetry(&workflow, &report.telemetry);
    let sampler = SpanSampler::new(sampler_seed, rate_ppm);
    let (sampled, stats) = sampler.sample(&forest);
    let mut type_sizes: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for t in &forest.tasks {
        *type_sizes.entry(t.task_type.as_str()).or_insert(0) += 1;
    }
    let sizes: Vec<usize> = type_sizes.values().copied().collect();
    let critical = forest.tasks.iter().filter(|t| t.on_critical_path).count();
    let bound = sampler.hard_bound(forest.len(), critical, &sizes);

    // Fold the same log into a registry with the standard SLO rules so
    // the alert timeline rides the identical virtual clock.
    let tenants: Vec<(String, u32)> = (0..spec.tenants.max(1))
        .map(|t| (format!("tenant-{t}"), (spec.tenants.max(1) - t) as u32))
        .collect();
    let mut metrics = MetricsRegistry::new(SimDuration::from_secs_f64(spec.interval_secs));
    metrics.set_tenants(&tenants);
    metrics.begin_epoch(ranges);
    metrics.enable_alerts(AlertRule::standard());
    for ev in report.telemetry.events() {
        metrics.observe(ev);
    }
    metrics.seal();

    SpansReport {
        spec: spec.clone(),
        rate_ppm,
        sampler_seed,
        forest,
        sampled,
        stats,
        bound,
        metrics,
        makespan: report.makespan(),
        fingerprint: report.output_fingerprint,
    }
}

impl SpansReport {
    /// The collapsed-stack flame rendering of the full forest (the
    /// text `gpuflow_lint::collapsed::check` validates).
    pub fn collapsed(&self) -> String {
        to_collapsed(&self.forest)
    }

    /// The golden-pinned artifact: scenario header, collapsed flame
    /// graph, span summary JSON, sampler coverage, and the alert
    /// timeline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "spans scenario: seed {:#x}, {} jobs, {} tenants, horizon {:.2} s, chaos {}",
            self.spec.seed,
            self.spec.jobs,
            self.spec.tenants,
            self.spec.horizon_secs,
            if self.spec.chaos { "on" } else { "off" },
        );
        let _ = writeln!(
            out,
            "trace: {} tasks   {} spans   makespan: {:.9} s   fingerprint: {:#018x}",
            self.forest.len(),
            self.forest.span_count(),
            self.makespan,
            self.fingerprint
        );
        out.push_str("\n-- flame (collapsed stacks, virtual-ns weights) --\n");
        out.push_str(&to_collapsed(&self.forest));
        out.push_str("\n-- span summary --\n");
        out.push_str(&self.forest.summary_json());
        out.push_str("\n\n-- sampler --\n");
        let _ = writeln!(
            out,
            "rate_ppm={} seed={:#x} total={} kept={} head={} critical={} outliers={} bound={}",
            self.rate_ppm,
            self.sampler_seed,
            self.stats.total,
            self.stats.kept,
            self.stats.head,
            self.stats.critical,
            self.stats.outliers,
            self.bound
        );
        let _ = writeln!(
            out,
            "sampled: {} tasks   {} spans",
            self.sampled.len(),
            self.sampled.span_count()
        );
        out.push_str("\n-- alert timeline --\n");
        match self.metrics.alerts() {
            Some(eng) if !eng.timeline().is_empty() => out.push_str(&eng.render_timeline()),
            _ => out.push_str("(no transitions)\n"),
        }
        out
    }
}

/// Result of the `--stress` bound check on one shape.
#[derive(Debug, Clone)]
pub struct StressVerdict {
    /// DAG shape label.
    pub shape: &'static str,
    /// Tasks in the unsampled forest.
    pub total: usize,
    /// Tasks surviving sampling.
    pub kept: usize,
    /// The documented worst-case bound.
    pub bound: usize,
    /// Critical-path tasks in the full forest.
    pub critical: usize,
    /// Critical-path tasks surviving in the sampled forest.
    pub critical_kept: usize,
}

impl StressVerdict {
    /// True when the sampled trace honours both guarantees.
    pub fn passed(&self) -> bool {
        self.kept <= self.bound && self.critical_kept == self.critical
    }
}

/// Builds a stress DAG of `tasks` tasks, runs it with telemetry, and
/// checks the sampled trace against the documented size bound and the
/// 100% critical-path retention guarantee.
pub fn run_stress(shape: stress::Shape, tasks: usize, rate_ppm: u64, seed: u64) -> StressVerdict {
    let wf = stress::build(shape, tasks);
    let cfg = stress::stress_config().with_telemetry();
    let report = gpuflow_runtime::run(&wf, &cfg).expect("stress DAG must complete");
    let forest = SpanForest::from_telemetry(&wf, &report.telemetry);
    let sampler = SpanSampler::new(seed, rate_ppm);
    let (sampled, stats) = sampler.sample(&forest);
    let mut type_sizes: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for t in &forest.tasks {
        *type_sizes.entry(t.task_type.as_str()).or_insert(0) += 1;
    }
    let sizes: Vec<usize> = type_sizes.values().copied().collect();
    let critical = stats.critical;
    let critical_kept = sampled.tasks.iter().filter(|t| t.on_critical_path).count();
    StressVerdict {
        shape: shape.label(),
        total: stats.total,
        kept: stats.kept,
        bound: sampler.hard_bound(forest.len(), critical, &sizes),
        critical,
        critical_kept,
    }
}

/// Renders one stress verdict line.
pub fn render_stress(v: &StressVerdict) -> String {
    format!(
        "shape={} total={} kept={} bound={} critical={} critical_kept={} -> {}",
        v.shape,
        v.total,
        v.kept,
        v.bound,
        v.critical,
        v.critical_kept,
        if v.passed() { "PASS" } else { "FAIL" }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> ReplaySpec {
        ReplaySpec {
            jobs: 6,
            chaos: true,
            ..ReplaySpec::default()
        }
    }

    #[test]
    fn spans_run_is_bit_reproducible() {
        let spec = small_spec();
        let a = run(&spec, DEFAULT_RATE_PPM, DEFAULT_SAMPLER_SEED);
        let b = run(&spec, DEFAULT_RATE_PPM, DEFAULT_SAMPLER_SEED);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.forest.to_otlp_json(), b.forest.to_otlp_json());
    }

    #[test]
    fn artifact_contains_every_section() {
        let text = run(&small_spec(), DEFAULT_RATE_PPM, DEFAULT_SAMPLER_SEED).render();
        for section in [
            "-- flame (collapsed stacks, virtual-ns weights) --",
            "-- span summary --",
            "-- sampler --",
            "-- alert timeline --",
        ] {
            assert!(text.contains(section), "missing {section}:\n{text}");
        }
        assert!(text.contains("gpuflow;"), "flame lines missing");
        assert!(text.contains("\"phase_ns\""), "summary JSON missing");
    }

    #[test]
    fn sampled_trace_respects_bound_and_keeps_critical_path() {
        let r = run(&small_spec(), 50_000, DEFAULT_SAMPLER_SEED);
        assert!(r.stats.kept <= r.bound, "{} > {}", r.stats.kept, r.bound);
        let critical_kept = r
            .sampled
            .tasks
            .iter()
            .filter(|t| t.on_critical_path)
            .count();
        assert_eq!(critical_kept, r.stats.critical, "critical span dropped");
    }

    #[test]
    fn stress_check_passes_at_small_scale() {
        let v = run_stress(stress::Shape::Wide, 2_000, 10_000, DEFAULT_SAMPLER_SEED);
        assert!(v.passed(), "{}", render_stress(&v));
        assert!(v.total >= 2_000);
    }
}
