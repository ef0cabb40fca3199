//! `telemetry_bundle`: a stencil DAG run with telemetry on, then folded
//! into the full analysis bundle (metrics + exposition, span forest +
//! collapsed stacks, overhead report, run profile, Chrome trace).

use std::time::Duration;

use gpuflow_experiments::stress::{self, Shape};
use gpuflow_runtime::{
    run, to_chrome_trace, to_collapsed, MetricsRegistry, OverheadReport, RunConfig, RunProfile,
    SpanForest, TelemetryEvent, Workflow,
};
use gpuflow_sim::SimDuration;

use crate::stats::{host_clock, Tally};
use crate::trace::Tracer;
use crate::{Env, Workload};

/// Stencil tasks per run: large enough that the folds dominate their
/// fixed cost, small enough that the Chrome trace stays in the tens of
/// MiB.
pub const TASKS: usize = 40_000;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Metrics sampling interval of the exposition fold (virtual time).
const INTERVAL: SimDuration = SimDuration::from_millis(10);

/// Run-to-run jitter amplitude; the jitter seed comes from `--seed`.
const JITTER_SIGMA: f64 = 0.02;

pub struct TelemetryBundle {
    wf: Workflow,
    cfg: RunConfig,
}

pub fn setup(env: &Env, tr: &mut Tracer, tally: &mut Tally) -> TelemetryBundle {
    let mut cfg = stress::stress_config().with_seed(env.seed);
    cfg.jitter_sigma = JITTER_SIGMA;
    let mut wf = None;
    for _ in 0..SETUP_REPS {
        drop(wf.take());
        let op = tr.begin_op("setup");
        let t0 = host_clock();
        let span = tr.begin("experiments", "stencil");
        wf = Some(stress::build(Shape::Stencil, TASKS));
        tr.end(span);
        tally.setup_s.push(t0.elapsed().as_secs_f64());
        tr.end(op);
    }
    TelemetryBundle {
        wf: wf.expect("at least one set-up repetition"),
        cfg,
    }
}

/// Times `f` inside a span, returning its result and host time.
fn timed<T>(
    tr: &mut Tracer,
    layer: &'static str,
    name: &str,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let span = tr.begin(layer, name);
    let t = host_clock();
    let out = f();
    let took = t.elapsed();
    tr.end(span);
    (out, took)
}

/// The bundle's structural checks: the traced run reproduces the
/// untraced fingerprint, the span forest covers every task, and the
/// exposition passes the Prometheus text-format checker.
pub fn check(
    untraced_fp: u64,
    traced_fp: u64,
    tasks: usize,
    forest_tasks: usize,
    exposition: &str,
) -> Result<(), String> {
    if untraced_fp != traced_fp {
        return Err(format!(
            "traced fingerprint {traced_fp:#x} != untraced {untraced_fp:#x}"
        ));
    }
    if forest_tasks != tasks {
        return Err(format!(
            "span forest covers {forest_tasks} of {tasks} tasks"
        ));
    }
    gpuflow_lint::promtext::check(exposition)
        .map(|_| ())
        .map_err(|e| format!("exposition: {e}"))
}

impl Workload for TelemetryBundle {
    fn pass(&mut self, tr: &mut Tracer, tally: &mut Tally) {
        let n = self.wf.tasks().len() as f64;
        let op = tr.begin_op("bundle_pass");
        let (plain, plain_t) = timed(tr, "runtime", "run", || run(&self.wf, &self.cfg));
        let traced_cfg = self.cfg.clone().with_telemetry();
        let (traced, traced_t) = timed(tr, "runtime", "run_traced", || run(&self.wf, &traced_cfg));
        let (plain, traced) = match (plain, traced) {
            (Ok(p), Ok(t)) => (p, t),
            (p, t) => {
                tr.end(op);
                tally.op(false, || {
                    format!("run failed: {:?} / {:?}", p.err(), t.err())
                });
                return;
            }
        };
        tally.op(true, String::new);
        let log = &traced.telemetry;
        let makespan = traced.makespan();
        let (registry, metrics_t) = timed(tr, "telemetry", "metrics_fold", || {
            MetricsRegistry::from_log(log, INTERVAL)
        });
        let (exposition, expose_t) = timed(tr, "telemetry", "expose", || registry.expose());
        let (forest, span_t) = timed(tr, "telemetry", "span_fold", || {
            SpanForest::from_telemetry(&self.wf, log)
        });
        let (collapsed, collapsed_t) =
            timed(tr, "telemetry", "collapsed", || to_collapsed(&forest));
        let (overhead, overhead_t) = timed(tr, "telemetry", "overhead_fold", || {
            OverheadReport::from_log(log, makespan)
        });
        let (profile, profile_t) = timed(tr, "telemetry", "profile_fold", || {
            RunProfile::from_telemetry("bundle", &self.wf, log, makespan)
        });
        let (chrome, chrome_t) = timed(tr, "telemetry", "chrome", || to_chrome_trace(log));
        let verdict = check(
            plain.output_fingerprint,
            traced.output_fingerprint,
            self.wf.tasks().len(),
            forest.len(),
            &exposition,
        )
        .and_then(|()| profile.map(|_| ()))
        .and_then(|()| {
            if collapsed.is_empty() || overhead.makespan_ns == 0 {
                Err("empty collapsed stacks or overhead report".to_string())
            } else {
                Ok(())
            }
        });
        tally.op(verdict.is_ok(), || verdict.clone().unwrap_err());
        tr.end(op);

        let folds = [
            ("metrics_fold", metrics_t),
            ("span_fold", span_t),
            ("overhead_fold", overhead_t),
            ("profile_fold", profile_t),
            ("chrome", chrome_t),
            ("collapsed", collapsed_t),
        ];
        let bundle: Duration = folds.iter().map(|(_, t)| *t).sum::<Duration>() + expose_t;
        let per_task = |d: Duration| d.as_secs_f64() * 1e9 / n;
        tally.pass_ms.push((traced_t + bundle).as_secs_f64() * 1e3);
        tally.sample("traced_ns_per_task", per_task(traced_t));
        tally.sample("bundle_ns_per_task", per_task(bundle));
        tally.sample(
            "telemetry.emit_ns_per_task",
            per_task(traced_t) - per_task(plain_t),
        );
        tally.sample("telemetry.events_per_task", log.len() as f64 / n);
        let decisions = log
            .events()
            .iter()
            .filter(|e| matches!(e, TelemetryEvent::Decision(_)))
            .count();
        tally.sample("scheduler.decisions_per_task", decisions as f64 / n);
        for (name, t) in folds {
            tally.sample(&format!("telemetry.{name}_ns_per_task"), per_task(t));
        }
        tally.sample("telemetry.expose_us", expose_t.as_secs_f64() * 1e6);
        tally.sample("telemetry.chrome_bytes_per_task", chrome.len() as f64 / n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXPOSITION: &str = "# HELP x_total A counter.\n# TYPE x_total counter\nx_total 1\n";

    #[test]
    fn check_rejects_wrong_fingerprint_coverage_or_exposition() {
        assert!(check(7, 7, 3, 3, EXPOSITION).is_ok());
        assert!(check(7, 8, 3, 3, EXPOSITION).is_err());
        assert!(check(7, 7, 3, 2, EXPOSITION).is_err());
        assert!(check(7, 7, 3, 3, "x_total{ 1\n").is_err());
    }
}
