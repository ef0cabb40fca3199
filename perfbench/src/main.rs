//! The gpuflow benchmark: three workloads and a daemon session, each
//! timed from outside through the public API of the layer it drives,
//! with every output checked.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --daemon-bin PATH --out-dir DIR
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run.
//! `--trace 1` prints the per-layer metrics: the named workload runs a
//! quarter of the time untraced and a quarter traced (their difference
//! is the tracing overhead), then every other workload and one
//! `gpuflowd` session run traced, so each layer reports its self time.
//! The last line of standard output is one JSON object;
//! `perfbench/run.py` builds the binaries, runs this binary and checks
//! that line against `BENCHMARK.json`.

mod alloc;
mod bundle;
mod calib;
mod daemon;
mod grid;
mod stats;
mod storm;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use stats::{host_clock, median, vm_hwm_mb, Tally};
use trace::{Tracer, LAYERS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Inputs every workload may use.
pub struct Env {
    /// Workload seed (`--seed`).
    pub seed: u64,
    /// Worker threads for experiment sweeps.
    pub threads: usize,
    /// The `gpuflowd` binary.
    pub daemon_bin: PathBuf,
    /// Where journals and span dumps go.
    pub out_dir: PathBuf,
}

/// One workload: set up by its module's `setup`, then driven in passes.
pub trait Workload {
    /// One timed pass; pushes its host time to `tally.pass_ms`.
    fn pass(&mut self, tr: &mut Tracer, tally: &mut Tally);
    /// Passes that make one complete unit of the workload.
    fn passes_per_unit(&self) -> usize {
        1
    }
    /// Closes what is open and flushes end-of-measurement samples.
    fn end_measurement(&mut self, _tr: &mut Tracer, _tally: &mut Tally) {}
}

/// The measured workloads.
const WORKLOADS: [&str; 3] = ["paper_grid", "dag_storm", "telemetry_bundle"];

/// Runs only in the traced sweep: its timings drift with the host more
/// than the end-to-end bounds allow (see README.md).
const DAEMON: &str = "daemon_session";

fn setup(name: &str, env: &Env, tr: &mut Tracer, tally: &mut Tally) -> Box<dyn Workload> {
    match name {
        "paper_grid" => Box::new(grid::setup(env, tr, tally)),
        "dag_storm" => Box::new(storm::setup(env, tr, tally)),
        "telemetry_bundle" => Box::new(bundle::setup(env, tr, tally)),
        "daemon_session" => Box::new(daemon::setup(env, tr, tally)),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Runs passes until `budget` has elapsed, and at least `min` of them,
/// timing the reference kernel between passes about once a
/// [`calib::INTERVAL`].
fn measure_passes(
    w: &mut dyn Workload,
    budget: Duration,
    min: usize,
    tr: &mut Tracer,
    tally: &mut Tally,
) {
    let start = host_clock();
    let mut last_ref: Option<Instant> = None;
    let mut n = 0;
    while n < min || start.elapsed() < budget {
        w.pass(tr, tally);
        n += 1;
        if last_ref.is_none_or(|t| t.elapsed() >= calib::INTERVAL) {
            tally.ref_ms.push(calib::reference_ms());
            last_ref = Some(host_clock());
        }
    }
    w.end_measurement(tr, tally);
}

/// End-to-end metrics, printed by `--trace 0`.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("pass_ms", "ms"),
];

/// Per-layer metrics sampled by the workloads, printed by `--trace 1`
/// together with `self_ms.<layer>` and the tracing figures.
const PER_LAYER: [(&str, &str); 53] = [
    ("grid_s", "s"),
    ("experiments.table1_ms", "ms"),
    ("experiments.fig1_ms", "ms"),
    ("experiments.fig6_ms", "ms"),
    ("experiments.fig7a_ms", "ms"),
    ("experiments.fig7b_ms", "ms"),
    ("experiments.fig8_ms", "ms"),
    ("experiments.fig9a_ms", "ms"),
    ("experiments.fig9b_ms", "ms"),
    ("experiments.fig10a_ms", "ms"),
    ("experiments.fig10b_ms", "ms"),
    ("experiments.fig11_ms", "ms"),
    ("experiments.fig12_ms", "ms"),
    ("experiments.sensitivity_ms", "ms"),
    ("experiments.generalizability_ms", "ms"),
    ("experiments.prediction_ms", "ms"),
    ("experiments.memory_ms", "ms"),
    ("experiments.ablation_ms", "ms"),
    ("wide_ns_per_task", "ns"),
    ("stencil_ns_per_task", "ns"),
    ("tree_ns_per_task", "ns"),
    ("workflow.build_ns_per_task", "ns"),
    ("executor.allocs_per_task", "count"),
    ("executor.alloc_bytes_per_task", "B"),
    ("cache.hit_ratio.stencil", "ratio"),
    ("cache.hit_ratio.tree", "ratio"),
    ("sim.makespan_s.wide", "s"),
    ("sim.makespan_s.stencil", "s"),
    ("sim.makespan_s.tree", "s"),
    ("traced_ns_per_task", "ns"),
    ("bundle_ns_per_task", "ns"),
    ("telemetry.emit_ns_per_task", "ns"),
    ("telemetry.events_per_task", "count"),
    ("scheduler.decisions_per_task", "count"),
    ("telemetry.metrics_fold_ns_per_task", "ns"),
    ("telemetry.span_fold_ns_per_task", "ns"),
    ("telemetry.overhead_fold_ns_per_task", "ns"),
    ("telemetry.profile_fold_ns_per_task", "ns"),
    ("telemetry.chrome_ns_per_task", "ns"),
    ("telemetry.collapsed_ns_per_task", "ns"),
    ("telemetry.expose_us", "us"),
    ("telemetry.chrome_bytes_per_task", "B"),
    ("submit_p50_us", "us"),
    ("submit_p99_us", "us"),
    ("query_p50_us", "us"),
    ("drain_p50_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("daemon.write_bytes_per_submit", "B"),
    ("daemon.journal_bytes", "B"),
    ("daemon.drain_tasks", "count"),
    ("daemon.epoch_makespan_s", "s"),
    ("daemon.replay_ms", "ms"),
    ("daemon.peak_rss_mb", "MB"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    daemon_bin: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} wants a value"))
    };
    let workload = value("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} wants a non-negative integer"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace is 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
        daemon_bin: value("--daemon-bin")?.into(),
        out_dir: value("--out-dir")?.into(),
    })
}

/// Renders the result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
fn result_json(tally: &Tally, metrics: &[(String, f64, &str)]) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        assert!(
            value.is_finite(),
            "metric {name} has no finite value ({value})"
        );
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        tally.failed == 0 && tally.problems.is_empty(),
        tally.attempted,
        tally.failed
    )
}

fn end_to_end(args: &Args, env: &Env) -> (Tally, Vec<(String, f64, &'static str)>) {
    let mut tr = Tracer::new(false);
    let mut tally = Tally::default();
    for _ in 0..calib::WARM_RUNS {
        tally.ref_ms.push(calib::reference_ms());
    }
    let mut w = setup(&args.workload, env, &mut tr, &mut tally);
    measure_passes(
        w.as_mut(),
        Duration::from_secs(args.seconds),
        1,
        &mut tr,
        &mut tally,
    );
    drop(w);
    let speed = calib::NOMINAL_MS / median(&tally.ref_ms);
    let rss = vm_hwm_mb("self").unwrap_or(f64::NAN);
    let ok = (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64;
    let values = [
        median(&tally.setup_s) * speed,
        ok,
        rss,
        median(&tally.pass_ms) * speed,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), v, unit))
        .collect();
    (tally, metrics)
}

fn per_layer(args: &Args, env: &Env) -> (Tally, Vec<(String, f64, &'static str)>) {
    let mut tr = Tracer::new(true);
    let mut counts = Tally::default();
    let mut traced = Tally::default();
    let mut untraced = Tally::default();
    // A quarter of the run untraced and a quarter traced leaves the other
    // half for the sweep, so a traced run lasts about as long as an
    // untraced one.
    let quarter = Duration::from_secs(args.seconds).div_f64(4.0);
    let mut w = setup(&args.workload, env, &mut tr, &mut traced);
    tr.set_enabled(false);
    measure_passes(w.as_mut(), quarter, 1, &mut tr, &mut untraced);
    tr.set_enabled(true);
    let unit = w.passes_per_unit();
    measure_passes(w.as_mut(), quarter, unit, &mut tr, &mut traced);
    drop(w);
    let overhead_pct = (median(&traced.pass_ms) / median(&untraced.pass_ms) - 1.0) * 100.0;
    let mut refs = std::mem::take(&mut untraced.ref_ms);
    refs.append(&mut traced.ref_ms);
    let mut layer = std::mem::take(&mut traced.layer);
    counts.absorb_counts(untraced);
    counts.absorb_counts(traced);
    for other in WORKLOADS
        .iter()
        .chain([&DAEMON])
        .filter(|w| **w != args.workload)
    {
        let mut t = Tally::default();
        let mut x = setup(other, env, &mut tr, &mut t);
        let unit = x.passes_per_unit();
        measure_passes(x.as_mut(), Duration::ZERO, unit, &mut tr, &mut t);
        layer.append(&mut t.layer);
        counts.absorb_counts(t);
    }

    let mut metrics: Vec<(String, f64, &str)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = layer.get(name).map_or(f64::NAN, |s| median(s));
            (name.to_string(), v, unit)
        })
        .collect();
    let self_ns = tr.self_ns_by_layer();
    let ops = tr.ops_by_layer();
    for l in LAYERS {
        let per_op =
            self_ns.get(l).copied().unwrap_or(0) as f64 / ops.get(l).copied().unwrap_or(0) as f64;
        metrics.push((format!("self_ms.{l}"), per_op / 1e6, "ms"));
    }
    metrics.push(("trace.overhead_pct".into(), overhead_pct, "%"));
    metrics.push(("host.reference_ms".into(), median(&refs), "ms"));
    metrics.push(("trace.spans".into(), tr.len() as f64, "count"));
    let path = env
        .out_dir
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    if let Err(e) = std::fs::write(&path, tr.to_jsonl()) {
        counts
            .problems
            .push(format!("cannot write {}: {e}", path.display()));
    }
    (counts, metrics)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        std::process::exit(2);
    }
    let env = Env {
        seed: args.seed,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get().min(2)),
        daemon_bin: args.daemon_bin.clone(),
        out_dir: args.out_dir.clone(),
    };
    let (tally, metrics) = if args.trace {
        per_layer(&args, &env)
    } else {
        end_to_end(&args, &env)
    };
    for p in &tally.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    println!("{}", result_json(&tally, &metrics));
}
