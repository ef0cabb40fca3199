//! Golden-file pin of the Chrome `trace_event` export, the run profile
//! text and the overhead partition.
//!
//! Perfetto and `chrome://tracing` parse the exact document, and the
//! profile text is a committed baseline format, so all three are pinned
//! byte for byte on two deterministic runs:
//!
//! * a small stencil on GPUs, whose boundary task type carries a quote
//!   and a backslash so the JSON escaping shows in the golden file;
//! * a chaos run (node crash with rejoin, GPU failure, transient
//!   failures with retries) that emits every event variant the exporter
//!   renders. Its Chrome document is exported from the stream with one
//!   task's dispatch events dropped, as a filtered stream would be, so
//!   the `t{id}` fallback name is pinned too.
//!
//! Regenerate after an intentional change with:
//! `GOLDEN_REGEN=1 cargo test -p gpuflow-runtime --test chrome_golden`

use gpuflow_cluster::{ClusterSpec, KernelWork, ProcessorKind, StorageArchitecture};
use gpuflow_runtime::{
    run, to_chrome_trace, CostProfile, Direction, FaultPlan, OverheadReport, RecoveryPolicy,
    RunConfig, RunProfile, RunReport, TelemetryEvent, TelemetryLog, Workflow, WorkflowBuilder,
};

const MB: u64 = 1 << 20;

/// Boundary tasks of the stencil; the name needs JSON escaping.
const EDGE: &str = "edge \"halo\" \\ cell";

fn cost(flops: f64) -> CostProfile {
    CostProfile::fully_parallel(KernelWork {
        flops,
        bytes: flops / 10.0,
        parallelism: 1e9,
    })
}

/// A 1-D three-point stencil: `width` cells over `steps` steps. Cell
/// `i` of step `s` reads cells `i-1..=i+1` of step `s-1`.
fn stencil(width: usize, steps: usize) -> Workflow {
    let mut b = WorkflowBuilder::new();
    let mut prev: Vec<_> = (0..width).map(|i| b.input(format!("x{i}"), MB)).collect();
    for s in 0..steps {
        let next: Vec<_> = (0..width)
            .map(|i| b.intermediate(format!("c{s}_{i}"), MB))
            .collect();
        for (i, &out) in next.iter().enumerate() {
            let lo = i.saturating_sub(1);
            let hi = (i + 1).min(width - 1);
            let mut params: Vec<_> = prev[lo..=hi].iter().map(|&x| (x, Direction::In)).collect();
            params.push((out, Direction::Out));
            let ty = if i == 0 || i + 1 == width {
                EDGE
            } else {
                "cell"
            };
            b.submit(ty, cost(1e9 + (i as f64) * 1e8), &params, false)
                .expect("stencil task");
        }
        prev = next;
    }
    b.build()
}

fn golden_compare(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert!(
        actual == expected,
        "{name} drifted from its golden file; if the change is deliberate, \
         regenerate with GOLDEN_REGEN=1"
    );
}

fn gpu_config() -> RunConfig {
    let mut cfg = RunConfig::new(ClusterSpec::tiny(), ProcessorKind::Gpu).with_telemetry();
    cfg.jitter_sigma = 0.0;
    cfg
}

fn stencil_run() -> (Workflow, RunReport) {
    let wf = stencil(6, 4);
    let report = run(&wf, &gpu_config()).expect("stencil runs");
    (wf, report)
}

fn chaos_run() -> (Workflow, RunReport) {
    let wf = stencil(6, 6);
    let base = gpu_config().with_storage(StorageArchitecture::LocalDisk);
    let clean = run(&wf, &base).expect("fault-free run");
    let m = clean.makespan();
    let plan = FaultPlan::new(17)
        .with_node_crash(0, m * 0.3, Some(m * 0.1))
        .with_gpu_failure(1, m * 0.6)
        .with_task_failures(Some("cell"), 0.2);
    let recovery = RecoveryPolicy {
        gpu_to_cpu_fallback: true,
        ..RecoveryPolicy::default()
    };
    let report = run(&wf, &base.with_faults(plan).with_recovery(recovery)).expect("chaos run");
    (wf, report)
}

/// The pinned text of one run's overhead partition.
fn buckets_text(report: &OverheadReport) -> String {
    let mut out = format!("makespan_ns {}\n", report.makespan_ns);
    for (name, ns) in report.buckets_ns() {
        out.push_str(&format!("{name} {ns}\n"));
    }
    out
}

fn pin_folds(tag: &str, wf: &Workflow, report: &RunReport) {
    let log = &report.telemetry;
    let makespan = report.makespan();
    let overhead = OverheadReport::from_log(log, makespan);
    golden_compare(&format!("{tag}.buckets.txt"), &buckets_text(&overhead));
    let profile = RunProfile::from_telemetry(tag, wf, log, makespan).expect("profile");
    golden_compare(&format!("{tag}.profile.txt"), &profile.render());
}

#[test]
fn stencil_chrome_trace_matches_golden() {
    let (wf, report) = stencil_run();
    let json = to_chrome_trace(&report.telemetry);
    assert!(
        json.contains("edge \\\"halo\\\" \\\\ cell t0"),
        "escaped name"
    );
    golden_compare("stencil.chrome.json", &json);
    pin_folds("stencil", &wf, &report);
}

#[test]
fn chaos_chrome_trace_matches_golden() {
    let (wf, report) = chaos_run();
    let events = report.telemetry.events();
    for kind in [
        "ready",
        "decision",
        "dispatch",
        "stage",
        "transfer",
        "cache",
        "gauge",
        "complete",
        "fault",
        "failed",
        "retry",
        "resubmit",
        "node-down",
        "node-up",
        "invalidate",
    ] {
        assert!(
            events.iter().any(|e| e.kind() == kind),
            "the chaos run must emit a {kind} event"
        );
    }
    for what in ["node-crash", "gpu-failure", "transient-rate"] {
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TelemetryEvent::FaultInjected { what: w, .. } if *w == what)),
            "the chaos run must inject {what}"
        );
    }
    assert!(
        events.iter().any(
            |e| matches!(e, TelemetryEvent::TaskFailed { reason, .. } if *reason == "transient")
        ),
        "the chaos run must fail a task transiently"
    );

    // Drop the dispatches of the last-completing task so its completion
    // renders under the `t{id}` fallback name.
    let last = events
        .iter()
        .rev()
        .find_map(|e| match e {
            TelemetryEvent::TaskCompleted { task, .. } => Some(*task),
            _ => None,
        })
        .expect("a completion");
    let filtered = TelemetryLog::from_events(
        events
            .iter()
            .filter(|e| !matches!(e, TelemetryEvent::TaskDispatched { task, .. } if *task == last))
            .cloned()
            .collect(),
    );
    let json = to_chrome_trace(&filtered);
    assert!(
        json.contains(&format!("\"name\":\"t{}\",\"cat\":\"task\"", last.0)),
        "fallback name"
    );
    golden_compare("chaos.chrome.json", &json);
    pin_folds("chaos", &wf, &report);
}
