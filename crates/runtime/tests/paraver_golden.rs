//! Golden-file pin of the Paraver export (`.prv` + `.pcf`).
//!
//! The paper's data-movement analysis (§4.4.3) consumes runtime traces in
//! Paraver; downstream tooling parses the exact record syntax, so the
//! format is pinned byte-for-byte against committed golden files. The
//! trace itself is fully deterministic (zero jitter, fixed seed), so any
//! diff means either the exporter's syntax or the simulated schedule
//! changed — both of which must be deliberate.
//!
//! Regenerate after an intentional change with:
//! `GOLDEN_REGEN=1 cargo test -p gpuflow-runtime --test paraver_golden`

use gpuflow_cluster::{ClusterSpec, KernelWork, ProcessorKind};
use gpuflow_runtime::{
    paraver_pcf, run, to_paraver_prv, CostProfile, Direction, RunConfig, Trace, Workflow,
    WorkflowBuilder,
};

const MB: u64 = 1 << 20;

/// A diamond: source → (left, right) → join. Exercises dependency
/// serialisation, two parallel branches, and every trace state on GPU.
fn diamond_workflow() -> Workflow {
    let cost = |flops: f64| {
        CostProfile::fully_parallel(KernelWork {
            flops,
            bytes: flops / 10.0,
            parallelism: 1e9,
        })
    };
    let mut b = WorkflowBuilder::new();
    let x = b.input("x", 4 * MB);
    let l = b.intermediate("l", 2 * MB);
    let r = b.intermediate("r", 2 * MB);
    let z = b.intermediate("z", MB);
    b.submit(
        "source",
        cost(2e9),
        &[(x, Direction::In), (l, Direction::Out)],
        false,
    )
    .expect("source");
    b.submit(
        "left",
        cost(1e9),
        &[(l, Direction::In), (r, Direction::Out)],
        false,
    )
    .expect("left");
    b.submit(
        "right",
        cost(1e9),
        &[(x, Direction::In), (z, Direction::Out)],
        false,
    )
    .expect("right");
    b.submit(
        "join",
        cost(3e9),
        &[(r, Direction::In), (z, Direction::InOut)],
        false,
    )
    .expect("join");
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
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden file; if the change is deliberate, \
         regenerate with GOLDEN_REGEN=1"
    );
}

#[test]
fn prv_export_matches_golden() {
    let cluster = ClusterSpec::tiny();
    let nodes = cluster.nodes;
    let mut cfg = RunConfig::new(cluster, ProcessorKind::Gpu).with_telemetry();
    cfg.jitter_sigma = 0.0;
    let report = run(&diamond_workflow(), &cfg).expect("diamond runs");
    let trace = Trace::from_telemetry(&report.telemetry);
    assert!(!trace.is_empty(), "trace must have records");
    golden_compare("diamond.prv", &to_paraver_prv(&trace, nodes));
}

#[test]
fn pcf_legend_matches_golden() {
    golden_compare("states.pcf", &paraver_pcf());
}
