//! Trace tooling walkthrough: run a GPU K-means, then slice the trace
//! the way the paper's Paraver analysis does (§4.4.3) — state breakdown,
//! per-node utilization, resource wastage, critical path — and export
//! Paraver `.prv`/`.pcf` files.
//!
//! ```sh
//! cargo run --release --example trace_tools
//! ```

use gpuflow::algorithms::KmeansConfig;
use gpuflow::cluster::{ClusterSpec, ProcessorKind};
use gpuflow::runtime::{paraver_pcf, run, to_paraver_prv, trace_analysis as ta, RunConfig, Trace};

fn main() {
    let workflow = KmeansConfig::new(gpuflow::data::paper::kmeans_10gb(), 64, 100, 3)
        .expect("valid partitioning")
        .build_workflow();
    let cluster = ClusterSpec::minotauro();
    let config = RunConfig::new(cluster.clone(), ProcessorKind::Gpu).with_telemetry();
    let report = run(&workflow, &config).expect("fits the cluster");
    let trace = Trace::from_telemetry(&report.telemetry);

    println!("K-means 10 GB, 64 blocks, 100 clusters, 3 iterations, GPU run");
    println!(
        "makespan: {:.2} s, trace records: {}\n",
        report.makespan(),
        trace.len()
    );

    // Where did the time go, cluster-wide? (the Fig. 7 stacked story)
    let breakdown = ta::state_breakdown(&trace);
    println!(
        "state breakdown ({:.1} core-seconds traced):",
        breakdown.total()
    );
    for (state, share) in breakdown.shares() {
        let bar = "#".repeat((share * 50.0).round() as usize);
        println!("  {:>8}: {:>5.1}% {}", state.label(), share * 100.0, bar);
    }

    // Node utilization profile.
    println!("\nper-node busy fraction:");
    for (node, util) in ta::node_utilization(&report.records, report.makespan()) {
        println!("  node {node}: {:>5.1}%", util * 100.0);
    }

    // The paper's motivating resource-wastage measure (§1).
    let wasted = ta::cpu_busy_gpu_idle_seconds(&report.records, 1);
    println!(
        "\nresource wastage (some CPU busy while all GPUs idle): {:.2} s ({:.0}% of makespan)",
        wasted,
        wasted / report.makespan() * 100.0
    );

    // What chain of tasks bounds the makespan?
    let path = ta::critical_path(&workflow, &report.records);
    println!(
        "\ncritical path: {} tasks, ending at {}",
        path.len(),
        path.last().unwrap().end
    );

    // Paraver export.
    let prv = to_paraver_prv(&trace, cluster.nodes);
    let out_dir = std::env::temp_dir();
    let prv_path = out_dir.join("gpuflow_kmeans.prv");
    let pcf_path = out_dir.join("gpuflow_kmeans.pcf");
    std::fs::write(&prv_path, prv).expect("write .prv");
    std::fs::write(&pcf_path, paraver_pcf()).expect("write .pcf");
    println!(
        "\nParaver trace written to {} (+ {})",
        prv_path.display(),
        pcf_path.display()
    );
}
