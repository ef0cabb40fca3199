//! Cross-crate integration: functional correctness of the blocked
//! algorithms, executor bookkeeping invariants, determinism, failure
//! modes, and trace export — all through the public `gpuflow` API.

use gpuflow::algorithms::{
    initial_centers, reference_blocked_matmul, reference_fma_matmul, reference_kmeans,
    KmeansConfig, MatmulConfig,
};
use gpuflow::cluster::{ClusterSpec, ProcessorKind};
use gpuflow::data::{DatasetSpec, DsArray, GridDim};
use gpuflow::runtime::{run, RunConfig, RunError, Trace};

#[test]
fn blocked_and_fma_matmul_agree_with_dense_at_test_scale() {
    let da = DatasetSpec::uniform("a", 48, 48, 11);
    let db = DatasetSpec::uniform("b", 48, 48, 12);
    let (ma, mb) = (da.materialize().unwrap(), db.materialize().unwrap());
    let dense = ma.matmul(&mb);
    for g in [1u64, 2, 4, 6] {
        let aa = DsArray::from_matrix(da.clone(), &ma, GridDim::square(g)).unwrap();
        let bb = DsArray::from_matrix(db.clone(), &mb, GridDim::square(g)).unwrap();
        assert!(reference_blocked_matmul(&aa, &bb).max_abs_diff(&dense) < 1e-9);
        assert!(reference_fma_matmul(&aa, &bb).max_abs_diff(&dense) < 1e-9);
    }
}

#[test]
fn kmeans_chunking_invariance_and_workflow_structure_agree() {
    // The functional result must be chunking-invariant, and the workflow
    // built for the same configuration must have one partial_sum per
    // block per iteration.
    let ds = DatasetSpec::uniform("km", 4_000, 8, 5);
    let m = ds.materialize().unwrap();
    let init = initial_centers(3, 8, 1);
    let single = DsArray::from_matrix(ds.clone(), &m, GridDim::row_wise(1)).unwrap();
    let blocked = DsArray::from_matrix(ds.clone(), &m, GridDim::row_wise(10)).unwrap();
    let a = reference_kmeans(&single, &init, 3);
    let b = reference_kmeans(&blocked, &init, 3);
    assert!(a.max_abs_diff(&b) < 1e-9);

    let wf = KmeansConfig::new(ds, 10, 3, 3).unwrap().build_workflow();
    let partial_sums = wf
        .tasks()
        .iter()
        .filter(|t| t.task_type == "partial_sum")
        .count();
    assert_eq!(partial_sums, 30);
    wf.check_invariants().unwrap();
}

#[test]
fn executor_bookkeeping_is_consistent() {
    let wf = KmeansConfig::new(DatasetSpec::uniform("t", 64_000, 100, 3), 16, 10, 2)
        .unwrap()
        .build_workflow();
    let cluster = ClusterSpec::minotauro();
    let cfg = RunConfig::new(cluster.clone(), ProcessorKind::Gpu).with_telemetry();
    let report = run(&wf, &cfg).unwrap();

    // The full bookkeeping audit plus spot checks below.
    report.check_invariants(&wf, &cluster).unwrap();
    assert_eq!(report.records.len(), wf.tasks().len());
    // User code decomposes into its fractions.
    for r in &report.records {
        let sum = r.serial + r.parallel + r.comm;
        assert_eq!(r.user_code(), sum, "task {}", r.task);
        assert!(r.end >= r.start);
    }
    // The makespan covers every record.
    let last_end = report.records.iter().map(|r| r.end).max().unwrap();
    assert!((report.makespan() - last_end.as_secs_f64()).abs() < 1e-9);
    // Level spans never exceed the makespan.
    for lvl in &report.metrics.levels {
        assert!(lvl.span <= report.makespan() + 1e-9);
    }
    // cpu_only merge tasks must not run on the GPU even in a GPU run.
    for r in &report.records {
        if r.task_type == "merge" || r.task_type == "update_centers" {
            assert_eq!(r.processor, ProcessorKind::Cpu);
        } else {
            assert_eq!(r.processor, ProcessorKind::Gpu);
        }
    }
    // Trace CSV round-trips structurally.
    let csv = Trace::from_telemetry(&report.telemetry).to_csv();
    assert!(csv.lines().count() > wf.tasks().len());
    for line in csv.lines().skip(1) {
        assert_eq!(line.split(',').count(), 6, "bad trace row: {line}");
    }
}

#[test]
fn runs_are_deterministic_per_seed() {
    let wf = MatmulConfig::new(DatasetSpec::uniform("m", 4_096, 4_096, 2), 4)
        .unwrap()
        .build_workflow();
    let cfg = RunConfig::new(ClusterSpec::minotauro(), ProcessorKind::Gpu);
    let a = run(&wf, &cfg).unwrap();
    let b = run(&wf, &cfg).unwrap();
    assert_eq!(a.makespan().to_bits(), b.makespan().to_bits());
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.start, rb.start);
        assert_eq!(ra.end, rb.end);
        assert_eq!(ra.node, rb.node);
    }
    let c = run(&wf, &cfg.clone().with_seed(1234)).unwrap();
    assert_ne!(a.makespan().to_bits(), c.makespan().to_bits());
}

#[test]
fn oom_failures_surface_as_typed_errors() {
    // Matmul 1x1 on the 8 GB dataset: 3 x 8 GiB on a 12 GiB device.
    let wf = MatmulConfig::new(gpuflow::data::paper::matmul_8gb(), 1)
        .unwrap()
        .build_workflow();
    let gpu = run(
        &wf,
        &RunConfig::new(ClusterSpec::minotauro(), ProcessorKind::Gpu),
    );
    assert!(matches!(gpu, Err(RunError::GpuOom { .. })));
    // The same workflow fits host RAM (24 GiB of 128 GiB).
    let cpu = run(
        &wf,
        &RunConfig::new(ClusterSpec::minotauro(), ProcessorKind::Cpu),
    );
    assert!(cpu.is_ok());
    // K-means with a giant distance matrix overflows the host too.
    let wf = KmeansConfig::new(gpuflow::data::paper::kmeans_10gb(), 1, 1000, 1)
        .unwrap()
        .build_workflow();
    let host = run(
        &wf,
        &RunConfig::new(ClusterSpec::minotauro(), ProcessorKind::Cpu),
    );
    assert!(matches!(host, Err(RunError::HostOom { .. })));
}

#[test]
fn task_parallelism_is_bounded_by_device_counts() {
    // 128 independent K-means blocks: the CPU run can use all 128 cores,
    // the GPU run at most 32 devices, so per-level spans differ by the
    // wave count even though GPU tasks are individually faster.
    let wf = KmeansConfig::new(gpuflow::data::paper::kmeans_10gb(), 128, 100, 1)
        .unwrap()
        .build_workflow();
    let cluster = ClusterSpec::minotauro();
    let cpu = run(&wf, &RunConfig::new(cluster.clone(), ProcessorKind::Cpu)).unwrap();
    let gpu = run(&wf, &RunConfig::new(cluster, ProcessorKind::Gpu)).unwrap();

    // Maximum concurrency observed in the records.
    let max_concurrency = |r: &gpuflow::runtime::RunReport, ty: &str| {
        let mut events: Vec<(u64, i32)> = Vec::new();
        for rec in r.records.iter().filter(|x| x.task_type == ty) {
            events.push((rec.start.as_nanos(), 1));
            events.push((rec.end.as_nanos(), -1));
        }
        events.sort();
        let (mut cur, mut peak) = (0, 0);
        for (_, d) in events {
            cur += d;
            peak = peak.max(cur);
        }
        peak
    };
    assert!(max_concurrency(&cpu, "partial_sum") > 32);
    assert!(max_concurrency(&gpu, "partial_sum") <= 32);
}
