//! Property-based tests (proptest) over the core invariants:
//! partitioning algebra, DAG construction, bandwidth-sharing links,
//! statistics, and whole-executor liveness under random workflows.

use gpuflow::analysis::{ranks, spearman};
use gpuflow::cluster::{ClusterSpec, KernelWork, ProcessorKind};
use gpuflow::data::{BlockCoord, BlockDim, DatasetDim, DatasetSpec, DsArray, DsArraySpec, GridDim};
use gpuflow::runtime::{run, CostProfile, Direction, RunConfig, Trace, WorkflowBuilder};
use gpuflow::sim::{Engine, FairShareLink, GroupedLink, SimTime};
use proptest::prelude::*;

proptest! {
    /// Eq. 1-2: ceiling-division partitioning covers the dataset exactly —
    /// per-coordinate block dims tile the full extent with no overlap.
    #[test]
    fn partition_tiles_dataset(rows in 1u64..5_000, cols in 1u64..5_000,
                               gr in 1u64..64, gc in 1u64..64) {
        let dataset = DatasetDim { rows, cols };
        let grid = GridDim { rows: gr, cols: gc };
        if let Ok(block) = BlockDim::for_grid(dataset, grid) {
            // Eq. 1 as an inequality pair for ragged splits.
            prop_assert!(grid.rows * block.rows >= rows);
            prop_assert!((grid.rows - 1) * block.rows < rows);
            prop_assert!(grid.cols * block.cols >= cols);
            prop_assert!((grid.cols - 1) * block.cols < cols);
            // Row extents per block-row sum to the dataset extent.
            let spec = DsArraySpec::partition(
                DatasetSpec::uniform("p", rows, cols, 0), grid).unwrap();
            let row_sum: u64 = (0..gr)
                .map(|r| spec.block_dim_at(BlockCoord { row: r, col: 0 }).rows)
                .sum();
            let col_sum: u64 = (0..gc)
                .map(|c| spec.block_dim_at(BlockCoord { row: 0, col: c }).cols)
                .sum();
            prop_assert_eq!(row_sum, rows);
            prop_assert_eq!(col_sum, cols);
        }
    }

    /// Splitting a real matrix into blocks and reassembling is lossless.
    #[test]
    fn dsarray_roundtrips(rows in 1u64..64, cols in 1u64..64,
                          gr in 1u64..8, gc in 1u64..8, seed in 0u64..1000) {
        let ds = DatasetSpec::uniform("r", rows, cols, seed);
        let m = ds.materialize().unwrap();
        if let Ok(arr) = DsArray::from_matrix(ds, &m, GridDim { rows: gr, cols: gc }) {
            prop_assert_eq!(arr.to_matrix(), m);
        }
    }

    /// The event engine pops in non-decreasing time order with FIFO ties,
    /// regardless of insertion order.
    #[test]
    fn engine_orders_events(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut e: Engine<usize> = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            e.schedule_at(SimTime::from_nanos(t), i);
        }
        let mut last = (SimTime::ZERO, 0usize);
        let mut popped = 0;
        while let Some(ev) = e.pop() {
            let key = (ev.time, ev.payload);
            if ev.time == last.0 {
                // Same instant: FIFO by insertion index.
                prop_assert!(ev.payload > last.1 || popped == 0);
            }
            prop_assert!(ev.time >= last.0);
            last = key;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Fair-share links deliver every flow and conserve bytes (within the
    /// nanosecond tick rounding).
    #[test]
    fn fair_share_link_delivers_all_flows(
        sizes in prop::collection::vec(1.0f64..1e7, 1..40),
        gaps in prop::collection::vec(0u64..1_000_000u64, 1..40),
    ) {
        let mut link = FairShareLink::new(1e8);
        let mut now = SimTime::ZERO;
        let n = sizes.len().min(gaps.len());
        for i in 0..n {
            now = SimTime::from_nanos(now.as_nanos() + gaps[i]);
            link.start(now, sizes[i]);
        }
        let mut delivered = 0usize;
        let mut finished = Vec::new();
        let mut guard = 0;
        while let Some(t) = link.next_completion(now) {
            now = t.max(now);
            link.harvest(now, &mut finished);
            delivered += finished.len();
            guard += 1;
            prop_assert!(guard < 10_000, "link failed to drain");
        }
        prop_assert_eq!(delivered, n);
        prop_assert!(link.bytes_in_flight() < 1.0);
    }

    /// Grouped links never exceed the backend or the per-group front-end
    /// caps, whatever the flow mix.
    #[test]
    fn grouped_link_respects_caps(
        flows in prop::collection::vec((0usize..8, 1.0f64..1e7), 1..64),
    ) {
        let mut link = GroupedLink::new(8e8, 8, 2e8);
        for &(g, bytes) in &flows {
            link.start(SimTime::ZERO, g, bytes);
        }
        prop_assert!(link.aggregate_rate() <= 8e8 * (1.0 + 1e-9));
        // Drain fully.
        let mut now = SimTime::ZERO;
        let mut delivered = 0;
        let mut finished = Vec::new();
        while let Some(t) = link.next_completion(now) {
            now = t.max(now);
            link.harvest(now, &mut finished);
            delivered += finished.len();
        }
        prop_assert_eq!(delivered, flows.len());
    }

    /// Spearman stays in [-1, 1], is symmetric, and is invariant under
    /// strictly monotone transforms of either variable.
    #[test]
    fn spearman_properties(pairs in prop::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 3..100)) {
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let rho = spearman(&xs, &ys);
        prop_assert!((-1.0..=1.0).contains(&rho));
        prop_assert!((rho - spearman(&ys, &xs)).abs() < 1e-12);
        // exp is strictly monotone; ranks are unchanged.
        let ex: Vec<f64> = xs.iter().map(|x| (x / 1e3).exp()).collect();
        prop_assert!((rho - spearman(&ex, &ys)).abs() < 1e-9);
    }

    /// Fractional ranks are a permutation of 1..n when values are unique,
    /// and always sum to n(n+1)/2.
    #[test]
    fn ranks_sum_is_invariant(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let r = ranks(&xs);
        let n = xs.len() as f64;
        let sum: f64 = r.iter().sum();
        prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-6);
    }

    /// Random fork-join workflows always execute to completion (no
    /// deadlock, no lost tasks) on both processor kinds, and dependent
    /// tasks never overlap their dependencies.
    #[test]
    fn random_workflows_always_complete(
        widths in prop::collection::vec(1usize..12, 1..6),
        seed in 0u64..500,
    ) {
        let mut b = WorkflowBuilder::new();
        let cost = CostProfile::fully_parallel(KernelWork {
            flops: 1e8,
            bytes: 1e6,
            parallelism: 1e6,
        });
        // Layered random DAG: each layer's tasks read the previous
        // layer's outputs (round-robin) and write their own.
        let mut prev: Vec<gpuflow::runtime::DataId> =
            (0..3).map(|i| b.input(format!("in{i}"), 1 << 20)).collect();
        for (layer, &w) in widths.iter().enumerate() {
            let mut outs = Vec::new();
            for i in 0..w {
                let src = prev[i % prev.len()];
                let out = b.intermediate(format!("d{layer}_{i}"), 1 << 20);
                b.submit(
                    "work",
                    cost,
                    &[(src, Direction::In), (out, Direction::Out)],
                    false,
                ).unwrap();
                outs.push(out);
            }
            prev = outs;
        }
        let wf = b.build();
        wf.check_invariants().unwrap();
        for proc in ProcessorKind::ALL {
            let cluster = ClusterSpec::tiny();
            let cfg = RunConfig::new(cluster.clone(), proc).with_seed(seed);
            let report = run(&wf, &cfg).unwrap();
            // Full executor bookkeeping audit: completeness, dependency
            // ordering, concurrency caps, metric decomposition.
            if let Err(msg) = report.check_invariants(&wf, &cluster) {
                prop_assert!(false, "invariant violated: {}", msg);
            }
        }
    }
}

proptest! {
    /// The advisor's static pruning never changes the winning
    /// configuration relative to exhaustive simulation — the rules are
    /// sound (they only discard provably infeasible/dominated points).
    #[test]
    fn advisor_pruning_is_sound(
        rows_k in 1u64..40,      // dataset rows in units of 50k
        clusters in 1u64..64,
        grid_a in 1u64..6,
        grid_b in 6u64..32,
    ) {
        use gpuflow::advisor::{Advisor, SearchSpace, Workload};
        use gpuflow::runtime::SchedulingPolicy;
        use gpuflow::cluster::{ClusterSpec, StorageArchitecture};
        let workload = Workload::Kmeans {
            dataset: DatasetSpec::uniform("p", rows_k * 50_000, 100, 1),
            clusters,
            iterations: 1,
        };
        let space = SearchSpace {
            grids: vec![grid_a, grid_b],
            processors: ProcessorKind::ALL.to_vec(),
            storages: vec![StorageArchitecture::SharedDisk],
            policies: vec![SchedulingPolicy::GenerationOrder],
        };
        let advisor = Advisor::new(ClusterSpec::minotauro());
        let pruned = advisor.advise(&workload, &space);
        let full = advisor.clone().without_pruning().advise(&workload, &space);
        match (pruned, full) {
            (Ok(p), Ok(f)) => {
                prop_assert_eq!(p.best, f.best);
                prop_assert!((p.makespan - f.makespan).abs() < 1e-9);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (p, f) => prop_assert!(false, "feasibility disagreement: {:?} vs {:?}", p.is_ok(), f.is_ok()),
        }
    }

    /// Trace-analysis invariants on real runs: node utilization stays in
    /// [0, 1], the state breakdown accounts for the traced intervals, and
    /// the critical path is a dependency chain ending at the last task.
    #[test]
    fn trace_analysis_invariants(blocks in 2u64..12, seed in 0u64..50) {
        use gpuflow::algorithms::KmeansConfig;
        use gpuflow::runtime::trace_analysis as ta;
        let wf = KmeansConfig::new(
            DatasetSpec::uniform("t", blocks * 4_096, 64, seed), blocks, 5, 2)
            .unwrap()
            .build_workflow();
        let cluster = ClusterSpec::tiny();
        let cfg = RunConfig::new(cluster, ProcessorKind::Gpu)
            .with_seed(seed)
            .with_telemetry();
        let report = run(&wf, &cfg).unwrap();
        for (_, u) in ta::node_utilization(&report.records, report.makespan()) {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&u));
        }
        let trace = Trace::from_telemetry(&report.telemetry);
        let breakdown = ta::state_breakdown(&trace);
        let traced: f64 = trace
            .records()
            .iter()
            .map(|r| (r.t1 - r.t0).as_secs_f64())
            .sum();
        prop_assert!((breakdown.total() - traced).abs() < 1e-6);
        let path = ta::critical_path(&wf, &report.records);
        prop_assert!(!path.is_empty());
        let last_end = report.records.iter().map(|r| r.end).max().unwrap();
        prop_assert_eq!(path.last().unwrap().end, last_end);
        // Consecutive hops are dependency edges.
        for pair in path.windows(2) {
            prop_assert!(wf.predecessors(pair[1].task).contains(&pair[0].task));
        }
        // Wastage never exceeds the makespan.
        let wasted = ta::cpu_busy_gpu_idle_seconds(&report.records, 1);
        prop_assert!(wasted <= report.makespan() + 1e-9);
    }
}
