//! Execution metrics (§4.2 of the paper).
//!
//! Three metric families, mirroring the paper exactly:
//!
//! * **task user code** — serial fraction, parallel fraction, CPU-GPU
//!   communication, and their sum, aggregated per task type;
//! * **data movement** — (de)serialization time per CPU core;
//! * **task level** — parallel task execution time per DAG level.

use std::collections::BTreeMap;

use gpuflow_cluster::ProcessorKind;
use gpuflow_sim::{SimDuration, SimTime};

use crate::task::{TaskId, TaskType};

/// Everything measured about one executed task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRecord {
    /// Task identifier.
    pub task: TaskId,
    /// Task type (aggregation key for user-code metrics).
    pub task_type: TaskType,
    /// Node that executed the task.
    pub node: usize,
    /// First host core index (within the node) the task occupied.
    pub core: u16,
    /// Number of host cores the task held for its whole lifetime (1 for
    /// GPU and serial tasks, `cpu_threads_per_task` for multi-threaded
    /// CPU tasks). Utilization and concurrency accounting must weight
    /// by this, not count records.
    pub cores: u16,
    /// Processor that executed the parallel fraction.
    pub processor: ProcessorKind,
    /// DAG level.
    pub level: u32,
    /// Dispatch instant (core acquired).
    pub start: SimTime,
    /// Completion instant (outputs on storage, resources released).
    pub end: SimTime,
    /// Deserialization time (storage read + decode) on the host core.
    pub deser: SimDuration,
    /// Serialization time (encode + storage write).
    pub ser: SimDuration,
    /// Serial fraction execution time.
    pub serial: SimDuration,
    /// Parallel fraction execution time (CPU compute or GPU kernel).
    pub parallel: SimDuration,
    /// CPU-GPU communication time (H2D + D2H, incl. bus latency).
    pub comm: SimDuration,
    /// Inputs served from the node cache.
    pub cache_hits: u32,
    /// Inputs read from storage.
    pub cache_misses: u32,
}

impl TaskRecord {
    /// User-code execution time: serial + parallel + CPU-GPU comm (§4.2).
    pub fn user_code(&self) -> SimDuration {
        self.serial + self.parallel + self.comm
    }
}

/// Mean durations for one task type.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UserCodeStats {
    /// Tasks aggregated.
    pub count: usize,
    /// Mean serial fraction time, seconds.
    pub serial: f64,
    /// Mean parallel fraction time, seconds.
    pub parallel: f64,
    /// Mean CPU-GPU communication time, seconds.
    pub comm: f64,
    /// Mean user-code time, seconds.
    pub user_code: f64,
}

/// Span statistics of one DAG level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelStats {
    /// The level.
    pub level: u32,
    /// Tasks on the level.
    pub tasks: usize,
    /// Wall-clock span from the first dispatch to the last completion of
    /// the level, seconds.
    pub span: f64,
}

/// Aggregated metrics of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Wall-clock makespan of the whole workflow, seconds.
    pub makespan: f64,
    /// Per-task-type user-code statistics.
    pub per_type: BTreeMap<TaskType, UserCodeStats>,
    /// Mean deserialization time per used CPU core, seconds.
    pub deser_per_core: f64,
    /// Mean serialization time per used CPU core, seconds.
    pub ser_per_core: f64,
    /// Per-level spans.
    pub levels: Vec<LevelStats>,
    /// Mean level span — the paper's "parallel task execution time"
    /// (§4.2: average per algorithm iteration over same-level tasks).
    pub parallel_task_time: f64,
    /// Total master-side scheduling overhead, seconds.
    pub sched_overhead: f64,
    /// CPU-core utilization in `[0, 1]` over the makespan.
    pub cpu_utilization: f64,
    /// GPU-device utilization in `[0, 1]` over the makespan (0 for CPU
    /// runs).
    pub gpu_utilization: f64,
    /// Cache hits across all tasks.
    pub cache_hits: u64,
    /// Cache misses across all tasks.
    pub cache_misses: u64,
    /// Highest working-set bytes held on any node at any instant — the
    /// "memory robustness" the paper credits chunking with (§1).
    pub peak_node_ram: u64,
}

impl RunMetrics {
    /// Computes aggregates from raw task records.
    ///
    /// `cores_used` is the number of distinct CPU cores that hosted work;
    /// `sched_overhead`, `cpu_utilization`, `gpu_utilization` come from
    /// the executor's resource accounting.
    #[allow(clippy::too_many_arguments)] // executor-internal constructor
    pub fn aggregate(
        records: &[TaskRecord],
        makespan: f64,
        cores_used: usize,
        sched_overhead: f64,
        cpu_utilization: f64,
        gpu_utilization: f64,
        peak_node_ram: u64,
    ) -> Self {
        let mut per_type: BTreeMap<TaskType, UserCodeStats> = BTreeMap::new();
        for r in records {
            let s = per_type.entry(r.task_type.clone()).or_default();
            s.count += 1;
            s.serial += r.serial.as_secs_f64();
            s.parallel += r.parallel.as_secs_f64();
            s.comm += r.comm.as_secs_f64();
            s.user_code += r.user_code().as_secs_f64();
        }
        for s in per_type.values_mut() {
            let n = s.count as f64;
            s.serial /= n;
            s.parallel /= n;
            s.comm /= n;
            s.user_code /= n;
        }

        let total_deser: f64 = records.iter().map(|r| r.deser.as_secs_f64()).sum();
        let total_ser: f64 = records.iter().map(|r| r.ser.as_secs_f64()).sum();
        let cores = cores_used.max(1) as f64;

        let mut level_bounds: BTreeMap<u32, (SimTime, SimTime, usize)> = BTreeMap::new();
        for r in records {
            let e = level_bounds.entry(r.level).or_insert((r.start, r.end, 0));
            e.0 = e.0.min(r.start);
            e.1 = e.1.max(r.end);
            e.2 += 1;
        }
        let levels: Vec<LevelStats> = level_bounds
            .into_iter()
            .map(|(level, (start, end, tasks))| LevelStats {
                level,
                tasks,
                span: (end - start).as_secs_f64(),
            })
            .collect();
        let parallel_task_time = if levels.is_empty() {
            0.0
        } else {
            levels.iter().map(|l| l.span).sum::<f64>() / levels.len() as f64
        };

        RunMetrics {
            makespan,
            per_type,
            deser_per_core: total_deser / cores,
            ser_per_core: total_ser / cores,
            levels,
            parallel_task_time,
            sched_overhead,
            cpu_utilization,
            gpu_utilization,
            cache_hits: records.iter().map(|r| r.cache_hits as u64).sum(),
            cache_misses: records.iter().map(|r| r.cache_misses as u64).sum(),
            peak_node_ram,
        }
    }

    /// Stats for one task type.
    pub fn task_type(&self, name: &str) -> Option<&UserCodeStats> {
        self.per_type.get(name)
    }

    /// Mean user-code time across all task types weighted by count.
    pub fn mean_user_code(&self) -> f64 {
        let (sum, n) = self.per_type.values().fold((0.0, 0usize), |(s, n), t| {
            (s + t.user_code * t.count as f64, n + t.count)
        });
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Mean parallel fraction time weighted by count.
    pub fn mean_parallel(&self) -> f64 {
        let (sum, n) = self.per_type.values().fold((0.0, 0usize), |(s, n), t| {
            (s + t.parallel * t.count as f64, n + t.count)
        });
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(task_type: &str, level: u32, start_s: f64, end_s: f64) -> TaskRecord {
        TaskRecord {
            task: TaskId(0),
            task_type: task_type.into(),
            node: 0,
            core: 0,
            cores: 1,
            processor: ProcessorKind::Cpu,
            level,
            start: SimTime::from_nanos((start_s * 1e9) as u64),
            end: SimTime::from_nanos((end_s * 1e9) as u64),
            deser: SimDuration::from_millis(100),
            ser: SimDuration::from_millis(50),
            serial: SimDuration::from_millis(200),
            parallel: SimDuration::from_millis(300),
            comm: SimDuration::from_millis(10),
            cache_hits: 1,
            cache_misses: 2,
        }
    }

    #[test]
    fn per_type_means_are_correct() {
        let mut a = rec("f", 0, 0.0, 1.0);
        a.parallel = SimDuration::from_millis(100);
        let b = rec("f", 0, 0.0, 1.0); // parallel = 300 ms
        let m = RunMetrics::aggregate(&[a, b], 1.0, 4, 0.0, 0.5, 0.0, 0);
        let f = m.task_type("f").unwrap();
        assert_eq!(f.count, 2);
        assert!((f.parallel - 0.2).abs() < 1e-9);
        assert!((f.serial - 0.2).abs() < 1e-9);
        assert!((f.user_code - (0.2 + 0.2 + 0.01)).abs() < 1e-9);
    }

    #[test]
    fn user_code_is_sum_of_fractions() {
        let r = rec("f", 0, 0.0, 1.0);
        assert_eq!(r.user_code(), SimDuration::from_millis(510));
    }

    #[test]
    fn level_spans_cover_first_start_to_last_end() {
        let recs = vec![
            rec("f", 0, 0.0, 1.0),
            rec("f", 0, 0.5, 2.0),
            rec("g", 1, 2.0, 3.0),
        ];
        let m = RunMetrics::aggregate(&recs, 3.0, 4, 0.0, 0.5, 0.0, 0);
        assert_eq!(m.levels.len(), 2);
        assert!((m.levels[0].span - 2.0).abs() < 1e-9);
        assert_eq!(m.levels[0].tasks, 2);
        assert!((m.levels[1].span - 1.0).abs() < 1e-9);
        assert!((m.parallel_task_time - 1.5).abs() < 1e-9);
    }

    #[test]
    fn per_core_movement_divides_by_cores() {
        let recs = vec![rec("f", 0, 0.0, 1.0), rec("f", 0, 0.0, 1.0)];
        let m = RunMetrics::aggregate(&recs, 1.0, 2, 0.0, 0.5, 0.0, 0);
        assert!((m.deser_per_core - 0.1).abs() < 1e-9);
        assert!((m.ser_per_core - 0.05).abs() < 1e-9);
    }

    #[test]
    fn cache_totals_sum_over_tasks() {
        let recs = vec![rec("f", 0, 0.0, 1.0), rec("f", 0, 0.0, 1.0)];
        let m = RunMetrics::aggregate(&recs, 1.0, 2, 0.0, 0.5, 0.0, 0);
        assert_eq!((m.cache_hits, m.cache_misses), (2, 4));
    }

    #[test]
    fn empty_run_aggregates_to_zeros() {
        let m = RunMetrics::aggregate(&[], 0.0, 0, 0.0, 0.0, 0.0, 0);
        assert_eq!(m.per_type.len(), 0);
        assert_eq!(m.parallel_task_time, 0.0);
        assert_eq!(m.mean_user_code(), 0.0);
    }
}
