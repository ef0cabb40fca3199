//! Task specifications: what a task accesses, what it costs, where it may
//! run.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use gpuflow_cluster::{CpuModel, KernelWork};

use crate::data::{DataId, Direction};

/// Identifier of a task within one workflow, in generation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A map from [`TaskId`] to `T` for the telemetry folds.
///
/// Ids below `bound` (the workflow's task count, or the event count of
/// a stream without a workflow) index a `Vec` that grows on demand; any
/// other id a stream names spills to an ordered map, so the table keeps
/// the semantics of a `HashMap<TaskId, T>` without hashing on every
/// event. Iteration is in ascending id order.
#[derive(Debug, Clone)]
pub(crate) struct TaskTable<T> {
    dense: Vec<Option<T>>,
    bound: usize,
    spill: BTreeMap<u32, T>,
}

impl<T> TaskTable<T> {
    /// An empty table whose dense part covers ids below `bound`.
    pub(crate) fn new(bound: usize) -> Self {
        TaskTable {
            dense: Vec::new(),
            bound,
            spill: BTreeMap::new(),
        }
    }

    /// The value of `task`, if any.
    pub(crate) fn get(&self, task: TaskId) -> Option<&T> {
        match self.dense.get(task.0 as usize) {
            Some(slot) => slot.as_ref(),
            None => self.spill.get(&task.0),
        }
    }

    /// The value of `task`, mutably, if any.
    pub(crate) fn get_mut(&mut self, task: TaskId) -> Option<&mut T> {
        match self.dense.get_mut(task.0 as usize) {
            Some(slot) => slot.as_mut(),
            None => self.spill.get_mut(&task.0),
        }
    }

    /// The dense slot of id `i < bound`, growing the table to reach it.
    fn dense_slot(&mut self, i: usize) -> &mut Option<T> {
        if i >= self.dense.len() {
            self.dense.resize_with(i + 1, || None);
        }
        &mut self.dense[i]
    }

    /// The value of `task`, inserting `make()` first if it has none.
    pub(crate) fn get_or_insert_with(&mut self, task: TaskId, make: impl FnOnce() -> T) -> &mut T {
        let i = task.0 as usize;
        if i < self.bound {
            self.dense_slot(i).get_or_insert_with(make)
        } else {
            self.spill.entry(task.0).or_insert_with(make)
        }
    }

    /// Sets the value of `task`, returning the previous one.
    pub(crate) fn insert(&mut self, task: TaskId, value: T) -> Option<T> {
        let i = task.0 as usize;
        if i < self.bound {
            self.dense_slot(i).replace(value)
        } else {
            self.spill.insert(task.0, value)
        }
    }

    /// Removes and returns the value of `task`.
    pub(crate) fn remove(&mut self, task: TaskId) -> Option<T> {
        match self.dense.get_mut(task.0 as usize) {
            Some(slot) => slot.take(),
            None => self.spill.remove(&task.0),
        }
    }

    /// Every `(task, value)` pair in ascending id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (TaskId, &T)> {
        let dense = self
            .dense
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (TaskId(i as u32), v)));
        dense.chain(self.spill.iter().map(|(&id, v)| (TaskId(id), v)))
    }
}

/// Interned task-type name. All tasks of one type share a single
/// allocation, so cloning a type into per-task records and metric keys
/// is a reference-count bump rather than a string copy.
///
/// Orders, hashes, and compares exactly like the underlying string, and
/// borrows as `str`, so `BTreeMap<TaskType, _>` lookups work with plain
/// `&str` keys.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskType(Arc<str>);

impl TaskType {
    /// Interns `name` as a task type.
    pub fn new(name: impl Into<Arc<str>>) -> Self {
        TaskType(name.into())
    }

    /// The type name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for TaskType {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for TaskType {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for TaskType {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for TaskType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for TaskType {
    fn from(name: &str) -> Self {
        TaskType(name.into())
    }
}

impl From<String> for TaskType {
    fn from(name: String) -> Self {
        TaskType(name.into())
    }
}

impl From<&String> for TaskType {
    fn from(name: &String) -> Self {
        TaskType(name.as_str().into())
    }
}

impl PartialEq<str> for TaskType {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for TaskType {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for TaskType {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<TaskType> for &str {
    fn eq(&self, other: &TaskType) -> bool {
        *self == other.as_str()
    }
}

/// One parameter access of a task, with the version resolved by the
/// workflow builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Param {
    /// The accessed object.
    pub data: DataId,
    /// Access direction.
    pub dir: Direction,
    /// For reads: the version consumed. For writes: the version produced.
    /// For `InOut`, the version produced (the consumed one is
    /// `version - 1`).
    pub version: u32,
}

/// The cost model of one task's user code (Fig. 4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostProfile {
    /// Serial fraction: always executed on the host CPU core.
    pub serial: KernelWork,
    /// Parallel fraction: executed on the CPU core or offloaded to a GPU.
    pub parallel: KernelWork,
    /// Device-side intermediates beyond inputs+outputs (e.g. the K-means
    /// pairwise-distance matrix) for the GPU OOM check, bytes.
    pub gpu_extra_bytes: u64,
    /// Host-side intermediates for the host OOM check, bytes.
    pub host_extra_bytes: u64,
}

impl CostProfile {
    /// A profile with only a parallel fraction (the paper's fully
    /// parallel tasks: `matmul_func`, `add_func`).
    pub fn fully_parallel(parallel: KernelWork) -> Self {
        CostProfile {
            serial: KernelWork::NONE,
            parallel,
            gpu_extra_bytes: 0,
            host_extra_bytes: 0,
        }
    }

    /// A profile with serial and parallel fractions (partially parallel
    /// tasks: K-means `partial_sum`).
    pub fn partially_parallel(serial: KernelWork, parallel: KernelWork) -> Self {
        CostProfile {
            serial,
            parallel,
            gpu_extra_bytes: 0,
            host_extra_bytes: 0,
        }
    }

    /// A serial-only profile (reduction/merge bookkeeping tasks).
    pub fn serial_only(serial: KernelWork) -> Self {
        CostProfile {
            serial,
            parallel: KernelWork::NONE,
            gpu_extra_bytes: 0,
            host_extra_bytes: 0,
        }
    }

    /// Sets the device-side intermediate footprint.
    pub fn with_gpu_extra(mut self, bytes: u64) -> Self {
        self.gpu_extra_bytes = bytes;
        self
    }

    /// Sets the host-side intermediate footprint.
    pub fn with_host_extra(mut self, bytes: u64) -> Self {
        self.host_extra_bytes = bytes;
        self
    }

    /// The task's parallel fraction as measured on a CPU: the share of
    /// user-code time spent in the parallelizable part. This is the
    /// "parallel fraction" factor of Table 1 and Fig. 11.
    pub fn parallel_fraction(&self, cpu: &CpuModel) -> f64 {
        let ts = cpu.time(&self.serial).as_secs_f64();
        let tp = cpu.time(&self.parallel).as_secs_f64();
        if ts + tp <= 0.0 {
            0.0
        } else {
            tp / (ts + tp)
        }
    }
}

/// A task as submitted to the runtime.
#[derive(Debug, Clone)]
pub struct TaskSpec {
    /// Identifier (generation order).
    pub id: TaskId,
    /// Task type name — tasks sharing a name aggregate together in the
    /// paper's user-code metrics (e.g. `"matmul_func"`).
    pub task_type: TaskType,
    /// Parameter accesses with resolved versions.
    pub params: Vec<Param>,
    /// Cost model.
    pub cost: CostProfile,
    /// Force host execution even in a GPU run (reduction bookkeeping that
    /// dislib keeps on the CPU).
    pub cpu_only: bool,
}

impl TaskSpec {
    /// Parameters read by this task (with the version each one consumes).
    pub fn reads(&self) -> impl Iterator<Item = (DataId, u32)> + '_ {
        self.params.iter().filter(|p| p.dir.reads()).map(|p| {
            let version = match p.dir {
                Direction::InOut => p.version - 1,
                _ => p.version,
            };
            (p.data, version)
        })
    }

    /// Parameters written by this task (with the version produced).
    pub fn writes(&self) -> impl Iterator<Item = (DataId, u32)> + '_ {
        self.params
            .iter()
            .filter(|p| p.dir.writes())
            .map(|p| (p.data, p.version))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_table_behaves_like_a_map_inside_and_outside_its_bound() {
        let mut t: TaskTable<u64> = TaskTable::new(4);
        assert_eq!(t.insert(TaskId(2), 20), None);
        assert_eq!(t.insert(TaskId(9), 90), None, "beyond the bound spills");
        assert_eq!(t.insert(TaskId(2), 21), Some(20));
        *t.get_or_insert_with(TaskId(0), || 1) += 1;
        *t.get_or_insert_with(TaskId(9), || 0) += 1;
        assert_eq!(t.get(TaskId(0)), Some(&2));
        assert_eq!(t.get(TaskId(3)), None);
        assert_eq!(t.get(TaskId(9)), Some(&91));
        let all: Vec<_> = t.iter().map(|(k, v)| (k.0, *v)).collect();
        assert_eq!(all, vec![(0, 2), (2, 21), (9, 91)]);
        assert_eq!(t.remove(TaskId(9)), Some(91));
        assert_eq!(t.remove(TaskId(2)), Some(21));
        assert_eq!(t.remove(TaskId(7)), None);
        assert_eq!(t.iter().count(), 1);
    }

    fn work(flops: f64) -> KernelWork {
        KernelWork {
            flops,
            bytes: flops,
            parallelism: flops,
        }
    }

    #[test]
    fn parallel_fraction_of_fully_parallel_task_is_one() {
        let cpu = CpuModel {
            peak_flops: 1e9,
            mem_bw: 1e9,
        };
        let p = CostProfile::fully_parallel(work(1e6));
        assert_eq!(p.parallel_fraction(&cpu), 1.0);
    }

    #[test]
    fn parallel_fraction_of_serial_task_is_zero() {
        let cpu = CpuModel {
            peak_flops: 1e9,
            mem_bw: 1e9,
        };
        let p = CostProfile::serial_only(work(1e6));
        assert_eq!(p.parallel_fraction(&cpu), 0.0);
    }

    #[test]
    fn parallel_fraction_weighs_cpu_times() {
        let cpu = CpuModel {
            peak_flops: 1e9,
            mem_bw: 1e9,
        };
        // Serial 1e6 flops, parallel 3e6 flops: fraction 0.75.
        let p = CostProfile::partially_parallel(work(1e6), work(3e6));
        assert!((p.parallel_fraction(&cpu) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn reads_resolve_inout_to_previous_version() {
        let spec = TaskSpec {
            id: TaskId(0),
            task_type: "t".into(),
            params: vec![
                Param {
                    data: DataId(0),
                    dir: Direction::In,
                    version: 2,
                },
                Param {
                    data: DataId(1),
                    dir: Direction::InOut,
                    version: 5,
                },
                Param {
                    data: DataId(2),
                    dir: Direction::Out,
                    version: 1,
                },
            ],
            cost: CostProfile::serial_only(KernelWork::NONE),
            cpu_only: false,
        };
        let reads: Vec<_> = spec.reads().collect();
        assert_eq!(reads, vec![(DataId(0), 2), (DataId(1), 4)]);
        let writes: Vec<_> = spec.writes().collect();
        assert_eq!(writes, vec![(DataId(1), 5), (DataId(2), 1)]);
    }
}
