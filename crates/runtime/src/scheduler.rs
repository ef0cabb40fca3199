//! Task scheduling policies (§3.2, §4.4.2).
//!
//! PyCOMPSs offers several schedulers; the paper compares two:
//!
//! * **task generation order** — dispatch ready tasks FIFO to whichever
//!   node has the most free slots; cheap decisions;
//! * **data locality** — dispatch ready tasks FIFO, but place each on the
//!   node caching the most input bytes; each decision costs more because
//!   candidate nodes are scored.
//!
//! The decision *cost* (master-side overhead per task) comes from
//! [`ClusterSpec`](gpuflow_cluster::ClusterSpec); the policy here decides
//! placement.

use std::cmp::{Ordering, Reverse};
use std::collections::BTreeSet;

use gpuflow_sim::SimDuration;

use crate::task::TaskId;

/// The scheduling policy factor of Table 1, plus an extension policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulingPolicy {
    /// Dispatch in task generation order; placement ignores data.
    GenerationOrder,
    /// Placement prefers nodes already caching the task's inputs.
    DataLocality,
    /// Extension: HEFT-style dispatch by upward rank (critical-path
    /// length to the sink), with locality-aware placement. Not part of
    /// the paper's comparison; used by the scheduler-ablation study.
    CriticalPath,
}

impl SchedulingPolicy {
    /// The paper's two policies, in its presentation order (the
    /// extension policy is deliberately excluded: Figs. 10-11 compare
    /// exactly these two).
    pub const ALL: [SchedulingPolicy; 2] = [
        SchedulingPolicy::GenerationOrder,
        SchedulingPolicy::DataLocality,
    ];

    /// Human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            SchedulingPolicy::GenerationOrder => "task gen. order",
            SchedulingPolicy::DataLocality => "data locality",
            SchedulingPolicy::CriticalPath => "critical path",
        }
    }
}

/// A total-order key over an upward rank (a non-NaN `f64`).
///
/// Ordering agrees with `partial_cmp` on every non-NaN value: `-0.0` is
/// normalised to `+0.0` at construction, so `total_cmp`'s artificial
/// `-0.0 < +0.0` distinction never surfaces, and ties fall through to
/// whatever secondary key the container pairs it with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankKey(f64);

impl RankKey {
    /// Wraps `rank`; `-0.0` collapses to `+0.0`.
    pub fn new(rank: f64) -> Self {
        debug_assert!(!rank.is_nan(), "task ranks must be comparable");
        RankKey(if rank == 0.0 { 0.0 } else { rank })
    }
}

impl Eq for RankKey {}

impl PartialOrd for RankKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RankKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A task's resource class: which free-capacity test decides whether it
/// can be placed right now. The class depends only on the task and the
/// run configuration, so it is fixed for the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskClass {
    /// Runs its parallel fraction on a GPU, holding one host core.
    Gpu,
    /// A CPU task with no parallel fraction: holds one core.
    CpuSerial,
    /// A CPU task with a parallel fraction: holds the configured thread
    /// count of cores.
    CpuParallel,
}

impl TaskClass {
    /// Every class, indexed as the ready queue stores them.
    pub const ALL: [TaskClass; 3] = [TaskClass::Gpu, TaskClass::CpuSerial, TaskClass::CpuParallel];

    /// Host cores a task of this class holds while it runs.
    pub fn cores(self, cpu_threads_per_task: usize) -> usize {
        match self {
            TaskClass::Gpu | TaskClass::CpuSerial => 1,
            TaskClass::CpuParallel => cpu_threads_per_task,
        }
    }
}

/// Dispatch-order key: rank descending, then task id ascending.
type ReadyKey = (Reverse<RankKey>, TaskId);

/// The executor's ready set, kept in dispatch order and split by
/// [`TaskClass`], so a scheduling decision compares at most one head per
/// class instead of walking the set.
///
/// Dispatch order (what [`ReadyQueue::iter`] yields across all classes)
/// is the order the seed executor produced by sorting on each decision:
///
/// * [`SchedulingPolicy::CriticalPath`] — descending upward rank, ties
///   on ascending task id (HEFT dispatch order);
/// * the other policies ignore ranks (every task is keyed with rank 0),
///   so iteration is plain ascending task id — generation order.
///
/// The key is a total order, so the first task in dispatch order whose
/// class is eligible is the smallest head among the eligible classes.
#[derive(Debug, Clone)]
pub struct ReadyQueue {
    use_rank: bool,
    classes: [BTreeSet<ReadyKey>; 3],
}

impl ReadyQueue {
    /// An empty queue ordered for `policy`.
    pub fn new(policy: SchedulingPolicy) -> Self {
        ReadyQueue {
            use_rank: policy == SchedulingPolicy::CriticalPath,
            classes: Default::default(),
        }
    }

    fn key(&self, rank: f64, task: TaskId) -> ReadyKey {
        let rank = if self.use_rank { rank } else { 0.0 };
        (Reverse(RankKey::new(rank)), task)
    }

    /// Inserts `task` of `class` with its upward rank. Re-inserting is a
    /// no-op as long as the class and rank are unchanged (both are fixed
    /// per run).
    pub fn insert(&mut self, class: TaskClass, rank: f64, task: TaskId) {
        let key = self.key(rank, task);
        self.classes[class as usize].insert(key);
    }

    /// Removes `task`, which must have been inserted with `class` and
    /// `rank`. Returns whether it was present.
    pub fn remove(&mut self, class: TaskClass, rank: f64, task: TaskId) -> bool {
        let key = self.key(rank, task);
        self.classes[class as usize].remove(&key)
    }

    /// Tasks in dispatch order, merged across classes.
    pub fn iter(&self) -> impl Iterator<Item = TaskId> + '_ {
        let mut heads = [0, 1, 2].map(|c| self.classes[c].iter().peekable());
        std::iter::from_fn(move || {
            let (_, c) = (0..heads.len())
                .filter_map(|c| heads[c].peek().map(|&&key| (key, c)))
                .min()?;
            heads[c].next().map(|&(_, task)| task)
        })
    }

    /// Removes and returns the first task in dispatch order whose class
    /// passes `eligible`: the smallest head among the eligible classes.
    /// Looks at one head per class; when nothing is eligible the queue
    /// is left untouched.
    pub fn take_first(&mut self, mut eligible: impl FnMut(TaskClass) -> bool) -> Option<TaskId> {
        let (_, c) = self
            .classes
            .iter()
            .enumerate()
            .filter(|&(c, _)| eligible(TaskClass::ALL[c]))
            .filter_map(|(c, set)| set.first().map(|head| (head, c)))
            .min()?;
        self.classes[c].pop_first().map(|(_, task)| task)
    }

    /// Empties the queue.
    pub fn clear(&mut self) {
        self.classes.iter_mut().for_each(BTreeSet::clear);
    }

    /// Number of ready tasks.
    pub fn len(&self) -> usize {
        self.classes.iter().map(BTreeSet::len).sum()
    }

    /// Whether no task is ready.
    pub fn is_empty(&self) -> bool {
        self.classes.iter().all(BTreeSet::is_empty)
    }
}

/// A candidate node as seen by the scheduler.
#[derive(Debug, Clone, Copy)]
pub struct NodeAvail {
    /// Node index.
    pub node: usize,
    /// Free execution slots (cores, or GPU+core pairs in a GPU run).
    pub free_slots: usize,
    /// Bytes of the candidate task's inputs cached on this node.
    pub cached_bytes: u64,
}

/// Chooses the node for one task from an availability snapshot, or
/// `None` when no node has a free slot.
///
/// `rotation` is the caller's running decision counter. The
/// generation-order policy is location-oblivious: it hands the task to
/// the next free node in round-robin order, so the block-to-node mapping
/// drifts between algorithm iterations (and cached inputs are *not*
/// deliberately revisited — exactly the behaviour the data-locality
/// policy exists to fix).
pub fn place(policy: SchedulingPolicy, nodes: &[NodeAvail], rotation: usize) -> Option<usize> {
    match policy {
        SchedulingPolicy::GenerationOrder => {
            let n = nodes.len();
            (0..n)
                .map(|i| &nodes[(i + rotation) % n.max(1)])
                .find(|nd| nd.free_slots > 0)
                .map(|nd| nd.node)
        }
        SchedulingPolicy::DataLocality | SchedulingPolicy::CriticalPath => nodes
            .iter()
            .filter(|n| n.free_slots > 0)
            .max_by(|a, b| {
                a.cached_bytes
                    .cmp(&b.cached_bytes)
                    .then(a.free_slots.cmp(&b.free_slots))
                    .then(b.node.cmp(&a.node))
            })
            .map(|n| n.node),
    }
}

/// Picks a `(task, node)` assignment, or `None` when nothing can run.
///
/// `ready` is in generation order — both PyCOMPSs policies honour it for
/// *which* task runs next and differ only in *where* — but a head task
/// with no placeable node does not block later ready tasks whose resource
/// kind is available.
pub fn pick(
    policy: SchedulingPolicy,
    ready: &[TaskId],
    nodes_for: impl Fn(TaskId) -> Vec<NodeAvail>,
) -> Option<(TaskId, usize)> {
    ready
        .iter()
        .find_map(|&task| place(policy, &nodes_for(task), 0).map(|node| (task, node)))
}

/// Master-side cost of one scheduling decision for `policy`.
pub fn decision_overhead(
    policy: SchedulingPolicy,
    fifo: SimDuration,
    locality: SimDuration,
) -> SimDuration {
    match policy {
        SchedulingPolicy::GenerationOrder => fifo,
        // Both informed policies score candidate nodes per decision.
        SchedulingPolicy::DataLocality | SchedulingPolicy::CriticalPath => locality,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn avail(specs: &[(usize, usize, u64)]) -> Vec<NodeAvail> {
        specs
            .iter()
            .map(|&(node, free_slots, cached_bytes)| NodeAvail {
                node,
                free_slots,
                cached_bytes,
            })
            .collect()
    }

    #[test]
    fn returns_none_when_no_ready_tasks() {
        assert_eq!(
            pick(SchedulingPolicy::GenerationOrder, &[], |_| avail(&[(
                0, 4, 0
            )])),
            None
        );
    }

    #[test]
    fn returns_none_when_no_free_slots() {
        let got = pick(SchedulingPolicy::GenerationOrder, &[TaskId(0)], |_| {
            avail(&[(0, 0, 0), (1, 0, 0)])
        });
        assert_eq!(got, None);
    }

    #[test]
    fn generation_order_picks_first_ready_task() {
        let got = pick(
            SchedulingPolicy::GenerationOrder,
            &[TaskId(3), TaskId(7)],
            |_| avail(&[(0, 1, 0)]),
        );
        assert_eq!(got, Some((TaskId(3), 0)));
    }

    #[test]
    fn generation_order_round_robins_over_free_nodes() {
        let nodes = avail(&[(0, 1, 999), (1, 3, 0), (2, 2, 0)]);
        assert_eq!(place(SchedulingPolicy::GenerationOrder, &nodes, 0), Some(0));
        assert_eq!(place(SchedulingPolicy::GenerationOrder, &nodes, 1), Some(1));
        assert_eq!(place(SchedulingPolicy::GenerationOrder, &nodes, 2), Some(2));
        assert_eq!(place(SchedulingPolicy::GenerationOrder, &nodes, 3), Some(0));
    }

    #[test]
    fn generation_order_skips_full_nodes_in_rotation() {
        let nodes = avail(&[(0, 0, 0), (1, 1, 0), (2, 0, 0)]);
        for rot in 0..6 {
            assert_eq!(
                place(SchedulingPolicy::GenerationOrder, &nodes, rot),
                Some(1)
            );
        }
    }

    #[test]
    fn locality_prefers_cached_bytes() {
        let got = pick(SchedulingPolicy::DataLocality, &[TaskId(0)], |_| {
            avail(&[(0, 3, 10), (1, 1, 500), (2, 2, 10)])
        });
        assert_eq!(got, Some((TaskId(0), 1)));
    }

    #[test]
    fn locality_falls_back_to_free_slots_on_tie() {
        let got = pick(SchedulingPolicy::DataLocality, &[TaskId(0)], |_| {
            avail(&[(0, 1, 0), (1, 4, 0)])
        });
        assert_eq!(got, Some((TaskId(0), 1)));
    }

    #[test]
    fn locality_skips_full_nodes_even_if_cached() {
        let got = pick(SchedulingPolicy::DataLocality, &[TaskId(0)], |_| {
            avail(&[(0, 0, 10_000), (1, 1, 0)])
        });
        assert_eq!(got, Some((TaskId(0), 1)));
    }

    #[test]
    fn pick_uses_rotation_zero() {
        let got = pick(SchedulingPolicy::GenerationOrder, &[TaskId(0)], |_| {
            avail(&[(2, 2, 0), (0, 2, 0), (1, 2, 0)])
        });
        assert_eq!(got, Some((TaskId(0), 2)), "first slice entry at rotation 0");
    }

    #[test]
    fn overheads_follow_policy() {
        let f = SimDuration::from_micros(800);
        let l = SimDuration::from_micros(3500);
        assert_eq!(
            decision_overhead(SchedulingPolicy::GenerationOrder, f, l),
            f
        );
        assert_eq!(decision_overhead(SchedulingPolicy::DataLocality, f, l), l);
        assert_eq!(decision_overhead(SchedulingPolicy::CriticalPath, f, l), l);
    }

    #[test]
    fn critical_path_places_like_locality() {
        let nodes = avail(&[(0, 3, 10), (1, 1, 500), (2, 2, 10)]);
        assert_eq!(place(SchedulingPolicy::CriticalPath, &nodes, 0), Some(1));
    }

    #[test]
    fn rank_key_orders_like_partial_cmp() {
        assert!(RankKey::new(1.0) < RankKey::new(2.0));
        assert!(RankKey::new(0.0) < RankKey::new(f64::INFINITY));
        assert_eq!(RankKey::new(-0.0), RankKey::new(0.0));
        assert_eq!(
            RankKey::new(-0.0).cmp(&RankKey::new(0.0)),
            std::cmp::Ordering::Equal
        );
    }

    #[test]
    fn ready_queue_critical_path_orders_by_rank_then_id() {
        let mut q = ReadyQueue::new(SchedulingPolicy::CriticalPath);
        q.insert(TaskClass::Gpu, 1.0, TaskId(5));
        q.insert(TaskClass::CpuSerial, 3.0, TaskId(9));
        q.insert(TaskClass::CpuParallel, 3.0, TaskId(2));
        q.insert(TaskClass::Gpu, 0.5, TaskId(0));
        let order: Vec<TaskId> = q.iter().collect();
        assert_eq!(order, vec![TaskId(2), TaskId(9), TaskId(5), TaskId(0)]);
    }

    #[test]
    fn ready_queue_other_policies_order_by_id() {
        for policy in [
            SchedulingPolicy::GenerationOrder,
            SchedulingPolicy::DataLocality,
        ] {
            let mut q = ReadyQueue::new(policy);
            q.insert(TaskClass::CpuSerial, 1.0, TaskId(5));
            q.insert(TaskClass::Gpu, 9.0, TaskId(7));
            q.insert(TaskClass::CpuSerial, 4.0, TaskId(1));
            let order: Vec<TaskId> = q.iter().collect();
            assert_eq!(order, vec![TaskId(1), TaskId(5), TaskId(7)], "{policy:?}");
        }
    }

    #[test]
    fn take_first_removes_the_first_eligible_task_in_dispatch_order() {
        let mut q = ReadyQueue::new(SchedulingPolicy::GenerationOrder);
        q.insert(TaskClass::Gpu, 0.0, TaskId(2));
        q.insert(TaskClass::CpuSerial, 0.0, TaskId(5));
        q.insert(TaskClass::CpuParallel, 0.0, TaskId(8));
        q.insert(TaskClass::CpuSerial, 0.0, TaskId(9));
        let cpu = |c: TaskClass| c != TaskClass::Gpu;
        assert_eq!(q.take_first(cpu), Some(TaskId(5)));
        assert_eq!(q.len(), 3);
        assert_eq!(q.take_first(|_| true), Some(TaskId(2)));
        assert_eq!(q.take_first(|c| c == TaskClass::Gpu), None);
        assert_eq!(q.len(), 2, "no match leaves the queue untouched");
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![TaskId(8), TaskId(9)]);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn ready_queue_remove_uses_the_insertion_class_and_rank() {
        let mut q = ReadyQueue::new(SchedulingPolicy::CriticalPath);
        q.insert(TaskClass::Gpu, 2.5, TaskId(3));
        q.insert(TaskClass::CpuSerial, 1.0, TaskId(4));
        assert!(
            !q.remove(TaskClass::CpuSerial, 2.5, TaskId(3)),
            "wrong class"
        );
        assert!(q.remove(TaskClass::Gpu, 2.5, TaskId(3)));
        assert!(!q.remove(TaskClass::Gpu, 2.5, TaskId(3)), "already gone");
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.iter().next(), Some(TaskId(4)));
    }

    #[test]
    fn task_class_cores() {
        assert_eq!(TaskClass::Gpu.cores(4), 1);
        assert_eq!(TaskClass::CpuSerial.cores(4), 1);
        assert_eq!(TaskClass::CpuParallel.cores(4), 4);
    }
}
