//! Property suite for the rank-ordered ready structure: its iteration
//! order must reproduce, for every policy, exactly the order the seed
//! executor produced by collecting and sorting the ready set on each
//! scheduling decision, and its per-class `take_first` must pick the
//! task a front-to-back walk of one undivided set would pick.

use std::cmp::Reverse;
use std::collections::BTreeSet;

use gpuflow_runtime::{RankKey, ReadyQueue, SchedulingPolicy, TaskClass, TaskId};
use proptest::prelude::*;

const POLICIES: [SchedulingPolicy; 3] = [
    SchedulingPolicy::GenerationOrder,
    SchedulingPolicy::DataLocality,
    SchedulingPolicy::CriticalPath,
];

/// A fixed class per task id, as in the executor.
fn class_of(id: u32) -> TaskClass {
    TaskClass::ALL[id as usize % 3]
}

/// The seed executor's dispatch order: ascending task id, except under
/// CriticalPath, which sorted by descending upward rank with ties on
/// ascending task id.
fn seed_order(policy: SchedulingPolicy, tasks: &[(u32, f64)]) -> Vec<TaskId> {
    let mut ids: Vec<TaskId> = tasks.iter().map(|&(id, _)| TaskId(id)).collect();
    ids.sort();
    ids.dedup();
    if policy == SchedulingPolicy::CriticalPath {
        let rank = |t: TaskId| tasks.iter().find(|&&(id, _)| id == t.0).expect("present").1;
        ids.sort_by(|a, b| {
            rank(*b)
                .partial_cmp(&rank(*a))
                .expect("finite ranks")
                .then(a.cmp(b))
        });
    }
    ids
}

fn queue_order(policy: SchedulingPolicy, tasks: &[(u32, f64)]) -> Vec<TaskId> {
    let mut q = ReadyQueue::new(policy);
    let mut seen = BTreeSet::new();
    for &(id, rank) in tasks {
        if seen.insert(id) {
            q.insert(class_of(id), rank, TaskId(id));
        }
    }
    q.iter().collect()
}

proptest! {
    /// Under every policy, the queue iterates in the seed's sort order.
    #[test]
    fn ready_queue_matches_seed_sort(
        ids in prop::collection::vec(0u32..64, 1..40),
        ranks in prop::collection::vec(0.0f64..100.0, 40..41),
    ) {
        // Pair each distinct id with a rank; duplicated ids keep their
        // first rank (ranks are per-task constants in the executor).
        let tasks: Vec<(u32, f64)> = ids
            .iter()
            .map(|&id| (id, ranks[id as usize % ranks.len()]))
            .collect();
        for policy in POLICIES {
            prop_assert_eq!(
                queue_order(policy, &tasks),
                seed_order(policy, &tasks),
                "policy {:?}",
                policy
            );
        }
    }

    /// Removing the front repeatedly pops tasks in dispatch order, and
    /// interleaved insert/remove keeps the order consistent.
    #[test]
    fn ready_queue_pops_in_dispatch_order(
        ids in prop::collection::vec(0u32..48, 1..30),
    ) {
        let tasks: Vec<(u32, f64)> = ids.iter().map(|&id| (id, (id % 7) as f64)).collect();
        for policy in [
            SchedulingPolicy::GenerationOrder,
            SchedulingPolicy::CriticalPath,
        ] {
            let mut q = ReadyQueue::new(policy);
            let mut seen = BTreeSet::new();
            for &(id, rank) in &tasks {
                if seen.insert(id) {
                    q.insert(class_of(id), rank, TaskId(id));
                }
            }
            let expected = seed_order(policy, &tasks);
            let mut popped = Vec::new();
            loop {
                let front = q.iter().next();
                let Some(front) = front else { break };
                let rank = (front.0 % 7) as f64;
                prop_assert!(q.remove(class_of(front.0), rank, front));
                popped.push(front);
            }
            prop_assert_eq!(popped, expected, "policy {:?}", policy);
            prop_assert!(q.is_empty());
            prop_assert_eq!(q.len(), 0);
        }
    }

    /// The split queue against the undivided reference, over random
    /// insert / remove / take sequences. Ranks come from four values so
    /// CriticalPath sees ties; masks cover "no class eligible" (0) and
    /// "every class eligible" (7).
    #[test]
    fn split_queue_matches_one_set_walked_with_a_class_predicate(
        ops in prop::collection::vec((0u32..3, 0u32..32, 0u32..8), 1..160),
        ranks in prop::collection::vec(0u32..4, 32..33),
    ) {
        for policy in POLICIES {
            let mut q = ReadyQueue::new(policy);
            let mut oracle = OneSet::new(policy);
            for &(op, id, mask) in &ops {
                let (task, rank) = (TaskId(id), ranks[id as usize] as f64);
                match op {
                    0 => {
                        q.insert(class_of(id), rank, task);
                        oracle.insert(rank, task);
                    }
                    1 => prop_assert_eq!(
                        q.remove(class_of(id), rank, task),
                        oracle.remove(rank, task)
                    ),
                    _ => {
                        let eligible = |c: TaskClass| mask & (1 << c as u32) != 0;
                        prop_assert_eq!(
                            q.take_first(eligible),
                            oracle.take_first(eligible),
                            "policy {:?}, mask {}",
                            policy,
                            mask
                        );
                    }
                }
                prop_assert_eq!(q.len(), oracle.set.len());
                prop_assert_eq!(q.is_empty(), oracle.set.is_empty());
                prop_assert!(q.iter().eq(oracle.set.iter().map(|&(_, t)| t)));
            }
        }
    }
}

/// The reference ready structure: one dispatch-ordered set, searched
/// front to back for the first task whose class passes the predicate.
struct OneSet {
    use_rank: bool,
    set: BTreeSet<(Reverse<RankKey>, TaskId)>,
}

impl OneSet {
    fn new(policy: SchedulingPolicy) -> Self {
        OneSet {
            use_rank: policy == SchedulingPolicy::CriticalPath,
            set: BTreeSet::new(),
        }
    }

    fn key(&self, rank: f64, task: TaskId) -> (Reverse<RankKey>, TaskId) {
        (
            Reverse(RankKey::new(if self.use_rank { rank } else { 0.0 })),
            task,
        )
    }

    fn insert(&mut self, rank: f64, task: TaskId) {
        let key = self.key(rank, task);
        self.set.insert(key);
    }

    fn remove(&mut self, rank: f64, task: TaskId) -> bool {
        let key = self.key(rank, task);
        self.set.remove(&key)
    }

    fn take_first(&mut self, eligible: impl Fn(TaskClass) -> bool) -> Option<TaskId> {
        let key = *self.set.iter().find(|&&(_, t)| eligible(class_of(t.0)))?;
        self.set.remove(&key);
        Some(key.1)
    }
}
