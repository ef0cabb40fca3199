//! Property suite for the overhead sweep of [`OverheadReport::from_log`].
//!
//! Random stage, transfer, decision and retry intervals on a coarse grid
//! (so opens and closes of different categories collide on the same
//! instant), failed-attempt windows that turn work into recovery, and
//! instants past the makespan. Grids near 2^61 ns put the makespan on
//! both sides of the largest makespan a 64-bit sweep key can hold.
//! The five `*_ns` buckets must partition the makespan exactly and
//! match a naive classifier that checks every elementary segment
//! against every interval.

use gpuflow_runtime::{
    OverheadReport, SchedulerDecision, TaskId, TelemetryEvent, TelemetryLog, TraceState,
};
use gpuflow_sim::{SimDuration, SimTime};
use proptest::prelude::*;

/// Bucket order of the naive classifier (priority order).
const COMPUTE: usize = 0;
const DATA: usize = 1;
const RECOVERY: usize = 2;
const MASTER: usize = 3;
const IDLE: usize = 4;

const STATES: [TraceState; 5] = [
    TraceState::Deserialize,
    TraceState::SerialFraction,
    TraceState::ParallelFraction,
    TraceState::CpuGpuComm,
    TraceState::Serialize,
];

fn at(ns: u64) -> SimTime {
    SimTime::from_nanos(ns)
}

/// One generated interval as an event: kinds 0–4 are stages (by
/// state), 5 a transfer, 6 a decision, 7 a retry backoff.
fn event(kind: u32, task: u32, t0: u64, t1: u64) -> TelemetryEvent {
    let task = TaskId(task);
    match kind {
        0..=4 => TelemetryEvent::Stage {
            task,
            node: 0,
            core: 0,
            gpu: None,
            state: STATES[kind as usize],
            t0: at(t0),
            t1: at(t1),
        },
        5 => TelemetryEvent::Transfer {
            task,
            node: 0,
            link: gpuflow_runtime::LinkKind::StorageRead,
            bytes: 1,
            t0: at(t0),
            t1: at(t1),
        },
        6 => TelemetryEvent::Decision(SchedulerDecision {
            at: at(t0),
            task,
            chosen: 0,
            queue_depth: 1,
            sim_overhead: SimDuration::from_nanos(t1 - t0),
            host_nanos: 0,
            candidates: Vec::new(),
        }),
        _ => TelemetryEvent::TaskRetry {
            at: at(t0),
            task,
            attempt: 1,
            until: at(t1),
        },
    }
}

/// Buckets by brute force: cut `[0, makespan)` at every instant, and
/// give each segment the highest-priority category of any interval
/// covering it.
fn naive(events: &[TelemetryEvent], makespan_ns: u64) -> [u64; 5] {
    let failed: Vec<(u32, u64, u64)> = events
        .iter()
        .filter_map(|e| match e {
            TelemetryEvent::TaskFailed {
                task, started, at, ..
            } => Some((task.0, started.as_nanos(), at.as_nanos())),
            _ => None,
        })
        .collect();
    let wasted = |task: TaskId, t0: u64, t1: u64| {
        failed
            .iter()
            .any(|&(t, s, e)| t == task.0 && s <= t0 && t1 <= e)
    };
    let mut intervals: Vec<(u64, u64, usize)> = Vec::new();
    for e in events {
        let (t0, t1, cat) = match e {
            TelemetryEvent::Stage {
                task,
                state,
                t0,
                t1,
                ..
            } => {
                let (t0, t1) = (t0.as_nanos(), t1.as_nanos());
                let cat = if wasted(*task, t0, t1) {
                    RECOVERY
                } else if matches!(
                    state,
                    TraceState::SerialFraction | TraceState::ParallelFraction
                ) {
                    COMPUTE
                } else {
                    DATA
                };
                (t0, t1, cat)
            }
            TelemetryEvent::Transfer { task, t0, t1, .. } => {
                let (t0, t1) = (t0.as_nanos(), t1.as_nanos());
                let cat = if wasted(*task, t0, t1) {
                    RECOVERY
                } else {
                    DATA
                };
                (t0, t1, cat)
            }
            TelemetryEvent::Decision(d) => {
                (d.at.as_nanos(), (d.at + d.sim_overhead).as_nanos(), MASTER)
            }
            TelemetryEvent::TaskRetry { at, until, .. } => {
                (at.as_nanos(), until.as_nanos(), RECOVERY)
            }
            _ => continue,
        };
        intervals.push((t0, t1, cat));
    }
    let mut cuts: Vec<u64> = vec![0, makespan_ns];
    for &(t0, t1, _) in &intervals {
        cuts.push(t0.min(makespan_ns));
        cuts.push(t1.min(makespan_ns));
    }
    cuts.sort();
    cuts.dedup();
    let mut buckets = [0u64; 5];
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let cat = intervals
            .iter()
            .filter(|&&(t0, t1, _)| t0 <= a && b <= t1)
            .map(|&(_, _, cat)| cat)
            .min()
            .unwrap_or(IDLE);
        buckets[cat] += b - a;
    }
    buckets
}

proptest! {
    #[test]
    fn buckets_partition_the_makespan_and_match_the_naive_classifier(
        intervals in prop::collection::vec((0u32..8, (0u64..40, 0u64..12), 0u32..4), 0..40),
        failures in prop::collection::vec((0u32..4, (0u64..40, 0u64..20)), 0..4),
        makespan_units in 1u64..45,
        grid in (0u32..3, prop::bool::ANY),
    ) {
        let unit = [1u64, 1_000, 1_000_000_000][grid.0 as usize];
        // Far grids start 20 units below the largest instant a 64-bit
        // sweep key holds, so some makespans fit it and some do not.
        let origin = if grid.1 { (u64::MAX >> 3) - 20 * unit } else { 0 };
        let t = |units: u64| origin + units * unit;
        let mut events: Vec<TelemetryEvent> = intervals
            .iter()
            .map(|&(kind, (start, len), task)| event(kind, task, t(start), t(start + len)))
            .collect();
        for &(task, (start, len)) in &failures {
            events.push(TelemetryEvent::TaskFailed {
                at: at(t(start + len)),
                task: TaskId(task),
                node: 0,
                attempt: 0,
                started: at(t(start)),
                reason: "transient",
            });
        }
        let makespan = t(makespan_units) as f64 / 1e9;
        let log = TelemetryLog::from_events(events);
        let r = OverheadReport::from_log(&log, makespan);

        prop_assert_eq!(r.makespan_ns, SimDuration::from_secs_f64(makespan).as_nanos());
        let total: u64 = r.buckets_ns().iter().map(|(_, ns)| ns).sum();
        prop_assert_eq!(total, r.makespan_ns);
        let want = naive(log.events(), r.makespan_ns);
        prop_assert_eq!(
            [r.compute_ns, r.data_movement_ns, r.recovery_ns, r.master_ns, r.idle_ns],
            want
        );
    }
}
