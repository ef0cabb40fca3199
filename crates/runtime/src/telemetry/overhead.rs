//! Makespan decomposition — the Dask-overheads view of a run.
//!
//! "Runtime vs Scheduler" style accounting: every instant of the
//! makespan is attributed to exactly one bucket, by priority:
//!
//! 1. **compute** — at least one task is in its serial or parallel
//!    fraction (CPU compute or GPU kernel);
//! 2. **data movement** — no compute, but at least one task is
//!    (de)serializing or moving data over the PCIe bus;
//! 3. **recovery** — no productive work, but fault handling is under
//!    way: stage/transfer intervals that belong to a task attempt which
//!    later failed (wasted work), and retry backoff windows;
//! 4. **master** — nothing executes and the master is making a
//!    scheduling decision (pure scheduler overhead on the critical
//!    path);
//! 5. **idle** — nothing at all is happening (dependency stalls).
//!
//! Because the classification is exhaustive and exclusive, the five
//! buckets sum to the makespan exactly. Runs without a fault plan emit
//! no failure events, so `recovery` is identically zero and the report
//! reduces to the original four-bucket decomposition.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use gpuflow_sim::SimDuration;

use crate::trace::TraceState;

use super::event::TelemetryEvent;
use super::TelemetryLog;

/// Wall-clock attribution of one run (seconds).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OverheadReport {
    /// The makespan being decomposed.
    pub makespan: f64,
    /// Seconds with at least one compute stage active.
    pub compute: f64,
    /// Seconds with data movement but no compute.
    pub data_movement: f64,
    /// Seconds spent on fault recovery with no productive work
    /// overlapping: wasted stages of attempts that later failed, plus
    /// retry backoff windows.
    pub recovery: f64,
    /// Seconds where only the master was busy scheduling.
    pub master: f64,
    /// Seconds with nothing happening.
    pub idle: f64,
    /// Scheduling decisions made.
    pub decisions: usize,
    /// Task attempts lost to injected faults.
    pub task_failures: usize,
    /// Retry backoffs entered.
    pub retries: usize,
    /// Total master decision time in sim seconds (decisions may overlap
    /// task execution; this is the raw sum, not the critical-path
    /// `master` bucket).
    pub master_sim_total: f64,
    /// Total wall-clock nanoseconds the host spent inside the
    /// scheduler. Nondeterministic; informational only.
    pub master_host_nanos: u64,
    /// The makespan on the nanosecond grid. The five `*_ns` buckets sum
    /// to this **exactly** — the differential analysis relies on the
    /// integer identity, not the floating-point one.
    pub makespan_ns: u64,
    /// `compute` in integer nanoseconds.
    pub compute_ns: u64,
    /// `data_movement` in integer nanoseconds.
    pub data_movement_ns: u64,
    /// `recovery` in integer nanoseconds.
    pub recovery_ns: u64,
    /// `master` in integer nanoseconds.
    pub master_ns: u64,
    /// `idle` in integer nanoseconds.
    pub idle_ns: u64,
}

/// The `(t, category, ±1)` depth deltas of the sweep, each packed into
/// one integer whose order is the tuple order: the instant, then the
/// category, then closes before opens.
///
/// Every instant is clamped to the makespan first. That is exact: once
/// the sweep reaches the makespan it attributes no more time, so the
/// order among deltas at or past it cannot matter. A clamped instant
/// needs as many bits as the makespan, so makespans of up to
/// [`SweepKeys::NARROW_MAX_NS`] (about 73 years) use 64-bit keys and
/// longer ones 128-bit keys; no instant is ever truncated.
enum SweepKeys {
    Narrow { keys: Vec<u64>, makespan_ns: u64 },
    Wide { keys: Vec<u128>, makespan_ns: u64 },
}

impl SweepKeys {
    /// Bits below the instant: two for the category, one for the sign.
    const LOW_BITS: u32 = 3;

    /// Longest makespan whose instants fit a 64-bit key.
    const NARROW_MAX_NS: u64 = u64::MAX >> Self::LOW_BITS;

    fn for_makespan(makespan_ns: u64) -> Self {
        if makespan_ns <= Self::NARROW_MAX_NS {
            SweepKeys::Narrow {
                keys: Vec::new(),
                makespan_ns,
            }
        } else {
            SweepKeys::Wide {
                keys: Vec::new(),
                makespan_ns,
            }
        }
    }

    /// Records `[t0, t1)` of category `cat` (0..4).
    fn interval(&mut self, t0: u64, t1: u64, cat: u8) {
        let low = |open: bool| u64::from(cat) << 1 | u64::from(open);
        match self {
            SweepKeys::Narrow { keys, makespan_ns } => keys.extend([
                t0.min(*makespan_ns) << Self::LOW_BITS | low(true),
                t1.min(*makespan_ns) << Self::LOW_BITS | low(false),
            ]),
            SweepKeys::Wide { keys, makespan_ns } => keys.extend([
                u128::from(t0.min(*makespan_ns)) << Self::LOW_BITS | u128::from(low(true)),
                u128::from(t1.min(*makespan_ns)) << Self::LOW_BITS | u128::from(low(false)),
            ]),
        }
    }

    /// Calls `f(t, category, opens)` for every delta in sweep order.
    fn sweep(self, mut f: impl FnMut(u64, usize, bool)) {
        let mask = (1u64 << Self::LOW_BITS) - 1;
        let mut emit = |t: u64, low: u64| f(t, (low >> 1) as usize, low & 1 == 1);
        match self {
            SweepKeys::Narrow { mut keys, .. } => {
                keys.sort();
                for k in keys {
                    emit(k >> Self::LOW_BITS, k & mask);
                }
            }
            SweepKeys::Wide { mut keys, .. } => {
                keys.sort();
                for k in keys {
                    // The instant was a u64 before the shift.
                    emit((k >> Self::LOW_BITS) as u64, k as u64 & mask);
                }
            }
        }
    }
}

impl OverheadReport {
    /// Decomposes `makespan` seconds using the stage and decision
    /// events of `log`.
    pub fn from_log(log: &TelemetryLog, makespan: f64) -> Self {
        // Pre-pass: the [dispatch, failure] windows of attempts that
        // were later lost. Stage/transfer intervals fully inside such a
        // window are wasted work — reclassified as recovery.
        let mut failed_windows: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        let mut task_failures = 0usize;
        let mut retries = 0usize;
        for ev in log.events() {
            if let TelemetryEvent::TaskFailed {
                task, started, at, ..
            } = ev
            {
                task_failures += 1;
                failed_windows
                    .entry(task.0)
                    .or_default()
                    .push((started.as_nanos(), at.as_nanos()));
            }
        }
        let wasted = |task: u32, t0: u64, t1: u64| {
            failed_windows
                .get(&task)
                .is_some_and(|ws| ws.iter().any(|&(s, e)| s <= t0 && t1 <= e))
        };
        // Category depth deltas on the nanosecond timeline:
        // 0 = compute, 1 = data movement, 2 = master, 3 = recovery.
        let makespan_ns = SimDuration::from_secs_f64(makespan).as_nanos();
        let mut deltas = SweepKeys::for_makespan(makespan_ns);
        let mut decisions = 0usize;
        let mut master_sim_total = 0.0f64;
        let mut master_host_nanos = 0u64;
        for ev in log.events() {
            match ev {
                TelemetryEvent::Stage {
                    task,
                    state,
                    t0,
                    t1,
                    ..
                } => {
                    let cat = if wasted(task.0, t0.as_nanos(), t1.as_nanos()) {
                        3
                    } else {
                        match state {
                            TraceState::SerialFraction | TraceState::ParallelFraction => 0,
                            TraceState::Deserialize
                            | TraceState::Serialize
                            | TraceState::CpuGpuComm => 1,
                        }
                    };
                    deltas.interval(t0.as_nanos(), t1.as_nanos(), cat);
                }
                TelemetryEvent::Transfer { task, t0, t1, .. } => {
                    // Transfers are already covered by their stage
                    // intervals, but standalone streams (e.g. filtered
                    // logs) still classify them as data movement.
                    let cat = if wasted(task.0, t0.as_nanos(), t1.as_nanos()) {
                        3
                    } else {
                        1
                    };
                    deltas.interval(t0.as_nanos(), t1.as_nanos(), cat);
                }
                TelemetryEvent::Decision(d) => {
                    decisions += 1;
                    master_sim_total += d.sim_overhead.as_secs_f64();
                    master_host_nanos += d.host_nanos;
                    deltas.interval(d.at.as_nanos(), (d.at + d.sim_overhead).as_nanos(), 2);
                }
                TelemetryEvent::TaskRetry { at, until, .. } => {
                    retries += 1;
                    deltas.interval(at.as_nanos(), until.as_nanos(), 3);
                }
                _ => {}
            }
        }
        let mut depth = [0i64; 4];
        let mut acc_ns = [0u64; 4]; // compute, data, master, recovery
        let mut idle_ns = 0u64;
        let mut prev = 0u64;
        deltas.sweep(|t, cat, open| {
            if t > prev {
                let span = t - prev;
                if depth[0] > 0 {
                    acc_ns[0] += span;
                } else if depth[1] > 0 {
                    acc_ns[1] += span;
                } else if depth[3] > 0 {
                    acc_ns[3] += span;
                } else if depth[2] > 0 {
                    acc_ns[2] += span;
                } else {
                    idle_ns += span;
                }
                prev = t;
            }
            depth[cat] += if open { 1 } else { -1 };
        });
        idle_ns += makespan_ns.saturating_sub(prev);
        OverheadReport {
            makespan,
            compute: acc_ns[0] as f64 / 1e9,
            data_movement: acc_ns[1] as f64 / 1e9,
            recovery: acc_ns[3] as f64 / 1e9,
            master: acc_ns[2] as f64 / 1e9,
            idle: idle_ns as f64 / 1e9,
            decisions,
            task_failures,
            retries,
            master_sim_total,
            master_host_nanos,
            makespan_ns,
            compute_ns: acc_ns[0],
            data_movement_ns: acc_ns[1],
            recovery_ns: acc_ns[3],
            master_ns: acc_ns[2],
            idle_ns,
        }
    }

    /// The five buckets in integer nanoseconds, in report order. They
    /// sum to [`OverheadReport::makespan_ns`] exactly.
    pub fn buckets_ns(&self) -> [(&'static str, u64); 5] {
        [
            ("compute", self.compute_ns),
            ("data_movement", self.data_movement_ns),
            ("recovery", self.recovery_ns),
            ("master", self.master_ns),
            ("idle", self.idle_ns),
        ]
    }

    /// Sum of the five buckets (equals the makespan up to the
    /// nanosecond grid).
    pub fn total(&self) -> f64 {
        self.compute + self.data_movement + self.recovery + self.master + self.idle
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let pct = |v: f64| {
            if self.makespan > 0.0 {
                100.0 * v / self.makespan
            } else {
                0.0
            }
        };
        let _ = writeln!(out, "makespan decomposition ({:.6} s total)", self.makespan);
        let _ = writeln!(
            out,
            "  compute        {:>12.6} s  {:>5.1} %",
            self.compute,
            pct(self.compute)
        );
        let _ = writeln!(
            out,
            "  data movement  {:>12.6} s  {:>5.1} %",
            self.data_movement,
            pct(self.data_movement)
        );
        let _ = writeln!(
            out,
            "  recovery       {:>12.6} s  {:>5.1} %",
            self.recovery,
            pct(self.recovery)
        );
        let _ = writeln!(
            out,
            "  master         {:>12.6} s  {:>5.1} %",
            self.master,
            pct(self.master)
        );
        let _ = writeln!(
            out,
            "  idle           {:>12.6} s  {:>5.1} %",
            self.idle,
            pct(self.idle)
        );
        let _ = writeln!(
            out,
            "decisions: {}   total master sim-time: {:.6} s   host time: {:.3} ms",
            self.decisions,
            self.master_sim_total,
            self.master_host_nanos as f64 / 1e6
        );
        if self.task_failures > 0 || self.retries > 0 {
            let _ = writeln!(
                out,
                "task failures: {}   retries: {}",
                self.task_failures, self.retries
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskId;
    use crate::telemetry::event::SchedulerDecision;
    use gpuflow_sim::{SimDuration, SimTime};

    fn stage(state: TraceState, t0: u64, t1: u64) -> TelemetryEvent {
        TelemetryEvent::Stage {
            task: TaskId(0),
            node: 0,
            core: 0,
            gpu: None,
            state,
            t0: SimTime::from_nanos(t0),
            t1: SimTime::from_nanos(t1),
        }
    }

    fn decision(at: u64, overhead: u64) -> TelemetryEvent {
        TelemetryEvent::Decision(SchedulerDecision {
            at: SimTime::from_nanos(at),
            task: TaskId(0),
            chosen: 0,
            queue_depth: 1,
            sim_overhead: SimDuration::from_nanos(overhead),
            host_nanos: 5,
            candidates: Vec::new(),
        })
    }

    #[test]
    fn buckets_partition_the_makespan() {
        // master 0..1, deser 1..3, compute 2..6 (wins the overlap),
        // idle 6..10.
        let log = TelemetryLog::from_events(vec![
            decision(0, 1_000_000_000),
            stage(TraceState::Deserialize, 1_000_000_000, 3_000_000_000),
            stage(TraceState::ParallelFraction, 2_000_000_000, 6_000_000_000),
        ]);
        let r = OverheadReport::from_log(&log, 10.0);
        assert!((r.master - 1.0).abs() < 1e-9, "{r:?}");
        assert!((r.data_movement - 1.0).abs() < 1e-9, "{r:?}");
        assert!((r.compute - 4.0).abs() < 1e-9, "{r:?}");
        assert!((r.idle - 4.0).abs() < 1e-9, "{r:?}");
        assert!((r.total() - r.makespan).abs() < 1e-9);
        assert_eq!(r.decisions, 1);
        assert_eq!(r.master_host_nanos, 5);
    }

    #[test]
    fn compute_masks_concurrent_master_time() {
        let log = TelemetryLog::from_events(vec![
            stage(TraceState::ParallelFraction, 0, 4_000_000_000),
            decision(1_000_000_000, 1_000_000_000),
        ]);
        let r = OverheadReport::from_log(&log, 4.0);
        assert_eq!(r.master, 0.0, "masked by compute");
        assert!((r.master_sim_total - 1.0).abs() < 1e-9, "raw sum kept");
        assert!((r.compute - 4.0).abs() < 1e-9);
    }

    #[test]
    fn empty_log_is_all_idle() {
        let r = OverheadReport::from_log(&TelemetryLog::default(), 2.0);
        assert!((r.idle - 2.0).abs() < 1e-12);
        assert!((r.total() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn render_mentions_every_bucket() {
        let r = OverheadReport::from_log(&TelemetryLog::default(), 1.0);
        let text = r.render();
        for needle in [
            "compute",
            "data movement",
            "recovery",
            "master",
            "idle",
            "decisions",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn failed_attempt_work_and_backoff_count_as_recovery() {
        // Attempt 0 of task 0 deserializes 0..1 s and computes 1..2 s,
        // then fails at 2 s; backoff spans 2..3 s; the rerun computes
        // 3..5 s. The first attempt's work plus the backoff is
        // recovery; only the rerun is compute.
        let log = TelemetryLog::from_events(vec![
            stage(TraceState::Deserialize, 0, 1_000_000_000),
            stage(TraceState::ParallelFraction, 1_000_000_000, 2_000_000_000),
            TelemetryEvent::TaskFailed {
                at: SimTime::from_nanos(2_000_000_000),
                task: TaskId(0),
                node: 0,
                attempt: 0,
                started: SimTime::from_nanos(0),
                reason: "transient",
            },
            TelemetryEvent::TaskRetry {
                at: SimTime::from_nanos(2_000_000_000),
                task: TaskId(0),
                attempt: 1,
                until: SimTime::from_nanos(3_000_000_000),
            },
            stage(TraceState::ParallelFraction, 3_000_000_000, 5_000_000_000),
        ]);
        let r = OverheadReport::from_log(&log, 5.0);
        assert!((r.recovery - 3.0).abs() < 1e-9, "{r:?}");
        assert!((r.compute - 2.0).abs() < 1e-9, "{r:?}");
        assert_eq!(r.data_movement, 0.0, "wasted deser reclassified: {r:?}");
        assert!((r.total() - r.makespan).abs() < 1e-9);
        assert_eq!(r.task_failures, 1);
        assert_eq!(r.retries, 1);
    }

    #[test]
    fn live_compute_masks_concurrent_recovery() {
        let log = TelemetryLog::from_events(vec![
            stage(TraceState::ParallelFraction, 0, 4_000_000_000),
            TelemetryEvent::TaskRetry {
                at: SimTime::from_nanos(1_000_000_000),
                task: TaskId(9),
                attempt: 1,
                until: SimTime::from_nanos(2_000_000_000),
            },
        ]);
        let r = OverheadReport::from_log(&log, 4.0);
        assert_eq!(r.recovery, 0.0, "masked by compute: {r:?}");
        assert!((r.compute - 4.0).abs() < 1e-9);
    }
}
