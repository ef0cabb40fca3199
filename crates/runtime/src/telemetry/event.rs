//! Typed runtime events.
//!
//! Every observable action of the runtime — task lifecycle transitions,
//! scheduler decisions, processing-stage intervals, link transfers,
//! cache activity, and resource gauges — is one variant of
//! [`TelemetryEvent`]. Events are emitted in simulation order, so a
//! replayed stream reconstructs the run exactly.

use std::fmt::Write as _;

use gpuflow_sim::{SimDuration, SimTime};

use crate::data::DataVersion;
use crate::task::{TaskId, TaskType};
use crate::trace::TraceState;

/// One candidate node as the scheduler scored it for a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateScore {
    /// Node index.
    pub node: usize,
    /// Free execution slots at decision time.
    pub free_slots: usize,
    /// Bytes of the task's inputs cached on this node (0 for policies
    /// that do not score the cache).
    pub cached_bytes: u64,
}

/// One master scheduling decision: the candidate set considered, the
/// chosen placement, and what the decision cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerDecision {
    /// Simulation instant of the decision.
    pub at: SimTime,
    /// The task being placed.
    pub task: TaskId,
    /// The chosen node.
    pub chosen: usize,
    /// Ready-queue depth at decision time (including this task).
    pub queue_depth: usize,
    /// Modelled master-side overhead of the decision, in simulation
    /// time.
    pub sim_overhead: SimDuration,
    /// The scored candidate set, one entry per cluster node.
    pub candidates: Vec<CandidateScore>,
}

/// Which modelled link carried a data transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkKind {
    /// Storage read (shared filesystem or a node-local disk).
    StorageRead,
    /// Storage write.
    StorageWrite,
    /// Host-to-device over the PCIe bus.
    HostToDevice,
    /// Device-to-host over the PCIe bus.
    DeviceToHost,
}

impl LinkKind {
    /// Short label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            LinkKind::StorageRead => "read",
            LinkKind::StorageWrite => "write",
            LinkKind::HostToDevice => "h2d",
            LinkKind::DeviceToHost => "d2h",
        }
    }
}

/// A structured runtime event.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// A task's dependencies are satisfied; it entered the ready queue.
    TaskReady {
        /// Instant the task became ready.
        at: SimTime,
        /// The task.
        task: TaskId,
    },
    /// The master placed a task (see [`SchedulerDecision`]).
    Decision(SchedulerDecision),
    /// A task acquired its resources and started executing.
    TaskDispatched {
        /// Dispatch instant.
        at: SimTime,
        /// The task.
        task: TaskId,
        /// Task type.
        task_type: TaskType,
        /// Executing node.
        node: usize,
        /// First host core held.
        core: u16,
        /// Number of host cores held.
        cores: u16,
        /// GPU device held, if any.
        gpu: Option<u16>,
    },
    /// A task finished one processing stage of Fig. 4.
    Stage {
        /// The task.
        task: TaskId,
        /// Executing node.
        node: usize,
        /// Host core driving the stage.
        core: u16,
        /// GPU device, for kernel and CPU-GPU transfer stages.
        gpu: Option<u16>,
        /// The stage.
        state: TraceState,
        /// Interval start.
        t0: SimTime,
        /// Interval end.
        t1: SimTime,
    },
    /// Bytes moved over a modelled link on behalf of a task.
    Transfer {
        /// The task.
        task: TaskId,
        /// Node that issued the transfer.
        node: usize,
        /// The link.
        link: LinkKind,
        /// Payload bytes.
        bytes: u64,
        /// Flow start (after protocol latency).
        t0: SimTime,
        /// Flow completion.
        t1: SimTime,
    },
    /// A worker cache lookup.
    CacheAccess {
        /// Lookup instant.
        at: SimTime,
        /// Node whose cache was consulted.
        node: usize,
        /// The task reading its input.
        task: TaskId,
        /// The data version looked up.
        key: DataVersion,
        /// Whether the lookup hit.
        hit: bool,
    },
    /// A worker cache insert evicted least-recently-used entries.
    CacheEvicted {
        /// Insert instant.
        at: SimTime,
        /// Node whose cache evicted.
        node: usize,
        /// Entries evicted by this insert.
        count: u64,
    },
    /// Sampled per-node resource occupancy (emitted on every dispatch,
    /// completion, abort, cache eviction, node crash, and node rejoin —
    /// every instant the occupancy changes or is invalidated).
    NodeGauge {
        /// Sample instant.
        at: SimTime,
        /// The node.
        node: usize,
        /// Working-set bytes resident on the node.
        ram_used: u64,
        /// Host cores currently held by tasks.
        busy_cores: usize,
        /// GPU devices currently held by tasks.
        busy_gpus: usize,
    },
    /// A task released its resources with outputs on storage.
    TaskCompleted {
        /// Completion instant.
        at: SimTime,
        /// The task.
        task: TaskId,
        /// Node that executed it.
        node: usize,
    },
    /// A fault from the configured plan fired.
    FaultInjected {
        /// Injection instant.
        at: SimTime,
        /// Affected node (cluster-wide faults carry `None`).
        node: Option<usize>,
        /// What was injected (`node-crash`, `node-rejoin`,
        /// `gpu-failure`).
        what: &'static str,
    },
    /// A running task attempt was lost.
    TaskFailed {
        /// Failure instant.
        at: SimTime,
        /// The task.
        task: TaskId,
        /// Node the attempt ran on.
        node: usize,
        /// The attempt that failed (first execution is attempt 0).
        attempt: u32,
        /// Dispatch instant of the lost attempt (its work in
        /// `[started, at]` is wasted and attributed to recovery).
        started: SimTime,
        /// Failure cause (`transient`, `node-crash`, `gpu-failure`).
        reason: &'static str,
    },
    /// A failed task entered its virtual-time retry backoff.
    TaskRetry {
        /// Backoff start.
        at: SimTime,
        /// The task.
        task: TaskId,
        /// The upcoming attempt number.
        attempt: u32,
        /// Backoff end: the task re-enters the ready queue here.
        until: SimTime,
    },
    /// A task lost with its node re-entered the ready queue for
    /// placement elsewhere.
    TaskResubmitted {
        /// Resubmission instant.
        at: SimTime,
        /// The task.
        task: TaskId,
        /// The node the previous attempt was lost on.
        from_node: usize,
    },
    /// A node left the cluster (quarantined until rejoin, if any).
    NodeDown {
        /// Quarantine instant.
        at: SimTime,
        /// The node.
        node: usize,
    },
    /// A quarantined node rejoined with cold caches and empty local
    /// storage.
    NodeUp {
        /// Rejoin instant.
        at: SimTime,
        /// The node.
        node: usize,
    },
    /// Blocks resident on a crashed node were invalidated (their
    /// producers re-run via lineage).
    BlocksInvalidated {
        /// Invalidation instant.
        at: SimTime,
        /// The crashed node.
        node: usize,
        /// Cache entries dropped.
        count: u64,
        /// Local-storage data versions lost (regenerated via lineage).
        lost_versions: u64,
    },
}

impl TelemetryEvent {
    /// Short kind tag used by exports and summaries.
    pub fn kind(&self) -> &'static str {
        match self {
            TelemetryEvent::TaskReady { .. } => "ready",
            TelemetryEvent::Decision(_) => "decision",
            TelemetryEvent::TaskDispatched { .. } => "dispatch",
            TelemetryEvent::Stage { .. } => "stage",
            TelemetryEvent::Transfer { .. } => "transfer",
            TelemetryEvent::CacheAccess { .. } => "cache",
            TelemetryEvent::CacheEvicted { .. } => "evict",
            TelemetryEvent::NodeGauge { .. } => "gauge",
            TelemetryEvent::TaskCompleted { .. } => "complete",
            TelemetryEvent::FaultInjected { .. } => "fault",
            TelemetryEvent::TaskFailed { .. } => "failed",
            TelemetryEvent::TaskRetry { .. } => "retry",
            TelemetryEvent::TaskResubmitted { .. } => "resubmit",
            TelemetryEvent::NodeDown { .. } => "node-down",
            TelemetryEvent::NodeUp { .. } => "node-up",
            TelemetryEvent::BlocksInvalidated { .. } => "invalidate",
        }
    }

    /// One deterministic JSON object (no trailing newline). Times are
    /// integer nanoseconds.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        match self {
            TelemetryEvent::TaskReady { at, task } => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"ready\",\"t\":{},\"task\":{}}}",
                    at.as_nanos(),
                    task.0
                );
            }
            TelemetryEvent::Decision(d) => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"decision\",\"t\":{},\"task\":{},\"node\":{},\"queue_depth\":{},\"overhead_ns\":{},\"candidates\":[",
                    d.at.as_nanos(),
                    d.task.0,
                    d.chosen,
                    d.queue_depth,
                    d.sim_overhead.as_nanos()
                );
                for (i, c) in d.candidates.iter().enumerate() {
                    let sep = if i == 0 { "" } else { "," };
                    let _ = write!(
                        s,
                        "{sep}{{\"node\":{},\"free_slots\":{},\"cached_bytes\":{}}}",
                        c.node, c.free_slots, c.cached_bytes
                    );
                }
                s.push_str("]}");
            }
            TelemetryEvent::TaskDispatched {
                at,
                task,
                task_type,
                node,
                core,
                cores,
                gpu,
            } => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"dispatch\",\"t\":{},\"task\":{},\"type\":\"",
                    at.as_nanos(),
                    task.0,
                );
                json_escape_into(&mut s, task_type);
                let _ = write!(
                    s,
                    "\",\"node\":{},\"core\":{},\"cores\":{},\"gpu\":{}}}",
                    node,
                    core,
                    cores,
                    OptNum(*gpu)
                );
            }
            TelemetryEvent::Stage {
                task,
                node,
                core,
                gpu,
                state,
                t0,
                t1,
            } => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"stage\",\"task\":{},\"node\":{},\"core\":{},\"gpu\":{},\"state\":\"{}\",\"t0\":{},\"t1\":{}}}",
                    task.0,
                    node,
                    core,
                    OptNum(*gpu),
                    state.label(),
                    t0.as_nanos(),
                    t1.as_nanos()
                );
            }
            TelemetryEvent::Transfer {
                task,
                node,
                link,
                bytes,
                t0,
                t1,
            } => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"transfer\",\"task\":{},\"node\":{},\"link\":\"{}\",\"bytes\":{},\"t0\":{},\"t1\":{}}}",
                    task.0,
                    node,
                    link.label(),
                    bytes,
                    t0.as_nanos(),
                    t1.as_nanos()
                );
            }
            TelemetryEvent::CacheAccess {
                at,
                node,
                task,
                key,
                hit,
            } => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"cache\",\"t\":{},\"node\":{},\"task\":{},\"data\":{},\"version\":{},\"hit\":{}}}",
                    at.as_nanos(),
                    node,
                    task.0,
                    key.id.0,
                    key.version,
                    hit
                );
            }
            TelemetryEvent::CacheEvicted { at, node, count } => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"evict\",\"t\":{},\"node\":{},\"count\":{}}}",
                    at.as_nanos(),
                    node,
                    count
                );
            }
            TelemetryEvent::NodeGauge {
                at,
                node,
                ram_used,
                busy_cores,
                busy_gpus,
            } => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"gauge\",\"t\":{},\"node\":{},\"ram\":{},\"busy_cores\":{},\"busy_gpus\":{}}}",
                    at.as_nanos(),
                    node,
                    ram_used,
                    busy_cores,
                    busy_gpus
                );
            }
            TelemetryEvent::TaskCompleted { at, task, node } => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"complete\",\"t\":{},\"task\":{},\"node\":{}}}",
                    at.as_nanos(),
                    task.0,
                    node
                );
            }
            TelemetryEvent::FaultInjected { at, node, what } => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"fault\",\"t\":{},\"node\":{},\"what\":\"{}\"}}",
                    at.as_nanos(),
                    OptUsize(*node),
                    what
                );
            }
            TelemetryEvent::TaskFailed {
                at,
                task,
                node,
                attempt,
                started,
                reason,
            } => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"failed\",\"t\":{},\"task\":{},\"node\":{},\"attempt\":{},\"started\":{},\"reason\":\"{}\"}}",
                    at.as_nanos(),
                    task.0,
                    node,
                    attempt,
                    started.as_nanos(),
                    reason
                );
            }
            TelemetryEvent::TaskRetry {
                at,
                task,
                attempt,
                until,
            } => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"retry\",\"t\":{},\"task\":{},\"attempt\":{},\"until\":{}}}",
                    at.as_nanos(),
                    task.0,
                    attempt,
                    until.as_nanos()
                );
            }
            TelemetryEvent::TaskResubmitted {
                at,
                task,
                from_node,
            } => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"resubmit\",\"t\":{},\"task\":{},\"from_node\":{}}}",
                    at.as_nanos(),
                    task.0,
                    from_node
                );
            }
            TelemetryEvent::NodeDown { at, node } => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"node-down\",\"t\":{},\"node\":{}}}",
                    at.as_nanos(),
                    node
                );
            }
            TelemetryEvent::NodeUp { at, node } => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"node-up\",\"t\":{},\"node\":{}}}",
                    at.as_nanos(),
                    node
                );
            }
            TelemetryEvent::BlocksInvalidated {
                at,
                node,
                count,
                lost_versions,
            } => {
                let _ = write!(
                    s,
                    "{{\"ev\":\"invalidate\",\"t\":{},\"node\":{},\"count\":{},\"lost_versions\":{}}}",
                    at.as_nanos(),
                    node,
                    count,
                    lost_versions
                );
            }
        }
        s
    }
}

/// `Option<u16>` rendered as a JSON number or `null`.
struct OptNum(Option<u16>);

impl std::fmt::Display for OptNum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            Some(v) => write!(f, "{v}"),
            None => write!(f, "null"),
        }
    }
}

/// `Option<usize>` rendered as a JSON number or `null`.
struct OptUsize(Option<usize>);

impl std::fmt::Display for OptUsize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            Some(v) => write!(f, "{v}"),
            None => write!(f, "null"),
        }
    }
}

/// Appends `s` to `out`, escaped for embedding in a JSON string
/// literal: quote, backslash, `\n`, `\r` and `\t` get their short
/// escapes, other control characters `\u00XX`. This is the runtime's
/// one JSON string escaper; every JSON export goes through it.
pub fn json_escape_into(out: &mut String, s: &str) {
    // Every byte that needs escaping is ASCII, so the unescaped runs
    // between them are whole UTF-8 sequences and are copied in bulk.
    let mut run_start = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run_start..i]);
        run_start = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run_start..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_lines_are_compact_objects() {
        let ev = TelemetryEvent::TaskReady {
            at: SimTime::from_nanos(5),
            task: TaskId(3),
        };
        assert_eq!(ev.to_json(), "{\"ev\":\"ready\",\"t\":5,\"task\":3}");
    }

    #[test]
    fn decision_serializes_candidates_in_order() {
        let ev = TelemetryEvent::Decision(SchedulerDecision {
            at: SimTime::from_nanos(10),
            task: TaskId(1),
            chosen: 2,
            queue_depth: 4,
            sim_overhead: SimDuration::from_micros(800),
            candidates: vec![
                CandidateScore {
                    node: 0,
                    free_slots: 1,
                    cached_bytes: 0,
                },
                CandidateScore {
                    node: 1,
                    free_slots: 0,
                    cached_bytes: 7,
                },
            ],
        });
        let json = ev.to_json();
        assert!(json.contains("\"queue_depth\":4"));
        assert!(json.contains("\"overhead_ns\":800000"));
        assert!(json.contains("{\"node\":0,\"free_slots\":1,\"cached_bytes\":0}"));
    }

    #[test]
    fn gpu_is_null_or_number() {
        let mk = |gpu| TelemetryEvent::Stage {
            task: TaskId(0),
            node: 0,
            core: 1,
            gpu,
            state: TraceState::ParallelFraction,
            t0: SimTime::from_nanos(0),
            t1: SimTime::from_nanos(1),
        };
        assert!(mk(None).to_json().contains("\"gpu\":null"));
        assert!(mk(Some(2)).to_json().contains("\"gpu\":2"));
    }

    fn escaped(s: &str) -> String {
        let mut out = String::from("<");
        json_escape_into(&mut out, s);
        out
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escaped("a\"b\\c\n"), "<a\\\"b\\\\c\\n");
        assert_eq!(escaped("plain"), "<plain");
        assert_eq!(escaped("\r\t\u{1}\u{1f}"), "<\\r\\t\\u0001\\u001f");
        assert_eq!(
            escaped("é\"ü\u{7f}"),
            "<é\\\"ü\u{7f}",
            "non-ASCII passes through"
        );
        assert_eq!(escaped(""), "<");
    }

    #[test]
    fn kinds_are_distinct() {
        let evs = [
            TelemetryEvent::TaskReady {
                at: SimTime::ZERO,
                task: TaskId(0),
            },
            TelemetryEvent::CacheEvicted {
                at: SimTime::ZERO,
                node: 0,
                count: 1,
            },
            TelemetryEvent::TaskCompleted {
                at: SimTime::ZERO,
                task: TaskId(0),
                node: 0,
            },
        ];
        let kinds: Vec<_> = evs.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, vec!["ready", "evict", "complete"]);
    }

    #[test]
    fn fault_events_serialize_deterministically() {
        let failed = TelemetryEvent::TaskFailed {
            at: SimTime::from_nanos(20),
            task: TaskId(4),
            node: 1,
            attempt: 0,
            started: SimTime::from_nanos(5),
            reason: "transient",
        };
        assert_eq!(
            failed.to_json(),
            "{\"ev\":\"failed\",\"t\":20,\"task\":4,\"node\":1,\"attempt\":0,\"started\":5,\"reason\":\"transient\"}"
        );
        let fault = TelemetryEvent::FaultInjected {
            at: SimTime::from_nanos(7),
            node: None,
            what: "node-crash",
        };
        assert!(fault.to_json().contains("\"node\":null"));
        let retry = TelemetryEvent::TaskRetry {
            at: SimTime::from_nanos(20),
            task: TaskId(4),
            attempt: 1,
            until: SimTime::from_nanos(30),
        };
        assert!(retry.to_json().contains("\"until\":30"));
        let inval = TelemetryEvent::BlocksInvalidated {
            at: SimTime::from_nanos(9),
            node: 2,
            count: 3,
            lost_versions: 1,
        };
        assert!(inval.to_json().contains("\"lost_versions\":1"));
    }

    #[test]
    fn fault_kinds_are_distinct_tags() {
        let evs = [
            TelemetryEvent::FaultInjected {
                at: SimTime::ZERO,
                node: Some(0),
                what: "gpu-failure",
            },
            TelemetryEvent::TaskResubmitted {
                at: SimTime::ZERO,
                task: TaskId(0),
                from_node: 0,
            },
            TelemetryEvent::NodeDown {
                at: SimTime::ZERO,
                node: 0,
            },
            TelemetryEvent::NodeUp {
                at: SimTime::ZERO,
                node: 0,
            },
        ];
        let kinds: Vec<_> = evs.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, vec!["fault", "resubmit", "node-down", "node-up"]);
    }
}
