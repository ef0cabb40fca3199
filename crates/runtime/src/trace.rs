//! Paraver-like execution traces.
//!
//! The paper collects (de)serialization times from traces generated by the
//! PyCOMPSs runtime and visualised in Paraver (§4.4.3). Our executor emits
//! equivalent state records — one interval per task processing stage per
//! resource — exportable as CSV or rendered as a coarse ASCII Gantt chart.

use std::fmt::Write as _;

use gpuflow_sim::SimTime;

use crate::task::TaskId;

/// What a resource is doing during an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceState {
    /// Reading and decoding input data.
    Deserialize,
    /// Executing the serial fraction on a CPU core.
    SerialFraction,
    /// Executing the parallel fraction (CPU core or GPU device).
    ParallelFraction,
    /// Moving data over the CPU-GPU bus.
    CpuGpuComm,
    /// Encoding and writing output data.
    Serialize,
}

impl TraceState {
    /// Short label used in CSV exports and Gantt lanes.
    pub fn label(self) -> &'static str {
        match self {
            TraceState::Deserialize => "deser",
            TraceState::SerialFraction => "serial",
            TraceState::ParallelFraction => "parallel",
            TraceState::CpuGpuComm => "comm",
            TraceState::Serialize => "ser",
        }
    }

    /// One-character glyph for the ASCII Gantt.
    pub fn glyph(self) -> char {
        match self {
            TraceState::Deserialize => 'd',
            TraceState::SerialFraction => 's',
            TraceState::ParallelFraction => '#',
            TraceState::CpuGpuComm => '~',
            TraceState::Serialize => 'w',
        }
    }
}

/// One interval of one task on one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Node executing the stage.
    pub node: usize,
    /// Host core (within the node) driving the stage.
    pub core: u16,
    /// Task.
    pub task: TaskId,
    /// Stage.
    pub state: TraceState,
    /// Interval start.
    pub t0: SimTime,
    /// Interval end.
    pub t1: SimTime,
}

/// An execution trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record (zero-length intervals are dropped).
    pub fn push(&mut self, rec: TraceRecord) {
        if rec.t1 > rec.t0 {
            self.records.push(rec);
        }
    }

    /// All records in emission order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Builds the trace from the `Stage` events of a run's telemetry
    /// stream (collected under [`crate::RunConfig::with_telemetry`]),
    /// the one record of a run. Records keep stream order; zero-length
    /// intervals are dropped, as [`Trace::push`] does. An empty stream
    /// gives an empty trace.
    pub fn from_telemetry(log: &crate::telemetry::TelemetryLog) -> Self {
        let mut trace = Trace::new();
        for ev in log.events() {
            if let crate::telemetry::TelemetryEvent::Stage {
                task,
                node,
                core,
                state,
                t0,
                t1,
                ..
            } = ev
            {
                trace.push(TraceRecord {
                    node: *node,
                    core: *core,
                    task: *task,
                    state: *state,
                    t0: *t0,
                    t1: *t1,
                });
            }
        }
        trace
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// CSV export: `node,core,task,state,start_s,end_s`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("node,core,task,state,start_s,end_s\n");
        for r in &self.records {
            let _ = writeln!(
                out,
                "{},{},{},{},{:.6},{:.6}",
                r.node,
                r.core,
                r.task.0,
                r.state.label(),
                r.t0.as_secs_f64(),
                r.t1.as_secs_f64()
            );
        }
        out
    }

    /// A coarse ASCII Gantt chart: one lane per task (first `max_lanes`),
    /// `width` columns spanning the trace duration.
    pub fn to_ascii_gantt(&self, width: usize, max_lanes: usize) -> String {
        if self.records.is_empty() {
            return String::from("(empty trace)\n");
        }
        let t_end = self
            .records
            .iter()
            .map(|r| r.t1)
            .max()
            .expect("non-empty")
            .as_secs_f64()
            .max(1e-12);
        let mut tasks: Vec<TaskId> = self.records.iter().map(|r| r.task).collect();
        tasks.sort();
        tasks.dedup();
        tasks.truncate(max_lanes);
        let mut out = String::new();
        let _ = writeln!(out, "time 0 .. {t_end:.3}s ({width} cols)");
        for task in tasks {
            let mut lane = vec![' '; width];
            for r in self.records.iter().filter(|r| r.task == task) {
                let a = ((r.t0.as_secs_f64() / t_end) * width as f64) as usize;
                let b = (((r.t1.as_secs_f64() / t_end) * width as f64).ceil() as usize).min(width);
                for cell in lane.iter_mut().take(b).skip(a) {
                    *cell = r.state.glyph();
                }
            }
            let _ = writeln!(out, "t{:<5} |{}|", task.0, lane.iter().collect::<String>());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_nanos((s * 1e9) as u64)
    }

    fn rec(task: u32, state: TraceState, a: f64, b: f64) -> TraceRecord {
        TraceRecord {
            node: 0,
            core: 0,
            task: TaskId(task),
            state,
            t0: t(a),
            t1: t(b),
        }
    }

    #[test]
    fn zero_length_records_are_dropped() {
        let mut tr = Trace::new();
        tr.push(rec(0, TraceState::Deserialize, 1.0, 1.0));
        assert!(tr.is_empty());
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut tr = Trace::new();
        tr.push(rec(3, TraceState::ParallelFraction, 0.5, 1.5));
        let csv = tr.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("node,core,task,state,start_s,end_s"));
        assert_eq!(lines.next(), Some("0,0,3,parallel,0.500000,1.500000"));
    }

    #[test]
    fn gantt_renders_lanes_with_glyphs() {
        let mut tr = Trace::new();
        tr.push(rec(0, TraceState::Deserialize, 0.0, 0.5));
        tr.push(rec(0, TraceState::ParallelFraction, 0.5, 1.0));
        let g = tr.to_ascii_gantt(10, 8);
        assert!(g.contains("t0"));
        assert!(g.contains('d'));
        assert!(g.contains('#'));
    }

    #[test]
    fn gantt_handles_empty_trace() {
        assert_eq!(Trace::new().to_ascii_gantt(10, 4), "(empty trace)\n");
    }

    #[test]
    fn gantt_truncates_lanes() {
        let mut tr = Trace::new();
        for i in 0..10 {
            tr.push(rec(i, TraceState::Serialize, 0.0, 1.0));
        }
        let g = tr.to_ascii_gantt(10, 3);
        assert_eq!(g.lines().count(), 4); // header + 3 lanes
    }

    #[test]
    fn glyphs_are_distinct() {
        use TraceState::*;
        let glyphs = [
            Deserialize,
            SerialFraction,
            ParallelFraction,
            CpuGpuComm,
            Serialize,
        ]
        .map(|s| s.glyph());
        let mut unique = glyphs.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), glyphs.len());
    }
}

/// Paraver text-format export (`.prv`), the format of the tool the paper
/// used for its data-movement analysis (§4.4.3).
///
/// Emits the standard header plus one state record per trace interval:
/// `1:cpu:appl:task:thread:begin:end:state`. Nodes map to Paraver CPUs
/// and host cores to threads (both 1-based); the five processing stages
/// map to state values 1-5 in [`TraceState`] declaration order. A `.pcf`
/// legend is available from [`paraver_pcf`].
pub fn to_paraver_prv(trace: &Trace, nodes: usize) -> String {
    use std::fmt::Write as _;
    let end_ns = trace
        .records()
        .iter()
        .map(|r| r.t1.as_nanos())
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    // Header: #Paraver (date):duration_ns:nodes(cpus):n_appl:appl_list
    let _ = write!(out, "#Paraver (01/01/2024 at 00:00):{end_ns}_ns:{nodes}(");
    for i in 0..nodes {
        let sep = if i + 1 == nodes { "" } else { "," };
        let _ = write!(out, "1{sep}");
    }
    let _ = writeln!(out, "):1:1({nodes}:1)");
    for r in trace.records() {
        let state = match r.state {
            TraceState::Deserialize => 1,
            TraceState::SerialFraction => 2,
            TraceState::ParallelFraction => 3,
            TraceState::CpuGpuComm => 4,
            TraceState::Serialize => 5,
        };
        let _ = writeln!(
            out,
            "1:{}:1:{}:{}:{}:{}:{}",
            r.node + 1,
            r.task.0 + 1,
            r.core + 1,
            r.t0.as_nanos(),
            r.t1.as_nanos(),
            state
        );
    }
    out
}

/// The `.pcf` legend matching [`to_paraver_prv`]'s state encoding.
pub fn paraver_pcf() -> String {
    let mut out = String::from("STATES\n");
    for (value, state) in [
        TraceState::Deserialize,
        TraceState::SerialFraction,
        TraceState::ParallelFraction,
        TraceState::CpuGpuComm,
        TraceState::Serialize,
    ]
    .iter()
    .enumerate()
    {
        out.push_str(&format!("{}\t{}\n", value + 1, state.label()));
    }
    out
}

#[cfg(test)]
mod paraver_tests {
    use super::*;
    use gpuflow_sim::SimTime;

    fn t(s: f64) -> SimTime {
        SimTime::from_nanos((s * 1e9) as u64)
    }

    #[test]
    fn prv_has_header_and_state_records() {
        let mut tr = Trace::new();
        tr.push(TraceRecord {
            node: 2,
            core: 7,
            task: TaskId(5),
            state: TraceState::ParallelFraction,
            t0: t(1.0),
            t1: t(2.0),
        });
        let prv = to_paraver_prv(&tr, 4);
        let mut lines = prv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("#Paraver"));
        assert!(header.contains("2000000000_ns"));
        assert_eq!(lines.next(), Some("1:3:1:6:8:1000000000:2000000000:3"));
    }

    #[test]
    fn pcf_lists_all_five_states() {
        let pcf = paraver_pcf();
        assert!(pcf.starts_with("STATES"));
        for label in ["deser", "serial", "parallel", "comm", "ser"] {
            assert!(pcf.contains(label), "missing {label}");
        }
        assert_eq!(pcf.lines().count(), 6);
    }

    #[test]
    fn empty_trace_exports_header_only() {
        let prv = to_paraver_prv(&Trace::new(), 2);
        assert_eq!(prv.lines().count(), 1);
        assert!(prv.contains(":0_ns:"));
    }
}
