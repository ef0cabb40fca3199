//! `dag_storm`: the three `repro perf` stress shapes at 10^5 tasks each
//! under `stress::stress_config()`, telemetry off. Every run's virtual
//! makespan and output fingerprint are pinned per shape.

use gpuflow_experiments::stress::{self, Shape};
use gpuflow_runtime::{run, RunConfig, Workflow};

use crate::stats::{host_clock, Tally};
use crate::trace::Tracer;
use crate::{alloc, Env, Workload};

/// Tasks per shape: the flat regime of the ns/task curve, and the size
/// `repro perf` measures by default.
pub const TASKS: usize = 100_000;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// `(shape, makespan f64 bits, output fingerprint)` of each shape at
/// [`TASKS`] under `stress_config()`. Host-only changes must keep them.
pub const PINNED: [(Shape, u64, u64); 3] = [
    (Shape::Wide, 0x4054_003a_3fea_af3e, 0xcbf2_9ce4_8422_2325),
    (Shape::Stencil, 0x4054_009c_7b99_b1f6, 0xb095_4b56_6938_114d),
    (Shape::Tree, 0x4054_02a4_c0bc_fca9, 0xddc2_fa06_0e37_805d),
];

/// Checks one run's simulated outcome against [`PINNED`].
pub fn check(shape: Shape, makespan: f64, fingerprint: u64) -> Result<(), String> {
    let &(_, bits, fp) = PINNED
        .iter()
        .find(|(s, _, _)| *s == shape)
        .expect("every shape is pinned");
    if makespan.to_bits() != bits || fingerprint != fp {
        return Err(format!(
            "{}: makespan {makespan} (bits {:#x}) fingerprint {fingerprint:#x}, pinned bits {bits:#x} fingerprint {fp:#x}",
            shape.label(),
            makespan.to_bits()
        ));
    }
    Ok(())
}

pub struct DagStorm {
    dags: Vec<(Shape, Workflow)>,
    cfg: RunConfig,
}

pub fn setup(_env: &Env, tr: &mut Tracer, tally: &mut Tally) -> DagStorm {
    let mut dags = Vec::new();
    for _ in 0..SETUP_REPS {
        // Drop the previous repetition's DAGs first so peak memory holds
        // one set.
        dags.clear();
        let op = tr.begin_op("setup");
        let t0 = host_clock();
        let mut tasks = 0;
        for shape in Shape::ALL {
            let span = tr.begin("experiments", shape.label());
            let wf = stress::build(shape, TASKS);
            tr.end(span);
            tasks += wf.tasks().len();
            dags.push((shape, wf));
        }
        let secs = t0.elapsed().as_secs_f64();
        tr.end(op);
        tally.setup_s.push(secs);
        tally.sample("workflow.build_ns_per_task", secs * 1e9 / tasks as f64);
    }
    DagStorm {
        dags,
        cfg: stress::stress_config(),
    }
}

impl Workload for DagStorm {
    fn pass(&mut self, tr: &mut Tracer, tally: &mut Tally) {
        let op = tr.begin_op("storm_pass");
        let mut pass_ns = 0.0;
        let (mut allocs, mut bytes, mut tasks) = (0u64, 0u64, 0usize);
        for (shape, wf) in &self.dags {
            let label = shape.label();
            let span = tr.begin("runtime", label);
            let (a0, b0) = alloc::snapshot();
            let t = host_clock();
            let result = run(wf, &self.cfg);
            let ns = t.elapsed().as_nanos() as f64;
            let (a1, b1) = alloc::snapshot();
            tr.end(span);
            pass_ns += ns;
            let n = wf.tasks().len();
            let report = match result {
                Ok(r) => r,
                Err(e) => {
                    tally.op(false, || format!("{label}: run failed: {e}"));
                    continue;
                }
            };
            let verdict = check(*shape, report.makespan(), report.output_fingerprint);
            tally.op(verdict.is_ok(), || verdict.clone().unwrap_err());
            allocs += a1 - a0;
            bytes += b1 - b0;
            tasks += n;
            tally.sample(&format!("{label}_ns_per_task"), ns / n as f64);
            tally.sample(&format!("sim.makespan_s.{label}"), report.makespan());
            if *shape != Shape::Wide {
                let hits: u64 = report.records.iter().map(|r| u64::from(r.cache_hits)).sum();
                let misses: u64 = report
                    .records
                    .iter()
                    .map(|r| u64::from(r.cache_misses))
                    .sum();
                tally.sample(
                    &format!("cache.hit_ratio.{label}"),
                    hits as f64 / (hits + misses).max(1) as f64,
                );
            }
        }
        tr.end(op);
        tally.pass_ms.push(pass_ns / 1e6);
        if tasks > 0 {
            tally.sample("executor.allocs_per_task", allocs as f64 / tasks as f64);
            tally.sample("executor.alloc_bytes_per_task", bytes as f64 / tasks as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_reject_a_wrong_fingerprint_or_makespan() {
        let (shape, bits, fp) = PINNED[1];
        let makespan = f64::from_bits(bits);
        assert!(check(shape, makespan, fp).is_ok());
        assert!(check(shape, makespan, fp ^ 1).is_err());
        assert!(check(shape, makespan * 1.000001, fp).is_err());
    }
}
