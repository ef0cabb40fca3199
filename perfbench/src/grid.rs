//! `paper_grid`: regenerates the 17 golden artifacts through the
//! experiments crate and checks each byte for byte against
//! `artifacts/<name>.txt`.

use std::path::Path;

use gpuflow_experiments::{
    ablation, factors, fig1, fig10, fig11, fig12, fig6, fig7, fig8, fig9, generalizability, memory,
    prediction, sensitivity, Context,
};

use crate::stats::{host_clock, Tally};
use crate::trace::Tracer;
use crate::{Env, Workload};

/// The golden artifacts, in `repro all` order.
pub const ARTIFACTS: [&str; 17] = [
    "table1",
    "fig1",
    "fig6",
    "fig7a",
    "fig7b",
    "fig8",
    "fig9a",
    "fig9b",
    "fig10a",
    "fig10b",
    "fig11",
    "fig12",
    "sensitivity",
    "generalizability",
    "prediction",
    "memory",
    "ablation",
];

/// Cheap artifacts rendered during set-up, on one thread, so lazy
/// initialisation is paid before the first timed pass. One thread keeps
/// thread start-up, which varies with the host, out of `setup_s`.
const WARMUP: [&str; 5] = ["table1", "fig6", "fig1", "fig9b", "memory"];

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Renders one artifact exactly as `repro <name> --out DIR` writes it.
pub fn render(ctx: &Context, name: &str) -> String {
    match name {
        "table1" => factors::render(),
        "fig1" => fig1::run(ctx).render(),
        "fig6" => {
            let f = fig6::run();
            format!(
                "{}\n--- kmeans DOT ---\n{}\n--- matmul DOT ---\n{}",
                f.render(),
                f.kmeans_dot,
                f.matmul_dot
            )
        }
        "fig7a" => {
            let paper = [
                gpuflow_data::paper::matmul_8gb(),
                gpuflow_data::paper::matmul_32gb(),
            ];
            paper
                .iter()
                .map(|d| fig7::run_matmul(ctx, d, &fig7::MATMUL_GRIDS).render())
                .collect::<Vec<_>>()
                .join("\n")
        }
        "fig7b" => {
            let paper = [
                gpuflow_data::paper::kmeans_10gb(),
                gpuflow_data::paper::kmeans_100gb(),
            ];
            paper
                .iter()
                .map(|d| {
                    fig7::run_kmeans(ctx, d, &fig7::KMEANS_GRIDS, 10, fig7::KMEANS_ITERATIONS)
                        .render()
                })
                .collect::<Vec<_>>()
                .join("\n")
        }
        "fig8" => fig8::run(ctx).render(),
        "fig9a" => fig9::run_9a(ctx).render(),
        "fig9b" => fig9::run_9b(ctx).render(),
        "fig10a" => fig10::run_matmul(ctx).render(),
        "fig10b" => fig10::run_kmeans(ctx).render(),
        "fig11" => fig11::run(ctx).render(),
        "fig12" => fig12::run(ctx).render(),
        "sensitivity" => sensitivity::render_all(),
        "generalizability" => generalizability::run(ctx).render(),
        "prediction" => prediction::run(ctx).render(),
        "memory" => memory::run(ctx).render(),
        "ablation" => format!(
            "{}\n{}",
            ablation::run_scheduler_ablation().render(),
            ablation::render_variance()
        ),
        other => panic!("unknown artifact {other}"),
    }
}

/// Where a rendered artifact first differs from its golden copy, or
/// `None` when they are byte-equal.
pub fn first_difference(rendered: &str, golden: &[u8]) -> Option<usize> {
    let r = rendered.as_bytes();
    if r == golden {
        return None;
    }
    Some(
        r.iter()
            .zip(golden)
            .position(|(a, b)| a != b)
            .unwrap_or(r.len().min(golden.len())),
    )
}

pub struct PaperGrid {
    ctx: Context,
    goldens: Vec<Vec<u8>>,
}

pub fn setup(env: &Env, tr: &mut Tracer, tally: &mut Tally) -> PaperGrid {
    // Sweeps fan out over at most two worker threads; results are
    // byte-identical at any thread count.
    let ctx = Context::default().with_threads(env.threads);
    let warmup_ctx = Context::default().with_threads(1);
    let mut goldens = Vec::new();
    for _ in 0..SETUP_REPS {
        let op = tr.begin_op("setup");
        let t0 = host_clock();
        goldens = ARTIFACTS
            .iter()
            .map(|a| {
                let path = Path::new("artifacts").join(format!("{a}.txt"));
                std::fs::read(&path).unwrap_or_else(|e| {
                    tally
                        .problems
                        .push(format!("cannot read {}: {e}", path.display()));
                    Vec::new()
                })
            })
            .collect();
        for a in WARMUP {
            let span = tr.begin("experiments", a);
            std::hint::black_box(render(&warmup_ctx, a));
            tr.end(span);
        }
        tally.setup_s.push(t0.elapsed().as_secs_f64());
        tr.end(op);
    }
    PaperGrid { ctx, goldens }
}

impl Workload for PaperGrid {
    fn pass(&mut self, tr: &mut Tracer, tally: &mut Tally) {
        let op = tr.begin_op("grid_pass");
        let t0 = host_clock();
        for (name, golden) in ARTIFACTS.iter().zip(&self.goldens) {
            let span = tr.begin("experiments", name);
            let t = host_clock();
            let out = render(&self.ctx, name);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            tr.end(span);
            tally.sample(&format!("experiments.{name}_ms"), ms);
            let diff = first_difference(&out, golden);
            tally.op(diff.is_none(), || {
                format!("artifact {name} differs from artifacts/{name}.txt at byte {diff:?}")
            });
        }
        let secs = t0.elapsed().as_secs_f64();
        tr.end(op);
        tally.pass_ms.push(secs * 1e3);
        tally.sample("grid_s", secs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_check_rejects_a_changed_byte() {
        let golden = render(&Context::default().with_threads(1), "table1").into_bytes();
        let rendered = String::from_utf8(golden.clone()).unwrap();
        assert_eq!(first_difference(&rendered, &golden), None);
        let mut changed = golden.clone();
        changed[10] ^= 1;
        assert_eq!(first_difference(&rendered, &changed), Some(10));
        assert!(first_difference(&rendered, &golden[..golden.len() - 1]).is_some());
    }
}
