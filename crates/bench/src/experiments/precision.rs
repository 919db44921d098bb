//! Mixed-precision ablation: bf16 storage / f32 accumulate through the
//! packed GEMM engine, across all eight workloads.
//!
//! Two questions per workload, all in inference mode:
//!
//! 1. **bf16 GEMM speedup** — the flop-dominant MatMul of the
//!    workload's *full-scale* (paper dimension) graph is timed
//!    standalone through the packed engine in f32 and in bf16. bf16
//!    panels halve the bytes the microkernel streams and, on hosts with
//!    AVX-512 BF16, each `vdpbf16ps` retires two multiply-accumulates
//!    per lane — so real model geometries speed up, while tiny GEMMs
//!    below the packing threshold fall back to f32 and report ~1.0x.
//! 2. **bf16 accuracy** — mean inference metric deviation from the f32
//!    reference over the measured steps.
//!
//! Besides the human-readable table, the experiment emits
//! `BENCH_precision.json` through `crate::measure` (every timed leg in
//! interleaved rounds, median and inter-quartile distance) so the
//! accuracy/perf trajectory is tracked across PRs. `tests/precision.rs`
//! asserts the same properties in tier-1; this ablation records the
//! magnitudes.

use std::fmt::Write as _;

use fathom::{BuildConfig, Mode, ModelKind, ModelScale, Precision, Workload};
use fathom_dataflow::{Json, OpKind};
use fathom_tensor::kernels::gemm::gemm_into;
use fathom_tensor::{ExecPool, Rng, Tensor};

use crate::measure::{emit, envelope, rounds, timed_ms, Spread, WithSpread};
use crate::{write_artifact, Effort};

/// Accuracy gate on the bf16 leg: mean-metric deviation beyond this
/// fails the workload (the bound `tests/precision.rs` asserts).
pub const TOLERANCE: f64 = 0.05;

const SEED: u64 = 0xFA7408;

/// One workload's mixed-precision comparison.
#[derive(Debug, Clone)]
pub struct PrecisionRow {
    /// Workload name.
    pub workload: &'static str,
    /// Flop-dominant GEMM geometry `[m, k, n]` of the full-scale model
    /// graph (all zeros when the graph holds no rank-2 MatMul).
    pub gemm: [usize; 3],
    /// Dominant-GEMM wall time (ms), f32 packed engine.
    pub gemm_ms_f32: Spread,
    /// Dominant-GEMM wall time (ms), bf16 packed engine.
    pub gemm_ms_bf16: Spread,
    /// Inference-step wall time (ms), f32.
    pub step_ms_f32: Spread,
    /// Inference-step wall time (ms), bf16.
    pub step_ms_bf16: Spread,
    /// Mean-metric deviation of the bf16 leg from the f32 reference.
    pub bf16_dev: f64,
}

impl PrecisionRow {
    /// f32-to-bf16 ratio on the dominant GEMM (>1 means bf16 is faster).
    pub fn gemm_speedup(&self) -> f64 {
        ratio(self.gemm_ms_f32, self.gemm_ms_bf16)
    }

    /// f32-to-bf16 ratio on the whole inference step.
    pub fn step_speedup(&self) -> f64 {
        ratio(self.step_ms_f32, self.step_ms_bf16)
    }

    /// True when the bf16 leg holds the accuracy gate.
    pub fn within_tolerance(&self) -> bool {
        self.bf16_dev <= TOLERANCE
    }
}

/// `f32 / bf16` of two legs' medians (0 when the bf16 leg did not run).
fn ratio(f32_ms: Spread, bf16_ms: Spread) -> f64 {
    if bf16_ms.median > 0.0 { f32_ms.median / bf16_ms.median } else { 0.0 }
}

/// Deviation of a mean metric from its reference: relative above 1,
/// absolute below (accuracies and confidences live in `[0, 1]`).
fn deviation(got: f64, want: f64) -> f64 {
    (got - want).abs() / want.abs().max(1.0)
}

fn build(kind: ModelKind, precision: Precision) -> Box<dyn Workload> {
    kind.build(
        &BuildConfig { mode: Mode::Inference, seed: SEED, ..BuildConfig::training() }
            .with_precision(precision),
    )
}

fn mean_metric(metrics: &[f64]) -> f64 {
    metrics.iter().sum::<f64>() / metrics.len().max(1) as f64
}

/// The flop-dominant MatMul of the workload's *full-scale* (paper
/// dimension) inference graph, as `[m, k, n]`. The accuracy legs run at
/// `ModelScale::Reference` — shrunk models whose GEMMs mostly sit below
/// the packing threshold — but the perf question is about the
/// geometries the paper's models actually spend their time in, so the
/// full graph is built (never executed; only its shapes are read) and
/// the largest `m * k * n` GEMM timed standalone. Conv2D is its own op
/// class and always runs f32 panels, so this isolates the explicit
/// dense GEMMs the bf16 pack path targets.
fn dominant_gemm(kind: ModelKind) -> Option<[usize; 3]> {
    let model = kind.build(
        &BuildConfig { mode: Mode::Inference, seed: SEED, ..BuildConfig::training() }
            .with_scale(ModelScale::Full),
    );
    let graph = model.session().graph();
    let mut best: Option<([usize; 3], usize)> = None;
    for (_, node) in graph.iter() {
        let (ta, tb) = match &node.kind {
            OpKind::MatMul { transpose_a, transpose_b } => (*transpose_a, *transpose_b),
            OpKind::GemmFused {
                gemm: fathom_dataflow::GemmOp::MatMul { transpose_a, transpose_b },
                ..
            } => (*transpose_a, *transpose_b),
            _ => continue,
        };
        let (sa, sb) = (graph.shape(node.inputs[0]), graph.shape(node.inputs[1]));
        if sa.rank() != 2 || sb.rank() != 2 {
            continue;
        }
        let (m, k) = if ta { (sa.dim(1), sa.dim(0)) } else { (sa.dim(0), sa.dim(1)) };
        let n = if tb { sb.dim(0) } else { sb.dim(1) };
        let flops = m * k * n;
        if best.as_ref().is_none_or(|(_, b)| flops > *b) {
            best = Some(([m, k, n], flops));
        }
    }
    best.map(|(dims, _)| dims)
}

/// Times the packed driver on one geometry, f32 vs bf16 panels, in
/// interleaved rounds. `gemm_into` packs whatever the geometry, so both
/// legs run the driver even where `gemm::select` would keep the product
/// on the row kernel.
fn time_gemm(dims: [usize; 3], effort: &Effort, pool: &ExecPool) -> [Spread; 2] {
    let [m, k, n] = dims;
    let mut rng = Rng::seeded(SEED);
    let a = Tensor::randn([m, k], 0.0, 1.0, &mut rng);
    let b = Tensor::randn([k, n], 0.0, 1.0, &mut rng);
    let mut c = vec![0.0f32; m * n];
    let mut leg = |precision: Precision| {
        timed_ms(effort.warmup, effort.steps, || {
            gemm_into(&mut c, m, n, k, a.data(), false, b.data(), false, precision, None, pool);
            std::hint::black_box(&c);
        })
    };
    rounds(effort, || ([leg(Precision::F32), leg(Precision::Bf16)], ())).0
}

/// Steps a fresh `kind` at `precision` `steps` times and returns
/// (median step ms, per-step metrics). Warm-up steps a throwaway build,
/// which leaves the timed one at the head of the batch stream, so both
/// legs see the same batches.
fn run_steps(kind: ModelKind, precision: Precision, effort: &Effort) -> (f64, Vec<f64>) {
    let mut warm = build(kind, precision);
    for _ in 0..effort.warmup {
        warm.step();
    }
    let mut model = build(kind, precision);
    let mut metrics = Vec::new();
    let ms = timed_ms(0, effort.steps.max(1), || {
        metrics.push(f64::from(model.step().metric.expect("inference reports a metric")));
    });
    (ms, metrics)
}

/// Measures one workload on the f32 and bf16 legs.
pub fn compare(kind: ModelKind, effort: &Effort, pool: &ExecPool) -> PrecisionRow {
    // The f32 and bf16 step legs in interleaved rounds; their metrics
    // are deterministic, the same every round.
    let ([step_ms_f32, step_ms_bf16], (ref_metrics, bf16_metrics)) = rounds(effort, || {
        let (f32_ms, reference) = run_steps(kind, Precision::F32, effort);
        let (bf16_ms, bf16) = run_steps(kind, Precision::Bf16, effort);
        ([f32_ms, bf16_ms], (reference, bf16))
    });
    let bf16_dev = deviation(mean_metric(&bf16_metrics), mean_metric(&ref_metrics));

    let gemm = dominant_gemm(kind).unwrap_or([0; 3]);
    let [gemm_ms_f32, gemm_ms_bf16] =
        if gemm == [0; 3] { [Spread::default(); 2] } else { time_gemm(gemm, effort, pool) };

    PrecisionRow {
        workload: kind.name(),
        gemm,
        gemm_ms_f32,
        gemm_ms_bf16,
        step_ms_f32,
        step_ms_bf16,
        bf16_dev,
    }
}

/// The rows as the `BENCH_precision.json` document.
pub fn document(rows: &[PrecisionRow], effort: &Effort) -> Json {
    let workloads = rows.iter().map(|r| {
        Json::obj()
            .with("name", r.workload)
            .with("gemm", Json::arr(r.gemm))
            .with_legs("gemm_ms", &[("f32", r.gemm_ms_f32), ("bf16", r.gemm_ms_bf16)], 4)
            .with("gemm_speedup", Json::fixed(r.gemm_speedup(), 3))
            .with_legs("step_ms", &[("f32", r.step_ms_f32), ("bf16", r.step_ms_bf16)], 4)
            .with("step_speedup", Json::fixed(r.step_speedup(), 3))
            .with("bf16_metric_dev", Json::fixed(r.bf16_dev, 5))
            .with("within_tolerance", r.within_tolerance())
    });
    // The GEMM legs run `ExecPool::new(0)` and the step legs
    // `Device::cpu(1)`: one thread throughout.
    envelope("ablation_precision", 1, effort)
        .with("tolerance", TOLERANCE)
        .with("bf16_gemm_speedups_over_1_2x", rows.iter().filter(|r| r.gemm_speedup() >= 1.2).count())
        .with("workloads_within_tolerance", rows.iter().filter(|r| r.within_tolerance()).count())
        .with("workloads", Json::arr(workloads))
}

/// Runs the mixed-precision ablation over every workload.
pub fn run(effort: &Effort) -> String {
    let pool = ExecPool::new(0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ABLATION: mixed precision (inference) -- bf16 packed GEMM\n\
         (gemm = flop-dominant MatMul of the full-scale model, timed standalone through\n\
         the packed engine; accuracy legs run the reference-scale model end to end;\n\
         dev = mean-metric deviation from the f32 reference, gate {TOLERANCE};\n\
         timed legs: median over {} interleaved round(s);\n\
         asserted on the same properties: tests/precision.rs)\n",
        effort.repeats
    );
    let _ = writeln!(
        out,
        "{:<12} {:>16} {:>9} {:>9} {:>7} {:>9} {:>9} {:>7} {:>9} {:>6}",
        "workload", "gemm m*k*n", "f32 ms", "bf16 ms", "gemm-x", "step f32", "step b16",
        "step-x", "bf16 dev", "within"
    );
    let rows: Vec<PrecisionRow> =
        ModelKind::ALL.iter().map(|&k| compare(k, effort, &pool)).collect();
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<12} {:>16} {:>9.3} {:>9.3} {:>6.2}x {:>9.3} {:>9.3} {:>6.2}x {:>9.5} {:>6}",
            r.workload,
            format!("{}x{}x{}", r.gemm[0], r.gemm[1], r.gemm[2]),
            r.gemm_ms_f32.median,
            r.gemm_ms_bf16.median,
            r.gemm_speedup(),
            r.step_ms_f32.median,
            r.step_ms_bf16.median,
            r.step_speedup(),
            r.bf16_dev,
            r.within_tolerance(),
        );
    }
    let fast = rows.iter().filter(|r| r.gemm_speedup() >= 1.2).count();
    let within = rows.iter().filter(|r| r.within_tolerance()).count();
    let _ = writeln!(
        out,
        "\nbf16 gemm speedup >= 1.2x on {fast}/{} workloads; \
         bf16 within tolerance on {within}/{}",
        rows.len(),
        rows.len(),
    );
    emit("BENCH_precision.json", &document(&rows, effort));
    write_artifact("ablation_precision.txt", &out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_measures_both_legs() {
        let pool = ExecPool::new(2);
        let r = compare(ModelKind::Memnet, &Effort::quick(), &pool);
        assert_eq!(r.workload, "memnet");
        assert!(r.step_ms_f32.median > 0.0 && r.step_ms_bf16.median > 0.0);
        assert_ne!(r.gemm, [0; 3], "memnet's graph must hold a MatMul");
        assert!(r.gemm_ms_f32.median > 0.0 && r.gemm_ms_bf16.median > 0.0);
        assert!(r.bf16_dev.is_finite());
    }

    #[test]
    fn deviation_is_relative_above_one_absolute_below() {
        assert!((deviation(1.05, 1.0) - 0.05).abs() < 1e-12);
        assert!((deviation(0.5, 0.45) - 0.05).abs() < 1e-12);
        assert!((deviation(210.0, 200.0) - 0.05).abs() < 1e-12);
    }
}
