//! Mixed-precision ablation: bf16 storage / f32 accumulate through the
//! packed GEMM engine, and per-channel int8 quantized inference, across
//! all eight workloads.
//!
//! Three questions per workload, all in inference mode:
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
//! 3. **int8 accuracy** — calibrate activation ranges over the first
//!    half of the reference's batch stream, quantize, and compare the
//!    served metric against the reference's second half.
//!
//! Besides the human-readable table, the experiment emits
//! `BENCH_precision.json` into `target/fathom-results/` and the
//! repository root so the accuracy/perf trajectory is tracked across
//! PRs. `fathom precision-check` gates the same properties pass/fail in
//! scripts/tier1.sh; this ablation records the magnitudes.

use std::fmt::Write as _;
use std::time::Instant;

use fathom::{BuildConfig, Mode, ModelKind, ModelScale, Precision, Workload};
use fathom_dataflow::OpKind;
use fathom_tensor::kernels::gemm::gemm_into;
use fathom_tensor::{ExecPool, Rng, Tensor};

use crate::{write_artifact, Effort};

/// Accuracy gate applied to both reduced-precision paths: mean-metric
/// deviation beyond this fails the workload (mirrors the
/// `fathom precision-check` default).
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
    pub gemm_ms_f32: f64,
    /// Dominant-GEMM wall time (ms), bf16 packed engine.
    pub gemm_ms_bf16: f64,
    /// Median inference-step wall time (ms), f32.
    pub step_ms_f32: f64,
    /// Median inference-step wall time (ms), bf16.
    pub step_ms_bf16: f64,
    /// Mean-metric deviation of the bf16 leg from the f32 reference.
    pub bf16_dev: f64,
    /// Mean-metric deviation of the int8 leg from the f32 reference.
    pub int8_dev: f64,
    /// GEMM nodes the calibration pass quantized.
    pub int8_gemms: usize,
}

impl PrecisionRow {
    /// f32-to-bf16 ratio on the dominant GEMM (>1 means bf16 is faster).
    pub fn gemm_speedup(&self) -> f64 {
        if self.gemm_ms_bf16 > 0.0 { self.gemm_ms_f32 / self.gemm_ms_bf16 } else { 0.0 }
    }

    /// f32-to-bf16 ratio on the whole inference step.
    pub fn step_speedup(&self) -> f64 {
        if self.step_ms_bf16 > 0.0 { self.step_ms_f32 / self.step_ms_bf16 } else { 0.0 }
    }

    /// True when both reduced-precision paths hold the accuracy gate.
    pub fn within_tolerance(&self) -> bool {
        self.bf16_dev <= TOLERANCE && self.int8_dev <= TOLERANCE
    }
}

fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let n = samples.len();
    if n % 2 == 1 { samples[n / 2] } else { (samples[n / 2 - 1] + samples[n / 2]) / 2.0 }
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

/// Times the packed driver on one geometry, f32 vs bf16 panels, best
/// median across `effort.repeats` interleaved rounds. `gemm_into` packs
/// whatever the geometry, so both legs run the driver even where
/// `gemm::select` would keep the product on the row kernel.
fn time_gemm(dims: [usize; 3], effort: &Effort, pool: &ExecPool) -> (f64, f64) {
    let [m, k, n] = dims;
    let mut rng = Rng::seeded(SEED);
    let a = Tensor::randn([m, k], 0.0, 1.0, &mut rng);
    let b = Tensor::randn([k, n], 0.0, 1.0, &mut rng);
    let mut c = vec![0.0f32; m * n];
    let mut leg = |precision: Precision| -> f64 {
        let mut samples: Vec<f64> = (0..effort.steps.max(1))
            .map(|_| {
                let t0 = Instant::now();
                gemm_into(&mut c, m, n, k, a.data(), false, b.data(), false, precision, None, pool);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                std::hint::black_box(&c);
                ms
            })
            .collect();
        median(&mut samples)
    };
    // Warm the pack-shape code paths once per leg, then interleave.
    let (mut f32_ms, mut bf16_ms) = (leg(Precision::F32), leg(Precision::Bf16));
    for _ in 1..effort.repeats.max(1) {
        f32_ms = f32_ms.min(leg(Precision::F32));
        bf16_ms = bf16_ms.min(leg(Precision::Bf16));
    }
    (f32_ms, bf16_ms)
}

/// Runs `2 * steps` inference steps and returns (median step ms over the
/// tail, per-step metrics). The doubled horizon matches the int8 leg's
/// calibrate-then-serve split so every leg sees the same batch stream.
fn run_steps(model: &mut Box<dyn Workload>, steps: usize) -> (f64, Vec<f64>) {
    let mut metrics = Vec::with_capacity(2 * steps);
    let mut samples = Vec::with_capacity(2 * steps);
    for _ in 0..2 * steps {
        let t0 = Instant::now();
        let stats = model.step();
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
        metrics.push(f64::from(stats.metric.expect("inference reports a metric")));
    }
    (median(&mut samples), metrics)
}

/// Measures one workload across the three precision legs.
pub fn compare(kind: ModelKind, effort: &Effort, pool: &ExecPool) -> PrecisionRow {
    let steps = effort.steps.max(1);

    let mut reference = build(kind, Precision::F32);
    for _ in 0..effort.warmup {
        reference.step();
    }
    let mut warm_bf16 = build(kind, Precision::Bf16);
    for _ in 0..effort.warmup {
        warm_bf16.step();
    }
    // Warm-up advanced the reference's data stream; rebuild both so the
    // bf16/int8 legs compare metrics over identical batches.
    let mut reference = build(kind, Precision::F32);
    let (step_ms_f32, ref_metrics) = run_steps(&mut reference, steps);
    let mut bf16 = build(kind, Precision::Bf16);
    let (step_ms_bf16, bf16_metrics) = run_steps(&mut bf16, steps);
    let bf16_dev = deviation(mean_metric(&bf16_metrics), mean_metric(&ref_metrics));

    // int8: calibrate over the first half of the stream, quantize, and
    // serve the second half against the reference's tail.
    let mut quant = build(kind, Precision::F32);
    quant.session_mut().begin_calibration();
    for _ in 0..steps {
        quant.step();
    }
    quant.session_mut().finish_calibration();
    let (int8_gemms, int8_dev) = match quant.session_mut().quantize_from_calibration() {
        Ok(gemms) => {
            let metrics: Vec<f64> = (0..steps)
                .map(|_| f64::from(quant.step().metric.expect("inference reports a metric")))
                .collect();
            (gemms, deviation(mean_metric(&metrics), mean_metric(&ref_metrics[steps..])))
        }
        Err(_) => (0, f64::INFINITY),
    };

    let gemm = dominant_gemm(kind).unwrap_or([0; 3]);
    let (gemm_ms_f32, gemm_ms_bf16) =
        if gemm == [0; 3] { (0.0, 0.0) } else { time_gemm(gemm, effort, pool) };

    PrecisionRow {
        workload: kind.name(),
        gemm,
        gemm_ms_f32,
        gemm_ms_bf16,
        step_ms_f32,
        step_ms_bf16,
        bf16_dev,
        int8_dev,
        int8_gemms,
    }
}

/// Renders the rows as `BENCH_precision.json` (written by hand; the
/// suite carries no JSON dependency).
pub fn to_json(rows: &[PrecisionRow]) -> String {
    let fast = rows.iter().filter(|r| r.gemm_speedup() >= 1.2).count();
    let within = rows.iter().filter(|r| r.within_tolerance()).count();
    let mut out = String::new();
    out.push_str("{\n  \"experiment\": \"ablation_precision\",\n");
    let _ = write!(
        out,
        "  \"tolerance\": {TOLERANCE},\n  \"bf16_gemm_speedups_over_1_2x\": {fast},\n  \
         \"workloads_within_tolerance\": {within},\n"
    );
    out.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let json_dev = |d: f64| if d.is_finite() { format!("{d:.5}") } else { "null".into() };
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"gemm\": [{}, {}, {}], \
             \"gemm_ms\": {{\"f32\": {:.4}, \"bf16\": {:.4}}}, \"gemm_speedup\": {:.3}, \
             \"step_ms\": {{\"f32\": {:.4}, \"bf16\": {:.4}}}, \"step_speedup\": {:.3}, \
             \"bf16_metric_dev\": {}, \"int8_metric_dev\": {}, \"int8_gemms\": {}, \
             \"within_tolerance\": {}}}",
            r.workload,
            r.gemm[0],
            r.gemm[1],
            r.gemm[2],
            r.gemm_ms_f32,
            r.gemm_ms_bf16,
            r.gemm_speedup(),
            r.step_ms_f32,
            r.step_ms_bf16,
            r.step_speedup(),
            json_dev(r.bf16_dev),
            json_dev(r.int8_dev),
            r.int8_gemms,
            r.within_tolerance(),
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs the mixed-precision ablation over every workload.
pub fn run(effort: &Effort) -> String {
    let pool = ExecPool::new(0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ABLATION: mixed precision (inference) -- bf16 packed GEMM + per-channel int8\n\
         (gemm = flop-dominant MatMul of the full-scale model, timed standalone through\n\
         the packed engine; accuracy legs run the reference-scale model end to end;\n\
         dev = mean-metric deviation from the f32 reference, gate {TOLERANCE};\n\
         pass/fail on the same properties: `fathom precision-check`)\n"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>16} {:>9} {:>9} {:>7} {:>9} {:>9} {:>7} {:>9} {:>9} {:>5} {:>6}",
        "workload", "gemm m*k*n", "f32 ms", "bf16 ms", "gemm-x", "step f32", "step b16",
        "step-x", "bf16 dev", "int8 dev", "gemms", "within"
    );
    let rows: Vec<PrecisionRow> =
        ModelKind::ALL.iter().map(|&k| compare(k, effort, &pool)).collect();
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<12} {:>16} {:>9.3} {:>9.3} {:>6.2}x {:>9.3} {:>9.3} {:>6.2}x {:>9.5} {:>9.5} \
             {:>5} {:>6}",
            r.workload,
            format!("{}x{}x{}", r.gemm[0], r.gemm[1], r.gemm[2]),
            r.gemm_ms_f32,
            r.gemm_ms_bf16,
            r.gemm_speedup(),
            r.step_ms_f32,
            r.step_ms_bf16,
            r.step_speedup(),
            r.bf16_dev,
            r.int8_dev,
            r.int8_gemms,
            r.within_tolerance(),
        );
    }
    let fast = rows.iter().filter(|r| r.gemm_speedup() >= 1.2).count();
    let within = rows.iter().filter(|r| r.within_tolerance()).count();
    let _ = writeln!(
        out,
        "\nbf16 gemm speedup >= 1.2x on {fast}/{} workloads; \
         both precisions within tolerance on {within}/{}",
        rows.len(),
        rows.len(),
    );
    let json = to_json(&rows);
    write_artifact("BENCH_precision.json", &json);
    // Also drop it at the repository root, where the PR driver tracks it.
    let repo_root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::write(repo_root.join("BENCH_precision.json"), &json)
        .expect("can write BENCH_precision.json at the repo root");
    write_artifact("ablation_precision.txt", &out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_measures_all_three_legs() {
        let pool = ExecPool::new(2);
        let r = compare(ModelKind::Memnet, &Effort::quick(), &pool);
        assert_eq!(r.workload, "memnet");
        assert!(r.step_ms_f32 > 0.0 && r.step_ms_bf16 > 0.0);
        assert_ne!(r.gemm, [0; 3], "memnet's graph must hold a MatMul");
        assert!(r.gemm_ms_f32 > 0.0 && r.gemm_ms_bf16 > 0.0);
        assert!(r.int8_gemms >= 1, "memnet has quantizable GEMMs");
        assert!(r.bf16_dev.is_finite() && r.int8_dev.is_finite());
    }

    #[test]
    fn json_shape() {
        let rows = vec![PrecisionRow {
            workload: "memnet",
            gemm: [64, 128, 256],
            gemm_ms_f32: 2.0,
            gemm_ms_bf16: 1.0,
            step_ms_f32: 10.0,
            step_ms_bf16: 8.0,
            bf16_dev: 0.001,
            int8_dev: f64::INFINITY,
            int8_gemms: 0,
        }];
        let json = to_json(&rows);
        assert!(json.contains("\"experiment\": \"ablation_precision\""));
        assert!(json.contains("\"gemm\": [64, 128, 256]"));
        assert!(json.contains("\"gemm_speedup\": 2.000"));
        assert!(json.contains("\"step_speedup\": 1.250"));
        assert!(json.contains("\"bf16_metric_dev\": 0.00100"));
        assert!(json.contains("\"int8_metric_dev\": null"), "non-finite dev must emit null");
        assert!(json.contains("\"within_tolerance\": false"));
        assert!(!json.contains("inf") && !json.contains("NaN"));
    }

    #[test]
    fn deviation_is_relative_above_one_absolute_below() {
        assert!((deviation(1.05, 1.0) - 0.05).abs() < 1e-12);
        assert!((deviation(0.5, 0.45) - 0.05).abs() < 1e-12);
        assert!((deviation(210.0, 200.0) - 0.05).abs() < 1e-12);
    }
}
