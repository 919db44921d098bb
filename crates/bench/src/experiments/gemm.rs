//! GEMM engine scaling — the Figure 6 methodology applied to the packed,
//! register-tiled GEMM engine.
//!
//! Two views of the same question ("where does intra-op parallel matrix
//! work go?"):
//!
//! 1. **Per-op-class time vs threads** for the paper's Figure 6 subjects
//!    (`deepq`, `seq2seq`, `memnet`), aggregated into the A-G classes.
//!    Matrix operations (A) and convolution (B) ride the packed GEMM
//!    after the conv-lowering rewrite, so their absolute time should
//!    shrink with threads while the optimizer (F) and data movement (G)
//!    stay flat — the profile flattening of Figure 6.
//! 2. **Raw GEMM geometry sweeps**: the packed driver (`gemm_into`,
//!    f32 panels) against the row-parallel baseline (`matmul_rows`) at
//!    the widest thread count,
//!    over the square / skinny / transposed geometries the workloads
//!    actually emit. This isolates the kernel-level win (packing +
//!    register tiling + 2D tile grid) from graph-level effects.
//!
//! Emits machine-readable `BENCH_gemm.json` into both
//! `target/fathom-results/` and the repository root, where the PR driver
//! tracks the perf trajectory.

use std::fmt::Write as _;
use std::time::Instant;

use fathom::{BuildConfig, ModelKind};
use fathom_dataflow::{Device, OpClass};
use fathom_profile::runner;
use fathom_tensor::kernels::gemm::gemm_into;
use fathom_tensor::kernels::matmul::matmul_rows;
use fathom_tensor::{ExecPool, Precision, Rng, Tensor};

use crate::{write_artifact, Effort};

/// Thread counts swept, matching Figure 6's 1-8 range.
pub const THREADS: [usize; 4] = [1, 2, 4, 8];

/// The Figure 6 workloads.
pub const SUBJECTS: [ModelKind; 3] = [ModelKind::Deepq, ModelKind::Seq2Seq, ModelKind::Memnet];

/// Raw GEMM geometries benchmarked: `(m, k, n, transpose_a, transpose_b)`.
///
/// The square triple covers all transpose layouts at the LSTM/projection
/// scale; the skinny shapes mirror batched activations against fat
/// weights (m small, k*n large) where packing matters most relative to
/// the row kernel's strided B walks.
pub const GEOMETRIES: [(usize, usize, usize, bool, bool); 5] = [
    (512, 512, 512, false, false),
    (512, 512, 512, true, false),
    (512, 512, 512, false, true),
    (64, 1024, 1024, false, false),
    (32, 512, 512, false, false),
];

/// Per-op-class absolute time (ns/step) at each thread count for one
/// workload.
#[derive(Debug, Clone)]
pub struct ClassSweep {
    /// Workload name.
    pub workload: &'static str,
    /// `times[t][c]` = ns/step of class `OpClass::ALL[c]` at `THREADS[t]`.
    pub times: Vec<[f64; 7]>,
}

/// One geometry's packed-vs-rows comparison at the widest thread count.
#[derive(Debug, Clone, Copy)]
pub struct GeometryPoint {
    /// Problem extents.
    pub m: usize,
    /// Contraction extent.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Operand layouts.
    pub transpose_a: bool,
    /// Operand layouts.
    pub transpose_b: bool,
    /// Median row-parallel baseline time, milliseconds.
    pub rows_ms: f64,
    /// Median packed-engine time, milliseconds.
    pub packed_ms: f64,
}

impl GeometryPoint {
    /// Baseline-over-packed speedup.
    pub fn speedup(&self) -> f64 {
        if self.packed_ms > 0.0 {
            self.rows_ms / self.packed_ms
        } else {
            0.0
        }
    }

    /// Compact `512x512x512 nt`-style label.
    pub fn label(&self) -> String {
        format!(
            "{}x{}x{} {}{}",
            self.m,
            self.k,
            self.n,
            if self.transpose_a { 't' } else { 'n' },
            if self.transpose_b { 't' } else { 'n' },
        )
    }
}

/// Median of a sample set (mean of the middle two for even sizes).
fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Per-class ns/step sweep for one workload over [`THREADS`].
pub fn class_sweep(kind: ModelKind, effort: &Effort) -> ClassSweep {
    let times = THREADS
        .iter()
        .map(|&t| {
            let cfg = BuildConfig::training().with_device(Device::cpu_or_model(t));
            let p = runner::profile_workload(kind, &cfg, effort.warmup, effort.steps);
            let per_step = p.total_nanos() / p.steps.max(1) as f64;
            p.class_fractions().map(|(_, frac)| frac * per_step)
        })
        .collect();
    ClassSweep { workload: kind.name(), times }
}

/// Times one kernel call, median over `reps` after one warm-up.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&mut samples)
}

/// Benchmarks one geometry: row-parallel baseline vs packed engine, both
/// on a pool at the widest swept thread count.
pub fn geometry_point(
    m: usize,
    k: usize,
    n: usize,
    transpose_a: bool,
    transpose_b: bool,
    effort: &Effort,
) -> GeometryPoint {
    let mut rng = Rng::seeded(42);
    let a = Tensor::randn(if transpose_a { [k, m] } else { [m, k] }, 0.0, 1.0, &mut rng);
    let b = Tensor::randn(if transpose_b { [n, k] } else { [k, n] }, 0.0, 1.0, &mut rng);
    let pool = ExecPool::new(THREADS[THREADS.len() - 1]);
    let reps = effort.steps.max(3);
    let rows_ms = time_ms(reps, || {
        std::hint::black_box(matmul_rows(&a, &b, transpose_a, transpose_b, &pool));
    });
    let mut c = vec![0.0f32; m * n];
    let packed_ms = time_ms(reps, || {
        let (a, b) = (a.data(), b.data());
        gemm_into(&mut c, m, n, k, a, transpose_a, b, transpose_b, Precision::F32, None, &pool);
        std::hint::black_box(&c);
    });
    GeometryPoint { m, k, n, transpose_a, transpose_b, rows_ms, packed_ms }
}

/// Renders both sweeps as `BENCH_gemm.json` (hand-written; the suite
/// carries no JSON dependency).
pub fn to_json(sweeps: &[ClassSweep], points: &[GeometryPoint], host_cores: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"experiment\": \"gemm_scaling\",\n");
    let _ = writeln!(out, "  \"host_cores\": {host_cores},");
    let _ = writeln!(out, "  \"threads\": [{}],", THREADS.map(|t| t.to_string()).join(", "));
    out.push_str("  \"workloads\": [\n");
    for (i, s) in sweeps.iter().enumerate() {
        let _ = write!(out, "    {{\"name\": \"{}\", \"classes\": [", s.workload);
        for (c, class) in OpClass::ALL.iter().enumerate() {
            if c > 0 {
                out.push_str(", ");
            }
            let series: Vec<String> =
                s.times.iter().map(|row| format!("{:.1}", row[c])).collect();
            let _ = write!(
                out,
                "{{\"class\": \"{}\", \"nanos_per_step\": [{}]}}",
                class.letter(),
                series.join(", ")
            );
        }
        out.push_str("]}");
        out.push_str(if i + 1 < sweeps.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"geometries\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"shape\": \"{}\", \"rows_ms\": {:.4}, \"packed_ms\": {:.4}, \"speedup\": {:.3}}}",
            p.label(),
            p.rows_ms,
            p.packed_ms,
            p.speedup()
        );
        out.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs the full experiment: class scaling for the Figure 6 subjects plus
/// the raw geometry sweep.
pub fn run(effort: &Effort) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "GEMM SCALING: per-op-class time vs intra-op threads, plus raw\n\
         packed-vs-row-parallel geometry sweeps (host has {cores} core(s);\n\
         thread counts beyond that use the analytic SimCpu scaling model)\n"
    );
    let sweeps: Vec<ClassSweep> = SUBJECTS.iter().map(|&k| class_sweep(k, effort)).collect();
    for s in &sweeps {
        let _ = writeln!(out, "{} (us/step by class):", s.workload);
        let _ = write!(out, "  {:<28}", "class / threads");
        for t in THREADS {
            let _ = write!(out, " {:>9}", t);
        }
        let _ = writeln!(out, " {:>9}", "speedup");
        for (c, class) in OpClass::ALL.iter().enumerate() {
            let base = s.times[0][c];
            if base <= 0.0 {
                continue;
            }
            let _ = write!(out, "  [{}] {:<24}", class.letter(), class.label());
            for row in &s.times {
                let _ = write!(out, " {:>9.0}", row[c] / 1_000.0);
            }
            let best = s.times[s.times.len() - 1][c];
            let _ = writeln!(out, " {:>8.2}x", base / best.max(1.0));
        }
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "Raw GEMM at {} threads: packed engine vs row-parallel baseline (ms, median):",
        THREADS[THREADS.len() - 1]
    );
    let _ = writeln!(
        out,
        "  {:<18} {:>10} {:>10} {:>9}",
        "geometry", "rows", "packed", "speedup"
    );
    let points: Vec<GeometryPoint> = GEOMETRIES
        .iter()
        .map(|&(m, k, n, ta, tb)| geometry_point(m, k, n, ta, tb, effort))
        .collect();
    for p in &points {
        let _ = writeln!(
            out,
            "  {:<18} {:>10.2} {:>10.2} {:>8.2}x",
            p.label(),
            p.rows_ms,
            p.packed_ms,
            p.speedup()
        );
    }
    let at_goal = points.iter().filter(|p| p.speedup() >= 2.0).count();
    let _ = writeln!(
        out,
        "\ngeometries at >=2.00x over the row-parallel baseline: {}/{}",
        at_goal,
        points.len()
    );
    let json = to_json(&sweeps, &points, cores);
    write_artifact("BENCH_gemm.json", &json);
    // Also drop it at the repository root, where the PR driver tracks it.
    let repo_root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::write(repo_root.join("BENCH_gemm.json"), &json)
        .expect("can write BENCH_gemm.json at the repo root");
    write_artifact("gemm_scaling.txt", &out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_sweep_shapes() {
        let s = class_sweep(ModelKind::Memnet, &Effort::quick());
        assert_eq!(s.times.len(), THREADS.len());
        for row in &s.times {
            let total: f64 = row.iter().sum();
            assert!(total > 0.0, "a training step spends time somewhere");
        }
    }

    #[test]
    fn geometry_point_measures_both_kernels() {
        let p = geometry_point(32, 64, 48, false, true, &Effort::quick());
        assert!(p.rows_ms > 0.0 && p.packed_ms > 0.0);
        assert!(p.speedup() > 0.0);
        assert_eq!(p.label(), "32x64x48 nt");
    }

    #[test]
    fn json_shape() {
        let sweeps = vec![ClassSweep { workload: "memnet", times: vec![[1.0; 7]; THREADS.len()] }];
        let points = vec![GeometryPoint {
            m: 512,
            k: 512,
            n: 512,
            transpose_a: false,
            transpose_b: false,
            rows_ms: 4.0,
            packed_ms: 2.0,
        }];
        let json = to_json(&sweeps, &points, 1);
        assert!(json.contains("\"experiment\": \"gemm_scaling\""));
        assert!(json.contains("\"name\": \"memnet\""));
        assert!(json.contains("\"class\": \"A\""));
        assert!(json.contains("\"shape\": \"512x512x512 nn\""));
        assert!(json.contains("\"speedup\": 2.000"));
    }
}
