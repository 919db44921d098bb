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
//! Both views are measured in interleaved rounds and emitted as
//! machine-readable `BENCH_gemm.json` through `crate::measure`, where
//! the PR driver tracks the perf trajectory.

use std::fmt::Write as _;

use fathom::{BuildConfig, ModelKind};
use fathom_dataflow::{Device, Json, OpClass};
use fathom_profile::runner;
use fathom_tensor::kernels::gemm::gemm_into;
use fathom_tensor::kernels::matmul::matmul_rows;
use fathom_tensor::{ExecPool, Precision, Rng, Tensor};

use crate::measure::{emit, envelope, rounds, timed_ms, Spread, WithSpread};
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
    pub times: [[Spread; 7]; THREADS.len()],
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
    /// Row-parallel baseline time, milliseconds.
    pub rows_ms: Spread,
    /// Packed-engine time, milliseconds.
    pub packed_ms: Spread,
}

impl GeometryPoint {
    /// Baseline-over-packed speedup.
    pub fn speedup(&self) -> f64 {
        if self.packed_ms.median > 0.0 {
            self.rows_ms.median / self.packed_ms.median
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

/// Per-class ns/step sweep for one workload over [`THREADS`]; a round
/// profiles every thread count once.
pub fn class_sweep(kind: ModelKind, effort: &Effort) -> ClassSweep {
    let (flat, ()) = rounds::<{ 7 * THREADS.len() }, ()>(effort, || {
        let times = THREADS.map(|t| {
            let cfg = BuildConfig::training().with_device(Device::cpu_or_model(t));
            let p = runner::profile_workload(kind, &cfg, effort.warmup, effort.steps);
            let per_step = p.total_nanos() / p.steps.max(1) as f64;
            p.class_fractions().map(|(_, frac)| frac * per_step)
        });
        (std::array::from_fn(|i| times[i / 7][i % 7]), ())
    });
    ClassSweep {
        workload: kind.name(),
        times: std::array::from_fn(|t| std::array::from_fn(|c| flat[7 * t + c])),
    }
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
    let mut c = vec![0.0f32; m * n];
    let ([rows_ms, packed_ms], ()) = rounds(effort, || {
        let rows = timed_ms(effort.warmup, effort.steps, || {
            std::hint::black_box(matmul_rows(&a, &b, transpose_a, transpose_b, &pool));
        });
        let packed = timed_ms(effort.warmup, effort.steps, || {
            let (a, b) = (a.data(), b.data());
            gemm_into(&mut c, m, n, k, a, transpose_a, b, transpose_b, Precision::F32, None, &pool);
            std::hint::black_box(&c);
        });
        ([rows, packed], ())
    });
    GeometryPoint { m, k, n, transpose_a, transpose_b, rows_ms, packed_ms }
}

/// Both sweeps as the `BENCH_gemm.json` document.
pub fn document(sweeps: &[ClassSweep], points: &[GeometryPoint], effort: &Effort) -> Json {
    let workloads = sweeps.iter().map(|s| {
        let classes = OpClass::ALL.iter().enumerate().map(|(c, class)| {
            let series = |pick: fn(&Spread) -> f64| Json::arr(s.times.iter().map(|row| Json::fixed(pick(&row[c]), 1)));
            Json::obj()
                .with("class", class.letter().to_string().as_str())
                .with("nanos_per_step", series(|t| t.median))
                .with("nanos_per_step_iqr", series(|t| t.iqr))
        });
        Json::obj().with("name", s.workload).with("classes", Json::arr(classes))
    });
    let geometries = points.iter().map(|p| {
        Json::obj()
            .with("shape", p.label().as_str())
            .with_spread("rows_ms", p.rows_ms, 4)
            .with_spread("packed_ms", p.packed_ms, 4)
            .with("speedup", Json::fixed(p.speedup(), 3))
    });
    // The geometry legs run at the widest swept thread count.
    envelope("gemm_scaling", THREADS[THREADS.len() - 1], effort)
        .with("threads", Json::arr(THREADS))
        .with("workloads", Json::arr(workloads))
        .with("geometries", Json::arr(geometries))
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
            let base = s.times[0][c].median;
            if base <= 0.0 {
                continue;
            }
            let _ = write!(out, "  [{}] {:<24}", class.letter(), class.label());
            for row in &s.times {
                let _ = write!(out, " {:>9.0}", row[c].median / 1_000.0);
            }
            let best = s.times[s.times.len() - 1][c].median;
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
            p.rows_ms.median,
            p.packed_ms.median,
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
    emit("BENCH_gemm.json", &document(&sweeps, &points, effort));
    write_artifact("gemm_scaling.txt", &out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_sweep_shapes() {
        let s = class_sweep(ModelKind::Memnet, &Effort::quick());
        for row in &s.times {
            let total: f64 = row.iter().map(|t| t.median).sum();
            assert!(total > 0.0, "a training step spends time somewhere");
        }
    }

    #[test]
    fn geometry_point_measures_both_kernels() {
        let p = geometry_point(32, 64, 48, false, true, &Effort::quick());
        assert!(p.rows_ms.median > 0.0 && p.packed_ms.median > 0.0);
        assert!(p.speedup() > 0.0);
        assert_eq!(p.label(), "32x64x48 nt");
    }

}
