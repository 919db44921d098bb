//! Ignored-by-default microbenchmark comparing the packed GEMM driver's
//! f32 and bf16 panels at canonical shapes (all of which `gemm::select`
//! packs, and routes to bf16 panels when asked) — a fast signal for kernel work
//! that does not need the full `ablation_precision` bench:
//!
//! ```text
//! cargo test -p fathom-tensor --release --test bf16_perf_probe -- --ignored --nocapture
//! ```

use std::time::Instant;

use fathom_tensor::kernels::gemm::matmul;
use fathom_tensor::{ExecPool, Precision, Rng, Tensor};

#[test]
#[ignore = "perf probe: run manually with --ignored --nocapture"]
fn probe() {
    let pool = ExecPool::new(0);
    let mut rng = Rng::seeded(7);
    let shapes =
        [(32, 784, 128), (128, 512, 512), (256, 1024, 1024), (512, 2048, 2048), (64, 4096, 4096)];
    for (m, k, n) in shapes {
        let a = Tensor::randn([m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::randn([k, n], 0.0, 1.0, &mut rng);
        let run = |precision: Precision| matmul(&a, &b, false, false, precision, None, &pool);
        for _ in 0..2 {
            run(Precision::F32);
            run(Precision::Bf16);
        }
        // Aim each leg at roughly the same total flop budget.
        let reps = (200_000_000 / (2 * m * k * n)).clamp(1, 50);
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(run(Precision::F32));
        }
        let f32_s = t0.elapsed().as_secs_f64() / reps as f64;
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(run(Precision::Bf16));
        }
        let bf16_s = t0.elapsed().as_secs_f64() / reps as f64;
        println!(
            "{m}x{k}x{n}: f32 {:.3} ms, bf16 {:.3} ms, speedup {:.2}x",
            f32_s * 1e3,
            bf16_s * 1e3,
            f32_s / bf16_s
        );
    }
}
