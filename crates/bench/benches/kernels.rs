//! Criterion micro-benchmarks for the tensor kernels backing the suite:
//! the per-op costs that the figure-level experiments aggregate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fathom_tensor::kernels::conv::{conv2d, conv2d_backprop_filter, conv2d_backprop_input, Conv2dSpec};
use fathom_tensor::kernels::elementwise as ew;
use fathom_tensor::kernels::fused::FusedOp;
use fathom_tensor::kernels::gemm::matmul;
use fathom_tensor::kernels::reduce::{reduce_axis, ReduceKind};
use fathom_tensor::kernels::softmax::softmax;
use fathom_tensor::kernels::transform::tile;
use fathom_tensor::{ExecPool, Precision, Rng, Tensor};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    let mut rng = Rng::seeded(1);
    for &n in &[32usize, 64, 128] {
        let a = Tensor::randn([n, n], 0.0, 1.0, &mut rng);
        let b = Tensor::randn([n, n], 0.0, 1.0, &mut rng);
        for &threads in &[1usize, 4] {
            let pool = ExecPool::new(threads);
            group.bench_with_input(
                BenchmarkId::new(format!("{n}x{n}"), threads),
                &threads,
                |bench, _| bench.iter(|| matmul(&a, &b, false, false, Precision::F32, None, &pool)),
            );
        }
    }
    group.finish();
}

fn bench_conv(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv2d");
    let mut rng = Rng::seeded(2);
    let spec = Conv2dSpec::same(3);
    let x = Tensor::randn([1, 32, 32, 16], 0.0, 1.0, &mut rng);
    let f = Tensor::randn([3, 3, 16, 16], 0.0, 1.0, &mut rng);
    let g = Tensor::randn(spec.out_shape(x.shape(), f.shape()), 0.0, 1.0, &mut rng);
    for &threads in &[1usize, 4] {
        let pool = ExecPool::new(threads);
        group.bench_with_input(BenchmarkId::new("32x32x16_3x3/forward", threads), &threads, |bench, _| {
            bench.iter(|| conv2d(&x, &f, spec, None, &pool))
        });
        group.bench_with_input(BenchmarkId::new("32x32x16_3x3/backprop_input", threads), &threads, |bench, _| {
            bench.iter(|| conv2d_backprop_input(x.shape(), &f, &g, spec, &pool))
        });
        group.bench_with_input(BenchmarkId::new("32x32x16_3x3/backprop_filter", threads), &threads, |bench, _| {
            bench.iter(|| conv2d_backprop_filter(&x, f.shape(), &g, spec, &pool))
        });
    }
    group.finish();
}

fn bench_small_ops(c: &mut Criterion) {
    // The skinny-tensor ops Figure 6c is about: these should NOT benefit
    // from threads.
    let mut group = c.benchmark_group("skinny");
    let mut rng = Rng::seeded(3);
    let x = Tensor::randn([16, 10, 32], 0.0, 1.0, &mut rng);
    for &threads in &[1usize, 4] {
        let pool = ExecPool::new(threads);
        group.bench_with_input(BenchmarkId::new("sum_axis", threads), &threads, |bench, _| {
            bench.iter(|| reduce_axis(&x, 2, ReduceKind::Sum, false, &pool))
        });
    }
    let logits = Tensor::randn([16, 10], 0.0, 1.0, &mut rng);
    let pool = ExecPool::new(1);
    group.bench_function("softmax_16x10", |bench| bench.iter(|| softmax(&logits, &pool)));
    // The class C and D shapes the small-op workloads run most: speech's
    // gradient AddN, memnet's attention Tile and Sum, and residual's
    // batch-norm Div by a per-channel row.
    let grads: Vec<Tensor> = (0..4).map(|_| Tensor::randn([16, 2048], 0.0, 1.0, &mut rng)).collect();
    let grad_refs: Vec<&Tensor> = grads.iter().collect();
    group.bench_function("add_n_4x16x2048", |bench| {
        bench.iter(|| ew::eval(FusedOp::AddN, &grad_refs, &pool))
    });
    let weights = Tensor::randn([32, 20, 1], 0.0, 1.0, &mut rng);
    group.bench_function("tile_32x20x1_to_32x20x64", |bench| {
        bench.iter(|| tile(&weights, &[1, 1, 64], &pool))
    });
    let query = Tensor::randn([32, 1, 64], 0.0, 1.0, &mut rng);
    group.bench_function("tile_32x1x64_to_32x20x64", |bench| {
        bench.iter(|| tile(&query, &[1, 20, 1], &pool))
    });
    let scored = Tensor::randn([32, 20, 64], 0.0, 1.0, &mut rng);
    group.bench_function("sum_last_axis_32x20x64", |bench| {
        bench.iter(|| reduce_axis(&scored, 2, ReduceKind::Sum, false, &pool))
    });
    let act = Tensor::randn([8, 16, 16, 64], 0.0, 1.0, &mut rng);
    let scale = Tensor::randn([64], 1.0, 0.1, &mut rng);
    group.bench_function("div_row_8x16x16x64_by_64", |bench| {
        bench.iter(|| ew::eval(FusedOp::Div, &[&act, &scale], &pool))
    });
    group.finish();
}

criterion_group!(benches, bench_matmul, bench_conv, bench_small_ops);
criterion_main!(benches);
