//! Criterion micro-benchmarks for the tensor kernels backing the suite:
//! the per-op costs that the figure-level experiments aggregate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fathom_tensor::kernels::conv::{conv2d, conv2d_backprop_filter, conv2d_backprop_input, Conv2dSpec};
use fathom_tensor::kernels::gemm::matmul;
use fathom_tensor::kernels::reduce::{reduce_axis, ReduceKind};
use fathom_tensor::kernels::softmax::softmax;
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
    group.finish();
}

criterion_group!(benches, bench_matmul, bench_conv, bench_small_ops);
criterion_main!(benches);
