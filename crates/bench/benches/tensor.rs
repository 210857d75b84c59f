//! Criterion: tensor-kernel throughput (the compute substrate of the real
//! training runtime).

// criterion_group! expands to an undocumented public fn.
#![allow(missing_docs)]
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use chimera_tensor::{gelu, gelu_backward, layernorm, softmax_rows, Rng, Tensor};

fn bench_matmul(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul");
    for n in [32usize, 64, 128] {
        let mut rng = Rng::new(1);
        let a = Tensor::normal(n, n, 1.0, &mut rng);
        let b = Tensor::normal(n, n, 1.0, &mut rng);
        g.bench_with_input(BenchmarkId::new("square", n), &(a, b), |bench, (a, b)| {
            bench.iter(|| black_box(a).matmul(black_box(b)));
        });
    }
    g.finish();
}

fn bench_pointwise(c: &mut Criterion) {
    let mut rng = Rng::new(2);
    let x = Tensor::normal(256, 256, 1.0, &mut rng);
    let dy = Tensor::normal(256, 256, 1.0, &mut rng);
    let gamma = vec![1.0f32; 256];
    let beta = vec![0.0f32; 256];
    let mut g = c.benchmark_group("pointwise_256x256");
    g.bench_function("softmax_rows", |b| b.iter(|| softmax_rows(black_box(&x))));
    g.bench_function("gelu", |b| b.iter(|| gelu(black_box(&x))));
    g.bench_function("gelu_backward", |b| {
        b.iter(|| gelu_backward(black_box(&x), black_box(&dy)));
    });
    g.bench_function("layernorm", |b| {
        b.iter(|| layernorm(black_box(&x), &gamma, &beta));
    });
    g.finish();
}

criterion_group!(benches, bench_matmul, bench_pointwise);
criterion_main!(benches);
