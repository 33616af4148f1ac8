//! Measurement-substrate throughput: ECDF, Welford, quantile sketch.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use memlat_stats::{Ecdf, StreamingStats};
use rand::{Rng, SeedableRng};

fn samples(n: usize) -> Vec<f64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    (0..n)
        .map(|_| -(1.0 - rng.gen::<f64>()).max(1e-15).ln() * 1e-4)
        .collect()
}

fn bench_ecdf(c: &mut Criterion) {
    let xs = samples(1_000_000);
    let mut g = c.benchmark_group("ecdf");
    g.sample_size(20);
    g.throughput(Throughput::Elements(1_000_000));
    g.bench_function("build_1m", |b| {
        b.iter_batched(|| xs.clone(), Ecdf::from_samples2, BatchSize::LargeInput)
    });
    let e = Ecdf::from_samples(&xs);
    g.bench_function("quantile_lookup", |b| {
        b.iter(|| std::hint::black_box(&e).quantile(std::hint::black_box(0.9999)))
    });
    g.finish();
}

// Helper adapting the by-value clone into the by-ref constructor.
trait EcdfExt {
    fn from_samples2(v: Vec<f64>) -> Ecdf;
}
impl EcdfExt for Ecdf {
    fn from_samples2(v: Vec<f64>) -> Ecdf {
        Ecdf::from_samples(&v)
    }
}

fn bench_streaming(c: &mut Criterion) {
    let xs = samples(100_000);
    let mut g = c.benchmark_group("streaming");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("welford_100k", |b| {
        b.iter(|| {
            let mut s = StreamingStats::new();
            for &x in &xs {
                s.push(x);
            }
            std::hint::black_box(s.mean())
        })
    });
    g.finish();
}

fn bench_push_slice(c: &mut Criterion) {
    // Slice entry points vs per-key pushes over the same data — the
    // block hot path folds whole lanes at a time, so this is the fold
    // cost the simulator actually pays.
    let xs = samples(100_000);
    let mut g = c.benchmark_group("push_slice");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("welford_slice_100k", |b| {
        b.iter(|| {
            let mut s = StreamingStats::new();
            s.push_slice(&xs);
            std::hint::black_box(s.mean())
        })
    });
    g.bench_function("sketch_slice_100k", |b| {
        b.iter(|| {
            let mut s = memlat_stats::QuantileSketch::new();
            s.push_slice(&xs);
            std::hint::black_box(s.quantile(0.99))
        })
    });
    g.bench_function("sketch_scalar_100k", |b| {
        b.iter(|| {
            let mut s = memlat_stats::QuantileSketch::new();
            for &x in &xs {
                s.push(x);
            }
            std::hint::black_box(s.quantile(0.99))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_ecdf, bench_streaming, bench_push_slice);
criterion_main!(benches);
