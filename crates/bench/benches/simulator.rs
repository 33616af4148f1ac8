//! Simulator micro-benchmarks the end-to-end benchmark (`perfbench`)
//! does not time on their own: the single-server hot loop, the cluster
//! at the default `Retention::Full` on the block path (the path Table 3
//! and the figure sweeps take) and the request-level `e2e` simulator.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use memlat_bench::base_params;
use memlat_cluster::{
    config::MissMode,
    fault::{ClientPolicy, ServerFaults},
    server::{
        simulate_server_streaming_with, BlockScratch, KeyRecord, RecordSink, ServerSimParams,
    },
    ClusterSim, SimConfig,
};
use memlat_dist::GapLaw;
use memlat_workload::facebook;
use rand::SeedableRng;

/// Counts resolved keys and keeps nothing else.
struct Count(u64);

impl RecordSink for Count {
    fn record(&mut self, _: &KeyRecord) {
        self.0 += 1;
    }
}

/// The single-server DES hot loop in isolation: batch draws → FCFS
/// Lindley recursion → miss decision, streamed into a counting sink.
fn bench_single_server(c: &mut Criterion) {
    let mut g = c.benchmark_group("server");
    g.sample_size(10);
    // 0.5 s of Facebook traffic at one server ≈ 31 K keys.
    g.throughput(Throughput::Elements(31_000));
    g.bench_function("facebook_0p5s_streaming", |b| {
        let mut seed = 0u64;
        let mut scratch = BlockScratch::new();
        b.iter(|| {
            seed += 1;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut keys = Count(0);
            let stats = simulate_server_streaming_with(
                ServerSimParams {
                    interarrival: GapLaw::from(facebook::interarrival().unwrap()),
                    concurrency: facebook::CONCURRENCY_Q,
                    service_rate: facebook::SERVICE_RATE,
                    miss_ratio: facebook::MISS_RATIO,
                    miss_mode: &MissMode::FixedRatio,
                    popularity: None,
                    routed: None,
                    warmup: 0.0,
                    duration: 0.5,
                    faults: ServerFaults::none(),
                    client: ClientPolicy::none(),
                    block: 1,
                },
                &mut rng,
                &mut scratch,
                &mut keys,
            )
            .unwrap();
            std::hint::black_box((keys.0, stats.utilization));
        })
    });
    g.finish();
}

fn bench_cluster(c: &mut Criterion) {
    let mut g = c.benchmark_group("cluster");
    g.sample_size(10);
    // 0.2 s of Facebook traffic ≈ 50 K keys across 4 servers.
    g.throughput(Throughput::Elements(50_000));
    g.bench_function("facebook_0p2s", |b| {
        let mut seed = 0u64;
        b.iter_batched(
            || {
                seed += 1;
                SimConfig::new(base_params())
                    .duration(0.2)
                    .warmup(0.0)
                    .seed(seed)
            },
            |cfg| ClusterSim::run(&cfg).unwrap(),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_e2e(c: &mut Criterion) {
    use memlat_cluster::e2e::{run_e2e, E2eConfig};
    let mut g = c.benchmark_group("e2e");
    g.sample_size(10);
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("requests_1k", |b| {
        let mut seed = 0u64;
        b.iter_batched(
            || {
                seed += 1;
                E2eConfig::new(base_params()).requests(1_000).seed(seed)
            },
            |cfg| run_e2e(&cfg).unwrap(),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_single_server, bench_cluster, bench_e2e);
criterion_main!(benches);
