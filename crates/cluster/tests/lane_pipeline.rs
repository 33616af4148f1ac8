//! The lane pipeline's invisibility contract, end to end: on a ring of
//! cache-backed servers with a crash, a slowdown, a client timeout,
//! retries, hedging and the coalescing relay — every mode that leaves the
//! plain path — neither the block size nor the thread count may change a
//! single output bit.

use memlat_cluster::{
    CacheBackedConfig, CacheRouting, ClientPolicy, ClusterSim, FaultPlan, MissMode, MissRelay,
    RetryPolicy, SimConfig, SimOutput,
};
use memlat_model::ModelParams;

const WARMUP: f64 = 0.1;
const DURATION: f64 = 0.1;

fn ring_config() -> SimConfig {
    let params = ModelParams::builder()
        .servers(8)
        .key_rate_per_server(40_000.0)
        .build()
        .unwrap();
    let end = WARMUP + DURATION;
    SimConfig::new(params)
        .duration(DURATION)
        .warmup(WARMUP)
        .seed(0x1a7e)
        .miss_mode(MissMode::CacheBacked(CacheBackedConfig {
            memory_bytes: 1 << 20,
            keyspace: 200_000,
            skew: 0.99,
            mean_value_bytes: 300.0,
            routing: CacheRouting::ConsistentHash { vnodes: 64 },
        }))
        .miss_relay(MissRelay::Coalesced)
        .fault_plan(
            FaultPlan::none()
                .crash(0, end - 0.8 * DURATION, end - 0.6 * DURATION)
                .slowdown(1, end - 0.5 * DURATION, end - 0.2 * DURATION, 1.4),
        )
        .client(
            ClientPolicy::none()
                .timeout(5e-3)
                .retry(RetryPolicy::default())
                .hedge(300e-6),
        )
}

fn assert_identical(a: &SimOutput, b: &SimOutput, label: &str) {
    assert_eq!(a.total_keys(), b.total_keys(), "{label}: total keys");
    for j in 0..a.shares().len() {
        assert_eq!(a.records(j), b.records(j), "{label}: server {j} records");
    }
    assert_eq!(a.summaries(), b.summaries(), "{label}: summaries");
    assert_eq!(a.db_latency_stats(), b.db_latency_stats(), "{label}: db");
    assert_eq!(
        a.db_latency_sketch(),
        b.db_latency_sketch(),
        "{label}: db sketch"
    );
    assert_eq!(
        a.miss_ratio().to_bits(),
        b.miss_ratio().to_bits(),
        "{label}"
    );
    assert_eq!(a.cached_items(), b.cached_items(), "{label}: cached items");
}

#[test]
fn ring_output_is_block_size_and_thread_count_invariant() {
    let reference = ClusterSim::run(&ring_config().threads(1).block(1)).unwrap();
    // Every mode is exercised, so the comparison covers every branch.
    let res = reference.resilience();
    assert!(res.refused > 0 && res.timeouts + res.refused > 0);
    assert!(res.retries > 0 && res.forced_misses > 0);
    assert!(res.hedges_sent > 0);
    assert!(reference.coalesce().delayed_hits > 0);
    assert!(reference.summary(1).degraded_latency.count() > 0);
    for block in [37usize, 1024, 1 << 22] {
        let out = ClusterSim::run(&ring_config().threads(1).block(block)).unwrap();
        assert_identical(&reference, &out, &format!("block {block}"));
    }
    let parallel = ClusterSim::run(&ring_config().threads(4)).unwrap();
    assert_identical(&reference, &parallel, "4 threads");
}
