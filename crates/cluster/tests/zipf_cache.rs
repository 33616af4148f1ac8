//! Asserts the Zipf alias table is built once per `(keyspace, skew)`
//! per scratch, not once per server per sweep point.
//!
//! The alias-table build is `O(keyspace)`. Before the popularity cache,
//! every cache-backed server run rebuilt it — a sweep of P points over
//! M servers paid `P × M` builds of a table that never changes. The
//! cache in [`SimScratch`] keys one shared handle by
//! `(keyspace, skew bits)`, so the same sweep pays exactly one build
//! (plus one per keyspace/skew change).
//!
//! `memlat_workload::alias_builds()` is a process-global counter, so
//! these tests live in their own integration-test binary (`cargo test`
//! runs each integration test file in its own process) and every test
//! here that builds an alias table holds [`COUNTER_LOCK`]: the libtest
//! harness runs a binary's tests on parallel threads, and a concurrent
//! build would leak into the exact-count assertions.

use memlat_cluster::{
    CacheBackedConfig, CacheRouting, ClusterSim, MissMode, Retention, SimConfig, SimScratch,
};
use memlat_model::ModelParams;
use memlat_workload::alias_builds;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes the tests that build alias tables in this process.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn counter_lock() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the next one still runs.
    COUNTER_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn cache_cfg(keyspace: u64, skew: f64, seed: u64) -> SimConfig {
    let params = ModelParams::builder().build().unwrap();
    SimConfig::new(params)
        .duration(0.05)
        .warmup(0.01)
        .seed(seed)
        .retention(Retention::Summary)
        .miss_mode(MissMode::CacheBacked(CacheBackedConfig {
            memory_bytes: 4 << 20,
            keyspace,
            skew,
            mean_value_bytes: 300.0,
            routing: CacheRouting::Independent,
        }))
}

#[test]
fn sweep_builds_alias_table_once_per_configuration() {
    let _serial = counter_lock();
    let mut scratch = SimScratch::new();

    // A 5-point sweep over 4 servers at a fixed (keyspace, skew):
    // exactly one build, not 20.
    let before = alias_builds();
    for seed in 0..5u64 {
        ClusterSim::run_with(&cache_cfg(200_000, 1.01, seed), &mut scratch).unwrap();
    }
    assert_eq!(
        alias_builds() - before,
        1,
        "a fixed-configuration sweep must build the alias table exactly once"
    );

    // Changing the skew (or keyspace) invalidates the cache: one more
    // build, then reuse again.
    let before = alias_builds();
    for seed in 0..3u64 {
        ClusterSim::run_with(&cache_cfg(200_000, 0.9, seed), &mut scratch).unwrap();
    }
    assert_eq!(alias_builds() - before, 1);

    // Fixed-ratio runs never touch the popularity law at all.
    let before = alias_builds();
    let params = ModelParams::builder().build().unwrap();
    ClusterSim::run_with(
        &SimConfig::new(params)
            .duration(0.05)
            .seed(7)
            .retention(Retention::Summary),
        &mut scratch,
    )
    .unwrap();
    assert_eq!(alias_builds() - before, 0);
}

#[test]
fn cached_popularity_is_bit_identical_to_fresh_build() {
    // The cache must be invisible in the output: a run reusing the
    // cached table equals a run that built its own from scratch.
    let _serial = counter_lock();
    let a = ClusterSim::run(&cache_cfg(150_000, 1.05, 42)).unwrap();
    let mut scratch = SimScratch::new();
    ClusterSim::run_with(&cache_cfg(150_000, 1.05, 41), &mut scratch).unwrap();
    let b = ClusterSim::run_with(&cache_cfg(150_000, 1.05, 42), &mut scratch).unwrap();
    assert_eq!(a.summaries(), b.summaries());
    assert_eq!(a.miss_ratio().to_bits(), b.miss_ratio().to_bits());
    assert_eq!(a.total_keys(), b.total_keys());
}
