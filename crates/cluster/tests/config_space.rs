//! No panics on valid input, over the non-plain configuration space.
//!
//! Every `SimConfig` drawn here takes the server lane pipeline (a fault
//! window, a client timeout or a cache-backed miss state) and spans miss
//! modes × fault plans × client policies × tiny and long horizons ×
//! M ∈ {1..16}. The property: when `validate()` accepts the config,
//! `ClusterSim::run` returns `Ok` or a typed `Err` and never panics, and
//! every `Ok` satisfies the conservation identities of
//! `tests/resilience_conservation.rs`.

use memlat_cluster::{
    CacheBackedConfig, CacheRouting, ClientPolicy, ClusterSim, FaultPlan, MissMode, MissRelay,
    Retention, RetryPolicy, SimConfig, SimOutput,
};
use memlat_model::ModelParams;
use proptest::prelude::*;

/// Horizons in seconds, with the per-server key rate that keeps each run
/// to about two thousand keys per server: from a horizon shorter than
/// one gap to one far longer than every fault window.
const HORIZONS: [(f64, f64); 4] = [
    (1e-6, 40_000.0),
    (2e-3, 40_000.0),
    (0.05, 40_000.0),
    (20.0, 100.0),
];

fn miss_mode(kind: u8, memory_kib: usize, keyspace_pick: usize, skew: f64) -> MissMode {
    if kind == 0 {
        return MissMode::FixedRatio;
    }
    let routing = if kind == 1 {
        CacheRouting::Independent
    } else {
        CacheRouting::ConsistentHash { vnodes: 16 }
    };
    // Above 2^20 keys the unrouted population samples by rejection
    // (no alias table); the ring refuses to walk past 2^24.
    let keyspace = [1, 1_000, 50_000, (1 << 20) + 1][keyspace_pick];
    let keyspace = if kind == 2 {
        keyspace.min(50_000)
    } else {
        keyspace
    };
    MissMode::CacheBacked(CacheBackedConfig {
        memory_bytes: memory_kib << 10,
        keyspace,
        skew,
        mean_value_bytes: 300.0,
        routing,
    })
}

/// Fault windows as fractions of the horizon (so they land inside,
/// across and past it whatever the horizon), on arbitrary servers.
fn fault_plan(servers: usize, horizon: f64, windows: &[(usize, u8, f64, f64, f64)]) -> FaultPlan {
    let mut plan = FaultPlan::none();
    let mut used = vec![[false; 2]; servers];
    for &(server, kind, start, len, factor) in windows {
        let (j, crash) = (server % servers, kind == 1);
        // One window per kind per server keeps the plan valid.
        if std::mem::replace(&mut used[j][usize::from(crash)], true) {
            continue;
        }
        let (a, b) = (start * horizon, (start + len) * horizon);
        plan = if crash {
            plan.crash(j, a, b)
        } else {
            plan.slowdown(j, a, b, factor)
        };
    }
    plan
}

fn assert_identities(out: &SimOutput, relay: MissRelay) {
    let total = out.resilience();
    let mut regular = 0;
    for (j, s) in out.summaries().iter().enumerate() {
        let r = &s.resilience;
        assert_eq!(
            r.timeouts + r.refused,
            r.retries + r.forced_misses,
            "server {j}: failures ≠ retries + forced misses: {r:?}"
        );
        assert!(s.counters.misses + r.forced_misses <= s.counters.jobs);
        assert_eq!(s.latency.count(), s.counters.jobs);
        regular += s.counters.misses;
    }
    let keys = out.total_keys();
    let jobs: u64 = out.summaries().iter().map(|s| s.counters.jobs).sum();
    assert_eq!(jobs, keys);
    assert_eq!(
        (keys - total.forced_misses) + total.timeouts + total.refused,
        keys + total.retries
    );
    assert_eq!(
        out.db_latency_stats().count(),
        regular + total.forced_misses
    );
    assert!(total.hedges_won <= total.hedges_sent);
    if relay == MissRelay::Coalesced {
        let c = out.coalesce();
        assert_eq!(c.dispatched + c.delayed_hits, regular + total.forced_misses);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn valid_non_plain_configs_never_panic(
        servers in 1usize..=16,
        horizon_pick in 0usize..4,
        warmup_frac in prop_oneof![Just(0.0), 0.0f64..0.5],
        kind in 0u8..3,
        memory_kib in prop_oneof![Just(64usize), Just(1024), Just(4096)],
        keyspace_pick in 0usize..4,
        skew in 0.5f64..1.6,
        windows in proptest::collection::vec(
            (0usize..16, 0u8..2, 0.0f64..1.2, 0.01f64..1.0, 0.5f64..20.0),
            0..4,
        ),
        timeout in prop_oneof![Just(None), (1e-7f64..5e-3).prop_map(Some), Just(Some(1e3))],
        retries in prop_oneof![Just(None), (0u32..4, 1e-6f64..1e-3, 0.0f64..1.0).prop_map(Some)],
        hedge in prop_oneof![Just(None), (1e-6f64..1e-3).prop_map(Some)],
        coalesced in 0u8..2,
        threads in 1usize..=3,
        block in prop_oneof![Just(1usize), Just(37), Just(1024)],
        seed in 0u64..u64::MAX,
    ) {
        let (horizon, rate) = HORIZONS[horizon_pick];
        let params = ModelParams::builder()
            .servers(servers)
            .key_rate_per_server(rate)
            .build()
            .unwrap();
        let mut client = ClientPolicy::none();
        if let Some(t) = timeout {
            client = client.timeout(t);
        }
        if let Some((max_retries, base_backoff, jitter)) = retries {
            client = client.retry(RetryPolicy {
                max_retries,
                base_backoff,
                multiplier: 2.0,
                jitter,
            });
        }
        if let Some(d) = hedge {
            client = client.hedge(d);
        }
        let mode = miss_mode(kind, memory_kib, keyspace_pick, skew);
        let plan = fault_plan(servers, horizon, &windows);
        // Keep every case off the plain path.
        let plan = if mode == MissMode::FixedRatio && plan.is_empty() && timeout.is_none() {
            plan.slowdown(0, 0.0, horizon, 1.0)
        } else {
            plan
        };
        let relay = if coalesced == 1 { MissRelay::Coalesced } else { MissRelay::Independent };
        let cfg = SimConfig::new(params)
            .duration(horizon * (1.0 - warmup_frac))
            .warmup(horizon * warmup_frac)
            .seed(seed)
            .miss_mode(mode)
            .miss_relay(relay)
            .fault_plan(plan)
            .client(client)
            .retention(if seed % 2 == 0 { Retention::Full } else { Retention::Summary })
            .threads(threads)
            .block(block);
        prop_assume!(cfg.validate().is_ok());
        if let Ok(out) = ClusterSim::run(&cfg) {
            assert_identities(&out, relay);
        }
    }
}
