//! Differential test: the block-batched hot path is bit-identical to
//! the scalar loop for every block size, at every thread count.
//!
//! The scalar reference (`block = 1`) takes the pre-batching per-key
//! route: one service draw, one FCFS submit, one miss coin per key.
//! The batched runs stage keys in structure-of-arrays lanes, bank raw
//! RNG bits, and run the transforms and the Lindley recursion as slice
//! scans — but consume the per-server RNG streams in exactly the same
//! order. Fingerprints are FNV-1a over raw f32 bit patterns, so any
//! drift in draw order, rounding, or record order fails the test.

use memlat_cluster::{ClusterSim, Retention, SimConfig, SimOutput};
use memlat_model::ModelParams;

/// FNV-1a over the f32 bit patterns of `(s, d)` pairs, server-major.
fn fnv1a_records(out: &SimOutput) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut push = |bits: u32| {
        for b in bits.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01B3);
        }
    };
    for j in 0..out.shares().len() {
        for (s, d) in out.records(j) {
            push(s.to_bits());
            push(d.to_bits());
        }
    }
    h
}

fn assert_block_invariant(params: ModelParams, seed: u64) {
    let base = SimConfig::new(params).duration(0.4).warmup(0.1).seed(seed);
    // Scalar reference at one thread.
    let reference = ClusterSim::run(&base.clone().threads(1).block(1)).unwrap();
    assert!(
        reference.total_keys() > 1_000,
        "reference run produced too few keys to be meaningful"
    );
    let ref_fnv = fnv1a_records(&reference);
    // Power-of-two, odd (so blocks end mid-batch-cycle), and the tuned
    // default — each at the sequential and parallel thread counts.
    for block in [1024usize, 37, 256] {
        for threads in [1usize, 4] {
            let got = ClusterSim::run(&base.clone().threads(threads).block(block)).unwrap();
            assert_eq!(
                got.total_keys(),
                reference.total_keys(),
                "key count diverged at block={block} threads={threads}"
            );
            assert_eq!(
                fnv1a_records(&got),
                ref_fnv,
                "records diverged at block={block} threads={threads}"
            );
            assert_eq!(
                got.summaries(),
                reference.summaries(),
                "summaries diverged at block={block} threads={threads}"
            );
            assert_eq!(got.db_latency_stats(), reference.db_latency_stats());
            assert_eq!(got.miss_ratio().to_bits(), reference.miss_ratio().to_bits());
        }
    }
}

/// Table-3 configuration (the paper's default Facebook parameters).
#[test]
fn block_sizes_are_bit_identical_on_table3_config() {
    let params = ModelParams::builder().build().unwrap();
    assert_block_invariant(params, 0x7ab1e3);
}

/// Fig-7-style configuration: elevated per-server key rate, where the
/// queueing dominates and longer busy periods make the Lindley scan
/// carry state across many consecutive block boundaries.
#[test]
fn block_sizes_are_bit_identical_on_fig07_config() {
    let params = ModelParams::builder()
        .key_rate_per_server(75_000.0)
        .build()
        .unwrap();
    assert_block_invariant(params, 0xf17);
}

/// Summary retention must agree too: the bulk `push_slice` folds into
/// the Welford accumulator and sketch must match per-key pushes.
#[test]
fn block_summary_retention_matches_scalar_full() {
    let params = ModelParams::builder().build().unwrap();
    let base = SimConfig::new(params)
        .duration(0.3)
        .warmup(0.05)
        .seed(0xb10c);
    let scalar = ClusterSim::run(&base.clone().threads(1).block(1)).unwrap();
    let lean = ClusterSim::run(&base.threads(4).block(1024).retention(Retention::Summary)).unwrap();
    assert!(!lean.has_records());
    assert_eq!(scalar.summaries(), lean.summaries());
    assert_eq!(scalar.db_latency_stats(), lean.db_latency_stats());
    assert_eq!(scalar.db_latency_sketch(), lean.db_latency_sketch());
    // Sketch-answered quantiles (Summary has no exact ECDF) must agree
    // with the scalar run's sketch bit-for-bit.
    let k = memlat_stats::max_order_quantile(150);
    assert_eq!(
        scalar.pooled_latency_sketch().quantile(k).to_bits(),
        lean.server_latency_quantile(k).to_bits()
    );
}

/// Hedging runs are block-eligible (the hedge pass happens after the
/// per-server loop); the hedged output must not depend on block size.
#[test]
fn block_sizes_are_bit_identical_under_hedging() {
    use memlat_cluster::ClientPolicy;
    let params = ModelParams::builder().build().unwrap();
    let base = SimConfig::new(params)
        .duration(0.3)
        .warmup(0.05)
        .seed(0x4ed6)
        .client(ClientPolicy::none().hedge(2e-4));
    let scalar = ClusterSim::run(&base.clone().threads(1).block(1)).unwrap();
    assert!(scalar.resilience().hedges_sent > 0);
    for threads in [1usize, 4] {
        let got = ClusterSim::run(&base.clone().threads(threads).block(1024)).unwrap();
        assert_eq!(
            fnv1a_records(&got),
            fnv1a_records(&scalar),
            "threads={threads}"
        );
        assert_eq!(got.summaries(), scalar.summaries());
        assert_eq!(got.resilience(), scalar.resilience());
    }
}

/// Forced-scalar dispatch is bit-identical to whatever the host
/// auto-detected (AVX2 where available): the SIMD kernels share the
/// deterministic `dln`/`dexp` ports with the scalar fallback and use no
/// FMA, so instruction selection must be invisible in the output. On an
/// AVX2 host this proves SIMD ↔ scalar identity end to end through the
/// full cluster simulation; on hosts without AVX2 both runs take the
/// scalar path and the test degrades to a (still valid) self-check.
/// CI additionally runs a whole matrix leg under `MEMLAT_NO_SIMD=1`,
/// which pins detection off before any kernel runs.
#[test]
fn forced_scalar_dispatch_is_bit_identical() {
    let params = ModelParams::builder().build().unwrap();
    let base = SimConfig::new(params)
        .duration(0.3)
        .warmup(0.05)
        .seed(0x513d);
    let auto = ClusterSim::run(&base.clone().threads(4).block(1024)).unwrap();
    memlat_dist::simd::set_forced_scalar(true);
    let scalar = ClusterSim::run(&base.clone().threads(4).block(1024)).unwrap();
    let scalar_unblocked = ClusterSim::run(&base.threads(1).block(1)).unwrap();
    memlat_dist::simd::set_forced_scalar(false);
    assert!(!memlat_dist::simd::simd_active() || cfg!(target_arch = "x86_64"));
    assert_eq!(fnv1a_records(&auto), fnv1a_records(&scalar));
    assert_eq!(auto.summaries(), scalar.summaries());
    assert_eq!(auto.db_latency_stats(), scalar.db_latency_stats());
    assert_eq!(fnv1a_records(&auto), fnv1a_records(&scalar_unblocked));
    assert_eq!(auto.summaries(), scalar_unblocked.summaries());

    // M = 100 under summary retention: auto dispatch on four threads
    // against forced-scalar kernels on one.
    let params = ModelParams::builder()
        .servers(100)
        .key_rate_per_server(0.70 * 80_000.0)
        .build()
        .unwrap();
    let scaled = SimConfig::new(params)
        .duration(0.05)
        .warmup(0.005)
        .retention(Retention::Summary)
        .seed(0xbe9c);
    let auto = ClusterSim::run(&scaled.clone().threads(4)).unwrap();
    memlat_dist::simd::set_forced_scalar(true);
    let scalar = ClusterSim::run(&scaled.threads(1)).unwrap();
    memlat_dist::simd::set_forced_scalar(false);
    assert_eq!(auto.total_keys(), scalar.total_keys());
    assert_eq!(auto.summaries(), scalar.summaries());
    let bits = |u: &[f64]| u.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(auto.utilization()), bits(scalar.utilization()));
    assert_eq!(auto.miss_ratio().to_bits(), scalar.miss_ratio().to_bits());
}

/// A timeout that can never fire still forces the scalar path (the
/// eligibility check is conservative), so output stays pinned.
#[test]
fn inert_timeout_output_is_block_size_independent() {
    use memlat_cluster::ClientPolicy;
    let params = ModelParams::builder().build().unwrap();
    let base = SimConfig::new(params)
        .duration(0.2)
        .warmup(0.05)
        .seed(0x71e0)
        .client(ClientPolicy::none().timeout(1e3));
    let a = ClusterSim::run(&base.clone().block(1)).unwrap();
    let b = ClusterSim::run(&base.block(1024)).unwrap();
    assert_eq!(a.resilience().timeouts, 0);
    assert_eq!(fnv1a_records(&a), fnv1a_records(&b));
    assert_eq!(a.summaries(), b.summaries());
}
