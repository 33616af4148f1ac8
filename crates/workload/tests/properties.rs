//! Property-based tests for the workload substrate.

use memlat_dist::{Exponential, GeneralizedPareto};
use memlat_workload::{
    arrival::{for_each_batch_until, BatchArrivals},
    ConsistentHashRing, ZipfPopularity,
};
use proptest::prelude::*;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Batch streams are strictly increasing in time and emit positive
    /// batch sizes; the empirical key rate matches the configuration.
    #[test]
    fn batch_stream_laws(rate in 100.0f64..100_000.0, q in 0.0f64..0.6, xi in 0.0f64..0.7, seed in 0u64..500) {
        let gaps = GeneralizedPareto::facebook(xi, (1.0 - q) * rate).unwrap();
        let mut s = BatchArrivals::new(Box::new(gaps), q).unwrap();
        prop_assert!((s.key_rate() - rate).abs() < 1e-6 * rate);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut prev = 0.0;
        for _ in 0..200 {
            let (t, b) = s.next_batch(&mut rng);
            prop_assert!(t > prev);
            prop_assert!(b >= 1);
            prev = t;
        }
    }

    /// The ring maps every key to a valid server, and the mapping is
    /// stable.
    #[test]
    fn placements_are_total_and_stable(m in 1usize..32, key in 0u64..1_000_000) {
        let ring = ConsistentHashRing::new(m, 64);
        let s = ring.server_of(key);
        prop_assert!(s < ring.servers());
        prop_assert_eq!(s, ring.server_of(key));
    }

    /// Zipf popularity: head mass is monotone in n and skew.
    #[test]
    fn zipf_head_mass_monotone(keys in 100u64..100_000, skew in 0.2f64..1.5) {
        let pop = ZipfPopularity::new(keys, skew).unwrap();
        let h10 = pop.head_mass(10);
        let h100 = pop.head_mass(100.min(keys));
        prop_assert!(h100 >= h10);
        let flatter = ZipfPopularity::new(keys, skew * 0.5).unwrap();
        prop_assert!(pop.head_mass(10) >= flatter.head_mass(10) - 1e-12);
    }

    /// for_each_batch_until returns exactly the keys it reported.
    #[test]
    fn batch_counting_consistent(rate in 1_000.0f64..20_000.0, seed in 0u64..100) {
        let gaps = Exponential::new(rate).unwrap();
        let mut s = BatchArrivals::new(Box::new(gaps), 0.2).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut manual = 0u64;
        let reported = for_each_batch_until(&mut s, 0.5, &mut rng, |_, b| manual += b);
        prop_assert_eq!(manual, reported);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The alias-table sampler realizes the same pmf as the
    /// rejection-inversion sampler it replaces on small key spaces:
    /// empirical masses of the head and the lower half both sit within
    /// binomial noise of the exact Zipf values.
    #[test]
    fn alias_sampler_empirical_pmf_matches_exact(
        keys in 2u64..2_000,
        skew in 0.0f64..1.4,
        seed in 0u64..100_000,
    ) {
        let pop = ZipfPopularity::new(keys, skew).unwrap();
        prop_assert!(pop.uses_alias_table());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let draws = 20_000u32;
        let head_cut = (keys / 4).max(1);
        let half_cut = (keys / 2).max(1);
        let (mut head, mut half) = (0u32, 0u32);
        for _ in 0..draws {
            let k = pop.sample_key(&mut rng);
            prop_assert!(k < keys);
            if k < head_cut {
                head += 1;
            }
            if k < half_cut {
                half += 1;
            }
        }
        // 5σ binomial slack at p = 1/2, n = 20 000 is ~0.018.
        let tol = 0.02;
        let head_frac = f64::from(head) / f64::from(draws);
        let half_frac = f64::from(half) / f64::from(draws);
        prop_assert!(
            (head_frac - pop.head_mass(head_cut)).abs() < tol,
            "head {} vs {}", head_frac, pop.head_mass(head_cut)
        );
        prop_assert!(
            (half_frac - pop.head_mass(half_cut)).abs() < tol,
            "half {} vs {}", half_frac, pop.head_mass(half_cut)
        );
    }

    /// The alias table and a direct inverse-CDF sampler draw from the
    /// same law: a chi-square homogeneity test over head ranks plus a
    /// pooled tail cannot tell their samples apart. The significance
    /// level is extreme (1e-6) because proptest explores random
    /// parameters each run — a sound sampler must never trip it, while
    /// a wrong alias construction fails it by orders of magnitude.
    #[test]
    fn alias_and_inverse_cdf_samplers_agree(
        keys in 50u64..1_500,
        skew in 0.0f64..1.4,
        seed in 0u64..100_000,
    ) {
        let pop = ZipfPopularity::new(keys, skew).unwrap();
        prop_assert!(pop.uses_alias_table());
        // Cumulative PMF for the inverse-CDF draw: cum[k] = P(X ≤ k).
        let mut cum = Vec::with_capacity(keys as usize);
        let mut acc = 0.0;
        for k in 0..keys {
            acc += pop.access_probability(k);
            cum.push(acc);
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x1ce_cdf);
        let draws = 4_000usize;
        let head = (keys as usize / 4).clamp(1, 25);
        let mut via_alias = vec![0u64; head + 1];
        let mut via_inverse = vec![0u64; head + 1];
        for _ in 0..draws {
            let a = pop.sample_key(&mut rng) as usize;
            via_alias[a.min(head)] += 1;
            let u = memlat_dist::open_unit(&mut rng);
            let i = cum.partition_point(|&c| c < u).min(keys as usize - 1);
            via_inverse[i.min(head)] += 1;
        }
        let test = memlat_stats::gof::chi_square_homogeneity(&via_alias, &via_inverse);
        prop_assert!(
            test.passes(1e-6),
            "χ² = {:.2}, p = {:.2e} over {} bins", test.statistic, test.p_value, head + 1
        );
    }
}
