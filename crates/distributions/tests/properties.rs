//! Property-based tests for distribution laws.

use memlat_dist::{
    Binomial, Continuous, Deterministic, Discrete, Exponential, Gamma, GeneralizedPareto,
    GeometricBatch, Hyperexponential, Uniform, Zipf,
};
use proptest::prelude::*;
use rand::SeedableRng;

fn all_continuous(mean: f64, xi: f64) -> Vec<Box<dyn Continuous>> {
    vec![
        Box::new(Exponential::with_mean(mean).unwrap()),
        Box::new(Deterministic::new(mean).unwrap()),
        Box::new(Uniform::with_mean(mean).unwrap()),
        Box::new(Gamma::erlang(3, mean).unwrap()),
        Box::new(GeneralizedPareto::with_mean(xi, mean).unwrap()),
        Box::new(Hyperexponential::with_mean_scv(mean, 4.0).unwrap()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every continuous distribution has a proper, monotone CDF anchored
    /// at 0 for negative arguments.
    #[test]
    fn cdf_is_proper(mean in 0.01f64..100.0, xi in 0.0f64..0.9, t in 0.0f64..500.0, dt in 0.0f64..50.0) {
        for d in all_continuous(mean, xi) {
            prop_assert_eq!(d.cdf(-1.0), 0.0);
            let a = d.cdf(t);
            let b = d.cdf(t + dt);
            prop_assert!((0.0..=1.0).contains(&a), "{d:?} cdf({t})={a}");
            prop_assert!(b + 1e-12 >= a, "{d:?} not monotone at {t}");
            prop_assert!((d.survival(t) - (1.0 - a)).abs() < 1e-12);
        }
    }

    /// L(0) = 1 and L is non-increasing in s for every law.
    #[test]
    fn laplace_is_completely_monotone_at_grid(mean in 0.05f64..10.0, xi in 0.0f64..0.9) {
        for d in all_continuous(mean, xi) {
            let mut prev = d.laplace(0.0);
            prop_assert!((prev - 1.0).abs() < 1e-9, "{d:?} L(0)={prev}");
            for s in [0.01, 0.1, 1.0, 10.0, 100.0] {
                let l = d.laplace(s / mean);
                prop_assert!(l <= prev + 1e-9, "{d:?} L not decreasing at s={s}");
                prop_assert!((0.0..=1.0).contains(&l));
                prev = l;
            }
        }
    }

    /// (1 − L(s))/s → E[T] as s → 0 (first-moment identity), for the
    /// closed-form transforms.
    #[test]
    fn laplace_first_moment(mean in 0.1f64..10.0) {
        let laws: Vec<Box<dyn Continuous>> = vec![
            Box::new(Exponential::with_mean(mean).unwrap()),
            Box::new(Uniform::with_mean(mean).unwrap()),
            Box::new(Gamma::erlang(4, mean).unwrap()),
            Box::new(Hyperexponential::with_mean_scv(mean, 2.5).unwrap()),
            Box::new(Deterministic::new(mean).unwrap()),
        ];
        let s = 1e-6 / mean;
        for d in laws {
            let est = (1.0 - d.laplace(s)) / s;
            prop_assert!((est - mean).abs() < 1e-3 * mean, "{d:?} est={est} mean={mean}");
        }
    }

    /// quantile ∘ cdf ≈ identity on probabilities.
    #[test]
    fn quantile_inverts_cdf(mean in 0.1f64..10.0, xi in 0.0f64..0.9, p in 0.01f64..0.99) {
        for d in all_continuous(mean, xi) {
            let t = d.quantile(p);
            let back = d.cdf(t);
            // Deterministic is a step function: cdf(quantile(p)) = 1.
            if t == d.mean() && d.variance() == 0.0 {
                prop_assert_eq!(back, 1.0);
            } else {
                prop_assert!((back - p).abs() < 1e-6, "{d:?} p={p} back={back}");
            }
        }
    }

    /// Sampled values are non-negative and respect the support.
    #[test]
    fn samples_nonnegative(mean in 0.1f64..10.0, xi in 0.0f64..0.9, seed in 0u64..1000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for d in all_continuous(mean, xi) {
            for _ in 0..50 {
                let x = d.sample(&mut rng);
                prop_assert!(x >= 0.0 && x.is_finite(), "{d:?} sampled {x}");
            }
        }
    }

    /// Geometric batch: mean identity E[X] = 1/(1−q) and pmf telescopes.
    #[test]
    fn geometric_batch_laws(q in 0.0f64..0.95) {
        let x = GeometricBatch::new(q).unwrap();
        prop_assert!((x.mean() - 1.0 / (1.0 - q)).abs() < 1e-12);
        let head: f64 = (1..=64).map(|k| x.pmf(k)).sum();
        prop_assert!((head - x.cdf(64)).abs() < 1e-9);
    }

    /// Binomial mean and support bounds hold across samplers.
    #[test]
    fn binomial_sampler_support(n in 1u64..5000, p in 0.0f64..1.0, seed in 0u64..100) {
        let b = Binomial::new(n, p).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..20 {
            let k = b.sample(&mut rng);
            prop_assert!(k <= n);
        }
    }

    /// Zipf pmf is non-increasing in rank.
    #[test]
    fn zipf_pmf_monotone(n in 2u64..500, s in 0.0f64..2.0) {
        let z = Zipf::new(n, s).unwrap();
        for k in 1..n.min(50) {
            prop_assert!(z.pmf(k) + 1e-15 >= z.pmf(k + 1));
        }
    }

    /// Multinomial counts conserve the total and stay within categories.
    #[test]
    fn multinomial_conserves(n in 0u64..10_000, seed in 0u64..100) {
        let probs = [0.4, 0.3, 0.2, 0.1];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let c = memlat_dist::multinomial_counts(n, &probs, &mut rng).unwrap();
        prop_assert_eq!(c.len(), 4);
        prop_assert_eq!(c.iter().sum::<u64>(), n);
    }
}
