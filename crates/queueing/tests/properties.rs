//! Property-based tests of the queueing laws.

use memlat_dist::{Deterministic, Exponential, Gamma, GeneralizedPareto, Hyperexponential};
use memlat_queue::{solve_delta, ExactKeyLatency, GiM1, GixM1};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// δ ∈ (0, 1) and increases with utilization for every arrival law.
    #[test]
    fn delta_in_unit_interval_and_monotone(rho in 0.05f64..0.95, drho in 0.01f64..0.04) {
        let mu = 1.0;
        let laws: Vec<Box<dyn memlat_dist::Continuous>> = vec![
            Box::new(Exponential::new(rho).unwrap()),
            Box::new(Deterministic::new(1.0 / rho).unwrap()),
            Box::new(Gamma::erlang(3, 1.0 / rho).unwrap()),
            Box::new(Hyperexponential::with_mean_scv(1.0 / rho, 3.0).unwrap()),
            Box::new(GeneralizedPareto::facebook(0.3, rho).unwrap()),
        ];
        for law in laws {
            let d = solve_delta(law.as_ref(), mu).unwrap();
            prop_assert!(d > 0.0 && d < 1.0, "{law:?}: {d}");
        }
        // Monotonicity, spot-checked on the GPD law.
        if rho + drho < 0.98 {
            let d1 = solve_delta(&GeneralizedPareto::facebook(0.3, rho).unwrap(), mu).unwrap();
            let d2 =
                solve_delta(&GeneralizedPareto::facebook(0.3, rho + drho).unwrap(), mu).unwrap();
            prop_assert!(d2 > d1, "rho={rho}: {d2} !> {d1}");
        }
    }

    /// Proposition 2's scale invariance: δ(c·λ, c·μ) = δ(λ, μ).
    #[test]
    fn delta_scale_invariant(rho in 0.1f64..0.9, c in 0.01f64..100.0, xi in 0.0f64..0.8) {
        let d1 = solve_delta(&GeneralizedPareto::facebook(xi, rho).unwrap(), 1.0).unwrap();
        let d2 = solve_delta(&GeneralizedPareto::facebook(xi, c * rho).unwrap(), c).unwrap();
        prop_assert!((d1 - d2).abs() < 1e-6, "xi={xi} rho={rho} c={c}: {d1} vs {d2}");
    }

    /// GI/M/1 waiting and sojourn laws are consistent: W ≤ T in every
    /// quantile, and the mean identities hold.
    #[test]
    fn gim1_laws_consistent(rho in 0.05f64..0.9, k in 0.01f64..0.99) {
        let q = GiM1::solve(&Exponential::new(rho).unwrap(), 1.0).unwrap();
        prop_assert!(q.waiting_quantile(k) <= q.sojourn_quantile(k) + 1e-12);
        prop_assert!((q.mean_sojourn() - (q.mean_wait() + 1.0 / q.decay_rate() * (1.0 - q.sigma()))).abs() < 1e-9);
        // CDFs are proper.
        for t in [0.0, 0.5, 2.0, 10.0] {
            let w = q.waiting_cdf(t);
            let s = q.sojourn_cdf(t);
            prop_assert!((0.0..=1.0).contains(&w));
            prop_assert!(s <= w + 1e-12, "sojourn CDF above waiting CDF at t={t}");
        }
    }

    /// The batch queue's per-key exact law equals its completion law
    /// (the collapse identity), for arbitrary parameters.
    #[test]
    fn exact_key_collapse(rho in 0.05f64..0.9, q in 0.0f64..0.7, xi in 0.0f64..0.8, t in 0.0f64..50.0) {
        let gaps = GeneralizedPareto::facebook(xi, (1.0 - q) * rho).unwrap();
        let queue = GixM1::new(&gaps, q, 1.0).unwrap();
        let exact = ExactKeyLatency::new(&queue);
        prop_assert!((exact.cdf(t) - queue.completion_time_cdf(t)).abs() < 1e-12);
        prop_assert!((exact.cdf(t) - exact.cdf_mixture_form(t)).abs() < 1e-9);
    }

    /// Burstier shapes (higher ξ) give larger δ at equal utilization.
    #[test]
    fn burstiness_increases_delta(rho in 0.2f64..0.9, xi in 0.05f64..0.7) {
        let base = solve_delta(&GeneralizedPareto::facebook(0.0, rho).unwrap(), 1.0).unwrap();
        let bursty = solve_delta(&GeneralizedPareto::facebook(xi, rho).unwrap(), 1.0).unwrap();
        prop_assert!(bursty > base - 1e-9, "xi={xi} rho={rho}: {bursty} vs {base}");
    }
}
