//! The GI/M/1 queue.

use memlat_dist::Continuous;

use crate::{delta::solve_delta, QueueError};

/// A solved GI/M/1 queue: general independent inter-arrival gaps,
/// exponential service with rate `μ`, one FCFS server.
///
/// All stationary laws follow from the decay parameter `σ`
/// (see [`solve_delta`]):
///
/// * waiting time: `W(t) = 1 − σ e^{-(1−σ)μt}` (an atom `1−σ` at zero),
/// * sojourn (completion) time: `Exp((1−σ)μ)`.
///
/// # Examples
///
/// ```
/// use memlat_dist::Exponential;
/// use memlat_queue::GiM1;
///
/// # fn main() -> Result<(), memlat_queue::QueueError> {
/// // M/M/1 at ρ = 0.5: mean sojourn 1/(μ−λ) = 2/μ.
/// let gaps = Exponential::new(0.5).map_err(memlat_queue::QueueError::from)?;
/// let q = GiM1::solve(&gaps, 1.0)?;
/// assert!((q.mean_sojourn() - 2.0).abs() < 1e-8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GiM1 {
    sigma: f64,
    service_rate: f64,
    utilization: f64,
}

impl GiM1 {
    /// Solves the queue for the given inter-arrival law and service rate.
    ///
    /// # Errors
    ///
    /// Propagates [`QueueError`] from the fixed-point solver; in
    /// particular [`QueueError::Unstable`] when `ρ ≥ 1`.
    pub fn solve(interarrival: &dyn Continuous, service_rate: f64) -> Result<Self, QueueError> {
        let sigma = solve_delta(interarrival, service_rate)?;
        let utilization = 1.0 / (interarrival.mean() * service_rate);
        Ok(Self {
            sigma,
            service_rate,
            utilization,
        })
    }

    /// Constructs a queue directly from a known decay parameter.
    ///
    /// Useful in tests and for the M/M/1 special case where `σ = ρ`.
    ///
    /// # Errors
    ///
    /// Returns [`QueueError::InvalidParam`] unless `σ ∈ (0, 1)` and
    /// `μ > 0`.
    pub fn from_sigma(sigma: f64, service_rate: f64, utilization: f64) -> Result<Self, QueueError> {
        if !(sigma.is_finite() && (0.0..1.0).contains(&sigma)) {
            return Err(QueueError::InvalidParam(format!(
                "sigma must be in (0,1), got {sigma}"
            )));
        }
        if !(service_rate.is_finite() && service_rate > 0.0) {
            return Err(QueueError::InvalidParam(format!(
                "service rate must be positive, got {service_rate}"
            )));
        }
        if !(utilization.is_finite() && (0.0..1.0).contains(&utilization)) {
            return Err(QueueError::InvalidParam(format!(
                "utilization must be in (0,1), got {utilization}"
            )));
        }
        Ok(Self {
            sigma,
            service_rate,
            utilization,
        })
    }

    /// The geometric decay parameter `σ` (the paper's `δ`).
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The service rate `μ`.
    #[must_use]
    pub fn service_rate(&self) -> f64 {
        self.service_rate
    }

    /// The offered utilization `ρ`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.utilization
    }

    /// The exponential decay rate `(1−σ)μ` shared by the waiting and
    /// sojourn laws.
    #[must_use]
    pub fn decay_rate(&self) -> f64 {
        (1.0 - self.sigma) * self.service_rate
    }

    /// CDF of the stationary waiting time: `1 − σ e^{-(1−σ)μt}`.
    #[must_use]
    pub fn waiting_cdf(&self, t: f64) -> f64 {
        if t < 0.0 {
            0.0
        } else {
            1.0 - self.sigma * (-self.decay_rate() * t).exp()
        }
    }

    /// CDF of the stationary sojourn time: `1 − e^{-(1−σ)μt}`.
    #[must_use]
    pub fn sojourn_cdf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            0.0
        } else {
            -(-self.decay_rate() * t).exp_m1()
        }
    }

    /// `k`-th quantile of the waiting time (the paper's eq. (7) shape):
    /// `max{(ln σ − ln(1−k)) / ((1−σ)μ), 0}`.
    ///
    /// # Panics
    ///
    /// Panics unless `k ∈ [0, 1)`.
    #[must_use]
    pub fn waiting_quantile(&self, k: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&k),
            "quantile requires k in [0,1), got {k}"
        );
        ((self.sigma.ln() - (1.0 - k).ln()) / self.decay_rate()).max(0.0)
    }

    /// `k`-th quantile of the sojourn time (the paper's eq. (8) shape):
    /// `−ln(1−k) / ((1−σ)μ)`.
    ///
    /// # Panics
    ///
    /// Panics unless `k ∈ [0, 1)`.
    #[must_use]
    pub fn sojourn_quantile(&self, k: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&k),
            "quantile requires k in [0,1), got {k}"
        );
        -(1.0 - k).ln() / self.decay_rate()
    }

    /// Mean waiting time `σ / ((1−σ)μ)`.
    #[must_use]
    pub fn mean_wait(&self) -> f64 {
        self.sigma / self.decay_rate()
    }

    /// Mean sojourn time `1 / ((1−σ)μ)`.
    #[must_use]
    pub fn mean_sojourn(&self) -> f64 {
        1.0 / self.decay_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memlat_dist::{Deterministic, Exponential};

    fn mm1(rho: f64) -> GiM1 {
        GiM1::solve(&Exponential::new(rho).unwrap(), 1.0).unwrap()
    }

    #[test]
    fn mm1_closed_forms() {
        let q = mm1(0.8);
        assert!((q.sigma() - 0.8).abs() < 1e-8);
        assert!((q.mean_sojourn() - 5.0).abs() < 1e-6);
        assert!((q.mean_wait() - 4.0).abs() < 1e-6);
        // P{W = 0} = 1 − ρ.
        assert!((q.waiting_cdf(0.0) - 0.2).abs() < 1e-7);
        // Sojourn ~ Exp(μ − λ).
        for t in [0.5_f64, 2.0, 10.0] {
            let closed = 1.0 - (-0.2 * t).exp();
            assert!((q.sojourn_cdf(t) - closed).abs() < 1e-7, "t={t}");
        }
    }

    #[test]
    fn sojourn_quantile_inverts_cdf() {
        let q = mm1(0.6);
        for k in [0.1, 0.5, 0.9, 0.999] {
            let t = q.sojourn_quantile(k);
            assert!((q.sojourn_cdf(t) - k).abs() < 1e-10, "k={k}");
        }
    }

    #[test]
    fn waiting_quantile_saturates_at_zero() {
        let q = mm1(0.5);
        // For k ≤ 1−σ the waiting-time quantile is 0 (atom at zero).
        assert_eq!(q.waiting_quantile(0.3), 0.0);
        assert!(q.waiting_quantile(0.9) > 0.0);
    }

    #[test]
    fn waiting_quantile_inverts_cdf_above_atom() {
        let q = mm1(0.7);
        for k in [0.5, 0.8, 0.99] {
            let t = q.waiting_quantile(k);
            assert!((q.waiting_cdf(t) - k).abs() < 1e-10, "k={k}");
        }
    }

    #[test]
    fn wait_below_sojourn() {
        let q = GiM1::solve(&Deterministic::new(1.3).unwrap(), 1.0).unwrap();
        assert!(q.mean_wait() < q.mean_sojourn());
        for k in [0.2, 0.6, 0.95] {
            assert!(q.waiting_quantile(k) <= q.sojourn_quantile(k));
        }
    }

    #[test]
    fn from_sigma_validation() {
        assert!(GiM1::from_sigma(1.0, 1.0, 0.5).is_err());
        assert!(GiM1::from_sigma(0.5, 0.0, 0.5).is_err());
        assert!(GiM1::from_sigma(0.5, 1.0, 1.5).is_err());
        assert!(GiM1::from_sigma(0.5, 1.0, 0.5).is_ok());
    }

    #[test]
    #[should_panic(expected = "quantile requires")]
    fn quantile_panics_out_of_range() {
        let _ = mm1(0.5).sojourn_quantile(1.0);
    }
}
