//! Probability distributions for the `memlat` workspace.
//!
//! The memcached latency model (Cheng et al., ICDCS 2017) is driven by the
//! statistics of key inter-arrival gaps and service times. This crate
//! provides the distributions the model and the simulator share, each with:
//!
//! * a CDF / survival function,
//! * moments (`mean`, `variance` — possibly infinite for heavy tails),
//! * an inverse-CDF or specialized **sampler** (for the discrete-event
//!   simulator),
//! * a **Laplace–Stieltjes transform** `L(s) = E[e^{-sT}]` (for the GI/M/1
//!   fixed point `δ = L_TX((1-δ)(1-q)μ_S)`), closed-form where available
//!   and numeric otherwise ([`laplace::numeric_laplace`]).
//!
//! All continuous distributions here have non-negative support, matching
//! their role as inter-arrival gaps and service times.
//!
//! # Examples
//!
//! ```
//! use memlat_dist::{Continuous, Exponential, GeneralizedPareto};
//!
//! # fn main() -> Result<(), memlat_dist::ParamError> {
//! let exp = Exponential::new(2.0)?;
//! assert!((exp.laplace(1.0) - 2.0 / 3.0).abs() < 1e-12);
//!
//! // The Facebook inter-arrival law: heavy-tailed Generalized Pareto.
//! let gpd = GeneralizedPareto::with_mean(0.15, 16e-6)?;
//! assert!((gpd.mean() - 16e-6).abs() < 1e-18);
//! assert!(gpd.laplace(0.0) > 0.999_999);
//! # Ok(())
//! # }
//! ```

// `deny` (not `forbid`): the `simd` module is the workspace's single audited
// unsafe island (raw AVX2 intrinsics) and opts back in locally.
#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use rand::RngCore;

pub mod binomial;
pub mod deterministic;
pub mod exponential;
pub mod gamma;
pub mod generalized_pareto;
pub mod geometric;
pub mod hyperexp;
pub mod laplace;
pub mod multinomial;
pub mod preset;
pub mod simd;
pub mod uniform;
pub mod zipf;

pub use binomial::Binomial;
pub use deterministic::Deterministic;
pub use exponential::Exponential;
pub use gamma::Gamma;
pub use generalized_pareto::GeneralizedPareto;
pub use geometric::GeometricBatch;
pub use hyperexp::Hyperexponential;
pub use multinomial::multinomial_counts;
pub use preset::GapLaw;
pub use uniform::Uniform;
pub use zipf::Zipf;

/// Error returned when a distribution is constructed with invalid
/// parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamError {
    what: String,
}

impl ParamError {
    /// Creates a parameter error with the given description.
    #[must_use]
    pub fn new(what: impl Into<String>) -> Self {
        Self { what: what.into() }
    }
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid distribution parameter: {}", self.what)
    }
}

impl std::error::Error for ParamError {}

/// A continuous probability distribution on `[0, ∞)`.
///
/// Implementors represent inter-arrival gaps or service times. The trait is
/// object-safe so queueing solvers can hold `&dyn Continuous` /
/// `Box<dyn Continuous>` arrival laws.
///
/// # Examples
///
/// ```
/// use memlat_dist::{Continuous, Exponential};
/// # fn main() -> Result<(), memlat_dist::ParamError> {
/// let d: Box<dyn Continuous> = Box::new(Exponential::new(1.0)?);
/// assert!((d.cdf(d.quantile(0.5)) - 0.5).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub trait Continuous: fmt::Debug + Send + Sync {
    /// Cumulative distribution function `P{T ≤ t}`.
    ///
    /// Must return 0 for `t < 0` and be non-decreasing.
    fn cdf(&self, t: f64) -> f64;

    /// Mean `E[T]`. May be `f64::INFINITY` for very heavy tails.
    fn mean(&self) -> f64;

    /// Variance `Var[T]`. May be `f64::INFINITY`.
    fn variance(&self) -> f64;

    /// Draws one sample.
    fn sample(&self, rng: &mut dyn RngCore) -> f64;

    /// Survival function `P{T > t} = 1 − CDF(t)`.
    fn survival(&self, t: f64) -> f64 {
        (1.0 - self.cdf(t)).clamp(0.0, 1.0)
    }

    /// Laplace–Stieltjes transform `L(s) = E[e^{-sT}]` for `s ≥ 0`.
    ///
    /// The default evaluates the transform numerically from the CDF via
    /// [`laplace::numeric_laplace`], anchored at the distribution's mean;
    /// closed-form implementations should override it.
    ///
    /// # Panics
    ///
    /// Implementations may panic for `s < 0`.
    fn laplace(&self, s: f64) -> f64 {
        laplace::numeric_laplace(&|t| self.cdf(t), s, self.mean())
    }

    /// Quantile function: the smallest `t` with `CDF(t) ≥ p`, `p ∈ [0, 1)`.
    ///
    /// The default inverts the CDF numerically by bracket doubling and
    /// bisection.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1)`.
    fn quantile(&self, p: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&p),
            "quantile requires p in [0,1), got {p}"
        );
        if p == 0.0 {
            return 0.0;
        }
        let mut hi = self.mean().max(1e-12);
        if !hi.is_finite() {
            hi = 1.0;
        }
        let mut guard = 0;
        while self.cdf(hi) < p {
            hi *= 2.0;
            guard += 1;
            assert!(guard < 1100, "quantile bracket expansion failed (p={p})");
        }
        memlat_numerics::bisect(|t| self.cdf(t) - p, 0.0, hi, 1e-14 * hi.max(1.0), 200)
            .unwrap_or(hi)
    }
}

/// A discrete probability distribution on the non-negative integers.
///
/// Used for batch sizes (number of concurrent keys) and popularity ranks.
pub trait Discrete: fmt::Debug + Send + Sync {
    /// Probability mass `P{X = k}`.
    fn pmf(&self, k: u64) -> f64;

    /// Cumulative distribution `P{X ≤ k}`.
    fn cdf(&self, k: u64) -> f64;

    /// Mean `E[X]`.
    fn mean(&self) -> f64;

    /// Draws one sample.
    fn sample(&self, rng: &mut dyn RngCore) -> u64;
}

/// Draws a uniform variate in the open interval `(0, 1)`.
///
/// Never returns exactly 0 or 1, so it is safe to feed into `ln` and
/// inverse-CDF formulas.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let u = memlat_dist::open_unit(&mut rng);
/// assert!(u > 0.0 && u < 1.0);
/// ```
#[inline]
pub fn open_unit<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    open_unit_from_bits(rng.next_u64())
}

/// Converts one raw `next_u64` draw into the uniform variate
/// [`open_unit`] would have produced from it.
///
/// This is the staging half of the block-batched samplers: a hot loop can
/// bank raw `next_u64` outputs into a `u64` lane in draw order, then apply
/// this (pure, branch-free) transform over the whole slice — the results
/// are bit-identical to calling [`open_unit`] at the original draw sites.
///
/// # Examples
///
/// ```
/// use rand::{RngCore, SeedableRng};
/// let mut a = rand::rngs::StdRng::seed_from_u64(7);
/// let mut b = a.clone();
/// let u = memlat_dist::open_unit(&mut a);
/// let v = memlat_dist::open_unit_from_bits(b.next_u64());
/// assert_eq!(u.to_bits(), v.to_bits());
/// ```
#[inline]
pub fn open_unit_from_bits(raw: u64) -> f64 {
    // 53 random mantissa bits, then nudge away from 0.
    let bits = raw >> 11;
    let u = (bits as f64 + 0.5) * (1.0 / (1u64 << 53) as f64);
    debug_assert!(u > 0.0 && u < 1.0);
    u
}

/// Boxed distributions forward the whole trait (including the
/// closed-form `laplace`/`quantile` overrides of the inner type), so
/// generic samplers like `BatchArrivals<G>` accept `Box<dyn Continuous>`
/// and concrete laws alike.
impl<T: Continuous + ?Sized> Continuous for Box<T> {
    fn cdf(&self, t: f64) -> f64 {
        (**self).cdf(t)
    }

    fn mean(&self) -> f64 {
        (**self).mean()
    }

    fn variance(&self) -> f64 {
        (**self).variance()
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        (**self).sample(rng)
    }

    fn survival(&self, t: f64) -> f64 {
        (**self).survival(t)
    }

    fn laplace(&self, s: f64) -> f64 {
        (**self).laplace(s)
    }

    fn quantile(&self, p: f64) -> f64 {
        (**self).quantile(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn open_unit_stays_open() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..10_000 {
            let u = open_unit(&mut rng);
            assert!(u > 0.0 && u < 1.0);
        }
    }

    #[test]
    fn param_error_display() {
        let e = ParamError::new("rate must be positive");
        assert!(e.to_string().contains("rate must be positive"));
    }

    #[test]
    fn trait_is_object_safe() {
        let d: Box<dyn Continuous> = Box::new(Exponential::new(3.0).unwrap());
        assert!((d.mean() - 1.0 / 3.0).abs() < 1e-15);
        let _: &dyn Discrete = &GeometricBatch::new(0.1).unwrap();
    }
}
