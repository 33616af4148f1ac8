//! Max-statistics helpers — the approximation behind the paper's eq. 12.

/// The quantile level used to approximate the expectation of the maximum
/// of `n` i.i.d. draws: `E[max] ≈ F⁻¹(n/(n+1))` (paper eq. 12, after
/// Casella & Berger).
///
/// # Examples
///
/// ```
/// assert_eq!(memlat_stats::max_order_quantile(1), 0.5);
/// assert_eq!(memlat_stats::max_order_quantile(150), 150.0 / 151.0);
/// ```
#[must_use]
pub fn max_order_quantile(n: u64) -> f64 {
    let n = n.max(1) as f64;
    n / (n + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_levels() {
        assert_eq!(max_order_quantile(0), 0.5); // clamped to n = 1
        assert_eq!(max_order_quantile(9), 0.9);
        assert!((max_order_quantile(999) - 0.999).abs() < 1e-12);
    }
}
