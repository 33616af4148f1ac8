//! Key popularity — the skew behind the unbalanced load distribution.

use std::sync::atomic::{AtomicU64, Ordering};

use memlat_dist::{Discrete, ParamError, Zipf};
use rand::RngCore;

use crate::KeyId;

/// Process-wide count of alias-table constructions, for asserting that
/// sweep/simulation layers reuse cached tables instead of rebuilding a
/// multi-megabyte table per sweep point (see [`alias_builds`]).
static ALIAS_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Number of alias tables built by this process so far.
///
/// Monotone counter; take a snapshot before the code under test and diff
/// after. The libtest harness runs a binary's tests on parallel threads,
/// so a test asserting an exact count must not share its process with
/// other table-building tests: give it its own integration-test binary,
/// and serialize the tests inside that binary.
#[must_use]
pub fn alias_builds() -> u64 {
    ALIAS_BUILDS.load(Ordering::Relaxed)
}

/// Key spaces up to this size get a precomputed alias table (one
/// uniform, two array reads per draw); larger ones sample by
/// rejection-inversion (`O(1)` per draw too, but several transcendental
/// calls and an expected >1 uniforms each). The cutoff bounds the build
/// cost and footprint at ~16 MB of table.
const ALIAS_MAX_KEYS: u64 = 1 << 20;

/// Walker/Vose alias table: draw cell `i` uniformly, then return `i`
/// itself with probability `prob[i]` and its alias otherwise.
#[derive(Debug, Clone)]
struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

/// Vose's `O(n)` table construction over pre-scaled masses (each cell's
/// probability mass times `n`). Cells left on whichever worklist drains
/// last are within rounding of exactly 1; they keep `prob = 1` and
/// `alias = self`.
fn vose(mut scaled: Vec<f64>) -> (Vec<f64>, Vec<u32>) {
    let n = scaled.len();
    let mut prob = vec![1.0f64; n];
    let mut alias: Vec<u32> = (0..n as u32).collect();
    let mut small: Vec<usize> = Vec::new();
    let mut large: Vec<usize> = Vec::new();
    for (i, &s) in scaled.iter().enumerate() {
        if s < 1.0 {
            small.push(i);
        } else {
            large.push(i);
        }
    }
    while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
        prob[s] = scaled[s];
        alias[s] = l as u32;
        scaled[l] = (scaled[l] + scaled[s]) - 1.0;
        if scaled[l] < 1.0 {
            small.push(l);
        } else {
            large.push(l);
        }
    }
    (prob, alias)
}

impl AliasTable {
    /// Builds the table from the Zipf pmf in `O(n)` (Vose's method).
    fn build(zipf: &Zipf) -> Self {
        ALIAS_BUILDS.fetch_add(1, Ordering::Relaxed);
        let n = usize::try_from(zipf.n()).expect("alias key space fits usize");
        let scaled: Vec<f64> = (1..=zipf.n()).map(|k| zipf.pmf(k) * n as f64).collect();
        let (prob, alias) = vose(scaled);
        Self { prob, alias }
    }

    /// Draws a 0-based key id from one uniform.
    #[inline]
    fn sample(&self, rng: &mut dyn RngCore) -> KeyId {
        let n = self.prob.len();
        let x = memlat_dist::open_unit(rng) * n as f64;
        let i = (x as usize).min(n - 1);
        let v = x - i as f64;
        if v < self.prob[i] {
            i as KeyId
        } else {
            KeyId::from(self.alias[i])
        }
    }
}

/// Walker/Vose alias sampler over an explicit non-negative weight
/// vector: one uniform and two array reads per draw, regardless of the
/// weight shape.
///
/// This is the general-purpose sibling of the private Zipf alias table:
/// it powers conditional key populations (e.g. the keys a single server
/// owns under consistent-hash routing, see
/// [`crate::routing::RoutedKeyspace`]) where the weights are an
/// arbitrary subset of a pmf rather than a full Zipf law. Construction
/// does not touch the [`alias_builds`] counter — that counter audits the
/// multi-megabyte full-keyspace tables only.
///
/// # Examples
///
/// ```
/// use memlat_workload::WeightedAlias;
/// use rand::SeedableRng;
///
/// let table = WeightedAlias::new(&[3.0, 1.0]).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let i = table.sample(&mut rng);
/// assert!(i < 2);
/// ```
#[derive(Debug, Clone)]
pub struct WeightedAlias {
    prob: Vec<f64>,
    alias: Vec<u32>,
}

impl WeightedAlias {
    /// Builds the table from raw weights in `O(n)`; weights need not be
    /// normalized.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `weights` is empty, holds a negative or
    /// non-finite entry, sums to zero, or exceeds `u32::MAX` entries.
    pub fn new(weights: &[f64]) -> Result<Self, ParamError> {
        if weights.is_empty() {
            return Err(ParamError::new("alias weights must be non-empty"));
        }
        if weights.len() > u32::MAX as usize {
            return Err(ParamError::new("alias table limited to u32::MAX cells"));
        }
        let mut total = 0.0f64;
        for &w in weights {
            if !w.is_finite() || w < 0.0 {
                return Err(ParamError::new("alias weights must be finite and >= 0"));
            }
            total += w;
        }
        if total <= 0.0 {
            return Err(ParamError::new("alias weights must have positive mass"));
        }
        let n = weights.len();
        let scaled: Vec<f64> = weights.iter().map(|&w| w / total * n as f64).collect();
        let (prob, alias) = vose(scaled);
        Ok(Self { prob, alias })
    }

    /// Number of cells (= number of weights).
    #[must_use]
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table has no cells (never true for a built table).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws a 0-based cell index from one uniform.
    #[must_use]
    pub fn sample(&self, rng: &mut dyn RngCore) -> usize {
        let n = self.prob.len();
        let x = memlat_dist::open_unit(rng) * n as f64;
        let i = (x as usize).min(n - 1);
        let v = x - i as f64;
        if v < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

/// A Zipf-popular key population: rank 1 is the hottest key.
///
/// The paper's §2.1 observation — "a small percentage of values are
/// accessed quite frequently, while the rest numerous ones are accessed
/// only a handful of times" — is what this type generates. Routing it
/// through a [`crate::ConsistentHashRing`] yields an emergent unbalanced `{p_j}`,
/// the simulator's alternative to imposing shares directly.
///
/// Key spaces up to 2²⁰ keys sample through a precomputed Walker alias
/// table — one uniform and two array reads per draw; larger spaces
/// (e.g. [`ZipfPopularity::facebook_etc`]) fall back to table-free
/// rejection-inversion. The two samplers realize the same pmf but
/// consume the RNG stream differently, so which one is active is a
/// function of the key space alone, never of the call site.
///
/// # Examples
///
/// ```
/// use memlat_workload::ZipfPopularity;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), memlat_dist::ParamError> {
/// let pop = ZipfPopularity::new(1_000_000, 1.01)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let key = pop.sample_key(&mut rng);
/// assert!(key < 1_000_000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ZipfPopularity {
    zipf: Zipf,
    alias: Option<AliasTable>,
}

impl ZipfPopularity {
    /// Creates a population of `keys` keys with Zipf exponent `skew`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] for an empty key space or negative skew.
    pub fn new(keys: u64, skew: f64) -> Result<Self, ParamError> {
        let zipf = Zipf::new(keys, skew)?;
        let alias = (keys <= ALIAS_MAX_KEYS).then(|| AliasTable::build(&zipf));
        Ok(Self { zipf, alias })
    }

    /// Facebook-like preset: the ETC pool's popularity is roughly Zipf
    /// with exponent ≈ 1 over a very large key space (Atikoglu et al.).
    ///
    /// # Errors
    ///
    /// Never fails for the preset constants (kept as `Result` for API
    /// uniformity).
    pub fn facebook_etc() -> Result<Self, ParamError> {
        Self::new(50_000_000, 1.01)
    }

    /// Key-space size.
    #[must_use]
    pub fn keys(&self) -> u64 {
        self.zipf.n()
    }

    /// The Zipf exponent.
    #[must_use]
    pub fn skew(&self) -> f64 {
        self.zipf.exponent()
    }

    /// Whether draws go through the `O(1)`-uniform alias table (small
    /// key spaces) or rejection-inversion (large ones).
    #[must_use]
    pub fn uses_alias_table(&self) -> bool {
        self.alias.is_some()
    }

    /// Samples a key; hot keys (low ids) are sampled more often.
    ///
    /// Returned ids are 0-based (`rank − 1`).
    #[must_use]
    pub fn sample_key(&self, rng: &mut dyn RngCore) -> KeyId {
        match &self.alias {
            Some(table) => table.sample(rng),
            None => self.zipf.sample(rng) - 1,
        }
    }

    /// Bulk alias sampling: appends one key id per raw `next_u64` draw in
    /// `bits` onto `out`, bit-identical to calling [`Self::sample_key`] at
    /// each original draw site. Runs through the SIMD-dispatched gather
    /// kernel on AVX2 hosts.
    ///
    /// Only the alias path can be bulk-driven (rejection-inversion consumes
    /// a data-dependent number of uniforms per key).
    ///
    /// # Panics
    ///
    /// Panics if this population does not use the alias table
    /// ([`Self::uses_alias_table`] is `false`).
    pub fn sample_keys_from_bits(&self, bits: &[u64], out: &mut Vec<KeyId>) {
        let table = self
            .alias
            .as_ref()
            .expect("bulk sampling requires the alias-table path");
        memlat_dist::simd::alias_from_bits(&table.prob, &table.alias, bits, out);
    }

    /// Probability that a single access hits the given key id.
    #[must_use]
    pub fn access_probability(&self, key: KeyId) -> f64 {
        self.zipf.pmf(key + 1)
    }

    /// Fraction of accesses landing on the hottest `n` keys.
    #[must_use]
    pub fn head_mass(&self, n: u64) -> f64 {
        self.zipf.cdf(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn hot_keys_dominate() {
        let pop = ZipfPopularity::new(10_000, 1.0).unwrap();
        assert!(pop.access_probability(0) > pop.access_probability(1));
        // With exponent 1, the top 100 of 10k keys draw roughly half the
        // traffic.
        let head = pop.head_mass(100);
        assert!(head > 0.4 && head < 0.6, "head={head}");
    }

    #[test]
    fn sample_respects_bounds_and_skew() {
        let pop = ZipfPopularity::new(1000, 1.2).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut hot = 0;
        let n = 50_000;
        for _ in 0..n {
            let k = pop.sample_key(&mut rng);
            assert!(k < 1000);
            if k < 10 {
                hot += 1;
            }
        }
        let frac = f64::from(hot) / f64::from(n);
        let expect = pop.head_mass(10);
        assert!((frac - expect).abs() < 0.02, "frac={frac} expect={expect}");
    }

    #[test]
    fn facebook_preset_is_large_and_skewed() {
        let pop = ZipfPopularity::facebook_etc().unwrap();
        assert!(pop.keys() >= 10_000_000);
        assert!(pop.skew() > 1.0);
        // Too large for a table: stays on rejection-inversion.
        assert!(!pop.uses_alias_table());
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        assert!(pop.sample_key(&mut rng) < pop.keys());
    }

    #[test]
    fn alias_table_reconstructs_the_pmf_exactly() {
        // The table is a redistribution of the pmf: summing each cell's
        // kept and aliased mass must give the pmf back to rounding.
        let pop = ZipfPopularity::new(10_000, 1.01).unwrap();
        assert!(pop.uses_alias_table());
        let table = pop.alias.as_ref().unwrap();
        let n = table.prob.len();
        let mut implied = vec![0.0f64; n];
        for i in 0..n {
            implied[i] += table.prob[i] / n as f64;
            implied[table.alias[i] as usize] += (1.0 - table.prob[i]) / n as f64;
        }
        for (i, &m) in implied.iter().enumerate() {
            let exact = pop.access_probability(i as u64);
            assert!(
                (m - exact).abs() <= 1e-12 + 1e-9 * exact,
                "key {i}: implied {m} vs pmf {exact}"
            );
        }
    }

    #[test]
    fn alias_sampler_matches_rejection_sampler_statistically() {
        // Same pmf, different draw mechanics: empirical head masses from
        // the alias path must agree with the rejection-inversion path.
        let pop = ZipfPopularity::new(5_000, 1.01).unwrap();
        assert!(pop.uses_alias_table());
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let n = 100_000;
        let mut head_alias = 0u32;
        for _ in 0..n {
            if pop.sample_key(&mut rng) < 50 {
                head_alias += 1;
            }
        }
        let mut head_rej = 0u32;
        for _ in 0..n {
            if pop.zipf.sample_with(&mut rng) - 1 < 50 {
                head_rej += 1;
            }
        }
        let fa = f64::from(head_alias) / f64::from(n);
        let fr = f64::from(head_rej) / f64::from(n);
        let expect = pop.head_mass(50);
        assert!((fa - expect).abs() < 0.01, "alias {fa} vs {expect}");
        assert!((fa - fr).abs() < 0.015, "alias {fa} vs rejection {fr}");
    }

    #[test]
    fn bulk_sampling_is_bit_identical_to_scalar() {
        use rand::RngCore;
        let pop = ZipfPopularity::new(5_000, 0.99).unwrap();
        for n in [0usize, 1, 3, 7, 37, 1024] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xb17 + n as u64);
            let bits: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
            let mut bulk = Vec::new();
            pop.sample_keys_from_bits(&bits, &mut bulk);
            let mut replay = rand::rngs::StdRng::seed_from_u64(0xb17 + n as u64);
            let scalar: Vec<u64> = (0..n).map(|_| pop.sample_key(&mut replay)).collect();
            assert_eq!(bulk, scalar, "n={n}");
        }
    }

    #[test]
    fn build_counter_increments() {
        let before = alias_builds();
        let _pop = ZipfPopularity::new(1_000, 1.0).unwrap();
        assert!(alias_builds() > before);
    }

    #[test]
    fn rejects_bad_params() {
        assert!(ZipfPopularity::new(0, 1.0).is_err());
        assert!(ZipfPopularity::new(10, -0.5).is_err());
    }

    #[test]
    fn weighted_alias_matches_weights_statistically() {
        let weights = [5.0, 0.0, 1.0, 3.0, 1.0];
        let total: f64 = weights.iter().sum();
        let table = WeightedAlias::new(&weights).unwrap();
        assert_eq!(table.len(), weights.len());
        assert!(!table.is_empty());
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
        let n = 200_000usize;
        let mut counts = [0u64; 5];
        for _ in 0..n {
            counts[table.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight cell must never be drawn");
        for (i, &c) in counts.iter().enumerate() {
            let expect = weights[i] / total;
            let got = c as f64 / n as f64;
            assert!(
                (got - expect).abs() < 0.01,
                "cell {i}: got {got} expect {expect}"
            );
        }
    }

    #[test]
    fn weighted_alias_rejects_bad_weights() {
        assert!(WeightedAlias::new(&[]).is_err());
        assert!(WeightedAlias::new(&[0.0, 0.0]).is_err());
        assert!(WeightedAlias::new(&[1.0, -0.5]).is_err());
        assert!(WeightedAlias::new(&[1.0, f64::NAN]).is_err());
        assert!(WeightedAlias::new(&[f64::INFINITY]).is_err());
    }

    #[test]
    fn alias_sampler_passes_chi_square_across_skews() {
        // Sharp distributional conformance: the alias path's draws
        // against the exact normalized PMF, over a small skew grid
        // spanning sub-Zipf, the paper's 0.99, and super-Zipf.
        for &skew in &[0.7, 0.99, 1.2] {
            let keys = 2_000u64;
            let pop = ZipfPopularity::new(keys, skew).unwrap();
            assert!(pop.uses_alias_table());
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xa11a5 ^ skew.to_bits());
            let n = 30_000usize;
            // Head ranks individually, tail pooled, so every expected
            // count stays well above the chi-square small-cell floor.
            let head = 30usize;
            let mut observed = vec![0u64; head + 1];
            for _ in 0..n {
                let k = pop.sample_key(&mut rng) as usize;
                observed[k.min(head)] += 1;
            }
            let mut expected: Vec<f64> = (0..head as u64)
                .map(|k| n as f64 * pop.access_probability(k))
                .collect();
            let tail: f64 = (head as u64..keys).map(|k| pop.access_probability(k)).sum();
            expected.push(n as f64 * tail);
            let test = memlat_stats::gof::chi_square(&observed, &expected, 0);
            assert!(
                test.passes(0.01),
                "skew {skew}: χ² = {:.2}, p = {:.5}",
                test.statistic,
                test.p_value
            );
        }
    }
}
