//! Consistent-hash key routing: the global Zipf stream conditioned on
//! server ownership.
//!
//! A memcached client hashes every key onto the ring once; each server
//! then sees the global arrival stream *thinned* to the keys it owns.
//! [`RoutedKeyspace`] precomputes that decomposition: the exact load
//! share `p_j = Σ_{k owned by j} P(k)` of every server, and a
//! per-server conditional sampler that draws owned keys with
//! probability `P(k) / p_j`.
//!
//! Sampling a server by `{p_j}` and then a key from its conditional
//! sampler is distributionally identical to sampling a global Zipf key
//! and routing it — but it keeps the simulator's per-server RNG streams
//! independent, which is what preserves 1-vs-N-thread bit-identity.
//! (Poisson thinning further guarantees each server's arrival process
//! stays the same renewal family at rate `p_j · Λ`.)
//!
//! # Examples
//!
//! ```
//! use memlat_workload::{RoutedKeyspace, ZipfPopularity};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), memlat_dist::ParamError> {
//! let pop = ZipfPopularity::new(100_000, 1.01)?;
//! let routed = RoutedKeyspace::new(&pop, 4, 128)?;
//! assert_eq!(routed.shares().len(), 4);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(3);
//! let key = routed.sample_key(0, &mut rng);
//! assert_eq!(routed.server_of(key), 0);
//! # Ok(())
//! # }
//! ```

use memlat_dist::{open_unit_from_bits, ParamError};
use rand::RngCore;

use crate::placement::ConsistentHashRing;
use crate::popularity::{weighted_vose, ZipfPopularity};
use crate::KeyId;

/// One slot of a server's conditional alias sampler, packed so a draw
/// reads a single 16-byte cell: the slot's keep probability, the key the
/// slot stands for, and the key of its alias slot.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(16))]
struct AliasCell {
    prob: f64,
    key: u32,
    alias: u32,
}

/// The Walker/Vose draw over one server's cells from one raw `next_u64`.
#[inline]
fn draw(cells: &[AliasCell], bits: u64) -> KeyId {
    let n = cells.len();
    let x = open_unit_from_bits(bits) * n as f64;
    let i = (x as usize).min(n - 1);
    let v = x - i as f64;
    let c = &cells[i];
    KeyId::from(if v < c.prob { c.key } else { c.alias })
}

/// The global Zipf key space split across servers by a consistent-hash
/// ring: exact per-server load shares plus per-server conditional key
/// samplers.
///
/// Construction walks the key space once (`O(keys)` ring lookups) and
/// builds one alias table per server over its owned keys, stored as one
/// 16-byte cell per slot (16 bytes per key in total), so it is meant to
/// be built once per configuration and shared (e.g. behind an `Arc`)
/// across workers.
#[derive(Debug)]
pub struct RoutedKeyspace {
    ring: ConsistentHashRing,
    keys: u64,
    skew: f64,
    vnodes: usize,
    shares: Vec<f64>,
    /// Per server: the conditional sampler's cells, slot `i` standing for
    /// the server's `i`-th owned key in ascending id order (empty iff the
    /// server owns no keys).
    cells: Vec<Vec<AliasCell>>,
}

impl RoutedKeyspace {
    /// Splits `popularity`'s key space over `servers` ring members with
    /// `vnodes` virtual nodes each.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `servers` or `vnodes` is zero, or the
    /// key space is too large to walk (bounded at 2²⁴ keys — the walk is
    /// `O(keys · log(servers · vnodes))` and the cell tables are 16 bytes
    /// per key).
    pub fn new(
        popularity: &ZipfPopularity,
        servers: usize,
        vnodes: usize,
    ) -> Result<Self, ParamError> {
        if servers == 0 {
            return Err(ParamError::new("routing needs at least one server"));
        }
        if vnodes == 0 {
            return Err(ParamError::new("routing needs at least one virtual node"));
        }
        const MAX_ROUTED_KEYS: u64 = 1 << 24;
        let keys = popularity.keys();
        if keys > MAX_ROUTED_KEYS {
            return Err(ParamError::new(format!(
                "routed key space {keys} exceeds the enumeration bound {MAX_ROUTED_KEYS}"
            )));
        }
        let ring = ConsistentHashRing::new(servers, vnodes);
        let mut owned: Vec<Vec<u32>> = vec![Vec::new(); servers];
        let mut weights: Vec<Vec<f64>> = vec![Vec::new(); servers];
        let mut mass = vec![0.0f64; servers];
        for k in 0..keys {
            let j = ring.server_of(k);
            let w = popularity.access_probability(k);
            // Lossless: `keys` is bounded at 2²⁴ above.
            owned[j].push(k as u32);
            weights[j].push(w);
            mass[j] += w;
        }
        // Normalize by the realized total so shares sum to exactly 1
        // even where the pmf's own normalization carries rounding.
        let total: f64 = mass.iter().sum();
        let shares: Vec<f64> = mass.iter().map(|&m| m / total).collect();
        let cells = owned
            .iter()
            .zip(&weights)
            .map(|(keys, w)| {
                if w.is_empty() {
                    return Ok(Vec::new());
                }
                let (prob, alias) = weighted_vose(w)?;
                Ok(prob
                    .iter()
                    .zip(&alias)
                    .zip(keys)
                    .map(|((&prob, &a), &key)| AliasCell {
                        prob,
                        key,
                        alias: keys[a as usize],
                    })
                    .collect())
            })
            .collect::<Result<_, ParamError>>()?;
        Ok(Self {
            ring,
            keys,
            skew: popularity.skew(),
            vnodes,
            shares,
            cells,
        })
    }

    /// Number of servers on the ring.
    #[must_use]
    pub fn servers(&self) -> usize {
        self.shares.len()
    }

    /// Virtual nodes per server.
    #[must_use]
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// Size of the global key space.
    #[must_use]
    pub fn keys(&self) -> u64 {
        self.keys
    }

    /// Zipf exponent of the underlying popularity law.
    #[must_use]
    pub fn skew(&self) -> f64 {
        self.skew
    }

    /// Exact load shares `{p_j}` induced by the ring on the popularity
    /// law; sums to 1.
    #[must_use]
    pub fn shares(&self) -> &[f64] {
        &self.shares
    }

    /// The server a key routes to.
    #[must_use]
    pub fn server_of(&self, key: KeyId) -> usize {
        self.ring.server_of(key)
    }

    /// The keys a server owns, in ascending id order.
    pub fn owned_keys(&self, server: usize) -> impl ExactSizeIterator<Item = KeyId> + '_ {
        self.cells[server].iter().map(|c| KeyId::from(c.key))
    }

    /// Draws a key from the server's conditional popularity law
    /// (`P(k) / p_j` over its owned keys), consuming exactly one
    /// `next_u64` from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if the server owns no keys (its share is zero, so a
    /// correctly thinned stream never asks it for one).
    #[must_use]
    pub fn sample_key(&self, server: usize, rng: &mut dyn RngCore) -> KeyId {
        draw(self.owned_cells(server), rng.next_u64())
    }

    /// Bulk [`Self::sample_key`]: appends one key per raw `next_u64` draw
    /// in `bits` onto `out`, bit-identical to calling `sample_key` at
    /// each original draw site.
    ///
    /// # Panics
    ///
    /// Panics if the server owns no keys and `bits` is non-empty.
    pub fn sample_keys_from_bits(&self, server: usize, bits: &[u64], out: &mut Vec<KeyId>) {
        if bits.is_empty() {
            return;
        }
        let cells = self.owned_cells(server);
        out.extend(bits.iter().map(|&b| draw(cells, b)));
    }

    fn owned_cells(&self, server: usize) -> &[AliasCell] {
        let cells = &self.cells[server];
        assert!(!cells.is_empty(), "zero-share server received a key draw");
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn shares_sum_to_one_and_cover_all_keys() {
        let pop = ZipfPopularity::new(50_000, 1.2).unwrap();
        let routed = RoutedKeyspace::new(&pop, 5, 64).unwrap();
        let sum: f64 = routed.shares().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12, "sum={sum}");
        let total_owned: usize = (0..5).map(|j| routed.owned_keys(j).len()).sum();
        assert_eq!(total_owned as u64, routed.keys());
    }

    #[test]
    fn cell_draws_match_the_alias_table_over_the_owned_keys() {
        // The packed cells are the Vose table over the owned keys'
        // masses: scalar and bulk draws both return exactly the owned key
        // that table's cell index names.
        use rand::RngCore;
        let pop = ZipfPopularity::new(20_000, 0.99).unwrap();
        let routed = RoutedKeyspace::new(&pop, 3, 16).unwrap();
        for j in 0..3 {
            let owned: Vec<KeyId> = routed.owned_keys(j).collect();
            let w: Vec<f64> = owned.iter().map(|&k| pop.access_probability(k)).collect();
            let (prob, alias) = weighted_vose(&w).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(40 + j as u64);
            let mut replay = rng.clone();
            let bits: Vec<u64> = (0..2_000).map(|_| rng.next_u64()).collect();
            let mut bulk = Vec::new();
            routed.sample_keys_from_bits(j, &bits, &mut bulk);
            for (i, (&b, &k)) in bits.iter().zip(&bulk).enumerate() {
                let x = memlat_dist::open_unit_from_bits(b) * owned.len() as f64;
                let c = (x as usize).min(owned.len() - 1);
                let slot = if x - (c as f64) < prob[c] {
                    c
                } else {
                    alias[c] as usize
                };
                assert_eq!(owned[slot], k, "server {j} draw {i}");
                assert_eq!(routed.sample_key(j, &mut replay), k, "server {j} draw {i}");
            }
        }
    }

    #[test]
    fn sampled_keys_are_owned() {
        let pop = ZipfPopularity::new(10_000, 1.01).unwrap();
        let routed = RoutedKeyspace::new(&pop, 3, 32).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for j in 0..3 {
            for _ in 0..500 {
                let k = routed.sample_key(j, &mut rng);
                assert_eq!(routed.server_of(k), j, "server {j} drew foreign key {k}");
            }
        }
    }

    #[test]
    fn conditional_sampler_realizes_the_thinned_law() {
        // Composite check: P(server j via shares, then key k) must equal
        // the global pmf. Compare empirical per-key frequencies on the
        // hottest keys against pmf(k), mixing over servers.
        let pop = ZipfPopularity::new(2_000, 1.1).unwrap();
        let routed = RoutedKeyspace::new(&pop, 4, 64).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let n_per_share = 400_000f64;
        let mut counts = vec![0u64; 2_000];
        for j in 0..4 {
            let draws = (n_per_share * routed.shares()[j]).round() as usize;
            for _ in 0..draws {
                counts[routed.sample_key(j, &mut rng) as usize] += 1;
            }
        }
        let total: u64 = counts.iter().sum();
        for k in 0..20u64 {
            let got = counts[k as usize] as f64 / total as f64;
            let expect = pop.access_probability(k);
            assert!(
                (got - expect).abs() < 0.005 + 0.05 * expect,
                "key {k}: got {got} expect {expect}"
            );
        }
    }

    #[test]
    fn rejects_degenerate_params() {
        let pop = ZipfPopularity::new(1_000, 1.0).unwrap();
        assert!(RoutedKeyspace::new(&pop, 0, 16).is_err());
        assert!(RoutedKeyspace::new(&pop, 4, 0).is_err());
    }

    #[test]
    fn huge_keyspace_is_refused_not_walked() {
        let pop = ZipfPopularity::new(1 << 25, 1.01).unwrap();
        assert!(RoutedKeyspace::new(&pop, 4, 16).is_err());
    }
}
