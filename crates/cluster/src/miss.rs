//! Per-server miss state behind a trait: the paper's ideal fixed-ratio
//! coin flip, or a real slab/LRU store whose miss ratio *emerges* from
//! Zipf traffic against a finite memory budget.
//!
//! The trait boundary is what keeps the analytic mode fast and frozen:
//! [`MissState::fixed_ratio`] tells the server loop whether misses are
//! an i.i.d. coin flip — exactly the contract the speculative block hot
//! path needs — so [`FixedRatioMiss`] keeps its bit-exact RNG draw
//! sequence (goldens and FNV fingerprints must not move) while
//! [`LruBackedMiss`] is free to consult a store, sample value sizes, and
//! (under consistent-hash routing) draw from its server's conditional
//! key population. The server's lane pipeline drives the LRU-backed
//! state directly — a bulk key lane, then one store get/fill per served
//! key — while [`MissState::decide`] remains the one-call form of the
//! same steps.

use std::sync::Arc;

use memlat_cache::{Store, StoreConfig};
use memlat_dist::{GeneralizedPareto, ParamError};
use memlat_workload::{RoutedKeyspace, ZipfPopularity};
use rand::RngCore;

use crate::config::{CacheRouting, MissMode};
use crate::database::NO_KEY;

/// Per-server miss state: decides, for each served key, whether it
/// missed the cache.
///
/// Implementations must keep [`MissState::decide`]'s RNG consumption
/// well-defined per call — the cluster gives every server its own
/// seed-derived stream, so any deterministic consumption pattern
/// preserves 1-vs-N-thread bit-identity.
pub trait MissState {
    /// `Some(r)` when misses are an i.i.d. coin flip with ratio `r` —
    /// the speculative block path is only sound under that contract (it
    /// pre-banks one miss uniform per key). `None` for stateful
    /// deciders, which run on the server's lane pipeline.
    fn fixed_ratio(&self) -> Option<f64>;

    /// Whether the key served at simulated time `now` misses, plus the
    /// sampled key identity ([`NO_KEY`] when the decider draws none).
    fn decide(&mut self, now: f64, rng: &mut dyn RngCore) -> (bool, u64);

    /// The backing store's own observed miss ratio, when one exists
    /// (warm-up traffic included — the store saw it).
    fn observed_miss_ratio(&self) -> Option<f64>;

    /// Items resident in the backing store (0 without one). For
    /// LRU-backed runs this is the steady-state cache size in *items* —
    /// the `x` of the Ji/Quan/Tan asymptotic.
    fn cached_items(&self) -> u64;
}

/// The paper's assumption: every key misses independently with ratio
/// `r`, no key identity, no state.
#[derive(Debug, Clone, Copy)]
pub struct FixedRatioMiss {
    ratio: f64,
}

impl FixedRatioMiss {
    /// A coin-flip decider with miss ratio `r`.
    #[must_use]
    pub fn new(ratio: f64) -> Self {
        Self { ratio }
    }
}

impl MissState for FixedRatioMiss {
    fn fixed_ratio(&self) -> Option<f64> {
        Some(self.ratio)
    }

    #[inline]
    fn decide(&mut self, _now: f64, rng: &mut dyn RngCore) -> (bool, u64) {
        // r ≤ 0 draws nothing: the zero-miss stream must stay bit-
        // identical to the historical output.
        if self.ratio <= 0.0 {
            (false, NO_KEY)
        } else {
            (memlat_dist::open_unit(rng) < self.ratio, NO_KEY)
        }
    }

    fn observed_miss_ratio(&self) -> Option<f64> {
        None
    }

    fn cached_items(&self) -> u64 {
        0
    }
}

/// The key population an LRU-backed server samples from.
enum Population {
    /// The full Zipf key space — every server sees a statistically
    /// identical independent stream (no routing).
    Full(Arc<ZipfPopularity>),
    /// This server's slice of the consistent-hash ring: keys are drawn
    /// from the conditional law `P(k) / p_j` over the keys it owns.
    Routed {
        keyspace: Arc<RoutedKeyspace>,
        server: usize,
    },
}

/// A real slab/LRU store behind the miss decision: every served key is
/// sampled from the population, looked up, and demand-filled on miss
/// with a value drawn from the Facebook size law.
pub struct LruBackedMiss {
    // Boxed: the slab store dwarfs the fixed-ratio variant.
    store: Box<Store>,
    population: Population,
    value_sizes: GeneralizedPareto,
}

impl LruBackedMiss {
    /// Whether [`Self::keys_from_bits`] can draw this population's keys
    /// (one raw `next_u64` per key): routed populations always can, the
    /// full key space only on its alias-table path.
    pub(crate) fn bulk_keys(&self) -> bool {
        match &self.population {
            Population::Full(pop) => pop.uses_alias_table(),
            Population::Routed { .. } => true,
        }
    }

    /// Appends one key per raw draw in `bits` onto `out`, bit-identical to
    /// [`Self::sample_key`] at each draw site. Gate on
    /// [`Self::bulk_keys`].
    pub(crate) fn keys_from_bits(&self, bits: &[u64], out: &mut Vec<u64>) {
        match &self.population {
            Population::Full(pop) => pop.sample_keys_from_bits(bits, out),
            Population::Routed { keyspace, server } => {
                keyspace.sample_keys_from_bits(*server, bits, out);
            }
        }
    }

    /// Draws one key from the population.
    pub(crate) fn sample_key(&self, rng: &mut dyn RngCore) -> u64 {
        match &self.population {
            Population::Full(pop) => pop.sample_key(rng),
            Population::Routed { keyspace, server } => keyspace.sample_key(*server, rng),
        }
    }

    /// Looks `key` up at simulated time `now`; on a miss, demand-fills it
    /// with a value size drawn from `rng` (items larger than the biggest
    /// chunk are simply not cached, like memcached). Returns whether the
    /// key missed.
    pub(crate) fn lookup_fill<R: RngCore + ?Sized>(
        &mut self,
        key: u64,
        now: f64,
        rng: &mut R,
    ) -> bool {
        if self.store.get(key, now).is_hit() {
            return false;
        }
        let size = self.value_sizes.sample_with(rng).max(1.0) as usize;
        let _ = self.store.set(key, size, None, now);
        true
    }
}

impl MissState for LruBackedMiss {
    fn fixed_ratio(&self) -> Option<f64> {
        None
    }

    fn decide(&mut self, now: f64, rng: &mut dyn RngCore) -> (bool, u64) {
        let key = self.sample_key(rng);
        (self.lookup_fill(key, now, rng), key)
    }

    fn observed_miss_ratio(&self) -> Option<f64> {
        Some(self.store.stats().miss_ratio())
    }

    fn cached_items(&self) -> u64 {
        self.store.len() as u64
    }
}

/// One server's slice of a cluster-built consistent-hash routing table:
/// the shared [`RoutedKeyspace`] plus this server's ring position.
#[derive(Debug, Clone)]
pub struct RoutedHandle {
    /// The ring-conditioned key populations, shared across servers.
    pub keyspace: Arc<RoutedKeyspace>,
    /// This server's index on the ring.
    pub server: usize,
}

/// Builds the miss state a server runs with.
///
/// The prebuilt handles exist so the O(keyspace) table builds happen
/// once per cluster configuration, not once per server per sweep point:
/// `popularity` for the unrouted population, `routed` for the
/// ring-conditioned one. Either handle must agree with the mode's own
/// config — the [`crate::config::CacheBackedConfig`] is the single
/// source of truth, and a mismatched handle is a hard error, not a
/// silent reinterpretation.
///
/// # Errors
///
/// Returns [`ParamError`] when the mode's parameters are invalid, when a
/// prebuilt handle disagrees with the config, or when
/// [`CacheRouting::ConsistentHash`] is requested without a routed handle
/// (the ring spans servers, so only the cluster layer can build it).
pub fn build_miss_state(
    mode: &MissMode,
    miss_ratio: f64,
    popularity: Option<&Arc<ZipfPopularity>>,
    routed: Option<&RoutedHandle>,
) -> Result<Box<dyn MissState>, ParamError> {
    Ok(
        match build_server_miss(mode, miss_ratio, popularity, routed)? {
            ServerMiss::Fixed(f) => Box::new(f),
            ServerMiss::Lru(l) => Box::new(l),
        },
    )
}

/// The concrete miss state one server runs with; [`build_miss_state`]
/// hands the same value out as a trait object.
pub(crate) enum ServerMiss {
    /// The paper's i.i.d. coin flip.
    Fixed(FixedRatioMiss),
    /// A real store behind the decision.
    Lru(LruBackedMiss),
}

impl ServerMiss {
    /// The trait view, for the aggregate queries.
    pub(crate) fn state(&self) -> &dyn MissState {
        match self {
            ServerMiss::Fixed(f) => f,
            ServerMiss::Lru(l) => l,
        }
    }
}

/// [`build_miss_state`] without the box; same validation and errors.
pub(crate) fn build_server_miss(
    mode: &MissMode,
    miss_ratio: f64,
    popularity: Option<&Arc<ZipfPopularity>>,
    routed: Option<&RoutedHandle>,
) -> Result<ServerMiss, ParamError> {
    match mode {
        MissMode::FixedRatio => Ok(ServerMiss::Fixed(FixedRatioMiss::new(miss_ratio))),
        MissMode::CacheBacked(cfg) => {
            let population = match cfg.routing {
                CacheRouting::Independent => {
                    let pop = match popularity {
                        Some(p) => {
                            if p.keys() != cfg.keyspace || p.skew().to_bits() != cfg.skew.to_bits()
                            {
                                return Err(ParamError::new(format!(
                                    "prebuilt popularity ({} keys, skew {}) disagrees with the \
                                     cache config ({} keys, skew {})",
                                    p.keys(),
                                    p.skew(),
                                    cfg.keyspace,
                                    cfg.skew
                                )));
                            }
                            Arc::clone(p)
                        }
                        None => Arc::new(ZipfPopularity::new(cfg.keyspace, cfg.skew)?),
                    };
                    Population::Full(pop)
                }
                CacheRouting::ConsistentHash { vnodes } => {
                    let h = routed.ok_or_else(|| {
                        ParamError::new(
                            "consistent-hash routing needs the cluster-built ring \
                             (run through ClusterSim, which owns the server set)",
                        )
                    })?;
                    let ks = &h.keyspace;
                    if ks.keys() != cfg.keyspace
                        || ks.skew().to_bits() != cfg.skew.to_bits()
                        || ks.vnodes() != vnodes
                    {
                        return Err(ParamError::new(format!(
                            "routed keyspace ({} keys, skew {}, {} vnodes) disagrees with the \
                             cache config ({} keys, skew {}, {} vnodes)",
                            ks.keys(),
                            ks.skew(),
                            ks.vnodes(),
                            cfg.keyspace,
                            cfg.skew,
                            vnodes
                        )));
                    }
                    if h.server >= ks.servers() {
                        return Err(ParamError::new(format!(
                            "routed server index {} out of range ({} servers on the ring)",
                            h.server,
                            ks.servers()
                        )));
                    }
                    Population::Routed {
                        keyspace: Arc::clone(&h.keyspace),
                        server: h.server,
                    }
                }
            };
            Ok(ServerMiss::Lru(LruBackedMiss {
                store: Box::new(
                    Store::new(StoreConfig::with_memory(cfg.memory_bytes))
                        .map_err(|e| ParamError::new(e.to_string()))?,
                ),
                population,
                value_sizes: GeneralizedPareto::with_mean(0.35, cfg.mean_value_bytes)?,
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheBackedConfig;
    use rand::SeedableRng;

    fn cache_cfg() -> CacheBackedConfig {
        CacheBackedConfig {
            memory_bytes: 4 << 20,
            keyspace: 50_000,
            skew: 1.1,
            mean_value_bytes: 300.0,
            routing: CacheRouting::Independent,
        }
    }

    #[test]
    fn fixed_ratio_contract() {
        let mut s = FixedRatioMiss::new(0.25);
        assert_eq!(s.fixed_ratio(), Some(0.25));
        assert_eq!(s.observed_miss_ratio(), None);
        assert_eq!(s.cached_items(), 0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut misses = 0;
        for _ in 0..10_000 {
            let (m, k) = s.decide(0.0, &mut rng);
            assert_eq!(k, NO_KEY);
            misses += u64::from(m);
        }
        let frac = misses as f64 / 10_000.0;
        assert!((frac - 0.25).abs() < 0.02, "{frac}");
    }

    #[test]
    fn zero_ratio_draws_nothing() {
        use rand::RngCore;
        let mut s = FixedRatioMiss::new(0.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let before = rng.clone().next_u64();
        assert_eq!(s.decide(0.0, &mut rng), (false, NO_KEY));
        assert_eq!(rng.next_u64(), before, "zero-ratio decide consumed RNG");
    }

    #[test]
    fn lru_backed_reports_store_state() {
        let mode = MissMode::CacheBacked(cache_cfg());
        let mut s = build_miss_state(&mode, 0.0, None, None).unwrap();
        assert_eq!(s.fixed_ratio(), None);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for i in 0..20_000 {
            let now = i as f64 * 1e-5;
            let (_, key) = s.decide(now, &mut rng);
            assert!(key < 50_000);
        }
        let r = s.observed_miss_ratio().unwrap();
        assert!(r > 0.0 && r < 1.0, "{r}");
        assert!(s.cached_items() > 0);
    }

    #[test]
    fn prebuilt_popularity_mismatch_is_a_hard_error() {
        let mode = MissMode::CacheBacked(cache_cfg());
        let wrong_keys = Arc::new(ZipfPopularity::new(10_000, 1.1).unwrap());
        assert!(build_miss_state(&mode, 0.0, Some(&wrong_keys), None).is_err());
        let wrong_skew = Arc::new(ZipfPopularity::new(50_000, 0.9).unwrap());
        assert!(build_miss_state(&mode, 0.0, Some(&wrong_skew), None).is_err());
        let right = Arc::new(ZipfPopularity::new(50_000, 1.1).unwrap());
        assert!(build_miss_state(&mode, 0.0, Some(&right), None).is_ok());
    }

    #[test]
    fn routed_mode_requires_a_matching_handle() {
        let mut cfg = cache_cfg();
        cfg.routing = CacheRouting::ConsistentHash { vnodes: 32 };
        let mode = MissMode::CacheBacked(cfg);
        // No handle: only the cluster can build the ring.
        assert!(build_miss_state(&mode, 0.0, None, None).is_err());
        let pop = ZipfPopularity::new(50_000, 1.1).unwrap();
        let ks = Arc::new(RoutedKeyspace::new(&pop, 4, 32).unwrap());
        let good = RoutedHandle {
            keyspace: Arc::clone(&ks),
            server: 2,
        };
        assert!(build_miss_state(&mode, 0.0, None, Some(&good)).is_ok());
        // Wrong vnode count, wrong server index: hard errors.
        let wrong_ring = Arc::new(RoutedKeyspace::new(&pop, 4, 16).unwrap());
        let bad_vnodes = RoutedHandle {
            keyspace: wrong_ring,
            server: 0,
        };
        assert!(build_miss_state(&mode, 0.0, None, Some(&bad_vnodes)).is_err());
        let bad_server = RoutedHandle {
            keyspace: ks,
            server: 4,
        };
        assert!(build_miss_state(&mode, 0.0, None, Some(&bad_server)).is_err());
    }

    #[test]
    fn routed_decide_stays_in_the_owned_slice() {
        let mut cfg = cache_cfg();
        cfg.routing = CacheRouting::ConsistentHash { vnodes: 64 };
        let mode = MissMode::CacheBacked(cfg);
        let pop = ZipfPopularity::new(50_000, 1.1).unwrap();
        let ks = Arc::new(RoutedKeyspace::new(&pop, 3, 64).unwrap());
        let mut s = build_miss_state(
            &mode,
            0.0,
            None,
            Some(&RoutedHandle {
                keyspace: Arc::clone(&ks),
                server: 1,
            }),
        )
        .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for i in 0..2_000 {
            let (_, key) = s.decide(i as f64 * 1e-5, &mut rng);
            assert_eq!(ks.server_of(key), 1, "foreign key {key}");
        }
    }
}
