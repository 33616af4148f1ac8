//! Workload substrate: the traffic the memlat simulator drives through
//! the memcached system.
//!
//! Implements the statistical workload model the paper takes from
//! Facebook's measurements (Atikoglu et al., SIGMETRICS 2012) and uses
//! via `mutilate`:
//!
//! * [`arrival`] — batch arrival processes: heavy-tailed Generalized
//!   Pareto inter-batch gaps with geometric batch sizes (the paper's
//!   `GI^X` traffic), plus Poisson/deterministic variants.
//! * [`popularity`] — Zipf key popularity, the root cause of the paper's
//!   unbalanced load distribution `{p_j}`.
//! * [`placement`] — key-to-server mapping: a consistent-hash ring with
//!   virtual nodes.
//! * [`routing`] — the Zipf stream conditioned on ring ownership: exact
//!   per-server shares `{p_j}` and conditional key samplers.
//! * [`request`] — end-user request generation (`N` keys per request).
//! * [`facebook`] — the §5.1 preset constants (`q = 0.1`, `ξ = 0.15`,
//!   `λ = 62.5 Kps`, `μ_S = 80 Kps`, …).
//! * [`retry`] — client retry re-injection: a deterministic time-ordered
//!   queue of re-issued attempts plus the exponential-backoff delay law.
//!
//! # Examples
//!
//! ```
//! use memlat_workload::arrival::BatchArrivals;
//! use memlat_workload::facebook;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut arrivals = facebook::batch_arrivals().unwrap();
//! let (t, batch) = arrivals.next_batch(&mut rng);
//! assert!(t > 0.0 && batch >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod facebook;
pub mod placement;
pub mod popularity;
pub mod request;
pub mod retry;
pub mod routing;

pub use arrival::{ArrivalScratch, BatchArrivals};
pub use placement::ConsistentHashRing;
pub use popularity::{alias_builds, WeightedAlias, ZipfPopularity};
pub use request::RequestGenerator;
pub use retry::RetryQueue;
pub use routing::RoutedKeyspace;

/// A key identifier in the simulated key space.
pub type KeyId = u64;
