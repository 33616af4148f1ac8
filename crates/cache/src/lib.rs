//! Memcached server internals: a slab-allocated, LRU-evicting key-value
//! store.
//!
//! The paper abstracts a memcached server as `Exp(μ_S)` service with a
//! *fixed* miss ratio `r`. This crate supplies the concrete machinery a
//! real memcached server uses to produce that miss ratio — a slab
//! allocator with per-class LRU eviction — so the simulator can let `r`
//! **emerge** from cache size, item sizes and key popularity (the
//! extension experiment in EXPERIMENTS.md), and so the repository is a
//! usable memcached model rather than a black box.
//!
//! * [`slab`] — size classes with a configurable growth factor and
//!   1 MiB pages, mirroring memcached's allocator.
//! * [`lru`] — an arena-based intrusive doubly-linked LRU list.
//! * [`store`] — the [`Store`]: get/set/delete with TTLs, per-class LRU
//!   eviction and hit/miss statistics.
//! * [`hash`] — [`IntMap`], a fixed multiplicative hasher for the
//!   integer-keyed indexes.
//! * [`gdw`] — a Greedy-Dual **cost-aware** cache (GD-Wheel-lite, the
//!   paper's related work \[19\]) for eviction-policy ablations.
//!
//! # Examples
//!
//! ```
//! use memlat_cache::{Store, StoreConfig};
//!
//! let mut store = Store::new(StoreConfig::with_memory(16 << 20)).unwrap();
//! store.set(42, 100, None, 0.0).unwrap();
//! assert!(store.get(42, 0.0).is_hit());
//! assert!(store.get(7, 0.0).is_miss());
//! assert_eq!(store.stats().hits, 1);
//! assert_eq!(store.stats().misses, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bytes;
pub mod gdw;
pub mod hash;
pub mod lru;
pub mod slab;
pub mod store;

pub use bytes::Bytes;
pub use gdw::{CostAwareCache, GdwStats};
pub use hash::{IntHasher, IntMap};
pub use slab::{SlabAllocator, SlabConfig};
pub use store::{Lookup, Store, StoreConfig, StoreError, StoreStats};

/// Key identifiers, shared with `memlat-workload`.
pub type KeyId = u64;
