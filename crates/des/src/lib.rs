//! Discrete-event simulation kernel for the memlat cluster simulator.
//!
//! A deliberately small kernel: the memcached system model is
//! feed-forward (clients → servers → database), so every stage is
//! simulated in virtual time as a measured FCFS station driven by a
//! Lindley recursion over its time-ordered arrivals. Where a stage's
//! arrivals come from many streams (cache misses reaching the database
//! from every server), the caller merges them into time order first.
//!
//! * [`fcfs`] — [`FcfsStation`]: a single-server FCFS queue evaluated in
//!   virtual time with built-in wait/sojourn/utilization measurement.
//! * [`fault`] — [`fault::Window`] / [`fault::Timeline`]: scheduled
//!   crash/degradation windows a station owner can query in virtual
//!   time.
//! * [`metrics`] — per-server activity, resilience and coalescing
//!   counters that merge across shards.
//! * [`rng`] — deterministic per-stream RNG derivation, so adding a new
//!   random stream never perturbs existing ones.
//!
//! # Examples
//!
//! ```
//! use memlat_des::FcfsStation;
//!
//! let mut station = FcfsStation::new();
//! let first = station.submit(0.0, 2.0); // served at once
//! let second = station.submit(1.0, 1.0); // waits for the first
//! assert_eq!(first.departure, 2.0);
//! assert_eq!(second.wait(), 1.0);
//! assert_eq!(second.departure, 3.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod fcfs;
pub mod metrics;
pub mod rng;

pub use fcfs::{Completion, FcfsStation};
pub use metrics::{ResilienceCounters, ServerCounters};
pub use rng::stream_rng;
