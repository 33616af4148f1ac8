//! `memlat-loadgen` — socket-level load generation and live-server
//! conformance for [`memlat-server`](memlat_server).
//!
//! Where the simulator crates validate the paper's model against an
//! idealized event loop, this crate closes the remaining gap: it drives
//! the *real* server binary over real TCP sockets with the paper's
//! GI^X/M/1 input process and checks that measured round-trip latency
//! still lands inside the Theorem-1 band, follows the decay law `δ` in
//! mean and tails, and satisfies Little's law between two independent
//! instrumentation paths (server queue gauge vs client timestamps).
//!
//! Modules:
//!
//! * [`client`] — a minimal binary-safe memcached text-protocol client.
//! * [`driver`] — open-loop per-shard measurement streams and the
//!   keyspace preload.
//! * [`spawn`] — server lifecycle (in-process, child binary, external).
//! * [`conformance`] — the live harness and its deterministic-schema
//!   JSON report (`results/server_conformance.json`).

#![warn(missing_docs)]

pub mod client;
pub mod conformance;
pub mod driver;
pub mod spawn;

pub use client::{Connection, Response, Value};
pub use conformance::{Profile, Report};
pub use spawn::{RunningServer, ServerSource, ServerSpec};
