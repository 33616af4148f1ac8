//! The cluster simulation: M servers → sharded database.
//!
//! The per-server simulations are embarrassingly parallel *by
//! construction*: server `j` draws every random number from its own
//! seed-derived stream (`stream_rng(seed, 1000 + j)`), and the database
//! stage consumes the merged miss stream in a fixed, execution-order
//! independent order. [`ClusterSim::run`] therefore dispatches servers
//! across [`SimConfig::threads`] worker threads and still produces
//! **bit-identical** output to the sequential path for a fixed seed.
//!
//! The per-key hot path is **streaming and block-batched**: each
//! server's resolved keys flow from [`simulate_server_streaming_with`]
//! straight into the per-server summaries (and, only when the retention
//! policy or hedging needs them, into reusable [`KeyColumns`] buffers),
//! a [`SimConfig::effective_block`]-sized lane block at a time on
//! eligible runs. Under [`Retention::Summary`] without hedging, peak
//! memory is `O(servers + block + sketch)` — independent of the key
//! count. Sweeps can pass one [`SimScratch`] to
//! [`ClusterSim::run_with`] to reuse every per-server buffer across
//! runs.

use memlat_des::metrics::{CoalesceCounters, ResilienceCounters, ServerCounters};
use memlat_des::rng::stream_rng;
use memlat_stats::{Ecdf, QuantileSketch, StreamingStats};
use rand::RngCore;

use memlat_workload::{RoutedKeyspace, ZipfPopularity};

use crate::{
    columns::KeyColumns,
    config::{CacheRouting, MissMode, MissRelay, Retention, SimConfig},
    database::{run_db_stage_coalesced_with, run_db_stage_with, MissArrival, NO_KEY},
    fault::hedge_outcome,
    miss::RoutedHandle,
    server::{
        simulate_server_streaming_with, BlockScratch, KeyBlock, KeyRecord, RecordSink,
        ServerSimParams,
    },
    SimError,
};

/// The orchestrator: runs every memcached server, merges the cache-miss
/// streams into the sharded database, and produces a [`SimOutput`].
#[derive(Debug)]
pub struct ClusterSim;

/// Streaming summary of one server's run: always collected, independent
/// of the [`Retention`] policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSummary {
    /// Welford statistics of the per-key server latency `s`.
    pub latency: StreamingStats,
    /// Quantile sketch of `s` (≤ 1% relative error, exactly mergeable).
    pub sketch: QuantileSketch,
    /// Welford statistics of `s` over keys served inside a slowdown
    /// window (empty on healthy runs).
    pub degraded_latency: StreamingStats,
    /// Welford statistics of `s` over keys served outside any slowdown
    /// window (equals [`Self::latency`] on healthy runs).
    pub healthy_latency: StreamingStats,
    /// Busy time, queue high-water mark, jobs, misses.
    pub counters: ServerCounters,
    /// Fault and client-resilience counters (all zero on healthy runs).
    pub resilience: ResilienceCounters,
    /// Miss-coalescing counters for this server's database trips:
    /// fetches dispatched, delayed hits (misses that waited on an
    /// outstanding fetch for the same key), and total wait time. All
    /// zero under [`MissRelay::Independent`].
    pub coalesce: CoalesceCounters,
    /// Observed utilization (busy time ÷ horizon).
    pub utilization: f64,
    /// Items resident in this server's backing store at the end of the
    /// run (0 under [`MissMode::FixedRatio`]). Summed across servers
    /// this is the cluster capacity `x` of the Ji/Quan/Tan asymptotic.
    pub cached_items: u64,
}

impl ServerSummary {
    fn empty() -> Self {
        Self {
            latency: StreamingStats::new(),
            sketch: QuantileSketch::new(),
            degraded_latency: StreamingStats::new(),
            healthy_latency: StreamingStats::new(),
            counters: ServerCounters::default(),
            resilience: ResilienceCounters::default(),
            coalesce: CoalesceCounters::default(),
            utilization: 0.0,
            cached_items: 0,
        }
    }
}

/// What one server worker hands back to the merge step (the bulky
/// per-key data stays in the worker's [`ServerCell`]).
struct ServerOutcome {
    /// Keys recorded (post-warm-up).
    keys: u64,
    summary: ServerSummary,
}

const FLAG_FORCED: u8 = 1;
const FLAG_DEGRADED: u8 = 2;

/// One server's reusable per-key buffers.
#[derive(Debug, Default)]
struct ServerCell {
    /// `(s, d)` columns in arrival order (db latency filled in later).
    /// Populated only when the retention policy or hedging needs them.
    cols: KeyColumns,
    /// Per-record forced/degraded flags, kept only when hedging needs to
    /// rebuild the summaries after the merge-step min pass.
    flags: Vec<u8>,
    /// Missed keys: arrival time at the database + origin `(server, idx)`,
    /// time-sorted by the worker before the merge step.
    misses: Vec<MissArrival>,
}

/// The per-server streaming fold: consumes resolved keys (one at a time
/// or a lane block at a time) into the summaries, miss stream and
/// optional per-key columns. Living behind [`RecordSink`] instead of a
/// closure lets the block path push whole slices into the Welford
/// accumulator, sketch and columns.
struct WorkerSink<'a> {
    j: u32,
    idx: u32,
    plain_run: bool,
    keep_pairs: bool,
    hedging: bool,
    misses: &'a mut Vec<MissArrival>,
    cols: &'a mut KeyColumns,
    flags: &'a mut Vec<u8>,
    latency: StreamingStats,
    sketch: QuantileSketch,
    degraded_latency: StreamingStats,
    healthy_latency: StreamingStats,
}

impl RecordSink for WorkerSink<'_> {
    fn record(&mut self, r: &KeyRecord) {
        // Forced misses fall through to the database too: the cache
        // tier failed them, the backing store answers.
        if r.missed || r.forced {
            self.misses.push(MissArrival {
                time: r.completion,
                origin: (self.j, self.idx),
                // Forced misses never sampled a key; regular misses carry
                // whatever identity the decider drew (NO_KEY on the
                // fixed-ratio path).
                key: if r.forced { NO_KEY } else { r.key },
            });
        }
        self.latency.push(r.server_latency);
        self.sketch.push(r.server_latency);
        if self.plain_run {
            // healthy_latency == latency; copied after the run.
        } else if r.forced {
            // Neither split: the key was never served here.
        } else if r.degraded {
            self.degraded_latency.push(r.server_latency);
        } else {
            self.healthy_latency.push(r.server_latency);
        }
        if self.keep_pairs {
            self.cols.push_server(r.server_latency as f32);
        }
        if self.hedging {
            self.flags.push(
                if r.forced { FLAG_FORCED } else { 0 } | if r.degraded { FLAG_DEGRADED } else { 0 },
            );
        }
        self.idx += 1;
    }

    fn record_block(&mut self, b: &KeyBlock<'_>) {
        // Blocks only arrive on eligible runs (no faults, no timeout),
        // which are exactly the plain runs: no forced/degraded keys, so
        // the healthy split is the pooled stream (copied after the run)
        // and every hedge flag is zero.
        debug_assert!(self.plain_run);
        for (i, &missed) in b.missed.iter().enumerate() {
            if missed {
                self.misses.push(MissArrival {
                    time: b.completion[i],
                    origin: (self.j, self.idx + i as u32),
                    // Blocks exist only on the fixed-ratio path: no key.
                    key: NO_KEY,
                });
            }
        }
        self.latency.push_slice(b.latency);
        self.sketch.push_slice(b.latency);
        if self.keep_pairs {
            self.cols.extend_server(b.latency);
        }
        if self.hedging {
            self.flags.resize(self.flags.len() + b.len(), 0);
        }
        self.idx += b.len() as u32;
    }
}

/// Reusable simulation buffers: every allocation whose size scales with
/// the key count lives here, so a sweep that calls
/// [`ClusterSim::run_with`] with the same scratch allocates per-key
/// memory once and reuses it at every sweep point.
///
/// # Examples
///
/// ```
/// use memlat_cluster::{ClusterSim, SimConfig, SimScratch};
/// use memlat_model::ModelParams;
///
/// # fn main() -> Result<(), memlat_cluster::SimError> {
/// let mut scratch = SimScratch::new();
/// for seed in [1, 2] {
///     let params = ModelParams::builder().build()?;
///     let cfg = SimConfig::new(params).duration(0.2).seed(seed);
///     let out = ClusterSim::run_with(&cfg, &mut scratch)?;
///     assert!(out.total_keys() > 0);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct SimScratch {
    /// Per-server cells, stored lane-major for the thread dispatch (see
    /// [`lane_pos`]).
    cells: Vec<ServerCell>,
    /// Staging lanes for the block-batched server hot path: one per
    /// worker lane, not per server. A lane simulates its servers one at
    /// a time, so sharing keeps the block scratch footprint
    /// `O(threads × block)` instead of `O(servers × block)` — at
    /// M = 10 000 servers the per-server layout dominated peak memory.
    blocks: Vec<BlockScratch>,
    /// Pre-hedge per-server latency populations (hedging only).
    pristine: Vec<Vec<f32>>,
    /// The merged miss stream.
    misses: Vec<MissArrival>,
    /// Cached Zipf popularity (alias table) keyed by
    /// `(keyspace, skew bits)`: the O(keyspace) alias build happens once
    /// per scratch per configuration, not once per server per sweep
    /// point.
    zipf: Option<((u64, u64), std::sync::Arc<ZipfPopularity>)>,
    /// Cached consistent-hash routing table keyed by
    /// `(keyspace, skew bits, servers, vnodes)`: the O(keyspace) ring
    /// walk and conditional-sampler builds happen once per scratch per
    /// cluster configuration.
    routed: Option<((u64, u64, u64, u64), std::sync::Arc<RoutedKeyspace>)>,
}

impl SimScratch {
    /// Creates an empty scratch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Everything a simulation run produces.
#[derive(Debug)]
pub struct SimOutput {
    /// Per-server `(s, d)` columns in arrival order; `None` under
    /// [`Retention::Summary`].
    server_records: Option<Vec<KeyColumns>>,
    /// Always-on per-server streaming summaries.
    summaries: Vec<ServerSummary>,
    /// Welford statistics of db latency over the missed keys.
    db_latency: StreamingStats,
    /// Quantile sketch of db latency over the missed keys.
    db_sketch: QuantileSketch,
    /// Load shares used (for request assembly).
    shares: Vec<f64>,
    /// Constant network latency.
    network: f64,
    /// Observed per-server utilization.
    utilization: Vec<f64>,
    /// Observed overall miss ratio.
    miss_ratio: f64,
    /// Keys recorded.
    total_keys: u64,
}

impl ClusterSim {
    /// Runs the full simulation with one-shot buffers.
    ///
    /// # Errors
    ///
    /// Propagates configuration and model errors.
    pub fn run(cfg: &SimConfig) -> Result<SimOutput, SimError> {
        Self::run_with(cfg, &mut SimScratch::new())
    }

    /// Runs the full simulation, reusing `scratch`'s buffers.
    ///
    /// Output is bit-identical to [`ClusterSim::run`]; sweeps that run
    /// many configurations pass the same scratch to skip re-growing the
    /// per-key buffers at every point.
    ///
    /// # Errors
    ///
    /// Propagates configuration and model errors.
    pub fn run_with(cfg: &SimConfig, scratch: &mut SimScratch) -> Result<SimOutput, SimError> {
        cfg.validate()?;
        let params = &cfg.params;
        // The DES would happily simulate an overloaded server, but every
        // stationary estimator downstream would silently depend on the
        // horizon; refuse, like the analytical model does.
        let peak = params.peak_utilization()?;
        if peak >= 1.0 {
            return Err(SimError::InvalidConfig(format!(
                "peak server utilization {peak:.3} >= 1: no stationary regime"
            )));
        }
        let mut shares = params.load().shares(params.servers())?;
        let q = params.concurrency();
        let servers = shares.len();
        let threads = cfg.effective_threads().clamp(1, servers.max(1));

        let hedging = cfg.client.hedge.is_some();
        let keep_records = cfg.retention == Retention::Full;
        // The per-key columns are needed for the output (Full retention)
        // and for the hedge pass's replica populations; otherwise the
        // run is fully streaming and no per-key buffer is touched.
        let keep_pairs = keep_records || hedging;

        let SimScratch {
            cells,
            blocks,
            pristine,
            misses: all_misses,
            zipf,
            routed,
        } = scratch;
        if cells.len() < servers {
            cells.resize_with(servers, ServerCell::default);
        }
        if blocks.len() < threads {
            blocks.resize_with(threads, BlockScratch::default);
        }

        // Pre-build (or reuse) the Zipf popularity for cache-backed
        // runs: the alias-table build is O(keyspace), so a sweep must
        // not pay it once per server per point.
        let popularity = match &cfg.miss_mode {
            MissMode::FixedRatio => None,
            MissMode::CacheBacked(cc) => {
                let key = (cc.keyspace, cc.skew.to_bits());
                let arc = match zipf {
                    Some((k, arc)) if *k == key => std::sync::Arc::clone(arc),
                    _ => {
                        let arc = std::sync::Arc::new(
                            ZipfPopularity::new(cc.keyspace, cc.skew)
                                .map_err(|e| SimError::InvalidConfig(e.to_string()))?,
                        );
                        *zipf = Some((key, std::sync::Arc::clone(&arc)));
                        arc
                    }
                };
                Some(arc)
            }
        };

        // Cluster-wide consistent hashing: build (or reuse) the routing
        // table and replace the configured load shares with the
        // ring-induced ones — each server receives exactly the
        // popularity mass of the keys it owns, so the unbalanced `{p_j}`
        // *emerges* from the ring instead of being postulated.
        let routed_keyspace = match &cfg.miss_mode {
            MissMode::CacheBacked(cc) => match cc.routing {
                CacheRouting::Independent => None,
                CacheRouting::ConsistentHash { vnodes } => {
                    if !matches!(params.load(), memlat_model::LoadDistribution::Balanced) {
                        return Err(SimError::InvalidConfig(
                            "consistent-hash routing derives the load shares from the ring; \
                             configure LoadDistribution::Balanced"
                                .into(),
                        ));
                    }
                    let key = (
                        cc.keyspace,
                        cc.skew.to_bits(),
                        servers as u64,
                        vnodes as u64,
                    );
                    let pop = popularity
                        .as_ref()
                        .expect("cache-backed mode builds a popularity");
                    let arc = match routed {
                        Some((k, arc)) if *k == key => std::sync::Arc::clone(arc),
                        _ => {
                            let arc = std::sync::Arc::new(
                                RoutedKeyspace::new(pop, servers, vnodes)
                                    .map_err(|e| SimError::InvalidConfig(e.to_string()))?,
                            );
                            *routed = Some((key, std::sync::Arc::clone(&arc)));
                            arc
                        }
                    };
                    shares = arc.shares().to_vec();
                    // The configured peak check used balanced shares;
                    // re-check against the ring's hottest server.
                    let max_share = shares.iter().fold(0.0_f64, |a, &b| a.max(b));
                    let peak = max_share * params.total_key_rate() / params.service_rate();
                    if peak >= 1.0 {
                        return Err(SimError::InvalidConfig(format!(
                            "ring-induced peak server utilization {peak:.3} >= 1: \
                             no stationary regime"
                        )));
                    }
                    Some(arc)
                }
            },
            MissMode::FixedRatio => None,
        };

        // One worker per server; identical code on the sequential and
        // parallel paths, so thread count cannot change the output.
        let block = cfg.effective_block();
        let worker = |j: usize,
                      cell: &mut ServerCell,
                      block_scratch: &mut BlockScratch|
         -> Result<ServerOutcome, SimError> {
            let ServerCell {
                cols,
                flags,
                misses,
            } = cell;
            cols.clear();
            flags.clear();
            misses.clear();
            let p = shares[j];
            if p <= 0.0 {
                return Ok(ServerOutcome {
                    keys: 0,
                    summary: ServerSummary::empty(),
                });
            }
            let lam_j = p * params.total_key_rate();
            let gaps = params
                .arrival()
                .gap_law((1.0 - q) * lam_j)
                .map_err(SimError::Model)?;
            let mut rng = stream_rng(cfg.seed, 1000 + j as u64);
            let faults = cfg.fault_plan.for_server(j);
            // With nothing scheduled and no client timeout, no key can be
            // forced or degraded: the healthy split would receive exactly
            // the pooled stream, so skip the duplicate Welford update per
            // key and copy the accumulator once after the run.
            let plain_run = faults.is_empty() && cfg.client.timeout.is_none();
            let mut sink = WorkerSink {
                j: j as u32,
                idx: 0,
                plain_run,
                keep_pairs,
                hedging,
                misses,
                cols,
                flags,
                latency: StreamingStats::new(),
                sketch: QuantileSketch::new(),
                degraded_latency: StreamingStats::new(),
                healthy_latency: StreamingStats::new(),
            };
            let stats = simulate_server_streaming_with(
                ServerSimParams {
                    interarrival: gaps,
                    concurrency: q,
                    service_rate: params.service_rate(),
                    miss_ratio: params.miss_ratio(),
                    miss_mode: &cfg.miss_mode,
                    popularity: popularity.clone(),
                    routed: routed_keyspace.as_ref().map(|ks| RoutedHandle {
                        keyspace: std::sync::Arc::clone(ks),
                        server: j,
                    }),
                    warmup: cfg.warmup,
                    duration: cfg.duration,
                    faults,
                    client: cfg.client,
                    block,
                },
                &mut rng,
                block_scratch,
                &mut sink,
            )
            .map_err(|e| SimError::InvalidConfig(e.to_string()))?;
            let WorkerSink {
                latency,
                sketch,
                degraded_latency,
                mut healthy_latency,
                misses,
                ..
            } = sink;
            if plain_run {
                healthy_latency = latency;
            }
            // Time-sort this server's miss shard on the worker thread
            // (stable, and already nearly sorted on healthy runs where
            // FCFS departures are monotone). The merge step then only
            // k-way merges M sorted streams instead of re-sorting the
            // whole concatenated stream on the main thread.
            misses.sort_by(|a, b| a.time.total_cmp(&b.time));
            Ok(ServerOutcome {
                keys: stats.counters.jobs,
                summary: ServerSummary {
                    latency,
                    sketch,
                    degraded_latency,
                    healthy_latency,
                    counters: stats.counters,
                    resilience: stats.resilience,
                    // Filled in by the coalescing db stage after merge.
                    coalesce: CoalesceCounters::default(),
                    utilization: stats.utilization,
                    cached_items: stats.cached_items,
                },
            })
        };

        let mut outcomes = dispatch(servers, threads, &worker, cells, blocks)?;

        // Hedged duplicates: a deterministic merge-step pass, in server
        // order, so the thread count still cannot change the output. A
        // key whose primary latency exceeded the hedge delay draws a
        // duplicate attempt from the replica server's *pristine* latency
        // population (sampled before any hedge updates) and keeps
        // `min(primary, delay + replica)`.
        if let Some(h) = cfg.client.hedge {
            let m = servers;
            if m > 1 {
                if pristine.len() < m {
                    pristine.resize_with(m, Vec::new);
                }
                for (j, pop) in pristine.iter_mut().enumerate().take(m) {
                    pop.clear();
                    pop.extend_from_slice(cells[lane_pos(servers, threads, j)].cols.s());
                }
                for (j, out) in outcomes.iter_mut().enumerate() {
                    let replica = &pristine[(j + 1) % m];
                    if replica.is_empty() {
                        continue;
                    }
                    let ServerCell { cols, flags, .. } = &mut cells[lane_pos(servers, threads, j)];
                    let mut rng = stream_rng(cfg.seed, 3_000_000 + j as u64);
                    let mut latency = StreamingStats::new();
                    let mut sketch = QuantileSketch::new();
                    let mut degraded_latency = StreamingStats::new();
                    let mut healthy_latency = StreamingStats::new();
                    for (i, slot) in cols.s_mut().iter_mut().enumerate() {
                        let forced = flags[i] & FLAG_FORCED != 0;
                        let mut s = f64::from(*slot);
                        if !forced && s > h.delay {
                            out.summary.resilience.hedges_sent += 1;
                            let k = (rng.next_u64() % replica.len() as u64) as usize;
                            let (eff, _) = hedge_outcome(s, h.delay, f64::from(replica[k]));
                            // A win must be observable at the f32
                            // precision records are stored at, so the
                            // counter and the records never disagree.
                            let eff32 = eff as f32;
                            if eff32 < *slot {
                                out.summary.resilience.hedges_won += 1;
                                *slot = eff32;
                                s = f64::from(eff32);
                            }
                        }
                        latency.push(s);
                        sketch.push(s);
                        if forced {
                        } else if flags[i] & FLAG_DEGRADED != 0 {
                            degraded_latency.push(s);
                        } else {
                            healthy_latency.push(s);
                        }
                    }
                    // The summaries must describe the effective (post-
                    // hedge) latencies; rebuild them from the records.
                    out.summary.latency = latency;
                    out.summary.sketch = sketch;
                    out.summary.degraded_latency = degraded_latency;
                    out.summary.healthy_latency = healthy_latency;
                }
            }
        }

        // Merge in server order — the only order-sensitive step, and it
        // is fixed regardless of which thread finished first.
        let mut server_records: Vec<KeyColumns> = Vec::new();
        let mut summaries = Vec::with_capacity(outcomes.len());
        let mut utilization = Vec::with_capacity(outcomes.len());
        let mut total_keys = 0u64;
        let mut total_misses = 0u64;
        for (j, out) in outcomes.into_iter().enumerate() {
            let cell = &mut cells[lane_pos(servers, threads, j)];
            total_keys += out.keys;
            // Regular cache misses only: forced misses are accounted
            // separately (they reach the database but are a fault
            // artifact, not a cache property).
            total_misses += out.summary.counters.misses;
            utilization.push(out.summary.utilization);
            summaries.push(out.summary);
            if keep_records {
                // Full retention moves the columns into the output; the
                // scratch keeps only the (empty) replacement buffers.
                server_records.push(std::mem::take(&mut cell.cols));
            }
        }

        // K-way merge of the per-server time-sorted miss shards, keyed
        // `(time, server)`: equal times resolve in server order, and a
        // server's equal-time misses keep their push order (its shard was
        // stable-sorted) — exactly the order the previous global stable
        // sort over the concatenated stream produced, without an
        // O(K log K) single-threaded pass over every miss.
        merge_miss_shards(servers, threads, cells, all_misses);
        let shards = cfg.effective_db_shards();
        let mut db_rng = stream_rng(cfg.seed, 2_000_000);
        let mut db_latency = StreamingStats::new();
        let mut db_sketch = QuantileSketch::new();
        match cfg.miss_relay {
            MissRelay::Independent => run_db_stage_with(
                all_misses,
                shards,
                params.db_service_rate(),
                &mut db_rng,
                |(server, idx), d| {
                    db_latency.push(d);
                    db_sketch.push(d);
                    if keep_records {
                        server_records[server as usize].set_db(idx as usize, d as f32);
                    }
                },
            ),
            MissRelay::Coalesced => run_db_stage_coalesced_with(
                all_misses,
                shards,
                params.db_service_rate(),
                &mut db_rng,
                |(server, idx), d, delayed| {
                    db_latency.push(d);
                    db_sketch.push(d);
                    let c = &mut summaries[server as usize].coalesce;
                    if delayed {
                        c.delayed_hits += 1;
                        c.wait_time += d;
                    } else {
                        c.dispatched += 1;
                    }
                    if keep_records {
                        let cols = &mut server_records[server as usize];
                        cols.set_db(idx as usize, d as f32);
                        if delayed {
                            cols.set_delayed(idx as usize);
                        }
                    }
                },
            ),
        }

        Ok(SimOutput {
            server_records: keep_records.then_some(server_records),
            summaries,
            db_latency,
            db_sketch,
            shares,
            network: params.network_latency(),
            utilization,
            miss_ratio: if total_keys == 0 {
                0.0
            } else {
                total_misses as f64 / total_keys as f64
            },
            total_keys,
        })
    }
}

/// Head of one server's miss shard in the k-way merge, ordered by
/// `(time, server)` — see [`merge_miss_shards`].
struct MergeHead {
    time: f64,
    server: u32,
}

impl PartialEq for MergeHead {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for MergeHead {}
impl PartialOrd for MergeHead {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeHead {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.server.cmp(&other.server))
    }
}

/// Merges the per-server time-sorted miss shards into `all_misses` in
/// `(time, server, push order)` order via a binary heap over the M
/// stream heads: `O(K log M)` with `K` total misses, versus
/// `O(K log K)` for the old concatenate-and-sort.
fn merge_miss_shards(
    servers: usize,
    threads: usize,
    cells: &[ServerCell],
    all_misses: &mut Vec<MissArrival>,
) {
    all_misses.clear();
    let total: usize = (0..servers)
        .map(|j| cells[lane_pos(servers, threads, j)].misses.len())
        .sum();
    all_misses.reserve(total);
    let mut next = vec![0usize; servers];
    let mut heap = std::collections::BinaryHeap::with_capacity(servers);
    for j in 0..servers {
        let shard = &cells[lane_pos(servers, threads, j)].misses;
        if !shard.is_empty() {
            heap.push(std::cmp::Reverse(MergeHead {
                time: shard[0].time,
                server: j as u32,
            }));
        }
    }
    while let Some(std::cmp::Reverse(MergeHead { server, .. })) = heap.pop() {
        let j = server as usize;
        let shard = &cells[lane_pos(servers, threads, j)].misses;
        let pos = next[j];
        all_misses.push(shard[pos]);
        next[j] = pos + 1;
        if pos + 1 < shard.len() {
            heap.push(std::cmp::Reverse(MergeHead {
                time: shard[pos + 1].time,
                server,
            }));
        }
    }
}

/// Number of servers thread `lane` handles: servers `j ≡ lane (mod
/// threads)`.
fn lane_len(servers: usize, threads: usize, lane: usize) -> usize {
    (servers + threads - 1 - lane) / threads
}

/// Position of server `j`'s cell in the lane-major cell layout: lane
/// `j % threads` occupies a contiguous block, inside which `j` sits at
/// slot `j / threads`. Identity when `threads == 1`.
fn lane_pos(servers: usize, threads: usize, j: usize) -> usize {
    let lane = j % threads;
    let offset: usize = (0..lane).map(|l| lane_len(servers, threads, l)).sum();
    offset + j / threads
}

/// Runs `worker(j, cell)` for every server on up to `threads` scoped
/// threads, returning outcomes in server order. Servers are interleaved
/// round-robin across threads so a hot server does not serialize a whole
/// chunk; the lane-major cell layout makes each thread's cells one
/// contiguous `split_at_mut` slice, so dispatch allocates nothing beyond
/// the outcome slots.
fn dispatch<F>(
    servers: usize,
    threads: usize,
    worker: &F,
    cells: &mut [ServerCell],
    blocks: &mut [BlockScratch],
) -> Result<Vec<ServerOutcome>, SimError>
where
    F: Fn(usize, &mut ServerCell, &mut BlockScratch) -> Result<ServerOutcome, SimError> + Sync,
{
    let mut slots: Vec<Option<Result<ServerOutcome, SimError>>> = Vec::new();
    slots.resize_with(servers, || None);
    if threads <= 1 {
        let block = &mut blocks[0];
        for (j, (slot, cell)) in slots.iter_mut().zip(cells.iter_mut()).enumerate() {
            *slot = Some(worker(j, cell, block));
        }
    } else {
        std::thread::scope(|scope| {
            let mut rest_cells = &mut cells[..servers];
            let mut rest_slots = &mut slots[..];
            let mut rest_blocks = &mut blocks[..threads];
            for lane in 0..threads {
                let n = lane_len(servers, threads, lane);
                let (cell_lane, next_cells) = rest_cells.split_at_mut(n);
                let (slot_lane, next_slots) = rest_slots.split_at_mut(n);
                let (block_lane, next_blocks) = rest_blocks.split_at_mut(1);
                rest_cells = next_cells;
                rest_slots = next_slots;
                rest_blocks = next_blocks;
                scope.spawn(move || {
                    let block = &mut block_lane[0];
                    for (i, (slot, cell)) in slot_lane.iter_mut().zip(cell_lane).enumerate() {
                        *slot = Some(worker(lane + i * threads, cell, block));
                    }
                });
            }
        });
    }
    // Un-permute from lane-major back to server order.
    (0..servers)
        .map(|j| {
            slots[lane_pos(servers, threads, j)]
                .take()
                .expect("server worker slot unfilled")
        })
        .collect()
}

impl SimOutput {
    /// Keys recorded across all servers.
    #[must_use]
    pub fn total_keys(&self) -> u64 {
        self.total_keys
    }

    /// Observed per-server utilizations.
    #[must_use]
    pub fn utilization(&self) -> &[f64] {
        &self.utilization
    }

    /// Observed overall miss ratio.
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        self.miss_ratio
    }

    /// Total items resident across every server's backing store at the
    /// end of the run (0 under [`MissMode::FixedRatio`]) — the cluster
    /// capacity `x` in the Ji/Quan/Tan miss-ratio asymptotic.
    #[must_use]
    pub fn cached_items(&self) -> u64 {
        self.summaries.iter().map(|s| s.cached_items).sum()
    }

    /// The load shares in force.
    #[must_use]
    pub fn shares(&self) -> &[f64] {
        &self.shares
    }

    /// The constant network latency.
    #[must_use]
    pub fn network_latency(&self) -> f64 {
        self.network
    }

    /// Whether per-key records were retained ([`Retention::Full`]).
    #[must_use]
    pub fn has_records(&self) -> bool {
        self.server_records.is_some()
    }

    /// Per-server `(s, d)` columns.
    ///
    /// # Panics
    ///
    /// Panics under [`Retention::Summary`] — use the streaming accessors
    /// ([`Self::summary`], [`Self::server_latency_quantile`],
    /// [`Self::db_latency_stats`]) instead.
    #[must_use]
    pub fn records(&self, server: usize) -> &KeyColumns {
        &self
            .server_records
            .as_ref()
            .expect("per-key records dropped (Retention::Summary); use the streaming summaries")
            [server]
    }

    /// Per-server streaming summaries (always available).
    #[must_use]
    pub fn summaries(&self) -> &[ServerSummary] {
        &self.summaries
    }

    /// One server's streaming summary.
    #[must_use]
    pub fn summary(&self, server: usize) -> &ServerSummary {
        &self.summaries[server]
    }

    /// Pooled Welford statistics of per-key server latency (all servers,
    /// exact merge in server order).
    #[must_use]
    pub fn pooled_latency_stats(&self) -> StreamingStats {
        let mut pooled = StreamingStats::new();
        for s in &self.summaries {
            pooled.merge(&s.latency);
        }
        pooled
    }

    /// Pooled quantile sketch of per-key server latency (all servers).
    #[must_use]
    pub fn pooled_latency_sketch(&self) -> QuantileSketch {
        let mut pooled = QuantileSketch::new();
        for s in &self.summaries {
            pooled.merge(&s.sketch);
        }
        pooled
    }

    /// Welford statistics of db latency over the missed keys.
    #[must_use]
    pub fn db_latency_stats(&self) -> &StreamingStats {
        &self.db_latency
    }

    /// Quantile sketch of db latency over the missed keys.
    #[must_use]
    pub fn db_latency_sketch(&self) -> &QuantileSketch {
        &self.db_sketch
    }

    /// Pooled ECDF of per-key **server** latency (all servers). Because
    /// server `j` naturally contributes `p_j` of the keys, this pool *is*
    /// the `T_S(1)` mixture of the paper's eq. 11.
    ///
    /// # Panics
    ///
    /// Panics when the run recorded no keys, or under
    /// [`Retention::Summary`] (use [`Self::server_latency_quantile`]).
    #[must_use]
    pub fn server_latency_ecdf(&self) -> Ecdf {
        let records = self
            .server_records
            .as_ref()
            .expect("exact ECDF needs Retention::Full; use server_latency_quantile");
        let mut all: Vec<f64> = Vec::with_capacity(self.total_keys as usize);
        for recs in records {
            all.extend(recs.s().iter().map(|&s| f64::from(s)));
        }
        Ecdf::from_samples(&all)
    }

    /// ECDF of per-key server latency at one server.
    ///
    /// # Panics
    ///
    /// Panics when that server recorded no keys or under
    /// [`Retention::Summary`].
    #[must_use]
    pub fn server_latency_ecdf_of(&self, server: usize) -> Ecdf {
        let s: Vec<f64> = self
            .records(server)
            .s()
            .iter()
            .map(|&s| f64::from(s))
            .collect();
        Ecdf::from_samples(&s)
    }

    /// The `p`-th quantile of pooled per-key server latency: exact (ECDF
    /// order statistic) under [`Retention::Full`], sketch-answered (≤ 1%
    /// relative error, same rank convention) under [`Retention::Summary`].
    ///
    /// # Panics
    ///
    /// Panics when the run recorded no keys or `p ∉ [0, 1]`.
    #[must_use]
    pub fn server_latency_quantile(&self, p: f64) -> f64 {
        if self.server_records.is_some() {
            self.server_latency_ecdf().quantile(p)
        } else {
            self.pooled_latency_sketch().quantile(p)
        }
    }

    /// Measured `E[T_S(N)]`: the `N/(N+1)` quantile of the pooled per-key
    /// server latency (the paper's eq. 12 estimator, §4.5: "the expected
    /// latency for an end-user request statistically equals the N/(N+1)
    /// percentile of the latency for one memcached key").
    #[must_use]
    pub fn expected_server_latency(&self, n: u64) -> f64 {
        let k = memlat_stats::max_order_quantile(n);
        self.server_latency_quantile(k)
    }

    /// Cluster-wide fault and client-resilience counters (the merge of
    /// every server's [`ServerSummary::resilience`]). All zero on a
    /// healthy run.
    #[must_use]
    pub fn resilience(&self) -> ResilienceCounters {
        let mut total = ResilienceCounters::default();
        for s in &self.summaries {
            total.merge(&s.resilience);
        }
        total
    }

    /// Cluster-wide miss-coalescing counters (the merge of every
    /// server's [`ServerSummary::coalesce`]). All zero under
    /// [`MissRelay::Independent`].
    #[must_use]
    pub fn coalesce(&self) -> CoalesceCounters {
        let mut total = CoalesceCounters::default();
        for s in &self.summaries {
            total.merge(&s.coalesce);
        }
        total
    }

    /// Fraction of recorded keys that exhausted every attempt and fell
    /// through to the database (0 on healthy runs).
    #[must_use]
    pub fn forced_miss_ratio(&self) -> f64 {
        if self.total_keys == 0 {
            0.0
        } else {
            self.resilience().forced_misses as f64 / self.total_keys as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memlat_model::ModelParams;

    fn quick(seed: u64) -> SimOutput {
        let params = ModelParams::builder().build().unwrap();
        ClusterSim::run(&SimConfig::new(params).duration(0.5).warmup(0.1).seed(seed)).unwrap()
    }

    #[test]
    fn output_shape_is_consistent() {
        let out = quick(1);
        assert_eq!(out.shares().len(), 4);
        assert_eq!(out.utilization().len(), 4);
        assert_eq!(out.summaries().len(), 4);
        let sum: usize = (0..4).map(|j| out.records(j).len()).sum();
        assert_eq!(sum as u64, out.total_keys());
        // Balanced load: every server sees ~1/4 of the keys.
        for j in 0..4 {
            let frac = out.records(j).len() as f64 / out.total_keys() as f64;
            assert!((frac - 0.25).abs() < 0.03, "server {j}: {frac}");
        }
    }

    #[test]
    fn observed_quantities_match_configuration() {
        let out = quick(2);
        assert!(
            (out.miss_ratio() - 0.01).abs() < 0.004,
            "{}",
            out.miss_ratio()
        );
        for &u in out.utilization() {
            assert!((u - 0.78).abs() < 0.06, "{u}");
        }
        assert_eq!(out.network_latency(), 20e-6);
    }

    #[test]
    fn missed_keys_carry_db_latency() {
        let out = quick(3);
        let mut missed = 0;
        let mut hit = 0;
        for j in 0..4 {
            for (_, d) in out.records(j) {
                if d > 0.0 {
                    missed += 1;
                } else {
                    hit += 1;
                }
            }
        }
        assert!(missed > 0, "no misses recorded");
        assert!(hit > missed * 50, "hit/miss ratio implausible");
        // The streaming db summary counts exactly the missed keys.
        assert_eq!(out.db_latency_stats().count(), missed as u64);
        assert_eq!(out.db_latency_sketch().count(), missed as u64);
    }

    #[test]
    fn measured_ts_in_theorem1_band() {
        let out = quick(4);
        let model = memlat_model::ServerLatencyModel::new(&ModelParams::builder().build().unwrap())
            .unwrap();
        let bounds = model.product_form_bounds(150);
        let measured = out.expected_server_latency(150);
        // Generous slack: short run, high quantile.
        assert!(
            measured > bounds.lower * 0.75 && measured < bounds.upper * 1.35,
            "measured={measured} band={bounds:?}"
        );
    }

    #[test]
    fn determinism_per_seed() {
        let a = quick(9);
        let b = quick(9);
        assert_eq!(a.total_keys(), b.total_keys());
        assert_eq!(a.records(0), b.records(0));
        let c = quick(10);
        assert_ne!(a.total_keys(), c.total_keys());
    }

    #[test]
    fn parallel_output_is_bit_identical_to_sequential() {
        let params = ModelParams::builder().build().unwrap();
        let base = SimConfig::new(params)
            .duration(0.5)
            .warmup(0.1)
            .seed(0xbeef);
        let seq = ClusterSim::run(&base.clone().threads(1)).unwrap();
        let par = ClusterSim::run(&base.clone().threads(4)).unwrap();
        // Raw records: every per-key pair identical.
        assert_eq!(seq.total_keys(), par.total_keys());
        for j in 0..seq.shares().len() {
            assert_eq!(seq.records(j), par.records(j), "server {j} records differ");
        }
        // Streaming summaries: bit-identical to full precision.
        assert_eq!(seq.summaries(), par.summaries());
        assert_eq!(seq.db_latency_stats(), par.db_latency_stats());
        assert_eq!(seq.db_latency_sketch(), par.db_latency_sketch());
        assert_eq!(seq.utilization(), par.utilization());
        assert_eq!(seq.miss_ratio(), par.miss_ratio());
        assert_eq!(
            seq.expected_server_latency(150).to_bits(),
            par.expected_server_latency(150).to_bits()
        );
        // And an oversubscribed thread count changes nothing either.
        let over = ClusterSim::run(&base.threads(64)).unwrap();
        assert_eq!(seq.summaries(), over.summaries());

        // M = 100 under summary retention: the k-way miss merge runs
        // over more server shards than worker lanes.
        let params = ModelParams::builder()
            .servers(100)
            .key_rate_per_server(0.70 * 80_000.0)
            .build()
            .unwrap();
        let scaled = SimConfig::new(params)
            .duration(0.05)
            .warmup(0.005)
            .retention(Retention::Summary)
            .seed(0xbe9c);
        let seq = ClusterSim::run(&scaled.clone().threads(1)).unwrap();
        let par = ClusterSim::run(&scaled.threads(4)).unwrap();
        assert_eq!(seq.total_keys(), par.total_keys());
        assert_eq!(seq.summaries(), par.summaries());
        let bits = |u: &[f64]| u.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(seq.utilization()), bits(par.utilization()));
        assert_eq!(seq.miss_ratio().to_bits(), par.miss_ratio().to_bits());
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_buffers() {
        // One scratch across three runs with different seeds and thread
        // counts: every output must match the fresh-buffer run exactly.
        let mut scratch = SimScratch::new();
        for (seed, threads) in [(7u64, 1usize), (8, 3), (7, 1)] {
            let params = ModelParams::builder().build().unwrap();
            let cfg = SimConfig::new(params)
                .duration(0.3)
                .warmup(0.05)
                .seed(seed)
                .threads(threads);
            let reused = ClusterSim::run_with(&cfg, &mut scratch).unwrap();
            let fresh = ClusterSim::run(&cfg).unwrap();
            assert_eq!(reused.total_keys(), fresh.total_keys());
            for j in 0..fresh.shares().len() {
                assert_eq!(reused.records(j), fresh.records(j), "server {j}");
            }
            assert_eq!(reused.summaries(), fresh.summaries());
            assert_eq!(reused.db_latency_stats(), fresh.db_latency_stats());
            assert_eq!(reused.miss_ratio(), fresh.miss_ratio());
        }
    }

    #[test]
    fn summary_retention_matches_full_statistics() {
        let params = ModelParams::builder().build().unwrap();
        let base = SimConfig::new(params).duration(0.5).warmup(0.1).seed(21);
        let full = ClusterSim::run(&base).unwrap();
        let lean = ClusterSim::run(&base.retention(Retention::Summary)).unwrap();
        assert!(full.has_records());
        assert!(!lean.has_records());
        // Same simulation, same summaries.
        assert_eq!(full.summaries(), lean.summaries());
        assert_eq!(full.total_keys(), lean.total_keys());
        assert_eq!(full.miss_ratio(), lean.miss_ratio());
        assert_eq!(full.db_latency_stats(), lean.db_latency_stats());
        // Sketch quantiles agree with the exact ECDF within the bound.
        for p in [0.5, 0.9, 0.99, memlat_stats::max_order_quantile(150)] {
            let exact = full.server_latency_ecdf().quantile(p);
            let approx = lean.server_latency_quantile(p);
            assert!(
                (approx - exact).abs() <= 0.011 * exact,
                "p={p}: approx={approx} exact={exact}"
            );
        }
        // Pooled Welford mean is exact (f32 record rounding aside).
        let pooled = lean.pooled_latency_stats();
        assert_eq!(pooled.count(), lean.total_keys());
        let exact_mean = full.server_latency_ecdf().mean();
        assert!((pooled.mean() / exact_mean - 1.0).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "Retention::Summary")]
    fn summary_retention_records_panics() {
        let params = ModelParams::builder().build().unwrap();
        let out = ClusterSim::run(
            &SimConfig::new(params)
                .duration(0.3)
                .seed(5)
                .retention(Retention::Summary),
        )
        .unwrap();
        let _ = out.records(0);
    }

    #[test]
    fn healthy_run_reports_no_resilience_activity() {
        let out = quick(6);
        assert!(!out.resilience().any());
        assert_eq!(out.forced_miss_ratio(), 0.0);
        for s in out.summaries() {
            assert_eq!(s.degraded_latency.count(), 0);
            assert_eq!(s.healthy_latency.count(), s.latency.count());
        }
    }

    #[test]
    fn crashes_and_retries_surface_in_output() {
        use crate::fault::{ClientPolicy, FaultPlan, RetryPolicy};
        let params = ModelParams::builder().build().unwrap();
        let cfg = SimConfig::new(params)
            .duration(0.4)
            .warmup(0.1)
            .seed(31)
            .fault_plan(
                FaultPlan::none()
                    .crash(1, 0.2, 0.3)
                    .slowdown(2, 0.2, 0.4, 3.0),
            )
            .client(
                ClientPolicy::none()
                    .timeout(5e-3)
                    .retry(RetryPolicy::default()),
            );
        let out = ClusterSim::run(&cfg).unwrap();
        let total = out.resilience();
        assert!(total.refused > 0, "crash produced no refusals");
        assert!(total.retries > 0, "no retries were issued");
        assert!((total.downtime - 0.1).abs() < 1e-12);
        assert!((total.degraded_time - 0.2).abs() < 1e-12);
        // Only the crashed server refused; only the slowed one split.
        assert_eq!(out.summary(0).resilience.refused, 0);
        assert!(out.summary(1).resilience.refused > 0);
        assert!(out.summary(2).degraded_latency.count() > 0);
        assert_eq!(out.summary(0).degraded_latency.count(), 0);
        // Forced misses carry a db latency like regular misses, so the
        // db stage saw misses + forced keys.
        assert_eq!(
            out.db_latency_stats().count(),
            out.summaries()
                .iter()
                .map(|s| s.counters.misses)
                .sum::<u64>()
                + total.forced_misses
        );
        assert_eq!(
            out.forced_miss_ratio(),
            total.forced_misses as f64 / out.total_keys() as f64
        );
    }

    #[test]
    fn hedging_reduces_tail_against_a_slow_server() {
        use crate::fault::{ClientPolicy, FaultPlan};
        let params = ModelParams::builder().build().unwrap();
        let base = SimConfig::new(params)
            .duration(0.4)
            .warmup(0.1)
            .seed(32)
            .fault_plan(FaultPlan::none().slowdown(0, 0.1, 0.5, 5.0));
        let plain = ClusterSim::run(&base).unwrap();
        let delay = plain.server_latency_quantile(0.95);
        let hedged = ClusterSim::run(&base.client(ClientPolicy::none().hedge(delay))).unwrap();
        let total = hedged.resilience();
        assert!(total.hedges_sent > 0);
        assert!(total.hedges_won > 0);
        assert!(total.hedges_won <= total.hedges_sent);
        // Hedging is a pathwise min against the replica draw: the p99
        // can only improve, and against one slow server it must.
        let p99_plain = plain.server_latency_quantile(0.99);
        let p99_hedged = hedged.server_latency_quantile(0.99);
        assert!(
            p99_hedged < p99_plain,
            "hedged p99 {p99_hedged} !< plain {p99_plain}"
        );
    }

    #[test]
    fn hedging_under_summary_retention_matches_full() {
        // Hedging needs the per-key columns internally even when the
        // caller asked for Summary retention; the summaries must come
        // out identical either way, with no records in the output.
        use crate::fault::{ClientPolicy, FaultPlan};
        let params = ModelParams::builder().build().unwrap();
        let base = SimConfig::new(params)
            .duration(0.3)
            .warmup(0.05)
            .seed(33)
            .fault_plan(FaultPlan::none().slowdown(0, 0.1, 0.25, 4.0))
            .client(ClientPolicy::none().hedge(1e-3));
        let full = ClusterSim::run(&base).unwrap();
        let lean = ClusterSim::run(&base.retention(Retention::Summary)).unwrap();
        assert!(!lean.has_records());
        assert_eq!(full.summaries(), lean.summaries());
        assert_eq!(full.resilience(), lean.resilience());
        assert!(lean.resilience().hedges_sent > 0);
    }

    #[test]
    fn zero_share_server_records_nothing() {
        let params = ModelParams::builder()
            .load(memlat_model::LoadDistribution::Custom(vec![
                0.5, 0.5, 0.0, 0.0,
            ]))
            .total_key_rate(100_000.0)
            .build()
            .unwrap();
        let out = ClusterSim::run(&SimConfig::new(params).duration(0.3).seed(5)).unwrap();
        assert!(out.records(2).is_empty());
        assert!(out.records(3).is_empty());
        assert!(!out.records(0).is_empty());
        assert!(out.summary(2).latency.count() == 0);
        assert_eq!(out.summary(2).counters, ServerCounters::default());
    }

    #[test]
    fn lane_layout_covers_every_server_once() {
        for servers in [1usize, 2, 3, 4, 7, 16] {
            for threads in 1..=servers {
                let total: usize = (0..threads).map(|l| lane_len(servers, threads, l)).sum();
                assert_eq!(total, servers, "{servers} servers / {threads} threads");
                let mut seen = vec![false; servers];
                for j in 0..servers {
                    let pos = lane_pos(servers, threads, j);
                    assert!(!seen[pos], "position {pos} assigned twice");
                    seen[pos] = true;
                }
                assert!(seen.iter().all(|&b| b));
            }
        }
    }
}
