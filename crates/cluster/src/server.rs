//! One simulated memcached server.
//!
//! Every run streams its resolved keys into a caller-supplied
//! [`RecordSink`] ([`simulate_server_streaming_with`]) and allocates no
//! per-key memory; the pipeline is monomorphized over the RNG type, so
//! nothing in the per-key loop goes through a vtable. A run takes one of
//! two pipelines, chosen once at entry.
//!
//! **Plain runs** — no fault window, no client timeout, fixed-ratio
//! misses: the paper's `GI^X/M/1` server. They draw everything from the
//! server's own `rng` in the historical scalar order (per batch a gap and
//! a size; per key a service uniform, then — when `r > 0` — a miss
//! uniform), which the goldens pin. Above `block = 1` keys are staged in
//! structure-of-arrays lanes ([`BlockScratch`]), the speculative arrival
//! pipeline ([`BatchArrivals::fill_block_speculative`]) banks raw bits
//! in scalar order and rewinds past the horizon, the transforms and the
//! Lindley recursion run as slice scans, and whole blocks reach the sink
//! via [`RecordSink::record_block`]. Warm-up keys run through a scalar
//! prologue, and `block = 1` runs the scalar loop throughout.
//!
//! **Every other run** — any fault window, a client timeout, or
//! [`MissMode::CacheBacked`] — takes the lane pipeline. At entry it draws
//! one `next_u64` from the server's `rng` and derives one independent
//! substream per purpose from it (`stream_rng(base, id)`):
//!
//! | id | substream | draws, in order |
//! |----|-----------|-----------------|
//! | 0 | gaps | one inter-batch gap per batch (one `next_u64` for the exponential and GP laws) |
//! | 1 | batch sizes | one `next_u64` per batch (none when `q = 0`) |
//! | 2 | service | one `next_u64` per key, at its first arrival |
//! | 3 | key identity | cache-backed only: one key per key, at its first arrival |
//! | 4 | value size | cache-backed only: one value-size draw per demand fill, in serve order |
//! | 5 | miss coin | fixed ratio with `r > 0` only: one `next_u64` per key, at its first arrival |
//! | 6 | retry | per failed attempt that earns a retry, one jitter draw (when jitter > 0); per retried attempt that reaches service, one service draw |
//!
//! Gaps, sizes, service, key identity and the coin are generated a lane
//! block at a time through the block kernels ([`GapLaw::gaps_from_bits`],
//! `GeometricBatch::fill_u64`, [`memlat_dist::simd::exp_from_bits`], the
//! alias-cell draws); each lane is consumed strictly in key order, so the
//! block size is invisible by construction and nothing is rewound. A
//! key's identity and coin are drawn once, at its first arrival, and
//! carried through its retries. Only the serial steps run per key: the
//! fault-window lookup, the Lindley step with the slowdown factor, the
//! timeout compare, the retry-queue merge (retries due at or before a
//! batch's arrival go first) and the store get/fill. Warm-up keys run
//! through the same blocks, unrecorded.

use memlat_des::fcfs::FcfsStation;
use memlat_des::metrics::{ResilienceCounters, ServerCounters};
use memlat_des::rng::stream_rng;
use memlat_dist::{GapLaw, ParamError};
use memlat_workload::retry::exponential_backoff;
use memlat_workload::{
    arrival::{ArrivalScratch, BatchArrivals},
    RetryQueue, ZipfPopularity,
};
use rand::rngs::StdRng;
use rand::Rng;
use rand::RngCore;

use crate::config::MissMode;
use crate::database::NO_KEY;
use crate::fault::{ClientPolicy, FaultCursor, ServerFaults};
use crate::miss::{build_server_miss, FixedRatioMiss, MissState, RoutedHandle, ServerMiss};

/// One key's outcome at a memcached server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyRecord {
    /// Arrival time of the key's first attempt.
    pub arrival: f64,
    /// Time the key resolved: service finished for a served key, the
    /// final failure was detected for a forced miss.
    pub completion: f64,
    /// Processing latency at the server (`s_i` in the paper): resolution
    /// time minus first arrival, so retries and backoff delays count.
    pub server_latency: f64,
    /// Whether the key missed the cache.
    pub missed: bool,
    /// The key identity a cache-backed server drew at the key's first
    /// arrival, or [`NO_KEY`] when none exists (fixed-ratio coin flips,
    /// forced misses). Feeds the coalescing miss relay.
    pub key: u64,
    /// Whether the key exhausted every attempt (timeouts/refusals) and
    /// fell through to the database — a forced miss. Zero on healthy runs.
    pub forced: bool,
    /// Attempts issued for this key (1 on healthy runs).
    pub attempts: u32,
    /// Whether the served attempt arrived inside a slowdown window.
    pub degraded: bool,
}

/// The streaming aggregates of one server's run (the per-key records
/// went to the sink).
#[derive(Debug, Clone, Copy)]
pub struct ServerRunStats {
    /// Observed utilization (busy time ÷ horizon, including warm-up).
    pub utilization: f64,
    /// Observed miss ratio over the recorded keys.
    pub miss_ratio: f64,
    /// Observed key arrival rate (recorded keys ÷ measured duration).
    pub key_rate: f64,
    /// Activity counters: busy time and queue high-water mark over the
    /// full horizon (warm-up included), jobs/misses over the measured
    /// window.
    pub counters: ServerCounters,
    /// Fault and client-resilience counters (all zero on healthy runs).
    pub resilience: ResilienceCounters,
    /// Items resident in the backing store at the end of the run (0
    /// under [`MissMode::FixedRatio`]).
    pub cached_items: u64,
}

/// Parameters for one server's run.
pub struct ServerSimParams<'a> {
    /// Inter-batch gap law (one of the closed preset shapes, so the
    /// per-batch draw is a static match — see [`GapLaw`]).
    pub interarrival: GapLaw,
    /// Concurrency probability `q`.
    pub concurrency: f64,
    /// Per-key service rate `μ_S`.
    pub service_rate: f64,
    /// Model miss ratio `r` (used by [`MissMode::FixedRatio`]).
    pub miss_ratio: f64,
    /// Miss decision mode.
    pub miss_mode: &'a MissMode,
    /// Pre-built Zipf popularity for [`MissMode::CacheBacked`] runs.
    /// `None` builds the alias table from the mode's config; cluster
    /// sweeps pass a shared handle so the O(keyspace) build happens once
    /// per `(keyspace, skew)` instead of once per server per sweep point.
    pub popularity: Option<std::sync::Arc<ZipfPopularity>>,
    /// This server's slice of the cluster's consistent-hash routing
    /// table. Required when the cache config asks for
    /// [`crate::CacheRouting::ConsistentHash`] — the ring spans servers,
    /// so only the cluster layer can build it. `None` otherwise.
    pub routed: Option<RoutedHandle>,
    /// Warm-up seconds (records discarded).
    pub warmup: f64,
    /// Measured seconds after warm-up.
    pub duration: f64,
    /// This server's compiled fault timeline (empty = healthy).
    pub faults: ServerFaults,
    /// Client resilience policy (passive by default).
    pub client: ClientPolicy,
    /// Sampling block size (≥ 1). On plain runs (no faults, no timeout,
    /// fixed-ratio misses) a value above 1 takes the speculative block
    /// path and `1` the scalar loop; every other run stages this many
    /// keys per lane block (at most 16 Ki). The choice is invisible in
    /// the output either way.
    pub block: usize,
}

/// The most keys the lane pipeline stages per block, whatever
/// [`ServerSimParams::block`] asks for: lanes past this size buy nothing
/// and would only grow the scratch.
const MAX_LANE_KEYS: usize = 1 << 14;

/// A resolved block of keys, structure-of-arrays: lane `i` of every
/// slice describes the same key, in arrival order. Blocks are only
/// produced on plain runs, so every key is first-attempt, never forced,
/// never degraded and carries no key identity.
#[derive(Debug)]
pub struct KeyBlock<'a> {
    /// Arrival times.
    pub arrival: &'a [f64],
    /// Departure (service completion) times.
    pub completion: &'a [f64],
    /// Server latencies (`completion - arrival`).
    pub latency: &'a [f64],
    /// Cache-miss flags.
    pub missed: &'a [bool],
}

impl KeyBlock<'_> {
    /// Number of keys in the block.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arrival.len()
    }

    /// Whether the block is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arrival.is_empty()
    }
}

/// Where resolved keys go: a lane block at a time on the plain block
/// path, one at a time everywhere else (forced, degraded and keyed
/// records always arrive through [`RecordSink::record`]).
///
/// The default [`RecordSink::record_block`] just replays the block
/// through [`RecordSink::record`], reconstructing the exact
/// [`KeyRecord`] the scalar loop would have emitted — sinks override it
/// only to exploit the slice shape (bulk Welford/sketch pushes, column
/// appends).
pub trait RecordSink {
    /// Consumes one resolved key.
    fn record(&mut self, rec: &KeyRecord);

    /// Consumes a resolved block of keys (healthy, first-attempt keys
    /// only — see [`KeyBlock`]).
    fn record_block(&mut self, block: &KeyBlock<'_>) {
        for i in 0..block.len() {
            self.record(&KeyRecord {
                arrival: block.arrival[i],
                completion: block.completion[i],
                server_latency: block.latency[i],
                missed: block.missed[i],
                // Blocks exist only on the fixed-ratio path, which
                // carries no key identity.
                key: NO_KEY,
                forced: false,
                attempts: 1,
                degraded: false,
            });
        }
    }
}

impl<T: RecordSink + ?Sized> RecordSink for &mut T {
    fn record(&mut self, rec: &KeyRecord) {
        (**self).record(rec);
    }

    fn record_block(&mut self, block: &KeyBlock<'_>) {
        (**self).record_block(block);
    }
}

/// Reusable structure-of-arrays lanes for both block pipelines. Holding
/// one per worker thread (e.g. in [`crate::SimScratch`]) means a sweep
/// allocates the lanes once and reuses them at every point.
#[derive(Debug, Default)]
pub struct BlockScratch {
    /// Arrival time of each staged key (plain block path).
    arrival: Vec<f64>,
    /// Batch lanes: banked gap bits, transformed gaps, and the kept
    /// batches' times/sizes.
    arrival_lanes: ArrivalScratch,
    /// Raw service-draw bits.
    svc_bits: Vec<u64>,
    /// Raw miss-coin bits (plain path) or key-identity bits (lane
    /// pipeline).
    miss_bits: Vec<u64>,
    /// Transformed service times.
    service: Vec<f64>,
    /// Departure times from the Lindley scan.
    depart: Vec<f64>,
    /// Server latencies (`depart - arrival`).
    latency: Vec<f64>,
    /// Miss decisions (plain path) or miss coins (lane pipeline).
    missed: Vec<bool>,
    /// Key identities (cache-backed lane pipeline).
    keys: Vec<u64>,
}

impl BlockScratch {
    /// Creates empty lanes.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the staging lanes, keeping their allocations.
    fn clear(&mut self) {
        self.arrival.clear();
        self.svc_bits.clear();
        self.miss_bits.clear();
    }
}

/// The station and counters a run accumulates.
struct Tally {
    station: FcfsStation,
    recorded: u64,
    misses: u64,
    resilience: ResilienceCounters,
}

impl Tally {
    fn new() -> Self {
        Self {
            station: FcfsStation::new(),
            recorded: 0,
            misses: 0,
            resilience: ResilienceCounters::default(),
        }
    }
}

/// Simulates one memcached server, streaming each resolved key into
/// `sink`: batch arrivals → FCFS exp(μ_S) service → miss decision per
/// key, with scheduled faults and client retries merged into the
/// arrival stream in global time order. Block lanes are staged in the
/// caller's reusable [`BlockScratch`]; the module docs describe the two
/// pipelines and their draw orders.
///
/// Records reach the sink in resolution-processing order (arrival
/// order on healthy runs). The loop allocates no per-key memory.
///
/// # Errors
///
/// Returns [`ParamError`] when the miss mode's parameters are invalid.
pub fn simulate_server_streaming_with<S, R>(
    p: ServerSimParams<'_>,
    rng: &mut R,
    scratch: &mut BlockScratch,
    sink: S,
) -> Result<ServerRunStats, ParamError>
where
    S: RecordSink,
    R: RngCore + Clone,
{
    let mut arrivals = BatchArrivals::new(p.interarrival.clone(), p.concurrency)?;
    let mut miss = build_server_miss(
        p.miss_mode,
        p.miss_ratio,
        p.popularity.as_ref(),
        p.routed.as_ref(),
    )?;
    let horizon = p.warmup + p.duration;
    let plain = p.faults.is_empty() && p.client.timeout.is_none();
    let st = match &mut miss {
        ServerMiss::Fixed(fixed) if plain => {
            run_plain(&p, &mut arrivals, fixed, rng, scratch, sink)
        }
        _ => run_lanes(&p, &mut arrivals, &mut miss, rng.next_u64(), scratch, sink),
    };

    let recorded = st.recorded as f64;
    let state = miss.state();
    let miss_ratio = state.observed_miss_ratio().unwrap_or(if recorded > 0.0 {
        st.misses as f64 / recorded
    } else {
        0.0
    });
    // Tiny bias: utilization uses the full horizon (warm-up included).
    let utilization = st.station.utilization(horizon).min(1.0);
    let counters = ServerCounters {
        busy_time: st.station.busy_time(),
        queue_max: st.station.queue_max(),
        jobs: st.recorded,
        misses: st.misses,
    };
    let mut resilience = st.resilience;
    resilience.downtime = p.faults.downtime(horizon);
    resilience.degraded_time = p.faults.degraded_time(horizon);
    Ok(ServerRunStats {
        utilization,
        miss_ratio,
        key_rate: recorded / p.duration,
        counters,
        resilience,
        cached_items: state.cached_items(),
    })
}

/// One plain key arriving at `t`: an exp(μ) service draw, then — for
/// measured keys only — the fixed-ratio miss decision, both from the
/// server's own stream in the historical order.
#[inline]
fn serve_plain<S: RecordSink, R: RngCore>(
    t: f64,
    measured: bool,
    st: &mut Tally,
    sink: &mut S,
    fixed: &mut FixedRatioMiss,
    service_rate: f64,
    rng: &mut R,
) {
    let done = st.station.submit(t, exp_sample(service_rate, rng));
    if measured {
        let (missed, key) = fixed.decide(done.departure, rng);
        st.misses += u64::from(missed);
        st.recorded += 1;
        sink.record(&KeyRecord {
            arrival: t,
            completion: done.departure,
            server_latency: done.departure - t,
            missed,
            key,
            forced: false,
            attempts: 1,
            degraded: false,
        });
    }
}

/// The plain pipeline: the speculative block path above `block = 1`, the
/// scalar loop at `block = 1` (see the module docs).
fn run_plain<S: RecordSink, R: RngCore + Clone>(
    p: &ServerSimParams<'_>,
    arrivals: &mut BatchArrivals<GapLaw>,
    fixed: &mut FixedRatioMiss,
    rng: &mut R,
    scratch: &mut BlockScratch,
    mut sink: S,
) -> Tally {
    let mut st = Tally::new();
    let horizon = p.warmup + p.duration;
    if p.block <= 1 {
        loop {
            let (t, batch) = arrivals.next_batch_with(rng);
            if t >= horizon {
                break;
            }
            let measured = t >= p.warmup;
            for _ in 0..batch {
                serve_plain(t, measured, &mut st, &mut sink, fixed, p.service_rate, rng);
            }
        }
        return st;
    }
    let fixed_r = fixed.fixed_ratio().unwrap_or_default();
    let draw_miss = fixed_r > 0.0;
    let mut pending: Option<(f64, u64)> = None;
    let mut done = false;
    // Warm-up keys stay on the scalar path (service draws only, no
    // records), so blocks never straddle the measurement boundary and
    // every staged key is measured.
    loop {
        let (t, batch) = arrivals.next_batch_with(rng);
        if t >= horizon {
            done = true;
            break;
        }
        if t >= p.warmup {
            pending = Some((t, batch));
            break;
        }
        for _ in 0..batch {
            serve_plain(t, false, &mut st, &mut sink, fixed, p.service_rate, rng);
        }
    }
    // Gap laws with a block bits-kernel (exponential, GP — every law the
    // paper's sweeps use) take the speculative arrival pipeline; the
    // data-dependent laws stay on the scalar batch driver.
    let speculative = arrivals.speculative_supported();
    let key_draws = 1 + usize::from(draw_miss);
    while !done {
        scratch.clear();
        // Stage ≥ block keys (a batch is never split), banking the raw
        // bits of each key's draws in exactly the scalar order: service
        // uniform, then — when r > 0 — the miss uniform. The warm-up
        // loop's first post-warmup batch seeds the first block; the rest
        // stream through the speculative block pipeline (or, for
        // multi-draw gap laws, through `drive_batches_with`, which hoists
        // the gap-law dispatch out of the per-batch loop).
        if let Some((t, batch)) = pending.take() {
            for _ in 0..batch {
                scratch.arrival.push(t);
                scratch.svc_bits.push(rng.next_u64());
                if draw_miss {
                    scratch.miss_bits.push(rng.next_u64());
                }
            }
        }
        if scratch.arrival.len() < p.block {
            if speculative {
                // Bank raw gap bits and key bits in scalar draw order,
                // transform the gap lane through the SIMD kernels, and
                // prefix-sum the arrival times off the carried clock. The
                // horizon trim inside rewinds the RNG to exactly the
                // scalar stream position.
                let BlockScratch {
                    arrival,
                    arrival_lanes,
                    svc_bits,
                    miss_bits,
                    ..
                } = &mut *scratch;
                done = arrivals.fill_block_speculative(
                    rng,
                    horizon,
                    p.block - arrival.len(),
                    key_draws,
                    arrival_lanes,
                    |batch, rng| {
                        for _ in 0..batch {
                            svc_bits.push(rng.next_u64());
                            if draw_miss {
                                miss_bits.push(rng.next_u64());
                            }
                        }
                    },
                );
                // Expand kept batches into the per-key arrival lane, then
                // drop the over-generated tail of the key lanes.
                for (&t, &b) in arrival_lanes.times().iter().zip(arrival_lanes.sizes()) {
                    arrival.extend(std::iter::repeat_n(t, b as usize));
                }
                if done {
                    svc_bits.truncate(arrival.len());
                    if draw_miss {
                        miss_bits.truncate(arrival.len());
                    }
                }
            } else {
                arrivals.drive_batches_with(rng, |t, batch, rng| {
                    if t >= horizon {
                        done = true;
                        return false;
                    }
                    scratch
                        .arrival
                        .extend(std::iter::repeat_n(t, batch as usize));
                    for _ in 0..batch {
                        scratch.svc_bits.push(rng.next_u64());
                        if draw_miss {
                            scratch.miss_bits.push(rng.next_u64());
                        }
                    }
                    scratch.arrival.len() < p.block
                });
            }
        }
        let n = scratch.arrival.len();
        if n == 0 {
            break;
        }
        // Deferred pure transforms, one contiguous lane at a time. The
        // service lane runs through the SIMD-dispatched kernel, which is
        // bit-identical to the scalar `-dln(u)/μ` of `serve_plain`.
        scratch.service.clear();
        memlat_dist::simd::exp_from_bits(&scratch.svc_bits, p.service_rate, &mut scratch.service);
        scratch.depart.clear();
        scratch.depart.resize(n, 0.0);
        st.station
            .submit_block(&scratch.arrival, &scratch.service, &mut scratch.depart);
        scratch.latency.clear();
        scratch.latency.extend(
            scratch
                .arrival
                .iter()
                .zip(&scratch.depart)
                .map(|(&a, &d)| d - a),
        );
        scratch.missed.clear();
        if draw_miss {
            scratch.missed.extend(
                scratch
                    .miss_bits
                    .iter()
                    .map(|&b| memlat_dist::open_unit_from_bits(b) < fixed_r),
            );
        } else {
            scratch.missed.resize(n, false);
        }
        st.recorded += n as u64;
        st.misses += scratch.missed.iter().map(|&m| u64::from(m)).sum::<u64>();
        sink.record_block(&KeyBlock {
            arrival: &scratch.arrival,
            completion: &scratch.depart,
            latency: &scratch.latency,
            missed: &scratch.missed,
        });
    }
    st
}

/// Lane-pipeline substream ids (see the module docs).
const STREAM_GAPS: u64 = 0;
const STREAM_BATCH: u64 = 1;
const STREAM_SERVICE: u64 = 2;
const STREAM_KEY: u64 = 3;
const STREAM_VALUE: u64 = 4;
const STREAM_COIN: u64 = 5;
const STREAM_RETRY: u64 = 6;

/// One key mid-flight through its attempts.
#[derive(Clone, Copy)]
struct PendingKey {
    /// Arrival time of the first attempt.
    first_arrival: f64,
    /// Attempts already issued (and failed).
    attempts: u32,
    /// Whether the key counts toward statistics (first arrival past
    /// warm-up).
    measured: bool,
    /// The key identity drawn at the first arrival ([`NO_KEY`] under a
    /// fixed ratio).
    key: u64,
    /// The fixed-ratio miss coin drawn at the first arrival.
    coin: bool,
}

/// The serial half of the lane pipeline: everything one attempt touches.
struct LaneRun<'a, S> {
    st: Tally,
    sink: S,
    miss: &'a mut ServerMiss,
    faults: FaultCursor,
    client: ClientPolicy,
    service_rate: f64,
    retry_q: RetryQueue<PendingKey>,
    retry_rng: StdRng,
    value_rng: StdRng,
}

impl<S: RecordSink> LaneRun<'_, S> {
    /// One attempt of `key` arriving at `t`. `service` is the key's
    /// unscaled first-attempt service time from the service lane; a
    /// retried attempt (`None`) draws its own from the retry substream.
    #[inline]
    fn attempt(&mut self, t: f64, key: PendingKey, service: Option<f64>) {
        let fault = self.faults.at(t);
        // A crashed server refuses the connection at the arrival instant:
        // no service is drawn, failure is detected immediately.
        if fault.crashed {
            if key.measured {
                self.st.resilience.refused += 1;
            }
            self.fail(t, key);
            return;
        }
        let base = service.unwrap_or_else(|| exp_sample(self.service_rate, &mut self.retry_rng));
        let done = self
            .st
            .station
            .submit(t, fault.slow.map_or(base, |f| base * f));
        if let Some(timeout) = self.client.timeout {
            if done.sojourn() > timeout {
                // The client abandons at t + timeout; the server still
                // wastes the full service time on the dead request.
                if key.measured {
                    self.st.resilience.timeouts += 1;
                }
                self.fail(t + timeout, key);
                return;
            }
        }
        let missed = match &mut *self.miss {
            ServerMiss::Fixed(_) => key.coin,
            // Warm-up keys fill the store too: that is what warms it.
            ServerMiss::Lru(lru) => lru.lookup_fill(key.key, done.departure, &mut self.value_rng),
        };
        if key.measured {
            self.st.misses += u64::from(missed);
            self.st.recorded += 1;
            self.sink.record(&KeyRecord {
                arrival: key.first_arrival,
                completion: done.departure,
                server_latency: done.departure - key.first_arrival,
                missed,
                key: key.key,
                forced: false,
                attempts: key.attempts + 1,
                degraded: fault.slow.is_some(),
            });
        }
    }

    /// Handles a failed attempt detected at `detect`: schedule a backoff
    /// retry if the budget allows, else record a forced miss.
    fn fail(&mut self, detect: f64, key: PendingKey) {
        let attempts = key.attempts + 1;
        match self.client.retry {
            Some(rp) if attempts < self.client.max_attempts() => {
                let delay = exponential_backoff(
                    rp.base_backoff,
                    rp.multiplier,
                    rp.jitter,
                    attempts,
                    &mut self.retry_rng,
                );
                if key.measured {
                    self.st.resilience.retries += 1;
                }
                self.retry_q
                    .push(detect + delay, PendingKey { attempts, ..key });
            }
            _ if key.measured => {
                // Graceful degradation: the key falls through to the
                // database.
                self.st.resilience.forced_misses += 1;
                self.st.recorded += 1;
                self.sink.record(&KeyRecord {
                    arrival: key.first_arrival,
                    completion: detect,
                    server_latency: detect - key.first_arrival,
                    missed: false,
                    // The forced database trip never coalesces: the
                    // cache tier never served the key.
                    key: NO_KEY,
                    forced: true,
                    attempts,
                    degraded: false,
                });
            }
            _ => {}
        }
    }
}

/// The lane pipeline (see the module docs), its substreams derived from
/// `base`.
fn run_lanes<S: RecordSink>(
    p: &ServerSimParams<'_>,
    arrivals: &mut BatchArrivals<GapLaw>,
    miss: &mut ServerMiss,
    base: u64,
    scratch: &mut BlockScratch,
    sink: S,
) -> Tally {
    let sub = |id| stream_rng(base, id);
    let (mut gap_rng, mut size_rng) = (sub(STREAM_GAPS), sub(STREAM_BATCH));
    let (mut svc_rng, mut key_rng, mut coin_rng) =
        (sub(STREAM_SERVICE), sub(STREAM_KEY), sub(STREAM_COIN));
    let coin_ratio = match &*miss {
        ServerMiss::Fixed(f) => f.fixed_ratio().filter(|&r| r > 0.0),
        ServerMiss::Lru(_) => None,
    };
    let mut run = LaneRun {
        st: Tally::new(),
        sink,
        miss,
        faults: p.faults.cursor(),
        client: p.client,
        service_rate: p.service_rate,
        retry_q: RetryQueue::new(),
        retry_rng: sub(STREAM_RETRY),
        value_rng: sub(STREAM_VALUE),
    };
    let horizon = p.warmup + p.duration;
    // About `block` keys per lane block at the mean batch size 1/(1−q).
    let keys_per_block = p.block.clamp(1, MAX_LANE_KEYS) as f64;
    let batches = (keys_per_block * (1.0 - p.concurrency)).ceil().max(1.0) as usize;
    let BlockScratch {
        arrival_lanes,
        svc_bits,
        miss_bits,
        service,
        missed,
        keys,
        ..
    } = scratch;
    loop {
        let crossed =
            arrivals.fill_block_lanes(&mut gap_rng, &mut size_rng, horizon, batches, arrival_lanes);
        let n = arrival_lanes.keys();
        svc_bits.clear();
        svc_bits.extend((0..n).map(|_| svc_rng.next_u64()));
        service.clear();
        memlat_dist::simd::exp_from_bits(svc_bits, p.service_rate, service);
        keys.clear();
        missed.clear();
        match &*run.miss {
            ServerMiss::Lru(lru) if lru.bulk_keys() => {
                miss_bits.clear();
                miss_bits.extend((0..n).map(|_| key_rng.next_u64()));
                lru.keys_from_bits(miss_bits, keys);
            }
            // Rejection-inversion over a huge key space draws a
            // data-dependent number of uniforms per key.
            ServerMiss::Lru(lru) => keys.extend((0..n).map(|_| lru.sample_key(&mut key_rng))),
            ServerMiss::Fixed(_) => {
                if let Some(r) = coin_ratio {
                    missed.extend((0..n).map(|_| memlat_dist::open_unit(&mut coin_rng) < r));
                }
            }
        }
        let mut k = 0;
        for (&t, &b) in arrival_lanes.times().iter().zip(arrival_lanes.sizes()) {
            // Retries due up to (and at) this batch's arrival go first,
            // keeping the station's arrival stream time-ordered.
            while let Some((u, key)) = run.retry_q.pop_before(t) {
                run.attempt(u, key, None);
            }
            let measured = t >= p.warmup;
            for _ in 0..b {
                let key = PendingKey {
                    first_arrival: t,
                    attempts: 0,
                    measured,
                    key: keys.get(k).copied().unwrap_or(NO_KEY),
                    coin: missed.get(k).copied().unwrap_or(false),
                };
                run.attempt(t, key, Some(service[k]));
                k += 1;
            }
        }
        if crossed {
            break;
        }
    }
    // Fresh traffic stopped at the horizon; drain in-flight retries so
    // every issued key resolves (served or forced) — conservation.
    while let Some((u, key)) = run.retry_q.pop() {
        run.attempt(u, key, None);
    }
    run.st
}

/// Draws an exponential service sample: `-dln(u) / rate`.
pub fn exp_sample(rate: f64, rng: &mut impl Rng) -> f64 {
    -memlat_dist::simd::dln(memlat_dist::open_unit(rng)) / rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, RetryPolicy};
    use memlat_dist::GeneralizedPareto;
    use memlat_workload::facebook;
    use rand::SeedableRng;

    fn healthy_params(duration: f64) -> ServerSimParams<'static> {
        ServerSimParams {
            interarrival: GapLaw::from(facebook::interarrival().unwrap()),
            concurrency: facebook::CONCURRENCY_Q,
            service_rate: facebook::SERVICE_RATE,
            miss_ratio: facebook::MISS_RATIO,
            miss_mode: &MissMode::FixedRatio,
            popularity: None,
            routed: None,
            warmup: 0.2,
            duration,
            faults: ServerFaults::none(),
            client: ClientPolicy::none(),
            block: 1,
        }
    }

    /// Collects every resolved key into a `Vec`: the buffered view the
    /// tests inspect record by record.
    struct Collect(Vec<KeyRecord>);

    impl RecordSink for Collect {
        fn record(&mut self, rec: &KeyRecord) {
            self.0.push(*rec);
        }
    }

    /// Runs one server and returns its records beside its aggregates.
    fn run_collect(
        p: ServerSimParams<'_>,
        rng: &mut rand::rngs::StdRng,
    ) -> (Vec<KeyRecord>, ServerRunStats) {
        let mut sink = Collect(Vec::new());
        let stats =
            simulate_server_streaming_with(p, rng, &mut BlockScratch::new(), &mut sink).unwrap();
        (sink.0, stats)
    }

    fn facebook_run(duration: f64, seed: u64) -> (Vec<KeyRecord>, ServerRunStats) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        run_collect(healthy_params(duration), &mut rng)
    }

    #[test]
    fn rates_and_utilization_match_configuration() {
        let (records, run) = facebook_run(2.0, 1);
        assert!(
            (run.key_rate / facebook::KEY_RATE - 1.0).abs() < 0.05,
            "{}",
            run.key_rate
        );
        assert!((run.utilization - 0.78).abs() < 0.05, "{}", run.utilization);
        assert!((run.miss_ratio - 0.01).abs() < 0.005, "{}", run.miss_ratio);
        // Counters agree with the record-level view.
        assert_eq!(run.counters.jobs, records.len() as u64);
        assert_eq!(
            run.counters.misses,
            records.iter().filter(|r| r.missed).count() as u64
        );
        assert!(run.counters.queue_max >= 1);
        assert!(run.counters.busy_time > 0.0);
        // A healthy run observes no resilience activity at all.
        assert!(!run.resilience.any());
        assert!(records.iter().all(|r| r.attempts == 1 && !r.forced));
    }

    #[test]
    fn block_path_is_bit_identical_to_scalar() {
        use rand::RngCore;
        let mut scalar_rng = rand::rngs::StdRng::seed_from_u64(77);
        let (scalar_records, scalar) = run_collect(healthy_params(0.5), &mut scalar_rng);
        let scalar_next = scalar_rng.next_u64();
        // Power-of-two, odd, and larger-than-run block sizes all agree.
        for block in [2usize, 37, 1024, 1 << 22] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(77);
            let mut p = healthy_params(0.5);
            p.block = block;
            let (blocked_records, blocked) = run_collect(p, &mut rng);
            assert_eq!(scalar_records, blocked_records, "block={block}");
            assert_eq!(scalar.counters, blocked.counters, "block={block}");
            assert_eq!(scalar.utilization.to_bits(), blocked.utilization.to_bits());
            assert_eq!(scalar.miss_ratio.to_bits(), blocked.miss_ratio.to_bits());
            assert_eq!(scalar.key_rate.to_bits(), blocked.key_rate.to_bits());
            // Same RNG stream position afterwards: the block loop drew
            // exactly the scalar draws, nothing more.
            assert_eq!(scalar_next, rng.next_u64(), "block={block}");
        }
    }

    #[test]
    fn block_path_zero_miss_ratio_skips_miss_draws() {
        use rand::RngCore;
        let params = |block: usize| ServerSimParams {
            interarrival: GapLaw::from(facebook::interarrival().unwrap()),
            concurrency: 0.1,
            service_rate: facebook::SERVICE_RATE,
            miss_ratio: 0.0,
            miss_mode: &MissMode::FixedRatio,
            popularity: None,
            routed: None,
            warmup: 0.0,
            duration: 0.3,
            faults: ServerFaults::none(),
            client: ClientPolicy::none(),
            block,
        };
        let mut scalar_rng = rand::rngs::StdRng::seed_from_u64(78);
        let (scalar, _) = run_collect(params(1), &mut scalar_rng);
        let mut rng = rand::rngs::StdRng::seed_from_u64(78);
        let (blocked, _) = run_collect(params(512), &mut rng);
        assert_eq!(scalar, blocked);
        assert!(blocked.iter().all(|r| !r.missed));
        assert_eq!(scalar_rng.next_u64(), rng.next_u64());
    }

    #[test]
    fn block_sink_receives_whole_blocks() {
        // A sink that counts record_block calls proves the fast path is
        // actually taken (and that lanes agree with each other).
        struct Counting {
            records: Vec<KeyRecord>,
            blocks: usize,
        }
        impl RecordSink for Counting {
            fn record(&mut self, rec: &KeyRecord) {
                self.records.push(*rec);
            }
            fn record_block(&mut self, block: &KeyBlock<'_>) {
                assert!(!block.is_empty());
                assert_eq!(block.arrival.len(), block.completion.len());
                assert_eq!(block.arrival.len(), block.latency.len());
                assert_eq!(block.arrival.len(), block.missed.len());
                self.blocks += 1;
                for i in 0..block.len() {
                    assert!(block.completion[i] >= block.arrival[i]);
                    let lat = block.completion[i] - block.arrival[i];
                    assert_eq!(lat.to_bits(), block.latency[i].to_bits());
                }
                // Replay through the default path to keep `records`.
                struct Push<'a>(&'a mut Vec<KeyRecord>);
                impl RecordSink for Push<'_> {
                    fn record(&mut self, rec: &KeyRecord) {
                        self.0.push(*rec);
                    }
                }
                Push(&mut self.records).record_block(block);
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(79);
        let mut p = healthy_params(0.5);
        p.block = 256;
        let mut sink = Counting {
            records: Vec::new(),
            blocks: 0,
        };
        let stats =
            simulate_server_streaming_with(p, &mut rng, &mut BlockScratch::new(), &mut sink)
                .unwrap();
        assert!(sink.blocks > 10, "{} blocks", sink.blocks);
        assert_eq!(sink.records.len() as u64, stats.counters.jobs);
        let (baseline, _) = facebook_run(0.5, 79);
        assert_eq!(sink.records, baseline);
    }

    #[test]
    fn latency_quantiles_inside_eq9_band() {
        // The per-key latency quantiles must fall between the model's
        // T_Q and T_C bounds (paper eq. 9 / Fig. 4).
        let (records, _) = facebook_run(4.0, 2);
        let gaps = GeneralizedPareto::facebook(0.15, 56_250.0).unwrap();
        let queue = memlat_queue::GixM1::new(&gaps, 0.1, 80_000.0).unwrap();
        let mut lats: Vec<f64> = records.iter().map(|r| r.server_latency).collect();
        lats.sort_by(f64::total_cmp);
        let ecdf = memlat_stats::Ecdf::from_sorted(lats);
        for k in [0.3, 0.6, 0.9] {
            let (lo, hi) = queue.key_latency_quantile_bounds(k);
            let measured = ecdf.quantile(k);
            // 12% slack for finite-run noise.
            assert!(
                measured > lo * 0.88 && measured < hi * 1.12,
                "k={k}: measured={measured} band=({lo}, {hi})"
            );
        }
    }

    #[test]
    fn records_are_causally_consistent() {
        let (records, _) = facebook_run(0.5, 3);
        for r in &records {
            assert!(r.completion >= r.arrival);
            assert!((r.server_latency - (r.completion - r.arrival)).abs() < 1e-12);
        }
        // Completions at one FCFS server are non-decreasing.
        assert!(records
            .windows(2)
            .all(|w| w[1].completion >= w[0].completion));
    }

    #[test]
    fn zero_miss_ratio_yields_no_misses() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let (records, run) = run_collect(
            ServerSimParams {
                interarrival: GapLaw::from(facebook::interarrival().unwrap()),
                concurrency: 0.1,
                service_rate: facebook::SERVICE_RATE,
                miss_ratio: 0.0,
                miss_mode: &MissMode::FixedRatio,
                popularity: None,
                routed: None,
                warmup: 0.0,
                duration: 0.3,
                faults: ServerFaults::none(),
                client: ClientPolicy::none(),
                block: 1,
            },
            &mut rng,
        );
        assert!(records.iter().all(|r| !r.missed));
        assert_eq!(run.miss_ratio, 0.0);
    }

    #[test]
    fn cache_backed_mode_produces_emergent_misses() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mode = MissMode::CacheBacked(crate::config::CacheBackedConfig {
            memory_bytes: 8 << 20,
            keyspace: 200_000,
            skew: 1.01,
            mean_value_bytes: 300.0,
            routing: crate::config::CacheRouting::Independent,
        });
        let (records, run) = run_collect(
            ServerSimParams {
                interarrival: GapLaw::from(facebook::interarrival().unwrap()),
                concurrency: 0.1,
                service_rate: facebook::SERVICE_RATE,
                miss_ratio: 0.0, // ignored in cache-backed mode
                miss_mode: &mode,
                popularity: None,
                routed: None,
                warmup: 0.5,
                duration: 0.5,
                faults: ServerFaults::none(),
                client: ClientPolicy::none(),
                block: 1,
            },
            &mut rng,
        );
        // Some misses, but far fewer than hits: a working cache.
        assert!(
            run.miss_ratio > 0.0 && run.miss_ratio < 0.5,
            "{}",
            run.miss_ratio
        );
        assert!(records.iter().any(|r| r.missed));
        assert!(records.iter().any(|r| !r.missed));
    }

    #[test]
    fn crash_without_retries_forces_misses() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut p = healthy_params(0.5);
        p.faults = FaultPlan::none().crash(0, 0.3, 0.5).for_server(0);
        let (records, run) = run_collect(p, &mut rng);
        assert!(run.resilience.refused > 0);
        assert_eq!(run.resilience.refused, run.resilience.forced_misses);
        assert_eq!(run.resilience.retries, 0);
        assert!((run.resilience.downtime - 0.2).abs() < 1e-12);
        // Refused keys resolve instantly at zero latency, served keys
        // keep positive latency.
        for r in &records {
            if r.forced {
                assert_eq!(r.server_latency, 0.0);
                assert!(!r.missed);
            } else {
                assert!(r.server_latency > 0.0);
            }
        }
    }

    #[test]
    fn retries_recover_keys_after_crash_window() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut p = healthy_params(0.5);
        // A short mid-window crash; generous retry budget with backoff
        // long enough to hop over the window.
        p.faults = FaultPlan::none().crash(0, 0.3, 0.32).for_server(0);
        p.client = ClientPolicy::none().retry(RetryPolicy {
            max_retries: 5,
            base_backoff: 10e-3,
            multiplier: 2.0,
            jitter: 0.1,
        });
        let (records, run) = run_collect(p, &mut rng);
        assert!(run.resilience.refused > 0);
        assert!(run.resilience.retries > 0);
        // The retry budget (5 × backoff ≥ 10 ms vs a 20 ms outage)
        // recovers every refused key.
        assert_eq!(run.resilience.forced_misses, 0);
        let recovered: Vec<_> = records.iter().filter(|r| r.attempts > 1).collect();
        assert!(!recovered.is_empty());
        for r in &recovered {
            assert!(r.attempts <= 6);
            // Recovered keys completed after the outage ended.
            assert!(r.completion > 0.32);
        }
    }

    /// A cache-backed server with a crash, a slowdown, a timeout and
    /// retries: every branch of the lane pipeline.
    fn faulted_cache_params(mode: &MissMode, block: usize) -> ServerSimParams<'_> {
        ServerSimParams {
            miss_mode: mode,
            faults: FaultPlan::none()
                .crash(0, 0.3, 0.33)
                .slowdown(0, 0.4, 0.5, 3.0)
                .for_server(0),
            client: ClientPolicy::none()
                .timeout(2e-3)
                .retry(RetryPolicy::default()),
            block,
            ..healthy_params(0.4)
        }
    }

    fn cache_mode() -> MissMode {
        MissMode::CacheBacked(crate::config::CacheBackedConfig {
            memory_bytes: 2 << 20,
            keyspace: 100_000,
            skew: 1.01,
            mean_value_bytes: 300.0,
            routing: crate::config::CacheRouting::Independent,
        })
    }

    /// A window that scales service by 1.0: the lane pipeline with every
    /// draw of a healthy run, so it is the reference a faulted run is
    /// compared against draw for draw.
    fn unit_window() -> ServerFaults {
        FaultPlan::none().slowdown(0, 0.0, 0.05, 1.0).for_server(0)
    }

    #[test]
    fn lane_pipeline_is_block_size_invariant() {
        use rand::RngCore;
        let mode = cache_mode();
        let mut ref_rng = rand::rngs::StdRng::seed_from_u64(80);
        let (want, want_stats) = run_collect(faulted_cache_params(&mode, 1), &mut ref_rng);
        assert!(want_stats.resilience.refused > 0 && want_stats.resilience.timeouts > 0);
        assert!(want_stats.resilience.retries > 0);
        assert!(want.iter().any(|r| r.missed) && want.iter().any(|r| r.degraded));
        let want_next = ref_rng.next_u64();
        for block in [37usize, 1024, 1 << 22] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(80);
            let (got, stats) = run_collect(faulted_cache_params(&mode, block), &mut rng);
            assert_eq!(got, want, "block={block}");
            assert_eq!(stats.counters, want_stats.counters, "block={block}");
            assert_eq!(stats.resilience, want_stats.resilience, "block={block}");
            assert_eq!(stats.miss_ratio.to_bits(), want_stats.miss_ratio.to_bits());
            assert_eq!(stats.cached_items, want_stats.cached_items);
            // The pipeline takes one draw from the server's stream.
            assert_eq!(rng.next_u64(), want_next, "block={block}");
        }
    }

    #[test]
    fn retried_cache_backed_key_keeps_its_identity() {
        // Same lanes with and without the outage: a key's identity is
        // drawn at its first arrival, so every retried key must carry an
        // identity the healthy run gave a key arriving at the same time.
        let mode = cache_mode();
        let mut rng = rand::rngs::StdRng::seed_from_u64(81);
        let (faulted, stats) = run_collect(faulted_cache_params(&mode, 256), &mut rng);
        let mut p = faulted_cache_params(&mode, 256);
        p.faults = unit_window();
        p.client = ClientPolicy::none();
        let mut rng = rand::rngs::StdRng::seed_from_u64(81);
        let (healthy, _) = run_collect(p, &mut rng);
        let mut by_arrival = std::collections::HashMap::<u64, Vec<u64>>::new();
        for r in &healthy {
            by_arrival
                .entry(r.arrival.to_bits())
                .or_default()
                .push(r.key);
        }
        let retried: Vec<_> = faulted
            .iter()
            .filter(|r| r.attempts > 1 && !r.forced)
            .collect();
        assert!(!retried.is_empty() && stats.resilience.retries > 0);
        for r in retried {
            assert_ne!(r.key, NO_KEY);
            let same_time = &by_arrival[&r.arrival.to_bits()];
            assert!(same_time.contains(&r.key), "key {} changed identity", r.key);
        }
    }

    #[test]
    fn unit_slowdown_matches_an_inert_timeout() {
        // Both runs take the lane pipeline with identical draws; only the
        // degraded tag tells them apart.
        let mut p = healthy_params(0.5);
        p.faults = unit_window();
        let mut rng = rand::rngs::StdRng::seed_from_u64(82);
        let (unit, _) = run_collect(p, &mut rng);
        let mut p = healthy_params(0.5);
        p.client = ClientPolicy::none().timeout(1e3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(82);
        let (inert, stats) = run_collect(p, &mut rng);
        assert!(!stats.resilience.any());
        assert_eq!(unit.len(), inert.len());
        for (u, i) in unit.iter().zip(&inert) {
            assert_eq!(
                KeyRecord {
                    degraded: false,
                    ..*u
                },
                *i
            );
        }
    }

    #[test]
    fn slowdown_scales_latency_and_tags_degraded() {
        let mut p = healthy_params(0.5);
        p.faults = unit_window();
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let (base, _) = run_collect(p, &mut rng);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut p = healthy_params(0.5);
        p.faults = FaultPlan::none().slowdown(0, 0.3, 0.5, 4.0).for_server(0);
        let (slow_records, slow) = run_collect(p, &mut rng);
        // Same seed, same draws: every key resolves, latency can only
        // grow, and keys inside the window are tagged.
        assert_eq!(slow_records.len(), base.len());
        assert!(slow_records.iter().any(|r| r.degraded));
        assert!(slow_records
            .iter()
            .zip(&base)
            .all(|(s, b)| s.server_latency >= b.server_latency));
        let mean_of = |pred: &dyn Fn(&KeyRecord) -> bool| {
            let lats: Vec<f64> = slow_records
                .iter()
                .filter(|r| pred(r))
                .map(|r| r.server_latency)
                .collect();
            lats.iter().sum::<f64>() / lats.len() as f64
        };
        let degraded_mean = mean_of(&|r| r.degraded);
        // Post-window keys inherit the residual backlog, so the clean
        // comparison is against keys that arrived *before* the window.
        let pre_window_mean = mean_of(&|r| r.arrival < 0.3);
        assert!(
            degraded_mean > pre_window_mean,
            "degraded {degraded_mean} vs pre-window {pre_window_mean}"
        );
        assert!((slow.resilience.degraded_time - 0.2).abs() < 1e-12);
        assert_eq!(slow.resilience.downtime, 0.0);
    }

    #[test]
    fn timeouts_are_detected_and_bounded() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut p = healthy_params(0.5);
        // A heavy slowdown plus a tight timeout: long sojourns abandon.
        p.faults = FaultPlan::none().slowdown(0, 0.2, 0.7, 10.0).for_server(0);
        p.client = ClientPolicy::none().timeout(2e-3);
        let (records, run) = run_collect(p, &mut rng);
        assert!(run.resilience.timeouts > 0);
        assert_eq!(run.resilience.timeouts, run.resilience.forced_misses);
        // Served keys all resolved within the timeout.
        for r in records.iter().filter(|r| !r.forced) {
            assert!(r.server_latency <= 2e-3 + 1e-12);
        }
        // Forced keys gave up exactly at the timeout.
        for r in records.iter().filter(|r| r.forced) {
            assert!((r.server_latency - 2e-3).abs() < 1e-12);
        }
    }

    #[test]
    fn conservation_under_faults_and_retries() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let mut p = healthy_params(0.5);
        p.faults = FaultPlan::none()
            .crash(0, 0.25, 0.35)
            .slowdown(0, 0.4, 0.6, 5.0)
            .for_server(0);
        p.client = ClientPolicy::none()
            .timeout(1e-3)
            .retry(RetryPolicy::default());
        let max = p.client.max_attempts();
        let (records, run) = run_collect(p, &mut rng);
        let forced = records.iter().filter(|r| r.forced).count() as u64;
        let missed = records.iter().filter(|r| r.missed).count() as u64;
        let hits = records.iter().filter(|r| !r.missed && !r.forced).count() as u64;
        assert_eq!(forced, run.resilience.forced_misses);
        assert_eq!(hits + missed + forced, run.counters.jobs);
        assert!(run.resilience.timeouts + run.resilience.refused > 0);
        // Attempts never exceed the policy bound.
        assert!(records.iter().all(|r| r.attempts >= 1 && r.attempts <= max));
    }
}
