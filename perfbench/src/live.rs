//! The live-server workload `server_etc`: a `memlat-server` child process
//! driven open loop over one loopback connection.
//!
//! The generator is the benchmark's own. Every request has a scheduled
//! send time drawn from the paper's GI^X process; the writer thread sends
//! every request already due in one write, and yield-spins until the
//! next one is due. Latency runs from the scheduled time, not
//! the actual send, so a stall in the generator or the server is charged
//! to every request it delays (no coordinated omission). A reader thread
//! consumes the replies in order and checks each one. The generator and
//! the server child run on one CPU (see [`pin_to_one_cpu`]).

use std::collections::HashMap;
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use memlat_cache::{Bytes, Store, StoreConfig};
use memlat_des::rng::{splitmix64, stream_rng};
use memlat_dist::{GeneralizedPareto, GeometricBatch};
use memlat_loadgen::{Connection, Response, RunningServer, ServerSource, ServerSpec};
use memlat_server::protocol::parser::{parse, Parsed};
use memlat_server::runtime::RuntimeKind;
use memlat_server::shard_of;
use memlat_workload::ZipfPopularity;

use crate::report::{median, percentile, Metric};
use crate::trace::{self_time_by_name, Span, Tracer};
use crate::{Outcome, RunArgs};

const KEYSPACE: u64 = 200_000;
const VALUE_LEN: usize = 300;
const SHARDS: usize = 2;
/// Slab memory per shard: 2 × 16 MiB holds well under the 60 MB of
/// preloaded values, so `set` evicts.
const SHARD_MEMORY: usize = 16 << 20;
const SKEW: f64 = 0.99;
const Q: f64 = 0.1;
const XI: f64 = 0.15;
/// One `set` per this many `get` keys (the ETC read:write mix).
const GETS_PER_SET: f64 = 30.0;
/// The light phase, which the bounded latency comes from: the server idles
/// between most requests, so a request's latency is its own path through
/// the server and not the queue ahead of it.
const LIGHT_RATE: f64 = 2_000.0;
/// The light phase runs in this many equal parts, at the start, after
/// `high` and after the ladder, and the parts are pooled: the bounded
/// latency then samples the whole run rather than one stretch of a shared
/// host whose speed drifts over tens of seconds.
const LIGHT_PARTS: u64 = 3;
const LOW_RATE: f64 = 20_000.0;
const HIGH_RATE: f64 = 50_000.0;
/// SLO ladder, keys per second (steps of 1.25×), climbed until a rung
/// misses the SLO.
const LADDER: &[f64] = &[
    20e3, 25e3, 31e3, 39e3, 49e3, 61e3, 76e3, 95e3, 119e3, 149e3, 186e3, 233e3,
];
/// A ladder rung's get p99 is taken per window of this many equal parts
/// of the rung, and the lowest over the windows is held to the SLO: a
/// stall of the shared host then fails no rung on its own, while a server
/// past its knee misses in every window.
const WINDOWS: usize = 16;
const SLO_P99: f64 = 1e-3;
/// A send later than this after its scheduled time counts as behind.
const BEHIND: f64 = 1e-3;
const SETUPS: usize = 5;

/// The value every write stores under key `rank`: key-specific, so a hit
/// carrying another key's bytes is caught.
pub fn value_of(rank: u64, out: &mut Vec<u8>) {
    out.clear();
    let mut h = splitmix64(rank);
    for i in 0..VALUE_LEN {
        if i % 8 == 0 {
            h = splitmix64(h);
        }
        out.push(b'a' + ((h >> ((i % 8) * 8)) as u8 % 26));
    }
}

fn key_of(rank: u64) -> String {
    format!("k{rank}")
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    Get(Vec<u64>),
    Set(u64),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    /// Scheduled send time, seconds after the phase starts.
    pub at: f64,
    pub kind: Kind,
}

/// The open-loop schedule of one phase: GP(ξ) gaps between batches at
/// `(1 − q)·rate` batches/s, geometric(q) batch sizes, Zipf keys; a batch
/// is a `set` of one key with the probability that gives one set per
/// [`GETS_PER_SET`] get keys.
pub fn schedule(rate: f64, seconds: f64, seed: u64, zipf: &ZipfPopularity) -> Vec<Req> {
    let gaps = GeneralizedPareto::facebook(XI, (1.0 - Q) * rate).expect("positive rate");
    let batch = GeometricBatch::new(Q).expect("q in [0, 1)");
    let mean_batch = 1.0 / (1.0 - Q);
    let p_set = mean_batch / (GETS_PER_SET + mean_batch);
    let mut rng = stream_rng(seed, 0x5e7);
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += gaps.sample_with(&mut rng);
        if t >= seconds {
            return out;
        }
        let b = batch.sample_with(&mut rng);
        let set = memlat_dist::open_unit(&mut rng) < p_set;
        let kind = if set {
            Kind::Set(zipf.sample_key(&mut rng))
        } else {
            Kind::Get((0..b).map(|_| zipf.sample_key(&mut rng)).collect())
        };
        out.push(Req { at: t, kind });
    }
}

fn encode(req: &Req, buf: &mut Vec<u8>, value: &mut Vec<u8>) {
    match &req.kind {
        Kind::Get(keys) => {
            buf.extend_from_slice(b"get");
            for &k in keys {
                buf.push(b' ');
                buf.extend_from_slice(key_of(k).as_bytes());
            }
            buf.extend_from_slice(b"\r\n");
        }
        Kind::Set(k) => {
            value_of(*k, value);
            buf.extend_from_slice(format!("set {} 0 0 {VALUE_LEN}\r\n", key_of(*k)).as_bytes());
            buf.extend_from_slice(value);
            buf.extend_from_slice(b"\r\n");
        }
    }
}

/// Send times against the schedule: per request, how late it went out.
#[derive(Debug, Default, Clone)]
pub struct Lag {
    /// `sent − scheduled`, seconds, one per request in schedule order.
    pub lags: Vec<f64>,
}

impl Lag {
    /// Records that requests `from..to` of `reqs` went out at `sent`.
    pub fn record(&mut self, reqs: &[Req], from: usize, to: usize, sent: f64) {
        self.lags
            .extend(reqs[from..to].iter().map(|r| (sent - r.at).max(0.0)));
    }

    pub fn p99_us(&self) -> f64 {
        percentile(&self.lags, 99.0) * 1e6
    }

    /// Share of requests sent more than [`BEHIND`] after their time.
    pub fn behind_ratio(&self) -> f64 {
        self.lags.iter().filter(|&&l| l > BEHIND).count() as f64 / self.lags.len().max(1) as f64
    }
}

/// The writer: send everything already due in one write, then yield-spin
/// until the next request is due.
///
/// It never sleeps: a sleeping generator lets its (virtual) CPU go idle,
/// and waking an idle virtual CPU waits for the host. At the light rate
/// that put the 90th percentile of send lag at 0.4–0.9 ms on a busy
/// host, against 8–13 µs spinning. The spin yields, so the server
/// threads on the same CPU run whenever they have work.
fn write_phase(
    mut stream: TcpStream,
    reqs: &[Req],
    origin: Instant,
    keep: bool,
) -> io::Result<(Lag, Vec<u8>)> {
    let mut lag = Lag::default();
    let (mut buf, mut value, mut all) = (Vec::new(), Vec::new(), Vec::new());
    let mut next = 0;
    while next < reqs.len() {
        let now = origin.elapsed().as_secs_f64();
        let due = next + reqs[next..].partition_point(|r| r.at <= now);
        if due > next {
            buf.clear();
            for r in &reqs[next..due] {
                encode(r, &mut buf, &mut value);
            }
            lag.record(reqs, next, due, origin.elapsed().as_secs_f64());
            stream.write_all(&buf)?;
            if keep {
                all.extend_from_slice(&buf);
            }
            next = due;
        } else {
            std::thread::yield_now();
        }
    }
    Ok((lag, all))
}

/// What the reader saw.
#[derive(Debug, Default)]
struct Replies {
    /// Reply time per request, seconds after phase start (∞ if failed).
    done: Vec<f64>,
    failed: u64,
    hits: u64,
    misses: u64,
    errors: Vec<String>,
}

/// Checks one reply against its request.
fn check_reply(req: &Req, resp: &Response, value: &mut Vec<u8>) -> Result<(u64, u64), String> {
    match (&req.kind, resp) {
        (Kind::Get(keys), Response::Values(vals)) => {
            let mut want = keys.iter();
            for v in vals {
                let rank = std::str::from_utf8(&v.key)
                    .ok()
                    .and_then(|k| k.strip_prefix('k'))
                    .and_then(|r| r.parse::<u64>().ok())
                    .ok_or_else(|| {
                        format!("unexpected key {:?}", String::from_utf8_lossy(&v.key))
                    })?;
                // Hits come back in request order, misses skipped.
                if !want.any(|&k| k == rank) {
                    return Err(format!("key k{rank} not requested or out of order"));
                }
                value_of(rank, value);
                if v.data != *value {
                    return Err(format!("wrong value for k{rank}"));
                }
            }
            Ok((vals.len() as u64, keys.len() as u64 - vals.len() as u64))
        }
        (Kind::Set(_), Response::Stored) => Ok((0, 0)),
        (_, other) => Err(format!("unexpected reply {other:?}")),
    }
}

fn read_phase(conn: &mut Connection, reqs: &[Req], origin: Instant) -> Replies {
    let mut out = Replies::default();
    let mut value = Vec::new();
    for req in reqs {
        match conn.read_response() {
            Ok(resp) => match check_reply(req, &resp, &mut value) {
                Ok((h, m)) => {
                    out.hits += h;
                    out.misses += m;
                    out.done.push(origin.elapsed().as_secs_f64());
                }
                Err(e) => {
                    out.failed += 1;
                    out.errors.push(e);
                    out.done.push(f64::INFINITY);
                }
            },
            Err(e) => {
                // The connection is gone: every unanswered request failed.
                out.errors.push(format!("read: {e}"));
                let left = reqs.len() - out.done.len();
                out.failed += left as u64;
                out.done.extend(std::iter::repeat_n(f64::INFINITY, left));
                break;
            }
        }
    }
    out
}

/// One measured phase.
#[derive(Debug, Default)]
struct Phase {
    get_lat: Vec<f64>,
    set_lat: Vec<f64>,
    rtt: Vec<f64>,
    lag: Lag,
    sent_bytes: Vec<u8>,
    failed: u64,
    hits: u64,
    misses: u64,
    errors: Vec<String>,
    attempted: u64,
    wall: f64,
    keys: u64,
}

impl Phase {
    /// Pools `other`, a later part of the same phase, into this one.
    fn absorb(&mut self, other: Phase) {
        self.get_lat.extend(other.get_lat);
        self.set_lat.extend(other.set_lat);
        self.rtt.extend(other.rtt);
        self.lag.lags.extend(other.lag.lags);
        self.sent_bytes.extend(other.sent_bytes);
        self.failed += other.failed;
        self.hits += other.hits;
        self.misses += other.misses;
        self.errors.extend(other.errors);
        self.attempted += other.attempted;
        self.wall += other.wall;
        self.keys += other.keys;
    }
}

fn run_phase(addr: SocketAddr, reqs: &[Req], keep_bytes: bool) -> io::Result<Phase> {
    let mut conn = Connection::connect(addr)?;
    let stream = conn.try_clone_stream()?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    // Start a little ahead so both threads are up before the first send.
    let origin = Instant::now() + Duration::from_millis(5);
    let (written, replies) = std::thread::scope(|s| {
        let w = s.spawn(|| write_phase(stream, reqs, origin, keep_bytes));
        let r = s.spawn(|| read_phase(&mut conn, reqs, origin));
        (
            w.join().expect("writer thread"),
            r.join().expect("reader thread"),
        )
    });
    let wall = origin.elapsed().as_secs_f64();
    let (lag, sent_bytes) = written?;
    let mut p = Phase {
        failed: replies.failed,
        hits: replies.hits,
        misses: replies.misses,
        errors: replies.errors,
        attempted: reqs.len() as u64,
        wall,
        ..Phase::default()
    };
    for ((req, &done), &l) in reqs.iter().zip(&replies.done).zip(&lag.lags) {
        let latency = done - req.at;
        p.rtt.push(done - req.at - l);
        match &req.kind {
            Kind::Get(k) => {
                p.get_lat.push(latency);
                p.keys += k.len() as u64;
            }
            Kind::Set(_) => {
                p.set_lat.push(latency);
                p.keys += 1;
            }
        }
    }
    p.lag = lag;
    p.sent_bytes = sent_bytes;
    Ok(p)
}

/// Loads every key with its value: pipelined `set … noreply`, with a
/// `version` round trip every 128 sets for flow control.
fn preload(addr: SocketAddr) -> io::Result<()> {
    let mut conn = Connection::connect(addr)?;
    let (mut frame, mut value) = (Vec::new(), Vec::new());
    for rank in 0..KEYSPACE {
        value_of(rank, &mut value);
        frame.extend_from_slice(
            format!("set {} 0 0 {VALUE_LEN} noreply\r\n", key_of(rank)).as_bytes(),
        );
        frame.extend_from_slice(&value);
        frame.extend_from_slice(b"\r\n");
        if rank % 128 == 127 || rank + 1 == KEYSPACE {
            frame.extend_from_slice(b"version\r\n");
            conn.send(&frame)?;
            frame.clear();
            match conn.read_response()? {
                Response::Version(_) => {}
                other => return Err(io::Error::other(format!("preload: {other:?}"))),
            }
        }
    }
    Ok(())
}

fn launch() -> io::Result<RunningServer> {
    let spec = ServerSpec {
        shards: SHARDS,
        memory_bytes: SHARD_MEMORY,
        runtime: RuntimeKind::Blocking,
        ..ServerSpec::default()
    };
    RunningServer::launch(&ServerSource::Child(std::env::current_exe()?), &spec)
}

/// A `cpu_set_t` of glibc: 1024 bits.
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuMask) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuMask) -> i32;
}

/// Restricts the calling thread, and the threads and the server child it
/// starts from then on, to the last CPU it may run on.
///
/// On a virtual machine a wake-up sent to another, idle, virtual CPU
/// waits for the host to schedule that CPU. On a 2-vCPU KVM guest a pipe
/// round trip between processes on different CPUs took 19–33 µs and moved
/// with the host's load; within one CPU it took 7–8 µs every second.
/// Every request of the workload passes through several threads
/// (generator, connection reader, shard, connection writer, reader), so
/// they are all kept on one CPU.
fn pin_to_one_cpu() -> io::Result<()> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a writable buffer of the size passed.
    if unsafe { sched_getaffinity(0, size_of::<CpuMask>(), &mut mask) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let Some(cpu) = (0..mask.len() * 64).rfind(|&c| mask[c / 64] >> (c % 64) & 1 == 1) else {
        return Ok(());
    };
    let mut one: CpuMask = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of the size passed.
    if unsafe { sched_setaffinity(0, size_of::<CpuMask>(), &one) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

fn stats(addr: SocketAddr) -> io::Result<HashMap<String, u64>> {
    Connection::connect(addr)?.stats()
}

/// Whether a ladder rung meets the SLO: no failed request, windowed get
/// p99 within the limit, and no growing backlog (the last quarter's mean
/// latency not above twice the first quarter's plus the limit).
fn meets_slo(p: &Phase) -> bool {
    if p.failed > 0 || p.get_lat.len() < 100 * WINDOWS {
        return false;
    }
    let q = p.get_lat.len() / 4;
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let growing = mean(&p.get_lat[p.get_lat.len() - q..]) > 2.0 * mean(&p.get_lat[..q]) + SLO_P99;
    windowed_us(&p.get_lat, 99.0) <= SLO_P99 * 1e6 && !growing
}

/// Phase lengths for a run of `seconds`.
struct Plan {
    light: f64,
    low: f64,
    high: f64,
    rung: f64,
}

fn plan(seconds: f64) -> Plan {
    Plan {
        light: 0.2 * seconds,
        low: 0.2 * seconds,
        high: 0.2 * seconds,
        rung: 0.4 * seconds / LADDER.len() as f64,
    }
}

/// User + system CPU seconds of process `pid` so far.
fn cpu_seconds(pid: u64) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields, in clock ticks of 1/100 s.
    let rest = &stat[stat.rfind(')').map_or(0, |i| i + 2)..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        f.get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| io::Error::other(format!("unreadable /proc/{pid}/stat")))
    };
    Ok((ticks(11)? + ticks(12)?) / 100.0)
}

/// Percentile `p` of latencies `xs` (seconds), in microseconds.
fn us(xs: &[f64], p: f64) -> f64 {
    percentile(xs, p) * 1e6
}

/// Lowest over [`WINDOWS`] equal windows of the per-window percentile
/// `p`, in microseconds.
pub fn windowed_us(xs: &[f64], p: f64) -> f64 {
    let n = (xs.len() / WINDOWS).max(1);
    let per: Vec<f64> = xs
        .chunks(n)
        .filter(|c| c.len() == n)
        .map(|c| percentile(c, p))
        .collect();
    per.iter().copied().fold(f64::INFINITY, f64::min) * 1e6
}

/// Everything a run measured, before it is turned into metrics.
struct Measured {
    setup: Vec<f64>,
    /// Server CPU seconds spent in the `low` and `high` phases.
    cpu: f64,
    light: Phase,
    low: Phase,
    high: Phase,
    slo_rate: f64,
    rungs: u64,
    ladder_attempted: u64,
    ladder_failed: u64,
    before: HashMap<String, u64>,
    after: HashMap<String, u64>,
    errors: Vec<String>,
}

fn measure(server: &RunningServer, args: &RunArgs, setup: Vec<f64>) -> io::Result<Measured> {
    let addr = server.addr();
    let zipf = ZipfPopularity::new(KEYSPACE, SKEW).map_err(|e| io::Error::other(e.to_string()))?;
    let plan = plan(args.seconds);
    let pid = stats(addr)?
        .get("pid")
        .copied()
        .ok_or_else(|| io::Error::other("stats reply has no pid"))?;
    let light_part = |k: u64| {
        let seed = args.seed ^ (2 + LADDER.len() as u64 + k);
        let seconds = plan.light / LIGHT_PARTS as f64;
        run_phase(addr, &schedule(LIGHT_RATE, seconds, seed, &zipf), false)
    };
    let mut light = light_part(0)?;
    let cpu = cpu_seconds(pid)?;
    let low = run_phase(addr, &schedule(LOW_RATE, plan.low, args.seed, &zipf), false)?;
    let before = stats(addr)?;
    let high = run_phase(
        addr,
        &schedule(HIGH_RATE, plan.high, args.seed ^ 1, &zipf),
        true,
    )?;
    let cpu = cpu_seconds(pid)? - cpu;
    let after = stats(addr)?;
    for k in 1..LIGHT_PARTS - 1 {
        light.absorb(light_part(k)?);
    }
    let mut errors: Vec<String> = low.errors.iter().chain(&high.errors).cloned().collect();
    let (mut slo_rate, mut rungs, mut ladder_attempted, mut ladder_failed) = (0.0, 0, 0, 0);
    for (i, &rate) in LADDER.iter().enumerate() {
        let p = run_phase(
            addr,
            &schedule(rate, plan.rung, args.seed ^ (2 + i as u64), &zipf),
            false,
        )?;
        rungs += 1;
        ladder_attempted += p.attempted;
        ladder_failed += p.failed;
        errors.extend(p.errors.iter().cloned());
        if !meets_slo(&p) {
            break;
        }
        slo_rate = rate;
    }
    light.absorb(light_part(LIGHT_PARTS - 1)?);
    errors.extend(light.errors.iter().cloned());
    Ok(Measured {
        setup,
        cpu,
        light,
        low,
        high,
        slo_rate,
        rungs,
        ladder_attempted,
        ladder_failed,
        before,
        after,
        errors,
    })
}

/// Launches the server and preloads it `SETUPS` times (timing each),
/// keeping the last one; runs `body` against it and always shuts it down.
fn with_server<T>(body: impl FnOnce(&RunningServer, Vec<f64>) -> io::Result<T>) -> io::Result<T> {
    pin_to_one_cpu()?;
    let mut setup = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        if let Some(old) = server.take() {
            RunningServer::shutdown(old)?;
        }
        let t = Instant::now();
        let s = launch()?;
        let loaded = preload(s.addr());
        setup.push(t.elapsed().as_secs_f64());
        if let Err(e) = loaded {
            let _ = s.shutdown();
            return Err(e);
        }
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&server, setup)));
    let report = server.shutdown()?;
    let out = match out {
        Ok(r) => r?,
        Err(p) => std::panic::resume_unwind(p),
    };
    if !report.clean {
        return Err(io::Error::other("server did not shut down cleanly"));
    }
    Ok(out)
}

fn delta(m: &Measured, key: &str) -> f64 {
    m.after
        .get(key)
        .copied()
        .unwrap_or(0)
        .saturating_sub(m.before.get(key).copied().unwrap_or(0)) as f64
}

fn shard_sum(m: &Measured, field: &str) -> f64 {
    (0..SHARDS)
        .map(|j| delta(m, &format!("shard{j}_{field}")))
        .sum()
}

fn base_metrics(m: &Measured) -> (Vec<Metric>, u64, u64) {
    let (light, low, high) = (&m.light, &m.low, &m.high);
    let attempted = light.attempted + low.attempted + high.attempted + m.ladder_attempted;
    let failed = light.failed + low.failed + high.failed + m.ladder_failed;
    let rss = m.after.get("peak_rss_bytes").copied().unwrap_or(0) as f64 / f64::from(1 << 20);
    let n = |p: &Phase| p.get_lat.len() as u64;
    let metrics = vec![
        Metric::new("setup_s", median(&m.setup), m.setup.len() as u64)
            .note("launch + preload 200k keys"),
        Metric::new("peak_rss_mb", rss, 1).note("server's own peak_rss_bytes"),
        Metric::new(
            "keys_per_s",
            (low.keys + high.keys) as f64 / m.cpu,
            low.keys + high.keys,
        )
        .note("keys per server CPU second, low and high"),
        Metric::new("latency_p50_us", us(&light.get_lat, 50.0), n(light))
            .note("get p50 at light, from schedule"),
        Metric::new("latency_tail_us", us(&light.get_lat, 90.0), n(light))
            .note("get p90 at light, from schedule"),
        Metric::new(
            "failed_ratio",
            failed as f64 / attempted.max(1) as f64,
            attempted,
        ),
        Metric::new("get_p50_us.low", us(&low.get_lat, 50.0), n(low)),
        Metric::new("get_p99_us.low", us(&low.get_lat, 99.0), n(low)),
        Metric::new("get_p50_us.high", us(&high.get_lat, 50.0), n(high)),
        Metric::new("get_p99_us.high", us(&high.get_lat, 99.0), n(high)),
        Metric::new(
            "set_p99_us.high",
            us(&high.set_lat, 99.0),
            high.set_lat.len() as u64,
        ),
        Metric::new("slo_rate_kps", m.slo_rate / 1e3, m.rungs)
            .note("highest ladder rate with windowed get p99 <= 1 ms"),
    ];
    (metrics, attempted, failed)
}

fn finish(m: &Measured, metrics: Vec<Metric>, attempted: u64, failed: u64) -> Outcome {
    for e in m.errors.iter().take(10) {
        eprintln!("check failed: {e}");
    }
    Outcome {
        metrics,
        attempted,
        failed,
        correct: failed == 0 && m.errors.is_empty(),
    }
}

/// The untraced run.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let m = with_server(|server, setup| measure(server, args, setup)).map_err(|e| e.to_string())?;
    let (metrics, attempted, failed) = base_metrics(&m);
    Ok(finish(&m, metrics, attempted, failed))
}

/// Replays the `high` phase's sent bytes through the server's parser.
fn parser_probe(bytes: &[u8], tr: &mut Tracer) -> u64 {
    let mut cmds = 0u64;
    tr.span("server.parser", 0, |_| {
        let mut at = 0;
        while at < bytes.len() {
            match parse(&bytes[at..]) {
                Parsed::Cmd { consumed, cmd } => {
                    std::hint::black_box(&cmd);
                    at += consumed;
                    cmds += 1;
                }
                Parsed::Reject { consumed, .. } => at += consumed,
                Parsed::Incomplete => break,
            }
        }
    });
    cmds
}

/// Replays the `high` phase's operations on shard 0 against one shard's
/// store, preloaded the way the server was.
fn store_probe(reqs: &[Req], tr: &mut Tracer) -> (u64, u64, u64, f64, f64) {
    let mut store = Store::new(StoreConfig::with_memory(SHARD_MEMORY)).expect("valid store budget");
    let mut value = Vec::new();
    let mine = |rank: u64| shard_of(key_of(rank).as_bytes(), SHARDS) == 0;
    for rank in (0..KEYSPACE).filter(|&r| mine(r)) {
        value_of(rank, &mut value);
        let _ = store.set_with_payload(rank, Bytes::from(&value[..]), None, 0.0);
    }
    let before = store.stats();
    let (mut gets, mut sets, mut get_s, mut set_s) = (0u64, 0u64, 0.0, 0.0);
    tr.span("cache.store", 0, |_| {
        for (i, r) in reqs.iter().enumerate() {
            let now = i as f64 * 1e-5;
            match &r.kind {
                Kind::Get(keys) => {
                    for &k in keys.iter().filter(|&&k| mine(k)) {
                        let t = Instant::now();
                        std::hint::black_box(store.get(k, now));
                        get_s += t.elapsed().as_secs_f64();
                        gets += 1;
                    }
                }
                Kind::Set(k) if mine(*k) => {
                    value_of(*k, &mut value);
                    let payload = Bytes::from(&value[..]);
                    let t = Instant::now();
                    let _ = store.set_with_payload(*k, payload, None, now);
                    set_s += t.elapsed().as_secs_f64();
                    sets += 1;
                }
                Kind::Set(_) => {}
            }
        }
    });
    let evictions = store.stats().evictions - before.evictions;
    (gets, sets, evictions, get_s, set_s)
}

/// The traced run: per-layer metrics.
pub fn run_traced(args: &RunArgs) -> Result<Outcome, String> {
    let zipf = ZipfPopularity::new(KEYSPACE, SKEW).map_err(|e| e.to_string())?;
    let high_reqs = schedule(HIGH_RATE, plan(args.seconds).high, args.seed ^ 1, &zipf);
    let m = with_server(|server, setup| measure(server, args, setup)).map_err(|e| e.to_string())?;
    let (mut metrics, attempted, failed) = base_metrics(&m);
    metrics.retain(|x| {
        !matches!(
            x.name,
            "keys_per_s" | "latency_p50_us" | "setup_s" | "peak_rss_mb"
        )
    });

    // Request spans of the high phase, from the recorded timestamps:
    // scheduled → reply, split into the generator's lag and the round trip.
    let mut tr = Tracer::new();
    let high = &m.high;
    for (i, ((req, &lag), &rtt)) in high_reqs
        .iter()
        .zip(&high.lag.lags)
        .zip(&high.rtt)
        .enumerate()
    {
        let (request, sent) = (i as u64, req.at + lag);
        let root = tr.push(Span {
            name: "loadgen.request",
            start: req.at,
            end: sent + rtt,
            parent: None,
            request,
        });
        tr.push(Span {
            name: "loadgen.lag",
            start: req.at,
            end: sent,
            parent: Some(root),
            request,
        });
        tr.push(Span {
            name: "server.round_trip",
            start: sent,
            end: sent + rtt,
            parent: Some(root),
            request,
        });
    }
    let replay_start = tr.spans().len();
    let cmds = parser_probe(&high.sent_bytes, &mut tr);
    let (gets, sets, evictions, get_s, set_s) = store_probe(&high_reqs, &mut tr);
    let by = self_time_by_name(tr.spans());
    let mut failures = Vec::new();
    if cmds != high_reqs.len() as u64 {
        failures.push(format!(
            "parser replay found {cmds} commands, {} were sent",
            high_reqs.len()
        ));
    }

    let keys = shard_sum(&m, "keys_served").max(1.0);
    let jobs = shard_sum(&m, "jobs").max(1.0);
    let busy = shard_sum(&m, "busy_ns");
    let sojourn = shard_sum(&m, "sojourn_ns");
    let n_req = high_reqs.len() as f64;
    let mean_rtt = by.get("server.round_trip").copied().unwrap_or(0.0) / n_req;
    let mean_latency = high.get_lat.iter().chain(&high.set_lat).sum::<f64>() / n_req;
    let layer_sum = (by.get("loadgen.lag").copied().unwrap_or(0.0)
        + by.get("server.round_trip").copied().unwrap_or(0.0)
        + by.get("loadgen.request").copied().unwrap_or(0.0))
        / n_req;
    let closure = layer_sum / mean_latency;
    if !(0.97..=1.03).contains(&closure) {
        failures.push(format!(
            "closure: request layers {layer_sum} s vs mean latency {mean_latency} s"
        ));
    }
    let probe_span = |name: &str| by.get(name).copied().unwrap_or(0.0);
    metrics.extend([
        Metric::new(
            "server.parser.ns_per_cmd",
            probe_span("server.parser") * 1e9 / cmds.max(1) as f64,
            cmds,
        ),
        Metric::new(
            "cache.store.ns_per_get",
            get_s * 1e9 / gets.max(1) as f64,
            gets,
        ),
        Metric::new(
            "cache.store.ns_per_set",
            set_s * 1e9 / sets.max(1) as f64,
            sets,
        ),
        Metric::new(
            "cache.store.evictions_per_set",
            evictions as f64 / sets.max(1) as f64,
            sets,
        ),
        Metric::new(
            "cache.store.hit_ratio",
            high.hits as f64 / (high.hits + high.misses).max(1) as f64,
            high.hits + high.misses,
        )
        .note("server replies in the high phase"),
        Metric::new("server.shard.busy_ns_per_key", busy / keys, keys as u64),
        Metric::new(
            "server.shard.queue_wait_us",
            (sojourn - busy).max(0.0) / jobs / 1e3,
            jobs as u64,
        ),
        Metric::new(
            "server.shard.mean_inflight",
            shard_sum(&m, "queue_integral_ns") / (high.wall * 1e9),
            jobs as u64,
        ),
        Metric::new(
            "server.hops_us",
            (mean_rtt - sojourn / jobs / 1e9) * 1e6,
            high_reqs.len() as u64,
        )
        .note("mean round trip minus mean shard sojourn"),
        Metric::new(
            "loadgen.lag_us_p99",
            high.lag.p99_us(),
            high.lag.lags.len() as u64,
        ),
        Metric::new(
            "loadgen.behind_ratio",
            high.lag.behind_ratio(),
            high.lag.lags.len() as u64,
        ),
        Metric::new("trace.closure_ratio", closure, high_reqs.len() as u64)
            .note("request layer self-times / mean latency"),
        Metric::new(
            "trace.overhead_s",
            tr.spans()[replay_start..]
                .iter()
                .map(|s| s.end - s.start)
                .sum::<f64>(),
            1,
        )
        .note("parser and store replays, outside the measured phases"),
    ]);
    let path = std::path::PathBuf::from(format!(".bench_out/spans-{}.jsonl", args.workload));
    tr.write_jsonl(&path).map_err(|e| e.to_string())?;
    let mut out = finish(&m, metrics, attempted, failed);
    for f in &failures {
        eprintln!("check failed: {f}");
    }
    out.correct &= failures.is_empty();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(at: f64) -> Req {
        Req {
            at,
            kind: Kind::Set(0),
        }
    }

    #[test]
    fn lag_is_measured_from_the_schedule() {
        let reqs = vec![req(0.0), req(0.001), req(0.002), req(0.010)];
        let mut lag = Lag::default();
        // One wake at 2.5 ms sends the three requests already due; the
        // fourth goes out on time.
        lag.record(&reqs, 0, 3, 0.0025);
        lag.record(&reqs, 3, 4, 0.010);
        assert_eq!(lag.lags, vec![0.0025, 0.0015, 0.0005, 0.0]);
        // Only the first is more than 1 ms late.
        assert_eq!(lag.behind_ratio(), 0.5);
    }

    #[test]
    fn schedule_is_seeded_and_hits_the_rate_and_mix() {
        let zipf = ZipfPopularity::new(KEYSPACE, SKEW).unwrap();
        let a = schedule(50_000.0, 2.0, 9, &zipf);
        assert_eq!(a, schedule(50_000.0, 2.0, 9, &zipf));
        assert_ne!(a, schedule(50_000.0, 2.0, 10, &zipf));
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        let (mut gets, mut sets) = (0usize, 0usize);
        for r in &a {
            match &r.kind {
                Kind::Get(k) => gets += k.len(),
                Kind::Set(_) => sets += 1,
            }
        }
        let rate = (gets + sets) as f64 / 2.0;
        assert!((rate / 50_000.0 - 1.0).abs() < 0.1, "rate {rate}");
        let mix = gets as f64 / sets as f64;
        assert!(
            (mix / GETS_PER_SET - 1.0).abs() < 0.15,
            "gets per set {mix}"
        );
    }

    #[test]
    fn values_are_key_specific() {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        value_of(1, &mut a);
        value_of(2, &mut b);
        assert_eq!(a.len(), VALUE_LEN);
        assert_ne!(a, b);
        assert!(a.iter().all(u8::is_ascii_lowercase));
    }
}
