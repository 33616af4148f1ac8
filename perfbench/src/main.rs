//! The memlat benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim_plain_m1k|sim_resilient_ring|server_etc> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a table of every metric (name, value, unit, sample count), then
//! one JSON result line. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer ones and writes the spans to
//! `.bench_out/spans-<workload>.jsonl`. Exits non-zero when an output
//! check fails.
//!
//! Invoked with `memlat-server`'s own arguments (`--addr …`), the binary
//! is that server: the `server_etc` workload launches itself as the
//! server child process.

mod live;
mod report;
mod sim;
mod trace;

use std::process::ExitCode;

use report::{print_table, result_line, Metric, END_TO_END, PER_LAYER};

/// Parsed command line.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run produced.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Every output check passed.
    pub correct: bool,
}

/// Peak resident set of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    memlat_server::stats::peak_rss_bytes() as f64 / f64::from(1 << 20)
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0_f64, false);
    while let Some(flag) = args.next() {
        let mut val = || args.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Runs as `memlat-server`, with the subset of its arguments the load
/// generator's child launcher passes.
fn serve(mut args: impl Iterator<Item = String>) -> ExitCode {
    use memlat_server::{runtime::RuntimeKind, start, ServerConfig};
    let mut cfg = ServerConfig::default();
    while let Some(flag) = args.next() {
        let val = args.next().unwrap_or_default();
        let ok = match flag.as_str() {
            "--addr" => {
                cfg.addr.clone_from(&val);
                true
            }
            "--shards" => val.parse().map(|n| cfg.shard.shards = n).is_ok(),
            "--memory-mb" => val
                .parse::<usize>()
                .map(|mb| cfg.shard.memory_bytes = mb << 20)
                .is_ok(),
            "--service-seed" => val.parse().map(|s| cfg.shard.service_seed = s).is_ok(),
            "--service-exp-us" => val
                .parse::<f64>()
                .map(|us| cfg.shard.service_exp_mean = Some(us * 1e-6))
                .is_ok(),
            "--runtime" => val.parse::<RuntimeKind>().map(|k| cfg.runtime = k).is_ok(),
            _ => false,
        };
        if !ok {
            eprintln!("server: bad argument {flag} {val}");
            return ExitCode::from(2);
        }
    }
    let handle = match start(&cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("server: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("LISTENING {}", handle.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    match handle.join() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("server: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("--addr") {
        return serve(args);
    }
    let args = match parse_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match (args.workload.as_str(), args.trace) {
        ("sim_plain_m1k", false) => sim::run(sim::SimWorkload::Plain, &args),
        ("sim_plain_m1k", true) => sim::run_traced(sim::SimWorkload::Plain, &args),
        ("sim_resilient_ring", false) => sim::run(sim::SimWorkload::Ring, &args),
        ("sim_resilient_ring", true) => sim::run_traced(sim::SimWorkload::Ring, &args),
        ("server_etc", false) => live::run(&args),
        ("server_etc", true) => live::run_traced(&args),
        (other, _) => Err(format!("unknown workload {other}")),
    };
    let mut out = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    // Layers a workload does not exercise, and figures only the untraced
    // run measures, read 0.
    for (name, _) in names {
        if !out.metrics.iter().any(|m| m.name == *name) {
            assert!(args.trace, "end-to-end metric {name} not measured");
            out.metrics
                .push(Metric::new(name, 0.0, 0).note("not measured by this run"));
        }
    }
    print_table(&args.workload, &out.metrics);
    println!(
        "{}",
        result_line(out.correct, out.attempted, out.failed, &out.metrics, names)
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
