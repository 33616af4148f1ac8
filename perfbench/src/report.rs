//! Metric names, summary statistics and the result line.
//!
//! Every metric the benchmark prints is named in [`END_TO_END`] or
//! [`PER_LAYER`]; `BENCHMARK.json` at the repository root lists the same
//! names (a test keeps the two in step).

use std::fmt::Write as _;

/// End-to-end metrics: every workload reports every one of them, from the
/// untraced run. What each means per workload is in `perfbench/README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("keys_per_s", "1/s"),
    ("latency_p50_us", "us"),
];

/// Per-layer metrics, reported by the traced run. A layer a workload does
/// not exercise reads 0 on that workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.arrivals.ns_per_key", "ns"),
    ("des.lindley.ns_per_key", "ns"),
    ("cluster.server_loop.ns_per_key", "ns"),
    ("stats.sink.ns_per_key", "ns"),
    ("cluster.db_stage.ns_per_miss", "ns"),
    ("cluster.miss_state.ns_per_key", "ns"),
    ("cache.store.hit_ratio", "ratio"),
    ("cluster.merge.ns_per_key", "ns"),
    ("cluster.hedge_pass.ns_per_key", "ns"),
    ("hedge.win_ratio", "ratio"),
    ("retry.per_key", "ratio"),
    ("coalesce.delayed_hit_ratio", "ratio"),
    ("cluster.forced_miss_ratio", "ratio"),
    ("cluster.assembly.us_per_request", "us"),
    ("setup.alias_s", "s"),
    ("setup.ring_s", "s"),
    ("cluster.parallel_efficiency", "ratio"),
    ("server.parser.ns_per_cmd", "ns"),
    ("cache.store.ns_per_get", "ns"),
    ("cache.store.ns_per_set", "ns"),
    ("cache.store.evictions_per_set", "ratio"),
    ("server.shard.busy_ns_per_key", "ns"),
    ("server.shard.queue_wait_us", "us"),
    ("server.shard.mean_inflight", "count"),
    ("server.hops_us", "us"),
    ("loadgen.lag_us_p99", "us"),
    ("loadgen.behind_ratio", "ratio"),
    ("trace.closure_ratio", "ratio"),
    ("trace.overhead_s", "s"),
    // End-to-end figures printed by both runs that no bound applies to:
    // the latency tail (on a shared host it moves several-fold between
    // runs) and the workload-specific figures.
    ("latency_tail_us", "us"),
    ("failed_ratio", "ratio"),
    ("requests_per_s", "1/s"),
    ("get_p50_us.low", "us"),
    ("get_p99_us.low", "us"),
    ("get_p50_us.high", "us"),
    ("get_p99_us.high", "us"),
    ("set_p99_us.high", "us"),
    ("slo_rate_kps", "1000/s"),
];

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Samples behind the value (calls, requests, keys), for the table.
    pub samples: u64,
    /// Free-text qualifier for the table (e.g. which percentile).
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, samples: u64) -> Self {
        Self {
            name,
            value,
            samples,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// The unit of a named metric.
///
/// # Panics
///
/// Panics on a name that is in neither list — the benchmark never
/// prints a metric `BENCHMARK.json` does not declare.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name:?} is not declared"))
}

/// Median of a sample (mean of the middle two for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Linear-interpolated percentile `p` (0..=100) of an unsorted sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, p)
}

/// [`percentile`] over an already sorted sample.
pub fn percentile_sorted(v: &[f64], p: f64) -> f64 {
    let pos = (p / 100.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The tail percentile a sample of `n` supports: the highest whole
/// percentile, at most p90, with at least 10 samples beyond it. Returns
/// `(percentile, samples beyond it)`; `None` below 20 samples, where not
/// even the median has 10 samples beyond it. (p99 does not repeat within
/// a tenth between runs on a shared 2-core host, so the cap is p90.)
pub fn tail_rule(n: usize) -> Option<(u32, usize)> {
    (50..=90u32).rev().find_map(|p| {
        let beyond = n - (n as f64 * f64::from(p) / 100.0).ceil() as usize;
        (beyond >= 10).then_some((p, beyond))
    })
}

/// Median and the [`tail_rule`] percentile of a sample, as metrics.
pub fn latency_pair(
    samples: &[f64],
    p50: &'static str,
    tail: &'static str,
    what: &str,
) -> Vec<Metric> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as u64;
    let (p, beyond) = tail_rule(v.len()).expect("enough samples for a tail percentile");
    vec![
        Metric::new(p50, percentile_sorted(&v, 50.0), n).note(format!("p50 of {what}")),
        Metric::new(tail, percentile_sorted(&v, f64::from(p)), n)
            .note(format!("p{p} of {what}, {beyond} beyond")),
    ]
}

/// Formats a float with all its digits (shortest round-trip form).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

/// Prints the human table (one line per metric, with unit and count).
pub fn print_table(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "{workload:<20} {:<34} {:>18} {:<7} n={:<9} {}",
            m.name,
            num(m.value),
            unit_of(m.name),
            m.samples,
            m.note
        );
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
    names: &[(&str, &str)],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let m = metrics
            .iter()
            .find(|m| m.name == *name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(m.value)
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_highest_percentile_with_ten_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond it.
        assert_eq!(tail_rule(100), Some((90, 10)));
        // 99: p90 leaves 9, so p89 (10 beyond) is the highest allowed.
        assert_eq!(tail_rule(99), Some((89, 10)));
        assert_eq!(tail_rule(60), Some((83, 10)));
        // Capped at p90 however many samples there are.
        assert_eq!(tail_rule(1_000_000), Some((90, 100_000)));
        // 20 samples: only the median has 10 beyond it.
        assert_eq!(tail_rule(20), Some((50, 10)));
        assert_eq!(tail_rule(19), None);
    }

    #[test]
    fn latency_pair_reports_the_rule_percentile_and_count() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let m = latency_pair(&xs, "latency_p50_us", "latency_tail_us", "calls");
        assert_eq!(m[0].value, 100.5);
        assert_eq!(m[0].samples, 200);
        // 200 samples: the cap, p90, leaves 20 beyond it.
        assert!(
            m[1].note.starts_with("p90 of calls, 20 beyond"),
            "{}",
            m[1].note
        );
        assert!((m[1].value - percentile(&xs, 90.0)).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[0.0, 10.0], 90.0), 9.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let metrics = vec![Metric::new("setup_s", 0.25, 3)];
        let line = result_line(true, 7, 0, &metrics, &[("setup_s", "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    /// Every name the benchmark can print is declared in `BENCHMARK.json`
    /// under the right list and unit, and nothing declared goes unprinted.
    #[test]
    fn every_metric_name_is_declared_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = |list: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{list}\"")).expect("list present");
            let body = &json[start..];
            let end = body.find(']').expect("list closes");
            body[..end]
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\"")).expect("field") + key.len() + 2;
                        let rest = &entry[at..];
                        let open = rest.find('"').expect("string value") + 1;
                        let close = rest[open..].find('"').expect("string end") + open;
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), owned(END_TO_END));
        assert_eq!(declared("per_layer"), owned(PER_LAYER));
    }
}
