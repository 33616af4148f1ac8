//! `stats` command rendering and process-level gauges.

use std::fmt::Write as _;
use std::sync::atomic::Ordering;

use crate::ServerShared;

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`); 0 when unavailable.
#[must_use]
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Renders the full `STAT ... END` response for the `stats` command.
///
/// Beyond the classic memcached counters this exposes per-shard
/// measurement extras (`shard<j>_busy_ns`, `shard<j>_sojourn_ns`,
/// `shard<j>_queue_integral_ns`, ...) that the conformance load generator
/// uses to compute measured μ̂ and the Little's-law jobs-in-system
/// average without any client-side assumption.
#[must_use]
pub fn render_stats(shared: &ServerShared) -> Vec<u8> {
    let now = shared.clock.now();
    let mut s = String::with_capacity(1024);
    let metrics = shared.pool.metrics();
    let (mut hits, mut misses, mut items, mut evictions, mut expired) = (0, 0, 0, 0, 0);
    for m in metrics {
        hits += m.hits.load(Ordering::Relaxed);
        misses += m.misses.load(Ordering::Relaxed);
        items += m.curr_items.load(Ordering::Relaxed);
        evictions += m.evictions.load(Ordering::Relaxed);
        expired += m.expired.load(Ordering::Relaxed);
    }
    let _ = writeln!(s, "STAT pid {}\r", std::process::id());
    let _ = writeln!(s, "STAT uptime {}\r", now as u64);
    let _ = writeln!(s, "STAT version {}\r", crate::VERSION);
    let _ = writeln!(s, "STAT pointer_size {}\r", usize::BITS);
    let _ = writeln!(s, "STAT threads {}\r", shared.pool.shards());
    let _ = writeln!(
        s,
        "STAT curr_connections {}\r",
        shared.curr_connections.load(Ordering::Relaxed)
    );
    let _ = writeln!(
        s,
        "STAT total_connections {}\r",
        shared.total_connections.load(Ordering::Relaxed)
    );
    let _ = writeln!(
        s,
        "STAT cmd_get {}\r",
        shared.cmd_get.load(Ordering::Relaxed)
    );
    let _ = writeln!(
        s,
        "STAT cmd_set {}\r",
        shared.cmd_set.load(Ordering::Relaxed)
    );
    let _ = writeln!(
        s,
        "STAT cmd_delete {}\r",
        shared.cmd_delete.load(Ordering::Relaxed)
    );
    let _ = writeln!(s, "STAT get_hits {hits}\r");
    let _ = writeln!(s, "STAT get_misses {misses}\r");
    let _ = writeln!(s, "STAT curr_items {items}\r");
    let _ = writeln!(s, "STAT evictions {evictions}\r");
    let _ = writeln!(s, "STAT expired {expired}\r");
    let _ = writeln!(
        s,
        "STAT bytes_read {}\r",
        shared.bytes_read.load(Ordering::Relaxed)
    );
    let _ = writeln!(
        s,
        "STAT bytes_written {}\r",
        shared.bytes_written.load(Ordering::Relaxed)
    );
    let _ = writeln!(s, "STAT peak_rss_bytes {}\r", peak_rss_bytes());
    for (j, m) in metrics.iter().enumerate() {
        let _ = writeln!(
            s,
            "STAT shard{j}_keys_served {}\r",
            m.keys_served.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            s,
            "STAT shard{j}_busy_ns {}\r",
            m.busy_ns.load(Ordering::Relaxed)
        );
        let _ = writeln!(s, "STAT shard{j}_jobs {}\r", m.jobs.load(Ordering::Relaxed));
        let _ = writeln!(
            s,
            "STAT shard{j}_sojourn_ns {}\r",
            m.sojourn_ns.load(Ordering::Relaxed)
        );
        let _ = writeln!(
            s,
            "STAT shard{j}_queue_integral_ns {}\r",
            (m.queue_integral(now) * 1e9) as u64
        );
        let _ = writeln!(s, "STAT shard{j}_inflight {}\r", m.inflight());
    }
    let _ = write!(s, "END\r\n");
    s.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_probe_reports_something_on_linux() {
        let rss = peak_rss_bytes();
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(rss > 0);
        }
    }
}
