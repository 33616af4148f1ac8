//! When is load balancing worth it? Reproduces the paper's §5.2.2
//! guidance: balancing only matters once the hottest server crosses the
//! cliff utilization — and shows consistent hashing re-spreading load
//! when a server leaves.
//!
//! ```sh
//! cargo run --release --example load_balancing
//! ```

use memlat::model::{analysis, cliff, LoadDistribution, ModelParams, ServerLatencyModel};
use memlat::workload::{ConsistentHashRing, ZipfPopularity};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cliff_rho = cliff::cliff_utilization(0.15, 0.1)?;
    println!(
        "cliff utilization for the Facebook workload: {:.0}%\n",
        cliff_rho * 100.0
    );

    println!("E[T_S(N)] as the hottest server's share p1 grows (Λ = 80 Kps, µ_S = 80 Kps):");
    println!(
        "{:>6} {:>10} {:>14} {:>10}",
        "p1", "ρ_hot", "E[T_S(N)] µs", "balance?"
    );
    for p1 in [0.25, 0.4, 0.55, 0.7, 0.75, 0.8, 0.9] {
        let params = ModelParams::builder()
            .load(if p1 <= 0.25 {
                LoadDistribution::Balanced
            } else {
                LoadDistribution::HotServer { p1 }
            })
            .total_key_rate(80_000.0)
            .build()?;
        let rho_hot = params.peak_utilization()?;
        let ts = ServerLatencyModel::new(&params)?.expected_latency(150);
        println!(
            "{p1:>6} {:>9.0}% {:>14.1} {:>10}",
            rho_hot * 100.0,
            ts * 1e6,
            if rho_hot > cliff_rho { "YES" } else { "no" }
        );
    }

    // The same story through the recommendation engine.
    let hot = ModelParams::builder()
        .load(LoadDistribution::HotServer { p1: 0.8 })
        .total_key_rate(80_000.0)
        .build()?;
    println!("\nmodel recommendations at p1 = 0.8:");
    for rec in analysis::recommendations(&hot)? {
        println!("  • {rec}");
    }

    // And the mechanism that restores balance: a consistent-hash ring.
    println!("\nconsistent hashing under a server removal (Zipf keys, 4 → 3 servers):");
    let ring = ConsistentHashRing::new(4, 160);
    let pop = ZipfPopularity::new(10_000_000, 1.01)?;
    // Load shares the ring induces on 200k Zipf draws, same stream each time.
    let shares = |ring: &ConsistentHashRing| {
        const DRAWS: u32 = 200_000;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut counts = vec![0u32; ring.servers()];
        for _ in 0..DRAWS {
            counts[ring.server_of(pop.sample_key(&mut rng))] += 1;
        }
        counts
            .into_iter()
            .map(|c| f64::from(c) / f64::from(DRAWS))
            .collect::<Vec<_>>()
    };
    let before = shares(&ring);
    let after = shares(&ring.without_server(2));
    println!("  shares before: {before:?}");
    println!("  shares after : {after:?} (server 2 removed; its arc moved to successors)");
    Ok(())
}
