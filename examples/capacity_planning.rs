//! Capacity planning with the cliff rule (Proposition 2): for each burst
//! degree, how hard can a memcached server be driven before latency
//! collapses, and how many servers does a target workload need?
//!
//! ```sh
//! cargo run --release --example capacity_planning
//! ```

use memlat::model::{plan, ArrivalPattern, PlanningRequest};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mu_s = 80_000.0;
    let n = 150;
    let sla = 500e-6; // 500 µs server-stage budget
    let total_load = 1_000_000.0; // 1M keys/s to place

    println!(
        "capacity planning: µ_S = {} Kps, N = {}, SLA E[T_S(N)] ≤ {} µs",
        mu_s / 1e3,
        n,
        sla * 1e6
    );
    println!("target aggregate load: {} Kps\n", total_load / 1e3);
    println!(
        "{:>5} {:>12} {:>14} {:>14} {:>9}",
        "ξ", "cliff ρ_S", "max λ (SLA)", "util @ SLA", "servers"
    );

    for xi in [0.0, 0.15, 0.3, 0.5, 0.7] {
        let cap = plan(&PlanningRequest {
            arrival: ArrivalPattern::GeneralizedPareto { xi },
            concurrency: 0.1,
            service_rate: mu_s,
            keys_per_request: n,
            sla,
            total_load,
        })?;
        println!(
            "{xi:>5} {:>11.1}% {:>11.1} Kps {:>13.1}% {:>9}",
            cap.cliff_utilization * 100.0,
            cap.max_rate_per_server / 1e3,
            cap.utilization_at_sla * 100.0,
            cap.servers_needed
        );
    }

    println!(
        "\nthe SLA-feasible utilization tracks the cliff: burstier traffic (larger ξ) \
         must run servers cooler, needing proportionally more of them."
    );
    Ok(())
}
