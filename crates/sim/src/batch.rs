//! Parallel batch simulation: injection-rate sweeps for throughput/latency
//! curves (the load-latency plots standard in interconnect evaluation).

use crate::config::SimConfig;
use crate::event::EventSimulator;
use crate::policy::Policy;
use crate::workload::Workload;
use ftclos_topo::Topology;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// One point of a load sweep.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ThroughputPoint {
    /// Offered load (packets/cycle/source).
    pub offered: f64,
    /// Accepted throughput (packets/cycle/source).
    pub accepted: f64,
    /// Mean end-to-end latency in cycles.
    pub mean_latency: f64,
}

/// Sweep offered injection rates in parallel. Each rate runs an independent
/// simulation with a rate-derived seed, so results are reproducible and
/// thread-count independent.
pub fn sweep_injection_rates(
    topo: &Topology,
    cfg: SimConfig,
    make_policy: impl Fn() -> Policy + Sync,
    make_workload: impl Fn(f64) -> Workload + Sync,
    rates: &[f64],
    seed: u64,
) -> Vec<ThroughputPoint> {
    rates
        .par_iter()
        .enumerate()
        .map(|(i, &rate)| {
            let mut sim = EventSimulator::new(topo, cfg, make_policy());
            let stats = sim.run(&make_workload(rate), seed.wrapping_add(i as u64 * 7919));
            ThroughputPoint {
                offered: rate,
                accepted: stats.accepted_throughput(),
                mean_latency: stats.mean_latency(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclos_routing::YuanDeterministic;
    use ftclos_topo::Ftree;
    use ftclos_traffic::patterns;

    #[test]
    fn sweep_is_monotone_under_capacity() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 2);
        let cfg = SimConfig {
            warmup_cycles: 100,
            measure_cycles: 500,
            ..SimConfig::default()
        };
        let points = sweep_injection_rates(
            ft.topology(),
            cfg,
            || Policy::from_single_path(&router),
            |rate| Workload::permutation(&perm, rate),
            &[0.2, 0.5, 0.9],
            1,
        );
        assert_eq!(points.len(), 3);
        // Nonblocking fabric: accepted tracks offered.
        for p in &points {
            assert!(
                (p.accepted - p.offered).abs() < 0.07,
                "offered {} accepted {}",
                p.offered,
                p.accepted
            );
        }
    }
}
