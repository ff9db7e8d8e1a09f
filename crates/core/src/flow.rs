//! Flow-level throughput estimation.
//!
//! Before running the cycle-level simulator, the achievable throughput of a
//! routed pattern is visible analytically: if the most-loaded channel
//! carries `L` unit flows, fair sharing caps every flow at `1/L` of link
//! rate, so *saturation throughput* ≈ `1/L`. A nonblocking fabric keeps
//! `L = 1` for every permutation — crossbar behaviour — which is the
//! paper's definition of full bisection bandwidth delivery.

use ftclos_routing::RouteAssignment;

/// Ideal saturation throughput (fraction of injection bandwidth) of a
/// single-path assignment: `1 / max_channel_load`, or 1.0 for an empty
/// assignment.
pub fn saturation_throughput(assignment: &RouteAssignment) -> f64 {
    match assignment.max_channel_load() {
        0 => 1.0,
        l => 1.0 / l as f64,
    }
}

/// Summary statistics of channel loads in an assignment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoadStats {
    /// Channels carrying at least one flow.
    pub used_channels: usize,
    /// Maximum load.
    pub max: u32,
    /// Mean load over used channels.
    pub mean: f64,
}

/// Compute [`LoadStats`] for an assignment.
pub fn load_stats(assignment: &RouteAssignment) -> LoadStats {
    let loads = assignment.channel_loads();
    let used_channels = loads.len();
    let max = loads.values().copied().max().unwrap_or(0);
    let mean = if used_channels == 0 {
        0.0
    } else {
        loads.values().map(|&v| v as f64).sum::<f64>() / used_channels as f64
    };
    LoadStats {
        used_channels,
        max,
        mean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclos_routing::{route_all, DModK, YuanDeterministic};
    use ftclos_topo::Ftree;
    use ftclos_traffic::{patterns, Permutation, SdPair};
    use rand::SeedableRng;

    #[test]
    fn nonblocking_saturates_at_one() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let r = YuanDeterministic::new(&ft).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        let perm = patterns::random_full(10, &mut rng);
        let a = route_all(&r, &perm).unwrap();
        assert_eq!(saturation_throughput(&a), 1.0);
    }

    #[test]
    fn contended_assignment_halves() {
        let ft = Ftree::new(2, 2, 5).unwrap();
        let r = DModK::new(&ft);
        let perm = Permutation::from_pairs(10, [SdPair::new(0, 4), SdPair::new(1, 6)]).unwrap();
        let a = route_all(&r, &perm).unwrap();
        assert_eq!(saturation_throughput(&a), 0.5);
    }

    #[test]
    fn load_stats_shape() {
        let ft = Ftree::new(2, 2, 5).unwrap();
        let r = DModK::new(&ft);
        let perm = Permutation::from_pairs(10, [SdPair::new(0, 4), SdPair::new(1, 6)]).unwrap();
        let a = route_all(&r, &perm).unwrap();
        let stats = load_stats(&a);
        assert_eq!(stats.max, 2);
        assert!(stats.mean > 1.0 && stats.mean < 2.0);
        assert!(stats.used_channels >= 6);
        let empty = load_stats(&RouteAssignment::default());
        assert_eq!(empty.max, 0);
        assert_eq!(empty.mean, 0.0);
        assert_eq!(saturation_throughput(&RouteAssignment::default()), 1.0);
    }
}
