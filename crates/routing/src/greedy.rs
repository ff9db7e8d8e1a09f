//! Greedy least-loaded local adaptive routing — the conventional adaptive
//! baseline (in the spirit of Kim, Dally & Abts, SC'06).
//!
//! Each source switch assigns its cross-switch SD pairs to top switches one
//! by one, choosing the top switch whose uplink is least loaded *locally*
//! (ties broken by lowest index). This reduces blocking probability
//! substantially compared to `d mod k` but — unlike NONBLOCKINGADAPTIVE —
//! it coordinates nothing about **downlinks**, so two switches can still
//! collide below a top switch: it is not nonblocking.

use crate::assignment::RouteAssignment;
use crate::error::RoutingError;
use crate::path::Path;
use crate::router::PatternRouter;
use ftclos_topo::Ftree;
use ftclos_traffic::Permutation;

/// Least-loaded-uplink local adaptive router for `ftree(n+m, r)`.
#[derive(Clone, Copy, Debug)]
pub struct GreedyLocalAdaptive<'a> {
    ft: &'a Ftree,
}

impl<'a> GreedyLocalAdaptive<'a> {
    /// Create the router.
    pub fn new(ft: &'a Ftree) -> Self {
        Self { ft }
    }
}

impl PatternRouter for GreedyLocalAdaptive<'_> {
    fn ports(&self) -> u32 {
        self.ft.num_leaves() as u32
    }

    fn route_pattern(&self, perm: &Permutation) -> Result<RouteAssignment, RoutingError> {
        let ports = self.ports();
        let n = self.ft.n();
        let m = self.ft.m();
        let mut out = RouteAssignment::default();
        // Per-source-switch local uplink loads (local information only).
        let groups = perm.group_by_source(|s| s as usize / n);
        for (switch, group) in groups {
            let mut uplink_load = vec![0u32; m];
            for pair in group {
                for port in [pair.src, pair.dst] {
                    if port >= ports {
                        return Err(RoutingError::PortOutOfRange { port, ports });
                    }
                }
                let (v, i) = (pair.src as usize / n, pair.src as usize % n);
                let (w, j) = (pair.dst as usize / n, pair.dst as usize % n);
                debug_assert_eq!(v, switch);
                let path = if pair.src == pair.dst {
                    Path::empty()
                } else if v == w {
                    Path::new(vec![
                        self.ft.leaf_up_channel(v, i),
                        self.ft.leaf_down_channel(w, j),
                    ])
                } else {
                    let t = (0..m).min_by_key(|&t| (uplink_load[t], t)).expect("m >= 1");
                    uplink_load[t] += 1;
                    Path::new(vec![
                        self.ft.leaf_up_channel(v, i),
                        self.ft.up_channel(v, t),
                        self.ft.down_channel(t, w),
                        self.ft.leaf_down_channel(w, j),
                    ])
                };
                out.push(pair, path);
            }
        }
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "greedy-local-adaptive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclos_traffic::{patterns, SdPair};
    use rand::SeedableRng;

    #[test]
    fn uplinks_never_contend_when_m_at_least_n() {
        // With m >= n the greedy spread puts each of a switch's <= n pairs
        // on a distinct uplink.
        use rand::SeedableRng as _;
        let ft = Ftree::new(3, 3, 6).unwrap();
        let r = GreedyLocalAdaptive::new(&ft);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        for _ in 0..20 {
            let perm = patterns::random_full(18, &mut rng);
            let a = r.route_pattern(&perm).unwrap();
            for (ch, load) in a.channel_loads() {
                let c = ft.topology().channel(ch);
                if ft.bottom_index(c.src).is_some() && ft.top_index(c.dst).is_some() {
                    assert!(load <= 1, "uplink contention");
                }
            }
            a.validate(ft.topology()).unwrap();
        }
    }

    #[test]
    fn downlinks_can_still_contend() {
        // Witness that greedy local adaptive is NOT nonblocking: two source
        // switches both pick top 0 first and send to the same dest switch.
        let ft = Ftree::new(2, 2, 4).unwrap();
        let r = GreedyLocalAdaptive::new(&ft);
        let perm = Permutation::from_pairs(8, [SdPair::new(0, 6), SdPair::new(2, 7)]).unwrap();
        let a = r.route_pattern(&perm).unwrap();
        assert_eq!(a.max_channel_load(), 2, "downlink into switch 3 shared");
    }

    #[test]
    fn blocks_fewer_random_perms_than_dmodk() {
        use crate::dmodk::DModK;
        let ft = Ftree::new(4, 4, 9).unwrap();
        let greedy = GreedyLocalAdaptive::new(&ft);
        let dmodk = DModK::new(&ft);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let mut greedy_blocked = 0;
        let mut dmodk_blocked = 0;
        for _ in 0..100 {
            let perm = patterns::random_full(36, &mut rng);
            if greedy.route_pattern(&perm).unwrap().max_channel_load() > 1 {
                greedy_blocked += 1;
            }
            if PatternRouter::route_pattern(&dmodk, &perm)
                .unwrap()
                .max_channel_load()
                > 1
            {
                dmodk_blocked += 1;
            }
        }
        assert!(
            greedy_blocked <= dmodk_blocked,
            "greedy {greedy_blocked} vs dmodk {dmodk_blocked}"
        );
    }

    #[test]
    fn self_and_local_pairs() {
        let ft = Ftree::new(2, 2, 4).unwrap();
        let r = GreedyLocalAdaptive::new(&ft);
        let perm = Permutation::from_pairs(8, [SdPair::new(0, 0), SdPair::new(2, 3)]).unwrap();
        // (2, 3) is same-switch (both in switch 1): local two-hop path.
        let a = r.route_pattern(&perm).unwrap();
        let hops: Vec<(SdPair, usize)> = a
            .routes()
            .iter()
            .map(|(p, path)| (*p, path.len()))
            .collect();
        assert_eq!(hops, [(SdPair::new(0, 0), 0), (SdPair::new(2, 3), 2)]);
    }
}
