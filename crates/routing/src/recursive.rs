//! Routing for the three-level recursive nonblocking construction
//! (paper Discussion section).
//!
//! The outer network is logically `ftree(n+n², n³+n²)` routed with the
//! Theorem 3 scheme; each logical top switch `(i, j)` is itself a
//! nonblocking `ftree(n+n², n²+n)` routed with the Theorem 3 scheme using
//! the outer **bottom-switch index** as the inner leaf index. The
//! composition preserves the Lemma 1 invariant on every physical link: each
//! inner uplink still carries a single outer source and each inner downlink
//! a single outer destination, so the whole fabric is nonblocking (the
//! paper's induction).

use crate::router::SinglePathRouter;
use ftclos_topo::{ChannelId, RecursiveNonblocking};
use ftclos_traffic::SdPair;

/// Composed Theorem 3 routing over [`RecursiveNonblocking`].
#[derive(Clone, Copy, Debug)]
pub struct YuanRecursive<'a> {
    net: &'a RecursiveNonblocking,
}

impl<'a> YuanRecursive<'a> {
    /// Create the router.
    pub fn new(net: &'a RecursiveNonblocking) -> Self {
        Self { net }
    }
}

impl SinglePathRouter for YuanRecursive<'_> {
    fn ports(&self) -> u32 {
        self.net.num_leaves() as u32
    }

    fn route_into(&self, pair: SdPair, out: &mut Vec<ChannelId>) {
        out.clear();
        if pair.src == pair.dst {
            return;
        }
        let n = self.net.n();
        let (v, i) = (pair.src as usize / n, pair.src as usize % n);
        let (w, j) = (pair.dst as usize / n, pair.dst as usize % n);
        out.push(self.net.leaf_up_channel(v, i));
        if v != w {
            // Outer Theorem 3: logical top g = (i, j).
            let g = i * n + j;
            // Inner fabric g: inner leaf ports are outer bottom indices.
            let (ib_s, ii) = (v / n, v % n); // inner bottom + local index of source side
            let (ib_d, ij) = (w / n, w % n);
            out.push(self.net.up1_channel(v, g));
            // Same inner bottom: hairpin inside it. Otherwise inner
            // Theorem 3: inner top (ii, ij).
            if ib_s != ib_d {
                let it = ii * n + ij;
                out.push(self.net.up2_channel(g, ib_s, it));
                out.push(self.net.down2_channel(g, it, ib_d));
            }
            out.push(self.net.down1_channel(g, w));
        }
        out.push(self.net.leaf_down_channel(w, j));
    }

    fn name(&self) -> &'static str {
        "yuan-recursive-3level"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::route_all;
    use ftclos_traffic::patterns;
    use rand::SeedableRng;

    #[test]
    fn paths_are_valid_walks() {
        let net = RecursiveNonblocking::new(2).unwrap();
        let router = YuanRecursive::new(&net);
        let ports = net.num_leaves() as u32;
        for s in 0..ports {
            for d in 0..ports {
                let path = router.route(SdPair::new(s, d));
                path.validate(
                    net.topology(),
                    ftclos_topo::NodeId(s),
                    ftclos_topo::NodeId(d),
                )
                .unwrap_or_else(|e| panic!("({s},{d}): {e}"));
            }
        }
    }

    #[test]
    fn hop_counts() {
        let net = RecursiveNonblocking::new(2).unwrap();
        let router = YuanRecursive::new(&net);
        // Same leaf.
        assert_eq!(router.route(SdPair::new(0, 0)).len(), 0);
        // Same bottom switch.
        assert_eq!(router.route(SdPair::new(0, 1)).len(), 2);
        // Different bottoms, same inner bottom (v=0, w=1 share ib 0).
        assert_eq!(router.route(SdPair::new(0, 2)).len(), 4);
        // Far apart: full 6-hop route.
        let far = (net.num_leaves() - 1) as u32;
        assert_eq!(router.route(SdPair::new(0, far)).len(), 6);
    }

    #[test]
    fn nonblocking_on_random_permutations() {
        for n in [2usize, 3] {
            let net = RecursiveNonblocking::new(n).unwrap();
            let router = YuanRecursive::new(&net);
            let ports = net.num_leaves() as u32;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(n as u64);
            for _ in 0..20 {
                let perm = patterns::random_full(ports, &mut rng);
                let a = route_all(&router, &perm).unwrap();
                assert!(
                    a.max_channel_load() <= 1,
                    "3-level recursion blocked at n={n}"
                );
            }
        }
    }

    #[test]
    fn structured_permutations_contention_free() {
        let net = RecursiveNonblocking::new(2).unwrap();
        let router = YuanRecursive::new(&net);
        let ports = net.num_leaves() as u32;
        for pat in patterns::StructuredPattern::ALL {
            if let Some(perm) = pat.generate(ports) {
                let a = route_all(&router, &perm).unwrap();
                assert!(a.max_channel_load() <= 1, "{pat:?} blocked");
            }
        }
    }

    #[test]
    fn lemma1_holds_per_physical_link() {
        // Route ALL cross pairs and audit: every channel carries one source
        // or one destination.
        let net = RecursiveNonblocking::new(2).unwrap();
        let router = YuanRecursive::new(&net);
        let ports = net.num_leaves() as u32;
        let mut per_channel: std::collections::HashMap<
            u32,
            (
                std::collections::HashSet<u32>,
                std::collections::HashSet<u32>,
            ),
        > = std::collections::HashMap::new();
        for s in 0..ports {
            for d in 0..ports {
                if s == d {
                    continue;
                }
                let path = router.route(SdPair::new(s, d));
                for &c in path.channels() {
                    let entry = per_channel.entry(c.0).or_default();
                    entry.0.insert(s);
                    entry.1.insert(d);
                }
            }
        }
        for (c, (srcs, dsts)) in per_channel {
            assert!(
                srcs.len() == 1 || dsts.len() == 1,
                "channel {c} carries {} sources and {} dests",
                srcs.len(),
                dsts.len()
            );
        }
    }
}
