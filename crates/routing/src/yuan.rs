//! The paper's Theorem 3 single-path deterministic routing.

use crate::dmodk::{modular_route, TopRule};
use crate::error::RoutingError;
use crate::router::SinglePathRouter;
use ftclos_topo::{ChannelId, Ftree};
use ftclos_traffic::SdPair;

/// Theorem 3 routing for `ftree(n+m, r)` with `m >= n²`:
///
/// SD pair `(s = (v, i), d = (w, j))` with `v != w` is routed through top
/// switch `(i, j)` — path `(v,i) → v → (i,j) → w → (w,j)`. Same-switch
/// pairs go `(v,i) → v → (v,j)` without touching top switches.
///
/// With this assignment every uplink `v → (i,j)` carries only pairs with the
/// single source `(v, i)`, and every downlink `(i,j) → w` carries only pairs
/// with the single destination `(w, j)` (paper Fig. 3), so by Lemma 1 the
/// fabric is nonblocking.
///
/// ```
/// use ftclos_routing::{route_all, YuanDeterministic};
/// use ftclos_topo::Ftree;
/// use ftclos_traffic::patterns;
///
/// let ft = Ftree::new(2, 4, 5).unwrap(); // m = n² = 4
/// let router = YuanDeterministic::new(&ft).unwrap();
/// let perm = patterns::shift(10, 3);
/// let routes = route_all(&router, &perm).unwrap();
/// assert_eq!(routes.max_channel_load(), 1); // zero contention
/// ```
#[derive(Clone, Copy, Debug)]
pub struct YuanDeterministic<'a> {
    ft: &'a Ftree,
}

impl<'a> YuanDeterministic<'a> {
    /// Create the router. Requires `m >= n²` (Theorem 2's tight bound).
    pub fn new(ft: &'a Ftree) -> Result<Self, RoutingError> {
        if ft.m() < ft.n() * ft.n() {
            return Err(RoutingError::Precondition {
                router: "YuanDeterministic",
                detail: format!(
                    "needs m >= n^2 top switches (m = {}, n = {})",
                    ft.m(),
                    ft.n()
                ),
            });
        }
        Ok(Self { ft })
    }

    /// The fabric this router serves.
    pub fn ftree(&self) -> &'a Ftree {
        self.ft
    }

    /// The top switch index used for a cross-switch pair: `t = i·n + j`
    /// where `i`/`j` are the source/destination local leaf indices.
    pub(crate) fn top_for(&self, pair: SdPair) -> usize {
        TopRule::ByIndexPair.top(self.ft, pair)
    }
}

impl SinglePathRouter for YuanDeterministic<'_> {
    fn ports(&self) -> u32 {
        self.ft.num_leaves() as u32
    }

    fn route_into(&self, pair: SdPair, out: &mut Vec<ChannelId>) {
        modular_route(self.ft, pair, self.top_for(pair), out);
    }

    fn name(&self) -> &'static str {
        "yuan-deterministic"
    }

    fn top_rule(&self) -> Option<(&Ftree, TopRule)> {
        Some((self.ft, TopRule::ByIndexPair))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::route_all;
    use ftclos_traffic::patterns;

    #[test]
    fn requires_enough_tops() {
        let small = Ftree::new(2, 3, 5).unwrap();
        assert!(YuanDeterministic::new(&small).is_err());
        let ok = Ftree::new(2, 4, 5).unwrap();
        assert!(YuanDeterministic::new(&ok).is_ok());
    }

    #[test]
    fn cross_switch_path_shape() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let r = YuanDeterministic::new(&ft).unwrap();
        // (v=0, i=1) -> (w=3, j=0): top (1, 0) = index 2.
        let pair = SdPair::new(1, 6);
        assert_eq!(r.top_for(pair), 2);
        let path = r.route(pair);
        assert_eq!(path.len(), 4);
        path.validate(ft.topology(), ft.leaf(0, 1), ft.leaf(3, 0))
            .unwrap();
        let nodes = path.nodes(ft.topology());
        assert_eq!(nodes[2], ft.top_ij(1, 0));
    }

    #[test]
    fn same_switch_stays_local() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let r = YuanDeterministic::new(&ft).unwrap();
        let path = r.route(SdPair::new(2, 3)); // both in switch 1
        assert_eq!(path.len(), 2);
        path.validate(ft.topology(), ft.leaf(1, 0), ft.leaf(1, 1))
            .unwrap();
    }

    #[test]
    fn self_pair_is_empty() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let r = YuanDeterministic::new(&ft).unwrap();
        assert!(r.route(SdPair::new(3, 3)).is_empty());
    }

    #[test]
    fn fig3_uplink_single_source() {
        // All pairs routed on uplink v -> (i,j) share source (v,i).
        let ft = Ftree::new(3, 9, 7).unwrap();
        let r = YuanDeterministic::new(&ft).unwrap();
        let n = 3u32;
        for v in 0..7u32 {
            for t in 0..9usize {
                let up = ft.up_channel(v as usize, t);
                let mut sources = std::collections::HashSet::new();
                for s in 0..21u32 {
                    for d in 0..21u32 {
                        if s / n == d / n || s == d {
                            continue;
                        }
                        let path = r.route(SdPair::new(s, d));
                        if path.channels().contains(&up) {
                            sources.insert(s);
                        }
                    }
                }
                assert!(sources.len() <= 1, "uplink {v}->{t} sources {sources:?}");
                // Fig. 3: exactly r-1 = 6 SD pairs on each uplink, all from
                // source (v, i).
            }
        }
    }

    #[test]
    fn random_permutation_is_contention_free() {
        use rand::SeedableRng;
        let ft = Ftree::new(3, 9, 7).unwrap();
        let r = YuanDeterministic::new(&ft).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        for _ in 0..50 {
            let perm = patterns::random_full(21, &mut rng);
            let a = route_all(&r, &perm).unwrap();
            assert!(a.max_channel_load() <= 1, "Theorem 3 violated");
            a.validate(ft.topology()).unwrap();
        }
    }
}
