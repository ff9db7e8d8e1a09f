//! Centralized rearrangeable routing via bipartite multigraph edge coloring
//! — the classical Beneš `m >= n` construction (paper Section II).
//!
//! The cross-switch SD pairs of a permutation form a bipartite multigraph on
//! (source switch, destination switch) vertices with maximum degree
//! `Δ <= n`. By Kőnig's theorem its edges can be colored with `Δ` colors;
//! assigning color classes to top switches routes the whole permutation
//! with no contention. This **requires global knowledge of the pattern** —
//! it is exactly the "centralized controller" regime the paper contrasts
//! with distributed control, and serves as the global-adaptive comparator.

use crate::assignment::RouteAssignment;
use crate::error::RoutingError;
use crate::path::Path;
use crate::router::PatternRouter;
use ftclos_topo::Ftree;
use ftclos_traffic::Permutation;

/// Edge-coloring rearrangeable router for `ftree(n+m, r)` with `m >= n`.
#[derive(Clone, Copy, Debug)]
pub struct RearrangeableRouter<'a> {
    ft: &'a Ftree,
}

impl<'a> RearrangeableRouter<'a> {
    /// Create the router. Requires the Beneš condition `m >= n` so that any
    /// permutation (degree ≤ n) is colorable within the fabric.
    pub fn new(ft: &'a Ftree) -> Result<Self, RoutingError> {
        if ft.m() < ft.n() {
            return Err(RoutingError::Precondition {
                router: "RearrangeableRouter",
                detail: format!(
                    "Beneš condition m >= n violated (m = {}, n = {})",
                    ft.m(),
                    ft.n()
                ),
            });
        }
        Ok(Self { ft })
    }

    /// Color the cross-switch pairs of `perm`; returns `(colors, edges)`
    /// where `edges[i] = (src_switch, dst_switch, pair_index_in_perm)`.
    fn color_edges(&self, edges: &[(usize, usize)], colors_avail: usize) -> Vec<usize> {
        let r = self.ft.r();
        // left/right slot tables: slot[vertex * colors + color] = edge or usize::MAX.
        const NONE: usize = usize::MAX;
        let mut left = vec![NONE; r * colors_avail];
        let mut right = vec![NONE; r * colors_avail];
        let mut color = vec![NONE; edges.len()];

        for (e, &(u, w)) in edges.iter().enumerate() {
            let a = (0..colors_avail)
                .find(|&c| left[u * colors_avail + c] == NONE)
                .expect("degree < colors so a free color exists at u");
            let b = (0..colors_avail)
                .find(|&c| right[w * colors_avail + c] == NONE)
                .expect("degree < colors so a free color exists at w");
            if a == b {
                color[e] = a;
                left[u * colors_avail + a] = e;
                right[w * colors_avail + a] = e;
                continue;
            }
            // Kempe chain: make color `a` free at `w` by flipping the
            // alternating a/b path that starts at w. In a properly colored
            // graph the path is simple and cannot reach u (u has no
            // a-colored edge), so flipping keeps the coloring proper and
            // frees `a` at `w`. Collect first, then flip, so slot updates
            // never clobber an edge we still need to follow.
            let mut chain = Vec::new();
            let mut on_right = true;
            let mut vertex = w;
            let mut col = a;
            loop {
                let slot = if on_right {
                    right[vertex * colors_avail + col]
                } else {
                    left[vertex * colors_avail + col]
                };
                if slot == NONE {
                    break;
                }
                chain.push(slot);
                vertex = if on_right {
                    edges[slot].0
                } else {
                    edges[slot].1
                };
                on_right = !on_right;
                col = if col == a { b } else { a };
            }
            for &ce in &chain {
                let (u1, w1) = edges[ce];
                let cl = color[ce];
                left[u1 * colors_avail + cl] = NONE;
                right[w1 * colors_avail + cl] = NONE;
            }
            for &ce in &chain {
                let (u1, w1) = edges[ce];
                let new_c = if color[ce] == a { b } else { a };
                color[ce] = new_c;
                left[u1 * colors_avail + new_c] = ce;
                right[w1 * colors_avail + new_c] = ce;
            }
            debug_assert_eq!(right[w * colors_avail + a], NONE);
            color[e] = a;
            left[u * colors_avail + a] = e;
            right[w * colors_avail + a] = e;
        }
        color
    }
}

impl PatternRouter for RearrangeableRouter<'_> {
    fn ports(&self) -> u32 {
        self.ft.num_leaves() as u32
    }

    fn route_pattern(&self, perm: &Permutation) -> Result<RouteAssignment, RoutingError> {
        let ports = self.ports();
        let n = self.ft.n();
        // Collect cross-switch edges.
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let mut edge_pairs = Vec::new();
        let mut local_pairs = Vec::new();
        for &pair in perm.pairs() {
            for port in [pair.src, pair.dst] {
                if port >= ports {
                    return Err(RoutingError::PortOutOfRange { port, ports });
                }
            }
            let v = pair.src as usize / n;
            let w = pair.dst as usize / n;
            if v == w {
                local_pairs.push(pair);
            } else {
                edges.push((v, w));
                edge_pairs.push(pair);
            }
        }
        // Max degree of the multigraph.
        let r = self.ft.r();
        let mut out_deg = vec![0usize; r];
        let mut in_deg = vec![0usize; r];
        for &(u, w) in &edges {
            out_deg[u] += 1;
            in_deg[w] += 1;
        }
        let delta = out_deg
            .iter()
            .chain(in_deg.iter())
            .copied()
            .max()
            .unwrap_or(0);
        if delta > self.ft.m() {
            return Err(RoutingError::NotEnoughTops {
                needed: delta,
                available: self.ft.m(),
            });
        }
        let colors = self.color_edges(&edges, delta.max(1));

        let mut out = RouteAssignment::default();
        for pair in local_pairs {
            let (v, i) = (pair.src as usize / n, pair.src as usize % n);
            let (w, j) = (pair.dst as usize / n, pair.dst as usize % n);
            let path = if pair.src == pair.dst {
                Path::empty()
            } else {
                Path::new(vec![
                    self.ft.leaf_up_channel(v, i),
                    self.ft.leaf_down_channel(w, j),
                ])
            };
            out.push(pair, path);
        }
        for (idx, pair) in edge_pairs.into_iter().enumerate() {
            let (v, i) = (pair.src as usize / n, pair.src as usize % n);
            let (w, j) = (pair.dst as usize / n, pair.dst as usize % n);
            let t = colors[idx];
            out.push(
                pair,
                Path::new(vec![
                    self.ft.leaf_up_channel(v, i),
                    self.ft.up_channel(v, t),
                    self.ft.down_channel(t, w),
                    self.ft.leaf_down_channel(w, j),
                ]),
            );
        }
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "rearrangeable-edge-coloring"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclos_traffic::{enumerate::AllPermutations, patterns, SdPair};
    use rand::SeedableRng;

    #[test]
    fn requires_benes_condition() {
        let bad = Ftree::new(3, 2, 4).unwrap();
        assert!(RearrangeableRouter::new(&bad).is_err());
        let ok = Ftree::new(3, 3, 4).unwrap();
        assert!(RearrangeableRouter::new(&ok).is_ok());
    }

    #[test]
    fn benes_m_equals_n_routes_all_tiny_permutations() {
        // ftree(2+2, 3): m = n = 2; every permutation of 6 leaves must be
        // contention-free under centralized routing (Beneš).
        let ft = Ftree::new(2, 2, 3).unwrap();
        let router = RearrangeableRouter::new(&ft).unwrap();
        for perm in AllPermutations::new(6) {
            let a = router.route_pattern(&perm).unwrap();
            assert!(
                a.max_channel_load() <= 1,
                "Beneš violated for {:?}",
                perm.pairs()
            );
            a.validate(ft.topology()).unwrap();
        }
    }

    #[test]
    fn random_larger_fabrics() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
        for (n, r) in [(3, 5), (4, 7), (5, 6)] {
            let ft = Ftree::new(n, n, r).unwrap();
            let router = RearrangeableRouter::new(&ft).unwrap();
            for _ in 0..30 {
                let perm = patterns::random_full((n * r) as u32, &mut rng);
                let a = router.route_pattern(&perm).unwrap();
                assert!(a.max_channel_load() <= 1, "n={n} r={r}");
            }
        }
    }

    #[test]
    fn partial_patterns_use_few_colors() {
        // A pattern of degree 1 routes entirely through top 0.
        let ft = Ftree::new(3, 3, 4).unwrap();
        let router = RearrangeableRouter::new(&ft).unwrap();
        let perm = Permutation::from_pairs(12, [SdPair::new(0, 3), SdPair::new(3, 0)]).unwrap();
        let a = router.route_pattern(&perm).unwrap();
        let tops = a.tops_used(ft.topology());
        assert_eq!(tops.len(), 1);
        assert!(tops.contains(&ft.top(0)));
    }

    #[test]
    fn structured_patterns() {
        let ft = Ftree::new(4, 4, 4).unwrap();
        let router = RearrangeableRouter::new(&ft).unwrap();
        for pat in patterns::StructuredPattern::ALL {
            if let Some(perm) = pat.generate(16) {
                let a = router.route_pattern(&perm).unwrap();
                assert!(a.max_channel_load() <= 1, "{pat:?}");
            }
        }
    }

    #[test]
    fn local_and_self_pairs() {
        let ft = Ftree::new(2, 2, 3).unwrap();
        let router = RearrangeableRouter::new(&ft).unwrap();
        let perm = Permutation::from_pairs(6, [SdPair::new(0, 1), SdPair::new(3, 3)]).unwrap();
        let a = router.route_pattern(&perm).unwrap();
        let hops: Vec<(SdPair, usize)> = a
            .routes()
            .iter()
            .map(|(p, path)| (*p, path.len()))
            .collect();
        assert_eq!(hops, [(SdPair::new(0, 1), 2), (SdPair::new(3, 3), 0)]);
    }
}
