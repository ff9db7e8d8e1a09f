//! Generic up*/down* routing for extended generalized fat trees.
//!
//! Every fat-tree variant (k-ary n-tree, m-port n-tree, …) routes the same
//! way: climb from the source leaf to a *nearest common ancestor* (NCA)
//! level — choosing one of `w_i` parents at each step, which is where all
//! path diversity lives — then descend along the unique downward path to
//! the destination. This module implements the family:
//!
//! * [`XgftRouter::dmod`] — destination-digit parent choice (`y_i = x_i(dst) mod
//!   w_i`), the multi-level generalization of `d mod k`;
//! * [`XgftRouter::smod`] — source-digit parent choice;
//! * `XgftRouter::route_via` — explicit parent choices, the primitive for
//!   multipath and randomized (Valiant/Greenberg-Leiserson style) schemes.
//!
//! These are the distributed routings the paper's related work runs on
//! k-ary n-trees; they are all *blocking* (Theorem 2 applies level-wise),
//! which the tests demonstrate.

use crate::path::Path;
use crate::router::SinglePathRouter;
use ftclos_topo::{ChannelId, Xgft};
use ftclos_traffic::SdPair;

/// How upward parent choices are made.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum UpChoice {
    /// `y_i = x_i(dst) mod w_i` — destination-based (d-mod-k family).
    DestDigit,
    /// `y_i = x_i(src) mod w_i` — source-based.
    SrcDigit,
}

/// Up*/down* router over an [`Xgft`].
#[derive(Clone, Copy, Debug)]
pub struct XgftRouter<'a> {
    xgft: &'a Xgft,
    choice: UpChoice,
}

impl<'a> XgftRouter<'a> {
    /// Destination-digit routing.
    pub fn dmod(xgft: &'a Xgft) -> Self {
        Self {
            xgft,
            choice: UpChoice::DestDigit,
        }
    }

    /// Source-digit routing.
    pub fn smod(xgft: &'a Xgft) -> Self {
        Self {
            xgft,
            choice: UpChoice::SrcDigit,
        }
    }

    /// Digit `x_i` (1-indexed tier) of a leaf index: leaves are mixed-radix
    /// numbers over `(m_h, …, m_1)`, most significant first.
    fn leaf_digit(&self, leaf: usize, i: usize) -> usize {
        let ms = self.xgft.ms();
        let below: usize = ms[..i - 1].iter().product();
        (leaf / below) % ms[i - 1]
    }

    /// Nearest-common-ancestor level of two leaves: the highest tier whose
    /// digits differ (0 if the leaves are equal).
    pub(crate) fn nca_level(&self, a: usize, b: usize) -> usize {
        let h = self.xgft.height();
        for i in (1..=h).rev() {
            if self.leaf_digit(a, i) != self.leaf_digit(b, i) {
                return i;
            }
        }
        0
    }

    /// Index of the level-`i` parent of level-`(i-1)` node `child` under
    /// parent choice `y_i` (mirrors the builder's wiring rule).
    fn parent_index(&self, i: usize, child: usize, y_i: usize) -> usize {
        let ws = self.xgft.ws();
        let ms = self.xgft.ms();
        let wp: usize = ws[..i - 1].iter().product();
        let x = child / wp;
        let y = child % wp;
        let x_hi = x / ms[i - 1];
        (x_hi * ws[i - 1] + y_i) * wp + y
    }

    /// Index of the level-`(i-1)` child of level-`i` node `parent` on the
    /// way down to a leaf whose tier-`i` digit is `x_i`.
    fn child_index(&self, i: usize, parent: usize, x_i: usize) -> usize {
        let ws = self.xgft.ws();
        let ms = self.xgft.ms();
        let wp: usize = ws[..i - 1].iter().product();
        let x_hi = parent / (ws[i - 1] * wp);
        let y = parent % wp;
        (x_hi * ms[i - 1] + x_i) * wp + y
    }

    /// Route with explicit upward parent choices `ys[i]` for the climb step
    /// into level `i+1` (only the first `nca_level - ?` entries are used;
    /// missing entries default to 0). This is the primitive for multipath
    /// and randomized routing.
    pub(crate) fn route_via(&self, pair: SdPair, ys: &[usize]) -> Path {
        let mut channels = Vec::new();
        self.walk(pair, |i| ys.get(i - 1).copied().unwrap_or(0), &mut channels);
        Path::new(channels)
    }

    /// The up*/down* walk through the nearest common ancestor, written into
    /// `out`: `y_of(i)` picks (modulo `w_i`) the parent for the climb into
    /// level `i`.
    fn walk(&self, pair: SdPair, y_of: impl Fn(usize) -> usize, out: &mut Vec<ChannelId>) {
        out.clear();
        let (s, d) = (pair.src as usize, pair.dst as usize);
        if s == d {
            return;
        }
        let topo = self.xgft.topology();
        let nca = self.nca_level(s, d);
        out.reserve(2 * nca);
        // Climb.
        let mut idx = s;
        for i in 1..=nca {
            let y = y_of(i) % self.xgft.ws()[i - 1];
            let parent = self.parent_index(i, idx, y);
            let from = self.xgft.node(i - 1, idx);
            let to = self.xgft.node(i, parent);
            out.push(topo.channel_between(from, to).expect("tree wiring"));
            idx = parent;
        }
        // Descend.
        for i in (1..=nca).rev() {
            let x_i = self.leaf_digit(d, i);
            let child = self.child_index(i, idx, x_i);
            let from = self.xgft.node(i, idx);
            let to = self.xgft.node(i - 1, child);
            out.push(topo.channel_between(from, to).expect("tree wiring"));
            idx = child;
        }
        debug_assert_eq!(idx, d);
    }

    /// All distinct paths between a pair (the product of parent choices up
    /// to the NCA level). Sizes grow as `∏ w_i`; intended for small fabrics
    /// and multipath policies.
    pub fn all_paths(&self, pair: SdPair) -> Vec<Path> {
        let (s, d) = (pair.src as usize, pair.dst as usize);
        let nca = self.nca_level(s, d);
        if nca == 0 {
            return vec![self.route_via(pair, &[])];
        }
        let ws = &self.xgft.ws()[..nca];
        let mut choices = vec![0usize; nca];
        let mut out = Vec::new();
        loop {
            out.push(self.route_via(pair, &choices));
            // Odometer.
            let mut i = 0;
            loop {
                if i == nca {
                    return out;
                }
                choices[i] += 1;
                if choices[i] < ws[i] {
                    break;
                }
                choices[i] = 0;
                i += 1;
            }
        }
    }
}

impl SinglePathRouter for XgftRouter<'_> {
    fn ports(&self) -> u32 {
        self.xgft.num_leaves() as u32
    }

    fn route_into(&self, pair: SdPair, out: &mut Vec<ChannelId>) {
        let reference = match self.choice {
            UpChoice::DestDigit => pair.dst as usize,
            UpChoice::SrcDigit => pair.src as usize,
        };
        self.walk(pair, |i| self.leaf_digit(reference, i), out);
    }

    fn name(&self) -> &'static str {
        match self.choice {
            UpChoice::DestDigit => "xgft-dest-digit",
            UpChoice::SrcDigit => "xgft-src-digit",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::route_all;
    use ftclos_topo::{kary_ntree, mport_ntree, NodeId, Xgft};
    use ftclos_traffic::patterns;
    use rand::SeedableRng;

    #[test]
    fn all_paths_are_valid_walks() {
        let t = kary_ntree(2, 3).unwrap();
        let router = XgftRouter::dmod(&t);
        for s in 0..8u32 {
            for d in 0..8u32 {
                for path in router.all_paths(SdPair::new(s, d)) {
                    path.validate(t.topology(), NodeId(s), NodeId(d))
                        .unwrap_or_else(|e| panic!("({s},{d}): {e}"));
                }
            }
        }
    }

    #[test]
    fn deterministic_route_is_one_of_all_paths() {
        let t = kary_ntree(3, 2).unwrap();
        let router = XgftRouter::dmod(&t);
        for s in 0..9u32 {
            for d in 0..9u32 {
                let route = router.route(SdPair::new(s, d));
                assert!(router.all_paths(SdPair::new(s, d)).contains(&route));
            }
        }
    }

    #[test]
    fn nca_levels() {
        // 2-ary 3-tree: leaves are 3-bit numbers, digit i = bit i-1.
        let t = kary_ntree(2, 3).unwrap();
        let router = XgftRouter::dmod(&t);
        assert_eq!(router.nca_level(0, 0), 0);
        assert_eq!(router.nca_level(0, 1), 1);
        assert_eq!(router.nca_level(0, 2), 2);
        assert_eq!(router.nca_level(0, 4), 3);
        assert_eq!(router.nca_level(3, 7), 3);
        // Path length = 2 * NCA level.
        assert_eq!(router.route(SdPair::new(0, 4)).len(), 6);
        assert_eq!(router.route(SdPair::new(0, 1)).len(), 2);
    }

    #[test]
    fn path_diversity_matches_w_product() {
        let t = kary_ntree(2, 3).unwrap(); // w = (1, 2, 2)
        let router = XgftRouter::dmod(&t);
        // NCA at level 3: 1 * 2 * 2 = 4 distinct paths.
        let paths = router.all_paths(SdPair::new(0, 7));
        assert_eq!(paths.len(), 4);
        let set: std::collections::HashSet<_> = paths.into_iter().collect();
        assert_eq!(set.len(), 4, "all distinct");
        // NCA at level 1: single path.
        assert_eq!(router.all_paths(SdPair::new(0, 1)).len(), 1);
    }

    #[test]
    fn ftree_equivalent_matches_2level_shape() {
        // XGFT(2; n, r; 1, m) dest-digit routing should produce 4-hop
        // cross-switch paths and 2-hop local paths, like the Ftree routers.
        let x = Xgft::ftree_equivalent(2, 3, 4).unwrap();
        let router = XgftRouter::dmod(&x);
        assert_eq!(router.route(SdPair::new(0, 1)).len(), 2);
        assert_eq!(router.route(SdPair::new(0, 7)).len(), 4);
    }

    #[test]
    fn mport_ntree_routing_works() {
        let t = mport_ntree(4, 3).unwrap(); // 16 leaves, 3 levels
        let router = XgftRouter::dmod(&t);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        for _ in 0..10 {
            let perm = patterns::random_full(16, &mut rng);
            let a = route_all(&router, &perm).unwrap();
            a.validate(t.topology()).unwrap();
        }
    }

    #[test]
    fn dmod_on_kary_tree_blocks_some_permutation() {
        // k-ary n-trees under deterministic routing are not nonblocking
        // (the paper's general point); exhibit it via the two-pair search.
        let t = kary_ntree(2, 3).unwrap();
        let router = XgftRouter::dmod(&t);
        let witness = ftclos_traffic::enumerate::TwoPairs::new(8, true).find(|perm| {
            let [a, b] = perm.pairs() else { return false };
            let (pa, pb) = (router.route(*a), router.route(*b));
            pa.channels().iter().any(|c| pb.channels().contains(c))
        });
        assert!(witness.is_some(), "k-ary n-tree + d-mod must block");
    }

    #[test]
    fn smod_mirror() {
        let t = kary_ntree(2, 3).unwrap();
        let router = XgftRouter::smod(&t);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(6);
        let perm = patterns::random_full(8, &mut rng);
        let a = route_all(&router, &perm).unwrap();
        a.validate(t.topology()).unwrap();
        assert_eq!(SinglePathRouter::name(&router), "xgft-src-digit");
    }

    #[test]
    fn route_via_respects_choices() {
        let t = kary_ntree(2, 2).unwrap(); // w = (1, 2)
        let router = XgftRouter::dmod(&t);
        let p0 = router.route_via(SdPair::new(0, 3), &[0, 0]);
        let p1 = router.route_via(SdPair::new(0, 3), &[0, 1]);
        assert_ne!(p0, p1, "different top-level parent");
        // Both still valid.
        p0.validate(t.topology(), NodeId(0), NodeId(3)).unwrap();
        p1.validate(t.topology(), NodeId(0), NodeId(3)).unwrap();
    }
}
