//! Modular deterministic routings — the InfiniBand-style defaults used as
//! blocking baselines (they satisfy `m < n²` fabrics but then violate the
//! paper's Lemma 1 and block some permutation).

use crate::router::SinglePathRouter;
use ftclos_topo::{ChannelId, Ftree};
use ftclos_traffic::SdPair;

/// Destination-modular routing on `ftree(n+m, r)`: cross-switch pair
/// `(s, d)` uses top switch `d mod m`.
///
/// This spreads destinations evenly over top switches (each downlink
/// `t → w` carries a single destination's traffic, so downlinks never
/// contend) but lets two sources in one switch share an uplink whenever
/// their destinations collide mod `m`.
#[derive(Clone, Copy, Debug)]
pub struct DModK<'a> {
    ft: &'a Ftree,
}

/// Source-modular routing: cross-switch pair `(s, d)` uses top switch
/// `s mod m` — the mirror image of [`DModK`] (uplinks clean, downlinks
/// contend).
#[derive(Clone, Copy, Debug)]
pub struct SModK<'a> {
    ft: &'a Ftree,
}

impl<'a> DModK<'a> {
    /// Create the router (works for any `m >= 1`).
    pub fn new(ft: &'a Ftree) -> Self {
        Self { ft }
    }

    /// Top switch selected for a pair.
    pub(crate) fn top_for(&self, pair: SdPair) -> usize {
        TopRule::ByDestination.top(self.ft, pair)
    }
}

impl<'a> SModK<'a> {
    /// Create the router (works for any `m >= 1`).
    pub fn new(ft: &'a Ftree) -> Self {
        Self { ft }
    }

    /// Top switch selected for a pair.
    pub(crate) fn top_for(&self, pair: SdPair) -> usize {
        TopRule::BySource.top(self.ft, pair)
    }
}

/// How a router of the modular family picks the top switch of a
/// cross-switch pair `(s, d)` on `ftree(n+m, r)`. The rule alone fixes which
/// sources and destinations share each inter-level channel, which is what
/// the proofs of Theorems 2 and 3 read off (and what `ftclos-core` computes
/// the Lemma 1 census from without routing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopRule {
    /// `d mod m` ([`DModK`]).
    ByDestination,
    /// `s mod m` ([`SModK`]).
    BySource,
    /// `(s mod n)·n + d mod n`, the index pair `(i, j)` of Theorem 3
    /// ([`crate::YuanDeterministic`]; needs `m >= n²`).
    ByIndexPair,
}

impl TopRule {
    /// The top switch the rule picks for `pair` on `ft`.
    #[inline]
    pub fn top(self, ft: &Ftree, pair: SdPair) -> usize {
        let (s, d) = (pair.src as usize, pair.dst as usize);
        match self {
            Self::ByDestination => d % ft.m(),
            Self::BySource => s % ft.m(),
            Self::ByIndexPair => (s % ft.n()) * ft.n() + d % ft.n(),
        }
    }
}

/// The one path of the modular family: `leaf up → up(v, top) → down(top, w)
/// → leaf down` across switches, `leaf up → leaf down` within one.
#[inline]
pub(crate) fn modular_route(ft: &Ftree, pair: SdPair, top: usize, out: &mut Vec<ChannelId>) {
    out.clear();
    if pair.src == pair.dst {
        return;
    }
    let n = ft.n();
    let (v, i) = (pair.src as usize / n, pair.src as usize % n);
    let (w, j) = (pair.dst as usize / n, pair.dst as usize % n);
    if v == w {
        out.extend_from_slice(&[ft.leaf_up_channel(v, i), ft.leaf_down_channel(w, j)]);
        return;
    }
    out.extend_from_slice(&[
        ft.leaf_up_channel(v, i),
        ft.up_channel(v, top),
        ft.down_channel(top, w),
        ft.leaf_down_channel(w, j),
    ]);
}

impl SinglePathRouter for DModK<'_> {
    fn ports(&self) -> u32 {
        self.ft.num_leaves() as u32
    }

    fn route_into(&self, pair: SdPair, out: &mut Vec<ChannelId>) {
        modular_route(self.ft, pair, self.top_for(pair), out);
    }

    fn name(&self) -> &'static str {
        "d-mod-k"
    }

    fn top_rule(&self) -> Option<(&Ftree, TopRule)> {
        Some((self.ft, TopRule::ByDestination))
    }
}

impl SinglePathRouter for SModK<'_> {
    fn ports(&self) -> u32 {
        self.ft.num_leaves() as u32
    }

    fn route_into(&self, pair: SdPair, out: &mut Vec<ChannelId>) {
        modular_route(self.ft, pair, self.top_for(pair), out);
    }

    fn name(&self) -> &'static str {
        "s-mod-k"
    }

    fn top_rule(&self) -> Option<(&Ftree, TopRule)> {
        Some((self.ft, TopRule::BySource))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::route_all;
    use ftclos_traffic::adversarial::{downlink_attack_mod, uplink_attack_mod, FtreeShape};
    use ftclos_traffic::Permutation;

    fn shape(ft: &Ftree) -> FtreeShape {
        FtreeShape {
            n: ft.n() as u32,
            m: ft.m() as u32,
            r: ft.r() as u32,
        }
    }

    #[test]
    fn paths_are_valid() {
        let ft = Ftree::new(2, 2, 5).unwrap();
        let r = DModK::new(&ft);
        for s in 0..10u32 {
            for d in 0..10u32 {
                let path = r.route(SdPair::new(s, d));
                path.validate(
                    ft.topology(),
                    ftclos_topo::NodeId(s),
                    ftclos_topo::NodeId(d),
                )
                .unwrap();
            }
        }
    }

    #[test]
    fn dmodk_uplink_attack_blocks() {
        let ft = Ftree::new(2, 2, 5).unwrap();
        let r = DModK::new(&ft);
        let attack = uplink_attack_mod(shape(&ft)).unwrap();
        let a = route_all(&r, &attack).unwrap();
        assert!(a.max_channel_load() >= 2, "adversarial pattern must block");
    }

    #[test]
    fn smodk_downlink_attack_blocks() {
        let ft = Ftree::new(2, 2, 5).unwrap();
        let r = SModK::new(&ft);
        let attack = downlink_attack_mod(shape(&ft)).unwrap();
        let a = route_all(&r, &attack).unwrap();
        assert!(a.max_channel_load() >= 2);
    }

    #[test]
    fn dmodk_downlinks_never_contend() {
        // Each downlink t -> w carries only destinations d with d mod m = t
        // in switch w; a permutation has each destination at most once, and
        // within one (t, w) all pairs share... in fact multiple dests in w
        // can map to t when n > m. Check the *single destination* property
        // only holds when m >= n; here verify loads directly on a full
        // random sweep with m = n (balanced).
        use rand::SeedableRng;
        let ft = Ftree::new(2, 2, 5).unwrap();
        let r = DModK::new(&ft);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        for _ in 0..20 {
            let perm = ftclos_traffic::patterns::random_full(10, &mut rng);
            let a = route_all(&r, &perm).unwrap();
            for (ch, load) in a.channel_loads() {
                let c = ft.topology().channel(ch);
                if ft.top_index(c.src).is_some() {
                    assert!(load <= 1, "downlink contention under d-mod-k with m = n");
                }
            }
        }
    }

    #[test]
    fn dmodk_with_enough_tops_still_blocks() {
        // Even m = n^2 doesn't save d-mod-k: it's the *assignment*, not the
        // count, that matters. n=2, m=4, r=5: sources (0,0),(0,1) to dests
        // 4 and 8 (different switches, both ≡ 0 mod 4).
        let ft = Ftree::new(2, 4, 5).unwrap();
        let r = DModK::new(&ft);
        let perm = Permutation::from_pairs(10, [SdPair::new(0, 4), SdPair::new(1, 8)]).unwrap();
        let a = route_all(&r, &perm).unwrap();
        assert_eq!(a.max_channel_load(), 2, "shared uplink to top 0");
    }

    #[test]
    fn top_for_formulas() {
        let ft = Ftree::new(2, 3, 5).unwrap();
        assert_eq!(DModK::new(&ft).top_for(SdPair::new(0, 7)), 1);
        assert_eq!(SModK::new(&ft).top_for(SdPair::new(7, 0)), 1);
    }
}
