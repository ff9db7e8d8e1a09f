//! The pairs a [`TopRule`] router sends across each channel of
//! `ftree(n+m, r)`, read off the rule instead of routing `p(p-1)` pairs.
//!
//! Every path of such a router is `leaf up → up(v, top) → down(top, w) →
//! leaf down`, or `leaf up → leaf down` inside one switch, so the pairs
//! crossing a channel are a product `S × D` of two [`PortSet`]s
//! ([`RuleCensus::crossing`]). Two analyzers read that one product: Lemma 1
//! (`engine`) takes the first two elements of each side, and the channel
//! dependency graph (`cdg`) counts the distinct channels the crossing pairs
//! take next, from the sizes of the sides and their residue classes.

use ftclos_routing::TopRule;
use ftclos_topo::Ftree;

/// The ascending port set `{x ∈ [lo, hi) \ [skip₀, skip₁) : x ≡ residue
/// (mod modulus)}`. Under a [`TopRule`] the sources crossing a channel form
/// one such set and the destinations another.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PortSet {
    lo: u64,
    hi: u64,
    skip: [u64; 2],
    modulus: u64,
    residue: u64,
}

impl PortSet {
    /// `[lo, hi)`.
    pub(crate) fn range(lo: u64, hi: u64) -> Self {
        Self {
            lo,
            hi,
            skip: [lo, lo],
            modulus: 1,
            residue: 0,
        }
    }

    /// This set without `[skip₀, skip₁)` (a set skips one range at most).
    pub(crate) fn outside(self, skip: [u64; 2]) -> Self {
        Self { skip, ..self }
    }

    /// This set's elements `≡ residue (mod modulus)` (of a set not yet
    /// restricted to a class).
    pub(crate) fn class(self, modulus: u64, residue: u64) -> Self {
        Self {
            modulus,
            residue,
            ..self
        }
    }

    /// The modulus of the set's residue class (1 when unrestricted).
    pub(crate) fn modulus(&self) -> u64 {
        self.modulus
    }

    /// The least element `≥ x` of the class, ignoring the bounds.
    #[inline]
    fn class_from(&self, x: u64) -> u64 {
        if self.modulus == 1 {
            return x;
        }
        let ahead = self.residue + self.modulus - x % self.modulus;
        x + if ahead >= self.modulus {
            ahead - self.modulus
        } else {
            ahead
        }
    }

    /// `y` if it is in the set, else the next element past the skipped range
    /// (`y` is in the class and at least `lo`).
    #[inline]
    fn settle(&self, mut y: u64) -> Option<u64> {
        if self.skip[0] <= y && y < self.skip[1] {
            y = self.class_from(self.skip[1]);
        }
        (y < self.hi).then_some(y)
    }

    /// The least element.
    #[inline]
    pub(crate) fn first(&self) -> Option<u64> {
        self.settle(self.class_from(self.lo))
    }

    /// The element after element `x`.
    #[inline]
    pub(crate) fn after(&self, x: u64) -> Option<u64> {
        self.settle(x + self.modulus)
    }

    /// Whether the set has no element. A run of `modulus` ports holds one of
    /// every class, which settles most sets without a division.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        let (a, b) = self.runs();
        a - self.lo < self.modulus && self.hi - b < self.modulus && self.first().is_none()
    }

    /// The two runs the set's elements lie in: `[lo, a)` and `[b, hi)`, the
    /// skipped range clipped to the bounds.
    #[inline]
    fn runs(&self) -> (u64, u64) {
        let a = self.skip[0].max(self.lo).min(self.hi);
        (a, self.skip[1].max(a).min(self.hi))
    }

    /// Elements of the class in `[0, x)`.
    #[inline]
    fn below(&self, x: u64) -> u64 {
        if self.modulus == 1 {
            x
        } else {
            (x + self.modulus - 1 - self.residue) / self.modulus
        }
    }

    /// The number of elements, in `O(1)`.
    #[inline]
    pub(crate) fn len(&self) -> u64 {
        let (a, b) = self.runs();
        self.below(a) - self.below(self.lo) + self.below(self.hi) - self.below(b)
    }

    /// How many residues `mod modulus` the elements cover, in `O(1)` (of a
    /// set not yet restricted to a class). Each of the two runs covers an arc
    /// of `Z_modulus`; the answer is the size of the arcs' union.
    pub(crate) fn residues(&self, modulus: u64) -> u64 {
        debug_assert_eq!(self.modulus, 1, "a set restricted to a class");
        let (a, b) = self.runs();
        let arc = |x: u64, y: u64| (x % modulus, (y - x).min(modulus));
        let ((s1, l1), (s2, l2)) = (arc(self.lo, a), arc(b, self.hi));
        if l1 == modulus || l2 == modulus {
            return modulus;
        }
        // Arc 2 seen from arc 1's start is [d, d + l2) on the line; arc 1 is
        // [0, l1) there and again [modulus, modulus + l1) one turn on.
        let d = (s2 + modulus - s1) % modulus;
        let overlap = l1.saturating_sub(d).min(l2) + (d + l2).saturating_sub(modulus).min(l1);
        l1 + l2 - overlap
    }

    /// The elements in ascending order.
    pub(crate) fn iter(self) -> impl Iterator<Item = u32> {
        std::iter::successors(self.first(), move |&x| self.after(x)).map(|x| x as u32)
    }
}

/// The crossing sets of a router that follows a [`TopRule`] on
/// `ftree(n+m, r)`, channel by channel.
///
/// Every path is `leaf up → up(v, top) → down(top, w) → leaf down`, so the
/// pairs crossing a channel are a product `S × D` of two [`PortSet`]s. With
/// `sw(v) = [v·n, v·n+n)`, the near side of a channel of switch `v` is
/// `sw(v)` and the far side the rest; an uplink's sources are near and its
/// destinations far, a downlink's the other way round. The rule then keeps
/// one residue class of one side: the destinations `≡ t (mod m)` under
/// [`TopRule::ByDestination`], the sources `≡ t` under
/// [`TopRule::BySource`], and under [`TopRule::ByIndexPair`] the sources
/// `≡ i` and the destinations `≡ j (mod n)` for `t = i·n + j < n²` (tops
/// `≥ n²` carry nothing). A leaf channel of host `h` carries `{h}` × every
/// other host, or the mirror. A channel is empty when either side is.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RuleCensus {
    pub(crate) n: u64,
    pub(crate) m: u64,
    pub(crate) r: u64,
    pub(crate) ports: u64,
    pub(crate) channels: u64,
    pub(crate) rule: TopRule,
}

impl RuleCensus {
    pub(crate) fn new(ft: &Ftree, rule: TopRule) -> Self {
        Self::of_shape(ft.n() as u64, ft.m() as u64, ft.r() as u64, rule)
    }

    /// The census of `ftree(n+m, r)` without building the fabric.
    pub(crate) fn of_shape(n: u64, m: u64, r: u64, rule: TopRule) -> Self {
        Self {
            n,
            m,
            r,
            ports: n * r,
            channels: 2 * (n * r + m * r),
            rule,
        }
    }

    /// The hosts outside switch `v`.
    pub(crate) fn far(&self, v: u64) -> PortSet {
        let n = self.n;
        PortSet::range(0, self.ports).outside([v * n, v * n + n])
    }

    /// The sources and the destinations of the pairs crossing channel `c`
    /// (channel ids as laid out by [`Ftree`]).
    pub(crate) fn crossing(&self, c: u64) -> (PortSet, PortSet) {
        let m = self.m;
        let everyone = PortSet::range(0, self.ports);
        let (uplink, half) = (c.is_multiple_of(2), c / 2);
        if half < self.ports {
            let host = PortSet::range(half, half + 1);
            let others = everyone.outside([half, half + 1]);
            return if uplink {
                (host, others)
            } else {
                (others, host)
            };
        }
        let cable = half - self.ports;
        self.cable_crossing(cable / m, cable % m, uplink)
    }

    /// [`RuleCensus::crossing`] of `up(v, t)` (`uplink`) or `down(t, v)`.
    #[inline]
    pub(crate) fn cable_crossing(&self, v: u64, t: u64, uplink: bool) -> (PortSet, PortSet) {
        let (n, m) = (self.n, self.m);
        let near = PortSet::range(v * n, v * n + n);
        let far = self.far(v);
        let (src, dst) = if uplink { (near, far) } else { (far, near) };
        match self.rule {
            TopRule::ByDestination => (src, dst.class(m, t)),
            TopRule::BySource => (src.class(m, t), dst),
            TopRule::ByIndexPair if t < n * n => (src.class(n, t / n), dst.class(n, t % n)),
            TopRule::ByIndexPair => (PortSet::range(0, 0), PortSet::range(0, 0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn port_sets_walk_their_class_around_the_skip() {
        let set = |s: PortSet| s.iter().collect::<Vec<_>>();
        let all = PortSet::range(0, 20);
        assert_eq!(set(PortSet::range(3, 6)), [3, 4, 5]);
        assert_eq!(set(PortSet::range(4, 4)), [] as [u32; 0]);
        assert_eq!(set(all.outside([4, 16])), [0, 1, 2, 3, 16, 17, 18, 19]);
        // Residue 1 mod 3 outside [4, 8): 1, (4 and 7 skipped), 10, 13, ...
        assert_eq!(set(all.outside([4, 8]).class(3, 1)), [1, 10, 13, 16, 19]);
        // The skip swallows the class's first element and the set ends.
        assert_eq!(
            set(PortSet::range(0, 9).outside([0, 5]).class(7, 2)),
            [] as [u32; 0]
        );
        assert_eq!(set(PortSet::range(0, 12).outside([0, 5]).class(7, 2)), [9]);
    }

    #[test]
    fn sizes_and_residues_count_what_the_walk_visits() {
        // Every set of the shapes `crossing` builds over a 13-port universe,
        // counted against its own walk.
        for lo in 0..13u64 {
            for hi in lo..=13 {
                for s0 in 0..=13u64 {
                    for s1 in s0..=(s0 + 4).min(13) {
                        let plain = PortSet::range(lo, hi).outside([s0, s1]);
                        let walked: Vec<u64> = plain.iter().map(u64::from).collect();
                        assert_eq!(plain.len(), walked.len() as u64);
                        assert_eq!(plain.is_empty(), walked.is_empty());
                        for modulus in 1..16 {
                            let seen: BTreeSet<u64> = walked.iter().map(|x| x % modulus).collect();
                            assert_eq!(plain.residues(modulus), seen.len() as u64);
                            for residue in 0..modulus {
                                let class = plain.class(modulus, residue);
                                let want = walked.iter().filter(|&&x| x % modulus == residue);
                                assert_eq!(class.len(), want.count() as u64);
                                assert_eq!(class.modulus(), modulus);
                            }
                        }
                    }
                }
            }
        }
    }
}
