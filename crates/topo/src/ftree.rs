//! The two-level folded-Clos network `ftree(n+m, r)` (paper Fig. 1 (b)).

use crate::builder::TopologyBuilder;
use crate::channel::Channel;
use crate::compact::Cable;
use crate::error::TopoError;
use crate::ids::{ChannelId, NodeId};
use crate::kind::NodeKind;
use crate::ports::Run;
use crate::topology::{Layout, Topology};
use serde::{Deserialize, Serialize};

/// Division by a fixed `d` in `1..=65_536` for dividends below 2³¹, as one
/// multiply and one shift (Granlund and Montgomery, PLDI 1994, Thm 4.2).
///
/// With `ℓ = ⌈log₂ d⌉` and `mul = ⌈2^(31+ℓ) / d⌉`, `mul·d` exceeds
/// `2^(31+ℓ)` by less than `d ≤ 2^ℓ`, which makes `(x·mul) >> (31+ℓ)`
/// equal `x / d` for every `x < 2³¹`. `mul ≤ 2³²`, so the product stays
/// under 2⁶³. At `d = 1` the pair is `(2³¹, 31)`: no special case.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
struct Recip {
    d: u64,
    mul: u64,
    shift: u32,
}

impl Recip {
    fn new(d: u64) -> Self {
        debug_assert!((1..=1 << 16).contains(&d), "divisor {d} out of range");
        let shift = 31 + (64 - (d - 1).leading_zeros());
        Self {
            d,
            mul: (1u64 << shift).div_ceil(d),
            shift,
        }
    }

    /// `(x / d, x % d)`.
    #[inline]
    fn div_rem(self, x: u64) -> (u64, u64) {
        debug_assert!(x < 1 << 31, "dividend {x} out of range");
        let q = (x * self.mul) >> self.shift;
        (q, x - q * self.d)
    }
}

/// The closed form of [`Ftree`]: node ranges and the two cable blocks as
/// functions of `(n, m, r)`, in `u64`.
///
/// Nodes are numbered leaves `(v, k)` at `v·n + k`, bottoms, tops. Cables
/// come in two blocks:
///   A. leaf cables in `(v, k)` order — leaf `v·n + k` to bottom `v`'s
///      down-port `k`;
///   B. uplinks in `(v, t)` order — bottom `v`'s up-port `n + t` to top
///      `t`'s port `v`.
///
/// [`FtreeShape::cable`] is the one definition of the wiring; the implicit
/// [`Topology`] accessors and the stored test oracle both read it. The
/// two divisions it needs, by `n` and by `m`, are multiply-shift
/// reciprocals, because the simulator decodes a channel on every grant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct FtreeShape {
    n: u64,
    m: u64,
    r: u64,
    /// Leaves: the first bottom node id and the first block-B cable.
    leaves: u64,
    /// First top node id.
    tops: u64,
    /// Node count.
    nodes: u64,
    /// Cable count; channels are twice this.
    cables: u64,
    div_n: Recip,
    div_m: Recip,
}

impl FtreeShape {
    /// The shape for `n, m, r >= 1`, or `TooLarge` if its node or channel
    /// ids do not fit in `u32` or a switch has more ports than a `u16`
    /// port index can name.
    fn new(n: usize, m: usize, r: usize) -> Result<Self, TopoError> {
        let (n_, m_, r_) = (n as u128, m as u128, r as u128);
        // Each product is below 2¹²⁸; their sum and its double saturate
        // instead of wrapping for `usize::MAX`-sized arguments.
        let nodes = r_ * n_ + r_ + m_;
        let channels = (r_ * n_).saturating_add(r_ * m_).saturating_mul(2);
        TopologyBuilder::check_size(nodes, channels)?;
        // Bottoms have n + m ports, tops r; leaves one.
        for radix in [n_ + m_, r_] {
            if radix > u128::from(u16::MAX) + 1 {
                return Err(TopoError::TooLarge {
                    what: "radix",
                    size: radix,
                });
            }
        }
        let (n, m, r) = (n as u64, m as u64, r as u64);
        Ok(Self {
            n,
            m,
            r,
            leaves: r * n,
            tops: r * n + r,
            nodes: nodes as u64,
            cables: r * n + r * m,
            div_n: Recip::new(n),
            div_m: Recip::new(m),
        })
    }

    #[inline]
    pub(crate) fn num_channels(&self) -> usize {
        2 * self.cables as usize
    }

    /// Cable `l`: its endpoints and the port each end gives it.
    #[inline]
    pub(crate) fn cable(&self, l: u64) -> Cable {
        // One division either way, its operands selected rather than
        // branched on: the simulator decodes leaf cables and uplinks in no
        // predictable order.
        let leaf = l < self.leaves;
        let (x, recip) = if leaf {
            (l, self.div_n)
        } else {
            (l - self.leaves, self.div_m)
        };
        let (q, rem) = recip.div_rem(x);
        let (a, b, port_a, port_b) = if leaf {
            // Leaf `(q, rem)` to bottom `q`'s down-port `rem`.
            (l, self.leaves + q, 0, rem)
        } else {
            // Bottom `q`'s up-port `n + rem` to top `rem`'s port `q`.
            (self.leaves + q, self.tops + rem, self.n + rem, q)
        };
        // Every term is below `nodes` or a radix, both checked in `new`.
        Cable {
            a: a as u32,
            b: b as u32,
            port_a: port_a as u32,
            port_b: port_b as u32,
        }
    }

    /// The record of channel `c`.
    ///
    /// # Panics
    /// Panics if `c` is out of range.
    #[inline]
    pub(crate) fn channel(&self, c: ChannelId) -> Channel {
        let l = u64::from(c.0 >> 1);
        assert!(l < self.cables, "channel {c:?} out of range");
        self.cable(l).channel(c.0 & 1 == 1)
    }

    /// `node`'s out-channels in port order as two runs; its in-channels are
    /// the same runs with the low id bit flipped.
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    #[inline]
    pub(crate) fn out_runs(&self, node: NodeId) -> [Run; 2] {
        let x = u64::from(node.0);
        // Ids are below 2³², checked in `new`.
        let run = |base: u64, stride: u64, len: u64| Run {
            base: base as u32,
            stride: stride as u32,
            len: len as u32,
        };
        if x < self.leaves {
            // One uplink.
            [run(2 * x, 2, 1), Run::EMPTY]
        } else if x < self.tops {
            // Ports 0..n down to the leaves, n..n+m up to the tops.
            let v = x - self.leaves;
            [
                run(2 * v * self.n + 1, 2, self.n),
                run(2 * (self.leaves + v * self.m), 2, self.m),
            ]
        } else {
            assert!(x < self.nodes, "node {node} out of range");
            // Port v down to bottom v, whose uplinks sit m cables apart.
            let t = x - self.tops;
            [
                run(2 * (self.leaves + t) + 1, 2 * self.m, self.r),
                Run::EMPTY,
            ]
        }
    }
}

/// `ftree(n+m, r)`: `r` bottom-level `(n+m)`-port switches, `m` top-level
/// `r`-port switches, and `r·n` leaf nodes.
///
/// Numbering follows the paper (Section III):
/// * bottom switches `v ∈ 0..r`,
/// * top switches `t ∈ 0..m` — when `m = n²` the pair form `(i, j)` with
///   `t = i·n + j` is also available ([`Ftree::top_ij`]), as used by the
///   Theorem 3 routing,
/// * leaf `(v, k)` is the `k`-th node of bottom switch `v`, `k ∈ 0..n`.
///
/// Node-id layout (dense): leaves `0..r·n`, bottoms `r·n..r·n+r`, tops
/// `r·n+r..r·n+r+m`. Channel-id layout is closed-form so routing code can
/// compute channel ids without adjacency searches; see the `*_channel`
/// methods. The topology is implicit: every channel record, adjacency
/// list and reverse pair is computed from the two cable blocks of
/// `FtreeShape`, so building it costs `O(nodes)` and holding it two bytes
/// a node.
///
/// ```
/// use ftclos_topo::Ftree;
///
/// let ft = Ftree::new(3, 9, 7).unwrap(); // ftree(3+9, 7)
/// assert_eq!(ft.num_leaves(), 21);
/// assert_eq!(ft.topology().radix(ft.bottom(0)), 12); // (n+m)-port switch
/// assert_eq!(ft.topology().radix(ft.top(0)), 7);     // r-port switch
/// // Theorem 3 coordinates: top (i, j) is index i·n + j.
/// assert_eq!(ft.top_ij(1, 2), ft.top(5));
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Ftree {
    n: usize,
    m: usize,
    r: usize,
    topo: Topology,
}

impl Ftree {
    /// Build `ftree(n+m, r)`: its node kinds and its closed form; nothing
    /// per channel is stored.
    ///
    /// # Errors
    /// [`TopoError::InvalidParameter`] unless all of `n`, `m`, `r` are at
    /// least 1; [`TopoError::TooLarge`] when the node or channel ids
    /// overflow `u32` or a switch radix (`n + m` or `r`) exceeds 65,536.
    pub fn new(n: usize, m: usize, r: usize) -> Result<Self, TopoError> {
        for (name, value) in [("n", n), ("m", m), ("r", r)] {
            if value == 0 {
                return Err(TopoError::InvalidParameter {
                    name,
                    value,
                    requirement: "must be >= 1",
                });
            }
        }
        let shape = FtreeShape::new(n, m, r)?;
        let mut kinds = Vec::with_capacity(shape.nodes as usize);
        kinds.resize(r * n, NodeKind::Leaf);
        kinds.resize(r * n + r, NodeKind::Switch { level: 1 });
        kinds.resize(r * n + r + m, NodeKind::Switch { level: 2 });
        let topo = Topology {
            kinds,
            channels: Vec::new(),
            layout: Layout::Ftree(shape),
        };
        Ok(Self { n, m, r, topo })
    }

    /// The Lemma 2 subgraph `ftree(n+1, r)` (paper Fig. 2): the same bottom
    /// layer with a single top-level switch.
    pub fn lemma2_subgraph(n: usize, r: usize) -> Result<Self, TopoError> {
        Self::new(n, 1, r)
    }

    /// Leaves per bottom switch (`n`).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of top-level switches (`m`).
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of bottom-level switches (`r`).
    #[inline]
    pub fn r(&self) -> usize {
        self.r
    }

    /// Number of leaf nodes (`r·n`), i.e. the port count of the fabric.
    #[inline]
    pub fn num_leaves(&self) -> usize {
        self.r * self.n
    }

    /// Total switch count (`r + m`).
    #[inline]
    pub fn num_switches(&self) -> usize {
        self.r + self.m
    }

    /// Underlying flat topology.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Node id of leaf `(v, k)`.
    ///
    /// # Panics
    /// Debug-panics if `v >= r` or `k >= n`.
    #[inline]
    pub fn leaf(&self, v: usize, k: usize) -> NodeId {
        debug_assert!(v < self.r && k < self.n);
        NodeId((v * self.n + k) as u32)
    }

    /// Node id of bottom switch `v`.
    #[inline]
    pub fn bottom(&self, v: usize) -> NodeId {
        debug_assert!(v < self.r);
        NodeId((self.r * self.n + v) as u32)
    }

    /// Node id of top switch `t`.
    #[inline]
    pub fn top(&self, t: usize) -> NodeId {
        debug_assert!(t < self.m);
        NodeId((self.r * self.n + self.r + t) as u32)
    }

    /// Node id of top switch `(i, j)` under the Theorem 3 numbering
    /// (`t = i·n + j`); valid whenever `i·n + j < m`.
    #[inline]
    pub fn top_ij(&self, i: usize, j: usize) -> NodeId {
        debug_assert!(i < self.n && j < self.n);
        self.top(i * self.n + j)
    }

    /// `(v, k)` coordinates of a leaf node id.
    ///
    /// Returns `None` if `id` is not a leaf of this fabric.
    #[inline]
    pub fn leaf_coords(&self, id: NodeId) -> Option<(usize, usize)> {
        let idx = id.index();
        (idx < self.r * self.n).then(|| (idx / self.n, idx % self.n))
    }

    /// Bottom-switch index of a bottom node id, if it is one.
    #[inline]
    pub fn bottom_index(&self, id: NodeId) -> Option<usize> {
        let base = self.r * self.n;
        let idx = id.index();
        (idx >= base && idx < base + self.r).then(|| idx - base)
    }

    /// Top-switch index of a top node id, if it is one.
    #[inline]
    pub fn top_index(&self, id: NodeId) -> Option<usize> {
        let base = self.r * self.n + self.r;
        let idx = id.index();
        (idx >= base && idx < base + self.m).then(|| idx - base)
    }

    /// Channel id of the uplink leaf `(v, k)` → bottom `v`.
    #[inline]
    pub fn leaf_up_channel(&self, v: usize, k: usize) -> ChannelId {
        debug_assert!(v < self.r && k < self.n);
        ChannelId((2 * (v * self.n + k)) as u32)
    }

    /// Channel id of the downlink bottom `v` → leaf `(v, k)`.
    #[inline]
    pub fn leaf_down_channel(&self, v: usize, k: usize) -> ChannelId {
        debug_assert!(v < self.r && k < self.n);
        ChannelId((2 * (v * self.n + k) + 1) as u32)
    }

    /// Channel id of the uplink bottom `v` → top `t`.
    #[inline]
    pub fn up_channel(&self, v: usize, t: usize) -> ChannelId {
        debug_assert!(v < self.r && t < self.m);
        ChannelId((2 * self.r * self.n + 2 * (v * self.m + t)) as u32)
    }

    /// Channel id of the downlink top `t` → bottom `v`.
    #[inline]
    pub fn down_channel(&self, t: usize, v: usize) -> ChannelId {
        debug_assert!(v < self.r && t < self.m);
        ChannelId((2 * self.r * self.n + 2 * (v * self.m + t) + 1) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compact::build_paired_csr;
    use crate::topology::assert_same_graph;
    use proptest::prelude::*;

    fn shape(ft: &Ftree) -> FtreeShape {
        match ft.topology().layout {
            Layout::Ftree(shape) => shape,
            _ => unreachable!("ftree is implicit"),
        }
    }

    /// The stored oracle: the same `FtreeShape::cable` wiring,
    /// materialized as channel records and CSR adjacency.
    fn stored_oracle(ft: &Ftree) -> Topology {
        let (n, m, r) = (ft.n(), ft.m(), ft.r());
        let degree = |x: usize| match x {
            _ if x < r * n => 1,
            _ if x < r * n + r => n + m,
            _ => r,
        };
        let shape = shape(ft);
        build_paired_csr(ft.topology().kinds.clone(), degree, r * n + r * m, |l| {
            shape.cable(l as u64)
        })
        .unwrap()
    }

    fn check_against_oracle(n: usize, m: usize, r: usize) {
        let ft = Ftree::new(n, m, r).unwrap();
        let (imp, st) = (ft.topology(), &stored_oracle(&ft));
        assert_same_graph(imp, st, &format!("ftree({n}+{m}, {r})"));
        for v in [0, r - 1] {
            assert_eq!(imp.radix(ft.bottom(v)), n + m);
        }
        for t in [0, m - 1] {
            assert_eq!(imp.radix(ft.top(t)), r);
        }
        let leaf0 = ft.leaf(0, 0);
        assert_eq!(imp.bfs_distances(leaf0), st.bfs_distances(leaf0));
    }

    /// Every accessor of the implicit layout equals the stored oracle built
    /// from the same cable function: n = 1 and m = 1 (a reciprocal of 1,
    /// the Lemma 2 subgraph), r = 1, m = n² ± 1, and both u16 port limits.
    #[test]
    fn implicit_matches_stored() {
        for n in 1..=4 {
            let ms = [1, 2, n * n - 1, n * n, n * n + 1, 2 * n * n + 3];
            for m in ms.into_iter().filter(|&m| m >= 1) {
                for r in [1, 2, 3, 2 * n + 1, 7] {
                    check_against_oracle(n, m, r);
                }
            }
            let sub = Ftree::lemma2_subgraph(n, 5).unwrap();
            assert_same_graph(sub.topology(), &stored_oracle(&sub), "lemma2");
        }
        // Top radix r = 65,536 and bottom radix n + m = 65,536: the largest
        // port index a u16 names.
        for (n, m, r) in [
            (1, 1, 65_536),
            (1, 65_535, 1),
            (65_535, 1, 2),
            (3, 65_533, 2),
        ] {
            check_against_oracle(n, m, r);
        }
        for (n, m, r, radix) in [
            (1, 1, 65_537, 65_537),
            (1, 65_536, 1, 65_537),
            (65_536, 1, 1, 65_537),
        ] {
            assert!(
                matches!(
                    Ftree::new(n, m, r),
                    Err(TopoError::TooLarge { what: "radix", size }) if size == radix
                ),
                "ftree({n}+{m}, {r})"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The same comparison over larger random shapes.
        #[test]
        fn implicit_matches_stored_on_random_shapes(
            n in 1usize..=12,
            m in 1usize..=160,
            r in 1usize..=40,
        ) {
            check_against_oracle(n, m, r);
        }
    }

    /// The multiply-shift reciprocal equals `/` and `%` for every divisor a
    /// shape can hold, at both ends of the dividend range and around
    /// multiples of the divisor.
    #[test]
    fn reciprocal_divides_exactly() {
        const TOP: u64 = (1 << 31) - 1;
        for d in 1..=1u64 << 16 {
            let recip = Recip::new(d);
            let near = [TOP / d * d, (TOP / d - 1) * d, d, 7 * d];
            let xs = [0, 1, d - 1, TOP, TOP - 1]
                .into_iter()
                .chain(near.iter().flat_map(|&q| [q.saturating_sub(1), q, q + 1]))
                .filter(|&x| x <= TOP);
            for x in xs {
                assert_eq!(recip.div_rem(x), (x / d, x % d), "{x} / {d}");
            }
        }
    }

    /// The million-host fabric of E27 and `scale-million` stores its node
    /// kinds and nothing else; its last channel decodes at the top of the
    /// id range.
    #[test]
    fn million_hosts_store_node_kinds_only() {
        let ft = Ftree::new(32, 1024, 32_768).unwrap();
        let t = ft.topology();
        assert_eq!(t.num_nodes(), 1_082_368);
        assert_eq!(t.num_channels(), 69_206_016);
        assert_eq!(
            t.memory_bytes(),
            1_082_368 * std::mem::size_of::<NodeKind>()
        );
        let last = ft.down_channel(1023, 32_767);
        assert_eq!(last.index(), t.num_channels() - 1);
        let ch = t.channel(last);
        assert_eq!((ch.src, ch.dst), (ft.top(1023), ft.bottom(32_767)));
        assert_eq!((ch.src_port, ch.dst_port), (32_767, 32 + 1023));
        assert_eq!(t.channel_between(ch.src, ch.dst), Ok(last));
        assert_eq!(t.reverse(last), Some(ft.up_channel(32_767, 1023)));
        assert_eq!(t.out_channels(ch.src).last(), Some(last));
        assert_eq!(
            t.in_channels(ft.leaf(32_767, 31)).first(),
            Some(ft.leaf_down_channel(32_767, 31))
        );
    }

    #[test]
    fn rejects_zero_parameters() {
        assert!(Ftree::new(0, 1, 1).is_err());
        assert!(Ftree::new(1, 0, 1).is_err());
        assert!(Ftree::new(1, 1, 0).is_err());
    }

    /// Arguments whose channel count passes 2¹²⁸ are refused, not wrapped
    /// or overflowed.
    #[test]
    fn refuses_shapes_past_the_id_space() {
        for (n, m, r) in [(1, usize::MAX, usize::MAX), (usize::MAX, 1, usize::MAX)] {
            assert!(matches!(
                Ftree::new(n, m, r),
                Err(TopoError::TooLarge { what: "nodes", .. })
            ));
        }
        // Both radices at the u16 limit: 2³³ channels.
        assert!(matches!(
            Ftree::new(1, 65_535, 65_536),
            Err(TopoError::TooLarge {
                what: "channels",
                size: 8_589_934_592
            })
        ));
    }

    #[test]
    fn element_counts() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        assert_eq!(ft.num_leaves(), 10);
        assert_eq!(ft.num_switches(), 9);
        assert_eq!(ft.topology().num_nodes(), 19);
        // 10 leaf cables + 5*4 uplink cables, two channels each.
        assert_eq!(ft.topology().num_channels(), 2 * (10 + 20));
        ft.topology().audit().unwrap();
    }

    #[test]
    fn closed_form_channels_match_adjacency() {
        let ft = Ftree::new(3, 5, 4).unwrap();
        let t = ft.topology();
        for v in 0..4 {
            for k in 0..3 {
                let up = ft.leaf_up_channel(v, k);
                assert_eq!(t.channel(up).src, ft.leaf(v, k));
                assert_eq!(t.channel(up).dst, ft.bottom(v));
                let down = ft.leaf_down_channel(v, k);
                assert_eq!(t.channel(down).src, ft.bottom(v));
                assert_eq!(t.channel(down).dst, ft.leaf(v, k));
                assert_eq!(t.reverse(up), Some(down));
            }
            for tt in 0..5 {
                let up = ft.up_channel(v, tt);
                assert_eq!(t.channel(up).src, ft.bottom(v));
                assert_eq!(t.channel(up).dst, ft.top(tt));
                let down = ft.down_channel(tt, v);
                assert_eq!(t.channel(down).src, ft.top(tt));
                assert_eq!(t.channel(down).dst, ft.bottom(v));
                assert_eq!(t.reverse(up), Some(down));
            }
        }
    }

    #[test]
    fn switch_radices() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let t = ft.topology();
        for v in 0..5 {
            assert_eq!(
                t.radix(ft.bottom(v)),
                2 + 4,
                "bottom is an (n+m)-port switch"
            );
        }
        for tt in 0..4 {
            assert_eq!(t.radix(ft.top(tt)), 5, "top is an r-port switch");
        }
    }

    #[test]
    fn coordinates_roundtrip() {
        let ft = Ftree::new(3, 9, 7).unwrap();
        for v in 0..7 {
            for k in 0..3 {
                assert_eq!(ft.leaf_coords(ft.leaf(v, k)), Some((v, k)));
            }
            assert_eq!(ft.bottom_index(ft.bottom(v)), Some(v));
        }
        for t in 0..9 {
            assert_eq!(ft.top_index(ft.top(t)), Some(t));
        }
        assert_eq!(ft.leaf_coords(ft.bottom(0)), None);
        assert_eq!(ft.bottom_index(ft.leaf(0, 0)), None);
        assert_eq!(ft.top_index(ft.bottom(0)), None);
    }

    #[test]
    fn top_ij_numbering() {
        let ft = Ftree::new(3, 9, 7).unwrap();
        assert_eq!(ft.top_ij(0, 0), ft.top(0));
        assert_eq!(ft.top_ij(1, 2), ft.top(5));
        assert_eq!(ft.top_ij(2, 2), ft.top(8));
    }

    #[test]
    fn lemma2_subgraph_is_tree() {
        let sub = Ftree::lemma2_subgraph(2, 5).unwrap();
        assert_eq!(sub.m(), 1);
        assert_eq!(sub.topology().switches_at_level(2).count(), 1);
        // Root has r children.
        let root = sub.top(0);
        assert_eq!(sub.topology().out_channels(root).len(), 5);
    }

    #[test]
    fn leaf_reachability() {
        let ft = Ftree::new(2, 2, 3).unwrap();
        let d = ft.topology().bfs_distances(ft.leaf(0, 0));
        // Same-switch leaf at distance 2, cross-switch at 4.
        assert_eq!(d[ft.leaf(0, 1).index()], 2);
        assert_eq!(d[ft.leaf(2, 1).index()], 4);
        assert!(d.iter().all(|&x| x != u32::MAX), "fabric is connected");
    }
}
