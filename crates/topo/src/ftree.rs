//! The two-level folded-Clos network `ftree(n+m, r)` (paper Fig. 1 (b)).

use crate::builder::TopologyBuilder;
use crate::compact::{build_paired_csr, Cable};
use crate::error::TopoError;
use crate::ids::{ChannelId, NodeId};
use crate::kind::NodeKind;
use crate::topology::Topology;
use serde::{Deserialize, Serialize};

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
/// methods.
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
    /// Build `ftree(n+m, r)`.
    ///
    /// # Errors
    /// All of `n`, `m`, `r` must be at least 1 and the resulting element
    /// counts must fit the `u32` index space.
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
        let nodes = (r as u128) * (n as u128) + r as u128 + m as u128;
        let channels = 2 * ((r as u128) * (n as u128) + (r as u128) * (m as u128));
        TopologyBuilder::check_size(nodes, channels)?;

        let mut kinds = Vec::with_capacity(nodes as usize);
        kinds.resize(r * n, NodeKind::Leaf);
        kinds.resize(r * n + r, NodeKind::Switch { level: 1 });
        kinds.resize(r * n + r + m, NodeKind::Switch { level: 2 });

        // Cable layout mirrors the historical connect order exactly, so the
        // closed-form `*_channel` ids below stay valid: leaf cables first
        // (bottom down-ports 0..n), then uplinks in (v, t) order (bottom
        // up-ports n..n+m; top switch t's port to bottom v is v).
        let leaf_cables = r * n;
        let topo = build_paired_csr(
            kinds,
            |x| {
                if x < r * n {
                    1
                } else if x < r * n + r {
                    n + m
                } else {
                    r
                }
            },
            leaf_cables + r * m,
            |l| {
                if l < leaf_cables {
                    Cable {
                        a: l as u32,
                        b: (r * n + l / n) as u32,
                        port_a: 0,
                        port_b: (l % n) as u32,
                    }
                } else {
                    let (v, t) = ((l - leaf_cables) / m, (l - leaf_cables) % m);
                    Cable {
                        a: (r * n + v) as u32,
                        b: (r * n + r + t) as u32,
                        port_a: (n + t) as u32,
                        port_b: v as u32,
                    }
                }
            },
        )?;
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

    #[test]
    fn rejects_zero_parameters() {
        assert!(Ftree::new(0, 1, 1).is_err());
        assert!(Ftree::new(1, 0, 1).is_err());
        assert!(Ftree::new(1, 1, 0).is_err());
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
