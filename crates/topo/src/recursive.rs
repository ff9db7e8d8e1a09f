//! The paper's Discussion-section recursive construction: a three-level
//! nonblocking folded-Clos network built entirely from `(n+n²)`-port
//! switches.
//!
//! Logically the network is `ftree(n+n², n³+n²)` — `r = n³+n²` bottom
//! switches under `m = n²` *logical* top switches of radix `n³+n²`. Each
//! logical top switch is physically realized by a nonblocking
//! `ftree(n+n², n²+n)`, whose `(n²+n)·n = n³+n²` leaf-side ports are cabled
//! to the bottom switches' uplinks.

use crate::builder::TopologyBuilder;
use crate::channel::Channel;
use crate::compact::Cable;
use crate::error::TopoError;
use crate::ids::{ChannelId, NodeId};
use crate::kind::NodeKind;
use crate::ports::Run;
use crate::topology::{Layout, Topology};
use serde::{Deserialize, Serialize};

/// A node or channel id computed in `u64`, narrowed to the `u32` id space
/// that [`RecursiveShape::new`]'s size check guarantees.
#[inline]
fn id32(v: u64) -> u32 {
    debug_assert!(v < u64::from(u32::MAX), "id {v} outside the u32 id space");
    v as u32
}

/// Channel `2l` runs cable `l`'s `a → b` direction, `2l + 1` its reverse.
#[inline]
fn chan(cable: u64, reverse: bool) -> ChannelId {
    ChannelId(id32(2 * cable + u64::from(reverse)))
}

/// The closed form of [`RecursiveNonblocking`]: node ranges and cable
/// blocks as functions of `n`, in `u64`.
///
/// Nodes are numbered leaves, bottoms, inner bottoms (`g`-major), inner
/// tops (`g`-major). Cables come in three blocks:
///   A. leaf cables in `(v, k)` order — leaf `v·n + k` to bottom `v`'s
///      down-port `k`;
///   B. bottom uplinks in `(v, g)` order — bottom `v`'s up-port `n + g`
///      enters inner fabric `g` at inner-leaf-port `v`, i.e. inner bottom
///      `v / n`, down-port `v mod n`;
///   C. inner tiers in `(g, ib, t)` order — inner bottom `ib`'s up-port
///      `n + t` to inner top `t`'s port `ib`.
///
/// [`RecursiveShape::cable`] is the one definition of the wiring; the
/// implicit [`Topology`] accessors and the stored test oracle both read it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct RecursiveShape {
    n: u64,
    n2: u64,
    /// Bottoms per inner fabric, `n² + n`.
    inner_r: u64,
    /// Leaves: the first bottom node id and the first block-B cable.
    leaves: u64,
    /// First inner-bottom node id.
    ib_first: u64,
    /// First inner-top node id.
    it_first: u64,
    /// Node count.
    nodes: u64,
    /// First block-C cable.
    block_c: u64,
    /// Block-C cables per inner fabric, `(n² + n)·n²`.
    fabric_cables: u64,
    /// Cable count; channels are twice this.
    cables: u64,
}

impl RecursiveShape {
    /// The shape for `n >= 1`, or `TooLarge` if its node or channel ids do
    /// not fit in `u32`.
    pub(crate) fn new(n: u64) -> Result<Self, TopoError> {
        // The leaves alone, n⁴ + n³, leave the u32 id space long before the
        // u128 terms below could overflow.
        if n > u64::from(u16::MAX) {
            return Err(TopoError::TooLarge {
                what: "nodes",
                size: u128::from(n).saturating_pow(4),
            });
        }
        let n_ = u128::from(n);
        let n2 = n_ * n_;
        let r = n2 * n_ + n2;
        let inner_r = n2 + n_;
        let leaves = r * n_;
        let nodes = leaves + r + n2 * (inner_r + n2);
        let cables = leaves + r * n2 + n2 * inner_r * n2;
        TopologyBuilder::check_size(nodes, 2 * cables)?;
        // Every term is at most `nodes` or `2 * cables`, both now < 2³².
        let w = |v: u128| v as u64;
        Ok(Self {
            n,
            n2: w(n2),
            inner_r: w(inner_r),
            leaves: w(leaves),
            ib_first: w(leaves + r),
            it_first: w(leaves + r + n2 * inner_r),
            nodes: w(nodes),
            block_c: w(leaves + r * n2),
            fabric_cables: w(inner_r * n2),
            cables: w(cables),
        })
    }

    #[inline]
    pub(crate) fn num_nodes(&self) -> usize {
        self.nodes as usize
    }

    #[inline]
    pub(crate) fn num_channels(&self) -> usize {
        2 * self.cables as usize
    }

    /// Cable `l`: its endpoints and the port each end gives it.
    #[inline]
    pub(crate) fn cable(&self, l: u64) -> Cable {
        let Self { n, n2, .. } = *self;
        let (a, b, port_a, port_b) = if l < self.leaves {
            (l, self.leaves + l / n, 0, l % n)
        } else if l < self.block_c {
            let (v, g) = ((l - self.leaves) / n2, (l - self.leaves) % n2);
            (
                self.leaves + v,
                self.ib_first + g * self.inner_r + v / n,
                n + g,
                v % n,
            )
        } else {
            let l3 = l - self.block_c;
            let (g, rem) = (l3 / self.fabric_cables, l3 % self.fabric_cables);
            let (ib, t) = (rem / n2, rem % n2);
            (
                self.ib_first + g * self.inner_r + ib,
                self.it_first + g * n2 + t,
                n + t,
                ib,
            )
        };
        Cable {
            a: id32(a),
            b: id32(b),
            port_a: id32(port_a),
            port_b: id32(port_b),
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

    /// Cable of bottom `v`'s uplink to logical top `g` (block B).
    #[inline]
    fn up1_cable(&self, v: u64, g: u64) -> u64 {
        self.leaves + v * self.n2 + g
    }

    /// Cable from inner bottom `(g, ib)` to inner top `(g, t)` (block C).
    #[inline]
    fn up2_cable(&self, g: u64, ib: u64, t: u64) -> u64 {
        self.block_c + (g * self.inner_r + ib) * self.n2 + t
    }

    /// `node`'s out-channels in port order as two runs; its in-channels are
    /// the same runs with the low id bit flipped.
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    #[inline(never)]
    pub(crate) fn out_runs(&self, node: NodeId) -> [Run; 2] {
        let Self { n, n2, .. } = *self;
        let x = u64::from(node.0);
        let run = |cable: u64, reverse: bool, stride: u64, len: u64| Run {
            base: chan(cable, reverse).0,
            stride: id32(2 * stride),
            len: id32(len),
        };
        if x < self.leaves {
            // One uplink.
            [run(x, false, 1, 1), Run::EMPTY]
        } else if x < self.ib_first {
            // Ports 0..n down to the leaves, n..n+n² up to the logical tops.
            let v = x - self.leaves;
            [
                run(v * n, true, 1, n),
                run(self.up1_cable(v, 0), false, 1, n2),
            ]
        } else if x < self.it_first {
            // Ports 0..n down to bottoms ib·n.., whose uplinks to g sit n²
            // cables apart; n..n+n² up to the inner tops.
            let y = x - self.ib_first;
            let (g, ib) = (y / self.inner_r, y % self.inner_r);
            [
                run(self.up1_cable(ib * n, g), true, n2, n),
                run(self.up2_cable(g, ib, 0), false, 1, n2),
            ]
        } else {
            assert!(x < self.nodes, "node {node} out of range");
            // Ports 0..n²+n down to the inner bottoms, n² cables apart.
            let (g, t) = ((x - self.it_first) / n2, (x - self.it_first) % n2);
            [
                run(self.up2_cable(g, 0, t), true, n2, self.inner_r),
                Run::EMPTY,
            ]
        }
    }
}

/// Physical three-level recursive nonblocking network for parameter `n`.
///
/// All switches have radix `n + n² = n² + n`. Structure:
/// * `n⁴ + n³` leaves, `n` per bottom switch;
/// * `n³ + n²` bottom switches (level 1), each with `n²` uplinks — uplink
///   `g` goes to logical top `g`;
/// * per logical top `g ∈ 0..n²`: `n² + n` *inner bottom* switches
///   (level 2) and `n²` *inner top* switches (level 3) forming
///   `ftree(n+n², n²+n)`; bottom switch `v`'s uplink enters inner bottom
///   `v / n` at its down-port `v mod n`.
///
/// The measured switch count is `2n⁴ + 2n³ + n²` (the paper's prose says
/// `2n⁴ + 3n³ + n²`; see `EXPERIMENTS.md` E10 for the accounting — the
/// `n³` difference is an arithmetic slip in the paper: `r + n²·(2n²+n)`
/// expands to `n³+n² + 2n⁴+n³`).
///
/// The topology is implicit: every channel, adjacency list and reverse
/// pair is computed from the cable blocks of `RecursiveShape`, so building
/// it costs `O(nodes)` and holding it two bytes a node.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RecursiveNonblocking {
    topo: Topology,
}

impl RecursiveNonblocking {
    /// Build the three-level network for `n >= 1`.
    ///
    /// # Errors
    /// [`TopoError::InvalidParameter`] for `n = 0`; [`TopoError::TooLarge`]
    /// when the node or channel ids overflow `u32` (`n >= 36`).
    pub fn new(n: usize) -> Result<Self, TopoError> {
        if n == 0 {
            return Err(TopoError::InvalidParameter {
                name: "n",
                value: 0,
                requirement: "must be >= 1",
            });
        }
        let shape = RecursiveShape::new(n as u64)?;
        let mut kinds = Vec::with_capacity(shape.num_nodes());
        kinds.resize(shape.leaves as usize, NodeKind::Leaf);
        for (end, level) in [(shape.ib_first, 1), (shape.it_first, 2), (shape.nodes, 3)] {
            kinds.resize(end as usize, NodeKind::Switch { level });
        }
        let topo = Topology {
            kinds,
            channels: Vec::new(),
            layout: Layout::Recursive(shape),
        };
        Ok(Self { topo })
    }

    /// The closed form, held once, in the topology's layout.
    #[inline]
    fn shape(&self) -> &RecursiveShape {
        match &self.topo.layout {
            Layout::Recursive(shape) => shape,
            _ => unreachable!("the recursive construction is implicit"),
        }
    }

    /// The construction parameter.
    #[inline]
    pub fn n(&self) -> usize {
        self.shape().n as usize
    }

    /// Number of bottom switches, `n³ + n²` (the logical `r`).
    #[inline]
    pub(crate) fn r(&self) -> usize {
        self.n() * self.n() * self.n() + self.n() * self.n()
    }

    /// Number of logical top switches, `n²` (the logical `m`).
    #[inline]
    pub(crate) fn logical_tops(&self) -> usize {
        self.n() * self.n()
    }

    /// Bottoms per inner fabric, `n² + n`.
    #[inline]
    pub(crate) fn inner_r(&self) -> usize {
        self.n() * self.n() + self.n()
    }

    /// Number of leaves, `n⁴ + n³` — the nonblocking port count.
    #[inline]
    pub fn num_leaves(&self) -> usize {
        self.r() * self.n()
    }

    /// Total physical switches: `2n⁴ + 2n³ + n²`.
    pub fn num_switches(&self) -> usize {
        self.r() + self.logical_tops() * (self.inner_r() + self.n() * self.n())
    }

    /// Switch radix used throughout: `n + n²`.
    #[inline]
    pub fn switch_radix(&self) -> usize {
        self.n() + self.n() * self.n()
    }

    /// Underlying flat topology.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Uplink channel leaf `(v, k)` → bottom `v`.
    #[inline]
    pub fn leaf_up_channel(&self, v: usize, k: usize) -> ChannelId {
        debug_assert!(v < self.r() && k < self.n());
        chan(v as u64 * self.shape().n + k as u64, false)
    }

    /// Downlink channel bottom `v` → leaf `(v, k)`.
    #[inline]
    pub fn leaf_down_channel(&self, v: usize, k: usize) -> ChannelId {
        debug_assert!(v < self.r() && k < self.n());
        chan(v as u64 * self.shape().n + k as u64, true)
    }

    /// Uplink channel bottom `v` → inner bottom of logical top `g`.
    #[inline]
    pub fn up1_channel(&self, v: usize, g: usize) -> ChannelId {
        debug_assert!(v < self.r() && g < self.logical_tops());
        chan(self.shape().up1_cable(v as u64, g as u64), false)
    }

    /// Downlink channel (inner bottom of logical top `g`) → bottom `v`.
    #[inline]
    pub fn down1_channel(&self, g: usize, v: usize) -> ChannelId {
        debug_assert!(v < self.r() && g < self.logical_tops());
        chan(self.shape().up1_cable(v as u64, g as u64), true)
    }

    /// Uplink channel inner bottom `(g, ib)` → inner top `(g, t)`.
    #[inline]
    pub fn up2_channel(&self, g: usize, ib: usize, t: usize) -> ChannelId {
        let n2 = self.logical_tops();
        debug_assert!(g < n2 && ib < self.inner_r() && t < n2);
        chan(self.shape().up2_cable(g as u64, ib as u64, t as u64), false)
    }

    /// Downlink channel inner top `(g, t)` → inner bottom `(g, ib)`.
    #[inline]
    pub fn down2_channel(&self, g: usize, t: usize, ib: usize) -> ChannelId {
        let n2 = self.logical_tops();
        debug_assert!(g < n2 && ib < self.inner_r() && t < n2);
        chan(self.shape().up2_cable(g as u64, ib as u64, t as u64), true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compact::build_paired_csr;
    use crate::dot::{to_dot, DotOptions};
    use crate::topology::assert_same_graph;

    /// The node numbering the tests pin: leaves `(v, k)` at `v·n + k`,
    /// then bottoms, inner bottoms by fabric, inner tops by fabric.
    fn leaf(net: &RecursiveNonblocking, v: usize, k: usize) -> NodeId {
        NodeId((v * net.n() + k) as u32)
    }

    /// Bottom switch `v`.
    fn bottom(net: &RecursiveNonblocking, v: usize) -> NodeId {
        NodeId((net.num_leaves() + v) as u32)
    }

    /// Inner bottom switch `ib` of logical top `g`.
    fn inner_bottom(net: &RecursiveNonblocking, g: usize, ib: usize) -> NodeId {
        NodeId((net.num_leaves() + net.r() + g * net.inner_r() + ib) as u32)
    }

    /// Inner top switch `t` of logical top `g`.
    fn inner_top(net: &RecursiveNonblocking, g: usize, t: usize) -> NodeId {
        let n2 = net.n() * net.n();
        NodeId((net.num_leaves() + net.r() + n2 * net.inner_r() + g * n2 + t) as u32)
    }

    /// The stored oracle: the same `RecursiveShape::cable` wiring,
    /// materialized as channel records and CSR adjacency.
    fn stored_oracle(net: &RecursiveNonblocking) -> Topology {
        let t = net.topology();
        let (radix, inner_r) = (net.switch_radix(), net.inner_r());
        let degree = |x: usize| match t.kinds[x] {
            NodeKind::Leaf => 1,
            NodeKind::Switch { level: 3 } => inner_r,
            NodeKind::Switch { .. } => radix,
        };
        let shape = *net.shape();
        build_paired_csr(t.kinds.clone(), degree, t.num_channels() / 2, |l| {
            shape.cable(l as u64)
        })
        .unwrap()
    }

    #[test]
    fn implicit_matches_stored() {
        for n in 1..=5 {
            let net = RecursiveNonblocking::new(n).unwrap();
            let (imp, st) = (net.topology(), &stored_oracle(&net));
            assert_same_graph(imp, st, &format!("n={n}"));
            let leaf0 = leaf(&net, 0, 0);
            assert_eq!(imp.bfs_distances(leaf0), st.bfs_distances(leaf0));
        }
        for n in 1..=2 {
            let net = RecursiveNonblocking::new(n).unwrap();
            let st = stored_oracle(&net);
            for merge_bidir in [true, false] {
                let opts = DotOptions {
                    merge_bidir,
                    ..DotOptions::default()
                };
                assert_eq!(to_dot(net.topology(), &opts), to_dot(&st, &opts));
            }
        }
    }

    /// n = 35 is the last shape whose channel ids fit in `u32`; building it
    /// costs its node kinds only.
    #[test]
    fn id_space_boundary() {
        let net = RecursiveNonblocking::new(35).unwrap();
        let t = net.topology();
        assert_eq!(t.num_channels(), 3_892_707_000);
        assert_eq!(
            t.memory_bytes(),
            t.num_nodes() * std::mem::size_of::<NodeKind>()
        );
        let (last_g, last_ib) = (net.logical_tops() - 1, net.inner_r() - 1);
        let last = net.down2_channel(last_g, last_g, last_ib);
        assert_eq!(last.index(), t.num_channels() - 1);
        let ch = t.channel(last);
        assert_eq!(ch.src, inner_top(&net, last_g, last_g));
        assert_eq!(ch.dst, inner_bottom(&net, last_g, last_ib));
        assert_eq!(t.channel_between(ch.src, ch.dst), Ok(last));
        assert_eq!(
            t.reverse(last),
            Some(net.up2_channel(last_g, last_ib, last_g))
        );
        assert_eq!(t.out_channels(ch.src).last(), Some(last));
        assert!(matches!(
            RecursiveNonblocking::new(36),
            Err(TopoError::TooLarge {
                what: "channels",
                size: 4_602_241_152
            })
        ));
        assert!(matches!(
            RecursiveNonblocking::new(usize::MAX),
            Err(TopoError::TooLarge { what: "nodes", .. })
        ));
    }

    #[test]
    fn rejects_zero() {
        assert!(RecursiveNonblocking::new(0).is_err());
    }

    #[test]
    fn counts_match_formulas() {
        for n in 1..=3usize {
            let net = RecursiveNonblocking::new(n).unwrap();
            assert_eq!(net.num_leaves(), n.pow(4) + n.pow(3), "ports for n={n}");
            assert_eq!(
                net.num_switches(),
                2 * n.pow(4) + 2 * n.pow(3) + n.pow(2),
                "switches for n={n}"
            );
            net.topology().audit().unwrap();
        }
    }

    #[test]
    fn uniform_switch_radix() {
        let net = RecursiveNonblocking::new(2).unwrap();
        let radix = net.switch_radix();
        assert_eq!(radix, 6);
        let t = net.topology();
        for v in 0..net.r() {
            assert_eq!(t.radix(bottom(&net, v)), radix, "bottom {v}");
        }
        for g in 0..net.logical_tops() {
            for ib in 0..net.inner_r() {
                assert_eq!(t.radix(inner_bottom(&net, g, ib)), radix);
            }
            for tt in 0..net.n() * net.n() {
                assert_eq!(t.radix(inner_top(&net, g, tt)), radix);
            }
        }
    }

    #[test]
    fn channel_formulas_match_adjacency() {
        let net = RecursiveNonblocking::new(2).unwrap();
        let t = net.topology();
        let n2 = 4;
        for v in 0..net.r() {
            for g in 0..n2 {
                let up = net.up1_channel(v, g);
                assert_eq!(t.channel(up).src, bottom(&net, v));
                assert_eq!(t.channel(up).dst, inner_bottom(&net, g, v / 2));
                assert_eq!(t.reverse(up), Some(net.down1_channel(g, v)));
            }
        }
        for g in 0..n2 {
            for ib in 0..net.inner_r() {
                for tt in 0..n2 {
                    let up = net.up2_channel(g, ib, tt);
                    assert_eq!(t.channel(up).src, inner_bottom(&net, g, ib));
                    assert_eq!(t.channel(up).dst, inner_top(&net, g, tt));
                    assert_eq!(t.reverse(up), Some(net.down2_channel(g, tt, ib)));
                }
            }
        }
    }

    #[test]
    fn inner_fabric_is_a_leaf_port_per_bottom_uplink() {
        // Each inner bottom has exactly n down-cables from bottoms, and they
        // come from consecutive bottoms b*n..(b+1)*n.
        let net = RecursiveNonblocking::new(2).unwrap();
        let t = net.topology();
        for g in 0..4 {
            for ib in 0..net.inner_r() {
                let node = inner_bottom(&net, g, ib);
                let from_bottoms: Vec<_> = t
                    .in_channels(node)
                    .map(|c| t.channel(c).src)
                    .filter(|&s| t.kind(s).level() == Some(1))
                    .collect();
                assert_eq!(from_bottoms.len(), 2);
                assert_eq!(from_bottoms[0], bottom(&net, ib * 2));
                assert_eq!(from_bottoms[1], bottom(&net, ib * 2 + 1));
            }
        }
    }

    #[test]
    fn leaves_connected_across_fabric() {
        let net = RecursiveNonblocking::new(2).unwrap();
        let d = net.topology().bfs_distances(leaf(&net, 0, 0));
        // Farthest leaf: up 3 levels, down 3 levels.
        let far = leaf(&net, net.r() - 1, 1);
        assert_eq!(d[far.index()], 6);
    }
}
