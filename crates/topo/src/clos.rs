//! The classical unidirectional three-stage `Clos(n, m, r)` (paper Fig. 1 (a)).

use crate::builder::TopologyBuilder;
use crate::error::TopoError;
use crate::ids::NodeId;
use crate::kind::NodeKind;
use crate::topology::Topology;
use serde::{Deserialize, Serialize};

/// `Clos(n, m, r)`: `r` input-stage `n×m` switches, `m` middle-stage `r×r`
/// switches, `r` output-stage `m×n` switches; all links unidirectional.
///
/// The folded-Clos `ftree(n+m, r)` is the one-sided version of this network
/// (it merges each input switch with the corresponding output switch); see
/// [`Clos::folds_to`] for the structural correspondence test used by the
/// Fig. 1 reproduction.
///
/// Node-id layout: input terminals `0..r·n`, output terminals `r·n..2·r·n`,
/// input switches, middle switches, output switches (in that order).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Clos {
    n: usize,
    m: usize,
    r: usize,
    topo: Topology,
}

impl Clos {
    /// Build `Clos(n, m, r)`.
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
        let nodes = 2 * (r as u128) * (n as u128) + 2 * r as u128 + m as u128;
        let channels = 2 * (r as u128) * (n as u128) + 2 * (r as u128) * (m as u128);
        TopologyBuilder::check_size(nodes, channels)?;

        let mut b = TopologyBuilder::with_capacity(nodes as usize, channels as usize);
        b.add_nodes(NodeKind::Leaf, r * n); // input terminals
        b.add_nodes(NodeKind::Leaf, r * n); // output terminals
        b.add_nodes(NodeKind::Switch { level: 1 }, r); // input stage
        b.add_nodes(NodeKind::Switch { level: 2 }, m); // middle stage
        b.add_nodes(NodeKind::Switch { level: 3 }, r); // output stage

        let rn = r * n;
        let in_term = |v: usize, k: usize| NodeId((v * n + k) as u32);
        let out_term = |w: usize, k: usize| NodeId((rn + w * n + k) as u32);
        let in_sw = |v: usize| NodeId((2 * rn + v) as u32);
        let mid = |t: usize| NodeId((2 * rn + r + t) as u32);
        let out_sw = |w: usize| NodeId((2 * rn + r + m + w) as u32);

        for v in 0..r {
            for k in 0..n {
                b.connect_uni(in_term(v, k), in_sw(v));
            }
        }
        for v in 0..r {
            for t in 0..m {
                b.connect_uni(in_sw(v), mid(t));
            }
        }
        for t in 0..m {
            for w in 0..r {
                b.connect_uni(mid(t), out_sw(w));
            }
        }
        for w in 0..r {
            for k in 0..n {
                b.connect_uni(out_sw(w), out_term(w, k));
            }
        }
        Ok(Self {
            n,
            m,
            r,
            topo: b.finish(),
        })
    }

    /// Underlying flat topology.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Input-stage switch `v`.
    #[inline]
    pub(crate) fn input_switch(&self, v: usize) -> NodeId {
        NodeId((2 * self.r * self.n + v) as u32)
    }

    /// Output-stage switch `w`.
    #[inline]
    pub(crate) fn output_switch(&self, w: usize) -> NodeId {
        NodeId((2 * self.r * self.n + self.r + self.m + w) as u32)
    }

    /// Strict-sense nonblocking condition of Clos (1953): `m >= 2n - 1`
    /// (valid only under a centralized controller, per the paper's Section I).
    #[inline]
    pub fn clos_strict_nonblocking(&self) -> bool {
        self.m >= 2 * self.n - 1
    }

    /// Rearrangeably-nonblocking condition of Beneš (1962): `m >= n`
    /// (again centralized-controller only).
    #[inline]
    pub fn benes_rearrangeable(&self) -> bool {
        self.m >= self.n
    }

    /// Check the "logical equivalence" of `Clos(n, m, r)` with
    /// `ftree(n+m, r)` claimed in the paper's introduction: same terminal
    /// count, same per-direction channel structure, and matching per-stage
    /// switch radix when input/output switches are merged.
    pub fn folds_to(&self, ft: &crate::Ftree) -> bool {
        ft.n() == self.n
            && ft.m() == self.m
            && ft.r() == self.r
            // Each directed Clos channel maps to one directed ftree channel.
            && self.topo.num_channels() == ft.topology().num_channels()
            // The merged input/output switch has radix n + m.
            && self.topo.radix(self.input_switch(0)) + self.topo.radix(self.output_switch(0))
                == 2 * (self.n + self.m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ftree;

    #[test]
    fn rejects_zero_parameters() {
        assert!(Clos::new(0, 1, 1).is_err());
        assert!(Clos::new(1, 0, 1).is_err());
        assert!(Clos::new(1, 1, 0).is_err());
    }

    #[test]
    fn structure_counts() {
        let c = Clos::new(2, 3, 4).unwrap();
        let t = c.topology();
        assert_eq!(t.num_nodes(), 2 * 8 + 4 + 3 + 4);
        // rn + rm + mr + rn unidirectional channels.
        assert_eq!(t.num_channels(), 8 + 12 + 12 + 8);
        t.audit().unwrap();
    }

    #[test]
    fn stage_radices() {
        let c = Clos::new(2, 3, 4).unwrap();
        let t = c.topology();
        assert_eq!(t.radix(c.input_switch(0)), 2 + 3); // n in + m out
        let middle = t.switches_at_level(2).next().unwrap();
        assert_eq!(t.radix(middle), 4 + 4); // r in + r out
        assert_eq!(t.radix(c.output_switch(0)), 3 + 2); // m in + n out
    }

    #[test]
    fn all_channels_unidirectional() {
        let c = Clos::new(2, 2, 3).unwrap();
        let t = c.topology();
        for ch in t.channel_ids() {
            assert_eq!(t.reverse(ch), None);
        }
    }

    #[test]
    fn terminals_flow_forward_only() {
        let c = Clos::new(2, 2, 3).unwrap();
        let t = c.topology();
        // Input terminal (v, k) is node v·n + k; output terminal (w, k) is
        // node r·n + w·n + k.
        let d = t.bfs_distances(NodeId(0));
        // Every output terminal reachable in exactly 4 hops.
        assert!((6..12).all(|out| d[out] == 4));
        // Input terminals other than the start are unreachable (no turn-around).
        assert_eq!(d[2], u32::MAX);
    }

    #[test]
    fn nonblocking_conditions() {
        assert!(Clos::new(2, 3, 4).unwrap().clos_strict_nonblocking()); // m=3 = 2n-1
        assert!(!Clos::new(3, 4, 4).unwrap().clos_strict_nonblocking()); // m=4 < 5
        assert!(Clos::new(3, 3, 4).unwrap().benes_rearrangeable());
        assert!(!Clos::new(3, 2, 4).unwrap().benes_rearrangeable());
    }

    #[test]
    fn folds_to_equivalent_ftree() {
        let c = Clos::new(2, 4, 5).unwrap();
        let ft = Ftree::new(2, 4, 5).unwrap();
        assert!(c.folds_to(&ft));
        let other = Ftree::new(2, 4, 6).unwrap();
        assert!(!c.folds_to(&other));
    }
}
