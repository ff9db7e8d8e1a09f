//! Extended generalized fat trees `XGFT(h; m⃗; w⃗)` (Öhring, Ibel, Das &
//! Kumar, IPPS 1995) and the derived families used as baselines:
//! k-ary n-trees (Petrini & Vanneschi) and m-port n-trees `FT(m, h)`
//! (Lin, Chung & Huang) — the paper's Table I comparator.

use crate::builder::TopologyBuilder;
use crate::compact::{build_paired_csr, Cable};
use crate::error::TopoError;
use crate::ids::NodeId;
use crate::kind::NodeKind;
use crate::topology::Topology;
use serde::{Deserialize, Serialize};

/// `XGFT(h; m_1..m_h; w_1..w_h)`: `h` switch levels above the leaves; each
/// level-`i` switch has `m_i` children and `w_{i+1}` parents.
///
/// Level-`i` element count is `(∏_{j>i} m_j) · (∏_{j<=i} w_j)`; leaves are
/// level 0. A level-`i` node is labeled `(x_h, …, x_{i+1}; y_i, …, y_1)`
/// with `x_j ∈ 0..m_j`, `y_j ∈ 0..w_j`; a level-`(i-1)` node connects to the
/// `w_i` level-`i` nodes that share all common digits (the free digit is
/// `y_i`).
///
/// Special cases provided as constructors:
/// * `ftree(n+m, r)` = `XGFT(2; n, r; 1, m)` (see [`Xgft::ftree_equivalent`]),
/// * k-ary n-tree = `XGFT(n; k,…,k; 1, k,…,k)` ([`kary_ntree`]),
/// * m-port n-tree `FT(m, h)` = `XGFT(h; m/2,…,m/2, m; 1, m/2,…,m/2)`
///   ([`mport_ntree`]).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Xgft {
    h: usize,
    ms: Vec<usize>,
    ws: Vec<usize>,
    /// First node id of each level, levels 0..=h, plus end sentinel.
    level_base: Vec<usize>,
    topo: Topology,
}

impl Xgft {
    /// Build `XGFT(h; ms; ws)`. `ms` and `ws` are indexed from level 1, so
    /// `ms[0]` is `m_1`.
    pub(crate) fn new(ms: &[usize], ws: &[usize]) -> Result<Self, TopoError> {
        let h = ms.len();
        if h == 0 {
            return Err(TopoError::InvalidParameter {
                name: "h",
                value: 0,
                requirement: "must be >= 1 level",
            });
        }
        if ws.len() != h {
            return Err(TopoError::LengthMismatch {
                what: "XGFT arity vectors (m⃗ vs w⃗)",
                left: ms.len(),
                right: ws.len(),
            });
        }
        for (&v, name) in ms.iter().zip(std::iter::repeat("m_i")) {
            if v == 0 {
                return Err(TopoError::InvalidParameter {
                    name,
                    value: v,
                    requirement: "all child arities must be >= 1",
                });
            }
        }
        for (&v, name) in ws.iter().zip(std::iter::repeat("w_i")) {
            if v == 0 {
                return Err(TopoError::InvalidParameter {
                    name,
                    value: v,
                    requirement: "all parent multiplicities must be >= 1",
                });
            }
        }

        // Level sizes.
        let mut count = vec![0usize; h + 1];
        let mut total: u128 = 0;
        for level in 0..=h {
            let mut c: u128 = 1;
            for &m in &ms[level..] {
                c = c.saturating_mul(m as u128);
            }
            for &w in &ws[..level] {
                c = c.saturating_mul(w as u128);
            }
            total = total.saturating_add(c);
            if c >= u32::MAX as u128 {
                return Err(TopoError::TooLarge {
                    what: "nodes",
                    size: c,
                });
            }
            count[level] = c as usize;
        }
        // Each level-(i-1) node has w_i parents -> cables per tier.
        let mut cables: u128 = 0;
        for i in 1..=h {
            cables = cables.saturating_add(count[i - 1] as u128 * ws[i - 1] as u128);
        }
        TopologyBuilder::check_size(total, 2 * cables)?;

        let mut level_base = vec![0usize; h + 2];
        for level in 0..=h {
            level_base[level + 1] = level_base[level] + count[level];
        }

        let mut kinds = Vec::with_capacity(total as usize);
        kinds.resize(count[0], NodeKind::Leaf);
        for level in 1..=h {
            kinds.resize(
                level_base[level + 1],
                NodeKind::Switch { level: level as u8 },
            );
        }

        // Cables are laid out tier-by-tier (level i-1 children to level i
        // parents), each tier in (child, yi) order — bottom-up so down-ports
        // precede up-ports on every switch, mirroring the historical connect
        // order. `wp` is ∏_{j<i} w_j, the y-suffix size of a level-(i-1)
        // label; a level-i parent's down-port for a child is the child's
        // free digit x_lo, its up-port for parent yi is (#children) + yi.
        let mut tier_base = vec![0usize; h + 2];
        let mut wps = vec![1usize; h + 1];
        for i in 1..=h {
            wps[i] = ws[..i - 1].iter().product();
            tier_base[i + 1] = tier_base[i] + count[i - 1] * ws[i - 1];
        }
        let total_cables = tier_base[h + 1];
        let ms_v = ms.to_vec();
        let ws_v = ws.to_vec();
        let lb = level_base.clone();
        let topo = build_paired_csr(
            kinds,
            |node| {
                let level = match lb.binary_search(&node) {
                    Ok(l) => l.min(h),
                    Err(l) => l - 1,
                };
                let down = if level == 0 { 0 } else { ms_v[level - 1] };
                let up = if level == h { 0 } else { ws_v[level] };
                down + up
            },
            total_cables,
            |l| {
                let mut i = 1;
                while tier_base[i + 1] <= l {
                    i += 1;
                }
                let j = l - tier_base[i];
                let (w_i, m_i, wp) = (ws_v[i - 1], ms_v[i - 1], wps[i]);
                let (child, yi) = (j / w_i, j % w_i);
                let (x, y) = (child / wp, child % wp);
                let parent = ((x / m_i) * w_i + yi) * wp + y;
                let down_ports = if i == 1 { 0 } else { ms_v[i - 2] };
                Cable {
                    a: (lb[i - 1] + child) as u32,
                    b: (lb[i] + parent) as u32,
                    port_a: (down_ports + yi) as u32,
                    port_b: (x % m_i) as u32,
                }
            },
        )?;
        Ok(Self {
            h,
            ms: ms.to_vec(),
            ws: ws.to_vec(),
            level_base,
            topo,
        })
    }

    /// The `XGFT(2; n, r; 1, m)` formulation of `ftree(n+m, r)`.
    pub fn ftree_equivalent(n: usize, m: usize, r: usize) -> Result<Self, TopoError> {
        Self::new(&[n, r], &[1, m])
    }

    /// Height (number of switch levels).
    #[inline]
    pub fn height(&self) -> usize {
        self.h
    }

    /// Child arities `m_1..m_h`.
    #[inline]
    pub fn ms(&self) -> &[usize] {
        &self.ms
    }

    /// Parent multiplicities `w_1..w_h`.
    #[inline]
    pub fn ws(&self) -> &[usize] {
        &self.ws
    }

    /// Number of nodes at `level` (0 = leaves).
    #[inline]
    pub(crate) fn level_count(&self, level: usize) -> usize {
        self.level_base[level + 1] - self.level_base[level]
    }

    /// Node id of the `idx`-th node at `level`.
    #[inline]
    pub fn node(&self, level: usize, idx: usize) -> NodeId {
        debug_assert!(idx < self.level_count(level));
        NodeId((self.level_base[level] + idx) as u32)
    }

    /// Number of leaves (`∏ m_i`).
    #[inline]
    pub fn num_leaves(&self) -> usize {
        self.level_count(0)
    }

    /// Total switch count across all levels.
    pub fn num_switches(&self) -> usize {
        (1..=self.h).map(|l| self.level_count(l)).sum()
    }

    /// Underlying flat topology.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }
}

/// The k-ary n-tree of Petrini & Vanneschi: `k^n` leaves, `n` levels of
/// `k^{n-1}` switches built from `2k`-port switches.
pub fn kary_ntree(k: usize, n: usize) -> Result<Xgft, TopoError> {
    if k == 0 {
        return Err(TopoError::InvalidParameter {
            name: "k",
            value: k,
            requirement: "must be >= 1",
        });
    }
    if n == 0 {
        return Err(TopoError::InvalidParameter {
            name: "n",
            value: n,
            requirement: "must be >= 1",
        });
    }
    let ms = vec![k; n];
    let mut ws = vec![k; n];
    ws[0] = 1;
    Xgft::new(&ms, &ws)
}

/// The m-port n-tree `FT(m, h)` of Lin, Chung & Huang: `2(m/2)^h` leaves and
/// `(2h-1)(m/2)^{h-1}` switches of `m` ports — the paper's rearrangeably
/// nonblocking comparator (`FT(m, 2)` in Table I).
pub fn mport_ntree(m: usize, h: usize) -> Result<Xgft, TopoError> {
    if m < 2 || !m.is_multiple_of(2) {
        return Err(TopoError::InvalidParameter {
            name: "m",
            value: m,
            requirement: "must be even and >= 2",
        });
    }
    if h == 0 {
        return Err(TopoError::InvalidParameter {
            name: "h",
            value: h,
            requirement: "must be >= 1",
        });
    }
    let half = m / 2;
    let mut ms = vec![half; h];
    ms[h - 1] = m;
    let mut ws = vec![half; h];
    ws[0] = 1;
    Xgft::new(&ms, &ws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ftree;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Xgft::new(&[], &[]).is_err());
        assert!(Xgft::new(&[2, 2], &[1]).is_err());
        assert!(Xgft::new(&[0], &[1]).is_err());
        assert!(Xgft::new(&[2], &[0]).is_err());
        assert!(kary_ntree(0, 2).is_err());
        assert!(kary_ntree(2, 0).is_err());
        assert!(mport_ntree(3, 2).is_err());
        assert!(mport_ntree(4, 0).is_err());
    }

    #[test]
    fn ftree_equivalent_matches_ftree_counts() {
        let x = Xgft::ftree_equivalent(2, 4, 5).unwrap();
        let ft = Ftree::new(2, 4, 5).unwrap();
        assert_eq!(x.num_leaves(), ft.num_leaves());
        assert_eq!(x.level_count(1), ft.r());
        assert_eq!(x.level_count(2), ft.m());
        assert_eq!(x.topology().num_channels(), ft.topology().num_channels());
        // Same radices per level.
        assert_eq!(x.topology().radix(x.node(1, 0)), 2 + 4);
        assert_eq!(x.topology().radix(x.node(2, 0)), 5);
        x.topology().audit().unwrap();
    }

    #[test]
    fn kary_ntree_counts() {
        // 2-ary 3-tree: 8 leaves, 3 levels of 4 switches, 4-port switches.
        let t = kary_ntree(2, 3).unwrap();
        assert_eq!(t.num_leaves(), 8);
        for level in 1..=3 {
            assert_eq!(t.level_count(level), 4, "level {level}");
        }
        assert_eq!(t.num_switches(), 12);
        // Interior switches have radix 2k = 4; top level has k = 2 (w_top
        // children only... top uses only down ports).
        assert_eq!(t.topology().radix(t.node(1, 0)), 4);
        assert_eq!(t.topology().radix(t.node(2, 0)), 4);
        assert_eq!(t.topology().radix(t.node(3, 0)), 2);
        t.topology().audit().unwrap();
    }

    #[test]
    fn mport_ntree_matches_lin_formulas() {
        // FT(m, h): 2(m/2)^h leaves, (2h-1)(m/2)^{h-1} switches.
        for (m, h) in [(4, 2), (6, 2), (8, 2), (4, 3), (6, 3)] {
            let t = mport_ntree(m, h).unwrap();
            let half = m / 2;
            assert_eq!(t.num_leaves(), 2 * half.pow(h as u32), "FT({m},{h}) leaves");
            assert_eq!(
                t.num_switches(),
                (2 * h - 1) * half.pow(h as u32 - 1),
                "FT({m},{h}) switches"
            );
            // Every switch radix is at most m, and interior radix is exactly m.
            for level in 1..=h {
                for idx in 0..t.level_count(level) {
                    let radix = t.topology().radix(t.node(level, idx));
                    assert!(radix <= m, "FT({m},{h}) level {level} radix {radix}");
                    if level < h {
                        assert_eq!(radix, m);
                    }
                }
            }
            t.topology().audit().unwrap();
        }
    }

    #[test]
    fn ft_m2_is_half_half_ftree() {
        // FT(N, 2) == ftree(N/2 + N/2, N): N level-1 switches, N/2 tops.
        let t = mport_ntree(8, 2).unwrap();
        assert_eq!(t.level_count(1), 8);
        assert_eq!(t.level_count(2), 4);
        assert_eq!(t.num_leaves(), 32);
        // Table I claim: FT(N,2) supports N^2/2 ports with 3N/2 switches.
        assert_eq!(t.num_leaves(), 8 * 8 / 2);
        assert_eq!(t.num_switches(), 3 * 8 / 2);
    }

    #[test]
    fn ft_m1_is_crossbar() {
        let t = mport_ntree(6, 1).unwrap();
        assert_eq!(t.num_leaves(), 6);
        assert_eq!(t.num_switches(), 1);
    }

    #[test]
    fn every_leaf_reaches_every_leaf() {
        let t = kary_ntree(3, 2).unwrap();
        let d = t.topology().bfs_distances(t.node(0, 0));
        for idx in 0..t.num_leaves() {
            assert!(d[t.node(0, idx).index()] <= 4);
        }
    }

    #[test]
    fn parent_child_consistency() {
        // Every level-(i-1) node has exactly w_i distinct parents; every
        // level-i node exactly m_i distinct children.
        let t = Xgft::new(&[2, 3, 2], &[1, 2, 3]).unwrap();
        let topo = t.topology();
        let level = |d| topo.kind(d).level().map_or(0, usize::from);
        for i in 1..=3 {
            for idx in 0..t.level_count(i - 1) {
                let node = t.node(i - 1, idx);
                let parents: std::collections::HashSet<_> = topo
                    .out_channels(node)
                    .map(|c| topo.channel(c).dst)
                    .filter(|&d| level(d) == i)
                    .collect();
                assert_eq!(parents.len(), t.ws()[i - 1], "level {i} parents");
            }
            for idx in 0..t.level_count(i) {
                let node = t.node(i, idx);
                let children: std::collections::HashSet<_> = topo
                    .out_channels(node)
                    .map(|c| topo.channel(c).dst)
                    .filter(|&d| level(d) == i - 1)
                    .collect();
                assert_eq!(children.len(), t.ms()[i - 1], "level {i} children");
            }
        }
    }
}
