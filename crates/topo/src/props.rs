//! Structural properties: diameter and the per-level census used by the
//! cost-model experiments.

use crate::ids::NodeId;
use crate::topology::Topology;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Census of a topology: element counts and radix distribution per level.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StructureReport {
    /// Number of leaf nodes.
    pub leaves: usize,
    /// Switches per level, keyed by level.
    pub switches_per_level: BTreeMap<u8, usize>,
    /// Number of physical cables (bidirectional links counted once,
    /// unidirectional channels counted once each).
    pub cables: usize,
    /// Radix histogram over switches: radix → count.
    pub radix_histogram: BTreeMap<usize, usize>,
}

impl StructureReport {
    /// Build the census for `topo`.
    pub fn new(topo: &Topology) -> Self {
        let mut switches_per_level = BTreeMap::new();
        let mut radix_histogram = BTreeMap::new();
        let mut leaves = 0usize;
        for id in topo.node_ids() {
            match topo.kind(id).level() {
                None => leaves += 1,
                Some(l) => {
                    *switches_per_level.entry(l).or_insert(0) += 1;
                    *radix_histogram.entry(topo.radix(id)).or_insert(0) += 1;
                }
            }
        }
        let mut cables = 0usize;
        for c in topo.channel_ids() {
            match topo.reverse(c) {
                Some(rev) if rev.0 < c.0 => {} // counted at the lower id
                _ => cables += 1,
            }
        }
        Self {
            leaves,
            switches_per_level,
            cables,
            radix_histogram,
        }
    }

    /// Total switch count across levels.
    pub fn total_switches(&self) -> usize {
        self.switches_per_level.values().sum()
    }
}

/// Diameter in hops over leaves (longest shortest leaf-to-leaf path), or
/// `None` if some leaf pair is disconnected.
pub fn diameter(topo: &Topology) -> Option<u32> {
    let leaves: Vec<NodeId> = topo.leaves().collect();
    let mut best = 0;
    for &s in &leaves {
        let dist = topo.bfs_distances(s);
        for &d in &leaves {
            if s == d {
                continue;
            }
            let x = dist[d.index()];
            if x == u32::MAX {
                return None;
            }
            best = best.max(x);
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{crossbar, kary_ntree, Ftree};

    #[test]
    fn census_of_ftree() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let rep = StructureReport::new(ft.topology());
        assert_eq!(rep.leaves, 10);
        assert_eq!(rep.switches_per_level[&1], 5);
        assert_eq!(rep.switches_per_level[&2], 4);
        assert_eq!(rep.total_switches(), 9);
        assert_eq!(rep.cables, 10 + 20);
        assert_eq!(rep.radix_histogram[&6], 5); // bottoms: n+m = 6 ports
        assert_eq!(rep.radix_histogram[&5], 4); // tops: r = 5 ports
    }

    #[test]
    fn crossbar_diameter() {
        let xb = crossbar(6).unwrap();
        assert_eq!(diameter(xb.topology()), Some(2));
    }

    #[test]
    fn ftree_diameter() {
        let ft = Ftree::new(2, 2, 3).unwrap();
        assert_eq!(diameter(ft.topology()), Some(4));
    }

    #[test]
    fn kary_diameter() {
        let t = kary_ntree(2, 3).unwrap();
        assert_eq!(diameter(t.topology()), Some(6));
    }
}
