//! Route assignments: the output of routing a communication pattern.

use crate::path::Path;
use ftclos_topo::{ChannelId, Topology};
use ftclos_traffic::SdPair;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One path per SD pair — the result of routing a pattern with a
/// single-path (deterministic or adaptive) scheme.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteAssignment {
    routes: Vec<(SdPair, Path)>,
}

impl RouteAssignment {
    /// Build from `(pair, path)` entries.
    pub fn new(routes: Vec<(SdPair, Path)>) -> Self {
        Self { routes }
    }

    /// The routed pairs and their paths.
    #[inline]
    pub fn routes(&self) -> &[(SdPair, Path)] {
        &self.routes
    }

    /// Number of routed pairs.
    #[inline]
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True when no pairs are routed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Append a routed pair.
    pub fn push(&mut self, pair: SdPair, path: Path) {
        self.routes.push((pair, path));
    }

    /// Per-channel load: how many SD pairs traverse each channel.
    pub fn channel_loads(&self) -> HashMap<ChannelId, u32> {
        let mut loads = HashMap::new();
        for (_, path) in &self.routes {
            for &c in path.channels() {
                *loads.entry(c).or_insert(0) += 1;
            }
        }
        loads
    }

    /// Maximum channel load (0 for an empty assignment). A value above 1
    /// means two SD pairs share a link — *network contention* in the
    /// paper's sense.
    pub fn max_channel_load(&self) -> u32 {
        self.channel_loads().values().copied().max().unwrap_or(0)
    }

    /// Validate every path against the topology (walk connectivity and
    /// endpoints). Leaves are assumed to be the first node ids.
    pub fn validate(&self, topo: &Topology) -> Result<(), String> {
        for (pair, path) in &self.routes {
            path.validate(
                topo,
                ftclos_topo::NodeId(pair.src),
                ftclos_topo::NodeId(pair.dst),
            )
            .map_err(|e| format!("pair {pair}: {e}"))?;
        }
        Ok(())
    }

    /// Indices of the distinct top-of-path switches used, assuming 2-level
    /// paths (4 hops: up, up, down, down). Entries of shorter paths are
    /// skipped. Used to measure how many top switches a scheme consumes.
    pub fn tops_used(&self, topo: &Topology) -> std::collections::BTreeSet<ftclos_topo::NodeId> {
        let mut set = std::collections::BTreeSet::new();
        for (_, path) in &self.routes {
            let nodes = path.nodes(topo);
            for node in nodes {
                if topo.kind(node).level().is_some_and(|l| l >= 2) {
                    set.insert(node);
                }
            }
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclos_topo::Ftree;

    fn two_pair_assignment(ft: &Ftree) -> RouteAssignment {
        let mut a = RouteAssignment::default();
        a.push(
            SdPair::new(0, 5),
            Path::new(vec![
                ft.leaf_up_channel(0, 0),
                ft.up_channel(0, 0),
                ft.down_channel(0, 2),
                ft.leaf_down_channel(2, 1),
            ]),
        );
        a.push(
            SdPair::new(1, 4),
            Path::new(vec![
                ft.leaf_up_channel(0, 1),
                ft.up_channel(0, 0),
                ft.down_channel(0, 2),
                ft.leaf_down_channel(2, 0),
            ]),
        );
        a
    }

    #[test]
    fn loads_and_contention() {
        let ft = Ftree::new(2, 2, 3).unwrap();
        let a = two_pair_assignment(&ft);
        assert_eq!(a.len(), 2);
        let loads = a.channel_loads();
        assert_eq!(loads[&ft.up_channel(0, 0)], 2, "shared uplink");
        assert_eq!(loads[&ft.leaf_up_channel(0, 0)], 1);
        assert_eq!(a.max_channel_load(), 2);
        a.validate(ft.topology()).unwrap();
    }

    #[test]
    fn tops_used_counts_distinct() {
        let ft = Ftree::new(2, 2, 3).unwrap();
        let a = two_pair_assignment(&ft);
        let tops = a.tops_used(ft.topology());
        assert_eq!(tops.len(), 1);
        assert!(tops.contains(&ft.top(0)));
    }

    #[test]
    fn empty_assignment() {
        let a = RouteAssignment::default();
        assert!(a.is_empty());
        assert_eq!(a.max_channel_load(), 0);
    }

    #[test]
    fn validate_rejects_bad_path() {
        let ft = Ftree::new(2, 2, 3).unwrap();
        let mut a = RouteAssignment::default();
        a.push(SdPair::new(0, 5), Path::new(vec![ft.leaf_up_channel(0, 0)]));
        assert!(a.validate(ft.topology()).is_err());
    }
}
