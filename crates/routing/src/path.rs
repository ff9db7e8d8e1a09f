//! Paths: ordered channel sequences from a source leaf to a destination leaf.

use ftclos_topo::{ChannelId, NodeId, Topology};
use serde::{Deserialize, Serialize};

/// A route through the network: the ordered list of directed channels a
/// packet traverses from its source leaf to its destination leaf.
///
/// The empty path is legal and denotes self-traffic that never enters the
/// network (`src == dst`).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Path {
    channels: Vec<ChannelId>,
}

impl Path {
    /// Build a path from channels. No validation; see [`Path::validate`].
    pub fn new(channels: Vec<ChannelId>) -> Self {
        Self { channels }
    }

    /// The empty (self-traffic) path.
    pub fn empty() -> Self {
        Self::default()
    }

    /// The channels in traversal order.
    #[inline]
    pub fn channels(&self) -> &[ChannelId] {
        &self.channels
    }

    /// Number of hops (channels).
    #[inline]
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// True for the empty path.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// Check that the path is a connected walk from `src` to `dst` in
    /// `topo`. Returns a description of the first violation.
    pub fn validate(&self, topo: &Topology, src: NodeId, dst: NodeId) -> Result<(), String> {
        if self.channels.is_empty() {
            if src == dst {
                return Ok(());
            }
            return Err(format!("empty path but src {src} != dst {dst}"));
        }
        let first = topo.channel(self.channels[0]);
        if first.src != src {
            return Err(format!("path starts at {} not {src}", first.src));
        }
        let mut at = first.dst;
        for &c in &self.channels[1..] {
            let ch = topo.channel(c);
            if ch.src != at {
                return Err(format!(
                    "discontinuity: at {at} but channel starts at {}",
                    ch.src
                ));
            }
            at = ch.dst;
        }
        if at != dst {
            return Err(format!("path ends at {at} not {dst}"));
        }
        Ok(())
    }

    /// The sequence of nodes visited, starting at the path's first channel's
    /// source (empty for the empty path).
    pub fn nodes(&self, topo: &Topology) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.channels.len() + 1);
        for (idx, &c) in self.channels.iter().enumerate() {
            let ch = topo.channel(c);
            if idx == 0 {
                out.push(ch.src);
            }
            out.push(ch.dst);
        }
        out
    }
}

impl FromIterator<ChannelId> for Path {
    fn from_iter<T: IntoIterator<Item = ChannelId>>(iter: T) -> Self {
        Self {
            channels: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclos_topo::Ftree;

    #[test]
    fn validate_good_path() {
        let ft = Ftree::new(2, 2, 3).unwrap();
        let p = Path::new(vec![
            ft.leaf_up_channel(0, 0),
            ft.up_channel(0, 1),
            ft.down_channel(1, 2),
            ft.leaf_down_channel(2, 1),
        ]);
        p.validate(ft.topology(), ft.leaf(0, 0), ft.leaf(2, 1))
            .unwrap();
        assert_eq!(p.len(), 4);
        let nodes = p.nodes(ft.topology());
        assert_eq!(nodes.len(), 5);
        assert_eq!(nodes[0], ft.leaf(0, 0));
        assert_eq!(nodes[2], ft.top(1));
    }

    #[test]
    fn validate_detects_discontinuity() {
        let ft = Ftree::new(2, 2, 3).unwrap();
        let p = Path::new(vec![ft.leaf_up_channel(0, 0), ft.down_channel(1, 2)]);
        assert!(p
            .validate(ft.topology(), ft.leaf(0, 0), ft.bottom(2))
            .is_err());
    }

    #[test]
    fn validate_endpoints() {
        let ft = Ftree::new(2, 2, 3).unwrap();
        let p = Path::new(vec![ft.leaf_up_channel(0, 0)]);
        assert!(p
            .validate(ft.topology(), ft.leaf(0, 1), ft.bottom(0))
            .is_err());
        assert!(p
            .validate(ft.topology(), ft.leaf(0, 0), ft.bottom(1))
            .is_err());
        p.validate(ft.topology(), ft.leaf(0, 0), ft.bottom(0))
            .unwrap();
    }

    #[test]
    fn empty_path_rules() {
        let ft = Ftree::new(2, 2, 3).unwrap();
        let p = Path::empty();
        assert!(p.is_empty());
        p.validate(ft.topology(), ft.leaf(0, 0), ft.leaf(0, 0))
            .unwrap();
        assert!(p
            .validate(ft.topology(), ft.leaf(0, 0), ft.leaf(0, 1))
            .is_err());
        assert!(p.nodes(ft.topology()).is_empty());
    }
}
