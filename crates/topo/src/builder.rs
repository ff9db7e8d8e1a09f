//! Incremental topology construction.

use crate::channel::Channel;
use crate::error::TopoError;
use crate::ids::{ChannelId, NodeId};
use crate::kind::NodeKind;
use crate::topology::{RevMap, Stored, Topology};

/// Builds a [`Topology`] node-by-node and cable-by-cable.
///
/// Ports are assigned densely in connection order on each node, matching how
/// real switches are cabled bottom-up. Family builders in this crate connect
/// down-ports before up-ports so that port indices are predictable:
/// on a bottom switch of `ftree(n+m, r)`, ports `0..n` face leaves and ports
/// `n..n+m` face top switches.
#[derive(Default)]
pub struct TopologyBuilder {
    kinds: Vec<NodeKind>,
    channels: Vec<Channel>,
    rev: Vec<ChannelId>,
    next_out_port: Vec<u16>,
    next_in_port: Vec<u16>,
}

impl TopologyBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a builder with preallocated capacity.
    pub fn with_capacity(nodes: usize, channels: usize) -> Self {
        Self {
            kinds: Vec::with_capacity(nodes),
            channels: Vec::with_capacity(channels),
            rev: Vec::with_capacity(channels),
            next_out_port: Vec::with_capacity(nodes),
            next_in_port: Vec::with_capacity(nodes),
        }
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Add a node and return its id.
    pub(crate) fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.next_out_port.push(0);
        self.next_in_port.push(0);
        id
    }

    /// Add `count` nodes of the same kind; returns the first id (ids are
    /// contiguous).
    pub fn add_nodes(&mut self, kind: NodeKind, count: usize) -> NodeId {
        let first = NodeId(self.kinds.len() as u32);
        for _ in 0..count {
            self.add_node(kind);
        }
        first
    }

    fn push_channel(&mut self, src: NodeId, dst: NodeId) -> ChannelId {
        let id = ChannelId(self.channels.len() as u32);
        let src_port = self.next_out_port[src.index()];
        let dst_port = self.next_in_port[dst.index()];
        self.next_out_port[src.index()] += 1;
        self.next_in_port[dst.index()] += 1;
        self.channels.push(Channel {
            src,
            dst,
            src_port,
            dst_port,
        });
        self.rev.push(ChannelId::INVALID);
        id
    }

    /// Add a unidirectional channel `src -> dst`; returns its id.
    pub fn connect_uni(&mut self, src: NodeId, dst: NodeId) -> ChannelId {
        self.push_channel(src, dst)
    }

    /// Add a bidirectional cable between `a` and `b`; returns
    /// `(a_to_b, b_to_a)`, which are reverse-paired.
    pub fn connect_bidir(&mut self, a: NodeId, b: NodeId) -> (ChannelId, ChannelId) {
        let ab = self.push_channel(a, b);
        let ba = self.push_channel(b, a);
        self.rev[ab.index()] = ba;
        self.rev[ba.index()] = ab;
        (ab, ba)
    }

    /// Finalize into an immutable [`Topology`] with CSR adjacency.
    pub fn finish(self) -> Topology {
        let n = self.kinds.len();
        let mut out_first = vec![0u32; n + 1];
        let mut in_first = vec![0u32; n + 1];
        for ch in &self.channels {
            out_first[ch.src.index() + 1] += 1;
            in_first[ch.dst.index() + 1] += 1;
        }
        for i in 0..n {
            out_first[i + 1] += out_first[i];
            in_first[i + 1] += in_first[i];
        }
        let mut out_chan = vec![ChannelId::INVALID; self.channels.len()];
        let mut in_chan = vec![ChannelId::INVALID; self.channels.len()];
        for (i, ch) in self.channels.iter().enumerate() {
            let o = out_first[ch.src.index()] as usize + ch.src_port as usize;
            let ii = in_first[ch.dst.index()] as usize + ch.dst_port as usize;
            out_chan[o] = ChannelId(i as u32);
            in_chan[ii] = ChannelId(i as u32);
        }
        debug_assert!(out_chan.iter().all(|c| c.is_valid()));
        debug_assert!(in_chan.iter().all(|c| c.is_valid()));
        let topo = Topology::stored(
            self.kinds,
            self.channels,
            Stored {
                out_first,
                out_chan,
                in_first,
                in_chan,
                rev: RevMap::Table(self.rev),
            },
        );
        debug_assert_eq!(topo.audit(), Ok(()));
        topo
    }

    /// Guard against index overflow for very large parameterizations.
    pub(crate) fn check_size(nodes: u128, channels: u128) -> Result<(), TopoError> {
        if nodes >= u32::MAX as u128 {
            return Err(TopoError::TooLarge {
                what: "nodes",
                size: nodes,
            });
        }
        if channels >= u32::MAX as u128 {
            return Err(TopoError::TooLarge {
                what: "channels",
                size: channels,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ports_assigned_densely_in_order() {
        let mut b = TopologyBuilder::new();
        let s = b.add_node(NodeKind::Switch { level: 1 });
        let l0 = b.add_node(NodeKind::Leaf);
        let l1 = b.add_node(NodeKind::Leaf);
        let (sl0, _) = b.connect_bidir(s, l0);
        let (sl1, _) = b.connect_bidir(s, l1);
        let t = b.finish();
        assert_eq!(t.channel(sl0).src_port, 0);
        assert_eq!(t.channel(sl1).src_port, 1);
        assert_eq!(t.out_channels(s).collect::<Vec<_>>(), [sl0, sl1]);
        t.audit().unwrap();
    }

    #[test]
    fn add_nodes_contiguous() {
        let mut b = TopologyBuilder::new();
        let first = b.add_nodes(NodeKind::Leaf, 4);
        assert_eq!(first, NodeId(0));
        assert_eq!(b.num_nodes(), 4);
    }

    #[test]
    fn size_guard() {
        assert!(TopologyBuilder::check_size(10, 10).is_ok());
        assert!(TopologyBuilder::check_size(u32::MAX as u128, 0).is_err());
        assert!(TopologyBuilder::check_size(0, u32::MAX as u128 + 5).is_err());
    }

    #[test]
    fn empty_topology() {
        let t = TopologyBuilder::new().finish();
        assert_eq!(t.num_nodes(), 0);
        assert_eq!(t.num_channels(), 0);
        t.audit().unwrap();
    }
}
