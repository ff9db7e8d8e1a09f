//! The flat topology representation shared by all network families.

use crate::channel::Channel;
use crate::error::TopoError;
use crate::ftree::FtreeShape;
use crate::ids::{ChannelId, NodeId};
use crate::kind::NodeKind;
use crate::ports::{Ports, Run};
use crate::recursive::RecursiveShape;
use serde::{Deserialize, Serialize};

/// How reverse channels are represented.
///
/// The closed-form family builders lay out every bidirectional cable `l` as
/// the adjacent channel pair `2l` / `2l + 1`, so the reverse map is the
/// constant-time involution `c ^ 1` and storing a table would waste
/// 4 bytes per channel (1.7 GB at recursive `n = 24`). Hand-built
/// topologies (crossbars, unidirectional Clos stages, test graphs) keep the
/// explicit table, which also encodes "no reverse" for unidirectional
/// channels.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum RevMap {
    /// Fully bidirectional fabric with cable directions at ids `2l`/`2l+1`:
    /// `rev(c) = c ^ 1`.
    Paired,
    /// Explicit per-channel table; [`ChannelId::INVALID`] marks
    /// unidirectional channels.
    Table(Vec<ChannelId>),
}

/// The adjacency arrays of a stored topology (CSR) and its reverse map.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Stored {
    /// CSR row offsets into `out_chan`, indexed by node, length `nodes + 1`.
    pub(crate) out_first: Vec<u32>,
    /// Outgoing channels of each node, ordered by source port.
    pub(crate) out_chan: Vec<ChannelId>,
    /// CSR row offsets into `in_chan`, indexed by node, length `nodes + 1`.
    pub(crate) in_first: Vec<u32>,
    /// Incoming channels of each node, ordered by destination port.
    pub(crate) in_chan: Vec<ChannelId>,
    /// Reverse channel map (paired involution or explicit table).
    pub(crate) rev: RevMap,
}

/// How a topology holds its channels.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum Layout {
    /// Adjacency lists and reverse map in memory, beside the channel
    /// records in `Topology::channels` ([`crate::TopologyBuilder`] output
    /// and the `build_paired_csr` families).
    Stored(Stored),
    /// `ftree(n+m, r)`: channels, adjacency and reverse pairing are
    /// arithmetic over its two cable blocks; nothing per channel is stored.
    Ftree(FtreeShape),
    /// The recursive construction, implicit in the same way over its three
    /// cable blocks.
    Recursive(RecursiveShape),
}

/// In-ports from out-ports: each cable gives its endpoint one out and one
/// in port at the same slot, in opposite directions, so flip the id's low
/// bit.
#[inline]
fn in_runs(out: [Run; 2]) -> [Run; 2] {
    out.map(|run| Run {
        base: run.base ^ 1,
        ..run
    })
}

/// A directed multigraph of leaves and switches.
///
/// Construct through [`crate::TopologyBuilder`] or one of the family
/// builders ([`crate::Ftree`], [`crate::Clos`], [`crate::Xgft`], …).
///
/// Channels are directed; for bidirectional networks every channel has a
/// paired reverse channel retrievable with [`Topology::reverse`].
///
/// The layout is private: [`crate::Ftree`] and
/// [`crate::RecursiveNonblocking`] compute channel records and adjacency
/// from their closed forms, while the XGFT family and
/// [`crate::TopologyBuilder`] graphs store them as CSR arrays. Every
/// accessor answers the same on every layout. `==` compares
/// representations, so a stored copy of an implicit fabric is not `==` to
/// the implicit one even though every accessor agrees; compare through the
/// accessors to compare graphs.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    pub(crate) kinds: Vec<NodeKind>,
    /// Channel records of a stored topology, empty on an implicit one: a
    /// stored `channel()` is then one bounds-checked read, the simulator's
    /// hottest topology call, and only a miss looks at the layout.
    pub(crate) channels: Vec<Channel>,
    pub(crate) layout: Layout,
}

impl Topology {
    /// A stored topology over `kinds`.
    pub(crate) fn stored(kinds: Vec<NodeKind>, channels: Vec<Channel>, stored: Stored) -> Self {
        Self {
            kinds,
            channels,
            layout: Layout::Stored(stored),
        }
    }

    /// Number of nodes (leaves plus switches).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Number of directed channels.
    #[inline]
    pub fn num_channels(&self) -> usize {
        match &self.layout {
            Layout::Stored(_) => self.channels.len(),
            Layout::Ftree(f) => f.num_channels(),
            Layout::Recursive(r) => r.num_channels(),
        }
    }

    /// Kind of node `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.kinds[id.index()]
    }

    /// The channel record for `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range or the sentinel.
    #[inline]
    pub fn channel(&self, id: ChannelId) -> Channel {
        if let Some(&c) = self.channels.get(id.index()) {
            return c;
        }
        match &self.layout {
            Layout::Ftree(f) => f.channel(id),
            _ => self.computed_channel(id),
        }
    }

    /// [`Topology::channel`] past the stored records, off an ftree:
    /// computed on a recursive topology, out of range on a stored one.
    #[inline(never)]
    fn computed_channel(&self, id: ChannelId) -> Channel {
        match &self.layout {
            Layout::Recursive(r) => r.channel(id),
            _ => panic!("channel {id:?} out of range"),
        }
    }

    /// Directed channels leaving `node`, in source-port order.
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    #[inline]
    pub fn out_channels(&self, node: NodeId) -> Ports<'_> {
        match &self.layout {
            Layout::Stored(s) => {
                let lo = s.out_first[node.index()] as usize;
                let hi = s.out_first[node.index() + 1] as usize;
                Ports::stored(&s.out_chan[lo..hi])
            }
            Layout::Ftree(f) => Ports::runs(f.out_runs(node)),
            Layout::Recursive(r) => Ports::runs(r.out_runs(node)),
        }
    }

    /// Directed channels entering `node`, in destination-port order.
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    #[inline]
    pub fn in_channels(&self, node: NodeId) -> Ports<'_> {
        match &self.layout {
            Layout::Stored(s) => {
                let lo = s.in_first[node.index()] as usize;
                let hi = s.in_first[node.index() + 1] as usize;
                Ports::stored(&s.in_chan[lo..hi])
            }
            Layout::Ftree(f) => Ports::runs(in_runs(f.out_runs(node))),
            Layout::Recursive(r) => Ports::runs(in_runs(r.out_runs(node))),
        }
    }

    /// The paired reverse channel, if the link is bidirectional.
    #[inline]
    pub fn reverse(&self, ch: ChannelId) -> Option<ChannelId> {
        match &self.layout {
            Layout::Stored(Stored {
                rev: RevMap::Table(t),
                ..
            }) => {
                let r = t[ch.index()];
                r.is_valid().then_some(r)
            }
            _ => {
                debug_assert!(ch.index() < self.num_channels());
                Some(ChannelId(ch.0 ^ 1))
            }
        }
    }

    /// Resident size of the topology's backing arrays, in bytes (excluding
    /// constant struct overhead). A stored topology pays 20 bytes or more a
    /// directed channel; an implicit one pays for its node kinds only, so
    /// the simulator's `O(touched)` state is the only thing that grows with
    /// traffic.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let kinds = self.kinds.len() * size_of::<NodeKind>();
        let Layout::Stored(s) = &self.layout else {
            return kinds;
        };
        kinds
            + self.channels.len() * size_of::<Channel>()
            + (s.out_first.len() + s.in_first.len()) * size_of::<u32>()
            + (s.out_chan.len() + s.in_chan.len()) * size_of::<ChannelId>()
            + match &s.rev {
                RevMap::Paired => 0,
                RevMap::Table(t) => t.len() * size_of::<ChannelId>(),
            }
    }

    /// Find the (first) channel from `src` to `dst`.
    pub fn channel_between(&self, src: NodeId, dst: NodeId) -> Result<ChannelId, TopoError> {
        self.out_channels(src)
            .find(|&c| self.channel(c).dst == dst)
            .ok_or(TopoError::NoChannel {
                src: src.index(),
                dst: dst.index(),
            })
    }

    /// All node ids, in index order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.kinds.len() as u32).map(NodeId)
    }

    /// All channel ids, in index order.
    pub fn channel_ids(&self) -> impl Iterator<Item = ChannelId> + '_ {
        (0..self.num_channels() as u32).map(ChannelId)
    }

    /// All leaf node ids.
    pub fn leaves(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(|&id| self.kind(id).is_leaf())
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.kinds.iter().filter(|k| k.is_leaf()).count()
    }

    /// All switches at a given level.
    pub fn switches_at_level(&self, level: u8) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids()
            .filter(move |&id| self.kind(id).level() == Some(level))
    }

    /// Largest switch level present (0 if there are no switches).
    pub fn max_level(&self) -> u8 {
        self.kinds
            .iter()
            .filter_map(|k| k.level())
            .max()
            .unwrap_or(0)
    }

    /// Total port count (in + out, counting each bidirectional cable once
    /// per endpoint) of `node`. For switches this is the radix.
    pub fn radix(&self, node: NodeId) -> usize {
        // Bidirectional links contribute one port that appears in both the
        // in and out adjacency; count distinct cables.
        let out = self.out_channels(node).len();
        let ins = self.in_channels(node).len();
        let paired_out = self
            .out_channels(node)
            .filter(|&c| self.reverse(c).is_some())
            .count();
        // Each bidirectional cable contributes one out channel and one in
        // channel that are the same physical port.
        out + ins - paired_out
    }

    /// Breadth-first distances (in hops) from `start` following directed
    /// channels. Unreachable nodes get `u32::MAX`.
    pub(crate) fn bfs_distances(&self, start: NodeId) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.num_nodes()];
        let mut queue = std::collections::VecDeque::new();
        dist[start.index()] = 0;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()];
            for c in self.out_channels(u) {
                let v = self.channel(c).dst;
                if dist[v.index()] == u32::MAX {
                    dist[v.index()] = du + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Validate internal invariants (CSR consistency, port density,
    /// reverse-pairing involution). Intended for tests and debug assertions.
    pub fn audit(&self) -> Result<(), String> {
        if let Layout::Stored(s) = &self.layout {
            if s.out_first.len() != self.num_nodes() + 1 {
                return Err("out_first length mismatch".into());
            }
            if s.in_first.len() != self.num_nodes() + 1 {
                return Err("in_first length mismatch".into());
            }
            if let RevMap::Table(t) = &s.rev {
                if t.len() != self.num_channels() {
                    return Err("rev length mismatch".into());
                }
            }
        }
        let paired = match &self.layout {
            Layout::Stored(s) => s.rev == RevMap::Paired,
            Layout::Ftree(_) | Layout::Recursive(_) => true,
        };
        if paired && !self.num_channels().is_multiple_of(2) {
            return Err("paired rev map requires an even channel count".into());
        }
        for id in self.channel_ids() {
            let (i, ch) = (id.index(), self.channel(id));
            if ch.src.index() >= self.num_nodes() || ch.dst.index() >= self.num_nodes() {
                return Err(format!("channel {i} has endpoint out of range"));
            }
            if let Some(r) = self.reverse(id) {
                if r.index() >= self.num_channels() {
                    return Err(format!("channel {i} reverse out of range"));
                }
                let rc = self.channel(r);
                if rc.src != ch.dst || rc.dst != ch.src {
                    return Err(format!("channel {i} reverse endpoints mismatch"));
                }
                if self.reverse(r) != Some(id) {
                    return Err(format!(
                        "reverse pairing of channel {i} is not an involution"
                    ));
                }
            }
        }
        for node in self.node_ids() {
            for (slot, c) in self.out_channels(node).enumerate() {
                let ch = self.channel(c);
                if ch.src != node {
                    return Err(format!("out adjacency of {node} lists foreign channel"));
                }
                if ch.src_port as usize != slot {
                    return Err(format!("out ports of {node} not dense/ordered"));
                }
            }
            for (slot, c) in self.in_channels(node).enumerate() {
                let ch = self.channel(c);
                if ch.dst != node {
                    return Err(format!("in adjacency of {node} lists foreign channel"));
                }
                if ch.dst_port as usize != slot {
                    return Err(format!("in ports of {node} not dense/ordered"));
                }
            }
        }
        Ok(())
    }
}

/// Assert that an implicit topology and its stored oracle are the same
/// graph, accessor by accessor: counts, every channel record and reverse,
/// every node's kind, radix and ports (iterated and by position), and
/// `channel_between` for every adjacent pair — of a node past 256 ports,
/// for its first and last 16 (the lookup scans the ports, so all of them
/// would cost `O(radix²)` a node).
#[cfg(test)]
pub(crate) fn assert_same_graph(imp: &Topology, st: &Topology, what: &str) {
    assert!(!matches!(imp.layout, Layout::Stored(_)), "{what}");
    assert!(matches!(st.layout, Layout::Stored(_)), "{what}");
    assert_eq!(imp.audit(), Ok(()), "{what}");
    assert_eq!(st.audit(), Ok(()), "{what}");
    assert_eq!(
        (imp.num_nodes(), imp.num_channels()),
        (st.num_nodes(), st.num_channels()),
        "{what}"
    );
    for c in st.channel_ids() {
        assert_eq!(imp.channel(c), st.channel(c), "{what} {c:?}");
        assert_eq!(imp.reverse(c), st.reverse(c), "{what} {c:?}");
    }
    for x in st.node_ids() {
        assert_eq!(imp.kind(x), st.kind(x), "{what} {x}");
        assert_eq!(imp.radix(x), st.radix(x), "{what} {x}");
        let (out, ins) = (imp.out_channels(x), imp.in_channels(x));
        assert!(out.eq(st.out_channels(x)), "{what} out of {x}");
        assert!(ins.eq(st.in_channels(x)), "{what} in of {x}");
        let deg = out.len();
        for (i, c) in st.out_channels(x).enumerate() {
            assert_eq!(out.get(i), c);
            if deg <= 256 || i < 16 || i >= deg - 16 {
                let dst = st.channel(c).dst;
                assert_eq!(imp.channel_between(x, dst), Ok(c), "{what} {x}->{dst}");
            }
        }
        for (i, c) in st.in_channels(x).enumerate() {
            assert_eq!(ins.get(i), c);
        }
    }
    assert!(imp.memory_bytes() < st.memory_bytes(), "{what}");
}

#[cfg(test)]
mod tests {
    use crate::builder::TopologyBuilder;
    use crate::ids::NodeId;
    use crate::kind::NodeKind;

    fn tiny() -> crate::Topology {
        // leaf(0) <-> switch(1) <-> leaf(2), plus a unidirectional 1 -> 0.
        let mut b = TopologyBuilder::new();
        let l0 = b.add_node(NodeKind::Leaf);
        let s = b.add_node(NodeKind::Switch { level: 1 });
        let l1 = b.add_node(NodeKind::Leaf);
        b.connect_bidir(l0, s);
        b.connect_bidir(s, l1);
        b.connect_uni(s, l0);
        b.finish()
    }

    #[test]
    fn counts_and_kinds() {
        let t = tiny();
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_channels(), 5);
        assert_eq!(t.num_leaves(), 2);
        assert!(t.kind(NodeId(1)).is_switch());
        assert_eq!(t.max_level(), 1);
        t.audit().unwrap();
    }

    #[test]
    fn adjacency_and_reverse() {
        let t = tiny();
        let s = NodeId(1);
        assert_eq!(t.out_channels(s).len(), 3); // to l0 (bidir), to l1 (bidir), to l0 (uni)
        assert_eq!(t.in_channels(s).len(), 2);
        let up = t.channel_between(NodeId(0), s).unwrap();
        let down = t.reverse(up).unwrap();
        assert_eq!(t.channel(down).dst, NodeId(0));
        assert_eq!(t.reverse(down), Some(up));
    }

    #[test]
    fn channel_between_missing() {
        let t = tiny();
        assert!(t.channel_between(NodeId(0), NodeId(2)).is_err());
    }

    #[test]
    fn bfs() {
        let t = tiny();
        let d = t.bfs_distances(NodeId(0));
        assert_eq!(d, vec![0, 1, 2]);
    }

    #[test]
    fn radix_counts_cables() {
        let t = tiny();
        // switch: 2 bidirectional cables + 1 unidirectional out = 3 ports.
        assert_eq!(t.radix(NodeId(1)), 3);
        // leaf 0: 1 bidirectional cable + 1 unidirectional in = 2.
        assert_eq!(t.radix(NodeId(0)), 2);
    }
}
