//! Direct CSR construction for fully bidirectional, closed-form families.
//!
//! [`crate::TopologyBuilder`] is cable-by-cable: every `connect_bidir` does
//! four bounds-checked pushes plus two per-node port-counter updates, and
//! `finish()` re-derives the adjacency with a counting sort over all
//! channels. That is fine for crossbars and hand-built test graphs, but on
//! a large fat tree the intermediate churn and the explicit reverse table
//! would dominate build time and memory.
//!
//! The stored regular family (XGFT: k-ary n-trees, `FT(m, h)`) needs none
//! of that machinery: every link is a bidirectional cable, and both the
//! cable list and each node's port count are closed-form functions of the
//! family parameters. [`build_paired_csr`] exploits this:
//!
//! * cable `l` becomes channels `2l` (`a → b`) and `2l + 1` (`b → a`), so
//!   the reverse map is `rev(c) = c ^ 1` ([`RevMap::Paired`]) and no
//!   reverse table is stored;
//! * because each cable contributes one **out** and one **in** port at each
//!   endpoint, the out- and in-CSR share one offset array, and the in
//!   adjacency at any `(node, port)` slot is the opposite direction of the
//!   out adjacency at the same slot: `in_chan[i] = out_chan[i] ^ 1`;
//! * the channel-record fill is embarrassingly parallel over disjoint
//!   cable chunks (rayon `par_chunks_mut`; fabrics under 8.4M cables
//!   fill inline, see `MIN_CHUNKS_PER_THREAD`), with no intermediate
//!   `Vec<Channel>` staging or per-channel counter updates.
//!
//! `ftree(n+m, r)` and the recursive construction go one step further and
//! store nothing per channel: their topologies compute the same layout
//! from their [`Cable`] functions on every access (DESIGN.md, "Topology
//! representation: stored vs implicit"). Their tests still build the
//! stored form here, from those same functions, as the oracles the
//! implicit accessors are checked against.

use crate::channel::Channel;
use crate::error::TopoError;
use crate::ids::{ChannelId, NodeId};
use crate::kind::NodeKind;
use crate::topology::{RevMap, Stored, Topology};
use rayon::prelude::*;

/// One physical cable: endpoints `a`/`b` and the dense port index each end
/// assigns to it. Channel `2l` runs `a → b` (src port `port_a`, dst port
/// `port_b`); channel `2l + 1` runs the reverse.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Cable {
    /// First endpoint.
    pub a: u32,
    /// Second endpoint.
    pub b: u32,
    /// Port of the cable on `a` (also `a`'s in-port for the reverse channel).
    pub port_a: u32,
    /// Port of the cable on `b`.
    pub port_b: u32,
}

impl Cable {
    /// The cable's direction `a → b`, or `b → a` when `reverse`.
    #[inline]
    pub fn channel(&self, reverse: bool) -> Channel {
        let (src, dst, src_port, dst_port) = if reverse {
            (self.b, self.a, self.port_b, self.port_a)
        } else {
            (self.a, self.b, self.port_a, self.port_b)
        };
        Channel {
            src: NodeId(src),
            dst: NodeId(dst),
            src_port: src_port as u16,
            dst_port: dst_port as u16,
        }
    }
}

/// Cables per parallel fill chunk (channel chunks are twice this).
const CABLE_CHUNK: usize = 1 << 16;

/// Fewest chunks a fill thread takes (4.2M cables, ~0.1 s of fill). The bar
/// is this high because the fill is page-fault-bound — two threads measured
/// 1.05× on the 19M-cable recursive(16) — and because a process's first
/// thread is not free: glibc's malloc leaves its single-thread fast path for
/// good, which cost the allocation-heavy phases after a 2M-cable build
/// (route tables, policy maps) 25–35 %, far more than the fill saved.
const MIN_CHUNKS_PER_THREAD: usize = 64;

/// Build a [`Topology`] directly in CSR form from a closed-form cable list.
///
/// `degree(x)` must be the exact port count of node `x` (== its out-degree
/// == its in-degree), and `cable(l)` for `l < num_cables` must enumerate
/// every cable with dense per-node ports: for each node `x`, the multiset
/// `{port on x of every cable touching x}` must be exactly `0..degree(x)`.
/// Violations are caught by the `debug_assert` audit (tests) rather than at
/// runtime in release builds — callers are the closed-form family builders
/// whose layouts are pinned by unit tests.
pub(crate) fn build_paired_csr(
    kinds: Vec<NodeKind>,
    degree: impl Fn(usize) -> usize,
    num_cables: usize,
    cable: impl Fn(usize) -> Cable + Sync,
) -> Result<Topology, TopoError> {
    let n = kinds.len();
    let num_channels = 2 * num_cables;

    // Shared out/in CSR offsets from the closed-form degrees. Ports are u16
    // in the channel record, so a radix beyond 65536 cannot be represented.
    let mut first = Vec::with_capacity(n + 1);
    first.push(0u32);
    let mut acc: u64 = 0;
    for x in 0..n {
        let d = degree(x);
        if d > u16::MAX as usize + 1 {
            return Err(TopoError::TooLarge {
                what: "radix",
                size: d as u128,
            });
        }
        acc += d as u64;
        first.push(acc as u32);
    }
    debug_assert_eq!(acc, num_channels as u64, "degrees must sum to channels");

    // Channel records, filled in parallel over disjoint cable chunks.
    let mut channels = vec![
        Channel {
            src: NodeId(0),
            dst: NodeId(0),
            src_port: 0,
            dst_port: 0,
        };
        num_channels
    ];
    channels
        .par_chunks_mut(2 * CABLE_CHUNK)
        .with_min_len(MIN_CHUNKS_PER_THREAD)
        .enumerate()
        .for_each(|(ci, chunk)| {
            let base = ci * CABLE_CHUNK;
            for (j, pair) in chunk.chunks_exact_mut(2).enumerate() {
                let c = cable(base + j);
                pair[0] = c.channel(false);
                pair[1] = c.channel(true);
            }
        });

    // Out adjacency by scatter (each (node, port) slot is hit exactly once
    // when the degree/cable contract holds); the in adjacency at a slot is
    // the reverse direction of the same cable.
    let mut out_chan = vec![ChannelId::INVALID; num_channels];
    for (i, ch) in channels.iter().enumerate() {
        out_chan[first[ch.src.index()] as usize + ch.src_port as usize] = ChannelId(i as u32);
    }
    let in_chan: Vec<ChannelId> = out_chan
        .par_iter()
        .with_min_len(MIN_CHUNKS_PER_THREAD * 2 * CABLE_CHUNK)
        .map(|c| ChannelId(c.0 ^ 1))
        .collect();
    debug_assert!(out_chan.iter().all(|c| c.is_valid()));

    let topo = Topology::stored(
        kinds,
        channels,
        Stored {
            out_first: first.clone(),
            out_chan,
            in_first: first,
            in_chan,
            rev: RevMap::Paired,
        },
    );
    debug_assert_eq!(topo.audit(), Ok(()));
    Ok(topo)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1-cable graph: leaf 0 <-> switch 1.
    #[test]
    fn single_cable() {
        let kinds = vec![NodeKind::Leaf, NodeKind::Switch { level: 1 }];
        let t = build_paired_csr(
            kinds,
            |_| 1,
            1,
            |_| Cable {
                a: 0,
                b: 1,
                port_a: 0,
                port_b: 0,
            },
        )
        .unwrap();
        assert_eq!(t.num_channels(), 2);
        assert_eq!(t.reverse(ChannelId(0)), Some(ChannelId(1)));
        assert_eq!(t.reverse(ChannelId(1)), Some(ChannelId(0)));
        assert_eq!(t.channel(ChannelId(0)).src, NodeId(0));
        assert_eq!(t.channel(ChannelId(1)).src, NodeId(1));
        t.audit().unwrap();
    }

    /// Star: switch 0 with three leaves, ports in cable order.
    #[test]
    fn star_ports_dense() {
        let mut kinds = vec![NodeKind::Switch { level: 1 }];
        kinds.extend([NodeKind::Leaf; 3]);
        let t = build_paired_csr(
            kinds,
            |x| if x == 0 { 3 } else { 1 },
            3,
            |l| Cable {
                a: (l + 1) as u32,
                b: 0,
                port_a: 0,
                port_b: l as u32,
            },
        )
        .unwrap();
        t.audit().unwrap();
        assert_eq!(t.out_channels(NodeId(0)).len(), 3);
        for (slot, c) in t.out_channels(NodeId(0)).enumerate() {
            assert_eq!(t.channel(c).src_port as usize, slot);
        }
        // memory_bytes accounts every backing array but no rev table.
        assert!(t.memory_bytes() > 0);
    }

    #[test]
    fn radix_guard() {
        let kinds = vec![NodeKind::Leaf; 2];
        let err = build_paired_csr(
            kinds,
            |_| (u16::MAX as usize) + 2,
            1,
            |_| Cable {
                a: 0,
                b: 1,
                port_a: 0,
                port_b: 0,
            },
        );
        assert!(matches!(
            err,
            Err(TopoError::TooLarge { what: "radix", .. })
        ));
    }
}
