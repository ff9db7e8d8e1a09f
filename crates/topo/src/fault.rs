//! Fault injection: failed channels/switches as a non-mutating overlay.
//!
//! A production fabric is never pristine; the question the paper's spare-top
//! analysis raises ("what does `m = n² + k` buy?") only makes sense if we can
//! fail elements. Faults are modeled as an *overlay*: a [`FaultSet`] names
//! failed directed channels and switches, and a [`FaultyView`] combines a
//! borrowed [`Topology`] with a fault set into liveness queries. The
//! underlying `Topology` is never touched — injecting and clearing faults is
//! non-destructive by construction (and verified bit-for-bit in tests).
//!
//! Conventions:
//! * a failed *channel* kills one direction of a cable; use
//!   [`FaultSet::fail_link`] to cut both directions,
//! * a failed *switch* expands to every channel incident to it (in either
//!   direction) when the view is built — the switch can neither receive nor
//!   forward,
//! * samplers ([`FaultSet::random_links`], [`FaultSet::random_top_switches`])
//!   are deterministic in their seed so experiments are reproducible.

use std::collections::BTreeSet;
use std::fmt;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::ids::{ChannelId, NodeId};
use crate::topology::Topology;

/// Direction of a liveness transition: hardware going down or coming back.
///
/// Shared vocabulary for churn traces: the simulator's event schedule and
/// the core availability analyzer both describe a transient fault as a
/// `Down` transition later balanced by an `Up`. Ordered so that `Down`
/// sorts before `Up` — when both are scheduled for the same cycle, the
/// revival is applied last and wins.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Transition {
    /// The element fails: it carries no traffic from this point on.
    Down,
    /// The element is repaired: it carries traffic again.
    Up,
}

/// A set of failed elements, independent of any topology.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSet {
    /// Explicitly failed directed channels.
    channels: BTreeSet<ChannelId>,
    /// Failed switches; each expands to all incident channels in a view.
    switches: BTreeSet<NodeId>,
}

impl FaultSet {
    /// The empty fault set (a pristine fabric).
    pub fn new() -> Self {
        Self::default()
    }

    /// True if nothing is failed.
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty() && self.switches.is_empty()
    }

    /// Fail one directed channel.
    pub fn fail_channel(&mut self, ch: ChannelId) -> &mut Self {
        self.channels.insert(ch);
        self
    }

    /// Fail a whole cable: the directed channel and its reverse (if any).
    pub fn fail_link(&mut self, topo: &Topology, ch: ChannelId) -> &mut Self {
        self.channels.insert(ch);
        if let Some(rev) = topo.reverse(ch) {
            self.channels.insert(rev);
        }
        self
    }

    /// Fail a switch (or any node): every incident channel dies.
    pub fn fail_switch(&mut self, node: NodeId) -> &mut Self {
        self.switches.insert(node);
        self
    }

    /// Repair one directed channel: the inverse of
    /// [`FaultSet::fail_channel`]. Repairing a channel that is not failed
    /// is a no-op. Note that a channel can *also* be dead via a failed
    /// endpoint switch — repair the switch to revive those.
    pub(crate) fn repair_channel(&mut self, ch: ChannelId) -> &mut Self {
        self.channels.remove(&ch);
        self
    }

    /// Repair a switch: the inverse of [`FaultSet::fail_switch`]. Its
    /// incident channels come back alive in future views unless they are
    /// also individually failed.
    pub fn repair_switch(&mut self, node: NodeId) -> &mut Self {
        self.switches.remove(&node);
        self
    }

    /// Apply one liveness transition to a directed channel: `Down` fails
    /// it, `Up` repairs it.
    pub fn apply_channel(&mut self, ch: ChannelId, transition: Transition) -> &mut Self {
        match transition {
            Transition::Down => self.fail_channel(ch),
            Transition::Up => self.repair_channel(ch),
        }
    }

    /// Remove all faults (the overlay analogue of "repair everything").
    pub fn clear(&mut self) {
        self.channels.clear();
        self.switches.clear();
    }

    /// Explicitly failed directed channels, ascending.
    pub fn failed_channels(&self) -> impl Iterator<Item = ChannelId> + '_ {
        self.channels.iter().copied()
    }

    /// Failed switches, ascending.
    pub fn failed_switches(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.switches.iter().copied()
    }

    /// Union with another fault set.
    pub fn merge(&mut self, other: &FaultSet) -> &mut Self {
        self.channels.extend(other.channels.iter().copied());
        self.switches.extend(other.switches.iter().copied());
        self
    }

    /// Fail `f` distinct random cables (both directions of each), chosen
    /// uniformly from the topology's bidirectional links. Deterministic in
    /// `seed`. `f` is clamped to the number of cables.
    pub fn random_links(topo: &Topology, f: usize, seed: u64) -> Self {
        // One representative channel per cable: the lower-numbered direction
        // (unidirectional channels represent themselves).
        let mut cables: Vec<ChannelId> = topo
            .channel_ids()
            .filter(|&c| match topo.reverse(c) {
                Some(r) => c.0 < r.0,
                None => true,
            })
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let f = f.min(cables.len());
        // Partial Fisher–Yates: the first f entries are a uniform sample.
        for i in 0..f {
            let j = rng.gen_range(i..cables.len());
            cables.swap(i, j);
        }
        let mut set = Self::new();
        for &c in &cables[..f] {
            set.fail_link(topo, c);
        }
        set
    }

    /// Fail `f` distinct random switches at the topology's highest switch
    /// level (the top switches of a folded Clos). Deterministic in `seed`.
    /// `f` is clamped to the number of top switches.
    pub fn random_top_switches(topo: &Topology, f: usize, seed: u64) -> Self {
        let level = topo.max_level();
        let mut tops: Vec<NodeId> = topo.switches_at_level(level).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let f = f.min(tops.len());
        for i in 0..f {
            let j = rng.gen_range(i..tops.len());
            tops.swap(i, j);
        }
        let mut set = Self::new();
        for &t in &tops[..f] {
            set.fail_switch(t);
        }
        set
    }
}

/// Why a path or element is unusable under a fault set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultError {
    /// The channel is failed (explicitly, or via a failed endpoint switch).
    DeadChannel {
        /// The failed channel.
        channel: ChannelId,
    },
    /// The node itself is failed.
    DeadNode {
        /// The failed node.
        node: NodeId,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::DeadChannel { channel } => {
                write!(f, "channel {} is failed", channel.0)
            }
            FaultError::DeadNode { node } => write!(f, "node {} is failed", node.0),
        }
    }
}

impl std::error::Error for FaultError {}

/// A topology as seen through a fault set: same structure, with dead
/// elements masked. Borrows the topology immutably — building and dropping
/// views never changes the underlying `Topology`.
#[derive(Clone, Debug)]
pub struct FaultyView<'a> {
    topo: &'a Topology,
    dead_channel: Vec<bool>,
    dead_node: Vec<bool>,
}

impl<'a> FaultyView<'a> {
    /// Apply `faults` to `topo`. Failed switches expand to all their
    /// incident channels (both directions). Out-of-range ids in the fault
    /// set are ignored (they cannot name anything in this topology).
    pub fn new(topo: &'a Topology, faults: &FaultSet) -> Self {
        let mut dead_channel = vec![false; topo.num_channels()];
        let mut dead_node = vec![false; topo.num_nodes()];
        for ch in faults.failed_channels() {
            if ch.index() < dead_channel.len() {
                dead_channel[ch.index()] = true;
            }
        }
        for node in faults.failed_switches() {
            if node.index() >= dead_node.len() {
                continue;
            }
            dead_node[node.index()] = true;
            for c in topo.out_channels(node) {
                dead_channel[c.index()] = true;
            }
            for c in topo.in_channels(node) {
                dead_channel[c.index()] = true;
            }
        }
        Self {
            topo,
            dead_channel,
            dead_node,
        }
    }

    /// A view with no faults.
    pub fn pristine(topo: &'a Topology) -> Self {
        Self::new(topo, &FaultSet::new())
    }

    /// The underlying (unmodified) topology.
    pub fn topology(&self) -> &'a Topology {
        self.topo
    }

    /// True if the channel carries traffic under this fault set.
    #[inline]
    pub fn channel_alive(&self, ch: ChannelId) -> bool {
        !self.dead_channel[ch.index()]
    }

    /// True if the node is not failed.
    #[inline]
    pub fn node_alive(&self, node: NodeId) -> bool {
        !self.dead_node[node.index()]
    }

    /// Check every channel of a path; `Err` names the first dead one.
    pub fn path_alive(&self, channels: &[ChannelId]) -> Result<(), FaultError> {
        for &c in channels {
            if !self.channel_alive(c) {
                return Err(FaultError::DeadChannel { channel: c });
            }
        }
        Ok(())
    }

    /// Number of dead channels (including switch expansion).
    pub fn num_dead_channels(&self) -> usize {
        self.dead_channel.iter().filter(|&&d| d).count()
    }

    /// Number of dead nodes.
    pub fn num_dead_nodes(&self) -> usize {
        self.dead_node.iter().filter(|&&d| d).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftree::Ftree;

    #[test]
    fn overlay_is_non_destructive_bit_identical() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let before = ft.topology().clone();
        let mut faults = FaultSet::new();
        faults.fail_link(ft.topology(), ft.up_channel(0, 1));
        faults.fail_switch(ft.top(2));
        {
            let view = FaultyView::new(ft.topology(), &faults);
            assert!(view.num_dead_channels() > 0);
        }
        faults.clear();
        assert!(faults.is_empty());
        // The underlying topology is bit-identical after inject + clear.
        assert_eq!(*ft.topology(), before);
        ft.topology().audit().unwrap();
    }

    #[test]
    fn failed_switch_expands_to_incident_channels() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let t = ft.topology();
        let mut faults = FaultSet::new();
        faults.fail_switch(ft.top(1));
        let view = FaultyView::new(t, &faults);
        assert!(!view.node_alive(ft.top(1)));
        // All r uplinks into and r downlinks out of top 1 are dead.
        assert_eq!(view.num_dead_channels(), 2 * ft.r());
        for v in 0..ft.r() {
            assert!(!view.channel_alive(ft.up_channel(v, 1)));
            assert!(!view.channel_alive(ft.down_channel(1, v)));
            // Other tops unaffected.
            assert!(view.channel_alive(ft.up_channel(v, 0)));
        }
    }

    #[test]
    fn fail_link_cuts_both_directions() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let t = ft.topology();
        let mut faults = FaultSet::new();
        faults.fail_link(t, ft.up_channel(3, 2));
        let view = FaultyView::new(t, &faults);
        assert!(!view.channel_alive(ft.up_channel(3, 2)));
        assert!(!view.channel_alive(ft.down_channel(2, 3)));
        assert_eq!(view.num_dead_channels(), 2);
    }

    #[test]
    fn fail_channel_is_directional() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let mut faults = FaultSet::new();
        faults.fail_channel(ft.up_channel(0, 0));
        let view = FaultyView::new(ft.topology(), &faults);
        assert!(!view.channel_alive(ft.up_channel(0, 0)));
        assert!(view.channel_alive(ft.down_channel(0, 0)));
    }

    #[test]
    fn path_alive_reports_first_dead_channel() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let mut faults = FaultSet::new();
        faults.fail_channel(ft.up_channel(0, 1));
        let view = FaultyView::new(ft.topology(), &faults);
        let path = [
            ft.leaf_up_channel(0, 0),
            ft.up_channel(0, 1),
            ft.down_channel(1, 3),
            ft.leaf_down_channel(3, 1),
        ];
        assert_eq!(
            view.path_alive(&path),
            Err(FaultError::DeadChannel {
                channel: ft.up_channel(0, 1)
            })
        );
        let healthy = [
            ft.leaf_up_channel(0, 0),
            ft.up_channel(0, 2),
            ft.down_channel(2, 3),
            ft.leaf_down_channel(3, 1),
        ];
        assert!(view.path_alive(&healthy).is_ok());
    }

    #[test]
    fn random_links_sampler_is_deterministic_and_exact() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let a = FaultSet::random_links(ft.topology(), 3, 7);
        let b = FaultSet::random_links(ft.topology(), 3, 7);
        assert_eq!(a, b);
        // 3 cables = 6 directed channels.
        assert_eq!(a.failed_channels().count(), 6);
        let c = FaultSet::random_links(ft.topology(), 3, 8);
        assert_ne!(a, c, "different seeds should (generically) differ");
    }

    #[test]
    fn random_links_clamps_to_cable_count() {
        let ft = Ftree::new(1, 1, 1).unwrap(); // 1 leaf cable + 1 uplink cable
        let all = FaultSet::random_links(ft.topology(), 99, 0);
        assert_eq!(all.failed_channels().count(), ft.topology().num_channels());
    }

    #[test]
    fn random_top_switches_sampler_targets_top_level() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let set = FaultSet::random_top_switches(ft.topology(), 2, 11);
        assert_eq!(set.failed_switches().count(), 2);
        for s in set.failed_switches() {
            assert!(ft.top_index(s).is_some(), "sampled node must be a top");
        }
        // Deterministic.
        assert_eq!(set, FaultSet::random_top_switches(ft.topology(), 2, 11));
        // Clamped.
        let all = FaultSet::random_top_switches(ft.topology(), 99, 0);
        assert_eq!(all.failed_switches().count(), ft.m());
    }

    #[test]
    fn repair_inverts_each_fail() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let t = ft.topology();
        let mut faults = FaultSet::new();
        faults.fail_channel(ft.up_channel(0, 0));
        faults.fail_link(t, ft.up_channel(1, 2));
        faults.fail_switch(ft.top(3));
        faults.repair_channel(ft.up_channel(0, 0));
        faults.repair_channel(ft.up_channel(1, 2));
        faults.repair_channel(t.reverse(ft.up_channel(1, 2)).unwrap());
        faults.repair_switch(ft.top(3));
        assert!(faults.is_empty());
        let view = FaultyView::new(t, &faults);
        assert_eq!(view.num_dead_channels(), 0);
        assert_eq!(view.num_dead_nodes(), 0);
    }

    #[test]
    fn repair_is_idempotent_and_selective() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let mut faults = FaultSet::new();
        faults.fail_channel(ft.up_channel(0, 0));
        faults.fail_channel(ft.up_channel(0, 1));
        // Repairing a healthy channel is a no-op.
        faults.repair_channel(ft.up_channel(0, 2));
        faults.repair_channel(ft.up_channel(0, 1));
        faults.repair_channel(ft.up_channel(0, 1));
        assert_eq!(faults.failed_channels().count(), 1);
        let view = FaultyView::new(ft.topology(), &faults);
        assert!(!view.channel_alive(ft.up_channel(0, 0)));
        assert!(view.channel_alive(ft.up_channel(0, 1)));
    }

    #[test]
    fn switch_failure_shadows_channel_repair() {
        // A channel dead via its endpoint switch stays dead until the
        // *switch* is repaired; repairing the channel alone is not enough.
        let ft = Ftree::new(2, 4, 5).unwrap();
        let mut faults = FaultSet::new();
        faults.fail_switch(ft.top(0));
        faults.repair_channel(ft.up_channel(0, 0));
        let view = FaultyView::new(ft.topology(), &faults);
        assert!(!view.channel_alive(ft.up_channel(0, 0)));
        faults.repair_switch(ft.top(0));
        let view = FaultyView::new(ft.topology(), &faults);
        assert!(view.channel_alive(ft.up_channel(0, 0)));
    }

    #[test]
    fn apply_channel_follows_transition() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let ch = ft.up_channel(2, 3);
        let mut faults = FaultSet::new();
        faults.apply_channel(ch, Transition::Down);
        assert_eq!(faults.failed_channels().count(), 1);
        faults.apply_channel(ch, Transition::Up);
        assert!(faults.is_empty());
        assert!(Transition::Down < Transition::Up, "revival sorts last");
    }

    #[test]
    fn merge_unions_faults() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let mut a = FaultSet::new();
        a.fail_channel(ft.up_channel(0, 0));
        let mut b = FaultSet::new();
        b.fail_switch(ft.top(3));
        a.merge(&b);
        assert_eq!(a.failed_channels().count(), 1);
        assert_eq!(a.failed_switches().count(), 1);
    }

    #[test]
    fn pristine_view_everything_alive() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let view = FaultyView::pristine(ft.topology());
        assert_eq!(view.num_dead_channels(), 0);
        assert_eq!(view.num_dead_nodes(), 0);
        assert!(view.topology().channel_ids().all(|c| view.channel_alive(c)));
    }
}
