//! Mid-run liveness events: channels dying — and coming back — on schedule.
//!
//! A [`ChurnSchedule`] is passed alongside the workload (the
//! [`crate::SimConfig`] stays `Copy`); the engine applies each scheduled
//! transition at the start of its cycle. Dead channels grant no packets, so
//! traffic routed over them stalls until the TTL/retry machinery (see
//! [`crate::SimConfig::ttl_cycles`]) drops or re-routes it; revived channels
//! grant again from their cycle on — exactly the transient-fault operation
//! the E18 experiment measures. The fault-only subset (every transition
//! `Down`) is the degraded operation of E17; [`FaultSchedule`] remains as an
//! alias for that reading.
//!
//! Events live in an ordered set, so insertion is **idempotent**: scheduling
//! the same `(cycle, channel, transition)` twice counts once. Within one
//! cycle events apply in `(channel, Down-before-Up)` order — a down and an
//! up of the same channel on the same cycle net out to *up*.

use ftclos_topo::{ChannelId, Topology, Transition};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// One channel liveness transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Cycle at the start of which the transition applies.
    pub cycle: u64,
    /// The directed channel changing state.
    pub channel: ChannelId,
    /// Whether the channel goes down or comes back up.
    pub transition: Transition,
}

/// A set of scheduled channel transitions for one run.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnSchedule {
    events: BTreeSet<FaultEvent>,
}

/// The fault-only reading of a [`ChurnSchedule`]: every event a death.
/// Kept for the static-degradation experiments (E17) and existing call
/// sites; the churn machinery accepts either name.
pub type FaultSchedule = ChurnSchedule;

impl ChurnSchedule {
    /// Empty schedule (a churn-free run).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether any transition is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of distinct scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Schedule one transition. Idempotent: re-inserting an identical
    /// `(cycle, channel, transition)` leaves the schedule unchanged.
    pub(crate) fn schedule(
        &mut self,
        cycle: u64,
        channel: ChannelId,
        transition: Transition,
    ) -> &mut Self {
        self.events.insert(FaultEvent {
            cycle,
            channel,
            transition,
        });
        self
    }

    /// Kill one directed channel at `cycle`.
    pub fn kill_channel(&mut self, cycle: u64, channel: ChannelId) -> &mut Self {
        self.schedule(cycle, channel, Transition::Down)
    }

    /// Revive one directed channel at `cycle`.
    pub fn revive_channel(&mut self, cycle: u64, channel: ChannelId) -> &mut Self {
        self.schedule(cycle, channel, Transition::Up)
    }

    /// Kill a whole cable at `cycle`: the channel and its reverse.
    pub fn kill_link(&mut self, cycle: u64, topo: &Topology, channel: ChannelId) -> &mut Self {
        self.kill_channel(cycle, channel);
        if let Some(rev) = topo.reverse(channel) {
            self.kill_channel(cycle, rev);
        }
        self
    }

    /// Revive a whole cable at `cycle`: the channel and its reverse.
    pub fn revive_link(&mut self, cycle: u64, topo: &Topology, channel: ChannelId) -> &mut Self {
        self.revive_channel(cycle, channel);
        if let Some(rev) = topo.reverse(channel) {
            self.revive_channel(cycle, rev);
        }
        self
    }

    /// Deterministic MTBF/MTTR link flapping: pick `links` random cables
    /// (uniform over the topology's bidirectional links, clamped to their
    /// count) and alternate exponentially distributed up/down intervals —
    /// mean `mtbf` cycles up, mean `mttr` cycles down — over `[0, horizon)`.
    ///
    /// Both directions of a cable transition together. Everything is driven
    /// by `seed` (no wall clock): equal seeds give identical schedules.
    /// Zero means are clamped to one cycle.
    pub fn flapping_links(
        topo: &Topology,
        links: usize,
        mtbf: u64,
        mttr: u64,
        horizon: u64,
        seed: u64,
    ) -> Self {
        // One representative channel per cable, as in `FaultSet::random_links`.
        let mut cables: Vec<ChannelId> = topo
            .channel_ids()
            .filter(|&c| match topo.reverse(c) {
                Some(r) => c.0 < r.0,
                None => true,
            })
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let links = links.min(cables.len());
        for i in 0..links {
            let j = rng.gen_range(i..cables.len());
            cables.swap(i, j);
        }
        let mut schedule = Self::new();
        for &cable in &cables[..links] {
            let mut t = exp_sample(mtbf, &mut rng);
            while t < horizon {
                schedule.kill_link(t, topo, cable);
                t += exp_sample(mttr, &mut rng);
                if t >= horizon {
                    break; // the link stays down past the horizon
                }
                schedule.revive_link(t, topo, cable);
                t += exp_sample(mtbf, &mut rng);
            }
        }
        schedule
    }

    /// The scheduled events in application order: ascending cycle, then
    /// channel, with `Down` before `Up` (so a same-cycle flap nets to up).
    pub fn sorted_events(&self) -> Vec<FaultEvent> {
        self.events.iter().copied().collect()
    }
}

/// An exponentially distributed duration with the given mean, rounded to
/// whole cycles and clamped to at least one.
fn exp_sample<R: Rng>(mean: u64, rng: &mut R) -> u64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    let d = -(mean.max(1) as f64) * (1.0 - u).ln();
    (d.round() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclos_topo::Ftree;

    #[test]
    fn schedule_builders() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let mut s = FaultSchedule::new();
        assert!(s.is_empty());
        s.kill_link(100, ft.topology(), ft.up_channel(0, 0));
        assert_eq!(s.len(), 2, "cable = both directions");
        // Idempotent: re-killing the same cable at the same cycle (or one
        // of its directions individually) adds nothing.
        s.kill_link(100, ft.topology(), ft.up_channel(0, 0));
        s.kill_channel(100, ft.up_channel(0, 0));
        assert_eq!(s.len(), 2, "duplicate insertions must not double-count");
        s.kill_channel(50, ft.down_channel(1, 2));
        let sorted = s.sorted_events();
        assert_eq!(sorted[0].cycle, 50);
        assert_eq!(sorted.last().unwrap().cycle, 100);
        assert!(sorted.iter().all(|e| e.transition == Transition::Down));
    }

    #[test]
    fn revive_builders_schedule_up_transitions() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let mut s = ChurnSchedule::new();
        s.kill_link(100, ft.topology(), ft.up_channel(0, 0));
        s.revive_link(200, ft.topology(), ft.up_channel(0, 0));
        s.revive_link(200, ft.topology(), ft.up_channel(0, 0));
        assert_eq!(s.len(), 4);
        let events = s.sorted_events();
        let cycles: Vec<u64> = events.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, [100, 100, 200, 200]);
        assert!(events[..2].iter().all(|e| e.transition == Transition::Down));
        assert!(events[2..].iter().all(|e| e.transition == Transition::Up));
    }

    #[test]
    fn same_cycle_flap_orders_down_before_up() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let ch = ft.up_channel(1, 1);
        let mut s = ChurnSchedule::new();
        s.revive_channel(70, ch);
        s.kill_channel(70, ch);
        let sorted = s.sorted_events();
        assert_eq!(sorted.len(), 2);
        assert_eq!(sorted[0].transition, Transition::Down);
        assert_eq!(sorted[1].transition, Transition::Up, "revival wins");
    }

    #[test]
    fn flapping_links_is_deterministic_and_balanced() {
        let ft = Ftree::new(3, 9, 4).unwrap();
        let a = ChurnSchedule::flapping_links(ft.topology(), 2, 100, 40, 2_000, 7);
        let b = ChurnSchedule::flapping_links(ft.topology(), 2, 100, 40, 2_000, 7);
        assert_eq!(a, b, "equal seeds give identical schedules");
        assert!(!a.is_empty(), "2k cycles at mtbf 100 must produce events");
        // Downs and ups alternate per channel starting with a down, so per
        // channel: ups == downs or downs == ups + 1.
        use std::collections::HashMap;
        let mut per_channel: HashMap<ChannelId, (usize, usize)> = HashMap::new();
        for e in a.sorted_events() {
            assert!(e.cycle < 2_000);
            let entry = per_channel.entry(e.channel).or_default();
            match e.transition {
                Transition::Down => entry.0 += 1,
                Transition::Up => entry.1 += 1,
            }
        }
        for (ch, (downs, ups)) in per_channel {
            assert!(
                downs == ups || downs == ups + 1,
                "channel {}: {downs} downs vs {ups} ups",
                ch.0
            );
        }
        let c = ChurnSchedule::flapping_links(ft.topology(), 2, 100, 40, 2_000, 8);
        assert_ne!(a, c, "different seeds should (generically) differ");
    }

    #[test]
    fn flapping_links_clamps_link_count_and_horizon() {
        let ft = Ftree::new(1, 1, 1).unwrap();
        let s = ChurnSchedule::flapping_links(ft.topology(), 99, 10, 5, 100, 0);
        let cables = 2; // 1 leaf cable + 1 uplink cable
        let distinct: std::collections::BTreeSet<ChannelId> =
            s.sorted_events().iter().map(|e| e.channel).collect();
        assert!(distinct.len() <= 2 * cables);
        // Degenerate horizon: no events fit.
        let empty = ChurnSchedule::flapping_links(ft.topology(), 2, 10, 5, 1, 0);
        assert!(empty.sorted_events().iter().all(|e| e.cycle < 1));
    }
}
