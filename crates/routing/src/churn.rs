//! Routing under churn: hysteresis link admission.
//!
//! When links fail *and recover* — sometimes flapping — re-planning on
//! every liveness transition readmits a flapping link the instant it
//! reports up, routes fresh traffic onto it, and strands that traffic when
//! the link dies again a few cycles later. [`LinkAdmission`] damps this
//! with hysteresis: a link that went down is only readmitted after `K`
//! consecutive stable cycles. The packet simulator drives it directly for
//! its per-cycle path-policy masking.

use ftclos_topo::{ChannelId, Transition};

/// Hysteresis-damped channel admission: which channels a routing plan may
/// use, given the liveness transitions observed so far.
///
/// A `Down` transition excludes the channel immediately (packets must stop
/// riding a corpse at once). An `Up` transition only *starts a stability
/// clock*: the channel is readmitted after it has stayed up for `k`
/// consecutive cycles (`k = 0` readmits on the next [`LinkAdmission::tick`]
/// — per-cycle re-planning with no damping). A `Down` while the clock runs
/// resets it, so a flapping link stays excluded until it genuinely settles.
///
/// Feed observations with [`LinkAdmission::observe`], then call
/// [`LinkAdmission::tick`] once per cycle; `tick` reports whether the
/// admitted set changed.
#[derive(Clone, Debug)]
pub struct LinkAdmission {
    k: u64,
    admitted: Vec<bool>,
    /// Cycle the channel last reported up, `u64::MAX` when no stability
    /// clock is running.
    pending_since: Vec<u64>,
    num_pending: usize,
    changed: bool,
}

impl LinkAdmission {
    /// All `num_channels` channels admitted, readmission after `k` stable
    /// cycles.
    pub fn new(num_channels: usize, k: u64) -> Self {
        Self {
            k,
            admitted: vec![true; num_channels],
            pending_since: vec![u64::MAX; num_channels],
            num_pending: 0,
            changed: false,
        }
    }

    /// Record one liveness transition observed at `cycle`. Out-of-range
    /// channel ids are ignored.
    pub fn observe(&mut self, cycle: u64, ch: ChannelId, transition: Transition) {
        let Some(admitted) = self.admitted.get_mut(ch.index()) else {
            return;
        };
        let i = ch.index();
        match transition {
            Transition::Down => {
                if self.pending_since[i] != u64::MAX {
                    self.pending_since[i] = u64::MAX;
                    self.num_pending -= 1;
                }
                if *admitted {
                    *admitted = false;
                    self.changed = true;
                }
            }
            Transition::Up => {
                if !*admitted && self.pending_since[i] == u64::MAX {
                    self.pending_since[i] = cycle;
                    self.num_pending += 1;
                }
            }
        }
    }

    /// Advance to `cycle`: readmit channels whose stability clock has run
    /// `k` cycles. Returns whether the admitted set changed since the last
    /// tick (from exclusions or readmissions).
    pub fn tick(&mut self, cycle: u64) -> bool {
        if self.num_pending > 0 {
            for i in 0..self.pending_since.len() {
                let since = self.pending_since[i];
                if since != u64::MAX && cycle.saturating_sub(since) >= self.k {
                    self.pending_since[i] = u64::MAX;
                    self.num_pending -= 1;
                    self.admitted[i] = true;
                    self.changed = true;
                }
            }
        }
        std::mem::take(&mut self.changed)
    }

    /// Admission bitmap indexed by channel id (`true` = usable).
    pub fn mask(&self) -> &[bool] {
        &self.admitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn admitted(adm: &LinkAdmission, ch: ChannelId) -> bool {
        adm.mask()[ch.index()]
    }

    #[test]
    fn down_excludes_immediately_up_waits_k_cycles() {
        let mut adm = LinkAdmission::new(8, 10);
        let ch = ChannelId(3);
        adm.observe(5, ch, Transition::Down);
        assert!(adm.tick(5), "exclusion changes the set");
        assert!(!admitted(&adm, ch));
        adm.observe(7, ch, Transition::Up);
        for cycle in 7..17 {
            assert!(!adm.tick(cycle), "cycle {cycle}: still inside hysteresis");
            assert!(!admitted(&adm, ch));
        }
        assert!(adm.tick(17), "10 stable cycles elapsed");
        assert!(adm.mask().iter().all(|&a| a));
    }

    #[test]
    fn flap_resets_the_stability_clock() {
        let mut adm = LinkAdmission::new(4, 10);
        let ch = ChannelId(0);
        adm.observe(0, ch, Transition::Down);
        adm.tick(0);
        adm.observe(2, ch, Transition::Up);
        adm.tick(2);
        // Flap at cycle 8: clock resets, no readmission at 12.
        adm.observe(8, ch, Transition::Down);
        adm.tick(8);
        adm.observe(9, ch, Transition::Up);
        for cycle in 9..19 {
            assert!(!adm.tick(cycle));
        }
        assert!(adm.tick(19), "clock restarted at the second up");
        assert!(admitted(&adm, ch));
    }

    #[test]
    fn zero_k_readmits_on_next_tick() {
        let mut adm = LinkAdmission::new(4, 0);
        let ch = ChannelId(1);
        adm.observe(3, ch, Transition::Down);
        assert!(adm.tick(3));
        adm.observe(4, ch, Transition::Up);
        assert!(adm.tick(4), "k = 0: no damping");
        assert!(admitted(&adm, ch));
    }

    #[test]
    fn mask_mirrors_exclusions() {
        let mut adm = LinkAdmission::new(6, 5);
        adm.observe(0, ChannelId(2), Transition::Down);
        adm.observe(0, ChannelId(4), Transition::Down);
        adm.tick(0);
        assert_eq!(adm.mask(), [true, true, false, true, false, true]);
        // Out-of-range observations are ignored.
        adm.observe(1, ChannelId(99), Transition::Down);
        assert!(!adm.tick(1));
    }
}
