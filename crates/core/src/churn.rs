//! Availability under churn: replay a liveness trace through the exact
//! flow-level checker, epoch by epoch.
//!
//! A churn trace is a sequence of [`ChurnEvent`]s — channels going down and
//! coming back up at given cycles. Between consecutive transition cycles the
//! fault set is constant, so the run decomposes into **epochs**; for each
//! epoch we ask the masked NONBLOCKINGADAPTIVE checker (see
//! [`crate::degraded::adaptive_degraded_verdict`]) whether the degraded
//! fabric is still nonblocking. The [`AvailabilityReport`] aggregates the
//! per-epoch verdicts two ways: the fraction of *epochs* that are
//! nonblocking, and the cycle-weighted fraction of *time* — the availability
//! figure an operator quotes. [`min_m_for_availability`] inverts the
//! analysis: the smallest top-stage width `m` whose availability under a
//! given flap model meets a target.
//!
//! This crate deliberately does not depend on `ftclos-sim`: traces come in
//! as plain event lists (the CLI converts the simulator's schedules), and
//! flap models for the `m` sweep come in as a trace-generating closure.

use crate::degraded::{adaptive_degraded_verdict, DegradedVerdict};
use ftclos_routing::RoutingError;
use ftclos_topo::{ChannelId, FaultSet, FaultyView, Ftree, Transition};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One channel liveness transition of a churn trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// Cycle at the start of which the transition applies.
    pub cycle: u64,
    /// The directed channel changing state.
    pub channel: ChannelId,
    /// Whether the channel goes down or comes back up.
    pub transition: Transition,
}

impl ChurnEvent {
    /// Convenience constructor.
    pub fn new(cycle: u64, channel: ChannelId, transition: Transition) -> Self {
        Self {
            cycle,
            channel,
            transition,
        }
    }
}

/// The checker's verdict for one constant-fault interval of the trace.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochVerdict {
    /// First cycle of the epoch.
    pub start: u64,
    /// One past the last cycle of the epoch.
    pub end: u64,
    /// Directed channels down throughout the epoch.
    pub down_channels: usize,
    /// The flow-level verdict for this fault set.
    pub verdict: DegradedVerdict,
}

impl EpochVerdict {
    /// Cycles in the epoch.
    pub(crate) fn cycles(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Whether the degraded fabric stayed nonblocking.
    pub(crate) fn nonblocking(&self) -> bool {
        self.verdict.survives()
    }
}

/// Per-epoch availability verdicts for one churn trace.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AvailabilityReport {
    /// Cycles analyzed (`[0, horizon)`).
    pub horizon: u64,
    /// One verdict per constant-fault interval, in time order.
    pub epochs: Vec<EpochVerdict>,
}

impl AvailabilityReport {
    /// Fraction of epochs that are nonblocking (1.0 for an empty trace).
    pub fn epoch_availability(&self) -> f64 {
        if self.epochs.is_empty() {
            return 1.0;
        }
        let ok = self.epochs.iter().filter(|e| e.nonblocking()).count();
        ok as f64 / self.epochs.len() as f64
    }

    /// Cycle-weighted fraction of time the fabric is nonblocking — the
    /// operator's availability number.
    pub fn time_availability(&self) -> f64 {
        let total: u64 = self.epochs.iter().map(EpochVerdict::cycles).sum();
        if total == 0 {
            return 1.0;
        }
        let ok: u64 = self
            .epochs
            .iter()
            .filter(|e| e.nonblocking())
            .map(EpochVerdict::cycles)
            .sum();
        ok as f64 / total as f64
    }

    /// The worst epoch: the blocking epoch with the most dead channels
    /// (`None` when every epoch is nonblocking).
    pub fn worst_epoch(&self) -> Option<&EpochVerdict> {
        self.epochs
            .iter()
            .filter(|e| !e.nonblocking())
            .max_by_key(|e| e.down_channels)
    }

    /// Whether cycle-weighted availability meets `target`.
    pub(crate) fn meets(&self, target: f64) -> bool {
        self.time_availability() >= target
    }
}

/// Replay `events` over `[0, horizon)` and check each constant-fault epoch
/// with the masked adaptive checker (`samples` permutations from `seed` per
/// distinct fault set; small fabrics are swept exhaustively).
///
/// Events are applied in `(cycle, channel, Down-before-Up)` order, so a
/// same-cycle flap of one channel nets to *up*, matching the simulator.
/// Events at or past the horizon are ignored. Identical fault sets are
/// checked once and the verdict reused — flapping traces revisit the same
/// few sets over and over. The distinct fault sets are independent, so the
/// replay first walks the trace to enumerate epochs, then judges each
/// *unique* fault set in parallel before assembling the time-ordered report.
///
/// # Errors
/// Propagates router-construction and pattern errors other than the
/// degradation outcomes captured in the verdicts.
pub fn availability(
    ft: &Ftree,
    events: &[ChurnEvent],
    horizon: u64,
    samples: usize,
    seed: u64,
) -> Result<AvailabilityReport, RoutingError> {
    let mut sorted: Vec<ChurnEvent> = events
        .iter()
        .copied()
        .filter(|e| e.cycle < horizon)
        .collect();
    sorted.sort_unstable();

    // Pass 1 (cheap): replay transitions into constant-fault epochs keyed by
    // their sorted failed-channel set.
    let mut faults = FaultSet::new();
    let mut intervals: Vec<(u64, u64, Vec<ChannelId>)> = Vec::new();
    let mut i = 0usize;
    let mut start = 0u64;
    while start < horizon {
        // Apply every transition scheduled at `start`.
        while i < sorted.len() && sorted[i].cycle == start {
            faults.apply_channel(sorted[i].channel, sorted[i].transition);
            i += 1;
        }
        let end = sorted.get(i).map(|e| e.cycle).unwrap_or(horizon);
        intervals.push((start, end, faults.failed_channels().collect()));
        start = end;
    }

    // Pass 2 (expensive): one checker run per unique fault set, in parallel.
    let unique: Vec<&Vec<ChannelId>> = {
        let mut seen = BTreeMap::new();
        for (_, _, key) in &intervals {
            seen.entry(key.clone()).or_insert(key);
        }
        seen.into_values().collect()
    };
    let verdicts: Vec<Result<DegradedVerdict, RoutingError>> = unique
        .par_iter()
        .map(|key| {
            let mut f = FaultSet::new();
            for &c in key.iter() {
                f.apply_channel(c, Transition::Down);
            }
            let view = FaultyView::new(ft.topology(), &f);
            adaptive_degraded_verdict(ft, &view, samples, seed)
        })
        .collect();
    let mut cache: BTreeMap<&Vec<ChannelId>, DegradedVerdict> = BTreeMap::new();
    for (key, verdict) in unique.iter().zip(verdicts) {
        cache.insert(key, verdict?);
    }

    let epochs = intervals
        .iter()
        .map(|(start, end, key)| EpochVerdict {
            start: *start,
            end: *end,
            down_channels: key.len(),
            verdict: cache[key].clone(),
        })
        .collect();
    Ok(AvailabilityReport { horizon, epochs })
}

/// The smallest `m ∈ [1, m_max]` for which `ftree(n+m, r)` keeps
/// cycle-weighted availability at least `target` under the flap model
/// `trace` (a deterministic trace generator — channel ids depend on `m`, so
/// the trace is rebuilt per fabric). Returns the winning `m` and its
/// report, or `None` when even `m_max` falls short.
///
/// # Errors
/// Fabric-construction failures surface as [`RoutingError::Precondition`];
/// checker errors propagate as in [`availability`].
#[allow(clippy::too_many_arguments)]
pub fn min_m_for_availability(
    n: usize,
    r: usize,
    m_max: usize,
    target: f64,
    horizon: u64,
    samples: usize,
    seed: u64,
    trace: impl Fn(&Ftree) -> Vec<ChurnEvent>,
) -> Result<Option<(usize, AvailabilityReport)>, RoutingError> {
    for m in 1..=m_max {
        let ft = Ftree::new(n, m, r).map_err(|e| RoutingError::Precondition {
            router: "min_m_for_availability",
            detail: e.to_string(),
        })?;
        let events = trace(&ft);
        let report = availability(&ft, &events, horizon, samples, seed)?;
        if report.meets(target) {
            return Ok(Some((m, report)));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Kill both directions of a cable at `cycle`.
    fn kill_link(events: &mut Vec<ChurnEvent>, ft: &Ftree, cycle: u64, ch: ChannelId) {
        events.push(ChurnEvent::new(cycle, ch, Transition::Down));
        if let Some(rev) = ft.topology().reverse(ch) {
            events.push(ChurnEvent::new(cycle, rev, Transition::Down));
        }
    }

    /// Revive both directions of a cable at `cycle`.
    fn revive_link(events: &mut Vec<ChurnEvent>, ft: &Ftree, cycle: u64, ch: ChannelId) {
        events.push(ChurnEvent::new(cycle, ch, Transition::Up));
        if let Some(rev) = ft.topology().reverse(ch) {
            events.push(ChurnEvent::new(cycle, rev, Transition::Up));
        }
    }

    #[test]
    fn fault_free_trace_is_fully_available() {
        let ft = Ftree::new(2, 4, 3).unwrap();
        let report = availability(&ft, &[], 1_000, 50, 1).unwrap();
        assert_eq!(report.epochs.len(), 1);
        assert_eq!(report.epochs[0].cycles(), 1_000);
        assert!((report.epoch_availability() - 1.0).abs() < 1e-12);
        assert!((report.time_availability() - 1.0).abs() < 1e-12);
        assert!(report.worst_epoch().is_none());
        assert!(report.meets(1.0));
    }

    #[test]
    fn transient_violation_dents_availability() {
        // ftree(2+4, 3) is exactly nonblocking (m = n²): losing two uplink
        // cables of one switch transiently breaks the guarantee until the
        // repair lands. 200 of 1000 cycles degraded -> time availability 0.8.
        let ft = Ftree::new(2, 4, 3).unwrap();
        let mut events = Vec::new();
        for t in 0..2 {
            kill_link(&mut events, &ft, 300, ft.up_channel(0, t));
            revive_link(&mut events, &ft, 500, ft.up_channel(0, t));
        }
        let report = availability(&ft, &events, 1_000, 50, 1).unwrap();
        assert_eq!(report.epochs.len(), 3);
        assert!(report.epochs[0].nonblocking());
        assert!(!report.epochs[1].nonblocking(), "{:?}", report.epochs[1]);
        assert!(report.epochs[2].nonblocking(), "repair must restore");
        assert!(report.epoch_availability() < 1.0);
        assert!((report.time_availability() - 0.8).abs() < 1e-12);
        assert_eq!(report.worst_epoch().unwrap().start, 300);
        assert!(!report.meets(0.9));
        assert!(report.meets(0.8));
    }

    #[test]
    fn spare_tops_absorb_the_same_outage() {
        // With a spare configuration (m = n² + n) the same double flap
        // never blocks: the masked adaptive router plans around the dead
        // uplinks.
        let ft = Ftree::new(2, 6, 3).unwrap();
        let mut events = Vec::new();
        for t in 0..2 {
            kill_link(&mut events, &ft, 300, ft.up_channel(0, t));
            revive_link(&mut events, &ft, 500, ft.up_channel(0, t));
        }
        let report = availability(&ft, &events, 1_000, 50, 1).unwrap();
        assert!((report.time_availability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn same_cycle_flap_nets_to_up() {
        let ft = Ftree::new(2, 4, 3).unwrap();
        let ch = ft.up_channel(0, 0);
        let events = vec![
            ChurnEvent::new(200, ch, Transition::Up),
            ChurnEvent::new(200, ch, Transition::Down),
        ];
        let report = availability(&ft, &events, 400, 50, 1).unwrap();
        assert_eq!(report.epochs.len(), 2);
        assert_eq!(report.epochs[1].down_channels, 0);
        assert!((report.time_availability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn events_past_horizon_are_ignored() {
        let ft = Ftree::new(2, 4, 3).unwrap();
        let events = vec![ChurnEvent::new(999, ft.up_channel(0, 0), Transition::Down)];
        let report = availability(&ft, &events, 500, 50, 1).unwrap();
        assert_eq!(report.epochs.len(), 1);
        assert!((report.time_availability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn min_m_recovers_the_spare_top_threshold() {
        // Under a double-uplink flap, m = n² = 4 stays nonblocking only
        // outside the outage (availability 0.8) while m = n² + n = 6 rides
        // it out entirely: the sweep lands on 6 for a 0.99 target and on 4
        // for 0.8.
        let trace = |ft: &Ftree| {
            let mut events = Vec::new();
            for t in 0..2.min(ft.m()) {
                kill_link(&mut events, ft, 300, ft.up_channel(0, t));
                revive_link(&mut events, ft, 500, ft.up_channel(0, t));
            }
            events
        };
        let (m, report) = min_m_for_availability(2, 3, 8, 0.99, 1_000, 50, 1, trace)
            .unwrap()
            .expect("a wide enough fabric exists");
        assert_eq!(m, 6);
        assert!((report.time_availability() - 1.0).abs() < 1e-12);
        let (m_lo, _) = min_m_for_availability(2, 3, 8, 0.8, 1_000, 50, 1, trace)
            .unwrap()
            .unwrap();
        assert_eq!(m_lo, 4);
        // An unreachable target reports None.
        assert!(min_m_for_availability(2, 3, 5, 0.99, 1_000, 50, 1, trace)
            .unwrap()
            .is_none());
    }
}
