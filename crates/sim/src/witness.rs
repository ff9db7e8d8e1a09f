//! Witness injection: dynamically reproduce a channel-dependency deadlock.
//!
//! The CDG analyzer (`ftclos-core::cdg`) proves deadlock freedom *statically*
//! (an acyclic channel-dependency graph, Dally–Seitz). When it instead emits
//! a witness cycle, this module closes the loop dynamically: pin one route
//! per cycle edge ([`PinnedRoute`], typically from
//! `ftclos_core::attribute_witness`), inject at line rate under finite
//! credits, and watch the circular wait wedge — the drain phase ends with
//! packets still in flight (`leftover_packets > 0`) while packet
//! conservation (`injected == delivered + abandoned + leftover`) still
//! holds. The same harness run with deadlock-free routes (e.g. any up*/down*
//! assignment over the same pairs) drains to zero, the control that shows
//! the stall is the cycle's fault and not the harness's.
//!
//! Mechanically the wedge is the classic credit circular wait: with
//! [`Arbiter::HolFifo`], a head-of-line packet may only advance onto
//! channel `c` if `c`'s downstream queue has space, and every queue on the
//! witness cycle fills with heads that each want the *next* cycle channel.
//! Delivery hops into leaves are never credit-gated, so non-cycle routes
//! keep draining.
//!
//! This crate stays independent of `ftclos-core`: routes arrive as plain
//! channel sequences, and the CDG→sim wiring lives in the CLI
//! (`ftclos deadlock --inject`).

use crate::config::Arbiter;
use crate::{FaultSchedule, Policy, SimConfig, SimError, SimStats, Simulator, Workload};
use ftclos_obs::Recorder;
use ftclos_topo::{ChannelId, Topology};
use std::collections::HashSet;

/// One source→destination route pinned for injection, as raw channels.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PinnedRoute {
    /// Source leaf port.
    pub src: u32,
    /// Destination leaf port.
    pub dst: u32,
    /// The full channel sequence from source leaf to destination leaf.
    pub channels: Vec<ChannelId>,
}

impl PinnedRoute {
    /// Pin `channels` for the pair `(src, dst)`. Validation happens at
    /// [`Policy::from_pinned`] time, inside [`run_pinned_injection_watchdog_recorded`].
    pub fn new(src: u32, dst: u32, channels: Vec<ChannelId>) -> Self {
        Self { src, dst, channels }
    }
}

/// Outcome of a pinned-injection run.
#[derive(Clone, Debug)]
pub struct WitnessRun {
    /// Pairs actually pinned after first-per-source deduplication.
    pub pinned_pairs: usize,
    /// Full engine statistics (drain included).
    pub stats: SimStats,
}

impl WitnessRun {
    /// Did the run wedge? `true` when the drain phase gave up with packets
    /// still queued in the network — the dynamic signature of a
    /// channel-dependency deadlock under this pinned routing.
    pub fn wedged(&self) -> bool {
        self.stats.leftover_packets > 0
    }

    /// Packet conservation: `injected == delivered + abandoned + leftover`.
    /// Holds wedged or not — a deadlock strands packets, it does not lose
    /// them.
    pub fn conservation_ok(&self) -> bool {
        self.stats.conservation_ok()
    }
}

/// Run the witness-injection scenario: pin `routes`, inject at rate 1.0
/// from every pinned source for `cycles` cycles under `queue_capacity`
/// credits per queue, then drain. Duplicate sources keep their *first*
/// route (each leaf has one injection stream); `queue_capacity` should be
/// small (2–4) so the circular wait fills quickly. The run records under
/// the engine's `sim.run` span and counters (see
/// `Simulator::try_run_with_faults_recorded`).
///
/// A nonzero `watchdog` arms the bounded-progress stall watchdog: instead
/// of letting a wedged run spin through the drain phase to the cycle cap
/// and come back as mere `leftover_packets`, the engine aborts after
/// `watchdog` progress-free cycles with [`SimError::Stalled`] carrying the
/// strand graph — every blocked head packet, the channel it holds, the
/// channel it waits for, and the credit wait-for cycle. `watchdog = 0`
/// disables it.
///
/// # Errors
/// [`SimError::PinnedPath`] if a surviving route fails path validation,
/// [`SimError::Config`] if the derived configuration is rejected
/// (`queue_capacity == 0`), any engine error from the run itself, and
/// [`SimError::Stalled`] when the watchdog fires — the *expected* outcome
/// when the pinned routes realize a cyclic channel dependency.
pub fn run_pinned_injection_watchdog_recorded<R: Recorder>(
    topo: &Topology,
    routes: &[PinnedRoute],
    cycles: u64,
    queue_capacity: usize,
    watchdog: u64,
    seed: u64,
    rec: &R,
) -> Result<WitnessRun, SimError> {
    let mut seen = HashSet::new();
    let kept: Vec<&PinnedRoute> = routes.iter().filter(|r| seen.insert(r.src)).collect();
    let policy = Policy::from_pinned(
        topo,
        kept.iter().map(|r| (r.src, r.dst, r.channels.as_slice())),
    )?;
    let pairs: Vec<(u32, u32)> = kept.iter().map(|r| (r.src, r.dst)).collect();
    let ports = topo.leaves().count() as u32;
    let workload = Workload::fixed_pairs(ports, &pairs, 1.0);
    let cfg = SimConfig {
        warmup_cycles: 0,
        measure_cycles: cycles,
        queue_capacity,
        drain: true,
        arbiter: Arbiter::HolFifo,
        stall_watchdog: watchdog,
        ..SimConfig::default()
    };
    let stats = Simulator::new(topo, cfg, policy).try_run_with_faults_recorded(
        &workload,
        seed,
        &FaultSchedule::new(),
        rec,
    )?;
    Ok(WitnessRun {
        pinned_pairs: pairs.len(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclos_obs::Noop;
    use ftclos_routing::{DModK, SinglePathRouter};
    use ftclos_topo::Ftree;
    use ftclos_traffic::SdPair;

    /// Hand-built "valley" routes on `ftree(1, 1, 4)` (one port per bottom,
    /// one top): the cycle channels are `up(v, 0)` and `down(0, v+1)`, and
    /// route `v -> (v+3) % 4` walks three arcs of the 8-channel cycle
    /// (`leaf_up, up(v), down(v+1), up(v+1), down(v+2), up(v+2), down(v+3),
    /// leaf_down`). Three arcs, not two: with shorter arcs most queued
    /// packets are one hop from their exit and the round-robin arbiters
    /// always find an escapee — the wedge needs a majority of heads that
    /// *continue* around the cycle.
    fn valley_routes(ft: &Ftree) -> Vec<PinnedRoute> {
        let r = 4;
        (0..r)
            .map(|v| {
                let w = (v + 3) % r;
                let mut channels = vec![ft.leaf_up_channel(v, 0)];
                for k in 0..3 {
                    channels.push(ft.up_channel((v + k) % r, 0));
                    channels.push(ft.down_channel(0, (v + k + 1) % r));
                }
                channels.push(ft.leaf_down_channel(w, 0));
                PinnedRoute::new(v as u32, w as u32, channels)
            })
            .collect()
    }

    #[test]
    fn valley_cycle_wedges_and_conserves() {
        let ft = Ftree::new(1, 1, 4).unwrap();
        let run = run_pinned_injection_watchdog_recorded(
            ft.topology(),
            &valley_routes(&ft),
            200,
            2,
            0,
            0xDEAD,
            &Noop,
        )
        .unwrap();
        assert_eq!(run.pinned_pairs, 4);
        assert!(
            run.wedged(),
            "valley cycle must credit-stall: {:?}",
            run.stats
        );
        assert!(run.conservation_ok(), "stranded, not lost: {:?}", run.stats);
        assert!(run.stats.injected_total > 0);
    }

    #[test]
    fn watchdog_turns_wedge_into_stalled_diagnosis() {
        // Same valley cycle as above, but with the watchdog armed: instead
        // of spinning the drain phase to the cap and reporting leftover
        // packets, the run aborts with the strand graph. The wait-for cycle
        // must be non-empty (the stall is the circular credit wait) and
        // every cycle channel must be one of the valley's up/down channels.
        let ft = Ftree::new(1, 1, 4).unwrap();
        let err = run_pinned_injection_watchdog_recorded(
            ft.topology(),
            &valley_routes(&ft),
            200,
            2,
            64,
            0xDEAD,
            &Noop,
        )
        .unwrap_err();
        let SimError::Stalled(report) = err else {
            panic!("expected Stalled, got {err}");
        };
        assert!(report.in_flight > 0);
        assert!(!report.strands.is_empty(), "strand graph must be populated");
        assert!(
            !report.wait_cycle.is_empty(),
            "valley wedge is a circular credit wait: {report:?}"
        );
        assert!(report.stranded_packets() > 0);
        // Each cycle member is held by some strand that waits for the next.
        for (i, &c) in report.wait_cycle.iter().enumerate() {
            let next = report.wait_cycle[(i + 1) % report.wait_cycle.len()];
            assert!(
                report
                    .strands
                    .iter()
                    .any(|s| s.holds == Some(c) && s.waits_for == next),
                "cycle edge {c:?} -> {next:?} has no backing strand"
            );
        }
        // Deterministic: the same run yields the same diagnosis — and, when
        // recorded, says how far it got before the error returned.
        let reg = ftclos_obs::Registry::new();
        let err2 = run_pinned_injection_watchdog_recorded(
            ft.topology(),
            &valley_routes(&ft),
            200,
            2,
            64,
            0xDEAD,
            &reg,
        )
        .unwrap_err();
        assert_eq!(reg.snapshot().counter("sim.cycles"), Some(report.cycle));
        assert_eq!(SimError::Stalled(report), err2);
    }

    #[test]
    fn drain_cap_with_armed_watchdog_reports_stall() {
        // Regression: a watchdog too long to fire before the drain cap used
        // to let a wedged run exit silently through the cap, coming back as
        // mere leftover packets. The cap exit must report the stall instead
        // when the watchdog was armed and mid-freeze.
        let ft = Ftree::new(1, 1, 4).unwrap();
        let err = run_pinned_injection_watchdog_recorded(
            ft.topology(),
            &valley_routes(&ft),
            50,
            2,
            2 * SimConfig::DRAIN_CAP, // cannot reach the threshold in time
            0xDEAD,
            &Noop,
        )
        .unwrap_err();
        let SimError::Stalled(report) = err else {
            panic!("expected Stalled at the drain cap, got {err}");
        };
        assert_eq!(report.cycle, 50 + SimConfig::DRAIN_CAP);
        assert!(report.in_flight > 0);
        assert!(
            !report.wait_cycle.is_empty(),
            "valley wedge is a circular credit wait: {report:?}"
        );
    }

    #[test]
    fn watchdog_stays_quiet_on_clean_runs() {
        // Up*/down* control routes drain completely; the watchdog must not
        // fire and the statistics must match the unwatched run exactly.
        let ft = Ftree::new(1, 1, 4).unwrap();
        let router = DModK::new(&ft);
        let routes: Vec<PinnedRoute> = valley_routes(&ft)
            .into_iter()
            .map(|r| {
                let path = router.route(SdPair::new(r.src, r.dst));
                PinnedRoute::new(r.src, r.dst, path.channels().to_vec())
            })
            .collect();
        let watched = run_pinned_injection_watchdog_recorded(
            ft.topology(),
            &routes,
            200,
            2,
            64,
            0xDEAD,
            &Noop,
        )
        .unwrap();
        let plain = run_pinned_injection_watchdog_recorded(
            ft.topology(),
            &routes,
            200,
            2,
            0,
            0xDEAD,
            &Noop,
        )
        .unwrap();
        assert_eq!(watched.stats, plain.stats);
        assert!(!watched.wedged());
    }

    #[test]
    fn updown_control_drains_clean() {
        // Same pairs, but routed up*/down* by DModK: with one top there is
        // exactly one minimal path per pair, no valley, no cycle — the
        // drain phase must empty the network completely.
        let ft = Ftree::new(1, 1, 4).unwrap();
        let router = DModK::new(&ft);
        let routes: Vec<PinnedRoute> = valley_routes(&ft)
            .into_iter()
            .map(|r| {
                let path = router.route(SdPair::new(r.src, r.dst));
                PinnedRoute::new(r.src, r.dst, path.channels().to_vec())
            })
            .collect();
        let run = run_pinned_injection_watchdog_recorded(
            ft.topology(),
            &routes,
            200,
            2,
            0,
            0xDEAD,
            &Noop,
        )
        .unwrap();
        assert_eq!(run.stats.leftover_packets, 0, "{:?}", run.stats);
        assert!(!run.wedged());
        assert!(run.conservation_ok());
        assert!(run.stats.delivered_total > 0);
    }

    #[test]
    fn duplicate_sources_keep_first_route() {
        let ft = Ftree::new(1, 1, 4).unwrap();
        let router = DModK::new(&ft);
        let path = |s: u32, d: u32| router.route(SdPair::new(s, d)).channels().to_vec();
        let routes = vec![
            PinnedRoute::new(0, 2, path(0, 2)),
            PinnedRoute::new(0, 3, path(0, 3)), // same source: dropped
            PinnedRoute::new(1, 3, path(1, 3)),
        ];
        let run =
            run_pinned_injection_watchdog_recorded(ft.topology(), &routes, 50, 2, 0, 1, &Noop)
                .unwrap();
        assert_eq!(run.pinned_pairs, 2);
        assert!(!run.wedged());
    }

    #[test]
    fn bad_route_is_a_typed_error() {
        let ft = Ftree::new(1, 1, 4).unwrap();
        // Discontinuous: two uplinks in a row share no node.
        let routes = vec![PinnedRoute::new(
            0,
            2,
            vec![ft.leaf_up_channel(0, 0), ft.leaf_up_channel(1, 0)],
        )];
        let err =
            run_pinned_injection_watchdog_recorded(ft.topology(), &routes, 10, 2, 0, 1, &Noop)
                .unwrap_err();
        assert!(
            matches!(err, SimError::PinnedPath { src: 0, dst: 2, .. }),
            "{err}"
        );
    }
}
