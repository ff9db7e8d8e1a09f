//! Packet conservation audited *from the trace alone*: the recorder's
//! cumulative counters and the `sim.in_flight` gauge must satisfy
//! `injected = delivered + abandoned + in_flight` at **every** epoch mark
//! the simulator emits — not just at the end of the run — and the final
//! recorder state must agree with the engine's own `SimStats`, which are
//! accumulated by a separate code path. A delta-flush bug (double-counted
//! or skipped window) breaks the cross-check even when each side is
//! self-consistent.

use ftclos::obs::Registry;
use ftclos::routing::{ObliviousMultipath, YuanDeterministic};
use ftclos::sim::{
    Arbiter, ChurnConfig, ChurnSchedule, FaultSchedule, Policy, ReplanMode, SimConfig, Simulator,
    Workload,
};
use ftclos::topo::Ftree;
use ftclos::traffic::patterns;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Churn runs mark one epoch per liveness transition plus a final
    /// `end`: every one of them must conserve packets, counters must be
    /// monotone across epochs, and the last epoch is the final state.
    #[test]
    fn churn_epochs_conserve_packets(
        n in 1usize..3,
        r in 2usize..5,
        rate in 0.1f64..0.9,
        links in 1usize..3,
        mtbf in 100u64..400,
        mttr in 20u64..120,
        seed in 0u64..200,
    ) {
        let ft = Ftree::new(n, n * n, r).unwrap();
        let mp = ObliviousMultipath::new(&ft);
        let cycles = 500;
        let schedule =
            ChurnSchedule::flapping_links(ft.topology(), links, mtbf, mttr, cycles, seed);
        let cfg = SimConfig {
            warmup_cycles: 50,
            measure_cycles: cycles,
            ttl_cycles: 40,
            retry: true,
            retry_limit: 3,
            drain: true,
            arbiter: Arbiter::Voq { iterations: 2 },
            ..SimConfig::default()
        };
        let churn_cfg = ChurnConfig {
            mode: ReplanMode::Hysteresis { k: 30 },
            epsilon: 0.1,
            recovery_window: 40,
        };
        let perm = patterns::shift(ft.num_leaves() as u32, 1);
        let reg = Registry::new();
        let (stats, _report) =
            Simulator::new(ft.topology(), cfg, Policy::from_multipath(&mp, true))
                .try_run_churn_recorded(
                    &Workload::permutation(&perm, rate),
                    seed ^ 0xBEEF,
                    &schedule,
                    &churn_cfg,
                    &reg,
                )
                .unwrap();
        let snap = reg.snapshot();
        prop_assert!(!snap.epochs.is_empty(), "a churn run always marks epochs");
        let mut prev = (0u64, 0u64, 0u64);
        for e in &snap.epochs {
            let injected = e.counter("sim.injected");
            let delivered = e.counter("sim.delivered");
            let abandoned = e.counter("sim.abandoned");
            prop_assert_eq!(
                injected,
                delivered + abandoned + e.gauge("sim.in_flight"),
                "epoch `{}` leaks packets", e.label
            );
            prop_assert!(
                injected >= prev.0 && delivered >= prev.1 && abandoned >= prev.2,
                "cumulative counters went backwards at epoch `{}`", e.label
            );
            prev = (injected, delivered, abandoned);
        }
        prop_assert_eq!(snap.epochs.last().unwrap().label.as_str(), "end");
        // Cross-check against the engine's independently-accumulated stats.
        prop_assert_eq!(snap.counter("sim.injected"), Some(stats.injected_total));
        prop_assert_eq!(snap.counter("sim.delivered"), Some(stats.delivered_total));
        prop_assert_eq!(snap.counter("sim.abandoned"), Some(stats.abandoned_total));
        prop_assert_eq!(snap.gauge("sim.in_flight"), Some(stats.leftover_packets));
        prop_assert!(stats.conservation_ok(), "{:?}", stats);
    }

    /// Fault-free runs under any load and packet size: the single `end`
    /// epoch and the final counters conserve, and with drain enabled the
    /// in-flight gauge settles to the leftover count (zero).
    #[test]
    fn plain_runs_conserve_at_the_end_mark(
        n in 1usize..4,
        r in 2usize..6,
        rate in 0.05f64..1.0,
        flits in 1u64..4,
        seed in 0u64..300,
    ) {
        let ft = Ftree::new(n, n * n, r).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let cfg = SimConfig {
            warmup_cycles: 20,
            measure_cycles: 200,
            packet_flits: flits,
            drain: true,
            ..SimConfig::default()
        };
        let perm = patterns::shift(ft.num_leaves() as u32, 1);
        let reg = Registry::new();
        let stats = Simulator::new(ft.topology(), cfg, Policy::from_single_path(&router))
            .try_run_with_faults_recorded(
                &Workload::permutation(&perm, rate),
                seed,
                &FaultSchedule::new(),
                &reg,
            )
            .unwrap();
        let snap = reg.snapshot();
        for e in &snap.epochs {
            prop_assert_eq!(
                e.counter("sim.injected"),
                e.counter("sim.delivered")
                    + e.counter("sim.abandoned")
                    + e.gauge("sim.in_flight"),
                "epoch `{}` leaks packets", e.label
            );
        }
        prop_assert_eq!(snap.counter("sim.injected"), Some(stats.injected_total));
        prop_assert_eq!(snap.gauge("sim.in_flight"), Some(stats.leftover_packets));
        prop_assert_eq!(stats.leftover_packets, 0, "drain must empty the fabric");
    }
}
