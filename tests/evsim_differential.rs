//! Differential properties pinning the event-driven engine
//! (`ftclos::evsim::EventSimulator`) to the cycle-level oracle
//! (`ftclos::sim::Simulator`).
//!
//! The contract is *exact replay*, not statistical agreement: for any
//! topology shape, policy, workload, seed, fault schedule, and churn
//! configuration, the two engines must produce an identical `SimStats` —
//! every counter, every latency percentile, the full per-channel busy
//! vector — and identical churn reports and identical errors. Anything
//! less means the event engine changed semantics, not just schedule.

use ftclos::evsim::EventSimulator;
use ftclos::obs::{EpochSnapshot, Noop, Registry};
use ftclos::routing::{
    route_all, DModK, ObliviousMultipath, SinglePathRouter, XgftRouter, YuanRecursive,
};
use ftclos::sim::{
    Arbiter, ChurnConfig, ChurnSchedule, FaultSchedule, Policy, ReplanMode, SimArena, SimConfig,
    SimError, SimStats, Simulator, Workload,
};
use ftclos::topo::{kary_ntree, Ftree, RecursiveNonblocking, Topology};
use ftclos::traffic::patterns;
use proptest::prelude::*;

/// An arena that materializes every page up front — the dense layout the
/// engines had before paged state existed.
fn dense_arena() -> SimArena {
    let mut a = SimArena::new();
    a.set_prefill_on_prepare(true);
    a
}

/// Run both engines twice each — once with lazy paged state, once with
/// every page prefilled dense — and require all four outcomes identical:
/// stats bit for bit, and errors (stall cycle, strand graph, wait cycle)
/// field for field. This pins the tentpole claim that paging changes
/// *where state lives*, never what the simulation does.
fn assert_sparse_dense_identical(
    topo: &Topology,
    cfg: SimConfig,
    policy: &Policy,
    w: &Workload,
    seed: u64,
    faults: &FaultSchedule,
) {
    let lazy_oracle =
        Simulator::new(topo, cfg, policy.clone()).try_run_with_faults(w, seed, faults);
    let dense_oracle = Simulator::with_arena(topo, cfg, policy.clone(), dense_arena())
        .try_run_with_faults(w, seed, faults);
    let lazy_event =
        EventSimulator::new(topo, cfg, policy.clone()).try_run_with_faults(w, seed, faults);
    let dense_event = EventSimulator::with_arena(topo, cfg, policy.clone(), dense_arena())
        .try_run_with_faults(w, seed, faults);
    assert_eq!(
        lazy_oracle, dense_oracle,
        "cycle engine: sparse vs dense-prefill diverged"
    );
    assert_eq!(
        lazy_event, dense_event,
        "event engine: sparse vs dense-prefill diverged"
    );
    assert_eq!(lazy_oracle, lazy_event, "engines diverged");
}

/// Run both engines on identical inputs; the stats must be equal field for
/// field (including `channel_busy`) and conserve packets.
fn assert_exact_agreement(
    topo: &Topology,
    cfg: SimConfig,
    policy: &Policy,
    w: &Workload,
    seed: u64,
    faults: &FaultSchedule,
) -> SimStats {
    let oracle = Simulator::new(topo, cfg, policy.clone()).try_run_with_faults(w, seed, faults);
    let event = EventSimulator::new(topo, cfg, policy.clone()).try_run_with_faults(w, seed, faults);
    assert_recorded_epochs_agree(topo, cfg, policy, w, seed, faults, &oracle);
    let (oracle, event) = match (oracle, event) {
        (Ok(o), Ok(e)) => (o, e),
        (o, e) => {
            // Errors (e.g. a watchdog stall) must also be identical.
            assert_eq!(o, e, "engines disagree on the run outcome");
            return SimStats::default();
        }
    };
    assert_eq!(oracle, event, "engines diverged");
    assert!(oracle.conservation_ok(), "oracle lost packets: {oracle:?}");
    event
}

/// Both schedules once more, recorded: recording must not perturb either
/// run, and the two traces must agree epoch for epoch — same labels, and
/// every `sim.<x>` counter and the `sim.in_flight` gauge equal to its
/// `evsim.<x>` twin. The names come from one table per schedule; this pins
/// that the tables, and what is flushed under them, stay twins.
fn assert_recorded_epochs_agree(
    topo: &Topology,
    cfg: SimConfig,
    policy: &Policy,
    w: &Workload,
    seed: u64,
    faults: &FaultSchedule,
    plain: &Result<SimStats, SimError>,
) {
    let (dense_reg, active_reg) = (Registry::new(), Registry::new());
    let dense = Simulator::new(topo, cfg, policy.clone())
        .try_run_with_faults_recorded(w, seed, faults, &dense_reg);
    let active = EventSimulator::new(topo, cfg, policy.clone()).try_run_with_faults_recorded(
        w,
        seed,
        faults,
        &active_reg,
    );
    assert_eq!(&dense, plain, "recording perturbed the dense schedule");
    assert_eq!(&active, plain, "recording perturbed the active schedule");
    let (dense, active) = (dense_reg.snapshot(), active_reg.snapshot());
    let labels = |epochs: &[EpochSnapshot]| -> Vec<String> {
        epochs.iter().map(|e| e.label.clone()).collect()
    };
    assert_eq!(labels(&dense.epochs), labels(&active.epochs));
    for (d, a) in dense.epochs.iter().zip(&active.epochs) {
        for x in [
            "injected",
            "delivered",
            "timed_out",
            "retries",
            "abandoned",
            "refusals",
            "churn_replans",
            "cycles",
        ] {
            assert_eq!(
                d.counter(&format!("sim.{x}")),
                a.counter(&format!("evsim.{x}")),
                "epoch {}: sim.{x} vs evsim.{x}",
                d.label
            );
        }
        assert_eq!(
            d.gauge("sim.in_flight"),
            a.gauge("evsim.in_flight"),
            "epoch {}: in-flight gauge",
            d.label
        );
    }
    // A stalled run closes no `end` epoch, but both still say how far it got.
    assert_eq!(dense.counter("sim.cycles"), active.counter("evsim.cycles"));
}

/// Decode a small integer into an arbiter (the vendored proptest shim has
/// no `prop_oneof`, so choices are drawn as indices).
fn arbiter_from(pick: u8) -> Arbiter {
    match pick % 3 {
        0 => Arbiter::HolFifo,
        k => Arbiter::Voq { iterations: k },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random ftree shapes, rates, seeds, and arbiters: congested or not,
    /// the engines agree exactly.
    #[test]
    fn ftree_shapes_agree_exactly(
        (n, m, r) in (1usize..3, 1usize..5, 2usize..5),
        rate in 0.1f64..1.0,
        seed in 0u64..1u64 << 48,
        arbiter_pick in 0u8..6,
        drain in proptest::bool::ANY,
    ) {
        let ft = Ftree::new(n, m, r).unwrap();
        let policy = Policy::from_single_path(&DModK::new(&ft));
        let ports = ft.num_leaves() as u32;
        let cfg = SimConfig {
            warmup_cycles: 100,
            measure_cycles: 400,
            arbiter: arbiter_from(arbiter_pick),
            drain,
            ..SimConfig::default()
        };
        assert_exact_agreement(
            ft.topology(),
            cfg,
            &policy,
            &Workload::uniform_random(ports, rate),
            seed,
            &FaultSchedule::new(),
        );
    }

    /// Random fault masks with TTL and retries: the timeout sweep order,
    /// retry RNG draws, and fault transitions replay identically.
    #[test]
    fn fault_masks_agree_exactly(
        num_kills in 0usize..5,
        kills in ((50u64..500, 0usize..16), (50u64..500, 0usize..16),
                  (50u64..500, 0usize..16), (50u64..500, 0usize..16)),
        seed in 0u64..1u64 << 48,
        rate in 0.2f64..0.9,
    ) {
        let ft = Ftree::new(2, 4, 4).unwrap();
        let mp = ObliviousMultipath::new(&ft);
        let policy = Policy::from_multipath(&mp, true);
        let mut faults = FaultSchedule::new();
        let kills = [kills.0, kills.1, kills.2, kills.3];
        for &(cycle, c) in kills.iter().take(num_kills) {
            // Kill an uplink of some edge switch; revive it later.
            faults.kill_link(cycle, ft.topology(), ft.up_channel(c % 4, c / 4));
            faults.revive_link(cycle + 150, ft.topology(), ft.up_channel(c % 4, c / 4));
        }
        let cfg = SimConfig {
            warmup_cycles: 100,
            measure_cycles: 500,
            ttl_cycles: 40,
            retry: true,
            retry_limit: 5,
            drain: true,
            ..SimConfig::default()
        };
        let perm = patterns::shift(8, 3);
        let stats = assert_exact_agreement(
            ft.topology(),
            cfg,
            &policy,
            &Workload::permutation(&perm, rate),
            seed,
            &faults,
        );
        prop_assert!(stats.conservation_ok());
    }

    /// Churn with every replan mode: per-epoch reports (availability,
    /// reconvergence, transition counts) agree exactly too.
    #[test]
    fn churn_epochs_agree_exactly(
        down in 100u64..400,
        outage in 50u64..300,
        seed in 0u64..1u64 << 48,
        mode_pick in 0usize..3,
    ) {
        let ft = Ftree::new(2, 4, 4).unwrap();
        let mp = ObliviousMultipath::new(&ft);
        let mut schedule = ChurnSchedule::new();
        schedule.kill_link(down, ft.topology(), ft.up_channel(0, 1));
        schedule.revive_link(down + outage, ft.topology(), ft.up_channel(0, 1));
        let mode = [
            ReplanMode::Pinned,
            ReplanMode::PerCycle,
            ReplanMode::Hysteresis { k: 100 },
        ][mode_pick];
        let churn = ChurnConfig { mode, epsilon: 0.1, recovery_window: 50 };
        let cfg = SimConfig {
            warmup_cycles: 100,
            measure_cycles: 800,
            ttl_cycles: 50,
            drain: true,
            ..SimConfig::default()
        };
        let perm = patterns::shift(8, 3);
        let w = Workload::permutation(&perm, 0.5);
        let (oracle, oracle_report) =
            Simulator::new(ft.topology(), cfg, Policy::from_multipath(&mp, true))
                .try_run_churn_recorded(&w, seed, &schedule, &churn, &Noop)
                .unwrap();
        let (event, event_report) =
            EventSimulator::new(ft.topology(), cfg, Policy::from_multipath(&mp, true))
                .try_run_churn_recorded(&w, seed, &schedule, &churn, &Noop)
                .unwrap();
        prop_assert_eq!(oracle, event, "stats diverged under {:?}", mode);
        prop_assert_eq!(oracle_report, event_report, "reports diverged under {:?}", mode);
    }

    /// k-ary n-tree shapes (multi-level XGFT topologies): the worklist
    /// arbitration generalizes beyond two-level ftrees.
    #[test]
    fn kary_ntree_agrees_exactly(
        (k, levels) in (2usize..4, 2usize..4),
        shift in 1usize..5,
        seed in 0u64..1u64 << 48,
        arbiter_pick in 0u8..6,
    ) {
        let t = kary_ntree(k, levels).unwrap();
        let router = XgftRouter::dmod(&t);
        let policy = Policy::from_single_path(&router);
        let ports = t.num_leaves() as u32;
        let perm = patterns::shift(ports, shift as u32 % ports.max(1));
        let cfg = SimConfig {
            warmup_cycles: 100,
            measure_cycles: 300,
            arbiter: arbiter_from(arbiter_pick),
            drain: true,
            ..SimConfig::default()
        };
        assert_exact_agreement(
            t.topology(),
            cfg,
            &policy,
            &Workload::permutation(&perm, 0.8),
            seed,
            &FaultSchedule::new(),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Sparse paged state vs dense-prefilled state, across random ftree
    /// shapes, rates, seeds, and arbiters: all four engine/state
    /// combinations produce bit-identical stats.
    #[test]
    fn sparse_vs_dense_shapes_agree_exactly(
        (n, m, r) in (1usize..3, 1usize..5, 2usize..5),
        rate in 0.1f64..1.0,
        seed in 0u64..1u64 << 48,
        arbiter_pick in 0u8..6,
        drain in proptest::bool::ANY,
    ) {
        let ft = Ftree::new(n, m, r).unwrap();
        let policy = Policy::from_single_path(&DModK::new(&ft));
        let ports = ft.num_leaves() as u32;
        let cfg = SimConfig {
            warmup_cycles: 100,
            measure_cycles: 400,
            arbiter: arbiter_from(arbiter_pick),
            drain,
            ..SimConfig::default()
        };
        assert_sparse_dense_identical(
            ft.topology(),
            cfg,
            &policy,
            &Workload::uniform_random(ports, rate),
            seed,
            &FaultSchedule::new(),
        );
    }

    /// Sparse vs dense under random fault masks with TTL and retries: the
    /// touched-page timeout sweep must expire packets in exactly the dense
    /// chained-scan order (untouched queues are empty, so restricting the
    /// scan to materialized pages drops nothing).
    #[test]
    fn sparse_vs_dense_fault_masks_agree_exactly(
        num_kills in 0usize..5,
        kills in ((50u64..500, 0usize..16), (50u64..500, 0usize..16),
                  (50u64..500, 0usize..16), (50u64..500, 0usize..16)),
        seed in 0u64..1u64 << 48,
        rate in 0.2f64..0.9,
    ) {
        let ft = Ftree::new(2, 4, 4).unwrap();
        let mp = ObliviousMultipath::new(&ft);
        let policy = Policy::from_multipath(&mp, true);
        let mut faults = FaultSchedule::new();
        let kills = [kills.0, kills.1, kills.2, kills.3];
        for &(cycle, c) in kills.iter().take(num_kills) {
            faults.kill_link(cycle, ft.topology(), ft.up_channel(c % 4, c / 4));
            faults.revive_link(cycle + 150, ft.topology(), ft.up_channel(c % 4, c / 4));
        }
        let cfg = SimConfig {
            warmup_cycles: 100,
            measure_cycles: 500,
            ttl_cycles: 40,
            retry: true,
            retry_limit: 5,
            drain: true,
            ..SimConfig::default()
        };
        let perm = patterns::shift(8, 3);
        assert_sparse_dense_identical(
            ft.topology(),
            cfg,
            &policy,
            &Workload::permutation(&perm, rate),
            seed,
            &faults,
        );
    }

    /// Sparse vs dense under churn: the per-epoch reports (availability,
    /// reconvergence, transition counts) are identical too.
    #[test]
    fn sparse_vs_dense_churn_reports_agree_exactly(
        down in 100u64..400,
        outage in 50u64..300,
        seed in 0u64..1u64 << 48,
        mode_pick in 0usize..3,
    ) {
        let ft = Ftree::new(2, 4, 4).unwrap();
        let mp = ObliviousMultipath::new(&ft);
        let mut schedule = ChurnSchedule::new();
        schedule.kill_link(down, ft.topology(), ft.up_channel(0, 1));
        schedule.revive_link(down + outage, ft.topology(), ft.up_channel(0, 1));
        let mode = [
            ReplanMode::Pinned,
            ReplanMode::PerCycle,
            ReplanMode::Hysteresis { k: 100 },
        ][mode_pick];
        let churn = ChurnConfig { mode, epsilon: 0.1, recovery_window: 50 };
        let cfg = SimConfig {
            warmup_cycles: 100,
            measure_cycles: 800,
            ttl_cycles: 50,
            drain: true,
            ..SimConfig::default()
        };
        let perm = patterns::shift(8, 3);
        let w = Workload::permutation(&perm, 0.5);
        let lazy = EventSimulator::new(ft.topology(), cfg, Policy::from_multipath(&mp, true))
            .try_run_churn_recorded(&w, seed, &schedule, &churn, &Noop)
            .unwrap();
        let dense = EventSimulator::with_arena(
            ft.topology(), cfg, Policy::from_multipath(&mp, true), dense_arena())
            .try_run_churn_recorded(&w, seed, &schedule, &churn, &Noop)
            .unwrap();
        prop_assert_eq!(lazy, dense, "churn run diverged between sparse and dense state");
    }
}

/// A wedged fabric must stall identically under sparse and dense state:
/// same cycle, same strand graph, same wait cycle. The stall report walks
/// touched pages only, so this pins that sparse diagnosis sees everything
/// the dense scan saw.
#[test]
fn sparse_vs_dense_stall_strand_graphs_agree() {
    let ft = Ftree::new(1, 1, 4).unwrap();
    let r = 4u32;
    let routes: Vec<(u32, u32, Vec<ftclos::topo::ChannelId>)> = (0..r)
        .map(|v| {
            let w = (v + 3) % r;
            let mut channels = vec![ft.leaf_up_channel(v as usize, 0)];
            for k in 0..3 {
                channels.push(ft.up_channel((v as usize + k) % 4, 0));
                channels.push(ft.down_channel(0, (v as usize + k + 1) % 4));
            }
            channels.push(ft.leaf_down_channel(w as usize, 0));
            (v, w, channels)
        })
        .collect();
    let policy = Policy::from_pinned(
        ft.topology(),
        routes.iter().map(|(s, d, p)| (*s, *d, p.as_slice())),
    )
    .unwrap();
    let pairs: Vec<(u32, u32)> = routes.iter().map(|(s, d, _)| (*s, *d)).collect();
    let w = Workload::fixed_pairs(4, &pairs, 1.0);
    let cfg = SimConfig {
        warmup_cycles: 0,
        measure_cycles: 200,
        queue_capacity: 2,
        drain: true,
        stall_watchdog: 64,
        ..SimConfig::default()
    };
    assert_sparse_dense_identical(
        ft.topology(),
        cfg,
        &policy,
        &w,
        0xDEAD,
        &FaultSchedule::new(),
    );
}

/// Thread-count knob sweep: the vendored rayon shim is sequential, and
/// simulation itself is single-threaded by design, so `RAYON_NUM_THREADS`
/// must have zero observable effect on build, route, or replay. Pinning
/// this keeps a future parallel build path honest about determinism.
#[test]
fn rayon_thread_counts_do_not_perturb_replay() {
    let mut results: Vec<SimStats> = Vec::new();
    for threads in ["1", "2", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let ft = Ftree::new(2, 3, 6).unwrap();
        let policy = Policy::from_single_path(&DModK::new(&ft));
        let perm = patterns::shift(ft.num_leaves() as u32, 5);
        let cfg = SimConfig {
            warmup_cycles: 100,
            measure_cycles: 600,
            drain: true,
            ..SimConfig::default()
        };
        let stats = EventSimulator::new(ft.topology(), cfg, policy)
            .try_run(&Workload::permutation(&perm, 0.8), 21)
            .unwrap();
        results.push(stats);
    }
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_eq!(results[0], results[1], "1 vs 2 threads diverged");
    assert_eq!(results[0], results[2], "1 vs 8 threads diverged");
}

/// The memory regression gate: on a fabric where traffic touches a handful
/// of channels, the arena must materialize O(touched) pages, not
/// O(channels). A return to dense allocation fails here long before it
/// OOMs a million-host run (`scale-million`, E25).
#[test]
fn untouched_fabric_allocates_o_touched_pages() {
    // 16384 hosts, 65536 directed channels -> 128 pages per channel array
    // dense; two flows should touch a handful. Pin just the two flows'
    // d-mod-k routes: precomputing all 268M pairs would swamp the test.
    let ft = Ftree::new(16, 16, 1024).unwrap();
    let num_channels = ft.topology().num_channels();
    let pairs = [(0u32, 9000u32), (5u32, 12000u32)];
    let router = DModK::new(&ft);
    let routes: Vec<(u32, u32, Vec<ftclos::topo::ChannelId>)> = pairs
        .iter()
        .map(|&(s, d)| {
            let path = router.route(ftclos::traffic::SdPair::new(s, d));
            (s, d, path.channels().to_vec())
        })
        .collect();
    let policy = Policy::from_pinned(
        ft.topology(),
        routes.iter().map(|(s, d, p)| (*s, *d, p.as_slice())),
    )
    .unwrap();
    let ports = ft.num_leaves() as u32;
    let w = Workload::fixed_pairs(ports, &pairs, 0.5);
    let cfg = SimConfig {
        warmup_cycles: 50,
        measure_cycles: 200,
        drain: true,
        ..SimConfig::default()
    };
    let mut sim = EventSimulator::new(ft.topology(), cfg, policy);
    let stats = sim.try_run(&w, 77).unwrap();
    assert!(
        stats.delivered_total > 0,
        "flows must actually move packets"
    );
    let arena = sim.into_arena();
    let touched = arena.touched_channels();
    assert!(touched > 0, "moving packets must touch state");
    assert!(
        touched * 8 < num_channels,
        "paged state must stay O(touched): {touched} of {num_channels} channels materialized"
    );
}

/// The channel-grain gate: a sparse permutation on the recursive fabric the
/// Discussion builds (n = 16: 69,632 hosts, 38,019,072 channels) holds state
/// for the channels its packets cross, not for 512-channel neighbourhoods.
/// The bounds are 1.5x the readings of one 24-byte channel record in
/// 64-entry pages (1,695,488 channels, 49,118,976 bytes); three separate
/// channel arrays in 512-entry pages read 3,290,112 and 81,742,688 and fail.
/// The busy accumulator's bound is 1.5x its reading in 64-entry pages
/// (14,707,200 bytes); in 512-entry pages it reads 25,864,256 and fails.
#[test]
fn recursive_sparse_run_touches_channel_grain_pages() {
    let net = RecursiveNonblocking::new(16).unwrap();
    let router = YuanRecursive::new(&net);
    let ports = net.topology().num_leaves() as u32;
    let perm = patterns::shift(ports, 13);
    let policy = Policy::from_assignment(&route_all(&router, &perm).unwrap());
    let cfg = SimConfig {
        warmup_cycles: 5,
        measure_cycles: 15,
        ..SimConfig::default()
    };
    let mut sim = EventSimulator::new(net.topology(), cfg, policy);
    let stats = sim.try_run(&Workload::permutation(&perm, 0.02), 7).unwrap();
    assert!(stats.delivered_total > 0 && stats.conservation_ok());
    let arena = sim.into_arena();
    let (touched, bytes) = (arena.touched_channels(), arena.state_bytes());
    assert!(
        touched * 2 <= 1_695_488 * 3,
        "{touched} channels materialized, over 1.5x 1,695,488"
    );
    assert!(
        bytes * 2 <= 49_118_976 * 3,
        "{bytes} bytes of simulator state, over 1.5x 49,118,976"
    );
    let busy = stats.channel_busy.state_bytes();
    assert!(
        busy * 2 <= 14_707_200 * 3,
        "{busy} bytes of busy counts, over 1.5x 14,707,200"
    );
}

/// The recursive three-level nonblocking construction — the shape the
/// event engine exists for — agrees exactly at a testable size.
#[test]
fn recursive_three_level_agrees_exactly() {
    let net = RecursiveNonblocking::new(2).unwrap();
    let router = YuanRecursive::new(&net);
    let policy = Policy::from_single_path(&router);
    let ports = net.topology().num_leaves() as u32;
    let perm = patterns::shift(ports, 5);
    let cfg = SimConfig {
        warmup_cycles: 100,
        measure_cycles: 400,
        drain: true,
        ..SimConfig::default()
    };
    let stats = assert_exact_agreement(
        net.topology(),
        cfg,
        &policy,
        &Workload::permutation(&perm, 0.7),
        11,
        &FaultSchedule::new(),
    );
    assert!(stats.delivered_total > 0);
    assert_eq!(stats.leftover_packets, 0, "nonblocking fabric must drain");
}

/// Line rate on a provably nonblocking fabric: the event engine preserves
/// the paper's headline result (Theorem 3 routing sustains rate 1.0).
#[test]
fn event_engine_preserves_nonblocking_line_rate() {
    let ft = Ftree::new(2, 4, 5).unwrap();
    let router = ftclos::routing::YuanDeterministic::new(&ft).unwrap();
    let policy = Policy::from_single_path(&router);
    let perm = patterns::shift(10, 3);
    let cfg = SimConfig {
        warmup_cycles: 300,
        measure_cycles: 1_200,
        ..SimConfig::default()
    };
    let stats = EventSimulator::new(ft.topology(), cfg, policy)
        .try_run(&Workload::permutation(&perm, 1.0), 3)
        .unwrap();
    assert!(
        stats.accepted_throughput() > 0.99,
        "nonblocking fabric must sustain line rate: {}",
        stats.accepted_throughput()
    );
}
