//! End-to-end integration: topology → routing → verification → simulation,
//! across crates. These tests exercise the whole pipeline the way the
//! experiment harnesses do, but with assertions suitable for CI.

use ftclos::core::construct::{NonblockingFtree, NonblockingThreeLevel};
use ftclos::core::flow;
use ftclos::core::search::{blocking_report, find_blocking_two_pair};
use ftclos::core::verify::is_nonblocking_deterministic;
use ftclos::routing::{
    route_all, DModK, NonblockingAdaptive, PatternRouter, RearrangeableRouter, YuanDeterministic,
};
use ftclos::sim::{Policy, SimConfig, Simulator, Workload};
use ftclos::topo::Ftree;
use ftclos::traffic::patterns;
use rand::SeedableRng;

fn rng(seed: u64) -> rand_chacha::ChaCha8Rng {
    rand_chacha::ChaCha8Rng::seed_from_u64(seed)
}

#[test]
fn theorem3_pipeline_flow_and_packets_agree() {
    // Flow-level says throughput 1.0; the packet simulator should deliver
    // ~line rate for the same permutation on the same fabric.
    let fabric = NonblockingFtree::new(2, 6).unwrap();
    let mut g = rng(1);
    let perm = patterns::random_derangement(fabric.ports() as u32, &mut g);
    let assignment = fabric.route(&perm).unwrap();
    assert_eq!(flow::saturation_throughput(&assignment), 1.0);

    let cfg = SimConfig {
        warmup_cycles: 200,
        measure_cycles: 1_000,
        ..SimConfig::default()
    };
    let router = fabric.router();
    let stats = Simulator::new(
        fabric.ftree().topology(),
        cfg,
        Policy::from_single_path(&router),
    )
    .run(&Workload::permutation(&perm, 1.0), 5);
    assert!(
        stats.accepted_throughput() > 0.95,
        "packet level {} disagrees with flow level 1.0",
        stats.accepted_throughput()
    );
}

#[test]
fn contended_assignment_flow_predicts_packet_loss() {
    // d-mod-k funnel: flow-level predicts 1/4 throughput for the 4-flow
    // funnel; the simulator should be in that ballpark.
    let ft = Ftree::new(4, 4, 9).unwrap();
    let router = DModK::new(&ft);
    let perm = ftclos::traffic::Permutation::from_pairs(
        36,
        (0..4).map(|k| ftclos::traffic::SdPair::new(k, (k + 1) * 4)),
    )
    .unwrap();
    let assignment = route_all(&router, &perm).unwrap();
    let predicted = flow::saturation_throughput(&assignment);
    assert!((predicted - 0.25).abs() < 1e-9);

    let cfg = SimConfig {
        warmup_cycles: 300,
        measure_cycles: 1_500,
        ..SimConfig::default()
    };
    let stats = Simulator::new(ft.topology(), cfg, Policy::from_single_path(&router))
        .run(&Workload::permutation(&perm, 1.0), 9);
    assert!(
        (stats.accepted_throughput() - predicted).abs() < 0.08,
        "sim {} vs flow {predicted}",
        stats.accepted_throughput()
    );
}

#[test]
fn all_nonblocking_constructions_pass_complete_audit() {
    for n in 1..=3usize {
        let f2 = NonblockingFtree::new(n, (2 * n + 1).max(2)).unwrap();
        assert!(
            is_nonblocking_deterministic(&f2.router()),
            "2-level n={n} fails audit"
        );
    }
    let f3 = NonblockingThreeLevel::new(2).unwrap();
    assert!(
        is_nonblocking_deterministic(&f3.router()),
        "3-level fails audit"
    );
}

#[test]
fn deterministic_routers_below_n2_always_block() {
    for (n, r) in [(2usize, 5usize), (3, 7)] {
        for m in 1..n * n {
            let ft = Ftree::new(n, m, r).unwrap();
            assert!(
                find_blocking_two_pair(&DModK::new(&ft)).found_blocking(),
                "n={n} m={m} should block"
            );
        }
    }
}

#[test]
fn pattern_routers_agree_on_nonblocking_verdicts() {
    // On a fabric where all three "clean" routers apply, none ever
    // contends over a shared random workload.
    let ft = Ftree::new(2, 16, 4).unwrap();
    let yuan_ft = Ftree::new(2, 4, 4).unwrap();
    let benes_ft = Ftree::new(2, 2, 4).unwrap();
    let adaptive = NonblockingAdaptive::new(&ft).unwrap();
    let yuan = YuanDeterministic::new(&yuan_ft).unwrap();
    let central = RearrangeableRouter::new(&benes_ft).unwrap();
    let mut g = rng(3);
    for _ in 0..25 {
        let perm = patterns::random_full(8, &mut g);
        assert!(adaptive.route_pattern(&perm).unwrap().max_channel_load() <= 1);
        assert!(
            PatternRouter::route_pattern(&yuan, &perm)
                .unwrap()
                .max_channel_load()
                <= 1
        );
        assert!(central.route_pattern(&perm).unwrap().max_channel_load() <= 1);
    }
}

#[test]
fn contention_structure_of_baselines_is_complementary() {
    // At m = n, d-mod-k and greedy local adaptive fail in mirror ways:
    // d-mod-k's downlinks are clean (top = d mod n separates same-switch
    // destinations) but its uplinks collide; greedy balances each switch's
    // uplinks perfectly but its downlinks collide. The Theorem 3 routing
    // at m = n² has neither. This is the structural content behind any
    // blocking-probability comparison.
    let ft = Ftree::new(3, 3, 7).unwrap();
    let topo = ft.topology();
    let dmodk = DModK::new(&ft);
    let greedy = ftclos::routing::GreedyLocalAdaptive::new(&ft);
    let mut g = rng(7);
    let mut dmodk_up = 0u32;
    let mut dmodk_down = 0u32;
    let mut greedy_up = 0u32;
    let mut greedy_down = 0u32;
    for _ in 0..60 {
        let perm = patterns::random_full(21, &mut g);
        for (router, up, down) in [
            (
                PatternRouter::route_pattern(&dmodk, &perm).unwrap(),
                &mut dmodk_up,
                &mut dmodk_down,
            ),
            (
                greedy.route_pattern(&perm).unwrap(),
                &mut greedy_up,
                &mut greedy_down,
            ),
        ] {
            for (c, load) in router.channel_loads() {
                if load <= 1 {
                    continue;
                }
                let ch = topo.channel(c);
                if ft.top_index(ch.dst).is_some() {
                    *up += 1;
                } else if ft.top_index(ch.src).is_some() {
                    *down += 1;
                }
            }
        }
    }
    assert!(dmodk_up > 0, "d-mod-k must show uplink contention");
    assert_eq!(dmodk_down, 0, "d-mod-k downlinks are clean at m = n");
    assert_eq!(greedy_up, 0, "greedy uplinks are clean");
    assert!(greedy_down > 0, "greedy must show downlink contention");

    let ft_nb = Ftree::new(3, 9, 7).unwrap();
    let f_yuan =
        blocking_report(&YuanDeterministic::new(&ft_nb).unwrap(), 120, 7).blocking_fraction();
    assert_eq!(f_yuan, 0.0);
}

#[test]
fn adaptive_beats_deterministic_top_count_at_scale() {
    // Theorem 5's practical consequence on a concrete fabric sweep.
    let mut g = rng(11);
    for n in [6usize, 8] {
        let r = n * n;
        let ft = Ftree::new(n, 1, r).unwrap();
        let router = NonblockingAdaptive::new(&ft).unwrap();
        let mut worst = 0usize;
        for _ in 0..10 {
            let perm = patterns::random_full((n * r) as u32, &mut g);
            worst = worst.max(router.plan(&perm).unwrap().tops_needed());
        }
        assert!(worst < n * n, "n={n}: {worst} tops >= n²");
    }
}

#[test]
fn three_level_sim_delivers_line_rate() {
    let f3 = NonblockingThreeLevel::new(2).unwrap();
    let router = f3.router();
    let mut g = rng(13);
    let perm = patterns::random_derangement(f3.ports() as u32, &mut g);
    let cfg = SimConfig {
        warmup_cycles: 300,
        measure_cycles: 1_200,
        ..SimConfig::default()
    };
    let stats = Simulator::new(
        f3.network().topology(),
        cfg,
        Policy::from_single_path(&router),
    )
    .run(&Workload::permutation(&perm, 1.0), 17);
    assert!(
        stats.accepted_throughput() > 0.93,
        "3-level throughput {}",
        stats.accepted_throughput()
    );
}
