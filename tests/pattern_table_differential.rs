//! `ftclos simulate` tabulates a single-path router's routes for the pairs
//! of the one permutation it injects (`Policy::from_assignment` over
//! `route_all`), not for every ordered leaf pair (`Policy::from_single_path`).
//! Only a row's number differs between the two tables, and a packet uses it
//! solely to find its hops, so every run must come out the same: this file
//! pins that, Debug text for Debug text, on both engines.
//!
//! The axes are the ones a row id could leak through: the three rule
//! routers, patterns made only of self pairs (the empty path), mixing them
//! with moving pairs, or moving every leaf, HoL and iSLIP arbitration, and a
//! run whose uplink dies and comes back while timed-out packets re-pick
//! their route.

use ftclos::evsim::EventSimulator;
use ftclos::obs::Registry;
use ftclos::routing::{route_all, DModK, SModK, SinglePathRouter, YuanDeterministic};
use ftclos::sim::{Arbiter, FaultSchedule, Policy, SimConfig, Simulator, Workload};
use ftclos::topo::Ftree;
use ftclos::traffic::{patterns, Permutation};
use ftclos_cli::commands::simulate;
use ftclos_cli::Opts;
use rand::SeedableRng;

/// A `random_full` permutation over `ports` leaves with at least one fixed
/// point and at least one moving leaf: the first such draw from seed 0 on.
fn random_with_fixed_points(ports: u32) -> Permutation {
    (0..64u64)
        .map(|seed| patterns::random_full(ports, &mut rand_chacha::ChaCha8Rng::seed_from_u64(seed)))
        .find(|p| {
            let fixed = p.pairs().iter().filter(|q| q.src == q.dst).count();
            fixed > 0 && fixed < p.len()
        })
        .expect("some seed below 64 draws a permutation with a fixed point")
}

/// The fault schedules every scenario runs under: none, and the first
/// uplink of edge switch 0 dying at cycle 60 and coming back at 140.
fn fault_schedules(ft: &Ftree) -> [FaultSchedule; 2] {
    let mut outage = FaultSchedule::new();
    outage
        .kill_link(60, ft.topology(), ft.up_channel(0, 0))
        .revive_link(140, ft.topology(), ft.up_channel(0, 0));
    [FaultSchedule::new(), outage]
}

/// Both tables, both engines, every arbiter and fault schedule: the run's
/// `Debug` text must not depend on which table routed it.
fn assert_tables_agree<R: SinglePathRouter>(ft: &Ftree, router: &R, perm: &Permutation) {
    let all_pairs = Policy::from_single_path(router);
    let pattern = Policy::from_assignment(&route_all(router, perm).unwrap());
    assert_eq!(pattern.routes(), perm.len());
    let workload = Workload::permutation(perm, 0.7);
    for arbiter in [Arbiter::HolFifo, Arbiter::Voq { iterations: 2 }] {
        for (faulted, faults) in fault_schedules(ft).iter().enumerate() {
            let cfg = SimConfig {
                warmup_cycles: 40,
                measure_cycles: 160,
                arbiter,
                // The faulted runs time packets out and retransmit them, so
                // a pair picks its route again after the first injection.
                ttl_cycles: if faulted == 1 { 30 } else { 0 },
                retry: faulted == 1,
                retry_limit: 3,
                drain: true,
                ..SimConfig::default()
            };
            let seed = 0xC0FFEE ^ perm.len() as u64;
            let cycle = |policy: &Policy| {
                let run = Simulator::new(ft.topology(), cfg, policy.clone())
                    .try_run_with_faults(&workload, seed, faults);
                format!("{run:?}")
            };
            let event = |policy: &Policy| {
                let run = EventSimulator::new(ft.topology(), cfg, policy.clone())
                    .try_run_with_faults(&workload, seed, faults);
                format!("{run:?}")
            };
            let ctx = format!(
                "{} on ftree({}+{}, {}), {} pairs, {arbiter:?}, faulted: {}",
                router.name(),
                ft.n(),
                ft.m(),
                ft.r(),
                perm.len(),
                faulted == 1
            );
            assert_eq!(cycle(&all_pairs), cycle(&pattern), "cycle engine: {ctx}");
            assert_eq!(event(&all_pairs), event(&pattern), "event engine: {ctx}");
        }
    }
}

/// Every pattern on one fabric, under each rule router the fabric admits
/// (Yuan needs `m >= n²`).
fn check_fabric(n: usize, m: usize, r: usize) {
    let ft = Ftree::new(n, m, r).unwrap();
    let ports = ft.num_leaves() as u32;
    let perms = [
        patterns::identity(ports),
        random_with_fixed_points(ports),
        patterns::shift(ports, 3),
    ];
    for perm in &perms {
        match YuanDeterministic::new(&ft) {
            Ok(yuan) => assert_tables_agree(&ft, &yuan, perm),
            Err(_) => assert!(m < n * n, "Yuan refused ftree({n}+{m}, {r})"),
        }
        assert_tables_agree(&ft, &DModK::new(&ft), perm);
        assert_tables_agree(&ft, &SModK::new(&ft), perm);
    }
}

#[test]
fn pattern_table_matches_all_pairs_table_on_a_nonblocking_fabric() {
    check_fabric(2, 4, 5);
}

#[test]
fn pattern_table_matches_all_pairs_table_on_a_blocking_fabric() {
    check_fabric(3, 3, 4);
}

/// The routers `simulate --router` takes, as `ftclos help` lists them.
fn simulate_roster() -> Vec<String> {
    let help = ftclos_cli::run(&["help".to_string()]).unwrap();
    let line = help
        .lines()
        .find_map(|l| l.trim_start().strip_prefix("simulate "))
        .expect("`ftclos help` lists simulate's routers");
    line.trim().split('|').map(String::from).collect()
}

#[test]
fn simulate_tabulates_one_route_per_pattern_pair_for_every_router() {
    let roster = simulate_roster();
    assert!(roster.len() >= 6, "{roster:?}");
    let ports = 2 * 4;
    for pattern in ["shift:3", "identity", "random", "transpose"] {
        let perm = ftclos_cli::commands::common::make_pattern(pattern, ports, 7).unwrap();
        for router in &roster {
            let args = format!("2 8 4 --router {router} --pattern {pattern} --seed 7 --cycles 40");
            let argv: Vec<String> = args.split_whitespace().map(String::from).collect();
            let reg = Registry::new();
            simulate::run(&Opts::parse(&argv).unwrap(), &reg)
                .unwrap_or_else(|e| panic!("`simulate {args}` failed: {e}"));
            assert_eq!(
                reg.snapshot().counter("policy.routes"),
                Some(perm.pairs().len() as u64),
                "simulate {args}"
            );
        }
    }
}
