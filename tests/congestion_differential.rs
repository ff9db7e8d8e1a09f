//! Differential proptests pinning the min-congestion router family against
//! every existing router, across topology families and fault masks.
//!
//! The invariants under test are the ones the solver's construction is
//! supposed to guarantee:
//!
//! * **Never worse than a projectable baseline.** `plan_seeded_with`
//!   projects each baseline assignment into the candidate set and starts
//!   repair from the best placement it has seen, so the repaired max link
//!   load is `<=` every baseline that projects — Theorem 3, d-mod-k,
//!   s-mod-k on ftrees, the XGFT mod-routers on k-ary n-trees, and the
//!   composed recursive router on the three-level construction.
//! * **Never below the demand lower bound.** No placement can beat
//!   `ceil(max forced per-channel demand / capacity)`.
//! * **Mode dominance.** `Repaired` starts from the best of the greedy and
//!   rounded placements (plus any seeds) and only accepts strict
//!   improvements, so it is `<=` both other modes.
//! * **Monotone repair.** The repair trace never increases and bookends at
//!   the reported plan: `trace.len() == moves + 1` and the last entry is
//!   the final max link load.
//! * **Host-relabeling invariance.** An order-preserving relabeling of the
//!   hosts (with the candidate provider composed to undo it) changes
//!   nothing: same max load, same move count, same trace.
//!
//! The vendored proptest shim only generates primitive values, so every
//! structured input (permutations, fault masks) derives deterministically
//! from a generated `u64` seed.

use ftclos::obs::Noop;
use ftclos_routing::{
    demand_lower_bound, route_all, CongestionConfig, CongestionMode, DModK, FaultAware,
    FnCandidates, FtreeCandidates, MinCongestion, Path, RouteAssignment, SModK, SinglePathRouter,
    XgftRouter, YuanDeterministic, YuanRecursive,
};
use ftclos_topo::{kary_ntree, FaultSet, FaultyView, Ftree, RecursiveNonblocking};
use ftclos_traffic::{patterns, Permutation, SdPair};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A deterministic random full permutation, optionally thinned to a partial
/// one (Definition 1 allows unused leaves) by dropping one residue class.
fn perm_from_seed(ports: u32, seed: u64, drop: u32) -> Permutation {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let full = patterns::random_full(ports, &mut rng);
    if drop == 0 {
        full
    } else {
        full.filter_sources(|s| s % 4 != drop % 4)
    }
}

/// Max link load of a plan in a given `CongestionMode`.
fn mode_max(
    ft: &Ftree,
    config: CongestionConfig,
    mode: CongestionMode,
    perm: &Permutation,
    seeds: &[&RouteAssignment],
) -> u32 {
    let config = CongestionConfig { mode, ..config };
    let router = MinCongestion::with_config(FtreeCandidates::pristine(ft), config);
    let plan = router
        .plan_seeded_with(perm, seeds, &Noop)
        .expect("pristine ftree plans");
    plan.max_link_load()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Pristine ftrees: the repaired plan never loses to any baseline
    /// router, never beats the demand lower bound, dominates the other two
    /// modes, and its assignment re-measures to the claimed max load.
    #[test]
    fn ftree_repaired_beats_every_projectable_baseline(
        seed in 0u64..1_000_000,
        n in 1u32..4,
        m in 1u32..6,
        r in 2u32..7,
        drop in 0u32..4,
    ) {
        let ft = Ftree::new(n as usize, m as usize, r as usize).unwrap();
        let ports = ft.num_leaves() as u32;
        let perm = perm_from_seed(ports, seed, drop);

        let mut seeds: Vec<RouteAssignment> = Vec::new();
        if let Ok(yuan) = YuanDeterministic::new(&ft) {
            seeds.push(route_all(&yuan, &perm).unwrap());
        }
        seeds.push(route_all(&DModK::new(&ft), &perm).unwrap());
        seeds.push(route_all(&SModK::new(&ft), &perm).unwrap());
        let seed_refs: Vec<&RouteAssignment> = seeds.iter().collect();

        let config = CongestionConfig { seed, ..CongestionConfig::default() };
        let router = MinCongestion::with_config(FtreeCandidates::pristine(&ft), config);
        let plan = router.plan_seeded_with(&perm, &seed_refs, &Noop).unwrap();
        plan.assignment().validate(ft.topology()).map_err(|e| e.to_string())?;

        for baseline in &seeds {
            prop_assert!(
                plan.max_link_load() <= baseline.max_channel_load(),
                "repaired {} > baseline {}",
                plan.max_link_load(),
                baseline.max_channel_load()
            );
        }
        let bound = demand_lower_bound(&FtreeCandidates::pristine(&ft), &perm, 1).unwrap();
        prop_assert!(plan.max_link_load() >= bound);
        // The plan's own meter agrees with the assignment-level recount.
        prop_assert_eq!(plan.max_link_load(), plan.assignment().max_channel_load());

        // Mode dominance: repaired starts from the best of both other
        // modes' placements, so it can only be at least as good.
        let greedy = mode_max(&ft, config, CongestionMode::Greedy, &perm, &seed_refs);
        let rounded = mode_max(&ft, config, CongestionMode::Rounded, &perm, &seed_refs);
        prop_assert!(plan.max_link_load() <= greedy);
        prop_assert!(plan.max_link_load() <= rounded);
    }

    /// Faulted ftrees: wherever the masked solver still plans, it uses only
    /// surviving channels, respects the masked demand lower bound, and never
    /// loses to a fault-aware baseline that also managed to route.
    #[test]
    fn faulted_ftree_differential(
        seed in 0u64..1_000_000,
        n in 1u32..4,
        m in 2u32..6,
        r in 2u32..7,
        fail_links in 1u32..5,
    ) {
        let ft = Ftree::new(n as usize, m as usize, r as usize).unwrap();
        let ports = ft.num_leaves() as u32;
        let perm = perm_from_seed(ports, seed, 0);
        let faults = FaultSet::random_links(ft.topology(), fail_links as usize, seed);
        let view = FaultyView::new(ft.topology(), &faults);

        let mut seeds: Vec<RouteAssignment> = Vec::new();
        if let Ok(yuan) = YuanDeterministic::new(&ft) {
            if let Ok(asg) = FaultAware::new(yuan, &view).route_pattern_checked(&perm) {
                seeds.push(asg);
            }
        }
        if let Ok(asg) = FaultAware::new(DModK::new(&ft), &view).route_pattern_checked(&perm) {
            seeds.push(asg);
        }
        if let Ok(asg) = FaultAware::new(SModK::new(&ft), &view).route_pattern_checked(&perm) {
            seeds.push(asg);
        }
        let seed_refs: Vec<&RouteAssignment> = seeds.iter().collect();

        let router = MinCongestion::with_config(
            FtreeCandidates::masked(&ft, &view),
            CongestionConfig { seed, ..CongestionConfig::default() },
        );
        let plan = match router.plan_seeded_with(&perm, &seed_refs, &Noop) {
            Ok(plan) => plan,
            // The mask can sever a pair entirely; nothing to compare then.
            Err(_) => return Ok(()),
        };
        plan.assignment().validate(ft.topology()).map_err(|e| e.to_string())?;
        for (_, path) in plan.assignment().routes() {
            prop_assert!(view.path_alive(path.channels()).is_ok());
        }
        for baseline in &seeds {
            prop_assert!(plan.max_link_load() <= baseline.max_channel_load());
        }
        let bound = demand_lower_bound(&FtreeCandidates::masked(&ft, &view), &perm, 1).unwrap();
        prop_assert!(plan.max_link_load() >= bound);
    }

    /// The repair loop only ever accepts strict improvements: the recorded
    /// trace is non-increasing, one entry per accepted move plus the start,
    /// ending exactly at the reported max link load.
    #[test]
    fn repair_trace_never_increases_per_accepted_move(
        seed in 0u64..1_000_000,
        n in 1u32..4,
        m in 1u32..5,
        r in 2u32..7,
        drop in 0u32..4,
    ) {
        let ft = Ftree::new(n as usize, m as usize, r as usize).unwrap();
        let ports = ft.num_leaves() as u32;
        let perm = perm_from_seed(ports, seed, drop);
        let router = MinCongestion::with_config(
            FtreeCandidates::pristine(&ft),
            CongestionConfig { seed, ..CongestionConfig::default() },
        );
        let plan = router.plan_seeded_with(&perm, &[], &Noop).unwrap();
        let trace = plan.repair_trace();
        prop_assert_eq!(trace.len() as u64, plan.moves() + 1);
        for w in trace.windows(2) {
            prop_assert!(w[1] <= w[0], "repair increased max load: {:?}", trace);
        }
        prop_assert_eq!(*trace.last().unwrap(), plan.max_link_load());
    }

    /// Order-preserving host relabeling is a no-op: shifting every host id
    /// by a constant (and composing the candidate provider with the inverse
    /// shift) preserves pair order, candidate order, and RNG draws, so the
    /// whole solve replays identically.
    #[test]
    fn host_relabeling_leaves_the_solve_invariant(
        seed in 0u64..1_000_000,
        n in 1u32..4,
        m in 1u32..6,
        r in 2u32..7,
        offset in 1u32..9,
    ) {
        let ft = Ftree::new(n as usize, m as usize, r as usize).unwrap();
        let ports = ft.num_leaves() as u32;
        let perm = perm_from_seed(ports, seed, 0);
        let config = CongestionConfig { seed, ..CongestionConfig::default() };

        let base = FtreeCandidates::pristine(&ft);
        let plan = MinCongestion::with_config(FtreeCandidates::pristine(&ft), config)
            .plan_seeded_with(&perm, &[], &Noop)
            .unwrap();

        let shifted_perm = Permutation::from_pairs(
            ports + offset,
            perm.pairs()
                .iter()
                .map(|p| SdPair::new(p.src + offset, p.dst + offset)),
        )
        .unwrap();
        let shifted = FnCandidates::new(ports + offset, |pair: SdPair| {
            ftclos_routing::PathCandidates::candidates(
                &base,
                SdPair::new(pair.src - offset, pair.dst - offset),
            )
        });
        let shifted_plan = MinCongestion::with_config(shifted, config)
            .plan_seeded_with(&shifted_perm, &[], &Noop)
            .unwrap();

        prop_assert_eq!(plan.max_link_load(), shifted_plan.max_link_load());
        prop_assert_eq!(plan.moves(), shifted_plan.moves());
        prop_assert_eq!(plan.rounds(), shifted_plan.rounds());
        prop_assert_eq!(plan.repair_trace(), shifted_plan.repair_trace());
        prop_assert_eq!(plan.witness_channel(), shifted_plan.witness_channel());
    }

    /// K-ary n-trees through the XGFT routers: the solver over
    /// `XgftRouter::all_paths` candidates never loses to the d-mod or s-mod
    /// single-path placements and stays above the demand bound.
    #[test]
    fn kary_ntree_differential(
        seed in 0u64..1_000_000,
        k in 2u32..4,
        levels in 2u32..4,
        drop in 0u32..4,
    ) {
        let t = kary_ntree(k as usize, levels as usize).unwrap();
        let ports = (k as u64).pow(levels) as u32;
        let perm = perm_from_seed(ports, seed, drop);
        let dmod = XgftRouter::dmod(&t);
        let smod = XgftRouter::smod(&t);
        let seeds = [route_all(&dmod, &perm).unwrap(), route_all(&smod, &perm).unwrap()];
        let seed_refs: Vec<&RouteAssignment> = seeds.iter().collect();

        let provider = FnCandidates::new(ports, |pair| Ok(dmod.all_paths(pair)));
        let router = MinCongestion::with_config(
            provider,
            CongestionConfig { seed, ..CongestionConfig::default() },
        );
        let plan = router.plan_seeded_with(&perm, &seed_refs, &Noop).unwrap();
        plan.assignment().validate(t.topology()).map_err(|e| e.to_string())?;
        for baseline in &seeds {
            prop_assert!(plan.max_link_load() <= baseline.max_channel_load());
        }
        let bound = demand_lower_bound(
            &FnCandidates::new(ports, |pair| Ok(dmod.all_paths(pair))),
            &perm,
            1,
        )
        .unwrap();
        prop_assert!(plan.max_link_load() >= bound);
    }

    /// The three-level recursive construction: candidates enumerate every
    /// (logical top, inner top) choice, so the composed Theorem 3 route is
    /// one of them and the warm-started solver can only match or beat it.
    #[test]
    fn recursive_differential(seed in 0u64..1_000_000, drop in 0u32..4) {
        let net = RecursiveNonblocking::new(2).unwrap();
        let ports = net.num_leaves() as u32;
        let perm = perm_from_seed(ports, seed, drop);
        let yuan = YuanRecursive::new(&net);
        let baseline = route_all(&yuan, &perm).unwrap();
        let seed_refs = [&baseline];

        let provider = FnCandidates::new(ports, |pair| Ok(recursive_candidates(&net, pair)));
        let router = MinCongestion::with_config(
            provider,
            CongestionConfig { seed, ..CongestionConfig::default() },
        );
        let plan = router.plan_seeded_with(&perm, &seed_refs, &Noop).unwrap();
        plan.assignment().validate(net.topology()).map_err(|e| e.to_string())?;
        prop_assert!(plan.max_link_load() <= baseline.max_channel_load());
        // Full permutations on the nonblocking construction: the baseline is
        // already optimal at load 1, and the solver must land there too.
        if perm.is_full() && !perm.pairs().iter().all(|p| p.src == p.dst) {
            prop_assert_eq!(plan.max_link_load(), 1);
        }
        let bound = demand_lower_bound(
            &FnCandidates::new(ports, |pair| Ok(recursive_candidates(&net, pair))),
            &perm,
            1,
        )
        .unwrap();
        prop_assert!(plan.max_link_load() >= bound);
    }
}

/// Every up-down path of the three-level recursive construction for one SD
/// pair: all `n²` logical-top choices crossed with all `n²` inner-top
/// choices (the composed Theorem 3 route is the `(i·n+j, ii·n+ij)` member).
fn recursive_candidates(net: &RecursiveNonblocking, pair: SdPair) -> Vec<Path> {
    let n = net.n();
    let (v, i) = (pair.src as usize / n, pair.src as usize % n);
    let (w, j) = (pair.dst as usize / n, pair.dst as usize % n);
    if pair.src == pair.dst {
        return vec![Path::empty()];
    }
    if v == w {
        return vec![Path::new(vec![
            net.leaf_up_channel(v, i),
            net.leaf_down_channel(w, j),
        ])];
    }
    let (ib_s, ib_d) = (v / n, w / n);
    let mut out = Vec::new();
    for g in 0..n * n {
        if ib_s == ib_d {
            out.push(Path::new(vec![
                net.leaf_up_channel(v, i),
                net.up1_channel(v, g),
                net.down1_channel(g, w),
                net.leaf_down_channel(w, j),
            ]));
        } else {
            for it in 0..n * n {
                out.push(Path::new(vec![
                    net.leaf_up_channel(v, i),
                    net.up1_channel(v, g),
                    net.up2_channel(g, ib_s, it),
                    net.down2_channel(g, it, ib_d),
                    net.down1_channel(g, w),
                    net.leaf_down_channel(w, j),
                ]));
            }
        }
    }
    out
}

/// The composed recursive route really is a member of the enumerated
/// candidate set (otherwise the projection warm start silently degrades).
#[test]
fn recursive_candidates_contain_the_yuan_route() {
    let net = RecursiveNonblocking::new(2).unwrap();
    let yuan = YuanRecursive::new(&net);
    let ports = net.num_leaves() as u32;
    for s in 0..ports {
        for d in 0..ports {
            let pair = SdPair::new(s, d);
            let route = yuan.route(pair);
            let cands = recursive_candidates(&net, pair);
            assert!(
                cands.iter().any(|c| c.channels() == route.channels()),
                "({s},{d}): composed route missing from candidates"
            );
        }
    }
}
