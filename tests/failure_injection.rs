//! Failure injection: sabotage routing in controlled ways and confirm every
//! verifier actually catches the fault. A verification suite that never
//! sees a negative is untested itself.

mod oracle;

use ftclos::core::search::find_blocking_two_pair;
use ftclos::core::verify::{is_nonblocking_deterministic, multipath_violation};
use ftclos::routing::{route_all, Path, SinglePathRouter, YuanDeterministic};
use ftclos::topo::{ChannelId, Ftree};
use ftclos::traffic::SdPair;
use oracle::LinkAudit;

/// Wraps the Theorem 3 router but forces one specific pair onto the wrong
/// top switch.
struct Sabotaged<'a> {
    inner: YuanDeterministic<'a>,
    ft: &'a Ftree,
    victim: SdPair,
    wrong_top: usize,
}

impl SinglePathRouter for Sabotaged<'_> {
    fn ports(&self) -> u32 {
        SinglePathRouter::ports(&self.inner)
    }
    fn route_into(&self, pair: SdPair, out: &mut Vec<ChannelId>) {
        if pair != self.victim {
            return self.inner.route_into(pair, out);
        }
        let n = self.ft.n();
        let (v, i) = (pair.src as usize / n, pair.src as usize % n);
        let (w, j) = (pair.dst as usize / n, pair.dst as usize % n);
        out.clear();
        out.extend_from_slice(&[
            self.ft.leaf_up_channel(v, i),
            self.ft.up_channel(v, self.wrong_top),
            self.ft.down_channel(self.wrong_top, w),
            self.ft.leaf_down_channel(w, j),
        ]);
    }
    fn name(&self) -> &'static str {
        "sabotaged-yuan"
    }
}

#[test]
fn audit_catches_a_single_misrouted_pair() {
    let ft = Ftree::new(2, 4, 5).unwrap();
    let clean = YuanDeterministic::new(&ft).unwrap();
    assert!(
        is_nonblocking_deterministic(&clean),
        "baseline must be clean"
    );

    // Misroute (leaf 0 -> leaf 9): correct top is (0, 1) = 1; force top 0.
    // Top 0's downlink to switch 4 now carries destination 9 *and* the
    // legitimate (·,0)-destined traffic — a Lemma 1 violation.
    let bad = Sabotaged {
        inner: clean,
        ft: &ft,
        victim: SdPair::new(0, 9),
        wrong_top: 0,
    };
    assert!(
        !is_nonblocking_deterministic(&bad),
        "audit must flag one misrouted pair among all {} pairs",
        10 * 9
    );
    // And the complete two-pair search produces a concrete witness that
    // really contends.
    let witness = find_blocking_two_pair(&bad)
        .into_witness()
        .expect("witness exists");
    let a = route_all(&bad, &witness).unwrap();
    assert!(a.max_channel_load() >= 2);
}

#[test]
fn truncated_and_scrambled_paths_fail_validation() {
    let ft = Ftree::new(2, 4, 5).unwrap();
    let router = YuanDeterministic::new(&ft).unwrap();
    let good = router.route(SdPair::new(0, 9));
    good.validate(
        ft.topology(),
        ftclos::topo::NodeId(0),
        ftclos::topo::NodeId(9),
    )
    .unwrap();

    // Truncate: ends at the wrong node.
    let truncated = Path::new(good.channels()[..3].to_vec());
    assert!(truncated
        .validate(
            ft.topology(),
            ftclos::topo::NodeId(0),
            ftclos::topo::NodeId(9)
        )
        .is_err());

    // Scramble: swap two hops — walk becomes discontinuous.
    let mut scrambled = good.channels().to_vec();
    scrambled.swap(1, 2);
    assert!(Path::new(scrambled)
        .validate(
            ft.topology(),
            ftclos::topo::NodeId(0),
            ftclos::topo::NodeId(9)
        )
        .is_err());
}

#[test]
fn audit_census_is_exact_not_heuristic() {
    // Remove the sabotage and the audit must pass again — no false
    // positives from the machinery itself.
    let ft = Ftree::new(3, 9, 7).unwrap();
    let router = YuanDeterministic::new(&ft).unwrap();
    let audit = LinkAudit::build(&router);
    assert!(audit.lemma1_check(&router).is_ok());
    // Every used channel has either exactly 1 source or exactly 1 dest.
    for t in 0..9usize {
        for v in 0..7usize {
            let (srcs, dsts) = audit.channel_census(ft.up_channel(v, t)).unwrap();
            assert_eq!(srcs.len(), 1);
            assert_eq!(dsts.len(), ft.r() - 1);
        }
    }
}

#[test]
fn masked_adaptive_routes_around_dead_top_contention_free() {
    // Positive route-around: ftree(3+12, 9) has a spare partition. Kill any
    // single top and the masked NONBLOCKINGADAPTIVE still routes full
    // permutations at channel load 1, using only live hardware.
    use ftclos::routing::NonblockingAdaptive;
    use ftclos::topo::{FaultSet, FaultyView};
    use ftclos::traffic::patterns;
    use rand::SeedableRng;

    let ft = Ftree::new(3, 12, 9).unwrap();
    let router = NonblockingAdaptive::new(&ft).unwrap();
    let mut faults = FaultSet::new();
    faults.fail_switch(ft.top(4));
    let view = FaultyView::new(ft.topology(), &faults);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
    for _ in 0..5 {
        let perm = patterns::random_full(27, &mut rng);
        let a = router.route_pattern_masked(&perm, &view).unwrap();
        assert_eq!(
            a.max_channel_load(),
            1,
            "masked plan must stay contention-free"
        );
        for (_, path) in a.routes() {
            view.path_alive(path.channels())
                .expect("masked routes must use only live channels");
        }
    }
}

#[test]
fn lemma1_catches_multipath_forced_onto_shared_top() {
    // Negative: kill every top except one. The masked spreader still finds
    // routes (it degrades rather than fails), but two same-switch pairs now
    // share the lone top's downlink — and multipath_violation must say so.
    use ftclos::routing::ObliviousMultipath;
    use ftclos::topo::{FaultSet, FaultyView};
    use ftclos::traffic::Permutation;

    let ft = Ftree::new(2, 4, 5).unwrap();
    let mp = ObliviousMultipath::new(&ft);
    let mut faults = FaultSet::new();
    for t in 1..4 {
        faults.fail_switch(ft.top(t));
    }
    let view = FaultyView::new(ft.topology(), &faults);
    // Two cross pairs from switch 0 to switch 2: only top 0 remains.
    let perm = Permutation::from_pairs(10, [SdPair::new(0, 4), SdPair::new(1, 5)]).unwrap();
    let spread = mp.spread_pattern_masked(&perm, &view).unwrap();
    assert!(
        multipath_violation(&spread).is_some(),
        "both flows were forced through top 0; the audit must catch the shared channel"
    );
    // Pristine fabric: the same pairs spread over 4 tops still violate
    // Lemma 1 in the union sense (Section IV.B), so this is not an artifact
    // of masking — but the masked single-top case shares EVERY path.
    let clean = mp
        .spread_pattern_masked(&perm, &FaultyView::pristine(ft.topology()))
        .unwrap();
    let dead_count = clean
        .entries()
        .iter()
        .map(|(_, paths)| paths.len())
        .sum::<usize>();
    let lone = spread
        .entries()
        .iter()
        .map(|(_, paths)| paths.len())
        .sum::<usize>();
    assert!(
        lone < dead_count,
        "masking must have pruned candidate paths"
    );
}

#[test]
fn degraded_analysis_flags_sabotaged_router_under_faults() {
    // The degraded-nonblocking analyzer runs the SAME Lemma 1 census over
    // the surviving routes, so a misroute among the survivors is caught.
    use ftclos::core::degraded::deterministic_degradation;
    use ftclos::topo::{FaultSet, FaultyView};

    let ft = Ftree::new(2, 4, 5).unwrap();
    let clean = YuanDeterministic::new(&ft).unwrap();
    let bad = Sabotaged {
        inner: clean,
        ft: &ft,
        victim: SdPair::new(0, 9),
        wrong_top: 0,
    };
    // Fault a top NOT involved in the sabotage so both routes survive.
    let mut faults = FaultSet::new();
    faults.fail_switch(ft.top(3));
    let view = FaultyView::new(ft.topology(), &faults);
    let deg = deterministic_degradation(&bad, &view).unwrap();
    assert!(
        deg.lemma1.is_err(),
        "surviving-route census must flag the misroute"
    );
    // And the clean router under the same fault passes the census.
    let clean2 = YuanDeterministic::new(&ft).unwrap();
    let deg_clean = deterministic_degradation(&clean2, &view).unwrap();
    assert!(deg_clean.lemma1.is_ok());
    assert!(
        deg_clean.routable_pairs() < deg_clean.total_pairs,
        "dead top strands pairs"
    );
}

#[test]
fn fault_overlay_is_non_destructive() {
    // Injecting and clearing faults never mutates the topology: the same
    // router over the same fabric produces bit-identical routes afterwards.
    use ftclos::topo::{FaultSet, FaultyView};

    let ft = Ftree::new(2, 4, 5).unwrap();
    let router = YuanDeterministic::new(&ft).unwrap();
    let before: Vec<_> = (0..10u32)
        .flat_map(|s| (0..10u32).map(move |d| (s, d)))
        .map(|(s, d)| router.route(SdPair::new(s, d)))
        .collect();
    let census_before = format!("{:?}", ft.topology());

    let mut faults = FaultSet::new();
    faults.fail_switch(ft.top(0));
    faults.fail_link(ft.topology(), ft.leaf_up_channel(1, 0));
    {
        let view = FaultyView::new(ft.topology(), &faults);
        assert!(view.num_dead_channels() > 0);
    }
    faults.clear();
    assert!(faults.is_empty());

    let after: Vec<_> = (0..10u32)
        .flat_map(|s| (0..10u32).map(move |d| (s, d)))
        .map(|(s, d)| router.route(SdPair::new(s, d)))
        .collect();
    assert_eq!(
        before, after,
        "routes must be bit-identical after inject+clear"
    );
    assert_eq!(census_before, format!("{:?}", ft.topology()));
}

#[test]
fn sim_fault_drop_retry_counts_match_flow_verdicts() {
    // End to end: flows whose pinned path crosses the dead uplink are the
    // ones abandoned; everything else is delivered. Conservation holds.
    use ftclos::sim::{Arbiter, FaultSchedule, Policy, SimConfig, Simulator, Workload};
    use ftclos::traffic::patterns;

    let ft = Ftree::new(2, 4, 5).unwrap();
    let router = YuanDeterministic::new(&ft).unwrap();
    let perm = patterns::shift(10, 2);
    // Flow 0 -> 2 is pinned to top 0 (leaf offsets (0,0)); kill its uplink.
    let dead = ft.up_channel(0, 0);
    assert!(
        router.route(SdPair::new(0, 2)).channels().contains(&dead),
        "premise: the victim flow rides the killed channel"
    );
    let cfg = SimConfig {
        warmup_cycles: 100,
        measure_cycles: 800,
        ttl_cycles: 60,
        drain: true,
        arbiter: Arbiter::Voq { iterations: 2 },
        ..SimConfig::default()
    };
    let mut faults = FaultSchedule::new();
    faults.kill_channel(200, dead);
    let stats = Simulator::new(ft.topology(), cfg, Policy::from_single_path(&router))
        .try_run_with_faults(&Workload::permutation(&perm, 0.5), 7, &faults)
        .unwrap();
    assert!(
        stats.abandoned_total > 0,
        "the stranded flow must be dropped"
    );
    assert!(
        stats.delivered_total > 0,
        "the other nine flows keep flowing"
    );
    assert!(stats.conservation_ok(), "{stats:?}");
    // Retry is off, so every timeout is terminal.
    assert_eq!(stats.retries_total, 0);
    assert_eq!(stats.timed_out_total, stats.abandoned_total);
}

#[test]
fn sim_counts_unrouteable_pairs_as_refusals() {
    use ftclos::sim::{Policy, SimConfig, Simulator, Workload};
    let ft = Ftree::new(2, 4, 5).unwrap();
    let router = YuanDeterministic::new(&ft).unwrap();
    // Policy knows only ONE pair; workload asks every leaf to send.
    let perm = ftclos::traffic::Permutation::from_pairs(10, [SdPair::new(0, 5)]).unwrap();
    let assignment = route_all(&router, &perm).unwrap();
    let policy = Policy::from_assignment(&assignment);
    let full = ftclos::traffic::patterns::shift(10, 3);
    let cfg = SimConfig {
        warmup_cycles: 10,
        measure_cycles: 100,
        ..SimConfig::default()
    };
    let stats =
        Simulator::new(ft.topology(), cfg, policy).run(&Workload::permutation(&full, 1.0), 3);
    assert!(
        stats.injection_refusals > 0,
        "unknown pairs must be refused"
    );
    assert_eq!(
        stats.injected_total,
        stats.delivered_total + stats.leftover_packets
    );
}
