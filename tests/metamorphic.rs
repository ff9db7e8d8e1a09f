//! Metamorphic properties: transform the *input* in a way whose effect on
//! the *output* is known exactly, and check the relation — no oracle needed.
//!
//! * **Host relabeling**: renaming hosts by any permutation π (routing
//!   `(s, d)` as the underlying router routes `(π s, π d)`) bijects the SD
//!   pair universe onto itself, so the per-channel source/destination
//!   census — and with it the Lemma 1 nonblocking verdict — is invariant.
//! * **Fault-set monotonicity**: failing *more* hardware can only kill
//!   more single paths, so the count of routable pairs under a fault
//!   superset is never larger.
//! * **Capacity scaling**: max-min fair water-filling is positively
//!   homogeneous — scale every channel capacity by `c` and, as long as no
//!   flow was demand-capped in the baseline, every rate scales by exactly
//!   `c` (progressive filling hits the same bottlenecks at `c·level`).

use ftclos::core::degraded::deterministic_degradation;
use ftclos::core::verify::is_nonblocking_deterministic;
use ftclos::core::{cdg_of_masked_router, cdg_of_router, ValleyRouter};
use ftclos::flowsim::{waterfill, FlowSet};
use ftclos::routing::{DModK, SinglePathRouter, YuanDeterministic};
use ftclos::topo::{ChannelCapacities, ChannelId, FaultSet, FaultyView, Ftree};
use ftclos::traffic::{patterns, SdPair};
use proptest::prelude::*;
use rand::SeedableRng;

/// Routes `(s, d)` exactly as `inner` routes `(π s, π d)` for a fixed host
/// relabeling π. The path *multiset* over the full SD universe is
/// unchanged, only which pair owns which path.
struct Relabeled<'a, R> {
    inner: &'a R,
    relabel: &'a [u32],
}

impl<R: SinglePathRouter> SinglePathRouter for Relabeled<'_, R> {
    fn ports(&self) -> u32 {
        self.inner.ports()
    }
    fn route_into(&self, pair: SdPair, out: &mut Vec<ChannelId>) {
        let relabeled = SdPair::new(
            self.relabel[pair.src as usize],
            self.relabel[pair.dst as usize],
        );
        self.inner.route_into(relabeled, out);
    }
    fn name(&self) -> &'static str {
        "relabeled"
    }
}

/// A random bijection on `0..ports`, derived from a full random
/// permutation pattern (which is exactly a bijection of the port set).
fn random_relabeling(ports: u32, seed: u64) -> Vec<u32> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let perm = patterns::random_full(ports, &mut rng);
    let mut map = vec![0u32; ports as usize];
    for p in perm.pairs() {
        map[p.src as usize] = p.dst;
    }
    map
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Blocking or not, d-mod-k's Lemma 1 verdict must not depend on how
    /// hosts are numbered.
    #[test]
    fn relabeling_preserves_dmodk_verdict(
        n in 1usize..4, m in 1usize..6, r in 2usize..6, seed in 0u64..500,
    ) {
        let ft = Ftree::new(n, m, r).unwrap();
        let router = DModK::new(&ft);
        let relabel = random_relabeling((n * r) as u32, seed);
        let relabeled = Relabeled { inner: &router, relabel: &relabel };
        prop_assert_eq!(
            is_nonblocking_deterministic(&router),
            is_nonblocking_deterministic(&relabeled),
            "verdict changed under host relabeling {:?}",
            relabel
        );
    }

    /// Theorem 3 fabrics stay nonblocking under every host relabeling.
    #[test]
    fn relabeling_preserves_yuan_nonblocking(
        n in 1usize..4, r in 2usize..6, seed in 0u64..500,
    ) {
        let ft = Ftree::new(n, n * n, r).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let relabel = random_relabeling((n * r) as u32, seed);
        let relabeled = Relabeled { inner: &router, relabel: &relabel };
        prop_assert!(is_nonblocking_deterministic(&relabeled));
    }

    /// Growing the fault set never *recovers* a pair: routable pairs are
    /// antitone in the faults.
    #[test]
    fn fault_superset_never_recovers_pairs(
        n in 1usize..4, m in 1usize..6, r in 2usize..6,
        base_links in 0usize..4, extra_links in 0usize..4,
        extra_tops in 0usize..2, seed in 0u64..500,
    ) {
        let ft = Ftree::new(n, m, r).unwrap();
        let router = DModK::new(&ft);
        let topo = ft.topology();
        // `random_links` is seed-deterministic, so building A twice gives
        // the same set without needing Clone on FaultSet.
        let faults_a = FaultSet::random_links(topo, base_links, seed);
        let mut faults_b = FaultSet::random_links(topo, base_links, seed);
        faults_b.merge(&FaultSet::random_links(topo, extra_links, seed ^ 0x5EED));
        faults_b.merge(&FaultSet::random_top_switches(topo, extra_tops, seed ^ 0x70B5));

        let deg_a = deterministic_degradation(&router, &FaultyView::new(topo, &faults_a)).unwrap();
        let deg_b = deterministic_degradation(&router, &FaultyView::new(topo, &faults_b)).unwrap();
        prop_assert_eq!(deg_a.total_pairs, deg_b.total_pairs);
        prop_assert!(
            deg_a.routable_pairs() >= deg_b.routable_pairs(),
            "superset routed MORE pairs: {} < {} (A: {} links, B: +{} links +{} tops)",
            deg_a.routable_pairs(), deg_b.routable_pairs(),
            base_links, extra_links, extra_tops
        );
        // The empty fault set is the top element: everything routes.
        let pristine = deterministic_degradation(
            &router, &FaultyView::new(topo, &FaultSet::new()),
        ).unwrap();
        prop_assert_eq!(pristine.routable_pairs(), pristine.total_pairs);
        prop_assert!(pristine.routable_pairs() >= deg_a.routable_pairs());
    }

    /// Failing more hardware can only *silence* routed paths, so the
    /// channel-dependency graph is edge-antitone in the fault set: every
    /// dependency present under faults A ∪ B is present under A, and every
    /// dependency under A is present pristine. (Corollary: an up*/down*
    /// router that is deadlock-free pristine stays deadlock-free under
    /// every fault set.)
    #[test]
    fn fault_superset_never_adds_cdg_edges(
        n in 1usize..4, m in 1usize..6, r in 2usize..6,
        base_links in 0usize..4, extra_links in 0usize..4,
        extra_tops in 0usize..2, seed in 0u64..500,
    ) {
        let ft = Ftree::new(n, m, r).unwrap();
        let router = DModK::new(&ft);
        let topo = ft.topology();
        // Seed-determinism again: building A twice equals cloning it.
        let faults_a = FaultSet::random_links(topo, base_links, seed);
        let mut faults_b = FaultSet::random_links(topo, base_links, seed);
        faults_b.merge(&FaultSet::random_links(topo, extra_links, seed ^ 0x5EED));
        faults_b.merge(&FaultSet::random_top_switches(topo, extra_tops, seed ^ 0x70B5));

        let pristine = cdg_of_router(topo, &router);
        let cdg_a = cdg_of_masked_router(&router, &FaultyView::new(topo, &faults_a));
        let cdg_b = cdg_of_masked_router(&router, &FaultyView::new(topo, &faults_b));
        // Non-vacuous: the pristine fabric always records dependencies
        // (every cross-leaf pair contributes at least leaf-up -> up).
        prop_assert!(pristine.num_deps() > 0, "pristine CDG has no edges");
        prop_assert!(cdg_a.num_deps() <= pristine.num_deps());
        prop_assert!(cdg_b.num_deps() <= cdg_a.num_deps());
        for c in 0..topo.num_channels() {
            let a = ChannelId(c as u32);
            for b in cdg_b.successors(a) {
                prop_assert!(
                    cdg_a.has_dep(a, b),
                    "faults ADDED dependency {a} -> {b} (A: {} links, B: +{} links +{} tops)",
                    base_links, extra_links, extra_tops
                );
            }
            for b in cdg_a.successors(a) {
                prop_assert!(
                    pristine.has_dep(a, b),
                    "masked CDG has edge {a} -> {b} absent pristine"
                );
            }
        }
        // Antitone edges mean deadlock-freedom survives any fault set here.
        prop_assert!(pristine.check().is_free());
        prop_assert!(cdg_b.check().is_free());
    }

    /// Renaming hosts bijects the SD universe onto itself, so a relabeled
    /// router produces the *same path multiset* — hence the identical
    /// channel-dependency graph, verdict, and (being deterministically
    /// extracted from the graph alone) the identical witness cycle.
    #[test]
    fn relabeling_preserves_deadlock_verdict(
        n in 1usize..4, m in 1usize..6, r in 2usize..6, seed in 0u64..500,
    ) {
        let ft = Ftree::new(n, m, r).unwrap();
        let router = DModK::new(&ft);
        let relabel = random_relabeling((n * r) as u32, seed);
        let relabeled = Relabeled { inner: &router, relabel: &relabel };
        let base = cdg_of_router(ft.topology(), &router);
        let perm = cdg_of_router(ft.topology(), &relabeled);
        prop_assert_eq!(base.num_deps(), perm.num_deps());
        for c in 0..ft.topology().num_channels() {
            let a = ChannelId(c as u32);
            let lhs: Vec<ChannelId> = base.successors(a).collect();
            let rhs: Vec<ChannelId> = perm.successors(a).collect();
            prop_assert_eq!(lhs, rhs, "successor set of {} changed", a);
        }
        prop_assert_eq!(base.check(), perm.check());
    }

    /// Scale every capacity by `c`: when no baseline flow was demand-capped
    /// (all rates < 1), every max-min rate scales by exactly `c`.
    #[test]
    fn capacity_scaling_is_linear(
        n in 2usize..4, m in 1usize..3, r in 2usize..6,
        c in 0.05f64..0.95, seed in 0u64..500,
    ) {
        let ft = Ftree::new(n, m, r).unwrap();
        let router = DModK::new(&ft);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let perm = patterns::random_full((n * r) as u32, &mut rng);
        let flows = FlowSet::from_view(&router, &perm, ft.topology().num_channels()).unwrap();
        let base = waterfill(&flows, &ChannelCapacities::unit(ft.topology()));
        if base.rates().iter().any(|&b| b >= 1.0 - 1e-9) {
            // Some flow is demand-capped (e.g. an uncontended or self
            // pair): linearity does not apply to it. Skip the case; the
            // deterministic test below pins a guaranteed-congested fabric.
            return Ok(());
        }
        let scaled = waterfill(&flows, &ChannelCapacities::uniform(ft.topology(), c));
        for (i, (&b, &s)) in base.rates().iter().zip(scaled.rates()).enumerate() {
            prop_assert!(
                (s - c * b).abs() <= 1e-9 * (1.0 + c * b),
                "flow {i}: baseline {b}, cap scale {c}, got {s} (want {})",
                c * b
            );
        }
    }
}

/// Non-vacuity pin for the scaling property: `ftree(2+1, 4)` under a
/// cross-leaf shift saturates the lone top through every uplink, so *all*
/// baseline rates are 1/2 (< 1, never demand-capped) and the proptest's
/// guard provably has cases where the assertion body runs.
#[test]
fn capacity_scaling_linearity_is_not_vacuous() {
    let ft = Ftree::new(2, 1, 4).unwrap();
    let router = DModK::new(&ft);
    // Shift by a full leaf: every pair crosses leaves, no flow is alone.
    let perm = patterns::shift(8, 2);
    let flows = FlowSet::from_view(&router, &perm, ft.topology().num_channels()).unwrap();
    let base = waterfill(&flows, &ChannelCapacities::unit(ft.topology()));
    assert!(
        base.rates().iter().all(|&b| (b - 0.5).abs() < 1e-9),
        "two flows share each unit uplink: {:?}",
        base.rates()
    );
    let c = 0.4;
    let scaled = waterfill(&flows, &ChannelCapacities::uniform(ft.topology(), c));
    for &s in scaled.rates() {
        assert!((s - 0.2).abs() < 1e-9, "0.4 x 0.5 = 0.2, got {s}");
    }
}

/// Relabeling carries a *blocking* witness too: a fabric below the m ≥ n²
/// threshold stays blocking no matter how hosts are renamed.
#[test]
fn relabeling_cannot_unblock_an_undersized_fabric() {
    let ft = Ftree::new(2, 2, 5).unwrap();
    let router = DModK::new(&ft);
    assert!(!is_nonblocking_deterministic(&router));
    for seed in 0..8 {
        let relabel = random_relabeling(10, seed);
        let relabeled = Relabeled {
            inner: &router,
            relabel: &relabel,
        };
        assert!(
            !is_nonblocking_deterministic(&relabeled),
            "relabeling {relabel:?} must not hide the blocking pair"
        );
    }
}

/// Non-vacuity pin for the deadlock-verdict invariance: the proptest only
/// ever sees acyclic d-mod-k CDGs, so exercise the *cyclic* branch here —
/// the valley router's witness cycle must survive every relabeling
/// byte-identically (the path multiset, and with it the CDG, is unchanged).
#[test]
fn relabeling_preserves_a_cyclic_witness() {
    let ft = Ftree::new(1, 1, 4).unwrap();
    let valley = ValleyRouter::new(&ft);
    let base = cdg_of_router(ft.topology(), &valley).check();
    assert!(!base.is_free(), "valley on r=4 must be cyclic");
    let witness = base.verdict.witness().unwrap().to_vec();
    assert!(!witness.is_empty());
    for seed in 0..8 {
        let relabel = random_relabeling(4, seed);
        let relabeled = Relabeled {
            inner: &valley,
            relabel: &relabel,
        };
        let got = cdg_of_router(ft.topology(), &relabeled).check();
        assert_eq!(base, got, "verdict changed under relabeling {relabel:?}");
        assert_eq!(got.verdict.witness().unwrap(), &witness[..]);
    }
}

// ---------------------------------------------------------------------------
// Fault-campaign metamorphic properties.
// ---------------------------------------------------------------------------

use ftclos::core::campaign::{
    cable_universe, run_randomized, shrink, top_switch_universe, AdaptiveRoutability,
    ArenaRoutability, CampaignConfig, CampaignProperty, FaultElement, FaultVector,
};
use rand::Rng;

/// A seed-deterministic fault vector drawn from the fabric's cable and
/// top-switch universes (duplicates collapse in `FaultVector::new`).
fn random_fault_vector(ft: &Ftree, links: usize, tops: usize, seed: u64) -> FaultVector {
    let topo = ft.topology();
    let cables = cable_universe(topo);
    let switches = top_switch_universe(topo);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut elems = Vec::with_capacity(links + tops);
    for _ in 0..links {
        elems.push(FaultElement::Link(cables[rng.gen_range(0..cables.len())]));
    }
    for _ in 0..tops {
        elems.push(FaultElement::Switch(
            switches[rng.gen_range(0..switches.len())],
        ));
    }
    FaultVector::new(elems)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The delta-debugging shrinker's contract, checked against the
    /// property itself: whenever a random fault vector kills adaptive
    /// routability, the shrunk vector (a) is a subset, (b) still kills,
    /// and (c) is 1-minimal — removing any single fault restores the
    /// property.
    #[test]
    fn shrunk_killers_are_one_minimal(
        n in 1usize..4, m in 1usize..6, r in 2usize..6,
        links in 1usize..5, tops in 0usize..3, seed in 0u64..500,
    ) {
        let ft = Ftree::new(n, m, r).unwrap();
        let property = AdaptiveRoutability::new(&ft);
        let killer = random_fault_vector(&ft, links, tops, seed);
        if property.judge(&killer).holds {
            return Ok(()); // not a killer; nothing to shrink
        }
        let shrunk = shrink(&property, &killer);
        let minimal = &shrunk.minimal;
        prop_assert!(!minimal.is_empty());
        for e in minimal.elements() {
            prop_assert!(
                killer.elements().contains(e),
                "shrinker invented fault {e:?} absent from {killer}"
            );
        }
        prop_assert!(
            !property.judge(minimal).holds,
            "shrunk set {minimal} no longer kills (from {killer})"
        );
        for i in 0..minimal.len() {
            let weakened = minimal.without(i);
            prop_assert!(
                property.judge(&weakened).holds,
                "{minimal} is not 1-minimal: dropping element {i} still kills"
            );
        }
    }

    /// Killer-superset antitonicity: faults only remove capability, so a
    /// minimal killer plus arbitrary extra faults must still violate the
    /// property.
    #[test]
    fn killer_supersets_still_kill(
        n in 1usize..4, m in 1usize..6, r in 2usize..6,
        links in 1usize..5, tops in 0usize..3,
        extra_links in 0usize..4, extra_tops in 0usize..2, seed in 0u64..500,
    ) {
        let ft = Ftree::new(n, m, r).unwrap();
        let property = AdaptiveRoutability::new(&ft);
        let killer = random_fault_vector(&ft, links, tops, seed);
        if property.judge(&killer).holds {
            return Ok(());
        }
        let minimal = shrink(&property, &killer).minimal;
        let extra = random_fault_vector(&ft, extra_links, extra_tops, seed ^ 0x5EED);
        let superset = minimal.with(extra.elements());
        prop_assert!(
            !property.judge(&superset).holds,
            "adding faults {extra} to a minimal killer restored routability"
        );
    }

    /// Host relabeling bijects the SD universe, leaving the *multiset* of
    /// routed paths — and with it every channel's pair incidence — intact.
    /// A full randomized campaign against single-path routability (same
    /// seed, so the same fault draws) must therefore produce the identical
    /// killer list, identical shrunk cores, and the identical criticality
    /// ranking for the relabeled router.
    #[test]
    fn relabeling_preserves_campaign_criticality(
        n in 1usize..4, m in 1usize..6, r in 2usize..6, seed in 0u64..500,
    ) {
        let ft = Ftree::new(n, m, r).unwrap();
        let topo = ft.topology();
        let router = DModK::new(&ft);
        let relabel = random_relabeling((n * r) as u32, seed);
        let relabeled = Relabeled { inner: &router, relabel: &relabel };
        let links = cable_universe(topo);
        let switches = top_switch_universe(topo);
        let cfg = CampaignConfig {
            seed,
            waves: 2,
            wave_size: 4,
            links_per_set: 2,
            switches_per_set: 1,
            shrink: true,
        };
        let base_prop = ArenaRoutability::new(topo, &router).unwrap();
        let perm_prop = ArenaRoutability::new(topo, &relabeled).unwrap();
        let base = run_randomized(&base_prop, &links, &switches, &cfg, None).unwrap();
        let perm = run_randomized(&perm_prop, &links, &switches, &cfg, None).unwrap();
        prop_assert_eq!(&base.killers, &perm.killers);
        prop_assert_eq!(base.criticality(), perm.criticality());
        prop_assert_eq!(base.sets_evaluated, perm.sets_evaluated);
    }
}
