//! Differential properties pinning the streaming Lemma 1 audit, the
//! arena-backed contention engine and the legacy `HashMap` implementations
//! to each other.
//!
//! Four oracles, three router families plus fault-masked and ill-formed
//! routers:
//!
//! * **Streaming ≡ arena** — `lemma1_audit_with` (one census sweep, no
//!   stored paths) and `ContentionEngine::lemma1_violation` must report the
//!   same `LinkViolation`, field for field, or the same `RoutingError` as
//!   `PathArena::build`.
//! * **Verdicts** — `nonblocking_verdict` (engine) and
//!   `nonblocking_verdict_legacy` must agree on every `ftree` shape and
//!   routing, on k-ary n-trees, and on the recursive three-level network.
//! * **Two-pair sweeps** — `find_blocking_two_pair` (engine) and
//!   `find_blocking_two_pair_legacy` (exhaustive `O(p⁴)` loop) must agree,
//!   and every blocking witness must genuinely contend when routed.
//! * **Fault masks** — `deterministic_degradation` (arena + dense census)
//!   and `deterministic_degradation_legacy` must report identical
//!   unroutable sets and identical Lemma 1 verdicts under random faults.
//!
//! Against the legacy side, witnesses are compared by *validity*, not
//! identity: the engine always reports the lowest violating channel id,
//! while the legacy `HashMap` census iterates in arbitrary order, so each
//! side's witness is checked against the router directly (both pairs cross
//! the claimed channel with distinct sources and destinations).

use ftclos::core::verify::LinkViolation;
use ftclos::core::{
    deterministic_degradation, deterministic_degradation_legacy, find_blocking_two_pair,
    find_blocking_two_pair_legacy, lemma1_audit_with, nonblocking_verdict,
    nonblocking_verdict_legacy, ContentionEngine, TwoPairOutcome,
};
use ftclos::obs::Registry;
use ftclos::routing::{
    route_all, DModK, PathArena, RoutingError, SModK, SinglePathRouter, XgftRouter,
    YuanDeterministic, YuanRecursive,
};
use ftclos::topo::{kary_ntree, ChannelId, FaultSet, FaultyView, Ftree, RecursiveNonblocking};
use ftclos::traffic::{Permutation, SdPair};
use proptest::prelude::*;

/// A violation witness must name two pairs that really cross its channel.
fn assert_violation_valid<R: SinglePathRouter + ?Sized>(router: &R, v: &LinkViolation) {
    assert_ne!(v.sources[0], v.sources[1], "witness sources distinct");
    assert_ne!(
        v.destinations[0], v.destinations[1],
        "witness destinations distinct"
    );
    for i in 0..2 {
        let path = router.route(SdPair::new(v.sources[i], v.destinations[i]));
        assert!(
            path.channels().contains(&v.channel),
            "witness pair {i} misses channel {:?}",
            v.channel
        );
    }
}

/// A blocking outcome must carry a permutation that contends when routed.
fn assert_outcome_valid<R: SinglePathRouter + ?Sized>(router: &R, outcome: &TwoPairOutcome) {
    if let Some(perm) = outcome.witness() {
        let load = route_all(router, perm).unwrap().max_channel_load();
        assert!(load >= 2, "witness permutation must contend, load {load}");
    }
}

/// Run both verdicts and both sweeps through one router; everything must
/// agree and every witness must check out.
fn assert_engine_matches_legacy<R: SinglePathRouter + Sync + ?Sized>(router: &R) {
    let new = nonblocking_verdict(router);
    let old = nonblocking_verdict_legacy(router);
    assert_eq!(new.nonblocking, old.nonblocking, "verdict mismatch");
    for v in [&new.violation, &old.violation].into_iter().flatten() {
        assert_violation_valid(router, v);
    }

    let fast = find_blocking_two_pair(router);
    let slow = find_blocking_two_pair_legacy(router);
    assert_eq!(
        fast.found_blocking(),
        slow.found_blocking(),
        "sweep mismatch"
    );
    assert_eq!(fast.is_nonblocking(), slow.is_nonblocking());
    assert_eq!(fast.found_blocking(), !new.nonblocking, "sweep vs verdict");
    assert_outcome_valid(router, &fast);
    assert_outcome_valid(router, &slow);
}

/// The streaming audit must give exactly the arena engine's answer: the
/// same violation field for field, or the same routing error as the arena
/// build. Returns the verdict for further checks.
fn assert_streaming_matches_arena<R: SinglePathRouter + Sync + ?Sized>(
    router: &R,
) -> Result<Option<LinkViolation>, RoutingError> {
    let streamed = lemma1_audit_with(router, &Registry::new());
    let arena = ContentionEngine::new(router).map(|engine| engine.lemma1_violation());
    assert_eq!(streamed, arena, "streaming audit vs arena engine");
    if let Err(e) = &streamed {
        assert_eq!(PathArena::build(router).unwrap_err(), *e);
    }
    streamed
}

/// A fault-aware ftree router: each cross-switch pair takes the first live
/// top switch in d-mod-k order, and a pair with no live path is a
/// [`RoutingError::NoLivePath`].
struct Detour<'a> {
    ft: &'a Ftree,
    view: &'a FaultyView<'a>,
}

impl Detour<'_> {
    fn live_path(&self, pair: SdPair, out: &mut Vec<ChannelId>) -> bool {
        let (n, m) = (self.ft.n(), self.ft.m());
        let (s, d) = (pair.src as usize, pair.dst as usize);
        let (vs, vd) = (s / n, d / n);
        for i in 0..m {
            out.clear();
            out.push(self.ft.leaf_up_channel(vs, s % n));
            if vs != vd {
                let t = (d % m + i) % m;
                out.extend([self.ft.up_channel(vs, t), self.ft.down_channel(t, vd)]);
            }
            out.push(self.ft.leaf_down_channel(vd, d % n));
            if self.view.path_alive(out).is_ok() {
                return true;
            }
        }
        false
    }
}

impl SinglePathRouter for Detour<'_> {
    fn ports(&self) -> u32 {
        self.ft.num_leaves() as u32
    }
    fn route_into(&self, pair: SdPair, out: &mut Vec<ChannelId>) {
        self.live_path(pair, out);
    }
    fn try_route_into(&self, pair: SdPair, out: &mut Vec<ChannelId>) -> Result<(), RoutingError> {
        for port in [pair.src, pair.dst] {
            if port >= self.ports() {
                return Err(RoutingError::PortOutOfRange {
                    port,
                    ports: self.ports(),
                });
            }
        }
        if self.live_path(pair, out) {
            Ok(())
        } else {
            Err(RoutingError::NoLivePath {
                src: pair.src,
                dst: pair.dst,
            })
        }
    }
    fn name(&self) -> &'static str {
        "detour"
    }
}

/// Claims `extra` more ports than the wrapped router can route.
struct Overclaim<R> {
    inner: R,
    extra: u32,
}

impl<R: SinglePathRouter> SinglePathRouter for Overclaim<R> {
    fn ports(&self) -> u32 {
        self.inner.ports() + self.extra
    }
    fn route_into(&self, pair: SdPair, out: &mut Vec<ChannelId>) {
        self.inner.route_into(pair, out);
    }
    fn try_route_into(&self, pair: SdPair, out: &mut Vec<ChannelId>) -> Result<(), RoutingError> {
        self.inner.try_route_into(pair, out)
    }
    fn name(&self) -> &'static str {
        "overclaim"
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ftree_routers_agree((n, m, r) in (1usize..4, 1usize..8, 2usize..6)) {
        let ft = Ftree::new(n, m, r).unwrap();
        assert_engine_matches_legacy(&DModK::new(&ft));
        assert_engine_matches_legacy(&SModK::new(&ft));
    }

    #[test]
    fn yuan_at_m_n2_agrees((n, r) in (1usize..4, 2usize..6)) {
        let ft = Ftree::new(n, n * n, r).unwrap();
        let yuan = YuanDeterministic::new(&ft).unwrap();
        assert_engine_matches_legacy(&yuan);
        // m = n² with the Theorem 3 routing is the nonblocking regime: both
        // paths must also agree on the *positive* claim.
        prop_assert!(nonblocking_verdict(&yuan).nonblocking);
    }

    #[test]
    fn kary_ntree_routers_agree((k, n) in (2usize..5, 2usize..4)) {
        if k.pow(n as u32) > 32 {
            return Ok(()); // keep the legacy O(p⁴) loop sane
        }
        let t = kary_ntree(k, n).unwrap();
        assert_engine_matches_legacy(&XgftRouter::dmod(&t));
        assert_engine_matches_legacy(&XgftRouter::smod(&t));
    }

    #[test]
    fn degradation_agrees_under_random_faults(
        (n, m, r) in (1usize..4, 1usize..6, 2usize..6),
        links in 0usize..6,
        seed in 0u64..1u64 << 48,
    ) {
        let ft = Ftree::new(n, m, r).unwrap();
        let faults = FaultSet::random_links(ft.topology(), links, seed);
        let view = FaultyView::new(ft.topology(), &faults);
        let dmodk = DModK::new(&ft);
        let new = deterministic_degradation(&dmodk, &view);
        let old = deterministic_degradation_legacy(&dmodk, &view);
        prop_assert_eq!(new.total_pairs, old.total_pairs);
        prop_assert_eq!(&new.unroutable, &old.unroutable);
        prop_assert_eq!(new.lemma1.is_ok(), old.lemma1.is_ok());
        for v in [&new.lemma1, &old.lemma1].into_iter().filter_map(|l| l.as_ref().err()) {
            assert_violation_valid(&dmodk, v);
            // Both witness pairs must have survived the fault overlay.
            for i in 0..2 {
                let path = dmodk.route(SdPair::new(v.sources[i], v.destinations[i]));
                prop_assert!(view.path_alive(path.channels()).is_ok());
            }
        }
    }

    #[test]
    fn streaming_audit_matches_engine_on_every_family(
        (n, m, r) in (1usize..4, 1usize..11, 2usize..7),
        (k, levels) in (2usize..5, 2usize..4),
    ) {
        let ft = Ftree::new(n, m, r).unwrap();
        let dmodk = DModK::new(&ft);
        let smodk = SModK::new(&ft);
        for router in [&dmodk as &(dyn SinglePathRouter + Sync), &smodk] {
            let verdict = assert_streaming_matches_arena(router).unwrap();
            if let Some(v) = &verdict {
                assert_violation_valid(router, v);
            }
        }
        if m >= n * n {
            let yuan = YuanDeterministic::new(&ft).unwrap();
            prop_assert_eq!(assert_streaming_matches_arena(&yuan), Ok(None));
        }
        let t = kary_ntree(k, levels).unwrap();
        assert_streaming_matches_arena(&XgftRouter::dmod(&t)).unwrap();
        assert_streaming_matches_arena(&XgftRouter::smod(&t)).unwrap();
    }

    #[test]
    fn streaming_audit_matches_engine_under_random_faults(
        (n, m, r) in (1usize..4, 1usize..6, 2usize..6),
        links in 0usize..6,
        seed in 0u64..1u64 << 48,
        extra in 1u32..4,
    ) {
        let ft = Ftree::new(n, m, r).unwrap();
        let faults = FaultSet::random_links(ft.topology(), links, seed);
        let view = FaultyView::new(ft.topology(), &faults);
        let detour = Detour { ft: &ft, view: &view };
        if let Ok(Some(v)) = assert_streaming_matches_arena(&detour) {
            assert_violation_valid(&detour, &v);
        }
        // A router whose `ports()` overstates its universe fails on the
        // first row past it, on both sides.
        let overclaim = Overclaim { inner: DModK::new(&ft), extra };
        let ports = ft.num_leaves() as u32;
        prop_assert_eq!(
            assert_streaming_matches_arena(&overclaim),
            Err(RoutingError::PortOutOfRange { port: ports, ports })
        );
    }
}

#[test]
fn recursive_three_level_agrees() {
    let net = RecursiveNonblocking::new(2).unwrap();
    let router = YuanRecursive::new(&net);
    assert_eq!(assert_streaming_matches_arena(&router), Ok(None));
    let new = nonblocking_verdict(&router);
    let old = nonblocking_verdict_legacy(&router);
    assert_eq!(new.nonblocking, old.nonblocking);
    assert!(new.nonblocking, "the recursive construction is nonblocking");
    // Sweep agreement too: both must exhaust the (larger) pattern space.
    assert!(find_blocking_two_pair(&router).is_nonblocking());
    assert!(find_blocking_two_pair_legacy(&router).is_nonblocking());
}

#[test]
fn engine_witness_is_channel_normalized() {
    // The engine's witness channel is the *lowest* violating channel id —
    // deterministic across runs and thread schedules, unlike the legacy
    // HashMap iteration order.
    let ft = Ftree::new(2, 2, 5).unwrap();
    let dmodk = DModK::new(&ft);
    let first = nonblocking_verdict(&dmodk).violation.unwrap();
    for _ in 0..10 {
        let again = nonblocking_verdict(&dmodk).violation.unwrap();
        assert_eq!(again, first, "engine witness must be stable");
    }
    // And it really is a two-pair permutation (distinct src, distinct dst).
    let perm = Permutation::from_pairs(
        10,
        [
            SdPair::new(first.sources[0], first.destinations[0]),
            SdPair::new(first.sources[1], first.destinations[1]),
        ],
    )
    .unwrap();
    assert!(route_all(&dmodk, &perm).unwrap().max_channel_load() >= 2);
}
