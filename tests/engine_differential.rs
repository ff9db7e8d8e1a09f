//! Differential properties pinning the closed-form Lemma 1 census and CDG
//! count, the streaming sweeps and the arena-backed contention engine to
//! each other, and all of them to the `HashMap` oracles in `tests/oracle`.
//!
//! Seven oracles, three router families plus fault-masked and ill-formed
//! routers:
//!
//! * **Closed form ≡ sweep** — a router that declares a `TopRule` is
//!   audited by counting; the same routes behind [`Swept`], which hides the
//!   rule, are audited by routing every pair. Census cell for cell and
//!   `LinkViolation` field for field, on every `ftree(n+m, r)` with n ≤ 4,
//!   r ≤ 12 and m up to n² + 1, and on larger random shapes. An honesty
//!   check holds every rule router's `route_into` to its rule's path.
//! * **Counted CDG ≡ swept CDG** — on the same shapes, `analyze_router_with`
//!   reads a rule router's deadlock analysis off its rule (span
//!   `cdg.closed_form`), and must equal the `CycleAnalysis` of the graph
//!   built from the [`Swept`] routes, field for field.
//! * **Streaming ≡ arena** — `lemma1_audit_with` (closed form or census
//!   sweep, no stored paths) and `ContentionEngine::lemma1_violation` must
//!   report the same `LinkViolation`, field for field, or the same
//!   `RoutingError` as `PathArena::build`.
//! * **Verdicts** — `nonblocking_verdict` (census) and the oracle
//!   `nonblocking_verdict_legacy` (`LinkAudit`) must agree on every `ftree`
//!   shape and routing, on k-ary n-trees, and on the recursive three-level
//!   network.
//! * **Two-pair sweeps** — `find_blocking_two_pair` (census) and the oracle
//!   `find_blocking_two_pair_legacy` (exhaustive `O(p⁴)` loop) must agree,
//!   and every blocking witness must genuinely contend when routed.
//! * **Fault masks** — `deterministic_degradation` (one census sweep over
//!   the survivors) and the oracle `deterministic_degradation_legacy` must
//!   report identical unroutable lists and identical Lemma 1 verdicts under
//!   random faults; with no fault, its witness is `lemma1_audit`'s, field
//!   for field, on the 408 shapes.
//! * **Per pattern** — `ContentionScratch::find_contention` against the
//!   oracle `find_contention`.
//!
//! Against an oracle, witnesses are compared by *validity*, not identity:
//! the census always reports the lowest violating channel id, while a
//! `HashMap` iterates in arbitrary order, so each side's witness is checked
//! against the router directly (both pairs cross the claimed channel with
//! distinct sources and destinations).

mod oracle;

use ftclos::core::verify::{multipath_violation, updown_discipline, LinkViolation};
use ftclos::core::{
    analyze_router_with, cdg_of_router, deterministic_degradation, find_blocking_two_pair,
    lemma1_audit, lemma1_audit_with, lemma1_census, nonblocking_verdict, ContentionEngine,
    ContentionScratch, TwoPairOutcome,
};
use ftclos::obs::Registry;
use ftclos::routing::{
    route_all, DModK, FaultAware, ObliviousMultipath, PathArena, RoutingError, SModK,
    SinglePathRouter, SpreadPolicy, XgftRouter, YuanDeterministic, YuanRecursive,
};
use ftclos::topo::{kary_ntree, ChannelId, FaultSet, FaultyView, Ftree, RecursiveNonblocking};
use ftclos::traffic::{patterns, Permutation, SdPair};
use oracle::{
    deterministic_degradation_legacy, find_blocking_two_pair_legacy, find_contention,
    nonblocking_verdict_legacy, LinkAudit,
};
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

/// Forwards routing and hides the router's `TopRule`, so every Lemma 1
/// question about it is answered by routing every pair.
struct Swept<'a, R: ?Sized>(&'a R);

impl<R: SinglePathRouter + ?Sized> SinglePathRouter for Swept<'_, R> {
    fn ports(&self) -> u32 {
        self.0.ports()
    }
    fn route_into(&self, pair: SdPair, out: &mut Vec<ChannelId>) {
        self.0.route_into(pair, out);
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// The closed form must equal the sweep over the same routes: census cell
/// for cell, violation field for field. So must the degradation census of
/// the same routes with no fault. Returns whether the router blocks.
fn assert_closed_form_matches_sweep<R: SinglePathRouter + Sync>(router: &R) -> bool {
    let (ft, _) = router
        .top_rule()
        .unwrap_or_else(|| panic!("{} declares a rule", router.name()));
    let swept = Swept(router);
    assert_eq!(
        lemma1_census(router),
        lemma1_census(&swept),
        "{}: census",
        router.name()
    );
    let closed = lemma1_audit(router).unwrap();
    assert_eq!(closed, lemma1_audit(&swept).unwrap(), "{}", router.name());
    let degraded = deterministic_degradation(router, &FaultyView::pristine(ft.topology())).unwrap();
    assert!(degraded.unroutable.is_empty());
    assert_eq!(
        degraded.lemma1.err(),
        closed,
        "{}: degradation",
        router.name()
    );
    closed.is_some()
}

/// Every rule router of `ft`, through the closed form and the sweep;
/// returns how many block.
fn closed_form_matches_sweep_on(ft: &Ftree) -> usize {
    let mut blocking = usize::from(assert_closed_form_matches_sweep(&DModK::new(ft)));
    blocking += usize::from(assert_closed_form_matches_sweep(&SModK::new(ft)));
    if let Ok(yuan) = YuanDeterministic::new(ft) {
        assert!(!assert_closed_form_matches_sweep(&yuan), "Theorem 3");
    }
    blocking
}

/// The counted deadlock analysis must equal the swept one, field for field;
/// returns the dependency count.
fn assert_counted_cdg_matches_sweep<R: SinglePathRouter + Sync>(ft: &Ftree, router: &R) -> u64 {
    let reg = Registry::new();
    let counted = analyze_router_with(ft.topology(), router, &reg);
    let spans: Vec<String> = reg.snapshot().spans.into_iter().map(|s| s.path).collect();
    assert_eq!(spans, ["cdg.closed_form"], "{} is counted", router.name());
    let swept = cdg_of_router(ft.topology(), &Swept(router)).check();
    assert_eq!(
        counted,
        swept,
        "{} on ftree({}+{}, {})",
        router.name(),
        ft.n(),
        ft.m(),
        ft.r()
    );
    counted.num_deps
}

/// Every rule router of `ft`, counted and swept; returns the dependency
/// counts, Theorem 3's routing last where it exists.
fn counted_cdg_matches_sweep_on(ft: &Ftree) -> Vec<u64> {
    let mut deps = vec![
        assert_counted_cdg_matches_sweep(ft, &DModK::new(ft)),
        assert_counted_cdg_matches_sweep(ft, &SModK::new(ft)),
    ];
    if let Ok(yuan) = YuanDeterministic::new(ft) {
        deps.push(assert_counted_cdg_matches_sweep(ft, &yuan));
    }
    deps
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
    fn closed_form_matches_sweep_on_larger_shapes(
        (n, r) in (1usize..9, 1usize..41),
        m_pick in 0usize..1 << 16,
    ) {
        let m = 1 + m_pick % (n * n + 1);
        closed_form_matches_sweep_on(&Ftree::new(n, m, r).unwrap());
    }

    #[test]
    fn counted_cdg_matches_sweep_on_larger_shapes(
        (n, r) in (1usize..9, 1usize..41),
        m_pick in 0usize..1 << 16,
    ) {
        let m = 1 + m_pick % (n * n + 1);
        counted_cdg_matches_sweep_on(&Ftree::new(n, m, r).unwrap());
    }

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
        let new = deterministic_degradation(&dmodk, &view).unwrap();
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
fn closed_form_matches_sweep_on_every_small_shape() {
    // 408 shapes: n ≤ 4, r ≤ 12, m = 1..=n²+1, each under d-mod-k and
    // s-mod-k, and under Theorem 3's routing wherever m ≥ n².
    let (mut shapes, mut blocking) = (0, 0);
    for n in 1..=4 {
        for r in 1..=12 {
            for m in 1..=n * n + 1 {
                blocking += closed_form_matches_sweep_on(&Ftree::new(n, m, r).unwrap());
                shapes += 1;
            }
        }
    }
    assert_eq!((shapes, blocking), (408, 632));
}

#[test]
fn counted_cdg_matches_sweep_on_every_small_shape() {
    // The 408 shapes of `closed_form_matches_sweep_on_every_small_shape`,
    // under d-mod-k, s-mod-k and (where m ≥ n²) Theorem 3's routing.
    let mut analyses = 0;
    for n in 1..=4 {
        for r in 1..=12 {
            for m in 1..=n * n + 1 {
                analyses += counted_cdg_matches_sweep_on(&Ftree::new(n, m, r).unwrap()).len();
            }
        }
    }
    assert_eq!(analyses, 2 * 408 + 2 * 4 * 12);
}

#[test]
fn counted_dependency_counts_are_pinned() {
    // The `deadlock 2 4 5` golden's dmodk / smodk / yuan counts.
    assert_eq!(
        counted_cdg_matches_sweep_on(&Ftree::new(2, 4, 5).unwrap()),
        [100, 100, 130]
    );
    // Theorem 3's routing: p·n + n²·r(r−1) + n²·r + p(n−1) with p = n·r;
    // tops ≥ n² carry nothing, so the tenth top of (3+10, 7) adds none.
    for (n, m, r, deps) in [(3, 9, 7, 546), (3, 10, 7, 546), (4, 16, 9, 1_548)] {
        let ft = Ftree::new(n, m, r).unwrap();
        assert_eq!(counted_cdg_matches_sweep_on(&ft).last(), Some(&deps));
    }
    // The `deadlock-cdg` benchmark golden, counted only.
    let ft = Ftree::new(16, 256, 250).unwrap();
    let yuan = analyze_router_with(
        ft.topology(),
        &YuanDeterministic::new(&ft).unwrap(),
        &Registry::new(),
    );
    assert!(yuan.is_free());
    assert_eq!(yuan.num_deps, 16_124_000);
}

#[test]
fn rule_routers_route_by_their_rule() {
    // The closed form is sound only if `route_into` is the rule's path.
    for (n, m, r) in [(1, 1, 3), (2, 4, 5), (2, 3, 4), (3, 9, 4), (3, 10, 3)] {
        let ft = Ftree::new(n, m, r).unwrap();
        let (dmodk, smodk) = (DModK::new(&ft), SModK::new(&ft));
        let yuan = YuanDeterministic::new(&ft).ok();
        let mut routers: Vec<&dyn SinglePathRouter> = vec![&dmodk, &smodk];
        routers.extend(yuan.as_ref().map(|y| y as &dyn SinglePathRouter));
        for router in routers {
            let (rule_ft, rule) = router.top_rule().expect("a rule router");
            assert!(std::ptr::eq(rule_ft, &ft), "{}", router.name());
            assert_eq!(router.ports() as usize, ft.num_leaves());
            for s in 0..router.ports() {
                for d in 0..router.ports() {
                    let pair = SdPair::new(s, d);
                    let ((v, i), (w, j)) = (
                        (s as usize / n, s as usize % n),
                        (d as usize / n, d as usize % n),
                    );
                    let top = rule.top(&ft, pair);
                    let expected = if s == d {
                        vec![]
                    } else if v == w {
                        vec![ft.leaf_up_channel(v, i), ft.leaf_down_channel(w, j)]
                    } else {
                        vec![
                            ft.leaf_up_channel(v, i),
                            ft.up_channel(v, top),
                            ft.down_channel(top, w),
                            ft.leaf_down_channel(w, j),
                        ]
                    };
                    assert_eq!(
                        router.route(pair).channels(),
                        expected,
                        "{} {pair}",
                        router.name()
                    );
                }
            }
        }
    }
}

/// `FaultAware` over d-mod-k as a single-path router: the checked path or
/// `PathFaulted`. (`FaultAware` is a `LinkLoadView` of its own, so it does
/// not implement `SinglePathRouter`; this is the adapter a Lemma 1 caller
/// writes.)
struct Checked<'f>(FaultAware<'f, DModK<'f>>);

impl SinglePathRouter for Checked<'_> {
    fn ports(&self) -> u32 {
        self.0.ports()
    }
    fn route_into(&self, pair: SdPair, out: &mut Vec<ChannelId>) {
        self.0.inner().route_into(pair, out);
    }
    fn try_route_into(&self, pair: SdPair, out: &mut Vec<ChannelId>) -> Result<(), RoutingError> {
        out.clear();
        out.extend_from_slice(self.0.route_checked(pair)?.channels());
        Ok(())
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
}

#[test]
fn fault_aware_dmodk_declares_no_rule_and_sweeps() {
    let ft = Ftree::new(2, 3, 5).unwrap();
    let pristine = FaultyView::pristine(ft.topology());
    let checked = Checked(FaultAware::new(DModK::new(&ft), &pristine));
    assert!(checked.top_rule().is_none());
    let reg = Registry::new();
    let swept = lemma1_audit_with(&checked, &reg).unwrap();
    assert_eq!(swept, lemma1_audit(&DModK::new(&ft)).unwrap());
    assert!(reg
        .snapshot()
        .spans
        .iter()
        .any(|s| s.path == "lemma1.sweep"));
    // A dead uplink makes the sweep fail on the first pair pinned to it,
    // exactly as the arena build does.
    let mut faults = FaultSet::new();
    faults.fail_channel(ft.up_channel(0, 1));
    let view = FaultyView::new(ft.topology(), &faults);
    let checked = Checked(FaultAware::new(DModK::new(&ft), &view));
    let err = lemma1_audit(&checked).unwrap_err();
    assert!(
        matches!(err, RoutingError::PathFaulted { src: 0, .. }),
        "{err:?}"
    );
    assert_eq!(assert_streaming_matches_arena(&checked), Err(err));
}

/// The swept census of the `verify` roster's routes on a 512-port fabric
/// (261,632 pairs, enough for the CDG sweep to split eight ways): it runs on
/// one thread whatever `RAYON_NUM_THREADS` says, and its verdicts equal the
/// closed form's. Prints one `swept:` line per router for
/// [`lemma1_sweep_stays_on_one_thread`].
#[test]
fn swept_census_child() {
    let ft = Ftree::new(4, 16, 128).unwrap();
    let (yuan, dmodk, smodk) = (
        YuanDeterministic::new(&ft).unwrap(),
        DModK::new(&ft),
        SModK::new(&ft),
    );
    let roster: [&(dyn SinglePathRouter + Sync); 3] = [&yuan, &dmodk, &smodk];
    for router in roster {
        let reg = Registry::new();
        let swept = lemma1_audit_with(&Swept(router), &reg).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("par.threads"), Some(1), "{}", router.name());
        assert_eq!(snap.counter("lemma1.paths"), Some(512 * 511));
        assert!(snap.spans.iter().any(|s| s.path == "lemma1.sweep"));
        assert_eq!(swept, lemma1_audit(router).unwrap(), "{}", router.name());
        println!("swept: {} {swept:?}", router.name());
    }
}

#[test]
fn lemma1_sweep_stays_on_one_thread() {
    // `RAYON_NUM_THREADS` is read once per process, so each thread count
    // reruns the child test in a fresh process of this test binary.
    let verdicts = |threads: &str| {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "swept_census_child", "--nocapture"])
            .env("RAYON_NUM_THREADS", threads)
            .output()
            .expect("rerun this test binary");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success(),
            "RAYON_NUM_THREADS={threads}: {stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let lines: Vec<String> = stdout
            .lines()
            .filter(|l| l.starts_with("swept: "))
            .map(String::from)
            .collect();
        assert_eq!(lines.len(), 3, "{stdout}");
        lines
    };
    let one = verdicts("1");
    assert!(one[0].contains("yuan-deterministic None"), "{one:?}");
    assert!(one[1].contains("channel: c1024,"), "{one:?}");
    assert!(one[2].contains("channel: c1025,"), "{one:?}");
    for threads in ["2", "8"] {
        assert_eq!(verdicts(threads), one, "RAYON_NUM_THREADS={threads}");
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

#[test]
fn engine_verdict_matches_legacy_audit() {
    for (n, m, r) in [(2usize, 4usize, 5usize), (2, 2, 5), (3, 9, 7), (3, 5, 6)] {
        let ft = Ftree::new(n, m, r).unwrap();
        for which in 0..2 {
            let (legacy, engine_nb, violation) = if which == 0 {
                let router = DModK::new(&ft);
                let audit = LinkAudit::build(&router);
                let engine = ContentionEngine::new(&router).unwrap();
                (
                    audit.lemma1_check(&router).is_ok(),
                    engine.is_nonblocking(),
                    engine.lemma1_violation(),
                )
            } else {
                let router = SModK::new(&ft);
                let audit = LinkAudit::build(&router);
                let engine = ContentionEngine::new(&router).unwrap();
                (
                    audit.lemma1_check(&router).is_ok(),
                    engine.is_nonblocking(),
                    engine.lemma1_violation(),
                )
            };
            assert_eq!(legacy, engine_nb, "n={n} m={m} r={r} which={which}");
            assert_eq!(engine_nb, violation.is_none());
        }
    }
}

#[test]
fn engine_witness_actually_blocks() {
    let ft = Ftree::new(2, 2, 5).unwrap();
    let router = DModK::new(&ft);
    let engine = ContentionEngine::new(&router).unwrap();
    let v = engine.lemma1_violation().expect("m < n² blocks");
    let channel = v.channel;
    let pairs = [
        SdPair::new(v.sources[0], v.destinations[0]),
        SdPair::new(v.sources[1], v.destinations[1]),
    ];
    assert_ne!(pairs[0].src, pairs[1].src);
    assert_ne!(pairs[0].dst, pairs[1].dst);
    let perm = Permutation::from_pairs(10, pairs).unwrap();
    let a = route_all(&router, &perm).unwrap();
    let w = find_contention(&a).expect("witness contends");
    // Both witness paths really cross the reported channel.
    assert!(engine.arena().path(pairs[0]).contains(&channel));
    assert!(engine.arena().path(pairs[1]).contains(&channel));
    assert!(a.max_channel_load() >= 2, "{w:?}");
}

#[test]
fn scratch_matches_hashmap_contention() {
    let ft = Ftree::new(2, 2, 5).unwrap();
    let router = DModK::new(&ft);
    let mut scratch = ContentionScratch::default();
    for k in 0..10 {
        let perm = patterns::shift(10, k);
        let a = route_all(&router, &perm).unwrap();
        let fast = scratch.find_contention(&a);
        let slow = find_contention(&a);
        assert_eq!(fast.is_some(), slow.is_some(), "shift:{k}");
        if let Some(w) = fast {
            // The scratch witness is a real collision on that channel.
            let on: Vec<_> = a
                .routes()
                .iter()
                .filter(|(_, p)| p.channels().contains(&w.channel))
                .map(|(pair, _)| *pair)
                .collect();
            assert!(on.contains(&w.a) && on.contains(&w.b));
        }
    }
}

#[test]
fn census_counts_match_audit_lists() {
    let ft = Ftree::new(2, 4, 3).unwrap();
    let router = YuanDeterministic::new(&ft).unwrap();
    let engine = ContentionEngine::new(&router).unwrap();
    let audit = LinkAudit::build(&router);
    let mut used = 0;
    for c in (0..engine.arena().num_channels()).map(|c| ChannelId(c as u32)) {
        let (srcs, dsts) = audit.channel_census(c).unwrap_or((&[], &[]));
        used += usize::from(!srcs.is_empty());
        assert_eq!(engine.census().num_sources(c), srcs.len().min(2), "{c}");
        assert_eq!(
            engine.census().num_destinations(c),
            dsts.len().min(2),
            "{c}"
        );
    }
    assert_eq!(used, audit.used_channels());
}
#[test]
fn dmodk_fails_lemma1_with_witness() {
    let ft = Ftree::new(2, 2, 5).unwrap();
    let router = DModK::new(&ft);
    let audit = LinkAudit::build(&router);
    let violation = audit.lemma1_check(&router).unwrap_err();
    // The witness is a valid blocking two-pair permutation.
    let perm = Permutation::from_pairs(
        10,
        [
            SdPair::new(violation.sources[0], violation.destinations[0]),
            SdPair::new(violation.sources[1], violation.destinations[1]),
        ],
    )
    .unwrap();
    let a = route_all(&router, &perm).unwrap();
    assert!(a.max_channel_load() >= 2, "witness must actually block");
}

#[test]
fn contention_detection() {
    let ft = Ftree::new(2, 2, 5).unwrap();
    let router = DModK::new(&ft);
    // Both target residue 0 tops from switch 0.
    let perm = Permutation::from_pairs(10, [SdPair::new(0, 4), SdPair::new(1, 6)]).unwrap();
    let a = route_all(&router, &perm).unwrap();
    let w = find_contention(&a).expect("contention expected");
    assert_ne!(w.a, w.b);
    // And a clean assignment yields none.
    let ft2 = Ftree::new(2, 4, 5).unwrap();
    let yuan = YuanDeterministic::new(&ft2).unwrap();
    let a2 = route_all(&yuan, &perm).unwrap();
    assert!(find_contention(&a2).is_none());
}

#[test]
fn audit_census_counts() {
    let ft = Ftree::new(2, 4, 3).unwrap();
    let router = YuanDeterministic::new(&ft).unwrap();
    let audit = LinkAudit::build(&router);
    // Fig. 3: uplink v -> (i,j) carries r-1 pairs from ONE source to
    // r-1 destinations.
    let up = ft.up_channel(0, 0); // v=0, top (0,0)
    let (srcs, dsts) = audit.channel_census(up).unwrap();
    assert_eq!(srcs, &[0]); // source (0,0) = leaf 0
    assert_eq!(dsts.len(), 2); // r-1 = 2 destinations (w,0), w != 0
}

#[test]
fn engine_and_legacy_verdicts_agree() {
    for (n, m, r) in [(2usize, 4usize, 5usize), (2, 2, 5), (2, 3, 4), (3, 9, 7)] {
        let ft = Ftree::new(n, m, r).unwrap();
        let router = DModK::new(&ft);
        let fast = nonblocking_verdict(&router);
        let slow = nonblocking_verdict_legacy(&router);
        assert_eq!(fast.nonblocking, slow.nonblocking, "n={n} m={m} r={r}");
        // Both witnesses, when present, are live blocking permutations.
        for v in [&fast, &slow] {
            if let Some([a, b]) = v.witness_pairs() {
                let perm = Permutation::from_pairs((n * r) as u32, [a, b]).unwrap();
                let routed = route_all(&router, &perm).unwrap();
                assert!(routed.max_channel_load() >= 2);
            }
        }
    }
}

#[test]
fn two_pair_engine_agrees_with_legacy_loop() {
    for (n, m, r) in [(2usize, 2usize, 5usize), (2, 4, 5), (3, 4, 6), (3, 9, 7)] {
        let ft = Ftree::new(n, m, r).unwrap();
        let router = DModK::new(&ft);
        let fast = find_blocking_two_pair(&router);
        let slow = find_blocking_two_pair_legacy(&router);
        assert_eq!(
            fast.is_nonblocking(),
            slow.is_nonblocking(),
            "n={n} m={m} r={r}"
        );
        assert_eq!(fast.found_blocking(), slow.found_blocking());
        // Witnesses may differ (the engine normalizes on the lowest
        // violating channel); both must actually contend.
        for w in [fast.witness(), slow.witness()].into_iter().flatten() {
            let a = route_all(&router, w).unwrap();
            assert!(a.max_channel_load() >= 2, "n={n} m={m} r={r}");
        }
    }
}

#[test]
fn two_pair_legacy_reports_routing_errors() {
    /// Claims 4 ports but routes none of them.
    struct Liar;
    impl SinglePathRouter for Liar {
        fn ports(&self) -> u32 {
            4
        }
        fn route_into(&self, _: SdPair, out: &mut Vec<ChannelId>) {
            out.clear();
        }
        fn try_route_into(&self, _: SdPair, _: &mut Vec<ChannelId>) -> Result<(), RoutingError> {
            Err(RoutingError::PortOutOfRange { port: 0, ports: 0 })
        }
        fn name(&self) -> &'static str {
            "liar"
        }
    }
    let fast = find_blocking_two_pair(&Liar);
    let slow = find_blocking_two_pair_legacy(&Liar);
    assert!(matches!(fast, TwoPairOutcome::RoutingFailed(_)), "{fast:?}");
    assert!(matches!(slow, TwoPairOutcome::RoutingFailed(_)), "{slow:?}");
    assert!(
        !fast.is_nonblocking(),
        "errors must not read as nonblocking"
    );
}

#[test]
fn degradation_engine_matches_legacy_oracle() {
    // Blocking, clean, and faulted-clean cases; verdicts must agree and
    // any violation witness must be genuine (the legacy HashMap census
    // iterates in arbitrary order, so only validity is comparable).
    type DeadLeafDown = &'static [(u32, u32)];
    let cases: [(u32, u32, u32, DeadLeafDown); 3] =
        [(2, 2, 5, &[(4, 1)]), (2, 4, 5, &[]), (2, 4, 5, &[(1, 0)])];
    for (n, m, r, dead_leaf_down) in cases {
        let ft = Ftree::new(n as usize, m as usize, r as usize).unwrap();
        let mut faults = FaultSet::new();
        for &(leaf, port) in dead_leaf_down {
            faults.fail_channel(ft.leaf_down_channel(leaf as usize, port as usize));
        }
        let view = FaultyView::new(ft.topology(), &faults);
        let dmodk = DModK::new(&ft);
        let new = deterministic_degradation(&dmodk, &view).unwrap();
        let old = deterministic_degradation_legacy(&dmodk, &view);
        assert_eq!(new.total_pairs, old.total_pairs);
        assert_eq!(new.unroutable, old.unroutable, "ftree({n}+{m},{r})");
        assert_eq!(new.lemma1.is_ok(), old.lemma1.is_ok(), "ftree({n}+{m},{r})");
        for v in [&new.lemma1, &old.lemma1]
            .into_iter()
            .filter_map(|l| l.as_ref().err())
        {
            assert_ne!(v.sources[0], v.sources[1]);
            assert_ne!(v.destinations[0], v.destinations[1]);
            for i in 0..2 {
                let pair = SdPair::new(v.sources[i], v.destinations[i]);
                let path = dmodk.route(pair);
                assert!(path.channels().contains(&v.channel), "{v:?}");
                assert!(view.path_alive(path.channels()).is_ok(), "{v:?}");
            }
        }
    }
}

#[test]
fn witnesses_sit_on_the_lowest_offending_channel() {
    // Up/down discipline: d-mod-k on ftree(2+2, 5) has several uplinks with
    // two sources or downlinks with two destinations; the oracle's lists
    // name them all, and the check reports the lowest.
    let ft = Ftree::new(2, 2, 5).unwrap();
    let dmodk = DModK::new(&ft);
    let audit = LinkAudit::build(&dmodk);
    let ft_ref = &ft;
    let uplinks: Vec<ChannelId> = (0..ft.r())
        .flat_map(|v| {
            let leaves = (0..ft_ref.n()).map(move |i| ft_ref.leaf_up_channel(v, i));
            leaves.chain((0..ft_ref.m()).map(move |t| ft_ref.up_channel(v, t)))
        })
        .collect();
    let offending: Vec<ChannelId> = (0..ft.topology().num_channels())
        .map(|c| ChannelId(c as u32))
        .filter(|&c| {
            let (sources, dests) = audit.channel_census(c).unwrap_or((&[], &[]));
            if uplinks.contains(&c) {
                sources.len() > 1
            } else {
                dests.len() > 1
            }
        })
        .collect();
    assert!(offending.len() >= 2, "{offending:?}");
    assert_eq!(
        updown_discipline(&dmodk, ft.topology()),
        Ok(Some(offending[0]))
    );

    // Section IV.B: two pairs of one switch spread over all four tops of
    // ftree(2+4, 5) share every uplink of that switch.
    let ft = Ftree::new(2, 4, 5).unwrap();
    let perm = Permutation::from_pairs(10, [SdPair::new(0, 4), SdPair::new(1, 6)]).unwrap();
    let spread = ObliviousMultipath::new(&ft, SpreadPolicy::RoundRobin)
        .spread_pattern(&perm)
        .unwrap();
    let offending: Vec<ChannelId> = (0..ft.topology().num_channels())
        .map(|c| ChannelId(c as u32))
        .filter(|c| {
            let on: Vec<SdPair> = spread
                .entries()
                .iter()
                .filter(|(_, paths)| paths.iter().any(|p| p.channels().contains(c)))
                .map(|(pair, _)| *pair)
                .collect();
            on.iter()
                .any(|a| on.iter().any(|b| a.src != b.src && a.dst != b.dst))
        })
        .collect();
    assert_eq!(offending.len(), 4, "{offending:?}");
    let v = multipath_violation(&spread).unwrap();
    assert_eq!(v.channel, offending[0]);
    assert_eq!((v.sources, v.destinations), ([0, 1], [4, 6]));
}
