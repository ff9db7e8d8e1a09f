//! Differential property tests: the fluid water-filling simulator against
//! the exact combinatorial checkers, over random fabric shapes and random
//! permutations.
//!
//! The load-bearing invariants (see `ftclos_flowsim::differential`):
//!
//! * single-path routing, per pattern: all flows at rate 1.0 **iff** the
//!   exact checker finds the routed pattern contention-free;
//! * single-path routing, per fabric: the fluid model delivers the
//!   complete two-pair family **iff** the Lemma 1 verdict is nonblocking
//!   (two-pair patterns are a complete blocking test — Yuan, Lemma 1);
//! * oblivious multipath, per pattern: all flows at rate 1.0 **iff** the
//!   max *expected* channel load is ≤ 1 — the average-case statement,
//!   deliberately weaker than Lemma 1's adversarial-timing guarantee.

use ftclos_flowsim::{check_fabric, check_multipath_pattern, check_pattern};
use ftclos_routing::{DModK, ObliviousMultipath, SModK, YuanDeterministic};
use ftclos_topo::Ftree;
use ftclos_traffic::{patterns, Permutation};
use proptest::prelude::*;
use rand::SeedableRng;

fn random_perm(ports: u32, seed: u64, density_pct: u64) -> Permutation {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    if density_pct >= 100 {
        patterns::random_full(ports, &mut rng)
    } else {
        patterns::random_partial(ports, density_pct as f64 / 100.0, &mut rng)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// d mod k on arbitrary shapes: fluid unit-rate iff exact
    /// contention-free, for full and partial random permutations.
    #[test]
    fn dmodk_pattern_differential(
        (n, m, r) in (1usize..4, 1usize..6, 2usize..7),
        seed in 0u64..10_000,
        density in 20u64..=100,
    ) {
        let ft = Ftree::new(n, m, r).unwrap();
        let ports = ft.num_leaves() as u32;
        let perm = random_perm(ports, seed, density);
        let router = DModK::new(&ft);
        let a = check_pattern(&router, &perm, ft.topology().num_channels()).unwrap();
        prop_assert!(
            a.agree(),
            "fluid={} exact={} on ftree({n}+{m},{r}) seed={seed}",
            a.fluid_unit_rate,
            a.exact_contention_free
        );
    }

    /// s mod k sees the same equivalence (different pinning, same lemma).
    #[test]
    fn smodk_pattern_differential(
        (n, m, r) in (1usize..4, 1usize..6, 2usize..7),
        seed in 0u64..10_000,
    ) {
        let ft = Ftree::new(n, m, r).unwrap();
        let ports = ft.num_leaves() as u32;
        let perm = random_perm(ports, seed, 100);
        let router = SModK::new(&ft);
        let a = check_pattern(&router, &perm, ft.topology().num_channels()).unwrap();
        prop_assert!(a.agree());
    }

    /// Yuan's Theorem 3 routing on m ≥ n² fabrics: both models must call
    /// every pattern contention-free.
    #[test]
    fn yuan_always_delivers_on_nonblocking_shapes(
        (n, extra, r) in (1usize..4, 0usize..3, 2usize..6),
        seed in 0u64..10_000,
    ) {
        let m = n * n + extra;
        let ft = Ftree::new(n, m, r).unwrap();
        let ports = ft.num_leaves() as u32;
        let perm = random_perm(ports, seed, 100);
        let router = YuanDeterministic::new(&ft).unwrap();
        let a = check_pattern(&router, &perm, ft.topology().num_channels()).unwrap();
        prop_assert!(a.agree());
        prop_assert!(a.fluid_unit_rate, "Theorem 3 fabric must deliver all");
    }

    /// Fabric-level: the fluid decision over the complete two-pair family
    /// equals the exact Lemma 1 verdict — both directions, random shapes.
    /// Small ports only: the sweep is O(p^4) patterns.
    #[test]
    fn fabric_differential_is_exact(
        (n, m, r) in (1usize..3, 1usize..6, 2usize..5),
    ) {
        let ft = Ftree::new(n, m, r).unwrap();
        let nc = ft.topology().num_channels();
        let dk = check_fabric(&DModK::new(&ft), nc);
        prop_assert!(
            dk.agree(),
            "dmodk fluid={} exact={} on ftree({n}+{m},{r})",
            dk.fluid_nonblocking,
            dk.exact.nonblocking
        );
        // When blocked, the fluid witness must be a genuinely contending
        // two-pair pattern per the exact checker.
        if let Some(w) = dk.fluid_witness {
            let perm = Permutation::from_pairs(ft.num_leaves() as u32, w).unwrap();
            let a = check_pattern(&DModK::new(&ft), &perm, nc).unwrap();
            prop_assert!(!a.exact_contention_free);
        }
        if m >= n * n {
            let yuan = YuanDeterministic::new(&ft).unwrap();
            let fy = check_fabric(&yuan, nc);
            prop_assert!(fy.agree());
            prop_assert!(fy.fluid_nonblocking, "m >= n² Yuan is nonblocking");
        }
    }

    /// Multipath: fluid unit-rate iff max expected load ≤ 1. On m ≥ n
    /// fabrics uniform spreading puts n/m ≤ 1 per uplink, so every full
    /// permutation must be delivered.
    #[test]
    fn multipath_pattern_differential(
        (n, m, r) in (1usize..4, 1usize..7, 2usize..7),
        seed in 0u64..10_000,
        density in 20u64..=100,
    ) {
        let ft = Ftree::new(n, m, r).unwrap();
        let ports = ft.num_leaves() as u32;
        let perm = random_perm(ports, seed, density);
        let mp = ObliviousMultipath::new(&ft);
        let a = check_multipath_pattern(&mp, &perm, ft.topology().num_channels()).unwrap();
        prop_assert!(
            a.agree(),
            "fluid={} expected-load-ok={} on ftree({n}+{m},{r}) seed={seed}",
            a.fluid_unit_rate,
            a.exact_contention_free
        );
        if m >= n {
            prop_assert!(a.fluid_unit_rate, "n/m ≤ 1 per uplink must deliver");
        }
    }
}

/// The multipath equivalence is average-case only: on a blocking m = n
/// fabric, fluid multipath delivers patterns that the *deterministic*
/// Lemma 1 test calls blocked. This pins the documented divergence so
/// nobody "fixes" the differential into comparing the wrong checkers.
#[test]
fn multipath_fluid_diverges_from_lemma1() {
    use ftclos_core::nonblocking_verdict;
    let ft = Ftree::new(2, 2, 5).unwrap();
    // Deterministic single-path routing on m = n < n² blocks...
    let verdict = nonblocking_verdict(&DModK::new(&ft));
    assert!(!verdict.nonblocking);
    // ...but fluid multipath delivers every full shift at unit rate.
    let mp = ObliviousMultipath::new(&ft);
    for k in 0..10 {
        let a = check_multipath_pattern(&mp, &patterns::shift(10, k), ft.topology().num_channels())
            .unwrap();
        assert!(a.fluid_unit_rate && a.agree(), "shift:{k}");
    }
}
