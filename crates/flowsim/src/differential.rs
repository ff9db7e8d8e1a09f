//! Differential checks: the fluid model against the exact combinatorial
//! checkers in `ftclos-core`.
//!
//! Three equivalences are the correctness spine of the fluid simulator:
//!
//! 1. **Per pattern, single path**: every flow reaches rate 1.0 under
//!    water-filling **iff** the exact checker finds the routed pattern
//!    contention-free (no two flows share a channel). Unit flows on unit
//!    links make both sides "max channel demand ≤ 1".
//! 2. **Per fabric, single path**: the fluid model delivers every
//!    two-pair pattern at full rate **iff** Lemma 1 holds
//!    ([`ftclos_core::nonblocking_verdict`]). Two-pair patterns are a
//!    *complete* blocking test for deterministic routing (Yuan, Lemma 1):
//!    any blocked permutation contains a blocked two-pair sub-pattern.
//! 3. **Per pattern, multipath**: fluid spreading delivers every flow at
//!    rate 1.0 **iff** the max *expected* channel load is ≤ 1. This is an
//!    average-case statement — deliberately weaker than Lemma 1, which
//!    quantifies over adversarial timing of the random path choices.

use crate::flows::{FlowError, FlowSet};
use crate::waterfill::waterfill_unit;
use ftclos_core::{nonblocking_verdict, pattern_contention_free, NonblockingVerdict};
use ftclos_routing::{route_all, ObliviousMultipath, PathArena, SinglePathRouter};
use ftclos_traffic::{Permutation, SdPair};

/// Tolerance when comparing expected loads against capacity 1.0.
const EPS: f64 = 1e-9;

/// Both models' answers for one routed pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PatternAgreement {
    /// Fluid: every flow reached unit rate.
    pub fluid_unit_rate: bool,
    /// Exact: the routed pattern shares no channel between two flows.
    pub exact_contention_free: bool,
}

impl PatternAgreement {
    /// True when the two models agree — the differential invariant.
    pub fn agree(&self) -> bool {
        self.fluid_unit_rate == self.exact_contention_free
    }
}

/// Run both models on one pattern through a single-path router over a
/// fabric with `num_channels` channels.
pub fn check_pattern<R: SinglePathRouter + ?Sized>(
    router: &R,
    perm: &Permutation,
    num_channels: usize,
) -> Result<PatternAgreement, FlowError> {
    let assignment = route_all(router, perm)?;
    let exact_contention_free = pattern_contention_free(&assignment);
    let set = FlowSet::from_flows(
        &assignment
            .routes()
            .iter()
            .map(|(pair, path)| ftclos_routing::FlowLinks::single_path(*pair, path.channels()))
            .collect::<Vec<_>>(),
        num_channels,
    )?;
    let fluid_unit_rate = waterfill_unit(&set).all_unit_rate();
    Ok(PatternAgreement {
        fluid_unit_rate,
        exact_contention_free,
    })
}

/// Fabric-level differential: fluid over the complete two-pair family vs
/// the exact Lemma 1 decision.
#[derive(Clone, Debug)]
pub struct FabricAgreement {
    /// Fluid: every two-pair pattern delivered at full rate.
    pub fluid_nonblocking: bool,
    /// The exact checker's packaged verdict.
    pub exact: NonblockingVerdict,
    /// A two-pair pattern the fluid model failed to deliver, if any.
    pub fluid_witness: Option<[SdPair; 2]>,
}

impl FabricAgreement {
    /// True when fluid and exact agree on the nonblocking decision.
    pub fn agree(&self) -> bool {
        self.fluid_nonblocking == self.exact.nonblocking
    }
}

/// Decide "nonblocking" with the fluid model alone by sweeping **every**
/// two-pair pattern (distinct sources, distinct destinations), then
/// compare against the exact Lemma 1 verdict.
///
/// Cost is `O(p^4)` patterns — this is a verification tool for small
/// fabrics, not a production checker; the exact verdict inside is `O(p^2)`.
/// Patterns are enumerated on the calling thread. All paths are
/// routed **once** into a [`PathArena`]; the sweep's flow expansion then
/// reads cached path slices instead of re-routing each pair `O(p^2)` times.
pub fn check_fabric<R: SinglePathRouter + Sync + ?Sized>(
    router: &R,
    num_channels: usize,
) -> FabricAgreement {
    let p = router.ports();
    // Arena build can only fail for routers that error on their own
    // universe; such routers cannot serve any two-pair pattern either.
    let arena = match PathArena::build_with(router, &ftclos_obs::Noop) {
        Ok(a) => a,
        Err(_) => {
            return FabricAgreement {
                fluid_nonblocking: false,
                exact: nonblocking_verdict(router),
                fluid_witness: None,
            }
        }
    };
    // The first witness in (s1, s2, d1, d2) order, stopping there. (Only
    // fabrics of a dozen ports are feasible at O(p⁴) solves, and at that size
    // a thread costs more than the sweep.)
    let fluid_witness = (0..p).find_map(|s1| {
        for s2 in (s1 + 1)..p {
            for d1 in 0..p {
                for d2 in 0..p {
                    if d1 == d2 {
                        continue;
                    }
                    let pairs = [SdPair::new(s1, d1), SdPair::new(s2, d2)];
                    let Ok(perm) = Permutation::from_pairs(p, pairs) else {
                        continue;
                    };
                    match check_pattern(&arena, &perm, num_channels) {
                        Ok(a) if !a.fluid_unit_rate => return Some(pairs),
                        Ok(_) => {}
                        // A routing failure (e.g. faulted path) counts
                        // as not delivered: the fabric cannot serve
                        // this pattern at full rate.
                        Err(_) => return Some(pairs),
                    }
                }
            }
        }
        None
    });
    FabricAgreement {
        fluid_nonblocking: fluid_witness.is_none(),
        exact: nonblocking_verdict(router),
        fluid_witness,
    }
}

/// Both models' answers for one pattern under oblivious multipath
/// spreading: fluid unit rate vs expected channel load ≤ capacity.
pub fn check_multipath_pattern(
    mp: &ObliviousMultipath<'_>,
    perm: &Permutation,
    num_channels: usize,
) -> Result<PatternAgreement, FlowError> {
    let spread = mp.spread_pattern(perm)?;
    let exact_contention_free = spread.max_expected_load() <= 1.0 + EPS;
    let set = FlowSet::from_view(mp, perm, num_channels)?;
    let fluid_unit_rate = waterfill_unit(&set).all_unit_rate();
    Ok(PatternAgreement {
        fluid_unit_rate,
        exact_contention_free,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclos_routing::{DModK, YuanDeterministic};
    use ftclos_topo::Ftree;
    use ftclos_traffic::patterns;

    #[test]
    fn pattern_agreement_on_blocking_and_nonblocking_fabrics() {
        // m = n^2: Yuan's routing never contends.
        let big = Ftree::new(2, 4, 5).unwrap();
        let yuan = YuanDeterministic::new(&big).unwrap();
        let nc = big.topology().num_channels();
        for k in 0..10 {
            let a = check_pattern(&yuan, &patterns::shift(10, k), nc).unwrap();
            assert!(a.agree() && a.fluid_unit_rate, "shift:{k}");
        }
        // m = n: d-mod-k keeps agreeing on shifts (which it happens to
        // route cleanly — destinations spread evenly mod m)...
        let small = Ftree::new(2, 2, 5).unwrap();
        let dmodk = DModK::new(&small);
        let nc = small.topology().num_channels();
        for k in 0..10 {
            let a = check_pattern(&dmodk, &patterns::shift(10, k), nc).unwrap();
            assert!(a.agree(), "shift:{k} models disagree");
        }
        // ...and on a residue-colliding pattern both models see blocking:
        // two sources in leaf 0 send to destinations 4 and 6 (both ≡ 0
        // mod 2), forcing the same uplink.
        let collide = Permutation::from_pairs(10, [SdPair::new(0, 4), SdPair::new(1, 6)]).unwrap();
        let a = check_pattern(&dmodk, &collide, nc).unwrap();
        assert!(a.agree());
        assert!(!a.fluid_unit_rate, "m = n must block the mod collision");
    }

    #[test]
    fn fabric_agreement_matches_lemma1_both_ways() {
        let big = Ftree::new(2, 4, 3).unwrap();
        let yuan = YuanDeterministic::new(&big).unwrap();
        let fa = check_fabric(&yuan, big.topology().num_channels());
        assert!(fa.agree());
        assert!(fa.fluid_nonblocking);
        assert!(fa.fluid_witness.is_none());

        let small = Ftree::new(2, 2, 3).unwrap();
        let dmodk = DModK::new(&small);
        let fa = check_fabric(&dmodk, small.topology().num_channels());
        assert!(fa.agree());
        assert!(!fa.fluid_nonblocking);
        let w = fa.fluid_witness.expect("fluid witness exists");
        // The fluid witness really is a contending two-pair pattern.
        let perm = Permutation::from_pairs(6, w).unwrap();
        let a = check_pattern(&dmodk, &perm, small.topology().num_channels()).unwrap();
        assert!(!a.exact_contention_free);
    }

    #[test]
    fn multipath_agreement_is_expected_load_not_lemma1() {
        let ft = Ftree::new(2, 2, 5).unwrap();
        let mp = ObliviousMultipath::new(&ft);
        let nc = ft.topology().num_channels();
        // Multipath spreading on m = n keeps expected load at 1 for full
        // shifts, so the fluid model delivers them — even though the
        // deterministic single-path routing blocks (tested above). That
        // divergence is the point: fluid multipath is the average case.
        for k in 1..10 {
            let a = check_multipath_pattern(&mp, &patterns::shift(10, k), nc).unwrap();
            assert!(a.agree(), "shift:{k}");
            assert!(a.fluid_unit_rate, "shift:{k} spread over m = n uplinks");
        }
    }
}
