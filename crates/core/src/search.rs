//! Blocking-permutation search and blocking-probability estimation.

use crate::engine::lemma1_audit_with;
use ftclos_obs::Noop;
use ftclos_routing::{PatternRouter, RoutingError, SinglePathRouter};
use ftclos_traffic::enumerate::AllPermutations;
use ftclos_traffic::{patterns, Permutation, SdPair};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

/// Outcome of the complete two-pair blocking search.
///
/// The search previously returned `Option<Permutation>` computed with
/// `route_all(..).ok()?`, so a routing *error* silently terminated the scan
/// and read as "no blocking permutation found". The three cases are now
/// distinct: a blocking witness, a routing failure (the claim is
/// undecided), or a genuinely exhausted search (the router is nonblocking).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TwoPairOutcome {
    /// A two-pair permutation that blocks (two pairs with distinct sources
    /// and distinct destinations share a channel).
    Blocking(Permutation),
    /// The router failed to route some pair — the search is inconclusive,
    /// NOT a nonblocking verdict.
    RoutingFailed(RoutingError),
    /// Every two-pair pattern routed contention-free: the router is
    /// nonblocking (Lemma 1 makes two-pair patterns a complete test).
    Exhausted {
        /// Distinct SD paths covered by the sweep (`ports·(ports-1)`).
        paths_covered: usize,
    },
}

impl TwoPairOutcome {
    /// The blocking witness, if the search found one.
    pub fn witness(&self) -> Option<&Permutation> {
        match self {
            TwoPairOutcome::Blocking(p) => Some(p),
            _ => None,
        }
    }

    /// Consume into the blocking witness, if any.
    pub fn into_witness(self) -> Option<Permutation> {
        match self {
            TwoPairOutcome::Blocking(p) => Some(p),
            _ => None,
        }
    }

    /// True when the search completed and found no blocking pattern — a
    /// positive nonblocking verdict (routing errors return `false` here AND
    /// `false` from [`TwoPairOutcome::found_blocking`]).
    pub fn is_nonblocking(&self) -> bool {
        matches!(self, TwoPairOutcome::Exhausted { .. })
    }

    /// True when a blocking witness was found.
    pub fn found_blocking(&self) -> bool {
        matches!(self, TwoPairOutcome::Blocking(_))
    }
}

/// Complete blocking search for single-path deterministic routers: by
/// Lemma 1 a blocking permutation exists **iff** a two-pair pattern blocks.
///
/// Streaming: one census of all `ports·(ports-1)` SD paths, counted from
/// the router's top-choice rule or swept (see
/// [`crate::engine::lemma1_audit_with`]), instead of routing `O(ports⁴)`
/// two-pair patterns — two pairs block iff their paths share a channel whose
/// census has ≥2 sources and ≥2 destinations. The witness sits on the lowest
/// violating channel id, so it is deterministic. The original `O(ports⁴)`
/// loop over every two-pair pattern is the differential oracle in
/// `tests/oracle`.
pub fn find_blocking_two_pair<R: SinglePathRouter + Sync + ?Sized>(router: &R) -> TwoPairOutcome {
    let ports = router.ports();
    match lemma1_audit_with(router, &Noop) {
        Err(e) => TwoPairOutcome::RoutingFailed(e),
        Ok(Some(v)) => {
            let pairs = [
                SdPair::new(v.sources[0], v.destinations[0]),
                SdPair::new(v.sources[1], v.destinations[1]),
            ];
            match Permutation::from_pairs(ports, pairs) {
                Ok(perm) => TwoPairOutcome::Blocking(perm),
                Err(_) => unreachable!("witness pairs have distinct sources and destinations"),
            }
        }
        Ok(None) => TwoPairOutcome::Exhausted {
            paths_covered: (ports as usize) * (ports as usize).saturating_sub(1),
        },
    }
}

/// Exhaustive sweep of every full permutation (use only for tiny fabrics,
/// `ports <= 8`). Returns the first permutation the pattern router blocks
/// or fails to route.
pub fn find_blocking_exhaustive<R: PatternRouter + ?Sized>(router: &R) -> Option<Permutation> {
    for perm in AllPermutations::new(router.ports()) {
        match router.route_pattern(&perm) {
            Ok(a) => {
                if a.max_channel_load() > 1 {
                    return Some(perm);
                }
            }
            Err(_) => return Some(perm),
        }
    }
    None
}

/// Estimate the blocking probability of `router` over random full
/// permutations: the fraction of `samples` permutations with a contended
/// channel or an unroutable pair (0 when `samples` is 0). Runs samples in
/// parallel (each sample gets an independent seeded RNG, so results are
/// reproducible regardless of thread count).
pub fn blocking_report<R: PatternRouter + Sync + ?Sized>(
    router: &R,
    samples: usize,
    seed: u64,
) -> f64 {
    let blocked: usize = (0..samples)
        .into_par_iter()
        .map(|i| {
            let mut rng =
                ChaCha8Rng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let perm = patterns::random_full(router.ports(), &mut rng);
            match router.route_pattern(&perm) {
                Ok(a) => usize::from(a.max_channel_load() > 1),
                Err(_) => 1,
            }
        })
        .sum();
    blocked as f64 / samples.max(1) as f64
}

/// Blocking fraction as a function of load density: for each density `d`,
/// sample random *partial* permutations where each leaf participates with
/// probability `d`, and report the fraction that contend. This is the
/// blocking-probability curve of the related-work literature; a nonblocking
/// fabric is flat at zero.
pub fn blocking_vs_density<R: PatternRouter + Sync + ?Sized>(
    router: &R,
    densities: &[f64],
    samples_per_density: usize,
    seed: u64,
) -> Vec<(f64, f64)> {
    densities
        .iter()
        .map(|&density| {
            let blocked: usize = (0..samples_per_density)
                .into_par_iter()
                .map(|i| {
                    let mut rng = ChaCha8Rng::seed_from_u64(
                        seed ^ (i as u64 + 1).wrapping_mul(0x2545_F491_4F6C_DD1D)
                            ^ density.to_bits(),
                    );
                    let perm = patterns::random_partial(router.ports(), density, &mut rng);
                    match router.route_pattern(&perm) {
                        Ok(a) => usize::from(a.max_channel_load() > 1),
                        Err(_) => 1,
                    }
                })
                .sum();
            (density, blocked as f64 / samples_per_density.max(1) as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclos_routing::{
        route_all, DModK, GreedyLocalAdaptive, NonblockingAdaptive, YuanDeterministic,
    };
    use ftclos_topo::Ftree;

    #[test]
    fn two_pair_search_finds_dmodk_witness() {
        let ft = Ftree::new(2, 2, 5).unwrap();
        let router = DModK::new(&ft);
        let outcome = find_blocking_two_pair(&router);
        assert!(outcome.found_blocking() && !outcome.is_nonblocking());
        let perm = outcome.into_witness().expect("m < n^2 must block");
        let a = route_all(&router, &perm).unwrap();
        assert!(a.max_channel_load() >= 2);
    }

    #[test]
    fn two_pair_search_clears_yuan() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let outcome = find_blocking_two_pair(&router);
        assert!(outcome.is_nonblocking());
        assert_eq!(outcome, TwoPairOutcome::Exhausted { paths_covered: 90 });
        assert!(outcome.witness().is_none());
    }

    #[test]
    fn exhaustive_tiny_sweeps() {
        // ftree(2+4, 3): Yuan routing survives all 720 permutations.
        let ft = Ftree::new(2, 4, 3).unwrap();
        let yuan = YuanDeterministic::new(&ft).unwrap();
        assert!(find_blocking_exhaustive(&yuan).is_none());
        // d-mod-k with m = 2 on the same shape blocks some permutation.
        let ft2 = Ftree::new(2, 2, 3).unwrap();
        let dmodk = DModK::new(&ft2);
        assert!(find_blocking_exhaustive(&dmodk).is_some());
    }

    #[test]
    fn blocking_report_orders_routers() {
        let ft = Ftree::new(3, 3, 7).unwrap();
        let dmodk = DModK::new(&ft);
        let greedy = GreedyLocalAdaptive::new(&ft);
        let f_d = blocking_report(&dmodk, 60, 3);
        let f_g = blocking_report(&greedy, 60, 3);
        assert!(f_d > 0.0);
        assert!(f_g <= f_d, "greedy {f_g} vs dmodk {f_d}");
    }

    #[test]
    fn blocking_report_zero_for_nonblocking_adaptive() {
        let ft = Ftree::new(2, 16, 4).unwrap();
        let router = NonblockingAdaptive::new(&ft).unwrap();
        assert_eq!(blocking_report(&router, 40, 9), 0.0);
    }

    #[test]
    fn report_reproducible_across_calls() {
        let ft = Ftree::new(2, 2, 4).unwrap();
        let router = DModK::new(&ft);
        let a = blocking_report(&router, 50, 11);
        let b = blocking_report(&router, 50, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn density_curve_is_roughly_monotone_and_zero_for_nonblocking() {
        let ft = Ftree::new(3, 4, 7).unwrap();
        let dmodk = DModK::new(&ft);
        let curve = blocking_vs_density(&dmodk, &[0.1, 0.5, 1.0], 80, 3);
        assert_eq!(curve.len(), 3);
        assert!(curve[0].1 <= curve[2].1 + 0.1, "denser loads block more");
        assert!(curve[2].1 > 0.5, "full load blocks often at m < n²");

        let nb = Ftree::new(3, 9, 7).unwrap();
        let yuan = YuanDeterministic::new(&nb).unwrap();
        let flat = blocking_vs_density(&yuan, &[0.25, 0.75, 1.0], 60, 4);
        assert!(flat.iter().all(|&(_, f)| f == 0.0));
    }

    #[test]
    fn empty_sample_report() {
        let ft = Ftree::new(2, 2, 4).unwrap();
        let router = DModK::new(&ft);
        assert_eq!(blocking_report(&router, 0, 1), 0.0);
    }
}
