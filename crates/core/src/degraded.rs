//! Degraded-nonblocking analysis: how much of the paper's nonblocking
//! guarantee survives hardware failures.
//!
//! Three questions, in increasing strength:
//!
//! 1. **Deterministic degradation** ([`deterministic_degradation`]) — under
//!    a fault overlay, which SD pairs does a single-path deterministic
//!    routing simply lose (its one path crosses dead hardware), and does the
//!    Lemma 1 predicate still hold on the surviving pairs?
//! 2. **Adaptive degradation** ([`adaptive_degraded_verdict`]) — does the
//!    masked NONBLOCKINGADAPTIVE still route every permutation
//!    contention-free, exhaustively for tiny fabrics and by randomized sweep
//!    beyond?
//! 3. **Survivability margin** ([`max_survivable_top_failures`]) — the
//!    largest `k` such that `ftree(n+n²+k', r)` stays nonblocking under
//!    **any** `k` top-switch failures, i.e. how many spare top switches buy
//!    how much fault tolerance. Failure subsets are enumerated exhaustively
//!    while `C(m, k)` fits a budget, and sampled (adversarial candidates
//!    first, then random) beyond.

use crate::engine::{crossing_pairs, lemma1_witness, LinkCensus, LEMMA1_THREADS};
use crate::sweep::fold_paths;
use crate::verify::LinkViolation;
use ftclos_obs::Noop;
use ftclos_routing::{NonblockingAdaptive, RoutingError, SinglePathRouter};
use ftclos_topo::{ChannelId, FaultError, FaultSet, FaultyView, Ftree};
use ftclos_traffic::enumerate::AllPermutations;
use ftclos_traffic::{patterns, SdPair};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// How a single-path deterministic routing degrades under a fault overlay.
#[derive(Clone, Debug)]
pub struct DeterministicDegradation {
    /// Ordered cross-leaf pairs examined (`ports · (ports-1)`).
    pub total_pairs: usize,
    /// Pairs whose (only) path crosses dead hardware, with the first dead
    /// channel on each.
    pub unroutable: Vec<(SdPair, ChannelId)>,
    /// Lemma 1 verdict over the *surviving* pairs.
    pub lemma1: Result<(), LinkViolation>,
}

impl DeterministicDegradation {
    /// Pairs that still route.
    pub fn routable_pairs(&self) -> usize {
        self.total_pairs - self.unroutable.len()
    }

    /// Fraction of pairs lost to the faults.
    pub fn unroutable_fraction(&self) -> f64 {
        if self.total_pairs == 0 {
            0.0
        } else {
            self.unroutable.len() as f64 / self.total_pairs as f64
        }
    }

    /// True when no pair was lost *and* Lemma 1 holds on the survivors.
    pub fn fully_operational(&self) -> bool {
        self.unroutable.is_empty() && self.lemma1.is_ok()
    }
}

/// Route every ordered pair of distinct leaves through `router`, partition
/// into surviving vs unroutable under `view`, and re-run the Lemma 1 audit
/// on the survivors.
///
/// For the Theorem 3 routing the survivors always pass (a subset of a
/// Lemma 1-clean pair set is clean); the audit earns its keep on sabotaged
/// or blocking routers where faults can *mask* pre-existing violations.
///
/// One [`fold_paths`] pass records every surviving path into a
/// [`LinkCensus`] and lists the unroutable pairs in row order; no path is
/// stored. The witness sits on the lowest violating channel: the surviving
/// pairs that cross it, re-routed in row order, fed to the witness rule. On
/// a pristine fabric it is therefore [`crate::engine::lemma1_audit`]'s.
///
/// # Errors
/// The first routing error in row order (see [`fold_paths`]).
pub fn deterministic_degradation<R: SinglePathRouter + Sync + ?Sized>(
    router: &R,
    view: &FaultyView<'_>,
) -> Result<DeterministicDegradation, RoutingError> {
    let (census, unroutable) = fold_paths(
        router,
        LEMMA1_THREADS,
        || (LinkCensus::default(), Vec::new()),
        |(census, unroutable), pair, path| match view.path_alive(path) {
            Ok(()) => {
                for &c in path {
                    census.record(c, pair.src, pair.dst);
                }
            }
            Err(FaultError::DeadChannel { channel }) => unroutable.push((pair, channel)),
            Err(FaultError::DeadNode { .. }) => {
                unreachable!("path_alive reports dead paths via their channels")
            }
        },
        |(left, mut lost), (right, more)| {
            lost.extend(more);
            (left.merge(right), lost)
        },
        &Noop,
    )?;
    let lemma1 = match census.first_violation() {
        None => Ok(()),
        Some(channel) => {
            let survivors = crossing_pairs(router, channel)
                .filter(|&pair| view.path_alive(router.route(pair).channels()).is_ok());
            Err(lemma1_witness(channel, survivors)
                .expect("census over survivors saw >= 2 sources and destinations"))
        }
    };
    let ports = router.ports() as usize;
    Ok(DeterministicDegradation {
        total_pairs: ports * ports.saturating_sub(1),
        unroutable,
        lemma1,
    })
}

/// Outcome of a degraded blocking sweep of the masked adaptive router.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradedVerdict {
    /// Every permutation examined routed with channel load ≤ 1.
    ContentionFree {
        /// Permutations examined.
        permutations: usize,
        /// Whether the sweep covered *all* full permutations.
        exhaustive: bool,
    },
    /// Some pair has no live path at all (dead leaf cable, or no top switch
    /// can serve it): no routing algorithm survives this fault set.
    Unroutable {
        /// Source port of the lost pair.
        src: u32,
        /// Destination port of the lost pair.
        dst: u32,
    },
    /// The Fig. 4 key discipline ran out of configurations before routing
    /// some permutation — the fabric has live tops, but not where the
    /// algorithm can use them.
    PlanExhausted {
        /// Tops the plan would have needed.
        needed: usize,
        /// Tops the fabric has.
        available: usize,
    },
    /// A permutation routed with two pairs on one channel (should be
    /// impossible for masked plans; kept as a checked invariant).
    Contention {
        /// The blocking permutation's pairs.
        pairs: Vec<SdPair>,
    },
}

impl DegradedVerdict {
    /// True for [`DegradedVerdict::ContentionFree`].
    pub fn survives(&self) -> bool {
        matches!(self, DegradedVerdict::ContentionFree { .. })
    }
}

/// Sweep permutations through the masked NONBLOCKINGADAPTIVE under `view`.
///
/// Fabrics with ≤ 6 leaves are swept exhaustively (≤ 720 permutations);
/// larger ones get `samples` random full permutations from `seed`.
///
/// # Errors
/// Propagates router construction/pattern errors other than the degradation
/// outcomes captured in the verdict.
pub fn adaptive_degraded_verdict(
    ft: &Ftree,
    view: &FaultyView<'_>,
    samples: usize,
    seed: u64,
) -> Result<DegradedVerdict, RoutingError> {
    let router = NonblockingAdaptive::new(ft)?;
    let ports = ft.num_leaves() as u32;
    let exhaustive = ports <= 6;
    let perms: Vec<_> = if exhaustive {
        AllPermutations::new(ports).collect()
    } else {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..samples)
            .map(|_| patterns::random_full(ports, &mut rng))
            .collect()
    };
    let permutations = perms.len();
    // Each permutation is judged independently; the first non-clean outcome
    // *in sweep order* is the verdict, regardless of evaluation schedule.
    let outcomes: Vec<Result<Option<DegradedVerdict>, RoutingError>> = perms
        .par_iter()
        .map(|perm| match router.route_pattern_masked(perm, view) {
            Ok(a) => {
                if a.max_channel_load() > 1 {
                    Ok(Some(DegradedVerdict::Contention {
                        pairs: perm.pairs().to_vec(),
                    }))
                } else {
                    Ok(None)
                }
            }
            Err(RoutingError::NoLivePath { src, dst }) => {
                Ok(Some(DegradedVerdict::Unroutable { src, dst }))
            }
            Err(RoutingError::NotEnoughTops { needed, available }) => {
                Ok(Some(DegradedVerdict::PlanExhausted { needed, available }))
            }
            Err(e) => Err(e),
        })
        .collect();
    for outcome in outcomes {
        if let Some(verdict) = outcome? {
            return Ok(verdict);
        }
    }
    Ok(DegradedVerdict::ContentionFree {
        permutations,
        exhaustive,
    })
}

/// Result for one failure count `k` of the survivability search.
#[derive(Clone, Debug)]
pub struct KLevel {
    /// Top switches failed simultaneously.
    pub k: usize,
    /// Failure subsets examined.
    pub subsets_checked: usize,
    /// Whether all `C(m, k)` subsets were examined.
    pub exhaustive: bool,
    /// The worst verdict across subsets (`ContentionFree` iff all passed).
    pub verdict: DegradedVerdict,
    /// The failing top-switch subset, when `verdict` is not contention-free.
    pub counterexample: Option<Vec<usize>>,
}

/// Output of [`max_survivable_top_failures`].
#[derive(Clone, Debug)]
pub struct SurvivabilityReport {
    /// Largest `k` whose every examined subset stayed contention-free
    /// (0 when even single failures break the fabric).
    pub max_k: usize,
    /// Per-`k` details, in increasing `k`, up to and including the first
    /// failing level (or `k_max`).
    pub levels: Vec<KLevel>,
}

/// Find the largest `k ≤ k_max` such that the masked adaptive routing stays
/// contention-free under **any** `k` simultaneous top-switch failures.
///
/// While `C(m, k) ≤ subset_budget` all subsets are checked (the claim is
/// then exact at that sweep depth); beyond, adversarial candidates (first
/// `k` tops, last `k` tops — the spare partition — and same-key columns)
/// plus seeded random subsets fill the budget, making the claim a
/// high-confidence estimate. Each subset is judged by
/// [`adaptive_degraded_verdict`] with `perms_per_subset` samples.
///
/// # Errors
/// Propagates router construction errors.
pub fn max_survivable_top_failures(
    ft: &Ftree,
    k_max: usize,
    perms_per_subset: usize,
    subset_budget: usize,
    seed: u64,
) -> Result<SurvivabilityReport, RoutingError> {
    let m = ft.m();
    let n = ft.n();
    let mut levels = Vec::new();
    let mut max_k = 0usize;
    for k in 1..=k_max.min(m) {
        let exhaustive = binomial(m, k).is_some_and(|c| c <= subset_budget as u128);
        let subsets: Vec<Vec<usize>> = if exhaustive {
            Combinations::new(m, k).collect()
        } else {
            sampled_subsets(m, n, k, subset_budget, seed ^ (k as u64) << 32)
        };
        let mut level = KLevel {
            k,
            subsets_checked: subsets.len(),
            exhaustive,
            verdict: DegradedVerdict::ContentionFree {
                permutations: 0,
                exhaustive: false,
            },
            counterexample: None,
        };
        let mut all_clear = true;
        let mut permutations = 0usize;
        let mut perms_exhaustive = true;
        // Subsets are independent: judge them all in parallel, then scan in
        // enumeration order so the reported counterexample and accumulated
        // permutation counts match the sequential sweep exactly.
        let verdicts: Vec<Result<DegradedVerdict, RoutingError>> = subsets
            .par_iter()
            .enumerate()
            .map(|(i, subset)| {
                let mut faults = FaultSet::new();
                for &t in subset {
                    faults.fail_switch(ft.top(t));
                }
                let view = FaultyView::new(ft.topology(), &faults);
                adaptive_degraded_verdict(
                    ft,
                    &view,
                    perms_per_subset,
                    seed ^ (k as u64) ^ ((i as u64) << 20),
                )
            })
            .collect();
        for (subset, verdict) in subsets.iter().zip(verdicts) {
            match verdict? {
                DegradedVerdict::ContentionFree {
                    permutations: p,
                    exhaustive: e,
                } => {
                    permutations += p;
                    perms_exhaustive &= e;
                }
                other => {
                    level.verdict = other;
                    level.counterexample = Some(subset.clone());
                    all_clear = false;
                    break;
                }
            }
        }
        if all_clear {
            level.verdict = DegradedVerdict::ContentionFree {
                permutations,
                exhaustive: exhaustive && perms_exhaustive,
            };
            max_k = k;
            levels.push(level);
        } else {
            levels.push(level);
            break;
        }
    }
    Ok(SurvivabilityReport { max_k, levels })
}

/// `C(m, k)`, or `None` on overflow (treated as "larger than any budget").
fn binomial(m: usize, k: usize) -> Option<u128> {
    if k > m {
        return Some(0);
    }
    let k = k.min(m - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.checked_mul((m - i) as u128)?;
        acc /= (i + 1) as u128;
    }
    Some(acc)
}

/// Lexicographic `k`-combinations of `0..m`.
struct Combinations {
    m: usize,
    state: Option<Vec<usize>>,
}

impl Combinations {
    fn new(m: usize, k: usize) -> Self {
        let state = (k <= m).then(|| (0..k).collect());
        Self { m, state }
    }
}

impl Iterator for Combinations {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let current = self.state.clone()?;
        let k = current.len();
        // Advance: find the rightmost index that can still move up.
        let next = {
            let mut s = current.clone();
            let mut i = k;
            loop {
                if i == 0 {
                    break None;
                }
                i -= 1;
                if s[i] < self.m - (k - i) {
                    s[i] += 1;
                    for j in i + 1..k {
                        s[j] = s[j - 1] + 1;
                    }
                    break Some(s);
                }
            }
        };
        self.state = next;
        Some(current)
    }
}

/// Adversarial + random failure subsets when exhaustive enumeration is too
/// expensive: the first `k` tops (leading configuration), the last `k`
/// (spare partitions), each same-key column prefix, then seeded random
/// draws up to `budget`.
fn sampled_subsets(m: usize, n: usize, k: usize, budget: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut subsets: Vec<Vec<usize>> = Vec::new();
    subsets.push((0..k).collect());
    subsets.push((m - k..m).collect());
    if n > 0 {
        for key in 0..n.min(m) {
            let column: Vec<usize> = (0..m).filter(|t| t % n == key).take(k).collect();
            if column.len() == k && !subsets.contains(&column) {
                subsets.push(column);
            }
        }
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut all: Vec<usize> = (0..m).collect();
    while subsets.len() < budget {
        all.shuffle(&mut rng);
        let mut pick: Vec<usize> = all[..k].to_vec();
        pick.sort_unstable();
        if !subsets.contains(&pick) {
            subsets.push(pick);
        }
    }
    subsets.truncate(budget);
    subsets
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclos_routing::{DModK, YuanDeterministic};

    #[test]
    fn combinations_enumerate_exactly() {
        let all: Vec<_> = Combinations::new(5, 2).collect();
        assert_eq!(all.len(), 10);
        assert_eq!(all[0], vec![0, 1]);
        assert_eq!(all[9], vec![3, 4]);
        assert_eq!(binomial(5, 2), Some(10));
        assert_eq!(binomial(12, 1), Some(12));
        assert_eq!(Combinations::new(3, 4).count(), 0);
    }

    #[test]
    fn pristine_deterministic_audit_is_clean() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let yuan = YuanDeterministic::new(&ft).unwrap();
        let view = FaultyView::pristine(ft.topology());
        let deg = deterministic_degradation(&yuan, &view).unwrap();
        assert!(deg.fully_operational());
        assert_eq!(deg.total_pairs, 90);
    }

    #[test]
    fn yuan_loses_pinned_pairs_at_first_top_failure() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let yuan = YuanDeterministic::new(&ft).unwrap();
        let mut faults = FaultSet::new();
        faults.fail_switch(ft.top(0));
        let view = FaultyView::new(ft.topology(), &faults);
        let deg = deterministic_degradation(&yuan, &view).unwrap();
        // Top (0,0) carries exactly the r(r-1) = 20 cross pairs with i=j=0.
        assert_eq!(deg.unroutable.len(), 20);
        assert!(
            deg.lemma1.is_ok(),
            "survivors of a clean routing stay clean"
        );
        assert!(!deg.fully_operational());
    }

    #[test]
    fn blocking_router_keeps_violation_under_light_faults() {
        // d-mod-k on m < n² violates Lemma 1; failing one unrelated leaf
        // cable must not hide that.
        let ft = Ftree::new(2, 2, 5).unwrap();
        let dmodk = DModK::new(&ft);
        let mut faults = FaultSet::new();
        faults.fail_channel(ft.leaf_down_channel(4, 1));
        let view = FaultyView::new(ft.topology(), &faults);
        let deg = deterministic_degradation(&dmodk, &view).unwrap();
        assert!(deg.lemma1.is_err());
        assert!(!deg.unroutable.is_empty());
    }

    #[test]
    fn adaptive_verdict_contention_free_with_spares() {
        let ft = Ftree::new(3, 12, 9).unwrap();
        let mut faults = FaultSet::new();
        faults.fail_switch(ft.top(4));
        let view = FaultyView::new(ft.topology(), &faults);
        let v = adaptive_degraded_verdict(&ft, &view, 8, 11).unwrap();
        assert!(v.survives(), "{v:?}");
    }

    #[test]
    fn adaptive_verdict_unroutable_on_dead_leaf_cable() {
        let ft = Ftree::new(3, 12, 9).unwrap();
        let mut faults = FaultSet::new();
        faults.fail_link(ft.topology(), ft.leaf_up_channel(2, 1));
        let view = FaultyView::new(ft.topology(), &faults);
        let v = adaptive_degraded_verdict(&ft, &view, 4, 3).unwrap();
        assert!(matches!(v, DegradedVerdict::Unroutable { .. }), "{v:?}");
    }

    #[test]
    fn survivability_margin_at_least_one_with_spare_partition() {
        // ftree(3+12, 9): 12 = n² + 3 tops; the spare partition must absorb
        // any single top failure. C(12, 1) = 12 subsets, exhaustive.
        let ft = Ftree::new(3, 12, 9).unwrap();
        let rep = max_survivable_top_failures(&ft, 1, 5, 64, 2024).unwrap();
        assert_eq!(rep.max_k, 1, "{:?}", rep.levels);
        assert!(rep.levels[0].exhaustive);
        assert_eq!(rep.levels[0].subsets_checked, 12);
    }

    #[test]
    fn survivability_margin_is_bounded_without_spares() {
        // ftree(2+6, 4): c = 2, configuration width (c+1)·n = 6 = m — no
        // second configuration fits. Five simultaneous failures leave a
        // single top switch, which cannot carry two cross pairs from one
        // switch, so the margin is strictly below 5 and the search reports
        // the failing level with its counterexample subset.
        let ft = Ftree::new(2, 6, 4).unwrap();
        let rep = max_survivable_top_failures(&ft, 5, 12, 64, 7).unwrap();
        assert!(rep.max_k < 5, "{:?}", rep.levels);
        let level = rep.levels.last().unwrap();
        assert!(level.counterexample.is_some());
        assert!(!level.verdict.survives());
    }

    #[test]
    fn sampled_subsets_respect_budget_and_size() {
        let subsets = sampled_subsets(20, 4, 3, 10, 99);
        assert_eq!(subsets.len(), 10);
        for s in &subsets {
            assert_eq!(s.len(), 3);
            assert!(s.iter().all(|&t| t < 20));
            let mut d = s.clone();
            d.dedup();
            assert_eq!(d.len(), 3);
        }
    }
}
