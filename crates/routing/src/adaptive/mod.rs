//! NONBLOCKINGADAPTIVE — the paper's Fig. 4 local adaptive routing
//! algorithm (Section V, Theorems 4-5).
//!
//! The algorithm routes the SD pairs of each source switch **independently**
//! (locality), in *configurations* of `(c+1)·n` top-level switches split
//! into `c+1` *partitions* of `n` switches. Within a partition, destination
//! leaf `s_{c-1}…s_0 p` is pinned to partition-local top switch
//! `key(partition, destination)` — a Class DIFF mapping (Lemma 4), so pairs
//! from different source switches can never contend. Per source switch the
//! algorithm greedily assigns the largest distinct-key subset of the
//! remaining pairs to an unused partition (Fig. 4 line (7)) until every pair
//! is routed, opening new configurations as needed.

pub mod digits;

use crate::assignment::RouteAssignment;
use crate::error::RoutingError;
use crate::path::Path;
use crate::router::PatternRouter;
use digits::DigitCoder;
use ftclos_topo::{FaultyView, Ftree};
use ftclos_traffic::{Permutation, SdPair};
use serde::{Deserialize, Serialize};

/// Partition-selection strategy for Fig. 4 line (7) (ablation hook).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanStrategy {
    /// The paper's greedy: route the largest distinct-key subset over all
    /// unused partitions.
    GreedyLargestSubset,
    /// Ablation: take partitions in index order without the max search.
    FirstFit,
}

/// Where the plan sends one SD pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LogicalRoute {
    /// Source and destination share a bottom switch (or are the same leaf):
    /// no top-level switch involved.
    Local,
    /// Routed through configuration `config`, partition `partition`, at
    /// partition-local top switch `key`; the physical top switch index is
    /// `config·(c+1)·n + partition·n + key`.
    Top {
        /// Configuration index (per the merged, fabric-wide numbering).
        config: u16,
        /// Partition within the configuration, `0..=c`.
        partition: u16,
        /// Partition-local top switch, `0..n`.
        key: u16,
    },
}

/// The logical routing plan produced by the Fig. 4 algorithm, before
/// materialization onto a concrete fabric.
///
/// The plan exists independently of `m` so experiments can measure how many
/// top-level switches the algorithm *needs* (Theorem 5) without building
/// enormous topologies.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AdaptivePlan {
    n: usize,
    c: usize,
    configs_per_switch: Vec<usize>,
    logical: Vec<(SdPair, LogicalRoute)>,
}

impl AdaptivePlan {
    /// Leaves per switch.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The digit constant `c` (`r <= n^c`).
    pub fn c(&self) -> usize {
        self.c
    }

    /// Configurations consumed by each source switch.
    pub fn configs_per_switch(&self) -> &[usize] {
        &self.configs_per_switch
    }

    /// `totalconf` of Fig. 4 line (14): the maximum over source switches.
    pub fn total_configs(&self) -> usize {
        self.configs_per_switch.iter().copied().max().unwrap_or(0)
    }

    /// Top-level switches required: `totalconf · (c+1) · n`.
    pub fn tops_needed(&self) -> usize {
        self.total_configs() * (self.c + 1) * self.n
    }

    /// The per-pair logical routes.
    pub fn logical(&self) -> &[(SdPair, LogicalRoute)] {
        &self.logical
    }

    /// Physical top-switch index for a [`LogicalRoute::Top`] entry.
    pub fn top_index(&self, route: LogicalRoute) -> Option<usize> {
        match route {
            LogicalRoute::Local => None,
            LogicalRoute::Top {
                config,
                partition,
                key,
            } => Some(
                config as usize * (self.c + 1) * self.n
                    + partition as usize * self.n
                    + key as usize,
            ),
        }
    }
}

/// The NONBLOCKINGADAPTIVE pattern router over an `ftree(n+m, r)`.
///
/// ```
/// use ftclos_routing::{NonblockingAdaptive, PatternRouter};
/// use ftclos_topo::Ftree;
/// use ftclos_traffic::patterns;
/// use rand::SeedableRng;
///
/// let ft = Ftree::new(3, 36, 9).unwrap(); // ample top switches
/// let router = NonblockingAdaptive::new(&ft).unwrap();
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let perm = patterns::random_full(27, &mut rng);
/// let plan = router.plan(&perm).unwrap();
/// assert!(plan.tops_needed() < 3 * 3 + (plan.c() + 1) * 3); // beats m = n²
/// let routes = router.route_pattern(&perm).unwrap();
/// assert!(routes.max_channel_load() <= 1); // Theorem 4
/// ```
#[derive(Clone, Copy, Debug)]
pub struct NonblockingAdaptive<'a> {
    ft: &'a Ftree,
    coder: DigitCoder,
}

impl<'a> NonblockingAdaptive<'a> {
    /// Create the router; fails for fabrics whose switches cannot be
    /// base-`n` digit encoded (`n == 1 && r > 1`).
    pub fn new(ft: &'a Ftree) -> Result<Self, RoutingError> {
        let coder = DigitCoder::new(ft.n(), ft.r())?;
        Ok(Self { ft, coder })
    }

    /// The digit coder in use.
    pub fn coder(&self) -> DigitCoder {
        self.coder
    }

    /// Run Fig. 4 on `perm` and return the logical plan (no fabric-size
    /// check: use this for Theorem 5 measurements).
    pub fn plan(&self, perm: &Permutation) -> Result<AdaptivePlan, RoutingError> {
        self.plan_with(perm, PlanStrategy::GreedyLargestSubset)
    }

    /// Run the algorithm with an explicit partition-selection strategy —
    /// the ablation hook for Fig. 4 line (7). The paper's algorithm uses
    /// [`PlanStrategy::GreedyLargestSubset`]; [`PlanStrategy::FirstFit`]
    /// removes the "largest subset" search and takes partitions in index
    /// order, isolating how much that greedy choice buys.
    pub fn plan_with(
        &self,
        perm: &Permutation,
        strategy: PlanStrategy,
    ) -> Result<AdaptivePlan, RoutingError> {
        let ports = self.ft.num_leaves() as u32;
        for pair in perm.pairs() {
            for port in [pair.src, pair.dst] {
                if port >= ports {
                    return Err(RoutingError::PortOutOfRange { port, ports });
                }
            }
        }
        let n = self.coder.n();
        let c = self.coder.c();
        let parts = self.coder.partitions();
        let mut logical: Vec<(SdPair, LogicalRoute)> = Vec::with_capacity(perm.len());
        let mut configs_per_switch = vec![0usize; self.ft.r()];

        // Line (1): split P into per-source-switch sets P^i.
        let groups = perm.group_by_source(|s| s as usize / n);
        for (switch, group) in groups {
            // Same-switch pairs never touch top switches.
            let mut pending: Vec<SdPair> = Vec::with_capacity(group.len());
            for pair in group {
                if pair.dst as usize / n == switch {
                    logical.push((pair, LogicalRoute::Local));
                } else {
                    pending.push(pair);
                }
            }
            // Lines (4)-(12): configurations of c+1 partitions.
            let mut config = 0u16;
            while !pending.is_empty() {
                let mut used = vec![false; parts];
                loop {
                    if pending.is_empty() {
                        break;
                    }
                    // Line (7): the largest subset routable on one unused
                    // partition = the partition with the most distinct keys.
                    // (FirstFit ablation: take the first unused partition's
                    // subset without comparing sizes.)
                    let mut best: Option<(usize, Vec<usize>)> = None;
                    #[allow(clippy::needless_range_loop)]
                    for pt in 0..parts {
                        if used[pt] {
                            continue;
                        }
                        // First pending pair per key value.
                        let mut seen = vec![false; n];
                        let mut subset = Vec::new();
                        for (idx, pair) in pending.iter().enumerate() {
                            let key = self.coder.partition_key(pair.dst, pt);
                            if !std::mem::replace(&mut seen[key], true) {
                                subset.push(idx);
                            }
                        }
                        if best.as_ref().is_none_or(|(_, b)| subset.len() > b.len()) {
                            best = Some((pt, subset));
                        }
                        if strategy == PlanStrategy::FirstFit {
                            break;
                        }
                    }
                    let Some((pt, subset)) = best else {
                        break; // no unused partition left
                    };
                    debug_assert!(!subset.is_empty());
                    // Lines (8)-(10): route LSET on PART, mark used, remove.
                    used[pt] = true;
                    // Remove back-to-front to keep indices stable.
                    for &idx in subset.iter().rev() {
                        let pair = pending.swap_remove(idx);
                        let key = self.coder.partition_key(pair.dst, pt) as u16;
                        logical.push((
                            pair,
                            LogicalRoute::Top {
                                config,
                                partition: pt as u16,
                                key,
                            },
                        ));
                    }
                    if used.iter().all(|&u| u) {
                        break;
                    }
                }
                config += 1;
            }
            configs_per_switch[switch] = config as usize;
        }
        Ok(AdaptivePlan {
            n,
            c,
            configs_per_switch,
            logical,
        })
    }

    /// Materialize a plan onto the fabric.
    ///
    /// # Errors
    /// * [`RoutingError::NotEnoughTops`] when the plan needs more than `m`
    ///   top-level switches,
    /// * [`RoutingError::PortOutOfRange`] when the plan carries a pair this
    ///   fabric has no leaves for (a plan built for a bigger fabric) — a
    ///   typed error instead of an out-of-bounds panic in the channel
    ///   accessors below.
    pub fn materialize(&self, plan: &AdaptivePlan) -> Result<RouteAssignment, RoutingError> {
        if plan.tops_needed() > self.ft.m() {
            return Err(RoutingError::NotEnoughTops {
                needed: plan.tops_needed(),
                available: self.ft.m(),
            });
        }
        self.check_plan_ports(plan)?;
        let n = self.ft.n();
        let mut out = RouteAssignment::default();
        for &(pair, route) in plan.logical() {
            let (v, i) = (pair.src as usize / n, pair.src as usize % n);
            let (w, j) = (pair.dst as usize / n, pair.dst as usize % n);
            let path = match plan.top_index(route) {
                None => {
                    if pair.src == pair.dst {
                        Path::empty()
                    } else {
                        Path::new(vec![
                            self.ft.leaf_up_channel(v, i),
                            self.ft.leaf_down_channel(w, j),
                        ])
                    }
                }
                Some(t) => Path::new(vec![
                    self.ft.leaf_up_channel(v, i),
                    self.ft.up_channel(v, t),
                    self.ft.down_channel(t, w),
                    self.ft.leaf_down_channel(w, j),
                ]),
            };
            out.push(pair, path);
        }
        Ok(out)
    }
}

impl<'a> NonblockingAdaptive<'a> {
    /// Run Fig. 4 with failed hardware masked out of the LSET/partition
    /// search: a `(config, partition, key)` slot is only eligible for a pair
    /// when its physical top switch exists (`t < m`) and both the up channel
    /// from the source switch and the down channel to the destination switch
    /// are alive. Spare top switches (`m > tops_needed`) thus become live
    /// fallback capacity: the algorithm simply opens more configurations.
    ///
    /// # Errors
    /// * [`RoutingError::PortOutOfRange`] for bad pairs,
    /// * [`RoutingError::NoLivePath`] when a pair's own leaf cable is dead,
    ///   or no live top switch can serve it at all,
    /// * [`RoutingError::NotEnoughTops`] when pairs remain unrouted after
    ///   every configuration that fits in `m` has been tried.
    pub(crate) fn plan_masked(
        &self,
        perm: &Permutation,
        view: &FaultyView<'_>,
        strategy: PlanStrategy,
    ) -> Result<AdaptivePlan, RoutingError> {
        let ports = self.ft.num_leaves() as u32;
        for pair in perm.pairs() {
            for port in [pair.src, pair.dst] {
                if port >= ports {
                    return Err(RoutingError::PortOutOfRange { port, ports });
                }
            }
        }
        let n = self.coder.n();
        let c = self.coder.c();
        let parts = self.coder.partitions();
        let m = self.ft.m();
        let config_width = (c + 1) * n;
        let mut logical: Vec<(SdPair, LogicalRoute)> = Vec::with_capacity(perm.len());
        let mut configs_per_switch = vec![0usize; self.ft.r()];

        let groups = perm.group_by_source(|s| s as usize / n);
        for (switch, group) in groups {
            let mut pending: Vec<SdPair> = Vec::with_capacity(group.len());
            for pair in group {
                // The leaf's own cables have no alternative: dead means the
                // pair is unreachable under any routing algorithm.
                if pair.src != pair.dst {
                    let (v, i) = (pair.src as usize / n, pair.src as usize % n);
                    let (w, j) = (pair.dst as usize / n, pair.dst as usize % n);
                    if !view.channel_alive(self.ft.leaf_up_channel(v, i))
                        || !view.channel_alive(self.ft.leaf_down_channel(w, j))
                    {
                        return Err(RoutingError::NoLivePath {
                            src: pair.src,
                            dst: pair.dst,
                        });
                    }
                }
                if pair.dst as usize / n == switch {
                    logical.push((pair, LogicalRoute::Local));
                } else {
                    pending.push(pair);
                }
            }
            let mut config = 0u16;
            while !pending.is_empty() {
                if config as usize * config_width >= m {
                    // Every further configuration lies wholly beyond the
                    // fabric. Distinguish "this pair cannot be served by any
                    // top switch" from "the fabric ran out of spare tops".
                    for &pair in &pending {
                        if !self.has_live_top(pair, view) {
                            return Err(RoutingError::NoLivePath {
                                src: pair.src,
                                dst: pair.dst,
                            });
                        }
                    }
                    return Err(RoutingError::NotEnoughTops {
                        needed: (config as usize + 1) * config_width,
                        available: m,
                    });
                }
                let mut used = vec![false; parts];
                loop {
                    if pending.is_empty() {
                        break;
                    }
                    let mut best: Option<(usize, Vec<usize>)> = None;
                    #[allow(clippy::needless_range_loop)]
                    for pt in 0..parts {
                        if used[pt] {
                            continue;
                        }
                        let mut seen = vec![false; n];
                        let mut subset = Vec::new();
                        for (idx, pair) in pending.iter().enumerate() {
                            let key = self.coder.partition_key(pair.dst, pt);
                            if seen[key] {
                                continue;
                            }
                            let t = config as usize * config_width + pt * n + key;
                            if !self.slot_alive(*pair, t, view) {
                                continue;
                            }
                            seen[key] = true;
                            subset.push(idx);
                        }
                        if !subset.is_empty()
                            && best.as_ref().is_none_or(|(_, b)| subset.len() > b.len())
                        {
                            best = Some((pt, subset));
                            if strategy == PlanStrategy::FirstFit {
                                break;
                            }
                        }
                    }
                    let Some((pt, subset)) = best else {
                        break; // no unused partition can take any pair
                    };
                    used[pt] = true;
                    for &idx in subset.iter().rev() {
                        let pair = pending.swap_remove(idx);
                        let key = self.coder.partition_key(pair.dst, pt) as u16;
                        logical.push((
                            pair,
                            LogicalRoute::Top {
                                config,
                                partition: pt as u16,
                                key,
                            },
                        ));
                    }
                    if used.iter().all(|&u| u) {
                        break;
                    }
                }
                config += 1;
            }
            configs_per_switch[switch] = configs_per_switch[switch].max(config as usize);
        }
        Ok(AdaptivePlan {
            n,
            c,
            configs_per_switch,
            logical,
        })
    }

    /// Whether physical top `t` can carry `pair` under the fault overlay.
    fn slot_alive(&self, pair: SdPair, t: usize, view: &FaultyView<'_>) -> bool {
        if t >= self.ft.m() {
            return false;
        }
        let n = self.ft.n();
        let v = pair.src as usize / n;
        let w = pair.dst as usize / n;
        view.channel_alive(self.ft.up_channel(v, t))
            && view.channel_alive(self.ft.down_channel(t, w))
    }

    /// Whether *some* top switch in the fabric can still carry `pair`.
    fn has_live_top(&self, pair: SdPair, view: &FaultyView<'_>) -> bool {
        (0..self.ft.m()).any(|t| self.slot_alive(pair, t, view))
    }

    /// Reject plans whose pairs reference ports this fabric does not have —
    /// the materializers index `leaf_up_channel(src / n, src % n)` directly,
    /// so a plan built for a bigger fabric must fail typed, not panic.
    fn check_plan_ports(&self, plan: &AdaptivePlan) -> Result<(), RoutingError> {
        let ports = self.ft.num_leaves() as u32;
        for &(pair, _) in plan.logical() {
            for port in [pair.src, pair.dst] {
                if port >= ports {
                    return Err(RoutingError::PortOutOfRange { port, ports });
                }
            }
        }
        Ok(())
    }

    /// Materialize a plan onto the fabric, verifying every used channel
    /// against the fault overlay (each used top is checked individually —
    /// [`AdaptivePlan::tops_needed`] over-counts for masked plans, which may
    /// skip dead slots inside a configuration).
    ///
    /// # Errors
    /// * [`RoutingError::NotEnoughTops`] when a route references a top
    ///   switch beyond `m`,
    /// * [`RoutingError::PortOutOfRange`] when the plan carries a pair this
    ///   fabric has no leaves for,
    /// * [`RoutingError::PathFaulted`] when a route crosses a dead channel
    ///   (never for plans produced by [`Self::plan_masked`] on this view).
    pub(crate) fn materialize_masked(
        &self,
        plan: &AdaptivePlan,
        view: &FaultyView<'_>,
    ) -> Result<RouteAssignment, RoutingError> {
        self.check_plan_ports(plan)?;
        let n = self.ft.n();
        let mut out = RouteAssignment::default();
        for &(pair, route) in plan.logical() {
            let (v, i) = (pair.src as usize / n, pair.src as usize % n);
            let (w, j) = (pair.dst as usize / n, pair.dst as usize % n);
            let path = match plan.top_index(route) {
                None => {
                    if pair.src == pair.dst {
                        Path::empty()
                    } else {
                        Path::new(vec![
                            self.ft.leaf_up_channel(v, i),
                            self.ft.leaf_down_channel(w, j),
                        ])
                    }
                }
                Some(t) => {
                    if t >= self.ft.m() {
                        return Err(RoutingError::NotEnoughTops {
                            needed: t + 1,
                            available: self.ft.m(),
                        });
                    }
                    Path::new(vec![
                        self.ft.leaf_up_channel(v, i),
                        self.ft.up_channel(v, t),
                        self.ft.down_channel(t, w),
                        self.ft.leaf_down_channel(w, j),
                    ])
                }
            };
            if let Err(ftclos_topo::FaultError::DeadChannel { channel }) =
                view.path_alive(path.channels())
            {
                return Err(RoutingError::PathFaulted {
                    src: pair.src,
                    dst: pair.dst,
                    channel,
                });
            }
            out.push(pair, path);
        }
        Ok(out)
    }

    /// Plan and materialize under a fault overlay in one step (the paper's
    /// greedy strategy).
    pub fn route_pattern_masked(
        &self,
        perm: &Permutation,
        view: &FaultyView<'_>,
    ) -> Result<RouteAssignment, RoutingError> {
        let plan = self.plan_masked(perm, view, PlanStrategy::GreedyLargestSubset)?;
        self.materialize_masked(&plan, view)
    }
}

impl PatternRouter for NonblockingAdaptive<'_> {
    fn ports(&self) -> u32 {
        self.ft.num_leaves() as u32
    }

    fn route_pattern(&self, perm: &Permutation) -> Result<RouteAssignment, RoutingError> {
        let plan = self.plan(perm)?;
        self.materialize(&plan)
    }

    fn name(&self) -> &'static str {
        "nonblocking-adaptive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclos_traffic::patterns;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand_chacha::ChaCha8Rng {
        rand_chacha::ChaCha8Rng::seed_from_u64(seed)
    }

    /// A fabric with ample top switches so materialization always succeeds.
    fn big_m_ftree(n: usize, r: usize) -> Ftree {
        Ftree::new(n, n * n * 4, r).unwrap()
    }

    #[test]
    fn plan_routes_every_pair_once() {
        let ft = big_m_ftree(3, 9);
        let router = NonblockingAdaptive::new(&ft).unwrap();
        let perm = patterns::random_full(27, &mut rng(3));
        let plan = router.plan(&perm).unwrap();
        assert_eq!(plan.logical().len(), 27);
        let mut srcs: Vec<u32> = plan.logical().iter().map(|(p, _)| p.src).collect();
        srcs.sort_unstable();
        srcs.dedup();
        assert_eq!(srcs.len(), 27);
    }

    #[test]
    fn theorem4_random_permutations_contention_free() {
        for (n, r) in [(2, 4), (3, 9), (4, 8), (2, 7)] {
            let ft = big_m_ftree(n, r);
            let router = NonblockingAdaptive::new(&ft).unwrap();
            let ports = (n * r) as u32;
            let mut g = rng(n as u64 * 100 + r as u64);
            for _ in 0..30 {
                let perm = patterns::random_full(ports, &mut g);
                let a = router.route_pattern(&perm).unwrap();
                assert!(a.max_channel_load() <= 1, "contention with n={n} r={r}");
                a.validate(ft.topology()).unwrap();
            }
        }
    }

    #[test]
    fn exhaustive_tiny_fabric() {
        // n = 2, r = 3 -> 6 leaves, 720 permutations: check all of them.
        let ft = big_m_ftree(2, 3);
        let router = NonblockingAdaptive::new(&ft).unwrap();
        for perm in ftclos_traffic::enumerate::AllPermutations::new(6) {
            let a = router.route_pattern(&perm).unwrap();
            assert!(a.max_channel_load() <= 1, "blocked {:?}", perm.pairs());
        }
    }

    #[test]
    fn tops_needed_below_n_squared_bound() {
        // Paper: at most ((c+1)/(c+2))·n² tops — always < n² — for full
        // permutations... the bound in the text is n/(c+2) configs; verify
        // the weaker guarantee tops_needed <= ((c+1)/(c+2)) n^2 rounded up.
        for (n, r) in [(4, 16), (6, 36), (8, 64)] {
            let ft = big_m_ftree(n, r);
            let router = NonblockingAdaptive::new(&ft).unwrap();
            let c = router.coder().c();
            let mut g = rng(99);
            let mut worst = 0usize;
            for _ in 0..20 {
                let perm = patterns::random_full((n * r) as u32, &mut g);
                let plan = router.plan(&perm).unwrap();
                worst = worst.max(plan.tops_needed());
            }
            let bound = ((c + 1) * n * n).div_ceil(c + 2) + (c + 1) * n;
            assert!(worst <= bound, "n={n} r={r}: worst {worst} > bound {bound}");
            assert!(worst < n * n + (c + 1) * n, "improves on deterministic");
        }
    }

    #[test]
    fn not_enough_tops_is_reported() {
        let ft = Ftree::new(3, 2, 9).unwrap(); // m = 2, far too small
        let router = NonblockingAdaptive::new(&ft).unwrap();
        let perm = patterns::random_full(27, &mut rng(5));
        let err = router.route_pattern(&perm).unwrap_err();
        assert!(matches!(err, RoutingError::NotEnoughTops { .. }));
    }

    #[test]
    fn local_pairs_avoid_tops() {
        let ft = big_m_ftree(2, 4);
        let router = NonblockingAdaptive::new(&ft).unwrap();
        let perm =
            Permutation::from_pairs(8, [SdPair::new(0, 1), SdPair::new(2, 2), SdPair::new(4, 7)])
                .unwrap();
        let plan = router.plan(&perm).unwrap();
        let by_pair: std::collections::HashMap<SdPair, LogicalRoute> =
            plan.logical().iter().copied().collect();
        assert_eq!(by_pair[&SdPair::new(0, 1)], LogicalRoute::Local);
        assert_eq!(by_pair[&SdPair::new(2, 2)], LogicalRoute::Local);
        assert!(matches!(
            by_pair[&SdPair::new(4, 7)],
            LogicalRoute::Top { .. }
        ));
    }

    #[test]
    fn partial_permutations_work() {
        let ft = big_m_ftree(3, 9);
        let router = NonblockingAdaptive::new(&ft).unwrap();
        let mut g = rng(17);
        for _ in 0..20 {
            let perm = patterns::random_partial(27, 0.5, &mut g);
            let a = router.route_pattern(&perm).unwrap();
            assert!(a.max_channel_load() <= 1);
        }
    }

    #[test]
    fn single_pair_uses_one_config() {
        let ft = big_m_ftree(2, 4);
        let router = NonblockingAdaptive::new(&ft).unwrap();
        let perm = Permutation::from_pairs(8, [SdPair::new(0, 6)]).unwrap();
        let plan = router.plan(&perm).unwrap();
        assert_eq!(plan.total_configs(), 1);
        assert_eq!(plan.tops_needed(), (plan.c() + 1) * 2);
    }

    #[test]
    fn first_fit_is_still_nonblocking_but_never_cheaper() {
        let ft = big_m_ftree(4, 16);
        let router = NonblockingAdaptive::new(&ft).unwrap();
        let mut g = rng(41);
        for _ in 0..20 {
            let perm = patterns::random_full(64, &mut g);
            let greedy = router
                .plan_with(&perm, PlanStrategy::GreedyLargestSubset)
                .unwrap();
            let first_fit = router.plan_with(&perm, PlanStrategy::FirstFit).unwrap();
            assert!(greedy.tops_needed() <= first_fit.tops_needed());
            // Correctness is strategy-independent (Lemma 5 constrains only
            // which pairs share a partition, and both strategies respect it).
            let a = router.materialize(&first_fit).unwrap();
            assert!(a.max_channel_load() <= 1);
        }
    }

    #[test]
    fn out_of_range_rejected() {
        let ft = big_m_ftree(2, 4);
        let router = NonblockingAdaptive::new(&ft).unwrap();
        let perm = Permutation::from_pairs(100, [SdPair::new(0, 99)]).unwrap();
        assert!(matches!(
            router.plan(&perm),
            Err(RoutingError::PortOutOfRange { .. })
        ));
    }

    #[test]
    fn masked_plan_matches_unmasked_on_pristine_view() {
        let ft = big_m_ftree(3, 9);
        let router = NonblockingAdaptive::new(&ft).unwrap();
        let view = ftclos_topo::FaultyView::pristine(ft.topology());
        let mut g = rng(7);
        for _ in 0..10 {
            let perm = patterns::random_full(27, &mut g);
            let a = router.route_pattern(&perm).unwrap();
            let b = router.route_pattern_masked(&perm, &view).unwrap();
            assert_eq!(a.max_channel_load(), b.max_channel_load());
            assert_eq!(b.len(), perm.len());
        }
    }

    #[test]
    fn masked_plan_routes_around_dead_top_with_spares() {
        // ftree(3 + 12, 9): the Fig. 4 configuration width is (c+1)·n = 9,
        // so m = 12 leaves a whole spare partition (tops 9..12) in a second
        // configuration. Any single dead top must be fully absorbed.
        let ft = Ftree::new(3, 12, 9).unwrap();
        let router = NonblockingAdaptive::new(&ft).unwrap();
        let mut g = rng(23);
        for dead_top in 0..9usize {
            let mut faults = ftclos_topo::FaultSet::new();
            faults.fail_switch(ft.top(dead_top));
            let view = ftclos_topo::FaultyView::new(ft.topology(), &faults);
            for _ in 0..10 {
                let perm = patterns::random_full(27, &mut g);
                let a = router.route_pattern_masked(&perm, &view).unwrap();
                assert!(
                    a.max_channel_load() <= 1,
                    "contention with dead top {dead_top}"
                );
                a.validate(ft.topology()).unwrap();
            }
        }
    }

    #[test]
    fn masked_plan_dead_leaf_cable_is_no_live_path() {
        let ft = Ftree::new(3, 12, 9).unwrap();
        let router = NonblockingAdaptive::new(&ft).unwrap();
        let mut faults = ftclos_topo::FaultSet::new();
        faults.fail_channel(ft.leaf_up_channel(0, 0)); // leaf 0's uplink
        let view = ftclos_topo::FaultyView::new(ft.topology(), &faults);
        let perm = patterns::shift(27, 3);
        let err = router
            .plan_masked(&perm, &view, PlanStrategy::GreedyLargestSubset)
            .unwrap_err();
        assert!(matches!(err, RoutingError::NoLivePath { src: 0, .. }));
    }

    #[test]
    fn masked_plan_distinguishes_no_live_path_from_not_enough_tops() {
        let ft = Ftree::new(3, 12, 9).unwrap();
        let router = NonblockingAdaptive::new(&ft).unwrap();
        let coder = router.coder();
        let pair = SdPair::new(0, 26); // switch 0 -> switch 8
        let perm = Permutation::from_pairs(27, [pair]).unwrap();

        // Kill exactly the slots the key discipline would assign to this
        // pair: config 0 partitions 0..=c, plus the config-1 partition-0
        // spare. Other tops stay alive, so the hardware is not exhausted —
        // the *algorithm* is: NotEnoughTops.
        let c = coder.c();
        let n = ft.n();
        let mut faults = ftclos_topo::FaultSet::new();
        for pt in 0..=c {
            let key = coder.partition_key(pair.dst, pt);
            faults.fail_switch(ft.top(pt * n + key));
        }
        let spare_key = coder.partition_key(pair.dst, 0);
        faults.fail_switch(ft.top((c + 1) * n + spare_key));
        let view = ftclos_topo::FaultyView::new(ft.topology(), &faults);
        let err = router
            .plan_masked(&perm, &view, PlanStrategy::GreedyLargestSubset)
            .unwrap_err();
        assert!(matches!(err, RoutingError::NotEnoughTops { .. }), "{err}");

        // Now kill *every* top switch: no hardware can serve the pair.
        let mut all = ftclos_topo::FaultSet::new();
        for t in 0..ft.m() {
            all.fail_switch(ft.top(t));
        }
        let view = ftclos_topo::FaultyView::new(ft.topology(), &all);
        let err = router
            .plan_masked(&perm, &view, PlanStrategy::GreedyLargestSubset)
            .unwrap_err();
        assert!(matches!(err, RoutingError::NoLivePath { src: 0, dst: 26 }));
    }

    #[test]
    fn materialize_masked_rejects_unmasked_plan_through_dead_top() {
        // A plan computed blind to faults materializes onto dead hardware;
        // the masked materializer names the offending pair and channel.
        let ft = Ftree::new(3, 12, 9).unwrap();
        let router = NonblockingAdaptive::new(&ft).unwrap();
        let perm = patterns::random_full(27, &mut rng(31));
        let plan = router.plan(&perm).unwrap();
        let used_top = plan
            .logical()
            .iter()
            .find_map(|&(_, route)| plan.top_index(route))
            .expect("a full permutation uses some top switch");
        let mut faults = ftclos_topo::FaultSet::new();
        faults.fail_switch(ft.top(used_top));
        let view = ftclos_topo::FaultyView::new(ft.topology(), &faults);
        let err = router.materialize_masked(&plan, &view).unwrap_err();
        assert!(matches!(err, RoutingError::PathFaulted { .. }));
    }
}
