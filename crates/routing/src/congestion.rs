//! Min-congestion unsplittable-flow routing (the load-aware *global*
//! router family).
//!
//! The paper's Lemma 1 is a statement about unsplittable flows: a pattern
//! blocks exactly when two flows are forced onto one channel. This module
//! attacks the optimization form of that statement — *given* a pattern and
//! a candidate path set per SD pair, pick one path per pair minimizing the
//! maximum link load — with the standard playbook for minimum-congestion
//! unsplittable-flow routing in data-center networks:
//!
//! * **greedy min-max placement** ([`CongestionMode::Greedy`]): flows are
//!   placed in pattern order, each on the candidate whose bottleneck
//!   channel ends up least loaded;
//! * **seeded randomized rounding** ([`CongestionMode::Rounded`]): the
//!   fractional multipath split (the uniform `1/k` spread of
//!   [`ObliviousMultipath`]) is rounded to one path per flow by seeded
//!   sampling, best of a configurable number of trials;
//! * **local-search repair** ([`CongestionMode::Repaired`]): starting from
//!   the best of the above (plus any warm starts), flows on the
//!   most-loaded channel are re-homed one at a time; a move is accepted
//!   only if it lexicographically reduces `(max load, channels at max)`,
//!   so the max link load never increases across accepted moves, and the
//!   search stops when no single-flow move improves.
//!
//! Unlike every per-pair scheme in this crate, the choice for one pair
//! depends on the whole pattern, so the family sits behind a *plan step*:
//! [`MinCongestion::plan_seeded_with`] produces a [`CongestionPlan`], which
//! lowers to the existing shapes for everything downstream —
//! [`CongestionPlan::assignment`] for the contention analyzers and
//! [`CongestionPlan::load_view`] for the fluid flow simulator.
//! [`MinCongestion`] also implements [`PatternRouter`] directly
//! (plan-then-materialize), so the blanket [`crate::LinkLoadView`] impl
//! applies unchanged.
//!
//! Everything is deterministic: placements depend only on the pattern
//! order, candidate order, channel ids, and the configured seed — never on
//! thread count or hash iteration order.

use crate::assignment::RouteAssignment;
use crate::error::RoutingError;
use crate::loadview::{FlowLinks, LinkLoadView};
use crate::multipath::ObliviousMultipath;
use crate::path::Path;
use crate::router::PatternRouter;
use ftclos_obs::{Noop, Recorder};
use ftclos_topo::{ChannelId, FaultyView, Ftree};
use ftclos_traffic::{Permutation, SdPair};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// A candidate path set per SD pair — the search space the min-congestion
/// solver optimizes over.
///
/// Contract: `candidates` returns at least one path for every in-range
/// pair, in a deterministic order (self-pairs return the single empty
/// path); an unroutable pair is an error, never an empty set.
pub trait PathCandidates {
    /// Leaf universe size of the fabric.
    fn ports(&self) -> u32;

    /// All admissible paths for `pair`, deterministic order.
    ///
    /// # Errors
    /// [`RoutingError::NoLivePath`] when the pair cannot be connected at
    /// all; [`RoutingError::PortOutOfRange`] for bad pairs.
    fn candidates(&self, pair: SdPair) -> Result<Vec<Path>, RoutingError>;
}

/// The `ftree(n+m, r)` candidate set: one path per top switch (the
/// [`ObliviousMultipath`] spread set), optionally masked by a fault
/// overlay so dead candidates never enter the search.
#[derive(Clone, Copy, Debug)]
pub struct FtreeCandidates<'a> {
    mp: ObliviousMultipath<'a>,
    view: Option<&'a FaultyView<'a>>,
}

impl<'a> FtreeCandidates<'a> {
    /// Candidates over the pristine fabric.
    pub fn pristine(ft: &'a Ftree) -> Self {
        Self {
            mp: ObliviousMultipath::new(ft),
            view: None,
        }
    }

    /// Candidates over the surviving hardware only.
    pub fn masked(ft: &'a Ftree, view: &'a FaultyView<'a>) -> Self {
        Self {
            mp: ObliviousMultipath::new(ft),
            view: Some(view),
        }
    }
}

impl PathCandidates for FtreeCandidates<'_> {
    fn ports(&self) -> u32 {
        self.mp.ports()
    }

    fn candidates(&self, pair: SdPair) -> Result<Vec<Path>, RoutingError> {
        for port in [pair.src, pair.dst] {
            if port >= self.ports() {
                return Err(RoutingError::PortOutOfRange {
                    port,
                    ports: self.ports(),
                });
            }
        }
        match self.view {
            None => Ok(self.mp.paths(pair)),
            Some(view) => self.mp.paths_masked(pair, view),
        }
    }
}

/// Adapt any closure `SdPair -> candidate paths` into a provider — the
/// bridge for fabrics without a dedicated provider (k-ary n-trees via
/// [`crate::XgftRouter::all_paths`], the recursive construction, test
/// doubles).
pub struct FnCandidates<F> {
    ports: u32,
    f: F,
}

impl<F> FnCandidates<F>
where
    F: Fn(SdPair) -> Result<Vec<Path>, RoutingError>,
{
    /// Wrap a closure over a `ports`-leaf universe.
    pub fn new(ports: u32, f: F) -> Self {
        Self { ports, f }
    }
}

impl<F> PathCandidates for FnCandidates<F>
where
    F: Fn(SdPair) -> Result<Vec<Path>, RoutingError>,
{
    fn ports(&self) -> u32 {
        self.ports
    }

    fn candidates(&self, pair: SdPair) -> Result<Vec<Path>, RoutingError> {
        for port in [pair.src, pair.dst] {
            if port >= self.ports {
                return Err(RoutingError::PortOutOfRange {
                    port,
                    ports: self.ports,
                });
            }
        }
        (self.f)(pair)
    }
}

/// Which member of the router family solves the placement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CongestionMode {
    /// Greedy min-max placement only.
    Greedy,
    /// Best of the seeded randomized-rounding trials only.
    Rounded,
    /// Best of greedy + rounding trials (+ warm starts), then local-search
    /// repair to a single-flow-move local optimum.
    Repaired,
}

impl CongestionMode {
    /// Scheme name for reports.
    pub fn name(self) -> &'static str {
        match self {
            CongestionMode::Greedy => "congestion-greedy",
            CongestionMode::Rounded => "congestion-rounded",
            CongestionMode::Repaired => "congestion-repaired",
        }
    }
}

/// Solver knobs. Every field participates in determinism: two solves with
/// equal configs over equal inputs produce identical plans.
#[derive(Clone, Copy, Debug)]
pub struct CongestionConfig {
    /// Family member to run.
    pub mode: CongestionMode,
    /// RNG seed for the rounding trials.
    pub seed: u64,
    /// Independent rounding trials (best one wins); at least 1 is used
    /// whenever rounding participates.
    pub rounding_trials: u32,
    /// Hard cap on accepted repair moves (a termination backstop — the
    /// lexicographic acceptance rule already forces termination).
    pub max_moves: u64,
}

impl Default for CongestionConfig {
    fn default() -> Self {
        Self {
            mode: CongestionMode::Repaired,
            seed: 0,
            rounding_trials: 4,
            max_moves: 100_000,
        }
    }
}

/// The min-congestion router family over any [`PathCandidates`] provider.
#[derive(Clone, Debug)]
pub struct MinCongestion<C> {
    provider: C,
    config: CongestionConfig,
}

impl<C: PathCandidates> MinCongestion<C> {
    /// Router with explicit config.
    pub fn with_config(provider: C, config: CongestionConfig) -> Self {
        Self { provider, config }
    }

    /// Plan `perm` with *warm starts* (pass `&[]` for none): each seed
    /// assignment that routes exactly the pattern's pairs along candidate
    /// paths is projected into the search space and competes with greedy
    /// and the rounding trials
    /// (seeds that don't project — a pair missing, or a path outside the
    /// candidate set — are skipped). Because repair never worsens the
    /// lexicographic `(max load, channels at max)` objective, a repaired
    /// plan is guaranteed no worse than every projectable seed.
    ///
    /// Placement (greedy + rounding + start selection) records under span
    /// `congestion.place`, the local search under `congestion.repair`, with
    /// counters `congestion.moves` / `congestion.rounds` and gauge
    /// `congestion.max_load`.
    ///
    /// # Errors
    /// Provider errors for any pair of the pattern.
    pub fn plan_seeded_with<Rec: Recorder>(
        &self,
        perm: &Permutation,
        seeds: &[&RouteAssignment],
        rec: &Rec,
    ) -> Result<CongestionPlan, RoutingError> {
        let mut pairs = Vec::with_capacity(perm.len());
        let mut cands: Vec<Vec<Path>> = Vec::with_capacity(perm.len());
        for &pair in perm.pairs() {
            let c = self.provider.candidates(pair)?;
            if c.is_empty() {
                return Err(RoutingError::NoLivePath {
                    src: pair.src,
                    dst: pair.dst,
                });
            }
            pairs.push(pair);
            cands.push(c);
        }
        let num_channels = cands
            .iter()
            .flat_map(|c| c.iter())
            .flat_map(|p| p.channels())
            .map(|c| c.index() + 1)
            .max()
            .unwrap_or(0);

        // Placement: collect the competing starts and keep the best.
        let place = rec.span("congestion.place");
        let mut starts: Vec<Vec<usize>> = Vec::new();
        match self.config.mode {
            CongestionMode::Greedy => starts.push(greedy_placement(&cands, num_channels)),
            CongestionMode::Rounded => {
                rounding_trials(&cands, &self.config, &mut starts);
            }
            CongestionMode::Repaired => {
                starts.push(greedy_placement(&cands, num_channels));
                rounding_trials(&cands, &self.config, &mut starts);
                for seed in seeds {
                    if let Some(projected) = project_assignment(seed, &pairs, &cands) {
                        starts.push(projected);
                    }
                }
            }
        }
        let mut best: Option<(Vec<usize>, (u32, u32))> = None;
        for choice in starts {
            let score = score_placement(&cands, &choice, num_channels);
            if best.as_ref().is_none_or(|(_, s)| score < *s) {
                best = Some((choice, score));
            }
        }
        let (choice, _) = best.expect("at least one start");
        let mut state = PlacementState::new(&cands, choice, num_channels);
        drop(place);

        // Local-search repair (repaired mode only).
        let mut moves = 0u64;
        let mut rounds = 0u64;
        let mut repair_trace = vec![state.tracker.max];
        if self.config.mode == CongestionMode::Repaired {
            let _span = rec.span("congestion.repair");
            (moves, rounds) = repair(&cands, &mut state, self.config.max_moves, &mut repair_trace);
        }
        rec.add("congestion.moves", moves);
        rec.add("congestion.rounds", rounds);
        rec.gauge("congestion.max_load", state.tracker.max as u64);

        let witness = state.witness();
        Ok(CongestionPlan {
            name: self.config.mode.name(),
            ports: self.provider.ports(),
            pairs,
            max_load: state.tracker.max,
            witness,
            choice: state.choice,
            candidates: cands,
            moves,
            rounds,
            repair_trace,
        })
    }
}

/// Plan-then-materialize: the global router fits the existing pattern
/// interface (and hence, via the blanket impls, [`LinkLoadView`]).
impl<C: PathCandidates> PatternRouter for MinCongestion<C> {
    fn ports(&self) -> u32 {
        self.provider.ports()
    }

    fn route_pattern(&self, perm: &Permutation) -> Result<RouteAssignment, RoutingError> {
        Ok(self.plan_seeded_with(perm, &[], &Noop)?.assignment())
    }

    fn name(&self) -> &'static str {
        self.config.mode.name()
    }
}

/// A solved placement: one chosen candidate per pair of the planned
/// pattern, plus the solve's summary statistics.
#[derive(Clone, Debug)]
pub struct CongestionPlan {
    name: &'static str,
    ports: u32,
    pairs: Vec<SdPair>,
    candidates: Vec<Vec<Path>>,
    choice: Vec<usize>,
    max_load: u32,
    witness: Option<ChannelId>,
    moves: u64,
    rounds: u64,
    repair_trace: Vec<u32>,
}

impl CongestionPlan {
    /// The chosen path of planned pair `i`.
    pub(crate) fn chosen(&self, i: usize) -> &Path {
        &self.candidates[i][self.choice[i]]
    }

    /// Maximum link load of the placement (flows per channel).
    pub fn max_link_load(&self) -> u32 {
        self.max_load
    }

    /// The deterministic witness: the lowest-id channel carrying the
    /// maximum load (`None` when nothing is loaded).
    pub fn witness_channel(&self) -> Option<ChannelId> {
        self.witness
    }

    /// Accepted repair moves.
    pub fn moves(&self) -> u64 {
        self.moves
    }

    /// Repair rounds (move searches, including the final failed one).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Max link load after the start placement and after each accepted
    /// repair move — non-increasing by the acceptance rule.
    pub fn repair_trace(&self) -> &[u32] {
        &self.repair_trace
    }

    /// Lower to a [`RouteAssignment`] (the shape every contention analyzer
    /// consumes).
    pub fn assignment(&self) -> RouteAssignment {
        RouteAssignment::new(
            self.pairs
                .iter()
                .enumerate()
                .map(|(i, &pair)| (pair, self.chosen(i).clone()))
                .collect(),
        )
    }

    /// Lower to a [`LinkLoadView`] serving the chosen paths (unit weight),
    /// for the fluid flow simulator — no re-planning.
    pub fn load_view(&self) -> PlanLoadView<'_> {
        PlanLoadView { plan: self }
    }
}

/// [`LinkLoadView`] over a frozen plan: serves the chosen paths for
/// exactly the planned pattern.
#[derive(Clone, Copy, Debug)]
pub struct PlanLoadView<'a> {
    plan: &'a CongestionPlan,
}

impl LinkLoadView for PlanLoadView<'_> {
    fn ports(&self) -> u32 {
        self.plan.ports
    }

    fn flow_links(&self, perm: &Permutation) -> Result<Vec<FlowLinks>, RoutingError> {
        if perm.pairs() != self.plan.pairs {
            return Err(RoutingError::Precondition {
                router: self.plan.name,
                detail: "plan was computed for a different pattern".to_string(),
            });
        }
        Ok(self
            .plan
            .pairs
            .iter()
            .enumerate()
            .map(|(i, &pair)| FlowLinks::single_path(pair, self.plan.chosen(i).channels()))
            .collect())
    }

    fn name(&self) -> &'static str {
        self.plan.name
    }
}

/// The demand lower bound `⌈max per-channel forced-pair count / capacity⌉`
/// on the max link load *any* unsplittable placement over `provider`'s
/// candidates can achieve for `perm`: a channel crossed by **every**
/// candidate of a pair must carry that pair no matter the placement, and a
/// nonempty flow must load some channel. Every solver output — and every
/// baseline router confined to the same candidate sets — sits at or above
/// this bound.
///
/// # Errors
/// Provider errors for any pair of the pattern.
pub fn demand_lower_bound<C: PathCandidates + ?Sized>(
    provider: &C,
    perm: &Permutation,
    capacity: u32,
) -> Result<u32, RoutingError> {
    let capacity = capacity.max(1);
    let mut forced: HashMap<ChannelId, u32> = HashMap::new();
    let mut any_flow = false;
    for &pair in perm.pairs() {
        let cands = provider.candidates(pair)?;
        if cands.is_empty() {
            return Err(RoutingError::NoLivePath {
                src: pair.src,
                dst: pair.dst,
            });
        }
        if cands.iter().any(|p| p.is_empty()) {
            continue; // the pair can stay off the network entirely
        }
        any_flow = true;
        let mut inter: Vec<ChannelId> = cands[0].channels().to_vec();
        for p in &cands[1..] {
            inter.retain(|c| p.channels().contains(c));
        }
        for c in inter {
            *forced.entry(c).or_insert(0) += 1;
        }
    }
    let max_forced = forced.values().copied().max().unwrap_or(0);
    let bound = max_forced.div_ceil(capacity);
    Ok(if any_flow { bound.max(1) } else { bound })
}

// ---------------------------------------------------------------------------
// Solver internals.

/// Dense per-channel load vector with a load histogram, so the
/// lexicographic objective `(max, channels at max)` updates in O(1) per
/// channel increment/decrement.
#[derive(Clone, Debug)]
struct LoadTracker {
    load: Vec<u32>,
    count_at: Vec<u32>,
    max: u32,
}

impl LoadTracker {
    fn new(num_channels: usize) -> Self {
        Self {
            load: vec![0; num_channels],
            count_at: vec![num_channels as u32],
            max: 0,
        }
    }

    #[inline]
    fn incr(&mut self, c: ChannelId) {
        let i = c.index();
        let old = self.load[i] as usize;
        self.load[i] += 1;
        self.count_at[old] -= 1;
        if self.count_at.len() <= old + 1 {
            self.count_at.push(0);
        }
        self.count_at[old + 1] += 1;
        if old as u32 + 1 > self.max {
            self.max = old as u32 + 1;
        }
    }

    #[inline]
    fn decr(&mut self, c: ChannelId) {
        let i = c.index();
        let old = self.load[i] as usize;
        debug_assert!(old > 0);
        self.load[i] -= 1;
        self.count_at[old] -= 1;
        self.count_at[old - 1] += 1;
        while self.max > 0 && self.count_at[self.max as usize] == 0 {
            self.max -= 1;
        }
    }

    #[inline]
    fn count_at_max(&self) -> u32 {
        if self.max == 0 {
            0
        } else {
            self.count_at[self.max as usize]
        }
    }

    #[inline]
    fn score(&self) -> (u32, u32) {
        (self.max, self.count_at_max())
    }
}

/// A placement under edit: chosen candidate per pair + the load tracker.
struct PlacementState {
    choice: Vec<usize>,
    tracker: LoadTracker,
}

impl PlacementState {
    fn new(cands: &[Vec<Path>], choice: Vec<usize>, num_channels: usize) -> Self {
        let mut tracker = LoadTracker::new(num_channels);
        for (c, &pick) in cands.iter().zip(&choice) {
            for &ch in c[pick].channels() {
                tracker.incr(ch);
            }
        }
        Self { choice, tracker }
    }

    /// Move pair `i` from its current candidate to candidate `to`.
    fn apply(&mut self, cands: &[Vec<Path>], i: usize, to: usize) {
        for &ch in cands[i][self.choice[i]].channels() {
            self.tracker.decr(ch);
        }
        for &ch in cands[i][to].channels() {
            self.tracker.incr(ch);
        }
        self.choice[i] = to;
    }

    /// Lowest-id channel at max load.
    fn witness(&self) -> Option<ChannelId> {
        if self.tracker.max == 0 {
            return None;
        }
        self.tracker
            .load
            .iter()
            .position(|&l| l == self.tracker.max)
            .map(|i| ChannelId(i as u32))
    }
}

/// Greedy min-max: place flows in pattern order, each on the candidate
/// minimizing `(bottleneck after placement, sum of current loads,
/// candidate index)`.
fn greedy_placement(cands: &[Vec<Path>], num_channels: usize) -> Vec<usize> {
    let mut load = vec![0u32; num_channels];
    let mut choice = Vec::with_capacity(cands.len());
    for c in cands {
        let mut best = 0usize;
        let mut best_key = (u32::MAX, u64::MAX);
        for (idx, path) in c.iter().enumerate() {
            let mut bottleneck = 0u32;
            let mut sum = 0u64;
            for &ch in path.channels() {
                let l = load[ch.index()];
                bottleneck = bottleneck.max(l + 1);
                sum += l as u64;
            }
            let key = (bottleneck, sum);
            if key < best_key {
                best_key = key;
                best = idx;
            }
        }
        for &ch in c[best].channels() {
            load[ch.index()] += 1;
        }
        choice.push(best);
    }
    choice
}

/// Seeded randomized rounding of the uniform fractional split: trial `t`
/// draws one candidate per pair from `ChaCha8(seed + t)`.
fn rounding_trials(cands: &[Vec<Path>], config: &CongestionConfig, out: &mut Vec<Vec<usize>>) {
    for t in 0..config.rounding_trials.max(1) {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(t as u64));
        out.push(
            cands
                .iter()
                .map(|c| {
                    if c.len() == 1 {
                        0
                    } else {
                        rng.gen_range(0..c.len())
                    }
                })
                .collect(),
        );
    }
}

/// Objective of a full placement.
fn score_placement(cands: &[Vec<Path>], choice: &[usize], num_channels: usize) -> (u32, u32) {
    let mut tracker = LoadTracker::new(num_channels);
    for (c, &pick) in cands.iter().zip(choice) {
        for &ch in c[pick].channels() {
            tracker.incr(ch);
        }
    }
    tracker.score()
}

/// Project a warm-start assignment into candidate indices; `None` when any
/// planned pair is missing from the seed or its path is not a candidate.
fn project_assignment(
    seed: &RouteAssignment,
    pairs: &[SdPair],
    cands: &[Vec<Path>],
) -> Option<Vec<usize>> {
    let by_pair: HashMap<SdPair, &Path> =
        seed.routes().iter().map(|(p, path)| (*p, path)).collect();
    pairs
        .iter()
        .zip(cands)
        .map(|(pair, c)| {
            let path = *by_pair.get(pair)?;
            c.iter().position(|cand| cand == path)
        })
        .collect()
}

/// Local search: repeatedly re-home one flow off a most-loaded channel.
/// A move is accepted iff it strictly reduces `(max, channels at max)`
/// lexicographically; the search stops when no flow on any max-load
/// channel has an improving move (or at `max_moves`). Deterministic:
/// channels scan ascending by id, flows in pattern order, candidates in
/// provider order, first improving move wins.
fn repair(
    cands: &[Vec<Path>],
    state: &mut PlacementState,
    max_moves: u64,
    trace: &mut Vec<u32>,
) -> (u64, u64) {
    let mut moves = 0u64;
    let mut rounds = 0u64;
    'search: while moves < max_moves && state.tracker.max > 1 {
        rounds += 1;
        let before = state.tracker.score();
        let hot_load = state.tracker.max;
        // Ascending scan over the channels currently at max load.
        for hot in 0..state.tracker.load.len() {
            if state.tracker.load[hot] != hot_load {
                continue;
            }
            let hot = ChannelId(hot as u32);
            for i in 0..cands.len() {
                if !cands[i][state.choice[i]].channels().contains(&hot) {
                    continue;
                }
                let from = state.choice[i];
                for to in 0..cands[i].len() {
                    if to == from {
                        continue;
                    }
                    state.apply(cands, i, to);
                    if state.tracker.score() < before {
                        moves += 1;
                        trace.push(state.tracker.max);
                        continue 'search;
                    }
                    state.apply(cands, i, from);
                }
            }
        }
        break; // no improving single-flow move exists
    }
    (moves, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dmodk::DModK;
    use crate::router::route_all;
    use crate::xgft_routing::XgftRouter;
    use crate::yuan::YuanDeterministic;
    use ftclos_topo::{kary_ntree, FaultSet, Ftree};
    use ftclos_traffic::patterns;

    fn plan_of(ft: &Ftree, perm: &Permutation, mode: CongestionMode) -> CongestionPlan {
        let router = MinCongestion::with_config(
            FtreeCandidates::pristine(ft),
            CongestionConfig {
                mode,
                ..CongestionConfig::default()
            },
        );
        router.plan_seeded_with(perm, &[], &Noop).unwrap()
    }

    #[test]
    fn all_modes_route_valid_paths() {
        let ft = Ftree::new(2, 3, 5).unwrap();
        let perm = patterns::shift(10, 3);
        for mode in [
            CongestionMode::Greedy,
            CongestionMode::Rounded,
            CongestionMode::Repaired,
        ] {
            let plan = plan_of(&ft, &perm, mode);
            let a = plan.assignment();
            a.validate(ft.topology()).unwrap();
            assert_eq!(a.max_channel_load(), plan.max_link_load(), "{mode:?}");
            assert_eq!(a.len(), perm.len());
        }
    }

    #[test]
    fn beats_modular_routing_on_residue_collisions() {
        // Four sources in leaf 0 target destinations ≡ 0 mod 4: d-mod-k
        // piles them on one uplink (load 4); with all m tops admissible the
        // solver spreads them to load 1.
        let ft = Ftree::new(4, 4, 5).unwrap();
        let perm = Permutation::from_pairs(
            20,
            [
                SdPair::new(0, 4),
                SdPair::new(1, 8),
                SdPair::new(2, 12),
                SdPair::new(3, 16),
            ],
        )
        .unwrap();
        let dmodk = route_all(&DModK::new(&ft), &perm).unwrap();
        assert_eq!(dmodk.max_channel_load(), 4);
        for mode in [
            CongestionMode::Greedy,
            CongestionMode::Rounded,
            CongestionMode::Repaired,
        ] {
            let plan = plan_of(&ft, &perm, mode);
            assert!(
                plan.max_link_load() < 4,
                "{mode:?} got {}",
                plan.max_link_load()
            );
        }
        assert_eq!(
            plan_of(&ft, &perm, CongestionMode::Repaired).max_link_load(),
            1
        );
    }

    #[test]
    fn warm_started_repair_never_loses_to_its_seeds() {
        let ft = Ftree::new(2, 2, 6).unwrap(); // m < n²: baselines collide
        let router =
            MinCongestion::with_config(FtreeCandidates::pristine(&ft), CongestionConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..8 {
            let perm = patterns::random_full(12, &mut rng);
            let dmodk = route_all(&DModK::new(&ft), &perm).unwrap();
            let smodk = route_all(&crate::dmodk::SModK::new(&ft), &perm).unwrap();
            let plan = router
                .plan_seeded_with(&perm, &[&dmodk, &smodk], &Noop)
                .unwrap();
            assert!(plan.max_link_load() <= dmodk.max_channel_load());
            assert!(plan.max_link_load() <= smodk.max_channel_load());
        }
    }

    #[test]
    fn repair_trace_is_monotone_nonincreasing() {
        let ft = Ftree::new(3, 4, 6).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..6 {
            let perm = patterns::random_full(18, &mut rng);
            let plan = plan_of(&ft, &perm, CongestionMode::Repaired);
            let trace = plan.repair_trace();
            assert_eq!(trace.len() as u64, plan.moves() + 1);
            assert!(
                trace.windows(2).all(|w| w[1] <= w[0]),
                "max load rose during repair: {trace:?}"
            );
            assert_eq!(*trace.last().unwrap(), plan.max_link_load());
        }
    }

    #[test]
    fn plans_are_seed_deterministic() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let perm = patterns::tornado(10);
        let mk = |seed| {
            MinCongestion::with_config(
                FtreeCandidates::pristine(&ft),
                CongestionConfig {
                    seed,
                    ..CongestionConfig::default()
                },
            )
            .plan_seeded_with(&perm, &[], &Noop)
            .unwrap()
        };
        let (a, b) = (mk(3), mk(3));
        assert_eq!(a.assignment(), b.assignment());
        assert_eq!(a.witness_channel(), b.witness_channel());
        assert_eq!(a.max_link_load(), b.max_link_load());
    }

    #[test]
    fn nonblocking_fabric_reaches_the_lower_bound() {
        // m = n²: a contention-free placement exists (Theorem 3); the
        // repaired solver must find load 1 on every structured pattern.
        let ft = Ftree::new(2, 4, 5).unwrap();
        let provider = FtreeCandidates::pristine(&ft);
        for k in 1..10 {
            let perm = patterns::shift(10, k);
            let plan = plan_of(&ft, &perm, CongestionMode::Repaired);
            assert_eq!(plan.max_link_load(), 1, "shift:{k}");
            assert_eq!(demand_lower_bound(&provider, &perm, 1).unwrap(), 1);
        }
    }

    #[test]
    fn masked_candidates_avoid_dead_hardware() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let mut faults = FaultSet::new();
        faults.fail_switch(ft.top(0));
        let view = FaultyView::new(ft.topology(), &faults);
        let router = MinCongestion::with_config(
            FtreeCandidates::masked(&ft, &view),
            CongestionConfig::default(),
        );
        let perm = patterns::shift(10, 2);
        let plan = router.plan_seeded_with(&perm, &[], &Noop).unwrap();
        for (_, path) in plan.assignment().routes() {
            view.path_alive(path.channels()).unwrap();
        }
        // Yuan pins shift:2's (0,0) pairs to the dead top — the global
        // solver still delivers a load-1 placement on the survivors.
        assert_eq!(plan.max_link_load(), 1);
    }

    #[test]
    fn load_view_serves_the_plan_and_rejects_other_patterns() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let perm = patterns::shift(10, 3);
        let plan = plan_of(&ft, &perm, CongestionMode::Repaired);
        let flows = plan.load_view().flow_links(&perm).unwrap();
        assert_eq!(flows.len(), perm.len());
        for (i, f) in flows.iter().enumerate() {
            assert_eq!(f.pair, perm.pairs()[i]);
            assert!(f.links.iter().all(|&(_, w)| w == 1.0));
        }
        assert!(matches!(
            plan.load_view().flow_links(&patterns::shift(10, 4)),
            Err(RoutingError::Precondition { .. })
        ));
        assert_eq!(plan.load_view().name(), "congestion-repaired");
    }

    #[test]
    fn pattern_router_blanket_matches_plan() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router =
            MinCongestion::with_config(FtreeCandidates::pristine(&ft), CongestionConfig::default());
        let perm = patterns::tornado(10);
        let via_pattern = router.route_pattern(&perm).unwrap();
        let via_plan = router
            .plan_seeded_with(&perm, &[], &Noop)
            .unwrap()
            .assignment();
        assert_eq!(via_pattern, via_plan);
        assert_eq!(PatternRouter::name(&router), "congestion-repaired");
        assert_eq!(PatternRouter::ports(&router), 10);
    }

    #[test]
    fn works_over_kary_ntree_candidates() {
        let t = kary_ntree(2, 3).unwrap();
        let xr = XgftRouter::dmod(&t);
        let provider = FnCandidates::new(8, |pair| Ok(xr.all_paths(pair)));
        let router = MinCongestion::with_config(provider, CongestionConfig::default());
        let perm = patterns::bit_reversal(8).unwrap();
        let plan = router.plan_seeded_with(&perm, &[], &Noop).unwrap();
        plan.assignment().validate(t.topology()).unwrap();
        let baseline = route_all(&xr, &perm).unwrap();
        assert!(plan.max_link_load() <= baseline.max_channel_load());
        let bound = demand_lower_bound(
            &FnCandidates::new(8, |pair| Ok(xr.all_paths(pair))),
            &perm,
            1,
        )
        .unwrap();
        assert!(plan.max_link_load() >= bound);
    }

    #[test]
    fn instrumented_plan_matches_plain_and_emits_metrics() {
        let ft = Ftree::new(2, 2, 6).unwrap();
        let router =
            MinCongestion::with_config(FtreeCandidates::pristine(&ft), CongestionConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let perm = patterns::random_full(12, &mut rng);
        let plain = router.plan_seeded_with(&perm, &[], &Noop).unwrap();
        let reg = ftclos_obs::Registry::new();
        let recorded = router.plan_seeded_with(&perm, &[], &reg).unwrap();
        assert_eq!(plain.assignment(), recorded.assignment());
        let snap = reg.snapshot();
        assert_eq!(snap.counter("congestion.moves"), Some(recorded.moves()));
        assert_eq!(snap.counter("congestion.rounds"), Some(recorded.rounds()));
        assert_eq!(
            snap.gauge("congestion.max_load"),
            Some(recorded.max_link_load() as u64)
        );
        for path in ["congestion.place", "congestion.repair"] {
            assert!(snap.spans.iter().any(|s| s.path == path), "missing {path}");
        }
    }

    #[test]
    fn witness_channel_carries_the_max_load() {
        let ft = Ftree::new(2, 2, 6).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let perm = patterns::random_full(12, &mut rng);
        let plan = plan_of(&ft, &perm, CongestionMode::Repaired);
        let witness = plan.witness_channel().expect("traffic flows");
        let loads = plan.assignment().channel_loads();
        assert_eq!(loads[&witness], plan.max_link_load());
        // Lowest-id among the max-load channels.
        for (&c, &l) in &loads {
            if l == plan.max_link_load() {
                assert!(witness <= c);
            }
        }
    }

    #[test]
    fn errors_propagate() {
        let ft = Ftree::new(2, 3, 5).unwrap();
        let router =
            MinCongestion::with_config(FtreeCandidates::pristine(&ft), CongestionConfig::default());
        let perm = Permutation::from_pairs(11, [SdPair::new(0, 10)]).unwrap();
        assert!(matches!(
            router.plan_seeded_with(&perm, &[], &Noop),
            Err(RoutingError::PortOutOfRange { .. })
        ));
        let mut faults = FaultSet::new();
        faults.fail_channel(ft.leaf_up_channel(0, 0));
        let view = FaultyView::new(ft.topology(), &faults);
        let masked = MinCongestion::with_config(
            FtreeCandidates::masked(&ft, &view),
            CongestionConfig::default(),
        );
        let perm = patterns::shift(10, 2);
        assert!(matches!(
            masked.plan_seeded_with(&perm, &[], &Noop),
            Err(RoutingError::NoLivePath { .. })
        ));
    }

    #[test]
    fn yuan_projection_preserves_the_perfect_placement() {
        // Warm-starting from Yuan's load-1 assignment keeps the plan at
        // load 1 even when greedy/rounding alone might wander.
        let ft = Ftree::new(3, 9, 4).unwrap();
        let router =
            MinCongestion::with_config(FtreeCandidates::pristine(&ft), CongestionConfig::default());
        let yuan = YuanDeterministic::new(&ft).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for _ in 0..5 {
            let perm = patterns::random_full(12, &mut rng);
            let seed = route_all(&yuan, &perm).unwrap();
            assert_eq!(seed.max_channel_load(), 1);
            let plan = router.plan_seeded_with(&perm, &[&seed], &Noop).unwrap();
            assert_eq!(plan.max_link_load(), 1);
        }
    }
}
