//! Adversarial fault-campaign engine: k-fault-tolerance certification,
//! randomized fault waves, and minimal killer-fault shrinking.
//!
//! The paper proves its fabrics nonblocking for the *pristine* topology; the
//! operational question is how many component failures that guarantee
//! survives. This module attacks any registered *property* — adaptive
//! all-pairs routability, the NONBLOCKINGADAPTIVE degraded-nonblocking
//! verdict, CDG deadlock-freedom, or deterministic-route coverage — with
//! seeded, deterministic fault campaigns over any topology:
//!
//! * [`certify_exhaustive_with`] enumerates **every** fault set up to size `k`
//!   and either certifies k-fault tolerance or returns the
//!   lexicographically-first killer, independent of thread count: the
//!   combination space is partitioned by first element, partitions run
//!   rayon-parallel, and a partition aborts only when a *strictly smaller*
//!   partition has already found a killer.
//! * [`run_randomized_with`] fires seeded waves of mixed link+switch fault sets;
//!   each wave is one batch judged against the property, killers optionally
//!   shrunk in the same wave. Waves run on the calling thread: a wave is a
//!   handful of sets and the cheap properties judge one in nanoseconds, so a
//!   thread per wave cost more than the wave; the properties that cost
//!   milliseconds (deadlock, margin) parallelise inside `judge`.
//! * [`shrink`] delta-debugs a killer fault set to a **1-minimal**
//!   counterexample — every proper subset obtained by removing one element
//!   survives — by repeated single-removal passes run to fixpoint, which is
//!   sound even for non-monotone properties.
//! * [`CampaignReport::criticality`] aggregates deduplicated minimal
//!   killers into a per-component criticality ranking: the hardening
//!   report (which cables and switches appear in the most minimal
//!   counterexamples).
//!
//! Campaigns checkpoint after every wave ([`CampaignReport::to_checkpoint_text`]
//! / [`CampaignReport::parse_checkpoint`]) and resume bit-identically: the
//! per-set RNG is keyed by `(seed, wave, index)`, never by elapsed state, so
//! an interrupted-and-resumed campaign produces the same report as an
//! uninterrupted one at any `RAYON_NUM_THREADS`.

use crate::cdg::cdg_of_masked_router_with;
use crate::degraded::{adaptive_degraded_verdict, DegradedVerdict};
use ftclos_obs::{Noop, Recorder};
use ftclos_routing::{PathArena, RoutingError, SinglePathRouter};
use ftclos_topo::{ChannelId, FaultSet, FaultyView, Ftree, NodeId, Topology};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One failable component: a bidirectional cable (named by either of its
/// directed channels; both directions die together) or a whole switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultElement {
    /// A cable, named by one of its directed [`ChannelId`]s.
    Link(ChannelId),
    /// A switch; all its attached channels die with it.
    Switch(NodeId),
}

impl FaultElement {
    /// Compact token form: `L<channel>` / `S<node>`.
    pub(crate) fn token(&self) -> String {
        match self {
            FaultElement::Link(c) => format!("L{}", c.0),
            FaultElement::Switch(n) => format!("S{}", n.0),
        }
    }

    /// Parse the [`FaultElement::token`] form.
    pub(crate) fn parse_token(s: &str) -> Option<FaultElement> {
        let (kind, num) = s.split_at(1);
        let id: u32 = num.parse().ok()?;
        match kind {
            "L" => Some(FaultElement::Link(ChannelId(id))),
            "S" => Some(FaultElement::Switch(NodeId(id))),
            _ => None,
        }
    }
}

/// A normalized fault set: sorted, deduplicated elements. Two vectors
/// naming the same components compare equal, and `Ord` gives the
/// lexicographic order certification reports killers in.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FaultVector {
    elems: Vec<FaultElement>,
}

impl FaultVector {
    /// Normalize a collection of elements (sort + dedup).
    pub fn new(mut elems: Vec<FaultElement>) -> Self {
        elems.sort_unstable();
        elems.dedup();
        Self { elems }
    }

    /// The elements, sorted ascending.
    pub fn elements(&self) -> &[FaultElement] {
        &self.elems
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// True when no component is failed.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// The vector with element `i` removed (for shrinking).
    pub fn without(&self, i: usize) -> FaultVector {
        let mut elems = self.elems.clone();
        elems.remove(i);
        FaultVector { elems }
    }

    /// The union of this vector and `extra` (for antitonicity checks).
    pub fn with(&self, extra: &[FaultElement]) -> FaultVector {
        let mut elems = self.elems.clone();
        elems.extend_from_slice(extra);
        FaultVector::new(elems)
    }

    /// Expand into a [`FaultSet`]: links fail both directions of their
    /// cable, switches fail with all attached channels.
    pub fn to_fault_set(&self, topo: &Topology) -> FaultSet {
        let mut fs = FaultSet::new();
        for e in &self.elems {
            match e {
                FaultElement::Link(c) => {
                    fs.fail_link(topo, *c);
                }
                FaultElement::Switch(n) => {
                    fs.fail_switch(*n);
                }
            }
        }
        fs
    }

    /// Every directed channel this vector kills, sorted ascending.
    pub fn dead_channels(&self, topo: &Topology) -> Vec<ChannelId> {
        let mut dead = BTreeSet::new();
        for e in &self.elems {
            match e {
                FaultElement::Link(c) => {
                    dead.insert(*c);
                    if let Some(rev) = topo.reverse(*c) {
                        dead.insert(rev);
                    }
                }
                FaultElement::Switch(n) => {
                    dead.extend(topo.out_channels(*n));
                    dead.extend(topo.in_channels(*n));
                }
            }
        }
        dead.into_iter().collect()
    }

    /// Token form: elements joined with `+`, or `none` when empty.
    pub(crate) fn tokens(&self) -> String {
        if self.elems.is_empty() {
            return "none".to_string();
        }
        self.elems
            .iter()
            .map(FaultElement::token)
            .collect::<Vec<_>>()
            .join("+")
    }

    /// Parse the [`FaultVector::tokens`] form.
    pub(crate) fn parse_tokens(s: &str) -> Option<FaultVector> {
        if s == "none" {
            return Some(FaultVector::default());
        }
        let elems: Option<Vec<_>> = s.split('+').map(FaultElement::parse_token).collect();
        Some(FaultVector::new(elems?))
    }
}

impl fmt::Display for FaultVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.tokens())
    }
}

/// One property evaluation: does the property still hold under the faults,
/// and a deterministic one-line explanation (witness or margin).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Judgement {
    /// True when the property survives the fault set.
    pub holds: bool,
    /// Deterministic detail: the first witness in a fixed scan order when
    /// violated, or the surviving margin. Never contains newlines.
    pub detail: String,
}

impl Judgement {
    fn holds(detail: impl Into<String>) -> Self {
        Judgement {
            holds: true,
            detail: detail.into(),
        }
    }

    fn killed(detail: impl Into<String>) -> Self {
        Judgement {
            holds: false,
            detail: detail.into(),
        }
    }
}

/// A property a campaign attacks. Implementations must be deterministic —
/// the same fault vector always yields the same [`Judgement`] — and
/// `Sync`, since [`certify_exhaustive_with`] judges fault sets rayon-parallel.
pub trait CampaignProperty: Sync {
    /// Stable name, recorded in certificates and checkpoints.
    fn name(&self) -> &'static str;
    /// Judge one fault set.
    fn judge(&self, faults: &FaultVector) -> Judgement;
}

/// What kind of cable a channel id names, precomputed per fabric.
#[derive(Clone, Copy, Debug)]
enum CableClass {
    /// Leaf ↔ bottom cable of host `host`.
    Leaf { host: usize },
    /// Bottom `v` ↔ top `t` cable.
    Fabric { v: usize, t: usize },
}

/// All-pairs **adaptive routability**: every SD pair keeps at least one
/// live path when routing may pick any top switch. Judged in closed form —
/// no path enumeration, no [`FaultyView`] — in `O(|F|²)` per fault set:
///
/// * a dead leaf cable, leaf node, or bottom switch severs its host(s)
///   outright (any fabric with ≥ 2 ports has a pair through them);
/// * a cross pair `(v, w)` dies exactly when every top is dead or cabled
///   off from `v` or `w`: `|C_v ∪ C_w ∪ T| = m`, where `C_x` is the set of
///   tops with a dead cable to bottom `x` and `T` the dead tops.
///
/// Only bottoms that lost a cable can have nonempty `C`, so the pair scan
/// touches at most `|F|²` bottom pairs plus one `|T| = m` check.
pub struct AdaptiveRoutability<'a> {
    ft: &'a Ftree,
    cable_class: Vec<Option<CableClass>>,
}

impl<'a> AdaptiveRoutability<'a> {
    /// Precompute the channel → cable classification for `ft`.
    pub fn new(ft: &'a Ftree) -> Self {
        let mut cable_class = vec![None; ft.topology().num_channels()];
        let (n, m, r) = (ft.n(), ft.m(), ft.r());
        for v in 0..r {
            for k in 0..n {
                let class = CableClass::Leaf { host: v * n + k };
                cable_class[ft.leaf_up_channel(v, k).index()] = Some(class);
                cable_class[ft.leaf_down_channel(v, k).index()] = Some(class);
            }
            for t in 0..m {
                let class = CableClass::Fabric { v, t };
                cable_class[ft.up_channel(v, t).index()] = Some(class);
                cable_class[ft.down_channel(t, v).index()] = Some(class);
            }
        }
        Self { ft, cable_class }
    }
}

impl CampaignProperty for AdaptiveRoutability<'_> {
    fn name(&self) -> &'static str {
        "routability"
    }

    fn judge(&self, faults: &FaultVector) -> Judgement {
        let ft = self.ft;
        let (n, m, r) = (ft.n(), ft.m(), ft.r());
        if n * r < 2 {
            return Judgement::holds("no SD pairs exist");
        }
        let mut dead_hosts: BTreeSet<usize> = BTreeSet::new();
        let mut dead_bottoms: BTreeSet<usize> = BTreeSet::new();
        let mut dead_tops: BTreeSet<usize> = BTreeSet::new();
        // Per-bottom set of tops reachable only through a dead cable.
        let mut cut: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        for e in faults.elements() {
            match e {
                FaultElement::Link(c) => match self.cable_class.get(c.index()).copied().flatten() {
                    Some(CableClass::Leaf { host }) => {
                        dead_hosts.insert(host);
                    }
                    Some(CableClass::Fabric { v, t }) => {
                        cut.entry(v).or_default().insert(t);
                    }
                    None => return Judgement::killed(format!("unknown channel L{}", c.0)),
                },
                FaultElement::Switch(node) => {
                    if let Some(t) = ft.top_index(*node) {
                        dead_tops.insert(t);
                    } else if let Some(v) = ft.bottom_index(*node) {
                        dead_bottoms.insert(v);
                    } else if let Some((v, k)) = ft.leaf_coords(*node) {
                        dead_hosts.insert(v * n + k);
                    } else {
                        return Judgement::killed(format!("unknown node S{}", node.0));
                    }
                }
            }
        }
        // Witnesses in a fixed ascending scan order, so the detail string is
        // schedule-independent.
        if let Some(&h) = dead_hosts.iter().next() {
            return Judgement::killed(format!("host {h} severed (dead leaf cable or leaf)"));
        }
        if let Some(&v) = dead_bottoms.iter().next() {
            return Judgement::killed(format!("bottom switch {v} dead severs its {n} hosts"));
        }
        if r >= 2 {
            if dead_tops.len() == m {
                return Judgement::killed(format!("all {m} top switches dead"));
            }
            let affected: Vec<usize> = cut.keys().copied().collect();
            for &v in &affected {
                let blocked = cut[&v].union(&dead_tops).count();
                if blocked == m {
                    return Judgement::killed(format!("bottom {v} cut off from all {m} tops"));
                }
            }
            for (a, &v) in affected.iter().enumerate() {
                for &w in &affected[a + 1..] {
                    let blocked: BTreeSet<usize> = cut[&v]
                        .union(&cut[&w])
                        .chain(dead_tops.iter())
                        .copied()
                        .collect();
                    if blocked.len() == m {
                        return Judgement::killed(format!(
                            "no common live top for bottoms {v} and {w}"
                        ));
                    }
                }
            }
        }
        Judgement::holds("all pairs routable")
    }
}

/// The **degraded nonblocking** verdict: sweep permutations through the
/// masked NONBLOCKINGADAPTIVE ([`adaptive_degraded_verdict`]) and require
/// every one to route contention-free. The strongest — and most expensive —
/// property: a fabric can stay routable long after it stops being
/// nonblocking.
pub struct NonblockingMargin<'a> {
    ft: &'a Ftree,
    /// Random full permutations per judgement (fabrics with ≤ 6 ports are
    /// swept exhaustively regardless).
    samples: usize,
    seed: u64,
}

impl<'a> NonblockingMargin<'a> {
    /// Judge nonblocking survival with `samples` permutations from `seed`.
    pub fn new(ft: &'a Ftree, samples: usize, seed: u64) -> Self {
        Self { ft, samples, seed }
    }
}

impl CampaignProperty for NonblockingMargin<'_> {
    fn name(&self) -> &'static str {
        "nonblocking"
    }

    fn judge(&self, faults: &FaultVector) -> Judgement {
        let topo = self.ft.topology();
        let fs = faults.to_fault_set(topo);
        let view = FaultyView::new(topo, &fs);
        match adaptive_degraded_verdict(self.ft, &view, self.samples, self.seed) {
            Ok(DegradedVerdict::ContentionFree {
                permutations,
                exhaustive,
            }) => Judgement::holds(format!(
                "contention-free over {permutations} permutation(s){}",
                if exhaustive { " (exhaustive)" } else { "" }
            )),
            Ok(DegradedVerdict::Unroutable { src, dst }) => {
                Judgement::killed(format!("pair ({src}, {dst}) has no live path"))
            }
            Ok(DegradedVerdict::PlanExhausted { needed, available }) => Judgement::killed(format!(
                "plan exhausted: needed {needed} tops, {available} available"
            )),
            Ok(DegradedVerdict::Contention { pairs }) => {
                Judgement::killed(format!("contention among {} pairs", pairs.len()))
            }
            Err(e) => Judgement::killed(format!("routing error: {e}")),
        }
    }
}

/// **Deadlock-freedom** of a single-path router's channel dependency graph
/// under faults ([`cdg_of_masked_router_with`]): pairs whose path crosses dead
/// hardware contribute no dependencies, so for deterministic routers faults
/// only *remove* CDG edges — a fault campaign against an acyclic baseline
/// certifies that no fault set can introduce deadlock, while a cyclic
/// baseline (e.g. [`crate::ValleyRouter`]) lets campaigns hunt the fault
/// sets that *break* the cycle.
pub struct DeadlockFreedom<'a, R: SinglePathRouter + Sync + ?Sized> {
    topo: &'a Topology,
    router: &'a R,
}

impl<'a, R: SinglePathRouter + Sync + ?Sized> DeadlockFreedom<'a, R> {
    /// Attack `router`'s CDG over `topo`.
    pub fn new(topo: &'a Topology, router: &'a R) -> Self {
        Self { topo, router }
    }
}

impl<R: SinglePathRouter + Sync + ?Sized> CampaignProperty for DeadlockFreedom<'_, R> {
    fn name(&self) -> &'static str {
        "deadlock"
    }

    fn judge(&self, faults: &FaultVector) -> Judgement {
        let fs = faults.to_fault_set(self.topo);
        let view = FaultyView::new(self.topo, &fs);
        let analysis = cdg_of_masked_router_with(self.router, &view, &Noop).check_with(&Noop);
        match analysis.verdict.witness() {
            None => Judgement::holds(format!("acyclic CDG ({} deps)", analysis.num_deps)),
            Some(witness) => {
                let cycle = witness
                    .iter()
                    .map(|c| format!("L{}", c.0))
                    .collect::<Vec<_>>()
                    .join(">");
                Judgement::killed(format!("dependency cycle {cycle}"))
            }
        }
    }
}

/// **Deterministic-route coverage**: every pair of a prebuilt single-path
/// route set ([`PathArena`]) stays on live hardware. One fault set is a
/// scan of its dead channels against the arena's per-channel pair
/// incidence — no per-pair rerouting, no `O(p⁴)`. The detail names only
/// the lowest severed channel and its pair count, which is invariant under
/// host relabelings that permute pairs along the same physical routes.
pub struct ArenaRoutability<'a> {
    topo: &'a Topology,
    arena: PathArena,
}

impl<'a> ArenaRoutability<'a> {
    /// Route every pair of `router` once into an arena.
    ///
    /// # Errors
    /// Propagates route-walk failures from [`PathArena::build_with`].
    pub fn new<R: SinglePathRouter + ?Sized>(
        topo: &'a Topology,
        router: &R,
    ) -> Result<Self, RoutingError> {
        Ok(Self {
            topo,
            arena: PathArena::build_with(router, &Noop)?,
        })
    }

    /// The underlying arena.
    pub fn arena(&self) -> &PathArena {
        &self.arena
    }
}

impl CampaignProperty for ArenaRoutability<'_> {
    fn name(&self) -> &'static str {
        "deterministic"
    }

    fn judge(&self, faults: &FaultVector) -> Judgement {
        for c in faults.dead_channels(self.topo) {
            let severed = self.arena.pairs_on(c).len();
            if severed > 0 {
                return Judgement::killed(format!("channel L{} severs {severed} pair(s)", c.0));
            }
        }
        Judgement::holds("no routed pair crosses a dead channel")
    }
}

/// Result of shrinking one killer fault set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Shrunk {
    /// The 1-minimal killer: removing any single element makes the
    /// property hold again.
    pub minimal: FaultVector,
    /// Property evaluations spent shrinking.
    pub evals: u64,
    /// Judgement detail of the minimal killer.
    pub detail: String,
}

/// Delta-debug `killer` to a **1-minimal** counterexample.
///
/// Repeats single-removal passes until a full pass removes nothing: the
/// final pass proves every `minimal.without(i)` survives, which is exactly
/// 1-minimality — sound even for non-monotone properties, where removing
/// one element can change which *other* elements are load-bearing. If
/// `killer` itself survives (caller error), it is returned unshrunk.
pub fn shrink(property: &dyn CampaignProperty, killer: &FaultVector) -> Shrunk {
    let mut evals = 1u64;
    let first = property.judge(killer);
    if first.holds {
        return Shrunk {
            minimal: killer.clone(),
            evals,
            detail: first.detail,
        };
    }
    let mut cur = killer.clone();
    let mut detail = first.detail;
    loop {
        let mut removed = false;
        let mut i = 0;
        while i < cur.len() {
            let cand = cur.without(i);
            let j = property.judge(&cand);
            evals += 1;
            if j.holds {
                i += 1;
            } else {
                cur = cand;
                detail = j.detail;
                removed = true;
            }
        }
        if !removed {
            break;
        }
    }
    Shrunk {
        minimal: cur,
        evals,
        detail,
    }
}

/// The killer fault set a certification found, with its witness detail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Killer {
    /// The fault set (lexicographically first among all killers of its
    /// size for exhaustive certification).
    pub faults: FaultVector,
    /// The property's violation detail.
    pub detail: String,
}

/// Outcome of [`certify_exhaustive_with`]: either a k-fault-tolerance
/// certificate or the smallest, lexicographically-first killer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// Property name.
    pub property: String,
    /// Requested tolerance level.
    pub k: usize,
    /// Universe size the combinations were drawn from.
    pub universe_size: usize,
    /// Fault sets the certificate covers: `Σ C(universe, s)` over every
    /// size entered (including the empty set). A *planned* count — never a
    /// thread-schedule-dependent evaluation tally.
    pub sets_total: u128,
    /// Largest `s` such that **every** fault set of size ≤ `s` survives.
    /// Equals `k` when `killer` is `None`. Meaningless (0) when the
    /// baseline itself is violated (`killer` is the empty set).
    pub tolerant_up_to: usize,
    /// The smallest killer found, if any: lexicographically first among
    /// killers of the smallest killing size.
    pub killer: Option<Killer>,
}

impl Certificate {
    /// True when the property tolerates every fault set of size ≤ `k`.
    pub fn certified(&self) -> bool {
        self.killer.is_none()
    }
}

/// `C(n, k)`, or `None` when it overflows `u128` (checked on the partial
/// products `C(n, i) · (n − i)`, which exceed the result by less than a
/// factor `k`). Every step `C(n, i + 1) = C(n, i) · (n − i) / (i + 1)`
/// divides exactly, so a `Some` is exact.
pub(crate) fn binomial(n: usize, k: usize) -> Option<u128> {
    if k > n {
        return Some(0);
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.checked_mul((n - i) as u128)? / (i + 1) as u128;
    }
    Some(acc)
}

/// Visit every ascending `k`-subset of `lo..n` in lexicographic order.
/// Stops early when `visit` returns `false`.
pub(crate) fn for_each_combination(
    lo: usize,
    n: usize,
    k: usize,
    visit: &mut dyn FnMut(&[usize]) -> bool,
) {
    if k == 0 {
        visit(&[]);
        return;
    }
    if lo + k > n {
        return;
    }
    let mut idx: Vec<usize> = (lo..lo + k).collect();
    loop {
        if !visit(&idx) {
            return;
        }
        let mut i = k;
        loop {
            if i == 0 {
                return;
            }
            i -= 1;
            if idx[i] < n - (k - i) {
                idx[i] += 1;
                for j in i + 1..k {
                    idx[j] = idx[j - 1] + 1;
                }
                break;
            }
        }
    }
}

/// Certify `property` against **every** fault set of size ≤ `k` drawn from
/// `universe`, or return the smallest killer.
///
/// Deterministic across thread counts: for each size the combination space
/// is partitioned by first element; partitions run in parallel, each
/// scanning its combinations in lexicographic order, and a partition aborts
/// only when a strictly smaller partition has registered a killer (via an
/// atomic first-partition watermark). The reduce takes the killer from the
/// smallest partition that found one — the globally lexicographically-first
/// killer of the smallest killing size, regardless of schedule.
///
/// Records one `campaign.certify` span and counts planned combinations per
/// entered size under `campaign.sets`. `sets_total` saturates at
/// `u128::MAX`, and the counter at `u64::MAX`.
pub fn certify_exhaustive_with<Rec: Recorder>(
    property: &dyn CampaignProperty,
    universe: &[FaultElement],
    k: usize,
    rec: &Rec,
) -> Certificate {
    let _span = rec.span("campaign.certify");
    let mut uni: Vec<FaultElement> = universe.to_vec();
    uni.sort_unstable();
    uni.dedup();
    let u = uni.len();
    let mut sets_total: u128 = 1; // the empty set
    let certificate = |tolerant: usize, sets_total: u128, killer: Option<Killer>| Certificate {
        property: property.name().to_string(),
        k,
        universe_size: u,
        sets_total,
        tolerant_up_to: tolerant,
        killer,
    };

    let baseline = property.judge(&FaultVector::default());
    rec.add("campaign.sets", 1);
    if !baseline.holds {
        return certificate(
            0,
            sets_total,
            Some(Killer {
                faults: FaultVector::default(),
                detail: baseline.detail,
            }),
        );
    }

    for s in 1..=k.min(u) {
        let sets = binomial(u, s);
        sets_total = sets_total.saturating_add(sets.unwrap_or(u128::MAX));
        rec.add(
            "campaign.sets",
            sets.and_then(|c| u64::try_from(c).ok()).unwrap_or(u64::MAX),
        );
        let found_partition = AtomicUsize::new(usize::MAX);
        let hits: Vec<Option<Killer>> = (0..u - s + 1)
            .into_par_iter()
            .map(|first| {
                let mut hit = None;
                let mut set = Vec::with_capacity(s);
                for_each_combination(first + 1, u, s - 1, &mut |rest| {
                    if found_partition.load(Ordering::Relaxed) < first {
                        return false;
                    }
                    set.clear();
                    set.push(uni[first]);
                    set.extend(rest.iter().map(|&i| uni[i]));
                    let fv = FaultVector::new(set.clone());
                    let j = property.judge(&fv);
                    if j.holds {
                        true
                    } else {
                        found_partition.fetch_min(first, Ordering::Relaxed);
                        hit = Some(Killer {
                            faults: fv,
                            detail: j.detail,
                        });
                        false
                    }
                });
                hit
            })
            .collect();
        if let Some(killer) = hits.into_iter().flatten().next() {
            rec.add("campaign.killers", 1);
            return certificate(s - 1, sets_total, Some(killer));
        }
    }
    certificate(k, sets_total, None)
}

/// Knobs for one randomized campaign.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Master seed; every fault set is keyed by `(seed, wave, index)`.
    pub seed: u64,
    /// Waves to fire.
    pub waves: usize,
    /// Fault sets per wave (judged as one batch).
    pub wave_size: usize,
    /// Distinct cables failed per set.
    pub links_per_set: usize,
    /// Distinct switches failed per set.
    pub switches_per_set: usize,
    /// Shrink every killer to a 1-minimal counterexample in-wave.
    pub shrink: bool,
}

/// One killer found by a randomized campaign.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KillerRecord {
    /// Wave that drew the set.
    pub wave: usize,
    /// Index within the wave.
    pub index: usize,
    /// The killer as drawn.
    pub faults: FaultVector,
    /// Violation detail of the drawn set.
    pub detail: String,
    /// The 1-minimal shrunk killer (when [`CampaignConfig::shrink`]).
    pub minimal: Option<FaultVector>,
    /// Property evaluations the shrink spent (0 when shrinking was off).
    pub shrink_evals: u64,
}

/// Campaign state: also the checkpoint payload — a finished report is just
/// a checkpoint with `waves_done == config.waves`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignReport {
    /// Property name.
    pub property: String,
    /// The configuration that produced (and resumes) this report.
    pub config: CampaignConfig,
    /// Waves completed so far.
    pub waves_done: usize,
    /// Property evaluations so far (wave judgements + shrink evaluations).
    pub sets_evaluated: u64,
    /// Killers found, in (wave, index) order.
    pub killers: Vec<KillerRecord>,
}

/// Per-component criticality ranking aggregated from minimal killers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Criticality {
    /// Distinct minimal killer sets aggregated.
    pub minimal_killers: usize,
    /// Cables by appearance count (count descending, id ascending).
    pub links: Vec<(ChannelId, u32)>,
    /// Switches by appearance count (count descending, id ascending).
    pub switches: Vec<(NodeId, u32)>,
}

impl CampaignReport {
    /// Rank components by how many **distinct minimal** killers they appear
    /// in — the hardening report: a component on every minimal
    /// counterexample is the single point whose protection buys the most.
    /// Falls back to the raw killer when a record was not shrunk.
    pub fn criticality(&self) -> Criticality {
        let uniq: BTreeSet<&FaultVector> = self
            .killers
            .iter()
            .map(|k| k.minimal.as_ref().unwrap_or(&k.faults))
            .collect();
        let mut links: BTreeMap<ChannelId, u32> = BTreeMap::new();
        let mut switches: BTreeMap<NodeId, u32> = BTreeMap::new();
        for fv in &uniq {
            for e in fv.elements() {
                match e {
                    FaultElement::Link(c) => *links.entry(*c).or_default() += 1,
                    FaultElement::Switch(n) => *switches.entry(*n).or_default() += 1,
                }
            }
        }
        let mut links: Vec<(ChannelId, u32)> = links.into_iter().collect();
        let mut switches: Vec<(NodeId, u32)> = switches.into_iter().collect();
        links.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        switches.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        Criticality {
            minimal_killers: uniq.len(),
            links,
            switches,
        }
    }

    /// Serialize as the `ftclos-campaign-checkpoint v1` text format.
    pub fn to_checkpoint_text(&self) -> String {
        let mut out = String::new();
        out.push_str("ftclos-campaign-checkpoint v1\n");
        out.push_str(&format!("property {}\n", self.property));
        out.push_str(&format!("seed {}\n", self.config.seed));
        out.push_str(&format!("waves {}\n", self.config.waves));
        out.push_str(&format!("wave_size {}\n", self.config.wave_size));
        out.push_str(&format!("links {}\n", self.config.links_per_set));
        out.push_str(&format!("switches {}\n", self.config.switches_per_set));
        out.push_str(&format!("shrink {}\n", u8::from(self.config.shrink)));
        out.push_str(&format!("waves_done {}\n", self.waves_done));
        out.push_str(&format!("sets_evaluated {}\n", self.sets_evaluated));
        for k in &self.killers {
            let min = match &k.minimal {
                Some(fv) => fv.tokens(),
                None => "-".to_string(),
            };
            let detail = k.detail.replace(['\n', '\r'], " ");
            out.push_str(&format!(
                "killer {} {} {} min {} evals {} detail {}\n",
                k.wave,
                k.index,
                k.faults.tokens(),
                min,
                k.shrink_evals,
                detail
            ));
        }
        out.push_str("end\n");
        out
    }

    /// Parse the [`CampaignReport::to_checkpoint_text`] format.
    ///
    /// # Errors
    /// [`CampaignError::Checkpoint`] on any malformed or missing line.
    pub fn parse_checkpoint(text: &str) -> Result<CampaignReport, CampaignError> {
        let bad = |what: &str| CampaignError::Checkpoint(what.to_string());
        let mut lines = text.lines();
        if lines.next() != Some("ftclos-campaign-checkpoint v1") {
            return Err(bad("missing or unsupported header"));
        }
        let mut field = |name: &'static str| -> Result<String, CampaignError> {
            let line = lines
                .next()
                .ok_or_else(|| bad(&format!("missing '{name}' line")))?;
            line.strip_prefix(name)
                .and_then(|rest| rest.strip_prefix(' '))
                .map(str::to_string)
                .ok_or_else(|| bad(&format!("expected '{name} <value>', got '{line}'")))
        };
        let property = field("property")?;
        let parse_num = |name: &str, v: &str| -> Result<u64, CampaignError> {
            v.parse()
                .map_err(|_| bad(&format!("non-numeric '{name}' value '{v}'")))
        };
        let seed = parse_num("seed", &field("seed")?)?;
        let waves = parse_num("waves", &field("waves")?)? as usize;
        let wave_size = parse_num("wave_size", &field("wave_size")?)? as usize;
        let links_per_set = parse_num("links", &field("links")?)? as usize;
        let switches_per_set = parse_num("switches", &field("switches")?)? as usize;
        let shrink = match field("shrink")?.as_str() {
            "0" => false,
            "1" => true,
            v => return Err(bad(&format!("shrink must be 0 or 1, got '{v}'"))),
        };
        let waves_done = parse_num("waves_done", &field("waves_done")?)? as usize;
        let sets_evaluated = parse_num("sets_evaluated", &field("sets_evaluated")?)?;
        let mut killers = Vec::new();
        for line in lines {
            if line == "end" {
                return Ok(CampaignReport {
                    property,
                    config: CampaignConfig {
                        seed,
                        waves,
                        wave_size,
                        links_per_set,
                        switches_per_set,
                        shrink,
                    },
                    waves_done,
                    sets_evaluated,
                    killers,
                });
            }
            let rest = line
                .strip_prefix("killer ")
                .ok_or_else(|| bad(&format!("expected 'killer' or 'end', got '{line}'")))?;
            let (head, detail) = rest
                .split_once(" detail ")
                .ok_or_else(|| bad("killer line missing ' detail '"))?;
            let parts: Vec<&str> = head.split_whitespace().collect();
            let [wave, index, tokens, min_kw, min, evals_kw, evals] = parts[..] else {
                return Err(bad(&format!("malformed killer line '{line}'")));
            };
            if min_kw != "min" || evals_kw != "evals" {
                return Err(bad(&format!("malformed killer line '{line}'")));
            }
            let faults = FaultVector::parse_tokens(tokens)
                .ok_or_else(|| bad(&format!("bad fault tokens '{tokens}'")))?;
            let minimal = if min == "-" {
                None
            } else {
                Some(
                    FaultVector::parse_tokens(min)
                        .ok_or_else(|| bad(&format!("bad minimal tokens '{min}'")))?,
                )
            };
            killers.push(KillerRecord {
                wave: parse_num("wave", wave)? as usize,
                index: parse_num("index", index)? as usize,
                faults,
                detail: detail.to_string(),
                minimal,
                shrink_evals: parse_num("evals", evals)?,
            });
        }
        Err(bad("missing 'end' terminator"))
    }
}

/// Campaign-level failures (property violations are *results*, not errors).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CampaignError {
    /// A checkpoint file failed to parse.
    Checkpoint(String),
    /// A resume checkpoint disagrees with the requested campaign.
    Mismatch(String),
    /// Reading or writing campaign state failed.
    Io(String),
    /// A fault universe has fewer elements than one set draws.
    EmptyUniverse(&'static str),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Checkpoint(d) => write!(f, "malformed campaign checkpoint: {d}"),
            CampaignError::Mismatch(d) => write!(f, "checkpoint does not match campaign: {d}"),
            CampaignError::Io(d) => write!(f, "campaign I/O failed: {d}"),
            CampaignError::EmptyUniverse(which) => write!(
                f,
                "fault universe '{which}' has fewer elements than one set draws"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

/// Mix `(wave, index)` into the master seed: golden-ratio multiplies keep
/// neighbouring coordinates decorrelated while staying pure functions of
/// the coordinates, so resumed campaigns redraw identical sets.
fn set_seed(seed: u64, wave: usize, index: usize) -> u64 {
    seed ^ (wave as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (index as u64 + 1)
            .wrapping_mul(0xD1B5_4A32_D192_ED03)
            .rotate_left(32)
}

/// Draw one fault set for `(wave, index)`: `links_per_set` distinct cables
/// and `switches_per_set` distinct switches by rejection sampling.
fn draw_set(
    links: &[ChannelId],
    switches: &[NodeId],
    cfg: &CampaignConfig,
    wave: usize,
    index: usize,
) -> FaultVector {
    let mut rng = ChaCha8Rng::seed_from_u64(set_seed(cfg.seed, wave, index));
    let mut elems = Vec::with_capacity(cfg.links_per_set + cfg.switches_per_set);
    let mut chosen = BTreeSet::new();
    while chosen.len() < cfg.links_per_set {
        chosen.insert(rng.gen_range(0..links.len()));
    }
    elems.extend(chosen.iter().map(|&i| FaultElement::Link(links[i])));
    chosen.clear();
    while chosen.len() < cfg.switches_per_set {
        chosen.insert(rng.gen_range(0..switches.len()));
    }
    elems.extend(chosen.iter().map(|&i| FaultElement::Switch(switches[i])));
    FaultVector::new(elems)
}

/// Fire seeded waves of random fault sets at `property`.
///
/// Each wave draws `wave_size` sets — every set keyed by
/// `(seed, wave, index)` only — judges them as one batch, and (with
/// [`CampaignConfig::shrink`]) shrinks the wave's killers. Pass a prior
/// [`CampaignReport`] as `resume` to continue an interrupted campaign:
/// completed waves are skipped and the final report is identical to an
/// uninterrupted run.
///
/// `on_wave` runs after every completed wave with the up-to-date report —
/// the checkpoint hook: write [`CampaignReport::to_checkpoint_text`] to
/// disk, return `Ok(false)` to halt early (the report so far is returned),
/// or propagate an error to abort. Spans: `campaign.wave` per judged wave,
/// `campaign.shrink` per wave's shrink batch; counters `campaign.sets`,
/// `campaign.killers`.
///
/// # Errors
/// [`CampaignError::EmptyUniverse`] when a universe is smaller than one
/// set's draw; [`CampaignError::Mismatch`] when `resume` disagrees with
/// `property`/`cfg`; anything `on_wave` returns.
pub fn run_randomized_with<Rec: Recorder>(
    property: &dyn CampaignProperty,
    links: &[ChannelId],
    switches: &[NodeId],
    cfg: &CampaignConfig,
    resume: Option<&CampaignReport>,
    rec: &Rec,
    on_wave: &mut dyn FnMut(&CampaignReport) -> Result<bool, CampaignError>,
) -> Result<CampaignReport, CampaignError> {
    if cfg.links_per_set > links.len() {
        return Err(CampaignError::EmptyUniverse("links"));
    }
    if cfg.switches_per_set > switches.len() {
        return Err(CampaignError::EmptyUniverse("switches"));
    }
    let mut state = match resume {
        Some(prior) => {
            if prior.property != property.name() {
                return Err(CampaignError::Mismatch(format!(
                    "checkpoint is for property '{}', campaign attacks '{}'",
                    prior.property,
                    property.name()
                )));
            }
            if prior.config != *cfg {
                return Err(CampaignError::Mismatch(
                    "checkpoint configuration differs from the requested campaign".to_string(),
                ));
            }
            prior.clone()
        }
        None => CampaignReport {
            property: property.name().to_string(),
            config: *cfg,
            waves_done: 0,
            sets_evaluated: 0,
            killers: Vec::new(),
        },
    };
    for wave in state.waves_done..cfg.waves {
        let sets: Vec<FaultVector> = (0..cfg.wave_size)
            .map(|i| draw_set(links, switches, cfg, wave, i))
            .collect();
        let judged: Vec<Judgement> = {
            let _wave_span = rec.span("campaign.wave");
            sets.iter().map(|fv| property.judge(fv)).collect()
        };
        rec.add("campaign.sets", cfg.wave_size as u64);
        state.sets_evaluated += cfg.wave_size as u64;
        let killer_idx: Vec<usize> = judged
            .iter()
            .enumerate()
            .filter(|(_, j)| !j.holds)
            .map(|(i, _)| i)
            .collect();
        rec.add("campaign.killers", killer_idx.len() as u64);
        let shrunk: Vec<Option<Shrunk>> = if cfg.shrink && !killer_idx.is_empty() {
            let _shrink_span = rec.span("campaign.shrink");
            killer_idx
                .iter()
                .map(|&i| Some(shrink(property, &sets[i])))
                .collect()
        } else {
            vec![None; killer_idx.len()]
        };
        for (&i, s) in killer_idx.iter().zip(shrunk) {
            let (minimal, shrink_evals) = match s {
                Some(s) => {
                    state.sets_evaluated += s.evals;
                    (Some(s.minimal), s.evals)
                }
                None => (None, 0),
            };
            state.killers.push(KillerRecord {
                wave,
                index: i,
                faults: sets[i].clone(),
                detail: judged[i].detail.clone(),
                minimal,
                shrink_evals,
            });
        }
        state.waves_done = wave + 1;
        if !on_wave(&state)? {
            break;
        }
    }
    Ok(state)
}

/// Every cable of `topo` by its representative (lower-numbered) directed
/// channel — the standard link universe for campaigns.
pub fn cable_universe(topo: &Topology) -> Vec<ChannelId> {
    (0..topo.num_channels() as u32)
        .map(ChannelId)
        .filter(|&c| match topo.reverse(c) {
            Some(rev) => c < rev,
            None => true,
        })
        .collect()
}

/// Every top-level switch of `topo` — the standard switch universe.
pub fn top_switch_universe(topo: &Topology) -> Vec<NodeId> {
    topo.switches_at_level(topo.max_level()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdg::ValleyRouter;
    use ftclos_routing::DModK;

    fn ft245() -> Ftree {
        Ftree::new(2, 4, 5).unwrap()
    }

    #[test]
    fn fault_vector_normalizes_and_round_trips() {
        let a = FaultVector::new(vec![
            FaultElement::Switch(NodeId(7)),
            FaultElement::Link(ChannelId(4)),
            FaultElement::Link(ChannelId(4)),
        ]);
        assert_eq!(a.len(), 2);
        assert_eq!(a.tokens(), "L4+S7");
        assert_eq!(FaultVector::parse_tokens("S7+L4"), Some(a.clone()));
        assert_eq!(
            FaultVector::parse_tokens("none"),
            Some(FaultVector::default())
        );
        assert_eq!(FaultVector::parse_tokens("X3"), None);
        assert_eq!(a.without(0).tokens(), "S7");
    }

    #[test]
    fn combination_enumerator_is_lexicographic_and_complete() {
        let mut seen = Vec::new();
        for_each_combination(0, 5, 3, &mut |c| {
            seen.push(c.to_vec());
            true
        });
        assert_eq!(Some(seen.len() as u128), binomial(5, 3));
        let mut sorted = seen.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(seen, sorted);
        assert_eq!(seen[0], vec![0, 1, 2]);
        assert_eq!(seen.last().unwrap(), &vec![2, 3, 4]);
        // Early exit stops immediately.
        let mut count = 0;
        for_each_combination(0, 5, 2, &mut |_| {
            count += 1;
            count < 3
        });
        assert_eq!(count, 3);
        // No subsets of a set too small, one empty subset.
        for_each_combination(0, 3, 4, &mut |_| panic!("C(3, 4) = 0"));
        let mut empty = 0;
        for_each_combination(0, 3, 0, &mut |c| {
            empty += usize::from(c.is_empty());
            true
        });
        assert_eq!(empty, 1);
    }

    #[test]
    fn binomial_is_exact_or_none_on_overflow() {
        assert_eq!(binomial(5, 2), Some(10));
        assert_eq!(binomial(12, 1), Some(12));
        assert_eq!(binomial(3, 4), Some(0));
        assert_eq!(binomial(64, 2), Some(2016));
        assert_eq!(
            binomial(1 << 20, 6),
            Some(1_846_123_584_900_931_784_337_487_248_752_640)
        );
        // C(2^20, 8) ≈ 2^144.7: no u128 holds it.
        assert_eq!(binomial(1 << 20, 8), None);
        assert_eq!(binomial(1 << 20, (1 << 20) - 8), None);
    }

    #[test]
    fn routability_judge_matches_structure() {
        let ft = ft245();
        let prop = AdaptiveRoutability::new(&ft);
        assert!(prop.judge(&FaultVector::default()).holds);
        // A dead leaf cable severs its host.
        let leaf = FaultVector::new(vec![FaultElement::Link(ft.leaf_up_channel(0, 0))]);
        let j = prop.judge(&leaf);
        assert!(!j.holds && j.detail.contains("host 0"));
        // One fabric cable: three other tops still serve bottom 0.
        let one = FaultVector::new(vec![FaultElement::Link(ft.up_channel(0, 1))]);
        assert!(prop.judge(&one).holds);
        // All four cables of bottom 0 cut it off.
        let cut = FaultVector::new(
            (0..4)
                .map(|t| FaultElement::Link(ft.up_channel(0, t)))
                .collect(),
        );
        let j = prop.judge(&cut);
        assert!(!j.holds && j.detail.contains("bottom 0"));
        // Complementary cable cuts on two bottoms with no common live top.
        let split = FaultVector::new(vec![
            FaultElement::Link(ft.up_channel(0, 0)),
            FaultElement::Link(ft.up_channel(0, 1)),
            FaultElement::Link(ft.up_channel(1, 2)),
            FaultElement::Link(ft.up_channel(1, 3)),
        ]);
        let j = prop.judge(&split);
        assert!(!j.holds && j.detail.contains("no common live top"));
        // Dead switches: a top is survivable, a bottom is not.
        assert!(
            prop.judge(&FaultVector::new(vec![FaultElement::Switch(ft.top(2))]))
                .holds
        );
        assert!(
            !prop
                .judge(&FaultVector::new(vec![FaultElement::Switch(ft.bottom(1))]))
                .holds
        );
    }

    #[test]
    fn routability_agrees_with_masked_adaptive_on_random_sets() {
        // The closed form must agree with the real masked router's
        // reachability on unroutability (not contention): compare against
        // NonblockingMargin's Unroutable outcomes for top-switch faults.
        let ft = ft245();
        let prop = AdaptiveRoutability::new(&ft);
        // Failing any 3 of 4 tops leaves one live top: routable.
        let three = FaultVector::new((0..3).map(|t| FaultElement::Switch(ft.top(t))).collect());
        assert!(prop.judge(&three).holds);
        // All 4 tops dead: cross pairs unroutable.
        let four = FaultVector::new((0..4).map(|t| FaultElement::Switch(ft.top(t))).collect());
        assert!(!prop.judge(&four).holds);
    }

    #[test]
    fn deterministic_property_uses_arena_incidence() {
        // r = 1: every pair is intra-bottom, fabric cables carry no route.
        let ft = Ftree::new(2, 4, 1).unwrap();
        let router = DModK::new(&ft);
        let prop = ArenaRoutability::new(ft.topology(), &router).unwrap();
        assert!(prop.judge(&FaultVector::default()).holds);
        let unused = FaultVector::new(vec![FaultElement::Link(ft.up_channel(0, 0))]);
        assert!(prop.judge(&unused).holds);
        let used = FaultVector::new(vec![FaultElement::Link(ft.leaf_up_channel(0, 0))]);
        let j = prop.judge(&used);
        assert!(!j.holds && j.detail.contains("severs"));
    }

    #[test]
    fn deadlock_property_baselines() {
        let ft = Ftree::new(1, 1, 4).unwrap();
        let valley = ValleyRouter::new(&ft);
        let prop = DeadlockFreedom::new(ft.topology(), &valley);
        let j = prop.judge(&FaultVector::default());
        assert!(!j.holds && j.detail.contains("cycle"));
        let ft2 = ft245();
        let dmodk = DModK::new(&ft2);
        let prop2 = DeadlockFreedom::new(ft2.topology(), &dmodk);
        assert!(prop2.judge(&FaultVector::default()).holds);
    }

    #[test]
    fn shrink_finds_one_minimal_core() {
        let ft = ft245();
        let prop = AdaptiveRoutability::new(&ft);
        // Superset killer: a severed leaf cable plus two harmless extras.
        let killer = FaultVector::new(vec![
            FaultElement::Link(ft.leaf_up_channel(0, 0)),
            FaultElement::Link(ft.up_channel(2, 1)),
            FaultElement::Switch(ft.top(3)),
        ]);
        let s = shrink(&prop, &killer);
        assert_eq!(
            s.minimal,
            FaultVector::new(vec![FaultElement::Link(ft.leaf_up_channel(0, 0))])
        );
        assert!(s.evals >= 3);
        // 1-minimality: removing the only element must survive.
        for i in 0..s.minimal.len() {
            assert!(prop.judge(&s.minimal.without(i)).holds);
        }
        // A surviving "killer" comes back unshrunk.
        let healthy = FaultVector::new(vec![FaultElement::Switch(ft.top(0))]);
        assert_eq!(shrink(&prop, &healthy).minimal, healthy);
    }

    #[test]
    fn certify_k2_on_ftree_8_64_exactly() {
        // Acceptance: exhaustive k = 2 certification over the 64 top
        // switches of ftree(8+64, 9). Any two dead tops leave 62 live ones,
        // so routability is certified, covering exactly 1 + C(64,1) +
        // C(64,2) fault sets.
        let ft = Ftree::new(8, 64, 9).unwrap();
        let prop = AdaptiveRoutability::new(&ft);
        let universe: Vec<FaultElement> = top_switch_universe(ft.topology())
            .into_iter()
            .map(FaultElement::Switch)
            .collect();
        assert_eq!(universe.len(), 64);
        let cert = certify_exhaustive_with(&prop, &universe, 2, &Noop);
        assert!(cert.certified());
        assert_eq!(cert.tolerant_up_to, 2);
        assert_eq!(cert.sets_total, 1 + 64 + 2016);
    }

    #[test]
    fn certify_reports_lexicographically_first_killer() {
        let ft = ft245();
        let prop = AdaptiveRoutability::new(&ft);
        // Universe of every leaf cable: each single cable is already a
        // killer, and the smallest-id one must win regardless of schedule.
        let mut universe: Vec<FaultElement> = Vec::new();
        for v in 0..ft.r() {
            for k in 0..ft.n() {
                universe.push(FaultElement::Link(ft.leaf_up_channel(v, k)));
            }
        }
        let cert = certify_exhaustive_with(&prop, &universe, 2, &Noop);
        assert!(!cert.certified());
        assert_eq!(cert.tolerant_up_to, 0);
        let killer = cert.killer.unwrap();
        assert_eq!(
            killer.faults,
            FaultVector::new(vec![FaultElement::Link(ft.leaf_up_channel(0, 0))])
        );
        // Only size-1 sets were planned after the baseline.
        assert_eq!(cert.sets_total, 1 + universe.len() as u128);
    }

    #[test]
    fn certify_first_killer_wins_when_later_partitions_find_theirs_sooner() {
        /// Dies on exactly three pairs of the universe, none in partition 0.
        struct ThreePairs(Vec<FaultElement>);
        impl CampaignProperty for ThreePairs {
            fn name(&self) -> &'static str {
                "three-pairs"
            }
            fn judge(&self, faults: &FaultVector) -> Judgement {
                let has = |i: usize| faults.elements().contains(&self.0[i]);
                let dead = [(3, 8), (5, 6), (7, 9)]
                    .iter()
                    .any(|&(a, b)| has(a) && has(b));
                Judgement {
                    holds: !dead,
                    detail: String::from("pair"),
                }
            }
        }
        let ft = ft245();
        let mut universe: Vec<FaultElement> = (0..ft.r())
            .flat_map(|v| (0..ft.n()).map(move |k| (v, k)))
            .map(|(v, k)| FaultElement::Link(ft.leaf_up_channel(v, k)))
            .collect();
        universe.sort_unstable();
        let prop = ThreePairs(universe.clone());
        // Partitions 5 and 7 sit in a later thread's block and reach their
        // killers after one or two judgements; partition 3 needs five.
        for _ in 0..50 {
            let cert = certify_exhaustive_with(&prop, &universe, 2, &Noop);
            assert_eq!(cert.tolerant_up_to, 1);
            assert_eq!(cert.sets_total, 1 + 10 + 45);
            assert_eq!(
                cert.killer.unwrap().faults,
                FaultVector::new(vec![universe[3], universe[8]])
            );
        }
    }

    #[test]
    fn certify_flags_violated_baseline() {
        let ft = Ftree::new(1, 1, 4).unwrap();
        let valley = ValleyRouter::new(&ft);
        let prop = DeadlockFreedom::new(ft.topology(), &valley);
        let cert = certify_exhaustive_with(&prop, &[], 1, &Noop);
        let killer = cert.killer.unwrap();
        assert!(killer.faults.is_empty());
        assert_eq!(cert.sets_total, 1);
    }

    /// [`run_randomized_with`] with no recorder and no checkpoint hook.
    fn randomized(
        property: &dyn CampaignProperty,
        links: &[ChannelId],
        switches: &[NodeId],
        cfg: &CampaignConfig,
        resume: Option<&CampaignReport>,
    ) -> Result<CampaignReport, CampaignError> {
        run_randomized_with(property, links, switches, cfg, resume, &Noop, &mut |_| {
            Ok(true)
        })
    }

    fn campaign_cfg(waves: usize) -> CampaignConfig {
        CampaignConfig {
            seed: 0xC0FFEE,
            waves,
            wave_size: 8,
            links_per_set: 2,
            switches_per_set: 1,
            shrink: true,
        }
    }

    #[test]
    fn randomized_campaign_finds_and_shrinks_killers() {
        let ft = ft245();
        let prop = AdaptiveRoutability::new(&ft);
        let links = cable_universe(ft.topology());
        let switches = top_switch_universe(ft.topology());
        let report = randomized(&prop, &links, &switches, &campaign_cfg(6), None).unwrap();
        assert_eq!(report.waves_done, 6);
        assert_eq!(report.property, "routability");
        // Half the cables are leaf cables, each an instant killer: with 6
        // waves of 8 two-link draws, killers are certain for this seed.
        assert!(!report.killers.is_empty());
        for k in &report.killers {
            let minimal = k.minimal.as_ref().unwrap();
            assert!(!minimal.is_empty());
            assert!(!prop.judge(minimal).holds);
            for i in 0..minimal.len() {
                assert!(prop.judge(&minimal.without(i)).holds, "not 1-minimal");
            }
        }
        let crit = report.criticality();
        assert!(crit.minimal_killers > 0);
        assert!(!crit.links.is_empty() || !crit.switches.is_empty());
        // Ranking is count-descending.
        for w in crit.links.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn checkpoint_round_trips_and_resume_is_equivalent() {
        let ft = ft245();
        let prop = AdaptiveRoutability::new(&ft);
        let links = cable_universe(ft.topology());
        let switches = top_switch_universe(ft.topology());
        let cfg = campaign_cfg(4);
        let full = randomized(&prop, &links, &switches, &cfg, None).unwrap();

        // Halt after two waves, round-trip through text, resume.
        let mut checkpoint_text = String::new();
        let halted =
            run_randomized_with(&prop, &links, &switches, &cfg, None, &Noop, &mut |state| {
                checkpoint_text = state.to_checkpoint_text();
                Ok(state.waves_done < 2)
            })
            .unwrap();
        assert_eq!(halted.waves_done, 2);
        let parsed = CampaignReport::parse_checkpoint(&checkpoint_text).unwrap();
        assert_eq!(parsed, halted);
        let resumed = randomized(&prop, &links, &switches, &cfg, Some(&parsed)).unwrap();
        assert_eq!(resumed, full);
    }

    #[test]
    fn resume_rejects_mismatched_campaigns() {
        let ft = ft245();
        let prop = AdaptiveRoutability::new(&ft);
        let links = cable_universe(ft.topology());
        let switches = top_switch_universe(ft.topology());
        let cfg = campaign_cfg(2);
        let report = randomized(&prop, &links, &switches, &cfg, None).unwrap();
        let mut other = cfg;
        other.seed ^= 1;
        assert!(matches!(
            randomized(&prop, &links, &switches, &other, Some(&report)),
            Err(CampaignError::Mismatch(_))
        ));
        let dmodk = DModK::new(&ft);
        let arena_prop = ArenaRoutability::new(ft.topology(), &dmodk).unwrap();
        assert!(matches!(
            randomized(&arena_prop, &links, &switches, &cfg, Some(&report)),
            Err(CampaignError::Mismatch(_))
        ));
        assert!(matches!(
            randomized(&prop, &[], &switches, &cfg, None),
            Err(CampaignError::EmptyUniverse("links"))
        ));
    }

    #[test]
    fn recording_leaves_campaign_results_unchanged() {
        let ft = ft245();
        let topo = ft.topology();
        let dmodk = DModK::new(&ft);
        let deterministic = ArenaRoutability::new(topo, &dmodk).unwrap();
        let deadlock = DeadlockFreedom::new(topo, &dmodk);
        let links = cable_universe(topo);
        let switches = top_switch_universe(topo);
        let universe: Vec<FaultElement> = links.iter().map(|&c| FaultElement::Link(c)).collect();
        let cfg = campaign_cfg(3);
        for prop in [&deterministic as &dyn CampaignProperty, &deadlock] {
            let reg = ftclos_obs::Registry::new();
            assert_eq!(
                format!("{:?}", certify_exhaustive_with(prop, &universe, 2, &Noop)),
                format!("{:?}", certify_exhaustive_with(prop, &universe, 2, &reg)),
                "{}",
                prop.name()
            );
            let plain = randomized(prop, &links, &switches, &cfg, None);
            let recorded =
                run_randomized_with(prop, &links, &switches, &cfg, None, &reg, &mut |_| Ok(true));
            assert_eq!(
                format!("{plain:?}"),
                format!("{recorded:?}"),
                "{}",
                prop.name()
            );
            // The recorder was live: both entry points counted their sets.
            assert!(reg.snapshot().counter("campaign.sets").unwrap() > 1);
            assert_eq!(
                reg.snapshot()
                    .spans
                    .iter()
                    .filter(|s| s.path == "campaign.certify")
                    .count(),
                1
            );
        }
    }

    #[test]
    fn checkpoint_parser_rejects_malformed_input() {
        assert!(CampaignReport::parse_checkpoint("bogus").is_err());
        let ok = concat!(
            "ftclos-campaign-checkpoint v1\n",
            "property routability\n",
            "seed 1\nwaves 2\nwave_size 3\nlinks 1\nswitches 0\nshrink 1\n",
            "waves_done 1\nsets_evaluated 3\n",
            "killer 0 2 L4+S9 min L4 evals 5 detail host 2 severed\n",
            "end\n"
        );
        let r = CampaignReport::parse_checkpoint(ok).unwrap();
        assert_eq!(r.killers.len(), 1);
        assert_eq!(r.killers[0].detail, "host 2 severed");
        assert_eq!(r.to_checkpoint_text(), ok);
        let truncated = ok.replace("end\n", "");
        assert!(CampaignReport::parse_checkpoint(&truncated).is_err());
        let garbled = ok.replace("min L4", "min X4");
        assert!(CampaignReport::parse_checkpoint(&garbled).is_err());
    }

    #[test]
    fn cable_universe_picks_representatives() {
        let ft = ft245();
        let cables = cable_universe(ft.topology());
        // One representative per bidirectional cable: rn leaf + rm fabric.
        assert_eq!(cables.len(), ft.r() * ft.n() + ft.r() * ft.m());
        for &c in &cables {
            let rev = ft.topology().reverse(c).unwrap();
            assert!(c < rev);
        }
        assert_eq!(top_switch_universe(ft.topology()).len(), ft.m());
    }
}
