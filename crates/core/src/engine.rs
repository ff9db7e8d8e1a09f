//! Lemma 1, decided: a census counted from a router's top-choice rule or
//! streamed from its paths for the verdict, and an arena-backed engine for
//! callers that need the paths themselves.
//!
//! Every exact analyzer in this crate decides the same predicate — *each
//! channel carries traffic from one source or to one destination* — over the
//! `p(p-1)` SD paths of a single-path router. The predicate is per channel,
//! so the verdict needs two words per channel ([`LinkCensus`]), not a copy of
//! every path. Three ways to take it:
//!
//! * **Count** when the router declares a top-choice rule (d-mod-k, s-mod-k
//!   and Theorem 3's routing, see `SinglePathRouter::top_rule`): the pairs
//!   crossing each channel are a product of two port sets fixed by the rule
//!   alone, the argument of the proofs of Theorems 2 and 3. Each cell is the
//!   first two elements of a set, so [`lemma1_audit_with`] is an ascending
//!   `O(hosts + channels)` scan that routes nothing and allocates nothing,
//!   and the witness streams the violating channel's product.
//! * **Stream** ([`lemma1_audit_with`] on any other router): one
//!   `sweep::fold_paths` pass folds every path into a census, then
//!   [`crossing_pairs`] re-routes rows in ascending order only until the
//!   witness rule on the lowest violating channel is satisfied. Memory is
//!   `O(channels)`; the sweep stays on one thread, because a second one buys
//!   little and makes the wall time depend on whether a shared host's other
//!   core is free.
//! * **Build an arena** ([`ContentionEngine`]) when the caller asks many
//!   questions of the same paths: [`PathArena`] (from `ftclos-routing`) keeps
//!   every path in CSR form plus the channel → pairs incidence, so a pattern
//!   or a channel's crossing pairs is a slice, not a re-route. The
//!   benchmark's pipeline mirror and the recording experiment use it. It
//!   costs `O(hops)` memory (266 MB on `ftree(16+256, 170)`), and its `u32`
//!   offsets cap a fabric at 2³² hops.
//!
//! `ftclos verify`, [`crate::verify::nonblocking_verdict`],
//! [`crate::verify::is_nonblocking_deterministic`],
//! [`crate::search::find_blocking_two_pair`],
//! [`crate::degraded::deterministic_degradation`] (over the surviving pairs)
//! and [`crate::verify::multipath_violation`] (over candidate-path unions)
//! take a [`LinkCensus`] and pick the witness with one rule (the paper's
//! necessity argument, one function over an ordered stream of crossing
//! pairs, fed in row order), so they report the same [`LinkViolation`],
//! field for field. `tests/engine_differential.rs` pins that, and pins them
//! against the `HashMap` oracles that live in `tests/oracle`.
//! [`ContentionScratch`] is the per-pattern counterpart: epoch-stamped
//! `channel → owner` tables reused across patterns.

use crate::rule::{PortSet, RuleCensus};
use crate::sweep::fold_paths;
use crate::verify::{ContentionWitness, LinkViolation};
use ftclos_obs::{Noop, Recorder};
use ftclos_routing::{PathArena, RouteAssignment, RoutingError, SinglePathRouter};
use ftclos_topo::ChannelId;
use ftclos_traffic::SdPair;

/// Census cell of a channel that no recorded path crosses.
const NONE: u32 = u32::MAX;
/// Census cell of a channel crossed from (or to) two or more distinct ports.
const MANY: u32 = u32::MAX - 1;

/// The least upper bound of two census cells in the lattice
/// `NONE < one(x) < MANY`: recording port `x` is `join(cell, x)`, merging two
/// censuses is a cell-wise join. Associative and commutative.
#[inline]
fn join(a: u32, b: u32) -> u32 {
    if a == NONE || a == b {
        b
    } else if b == NONE {
        a
    } else {
        MANY
    }
}

/// Per-channel source/destination census: two `u32` cells per channel, each
/// `NONE`, one port, or `MANY`.
///
/// Lemma 1 only asks whether a channel has *one* source or *one*
/// destination, so a cell saturates at two distinct ports. Censuses of
/// disjoint path sets [`merge`](LinkCensus::merge) into the census of their
/// union, which is what lets a parallel sweep keep one census per thread.
/// Two censuses are equal when every channel's cells are (a census reads
/// `NONE` past its end, so their lengths need not match).
#[derive(Clone, Debug, Default)]
pub struct LinkCensus {
    /// `[source cell, destination cell]` of each channel.
    cells: Vec<[u32; 2]>,
}

impl PartialEq for LinkCensus {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.cells.len() <= other.cells.len() {
            (&self.cells, &other.cells)
        } else {
            (&other.cells, &self.cells)
        };
        let (head, tail) = long.split_at(short.len());
        head == short.as_slice() && tail.iter().all(|cell| *cell == [NONE; 2])
    }
}

impl Eq for LinkCensus {}

impl LinkCensus {
    /// An empty census sized for `num_channels` channels.
    pub fn with_channels(num_channels: usize) -> Self {
        Self {
            cells: vec![[NONE; 2]; num_channels],
        }
    }

    /// Record that pair `(s, d)`'s path crosses channel `c` (the census grows
    /// to cover `c`). Ports must be below `u32::MAX - 1`.
    #[inline]
    pub fn record(&mut self, c: ChannelId, s: u32, d: u32) {
        debug_assert!(s < MANY && d < MANY, "port ids collide with the cell tags");
        let i = c.index();
        if i >= self.cells.len() {
            self.cells.resize(i + 1, [NONE; 2]);
        }
        let cell = &mut self.cells[i];
        cell[0] = join(cell[0], s);
        cell[1] = join(cell[1], d);
    }

    /// The census of both record sets: a cell-wise join (associative and
    /// commutative, so per-thread censuses merge in any grouping).
    pub fn merge(mut self, mut other: Self) -> Self {
        if self.cells.len() < other.cells.len() {
            std::mem::swap(&mut self, &mut other);
        }
        for (mine, theirs) in self.cells.iter_mut().zip(&other.cells) {
            mine[0] = join(mine[0], theirs[0]);
            mine[1] = join(mine[1], theirs[1]);
        }
        self
    }

    #[inline]
    fn count(cell: u32) -> usize {
        match cell {
            NONE => 0,
            MANY => 2,
            _ => 1,
        }
    }

    /// Distinct sources recorded on `c`, saturated at 2.
    #[inline]
    pub fn num_sources(&self, c: ChannelId) -> usize {
        self.cells
            .get(c.index())
            .map_or(0, |cell| Self::count(cell[0]))
    }

    /// Distinct destinations recorded on `c`, saturated at 2.
    #[inline]
    pub fn num_destinations(&self, c: ChannelId) -> usize {
        self.cells
            .get(c.index())
            .map_or(0, |cell| Self::count(cell[1]))
    }

    /// True when `c` carries ≥2 distinct sources **and** ≥2 distinct
    /// destinations — the Lemma 1 violation predicate.
    #[inline]
    pub fn violates(&self, c: ChannelId) -> bool {
        self.cells.get(c.index()) == Some(&[MANY; 2])
    }

    /// The lowest-id channel violating Lemma 1, if any: an ascending scan, so
    /// the answer does not depend on the order paths were recorded in.
    pub(crate) fn first_violation(&self) -> Option<ChannelId> {
        self.cells
            .iter()
            .position(|cell| *cell == [MANY; 2])
            .map(|i| ChannelId(i as u32))
    }
}

/// Lemma 1's necessity argument as code: the two-pair witness on `channel`,
/// read off its crossing pairs in order, or `None` when they span fewer than
/// two sources or two destinations.
///
/// `a` is the first pair and `b` the first with another source. If `b` also
/// has another destination, `(a, b)` is the witness. Otherwise the first pair
/// `t` with another destination than `a` differs in source from `a` or from
/// `b` (which differ from each other), and pairs with that one. The stream is
/// consumed only until the rule is satisfied.
pub(crate) fn lemma1_witness(
    channel: ChannelId,
    crossing: impl IntoIterator<Item = SdPair>,
) -> Option<LinkViolation> {
    let witness = |p: SdPair, q: SdPair| LinkViolation {
        channel,
        sources: [p.src, q.src],
        destinations: [p.dst, q.dst],
    };
    let mut crossing = crossing.into_iter();
    let a = crossing.next()?;
    let (mut b, mut t) = (None::<SdPair>, None::<SdPair>);
    for q in crossing {
        if b.is_none() && q.src != a.src {
            b = Some(q);
        }
        if t.is_none() && q.dst != a.dst {
            t = Some(q);
        }
        match (b, t) {
            (Some(b), _) if b.dst != a.dst => return Some(witness(a, b)),
            (Some(b), Some(t)) => return Some(witness(if t.src != a.src { a } else { b }, t)),
            _ => {}
        }
    }
    None
}

/// A port set read as a census cell: its first two elements, as `NONE`,
/// `one(x)` or `MANY`.
impl PortSet {
    #[inline]
    fn cell(&self) -> u32 {
        match self.first() {
            None => NONE,
            Some(x) if self.after(x).is_some() => MANY,
            Some(x) => x as u32,
        }
    }
}

/// Lemma 1 by counting: the census of a router that follows a top-choice
/// rule on `ftree(n+m, r)`, read off the crossing sets `S × D` of
/// [`RuleCensus::crossing`] instead of routing `p(p-1)` pairs.
impl RuleCensus {
    /// Channel `c`'s `[source cell, destination cell]`.
    #[inline]
    fn cell(&self, c: u64) -> [u32; 2] {
        let (src, dst) = self.crossing(c);
        match [src.cell(), dst.cell()] {
            [NONE, _] | [_, NONE] => [NONE; 2],
            cells => cells,
        }
    }

    /// The whole census, cell for cell what routing every pair records.
    fn census(&self) -> LinkCensus {
        LinkCensus {
            cells: (0..self.channels).map(|c| self.cell(c)).collect(),
        }
    }

    /// [`LinkCensus::first_violation`] without the census: an ascending scan
    /// that stops at the first `[MANY, MANY]` cell and allocates nothing.
    fn first_violation(&self) -> Option<ChannelId> {
        (0..self.channels)
            .find(|&c| self.cell(c) == [MANY; 2])
            .map(|c| ChannelId(c as u32))
    }

    /// The witness on `channel`: [`lemma1_witness`] over `S × D` in row
    /// order, the order in which a sweep meets the crossing pairs.
    fn witness(&self, channel: ChannelId) -> Option<LinkViolation> {
        let (src, dst) = self.crossing(channel.index() as u64);
        let crossing = src
            .iter()
            .flat_map(move |s| dst.iter().map(move |d| SdPair::new(s, d)));
        lemma1_witness(channel, crossing)
    }
}

/// The streaming Lemma 1 audit: the lowest-id violating channel with its
/// two-pair witness, or `None` when the routing is nonblocking — the same
/// answer as [`ContentionEngine::lemma1_violation_with`], without storing a
/// path.
///
/// A router that declares a top-choice rule (see
/// [`SinglePathRouter::top_rule`]) is decided by counting (span
/// `lemma1.closed_form`): an `O(hosts + channels)` scan of cells computed
/// from the rule, no routing. Any other router is swept: pass 1 (span
/// `lemma1.sweep`, gauge `par.threads`) folds every path into a
/// [`LinkCensus`] on the calling thread. Either way counter `lemma1.paths`
/// records the `p(p-1)` paths decided. On a violation, span
/// `lemma1.witness` streams the pairs crossing the violating channel in row
/// order into the witness rule until it is satisfied: read off the rule, or
/// re-routed row by row.
///
/// # Errors
/// The first routing error in row order (see `fold_paths`); the same error
/// [`PathArena::build_with`] reports. A router with a rule does not fail.
pub fn lemma1_audit_with<R, Rec>(
    router: &R,
    rec: &Rec,
) -> Result<Option<LinkViolation>, RoutingError>
where
    R: SinglePathRouter + Sync + ?Sized,
    Rec: Recorder,
{
    let Some(channel) = first_violating_channel(router, rec)? else {
        return Ok(None);
    };
    let _witness = rec.span("lemma1.witness");
    let witness = match router.top_rule() {
        Some((ft, rule)) => RuleCensus::new(ft, rule).witness(channel),
        None => lemma1_witness(channel, crossing_pairs(router, channel)),
    };
    Ok(Some(witness.expect(
        "the census saw >= 2 sources and >= 2 destinations on the channel",
    )))
}

/// The pairs whose path crosses `channel`, in row order `(s, d)` ascending:
/// every pair re-routed lazily, so a consumer that stops early routes only
/// the rows it read. A pair the router refuses is skipped.
pub fn crossing_pairs<'a, R>(router: &'a R, channel: ChannelId) -> impl Iterator<Item = SdPair> + 'a
where
    R: SinglePathRouter + ?Sized,
{
    let ports = router.ports();
    let mut path = Vec::new();
    (0..ports)
        .flat_map(move |s| {
            (0..ports)
                .filter(move |&d| d != s)
                .map(move |d| SdPair::new(s, d))
        })
        .filter(move |&pair| {
            router.try_route_into(pair, &mut path).is_ok() && path.contains(&channel)
        })
}

/// The full Lemma 1 census of `router`: computed from its top-choice rule
/// when it declares one, else swept from every path. The two agree cell for cell on
/// every rule router (`tests/engine_differential.rs`).
///
/// # Errors
/// As [`lemma1_audit_with`].
pub fn lemma1_census<R>(router: &R) -> Result<LinkCensus, RoutingError>
where
    R: SinglePathRouter + Sync + ?Sized,
{
    match router.top_rule() {
        Some((ft, rule)) => Ok(RuleCensus::new(ft, rule).census()),
        None => sweep_census(router, &Noop),
    }
}

/// Threads the Lemma 1 census sweeps on. One: on `ftree(16+256, 170)` the
/// sweep is ≈ 85 ms on one core, and a second thread takes it to ≈ 50 ms only
/// while the second core is idle; on a shared host whose second core comes
/// and goes, that makes the wall time bimodal (51 – 97 ms over repeated runs
/// at two threads, 83 – 91 ms at one). The census is thread-count invariant
/// either way (`fold_paths` merges in block order).
pub(crate) const LEMMA1_THREADS: usize = 1;

/// Route every pair of `router` into one census (span `lemma1.sweep`).
fn sweep_census<R, Rec>(router: &R, rec: &Rec) -> Result<LinkCensus, RoutingError>
where
    R: SinglePathRouter + Sync + ?Sized,
    Rec: Recorder,
{
    let _sweep = rec.span("lemma1.sweep");
    fold_paths(
        router,
        LEMMA1_THREADS,
        LinkCensus::default,
        |census, pair, path| {
            for &c in path {
                census.record(c, pair.src, pair.dst);
            }
        },
        LinkCensus::merge,
        rec,
    )
}

/// The decision half of [`lemma1_audit_with`]: the lowest-id channel
/// violating Lemma 1, counted from the router's rule or swept.
pub(crate) fn first_violating_channel<R, Rec>(
    router: &R,
    rec: &Rec,
) -> Result<Option<ChannelId>, RoutingError>
where
    R: SinglePathRouter + Sync + ?Sized,
    Rec: Recorder,
{
    let first = match router.top_rule() {
        Some((ft, rule)) => {
            let _closed_form = rec.span("lemma1.closed_form");
            RuleCensus::new(ft, rule).first_violation()
        }
        None => sweep_census(router, rec)?.first_violation(),
    };
    let p = router.ports() as u64;
    rec.add("lemma1.paths", p * p.saturating_sub(1));
    Ok(first)
}

/// Epoch-stamped `channel → owning pair` table for per-pattern contention
/// checks: dense, reusable across patterns, no hashing.
#[derive(Clone, Debug, Default)]
pub struct ContentionScratch {
    epoch: u32,
    stamp: Vec<u32>,
    owner: Vec<SdPair>,
    loads: Vec<u32>,
    touched: Vec<ChannelId>,
}

impl ContentionScratch {
    /// A scratch sized for `num_channels` channels (it also grows on demand).
    pub fn with_channels(num_channels: usize) -> Self {
        Self {
            epoch: 0,
            stamp: vec![0; num_channels],
            owner: vec![SdPair::new(0, 0); num_channels],
            loads: vec![0; num_channels],
            touched: Vec::new(),
        }
    }

    fn begin(&mut self) {
        let (bumped, wrapped) = self.epoch.overflowing_add(1);
        self.epoch = bumped;
        if wrapped {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Find two pairs of `assignment` sharing a channel, if any: the first
    /// channel, in route order, that a second pair reaches, with its earlier
    /// owner as `a`. Reuses this scratch's buffers across calls
    /// (grow-on-demand, no hashing, no clearing).
    pub fn find_contention(&mut self, assignment: &RouteAssignment) -> Option<ContentionWitness> {
        self.begin();
        for (pair, path) in assignment.routes() {
            for &c in path.channels() {
                let i = c.index();
                if i >= self.stamp.len() {
                    self.stamp.resize(i + 1, 0);
                    self.owner.resize(i + 1, SdPair::new(0, 0));
                }
                if self.stamp[i] == self.epoch {
                    return Some(ContentionWitness {
                        channel: c,
                        a: self.owner[i],
                        b: *pair,
                    });
                }
                self.stamp[i] = self.epoch;
                self.owner[i] = *pair;
            }
        }
        None
    }

    /// The maximum link load of `assignment` with its deterministic
    /// witness — the **lowest-id** channel carrying that load — or `None`
    /// when no path crosses any channel. Same epoch-stamp discipline as
    /// [`ContentionScratch::find_contention`]: one pass over the
    /// assignment, zero hashing, buffers reused (and grown on demand)
    /// across calls. This is the per-pattern congestion verdict the
    /// min-congestion head-to-heads normalize on, so it must not depend on
    /// route order, thread count, or hash iteration.
    pub fn max_load_witness(&mut self, assignment: &RouteAssignment) -> Option<(ChannelId, u32)> {
        self.begin();
        self.touched.clear();
        for (_, path) in assignment.routes() {
            for &c in path.channels() {
                let i = c.index();
                if i >= self.stamp.len() {
                    self.stamp.resize(i + 1, 0);
                    self.owner.resize(i + 1, SdPair::new(0, 0));
                }
                if i >= self.loads.len() {
                    self.loads.resize(i + 1, 0);
                }
                if self.stamp[i] != self.epoch {
                    self.stamp[i] = self.epoch;
                    self.loads[i] = 0;
                    self.touched.push(c);
                }
                self.loads[i] += 1;
            }
        }
        let max = self.touched.iter().map(|c| self.loads[c.index()]).max()?;
        let witness = self
            .touched
            .iter()
            .copied()
            .filter(|c| self.loads[c.index()] == max)
            .min()
            .expect("max came from touched");
        Some((witness, max))
    }
}

/// The reusable contention engine for one single-path router: arena +
/// census, built once, queried many times. For a one-shot verdict,
/// [`lemma1_audit_with`] gives the same answer without the arena.
#[derive(Clone, Debug)]
pub struct ContentionEngine {
    arena: PathArena,
    census: LinkCensus,
}

impl ContentionEngine {
    /// Route every SD pair once into the arena and take the full census.
    /// The arena build records under `arena.build` (see
    /// [`PathArena::build_with`]) and the census pass under `engine.census`,
    /// with counter `engine.census_records` (path entries censused).
    ///
    /// # Errors
    /// Propagates the router's routing errors (see [`PathArena::build_with`]).
    pub fn new_with<R: SinglePathRouter + ?Sized, Rec: Recorder>(
        router: &R,
        rec: &Rec,
    ) -> Result<Self, RoutingError> {
        let arena = PathArena::build_with(router, rec)?;
        Ok(Self::from_arena_with(arena, rec))
    }

    /// Wrap an existing arena: the census pass of
    /// [`ContentionEngine::new_with`], recorded the same way.
    pub fn from_arena_with<Rec: Recorder>(arena: PathArena, rec: &Rec) -> Self {
        let _span = rec.span("engine.census");
        let mut census = LinkCensus::with_channels(arena.num_channels());
        Self::record_all(&arena, &mut census);
        rec.add("engine.census_records", arena.total_hops() as u64);
        Self { arena, census }
    }

    fn record_all(arena: &PathArena, census: &mut LinkCensus) {
        let ports = arena.ports();
        for s in 0..ports {
            for d in 0..ports {
                if s == d {
                    continue;
                }
                for &c in arena.path(SdPair::new(s, d)) {
                    census.record(c, s, d);
                }
            }
        }
    }

    /// The underlying path arena.
    pub fn arena(&self) -> &PathArena {
        &self.arena
    }

    /// The current census.
    pub fn census(&self) -> &LinkCensus {
        &self.census
    }

    /// The Lemma 1 verdict: the lowest-id violating channel with an exact
    /// two-pair witness, or `None` when the routing is nonblocking.
    ///
    /// The witness is `lemma1_witness` over the channel's incidence list,
    /// so it equals [`lemma1_audit_with`]'s. The census scan records under
    /// span `engine.scan` (plus counter `engine.channels_scanned`) and
    /// witness construction under `engine.witness`.
    pub fn lemma1_violation_with<Rec: Recorder>(&self, rec: &Rec) -> Option<LinkViolation> {
        let scan = rec.span("engine.scan");
        rec.add("engine.channels_scanned", self.arena.num_channels() as u64);
        let c = self.census.first_violation();
        drop(scan);
        let c = c?;
        let _witness = rec.span("engine.witness");
        Some(
            lemma1_witness(c, self.arena.sd_pairs_on(c))
                .expect("the census saw >= 2 sources and >= 2 destinations on the channel"),
        )
    }

    /// Is the router nonblocking per Lemma 1? (Exact, complete.)
    pub fn is_nonblocking(&self) -> bool {
        self.census.first_violation().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclos_routing::{route_all, DModK, YuanDeterministic};
    use ftclos_topo::Ftree;
    use ftclos_traffic::patterns;

    #[test]
    fn census_records_and_grows() {
        let mut census = LinkCensus::with_channels(8);
        census.record(ChannelId(3), 0, 1);
        census.record(ChannelId(3), 2, 5);
        assert_eq!(census.num_sources(ChannelId(3)), 2);
        assert!(census.violates(ChannelId(3)));
        assert_eq!(census.first_violation(), Some(ChannelId(3)));
        census.record(ChannelId(5), 7, 7);
        assert_eq!(census.num_sources(ChannelId(5)), 1);
        // Past the sized range: the census grows instead of panicking.
        assert_eq!(census.num_destinations(ChannelId(40)), 0);
        census.record(ChannelId(40), 1, 2);
        census.record(ChannelId(40), 2, 1);
        assert!(census.violates(ChannelId(40)));
        assert_eq!(census.first_violation(), Some(ChannelId(3)));
    }

    #[test]
    fn census_merge_is_the_census_of_the_union() {
        // Split one record stream at every point, in both merge orders.
        let records: Vec<(u32, u32, u32)> = (0..40u32)
            .map(|i| (i * 7 % 5, i % 3, (i * 11) % 4))
            .collect();
        let mut whole = LinkCensus::default();
        for &(c, s, d) in &records {
            whole.record(ChannelId(c), s, d);
        }
        for cut in 0..=records.len() {
            let mut left = LinkCensus::default();
            let mut right = LinkCensus::with_channels(2);
            for &(c, s, d) in &records[..cut] {
                left.record(ChannelId(c), s, d);
            }
            for &(c, s, d) in &records[cut..] {
                right.record(ChannelId(c), s, d);
            }
            for merged in [
                left.clone().merge(right.clone()),
                right.clone().merge(left.clone()),
            ] {
                for c in (0..6).map(ChannelId) {
                    assert_eq!(merged.num_sources(c), whole.num_sources(c), "cut {cut}");
                    assert_eq!(merged.num_destinations(c), whole.num_destinations(c));
                    assert_eq!(merged.violates(c), whole.violates(c));
                }
                assert_eq!(merged.first_violation(), whole.first_violation());
            }
        }
    }

    #[test]
    fn witness_rule_reads_the_stream_in_order() {
        let c = ChannelId(9);
        let p = SdPair::new;
        // b already differs in destination: (a, b).
        let v = lemma1_witness(c, [p(0, 5), p(0, 6), p(1, 7)]).unwrap();
        assert_eq!((v.sources, v.destinations), ([0, 1], [5, 7]));
        // b shares a's destination; t (seen before b) pairs with b.
        let v = lemma1_witness(c, [p(0, 5), p(0, 6), p(1, 5)]).unwrap();
        assert_eq!((v.sources, v.destinations), ([1, 0], [5, 6]));
        // t after b, with a third source: pairs with a.
        let v = lemma1_witness(c, [p(0, 5), p(1, 5), p(2, 6)]).unwrap();
        assert_eq!((v.sources, v.destinations), ([0, 2], [5, 6]));
        // One source or one destination: no witness.
        assert!(lemma1_witness(c, [p(0, 5), p(0, 6)]).is_none());
        assert!(lemma1_witness(c, [p(0, 5), p(1, 5)]).is_none());
        assert!(lemma1_witness(c, []).is_none());
        // The stream is read only until the rule is satisfied.
        let mut read = 0;
        let stream = [p(0, 5), p(1, 6), p(2, 7)]
            .into_iter()
            .inspect(|_| read += 1);
        assert!(lemma1_witness(c, stream).is_some());
        assert_eq!(read, 2);
    }

    /// Forwards routing and hides the router's rule, so Lemma 1 is swept.
    struct Swept<R>(R);

    impl<R: SinglePathRouter> SinglePathRouter for Swept<R> {
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

    fn span_paths(reg: &ftclos_obs::Registry) -> Vec<String> {
        reg.snapshot().spans.into_iter().map(|s| s.path).collect()
    }

    #[test]
    fn streaming_audit_records_sweep_spans() {
        let ft = Ftree::new(2, 2, 5).unwrap();
        // A rule router is counted: no sweep, no thread gauge.
        let counted = ftclos_obs::Registry::new();
        let closed = lemma1_audit_with(&DModK::new(&ft), &counted).unwrap();
        assert!(closed.is_some());
        assert_eq!(
            span_paths(&counted),
            ["lemma1.closed_form", "lemma1.witness"]
        );
        assert_eq!(counted.snapshot().counter("lemma1.paths"), Some(90));
        assert_eq!(counted.snapshot().gauge("par.threads"), None);
        // The same routes with the rule hidden are swept on one thread.
        let swept = ftclos_obs::Registry::new();
        let routed = lemma1_audit_with(&Swept(DModK::new(&ft)), &swept).unwrap();
        assert_eq!(routed, closed);
        assert_eq!(span_paths(&swept), ["lemma1.sweep", "lemma1.witness"]);
        let snap = swept.snapshot();
        assert_eq!(snap.counter("lemma1.paths"), Some(90));
        assert_eq!(snap.gauge("par.threads"), Some(1));
    }

    #[test]
    fn port_set_cells_are_their_first_two_elements() {
        let all = PortSet::range(0, 20);
        assert_eq!(PortSet::range(0, 0).cell(), NONE);
        assert_eq!(all.outside([4, 8]).class(9, 5).cell(), 14);
        assert_eq!(all.outside([4, 8]).class(9, 3).cell(), MANY);
    }

    #[test]
    fn census_saturates_at_two() {
        let mut census = LinkCensus::with_channels(2);
        for s in 0..5 {
            census.record(ChannelId(0), s, 9);
        }
        assert_eq!(census.num_sources(ChannelId(0)), 2);
        assert_eq!(census.num_destinations(ChannelId(0)), 1);
        assert!(!census.violates(ChannelId(0)));
    }

    #[test]
    fn engine_clean_on_theorem3_routing() {
        let ft = Ftree::new(3, 9, 7).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let engine = ContentionEngine::new_with(&router, &Noop).unwrap();
        assert!(engine.is_nonblocking());
        assert!(engine.lemma1_violation_with(&Noop).is_none());
    }

    #[test]
    fn max_load_witness_matches_channel_loads() {
        let ft = Ftree::new(2, 2, 5).unwrap();
        let router = DModK::new(&ft);
        let mut scratch = ContentionScratch::default();
        for k in 0..10 {
            let perm = patterns::shift(10, k);
            let a = route_all(&router, &perm).unwrap();
            let got = scratch.max_load_witness(&a);
            let loads = a.channel_loads();
            match got {
                None => assert!(loads.is_empty(), "shift:{k}"),
                Some((witness, max)) => {
                    assert_eq!(max, a.max_channel_load(), "shift:{k}");
                    assert_eq!(loads[&witness], max, "shift:{k}");
                    // Deterministic: lowest-id among the max-loaded.
                    for (&c, &l) in &loads {
                        if l == max {
                            assert!(witness <= c, "shift:{k}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn max_load_witness_epoch_reuse_and_empty_assignment() {
        let mut scratch = ContentionScratch::with_channels(4);
        assert_eq!(
            scratch.max_load_witness(&RouteAssignment::new(vec![])),
            None
        );
        let ft = Ftree::new(2, 4, 3).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(6, 1);
        let a = route_all(&router, &perm).unwrap();
        let first = scratch.max_load_witness(&a);
        // Interleave a contention probe, then repeat: stale stamps/loads
        // from other epochs must not leak into the verdict.
        let _ = scratch.find_contention(&a);
        assert_eq!(scratch.max_load_witness(&a), first);
        assert_eq!(first.map(|(_, m)| m), Some(1));
    }

    #[test]
    fn recorded_engine_matches_plain_and_emits_spans() {
        let ft = Ftree::new(2, 2, 5).unwrap();
        let router = DModK::new(&ft);
        let plain = ContentionEngine::new_with(&router, &Noop).unwrap();
        let reg = ftclos_obs::Registry::new();
        let recorded = ContentionEngine::new_with(&router, &reg).unwrap();
        assert_eq!(
            plain.lemma1_violation_with(&Noop),
            recorded.lemma1_violation_with(&reg)
        );
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("engine.census_records"),
            Some(recorded.arena().total_hops() as u64)
        );
        for path in [
            "arena.build",
            "engine.census",
            "engine.scan",
            "engine.witness",
        ] {
            assert!(
                snap.spans.iter().any(|s| s.path == path),
                "missing span {path}"
            );
        }
    }
}
