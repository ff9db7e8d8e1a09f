//! The arena-backed contention engine: allocation-free Lemma 1 decisions.
//!
//! Every exact analyzer in this crate decides the same predicate — *each
//! channel carries traffic from one source or to one destination* — over the
//! `r(r-1)n²` SD paths of a single-path router. The legacy implementations
//! ([`crate::verify::LinkAudit`], the `O(p⁴)` two-pair loop) hash every
//! channel of every path into fresh `HashMap`s on every call; this module
//! replaces the hashing with three dense structures:
//!
//! * [`PathArena`] (from `ftclos-routing`) — all paths routed **once** into
//!   CSR storage, with the transposed channel → pair incidence lists;
//! * [`LinkCensus`] — a per-channel source/destination census in flat
//!   vectors stamped by a generation counter, so repeated audits reuse one
//!   buffer with zero clearing and zero hashing;
//! * [`ContentionScratch`] — the same epoch-stamp trick for per-pattern
//!   contention checks (`channel → owning pair` tables reused across
//!   patterns).
//!
//! [`ContentionEngine`] ties them together: build once per router, then ask
//! for the Lemma 1 verdict, the blocking two-pair witness, or per-channel
//! censuses — all by indexing. The legacy implementations are kept verbatim
//! as differential oracles; `tests/engine_differential.rs` pins the two
//! sides to identical verdicts across fabric shapes, routers, and fault
//! masks.

use crate::verify::{ContentionWitness, LinkViolation};
use ftclos_obs::{Noop, Recorder};
use ftclos_routing::{PathArena, RouteAssignment, RoutingError, SinglePathRouter};
use ftclos_topo::ChannelId;
use ftclos_traffic::SdPair;

/// Census entries saturate at 2 distinct endpoints: Lemma 1 only asks
/// whether a channel has *one* source or *one* destination, and a violation
/// witness needs at most two of each.
const SATURATE: u8 = 2;

/// Per-channel source/destination census in dense, epoch-stamped tables.
///
/// A generation counter replaces clearing: a channel's entry is live only
/// when its stamp equals the current epoch, so [`LinkCensus::begin`] is
/// O(1) (amortized — the stamp vector is zeroed once per `u32` wraparound,
/// i.e. effectively never) and repeated censuses over the same fabric
/// allocate nothing.
#[derive(Clone, Debug, Default)]
pub struct LinkCensus {
    epoch: u32,
    stamp: Vec<u32>,
    /// Up to two distinct sources / destinations seen per channel.
    src: Vec<[u32; 2]>,
    dst: Vec<[u32; 2]>,
    nsrc: Vec<u8>,
    ndst: Vec<u8>,
    /// Channels touched in the current epoch, in first-touch order.
    touched: Vec<ChannelId>,
}

impl LinkCensus {
    /// An empty census sized for `num_channels` channels.
    pub fn with_channels(num_channels: usize) -> Self {
        let mut c = Self::default();
        c.grow(num_channels);
        c
    }

    fn grow(&mut self, num_channels: usize) {
        if self.stamp.len() < num_channels {
            self.stamp.resize(num_channels, 0);
            self.src.resize(num_channels, [0; 2]);
            self.dst.resize(num_channels, [0; 2]);
            self.nsrc.resize(num_channels, 0);
            self.ndst.resize(num_channels, 0);
        }
    }

    /// Start a fresh census over `num_channels` channels. No per-channel
    /// clearing: the epoch bump invalidates every previous entry.
    pub fn begin(&mut self, num_channels: usize) {
        self.grow(num_channels);
        self.touched.clear();
        let (bumped, wrapped) = self.epoch.overflowing_add(1);
        self.epoch = bumped;
        if wrapped {
            // Once per 2³² epochs: stale stamps could alias epoch 0.
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Record that pair `(s, d)`'s path crosses channel `c`.
    #[inline]
    pub fn record(&mut self, c: ChannelId, s: u32, d: u32) {
        let i = c.index();
        if self.stamp[i] != self.epoch {
            self.stamp[i] = self.epoch;
            self.src[i] = [s, 0];
            self.dst[i] = [d, 0];
            self.nsrc[i] = 1;
            self.ndst[i] = 1;
            self.touched.push(c);
            return;
        }
        if self.nsrc[i] < SATURATE && self.src[i][0] != s {
            self.src[i][1] = s;
            self.nsrc[i] = 2;
        }
        if self.ndst[i] < SATURATE && self.dst[i][0] != d {
            self.dst[i][1] = d;
            self.ndst[i] = 2;
        }
    }

    /// Distinct sources recorded on `c` this epoch, saturated at 2.
    #[inline]
    pub fn num_sources(&self, c: ChannelId) -> usize {
        if self.live(c) {
            self.nsrc[c.index()] as usize
        } else {
            0
        }
    }

    /// Distinct destinations recorded on `c` this epoch, saturated at 2.
    #[inline]
    pub fn num_destinations(&self, c: ChannelId) -> usize {
        if self.live(c) {
            self.ndst[c.index()] as usize
        } else {
            0
        }
    }

    #[inline]
    fn live(&self, c: ChannelId) -> bool {
        c.index() < self.stamp.len() && self.stamp[c.index()] == self.epoch
    }

    /// Channels carrying any traffic this epoch, in first-touch order.
    pub fn touched(&self) -> &[ChannelId] {
        &self.touched
    }

    /// True when `c` carries ≥2 distinct sources **and** ≥2 distinct
    /// destinations — the Lemma 1 violation predicate.
    #[inline]
    pub fn violates(&self, c: ChannelId) -> bool {
        self.live(c) && self.nsrc[c.index()] >= 2 && self.ndst[c.index()] >= 2
    }

    /// The lowest-id channel violating Lemma 1 this epoch, if any.
    /// (Lowest-id, not first-touch: deterministic regardless of the record
    /// order.)
    pub fn first_violation(&self) -> Option<ChannelId> {
        self.touched
            .iter()
            .copied()
            .filter(|&c| self.violates(c))
            .min()
    }
}

/// Epoch-stamped `channel → owning pair` table for per-pattern contention
/// checks: a reusable, allocation-free replacement for the
/// `HashMap<ChannelId, SdPair>` in [`crate::verify::find_contention`].
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

    /// Find two pairs of `assignment` sharing a channel, if any — same
    /// contract as [`crate::verify::find_contention`], but reusing this
    /// scratch's buffers across calls (grow-on-demand, no hashing, no
    /// clearing).
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
/// census, built once, queried many times.
#[derive(Clone, Debug)]
pub struct ContentionEngine {
    arena: PathArena,
    census: LinkCensus,
}

impl ContentionEngine {
    /// Route every SD pair once into the arena and take the full census.
    ///
    /// # Errors
    /// Propagates the router's routing errors (see [`PathArena::build`]).
    pub fn new<R: SinglePathRouter + ?Sized>(router: &R) -> Result<Self, RoutingError> {
        Ok(Self::from_arena(PathArena::build(router)?))
    }

    /// [`ContentionEngine::new`] with instrumentation: the arena build
    /// records under `arena.build` (see [`PathArena::build_with`]) and the
    /// census pass under `engine.census`, with counters
    /// `engine.census_records` (path entries censused) and
    /// `engine.channels_touched`. With [`Noop`] this is exactly `new`.
    ///
    /// # Errors
    /// Propagates the router's routing errors (see [`PathArena::build`]).
    pub fn new_with<R: SinglePathRouter + ?Sized, Rec: Recorder>(
        router: &R,
        rec: &Rec,
    ) -> Result<Self, RoutingError> {
        let arena = PathArena::build_with(router, rec)?;
        Ok(Self::from_arena_with(arena, rec))
    }

    /// Wrap an existing arena (shares the census build).
    pub fn from_arena(arena: PathArena) -> Self {
        Self::from_arena_with(arena, &Noop)
    }

    /// [`ContentionEngine::from_arena`] with the census pass recorded.
    pub fn from_arena_with<Rec: Recorder>(arena: PathArena, rec: &Rec) -> Self {
        let _span = rec.span("engine.census");
        let mut census = LinkCensus::with_channels(arena.num_channels());
        census.begin(arena.num_channels());
        Self::record_all(&arena, &mut census);
        rec.add("engine.census_records", arena.total_hops() as u64);
        rec.add("engine.channels_touched", census.touched().len() as u64);
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

    /// Re-take the census from the arena into the same buffers (what a
    /// repeated audit costs once the arena exists: one epoch bump plus one
    /// pass over the CSR — zero allocation, zero hashing).
    pub fn recount(&mut self) {
        let mut census = std::mem::take(&mut self.census);
        census.begin(self.arena.num_channels());
        Self::record_all(&self.arena, &mut census);
        self.census = census;
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
    /// two-pair witness, or `Ok(())` when the routing is nonblocking.
    ///
    /// The witness construction mirrors the paper's necessity proof, reading
    /// crossing pairs off the arena's incidence list instead of re-routing:
    /// a channel with ≥2 sources and ≥2 destinations among its crossing
    /// pairs always admits two pairs with distinct sources *and* distinct
    /// destinations.
    pub fn lemma1_violation(&self) -> Option<LinkViolation> {
        self.lemma1_violation_with(&Noop)
    }

    /// [`ContentionEngine::lemma1_violation`] with instrumentation: the
    /// census scan records under span `engine.scan` (plus counter
    /// `engine.channels_scanned`) and witness construction under
    /// `engine.witness`.
    pub fn lemma1_violation_with<Rec: Recorder>(&self, rec: &Rec) -> Option<LinkViolation> {
        let scan = rec.span("engine.scan");
        rec.add(
            "engine.channels_scanned",
            self.census.touched().len() as u64,
        );
        let c = self.census.first_violation();
        drop(scan);
        let c = c?;
        let _witness = rec.span("engine.witness");
        Some(self.violation_witness(c))
    }

    /// Construct the two-pair witness on a channel known to violate the
    /// census predicate.
    fn violation_witness(&self, c: ChannelId) -> LinkViolation {
        let pairs = self.arena.pairs_on(c);
        debug_assert!(!pairs.is_empty());
        let a = self.arena.pair_of(pairs[0]);
        // First crossing pair with a different source.
        let b = pairs
            .iter()
            .map(|&i| self.arena.pair_of(i))
            .find(|q| q.src != a.src)
            .expect("census saw >= 2 sources");
        if b.dst != a.dst {
            return LinkViolation {
                channel: c,
                sources: [a.src, b.src],
                destinations: [a.dst, b.dst],
            };
        }
        // a and b share a destination; some crossing pair t has another.
        let t = pairs
            .iter()
            .map(|&i| self.arena.pair_of(i))
            .find(|q| q.dst != a.dst)
            .expect("census saw >= 2 destinations");
        // t's source differs from at least one of a, b (they differ from
        // each other); pair it with that one.
        let other = if t.src != a.src { a } else { b };
        LinkViolation {
            channel: c,
            sources: [other.src, t.src],
            destinations: [other.dst, t.dst],
        }
    }

    /// Is the router nonblocking per Lemma 1? (Exact, complete.)
    pub fn is_nonblocking(&self) -> bool {
        self.census.first_violation().is_none()
    }

    /// The blocking two-pair witness via a per-channel sweep: instead of
    /// routing all `O(p⁴)` two-pair patterns, scan the touched channels'
    /// censuses and materialize the witness from the incidence list of the
    /// lowest violating channel (lowest id, not first touched, so the answer
    /// does not depend on the order paths were recorded in).
    pub fn blocking_witness(&self) -> Option<(ChannelId, [SdPair; 2])> {
        self.blocking_witness_with(&Noop)
    }

    /// [`ContentionEngine::blocking_witness`] with the channel scan and
    /// witness normalization recorded (spans `engine.scan` /
    /// `engine.witness`, counter `engine.channels_scanned`).
    pub fn blocking_witness_with<Rec: Recorder>(
        &self,
        rec: &Rec,
    ) -> Option<(ChannelId, [SdPair; 2])> {
        let scan = rec.span("engine.scan");
        rec.add(
            "engine.channels_scanned",
            self.census.touched().len() as u64,
        );
        let first = self
            .census
            .touched()
            .iter()
            .copied()
            .filter(|&c| self.census.violates(c))
            .min();
        drop(scan);
        let c = first?;
        let _witness = rec.span("engine.witness");
        let v = self.violation_witness(c);
        Some((
            c,
            [
                SdPair::new(v.sources[0], v.destinations[0]),
                SdPair::new(v.sources[1], v.destinations[1]),
            ],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{find_contention, LinkAudit};
    use ftclos_routing::{route_all, DModK, SModK, YuanDeterministic};
    use ftclos_topo::Ftree;
    use ftclos_traffic::{patterns, Permutation};

    #[test]
    fn census_epoch_reuse_without_clearing() {
        let mut census = LinkCensus::with_channels(8);
        census.begin(8);
        census.record(ChannelId(3), 0, 1);
        census.record(ChannelId(3), 2, 5);
        assert_eq!(census.num_sources(ChannelId(3)), 2);
        assert!(census.violates(ChannelId(3)));
        assert_eq!(census.first_violation(), Some(ChannelId(3)));
        // New epoch: everything forgotten, no clearing performed.
        census.begin(8);
        assert_eq!(census.num_sources(ChannelId(3)), 0);
        assert!(census.first_violation().is_none());
        census.record(ChannelId(3), 7, 7);
        assert_eq!(census.num_sources(ChannelId(3)), 1);
        assert_eq!(census.touched(), &[ChannelId(3)]);
    }

    #[test]
    fn census_saturates_at_two() {
        let mut census = LinkCensus::with_channels(2);
        census.begin(2);
        for s in 0..5 {
            census.record(ChannelId(0), s, 9);
        }
        assert_eq!(census.num_sources(ChannelId(0)), 2);
        assert_eq!(census.num_destinations(ChannelId(0)), 1);
        assert!(!census.violates(ChannelId(0)));
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
        let (channel, pairs) = engine.blocking_witness().expect("m < n² blocks");
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
    fn engine_clean_on_theorem3_routing() {
        let ft = Ftree::new(3, 9, 7).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let engine = ContentionEngine::new(&router).unwrap();
        assert!(engine.is_nonblocking());
        assert!(engine.blocking_witness().is_none());
        assert!(engine.lemma1_violation().is_none());
    }

    #[test]
    fn recount_is_stable() {
        let ft = Ftree::new(2, 2, 5).unwrap();
        let router = DModK::new(&ft);
        let mut engine = ContentionEngine::new(&router).unwrap();
        let before = engine.lemma1_violation();
        for _ in 0..3 {
            engine.recount();
        }
        assert_eq!(engine.lemma1_violation(), before);
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
        let plain = ContentionEngine::new(&router).unwrap();
        let reg = ftclos_obs::Registry::new();
        let recorded = ContentionEngine::new_with(&router, &reg).unwrap();
        assert_eq!(
            plain.blocking_witness(),
            recorded.blocking_witness_with(&reg)
        );
        assert_eq!(
            plain.lemma1_violation(),
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

    #[test]
    fn census_counts_match_audit_lists() {
        let ft = Ftree::new(2, 4, 3).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let engine = ContentionEngine::new(&router).unwrap();
        let audit = LinkAudit::build(&router);
        for &c in engine.census().touched() {
            let (srcs, dsts) = audit.channel_census(c).unwrap();
            assert_eq!(engine.census().num_sources(c), srcs.len().min(2), "{c}");
            assert_eq!(
                engine.census().num_destinations(c),
                dsts.len().min(2),
                "{c}"
            );
        }
        assert_eq!(engine.census().touched().len(), audit.used_channels());
    }
}
