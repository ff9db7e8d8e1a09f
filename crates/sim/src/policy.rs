//! Path-selection policies: how a packet gets its route at injection time.
//!
//! A policy is one route table in CSR form. Every candidate path of every
//! pair is tabulated once, back to back, in a single slab of hops; a *row*
//! is one candidate path, and each pair owns a contiguous range of rows —
//! found by `src * ports + dst` in the all-pairs tables, and in the
//! pattern-level ones by the source's offset into a per-source run of
//! destinations. An all-pairs table holds `ports²` index entries, so it is
//! for traffic that may use any pair; a permutation run (every
//! `ftclos simulate`) tabulates just its pairs through
//! `Policy::from_assignment`. `Policy::pick` answers with a row id, a
//! packet carries that id and its hop count, and whoever needs the channels
//! (the kernel's grant tests, the stall report) resolves them through
//! `Policy::path`: the hot loop does no routing work beyond an index
//! choice and touches no per-packet heap. Adaptivity happens **only at the
//! source switch** — for `ftree(n+m, r)` that is the only place a fat-tree
//! has any (paper Section V).

use crate::error::SimError;
use ftclos_routing::{ObliviousMultipath, RouteAssignment, SinglePathRouter};
use ftclos_topo::{ChannelId, NodeId, Topology};
use ftclos_traffic::SdPair;
use rand::Rng;
use std::ops::Range;

/// The row every self pair resolves to: the empty path, delivered instantly.
const EMPTY_ROW: u32 = 0;

/// How the next packet of a pair picks among its candidate paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Choice {
    /// Single candidate (deterministic / pattern-fixed).
    Fixed,
    /// Round-robin across candidates (oblivious deterministic spreading).
    RoundRobin,
    /// Uniform random candidate per packet (oblivious random spreading).
    Random,
    /// Least downstream queue occupancy of the candidate's first switch
    /// uplink, ties broken uniformly at random (local queue-adaptive).
    QueueAdaptive,
    /// Ablation variant of [`Choice::QueueAdaptive`] with deterministic
    /// lowest-index tie-breaking — demonstrably herds whole fabrics onto
    /// the low-index top switches and collapses throughput.
    QueueAdaptiveFirst,
}

/// Pair → candidate rows.
#[derive(Clone, Debug)]
enum PairIndex {
    /// All-pairs tables: pair `src * ports + dst` owns rows
    /// `first_row[pair]..first_row[pair + 1]` (none for a self pair).
    Dense { ports: u32, first_row: Vec<u32> },
    /// Pattern-level tables, one row a pair: source `src` lists its
    /// `(dst, row)` keys, sorted by `dst`, at
    /// `keys[src_first[src]..src_first[src + 1]]`.
    Sparse {
        src_first: Vec<u32>,
        keys: Vec<(u32, u32)>,
    },
}

impl PairIndex {
    /// The pair's slot and its candidate rows; `None` for an unlisted pair.
    fn lookup(&self, src: u32, dst: u32) -> Option<(usize, Range<u32>)> {
        match self {
            Self::Dense { ports, first_row } => {
                let slot = src as usize * *ports as usize + dst as usize;
                (src < *ports && dst < *ports).then(|| (slot, first_row[slot]..first_row[slot + 1]))
            }
            Self::Sparse { src_first, keys } => {
                let s = src as usize;
                let (first, end) = (*src_first.get(s)? as usize, *src_first.get(s + 1)? as usize);
                let at = keys[first..end].binary_search_by_key(&dst, |k| k.0).ok()?;
                let row = keys[first + at].1;
                Some((first + at, row..row + 1))
            }
        }
    }

    /// The sparse index over `pairs`, sorted by `(src, dst)` with no pair
    /// twice.
    fn by_source(pairs: &[((u32, u32), u32)]) -> Self {
        let sources = pairs.last().map_or(0, |&((s, _), _)| s as usize + 1);
        let mut src_first = vec![0u32; sources + 1];
        for &((s, _), _) in pairs {
            src_first[s as usize + 1] += 1;
        }
        for s in 1..=sources {
            src_first[s] += src_first[s - 1];
        }
        let keys = pairs.iter().map(|&((_, d), row)| (d, row)).collect();
        Self::Sparse { src_first, keys }
    }
}

/// Path selection policy for the simulator.
#[derive(Clone, Debug)]
pub struct Policy {
    /// Every candidate path back to back; row `i` is
    /// `hops[row_off[i]..row_off[i + 1]]`.
    hops: Vec<ChannelId>,
    row_off: Vec<u32>,
    index: PairIndex,
    /// Round-robin position per index slot, grown as round-robin picks
    /// reach slots.
    counters: Vec<u64>,
    choice: Choice,
    /// Per-channel admission bitmap (`true` = usable; channels past its end,
    /// so all of them when it is empty, are admitted). Candidates crossing
    /// an unadmitted channel are skipped by `pick` — the hook the churn
    /// re-planning modes drive mid-run.
    live_mask: Vec<bool>,
}

impl Policy {
    /// A table holding only [`EMPTY_ROW`].
    fn new(choice: Choice) -> Self {
        Self {
            hops: Vec::new(),
            row_off: vec![0, 0],
            index: PairIndex::Sparse {
                src_first: Vec::new(),
                keys: Vec::new(),
            },
            counters: Vec::new(),
            choice,
            live_mask: Vec::new(),
        }
    }

    /// The id the next [`Policy::push_row`] will return.
    fn next_row(&self) -> u32 {
        u32::try_from(self.row_off.len() - 1).expect("policy route table exceeds 2^32 rows")
    }

    /// Append `path` as a new row and return its id.
    fn push_row(&mut self, path: &[ChannelId]) -> u32 {
        let row = self.next_row();
        self.hops.extend_from_slice(path);
        let end = u32::try_from(self.hops.len()).expect("policy route table exceeds 2^32 hops");
        self.row_off.push(end);
        row
    }

    /// The all-pairs table over `ports` leaves: `push_rows` appends the
    /// candidate rows of each ordered pair of distinct leaves.
    fn all_pairs(ports: u32, choice: Choice, mut push_rows: impl FnMut(&mut Self, SdPair)) -> Self {
        let mut table = Self::new(choice);
        let mut first_row = Vec::with_capacity(ports as usize * ports as usize + 1);
        for s in 0..ports {
            for d in 0..ports {
                first_row.push(table.next_row());
                if s != d {
                    push_rows(&mut table, SdPair::new(s, d));
                }
            }
        }
        first_row.push(table.next_row());
        table.index = PairIndex::Dense { ports, first_row };
        table
    }

    /// Restrict future picks to candidates whose every channel is admitted
    /// by `mask` (indexed by channel id; `None` lifts the restriction).
    /// Packets already in flight keep their chosen paths.
    pub(crate) fn set_live_mask(&mut self, mask: Option<&[bool]>) {
        self.live_mask.clear();
        self.live_mask.extend_from_slice(mask.unwrap_or_default());
    }

    /// One fixed path per pair, tabulated from a single-path router for
    /// every ordered leaf pair. The pair index is `ports²` offsets: a run
    /// that injects one pattern wants
    /// `from_assignment(&route_all(router, &perm)?)` instead.
    pub fn from_single_path<R: SinglePathRouter + ?Sized>(router: &R) -> Self {
        let mut path = Vec::new();
        Self::all_pairs(router.ports(), Choice::Fixed, |table, pair| {
            router.route_into(pair, &mut path);
            table.push_row(&path);
        })
    }

    /// Fixed paths from a pattern-level assignment (adaptive/centralized
    /// routers). Pairs absent from the assignment cannot inject; of a pair
    /// listed more than once, the last path counts.
    pub fn from_assignment(assignment: &RouteAssignment) -> Self {
        let mut table = Self::new(Choice::Fixed);
        // Tabulated last to first: of a pair listed twice, the stable sort
        // then puts the last path first, which is the one `dedup` keeps.
        let mut keys: Vec<_> = assignment
            .routes()
            .iter()
            .rev()
            .map(|(pair, path)| ((pair.src, pair.dst), table.push_row(path.channels())))
            .collect();
        keys.sort_by_key(|k| k.0);
        keys.dedup_by_key(|k| k.0);
        table.index = PairIndex::by_source(&keys);
        table
    }

    /// Pin explicit `(src, dst, path)` routes — the witness-injection
    /// entry point (see `crate::witness`): callers hand over raw channel
    /// sequences (e.g. the paths attributing a CDG witness cycle), so every
    /// route is validated against the topology instead of trusted.
    ///
    /// # Errors
    /// [`SimError::PinnedPath`] when a route's source/destination is not a
    /// leaf of the topology, a channel id is out of range, consecutive
    /// channels do not share a node, the endpoints do not match the pair,
    /// or the same pair is pinned twice.
    pub fn from_pinned<'a, I>(topo: &Topology, routes: I) -> Result<Self, SimError>
    where
        I: IntoIterator<Item = (u32, u32, &'a [ChannelId])>,
    {
        let mut table = Self::new(Choice::Fixed);
        let mut keys: Vec<((u32, u32), u32)> = Vec::new();
        for (src, dst, channels) in routes {
            let err = |detail: String| SimError::PinnedPath { src, dst, detail };
            let leaf = |port: u32, role: &str| -> Result<NodeId, SimError> {
                let node = NodeId(port);
                if (port as usize) < topo.num_nodes() && topo.kind(node).is_leaf() {
                    Ok(node)
                } else {
                    Err(err(format!("{role} port {port} is not a leaf node")))
                }
            };
            let s = leaf(src, "source")?;
            let d = leaf(dst, "destination")?;
            if src == dst {
                return Err(err("self pairs deliver instantly, nothing to pin".into()));
            }
            for &c in channels {
                if c.index() >= topo.num_channels() {
                    return Err(err(format!("channel {c} is out of range")));
                }
            }
            let (Some(&first), Some(&last)) = (channels.first(), channels.last()) else {
                return Err(err("pinned path is empty".into()));
            };
            if topo.channel(first).src != s {
                return Err(err(format!(
                    "first hop {first} does not leave the source leaf"
                )));
            }
            if topo.channel(last).dst != d {
                return Err(err(format!(
                    "last hop {last} does not enter the destination leaf"
                )));
            }
            for w in channels.windows(2) {
                if topo.channel(w[0]).dst != topo.channel(w[1]).src {
                    return Err(err(format!("hops {} -> {} are not adjacent", w[0], w[1])));
                }
            }
            // The pairs are kept sorted as they grow (pinned sets are
            // witness-sized), so a repeat is caught where it stands in
            // `routes`.
            match keys.binary_search_by_key(&(src, dst), |k| k.0) {
                Ok(_) => return Err(err("pair is pinned twice".into())),
                Err(at) => keys.insert(at, ((src, dst), table.push_row(channels))),
            }
        }
        table.index = PairIndex::by_source(&keys);
        Ok(table)
    }

    /// Oblivious multipath: all candidate paths per pair, spread per packet.
    pub fn from_multipath(router: &ObliviousMultipath<'_>, random: bool) -> Self {
        let choice = if random {
            Choice::Random
        } else {
            Choice::RoundRobin
        };
        Self::all_pairs(router.ports(), choice, |table, pair| {
            router.for_each_path(pair, |path| {
                table.push_row(path);
            });
        })
    }

    /// Local queue-adaptive selection over the multipath candidates: the
    /// packet takes the candidate whose *second* channel (the source
    /// switch's uplink) currently has the shortest downstream queue.
    pub fn queue_adaptive(router: &ObliviousMultipath<'_>) -> Self {
        let mut p = Self::from_multipath(router, false);
        p.choice = Choice::QueueAdaptive;
        p
    }

    /// Ablation: queue-adaptive with deterministic lowest-index
    /// tie-breaking (see the `ablation` experiment binary).
    pub fn queue_adaptive_deterministic_ties(router: &ObliviousMultipath<'_>) -> Self {
        let mut p = Self::from_multipath(router, false);
        p.choice = Choice::QueueAdaptiveFirst;
        p
    }

    /// The channel walk of row `row`, as [`Policy::pick`] numbered it.
    ///
    /// # Panics
    /// If `row` did not come from this policy's `pick`.
    #[inline]
    pub(crate) fn path(&self, row: u32) -> &[ChannelId] {
        let row = row as usize;
        &self.hops[self.row_off[row] as usize..self.row_off[row + 1] as usize]
    }

    /// Channel number `hop` of row `row`; `None` past the end of the walk.
    #[inline]
    pub(crate) fn next_hop(&self, row: u32, hop: u32) -> Option<ChannelId> {
        self.path(row).get(hop as usize).copied()
    }

    /// Candidate paths tabulated.
    pub fn routes(&self) -> usize {
        self.row_off.len() - 2
    }

    /// Heap bytes reserved by the route table: the hop slab, the row offsets
    /// and the pair index.
    pub fn memory_bytes(&self) -> usize {
        let index = match &self.index {
            PairIndex::Dense { first_row, .. } => first_row.capacity() * size_of::<u32>(),
            PairIndex::Sparse { src_first, keys } => {
                src_first.capacity() * size_of::<u32>() + keys.capacity() * size_of::<(u32, u32)>()
            }
        };
        self.hops.capacity() * size_of::<ChannelId>()
            + self.row_off.capacity() * size_of::<u32>()
            + index
    }

    /// The rows of `rows` admitted by the live mask (all, when unset), in
    /// order.
    fn live(&self, rows: Range<u32>) -> impl Iterator<Item = u32> + '_ {
        let admitted = |c: &ChannelId| self.live_mask.get(c.index()).copied().unwrap_or(true);
        rows.filter(move |&row| self.live_mask.is_empty() || self.path(row).iter().all(admitted))
    }

    /// The channel whose queue the adaptive choices read for `row`: the
    /// source switch's uplink, hop 1 (a one-hop candidate offers hop 0).
    fn probe(&self, row: u32) -> ChannelId {
        let p = self.path(row);
        p.get(1).copied().unwrap_or(p[0])
    }

    /// Pick the path for the next packet of `(src, dst)`: a row id for
    /// [`Policy::path`] (a self pair gets the empty path), or `None` when
    /// the pair is unlisted or every candidate crosses an unadmitted
    /// channel.
    ///
    /// `queue_len(channel)` exposes current downstream queue occupancy for
    /// the queue-adaptive policy; `rng` drives random spreading.
    pub(crate) fn pick<R: Rng>(
        &mut self,
        src: u32,
        dst: u32,
        queue_len: impl Fn(ChannelId) -> usize,
        rng: &mut R,
    ) -> Option<u32> {
        if src == dst {
            return Some(EMPTY_ROW);
        }
        let (slot, rows) = self.index.lookup(src, dst)?;
        let n = self.live(rows.clone()).count();
        if n == 0 {
            return None; // every candidate crosses an unadmitted channel
        }
        // The choice, as a position among the live candidates.
        let k = match self.choice {
            Choice::Fixed => 0,
            Choice::RoundRobin => {
                if self.counters.len() <= slot {
                    self.counters.resize(slot + 1, 0);
                }
                let turn = self.counters[slot];
                self.counters[slot] += 1;
                (turn % n as u64) as usize
            }
            Choice::Random => rng.gen_range(0..n),
            Choice::QueueAdaptive | Choice::QueueAdaptiveFirst => {
                // Among the candidates with the shortest local uplink queue:
                // one drawn uniformly at random, or (the ablation) the first
                // — deterministic tie-breaks herd every switch onto the same
                // low-index top and collapse throughput. Only live rows are
                // ever looked at, so no masked-out candidate can be picked.
                let occupancy = |row: u32| queue_len(self.probe(row));
                let best = self.live(rows.clone()).map(occupancy).min()?;
                let shortest = || {
                    self.live(rows.clone())
                        .filter(|&row| occupancy(row) == best)
                };
                let k = match self.choice {
                    Choice::QueueAdaptiveFirst => 0,
                    _ => rng.gen_range(0..shortest().count()),
                };
                return shortest().nth(k);
            }
        };
        self.live(rows).nth(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::Packet;
    use ftclos_routing::{DModK, Path, SModK, YuanDeterministic};
    use ftclos_topo::Ftree;
    use rand::SeedableRng;

    // Packets are moved between queues by value; keep them plain data.
    const _: fn() = || {
        fn copy<T: Copy>() {}
        copy::<Packet>();
    };

    fn rng() -> rand_chacha::ChaCha8Rng {
        rand_chacha::ChaCha8Rng::seed_from_u64(4)
    }

    #[test]
    fn single_path_policy_is_fixed() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let mut p = Policy::from_single_path(&router);
        let mut g = rng();
        let a = p.pick(0, 5, |_| 0, &mut g).unwrap();
        let b = p.pick(0, 5, |_| 0, &mut g).unwrap();
        assert_eq!(a, b);
        assert_eq!(p.path(a).len(), 4);
        let own = p.pick(0, 0, |_| 0, &mut g).unwrap();
        assert!(p.path(own).is_empty());
    }

    /// The rows the table lists for `(s, d)`, as owned paths.
    fn rows_of(p: &Policy, s: u32, d: u32) -> Vec<Path> {
        let (_, rows) = p.index.lookup(s, d).unwrap();
        rows.map(|row| Path::new(p.path(row).to_vec())).collect()
    }

    #[test]
    fn tables_hold_exactly_the_routers_paths() {
        for m in [4, 3] {
            let ft = Ftree::new(2, m, 5).unwrap();
            let yuan = YuanDeterministic::new(&ft).ok(); // needs m >= n^2
            let (dmodk, smodk) = (DModK::new(&ft), SModK::new(&ft));
            let mut single: Vec<&dyn SinglePathRouter> = vec![&dmodk, &smodk];
            single.extend(yuan.as_ref().map(|y| y as &dyn SinglePathRouter));
            assert_eq!(single.len(), if m == 4 { 3 } else { 2 });
            let mp = ObliviousMultipath::new(&ft);
            let spread = Policy::from_multipath(&mp, false);
            let pairs = || (0..10).flat_map(|s| (0..10).map(move |d| SdPair::new(s, d)));
            for router in single {
                let mut p = Policy::from_single_path(router);
                assert_eq!(p.routes(), 90);
                for pair in pairs().filter(|pair| pair.src != pair.dst) {
                    assert_eq!(rows_of(&p, pair.src, pair.dst), [router.route(pair)]);
                }
                let mut g = rng();
                let mut routable = |s, d| p.pick(s, d, |_| 0, &mut g).is_some();
                assert!(pairs().all(|pair| routable(pair.src, pair.dst)));
                assert!(!routable(0, 10) && !routable(10, 0));
            }
            for pair in pairs() {
                let want = if pair.src == pair.dst {
                    Vec::new() // a self pair owns no row; `pick` answers for it
                } else {
                    mp.paths(pair)
                };
                assert_eq!(rows_of(&spread, pair.src, pair.dst), want, "{pair:?}");
            }
            assert!(spread.memory_bytes() >= 4 * (spread.hops.len() + spread.routes() + 101));
        }
    }

    #[test]
    fn from_pinned_replays_exact_routes() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let r05 = router.route(SdPair::new(0, 5)).channels().to_vec();
        let r92 = router.route(SdPair::new(9, 2)).channels().to_vec();
        let mut p = Policy::from_pinned(
            ft.topology(),
            [(0, 5, r05.as_slice()), (9, 2, r92.as_slice())],
        )
        .unwrap();
        let mut g = rng();
        let row = p.pick(0, 5, |_| 0, &mut g).unwrap();
        assert_eq!(p.path(row), &r05[..]);
        let row = p.pick(9, 2, |_| 0, &mut g).unwrap();
        assert_eq!(p.path(row), &r92[..]);
        assert!(
            p.pick(5, 0, |_| 0, &mut g).is_none(),
            "only pinned pairs are routable"
        );
    }

    #[test]
    fn from_pinned_rejects_malformed_routes() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let topo = ft.topology();
        let router = YuanDeterministic::new(&ft).unwrap();
        let good = router.route(SdPair::new(0, 5)).channels().to_vec();
        let detail = |res: Result<Policy, SimError>| match res.unwrap_err() {
            SimError::PinnedPath { detail, .. } => detail,
            e => panic!("expected PinnedPath, got {e}"),
        };
        // Empty path.
        let d = detail(Policy::from_pinned(topo, [(0, 5, &[][..])]));
        assert!(d.contains("empty"), "{d}");
        // Self pair.
        let d = detail(Policy::from_pinned(topo, [(3, 3, good.as_slice())]));
        assert!(d.contains("self"), "{d}");
        // Source port that is not a leaf of this fabric.
        let d = detail(Policy::from_pinned(topo, [(999, 5, good.as_slice())]));
        assert!(d.contains("not a leaf"), "{d}");
        // Endpoint mismatch: the route for (0, 5) pinned under pair (2, 5).
        let d = detail(Policy::from_pinned(topo, [(2, 5, good.as_slice())]));
        assert!(d.contains("source leaf"), "{d}");
        // Discontinuity: drop a middle hop.
        let mut broken = good.clone();
        broken.remove(1);
        let d = detail(Policy::from_pinned(topo, [(0, 5, broken.as_slice())]));
        assert!(d.contains("adjacent"), "{d}");
        // Out-of-range channel id.
        let bogus = vec![ChannelId::INVALID];
        let d = detail(Policy::from_pinned(topo, [(0, 5, bogus.as_slice())]));
        assert!(d.contains("out of range"), "{d}");
        // Duplicate pair.
        let d = detail(Policy::from_pinned(
            topo,
            [(0, 5, good.as_slice()), (0, 5, good.as_slice())],
        ));
        assert!(d.contains("twice"), "{d}");
        // Of several faults, the first in input order is the one reported.
        let other = router.route(SdPair::new(9, 2)).channels().to_vec();
        let (good, other, empty) = (good.as_slice(), other.as_slice(), &[][..]);
        let d = detail(Policy::from_pinned(
            topo,
            [(9, 2, other), (0, 5, good), (0, 5, good), (1, 5, empty)],
        ));
        assert!(d.contains("twice"), "{d}");
        let d = detail(Policy::from_pinned(
            topo,
            [(0, 5, good), (1, 5, empty), (0, 5, good)],
        ));
        assert!(d.contains("empty"), "{d}");
    }

    #[test]
    fn round_robin_cycles_candidates() {
        let ft = Ftree::new(2, 3, 5).unwrap();
        let mp = ObliviousMultipath::new(&ft);
        let mut p = Policy::from_multipath(&mp, false);
        let mut g = rng();
        let a = p.pick(0, 4, |_| 0, &mut g).unwrap();
        let b = p.pick(0, 4, |_| 0, &mut g).unwrap();
        let c = p.pick(0, 4, |_| 0, &mut g).unwrap();
        let d = p.pick(0, 4, |_| 0, &mut g).unwrap();
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(a, d, "period 3");
    }

    #[test]
    fn queue_adaptive_avoids_long_queue() {
        let ft = Ftree::new(2, 3, 5).unwrap();
        let mp = ObliviousMultipath::new(&ft);
        let mut p = Policy::queue_adaptive(&mp);
        let mut g = rng();
        // Make the uplink to top 0 look congested.
        let busy = ft.up_channel(0, 0);
        let path = p
            .pick(0, 4, |c| if c == busy { 10 } else { 0 }, &mut g)
            .unwrap();
        assert_ne!(p.path(path)[1], busy, "adaptive must dodge the long queue");
    }

    #[test]
    fn live_mask_filters_candidates() {
        let ft = Ftree::new(2, 3, 5).unwrap();
        let mp = ObliviousMultipath::new(&ft);
        let mut p = Policy::from_multipath(&mp, true);
        let mut g = rng();
        let num_channels = ft.topology().num_channels();
        // Exclude uplinks to tops 0 and 1: every pick must go through top 2.
        let mut mask = vec![true; num_channels];
        for v in 0..ft.r() {
            mask[ft.up_channel(v, 0).index()] = false;
            mask[ft.up_channel(v, 1).index()] = false;
        }
        p.set_live_mask(Some(&mask));
        for _ in 0..20 {
            let path = p.pick(0, 4, |_| 0, &mut g).unwrap();
            assert_eq!(p.path(path)[1], ft.up_channel(0, 2));
        }
        // Excluding all uplinks leaves cross-switch pairs unroutable…
        for v in 0..ft.r() {
            mask[ft.up_channel(v, 2).index()] = false;
        }
        p.set_live_mask(Some(&mask));
        assert!(p.pick(0, 4, |_| 0, &mut g).is_none());
        // …until the mask is lifted.
        p.set_live_mask(None);
        assert!(p.pick(0, 4, |_| 0, &mut g).is_some());
    }

    #[test]
    fn unrouteable_pair_is_none() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let assignment = ftclos_routing::route_all(
            &router,
            &ftclos_traffic::Permutation::from_pairs(10, [ftclos_traffic::SdPair::new(0, 5)])
                .unwrap(),
        )
        .unwrap();
        let mut p = Policy::from_assignment(&assignment);
        let mut g = rng();
        assert!(p.pick(0, 5, |_| 0, &mut g).is_some());
        assert!(p.pick(1, 4, |_| 0, &mut g).is_none());
    }

    #[test]
    fn assignment_listing_a_pair_twice_keeps_the_last_path() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let mp = ObliviousMultipath::new(&ft);
        let via = mp.paths(SdPair::new(0, 5));
        let other = mp.paths(SdPair::new(3, 8)).remove(0);
        let assignment = RouteAssignment::new(vec![
            (SdPair::new(0, 5), via[0].clone()),
            (SdPair::new(3, 8), other.clone()),
            (SdPair::new(0, 5), via[1].clone()),
            (SdPair::new(0, 5), via[2].clone()),
        ]);
        let mut p = Policy::from_assignment(&assignment);
        let mut g = rng();
        let row = p.pick(0, 5, |_| 0, &mut g).unwrap();
        assert_eq!(p.path(row), via[2].channels());
        let row = p.pick(3, 8, |_| 0, &mut g).unwrap();
        assert_eq!(p.path(row), other.channels());
        assert!(p.pick(5, 0, |_| 0, &mut g).is_none());
    }

    #[test]
    fn assignment_index_keeps_the_last_listing_of_each_pair() {
        let mut g = rng();
        for listings in [0, 1, 7, 300] {
            // Listing `i` routes over channel `i` alone, so a path names its
            // listing.
            let routes: Vec<(SdPair, Path)> = (0..listings)
                .map(|i| {
                    let pair = SdPair::new(g.gen_range(0..12), g.gen_range(0..12));
                    (pair, Path::new(vec![ChannelId(i)]))
                })
                .collect();
            let mut model = std::collections::BTreeMap::new();
            for (pair, path) in &routes {
                model.insert((pair.src, pair.dst), path.clone());
            }
            let p = Policy::from_assignment(&RouteAssignment::new(routes));
            for s in (0..14).chain([u32::MAX]) {
                for d in (0..14).chain([u32::MAX]) {
                    let got = p.index.lookup(s, d).map(|_| rows_of(&p, s, d));
                    let want = model.get(&(s, d)).map(|path| vec![path.clone()]);
                    assert_eq!(got, want, "({s}, {d}) of {listings} listings");
                }
            }
        }
    }
}
