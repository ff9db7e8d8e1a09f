//! [`PathArena`] — every SD path of a single-path router, precomputed once
//! into CSR storage.
//!
//! Every theorem-checking pass in this workspace bottoms out in the same
//! loop: route the `r(r-1)n²` cross-switch SD pairs and inspect the channels
//! they cross. A single-path router's paths are pattern-independent by
//! definition, so that loop only ever needs to run **once** per router; the
//! arena captures its output in two compressed-sparse-row tables:
//!
//! * **pair → path**: pair `(s, d)` is row `s·ports + d` of a CSR over
//!   [`ChannelId`]s — `path(pair)` is a slice index, not a route computation;
//! * **channel → pairs**: the transpose, mapping each channel to the dense
//!   pair indices whose path crosses it — the *pair-incidence list* that
//!   turns the `O(p⁴)` two-pair blocking sweep into a per-channel scan.
//!
//! [`ChannelId`]s are dense `u32`s in every `ftclos-topo` topology, so both
//! tables live in flat vectors with zero hashing. The arena itself
//! implements [`SinglePathRouter`] (returning clones of the cached paths)
//! and [`LinkLoadView`] via [`ArenaLoadView`] (returning borrowed slices),
//! so downstream consumers — the Lemma 1 engine, the fluid flow expander,
//! the two-pair sweep — index instead of re-routing.

use crate::error::RoutingError;
use crate::loadview::{FlowLinks, LinkLoadView};
use crate::router::SinglePathRouter;
use ftclos_obs::{Noop, Recorder};
use ftclos_topo::ChannelId;
use ftclos_traffic::{Permutation, SdPair};

/// All SD paths of a single-path router, in CSR form, plus the transposed
/// channel → pair incidence table.
#[derive(Clone, Debug)]
pub struct PathArena {
    ports: u32,
    /// One past the largest channel id any path crosses (0 when no path
    /// crosses any channel). Dense tables downstream size themselves on it.
    num_channels: usize,
    /// Row `s·ports + d` holds pair `(s, d)`'s path channels:
    /// `path_channels[path_start[row]..path_start[row+1]]`.
    path_start: Vec<u32>,
    path_channels: Vec<ChannelId>,
    /// Channel `c`'s crossing pairs (dense pair indices):
    /// `chan_pairs[chan_start[c]..chan_start[c+1]]`, ascending.
    chan_start: Vec<u32>,
    chan_pairs: Vec<u32>,
    name: &'static str,
}

impl PathArena {
    /// Route every ordered pair of distinct leaves through `router` once and
    /// freeze the results. Self-pairs get the empty path.
    ///
    /// # Errors
    /// The first of the router's [`SinglePathRouter::try_route_into`]
    /// errors in row order (the arena enumerates only in-range ports, so
    /// errors indicate a router whose `ports()` disagrees with its routable
    /// universe), or [`RoutingError::Precondition`] when the fabric's pair
    /// rows or path hops would overflow the tables' `u32` offsets.
    pub fn build<R: SinglePathRouter + ?Sized>(router: &R) -> Result<Self, RoutingError> {
        Self::build_with(router, &Noop)
    }

    /// [`PathArena::build`] with instrumentation: records the build under
    /// span `arena.build`, counts routed pairs (`arena.paths_routed`), and
    /// gauges the frozen tables (`arena.bytes`, `arena.channels`,
    /// `arena.hops`). With [`Noop`] this is exactly `build`.
    ///
    /// # Errors
    /// Same as [`PathArena::build`].
    pub fn build_with<R: SinglePathRouter + ?Sized, Rec: Recorder>(
        router: &R,
        rec: &Rec,
    ) -> Result<Self, RoutingError> {
        let _span = rec.span("arena.build");
        let ports = router.ports();
        let p = ports as usize;
        let too_large = |detail: String| RoutingError::Precondition {
            router: router.name(),
            detail,
        };
        // Pair rows and path offsets are `u32`s: refuse, before allocating,
        // a fabric whose tables would wrap them.
        let rows = p
            .checked_mul(p)
            .and_then(|rows| u32::try_from(rows).ok())
            .ok_or_else(|| too_large(format!("{p}² pair rows overflow the arena's u32 rows")))?;
        // Every pair routes into this one buffer; nothing is allocated per
        // path.
        let mut scratch: Vec<ChannelId> = Vec::new();
        // Size the table once, by the path between the first and the last
        // leaf — the longest in every tree fabric here. Only a hint: a longer
        // path elsewhere just makes the table grow, and a pair that fails to
        // route is reported by the sweep below, in row order.
        let hint = if ports >= 2
            && router
                .try_route_into(SdPair::new(0, ports - 1), &mut scratch)
                .is_ok()
        {
            scratch.len()
        } else {
            0
        };
        let pairs = p * p.saturating_sub(1);
        let hops = hint
            .checked_mul(pairs)
            .filter(|&hops| u32::try_from(hops).is_ok())
            .ok_or_else(|| {
                too_large(format!(
                    "{pairs} paths of {hint} hops overflow the arena's u32 path offsets"
                ))
            })?;
        let mut path_start = Vec::with_capacity(rows as usize + 1);
        path_start.push(0u32);
        let mut path_channels: Vec<ChannelId> = Vec::with_capacity(hops);
        let mut max_channel: Option<u32> = None;
        for s in 0..ports {
            for d in 0..ports {
                if s != d {
                    router.try_route_into(SdPair::new(s, d), &mut scratch)?;
                    for &c in &scratch {
                        max_channel = Some(max_channel.map_or(c.0, |m| m.max(c.0)));
                    }
                    path_channels.extend_from_slice(&scratch);
                }
                let offset = u32::try_from(path_channels.len()).map_err(|_| {
                    too_large(format!(
                        "more than {} path hops overflow the arena's u32 path offsets",
                        u32::MAX
                    ))
                })?;
                path_start.push(offset);
            }
        }
        let num_channels = max_channel.map_or(0, |m| m as usize + 1);

        // Transpose: counting sort of path entries by channel.
        let mut chan_start = vec![0u32; num_channels + 1];
        for &c in &path_channels {
            chan_start[c.index() + 1] += 1;
        }
        for i in 1..chan_start.len() {
            chan_start[i] += chan_start[i - 1];
        }
        let mut cursor = chan_start.clone();
        let mut chan_pairs = vec![0u32; path_channels.len()];
        for row in 0..rows {
            let (lo, hi) = (
                path_start[row as usize] as usize,
                path_start[row as usize + 1] as usize,
            );
            for &c in &path_channels[lo..hi] {
                let slot = cursor[c.index()];
                chan_pairs[slot as usize] = row;
                cursor[c.index()] += 1;
            }
        }

        let arena = Self {
            ports,
            num_channels,
            path_start,
            path_channels,
            chan_start,
            chan_pairs,
            name: router.name(),
        };
        rec.add("arena.paths_routed", arena.num_pairs() as u64);
        rec.gauge("arena.bytes", arena.bytes() as u64);
        rec.gauge("arena.channels", arena.num_channels as u64);
        rec.gauge("arena.hops", arena.total_hops() as u64);
        Ok(arena)
    }

    /// Leaf universe size.
    #[inline]
    pub fn ports(&self) -> u32 {
        self.ports
    }

    /// One past the largest channel id any cached path crosses.
    #[inline]
    pub fn num_channels(&self) -> usize {
        self.num_channels
    }

    /// Total path entries cached (sum of hop counts over all pairs).
    #[inline]
    pub fn total_hops(&self) -> usize {
        self.path_channels.len()
    }

    /// Number of ordered cross pairs cached (`ports·(ports-1)`).
    #[inline]
    pub fn num_pairs(&self) -> usize {
        let p = self.ports as usize;
        p * p.saturating_sub(1)
    }

    /// Dense row index of `pair` (valid for in-range ports).
    #[inline]
    pub fn pair_index(&self, pair: SdPair) -> usize {
        pair.src as usize * self.ports as usize + pair.dst as usize
    }

    /// The SD pair of dense row `index`.
    #[inline]
    pub fn pair_of(&self, index: u32) -> SdPair {
        let p = self.ports;
        SdPair::new(index / p, index % p)
    }

    /// Pair `(s, d)`'s cached path, as a borrowed channel slice.
    ///
    /// # Panics
    /// If either port is out of range.
    #[inline]
    pub fn path(&self, pair: SdPair) -> &[ChannelId] {
        let row = self.pair_index(pair);
        let (lo, hi) = (
            self.path_start[row] as usize,
            self.path_start[row + 1] as usize,
        );
        &self.path_channels[lo..hi]
    }

    /// Dense pair indices whose path crosses channel `c`, ascending (empty
    /// for channels no path uses, including ids at or past
    /// [`PathArena::num_channels`]).
    #[inline]
    pub fn pairs_on(&self, c: ChannelId) -> &[u32] {
        if c.index() >= self.num_channels {
            return &[];
        }
        let (lo, hi) = (
            self.chan_start[c.index()] as usize,
            self.chan_start[c.index() + 1] as usize,
        );
        &self.chan_pairs[lo..hi]
    }

    /// The SD pairs crossing channel `c`, in ascending dense-index order.
    pub fn sd_pairs_on(&self, c: ChannelId) -> impl Iterator<Item = SdPair> + '_ {
        self.pairs_on(c).iter().map(|&i| self.pair_of(i))
    }

    /// Resident bytes of the arena's tables (the bench's "peak arena
    /// bytes" metric).
    pub fn bytes(&self) -> usize {
        self.path_start.len() * size_of::<u32>()
            + self.path_channels.len() * size_of::<ChannelId>()
            + self.chan_start.len() * size_of::<u32>()
            + self.chan_pairs.len() * size_of::<u32>()
    }

    /// A [`LinkLoadView`] over the arena that expands patterns by slicing
    /// cached paths (no re-routing, no intermediate assignment).
    pub fn load_view(&self) -> ArenaLoadView<'_> {
        ArenaLoadView { arena: self }
    }
}

/// The arena is itself a single-path router: `route_into` copies the cached
/// slice, so any analyzer written against [`SinglePathRouter`] can run on
/// the arena and inherit the no-recompute property.
impl SinglePathRouter for PathArena {
    fn ports(&self) -> u32 {
        self.ports
    }

    fn route_into(&self, pair: SdPair, out: &mut Vec<ChannelId>) {
        out.clear();
        out.extend_from_slice(self.path(pair));
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

/// Borrowed [`LinkLoadView`] over a [`PathArena`]: the fluid simulator's
/// flow expansion reads cached slices instead of re-routing the pattern.
#[derive(Clone, Copy, Debug)]
pub struct ArenaLoadView<'a> {
    arena: &'a PathArena,
}

impl LinkLoadView for ArenaLoadView<'_> {
    fn ports(&self) -> u32 {
        self.arena.ports()
    }

    fn flow_links(&self, perm: &Permutation) -> Result<Vec<FlowLinks>, RoutingError> {
        let ports = self.arena.ports();
        let mut out = Vec::with_capacity(perm.len());
        for &pair in perm.pairs() {
            for port in [pair.src, pair.dst] {
                if port >= ports {
                    return Err(RoutingError::PortOutOfRange { port, ports });
                }
            }
            out.push(FlowLinks::single_path(pair, self.arena.path(pair)));
        }
        Ok(out)
    }

    fn name(&self) -> &'static str {
        self.arena.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dmodk::DModK;
    use crate::path::Path;
    use crate::router::route_all;
    use crate::yuan::YuanDeterministic;
    use ftclos_topo::Ftree;
    use ftclos_traffic::patterns;

    #[test]
    fn arena_paths_match_router_paths() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let yuan = YuanDeterministic::new(&ft).unwrap();
        let arena = PathArena::build(&yuan).unwrap();
        assert_eq!(arena.ports(), 10);
        assert_eq!(arena.num_pairs(), 90);
        for s in 0..10u32 {
            for d in 0..10u32 {
                let pair = SdPair::new(s, d);
                let expected = if s == d {
                    Path::empty()
                } else {
                    yuan.route(pair)
                };
                assert_eq!(arena.path(pair), expected.channels(), "{pair}");
                assert_eq!(SinglePathRouter::route(&arena, pair), expected);
            }
        }
        assert!(arena.num_channels() <= ft.topology().num_channels());
        assert!(arena.bytes() > 0);
    }

    #[test]
    fn incidence_transposes_exactly() {
        let ft = Ftree::new(2, 2, 5).unwrap();
        let dmodk = DModK::new(&ft);
        let arena = PathArena::build(&dmodk).unwrap();
        // Every (pair, channel) path entry appears in the incidence list and
        // vice versa.
        let mut from_paths = 0usize;
        for s in 0..arena.ports() {
            for d in 0..arena.ports() {
                let pair = SdPair::new(s, d);
                for &c in arena.path(pair) {
                    assert!(
                        arena.pairs_on(c).contains(&(arena.pair_index(pair) as u32)),
                        "{pair} on {c}"
                    );
                    from_paths += 1;
                }
            }
        }
        let from_incidence: usize = (0..arena.num_channels())
            .map(|c| arena.pairs_on(ChannelId(c as u32)).len())
            .sum();
        assert_eq!(from_paths, from_incidence);
        assert_eq!(from_paths, arena.total_hops());
        // Incidence lists are ascending (counting sort over ascending rows).
        for c in 0..arena.num_channels() {
            let pairs = arena.pairs_on(ChannelId(c as u32));
            assert!(pairs.windows(2).all(|w| w[0] < w[1]), "c{c} sorted");
        }
    }

    #[test]
    fn load_view_matches_blanket_expansion() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let yuan = YuanDeterministic::new(&ft).unwrap();
        let arena = PathArena::build(&yuan).unwrap();
        let perm = patterns::shift(10, 3);
        let via_arena = arena.load_view().flow_links(&perm).unwrap();
        let via_router = LinkLoadView::flow_links(&yuan, &perm).unwrap();
        assert_eq!(via_arena, via_router);
        assert_eq!(arena.load_view().ports(), 10);
        assert_eq!(LinkLoadView::name(&arena.load_view()), "yuan-deterministic");
    }

    #[test]
    fn load_view_checks_port_range() {
        let ft = Ftree::new(2, 2, 3).unwrap();
        let dmodk = DModK::new(&ft);
        let arena = PathArena::build(&dmodk).unwrap();
        let perm = patterns::shift(12, 1); // 12 > 6 ports
        assert!(matches!(
            arena.load_view().flow_links(&perm),
            Err(RoutingError::PortOutOfRange { .. })
        ));
    }

    #[test]
    fn arena_route_all_agrees_with_router() {
        let ft = Ftree::new(2, 2, 5).unwrap();
        let dmodk = DModK::new(&ft);
        let arena = PathArena::build(&dmodk).unwrap();
        let perm = patterns::shift(10, 3);
        let a = route_all(&dmodk, &perm).unwrap();
        let b = route_all(&arena, &perm).unwrap();
        assert_eq!(a.routes(), b.routes());
    }

    #[test]
    fn recorded_build_matches_plain_build_and_emits_metrics() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let yuan = YuanDeterministic::new(&ft).unwrap();
        let plain = PathArena::build(&yuan).unwrap();
        let reg = ftclos_obs::Registry::new();
        let recorded = PathArena::build_with(&yuan, &reg).unwrap();
        for s in 0..plain.ports() {
            for d in 0..plain.ports() {
                let pair = SdPair::new(s, d);
                assert_eq!(plain.path(pair), recorded.path(pair));
            }
        }
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("arena.paths_routed"),
            Some(plain.num_pairs() as u64)
        );
        assert_eq!(snap.gauge("arena.bytes"), Some(plain.bytes() as u64));
        assert_eq!(snap.gauge("arena.hops"), Some(plain.total_hops() as u64));
        assert!(snap.spans.iter().any(|s| s.path == "arena.build"));
    }

    #[test]
    fn oversized_fabrics_are_refused_before_allocating() {
        /// Every path is four hops long.
        struct Huge(u32);
        impl SinglePathRouter for Huge {
            fn ports(&self) -> u32 {
                self.0
            }
            fn route_into(&self, _: SdPair, out: &mut Vec<ChannelId>) {
                out.clear();
                out.extend((0..4).map(ChannelId));
            }
            fn name(&self) -> &'static str {
                "huge"
            }
        }
        // 70,000² rows overflow the u32 pair rows; 40,000 ports fit them,
        // but their 6.4G hops overflow the u32 path offsets.
        for ports in [70_000, 40_000] {
            match PathArena::build(&Huge(ports)) {
                Err(RoutingError::Precondition { router, detail }) => {
                    assert_eq!(router, "huge");
                    assert!(detail.contains("overflow"), "{detail}");
                }
                other => panic!("{ports} ports: {other:?}"),
            }
        }
    }

    #[test]
    fn first_error_in_row_order_wins() {
        /// Claims 6 ports, routes 4 (the hint pair `(0, 5)` fails too).
        struct Overclaim;
        impl SinglePathRouter for Overclaim {
            fn ports(&self) -> u32 {
                6
            }
            fn route_into(&self, _: SdPair, out: &mut Vec<ChannelId>) {
                out.clear();
            }
            fn try_route_into(
                &self,
                pair: SdPair,
                out: &mut Vec<ChannelId>,
            ) -> Result<(), RoutingError> {
                for port in [pair.src, pair.dst] {
                    if port >= 4 {
                        return Err(RoutingError::PortOutOfRange { port, ports: 4 });
                    }
                }
                self.route_into(pair, out);
                Ok(())
            }
            fn name(&self) -> &'static str {
                "overclaim"
            }
        }
        assert_eq!(
            PathArena::build(&Overclaim).unwrap_err(),
            RoutingError::PortOutOfRange { port: 4, ports: 4 }
        );
    }

    #[test]
    fn empty_universe_arena() {
        struct Null;
        impl SinglePathRouter for Null {
            fn ports(&self) -> u32 {
                1
            }
            fn route_into(&self, _: SdPair, out: &mut Vec<ChannelId>) {
                out.clear();
            }
            fn name(&self) -> &'static str {
                "null"
            }
        }
        let arena = PathArena::build(&Null).unwrap();
        assert_eq!(arena.num_channels(), 0);
        assert_eq!(arena.total_hops(), 0);
        assert_eq!(arena.pairs_on(ChannelId(3)), &[] as &[u32]);
    }
}
