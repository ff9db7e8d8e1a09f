//! Channel-dependency-graph (CDG) deadlock analysis.
//!
//! The paper's nonblocking results (Lemma 1, NONBLOCKINGADAPTIVE) bound
//! *contention*, not *deadlock*: a routing can be contention-free for every
//! permutation yet wedge forever once finite buffers couple channels into a
//! cyclic wait. The classical bridge is the **channel dependency graph** of
//! Dally & Seitz: a directed graph whose vertices are the fabric's directed
//! channels, with an edge `a → b` whenever some routed path crosses `a` and
//! then immediately `b`. If the CDG is acyclic the routing is deadlock-free
//! — the sufficient condition of "Existence of Deadlock-Free Routing for
//! Arbitrary Networks" (arxiv 2503.04583), which also shows the condition is
//! exact for deterministic/oblivious routings once escape channels are
//! accounted for; "Deadlock-free routing for Full-mesh networks without
//! using Virtual Channels" (arxiv 2510.14730) applies the same check without
//! VCs, which is the regime this workspace models (one FIFO per channel).
//!
//! For every router in this workspace the up*/down* shape of folded-Clos
//! paths makes the CDG trivially acyclic — each hop strictly ascends until
//! the top switch and strictly descends after — and
//! [`ChannelDependencyGraph::updown_order_certificate`] checks that layering
//! directly (a linear rank certificate: a constructive witness of
//! acyclicity, strictly cheaper than SCC).
//! [`ChannelDependencyGraph::check_with`] tries the certificate first — on a
//! fabric whose every channel changes level, no valley turn means every
//! dependency raises the rank — and otherwise gives the general verdict: an
//! iterative Tarjan SCC pass with deterministic witness extraction — the
//! witness cycle starts at the globally lowest-numbered cyclic channel and is
//! the minimal-length, lexicographically-first cycle through it, so verdicts
//! are byte-identical across thread counts and runs.
//!
//! The extractors walk route sets exactly as the arena does — every SD pair
//! of the fabric, every branch of a multipath/adaptive route set (branches
//! in sorted channel order) — and record dependencies into a dense
//! word-aligned bitmap CSR: channel `a`'s successor universe is the
//! out-channel list of the node `a` points into, so a row needs only
//! `⌈out_degree/64⌉` words. The sweep runs on `rayon` threads, one contiguous
//! block of sources each, single-path routers routing into one scratch
//! buffer per source ([`SinglePathRouter::route_into`]); a bit is tested
//! before it is set with a relaxed atomic `fetch_or`. Set union is
//! order-independent, so the resulting graph does not depend on
//! `RAYON_NUM_THREADS`. A path whose consecutive hops are not adjacent
//! channels is counted ([`ChannelDependencyGraph::bad_hops`]), never
//! silently dropped.
//!
//! **Counting instead of sweeping.** A router that declares a top-choice
//! rule ([`SinglePathRouter::top_rule`]: Theorem 3's routing, d-mod-k,
//! s-mod-k) sends every pair `leaf up → up(v, t) → down(t, w) → leaf down`,
//! or `leaf up → leaf down` inside one switch. No such path turns from a
//! descent into an ascent, and no `ftree` channel joins two nodes of one
//! level, so the up*/down* certificate holds by construction: FREE, no
//! valley turns, no cyclic channels, no broken hops. [`analyze_router_with`]
//! returns that analysis without building the graph (span
//! `cdg.closed_form`); the one number left to compute, the dependency count,
//! is a sum over channels of their distinct successors, each read in `O(1)`
//! off the crossing sets `S × D` that Lemma 1's census reads too
//! (`rule::RuleCensus::crossing`):
//!
//! | channel | distinct successors |
//! |---|---|
//! | leaf up of host `h` in switch `v` | the `n − 1` other leaf downs of `v`, plus every `up(v, t)` with `h ∈ S` and `D ≠ ∅` |
//! | `up(v, t)` | if `S ≠ ∅`, one `down(t, w)` per switch `w` whose block holds a member of `D`: `r − 1` when `D`'s class modulus is `≤ n`, else `\|D\|` |
//! | `down(t, w)` | if `S ≠ ∅`, one leaf down per member of `D`: `\|D\|` |
//! | leaf down | none |
//!
//! Everything else is swept into the bitmap and checked: faulted fabrics
//! ([`cdg_of_masked_router_with`], churn epochs), the multipath and adaptive
//! route sets, the valley router and every router without a rule.
//! [`cdg_of_router_with`] always sweeps: it is the graph builder, for
//! callers that ask [`ChannelDependencyGraph::has_dep`] or
//! [`ChannelDependencyGraph::successors`], and a materialised graph is what
//! the count avoids (137 GB of bitmap at `ftree(32+1024, 32768)`).
//!
//! [`ValleyRouter`] is the in-tree counterexample: a deliberately
//! deadlock-*prone* "valley" routing (down→up bounce through a neighbor
//! switch) whose CDG contains a 2r-channel cycle for `r ≥ 3`, exercising
//! witness extraction, [`attribute_witness`], and the sim-level credit-stall
//! reproduction in `ftclos-sim`.

use ftclos_obs::Recorder;
use ftclos_routing::{
    DModK, ObliviousMultipath, SModK, SinglePathRouter, TopRule, YuanDeterministic,
};
use ftclos_topo::{ChannelId, FaultSet, FaultyView, Ftree, Topology, Transition};
use ftclos_traffic::SdPair;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::churn::ChurnEvent;
use crate::rule::RuleCensus;
use crate::sweep::fold_sources;

/// The topology-derived frame of a CDG: per-node channel lists sorted by
/// id, per-channel endpoints, and the word layout of the successor bitmap.
///
/// Successors of channel `a` are always a subset of the out-channels of the
/// node `a` points into (`head(a)`), so the bitmap stores one bit per
/// (channel, head-out-slot) pair instead of a dense `C × C` matrix.
#[derive(Debug)]
struct DependencySkeleton {
    /// Out-channels of each node, sorted ascending by channel id
    /// (the topology's own lists are port-ordered).
    out_sorted: Vec<ChannelId>,
    /// CSR offsets into `out_sorted`, length `nodes + 1`.
    out_start: Vec<u32>,
    /// In-channels of each node, sorted ascending by channel id.
    in_sorted: Vec<ChannelId>,
    /// CSR offsets into `in_sorted`, length `nodes + 1`.
    in_start: Vec<u32>,
    /// Receiving node of each channel.
    head: Vec<u32>,
    /// Transmitting node of each channel.
    tail: Vec<u32>,
    /// Index of each channel within its tail node's sorted out-list.
    pos_in_out: Vec<u32>,
    /// First bitmap word of each channel's successor row, length
    /// `channels + 1` (a row spans `⌈out_degree(head)/64⌉` words).
    word_start: Vec<u32>,
    /// Whether the channel ascends a level (leaves count as level 0).
    is_up: Vec<bool>,
    /// Up*/down* layering rank of each channel (see
    /// [`ChannelDependencyGraph::updown_order_certificate`]).
    rank: Vec<u32>,
    /// Per-node bitmap over its sorted out-list marking *up* channels,
    /// word-aligned like the successor rows (offsets in `mask_start`).
    up_mask: Vec<u64>,
    /// Word offsets into `up_mask`, length `nodes + 1`.
    mask_start: Vec<u32>,
    /// Whether some channel joins two nodes of one level. Without one, a
    /// dependency can only fail to raise the rank by being a valley turn.
    has_same_level_channel: bool,
}

impl DependencySkeleton {
    fn new(topo: &Topology) -> Self {
        let nodes = topo.num_nodes();
        let chans = topo.num_channels();
        let level = |n: ftclos_topo::NodeId| u32::from(topo.kind(n).level().unwrap_or(0));
        let max_level = u32::from(topo.max_level());

        let mut out_sorted = Vec::with_capacity(chans);
        let mut out_start = Vec::with_capacity(nodes + 1);
        let mut in_sorted = Vec::with_capacity(chans);
        let mut in_start = Vec::with_capacity(nodes + 1);
        out_start.push(0u32);
        in_start.push(0u32);
        for node in topo.node_ids() {
            let lo = out_sorted.len();
            out_sorted.extend(topo.out_channels(node));
            out_sorted[lo..].sort_unstable();
            out_start.push(out_sorted.len() as u32);
            let li = in_sorted.len();
            in_sorted.extend(topo.in_channels(node));
            in_sorted[li..].sort_unstable();
            in_start.push(in_sorted.len() as u32);
        }

        let mut head = vec![0u32; chans];
        let mut tail = vec![0u32; chans];
        let mut is_up = vec![false; chans];
        let mut rank = vec![0u32; chans];
        let mut has_same_level_channel = false;
        for c in topo.channel_ids() {
            let ch = topo.channel(c);
            head[c.index()] = ch.dst.0;
            tail[c.index()] = ch.src.0;
            let up = level(ch.dst) > level(ch.src);
            has_same_level_channel |= level(ch.dst) == level(ch.src);
            is_up[c.index()] = up;
            // Ascents rank by the level they climb into (1..L); descents by
            // 2L+1 minus the level they leave (L+1..2L+1). Every up*/down*
            // path is strictly increasing in rank; any valley turn
            // (down-then-up) is a strict decrease.
            rank[c.index()] = if up {
                level(ch.dst)
            } else {
                2 * max_level + 1 - level(ch.src)
            };
        }

        let mut pos_in_out = vec![0u32; chans];
        for node in 0..nodes {
            let lo = out_start[node] as usize;
            let hi = out_start[node + 1] as usize;
            for (pos, &c) in out_sorted[lo..hi].iter().enumerate() {
                pos_in_out[c.index()] = pos as u32;
            }
        }

        let words_of_node =
            |node: usize| ((out_start[node + 1] - out_start[node]) as usize).div_ceil(64);
        let mut word_start = Vec::with_capacity(chans + 1);
        word_start.push(0u32);
        for c in 0..chans {
            let w = word_start[c] as usize + words_of_node(head[c] as usize);
            word_start.push(w as u32);
        }

        let mut mask_start = Vec::with_capacity(nodes + 1);
        mask_start.push(0u32);
        let mut up_mask = Vec::new();
        for node in 0..nodes {
            let lo = out_start[node] as usize;
            let hi = out_start[node + 1] as usize;
            let base = up_mask.len();
            up_mask.resize(base + words_of_node(node), 0u64);
            for (pos, &c) in out_sorted[lo..hi].iter().enumerate() {
                if is_up[c.index()] {
                    up_mask[base + pos / 64] |= 1u64 << (pos % 64);
                }
            }
            mask_start.push(up_mask.len() as u32);
        }

        Self {
            out_sorted,
            out_start,
            in_sorted,
            in_start,
            head,
            tail,
            pos_in_out,
            word_start,
            is_up,
            rank,
            up_mask,
            mask_start,
            has_same_level_channel,
        }
    }

    #[inline]
    fn out_row(&self, node: usize) -> &[ChannelId] {
        &self.out_sorted[self.out_start[node] as usize..self.out_start[node + 1] as usize]
    }

    #[inline]
    fn in_row(&self, node: usize) -> &[ChannelId] {
        &self.in_sorted[self.in_start[node] as usize..self.in_start[node + 1] as usize]
    }

    #[inline]
    fn num_words(&self) -> usize {
        *self.word_start.last().unwrap_or(&0) as usize
    }

    /// Bitmap word and bit of the dependency `a → b`. `None` when `b` does
    /// not leave the node `a` points into (no such dependency can exist).
    #[inline]
    fn bit_of(&self, a: ChannelId, b: ChannelId) -> Option<(usize, u64)> {
        if self.head[a.index()] != self.tail[b.index()] {
            return None;
        }
        let pos = self.pos_in_out[b.index()];
        let word = self.word_start[a.index()] as usize + (pos / 64) as usize;
        Some((word, 1u64 << (pos % 64)))
    }
}

/// The outcome of a CDG cycle check.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeadlockVerdict {
    /// The CDG is acyclic: the route set is deadlock-free.
    Free,
    /// The CDG contains a cycle; `witness` is a concrete channel cycle
    /// (each channel depends on the next, the last on the first),
    /// deterministically chosen: it starts at the lowest-numbered cyclic
    /// channel and is a minimal-length cycle through it.
    Cyclic {
        /// The witness cycle, in dependency order.
        witness: Vec<ChannelId>,
    },
}

impl DeadlockVerdict {
    /// Whether the verdict proves deadlock-freedom.
    pub fn is_free(&self) -> bool {
        matches!(self, DeadlockVerdict::Free)
    }

    /// The witness cycle, if any.
    pub fn witness(&self) -> Option<&[ChannelId]> {
        match self {
            DeadlockVerdict::Free => None,
            DeadlockVerdict::Cyclic { witness } => Some(witness),
        }
    }
}

/// Summary of one CDG cycle check.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleAnalysis {
    /// Total channel→channel dependencies recorded.
    pub num_deps: u64,
    /// Dependencies that descend and then ascend — zero for any strict
    /// up*/down* routing; nonzero valley turns are where cycles can form.
    pub valley_turns: u64,
    /// Channels on at least one dependency cycle (0 when free).
    pub cyclic_channels: usize,
    /// Non-adjacent consecutive hops the graph was built without (see
    /// [`ChannelDependencyGraph::bad_hops`]); when nonzero the verdict does
    /// not cover the route set.
    pub bad_hops: u64,
    /// The verdict, with a witness cycle when cyclic.
    pub verdict: DeadlockVerdict,
}

impl CycleAnalysis {
    /// Whether the analysis proves deadlock-freedom.
    pub fn is_free(&self) -> bool {
        self.verdict.is_free()
    }
}

/// A channel dependency graph over a fixed topology: for each directed
/// channel, a bitmap over the out-channels of the node it points into.
///
/// Build one with an extractor like [`cdg_of_router_with`], then judge it
/// with [`ChannelDependencyGraph::check_with`].
#[derive(Debug)]
pub struct ChannelDependencyGraph {
    skel: DependencySkeleton,
    bits: Vec<u64>,
    num_deps: u64,
    bad_hops: u64,
}

impl ChannelDependencyGraph {
    fn from_bits(skel: DependencySkeleton, bits: Vec<u64>, bad_hops: u64) -> Self {
        let num_deps = bits.iter().map(|w| u64::from(w.count_ones())).sum();
        Self {
            skel,
            bits,
            num_deps,
            bad_hops,
        }
    }

    /// Number of directed channels (CDG vertices).
    pub fn num_channels(&self) -> usize {
        self.skel.head.len()
    }

    /// Number of dependencies (CDG edges).
    pub fn num_deps(&self) -> u64 {
        self.num_deps
    }

    /// Consecutive hops of the recorded paths that were **not** adjacent
    /// channels (the second does not leave the node the first enters). Such
    /// a hop is no dependency and is left out of the graph, so a verdict over
    /// a graph with `bad_hops() != 0` says nothing about the router that
    /// emitted those paths: callers must treat it as a failure.
    pub fn bad_hops(&self) -> u64 {
        self.bad_hops
    }

    /// Whether some routed path crosses `a` and then immediately `b`.
    pub fn has_dep(&self, a: ChannelId, b: ChannelId) -> bool {
        match self.skel.bit_of(a, b) {
            Some((word, mask)) => self.bits[word] & mask != 0,
            None => false,
        }
    }

    /// Successors of `a` in ascending channel order.
    pub fn successors(&self, a: ChannelId) -> impl Iterator<Item = ChannelId> + '_ {
        let mut pos = 0u32;
        std::iter::from_fn(move || {
            let (p, c) = self.next_succ(a.index(), pos)?;
            pos = p + 1;
            Some(c)
        })
    }

    /// Next set successor of channel `a` at out-slot `≥ from`, as
    /// `(slot, channel)`. Slots index the sorted out-list of `head(a)`, so
    /// ascending slots mean ascending channel ids.
    fn next_succ(&self, a: usize, from: u32) -> Option<(u32, ChannelId)> {
        let node = self.skel.head[a] as usize;
        let row = self.skel.out_row(node);
        let deg = row.len() as u32;
        let base = self.skel.word_start[a] as usize;
        let mut pos = from;
        while pos < deg {
            let word = self.bits[base + (pos / 64) as usize] >> (pos % 64);
            if word == 0 {
                pos = (pos / 64 + 1) * 64;
                continue;
            }
            pos += word.trailing_zeros();
            if pos >= deg {
                return None;
            }
            return Some((pos, row[pos as usize]));
        }
        None
    }

    /// Count of down→up dependencies (see [`CycleAnalysis::valley_turns`]).
    fn valley_turns(&self) -> u64 {
        let mut total = 0u64;
        for a in 0..self.num_channels() {
            if self.skel.is_up[a] {
                continue;
            }
            let node = self.skel.head[a] as usize;
            let base = self.skel.word_start[a] as usize;
            let mbase = self.skel.mask_start[node] as usize;
            let words = self.skel.mask_start[node + 1] as usize - mbase;
            for w in 0..words {
                total +=
                    u64::from((self.bits[base + w] & self.skel.up_mask[mbase + w]).count_ones());
            }
        }
        total
    }

    /// The Dally–Seitz sufficient condition, checked constructively via the
    /// up*/down* layering: every channel gets a rank (ascents ordered by the
    /// level they climb into, then descents by the level they leave), and if
    /// every dependency strictly increases the rank, that linear order
    /// witnesses acyclicity — the routing is deadlock-free without running
    /// SCC (arxiv 2503.04583's existence condition, instantiated with the
    /// folded-Clos ordering). Returns the first rank-violating dependency
    /// otherwise; a violation does *not* prove a deadlock (the condition is
    /// only sufficient) — [`ChannelDependencyGraph::check_with`] decides.
    pub fn updown_order_certificate(&self) -> Result<(), (ChannelId, ChannelId)> {
        for a in 0..self.num_channels() {
            let ra = self.skel.rank[a];
            let mut pos = 0u32;
            while let Some((p, b)) = self.next_succ(a, pos) {
                pos = p + 1;
                if ra >= self.skel.rank[b.index()] {
                    return Err((ChannelId(a as u32), b));
                }
            }
        }
        Ok(())
    }

    /// Run the cycle check: the up*/down* certificate where it applies,
    /// Tarjan SCC plus deterministic witness extraction where it does not.
    /// The pass runs under span `cdg.scc` and records the
    /// `cdg.cyclic_channels` gauge.
    ///
    /// Certificate first: an ascent's rank is the level it climbs into and a
    /// descent's is `2L+1` minus the level it leaves, so when every channel
    /// changes level the only dependency that does not strictly raise the
    /// rank is a descent followed by an ascent. With no such valley turn
    /// (one word-parallel pass over the bitmap) the rank order of
    /// [`ChannelDependencyGraph::updown_order_certificate`] holds for every
    /// dependency and the graph is acyclic without running SCC. Anything
    /// else goes through Tarjan.
    pub fn check_with<R: Recorder>(&self, rec: &R) -> CycleAnalysis {
        let _span = rec.span("cdg.scc");
        let valley_turns = self.valley_turns();
        let (cyclic_channels, verdict) = if valley_turns == 0 && !self.skel.has_same_level_channel {
            (0, DeadlockVerdict::Free)
        } else {
            self.tarjan_verdict()
        };
        rec.gauge("cdg.cyclic_channels", cyclic_channels as u64);
        CycleAnalysis {
            num_deps: self.num_deps,
            valley_turns,
            cyclic_channels,
            bad_hops: self.bad_hops,
            verdict,
        }
    }

    /// The general verdict: channels on a dependency cycle, counted by
    /// Tarjan SCC, and the witness cycle through the lowest of them.
    fn tarjan_verdict(&self) -> (usize, DeadlockVerdict) {
        let (comp, comp_size) = self.tarjan();
        let mut cyclic_channels = 0usize;
        let mut lowest = None;
        for c in 0..self.num_channels() {
            let ch = ChannelId(c as u32);
            if comp_size[comp[c] as usize] > 1 || self.has_dep(ch, ch) {
                cyclic_channels += 1;
                if lowest.is_none() {
                    lowest = Some(c);
                }
            }
        }
        let verdict = match lowest {
            None => DeadlockVerdict::Free,
            Some(c0) => DeadlockVerdict::Cyclic {
                witness: self.extract_witness(c0, &comp),
            },
        };
        (cyclic_channels, verdict)
    }

    /// Iterative Tarjan over the bitmap CSR. Returns the component id of
    /// each channel and each component's size. Successors are visited in
    /// ascending channel order, so component numbering is deterministic.
    fn tarjan(&self) -> (Vec<u32>, Vec<u32>) {
        const UNSET: u32 = u32::MAX;
        let n = self.num_channels();
        let mut index = vec![UNSET; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut comp = vec![UNSET; n];
        let mut comp_size: Vec<u32> = Vec::new();
        let mut stack: Vec<u32> = Vec::new();
        // (channel, next out-slot to try) — the recursion, made explicit.
        let mut frames: Vec<(u32, u32)> = Vec::new();
        let mut next_index = 0u32;
        for root in 0..n {
            if index[root] != UNSET {
                continue;
            }
            index[root] = next_index;
            low[root] = next_index;
            next_index += 1;
            stack.push(root as u32);
            on_stack[root] = true;
            frames.push((root as u32, 0));
            while let Some(frame) = frames.last_mut() {
                let v = frame.0 as usize;
                if let Some((pos, w)) = self.next_succ(v, frame.1) {
                    frame.1 = pos + 1;
                    let w = w.index();
                    if index[w] == UNSET {
                        index[w] = next_index;
                        low[w] = next_index;
                        next_index += 1;
                        stack.push(w as u32);
                        on_stack[w] = true;
                        frames.push((w as u32, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    frames.pop();
                    if let Some(parent) = frames.last() {
                        let p = parent.0 as usize;
                        low[p] = low[p].min(low[v]);
                    }
                    if low[v] == index[v] {
                        let cid = comp_size.len() as u32;
                        let mut size = 0u32;
                        while let Some(w) = stack.pop() {
                            on_stack[w as usize] = false;
                            comp[w as usize] = cid;
                            size += 1;
                            if w as usize == v {
                                break;
                            }
                        }
                        comp_size.push(size);
                    }
                }
            }
        }
        (comp, comp_size)
    }

    /// The deterministic witness: a minimal-length cycle through the
    /// lowest-numbered cyclic channel `c0`, ties broken by lowest channel
    /// id at every step (reverse BFS explores predecessors in ascending
    /// order, so the first-found shortest path is the lexicographic
    /// minimum).
    fn extract_witness(&self, c0: usize, comp: &[u32]) -> Vec<ChannelId> {
        let start = ChannelId(c0 as u32);
        if self.has_dep(start, start) {
            return vec![start];
        }
        let n = self.num_channels();
        let cid = comp[c0];
        // dist[x] = hops on the shortest x ⇝ c0 path inside the SCC;
        // next[x] = the successor on that path.
        let mut dist = vec![u32::MAX; n];
        let mut next = vec![u32::MAX; n];
        dist[c0] = 0;
        let mut queue = VecDeque::new();
        queue.push_back(c0 as u32);
        while let Some(b) = queue.pop_front() {
            let node = self.skel.tail[b as usize] as usize;
            for &a in self.skel.in_row(node) {
                let ai = a.index();
                if comp[ai] == cid && dist[ai] == u32::MAX && self.has_dep(a, ChannelId(b)) {
                    dist[ai] = dist[b as usize] + 1;
                    next[ai] = b;
                    queue.push_back(a.0);
                }
            }
        }
        // Close the cycle through the best successor of c0.
        let mut best: Option<(u32, u32)> = None;
        let mut pos = 0u32;
        while let Some((p, u)) = self.next_succ(c0, pos) {
            pos = p + 1;
            let ui = u.index();
            if comp[ui] == cid && dist[ui] != u32::MAX {
                let key = (dist[ui], u.0);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        let mut cycle = vec![start];
        let Some((_, first)) = best else {
            // Unreachable for a >1-sized SCC; degrade to the self-witness.
            return cycle;
        };
        let mut cur = first;
        while cur as usize != c0 {
            cycle.push(ChannelId(cur));
            cur = next[cur as usize];
        }
        cycle
    }
}

/// One worker's handle on the shared dependency bitmap: records the
/// consecutive channel pairs of each path it is given.
struct DepSink<'a> {
    skel: &'a DependencySkeleton,
    bits: &'a [AtomicU64],
    /// Consecutive hops that were not adjacent channels (see
    /// [`ChannelDependencyGraph::bad_hops`]).
    bad_hops: u64,
}

impl DepSink<'_> {
    #[inline]
    fn record(&mut self, path: &[ChannelId]) {
        for w in path.windows(2) {
            let Some((word, mask)) = self.skel.bit_of(w[0], w[1]) else {
                self.bad_hops += 1;
                continue;
            };
            // All-pairs route sets repeat most dependencies many times over:
            // a plain load keeps the line shared between the cores, where an
            // unconditional `fetch_or` would take it exclusive on every hop.
            if self.bits[word].load(Ordering::Relaxed) & mask == 0 {
                self.bits[word].fetch_or(mask, Ordering::Relaxed);
            }
        }
    }
}

/// Build a CDG by walking every SD pair's route set in parallel.
///
/// `paths_of` is called once per ordered pair `(s, d)` with `s, d < ports`
/// and must invoke the emit callback once per path branch of that pair (a
/// single-path router emits one path; multipath/adaptive route sets emit
/// each branch, in sorted channel order). Dependencies are the union over
/// all emitted paths of consecutive channel pairs — a set union, so the
/// result is independent of thread count and emission order.
///
/// The build runs under span `cdg.build` and records the `cdg.deps`
/// counter, the `cdg.channels` / `cdg.bitmap_words` gauges, `par.threads`
/// (threads the sweep ran on) and, only when a path was broken, the
/// `cdg.bad_hops` counter.
fn build_cdg_with<F, R>(topo: &Topology, ports: u32, paths_of: F, rec: &R) -> ChannelDependencyGraph
where
    F: Fn(SdPair, &mut dyn FnMut(&[ChannelId])) + Sync,
    R: Recorder,
{
    build_by_source(
        topo,
        ports,
        |s, sink| {
            for d in 0..ports {
                paths_of(SdPair::new(s, d), &mut |path| sink.record(path));
            }
        },
        rec,
    )
}

/// The sweep behind every extractor: [`fold_sources`] hands each thread a
/// contiguous block of sources and a [`DepSink`] on the one shared bitmap,
/// and `paths_from(s, sink)` records every path that starts at source `s`.
/// The bitmap is a set union, so only the sinks' `bad_hops` need merging.
fn build_by_source<F, R>(
    topo: &Topology,
    ports: u32,
    paths_from: F,
    rec: &R,
) -> ChannelDependencyGraph
where
    F: Fn(u32, &mut DepSink<'_>) + Sync,
    R: Recorder,
{
    let _span = rec.span("cdg.build");
    let skel = DependencySkeleton::new(topo);
    let bits_atomic: Vec<AtomicU64> = (0..skel.num_words()).map(|_| AtomicU64::new(0)).collect();
    let bad_hops = fold_sources(
        ports,
        rayon::current_num_threads(),
        || DepSink {
            skel: &skel,
            bits: &bits_atomic,
            bad_hops: 0,
        },
        |sink, s| paths_from(s, sink),
        |a, b| DepSink {
            bad_hops: a.bad_hops + b.bad_hops,
            ..a
        },
        rec,
    )
    .bad_hops;
    let bits: Vec<u64> = bits_atomic.into_iter().map(AtomicU64::into_inner).collect();
    let graph = ChannelDependencyGraph::from_bits(skel, bits, bad_hops);
    rec.add("cdg.deps", graph.num_deps);
    if graph.bad_hops != 0 {
        rec.add("cdg.bad_hops", graph.bad_hops);
    }
    rec.gauge("cdg.channels", topo.num_channels() as u64);
    rec.gauge("cdg.bitmap_words", graph.bits.len() as u64);
    graph
}

/// Every cross pair of a single-path router from source `s`, routed into
/// one scratch buffer; `keep` filters the paths that count.
fn single_paths_from<R>(
    router: &R,
    s: u32,
    sink: &mut DepSink<'_>,
    keep: impl Fn(&[ChannelId]) -> bool,
) where
    R: SinglePathRouter + ?Sized,
{
    let mut path = Vec::new();
    for d in 0..router.ports() {
        if d != s {
            router.route_into(SdPair::new(s, d), &mut path);
            if keep(&path) {
                sink.record(&path);
            }
        }
    }
}

/// CDG of a single-path router over every SD pair of the fabric — the same
/// route set `routing::arena` freezes into CSR (a [`ftclos_routing::PathArena`]
/// itself implements [`SinglePathRouter`], so an already-built arena can be
/// passed here directly instead of re-routing).
pub fn cdg_of_router_with<R, Rec>(topo: &Topology, router: &R, rec: &Rec) -> ChannelDependencyGraph
where
    R: SinglePathRouter + Sync + ?Sized,
    Rec: Recorder,
{
    build_by_source(
        topo,
        router.ports(),
        |s, sink| single_paths_from(router, s, sink, |_| true),
        rec,
    )
}

/// The cycle analysis of a single-path router's full route set on `topo`:
/// counted from the router's top-choice rule when it declares one for this
/// fabric, else [`cdg_of_router_with`] followed by
/// [`ChannelDependencyGraph::check_with`]. Both give the same analysis,
/// field for field (`tests/engine_differential.rs`).
///
/// The count runs under span `cdg.closed_form` and records what a sweep
/// would: counter `cdg.deps` and gauges `cdg.channels` and
/// `cdg.cyclic_channels`. It routes nothing and allocates nothing, so it
/// records no `cdg.bitmap_words` and no `par.threads`. See the module doc
/// for why the verdict is FREE and how each channel's successors are
/// counted.
pub fn analyze_router_with<R, Rec>(topo: &Topology, router: &R, rec: &Rec) -> CycleAnalysis
where
    R: SinglePathRouter + Sync + ?Sized,
    Rec: Recorder,
{
    match router.top_rule() {
        // The rule describes the paths on its own fabric; on any other
        // topology the routes are swept like any router's.
        Some((ft, rule)) if std::ptr::eq(ft.topology(), topo) => {
            let _span = rec.span("cdg.closed_form");
            let num_deps = RuleCensus::new(ft, rule).num_deps();
            rec.add("cdg.deps", num_deps);
            rec.gauge("cdg.channels", topo.num_channels() as u64);
            rec.gauge("cdg.cyclic_channels", 0);
            CycleAnalysis {
                num_deps,
                valley_turns: 0,
                cyclic_channels: 0,
                bad_hops: 0,
                verdict: DeadlockVerdict::Free,
            }
        }
        _ => cdg_of_router_with(topo, router, rec).check_with(rec),
    }
}

/// The channel dependency graph of a top-choice rule's routes, counted:
/// the module doc's successor table, one channel at a time.
impl RuleCensus {
    /// The distinct successors of channel `c`: the channels that the pairs
    /// crossing `c` take next. `O(1)`: no port set is walked. (The count
    /// walks the channels class by class; the tests hold each channel's
    /// number to the swept graph's.)
    #[cfg(test)]
    fn successors(&self, c: u64) -> u64 {
        let (uplink, half) = (c.is_multiple_of(2), c / 2);
        match half.checked_sub(self.ports) {
            None if uplink => self.host_successors(half),
            None => 0, // a leaf down ends its path
            Some(cable) => self.cable_successors(cable / self.m, cable % self.m, uplink),
        }
    }

    /// The successors of host `h`'s leaf up.
    #[inline]
    fn host_successors(&self, h: u64) -> u64 {
        let (n, m) = (self.n, self.m);
        // Host h = v·n + i: its `n − 1` neighbours are one hop away, and it
        // takes up(v, t) whenever h ∈ S and D ≠ ∅ there.
        let (v, i) = (h / n, h % n);
        let far = self.far(v);
        let tops = match self.rule {
            // S is all of sw(v); D = far ∩ (≡ t mod m) is nonempty for every
            // residue the far hosts cover.
            TopRule::ByDestination => far.residues(m),
            // Only t ≡ h (mod m) has h ∈ S; its D is every far host.
            TopRule::BySource => u64::from(!far.is_empty()),
            // h ∈ S for t = i·n + j, j < n, t < m; each D = far ∩ (≡ j mod n)
            // is nonempty when far is, since far is whole blocks.
            TopRule::ByIndexPair if far.is_empty() => 0,
            TopRule::ByIndexPair => n.min(m.saturating_sub(i * n)),
        };
        n - 1 + tops
    }

    /// The successors of `up(v, t)` (`uplink`) or `down(t, v)`.
    #[inline]
    fn cable_successors(&self, v: u64, t: u64, uplink: bool) -> u64 {
        let (src, dst) = self.cable_crossing(v, t, uplink);
        if src.is_empty() {
            0
        } else if !uplink || dst.modulus() > self.n {
            // down(t, v): one leaf down of v per destination. up(v, t) with
            // a class of modulus > n: at most one destination per block.
            dst.len()
        } else if dst.is_empty() {
            0
        } else {
            // up(v, t) with a class of modulus ≤ n: every far block.
            self.r - 1
        }
    }

    /// The number of dependencies: every channel's distinct successors,
    /// the cables walked switch by switch and top by top.
    ///
    /// Fits in `u64` for any fabric with `u32` channel ids: the successors
    /// of `c` leave the node `c` enters, so there are at most `C − 1` of
    /// them for `C` channels, and `C ≤ 2³²` gives a sum of at most
    /// `C·(C − 1) ≤ 2⁶⁴ − 2³² < 2⁶⁴`. The accumulation is checked anyway.
    fn num_deps(&self) -> u64 {
        let mut sum = 0u64;
        let mut add = |successors: u64| {
            sum = sum
                .checked_add(successors)
                .expect("at most C·(C − 1) < 2⁶⁴ dependencies for C ≤ 2³² channels");
        };
        for h in 0..self.ports {
            add(self.host_successors(h));
        }
        for v in 0..self.r {
            for t in 0..self.m {
                add(self.cable_successors(v, t, true));
                add(self.cable_successors(v, t, false));
            }
        }
        sum
    }
}

/// CDG of a single-path router under faults: pairs whose (single,
/// pattern-independent) path crosses dead hardware are unroutable and
/// contribute no dependencies — faults can only *remove* CDG edges for
/// deterministic routing, never add them.
pub fn cdg_of_masked_router_with<R, Rec>(
    router: &R,
    view: &FaultyView,
    rec: &Rec,
) -> ChannelDependencyGraph
where
    R: SinglePathRouter + Sync + ?Sized,
    Rec: Recorder,
{
    build_by_source(
        view.topology(),
        router.ports(),
        |s, sink| single_paths_from(router, s, sink, |path| view.path_alive(path).is_ok()),
        rec,
    )
}

/// CDG of the oblivious multipath route set: every branch of every pair
/// (optionally fault-masked — pairs with no live branch contribute
/// nothing). Branches are emitted in sorted channel order so downstream
/// attribution ([`attribute_witness`]) is deterministic.
///
/// The same union is the NONBLOCKINGADAPTIVE candidate route set: every
/// plan the adaptive router can materialize sends each cross pair through
/// one of its live top switches, one up*/down* path per live top, so
/// acyclicity of this union proves *all* adaptive plans deadlock-free at
/// once.
pub fn cdg_of_multipath_with<Rec: Recorder>(
    ft: &Ftree,
    view: Option<&FaultyView>,
    rec: &Rec,
) -> ChannelDependencyGraph {
    let mp = ObliviousMultipath::new(ft);
    build_cdg_with(
        ft.topology(),
        mp.ports(),
        |pair, emit| {
            if pair.src == pair.dst {
                return;
            }
            let mut branches = match view {
                None => mp.paths(pair),
                Some(v) => match mp.paths_masked(pair, v) {
                    Ok(b) => b,
                    Err(_) => return, // no live branch: the pair is unroutable
                },
            };
            branches.sort_unstable_by(|a, b| a.channels().cmp(b.channels()));
            for p in &branches {
                emit(p.channels());
            }
        },
        rec,
    )
}

/// One cycle-edge of a witness, attributed back to a routed path: the
/// lowest SD pair (and, within it, the first branch in sorted channel
/// order) whose path crosses `from` immediately followed by `to`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WitnessEdge {
    /// The depending channel.
    pub from: ChannelId,
    /// The depended-on channel.
    pub to: ChannelId,
    /// The SD pair whose path realizes the dependency.
    pub pair: SdPair,
    /// That pair's full path.
    pub path: Vec<ChannelId>,
}

/// Attribute each edge of a witness cycle to a concrete routed path, using
/// the same `paths_of` enumeration the CDG was built from. The scan is
/// sequential over ascending `(s, d)` with branches in emission order, so
/// the attribution is deterministic; it stops as soon as every edge is
/// attributed. Edges no path realizes (impossible when `witness` came from
/// a CDG built with the same `paths_of`) are omitted.
pub fn attribute_witness<F>(witness: &[ChannelId], ports: u32, paths_of: F) -> Vec<WitnessEdge>
where
    F: Fn(SdPair, &mut dyn FnMut(&[ChannelId])),
{
    let k = witness.len();
    let mut found: Vec<Option<(SdPair, Vec<ChannelId>)>> = vec![None; k];
    let mut missing = k;
    'scan: for s in 0..ports {
        for d in 0..ports {
            let pair = SdPair::new(s, d);
            paths_of(pair, &mut |path: &[ChannelId]| {
                for w in path.windows(2) {
                    for (e, miss) in found.iter_mut().enumerate() {
                        if miss.is_none() && w[0] == witness[e] && w[1] == witness[(e + 1) % k] {
                            *miss = Some((pair, path.to_vec()));
                            missing -= 1;
                        }
                    }
                }
            });
            if missing == 0 {
                break 'scan;
            }
        }
    }
    found
        .into_iter()
        .enumerate()
        .filter_map(|(e, hit)| {
            let (pair, path) = hit?;
            Some(WitnessEdge {
                from: witness[e],
                to: witness[(e + 1) % k],
                pair,
                path,
            })
        })
        .collect()
}

/// A deliberately deadlock-*prone* router: the deterministic counterexample
/// the analyzer must catch. Cross-switch traffic from bottom switch `v`
/// first climbs to top `v mod m`, descends to the *neighbor* bottom
/// `(v+1) mod r`, and — unless a stop already hosts the destination —
/// keeps walking the neighbor ring for a second bounce before finishing.
/// Each down→up bounce is a "valley" turn, and together they chain every
/// bottom switch into a 2r-channel dependency cycle for `r ≥ 3`; for
/// `r = 2` the neighbor is always the destination, every path is a plain
/// up*/down* path, and the CDG is acyclic.
///
/// The *double* bounce matters dynamically: with single-bounce paths most
/// queued packets on the cycle are one hop from their exit, and the
/// simulator's round-robin arbiters always find an escapee — statically
/// cyclic, but the credit wedge never forms. Two bounces tip the balance
/// (most heads continue around the cycle) and the witness-injection
/// scenario stalls reliably.
#[derive(Clone, Copy, Debug)]
pub struct ValleyRouter<'a> {
    ft: &'a Ftree,
}

impl<'a> ValleyRouter<'a> {
    /// Wrap a fabric.
    pub fn new(ft: &'a Ftree) -> Self {
        Self { ft }
    }
}

impl SinglePathRouter for ValleyRouter<'_> {
    fn ports(&self) -> u32 {
        (self.ft.n() * self.ft.r()) as u32
    }

    fn route_into(&self, pair: SdPair, out: &mut Vec<ChannelId>) {
        out.clear();
        if pair.src == pair.dst {
            return;
        }
        let ft = self.ft;
        let n = ft.n();
        let (v, i) = (pair.src as usize / n, pair.src as usize % n);
        let (w, j) = (pair.dst as usize / n, pair.dst as usize % n);
        out.push(ft.leaf_up_channel(v, i));
        // Walk the neighbor ring from `v`, one up/down bounce per stop, until
        // a stop hosts the destination; the third descent goes straight to
        // `w`.
        let mut at = v;
        for bounce in 0..3 {
            if at == w {
                break;
            }
            let next = if bounce == 2 { w } else { (at + 1) % ft.r() };
            let top = at % ft.m();
            out.push(ft.up_channel(at, top));
            out.push(ft.down_channel(top, next));
            at = next;
        }
        out.push(ft.leaf_down_channel(w, j));
    }

    fn name(&self) -> &'static str {
        "valley"
    }
}

/// One router's verdict within a [`deadlock_sweep_with`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepEntry {
    /// Router name (as reported by the router itself).
    pub router: &'static str,
    /// The CDG cycle analysis for its full route set.
    pub analysis: CycleAnalysis,
}

/// Check every routing scheme of the fabric (Yuan deterministic when
/// `m ≥ n²`, d-mod-k, s-mod-k, oblivious multipath, and the
/// NONBLOCKINGADAPTIVE candidate set), pristine or fault-masked. On a
/// pristine fabric the single-path routers are counted
/// ([`analyze_router_with`], span `cdg.closed_form`); every other analysis
/// builds and checks a graph (spans `cdg.build` / `cdg.scc`).
pub fn deadlock_sweep_with<R: Recorder>(
    ft: &Ftree,
    view: Option<&FaultyView>,
    rec: &R,
) -> Vec<SweepEntry> {
    let topo = ft.topology();
    let mut out = Vec::new();
    let mut single = |name: &'static str, router: &(dyn SinglePathRouter + Sync)| {
        let analysis = match view {
            None => analyze_router_with(topo, router, rec),
            Some(v) => cdg_of_masked_router_with(router, v, rec).check_with(rec),
        };
        out.push(SweepEntry {
            router: name,
            analysis,
        });
    };
    if let Ok(yuan) = YuanDeterministic::new(ft) {
        single("yuan", &yuan);
    }
    let dmodk = DModK::new(ft);
    single("dmodk", &dmodk);
    let smodk = SModK::new(ft);
    single("smodk", &smodk);
    out.push(SweepEntry {
        router: "multipath",
        analysis: cdg_of_multipath_with(ft, view, rec).check_with(rec),
    });
    out.push(SweepEntry {
        router: "adaptive",
        analysis: cdg_of_multipath_with(ft, view, rec).check_with(rec),
    });
    out
}

/// The distinct fault sets a churn trace visits over `[0, horizon)` — the
/// same constant-fault-interval decomposition `churn::availability` uses
/// (events at or past the horizon are ignored; a same-cycle flap nets to
/// up). The pristine set is included when the trace starts or returns
/// clean. Returned in deterministic (sorted failed-channel key) order.
pub fn unique_churn_fault_sets(events: &[ChurnEvent], horizon: u64) -> Vec<FaultSet> {
    let mut sorted: Vec<ChurnEvent> = events
        .iter()
        .copied()
        .filter(|e| e.cycle < horizon)
        .collect();
    sorted.sort_unstable();
    let mut faults = FaultSet::new();
    let mut seen: BTreeSet<Vec<ChannelId>> = BTreeSet::new();
    let mut i = 0usize;
    let mut start = 0u64;
    while start < horizon {
        while i < sorted.len() && sorted[i].cycle == start {
            faults.apply_channel(sorted[i].channel, sorted[i].transition);
            i += 1;
        }
        let end = sorted.get(i).map(|e| e.cycle).unwrap_or(horizon);
        seen.insert(faults.failed_channels().collect());
        start = end;
    }
    seen.into_iter()
        .map(|key| {
            let mut f = FaultSet::new();
            for c in key {
                f.apply_channel(c, Transition::Down);
            }
            f
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclos_obs::Noop;
    use ftclos_routing::{XgftRouter, YuanRecursive};
    use ftclos_topo::{kary_ntree, RecursiveNonblocking};
    use rand::SeedableRng;

    /// Build a CDG from an explicit list of paths (serial; no pair sweep):
    /// the reference the parallel build is compared with, and the way to
    /// hand-build a fixture.
    fn cdg_of_paths<'a, I>(topo: &Topology, paths: I) -> ChannelDependencyGraph
    where
        I: IntoIterator<Item = &'a [ChannelId]>,
    {
        let skel = DependencySkeleton::new(topo);
        let mut bits = vec![0u64; skel.num_words()];
        let mut bad_hops = 0u64;
        for path in paths {
            for w in path.windows(2) {
                match skel.bit_of(w[0], w[1]) {
                    Some((word, mask)) => bits[word] |= mask,
                    None => bad_hops += 1,
                }
            }
        }
        ChannelDependencyGraph::from_bits(skel, bits, bad_hops)
    }

    fn analysis_of<R: SinglePathRouter + Sync>(topo: &Topology, r: &R) -> CycleAnalysis {
        cdg_of_router_with(topo, r, &Noop).check_with(&Noop)
    }

    #[test]
    fn yuan_dmodk_smodk_are_deadlock_free_on_ftree() {
        let ft = Ftree::new(2, 4, 3).unwrap();
        let topo = ft.topology();
        let yuan = analysis_of(topo, &YuanDeterministic::new(&ft).unwrap());
        let dmodk = analysis_of(topo, &DModK::new(&ft));
        let smodk = analysis_of(topo, &SModK::new(&ft));
        for a in [&yuan, &dmodk, &smodk] {
            assert!(a.is_free(), "{a:?}");
            assert_eq!(a.valley_turns, 0);
            assert_eq!(a.cyclic_channels, 0);
            assert!(a.num_deps > 0, "non-vacuous: some dependencies exist");
        }
        // The layering certificate agrees without running SCC.
        assert_eq!(
            cdg_of_router_with(topo, &DModK::new(&ft), &Noop).updown_order_certificate(),
            Ok(())
        );
    }

    #[test]
    fn multipath_union_is_deadlock_free() {
        let ft = Ftree::new(2, 4, 3).unwrap();
        let mp = cdg_of_multipath_with(&ft, None, &Noop).check_with(&Noop);
        assert!(mp.is_free(), "{mp:?}");
        // Multipath uses every top, so it dominates any single-path CDG.
        let dm = cdg_of_router_with(ft.topology(), &DModK::new(&ft), &Noop);
        assert!(mp.num_deps >= dm.num_deps());
    }

    #[test]
    fn kary_ntree_updown_routing_is_deadlock_free() {
        let x = kary_ntree(2, 3).unwrap();
        let a = analysis_of(x.topology(), &XgftRouter::dmod(&x));
        assert!(a.is_free(), "{a:?}");
        assert_eq!(a.valley_turns, 0);
        assert_eq!(
            cdg_of_router_with(x.topology(), &XgftRouter::dmod(&x), &Noop)
                .updown_order_certificate(),
            Ok(())
        );
    }

    #[test]
    fn recursive_three_level_routing_is_deadlock_free() {
        let net = RecursiveNonblocking::new(2).unwrap();
        let a = analysis_of(net.topology(), &YuanRecursive::new(&net));
        assert!(a.is_free(), "{a:?}");
        assert_eq!(a.valley_turns, 0);
    }

    #[test]
    fn valley_router_yields_the_2r_cycle() {
        let ft = Ftree::new(2, 2, 4).unwrap();
        let topo = ft.topology();
        let g = cdg_of_router_with(topo, &ValleyRouter::new(&ft), &Noop);
        let a = g.check_with(&Noop);
        assert!(a.valley_turns > 0, "the bounce is a valley turn");
        let witness = a
            .verdict
            .witness()
            .expect("valley routing deadlocks")
            .to_vec();
        assert_eq!(witness.len(), 2 * ft.r(), "one up+down per bottom switch");
        // Each hop of the witness is a real dependency, including closure.
        for k in 0..witness.len() {
            assert!(
                g.has_dep(witness[k], witness[(k + 1) % witness.len()]),
                "witness edge {k} missing"
            );
        }
        // The sufficient condition correctly fails on a valley turn.
        let (a_ch, b_ch) = cdg_of_router_with(topo, &ValleyRouter::new(&ft), &Noop)
            .updown_order_certificate()
            .unwrap_err();
        assert!(topo.channel(a_ch).dst == topo.channel(b_ch).src);
    }

    #[test]
    fn valley_router_with_two_bottoms_is_free() {
        // r = 2: the neighbor bottom always hosts the destination, so every
        // path is plain up*/down* and the analyzer must NOT cry wolf.
        let ft = Ftree::new(2, 2, 2).unwrap();
        let a = cdg_of_router_with(ft.topology(), &ValleyRouter::new(&ft), &Noop).check_with(&Noop);
        assert!(a.is_free(), "{a:?}");
        assert_eq!(a.valley_turns, 0);
    }

    #[test]
    fn valley_routes_are_valid_paths() {
        let ft = Ftree::new(2, 2, 4).unwrap();
        let router = ValleyRouter::new(&ft);
        let n = ft.n();
        let leaf_of = |p: u32| ft.leaf(p as usize / n, p as usize % n);
        let ports = router.ports();
        for s in 0..ports {
            for d in 0..ports {
                let p = router.route(SdPair::new(s, d));
                p.validate(ft.topology(), leaf_of(s), leaf_of(d))
                    .unwrap_or_else(|e| panic!("({s},{d}): {e}"));
            }
        }
    }

    #[test]
    fn witness_attribution_covers_every_edge() {
        let ft = Ftree::new(1, 2, 3).unwrap();
        let router = ValleyRouter::new(&ft);
        let g = cdg_of_router_with(ft.topology(), &router, &Noop);
        let a = g.check_with(&Noop);
        let witness = a.verdict.witness().expect("cyclic").to_vec();
        let edges = attribute_witness(&witness, router.ports(), |pair, emit| {
            if pair.src == pair.dst {
                return;
            }
            let p = router.route(pair);
            emit(p.channels());
        });
        assert_eq!(edges.len(), witness.len(), "every cycle edge attributed");
        for (k, e) in edges.iter().enumerate() {
            assert_eq!(e.from, witness[k]);
            assert_eq!(e.to, witness[(k + 1) % witness.len()]);
            let pos = e.path.iter().position(|&c| c == e.from).unwrap();
            assert_eq!(e.path[pos + 1], e.to, "path realizes the dependency");
        }
    }

    #[test]
    fn parallel_build_matches_serial_route_list() {
        // The second fabric has 256 ports: enough pairs for the sweep to
        // split across threads (when the machine has more than one).
        for (n, m, r) in [(2, 3, 4), (4, 4, 64)] {
            let ft = Ftree::new(n, m, r).unwrap();
            let router = DModK::new(&ft);
            let reg = ftclos_obs::Registry::new();
            let par = cdg_of_router_with(ft.topology(), &router, &reg);
            let ports = router.ports();
            if ports >= 256 {
                assert_eq!(
                    reg.snapshot().gauge("par.threads"),
                    Some(rayon::current_num_threads().min(2) as u64)
                );
            }
            // Full-mesh pair list, serially.
            let mut paths = Vec::new();
            for s in 0..ports {
                for d in 0..ports {
                    if s != d {
                        paths.push(router.route(SdPair::new(s, d)));
                    }
                }
            }
            let ser = cdg_of_paths(ft.topology(), paths.iter().map(|p| p.channels()));
            assert_eq!(par.bits, ser.bits, "atomic union == serial union");
            assert_eq!(par.num_deps(), ser.num_deps());
        }
    }

    #[test]
    fn faults_only_remove_dependencies() {
        let ft = Ftree::new(2, 4, 3).unwrap();
        let topo = ft.topology();
        let router = DModK::new(&ft);
        let pristine = cdg_of_router_with(topo, &router, &Noop);
        let mut faults = FaultSet::new();
        faults.fail_switch(ft.top(0));
        let view = FaultyView::new(topo, &faults);
        let masked = cdg_of_masked_router_with(&router, &view, &Noop);
        assert!(masked.num_deps() < pristine.num_deps(), "non-vacuous");
        for (m, p) in masked.bits.iter().zip(&pristine.bits) {
            assert_eq!(m & !p, 0, "masked deps are a subset of pristine");
        }
        assert!(masked.check_with(&Noop).is_free());
    }

    #[test]
    fn sweep_proves_every_router_free_pristine_and_faulted() {
        let ft = Ftree::new(2, 4, 3).unwrap();
        let entries = deadlock_sweep_with(&ft, None, &Noop);
        let names: Vec<_> = entries.iter().map(|e| e.router).collect();
        assert_eq!(
            names,
            ["yuan", "dmodk", "smodk", "multipath", "adaptive"],
            "m = n² fabric runs the full roster"
        );
        assert!(entries.iter().all(|e| e.analysis.is_free()));

        let mut faults = FaultSet::new();
        faults.fail_switch(ft.top(1));
        let view = FaultyView::new(ft.topology(), &faults);
        let masked = deadlock_sweep_with(&ft, Some(&view), &Noop);
        assert!(masked.iter().all(|e| e.analysis.is_free()));
        // Dead hardware shrinks every route set.
        for (m, p) in masked.iter().zip(&entries) {
            assert!(m.analysis.num_deps < p.analysis.num_deps, "{}", m.router);
        }
    }

    #[test]
    fn sweep_skips_yuan_below_threshold() {
        let ft = Ftree::new(2, 2, 3).unwrap(); // m < n²
        let entries = deadlock_sweep_with(&ft, None, &Noop);
        assert!(entries.iter().all(|e| e.router != "yuan"));
        assert!(entries.iter().all(|e| e.analysis.is_free()));
    }

    #[test]
    fn churn_fault_sets_dedup_and_respect_horizon() {
        let ft = Ftree::new(2, 4, 3).unwrap();
        let c0 = ft.up_channel(0, 0);
        let c1 = ft.up_channel(0, 1);
        let events = vec![
            ChurnEvent::new(100, c0, Transition::Down),
            ChurnEvent::new(200, c0, Transition::Up),
            ChurnEvent::new(300, c0, Transition::Down), // same set as cycle 100
            ChurnEvent::new(400, c1, Transition::Down),
            ChurnEvent::new(900, c1, Transition::Up), // past horizon: ignored
        ];
        let sets = unique_churn_fault_sets(&events, 800);
        // {}, {c0}, {c0, c1} — the repeat visit and the late repair dedup.
        assert_eq!(sets.len(), 3);
        let sizes: Vec<_> = sets.iter().map(|f| f.failed_channels().count()).collect();
        assert_eq!(sizes, [0, 1, 2]);
        // Every epoch set stays deadlock-free for dmodk.
        let router = DModK::new(&ft);
        for f in &sets {
            let view = FaultyView::new(ft.topology(), f);
            assert!(cdg_of_masked_router_with(&router, &view, &Noop)
                .check_with(&Noop)
                .is_free());
        }
    }

    #[test]
    fn successor_iteration_is_sorted_and_matches_has_dep() {
        let ft = Ftree::new(2, 2, 4).unwrap();
        let g = cdg_of_router_with(ft.topology(), &ValleyRouter::new(&ft), &Noop);
        let mut seen = 0u64;
        for a in ft.topology().channel_ids() {
            let succ: Vec<ChannelId> = g.successors(a).collect();
            let mut sorted = succ.clone();
            sorted.sort_unstable();
            assert_eq!(succ, sorted, "successors of {a} out of order");
            for &b in &succ {
                assert!(g.has_dep(a, b));
                seen += 1;
            }
        }
        assert_eq!(seen, g.num_deps());
    }

    #[test]
    fn has_dep_rejects_non_adjacent_channels() {
        let ft = Ftree::new(2, 2, 3).unwrap();
        let g = cdg_of_router_with(ft.topology(), &DModK::new(&ft), &Noop);
        // Two leaf-up channels never share a head/tail node.
        let a = ft.leaf_up_channel(0, 0);
        let b = ft.leaf_up_channel(1, 0);
        assert!(!g.has_dep(a, b));
    }

    #[test]
    fn witness_is_deterministic_across_rebuilds() {
        let ft = Ftree::new(2, 3, 5).unwrap();
        let w1 = cdg_of_router_with(ft.topology(), &ValleyRouter::new(&ft), &Noop)
            .check_with(&Noop)
            .verdict;
        let w2 = cdg_of_router_with(ft.topology(), &ValleyRouter::new(&ft), &Noop)
            .check_with(&Noop)
            .verdict;
        assert_eq!(w1, w2);
        assert!(!w1.is_free());
    }

    #[test]
    fn hand_built_bounce_paths_form_a_minimal_cycle() {
        // Two valley paths that feed each other through the lone top:
        // up(0)→down(1)→up(1) and up(1)→down(0)→up(0) close a 4-cycle.
        let ft = Ftree::new(1, 1, 2).unwrap();
        let topo = ft.topology();
        let (u0, u1) = (ft.up_channel(0, 0), ft.up_channel(1, 0));
        let (d0, d1) = (ft.down_channel(0, 0), ft.down_channel(0, 1));
        let p1 = [u0, d1, u1];
        let p2 = [u1, d0, u0];
        let g = cdg_of_paths(topo, [p1.as_slice(), p2.as_slice()]);
        let a = g.check_with(&Noop);
        assert_eq!(a.cyclic_channels, 4);
        assert_eq!(a.num_deps, 4);
        assert_eq!(a.valley_turns, 2);
        let witness = a.verdict.witness().expect("cycle").to_vec();
        assert_eq!(witness.len(), 4);
        assert_eq!(witness[0], [u0, u1, d0, d1].into_iter().min().unwrap());
    }

    /// The certificate-first `check` and the Tarjan pass it skips must give
    /// one answer.
    fn assert_certificate_agrees_with_tarjan(g: &ChannelDependencyGraph) -> CycleAnalysis {
        let a = g.check_with(&Noop);
        let (cyclic_channels, verdict) = g.tarjan_verdict();
        assert_eq!((a.cyclic_channels, &a.verdict), (cyclic_channels, &verdict));
        a
    }

    #[test]
    fn certificate_verdict_equals_tarjan_on_every_fixture() {
        let ft = Ftree::new(2, 4, 3).unwrap();
        let topo = ft.topology();
        let free = [
            cdg_of_router_with(topo, &YuanDeterministic::new(&ft).unwrap(), &Noop),
            cdg_of_router_with(topo, &DModK::new(&ft), &Noop),
            cdg_of_router_with(topo, &SModK::new(&ft), &Noop),
            cdg_of_multipath_with(&ft, None, &Noop),
        ];
        for g in &free {
            assert!(assert_certificate_agrees_with_tarjan(g).is_free());
        }
        let x = kary_ntree(2, 3).unwrap();
        let tree = cdg_of_router_with(x.topology(), &XgftRouter::dmod(&x), &Noop);
        assert!(assert_certificate_agrees_with_tarjan(&tree).is_free());
        let net = RecursiveNonblocking::new(2).unwrap();
        let rec = cdg_of_router_with(net.topology(), &YuanRecursive::new(&net), &Noop);
        assert!(assert_certificate_agrees_with_tarjan(&rec).is_free());

        // Valley turns that close a cycle (r ≥ 3) and the r = 2 fabric whose
        // valley router has none.
        for (r, cyclic) in [(2, false), (3, true), (4, true), (5, true)] {
            let ft = Ftree::new(2, 2, r).unwrap();
            let a = assert_certificate_agrees_with_tarjan(&cdg_of_router_with(
                ft.topology(),
                &ValleyRouter::new(&ft),
                &Noop,
            ));
            assert_eq!(!a.is_free(), cyclic, "r = {r}");
        }

        // The hand-built bounce cycle, and one bounce alone: a valley turn
        // that closes no cycle, which only Tarjan can clear.
        let ft = Ftree::new(1, 1, 2).unwrap();
        let (u0, u1) = (ft.up_channel(0, 0), ft.up_channel(1, 0));
        let (d0, d1) = (ft.down_channel(0, 0), ft.down_channel(0, 1));
        let cycle = cdg_of_paths(ft.topology(), [[u0, d1, u1].as_slice(), &[u1, d0, u0]]);
        assert_eq!(
            assert_certificate_agrees_with_tarjan(&cycle).cyclic_channels,
            4
        );
        let bounce = assert_certificate_agrees_with_tarjan(&cdg_of_paths(
            ft.topology(),
            [[u0, d1, u1].as_slice()],
        ));
        assert!(bounce.is_free());
        assert_eq!(bounce.valley_turns, 1);
    }

    #[test]
    fn same_level_ring_is_left_to_tarjan() {
        // Three level-1 switches in a ring, one leaf each. A same-level hop
        // ranks as a descent, so the ring's cycle has no valley turn: the
        // certificate must not be trusted on such a fabric.
        use ftclos_topo::{NodeKind, TopologyBuilder};
        let mut b = TopologyBuilder::new();
        let leaves = b.add_nodes(NodeKind::Leaf, 3);
        let switches = b.add_nodes(NodeKind::Switch { level: 1 }, 3);
        let sw = |k: u32| ftclos_topo::NodeId(switches.0 + k % 3);
        for k in 0..3 {
            b.connect_bidir(ftclos_topo::NodeId(leaves.0 + k), sw(k));
        }
        let ring: Vec<ChannelId> = (0..3).map(|k| b.connect_uni(sw(k), sw(k + 1))).collect();
        let topo = b.finish();
        let two_hops: Vec<[ChannelId; 2]> = (0..3).map(|k| [ring[k], ring[(k + 1) % 3]]).collect();
        let g = cdg_of_paths(&topo, two_hops.iter().map(|p| p.as_slice()));
        let a = assert_certificate_agrees_with_tarjan(&g);
        assert_eq!(a.valley_turns, 0);
        assert_eq!(a.cyclic_channels, 3);
        assert_eq!(a.verdict.witness().map(<[_]>::len), Some(3));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random walks over a small fabric — valley turns, U-turns and all —
        /// get the same verdict, witness and cyclic-channel count from the
        /// certificate-first check as from Tarjan alone.
        #[test]
        fn certificate_verdict_equals_tarjan_on_random_path_sets(
            n in 1usize..3, m in 1usize..4, r in 2usize..5,
            walks in 1usize..12, seed in 0u64..10_000,
        ) {
            use rand::Rng;
            let ft = Ftree::new(n, m, r).unwrap();
            let topo = ft.topology();
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let paths: Vec<Vec<ChannelId>> = (0..walks)
                .map(|_| {
                    let mut at = ChannelId(rng.gen_range(0..topo.num_channels() as u32));
                    let mut path = vec![at];
                    for _ in 0..rng.gen_range(1..6usize) {
                        let out = topo.out_channels(topo.channel(at).dst);
                        at = out.get(rng.gen_range(0..out.len()));
                        path.push(at);
                    }
                    path
                })
                .collect();
            let g = cdg_of_paths(topo, paths.iter().map(Vec::as_slice));
            proptest::prop_assert_eq!(g.bad_hops(), 0);
            assert_certificate_agrees_with_tarjan(&g);
        }
    }

    #[test]
    fn non_adjacent_hops_are_counted_not_dropped() {
        let ft = Ftree::new(2, 2, 3).unwrap();
        let topo = ft.topology();
        // Two leaf uplinks never share a node: no dependency, one bad hop.
        let (a, b) = (ft.leaf_up_channel(0, 0), ft.leaf_up_channel(1, 0));
        let g = cdg_of_paths(topo, [[a, b].as_slice(), &[a, ft.up_channel(0, 1)]]);
        assert_eq!(g.bad_hops(), 1);
        assert_eq!(g.num_deps(), 1, "the adjacent hop is still recorded");
        assert_eq!(g.check_with(&Noop).bad_hops, 1);

        /// Routes every cross pair over two leaf uplinks in a row.
        struct Broken<'a>(&'a Ftree);
        impl SinglePathRouter for Broken<'_> {
            fn ports(&self) -> u32 {
                self.0.num_leaves() as u32
            }
            fn route_into(&self, pair: SdPair, out: &mut Vec<ChannelId>) {
                out.clear();
                if pair.src != pair.dst {
                    let n = self.0.n();
                    let up = |p: u32| self.0.leaf_up_channel(p as usize / n, p as usize % n);
                    out.extend_from_slice(&[up(pair.src), up(pair.dst)]);
                }
            }
            fn name(&self) -> &'static str {
                "broken"
            }
        }
        let reg = ftclos_obs::Registry::new();
        let swept = cdg_of_router_with(topo, &Broken(&ft), &reg);
        assert_eq!(swept.bad_hops(), 6 * 5, "one per ordered cross pair");
        assert_eq!(swept.num_deps(), 0);
        assert_eq!(reg.snapshot().counter("cdg.bad_hops"), Some(30));
        // A sound router records none, and no counter.
        let reg = ftclos_obs::Registry::new();
        assert_eq!(
            cdg_of_router_with(topo, &DModK::new(&ft), &reg).bad_hops(),
            0
        );
        assert_eq!(reg.snapshot().counter("cdg.bad_hops"), None);
    }

    #[test]
    fn build_records_the_threads_it_ran_on() {
        let ft = Ftree::new(2, 4, 3).unwrap();
        let reg = ftclos_obs::Registry::new();
        cdg_of_router_with(ft.topology(), &DModK::new(&ft), &reg);
        // 36 pairs: far too few for a second thread.
        assert_eq!(reg.snapshot().gauge("par.threads"), Some(1));
    }

    /// Every rule router of `ft`: the rule's census beside the router.
    fn rule_routers(ft: &Ftree) -> Vec<(Box<dyn SinglePathRouter + Sync + '_>, RuleCensus)> {
        let mut out: Vec<(Box<dyn SinglePathRouter + Sync>, RuleCensus)> = vec![
            (
                Box::new(DModK::new(ft)),
                RuleCensus::new(ft, TopRule::ByDestination),
            ),
            (
                Box::new(SModK::new(ft)),
                RuleCensus::new(ft, TopRule::BySource),
            ),
        ];
        if let Ok(yuan) = YuanDeterministic::new(ft) {
            out.push((Box::new(yuan), RuleCensus::new(ft, TopRule::ByIndexPair)));
        }
        out
    }

    #[test]
    fn counted_successors_are_the_swept_successors_channel_by_channel() {
        // Class moduli below, at and above n; one switch; one host a switch.
        for (n, m, r) in [
            (2, 4, 5),
            (3, 2, 4),
            (3, 3, 3),
            (2, 5, 6),
            (3, 10, 4),
            (3, 9, 1),
        ] {
            let ft = Ftree::new(n, m, r).unwrap();
            for (router, census) in rule_routers(&ft) {
                let g = cdg_of_router_with(ft.topology(), &*router, &Noop);
                for c in ft.topology().channel_ids() {
                    assert_eq!(
                        census.successors(c.index() as u64),
                        g.successors(c).count() as u64,
                        "{} on ftree({n}+{m}, {r}), {c}",
                        router.name()
                    );
                }
                assert_eq!(census.num_deps(), g.num_deps());
            }
        }
    }

    #[test]
    fn counted_analysis_records_no_sweep() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let reg = ftclos_obs::Registry::new();
        let counted =
            analyze_router_with(ft.topology(), &YuanDeterministic::new(&ft).unwrap(), &reg);
        assert_eq!(counted.num_deps, 130);
        assert!(counted.is_free());
        let snap = reg.snapshot();
        let spans: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(spans, ["cdg.closed_form"]);
        assert_eq!(snap.counter("cdg.deps"), Some(130));
        assert_eq!(
            snap.gauge("cdg.channels"),
            Some(ft.topology().num_channels() as u64)
        );
        assert_eq!(snap.gauge("cdg.cyclic_channels"), Some(0));
        assert_eq!(snap.gauge("cdg.bitmap_words"), None);
        assert_eq!(snap.gauge("par.threads"), None);
        // On a topology that is not the rule's own fabric, the routes are
        // swept like any router's.
        let twin = Ftree::new(2, 4, 5).unwrap();
        let reg = ftclos_obs::Registry::new();
        let swept =
            analyze_router_with(twin.topology(), &YuanDeterministic::new(&ft).unwrap(), &reg);
        assert_eq!(swept, counted);
        let snap = reg.snapshot();
        let spans: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(spans, ["cdg.build", "cdg.scc"]);
    }

    #[test]
    fn dependency_count_fits_u64_at_the_largest_shapes() {
        // The two extremes of C = 2·r·(n + m) = 2³² channels, the most `u32`
        // ids can name: 2³⁰ switches of one host and one top, and one switch
        // of 2³¹ − 1 hosts. Each channel class there has one successor
        // count, so the class sums stand in for the 2³²-channel loop; the
        // channels sampled include the last id, 2³² − 1.
        let c = 1u64 << 32;
        for (n, m, r) in [(1u64, 1u64, 1u64 << 30), ((1 << 31) - 1, 1, 1)] {
            let p = n * r;
            for rule in [
                TopRule::ByDestination,
                TopRule::BySource,
                TopRule::ByIndexPair,
            ] {
                let census = RuleCensus::of_shape(n, m, r, rule);
                assert_eq!(census.channels, c);
                // [leaf up, leaf down, up, down]: first id, step, count (the
                // last down is channel 2³² − 1).
                let classes = [
                    (0, 2, p),
                    (1, 2, p),
                    (2 * p, 2, m * r),
                    (2 * p + 1, 2, m * r),
                ];
                let mut sum = 0u64;
                for (first, step, count) in classes {
                    let of = |k: u64| census.successors(first + k * step);
                    let each = of(0);
                    for k in [1.min(count - 1), count / 2, count - 1] {
                        assert_eq!(of(k), each, "{rule:?} ftree({n}+{m}, {r})");
                    }
                    assert!(each < c);
                    sum = each
                        .checked_mul(count)
                        .and_then(|class| sum.checked_add(class))
                        .expect("the class sums fit");
                }
                // Host up: n − 1 neighbours (+ 1 top when r > 1); up: r − 1
                // switches; down: n hosts; leaf down: nothing.
                let want = if r == 1 {
                    p * (n - 1)
                } else {
                    p + m * r * (r - 1) + m * r
                };
                assert_eq!(sum, want, "{rule:?} ftree({n}+{m}, {r})");
            }
        }
        assert!(c.checked_mul(c - 1).is_some(), "the module's bound");
    }

    #[test]
    fn skeleton_orders_rows_by_channel_id() {
        let ft = Ftree::new(2, 3, 3).unwrap();
        let skel = DependencySkeleton::new(ft.topology());
        for node in 0..ft.topology().num_nodes() {
            assert!(skel.out_row(node).is_sorted());
            assert!(skel.in_row(node).is_sorted());
            for (pos, &c) in skel.out_row(node).iter().enumerate() {
                assert_eq!(skel.pos_in_out[c.index()] as usize, pos);
                assert_eq!(skel.tail[c.index()] as usize, node);
            }
        }
    }
}
