//! Paged lazy simulator state — `O(touched)` memory on sparse runs.
//!
//! The kernel indexes its mutable state by channel id: packet queues,
//! arbiter pointers, wire-busy deadlines, and liveness flags. Dense
//! `vec![default; num_channels]` allocation is what capped the simulators
//! near 100k hosts: a `RecursiveNonblocking(24)` fabric has ~415M directed
//! channels, so the dense arrays alone cost tens of gigabytes before the
//! first packet moves — even though a permutation workload touches a few
//! percent of them. That fabric's topology is implicit (its channels are
//! arithmetic, it stores node kinds only), so at n = 24 and n = 32 (2.3G
//! channels) this paged state is nearly all the memory a run holds.
//!
//! [`PagedVec`] keeps the same indexed-array semantics with lazy backing
//! storage: a page directory maps fixed-size pages to slots allocated on
//! first *write*. Reads of untouched entries return the default value, which
//! every engine default synthesizes arithmetically (`VecDeque::new()`, `0`,
//! `false`) — so replay is bit-exact against the dense arrays by
//! construction. [`SimArena`] bundles the per-run state and retires pages
//! into a freelist on reset, amortizing allocation across batch sweeps,
//! fault campaigns, and churn replays instead of rebuilding per run.

use crate::error::{StallReport, Strand};
use crate::policy::Policy;
use ftclos_topo::ChannelId;
use std::collections::{BTreeMap, VecDeque};

/// Log2 of the page size: 512 entries per page balances touch granularity
/// (a lone hot channel materializes ~16 KiB of queue slots) against
/// directory overhead (4 bytes per 512 entries, ~3 MiB at 415M channels).
pub(crate) const PAGE_SHIFT: usize = 9;
/// Entries per page.
pub const PAGE_LEN: usize = 1 << PAGE_SHIFT;

/// One in-flight packet.
#[derive(Clone, Copy, Debug)]
pub struct Packet {
    /// Source leaf id.
    pub src: u32,
    /// Destination leaf id.
    pub dst: u32,
    /// The channel walk from source to destination: a row of the run's
    /// [`Policy`], resolved through `Policy::path`.
    pub row: u32,
    /// Index of the next channel to traverse.
    pub hop: u32,
    /// Cycle the original attempt was injected (kept across retries).
    pub inject_cycle: u64,
    /// Earliest cycle at which the packet may be granted its next hop
    /// (enforces one hop per cycle and multi-flit serialization).
    pub ready_at: u64,
    /// Cycle at which this attempt times out (`u64::MAX` when TTL is off).
    pub deadline: u64,
    /// Retransmissions already consumed.
    pub retries: u32,
}

/// A fixed-length array with page-granular lazy allocation.
///
/// Untouched entries read as the default value; the first mutable access to
/// an entry materializes its page (from the freelist when one is spare).
/// Page *placement* depends on touch order, but every observation — `get`,
/// `PagedVec::iter_touched` — is in ascending index order, so behavior
/// never depends on access history.
#[derive(Clone, Debug)]
pub struct PagedVec<T> {
    len: usize,
    /// Page index -> slot + 1 in `pages`; `0` = untouched.
    dir: Vec<u32>,
    pages: Vec<Box<[T]>>,
    /// Retired pages kept across [`PagedVec::reset`] for reuse.
    spare: Vec<Box<[T]>>,
    default: T,
}

impl<T: Clone> PagedVec<T> {
    /// A length-`len` array where every entry reads as `default`.
    pub(crate) fn new(len: usize, default: T) -> Self {
        Self {
            len,
            dir: vec![0; len.div_ceil(PAGE_LEN)],
            pages: Vec::new(),
            spare: Vec::new(),
            default,
        }
    }

    /// Entry count (dense length, not touched count).
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether the dense length is zero.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read entry `i` without materializing its page.
    ///
    /// # Panics
    /// If `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> &T {
        assert!(i < self.len, "PagedVec index {i} out of range {}", self.len);
        match self.dir[i >> PAGE_SHIFT] {
            0 => &self.default,
            slot => &self.pages[slot as usize - 1][i & (PAGE_LEN - 1)],
        }
    }

    /// Mutable access to entry `i`, materializing its page on first touch.
    ///
    /// # Panics
    /// If `i >= len()`.
    #[inline]
    pub(crate) fn get_mut(&mut self, i: usize) -> &mut T {
        assert!(i < self.len, "PagedVec index {i} out of range {}", self.len);
        let p = i >> PAGE_SHIFT;
        if self.dir[p] == 0 {
            self.materialize(p);
        }
        let slot = self.dir[p] as usize - 1;
        &mut self.pages[slot][i & (PAGE_LEN - 1)]
    }

    fn materialize(&mut self, p: usize) {
        let page = match self.spare.pop() {
            Some(mut page) => {
                page.fill(self.default.clone());
                page
            }
            None => vec![self.default.clone(); PAGE_LEN].into_boxed_slice(),
        };
        self.pages.push(page);
        self.dir[p] = self.pages.len() as u32;
    }

    /// Entries of all touched pages in ascending index order (untouched
    /// entries of a touched page are included and read as default).
    pub(crate) fn iter_touched(&self) -> impl Iterator<Item = (usize, &T)> {
        self.dir
            .iter()
            .enumerate()
            .filter(|&(_, &slot)| slot != 0)
            .flat_map(move |(p, &slot)| {
                let base = p << PAGE_SHIFT;
                self.pages[slot as usize - 1]
                    .iter()
                    .take(self.len - base)
                    .enumerate()
                    .map(move |(j, v)| (base + j, v))
            })
    }

    /// Entries covered by materialized pages.
    pub(crate) fn touched_entries(&self) -> usize {
        self.dir
            .iter()
            .enumerate()
            .filter(|&(_, &slot)| slot != 0)
            .map(|(p, _)| PAGE_LEN.min(self.len - (p << PAGE_SHIFT)))
            .sum()
    }

    /// Whether page `p` is materialized.
    pub(crate) fn page_touched(&self, p: usize) -> bool {
        self.dir.get(p).is_some_and(|&slot| slot != 0)
    }

    /// Backing bytes: directory plus materialized and spare pages.
    /// Per-entry heap allocations (queue buffers) are not counted.
    pub(crate) fn state_bytes(&self) -> usize {
        self.dir.capacity() * std::mem::size_of::<u32>()
            + (self.pages.len() + self.spare.len()) * PAGE_LEN * std::mem::size_of::<T>()
    }

    /// Reset to a fresh length-`len` all-default array, retiring every
    /// materialized page into the freelist for reuse.
    pub(crate) fn reset(&mut self, len: usize) {
        self.spare.append(&mut self.pages);
        self.len = len;
        self.dir.clear();
        self.dir.resize(len.div_ceil(PAGE_LEN), 0);
    }

    /// Materialize every page (the dense-prefill mode differential tests
    /// use to pin sparse and dense behavior against each other).
    pub(crate) fn prefill(&mut self) {
        for p in 0..self.dir.len() {
            if self.dir[p] == 0 {
                self.materialize(p);
            }
        }
    }
}

/// The mutable per-run state of a simulator, with lazy paged backing.
///
/// Fields are public because the kernel and its schedules borrow them
/// disjointly; treat the layout as engine-internal.
/// `prepare` resets all arrays for a run over a fabric with the given
/// shape; pages retired by the reset are reused, so repeated runs through
/// one arena (batch sweeps, campaign confirms, churn replays) stop paying
/// the allocation cost after the first.
#[derive(Clone, Debug, Default)]
pub struct SimArena {
    /// Per-channel queue of packets that crossed it, waiting at its dst.
    pub queues: PagedVec<VecDeque<Packet>>,
    /// Per-leaf-slot queue of injected packets awaiting their uplink.
    pub inject: PagedVec<VecDeque<Packet>>,
    /// Round-robin grant pointer per output channel (arbiter state).
    pub rr: PagedVec<u32>,
    /// iSLIP accept pointer per input channel.
    pub accept_ptr: PagedVec<u32>,
    /// Multi-flit serialization: a channel is busy until this cycle.
    pub busy_until: PagedVec<u64>,
    /// Channels killed by fault events grant no further packets.
    pub dead: PagedVec<bool>,
    /// When set, every `prepare` materializes all pages up front — the
    /// historical dense layout, kept for sparse-vs-dense differentials.
    prefill_on_prepare: bool,
}

impl SimArena {
    /// An empty arena; the first `prepare` shapes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset every array for a run over `num_channels` channels and
    /// `num_leaf_slots` injecting leaves.
    pub(crate) fn prepare(&mut self, num_channels: usize, num_leaf_slots: usize) {
        self.queues.reset(num_channels);
        self.inject.reset(num_leaf_slots);
        self.rr.reset(num_channels);
        self.accept_ptr.reset(num_channels);
        self.busy_until.reset(num_channels);
        self.dead.reset(num_channels);
        if self.prefill_on_prepare {
            self.prefill_dense();
        }
    }

    /// Make every future `prepare` materialize all pages (dense mode).
    /// Differential tests run an engine once lazily and once dense to pin
    /// bit-identity; there is no reason to enable this in production.
    pub fn set_prefill_on_prepare(&mut self, on: bool) {
        self.prefill_on_prepare = on;
    }

    /// Materialize every page of every array — the dense layout the
    /// engines had before paging, used by differential tests to pin
    /// sparse-vs-dense bit-identity.
    pub(crate) fn prefill_dense(&mut self) {
        self.queues.prefill();
        self.inject.prefill();
        self.rr.prefill();
        self.accept_ptr.prefill();
        self.busy_until.prefill();
        self.dead.prefill();
    }

    /// Channels resident in a materialized page of *any* channel-indexed
    /// array — the engine's working set, page-granular.
    pub fn touched_channels(&self) -> usize {
        let num_channels = self.queues.len();
        (0..self.queues.dir.len())
            .filter(|&p| {
                self.queues.page_touched(p)
                    || self.rr.page_touched(p)
                    || self.accept_ptr.page_touched(p)
                    || self.busy_until.page_touched(p)
                    || self.dead.page_touched(p)
            })
            .map(|p| PAGE_LEN.min(num_channels - (p << PAGE_SHIFT)))
            .sum()
    }

    /// Total backing bytes across all arrays (directories, materialized
    /// pages, and spare pages; per-packet heap is not counted).
    pub fn state_bytes(&self) -> usize {
        self.queues.state_bytes()
            + self.inject.state_bytes()
            + self.rr.state_bytes()
            + self.accept_ptr.state_bytes()
            + self.busy_until.state_bytes()
            + self.dead.state_bytes()
    }
}

impl<T: Clone + Default> Default for PagedVec<T> {
    fn default() -> Self {
        Self::new(0, T::default())
    }
}

/// Build the stall watchdog's diagnosis from the frozen queue state: one
/// [`Strand`] per blocked queue head (channel queues by ascending id, then
/// injection queues by slot) and the credit wait-for cycle among held
/// channels, if one exists. Iterating touched pages only is exact because
/// untouched queues are empty.
pub(crate) fn stall_report(
    cycle: u64,
    in_flight: u64,
    policy: &Policy,
    arena: &SimArena,
) -> StallReport {
    let mut strands = Vec::new();
    // Functional wait-for graph over channels: the head packet of channel
    // `c`'s queue waits for `waits[c]` (absent when the queue is empty).
    let mut waits: BTreeMap<u32, ChannelId> = BTreeMap::new();
    let SimArena { queues, inject, .. } = arena;
    let held = queues.iter_touched().map(|(c, q)| (Some(c as u32), q));
    for (holds, q) in held.chain(inject.iter_touched().map(|(_, q)| (None, q))) {
        let Some(p) = q.front() else { continue };
        let Some(next) = policy.next_hop(p.row, p.hop) else {
            continue; // defensive: delivered packets never sit in queues
        };
        strands.push(Strand {
            src: p.src,
            dst: p.dst,
            holds: holds.map(ChannelId),
            waits_for: next,
            queued: q.len(),
        });
        if let Some(c) = holds {
            waits.insert(c, next);
        }
    }
    StallReport {
        cycle,
        in_flight,
        strands,
        wait_cycle: find_wait_cycle(&waits),
    }
}

/// First cycle of the functional graph `waits`, walking from the lowest
/// channel id; rotated to start at its smallest member. Identical to the
/// historical dense scan: channels absent from the map are exactly the
/// `None` entries the dense walk colored and broke on.
fn find_wait_cycle(waits: &BTreeMap<u32, ChannelId>) -> Vec<ChannelId> {
    // Missing = unvisited, 1 = on the current walk, 2 = exhausted.
    let mut color: BTreeMap<u32, u8> = BTreeMap::new();
    for &start in waits.keys() {
        if color.contains_key(&start) {
            continue;
        }
        let mut walk: Vec<u32> = Vec::new();
        let mut cur = start;
        loop {
            color.insert(cur, 1);
            walk.push(cur);
            let Some(next) = waits.get(&cur).map(|c| c.0) else {
                break;
            };
            match color.get(&next) {
                Some(2) => break,
                Some(_) => {
                    // Found a cycle: the walk tail from `next`'s position.
                    let pos = walk.iter().position(|&c| c == next).unwrap_or(0);
                    let mut cycle: Vec<ChannelId> =
                        walk[pos..].iter().map(|&c| ChannelId(c)).collect();
                    if let Some(min_pos) = cycle
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, c)| c.0)
                        .map(|(i, _)| i)
                    {
                        cycle.rotate_left(min_pos);
                    }
                    return cycle;
                }
                None => cur = next,
            }
        }
        for c in walk {
            color.insert(c, 2);
        }
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_reads_default_and_allocates_nothing() {
        let v: PagedVec<u64> = PagedVec::new(10 * PAGE_LEN, 7);
        assert_eq!(v.len(), 10 * PAGE_LEN);
        assert_eq!(*v.get(0), 7);
        assert_eq!(*v.get(10 * PAGE_LEN - 1), 7);
        assert_eq!(v.touched_entries(), 0);
        assert_eq!(v.iter_touched().count(), 0);
    }

    #[test]
    fn writes_materialize_only_their_page() {
        let mut v: PagedVec<u32> = PagedVec::new(4 * PAGE_LEN + 3, 0);
        *v.get_mut(PAGE_LEN + 1) = 11;
        *v.get_mut(4 * PAGE_LEN + 2) = 22; // partial last page
        assert_eq!(v.touched_entries(), PAGE_LEN + 3);
        assert_eq!(*v.get(PAGE_LEN + 1), 11);
        assert_eq!(*v.get(PAGE_LEN), 0, "same page, untouched entry");
        assert_eq!(*v.get(0), 0, "untouched page");
        let touched: Vec<(usize, u32)> = v.iter_touched().map(|(i, &x)| (i, x)).collect();
        assert_eq!(touched.len(), PAGE_LEN + 3);
        assert!(touched.windows(2).all(|w| w[0].0 < w[1].0), "ascending");
        assert_eq!(touched[1], (PAGE_LEN + 1, 11));
        assert_eq!(touched[PAGE_LEN + 2], (4 * PAGE_LEN + 2, 22));
    }

    #[test]
    fn ascending_iteration_is_independent_of_touch_order() {
        let mut a: PagedVec<u32> = PagedVec::new(3 * PAGE_LEN, 0);
        let mut b = a.clone();
        *a.get_mut(0) = 1;
        *a.get_mut(2 * PAGE_LEN) = 3;
        *b.get_mut(2 * PAGE_LEN) = 3;
        *b.get_mut(0) = 1;
        let pa: Vec<_> = a.iter_touched().map(|(i, &x)| (i, x)).collect();
        let pb: Vec<_> = b.iter_touched().map(|(i, &x)| (i, x)).collect();
        assert_eq!(pa, pb);
    }

    #[test]
    fn reset_retires_pages_into_freelist_and_clears_values() {
        let mut v: PagedVec<u64> = PagedVec::new(2 * PAGE_LEN, 0);
        *v.get_mut(0) = 9;
        *v.get_mut(PAGE_LEN) = 9;
        let bytes_before = v.state_bytes();
        v.reset(2 * PAGE_LEN);
        assert_eq!(v.touched_entries(), 0);
        assert_eq!(*v.get(0), 0, "reset entry reads default again");
        *v.get_mut(0) = 1; // reuses a spare page: no growth
        *v.get_mut(PAGE_LEN) = 1;
        assert_eq!(v.state_bytes(), bytes_before, "pages recycled, not grown");
        assert_eq!(*v.get(1), 0, "recycled page was wiped");
    }

    #[test]
    fn arena_prepare_prefill_and_accounting() {
        let mut a = SimArena::new();
        a.prepare(3 * PAGE_LEN + 5, 4);
        assert_eq!(a.touched_channels(), 0);
        a.queues.get_mut(0).push_back(Packet {
            src: 0,
            dst: 1,
            row: 1,
            hop: 0,
            inject_cycle: 0,
            ready_at: 0,
            deadline: u64::MAX,
            retries: 0,
        });
        *a.busy_until.get_mut(3 * PAGE_LEN) = 1; // partial last page
        assert_eq!(a.touched_channels(), PAGE_LEN + 5);
        assert!(a.state_bytes() > 0);
        a.prefill_dense();
        assert_eq!(a.touched_channels(), 3 * PAGE_LEN + 5);
        a.prepare(PAGE_LEN, 4);
        assert_eq!(a.touched_channels(), 0, "prepare resets the working set");
        a.set_prefill_on_prepare(true);
        a.prepare(PAGE_LEN + 1, 4);
        assert_eq!(
            a.touched_channels(),
            PAGE_LEN + 1,
            "dense mode prefills on prepare"
        );
    }

    #[test]
    fn sparse_wait_cycle_matches_dense_semantics() {
        // 3 -> 5 -> 9 -> 3 cycle plus a tail 1 -> 3 and a dead end 7 -> 100.
        let mut waits = BTreeMap::new();
        waits.insert(3u32, ChannelId(5));
        waits.insert(5, ChannelId(9));
        waits.insert(9, ChannelId(3));
        waits.insert(1, ChannelId(3));
        waits.insert(7, ChannelId(100));
        let cycle = find_wait_cycle(&waits);
        assert_eq!(cycle, vec![ChannelId(3), ChannelId(5), ChannelId(9)]);
        assert!(find_wait_cycle(&BTreeMap::new()).is_empty());
        let mut acyclic = BTreeMap::new();
        acyclic.insert(0u32, ChannelId(1));
        assert!(find_wait_cycle(&acyclic).is_empty());
    }
}
