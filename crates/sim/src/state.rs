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
//! every engine default synthesizes arithmetically (the empty queue header,
//! `0`, `false`) — so replay is bit-exact against the dense arrays by
//! construction. [`SimArena`] bundles the per-run state and retires pages
//! into a freelist on reset, amortizing allocation across batch sweeps,
//! fault campaigns, and churn replays instead of rebuilding per run.
//!
//! The packet FIFOs (`Queues`) are paged 12-byte headers — first slot,
//! last slot, length — over one packet slab shared by the channel queues
//! and the injection queues. A queue owns no heap of its own: a lightly
//! loaded fabric with a packet in each of half a million queues holds half a
//! million slab slots, not half a million buffers. A granted packet is
//! relinked from one queue to the next in place; freed slots go on a free
//! list, and a reset keeps the slab's capacity for the next run.

use crate::error::{StallReport, Strand};
use crate::policy::Policy;
use ftclos_topo::ChannelId;
use std::collections::BTreeMap;

/// Log2 of the page size: 512 entries per page balances touch granularity
/// (a lone hot channel materializes 6 KiB of queue headers) against
/// directory overhead (4 bytes per 512 entries, ~3 MiB at 415M channels).
pub(crate) const PAGE_SHIFT: usize = 9;
/// Entries per page.
pub const PAGE_LEN: usize = 1 << PAGE_SHIFT;

/// One in-flight packet.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Packet {
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
    /// Node the packet is queued at: the destination of the channel it
    /// crossed last, its source leaf before the first hop. Arbitration
    /// compares it with the next hop's source instead of decoding the
    /// queue's channel (it fills `Packet`'s padding: 48 B either way).
    pub at: u32,
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

/// The "no slot" link of the slab's free list.
const NIL: u32 = u32::MAX;

/// One FIFO's header: its first and last slab slot and its length. The
/// all-zero default is the empty queue (`head`/`tail` are meaningless while
/// `len == 0`), so an untouched page of headers reads as empty queues.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct QueueEnds {
    head: u32,
    tail: u32,
    len: u32,
}

/// A slab slot: a packet and the slot of the next packet in its queue (or,
/// while free, the next free slot). A queue's last slot has a stale `next`;
/// walks are bounded by the header's `len`.
#[derive(Clone, Copy, Debug)]
struct Node {
    packet: Packet,
    next: u32,
}

// A slab slot stays 56 B: `Packet::at` took padding, not a word.
const _: () = assert!(std::mem::size_of::<Node>() == 56);

/// The two queue sets of [`Queues`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum QueueSet {
    /// Per-channel queue of packets that crossed it, waiting at its dst.
    Channel,
    /// Per-leaf-slot queue of injected packets awaiting their uplink.
    Inject,
}

/// A packet unlinked from its queue that still occupies its slab slot: the
/// kernel either links it into the next queue ([`Queues::push_held`]) or
/// frees the slot ([`Queues::release`]).
#[derive(Debug)]
#[must_use]
pub(crate) struct Held(u32);

/// Every packet FIFO of a run: paged [`QueueSet::Channel`] and
/// [`QueueSet::Inject`] headers threaded through one packet slab.
///
/// Observations — [`Queues::get`]'s view, `Queues::iter_touched` — are in
/// FIFO order within a queue and ascending index order across queues, so
/// they never depend on which slab slots the packets happen to occupy.
#[derive(Clone, Debug)]
pub(crate) struct Queues {
    channel: PagedVec<QueueEnds>,
    inject: PagedVec<QueueEnds>,
    slab: Vec<Node>,
    /// Head of the free-slot list threaded through `Node::next`.
    free: u32,
}

impl Default for Queues {
    fn default() -> Self {
        Self {
            channel: PagedVec::default(),
            inject: PagedVec::default(),
            slab: Vec::new(),
            free: NIL,
        }
    }
}

/// A read-only view of one queue.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fifo<'a> {
    ends: QueueEnds,
    slab: &'a [Node],
}

impl<'a> Fifo<'a> {
    /// Packets queued.
    #[inline]
    pub fn len(&self) -> usize {
        self.ends.len as usize
    }

    /// Whether the queue holds no packet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ends.len == 0
    }

    /// The head packet.
    #[inline]
    pub fn front(&self) -> Option<&'a Packet> {
        (self.ends.len > 0).then(|| &self.slab[self.ends.head as usize].packet)
    }

    /// The packets, head first.
    pub fn iter(&self) -> impl Iterator<Item = &'a Packet> {
        let slab = self.slab;
        let mut at = self.ends.head;
        (0..self.ends.len).map(move |_| {
            let node = &slab[at as usize];
            at = node.next;
            &node.packet
        })
    }
}

impl Queues {
    #[inline]
    fn ends(&self, set: QueueSet) -> &PagedVec<QueueEnds> {
        match set {
            QueueSet::Channel => &self.channel,
            QueueSet::Inject => &self.inject,
        }
    }

    /// One set's headers beside the slab, borrowed apart.
    #[inline]
    fn split(&mut self, set: QueueSet) -> (&mut PagedVec<QueueEnds>, &mut [Node]) {
        let ends = match set {
            QueueSet::Channel => &mut self.channel,
            QueueSet::Inject => &mut self.inject,
        };
        (ends, &mut self.slab)
    }

    /// Empty every queue for a run over `num_channels` channel queues and
    /// `num_leaf_slots` injection queues, keeping pages and slab capacity.
    fn reset(&mut self, num_channels: usize, num_leaf_slots: usize) {
        self.channel.reset(num_channels);
        self.inject.reset(num_leaf_slots);
        self.slab.clear();
        self.free = NIL;
    }

    /// Queue `i` of `set`, read without materializing its page.
    #[inline]
    pub fn get(&self, set: QueueSet, i: usize) -> Fifo<'_> {
        Fifo {
            ends: *self.ends(set).get(i),
            slab: &self.slab,
        }
    }

    /// Every queue of `set` on a materialized header page, ascending (the
    /// untouched queues are empty).
    pub(crate) fn iter_touched(&self, set: QueueSet) -> impl Iterator<Item = (usize, Fifo<'_>)> {
        let slab = &self.slab[..];
        self.ends(set)
            .iter_touched()
            .map(move |(i, &ends)| (i, Fifo { ends, slab }))
    }

    /// Append `p` to queue `i` of `set`.
    pub(crate) fn push_back(&mut self, set: QueueSet, i: usize, p: Packet) {
        let node = Node {
            packet: p,
            next: NIL,
        };
        let slot = if self.free == NIL {
            assert!(self.slab.len() < NIL as usize, "packet slab is full");
            self.slab.push(node);
            (self.slab.len() - 1) as u32
        } else {
            let slot = self.free;
            let n = &mut self.slab[slot as usize];
            self.free = n.next;
            *n = node;
            slot
        };
        self.push_held(set, i, Held(slot));
    }

    /// Append a held packet to queue `i` of `set`.
    pub(crate) fn push_held(&mut self, set: QueueSet, i: usize, held: Held) {
        let (ends, slab) = self.split(set);
        let e = ends.get_mut(i);
        if e.len == 0 {
            e.head = held.0;
        } else {
            slab[e.tail as usize].next = held.0;
        }
        e.tail = held.0;
        e.len += 1;
    }

    /// Unlink the packet at position `pos` of queue `i` of `set`, and say
    /// whether that left the queue empty; `None` if `pos` is past its end.
    pub(crate) fn remove(&mut self, set: QueueSet, i: usize, pos: usize) -> Option<(Held, bool)> {
        let (ends, slab) = self.split(set);
        if pos >= ends.get(i).len as usize {
            return None;
        }
        // A non-empty queue's page is materialized: this touches nothing new.
        let e = ends.get_mut(i);
        let slot = if pos == 0 {
            let slot = e.head;
            e.head = slab[slot as usize].next;
            slot
        } else {
            let mut prev = e.head;
            for _ in 1..pos {
                prev = slab[prev as usize].next;
            }
            let slot = slab[prev as usize].next;
            slab[prev as usize].next = slab[slot as usize].next;
            if slot == e.tail {
                e.tail = prev;
            }
            slot
        };
        e.len -= 1;
        Some((Held(slot), e.len == 0))
    }

    /// The held packet, to update before it is relinked.
    #[inline]
    pub(crate) fn held_mut(&mut self, held: &Held) -> &mut Packet {
        &mut self.slab[held.0 as usize].packet
    }

    /// Free a held packet's slot and return the packet.
    pub(crate) fn release(&mut self, held: Held) -> Packet {
        let n = &mut self.slab[held.0 as usize];
        n.next = self.free;
        self.free = held.0;
        n.packet
    }

    /// Move every packet of queue `i` of `set` whose deadline is `<= now`
    /// onto `out`, in queue order, and say whether that emptied the queue.
    /// A queue with nothing to expire is only read.
    pub(crate) fn expire(
        &mut self,
        set: QueueSet,
        i: usize,
        now: u64,
        out: &mut Vec<Packet>,
    ) -> bool {
        let old = *self.ends(set).get(i);
        if !self.get(set, i).iter().any(|p| now >= p.deadline) {
            return false;
        }
        let mut free = self.free;
        let (ends, slab) = self.split(set);
        let mut kept = QueueEnds::default();
        let mut at = old.head;
        for _ in 0..old.len {
            let slot = at;
            let n = &mut slab[slot as usize];
            at = n.next;
            if now >= n.packet.deadline {
                out.push(n.packet);
                n.next = free;
                free = slot;
                continue;
            }
            if kept.len == 0 {
                kept.head = slot;
            } else {
                slab[kept.tail as usize].next = slot;
            }
            kept.tail = slot;
            kept.len += 1;
        }
        *ends.get_mut(i) = kept;
        self.free = free;
        kept.len == 0
    }

    /// Materialize every header page (dense mode).
    fn prefill(&mut self) {
        self.channel.prefill();
        self.inject.prefill();
    }

    /// Header pages (materialized and spare) plus the slab's capacity.
    fn state_bytes(&self) -> usize {
        self.channel.state_bytes()
            + self.inject.state_bytes()
            + self.slab.capacity() * std::mem::size_of::<Node>()
    }
}

/// The mutable per-run state of a simulator, with lazy paged backing.
///
/// Its fields are the kernel's and its schedules' (they borrow them
/// disjointly); from outside the crate an arena is only created, reused and
/// measured.
/// `prepare` resets all arrays for a run over a fabric with the given
/// shape; pages retired by the reset are reused, so repeated runs through
/// one arena (batch sweeps, campaign confirms, churn replays) stop paying
/// the allocation cost after the first.
#[derive(Clone, Debug, Default)]
pub struct SimArena {
    /// The channel and injection FIFOs over one packet slab.
    pub(crate) queues: Queues,
    /// Round-robin grant pointer per output channel (arbiter state).
    pub(crate) rr: PagedVec<u32>,
    /// iSLIP accept pointer per input channel.
    pub(crate) accept_ptr: PagedVec<u32>,
    /// Multi-flit serialization: a channel is busy until this cycle.
    pub(crate) busy_until: PagedVec<u64>,
    /// Channels killed by fault events grant no further packets.
    pub(crate) dead: PagedVec<bool>,
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
        self.queues.reset(num_channels, num_leaf_slots);
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
        self.rr.prefill();
        self.accept_ptr.prefill();
        self.busy_until.prefill();
        self.dead.prefill();
    }

    /// Channels resident in a materialized page of *any* channel-indexed
    /// array — the engine's working set, page-granular.
    pub fn touched_channels(&self) -> usize {
        let num_channels = self.queues.channel.len();
        (0..self.queues.channel.dir.len())
            .filter(|&p| {
                self.queues.channel.page_touched(p)
                    || self.rr.page_touched(p)
                    || self.accept_ptr.page_touched(p)
                    || self.busy_until.page_touched(p)
                    || self.dead.page_touched(p)
            })
            .map(|p| PAGE_LEN.min(num_channels - (p << PAGE_SHIFT)))
            .sum()
    }

    /// Total backing bytes across all arrays (directories, materialized
    /// pages, and spare pages) and the packet slab's capacity: all the
    /// memory the run's state holds.
    pub fn state_bytes(&self) -> usize {
        self.queues.state_bytes()
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
    let queues = &arena.queues;
    let held = queues
        .iter_touched(QueueSet::Channel)
        .map(|(c, q)| (Some(c as u32), q));
    let injecting = queues
        .iter_touched(QueueSet::Inject)
        .map(|(_, q)| (None, q));
    for (holds, q) in held.chain(injecting) {
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
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::VecDeque;

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

    /// A packet told apart from every other by `src`.
    fn pkt(id: u32, deadline: u64) -> Packet {
        Packet {
            src: id,
            dst: id ^ 1,
            row: 1,
            hop: 0,
            inject_cycle: 0,
            ready_at: 0,
            deadline,
            retries: 0,
            at: id,
        }
    }

    /// Every field, for comparing packets.
    fn key(p: &Packet) -> (u32, u32, u32, u32, u64, u64, u64, u32) {
        (
            p.src,
            p.dst,
            p.row,
            p.hop,
            p.inject_cycle,
            p.ready_at,
            p.deadline,
            p.retries,
        )
    }

    #[test]
    fn arena_prepare_prefill_and_accounting() {
        let mut a = SimArena::new();
        a.prepare(3 * PAGE_LEN + 5, 4);
        assert_eq!(a.touched_channels(), 0);
        let empty_bytes = a.state_bytes();
        a.queues.push_back(QueueSet::Channel, 0, pkt(0, u64::MAX));
        a.queues.push_back(QueueSet::Inject, 3, pkt(1, u64::MAX));
        *a.busy_until.get_mut(3 * PAGE_LEN) = 1; // partial last page
        assert_eq!(
            a.touched_channels(),
            PAGE_LEN + 5,
            "inject pages are not channels"
        );
        assert_eq!(a.queues.get(QueueSet::Channel, 0).len(), 1);
        assert_eq!(a.queues.get(QueueSet::Inject, 3).len(), 1);
        assert!(a.queues.get(QueueSet::Inject, 0).is_empty());
        assert!(
            a.state_bytes() >= empty_bytes + 2 * std::mem::size_of::<Node>(),
            "the slab's packets are counted"
        );
        a.prefill_dense();
        assert_eq!(a.touched_channels(), 3 * PAGE_LEN + 5);
        let slab_capacity = a.queues.slab.capacity();
        a.prepare(PAGE_LEN, 4);
        assert_eq!(a.touched_channels(), 0, "prepare resets the working set");
        assert!(a.queues.get(QueueSet::Channel, 0).is_empty());
        assert!(a.queues.get(QueueSet::Inject, 3).is_empty());
        assert_eq!(a.queues.slab.capacity(), slab_capacity, "slab kept");
        a.set_prefill_on_prepare(true);
        a.prepare(PAGE_LEN + 1, 4);
        assert_eq!(
            a.touched_channels(),
            PAGE_LEN + 1,
            "dense mode prefills on prepare"
        );
    }

    #[test]
    fn removal_reports_emptiness_and_relinks_in_place() {
        let mut q = Queues::default();
        q.reset(8, 2);
        for id in 0..3 {
            q.push_back(QueueSet::Inject, 1, pkt(id, u64::MAX));
        }
        let (held, emptied) = q.remove(QueueSet::Inject, 1, 1).unwrap();
        assert!(!emptied);
        q.held_mut(&held).hop = 5;
        q.push_held(QueueSet::Channel, 4, held);
        let moved = q.get(QueueSet::Channel, 4).front().map(key);
        assert_eq!(
            moved,
            Some(key(&Packet {
                hop: 5,
                ..pkt(1, u64::MAX)
            }))
        );
        let left: Vec<u32> = q.get(QueueSet::Inject, 1).iter().map(|p| p.src).collect();
        assert_eq!(left, [0, 2]);
        assert_eq!(q.slab.len(), 3, "relinked, not copied");
        assert!(q.remove(QueueSet::Inject, 1, 2).is_none(), "past the end");
        let (held, emptied) = q.remove(QueueSet::Channel, 4, 0).unwrap();
        assert!(emptied);
        assert_eq!(q.release(held).src, 1);
        q.push_back(QueueSet::Channel, 7, pkt(9, u64::MAX));
        assert_eq!(q.slab.len(), 3, "a freed slot is reused");
    }

    /// A second identical run through one arena finds every page and slab
    /// slot it needs already there.
    #[test]
    fn repeated_runs_reuse_the_slab() {
        use crate::{Policy, SimConfig, Simulator, Workload};
        use ftclos_routing::DModK;
        let ft = ftclos_topo::Ftree::new(2, 2, 6).unwrap();
        let perm = ftclos_traffic::patterns::shift(12, 5);
        let cfg = SimConfig {
            warmup_cycles: 50,
            measure_cycles: 200,
            ..SimConfig::default()
        };
        let policy = Policy::from_single_path(&DModK::new(&ft));
        let workload = Workload::permutation(&perm, 0.9);
        let mut sim = Simulator::new(ft.topology(), cfg, policy.clone());
        let first = sim.run(&workload, 3);
        let arena = sim.into_arena();
        let (bytes, capacity) = (arena.state_bytes(), arena.queues.slab.capacity());
        assert!(capacity > 0, "the run queued packets");
        let mut sim = Simulator::with_arena(ft.topology(), cfg, policy, arena);
        let second = sim.run(&workload, 3);
        assert_eq!(format!("{first:?}"), format!("{second:?}"));
        let arena = sim.into_arena();
        assert_eq!(arena.state_bytes(), bytes);
        assert_eq!(arena.queues.slab.capacity(), capacity);
    }

    /// One operation of the model-based test, with its operands.
    #[derive(Debug)]
    enum Op {
        Push(QueueSet, usize),
        /// Remove at a position (maybe past the end) and free the slot.
        Remove(QueueSet, usize, usize),
        /// Remove at a position and append to another queue.
        Relink(QueueSet, usize, usize, QueueSet, usize),
        Expire(QueueSet, usize, u64),
        Reset,
        Prefill,
    }

    const CHANNELS: usize = 2 * PAGE_LEN + 3;
    const SLOTS: usize = 3;
    /// Queue indices the model drives: two on the first page, one on the
    /// second, one at the end of the partial last page.
    const CHANNEL_IDS: [usize; 4] = [0, 1, PAGE_LEN + 7, CHANNELS - 1];

    fn model_set(
        model: &mut [Vec<VecDeque<Packet>>; 2],
        set: QueueSet,
    ) -> &mut Vec<VecDeque<Packet>> {
        &mut model[usize::from(set == QueueSet::Inject)]
    }

    fn random_op(rng: &mut ChaCha8Rng) -> Op {
        let queue = |rng: &mut ChaCha8Rng| {
            if rng.gen_bool(0.7) {
                (
                    QueueSet::Channel,
                    CHANNEL_IDS[rng.gen_range(0..CHANNEL_IDS.len())],
                )
            } else {
                (QueueSet::Inject, rng.gen_range(0..SLOTS))
            }
        };
        match rng.gen_range(0..100) {
            0..=39 => {
                let (s, i) = queue(rng);
                Op::Push(s, i)
            }
            40..=59 => {
                let (s, i) = queue(rng);
                Op::Remove(s, i, rng.gen_range(0..4))
            }
            60..=84 => {
                let (s, i) = queue(rng);
                let (t, j) = queue(rng);
                Op::Relink(s, i, rng.gen_range(0..4), t, j)
            }
            85..=95 => {
                let (s, i) = queue(rng);
                Op::Expire(s, i, rng.gen_range(0..40))
            }
            96..=97 => Op::Reset,
            _ => Op::Prefill,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Random pushes, positional removals, relinks, expiries, resets and
        /// prefills over a few queues of both sets agree with one
        /// `VecDeque` per queue on every `front`, `len`, `iter` and
        /// `iter_touched` result, and freed slab slots are reused.
        #[test]
        fn slab_fifos_match_a_vecdeque_model(seed in 0u64..u64::MAX, steps in 1usize..300) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut q = Queues::default();
            q.reset(CHANNELS, SLOTS);
            let fresh = || [vec![VecDeque::new(); CHANNELS], vec![VecDeque::new(); SLOTS]];
            let mut model: [Vec<VecDeque<Packet>>; 2] = fresh();
            let (mut next_id, mut live, mut peak) = (0u32, 0usize, 0usize);
            for _ in 0..steps {
                let op = random_op(&mut rng);
                match op {
                    Op::Push(s, i) => {
                        let p = pkt(next_id, rng.gen_range(0..40));
                        next_id += 1;
                        q.push_back(s, i, p);
                        model_set(&mut model, s)[i].push_back(p);
                        live += 1;
                    }
                    Op::Remove(s, i, pos) => {
                        let want = model_set(&mut model, s)[i].remove(pos);
                        let got = q.remove(s, i, pos);
                        proptest::prop_assert_eq!(got.is_some(), want.is_some(), "{:?}", op);
                        if let (Some((held, emptied)), Some(want)) = (got, want) {
                            proptest::prop_assert_eq!(
                                emptied,
                                model_set(&mut model, s)[i].is_empty()
                            );
                            proptest::prop_assert_eq!(key(&q.release(held)), key(&want));
                            live -= 1;
                        }
                    }
                    Op::Relink(s, i, pos, t, j) => {
                        let want = model_set(&mut model, s)[i].remove(pos);
                        let got = q.remove(s, i, pos);
                        proptest::prop_assert_eq!(got.is_some(), want.is_some(), "{:?}", op);
                        if let (Some((held, emptied)), Some(mut want)) = (got, want) {
                            proptest::prop_assert_eq!(
                                emptied,
                                model_set(&mut model, s)[i].is_empty()
                            );
                            q.held_mut(&held).hop += 1;
                            want.hop += 1;
                            q.push_held(t, j, held);
                            model_set(&mut model, t)[j].push_back(want);
                        }
                    }
                    Op::Expire(s, i, now) => {
                        let mut got = Vec::new();
                        let emptied = q.expire(s, i, now, &mut got);
                        let mq = &mut model_set(&mut model, s)[i];
                        let was_empty = mq.is_empty();
                        let want: Vec<Packet> =
                            mq.iter().filter(|p| now >= p.deadline).copied().collect();
                        mq.retain(|p| now < p.deadline);
                        proptest::prop_assert_eq!(emptied, !was_empty && mq.is_empty());
                        let (got, want): (Vec<_>, Vec<_>) =
                            (got.iter().map(key).collect(), want.iter().map(key).collect());
                        proptest::prop_assert_eq!(got, want);
                        live -= want.len();
                    }
                    Op::Reset => {
                        q.reset(CHANNELS, SLOTS);
                        model = fresh();
                        live = 0;
                    }
                    Op::Prefill => q.prefill(),
                }
                peak = peak.max(live);
                proptest::prop_assert!(q.slab.len() <= peak, "slots leak: {} > {peak}", q.slab.len());
                for set in [QueueSet::Channel, QueueSet::Inject] {
                    let mq = model_set(&mut model, set);
                    for (i, want) in mq.iter().enumerate() {
                        let f = q.get(set, i);
                        proptest::prop_assert_eq!(f.len(), want.len());
                        proptest::prop_assert_eq!(f.is_empty(), want.is_empty());
                        proptest::prop_assert_eq!(f.front().map(key), want.front().map(key));
                        let got: Vec<_> = f.iter().map(key).collect();
                        let want: Vec<_> = want.iter().map(key).collect();
                        proptest::prop_assert_eq!(got, want, "{:?} queue {} after {:?}", set, i, op);
                    }
                    let mut last = None;
                    let mut seen = 0;
                    for (i, f) in q.iter_touched(set) {
                        proptest::prop_assert!(last < Some(i), "ascending");
                        last = Some(i);
                        let got: Vec<_> = f.iter().map(key).collect();
                        let want: Vec<_> = mq[i].iter().map(key).collect();
                        proptest::prop_assert_eq!(got, want);
                        seen += usize::from(!f.is_empty());
                    }
                    let nonempty = mq.iter().filter(|m| !m.is_empty()).count();
                    proptest::prop_assert_eq!(seen, nonempty, "every non-empty queue is touched");
                }
            }
        }
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
