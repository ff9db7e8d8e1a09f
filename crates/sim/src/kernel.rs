//! The simulator kernel: one arbitrate/advance/account loop, run under a
//! [`Schedule`].
//!
//! The paper has one switch model — input-queued, one grant per output
//! channel per cycle, credit backpressure — and this module is its one
//! implementation. Every executed cycle runs the same phases in the same
//! order over the same [`SimArena`] with the same ChaCha8 stream: liveness
//! events and epoch marks, TTL sweep and retry, Bernoulli injection,
//! injection-link grants, switch arbitration (head-of-line FIFO or iSLIP),
//! the stall watchdog. Accounting (`SimStats`, the recorder flushes, the
//! churn report) and the `run`/`try_run*` entry points live here too.
//!
//! What differs between [`crate::EventSimulator`], which every production
//! simulation runs, and [`crate::Simulator`], its oracle, is only *where
//! work is looked for*, and that is the whole of the crate-private
//! [`Schedule`] seam: which channel queues, injection slots and switches are
//! visited this cycle, how head-of-line requests are collected (output sweep
//! or worklist), what a queue push or pop is remembered as, and which cycle
//! runs next. A schedule never decides what a visit does, so the two
//! engines cannot drift apart in semantics — only a schedule that *skips*
//! work it should have visited can break the replay contract, and that is
//! what the dense schedule stays around to catch.
//!
//! Page discipline: every probe that can meet an untouched entry goes
//! through the read-only [`crate::PagedVec::get`]; `get_mut` is reached only
//! for an entry that is about to change. The kernel therefore materialises
//! exactly the pages the packets touch, whatever the schedule visits.

use crate::churn::{build_report, ChurnConfig, ChurnReport, EpochMark};
use crate::config::{Arbiter, SimConfig};
use crate::error::{ConfigError, SimError};
use crate::fault::{ChurnSchedule, FaultSchedule};
use crate::policy::Policy;
use crate::state::{stall_report, Fifo, Held, Packet, QueueSet, SimArena};
use crate::stats::{ChannelBusy, SimStats};
use crate::workload::Workload;
use ftclos_obs::{Noop, Recorder};
use ftclos_routing::LinkAdmission;
use ftclos_topo::{ChannelId, NodeId, Topology, Transition};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::marker::PhantomData;

/// The span, counter and gauge names one schedule records under. Build it
/// with [`metric_names!`], so that `sim.<x>` and `evsim.<x>` are the same
/// table under two prefixes.
#[derive(Debug)]
pub struct Names {
    /// Span around the whole run.
    pub(crate) run: &'static str,
    /// Counters for the monotonic totals, in this order: injected,
    /// delivered, timed out, retries, abandoned, refusals.
    pub(crate) totals: [&'static str; 6],
    /// Gauge: packets inside the network at the last flush.
    pub(crate) in_flight: &'static str,
    /// Counter: hysteresis re-planning events.
    pub(crate) churn_replans: &'static str,
    /// Counter: the cycle the run ended at (drain and skipped cycles
    /// included).
    pub(crate) cycles: &'static str,
    /// Gauge: channels resident in a materialised state page.
    pub(crate) touched_channels: &'static str,
    /// Gauge: backing bytes of the state arena.
    pub(crate) state_bytes: &'static str,
}

/// The [`Names`] table for one metric prefix: `metric_names!("sim")`.
macro_rules! metric_names {
    ($prefix:literal) => {
        $crate::kernel::Names {
            run: concat!($prefix, ".run"),
            totals: [
                concat!($prefix, ".injected"),
                concat!($prefix, ".delivered"),
                concat!($prefix, ".timed_out"),
                concat!($prefix, ".retries"),
                concat!($prefix, ".abandoned"),
                concat!($prefix, ".refusals"),
            ],
            in_flight: concat!($prefix, ".in_flight"),
            churn_replans: concat!($prefix, ".churn_replans"),
            cycles: concat!($prefix, ".cycles"),
            touched_channels: concat!($prefix, ".touched_channels"),
            state_bytes: concat!($prefix, ".state_bytes"),
        }
    };
}
pub(crate) use metric_names;

/// Where the kernel looks for work. Every visit list is in ascending id
/// order; a list may name components with nothing to do (the kernel probes
/// before it touches) but must not omit one that has. The kernel hands each
/// list method an empty buffer it reuses from cycle to cycle.
///
/// `pub` only so that [`Kernel`]'s bounds may name it: this module is
/// private, so no other crate can name or implement a schedule (nor
/// [`Run`] or [`Names`]).
pub trait Schedule: Default {
    /// The names this schedule's runs record under.
    const NAMES: Names;

    /// Push the channel queues that may hold a packet onto `out`.
    fn queues(&self, arena: &SimArena, out: &mut Vec<u32>);

    /// Push the injection slots that may hold a packet onto `out`.
    fn inject_slots(&self, arena: &SimArena, out: &mut Vec<u32>);

    /// Push the switches (node ids) that may have a packet to match this
    /// cycle onto `out`.
    fn switches(&self, arena: &SimArena, topo: &Topology, out: &mut Vec<u32>);

    /// One cycle of head-of-line FIFO arbitration: for every switch output
    /// in ascending channel id that is free ([`Run::wire_free`] and
    /// [`Run::credit`]), grant ([`Run::grant_head`]) the first input queue,
    /// round-robin from the output's pointer, whose head
    /// [`Run::head_wants`] it.
    ///
    /// # Errors
    /// Whatever the grants return.
    fn hol_arbitrate(run: &mut Run<'_, Self>) -> Result<(), SimError>;

    /// Channel queue `c` received a packet.
    fn queue_filled(&mut self, _c: usize) {}

    /// Channel queue `c` gave up its last packet.
    fn queue_emptied(&mut self, _c: usize) {}

    /// Injection slot `slot` received a packet.
    fn inject_filled(&mut self, _slot: usize) {}

    /// Injection slot `slot` gave up its last packet.
    fn inject_emptied(&mut self, _slot: usize) {}

    /// Queue state can change by itself at cycle `at` (a packet becomes
    /// ready, a wire frees, a deadline matures). Only reported in runs whose
    /// idle drain cycles may be skipped.
    fn wake(&mut self, _at: u64) {}

    /// The cycle to execute after `now`; called once at the end of every
    /// executed cycle. `idle_until` is `Some(limit)` when the cycle changed
    /// nothing and nothing but a [`Schedule::wake`] can change anything
    /// before `limit`: any cycle in `now + 1 ..= limit` that no wake-up
    /// precedes is then a legal answer. Otherwise the answer is `now + 1`.
    fn next_cycle(&mut self, now: u64, _idle_until: Option<u64>) -> u64 {
        now + 1
    }

    /// Record this schedule's own activity counters at the end of a run
    /// over `components` channels plus injection slots.
    fn record_activity<R: Recorder>(&self, _rec: &R, _components: u64) {}
}

/// Packet-level simulator over a [`Topology`] with a path [`Policy`]: the
/// kernel under one of the crate's two schedules. Use it through
/// [`crate::EventSimulator`] (active schedule, every production run) or
/// [`crate::Simulator`] (dense schedule, the oracle); for identical inputs
/// the two return identical [`SimStats`], [`ChurnReport`]s and
/// [`SimError`]s.
pub struct Kernel<'a, S> {
    topo: &'a Topology,
    cfg: SimConfig,
    policy: Policy,
    arena: SimArena,
    schedule: PhantomData<S>,
}

impl<'a, S: Schedule> Kernel<'a, S> {
    /// Create a simulator. The policy must cover every pair the workload
    /// can generate (unrouteable injections are counted as refusals).
    pub fn new(topo: &'a Topology, cfg: SimConfig, policy: Policy) -> Self {
        Self::with_arena(topo, cfg, policy, SimArena::new())
    }

    /// Create a simulator reusing a [`SimArena`] from a previous run —
    /// repeated runs through one arena recycle state pages instead of
    /// reallocating them. Semantically identical to [`Kernel::new`].
    pub fn with_arena(topo: &'a Topology, cfg: SimConfig, policy: Policy, arena: SimArena) -> Self {
        Self {
            topo,
            cfg,
            policy,
            arena,
            schedule: PhantomData,
        }
    }

    /// Recover the arena (and its recycled pages) for the next simulator.
    pub fn into_arena(self) -> SimArena {
        self.arena
    }

    /// Run one simulation and return its statistics. `seed` drives
    /// injection coin flips and random path spreading; equal seeds give
    /// identical runs.
    ///
    /// # Panics
    /// On an invalid configuration or a broken engine invariant — use
    /// [`Kernel::try_run`] for the structured-error form.
    pub fn run(&mut self, workload: &Workload, seed: u64) -> SimStats {
        match self.try_run(workload, seed) {
            Ok(stats) => stats,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Kernel::run`].
    ///
    /// # Errors
    /// [`SimError::Config`] for an invalid [`SimConfig`] or a NaN workload
    /// rate; [`SimError::Invariant`] if the engine catches itself in an
    /// inconsistent state; [`SimError::Stalled`] when the watchdog fires.
    pub fn try_run(&mut self, workload: &Workload, seed: u64) -> Result<SimStats, SimError> {
        self.try_run_with_faults(workload, seed, &FaultSchedule::new())
    }

    /// Run with mid-simulation channel transitions: each event of `faults`
    /// marks its channel dead — or alive again — at the start of its cycle.
    /// Dead channels grant no packets; stalled traffic is dropped/retried
    /// per the TTL and retry knobs of the configuration. Revived channels
    /// grant again from their cycle on.
    ///
    /// # Errors
    /// As for [`Kernel::try_run`].
    pub fn try_run_with_faults(
        &mut self,
        workload: &Workload,
        seed: u64,
        faults: &FaultSchedule,
    ) -> Result<SimStats, SimError> {
        self.try_run_with_faults_recorded(workload, seed, faults, &Noop)
    }

    /// [`Kernel::try_run_with_faults`] with instrumentation: the run
    /// records under its schedule's prefix (`evsim.*` for
    /// [`crate::EventSimulator`], `sim.*` for [`crate::Simulator`]) — the
    /// `run` span, the cumulative counters (`injected`, `delivered`,
    /// `timed_out`, `retries`, `abandoned`, `refusals`, `cycles`), the
    /// `in_flight`, `touched_channels` and `state_bytes` gauges, the event
    /// schedule's activity counters, and one recorder epoch per
    /// liveness-transition cycle plus a final `end` epoch — so per-epoch
    /// packet conservation is auditable from the trace alone. With
    /// [`Noop`] this is exactly `try_run_with_faults`.
    ///
    /// # Errors
    /// As for [`Kernel::try_run`].
    pub fn try_run_with_faults_recorded<R: Recorder>(
        &mut self,
        workload: &Workload,
        seed: u64,
        faults: &FaultSchedule,
        rec: &R,
    ) -> Result<SimStats, SimError> {
        self.run_loop(workload, seed, faults, None, rec)
            .map(|(stats, _)| stats)
    }

    /// Run under churn with per-epoch instrumentation: applies the
    /// schedule's transitions like [`Kernel::try_run_with_faults`], drives
    /// the path policy's live mask per `churn.mode` (pinned / per-cycle /
    /// hysteresis re-planning), and slices the run into epochs at every
    /// transition cycle. Returns the usual statistics plus the
    /// [`ChurnReport`] with per-epoch counters and time-to-reconverge.
    /// Records what [`Kernel::try_run_with_faults_recorded`] records, and
    /// counts hysteresis re-planning events under `churn_replans`.
    ///
    /// # Errors
    /// As for [`Kernel::try_run`].
    pub fn try_run_churn_recorded<R: Recorder>(
        &mut self,
        workload: &Workload,
        seed: u64,
        schedule: &ChurnSchedule,
        churn: &ChurnConfig,
        rec: &R,
    ) -> Result<(SimStats, ChurnReport), SimError> {
        self.run_loop(workload, seed, schedule, Some(churn), rec)
    }

    fn run_loop<R: Recorder>(
        &mut self,
        workload: &Workload,
        seed: u64,
        faults: &ChurnSchedule,
        churn: Option<&ChurnConfig>,
        rec: &R,
    ) -> Result<(SimStats, ChurnReport), SimError> {
        self.cfg.validate()?;
        if workload.rate().is_nan() {
            return Err(ConfigError::NanRate.into());
        }
        let _span = rec.span(S::NAMES.run);
        let admission = churn
            .and_then(|c| c.mode.hysteresis_k())
            .map(|k| LinkAdmission::new(self.topo.num_channels(), k));
        Run::<S>::new(
            self.topo,
            &self.cfg,
            &mut self.arena,
            &mut self.policy,
            seed,
            workload.rate(),
            admission,
        )
        .execute(workload, faults, churn, rec)
    }
}

/// The state of one run, handed to every phase of the cycle — and to
/// [`Schedule::hol_arbitrate`], which is why a few fields and helpers are
/// visible to the crate's schedules.
pub struct Run<'k, S> {
    /// The fabric.
    pub(crate) topo: &'k Topology,
    /// The run's configuration (already validated).
    pub(crate) cfg: &'k SimConfig,
    /// Queues, arbiter pointers, wire deadlines, liveness.
    pub(crate) arena: &'k mut SimArena,
    /// The schedule's own memory.
    pub(crate) sched: S,
    /// The cycle being executed.
    pub(crate) now: u64,
    policy: &'k mut Policy,
    rng: ChaCha8Rng,
    stats: SimStats,
    window_latencies: Vec<u64>,
    /// Successful channel grants so far (the watchdog's progress signal).
    moves: u64,
    in_window: bool,
    may_skip: bool,
    admission: Option<LinkAdmission>,
    leaves: Vec<NodeId>,
    /// Node id -> leaf slot (`u32::MAX` off the leaves); read only when a
    /// timed-out packet is retransmitted.
    leaf_slot: Vec<u32>,
    source_injected: Vec<bool>,
    /// The visit list being walked, reused from cycle to cycle.
    visit: Vec<u32>,
    islip: IslipScratch,
}

/// iSLIP's working memory, reused across switches and cycles.
#[derive(Default)]
struct IslipScratch {
    /// `(output, local input, buffer position)` of every ready packet.
    heads: Vec<(usize, usize, usize)>,
    /// The outputs with at least one VOQ head, ascending by channel id.
    requested: Vec<Requested>,
    in_matched: Vec<bool>,
    /// One iteration's grants: `(local input, the output's distance from
    /// the input's accept pointer, index into requested, buffer position)`.
    grants: Vec<(usize, usize, usize, usize)>,
    /// `(local input, output, buffer position)`, in match order.
    matches: Vec<(usize, Out, usize)>,
}

/// An output channel id and the node it ends at: all a grant needs of the
/// channel record, decoded once.
#[derive(Clone, Copy)]
struct Out {
    o: usize,
    dst: NodeId,
}

/// One output that some VOQ head requests.
struct Requested {
    /// Its local slot on the switch.
    oj: usize,
    /// The output itself.
    out: Out,
    /// Its requesters: a run of [`IslipScratch::heads`], ascending by input.
    heads: std::ops::Range<usize>,
    /// Free this cycle and not yet matched.
    open: bool,
}

impl<'k, S: Schedule> Run<'k, S> {
    /// A run at cycle 0 over freshly prepared state.
    fn new(
        topo: &'k Topology,
        cfg: &'k SimConfig,
        arena: &'k mut SimArena,
        policy: &'k mut Policy,
        seed: u64,
        rate: f64,
        admission: Option<LinkAdmission>,
    ) -> Self {
        // A fresh run starts unmasked; hysteresis rebuilds the mask as it
        // admits links.
        policy.set_live_mask(None);
        let num_channels = topo.num_channels();
        let leaves: Vec<NodeId> = topo.leaves().collect();
        // All per-channel state (queues, arbiter pointers, wire deadlines,
        // liveness) lives in the paged arena: allocated on first touch,
        // recycled across runs, identical in content to dense arrays
        // because every default is synthesized arithmetically.
        arena.prepare(num_channels, leaves.len());
        // Leaf node id -> dense leaf slot (leaves are the first node ids in
        // all our builders, but don't rely on it).
        let mut leaf_slot = vec![u32::MAX; topo.num_nodes()];
        for (slot, &l) in leaves.iter().enumerate() {
            leaf_slot[l.index()] = slot as u32;
        }
        Run {
            topo,
            cfg,
            arena,
            sched: S::default(),
            now: 0,
            policy,
            rng: ChaCha8Rng::seed_from_u64(seed),
            stats: SimStats {
                window_cycles: cfg.measure_cycles,
                offered_rate: rate,
                channel_busy: ChannelBusy::zeros(num_channels),
                ..SimStats::default()
            },
            window_latencies: Vec::new(),
            moves: 0,
            in_window: false,
            // An idle cycle is provably inert only once injection is over
            // (drain) and no hysteresis admission ticks at cycles of its
            // own.
            may_skip: cfg.drain && admission.is_none(),
            admission,
            source_injected: vec![false; leaves.len()],
            leaves,
            leaf_slot,
            visit: Vec::new(),
            islip: IslipScratch::default(),
        }
    }

    fn execute<R: Recorder>(
        mut self,
        workload: &Workload,
        faults: &ChurnSchedule,
        churn: Option<&ChurnConfig>,
        rec: &R,
    ) -> Result<(SimStats, ChurnReport), SimError> {
        let names = &S::NAMES;
        let num_channels = self.topo.num_channels();
        // Totals already pushed to the recorder (counters are monotonic;
        // each flush adds only the delta since the last one).
        let mut flushed = [0u64; 6];
        // Churn instrumentation (empty outside churn runs).
        let mut epoch_marks: Vec<EpochMark> = Vec::new();
        let mut delivered_per_cycle: Vec<u32> = Vec::new();
        let mut delivered_seen = 0u64;
        if churn.is_some() {
            epoch_marks.push(EpochMark::default()); // run-start baseline
        }
        let fault_events = faults.sorted_events();
        let mut next_fault = 0usize;
        let warmup = self.cfg.warmup_cycles;
        let total = self.cfg.total_cycles();
        // Stall watchdog: the signature below changes whenever anything is
        // delivered, dropped, retried, or moved. If it freezes for
        // `stall_watchdog` consecutive cycles while packets are in flight,
        // the network is wedged.
        let watchdog = self.cfg.stall_watchdog;
        let mut frozen_cycles = 0u64;
        let mut last_signature = (u64::MAX, 0u64, 0u64, 0u64);

        // The loop breaks with `Some(report)` on a stall so the epilogue's
        // counters still reach the recorder before the error returns.
        let stalled = loop {
            let now = self.now;
            if now >= total {
                // Drain: run movement-only until the network empties.
                let inflight = in_flight(&self.stats)?;
                if !self.cfg.drain || inflight == 0 {
                    break None;
                }
                if now >= total + SimConfig::DRAIN_CAP {
                    // An armed watchdog that was mid-freeze when the drain
                    // cap hit means nothing was moving: that is a stall,
                    // not a normal cap exit.
                    break (watchdog > 0 && frozen_cycles > 0)
                        .then(|| stall_report(now, inflight, self.policy, self.arena));
                }
            }
            self.in_window = now >= warmup && now < total;
            let progress_before = (self.moves, totals(&self.stats));
            let faults_before = next_fault;
            // --- Liveness events: scheduled transitions apply at cycle
            // start (events are ordered Down-before-Up per channel, so a
            // same-cycle flap nets to alive) ---
            let (mut downs, mut ups) = (0u64, 0u64);
            while let Some(e) = fault_events.get(next_fault).filter(|e| e.cycle <= now) {
                if e.channel.index() < num_channels {
                    *self.arena.dead.get_mut(e.channel.index()) = e.transition == Transition::Down;
                    match e.transition {
                        Transition::Down => downs += 1,
                        Transition::Up => ups += 1,
                    }
                    if let Some(adm) = self.admission.as_mut() {
                        adm.observe(now, e.channel, e.transition);
                    }
                }
                next_fault += 1;
            }
            if downs + ups > 0 {
                if churn.is_some() {
                    match epoch_marks.last_mut() {
                        // Transitions at cycle 0 fold into the baseline.
                        Some(last) if last.cycle == now => {
                            last.downs += downs;
                            last.ups += ups;
                        }
                        _ => epoch_marks.push(EpochMark::at(now, downs, ups, &self.stats)),
                    }
                }
                if rec.is_enabled() {
                    // A liveness transition closes a recorder epoch:
                    // cumulative counters and the in-flight gauge at this
                    // boundary make per-epoch packet conservation auditable
                    // from the trace.
                    flush(rec, names, &mut flushed, &self.stats)?;
                    rec.mark_epoch(&format!("cycle={now}"));
                }
            }
            // Re-planning: promote stabilized links, refresh the pick mask.
            if let Some(adm) = self.admission.as_mut() {
                if adm.tick(now) {
                    self.policy.set_live_mask(Some(adm.mask()));
                    rec.add(names.churn_replans, 1);
                }
            }
            self.expire()?;
            if now < total {
                self.inject(workload);
            }
            // --- Movement: one grant per output channel per cycle ---
            self.grant_injection_links()?;
            match self.cfg.arbiter {
                Arbiter::HolFifo => S::hol_arbitrate(&mut self)?,
                Arbiter::Voq { iterations } => {
                    let mut visit = std::mem::take(&mut self.visit);
                    visit.clear();
                    self.sched.switches(self.arena, self.topo, &mut visit);
                    for &sw in &visit {
                        self.islip_switch(NodeId(sw), iterations)?;
                    }
                    self.visit = visit;
                }
            }
            if churn.is_some() {
                delivered_per_cycle.push((self.stats.delivered_total - delivered_seen) as u32);
                delivered_seen = self.stats.delivered_total;
            }
            let inflight = in_flight(&self.stats)?;
            if watchdog > 0 {
                let signature = (
                    self.moves,
                    self.stats.delivered_total,
                    self.stats.abandoned_total,
                    self.stats.retries_total,
                );
                if inflight > 0 && signature == last_signature {
                    frozen_cycles += 1;
                    if frozen_cycles >= watchdog {
                        break Some(stall_report(now, inflight, self.policy, self.arena));
                    }
                } else {
                    frozen_cycles = 0;
                    last_signature = signature;
                }
            }
            // --- Next cycle. A cycle that changed nothing once injection
            // is over will repeat unchanged until a wake-up, the next fault
            // event, the cycle the watchdog must fire in (which has to
            // execute so its report is exact), or the drain cap — the
            // schedule may jump to the earliest of those. ---
            let idle = self.may_skip
                && now + 1 >= total
                && inflight > 0
                && next_fault == faults_before
                && (self.moves, totals(&self.stats)) == progress_before;
            let idle_until = idle.then(|| {
                let mut limit = total + SimConfig::DRAIN_CAP;
                if let Some(e) = fault_events.get(next_fault) {
                    limit = limit.min(e.cycle.max(now + 1));
                }
                if watchdog > 0 {
                    limit = limit.min(now.saturating_add(watchdog - frozen_cycles));
                }
                limit
            });
            self.now = self.sched.next_cycle(now, idle_until);
            let skipped = self.now - (now + 1);
            if skipped > 0 {
                if watchdog > 0 {
                    // Every skipped cycle would have been another
                    // progress-free tick of the armed watchdog.
                    frozen_cycles += skipped;
                }
                if churn.is_some() {
                    delivered_per_cycle.extend(std::iter::repeat_n(0u32, skipped as usize));
                }
            }
        };
        rec.add(names.cycles, self.now);
        self.sched
            .record_activity(rec, (num_channels + self.leaves.len()) as u64);
        rec.gauge(names.touched_channels, self.arena.touched_channels() as u64);
        rec.gauge(names.state_bytes, self.arena.state_bytes() as u64);
        if let Some(report) = stalled {
            return Err(SimError::Stalled(report));
        }
        let mut stats = self.stats;
        stats.leftover_packets = in_flight(&stats)?;
        stats.active_sources = self.source_injected.iter().filter(|&&b| b).count();
        if rec.is_enabled() {
            flush(rec, names, &mut flushed, &stats)?;
            rec.mark_epoch("end");
        }
        self.window_latencies.sort_unstable();
        finish_stats(&mut stats, &self.window_latencies);
        let report = churn.map(|c| {
            let final_mark = EpochMark::at(self.now, 0, 0, &stats);
            build_report(c, &epoch_marks, final_mark, &delivered_per_cycle, warmup)
        });
        Ok((stats, report.unwrap_or_default()))
    }

    /// Timeout sweep: expire packets past their deadline — channel queues
    /// ascending, then injection slots ascending, so the expired list, and
    /// with it every retry's RNG draw, has one order under every schedule —
    /// then retransmit or abandon each.
    fn expire(&mut self) -> Result<(), SimError> {
        if self.cfg.ttl_cycles == 0 {
            return Ok(());
        }
        let now = self.now;
        let mut expired: Vec<Packet> = Vec::new();
        let mut visit = std::mem::take(&mut self.visit);
        visit.clear();
        self.sched.queues(self.arena, &mut visit);
        let queues = &mut self.arena.queues;
        for &c in &visit {
            if queues.expire(QueueSet::Channel, c as usize, now, &mut expired) {
                self.sched.queue_emptied(c as usize);
            }
        }
        visit.clear();
        self.sched.inject_slots(self.arena, &mut visit);
        let queues = &mut self.arena.queues;
        for &slot in &visit {
            if queues.expire(QueueSet::Inject, slot as usize, now, &mut expired) {
                self.sched.inject_emptied(slot as usize);
            }
        }
        self.visit = visit;
        for p in expired {
            self.stats.timed_out_total += 1;
            // Retransmit from the source with a *fresh* path pick:
            // spreading policies get a new chance to dodge dead hardware.
            // Latency keeps the original injection time.
            let retry = self.cfg.retry && p.retries < self.cfg.retry_limit;
            let row = retry.then(|| self.pick(p.src, p.dst)).flatten();
            let Some(row) = row.filter(|&row| !self.policy.path(row).is_empty()) else {
                self.stats.abandoned_total += 1;
                continue;
            };
            self.stats.retries_total += 1;
            let slot = self
                .leaf_slot
                .get(p.src as usize)
                .copied()
                .filter(|&s| s != u32::MAX)
                .ok_or_else(|| {
                    SimError::invariant(format!("retransmission source {} is not a leaf", p.src))
                })?;
            self.enqueue(slot as usize, p.dst, row, p.inject_cycle, p.retries + 1);
        }
        Ok(())
    }

    /// Injection phase: every leaf flips its Bernoulli coin every cycle —
    /// never restricted, never skipped, because exact replay of the seeded
    /// stream is what keeps the schedules interchangeable under one seed.
    fn inject(&mut self, workload: &Workload) {
        let rate = workload.rate().clamp(0.0, 1.0);
        for slot in 0..self.leaves.len() {
            if !self.rng.gen_bool(rate) {
                continue;
            }
            let src = self.leaves[slot].0;
            let Some(dst) = workload.destination(src, |n| self.rng.gen_range(0..n)) else {
                continue;
            };
            if self.cfg.bounded_injection
                && self.arena.queues.get(QueueSet::Inject, slot).len() >= self.cfg.queue_capacity
            {
                self.stats.injection_refusals += 1;
                continue;
            }
            let Some(row) = self.pick(src, dst) else {
                self.stats.injection_refusals += 1;
                continue;
            };
            self.source_injected[slot] = true;
            self.stats.injected_total += 1;
            self.stats.injected_in_window += u64::from(self.in_window);
            if self.policy.path(row).is_empty() {
                // Self traffic: delivered instantly.
                self.stats.delivered_total += 1;
                self.stats.delivered_in_window += u64::from(self.in_window);
                continue;
            }
            self.enqueue(slot, dst, row, self.now, 0);
        }
    }

    /// The policy's path (a row of its table) for the next packet of
    /// `(src, dst)`.
    fn pick(&mut self, src: u32, dst: u32) -> Option<u32> {
        let queues = &self.arena.queues;
        self.policy.pick(
            src,
            dst,
            |c| queues.get(QueueSet::Channel, c.index()).len(),
            &mut self.rng,
        )
    }

    /// Queue a fresh attempt at its source's injection slot.
    fn enqueue(&mut self, slot: usize, dst: u32, row: u32, inject_cycle: u64, retries: u32) {
        let ttl = self.cfg.ttl_cycles;
        let deadline = if ttl > 0 { self.now + ttl } else { u64::MAX };
        if self.may_skip && ttl > 0 {
            self.sched.wake(deadline);
        }
        let src = self.leaves[slot].0;
        let p = Packet {
            src,
            dst,
            row,
            hop: 0,
            inject_cycle,
            ready_at: self.now,
            deadline,
            retries,
            at: src,
        };
        self.arena.queues.push_back(QueueSet::Inject, slot, p);
        self.sched.inject_filled(slot);
    }

    /// Injection links (leaf -> switch): a leaf drives a single uplink, so
    /// no arbitration is needed under either discipline.
    fn grant_injection_links(&mut self) -> Result<(), SimError> {
        let mut visit = std::mem::take(&mut self.visit);
        visit.clear();
        self.sched.inject_slots(self.arena, &mut visit);
        for &slot in &visit {
            let slot = slot as usize;
            let Some(up) = self
                .leaves
                .get(slot)
                .and_then(|&leaf| self.topo.out_channels(leaf).first())
            else {
                continue;
            };
            if !self.wire_free(up.index()) {
                continue;
            }
            let dst = self.topo.channel(up).dst;
            let q = self.arena.queues.get(QueueSet::Inject, slot);
            if !self.credit(up.index(), dst) || !self.ready_for(q, up) {
                continue;
            }
            let Some((held, emptied)) = self.arena.queues.remove(QueueSet::Inject, slot, 0) else {
                return Err(SimError::invariant(
                    "eligible injection-queue head disappeared",
                ));
            };
            if emptied {
                self.sched.inject_emptied(slot);
            }
            self.advance(held, up.index(), dst)?;
        }
        self.visit = visit;
        Ok(())
    }

    /// Whether output channel `o`'s wire is idle and alive this cycle. It
    /// needs no channel record, so callers ask it before decoding one.
    pub(crate) fn wire_free(&self, o: usize) -> bool {
        *self.arena.busy_until.get(o) <= self.now && !*self.arena.dead.get(o)
    }

    /// Whether output channel `o`, which ends at node `dst`, has downstream
    /// credit: it delivers into a leaf, or `dst`'s queue for it has room.
    /// Callers pass the `dst` of the channel record they read once per
    /// grant.
    pub(crate) fn credit(&self, o: usize, dst: NodeId) -> bool {
        self.topo.kind(dst).is_leaf()
            || self.arena.queues.get(QueueSet::Channel, o).len() < self.cfg.queue_capacity
    }

    /// Whether the head of channel queue `qi` is ready and wants output `o`.
    pub(crate) fn head_wants(&self, qi: usize, o: ChannelId) -> bool {
        self.ready_for(self.arena.queues.get(QueueSet::Channel, qi), o)
    }

    /// Whether `q`'s head may be granted output `o` this cycle.
    fn ready_for(&self, q: Fifo<'_>, o: ChannelId) -> bool {
        matches!(q.front(), Some(p) if p.ready_at <= self.now && self.next_hop(p) == Some(o))
    }

    /// The channel `p` wants next, resolved through the policy's route
    /// table; `None` once its walk is done.
    pub(crate) fn next_hop(&self, p: &Packet) -> Option<ChannelId> {
        self.policy.next_hop(p.row, p.hop)
    }

    /// Grant output `o`, which ends at node `dst`, to the head of channel
    /// queue `qi` and leave the output's round-robin pointer at `next_rr`.
    ///
    /// # Errors
    /// [`SimError::Invariant`] if the queue is empty or the move breaks a
    /// path invariant.
    pub(crate) fn grant_head(
        &mut self,
        qi: usize,
        o: usize,
        dst: NodeId,
        next_rr: u32,
    ) -> Result<(), SimError> {
        let p = self.take(qi, 0)?;
        *self.arena.rr.get_mut(o) = next_rr;
        self.advance(p, o, dst)
    }

    /// Unlink the granted packet at position `pos` of channel queue `c`.
    fn take(&mut self, c: usize, pos: usize) -> Result<Held, SimError> {
        let Some((held, emptied)) = self.arena.queues.remove(QueueSet::Channel, c, pos) else {
            return Err(SimError::invariant(
                "granted packet left its queue before the move",
            ));
        };
        if emptied {
            self.sched.queue_emptied(c);
        }
        Ok(held)
    }

    /// Move one granted packet across output channel `o`, which ends at
    /// node `dst`: relink it into `o`'s queue, or free its slot on
    /// delivery.
    fn advance(&mut self, held: Held, o: usize, dst: NodeId) -> Result<(), SimError> {
        let flits = self.cfg.packet_flits;
        self.moves += 1;
        // The wire serializes `flits` flits; the packet cannot be forwarded
        // again (cut-through is not modeled) until the tail flit arrives.
        // It becomes ready — and the wire frees — at the same cycle, so one
        // wake-up covers both.
        let ready_at = self.now + flits;
        let p = self.arena.queues.held_mut(&held);
        p.hop += 1;
        p.ready_at = ready_at;
        p.at = dst.0;
        *self.arena.busy_until.get_mut(o) = ready_at;
        if self.may_skip {
            self.sched.wake(ready_at);
        }
        if self.in_window {
            self.stats.channel_busy.add(o, flits);
        }
        if !self.topo.kind(dst).is_leaf() {
            self.arena.queues.push_held(QueueSet::Channel, o, held);
            self.sched.queue_filled(o);
            return Ok(());
        }
        let p = self.arena.queues.release(held);
        if dst.0 != p.dst {
            return Err(SimError::invariant(format!(
                "packet for leaf {} exited the fabric at leaf {}",
                p.dst, dst.0
            )));
        }
        let hops = self.policy.path(p.row).len();
        if p.hop as usize != hops {
            return Err(SimError::invariant(format!(
                "packet reached its destination after hop {} of a {hops}-hop path",
                p.hop
            )));
        }
        self.stats.delivered_total += 1;
        if self.in_window {
            self.stats.delivered_in_window += 1;
            let lat = self.now - p.inject_cycle + flits;
            self.stats.latency_sum += lat;
            self.stats.latency_max = self.stats.latency_max.max(lat);
            self.window_latencies.push(lat);
        }
        Ok(())
    }

    /// One cycle of iSLIP request-grant-accept matching on switch `sw`,
    /// followed by the matched packet moves.
    ///
    /// Virtual output queues are realized over the shared per-input buffer:
    /// the packet an input offers toward output `o` is the *first* buffered
    /// packet whose next hop is `o` (FIFO per virtual queue), so a blocked
    /// head never stalls traffic for other outputs. A switch with no
    /// buffered packet requests nothing, grants nothing and moves no
    /// pointer, which is why a schedule may leave it out.
    ///
    /// The work is driven by the request list rather than a dense
    /// inputs × outputs matrix. A grant is the requester nearest the
    /// output's pointer, `min (ii - start) mod n_in`; an accept is the grant
    /// nearest the input's pointer, `min (oj - start) mod n_out`. Both are
    /// exactly the first hit of McKeown's round-robin scans.
    fn islip_switch(&mut self, sw: NodeId, iterations: u8) -> Result<(), SimError> {
        let (topo, now) = (self.topo, self.now);
        let inputs = topo.in_channels(sw);
        let (n_in, n_out) = (inputs.len(), topo.out_channels(sw).len());
        if n_in == 0 || n_out == 0 {
            return Ok(());
        }
        let mut s = std::mem::take(&mut self.islip);
        // Every ready packet's request.
        s.heads.clear();
        for (ii, qi) in inputs.enumerate() {
            let q = self.arena.queues.get(QueueSet::Channel, qi.index());
            for (pos, p) in q.iter().enumerate() {
                if p.ready_at > now {
                    continue;
                }
                // (Defensive: a delivered packet never queues, and wants
                // nothing.)
                if let Some(c) = self.next_hop(p) {
                    s.heads.push((c.index(), ii, pos));
                }
            }
        }
        // Sorted by output, input, position: the first request of each
        // (output, input) run is that VOQ's head.
        s.heads.sort_unstable();
        s.heads.dedup_by_key(|h| (h.0, h.1));
        // One channel record read per requested output: requests for an
        // output of another switch are dropped, as a switch can only grant
        // its own. An output's local slot is its `src_port` (the CSR audit
        // proves `outputs[src_port]` is that channel). `requested` is in
        // channel-id order, not slot order, and nothing below depends on
        // it: grants are ranked by input and pointer distance alone, and
        // the moves run in input order.
        s.requested.clear();
        let mut at = 0;
        for run in s.heads.chunk_by(|a, b| a.0 == b.0) {
            let o = run[0].0;
            let heads = at..at + run.len();
            at += run.len();
            let ch = topo.channel(ChannelId(o as u32));
            if ch.src != sw {
                continue;
            }
            s.requested.push(Requested {
                oj: usize::from(ch.src_port),
                out: Out { o, dst: ch.dst },
                heads,
                open: self.wire_free(o) && self.credit(o, ch.dst),
            });
        }
        s.in_matched.clear();
        s.in_matched.resize(n_in, false);
        s.matches.clear();
        for iter in 0..iterations {
            // Grant: each open output offers itself to one unmatched
            // requester, scanning from its grant pointer.
            s.grants.clear();
            for (g, req) in s.requested.iter().enumerate().filter(|(_, r)| r.open) {
                let start = *self.arena.rr.get(req.out.o) as usize % n_in;
                let winner = s.heads[req.heads.clone()]
                    .iter()
                    .filter(|h| !s.in_matched[h.1])
                    .min_by_key(|h| (h.1 + n_in - start) % n_in);
                if let Some(&(_, ii, pos)) = winner {
                    let accept =
                        *self.arena.accept_ptr.get(inputs.get(ii).index()) as usize % n_out;
                    s.grants
                        .push((ii, (req.oj + n_out - accept) % n_out, g, pos));
                }
            }
            if s.grants.is_empty() {
                break;
            }
            // Accept: each input picks one granted output, scanning from
            // its accept pointer (ranked above, as nothing moves a pointer
            // between grant and accept); pointers advance only on
            // first-iteration accepts (standard iSLIP desynchronization
            // rule).
            s.grants.sort_unstable();
            s.grants.dedup_by_key(|gr| gr.0);
            for &(ii, _, g, pos) in &s.grants {
                let (qi, req) = (inputs.get(ii), &mut s.requested[g]);
                s.in_matched[ii] = true;
                req.open = false;
                s.matches.push((ii, req.out, pos));
                if iter == 0 {
                    *self.arena.rr.get_mut(req.out.o) = ((ii + 1) % n_in) as u32;
                    *self.arena.accept_ptr.get_mut(qi.index()) = ((req.oj + 1) % n_out) as u32;
                }
            }
        }
        // Move matched packets.
        for &(ii, out, pos) in &s.matches {
            let p = self.take(inputs.get(ii).index(), pos)?;
            self.advance(p, out.o, out.dst)?;
        }
        self.islip = s;
        Ok(())
    }
}

/// The monotonic totals a recorder sees, in [`Names::totals`] order.
fn totals(stats: &SimStats) -> [u64; 6] {
    [
        stats.injected_total,
        stats.delivered_total,
        stats.timed_out_total,
        stats.retries_total,
        stats.abandoned_total,
        stats.injection_refusals,
    ]
}

/// Push the totals' growth since the last flush, and the in-flight gauge,
/// to the recorder: its counters then equal the engine's monotonic stats at
/// every epoch boundary.
fn flush<R: Recorder>(
    rec: &R,
    names: &Names,
    flushed: &mut [u64; 6],
    stats: &SimStats,
) -> Result<(), SimError> {
    for ((name, total), seen) in names.totals.into_iter().zip(totals(stats)).zip(flushed) {
        let delta = total.checked_sub(*seen).ok_or_else(|| {
            SimError::invariant(format!("recorder counter {name} moved backwards"))
        })?;
        rec.add(name, delta);
        *seen = total;
    }
    rec.gauge(names.in_flight, in_flight(stats)?);
    Ok(())
}

/// Packets currently inside the network: injected minus delivered minus
/// abandoned, with the subtraction checked so a broken counter surfaces as
/// a typed [`SimError::Invariant`] rather than a debug-mode underflow panic.
fn in_flight(stats: &SimStats) -> Result<u64, SimError> {
    stats
        .injected_total
        .checked_sub(stats.delivered_total)
        .and_then(|left| left.checked_sub(stats.abandoned_total))
        .ok_or_else(|| {
            SimError::invariant("delivered + abandoned exceed injected (counter underflow)")
        })
}

/// Fill in percentile fields from sorted window latencies.
fn finish_stats(stats: &mut SimStats, sorted: &[u64]) {
    let pct = |q: f64| -> u64 {
        if sorted.is_empty() {
            0
        } else {
            let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
            sorted[idx]
        }
    };
    stats.latency_p50 = pct(0.50);
    stats.latency_p95 = pct(0.95);
    stats.latency_p99 = pct(0.99);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DenseSchedule;
    use ftclos_topo::crossbar;

    /// One iSLIP cycle on a 4-port crossbar whose pointers both have to wrap
    /// past the last port. Inputs 1, 2 and 3 hold packets for outputs
    /// {0, 2}, {0} and {2}; output 0's grant pointer is at 3, output 2's at
    /// 1, input 1's accept pointer at 3.
    ///
    /// Iteration 1: output 0 scans 3, 0, 1 and grants input 1; output 2
    /// grants input 1 straight away; input 1 scans 3, 0 and accepts output
    /// 0. Iteration 2: output 2 grants the still unmatched input 3, which
    /// accepts. Only the first iteration moves pointers.
    #[test]
    fn islip_grant_and_accept_pointers_wrap() {
        let xb = crossbar(4).unwrap();
        let topo = xb.topology();
        let sw = xb.switch();
        for p in 0..4 {
            assert_eq!(topo.in_channels(sw).get(p), xb.up_channel(p));
            assert_eq!(topo.out_channels(sw).get(p), xb.down_channel(p));
        }
        let routes: Vec<(u32, u32, [ChannelId; 2])> = [(1, 0), (1, 2), (2, 0), (3, 2)]
            .map(|(i, o): (usize, usize)| {
                (i as u32, o as u32, [xb.up_channel(i), xb.down_channel(o)])
            })
            .into();
        let mut policy =
            Policy::from_pinned(topo, routes.iter().map(|(i, o, p)| (*i, *o, &p[..]))).unwrap();
        let rows: Vec<u32> = routes
            .iter()
            .map(|r| {
                policy
                    .pick(r.0, r.1, |_| 0, &mut ChaCha8Rng::seed_from_u64(0))
                    .unwrap()
            })
            .collect();
        for iterations in [1, 2] {
            let cfg = SimConfig {
                arbiter: Arbiter::Voq { iterations },
                ..SimConfig::default()
            };
            let mut arena = SimArena::new();
            let mut run: Run<'_, DenseSchedule> =
                Run::new(topo, &cfg, &mut arena, &mut policy, 0, 0.0, None);
            for (&(i, o, _), &row) in routes.iter().zip(&rows) {
                let up = xb.up_channel(i as usize).index();
                run.arena.queues.push_back(
                    QueueSet::Channel,
                    up,
                    Packet {
                        src: i,
                        dst: o,
                        row,
                        hop: 1,
                        inject_cycle: 0,
                        ready_at: 0,
                        deadline: u64::MAX,
                        retries: 0,
                        at: xb.switch().0,
                    },
                );
            }
            let (up, down) = (|p| xb.up_channel(p).index(), |p| xb.down_channel(p).index());
            *run.arena.rr.get_mut(down(0)) = 3;
            *run.arena.rr.get_mut(down(2)) = 1;
            *run.arena.accept_ptr.get_mut(up(1)) = 3;
            run.islip_switch(sw, iterations).unwrap();
            // Input 1 sent its packet for output 0; its packet for output 2
            // stays. Input 3's moved only in the second iteration.
            let left = |p: usize| -> Vec<u32> {
                run.arena
                    .queues
                    .get(QueueSet::Channel, up(p))
                    .iter()
                    .map(|pk| pk.dst)
                    .collect()
            };
            assert_eq!(left(1), [2]);
            assert_eq!(left(2), [0]);
            assert_eq!(left(3), if iterations == 1 { vec![2] } else { vec![] });
            assert_eq!(run.moves, u64::from(iterations));
            assert_eq!(
                *run.arena.rr.get(down(0)),
                2,
                "grant pointer one past input 1"
            );
            assert_eq!(
                *run.arena.accept_ptr.get(up(1)),
                1,
                "accept pointer one past output 0"
            );
            assert_eq!(
                *run.arena.rr.get(down(2)),
                1,
                "second-iteration grants move nothing"
            );
            assert_eq!(*run.arena.accept_ptr.get(up(3)), 0);
        }
    }
}
