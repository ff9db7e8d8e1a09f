//! The synchronous cycle engine.

use crate::churn::{build_report, ChurnConfig, ChurnReport, EpochMark};
use crate::config::{Arbiter, SimConfig};
use crate::error::SimError;
use crate::fault::{ChurnSchedule, FaultSchedule};
use crate::policy::Policy;
use crate::state::{stall_report, Packet, PagedVec, SimArena};
use crate::stats::{ChannelBusy, SimStats};
use crate::workload::Workload;
use ftclos_obs::{Noop, Recorder};
use ftclos_routing::LinkAdmission;
use ftclos_topo::{ChannelId, NodeId, Topology, Transition};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;

/// Cumulative simulator totals already flushed to a [`Recorder`]: each
/// flush pushes only the delta, so recorder counters stay equal to the
/// engine's monotonic stats at every epoch boundary.
#[derive(Clone, Copy, Debug, Default)]
struct FlushedTotals {
    injected: u64,
    delivered: u64,
    timed_out: u64,
    retries: u64,
    abandoned: u64,
    refusals: u64,
}

impl FlushedTotals {
    fn flush<R: Recorder>(&mut self, rec: &R, stats: &SimStats) -> Result<(), SimError> {
        let delta = |name: &'static str, total: u64, seen: u64| {
            total.checked_sub(seen).ok_or_else(|| {
                SimError::invariant(format!("recorder counter {name} moved backwards"))
            })
        };
        rec.add(
            "sim.injected",
            delta("sim.injected", stats.injected_total, self.injected)?,
        );
        rec.add(
            "sim.delivered",
            delta("sim.delivered", stats.delivered_total, self.delivered)?,
        );
        rec.add(
            "sim.timed_out",
            delta("sim.timed_out", stats.timed_out_total, self.timed_out)?,
        );
        rec.add(
            "sim.retries",
            delta("sim.retries", stats.retries_total, self.retries)?,
        );
        rec.add(
            "sim.abandoned",
            delta("sim.abandoned", stats.abandoned_total, self.abandoned)?,
        );
        rec.add(
            "sim.refusals",
            delta("sim.refusals", stats.injection_refusals, self.refusals)?,
        );
        rec.gauge("sim.in_flight", in_flight(stats)?);
        self.injected = stats.injected_total;
        self.delivered = stats.delivered_total;
        self.timed_out = stats.timed_out_total;
        self.retries = stats.retries_total;
        self.abandoned = stats.abandoned_total;
        self.refusals = stats.injection_refusals;
        Ok(())
    }
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

/// Cycle-level simulator over a [`Topology`] with a path [`Policy`].
pub struct Simulator<'a> {
    topo: &'a Topology,
    cfg: SimConfig,
    policy: Policy,
    arena: SimArena,
}

impl<'a> Simulator<'a> {
    /// Create a simulator. The policy must cover every pair the workload
    /// can generate (unrouteable injections are counted as refusals).
    pub fn new(topo: &'a Topology, cfg: SimConfig, policy: Policy) -> Self {
        Self::with_arena(topo, cfg, policy, SimArena::new())
    }

    /// Create a simulator reusing a [`SimArena`] from a previous run —
    /// repeated runs through one arena recycle state pages instead of
    /// reallocating them. Semantically identical to [`Simulator::new`].
    pub fn with_arena(topo: &'a Topology, cfg: SimConfig, policy: Policy, arena: SimArena) -> Self {
        Self {
            topo,
            cfg,
            policy,
            arena,
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
    /// [`Simulator::try_run`] for the structured-error form.
    pub fn run(&mut self, workload: &Workload, seed: u64) -> SimStats {
        match self.try_run(workload, seed) {
            Ok(stats) => stats,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Simulator::run`]: configuration problems and engine
    /// invariant violations come back as [`SimError`] instead of panics.
    ///
    /// # Errors
    /// [`SimError::Config`] for an invalid [`SimConfig`];
    /// [`SimError::Invariant`] if the engine catches itself in an
    /// inconsistent state.
    pub fn try_run(&mut self, workload: &Workload, seed: u64) -> Result<SimStats, SimError> {
        self.try_run_with_faults(workload, seed, &FaultSchedule::new())
    }

    /// [`Simulator::try_run`] with instrumentation: the run records under
    /// span `sim.run`, with cumulative counters (`sim.injected`,
    /// `sim.delivered`, `sim.timed_out`, `sim.retries`, `sim.abandoned`,
    /// `sim.refusals`, `sim.cycles`), the `sim.in_flight` gauge, and one
    /// recorder epoch per liveness-transition cycle plus a final `end`
    /// epoch — so per-epoch packet conservation is auditable from the
    /// trace alone. With [`Noop`] this is exactly `try_run`.
    ///
    /// # Errors
    /// As for [`Simulator::try_run`].
    pub fn try_run_recorded<R: Recorder>(
        &mut self,
        workload: &Workload,
        seed: u64,
        rec: &R,
    ) -> Result<SimStats, SimError> {
        self.run_loop(workload, seed, &FaultSchedule::new(), None, rec)
            .map(|(stats, _)| stats)
    }

    /// [`Simulator::try_run_with_faults`] with instrumentation (see
    /// [`Simulator::try_run_recorded`] for what is recorded).
    ///
    /// # Errors
    /// As for [`Simulator::try_run`].
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

    /// Run with mid-simulation channel transitions: each event of `faults`
    /// marks its channel dead — or alive again — at the start of its cycle.
    /// Dead channels grant no packets; stalled traffic is dropped/retried
    /// per the TTL and retry knobs of the configuration. Revived channels
    /// grant again from their cycle on.
    ///
    /// # Errors
    /// As for [`Simulator::try_run`].
    pub fn try_run_with_faults(
        &mut self,
        workload: &Workload,
        seed: u64,
        faults: &FaultSchedule,
    ) -> Result<SimStats, SimError> {
        self.run_loop(workload, seed, faults, None, &Noop)
            .map(|(stats, _)| stats)
    }

    /// Run under churn with per-epoch instrumentation: applies the
    /// schedule's transitions like [`Simulator::try_run_with_faults`],
    /// drives the path policy's live mask per `churn.mode` (pinned /
    /// per-cycle / hysteresis re-planning), and slices the run into epochs
    /// at every transition cycle. Returns the usual statistics plus the
    /// [`ChurnReport`] with per-epoch counters and time-to-reconverge.
    ///
    /// # Errors
    /// As for [`Simulator::try_run`].
    pub fn try_run_churn(
        &mut self,
        workload: &Workload,
        seed: u64,
        schedule: &ChurnSchedule,
        churn: &ChurnConfig,
    ) -> Result<(SimStats, ChurnReport), SimError> {
        self.run_loop(workload, seed, schedule, Some(churn), &Noop)
            .map(|(stats, report)| (stats, report.unwrap_or_default()))
    }

    /// [`Simulator::try_run_churn`] with instrumentation (see
    /// [`Simulator::try_run_recorded`]; additionally counts hysteresis
    /// re-planning events under `sim.churn_replans`).
    ///
    /// # Errors
    /// As for [`Simulator::try_run`].
    pub fn try_run_churn_recorded<R: Recorder>(
        &mut self,
        workload: &Workload,
        seed: u64,
        schedule: &ChurnSchedule,
        churn: &ChurnConfig,
        rec: &R,
    ) -> Result<(SimStats, ChurnReport), SimError> {
        self.run_loop(workload, seed, schedule, Some(churn), rec)
            .map(|(stats, report)| (stats, report.unwrap_or_default()))
    }

    fn run_loop<R: Recorder>(
        &mut self,
        workload: &Workload,
        seed: u64,
        faults: &ChurnSchedule,
        churn: Option<&ChurnConfig>,
        rec: &R,
    ) -> Result<(SimStats, Option<ChurnReport>), SimError> {
        // Detach the arena so the loop can borrow its arrays disjointly
        // while the policy (also behind `self`) is borrowed mutably.
        let mut arena = std::mem::take(&mut self.arena);
        let result = self.run_loop_inner(workload, seed, faults, churn, rec, &mut arena);
        self.arena = arena;
        result
    }

    fn run_loop_inner<R: Recorder>(
        &mut self,
        workload: &Workload,
        seed: u64,
        faults: &ChurnSchedule,
        churn: Option<&ChurnConfig>,
        rec: &R,
        arena: &mut SimArena,
    ) -> Result<(SimStats, Option<ChurnReport>), SimError> {
        self.cfg.validate()?;
        let _span = rec.span("sim.run");
        // Counter values already pushed to the recorder (counters are
        // monotonic; each flush adds only the delta since the last one).
        let mut flushed = FlushedTotals::default();
        // A fresh run starts unmasked; churn modes rebuild the mask below.
        self.policy.set_live_mask(None);
        // Churn instrumentation (None outside churn runs, no overhead).
        let mut admission: Option<LinkAdmission> = churn
            .and_then(|c| c.mode.hysteresis_k())
            .map(|k| LinkAdmission::new(self.topo.num_channels(), k));
        let mut epoch_marks: Vec<EpochMark> = Vec::new();
        let mut delivered_per_cycle: Vec<u32> = Vec::new();
        let mut delivered_seen = 0u64;
        if churn.is_some() {
            epoch_marks.push(EpochMark::default()); // run-start baseline
        }
        let fault_events = faults.sorted_events();
        let mut next_fault = 0usize;
        let ttl = self.cfg.ttl_cycles;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let num_channels = self.topo.num_channels();
        let leaves: Vec<NodeId> = self.topo.leaves().collect();
        // All per-channel state (queues, arbiter pointers, wire deadlines,
        // liveness) lives in the paged arena: allocated on first touch,
        // recycled across runs, identical in content to the historical
        // dense arrays because every default is synthesized arithmetically.
        arena.prepare(num_channels, leaves.len());
        // Leaf node id -> dense leaf slot (leaves are the first node ids in
        // all our builders, but don't rely on it).
        let mut leaf_slot = vec![usize::MAX; self.topo.num_nodes()];
        for (slot, &l) in leaves.iter().enumerate() {
            leaf_slot[l.index()] = slot;
        }
        let flits = self.cfg.packet_flits.max(1);
        let mut source_injected = vec![false; leaves.len()];
        let mut window_latencies: Vec<u64> = Vec::new();
        let switch_nodes: Vec<NodeId> = self
            .topo
            .node_ids()
            .filter(|&id| self.topo.kind(id).is_switch())
            .collect();

        let mut stats = SimStats {
            window_cycles: self.cfg.measure_cycles,
            offered_rate: workload.rate(),
            channel_busy: ChannelBusy::zeros(num_channels),
            ..SimStats::default()
        };
        let warmup = self.cfg.warmup_cycles;
        let total = self.cfg.total_cycles();

        // Stall watchdog: `moves` counts successful channel grants; the
        // signature below changes whenever anything is delivered, dropped,
        // retried, or moved. If it freezes for `stall_watchdog` consecutive
        // cycles while packets are in flight, the network is wedged.
        let watchdog = self.cfg.stall_watchdog;
        let mut moves = 0u64;
        let mut frozen_cycles = 0u64;
        let mut last_signature = (u64::MAX, 0u64, 0u64, 0u64);

        let mut now = 0u64;
        loop {
            if now >= total {
                // Drain: run movement-only until the network empties.
                let inflight = in_flight(&stats)?;
                if !self.cfg.drain || inflight == 0 {
                    break;
                }
                if now >= total + SimConfig::DRAIN_CAP {
                    // An armed watchdog that was mid-freeze when the drain
                    // cap hit means nothing was moving: that is a stall,
                    // not a normal cap exit — report it as one instead of
                    // silently truncating the drain.
                    if watchdog > 0 && frozen_cycles > 0 {
                        return Err(SimError::Stalled(stall_report(
                            now,
                            inflight,
                            &arena.queues,
                            &arena.inject,
                        )));
                    }
                    break;
                }
            }
            let in_window = now >= warmup && now < total;
            let injecting = now < total;
            // --- Liveness events: scheduled transitions apply at cycle
            // start (events are ordered Down-before-Up per channel, so a
            // same-cycle flap nets to alive) ---
            let mut downs_now = 0u64;
            let mut ups_now = 0u64;
            while next_fault < fault_events.len() && fault_events[next_fault].cycle <= now {
                let e = fault_events[next_fault];
                if e.channel.index() < num_channels {
                    *arena.dead.get_mut(e.channel.index()) = e.transition == Transition::Down;
                    match e.transition {
                        Transition::Down => downs_now += 1,
                        Transition::Up => ups_now += 1,
                    }
                    if let Some(adm) = admission.as_mut() {
                        adm.observe(now, e.channel, e.transition);
                    }
                }
                next_fault += 1;
            }
            if churn.is_some() && downs_now + ups_now > 0 {
                let mark = EpochMark {
                    cycle: now,
                    downs: downs_now,
                    ups: ups_now,
                    injected: stats.injected_total,
                    delivered: stats.delivered_total,
                    timed_out: stats.timed_out_total,
                    retries: stats.retries_total,
                    abandoned: stats.abandoned_total,
                };
                match epoch_marks.last_mut() {
                    // Transitions at cycle 0 fold into the baseline mark.
                    Some(last) if last.cycle == now => {
                        last.downs += downs_now;
                        last.ups += ups_now;
                    }
                    _ => epoch_marks.push(mark),
                }
            }
            if downs_now + ups_now > 0 && rec.is_enabled() {
                // A liveness transition closes a recorder epoch: cumulative
                // counters and the in-flight gauge at this boundary make
                // per-epoch packet conservation auditable from the trace.
                flushed.flush(rec, &stats)?;
                rec.mark_epoch(&format!("cycle={now}"));
            }
            // Re-planning: promote stabilized links, refresh the pick mask.
            if let Some(adm) = admission.as_mut() {
                if adm.tick(now) {
                    self.policy.set_live_mask(Some(adm.mask()));
                    rec.add("sim.churn_replans", 1);
                }
            }
            // --- Timeout sweep: expire packets past their deadline.
            // Touched pages only, channel queues ascending then injection
            // slots ascending — untouched queues are empty, so this is the
            // historical full chained scan with the no-ops removed. ---
            if ttl > 0 {
                let mut expired: Vec<Packet> = Vec::new();
                let mut sweep = |q: &mut VecDeque<Packet>| -> Result<(), SimError> {
                    let mut i = 0;
                    while i < q.len() {
                        if now >= q[i].deadline {
                            let Some(p) = q.remove(i) else {
                                return Err(SimError::invariant(
                                    "expired packet index out of range",
                                ));
                            };
                            expired.push(p);
                        } else {
                            i += 1;
                        }
                    }
                    Ok(())
                };
                arena.queues.try_for_each_touched_mut(|_, q| sweep(q))?;
                arena.inject.try_for_each_touched_mut(|_, q| sweep(q))?;
                for p in expired {
                    stats.timed_out_total += 1;
                    let can_retry = self.cfg.retry && p.retries < self.cfg.retry_limit;
                    if !can_retry {
                        stats.abandoned_total += 1;
                        continue;
                    }
                    // Retransmit from the source with a *fresh* path pick:
                    // spreading policies get a new chance to dodge dead
                    // hardware. Latency keeps the original injection time.
                    let queue_probe = |c: ChannelId| arena.queues.get(c.index()).len();
                    match self.policy.pick(p.src, p.dst, queue_probe, &mut rng) {
                        Some(path) if !path.is_empty() => {
                            stats.retries_total += 1;
                            let slot = leaf_slot
                                .get(p.src as usize)
                                .copied()
                                .filter(|&s| s != usize::MAX)
                                .ok_or_else(|| {
                                    SimError::invariant(format!(
                                        "retransmission source {} is not a leaf",
                                        p.src
                                    ))
                                })?;
                            arena.inject.get_mut(slot).push_back(Packet {
                                src: p.src,
                                dst: p.dst,
                                path,
                                hop: 0,
                                inject_cycle: p.inject_cycle,
                                ready_at: now,
                                deadline: now + ttl,
                                retries: p.retries + 1,
                            });
                        }
                        _ => {
                            stats.abandoned_total += 1;
                        }
                    }
                }
            }
            // --- Injection phase ---
            for (slot, &leaf) in leaves.iter().enumerate() {
                if !injecting {
                    break;
                }
                if !rng.gen_bool(workload.rate().clamp(0.0, 1.0)) {
                    continue;
                }
                let src = leaf.0;
                let Some(dst) = workload.destination(src, |n| rng.gen_range(0..n)) else {
                    continue;
                };
                if self.cfg.bounded_injection
                    && arena.inject.get(slot).len() >= self.cfg.queue_capacity
                {
                    stats.injection_refusals += 1;
                    continue;
                }
                let queue_probe = |c: ChannelId| arena.queues.get(c.index()).len();
                let Some(path) = self.policy.pick(src, dst, queue_probe, &mut rng) else {
                    stats.injection_refusals += 1;
                    continue;
                };
                source_injected[slot] = true;
                stats.injected_total += 1;
                if in_window {
                    stats.injected_in_window += 1;
                }
                if path.is_empty() {
                    // Self traffic: delivered instantly.
                    stats.delivered_total += 1;
                    if in_window {
                        stats.delivered_in_window += 1;
                    }
                    continue;
                }
                arena.inject.get_mut(slot).push_back(Packet {
                    src,
                    dst,
                    path,
                    hop: 0,
                    inject_cycle: now,
                    ready_at: now,
                    deadline: if ttl > 0 { now + ttl } else { u64::MAX },
                    retries: 0,
                });
            }

            // --- Movement phase: one grant per output channel per cycle ---
            // Injection links (leaf -> switch): a leaf drives a single
            // uplink, no arbitration needed under either discipline.
            for (slot, &leaf) in leaves.iter().enumerate() {
                let Some(&up) = self.topo.out_channels(leaf).first() else {
                    continue;
                };
                let o = up.index();
                if *arena.busy_until.get(o) > now
                    || *arena.dead.get(o)
                    || arena.queues.get(o).len() >= self.cfg.queue_capacity
                {
                    continue;
                }
                // Probe read-only first: popping goes through the touching
                // accessor only when the queue is provably non-empty.
                let eligible = matches!(
                    arena.inject.get(slot).front(),
                    Some(p) if p.ready_at <= now && p.path.get(p.hop) == Some(&up)
                );
                if eligible {
                    let Some(p) = arena.inject.get_mut(slot).pop_front() else {
                        return Err(SimError::invariant(
                            "eligible injection-queue head disappeared",
                        ));
                    };
                    self.advance(
                        p,
                        o,
                        now,
                        flits,
                        in_window,
                        &mut arena.queues,
                        &mut arena.busy_until,
                        &mut stats,
                        &mut window_latencies,
                        &mut moves,
                    )?;
                }
            }
            // Switch outputs.
            match self.cfg.arbiter {
                Arbiter::HolFifo => {
                    for o in 0..num_channels {
                        if *arena.busy_until.get(o) > now || *arena.dead.get(o) {
                            continue; // wire occupied, or killed by a fault
                        }
                        let ch = self.topo.channel(ChannelId(o as u32));
                        if self.topo.kind(ch.src).is_leaf() {
                            continue; // injection links handled above
                        }
                        let to_leaf = self.topo.kind(ch.dst).is_leaf();
                        if !to_leaf && arena.queues.get(o).len() >= self.cfg.queue_capacity {
                            continue; // no downstream credit
                        }
                        // Round-robin over the switch's input-queue *heads*.
                        let inputs = self.topo.in_channels(ch.src);
                        let n_in = inputs.len();
                        let start = *arena.rr.get(o) as usize % n_in.max(1);
                        for k in 0..n_in {
                            let idx = (start + k) % n_in;
                            let qi = inputs[idx].index();
                            let head_ok = matches!(
                                arena.queues.get(qi).front(),
                                Some(p) if p.ready_at <= now
                                    && p.path.get(p.hop) == Some(&ChannelId(o as u32))
                            );
                            if head_ok {
                                let Some(p) = arena.queues.get_mut(qi).pop_front() else {
                                    return Err(SimError::invariant(
                                        "eligible input-queue head disappeared",
                                    ));
                                };
                                *arena.rr.get_mut(o) = (idx as u32 + 1) % n_in as u32;
                                self.advance(
                                    p,
                                    o,
                                    now,
                                    flits,
                                    in_window,
                                    &mut arena.queues,
                                    &mut arena.busy_until,
                                    &mut stats,
                                    &mut window_latencies,
                                    &mut moves,
                                )?;
                                break;
                            }
                        }
                    }
                }
                Arbiter::Voq { iterations } => {
                    for &sw in &switch_nodes {
                        self.islip_switch(
                            sw,
                            iterations.max(1),
                            now,
                            flits,
                            in_window,
                            &mut arena.queues,
                            &mut arena.busy_until,
                            &arena.dead,
                            &mut arena.rr,
                            &mut arena.accept_ptr,
                            &mut stats,
                            &mut window_latencies,
                            &mut moves,
                        )?;
                    }
                }
            }
            if churn.is_some() {
                delivered_per_cycle.push((stats.delivered_total - delivered_seen) as u32);
                delivered_seen = stats.delivered_total;
            }
            if watchdog > 0 {
                let inflight = in_flight(&stats)?;
                let signature = (
                    moves,
                    stats.delivered_total,
                    stats.abandoned_total,
                    stats.retries_total,
                );
                if inflight > 0 && signature == last_signature {
                    frozen_cycles += 1;
                    if frozen_cycles >= watchdog {
                        return Err(SimError::Stalled(stall_report(
                            now,
                            inflight,
                            &arena.queues,
                            &arena.inject,
                        )));
                    }
                } else {
                    frozen_cycles = 0;
                    last_signature = signature;
                }
            }
            now += 1;
        }
        stats.leftover_packets = in_flight(&stats)?;
        stats.active_sources = source_injected.iter().filter(|&&b| b).count();
        rec.add("sim.cycles", now);
        if rec.is_enabled() {
            flushed.flush(rec, &stats)?;
            rec.mark_epoch("end");
        }
        window_latencies.sort_unstable();
        self.finish_stats(&mut stats, &window_latencies);
        let report = churn.map(|c| {
            let final_mark = EpochMark {
                cycle: now,
                downs: 0,
                ups: 0,
                injected: stats.injected_total,
                delivered: stats.delivered_total,
                timed_out: stats.timed_out_total,
                retries: stats.retries_total,
                abandoned: stats.abandoned_total,
            };
            build_report(c, &epoch_marks, final_mark, &delivered_per_cycle, warmup)
        });
        Ok((stats, report))
    }

    /// Fill in percentile fields from sorted window latencies.
    fn finish_stats(&self, stats: &mut SimStats, sorted: &[u64]) {
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

    /// Move one granted packet across output channel `o`.
    #[allow(clippy::too_many_arguments)]
    fn advance(
        &self,
        mut p: Packet,
        o: usize,
        now: u64,
        flits: u64,
        in_window: bool,
        queues: &mut PagedVec<VecDeque<Packet>>,
        busy_until: &mut PagedVec<u64>,
        stats: &mut SimStats,
        window_latencies: &mut Vec<u64>,
        moves: &mut u64,
    ) -> Result<(), SimError> {
        let ch = self.topo.channel(ChannelId(o as u32));
        let to_leaf = self.topo.kind(ch.dst).is_leaf();
        *moves += 1;
        p.hop += 1;
        // The wire serializes `flits` flits; the packet cannot be forwarded
        // again (cut-through is not modeled) until the tail flit arrives.
        p.ready_at = now + flits;
        *busy_until.get_mut(o) = now + flits;
        if in_window {
            stats.channel_busy.add(o, flits);
        }
        if to_leaf {
            if ch.dst.0 != p.dst {
                return Err(SimError::invariant(format!(
                    "packet for leaf {} exited the fabric at leaf {}",
                    p.dst, ch.dst.0
                )));
            }
            if p.hop != p.path.len() {
                return Err(SimError::invariant(format!(
                    "packet reached its destination after hop {} of a {}-hop path",
                    p.hop,
                    p.path.len()
                )));
            }
            stats.delivered_total += 1;
            if in_window {
                stats.delivered_in_window += 1;
                let lat = now - p.inject_cycle + flits;
                stats.latency_sum += lat;
                stats.latency_max = stats.latency_max.max(lat);
                window_latencies.push(lat);
            }
        } else {
            queues.get_mut(o).push_back(p);
        }
        Ok(())
    }

    /// One cycle of iSLIP request-grant-accept matching on switch `sw`,
    /// followed by the matched packet moves.
    ///
    /// Virtual output queues are realized over the shared per-input buffer:
    /// the packet an input offers toward output `o` is the *first* buffered
    /// packet whose next hop is `o` (FIFO per virtual queue), so a blocked
    /// head never stalls traffic for other outputs.
    #[allow(clippy::too_many_arguments)]
    fn islip_switch(
        &self,
        sw: NodeId,
        iterations: u8,
        now: u64,
        flits: u64,
        in_window: bool,
        queues: &mut PagedVec<VecDeque<Packet>>,
        busy_until: &mut PagedVec<u64>,
        dead: &PagedVec<bool>,
        grant_ptr: &mut PagedVec<u32>,
        accept_ptr: &mut PagedVec<u32>,
        stats: &mut SimStats,
        window_latencies: &mut Vec<u64>,
        moves: &mut u64,
    ) -> Result<(), SimError> {
        let inputs = self.topo.in_channels(sw);
        let outputs = self.topo.out_channels(sw);
        if inputs.is_empty() || outputs.is_empty() {
            return Ok(());
        }
        // Output-channel index -> local output slot.
        let out_slot = |c: ChannelId| outputs.iter().position(|&o| o == c);

        // Per input: the buffer position of the first eligible packet per
        // local output (the VOQ heads).
        let mut voq_head: Vec<Vec<Option<usize>>> = Vec::with_capacity(inputs.len());
        for &qi in inputs {
            let mut heads = vec![None; outputs.len()];
            for (pos, p) in queues.get(qi.index()).iter().enumerate() {
                let Some(&next_hop) = p.path.get(p.hop) else {
                    continue; // defensive: delivered packets never queue
                };
                if p.ready_at > now {
                    continue;
                }
                if let Some(oj) = out_slot(next_hop) {
                    if heads[oj].is_none() {
                        heads[oj] = Some(pos);
                    }
                }
            }
            voq_head.push(heads);
        }
        // Output availability (wire free + downstream credit).
        let out_ok: Vec<bool> = outputs
            .iter()
            .map(|&o| {
                if *busy_until.get(o.index()) > now || *dead.get(o.index()) {
                    return false;
                }
                let ch = self.topo.channel(o);
                self.topo.kind(ch.dst).is_leaf()
                    || queues.get(o.index()).len() < self.cfg.queue_capacity
            })
            .collect();

        let mut in_matched = vec![false; inputs.len()];
        let mut out_matched = vec![false; outputs.len()];
        let mut matches: Vec<(usize, usize)> = Vec::new();
        for iter in 0..iterations {
            // Grant: each free output offers to one requesting input,
            // scanning from its grant pointer.
            let mut grants: Vec<Vec<usize>> = vec![Vec::new(); inputs.len()];
            let mut any_grant = false;
            for (oj, &o) in outputs.iter().enumerate() {
                if out_matched[oj] || !out_ok[oj] {
                    continue;
                }
                let start = *grant_ptr.get(o.index()) as usize % inputs.len();
                for k in 0..inputs.len() {
                    let ii = (start + k) % inputs.len();
                    if !in_matched[ii] && voq_head[ii][oj].is_some() {
                        grants[ii].push(oj);
                        any_grant = true;
                        break;
                    }
                }
            }
            if !any_grant {
                break;
            }
            // Accept: each input picks one granted output, scanning from
            // its accept pointer; pointers advance only on first-iteration
            // accepts (standard iSLIP desynchronization rule).
            for (ii, granted) in grants.iter().enumerate() {
                if granted.is_empty() || in_matched[ii] {
                    continue;
                }
                let qi = inputs[ii];
                let start = *accept_ptr.get(qi.index()) as usize % outputs.len();
                let Some(&oj) = granted
                    .iter()
                    .min_by_key(|&&oj| (oj + outputs.len() - start) % outputs.len())
                else {
                    return Err(SimError::invariant("grant list emptied during accept"));
                };
                in_matched[ii] = true;
                out_matched[oj] = true;
                matches.push((ii, oj));
                if iter == 0 {
                    *grant_ptr.get_mut(outputs[oj].index()) = ((ii + 1) % inputs.len()) as u32;
                    *accept_ptr.get_mut(qi.index()) = ((oj + 1) % outputs.len()) as u32;
                }
            }
        }
        // Move matched packets.
        for (ii, oj) in matches {
            let Some(pos) = voq_head[ii][oj] else {
                return Err(SimError::invariant(
                    "iSLIP matched an input with no eligible VOQ head",
                ));
            };
            let Some(p) = queues.get_mut(inputs[ii].index()).remove(pos) else {
                return Err(SimError::invariant("iSLIP VOQ head position out of range"));
            };
            self.advance(
                p,
                outputs[oj].index(),
                now,
                flits,
                in_window,
                queues,
                busy_until,
                stats,
                window_latencies,
                moves,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclos_routing::{DModK, ObliviousMultipath, SpreadPolicy, YuanDeterministic};
    use ftclos_topo::{crossbar, Ftree};
    use ftclos_traffic::{adversarial, patterns};

    fn cfg() -> SimConfig {
        SimConfig {
            warmup_cycles: 200,
            measure_cycles: 1_000,
            ..SimConfig::default()
        }
    }

    #[test]
    fn crossbar_delivers_line_rate_permutation() {
        let xb = crossbar(8).unwrap();
        // Route over the crossbar: 2-hop paths via the switch.
        struct XbRouter<'a>(&'a ftclos_topo::Crossbar);
        impl ftclos_routing::SinglePathRouter for XbRouter<'_> {
            fn ports(&self) -> u32 {
                self.0.ports() as u32
            }
            fn route_into(&self, pair: ftclos_traffic::SdPair, out: &mut Vec<ChannelId>) {
                out.clear();
                if pair.src != pair.dst {
                    out.push(self.0.up_channel(pair.src as usize));
                    out.push(self.0.down_channel(pair.dst as usize));
                }
            }
            fn name(&self) -> &'static str {
                "crossbar"
            }
        }
        let policy = Policy::from_single_path(&XbRouter(&xb));
        let perm = patterns::shift(8, 3);
        let mut sim = Simulator::new(xb.topology(), cfg(), policy);
        let stats = sim.run(&Workload::permutation(&perm, 1.0), 1);
        assert!(
            stats.accepted_throughput() > 0.95,
            "crossbar throughput {}",
            stats.accepted_throughput()
        );
        assert_eq!(stats.injection_refusals, 0);
    }

    #[test]
    fn nonblocking_ftree_matches_crossbar() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let policy = Policy::from_single_path(&router);
        let perm = adversarial::rotate_switches(adversarial::FtreeShape { n: 2, m: 4, r: 5 });
        let mut sim = Simulator::new(ft.topology(), cfg(), policy);
        let stats = sim.run(&Workload::permutation(&perm, 1.0), 2);
        assert!(
            stats.accepted_throughput() > 0.95,
            "Theorem 3 fabric throughput {}",
            stats.accepted_throughput()
        );
    }

    #[test]
    fn blocked_routing_loses_throughput() {
        // d-mod-k with m < n^2 on a permutation engineered to collide.
        let ft = Ftree::new(2, 2, 5).unwrap();
        let router = DModK::new(&ft);
        let policy = Policy::from_single_path(&router);
        // All leaves of each switch target the same residue class.
        let shape = adversarial::FtreeShape { n: 2, m: 2, r: 5 };
        let perm = adversarial::rotate_switches(shape);
        let mut sim = Simulator::new(ft.topology(), cfg(), policy);
        let stats = sim.run(&Workload::permutation(&perm, 1.0), 3);
        // rotate keeps local index, so (v,0) and (v,1) go to dsts with
        // different parity -> actually contention-free for d-mod-2. Use a
        // same-parity attack instead: shift by one switch AND swap local
        // index... simpler: uniform random traffic saturates below 1.
        let uni = Workload::uniform_random(10, 1.0);
        let stats_uni =
            Simulator::new(ft.topology(), cfg(), Policy::from_single_path(&router)).run(&uni, 4);
        assert!(stats_uni.accepted_throughput() < 0.95);
        // The permutation case is a sanity run (no assertion on value).
        assert!(stats.delivered_total > 0);
    }

    #[test]
    fn latency_grows_with_load() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 2);
        let lo = Simulator::new(ft.topology(), cfg(), Policy::from_single_path(&router))
            .run(&Workload::permutation(&perm, 0.1), 5);
        let hi = Simulator::new(ft.topology(), cfg(), Policy::from_single_path(&router))
            .run(&Workload::permutation(&perm, 0.9), 5);
        assert!(lo.mean_latency() >= 2.0, "at least hop count");
        assert!(hi.mean_latency() >= lo.mean_latency());
    }

    #[test]
    fn bounded_injection_refuses() {
        let ft = Ftree::new(2, 1, 5).unwrap(); // single top: heavy contention
        let router = DModK::new(&ft);
        let config = SimConfig {
            bounded_injection: true,
            queue_capacity: 2,
            warmup_cycles: 100,
            measure_cycles: 500,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(ft.topology(), config, Policy::from_single_path(&router));
        let stats = sim.run(&Workload::uniform_random(10, 1.0), 6);
        assert!(stats.injection_refusals > 0);
    }

    #[test]
    fn multipath_spreading_beats_single_path_on_adversarial_pattern() {
        // All four sources of switch 0 target destinations ≡ 0 (mod m):
        // d-mod-k funnels them onto one uplink (~0.25 throughput), while
        // oblivious spreading uses all four uplinks.
        let ft = Ftree::new(4, 4, 9).unwrap();
        let single = DModK::new(&ft);
        let mp = ObliviousMultipath::new(&ft, SpreadPolicy::Random);
        let perm = ftclos_traffic::Permutation::from_pairs(
            36,
            (0..4).map(|k| ftclos_traffic::SdPair::new(k, (k + 1) * 4)),
        )
        .unwrap();
        let w = Workload::permutation(&perm, 1.0);
        let s1 = Simulator::new(ft.topology(), cfg(), Policy::from_single_path(&single)).run(&w, 7);
        let s2 = Simulator::new(ft.topology(), cfg(), Policy::from_multipath(&mp, true)).run(&w, 7);
        assert!(
            s1.accepted_throughput() < 0.35,
            "d-mod-k should funnel: {}",
            s1.accepted_throughput()
        );
        assert!(
            s2.accepted_throughput() > s1.accepted_throughput() + 0.2,
            "multipath {} vs single {}",
            s2.accepted_throughput(),
            s1.accepted_throughput()
        );
    }

    #[test]
    fn multi_flit_packets_serialize() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 2);
        let run = |flits: u64, rate: f64| {
            let config = SimConfig {
                packet_flits: flits,
                ..cfg()
            };
            Simulator::new(ft.topology(), config, Policy::from_single_path(&router))
                .run(&Workload::permutation(&perm, rate), 21)
        };
        // At low load, latency grows by ~(flits-1) per hop.
        let lat1 = run(1, 0.05).mean_latency();
        let lat4 = run(4, 0.05).mean_latency();
        assert!(
            lat4 > lat1 * 2.5,
            "store-and-forward serialization: {lat1} vs {lat4}"
        );
        // At saturation, packet throughput is ~1/flits of the single-flit
        // case (the wire carries the same flit rate).
        let thr1 = run(1, 1.0).accepted_throughput();
        let thr4 = run(4, 1.0).accepted_throughput();
        assert!(
            (thr4 - thr1 / 4.0).abs() < 0.05,
            "packet throughput {thr4} vs expected {}",
            thr1 / 4.0
        );
    }

    #[test]
    fn hol_blocking_vs_islip_on_uniform_crossbar() {
        // The classic input-queued switch result: FIFO input queues cap
        // uniform-traffic throughput near 58.6% (HOL blocking); VOQs with
        // iSLIP restore ~100%. This validates the arbitration model.
        let xb = crossbar(16).unwrap();
        struct XbRouter<'a>(&'a ftclos_topo::Crossbar);
        impl ftclos_routing::SinglePathRouter for XbRouter<'_> {
            fn ports(&self) -> u32 {
                self.0.ports() as u32
            }
            fn route_into(&self, pair: ftclos_traffic::SdPair, out: &mut Vec<ChannelId>) {
                out.clear();
                if pair.src != pair.dst {
                    out.push(self.0.up_channel(pair.src as usize));
                    out.push(self.0.down_channel(pair.dst as usize));
                }
            }
            fn name(&self) -> &'static str {
                "crossbar"
            }
        }
        let router = XbRouter(&xb);
        let uni = Workload::uniform_random(16, 1.0);
        let base = SimConfig {
            warmup_cycles: 500,
            measure_cycles: 3_000,
            queue_capacity: 64,
            ..SimConfig::default()
        };
        let run = |arbiter| {
            Simulator::new(
                xb.topology(),
                SimConfig { arbiter, ..base },
                Policy::from_single_path(&router),
            )
            .run(&uni, 31)
            .accepted_throughput()
        };
        let hol = run(crate::config::Arbiter::HolFifo);
        let islip1 = run(crate::config::Arbiter::Voq { iterations: 1 });
        let islip3 = run(crate::config::Arbiter::Voq { iterations: 3 });
        // HOL caps well below line rate regardless of buffering (the
        // classic unbounded-queue limit is 0.586; finite buffers with
        // injection backpressure land slightly above it).
        assert!(
            (0.5..0.78).contains(&hol),
            "HOL throughput {hol} should sit near the classic limit"
        );
        // Our VOQs share one per-input buffer, so iSLIP-1 approaches line
        // rate only as buffers deepen; 3 iterations get there already.
        assert!(
            islip1 > hol + 0.1,
            "iSLIP-1 {islip1} must clearly beat HOL {hol}"
        );
        assert!(islip3 > 0.93, "iSLIP-3 {islip3} should approach line rate");
    }

    #[test]
    fn islip_matches_hol_on_permutation_traffic() {
        // Permutation traffic has one flow per input, so there is no HOL
        // blocking to remove: both disciplines deliver line rate on the
        // nonblocking fabric.
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 4);
        let w = Workload::permutation(&perm, 1.0);
        for arbiter in [
            crate::config::Arbiter::HolFifo,
            crate::config::Arbiter::Voq { iterations: 1 },
            crate::config::Arbiter::Voq { iterations: 3 },
        ] {
            let config = SimConfig { arbiter, ..cfg() };
            let stats = Simulator::new(ft.topology(), config, Policy::from_single_path(&router))
                .run(&w, 33);
            assert!(
                stats.accepted_throughput() > 0.95,
                "{arbiter:?}: {}",
                stats.accepted_throughput()
            );
        }
    }

    #[test]
    fn islip_improves_dmodk_fat_tree_under_uniform_load() {
        // VOQs cannot make a blocking routing nonblocking, but they remove
        // the HOL component of the loss.
        let ft = Ftree::new(4, 4, 8).unwrap();
        let router = DModK::new(&ft);
        let uni = Workload::uniform_random(32, 1.0);
        let hol = Simulator::new(ft.topology(), cfg(), Policy::from_single_path(&router))
            .run(&uni, 35)
            .accepted_throughput();
        let voq = Simulator::new(
            ft.topology(),
            SimConfig {
                arbiter: crate::config::Arbiter::Voq { iterations: 2 },
                ..cfg()
            },
            Policy::from_single_path(&router),
        )
        .run(&uni, 35)
        .accepted_throughput();
        assert!(voq > hol, "VOQ {voq} should beat HOL {hol}");
        assert!(
            voq < 0.98,
            "still not a crossbar: routing is the bottleneck"
        );
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let ft = Ftree::new(2, 2, 5).unwrap();
        let router = DModK::new(&ft);
        let config = cfg();
        let stats = Simulator::new(ft.topology(), config, Policy::from_single_path(&router))
            .run(&Workload::uniform_random(10, 0.8), 22);
        assert!(stats.latency_p50 >= 2);
        assert!(stats.latency_p50 <= stats.latency_p95);
        assert!(stats.latency_p95 <= stats.latency_p99);
        assert!(stats.latency_p99 <= stats.latency_max);
    }

    #[test]
    fn drain_conserves_packets() {
        // With drain on, every injected packet is eventually delivered:
        // injected == delivered exactly, even under heavy contention.
        let ft = Ftree::new(2, 1, 5).unwrap();
        let router = DModK::new(&ft);
        let config = SimConfig {
            warmup_cycles: 100,
            measure_cycles: 400,
            drain: true,
            ..SimConfig::default()
        };
        let stats = Simulator::new(ft.topology(), config, Policy::from_single_path(&router))
            .run(&Workload::uniform_random(10, 1.0), 44);
        assert_eq!(stats.leftover_packets, 0, "drain must empty the network");
        assert_eq!(stats.injected_total, stats.delivered_total);
        assert!(stats.injected_total > 0);
    }

    #[test]
    fn no_drain_reports_leftovers_consistently() {
        let ft = Ftree::new(2, 1, 5).unwrap();
        let router = DModK::new(&ft);
        let stats = Simulator::new(ft.topology(), cfg(), Policy::from_single_path(&router))
            .run(&Workload::uniform_random(10, 1.0), 44);
        assert_eq!(
            stats.injected_total,
            stats.delivered_total + stats.leftover_packets,
            "conservation with in-flight remainder"
        );
        assert!(
            stats.leftover_packets > 0,
            "congested run leaves packets queued"
        );
    }

    #[test]
    fn same_seed_same_stats() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 2);
        let w = Workload::permutation(&perm, 0.5);
        let a = Simulator::new(ft.topology(), cfg(), Policy::from_single_path(&router)).run(&w, 11);
        let b = Simulator::new(ft.topology(), cfg(), Policy::from_single_path(&router)).run(&w, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn try_run_rejects_invalid_config() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let bad = SimConfig {
            queue_capacity: 0,
            ..SimConfig::default()
        };
        let err = Simulator::new(ft.topology(), bad, Policy::from_single_path(&router))
            .try_run(&Workload::uniform_random(10, 0.5), 1)
            .unwrap_err();
        assert_eq!(
            err,
            crate::SimError::Config(crate::ConfigError::ZeroQueueCapacity)
        );
    }

    #[test]
    fn midrun_fault_with_retry_reroutes_multipath() {
        // Kill one uplink of switch 0 mid-run. The random multipath policy
        // re-picks on every retransmission, so timed-out packets eventually
        // dodge the dead channel and still get delivered. VOQ arbitration
        // matters here: under HOL FIFO a dead-destined head blocks its whole
        // input queue for a full TTL, collateral timeouts retransmit, and
        // the retry storm feeds on itself. The TTL is also sized so
        // dead-destined packets expire before they clog the shared input
        // buffer (accumulation rate x TTL < queue capacity).
        let ft = Ftree::new(2, 4, 5).unwrap();
        let mp = ObliviousMultipath::new(&ft, SpreadPolicy::Random);
        let perm = patterns::shift(10, 2);
        let config = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 1_500,
            ttl_cycles: 60,
            retry: true,
            retry_limit: 10,
            drain: true,
            arbiter: crate::config::Arbiter::Voq { iterations: 2 },
            ..SimConfig::default()
        };
        let mut faults = crate::FaultSchedule::new();
        faults.kill_channel(400, ft.up_channel(0, 1));
        let stats = Simulator::new(ft.topology(), config, Policy::from_multipath(&mp, true))
            .try_run_with_faults(&Workload::permutation(&perm, 0.6), 9, &faults)
            .unwrap();
        assert!(stats.timed_out_total > 0, "dead uplink must strand packets");
        assert!(stats.retries_total > 0, "retry must retransmit them");
        assert!(stats.delivered_total > 0);
        assert!(stats.conservation_ok(), "{stats:?}");
        // Re-picking among 4 uplinks with 10 retries: abandonment is
        // possible but rare; the bulk must get through.
        assert!(
            stats.delivered_total > stats.injected_total * 9 / 10,
            "delivered {} of {}",
            stats.delivered_total,
            stats.injected_total
        );
    }

    #[test]
    fn midrun_fault_fixed_path_abandons() {
        // A fixed single-path policy re-picks the same dead path forever,
        // so with retries off every timed-out packet on the dead uplink is
        // abandoned — the contrast to the multipath test above.
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 2);
        let config = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 1_500,
            ttl_cycles: 40,
            drain: true,
            ..SimConfig::default()
        };
        // Kill every uplink of switch 0: its flows have no live fixed path.
        let mut faults = crate::FaultSchedule::new();
        for t in 0..4 {
            faults.kill_channel(400, ft.up_channel(0, t));
        }
        let stats = Simulator::new(ft.topology(), config, Policy::from_single_path(&router))
            .try_run_with_faults(&Workload::permutation(&perm, 0.6), 9, &faults)
            .unwrap();
        assert!(stats.abandoned_total > 0, "stranded flows must be dropped");
        assert_eq!(stats.retries_total, 0, "retry is off");
        assert!(stats.delivered_total > 0, "unaffected switches still flow");
        assert!(stats.conservation_ok(), "{stats:?}");
    }

    #[test]
    fn fault_free_run_with_ttl_never_times_out() {
        // A generous TTL on a healthy nonblocking fabric is inert: no
        // timeouts, no retries, no drops — stats match a ttl-off run.
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 4);
        let config = SimConfig {
            ttl_cycles: 10_000,
            retry: true,
            retry_limit: 3,
            ..cfg()
        };
        let stats = Simulator::new(ft.topology(), config, Policy::from_single_path(&router))
            .try_run(&Workload::permutation(&perm, 0.9), 13)
            .unwrap();
        assert_eq!(stats.timed_out_total, 0);
        assert_eq!(stats.retries_total, 0);
        assert_eq!(stats.abandoned_total, 0);
        assert!(stats.accepted_throughput() > 0.85);
    }

    #[test]
    fn voq_islip_respects_dead_channels() {
        // Same stranded-flow scenario under the VOQ/iSLIP arbiter: dead
        // channels grant nothing, TTL cleans up, conservation holds.
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 2);
        let config = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 1_000,
            ttl_cycles: 40,
            drain: true,
            arbiter: crate::config::Arbiter::Voq { iterations: 2 },
            ..SimConfig::default()
        };
        let mut faults = crate::FaultSchedule::new();
        for t in 0..4 {
            faults.kill_channel(300, ft.up_channel(0, t));
        }
        let stats = Simulator::new(ft.topology(), config, Policy::from_single_path(&router))
            .try_run_with_faults(&Workload::permutation(&perm, 0.6), 17, &faults)
            .unwrap();
        assert!(stats.abandoned_total > 0);
        assert!(stats.delivered_total > 0);
        assert!(stats.conservation_ok(), "{stats:?}");
    }

    #[test]
    fn revival_restores_fixed_path_delivery() {
        // Outage and repair on a pinned single path: flows over switch 0
        // strand (and drop) while its uplinks are down, then flow again
        // after the revival — throughput in the final epoch recovers to the
        // pre-outage steady state.
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 2);
        let config = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 2_000,
            ttl_cycles: 40,
            drain: true,
            ..SimConfig::default()
        };
        let mut schedule = crate::ChurnSchedule::new();
        for t in 0..4 {
            schedule.kill_channel(600, ft.up_channel(0, t));
            schedule.revive_channel(1_200, ft.up_channel(0, t));
        }
        let churn = crate::ChurnConfig {
            mode: crate::ReplanMode::Pinned,
            epsilon: 0.1,
            recovery_window: 100,
        };
        let (stats, report) =
            Simulator::new(ft.topology(), config, Policy::from_single_path(&router))
                .try_run_churn(&Workload::permutation(&perm, 0.6), 21, &schedule, &churn)
                .unwrap();
        assert!(stats.abandoned_total > 0, "outage must drop packets");
        assert!(stats.conservation_ok(), "{stats:?}");
        // Epochs: [0, 600) baseline, [600, 1200) outage, [1200, end) repaired.
        assert_eq!(report.epochs.len(), 3);
        assert_eq!(report.epochs[1].downs, 4);
        assert_eq!(report.epochs[2].ups, 4);
        assert!(report.steady_rate > 0.0);
        let outage = &report.epochs[1];
        let repaired = &report.epochs[2];
        assert!(
            repaired.delivered_rate() > outage.delivered_rate(),
            "revival must lift throughput: {} vs {}",
            repaired.delivered_rate(),
            outage.delivered_rate()
        );
        assert!(
            repaired.reconverged_after.is_some(),
            "post-repair epoch must return to steady state: {report:?}"
        );
        assert!(outage.abandoned > 0);
        // Per-epoch counters must tile the run totals (conservation across
        // the revival boundary).
        let (inj, del, ab) = report.totals();
        assert_eq!(inj, stats.injected_total);
        assert_eq!(del, stats.delivered_total);
        assert_eq!(ab, stats.abandoned_total);
        assert_eq!(report.packets_lost(), stats.abandoned_total);
    }

    #[test]
    fn hysteresis_beats_per_cycle_replanning_under_flapping() {
        // A flapping uplink with short stable windows: per-cycle
        // re-planning readmits the link the moment it revives and strands
        // the packets it then routes onto it, while hysteresis with
        // K > the up-interval never trusts it again. Same seed, same
        // schedule — hysteresis must deliver strictly more.
        let ft = Ftree::new(2, 4, 5).unwrap();
        let mp = ObliviousMultipath::new(&ft, SpreadPolicy::Random);
        let perm = patterns::shift(10, 2);
        let config = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 3_000,
            ttl_cycles: 50,
            drain: true,
            arbiter: crate::config::Arbiter::Voq { iterations: 2 },
            ..SimConfig::default()
        };
        // Down 100 cycles, up 20 cycles, repeated.
        let flapper = ft.up_channel(0, 1);
        let mut schedule = crate::ChurnSchedule::new();
        let mut t = 400;
        while t < 3_000 {
            schedule.kill_link(t, ft.topology(), flapper);
            schedule.revive_link(t + 100, ft.topology(), flapper);
            t += 120;
        }
        let run = |mode: crate::ReplanMode| {
            let churn = crate::ChurnConfig {
                mode,
                epsilon: 0.1,
                recovery_window: 50,
            };
            Simulator::new(ft.topology(), config, Policy::from_multipath(&mp, true))
                .try_run_churn(&Workload::permutation(&perm, 0.6), 33, &schedule, &churn)
                .unwrap()
        };
        let (per_cycle, _) = run(crate::ReplanMode::PerCycle);
        let (hysteresis, _) = run(crate::ReplanMode::Hysteresis { k: 200 });
        assert!(per_cycle.conservation_ok());
        assert!(hysteresis.conservation_ok());
        assert!(
            hysteresis.delivered_total > per_cycle.delivered_total,
            "hysteresis {} must beat per-cycle {}",
            hysteresis.delivered_total,
            per_cycle.delivered_total
        );
        assert!(
            hysteresis.timed_out_total < per_cycle.timed_out_total,
            "damping must cut timeouts: {} vs {}",
            hysteresis.timed_out_total,
            per_cycle.timed_out_total
        );
    }

    #[test]
    fn per_cycle_replanning_beats_pinned_routing() {
        // Pinned multipath keeps spraying packets onto the dead link for
        // the whole outage; per-cycle masking stops doing so immediately.
        let ft = Ftree::new(2, 4, 5).unwrap();
        let mp = ObliviousMultipath::new(&ft, SpreadPolicy::Random);
        let perm = patterns::shift(10, 2);
        let config = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 2_000,
            ttl_cycles: 50,
            drain: true,
            arbiter: crate::config::Arbiter::Voq { iterations: 2 },
            ..SimConfig::default()
        };
        let mut schedule = crate::ChurnSchedule::new();
        schedule.kill_link(400, ft.topology(), ft.up_channel(0, 1));
        let run = |mode: crate::ReplanMode| {
            let churn = crate::ChurnConfig {
                mode,
                ..crate::ChurnConfig::default()
            };
            Simulator::new(ft.topology(), config, Policy::from_multipath(&mp, true))
                .try_run_churn(&Workload::permutation(&perm, 0.6), 5, &schedule, &churn)
                .unwrap()
        };
        let (pinned, _) = run(crate::ReplanMode::Pinned);
        let (per_cycle, _) = run(crate::ReplanMode::PerCycle);
        assert!(
            per_cycle.timed_out_total < pinned.timed_out_total,
            "masking must avoid the dead link: {} vs {}",
            per_cycle.timed_out_total,
            pinned.timed_out_total
        );
        assert!(per_cycle.delivered_total >= pinned.delivered_total);
    }

    #[test]
    fn recorded_run_matches_plain_and_conserves_per_epoch() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 2);
        let config = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 1_500,
            ttl_cycles: 40,
            drain: true,
            ..SimConfig::default()
        };
        let mut faults = crate::FaultSchedule::new();
        for t in 0..4 {
            faults.kill_channel(400, ft.up_channel(0, t));
            faults.revive_channel(900, ft.up_channel(0, t));
        }
        let w = Workload::permutation(&perm, 0.6);
        let plain = Simulator::new(ft.topology(), config, Policy::from_single_path(&router))
            .try_run_with_faults(&w, 9, &faults)
            .unwrap();
        let reg = ftclos_obs::Registry::new();
        let recorded = Simulator::new(ft.topology(), config, Policy::from_single_path(&router))
            .try_run_with_faults_recorded(&w, 9, &faults, &reg)
            .unwrap();
        assert_eq!(plain, recorded, "recording must not perturb the run");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("sim.injected"), Some(plain.injected_total));
        assert_eq!(snap.counter("sim.delivered"), Some(plain.delivered_total));
        assert_eq!(snap.counter("sim.abandoned"), Some(plain.abandoned_total));
        assert_eq!(snap.gauge("sim.in_flight"), Some(plain.leftover_packets));
        assert!(snap.spans.iter().any(|s| s.path == "sim.run"));
        // Epochs: one per transition cycle (400 and 900) plus the final
        // "end" mark, each conserving injected = delivered + abandoned +
        // in-flight at its boundary.
        assert_eq!(snap.epochs.len(), 3);
        assert_eq!(snap.epochs[0].label, "cycle=400");
        assert_eq!(snap.epochs[1].label, "cycle=900");
        assert_eq!(snap.epochs[2].label, "end");
        for e in &snap.epochs {
            assert_eq!(
                e.counter("sim.injected"),
                e.counter("sim.delivered") + e.counter("sim.abandoned") + e.gauge("sim.in_flight"),
                "epoch {} must conserve packets",
                e.label
            );
        }
    }

    #[test]
    fn churn_run_without_events_matches_plain_run() {
        // An empty schedule under any replan mode is exactly the fault-free
        // run: one baseline epoch, no transitions, equal stats.
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 4);
        let plain = Simulator::new(ft.topology(), cfg(), Policy::from_single_path(&router))
            .try_run(&Workload::permutation(&perm, 0.9), 13)
            .unwrap();
        let (churned, report) =
            Simulator::new(ft.topology(), cfg(), Policy::from_single_path(&router))
                .try_run_churn(
                    &Workload::permutation(&perm, 0.9),
                    13,
                    &crate::ChurnSchedule::new(),
                    &crate::ChurnConfig::default(),
                )
                .unwrap();
        assert_eq!(plain, churned);
        assert_eq!(report.epochs.len(), 1);
        assert_eq!(report.transitions(), 0);
        assert!(report.steady_rate > 0.0);
    }
}
