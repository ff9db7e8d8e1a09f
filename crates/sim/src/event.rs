//! The event-driven engine: the simulator kernel under the active
//! schedule, touching only components with pending work. Every production
//! simulation runs it; the dense schedule ([`crate::Simulator`]) is its
//! oracle.
//!
//! # Exactness contract
//!
//! [`EventSimulator`] is **bit-for-bit equivalent** to
//! [`crate::Simulator`]: for identical topology, configuration, policy,
//! workload, seed, and fault schedule it produces an identical
//! [`crate::SimStats`] (every field, `channel_busy` included), an identical
//! [`crate::ChurnReport`], and identical [`SimError`]s. Both are one
//! [`Kernel`] — the same phases, the same arena, the same RNG stream — so
//! the speedup comes purely from *where work is looked for*, which is all an
//! [`ActiveSchedule`] decides:
//!
//! * **Active sets** — only channels with queued packets and leaves with
//!   queued injections are visited. The dense schedule's `O(channels)` sweep
//!   per cycle becomes `O(active)`; on a 100k-host fabric with ~76M
//!   directed channels and a few thousand packets in flight, that is the
//!   difference between hours and seconds per cycle. Each set is a
//!   two-level bitset: O(1) insert and remove, ascending walks.
//! * **Grant worklist** — head-of-line arbitration is re-derived from the
//!   requesting queue heads: `(requested output, input)` pairs in a reused
//!   vector, sorted once per cycle and walked in ascending output order,
//!   which is provably the same grant sequence as the dense schedule's full
//!   ascending output sweep.
//! * **Drain fast-forward** — once injection stops, the schedule consults
//!   the [`EventWheel`] (packet ready times, wire release times, TTL
//!   deadlines) and jumps over cycles in which no state can change, as far
//!   as the kernel allows (next fault event, watchdog deadline, drain cap).
//!   The kernel keeps exact watchdog accounting across jumps, so a wedged
//!   run reports [`SimError::Stalled`] at the same cycle with the same
//!   strand graph.
//!
//! Injection cycles are never skipped: Bernoulli injection consumes the
//! seeded RNG stream every cycle at every leaf, and replaying that stream
//! exactly is what keeps the two engines interchangeable under one seed.
//! The dense schedule shares none of the three mechanisms above, which is
//! what makes it their oracle.

use crate::active::ActiveSet;
use crate::error::SimError;
use crate::kernel::{metric_names, Kernel, Names, Run, Schedule};
use crate::state::{QueueSet, SimArena};
use crate::wheel::EventWheel;
use ftclos_obs::Recorder;
use ftclos_topo::{ChannelId, NodeId, Topology};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Event-driven simulator over a [`Topology`] with a path
/// [`crate::Policy`]: every entry point of [`Kernel`], so callers
/// switch engines by switching the type and nothing else. Recorded runs use
/// `evsim.*` names and add activity accounting (`evsim.executed_cycles`,
/// `evsim.skipped_cycles`, `evsim.busy_component_cycles`,
/// `evsim.idle_component_cycles`). See the module docs for the exactness
/// contract.
pub type EventSimulator<'a> = Kernel<'a, ActiveSchedule>;

/// Activity tracking — what makes this engine event-driven. The kernel
/// reports every queue push and pop; all per-cycle work iterates these sets
/// instead of sweeping the whole fabric.
#[derive(Debug, Default)]
pub struct ActiveSchedule {
    /// Channels whose downstream queue holds at least one packet.
    nonempty_q: ActiveSet,
    /// Leaf slots with a non-empty injection queue.
    nonempty_inj: ActiveSet,
    /// Head-of-line worklist, reused every cycle: the packed `request` of
    /// every ready head, sorted.
    requests: Vec<u64>,
    /// Heads exposed mid-walk, re-enqueued under a later output.
    requeued: BinaryHeap<Reverse<u64>>,
    /// The requesting input channels of the output being granted.
    group: Vec<u32>,
    /// Wake-ups for the drain fast-forward.
    wake: EventWheel,
    skipped_cycles: u64,
    executed_cycles: u64,
    busy_component_cycles: u64,
}

/// A head-of-line request for output `want` by input channel `c`, packed
/// so that requests sort by output, then input, as plain integers.
#[inline]
fn request(want: u32, c: u32) -> u64 {
    u64::from(want) << 32 | u64::from(c)
}

/// The requested output of a packed request.
#[inline]
fn output(request: u64) -> u32 {
    (request >> 32) as u32
}

impl Schedule for ActiveSchedule {
    const NAMES: Names = metric_names!("evsim");

    fn queues(&self, _arena: &SimArena, out: &mut Vec<u32>) {
        out.extend(self.nonempty_q.iter());
    }

    fn inject_slots(&self, _arena: &SimArena, out: &mut Vec<u32>) {
        out.extend(self.nonempty_inj.iter());
    }

    /// Only switches fed by at least one non-empty queue can match anything:
    /// the nodes its head packets wait at.
    fn switches(&self, arena: &SimArena, topo: &Topology, out: &mut Vec<u32>) {
        out.extend(
            self.nonempty_q
                .iter()
                .filter_map(|c| arena.queues.get(QueueSet::Channel, c as usize).front())
                .map(|p| NodeId(p.at))
                .filter(|&at| topo.kind(at).is_switch())
                .map(|at| at.0),
        );
        out.sort_unstable();
        out.dedup();
    }

    /// Head-of-line arbitration driven from the requesting queue heads
    /// instead of a full output sweep.
    ///
    /// Equivalence to the dense ascending `for o in 0..num_channels` sweep:
    /// a grant at output `o` needs a ready head whose next hop is `o`, so
    /// outputs nobody requests are no-ops under both schedules. The
    /// worklist processes requested outputs in ascending id order and
    /// re-checks wire/credit/liveness at processing time — the same state
    /// the sweep sees when it reaches `o`, because queue state for `o` only
    /// changes when `o` itself grants. After a grant pops a queue, its new
    /// head (if already ready) can only be granted by a *later* output this
    /// cycle, exactly like the single-pass sweep; it is re-enqueued under
    /// that output when its id is greater than `o`.
    fn hol_arbitrate(run: &mut Run<'_, Self>) -> Result<(), SimError> {
        let (topo, now) = (run.topo, run.now);
        // The round-robin arbiter ranks a requesting channel by its
        // position among `in_channels(dst)`. The CSR audit proves in-ports
        // are dense and ordered, so that position *is* `dst_port` — no
        // O(channels) side table needed.
        let local_in = |c: u32| topo.channel(ChannelId(c)).dst_port as usize;
        // Every ready head's request, sorted by output (each queue head
        // requests exactly one output, so every queue appears at most
        // once). Nothing is decoded here: a blocked head requests again
        // every cycle, and most requests meet a busy output.
        let mut requests = std::mem::take(&mut run.sched.requests);
        requests.clear();
        for c in run.sched.nonempty_q.iter() {
            let Some(p) = run.arena.queues.get(QueueSet::Channel, c as usize).front() else {
                continue;
            };
            if p.ready_at > now {
                continue;
            }
            let Some(want) = run.next_hop(p) else {
                continue; // defensive: delivered packets never queue
            };
            requests.push(request(want.0, c));
        }
        requests.sort_unstable();
        let mut requeued = std::mem::take(&mut run.sched.requeued);
        requeued.clear();
        let mut group = std::mem::take(&mut run.sched.group);
        let mut rest = &requests[..];
        // Walk the requested outputs in ascending order, merging the sorted
        // requests with the re-enqueued heads.
        while let Some(o) = [rest.first(), requeued.peek().map(|r| &r.0)]
            .into_iter()
            .flatten()
            .map(|&r| output(r))
            .min()
        {
            let (reqs, later) = rest.split_at(rest.partition_point(|&r| output(r) == o));
            rest = later;
            group.clear();
            // The low half of a request is its input channel.
            group.extend(reqs.iter().map(|&r| r as u32));
            while let Some(Reverse(r)) = requeued.peek().filter(|r| output(r.0) == o).copied() {
                requeued.pop();
                group.push(r as u32);
            }
            if !run.wire_free(o as usize) {
                continue;
            }
            // The output's one channel record read: its source switch for
            // the arbiter, its end node for credit and the move.
            let out = ChannelId(o);
            let ch = topo.channel(out);
            // Injection links (leaf sources) are granted by the kernel.
            if topo.kind(ch.src).is_leaf() || !run.credit(o as usize, ch.dst) {
                continue;
            }
            let n_in = topo.in_channels(ch.src).len();
            if n_in == 0 {
                continue;
            }
            let start = run.arena.rr(o as usize) as usize % n_in;
            // Round-robin winner among the heads waiting at the output's
            // switch (mirrors the sweep scanning `in_channels(src(o))`; a
            // head carries the node it waits at): the one whose local input
            // index comes first scanning from the grant pointer. Input
            // indices are distinct per switch, so the minimum is unique.
            let queues = &run.arena.queues;
            let Some((rank, win)) = group
                .iter()
                .filter(|&&c| {
                    let head = queues.get(QueueSet::Channel, c as usize).front();
                    head.is_some_and(|p| p.at == ch.src.0)
                })
                .map(|&c| ((local_in(c) + n_in - start) % n_in, c))
                .min_by_key(|&(rank, _)| rank)
            else {
                continue;
            };
            if !run.head_wants(win as usize, out) {
                return Err(SimError::invariant(
                    "worklist head changed before its grant",
                ));
            }
            let next_rr = ((start + rank + 1) % n_in) as u32;
            run.grant_head(win as usize, o as usize, ch.dst, next_rr)?;
            // The popped queue's next head may request a later output this
            // cycle (earlier outputs already passed; the walk keeps only
            // same-switch requests, as above).
            let queue = run.arena.queues.get(QueueSet::Channel, win as usize);
            if let Some(np) = queue.front() {
                if let Some(nwant) = run.next_hop(np) {
                    if np.ready_at <= now && nwant.0 > o {
                        requeued.push(Reverse(request(nwant.0, win)));
                    }
                }
            }
        }
        run.sched.requests = requests;
        run.sched.requeued = requeued;
        run.sched.group = group;
        Ok(())
    }

    fn queue_filled(&mut self, c: usize) {
        self.nonempty_q.insert(c as u32);
    }

    fn queue_emptied(&mut self, c: usize) {
        self.nonempty_q.remove(c as u32);
    }

    fn inject_filled(&mut self, slot: usize) {
        self.nonempty_inj.insert(slot as u32);
    }

    fn inject_emptied(&mut self, slot: usize) {
        self.nonempty_inj.remove(slot as u32);
    }

    fn wake(&mut self, at: u64) {
        self.wake.push(at);
    }

    /// Drain fast-forward: every cycle between an idle one and the next
    /// wake-up is a provably identical no-op — queue state, RNG, pointers
    /// and wires are untouched between wake-ups once injection stops — so
    /// jump to the wake-up, or to the kernel's limit if that comes first.
    fn next_cycle(&mut self, now: u64, idle_until: Option<u64>) -> u64 {
        self.executed_cycles += 1;
        self.busy_component_cycles += (self.nonempty_q.len() + self.nonempty_inj.len()) as u64;
        let Some(limit) = idle_until else {
            return now + 1;
        };
        let wake = self.wake.next_at_or_after(now + 1).unwrap_or(limit);
        let next = wake.min(limit).max(now + 1);
        self.skipped_cycles += next - (now + 1);
        next
    }

    fn record_activity<R: Recorder>(&self, rec: &R, components: u64) {
        rec.add("evsim.executed_cycles", self.executed_cycles);
        rec.add("evsim.skipped_cycles", self.skipped_cycles);
        rec.add("evsim.busy_component_cycles", self.busy_component_cycles);
        rec.add(
            "evsim.idle_component_cycles",
            self.executed_cycles
                .saturating_mul(components)
                .saturating_sub(self.busy_component_cycles),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Arbiter, ChurnConfig, ChurnSchedule, ConfigError, FaultSchedule, Policy, ReplanMode,
        SimConfig, SimStats, Simulator, Workload,
    };
    use ftclos_obs::Noop;
    use ftclos_routing::{DModK, ObliviousMultipath, YuanDeterministic};
    use ftclos_topo::Ftree;
    use ftclos_traffic::patterns;

    fn cfg() -> SimConfig {
        SimConfig {
            warmup_cycles: 200,
            measure_cycles: 1_000,
            ..SimConfig::default()
        }
    }

    /// Run both engines on the same inputs and require exact equality.
    fn assert_engines_agree(
        topo: &Topology,
        config: SimConfig,
        policy: &Policy,
        w: &Workload,
        seed: u64,
        faults: &FaultSchedule,
    ) -> SimStats {
        let oracle = Simulator::new(topo, config, policy.clone())
            .try_run_with_faults(w, seed, faults)
            .unwrap();
        let event = EventSimulator::new(topo, config, policy.clone())
            .try_run_with_faults(w, seed, faults)
            .unwrap();
        assert_eq!(oracle, event, "engines diverged");
        event
    }

    #[test]
    fn matches_cycle_engine_on_permutations() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let policy = Policy::from_single_path(&router);
        let perm = patterns::shift(10, 3);
        for rate in [0.2, 0.9] {
            for arbiter in [Arbiter::HolFifo, Arbiter::Voq { iterations: 2 }] {
                let config = SimConfig { arbiter, ..cfg() };
                let stats = assert_engines_agree(
                    ft.topology(),
                    config,
                    &policy,
                    &Workload::permutation(&perm, rate),
                    7,
                    &FaultSchedule::new(),
                );
                assert!(stats.delivered_total > 0);
            }
        }
    }

    #[test]
    fn matches_cycle_engine_on_congested_uniform_traffic() {
        // DModK on a thin fabric congests hard: deep queues, HOL blocking,
        // leftover packets — the adversarial case for grant-order replay.
        let ft = Ftree::new(2, 1, 5).unwrap();
        let router = DModK::new(&ft);
        let policy = Policy::from_single_path(&router);
        let stats = assert_engines_agree(
            ft.topology(),
            cfg(),
            &policy,
            &Workload::uniform_random(10, 1.0),
            44,
            &FaultSchedule::new(),
        );
        assert!(stats.leftover_packets > 0, "congestion expected");
    }

    #[test]
    fn matches_cycle_engine_with_drain_and_multiflit() {
        let ft = Ftree::new(2, 1, 5).unwrap();
        let router = DModK::new(&ft);
        let policy = Policy::from_single_path(&router);
        let config = SimConfig {
            warmup_cycles: 100,
            measure_cycles: 400,
            drain: true,
            packet_flits: 3,
            ..SimConfig::default()
        };
        let stats = assert_engines_agree(
            ft.topology(),
            config,
            &policy,
            &Workload::uniform_random(10, 1.0),
            44,
            &FaultSchedule::new(),
        );
        assert_eq!(stats.leftover_packets, 0, "drain must empty the network");
    }

    #[test]
    fn matches_cycle_engine_under_faults_retry_and_spreading() {
        // Random multipath spreading consumes RNG on every pick; faults
        // plus TTL retries exercise the timeout sweep ordering.
        let ft = Ftree::new(2, 4, 5).unwrap();
        let mp = ObliviousMultipath::new(&ft);
        let policy = Policy::from_multipath(&mp, true);
        let perm = patterns::shift(10, 2);
        let config = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 1_500,
            ttl_cycles: 60,
            retry: true,
            retry_limit: 10,
            drain: true,
            arbiter: Arbiter::Voq { iterations: 2 },
            ..SimConfig::default()
        };
        let mut faults = FaultSchedule::new();
        faults.kill_channel(400, ft.up_channel(0, 1));
        let stats = assert_engines_agree(
            ft.topology(),
            config,
            &policy,
            &Workload::permutation(&perm, 0.6),
            9,
            &faults,
        );
        assert!(stats.timed_out_total > 0);
        assert!(stats.retries_total > 0);
        assert!(stats.conservation_ok());
    }

    #[test]
    fn matches_cycle_engine_under_churn_modes() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let mp = ObliviousMultipath::new(&ft);
        let perm = patterns::shift(10, 2);
        let config = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 2_000,
            ttl_cycles: 50,
            drain: true,
            arbiter: Arbiter::Voq { iterations: 2 },
            ..SimConfig::default()
        };
        let mut schedule = ChurnSchedule::new();
        schedule.kill_link(400, ft.topology(), ft.up_channel(0, 1));
        schedule.revive_link(900, ft.topology(), ft.up_channel(0, 1));
        for mode in [
            ReplanMode::Pinned,
            ReplanMode::PerCycle,
            ReplanMode::Hysteresis { k: 150 },
        ] {
            let churn = ChurnConfig {
                mode,
                epsilon: 0.1,
                recovery_window: 50,
            };
            let w = Workload::permutation(&perm, 0.6);
            let (oracle, oracle_report) =
                Simulator::new(ft.topology(), config, Policy::from_multipath(&mp, true))
                    .try_run_churn_recorded(&w, 33, &schedule, &churn, &Noop)
                    .unwrap();
            let (event, event_report) =
                EventSimulator::new(ft.topology(), config, Policy::from_multipath(&mp, true))
                    .try_run_churn_recorded(&w, 33, &schedule, &churn, &Noop)
                    .unwrap();
            assert_eq!(oracle, event, "stats diverged under {mode:?}");
            assert_eq!(oracle_report, event_report, "report diverged: {mode:?}");
        }
    }

    #[test]
    fn matches_cycle_engine_stall_diagnosis() {
        // Pinned valley routes wedge the fabric; both engines must return
        // the identical Stalled error (cycle, strands, wait cycle).
        let ft = Ftree::new(1, 1, 4).unwrap();
        let routes = valley_routes(&ft);
        let policy = || {
            Policy::from_pinned(
                ft.topology(),
                routes.iter().map(|(s, d, p)| (*s, *d, p.as_slice())),
            )
            .unwrap()
        };
        let pairs: Vec<(u32, u32)> = routes.iter().map(|(s, d, _)| (*s, *d)).collect();
        let w = Workload::fixed_pairs(4, &pairs, 1.0);
        let config = SimConfig {
            warmup_cycles: 0,
            measure_cycles: 200,
            queue_capacity: 2,
            drain: true,
            stall_watchdog: 64,
            ..SimConfig::default()
        };
        let oracle = Simulator::new(ft.topology(), config, policy())
            .try_run(&w, 0xDEAD)
            .unwrap_err();
        let event = EventSimulator::new(ft.topology(), config, policy())
            .try_run(&w, 0xDEAD)
            .unwrap_err();
        assert_eq!(oracle, event);
        assert!(matches!(event, SimError::Stalled(_)));
    }

    #[test]
    fn drain_fast_forward_skips_cycles_and_hits_the_cap_stall() {
        // With the watchdog too long to fire before the drain cap, the
        // wedged run must stall out at exactly the cap cycle — and the
        // event engine must get there by jumping, not spinning.
        let ft = Ftree::new(1, 1, 4).unwrap();
        let routes = valley_routes(&ft);
        let policy = Policy::from_pinned(
            ft.topology(),
            routes.iter().map(|(s, d, p)| (*s, *d, p.as_slice())),
        )
        .unwrap();
        let pairs: Vec<(u32, u32)> = routes.iter().map(|(s, d, _)| (*s, *d)).collect();
        let w = Workload::fixed_pairs(4, &pairs, 1.0);
        let config = SimConfig {
            warmup_cycles: 0,
            measure_cycles: 50,
            queue_capacity: 2,
            drain: true,
            stall_watchdog: 2 * SimConfig::DRAIN_CAP,
            ..SimConfig::default()
        };
        let reg = ftclos_obs::Registry::new();
        let err = EventSimulator::new(ft.topology(), config, policy)
            .try_run_with_faults_recorded(&w, 0xDEAD, &FaultSchedule::new(), &reg)
            .unwrap_err();
        let SimError::Stalled(report) = err else {
            panic!("expected Stalled at the drain cap, got {err}");
        };
        assert_eq!(report.cycle, 50 + SimConfig::DRAIN_CAP);
        let snap = reg.snapshot();
        let skipped = snap.counter("evsim.skipped_cycles").unwrap_or(0);
        assert!(
            skipped > SimConfig::DRAIN_CAP / 2,
            "fast-forward must skip most of the drain: {skipped}"
        );
        let executed = snap.counter("evsim.executed_cycles").unwrap_or(0);
        assert!(
            executed < 1_000,
            "wedged drain should execute few real cycles: {executed}"
        );
    }

    #[test]
    fn recorded_run_flushes_evsim_counters_and_epochs() {
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
        let mut faults = FaultSchedule::new();
        for t in 0..4 {
            faults.kill_channel(400, ft.up_channel(0, t));
            faults.revive_channel(900, ft.up_channel(0, t));
        }
        let w = Workload::permutation(&perm, 0.6);
        let plain = EventSimulator::new(ft.topology(), config, Policy::from_single_path(&router))
            .try_run_with_faults(&w, 9, &faults)
            .unwrap();
        let reg = ftclos_obs::Registry::new();
        let recorded =
            EventSimulator::new(ft.topology(), config, Policy::from_single_path(&router))
                .try_run_with_faults_recorded(&w, 9, &faults, &reg)
                .unwrap();
        assert_eq!(plain, recorded, "recording must not perturb the run");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("evsim.injected"), Some(plain.injected_total));
        assert_eq!(snap.counter("evsim.delivered"), Some(plain.delivered_total));
        assert_eq!(snap.counter("evsim.abandoned"), Some(plain.abandoned_total));
        assert_eq!(snap.gauge("evsim.in_flight"), Some(plain.leftover_packets));
        assert!(snap.spans.iter().any(|s| s.path == "evsim.run"));
        assert!(snap.counter("evsim.busy_component_cycles").unwrap_or(0) > 0);
        assert_eq!(
            snap.gauge("evsim.busy_bytes"),
            Some(plain.channel_busy.state_bytes() as u64)
        );
        assert_eq!(snap.epochs.len(), 3);
        assert_eq!(snap.epochs[0].label, "cycle=400");
        assert_eq!(snap.epochs[1].label, "cycle=900");
        assert_eq!(snap.epochs[2].label, "end");
        for e in &snap.epochs {
            assert_eq!(
                e.counter("evsim.injected"),
                e.counter("evsim.delivered")
                    + e.counter("evsim.abandoned")
                    + e.gauge("evsim.in_flight"),
                "epoch {} must conserve packets",
                e.label
            );
        }
    }

    #[test]
    fn nan_rate_is_a_typed_config_error_under_both_schedules() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let policy = Policy::from_single_path(&YuanDeterministic::new(&ft).unwrap());
        let w = Workload::uniform_random(10, f64::NAN);
        let nan = Err(SimError::Config(ConfigError::NanRate));
        assert_eq!(
            Simulator::new(ft.topology(), cfg(), policy.clone()).try_run(&w, 1),
            nan
        );
        assert_eq!(
            EventSimulator::new(ft.topology(), cfg(), policy).try_run(&w, 1),
            nan
        );
    }

    /// Hand-built "valley" routes on `ftree(1, 1, 4)` (the witness-module
    /// construction): route `v -> (v+3) % 4` walks three arcs of the
    /// 8-channel up/down cycle, realizing a circular credit wait.
    fn valley_routes(ft: &Ftree) -> Vec<(u32, u32, Vec<ChannelId>)> {
        let r = 4;
        (0..r)
            .map(|v| {
                let w = (v + 3) % r;
                let mut channels = vec![ft.leaf_up_channel(v, 0)];
                for k in 0..3 {
                    channels.push(ft.up_channel((v + k) % r, 0));
                    channels.push(ft.down_channel(0, (v + k + 1) % r));
                }
                channels.push(ft.leaf_down_channel(w, 0));
                (v as u32, w as u32, channels)
            })
            .collect()
    }
}
