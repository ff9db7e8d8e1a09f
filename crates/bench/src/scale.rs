//! E20–E27 — the claims that need a big fabric or a second implementation
//! to compare against. Wall-clock limits are the rows' `budget_s` (and
//! E25's three [`Ctx::within`] parts), checked by the runner.
//!
//! * **E20** — the complete two-pair search (the Lemma 1 census of all
//!   1260 paths of `ftree(4+16, 9)`, counted from Theorem 3's top-choice
//!   rule) and an enumeration that routes and checks every two-pair pattern
//!   (~794k) agree on that fabric and on one blocking and one nonblocking
//!   smoke fabric, and the search is at least 10× faster.
//! * **E21** — the same engine work under a live recorder: same verdict,
//!   and the spans and counters of every layer show up.
//! * **E22** — channel-dependency deadlock analysis (the up*/down*
//!   certificate of arxiv 2503.04583): Theorem 3 and d-mod-k routing on
//!   `ftree(16+256, 625)` are deadlock-free with zero valley turns, and
//!   Theorem 3 routing on the 1,048,576-host `ftree(32+1024, 32768)` is
//!   deadlock-free with 1,099,577,688,064 dependencies, counted in under a
//!   second (the fabric build is timed apart). Both routers declare a
//!   top-choice rule, so each count is read off the rule, not swept; the
//!   valley straw-man is swept and still yields its deterministic witness
//!   cycle.
//! * **E23** — adversarial fault campaigns on the same fabric: exhaustive
//!   k = 2 certification over all 256 top switches (32 897 fault sets),
//!   then a 64-wave randomized campaign (16 sets per wave, 2 cable + 1 top
//!   switch faults each) with every killer shrunk and re-verified 1-minimal.
//! * **E24** — the event engine replays the cycle engine exactly (full
//!   `SimStats`) at 10k hosts while clearing ≥10× its host-cycles/sec, then
//!   completes a 110 808-host run on the recursive n = 18 fabric.
//! * **E25** — sparse lazy state: the recursive n = 24 fabric (345 600
//!   hosts, ~415M channels) and the n = 32 one (1 081 344 hosts, ~2.3G
//!   channels) build, route and simulate touching under a tenth of their
//!   channels; then the first million-host run. A peak-RSS ceiling turns
//!   any return to dense `vec![...; num_channels]` state into a failed
//!   claim instead of an OOM.
//! * **E26** — min-congestion unsplittable routing (arxiv 2505.03908)
//!   head-to-head at 10k hosts: the repaired plan, warm-started from every
//!   exact baseline, matches or beats Theorem 3, d-mod-k, s-mod-k and
//!   NONBLOCKINGADAPTIVE on max link load for every pattern of the
//!   adversarial suite — all measured by the core engine's load scratch —
//!   and strictly beats fault-aware d-mod-k with one dead top switch.
//! * **E27** — Theorems 2 and 3 at a million hosts: on `ftree(32+1024,
//!   32768)` (1,048,576 hosts, 69M channels) Yuan's routing is nonblocking,
//!   and on `ftree(32+1023, 32768)` d-mod-k blocks with a witness that
//!   replays as a contending two-pair permutation. Both verdicts are Lemma 1
//!   by counting (the census read off each router's top-choice rule). Both
//!   fabrics are implicit — node kinds only, 2.2 MB each — so the row's RSS
//!   growth (peak over its starting RSS) stays under 100 MiB; a stored
//!   million-host ftree (1.3 GiB) fails it.

use crate::{sim_cfg, Ctx, RowResult, SEED};
use ftclos_core::search::find_blocking_two_pair;
use ftclos_core::{
    analyze_router_with, cable_universe, cdg_of_router_with, certify_exhaustive_with,
    lemma1_audit_with, run_randomized_with, top_switch_universe, AdaptiveRoutability,
    CampaignConfig, CampaignProperty, ContentionEngine, ContentionScratch, FaultElement,
    ValleyRouter,
};
use ftclos_flowsim::standard_suite;
use ftclos_obs::Noop;
use ftclos_routing::{
    route_all, CongestionConfig, DModK, FaultAware, FtreeCandidates, MinCongestion,
    NonblockingAdaptive, PatternRouter, RouteAssignment, RoutingError, SModK, SinglePathRouter,
    YuanDeterministic, YuanRecursive,
};
use ftclos_sim::{EventSimulator, FaultSchedule, Policy, Simulator, Workload};
use ftclos_topo::{FaultSet, FaultyView, Ftree, RecursiveNonblocking, Topology};
use ftclos_traffic::enumerate::TwoPairs;
use ftclos_traffic::{patterns, Permutation, SdPair};
use std::error::Error;

/// The 10,000-host fabric E22–E24 and E26 share: `ftree(16+256, 625)`,
/// 340k directed channels.
fn big_ftree(ctx: &mut Ctx) -> Result<Ftree, Box<dyn Error>> {
    ctx.result_line("fabric", "ftree(16+256, 625)")?;
    Ok(Ftree::new(16, 256, 625)?)
}

/// Does some two-pair pattern of `router` contend? Every one of the
/// `O(p⁴)` patterns routed and checked, the sweep Lemma 1 makes redundant.
fn enumerate_two_pairs<R: SinglePathRouter>(router: &R) -> Result<bool, RoutingError> {
    let mut scratch = ContentionScratch::default();
    for perm in TwoPairs::new(router.ports(), true) {
        if scratch
            .find_contention(&route_all(router, &perm)?)
            .is_some()
        {
            return Ok(true);
        }
    }
    Ok(false)
}

pub fn e20(ctx: &mut Ctx) -> RowResult {
    ctx.banner(
        "E20",
        "Lemma 1 two-pair search vs enumerating every two-pair pattern",
    )?;
    let ft = Ftree::new(4, 16, 9)?;
    let yuan = YuanDeterministic::new(&ft)?;
    // The Yuan routing is nonblocking, so both searches scan their whole
    // search space.
    let (enumerated_s, enumerated) = ctx.timed("enumeration", |_| enumerate_two_pairs(&yuan));
    ctx.check(
        !enumerated?,
        "enumeration: ftree(4+16, 9) with Theorem 3 routing is nonblocking",
    )?;
    let (engine_s, engine) = ctx.timed("engine_sweep", |_| find_blocking_two_pair(&yuan));
    ctx.check(
        engine.is_nonblocking(),
        "engine sweep: same fabric, same verdict",
    )?;
    let speedup = enumerated_s / engine_s;
    ctx.result_line("speedup", format!("{speedup:.1}x"))?;
    ctx.check(speedup >= 10.0, "engine two-pair sweep is >= 10x faster")?;

    // Agreement smoke: one blocking and one nonblocking fabric, engine and
    // enumeration must concur (the full differential lives in the proptests).
    let small = Ftree::new(2, 2, 5)?;
    let dmodk = DModK::new(&small);
    ctx.check(
        find_blocking_two_pair(&dmodk).found_blocking() && enumerate_two_pairs(&dmodk)?,
        "smoke: both searches find blocking on ftree(2+2, 5) d-mod-k",
    )?;
    let clean = Ftree::new(2, 4, 5)?;
    let clean_yuan = YuanDeterministic::new(&clean)?;
    ctx.check(
        find_blocking_two_pair(&clean_yuan).is_nonblocking() && !enumerate_two_pairs(&clean_yuan)?,
        "smoke: both searches clear ftree(2+4, 5) Theorem 3 routing",
    )?;
    Ok(())
}

pub fn e21(ctx: &mut Ctx) -> RowResult {
    ctx.banner(
        "E21",
        "recording: same verdict under a live recorder, every layer visible",
    )?;
    // The plain entry points route through the no-op recorder; here the
    // same build + audit runs with the ledger's live registry.
    let ft = Ftree::new(4, 16, 9)?;
    let yuan = YuanDeterministic::new(&ft)?;
    let reg = ctx.recorder();
    let recorded_clean = ContentionEngine::new_with(&yuan, reg)?
        .lemma1_violation_with(reg)
        .is_none();
    let snap = reg.snapshot();
    ctx.check(
        recorded_clean,
        "recorded engine: same nonblocking verdict under a live recorder",
    )?;
    ctx.check(
        snap.counter("engine.channels_scanned").unwrap_or(0) > 0
            && snap.spans.iter().any(|s| s.name == "arena.build"),
        "recorded runs populated spans and counters",
    )?;
    Ok(())
}

pub fn e22(ctx: &mut Ctx) -> RowResult {
    ctx.banner("E22", "channel-dependency deadlock analysis at scale")?;
    let rec = ctx.recorder();
    let big = big_ftree(ctx)?;
    let yuan = analyze_router_with(big.topology(), &YuanDeterministic::new(&big)?, rec);
    ctx.result_line("yuan_cdg_deps", yuan.num_deps)?;
    ctx.check(
        yuan.is_free() && yuan.valley_turns == 0,
        "Theorem 3 routing on ftree(16+256, 625) is deadlock-free, no valleys",
    )?;
    let dmodk = analyze_router_with(big.topology(), &DModK::new(&big), rec);
    ctx.result_line("dmodk_cdg_deps", dmodk.num_deps)?;
    ctx.check(
        dmodk.is_free() && dmodk.valley_turns == 0,
        "d-mod-k routing on ftree(16+256, 625) is deadlock-free, no valleys",
    )?;
    drop(big);
    // A million hosts: the fabric is built, the dependencies are counted.
    let (build_s, ft) = ctx.timed("e22.build", |_| Ftree::new(32, 1024, 32_768));
    let ft = ft?;
    ctx.result_line("fabric", "ftree(32+1024, 32768)")?;
    ctx.result_line("build_s", format!("{build_s:.2}"))?;
    let yuan = YuanDeterministic::new(&ft)?;
    ctx.within("e22.count", 1.0, |ctx| {
        let analysis = analyze_router_with(ft.topology(), &yuan, rec);
        ctx.result_line("yuan_cdg_deps", analysis.num_deps)?;
        ctx.check(
            analysis.is_free() && analysis.num_deps == 1_099_577_688_064,
            "Theorem 3 routing on ftree(32+1024, 32768) (2^20 hosts) is deadlock-free, \
             1,099,577,688,064 dependencies",
        )?;
        Ok(())
    })?;
    drop(ft);
    // Witness smoke: the intentionally broken valley router must be caught
    // with the full-length deterministic cycle the injection harness pins.
    let vft = Ftree::new(1, 1, 4)?;
    let valley =
        cdg_of_router_with(vft.topology(), &ValleyRouter::new(&vft), &Noop).check_with(&Noop);
    let witness_len = valley.verdict.witness().map_or(0, <[_]>::len);
    ctx.result_line("valley_witness_len", witness_len)?;
    ctx.check(
        !valley.is_free() && witness_len == 8,
        "valley straw-man on ftree(1+1, 4) yields its 8-channel witness",
    )?;
    Ok(())
}

pub fn e23(ctx: &mut Ctx) -> RowResult {
    ctx.banner("E23", "adversarial fault campaigns at scale")?;
    let big = big_ftree(ctx)?;
    let routability = AdaptiveRoutability::new(&big);
    let top_ids = top_switch_universe(big.topology());
    let tops: Vec<FaultElement> = top_ids.iter().copied().map(FaultElement::Switch).collect();
    let cert = certify_exhaustive_with(&routability, &tops, 2, &Noop);
    ctx.result_line("certify_sets", cert.sets_total)?;
    ctx.check(
        cert.certified() && cert.sets_total == 32_897,
        "routability on ftree(16+256, 625) certified 2-fault tolerant over all 256 tops",
    )?;
    let cfg = CampaignConfig {
        seed: SEED,
        waves: 64,
        wave_size: 16,
        links_per_set: 2,
        switches_per_set: 1,
        shrink: true,
    };
    let cables = cable_universe(big.topology());
    let report = run_randomized_with(
        &routability,
        &cables,
        &top_ids,
        &cfg,
        None,
        &Noop,
        &mut |_| Ok(true),
    )?;
    ctx.result_line("sets_evaluated", report.sets_evaluated)?;
    ctx.result_line("killers", report.killers.len())?;
    ctx.check(
        report.waves_done == cfg.waves && !report.killers.is_empty(),
        "randomized campaign completes 64 waves and surfaces killers",
    )?;
    // Re-verify every shrunk killer independently: it must still violate
    // the property, and dropping any single fault must restore it.
    let mut shrink_ok = true;
    for k in &report.killers {
        let min = k.minimal.as_ref().unwrap_or(&k.faults);
        shrink_ok &= !routability.judge(min).holds;
        for i in 0..min.len() {
            shrink_ok &= routability.judge(&min.without(i)).holds;
        }
    }
    let minimal_killers = report.criticality().minimal_killers;
    ctx.result_line("minimal_killers", minimal_killers)?;
    ctx.check(
        shrink_ok && minimal_killers > 0,
        "every shrunk killer is 1-minimal (violates; every single removal restores)",
    )?;
    Ok(())
}

pub fn e24(ctx: &mut Ctx) -> RowResult {
    ctx.banner(
        "E24",
        "event-driven simulator: 10k-host differential, 100k-host run",
    )?;
    // The cycle engine scans every switch output every cycle (340k
    // channels here); the event engine only touches components with
    // pending work and must replay the cycle engine's semantics exactly —
    // the full `SimStats`, per-channel busy vector included.
    let big = big_ftree(ctx)?;
    let cfg = sim_cfg(5, 15);
    let perm = patterns::shift(big.num_leaves() as u32, 3);
    let policy = Policy::from_assignment(&route_all(&YuanDeterministic::new(&big)?, &perm)?);
    let w = Workload::permutation(&perm, 0.05);
    let (cycle_s, cycle_stats) = ctx.timed("cycle_engine", |_| {
        Simulator::new(big.topology(), cfg, policy.clone()).try_run(&w, SEED)
    });
    let (event_s, event_stats) = ctx.timed("event_engine", |_| {
        EventSimulator::new(big.topology(), cfg, policy.clone()).try_run(&w, SEED)
    });
    let event_stats = event_stats?;
    ctx.check(
        cycle_stats? == event_stats,
        "event engine replays the cycle engine exactly at 10k hosts",
    )?;
    ctx.check(
        event_stats.delivered_total > 0 && event_stats.conservation_ok(),
        "10k-host run delivers packets and conserves them",
    )?;
    // Same hosts and cycles on both sides, so the host-cycles/sec ratio is
    // the inverse wall-time ratio.
    let speedup = cycle_s / event_s;
    ctx.result_line("speedup", format!("{speedup:.1}x"))?;
    ctx.check(
        speedup >= 10.0,
        "event engine clears >= 10x the cycle engine's host-cycles/sec",
    )?;

    // The recursive three-level construction at n = 18 exposes
    // n⁴ + n³ = 110 808 host ports; the cycle engine cannot even start
    // here (its per-cycle channel scan alone would dwarf the budget).
    let net = RecursiveNonblocking::new(18)?;
    ctx.result_line("recursive_hosts", net.num_leaves())?;
    ctx.result_line("recursive_channels", net.topology().num_channels())?;
    ctx.result_line("topo_bytes", net.topology().memory_bytes())?;
    ctx.check(
        net.num_leaves() > 100_000,
        "recursive n=18 fabric exposes more than 100k host ports",
    )?;
    let router = YuanRecursive::new(&net);
    event_run(ctx, net.topology(), &router, 7, 0.02, "100k-host")?;
    Ok(())
}

/// Route `shift:k` over every port of `router`, run it on the event engine
/// at injection rate `rate`, and claim the `what` run delivered and
/// conserved its packets; returns how many channels the paged arena
/// touched. The run is recorded: the touched-state gauges ride the same
/// `--trace` plumbing users see, and recording is differentially proven not
/// to perturb the run.
fn event_run(
    ctx: &mut Ctx,
    topo: &Topology,
    router: &impl SinglePathRouter,
    k: u32,
    rate: f64,
    what: &str,
) -> Result<usize, Box<dyn Error>> {
    let perm = patterns::shift(router.ports(), k);
    let policy = Policy::from_assignment(&route_all(router, &perm)?);
    let mut sim = EventSimulator::new(topo, sim_cfg(5, 15), policy);
    let w = Workload::permutation(&perm, rate);
    let stats =
        sim.try_run_with_faults_recorded(&w, SEED, &FaultSchedule::new(), ctx.recorder())?;
    ctx.check(
        stats.delivered_total > 0 && stats.conservation_ok(),
        &format!("{what} event run delivers packets and conserves them"),
    )?;
    Ok(sim.into_arena().touched_channels())
}

/// The n = 24 recursive fabric has ~415M directed channels and n = 32
/// ~2.3G; dense per-channel state (queues, pointers, wires, liveness) would
/// need tens of gigabytes before the first packet moves. The topology is
/// implicit (it holds node kinds only), and with the paged arena only pages
/// a packet actually crosses materialize. The run routes `shift:<shift>`,
/// claims more than `min_hosts` ports, and prefixes its result keys with
/// `key_prefix`.
fn e25_recursive(
    ctx: &mut Ctx,
    n: usize,
    shift: u32,
    min_hosts: (usize, &str),
    key_prefix: &str,
) -> RowResult {
    let net = RecursiveNonblocking::new(n)?;
    let channels = net.topology().num_channels();
    let key = |k: &str| format!("{key_prefix}{k}");
    ctx.result_line(&key("fabric"), format!("recursive({n})"))?;
    ctx.result_line(&key("hosts"), net.num_leaves())?;
    ctx.result_line(&key("channels"), channels)?;
    ctx.result_line(&key("topo_bytes"), net.topology().memory_bytes())?;
    let (floor, floor_text) = min_hosts;
    ctx.check(
        net.num_leaves() > floor,
        &format!("recursive n={n} fabric exposes more than {floor_text} host ports"),
    )?;
    let router = YuanRecursive::new(&net);
    let what = format!("{}k-host", net.num_leaves() / 1000);
    let touched = event_run(ctx, net.topology(), &router, shift, 0.02, &what)?;
    ctx.result_line(&key("touched_channels"), touched)?;
    ctx.check(
        touched > 0 && touched < channels / 10,
        "paged arena touches fewer than a tenth of the channels",
    )?;
    Ok(())
}

/// A two-level ftree carries 2^20 ports with far fewer switches than
/// recursive n >= 35 would need, so it is the cheapest million-host fabric;
/// d-mod-k keeps routing closed-form at this scale.
fn e25_million(ctx: &mut Ctx) -> RowResult {
    let ft = Ftree::new(16, 16, 65_536)?;
    ctx.result_line("million_fabric", "ftree(16+16, 65536)")?;
    ctx.result_line("million_hosts", ft.num_leaves())?;
    ctx.check(
        ft.num_leaves() >= 1 << 20,
        "fabric exposes at least 2^20 hosts",
    )?;
    let router = DModK::new(&ft);
    event_run(ctx, ft.topology(), &router, 13, 0.01, "million-host")?;
    Ok(())
}

pub fn e27(ctx: &mut Ctx) -> RowResult {
    ctx.banner(
        "E27",
        "Theorems 2 and 3 at a million hosts, Lemma 1 by counting",
    )?;
    // Start this row's peak from what is resident now and hold the row to
    // its growth over that, so the ceiling is about these fabrics and not
    // about memory the allocator kept from rows run before it.
    let base_mib = reset_peak_rss().then(|| status_mib("VmRSS:")).flatten();

    // Theorem 3: m = n² with the index-pair routing is nonblocking.
    let (build_s, ft) = ctx.timed("e27.build", |_| Ftree::new(32, 1024, 32_768));
    let ft = ft?;
    ctx.result_line("fabric", "ftree(32+1024, 32768)")?;
    ctx.result_line("hosts", ft.num_leaves())?;
    ctx.result_line("channels", ft.topology().num_channels())?;
    let yuan = YuanDeterministic::new(&ft)?;
    let rec = ctx.recorder();
    let (count_s, verdict) = ctx.timed("e27.count", |_| lemma1_audit_with(&yuan, rec));
    ctx.result_line("build_s", format!("{build_s:.2}"))?;
    ctx.result_line("count_s", format!("{count_s:.2}"))?;
    ctx.check(
        ft.num_leaves() == 1 << 20 && verdict?.is_none(),
        "Theorem 3: Yuan routing on ftree(32+1024, 32768) (2^20 hosts) is nonblocking",
    )?;
    drop(ft);

    // Theorem 2: one top switch short of n², d-mod-k blocks.
    let (build_s, ft) = ctx.timed("e27.build", |_| Ftree::new(32, 1023, 32_768));
    let ft = ft?;
    ctx.result_line("fabric", "ftree(32+1023, 32768)")?;
    let dmodk = DModK::new(&ft);
    let (count_s, violation) = ctx.timed("e27.count", |_| lemma1_audit_with(&dmodk, rec));
    ctx.result_line("build_s", format!("{build_s:.2}"))?;
    ctx.result_line("count_s", format!("{count_s:.2}"))?;
    let violation = violation?;
    ctx.check(
        violation.is_some(),
        "Theorem 2: d-mod-k on ftree(32+1023, 32768) (m = n² - 1) is blocking",
    )?;
    if let Some(v) = violation {
        let pairs = [0, 1].map(|k| SdPair::new(v.sources[k], v.destinations[k]));
        ctx.result_line(
            "witness",
            format!("{} and {} on {}", pairs[0], pairs[1], v.channel),
        )?;
        let perm = Permutation::from_pairs(ft.num_leaves() as u32, pairs)?;
        ctx.check(
            route_all(&dmodk, &perm)?.max_channel_load() >= 2,
            "the d-mod-k witness contends when routed",
        )?;
    }
    drop(ft);

    if let (Some(base), Some(peak)) = (base_mib, status_mib("VmHWM:")) {
        let growth = peak.saturating_sub(base);
        ctx.result_line("peak_rss_mib", peak)?;
        ctx.result_line("row_rss_growth_mib", growth)?;
        ctx.check(
            growth < 100,
            "row RSS growth (peak minus RSS at its start) stays under 100 MiB",
        )?;
    }
    Ok(())
}

/// Restart this process's peak-RSS counter (`VmHWM`) at its current RSS,
/// through `/proc/self/clear_refs`; false where that is not available.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// A `/proc/self/status` memory field in MiB: `"VmHWM:"` is this process's
/// peak resident set, `"VmRSS:"` its current one. `None` off Linux — the
/// RSS claims are then not made.
fn status_mib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024)
}

pub fn e25(ctx: &mut Ctx) -> RowResult {
    ctx.banner(
        "E25",
        "sparse lazy state: 345k- and 1.08M-host recursive runs, first million-host run",
    )?;
    ctx.within("recursive24", 120.0, |ctx| {
        e25_recursive(ctx, 24, 11, (331_000, "331k"), "")
    })?;
    ctx.within("recursive32", 120.0, |ctx| {
        e25_recursive(ctx, 32, 13, (1 << 20, "2^20"), "recursive32_")
    })?;
    ctx.within("million", 300.0, e25_million)?;
    // Peak RSS over the whole process — every row run before this one
    // included. Dense per-channel state at n = 24 alone would add ~25 GiB.
    if let Some(mib) = status_mib("VmHWM:") {
        ctx.result_line("peak_rss_mib", mib)?;
        ctx.check(
            mib < 24_576,
            "process peak RSS stays under the 24 GiB ceiling",
        )?;
    }
    Ok(())
}

/// Exact max link load of an assignment, by the core engine's
/// epoch-stamped scratch (0 for an assignment that crosses no channels).
fn scratch_max(scratch: &mut ContentionScratch, asg: &RouteAssignment) -> u32 {
    scratch.max_load_witness(asg).map_or(0, |(_, m)| m)
}

pub fn e26(ctx: &mut Ctx) -> RowResult {
    ctx.banner(
        "E26",
        "min-congestion router head-to-head on the 10k-host fabric",
    )?;
    // The warm start makes "repaired <= every projectable baseline" a
    // construction invariant, so this row really checks that the plan's
    // own bookkeeping, the projection, and the core engine's independent
    // load meter all agree at 10k hosts.
    let big = big_ftree(ctx)?;
    let hosts = big.num_leaves() as u32;
    let suite = standard_suite(hosts);
    let yuan = YuanDeterministic::new(&big)?;
    let dmodk = DModK::new(&big);
    let smodk = SModK::new(&big);
    let adaptive = NonblockingAdaptive::new(&big)?;
    let config = CongestionConfig::default();
    let mut scratch = ContentionScratch::with_channels(big.topology().num_channels());
    let mut pristine_ok = true;
    let mut meter_agrees = true;
    for (pname, perm) in &suite {
        let baselines = [
            route_all(&yuan, perm)?,
            route_all(&dmodk, perm)?,
            route_all(&smodk, perm)?,
            adaptive.route_pattern(perm)?,
        ];
        let [y, d, s, a] = baselines
            .each_ref()
            .map(|asg| scratch_max(&mut scratch, asg));
        let router = MinCongestion::with_config(FtreeCandidates::pristine(&big), config);
        let plan = router.plan_seeded_with(perm, &baselines.each_ref(), &Noop)?;
        let repaired = scratch_max(&mut scratch, &plan.assignment());
        ctx.result_line(
            pname,
            format!(
                "yuan={y} dmodk={d} smodk={s} adaptive={a} repaired={repaired} moves={} rounds={}",
                plan.moves(),
                plan.rounds()
            ),
        )?;
        pristine_ok &= repaired <= y.min(d).min(s).min(a);
        meter_agrees &= repaired == plan.max_link_load();
    }
    ctx.check(
        pristine_ok,
        "repaired min-congestion <= every exact baseline on every pristine pattern",
    )?;
    ctx.check(
        meter_agrees,
        "plan bookkeeping agrees with the core engine's load meter",
    )?;

    // Faulted scenario: kill one top switch. d-mod-k's residue classes no
    // longer spread — the fault-aware reroute piles the dead top's flows
    // onto surviving up-channels that already carry one flow each — while
    // the solver plans over the surviving candidate set from scratch.
    let mut faults = FaultSet::new();
    faults.fail_switch(big.top(0));
    let view = FaultyView::new(big.topology(), &faults);
    let fperm = patterns::shift(hosts, 3);
    let dmodk_faulted: Option<u32> = FaultAware::new(DModK::new(&big), &view)
        .route_pattern_checked(&fperm)
        .ok()
        .map(|asg| scratch_max(&mut scratch, &asg));
    let frouter = MinCongestion::with_config(FtreeCandidates::masked(&big, &view), config);
    let fplan = frouter.plan_seeded_with(&fperm, &[], &Noop)?;
    let repaired_faulted = scratch_max(&mut scratch, &fplan.assignment());
    ctx.result_line(
        "faulted_dmodk_max_load",
        dmodk_faulted.map_or_else(|| "unroutable".to_string(), |v| v.to_string()),
    )?;
    ctx.result_line("faulted_repaired_max_load", repaired_faulted)?;
    // An unroutable d-mod-k counts as strictly worse than any placement.
    ctx.check(
        dmodk_faulted.is_none_or(|d| repaired_faulted < d),
        "repaired strictly beats fault-aware d-mod-k with one dead top switch",
    )?;
    Ok(())
}
