//! E18 — transient-fault churn: link flapping, re-planning, and
//! availability.
//!
//! Where E17 injects *permanent* failures, E18 lets hardware come back:
//! links flap with exponential MTBF/MTTR, the path policy reacts per a
//! [`ReplanMode`], and the exact flow-level checker turns the trace into an
//! availability verdict.
//!
//! * **E18a** — availability analysis: a fault-free trace scores exactly
//!   1.0; a trace that transiently drops two uplink cables of one switch of
//!   an exactly-nonblocking `ftree(2+4, 3)` scores strictly below 1.0, and
//!   recovers the 1.0 verdict once `m` grows to `n² + n` (the minimum-`m`
//!   sweep finds that threshold).
//! * **E18b** — re-planning shootout on `ftree(3+12, 9)`: six uplink
//!   cables of one switch flap with outages longer than the packet TTL.
//!   Pinned routing keeps spraying packets onto the corpses; per-cycle
//!   re-planning readmits each link the moment it revives and strands
//!   whatever it routes there; hysteresis (readmission only after `K`
//!   stable cycles) never trusts a flapper and delivers strictly more
//!   than per-cycle.
//! * **E18c** — flap-rate sweep: the same contest under the seeded
//!   MTBF/MTTR generator at increasing flap rates, reporting delivered
//!   throughput and mean time-to-reconverge per mode.

use crate::{sim_cfg, Ctx, RowResult, SEED};
use ftclos_core::churn::{availability, min_m_for_availability, ChurnEvent};
use ftclos_obs::Noop;
use ftclos_routing::ObliviousMultipath;
use ftclos_sim::{
    Arbiter, ChurnConfig, ChurnReport, ChurnSchedule, Policy, ReplanMode, SimConfig, SimError,
    SimStats, Simulator, Workload,
};
use ftclos_topo::{Ftree, Transition};
use ftclos_traffic::patterns;

pub fn e18(ctx: &mut Ctx) -> RowResult {
    ctx.banner(
        "E18a",
        "availability: fault-free vs transient Lemma-1 violation, min-m sweep",
    )?;
    let small = Ftree::new(2, 4, 3)?;
    let clean = availability(&small, &[], 1_000, 30, SEED)?;
    ctx.result_line("fault-free availability", clean.time_availability())?;
    ctx.check(
        clean.time_availability() == 1.0 && clean.epoch_availability() == 1.0,
        "a fault-free trace is 1.0 available",
    )?;

    // Drop two uplink cables of leaf switch 0 for cycles [300, 500): the
    // exactly-nonblocking m = n² fabric transiently blocks.
    let outage = |ft: &Ftree| {
        let mut events = Vec::new();
        for t in 0..2.min(ft.m()) {
            for ch in [ft.up_channel(0, t), ft.down_channel(0, t)] {
                events.push(ChurnEvent::new(300, ch, Transition::Down));
                events.push(ChurnEvent::new(500, ch, Transition::Up));
            }
        }
        events
    };
    let dented = availability(&small, &outage(&small), 1_000, 30, SEED)?;
    ctx.result_line("transient-outage availability", dented.time_availability())?;
    ctx.check(
        dented.time_availability() < 1.0,
        "a transient double-cable outage dents availability below 1.0",
    )?;
    ctx.check(
        dented.worst_epoch().is_some_and(|e| e.start == 300),
        "the blocking interval is exactly the outage epoch",
    )?;

    match min_m_for_availability(2, 3, 8, 0.99, 1_000, 30, SEED, outage)? {
        Some((m, rep)) => {
            ctx.result_line("min m for 0.99 availability", m)?;
            ctx.check(
                m == 6 && rep.time_availability() == 1.0,
                "m = n² + n rides out the double-cable flap entirely",
            )?;
        }
        None => ctx.check(false, "min-m sweep found no fabric meeting 0.99")?,
    }

    ctx.banner(
        "E18b",
        "re-planning shootout on ftree(3+12, 9): pinned vs per-cycle vs hysteresis",
    )?;
    let ft = Ftree::new(3, 12, 9)?;
    // Six uplink cables of switch 0 flap, staggered: up 60 cycles, down 100
    // (longer than the TTL, so whatever is queued on a dying link is lost).
    // Per-cycle re-planning re-trusts each link for the whole up-window and
    // strands its queue at every down; hysteresis with K = 200 > the
    // up-window never readmits a flapper after its first death.
    let mut schedule = ChurnSchedule::new();
    for (i, top) in (0..6).enumerate() {
        let flapper = ft.up_channel(0, top);
        let mut t = 400 + 25 * i as u64;
        while t < 3_000 {
            schedule.kill_link(t, ft.topology(), flapper);
            schedule.revive_link(t + 100, ft.topology(), flapper);
            t += 160;
        }
    }
    let pinned = run_mode(&ft, &schedule, ReplanMode::Pinned)?;
    let per_cycle = run_mode(&ft, &schedule, ReplanMode::PerCycle)?;
    let hysteresis = run_mode(&ft, &schedule, ReplanMode::Hysteresis { k: 200 })?;
    for (name, (stats, report)) in [
        ("pinned", &pinned),
        ("per-cycle", &per_cycle),
        ("hysteresis(200)", &hysteresis),
    ] {
        ctx.result_line(
            name,
            format!(
                "delivered {} / injected {}, timed-out {}, lost {}, reconverged {}/{}",
                stats.delivered_total,
                stats.injected_total,
                stats.timed_out_total,
                report.packets_lost(),
                report.reconverged(),
                report.transitions()
            ),
        )?;
    }
    ctx.check(
        pinned.0.conservation_ok()
            && per_cycle.0.conservation_ok()
            && hysteresis.0.conservation_ok(),
        "packet conservation holds across every transition (all modes)",
    )?;
    ctx.check(
        pinned.0.injected_total == per_cycle.0.injected_total
            && per_cycle.0.injected_total == hysteresis.0.injected_total,
        "with retry off the offered load is identical across modes",
    )?;
    ctx.check(
        hysteresis.0.delivered_total > per_cycle.0.delivered_total,
        "hysteresis delivers strictly more than per-cycle re-planning under flapping",
    )?;
    ctx.check(
        hysteresis.0.timed_out_total < per_cycle.0.timed_out_total,
        "damped readmission cuts timeouts vs per-cycle",
    )?;
    ctx.check(
        per_cycle.0.timed_out_total < pinned.0.timed_out_total,
        "any re-planning beats never re-planning",
    )?;

    ctx.banner(
        "E18c",
        "flap-rate sweep (MTBF/MTTR generator, 3 links, mttr 100)",
    )?;
    ctx.print("  mtbf | mode            | delivered | timed-out | mean reconverge\n")?;
    let mut sweep_ok = true;
    for mtbf in [1_600u64, 800, 400, 200] {
        let schedule = ChurnSchedule::flapping_links(ft.topology(), 3, mtbf, 100, 3_000, SEED);
        for (name, mode) in [
            ("pinned", ReplanMode::Pinned),
            ("per-cycle", ReplanMode::PerCycle),
            ("hysteresis(150)", ReplanMode::Hysteresis { k: 150 }),
        ] {
            let (stats, report) = run_mode(&ft, &schedule, mode)?;
            sweep_ok &= stats.conservation_ok();
            ctx.print(format_args!(
                "  {mtbf:>4} | {name:<15} | {:>9} | {:>9} | {}\n",
                stats.delivered_total,
                stats.timed_out_total,
                match report.mean_reconverge_cycles() {
                    Some(c) => format!("{c:.0} cycles"),
                    None => "-".to_string(),
                }
            ))?;
        }
    }
    ctx.check(sweep_ok, "conservation held for every sweep cell")?;
    Ok(())
}

/// One churn run on `ft` under `mode`: random multipath picks, VOQ
/// arbitration, TTL with retry off — every stranded packet is a loss, so
/// the modes contrast on delivered count alone. Retry off also keeps the
/// RNG stream identical across modes (picks only happen at injection), so
/// the offered load is exactly equal. Deterministic in `SEED`.
fn run_mode(
    ft: &Ftree,
    schedule: &ChurnSchedule,
    mode: ReplanMode,
) -> Result<(SimStats, ChurnReport), SimError> {
    let mp = ObliviousMultipath::new(ft);
    let perm = patterns::shift(ft.num_leaves() as u32, 2);
    let cfg = SimConfig {
        ttl_cycles: 50,
        drain: true,
        arbiter: Arbiter::Voq { iterations: 2 },
        ..sim_cfg(200, 3_000)
    };
    let churn = ChurnConfig {
        mode,
        epsilon: 0.1,
        recovery_window: 50,
    };
    Simulator::new(ft.topology(), cfg, Policy::from_multipath(&mp, true)).try_run_churn_recorded(
        &Workload::permutation(&perm, 0.7),
        SEED,
        schedule,
        &churn,
        &Noop,
    )
}
