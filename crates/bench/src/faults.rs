//! E17 — degraded operation under hardware failures.
//!
//! The paper's nonblocking machinery assumes a pristine fabric. This
//! experiment measures what each routing scheme retains when top switches
//! and links die:
//!
//! * **E17a** — degradation table on `ftree(3+12, 9)` (`m = 12 > n² = 9`,
//!   so a whole spare partition exists): the Theorem 3 deterministic
//!   routing, whose top assignment is pinned, strands `r(r-1)` pairs per
//!   dead top, while the masked NONBLOCKINGADAPTIVE re-plans around the
//!   failure and stays contention-free.
//! * **E17b** — survivability margin: the largest `k` such that *any* `k`
//!   simultaneous top failures leave the masked adaptive contention-free
//!   (exhaustive over all single-failure subsets).
//! * **E17c** — packet level: a mid-run uplink death with TTL + retry.
//!   Policies that re-pick paths on retransmission (random multipath)
//!   deliver everything; a pinned single-path policy re-picks the same dead
//!   path and must abandon exactly the stranded flows. Drop/retry counters
//!   obey packet conservation throughout.

use crate::{sim_cfg, Ctx, RowResult, SEED};
use ftclos_core::{
    adaptive_degraded_verdict, deterministic_degradation, max_survivable_top_failures,
    DegradedVerdict,
};
use ftclos_routing::{ObliviousMultipath, YuanDeterministic};
use ftclos_sim::{Arbiter, EventSimulator, FaultSchedule, Policy, SimConfig, SimStats, Workload};
use ftclos_topo::{FaultSet, FaultyView, Ftree};
use ftclos_traffic::patterns;

/// The loss accounting of one faulted run, as one result line.
fn counts(s: &SimStats) -> String {
    format!(
        "injected {} delivered {} timed-out {} retries {} abandoned {}",
        s.injected_total, s.delivered_total, s.timed_out_total, s.retries_total, s.abandoned_total
    )
}

pub fn e17(ctx: &mut Ctx) -> RowResult {
    ctx.banner(
        "E17a",
        "degradation table: ftree(3+12, 9), k failed tops, yuan vs masked adaptive",
    )?;
    let ft = Ftree::new(3, 12, 9)?;
    let yuan = YuanDeterministic::new(&ft)?;
    ctx.print("  k | yuan routable pairs | yuan lost | masked adaptive\n")?;
    for k in 0..=2usize {
        let mut faults = FaultSet::new();
        for t in 0..k {
            faults.fail_switch(ft.top(t));
        }
        let view = FaultyView::new(ft.topology(), &faults);
        let deg = deterministic_degradation(&yuan, &view)?;
        let adaptive = adaptive_degraded_verdict(&ft, &view, 30, SEED)?;
        let verdict_str = match &adaptive {
            DegradedVerdict::ContentionFree { permutations, .. } => {
                format!("contention-free ({permutations} perms)")
            }
            other => format!("{other:?}"),
        };
        ctx.print(format_args!(
            "  {k} | {:>5}/{:<5}          | {:>5.1}%   | {verdict_str}\n",
            deg.routable_pairs(),
            deg.total_pairs,
            deg.unroutable_fraction() * 100.0
        ))?;
        if k == 0 {
            ctx.check(
                deg.fully_operational() && adaptive.survives(),
                "pristine fabric: both schemes fully operational",
            )?;
        }
        if k == 1 {
            ctx.check(
                deg.routable_pairs() + ft.r() * (ft.r() - 1) == deg.total_pairs,
                "yuan's pinned assignment strands exactly r(r-1) pairs per dead top",
            )?;
            ctx.check(
                adaptive.survives(),
                "masked adaptive re-plans around the dead top: zero contention",
            )?;
        }
    }

    ctx.banner(
        "E17b",
        "survivability margin of the masked adaptive routing",
    )?;
    let report = max_survivable_top_failures(&ft, 2, 20, 64, SEED)?;
    ctx.result_line("max survivable k", report.max_k)?;
    for level in &report.levels {
        let (subsets, k) = (level.subsets_checked, level.k);
        let how = if level.exhaustive {
            "exhaustive"
        } else {
            "sampled"
        };
        let found = if level.verdict.survives() {
            "all contention-free"
        } else {
            "failure found"
        };
        ctx.result_line(
            &format!("k={k}"),
            format!("{subsets} subset(s) ({how}), {found}"),
        )?;
    }
    ctx.check(
        report.max_k >= 1,
        "the spare partition absorbs any single top-switch failure (exhaustive)",
    )?;

    ctx.banner(
        "E17c",
        "packet level: mid-run uplink death, TTL + bounded retry",
    )?;
    let ft2 = Ftree::new(2, 4, 5)?;
    let perm = patterns::shift(10, 2);
    let cfg = SimConfig {
        ttl_cycles: 60,
        retry: true,
        retry_limit: 10,
        drain: true,
        arbiter: Arbiter::Voq { iterations: 2 },
        ..sim_cfg(200, 1_500)
    };
    // Kill the uplink carrying Theorem 3's pinned route for flow 0 -> 2
    // (leaf offsets (0,0) map to top i*n+j = 0).
    let mut faults = FaultSchedule::new();
    faults.kill_channel(400, ft2.up_channel(0, 0));

    let w = Workload::permutation(&perm, 0.6);
    let run = |policy| {
        EventSimulator::new(ft2.topology(), cfg, policy).try_run_with_faults(&w, SEED, &faults)
    };

    let mp = ObliviousMultipath::new(&ft2);
    let s_mp = run(Policy::from_multipath(&mp, true))?;
    ctx.result_line("multipath (re-picks)", counts(&s_mp))?;
    ctx.check(
        s_mp.timed_out_total > 0 && s_mp.retries_total > 0,
        "the dead uplink strands packets; retry retransmits them",
    )?;
    ctx.check(
        s_mp.delivered_total >= s_mp.injected_total * 99 / 100,
        "re-picking policies route around the failure (≥99% delivered)",
    )?;
    ctx.check(
        s_mp.conservation_ok(),
        "packet conservation holds (multipath)",
    )?;

    let s_fix = run(Policy::from_single_path(&YuanDeterministic::new(&ft2)?))?;
    ctx.result_line("pinned single-path", counts(&s_fix))?;
    ctx.check(
        s_fix.abandoned_total > 0,
        "the pinned policy re-picks the same dead path: stranded flows are dropped",
    )?;
    ctx.check(
        s_fix.delivered_total > 0,
        "flows off the dead uplink keep flowing",
    )?;
    ctx.check(
        s_fix.conservation_ok(),
        "packet conservation holds (pinned)",
    )?;
    ctx.check(
        s_mp.abandoned_fraction() < s_fix.abandoned_fraction(),
        "retry + path diversity beats retry alone (lower abandonment)",
    )?;
    Ok(())
}
