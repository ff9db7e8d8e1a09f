//! Ablation studies of the design choices DESIGN.md calls out.
//!
//! * **A1** — Fig. 4 line (7): greedy largest-subset partition selection vs
//!   first-fit. How many top switches does the greedy search actually save?
//! * **A2** — queue-adaptive tie-breaking: random vs deterministic
//!   lowest-index. Deterministic ties herd every switch onto the same tops
//!   and collapse throughput.
//! * **A3** — oblivious spreading discipline: per-packet random vs
//!   round-robin. Round-robin de-synchronizes flows slightly better at
//!   saturation.

use crate::{sim_cfg, throughput, Ctx, RowResult, SEED};
use ftclos_analysis::TextTable;
use ftclos_routing::{NonblockingAdaptive, ObliviousMultipath, PlanStrategy};
use ftclos_sim::{Policy, Workload};
use ftclos_topo::Ftree;
use ftclos_traffic::patterns;
use std::error::Error;

pub fn a1(ctx: &mut Ctx) -> RowResult {
    ctx.banner(
        "A1",
        "Fig. 4 line (7): greedy largest-subset vs first-fit partitions",
    )?;
    let mut table = TextTable::new([
        "n",
        "r",
        "greedy tops (worst)",
        "first-fit tops (worst)",
        "saving",
    ]);
    let mut rng = ctx.rng(0);
    for (n, r) in [(4usize, 16usize), (6, 36), (8, 64)] {
        let ft = Ftree::new(n, 1, r)?;
        let router = NonblockingAdaptive::new(&ft)?;
        let ports = (n * r) as u32;
        let (mut worst_g, mut worst_f) = (0usize, 0usize);
        for _ in 0..30 {
            let perm = patterns::random_full(ports, &mut rng);
            let greedy = router.plan_with(&perm, PlanStrategy::GreedyLargestSubset)?;
            worst_g = worst_g.max(greedy.tops_needed());
            let first_fit = router.plan_with(&perm, PlanStrategy::FirstFit)?;
            worst_f = worst_f.max(first_fit.tops_needed());
        }
        table.row([
            n.to_string(),
            r.to_string(),
            worst_g.to_string(),
            worst_f.to_string(),
            format!("{:.0}%", 100.0 * (1.0 - worst_g as f64 / worst_f as f64)),
        ]);
        ctx.check(
            worst_g <= worst_f,
            &format!("n={n}: greedy never needs more tops than first-fit"),
        )?;
    }
    ctx.print(table.render())?;
    Ok(())
}

type MakePolicy = fn(&ObliviousMultipath) -> Policy;

/// Accepted throughput of the two policies built over random multipath
/// spreading on the FT(12,2)-shaped `ftree(6+6, 12)`, both under the same
/// saturated random derangement.
fn ft12_pair(ctx: &Ctx, a: MakePolicy, b: MakePolicy) -> Result<(f64, f64), Box<dyn Error>> {
    let ft = Ftree::new(6, 6, 12)?;
    let mp = ObliviousMultipath::new(&ft);
    let w = Workload::permutation(&patterns::random_derangement(72, &mut ctx.rng(2)), 1.0);
    let cfg = sim_cfg(300, 1_500);
    Ok((
        throughput(ft.topology(), cfg, a(&mp), &w, SEED)?,
        throughput(ft.topology(), cfg, b(&mp), &w, SEED)?,
    ))
}

pub fn a2(ctx: &mut Ctx) -> RowResult {
    ctx.banner(
        "A2",
        "queue-adaptive tie-breaking: random vs deterministic lowest-index",
    )?;
    let (thr_random, thr_first) = ft12_pair(
        ctx,
        Policy::queue_adaptive,
        Policy::queue_adaptive_deterministic_ties,
    )?;
    ctx.result_line("random tie-break throughput", format!("{thr_random:.3}"))?;
    ctx.result_line(
        "lowest-index tie-break throughput",
        format!("{thr_first:.3}"),
    )?;
    ctx.check(
        thr_random > thr_first + 0.1,
        "random tie-breaking avoids the herding collapse",
    )?;
    Ok(())
}

pub fn a3(ctx: &mut Ctx) -> RowResult {
    ctx.banner(
        "A3",
        "oblivious spreading: per-packet random vs round-robin",
    )?;
    let (thr_rand_spread, thr_rr_spread) = ft12_pair(
        ctx,
        |mp| Policy::from_multipath(mp, true),
        |mp| Policy::from_multipath(mp, false),
    )?;
    ctx.result_line(
        "random spreading throughput",
        format!("{thr_rand_spread:.3}"),
    )?;
    ctx.result_line(
        "round-robin spreading throughput",
        format!("{thr_rr_spread:.3}"),
    )?;
    ctx.check(
        (thr_rand_spread - thr_rr_spread).abs() < 0.15,
        "spreading discipline is a second-order effect (both remain below crossbar)",
    )?;
    ctx.check(
        thr_rand_spread < 0.97 && thr_rr_spread < 0.97,
        "no oblivious spread reaches nonblocking behaviour (Section IV.B)",
    )?;
    Ok(())
}
