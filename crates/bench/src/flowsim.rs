//! E19 — fluid flow-rate simulation: max-min fair delivered throughput
//! at datacenter scale.
//!
//! * **E19a** — delivered throughput vs `m`: sweep `ftree(3+m, 9)` for
//!   `m = n .. n²` under every routing scheme, averaging the mean
//!   delivered flow rate over seeded random permutations. Theorem 3's
//!   prediction is the right edge of the table: at `m = n²` the Yuan
//!   routing delivers every flow at full rate, while single-path mod-`k`
//!   schemes degrade below 1.0 somewhere in the sweep.
//! * **E19b** — differential spot checks: the fluid "all flows at rate
//!   1.0 over the complete two-pair family" decision must coincide with
//!   the exact Lemma 1 verdict, both on a blocking and a nonblocking
//!   fabric.
//! * **E19c** — scale: solve 10,000-host `ftree(16+256, 625)` (340k
//!   channels) under Yuan and `d mod k`; the row's 60 s budget covers both
//!   solves and everything before them.

use crate::{Ctx, RowResult};
use ftclos_flowsim::{check_fabric, solve_pattern_with};
use ftclos_obs::Noop;
use ftclos_routing::{
    DModK, GreedyLocalAdaptive, LinkLoadView, NonblockingAdaptive, ObliviousMultipath,
    RearrangeableRouter, SModK, YuanDeterministic,
};
use ftclos_topo::{ChannelCapacities, Ftree};
use ftclos_traffic::{patterns, Permutation};

/// Random permutations averaged per (router, m) cell in E19a.
const PERMS_PER_CELL: usize = 8;

/// Mean delivered rate of `view` over `perms`, or `None` when any pattern
/// fails to route.
fn mean_delivered<V: LinkLoadView + ?Sized>(
    view: &V,
    perms: &[Permutation],
    caps: &ChannelCapacities,
) -> Option<(f64, f64)> {
    let mut sum = 0.0;
    let mut worst = 1.0f64;
    for (i, p) in perms.iter().enumerate() {
        let r = solve_pattern_with(view, &format!("random:{i}"), p, caps, &Noop).ok()?;
        sum += r.mean_rate;
        worst = worst.min(r.worst_rate);
    }
    Some((sum / perms.len() as f64, worst))
}

fn boxed<'a, V: LinkLoadView + 'a>(view: V) -> Option<Box<dyn LinkLoadView + 'a>> {
    Some(Box::new(view))
}

fn cell(v: Option<(f64, f64)>) -> String {
    match v {
        Some((mean, _)) => format!("{mean:>7.4}"),
        None => format!("{:>7}", "n/a"),
    }
}

pub fn e19(ctx: &mut Ctx) -> RowResult {
    ctx.banner(
        "E19a",
        "fluid delivered throughput vs m, ftree(3+m, 9), random permutations",
    )?;
    let n = 3usize;
    let r = 9usize;
    let mut rng = ctx.rng(0);
    let perms: Vec<Permutation> = (0..PERMS_PER_CELL)
        .map(|_| patterns::random_full((n * r) as u32, &mut rng))
        .collect();
    ctx.print(format_args!(
        "  {:>3} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}\n",
        "m", "yuan", "dmodk", "smodk", "mpath", "greedy", "rearr", "adapt"
    ))?;
    let mut dmodk_degrades = false;
    let mut yuan_full_at_nsq = false;
    let mut mpath_always_full = true;
    for m in n..=n * n {
        let ft = Ftree::new(n, m, r)?;
        let caps = ChannelCapacities::unit(ft.topology());
        // Column order of the header; a router that cannot be built on
        // this m prints n/a.
        let views: [Option<Box<dyn LinkLoadView + '_>>; 7] = [
            YuanDeterministic::new(&ft).ok().and_then(boxed),
            boxed(DModK::new(&ft)),
            boxed(SModK::new(&ft)),
            boxed(ObliviousMultipath::new(&ft)),
            boxed(GreedyLocalAdaptive::new(&ft)),
            RearrangeableRouter::new(&ft).ok().and_then(boxed),
            NonblockingAdaptive::new(&ft).ok().and_then(boxed),
        ];
        let cols = views.map(|v| v.and_then(|v| mean_delivered(&*v, &perms, &caps)));
        ctx.print(format_args!("  {m:>3} {}\n", cols.map(cell).join(" ")))?;
        let [yuan, dmodk, _, mpath, ..] = cols;
        if let Some((_, worst)) = dmodk {
            dmodk_degrades |= worst < 1.0;
        }
        if m == n * n {
            yuan_full_at_nsq = yuan.is_some_and(|(mean, worst)| mean == 1.0 && worst == 1.0);
        }
        mpath_always_full &= mpath.is_some_and(|(mean, _)| (mean - 1.0).abs() < 1e-9);
    }
    ctx.check(
        yuan_full_at_nsq,
        "m = n²: Theorem 3 routing delivers every flow at rate 1.0",
    )?;
    ctx.check(
        dmodk_degrades,
        "m < n² single-path d mod k degrades below 1.0 on some permutation",
    )?;
    ctx.check(
        mpath_always_full,
        "fluid multipath spreading sustains rate 1.0 for all m >= n (load n/m per uplink)",
    )?;

    ctx.banner(
        "E19b",
        "differential: fluid two-pair sweep vs exact Lemma 1 verdict",
    )?;
    let blocking = Ftree::new(2, 2, 3)?;
    let fa = check_fabric(&DModK::new(&blocking), blocking.topology().num_channels());
    ctx.result_line(
        "dmodk on ftree(2+2,3) fluid-nonblocking",
        fa.fluid_nonblocking,
    )?;
    ctx.check(
        fa.agree() && !fa.fluid_nonblocking && fa.fluid_witness.is_some(),
        "fluid and exact agree the m = n fabric blocks (with witness)",
    )?;
    let clean = Ftree::new(2, 4, 3)?;
    let yuan = YuanDeterministic::new(&clean)?;
    let fa = check_fabric(&yuan, clean.topology().num_channels());
    ctx.result_line(
        "yuan on ftree(2+4,3) fluid-nonblocking",
        fa.fluid_nonblocking,
    )?;
    ctx.check(
        fa.agree() && fa.fluid_nonblocking,
        "fluid and exact agree the m = n² fabric is nonblocking",
    )?;

    ctx.banner("E19c", "scale: 10,000-host ftree(16+256, 625)")?;
    let big = Ftree::new(16, 256, 625)?;
    ctx.result_line("hosts", big.num_leaves())?;
    ctx.result_line("channels", big.topology().num_channels())?;
    let caps = ChannelCapacities::unit(big.topology());
    let perm = patterns::random_full(big.num_leaves() as u32, &mut ctx.rng(0));
    let yuan_big = YuanDeterministic::new(&big)?;
    let dmodk_big = DModK::new(&big);
    let routers: [(&str, &dyn LinkLoadView); 2] =
        [("yuan-deterministic", &yuan_big), ("d-mod-k", &dmodk_big)];
    for (label, view) in routers {
        let rep = solve_pattern_with(view, "random", &perm, &caps, &Noop)?;
        ctx.result_line(
            label,
            format!(
                "{} flows, {} entries, mean rate {:.4}",
                rep.num_flows, rep.num_link_entries, rep.mean_rate
            ),
        )?;
    }
    Ok(())
}
