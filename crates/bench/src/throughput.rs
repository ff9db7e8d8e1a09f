//! E11 — the paper's motivation (refs \[5\], \[7\]): delivered throughput under
//! permutation traffic. A nonblocking `ftree(n+n², r)` behaves like a
//! crossbar (~100%); a conventional rearrangeable fat-tree with static
//! `d mod k` routing delivers much less; local queue-adaptive routing
//! narrows but does not close the gap.

use crate::{sim_cfg, throughput, Ctx, RowResult, XbRouter, SEED};
use ftclos_analysis::TextTable;
use ftclos_routing::{DModK, ObliviousMultipath, YuanDeterministic};
use ftclos_sim::{sweep_injection_rates, Policy, Workload};
use ftclos_topo::{crossbar, Ftree, Topology};
use ftclos_traffic::patterns;

pub fn e11(ctx: &mut Ctx) -> RowResult {
    ctx.banner(
        "E11",
        "accepted throughput on random permutations (mean over 10 perms, offered = 1.0)",
    )?;
    let cfg = sim_cfg(400, 2_000);
    // Fabrics sized to a comparable port count: a 36-port crossbar, the
    // nonblocking 36-port ftree(3+9, 12), and FT(12,2) — which is
    // ftree(6+6, 12): 72 ports, n = m = 6 (rearrangeable), modelled directly
    // as that ftree so all routers apply.
    let xb = crossbar(36)?;
    let nb = Ftree::new(3, 9, 12)?;
    let ft2 = Ftree::new(6, 6, 12)?;
    let xb_router = XbRouter(&xb);
    let nb_router = YuanDeterministic::new(&nb)?;
    let ft_router = DModK::new(&ft2);
    let ft_mp = ObliviousMultipath::new(&ft2);
    type Case<'a> = (&'a str, &'a str, &'a Topology, u32, &'a dyn Fn() -> Policy);
    let cases: [Case; 5] = [
        ("crossbar(36)", "direct", xb.topology(), 36, &|| {
            Policy::from_single_path(&xb_router)
        }),
        (
            "ftree(3+9,12) nonblocking",
            "Theorem 3",
            nb.topology(),
            36,
            &|| Policy::from_single_path(&nb_router),
        ),
        (
            "FT(12,2) rearrangeable",
            "d-mod-k",
            ft2.topology(),
            72,
            &|| Policy::from_single_path(&ft_router),
        ),
        (
            "FT(12,2) rearrangeable",
            "random multipath",
            ft2.topology(),
            72,
            &|| Policy::from_multipath(&ft_mp, true),
        ),
        (
            "FT(12,2) rearrangeable",
            "queue adaptive",
            ft2.topology(),
            72,
            &|| Policy::queue_adaptive(&ft_mp),
        ),
    ];
    let mut rng = ctx.rng(0);
    let mut table = TextTable::new(["fabric", "routing", "accepted throughput"]);
    let mut mean = [0.0f64; 5];
    for (mean, (fabric, routing, topo, ports, make_policy)) in mean.iter_mut().zip(cases) {
        let trials = 10;
        for t in 0..trials {
            let perm = patterns::random_derangement(ports, &mut rng);
            let w = Workload::permutation(&perm, 1.0);
            *mean += throughput(topo, cfg, make_policy(), &w, SEED + t)? / trials as f64;
        }
        table.row([fabric, routing, &format!("{mean:.3}")]);
    }
    ctx.print(table.render())?;
    let [xbar_thr, nb_thr, ft_thr, ft_mp_thr, ft_adaptive_thr] = mean;

    ctx.check(xbar_thr > 0.95, "crossbar delivers ~line rate")?;
    ctx.check(nb_thr > 0.95, "nonblocking ftree matches the crossbar")?;
    ctx.check(
        ft_thr < nb_thr - 0.15,
        "static d-mod-k on the rearrangeable fat-tree is far below crossbar",
    )?;
    // Note: queue-adaptive selection with stale local signals can oscillate
    // below good static routing — consistent with the literature the paper
    // cites ([5]); the claim under test is only that EVERY conventional
    // scheme stays below crossbar behaviour.
    ctx.check(
        ft_mp_thr < 0.97 && ft_adaptive_thr < 0.97,
        "multipath and local-adaptive routing still do not reach crossbar behaviour",
    )?;
    ctx.check(
        ft_adaptive_thr > 0.3,
        "queue-adaptive remains functional (no collapse)",
    )?;

    ctx.banner(
        "E11b",
        "load-latency curves (nonblocking vs d-mod-k fat-tree)",
    )?;
    let rates = [0.2, 0.4, 0.6, 0.8, 0.95];
    let perm_nb = patterns::random_derangement(36, &mut ctx.rng(99));
    let perm_ft = patterns::random_derangement(72, &mut ctx.rng(100));
    let nb_curve = sweep_injection_rates(
        nb.topology(),
        cfg,
        || Policy::from_single_path(&nb_router),
        |rate| Workload::permutation(&perm_nb, rate),
        &rates,
        SEED,
    );
    let ft_curve = sweep_injection_rates(
        ft2.topology(),
        cfg,
        || Policy::from_single_path(&ft_router),
        |rate| Workload::permutation(&perm_ft, rate),
        &rates,
        SEED,
    );
    let mut curve = TextTable::new([
        "offered",
        "NB accepted",
        "NB latency",
        "FT accepted",
        "FT latency",
    ]);
    for (a, b) in nb_curve.iter().zip(&ft_curve) {
        curve.row([
            format!("{:.2}", a.offered),
            format!("{:.3}", a.accepted),
            format!("{:.1}", a.mean_latency),
            format!("{:.3}", b.accepted),
            format!("{:.1}", b.mean_latency),
        ]);
    }
    ctx.print(curve.render())?;
    let (Some(nb_sat), Some(ft_sat)) = (nb_curve.last(), ft_curve.last()) else {
        return Err("the rate sweep returned no points".into());
    };
    ctx.check(
        (nb_sat.accepted - nb_sat.offered).abs() < 0.05,
        "nonblocking fabric tracks offered load all the way up",
    )?;
    ctx.check(
        ft_sat.accepted < ft_sat.offered,
        "static fat-tree saturates below offered load",
    )?;
    Ok(())
}
