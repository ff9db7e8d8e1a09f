//! E12 — blocking probability vs `m`: the curve that the nonblocking
//! condition drives to zero.
//!
//! For `ftree(n+m, r)` with `n = 3, r = 7`, sweep `m` from 1 to `n² = 9`
//! and estimate the fraction of random full permutations that contend under
//! (a) d-mod-k deterministic, (b) greedy local adaptive, and
//! (c) NONBLOCKINGADAPTIVE. Deterministic routing needs `m = n²` to reach
//! zero; the adaptive algorithm reaches zero as soon as its plan fits.

use crate::{Ctx, RowResult, SEED};
use ftclos_analysis::TextTable;
use ftclos_core::search::{blocking_report, blocking_vs_density};
use ftclos_routing::{DModK, GreedyLocalAdaptive, NonblockingAdaptive, YuanDeterministic};
use ftclos_topo::Ftree;

pub fn e12(ctx: &mut Ctx) -> RowResult {
    ctx.banner(
        "E12",
        "blocking fraction over random permutations vs m (n=3, r=7, 300 samples)",
    )?;
    let (n, r) = (3usize, 7usize);
    let samples = 300usize;
    let mut table = TextTable::new(["m", "d-mod-k", "greedy adaptive", "nonblocking adaptive"]);
    // Per m = 1..=n²: blocking fraction under [d-mod-k, greedy, adaptive].
    let mut fractions = Vec::new();
    for m in 1..=n * n {
        let ft = Ftree::new(n, m, r)?;
        let f_d = blocking_report(&DModK::new(&ft), samples, SEED);
        let greedy = GreedyLocalAdaptive::new(&ft);
        let f_g = blocking_report(&greedy, samples, SEED);
        // NONBLOCKINGADAPTIVE refuses when its plan needs > m tops; count
        // refusals as blocking (the fabric is too small for the algorithm).
        let adaptive = NonblockingAdaptive::new(&ft)?;
        let f_a = blocking_report(&adaptive, samples, SEED);
        table.row([
            m.to_string(),
            format!("{f_d:.3}"),
            format!("{f_g:.3}"),
            format!("{f_a:.3}"),
        ]);
        fractions.push([f_d, f_g, f_a]);
    }
    ctx.print(table.render())?;
    let first_zero = |col: usize| fractions.iter().position(|f| f[col] == 0.0).map(|i| i + 1);

    ctx.check(
        fractions.last().is_some_and(|f| f[0] > 0.0),
        "d-mod-k still blocks at m = n² (count alone is not enough)",
    )?;
    ctx.check(
        fractions.windows(2).all(|w| w[1][0] <= w[0][0] + 0.1),
        "d-mod-k blocking shrinks (roughly) as m grows",
    )?;
    ctx.result_line(
        "greedy first zero-blocking m",
        first_zero(1).map_or("never".into(), |m| m.to_string()),
    )?;
    ctx.result_line(
        "nonblocking-adaptive first zero-blocking m",
        first_zero(2).map_or("never (plan needs more tops)".into(), |m| m.to_string()),
    )?;

    ctx.banner(
        "E12b",
        "blocking fraction vs load density (m = 4 < n², 200 samples/point)",
    )?;
    let ft_small = Ftree::new(n, 4, r)?;
    let dmodk_small = DModK::new(&ft_small);
    let ft_nb = Ftree::new(n, n * n, r)?;
    let yuan_nb = YuanDeterministic::new(&ft_nb)?;
    let densities = [0.1, 0.25, 0.5, 0.75, 1.0];
    let curve_d = blocking_vs_density(&dmodk_small, &densities, 200, SEED);
    let curve_y = blocking_vs_density(&yuan_nb, &densities, 200, SEED);
    let mut dtable = TextTable::new(["density", "d-mod-k (m=4)", "Theorem 3 (m=n²)"]);
    for ((d, fd), (_, fy)) in curve_d.iter().zip(&curve_y) {
        dtable.row([format!("{d:.2}"), format!("{fd:.3}"), format!("{fy:.3}")]);
    }
    ctx.print(dtable.render())?;
    ctx.check(
        (curve_d.first().zip(curve_d.last())).is_some_and(|(lo, hi)| hi.1 > lo.1),
        "blocking grows with load for the undersized fabric",
    )?;
    ctx.check(
        curve_y.iter().all(|&(_, f)| f == 0.0),
        "the nonblocking fabric is flat at zero across all densities",
    )?;

    // The Theorem 3 reference: zero blocking at m = n² with the right
    // deterministic routing.
    let f_yuan = blocking_report(&yuan_nb, samples, SEED);
    ctx.result_line("Theorem 3 routing at m = n²", format!("{f_yuan:.3}"))?;
    ctx.check(f_yuan == 0.0, "Theorem 3 routing never blocks at m = n²")?;
    Ok(())
}
