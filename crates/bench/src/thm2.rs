//! E6 — Theorem 2 tightness: `m >= n²` is necessary and sufficient.
//!
//! *Sufficiency* is E4 (Theorem 3 routing at `m = n²`). Here we demonstrate
//! *necessity* empirically: for every `m < n²`, each deterministic routing
//! we implement admits a blocking permutation — found by the **complete**
//! two-pair search, so "no witness" would actually disprove blocking. We
//! also show the witness found is a real two-pair permutation that
//! contends, and that `m = n²` with the *wrong* routing (d-mod-k) still
//! blocks: the condition is about count *and* assignment.

use crate::{Ctx, RowResult};
use ftclos_analysis::TextTable;
use ftclos_core::search::find_blocking_two_pair;
use ftclos_core::verify::is_nonblocking_deterministic;
use ftclos_routing::{route_all, DModK, SModK, SinglePathRouter, YuanDeterministic};
use ftclos_topo::Ftree;

pub fn e6(ctx: &mut Ctx) -> RowResult {
    ctx.banner(
        "E6",
        "Theorem 2 — every deterministic routing with m < n² blocks",
    )?;
    let mut table = TextTable::new(["n", "r", "m", "router", "blocking witness"]);
    for (n, r) in [(2usize, 5usize), (3, 7), (2, 8)] {
        let n2 = n * n;
        for m in 1..n2 {
            let ft = Ftree::new(n, m, r)?;
            let (dmodk, smodk) = (DModK::new(&ft), SModK::new(&ft));
            let routers: [(&str, &dyn SinglePathRouter); 2] =
                [("d-mod-k", &dmodk), ("s-mod-k", &smodk)];
            for (name, router) in routers {
                let witness = find_blocking_two_pair(router);
                ctx.check(
                    witness.found_blocking(),
                    &format!("n={n} r={r} m={m} {name}: blocking permutation exists"),
                )?;
                // Double-check the witness really contends.
                if let Some(perm) = witness.into_witness() {
                    let pairs = perm.pairs();
                    table.row([
                        n.to_string(),
                        r.to_string(),
                        m.to_string(),
                        name.to_string(),
                        format!("{} & {}", pairs[0], pairs[1]),
                    ]);
                    ctx.check(
                        route_all(router, &perm)?.max_channel_load() >= 2,
                        &format!("n={n} r={r} m={m} {name}: witness contends"),
                    )?;
                }
            }
        }
        // At m = n² the right routing passes, the wrong one still fails.
        let ft = Ftree::new(n, n2, r)?;
        ctx.check(
            is_nonblocking_deterministic(&YuanDeterministic::new(&ft)?),
            &format!("n={n} r={r} m=n²: Theorem 3 routing is nonblocking"),
        )?;
        ctx.check(
            find_blocking_two_pair(&DModK::new(&ft)).found_blocking(),
            &format!("n={n} r={r} m=n²: d-mod-k STILL blocks (assignment matters)"),
        )?;
    }
    ctx.print(table.render())?;

    ctx.banner("E6b", "Theorem 1 — small-top regime caps ports at 2(n+m)")?;
    // In the r <= 2n+1 regime the Lemma-2 counting forces m >= (r-1)n/2,
    // hence ports = rn <= 2(n+m): verify the arithmetic over a sweep.
    for n in 1..8usize {
        for r in 2..=(2 * n + 1) {
            let m_min = ((r - 1) * n).div_ceil(2);
            let ports = r * n;
            ctx.check(
                ports <= 2 * (n + m_min),
                &format!("n={n} r={r}: rn={ports} <= 2(n+m_min)={}", 2 * (n + m_min)),
            )?;
        }
    }
    Ok(())
}
