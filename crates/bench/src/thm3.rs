//! E4 — Theorem 3 / Fig. 3: the explicit single-path deterministic routing
//! makes `ftree(n+n², r)` nonblocking.
//!
//! Three layers of evidence, strongest first:
//! 1. the complete Lemma 1 link audit over all `r(r-1)n²` SD pairs,
//! 2. exhaustive permutation sweeps on tiny fabrics,
//! 3. randomized + structured permutation sweeps on larger fabrics,
//!
//! plus the Fig. 3 census: each uplink/downlink of top switch `(i,j)`
//! carries exactly `r-1` SD pairs with one source (up) or one destination
//! (down).

use crate::{Ctx, RowResult};
use ftclos_analysis::TextTable;
use ftclos_core::search::{find_blocking_exhaustive, find_blocking_two_pair};
use ftclos_core::verify::{is_nonblocking_deterministic, updown_discipline, LinkAudit};
use ftclos_routing::{route_all, SinglePathRouter, YuanDeterministic};
use ftclos_topo::Ftree;
use ftclos_traffic::{patterns, SdPair};

pub fn e4(ctx: &mut Ctx) -> RowResult {
    ctx.banner("E4a", "Fig. 3 — SD pairs on the links of top switch (i,j)")?;
    let ft = Ftree::new(3, 9, 7)?;
    let router = YuanDeterministic::new(&ft)?;
    let audit = LinkAudit::build(&router);
    let mut table = TextTable::new(["link", "#SD pairs", "#sources", "#dests"]);
    // Sample top (1, 2) and bottom 0, as in Fig. 3's generic (i,j), v.
    let top = ft.top_index(ft.top_ij(1, 2)).ok_or("top (1,2) exists")?;
    let (us, ud) = audit
        .channel_census(ft.up_channel(0, top))
        .ok_or("the uplink carries pairs")?;
    let (ds, dd) = audit
        .channel_census(ft.down_channel(top, 0))
        .ok_or("the downlink carries pairs")?;
    table.row([
        "bottom 0 -> top (1,2)".to_string(),
        (us.len().max(ud.len())).to_string(),
        us.len().to_string(),
        ud.len().to_string(),
    ]);
    table.row([
        "top (1,2) -> bottom 0".to_string(),
        (ds.len().max(dd.len())).to_string(),
        ds.len().to_string(),
        dd.len().to_string(),
    ]);
    ctx.print(table.render())?;
    ctx.check(
        us.len() == 1 && ud.len() == ft.r() - 1,
        "uplink: one source, r-1 destinations",
    )?;
    ctx.check(
        dd.len() == 1 && ds.len() == ft.r() - 1,
        "downlink: one destination, r-1 sources",
    )?;
    ctx.check(
        updown_discipline(&router, ft.topology()).is_ok(),
        "every uplink single-source, every downlink single-destination",
    )?;

    ctx.banner("E4b", "Lemma 1 audit (complete) across fabric sizes")?;
    for (n, r) in [(2usize, 5usize), (2, 8), (3, 7), (3, 12), (4, 9), (4, 20)] {
        let ft = Ftree::new(n, n * n, r)?;
        let router = YuanDeterministic::new(&ft)?;
        let name = format!("ftree({n}+{}, {r})", n * n);
        ctx.check(
            is_nonblocking_deterministic(&router),
            &format!("{name}: Lemma 1 audit passes (nonblocking)"),
        )?;
        ctx.check(
            find_blocking_two_pair(&router).is_nonblocking(),
            &format!("{name}: no blocking two-pair pattern exists"),
        )?;
    }

    ctx.banner("E4c", "exhaustive permutation sweep on a tiny fabric")?;
    let tiny = Ftree::new(2, 4, 3)?;
    let blocked = find_blocking_exhaustive(&YuanDeterministic::new(&tiny)?);
    ctx.result_line("permutations checked", "6! = 720")?;
    ctx.check(
        blocked.is_none(),
        "all 720 permutations of ftree(2+4,3) contention-free",
    )?;

    ctx.banner("E4d", "randomized + structured sweeps on ftree(4+16, 12)")?;
    let big = Ftree::new(4, 16, 12)?;
    let big_router = YuanDeterministic::new(&big)?;
    let mut rng = ctx.rng(0);
    let mut max_load = 0u32;
    let trials = 500usize;
    for _ in 0..trials {
        let perm = patterns::random_full(big.num_leaves() as u32, &mut rng);
        max_load = max_load.max(route_all(&big_router, &perm)?.max_channel_load());
    }
    ctx.result_line("random permutations", trials)?;
    ctx.result_line("max channel load observed", max_load)?;
    ctx.check(max_load <= 1, "500 random permutations: zero contention")?;
    for pat in patterns::StructuredPattern::ALL {
        if let Some(perm) = pat.generate(big.num_leaves() as u32) {
            ctx.check(
                route_all(&big_router, &perm)?.max_channel_load() <= 1,
                &format!("{pat:?} pattern contention-free"),
            )?;
        }
    }

    // Path-shape sanity: 4 hops cross-switch, 2 same-switch.
    let hops = big_router.route(SdPair::new(0, 47)).len();
    ctx.check(hops == 4, "cross-switch paths have 4 hops")?;
    Ok(())
}
