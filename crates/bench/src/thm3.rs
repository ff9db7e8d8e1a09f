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
use ftclos_core::crossing_pairs;
use ftclos_core::search::{find_blocking_exhaustive, find_blocking_two_pair};
use ftclos_core::verify::{is_nonblocking_deterministic, updown_discipline};
use ftclos_routing::{route_all, SinglePathRouter, YuanDeterministic};
use ftclos_topo::{ChannelId, Ftree};
use ftclos_traffic::{patterns, SdPair};
use std::collections::BTreeSet;

/// The SD pairs crossing `c`, with their distinct sources and destinations:
/// `(#pairs, #sources, #destinations)`, exact.
fn link_census(router: &YuanDeterministic<'_>, c: ChannelId) -> (usize, usize, usize) {
    let pairs: Vec<SdPair> = crossing_pairs(router, c).collect();
    let distinct = |end: fn(&SdPair) -> u32| pairs.iter().map(end).collect::<BTreeSet<_>>().len();
    (pairs.len(), distinct(|p| p.src), distinct(|p| p.dst))
}

pub fn e4(ctx: &mut Ctx) -> RowResult {
    ctx.banner("E4a", "Fig. 3 — SD pairs on the links of top switch (i,j)")?;
    let ft = Ftree::new(3, 9, 7)?;
    let router = YuanDeterministic::new(&ft)?;
    let mut table = TextTable::new(["link", "#SD pairs", "#sources", "#dests"]);
    // Sample top (1, 2) and bottom 0, as in Fig. 3's generic (i,j), v.
    let top = ft.top_index(ft.top_ij(1, 2)).ok_or("top (1,2) exists")?;
    let up = link_census(&router, ft.up_channel(0, top));
    let down = link_census(&router, ft.down_channel(top, 0));
    for (link, (pairs, sources, dests)) in [
        ("bottom 0 -> top (1,2)", up),
        ("top (1,2) -> bottom 0", down),
    ] {
        table.row([
            link.to_string(),
            pairs.to_string(),
            sources.to_string(),
            dests.to_string(),
        ]);
    }
    ctx.print(table.render())?;
    let r = ft.r();
    ctx.check(
        up == (r - 1, 1, r - 1),
        "uplink: one source, r-1 destinations",
    )?;
    ctx.check(
        down == (r - 1, r - 1, 1),
        "downlink: one destination, r-1 sources",
    )?;
    ctx.check(
        updown_discipline(&router, ft.topology()) == Ok(None),
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
