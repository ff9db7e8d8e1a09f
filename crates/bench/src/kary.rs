//! E15 (extension) — multi-level fat-trees: k-ary n-trees and m-port
//! n-trees under generic up*/down* routing.
//!
//! The paper's analysis is phrased on two-level `ftree(n+m, r)`, with the
//! Discussion section extending to more levels by recursion. This
//! experiment exercises the general-XGFT substrate: deterministic
//! destination-digit routing on k-ary n-trees is blocking (two-pair
//! witnesses exist), path diversity matches `∏ w_i`, and the packet
//! simulator shows the same throughput gap at three levels that E11 shows
//! at two.

use crate::{sim_cfg, throughput, Ctx, RowResult, SEED};
use ftclos_analysis::TextTable;
use ftclos_core::search::find_blocking_two_pair;
use ftclos_routing::{SinglePathRouter, XgftRouter};
use ftclos_sim::{Policy, Workload};
use ftclos_topo::{kary_ntree, mport_ntree, NodeId};
use ftclos_traffic::{patterns, SdPair};

pub fn e15(ctx: &mut Ctx) -> RowResult {
    ctx.banner("E15a", "k-ary n-tree structure and path diversity")?;
    let mut table = TextTable::new(["fabric", "leaves", "switches", "paths (farthest pair)"]);
    for (k, n) in [(2usize, 3usize), (3, 2), (4, 2), (2, 4)] {
        let t = kary_ntree(k, n)?;
        let router = XgftRouter::dmod(&t);
        let far = (t.num_leaves() - 1) as u32;
        let paths = router.all_paths(SdPair::new(0, far));
        table.row([
            format!("{k}-ary {n}-tree"),
            t.num_leaves().to_string(),
            t.num_switches().to_string(),
            paths.len().to_string(),
        ]);
        // Diversity = k^(n-1) for full-height pairs.
        ctx.check(
            paths.len() == k.pow(n as u32 - 1),
            &format!(
                "{k}-ary {n}-tree: k^(n-1) = {} paths to the far leaf",
                k.pow(n as u32 - 1)
            ),
        )?;
    }
    ctx.print(table.render())?;

    ctx.banner(
        "E15b",
        "deterministic routing on multi-level trees is blocking",
    )?;
    for (k, n) in [(2usize, 3usize), (3, 2), (4, 2)] {
        let t = kary_ntree(k, n)?;
        let router = XgftRouter::dmod(&t);
        let witness = find_blocking_two_pair(&router);
        ctx.check(
            witness.found_blocking(),
            &format!("{k}-ary {n}-tree + dest-digit routing has a blocking two-pair pattern"),
        )?;
    }
    // FT(4,3) too (the Table I family at height 3).
    let ft43 = mport_ntree(4, 3)?;
    let router43 = XgftRouter::dmod(&ft43);
    ctx.check(
        find_blocking_two_pair(&router43).found_blocking(),
        "FT(4,3) + dest-digit routing blocks",
    )?;

    ctx.banner(
        "E15c",
        "packet throughput on a 3-level tree vs its port count",
    )?;
    let cfg = sim_cfg(300, 1_500);
    let t = kary_ntree(4, 3)?; // 64 leaves
    let router = XgftRouter::dmod(&t);
    let mut rng = ctx.rng(0);
    let mut sum = 0.0;
    for i in 0..5u64 {
        let w = Workload::permutation(&patterns::random_derangement(64, &mut rng), 1.0);
        let policy = Policy::from_single_path(&router);
        sum += throughput(t.topology(), cfg, policy, &w, SEED + i)?;
    }
    let thr = sum / 5.0;
    ctx.result_line("4-ary 3-tree dest-digit throughput", format!("{thr:.3}"))?;
    ctx.check(
        thr < 0.9,
        "3-level deterministic fat-tree stays below line rate (blocking)",
    )?;

    // Reference: route paths still valid everywhere.
    let mut checked = 0;
    for s in 0..64u32 {
        for d in 0..64u32 {
            let p = router.route(SdPair::new(s, d));
            p.validate(t.topology(), NodeId(s), NodeId(d))?;
            checked += 1;
        }
    }
    ctx.result_line("routes validated", checked)?;
    Ok(())
}
