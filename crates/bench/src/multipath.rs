//! E7 — Section IV.B: traffic-oblivious multipath routing has the same
//! nonblocking condition as single-path routing.
//!
//! Evidence: (1) for any two cross-switch pairs sharing a source switch,
//! the spread-path unions violate Lemma 1 regardless of `m` — adversarial
//! packet timing can always collide them; (2) the packet simulator shows
//! random spreading still loses throughput on permutations where per-pair
//! paths overlap, while it *does* fix d-mod-k's worst case (better load
//! balance, unchanged nonblocking condition — exactly the paper's point).

use crate::{sim_cfg, throughput, Ctx, RowResult, SEED};
use ftclos_core::multipath_violation;
use ftclos_routing::{DModK, ObliviousMultipath, YuanDeterministic};
use ftclos_sim::{Policy, Workload};
use ftclos_topo::Ftree;
use ftclos_traffic::{patterns, Permutation, SdPair};

pub fn e7(ctx: &mut Ctx) -> RowResult {
    ctx.banner(
        "E7a",
        "Lemma 1 over spread-path unions (any m, any two pairs, one switch)",
    )?;
    for m in [2usize, 4, 16, 64] {
        let ft = Ftree::new(2, m, 5)?;
        let mp = ObliviousMultipath::new(&ft);
        let perm = Permutation::from_pairs(10, [SdPair::new(0, 4), SdPair::new(1, 6)])?;
        ctx.check(
            multipath_violation(&mp.spread_pattern(&perm)?).is_some(),
            &format!("m={m}: two same-switch pairs share a spread channel (can block)"),
        )?;
    }

    ctx.banner(
        "E7b",
        "random permutations: violations persist for m < n² spreads",
    )?;
    let mut rng = ctx.rng(0);
    let ft = Ftree::new(3, 4, 7)?; // m = 4 < n² = 9
    let mp = ObliviousMultipath::new(&ft);
    let mut with_violation = 0usize;
    let trials = 200usize;
    for _ in 0..trials {
        let perm = patterns::random_full(21, &mut rng);
        with_violation += usize::from(multipath_violation(&mp.spread_pattern(&perm)?).is_some());
    }
    ctx.result_line(
        "violating permutations",
        format!("{with_violation}/{trials}"),
    )?;
    ctx.check(
        with_violation == trials,
        "every sampled full permutation admits adversarial-timing contention",
    )?;

    ctx.banner(
        "E7c",
        "packet level: spreading balances load but is not nonblocking",
    )?;
    let cfg = sim_cfg(300, 1_500);
    // Funnel pattern: 4 sources of switch 0 target same-residue dests.
    let ft4 = Ftree::new(4, 4, 9)?;
    let perm = Permutation::from_pairs(36, (0..4).map(|k| SdPair::new(k, (k + 1) * 4)))?;
    let funnel = Workload::permutation(&perm, 1.0);
    let spread = ObliviousMultipath::new(&ft4);
    let single = Policy::from_single_path(&DModK::new(&ft4));
    let t_single = throughput(ft4.topology(), cfg, single, &funnel, SEED)?;
    let spreading = Policy::from_multipath(&spread, true);
    let t_spread = throughput(ft4.topology(), cfg, spreading, &funnel, SEED)?;
    ctx.result_line("d-mod-k throughput", format!("{t_single:.3}"))?;
    ctx.result_line("random-spread throughput", format!("{t_spread:.3}"))?;
    ctx.check(
        t_spread > t_single + 0.2,
        "spreading improves the funnel pattern (better load balance)",
    )?;

    // But against the Theorem 3 fabric on a full permutation, spreading
    // still collides transiently while Yuan routing is perfectly clean.
    let ftnb = Ftree::new(3, 9, 7)?;
    let spread_nb = ObliviousMultipath::new(&ftnb);
    let full = Workload::permutation(&patterns::random_full(21, &mut ctx.rng(1)), 1.0);
    let pinned = Policy::from_single_path(&YuanDeterministic::new(&ftnb)?);
    let t_yuan = throughput(ftnb.topology(), cfg, pinned, &full, SEED)?;
    let spreading = Policy::from_multipath(&spread_nb, true);
    let t_rand = throughput(ftnb.topology(), cfg, spreading, &full, SEED)?;
    ctx.result_line("Theorem 3 routing throughput", format!("{t_yuan:.3}"))?;
    ctx.result_line("random spread on same fabric", format!("{t_rand:.3}"))?;
    ctx.check(t_yuan > 0.95, "Theorem 3 routing delivers ~line rate")?;
    ctx.check(
        t_rand < t_yuan,
        "oblivious spreading pays transient-collision cost even with m = n²",
    )?;
    Ok(())
}
