//! V1 — simulator validation against classic input-queued switch results.
//!
//! Before trusting the E11 throughput numbers, validate the packet engine
//! against independently-known behaviour:
//! * FIFO input queues on a crossbar under saturated uniform traffic cap
//!   near Karol/Hluchyj/Morgan's 58.6% (finite buffers with injection
//!   backpressure land slightly above).
//! * VOQ + iSLIP arbitration removes head-of-line blocking and approaches
//!   line rate (McKeown), improving with iterations and buffer depth.
//! * Permutation traffic (one flow per input) shows no HOL effect at all.

use crate::{sim_cfg, throughput, Ctx, RowResult, XbRouter, SEED};
use ftclos_analysis::TextTable;
use ftclos_sim::{Arbiter, Policy, SimConfig, Workload};
use ftclos_topo::crossbar;
use ftclos_traffic::patterns;

pub fn v1(ctx: &mut Ctx) -> RowResult {
    ctx.banner(
        "V1",
        "input-queued crossbar, saturated uniform traffic (16 ports)",
    )?;
    let xb = crossbar(16)?;
    let router = XbRouter(&xb);
    let uni = Workload::uniform_random(16, 1.0);
    let mut table = TextTable::new(["arbiter", "buffer", "throughput"]);
    let mut results = std::collections::HashMap::new();
    for cap in [16usize, 64] {
        for (label, arbiter) in [
            ("HOL FIFO", Arbiter::HolFifo),
            ("iSLIP-1", Arbiter::Voq { iterations: 1 }),
            ("iSLIP-3", Arbiter::Voq { iterations: 3 }),
        ] {
            let cfg = SimConfig {
                queue_capacity: cap,
                arbiter,
                ..sim_cfg(500, 3_000)
            };
            let policy = Policy::from_single_path(&router);
            let thr = throughput(xb.topology(), cfg, policy, &uni, SEED)?;
            table.row([label.to_string(), cap.to_string(), format!("{thr:.3}")]);
            results.insert((label, cap), thr);
        }
    }
    ctx.print(table.render())?;

    let hol = results[&("HOL FIFO", 64usize)];
    ctx.check(
        (0.5..0.78).contains(&hol),
        &format!("HOL FIFO saturates near the classic 58.6% limit (measured {hol:.3})"),
    )?;
    ctx.check(
        results[&("HOL FIFO", 16usize)] - hol < 0.02,
        "HOL limit is buffer-independent (it is a structural effect)",
    )?;
    ctx.check(
        results[&("iSLIP-1", 64usize)] > hol + 0.1,
        "iSLIP-1 clearly beats HOL FIFO",
    )?;
    ctx.check(
        results[&("iSLIP-3", 64usize)] > 0.93,
        "iSLIP-3 approaches line rate",
    )?;

    ctx.banner("V1b", "permutation traffic has no HOL component")?;
    let perm = patterns::shift(16, 5);
    let w = Workload::permutation(&perm, 1.0);
    for (label, arbiter) in [
        ("HOL FIFO", Arbiter::HolFifo),
        ("iSLIP-1", Arbiter::Voq { iterations: 1 }),
    ] {
        let cfg = SimConfig {
            arbiter,
            ..sim_cfg(300, 1_500)
        };
        let policy = Policy::from_single_path(&router);
        let thr = throughput(xb.topology(), cfg, policy, &w, SEED)?;
        ctx.result_line(label, format!("{thr:.3}"))?;
        ctx.check(thr > 0.97, &format!("{label}: line rate on a permutation"))?;
    }
    Ok(())
}
