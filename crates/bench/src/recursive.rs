//! E10 — the Discussion-section recursive construction: a three-level
//! nonblocking network from `(n+n²)`-port switches.

use crate::{Ctx, RowResult};
use ftclos_analysis::TextTable;
use ftclos_core::construct::NonblockingThreeLevel;
use ftclos_core::verify::is_nonblocking_deterministic;
use ftclos_traffic::patterns;

pub fn e10(ctx: &mut Ctx) -> RowResult {
    ctx.banner("E10", "three-level recursive nonblocking network")?;
    let mut table = TextTable::new([
        "n",
        "radix",
        "ports n⁴+n³",
        "switches (measured)",
        "2n⁴+2n³+n²",
        "paper prose 2n⁴+3n³+n²",
    ]);
    for n in [1usize, 2, 3] {
        let net = NonblockingThreeLevel::new(n)?;
        let formula = 2 * n.pow(4) + 2 * n.pow(3) + n.pow(2);
        let paper = 2 * n.pow(4) + 3 * n.pow(3) + n.pow(2);
        table.row([
            n.to_string(),
            net.switch_radix().to_string(),
            net.ports().to_string(),
            net.switches().to_string(),
            formula.to_string(),
            paper.to_string(),
        ]);
        ctx.check(
            net.ports() == n.pow(4) + n.pow(3),
            &format!("n={n}: ports match n⁴+n³"),
        )?;
        ctx.check(
            net.switches() == formula,
            &format!("n={n}: switch count matches r + n²(2n²+n) = 2n⁴+2n³+n²"),
        )?;
    }
    ctx.print(table.render())?;
    ctx.result_line(
        "note",
        "the paper's prose count 2n⁴+3n³+n² exceeds r + n²·(2n²+n) by n³ — see EXPERIMENTS.md",
    )?;

    ctx.banner("E10b", "nonblocking verification of the composed routing")?;
    let net = NonblockingThreeLevel::new(2)?;
    ctx.check(
        is_nonblocking_deterministic(&net.router()),
        "n=2: complete Lemma 1 audit of the 3-level fabric passes",
    )?;
    let mut rng = ctx.rng(0);
    for n in [2usize, 3] {
        let net = NonblockingThreeLevel::new(n)?;
        let ports = net.ports() as u32;
        let mut max_load = 0u32;
        for _ in 0..50 {
            let perm = patterns::random_full(ports, &mut rng);
            max_load = max_load.max(net.route(&perm)?.max_channel_load());
        }
        for pat in patterns::StructuredPattern::ALL {
            if let Some(perm) = pat.generate(ports) {
                max_load = max_load.max(net.route(&perm)?.max_channel_load());
            }
        }
        ctx.check(
            max_load <= 1,
            &format!("n={n}: 50 random + structured permutations contention-free"),
        )?;
    }

    ctx.banner(
        "E10c",
        "scaling: O(N²) N-port switches -> O(N²) ports, N = n+n²",
    )?;
    for n in [2usize, 4, 8] {
        let net = NonblockingThreeLevel::new(n)?;
        let big_n = (n + n * n) as f64;
        let sw_ratio = net.switches() as f64 / (big_n * big_n);
        let port_ratio = net.ports() as f64 / (big_n * big_n);
        ctx.result_line(
            &format!("n={n}"),
            format!("switches/N² = {sw_ratio:.3}, ports/N² = {port_ratio:.3}"),
        )?;
        ctx.check(
            sw_ratio < 3.0 && port_ratio > 0.5 && port_ratio <= 1.0,
            &format!("n={n}: ratios bounded (both O(N²))"),
        )?;
    }
    Ok(())
}
