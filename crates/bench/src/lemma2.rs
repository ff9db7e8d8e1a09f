//! E5 — Lemma 2: the maximum number of SD pairs one top-level switch can
//! route is at most `r(r-1)` when `r >= 2n+1` and at most `2nr` when
//! `r <= 2n+1`.
//!
//! For small shapes we compute the *exact* maximum (mode enumeration) and
//! compare against the paper's bound and the explicit `r(r-1)` type-(3)
//! construction; larger shapes get the greedy lower bound.

use crate::{ensure, Ctx, RowResult};
use ftclos_analysis::TextTable;
use ftclos_core::lemma2::{
    exact_max, greedy_max, is_routable_through_root, lemma2_bound, type3_construction,
};

pub fn e5(ctx: &mut Ctx) -> RowResult {
    ctx.banner("E5", "Lemma 2 — max SD pairs through one top switch")?;
    let mut table = TextTable::new([
        "n",
        "r",
        "regime",
        "bound",
        "type3 r(r-1)",
        "greedy",
        "exact",
    ]);
    let shapes = [
        (1usize, 3usize),
        (1, 4),
        (1, 5),
        (2, 3),
        (2, 4),
        (2, 5),
        (2, 6),
        (3, 3),
        (3, 7),
        (3, 9),
        (4, 9),
        (4, 12),
    ];
    for &(n, r) in &shapes {
        let bound = lemma2_bound(n, r);
        let regime = if r > 2 * n { "r>=2n+1" } else { "r<=2n+1" };
        let t3 = type3_construction(n, r);
        ensure(
            is_routable_through_root(n, r, &t3),
            "the type-(3) construction routes through the root",
        )?;
        let greedy = greedy_max(n, r);
        let exact = exact_max(n, r, 500_000_000);
        table.row([
            n.to_string(),
            r.to_string(),
            regime.to_string(),
            bound.to_string(),
            t3.len().to_string(),
            greedy.len().to_string(),
            exact.map_or("-".to_string(), |e| e.to_string()),
        ]);
        ctx.check(
            t3.len() <= bound && greedy.len() <= bound,
            &format!("n={n} r={r}: constructions within the bound"),
        )?;
        if let Some(e) = exact {
            ctx.check(
                e <= bound,
                &format!("n={n} r={r}: exact max {e} <= bound {bound}"),
            )?;
            if r > 2 * n {
                ctx.check(
                    e == r * (r - 1),
                    &format!(
                        "n={n} r={r}: bound r(r-1) is TIGHT (exact == {})",
                        r * (r - 1)
                    ),
                )?;
            }
        }
    }
    ctx.print(table.render())?;

    // The counting consequence (Theorem 2's denominator): total pairs /
    // per-top max == n² in the large regime.
    ctx.banner(
        "E5b",
        "counting consequence: r(r-1)n² / r(r-1) = n² tops needed",
    )?;
    for (n, r) in [(2usize, 5usize), (3, 7), (4, 9)] {
        let total = r * (r - 1) * n * n;
        let per_top = lemma2_bound(n, r);
        ctx.result_line(
            &format!("n={n} r={r}"),
            format!(
                "{total} pairs / {per_top} per top = {} tops",
                total / per_top
            ),
        )?;
        ctx.check(
            total / per_top == n * n,
            &format!("n={n} r={r}: quotient is n²"),
        )?;
    }
    Ok(())
}
