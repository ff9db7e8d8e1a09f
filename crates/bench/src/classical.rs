//! E16 (context) — the classical centralized-controller hierarchy the paper
//! contrasts against, exercised on a circuit-switched `Clos(n, m, r)`:
//! strict-sense (`m >= 2n-1`) never blocks under churn, `n <= m < 2n-1`
//! blocks occasionally but always recovers by rearrangement (Beneš), and
//! `m < n` fails even with rearrangement. None of this machinery exists in
//! a distributed-control fat-tree — which is exactly why the paper's
//! nonblocking definition needs `m >= n²` instead of `2n-1`.

use crate::{ensure, Ctx, RowResult};
use ftclos_analysis::TextTable;
use ftclos_core::circuit::{CircuitClos, ConnectError, MiddlePolicy};
use ftclos_core::wide_sense::{verify_witness, wide_sense_search, WideSense};
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Random connect/disconnect churn; returns (attempts, blocked,
/// rearrangement_failures).
fn churn(
    n: usize,
    m: usize,
    r: usize,
    steps: usize,
    mut rng: ChaCha8Rng,
) -> Result<(usize, usize, usize), String> {
    let mut c = CircuitClos::new(n, m, r, MiddlePolicy::FirstFit);
    let mut busy_in: Vec<u32> = Vec::new();
    let (mut attempts, mut blocked, mut rearrange_failures) = (0, 0, 0);
    for _ in 0..steps {
        if rng.gen_bool(0.55) {
            let s = rng.gen_range(0..c.ports());
            let d = rng.gen_range(0..c.ports());
            match c.connect(s, d) {
                Ok(_) => {
                    attempts += 1;
                    busy_in.push(s);
                }
                Err(ConnectError::Blocked) => {
                    attempts += 1;
                    blocked += 1;
                    // A centralized controller would rearrange:
                    match c.connect_rearranging(s, d) {
                        Ok(_) => busy_in.push(s),
                        Err(_) => rearrange_failures += 1,
                    }
                }
                Err(_) => {} // busy port: not an attempt
            }
        } else if let Some(idx) = (!busy_in.is_empty()).then(|| rng.gen_range(0..busy_in.len())) {
            let s = busy_in.swap_remove(idx);
            c.disconnect(s);
        }
    }
    c.audit()?;
    Ok((attempts, blocked, rearrange_failures))
}

pub fn e16(ctx: &mut Ctx) -> RowResult {
    ctx.banner(
        "E16",
        "classical Clos(n, m, r) under centralized circuit switching",
    )?;
    let (n, r) = (3usize, 5usize);
    let mut table = TextTable::new([
        "m",
        "regime",
        "attempts",
        "blocked (direct)",
        "rearrange failures",
    ]);
    for m in 1..=2 * n - 1 {
        let regime = if m >= 2 * n - 1 {
            "strict-sense"
        } else if m >= n {
            "rearrangeable"
        } else {
            "sub-rearrangeable"
        };
        let (attempts, blocked, rfail) = churn(n, m, r, 20_000, ctx.rng(0))?;
        table.row([
            m.to_string(),
            regime.to_string(),
            attempts.to_string(),
            blocked.to_string(),
            rfail.to_string(),
        ]);
        match regime {
            "strict-sense" => {
                ctx.check(
                    blocked == 0,
                    &format!("m = {m} = 2n-1: never blocks (Clos 1953)"),
                )?;
            }
            "rearrangeable" => {
                ctx.check(
                    rfail == 0,
                    &format!("m = {m} >= n: every block recovered by rearrangement (Beneš 1962)"),
                )?;
                if m == n {
                    ctx.check(
                        blocked > 0,
                        &format!("m = {m}: direct first-fit does block sometimes (wide-sense gap)"),
                    )?;
                }
            }
            _ => {
                ctx.check(
                    rfail > 0,
                    &format!("m = {m} < n: even rearrangement cannot always help"),
                )?;
            }
        }
    }
    ctx.print(table.render())?;

    ctx.banner(
        "E16c",
        "wide-sense verdicts by exhaustive state-space search",
    )?;
    // For tiny shapes the reachable state space under a deterministic
    // policy is finite: decide wide-sense nonblocking-ness exactly.
    let mut ws_table = TextTable::new(["shape", "policy", "verdict"]);
    let (mut free, mut wedged) = (Vec::new(), Vec::new());
    for (wn, wm, wr) in [(2usize, 1usize, 2usize), (2, 2, 2), (2, 2, 3), (2, 3, 2)] {
        let verdict_str = match wide_sense_search(wn, wm, wr, MiddlePolicy::FirstFit, 2_000_000) {
            WideSense::Nonblocking(states) => {
                free.push((wn, wm, wr));
                format!("wide-sense NONBLOCKING ({states} states)")
            }
            WideSense::Blocked(moves) => {
                wedged.push((wn, wm, wr));
                ensure(
                    verify_witness(wn, wm, wr, MiddlePolicy::FirstFit, &moves),
                    "the blocking witness replays",
                )?;
                format!("BLOCKED after {} moves (witness verified)", moves.len())
            }
            WideSense::Exhausted(states) => format!("inconclusive ({states} states)"),
        };
        ws_table.row([
            format!("Clos({wn},{wm},{wr})"),
            "first-fit".to_string(),
            verdict_str,
        ]);
    }
    ctx.print(ws_table.render())?;
    ctx.check(
        free.contains(&(2, 3, 2)),
        "m = 2n-1: exhaustively wide-sense nonblocking",
    )?;
    ctx.check(
        wedged.contains(&(2, 2, 3)),
        "n <= m < 2n-1: adversary wedges first-fit (witness found)",
    )?;

    ctx.banner("E16b", "full permutations at m = n via rearrangement")?;
    let mut rng = ctx.rng(1);
    let mut ok = true;
    for _ in 0..50 {
        let mut c = CircuitClos::new(n, n, r, MiddlePolicy::FirstFit);
        let mut dsts: Vec<u32> = (0..c.ports()).collect();
        dsts.shuffle(&mut rng);
        for (s, &d) in dsts.iter().enumerate() {
            ok &= c.connect_rearranging(s as u32, d).is_ok();
        }
        ok &= c.active() == c.ports() as usize;
    }
    ctx.check(ok, "50 random full permutations fully connected at m = n")?;
    ctx.result_line(
        "contrast",
        "distributed packet routing has no controller to rearrange: the paper needs m >= n² instead",
    )?;
    Ok(())
}
