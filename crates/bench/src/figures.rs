//! E2 / E3 — Reproduce Fig. 1 (Clos and folded-Clos structure) and Fig. 2
//! (the `ftree(n+1, r)` subgraph) as DOT artifacts plus structural checks.

use crate::{Ctx, RowResult};
use ftclos_topo::dot::{to_dot, DotOptions};
use ftclos_topo::{Clos, Ftree, StructureReport, Topology};
use std::path::Path;

/// Write a DOT rendering of `topo` under `target/figures/`.
fn write_dot(file: &str, topo: &Topology, opts: &DotOptions) -> Result<(), String> {
    let dir = Path::new("target/figures");
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(file), to_dot(topo, opts)))
        .map_err(|e| format!("cannot write {file} under {}: {e}", dir.display()))
}

pub fn e2(ctx: &mut Ctx) -> RowResult {
    ctx.banner(
        "E2",
        "Fig. 1 — Clos(n,m,r) and ftree(n+m,r), logical equivalence",
    )?;
    // The paper's example shapes: Clos(n, m, r) and its folded version.
    let (n, m, r) = (2usize, 3usize, 4usize);
    let clos = Clos::new(n, m, r)?;
    let ftree = Ftree::new(n, m, r)?;
    ctx.check(clos.folds_to(&ftree), "Clos(2,3,4) folds to ftree(2+3,4)")?;

    let rep = StructureReport::new(ftree.topology());
    let at_level = |l: u8| rep.switches_per_level.get(&l).copied().unwrap_or(0);
    ctx.result_line("ftree leaves", rep.leaves)?;
    ctx.result_line("ftree bottoms", at_level(1))?;
    ctx.result_line("ftree tops", at_level(2))?;
    ctx.result_line("ftree cables", rep.cables)?;
    ctx.check(
        rep.leaves == r * n && at_level(1) == r && at_level(2) == m,
        "ftree(n+m,r) has r·n leaves, r bottoms, m tops",
    )?;

    let fig1a = DotOptions {
        name: "clos_2_3_4".into(),
        merge_bidir: false,
        rank_by_level: true,
    };
    let fig1b = DotOptions {
        name: "ftree_2p3_4".into(),
        ..DotOptions::default()
    };
    write_dot("fig1a_clos.dot", clos.topology(), &fig1a)?;
    write_dot("fig1b_ftree.dot", ftree.topology(), &fig1b)?;
    ctx.result_line(
        "artifacts",
        "target/figures/fig1a_clos.dot, fig1b_ftree.dot",
    )?;
    Ok(())
}

pub fn e3(ctx: &mut Ctx) -> RowResult {
    ctx.banner("E3", "Fig. 2 — the ftree(n+1, r) subgraph used by Lemma 2")?;
    let sub = Ftree::lemma2_subgraph(2, 5)?;
    let rep = StructureReport::new(sub.topology());
    let tops = rep.switches_per_level.get(&2).copied().unwrap_or(0);
    ctx.result_line("subgraph tops", tops)?;
    ctx.check(
        tops == 1,
        "subgraph keeps a single top-level switch (the root)",
    )?;
    ctx.check(
        sub.topology().out_channels(sub.top(0)).len() == 5,
        "root has r = 5 children",
    )?;
    let fig2 = DotOptions {
        name: "ftree_np1_r".into(),
        ..DotOptions::default()
    };
    write_dot("fig2_subgraph.dot", sub.topology(), &fig2)?;
    ctx.result_line("artifact", "target/figures/fig2_subgraph.dot")?;
    Ok(())
}
