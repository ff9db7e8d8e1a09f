//! E1 — Regenerate the paper's Table I: sizes of nonblocking
//! `ftree(n+n², n+n²)` vs rearrangeable `FT(N, 2)` for 20/30/42-port
//! building-block switches.

use crate::{ensure, Ctx, RowResult};
use ftclos_analysis::TextTable;
use ftclos_core::design;
use ftclos_topo::{mport_ntree, Ftree};

pub fn e1(ctx: &mut Ctx) -> RowResult {
    ctx.banner("E1", "Table I — nonblocking ftree(n+n², n+n²) vs FT(N, 2)")?;
    let rows = design::table_one(&[20, 30, 42]);
    let mut table = TextTable::new([
        "radix",
        "n",
        "NB switches",
        "NB ports",
        "FT(N,2) switches",
        "FT(N,2) ports",
    ]);
    for row in &rows {
        table.row([
            row.radix.to_string(),
            row.nonblocking.n.to_string(),
            row.nonblocking.switches.to_string(),
            row.nonblocking.ports.to_string(),
            row.rearrangeable.switches.to_string(),
            row.rearrangeable.ports.to_string(),
        ]);
    }
    ctx.print(table.render())?;

    // Paper's printed values (radix, NB switches, NB ports, FT switches, FT ports).
    let paper = [
        (20usize, 36usize, 80usize, 30usize, 200usize),
        (30, 55, 150, 45, 450),
        (42, 88, 252, 63, 884),
    ];
    for (row, &(radix, nb_sw, nb_ports, ft_sw, ft_ports)) in rows.iter().zip(&paper) {
        ensure(row.radix == radix, "design rows follow the paper's radices")?;
        ctx.check(
            row.nonblocking.ports == nb_ports && row.rearrangeable.switches == ft_sw,
            &format!("radix {radix}: primary counts match the paper"),
        )?;
        if row.nonblocking.switches != nb_sw {
            ctx.result_line(
                &format!("note radix {radix}"),
                format!(
                    "paper prints {nb_sw} NB switches, formula 2n²+n gives {} (paper arithmetic slip at n=6)",
                    row.nonblocking.switches
                ),
            )?;
        }
        if row.rearrangeable.ports != ft_ports {
            ctx.result_line(
                &format!("note radix {radix}"),
                format!(
                    "paper prints {ft_ports} FT ports, formula N²/2 gives {} (paper arithmetic slip at N=42)",
                    row.rearrangeable.ports
                ),
            )?;
        }
    }

    // Cross-check the designs against actually-built topologies.
    for row in &rows {
        let n = row.nonblocking.n;
        let nb = Ftree::new(n, n * n, n + n * n)?;
        ctx.check(
            nb.num_leaves() == row.nonblocking.ports
                && nb.num_switches() == row.nonblocking.switches,
            &format!("radix {}: built ftree matches design", row.radix),
        )?;
        let ft = mport_ntree(row.radix, 2)?;
        ctx.check(
            ft.num_leaves() == row.rearrangeable.ports
                && ft.num_switches() == row.rearrangeable.switches,
            &format!("radix {}: built FT(N,2) matches design", row.radix),
        )?;
    }
    Ok(())
}
