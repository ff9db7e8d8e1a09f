//! `ftclos route <n> <m> <r> [--router R] [--pattern P] [--seed S]` —
//! route one pattern and report link loads.

use super::common::RouterName::{self, Adaptive, DModK, Greedy, Rearrangeable, SModK, Yuan};
use super::common::{build_ftree, fabric, make_pattern, route_named};
use crate::opts::{CliError, Opts};
use ftclos_core::flow;
use ftclos_obs::{Recorder as _, Registry};
use std::fmt::Write as _;

/// The routers `--router` takes, default first.
pub(crate) const ROSTER: &[RouterName] = &[Yuan, DModK, SModK, Adaptive, Greedy, Rearrangeable];

/// Run the command.
pub fn run(opts: &Opts, rec: &Registry) -> Result<String, CliError> {
    let ft = build_ftree(opts)?;
    let router = RouterName::flag(opts, ROSTER)?;
    let seed: u64 = opts.flag_or("seed", 0)?;
    let spec = opts.flag("pattern").unwrap_or("random");
    let perm = make_pattern(spec, ft.num_leaves() as u32, seed)?;
    let assignment = {
        let _s = rec.span("route.assign");
        route_named(&ft, router, &perm)?
    };
    rec.add("route.pairs", assignment.len() as u64);
    let stats = flow::load_stats(&assignment);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "routed {} SD pairs of `{spec}` on {} with `{router}`:",
        assignment.len(),
        fabric(&ft)
    );
    let _ = writeln!(
        out,
        "  max channel load = {} ({})",
        stats.max,
        if stats.max <= 1 {
            "contention-free"
        } else {
            "CONTENTION"
        }
    );
    let _ = writeln!(
        out,
        "  channels used = {}, mean load = {:.3}",
        stats.used_channels, stats.mean
    );
    let _ = writeln!(
        out,
        "  flow-level saturation throughput = {:.1}%",
        100.0 * flow::saturation_throughput(&assignment)
    );
    let tops = assignment.tops_used(ft.topology());
    let _ = writeln!(out, "  top-level switches used = {}", tops.len());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Opts {
        Opts::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn yuan_contention_free() {
        let out = run(&argv("2 4 5 --pattern shift:3"), &Registry::new()).unwrap();
        assert!(out.contains("max channel load = 1"));
        assert!(out.contains("100.0%"));
    }

    #[test]
    fn dmodk_can_contend() {
        let reg = Registry::new();
        let out = run(
            &argv("3 2 7 --router dmodk --pattern random --seed 5"),
            &reg,
        )
        .unwrap();
        assert!(out.contains("routed"));
        assert!(reg.snapshot().counter("route.pairs").unwrap_or(0) > 0);
    }

    #[test]
    fn adaptive_reports_tops() {
        let out = run(
            &argv("2 16 4 --router adaptive --pattern random"),
            &Registry::new(),
        )
        .unwrap();
        assert!(out.contains("top-level switches used"));
        assert!(out.contains("contention-free"));
    }
}
