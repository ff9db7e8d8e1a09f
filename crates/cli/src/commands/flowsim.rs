//! `ftclos flowsim <n> <m> <r> [--router R] [--pattern P] [--seed S]
//! [--json] [--fail-tops K] [--fail-links K]` — max-min fair fluid
//! flow-rate simulation: the delivered throughput each flow settles at.
//!
//! Without `--pattern`, sweeps the standard adversarial suite and prints
//! one line per pattern; with `--pattern`, solves just that pattern.
//! `--json` emits the same reports as a JSON array (the shape the E19
//! bench writes). `--fail-tops` / `--fail-links` solve on the surviving
//! hardware via the fault-masked routing variants.

use super::common::RouterName::{
    self, Adaptive, DModK, Greedy, Multipath, Rearrangeable, SModK, Yuan,
};
use super::common::{build_ftree, fabric, make_pattern, FaultFlags, SinglePath};
use crate::opts::{CliError, Opts};
use ftclos_flowsim::{standard_suite, sweep_patterns_with, FluidReport};
use ftclos_obs::json::quote;
use ftclos_obs::Registry;
use ftclos_routing::{
    FaultAware, GreedyLocalAdaptive, LinkLoadView, MaskedAdaptive, MaskedMultipath,
    NonblockingAdaptive, ObliviousMultipath, PlanStrategy, RearrangeableRouter, RoutingError,
};
use ftclos_topo::{ChannelCapacities, FaultyView, Ftree};
use ftclos_traffic::Permutation;
use std::fmt::Write as _;

/// The routers `--router` takes, default first (`greedy`/`rearrangeable`
/// have no fault-masked variant, so they are healthy-fabric only).
pub(crate) const ROSTER: &[RouterName] = &[
    Yuan,
    DModK,
    SModK,
    Adaptive,
    Multipath,
    Greedy,
    Rearrangeable,
];

/// One pattern's outcome: its report, or why it could not be routed.
type Outcome = (String, Result<FluidReport, String>);

/// Run the command.
pub fn run(opts: &Opts, rec: &Registry) -> Result<String, CliError> {
    let ft = build_ftree(opts)?;
    let router = RouterName::flag(opts, ROSTER)?;
    let seed: u64 = opts.flag_or("seed", 0)?;
    let faults = FaultFlags::parse(opts, &ft, 0)?;
    let json: bool = opts.flag_or("json", false)?;

    let ports = ft.num_leaves() as u32;
    let suite: Vec<(String, Permutation)> = match opts.flag("pattern") {
        Some(spec) => vec![(spec.to_string(), make_pattern(spec, ports, seed)?)],
        None => standard_suite(ports),
    };
    let caps = ChannelCapacities::unit(ft.topology());
    let faulted = faults.any();
    let view = FaultyView::new(ft.topology(), &faults.set);

    // Sweep the suite through one scheme; routing failures become
    // per-pattern error strings rather than sinking the whole command.
    let solve = |scheme: &(dyn LinkLoadView + Sync)| -> Vec<Outcome> {
        let results = sweep_patterns_with(scheme, &suite, &caps, rec);
        let names = suite.iter().map(|(name, _)| name.clone());
        names
            .zip(results.into_iter().map(|r| r.map_err(|e| e.to_string())))
            .collect()
    };
    let fail = |e: RoutingError| CliError::Failed(e.to_string());
    let multipath = || ObliviousMultipath::new(&ft);
    let reports = match (router, faulted) {
        (Multipath, false) => solve(&multipath()),
        (Multipath, true) => solve(&MaskedMultipath::new(multipath(), &view)),
        (Adaptive, false) => solve(&NonblockingAdaptive::new(&ft).map_err(fail)?),
        (Adaptive, true) => {
            let ad = NonblockingAdaptive::new(&ft).map_err(fail)?;
            solve(&MaskedAdaptive::new(
                &ad,
                &view,
                PlanStrategy::GreedyLargestSubset,
            ))
        }
        (Greedy, false) => solve(&GreedyLocalAdaptive::new(&ft)),
        (Rearrangeable, false) => solve(&RearrangeableRouter::new(&ft).map_err(fail)?),
        (Greedy | Rearrangeable, true) => {
            return Err(CliError::Usage(format!(
                "router `{router}` has no fault-masked variant (drop --fail-tops/--fail-links)"
            )))
        }
        (_, false) => solve(&SinglePath::new(&ft, router)?),
        (_, true) => solve(&FaultAware::new(SinglePath::new(&ft, router)?, &view)),
    };

    if json {
        return Ok(render_json(&reports));
    }
    render_text(&ft, router, faulted, view.num_dead_channels(), &reports)
}

fn render_json(reports: &[Outcome]) -> String {
    let items: Vec<String> = reports
        .iter()
        .map(|(name, res)| match res {
            Ok(r) => r.to_json(),
            Err(e) => format!("{{\"pattern\":{},\"error\":{}}}", quote(name), quote(e)),
        })
        .collect();
    format!("[{}]", items.join(","))
}

fn render_text(
    ft: &Ftree,
    router: RouterName,
    faulted: bool,
    dead_channels: usize,
    reports: &[Outcome],
) -> Result<String, CliError> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fluid flow-rate simulation: {}, {} hosts, router {}{}",
        fabric(ft),
        ft.num_leaves(),
        router,
        if faulted {
            format!(" (fault-masked, {dead_channels} dead channel(s))")
        } else {
            String::new()
        }
    );
    let _ = writeln!(
        out,
        "{:<16} {:>6} {:>10} {:>8} {:>8} {:>11} {:>7}  util deciles",
        "pattern", "flows", "delivered", "mean", "worst", "demand-max", "rounds"
    );
    for (name, res) in reports {
        match res {
            Ok(r) => {
                let _ = writeln!(
                    out,
                    "{:<16} {:>6} {:>10.4} {:>8.4} {:>8.4} {:>11.4} {:>7}  {}{}",
                    r.pattern,
                    r.num_flows,
                    r.aggregate_throughput,
                    r.mean_rate,
                    r.worst_rate,
                    r.max_demand_congestion,
                    r.rounds,
                    r.utilization.to_compact_string(),
                    if r.all_unit_rate { "  [full rate]" } else { "" }
                );
            }
            Err(e) => {
                let _ = writeln!(out, "{name:<16} unroutable: {e}");
            }
        }
    }
    let delivered_all = reports
        .iter()
        .all(|(_, r)| r.as_ref().map(|r| r.all_unit_rate).unwrap_or(false));
    let _ = writeln!(
        out,
        "verdict: {}",
        if delivered_all {
            "every tested pattern delivered at full rate (fluid-nonblocking)"
        } else {
            "some pattern degrades below unit rate (fluid-blocking)"
        }
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Opts {
        Opts::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn yuan_full_fabric_delivers_everything() {
        let reg = Registry::new();
        let out = run(&argv("2 4 5"), &reg).unwrap();
        assert!(out.contains("fluid-nonblocking"), "{out}");
        assert!(out.contains("[full rate]"), "{out}");
        let snap = reg.snapshot();
        assert!(snap.spans.iter().any(|s| s.path == "flowsim.sweep"));
        assert!(snap.counter("flowsim.rounds").unwrap_or(0) > 0);
    }

    #[test]
    fn undersized_single_path_degrades_on_some_pattern() {
        // m = n: random permutations collide under d-mod-k.
        let out = run(
            &argv("2 2 5 --router dmodk --pattern random --seed 3"),
            &Registry::new(),
        )
        .unwrap();
        assert!(out.contains("fluid-blocking"), "{out}");
    }

    #[test]
    fn json_is_emitted_and_structured() {
        let out = run(
            &argv("2 4 5 --pattern shift:3 --json true"),
            &Registry::new(),
        )
        .unwrap();
        assert!(
            out.starts_with('[') && out.trim_end().ends_with(']'),
            "{out}"
        );
        assert!(out.contains("\"router\":\"yuan-deterministic\""), "{out}");
        assert!(out.contains("\"all_unit_rate\":true"), "{out}");
    }

    #[test]
    fn fault_masked_multipath_concentrates_load() {
        let out = run(
            &argv("2 4 5 --router multipath --fail-tops 1"),
            &Registry::new(),
        )
        .unwrap();
        assert!(out.contains("fault-masked"), "{out}");
        assert!(out.contains("dead channel"), "{out}");
    }

    #[test]
    fn faulted_deterministic_reports_unroutable_patterns() {
        // Yuan's pinned top (0,0) dies; shifts that use it become
        // unroutable instead of crashing the command.
        let out = run(
            &argv("2 4 5 --fail-tops 1 --pattern shift:2"),
            &Registry::new(),
        )
        .unwrap();
        assert!(out.contains("unroutable"), "{out}");
    }

    #[test]
    fn bad_inputs_are_usage_errors_not_panics() {
        assert!(matches!(
            run(&argv("2 4 5 --router warp"), &Registry::new()),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&argv("2 4 5 --fail-tops 99"), &Registry::new()),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(
                &argv("2 4 5 --router greedy --fail-tops 1"),
                &Registry::new()
            ),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&argv("2 4 5 --pattern nope"), &Registry::new()),
            Err(CliError::Usage(_))
        ));
    }
}
