//! `ftclos flowsim <n> <m> <r> [--router R] [--pattern P] [--seed S]
//! [--json] [--fail-tops K] [--fail-links K]` — max-min fair fluid
//! flow-rate simulation: the delivered throughput each flow settles at.
//!
//! Without `--pattern`, sweeps the standard adversarial suite and prints
//! one line per pattern; with `--pattern`, solves just that pattern.
//! `--json` emits the same reports as a JSON array. `--fail-tops` /
//! `--fail-links` solve on the surviving hardware via the fault-masked
//! routing variants.

use super::common::RouterName::{
    self, Adaptive, DModK, Greedy, Multipath, Rearrangeable, SModK, Yuan,
};
use super::common::{build_ftree, fabric, make_pattern, FaultFlags, SinglePath};
use super::{Report, Reported};
use crate::opts::{CliError, Opts};
use ftclos_flowsim::{standard_suite, sweep_patterns_with, FluidReport};
use ftclos_obs::json::Json;
use ftclos_obs::{obj, Registry};
use ftclos_routing::{
    FaultAware, GreedyLocalAdaptive, LinkLoadView, MaskedAdaptive, MaskedMultipath,
    NonblockingAdaptive, ObliviousMultipath, PlanStrategy, RearrangeableRouter, RoutingError,
};
use ftclos_topo::{ChannelCapacities, FaultyView, Ftree};
use ftclos_traffic::Permutation;
use std::fmt;

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

/// What `flowsim` reports: one outcome a pattern; its JSON is the array of
/// their flowsim report objects (the shape the E19 bench writes).
struct FlowsimReport {
    ft: Ftree,
    router: RouterName,
    /// Dead channels, when faults were asked for.
    dead: Option<usize>,
    outcomes: Vec<Outcome>,
}

/// Run the command.
pub fn run(opts: &Opts, rec: &Registry) -> Reported {
    let ft = build_ftree(opts)?;
    let router = RouterName::flag(opts, ROSTER)?;
    let seed: u64 = opts.flag_or("seed", 0)?;
    let faults = FaultFlags::parse(opts, &ft, 0)?;

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
    let outcomes = match (router, faulted) {
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
    Ok(Box::new(FlowsimReport {
        router,
        dead: faulted.then(|| view.num_dead_channels()),
        outcomes,
        ft,
    }))
}

impl Report for FlowsimReport {
    fn json(&self) -> Json {
        let outcome = |(name, res): &Outcome| match res {
            Ok(r) => r.json(),
            Err(e) => obj! { "pattern" => name.as_str(), "error" => e.as_str() },
        };
        self.outcomes.iter().map(outcome).collect()
    }
}

impl fmt::Display for FlowsimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let masked = match self.dead {
            Some(dead) => format!(" (fault-masked, {dead} dead channel(s))"),
            None => String::new(),
        };
        let (fabric, hosts, router) = (fabric(&self.ft), self.ft.num_leaves(), self.router);
        writeln!(
            f,
            "fluid flow-rate simulation: {fabric}, {hosts} hosts, router {router}{masked}"
        )?;
        writeln!(
            f,
            "{:<16} {:>6} {:>10} {:>8} {:>8} {:>11} {:>7}  util deciles",
            "pattern", "flows", "delivered", "mean", "worst", "demand-max", "rounds"
        )?;
        for (name, res) in &self.outcomes {
            match res {
                Ok(r) => writeln!(
                    f,
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
                )?,
                Err(e) => writeln!(f, "{name:<16} unroutable: {e}")?,
            }
        }
        let delivered_all = self
            .outcomes
            .iter()
            .all(|(_, r)| r.as_ref().is_ok_and(|r| r.all_unit_rate));
        let verdict = if delivered_all {
            "every tested pattern delivered at full rate (fluid-nonblocking)"
        } else {
            "some pattern degrades below unit rate (fluid-blocking)"
        };
        writeln!(f, "verdict: {verdict}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Opts {
        Opts::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>()).unwrap()
    }

    /// The text report of `flowsim <args>`.
    fn text(args: &str, reg: &Registry) -> String {
        run(&argv(args), reg).unwrap().to_string()
    }

    #[test]
    fn yuan_full_fabric_delivers_everything() {
        let reg = Registry::new();
        let out = text("2 4 5", &reg);
        assert!(out.contains("fluid-nonblocking"), "{out}");
        assert!(out.contains("[full rate]"), "{out}");
        let snap = reg.snapshot();
        assert!(snap.spans.iter().any(|s| s.path == "flowsim.sweep"));
        assert!(snap.counter("flowsim.rounds").unwrap_or(0) > 0);
    }

    #[test]
    fn undersized_single_path_degrades_on_some_pattern() {
        // m = n: random permutations collide under d-mod-k.
        let out = text(
            "2 2 5 --router dmodk --pattern random --seed 3",
            &Registry::new(),
        );
        assert!(out.contains("fluid-blocking"), "{out}");
    }

    #[test]
    fn json_is_emitted_and_structured() {
        let report = run(&argv("2 4 5 --pattern shift:3"), &Registry::new()).unwrap();
        let out = report.json().write();
        assert!(
            out.starts_with('[') && out.trim_end().ends_with(']'),
            "{out}"
        );
        assert!(out.contains("\"router\":\"yuan-deterministic\""), "{out}");
        assert!(out.contains("\"all_unit_rate\":true"), "{out}");
    }

    #[test]
    fn fault_masked_multipath_concentrates_load() {
        let out = text("2 4 5 --router multipath --fail-tops 1", &Registry::new());
        assert!(out.contains("fault-masked"), "{out}");
        assert!(out.contains("dead channel"), "{out}");
    }

    #[test]
    fn faulted_deterministic_reports_unroutable_patterns() {
        // Yuan's pinned top (0,0) dies; shifts that use it become
        // unroutable instead of crashing the command.
        let out = text("2 4 5 --fail-tops 1 --pattern shift:2", &Registry::new());
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
