//! `ftclos congestion <n> <m> <r> [--mode greedy|rounded|repaired]
//! [--pattern P] [--seed S] [--trials N] [--fail-tops K] [--fail-links K]
//! [--churn-links K --mtbf N --mttr N --churn-cycles N] [--json]` — the
//! min-congestion router family head-to-head against every baseline.
//!
//! For each pattern (the standard adversarial suite, or just `--pattern`),
//! every baseline router places the pattern and the min-congestion solver
//! plans it — warm-started from whichever baseline assignments project
//! into its candidate set, so the repaired plan is never worse than a
//! projectable baseline. Each row reports the exact max link load (via the
//! core engine's epoch-stamped load scratch), the deterministic lowest-id
//! witness channel carrying it, and the fluid max-min worst flow rate.
//! With faults, baselines route through their fault-masked variants (the
//! deterministic ones simply become unroutable — the paper's single-path
//! story) while the solver plans over the surviving candidate set. With
//! `--churn-links`, every distinct fault epoch of the flap schedule is
//! replayed as a repaired-vs-dmodk comparison.

use super::common::{
    build_ftree, churn_epochs, fabric, make_pattern, FaultFlags, RouterName, SinglePath,
};
use super::{Report, Reported};
use crate::opts::{CliError, Opts};
use ftclos_core::ContentionScratch;
use ftclos_flowsim::{solve_pattern_with, standard_suite};
use ftclos_obs::json::{Json, Number};
use ftclos_obs::{obj, Registry};
use ftclos_routing::{
    route_all, CongestionConfig, CongestionMode, CongestionPlan, DModK, FaultAware,
    FtreeCandidates, LinkLoadView, MaskedAdaptive, MaskedMultipath, MinCongestion,
    NonblockingAdaptive, ObliviousMultipath, PatternRouter, PlanStrategy, RouteAssignment,
};
use ftclos_topo::{ChannelCapacities, ChannelId, FaultyView, Ftree};
use ftclos_traffic::Permutation;
use std::fmt;

/// One head-to-head line: a router's placement of one pattern.
#[derive(Default)]
struct Row {
    router: String,
    /// Exact unsplittable max link load (single-path placements).
    max_load: Option<u32>,
    /// Fractional max expected load (the oblivious multipath spread).
    expected: Option<f64>,
    /// Lowest-id channel carrying the max load.
    witness: Option<ChannelId>,
    /// Fluid max-min worst flow rate, when the solve succeeds.
    worst_rate: Option<f64>,
    /// Solver statistics (congestion rows only).
    moves_rounds: Option<(u64, u64)>,
    /// Why the router could not place the pattern.
    err: Option<String>,
}

impl Row {
    fn unroutable(router: &str, err: String) -> Self {
        Self {
            router: router.to_string(),
            err: Some(err),
            ..Self::default()
        }
    }

    /// The row's fields that are present: an unroutable row is its router
    /// and error, a placed one its loads, witness, rate and solver counts.
    fn json(&self) -> Json {
        let mut row = obj! {
            "router" => self.router.as_str(), "error" => self.err.as_deref(),
            "max_load" => self.max_load,
            "expected_max_load" => self.expected.map(|x| Number::fixed(x, 6)),
            "witness_channel" => self.witness.map(ChannelId::index),
            "worst_rate" => self.worst_rate.map(|r| Number::fixed(r, 6)),
            "moves" => self.moves_rounds.map(|(m, _)| m),
            "rounds" => self.moves_rounds.map(|(_, r)| r),
        };
        if let Json::Obj(fields) = &mut row {
            fields.retain(|(_, v)| *v != Json::Null);
        }
        row
    }
}

/// One pattern's head-to-head: its name, flow count and one row a router,
/// the congestion solver last.
type Table = (String, usize, Vec<Row>);

/// A churn epoch: its dead channels, the solver's row and dmodk's.
type Epoch = (usize, Row, Row);

/// What `congestion` reports: one head-to-head table a pattern (each with
/// its verdict) and the repaired-vs-dmodk line of every churn epoch.
struct CongestionReport {
    ft: Ftree,
    mode: &'static str,
    seed: u64,
    /// Dead channels, when faults were asked for.
    dead: Option<usize>,
    tables: Vec<Table>,
    churn_pattern: String,
    churn: Vec<Epoch>,
}

/// Run the command.
pub fn run(opts: &Opts, rec: &Registry) -> Reported {
    let ft = build_ftree(opts)?;
    let mode = match opts.flag_or("mode", "repaired".to_string())?.as_str() {
        "greedy" => CongestionMode::Greedy,
        "rounded" => CongestionMode::Rounded,
        "repaired" => CongestionMode::Repaired,
        other => {
            return Err(CliError::Usage(format!(
                "unknown --mode `{other}` (one of greedy, rounded, repaired)"
            )))
        }
    };
    let seed: u64 = opts.flag_or("seed", 0)?;
    let trials: u32 = opts.flag_or("trials", 4)?;
    let faults = FaultFlags::parse(opts, &ft, 0)?;
    let churn = churn_epochs(opts, &ft)?;
    let config = CongestionConfig {
        mode,
        seed,
        rounding_trials: trials.max(1),
        ..CongestionConfig::default()
    };

    let ports = ft.num_leaves() as u32;
    let suite: Vec<(String, Permutation)> = match opts.flag("pattern") {
        Some(spec) => vec![(spec.to_string(), make_pattern(spec, ports, seed)?)],
        None => standard_suite(ports),
    };
    let caps = ChannelCapacities::unit(ft.topology());

    let faulted = faults.any();
    let view = FaultyView::new(ft.topology(), &faults.set);
    let view_opt = faulted.then_some(&view);

    let mut scratch = ContentionScratch::default();
    let tables = suite
        .iter()
        .map(|pattern| {
            let rows = head_to_head(&ft, view_opt, config, pattern, &caps, &mut scratch, rec);
            (pattern.0.clone(), pattern.1.len(), rows)
        })
        .collect();

    // Churn epochs: repaired solver vs fault-aware d-mod-k on each distinct
    // surviving-hardware epoch of the flap schedule.
    let mut churned: Vec<Epoch> = Vec::new();
    let churn_pattern = opts.flag("pattern").unwrap_or("shift:1").to_string();
    if let Some(epochs) = churn {
        let perm = make_pattern(&churn_pattern, ports, seed)?;
        for fs in epochs {
            let epoch_view = FaultyView::new(ft.topology(), &fs);
            let dead = epoch_view.num_dead_channels();
            let (cong, _) = solver_row(
                &ft,
                Some(&epoch_view),
                config,
                &perm,
                &[],
                &mut scratch,
                rec,
            );
            let dmodk =
                match FaultAware::new(DModK::new(&ft), &epoch_view).route_pattern_checked(&perm) {
                    Ok(a) => exact_row(RouterName::DModK.as_str(), &a, None, &mut scratch),
                    Err(e) => Row::unroutable(RouterName::DModK.as_str(), e.to_string()),
                };
            churned.push((dead, cong, dmodk));
        }
    }

    Ok(Box::new(CongestionReport {
        mode: mode.name(),
        seed,
        dead: faulted.then(|| view.num_dead_channels()),
        tables,
        churn_pattern,
        churn: churned,
        ft,
    }))
}

/// All baselines plus the congestion solver on one pattern; `view` is the
/// fault overlay, `None` on a pristine fabric.
fn head_to_head(
    ft: &Ftree,
    view: Option<&FaultyView<'_>>,
    config: CongestionConfig,
    (pname, perm): &(String, Permutation),
    caps: &ChannelCapacities,
    scratch: &mut ContentionScratch,
    rec: &Registry,
) -> Vec<Row> {
    let mut rows: Vec<Row> = Vec::new();
    let mut seeds: Vec<RouteAssignment> = Vec::new();

    // Single-path deterministic baselines.
    for name in [RouterName::Yuan, RouterName::DModK, RouterName::SModK] {
        let router = match SinglePath::new(ft, name) {
            Err(e) => {
                rows.push(Row::unroutable(name.as_str(), e.to_string()));
                continue;
            }
            Ok(r) => r,
        };
        let (asg, rate) = match view {
            Some(view) => {
                let fa = FaultAware::new(router, view);
                (
                    fa.route_pattern_checked(perm).map_err(|e| e.to_string()),
                    fluid_rate(&fa, pname, perm, caps, rec),
                )
            }
            None => (
                route_all(&router, perm).map_err(|e| e.to_string()),
                fluid_rate(&router, pname, perm, caps, rec),
            ),
        };
        rows.push(finish_exact(name.as_str(), asg, rate, scratch, &mut seeds));
    }

    // NONBLOCKINGADAPTIVE: exact on pristine fabrics, fractional flow-link
    // loads through the masked planner on faulted ones.
    match (NonblockingAdaptive::new(ft), view) {
        (Err(e), _) => rows.push(Row::unroutable("adaptive", e.to_string())),
        (Ok(ad), Some(view)) => {
            let masked = MaskedAdaptive::new(&ad, view, PlanStrategy::GreedyLargestSubset);
            rows.push(flow_links_row("adaptive", &masked, pname, perm, caps, rec));
        }
        (Ok(ad), None) => {
            let asg = ad.route_pattern(perm).map_err(|e| e.to_string());
            let rate = fluid_rate(&ad, pname, perm, caps, rec);
            rows.push(finish_exact("adaptive", asg, rate, scratch, &mut seeds));
        }
    }

    // Oblivious multipath: the fractional 1/m spread.
    let mp = ObliviousMultipath::new(ft);
    rows.push(match view {
        Some(view) => {
            let masked = MaskedMultipath::new(mp, view);
            flow_links_row("multipath", &masked, pname, perm, caps, rec)
        }
        None => flow_links_row("multipath", &mp, pname, perm, caps, rec),
    });

    // The min-congestion solver, warm-started from every baseline
    // assignment that projects into its candidate set.
    let seeds: Vec<&RouteAssignment> = seeds.iter().collect();
    let (mut row, plan) = solver_row(ft, view, config, perm, &seeds, scratch, rec);
    if let Some(plan) = plan {
        row.worst_rate = fluid_rate(&plan.load_view(), pname, perm, caps, rec);
    }
    rows.push(row);
    rows
}

/// The min-congestion solver's row, warm-started from `seeds`, and its plan.
fn solver_row(
    ft: &Ftree,
    view: Option<&FaultyView<'_>>,
    config: CongestionConfig,
    perm: &Permutation,
    seeds: &[&RouteAssignment],
    scratch: &mut ContentionScratch,
    rec: &Registry,
) -> (Row, Option<CongestionPlan>) {
    let cands = match view {
        Some(v) => FtreeCandidates::masked(ft, v),
        None => FtreeCandidates::pristine(ft),
    };
    let name = config.mode.name();
    match MinCongestion::with_config(cands, config).plan_seeded_with(perm, seeds, rec) {
        Err(e) => (Row::unroutable(name, e.to_string()), None),
        Ok(plan) => {
            let mut row = exact_row(name, &plan.assignment(), None, scratch);
            row.moves_rounds = Some((plan.moves(), plan.rounds()));
            (row, Some(plan))
        }
    }
}

fn fluid_rate<V: LinkLoadView + ?Sized>(
    view: &V,
    pname: &str,
    perm: &Permutation,
    caps: &ChannelCapacities,
    rec: &Registry,
) -> Option<f64> {
    solve_pattern_with(view, pname, perm, caps, rec)
        .ok()
        .map(|r| r.worst_rate)
}

/// Row from an exact single-path assignment: the core engine's scratch
/// gives the max load and its deterministic lowest-id witness.
fn exact_row(
    name: &str,
    asg: &RouteAssignment,
    worst_rate: Option<f64>,
    scratch: &mut ContentionScratch,
) -> Row {
    let (witness, max_load) = match scratch.max_load_witness(asg) {
        Some((w, m)) => (Some(w), m),
        None => (None, 0),
    };
    Row {
        router: name.to_string(),
        max_load: Some(max_load),
        witness,
        worst_rate,
        ..Row::default()
    }
}

fn finish_exact(
    name: &str,
    asg: Result<RouteAssignment, String>,
    worst_rate: Option<f64>,
    scratch: &mut ContentionScratch,
    seeds: &mut Vec<RouteAssignment>,
) -> Row {
    match asg {
        Ok(a) => {
            let row = exact_row(name, &a, worst_rate, scratch);
            seeds.push(a);
            row
        }
        Err(e) => Row::unroutable(name, e),
    }
}

/// Row from fractional flow links (multipath spreads, masked adaptive):
/// per-channel summed weights, max + lowest-id argmax.
fn flow_links_row<V: LinkLoadView + ?Sized>(
    name: &str,
    view: &V,
    pname: &str,
    perm: &Permutation,
    caps: &ChannelCapacities,
    rec: &Registry,
) -> Row {
    let flows = match view.flow_links(perm) {
        Ok(f) => f,
        Err(e) => return Row::unroutable(name, e.to_string()),
    };
    let mut loads: std::collections::HashMap<ChannelId, f64> = std::collections::HashMap::new();
    for f in &flows {
        for &(c, w) in &f.links {
            *loads.entry(c).or_insert(0.0) += w;
        }
    }
    let max = loads.values().fold(0.0f64, |a, &b| a.max(b));
    let witness = loads
        .iter()
        .filter(|(_, &l)| (l - max).abs() < 1e-9)
        .map(|(&c, _)| c)
        .min();
    Row {
        router: name.to_string(),
        expected: Some(max),
        witness: if max > 0.0 { witness } else { None },
        worst_rate: fluid_rate(view, pname, perm, caps, rec),
        ..Row::default()
    }
}

/// `true` when the congestion row is no worse than every routable
/// *unsplittable* baseline of its table. The fractional multipath spread is
/// reported but not compared: a `1/m` split's expected load lower-bounds
/// what any single-path placement can achieve, so it is not a peer.
fn table_verdict(rows: &[Row]) -> bool {
    let Some(cong) = rows.last().and_then(|r| r.max_load) else {
        return false;
    };
    rows[..rows.len() - 1]
        .iter()
        .filter_map(|r| r.max_load)
        .all(|base| cong <= base)
}

impl fmt::Display for CongestionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let masked = match self.dead {
            Some(dead) => format!(" (fault-masked, {dead} dead channel(s))"),
            None => String::new(),
        };
        let (fabric, hosts) = (fabric(&self.ft), self.ft.num_leaves());
        let run = format!("mode {}, seed {}{masked}", self.mode, self.seed);
        writeln!(
            f,
            "min-congestion head-to-head: {fabric}, {hosts} hosts, {run}"
        )?;
        let mut all_ok = true;
        for (pname, flows, rows) in &self.tables {
            writeln!(f, "\npattern {pname} ({flows} flows)")?;
            writeln!(
                f,
                "  {:<22} {:>9} {:>8} {:>11}",
                "router", "max-load", "witness", "worst-rate"
            )?;
            for row in rows {
                writeln!(f, "  {}", row_text(row))?;
            }
            all_ok &= table_verdict(rows);
        }
        let verdict = if all_ok {
            "min-congestion routing matched or beat every routable baseline"
        } else {
            "REGRESSION: some baseline beat the min-congestion placement"
        };
        writeln!(f, "\nverdict: {verdict}")?;
        if !self.churn.is_empty() {
            let (epochs, pattern) = (self.churn.len(), &self.churn_pattern);
            writeln!(f, "\nchurn ({epochs} epoch(s), pattern {pattern}):")?;
        }
        for (i, (dead, cong, dmodk)) in self.churn.iter().enumerate() {
            let (cong, dmodk) = (churn_cell(cong), churn_cell(dmodk));
            writeln!(
                f,
                "  epoch {i}: {dead} dead channel(s)  {cong}  vs  {dmodk}"
            )?;
        }
        Ok(())
    }
}

fn row_text(row: &Row) -> String {
    if let Some(e) = &row.err {
        return format!("{:<22} unroutable: {e}", row.router);
    }
    let load = match (row.max_load, row.expected) {
        (Some(m), _) => format!("{m}"),
        (None, Some(x)) => format!("{x:.3}"),
        (None, None) => "-".to_string(),
    };
    let witness = row
        .witness
        .map(|c| format!("ch{}", c.index()))
        .unwrap_or_else(|| "-".to_string());
    let rate = row
        .worst_rate
        .map(|r| format!("{r:.4}"))
        .unwrap_or_else(|| "-".to_string());
    let extra = row
        .moves_rounds
        .map(|(m, r)| format!("  moves={m} rounds={r}"))
        .unwrap_or_default();
    format!(
        "{:<22} {load:>9} {witness:>8} {rate:>11}{extra}",
        row.router
    )
}

fn churn_cell(row: &Row) -> String {
    match (&row.err, row.max_load) {
        (Some(_), _) => format!("{} unroutable", row.router),
        (None, Some(m)) => format!("{} max-load {m}", row.router),
        (None, None) => format!("{} -", row.router),
    }
}

impl Report for CongestionReport {
    fn json(&self) -> Json {
        let patterns = self.tables.iter().map(|(pname, flows, rows)| {
            obj! {
                "pattern" => pname.as_str(), "flows" => *flows,
                "congestion_ok" => table_verdict(rows),
                "rows" => rows.iter().map(Row::json).collect::<Json>(),
            }
        });
        let mut report = obj! {
            "command" => "congestion", "n" => self.ft.n(), "m" => self.ft.m(), "r" => self.ft.r(),
            "hosts" => self.ft.num_leaves(), "mode" => self.mode, "seed" => self.seed,
            "faulted" => self.dead.is_some(), "dead_channels" => self.dead.unwrap_or(0),
            "patterns" => patterns.collect::<Json>(),
        };
        let churn = self
            .churn
            .iter()
            .enumerate()
            .map(|(i, (dead, cong, dmodk))| {
                obj! {
                    "epoch" => i, "dead_channels" => *dead,
                    "congestion" => cong.json(), "dmodk" => dmodk.json(),
                }
            });
        if let (false, Json::Obj(fields)) = (self.churn.is_empty(), &mut report) {
            fields.push(("churn_pattern".into(), self.churn_pattern.as_str().into()));
            fields.push(("churn".into(), churn.collect()));
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Opts {
        Opts::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>()).unwrap()
    }

    /// The text report of `congestion <args>`.
    fn text(args: &str, reg: &Registry) -> String {
        run(&argv(args), reg).unwrap().to_string()
    }

    #[test]
    fn pristine_head_to_head_beats_or_matches_everyone() {
        let reg = Registry::new();
        let out = text("2 4 5", &reg);
        assert!(
            out.contains("matched or beat every routable baseline"),
            "{out}"
        );
        assert!(out.contains("congestion-repaired"), "{out}");
        assert!(out.contains("yuan"), "{out}");
        assert!(out.contains("multipath"), "{out}");
        let snap = reg.snapshot();
        assert!(snap.spans.iter().any(|s| s.path == "congestion.place"));
        assert!(snap.spans.iter().any(|s| s.path == "congestion.repair"));
        assert!(snap.counter("congestion.rounds").is_some());
    }

    #[test]
    fn undersized_fabric_still_no_worse_than_baselines() {
        // m < n²: every deterministic baseline collides on random; the
        // warm-started solver must stay at or below each.
        let out = text("2 2 5 --pattern random --seed 3", &Registry::new());
        assert!(
            out.contains("matched or beat every routable baseline"),
            "{out}"
        );
    }

    #[test]
    fn faulted_fabric_solver_routes_where_yuan_cannot() {
        let out = text("2 4 5 --fail-tops 1 --pattern shift:2", &Registry::new());
        assert!(out.contains("fault-masked"), "{out}");
        // Yuan pins shift:2's (0,0) pairs to the dead top.
        assert!(out.contains("yuan") && out.contains("unroutable"), "{out}");
        assert!(out.contains("congestion-repaired"), "{out}");
        assert!(
            out.contains("matched or beat every routable baseline"),
            "{out}"
        );
    }

    #[test]
    fn json_is_emitted_and_structured() {
        let report = run(&argv("2 4 5 --pattern shift:3"), &Registry::new()).unwrap();
        let out = report.json().write();
        assert!(
            out.starts_with('{') && out.trim_end().ends_with('}'),
            "{out}"
        );
        assert!(out.contains("\"command\":\"congestion\""), "{out}");
        assert!(out.contains("\"router\":\"congestion-repaired\""), "{out}");
        assert!(out.contains("\"congestion_ok\":true"), "{out}");
        assert!(out.contains("\"witness_channel\":"), "{out}");
    }

    #[test]
    fn churn_epochs_are_reported() {
        let out = text(
            "2 4 5 --churn-links 2 --mtbf 300 --mttr 80 --churn-cycles 900 --pattern shift:1",
            &Registry::new(),
        );
        assert!(out.contains("churn ("), "{out}");
        assert!(out.contains("epoch 0:"), "{out}");
        assert!(out.contains("congestion-repaired max-load"), "{out}");
    }

    #[test]
    fn modes_dispatch_and_bad_inputs_are_usage_errors() {
        for mode in ["greedy", "rounded", "repaired"] {
            let out = text(
                &format!("2 4 5 --mode {mode} --pattern tornado"),
                &Registry::new(),
            );
            assert!(out.contains(&format!("congestion-{mode}")), "{out}");
        }
        assert!(matches!(
            run(&argv("2 4 5 --mode warp"), &Registry::new()),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&argv("2 4 5 --fail-tops 99"), &Registry::new()),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&argv("2 4 5 --pattern nope"), &Registry::new()),
            Err(CliError::Usage(_))
        ));
    }
}
