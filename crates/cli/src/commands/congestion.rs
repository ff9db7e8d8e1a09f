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
use crate::opts::{CliError, Opts};
use ftclos_core::ContentionScratch;
use ftclos_flowsim::{solve_pattern_with, standard_suite};
use ftclos_obs::json::quote;
use ftclos_obs::Registry;
use ftclos_routing::{
    route_all, CongestionConfig, CongestionMode, DModK, FaultAware, FtreeCandidates, LinkLoadView,
    MaskedAdaptive, MaskedMultipath, MinCongestion, NonblockingAdaptive, ObliviousMultipath,
    PatternRouter, PlanStrategy, RouteAssignment,
};
use ftclos_topo::{ChannelCapacities, ChannelId, FaultyView, Ftree};
use ftclos_traffic::Permutation;
use std::fmt::Write as _;

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
}

/// Run the command.
pub fn run(opts: &Opts, rec: &Registry) -> Result<String, CliError> {
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
    let json: bool = opts.flag_or("json", false)?;
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

    let mut scratch = ContentionScratch::default();
    let mut pattern_tables: Vec<(String, usize, Vec<Row>)> = Vec::new();
    for (pname, perm) in &suite {
        let rows = head_to_head(
            &ft,
            &view,
            faulted,
            config,
            pname,
            perm,
            &caps,
            &mut scratch,
            rec,
        );
        pattern_tables.push((pname.clone(), perm.len(), rows));
    }

    // Churn epochs: repaired solver vs fault-aware d-mod-k on each distinct
    // surviving-hardware epoch of the flap schedule.
    let mut churned: Vec<(usize, Row, Row)> = Vec::new();
    let churn_pattern = opts.flag("pattern").unwrap_or("shift:1").to_string();
    if let Some(epochs) = churn {
        let perm = make_pattern(&churn_pattern, ports, seed)?;
        for fs in epochs {
            let epoch_view = FaultyView::new(ft.topology(), &fs);
            let dead = epoch_view.num_dead_channels();
            let cong = congestion_row(&ft, Some(&epoch_view), config, &perm, &mut scratch, rec);
            let dmodk =
                match FaultAware::new(DModK::new(&ft), &epoch_view).route_pattern_checked(&perm) {
                    Ok(a) => exact_row(RouterName::DModK.as_str(), &a, None, &mut scratch),
                    Err(e) => Row::unroutable(RouterName::DModK.as_str(), e.to_string()),
                };
            churned.push((dead, cong, dmodk));
        }
    }

    if json {
        return Ok(render_json(
            &ft,
            config,
            seed,
            faulted,
            view.num_dead_channels(),
            &pattern_tables,
            &churn_pattern,
            &churned,
        ));
    }
    render_text(
        &ft,
        config,
        seed,
        faulted,
        view.num_dead_channels(),
        &pattern_tables,
        &churn_pattern,
        &churned,
    )
}

/// All baselines plus the congestion solver on one pattern.
#[allow(clippy::too_many_arguments)]
fn head_to_head(
    ft: &Ftree,
    view: &FaultyView<'_>,
    faulted: bool,
    config: CongestionConfig,
    pname: &str,
    perm: &Permutation,
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
        let (asg, rate) = if faulted {
            let fa = FaultAware::new(router, view);
            (
                fa.route_pattern_checked(perm).map_err(|e| e.to_string()),
                fluid_rate(&fa, pname, perm, caps, rec),
            )
        } else {
            (
                route_all(&router, perm).map_err(|e| e.to_string()),
                fluid_rate(&router, pname, perm, caps, rec),
            )
        };
        rows.push(finish_exact(name.as_str(), asg, rate, scratch, &mut seeds));
    }

    // NONBLOCKINGADAPTIVE: exact on pristine fabrics, fractional flow-link
    // loads through the masked planner on faulted ones.
    match NonblockingAdaptive::new(ft) {
        Err(e) => rows.push(Row::unroutable("adaptive", e.to_string())),
        Ok(ad) => {
            if faulted {
                let masked = MaskedAdaptive::new(&ad, view, PlanStrategy::GreedyLargestSubset);
                rows.push(flow_links_row("adaptive", &masked, pname, perm, caps, rec));
            } else {
                let asg = ad.route_pattern(perm).map_err(|e| e.to_string());
                let rate = fluid_rate(&ad, pname, perm, caps, rec);
                rows.push(finish_exact("adaptive", asg, rate, scratch, &mut seeds));
            }
        }
    }

    // Oblivious multipath: the fractional 1/m spread.
    {
        let mp = ObliviousMultipath::new(ft);
        if faulted {
            let masked = MaskedMultipath::new(mp, view);
            rows.push(flow_links_row("multipath", &masked, pname, perm, caps, rec));
        } else {
            rows.push(flow_links_row("multipath", &mp, pname, perm, caps, rec));
        }
    }

    // The min-congestion solver, warm-started from every baseline
    // assignment that projects into its candidate set.
    let seed_refs: Vec<&RouteAssignment> = seeds.iter().collect();
    let cands = if faulted {
        FtreeCandidates::masked(ft, view)
    } else {
        FtreeCandidates::pristine(ft)
    };
    let router = MinCongestion::with_config(cands, config);
    match router.plan_seeded_with(perm, &seed_refs, rec) {
        Err(e) => rows.push(Row::unroutable(config.mode.name(), e.to_string())),
        Ok(plan) => {
            let rate = fluid_rate(&plan.load_view(), pname, perm, caps, rec);
            let mut row = exact_row(config.mode.name(), &plan.assignment(), rate, scratch);
            row.moves_rounds = Some((plan.moves(), plan.rounds()));
            rows.push(row);
        }
    }
    rows
}

/// The congestion solver alone (churn epochs).
fn congestion_row(
    ft: &Ftree,
    view: Option<&FaultyView<'_>>,
    config: CongestionConfig,
    perm: &Permutation,
    scratch: &mut ContentionScratch,
    rec: &Registry,
) -> Row {
    let cands = match view {
        Some(v) => FtreeCandidates::masked(ft, v),
        None => FtreeCandidates::pristine(ft),
    };
    let router = MinCongestion::with_config(cands, config);
    match router.plan_seeded_with(perm, &[], rec) {
        Err(e) => Row::unroutable(config.mode.name(), e.to_string()),
        Ok(plan) => {
            let mut row = exact_row(config.mode.name(), &plan.assignment(), None, scratch);
            row.moves_rounds = Some((plan.moves(), plan.rounds()));
            row
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

#[allow(clippy::too_many_arguments)]
fn render_text(
    ft: &Ftree,
    config: CongestionConfig,
    seed: u64,
    faulted: bool,
    dead_channels: usize,
    tables: &[(String, usize, Vec<Row>)],
    churn_pattern: &str,
    churn: &[(usize, Row, Row)],
) -> Result<String, CliError> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "min-congestion head-to-head: {}, {} hosts, mode {}, seed {}{}",
        fabric(ft),
        ft.num_leaves(),
        config.mode.name(),
        seed,
        if faulted {
            format!(" (fault-masked, {dead_channels} dead channel(s))")
        } else {
            String::new()
        }
    );
    let mut all_ok = true;
    for (pname, flows, rows) in tables {
        let _ = writeln!(out, "\npattern {pname} ({flows} flows)");
        let _ = writeln!(
            out,
            "  {:<22} {:>9} {:>8} {:>11}",
            "router", "max-load", "witness", "worst-rate"
        );
        for row in rows {
            let _ = writeln!(out, "  {}", row_text(row));
        }
        if !table_verdict(rows) {
            all_ok = false;
        }
    }
    let _ = writeln!(
        out,
        "\nverdict: {}",
        if all_ok {
            "min-congestion routing matched or beat every routable baseline"
        } else {
            "REGRESSION: some baseline beat the min-congestion placement"
        }
    );
    if !churn.is_empty() {
        let _ = writeln!(
            out,
            "\nchurn ({} epoch(s), pattern {churn_pattern}):",
            churn.len()
        );
        for (i, (dead, cong, dmodk)) in churn.iter().enumerate() {
            let _ = writeln!(
                out,
                "  epoch {i}: {dead} dead channel(s)  {}  vs  {}",
                churn_cell(cong),
                churn_cell(dmodk)
            );
        }
    }
    Ok(out)
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

#[allow(clippy::too_many_arguments)]
fn render_json(
    ft: &Ftree,
    config: CongestionConfig,
    seed: u64,
    faulted: bool,
    dead_channels: usize,
    tables: &[(String, usize, Vec<Row>)],
    churn_pattern: &str,
    churn: &[(usize, Row, Row)],
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"command\":\"congestion\",\"n\":{},\"m\":{},\"r\":{},\"hosts\":{},\
         \"mode\":{},\"seed\":{seed},\"faulted\":{faulted},\"dead_channels\":{dead_channels},\
         \"patterns\":[",
        ft.n(),
        ft.m(),
        ft.r(),
        ft.num_leaves(),
        quote(config.mode.name()),
    );
    for (i, (pname, flows, rows)) in tables.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"pattern\":{},\"flows\":{flows},\"congestion_ok\":{},\"rows\":[",
            quote(pname),
            table_verdict(rows)
        );
        for (j, row) in rows.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&row_json(row));
        }
        out.push_str("]}");
    }
    out.push(']');
    if !churn.is_empty() {
        let _ = write!(
            out,
            ",\"churn_pattern\":{},\"churn\":[",
            quote(churn_pattern)
        );
        for (i, (dead, cong, dmodk)) in churn.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"epoch\":{i},\"dead_channels\":{dead},\"congestion\":{},\"dmodk\":{}}}",
                row_json(cong),
                row_json(dmodk)
            );
        }
        out.push(']');
    }
    out.push('}');
    out
}

fn row_json(row: &Row) -> String {
    let mut out = format!("{{\"router\":{}", quote(&row.router));
    if let Some(e) = &row.err {
        let _ = write!(out, ",\"error\":{}", quote(e));
        out.push('}');
        return out;
    }
    if let Some(m) = row.max_load {
        let _ = write!(out, ",\"max_load\":{m}");
    }
    if let Some(x) = row.expected {
        let _ = write!(out, ",\"expected_max_load\":{x:.6}");
    }
    if let Some(w) = row.witness {
        let _ = write!(out, ",\"witness_channel\":{}", w.index());
    }
    if let Some(r) = row.worst_rate {
        let _ = write!(out, ",\"worst_rate\":{r:.6}");
    }
    if let Some((m, r)) = row.moves_rounds {
        let _ = write!(out, ",\"moves\":{m},\"rounds\":{r}");
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Opts {
        Opts::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn pristine_head_to_head_beats_or_matches_everyone() {
        let reg = Registry::new();
        let out = run(&argv("2 4 5"), &reg).unwrap();
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
        let out = run(&argv("2 2 5 --pattern random --seed 3"), &Registry::new()).unwrap();
        assert!(
            out.contains("matched or beat every routable baseline"),
            "{out}"
        );
    }

    #[test]
    fn faulted_fabric_solver_routes_where_yuan_cannot() {
        let out = run(
            &argv("2 4 5 --fail-tops 1 --pattern shift:2"),
            &Registry::new(),
        )
        .unwrap();
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
        let out = run(
            &argv("2 4 5 --pattern shift:3 --json true"),
            &Registry::new(),
        )
        .unwrap();
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
        let out = run(
            &argv(
                "2 4 5 --churn-links 2 --mtbf 300 --mttr 80 --churn-cycles 900 --pattern shift:1",
            ),
            &Registry::new(),
        )
        .unwrap();
        assert!(out.contains("churn ("), "{out}");
        assert!(out.contains("epoch 0:"), "{out}");
        assert!(out.contains("congestion-repaired max-load"), "{out}");
    }

    #[test]
    fn modes_dispatch_and_bad_inputs_are_usage_errors() {
        for mode in ["greedy", "rounded", "repaired"] {
            let out = run(
                &argv(&format!("2 4 5 --mode {mode} --pattern tornado")),
                &Registry::new(),
            )
            .unwrap();
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
