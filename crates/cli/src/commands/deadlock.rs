//! `ftclos deadlock <n> <m> <r> [--router R|all] [--fail-tops K]
//! [--fail-links K] [--seed S] [--churn-links K --mtbf N --mttr N
//! --churn-cycles N] [--inject] [--inject-cycles N] [--queue-capacity K]
//! [--json]` — channel-dependency deadlock analysis (Dally–Seitz).
//!
//! Builds the channel-dependency graph of each routing scheme's full route
//! set and runs the cycle check: an acyclic CDG *proves* the routing
//! deadlock-free under any credit-based flow control; a cycle yields a
//! deterministic witness (lowest cyclic channel, minimal length). The
//! `valley` router is the in-tree counterexample the analyzer must catch.
//! On a pristine fabric, `yuan`, `dmodk` and `smodk` are counted from their
//! top-choice rule instead (`analyze_router_with`, span `cdg.closed_form`);
//! faulted fabrics, churn epochs, `multipath`/`adaptive` and `valley` sweep.
//!
//! `--churn-links` replays a flapping-cable schedule and re-proves (or
//! refutes) every distinct fault epoch the fabric passes through.
//!
//! `--inject` closes the loop dynamically: the witness cycle is attributed
//! back to SD routes, those routes are pinned in the packet simulator under
//! finite credits, and the run wedges — the drain phase gives up with
//! packets stranded in the cycle's queues while packet conservation still
//! holds. A control run over the same pairs with up*/down* `dmodk` routes
//! drains clean, isolating the cycle as the cause.

use super::common::RouterName::{self, Adaptive, All, DModK, Multipath, SModK, Valley, Yuan};
use super::common::{build_ftree, churn_epochs, fabric, fabric_json, FaultFlags, SinglePath};
use super::{Report, Reported};
use crate::opts::{CliError, Opts};
use ftclos_core::cdg::{
    analyze_router_with, cdg_of_masked_router_with, cdg_of_multipath_with, deadlock_sweep_with,
};
use ftclos_core::{attribute_witness, CycleAnalysis, SweepEntry};
use ftclos_obs::json::Json;
use ftclos_obs::{obj, Recorder as _, Registry};
use ftclos_routing::{ObliviousMultipath, SinglePathRouter};
use ftclos_sim::{run_pinned_injection_watchdog_recorded, PinnedRoute, WitnessRun};
use ftclos_topo::{ChannelId, FaultyView, Ftree};
use ftclos_traffic::SdPair;
use std::fmt;

/// A boxed path enumerator: feed every (live) route of a pair to `emit`,
/// the closure shape `attribute_witness` consumes.
type PathsOf<'a> = Box<dyn Fn(SdPair, &mut dyn FnMut(&[ChannelId])) + 'a>;

/// The routers `--router` takes, default first.
pub(crate) const ROSTER: &[RouterName] = &[All, Yuan, DModK, SModK, Multipath, Adaptive, Valley];

/// A `--inject` replay: the cyclic router, its witness run and the dmodk
/// control over the same pairs.
type Injection = (&'static str, WitnessRun, WitnessRun);

/// What `deadlock` reports: each analyzed router's verdict with its witness
/// channels, one verdict set per churn epoch, and the witness injection.
struct DeadlockReport {
    ft: Ftree,
    /// Dead channels, when faults were asked for.
    dead: Option<usize>,
    entries: Vec<SweepEntry>,
    churn_epochs: Vec<(usize, Vec<SweepEntry>)>,
    injection: Option<Injection>,
}

/// Run the command.
pub fn run(opts: &Opts, rec: &Registry) -> Reported {
    let ft = build_ftree(opts)?;
    let router = RouterName::flag(opts, ROSTER)?;
    let faults = FaultFlags::parse(opts, &ft, 0)?;
    let churn = churn_epochs(opts, &ft)?;
    let seed: u64 = opts.flag_or("seed", 0)?;
    let inject: bool = opts.flag_or("inject", false)?;
    let inject_cycles: u64 = opts.flag_or("inject-cycles", 200)?;
    let queue_capacity: usize = opts.flag_or("queue-capacity", 2)?;
    let faulted = faults.any();
    let view = FaultyView::new(ft.topology(), &faults.set);
    let view_opt = faulted.then_some(&view);

    let entries = analyze(&ft, router, view_opt, rec)?;
    rec.gauge(
        "deadlock.cyclic_routers",
        entries.iter().filter(|e| !e.analysis.is_free()).count() as u64,
    );

    // Churn: re-prove every distinct fault epoch of a flapping schedule.
    let mut churned: Vec<(usize, Vec<SweepEntry>)> = Vec::new();
    if let Some(epochs) = churn {
        let _s = rec.span("deadlock.churn");
        for fs in epochs {
            let epoch_view = FaultyView::new(ft.topology(), &fs);
            let dead = epoch_view.num_dead_channels();
            let entries = analyze(&ft, router, Some(&epoch_view), rec)?;
            churned.push((dead, entries));
        }
    }

    // Witness injection: reproduce the first cycle dynamically.
    let mut injection = None;
    if inject {
        let Some((cyclic, witness)) = entries
            .iter()
            .find_map(|e| Some((e, e.analysis.verdict.witness()?)))
        else {
            return Err(CliError::Failed(
                "--inject needs a witness cycle, but every analyzed routing is deadlock-free \
                 (try --router valley)"
                    .to_string(),
            ));
        };
        let _s = rec.span("deadlock.inject");
        let routes = witness_routes(&ft, cyclic.router.parse()?, view_opt, witness);
        if routes.is_empty() {
            return Err(CliError::Failed(
                "witness attribution found no realizing routes".to_string(),
            ));
        }
        let replay = |routes: &[PinnedRoute]| {
            let topo = ft.topology();
            run_pinned_injection_watchdog_recorded(
                topo,
                routes,
                inject_cycles,
                queue_capacity,
                0,
                seed,
                rec,
            )
            .map_err(|e| CliError::Failed(e.to_string()))
        };
        let run = replay(&routes)?;
        // Control: the same pairs along up*/down* dmodk routes must drain.
        let dmodk = SinglePath::new(&ft, DModK)?;
        let control_routes: Vec<PinnedRoute> = routes
            .iter()
            .map(|r| {
                let path = dmodk.route(SdPair::new(r.src, r.dst));
                PinnedRoute::new(r.src, r.dst, path.channels().to_vec())
            })
            .collect();
        let control = replay(&control_routes)?;
        injection = Some((cyclic.router, run, control));
    }

    Ok(Box::new(DeadlockReport {
        dead: faulted.then(|| view.num_dead_channels()),
        entries,
        churn_epochs: churned,
        injection,
        ft,
    }))
}

/// Analyze one named router (or the whole sweep) against an optional fault
/// overlay.
fn analyze(
    ft: &Ftree,
    router: RouterName,
    view: Option<&FaultyView>,
    rec: &Registry,
) -> Result<Vec<SweepEntry>, CliError> {
    reject_broken_paths(sweep(ft, router, view, rec)?)
}

/// Refuse a verdict over a router that emitted a path whose consecutive hops
/// are not adjacent channels: such a hop is no dependency and is missing from
/// the graph, so `FREE` would not cover the route set.
fn reject_broken_paths(entries: Vec<SweepEntry>) -> Result<Vec<SweepEntry>, CliError> {
    match entries.iter().find(|e| e.analysis.bad_hops != 0) {
        None => Ok(entries),
        Some(e) => Err(CliError::Failed(format!(
            "router `{}` emitted {} non-adjacent hop(s): its paths are broken, so no \
             deadlock verdict can be given",
            e.router, e.analysis.bad_hops
        ))),
    }
}

fn sweep(
    ft: &Ftree,
    router: RouterName,
    view: Option<&FaultyView>,
    rec: &Registry,
) -> Result<Vec<SweepEntry>, CliError> {
    let single = |name: RouterName| -> Result<SweepEntry, CliError> {
        let r = SinglePath::new(ft, name)?;
        let analysis = match view {
            None => analyze_router_with(ft.topology(), &r, rec),
            Some(v) => cdg_of_masked_router_with(&r, v, rec).check_with(rec),
        };
        Ok(SweepEntry {
            router: name.as_str(),
            analysis,
        })
    };
    match router {
        All => {
            // The full roster, plus the valley counterexample so default
            // output demonstrates both verdict shapes.
            let mut entries = deadlock_sweep_with(ft, view, rec);
            entries.push(single(Valley)?);
            Ok(entries)
        }
        Multipath | Adaptive => {
            // The adaptive candidate set equals the multipath branch union
            // (a sound over-approximation of every materializable plan).
            let g = cdg_of_multipath_with(ft, view, rec);
            Ok(vec![SweepEntry {
                router: router.as_str(),
                analysis: g.check_with(rec),
            }])
        }
        _ => Ok(vec![single(router)?]),
    }
}

/// Turn a witness cycle into pinned SD routes for the router that produced
/// it. [`attribute_witness`] first proves every cycle edge is realized by a
/// concrete route (the static claim); the *injection* set is then chosen
/// per source — each source leaf pins the route that rides the most
/// consecutive witness-cycle adjacencies — so the pinned traffic wraps the
/// whole cycle and the credit wedge can close (a route per *edge* alone
/// leaves most sources idle after per-source deduplication).
pub(crate) fn witness_routes(
    ft: &Ftree,
    router: RouterName,
    view: Option<&FaultyView>,
    witness: &[ChannelId],
) -> Vec<PinnedRoute> {
    let alive = |path: &[ChannelId]| view.is_none_or(|v| v.path_alive(path).is_ok());
    let single;
    let mp;
    let ports;
    let paths_of: PathsOf<'_> = match router {
        Multipath | Adaptive => {
            mp = ObliviousMultipath::new(ft);
            ports = mp.ports();
            Box::new(move |pair, emit| {
                let mut branches = mp.paths(pair);
                branches.sort_unstable_by(|a, b| a.channels().cmp(b.channels()));
                for p in &branches {
                    if !p.channels().is_empty() && alive(p.channels()) {
                        emit(p.channels());
                    }
                }
            })
        }
        _ => {
            let Ok(r) = SinglePath::new(ft, router) else {
                return Vec::new();
            };
            single = r;
            ports = single.ports();
            let r = &single;
            Box::new(move |pair, emit| {
                let p = r.route(pair);
                if !p.channels().is_empty() && alive(p.channels()) {
                    emit(p.channels());
                }
            })
        }
    };
    // Static guard: every edge of the cycle must be realized by some route.
    let edges = attribute_witness(witness, ports, &paths_of);
    if edges.len() != witness.len() {
        return Vec::new();
    }
    // Per-source best cycle cover.
    let k = witness.len();
    let on_cycle: std::collections::HashSet<(ChannelId, ChannelId)> =
        (0..k).map(|i| (witness[i], witness[(i + 1) % k])).collect();
    let mut routes = Vec::new();
    for s in 0..ports {
        let mut best: Option<(usize, PinnedRoute)> = None;
        for d in 0..ports {
            if s == d {
                continue;
            }
            paths_of(SdPair::new(s, d), &mut |path: &[ChannelId]| {
                let cover = path
                    .windows(2)
                    .filter(|w| on_cycle.contains(&(w[0], w[1])))
                    .count();
                if cover > 0 && best.as_ref().is_none_or(|(c, _)| cover > *c) {
                    best = Some((cover, PinnedRoute::new(s, d, path.to_vec())));
                }
            });
        }
        if let Some((_, r)) = best {
            routes.push(r);
        }
    }
    routes
}

fn describe(a: &CycleAnalysis) -> String {
    let Some(witness) = a.verdict.witness() else {
        return format!(
            "FREE ({} dependencies, {} valley turns)",
            a.num_deps, a.valley_turns
        );
    };
    let cycle: Vec<String> = witness.iter().map(|c| c.to_string()).collect();
    let counts = format!(
        "{} cyclic channels, {} dependencies",
        a.cyclic_channels, a.num_deps
    );
    format!(
        "CYCLIC ({counts}) witness: {} -> {}",
        cycle.join(" -> "),
        cycle[0]
    )
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let conservation = |ok: bool| if ok { "OK" } else { "BROKEN" };
        let state = match self.dead {
            Some(dead) => format!("{dead} dead channel(s)"),
            None => "pristine".to_string(),
        };
        writeln!(f, "deadlock analysis on {}: {state}", fabric(&self.ft))?;
        for e in &self.entries {
            writeln!(f, "  {:<9} {}", e.router, describe(&e.analysis))?;
        }
        for (i, (dead, entries)) in self.churn_epochs.iter().enumerate() {
            let cyclic = entries.iter().filter(|e| !e.analysis.is_free());
            let cyclic: Vec<&str> = cyclic.map(|e| e.router).collect();
            let verdict = if cyclic.is_empty() {
                format!("all {} router(s) deadlock-free", entries.len())
            } else {
                format!("CYCLIC for {}", cyclic.join(", "))
            };
            writeln!(f, "churn epoch set #{i} ({dead} dead): {verdict}")?;
        }
        let Some((router, run, control)) = &self.injection else {
            return Ok(());
        };
        let (s, c) = (&run.stats, &control.stats);
        let (delivered, injected) = (s.delivered_total, s.injected_total);
        let outcome = if run.wedged() {
            format!(
                "WEDGED (credit stall): {} stranded of {injected} injected, {delivered} delivered, \
                 conservation {}",
                s.leftover_packets,
                conservation(run.conservation_ok())
            )
        } else {
            format!("drained ({delivered} delivered of {injected} injected)")
        };
        let pinned = run.pinned_pairs;
        writeln!(
            f,
            "witness injection ({router}): {pinned} route(s) pinned -> {outcome}"
        )?;
        let (delivered, injected) = (c.delivered_total, c.injected_total);
        let outcome = if control.wedged() {
            format!("WEDGED ({} stranded)", c.leftover_packets)
        } else {
            format!(
                "drained clean ({delivered} delivered of {injected} injected, conservation {})",
                conservation(control.conservation_ok())
            )
        };
        writeln!(f, "control (dmodk, same pairs): {outcome}")
    }
}

impl Report for DeadlockReport {
    fn json(&self) -> Json {
        let entries = |entries: &[SweepEntry]| -> Json {
            let entry = |e: &SweepEntry| {
                let a = &e.analysis;
                let witness = a.verdict.witness().unwrap_or_default();
                obj! {
                    "router" => e.router, "free" => a.is_free(), "num_deps" => a.num_deps,
                    "valley_turns" => a.valley_turns, "cyclic_channels" => a.cyclic_channels,
                    "witness" => witness.iter().map(|c| c.index()).collect::<Json>(),
                }
            };
            entries.iter().map(entry).collect()
        };
        let churn_epochs = self.churn_epochs.iter().map(|(dead, epoch)| {
            obj! { "dead_channels" => *dead, "entries" => entries(epoch) }
        });
        let injection = self.injection.as_ref().map(|(router, run, control)| {
            let (s, c) = (&run.stats, &control.stats);
            obj! {
                "router" => *router, "pinned" => run.pinned_pairs, "wedged" => run.wedged(),
                "injected" => s.injected_total,
                "delivered" => s.delivered_total, "abandoned" => s.abandoned_total,
                "leftover" => s.leftover_packets, "conservation_ok" => run.conservation_ok(),
                "control_wedged" => control.wedged(),
                "control_delivered" => c.delivered_total, "control_leftover" => c.leftover_packets,
            }
        });
        obj! {
            "fabric" => fabric_json(&self.ft), "dead_channels" => self.dead.unwrap_or(0),
            "entries" => entries(&self.entries),
            "churn_epochs" => churn_epochs.collect::<Json>(), "injection" => injection,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Opts {
        Opts::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>()).unwrap()
    }

    /// The text report of `deadlock <args>`.
    fn text(args: &str, reg: &Registry) -> String {
        run(&argv(args), reg).unwrap().to_string()
    }

    #[test]
    fn pristine_sweep_proves_freedom_and_catches_valley() {
        let reg = Registry::new();
        let out = text("2 4 5", &reg);
        for router in ["yuan", "dmodk", "smodk", "multipath", "adaptive"] {
            let line = out
                .lines()
                .find(|l| l.trim_start().starts_with(router))
                .unwrap_or_else(|| panic!("no line for {router}: {out}"));
            assert!(line.contains("FREE"), "{line}");
            assert!(line.contains("0 valley turns"), "{line}");
        }
        assert!(out.contains("valley    CYCLIC"), "{out}");
        assert!(out.contains("witness: c"), "{out}");
        let snap = reg.snapshot();
        for span in ["cdg.build", "cdg.scc"] {
            assert!(snap.spans.iter().any(|s| s.path == span), "missing {span}");
        }
    }

    #[test]
    fn faulted_sweep_still_proves_freedom() {
        let out = text(
            "2 4 5 --fail-tops 1 --fail-links 2 --seed 3",
            &Registry::new(),
        );
        assert!(out.contains("dead channel(s)"), "{out}");
        assert!(out.contains("dmodk     FREE"), "{out}");
    }

    #[test]
    fn churn_epochs_are_all_free_for_dmodk() {
        let out = text(
            "2 4 3 --router dmodk --churn-links 2 --mtbf 200 --mttr 60 --churn-cycles 800",
            &Registry::new(),
        );
        assert!(out.contains("churn epoch set #0"), "{out}");
        assert!(out.contains("deadlock-free"), "{out}");
        assert!(!out.contains("CYCLIC for"), "{out}");
    }

    #[test]
    fn injection_wedges_valley_and_control_drains() {
        let reg = Registry::new();
        let out = text(
            "1 1 4 --router valley --inject true --inject-cycles 200",
            &reg,
        );
        assert!(out.contains("WEDGED (credit stall)"), "{out}");
        assert!(out.contains("conservation OK"), "{out}");
        assert!(
            out.contains("control (dmodk, same pairs): drained clean"),
            "{out}"
        );
        let snap = reg.snapshot();
        assert!(snap.spans.iter().any(|s| s.path == "deadlock.inject"));
    }

    #[test]
    fn inject_on_free_routing_is_an_error() {
        assert!(run(&argv("2 4 5 --router yuan --inject true"), &Registry::new()).is_err());
    }

    #[test]
    fn json_shape() {
        let report = run(
            &argv("1 1 4 --router valley --inject true"),
            &Registry::new(),
        )
        .unwrap();
        let out = report.json().write();
        assert!(out.starts_with('{'), "{out}");
        assert!(
            out.contains("\"router\":\"valley\",\"free\":false"),
            "{out}"
        );
        assert!(out.contains("\"wedged\":true"), "{out}");
        assert!(out.contains("\"conservation_ok\":true"), "{out}");
        assert!(out.contains("\"control_wedged\":false"), "{out}");
    }

    #[test]
    fn broken_paths_are_a_typed_failure_not_a_free_verdict() {
        let reg = Registry::new();
        let ft = build_ftree(&argv("2 4 3")).unwrap();
        let mut entries = sweep(&ft, DModK, None, &reg).unwrap();
        assert!(entries[0].analysis.is_free());
        assert_eq!(reject_broken_paths(entries.clone()).unwrap(), entries);
        entries[0].analysis.bad_hops = 3;
        match reject_broken_paths(entries) {
            Err(CliError::Failed(msg)) => {
                assert!(
                    msg.contains("`dmodk` emitted 3 non-adjacent hop(s)"),
                    "{msg}"
                );
            }
            other => panic!("expected a typed failure, got {other:?}"),
        }
    }

    fn span_paths(reg: &Registry) -> Vec<String> {
        reg.snapshot().spans.into_iter().map(|s| s.path).collect()
    }

    #[test]
    fn deadlock_records_closed_form_spans() {
        // A rule router on a pristine fabric is counted: no graph, no sweep.
        let reg = Registry::new();
        let out = text("2 4 5 --router yuan", &reg);
        assert!(out.contains("yuan      FREE (130 dependencies"), "{out}");
        assert_eq!(span_paths(&reg), ["cdg.closed_form"]);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("cdg.deps"), Some(130));
        assert_eq!(snap.gauge("cdg.channels"), Some(60));
        assert_eq!(snap.gauge("cdg.cyclic_channels"), Some(0));
        assert_eq!(snap.gauge("cdg.bitmap_words"), None);
        assert_eq!(snap.gauge("par.threads"), None);
        // Routers without a rule are built and checked.
        for router in ["valley", "multipath", "adaptive"] {
            let reg = Registry::new();
            text(&format!("2 4 5 --router {router}"), &reg);
            assert_eq!(span_paths(&reg), ["cdg.build", "cdg.scc"], "{router}");
            assert!(reg.snapshot().gauge("par.threads").is_some(), "{router}");
        }
        // A faulted fabric and every churn epoch sweep, rule or not (the
        // churn run's pristine fabric is still counted).
        let reg = Registry::new();
        text("2 4 5 --router yuan --fail-tops 1", &reg);
        assert_eq!(span_paths(&reg), ["cdg.build", "cdg.scc"]);
        let reg = Registry::new();
        let churn = "2 4 3 --router dmodk --churn-links 2 --mtbf 200 --mttr 60 --churn-cycles 800";
        text(churn, &reg);
        assert_eq!(
            span_paths(&reg),
            [
                "cdg.closed_form",
                "deadlock.churn",
                "deadlock.churn;cdg.build",
                "deadlock.churn;cdg.scc"
            ]
        );
    }

    #[test]
    fn bad_router_rejected() {
        assert!(run(&argv("2 4 5 --router bogus"), &Registry::new()).is_err());
    }
}
