//! `ftclos campaign <n> <m> <r> [--property routability|deterministic|
//! nonblocking|deadlock] [--mode random|exhaustive] [--k K]
//! [--universe tops|links|mixed] [--waves N] [--wave-size N] [--links K]
//! [--switches K] [--samples N] [--router R] [--seed S] [--shrink]
//! [--checkpoint FILE] [--resume] [--halt-after N] [--confirm]
//! [--confirm-cycles N] [--watchdog N] [--queue-capacity K] [--json]`
//! — adversarial fault campaigns against a fabric property.
//!
//! * `--mode exhaustive` enumerates every fault set of size ≤ `--k` from
//!   the chosen universe and prints a k-fault-tolerance certificate or the
//!   lexicographically-first killer.
//! * `--mode random` (default) fires `--waves` seeded waves of
//!   `--wave-size` fault sets, each failing `--links` random cables and
//!   `--switches` random top switches; `--shrink` reduces every killer to
//!   a 1-minimal counterexample and the report ends with the per-component
//!   criticality ranking.
//! * `--checkpoint FILE` writes campaign state after every wave;
//!   `--resume` (with the same campaign arguments) continues from it and
//!   produces the identical final report. `--halt-after N` stops after N
//!   waves (testing knob for the checkpoint path).
//! * `--confirm` (deadlock property only) closes the loop dynamically: the
//!   minimal killer's masked CDG witness cycle is attributed to pinned
//!   routes, injected into the packet simulator under a stall watchdog,
//!   and the resulting [`ftclos_sim::SimError::Stalled`] strand graph —
//!   which packets hold which channel waiting on which — is printed as the
//!   dynamic confirmation of the static cycle.
//!
//! The final report never mentions checkpointing, so an interrupted-and-
//! resumed campaign is byte-identical to an uninterrupted one.

use super::common::RouterName::{self, DModK, SModK, Valley, Yuan};
use super::common::{build_ftree, fabric, SinglePath};
use super::deadlock::witness_routes;
use crate::opts::{CliError, Opts};
use ftclos_core::campaign::DeadlockFreedom;
use ftclos_core::campaign::{
    cable_universe, certify_exhaustive_with, run_randomized_with, top_switch_universe,
    AdaptiveRoutability, ArenaRoutability, CampaignConfig, CampaignError, CampaignProperty,
    CampaignReport, Certificate, FaultElement, FaultVector, NonblockingMargin,
};
use ftclos_core::cdg::cdg_of_masked_router_with;
use ftclos_obs::json::quote;
use ftclos_obs::{Recorder as _, Registry};
use ftclos_sim::{run_pinned_injection_watchdog_recorded, SimError, StallReport};
use ftclos_topo::{FaultyView, Ftree};
use std::fmt::Write as _;

/// Properties a campaign can attack.
const PROPERTIES: &[&str] = &["routability", "deterministic", "nonblocking", "deadlock"];

/// The routers `--router` takes, default first; `deterministic` and
/// `deadlock` attack the chosen one.
pub(crate) const ROSTER: &[RouterName] = &[DModK, Yuan, SModK, Valley];

/// Run the command.
pub fn run(opts: &Opts, rec: &Registry) -> Result<String, CliError> {
    let ft = build_ftree(opts)?;
    let property_name: String = opts.flag_or("property", "routability".to_string())?;
    let mode: String = opts.flag_or("mode", "random".to_string())?;
    let k: usize = opts.flag_or("k", 2)?;
    let universe: String = opts.flag_or("universe", "tops".to_string())?;
    let waves: usize = opts.flag_or("waves", 16)?;
    let wave_size: usize = opts.flag_or("wave-size", 16)?;
    let links_per_set: usize = opts.flag_or("links", 2)?;
    let switches_per_set: usize = opts.flag_or("switches", 1)?;
    let samples: usize = opts.flag_or("samples", 20)?;
    let router_name = RouterName::flag(opts, ROSTER)?;
    let seed: u64 = opts.flag_or("seed", 0)?;
    let do_shrink: bool = opts.flag_or("shrink", false)?;
    let json: bool = opts.flag_or("json", false)?;
    let checkpoint: Option<String> = opts.flag("checkpoint").map(str::to_string);
    let resume: bool = opts.flag_or("resume", false)?;
    let halt_after: usize = opts.flag_or("halt-after", 0)?;
    let confirm: bool = opts.flag_or("confirm", false)?;
    let confirm_cycles: u64 = opts.flag_or("confirm-cycles", 200)?;
    let watchdog: u64 = opts.flag_or("watchdog", 64)?;
    let queue_capacity: usize = opts.flag_or("queue-capacity", 2)?;

    if !PROPERTIES.contains(&property_name.as_str()) {
        return Err(CliError::Usage(format!(
            "unknown property `{property_name}` (one of {PROPERTIES:?})"
        )));
    }
    if confirm && property_name != "deadlock" {
        return Err(CliError::Usage(
            "--confirm needs --property deadlock (it replays a CDG witness cycle)".to_string(),
        ));
    }

    // Own the router + property for the duration of the run; `property`
    // is the trait object every campaign mode attacks.
    let topo = ft.topology();
    let router = SinglePath::new(&ft, router_name)?;
    let routability;
    let deterministic;
    let nonblocking;
    let deadlock;
    let property: &dyn CampaignProperty = match property_name.as_str() {
        "routability" => {
            routability = AdaptiveRoutability::new(&ft);
            &routability
        }
        "deterministic" => {
            deterministic = ArenaRoutability::new(topo, &router)
                .map_err(|e| CliError::Failed(e.to_string()))?;
            &deterministic
        }
        "nonblocking" => {
            nonblocking = NonblockingMargin::new(&ft, samples, seed);
            &nonblocking
        }
        _ => {
            deadlock = DeadlockFreedom::new(topo, &router);
            &deadlock
        }
    };
    let baseline = property.judge(&FaultVector::default());

    match mode.as_str() {
        "exhaustive" => {
            let elems = exhaustive_universe(&ft, &universe)?;
            let cert = certify_exhaustive_with(property, &elems, k, rec);
            rec.gauge("campaign.certified", u64::from(cert.certified()));
            Ok(if json {
                certificate_json(&ft, &cert)
            } else {
                certificate_text(&ft, &cert)
            })
        }
        "random" => {
            let links = cable_universe(topo);
            let switches = top_switch_universe(topo);
            let cfg = CampaignConfig {
                seed,
                waves,
                wave_size,
                links_per_set,
                switches_per_set,
                shrink: do_shrink,
            };
            let prior = if resume {
                let Some(path) = &checkpoint else {
                    return Err(CliError::Usage(
                        "--resume needs --checkpoint FILE to read from".to_string(),
                    ));
                };
                let text = std::fs::read_to_string(path)
                    .map_err(|e| CliError::Failed(format!("cannot read checkpoint {path}: {e}")))?;
                Some(
                    CampaignReport::parse_checkpoint(&text)
                        .map_err(|e| CliError::Failed(e.to_string()))?,
                )
            } else {
                None
            };
            let mut on_wave = |state: &CampaignReport| {
                if let Some(path) = &checkpoint {
                    std::fs::write(path, state.to_checkpoint_text())
                        .map_err(|e| CampaignError::Io(format!("writing {path}: {e}")))?;
                }
                Ok(halt_after == 0 || state.waves_done < halt_after)
            };
            let report = run_randomized_with(
                property,
                &links,
                &switches,
                &cfg,
                prior.as_ref(),
                rec,
                &mut on_wave,
            )
            .map_err(|e| CliError::Failed(e.to_string()))?;
            let confirmation = if confirm {
                Some(run_confirm(
                    &ft,
                    router_name,
                    &router,
                    &baseline,
                    &report,
                    confirm_cycles,
                    watchdog,
                    queue_capacity,
                    seed,
                    rec,
                )?)
            } else {
                None
            };
            let confirmation = confirmation.as_ref();
            Ok(if json {
                report_json(&ft, &baseline, &report, confirmation)
            } else {
                report_text(&ft, &baseline, &report, confirmation)
            })
        }
        other => Err(CliError::Usage(format!(
            "unknown mode `{other}` (random or exhaustive)"
        ))),
    }
}

/// The element universe for exhaustive certification.
fn exhaustive_universe(ft: &Ftree, universe: &str) -> Result<Vec<FaultElement>, CliError> {
    let topo = ft.topology();
    let tops = || {
        top_switch_universe(topo)
            .into_iter()
            .map(FaultElement::Switch)
    };
    let links = || cable_universe(topo).into_iter().map(FaultElement::Link);
    match universe {
        "tops" => Ok(tops().collect()),
        "links" => Ok(links().collect()),
        "mixed" => Ok(links().chain(tops()).collect()),
        other => Err(CliError::Usage(format!(
            "unknown universe `{other}` (tops, links, or mixed)"
        ))),
    }
}

/// The target fault set and stall outcome of a `--confirm` replay.
struct Confirmation {
    target: FaultVector,
    witness_len: usize,
    routes: usize,
    outcome: Result<StallReport, String>,
}

/// Dynamically confirm a statically-cyclic minimal killer: rebuild the
/// masked CDG under the killer, attribute its witness cycle to pinned
/// routes, and drive them into the simulator under the stall watchdog.
#[allow(clippy::too_many_arguments)]
fn run_confirm(
    ft: &Ftree,
    router_name: RouterName,
    router: &SinglePath,
    baseline: &ftclos_core::campaign::Judgement,
    report: &CampaignReport,
    cycles: u64,
    watchdog: u64,
    queue_capacity: usize,
    seed: u64,
    rec: &Registry,
) -> Result<Confirmation, CliError> {
    // The confirmation target: the first (deterministic) minimal killer,
    // or the empty set when the pristine baseline is already cyclic.
    let target = if !baseline.holds {
        FaultVector::default()
    } else {
        match report.killers.first() {
            Some(k) => k.minimal.clone().unwrap_or_else(|| k.faults.clone()),
            None => {
                return Err(CliError::Failed(
                    "--confirm found nothing to replay: baseline holds and the campaign \
                     produced no killer"
                        .to_string(),
                ))
            }
        }
    };
    let _s = rec.span("campaign.confirm");
    let topo = ft.topology();
    let fs = target.to_fault_set(topo);
    let view = FaultyView::new(topo, &fs);
    let analysis = cdg_of_masked_router_with(router, &view, rec).check_with(rec);
    let Some(witness) = analysis.verdict.witness() else {
        return Err(CliError::Failed(format!(
            "--confirm target {target} is not statically cyclic for router {router_name}"
        )));
    };
    let view_opt = (!target.is_empty()).then_some(&view);
    let routes = witness_routes(ft, router_name, view_opt, witness);
    if routes.is_empty() {
        return Err(CliError::Failed(
            "witness attribution found no realizing routes".to_string(),
        ));
    }
    let outcome = match run_pinned_injection_watchdog_recorded(
        topo,
        &routes,
        cycles,
        queue_capacity,
        watchdog,
        seed,
        rec,
    ) {
        Err(SimError::Stalled(stall)) => Ok(stall),
        Err(e) => Err(format!("simulation failed: {e}")),
        Ok(run) => Err(format!(
            "no stall within {cycles} cycles ({} delivered of {})",
            run.stats.delivered_total, run.stats.injected_total
        )),
    };
    Ok(Confirmation {
        target,
        witness_len: witness.len(),
        routes: routes.len(),
        outcome,
    })
}

fn certificate_text(ft: &Ftree, cert: &Certificate) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fault campaign on {}: property {}",
        fabric(ft),
        cert.property
    );
    let _ = writeln!(
        out,
        "mode: exhaustive, k = {} over a {}-element universe ({} fault sets)",
        cert.k, cert.universe_size, cert.sets_total
    );
    match &cert.killer {
        None => {
            let _ = writeln!(
                out,
                "CERTIFIED: tolerant to every fault set of size <= {}",
                cert.tolerant_up_to
            );
        }
        Some(killer) if killer.faults.is_empty() => {
            let _ = writeln!(out, "BASELINE VIOLATED: {}", killer.detail);
        }
        Some(killer) => {
            let _ = writeln!(
                out,
                "KILLER at size {}: {} — {}",
                killer.faults.len(),
                killer.faults,
                killer.detail
            );
            let _ = writeln!(
                out,
                "tolerant to every fault set of size <= {}",
                cert.tolerant_up_to
            );
        }
    }
    out
}

fn certificate_json(ft: &Ftree, cert: &Certificate) -> String {
    let killer = match &cert.killer {
        None => "null".to_string(),
        Some(k) => format!(
            "{{\"faults\":\"{}\",\"size\":{},\"detail\":{}}}",
            k.faults,
            k.faults.len(),
            quote(&k.detail)
        ),
    };
    format!(
        "{{\"fabric\":{{\"n\":{},\"m\":{},\"r\":{}}},\"property\":\"{}\",\
         \"mode\":\"exhaustive\",\"k\":{},\"universe_size\":{},\"sets_total\":{},\
         \"certified\":{},\"tolerant_up_to\":{},\"killer\":{}}}",
        ft.n(),
        ft.m(),
        ft.r(),
        cert.property,
        cert.k,
        cert.universe_size,
        cert.sets_total,
        cert.certified(),
        cert.tolerant_up_to,
        killer
    )
}

/// Killers listed in full up to this many lines; the rest is summarized.
const MAX_KILLER_LINES: usize = 16;

fn report_text(
    ft: &Ftree,
    baseline: &ftclos_core::campaign::Judgement,
    report: &CampaignReport,
    confirmation: Option<&Confirmation>,
) -> String {
    let cfg = &report.config;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fault campaign on {}: property {}",
        fabric(ft),
        report.property
    );
    let _ = writeln!(
        out,
        "baseline: {} — {}",
        if baseline.holds { "holds" } else { "VIOLATED" },
        baseline.detail
    );
    let _ = writeln!(
        out,
        "mode: random, {} wave(s) x {} set(s) ({} link + {} switch faults per set), seed {}",
        report.waves_done, cfg.wave_size, cfg.links_per_set, cfg.switches_per_set, cfg.seed
    );
    let _ = writeln!(out, "property evaluations: {}", report.sets_evaluated);
    let drawn = report.waves_done * cfg.wave_size;
    let _ = writeln!(
        out,
        "killers: {} of {} drawn set(s)",
        report.killers.len(),
        drawn
    );
    for k in report.killers.iter().take(MAX_KILLER_LINES) {
        let _ = writeln!(
            out,
            "  wave {} set {}: {} — {}",
            k.wave, k.index, k.faults, k.detail
        );
        if let Some(minimal) = &k.minimal {
            let _ = writeln!(out, "    minimal: {} ({} eval(s))", minimal, k.shrink_evals);
        }
    }
    if report.killers.len() > MAX_KILLER_LINES {
        let _ = writeln!(
            out,
            "  ... and {} more",
            report.killers.len() - MAX_KILLER_LINES
        );
    }
    if !report.killers.is_empty() {
        let crit = report.criticality();
        let _ = writeln!(
            out,
            "criticality ({} distinct minimal killer(s)):",
            crit.minimal_killers
        );
        for (c, count) in &crit.links {
            let _ = writeln!(out, "  link   L{:<6} x {count}", c.0);
        }
        for (n, count) in &crit.switches {
            let _ = writeln!(out, "  switch S{:<6} x {count}", n.0);
        }
    }
    if let Some(c) = confirmation {
        let _ = writeln!(
            out,
            "confirm: killer {} -> {}-channel witness cycle -> {} pinned route(s)",
            c.target, c.witness_len, c.routes
        );
        match &c.outcome {
            Ok(stall) => {
                let _ = writeln!(
                    out,
                    "  STALLED at cycle {}: {} in flight, {} strand(s), {} stranded packet(s)",
                    stall.cycle,
                    stall.in_flight,
                    stall.strands.len(),
                    stall.stranded_packets()
                );
                let cycle: Vec<String> = stall
                    .wait_cycle
                    .iter()
                    .map(|c| format!("L{}", c.0))
                    .collect();
                let _ = writeln!(
                    out,
                    "  wait-for cycle: {}",
                    if cycle.is_empty() {
                        "none (acyclic stall)".to_string()
                    } else {
                        cycle.join(" -> ")
                    }
                );
                for s in &stall.strands {
                    let _ = writeln!(
                        out,
                        "    packet {}->{} holds {} waits for L{} ({} queued)",
                        s.src,
                        s.dst,
                        match s.holds {
                            Some(c) => format!("L{}", c.0),
                            None => "injection queue".to_string(),
                        },
                        s.waits_for.0,
                        s.queued
                    );
                }
            }
            Err(msg) => {
                let _ = writeln!(out, "  NOT CONFIRMED: {msg}");
            }
        }
    }
    out
}

fn report_json(
    ft: &Ftree,
    baseline: &ftclos_core::campaign::Judgement,
    report: &CampaignReport,
    confirmation: Option<&Confirmation>,
) -> String {
    let cfg = &report.config;
    let killers: Vec<String> = report
        .killers
        .iter()
        .map(|k| {
            let minimal = match &k.minimal {
                Some(fv) => format!("\"{fv}\""),
                None => "null".to_string(),
            };
            format!(
                "{{\"wave\":{},\"index\":{},\"faults\":\"{}\",\"detail\":{},\
                 \"minimal\":{},\"shrink_evals\":{}}}",
                k.wave,
                k.index,
                k.faults,
                quote(&k.detail),
                minimal,
                k.shrink_evals
            )
        })
        .collect();
    let crit = report.criticality();
    let crit_links: Vec<String> = crit
        .links
        .iter()
        .map(|(c, n)| format!("{{\"link\":{},\"count\":{n}}}", c.0))
        .collect();
    let crit_switches: Vec<String> = crit
        .switches
        .iter()
        .map(|(s, n)| format!("{{\"switch\":{},\"count\":{n}}}", s.0))
        .collect();
    let confirm_json = match confirmation {
        None => "null".to_string(),
        Some(c) => {
            let outcome = match &c.outcome {
                Ok(stall) => {
                    let cycle: Vec<String> =
                        stall.wait_cycle.iter().map(|c| c.0.to_string()).collect();
                    let strands: Vec<String> = stall
                        .strands
                        .iter()
                        .map(|s| {
                            format!(
                                "{{\"src\":{},\"dst\":{},\"holds\":{},\"waits_for\":{},\
                                 \"queued\":{}}}",
                                s.src,
                                s.dst,
                                match s.holds {
                                    Some(c) => c.0.to_string(),
                                    None => "null".to_string(),
                                },
                                s.waits_for.0,
                                s.queued
                            )
                        })
                        .collect();
                    format!(
                        "{{\"stalled\":true,\"cycle\":{},\"in_flight\":{},\
                         \"stranded_packets\":{},\"wait_cycle\":[{}],\"strands\":[{}]}}",
                        stall.cycle,
                        stall.in_flight,
                        stall.stranded_packets(),
                        cycle.join(","),
                        strands.join(",")
                    )
                }
                Err(msg) => format!("{{\"stalled\":false,\"reason\":{}}}", quote(msg)),
            };
            format!(
                "{{\"target\":\"{}\",\"witness_len\":{},\"routes\":{},\"outcome\":{}}}",
                c.target, c.witness_len, c.routes, outcome
            )
        }
    };
    format!(
        "{{\"fabric\":{{\"n\":{},\"m\":{},\"r\":{}}},\"property\":\"{}\",\"mode\":\"random\",\
         \"baseline_holds\":{},\"baseline_detail\":{},\"seed\":{},\"waves\":{},\
         \"wave_size\":{},\"links_per_set\":{},\"switches_per_set\":{},\"shrink\":{},\
         \"sets_evaluated\":{},\"killers\":[{}],\"criticality\":{{\"minimal_killers\":{},\
         \"links\":[{}],\"switches\":[{}]}},\"confirm\":{}}}",
        ft.n(),
        ft.m(),
        ft.r(),
        report.property,
        baseline.holds,
        quote(&baseline.detail),
        cfg.seed,
        report.waves_done,
        cfg.wave_size,
        cfg.links_per_set,
        cfg.switches_per_set,
        cfg.shrink,
        report.sets_evaluated,
        killers.join(","),
        crit.minimal_killers,
        crit_links.join(","),
        crit_switches.join(","),
        confirm_json
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Opts {
        Opts::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn exhaustive_certifies_top_tolerance() {
        let reg = Registry::new();
        let out = run(&argv("2 4 5 --mode exhaustive --k 2 --universe tops"), &reg).unwrap();
        assert!(out.contains("CERTIFIED"), "{out}");
        assert!(out.contains("11 fault sets"), "{out}"); // 1 + 4 + 6
        let snap = reg.snapshot();
        assert!(snap.spans.iter().any(|s| s.path == "campaign.certify"));
    }

    #[test]
    fn exhaustive_finds_link_killer() {
        let out = run(
            &argv("2 4 5 --mode exhaustive --k 1 --universe links"),
            &Registry::new(),
        )
        .unwrap();
        assert!(out.contains("KILLER at size 1"), "{out}");
        assert!(out.contains("host 0 severed"), "{out}");
    }

    #[test]
    fn random_campaign_shrinks_and_ranks() {
        let reg = Registry::new();
        let out = run(
            &argv("2 4 5 --waves 6 --wave-size 8 --links 2 --switches 1 --seed 7 --shrink true"),
            &reg,
        )
        .unwrap();
        assert!(out.contains("baseline: holds"), "{out}");
        assert!(out.contains("criticality"), "{out}");
        assert!(out.contains("minimal:"), "{out}");
        let snap = reg.snapshot();
        assert!(snap.spans.iter().any(|s| s.path == "campaign.wave"));
        assert!(snap.spans.iter().any(|s| s.path == "campaign.shrink"));
    }

    #[test]
    fn confirm_replays_valley_wedge_as_stall() {
        let out = run(
            &argv(
                "1 1 4 --property deadlock --router valley --waves 1 --wave-size 2 \
                 --links 1 --switches 0 --shrink true --confirm true",
            ),
            &Registry::new(),
        )
        .unwrap();
        assert!(out.contains("baseline: VIOLATED"), "{out}");
        assert!(out.contains("STALLED at cycle"), "{out}");
        assert!(out.contains("wait-for cycle:"), "{out}");
        assert!(out.contains("holds L"), "{out}");
    }

    #[test]
    fn confirm_traces_the_cycle_check() {
        let reg = Registry::new();
        run(
            &argv(
                "1 1 4 --property deadlock --router valley --waves 1 --wave-size 2 \
                 --links 1 --switches 0 --shrink true --confirm true",
            ),
            &reg,
        )
        .unwrap();
        let snap = reg.snapshot();
        let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
        for want in ["campaign.confirm;cdg.build", "campaign.confirm;cdg.scc"] {
            assert!(paths.contains(&want), "{want} missing from {paths:?}");
        }
        assert!(
            snap.gauge("cdg.cyclic_channels").is_some_and(|c| c > 0),
            "the confirmed target is cyclic"
        );
    }

    #[test]
    fn confirm_requires_deadlock_property() {
        assert!(run(&argv("2 4 5 --confirm true"), &Registry::new()).is_err());
        // And errors out when there is nothing cyclic to replay.
        assert!(run(
            &argv(
                "2 4 5 --property deadlock --router dmodk --waves 1 --wave-size 2 --confirm true"
            ),
            &Registry::new(),
        )
        .is_err());
    }

    #[test]
    fn checkpoint_halt_and_resume_match_uninterrupted() {
        let dir = std::env::temp_dir();
        let ckpt = dir.join("ftclos_campaign_cmd_test.ckpt");
        let ckpt = ckpt.to_str().unwrap();
        let _ = std::fs::remove_file(ckpt);
        let base = "2 4 5 --waves 4 --wave-size 6 --links 2 --switches 1 --seed 11 --shrink true";
        let full = run(&argv(base), &Registry::new()).unwrap();
        let halted = run(
            &argv(&format!("{base} --checkpoint {ckpt} --halt-after 2")),
            &Registry::new(),
        )
        .unwrap();
        assert_ne!(halted, full);
        let resumed = run(
            &argv(&format!("{base} --checkpoint {ckpt} --resume true")),
            &Registry::new(),
        )
        .unwrap();
        assert_eq!(resumed, full, "resume must reproduce the full report");
        let _ = std::fs::remove_file(ckpt);
    }

    #[test]
    fn json_shapes() {
        let out = run(
            &argv("2 4 5 --mode exhaustive --k 1 --universe tops --json true"),
            &Registry::new(),
        )
        .unwrap();
        assert!(out.starts_with('{'), "{out}");
        assert!(out.contains("\"certified\":true"), "{out}");
        let out = run(
            &argv("2 4 5 --waves 2 --wave-size 4 --seed 7 --shrink true --json true"),
            &Registry::new(),
        )
        .unwrap();
        assert!(out.contains("\"criticality\""), "{out}");
        assert!(out.contains("\"baseline_holds\":true"), "{out}");
    }

    #[test]
    fn rejects_bad_arguments() {
        let reg = Registry::new();
        assert!(run(&argv("2 4 5 --property bogus"), &reg).is_err());
        assert!(run(&argv("2 4 5 --mode bogus"), &reg).is_err());
        assert!(run(&argv("2 4 5 --mode exhaustive --universe bogus"), &reg).is_err());
        assert!(run(&argv("2 4 5 --router bogus --property deterministic"), &reg).is_err());
        assert!(run(&argv("2 4 5 --resume true"), &reg).is_err());
    }

    #[test]
    fn nonblocking_property_kills_on_no_spare_fabric() {
        // ftree(2+4, 5) has m = n² (zero spares): one dead top must break
        // the nonblocking sweep while routability survives it.
        let out = run(
            &argv(
                "2 4 5 --property nonblocking --mode exhaustive --k 1 --universe tops --samples 10",
            ),
            &Registry::new(),
        )
        .unwrap();
        assert!(out.contains("KILLER at size 1"), "{out}");
    }
}
