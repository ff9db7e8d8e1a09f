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
use super::common::{build_ftree, fabric, fabric_json, flapping_links, SinglePath};
use super::deadlock::witness_routes;
use super::{Report, Reported};
use crate::opts::{CliError, Opts};
use ftclos_core::campaign::DeadlockFreedom;
use ftclos_core::campaign::{
    cable_universe, certify_exhaustive_with, run_randomized_with, top_switch_universe,
    AdaptiveRoutability, ArenaRoutability, CampaignConfig, CampaignError, CampaignProperty,
    CampaignReport, Certificate, FaultElement, FaultVector, Judgement, Killer, NonblockingMargin,
};
use ftclos_core::cdg::cdg_of_masked_router_with;
use ftclos_obs::json::Json;
use ftclos_obs::{obj, Recorder as _, Registry};
use ftclos_sim::{run_pinned_injection_watchdog_recorded, SimError, StallReport};
use ftclos_topo::{FaultyView, Ftree};
use std::fmt;

/// Properties a campaign can attack.
const PROPERTIES: &[&str] = &["routability", "deterministic", "nonblocking", "deadlock"];

/// The routers `--router` takes, default first; `deterministic` and
/// `deadlock` attack the chosen one.
pub(crate) const ROSTER: &[RouterName] = &[DModK, Yuan, SModK, Valley];

/// How `--confirm` replays a witness: `--confirm-cycles`, `--watchdog`,
/// `--queue-capacity` and `--seed`.
struct Replay {
    cycles: u64,
    watchdog: u64,
    queue_capacity: usize,
    seed: u64,
}

/// What `campaign --mode exhaustive` reports: the k-fault-tolerance
/// certificate, or the lexicographically-first killer.
struct ExhaustiveReport {
    ft: Ftree,
    cert: Certificate,
}

/// What `campaign --mode random` reports: the pristine baseline, every
/// killer with its minimal core, the criticality ranking, and the
/// `--confirm` replay.
struct RandomReport {
    ft: Ftree,
    baseline: Judgement,
    report: CampaignReport,
    confirmation: Option<Confirmation>,
}

/// Run the command.
pub fn run(opts: &Opts, rec: &Registry) -> Reported {
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
    let checkpoint: Option<String> = opts.flag("checkpoint").map(str::to_string);
    let resume: bool = opts.flag_or("resume", false)?;
    let halt_after: usize = opts.flag_or("halt-after", 0)?;
    let confirm: bool = opts.flag_or("confirm", false)?;
    let replay = Replay {
        cycles: opts.flag_or("confirm-cycles", 200)?,
        watchdog: opts.flag_or("watchdog", 64)?,
        queue_capacity: opts.flag_or("queue-capacity", 2)?,
        seed,
    };

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
    if mode == "random" {
        // A set draws from the fabric's cables and top switches.
        flapping_links("links", links_per_set, &ft)?;
        if switches_per_set > ft.m() {
            return Err(CliError::Usage(format!(
                "--switches {switches_per_set} exceeds the {} top switches",
                ft.m()
            )));
        }
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
            Ok(Box::new(ExhaustiveReport { cert, ft }))
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
                let target = confirm_target(&baseline, &report)?;
                Some(run_confirm(
                    &ft,
                    router_name,
                    &router,
                    target,
                    &replay,
                    rec,
                )?)
            } else {
                None
            };
            Ok(Box::new(RandomReport {
                baseline,
                report,
                confirmation,
                ft,
            }))
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

/// The `--confirm` target: the first (deterministic) minimal killer, or
/// the empty set when the pristine baseline is already cyclic.
fn confirm_target(baseline: &Judgement, report: &CampaignReport) -> Result<FaultVector, CliError> {
    if !baseline.holds {
        return Ok(FaultVector::default());
    }
    match report.killers.first() {
        Some(k) => Ok(k.minimal.clone().unwrap_or_else(|| k.faults.clone())),
        None => Err(CliError::Failed(
            "--confirm found nothing to replay: baseline holds and the campaign \
             produced no killer"
                .to_string(),
        )),
    }
}

/// Dynamically confirm a statically-cyclic minimal killer: rebuild the
/// masked CDG under `target`, attribute its witness cycle to pinned
/// routes, and drive them into the simulator under the stall watchdog.
fn run_confirm(
    ft: &Ftree,
    router_name: RouterName,
    router: &SinglePath,
    target: FaultVector,
    replay: &Replay,
    rec: &Registry,
) -> Result<Confirmation, CliError> {
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
        replay.cycles,
        replay.queue_capacity,
        replay.watchdog,
        replay.seed,
        rec,
    ) {
        Err(SimError::Stalled(stall)) => Ok(stall),
        Err(e) => Err(format!("simulation failed: {e}")),
        Ok(run) => Err(format!(
            "no stall within {} cycles ({} delivered of {})",
            replay.cycles, run.stats.delivered_total, run.stats.injected_total
        )),
    };
    Ok(Confirmation {
        target,
        witness_len: witness.len(),
        routes: routes.len(),
        outcome,
    })
}

impl fmt::Display for ExhaustiveReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cert = &self.cert;
        let (fabric, property) = (fabric(&self.ft), &cert.property);
        writeln!(f, "fault campaign on {fabric}: property {property}")?;
        let (k, size, sets) = (cert.k, cert.universe_size, cert.sets_total);
        writeln!(
            f,
            "mode: exhaustive, k = {k} over a {size}-element universe ({sets} fault sets)"
        )?;
        let tolerant = format!(
            "tolerant to every fault set of size <= {}",
            cert.tolerant_up_to
        );
        match &cert.killer {
            None => writeln!(f, "CERTIFIED: {tolerant}"),
            Some(killer) if killer.faults.is_empty() => {
                writeln!(f, "BASELINE VIOLATED: {}", killer.detail)
            }
            Some(Killer { faults, detail }) => {
                writeln!(f, "KILLER at size {}: {faults} — {detail}", faults.len())?;
                writeln!(f, "{tolerant}")
            }
        }
    }
}

impl Report for ExhaustiveReport {
    fn json(&self) -> Json {
        let cert = &self.cert;
        let killer = cert.killer.as_ref().map(|k| {
            obj! {
                "faults" => k.faults.to_string(), "size" => k.faults.len(),
                "detail" => k.detail.as_str(),
            }
        });
        obj! {
            "fabric" => fabric_json(&self.ft), "property" => cert.property.as_str(),
            "mode" => "exhaustive", "k" => cert.k, "universe_size" => cert.universe_size,
            "sets_total" => cert.sets_total,
            "certified" => cert.certified(), "tolerant_up_to" => cert.tolerant_up_to,
            "killer" => killer,
        }
    }
}

/// Killers listed in full up to this many lines; the rest is summarized.
const MAX_KILLER_LINES: usize = 16;

impl fmt::Display for RandomReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (report, baseline) = (&self.report, &self.baseline);
        let (cfg, waves, killers) = (&report.config, report.waves_done, &report.killers);
        let (fabric, property) = (fabric(&self.ft), &report.property);
        writeln!(f, "fault campaign on {fabric}: property {property}")?;
        let holds = if baseline.holds { "holds" } else { "VIOLATED" };
        writeln!(f, "baseline: {holds} — {}", baseline.detail)?;
        let (size, links, switches) = (cfg.wave_size, cfg.links_per_set, cfg.switches_per_set);
        writeln!(
            f,
            "mode: random, {waves} wave(s) x {size} set(s) ({links} link + {switches} switch \
             faults per set), seed {}",
            cfg.seed
        )?;
        writeln!(f, "property evaluations: {}", report.sets_evaluated)?;
        let (found, drawn) = (killers.len(), waves * size);
        writeln!(f, "killers: {found} of {drawn} drawn set(s)")?;
        for k in killers.iter().take(MAX_KILLER_LINES) {
            writeln!(
                f,
                "  wave {} set {}: {} — {}",
                k.wave, k.index, k.faults, k.detail
            )?;
            if let Some(minimal) = &k.minimal {
                writeln!(f, "    minimal: {minimal} ({} eval(s))", k.shrink_evals)?;
            }
        }
        if found > MAX_KILLER_LINES {
            writeln!(f, "  ... and {} more", found - MAX_KILLER_LINES)?;
        }
        if found > 0 {
            let crit = report.criticality();
            let minimal = crit.minimal_killers;
            writeln!(f, "criticality ({minimal} distinct minimal killer(s)):")?;
            for (c, count) in &crit.links {
                writeln!(f, "  link   L{:<6} x {count}", c.0)?;
            }
            for (n, count) in &crit.switches {
                writeln!(f, "  switch S{:<6} x {count}", n.0)?;
            }
        }
        let Some(c) = &self.confirmation else {
            return Ok(());
        };
        let (target, len, routes) = (&c.target, c.witness_len, c.routes);
        writeln!(
            f,
            "confirm: killer {target} -> {len}-channel witness cycle -> {routes} pinned route(s)"
        )?;
        let stall = match &c.outcome {
            Ok(stall) => stall,
            Err(msg) => return writeln!(f, "  NOT CONFIRMED: {msg}"),
        };
        let (cycle, in_flight) = (stall.cycle, stall.in_flight);
        let (strands, stranded) = (stall.strands.len(), stall.stranded_packets());
        writeln!(
            f,
            "  STALLED at cycle {cycle}: {in_flight} in flight, {strands} strand(s), \
             {stranded} stranded packet(s)"
        )?;
        let cycle: Vec<String> = stall
            .wait_cycle
            .iter()
            .map(|c| format!("L{}", c.0))
            .collect();
        if cycle.is_empty() {
            writeln!(f, "  wait-for cycle: none (acyclic stall)")?;
        } else {
            writeln!(f, "  wait-for cycle: {}", cycle.join(" -> "))?;
        }
        for s in &stall.strands {
            let holds = match s.holds {
                Some(c) => format!("L{}", c.0),
                None => "injection queue".to_string(),
            };
            let (src, dst, waits, queued) = (s.src, s.dst, s.waits_for.0, s.queued);
            writeln!(
                f,
                "    packet {src}->{dst} holds {holds} waits for L{waits} ({queued} queued)"
            )?;
        }
        Ok(())
    }
}

impl Report for RandomReport {
    fn json(&self) -> Json {
        let (report, cfg) = (&self.report, &self.report.config);
        let killers = report.killers.iter().map(|k| {
            obj! {
                "wave" => k.wave, "index" => k.index, "faults" => k.faults.to_string(),
                "detail" => k.detail.as_str(),
                "minimal" => k.minimal.as_ref().map(ToString::to_string),
                "shrink_evals" => k.shrink_evals,
            }
        });
        let crit = report.criticality();
        let links = crit
            .links
            .iter()
            .map(|(c, n)| obj! { "link" => c.0, "count" => *n });
        let switches = crit
            .switches
            .iter()
            .map(|(s, n)| obj! { "switch" => s.0, "count" => *n });
        let confirm = self.confirmation.as_ref().map(|c| {
            let outcome = match &c.outcome {
                Ok(stall) => {
                    let strands = stall.strands.iter().map(|s| {
                        obj! {
                            "src" => s.src, "dst" => s.dst, "holds" => s.holds.map(|c| c.0),
                            "waits_for" => s.waits_for.0, "queued" => s.queued,
                        }
                    });
                    obj! {
                        "stalled" => true, "cycle" => stall.cycle,
                        "in_flight" => stall.in_flight,
                        "stranded_packets" => stall.stranded_packets(),
                        "wait_cycle" => stall.wait_cycle.iter().map(|c| c.0).collect::<Json>(),
                        "strands" => strands.collect::<Json>(),
                    }
                }
                Err(msg) => obj! { "stalled" => false, "reason" => msg.as_str() },
            };
            obj! {
                "target" => c.target.to_string(), "witness_len" => c.witness_len,
                "routes" => c.routes, "outcome" => outcome,
            }
        });
        obj! {
            "fabric" => fabric_json(&self.ft), "property" => report.property.to_string(),
            "mode" => "random",
            "baseline_holds" => self.baseline.holds,
            "baseline_detail" => self.baseline.detail.as_str(), "seed" => cfg.seed,
            "waves" => report.waves_done,
            "wave_size" => cfg.wave_size, "links_per_set" => cfg.links_per_set,
            "switches_per_set" => cfg.switches_per_set, "shrink" => cfg.shrink,
            "sets_evaluated" => report.sets_evaluated, "killers" => killers.collect::<Json>(),
            "criticality" => obj! {
                "minimal_killers" => crit.minimal_killers,
                "links" => links.collect::<Json>(), "switches" => switches.collect::<Json>(),
            },
            "confirm" => confirm,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Opts {
        Opts::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>()).unwrap()
    }

    /// The text report of `campaign <args>`.
    fn text(args: &str, reg: &Registry) -> String {
        run(&argv(args), reg).unwrap().to_string()
    }

    #[test]
    fn exhaustive_certifies_top_tolerance() {
        let reg = Registry::new();
        let out = text("2 4 5 --mode exhaustive --k 2 --universe tops", &reg);
        assert!(out.contains("CERTIFIED"), "{out}");
        assert!(out.contains("11 fault sets"), "{out}"); // 1 + 4 + 6
        let snap = reg.snapshot();
        assert!(snap.spans.iter().any(|s| s.path == "campaign.certify"));
    }

    #[test]
    fn exhaustive_finds_link_killer() {
        let out = text(
            "2 4 5 --mode exhaustive --k 1 --universe links",
            &Registry::new(),
        );
        assert!(out.contains("KILLER at size 1"), "{out}");
        assert!(out.contains("host 0 severed"), "{out}");
    }

    #[test]
    fn random_campaign_shrinks_and_ranks() {
        let reg = Registry::new();
        let out = text(
            "2 4 5 --waves 6 --wave-size 8 --links 2 --switches 1 --seed 7 --shrink true",
            &reg,
        );
        assert!(out.contains("baseline: holds"), "{out}");
        assert!(out.contains("criticality"), "{out}");
        assert!(out.contains("minimal:"), "{out}");
        let snap = reg.snapshot();
        assert!(snap.spans.iter().any(|s| s.path == "campaign.wave"));
        assert!(snap.spans.iter().any(|s| s.path == "campaign.shrink"));
    }

    #[test]
    fn confirm_replays_valley_wedge_as_stall() {
        let out = text(
            "1 1 4 --property deadlock --router valley --waves 1 --wave-size 2 \
                 --links 1 --switches 0 --shrink true --confirm true",
            &Registry::new(),
        );
        assert!(out.contains("baseline: VIOLATED"), "{out}");
        assert!(out.contains("STALLED at cycle"), "{out}");
        assert!(out.contains("wait-for cycle:"), "{out}");
        assert!(out.contains("holds L"), "{out}");
    }

    #[test]
    fn confirm_traces_the_cycle_check() {
        let reg = Registry::new();
        text(
            "1 1 4 --property deadlock --router valley --waves 1 --wave-size 2 \
                 --links 1 --switches 0 --shrink true --confirm true",
            &reg,
        );
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
        let full = text(base, &Registry::new());
        let halted = text(
            &format!("{base} --checkpoint {ckpt} --halt-after 2"),
            &Registry::new(),
        );
        assert_ne!(halted, full);
        let resumed = text(
            &format!("{base} --checkpoint {ckpt} --resume true"),
            &Registry::new(),
        );
        assert_eq!(resumed, full, "resume must reproduce the full report");
        let _ = std::fs::remove_file(ckpt);
    }

    #[test]
    fn json_shapes() {
        let json = |args: &str| run(&argv(args), &Registry::new()).unwrap().json().write();
        let out = json("2 4 5 --mode exhaustive --k 1 --universe tops");
        assert!(out.starts_with('{'), "{out}");
        assert!(out.contains("\"certified\":true"), "{out}");
        let out = json("2 4 5 --waves 2 --wave-size 4 --seed 7 --shrink true");
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
        // A set draws at most the fabric's 30 cables and 4 top switches:
        // more is a usage error, refused before the property is built.
        for (args, msg) in [
            ("--links 31", "--links 31 exceeds the fabric's 30 cables"),
            ("--switches 5", "--switches 5 exceeds the 4 top switches"),
        ] {
            let reg = Registry::new();
            match run(
                &argv(&format!("2 4 5 --property deterministic {args}")),
                &reg,
            ) {
                Err(CliError::Usage(m)) => assert_eq!(m, msg),
                Err(other) => panic!("{args}: want a usage error, got {other:?}"),
                Ok(report) => panic!("{args}: want a usage error, got {report}"),
            }
            assert!(reg.snapshot().spans.is_empty(), "{args}: no work ran");
        }
        text(
            "2 4 5 --links 30 --switches 4 --waves 1 --wave-size 1",
            &reg,
        );
        text(
            "2 4 5 --mode exhaustive --k 1 --links 31 --switches 5",
            &reg,
        );
    }

    #[test]
    fn nonblocking_property_kills_on_no_spare_fabric() {
        // ftree(2+4, 5) has m = n² (zero spares): one dead top must break
        // the nonblocking sweep while routability survives it.
        let out = text(
            "2 4 5 --property nonblocking --mode exhaustive --k 1 --universe tops --samples 10",
            &Registry::new(),
        );
        assert!(out.contains("KILLER at size 1"), "{out}");
    }
}
