//! The outside-in traced pipeline: `ftclos-benchmark pipeline <workload>`.
//!
//! For a CLI workload it calls the same public library functions, in the
//! same order and with the same recorder plumbing, as the command bodies in
//! `crates/cli/src/commands/{verify,deadlock,simulate}.rs`, each call inside
//! a bench-owned span named `bench.<layer>.<call>`. For the two scale
//! workloads, which no command line can express, it *is* the measured
//! program. Spans and counts are the benchmark's own, recorded here around
//! the calls into each layer; nothing inside `crates/` is touched.
//!
//! Every time is a span and every count a counter or gauge of one
//! `ftclos_obs` recorder, so the trace written at exit is readable by
//! `ftclos stats`. The driver turns it into the per-layer metrics
//! (`crate::layers`) and compares the facts printed here with those parsed
//! from the command's stdout, so the pipeline cannot drift from the command
//! unnoticed.

use crate::check::Facts;
use crate::workloads::Workload;
use ftclos_cli::commands::common::{build_ftree, make_pattern};
use ftclos_cli::Opts;
use ftclos_core::cdg::cdg_of_router_with;
use ftclos_core::ContentionEngine;
use ftclos_evsim::EventSimulator;
use ftclos_obs::{Noop, Recorder, Registry};
use ftclos_routing::{route_all, DModK, PathArena, SinglePathRouter, YuanDeterministic};
use ftclos_routing::{RouteAssignment, YuanRecursive};
use ftclos_sim::Workload as Traffic;
use ftclos_sim::{Arbiter, FaultSchedule, Policy, SimArena, SimConfig, SimStats};
use ftclos_topo::{Ftree, RecursiveNonblocking, Topology};
use ftclos_traffic::{patterns, Permutation};
use std::path::Path;

/// Render facts the way the pipeline prints them: one `key=value` per line.
pub fn render_facts(facts: &Facts) -> String {
    facts.iter().map(|(k, v)| format!("{k}={v}\n")).collect()
}

fn say(facts: &mut Facts, key: &str, value: impl ToString) {
    facts.push((key.to_string(), value.to_string()));
}

/// Run `workload` at `seed`. With `trace`, spans and counts are recorded and
/// written there as trace JSON; without, the recorder is the free `Noop`.
///
/// # Errors
/// Any layer's error, a conservation failure, or an unwritable trace file.
pub fn run(workload: &Workload, seed: u64, trace: Option<&Path>) -> Result<Facts, String> {
    let Some(path) = trace else {
        return run_with(workload, seed, &Noop);
    };
    let reg = Registry::new();
    let facts = run_with(workload, seed, &reg)?;
    if workload.name == "sim-steady" {
        recording_probe(workload, seed, &reg)?;
    }
    {
        // Rendered once under a span and discarded, so that the cost of
        // taking and serializing a snapshot is itself in the trace.
        let _s = reg.span("bench.obs.snapshot_json");
        let _ = reg.snapshot().to_json("pipeline", workload.name);
    }
    let args = format!("{} --seed {seed}", workload.name);
    std::fs::write(path, reg.snapshot().to_json("pipeline", &args))
        .map_err(|e| format!("cannot write trace {}: {e}", path.display()))?;
    Ok(facts)
}

fn run_with<R: Recorder>(workload: &Workload, seed: u64, rec: &R) -> Result<Facts, String> {
    let _root = rec.span("bench.pipeline");
    let mut facts = Facts::new();
    match workload.name {
        "scale-million" => scale_million(seed, rec, &mut facts)?,
        "scale-recursive" => scale_recursive(seed, rec, &mut facts)?,
        _ => {
            for (_, args) in workload.invocations(seed) {
                let opts = Opts::parse(&args[1..]).map_err(|e| e.to_string())?;
                match args[0].as_str() {
                    "verify" => mirror_verify(&opts, rec, &mut facts)?,
                    "deadlock" => mirror_deadlock(&opts, rec, &mut facts)?,
                    "simulate" => mirror_simulate(&opts, rec, &mut facts)?,
                    other => return Err(format!("no pipeline mirrors `ftclos {other}`")),
                }
            }
        }
    }
    Ok(facts)
}

fn topo_counts<R: Recorder>(rec: &R, topo: &Topology) {
    rec.add("bench.topo.channels", topo.num_channels() as u64);
    rec.gauge("bench.topo.bytes", topo.memory_bytes() as u64);
}

fn timed_ftree<R: Recorder>(opts: &Opts, rec: &R) -> Result<Ftree, String> {
    let ft = {
        let _s = rec.span("bench.topo.build");
        build_ftree(opts).map_err(|e| e.to_string())?
    };
    topo_counts(rec, ft.topology());
    Ok(ft)
}

/// `ftclos verify`: arena build, census, Lemma 1 scan.
fn mirror_verify<R: Recorder>(opts: &Opts, rec: &R, facts: &mut Facts) -> Result<(), String> {
    let ft = timed_ftree(opts, rec)?;
    match opts.flag("router").unwrap_or("yuan") {
        "yuan" => {
            let router = {
                let _s = rec.span("bench.routing.router_new");
                YuanDeterministic::new(&ft).map_err(|e| e.to_string())?
            };
            audit(&router, rec, facts)?;
        }
        "dmodk" => {
            let router = {
                let _s = rec.span("bench.routing.router_new");
                DModK::new(&ft)
            };
            audit(&router, rec, facts)?;
        }
        other => return Err(format!("verify pipeline has no router `{other}`")),
    }
    let _s = rec.span("bench.proc.teardown");
    drop(ft);
    Ok(())
}

fn audit<R: SinglePathRouter, Rec: Recorder>(
    router: &R,
    rec: &Rec,
    facts: &mut Facts,
) -> Result<(), String> {
    let arena = {
        let _s = rec.span("bench.routing.arena_build");
        PathArena::build_with(router, rec).map_err(|e| e.to_string())?
    };
    rec.add("bench.routing.arena_paths", arena.num_pairs() as u64);
    rec.add("bench.routing.arena_hops", arena.total_hops() as u64);
    rec.gauge("bench.routing.arena_bytes", arena.bytes() as u64);
    let engine = {
        let _s = rec.span("bench.core.engine_census");
        ContentionEngine::from_arena_with(arena, rec)
    };
    let violation = {
        let _s = rec.span("bench.core.engine_scan");
        engine.lemma1_violation_with(rec)
    };
    let verdict = if violation.is_none() {
        "NONBLOCKING"
    } else {
        "BLOCKING"
    };
    say(facts, "verdict", verdict);
    let _s = rec.span("bench.proc.teardown");
    drop(engine);
    Ok(())
}

/// `ftclos deadlock --router yuan|dmodk`: CDG build over all SD pairs, then
/// the cycle check.
fn mirror_deadlock<R: Recorder>(opts: &Opts, rec: &R, facts: &mut Facts) -> Result<(), String> {
    let ft = timed_ftree(opts, rec)?;
    let yuan;
    let dmodk;
    // The command analyzes through a trait object; so does the mirror.
    let router: &(dyn SinglePathRouter + Sync) = {
        let _s = rec.span("bench.routing.router_new");
        match opts.flag("router") {
            Some("yuan") => {
                yuan = YuanDeterministic::new(&ft).map_err(|e| e.to_string())?;
                &yuan
            }
            Some("dmodk") => {
                dmodk = DModK::new(&ft);
                &dmodk
            }
            other => return Err(format!("deadlock pipeline has no router {other:?}")),
        }
    };
    let graph = {
        let _s = rec.span("bench.core.cdg_build");
        cdg_of_router_with(ft.topology(), router, rec)
    };
    let ports = u64::from(router.ports());
    rec.add("bench.core.cdg_pairs", ports * ports.saturating_sub(1));
    let analysis = {
        let _s = rec.span("bench.core.cdg_check");
        graph.check_with(rec)
    };
    rec.add("bench.core.cdg_deps", analysis.num_deps);
    let verdict = if analysis.is_free() { "FREE" } else { "CYCLIC" };
    say(facts, "verdict", verdict);
    say(facts, "num_deps", analysis.num_deps);
    let _s = rec.span("bench.proc.teardown");
    drop((analysis, graph));
    drop(ft);
    Ok(())
}

/// Everything `ftclos simulate` prepares before it starts the engine.
struct Simulation {
    ft: Ftree,
    cfg: SimConfig,
    policy: Policy,
    traffic: Traffic,
    faults: FaultSchedule,
    sim_seed: u64,
}

fn prepare_simulation<R: Recorder>(opts: &Opts, rec: &R) -> Result<Simulation, String> {
    let usage = |e: ftclos_cli::CliError| e.to_string();
    let ft = timed_ftree(opts, rec)?;
    let seed: u64 = opts.flag_or("seed", 0).map_err(usage)?;
    let rate: f64 = opts.flag_or("rate", 1.0).map_err(usage)?;
    let cycles: u64 = opts.flag_or("cycles", 2_000).map_err(usage)?;
    let arbiter = match opts.flag("arbiter").unwrap_or("hol") {
        "hol" => Arbiter::HolFifo,
        spec => {
            let k = spec.strip_prefix("islip:").and_then(|k| k.parse().ok());
            let iterations =
                k.ok_or_else(|| format!("simulate pipeline has no arbiter `{spec}`"))?;
            Arbiter::Voq { iterations }
        }
    };
    if opts.flag("engine") != Some("event") {
        return Err("simulate pipeline mirrors `--engine event` only".to_string());
    }
    let fail_uplinks: usize = opts.flag_or("fail-uplinks", 0).map_err(usage)?;
    let fail_at: u64 = opts
        .flag_or("fail-at", cycles / 4 + cycles / 2)
        .map_err(usage)?;
    let perm = {
        let _s = rec.span("bench.traffic.pattern");
        let spec = opts.flag("pattern").unwrap_or("random");
        make_pattern(spec, ft.num_leaves() as u32, seed).map_err(usage)?
    };
    let mut faults = FaultSchedule::new();
    for t in 0..fail_uplinks {
        faults.kill_link(fail_at, ft.topology(), ft.up_channel(0, t));
    }
    let ports = ft.num_leaves() as u64;
    let policy = {
        let _s = rec.span("bench.sim.policy_build");
        match opts.flag("router").unwrap_or("yuan") {
            "yuan" => {
                Policy::from_single_path(&YuanDeterministic::new(&ft).map_err(|e| e.to_string())?)
            }
            "dmodk" => Policy::from_single_path(&DModK::new(&ft)),
            other => return Err(format!("simulate pipeline has no router `{other}`")),
        }
    };
    rec.add("bench.sim.policy_routes", ports * ports);
    let cfg = SimConfig {
        warmup_cycles: cycles / 4,
        measure_cycles: cycles,
        arbiter,
        ..SimConfig::default()
    };
    let traffic = {
        let _s = rec.span("bench.traffic.pattern");
        Traffic::permutation(&perm, rate)
    };
    Ok(Simulation {
        ft,
        cfg,
        policy,
        traffic,
        faults,
        sim_seed: seed ^ 0xC0FFEE,
    })
}

/// Counts every simulated workload reports, and the conservation check.
fn simulation_counts<R: Recorder>(
    rec: &R,
    hosts: usize,
    cfg: &SimConfig,
    stats: &SimStats,
    arena: &SimArena,
    facts: &mut Facts,
) -> Result<(), String> {
    rec.add("bench.evsim.host_cycles", hosts as u64 * cfg.total_cycles());
    rec.add("bench.evsim.injected", stats.injected_total);
    rec.add("bench.evsim.delivered", stats.delivered_total);
    rec.gauge("bench.sim.state_bytes", arena.state_bytes() as u64);
    rec.gauge(
        "bench.sim.touched_channels",
        arena.touched_channels() as u64,
    );
    say(facts, "injected", stats.injected_total);
    say(facts, "delivered", stats.delivered_total);
    if stats.conservation_ok() {
        Ok(())
    } else {
        Err("packet conservation broken".to_string())
    }
}

/// `ftclos simulate … --engine event`: all-pairs route table, then the
/// recorded event-engine run.
fn mirror_simulate<R: Recorder>(opts: &Opts, rec: &R, facts: &mut Facts) -> Result<(), String> {
    let Simulation {
        ft,
        cfg,
        policy,
        traffic,
        faults,
        sim_seed,
    } = prepare_simulation(opts, rec)?;
    let mut sim = EventSimulator::new(ft.topology(), cfg, policy);
    let stats = {
        let _s = rec.span("bench.evsim.run");
        sim.try_run_with_faults_recorded(&traffic, sim_seed, &faults, rec)
            .map_err(|e| e.to_string())?
    };
    // Dropping the simulator drops its policy, the largest thing built here.
    let arena = {
        let _s = rec.span("bench.proc.teardown");
        sim.into_arena()
    };
    simulation_counts(rec, ft.num_leaves(), &cfg, &stats, &arena, facts)?;
    let _s = rec.span("bench.proc.teardown");
    drop((arena, stats, traffic, faults));
    drop(ft);
    Ok(())
}

/// `obs.recorded_run_ratio`: the `sim-steady` simulation once plain and once
/// recorded into a live registry, same inputs, statistics asserted equal.
/// Runs after the pipeline's root span has closed and records only its own
/// two spans into the trace.
fn recording_probe(workload: &Workload, seed: u64, reg: &Registry) -> Result<(), String> {
    let (_, args) = &workload.invocations(seed)[0];
    let opts = Opts::parse(&args[1..]).map_err(|e| e.to_string())?;
    let s = prepare_simulation(&opts, &Noop)?;
    let mut plain_sim = EventSimulator::new(s.ft.topology(), s.cfg, s.policy.clone());
    let plain = {
        let _s = reg.span("bench.obs.plain_run");
        plain_sim.try_run_with_faults(&s.traffic, s.sim_seed, &s.faults)
    };
    let live = Registry::new();
    let mut recorded_sim = EventSimulator::new(s.ft.topology(), s.cfg, s.policy);
    let recorded = {
        let _s = reg.span("bench.obs.recorded_run");
        recorded_sim.try_run_with_faults_recorded(&s.traffic, s.sim_seed, &s.faults, &live)
    };
    if plain.map_err(|e| e.to_string())? == recorded.map_err(|e| e.to_string())? {
        Ok(())
    } else {
        Err("recording changed the simulated statistics".to_string())
    }
}

/// What a scale workload offers its fabric.
struct Offered {
    perm: Permutation,
    rate: f64,
    warmup_cycles: u64,
    measure_cycles: u64,
    seed: u64,
}

/// Route a permutation, build its policy and run the event engine: the tail
/// the two scale workloads share.
fn scale_run<R: Recorder, S: SinglePathRouter>(
    rec: &R,
    topo: &Topology,
    router: &S,
    offered: &Offered,
    facts: &mut Facts,
) -> Result<(), String> {
    let perm = &offered.perm;
    let cfg = SimConfig {
        warmup_cycles: offered.warmup_cycles,
        measure_cycles: offered.measure_cycles,
        ..SimConfig::default()
    };
    let routes: RouteAssignment = {
        let _s = rec.span("bench.routing.route_all");
        route_all(router, perm).map_err(|e| e.to_string())?
    };
    rec.add("bench.routing.routes", routes.len() as u64);
    let policy = {
        let _s = rec.span("bench.sim.policy_build");
        Policy::from_assignment(&routes)
    };
    rec.add("bench.sim.policy_routes", routes.len() as u64);
    let traffic = {
        let _s = rec.span("bench.traffic.pattern");
        Traffic::permutation(perm, offered.rate)
    };
    let mut sim = EventSimulator::new(topo, cfg, policy);
    let stats = {
        let _s = rec.span("bench.evsim.run");
        sim.try_run(&traffic, offered.seed)
            .map_err(|e| e.to_string())?
    };
    // Dropping the simulator drops its policy, the largest thing built here.
    let arena = {
        let _s = rec.span("bench.proc.teardown");
        sim.into_arena()
    };
    say(facts, "hosts", perm.ports());
    say(facts, "channels", topo.num_channels());
    say(facts, "routes", routes.len());
    simulation_counts(rec, perm.ports() as usize, &cfg, &stats, &arena, facts)?;
    say(facts, "latency_max", stats.latency_max);
    let _s = rec.span("bench.proc.teardown");
    drop((arena, stats, traffic, routes));
    Ok(())
}

/// ROADMAP's million-host target: `ftree(16+16, 65536)` under d-mod-k,
/// `shift:13` at rate 0.01. Sparse `PagedVec`/`SimArena` state, no
/// all-pairs table.
fn scale_million<R: Recorder>(seed: u64, rec: &R, facts: &mut Facts) -> Result<(), String> {
    let ft = {
        let _s = rec.span("bench.topo.build");
        Ftree::new(16, 16, 65_536).map_err(|e| e.to_string())?
    };
    topo_counts(rec, ft.topology());
    let perm = {
        let _s = rec.span("bench.traffic.pattern");
        patterns::shift(ft.num_leaves() as u32, 13)
    };
    let router = {
        let _s = rec.span("bench.routing.router_new");
        DModK::new(&ft)
    };
    let offered = Offered {
        perm,
        rate: 0.01,
        warmup_cycles: 5,
        measure_cycles: 12,
        seed,
    };
    scale_run(rec, ft.topology(), &router, &offered, facts)?;
    let _s = rec.span("bench.proc.teardown");
    drop(ft);
    Ok(())
}

/// The three-level recursive construction at n = 16 (69,632 hosts,
/// 38,019,072 channels): the one workload topology build dominates.
fn scale_recursive<R: Recorder>(seed: u64, rec: &R, facts: &mut Facts) -> Result<(), String> {
    let net = {
        let _s = rec.span("bench.topo.build");
        RecursiveNonblocking::new(16).map_err(|e| e.to_string())?
    };
    topo_counts(rec, net.topology());
    let perm = {
        let _s = rec.span("bench.traffic.pattern");
        patterns::shift(net.num_leaves() as u32, 7)
    };
    let router = {
        let _s = rec.span("bench.routing.router_new");
        YuanRecursive::new(&net)
    };
    let offered = Offered {
        perm,
        rate: 0.02,
        warmup_cycles: 5,
        measure_cycles: 15,
        seed,
    };
    scale_run(rec, net.topology(), &router, &offered, facts)?;
    let _s = rec.span("bench.proc.teardown");
    drop(net);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn facts_render_one_per_line_in_order() {
        let mut facts = Facts::new();
        say(&mut facts, "verdict", "FREE");
        say(&mut facts, "num_deps", 12);
        assert_eq!(render_facts(&facts), "verdict=FREE\nnum_deps=12\n");
    }

    #[test]
    fn unmirrored_flags_are_refused() {
        let opts = |s: &str| {
            Opts::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>()).unwrap()
        };
        let mut facts = Facts::new();
        assert!(mirror_verify(&opts("2 4 5 --router smodk"), &Noop, &mut facts).is_err());
        assert!(mirror_deadlock(&opts("2 4 5"), &Noop, &mut facts).is_err());
        assert!(mirror_simulate(&opts("2 4 5 --engine cycle"), &Noop, &mut facts).is_err());
        assert!(mirror_simulate(
            &opts("2 4 5 --engine event --arbiter magic"),
            &Noop,
            &mut facts
        )
        .is_err());
    }

    #[test]
    fn small_mirrors_agree_with_the_commands() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let reg = Registry::new();
        let mut facts = Facts::new();
        for (line, mirror) in [
            (
                "verify 2 4 5 --router dmodk",
                mirror_verify::<Registry> as fn(&Opts, &Registry, &mut Facts) -> _,
            ),
            ("deadlock 2 4 5 --router yuan", mirror_deadlock::<Registry>),
            (
                "simulate 2 4 5 --pattern shift:3 --rate 0.9 --cycles 300 --seed 3 \
                 --engine event --arbiter islip:2 --fail-uplinks 1",
                mirror_simulate::<Registry>,
            ),
        ] {
            let args = argv(line);
            let before = facts.len();
            mirror(&Opts::parse(&args[1..]).unwrap(), &reg, &mut facts).unwrap();
            let stdout = ftclos_cli::run(&args).unwrap();
            let from_cli = crate::check::facts_of_stdout(&args[0], &stdout).unwrap();
            assert_eq!(from_cli, facts[before..].to_vec(), "{line}");
        }
        let snap = reg.snapshot();
        for span in [
            "bench.topo.build",
            "bench.core.cdg_build",
            "bench.evsim.run",
        ] {
            assert!(snap.spans.iter().any(|s| s.name == span), "{span}");
        }
    }

    #[test]
    fn every_cli_workload_has_a_mirror() {
        for w in workloads::WORKLOADS.iter().filter(|w| w.is_cli()) {
            for (_, args) in w.invocations(5) {
                assert!(
                    ["verify", "deadlock", "simulate"].contains(&args[0].as_str()),
                    "{}",
                    w.name
                );
            }
        }
    }
}
