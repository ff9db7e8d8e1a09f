//! `ftclos simulate <n> <m> <r> [--router R] [--pattern P] [--rate F]
//! [--cycles N] [--arbiter hol|islip:K] [--engine cycle|event] [--seed S]
//! [--fail-uplinks K] [--fail-at C] [--json]` — packet-level run.
//!
//! `--engine event` runs the same workload on the event-driven core
//! (`ftclos-evsim`) instead of the cycle-level sweep; the two engines are
//! exact-replay equivalent, so the choice only affects speed at scale.
//! `--fail-uplinks K` kills the links through the first `K` uplinks of
//! edge switch 0 at cycle `--fail-at` (default: half the warmed-up run).

use super::common::RouterName::{self, DModK, SModK, Yuan};
use super::common::{build_ftree, fabric, make_pattern, route_named, SinglePath};
use crate::opts::{CliError, Opts};
use ftclos_evsim::EventSimulator;
use ftclos_obs::{Recorder, Registry};
use ftclos_sim::{Arbiter, FaultSchedule, Policy, SimConfig, SimStats, Simulator, Workload};
use ftclos_topo::Ftree;
use std::fmt::Write as _;

fn parse_arbiter(spec: &str) -> Result<Arbiter, CliError> {
    if spec == "hol" {
        return Ok(Arbiter::HolFifo);
    }
    if let Some(k) = spec.strip_prefix("islip:") {
        return match k.parse() {
            Ok(0) | Err(_) => Err(CliError::Usage(format!(
                "islip wants an iteration count of at least 1, got `{k}`"
            ))),
            Ok(iterations) => Ok(Arbiter::Voq { iterations }),
        };
    }
    if spec == "islip" {
        return Ok(Arbiter::Voq { iterations: 1 });
    }
    Err(CliError::Usage(format!(
        "unknown arbiter `{spec}` (hol | islip | islip:<k>)"
    )))
}

/// The routers `--router` takes, default first: `route`'s.
pub(crate) const ROSTER: &[RouterName] = super::route::ROSTER;

/// Which simulator core executes the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Engine {
    /// Cycle-level sweep (`ftclos-sim`) — the oracle.
    Cycle,
    /// Event-driven active-set engine (`ftclos-evsim`).
    Event,
}

fn parse_engine(spec: &str) -> Result<Engine, CliError> {
    match spec {
        "cycle" => Ok(Engine::Cycle),
        "event" => Ok(Engine::Event),
        other => Err(CliError::Usage(format!(
            "unknown engine `{other}` (cycle | event)"
        ))),
    }
}

/// Run the command.
pub fn run(opts: &Opts, rec: &Registry) -> Result<String, CliError> {
    let ft = build_ftree(opts)?;
    let router = RouterName::flag(opts, ROSTER)?;
    let seed: u64 = opts.flag_or("seed", 0)?;
    let rate: f64 = opts.flag_or("rate", 1.0)?;
    let cycles: u64 = opts.flag_or("cycles", 2_000)?;
    let arbiter = parse_arbiter(opts.flag("arbiter").unwrap_or("hol"))?;
    let engine = parse_engine(opts.flag("engine").unwrap_or("cycle"))?;
    let json: bool = opts.flag_or("json", false)?;
    let fail_uplinks: usize = opts.flag_or("fail-uplinks", 0)?;
    let fail_at: u64 = opts.flag_or("fail-at", cycles / 4 + cycles / 2)?;
    let spec = opts.flag("pattern").unwrap_or("random");
    let ports = ft.num_leaves() as u32;
    let perm = make_pattern(spec, ports, seed)?;

    if fail_uplinks > ft.m() {
        return Err(CliError::Usage(format!(
            "--fail-uplinks {fail_uplinks} exceeds the {} uplinks of an edge switch",
            ft.m()
        )));
    }
    let mut faults = FaultSchedule::new();
    for t in 0..fail_uplinks {
        faults.kill_link(fail_at, ft.topology(), ft.up_channel(0, t));
    }

    // Deterministic routers tabulate all pair paths; pattern routers fix
    // the assignment for this permutation.
    let policy = {
        let _s = rec.span("policy.build");
        match router {
            Yuan | DModK | SModK => Policy::from_single_path(&SinglePath::new(&ft, router)?),
            _ => Policy::from_assignment(&route_named(&ft, router, &perm)?),
        }
    };
    rec.add("policy.routes", policy.routes() as u64);
    rec.gauge("policy.bytes", policy.memory_bytes() as u64);
    let cfg = SimConfig {
        warmup_cycles: cycles / 4,
        measure_cycles: cycles,
        arbiter,
        ..SimConfig::default()
    };
    let workload = Workload::permutation(&perm, rate);
    let stats =
        match engine {
            Engine::Cycle => Simulator::new(ft.topology(), cfg, policy)
                .try_run_with_faults_recorded(&workload, seed ^ 0xC0FFEE, &faults, rec),
            Engine::Event => EventSimulator::new(ft.topology(), cfg, policy)
                .try_run_with_faults_recorded(&workload, seed ^ 0xC0FFEE, &faults, rec),
        }
        .map_err(|e| CliError::Failed(e.to_string()))?;

    if json {
        return Ok(render_json(
            &ft,
            router,
            spec,
            rate,
            engine,
            fail_uplinks,
            fail_at,
            &stats,
        ));
    }
    let mut out = String::new();
    let engine_tag = match engine {
        Engine::Cycle => String::new(),
        Engine::Event => ", event engine".to_string(),
    };
    let _ = writeln!(
        out,
        "simulated `{spec}` at rate {rate} on {} with `{router}` ({arbiter:?}{engine_tag}):",
        fabric(&ft)
    );
    if fail_uplinks > 0 {
        let _ = writeln!(
            out,
            "  faults: {fail_uplinks} uplink(s) of edge switch 0 die at cycle {fail_at}"
        );
    }
    let _ = writeln!(
        out,
        "  accepted throughput = {:.3} packets/cycle/source (offered {rate})",
        stats.accepted_throughput()
    );
    let _ = writeln!(
        out,
        "  latency: mean {:.1}, p50 {}, p95 {}, p99 {}, max {} cycles",
        stats.mean_latency(),
        stats.latency_p50,
        stats.latency_p95,
        stats.latency_p99,
        stats.latency_max
    );
    let _ = writeln!(
        out,
        "  injected {} / delivered {} (window: {} / {})",
        stats.injected_total,
        stats.delivered_total,
        stats.injected_in_window,
        stats.delivered_in_window
    );
    Ok(out)
}

/// One flat JSON object: run parameters plus the stats both engines agree
/// on exactly (bit-identical across `--engine cycle` and `--engine event`
/// for the same seed).
#[allow(clippy::too_many_arguments)]
fn render_json(
    ft: &Ftree,
    router: RouterName,
    pattern: &str,
    rate: f64,
    engine: Engine,
    fail_uplinks: usize,
    fail_at: u64,
    stats: &SimStats,
) -> String {
    let engine = match engine {
        Engine::Cycle => "cycle",
        Engine::Event => "event",
    };
    format!(
        concat!(
            "{{\"command\":\"simulate\",\"engine\":\"{engine}\",",
            "\"n\":{n},\"m\":{m},\"r\":{r},",
            "\"router\":\"{router}\",\"pattern\":\"{pattern}\",\"rate\":{rate},",
            "\"fail_uplinks\":{fail_uplinks},\"fail_at\":{fail_at},",
            "\"injected_total\":{injected},\"delivered_total\":{delivered},",
            "\"timed_out_total\":{timed_out},\"abandoned_total\":{abandoned},",
            "\"leftover_packets\":{leftover},\"injection_refusals\":{refusals},",
            "\"accepted_throughput\":{thr:.6},\"mean_latency\":{mlat:.3},",
            "\"latency_p50\":{p50},\"latency_p95\":{p95},\"latency_p99\":{p99},",
            "\"latency_max\":{lmax},\"conservation_ok\":{conservation}}}"
        ),
        engine = engine,
        n = ft.n(),
        m = ft.m(),
        r = ft.r(),
        router = router,
        pattern = pattern,
        rate = rate,
        fail_uplinks = fail_uplinks,
        fail_at = fail_at,
        injected = stats.injected_total,
        delivered = stats.delivered_total,
        timed_out = stats.timed_out_total,
        abandoned = stats.abandoned_total,
        leftover = stats.leftover_packets,
        refusals = stats.injection_refusals,
        thr = stats.accepted_throughput(),
        mlat = stats.mean_latency(),
        p50 = stats.latency_p50,
        p95 = stats.latency_p95,
        p99 = stats.latency_p99,
        lmax = stats.latency_max,
        conservation = stats.conservation_ok(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Opts {
        Opts::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn nonblocking_line_rate() {
        let reg = Registry::new();
        let out = run(
            &argv("2 4 5 --pattern shift:3 --rate 0.9 --cycles 800"),
            &reg,
        )
        .unwrap();
        assert!(out.contains("accepted throughput"));
        let snap = reg.snapshot();
        assert!(snap.counter("sim.injected").unwrap_or(0) > 0);
        assert!(snap.spans.iter().any(|s| s.path == "sim.run"), "{snap:?}");
    }

    #[test]
    fn run_records_the_policy_layer() {
        for (router, routes) in [("dmodk", 56), ("adaptive", 8)] {
            let reg = Registry::new();
            let args = format!("2 16 4 --router {router} --pattern shift:3 --cycles 100");
            run(&argv(&args), &reg).unwrap();
            let snap = reg.snapshot();
            let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
            assert!(paths.contains(&"policy.build"), "{paths:?}");
            assert_eq!(snap.counter("policy.routes"), Some(routes));
            assert!(snap.gauge("policy.bytes").unwrap_or(0) >= 4 * routes);
        }
    }

    #[test]
    fn adaptive_policy_via_assignment() {
        let out = run(
            &argv("2 16 4 --router adaptive --pattern random --cycles 400"),
            &Registry::new(),
        )
        .unwrap();
        assert!(out.contains("accepted throughput"));
    }

    #[test]
    fn event_engine_matches_cycle_engine_output() {
        let args = "2 4 5 --pattern shift:3 --rate 0.9 --cycles 800 --json true";
        let cycle = run(&argv(&format!("{args} --engine cycle")), &Registry::new()).unwrap();
        let reg = Registry::new();
        let event = run(&argv(&format!("{args} --engine event")), &reg).unwrap();
        assert_eq!(
            cycle.replace("\"engine\":\"cycle\"", "\"engine\":\"event\""),
            event,
            "engines must agree field for field"
        );
        let snap = reg.snapshot();
        assert!(snap.counter("evsim.injected").unwrap_or(0) > 0);
        assert!(snap.spans.iter().any(|s| s.path == "evsim.run"), "{snap:?}");
    }

    #[test]
    fn faulted_run_reports_the_outage() {
        let out = run(
            &argv("2 4 5 --pattern shift:3 --cycles 600 --fail-uplinks 2 --engine event"),
            &Registry::new(),
        )
        .unwrap();
        assert!(out.contains("2 uplink(s) of edge switch 0 die"), "{out}");
        let err = run(&argv("2 4 5 --fail-uplinks 9"), &Registry::new()).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    /// `main` prints a `Failed` as `error: …` and exits 1.
    fn failure(args: &str) -> String {
        match run(&argv(args), &Registry::new()) {
            Err(CliError::Failed(msg)) => msg,
            other => panic!("`simulate {args}` should fail at run time, got {other:?}"),
        }
    }

    #[test]
    fn nan_rate_is_an_error_not_a_panic() {
        for engine in ["cycle", "event"] {
            let msg = failure(&format!("2 4 5 --rate nan --cycles 50 --engine {engine}"));
            assert!(msg.contains("rate is NaN"), "{msg}");
        }
    }

    #[test]
    fn cycle_count_past_u64_is_an_error_not_a_wrapped_run() {
        let msg = failure("2 4 5 --cycles 18446744073709551615");
        assert!(msg.contains("must fit in 64 bits"), "{msg}");
    }

    #[test]
    fn engine_and_arbiter_parsing() {
        assert_eq!(parse_arbiter("hol").unwrap(), Arbiter::HolFifo);
        assert_eq!(
            parse_arbiter("islip:3").unwrap(),
            Arbiter::Voq { iterations: 3 }
        );
        assert_eq!(
            parse_arbiter("islip").unwrap(),
            Arbiter::Voq { iterations: 1 }
        );
        assert!(parse_arbiter("magic").is_err());
        assert!(parse_arbiter("islip:x").is_err());
        let err = run(&argv("2 4 5 --arbiter islip:0"), &Registry::new()).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(msg) if msg.contains("at least 1")),
            "{err:?}"
        );
        assert_eq!(parse_engine("cycle").unwrap(), Engine::Cycle);
        assert_eq!(parse_engine("event").unwrap(), Engine::Event);
        assert!(parse_engine("quantum").is_err());
    }
}
