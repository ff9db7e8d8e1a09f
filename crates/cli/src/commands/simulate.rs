//! `ftclos simulate <n> <m> <r> [--router R] [--pattern P] [--rate F]
//! [--cycles N] [--arbiter hol|islip:K] [--engine event|cycle] [--seed S]
//! [--fail-uplinks K] [--fail-at C] [--json]` — packet-level run.
//!
//! The default engine is the event-driven one, which visits only components
//! with pending work. `--engine cycle` runs the same workload on the dense
//! cycle-level sweep, the oracle; the two are exact-replay equivalent, so
//! the choice only affects speed (and the `evsim.*`/`sim.*` trace prefix).
//! `--fail-uplinks K` kills the links through the first `K` uplinks of
//! edge switch 0 at cycle `--fail-at` (default: half the warmed-up run).

use super::common::{build_ftree, fabric, make_pattern, route_named, unit_interval, RouterName};
use super::{Report, Reported};
use crate::opts::{CliError, Opts};
use ftclos_obs::json::{Json, Number};
use ftclos_obs::{obj, Recorder, Registry};
use ftclos_sim::{
    Arbiter, EventSimulator, FaultSchedule, Policy, SimConfig, SimStats, Simulator, Workload,
};
use ftclos_topo::Ftree;
use std::fmt;

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
    /// Event-driven active-set engine — the default.
    Event,
    /// Dense cycle-level sweep — the oracle.
    Cycle,
}

fn parse_engine(spec: &str) -> Result<Engine, CliError> {
    match spec {
        "event" => Ok(Engine::Event),
        "cycle" => Ok(Engine::Cycle),
        other => Err(CliError::Usage(format!(
            "unknown engine `{other}` (event | cycle)"
        ))),
    }
}

/// What `simulate` reports: the run's parameters plus the stats both
/// engines agree on exactly (bit-identical across `--engine cycle` and
/// `--engine event` for the same seed).
struct SimReport {
    ft: Ftree,
    router: RouterName,
    pattern: String,
    rate: f64,
    arbiter: Arbiter,
    engine: Engine,
    fail_uplinks: usize,
    fail_at: u64,
    stats: SimStats,
}

/// Run the command.
pub fn run(opts: &Opts, rec: &Registry) -> Reported {
    let ft = build_ftree(opts)?;
    let router = RouterName::flag(opts, ROSTER)?;
    let seed: u64 = opts.flag_or("seed", 0)?;
    let rate = unit_interval(opts, "rate", 1.0)?;
    let cycles: u64 = opts.flag_or("cycles", 2_000)?;
    let arbiter = parse_arbiter(opts.flag("arbiter").unwrap_or("hol"))?;
    let engine = parse_engine(opts.flag("engine").unwrap_or("event"))?;
    let fail_uplinks: usize = opts.flag_or("fail-uplinks", 0)?;
    let fail_at: u64 = opts.flag_or("fail-at", cycles / 4 + cycles / 2)?;
    let pattern = opts.flag("pattern").unwrap_or("random").to_string();
    let ports = ft.num_leaves() as u32;
    let perm = make_pattern(&pattern, ports, seed)?;

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

    // Only the permutation's pairs ever inject, so every router tabulates
    // just those: one row a pair.
    let policy = {
        let _s = rec.span("policy.build");
        Policy::from_assignment(&route_named(&ft, router, &perm)?)
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
            Engine::Event => EventSimulator::new(ft.topology(), cfg, policy)
                .try_run_with_faults_recorded(&workload, seed ^ 0xC0FFEE, &faults, rec),
            Engine::Cycle => Simulator::new(ft.topology(), cfg, policy)
                .try_run_with_faults_recorded(&workload, seed ^ 0xC0FFEE, &faults, rec),
        }
        .map_err(|e| CliError::Failed(e.to_string()))?;
    Ok(Box::new(SimReport {
        router,
        pattern,
        rate,
        arbiter,
        engine,
        fail_uplinks,
        fail_at,
        stats,
        ft,
    }))
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (pattern, rate, router) = (&self.pattern, self.rate, self.router);
        let tag = match self.engine {
            Engine::Event => ", event engine",
            Engine::Cycle => "",
        };
        writeln!(
            f,
            "simulated `{pattern}` at rate {rate} on {} with `{router}` ({:?}{tag}):",
            fabric(&self.ft),
            self.arbiter
        )?;
        let (dead, at) = (self.fail_uplinks, self.fail_at);
        if dead > 0 {
            writeln!(
                f,
                "  faults: {dead} uplink(s) of edge switch 0 die at cycle {at}"
            )?;
        }
        let s = &self.stats;
        let accepted = s.accepted_throughput();
        writeln!(
            f,
            "  accepted throughput = {accepted:.3} packets/cycle/source (offered {rate})"
        )?;
        let (p50, p95, p99, max) = (s.latency_p50, s.latency_p95, s.latency_p99, s.latency_max);
        let mean = s.mean_latency();
        writeln!(
            f,
            "  latency: mean {mean:.1}, p50 {p50}, p95 {p95}, p99 {p99}, max {max} cycles"
        )?;
        let window = format!(
            "window: {} / {}",
            s.injected_in_window, s.delivered_in_window
        );
        writeln!(
            f,
            "  injected {} / delivered {} ({window})",
            s.injected_total, s.delivered_total
        )
    }
}

impl Report for SimReport {
    /// One flat object.
    fn json(&self) -> Json {
        let (ft, s) = (&self.ft, &self.stats);
        let engine = match self.engine {
            Engine::Event => "event",
            Engine::Cycle => "cycle",
        };
        obj! {
            "command" => "simulate", "engine" => engine,
            "n" => ft.n(), "m" => ft.m(), "r" => ft.r(),
            "router" => self.router.as_str(), "pattern" => self.pattern.as_str(),
            "rate" => Json::Num(self.rate),
            "fail_uplinks" => self.fail_uplinks, "fail_at" => self.fail_at,
            "injected_total" => s.injected_total, "delivered_total" => s.delivered_total,
            "timed_out_total" => s.timed_out_total, "abandoned_total" => s.abandoned_total,
            "leftover_packets" => s.leftover_packets,
            "injection_refusals" => s.injection_refusals,
            "accepted_throughput" => Number::fixed(s.accepted_throughput(), 6),
            "mean_latency" => Number::fixed(s.mean_latency(), 3),
            "latency_p50" => s.latency_p50, "latency_p95" => s.latency_p95,
            "latency_p99" => s.latency_p99, "latency_max" => s.latency_max,
            "conservation_ok" => s.conservation_ok(),
        }
    }
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
        .unwrap()
        .to_string();
        assert!(out.contains("accepted throughput"));
        let snap = reg.snapshot();
        assert!(snap.counter("evsim.injected").unwrap_or(0) > 0);
        assert!(snap.spans.iter().any(|s| s.path == "evsim.run"), "{snap:?}");
    }

    #[test]
    fn run_records_the_policy_layer() {
        for (router, routes) in [("dmodk", 8), ("adaptive", 8)] {
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
        .unwrap()
        .to_string();
        assert!(out.contains("accepted throughput"));
    }

    #[test]
    fn event_engine_matches_cycle_engine_output() {
        let args = "2 4 5 --pattern shift:3 --rate 0.9 --cycles 800";
        let cycle = run(&argv(&format!("{args} --engine cycle")), &Registry::new()).unwrap();
        let reg = Registry::new();
        let event = run(&argv(&format!("{args} --engine event")), &reg).unwrap();
        assert_eq!(
            cycle
                .json()
                .write()
                .replace("\"engine\":\"cycle\"", "\"engine\":\"event\""),
            event.json().write(),
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
        .unwrap()
        .to_string();
        assert!(out.contains("2 uplink(s) of edge switch 0 die"), "{out}");
        let err = run(&argv("2 4 5 --fail-uplinks 9"), &Registry::new())
            .err()
            .unwrap();
        assert!(matches!(err, CliError::Usage(_)));
    }

    /// `main` prints a `Failed` as `error: …` and exits 1.
    fn failure(args: &str) -> String {
        match run(&argv(args), &Registry::new()) {
            Err(CliError::Failed(msg)) => msg,
            Err(other) => panic!("`simulate {args}` should fail at run time, got {other:?}"),
            Ok(report) => panic!("`simulate {args}` should fail at run time, got {report}"),
        }
    }

    #[test]
    fn rate_outside_the_unit_interval_is_a_usage_error() {
        for rate in ["nan", "inf", "2.5", "1e300", "-1"] {
            for engine in ["cycle", "event"] {
                let args = format!("2 4 5 --rate {rate} --cycles 50 --engine {engine}");
                let err = run(&argv(&args), &Registry::new()).err();
                let want = format!("--rate {rate} must be within [0, 1]");
                assert!(
                    matches!(&err, Some(CliError::Usage(msg)) if *msg == want),
                    "`simulate {args}`: {err:?}"
                );
            }
        }
        for rate in ["0", "-0", "1"] {
            let args = format!("2 4 5 --rate {rate} --cycles 50");
            assert!(run(&argv(&args), &Registry::new()).is_ok(), "{args}");
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
        let err = run(&argv("2 4 5 --arbiter islip:0"), &Registry::new())
            .err()
            .unwrap();
        assert!(
            matches!(&err, CliError::Usage(msg) if msg.contains("at least 1")),
            "{err:?}"
        );
        assert_eq!(parse_engine("event").unwrap(), Engine::Event);
        assert_eq!(parse_engine("cycle").unwrap(), Engine::Cycle);
        assert!(parse_engine("quantum").is_err());
    }
}
