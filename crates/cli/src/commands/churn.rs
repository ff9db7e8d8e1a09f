//! `ftclos churn <n> <m> <r> [--links K] [--mtbf N] [--mttr N] [--cycles N]
//! [--rate F] [--mode pinned|percycle|hysteresis:K] [--samples N] [--seed S]
//! [--target F --max-m M]` — transient-fault churn: flap random cables with
//! exponential MTBF/MTTR, replay the trace through the exact availability
//! checker, and simulate packet flow under the chosen re-planning mode.

use super::common::{build_ftree, core_events, fabric, flapping_links};
use crate::opts::{CliError, Opts};
use ftclos_core::churn::{availability, min_m_for_availability};
use ftclos_obs::{Recorder as _, Registry};
use ftclos_routing::ObliviousMultipath;
use ftclos_sim::{
    Arbiter, ChurnConfig, ChurnSchedule, EventSimulator, Policy, ReplanMode, SimConfig, Workload,
};
use ftclos_topo::Ftree;
use ftclos_traffic::patterns;
use std::fmt::Write as _;

fn parse_mode(spec: &str) -> Result<ReplanMode, CliError> {
    if spec == "pinned" {
        return Ok(ReplanMode::Pinned);
    }
    if spec == "percycle" {
        return Ok(ReplanMode::PerCycle);
    }
    if let Some(k) = spec.strip_prefix("hysteresis:") {
        let k: u64 = k
            .parse()
            .map_err(|_| CliError::Usage(format!("hysteresis wants a cycle count, got `{k}`")))?;
        return Ok(ReplanMode::Hysteresis { k });
    }
    Err(CliError::Usage(format!(
        "unknown mode `{spec}` (pinned | percycle | hysteresis:<k>)"
    )))
}

/// Run the command.
pub fn run(opts: &Opts, rec: &Registry) -> Result<String, CliError> {
    let ft = build_ftree(opts)?;
    let links = flapping_links("links", opts.flag_or("links", 1)?, &ft)?;
    let mtbf: u64 = opts.flag_or("mtbf", 400)?;
    let mttr: u64 = opts.flag_or("mttr", 100)?;
    let cycles: u64 = opts.flag_or("cycles", 2_000)?;
    let rate: f64 = opts.flag_or("rate", 0.6)?;
    let samples: usize = opts.flag_or("samples", 25)?;
    let seed: u64 = opts.flag_or("seed", 0)?;
    let mode = parse_mode(opts.flag("mode").unwrap_or("hysteresis:50"))?;
    // `--target` is checked here, before any work: the min-m search runs last.
    let target: Option<f64> = opts
        .flag("target")
        .map(|_| opts.flag_or("target", 0.0))
        .transpose()?;
    for (flag, value) in [("rate", Some(rate)), ("target", target)] {
        if let Some(v) = value.filter(|v| !(0.0..=1.0).contains(v)) {
            return Err(CliError::Usage(format!(
                "--{flag} {v} must be within [0, 1]"
            )));
        }
    }

    let schedule = ChurnSchedule::flapping_links(ft.topology(), links, mtbf, mttr, cycles, seed);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "churn on {}: {} flapping link(s), mtbf {mtbf} / mttr {mttr}, \
         {} transition(s) over {cycles} cycles (seed {seed})",
        fabric(&ft),
        links,
        schedule.len()
    );

    // Flow-level availability: replay the trace through the exact checker.
    let avail_span = rec.span("churn.availability");
    let events = core_events(&schedule);
    let report = availability(&ft, &events, cycles, samples, seed)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    drop(avail_span);
    let _ = writeln!(
        out,
        "availability: {:.4} of time, {:.4} of epochs nonblocking ({} epoch(s))",
        report.time_availability(),
        report.epoch_availability(),
        report.epochs.len()
    );
    if let Some(worst) = report.worst_epoch() {
        let _ = writeln!(
            out,
            "  worst epoch [{}, {}): {} dead channel(s), blocking",
            worst.start, worst.end, worst.down_channels
        );
    }

    // Packet-level simulation under the chosen re-planning mode.
    let mp = ObliviousMultipath::new(&ft);
    let perm = patterns::shift(ft.num_leaves() as u32, 1);
    let cfg = SimConfig {
        warmup_cycles: cycles / 4,
        measure_cycles: cycles,
        ttl_cycles: 50,
        retry: true,
        retry_limit: 4,
        drain: true,
        arbiter: Arbiter::Voq { iterations: 2 },
        ..SimConfig::default()
    };
    let churn_cfg = ChurnConfig {
        mode,
        epsilon: 0.1,
        recovery_window: 50,
    };
    let (stats, churn_report) =
        EventSimulator::new(ft.topology(), cfg, Policy::from_multipath(&mp, true))
            .try_run_churn_recorded(
                &Workload::permutation(&perm, rate),
                seed ^ 0xC0FFEE,
                &schedule,
                &churn_cfg,
                rec,
            )
            .map_err(|e| CliError::Failed(e.to_string()))?;
    let _ = writeln!(
        out,
        "simulation ({mode:?}): steady {:.3} pkt/cycle, delivered {} / injected {}, \
         lost {}, {} timeout(s), {} retransmission(s)",
        churn_report.steady_rate,
        stats.delivered_total,
        stats.injected_total,
        churn_report.packets_lost(),
        stats.timed_out_total,
        stats.retries_total
    );
    let _ = writeln!(
        out,
        "  {} transition epoch(s), {} reconverged{}",
        churn_report.transitions(),
        churn_report.reconverged(),
        match churn_report.mean_reconverge_cycles() {
            Some(t) => format!(", mean time-to-reconverge {t:.0} cycles"),
            None => String::new(),
        }
    );

    // Optional: minimum m meeting an availability target under this flap
    // model (trace regenerated per fabric — channel ids depend on m).
    if let Some(target) = target {
        let _s = rec.span("churn.min_m");
        let max_m: usize = opts.flag_or("max-m", ft.m().max(ft.n() * ft.n()))?;
        let trace = |f: &Ftree| {
            core_events(&ChurnSchedule::flapping_links(
                f.topology(),
                links,
                mtbf,
                mttr,
                cycles,
                seed,
            ))
        };
        let found =
            min_m_for_availability(ft.n(), ft.r(), max_m, target, cycles, samples, seed, trace)
                .map_err(|e| CliError::Failed(e.to_string()))?;
        match found {
            Some((m, rep)) => {
                let _ = writeln!(
                    out,
                    "min m for availability >= {target}: m = {m} (achieves {:.4})",
                    rep.time_availability()
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "min m for availability >= {target}: none up to m = {max_m}"
                );
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Opts {
        Opts::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(parse_mode("pinned").unwrap(), ReplanMode::Pinned);
        assert_eq!(parse_mode("percycle").unwrap(), ReplanMode::PerCycle);
        assert_eq!(
            parse_mode("hysteresis:40").unwrap(),
            ReplanMode::Hysteresis { k: 40 }
        );
        assert!(parse_mode("hysteresis:x").is_err());
        assert!(parse_mode("sometimes").is_err());
    }

    #[test]
    fn end_to_end_churn_run() {
        let reg = Registry::new();
        let out = run(
            &argv("2 4 3 --links 1 --mtbf 200 --mttr 60 --cycles 600 --samples 10 --seed 3"),
            &reg,
        )
        .unwrap();
        assert!(out.contains("availability:"), "{out}");
        assert!(out.contains("simulation"), "{out}");
        let snap = reg.snapshot();
        assert!(snap.spans.iter().any(|s| s.path == "churn.availability"));
        assert!(snap.counter("evsim.injected").unwrap_or(0) > 0);
    }

    #[test]
    fn min_m_target_sweep() {
        for target in ["0", "0.5", "1"] {
            let out = run(
                &argv(&format!(
                    "2 4 3 --links 1 --mtbf 200 --mttr 60 --cycles 400 --samples 10 \
                     --seed 3 --target {target} --max-m 6"
                )),
                &Registry::new(),
            )
            .unwrap();
            assert!(out.contains("min m for availability"), "{out}");
        }
    }

    #[test]
    fn bad_arguments_are_usage_errors() {
        for args in [
            "--rate 1.5",
            "--mode wild",
            "--target zero",
            "--target 2 --max-m 3",
            "--target -0.1",
            "--target nan",
            "--target inf",
            // ftree(2+4, 3) has 2·3 leaf cables and 4·3 uplink cables.
            "--links 19",
        ] {
            assert!(
                matches!(
                    run(&argv(&format!("2 4 3 {args}")), &Registry::new()),
                    Err(CliError::Usage(_))
                ),
                "{args}"
            );
        }
    }
}
