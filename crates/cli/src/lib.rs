//! # ftclos-cli — command-line interface to the ftclos library
//!
//! Every subcommand is one row of the `COMMANDS` table: its name, root
//! trace span, usage line, accepted routers and implementation. `ftclos
//! help` prints the table as [`usage`], and the usage line is also the flag
//! whitelist [`run`] enforces, so the two cannot drift.
//!
//! Every command accepts `--trace FILE`: the run is instrumented through an
//! [`ftclos_obs::Registry`] (span timers + counters threaded down into the
//! engine/flowsim/sim hot paths) and the resulting trace JSON is written to
//! FILE. `ftclos stats FILE` summarizes a trace back into text.
//!
//! Every command is a pure function from arguments to output text or to a
//! [`commands::Report`], so the whole surface is unit-testable. `--json`
//! is read here, once: it prints a report as its JSON document instead of
//! its text.

pub mod commands;
pub mod opts;

use commands::common::RouterName;
use commands::{
    blocking, build, campaign, churn, congestion, deadlock, design, faults, flowsim, route,
    simulate, stats, table1, verify, Reported,
};
use ftclos_obs::{Recorder as _, Registry};
use std::fmt::Write as _;

pub use opts::{CliError, Opts};

/// One `ftclos` subcommand.
struct Command {
    /// The first argument, selecting the command.
    name: &'static str,
    /// Root span every trace of the command hangs under (`None`: none).
    span: Option<&'static str>,
    /// Usage line(s) as `ftclos help` prints them. Its `--flags` are the
    /// only ones [`run`] accepts (besides `--trace`); a flag with no value
    /// placeholder, like `[--json]`, is a switch.
    usage: &'static str,
    /// The routers `--router` takes, default first (empty: no `--router`).
    routers: &'static [RouterName],
    /// The implementation.
    run: Run,
}

/// A command's implementation: arguments plus the run's registry in.
#[derive(Clone, Copy)]
enum Run {
    /// Text out.
    Text(fn(&Opts, &Registry) -> Result<String, CliError>),
    /// A report out, printed as its text or, under `--json`, as JSON.
    Report(fn(&Opts, &Registry) -> Reported),
}

/// Every subcommand, in the order `ftclos help` lists them.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "design", span: Some("cmd.design"), routers: &[], run: Run::Text(design::run),
        usage: "ftclos design <radix>" },
    Command { name: "table1", span: Some("cmd.table1"), routers: &[], run: Run::Text(table1::run),
        usage: "ftclos table1" },
    Command { name: "build", span: Some("cmd.build"), routers: &[], run: Run::Text(build::run),
        usage: "ftclos build  <n> <m> <r> [--dot FILE]" },
    Command { name: "verify", span: Some("cmd.verify"), routers: verify::ROSTER,
        run: Run::Text(verify::run),
        usage: "ftclos verify <n> <m> <r> [--router R]" },
    Command { name: "route", span: Some("cmd.route"), routers: route::ROSTER,
        run: Run::Text(route::run),
        usage: "ftclos route  <n> <m> <r> [--router R] [--pattern P] [--seed S]" },
    Command { name: "simulate", span: Some("cmd.simulate"), routers: simulate::ROSTER,
        run: Run::Report(simulate::run),
        usage: "ftclos simulate <n> <m> <r> [--router R] [--pattern P] [--rate F]
                  [--cycles N] [--arbiter hol|islip:K] [--engine event|cycle]
                  [--fail-uplinks K] [--fail-at C] [--seed S] [--json]" },
    Command { name: "blocking", span: Some("cmd.blocking"), routers: blocking::ROSTER,
        run: Run::Text(blocking::run),
        usage: "ftclos blocking <n> <m> <r> [--router R] [--samples N] [--seed S]" },
    Command { name: "faults", span: Some("cmd.faults"), routers: &[], run: Run::Text(faults::run),
        usage: "ftclos faults <n> <m> <r> [--fail-tops K] [--fail-links K] [--seed S]
                [--samples N] [--max-k K]" },
    Command { name: "churn", span: Some("cmd.churn"), routers: &[], run: Run::Text(churn::run),
        usage: "ftclos churn  <n> <m> <r> [--links K] [--mtbf N] [--mttr N] [--cycles N]
                [--rate F] [--mode pinned|percycle|hysteresis:K]
                [--samples N] [--seed S] [--target F --max-m M]" },
    Command { name: "flowsim", span: Some("cmd.flowsim"), routers: flowsim::ROSTER,
        run: Run::Report(flowsim::run),
        usage: "ftclos flowsim <n> <m> <r> [--router R] [--pattern P] [--seed S] [--json]
                 [--fail-tops K] [--fail-links K]" },
    Command { name: "congestion", span: Some("cmd.congestion"), routers: &[],
        run: Run::Report(congestion::run),
        usage: "ftclos congestion <n> <m> <r> [--mode greedy|rounded|repaired] [--pattern P]
                  [--seed S] [--trials N] [--fail-tops K] [--fail-links K]
                  [--churn-links K --mtbf N --mttr N --churn-cycles N] [--json]" },
    Command { name: "deadlock", span: Some("cmd.deadlock"), routers: deadlock::ROSTER,
        run: Run::Report(deadlock::run),
        usage: "ftclos deadlock <n> <m> <r> [--router R]
                  [--fail-tops K] [--fail-links K] [--seed S]
                  [--churn-links K --mtbf N --mttr N --churn-cycles N]
                  [--inject] [--inject-cycles N] [--queue-capacity K] [--json]" },
    Command { name: "campaign", span: Some("cmd.campaign"), routers: campaign::ROSTER,
        run: Run::Report(campaign::run),
        usage: "ftclos campaign <n> <m> <r> [--property routability|deterministic|nonblocking|deadlock]
                  [--mode random|exhaustive] [--k K] [--universe tops|links|mixed]
                  [--waves N] [--wave-size N] [--links K] [--switches K]
                  [--samples N] [--router R] [--seed S]
                  [--shrink] [--checkpoint FILE] [--resume] [--halt-after N]
                  [--confirm] [--confirm-cycles N] [--watchdog N]
                  [--queue-capacity K] [--json]" },
    Command { name: "stats", span: None, routers: &[], run: Run::Text(stats::run),
        usage: "ftclos stats <trace.json> [--folded]" },
];

impl Command {
    /// Every `--flag` of the usage line, with whether it takes a value.
    fn flags(&self) -> Vec<(&'static str, bool)> {
        let words: Vec<&'static str> = self.usage.split_whitespace().collect();
        let mut flags = Vec::new();
        for (i, word) in words.iter().enumerate() {
            if let Some(flag) = word.trim_start_matches('[').strip_prefix("--") {
                let next = words.get(i + 1).filter(|w| !w.starts_with(['[', '-']));
                flags.push((
                    flag.trim_end_matches(']'),
                    !word.ends_with(']') && next.is_some(),
                ));
            }
        }
        flags
    }

    /// Parse the arguments after the command name: a bare switch gets an
    /// explicit `true`, and a flag the usage line does not list is refused.
    /// Returns the normalized arguments along with the parse.
    fn parse(&self, args: &[String]) -> Result<(Vec<String>, Opts), CliError> {
        let flags = self.flags();
        let mut rest = Vec::with_capacity(args.len() + 1);
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            rest.push(a.clone());
            let Some(flag) = a.strip_prefix("--") else {
                continue;
            };
            match flags.iter().find(|(f, _)| *f == flag) {
                Some((_, false)) if it.peek().is_none_or(|next| next.starts_with("--")) => {
                    rest.push("true".to_string());
                }
                Some(_) => {}
                None if flag == "trace" => {}
                None => {
                    let list: Vec<String> = flags.iter().map(|(f, _)| format!("--{f}")).collect();
                    return Err(CliError::Usage(format!(
                        "unknown flag --{flag} for `{}` (it takes {} --trace)\n  {}",
                        self.name,
                        list.join(" "),
                        self.usage
                    )));
                }
            }
        }
        let opts = Opts::parse(&rest)?;
        Ok((rest, opts))
    }
}

/// The text `ftclos help` prints, built from the command table.
pub fn usage() -> String {
    let mut out =
        String::from("ftclos — nonblocking folded-Clos networks (Yuan, IPDPS 2011)\n\nUSAGE:\n");
    for c in COMMANDS {
        let _ = writeln!(out, "  {}", c.usage);
    }
    out.push_str(
        "
Every command also accepts `--trace FILE` to write a span/counter trace
(JSON); summarize it with `ftclos stats`, or re-emit it as folded stacks
for flamegraph tooling with `ftclos stats FILE --folded`.

PATTERNS: shift:<k> random transpose bitrev neighbor tornado identity
ROUTERS (--router R; the first is the default):
",
    );
    for c in COMMANDS.iter().filter(|c| !c.routers.is_empty()) {
        let _ = writeln!(out, "  {:<9} {}", c.name, RouterName::spell(c.routers));
    }
    out.push_str(
        "  yuan = Theorem 3 (needs m >= n^2), adaptive = NONBLOCKINGADAPTIVE,
  rearrangeable needs m >= n, valley = cyclic straw-man, all = whole roster",
    );
    out
}

/// Dispatch a full argument vector (excluding `argv[0]`) to a command. A
/// flag its usage line does not list is a usage error, before anything runs.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some((name, rest)) = args.split_first() else {
        return Err(CliError::Usage(usage()));
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        return Ok(usage());
    }
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        return Err(CliError::Usage(format!(
            "unknown command `{name}`\n{}",
            usage()
        )));
    };
    let (rest, opts) = cmd.parse(rest)?;
    let json: bool = opts.flag_or("json", false)?;
    let reg = Registry::new();
    let out = {
        // One `cmd.<name>` root per trace; its children are the library
        // phases (`lemma1.closed_form`, `cdg.build`, `flowsim.waterfill`, ...).
        let _root = cmd.span.map(|s| reg.span(s));
        match cmd.run {
            Run::Text(run) => run(&opts, &reg)?,
            Run::Report(run) if json => run(&opts, &reg)?.json().write(),
            Run::Report(run) => run(&opts, &reg)?.to_string(),
        }
    };
    if let Some(path) = opts.flag("trace") {
        let trace = reg.snapshot().to_json(name, &rest.join(" "));
        std::fs::write(path, trace)
            .map_err(|e| CliError::Failed(format!("cannot write trace {path}: {e}")))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn help_and_unknown() {
        assert!(run(&argv("help")).unwrap().contains("USAGE"));
        assert!(matches!(run(&argv("frobnicate")), Err(CliError::Usage(_))));
        assert!(matches!(run(&[]), Err(CliError::Usage(_))));
    }

    #[test]
    fn misspelled_flags_are_usage_errors() {
        for (line, bad) in [
            ("verify 2 4 5 --routr dmodk", "--routr"),
            ("simulate 2 4 5 --cycle 50", "--cycle"),
            ("table1 --json", "--json"),
        ] {
            match run(&argv(line)) {
                Err(CliError::Usage(msg)) => {
                    assert!(msg.contains(&format!("unknown flag {bad} ")), "{msg}");
                    assert!(msg.contains("--trace"), "lists what it takes: {msg}");
                }
                other => panic!("`{line}` must be a usage error, got {other:?}"),
            }
        }
    }

    /// The usage line is the whitelist: every flag it documents parses, with
    /// a value or (switches) without, and anything else is refused.
    #[test]
    fn every_documented_flag_is_accepted() {
        let mut switches = Vec::new();
        for cmd in COMMANDS {
            let mut args = argv("2 4 5 --trace t.json");
            for (flag, takes_value) in cmd.flags() {
                args.push(format!("--{flag}"));
                if takes_value {
                    args.push("1".to_string());
                } else {
                    switches.push(flag);
                }
            }
            let (_, opts) = cmd
                .parse(&args)
                .unwrap_or_else(|e| panic!("{}: {e}", cmd.name));
            for (flag, takes_value) in cmd.flags() {
                let want = if takes_value { "1" } else { "true" };
                assert_eq!(opts.flag(flag), Some(want), "{} --{flag}", cmd.name);
            }
            args.extend(argv("--bogus 1"));
            assert!(
                matches!(cmd.parse(&args), Err(CliError::Usage(_))),
                "{}",
                cmd.name
            );
            let documents = |flag: &str| cmd.flags().iter().any(|(f, _)| *f == flag);
            assert_eq!(documents("router"), !cmd.routers.is_empty(), "{}", cmd.name);
            let reports = matches!(cmd.run, Run::Report(_));
            assert_eq!(documents("json"), reports, "{}", cmd.name);
        }
        switches.sort_unstable();
        switches.dedup();
        assert_eq!(
            switches,
            ["confirm", "folded", "inject", "json", "resume", "shrink"]
        );
    }

    #[test]
    fn usage_lists_every_command_and_roster() {
        let text = usage();
        for cmd in COMMANDS {
            assert!(text.contains(cmd.usage), "{}", cmd.name);
        }
        assert!(text.contains("  verify    yuan|dmodk|smodk\n"), "{text}");
        assert!(text.contains("  deadlock  all|yuan|dmodk|smodk|multipath|adaptive|valley\n"));
    }

    #[test]
    fn end_to_end_design() {
        let out = run(&argv("design 20")).unwrap();
        assert!(out.contains("80"), "20-port design yields 80 ports: {out}");
    }

    #[test]
    fn end_to_end_verify() {
        let out = run(&argv("verify 2 4 5")).unwrap();
        assert!(out.contains("NONBLOCKING"), "{out}");
        let out = run(&argv("verify 2 2 5 --router dmodk")).unwrap();
        assert!(out.contains("BLOCKING"), "{out}");
    }

    #[test]
    fn end_to_end_route_and_simulate() {
        let out = run(&argv("route 2 4 5 --pattern shift:3")).unwrap();
        assert!(out.contains("max channel load = 1"), "{out}");
        let out = run(&argv(
            "simulate 2 4 5 --pattern shift:3 --rate 0.8 --cycles 500",
        ))
        .unwrap();
        assert!(out.contains("accepted throughput"), "{out}");
    }

    #[test]
    fn end_to_end_faults() {
        let out = run(&argv("faults 2 4 5 --fail-tops 1 --samples 5 --max-k 0")).unwrap();
        assert!(out.contains("pairs routable"), "{out}");
        assert!(out.contains("masked adaptive"), "{out}");
    }

    #[test]
    fn end_to_end_churn() {
        let out = run(&argv(
            "churn 2 4 3 --links 1 --mtbf 200 --mttr 60 --cycles 500 --samples 8",
        ))
        .unwrap();
        assert!(out.contains("availability:"), "{out}");
        assert!(
            out.contains("time-to-reconverge") || out.contains("transition epoch"),
            "{out}"
        );
    }

    #[test]
    fn end_to_end_flowsim() {
        let out = run(&argv("flowsim 2 4 5 --pattern shift:3")).unwrap();
        assert!(out.contains("fluid-nonblocking"), "{out}");
        // Bare --json (no value) is normalized to a boolean switch.
        let out = run(&argv("flowsim 2 4 5 --pattern shift:3 --json")).unwrap();
        assert!(out.trim_start().starts_with('['), "{out}");
        assert!(out.contains("\"all_unit_rate\":true"), "{out}");
        // --json before another flag must not swallow it.
        let out = run(&argv("flowsim 2 4 5 --json --pattern shift:3")).unwrap();
        assert!(out.contains("\"pattern\":\"shift:3\""), "{out}");
    }

    #[test]
    fn end_to_end_trace_and_stats() {
        let path = std::env::temp_dir().join("ftclos_cli_trace_test.json");
        let spec = format!("verify 2 4 5 --trace {}", path.display());
        run(&argv(&spec)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"trace_version\": 1"), "{text}");
        assert!(text.contains("cmd.verify"), "{text}");
        assert!(text.contains("lemma1.closed_form"), "{text}");

        let out = run(&argv(&format!("stats {}", path.display()))).unwrap();
        assert!(out.contains("cmd.verify"), "{out}");
        assert!(out.contains("span coverage"), "{out}");

        let folded = run(&argv(&format!("stats {} --folded", path.display()))).unwrap();
        assert!(folded.lines().all(|l| l.split_whitespace().count() == 2));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn end_to_end_blocking_and_table1() {
        let out = run(&argv("blocking 2 2 5 --router dmodk --samples 50")).unwrap();
        assert!(out.contains("blocking fraction"), "{out}");
        let out = run(&argv("table1")).unwrap();
        assert!(out.contains("42"), "{out}");
    }
}
