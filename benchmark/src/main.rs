//! `ftclos-benchmark`: the repo benchmark's driver and its traced pipeline.
//! Run it through `benchmark/run.sh`, which builds it next to the `ftclos`
//! binary it measures. See `benchmark/README.md`.
//!
//! ```text
//! ftclos-benchmark --bench-dir DIR --workload W --seed S --seconds T --trace 0|1
//! ftclos-benchmark --bench-dir DIR [--seed S] [--seconds T] [--only W] [--selfcheck]
//! ftclos-benchmark pipeline <workload> --seed S [--trace FILE]
//! ```

mod check;
mod child;
mod driver;
mod layers;
mod pipeline;
mod stats;
mod suite;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage (through benchmark/run.sh):
  run.sh --workload W --seed S --seconds T --trace 0|1   one workload, one JSON line (the driver's contract)
  run.sh [--seed S] [--seconds T] [--only W]             the suite: every workload untraced, then traced
  run.sh --selfcheck [--seed S] [--seconds T] [--only W] the untraced suite twice, held against the bounds";

/// `--key value` flags (and the bare `--selfcheck`) into a map; anything else
/// is refused.
fn parse_flags(args: &[String], allowed: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .filter(|k| allowed.contains(k))
            .ok_or_else(|| format!("unknown argument `{arg}`\n{USAGE}"))?;
        let value = if key == "selfcheck" {
            "true".to_string()
        } else {
            it.next()
                .cloned()
                .ok_or_else(|| format!("--{key} expects a value\n{USAGE}"))?
        };
        flags.insert(key.to_string(), value);
    }
    Ok(flags)
}

fn parsed<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("--{key} got invalid value `{raw}`")),
    }
}

fn workload_named(name: &str) -> Result<&'static workloads::Workload, String> {
    workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (one of {names:?})")
    })
}

/// `ftclos-benchmark pipeline <workload> --seed S [--trace FILE]`.
fn pipeline_main(args: &[String]) -> Result<bool, String> {
    let (name, rest) = args.split_first().ok_or("pipeline wants a workload name")?;
    let flags = parse_flags(rest, &["seed", "trace"])?;
    let seed = parsed(&flags, "seed", check::GOLDEN_SEED)?;
    let trace = flags.get("trace").map(Path::new);
    let facts = pipeline::run(workload_named(name)?, seed, trace)?;
    print!("{}", pipeline::render_facts(&facts));
    Ok(true)
}

/// `MemAvailable` of `/proc/meminfo`, in KiB.
fn mem_available_kib(meminfo: &str) -> Option<u64> {
    let line = meminfo.lines().find(|l| l.starts_with("MemAvailable:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Refuse to measure on a machine the numbers would not mean anything on.
/// Returns the core count.
fn guard_rails() -> Result<usize, String> {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if cores < 2 {
        return Err(format!(
            "refusing to start: {cores} core available, the driver and its child need 2"
        ));
    }
    let meminfo = std::fs::read_to_string("/proc/meminfo")
        .map_err(|e| format!("cannot read /proc/meminfo: {e}"))?;
    let available = mem_available_kib(&meminfo).ok_or("no MemAvailable in /proc/meminfo")?;
    if available < 4 * 1024 * 1024 {
        return Err(format!(
            "refusing to start: {} MiB available, the workloads need 4 GiB free",
            available / 1024
        ));
    }
    Ok(cores)
}

fn driver_main(args: &[String]) -> Result<bool, String> {
    let flags = parse_flags(
        args,
        &[
            "bench-dir",
            "build-s",
            "workload",
            "seed",
            "seconds",
            "trace",
            "only",
            "selfcheck",
        ],
    )?;
    let bench_dir = flags
        .get("bench-dir")
        .map(PathBuf::from)
        .ok_or_else(|| format!("missing --bench-dir\n{USAGE}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let env = driver::Env {
        bin_dir: exe.parent().map(PathBuf::from).unwrap_or_default(),
        bench_dir,
    };
    let cores = guard_rails()?;
    let declared = suite::Declared::load(&env.bench_dir.join("../BENCHMARK.json"))?;
    declared.matches_driver()?;
    let seed = parsed(&flags, "seed", check::GOLDEN_SEED)?;
    let budget = Duration::from_secs(parsed(&flags, "seconds", declared.run_seconds)?);

    let Some(name) = flags.get("workload") else {
        let opts = suite::SuiteOptions {
            seed,
            budget,
            only: flags
                .get("only")
                .map(|name| workload_named(name))
                .transpose()?,
            selfcheck: flags.contains_key("selfcheck"),
            build_s: parsed(&flags, "build-s", 0.0)?,
            cores,
        };
        return suite::run(&env, &declared, &opts);
    };
    let workload = workload_named(name)?;
    let (declared, measured) = match parsed(&flags, "trace", 0u8)? {
        0 => (
            &layers::END_TO_END[..],
            driver::end_to_end(&env, workload, seed, budget)?,
        ),
        1 => (
            &layers::PER_LAYER[..],
            driver::per_layer(&env, workload, seed, budget)?,
        ),
        other => return Err(format!("--trace is 0 or 1, got {other}")),
    };
    suite::print_rows(workload, declared, &measured);
    println!("{}", suite::contract_json(declared, &measured));
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((first, rest)) if first == "pipeline" => pipeline_main(rest),
        _ => driver_main(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("ftclos-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn flags_parse_and_strangers_are_refused() {
        let flags = parse_flags(
            &argv("--seed 7 --selfcheck --only sim-table"),
            &["seed", "selfcheck", "only"],
        )
        .unwrap();
        assert_eq!(parsed(&flags, "seed", 5u64), Ok(7));
        assert_eq!(parsed(&flags, "seconds", 8u64), Ok(8));
        assert!(flags.contains_key("selfcheck"));
        assert_eq!(flags["only"], "sim-table");
        assert!(parse_flags(&argv("--reps 3"), &["seed"]).is_err());
        assert!(parse_flags(&argv("stray"), &["seed"]).is_err());
        assert!(parse_flags(&argv("--seed"), &["seed"]).is_err());
        assert!(parsed(
            &parse_flags(&argv("--seed x"), &["seed"]).unwrap(),
            "seed",
            5u64
        )
        .is_err());
    }

    #[test]
    fn meminfo_parses() {
        let text =
            "MemTotal:       16000000 kB\nMemFree:         1 kB\nMemAvailable:   15000000 kB\n";
        assert_eq!(mem_available_kib(text), Some(15_000_000));
        assert_eq!(mem_available_kib("MemTotal: 1 kB\n"), None);
    }

    #[test]
    fn unknown_workloads_are_named() {
        assert!(workload_named("verify-audit").is_ok());
        assert!(workload_named("verify")
            .unwrap_err()
            .contains("verify-audit"));
    }
}
