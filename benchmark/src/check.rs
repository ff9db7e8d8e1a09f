//! Output checks: every run's stdout is compared with the committed golden
//! file (default seed, and every seed for workloads the seed does not
//! reach) or with the first run of the same invocation, and the facts a
//! command prints are parsed so they can be held against the pipeline's.

use crate::workloads::Workload;
use std::path::Path;

/// The seed the committed golden outputs were produced with.
pub const GOLDEN_SEED: u64 = 5;

/// Ordered `key=value` facts of one run: verdicts, dependency counts,
/// packet counts.
pub type Facts = Vec<(String, String)>;

fn fact(key: &str, value: impl ToString) -> (String, String) {
    (key.to_string(), value.to_string())
}

/// Parse the facts out of the stdout of `ftclos <subcommand> …`.
///
/// # Errors
/// The output does not have the shape the command prints today.
pub fn facts_of_stdout(subcommand: &str, stdout: &str) -> Result<Facts, String> {
    let shape = || format!("unexpected `ftclos {subcommand}` output: {stdout:?}");
    match subcommand {
        "verify" => {
            let verdict = stdout
                .lines()
                .find_map(|l| {
                    ["NONBLOCKING", "BLOCKING"]
                        .into_iter()
                        .find(|v| l.starts_with(v))
                })
                .ok_or_else(shape)?;
            Ok(vec![fact("verdict", verdict)])
        }
        "deadlock" => {
            // `  yuan      FREE (10288000 dependencies, 0 valley turns)`
            // `  valley    CYCLIC (4 cyclic channels, 12 dependencies) witness: …`
            let line = stdout.lines().nth(1).ok_or_else(shape)?;
            let verdict = line.split_whitespace().nth(1).ok_or_else(shape)?;
            let before = line.split(" dependencies").next().ok_or_else(shape)?;
            let deps = before
                .rsplit(|c: char| !c.is_ascii_digit())
                .next()
                .and_then(|d| d.parse::<u64>().ok())
                .ok_or_else(shape)?;
            Ok(vec![fact("verdict", verdict), fact("num_deps", deps)])
        }
        "simulate" => {
            // `  injected 614107 / delivered 612254 (window: 491408 / 491369)`
            let line = stdout
                .lines()
                .find(|l| l.trim_start().starts_with("injected "))
                .ok_or_else(shape)?;
            let mut words = line.split_whitespace();
            let injected: u64 = words
                .nth(1)
                .and_then(|w| w.parse().ok())
                .ok_or_else(shape)?;
            let delivered: u64 = words
                .nth(2)
                .and_then(|w| w.parse().ok())
                .ok_or_else(shape)?;
            Ok(vec![
                fact("injected", injected),
                fact("delivered", delivered),
            ])
        }
        _ => Err(format!("no parser for `ftclos {subcommand}`")),
    }
}

/// Parse the `key=value` lines the pipeline prints.
///
/// # Errors
/// A line without `=`.
pub fn facts_of_pipeline(stdout: &str) -> Result<Facts, String> {
    stdout
        .lines()
        .map(|l| {
            l.split_once('=')
                .map(|(k, v)| fact(k, v))
                .ok_or_else(|| format!("pipeline printed a line that is not key=value: {l:?}"))
        })
        .collect()
}

/// Facts of one whole run of `workload`, whose commands printed `stdouts`.
///
/// # Errors
/// An output that does not parse, or simulated counts that cannot be right
/// (nothing injected, more delivered than injected).
pub fn facts_of_run(workload: &Workload, seed: u64, stdouts: &[String]) -> Result<Facts, String> {
    let mut facts = Facts::new();
    for ((program, args), stdout) in workload.invocations(seed).iter().zip(stdouts) {
        if program == "ftclos" {
            facts.extend(facts_of_stdout(&args[0], stdout)?);
        } else {
            facts.extend(facts_of_pipeline(stdout)?);
        }
    }
    let count = |key: &str| {
        facts
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse::<u64>().ok())
    };
    if let (Some(injected), Some(delivered)) = (count("injected"), count("delivered")) {
        if injected == 0 || delivered > injected {
            return Err(format!(
                "impossible packet counts: {injected} injected, {delivered} delivered"
            ));
        }
    }
    Ok(facts)
}

/// Decides whether a run's stdout is the right one.
pub struct OutputCheck {
    /// What every run must print: the golden file, or the first run seen.
    expected: Option<String>,
    source: String,
}

impl OutputCheck {
    /// # Errors
    /// The golden file is needed and cannot be read.
    pub fn new(workload: &Workload, seed: u64, golden_dir: &Path) -> Result<Self, String> {
        if seed != GOLDEN_SEED && workload.seeded() {
            return Ok(Self {
                expected: None,
                source: "the first run at this seed".to_string(),
            });
        }
        let path = golden_dir.join(format!("{}.seed{GOLDEN_SEED}.txt", workload.name));
        let golden = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read golden output {}: {e}", path.display()))?;
        Ok(Self {
            expected: Some(golden),
            source: path.display().to_string(),
        })
    }

    /// Check one run's concatenated stdout.
    ///
    /// # Errors
    /// It differs from the golden file (or from the first run).
    pub fn check(&mut self, stdout: &str) -> Result<(), String> {
        let expected = self.expected.get_or_insert_with(|| stdout.to_string());
        if expected == stdout {
            Ok(())
        } else {
            Err(format!(
                "output differs from {}:\n--- expected\n{expected}--- got\n{stdout}",
                self.source
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::find;

    #[test]
    fn verify_verdicts() {
        let clean = "audit of ftree(8+64, 200) under `yuan` routing:\n\
                     NONBLOCKING: every link carries one source or one destination\n";
        assert_eq!(
            facts_of_stdout("verify", clean).unwrap(),
            vec![fact("verdict", "NONBLOCKING")]
        );
        let witness = "audit of ftree(8+64, 200) under `dmodk` routing:\n\
                       BLOCKING: link c3200 carries multiple sources AND destinations\n  \
                       witness permutation: (1 -> 64) and (0 -> 128) contend\n";
        assert_eq!(
            facts_of_stdout("verify", witness).unwrap(),
            vec![fact("verdict", "BLOCKING")]
        );
        assert!(facts_of_stdout("verify", "error\n").is_err());
    }

    #[test]
    fn deadlock_verdict_and_dependency_count() {
        let free = "deadlock analysis on ftree(8+64, 400): pristine\n  \
                    yuan      FREE (10288000 dependencies, 0 valley turns)\n";
        assert_eq!(
            facts_of_stdout("deadlock", free).unwrap(),
            vec![fact("verdict", "FREE"), fact("num_deps", 10_288_000)]
        );
        let cyclic = "deadlock analysis on ftree(1+1, 4): pristine\n  \
                      valley    CYCLIC (4 cyclic channels, 12 dependencies) witness: c0 -> c0\n";
        assert_eq!(
            facts_of_stdout("deadlock", cyclic).unwrap(),
            vec![fact("verdict", "CYCLIC"), fact("num_deps", 12)]
        );
        assert!(facts_of_stdout("deadlock", "one line\n").is_err());
    }

    #[test]
    fn simulate_packet_counts() {
        let out = "simulated `random` at rate 0.6 on ftree(8+64, 128) with `yuan` (HolFifo):\n  \
                   accepted throughput = 0.600 packets/cycle/source (offered 0.6)\n  \
                   latency: mean 4.0, p50 4, p95 4, p99 4, max 4 cycles\n  \
                   injected 614107 / delivered 612254 (window: 491408 / 491369)\n";
        assert_eq!(
            facts_of_stdout("simulate", out).unwrap(),
            vec![fact("injected", 614_107), fact("delivered", 612_254)]
        );
        assert!(facts_of_stdout("simulate", "injected many\n").is_err());
        assert!(facts_of_stdout("route", "").is_err());
    }

    #[test]
    fn pipeline_lines_and_run_sanity() {
        assert_eq!(
            facts_of_pipeline("verdict=FREE\nnum_deps=7\n").unwrap(),
            vec![fact("verdict", "FREE"), fact("num_deps", 7)]
        );
        assert!(facts_of_pipeline("no equals sign\n").is_err());
        let w = find("scale-million").unwrap();
        assert!(facts_of_run(w, 5, &["injected=10\ndelivered=9\n".into()]).is_ok());
        assert!(facts_of_run(w, 5, &["injected=10\ndelivered=11\n".into()]).is_err());
        assert!(facts_of_run(w, 5, &["injected=0\ndelivered=0\n".into()]).is_err());
    }

    #[test]
    fn other_seeds_compare_with_the_first_run() {
        let w = find("sim-steady").unwrap();
        let mut check = OutputCheck::new(w, 6, Path::new("/nonexistent")).unwrap();
        assert!(check.check("a\n").is_ok());
        assert!(check.check("a\n").is_ok());
        assert!(check.check("b\n").is_err());
        // The default seed, and any seed of an unseeded workload, need the file.
        assert!(OutputCheck::new(w, GOLDEN_SEED, Path::new("/nonexistent")).is_err());
        let unseeded = find("deadlock-cdg").unwrap();
        assert!(OutputCheck::new(unseeded, 6, Path::new("/nonexistent")).is_err());
    }
}
