//! Measuring one workload: the untraced end-to-end pass and the traced
//! per-layer pass.
//!
//! The driver is one thread that runs one child at a time and never sets
//! `RAYON_NUM_THREADS`: the child sees the machine's cores, so real
//! parallelism in a later change shows up in `wall_s`, and nothing here
//! measures the scheduler.

use crate::check::{facts_of_pipeline, facts_of_run, OutputCheck};
use crate::child::{run_child, ChildRun};
use crate::layers::{Trace, END_TO_END, PER_LAYER};
use crate::stats::{ratio, summarize, Summary};
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A child still running after this long is killed and counted as failed: a
/// regression to minutes must fail the run, not hang it.
const CHILD_TIMEOUT: Duration = Duration::from_secs(120);
/// Set-ups per end-to-end pass; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed repetitions never go below this, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// `ftclos help` runs behind `cli.startup_s`.
const STARTUP_RUNS: usize = 5;

/// Where the binaries and the benchmark's files are.
pub struct Env {
    /// Holds `ftclos` and `ftclos-benchmark`, built by `run.sh`.
    pub bin_dir: PathBuf,
    /// The `benchmark/` directory.
    pub bench_dir: PathBuf,
}

impl Env {
    fn out_dir(&self) -> PathBuf {
        self.bench_dir.join("out")
    }
}

/// The metrics of one pass over one workload.
pub struct Measured {
    pub metrics: BTreeMap<&'static str, Summary>,
    /// Runs attempted, warm-ups included, and how many of them failed: exited
    /// non-zero, hit the timeout, or failed an output check.
    pub attempted: u64,
    pub failed: u64,
}

/// One run of a workload: its commands executed once, in order.
struct Run {
    wall_s: f64,
    peak_rss_kib: u64,
    cpu_s: (f64, f64),
    minor_faults: u64,
    stdouts: Vec<String>,
    /// Why the run does not count, if it does not.
    failure: Option<String>,
}

fn run_commands(env: &Env, commands: &[(String, Vec<String>)]) -> Result<Run, String> {
    let capture = env.out_dir().join("stdout.txt");
    let mut run = Run {
        wall_s: 0.0,
        peak_rss_kib: 0,
        cpu_s: (0.0, 0.0),
        minor_faults: 0,
        stdouts: Vec::new(),
        failure: None,
    };
    for (program, args) in commands {
        let child: ChildRun = run_child(&env.bin_dir.join(program), args, &capture, CHILD_TIMEOUT)
            .map_err(|e| format!("cannot run {program}: {e}"))?;
        run.wall_s += child.wall_s;
        run.peak_rss_kib = run.peak_rss_kib.max(child.max_rss_kib);
        run.cpu_s.0 += child.cpu_user_s;
        run.cpu_s.1 += child.cpu_sys_s;
        run.minor_faults += child.minor_faults;
        run.stdouts
            .push(String::from_utf8_lossy(&child.stdout).into_owned());
        if !child.success && run.failure.is_none() {
            let how = if child.timed_out {
                "was killed at the 120 s timeout"
            } else {
                "exited non-zero"
            };
            run.failure = Some(format!("`{program} {}` {how}", args.join(" ")));
        }
    }
    Ok(run)
}

/// Counts attempts and failures, and says why on stderr.
struct Tally<'a> {
    workload: &'a Workload,
    seed: u64,
    check: OutputCheck,
    attempted: u64,
    failed: u64,
}

impl Tally<'_> {
    /// Count one attempt and whether it counts; a failure is explained on
    /// stderr.
    fn count<T>(&mut self, attempt: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        attempt
            .inspect_err(|why| {
                self.failed += 1;
                eprintln!("FAILED {} seed {}: {why}", self.workload.name, self.seed);
            })
            .ok()
    }

    /// Judge one run: exit status, output check, parseable facts.
    fn judge(&mut self, run: &Run) -> bool {
        let verdict = match &run.failure {
            Some(why) => Err(why.clone()),
            None => self
                .check
                .check(&run.stdouts.concat())
                .and_then(|()| facts_of_run(self.workload, self.seed, &run.stdouts).map(drop)),
        };
        self.count(verdict).is_some()
    }
}

fn tally<'a>(env: &Env, workload: &'a Workload, seed: u64) -> Result<Tally<'a>, String> {
    std::fs::create_dir_all(env.out_dir())
        .map_err(|e| format!("cannot create {}: {e}", env.out_dir().display()))?;
    Ok(Tally {
        workload,
        seed,
        check: OutputCheck::new(workload, seed, &env.bench_dir.join("golden"))?,
        attempted: 0,
        failed: 0,
    })
}

/// Whether another repetition fits: always up to `MIN_REPS`, then only while
/// one more of the usual length still ends inside the budget.
fn another_rep(walls: &[f64], started: Instant, budget: Duration) -> bool {
    if walls.len() < MIN_REPS {
        return true;
    }
    let usual = summarize(walls).map_or(0.0, |s| s.median);
    started.elapsed().as_secs_f64() + usual <= budget.as_secs_f64()
}

fn finish(
    declared: &[(&'static str, &'static str)],
    mut samples: BTreeMap<&'static str, Vec<f64>>,
    tally: &Tally,
) -> Result<Measured, String> {
    let mut metrics = BTreeMap::new();
    for (name, _) in declared {
        let summary = summarize(&samples.remove(name).unwrap_or_default()).ok_or_else(|| {
            format!(
                "{}: no successful run to take {name} from",
                tally.workload.name
            )
        })?;
        metrics.insert(*name, summary);
    }
    Ok(Measured {
        metrics,
        attempted: tally.attempted,
        failed: tally.failed,
    })
}

/// The end-to-end pass, tracing off: `SETUPS` set-ups (input generation plus
/// the first execution), then timed runs for `budget`.
///
/// # Errors
/// The benchmark itself could not run (no binary, no golden file, no
/// successful run); a failing *child* is counted, not an error.
pub fn end_to_end(
    env: &Env,
    workload: &Workload,
    seed: u64,
    budget: Duration,
) -> Result<Measured, String> {
    let mut tally = tally(env, workload, seed)?;
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for _ in 0..SETUPS {
        let started = Instant::now();
        let commands = workload.invocations(seed);
        let run = run_commands(env, &commands)?;
        let setup_s = started.elapsed().as_secs_f64();
        if tally.judge(&run) {
            samples.entry("setup_s").or_default().push(setup_s);
        }
    }
    let commands = workload.invocations(seed);
    let started = Instant::now();
    let mut walls = Vec::new();
    while another_rep(&walls, started, budget) {
        let run = run_commands(env, &commands)?;
        walls.push(run.wall_s);
        if tally.judge(&run) {
            let mut sample = |name, value| samples.entry(name).or_default().push(value);
            sample("wall_s", run.wall_s);
            sample("work_per_s", workload.work_count as f64 / run.wall_s);
            sample("peak_rss_mib", run.peak_rss_kib as f64 / 1024.0);
        }
    }
    finish(&END_TO_END, samples, &tally)
}

/// The per-layer pass: each repetition runs the workload untraced (process
/// metrics, and the wall the layer spans are held against) and then the
/// traced pipeline, whose facts must equal the untraced run's.
///
/// # Errors
/// As [`end_to_end`].
pub fn per_layer(
    env: &Env,
    workload: &Workload,
    seed: u64,
    budget: Duration,
) -> Result<Measured, String> {
    let mut tally = tally(env, workload, seed)?;
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let commands = workload.invocations(seed);
    let trace_file = env.out_dir().join(format!("trace.{}.json", workload.name));
    let traced = [(
        "ftclos-benchmark".to_string(),
        vec![
            "pipeline".to_string(),
            workload.name.to_string(),
            "--seed".to_string(),
            seed.to_string(),
            "--trace".to_string(),
            trace_file.display().to_string(),
        ],
    )];
    tally.judge(&run_commands(env, &commands)?);
    for _ in 0..STARTUP_RUNS {
        let help = run_commands(env, &[("ftclos".to_string(), vec!["help".to_string()])])?;
        samples
            .entry("cli.startup_s")
            .or_default()
            .push(help.wall_s);
    }
    let started = Instant::now();
    let mut walls = Vec::new();
    while another_rep(&walls, started, budget) {
        let plain = run_commands(env, &commands)?;
        let pipeline = run_commands(env, &traced)?;
        walls.push(plain.wall_s + pipeline.wall_s);
        if !tally.judge(&plain) {
            continue;
        }
        let trace = pipeline_trace(workload, seed, &plain, &pipeline, &trace_file);
        let Some((trace, trace_bytes)) = tally.count(trace) else {
            continue;
        };
        let mut sample = |name, value| samples.entry(name).or_default().push(value);
        for (name, value) in trace.layer_metrics() {
            sample(name, value);
        }
        sample("obs.trace_bytes", trace_bytes as f64);
        let overhead = if workload.is_cli() {
            0.0
        } else {
            pipeline.wall_s / plain.wall_s
        };
        sample("obs.bench_trace_overhead_ratio", overhead);
        let unattributed = plain.wall_s - trace.attributed_s();
        sample("cli.unattributed_s", unattributed);
        sample("cli.unattributed_ratio", unattributed / plain.wall_s);
        let stdout_bytes: usize = plain.stdouts.iter().map(String::len).sum();
        sample("cli.stdout_bytes", stdout_bytes as f64);
        sample("proc.cpu_user_s", plain.cpu_s.0);
        sample("proc.cpu_sys_s", plain.cpu_s.1);
        sample(
            "proc.cpu_util",
            ratio(plain.cpu_s.0 + plain.cpu_s.1, plain.wall_s),
        );
        sample("proc.minor_faults", plain.minor_faults as f64);
    }
    finish(&PER_LAYER, samples, &tally)
}

/// The traced pipeline's trace, once its run is known to be good: it exited
/// 0 (conservation is checked in-process) and printed the facts the untraced
/// run printed.
fn pipeline_trace(
    workload: &Workload,
    seed: u64,
    plain: &Run,
    pipeline: &Run,
    trace_file: &std::path::Path,
) -> Result<(Trace, u64), String> {
    if let Some(why) = &pipeline.failure {
        return Err(why.clone());
    }
    let mirrored = facts_of_pipeline(&pipeline.stdouts.concat())?;
    let printed = facts_of_run(workload, seed, &plain.stdouts)?;
    if mirrored != printed {
        return Err(format!(
            "the pipeline has drifted from the command: it found {mirrored:?}, the command printed {printed:?}"
        ));
    }
    let text = std::fs::read_to_string(trace_file)
        .map_err(|e| format!("cannot read {}: {e}", trace_file.display()))?;
    Ok((Trace::parse(&text)?, text.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repetitions_fill_the_budget_without_overrunning_it() {
        let now = Instant::now();
        // Below the minimum: always.
        assert!(another_rep(&[9.0, 9.0], now, Duration::ZERO));
        // At the minimum: only when one more usual run still fits.
        assert!(another_rep(&[1.0, 1.0, 1.0], now, Duration::from_secs(5)));
        assert!(!another_rep(
            &[1.0, 1.0, 1.0],
            now,
            Duration::from_millis(500)
        ));
    }
}
