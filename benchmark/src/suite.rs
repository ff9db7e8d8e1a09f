//! The one-command suite (`benchmark/run.sh` without `--workload`): every
//! workload untraced, then traced, every metric printed by name with unit and
//! sample count, one JSON record at the end. `--selfcheck` runs the untraced
//! suite twice and holds the two against the declared bounds.

use crate::driver::{end_to_end, per_layer, Env, Measured};
use crate::layers::{reported, END_TO_END, PER_LAYER};
use crate::workloads::{Workload, WORKLOADS};
use ftclos_obs::json::Json;
use std::path::Path;
use std::process::Command;
use std::time::Duration;

/// What `BENCHMARK.json` declares, as far as the driver needs it.
pub struct Declared {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    /// End-to-end metric names with their regression bounds (share of the
    /// median), in declared order.
    pub end_to_end: Vec<(String, f64)>,
    pub per_layer: Vec<String>,
}

impl Declared {
    /// # Errors
    /// The file is missing, is not JSON, or lacks a key.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let missing = |key: &str| format!("{}: missing or malformed `{key}`", path.display());
        let names = |key: &str| -> Result<Vec<&Json>, String> {
            Ok(doc
                .get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| missing(key))?
                .iter()
                .collect())
        };
        let name_of = |entry: &Json, key: &str| {
            entry
                .get("name")
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or_else(|| missing(key))
        };
        Ok(Self {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_u64)
                .ok_or_else(|| missing("run_seconds"))?,
            workloads: names("workloads")?
                .into_iter()
                .map(|w| name_of(w, "workloads"))
                .collect::<Result<_, _>>()?,
            end_to_end: names("end_to_end")?
                .into_iter()
                .map(|m| {
                    let bound = m.get("bound").and_then(Json::as_f64);
                    Ok((
                        name_of(m, "end_to_end")?,
                        bound.ok_or_else(|| missing("bound"))?,
                    ))
                })
                .collect::<Result<_, String>>()?,
            per_layer: names("per_layer")?
                .into_iter()
                .map(|m| name_of(m, "per_layer"))
                .collect::<Result<_, _>>()?,
        })
    }

    /// Every workload and metric the driver emits must be declared, in the
    /// driver's order, and nothing else.
    ///
    /// # Errors
    /// Names the first list that disagrees.
    pub fn matches_driver(&self) -> Result<(), String> {
        let emitted = |names: &[(&str, &str)]| -> Vec<String> {
            names.iter().map(|(n, _)| n.to_string()).collect()
        };
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        let end_to_end: Vec<String> = self.end_to_end.iter().map(|(n, _)| n.clone()).collect();
        for (what, declared, driver) in [
            ("workloads", &self.workloads, &workloads),
            ("end_to_end", &end_to_end, &emitted(&END_TO_END)),
            ("per_layer", &self.per_layer, &emitted(&PER_LAYER)),
        ] {
            if declared != driver {
                return Err(format!(
                    "BENCHMARK.json `{what}` and the driver disagree: {declared:?} vs {driver:?}"
                ));
            }
        }
        Ok(())
    }
}

/// A JSON object from `(key, value)` pairs.
fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value:.6}")
    }
}

/// Print one pass's metrics: workload, metric, unit, n, the reported value,
/// quartiles, min, max.
pub fn print_rows(workload: &Workload, declared: &[(&str, &str)], measured: &Measured) {
    for (name, unit) in declared {
        let m = measured.metrics[name];
        println!(
            "{:<17} {:<31} {:<6} n={:<3} value={:<16} q1={:<16} median={:<16} q3={:<16} min={:<16} max={}",
            workload.name,
            name,
            unit,
            m.n,
            num(reported(name, &m)),
            num(m.q1),
            num(m.median),
            num(m.q3),
            num(m.min),
            num(m.max)
        );
    }
}

fn print_failures(workload: &Workload, measured: &Measured) {
    println!(
        "{:<17} {:<31} {:<6} {} failed of {} attempted",
        workload.name, "fail_ratio", "ratio", measured.failed, measured.attempted
    );
}

fn metrics_json(declared: &[(&str, &str)], measured: &Measured) -> Json {
    obj(declared.iter().map(|(name, unit)| {
        let m = measured.metrics[name];
        let fields = [
            ("unit", Json::Str(unit.to_string())),
            ("n", Json::Num(m.n as f64)),
            ("value", Json::Num(reported(name, &m))),
            ("q1", Json::Num(m.q1)),
            ("median", Json::Num(m.median)),
            ("q3", Json::Num(m.q3)),
            ("min", Json::Num(m.min)),
            ("max", Json::Num(m.max)),
        ];
        (*name, obj(fields))
    }))
}

/// The JSON line the driver's contract asks for: reported values only.
pub fn contract_json(declared: &[(&str, &str)], measured: &Measured) -> String {
    let metrics = obj(declared.iter().map(|(name, unit)| {
        let fields = [
            ("value", Json::Num(reported(name, &measured.metrics[name]))),
            ("unit", Json::Str(unit.to_string())),
        ];
        (*name, obj(fields))
    }));
    obj([
        ("correct", Json::Bool(measured.failed == 0)),
        ("attempted", Json::Num(measured.attempted as f64)),
        ("failed", Json::Num(measured.failed as f64)),
        ("metrics", metrics),
    ])
    .write()
}

fn first_line_of(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(String::from)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Settings of one suite run.
pub struct SuiteOptions<'a> {
    pub seed: u64,
    pub budget: Duration,
    /// Restrict the suite to one workload.
    pub only: Option<&'a Workload>,
    pub selfcheck: bool,
    /// Seconds `run.sh` spent in `cargo build`, for the record header.
    pub build_s: f64,
    pub cores: usize,
}

/// Run the suite. Returns whether everything passed: no failed run, and in
/// `--selfcheck` every end-to-end metric within its bound across the two
/// suites.
///
/// # Errors
/// The benchmark itself could not run.
pub fn run(env: &Env, declared: &Declared, opts: &SuiteOptions) -> Result<bool, String> {
    let selected: Vec<&Workload> = match opts.only {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let header = obj([
        (
            "git_head",
            Json::Str(first_line_of("git", &["rev-parse", "HEAD"], &env.bench_dir)),
        ),
        (
            "rustc",
            Json::Str(first_line_of("rustc", &["-V"], &env.bench_dir)),
        ),
        ("nproc", Json::Num(opts.cores as f64)),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.budget.as_secs_f64())),
        ("build_s", Json::Num(opts.build_s)),
    ]);
    println!("# {}", header.write());

    let mut ok = true;
    let mut first = Vec::new();
    for w in &selected {
        println!("# {}: one run is {} {}", w.name, w.work_count, w.work_unit);
        let measured = end_to_end(env, w, opts.seed, opts.budget)?;
        print_rows(w, &END_TO_END, &measured);
        print_failures(w, &measured);
        ok &= measured.failed == 0;
        first.push(measured);
    }
    let mut records = Vec::new();
    for (w, e2e) in selected.iter().zip(&first) {
        let mut fields = vec![
            ("attempted", Json::Num(e2e.attempted as f64)),
            ("failed", Json::Num(e2e.failed as f64)),
            ("end_to_end", metrics_json(&END_TO_END, e2e)),
        ];
        if opts.selfcheck {
            let again = end_to_end(env, w, opts.seed, opts.budget)?;
            ok &= again.failed == 0;
            ok &= agree(w, declared, e2e, &again);
            fields.push(("end_to_end_again", metrics_json(&END_TO_END, &again)));
        } else {
            let layers = per_layer(env, w, opts.seed, opts.budget)?;
            print_rows(w, &PER_LAYER, &layers);
            print_failures(w, &layers);
            ok &= layers.failed == 0;
            ok &= mirrors(w, &layers);
            fields.push(("per_layer", metrics_json(&PER_LAYER, &layers)));
        }
        records.push((w.name, obj(fields)));
    }
    let record = obj([("header", header), ("workloads", obj(records))]).write();
    let path = env.bench_dir.join("out/record.json");
    std::fs::write(&path, format!("{record}\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("{record}");
    Ok(ok)
}

/// `--selfcheck`: print each end-to-end metric's spread across the two
/// suites and say whether it stays within the declared bound.
fn agree(w: &Workload, declared: &Declared, a: &Measured, b: &Measured) -> bool {
    let mut ok = true;
    for ((name, unit), (_, bound)) in END_TO_END.iter().zip(&declared.end_to_end) {
        let (x, y) = (
            reported(name, &a.metrics[name]),
            reported(name, &b.metrics[name]),
        );
        let spread = (x - y).abs() / x.min(y);
        let within = spread <= *bound;
        ok &= within;
        println!(
            "selfcheck {:<17} {:<13} {:<4} {} vs {}  spread {:.2} %  bound {:.0} %  {}",
            w.name,
            name,
            unit,
            num(x),
            num(y),
            spread * 100.0,
            bound * 100.0,
            if within { "ok" } else { "OUTSIDE" }
        );
    }
    ok
}

/// The traced pipeline must account for the command it mirrors: at least 90 %
/// of its own wall in named layer spans, and less than 10 % of the command's
/// wall left unattributed.
fn mirrors(w: &Workload, layers: &Measured) -> bool {
    let attributed = layers.metrics["pipeline.attributed_ratio"].median;
    let unattributed = layers.metrics["cli.unattributed_ratio"].median;
    let ok = attributed >= 0.90 && unattributed < 0.10;
    println!(
        "mirror    {:<17} {:.1} % of the pipeline wall is in layer spans; {:.1} % of the command's wall is unattributed  {}",
        w.name,
        attributed * 100.0,
        unattributed * 100.0,
        if ok { "ok" } else { "DRIFTED" }
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{END_TO_END, PER_LAYER};

    fn declared() -> Declared {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        Declared::load(&path).unwrap()
    }

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        !name.is_empty() && name.len() <= 64 && name.chars().all(ok)
    }

    #[test]
    fn every_emitted_name_is_declared_once() {
        let d = declared();
        d.matches_driver().unwrap();
        let emitted: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        for (name, bound) in &d.end_to_end {
            assert!(*bound > 0.0 && *bound <= 0.25, "{name}: {bound}");
        }
        let layers: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        let mut all: Vec<&str> = emitted.iter().chain(&e2e).chain(&layers).copied().collect();
        assert!(all.iter().all(|n| well_formed(n)), "{all:?}");
        all.sort_unstable();
        let before = all.len();
        all.dedup();
        assert_eq!(all.len(), before, "a name is used twice");
        assert!(emitted.len() <= 8 && e2e.len() <= 16 && layers.len() <= 128);
        assert!((1..=60).contains(&d.run_seconds));
    }

    #[test]
    fn numbers_print_without_noise() {
        assert_eq!(num(76_014_288.0), "76014288");
        assert_eq!(num(1.25), "1.250000");
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let summary = crate::stats::summarize(&[1.5, 2.5, 3.5]).unwrap();
        let measured = Measured {
            metrics: END_TO_END.iter().map(|(n, _)| (*n, summary)).collect(),
            attempted: 6,
            failed: 0,
        };
        let line = contract_json(&END_TO_END, &measured);
        let doc = Json::parse(&line).unwrap();
        let Json::Obj(keys) = &doc else {
            panic!("{line}")
        };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let wall = doc.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        // Run times report the quartile on their better side, the rest the median.
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(2.0));
        let value_of = |name: &str| {
            let metric = doc.get("metrics").and_then(|m| m.get(name)).unwrap();
            metric.get("value").and_then(Json::as_f64)
        };
        assert_eq!(value_of("work_per_s"), Some(3.0));
        assert_eq!(value_of("peak_rss_mib"), Some(2.5));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    }
}
