//! Golden-file snapshot tests: pin the exact text/JSON the user-facing
//! surfaces emit — flowsim reports, the faults and churn commands, and the
//! `--trace` JSON (with volatile `*_ns` timing fields scrubbed to zero so
//! only the *shape* is pinned: span paths, counts, counters, gauges).
//!
//! On intentional output changes, regenerate with:
//! `UPDATE_SNAPSHOTS=1 cargo test --test golden_snapshots`

use ftclos::obs::json::Json;
use std::path::{Path, PathBuf};

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(name)
}

/// Compare `actual` against the stored golden file, or rewrite the golden
/// when `UPDATE_SNAPSHOTS` is set.
fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::create_dir_all(path.parent().expect("snapshot dir")).expect("mkdir snapshots");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {name} ({e}); create it with UPDATE_SNAPSHOTS=1")
    });
    assert_eq!(
        expected, actual,
        "output drifted from tests/snapshots/{name}; if intentional, \
         regenerate with UPDATE_SNAPSHOTS=1"
    );
}

/// Run a CLI invocation (the same entry the binary uses) and return stdout.
fn cli(args: &str) -> String {
    let argv: Vec<String> = args.split_whitespace().map(String::from).collect();
    ftclos_cli::run(&argv).unwrap_or_else(|e| panic!("`ftclos {args}` failed: {e}"))
}

#[test]
fn flowsim_text_report_is_stable() {
    assert_matches_golden("flowsim_2_4_5.txt", &cli("flowsim 2 4 5"));
}

#[test]
fn flowsim_json_report_is_stable() {
    assert_json_matches_golden("flowsim_2_4_5.json", "flowsim 2 4 5 --json");
}

#[test]
fn flowsim_faulted_report_is_stable() {
    assert_matches_golden(
        "flowsim_2_4_5_failtop.txt",
        &cli("flowsim 2 4 5 --router multipath --fail-tops 1"),
    );
}

#[test]
fn faults_output_is_stable() {
    assert_matches_golden(
        "faults_2_4_5.txt",
        &cli("faults 2 4 5 --fail-tops 1 --samples 5 --max-k 1 --seed 0"),
    );
}

#[test]
fn churn_output_is_stable() {
    assert_matches_golden(
        "churn_2_4_3.txt",
        &cli("churn 2 4 3 --links 1 --mtbf 200 --mttr 60 --cycles 600 --samples 10 --seed 3"),
    );
}

/// The full deadlock sweep, pristine: every production router proved FREE
/// and the valley straw-man caught CYCLIC with its deterministic witness.
#[test]
fn deadlock_sweep_text_is_stable() {
    assert_matches_golden("deadlock_2_4_5.txt", &cli("deadlock 2 4 5"));
}

/// The valley witness-injection run, JSON: the witness cycle, the
/// dependency counts, and the wedge statistics (stranded / delivered /
/// conservation, plus the clean-draining control) are all deterministic.
#[test]
fn deadlock_witness_injection_json_is_stable() {
    assert_json_matches_golden(
        "deadlock_valley_inject.json",
        "deadlock 1 1 4 --router valley --inject true --json",
    );
}

/// A seeded *faulted* witness: a dead link thins the valley CDG (fewer
/// dependencies than pristine) but the residual cycle — and its
/// deterministic witness — survives.
#[test]
fn deadlock_faulted_witness_text_is_stable() {
    assert_matches_golden(
        "deadlock_valley_faulted.txt",
        &cli("deadlock 1 1 4 --router valley --fail-links 1 --seed 7"),
    );
}

/// The `--trace` JSON, with every `*_ns` field zeroed: the span tree
/// (paths, nesting, counts), counters, and gauges must not drift silently.
#[test]
fn verify_trace_shape_is_stable() {
    let trace = std::env::temp_dir().join("ftclos_golden_trace.json");
    cli(&format!("verify 2 4 5 --trace {}", trace.display()));
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let _ = std::fs::remove_file(&trace);
    let mut doc = Json::parse(&text).expect("trace parses");
    doc.scrub_keys_ending("_ns");
    // Scrub the args line too: it embeds the temp path.
    if let Json::Obj(entries) = &mut doc {
        for (k, v) in entries.iter_mut() {
            if k == "meta" {
                if let Json::Obj(meta) = v {
                    for (mk, mv) in meta.iter_mut() {
                        if mk == "args" {
                            *mv = Json::Str("<args>".to_string());
                        }
                    }
                }
            }
        }
    }
    assert_matches_golden("verify_trace_2_4_5.json", &doc.write());
}

/// The event engine's user-facing text output, pristine: byte-identical to
/// the cycle engine's report apart from the engine tag in the header.
#[test]
fn simulate_event_text_is_stable() {
    let args = "simulate 2 4 5 --pattern shift:3 --rate 0.9 --cycles 600 --seed 5";
    let event = cli(&format!("{args} --engine event"));
    assert_matches_golden("simulate_event_2_4_5.txt", &event);
    let cycle = cli(&format!("{args} --engine cycle"));
    assert_eq!(
        cycle.replace("(HolFifo)", "(HolFifo, event engine)"),
        event,
        "engines must emit the same report apart from the tag"
    );
}

/// The event engine's JSON output, pristine.
#[test]
fn simulate_event_json_is_stable() {
    assert_json_matches_golden(
        "simulate_event_2_4_5.json",
        "simulate 2 4 5 --pattern shift:3 --rate 0.9 --cycles 600 --seed 5 --engine event --json",
    );
}

/// A faulted event-engine run: two uplinks of edge switch 0 die mid-run;
/// the outage line, degraded throughput, and leftovers are deterministic.
#[test]
fn simulate_event_faulted_text_is_stable() {
    assert_matches_golden(
        "simulate_event_2_4_5_faulted.txt",
        &cli(
            "simulate 2 4 5 --pattern shift:3 --rate 0.9 --cycles 600 --seed 5 \
              --engine event --fail-uplinks 2",
        ),
    );
}

/// The faulted run in JSON — and field-for-field agreement with the cycle
/// engine under the same faults.
#[test]
fn simulate_event_faulted_json_is_stable() {
    let args = "simulate 2 4 5 --pattern shift:3 --rate 0.9 --cycles 600 --seed 5 \
                --fail-uplinks 2 --json";
    let event = format!("{args} --engine event");
    assert_json_matches_golden("simulate_event_2_4_5_faulted.json", &event);
    let (event, cycle) = (cli(&event), cli(&format!("{args} --engine cycle")));
    assert_eq!(
        cycle.replace("\"engine\":\"cycle\"", "\"engine\":\"event\""),
        event
    );
}

/// `simulate` runs the event engine by default: its report, text and
/// JSON, is the `--engine event` one byte for byte.
#[test]
fn simulate_defaults_to_the_event_engine() {
    let args = "simulate 2 4 5 --pattern shift:3 --rate 0.9 --cycles 600 --seed 5";
    for json in ["", " --json"] {
        assert_eq!(
            cli(&format!("{args}{json}")),
            cli(&format!("{args}{json} --engine event")),
            "default `{args}{json}`"
        );
    }
}

/// The `--trace` JSON of one CLI invocation, parsed, and its text.
fn traced(args: &str, file: &str) -> (Json, String) {
    let trace = std::env::temp_dir().join(file);
    cli(&format!("{args} --trace {}", trace.display()));
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let _ = std::fs::remove_file(&trace);
    (Json::parse(&text).expect("trace parses"), text)
}

/// A counter of a parsed trace, 0 when absent.
fn trace_counter(doc: &Json, name: &str) -> u64 {
    doc.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// The simulate command's trace: the default (event) engine's counters
/// must conserve packets (injected = delivered + abandoned + in-flight) in
/// the final state.
#[test]
fn simulate_trace_counters_conserve() {
    let (doc, text) = traced(
        "simulate 2 4 5 --pattern shift:3 --rate 0.8 --cycles 400",
        "ftclos_golden_sim_trace.json",
    );
    let counter = |name: &str| trace_counter(&doc, name);
    let in_flight = doc
        .get("gauges")
        .and_then(|g| g.get("evsim.in_flight"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let injected = counter("evsim.injected");
    assert!(injected > 0, "trace recorded injections: {text}");
    assert_eq!(
        injected,
        counter("evsim.delivered") + counter("evsim.abandoned") + in_flight,
        "conservation over the final flush: {text}"
    );
}

/// `deadlock --inject` replays its witness on the event engine: the wedged
/// drain (no watchdog, so it lasts to the drain cap) is fast-forwarded,
/// not swept cycle by cycle.
#[test]
fn deadlock_injection_fast_forwards_the_wedged_drain() {
    let (doc, text) = traced(
        "deadlock 1 1 4 --router valley --inject",
        "ftclos_golden_deadlock_inject_trace.json",
    );
    let skipped = trace_counter(&doc, "evsim.skipped_cycles");
    let executed = trace_counter(&doc, "evsim.executed_cycles");
    assert!(skipped > 0, "the wedged drain skips cycles: {text}");
    assert!(
        skipped > 100 * executed,
        "most of the drain is skipped: {skipped} skipped, {executed} executed"
    );
}

/// The min-congestion head-to-head, pristine: every baseline row, the
/// solver row with its move/round counters, and the per-pattern verdicts.
#[test]
fn congestion_pristine_text_is_stable() {
    assert_matches_golden("congestion_2_4_5.txt", &cli("congestion 2 4 5"));
}

#[test]
fn congestion_pristine_json_is_stable() {
    assert_json_matches_golden("congestion_2_4_5.json", "congestion 2 4 5 --json");
}

/// Faulted head-to-head: a dead top switch turns the deterministic
/// baselines unroutable while the masked solver still places the suite.
#[test]
fn congestion_faulted_text_is_stable() {
    assert_matches_golden(
        "congestion_2_4_5_failtop.txt",
        &cli("congestion 2 4 5 --fail-tops 1 --seed 7"),
    );
}

/// Churn epochs: each distinct fault epoch of the flap schedule replayed
/// as a repaired-vs-dmodk line; the epoch list is seed-deterministic.
#[test]
fn congestion_churn_text_is_stable() {
    assert_matches_golden(
        "congestion_2_4_5_churn.txt",
        &cli("congestion 2 4 5 --churn-links 2 --churn-cycles 800 --seed 5"),
    );
}

/// Exhaustive k-fault-tolerance certification: the text certificate for
/// adaptive routability over the top switches of `ftree(2+4, 5)`.
#[test]
fn campaign_exhaustive_text_is_stable() {
    assert_matches_golden(
        "campaign_exhaustive_2_4_5.txt",
        &cli("campaign 2 4 5 --mode exhaustive --k 2 --universe tops"),
    );
}

/// Randomized campaign with shrinking: killer lines, 1-minimal cores, and
/// the criticality ranking are all seed-deterministic.
#[test]
fn campaign_random_text_is_stable() {
    assert_matches_golden(
        "campaign_random_2_4_5.txt",
        &cli("campaign 2 4 5 --waves 4 --wave-size 6 --links 2 --switches 1 --seed 7 --shrink"),
    );
}

#[test]
fn campaign_random_json_is_stable() {
    assert_json_matches_golden(
        "campaign_random_2_4_5.json",
        "campaign 2 4 5 --waves 4 --wave-size 6 --links 2 --switches 1 --seed 7 --shrink --json",
    );
}

/// Router paths no other snapshot pins: one line per dispatch site, each
/// through a router other than the command's default.
#[test]
fn router_path_verify_dmodk_is_stable() {
    assert_matches_golden(
        "verify_dmodk_2_2_5.txt",
        &cli("verify 2 2 5 --router dmodk"),
    );
}

#[test]
fn router_path_route_adaptive_is_stable() {
    assert_matches_golden(
        "route_adaptive_2_16_4.txt",
        &cli("route 2 16 4 --router adaptive --pattern random --seed 1"),
    );
}

#[test]
fn router_path_blocking_smodk_is_stable() {
    assert_matches_golden(
        "blocking_smodk_2_2_5.txt",
        &cli("blocking 2 2 5 --router smodk --samples 40"),
    );
}

#[test]
fn router_path_flowsim_dmodk_faulted_json_is_stable() {
    assert_json_matches_golden(
        "flowsim_dmodk_2_4_5_failtop.json",
        "flowsim 2 4 5 --router dmodk --fail-tops 1 --json",
    );
}

#[test]
fn router_path_deadlock_adaptive_faulted_is_stable() {
    assert_matches_golden(
        "deadlock_adaptive_2_4_5_faulted.txt",
        &cli("deadlock 2 4 5 --router adaptive --fail-links 2 --seed 3"),
    );
}

#[test]
fn router_path_campaign_deterministic_smodk_is_stable() {
    assert_matches_golden(
        "campaign_deterministic_smodk_2_4_5.txt",
        &cli(
            "campaign 2 4 5 --property deterministic --router smodk --mode exhaustive \
             --k 1 --universe tops",
        ),
    );
}

#[test]
fn router_path_simulate_adaptive_is_stable() {
    assert_matches_golden(
        "simulate_adaptive_2_16_4.txt",
        &cli("simulate 2 16 4 --router adaptive --pattern shift:3 --cycles 200 --seed 1"),
    );
}

/// The `--confirm` stall diagnosis: the valley router's baseline CDG cycle
/// replayed in the simulator until the watchdog converts the wedge into a
/// strand-graph report (who holds what, waiting on whom).
#[test]
fn campaign_confirm_stall_diagnosis_is_stable() {
    assert_matches_golden(
        "campaign_confirm_valley.txt",
        &cli(
            "campaign 1 1 4 --property deadlock --router valley --waves 1 --wave-size 2 \
             --links 1 --switches 0 --confirm",
        ),
    );
}

/// A `--json` golden that must also parse. Every `--json` golden goes
/// through here.
fn assert_json_matches_golden(name: &str, args: &str) {
    let out = cli(args);
    Json::parse(&out).unwrap_or_else(|e| panic!("`ftclos {args}` is not JSON ({e}): {out}"));
    assert_matches_golden(name, &out);
}

/// The full deadlock roster in JSON, valley's witness cycle included.
#[test]
fn deadlock_sweep_json_is_stable() {
    assert_json_matches_golden("deadlock_2_4_5.json", "deadlock 2 4 5 --json");
}

/// Churn epochs of the deadlock check in JSON: one verdict per fault epoch.
#[test]
fn deadlock_churn_json_is_stable() {
    assert_json_matches_golden(
        "deadlock_dmodk_2_4_3_churn.json",
        "deadlock 2 4 3 --router dmodk --churn-links 2 --mtbf 200 --mttr 60 \
         --churn-cycles 800 --json",
    );
}

/// The exhaustive k-fault-tolerance certificate in JSON.
#[test]
fn campaign_exhaustive_json_is_stable() {
    assert_json_matches_golden(
        "campaign_exhaustive_2_4_5.json",
        "campaign 2 4 5 --mode exhaustive --k 2 --json",
    );
}

/// The `--confirm` strand graph in JSON.
#[test]
fn campaign_confirm_stall_diagnosis_json_is_stable() {
    assert_json_matches_golden(
        "campaign_confirm_valley.json",
        "campaign 1 1 4 --property deadlock --router valley --confirm --json",
    );
}

/// Churn epochs of the min-congestion head-to-head in JSON.
#[test]
fn congestion_churn_json_is_stable() {
    assert_json_matches_golden(
        "congestion_2_4_5_churn.json",
        "congestion 2 4 5 --churn-links 2 --churn-cycles 800 --seed 5 --json",
    );
}

/// A seed is a `u64`, and a report prints it digit for digit: through an
/// f64 the largest one would read `18446744073709552000`.
#[test]
fn json_reports_print_the_largest_seed_exactly() {
    for args in [
        "congestion 2 4 5 --pattern random --seed 18446744073709551615 --json",
        "campaign 2 4 5 --waves 1 --wave-size 2 --seed 18446744073709551615 --json",
    ] {
        let out = cli(args);
        Json::parse(&out).unwrap_or_else(|e| panic!("`ftclos {args}` is not JSON ({e}): {out}"));
        assert!(
            out.contains("\"seed\":18446744073709551615,"),
            "`ftclos {args}`: {out}"
        );
    }
}
