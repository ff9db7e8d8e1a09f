//! Determinism across thread counts: blocking witnesses and fluid rates
//! must be byte-identical no matter how the parallel sweeps are scheduled.
//! The engine's first-witness reduction and the waterfill solver both claim
//! schedule-independence; this drives the real binary under
//! `RAYON_NUM_THREADS` 1, 2, and 8 and diffs complete outputs.
//!
//! `vendor/rayon` runs short inputs inline, so the toy fabrics below mostly
//! exercise the plumbing. The `*_on_real_threads` tests use fabrics large
//! enough for the sweeps to split, and read the `par.threads` gauge from the
//! command's trace to prove that they did.

use std::process::Command;

/// Run the `ftclos` binary with a fixed thread count, returning stdout.
fn run_with_threads(args: &[&str], threads: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ftclos"))
        .args(args)
        .env("RAYON_NUM_THREADS", threads)
        .output()
        .expect("spawn ftclos");
    assert!(
        out.status.success(),
        "ftclos {args:?} failed under RAYON_NUM_THREADS={threads}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The same invocation at 1, 2, and 8 threads must emit identical bytes.
fn assert_thread_invariant(args: &[&str]) {
    let baseline = run_with_threads(args, "1");
    for threads in ["2", "8"] {
        let got = run_with_threads(args, threads);
        assert_eq!(
            baseline, got,
            "ftclos {args:?} output depends on RAYON_NUM_THREADS={threads}"
        );
    }
}

/// The `par.threads` gauge of the invocation's trace: how many threads its
/// (last) pair sweep ran on.
fn par_threads_gauge(args: &[&str], threads: &str) -> u64 {
    let trace = std::env::temp_dir().join(format!(
        "ftclos_determinism_trace_{}_{threads}.json",
        std::process::id()
    ));
    let trace_path = trace.to_str().expect("utf-8 temp path");
    let mut traced = args.to_vec();
    traced.extend(["--trace", trace_path]);
    run_with_threads(&traced, threads);
    let json = std::fs::read_to_string(&trace).expect("trace written");
    let _ = std::fs::remove_file(&trace);
    let (_, rest) = json
        .split_once("\"par.threads\":")
        .expect("trace carries the par.threads gauge");
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("gauge value")
}

#[test]
fn deadlock_sweeps_are_invariant_on_real_threads() {
    // 512 ports, 261,632 SD pairs: the sweep splits into as many contiguous
    // source blocks as there are threads, up to eight.
    let free = ["deadlock", "4", "16", "128", "--router", "yuan"];
    for (threads, expected) in [("1", 1), ("2", 2), ("8", 8)] {
        assert_eq!(
            par_threads_gauge(&free, threads),
            expected,
            "RAYON_NUM_THREADS={threads}"
        );
    }
    assert_thread_invariant(&free);
    // The cyclic verdict: 256 cyclic channels and the 256-channel witness.
    assert_thread_invariant(&["deadlock", "4", "16", "128", "--router", "valley", "--json"]);
    // Fault-masked sweeps of the whole roster (multipath branches included).
    assert_thread_invariant(&[
        "deadlock",
        "4",
        "16",
        "64",
        "--fail-tops",
        "1",
        "--fail-links",
        "3",
        "--seed",
        "3",
    ]);
}

#[test]
fn verify_sweep_stays_on_one_thread() {
    // 512 ports, 261,632 SD pairs: large enough for the CDG sweep above to
    // split eight ways, but the Lemma 1 census sweep runs on the calling
    // thread at every RAYON_NUM_THREADS, and its verdict and witness do not
    // move.
    for router in ["yuan", "dmodk", "smodk"] {
        let args = ["verify", "4", "16", "128", "--router", router];
        for threads in ["1", "2", "8"] {
            assert_eq!(
                par_threads_gauge(&args, threads),
                1,
                "{router} at RAYON_NUM_THREADS={threads}"
            );
        }
        assert_thread_invariant(&args);
        let out = run_with_threads(&args, "1");
        let blocked = match router {
            "dmodk" => Some("link c1024"),
            "smodk" => Some("link c1025"),
            _ => None,
        };
        match blocked {
            Some(link) => assert!(out.contains(link), "{router}: {out}"),
            None => assert!(out.contains("NONBLOCKING"), "{router}: {out}"),
        }
    }
}

#[test]
fn campaigns_are_invariant_on_real_threads() {
    // Exhaustive certification runs its partitions on threads at any size;
    // each judgement here is a 65,280-pair masked CDG sweep.
    assert_thread_invariant(&[
        "campaign",
        "4",
        "16",
        "64",
        "--property",
        "deadlock",
        "--router",
        "dmodk",
        "--mode",
        "exhaustive",
        "--k",
        "1",
        "--universe",
        "tops",
    ]);
    // Randomized waves judge on the calling thread; the threads are inside
    // each judgement's sweep.
    assert_thread_invariant(&[
        "campaign",
        "4",
        "16",
        "64",
        "--property",
        "deadlock",
        "--router",
        "dmodk",
        "--waves",
        "2",
        "--wave-size",
        "3",
        "--seed",
        "7",
        "--json",
    ]);
    // The degraded-nonblocking margin fans its permutation samples out.
    assert_thread_invariant(&[
        "campaign",
        "2",
        "4",
        "5",
        "--property",
        "nonblocking",
        "--waves",
        "3",
        "--wave-size",
        "4",
        "--samples",
        "12",
        "--seed",
        "5",
        "--shrink",
    ]);
}

#[test]
fn blocking_witness_is_thread_count_invariant() {
    // d-mod-k on an undersized fabric: the audit must report the *same*
    // violating channel and witness pairs regardless of scan parallelism.
    assert_thread_invariant(&["verify", "2", "2", "5", "--router", "dmodk"]);
}

#[test]
fn nonblocking_verdict_is_thread_count_invariant() {
    assert_thread_invariant(&["verify", "3", "9", "7"]);
}

#[test]
fn fluid_rates_are_thread_count_invariant() {
    // Full adversarial suite, JSON: every per-pattern rate, round count,
    // and utilization decile must match bit-for-bit.
    assert_thread_invariant(&["flowsim", "2", "4", "5", "--json"]);
    assert_thread_invariant(&[
        "flowsim",
        "2",
        "2",
        "5",
        "--router",
        "dmodk",
        "--pattern",
        "random",
        "--seed",
        "3",
        "--json",
    ]);
}

#[test]
fn deadlock_verdicts_are_thread_count_invariant() {
    // The dependency bitmap is a set union (order-independent), so verdicts,
    // dependency counts, and the witness cycle must be byte-identical at any
    // thread count. (At ten ports the sweep itself runs inline; see
    // `deadlock_sweeps_are_invariant_on_real_threads`.)
    assert_thread_invariant(&["deadlock", "2", "4", "5", "--json"]);
    assert_thread_invariant(&["deadlock", "2", "4", "5", "--fail-tops", "1", "--seed", "3"]);
}

#[test]
fn deadlock_witness_and_injection_are_thread_count_invariant() {
    // The valley witness cycle (lowest cyclic channel, minimal length,
    // ascending successor iteration) and the wedge statistics of the pinned
    // injection run are both deterministic.
    assert_thread_invariant(&[
        "deadlock", "1", "1", "4", "--router", "valley", "--inject", "--json",
    ]);
}

#[test]
fn event_engine_reports_are_thread_count_invariant() {
    // The event-driven engine is single-threaded by construction, but its
    // reports ride the same CLI plumbing as everything else; both output
    // forms must be byte-identical at any thread count — and identical to
    // the cycle engine's run, engine tag aside.
    let base = [
        "simulate",
        "2",
        "4",
        "5",
        "--pattern",
        "shift:3",
        "--rate",
        "0.9",
        "--cycles",
        "600",
        "--seed",
        "5",
    ];
    for json in [false, true] {
        let mut event = base.to_vec();
        event.extend(["--engine", "event"]);
        if json {
            event.push("--json");
        }
        assert_thread_invariant(&event);
        let mut cycle = base.to_vec();
        cycle.extend(["--engine", "cycle"]);
        if json {
            cycle.push("--json");
        }
        let cycle_out = run_with_threads(&cycle, "1")
            .replace("\"engine\":\"cycle\"", "\"engine\":\"event\"")
            .replace("(HolFifo)", "(HolFifo, event engine)");
        assert_eq!(
            cycle_out,
            run_with_threads(&event, "1"),
            "engines must agree on the full report"
        );
    }
}

#[test]
fn blocking_sample_fraction_is_thread_count_invariant() {
    assert_thread_invariant(&[
        "blocking",
        "2",
        "2",
        "5",
        "--router",
        "dmodk",
        "--samples",
        "40",
    ]);
}

#[test]
fn campaign_reports_are_thread_count_invariant() {
    // Per-set RNG streams are keyed by (seed, wave, index) alone, so the
    // report — killer order, minimal cores, criticality ranking — is
    // schedule-free.
    assert_thread_invariant(&[
        "campaign",
        "2",
        "4",
        "5",
        "--waves",
        "4",
        "--wave-size",
        "6",
        "--seed",
        "7",
        "--shrink",
        "--json",
    ]);
    // Exhaustive mode must report the lexicographically-first killer no
    // matter which parallel partition finds one first.
    assert_thread_invariant(&[
        "campaign",
        "2",
        "4",
        "5",
        "--mode",
        "exhaustive",
        "--k",
        "2",
        "--universe",
        "mixed",
    ]);
}

#[test]
fn congestion_head_to_head_is_thread_count_invariant() {
    // Greedy order, rounding RNG streams (keyed by seed + trial alone),
    // repair scan order, and the embedded fluid rates are all deterministic;
    // the full head-to-head table must be byte-identical at any thread
    // count, in both output forms.
    assert_thread_invariant(&["congestion", "2", "4", "5", "--json"]);
    assert_thread_invariant(&[
        "congestion",
        "2",
        "2",
        "5",
        "--pattern",
        "random",
        "--seed",
        "3",
    ]);
}

#[test]
fn congestion_faulted_and_churn_reports_are_thread_count_invariant() {
    // Fault-masked candidates plus the per-epoch churn replay: the flap
    // schedule, epoch fault sets, and masked solves are all seed-keyed.
    assert_thread_invariant(&[
        "congestion",
        "2",
        "4",
        "5",
        "--fail-tops",
        "1",
        "--seed",
        "7",
        "--json",
    ]);
    assert_thread_invariant(&[
        "congestion",
        "2",
        "4",
        "5",
        "--churn-links",
        "2",
        "--churn-cycles",
        "800",
        "--seed",
        "5",
    ]);
}

#[test]
fn campaign_checkpoint_resume_matches_uninterrupted_at_any_thread_count() {
    // Halting after 2 of 4 waves, then resuming from the checkpoint file,
    // must reproduce the uninterrupted report byte-for-byte — and the
    // uninterrupted report itself must not depend on the thread count.
    let base = [
        "campaign",
        "2",
        "4",
        "5",
        "--waves",
        "4",
        "--wave-size",
        "6",
        "--links",
        "2",
        "--switches",
        "1",
        "--seed",
        "11",
        "--shrink",
    ];
    let reference = run_with_threads(&base, "1");
    for threads in ["1", "2", "8"] {
        assert_eq!(
            reference,
            run_with_threads(&base, threads),
            "uninterrupted campaign diverged at {threads} threads"
        );
        let ckpt = std::env::temp_dir().join(format!("ftclos_campaign_ckpt_{threads}.txt"));
        let ckpt = ckpt.to_str().expect("utf-8 temp path");
        let _ = std::fs::remove_file(ckpt);
        let mut halted = base.to_vec();
        halted.extend(["--checkpoint", ckpt, "--halt-after", "2"]);
        let partial = run_with_threads(&halted, threads);
        assert_ne!(reference, partial, "halt-after must stop early");
        let mut resumed = base.to_vec();
        resumed.extend(["--checkpoint", ckpt, "--resume"]);
        assert_eq!(
            reference,
            run_with_threads(&resumed, threads),
            "checkpoint resume diverged at {threads} threads"
        );
        let _ = std::fs::remove_file(ckpt);
    }
}
