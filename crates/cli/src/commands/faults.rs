//! `ftclos faults <n> <m> <r> [--fail-tops K] [--fail-links K] [--seed S]
//! [--samples N] [--max-k K]` — degraded-operation analysis under injected
//! hardware failures.
//!
//! Reports, for the faulted fabric:
//! * how many source-destination pairs the Theorem 3 deterministic routing
//!   loses (its top assignment is pinned, so a dead top strands pairs), and
//!   whether the surviving routes still satisfy Lemma 1;
//! * whether masked oblivious multipath can spread a permutation over the
//!   remaining paths;
//! * the masked NONBLOCKINGADAPTIVE verdict over sampled permutations;
//! * the survivability margin: the largest `k` such that **any** `k`
//!   simultaneous top-switch failures leave the adaptive routing
//!   contention-free.

use super::common::{build_ftree, fabric, make_pattern, FaultFlags};
use crate::opts::{CliError, Opts};
use ftclos_core::{
    adaptive_degraded_verdict, deterministic_degradation, max_survivable_top_failures,
    DegradedVerdict,
};
use ftclos_obs::{Recorder as _, Registry};
use ftclos_routing::{ObliviousMultipath, SpreadPolicy, YuanDeterministic};
use ftclos_topo::FaultyView;
use std::fmt::Write as _;

/// Run the command.
pub fn run(opts: &Opts, rec: &Registry) -> Result<String, CliError> {
    let ft = build_ftree(opts)?;
    let faults = FaultFlags::parse(opts, &ft, 1)?;
    let seed: u64 = opts.flag_or("seed", 0)?;
    let samples: usize = opts.flag_or("samples", 50)?;
    let max_k: usize = opts.flag_or("max-k", 2)?;
    let view = FaultyView::new(ft.topology(), &faults.set);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: failed {} top switch(es), {} random link(s) -> {} dead channel(s)",
        fabric(&ft),
        faults.tops,
        faults.links,
        view.num_dead_channels()
    );

    rec.gauge("faults.dead_channels", view.num_dead_channels() as u64);

    // Theorem 3 deterministic: pinned top assignment, so it cannot route
    // around anything — count what it loses.
    let det_span = rec.span("faults.deterministic");
    match YuanDeterministic::new(&ft).and_then(|router| deterministic_degradation(&router, &view)) {
        Ok(deg) => {
            let _ = writeln!(
                out,
                "yuan deterministic: {}/{} pairs routable ({:.1}% lost), surviving routes {}",
                deg.routable_pairs(),
                deg.total_pairs,
                deg.unroutable_fraction() * 100.0,
                match &deg.lemma1 {
                    Ok(()) => "satisfy Lemma 1".to_string(),
                    Err(v) => format!("VIOLATE Lemma 1 on channel {:?}", v.channel),
                }
            );
        }
        Err(e) => {
            let _ = writeln!(out, "yuan deterministic: unavailable ({e})");
        }
    }
    drop(det_span);

    // Masked oblivious multipath on one permutation.
    let mp_span = rec.span("faults.multipath");
    let ports = ft.num_leaves() as u32;
    let perm = make_pattern("random", ports, seed)?;
    let mp = ObliviousMultipath::new(&ft, SpreadPolicy::RoundRobin);
    match mp.spread_pattern_masked(&perm, &view) {
        Ok(a) => {
            let _ = writeln!(
                out,
                "masked multipath:   random permutation spread over live paths ({} flows)",
                a.entries().len()
            );
        }
        Err(e) => {
            let _ = writeln!(out, "masked multipath:   {e}");
        }
    }
    drop(mp_span);

    // Masked adaptive verdict under the injected faults.
    let ad_span = rec.span("faults.adaptive");
    match adaptive_degraded_verdict(&ft, &view, samples, seed) {
        Ok(v) => {
            let _ = writeln!(out, "masked adaptive:    {}", describe_verdict(&v));
        }
        Err(e) => {
            let _ = writeln!(out, "masked adaptive:    unavailable ({e})");
        }
    }
    drop(ad_span);

    // Survivability margin over top-switch failures (independent of the
    // injected fault set: sweeps its own subsets).
    if max_k > 0 {
        let _s = rec.span("faults.survivability");
        match max_survivable_top_failures(&ft, max_k, samples, 64, seed) {
            Ok(report) => {
                let _ = writeln!(out, "survivability:      max k = {}", report.max_k);
                for level in &report.levels {
                    let mut line = format!(
                        "  k={}: {} ({} subset(s){})",
                        level.k,
                        describe_verdict(&level.verdict),
                        level.subsets_checked,
                        if level.exhaustive {
                            ", exhaustive"
                        } else {
                            ", sampled"
                        }
                    );
                    if let Some(cx) = &level.counterexample {
                        let _ = write!(line, ", failing tops {cx:?}");
                    }
                    let _ = writeln!(out, "{line}");
                }
            }
            Err(e) => {
                let _ = writeln!(out, "survivability:      unavailable ({e})");
            }
        }
    }
    Ok(out)
}

fn describe_verdict(v: &DegradedVerdict) -> String {
    match v {
        DegradedVerdict::ContentionFree {
            permutations,
            exhaustive,
        } => format!(
            "CONTENTION-FREE over {permutations} {} permutation(s)",
            if *exhaustive { "(all)" } else { "sampled" }
        ),
        DegradedVerdict::Unroutable { src, dst } => {
            format!("UNROUTABLE pair {src} -> {dst} (no live path exists)")
        }
        DegradedVerdict::PlanExhausted { needed, available } => {
            format!("PLAN EXHAUSTED (needed {needed} tops, fabric has {available})")
        }
        DegradedVerdict::Contention { pairs } => {
            format!("CONTENTION on a permutation of {} pairs", pairs.len())
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
    fn spare_fabric_survives_single_top_failure() {
        // ftree(3+12, 9) has a spare partition: config 1 absorbs any single
        // dead top, and the survivability sweep proves max k >= 1.
        let reg = Registry::new();
        let out = run(&argv("3 12 9 --fail-tops 1 --samples 10 --max-k 1"), &reg).unwrap();
        assert!(out.contains("masked adaptive:    CONTENTION-FREE"), "{out}");
        assert!(out.contains("max k = 1"), "{out}");
        // Yuan's pinned assignment loses r(r-1) = 72 pairs to the dead top.
        assert!(out.contains("pairs routable"), "{out}");
        assert!(out.contains("satisfy Lemma 1"), "{out}");
        // Every analysis phase shows up as a span.
        let snap = reg.snapshot();
        for phase in [
            "faults.deterministic",
            "faults.multipath",
            "faults.adaptive",
            "faults.survivability",
        ] {
            assert!(
                snap.spans.iter().any(|s| s.path == phase),
                "missing {phase}"
            );
        }
    }

    #[test]
    fn yuan_reports_lost_pairs() {
        let out = run(
            &argv("2 4 5 --fail-tops 1 --samples 5 --max-k 0"),
            &Registry::new(),
        )
        .unwrap();
        // r(r-1) = 20 of the 90 cross pairs ride top 0.
        assert!(out.contains("70/90 pairs routable"), "{out}");
    }

    #[test]
    fn too_many_tops_rejected() {
        assert!(run(&argv("2 4 5 --fail-tops 99"), &Registry::new()).is_err());
    }
}
