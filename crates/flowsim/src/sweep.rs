//! Batch solving: run a routing's fluid model over a suite of named
//! patterns, producing one [`FluidReport`] per pattern.

use crate::flows::{FlowError, FlowSet};
use crate::report::FluidReport;
use crate::waterfill::{waterfill_with, Recorder};
use ftclos_routing::LinkLoadView;
use ftclos_topo::ChannelCapacities;
use ftclos_traffic::{patterns, Permutation};

/// Expand, solve, and summarize one named pattern through `view`. Flow
/// expansion records under span `flowsim.expand`, the solve under
/// `flowsim.waterfill` (see [`waterfill_with`] for its counters).
///
/// # Errors
/// [`FlowError`] when `view` cannot expand `perm` into flows.
pub fn solve_pattern_with<V: LinkLoadView + ?Sized, R: Recorder>(
    view: &V,
    pattern_name: &str,
    perm: &Permutation,
    caps: &ChannelCapacities,
    rec: &R,
) -> Result<FluidReport, FlowError> {
    let set = {
        let _span = rec.span("flowsim.expand");
        FlowSet::from_view(view, perm, caps.len())?
    };
    let alloc = waterfill_with(&set, caps, rec);
    Ok(FluidReport::new(
        view.name(),
        pattern_name,
        view.ports(),
        &set,
        &alloc,
    ))
}

/// Solve a whole suite of `(name, permutation)` patterns through `view`,
/// one report per pattern in input order, under one `flowsim.sweep` span.
/// Each result carries its own error, so one unroutable pattern doesn't
/// sink the batch. Patterns solve *sequentially*: span timers nest
/// lexically on one thread, so the sweep keeps an accurate per-phase
/// profile (counters would survive parallelism; the span tree would not).
pub fn sweep_patterns_with<V: LinkLoadView + ?Sized, R: Recorder>(
    view: &V,
    suite: &[(String, Permutation)],
    caps: &ChannelCapacities,
    rec: &R,
) -> Vec<Result<FluidReport, FlowError>> {
    let _span = rec.span("flowsim.sweep");
    suite
        .iter()
        .map(|(name, perm)| solve_pattern_with(view, name, perm, caps, rec))
        .collect()
}

/// The standard adversarial pattern suite for `ports` hosts: identity,
/// shifts, tornado, plus the structured patterns that exist at this size
/// (neighbor needs even `ports`; bit reversal/complement need a power of
/// two; transpose needs a perfect square).
pub fn standard_suite(ports: u32) -> Vec<(String, Permutation)> {
    let mut suite = vec![("identity".to_string(), patterns::identity(ports))];
    let half = (ports / 2).max(1);
    for k in [1, half] {
        if k < ports && !suite.iter().any(|(n, _)| n == &format!("shift:{k}")) {
            suite.push((format!("shift:{k}"), patterns::shift(ports, k)));
        }
    }
    suite.push(("tornado".to_string(), patterns::tornado(ports)));
    if let Ok(p) = patterns::neighbor(ports) {
        suite.push(("neighbor".to_string(), p));
    }
    if let Ok(p) = patterns::bit_reversal(ports) {
        suite.push(("bit-reversal".to_string(), p));
    }
    if let Ok(p) = patterns::bit_complement(ports) {
        suite.push(("bit-complement".to_string(), p));
    }
    let side = (ports as f64).sqrt().round() as u32;
    if side > 1 && side * side == ports {
        suite.push(("transpose".to_string(), patterns::transpose(side, side)));
    }
    suite
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waterfill::Noop;
    use ftclos_routing::{DModK, YuanDeterministic};
    use ftclos_topo::Ftree;

    #[test]
    fn suite_adapts_to_port_count() {
        let s10 = standard_suite(10);
        let names: Vec<&str> = s10.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"identity"));
        assert!(names.contains(&"shift:1"));
        assert!(names.contains(&"shift:5"));
        assert!(names.contains(&"tornado"));
        assert!(names.contains(&"neighbor"), "10 is even");
        assert!(!names.contains(&"bit-reversal"), "10 is not a power of two");
        let s16 = standard_suite(16);
        let names16: Vec<&str> = s16.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names16.contains(&"bit-reversal"));
        assert!(names16.contains(&"bit-complement"));
        assert!(names16.contains(&"transpose"), "16 = 4x4");
        // Every pattern in the suite covers the full universe.
        for (name, p) in &s16 {
            assert_eq!(p.ports(), 16, "{name}");
        }
    }

    #[test]
    fn nonblocking_fabric_sweeps_clean() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let yuan = YuanDeterministic::new(&ft).unwrap();
        let caps = ChannelCapacities::unit(ft.topology());
        let suite = standard_suite(10);
        let reports = sweep_patterns_with(&yuan, &suite, &caps, &Noop);
        assert_eq!(reports.len(), suite.len());
        for r in reports {
            let r = r.expect("routable");
            assert!(r.all_unit_rate, "{}: m = n^2 Yuan delivers all", r.pattern);
            assert_eq!(r.worst_rate, 1.0);
        }
    }

    #[test]
    fn undersized_fabric_shows_degradation_somewhere() {
        use ftclos_traffic::{Permutation, SdPair};
        let ft = Ftree::new(4, 4, 5).unwrap(); // m = n < n^2: blocking
        let router = DModK::new(&ft);
        let caps = ChannelCapacities::unit(ft.topology());
        // d-mod-k routes the whole standard suite cleanly (shift-family
        // destinations spread evenly mod m), so append a residue-colliding
        // pattern: four sources in leaf 0 all target destinations ≡ 0
        // mod 4 in other leaves, contending for one uplink.
        let mut suite = standard_suite(20);
        let collide = Permutation::from_pairs(
            20,
            [
                SdPair::new(0, 4),
                SdPair::new(1, 8),
                SdPair::new(2, 12),
                SdPair::new(3, 16),
            ],
        )
        .unwrap();
        suite.push(("mod-collision".to_string(), collide));
        let reports: Vec<FluidReport> = sweep_patterns_with(&router, &suite, &caps, &Noop)
            .into_iter()
            .map(|r| r.expect("routable"))
            .collect();
        let bad = reports
            .iter()
            .find(|r| r.pattern == "mod-collision")
            .unwrap();
        assert!(!bad.all_unit_rate, "m = n must block the mod collision");
        assert!((bad.worst_rate - 0.25).abs() < 1e-9, "four flows, one link");
        // Identity never contends.
        let id = reports.iter().find(|r| r.pattern == "identity").unwrap();
        assert!(id.all_unit_rate);
    }
}
