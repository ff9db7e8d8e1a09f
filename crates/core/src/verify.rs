//! Lemma 1 verification machinery.
//!
//! Lemma 1: *for any single-path deterministic routing, `ftree(n+m, r)` is
//! nonblocking **iff** each link carries traffic either from one source or
//! to one destination.* The audit below routes **all** `r(r-1)n²`
//! cross-switch SD pairs and checks exactly that predicate per directed
//! channel — a complete, exact decision procedure for nonblocking-ness
//! under deterministic routing.
//!
//! Every check here takes one [`LinkCensus`]: counted from the router's
//! top-choice rule when it declares one, else folded from every pair's path
//! without storing any (see [`crate::engine::lemma1_audit_with`]). A
//! violation is the lowest violating channel with the witness of
//! [`crate::engine`]'s one witness rule. The original `HashMap` audits live
//! on as differential oracles in `tests/oracle`, where
//! `tests/engine_differential.rs` pins these checks to them.

use crate::engine::{
    first_violating_channel, lemma1_audit_with, lemma1_census, lemma1_witness, ContentionScratch,
    LinkCensus,
};
use ftclos_routing::{MultipathAssignment, RouteAssignment, RoutingError, SinglePathRouter};
use ftclos_topo::{ChannelId, Topology};
use ftclos_traffic::SdPair;

/// Two routed SD pairs meeting on one channel — the paper's *network
/// contention*.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContentionWitness {
    /// The shared channel.
    pub channel: ChannelId,
    /// First pair.
    pub a: SdPair,
    /// Second pair.
    pub b: SdPair,
}

/// A channel violating Lemma 1's predicate: it carries ≥2 sources **and**
/// ≥2 destinations, so some permutation contends on it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkViolation {
    /// The offending channel.
    pub channel: ChannelId,
    /// Two distinct sources using the channel.
    pub sources: [u32; 2],
    /// Two distinct destinations reached over the channel, chosen so that
    /// `(sources[0], destinations[0])` and `(sources[1], destinations[1])`
    /// are simultaneous-routable (a valid two-pair permutation witness).
    pub destinations: [u32; 2],
}

/// Convenience: is `router` nonblocking per Lemma 1? (Exact, complete.)
///
/// The decision half of [`crate::engine::lemma1_audit_with`], no stored
/// paths and no witness: counted from the router's top-choice rule when it
/// declares one, else one census sweep over every pair on the calling
/// thread.
///
/// ```
/// use ftclos_core::verify::is_nonblocking_deterministic;
/// use ftclos_routing::{DModK, YuanDeterministic};
/// use ftclos_topo::Ftree;
///
/// let nb = Ftree::new(2, 4, 5).unwrap();
/// assert!(is_nonblocking_deterministic(&YuanDeterministic::new(&nb).unwrap()));
///
/// let small = Ftree::new(2, 2, 5).unwrap(); // m < n²: must block
/// assert!(!is_nonblocking_deterministic(&DModK::new(&small)));
/// ```
pub fn is_nonblocking_deterministic<R: SinglePathRouter + Sync + ?Sized>(router: &R) -> bool {
    // A router whose `ports()` disagrees with its routable universe cannot
    // serve all pairs — not nonblocking under any reading.
    matches!(first_violating_channel(router, &ftclos_obs::Noop), Ok(None))
}

/// The exact checker's verdict packaged for differential tests against
/// other subsystems (the fluid flow-rate simulator compares its "every
/// flow reaches rate 1.0 on every pattern" fixed point against this).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NonblockingVerdict {
    /// Lemma 1 holds: no permutation contends under the routing.
    pub nonblocking: bool,
    /// When blocking, a two-pair witness permutation that contends.
    pub violation: Option<LinkViolation>,
}

impl NonblockingVerdict {
    /// The blocking witness as a pair of SD pairs, if any.
    pub fn witness_pairs(&self) -> Option<[SdPair; 2]> {
        self.violation.as_ref().map(|v| {
            [
                SdPair::new(v.sources[0], v.destinations[0]),
                SdPair::new(v.sources[1], v.destinations[1]),
            ]
        })
    }
}

/// Run the complete Lemma 1 decision procedure and package the outcome.
///
/// Streaming (see [`crate::engine::lemma1_audit_with`]); the packaged
/// witness, when present, is the lowest-id violating channel's two-pair
/// permutation.
pub fn nonblocking_verdict<R: SinglePathRouter + Sync + ?Sized>(router: &R) -> NonblockingVerdict {
    let violation = match lemma1_audit_with(router, &ftclos_obs::Noop) {
        Ok(violation) => violation,
        Err(_) => {
            return NonblockingVerdict {
                nonblocking: false,
                violation: None,
            }
        }
    };
    NonblockingVerdict {
        nonblocking: violation.is_none(),
        violation,
    }
}

/// Per-pattern exact check: does `assignment` route its pairs with zero
/// channel sharing? (The fluid model's "all flows at rate 1.0" must agree
/// with this on every pattern — the differential invariant.)
pub fn pattern_contention_free(assignment: &RouteAssignment) -> bool {
    ContentionScratch::default()
        .find_contention(assignment)
        .is_none()
}

/// Section IV.B's test, Lemma 1 over candidate-path unions: a channel in
/// the candidate sets of two pairs with different sources **and** different
/// destinations, which an adversarial packet timing routes both pairs onto
/// at once. The lowest such channel, with the witness rule fed the pairs
/// whose candidates cross it in entry order; `None` when the spread pattern
/// cannot block.
pub fn multipath_violation(assignment: &MultipathAssignment) -> Option<LinkViolation> {
    let mut census = LinkCensus::default();
    for (pair, paths) in assignment.entries() {
        for &c in paths.iter().flat_map(|p| p.channels()) {
            census.record(c, pair.src, pair.dst);
        }
    }
    let channel = census.first_violation()?;
    let crossing = assignment
        .entries()
        .iter()
        .filter(|(_, paths)| paths.iter().any(|p| p.channels().contains(&channel)))
        .map(|(pair, _)| *pair);
    lemma1_witness(channel, crossing)
}

/// Check the stronger per-direction structure of the Theorem 3 routing on
/// a topology: every channel leaving a leaf or bottom switch (uplink) has a
/// single source; every channel entering a leaf or bottom switch (downlink)
/// has a single destination. Returns the lowest offending channel, if any.
///
/// # Errors
/// As [`crate::engine::lemma1_census`].
pub fn updown_discipline<R: SinglePathRouter + Sync + ?Sized>(
    router: &R,
    topo: &Topology,
) -> Result<Option<ChannelId>, RoutingError> {
    let census = lemma1_census(router)?;
    Ok((0..topo.num_channels())
        .map(|c| ChannelId(c as u32))
        .find(|&c| {
            let ch = topo.channel(c);
            let going_up = match (topo.kind(ch.src).level(), topo.kind(ch.dst).level()) {
                (None, _) => true,
                (_, None) => false,
                (Some(a), Some(b)) => b > a,
            };
            if going_up {
                census.num_sources(c) > 1
            } else {
                census.num_destinations(c) > 1
            }
        }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclos_routing::{route_all, DModK, ObliviousMultipath, YuanDeterministic};
    use ftclos_topo::Ftree;
    use ftclos_traffic::Permutation;

    #[test]
    fn yuan_passes_lemma1_exactly() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        assert!(is_nonblocking_deterministic(&router));
        assert_eq!(updown_discipline(&router, ft.topology()), Ok(None));
    }

    #[test]
    fn verdict_packages_a_live_witness() {
        let ft = Ftree::new(2, 2, 5).unwrap();
        let router = DModK::new(&ft);
        let v = nonblocking_verdict(&router);
        assert!(!v.nonblocking);
        let [a, b] = v.witness_pairs().unwrap();
        let perm = Permutation::from_pairs(10, [a, b]).unwrap();
        let assignment = route_all(&router, &perm).unwrap();
        assert!(!pattern_contention_free(&assignment));

        let roomy = Ftree::new(2, 4, 5).unwrap();
        let yuan = YuanDeterministic::new(&roomy).unwrap();
        let v = nonblocking_verdict(&yuan);
        assert!(v.nonblocking && v.witness_pairs().is_none());
    }

    #[test]
    fn theorem2_small_m_always_blocks() {
        // For every m < n^2 = 4, d-mod-k (and in fact ANY single-path
        // deterministic routing, per Theorem 2 — we test the ones we have)
        // violates Lemma 1 on ftree(2+m, 5).
        for m in 1..4usize {
            let ft = Ftree::new(2, m, 5).unwrap();
            let router = DModK::new(&ft);
            assert!(
                !is_nonblocking_deterministic(&router),
                "m = {m} should block"
            );
        }
    }
    #[test]
    fn union_violation_always_exists_for_same_switch_sources() {
        // Two cross-switch pairs from one switch: candidate sets share every
        // uplink of the source switch -> violation regardless of m.
        let ft = Ftree::new(2, 100, 5).unwrap();
        let r = ObliviousMultipath::new(&ft);
        let perm = Permutation::from_pairs(10, [SdPair::new(0, 4), SdPair::new(1, 6)]).unwrap();
        let a = r.spread_pattern(&perm).unwrap();
        let v = multipath_violation(&a).expect("must find witness");
        assert_ne!(v.sources[0], v.sources[1]);
        assert_ne!(v.destinations[0], v.destinations[1]);
        // The witness channel is an uplink out of bottom switch 0.
        let ch = ft.topology().channel(v.channel);
        assert_eq!(ch.src, ft.bottom(0));
    }

    #[test]
    fn no_violation_for_disjoint_pairs() {
        let ft = Ftree::new(2, 2, 5).unwrap();
        let r = ObliviousMultipath::new(&ft);
        // Same destination switch but same destination is impossible in a
        // permutation; pick fully disjoint switches with distinct tops...
        // With spreading over all tops, cross-switch pairs from different
        // sources to different dest switches still share top->dst? No:
        // downlinks differ by dest switch; uplinks differ by source switch.
        let perm = Permutation::from_pairs(10, [SdPair::new(0, 4), SdPair::new(6, 8)]).unwrap();
        let a = r.spread_pattern(&perm).unwrap();
        assert!(multipath_violation(&a).is_none());
    }
}
