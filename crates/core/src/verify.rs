//! Lemma 1 verification machinery.
//!
//! Lemma 1: *for any single-path deterministic routing, `ftree(n+m, r)` is
//! nonblocking **iff** each link carries traffic either from one source or
//! to one destination.* The audit below routes **all** `r(r-1)n²`
//! cross-switch SD pairs and checks exactly that predicate per directed
//! channel — a complete, exact decision procedure for nonblocking-ness
//! under deterministic routing.
//!
//! Two implementations coexist, deliberately:
//!
//! * the **streaming path** ([`crate::engine::lemma1_audit_with`]) folds
//!   every pair's path into per-thread two-word-per-channel censuses and
//!   merges them, storing no path — this is what the public entry points
//!   ([`is_nonblocking_deterministic`], [`nonblocking_verdict`]) use;
//! * the **legacy path** ([`LinkAudit`], [`find_contention`],
//!   [`nonblocking_verdict_legacy`]) keeps the original `HashMap`-based
//!   audit verbatim as a differential oracle — the proptests in
//!   `tests/engine_differential.rs` pin both sides to identical verdicts.

use crate::engine::{first_violating_channel, lemma1_audit};
use ftclos_routing::{RouteAssignment, SinglePathRouter};
use ftclos_topo::{ChannelId, Topology};
use ftclos_traffic::SdPair;
use std::collections::HashMap;

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

/// Find two pairs of `assignment` sharing a channel, if any.
///
/// One-shot reference implementation (hashes every channel). Hot loops that
/// check many assignments should reuse a
/// [`crate::engine::ContentionScratch`] instead — same contract, dense
/// epoch-stamped tables, zero per-call allocation.
pub fn find_contention(assignment: &RouteAssignment) -> Option<ContentionWitness> {
    let mut owner: HashMap<ChannelId, SdPair> = HashMap::new();
    for (pair, path) in assignment.routes() {
        for &c in path.channels() {
            match owner.insert(c, *pair) {
                None => {}
                Some(prev) => {
                    return Some(ContentionWitness {
                        channel: c,
                        a: prev,
                        b: *pair,
                    })
                }
            }
        }
    }
    None
}

/// Per-channel source/destination census under a routing function.
///
/// This is the legacy `HashMap`-backed audit, retained verbatim as the
/// differential oracle for the arena/census engine (and for callers that
/// want the *full* distinct source/destination lists per channel, which the
/// saturating engine census does not keep).
///
/// ```
/// use ftclos_core::verify::{is_nonblocking_deterministic, LinkAudit};
/// use ftclos_routing::{DModK, YuanDeterministic};
/// use ftclos_topo::Ftree;
///
/// let nb = Ftree::new(2, 4, 5).unwrap();
/// assert!(is_nonblocking_deterministic(&YuanDeterministic::new(&nb).unwrap()));
///
/// let small = Ftree::new(2, 2, 5).unwrap(); // m < n²: must block
/// assert!(!is_nonblocking_deterministic(&DModK::new(&small)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct LinkAudit {
    /// channel → (distinct sources, distinct destinations) routed over it.
    per_channel: HashMap<ChannelId, (Vec<u32>, Vec<u32>)>,
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

impl LinkAudit {
    /// Route every ordered pair of distinct leaves and record, per channel,
    /// the distinct sources and destinations crossing it.
    pub fn build<R: SinglePathRouter + ?Sized>(router: &R) -> Self {
        let ports = router.ports();
        let mut per_channel: HashMap<ChannelId, (Vec<u32>, Vec<u32>)> = HashMap::new();
        for s in 0..ports {
            for d in 0..ports {
                if s == d {
                    continue;
                }
                let path = router.route(SdPair::new(s, d));
                for &c in path.channels() {
                    let entry = per_channel.entry(c).or_default();
                    if !entry.0.contains(&s) {
                        entry.0.push(s);
                    }
                    if !entry.1.contains(&d) {
                        entry.1.push(d);
                    }
                }
            }
        }
        Self { per_channel }
    }

    /// Number of channels that carry any traffic.
    pub fn used_channels(&self) -> usize {
        self.per_channel.len()
    }

    /// `(sources, destinations)` recorded for a channel.
    pub fn channel_census(&self, c: ChannelId) -> Option<(&[u32], &[u32])> {
        self.per_channel
            .get(&c)
            .map(|(s, d)| (s.as_slice(), d.as_slice()))
    }

    /// The Lemma 1 predicate: every channel has one source or one
    /// destination. Returns the first violation with a two-pair witness.
    ///
    /// Witness construction mirrors the paper's necessity proof: a channel
    /// with ≥2 sources and ≥2 destinations admits pairs `(s1, d1)`,
    /// `(s2, d2)` with `s1 != s2`, `d1 != d2` routed over it.
    pub fn lemma1_check<R: SinglePathRouter + ?Sized>(
        &self,
        router: &R,
    ) -> Result<(), LinkViolation> {
        for (&c, (sources, dests)) in &self.per_channel {
            if sources.len() < 2 || dests.len() < 2 {
                continue;
            }
            // Find (s1, d1), (s2, d2) crossing c with s1 != s2, d1 != d2.
            // Both endpoints vary on c, so such a combination exists among
            // the recorded pairs; re-derive which (s, d) combos actually
            // use c.
            let mut crossing: Vec<(u32, u32)> = Vec::new();
            for &s in sources {
                for &d in dests {
                    if s == d {
                        continue;
                    }
                    if router.route(SdPair::new(s, d)).channels().contains(&c) {
                        crossing.push((s, d));
                    }
                }
            }
            for (i, &(s1, d1)) in crossing.iter().enumerate() {
                for &(s2, d2) in &crossing[i + 1..] {
                    if s1 != s2 && d1 != d2 {
                        return Err(LinkViolation {
                            channel: c,
                            sources: [s1, s2],
                            destinations: [d1, d2],
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

/// Convenience: is `router` nonblocking per Lemma 1? (Exact, complete.)
///
/// Streaming: one parallel census sweep over every pair (see
/// [`crate::engine::lemma1_audit_with`]), no stored paths, no witness pass.
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
/// permutation. [`nonblocking_verdict_legacy`] keeps the original
/// `HashMap` audit for differential pinning.
pub fn nonblocking_verdict<R: SinglePathRouter + Sync + ?Sized>(router: &R) -> NonblockingVerdict {
    let violation = match lemma1_audit(router) {
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

/// The original `HashMap`-audit decision procedure, kept as the
/// differential oracle for [`nonblocking_verdict`].
pub fn nonblocking_verdict_legacy<R: SinglePathRouter + ?Sized>(router: &R) -> NonblockingVerdict {
    match LinkAudit::build(router).lemma1_check(router) {
        Ok(()) => NonblockingVerdict {
            nonblocking: true,
            violation: None,
        },
        Err(v) => NonblockingVerdict {
            nonblocking: false,
            violation: Some(v),
        },
    }
}

/// Per-pattern exact check: does `assignment` route its pairs with zero
/// channel sharing? (The fluid model's "all flows at rate 1.0" must agree
/// with this on every pattern — the differential invariant.)
pub fn pattern_contention_free(assignment: &RouteAssignment) -> bool {
    find_contention(assignment).is_none()
}

/// Assert the stronger per-direction structure of the Theorem 3 routing on
/// a topology: every channel leaving a leaf or bottom switch (uplink) has a
/// single source; every channel entering a leaf or bottom switch (downlink)
/// has a single destination. Returns offending channel if any.
pub fn updown_discipline<R: SinglePathRouter + ?Sized>(
    router: &R,
    topo: &Topology,
) -> Result<(), ChannelId> {
    let audit = LinkAudit::build(router);
    for (&c, (sources, dests)) in &audit.per_channel {
        let ch = topo.channel(c);
        let src_level = topo.kind(ch.src).level();
        let dst_level = topo.kind(ch.dst).level();
        let going_up = match (src_level, dst_level) {
            (None, _) => true,
            (_, None) => false,
            (Some(a), Some(b)) => b > a,
        };
        if going_up {
            if sources.len() > 1 {
                return Err(c);
            }
        } else if dests.len() > 1 {
            return Err(c);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclos_routing::{route_all, DModK, YuanDeterministic};
    use ftclos_topo::Ftree;
    use ftclos_traffic::Permutation;

    #[test]
    fn yuan_passes_lemma1_exactly() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        assert!(is_nonblocking_deterministic(&router));
        updown_discipline(&router, ft.topology()).unwrap();
    }

    #[test]
    fn dmodk_fails_lemma1_with_witness() {
        let ft = Ftree::new(2, 2, 5).unwrap();
        let router = DModK::new(&ft);
        let audit = LinkAudit::build(&router);
        let violation = audit.lemma1_check(&router).unwrap_err();
        // The witness is a valid blocking two-pair permutation.
        let perm = Permutation::from_pairs(
            10,
            [
                SdPair::new(violation.sources[0], violation.destinations[0]),
                SdPair::new(violation.sources[1], violation.destinations[1]),
            ],
        )
        .unwrap();
        let a = route_all(&router, &perm).unwrap();
        assert!(a.max_channel_load() >= 2, "witness must actually block");
    }

    #[test]
    fn contention_detection() {
        let ft = Ftree::new(2, 2, 5).unwrap();
        let router = DModK::new(&ft);
        // Both target residue 0 tops from switch 0.
        let perm = Permutation::from_pairs(10, [SdPair::new(0, 4), SdPair::new(1, 6)]).unwrap();
        let a = route_all(&router, &perm).unwrap();
        let w = find_contention(&a).expect("contention expected");
        assert_ne!(w.a, w.b);
        // And a clean assignment yields none.
        let ft2 = Ftree::new(2, 4, 5).unwrap();
        let yuan = YuanDeterministic::new(&ft2).unwrap();
        let a2 = route_all(&yuan, &perm).unwrap();
        assert!(find_contention(&a2).is_none());
    }

    #[test]
    fn audit_census_counts() {
        let ft = Ftree::new(2, 4, 3).unwrap();
        let router = YuanDeterministic::new(&ft).unwrap();
        let audit = LinkAudit::build(&router);
        // Fig. 3: uplink v -> (i,j) carries r-1 pairs from ONE source to
        // r-1 destinations.
        let up = ft.up_channel(0, 0); // v=0, top (0,0)
        let (srcs, dsts) = audit.channel_census(up).unwrap();
        assert_eq!(srcs, &[0]); // source (0,0) = leaf 0
        assert_eq!(dsts.len(), 2); // r-1 = 2 destinations (w,0), w != 0
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
    fn engine_and_legacy_verdicts_agree() {
        for (n, m, r) in [(2usize, 4usize, 5usize), (2, 2, 5), (2, 3, 4), (3, 9, 7)] {
            let ft = Ftree::new(n, m, r).unwrap();
            let router = DModK::new(&ft);
            let fast = nonblocking_verdict(&router);
            let slow = nonblocking_verdict_legacy(&router);
            assert_eq!(fast.nonblocking, slow.nonblocking, "n={n} m={m} r={r}");
            // Both witnesses, when present, are live blocking permutations.
            for v in [&fast, &slow] {
                if let Some([a, b]) = v.witness_pairs() {
                    let perm = Permutation::from_pairs((n * r) as u32, [a, b]).unwrap();
                    let routed = route_all(&router, &perm).unwrap();
                    assert!(routed.max_channel_load() >= 2);
                }
            }
        }
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
}
