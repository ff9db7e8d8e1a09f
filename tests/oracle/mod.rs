//! The `HashMap` forms of Lemma 1, kept as differential oracles for the
//! census in `ftclos_core::engine`, which is the only production form.
//!
//! Each is the code production ran before the census replaced it:
//! `LinkAudit` (per-channel source and destination lists),
//! `find_contention` (per pattern), `nonblocking_verdict_legacy`,
//! `find_blocking_two_pair_legacy` (every two-pair pattern routed) and
//! `deterministic_degradation_legacy` (survivors under a fault mask). A
//! `HashMap` iterates in no fixed order, so where an oracle reports a
//! channel, compare witnesses by validity, not identity.

#![allow(dead_code)]

use ftclos::core::degraded::DeterministicDegradation;
use ftclos::core::search::TwoPairOutcome;
use ftclos::core::verify::{ContentionWitness, LinkViolation, NonblockingVerdict};
use ftclos::routing::{route_all, RouteAssignment, SinglePathRouter};
use ftclos::topo::{ChannelId, FaultError, FaultyView};
use ftclos::traffic::enumerate::TwoPairs;
use ftclos::traffic::SdPair;
use std::collections::HashMap;

/// Find two pairs of `assignment` sharing a channel, if any.
///
/// One-shot reference implementation (hashes every channel), the oracle for
/// `ContentionScratch::find_contention`: same contract, dense epoch-stamped
/// tables there.
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
/// The original `HashMap`-backed audit, the differential oracle for the
/// census (it keeps the *full* distinct source/destination lists per
/// channel, which the saturating census does not).
#[derive(Clone, Debug, Default)]
pub struct LinkAudit {
    /// channel → (distinct sources, distinct destinations) routed over it.
    per_channel: HashMap<ChannelId, (Vec<u32>, Vec<u32>)>,
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

/// The original `HashMap`-audit decision procedure, the differential oracle
/// for `nonblocking_verdict`.
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

/// The original `O(ports⁴)` route-everything two-pair sweep, the
/// differential oracle for `find_blocking_two_pair`. Same typed outcome;
/// routing errors are reported instead of silently reading as
/// "nonblocking".
pub fn find_blocking_two_pair_legacy<R: SinglePathRouter + ?Sized>(router: &R) -> TwoPairOutcome {
    let ports = router.ports();
    for perm in TwoPairs::new(ports, true) {
        let a = match route_all(router, &perm) {
            Ok(a) => a,
            Err(e) => return TwoPairOutcome::RoutingFailed(e),
        };
        if find_contention(&a).is_some() {
            return TwoPairOutcome::Blocking(perm);
        }
    }
    TwoPairOutcome::Exhausted {
        paths_covered: (ports as usize) * (ports as usize).saturating_sub(1),
    }
}

/// The original `HashMap`-census degradation audit, the differential oracle
/// for `deterministic_degradation`.
pub fn deterministic_degradation_legacy<R: SinglePathRouter + ?Sized>(
    router: &R,
    view: &FaultyView<'_>,
) -> DeterministicDegradation {
    let ports = router.ports();
    let mut unroutable = Vec::new();
    let mut census: HashMap<ChannelId, Vec<(u32, u32)>> = HashMap::new();
    let mut total_pairs = 0usize;
    for s in 0..ports {
        for d in 0..ports {
            if s == d {
                continue;
            }
            total_pairs += 1;
            let path = router.route(SdPair::new(s, d));
            match view.path_alive(path.channels()) {
                Ok(()) => {
                    for &c in path.channels() {
                        census.entry(c).or_default().push((s, d));
                    }
                }
                Err(FaultError::DeadChannel { channel }) => {
                    unroutable.push((SdPair::new(s, d), channel));
                }
                Err(FaultError::DeadNode { .. }) => {
                    unreachable!("path_alive reports dead paths via their channels")
                }
            }
        }
    }
    let mut lemma1 = Ok(());
    'outer: for (&channel, crossing) in &census {
        for (i, &(s1, d1)) in crossing.iter().enumerate() {
            for &(s2, d2) in &crossing[i + 1..] {
                if s1 != s2 && d1 != d2 {
                    lemma1 = Err(LinkViolation {
                        channel,
                        sources: [s1, s2],
                        destinations: [d1, d2],
                    });
                    break 'outer;
                }
            }
        }
    }
    DeterministicDegradation {
        total_pairs,
        unroutable,
        lemma1,
    }
}
