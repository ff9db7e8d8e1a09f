//! [`LinkLoadView`] — a uniform "per-link flow sets" interface over every
//! routing scheme in the crate.
//!
//! The fluid flow-rate simulator (crate `ftclos-flowsim`) does not care *how*
//! a router picks paths; it only needs, for each SD pair of a pattern, the
//! set of channels the pair's traffic crosses and the fraction of that
//! traffic on each channel. This trait is that contract:
//!
//! * a **single-path** scheme (Yuan, `d mod k`, adaptive plans, centralized
//!   edge coloring) puts the pair's whole unit of traffic on every channel
//!   of its one path — weight `1.0` per channel;
//! * an **oblivious multipath** spreader over `k` candidate paths puts
//!   `1/k` of the traffic on each candidate's channels (the fluid analog of
//!   round-robin / uniform-random spreading);
//! * the **fault-masked** variants expose the same shape computed over the
//!   surviving hardware only.
//!
//! Every implementation routes the *pattern*, not single pairs, so adaptive
//! schemes (whose path choice depends on the whole pattern) fit the same
//! interface as pattern-independent ones.

use crate::adaptive::{NonblockingAdaptive, PlanStrategy};
use crate::error::RoutingError;
use crate::fault_aware::FaultAware;
use crate::multipath::ObliviousMultipath;
use crate::router::{PatternRouter, SinglePathRouter};
use ftclos_topo::{ChannelId, FaultyView};
use ftclos_traffic::{Permutation, SdPair};
use serde::{Deserialize, Serialize};

/// One SD pair's link usage: the channels its traffic crosses, each with
/// the fraction of the pair's offered traffic carried by that channel.
///
/// Weights are *per channel*, not a distribution over channels: a
/// single-path 4-hop route is four entries of weight `1.0`. A `k`-way
/// spread is `4k` entries of weight `1/k` (candidate paths of one pair
/// never repeat a channel, so entries need no merging). Self-traffic
/// (`src == dst`) has an empty link set.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlowLinks {
    /// The SD pair this flow belongs to.
    pub pair: SdPair,
    /// `(channel, fraction of the pair's traffic crossing it)`.
    pub links: Vec<(ChannelId, f64)>,
}

impl FlowLinks {
    /// A flow that puts its whole unit of traffic on every channel of one
    /// path.
    pub fn single_path(pair: SdPair, channels: &[ChannelId]) -> Self {
        Self {
            pair,
            links: channels.iter().map(|&c| (c, 1.0)).collect(),
        }
    }

    /// A flow spread uniformly over `paths` (weight `1/paths.len()` per
    /// channel). An empty candidate list yields an empty link set.
    pub(crate) fn uniform_spread<'p>(
        pair: SdPair,
        paths: impl ExactSizeIterator<Item = &'p [ChannelId]>,
    ) -> Self {
        let k = paths.len();
        if k == 0 {
            return Self {
                pair,
                links: Vec::new(),
            };
        }
        let w = 1.0 / k as f64;
        let mut links = Vec::new();
        for path in paths {
            links.extend(path.iter().map(|&c| (c, w)));
        }
        Self { pair, links }
    }
}

/// Uniform access to the link-level flow sets a routing scheme induces for
/// a communication pattern.
pub trait LinkLoadView {
    /// Leaf universe size of the fabric this view serves.
    fn ports(&self) -> u32;

    /// Expand every SD pair of `perm` into its link-level flow set.
    ///
    /// # Errors
    /// Whatever the underlying router reports: out-of-range ports,
    /// infeasible plans, dead paths under fault masking.
    fn flow_links(&self, perm: &Permutation) -> Result<Vec<FlowLinks>, RoutingError>;

    /// Scheme name for reports.
    fn name(&self) -> &'static str;
}

/// Every pattern router (hence every single-path router, via the blanket
/// `SinglePathRouter → PatternRouter` impl) exposes unit-weight flow sets.
impl<R: PatternRouter> LinkLoadView for R {
    fn ports(&self) -> u32 {
        PatternRouter::ports(self)
    }

    fn flow_links(&self, perm: &Permutation) -> Result<Vec<FlowLinks>, RoutingError> {
        let assignment = self.route_pattern(perm)?;
        Ok(assignment
            .routes()
            .iter()
            .map(|(pair, path)| FlowLinks::single_path(*pair, path.channels()))
            .collect())
    }

    fn name(&self) -> &'static str {
        PatternRouter::name(self)
    }
}

/// Oblivious multipath: uniform fractional spread over all candidates.
impl LinkLoadView for ObliviousMultipath<'_> {
    fn ports(&self) -> u32 {
        ObliviousMultipath::ports(self)
    }

    fn flow_links(&self, perm: &Permutation) -> Result<Vec<FlowLinks>, RoutingError> {
        let spread = self.spread_pattern(perm)?;
        Ok(spread
            .entries()
            .iter()
            .map(|(pair, paths)| {
                FlowLinks::uniform_spread(*pair, paths.iter().map(|p| p.channels()))
            })
            .collect())
    }

    fn name(&self) -> &'static str {
        "multipath"
    }
}

/// Fault-masked single-path routing: the one deterministic path, checked
/// against the fault overlay (fails with [`RoutingError::PathFaulted`] when
/// any pair's pinned path is dead — deterministic routing has no fallback).
impl<R: SinglePathRouter> LinkLoadView for FaultAware<'_, R> {
    fn ports(&self) -> u32 {
        FaultAware::ports(self)
    }

    fn flow_links(&self, perm: &Permutation) -> Result<Vec<FlowLinks>, RoutingError> {
        let assignment = self.route_pattern_checked(perm)?;
        Ok(assignment
            .routes()
            .iter()
            .map(|(pair, path)| FlowLinks::single_path(*pair, path.channels()))
            .collect())
    }

    fn name(&self) -> &'static str {
        "fault-aware"
    }
}

/// Oblivious multipath with dead candidates masked out: the spread narrows
/// to the surviving paths, so per-channel fractions *grow* as hardware dies
/// — exactly the load concentration the fluid model should see.
#[derive(Clone, Copy, Debug)]
pub struct MaskedMultipath<'a> {
    mp: ObliviousMultipath<'a>,
    view: &'a FaultyView<'a>,
}

impl<'a> MaskedMultipath<'a> {
    /// Wrap a spreader with a fault overlay.
    pub fn new(mp: ObliviousMultipath<'a>, view: &'a FaultyView<'a>) -> Self {
        Self { mp, view }
    }
}

impl LinkLoadView for MaskedMultipath<'_> {
    fn ports(&self) -> u32 {
        self.mp.ports()
    }

    fn flow_links(&self, perm: &Permutation) -> Result<Vec<FlowLinks>, RoutingError> {
        let spread = self.mp.spread_pattern_masked(perm, self.view)?;
        Ok(spread
            .entries()
            .iter()
            .map(|(pair, paths)| {
                FlowLinks::uniform_spread(*pair, paths.iter().map(|p| p.channels()))
            })
            .collect())
    }

    fn name(&self) -> &'static str {
        "multipath+faults"
    }
}

/// NONBLOCKINGADAPTIVE with failed hardware masked out of the Fig. 4 plan
/// search (see `NonblockingAdaptive::plan_masked`).
#[derive(Clone, Copy, Debug)]
pub struct MaskedAdaptive<'a> {
    inner: &'a NonblockingAdaptive<'a>,
    view: &'a FaultyView<'a>,
    strategy: PlanStrategy,
}

impl<'a> MaskedAdaptive<'a> {
    /// Wrap an adaptive router with a fault overlay.
    pub fn new(
        inner: &'a NonblockingAdaptive<'a>,
        view: &'a FaultyView<'a>,
        strategy: PlanStrategy,
    ) -> Self {
        Self {
            inner,
            view,
            strategy,
        }
    }
}

impl LinkLoadView for MaskedAdaptive<'_> {
    fn ports(&self) -> u32 {
        PatternRouter::ports(self.inner)
    }

    fn flow_links(&self, perm: &Permutation) -> Result<Vec<FlowLinks>, RoutingError> {
        let plan = self.inner.plan_masked(perm, self.view, self.strategy)?;
        let assignment = self.inner.materialize_masked(&plan, self.view)?;
        Ok(assignment
            .routes()
            .iter()
            .map(|(pair, path)| FlowLinks::single_path(*pair, path.channels()))
            .collect())
    }

    fn name(&self) -> &'static str {
        "adaptive+faults"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dmodk::DModK;
    use crate::yuan::YuanDeterministic;
    use ftclos_topo::{FaultSet, Ftree};
    use ftclos_traffic::patterns;

    /// Sum of a flow's weights per channel must reconstruct the router's
    /// channel loads.
    #[test]
    fn single_path_view_matches_assignment_loads() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let yuan = YuanDeterministic::new(&ft).unwrap();
        let perm = patterns::shift(10, 3);
        let flows = LinkLoadView::flow_links(&yuan, &perm).unwrap();
        assert_eq!(flows.len(), perm.len());
        for f in &flows {
            // Cross-switch: 4 channels at weight 1; local: 2 channels.
            assert!(f.links.iter().all(|&(_, w)| w == 1.0));
            assert!(f.links.len() == 4 || f.links.len() == 2 || f.links.is_empty());
        }
        assert_eq!(LinkLoadView::name(&yuan), "yuan-deterministic");
    }

    #[test]
    fn multipath_view_spreads_uniformly() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let mp = ObliviousMultipath::new(&ft);
        let perm = patterns::shift(10, 2);
        let flows = LinkLoadView::flow_links(&mp, &perm).unwrap();
        for f in &flows {
            let total: f64 = f.links.iter().map(|&(_, w)| w).sum();
            // 4 candidate paths x 4 hops x 1/4, or a 2-hop local path.
            let hops = if f.links.len() == 2 { 2.0 } else { 4.0 };
            assert!((total - hops).abs() < 1e-12, "weights sum to hop count");
        }
    }

    #[test]
    fn masked_views_shrink_to_live_hardware() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let mut faults = FaultSet::new();
        faults.fail_switch(ft.top(0));
        let view = FaultyView::new(ft.topology(), &faults);
        let mp = ObliviousMultipath::new(&ft);
        let masked = MaskedMultipath::new(mp, &view);
        let perm = patterns::shift(10, 2);
        let flows = masked.flow_links(&perm).unwrap();
        for f in &flows {
            if f.links.len() > 2 {
                // Cross-switch spreads narrowed from 4 to 3 candidates.
                assert_eq!(f.links.len(), 12);
                assert!(f.links.iter().all(|&(_, w)| (w - 1.0 / 3.0).abs() < 1e-12));
            }
            for &(c, _) in &f.links {
                assert!(view.path_alive(&[c]).is_ok(), "flows avoid dead channels");
            }
        }
    }

    #[test]
    fn fault_aware_view_propagates_dead_path_error() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let yuan = YuanDeterministic::new(&ft).unwrap();
        let mut faults = FaultSet::new();
        faults.fail_switch(ft.top(0));
        let view = FaultyView::new(ft.topology(), &faults);
        let fa = FaultAware::new(yuan, &view);
        // shift:2 keeps i=j=0 pairs pinned to the dead top (0,0).
        let err = fa.flow_links(&patterns::shift(10, 2)).unwrap_err();
        assert!(matches!(err, RoutingError::PathFaulted { .. }));
    }

    #[test]
    fn dmodk_view_reconstructs_channel_loads() {
        let ft = Ftree::new(2, 2, 5).unwrap();
        let d = DModK::new(&ft);
        let perm = patterns::shift(10, 3);
        let flows = LinkLoadView::flow_links(&d, &perm).unwrap();
        let assignment = crate::router::route_all(&d, &perm).unwrap();
        let loads = assignment.channel_loads();
        let mut fluid: std::collections::HashMap<ChannelId, f64> = Default::default();
        for f in &flows {
            for &(c, w) in &f.links {
                *fluid.entry(c).or_insert(0.0) += w;
            }
        }
        for (c, &l) in &loads {
            assert!((fluid[c] - l as f64).abs() < 1e-12);
        }
    }
}
