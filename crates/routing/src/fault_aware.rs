//! Fault-aware wrapper for single-path deterministic routers.
//!
//! A single-path router is *pattern-independent by definition* — so when a
//! channel on its one path dies, the pair is simply unroutable: the paper's
//! deterministic routing has no second choice. [`FaultAware`] makes that a
//! typed error ([`RoutingError::PathFaulted`]) instead of silently producing
//! a path through dead hardware. The contrast with the masked multipath and
//! adaptive routers (which *do* have other choices) is the degradation story
//! the E17 experiment measures.

use crate::assignment::RouteAssignment;
use crate::error::RoutingError;
use crate::path::Path;
use crate::router::SinglePathRouter;
use ftclos_topo::FaultyView;
use ftclos_traffic::{Permutation, SdPair};

/// A single-path router checked against a fault overlay.
#[derive(Clone, Copy, Debug)]
pub struct FaultAware<'f, R> {
    inner: R,
    view: &'f FaultyView<'f>,
}

impl<'f, R: SinglePathRouter> FaultAware<'f, R> {
    /// Wrap `inner` so every returned path is checked against `view`.
    pub fn new(inner: R, view: &'f FaultyView<'f>) -> Self {
        Self { inner, view }
    }

    /// The wrapped router.
    pub fn inner(&self) -> &R {
        &self.inner
    }

    /// Leaf universe size of the wrapped router.
    pub fn ports(&self) -> u32 {
        self.inner.ports()
    }

    /// Router name (`<inner>+faults`).
    pub fn name(&self) -> &'static str {
        "fault-aware"
    }

    /// Route `pair`, rejecting paths that cross dead hardware.
    ///
    /// # Errors
    /// * [`RoutingError::PortOutOfRange`] as for the wrapped router,
    /// * [`RoutingError::PathFaulted`] naming the first dead channel.
    pub fn route_checked(&self, pair: SdPair) -> Result<Path, RoutingError> {
        let path = self.inner.try_route(pair)?;
        match self.view.path_alive(path.channels()) {
            Ok(()) => Ok(path),
            Err(fault) => Err(RoutingError::PathFaulted {
                src: pair.src,
                dst: pair.dst,
                channel: match fault {
                    ftclos_topo::FaultError::DeadChannel { channel } => channel,
                    // A dead node is reported via one of its channels; paths
                    // are channel lists, so this arm is unreachable today.
                    ftclos_topo::FaultError::DeadNode { .. } => unreachable!(),
                },
            }),
        }
    }

    /// Route a whole pattern; fails on the first unroutable pair.
    pub fn route_pattern_checked(
        &self,
        perm: &Permutation,
    ) -> Result<RouteAssignment, RoutingError> {
        let mut out = RouteAssignment::default();
        for &pair in perm.pairs() {
            out.push(pair, self.route_checked(pair)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::yuan::YuanDeterministic;
    use ftclos_topo::{FaultSet, FaultyView, Ftree};
    use ftclos_traffic::patterns;

    #[test]
    fn pristine_view_routes_everything() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let yuan = YuanDeterministic::new(&ft).unwrap();
        let view = FaultyView::pristine(ft.topology());
        let fa = FaultAware::new(yuan, &view);
        let perm = patterns::shift(10, 3);
        let a = fa.route_pattern_checked(&perm).unwrap();
        assert_eq!(a.len(), 10);
        assert!(a.max_channel_load() <= 1);
    }

    #[test]
    fn dead_top_makes_pinned_pairs_unroutable() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let yuan = YuanDeterministic::new(&ft).unwrap();
        let mut faults = FaultSet::new();
        faults.fail_switch(ft.top(0)); // top (i=0, j=0)
        let view = FaultyView::new(ft.topology(), &faults);
        let fa = FaultAware::new(yuan, &view);
        // (v=0,i=0) -> (w=1,j=0) is pinned to top (0,0): unroutable.
        let err = fa.route_checked(SdPair::new(0, 2)).unwrap_err();
        assert!(matches!(
            err,
            RoutingError::PathFaulted { src: 0, dst: 2, .. }
        ));
        // (v=0,i=1) -> (w=1,j=1) uses top (1,1) = 3: fine.
        assert!(fa.route_checked(SdPair::new(1, 3)).is_ok());
    }

    #[test]
    fn out_of_range_still_reported_first() {
        let ft = Ftree::new(2, 4, 5).unwrap();
        let yuan = YuanDeterministic::new(&ft).unwrap();
        let view = FaultyView::pristine(ft.topology());
        let fa = FaultAware::new(yuan, &view);
        assert!(matches!(
            fa.route_checked(SdPair::new(0, 99)),
            Err(RoutingError::PortOutOfRange { .. })
        ));
    }
}
