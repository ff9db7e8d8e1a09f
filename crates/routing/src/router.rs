//! Router traits.

use crate::assignment::RouteAssignment;
use crate::dmodk::TopRule;
use crate::error::RoutingError;
use crate::path::Path;
use ftclos_topo::{ChannelId, Ftree};
use ftclos_traffic::{Permutation, SdPair};

/// A single-path routing function: each SD pair gets one pre-determined
/// path, independent of the traffic pattern (the paper's "single-path
/// deterministic routing").
pub trait SinglePathRouter {
    /// Leaf universe size of the fabric this router serves.
    fn ports(&self) -> u32;

    /// Write the (pattern-independent) path for `pair` into `out`, replacing
    /// whatever it held. This is the one routing primitive: it allocates
    /// nothing once `out` has grown to the fabric's longest path, so an
    /// all-pairs sweep reuses one buffer for every pair.
    ///
    /// # Panics
    /// May panic if `pair` references ports outside the fabric; use
    /// [`SinglePathRouter::try_route_into`] for checked routing.
    fn route_into(&self, pair: SdPair, out: &mut Vec<ChannelId>);

    /// [`SinglePathRouter::route_into`] after checking both ports against
    /// [`SinglePathRouter::ports`].
    fn try_route_into(&self, pair: SdPair, out: &mut Vec<ChannelId>) -> Result<(), RoutingError> {
        for port in [pair.src, pair.dst] {
            if port >= self.ports() {
                return Err(RoutingError::PortOutOfRange {
                    port,
                    ports: self.ports(),
                });
            }
        }
        self.route_into(pair, out);
        Ok(())
    }

    /// The path for `pair` as an owned [`Path`].
    ///
    /// # Panics
    /// As [`SinglePathRouter::route_into`].
    fn route(&self, pair: SdPair) -> Path {
        let mut channels = Vec::new();
        self.route_into(pair, &mut channels);
        Path::new(channels)
    }

    /// Checked routing.
    fn try_route(&self, pair: SdPair) -> Result<Path, RoutingError> {
        let mut channels = Vec::new();
        self.try_route_into(pair, &mut channels)?;
        Ok(Path::new(channels))
    }

    /// Router name for reports.
    fn name(&self) -> &'static str;

    /// The fabric and top-choice rule this router's every path follows, when
    /// it is exactly [`TopRule`]'s modular path on an [`Ftree`] (see
    /// `dmodk::modular_route`). Lemma 1 analyzers then count instead of
    /// routing, so a router that masks, reroutes or relabels any path must
    /// keep the default `None`.
    fn top_rule(&self) -> Option<(&Ftree, TopRule)> {
        None
    }
}

/// A pattern-level router: paths may depend on the communication pattern
/// (adaptive and centralized schemes).
pub trait PatternRouter {
    /// Leaf universe size of the fabric this router serves.
    fn ports(&self) -> u32;

    /// Route every SD pair of `perm`.
    fn route_pattern(&self, perm: &Permutation) -> Result<RouteAssignment, RoutingError>;

    /// Router name for reports.
    fn name(&self) -> &'static str;
}

/// Route a whole permutation with a single-path router.
pub fn route_all<R: SinglePathRouter + ?Sized>(
    router: &R,
    perm: &Permutation,
) -> Result<RouteAssignment, RoutingError> {
    let mut out = RouteAssignment::default();
    for &pair in perm.pairs() {
        out.push(pair, router.try_route(pair)?);
    }
    Ok(out)
}

/// Every single-path router is trivially a pattern router.
impl<R: SinglePathRouter> PatternRouter for R {
    fn ports(&self) -> u32 {
        SinglePathRouter::ports(self)
    }

    fn route_pattern(&self, perm: &Permutation) -> Result<RouteAssignment, RoutingError> {
        route_all(self, perm)
    }

    fn name(&self) -> &'static str {
        SinglePathRouter::name(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake router over 4 ports that routes everything over no channels.
    struct Loopback;

    impl SinglePathRouter for Loopback {
        fn ports(&self) -> u32 {
            4
        }
        fn route_into(&self, _pair: SdPair, out: &mut Vec<ChannelId>) {
            out.clear();
        }
        fn name(&self) -> &'static str {
            "loopback"
        }
    }

    #[test]
    fn try_route_checks_range() {
        let r = Loopback;
        assert!(r.try_route(SdPair::new(0, 3)).is_ok());
        assert_eq!(
            r.try_route(SdPair::new(0, 9)).unwrap_err(),
            RoutingError::PortOutOfRange { port: 9, ports: 4 }
        );
    }

    #[test]
    fn route_all_covers_pattern() {
        let r = Loopback;
        let perm = Permutation::from_map(&[1, 0, 3, 2]).unwrap();
        let a = route_all(&r, &perm).unwrap();
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn blanket_pattern_router() {
        let r = Loopback;
        let perm = Permutation::from_map(&[1, 0, 3, 2]).unwrap();
        let a = PatternRouter::route_pattern(&r, &perm).unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(PatternRouter::name(&r), "loopback");
        assert_eq!(PatternRouter::ports(&r), 4);
    }
}
