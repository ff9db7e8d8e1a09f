//! Error type for routing computations.

use ftclos_topo::ChannelId;
use std::fmt;

/// Errors produced by routers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RoutingError {
    /// The router's structural precondition on the fabric is unmet (e.g.
    /// the Theorem 3 routing needs `m >= n²`).
    Precondition {
        /// Router name.
        router: &'static str,
        /// What was violated.
        detail: String,
    },
    /// The pattern router needed more top-level switches than the fabric
    /// has (reported by NONBLOCKINGADAPTIVE when `m` is too small).
    NotEnoughTops {
        /// Top switches required by the computed plan.
        needed: usize,
        /// Top switches available (`m`).
        available: usize,
    },
    /// An SD pair references a port outside the fabric.
    PortOutOfRange {
        /// The offending port.
        port: u32,
        /// The fabric's leaf count.
        ports: u32,
    },
    /// The (single, pattern-independent) path of a deterministic router
    /// crosses a failed channel: the pair is unroutable without changing
    /// the routing algorithm.
    PathFaulted {
        /// Source port of the unroutable pair.
        src: u32,
        /// Destination port of the unroutable pair.
        dst: u32,
        /// The first failed channel on the pair's path.
        channel: ChannelId,
    },
    /// Every candidate path of a multipath/adaptive router is dead for this
    /// pair (e.g. the leaf's own cable failed): no routing algorithm can
    /// connect it.
    NoLivePath {
        /// Source port.
        src: u32,
        /// Destination port.
        dst: u32,
    },
}

impl fmt::Display for RoutingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingError::Precondition { router, detail } => {
                write!(f, "{router}: precondition violated: {detail}")
            }
            RoutingError::NotEnoughTops { needed, available } => {
                write!(
                    f,
                    "not enough top-level switches: plan needs {needed}, fabric has {available}"
                )
            }
            RoutingError::PortOutOfRange { port, ports } => {
                write!(f, "port {port} out of range (fabric has {ports} leaves)")
            }
            RoutingError::PathFaulted { src, dst, channel } => {
                write!(
                    f,
                    "pair {src} -> {dst} is unroutable: its deterministic path \
                     crosses failed channel {}",
                    channel.0
                )
            }
            RoutingError::NoLivePath { src, dst } => {
                write!(
                    f,
                    "pair {src} -> {dst} has no live path under the fault set"
                )
            }
        }
    }
}

impl std::error::Error for RoutingError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = RoutingError::NotEnoughTops {
            needed: 9,
            available: 4,
        };
        assert!(e.to_string().contains("needs 9"));
        let e = RoutingError::PortOutOfRange { port: 5, ports: 4 };
        assert!(e.to_string().contains("port 5"));
        let e = RoutingError::PathFaulted {
            src: 1,
            dst: 7,
            channel: ChannelId(12),
        };
        assert!(e.to_string().contains("failed channel 12"));
        let e = RoutingError::NoLivePath { src: 0, dst: 3 };
        assert!(e.to_string().contains("no live path"));
    }
}
