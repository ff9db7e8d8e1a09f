//! Error type for topology construction and queries.

use std::fmt;

/// Errors produced by topology builders and accessors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopoError {
    /// A structural parameter (n, m, r, k, h, …) was zero or otherwise out of
    /// its legal range.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Value that was passed.
        value: usize,
        /// Human-readable constraint that was violated.
        requirement: &'static str,
    },
    /// Two parameter vectors that must have equal length differ.
    LengthMismatch {
        /// What the vectors describe.
        what: &'static str,
        /// Length of the first vector.
        left: usize,
        /// Length of the second vector.
        right: usize,
    },
    /// No channel connects the two requested nodes in the requested
    /// direction.
    NoChannel {
        /// Source node index.
        src: usize,
        /// Destination node index.
        dst: usize,
    },
    /// The requested topology would exceed the `u32` index space.
    TooLarge {
        /// What overflowed (nodes or channels).
        what: &'static str,
        /// The computed size.
        size: u128,
    },
}

impl fmt::Display for TopoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopoError::InvalidParameter {
                name,
                value,
                requirement,
            } => write!(f, "invalid parameter {name} = {value}: {requirement}"),
            TopoError::LengthMismatch { what, left, right } => {
                write!(f, "length mismatch for {what}: {left} vs {right}")
            }
            TopoError::NoChannel { src, dst } => {
                write!(f, "no channel from node {src} to node {dst}")
            }
            TopoError::TooLarge { what, size } => {
                write!(
                    f,
                    "topology too large: {size} {what} exceeds u32 index space"
                )
            }
        }
    }
}

impl std::error::Error for TopoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = TopoError::InvalidParameter {
            name: "n",
            value: 0,
            requirement: "must be >= 1",
        };
        assert!(e.to_string().contains("invalid parameter n = 0"));

        let e = TopoError::NoChannel { src: 1, dst: 2 };
        assert_eq!(e.to_string(), "no channel from node 1 to node 2");

        let e = TopoError::TooLarge {
            what: "channels",
            size: 1 << 40,
        };
        assert!(e.to_string().contains("channels"));
    }
}
