//! Strongly-typed identifiers for topology elements.
//!
//! Indices are `u32` internally (networks in this domain have far fewer than
//! 2³² elements) to keep hot structures small, per the HPC sizing guidance.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a node (leaf or switch) in a [`crate::Topology`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Identifier of a **directed** channel in a [`crate::Topology`].
///
/// A physical bidirectional cable is represented by two channels with
/// opposite directions; see [`crate::Topology::reverse`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ChannelId(pub u32);

impl NodeId {
    /// The index as a `usize`, for container addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ChannelId {
    /// Sentinel value used for "no channel" slots in dense tables.
    pub const INVALID: ChannelId = ChannelId(u32::MAX);

    /// The index as a `usize`, for container addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// True if this is the [`ChannelId::INVALID`] sentinel.
    #[inline]
    pub(crate) fn is_valid(self) -> bool {
        self != Self::INVALID
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_valid() {
            write!(f, "c{}", self.0)
        } else {
            write!(f, "c<invalid>")
        }
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<u32> for ChannelId {
    fn from(v: u32) -> Self {
        ChannelId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId(42);
        assert_eq!(id.index(), 42);
        assert_eq!(format!("{id}"), "n42");
        assert_eq!(NodeId::from(42u32), id);
    }

    #[test]
    fn channel_id_sentinel() {
        assert!(!ChannelId::INVALID.is_valid());
        assert!(ChannelId(0).is_valid());
        assert_eq!(format!("{:?}", ChannelId::INVALID), "c<invalid>");
        assert_eq!(format!("{}", ChannelId(7)), "c7");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(NodeId(1) < NodeId(2));
        assert!(ChannelId(3) < ChannelId::INVALID);
    }
}
