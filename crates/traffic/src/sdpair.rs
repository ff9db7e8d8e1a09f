//! Source-destination pairs (paper Section III).

use serde::{Deserialize, Serialize};
use std::fmt;

/// A source-destination pair `(s, d)` over dense leaf port indices.
///
/// The paper writes `SRC(s, d)` and `DST(s, d)` for the bottom switches
/// hosting the endpoints; those are topology-dependent (on `ftree(n+m, r)`
/// leaf `v·n + k` hangs off bottom switch `v`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SdPair {
    /// Source leaf port index.
    pub src: u32,
    /// Destination leaf port index.
    pub dst: u32,
}

impl SdPair {
    /// Construct a pair.
    #[inline]
    pub fn new(src: u32, dst: u32) -> Self {
        Self { src, dst }
    }

    /// True if source and destination are the same port (self-traffic;
    /// excluded from permutations by most generators but legal per
    /// Definition 1).
    #[inline]
    pub(crate) fn is_self(&self) -> bool {
        self.src == self.dst
    }
}

impl fmt::Debug for SdPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} -> {})", self.src, self.dst)
    }
}

impl fmt::Display for SdPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<(u32, u32)> for SdPair {
    fn from((src, dst): (u32, u32)) -> Self {
        SdPair::new(src, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_display() {
        let p = SdPair::new(3, 9);
        assert_eq!(p.src, 3);
        assert_eq!(p.dst, 9);
        assert!(!p.is_self());
        assert!(SdPair::new(4, 4).is_self());
        assert_eq!(format!("{p}"), "(3 -> 9)");
        assert_eq!(SdPair::from((1u32, 2u32)), SdPair::new(1, 2));
    }
}
