//! Validated permutation communications (paper Definition 1).

use crate::error::TrafficError;
use crate::sdpair::SdPair;
use serde::{Deserialize, Serialize};

/// A permutation communication over `ports` leaves: every leaf is the source
/// of at most one SD pair and the destination of at most one SD pair.
///
/// Permutations may be *partial* ("a permutation does not require all leaf
/// nodes to be used"). Property 1 — two pairs in a permutation have distinct
/// sources and distinct destinations — holds by construction.
///
/// ```
/// use ftclos_traffic::{Permutation, SdPair};
///
/// let p = Permutation::from_pairs(6, [SdPair::new(0, 3), SdPair::new(2, 1)]).unwrap();
/// assert_eq!(p.len(), 2);
/// assert_eq!(p.dst_of(0), Some(3));
/// // Definition 1 is enforced: duplicate destinations are rejected.
/// assert!(Permutation::from_pairs(6, [SdPair::new(0, 3), SdPair::new(1, 3)]).is_err());
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Permutation {
    ports: u32,
    pairs: Vec<SdPair>,
}

impl Permutation {
    /// Build a permutation from SD pairs, validating Definition 1.
    pub fn from_pairs(
        ports: u32,
        pairs: impl IntoIterator<Item = SdPair>,
    ) -> Result<Self, TrafficError> {
        let pairs: Vec<SdPair> = pairs.into_iter().collect();
        let mut src_seen = vec![false; ports as usize];
        let mut dst_seen = vec![false; ports as usize];
        for p in &pairs {
            for port in [p.src, p.dst] {
                if port >= ports {
                    return Err(TrafficError::PortOutOfRange { port, ports });
                }
            }
            let s = p.src as usize;
            if std::mem::replace(&mut src_seen[s], true) {
                return Err(TrafficError::DuplicateSource { port: p.src });
            }
            let d = p.dst as usize;
            if std::mem::replace(&mut dst_seen[d], true) {
                return Err(TrafficError::DuplicateDestination { port: p.dst });
            }
        }
        Ok(Self { ports, pairs })
    }

    /// Build a full permutation from a mapping `dst[s] = d`; `map.len()` is
    /// the port count and the map must be a bijection.
    pub fn from_map(map: &[u32]) -> Result<Self, TrafficError> {
        let ports = map.len() as u32;
        Self::from_pairs(
            ports,
            map.iter()
                .enumerate()
                .map(|(s, &d)| SdPair::new(s as u32, d)),
        )
    }

    /// Number of leaves in the universe.
    #[inline]
    pub fn ports(&self) -> u32 {
        self.ports
    }

    /// The SD pairs.
    #[inline]
    pub fn pairs(&self) -> &[SdPair] {
        &self.pairs
    }

    /// Number of SD pairs.
    #[inline]
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if there are no SD pairs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// True if every port is both a source and a destination.
    pub fn is_full(&self) -> bool {
        self.pairs.len() == self.ports as usize
    }

    /// Destination of `src`, if any.
    pub fn dst_of(&self, src: u32) -> Option<u32> {
        self.pairs.iter().find(|p| p.src == src).map(|p| p.dst)
    }

    /// The inverse permutation (sources and destinations swapped).
    pub fn inverse(&self) -> Self {
        Self {
            ports: self.ports,
            pairs: self
                .pairs
                .iter()
                .map(|p| SdPair::new(p.dst, p.src))
                .collect(),
        }
    }

    /// Restrict to pairs whose source satisfies `keep`.
    pub fn filter_sources(&self, mut keep: impl FnMut(u32) -> bool) -> Self {
        Self {
            ports: self.ports,
            pairs: self.pairs.iter().copied().filter(|p| keep(p.src)).collect(),
        }
    }

    /// Group pairs by `group(src)`, preserving order — used to split a
    /// permutation into per-source-switch sets `P^i` (Fig. 4 line (1)).
    pub fn group_by_source<K: Ord + Clone>(
        &self,
        mut group: impl FnMut(u32) -> K,
    ) -> std::collections::BTreeMap<K, Vec<SdPair>> {
        let mut map = std::collections::BTreeMap::new();
        for &p in &self.pairs {
            map.entry(group(p.src)).or_insert_with(Vec::new).push(p);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_partial() {
        let p = Permutation::from_pairs(6, [SdPair::new(0, 3), SdPair::new(2, 1)]).unwrap();
        assert_eq!(p.len(), 2);
        assert!(!p.is_full());
        assert_eq!(p.dst_of(0), Some(3));
        assert_eq!(p.dst_of(1), None);
    }

    #[test]
    fn rejects_duplicate_source() {
        let err = Permutation::from_pairs(6, [SdPair::new(0, 3), SdPair::new(0, 1)]).unwrap_err();
        assert_eq!(err, TrafficError::DuplicateSource { port: 0 });
    }

    #[test]
    fn rejects_duplicate_destination() {
        let err = Permutation::from_pairs(6, [SdPair::new(0, 3), SdPair::new(1, 3)]).unwrap_err();
        assert_eq!(err, TrafficError::DuplicateDestination { port: 3 });
    }

    #[test]
    fn rejects_out_of_range() {
        let err = Permutation::from_pairs(4, [SdPair::new(0, 9)]).unwrap_err();
        assert_eq!(err, TrafficError::PortOutOfRange { port: 9, ports: 4 });
    }

    #[test]
    fn from_map_bijection() {
        let p = Permutation::from_map(&[2, 0, 1]).unwrap();
        assert!(p.is_full());
        assert_eq!(p.dst_of(0), Some(2));
        assert!(Permutation::from_map(&[0, 0, 1]).is_err());
    }

    #[test]
    fn inverse_roundtrip() {
        let p = Permutation::from_map(&[2, 0, 1, 3]).unwrap();
        let inv = p.inverse();
        assert_eq!(inv.dst_of(2), Some(0));
        assert_eq!(inv.inverse(), p);
    }

    #[test]
    fn self_pair_allowed() {
        let p = Permutation::from_map(&[0, 2, 1]).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.dst_of(0), Some(0));
    }

    #[test]
    fn group_by_source_switch() {
        // 6 ports, 2 per switch.
        let p = Permutation::from_map(&[3, 4, 5, 0, 1, 2]).unwrap();
        let groups = p.group_by_source(|s| s / 2);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[&0].len(), 2);
        assert_eq!(groups[&2][0], SdPair::new(4, 1));
    }

    #[test]
    fn empty_permutation() {
        let p = Permutation::from_pairs(8, []).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.ports(), 8);
    }
}
