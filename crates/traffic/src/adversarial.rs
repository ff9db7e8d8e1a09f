//! Adversarial permutation constructions against common deterministic
//! routings on `ftree(n+m, r)`.
//!
//! Theorem 2 says any single-path deterministic routing with `m < n²` has a
//! blocking permutation; these generators produce O(1)-size witnesses for
//! the *specific* modular routings deployed in practice (`d mod m` top
//! selection, the InfiniBand default family), so experiments don't need a
//! search to demonstrate blocking.

use crate::permutation::Permutation;
use crate::sdpair::SdPair;

/// Leaf universe helpers for `ftree(n+m, r)` with leaves numbered `v·n + k`.
#[derive(Clone, Copy, Debug)]
pub struct FtreeShape {
    /// Leaves per bottom switch.
    pub n: u32,
    /// Top-level switches.
    pub m: u32,
    /// Bottom-level switches.
    pub r: u32,
}

impl FtreeShape {
    /// Total leaf count `r·n`.
    pub(crate) fn ports(&self) -> u32 {
        self.r * self.n
    }

    /// Bottom switch of a leaf.
    pub(crate) fn switch_of(&self, leaf: u32) -> u32 {
        leaf / self.n
    }
}

/// Two-pair permutation that congests one **uplink** under `top = d mod m`
/// routing: two sources in bottom switch 0 send to distinct destinations in
/// different switches with equal residue mod `m`.
///
/// Returns `None` when the shape cannot host the witness (`n < 2` or too few
/// leaves outside switch 0 to find two same-residue destinations in distinct
/// switches).
pub fn uplink_attack_mod(shape: FtreeShape) -> Option<Permutation> {
    let FtreeShape { n, m, r } = shape;
    if n < 2 || r < 3 {
        return None;
    }
    let ports = shape.ports();
    // d1: first leaf of switch 1. d2: next leaf with the same residue mod m
    // in a switch other than 0 and 1.
    let d1 = n;
    let mut d2 = d1 + m;
    while d2 < ports && shape.switch_of(d2) <= 1 {
        d2 += m;
    }
    if d2 >= ports {
        return None;
    }
    debug_assert_eq!(d1 % m, d2 % m);
    debug_assert_ne!(shape.switch_of(d1), shape.switch_of(d2));
    Some(
        Permutation::from_pairs(ports, [SdPair::new(0, d1), SdPair::new(1, d2)])
            .expect("distinct sources and destinations"),
    )
}

/// Two-pair permutation that congests one **downlink** under `top = s mod m`
/// routing: two sources with equal residue mod `m` in different switches
/// send to distinct destinations in one switch.
pub fn downlink_attack_mod(shape: FtreeShape) -> Option<Permutation> {
    // The mirror image of the uplink attack.
    uplink_attack_mod(shape).map(|p| p.inverse())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: FtreeShape = FtreeShape { n: 2, m: 2, r: 5 };

    #[test]
    fn uplink_attack_properties() {
        let p = uplink_attack_mod(SHAPE).unwrap();
        let [a, b] = p.pairs() else { panic!() };
        // Same source switch, same dest residue, different dest switches.
        assert_eq!(SHAPE.switch_of(a.src), SHAPE.switch_of(b.src));
        assert_eq!(a.dst % SHAPE.m, b.dst % SHAPE.m);
        assert_ne!(SHAPE.switch_of(a.dst), SHAPE.switch_of(b.dst));
    }

    #[test]
    fn uplink_attack_infeasible_shapes() {
        assert!(uplink_attack_mod(FtreeShape { n: 1, m: 2, r: 9 }).is_none());
        assert!(uplink_attack_mod(FtreeShape { n: 2, m: 2, r: 2 }).is_none());
        // m so large every residue class has one leaf -> no witness.
        assert!(uplink_attack_mod(FtreeShape { n: 2, m: 100, r: 3 }).is_none());
    }

    #[test]
    fn downlink_attack_mirrors() {
        let p = downlink_attack_mod(SHAPE).unwrap();
        let [a, b] = p.pairs() else { panic!() };
        assert_eq!(SHAPE.switch_of(a.dst), SHAPE.switch_of(b.dst));
        assert_eq!(a.src % SHAPE.m, b.src % SHAPE.m);
    }
}
