//! Exhaustive pattern enumeration for small universes.
//!
//! Two enumerators matter for the paper's verification experiments:
//!
//! * [`AllPermutations`] — every full permutation of `ports` leaves
//!   (`ports!` of them; practical up to ~8 ports). Used to verify
//!   Theorem 3 / Theorem 4 exhaustively on tiny fabrics.
//! * [`TwoPairs`] — every 2-SD-pair permutation. Lemma 1's proof shows a
//!   deterministic routing blocks some permutation **iff** two pairs with
//!   distinct sources and destinations share a link, so enumerating all
//!   `O(ports⁴)` two-pair patterns is a *complete* blocking test for
//!   single-path deterministic routing at any size we can afford.

use crate::permutation::Permutation;
use crate::sdpair::SdPair;

/// Iterator over all full permutations of `0..ports` in lexicographic order.
pub struct AllPermutations {
    current: Option<Vec<u32>>,
}

impl AllPermutations {
    /// Create the enumerator. `ports = 0` yields exactly one (empty)
    /// permutation.
    pub fn new(ports: u32) -> Self {
        Self {
            current: Some((0..ports).collect()),
        }
    }
}

/// Advance `perm` to the next lexicographic permutation; false at the end.
fn next_permutation(perm: &mut [u32]) -> bool {
    if perm.len() < 2 {
        return false;
    }
    // Find longest non-increasing suffix.
    let mut i = perm.len() - 1;
    while i > 0 && perm[i - 1] >= perm[i] {
        i -= 1;
    }
    if i == 0 {
        return false;
    }
    // Swap pivot with rightmost element greater than it, reverse suffix.
    let mut j = perm.len() - 1;
    while perm[j] <= perm[i - 1] {
        j -= 1;
    }
    perm.swap(i - 1, j);
    perm[i..].reverse();
    true
}

impl Iterator for AllPermutations {
    type Item = Permutation;

    fn next(&mut self) -> Option<Permutation> {
        let cur = self.current.as_mut()?;
        let out = Permutation::from_map(cur).expect("enumeration preserves bijection");
        if !next_permutation(cur) {
            self.current = None;
        }
        Some(out)
    }
}

/// Iterator over every two-pair permutation `{(s1,d1), (s2,d2)}` with
/// `s1 < s2` (order within the set is irrelevant) and `d1 != d2`.
///
/// With `skip_self = true` (the default used by blocking searches), pairs
/// with `src == dst` are omitted: self-traffic never leaves the source
/// switch, so it cannot contend.
pub struct TwoPairs {
    ports: u32,
    skip_self: bool,
    s1: u32,
    d1: u32,
    s2: u32,
    d2: u32,
}

impl TwoPairs {
    /// Create the enumerator over `ports` leaves.
    pub fn new(ports: u32, skip_self: bool) -> Self {
        Self {
            ports,
            skip_self,
            s1: 0,
            d1: 0,
            s2: 0,
            d2: 0,
        }
    }

    fn valid(&self) -> bool {
        self.s1 < self.s2
            && self.d1 != self.d2
            && !(self.skip_self && (self.s1 == self.d1 || self.s2 == self.d2))
    }

    fn advance(&mut self) -> bool {
        self.d2 += 1;
        if self.d2 >= self.ports {
            self.d2 = 0;
            self.s2 += 1;
            if self.s2 >= self.ports {
                self.s2 = 0;
                self.d1 += 1;
                if self.d1 >= self.ports {
                    self.d1 = 0;
                    self.s1 += 1;
                    if self.s1 >= self.ports {
                        return false;
                    }
                }
            }
        }
        true
    }
}

impl Iterator for TwoPairs {
    type Item = Permutation;

    fn next(&mut self) -> Option<Permutation> {
        if self.ports == 0 || self.s1 >= self.ports {
            return None;
        }
        loop {
            if self.valid() {
                let out = Permutation::from_pairs(
                    self.ports,
                    [SdPair::new(self.s1, self.d1), SdPair::new(self.s2, self.d2)],
                )
                .expect("TwoPairs generates valid permutations");
                if !self.advance() {
                    self.s1 = self.ports; // exhausted
                }
                return Some(out);
            }
            if !self.advance() {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_small_factorials() {
        assert_eq!(AllPermutations::new(0).count(), 1);
        assert_eq!(AllPermutations::new(1).count(), 1);
        assert_eq!(AllPermutations::new(3).count(), 6);
        assert_eq!(AllPermutations::new(5).count(), 120);
    }

    #[test]
    fn lexicographic_and_distinct() {
        let perms: Vec<_> = AllPermutations::new(3).collect();
        assert_eq!(perms[0].dst_of(0), Some(0));
        assert_eq!(perms[5].dst_of(0), Some(2));
        let set: std::collections::HashSet<_> = perms
            .iter()
            .map(|p| p.pairs().iter().map(|x| x.dst).collect::<Vec<_>>())
            .collect();
        assert_eq!(set.len(), 6);
    }

    #[test]
    fn two_pairs_count_with_self() {
        // s1<s2: C(p,2) ordered source pairs; d1 != d2: p(p-1) ordered dest
        // choices.
        let p = 4u32;
        let expected = (p * (p - 1) / 2) * (p * (p - 1));
        assert_eq!(TwoPairs::new(p, false).count(), expected as usize);
    }

    #[test]
    fn two_pairs_all_valid_permutations() {
        for perm in TwoPairs::new(5, true) {
            assert_eq!(perm.len(), 2);
            let [a, b] = perm.pairs() else { panic!() };
            assert_ne!(a.src, b.src);
            assert_ne!(a.dst, b.dst);
            assert!(!a.is_self() && !b.is_self());
        }
    }

    #[test]
    fn two_pairs_skip_self_is_smaller() {
        let with = TwoPairs::new(5, false).count();
        let without = TwoPairs::new(5, true).count();
        assert!(without < with);
    }

    #[test]
    fn two_pairs_empty_universe() {
        assert_eq!(TwoPairs::new(0, true).count(), 0);
        assert_eq!(TwoPairs::new(1, true).count(), 0);
        // Two ports, skip self: only (0->1),(1->0).
        assert_eq!(TwoPairs::new(2, true).count(), 1);
    }
}
