//! Base-`n` digit encoding of switches and leaves (paper Section V).
//!
//! For `ftree(n+m, r)` pick the smallest constant `c` with `r <= n^c`.
//! Bottom switches get `c` base-`n` digits `s_{c-1}…s_0`; leaf
//! `s_{c-1}…s_0 p` appends its local index `p` as the least-significant
//! digit. Partition `1` of a configuration keys destinations by `p`;
//! partition `i ∈ 2..=c+1` keys them by `(s_{i-2} - p) mod n`.

use crate::error::RoutingError;

/// Digit coder for the adaptive algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DigitCoder {
    n: usize,
    r: usize,
    c: usize,
}

impl DigitCoder {
    /// Build a coder for `ftree(n+m, r)` leaf numbering.
    ///
    /// # Errors
    /// `n == 1` only supports `r == 1` (one switch: every digit is 0);
    /// larger `r` cannot be encoded and the adaptive scheme degenerates.
    pub fn new(n: usize, r: usize) -> Result<Self, RoutingError> {
        if n == 0 || r == 0 {
            return Err(RoutingError::Precondition {
                router: "NonblockingAdaptive",
                detail: format!("n = {n}, r = {r}: both must be >= 1"),
            });
        }
        if n == 1 && r > 1 {
            return Err(RoutingError::Precondition {
                router: "NonblockingAdaptive",
                detail: format!("n = 1 cannot encode r = {r} switches in base-1 digits"),
            });
        }
        // Smallest c >= 1 with n^c >= r.
        let mut c = 1usize;
        let mut pow = n as u128;
        while pow < r as u128 {
            pow *= n as u128;
            c += 1;
        }
        Ok(Self { n, r, c })
    }

    /// Leaves per switch.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of bottom switches encoded.
    #[inline]
    pub fn r(&self) -> usize {
        self.r
    }

    /// The digit-count constant `c` (`r <= n^c`, minimal).
    #[inline]
    pub fn c(&self) -> usize {
        self.c
    }

    /// Number of partitions per configuration, `c + 1`.
    #[inline]
    pub fn partitions(&self) -> usize {
        self.c + 1
    }

    /// Switch digit `s_i` of switch `v` (base-`n`, `s_0` least significant).
    #[inline]
    pub(crate) fn switch_digit(&self, v: usize, i: usize) -> usize {
        debug_assert!(i < self.c);
        (v / self.n.pow(i as u32)) % self.n
    }

    /// Decompose a leaf index into `(v, p)`.
    #[inline]
    pub fn leaf_coords(&self, leaf: u32) -> (usize, usize) {
        ((leaf as usize) / self.n, (leaf as usize) % self.n)
    }

    /// The partition key of destination `leaf` in partition `pt ∈ 0..=c`:
    /// partition 0 keys by `p`; partition `pt >= 1` (the paper's partition
    /// `pt + 1`) keys by `(s_{pt-1} - p) mod n`.
    ///
    /// Within one bottom switch all destinations have distinct keys in every
    /// partition — the Class DIFF property (Lemma 4).
    #[inline]
    pub(crate) fn partition_key(&self, leaf: u32, pt: usize) -> usize {
        debug_assert!(pt <= self.c);
        let (v, p) = self.leaf_coords(leaf);
        if pt == 0 {
            p
        } else {
            let s = self.switch_digit(v, pt - 1);
            (s + self.n - p % self.n) % self.n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c_is_minimal() {
        assert_eq!(DigitCoder::new(2, 1).unwrap().c(), 1);
        assert_eq!(DigitCoder::new(2, 2).unwrap().c(), 1);
        assert_eq!(DigitCoder::new(2, 3).unwrap().c(), 2);
        assert_eq!(DigitCoder::new(2, 4).unwrap().c(), 2);
        assert_eq!(DigitCoder::new(2, 5).unwrap().c(), 3);
        assert_eq!(DigitCoder::new(3, 9).unwrap().c(), 2);
        assert_eq!(DigitCoder::new(3, 10).unwrap().c(), 3);
        assert_eq!(DigitCoder::new(10, 1000).unwrap().c(), 3);
    }

    #[test]
    fn degenerate_parameters() {
        assert!(DigitCoder::new(0, 1).is_err());
        assert!(DigitCoder::new(1, 2).is_err());
        let one = DigitCoder::new(1, 1).unwrap();
        assert_eq!(one.c(), 1);
        assert_eq!(one.partition_key(0, 0), 0);
    }

    #[test]
    fn switch_digits() {
        let c = DigitCoder::new(3, 27).unwrap();
        assert_eq!(c.c(), 3);
        // v = 14 = 112 base 3.
        assert_eq!(c.switch_digit(14, 0), 2);
        assert_eq!(c.switch_digit(14, 1), 1);
        assert_eq!(c.switch_digit(14, 2), 1);
    }

    #[test]
    fn partition_keys_match_paper() {
        // n = 2, r = 4 -> c = 2, digits s1 s0 p.
        let c = DigitCoder::new(2, 4).unwrap();
        // leaf 5 = switch 2 (s1 s0 = 10), p = 1.
        assert_eq!(c.partition_key(5, 0), 1); // p
        assert_eq!(c.partition_key(5, 1), (2 - 1)); // (s0 - p) % n = 1
        assert_eq!(c.partition_key(5, 2), (1 + 2 - 1) % 2); // (s1 - p) % n = 0
    }

    #[test]
    fn class_diff_within_a_switch() {
        // Distinct destinations in the same switch must get distinct keys in
        // EVERY partition (Lemma 4).
        for (n, r) in [(2, 4), (3, 9), (4, 16), (3, 27)] {
            let coder = DigitCoder::new(n, r).unwrap();
            for v in 0..r {
                for pt in 0..=coder.c() {
                    let keys: std::collections::HashSet<usize> = (0..n)
                        .map(|p| coder.partition_key((v * n + p) as u32, pt))
                        .collect();
                    assert_eq!(keys.len(), n, "n={n} r={r} v={v} pt={pt}");
                }
            }
        }
    }

    #[test]
    fn keys_are_in_range() {
        let c = DigitCoder::new(3, 20).unwrap();
        for leaf in 0..60u32 {
            for pt in 0..=c.c() {
                assert!(c.partition_key(leaf, pt) < 3);
            }
        }
    }
}
