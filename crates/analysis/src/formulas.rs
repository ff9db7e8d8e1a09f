//! The paper's bounds and conditions in closed form.

/// The paper's coarse adaptive bound: at most `ceil(n / (c+2))`
/// configurations, i.e. `ceil(n/(c+2)) · (c+1) · n` top switches — already
/// `< n²` for every `c >= 1` (when `n > c+2`... the asymptotic claim).
pub fn adaptive_coarse_tops(n: usize, c: usize) -> usize {
    n.div_ceil(c + 2) * (c + 1) * n
}

/// Theorem 5's asymptotic exponent: the adaptive scheme needs
/// `O(n^{2 - 1/(2(c+1))})` top switches.
pub fn adaptive_exponent(c: usize) -> f64 {
    2.0 - 1.0 / (2.0 * (c as f64 + 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_beats_deterministic_asymptotically() {
        for c in 1..5usize {
            assert!(adaptive_exponent(c) < 2.0);
            assert!(adaptive_exponent(c) > 1.5);
        }
        // Coarse bound below n² for moderate n.
        for n in [8usize, 16, 32, 64] {
            for c in 1..4usize {
                assert!(
                    adaptive_coarse_tops(n, c) < n * n + (c + 1) * n,
                    "n={n} c={c}"
                );
            }
        }
    }
}
