//! Bundled nonblocking fabrics: topology + routing, self-verifying.

use ftclos_routing::{route_all, RouteAssignment, RoutingError, YuanDeterministic, YuanRecursive};
use ftclos_topo::{Ftree, RecursiveNonblocking, TopoError};
use ftclos_traffic::Permutation;

/// Errors from fabric construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConstructError {
    /// Topology-level failure.
    Topo(TopoError),
    /// Routing-level failure.
    Routing(RoutingError),
}

impl std::fmt::Display for ConstructError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConstructError::Topo(e) => write!(f, "topology: {e}"),
            ConstructError::Routing(e) => write!(f, "routing: {e}"),
        }
    }
}

impl std::error::Error for ConstructError {}

impl From<TopoError> for ConstructError {
    fn from(e: TopoError) -> Self {
        ConstructError::Topo(e)
    }
}

impl From<RoutingError> for ConstructError {
    fn from(e: RoutingError) -> Self {
        ConstructError::Routing(e)
    }
}

/// The paper's two-level nonblocking fabric: `ftree(n+n², r)` with the
/// Theorem 3 routing baked in.
///
/// By Theorems 2-3 this is the *cheapest possible* nonblocking folded-Clos
/// under single-path deterministic routing (in the sensible regime
/// `r >= 2n+1`).
#[derive(Clone, Debug)]
pub struct NonblockingFtree {
    ftree: Ftree,
}

impl NonblockingFtree {
    /// Build `ftree(n + n², r)`.
    pub fn new(n: usize, r: usize) -> Result<Self, ConstructError> {
        let ftree = Ftree::new(n, n * n, r)?;
        // Constructor-time sanity: the router must accept the shape.
        let _ = YuanDeterministic::new(&ftree)?;
        Ok(Self { ftree })
    }

    /// The Table I variant built from same-size switches: `r = n + n²`, so
    /// every switch has `n + n²` ports.
    pub fn same_radix(n: usize) -> Result<Self, ConstructError> {
        Self::new(n, n + n * n)
    }

    /// Leaves per bottom switch.
    pub fn n(&self) -> usize {
        self.ftree.n()
    }

    /// Bottom switches.
    pub fn r(&self) -> usize {
        self.ftree.r()
    }

    /// Port (leaf) count.
    pub fn ports(&self) -> usize {
        self.ftree.num_leaves()
    }

    /// Switch count (`r + n²`).
    pub fn switches(&self) -> usize {
        self.ftree.num_switches()
    }

    /// The underlying `ftree(n+n², r)`.
    pub fn ftree(&self) -> &Ftree {
        &self.ftree
    }

    /// The Theorem 3 router.
    pub fn router(&self) -> YuanDeterministic<'_> {
        YuanDeterministic::new(&self.ftree).expect("validated in constructor")
    }

    /// Route a permutation (always contention-free; Theorem 3).
    pub fn route(&self, perm: &Permutation) -> Result<RouteAssignment, RoutingError> {
        route_all(&self.router(), perm)
    }
}

/// The recursive three-level nonblocking fabric (paper Discussion section).
#[derive(Clone, Debug)]
pub struct NonblockingThreeLevel {
    net: RecursiveNonblocking,
}

impl NonblockingThreeLevel {
    /// Build the three-level network for `n`.
    pub fn new(n: usize) -> Result<Self, ConstructError> {
        Ok(Self {
            net: RecursiveNonblocking::new(n)?,
        })
    }

    /// The construction parameter.
    pub fn n(&self) -> usize {
        self.net.n()
    }

    /// Port count: `n⁴ + n³`.
    pub fn ports(&self) -> usize {
        self.net.num_leaves()
    }

    /// Physical switch count: `2n⁴ + 2n³ + n²`.
    pub fn switches(&self) -> usize {
        self.net.num_switches()
    }

    /// Uniform switch radix: `n + n²`.
    pub fn switch_radix(&self) -> usize {
        self.net.switch_radix()
    }

    /// The underlying physical network.
    pub fn network(&self) -> &RecursiveNonblocking {
        &self.net
    }

    /// The composed Theorem 3 router.
    pub fn router(&self) -> YuanRecursive<'_> {
        YuanRecursive::new(&self.net)
    }

    /// Route a permutation (always contention-free; paper's induction).
    pub fn route(&self, perm: &Permutation) -> Result<RouteAssignment, RoutingError> {
        route_all(&self.router(), perm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_nonblocking_deterministic;
    use ftclos_traffic::patterns;
    use rand::SeedableRng;

    #[test]
    fn two_level_constructor_shapes() {
        let f = NonblockingFtree::new(2, 5).unwrap();
        assert_eq!(f.ports(), 10);
        assert_eq!(f.switches(), 9);
        assert!(NonblockingFtree::new(0, 5).is_err());
    }

    #[test]
    fn same_radix_matches_table1_shape() {
        // n = 4: 20-port switches, 80 ports, 36 switches (Table I row 1).
        let f = NonblockingFtree::same_radix(4).unwrap();
        assert_eq!(f.ports(), 80);
        assert_eq!(f.switches(), 36);
        assert_eq!(f.ftree().n() + f.ftree().m(), 20);
        assert_eq!(f.ftree().r(), 20);
    }

    #[test]
    fn two_level_is_nonblocking_by_audit() {
        let f = NonblockingFtree::new(2, 6).unwrap();
        assert!(is_nonblocking_deterministic(&f.router()));
    }

    #[test]
    fn two_level_routes_random_permutations() {
        let f = NonblockingFtree::new(3, 8).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        for _ in 0..20 {
            let perm = patterns::random_full(f.ports() as u32, &mut rng);
            assert!(f.route(&perm).unwrap().max_channel_load() <= 1);
        }
    }

    #[test]
    fn three_level_counts_and_routing() {
        let f = NonblockingThreeLevel::new(2).unwrap();
        assert_eq!(f.ports(), 24);
        assert_eq!(f.switches(), 52);
        assert_eq!(f.switch_radix(), 6);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(6);
        for _ in 0..10 {
            let perm = patterns::random_full(24, &mut rng);
            assert!(f.route(&perm).unwrap().max_channel_load() <= 1);
        }
    }

    #[test]
    fn three_level_audit() {
        let f = NonblockingThreeLevel::new(2).unwrap();
        assert!(is_nonblocking_deterministic(&f.router()));
    }
}
