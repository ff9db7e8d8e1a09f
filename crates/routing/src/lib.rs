//! # ftclos-routing — routing algorithms for folded-Clos networks
//!
//! Implements every routing scheme the paper analyzes or uses as a
//! comparator:
//!
//! * [`YuanDeterministic`] — the Theorem 3 single-path deterministic routing
//!   that makes `ftree(n+n², r)` nonblocking: SD pair `(s=(v,i), d=(w,j))`
//!   goes through top switch `(i, j)`.
//! * [`DModK`] / [`SModK`] — destination-/source-modular deterministic
//!   routings (the InfiniBand-style defaults); blocking when `m < n²`, used
//!   to exhibit Theorem 2 witnesses. These two and [`YuanDeterministic`]
//!   declare their top-choice [`TopRule`], from which `ftclos-core` counts
//!   the Lemma 1 census without routing.
//! * [`ObliviousMultipath`] — traffic-oblivious multi-path spreading
//!   (deterministic round-robin or per-packet random), Section IV.B.
//! * [`NonblockingAdaptive`] — the paper's Fig. 4 local adaptive algorithm
//!   (configurations of `c+1` partitions of `n` top switches each, greedy
//!   largest-subset selection), Theorems 4-5.
//! * [`GreedyLocalAdaptive`] — a least-loaded local adaptive baseline (in
//!   the spirit of Kim/Dally/Abts adaptive routing) that reduces but does
//!   not eliminate blocking.
//! * [`RearrangeableRouter`] — centralized rearrangeable routing via
//!   bipartite multigraph edge coloring (the Beneš `m >= n` construction);
//!   this is the "global adaptive / centralized controller" scheme the
//!   paper contrasts against.
//! * [`YuanRecursive`] — the composed routing for the three-level
//!   [`ftclos_topo::RecursiveNonblocking`] network.
//! * [`LinkLoadView`] — the uniform per-link flow-set interface every router
//!   (including the fault-masked variants) exposes to the fluid flow-rate
//!   simulator in `ftclos-flowsim`.
//! * [`MinCongestion`] — the load-aware min-congestion router family
//!   (greedy min-max placement, seeded randomized rounding, local-search
//!   repair) planning whole patterns at once behind the [`GlobalRouter`]
//!   plan step, then lowering onto [`SinglePathRouter`] / [`LinkLoadView`].
//! * [`PathArena`] — every SD path of a single-path router precomputed once
//!   into CSR storage (pair → path and channel → pair incidence), so the
//!   exact analyzers in `ftclos-core` and the fluid flow expansion index
//!   instead of re-routing.

pub mod adaptive;
pub mod arena;
pub mod assignment;
pub mod churn;
pub mod congestion;
pub mod dmodk;
pub mod error;
pub mod fault_aware;
pub mod greedy;
pub mod loadview;
pub mod multipath;
pub mod path;
pub mod rearrangeable;
pub mod recursive;
pub mod router;
pub mod xgft_routing;
pub mod yuan;

pub use adaptive::{AdaptivePlan, NonblockingAdaptive, PlanStrategy};
pub use arena::{ArenaLoadView, PathArena};
pub use assignment::RouteAssignment;
pub use churn::{EpochPlan, EpochPlanner, LinkAdmission};
pub use congestion::{
    demand_lower_bound, CongestionConfig, CongestionMode, CongestionPlan, FnCandidates,
    FtreeCandidates, GlobalRouter, LoweredPlan, MinCongestion, PathCandidates, PlanLoadView,
};
pub use dmodk::{DModK, SModK, TopRule};
pub use error::RoutingError;
pub use fault_aware::FaultAware;
pub use greedy::GreedyLocalAdaptive;
pub use loadview::{FlowLinks, LinkLoadView, MaskedAdaptive, MaskedMultipath};
pub use multipath::{MultipathAssignment, ObliviousMultipath, SpreadPolicy};
pub use path::Path;
pub use rearrangeable::RearrangeableRouter;
pub use recursive::YuanRecursive;
pub use router::{route_all, PatternRouter, SinglePathRouter};
pub use xgft_routing::{UpChoice, XgftRouter};
pub use yuan::YuanDeterministic;
