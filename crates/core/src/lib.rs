//! # ftclos-core — nonblocking folded-Clos networks as a library
//!
//! The paper's contribution, executable:
//!
//! * [`verify`] — the Lemma 1 machinery: the exact nonblocking decision
//!   procedure for single-path deterministic routing, its per-direction
//!   (up/down) form, per-pattern contention, and Section IV.B's test over
//!   multipath candidate unions.
//! * [`engine`] — Lemma 1 decided from a two-word-per-channel census, the
//!   one production form of the predicate: counted from a router's
//!   top-choice rule or streamed from its paths (no stored paths), one
//!   witness rule for every caller, and the arena-backed contention engine
//!   for callers that need random access to the paths. The `HashMap`
//!   audits it replaced are differential oracles in `tests/oracle`.
//! * [`sweep`] — the one all-pairs sweep: route every SD pair on contiguous
//!   per-thread source blocks and fold the paths into accumulators merged in
//!   block order (the Lemma 1 census and the CDG build run on it).
//! * [`search`] — blocking-permutation search: complete two-pair enumeration
//!   for deterministic routers (Lemma 1 reduces blocking to two-pair
//!   patterns, decided by the streaming audit), exhaustive permutation
//!   sweeps for tiny fabrics, randomized sweeps and blocking-fraction
//!   estimation (rayon-parallel) for everything else.
//! * [`lemma2`] — the Lemma 2 counting problem: the maximum number of SD
//!   pairs routable through one top-level switch, with an exact mode-based
//!   solver for small fabrics, an explicit `r(r-1)` construction, and the
//!   paper's bounds.
//! * [`construct`] — bundled nonblocking fabrics: `ftree(n+n², r)` with the
//!   Theorem 3 routing and the recursive three-level network, both
//!   self-verifying.
//! * [`design`] — the Table I cost calculator: given a switch radix, the
//!   largest nonblocking fabric (ours) vs the rearrangeable m-port n-tree.
//! * [`flow`] — flow-level throughput estimates from link loads.
//!
//! ```
//! use ftclos_core::construct::NonblockingFtree;
//! use ftclos_traffic::patterns;
//! use rand::SeedableRng;
//!
//! let fabric = NonblockingFtree::new(2, 5).unwrap(); // ftree(2+4, 5)
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let perm = patterns::random_full(fabric.ports() as u32, &mut rng);
//! let assignment = fabric.route(&perm).unwrap();
//! assert!(assignment.max_channel_load() <= 1); // nonblocking
//! ```

pub mod campaign;
pub mod cdg;
pub mod churn;
pub mod circuit;
pub mod construct;
pub mod degraded;
pub mod design;
pub mod engine;
pub mod flow;
pub mod lemma2;
pub(crate) mod rule;
pub mod search;
pub mod sweep;
pub mod verify;
pub mod wide_sense;

pub use campaign::{
    cable_universe, certify_exhaustive_with, run_randomized_with, shrink, top_switch_universe,
    AdaptiveRoutability, ArenaRoutability, CampaignConfig, CampaignError, CampaignProperty,
    CampaignReport, Certificate, DeadlockFreedom, FaultElement, FaultVector, Judgement, Killer,
    NonblockingMargin,
};
pub use cdg::{
    analyze_router_with, attribute_witness, cdg_of_masked_router_with, cdg_of_multipath_with,
    cdg_of_router_with, deadlock_sweep_with, unique_churn_fault_sets, ChannelDependencyGraph,
    CycleAnalysis, DeadlockVerdict, SweepEntry, ValleyRouter, WitnessEdge,
};
pub use churn::{
    availability, min_m_for_availability, AvailabilityReport, ChurnEvent, EpochVerdict,
};
pub use circuit::{CircuitClos, ConnectError, MiddlePolicy};
pub use construct::{NonblockingFtree, NonblockingThreeLevel};
pub use degraded::{
    adaptive_degraded_verdict, deterministic_degradation, max_survivable_top_failures,
    DegradedVerdict, DeterministicDegradation,
};
pub use engine::{
    crossing_pairs, lemma1_audit_with, lemma1_census, ContentionEngine, ContentionScratch,
};
pub use search::{find_blocking_two_pair, TwoPairOutcome};
pub use verify::{
    multipath_violation, nonblocking_verdict, pattern_contention_free, ContentionWitness,
    NonblockingVerdict,
};
