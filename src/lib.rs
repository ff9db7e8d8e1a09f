//! # ftclos — nonblocking folded-Clos networks in computer communication environments
//!
//! A reproduction of *Xin Yuan, "On Nonblocking Folded-Clos Networks in
//! Computer Communication Environments", IPDPS 2011*, as a production-grade
//! Rust library. This meta-crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`topo`] | `ftclos-topo` | `ftree(n+m,r)`, `Clos(n,m,r)`, XGFT / k-ary n-tree / m-port n-tree, crossbars, the recursive 3-level nonblocking construction |
//! | [`traffic`] | `ftclos-traffic` | SD pairs, validated permutations, structured/random/adversarial patterns, exhaustive enumerators |
//! | [`routing`] | `ftclos-routing` | Theorem 3 deterministic routing, `d mod k`, oblivious multipath, NONBLOCKINGADAPTIVE (Fig. 4), greedy local adaptive, centralized edge-coloring |
//! | [`core`] | `ftclos-core` | Lemma 1 audits, blocking search, Lemma 2 solvers, bundled nonblocking fabrics, Table I designs |
//! | [`sim`] | `ftclos-sim` | cycle-level VOQ packet simulator with pluggable path policies: the event-driven schedule every run uses (`EventSimulator`, 100k+ host fabrics) and the dense one, its oracle (`Simulator`) |
//! | [`evsim`] | `ftclos-evsim` | `EventSimulator`, re-exported from `ftclos-sim` under its old crate name |
//! | [`flowsim`] | `ftclos-flowsim` | deterministic max-min fair fluid flow-rate simulator (water-filling) for delivered throughput at datacenter scale |
//! | [`analysis`] | `ftclos-analysis` | closed-form bounds, recurrences, power-law fits, cost models |
//! | [`obs`] | `ftclos-obs` | zero-dep observability: span timers, counters/gauges/histograms, epoch snapshots, trace JSON + folded stacks |
//!
//! ## Quick start
//!
//! ```
//! use ftclos::core::construct::NonblockingFtree;
//! use ftclos::traffic::patterns;
//! use rand::SeedableRng;
//!
//! // The cheapest nonblocking two-level fabric for n = 3: ftree(3+9, 12).
//! let fabric = NonblockingFtree::same_radix(3).unwrap();
//! assert_eq!(fabric.ports(), 36);
//!
//! // Any permutation routes with zero contention (Theorem 3).
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let perm = patterns::random_full(fabric.ports() as u32, &mut rng);
//! let routes = fabric.route(&perm).unwrap();
//! assert_eq!(routes.max_channel_load(), 1);
//! ```

pub use ftclos_analysis as analysis;
pub use ftclos_core as core;
pub use ftclos_evsim as evsim;
pub use ftclos_flowsim as flowsim;
pub use ftclos_obs as obs;
pub use ftclos_routing as routing;
pub use ftclos_sim as sim;
pub use ftclos_topo as topo;
pub use ftclos_traffic as traffic;
