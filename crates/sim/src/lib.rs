//! # ftclos-sim — cycle-level packet simulation of folded-Clos fabrics
//!
//! The paper's motivation rests on the observation (refs \[5\], \[7\]) that
//! "nonblocking" fat-trees with distributed control deliver far less than
//! crossbar throughput under permutation traffic. This crate reproduces that
//! behaviour with a synchronous cycle-level model, implemented once (the
//! [`Kernel`]) and run under one of two schedules:
//!
//! * [`EventSimulator`] visits only the components with pending work and
//!   fast-forwards over inert drain cycles. Every production simulation —
//!   `ftclos simulate`, `churn`, `deadlock --inject`, `campaign --confirm`,
//!   [`sweep_injection_rates`] and the `repro` rows — runs it.
//! * [`Simulator`] visits every component every cycle and remembers nothing
//!   between cycles. It is the oracle the event schedule is
//!   differential-tested against (`--engine cycle`).
//!
//! The two return identical statistics, churn reports and errors for
//! identical inputs. The switch model they share:
//!
//! * input-queued switches with per-input FIFOs and round-robin output
//!   arbitration (one packet per output channel per cycle),
//! * credit-style backpressure (a packet advances only if the downstream
//!   queue has space),
//! * open-loop Bernoulli injection at the leaves,
//! * pluggable path selection ([`Policy`]): fixed assignments (from any
//!   pattern router), per-packet oblivious multipath (round-robin or
//!   random), and local queue-length-adaptive selection at the source
//!   switch — adaptivity only at the input switch, exactly the locality the
//!   paper's Section V argues is all a fat-tree has. Whatever the choice,
//!   the candidate paths sit in one CSR route table; a packet carries a row
//!   id and a hop count, and the kernel resolves its next channel through
//!   `Policy::path`.
//!
//! The headline experiment (E11): under random permutations, the Theorem 3
//! fabric and a crossbar deliver ~100% throughput while a same-cost
//! rearrangeable fat-tree with `d mod k` routing saturates well below.
//!
//! ```
//! use ftclos_sim::{EventSimulator, Policy, SimConfig, Workload};
//! use ftclos_topo::Ftree;
//! use ftclos_routing::{route_all, YuanDeterministic};
//! use ftclos_traffic::patterns;
//! use rand::SeedableRng;
//!
//! let ft = Ftree::new(2, 4, 5).unwrap();
//! let router = YuanDeterministic::new(&ft).unwrap();
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let perm = patterns::random_full(10, &mut rng);
//! let policy = Policy::from_assignment(&route_all(&router, &perm).unwrap());
//! let cfg = SimConfig { warmup_cycles: 100, measure_cycles: 400, ..SimConfig::default() };
//! let stats = EventSimulator::new(ft.topology(), cfg, policy)
//!     .run(&Workload::permutation(&perm, 0.9), 42);
//! assert!(stats.accepted_throughput() > 0.85); // nonblocking ≈ line rate
//! ```

mod active;
pub mod batch;
pub mod churn;
pub mod config;
mod engine;
pub mod error;
mod event;
pub mod fault;
mod kernel;
pub mod policy;
pub mod state;
pub mod stats;
mod wheel;
pub mod witness;
pub mod workload;

pub use batch::sweep_injection_rates;
pub use churn::{ChurnConfig, ChurnReport, EpochStats, ReplanMode};
pub use config::{Arbiter, SimConfig};
pub use engine::Simulator;
pub use error::{ConfigError, SimError, StallReport};
pub use event::EventSimulator;
pub use fault::{ChurnSchedule, FaultEvent, FaultSchedule};
pub use kernel::Kernel;
pub use policy::Policy;
pub use state::{PagedVec, SimArena};
pub use stats::{ChannelBusy, SimStats, UtilizationHistogram};
pub use witness::{run_pinned_injection_watchdog_recorded, PinnedRoute, WitnessRun};
pub use workload::Workload;
