//! Event-driven simulator core for folded-Clos fabrics at 100k+ hosts.
//!
//! The cycle-level engine in `ftclos-sim` looks at every channel of the
//! fabric every cycle — exact, simple, and `O(channels)` per cycle, which
//! is fine at thousands of hosts and hopeless at a hundred thousand
//! (a 3-level recursive nonblocking fabric for ~100k hosts has tens of
//! millions of directed channels, almost all of them idle in any given
//! cycle). This crate keeps the *kernel* and changes the *schedule*:
//!
//! * [`EventSimulator`] is [`ftclos_sim::Kernel`] — the one implementation
//!   of every simulation phase — under [`ActiveSchedule`], which tracks
//!   exactly which components have pending work (non-empty queues, queued
//!   injections) and has the kernel visit only those, and
//! * [`EventWheel`] orders future wake-ups (packet ready times, wire
//!   releases, TTL deadlines) so the drain phase can fast-forward over
//!   provably-inert cycles instead of executing them.
//!
//! For identical inputs it reproduces the cycle engine's
//! [`ftclos_sim::SimStats`] exactly — every counter, every latency
//! percentile, every per-channel busy count, and every error, stall
//! diagnoses included. The phases are shared code, so that can only fail
//! if the schedule omits a visit; the differential tests in this crate and
//! in `tests/evsim_differential.rs` at the workspace root check exactly
//! that against [`ftclos_sim::Simulator`], whose dense schedule keeps no
//! memory of past activity and never skips a cycle.
//!
//! The whole `ftclos-sim` vocabulary — [`ftclos_sim::Workload`],
//! [`ftclos_sim::Policy`], [`ftclos_sim::FaultSchedule`],
//! [`ftclos_sim::ChurnSchedule`], [`ftclos_sim::SimConfig`],
//! [`ftclos_sim::SimError`] — applies unchanged, so existing workloads,
//! fault campaigns, and churn studies run on either engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod active;
mod engine;
mod wheel;

pub use engine::{ActiveSchedule, EventSimulator};
pub use wheel::EventWheel;
