//! # ftclos-flowsim — fluid flow-rate simulation of folded-Clos fabrics
//!
//! The packet engine in `ftclos-sim` answers "what happens cycle by
//! cycle"; this crate answers "what rate does each flow *settle at*" —
//! the max-min fair fixed point of a routed traffic pattern, solved in
//! closed form by progressive water-filling. No packets, no cycles, no
//! randomness: the answer for ten thousand hosts arrives in milliseconds
//! and is bit-identical across runs and thread counts.
//!
//! Pipeline:
//!
//! 1. A [`LinkLoadView`](ftclos_routing::LinkLoadView) (any deterministic
//!    router, oblivious multipath, a NONBLOCKINGADAPTIVE plan, or their
//!    fault-masked variants) expands a permutation into per-flow
//!    `(channel, weight)` link sets.
//! 2. [`FlowSet`] compacts those into dual CSR form — flow → links for
//!    rate bookkeeping, channel → flows for the freeze step.
//! 3. [`waterfill_with`] runs progressive filling against per-channel
//!    [`ChannelCapacities`](ftclos_topo::ChannelCapacities) to the
//!    max-min fair fixed point ([`FluidAllocation`]).
//! 4. [`FluidReport`] summarizes rates, congestion, and a link-utilization
//!    histogram in the same shape the packet engine reports; batch sweeps
//!    run via [`sweep_patterns_with`].
//!
//! The [`differential`] module ties the model back to the paper's exact
//! combinatorics: on unit-capacity fabrics with single-path routing,
//! "every flow at rate 1.0" coincides with the Lemma 1 contention check
//! per pattern, and with the full nonblocking verdict over the complete
//! two-pair family per fabric.

#![warn(missing_docs)]

pub mod differential;
mod flows;
mod report;
mod sweep;
mod waterfill;

pub use differential::{
    check_fabric, check_multipath_pattern, check_pattern, FabricAgreement, PatternAgreement,
};
pub use flows::{FlowError, FlowSet};
pub use report::FluidReport;
pub use sweep::{solve_pattern_with, standard_suite, sweep_patterns_with};
pub use waterfill::{waterfill_with, FluidAllocation};
