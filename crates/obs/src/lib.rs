//! # ftclos-obs — the observability spine of the ftclos workspace
//!
//! A lightweight, zero-dependency instrumentation layer: hierarchical span
//! timers, atomic counters / gauges / log-bucketed histograms, and an
//! epoch-snapshot registry that serializes to the trace JSON `ftclos
//! --trace` writes. Every hot path in the workspace —
//! `core::engine`, `flowsim::waterfill`, `sim::engine`, `routing::arena` —
//! threads a [`Recorder`] through its work; the default [`Noop`] recorder
//! monomorphizes to nothing, so un-traced runs pay zero cost (what a live
//! [`Registry`] costs is reported per workload by the repo benchmark's
//! traced-vs-untraced pass, see `benchmark/README.md`).
//!
//! ## The three layers
//!
//! * [`Recorder`] — the trait hot paths are generic over. [`Noop`]
//!   implements it with empty inlined bodies; [`Registry`] implements it
//!   for real.
//! * [`Registry`] — the concrete sink: named atomic [`Counter`]s,
//!   [`Gauge`]s and histograms (registered once, bumped lock-free), a
//!   mutex-guarded span tree for coarse phase timers, and an epoch log
//!   capturing cumulative counter/gauge values at caller-chosen boundaries
//!   (the simulator marks one epoch per churn transition).
//! * [`Snapshot`] — a frozen, deterministic view of a registry:
//!   [`Snapshot::to_json`] emits the trace JSON `ftclos --trace` writes
//!   (stable field order — everything is sorted by name); `ftclos stats
//!   --folded` re-emits a trace as flamegraph-ready folded stacks.
//!
//! ## Reading traces back
//!
//! [`json`] is the JSON this workspace emits and reads (there is no
//! serde_json in-tree): every `ftclos --json` report is a [`json::Json`]
//! value written by [`json::Json::write`], and `ftclos stats` and the
//! snapshot tests parse traces back with [`json::Json::parse`].
//!
//! ```
//! use ftclos_obs::{Recorder, Registry};
//!
//! let reg = Registry::new();
//! {
//!     let _outer = reg.span("solve");
//!     let _inner = reg.span("bottleneck_scan");
//!     reg.add("rounds", 1);
//!     reg.observe("frozen_flows", 12);
//! }
//! reg.mark_epoch("steady");
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("rounds"), Some(1));
//! assert!(snap.to_json("demo", "").contains("\"solve;bottleneck_scan\""));
//! ```

pub mod json;
pub mod recorder;
pub mod registry;

pub use recorder::{Noop, Recorder};
pub use registry::{
    Counter, EpochSnapshot, Gauge, HistogramSnapshot, Registry, Snapshot, SpanSnapshot,
};
