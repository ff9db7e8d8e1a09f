//! The event-driven simulator, kept under its old crate name: it now lives in `ftclos-sim`.

pub use ftclos_sim::EventSimulator;
