//! Command implementations. Each command is `run(&Opts, &Registry)`:
//! arguments plus the run's observability registry (span timers / counters
//! for `--trace`) in, and out either text or, for the five commands that
//! take `--json`, a [`Report`].

pub mod blocking;
pub mod build;
pub mod campaign;
pub mod churn;
pub mod common;
pub mod congestion;
pub mod deadlock;
pub mod design;
pub mod faults;
pub mod flowsim;
pub mod route;
pub mod simulate;
pub mod stats;
pub mod table1;
pub mod verify;

use crate::opts::CliError;
use ftclos_obs::json::Json;

/// What a report command's `run` returns.
pub type Reported = Result<Box<dyn Report>, CliError>;

/// What a `--json` command gathers: `Display` is its text, [`Report::json`]
/// the one JSON document `--json` prints instead. Both read the same fields.
pub trait Report: std::fmt::Display {
    /// The report as one JSON value, written by [`Json::write`].
    fn json(&self) -> Json;
}
