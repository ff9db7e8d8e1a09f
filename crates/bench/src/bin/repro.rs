//! Run the claims ledger: every experiment, or just the ids given.
//!
//! ```text
//! cargo run --release -p ftclos-bench --bin repro            # every row
//! cargo run --release -p ftclos-bench --bin repro E6 E22     # two rows
//! ```
//!
//! Exits 0 when every row passes, 1 when a claim, a budget or a row's
//! setup fails, 2 on an unknown id.

use std::process::ExitCode;

fn main() -> ExitCode {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let experiments = match ftclos_bench::select(&ids) {
        Ok(experiments) => experiments,
        Err(usage) => {
            eprintln!("repro: {usage}");
            return ExitCode::from(2);
        }
    };
    match ftclos_bench::run(&experiments, &mut std::io::stdout().lock()) {
        Ok(rows) if rows.iter().all(|row| row.passed()) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("repro: {e}");
            ExitCode::FAILURE
        }
    }
}
