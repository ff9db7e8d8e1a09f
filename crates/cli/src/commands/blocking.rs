//! `ftclos blocking <n> <m> <r> [--router R] [--samples N] [--seed S]` —
//! estimate the blocking probability over random permutations.

use super::common::RouterName::{self, Adaptive, DModK, Greedy, Rearrangeable, SModK, Yuan};
use super::common::{build_ftree, fabric, route_named};
use crate::opts::{CliError, Opts};
use ftclos_obs::{Recorder as _, Registry};
use ftclos_traffic::patterns;
use rand::SeedableRng;
use std::fmt::Write as _;

/// The routers `--router` takes, default first.
pub(crate) const ROSTER: &[RouterName] = &[DModK, Yuan, SModK, Adaptive, Greedy, Rearrangeable];

/// Run the command.
pub fn run(opts: &Opts, rec: &Registry) -> Result<String, CliError> {
    let ft = build_ftree(opts)?;
    let router = RouterName::flag(opts, ROSTER)?;
    let samples: usize = opts.flag_or("samples", 200)?;
    let seed: u64 = opts.flag_or("seed", 0)?;
    let ports = ft.num_leaves() as u32;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut blocked = 0usize;
    let mut max_load_seen = 0u32;
    let sample_span = rec.span("blocking.sample");
    for _ in 0..samples {
        let perm = patterns::random_full(ports, &mut rng);
        match route_named(&ft, router, &perm) {
            Ok(a) => {
                let load = a.max_channel_load();
                max_load_seen = max_load_seen.max(load);
                if load > 1 {
                    blocked += 1;
                }
            }
            Err(_) => blocked += 1, // fabric too small for the scheme
        }
    }
    drop(sample_span);
    rec.add("blocking.permutations", samples as u64);
    rec.add("blocking.blocked", blocked as u64);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} under `{router}`: {samples} random permutations",
        fabric(&ft)
    );
    let _ = writeln!(
        out,
        "  blocking fraction = {:.3} ({blocked}/{samples} blocked, worst link load {max_load_seen})",
        blocked as f64 / samples.max(1) as f64
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Opts {
        Opts::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn dmodk_blocks_sometimes() {
        let reg = Registry::new();
        let out = run(&argv("2 2 5 --samples 60"), &reg).unwrap();
        assert!(out.contains("blocking fraction"));
        assert!(!out.contains("= 0.000"));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("blocking.permutations"), Some(60));
        assert!(snap.counter("blocking.blocked").unwrap_or(0) > 0);
    }

    #[test]
    fn yuan_never_blocks() {
        let out = run(&argv("2 4 5 --router yuan --samples 60"), &Registry::new()).unwrap();
        assert!(out.contains("= 0.000"));
    }

    #[test]
    fn unknown_router() {
        assert!(run(&argv("2 4 5 --router warp"), &Registry::new()).is_err());
    }
}
