//! `ftclos verify <n> <m> <r> [--router R]` — complete Lemma 1 audit.

use super::common::RouterName::{self, DModK, SModK, Yuan};
use super::common::{build_ftree, fabric, SinglePath};
use crate::opts::{CliError, Opts};
use ftclos_core::lemma1_audit_with;
use ftclos_obs::Registry;
use std::fmt::Write as _;

/// The routers `--router` takes, default first: the deterministic ones.
pub(crate) const ROSTER: &[RouterName] = &[Yuan, DModK, SModK];

/// Run the command.
pub fn run(opts: &Opts, rec: &Registry) -> Result<String, CliError> {
    let ft = build_ftree(opts)?;
    let name = RouterName::flag(opts, ROSTER)?;
    let router = SinglePath::new(&ft, name)?;
    let violation = lemma1_audit_with(&router, rec).map_err(|e| CliError::Failed(e.to_string()))?;
    let mut out = format!("audit of {} under `{name}` routing:\n", fabric(&ft));
    match violation {
        None => {
            let _ = writeln!(
                out,
                "NONBLOCKING: every link carries one source or one destination \
                 across all SD pairs (Lemma 1)"
            );
        }
        Some(v) => {
            let _ = writeln!(
                out,
                "BLOCKING: link {} carries multiple sources AND destinations",
                v.channel
            );
            let _ = writeln!(
                out,
                "  witness permutation: ({} -> {}) and ({} -> {}) contend",
                v.sources[0], v.destinations[0], v.sources[1], v.destinations[1]
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Opts {
        Opts::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn yuan_passes() {
        let out = run(&argv("2 4 5"), &Registry::new()).unwrap();
        assert!(out.contains("NONBLOCKING"));
    }

    #[test]
    fn dmodk_blocks_with_witness() {
        let out = run(&argv("2 2 5 --router dmodk"), &Registry::new()).unwrap();
        assert!(out.contains("BLOCKING"));
        assert!(out.contains("witness permutation"));
    }

    #[test]
    fn yuan_rejects_small_m() {
        assert!(run(&argv("2 3 5"), &Registry::new()).is_err());
    }

    #[test]
    fn adaptive_not_supported_here() {
        assert!(run(&argv("2 4 5 --router adaptive"), &Registry::new()).is_err());
    }

    #[test]
    fn audit_records_closed_form_spans() {
        // Every router on the roster declares its top-choice rule, so the
        // audit counts instead of sweeping: no pair is routed, no thread
        // gauge is set.
        let reg = Registry::new();
        run(&argv("2 4 5"), &reg).unwrap();
        let snap = reg.snapshot();
        let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(
            paths,
            ["lemma1.closed_form"],
            "clean audits need no witness"
        );
        assert_eq!(snap.counter("lemma1.paths"), Some(90));
        assert_eq!(snap.gauge("par.threads"), None);

        for router in ["dmodk", "smodk"] {
            let reg = Registry::new();
            run(&argv(&format!("2 2 5 --router {router}")), &reg).unwrap();
            let snap = reg.snapshot();
            let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
            assert_eq!(paths, ["lemma1.closed_form", "lemma1.witness"], "{router}");
        }
    }
}
