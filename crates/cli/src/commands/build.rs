//! `ftclos build <n> <m> <r> [--dot FILE]` — construct and describe a fabric.

use super::common::{build_ftree, fabric};
use crate::opts::{CliError, Opts};
use ftclos_obs::Registry;
use ftclos_topo::dot::{to_dot, DotOptions};
use ftclos_topo::{diameter, StructureReport};
use std::fmt::Write as _;

/// Run the command.
pub fn run(opts: &Opts, _rec: &Registry) -> Result<String, CliError> {
    let ft = build_ftree(opts)?;
    let rep = StructureReport::new(ft.topology());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} leaves, {} switches, {} cables",
        fabric(&ft),
        rep.leaves,
        rep.total_switches(),
        rep.cables
    );
    let _ = writeln!(
        out,
        "  bottom radix {} | top radix {} | diameter {} hops",
        ft.n() + ft.m(),
        ft.r(),
        diameter(ft.topology()).map_or("inf".into(), |d| d.to_string())
    );
    let n2 = ft.n() * ft.n();
    let _ = writeln!(
        out,
        "  nonblocking condition (Theorem 2): m >= n^2 = {n2} -> {}",
        if ft.m() >= n2 {
            "SATISFIED (use --router yuan)"
        } else {
            "NOT satisfied (every deterministic routing blocks)"
        }
    );
    if let Some(path) = opts.flag("dot") {
        let dot = to_dot(ft.topology(), &DotOptions::default());
        std::fs::write(path, dot)
            .map_err(|e| CliError::Failed(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(out, "  DOT written to {path}");
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
    fn describes_fabric() {
        let out = run(&argv("2 4 5"), &Registry::new()).unwrap();
        assert!(out.contains("10 leaves"));
        assert!(out.contains("SATISFIED"));
        let out = run(&argv("2 3 5"), &Registry::new()).unwrap();
        assert!(out.contains("NOT satisfied"));
    }

    #[test]
    fn writes_dot() {
        let dir = std::env::temp_dir().join("ftclos_cli_test.dot");
        let spec = format!("2 2 3 --dot {}", dir.display());
        let out = run(&argv(&spec), &Registry::new()).unwrap();
        assert!(out.contains("DOT written"));
        let content = std::fs::read_to_string(&dir).unwrap();
        assert!(content.starts_with("graph"));
        let _ = std::fs::remove_file(dir);
    }

    #[test]
    fn rejects_zero() {
        assert!(run(&argv("0 1 1"), &Registry::new()).is_err());
    }
}
