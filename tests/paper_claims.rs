//! The paper's evaluation *is* its table, lemmas and theorems: run every
//! `Kind::Paper` row of the claims ledger (`ftclos-bench`) at full size and
//! pin each claim, with its verdict, against `tests/snapshots/claims.txt`.
//! Wall times and witness tables are not pinned — the claims are.
//!
//! On intentional changes, regenerate with:
//! `UPDATE_SNAPSHOTS=1 cargo test --test paper_claims`

use ftclos_bench::{Experiment, Kind, REGISTRY};
use std::collections::BTreeSet;
use std::path::Path;

#[test]
fn every_paper_claim_passes_and_matches_the_golden_ledger() {
    let paper: Vec<&Experiment> = REGISTRY.iter().filter(|e| e.kind == Kind::Paper).collect();
    assert_eq!(paper.len(), 13, "E1-E10 and E12-E14");
    let mut evidence = Vec::new();
    let rows = ftclos_bench::run(&paper, &mut evidence).expect("an in-memory sink cannot fail");

    let mut claims = String::new();
    for row in &rows {
        assert!(
            row.passed(),
            "{row}\n{}",
            String::from_utf8_lossy(&evidence)
        );
        for check in &row.checks {
            let verdict = if check.ok { "PASS" } else { "FAIL" };
            claims += &format!(
                "{}\t{}\t{verdict}\t{}\n",
                row.id, row.paper_ref, check.claim
            );
        }
    }

    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/claims.txt");
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::write(&golden, &claims).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&golden).expect("tests/snapshots/claims.txt");
    for (n, (want, got)) in expected.lines().zip(claims.lines()).enumerate() {
        assert_eq!(want, got, "claims.txt line {}", n + 1);
    }
    assert_eq!(expected.lines().count(), claims.lines().count());
}

#[test]
fn registry_ids_are_unique_and_match_the_design_index() {
    let ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
    let unique: BTreeSet<&str> = ids.iter().copied().collect();
    assert_eq!(unique.len(), ids.len(), "duplicate id in {ids:?}");

    // DESIGN.md's experiment index: table rows whose first cell is an id.
    let design = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("DESIGN.md"))
        .expect("DESIGN.md");
    let is_id = |cell: &str| {
        let digits = cell.trim_start_matches(['E', 'V', 'A']);
        digits.len() < cell.len()
            && !digits.is_empty()
            && digits.bytes().all(|b| b.is_ascii_digit())
    };
    let index: BTreeSet<&str> = design
        .lines()
        .filter_map(|line| line.strip_prefix("| ")?.split(" | ").next())
        .filter(|cell| is_id(cell))
        .collect();
    assert_eq!(unique, index, "registry (left) vs DESIGN.md index (right)");
}
