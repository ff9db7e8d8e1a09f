//! Network design calculators — the paper's Discussion section and Table I.

use serde::{Deserialize, Serialize};

/// One designed fabric: switch radix in, size and cost out.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DesignPoint {
    /// Port count of the building-block switches.
    pub radix: usize,
    /// The `n` parameter of the construction.
    pub n: usize,
    /// Fabric port (leaf) count.
    pub ports: usize,
    /// Number of switches consumed.
    pub switches: usize,
}

impl DesignPoint {
    /// Switches per fabric port (cost density; lower is cheaper).
    pub fn switches_per_port(&self) -> f64 {
        self.switches as f64 / self.ports as f64
    }
}

/// Largest `n` with `n + n² <= radix` (the biggest two-level nonblocking
/// construction realizable from `radix`-port switches).
pub(crate) fn largest_n_for_radix(radix: usize) -> usize {
    // n = floor((sqrt(4·radix + 1) - 1) / 2), computed by integer search to
    // dodge float edge cases.
    let mut n = 0usize;
    while (n + 1) + (n + 1) * (n + 1) <= radix {
        n += 1;
    }
    n
}

/// Design the paper's two-level nonblocking `ftree(n+n², n+n²)` from
/// `radix`-port switches (Table I, left half). Uses the largest feasible
/// `n`; returns `None` if even `n = 1` does not fit (radix < 2).
pub fn nonblocking_two_level(radix: usize) -> Option<DesignPoint> {
    let n = largest_n_for_radix(radix);
    if n == 0 {
        return None;
    }
    let r = n + n * n;
    Some(DesignPoint {
        radix,
        n,
        ports: r * n,
        switches: r + n * n,
    })
}

/// Design the rearrangeable `FT(radix, 2)` m-port 2-tree (Table I, right
/// half): `radix²/2` ports from `3·radix/2` switches. Requires even radix
/// ≥ 2.
pub fn mport_two_tree(radix: usize) -> Option<DesignPoint> {
    if radix < 2 || !radix.is_multiple_of(2) {
        return None;
    }
    let half = radix / 2;
    Some(DesignPoint {
        radix,
        n: half,
        ports: 2 * half * half,
        switches: 3 * half,
    })
}

/// Design the three-level nonblocking network from `radix`-port switches:
/// `n⁴ + n³` ports from `2n⁴ + 2n³ + n²` switches.
pub fn nonblocking_three_level(radix: usize) -> Option<DesignPoint> {
    let n = largest_n_for_radix(radix);
    if n == 0 {
        return None;
    }
    Some(DesignPoint {
        radix,
        n,
        ports: n.pow(4) + n.pow(3),
        switches: 2 * n.pow(4) + 2 * n.pow(3) + n.pow(2),
    })
}

/// One row of the paper's Table I: both designs for one switch radix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableOneRow {
    /// Building-block switch radix.
    pub radix: usize,
    /// Our nonblocking `ftree(n+n², n+n²)`.
    pub nonblocking: DesignPoint,
    /// The rearrangeable `FT(radix, 2)` baseline.
    pub rearrangeable: DesignPoint,
}

/// Regenerate Table I for the given switch radices (the paper uses 20, 30,
/// 42). Returns one row per radix that both constructions support.
pub fn table_one(radices: &[usize]) -> Vec<TableOneRow> {
    radices
        .iter()
        .filter_map(|&radix| {
            Some(TableOneRow {
                radix,
                nonblocking: nonblocking_two_level(radix)?,
                rearrangeable: mport_two_tree(radix)?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn largest_n() {
        assert_eq!(largest_n_for_radix(1), 0);
        assert_eq!(largest_n_for_radix(2), 1);
        assert_eq!(largest_n_for_radix(5), 1);
        assert_eq!(largest_n_for_radix(6), 2);
        assert_eq!(largest_n_for_radix(19), 3);
        assert_eq!(largest_n_for_radix(20), 4);
        assert_eq!(largest_n_for_radix(30), 5);
        assert_eq!(largest_n_for_radix(42), 6);
    }

    #[test]
    fn table_one_matches_paper() {
        // Paper Table I: 20-port: 36 switches / 80 ports vs 30 / 200;
        // 30-port: 55 / 150 vs 45 / 450; 42-port: 88* / 252 vs 63 / 884*.
        let rows = table_one(&[20, 30, 42]);
        assert_eq!(rows.len(), 3);

        assert_eq!(rows[0].nonblocking.ports, 80);
        assert_eq!(rows[0].nonblocking.switches, 36);
        assert_eq!(rows[0].rearrangeable.ports, 200);
        assert_eq!(rows[0].rearrangeable.switches, 30);

        assert_eq!(rows[1].nonblocking.ports, 150);
        assert_eq!(rows[1].nonblocking.switches, 55);
        assert_eq!(rows[1].rearrangeable.ports, 450);
        assert_eq!(rows[1].rearrangeable.switches, 45);

        assert_eq!(rows[2].nonblocking.ports, 252);
        assert_eq!(rows[2].nonblocking.switches, 78);
        assert_eq!(rows[2].rearrangeable.ports, 882);
        assert_eq!(rows[2].rearrangeable.switches, 63);
        // Note: the paper's printed 42-port row says 88 switches and 884
        // ports; the formulas (2n²+n with n=6 → 78; N²/2 with N=42 → 882)
        // give 78 and 882. See EXPERIMENTS.md E1.
    }

    #[test]
    fn infeasible_radices() {
        assert!(nonblocking_two_level(1).is_none());
        assert!(mport_two_tree(7).is_none());
        assert!(mport_two_tree(0).is_none());
        assert!(nonblocking_three_level(1).is_none());
        assert!(table_one(&[1, 7]).is_empty());
    }

    #[test]
    fn three_level_scaling() {
        // n = 4 (20-port switches): 320 ports, 672 switches.
        let d = nonblocking_three_level(20).unwrap();
        assert_eq!(d.n, 4);
        assert_eq!(d.ports, 256 + 64);
        assert_eq!(d.switches, 512 + 128 + 16);
    }

    #[test]
    fn cost_density_ordering() {
        // Nonblocking costs more switches per port than rearrangeable —
        // the price of crossbar-equivalent behaviour.
        for radix in [20usize, 30, 42] {
            let nb = nonblocking_two_level(radix).unwrap();
            let ra = mport_two_tree(radix).unwrap();
            assert!(nb.switches_per_port() > ra.switches_per_port());
        }
    }
}
