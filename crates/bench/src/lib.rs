//! # ftclos-bench — the claims ledger
//!
//! Every table, figure, lemma and theorem of the paper — plus the
//! extensions grown around them — is one [`Experiment`] row of
//! [`REGISTRY`] (ids as in `DESIGN.md`'s experiment index). A row is a
//! function over a [`Ctx`]: it prints its evidence to the context's sink and
//! states each claim through [`Ctx::check`], which appends it to the ledger.
//! [`run`] executes rows in-process, turns a row's `Err` into that row's
//! `ERROR` without stopping the others, and ends with one summary table.
//!
//! The `repro` binary is the only front end: no arguments runs every row,
//! positional ids (`repro E6 E22`) run just those. The root package's
//! `tests/paper_claims.rs` runs every [`Kind::Paper`] row on each
//! `cargo test` and compares the claims with `tests/snapshots/claims.txt`.
//!
//! Wall time is read off the context's obs [`Registry`] — one span per row —
//! and only to enforce a row's `budget_s`. How fast each layer is, is the
//! repo benchmark's question (`benchmark/README.md`), not this crate's.

use ftclos_obs::{Recorder, Registry};
use ftclos_routing::SinglePathRouter;
use ftclos_sim::{Policy, SimConfig, SimError, Simulator, Workload};
use ftclos_topo::{ChannelId, Crossbar, Topology};
use ftclos_traffic::SdPair;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::error::Error;
use std::fmt;
use std::io::{self, Write};

mod ablation;
mod adaptive;
mod blocking;
mod churn;
mod classical;
mod cost;
mod faults;
mod figures;
mod flowsim;
mod kary;
mod lemma2;
mod multipath;
mod recursive;
mod scale;
mod simval;
mod table1;
mod thm2;
mod thm3;
mod throughput;

/// Base seed of every row, so the whole ledger is reproducible.
pub const SEED: u64 = 0x5EED_F01D;

/// What a row's `run` returns: `Err` is a setup failure (unbuildable
/// fabric, unroutable reference pattern, unwritable artifact), not a
/// refuted claim — claims go through [`Ctx::check`].
pub type RowResult = Result<(), Box<dyn Error>>;

/// Where a claim comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A table, figure, lemma or theorem of the paper; cheap enough to run
    /// at full size on every `cargo test`.
    Paper,
    /// Grown around the paper: packet/fluid simulation, faults, churn,
    /// validation, ablations.
    Extension,
    /// A 10k-host-or-larger fabric held to a wall-clock budget.
    Scale,
}

/// One row of the claims ledger.
pub struct Experiment {
    /// Experiment id, as in `DESIGN.md` and `EXPERIMENTS.md`.
    pub id: &'static str,
    /// The paper artifact (or external source) the row answers to.
    pub paper_ref: &'static str,
    pub kind: Kind,
    /// Wall-clock limit on the whole row, in seconds. Rows whose parts have
    /// different limits state them with [`Ctx::within`] instead.
    pub budget_s: Option<f64>,
    pub run: RunFn,
}

/// A row's body.
pub type RunFn = fn(&mut Ctx) -> RowResult;

const fn row(
    id: &'static str,
    paper_ref: &'static str,
    kind: Kind,
    budget_s: Option<f64>,
    run: RunFn,
) -> Experiment {
    Experiment {
        id,
        paper_ref,
        kind,
        budget_s,
        run,
    }
}

use Kind::{Extension, Paper, Scale};

/// Every experiment, in presentation order.
pub static REGISTRY: &[Experiment] = &[
    row("E1", "Table I", Paper, None, table1::e1),
    row("E2", "Fig. 1", Paper, None, figures::e2),
    row("E3", "Fig. 2", Paper, None, figures::e3),
    row("E4", "Fig. 3 / Theorem 3", Paper, None, thm3::e4),
    row("E5", "Lemma 2", Paper, None, lemma2::e5),
    row("E6", "Theorems 1-2", Paper, None, thm2::e6),
    row("E7", "Section IV.B", Paper, None, multipath::e7),
    row("E8", "Fig. 4 / Theorem 4", Paper, None, adaptive::e8),
    row("E9", "Theorem 5", Paper, None, adaptive::e9),
    row("E13", "Lemma 6", Paper, None, adaptive::e13),
    row("E10", "Discussion (recursion)", Paper, None, recursive::e10),
    row(
        "E11",
        "Motivation ([5],[7])",
        Extension,
        None,
        throughput::e11,
    ),
    row("E12", "Related-work context", Paper, None, blocking::e12),
    row("E14", "Cost scaling", Paper, None, cost::e14),
    row("E15", "extension", Extension, None, kary::e15),
    row("E16", "context", Extension, None, classical::e16),
    row("E17", "robustness", Extension, None, faults::e17),
    row("E18", "robustness", Extension, None, churn::e18),
    row("E19", "fluid model", Extension, Some(60.0), flowsim::e19),
    row("E20", "performance", Extension, None, scale::e20),
    row("E21", "instrumentation", Extension, None, scale::e21),
    row("E22", "arxiv 2503.04583", Scale, Some(120.0), scale::e22),
    row("E23", "robustness", Scale, Some(60.0), scale::e23),
    row("E24", "scale", Scale, Some(120.0), scale::e24),
    row("E25", "scale", Scale, None, scale::e25),
    row("E26", "arxiv 2505.03908", Scale, Some(60.0), scale::e26),
    row("E27", "Theorems 2-3", Scale, Some(5.0), scale::e27),
    row("V1", "validation", Extension, None, simval::v1),
    row("A1", "ablation", Extension, None, ablation::a1),
    row("A2", "ablation", Extension, None, ablation::a2),
    row("A3", "ablation", Extension, None, ablation::a3),
];

/// One stated claim and whether it held.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Check {
    pub claim: String,
    pub ok: bool,
}

/// A wall-clock limit and what was spent against it.
#[derive(Clone, Debug, PartialEq)]
pub struct Budget {
    /// Span the limit applies to: the row id, or a part named by the row.
    pub name: &'static str,
    pub spent_s: f64,
    pub limit_s: f64,
}

/// What a row sees: the output sink, its page of the ledger, the seed and
/// the clock.
pub struct Ctx<'a> {
    out: &'a mut dyn Write,
    reg: &'a Registry,
    checks: Vec<Check>,
    budgets: Vec<Budget>,
}

impl<'a> Ctx<'a> {
    /// Print a section banner.
    pub(crate) fn banner(&mut self, id: &str, title: &str) -> io::Result<()> {
        writeln!(self.out, "\n=== {id}: {title} ===")
    }

    /// Print a `key = value` result line in a stable, grep-friendly format.
    pub(crate) fn result_line(&mut self, key: &str, value: impl fmt::Display) -> io::Result<()> {
        writeln!(self.out, "  {key} = {value}")
    }

    /// Print text verbatim (rendered tables, hand-aligned rows).
    pub fn print(&mut self, text: impl fmt::Display) -> io::Result<()> {
        write!(self.out, "{text}")
    }

    /// State a claim: print its PASS/FAIL line and append it to the ledger.
    pub fn check(&mut self, ok: bool, claim: &str) -> io::Result<()> {
        let claim = claim.to_string();
        writeln!(self.out, "  [{}] {claim}", if ok { "PASS" } else { "FAIL" })?;
        self.checks.push(Check { claim, ok });
        Ok(())
    }

    /// The row's `k`-th random stream.
    pub fn rng(&self, k: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(SEED + k)
    }

    /// The recorder rows thread through `*_with` / `*_recorded` entry points.
    pub fn recorder(&self) -> &'a Registry {
        self.reg
    }

    /// Run `f` under a span called `name` and return the seconds it took.
    /// The registry is the only clock in this crate.
    pub(crate) fn timed<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (f64, T) {
        let reg = self.reg;
        let before = span_s(reg, name);
        let out = {
            let _span = reg.span(name);
            f(self)
        };
        (span_s(reg, name) - before, out)
    }

    /// `Ctx::timed` with a wall-clock limit, which the runner holds the
    /// row to.
    pub fn within(
        &mut self,
        name: &'static str,
        limit_s: f64,
        f: impl FnOnce(&mut Self) -> RowResult,
    ) -> RowResult {
        let (spent_s, out) = self.timed(name, f);
        self.budgets.push(Budget {
            name,
            spent_s,
            limit_s,
        });
        out
    }
}

/// Seconds recorded so far under every span called `name`.
fn span_s(reg: &Registry, name: &str) -> f64 {
    let spans = reg.snapshot().spans;
    let named = spans.iter().filter(|s| s.name == name);
    named.map(|s| s.total_ns).sum::<u64>() as f64 * 1e-9
}

/// Fail a row's setup when a precondition of its experiment does not hold.
pub(crate) fn ensure(ok: bool, what: &str) -> RowResult {
    if ok {
        Ok(())
    } else {
        Err(what.into())
    }
}

/// What running one experiment established: a line of the summary table.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub id: &'static str,
    pub paper_ref: &'static str,
    /// Every claim the row stated, in order.
    pub checks: Vec<Check>,
    pub budgets: Vec<Budget>,
    /// Why the row's setup failed, if it did; the claims are then partial.
    pub error: Option<String>,
    pub wall_s: f64,
}

impl Row {
    /// True when the row ran to its end, every claim held and every budget
    /// was met.
    pub fn passed(&self) -> bool {
        self.error.is_none()
            && self.checks.iter().all(|c| c.ok)
            && self.budgets.iter().all(|b| b.spent_s < b.limit_s)
    }

    pub fn header() -> &'static str {
        "id   paper_ref               checks  verdict  wall_s    budget"
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let held = self.checks.iter().filter(|c| c.ok).count();
        let verdict = match &self.error {
            Some(e) => format!("ERROR({e})"),
            None if self.passed() => "PASS".to_string(),
            None => "FAIL".to_string(),
        };
        write!(
            f,
            "{:<4} {:<23} {held:>3}/{:<3} {verdict:<8} {:>8.2} ",
            self.id,
            self.paper_ref,
            self.checks.len(),
            self.wall_s
        )?;
        for b in &self.budgets {
            write!(f, " {} {:.1}/{:.0} s", b.name, b.spent_s, b.limit_s)?;
        }
        Ok(())
    }
}

/// The registry rows named by `ids` (all of them for no ids) in registry
/// order, or a usage message naming the first unknown id.
pub fn select(ids: &[String]) -> Result<Vec<&'static Experiment>, String> {
    let known = |id: &&String| REGISTRY.iter().any(|e| e.id == **id);
    if let Some(unknown) = ids.iter().find(|id| !known(id)) {
        let all: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
        let usage = format!("usage: repro [id ...]\nids: {}", all.join(" "));
        return Err(format!("unknown experiment '{unknown}'\n{usage}"));
    }
    let wanted = |e: &&Experiment| ids.is_empty() || ids.iter().any(|id| id == e.id);
    Ok(REGISTRY.iter().filter(wanted).collect())
}

/// Run `experiments` in order, writing their evidence and one summary table
/// to `out`. An experiment that returns `Err` is recorded as `ERROR` and the
/// run goes on; `Err` from this function is a failure of the sink itself.
pub fn run(experiments: &[&Experiment], out: &mut dyn Write) -> io::Result<Vec<Row>> {
    let reg = Registry::new();
    let mut ctx = Ctx {
        out,
        reg: &reg,
        checks: Vec::new(),
        budgets: Vec::new(),
    };
    let mut rows = Vec::with_capacity(experiments.len());
    for exp in experiments {
        let (id, paper_ref) = (exp.id, exp.paper_ref);
        writeln!(ctx.out, "\n######## {id}  {paper_ref} ########")?;
        let (wall_s, result) = ctx.timed(id, exp.run);
        if let Some(limit_s) = exp.budget_s {
            ctx.budgets.push(Budget {
                name: id,
                spent_s: wall_s,
                limit_s,
            });
        }
        let error = result.err().map(|e| e.to_string());
        if let Some(e) = &error {
            writeln!(ctx.out, "  [ERROR] {e}")?;
        }
        rows.push(Row {
            id,
            paper_ref,
            checks: std::mem::take(&mut ctx.checks),
            budgets: std::mem::take(&mut ctx.budgets),
            error,
            wall_s,
        });
    }
    writeln!(ctx.out, "\n=== summary ===\n{}", Row::header())?;
    for row in &rows {
        writeln!(ctx.out, "{row}")?;
    }
    Ok(rows)
}

/// Crossbar reference router: two hops through the single switch.
pub struct XbRouter<'a>(pub &'a Crossbar);

impl SinglePathRouter for XbRouter<'_> {
    fn ports(&self) -> u32 {
        self.0.ports() as u32
    }
    fn route_into(&self, pair: SdPair, out: &mut Vec<ChannelId>) {
        out.clear();
        if pair.src != pair.dst {
            out.push(self.0.up_channel(pair.src as usize));
            out.push(self.0.down_channel(pair.dst as usize));
        }
    }
    fn name(&self) -> &'static str {
        "crossbar"
    }
}

/// The packet simulator's defaults with the given warm-up and measurement
/// windows.
pub(crate) fn sim_cfg(warmup_cycles: u64, measure_cycles: u64) -> SimConfig {
    SimConfig {
        warmup_cycles,
        measure_cycles,
        ..SimConfig::default()
    }
}

/// Accepted throughput of one cycle-engine run.
pub fn throughput(
    topo: &Topology,
    cfg: SimConfig,
    policy: Policy,
    workload: &Workload,
    seed: u64,
) -> Result<f64, SimError> {
    Ok(Simulator::new(topo, cfg, policy)
        .try_run(workload, seed)?
        .accepted_throughput())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn holds(ctx: &mut Ctx) -> RowResult {
        ctx.check(true, "a claim that holds")?;
        Ok(())
    }

    fn refuted(ctx: &mut Ctx) -> RowResult {
        ctx.check(true, "first claim holds")?;
        ctx.check(false, "second claim is refuted")?;
        Ok(())
    }

    fn broken(ctx: &mut Ctx) -> RowResult {
        ctx.check(true, "stated before the setup failure")?;
        Err("fabric cannot be built".into())
    }

    fn over_budget(ctx: &mut Ctx) -> RowResult {
        ctx.within("part", 0.0, holds)
    }

    #[test]
    fn a_failing_row_fails_the_run_but_not_the_other_rows() {
        let rows = [
            row("T1", "test", Paper, None, holds),
            row("T2", "test", Paper, None, broken),
            row("T3", "test", Paper, None, refuted),
            row("T4", "test", Paper, Some(3600.0), holds),
            row("T5", "test", Paper, None, over_budget),
        ];
        let mut out = Vec::new();
        let ledger = run(&rows.iter().collect::<Vec<_>>(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();

        // Every row ran, in order, and only T1 and T4 passed.
        let passed: Vec<_> = ledger.iter().map(|r| (r.id, r.passed())).collect();
        let expected = [
            ("T1", true),
            ("T2", false),
            ("T3", false),
            ("T4", true),
            ("T5", false),
        ];
        assert_eq!(passed, expected);
        assert!(!ledger.iter().all(Row::passed), "exit verdict is failure");

        // The setup error is that row's ERROR; its earlier claim is kept.
        assert_eq!(ledger[1].error.as_deref(), Some("fabric cannot be built"));
        assert_eq!(ledger[1].checks.len(), 1);
        assert!(text.contains("  [ERROR] fabric cannot be built"));
        assert!(ledger[1]
            .to_string()
            .contains("ERROR(fabric cannot be built)"));

        // A refuted claim is recorded next to the ones that held.
        let t3: Vec<_> = ledger[2].checks.iter().map(|c| c.ok).collect();
        assert_eq!(t3, [true, false]);
        assert!(text.contains("  [FAIL] second claim is refuted"));
        assert!(ledger[2].to_string().contains("1/2   FAIL"));

        // Budgets: the row's own and a part's, both read off the clock.
        assert_eq!(ledger[3].budgets[0].name, "T4");
        assert_eq!(ledger[3].budgets[0].limit_s, 3600.0);
        assert_eq!(ledger[4].budgets[0].name, "part");
        assert!(ledger[4].checks.iter().all(|c| c.ok));
        assert!(text.contains(Row::header()));
    }

    #[test]
    fn select_maps_ids_to_rows_and_rejects_unknown_ones() {
        assert_eq!(select(&[]).unwrap().len(), REGISTRY.len());
        let ids = ["E6".to_string(), "E22".to_string()];
        let picked: Vec<_> = select(&ids).unwrap().iter().map(|e| e.id).collect();
        assert_eq!(picked, ["E6", "E22"]);
        let reversed = [ids[1].clone(), ids[0].clone(), ids[0].clone()];
        let picked: Vec<_> = select(&reversed).unwrap().iter().map(|e| e.id).collect();
        assert_eq!(picked, ["E6", "E22"], "registry order, each row once");
        let usage = select(&["E99".to_string()]).err().unwrap();
        assert!(usage.contains("unknown experiment 'E99'") && usage.contains("E26"));
    }

    #[test]
    fn streams_are_seeded_per_index() {
        use rand::Rng;
        let reg = Registry::new();
        let mut sink = Vec::new();
        let ctx = Ctx {
            out: &mut sink,
            reg: &reg,
            checks: Vec::new(),
            budgets: Vec::new(),
        };
        let draw = |k| ctx.rng(k).gen_range(0..u64::MAX);
        assert_eq!(
            draw(3),
            ChaCha8Rng::seed_from_u64(SEED + 3).gen_range(0..u64::MAX)
        );
        assert_ne!(draw(0), draw(1));
    }
}
