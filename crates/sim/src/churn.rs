//! Churn-run instrumentation: replan modes, per-epoch statistics, and
//! time-to-reconverge measurement.
//!
//! A churn run (see [`crate::Simulator::try_run_churn_recorded`]) slices the
//! simulation into **epochs** at every cycle where at least one liveness
//! transition applies. For each epoch the engine records the injected /
//! delivered / lost counters and, post-run, the **time to reconverge**: the
//! number of cycles after the transition until delivered throughput
//! (averaged over a sliding [`ChurnConfig::recovery_window`]) returns to
//! within [`ChurnConfig::epsilon`] of the pre-churn steady state.
//!
//! The [`ReplanMode`] knob selects how the path policy reacts to
//! transitions: not at all (`Pinned`), instantly (`PerCycle` — hysteresis
//! with `K = 0`), or damped (`Hysteresis` — a flapped link is readmitted
//! only after `K` stable cycles, via
//! [`ftclos_routing::LinkAdmission`]).

use crate::stats::SimStats;
use serde::{Deserialize, Serialize};

/// How the simulator's path policy reacts to liveness transitions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplanMode {
    /// Never re-plan: paths picked at injection ignore liveness entirely
    /// (dead channels still grant nothing — packets stall and time out).
    Pinned,
    /// Re-plan every cycle with no damping: a channel is masked out the
    /// cycle it dies and readmitted the cycle it revives. Equivalent to
    /// [`ReplanMode::Hysteresis`] with `k = 0`.
    PerCycle,
    /// Hysteresis re-planning: exclusion is immediate, readmission waits
    /// for `k` consecutive stable cycles.
    Hysteresis {
        /// Stable cycles required before a revived channel is readmitted.
        k: u64,
    },
}

impl ReplanMode {
    /// The hysteresis constant: `None` for pinned routing, `Some(0)` for
    /// per-cycle re-planning.
    pub(crate) fn hysteresis_k(self) -> Option<u64> {
        match self {
            ReplanMode::Pinned => None,
            ReplanMode::PerCycle => Some(0),
            ReplanMode::Hysteresis { k } => Some(k),
        }
    }
}

/// Knobs for a churn run, passed alongside the [`crate::SimConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// How the path policy reacts to transitions.
    pub mode: ReplanMode,
    /// Relative throughput tolerance for "reconverged": an epoch has
    /// reconverged once a sliding window delivers at least
    /// `(1 - epsilon) * steady_rate` packets per cycle.
    pub epsilon: f64,
    /// Width (cycles) of the sliding delivery window used both to measure
    /// the steady state and to detect reconvergence.
    pub recovery_window: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        Self {
            mode: ReplanMode::PerCycle,
            epsilon: 0.1,
            recovery_window: 100,
        }
    }
}

/// Counters for one epoch: the interval between consecutive transition
/// cycles (the first epoch starts at cycle 0; the last ends at run end).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochStats {
    /// First cycle of the epoch.
    pub start: u64,
    /// One past the last cycle of the epoch.
    pub end: u64,
    /// `Down` transitions applied at `start` (0 for the initial epoch).
    pub downs: u64,
    /// `Up` transitions applied at `start`.
    pub ups: u64,
    /// Packets injected during the epoch.
    pub injected: u64,
    /// Packets delivered during the epoch.
    pub delivered: u64,
    /// Timeout events during the epoch.
    pub timed_out: u64,
    /// Retransmissions during the epoch.
    pub retries: u64,
    /// Packets abandoned (lost for good) during the epoch.
    pub abandoned: u64,
    /// Cycles from the epoch's transition until delivered throughput
    /// returned to within epsilon of steady state; `None` if it never did
    /// inside this epoch.
    pub reconverged_after: Option<u64>,
}

/// Per-epoch churn statistics for one run, alongside the usual
/// [`crate::SimStats`].
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ChurnReport {
    /// Pre-churn steady-state delivered throughput (packets/cycle), the
    /// reconvergence reference. Measured after warm-up and before the
    /// first transition (falling back to the whole run when a transition
    /// precedes the warm-up boundary).
    pub steady_rate: f64,
    /// One entry per epoch, in time order. The first entry is the
    /// pre-churn baseline (no transitions).
    pub epochs: Vec<EpochStats>,
}

impl ChurnReport {
    /// Epochs that start with at least one transition.
    pub fn transitions(&self) -> usize {
        self.epochs.iter().filter(|e| e.downs + e.ups > 0).count()
    }

    /// Total packets lost for good across all epochs.
    pub fn packets_lost(&self) -> u64 {
        self.epochs.iter().map(|e| e.abandoned).sum()
    }

    /// Transition epochs that reconverged, out of those that had room to.
    pub fn reconverged(&self) -> usize {
        self.epochs
            .iter()
            .filter(|e| e.downs + e.ups > 0 && e.reconverged_after.is_some())
            .count()
    }

    /// Mean time-to-reconverge (cycles) over reconverged transition
    /// epochs; `None` when none reconverged.
    pub fn mean_reconverge_cycles(&self) -> Option<f64> {
        let times: Vec<u64> = self
            .epochs
            .iter()
            .filter(|e| e.downs + e.ups > 0)
            .filter_map(|e| e.reconverged_after)
            .collect();
        if times.is_empty() {
            None
        } else {
            Some(times.iter().sum::<u64>() as f64 / times.len() as f64)
        }
    }
}

/// Cumulative counter snapshot taken at an epoch boundary.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct EpochMark {
    pub cycle: u64,
    pub downs: u64,
    pub ups: u64,
    pub injected: u64,
    pub delivered: u64,
    pub timed_out: u64,
    pub retries: u64,
    pub abandoned: u64,
}

impl EpochMark {
    /// The boundary at `cycle`, where `downs` + `ups` transitions applied.
    pub(crate) fn at(cycle: u64, downs: u64, ups: u64, stats: &SimStats) -> Self {
        Self {
            cycle,
            downs,
            ups,
            injected: stats.injected_total,
            delivered: stats.delivered_total,
            timed_out: stats.timed_out_total,
            retries: stats.retries_total,
            abandoned: stats.abandoned_total,
        }
    }
}

/// Assemble the [`ChurnReport`] from boundary snapshots and the per-cycle
/// delivery series. `marks[0]` must be the run-start snapshot at cycle 0;
/// `final_mark` the post-run totals; `delivered_per_cycle[c]` the packets
/// delivered in cycle `c`; `warmup` the first measured cycle.
pub(crate) fn build_report(
    cfg: &ChurnConfig,
    marks: &[EpochMark],
    final_mark: EpochMark,
    delivered_per_cycle: &[u32],
    warmup: u64,
) -> ChurnReport {
    let window = cfg.recovery_window.max(1) as usize;
    let mean_over = |start: usize, end: usize| -> f64 {
        if end <= start || end > delivered_per_cycle.len() {
            return 0.0;
        }
        let sum: u64 = delivered_per_cycle[start..end]
            .iter()
            .map(|&d| d as u64)
            .sum();
        sum as f64 / (end - start) as f64
    };

    // Steady state: delivered rate between warm-up and the first
    // transition; whole-run mean when churn starts before the warm-up ends.
    let first_transition = marks
        .iter()
        .find(|m| m.downs + m.ups > 0)
        .map(|m| m.cycle as usize)
        .unwrap_or(delivered_per_cycle.len());
    let steady_rate = if first_transition > warmup as usize {
        mean_over(warmup as usize, first_transition)
    } else {
        mean_over(0, delivered_per_cycle.len())
    };

    let threshold = (1.0 - cfg.epsilon) * steady_rate;
    let mut epochs = Vec::with_capacity(marks.len());
    for (i, mark) in marks.iter().enumerate() {
        let next = marks.get(i + 1).copied().unwrap_or(final_mark);
        let (start, end) = (mark.cycle as usize, next.cycle as usize);
        // First offset d where the window starting at start + d delivers at
        // least (1 - epsilon) * steady, window fully inside the epoch.
        let mut reconverged_after = None;
        if steady_rate > 0.0 {
            let mut d = 0usize;
            while start + d + window <= end.min(delivered_per_cycle.len()) {
                if mean_over(start + d, start + d + window) >= threshold {
                    reconverged_after = Some(d as u64);
                    break;
                }
                d += 1;
            }
        }
        epochs.push(EpochStats {
            start: mark.cycle,
            end: next.cycle,
            downs: mark.downs,
            ups: mark.ups,
            injected: next.injected - mark.injected,
            delivered: next.delivered - mark.delivered,
            timed_out: next.timed_out - mark.timed_out,
            retries: next.retries - mark.retries,
            abandoned: next.abandoned - mark.abandoned,
            reconverged_after,
        });
    }
    ChurnReport {
        steady_rate,
        epochs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(cycle: u64, downs: u64, ups: u64, delivered: u64) -> EpochMark {
        EpochMark {
            cycle,
            downs,
            ups,
            injected: delivered,
            delivered,
            ..EpochMark::default()
        }
    }

    #[test]
    fn report_slices_epochs_and_measures_recovery() {
        // 2 packets/cycle steady; an outage at cycle 100 drops delivery to
        // zero for 50 cycles, then it recovers.
        let mut per_cycle = vec![2u32; 300];
        for d in per_cycle.iter_mut().take(150).skip(100) {
            *d = 0;
        }
        let cfg = ChurnConfig {
            mode: ReplanMode::PerCycle,
            epsilon: 0.1,
            recovery_window: 20,
        };
        let marks = vec![mark(0, 0, 0, 0), mark(100, 2, 0, 200)];
        let final_mark = mark(300, 0, 0, 500);
        let report = build_report(&cfg, &marks, final_mark, &per_cycle, 10);
        assert!((report.steady_rate - 2.0).abs() < 1e-9);
        assert_eq!(report.epochs.len(), 2);
        assert_eq!(report.epochs[0].end - report.epochs[0].start, 100);
        assert_eq!(report.epochs[1].delivered, 300);
        // Delivery restarts at cycle 150; the window starting at offset 48
        // holds 2 dead + 18 full cycles = 1.8/cycle, exactly the 10%
        // tolerance, so reconvergence is declared there.
        assert_eq!(report.epochs[1].reconverged_after, Some(48));
        assert_eq!(report.transitions(), 1);
        assert_eq!(report.reconverged(), 1);
        assert_eq!(report.mean_reconverge_cycles(), Some(48.0));
        let sum = |f: fn(&EpochStats) -> u64| report.epochs.iter().map(f).sum::<u64>();
        assert_eq!(sum(|e| e.injected), 500);
        assert_eq!(sum(|e| e.delivered), 500);
        assert_eq!(sum(|e| e.abandoned), 0);
    }

    #[test]
    fn unrecovered_epoch_reports_none() {
        let mut per_cycle = vec![2u32; 200];
        for d in per_cycle.iter_mut().skip(100) {
            *d = 0; // never recovers
        }
        let cfg = ChurnConfig {
            recovery_window: 20,
            ..ChurnConfig::default()
        };
        let marks = vec![mark(0, 0, 0, 0), mark(100, 1, 0, 200)];
        let report = build_report(&cfg, &marks, mark(200, 0, 0, 200), &per_cycle, 10);
        assert_eq!(report.epochs[1].reconverged_after, None);
        assert_eq!(report.reconverged(), 0);
        assert_eq!(report.mean_reconverge_cycles(), None);
    }

    #[test]
    fn replan_mode_hysteresis_constants() {
        assert_eq!(ReplanMode::Pinned.hysteresis_k(), None);
        assert_eq!(ReplanMode::PerCycle.hysteresis_k(), Some(0));
        assert_eq!(ReplanMode::Hysteresis { k: 40 }.hysteresis_k(), Some(40));
    }
}
