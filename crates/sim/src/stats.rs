//! Simulation statistics.

use crate::state::PagedVec;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Counters collected over a run; latency figures cover packets *delivered
/// inside the measurement window* only.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Cycles in the measurement window.
    pub window_cycles: u64,
    /// Leaves that injected at least once over the whole run.
    pub active_sources: usize,
    /// Packets injected during the measurement window.
    pub injected_in_window: u64,
    /// Packets delivered during the measurement window.
    pub delivered_in_window: u64,
    /// Total packets injected (including warm-up).
    pub injected_total: u64,
    /// Total packets delivered (including warm-up).
    pub delivered_total: u64,
    /// Sum of end-to-end latencies (cycles) of window deliveries.
    pub latency_sum: u64,
    /// Max end-to-end latency of a window delivery.
    pub latency_max: u64,
    /// Median end-to-end latency of window deliveries.
    pub latency_p50: u64,
    /// 95th-percentile end-to-end latency of window deliveries.
    pub latency_p95: u64,
    /// 99th-percentile end-to-end latency of window deliveries.
    pub latency_p99: u64,
    /// Injections refused because a bounded injection queue was full.
    pub injection_refusals: u64,
    /// Timeout events: a packet exceeded its TTL and was dropped where it
    /// waited (each retransmission that later times out counts again).
    pub timed_out_total: u64,
    /// Retransmissions injected after a timeout (`retry` enabled).
    pub retries_total: u64,
    /// Packets dropped for good: timed out with retries off or exhausted,
    /// or no path available at retransmission time.
    pub abandoned_total: u64,
    /// Packets still in the network when the run ended (0 after a
    /// successful drain; packet conservation is
    /// `injected_total == delivered_total + leftover_packets +
    /// abandoned_total` — see [`SimStats::conservation_ok`]).
    pub leftover_packets: u64,
    /// Offered injection rate (packets/cycle/source) of the workload.
    pub offered_rate: f64,
    /// Per-channel busy cycles during the measurement window, indexed by
    /// channel id. Divide by `window_cycles` for utilization. Accumulated
    /// sparsely — memory scales with channels that carried traffic, not
    /// with fabric size; see [`ChannelBusy`].
    pub channel_busy: ChannelBusy,
}

impl SimStats {
    /// Delivered packets per cycle per active source during the window —
    /// the *accepted throughput* as a fraction of link rate.
    pub fn accepted_throughput(&self) -> f64 {
        if self.window_cycles == 0 || self.active_sources == 0 {
            return 0.0;
        }
        self.delivered_in_window as f64 / (self.window_cycles as f64 * self.active_sources as f64)
    }

    /// Packet conservation: every injected packet is delivered, still
    /// queued, or abandoned — nothing is silently lost.
    pub fn conservation_ok(&self) -> bool {
        self.injected_total == self.delivered_total + self.leftover_packets + self.abandoned_total
    }

    /// Fraction of injected packets dropped for good.
    pub fn abandoned_fraction(&self) -> f64 {
        if self.injected_total == 0 {
            0.0
        } else {
            self.abandoned_total as f64 / self.injected_total as f64
        }
    }

    /// Mean end-to-end latency of window deliveries, in cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.delivered_in_window == 0 {
            return 0.0;
        }
        self.latency_sum as f64 / self.delivered_in_window as f64
    }
}

/// Per-channel busy-cycle accumulator with sparse, lazily-paged backing.
///
/// Semantically a `vec![0u64; num_channels]`; physically it materializes
/// only the pages of channels that actually accumulated busy cycles, so a
/// million-host run's stats cost `O(traffic-carrying channels)` instead of
/// one word per directed channel. Equality, accessors, and iteration are
/// defined over *logical* content — two accumulators with the same length
/// and the same nonzero entries are equal regardless of which pages happen
/// to be materialized — which is what keeps [`SimStats`] byte-identical
/// between the dense-prefilled and sparse engine configurations. `Debug`
/// prints the same logical content, `len()` and the `nonzero()` entries, so
/// the text of a [`SimStats`] says what a run did, not how its pages lie.
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct ChannelBusy {
    busy: PagedVec<u64>,
}

impl ChannelBusy {
    /// A logical all-zeros accumulator for `num_channels` channels.
    pub fn zeros(num_channels: usize) -> Self {
        Self {
            busy: PagedVec::new(num_channels, 0),
        }
    }

    /// Logical length (the fabric's channel count).
    pub fn len(&self) -> usize {
        self.busy.len()
    }

    /// Whether the logical length is zero.
    pub fn is_empty(&self) -> bool {
        self.busy.is_empty()
    }

    /// Accumulate `cycles` busy cycles on channel `id`.
    ///
    /// # Panics
    /// If `id >= len()`.
    #[inline]
    pub fn add(&mut self, id: usize, cycles: u64) {
        *self.busy.get_mut(id) += cycles;
    }

    /// Busy cycles of channel `id` (0 when untouched or out of range).
    pub fn get(&self, id: usize) -> u64 {
        if id < self.busy.len() {
            *self.busy.get(id)
        } else {
            0
        }
    }

    /// `(channel id, busy cycles)` for channels with nonzero counts,
    /// ascending by id.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.busy
            .iter_touched()
            .filter(|&(_, &b)| b > 0)
            .map(|(i, &b)| (i, b))
    }

    /// Densify on demand into the historical `Vec<u64>` layout.
    pub fn to_vec(&self) -> Vec<u64> {
        let mut v = vec![0u64; self.busy.len()];
        for (i, b) in self.nonzero() {
            v[i] = b;
        }
        v
    }

    /// Channels covered by materialized pages (accounting, not semantics).
    pub fn touched_channels(&self) -> usize {
        self.busy.touched_entries()
    }

    /// Backing bytes currently allocated.
    pub fn state_bytes(&self) -> usize {
        self.busy.state_bytes()
    }
}

impl fmt::Debug for ChannelBusy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        /// The nonzero entries as an `{id: cycles, ...}` map.
        struct Nonzero<'a>(&'a ChannelBusy);
        impl fmt::Debug for Nonzero<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.nonzero()).finish()
            }
        }
        f.debug_struct("ChannelBusy")
            .field("len", &self.len())
            .field("nonzero", &Nonzero(self))
            .finish()
    }
}

impl PartialEq for ChannelBusy {
    fn eq(&self, other: &Self) -> bool {
        self.busy.len() == other.busy.len() && self.nonzero().eq(other.nonzero())
    }
}

impl From<Vec<u64>> for ChannelBusy {
    fn from(dense: Vec<u64>) -> Self {
        let mut cb = Self::zeros(dense.len());
        for (i, b) in dense.into_iter().enumerate() {
            if b > 0 {
                cb.add(i, b);
            }
        }
        cb
    }
}

/// Fixed-bucket histogram of link utilizations in `[0, 1]`, shared by the
/// packet engine and the fluid flow-rate simulator so both report
/// congestion in the same shape.
///
/// Ten equal buckets: `[0.0, 0.1), [0.1, 0.2), …, [0.9, 1.0]`; a
/// utilization of exactly `1.0` (a saturated link) lands in the last
/// bucket. Values outside `[0, 1]` are clamped.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UtilizationHistogram {
    /// Channel counts per decile bucket.
    pub buckets: [u64; 10],
}

impl UtilizationHistogram {
    /// Bucket a stream of utilizations.
    pub fn from_utilizations(values: impl IntoIterator<Item = f64>) -> Self {
        let mut h = Self::default();
        for u in values {
            h.add(u);
        }
        h
    }

    /// Add one utilization sample (clamped to `[0, 1]`; NaN counts as 0).
    pub(crate) fn add(&mut self, u: f64) {
        let u = if u.is_nan() { 0.0 } else { u.clamp(0.0, 1.0) };
        let idx = ((u * 10.0) as usize).min(9);
        self.buckets[idx] += 1;
    }

    /// Render as a compact `a/b/…/j` decile string for text reports.
    pub fn to_compact_string(&self) -> String {
        self.buckets
            .iter()
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join("/")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = SimStats {
            window_cycles: 100,
            active_sources: 10,
            delivered_in_window: 800,
            latency_sum: 4_000,
            latency_max: 30,
            offered_rate: 1.0,
            ..SimStats::default()
        };
        assert!((s.accepted_throughput() - 0.8).abs() < 1e-12);
        assert!((s.mean_latency() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases() {
        let s = SimStats::default();
        assert_eq!(s.accepted_throughput(), 0.0);
        assert_eq!(s.mean_latency(), 0.0);
    }

    #[test]
    fn histogram_buckets_and_clamping() {
        let mut h = UtilizationHistogram::from_utilizations([0.0, 0.05, 0.15, 0.95, 1.0]);
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[9], 2, "saturated tail");
        assert_eq!(h.buckets.iter().sum::<u64>(), 5);
        h.add(2.0); // clamps into the saturated bucket
        h.add(f64::NAN); // counts as zero
        assert_eq!(h.buckets[9], 3);
        assert_eq!(h.buckets[0], 3);
        assert_eq!(h.to_compact_string(), "3/1/0/0/0/0/0/0/0/3");
    }

    #[test]
    fn channel_busy_equality_is_logical_not_physical() {
        // Sparse accumulation vs. dense conversion: same logical content,
        // different materialized pages — must compare equal.
        let mut sparse = ChannelBusy::zeros(10_000);
        sparse.add(7, 3);
        sparse.add(9_999, 5);
        let dense: ChannelBusy = {
            let mut v = vec![0u64; 10_000];
            v[7] = 3;
            v[9_999] = 5;
            v.into()
        };
        assert_eq!(sparse, dense);
        assert_eq!(sparse.to_vec(), dense.to_vec());
        assert!(sparse.touched_channels() < dense.len());
        let mut other = ChannelBusy::zeros(10_000);
        other.add(7, 3);
        assert_ne!(sparse, other);
        assert_ne!(sparse, ChannelBusy::zeros(9_999), "length matters");
        assert_eq!(sparse.get(7), 3);
        assert_eq!(sparse.get(8), 0);
        assert_eq!(sparse.get(123_456), 0, "out of range reads 0");
        assert_eq!(
            sparse.nonzero().collect::<Vec<_>>(),
            vec![(7, 3), (9_999, 5)]
        );
    }
}
