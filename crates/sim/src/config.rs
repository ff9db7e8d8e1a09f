//! Simulator configuration.

use crate::error::ConfigError;
use serde::{Deserialize, Serialize};

/// Switch arbitration discipline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Arbiter {
    /// One FIFO per input channel, round-robin per output over input
    /// *heads* only — subject to classic head-of-line blocking (a blocked
    /// head packet stalls everything behind it).
    HolFifo,
    /// Virtual output queues over a shared per-input buffer with iSLIP
    /// request-grant-accept matching (`iterations` rounds per cycle).
    /// Eliminates head-of-line blocking; with uniform traffic a crossbar
    /// under `Voq` sustains ~100% where `HolFifo` caps near the classic
    /// 58.6%.
    Voq {
        /// iSLIP iterations per cycle (1 is the hardware-typical choice).
        iterations: u8,
    },
}

/// Knobs for one simulation run.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Cycles simulated before measurement starts (queue warm-up).
    pub warmup_cycles: u64,
    /// Cycles in the measurement window.
    pub measure_cycles: u64,
    /// Capacity of each channel's downstream FIFO, in packets.
    pub queue_capacity: usize,
    /// If true, injection-queue length is capped at `queue_capacity` too
    /// (closed-loop sources); if false, sources are open-loop (unbounded
    /// injection queues), the standard setup for saturation measurement.
    pub bounded_injection: bool,
    /// Packet length in flits. A packet holds each channel it crosses for
    /// `packet_flits` consecutive cycles (store-and-forward serialization);
    /// 1 recovers the classic single-flit model.
    pub packet_flits: u64,
    /// Switch arbitration discipline.
    pub arbiter: Arbiter,
    /// After the measurement window, keep running (injection off) until the
    /// network is empty, so packet conservation can be checked exactly.
    /// Draining is capped at [`SimConfig::DRAIN_CAP`] extra cycles;
    /// packets still queued then are reported as
    /// `SimStats::leftover_packets`.
    pub drain: bool,
    /// Per-attempt packet time-to-live in cycles; a packet that has not been
    /// delivered `ttl_cycles` after its (re)injection is dropped where it
    /// waits. 0 disables timeouts (packets wait forever — the pre-fault
    /// model).
    pub ttl_cycles: u64,
    /// Retransmit timed-out packets from their source (with a fresh path
    /// pick, so spreading policies can route around a failure). Requires
    /// `ttl_cycles > 0` and `retry_limit > 0`.
    pub retry: bool,
    /// Maximum retransmissions per packet when `retry` is on; once
    /// exhausted the packet is abandoned (`SimStats::abandoned_total`).
    pub retry_limit: u32,
    /// Bounded-progress stall watchdog: if, for this many *consecutive*
    /// cycles, packets are in flight but nothing is delivered, abandoned,
    /// retired, or moved across any channel, the run aborts with
    /// [`crate::SimError::Stalled`] carrying the strand graph (blocked
    /// packets, the channels they wait on, and the credit wait-for cycle if
    /// one exists) instead of spinning to the drain cap. `0` disables the
    /// watchdog (the default). Must exceed `packet_flits` — multi-flit
    /// serialization legitimately pauses all movement for `packet_flits - 1`
    /// cycles.
    pub stall_watchdog: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            warmup_cycles: 500,
            measure_cycles: 2_000,
            queue_capacity: 8,
            bounded_injection: false,
            packet_flits: 1,
            arbiter: Arbiter::HolFifo,
            drain: false,
            ttl_cycles: 0,
            retry: false,
            retry_limit: 0,
            stall_watchdog: 0,
        }
    }
}

impl SimConfig {
    /// Upper bound on extra drain cycles (see [`SimConfig::drain`]).
    pub const DRAIN_CAP: u64 = 1_000_000;

    /// Total injection cycles (warm-up + measurement; drain excluded).
    /// Saturates; [`SimConfig::validate`] rejects a sum that does not fit.
    pub fn total_cycles(&self) -> u64 {
        self.warmup_cycles.saturating_add(self.measure_cycles)
    }

    /// Self-check: reject configurations the engine cannot execute
    /// meaningfully.
    ///
    /// # Errors
    /// * [`ConfigError::ZeroQueueCapacity`] — zero-size queues deadlock
    ///   every switch output (no downstream credit can ever exist),
    /// * [`ConfigError::ZeroPacketFlits`] — a packet must occupy a wire for
    ///   at least one cycle,
    /// * [`ConfigError::ZeroRetryLimit`] — retries enabled with a limit of
    ///   0 silently degrade to no-retry,
    /// * [`ConfigError::RetryWithoutTimeout`] — retransmission can only
    ///   trigger from a timeout, so `retry` requires `ttl_cycles > 0`,
    /// * [`ConfigError::WatchdogTooShort`] — a watchdog no longer than a
    ///   packet fires on healthy runs,
    /// * [`ConfigError::CycleOverflow`] — the last cycle number the engine
    ///   can form (`warmup + measure + DRAIN_CAP + ttl_cycles +
    ///   packet_flits`) does not fit in `u64`,
    /// * [`ConfigError::ZeroIslipIterations`] — iSLIP with no round per
    ///   cycle would match nothing.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        if self.packet_flits == 0 {
            return Err(ConfigError::ZeroPacketFlits);
        }
        if self.retry && self.retry_limit == 0 {
            return Err(ConfigError::ZeroRetryLimit);
        }
        if self.retry && self.ttl_cycles == 0 {
            return Err(ConfigError::RetryWithoutTimeout);
        }
        if self.stall_watchdog > 0 && self.stall_watchdog <= self.packet_flits {
            return Err(ConfigError::WatchdogTooShort);
        }
        // Every cycle number the engine forms is at most this sum, so one
        // checked chain here lets the loop add without checking.
        [
            self.measure_cycles,
            Self::DRAIN_CAP,
            self.ttl_cycles,
            self.packet_flits,
        ]
        .into_iter()
        .try_fold(self.warmup_cycles, u64::checked_add)
        .ok_or(ConfigError::CycleOverflow)?;
        if self.arbiter == (Arbiter::Voq { iterations: 0 }) {
            return Err(ConfigError::ZeroIslipIterations);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_total() {
        let c = SimConfig::default();
        assert_eq!(c.total_cycles(), 2_500);
        assert!(!c.bounded_injection);
        assert!(c.queue_capacity > 0);
        assert_eq!(c.packet_flits, 1);
        assert_eq!(c.ttl_cycles, 0);
        assert!(!c.retry);
        c.validate().unwrap();
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        let base = SimConfig::default();
        assert_eq!(
            SimConfig {
                queue_capacity: 0,
                ..base
            }
            .validate(),
            Err(ConfigError::ZeroQueueCapacity)
        );
        assert_eq!(
            SimConfig {
                packet_flits: 0,
                ..base
            }
            .validate(),
            Err(ConfigError::ZeroPacketFlits)
        );
        assert_eq!(
            SimConfig {
                retry: true,
                retry_limit: 0,
                ttl_cycles: 64,
                ..base
            }
            .validate(),
            Err(ConfigError::ZeroRetryLimit)
        );
        assert_eq!(
            SimConfig {
                retry: true,
                retry_limit: 3,
                ttl_cycles: 0,
                ..base
            }
            .validate(),
            Err(ConfigError::RetryWithoutTimeout)
        );
        SimConfig {
            retry: true,
            retry_limit: 3,
            ttl_cycles: 64,
            ..base
        }
        .validate()
        .unwrap();
        assert_eq!(
            SimConfig {
                stall_watchdog: 4,
                packet_flits: 4,
                ..base
            }
            .validate(),
            Err(ConfigError::WatchdogTooShort)
        );
        SimConfig {
            stall_watchdog: 5,
            packet_flits: 4,
            ..base
        }
        .validate()
        .unwrap();
        // The largest run whose cycle numbers still fit, and one past it in
        // each term of the sum.
        let fits = SimConfig {
            warmup_cycles: 7,
            measure_cycles: u64::MAX - SimConfig::DRAIN_CAP - 7 - 64 - 3,
            ttl_cycles: 64,
            packet_flits: 3,
            ..base
        };
        fits.validate().unwrap();
        let saturated = SimConfig {
            measure_cycles: u64::MAX,
            ..base
        };
        for too_long in [
            SimConfig {
                warmup_cycles: 8,
                ..fits
            },
            SimConfig {
                ttl_cycles: 65,
                ..fits
            },
            SimConfig {
                packet_flits: 4,
                ..fits
            },
            saturated,
        ] {
            assert_eq!(too_long.validate(), Err(ConfigError::CycleOverflow));
        }
        assert_eq!(saturated.total_cycles(), u64::MAX, "saturates, no panic");
        assert_eq!(
            SimConfig {
                arbiter: Arbiter::Voq { iterations: 0 },
                ..base
            }
            .validate(),
            Err(ConfigError::ZeroIslipIterations)
        );
        SimConfig {
            arbiter: Arbiter::Voq { iterations: 1 },
            ..base
        }
        .validate()
        .unwrap();
    }
}
