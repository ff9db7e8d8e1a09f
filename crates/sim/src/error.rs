//! Typed errors for the simulator: configuration rejection, structured
//! engine-invariant violations (instead of `expect`-style panics that take
//! down a whole batch run), and the stall-watchdog diagnosis.

use ftclos_topo::ChannelId;
use std::fmt;

/// A [`crate::SimConfig`] the engine cannot execute meaningfully.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `queue_capacity == 0`: no downstream credit can ever exist, every
    /// switch output deadlocks on its first packet.
    ZeroQueueCapacity,
    /// `packet_flits == 0`: a packet must occupy a wire for ≥ 1 cycle.
    ZeroPacketFlits,
    /// `retry == true` with `retry_limit == 0`: retries enabled but no
    /// retransmission could ever happen.
    ZeroRetryLimit,
    /// `retry == true` with `ttl_cycles == 0`: retransmission triggers on
    /// timeout, so retries without a TTL never fire.
    RetryWithoutTimeout,
    /// `stall_watchdog` enabled but not larger than `packet_flits`:
    /// multi-flit serialization legitimately pauses all movement for
    /// `packet_flits - 1` consecutive cycles, so a shorter watchdog would
    /// fire on healthy runs.
    WatchdogTooShort,
    /// `warmup_cycles + measure_cycles + DRAIN_CAP + ttl_cycles +
    /// packet_flits` overflows `u64`: the run's cycle numbers would wrap.
    CycleOverflow,
    /// `Arbiter::Voq { iterations: 0 }`: an iSLIP cycle with no
    /// request-grant-accept round matches nothing.
    ZeroIslipIterations,
    /// The workload's injection rate is NaN (not a property of the
    /// [`crate::SimConfig`], but rejected with it, before the run starts).
    NanRate,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroQueueCapacity => {
                write!(f, "queue_capacity must be > 0 (zero-size queues deadlock)")
            }
            ConfigError::ZeroPacketFlits => {
                write!(
                    f,
                    "packet_flits must be > 0 (a packet occupies a wire for at least one cycle)"
                )
            }
            ConfigError::ZeroRetryLimit => {
                write!(
                    f,
                    "retry is enabled but retry_limit is 0 (no retransmission could happen)"
                )
            }
            ConfigError::RetryWithoutTimeout => {
                write!(
                    f,
                    "retry is enabled but ttl_cycles is 0 (retransmission triggers on timeout)"
                )
            }
            ConfigError::WatchdogTooShort => {
                write!(
                    f,
                    "stall_watchdog must exceed packet_flits (serialization pauses movement)"
                )
            }
            ConfigError::CycleOverflow => {
                write!(
                    f,
                    "warmup + measure + drain cap + ttl_cycles + packet_flits must fit in 64 bits"
                )
            }
            ConfigError::ZeroIslipIterations => {
                write!(f, "iSLIP needs at least one iteration per cycle")
            }
            ConfigError::NanRate => {
                write!(f, "the workload's injection rate is NaN")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// One blocked packet strand in a stalled network: the head packet of a
/// queue, the channel it occupies, and the channel it waits for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Strand {
    /// Source leaf port of the blocked head packet.
    pub src: u32,
    /// Destination leaf port of the blocked head packet.
    pub dst: u32,
    /// Channel whose queue the packet heads (`None` for packets still in a
    /// leaf injection queue — they hold no fabric resource yet).
    pub holds: Option<ChannelId>,
    /// The next channel the packet needs (wire free + downstream credit).
    pub waits_for: ChannelId,
    /// Packets stranded in the same queue, head included.
    pub queued: usize,
}

/// The stall watchdog's diagnosis: what is stuck and why (see
/// [`crate::SimConfig::stall_watchdog`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StallReport {
    /// Cycle at which the watchdog fired.
    pub cycle: u64,
    /// Packets injected but neither delivered nor abandoned.
    pub in_flight: u64,
    /// One entry per blocked queue head, ordered by held channel id
    /// (injection-queue strands last, by source port).
    pub strands: Vec<Strand>,
    /// The credit wait-for cycle among held channels, if one exists:
    /// `wait_cycle[i]` is held by a head packet waiting for
    /// `wait_cycle[(i + 1) % len]` — the dynamic face of a cyclic channel
    /// dependency. Rotated to start at its smallest channel id. Empty when
    /// the stall is acyclic (e.g. traffic wedged behind a dead channel).
    pub wait_cycle: Vec<ChannelId>,
}

impl StallReport {
    /// Total packets stranded across all blocked queues.
    pub fn stranded_packets(&self) -> usize {
        self.strands.iter().map(|s| s.queued).sum()
    }
}

/// Errors from a simulation run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The configuration failed [`crate::SimConfig::validate`].
    Config(ConfigError),
    /// An engine invariant broke mid-run (a bug, not an input problem):
    /// reported as data so batch drivers can isolate the failed run.
    Invariant {
        /// What the engine expected and what it found.
        detail: String,
    },
    /// A pinned route handed to [`crate::Policy::from_pinned`] is not a
    /// walkable path of the topology for its pair (bad endpoint, dead
    /// continuity, out-of-range channel, or a duplicate pair).
    PinnedPath {
        /// Source port of the offending route.
        src: u32,
        /// Destination port of the offending route.
        dst: u32,
        /// What made the route unusable.
        detail: String,
    },
    /// The stall watchdog fired: packets were in flight but nothing moved
    /// for [`crate::SimConfig::stall_watchdog`] consecutive cycles. Carries
    /// the full strand graph so the wedge is diagnosable without re-running.
    Stalled(StallReport),
}

impl SimError {
    /// Construct an invariant violation.
    pub fn invariant(detail: impl Into<String>) -> Self {
        SimError::Invariant {
            detail: detail.into(),
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "invalid simulation config: {e}"),
            SimError::Invariant { detail } => {
                write!(f, "simulation invariant violated: {detail}")
            }
            SimError::PinnedPath { src, dst, detail } => {
                write!(
                    f,
                    "pinned route for pair ({src}, {dst}) is unusable: {detail}"
                )
            }
            SimError::Stalled(report) => {
                write!(
                    f,
                    "simulation stalled at cycle {}: {} in flight, {} blocked strands, \
                     wait-for cycle of {} channels",
                    report.cycle,
                    report.in_flight,
                    report.strands.len(),
                    report.wait_cycle.len()
                )
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            SimError::Invariant { .. } | SimError::PinnedPath { .. } | SimError::Stalled(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e: SimError = ConfigError::ZeroQueueCapacity.into();
        assert!(e.to_string().contains("queue_capacity"));
        let e = SimError::invariant("head vanished");
        assert!(e.to_string().contains("head vanished"));
        assert_ne!(
            SimError::from(ConfigError::ZeroPacketFlits),
            SimError::from(ConfigError::ZeroRetryLimit)
        );
    }
}
