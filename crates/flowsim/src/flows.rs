//! [`FlowSet`] — the link-level expansion of a routed traffic pattern,
//! stored dense for datacenter-scale solving.
//!
//! A [`LinkLoadView`] yields one [`FlowLinks`] per SD pair; this module
//! compacts those into CSR (compressed sparse row) form in both directions:
//! flow → `(channel, weight)` entries for rate bookkeeping, and channel →
//! flow incidence for the water-filling freeze step. Channel ids are dense
//! in every `ftclos-topo` topology, so per-channel state lives in flat
//! vectors — no hashing on the solver's hot path.

use ftclos_routing::{FlowLinks, LinkLoadView, RoutingError};
use ftclos_topo::ChannelId;
use ftclos_traffic::{Permutation, SdPair};
use std::fmt;

/// Errors building a flow set.
#[derive(Clone, Debug, PartialEq)]
pub enum FlowError {
    /// The underlying router failed to expand the pattern.
    Routing(RoutingError),
    /// A flow references a channel id outside the fabric.
    ChannelOutOfRange {
        /// The offending channel.
        channel: ChannelId,
        /// Number of channels in the fabric.
        num_channels: usize,
    },
    /// A flow carries a non-finite or non-positive link weight.
    BadWeight {
        /// The flow's SD pair.
        pair: SdPair,
        /// The offending weight.
        weight: f64,
    },
    /// A capacity map covers fewer channels than the flow set references
    /// (the two were built from different topologies).
    CapacityMismatch {
        /// Channels covered by the capacity map.
        caps: usize,
        /// Channels the flow set references.
        needed: usize,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Routing(e) => write!(f, "routing failed: {e}"),
            FlowError::ChannelOutOfRange {
                channel,
                num_channels,
            } => write!(
                f,
                "flow references channel {channel:?} but the fabric has {num_channels}"
            ),
            FlowError::BadWeight { pair, weight } => {
                write!(f, "flow {pair} carries invalid link weight {weight}")
            }
            FlowError::CapacityMismatch { caps, needed } => write!(
                f,
                "capacity map covers {caps} channels, flow set needs {needed}"
            ),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<RoutingError> for FlowError {
    fn from(e: RoutingError) -> Self {
        FlowError::Routing(e)
    }
}

/// The link-level flow sets of one routed pattern, in CSR form.
#[derive(Clone, Debug)]
pub struct FlowSet {
    /// SD pair of each flow.
    pairs: Vec<SdPair>,
    /// Flow `i`'s entries are `entry_channel/entry_weight[flow_start[i]..flow_start[i+1]]`.
    flow_start: Vec<u32>,
    entry_channel: Vec<u32>,
    entry_weight: Vec<f64>,
    /// Channel `c`'s crossing flows are `channel_flows[channel_start[c]..channel_start[c+1]]`.
    channel_start: Vec<u32>,
    channel_flows: Vec<u32>,
    num_channels: usize,
}

impl FlowSet {
    /// Build from per-flow link sets over a fabric with `num_channels`
    /// channels, validating channel ids and weights.
    pub(crate) fn from_flows(flows: &[FlowLinks], num_channels: usize) -> Result<Self, FlowError> {
        let mut pairs = Vec::with_capacity(flows.len());
        let mut flow_start = Vec::with_capacity(flows.len() + 1);
        let total: usize = flows.iter().map(|f| f.links.len()).sum();
        let mut entry_channel = Vec::with_capacity(total);
        let mut entry_weight = Vec::with_capacity(total);
        flow_start.push(0u32);
        for f in flows {
            pairs.push(f.pair);
            for &(c, w) in &f.links {
                if c.index() >= num_channels {
                    return Err(FlowError::ChannelOutOfRange {
                        channel: c,
                        num_channels,
                    });
                }
                if !w.is_finite() || w <= 0.0 {
                    return Err(FlowError::BadWeight {
                        pair: f.pair,
                        weight: w,
                    });
                }
                entry_channel.push(c.index() as u32);
                entry_weight.push(w);
            }
            flow_start.push(entry_channel.len() as u32);
        }

        // Invert: channel -> crossing flows (counting sort by channel).
        let mut counts = vec![0u32; num_channels + 1];
        for &c in &entry_channel {
            counts[c as usize + 1] += 1;
        }
        for i in 0..num_channels {
            counts[i + 1] += counts[i];
        }
        let channel_start = counts.clone();
        let mut cursor = counts;
        let mut channel_flows = vec![0u32; entry_channel.len()];
        for (flow, window) in flow_start.windows(2).enumerate() {
            for e in window[0]..window[1] {
                let c = entry_channel[e as usize] as usize;
                channel_flows[cursor[c] as usize] = flow as u32;
                cursor[c] += 1;
            }
        }

        Ok(Self {
            pairs,
            flow_start,
            entry_channel,
            entry_weight,
            channel_start,
            channel_flows,
            num_channels,
        })
    }

    /// Expand `perm` through `view` into a flow set over a fabric with
    /// `num_channels` channels.
    pub fn from_view<V: LinkLoadView + ?Sized>(
        view: &V,
        perm: &Permutation,
        num_channels: usize,
    ) -> Result<Self, FlowError> {
        let flows = view.flow_links(perm)?;
        Self::from_flows(&flows, num_channels)
    }

    /// Number of flows (one per SD pair of the pattern).
    #[inline]
    pub fn num_flows(&self) -> usize {
        self.pairs.len()
    }

    /// Number of channels in the underlying fabric.
    #[inline]
    pub fn num_channels(&self) -> usize {
        self.num_channels
    }

    /// The SD pair of flow `i`.
    #[inline]
    pub fn pair(&self, i: usize) -> SdPair {
        self.pairs[i]
    }

    /// Flow `i`'s `(channel index, weight)` entries.
    #[inline]
    pub fn links(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.flow_start[i] as usize;
        let hi = self.flow_start[i + 1] as usize;
        self.entry_channel[lo..hi]
            .iter()
            .zip(&self.entry_weight[lo..hi])
            .map(|(&c, &w)| (c as usize, w))
    }

    /// Flows crossing channel `c`.
    #[inline]
    pub(crate) fn flows_on(&self, c: usize) -> &[u32] {
        let lo = self.channel_start[c] as usize;
        let hi = self.channel_start[c + 1] as usize;
        &self.channel_flows[lo..hi]
    }

    /// Total link entries (the solver's working-set size).
    #[inline]
    pub(crate) fn num_entries(&self) -> usize {
        self.entry_channel.len()
    }

    /// Per-channel *demand* load: total weight crossing each channel if
    /// every flow sent at full rate — the congestion the pattern asks for
    /// before any fair-sharing happens. Indexed by channel id.
    pub(crate) fn demand_loads(&self) -> Vec<f64> {
        let mut loads = vec![0.0; self.num_channels];
        for (&c, &w) in self.entry_channel.iter().zip(&self.entry_weight) {
            loads[c as usize] += w;
        }
        loads
    }

    /// Maximum demand load over all channels — the max-congestion objective
    /// of unsplittable-flow routing (0.0 when no flow uses any link).
    pub(crate) fn max_congestion(&self) -> f64 {
        self.demand_loads().into_iter().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclos_routing::DModK;
    use ftclos_topo::Ftree;
    use ftclos_traffic::patterns;

    #[test]
    fn csr_roundtrip_matches_flows() {
        let ft = Ftree::new(2, 2, 5).unwrap();
        let router = DModK::new(&ft);
        let perm = patterns::shift(10, 3);
        let raw = LinkLoadView::flow_links(&router, &perm).unwrap();
        let set = FlowSet::from_flows(&raw, ft.topology().num_channels()).unwrap();
        assert_eq!(set.num_flows(), raw.len());
        for (i, f) in raw.iter().enumerate() {
            assert_eq!(set.pair(i), f.pair);
            let links: Vec<(usize, f64)> = set.links(i).collect();
            assert_eq!(links.len(), f.links.len());
            for ((c, w), &(rc, rw)) in links.iter().zip(&f.links) {
                assert_eq!(*c, rc.index());
                assert_eq!(*w, rw);
            }
        }
        // The inverse incidence is consistent: every (flow, channel) entry
        // appears in the channel's flow list.
        for i in 0..set.num_flows() {
            for (c, _) in set.links(i) {
                assert!(set.flows_on(c).contains(&(i as u32)));
            }
        }
    }

    #[test]
    fn demand_loads_match_route_assignment() {
        let ft = Ftree::new(2, 2, 5).unwrap();
        let router = DModK::new(&ft);
        let perm = patterns::shift(10, 3);
        let set = FlowSet::from_view(&router, &perm, ft.topology().num_channels()).unwrap();
        let assignment = ftclos_routing::route_all(&router, &perm).unwrap();
        assert_eq!(
            set.max_congestion(),
            assignment.max_channel_load() as f64,
            "fluid demand equals integer channel load for unit single-path flows"
        );
    }

    #[test]
    fn rejects_bad_channels_and_weights() {
        let pair = SdPair::new(0, 1);
        let bad_channel = FlowLinks {
            pair,
            links: vec![(ChannelId(99), 1.0)],
        };
        assert!(matches!(
            FlowSet::from_flows(&[bad_channel], 10),
            Err(FlowError::ChannelOutOfRange { .. })
        ));
        let bad_weight = FlowLinks {
            pair,
            links: vec![(ChannelId(0), -1.0)],
        };
        assert!(matches!(
            FlowSet::from_flows(&[bad_weight], 10),
            Err(FlowError::BadWeight { .. })
        ));
        let nan_weight = FlowLinks {
            pair,
            links: vec![(ChannelId(0), f64::NAN)],
        };
        assert!(matches!(
            FlowSet::from_flows(&[nan_weight], 10),
            Err(FlowError::BadWeight { .. })
        ));
    }

    #[test]
    fn empty_pattern_is_fine() {
        let set = FlowSet::from_flows(&[], 4).unwrap();
        assert_eq!(set.num_flows(), 0);
        assert_eq!(set.max_congestion(), 0.0);
    }
}
