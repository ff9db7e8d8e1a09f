//! [`FluidReport`] — the summary of one water-filling solve, shared by
//! `ftclos flowsim` and the E19 bench, with its JSON form.

use crate::flows::FlowSet;
use crate::waterfill::FluidAllocation;
use ftclos_obs::json::{Json, Number};
use ftclos_obs::obj;
use ftclos_sim::UtilizationHistogram;
use serde::Serialize;

/// Summary of one pattern solved to its max-min fair fixed point.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct FluidReport {
    /// Routing function name (e.g. `d-mod-k`).
    pub router: String,
    /// Traffic pattern name (e.g. `shift:3`).
    pub pattern: String,
    /// Leaf universe size of the fabric.
    pub hosts: u32,
    /// Flows in the pattern (self-pairs included).
    pub num_flows: usize,
    /// `(flow, channel)` link entries — the solver's working-set size.
    pub num_link_entries: usize,
    /// Sum of delivered flow rates, in units of link bandwidth.
    pub aggregate_throughput: f64,
    /// Mean delivered flow rate in `[0, 1]`.
    pub mean_rate: f64,
    /// Slowest flow's delivered rate in `[0, 1]`.
    pub worst_rate: f64,
    /// True when every flow reached full unit rate.
    pub all_unit_rate: bool,
    /// Max per-channel *demand* (load if every flow sent at full rate) —
    /// the congestion objective of the routing itself.
    pub max_demand_congestion: f64,
    /// Max per-channel *allocated* load after fair sharing (never exceeds
    /// the channel capacity).
    pub max_link_load: f64,
    /// Water-filling rounds to convergence.
    pub rounds: usize,
    /// Decile histogram of allocated utilization over channels that carry
    /// traffic (same shape the packet engine reports).
    pub utilization: UtilizationHistogram,
}

impl FluidReport {
    /// Assemble a report from a solved allocation.
    pub fn new(
        router: impl Into<String>,
        pattern: impl Into<String>,
        hosts: u32,
        flows: &FlowSet,
        alloc: &FluidAllocation,
    ) -> Self {
        let max_link_load = alloc.link_loads().iter().copied().fold(0.0, f64::max);
        let utilization = UtilizationHistogram::from_utilizations(
            alloc.link_loads().iter().copied().filter(|&l| l > 0.0),
        );
        Self {
            router: router.into(),
            pattern: pattern.into(),
            hosts,
            num_flows: flows.num_flows(),
            num_link_entries: flows.num_entries(),
            aggregate_throughput: alloc.aggregate_throughput(),
            mean_rate: alloc.mean_rate(),
            worst_rate: alloc.worst_rate(),
            all_unit_rate: alloc.all_unit_rate(),
            max_demand_congestion: flows.max_congestion(),
            max_link_load,
            rounds: alloc.rounds(),
            utilization,
        }
    }

    /// The report as one JSON object: the flowsim report shape `ftclos
    /// flowsim --json` prints, rates in shortest round-trip form.
    pub fn json(&self) -> Json {
        let rate = Number::float;
        obj! {
            "router" => self.router.as_str(), "pattern" => self.pattern.as_str(),
            "hosts" => self.hosts,
            "num_flows" => self.num_flows, "num_link_entries" => self.num_link_entries,
            "aggregate_throughput" => rate(self.aggregate_throughput),
            "mean_rate" => rate(self.mean_rate), "worst_rate" => rate(self.worst_rate),
            "all_unit_rate" => self.all_unit_rate,
            "max_demand_congestion" => rate(self.max_demand_congestion),
            "max_link_load" => rate(self.max_link_load),
            "rounds" => self.rounds,
            "utilization" => self.utilization.buckets.iter().copied().collect::<Json>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waterfill::waterfill_unit;
    use ftclos_routing::DModK;
    use ftclos_topo::Ftree;
    use ftclos_traffic::patterns;

    fn sample_report() -> FluidReport {
        let ft = Ftree::new(2, 2, 5).unwrap();
        let router = DModK::new(&ft);
        let perm = patterns::shift(10, 3);
        let set = FlowSet::from_view(&router, &perm, ft.topology().num_channels()).unwrap();
        let alloc = waterfill_unit(&set);
        FluidReport::new("d-mod-k", "shift:3", 10, &set, &alloc)
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let r = sample_report();
        let json = r.json().write();
        for key in [
            "\"router\":\"d-mod-k\"",
            "\"pattern\":\"shift:3\"",
            "\"hosts\":10",
            "\"num_flows\":10",
            "\"aggregate_throughput\":",
            "\"worst_rate\":",
            "\"all_unit_rate\":",
            "\"max_demand_congestion\":",
            "\"rounds\":",
            "\"utilization\":[",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let doc = Json::parse(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
        assert_eq!(
            doc.get("num_link_entries").and_then(Json::as_u64),
            Some(r.num_link_entries as u64)
        );
        assert_eq!(
            doc.get("utilization")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(r.utilization.buckets.len())
        );
    }
}
