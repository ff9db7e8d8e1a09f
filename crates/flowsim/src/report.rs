//! [`FluidReport`] — the machine- and human-readable summary of one
//! water-filling solve, shared by `ftclos flowsim` and the E19 bench so
//! both emit identical shapes.

use crate::flows::FlowSet;
use crate::waterfill::FluidAllocation;
use ftclos_obs::json::quote;
use ftclos_sim::UtilizationHistogram;
use serde::Serialize;
use std::fmt;

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

    /// Render as a JSON object (hand-rolled: the vendored `serde` is a
    /// marker shim with no serializer behind it).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"router\":{},\"pattern\":{},\"hosts\":{},",
                "\"num_flows\":{},\"num_link_entries\":{},",
                "\"aggregate_throughput\":{},\"mean_rate\":{},",
                "\"worst_rate\":{},\"all_unit_rate\":{},",
                "\"max_demand_congestion\":{},\"max_link_load\":{},",
                "\"rounds\":{},\"utilization\":{}}}"
            ),
            quote(&self.router),
            quote(&self.pattern),
            self.hosts,
            self.num_flows,
            self.num_link_entries,
            json_f64(self.aggregate_throughput),
            json_f64(self.mean_rate),
            json_f64(self.worst_rate),
            self.all_unit_rate,
            json_f64(self.max_demand_congestion),
            json_f64(self.max_link_load),
            self.rounds,
            json_histogram(&self.utilization),
        )
    }
}

impl fmt::Display for FluidReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} x {} on {} hosts: {} flows, {} link entries",
            self.router, self.pattern, self.hosts, self.num_flows, self.num_link_entries
        )?;
        writeln!(
            f,
            "  delivered {:.4} aggregate ({:.4} mean, {:.4} worst){}",
            self.aggregate_throughput,
            self.mean_rate,
            self.worst_rate,
            if self.all_unit_rate {
                " — fully delivered"
            } else {
                ""
            }
        )?;
        writeln!(
            f,
            "  congestion: demand max {:.4}, allocated max {:.4}, {} round(s)",
            self.max_demand_congestion, self.max_link_load, self.rounds
        )?;
        write!(
            f,
            "  link utilization deciles: {}",
            self.utilization.to_compact_string()
        )
    }
}

/// Format a float as a JSON number (non-finite values become `null`).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // Rust's shortest-roundtrip Display never emits NaN/inf here and
        // never uses exponent notation, both of which JSON rejects.
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

/// Render a utilization histogram as a JSON array of bucket counts.
pub(crate) fn json_histogram(h: &UtilizationHistogram) -> String {
    let inner = h
        .buckets
        .iter()
        .map(|b| b.to_string())
        .collect::<Vec<_>>()
        .join(",");
    format!("[{inner}]")
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
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
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
        // Balanced braces/brackets — cheap well-formedness proxy without a
        // JSON parser in the tree.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "{json}"
        );
    }

    #[test]
    fn json_floats() {
        assert_eq!(json_f64(0.5), "0.5");
        assert_eq!(json_f64(1.0), "1.0");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn display_mentions_the_headline_numbers() {
        let r = sample_report();
        let text = r.to_string();
        assert!(text.contains("d-mod-k"));
        assert!(text.contains("shift:3"));
        assert!(text.contains("deciles"));
    }
}
