//! Metric names, and the per-layer metrics derived from one pipeline trace.
//!
//! Layers are the crates. Every trace-derived number is a bench-owned span
//! (`bench.<layer>.<call>`, seconds) or a bench-owned counter or gauge of the
//! trace the pipeline wrote; rates divide one by the other. A layer the
//! workload never enters reports 0.

use crate::stats::{ratio, Summary};
use ftclos_obs::json::Json;
use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`, measured with tracing off.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// The one number reported for a metric: the quartile on the metric's better
/// side for the two run-time metrics, the median for everything else.
///
/// The noise of a shared host is one-sided and comes in episodes: a neighbour
/// only ever slows a run, for 5 - 30 s at a time, which is a large part of one
/// pass. The lower quartile of the run times stays on the undisturbed level
/// until three quarters of a pass is disturbed, the median only until half
/// is; the minimum is not used because a lucky run (`deadlock-cdg` shows one
/// in thirty, 5 % fast) moves it.
pub fn reported(name: &str, summary: &Summary) -> f64 {
    match name {
        "wall_s" => summary.q1,
        "work_per_s" => summary.q3,
        _ => summary.median,
    }
}

/// Per-layer metrics `(name, unit)`, in report order.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("topo.build_s", "s"),
    ("topo.channels", "count"),
    ("topo.bytes", "B"),
    ("topo.build_ns_per_channel", "ns"),
    ("traffic.pattern_s", "s"),
    ("routing.router_new_s", "s"),
    ("routing.arena_build_s", "s"),
    ("routing.arena_paths", "count"),
    ("routing.arena_hops", "count"),
    ("routing.arena_bytes", "B"),
    ("routing.arena_ns_per_path", "ns"),
    ("routing.route_all_s", "s"),
    ("routing.routes", "count"),
    ("core.engine_census_s", "s"),
    ("core.engine_scan_s", "s"),
    ("core.cdg_build_s", "s"),
    ("core.cdg_check_s", "s"),
    ("core.cdg_deps", "count"),
    ("core.cdg_ns_per_pair", "ns"),
    ("sim.policy_build_s", "s"),
    ("sim.policy_routes", "count"),
    ("sim.state_bytes", "B"),
    ("sim.touched_channels", "count"),
    ("evsim.run_s", "s"),
    ("evsim.host_cycles_per_s", "1/s"),
    ("evsim.injected", "count"),
    ("evsim.delivered", "count"),
    ("evsim.ns_per_delivered", "ns"),
    ("obs.recorded_run_ratio", "ratio"),
    ("obs.snapshot_json_s", "s"),
    ("obs.trace_bytes", "B"),
    ("obs.bench_trace_overhead_ratio", "ratio"),
    ("cli.startup_s", "s"),
    ("cli.unattributed_s", "s"),
    ("cli.unattributed_ratio", "ratio"),
    ("cli.stdout_bytes", "B"),
    ("proc.cpu_user_s", "s"),
    ("proc.cpu_sys_s", "s"),
    ("proc.cpu_util", "ratio"),
    ("proc.minor_faults", "count"),
    ("proc.teardown_s", "s"),
    ("pipeline.wall_s", "s"),
    ("pipeline.attributed_ratio", "ratio"),
];

/// The root span every layer span is a child of.
const ROOT: &str = "bench.pipeline";

/// One parsed pipeline trace.
pub struct Trace {
    /// `(path, total_ns, self_ns)` in tree preorder.
    spans: Vec<(String, f64, f64)>,
    /// Counters and gauges by name (the bench's own never share one).
    counts: BTreeMap<String, f64>,
}

impl Trace {
    /// Parse trace JSON as `Snapshot::to_json` writes it.
    ///
    /// # Errors
    /// Not JSON, or not a trace.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text)?;
        let spans = doc
            .get("spans")
            .and_then(Json::as_arr)
            .ok_or("trace has no `spans`")?
            .iter()
            .map(|s| {
                let num = |key| s.get(key).and_then(Json::as_f64);
                let path = s.get("path").and_then(Json::as_str);
                match (path, num("total_ns"), num("self_ns")) {
                    (Some(p), Some(total), Some(own)) => Ok((p.to_string(), total, own)),
                    _ => Err("trace span without path/total_ns/self_ns".to_string()),
                }
            })
            .collect::<Result<_, _>>()?;
        let mut counts = BTreeMap::new();
        for key in ["counters", "gauges"] {
            let Some(Json::Obj(entries)) = doc.get(key) else {
                return Err(format!("trace has no `{key}`"));
            };
            counts.extend(
                entries
                    .iter()
                    .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v))),
            );
        }
        Ok(Self { spans, counts })
    }

    /// Seconds spent in every span whose own name is `name`, children
    /// included.
    fn span_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(path, _, _)| path.rsplit(';').next() == Some(name))
            .map(|(_, total, _)| total / 1e9)
            .sum()
    }

    fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Seconds of the root span `(total, self)`: self time is the span minus
    /// what its children cover, i.e. the pipeline wall no layer span owns.
    fn root_s(&self) -> (f64, f64) {
        self.spans
            .iter()
            .find(|(path, _, _)| path == ROOT)
            .map_or((0.0, 0.0), |(_, total, own)| (total / 1e9, own / 1e9))
    }

    /// Seconds of the pipeline attributed to named layer spans.
    pub fn attributed_s(&self) -> f64 {
        let (total, own) = self.root_s();
        total - own
    }

    /// The per-layer metrics this trace determines.
    pub fn layer_metrics(&self) -> BTreeMap<&'static str, f64> {
        let s = |span: &str| self.span_s(span);
        let n = |name: &str| self.count(name);
        let ns_per = |span: &str, count: &str| ratio(s(span) * 1e9, n(count));
        let (wall, _) = self.root_s();
        BTreeMap::from([
            ("topo.build_s", s("bench.topo.build")),
            ("topo.channels", n("bench.topo.channels")),
            ("topo.bytes", n("bench.topo.bytes")),
            (
                "topo.build_ns_per_channel",
                ns_per("bench.topo.build", "bench.topo.channels"),
            ),
            ("traffic.pattern_s", s("bench.traffic.pattern")),
            ("routing.router_new_s", s("bench.routing.router_new")),
            ("routing.arena_build_s", s("bench.routing.arena_build")),
            ("routing.arena_paths", n("bench.routing.arena_paths")),
            ("routing.arena_hops", n("bench.routing.arena_hops")),
            ("routing.arena_bytes", n("bench.routing.arena_bytes")),
            (
                "routing.arena_ns_per_path",
                ns_per("bench.routing.arena_build", "bench.routing.arena_paths"),
            ),
            ("routing.route_all_s", s("bench.routing.route_all")),
            ("routing.routes", n("bench.routing.routes")),
            ("core.engine_census_s", s("bench.core.engine_census")),
            ("core.engine_scan_s", s("bench.core.engine_scan")),
            ("core.cdg_build_s", s("bench.core.cdg_build")),
            ("core.cdg_check_s", s("bench.core.cdg_check")),
            ("core.cdg_deps", n("bench.core.cdg_deps")),
            (
                "core.cdg_ns_per_pair",
                ns_per("bench.core.cdg_build", "bench.core.cdg_pairs"),
            ),
            ("sim.policy_build_s", s("bench.sim.policy_build")),
            ("sim.policy_routes", n("bench.sim.policy_routes")),
            ("sim.state_bytes", n("bench.sim.state_bytes")),
            ("sim.touched_channels", n("bench.sim.touched_channels")),
            ("evsim.run_s", s("bench.evsim.run")),
            (
                "evsim.host_cycles_per_s",
                ratio(n("bench.evsim.host_cycles"), s("bench.evsim.run")),
            ),
            ("evsim.injected", n("bench.evsim.injected")),
            ("evsim.delivered", n("bench.evsim.delivered")),
            (
                "evsim.ns_per_delivered",
                ns_per("bench.evsim.run", "bench.evsim.delivered"),
            ),
            (
                "obs.recorded_run_ratio",
                ratio(s("bench.obs.recorded_run"), s("bench.obs.plain_run")),
            ),
            ("obs.snapshot_json_s", s("bench.obs.snapshot_json")),
            ("proc.teardown_s", s("bench.proc.teardown")),
            ("pipeline.wall_s", wall),
            (
                "pipeline.attributed_ratio",
                ratio(self.attributed_s(), wall),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclos_obs::{Recorder, Registry};
    use std::time::Duration;

    #[test]
    fn self_time_is_the_parent_minus_its_children() {
        let reg = Registry::new();
        {
            let _root = reg.span(ROOT);
            for _ in 0..2 {
                let _build = reg.span("bench.topo.build");
                let _inner = reg.span("library.inner");
                std::thread::sleep(Duration::from_millis(2));
            }
            {
                let _run = reg.span("bench.evsim.run");
                std::thread::sleep(Duration::from_millis(2));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        reg.add("bench.topo.channels", 10);
        reg.gauge("bench.topo.bytes", 640);
        let trace = Trace::parse(&reg.snapshot().to_json("pipeline", "test")).unwrap();
        let (total, own) = trace.root_s();
        let build = trace.span_s("bench.topo.build");
        let run = trace.span_s("bench.evsim.run");
        assert!(
            build >= 0.004 && run >= 0.002 && own >= 0.002,
            "{build} {run} {own}"
        );
        // Root self time = root total minus its direct children; the library's
        // own nested span is already inside `bench.topo.build`.
        assert!((total - own - (build + run)).abs() < 1e-9);
        assert!((trace.attributed_s() - (build + run)).abs() < 1e-9);
        let m = trace.layer_metrics();
        assert_eq!(m["topo.channels"], 10.0);
        assert_eq!(m["topo.bytes"], 640.0);
        assert!((m["topo.build_ns_per_channel"] - build * 1e9 / 10.0).abs() < 1e-3);
        assert!(m["pipeline.attributed_ratio"] > 0.5 && m["pipeline.attributed_ratio"] < 1.0);
        // Layers the "workload" never entered report 0.
        assert_eq!(m["core.cdg_build_s"], 0.0);
        assert_eq!(m["core.cdg_ns_per_pair"], 0.0);
    }

    #[test]
    fn layer_metrics_are_declared_with_units() {
        let reg = Registry::new();
        let trace = Trace::parse(&reg.snapshot().to_json("pipeline", "empty")).unwrap();
        for name in trace.layer_metrics().keys() {
            assert!(PER_LAYER.iter().any(|(n, _)| n == name), "{name}");
        }
    }

    #[test]
    fn rejects_what_is_not_a_trace() {
        assert!(Trace::parse("{}").is_err());
        assert!(Trace::parse("not json").is_err());
    }
}
