//! [`Registry`] — the concrete instrumentation sink, and [`Snapshot`], its
//! frozen deterministic view.
//!
//! Counters, gauges, and histograms are registered once per name (a short
//! mutex-guarded `BTreeMap` lookup) and then bumped lock-free through
//! atomics, so a hot loop can resolve its handles up front and pay one
//! `fetch_add` per event. The span tree and the epoch log are coarse
//! (per-phase, per-transition) and live behind plain mutexes.
//!
//! Everything a snapshot emits is sorted by name (metrics) or creation
//! order (spans, epochs), both of which are deterministic for seeded runs —
//! the property the golden-file snapshot tests pin.

use crate::json::quote;
use crate::recorder::{Recorder, SpanGuard};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Log-2 bucket count: bucket 0 holds zeros, bucket `i >= 1` holds values
/// `v` with `floor(log2(v)) == i - 1`, i.e. `[2^(i-1), 2^i)`. 64 value
/// buckets cover the whole `u64` range.
const NUM_BUCKETS: usize = 65;

/// A named monotonic counter (cloneable handle onto shared atomic state).
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `delta`.
    #[inline]
    pub(crate) fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named gauge: an absolute value, last write wins.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub(crate) fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistInner {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A named log-bucketed histogram of `u64` samples.
#[derive(Clone, Debug)]
pub(crate) struct Histogram(Arc<HistInner>);

impl Histogram {
    fn new() -> Self {
        Histogram(Arc::new(HistInner {
            buckets: [(); NUM_BUCKETS].map(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }))
    }

    /// Bucket index of a sample: 0 for 0, else `1 + floor(log2(v))`.
    #[inline]
    pub(crate) fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Record one sample.
    #[inline]
    pub(crate) fn observe(&self, value: u64) {
        let h = &*self.0;
        h.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(value, Ordering::Relaxed);
        h.min.fetch_min(value, Ordering::Relaxed);
        h.max.fetch_max(value, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let h = &*self.0;
        let count = h.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: h.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                h.min.load(Ordering::Relaxed)
            },
            max: h.max.load(Ordering::Relaxed),
            buckets: (0..NUM_BUCKETS)
                .filter_map(|i| {
                    let c = h.buckets[i].load(Ordering::Relaxed);
                    if c == 0 {
                        None
                    } else {
                        // Lower bound of the bucket's value range.
                        let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                        Some((lo, c))
                    }
                })
                .collect(),
        }
    }
}

/// Frozen histogram state: nonempty buckets as `(lower_bound, count)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// `(bucket lower bound, samples)` for nonempty buckets, ascending.
    pub buckets: Vec<(u64, u64)>,
}

/// One node of the span tree.
#[derive(Clone, Debug)]
struct SpanNode {
    name: &'static str,
    children: Vec<usize>,
    count: u64,
    total_ns: u64,
}

/// The span tree plus the open-span stack.
#[derive(Debug, Default)]
struct SpanTree {
    nodes: Vec<SpanNode>,
    /// Roots in creation order.
    roots: Vec<usize>,
    /// Currently open spans (indices into `nodes`), innermost last.
    stack: Vec<usize>,
}

impl SpanTree {
    /// Find-or-create `name` as a child of the innermost open span.
    fn open(&mut self, name: &'static str) -> usize {
        let siblings = match self.stack.last() {
            Some(&p) => &self.nodes[p].children,
            None => &self.roots,
        };
        let found = siblings
            .iter()
            .copied()
            .find(|&i| self.nodes[i].name == name);
        let id = match found {
            Some(id) => id,
            None => {
                let parent = self.stack.last().copied();
                let id = self.nodes.len();
                self.nodes.push(SpanNode {
                    name,
                    children: Vec::new(),
                    count: 0,
                    total_ns: 0,
                });
                match parent {
                    None => self.roots.push(id),
                    Some(p) => self.nodes[p].children.push(id),
                }
                id
            }
        };
        self.stack.push(id);
        id
    }

    /// Record `dur` on `node` and pop it from the open stack. Tolerates
    /// out-of-order drops by popping through to the node (misuse leaves the
    /// skipped spans unclosed rather than corrupting the tree).
    fn close(&mut self, node: usize, dur: Duration) {
        let n = &mut self.nodes[node];
        n.count += 1;
        n.total_ns += dur.as_nanos().min(u128::from(u64::MAX)) as u64;
        while let Some(top) = self.stack.pop() {
            if top == node {
                break;
            }
        }
    }
}

#[derive(Debug, Default)]
struct Metrics {
    counters: BTreeMap<&'static str, Counter>,
    gauges: BTreeMap<&'static str, Gauge>,
    hists: BTreeMap<&'static str, Histogram>,
}

/// Cumulative counter and gauge values captured at one epoch boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochSnapshot {
    /// Caller-chosen label (e.g. the transition cycle).
    pub label: String,
    /// Cumulative counter values at the mark, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values at the mark, sorted by name.
    pub gauges: Vec<(String, u64)>,
}

impl EpochSnapshot {
    /// Cumulative value of a counter at this epoch (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Value of a gauge at this epoch (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }
}

/// The concrete recorder: atomic metrics, a span tree, and an epoch log.
#[derive(Debug)]
pub struct Registry {
    metrics: Mutex<Metrics>,
    spans: Mutex<SpanTree>,
    epochs: Mutex<Vec<EpochSnapshot>>,
    t0: Instant,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A fresh, empty registry; wall time is measured from here.
    pub fn new() -> Self {
        Registry {
            metrics: Mutex::new(Metrics::default()),
            spans: Mutex::new(SpanTree::default()),
            epochs: Mutex::new(Vec::new()),
            t0: Instant::now(),
        }
    }

    /// Resolve (registering on first use) the named counter handle. Hot
    /// loops should resolve once and call [`Counter::add`] directly.
    pub(crate) fn counter(&self, name: &'static str) -> Counter {
        self.metrics
            .lock()
            .expect("obs registry poisoned")
            .counters
            .entry(name)
            .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    /// Resolve (registering on first use) the named gauge handle.
    pub(crate) fn gauge_handle(&self, name: &'static str) -> Gauge {
        self.metrics
            .lock()
            .expect("obs registry poisoned")
            .gauges
            .entry(name)
            .or_insert_with(|| Gauge(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    /// Resolve (registering on first use) the named histogram handle.
    pub(crate) fn histogram(&self, name: &'static str) -> Histogram {
        self.metrics
            .lock()
            .expect("obs registry poisoned")
            .hists
            .entry(name)
            .or_insert_with(Histogram::new)
            .clone()
    }

    pub(crate) fn close_span(&self, node: usize, dur: Duration) {
        self.spans
            .lock()
            .expect("obs span tree poisoned")
            .close(node, dur);
    }

    /// Freeze the current state into a deterministic snapshot.
    pub fn snapshot(&self) -> Snapshot {
        // Read the clock before assembling the snapshot: its own string
        // building must not count as unattributed wall time.
        let wall_ns = self.t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let m = self.metrics.lock().expect("obs registry poisoned");
        let counters: Vec<(String, u64)> = m
            .counters
            .iter()
            .map(|(&n, c)| (n.to_string(), c.get()))
            .collect();
        let gauges: Vec<(String, u64)> = m
            .gauges
            .iter()
            .map(|(&n, g)| (n.to_string(), g.get()))
            .collect();
        let histograms: Vec<(String, HistogramSnapshot)> = m
            .hists
            .iter()
            .map(|(&n, h)| (n.to_string(), h.snapshot()))
            .collect();
        drop(m);
        let tree = self.spans.lock().expect("obs span tree poisoned");
        let mut spans = Vec::with_capacity(tree.nodes.len());
        // Depth-first preorder over roots: parents precede children, sibling
        // order is creation order (deterministic for sequential phases).
        let mut todo: Vec<(usize, String)> = tree
            .roots
            .iter()
            .rev()
            .map(|&r| (r, String::new()))
            .collect();
        while let Some((id, prefix)) = todo.pop() {
            let n = &tree.nodes[id];
            let path = if prefix.is_empty() {
                n.name.to_string()
            } else {
                format!("{prefix};{}", n.name)
            };
            let child_ns: u64 = n.children.iter().map(|&c| tree.nodes[c].total_ns).sum();
            spans.push(SpanSnapshot {
                path: path.clone(),
                name: n.name.to_string(),
                count: n.count,
                total_ns: n.total_ns,
                self_ns: n.total_ns.saturating_sub(child_ns),
            });
            for &c in n.children.iter().rev() {
                todo.push((c, path.clone()));
            }
        }
        drop(tree);
        Snapshot {
            wall_ns,
            counters,
            gauges,
            histograms,
            spans,
            epochs: self.epochs.lock().expect("obs epoch log poisoned").clone(),
        }
    }
}

impl Recorder for Registry {
    #[inline]
    fn is_enabled(&self) -> bool {
        true
    }

    fn add(&self, name: &'static str, delta: u64) {
        self.counter(name).add(delta);
    }

    fn gauge(&self, name: &'static str, value: u64) {
        self.gauge_handle(name).set(value);
    }

    fn observe(&self, name: &'static str, value: u64) {
        self.histogram(name).observe(value);
    }

    fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let node = self
            .spans
            .lock()
            .expect("obs span tree poisoned")
            .open(name);
        SpanGuard {
            reg: Some(self),
            start: Some(Instant::now()),
            node,
        }
    }

    fn mark_epoch(&self, label: &str) {
        let m = self.metrics.lock().expect("obs registry poisoned");
        let snap = EpochSnapshot {
            label: label.to_string(),
            counters: m
                .counters
                .iter()
                .map(|(&n, c)| (n.to_string(), c.get()))
                .collect(),
            gauges: m
                .gauges
                .iter()
                .map(|(&n, g)| (n.to_string(), g.get()))
                .collect(),
        };
        drop(m);
        self.epochs
            .lock()
            .expect("obs epoch log poisoned")
            .push(snap);
    }
}

/// One span of a [`Snapshot`]: a node of the trace tree with its full
/// `;`-joined path from the root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// `root;child;…;name`.
    pub path: String,
    /// Leaf name.
    pub name: String,
    /// Times the span was entered.
    pub count: u64,
    /// Inclusive nanoseconds (children included).
    pub total_ns: u64,
    /// Exclusive nanoseconds (children subtracted) — the folded-stack value.
    pub self_ns: u64,
}

/// A frozen, deterministic view of a [`Registry`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Nanoseconds since the registry was created.
    pub wall_ns: u64,
    /// `(name, value)` sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// `(name, histogram)` sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Span tree in depth-first preorder.
    pub spans: Vec<SpanSnapshot>,
    /// Epoch log in mark order.
    pub epochs: Vec<EpochSnapshot>,
}

fn json_u64_map(pairs: &[(String, u64)]) -> String {
    let inner: Vec<String> = pairs
        .iter()
        .map(|(n, v)| format!("{}:{v}", quote(n)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

impl Snapshot {
    /// Value of a counter (None when never registered).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Value of a gauge (None when never registered).
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The trace JSON `ftclos --trace` writes: stable field order, sorted
    /// metric names, spans in tree preorder. `command` and `args` land in
    /// the `meta` object.
    pub fn to_json(&self, command: &str, args: &str) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str("  \"trace_version\": 1,\n");
        out.push_str(&format!(
            "  \"meta\": {{\"command\":{},\"args\":{}}},\n",
            quote(command),
            quote(args)
        ));
        out.push_str(&format!("  \"wall_ns\": {},\n", self.wall_ns));
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "    {{\"path\":{},\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                    quote(&s.path),
                    s.count,
                    s.total_ns,
                    s.self_ns
                )
            })
            .collect();
        out.push_str(&format!("  \"spans\": [\n{}\n  ],\n", spans.join(",\n")));
        out.push_str(&format!(
            "  \"counters\": {},\n",
            json_u64_map(&self.counters)
        ));
        out.push_str(&format!("  \"gauges\": {},\n", json_u64_map(&self.gauges)));
        let hists: Vec<String> = self
            .histograms
            .iter()
            .map(|(n, h)| {
                let buckets: Vec<String> = h
                    .buckets
                    .iter()
                    .map(|(lo, c)| format!("[{lo},{c}]"))
                    .collect();
                format!(
                    "    {}:{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[{}]}}",
                    quote(n),
                    h.count,
                    h.sum,
                    h.min,
                    h.max,
                    buckets.join(",")
                )
            })
            .collect();
        if hists.is_empty() {
            out.push_str("  \"histograms\": {},\n");
        } else {
            out.push_str(&format!(
                "  \"histograms\": {{\n{}\n  }},\n",
                hists.join(",\n")
            ));
        }
        let epochs: Vec<String> = self
            .epochs
            .iter()
            .map(|e| {
                format!(
                    "    {{\"label\":{},\"counters\":{},\"gauges\":{}}}",
                    quote(&e.label),
                    json_u64_map(&e.counters),
                    json_u64_map(&e.gauges)
                )
            })
            .collect();
        if epochs.is_empty() {
            out.push_str("  \"epochs\": []\n");
        } else {
            out.push_str(&format!("  \"epochs\": [\n{}\n  ]\n", epochs.join(",\n")));
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    #[test]
    fn counters_gauges_histograms_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("hits");
        c.add(3);
        reg.add("hits", 2);
        reg.gauge("depth", 7);
        reg.observe("lat", 0);
        reg.observe("lat", 1);
        reg.observe("lat", 1000);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("hits"), Some(5));
        assert_eq!(snap.gauge("depth"), Some(7));
        let (_, h) = &snap.histograms[0];
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 1001);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1000);
        // 0 -> bucket 0 (lo 0); 1 -> bucket 1 (lo 1); 1000 -> lo 512.
        assert_eq!(h.buckets, vec![(0, 1), (1, 1), (512, 1)]);
    }

    #[test]
    fn log_bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let reg = Registry::new();
        for _ in 0..3 {
            let _a = reg.span("outer");
            let _b = reg.span("inner");
            std::hint::black_box(0u64);
        }
        let snap = reg.snapshot();
        let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, vec!["outer", "outer;inner"]);
        assert_eq!(snap.spans[0].count, 3);
        assert_eq!(snap.spans[1].count, 3);
        assert!(snap.spans[0].total_ns >= snap.spans[1].total_ns);
        assert_eq!(
            snap.spans[0].self_ns,
            snap.spans[0].total_ns - snap.spans[1].total_ns
        );
    }

    #[test]
    fn epochs_capture_cumulative_values() {
        let reg = Registry::new();
        reg.add("injected", 10);
        reg.gauge("in_flight", 4);
        reg.mark_epoch("t=100");
        reg.add("injected", 5);
        reg.gauge("in_flight", 2);
        reg.mark_epoch("t=200");
        let snap = reg.snapshot();
        assert_eq!(snap.epochs.len(), 2);
        assert_eq!(snap.epochs[0].counter("injected"), 10);
        assert_eq!(snap.epochs[0].gauge("in_flight"), 4);
        assert_eq!(snap.epochs[1].counter("injected"), 15);
        assert_eq!(snap.epochs[1].gauge("in_flight"), 2);
    }

    #[test]
    fn json_is_stable_and_complete() {
        let reg = Registry::new();
        {
            let _s = reg.span("root");
            let _c = reg.span("child");
        }
        reg.add("b_counter", 2);
        reg.add("a_counter", 1);
        reg.observe("h", 5);
        reg.mark_epoch("end");
        let json = reg.snapshot().to_json("test", "--x 1");
        assert!(json.contains("\"trace_version\": 1"));
        assert!(json.contains("\"command\":\"test\""));
        assert!(json.contains("\"root;child\""));
        // BTreeMap ordering: a_counter before b_counter.
        let a = json.find("a_counter").unwrap();
        let b = json.find("b_counter").unwrap();
        assert!(a < b);
        assert!(json.contains("\"epochs\": ["));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn snapshot_counter_access_and_missing_names() {
        let reg = Registry::new();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("nope"), None);
        assert_eq!(snap.gauge("nope"), None);
        assert!(snap.epochs.is_empty());
    }
}
