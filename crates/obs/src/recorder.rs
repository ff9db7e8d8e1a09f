//! The [`Recorder`] trait and its free no-op implementation.
//!
//! Hot paths take `rec: &R` with `R: Recorder` and call the trait methods
//! unconditionally. With [`Noop`] — the default every un-traced entry point
//! passes — all bodies are empty `#[inline(always)]` functions, so the
//! monomorphized code is byte-for-byte the uninstrumented loop: no branch,
//! no atomic, no clock read. With a [`crate::Registry`] the same call sites
//! feed real counters and span timers.

use crate::registry::Registry;
use std::time::Instant;

/// The instrumentation sink hot paths are generic over.
///
/// Names are `&'static str` by design: metric identity is a code-level
/// constant, and the registry can key storage without allocating on the
/// recording path.
pub trait Recorder: Sync {
    /// True when this recorder actually stores anything. Lets a caller skip
    /// *preparing* expensive inputs (e.g. formatting) — the record calls
    /// themselves never need guarding.
    fn is_enabled(&self) -> bool;

    /// Add `delta` to the named monotonic counter.
    fn add(&self, name: &'static str, delta: u64);

    /// Set the named gauge to an absolute value (last write wins).
    fn gauge(&self, name: &'static str, value: u64);

    /// Record one sample into the named log-bucketed histogram.
    fn observe(&self, name: &'static str, value: u64);

    /// Open a timed span; it closes (and records) when the guard drops.
    /// Spans nest lexically: a span opened while another is open becomes
    /// its child in the trace tree. Guards must drop in LIFO order (bind
    /// them to locals), and spans are single-threaded — open them in
    /// orchestration code, not inside parallel loops.
    fn span(&self, name: &'static str) -> SpanGuard<'_>;

    /// Close the current epoch: snapshot cumulative counter and gauge
    /// values under `label`. The simulator calls this once per churn
    /// transition so per-epoch conservation is auditable after the run.
    fn mark_epoch(&self, label: &str);
}

/// The recorder that records nothing, at zero cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct Noop;

impl Recorder for Noop {
    #[inline(always)]
    fn is_enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn add(&self, _name: &'static str, _delta: u64) {}

    #[inline(always)]
    fn gauge(&self, _name: &'static str, _value: u64) {}

    #[inline(always)]
    fn observe(&self, _name: &'static str, _value: u64) {}

    #[inline(always)]
    fn span(&self, _name: &'static str) -> SpanGuard<'_> {
        SpanGuard::noop()
    }

    #[inline(always)]
    fn mark_epoch(&self, _label: &str) {}
}

/// RAII guard for an open span: records the elapsed time into its registry
/// when dropped. The no-op form holds nothing and never reads the clock.
pub struct SpanGuard<'a> {
    /// `None` for the no-op guard.
    pub(crate) reg: Option<&'a Registry>,
    /// Start instant (set only when `reg` is).
    pub(crate) start: Option<Instant>,
    /// Node id in the registry's span tree.
    pub(crate) node: usize,
}

impl SpanGuard<'_> {
    /// The guard that does nothing on drop.
    #[inline(always)]
    pub(crate) fn noop() -> Self {
        SpanGuard {
            reg: None,
            start: None,
            node: 0,
        }
    }
}

impl Drop for SpanGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        if let (Some(reg), Some(start)) = (self.reg, self.start) {
            reg.close_span(self.node, start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_is_inert() {
        let n = Noop;
        assert!(!n.is_enabled());
        n.add("x", 5);
        n.gauge("g", 7);
        n.observe("h", 9);
        n.mark_epoch("e");
        let g = n.span("s");
        assert!(g.reg.is_none() && g.start.is_none());
        drop(g); // must not panic or record
    }

    #[test]
    fn noop_spans_nest_without_state() {
        let n = Noop;
        let _a = n.span("a");
        let _b = n.span("b");
        // Dropping in any order is harmless for the no-op guard.
    }
}
