//! [`ObsSink`] — the per-environment collection point for spans and
//! metrics.
//!
//! One sink is carried by each `IoEnv` (cheaply cloned alongside it, all
//! clones share the same buffers), so concurrent simulation worlds each
//! record into their own sink instead of interleaving into one
//! process-global `Mutex`.
//!
//! The default sink is **disabled**: `inner` is `None`, every record
//! method is one predictable branch and an immediate return — no locks
//! taken, nothing allocated, no clocks touched. Enabled or not,
//! recording never advances virtual time, so traces are a pure
//! side-channel: the engine's priced times are bit-identical with
//! tracing on or off.
//!
//! A **streaming** sink ([`ObsSink::streaming`]) additionally carries a
//! [`StreamAgg`]: events the aggregate declines to retain are folded
//! into bounded online statistics *without ever being allocated* (the
//! fold reads the caller's attribute slice directly), so observability
//! memory is independent of rank count. See `obs::stream`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use mccio_sim::time::{VDuration, VTime};

use crate::analyze::TraceEvent;
use crate::causal::{BlameChain, CausalAgg, CausalEdge};
use crate::metrics::MetricsRegistry;
use crate::span::{export_order, AttrValue, Event, EventKind};
use crate::stream::{StreamAgg, StreamConfig};

#[derive(Debug, Default)]
struct Inner {
    events: Mutex<Vec<Event>>,
    metrics: Mutex<MetricsRegistry>,
    seq: AtomicU64,
    /// Present on streaming sinks: the bounded aggregate that decides
    /// retention and absorbs everything it declines.
    stream: Option<Mutex<StreamAgg>>,
    /// Present once [`ObsSink::with_causal`] is called: the online
    /// happens-before fold the engine's world hooks into.
    causal: OnceLock<Arc<CausalAgg>>,
}

/// A handle to a span/metrics sink; see the module docs. Clones share
/// the same buffers.
#[derive(Debug, Clone, Default)]
pub struct ObsSink {
    inner: Option<Arc<Inner>>,
}

impl ObsSink {
    /// The disabled sink: every record call is inert.
    #[must_use]
    pub fn disabled() -> Self {
        ObsSink { inner: None }
    }

    /// A recording sink.
    #[must_use]
    pub fn enabled() -> Self {
        ObsSink {
            inner: Some(Arc::new(Inner::default())),
        }
    }

    /// A streaming sink: events are routed through a bounded
    /// [`StreamAgg`] and only engine-track and exemplar-lane
    /// span/instant events are retained (see `obs::stream`).
    #[must_use]
    pub fn streaming(cfg: StreamConfig) -> Self {
        ObsSink {
            inner: Some(Arc::new(Inner {
                stream: Some(Mutex::new(StreamAgg::new(cfg))),
                ..Inner::default()
            })),
        }
    }

    /// Arms message-causality tracing on this sink (builder style).
    /// The engine installs the returned hook on its world at op start
    /// and every delivery folds into the online frontier
    /// ([`crate::causal`]). Per-edge records for Chrome flow export are
    /// retained only on buffered sinks — a streaming sink keeps causal
    /// memory rank-bounded. A no-op on the disabled sink.
    #[must_use]
    pub fn with_causal(self) -> Self {
        if let Some(inner) = &self.inner {
            let retain_edges = inner.stream.is_none();
            let _ = inner.causal.set(Arc::new(CausalAgg::new(retain_edges)));
        }
        self
    }

    /// The causal hook for the engine's world, when armed.
    #[must_use]
    pub fn causal_hook(&self) -> Option<Arc<dyn mccio_sim::causal::CausalSink>> {
        let agg = Arc::clone(self.inner.as_ref()?.causal.get()?);
        Some(agg)
    }

    /// The causal aggregate itself (chains, edges, fold statistics),
    /// when armed.
    #[must_use]
    pub fn causal(&self) -> Option<Arc<CausalAgg>> {
        Some(Arc::clone(self.inner.as_ref()?.causal.get()?))
    }

    /// Closes an op window on the causal fold: walks the frontier of
    /// rank 0 (the rank that prices the op span) back from `end`,
    /// clamped at `t0`, and records the blame chain. Inert unless
    /// causal tracing is armed.
    pub fn causal_op_end(&self, t0: VTime, end: VTime, dir: &'static str) {
        if let Some(agg) = self.causal() {
            agg.op_end(0, t0, end, dir);
        }
    }

    /// Blame chains recorded so far, in op order (empty unless armed).
    #[must_use]
    pub fn causal_chains(&self) -> Vec<BlameChain> {
        self.causal().map_or_else(Vec::new, |agg| agg.chains())
    }

    /// Retained causal message edges in deterministic `(src, seq)`
    /// order (empty unless armed on a buffered sink).
    #[must_use]
    pub fn causal_edges(&self) -> Vec<CausalEdge> {
        self.causal().map_or_else(Vec::new, |agg| agg.edges())
    }

    /// A snapshot of the streaming aggregate (`None` on buffered or
    /// disabled sinks).
    #[must_use]
    pub fn stream_stats(&self) -> Option<StreamAgg> {
        let inner = self.inner.as_ref()?;
        let stream = inner.stream.as_ref()?;
        Some(stream.lock().expect("stream lock").clone())
    }

    /// True when this sink records; instrumentation sites may use this
    /// to skip attribute construction entirely.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records a complete span.
    #[inline]
    pub fn span(
        &self,
        track: u32,
        name: &'static str,
        cat: &'static str,
        start: VTime,
        dur: VDuration,
        attrs: &[(&'static str, AttrValue)],
    ) {
        let Some(inner) = &self.inner else { return };
        inner.record(track, name, cat, EventKind::Span { start, dur }, attrs);
    }

    /// Records a zero-duration mark.
    #[inline]
    pub fn instant(
        &self,
        track: u32,
        name: &'static str,
        cat: &'static str,
        at: VTime,
        attrs: &[(&'static str, AttrValue)],
    ) {
        let Some(inner) = &self.inner else { return };
        inner.record(track, name, cat, EventKind::Instant { at }, attrs);
    }

    /// Records a counter sample on a track.
    #[inline]
    pub fn counter_sample(
        &self,
        track: u32,
        name: &'static str,
        cat: &'static str,
        at: VTime,
        value: f64,
        attrs: &[(&'static str, AttrValue)],
    ) {
        let Some(inner) = &self.inner else { return };
        inner.record(track, name, cat, EventKind::Counter { at, value }, attrs);
    }

    /// Adds `delta` to the named registry counter.
    #[inline]
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        let Some(inner) = &self.inner else { return };
        inner
            .metrics
            .lock()
            .expect("metrics lock")
            .counter_add(name, delta);
    }

    /// Sets the named registry gauge.
    #[inline]
    pub fn gauge_set(&self, name: &'static str, value: f64) {
        let Some(inner) = &self.inner else { return };
        inner
            .metrics
            .lock()
            .expect("metrics lock")
            .gauge_set(name, value);
    }

    /// Raises the named registry gauge to `value` if higher.
    #[inline]
    pub fn gauge_max(&self, name: &'static str, value: f64) {
        let Some(inner) = &self.inner else { return };
        inner
            .metrics
            .lock()
            .expect("metrics lock")
            .gauge_max(name, value);
    }

    /// Records one observation into the named histogram.
    #[inline]
    pub fn observe(&self, name: &'static str, value: u64) {
        let Some(inner) = &self.inner else { return };
        inner
            .metrics
            .lock()
            .expect("metrics lock")
            .observe(name, value);
    }

    /// Events recorded so far (copied, in emission order). Prefer
    /// [`ObsSink::with_events`] when a borrow suffices — this clones
    /// the entire buffer, O(events).
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        match &self.inner {
            Some(inner) => inner.events.lock().expect("events lock").clone(),
            None => Vec::new(),
        }
    }

    /// Runs `f` over a borrow of the retained events (in emission
    /// order) without copying the buffer. The events lock is held for
    /// the duration of `f`; recording from within `f` deadlocks, so
    /// use this for read-only analysis and export. On a disabled sink
    /// `f` sees an empty slice.
    pub fn with_events<R>(&self, f: impl FnOnce(&[Event]) -> R) -> R {
        match &self.inner {
            Some(inner) => f(&inner.events.lock().expect("events lock")),
            None => f(&[]),
        }
    }

    /// The retained events as owned [`TraceEvent`]s in
    /// [`crate::span::sort_for_export`] order — the mirror the analyzer
    /// and the HTML report read. The buffer is borrowed, not cloned;
    /// only the mirror is built.
    #[must_use]
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.with_events(|live| {
            let mut refs: Vec<&Event> = live.iter().collect();
            refs.sort_by(|a, b| export_order(a, b));
            refs.into_iter().map(TraceEvent::from_live).collect()
        })
    }

    /// Removes and returns everything recorded so far.
    #[must_use]
    pub fn take_events(&self) -> Vec<Event> {
        match &self.inner {
            Some(inner) => std::mem::take(&mut *inner.events.lock().expect("events lock")),
            None => Vec::new(),
        }
    }

    /// Number of events currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.events.lock().expect("events lock").len(),
            None => 0,
        }
    }

    /// True when nothing has been recorded (always true when disabled).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the metrics registry (empty when disabled).
    #[must_use]
    pub fn metrics(&self) -> MetricsRegistry {
        match &self.inner {
            Some(inner) => inner.metrics.lock().expect("metrics lock").clone(),
            None => MetricsRegistry::new(),
        }
    }
}

impl Inner {
    /// Routes one emission: a streaming sink folds non-retained events
    /// straight from the caller's attribute slice (no allocation, no
    /// `Event` built); retained events are materialized and buffered.
    fn record(
        &self,
        track: u32,
        name: &'static str,
        cat: &'static str,
        kind: EventKind,
        attrs: &[(&'static str, AttrValue)],
    ) {
        if let Some(stream) = &self.stream {
            let mut agg = stream.lock().expect("stream lock");
            if !agg.retains(track, &kind) {
                agg.fold(track, name, &kind, attrs);
                return;
            }
            agg.note_retained();
        }
        self.push(Event {
            name,
            cat,
            track,
            kind,
            attrs: attrs.to_vec(),
            seq: 0,
        });
    }

    fn push(&self, mut event: Event) {
        event.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.events.lock().expect("events lock").push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_is_inert() {
        let s = ObsSink::disabled();
        assert!(!s.is_enabled());
        s.span(0, "a", "t", VTime::ZERO, VDuration::ZERO, &[]);
        s.instant(0, "b", "t", VTime::ZERO, &[]);
        s.counter_add("c", 1);
        s.observe("h", 2);
        assert!(s.is_empty());
        assert_eq!(s.metrics().counter("c"), 0);
    }

    #[test]
    fn enabled_sink_records_in_sequence() {
        let s = ObsSink::enabled();
        assert!(s.is_enabled());
        s.span(0, "a", "t", VTime::ZERO, VDuration::from_secs(1.0), &[]);
        s.instant(
            1,
            "b",
            "t",
            VTime::from_secs(0.5),
            &[("n", AttrValue::U64(3))],
        );
        let events = s.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[1].attr_u64("n"), Some(3));
        assert_eq!(s.take_events().len(), 2);
        assert!(s.is_empty());
    }

    #[test]
    fn clones_share_buffers() {
        let s = ObsSink::enabled();
        let t = s.clone();
        t.counter_add("c", 5);
        t.instant(0, "x", "t", VTime::ZERO, &[]);
        assert_eq!(s.metrics().counter("c"), 5);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn streaming_sink_folds_bulk_and_keeps_exemplars() {
        use crate::span::ENGINE_TRACK;
        let s = ObsSink::streaming(StreamConfig {
            top_k: 4,
            exemplar_stride: 16,
            exemplar_max: 2,
        });
        assert!(s.is_enabled() && s.stream_stats().is_some());
        for rank in 0..64u32 {
            s.span(
                rank,
                "prologue",
                "engine",
                VTime::from_secs(1.0),
                VDuration::from_secs(f64::from(rank) * 1e-3),
                &[("bytes", AttrValue::U64(u64::from(rank)))],
            );
        }
        s.span(
            ENGINE_TRACK,
            "round",
            "engine",
            VTime::from_secs(1.0),
            VDuration::from_secs(0.5),
            &[],
        );
        s.counter_sample(
            ENGINE_TRACK,
            "mem.peak_reserved",
            "mem",
            VTime::from_secs(2.0),
            7.0,
            &[],
        );
        // Retained: exemplar ranks 0 and 16, plus the engine span.
        assert_eq!(s.len(), 3);
        let agg = s.stream_stats().expect("streaming aggregate");
        assert_eq!(agg.retained_events, 3);
        assert_eq!(agg.folded_events, 63); // 62 bulk prologues + 1 counter
        let (name, _, cell) = agg
            .cells()
            .find(|(name, _, _)| *name == "prologue")
            .expect("prologue cell");
        assert_eq!(name, "prologue");
        assert_eq!(cell.count, 62);
        // Straggler list: largest durations among the folded ranks.
        assert_eq!(cell.dur_nanos.top[0], (63_000_000, 63));
        // Buffered sinks report no aggregate.
        assert!(ObsSink::enabled().stream_stats().is_none());
    }

    #[test]
    fn with_events_borrows_without_copying() {
        let s = ObsSink::enabled();
        s.instant(0, "x", "t", VTime::ZERO, &[]);
        let n = s.with_events(|evs| {
            assert_eq!(evs[0].name, "x");
            evs.len()
        });
        assert_eq!(n, 1);
        assert_eq!(ObsSink::disabled().with_events(<[Event]>::len), 0);
    }

    #[test]
    fn concurrent_emission_is_safe_and_complete() {
        let s = ObsSink::enabled();
        std::thread::scope(|scope| {
            for rank in 0..8u32 {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..100u64 {
                        s.instant(rank, "tick", "t", VTime::from_secs(i as f64), &[]);
                        s.counter_add("ticks", 1);
                    }
                });
            }
        });
        assert_eq!(s.len(), 800);
        assert_eq!(s.metrics().counter("ticks"), 800);
        // Sequence numbers are unique.
        let mut seqs: Vec<u64> = s.events().iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 800);
    }
}
