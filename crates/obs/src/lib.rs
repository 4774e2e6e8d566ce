//! # mccio-obs — observability for the collective I/O stack
//!
//! The paper's whole evaluation is cost *attribution*: where virtual
//! time goes per phase (Figures 6–8), how much aggregation memory each
//! node holds and how much that varies across nodes (Table 1). This
//! crate is the first-class form of those measurements — a scoped span
//! tracer, a metrics registry, and exporters — shared by every layer of
//! the stack:
//!
//! * [`span`] — the event model: complete spans on virtual-time tracks,
//!   instants, and counter samples, each carrying structured attributes
//!   (direction, window id, flows, bytes, …);
//! * [`metrics`] — a registry of named counters, gauges, and
//!   log₂-bucketed histograms (bytes shuffled, storage requests,
//!   buffer-pool hits/misses, retries, per-node aggregation-buffer
//!   high-water marks and their coefficient of variation);
//! * [`sink`] — [`ObsSink`], the per-environment collection point. A
//!   disabled sink (the default) is a `None` behind one branch: every
//!   record call returns immediately, no locks, no allocation, so the
//!   engine's virtual time and wall clock are untouched when tracing is
//!   off — and virtual time is untouched even when it is *on*, because
//!   recording never advances any clock;
//! * [`export`] — Chrome `trace_event` JSON (loadable in Perfetto or
//!   `chrome://tracing`) and a JSONL event stream;
//! * [`json`] — a small self-contained JSON parser used to validate
//!   emitted artifacts (the workspace is dependency-free by design);
//! * [`analyze`] — trace analytics over a sink or a replayed artifact:
//!   each op's critical path (its blame chain cut at the engine's phase
//!   boundaries) with per-phase attribution, straggler naming and
//!   what-if projection, exact per-node memory-occupancy timelines, and
//!   structured A/B run diffing;
//! * [`stream`] — bounded-memory streaming aggregation for extreme
//!   rank counts: online per-cell statistics, deterministic top-k
//!   straggler retention, and strided exemplar-rank sampling (used by
//!   [`ObsSink::streaming`]);
//! * [`causal`] — message-level happens-before tracing: an online
//!   longest-path fold over every network delivery (O(ranks + path)
//!   memory) and cross-rank blame chains that tile each op's elapsed
//!   time to the bit (armed via [`ObsSink::with_causal`]);
//! * [`report`] — a self-contained HTML report (inline SVG timeline
//!   lanes, critical path, occupancy strip charts; zero dependencies).
//!
//! ## Quick example
//!
//! ```
//! use mccio_obs::{AttrValue, EventKind, ObsSink};
//! use mccio_sim::time::{VDuration, VTime};
//!
//! let sink = ObsSink::enabled();
//! sink.span(
//!     mccio_obs::ENGINE_TRACK,
//!     "round",
//!     "engine",
//!     VTime::ZERO,
//!     VDuration::from_secs(0.5),
//!     &[("dir", AttrValue::Str("write")), ("flows", AttrValue::U64(12))],
//! );
//! sink.counter_add("shuffle.bytes", 4096);
//! let events = sink.take_events();
//! assert_eq!(events.len(), 1);
//! assert!(matches!(events[0].kind, EventKind::Span { .. }));
//! let trace = mccio_obs::export::chrome_trace(&events);
//! mccio_obs::export::validate_chrome_trace(&trace).unwrap();
//! ```

#![deny(missing_docs)]

pub mod analyze;
pub mod causal;
pub mod export;
pub mod json;
pub mod metrics;
pub mod report;
pub mod sink;
pub mod span;
pub mod stream;

pub use analyze::{CriticalPath, MemTimeline, Phase, RunDiff, TraceAnalysis, TraceEvent, WhatIf};
pub use causal::{BlameChain, BlameSegment, CausalAgg, CausalEdge, SegClass};
pub use metrics::{Histogram, MetricsRegistry};
pub use sink::ObsSink;
pub use span::{
    AttrValue, Event, EventKind, CRASH_DETECTED, ENGINE_TRACK, INTEGRITY_VERIFIED, REELECTION,
    ROUNDS_REPLAYED,
};
pub use stream::{OnlineStat, StreamAgg, StreamCell, StreamConfig};
