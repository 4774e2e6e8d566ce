//! Trace analytics: critical paths with what-if projection,
//! memory-pressure timelines, and A/B run diffing.
//!
//! The raw trace (spans, instants, counters) answers *what happened*;
//! this module answers the questions the paper asks of it:
//!
//! * **Critical path** — each op's [`CriticalPath`] is its blame chain
//!   (the cross-rank happens-before path of [`crate::causal`]) cut at
//!   the engine's phase boundaries: prologue, then each round's
//!   sync → shuffle → storage → assembly → backoff (read off the round
//!   span's attributes, in pricing order), then inter-round gaps and
//!   the epilogue. Every piece names its rank, its causal class, its
//!   [`Phase`], and the straggler rank that set a max-over-ranks phase
//!   term; the pieces tile the op span with bit-equal joints. Without
//!   a recorded chain (causal tracing off, or a replayed artifact) the
//!   chain is the lock-step one: a single work segment on rank 0.
//! * **Memory pressure** — paired `mem.reserve` / `mem.release`
//!   instants (plus `fault.mem.revoke` / `fault.mem.restore`) replay
//!   into exact per-node occupancy step functions ([`MemTimeline`]),
//!   not just high-water marks, with overflow windows flagged wherever
//!   occupancy exceeds the node's ceiling.
//! * **A/B diffing** — [`TraceAnalysis::diff`] compares two runs'
//!   attribution tables and counters with per-phase deltas
//!   ([`RunDiff`]); a run diffed against itself is exactly zero.
//!
//! Input is either a live [`ObsSink`] ([`TraceAnalysis::of_sink`]) or a
//! replayed JSONL artifact: [`TraceEvent::from_jsonl`] round-trips the
//! JSONL exporter bit-exactly (f64s are printed shortest-roundtrip).

use std::collections::BTreeMap;

use mccio_sim::hostprof::HostProfile;
use mccio_sim::time::{VDuration, VTime};

use crate::causal::{verify_joints, BlameChain, BlameSegment, SegClass};
use crate::json::{self, Value};
use crate::metrics::Histogram;
use crate::sink::ObsSink;
use crate::span::{AttrValue, Event, EventKind, ENGINE_TRACK};
use crate::stream::StreamAgg;

/// Tolerance for the structural checks on round spans: phase terms are
/// f64 attribute values, so their running sum matches the round span's
/// end only to rounding. Leads and tails this short are absorbed into
/// the neighbouring phase rather than given a filler segment.
const TILING_EPS: f64 = 1e-9;

/// An owned attribute value — the replayable mirror of [`AttrValue`].
#[derive(Debug, Clone, PartialEq)]
pub enum AttrVal {
    /// An unsigned count or byte size.
    U64(u64),
    /// A floating-point quantity (seconds, factors).
    F64(f64),
    /// A label (direction, strategy name, event taxonomy).
    Str(String),
}

/// An owned observability event: the replayable mirror of [`Event`],
/// buildable from a live sink or parsed back from an exported artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name within the taxonomy (`"op"`, `"round"`, …).
    pub name: String,
    /// Category (`"engine"`, `"mem"`, `"fault"`, …).
    pub cat: String,
    /// The track the event renders on: a rank number or
    /// [`ENGINE_TRACK`].
    pub track: u32,
    /// The mark this event places on the track.
    pub kind: EventKind,
    /// Structured attributes.
    pub attrs: Vec<(String, AttrVal)>,
    /// Order key. Live events keep their emission sequence; replayed
    /// events use their line/array position, which the exporters sort
    /// parent-before-child, so ordering semantics survive the round
    /// trip.
    pub seq: u64,
}

impl TraceEvent {
    /// Converts a live sink event (see [`ObsSink::trace_events`]).
    pub(crate) fn from_live(e: &Event) -> TraceEvent {
        TraceEvent {
            name: e.name.to_string(),
            cat: e.cat.to_string(),
            track: e.track,
            kind: e.kind,
            attrs: e
                .attrs
                .iter()
                .map(|(k, v)| {
                    let v = match v {
                        AttrValue::U64(x) => AttrVal::U64(*x),
                        AttrValue::F64(x) => AttrVal::F64(*x),
                        AttrValue::Str(s) => AttrVal::Str((*s).to_string()),
                    };
                    ((*k).to_string(), v)
                })
                .collect(),
            seq: e.seq,
        }
    }

    /// Looks up an attribute by key.
    #[must_use]
    pub fn attr(&self, key: &str) -> Option<&AttrVal> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// An attribute as u64, if present and integral.
    #[must_use]
    pub fn attr_u64(&self, key: &str) -> Option<u64> {
        match self.attr(key) {
            Some(AttrVal::U64(v)) => Some(*v),
            _ => None,
        }
    }

    /// An attribute as f64 (also accepts u64), if present.
    #[must_use]
    pub fn attr_f64(&self, key: &str) -> Option<f64> {
        match self.attr(key) {
            Some(AttrVal::F64(v)) => Some(*v),
            Some(AttrVal::U64(v)) => Some(*v as f64),
            _ => None,
        }
    }

    /// An attribute as a string, if present and of that type.
    #[must_use]
    pub fn attr_str(&self, key: &str) -> Option<&str> {
        match self.attr(key) {
            Some(AttrVal::Str(v)) => Some(v),
            _ => None,
        }
    }

    /// Virtual end of the event (start + duration for spans, the mark
    /// itself otherwise).
    #[must_use]
    pub fn end(&self) -> VTime {
        match self.kind {
            EventKind::Span { start, dur } => start + dur,
            EventKind::Instant { at } | EventKind::Counter { at, .. } => at,
        }
    }

    /// Replays a JSONL artifact (the [`crate::export::jsonl`] format)
    /// back into events. JSONL prints f64s shortest-roundtrip, so every
    /// virtual time comes back bit-identical to the live sink's.
    ///
    /// # Errors
    /// Describes the first malformed line.
    pub fn from_jsonl(doc: &str) -> Result<Vec<TraceEvent>, String> {
        let mut out = Vec::new();
        for (i, line) in doc.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            let field = |k: &str| {
                v.get(k)
                    .cloned()
                    .ok_or(format!("line {} missing {k:?}", i + 1))
            };
            let num = |k: &str| {
                field(k)?
                    .as_f64()
                    .ok_or(format!("line {}: {k:?} not a number", i + 1))
            };
            let kind = match field("kind")?.as_str() {
                Some("span") => EventKind::Span {
                    start: VTime::from_secs(num("start_s")?),
                    dur: VDuration::from_secs(num("dur_s")?),
                },
                Some("instant") => EventKind::Instant {
                    at: VTime::from_secs(num("at_s")?),
                },
                Some("counter") => EventKind::Counter {
                    at: VTime::from_secs(num("at_s")?),
                    value: num("value")?,
                },
                other => return Err(format!("line {}: bad kind {other:?}", i + 1)),
            };
            out.push(TraceEvent {
                name: field("name")?
                    .as_str()
                    .ok_or(format!("line {}: name not a string", i + 1))?
                    .to_string(),
                cat: field("cat")?.as_str().unwrap_or("").to_string(),
                track: num("track")? as u32,
                kind,
                attrs: parse_attrs(v.get("attrs")),
                seq: out.len() as u64,
            });
        }
        Ok(out)
    }
}

/// Parses an exported `attrs`/`args` object back into attribute pairs.
/// Integral numbers come back as [`AttrVal::U64`] (the exporters print
/// u64s without a decimal point); everything else stays f64.
fn parse_attrs(v: Option<&Value>) -> Vec<(String, AttrVal)> {
    let Some(obj) = v.and_then(Value::as_obj) else {
        return Vec::new();
    };
    obj.iter()
        .map(|(k, v)| {
            let val = match v {
                Value::Str(s) => AttrVal::Str(s.clone()),
                Value::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 => {
                    AttrVal::U64(*n as u64)
                }
                Value::Num(n) => AttrVal::F64(*n),
                other => AttrVal::Str(format!("{other:?}")),
            };
            (k.clone(), val)
        })
        .collect()
}

/// Where a slice of critical-path time went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Round control synchronization.
    Sync,
    /// Shuffle (client → aggregator data exchange).
    Shuffle,
    /// Storage phase (aggregator ↔ file system).
    Storage,
    /// Aggregation-buffer assembly copies.
    Assembly,
    /// Retry backoff the round waited on its slowest rank.
    Backoff,
    /// Before the first round: clock sync, fault application, buffer
    /// reservation (including collective reservation retries).
    Prologue,
    /// Virtual time between consecutive rounds not claimed by either
    /// (zero on healthy runs; escalation pauses land here).
    Gap,
    /// After the last round: release barriers and report assembly.
    Epilogue,
}

impl Phase {
    /// Every phase, round phases first in pricing order.
    pub const ALL: [Phase; 8] = [
        Phase::Sync,
        Phase::Shuffle,
        Phase::Storage,
        Phase::Assembly,
        Phase::Backoff,
        Phase::Prologue,
        Phase::Gap,
        Phase::Epilogue,
    ];

    /// The phase's lowercase display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Sync => "sync",
            Phase::Shuffle => "shuffle",
            Phase::Storage => "storage",
            Phase::Assembly => "assembly",
            Phase::Backoff => "backoff",
            Phase::Prologue => "prologue",
            Phase::Gap => "gap",
            Phase::Epilogue => "epilogue",
        }
    }
}

/// One contiguous slice of an operation's critical path: a piece of
/// the blame chain inside one engine phase window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// The rank whose timeline the slice lies on (for
    /// [`SegClass::SyncWait`] pieces: the receiving rank).
    pub rank: u32,
    /// The causal class of the blame-chain segment the slice cuts.
    pub class: SegClass,
    /// The engine phase the slice belongs to.
    pub phase: Phase,
    /// Absolute virtual start.
    pub from: VTime,
    /// Absolute virtual end.
    pub to: VTime,
    /// Index of the round this slice belongs to (round phases only).
    pub round: Option<usize>,
    /// The rank that set this max-over-ranks phase term — the round's
    /// straggler. Named for storage (the busiest aggregator), assembly,
    /// and backoff; sync and shuffle are priced globally.
    pub straggler: Option<u32>,
}

impl Segment {
    /// The slice's virtual duration.
    #[must_use]
    pub fn dur(&self) -> VDuration {
        self.to - self.from
    }
}

/// Seconds of critical-path time attributed to each phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Attribution {
    /// Control-synchronization seconds.
    pub sync: f64,
    /// Shuffle seconds.
    pub shuffle: f64,
    /// Storage seconds.
    pub storage: f64,
    /// Assembly seconds.
    pub assembly: f64,
    /// Retry-backoff seconds.
    pub backoff: f64,
    /// Prologue seconds.
    pub prologue: f64,
    /// Inter-round gap seconds.
    pub gap: f64,
    /// Epilogue seconds.
    pub epilogue: f64,
}

impl Attribution {
    /// Seconds attributed to `phase`.
    #[must_use]
    pub fn get(&self, phase: Phase) -> f64 {
        match phase {
            Phase::Sync => self.sync,
            Phase::Shuffle => self.shuffle,
            Phase::Storage => self.storage,
            Phase::Assembly => self.assembly,
            Phase::Backoff => self.backoff,
            Phase::Prologue => self.prologue,
            Phase::Gap => self.gap,
            Phase::Epilogue => self.epilogue,
        }
    }

    fn add(&mut self, phase: Phase, secs: f64) {
        match phase {
            Phase::Sync => self.sync += secs,
            Phase::Shuffle => self.shuffle += secs,
            Phase::Storage => self.storage += secs,
            Phase::Assembly => self.assembly += secs,
            Phase::Backoff => self.backoff += secs,
            Phase::Prologue => self.prologue += secs,
            Phase::Gap => self.gap += secs,
            Phase::Epilogue => self.epilogue += secs,
        }
    }

    /// Sum over every phase.
    #[must_use]
    pub fn total(&self) -> f64 {
        Phase::ALL.iter().map(|&p| self.get(p)).sum()
    }

    /// The phase holding the most time.
    #[must_use]
    pub fn dominant(&self) -> Phase {
        let mut best = Phase::Sync;
        for &p in &Phase::ALL {
            if self.get(p) > self.get(best) {
                best = p;
            }
        }
        best
    }
}

/// The critical path of one collective operation: its blame chain cut
/// at the engine's phase boundaries.
///
/// The engine advances every rank's clock by the same root-priced
/// duration each round, so the op span *is* the longest virtual-time
/// chain; the cut says which phase of which round each piece of the
/// chain belongs to, on which rank, and who the straggler was.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// `"write"` or `"read"`.
    pub dir: String,
    /// Virtual start of the operation (the op span's start).
    pub start: VTime,
    /// Total critical-path duration — the op span's priced virtual
    /// duration, verbatim (bit-identical, never re-derived from the
    /// segment sum).
    pub total: VDuration,
    /// The blame chain over `[start, start + total]`: the one recorded
    /// for this op when causal tracing was armed, otherwise a single
    /// work segment on rank 0.
    pub chain: BlameChain,
    /// The chain cut at the phase windows, in virtual-time order;
    /// joints are bit-equal.
    pub segments: Vec<Segment>,
    /// Per-phase attribution (sums of the segments).
    pub attribution: Attribution,
    /// Rounds on the path.
    pub rounds: usize,
}

impl CriticalPath {
    /// The rank named as straggler most often across this path's
    /// storage/assembly/backoff phase windows, with its count. A window
    /// the chain crosses in several pieces counts once.
    #[must_use]
    pub fn top_straggler(&self) -> Option<(u32, usize)> {
        let mut windows: Vec<(Option<usize>, Phase, u32)> = self
            .segments
            .iter()
            .filter_map(|s| s.straggler.map(|r| (s.round, s.phase, r)))
            .collect();
        windows.dedup();
        let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
        for (_, _, r) in windows {
            *counts.entry(r).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .max_by_key(|&(r, n)| (n, std::cmp::Reverse(r)))
    }

    /// Checks that the segments tile `[start, start + total]` to the
    /// bit: first piece on `start`, bit-equal joints, no negative
    /// length, last piece on the op's end.
    ///
    /// # Errors
    /// Describes the first violated joint.
    pub fn verify_tiling(&self) -> Result<(), String> {
        verify_joints(
            self.start,
            self.start + self.total,
            self.segments.iter().map(|s| (s.from, s.to)),
        )
    }

    /// Re-prices the path under `weight`: each segment's duration is
    /// scaled by `weight(class, phase) ∈ [0, 1]` and the projection is
    /// `total − Σ (1 − w)·dur`. The identity weighting (`w ≡ 1`)
    /// subtracts an exact `+0.0` per segment and therefore reproduces
    /// `total` **bit-exactly**.
    #[must_use]
    pub fn project(&self, weight: impl Fn(SegClass, Phase) -> f64) -> f64 {
        let removed: f64 = self
            .segments
            .iter()
            .map(|s| (1.0 - weight(s.class, s.phase)) * s.dur().as_secs())
            .sum();
        self.total.as_secs() - removed
    }

    /// The standard speed-of-light scenarios: zero network cost
    /// (sync-wait pieces free), infinite PFS bandwidth (storage-phase
    /// pieces free), and uniform memory ceilings (backoff-phase pieces
    /// free).
    #[must_use]
    pub fn what_ifs(&self) -> Vec<WhatIf> {
        type Freed = fn(SegClass, Phase) -> bool;
        let scenarios: [(&'static str, Freed); 3] = [
            ("zero-network", |c, _| c != SegClass::Work),
            ("infinite-pfs", |_, p| p == Phase::Storage),
            ("uniform-memory", |_, p| p == Phase::Backoff),
        ];
        let total = self.total.as_secs();
        scenarios
            .into_iter()
            .map(|(name, freed)| {
                let projected = self.project(|c, p| if freed(c, p) { 0.0 } else { 1.0 });
                WhatIf {
                    name,
                    projected_secs: projected,
                    speedup: if projected > 0.0 {
                        total / projected
                    } else {
                        f64::INFINITY
                    },
                }
            })
            .collect()
    }
}

/// One what-if projection: the critical path re-priced under a
/// re-weighting of its segments.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIf {
    /// Scenario name (`"zero-network"`, `"infinite-pfs"`,
    /// `"uniform-memory"`).
    pub name: &'static str,
    /// Projected seconds under the scenario.
    pub projected_secs: f64,
    /// `total / projected` (∞ when the scenario removes the whole
    /// path).
    pub speedup: f64,
}

/// One step of a node's occupancy timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemPoint {
    /// Virtual time of the step.
    pub at: VTime,
    /// Aggregation-buffer bytes held from this instant on.
    pub occupancy: u64,
    /// The node's ceiling (capacity minus application usage) from this
    /// instant on.
    pub ceiling: u64,
}

/// A node's exact aggregation-buffer occupancy over virtual time,
/// replayed from paired `mem.reserve`/`mem.release` instants, with the
/// ceiling stepped by `fault.mem.revoke`/`fault.mem.restore`.
#[derive(Debug, Clone, PartialEq)]
pub struct MemTimeline {
    /// The node this timeline describes.
    pub node: usize,
    /// Occupancy/ceiling steps in virtual-time order.
    pub points: Vec<MemPoint>,
    /// Highest occupancy reached.
    pub peak: u64,
    /// Total bytes reserved across the run.
    pub reserved: u64,
    /// Total bytes released across the run.
    pub released: u64,
    /// Occupancy after the last event — zero iff every reserve was
    /// released.
    pub final_occupancy: u64,
    /// Windows `[start, end)` where occupancy exceeded the ceiling
    /// (`end == start of the step that cleared it`; an unclosed window
    /// ends at the last event).
    pub overflow: Vec<(VTime, VTime)>,
}

impl MemTimeline {
    /// True when occupancy never exceeded the ceiling.
    #[must_use]
    pub fn within_ceiling(&self) -> bool {
        self.overflow.is_empty()
    }
}

/// Everything the analyzer extracts from one run's trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceAnalysis {
    /// Critical paths, one per collective operation, in virtual-time
    /// order (a paper run is a write op followed by a read op).
    pub ops: Vec<CriticalPath>,
    /// Per-node occupancy timelines, in node order (only nodes that
    /// reserved anything appear).
    pub memory: Vec<MemTimeline>,
    /// Counter snapshot, when analyzing a live sink (replayed artifacts
    /// carry events only).
    pub counters: BTreeMap<String, u64>,
    /// Gauge snapshot, when analyzing a live sink — high-water marks and
    /// latest readings (pool live bytes, executor stack reuse, …).
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshot, when analyzing a live sink (per-node memory
    /// peaks, round client counts, …).
    pub histograms: BTreeMap<String, Histogram>,
    /// The streaming aggregate, when the analyzed sink folds through
    /// one (`ObsSink::streaming`); `None` on buffered sinks and
    /// replayed artifacts.
    pub streaming: Option<StreamAgg>,
    /// Host-wall profile of the run, when the caller attached one via
    /// [`TraceAnalysis::with_host_profile`]. Host times are
    /// nondeterministic observability data, never part of bit-identity
    /// checks.
    pub host: Option<HostProfile>,
}

impl TraceAnalysis {
    /// Analyzes a live sink: events plus the metrics registry's
    /// counters. The sink is read, not drained. When causal tracing is
    /// armed ([`ObsSink::with_causal`]), each op's path is cut from the
    /// blame chain the fold recorded for it.
    ///
    /// # Errors
    /// Propagates [`TraceAnalysis::from_events`] errors, and fails when
    /// the recorded chains do not pair one-to-one with the op spans —
    /// a different count, or a chain whose `[start, end]` is not its op
    /// span to the bit.
    pub fn of_sink(sink: &ObsSink) -> Result<TraceAnalysis, String> {
        let chains = sink.causal().map(|agg| agg.chains());
        let mut analysis = TraceAnalysis::analyze(&sink.trace_events(), chains)?;
        let metrics = sink.metrics();
        analysis.counters = metrics.counter_map();
        analysis.gauges = metrics.gauge_map();
        analysis.histograms = metrics.histogram_map();
        analysis.streaming = sink.stream_stats();
        Ok(analysis)
    }

    /// Attaches a host-wall profile (with the run's total host wall and
    /// virtual seconds) for the report's virtual-vs-host section.
    #[must_use]
    pub fn with_host_profile(mut self, profile: HostProfile) -> TraceAnalysis {
        self.host = Some(profile);
        self
    }

    /// Analyzes a replayed (or pre-converted) event stream. Every op's
    /// chain is the lock-step one: a single work segment on rank 0.
    ///
    /// # Errors
    /// Returns a description when the trace is structurally broken —
    /// a round span outside any op span, or a round whose phase terms
    /// do not tile its duration.
    pub fn from_events(events: &[TraceEvent]) -> Result<TraceAnalysis, String> {
        TraceAnalysis::analyze(events, None)
    }

    /// Builds one critical path per op span, cutting `chains[i]` (the
    /// recorded chain of the i-th op, when given) at that op's phase
    /// windows.
    pub(crate) fn analyze(
        events: &[TraceEvent],
        chains: Option<Vec<BlameChain>>,
    ) -> Result<TraceAnalysis, String> {
        let mut ops: Vec<&TraceEvent> = Vec::new();
        let mut rounds: Vec<&TraceEvent> = Vec::new();
        for e in events {
            if e.track == ENGINE_TRACK {
                match (e.name.as_str(), &e.kind) {
                    ("op", EventKind::Span { .. }) => ops.push(e),
                    ("round", EventKind::Span { .. }) => rounds.push(e),
                    _ => {}
                }
            }
        }
        let by_time = |a: &&TraceEvent, b: &&TraceEvent| {
            (a.kind.at().as_secs(), a.seq)
                .partial_cmp(&(b.kind.at().as_secs(), b.seq))
                .expect("virtual times are finite")
        };
        ops.sort_by(by_time);
        rounds.sort_by(by_time);
        if let Some(chains) = &chains {
            if chains.len() != ops.len() {
                return Err(format!(
                    "{} blame chain(s) recorded for {} op span(s)",
                    chains.len(),
                    ops.len()
                ));
            }
        }
        let mut chains = chains.map(Vec::into_iter);

        let mut paths = Vec::with_capacity(ops.len());
        let mut used = vec![false; rounds.len()];
        for op in &ops {
            let (start, dur) = match op.kind {
                EventKind::Span { start, dur } => (start, dur),
                _ => unreachable!("filtered to spans"),
            };
            let end = start + dur;
            let mut mine: Vec<&TraceEvent> = Vec::new();
            for (r, claimed) in rounds.iter().zip(used.iter_mut()) {
                if *claimed {
                    continue;
                }
                let contained = r.kind.at().as_secs() >= start.as_secs() - TILING_EPS
                    && r.end().as_secs() <= end.as_secs() + TILING_EPS;
                if contained {
                    *claimed = true;
                    mine.push(r);
                }
            }
            let dir = op.attr_str("dir").unwrap_or("?");
            let chain = match chains.as_mut().and_then(Iterator::next) {
                Some(chain) => {
                    let bits = |t: VTime| t.as_secs().to_bits();
                    if bits(chain.start) != bits(start) || bits(chain.end) != bits(end) {
                        return Err(format!(
                            "{dir} op spans [{start}, {end}] but its blame chain spans [{}, {}]",
                            chain.start, chain.end
                        ));
                    }
                    chain
                }
                None => BlameChain {
                    dir: dir.to_string(),
                    start,
                    end,
                    segments: (end > start)
                        .then_some(BlameSegment {
                            rank: 0,
                            class: SegClass::Work,
                            from: start,
                            to: end,
                        })
                        .into_iter()
                        .collect(),
                },
            };
            let windows = phase_windows(dir, start, end, &mine)?;
            let segments = cut(&chain, &windows);
            let mut attribution = Attribution::default();
            for s in &segments {
                attribution.add(s.phase, s.dur().as_secs());
            }
            paths.push(CriticalPath {
                dir: dir.to_string(),
                start,
                total: dur,
                chain,
                segments,
                attribution,
                rounds: mine.len(),
            });
        }
        if let Some(pos) = used.iter().position(|&u| !u) {
            return Err(format!(
                "round span at t={} lies outside every op span",
                rounds[pos].kind.at()
            ));
        }
        Ok(TraceAnalysis {
            ops: paths,
            memory: mem_timelines(events),
            ..TraceAnalysis::default()
        })
    }

    /// Structured comparison of two runs: per-phase attribution deltas
    /// (summed across each run's ops) and counter deltas.
    #[must_use]
    pub fn diff(&self, other: &TraceAnalysis) -> RunDiff {
        let sum = |a: &TraceAnalysis| {
            let mut acc = Attribution::default();
            for op in &a.ops {
                for &p in &Phase::ALL {
                    acc.add(p, op.attribution.get(p));
                }
            }
            acc
        };
        let (a, b) = (sum(self), sum(other));
        let phases = Phase::ALL
            .iter()
            .map(|&p| PhaseDelta {
                phase: p,
                a_secs: a.get(p),
                b_secs: b.get(p),
            })
            .collect();
        let mut names: Vec<&String> = self.counters.keys().collect();
        for k in other.counters.keys() {
            if !self.counters.contains_key(k) {
                names.push(k);
            }
        }
        names.sort();
        let counters = names
            .into_iter()
            .map(|k| CounterDelta {
                name: k.clone(),
                a: self.counters.get(k).copied().unwrap_or(0),
                b: other.counters.get(k).copied().unwrap_or(0),
            })
            .collect();
        RunDiff {
            ops_a: self.ops.len(),
            ops_b: other.ops.len(),
            phases,
            counters,
        }
    }
}

/// One phase's attribution in two runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseDelta {
    /// The phase compared.
    pub phase: Phase,
    /// Seconds in run A.
    pub a_secs: f64,
    /// Seconds in run B.
    pub b_secs: f64,
}

impl PhaseDelta {
    /// `b - a` seconds.
    #[must_use]
    pub fn delta(&self) -> f64 {
        self.b_secs - self.a_secs
    }
}

/// One counter's value in two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterDelta {
    /// Counter name.
    pub name: String,
    /// Value in run A.
    pub a: u64,
    /// Value in run B.
    pub b: u64,
}

impl CounterDelta {
    /// `b - a`.
    #[must_use]
    pub fn delta(&self) -> i64 {
        self.b as i64 - self.a as i64
    }
}

/// A structured A/B comparison of two analyzed runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunDiff {
    /// Op count in run A.
    pub ops_a: usize,
    /// Op count in run B.
    pub ops_b: usize,
    /// Per-phase attribution deltas (summed across ops).
    pub phases: Vec<PhaseDelta>,
    /// Counter deltas, name order, union of both runs' counters.
    pub counters: Vec<CounterDelta>,
}

impl RunDiff {
    /// True when every phase delta is within `eps` seconds and every
    /// counter delta is zero — what a run diffed against itself yields.
    #[must_use]
    pub fn is_zero(&self, eps: f64) -> bool {
        self.ops_a == self.ops_b
            && self.phases.iter().all(|p| p.delta().abs() <= eps)
            && self.counters.iter().all(|c| c.delta() == 0)
    }

    /// A fixed-width text rendering of the comparison.
    #[must_use]
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "ops: a={} b={}", self.ops_a, self.ops_b);
        let _ = writeln!(
            out,
            "{:<10} {:>14} {:>14} {:>14}",
            "phase", "a_secs", "b_secs", "delta"
        );
        for p in &self.phases {
            let _ = writeln!(
                out,
                "{:<10} {:>14.6} {:>14.6} {:>+14.6}",
                p.phase.name(),
                p.a_secs,
                p.b_secs,
                p.delta()
            );
        }
        let changed: Vec<&CounterDelta> = self.counters.iter().filter(|c| c.delta() != 0).collect();
        if changed.is_empty() {
            let _ = writeln!(out, "counters: no deltas");
        } else {
            let _ = writeln!(
                out,
                "{:<36} {:>14} {:>14} {:>10}",
                "counter", "a", "b", "delta"
            );
            for c in changed {
                let _ = writeln!(
                    out,
                    "{:<36} {:>14} {:>14} {:>+10}",
                    c.name,
                    c.a,
                    c.b,
                    c.delta()
                );
            }
        }
        out
    }
}

/// A round's phase terms: attribute name, phase, and the attribute
/// naming the straggler that set the term.
const ROUND_TERMS: [(&str, Phase, Option<&str>); 5] = [
    ("sync_secs", Phase::Sync, None),
    ("shuffle_secs", Phase::Shuffle, None),
    ("storage_secs", Phase::Storage, Some("storage_rank")),
    ("assembly_secs", Phase::Assembly, Some("assembly_rank")),
    ("backoff_secs", Phase::Backoff, Some("backoff_rank")),
];

/// Tiles `[start, end]` with phase windows: a prologue up to the first
/// round, each round's nonzero phase terms in pricing order (the last
/// one ending on the round span's end bits), gaps between rounds, and
/// an epilogue. Windows are rank-0 work segments; [`cut`] takes rank
/// and class from the chain.
fn phase_windows(
    dir: &str,
    start: VTime,
    end: VTime,
    rounds: &[&TraceEvent],
) -> Result<Vec<Segment>, String> {
    let window = |phase, from, to, round, straggler| Segment {
        rank: 0,
        class: SegClass::Work,
        phase,
        from,
        to,
        round,
        straggler,
    };
    let mut out = Vec::new();
    let mut cursor = start;
    for (i, r) in rounds.iter().enumerate() {
        let r_start = r.kind.at();
        if r_start.as_secs() - cursor.as_secs() > TILING_EPS {
            let phase = if i == 0 { Phase::Prologue } else { Phase::Gap };
            out.push(window(phase, cursor, r_start, None, None));
            cursor = r_start;
        }
        let terms: Vec<(Phase, f64, Option<u32>)> = ROUND_TERMS
            .iter()
            .map(|&(name, phase, rank)| {
                let secs = r.attr_f64(name).unwrap_or(0.0);
                let straggler = rank.and_then(|k| r.attr_u64(k)).map(|v| v as u32);
                (phase, secs, straggler)
            })
            .filter(|&(_, secs, _)| secs > 0.0)
            .collect();
        let round_end = r.end();
        let summed = terms
            .iter()
            .fold(r_start, |t, &(_, secs, _)| t + VDuration::from_secs(secs));
        if (summed.as_secs() - round_end.as_secs()).abs() > TILING_EPS * 10.0 {
            return Err(format!(
                "round {i} phase terms sum to {summed} but the span ends at {round_end} (op {dir})"
            ));
        }
        for (k, &(phase, secs, straggler)) in terms.iter().enumerate() {
            let to = if k + 1 == terms.len() {
                round_end
            } else {
                cursor + VDuration::from_secs(secs)
            };
            out.push(window(phase, cursor, to, Some(i), straggler));
            cursor = to;
        }
    }
    let tail = if rounds.is_empty() {
        Phase::Prologue
    } else {
        Phase::Epilogue
    };
    match out.last_mut() {
        // A sub-tolerance tail (or overshoot) joins the last window.
        Some(last) if end.as_secs() - cursor.as_secs() <= TILING_EPS => last.to = end,
        _ if end > cursor => out.push(window(tail, cursor, end, None, None)),
        _ => {}
    }
    Ok(out)
}

/// Cuts `chain` at the boundaries of `windows`: each piece takes its
/// rank and class from the chain segment and its phase, round and
/// straggler from the window covering it. Both tile the op span with
/// bit-equal joints, so the pieces do too.
fn cut(chain: &BlameChain, windows: &[Segment]) -> Vec<Segment> {
    let mut out = Vec::with_capacity(chain.segments.len() + windows.len());
    let mut links = chain.segments.iter().peekable();
    let mut wins = windows.iter().peekable();
    let mut from = chain.start;
    while let (Some(&link), Some(&win)) = (links.peek(), wins.peek()) {
        let to = if link.to < win.to { link.to } else { win.to };
        if to > from {
            out.push(Segment {
                rank: link.rank,
                class: link.class,
                from,
                to,
                ..*win
            });
            from = to;
        }
        if link.to <= to {
            links.next();
        }
        if win.to <= to {
            wins.next();
        }
    }
    out
}

/// Replays `mem.reserve`/`mem.release` and `fault.mem.*` events into
/// per-node occupancy step functions.
fn mem_timelines(events: &[TraceEvent]) -> Vec<MemTimeline> {
    // Per node, chronological (occupancy delta, ceiling observation or
    // delta) — reserve/release carry an exact ceiling reading, fault
    // events step it.
    #[derive(Clone, Copy)]
    enum Ceil {
        Observed(u64),
        Delta(i64),
    }
    let mut per_node: BTreeMap<usize, Vec<(f64, u64, i64, Ceil)>> = BTreeMap::new();
    for e in events {
        let (occ_delta, ceil) = match e.name.as_str() {
            "mem.reserve" => (
                e.attr_u64("bytes").unwrap_or(0) as i64,
                Ceil::Observed(e.attr_u64("ceiling").unwrap_or(0)),
            ),
            "mem.release" => (
                -(e.attr_u64("bytes").unwrap_or(0) as i64),
                Ceil::Observed(e.attr_u64("ceiling").unwrap_or(0)),
            ),
            "fault.mem.revoke" => (0, Ceil::Delta(-(e.attr_u64("bytes").unwrap_or(0) as i64))),
            "fault.mem.restore" => (0, Ceil::Delta(e.attr_u64("bytes").unwrap_or(0) as i64)),
            _ => continue,
        };
        let Some(node) = e.attr_u64("node") else {
            continue;
        };
        per_node.entry(node as usize).or_default().push((
            e.kind.at().as_secs(),
            e.seq,
            occ_delta,
            ceil,
        ));
    }
    per_node
        .into_iter()
        .filter(|(_, evs)| evs.iter().any(|&(_, _, d, _)| d != 0))
        .map(|(node, mut evs)| {
            evs.sort_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).expect("finite"));
            // Back-fill the initial ceiling from the first exact reading
            // so fault deltas before any reservation still level out.
            let first_obs = evs
                .iter()
                .find_map(|&(_, _, _, c)| match c {
                    Ceil::Observed(v) => Some(v),
                    Ceil::Delta(_) => None,
                })
                .unwrap_or(0);
            let mut pre_delta = 0i64;
            for &(_, _, _, c) in &evs {
                match c {
                    Ceil::Observed(_) => break,
                    Ceil::Delta(d) => pre_delta += d,
                }
            }
            let mut ceiling = (first_obs as i64 - pre_delta).max(0) as u64;
            let mut occupancy = 0u64;
            let mut tl = MemTimeline {
                node,
                points: Vec::with_capacity(evs.len()),
                peak: 0,
                reserved: 0,
                released: 0,
                final_occupancy: 0,
                overflow: Vec::new(),
            };
            let mut over_since: Option<VTime> = None;
            for (at_secs, _, occ_delta, ceil) in evs {
                let at = VTime::from_secs(at_secs);
                if occ_delta > 0 {
                    tl.reserved += occ_delta as u64;
                } else {
                    tl.released += (-occ_delta) as u64;
                }
                occupancy = (occupancy as i64 + occ_delta).max(0) as u64;
                ceiling = match ceil {
                    Ceil::Observed(v) => v,
                    Ceil::Delta(d) => (ceiling as i64 + d).max(0) as u64,
                };
                tl.peak = tl.peak.max(occupancy);
                match (occupancy > ceiling, over_since) {
                    (true, None) => over_since = Some(at),
                    (false, Some(since)) => {
                        tl.overflow.push((since, at));
                        over_since = None;
                    }
                    _ => {}
                }
                tl.points.push(MemPoint {
                    at,
                    occupancy,
                    ceiling,
                });
            }
            if let (Some(since), Some(last)) = (over_since, tl.points.last()) {
                tl.overflow.push((since, last.at));
            }
            tl.final_occupancy = occupancy;
            tl
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::sort_for_export;

    fn ev(
        name: &str,
        track: u32,
        kind: EventKind,
        attrs: Vec<(&str, AttrVal)>,
        seq: u64,
    ) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            cat: "t".to_string(),
            track,
            kind,
            attrs: attrs.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
            seq,
        }
    }

    fn span(start: f64, dur: f64) -> EventKind {
        EventKind::Span {
            start: VTime::from_secs(start),
            dur: VDuration::from_secs(dur),
        }
    }

    fn at(t: f64) -> EventKind {
        EventKind::Instant {
            at: VTime::from_secs(t),
        }
    }

    fn round(start: f64, secs: [f64; 5], straggler: u64, seq: u64) -> TraceEvent {
        let dur: f64 = secs.iter().sum();
        ev(
            "round",
            ENGINE_TRACK,
            span(start, dur),
            vec![
                ("dir", AttrVal::Str("write".into())),
                ("sync_secs", AttrVal::F64(secs[0])),
                ("shuffle_secs", AttrVal::F64(secs[1])),
                ("storage_secs", AttrVal::F64(secs[2])),
                ("assembly_secs", AttrVal::F64(secs[3])),
                ("backoff_secs", AttrVal::F64(secs[4])),
                ("storage_rank", AttrVal::U64(straggler)),
                ("assembly_rank", AttrVal::U64(straggler + 1)),
                ("backoff_rank", AttrVal::U64(straggler + 2)),
            ],
            seq,
        )
    }

    #[test]
    fn critical_path_tiles_op_with_rounds_gaps_and_epilogue() {
        let op = ev(
            "op",
            ENGINE_TRACK,
            span(0.0, 10.0),
            vec![("dir", AttrVal::Str("write".into()))],
            0,
        );
        let events = vec![
            op,
            round(1.0, [0.5, 1.0, 1.5, 0.0, 0.0], 3, 1),
            round(5.0, [0.5, 0.5, 2.0, 1.0, 0.0], 7, 2),
        ];
        let a = TraceAnalysis::from_events(&events).unwrap();
        assert_eq!(a.ops.len(), 1);
        let cp = &a.ops[0];
        assert_eq!(cp.dir, "write");
        assert_eq!(cp.rounds, 2);
        // Total is the op span's duration verbatim.
        assert_eq!(cp.total.as_secs().to_bits(), 10.0f64.to_bits());
        // Prologue [0,1), round1 3s, gap [4,5), round2 4s, epilogue [9,10).
        assert!((cp.attribution.prologue - 1.0).abs() < 1e-12);
        assert!((cp.attribution.gap - 1.0).abs() < 1e-12);
        assert!((cp.attribution.epilogue - 1.0).abs() < 1e-12);
        assert!((cp.attribution.storage - 3.5).abs() < 1e-12);
        assert_eq!(cp.attribution.dominant(), Phase::Storage);
        // Stragglers named only on nonzero storage/assembly/backoff.
        let stragglers: Vec<(Phase, u32)> = cp
            .segments
            .iter()
            .filter_map(|s| s.straggler.map(|r| (s.phase, r)))
            .collect();
        assert_eq!(
            stragglers,
            vec![
                (Phase::Storage, 3),
                (Phase::Storage, 7),
                (Phase::Assembly, 8)
            ]
        );
        assert_eq!(cp.top_straggler(), Some((3, 1)));
        // Without a recorded chain the path is rank 0's work, and the
        // segments tile [0, 10] to the bit; each round's last cut sits
        // on the round span's end.
        cp.verify_tiling().expect("bit tiling");
        assert!(cp
            .segments
            .iter()
            .all(|s| s.rank == 0 && s.class == SegClass::Work));
        let storage_ends: Vec<f64> = cp
            .segments
            .iter()
            .filter(|s| s.phase == Phase::Storage)
            .map(|s| s.to.as_secs())
            .collect();
        assert_eq!(storage_ends, vec![4.0, 8.0]);
        assert_eq!(cp.segments.last().unwrap().to.as_secs(), 10.0);
    }

    /// A two-round write op on `[0, 4]` whose chain hops from rank 2 to
    /// rank 0 mid-storage: work on 2 over `[0, 2.5]`, a sync-wait edge
    /// on 0 over `[2.5, 3]`, work on 0 to the end.
    fn hopping_op() -> (Vec<TraceEvent>, BlameChain) {
        let events = vec![
            ev(
                "op",
                ENGINE_TRACK,
                span(0.0, 4.0),
                vec![("dir", AttrVal::Str("write".into()))],
                0,
            ),
            round(0.0, [0.25, 0.25, 1.5, 0.0, 0.0], 2, 1),
            round(2.0, [0.25, 0.25, 1.5, 0.0, 0.0], 2, 2),
        ];
        let seg = |rank, class, from: f64, to: f64| BlameSegment {
            rank,
            class,
            from: VTime::from_secs(from),
            to: VTime::from_secs(to),
        };
        let chain = BlameChain {
            dir: "write".into(),
            start: VTime::ZERO,
            end: VTime::from_secs(4.0),
            segments: vec![
                seg(2, SegClass::Work, 0.0, 2.5),
                seg(0, SegClass::SyncWait, 2.5, 3.0),
                seg(0, SegClass::Work, 3.0, 4.0),
            ],
        };
        (events, chain)
    }

    #[test]
    fn recorded_chain_is_cut_at_phase_boundaries() {
        let (events, chain) = hopping_op();
        let a = TraceAnalysis::analyze(&events, Some(vec![chain.clone()])).unwrap();
        let cp = &a.ops[0];
        assert_eq!(cp.chain, chain);
        cp.verify_tiling().expect("bit tiling");
        let pieces: Vec<(u32, SegClass, Phase, f64, f64)> = cp
            .segments
            .iter()
            .map(|s| (s.rank, s.class, s.phase, s.from.as_secs(), s.to.as_secs()))
            .collect();
        use SegClass::{SyncWait, Work};
        assert_eq!(
            pieces,
            vec![
                (2, Work, Phase::Sync, 0.0, 0.25),
                (2, Work, Phase::Shuffle, 0.25, 0.5),
                (2, Work, Phase::Storage, 0.5, 2.0),
                (2, Work, Phase::Sync, 2.0, 2.25),
                (2, Work, Phase::Shuffle, 2.25, 2.5),
                (0, SyncWait, Phase::Storage, 2.5, 3.0),
                (0, Work, Phase::Storage, 3.0, 4.0),
            ]
        );
        // A storage window the chain crosses in two pieces still
        // counts once for its straggler.
        assert_eq!(cp.top_straggler(), Some((2, 2)));
        // Phase attribution is independent of where the chain hops.
        let lockstep = TraceAnalysis::from_events(&events).unwrap();
        for &p in &Phase::ALL {
            assert_eq!(
                cp.attribution.get(p).to_bits(),
                lockstep.ops[0].attribution.get(p).to_bits(),
                "{}",
                p.name()
            );
        }
    }

    #[test]
    fn identity_reweight_reproduces_the_total_bit_exactly() {
        let (events, chain) = hopping_op();
        let a = TraceAnalysis::analyze(&events, Some(vec![chain])).unwrap();
        let cp = &a.ops[0];
        assert_eq!(
            cp.project(|_, _| 1.0).to_bits(),
            cp.total.as_secs().to_bits(),
            "no-op re-weight must be bit-identical to the baseline"
        );
        let by_name = |n: &str| cp.what_ifs().into_iter().find(|w| w.name == n).unwrap();
        assert_eq!(by_name("zero-network").projected_secs, 3.5);
        assert_eq!(by_name("infinite-pfs").projected_secs, 1.0);
        assert_eq!(by_name("infinite-pfs").speedup, 4.0);
        assert_eq!(by_name("uniform-memory").speedup, 1.0);
    }

    #[test]
    fn chains_that_do_not_pair_with_op_spans_are_errors() {
        let (events, chain) = hopping_op();
        let err = TraceAnalysis::analyze(&events, Some(vec![])).unwrap_err();
        assert!(
            err.contains("0 blame chain(s) recorded for 1 op span(s)"),
            "{err}"
        );
        let err =
            TraceAnalysis::analyze(&events, Some(vec![chain.clone(), chain.clone()])).unwrap_err();
        assert!(err.contains("2 blame chain(s)"), "{err}");
        // A chain whose window is not the op span to the bit.
        let mut late = chain;
        late.end = VTime::from_secs(4.0 + 1e-12);
        late.segments.last_mut().unwrap().to = late.end;
        let err = TraceAnalysis::analyze(&events, Some(vec![late])).unwrap_err();
        assert!(err.contains("but its blame chain spans"), "{err}");
    }

    #[test]
    fn round_outside_any_op_is_an_error() {
        let events = vec![
            ev("op", ENGINE_TRACK, span(0.0, 1.0), vec![], 0),
            round(5.0, [1.0, 0.0, 0.0, 0.0, 0.0], 0, 1),
        ];
        let err = TraceAnalysis::from_events(&events).unwrap_err();
        assert!(err.contains("outside"), "{err}");
    }

    #[test]
    fn untiled_round_is_an_error() {
        let mut bad = round(0.0, [1.0, 0.0, 0.0, 0.0, 0.0], 0, 1);
        bad.kind = span(0.0, 2.0); // claims 2s, terms sum to 1s
        let events = vec![ev("op", ENGINE_TRACK, span(0.0, 2.0), vec![], 0), bad];
        let err = TraceAnalysis::from_events(&events).unwrap_err();
        assert!(err.contains("phase terms"), "{err}");
    }

    fn mem_ev(name: &str, t: f64, node: u64, bytes: u64, ceiling: u64, seq: u64) -> TraceEvent {
        ev(
            name,
            0,
            at(t),
            vec![
                ("node", AttrVal::U64(node)),
                ("bytes", AttrVal::U64(bytes)),
                ("ceiling", AttrVal::U64(ceiling)),
            ],
            seq,
        )
    }

    #[test]
    fn occupancy_steps_and_balances() {
        let events = vec![
            mem_ev("mem.reserve", 0.0, 0, 100, 150, 0),
            mem_ev("mem.reserve", 1.0, 0, 40, 150, 1),
            mem_ev("mem.release", 2.0, 0, 100, 150, 2),
            mem_ev("mem.release", 2.0, 0, 40, 150, 3),
        ];
        let a = TraceAnalysis::from_events(&events).unwrap();
        assert_eq!(a.memory.len(), 1);
        let tl = &a.memory[0];
        assert_eq!(tl.node, 0);
        assert_eq!(tl.peak, 140);
        assert_eq!(tl.reserved, 140);
        assert_eq!(tl.released, 140);
        assert_eq!(tl.final_occupancy, 0);
        assert!(tl.within_ceiling());
        let occ: Vec<u64> = tl.points.iter().map(|p| p.occupancy).collect();
        assert_eq!(occ, vec![100, 140, 40, 0]);
    }

    #[test]
    fn overflow_windows_track_ceiling_revocations() {
        let events = vec![
            mem_ev("mem.reserve", 0.0, 2, 100, 150, 0),
            // A revocation drops the ceiling below occupancy…
            ev(
                "fault.mem.revoke",
                ENGINE_TRACK,
                at(1.0),
                vec![("node", AttrVal::U64(2)), ("bytes", AttrVal::U64(80))],
                1,
            ),
            // …and a restoration clears it.
            ev(
                "fault.mem.restore",
                ENGINE_TRACK,
                at(3.0),
                vec![("node", AttrVal::U64(2)), ("bytes", AttrVal::U64(80))],
                2,
            ),
            mem_ev("mem.release", 5.0, 2, 100, 150, 3),
        ];
        let a = TraceAnalysis::from_events(&events).unwrap();
        let tl = &a.memory[0];
        assert!(!tl.within_ceiling());
        assert_eq!(tl.overflow.len(), 1);
        let (s, e) = tl.overflow[0];
        assert!((s.as_secs() - 1.0).abs() < 1e-12);
        assert!((e.as_secs() - 3.0).abs() < 1e-12);
        // Ceiling readings: 150, 70, 150, 150.
        let ceils: Vec<u64> = tl.points.iter().map(|p| p.ceiling).collect();
        assert_eq!(ceils, vec![150, 70, 150, 150]);
    }

    #[test]
    fn self_diff_is_zero_and_deltas_show() {
        let events = vec![
            ev("op", ENGINE_TRACK, span(0.0, 2.0), vec![], 0),
            round(0.0, [1.0, 1.0, 0.0, 0.0, 0.0], 0, 1),
        ];
        let mut a = TraceAnalysis::from_events(&events).unwrap();
        a.counters.insert("round.count".into(), 1);
        let d = a.diff(&a.clone());
        assert!(d.is_zero(0.0));
        assert!(d.table().contains("no deltas"));

        let mut b = a.clone();
        b.counters.insert("round.count".into(), 3);
        b.ops[0].attribution.shuffle += 0.5;
        let d = a.diff(&b);
        assert!(!d.is_zero(1e-12));
        let shuffle = d.phases.iter().find(|p| p.phase == Phase::Shuffle).unwrap();
        assert!((shuffle.delta() - 0.5).abs() < 1e-12);
        assert_eq!(
            d.counters
                .iter()
                .find(|c| c.name == "round.count")
                .unwrap()
                .delta(),
            2
        );
        assert!(d.table().contains("round.count"));
    }

    #[test]
    fn jsonl_round_trip_is_bit_exact() {
        use crate::export;
        let sink = ObsSink::enabled();
        sink.span(
            ENGINE_TRACK,
            "op",
            "engine",
            VTime::ZERO,
            VDuration::from_secs(0.1 + 0.2), // not representable exactly
            &[("dir", AttrValue::Str("write"))],
        );
        sink.instant(
            3,
            "mem.reserve",
            "mem",
            VTime::from_secs(1.0 / 3.0),
            &[("node", AttrValue::U64(1)), ("bytes", AttrValue::U64(42))],
        );
        sink.counter_sample(0, "occ", "mem", VTime::from_secs(0.7), 12.5, &[]);
        let mut live = sink.events();
        sort_for_export(&mut live);
        let replayed = TraceEvent::from_jsonl(&export::jsonl(&live)).unwrap();
        assert_eq!(replayed.len(), live.len());
        for (r, l) in replayed.iter().zip(&live) {
            assert_eq!(r.name, l.name);
            assert_eq!(r.track, l.track);
            match (r.kind, l.kind) {
                (
                    EventKind::Span { start: rs, dur: rd },
                    EventKind::Span { start: ls, dur: ld },
                ) => {
                    assert_eq!(rs.as_secs().to_bits(), ls.as_secs().to_bits());
                    assert_eq!(rd.as_secs().to_bits(), ld.as_secs().to_bits());
                }
                (EventKind::Instant { at: ra }, EventKind::Instant { at: la }) => {
                    assert_eq!(ra.as_secs().to_bits(), la.as_secs().to_bits());
                }
                (
                    EventKind::Counter { at: ra, value: rv },
                    EventKind::Counter { at: la, value: lv },
                ) => {
                    assert_eq!(ra.as_secs().to_bits(), la.as_secs().to_bits());
                    assert_eq!(rv.to_bits(), lv.to_bits());
                }
                other => panic!("kind mismatch: {other:?}"),
            }
        }
        // Attribute types survive: u64 stays integral, str stays str.
        let op = replayed.iter().find(|e| e.name == "op").unwrap();
        assert_eq!(op.attr_str("dir"), Some("write"));
        let res = replayed.iter().find(|e| e.name == "mem.reserve").unwrap();
        assert_eq!(res.attr_u64("bytes"), Some(42));
    }
}
