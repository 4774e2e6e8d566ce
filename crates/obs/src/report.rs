//! A self-contained HTML report for one analyzed run: inline SVG
//! timeline lanes, the critical path highlighted and colored by phase
//! with per-op path and what-if tables, per-node occupancy strip charts,
//! and the attribution/counter tables.
//!
//! The output is a single file with zero external references — no
//! scripts, stylesheets, fonts, or images — so it can be archived as a
//! CI artifact and opened anywhere. Rendering is deterministic: the
//! same analysis produces byte-identical HTML.

use std::fmt::Write as _;

use crate::analyze::{CriticalPath, MemTimeline, Phase, RunDiff, TraceAnalysis, TraceEvent};
use crate::span::{EventKind, ENGINE_TRACK};

/// Chart width in pixels (time axis).
const W: f64 = 960.0;
/// Maximum rank lanes drawn before eliding the rest.
const MAX_LANES: usize = 40;

/// The fill color a phase renders with.
#[must_use]
pub fn phase_color(phase: Phase) -> &'static str {
    match phase {
        Phase::Sync => "#888888",
        Phase::Shuffle => "#4c78a8",
        Phase::Storage => "#f58518",
        Phase::Assembly => "#54a24b",
        Phase::Backoff => "#e45756",
        Phase::Prologue => "#bab0ac",
        Phase::Gap => "#d4d4d4",
        Phase::Epilogue => "#9d755d",
    }
}

/// Escapes text for embedding in HTML (element content and attributes).
#[must_use]
pub fn html_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            c => out.push(c),
        }
    }
    out
}

/// Renders the full report: summary, critical-path lanes with each op's
/// path table and what-if projections, rank timeline lanes, occupancy
/// strip charts, attribution and counter tables, and — when `diff` is
/// given — the A/B comparison.
#[must_use]
pub fn render(
    title: &str,
    events: &[TraceEvent],
    analysis: &TraceAnalysis,
    diff: Option<&RunDiff>,
) -> String {
    let (t0, t1) = time_bounds(events, analysis);
    let scale = Scale { t0, t1 };
    let mut out = String::with_capacity(64 * 1024);
    let _ = write!(
        out,
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
         <title>{}</title>\n<style>\n{}\n</style>\n</head>\n<body>\n<h1>{}</h1>\n",
        html_escape(title),
        CSS,
        html_escape(title)
    );
    summary_section(&mut out, analysis);
    critical_path_section(&mut out, analysis, &scale);
    lanes_section(&mut out, events, analysis, &scale);
    memory_section(&mut out, &analysis.memory, &scale);
    attribution_section(&mut out, analysis);
    streaming_section(&mut out, analysis);
    host_section(&mut out, analysis);
    counters_section(&mut out, analysis);
    gauges_section(&mut out, analysis);
    histograms_section(&mut out, analysis);
    if let Some(d) = diff {
        diff_section(&mut out, d);
    }
    out.push_str("</body>\n</html>\n");
    out
}

const CSS: &str = "body{font-family:system-ui,sans-serif;margin:24px;color:#222}\n\
h1{font-size:20px}h2{font-size:16px;margin-top:28px}\n\
table{border-collapse:collapse;font-size:13px}\n\
td,th{border:1px solid #ccc;padding:3px 8px;text-align:right}\n\
th{background:#f2f2f2}td.l,th.l{text-align:left}\n\
svg{display:block;margin:6px 0}\n\
.legend span{display:inline-block;margin-right:12px;font-size:12px}\n\
.legend i{display:inline-block;width:10px;height:10px;margin-right:4px}";

struct Scale {
    t0: f64,
    t1: f64,
}

impl Scale {
    fn x(&self, t: f64) -> f64 {
        if self.t1 <= self.t0 {
            return 0.0;
        }
        (t - self.t0) / (self.t1 - self.t0) * W
    }

    fn width(&self, dur: f64) -> f64 {
        if self.t1 <= self.t0 {
            return 0.0;
        }
        (dur / (self.t1 - self.t0) * W).max(0.1)
    }
}

fn time_bounds(events: &[TraceEvent], analysis: &TraceAnalysis) -> (f64, f64) {
    let mut t0 = f64::INFINITY;
    let mut t1 = f64::NEG_INFINITY;
    for e in events {
        t0 = t0.min(e.kind.at().as_secs());
        t1 = t1.max(e.end().as_secs());
    }
    for op in &analysis.ops {
        t0 = t0.min(op.start.as_secs());
        t1 = t1.max((op.start + op.total).as_secs());
    }
    if !t0.is_finite() || !t1.is_finite() {
        (0.0, 1.0)
    } else {
        (t0, t1)
    }
}

fn summary_section(out: &mut String, analysis: &TraceAnalysis) {
    out.push_str(
        "<h2>Operations</h2>\n<table>\n<tr><th class=\"l\">op</th><th class=\"l\">dir</th>\
         <th>rounds</th><th>total (s)</th><th class=\"l\">dominant</th>\
         <th class=\"l\">top straggler</th></tr>\n",
    );
    for (i, op) in analysis.ops.iter().enumerate() {
        let straggler = op
            .top_straggler()
            .map_or("—".to_string(), |(r, n)| format!("rank {r} ({n}×)"));
        let _ = writeln!(
            out,
            "<tr><td class=\"l\">{i}</td><td class=\"l\">{}</td><td>{}</td>\
             <td>{:.6}</td><td class=\"l\">{}</td><td class=\"l\">{}</td></tr>",
            html_escape(&op.dir),
            op.rounds,
            op.total.as_secs(),
            op.attribution.dominant().name(),
            html_escape(&straggler),
        );
    }
    out.push_str("</table>\n");
}

fn legend(out: &mut String) {
    out.push_str("<div class=\"legend\">");
    for &p in &Phase::ALL {
        let _ = write!(
            out,
            "<span><i style=\"background:{}\"></i>{}</span>",
            phase_color(p),
            p.name()
        );
    }
    out.push_str("</div>\n");
}

fn critical_path_section(out: &mut String, analysis: &TraceAnalysis, scale: &Scale) {
    out.push_str("<h2>Critical path</h2>\n");
    out.push_str(
        "<p>Each op's blame chain — which rank's work and which message's \
         flight time the elapsed seconds sit on — cut at the engine's phase \
         boundaries. Segment joints are bit-equal and the path total is the \
         op's elapsed virtual time.</p>\n",
    );
    legend(out);
    let lane_h = 26.0;
    let h = lane_h * analysis.ops.len() as f64 + 4.0;
    let _ = writeln!(
        out,
        "<svg width=\"{W}\" height=\"{h}\" viewBox=\"0 0 {W} {h}\" role=\"img\" \
         aria-label=\"critical path\">"
    );
    for (i, op) in analysis.ops.iter().enumerate() {
        let y = lane_h * i as f64 + 2.0;
        for seg in &op.segments {
            let x = scale.x(seg.from.as_secs());
            let w = scale.width(seg.dur().as_secs());
            let mut tip = format!(
                "{} {:.6}s @ {:.6}s rank {} {}",
                seg.phase.name(),
                seg.dur().as_secs(),
                seg.from.as_secs(),
                seg.rank,
                seg.class.name()
            );
            if let Some(r) = seg.round {
                let _ = write!(tip, " round {r}");
            }
            if let Some(rank) = seg.straggler {
                let _ = write!(tip, " straggler rank {rank}");
            }
            let _ = writeln!(
                out,
                "<rect x=\"{x:.2}\" y=\"{y:.1}\" width=\"{w:.2}\" height=\"{:.1}\" \
                 fill=\"{}\"><title>{}</title></rect>",
                lane_h - 6.0,
                phase_color(seg.phase),
                html_escape(&tip)
            );
        }
    }
    out.push_str("</svg>\n");
    for (i, op) in analysis.ops.iter().enumerate() {
        path_table(out, i, op);
    }
}

/// Maximum critical-path segment rows rendered per op before eliding.
const MAX_PATH_ROWS: usize = 96;

/// One op's path as a table — rank, causal class and phase of every
/// segment — followed by its what-if projections.
fn path_table(out: &mut String, i: usize, op: &CriticalPath) {
    let chain = &op.chain;
    let total = op.total.as_secs();
    let ranks = chain
        .ranks()
        .iter()
        .map(|r| format!("{r}"))
        .collect::<Vec<_>>()
        .join(" → ");
    let _ = writeln!(
        out,
        "<h3 style=\"font-size:13px;margin:10px 0 0\">op {i} ({}) — {total:.6}s, \
         {} hops via ranks {}; work {:.6}s, wait {:.6}s</h3>",
        html_escape(&op.dir),
        chain.hops(),
        html_escape(&ranks),
        chain.work_secs(),
        chain.wait_secs(),
    );
    out.push_str(
        "<table>\n<tr><th>#</th><th>rank</th><th class=\"l\">class</th>\
         <th class=\"l\">phase</th><th>round</th><th>straggler</th>\
         <th>from (s)</th><th>to (s)</th><th>dur (s)</th><th>share</th></tr>\n",
    );
    fn opt(v: Option<impl std::fmt::Display>) -> String {
        v.map_or("—".to_string(), |v| v.to_string())
    }
    for (j, seg) in op.segments.iter().take(MAX_PATH_ROWS).enumerate() {
        let dur = seg.dur().as_secs();
        let share = if total > 0.0 {
            dur / total * 100.0
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "<tr><td>{j}</td><td>{}</td><td class=\"l\">{}</td>\
             <td class=\"l\" style=\"border-left:6px solid {}\">{}</td>\
             <td>{}</td><td>{}</td>\
             <td>{:.9}</td><td>{:.9}</td><td>{dur:.9}</td><td>{share:.1}%</td></tr>",
            seg.rank,
            seg.class.name(),
            phase_color(seg.phase),
            seg.phase.name(),
            opt(seg.round),
            opt(seg.straggler),
            seg.from.as_secs(),
            seg.to.as_secs(),
        );
    }
    out.push_str("</table>\n");
    if op.segments.len() > MAX_PATH_ROWS {
        let _ = writeln!(
            out,
            "<p>({} more path segments elided)</p>",
            op.segments.len() - MAX_PATH_ROWS
        );
    }
    out.push_str(
        "<table style=\"margin-top:8px\">\n<tr><th class=\"l\">what-if</th>\
         <th>projected (s)</th><th>speedup</th></tr>\n",
    );
    for w in op.what_ifs() {
        let speedup = if w.speedup.is_finite() {
            format!("{:.2}&times;", w.speedup)
        } else {
            "&#8734;".to_string()
        };
        let _ = writeln!(
            out,
            "<tr><td class=\"l\">{}</td><td>{:.6}</td><td>{speedup}</td></tr>",
            html_escape(w.name),
            w.projected_secs,
        );
    }
    out.push_str("</table>\n");
}

fn lanes_section(out: &mut String, events: &[TraceEvent], analysis: &TraceAnalysis, scale: &Scale) {
    // One lane per rank track, engine track first; spans render as
    // boxes, instants as ticks.
    let mut tracks: Vec<u32> = events.iter().map(|e| e.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    tracks.retain(|&t| t != ENGINE_TRACK);
    let elided = tracks.len().saturating_sub(MAX_LANES);
    tracks.truncate(MAX_LANES);
    out.push_str("<h2>Timeline</h2>\n");
    if elided > 0 {
        let _ = writeln!(out, "<p>({elided} more rank lanes elided)</p>");
    }
    let lane_h = 16.0;
    let label_w = 70.0;
    let n_lanes = tracks.len() + 1;
    let h = lane_h * n_lanes as f64 + 4.0;
    let total_w = W + label_w;
    let _ = writeln!(
        out,
        "<svg width=\"{total_w}\" height=\"{h}\" viewBox=\"0 0 {total_w} {h}\" role=\"img\" \
         aria-label=\"per-rank timeline\">"
    );
    // Engine lane: op outlines plus the round phases colored as on the
    // critical path (the path is the engine lane, highlighted).
    let mut lane = 0usize;
    let y = 2.0;
    let _ = writeln!(
        out,
        "<text x=\"2\" y=\"{:.1}\" font-size=\"10\">engine</text>",
        y + lane_h - 6.0
    );
    for op in &analysis.ops {
        for seg in &op.segments {
            let x = label_w + scale.x(seg.from.as_secs());
            let w = scale.width(seg.dur().as_secs());
            let _ = writeln!(
                out,
                "<rect x=\"{x:.2}\" y=\"{:.1}\" width=\"{w:.2}\" height=\"{:.1}\" \
                 fill=\"{}\" stroke=\"#333\" stroke-width=\"0.3\"/>",
                y,
                lane_h - 4.0,
                phase_color(seg.phase),
            );
        }
    }
    lane += 1;
    for &track in &tracks {
        let y = lane_h * lane as f64 + 2.0;
        let _ = writeln!(
            out,
            "<text x=\"2\" y=\"{:.1}\" font-size=\"10\">rank {track}</text>",
            y + lane_h - 6.0
        );
        for e in events.iter().filter(|e| e.track == track) {
            match e.kind {
                EventKind::Span { start, dur } => {
                    let x = label_w + scale.x(start.as_secs());
                    let w = scale.width(dur.as_secs());
                    let _ = writeln!(
                        out,
                        "<rect x=\"{x:.2}\" y=\"{y:.1}\" width=\"{w:.2}\" height=\"{:.1}\" \
                         fill=\"#a5c8e4\"><title>{}</title></rect>",
                        lane_h - 4.0,
                        html_escape(&e.name)
                    );
                }
                EventKind::Instant { at } => {
                    let x = label_w + scale.x(at.as_secs());
                    let color = match e.cat.as_str() {
                        "mem" => "#f58518",
                        "fault" => "#e45756",
                        _ => "#666666",
                    };
                    let _ = writeln!(
                        out,
                        "<rect x=\"{x:.2}\" y=\"{y:.1}\" width=\"1\" height=\"{:.1}\" \
                         fill=\"{color}\"><title>{}</title></rect>",
                        lane_h - 4.0,
                        html_escape(&e.name)
                    );
                }
                EventKind::Counter { .. } => {}
            }
        }
        lane += 1;
    }
    out.push_str("</svg>\n");
}

fn memory_section(out: &mut String, memory: &[MemTimeline], scale: &Scale) {
    if memory.is_empty() {
        return;
    }
    out.push_str("<h2>Memory occupancy</h2>\n");
    let h = 72.0;
    for tl in memory {
        let top = tl
            .points
            .iter()
            .map(|p| p.ceiling.max(p.occupancy))
            .max()
            .unwrap_or(1)
            .max(1) as f64;
        let ypix = |bytes: u64| h - 2.0 - (bytes as f64 / top) * (h - 14.0);
        let _ = writeln!(
            out,
            "<h3 style=\"font-size:13px;margin:10px 0 0\">node {} — peak {} B, \
             reserved {} B, released {} B{}</h3>",
            tl.node,
            tl.peak,
            tl.reserved,
            tl.released,
            if tl.within_ceiling() {
                String::new()
            } else {
                format!(", {} overflow window(s)", tl.overflow.len())
            }
        );
        let _ = writeln!(
            out,
            "<svg width=\"{W}\" height=\"{h}\" viewBox=\"0 0 {W} {h}\" role=\"img\" \
             aria-label=\"node {} occupancy\">",
            tl.node
        );
        // Overflow windows shade first so the curves draw on top.
        for &(s, e) in &tl.overflow {
            let x = scale.x(s.as_secs());
            let w = (scale.x(e.as_secs()) - x).max(0.5);
            let _ = writeln!(
                out,
                "<rect x=\"{x:.2}\" y=\"0\" width=\"{w:.2}\" height=\"{h}\" \
                 fill=\"#e45756\" opacity=\"0.25\"/>"
            );
        }
        // Ceiling: dashed step line. Occupancy: solid step line.
        for (points, style) in [
            (
                ceiling_steps(tl),
                "fill=\"none\" stroke=\"#555\" stroke-dasharray=\"4 3\"",
            ),
            (
                occupancy_steps(tl),
                "fill=\"none\" stroke=\"#4c78a8\" stroke-width=\"1.5\"",
            ),
        ] {
            let mut d = String::new();
            for (i, (t, v)) in points.iter().enumerate() {
                let cmd = if i == 0 { 'M' } else { 'L' };
                let _ = write!(d, "{cmd}{:.2},{:.2} ", scale.x(*t), ypix(*v));
            }
            let _ = writeln!(out, "<path d=\"{}\" {style}/>", d.trim_end());
        }
        out.push_str("</svg>\n");
    }
}

/// The occupancy step polyline: hold each value until the next event.
fn occupancy_steps(tl: &MemTimeline) -> Vec<(f64, u64)> {
    steps(tl, |p| p.occupancy)
}

/// The ceiling step polyline.
fn ceiling_steps(tl: &MemTimeline) -> Vec<(f64, u64)> {
    steps(tl, |p| p.ceiling)
}

fn steps(tl: &MemTimeline, f: impl Fn(&crate::analyze::MemPoint) -> u64) -> Vec<(f64, u64)> {
    let mut out = Vec::with_capacity(tl.points.len() * 2);
    let mut prev: Option<u64> = None;
    for p in &tl.points {
        let v = f(p);
        let t = p.at.as_secs();
        if let Some(pv) = prev {
            out.push((t, pv)); // hold until this instant
        }
        out.push((t, v));
        prev = Some(v);
    }
    out
}

fn attribution_section(out: &mut String, analysis: &TraceAnalysis) {
    out.push_str("<h2>Attribution</h2>\n<table>\n<tr><th class=\"l\">op</th>");
    for &p in &Phase::ALL {
        let _ = write!(out, "<th>{}</th>", p.name());
    }
    out.push_str("<th>total (s)</th></tr>\n");
    for (i, op) in analysis.ops.iter().enumerate() {
        let _ = write!(
            out,
            "<tr><td class=\"l\">{i} ({})</td>",
            html_escape(&op.dir)
        );
        for &p in &Phase::ALL {
            let secs = op.attribution.get(p);
            let pct = if op.total.as_secs() > 0.0 {
                secs / op.total.as_secs() * 100.0
            } else {
                0.0
            };
            let _ = write!(out, "<td>{secs:.6} ({pct:.1}%)</td>");
        }
        let _ = writeln!(out, "<td>{:.6}</td></tr>", op.total.as_secs());
    }
    out.push_str("</table>\n");
}

/// Maximum streaming-attribution cell rows rendered before eliding.
const MAX_STREAM_ROWS: usize = 64;

fn streaming_section(out: &mut String, analysis: &TraceAnalysis) {
    let Some(agg) = &analysis.streaming else {
        return;
    };
    let cfg = agg.config();
    out.push_str("<h2>Streaming attribution</h2>\n");
    let _ = writeln!(
        out,
        "<p>{} events folded into {} cells, {} retained \
         (exemplar stride {}, max {} lanes, top-{} stragglers).</p>",
        agg.folded_events,
        agg.cell_count(),
        agg.retained_events,
        cfg.exemplar_stride,
        cfg.exemplar_max,
        cfg.top_k
    );
    out.push_str(
        "<table>\n<tr><th class=\"l\">event</th><th>t (s)</th><th>n</th>\
         <th class=\"l\">quantity</th><th>mean</th><th>min</th><th>max</th>\
         <th class=\"l\">top stragglers</th></tr>\n",
    );
    for (name, at, cell) in agg.cells().take(MAX_STREAM_ROWS) {
        // One row per cell: span cells report duration (ns), counter
        // cells the sampled value, instant cells their heaviest attr.
        let (quantity, stat) = match cell.kind {
            "span" => ("dur (ns)".to_string(), Some(&cell.dur_nanos)),
            "counter" => ("value".to_string(), Some(&cell.value)),
            _ => cell
                .attrs
                .iter()
                .max_by_key(|(_, s)| s.sum)
                .map_or(("—".to_string(), None), |(k, s)| {
                    ((*k).to_string(), Some(s))
                }),
        };
        let (mean, min, max, top) = stat.map_or_else(
            || (0.0, 0, 0, String::new()),
            |s| {
                let top = s
                    .top
                    .iter()
                    .map(|&(v, r)| format!("rank {r} ({v})"))
                    .collect::<Vec<_>>()
                    .join(", ");
                (s.mean(), s.min_or_zero(), s.max, top)
            },
        );
        let _ = writeln!(
            out,
            "<tr><td class=\"l\">{}</td><td>{:.6}</td><td>{}</td>\
             <td class=\"l\">{}</td><td>{mean:.1}</td><td>{min}</td><td>{max}</td>\
             <td class=\"l\">{}</td></tr>",
            html_escape(name),
            at.as_secs(),
            cell.count,
            html_escape(&quantity),
            html_escape(&top)
        );
    }
    out.push_str("</table>\n");
    if agg.cell_count() > MAX_STREAM_ROWS {
        let _ = writeln!(
            out,
            "<p>({} more cells elided)</p>",
            agg.cell_count() - MAX_STREAM_ROWS
        );
    }
}

fn host_section(out: &mut String, analysis: &TraceAnalysis) {
    let Some(host) = &analysis.host else {
        return;
    };
    out.push_str("<h2>Host-wall profile</h2>\n");
    let profiled = host.profiled_secs();
    let _ = writeln!(
        out,
        "<p>Host wall {:.3}s for {:.3} virtual s simulated; {:.3}s attributed below \
         (phases may nest). Host times are nondeterministic observability data.</p>",
        host.wall_secs, host.virtual_secs, profiled
    );
    out.push_str(
        "<table>\n<tr><th class=\"l\">simulator phase</th><th>calls</th>\
         <th>host (ms)</th><th>share</th></tr>\n",
    );
    for p in &host.phases {
        if p.calls == 0 {
            continue;
        }
        let share = if profiled > 0.0 {
            p.secs() / profiled * 100.0
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "<tr><td class=\"l\">{}</td><td>{}</td><td>{:.3}</td><td>{share:.1}%</td></tr>",
            html_escape(p.name),
            p.calls,
            p.secs() * 1e3
        );
    }
    out.push_str("</table>\n");
}

fn histograms_section(out: &mut String, analysis: &TraceAnalysis) {
    if analysis.histograms.is_empty() {
        return;
    }
    out.push_str(
        "<h2>Histograms</h2>\n<table>\n<tr><th class=\"l\">histogram</th><th>n</th>\
         <th>mean</th><th>cov</th><th>min</th><th>max</th>\
         <th class=\"l\">log2 buckets (&lt;bound: count)</th></tr>\n",
    );
    for (name, h) in &analysis.histograms {
        let buckets = h
            .nonzero_buckets()
            .iter()
            .map(|(bound, count)| format!("<{bound}: {count}"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            out,
            "<tr><td class=\"l\">{}</td><td>{}</td><td>{:.1}</td><td>{:.3}</td>\
             <td>{:.0}</td><td>{:.0}</td><td class=\"l\">{}</td></tr>",
            html_escape(name),
            h.count(),
            h.mean(),
            h.cov(),
            h.min(),
            h.max(),
            html_escape(&buckets)
        );
    }
    out.push_str("</table>\n");
}

fn counters_section(out: &mut String, analysis: &TraceAnalysis) {
    if analysis.counters.is_empty() {
        return;
    }
    out.push_str(
        "<h2>Counters</h2>\n<table>\n<tr><th class=\"l\">counter</th><th>value</th></tr>\n",
    );
    for (name, v) in &analysis.counters {
        let _ = writeln!(
            out,
            "<tr><td class=\"l\">{}</td><td>{v}</td></tr>",
            html_escape(name)
        );
    }
    out.push_str("</table>\n");
}

fn gauges_section(out: &mut String, analysis: &TraceAnalysis) {
    if analysis.gauges.is_empty() {
        return;
    }
    out.push_str("<h2>Gauges</h2>\n<table>\n<tr><th class=\"l\">gauge</th><th>value</th></tr>\n");
    for (name, v) in &analysis.gauges {
        let _ = writeln!(
            out,
            "<tr><td class=\"l\">{}</td><td>{v:.0}</td></tr>",
            html_escape(name)
        );
    }
    out.push_str("</table>\n");
}

fn diff_section(out: &mut String, diff: &RunDiff) {
    out.push_str(
        "<h2>A/B comparison</h2>\n<table>\n<tr><th class=\"l\">phase</th>\
         <th>a (s)</th><th>b (s)</th><th>delta (s)</th></tr>\n",
    );
    for p in &diff.phases {
        let _ = writeln!(
            out,
            "<tr><td class=\"l\">{}</td><td>{:.6}</td><td>{:.6}</td><td>{:+.6}</td></tr>",
            p.phase.name(),
            p.a_secs,
            p.b_secs,
            p.delta()
        );
    }
    out.push_str("</table>\n");
    let changed: Vec<_> = diff.counters.iter().filter(|c| c.delta() != 0).collect();
    if !changed.is_empty() {
        out.push_str(
            "<table style=\"margin-top:8px\">\n<tr><th class=\"l\">counter</th>\
             <th>a</th><th>b</th><th>delta</th></tr>\n",
        );
        for c in changed {
            let _ = writeln!(
                out,
                "<tr><td class=\"l\">{}</td><td>{}</td><td>{}</td><td>{:+}</td></tr>",
                html_escape(&c.name),
                c.a,
                c.b,
                c.delta()
            );
        }
        out.push_str("</table>\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::AttrVal;
    use mccio_sim::time::{VDuration, VTime};

    fn sample() -> (Vec<TraceEvent>, TraceAnalysis) {
        let events = vec![
            TraceEvent {
                name: "op".into(),
                cat: "engine".into(),
                track: ENGINE_TRACK,
                kind: EventKind::Span {
                    start: VTime::ZERO,
                    dur: VDuration::from_secs(2.0),
                },
                attrs: vec![("dir".into(), AttrVal::Str("write".into()))],
                seq: 0,
            },
            TraceEvent {
                name: "round".into(),
                cat: "engine".into(),
                track: ENGINE_TRACK,
                kind: EventKind::Span {
                    start: VTime::ZERO,
                    dur: VDuration::from_secs(2.0),
                },
                attrs: vec![
                    ("dir".into(), AttrVal::Str("write".into())),
                    ("sync_secs".into(), AttrVal::F64(0.5)),
                    ("shuffle_secs".into(), AttrVal::F64(0.5)),
                    ("storage_secs".into(), AttrVal::F64(1.0)),
                    ("assembly_secs".into(), AttrVal::F64(0.0)),
                    ("backoff_secs".into(), AttrVal::F64(0.0)),
                    ("storage_rank".into(), AttrVal::U64(5)),
                ],
                seq: 1,
            },
            TraceEvent {
                name: "mem.reserve".into(),
                cat: "mem".into(),
                track: 3,
                kind: EventKind::Instant { at: VTime::ZERO },
                attrs: vec![
                    ("node".into(), AttrVal::U64(0)),
                    ("bytes".into(), AttrVal::U64(64)),
                    ("ceiling".into(), AttrVal::U64(128)),
                ],
                seq: 2,
            },
            TraceEvent {
                name: "mem.release".into(),
                cat: "mem".into(),
                track: 3,
                kind: EventKind::Instant {
                    at: VTime::from_secs(2.0),
                },
                attrs: vec![
                    ("node".into(), AttrVal::U64(0)),
                    ("bytes".into(), AttrVal::U64(64)),
                    ("ceiling".into(), AttrVal::U64(128)),
                ],
                seq: 3,
            },
        ];
        let analysis = TraceAnalysis::from_events(&events).unwrap();
        (events, analysis)
    }

    #[test]
    fn report_is_self_contained_html() {
        let (events, analysis) = sample();
        let html = render("test report", &events, &analysis, None);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.ends_with("</html>\n"));
        assert!(html.contains("<svg"));
        assert!(html.contains("Critical path"));
        assert!(html.contains("Memory occupancy"));
        assert!(html.contains("straggler rank 5"));
        // Self-contained: no external references of any kind.
        for needle in ["http://", "https://", "<script", "<link", "<img", "src="] {
            assert!(!html.contains(needle), "found {needle}");
        }
    }

    #[test]
    fn streaming_host_and_histogram_sections_render() {
        use crate::sink::ObsSink;
        use crate::span::AttrValue;
        use crate::stream::StreamConfig;
        use mccio_sim::hostprof::{HostPhaseStat, HostProfile};

        let (events, mut analysis) = sample();
        let sink = ObsSink::streaming(StreamConfig {
            top_k: 2,
            exemplar_stride: 1,
            exemplar_max: 1,
        });
        for rank in 0..16u32 {
            sink.span(
                rank,
                "prologue",
                "engine",
                VTime::ZERO,
                VDuration::from_secs(f64::from(rank) * 1e-3),
                &[("bytes", AttrValue::U64(64))],
            );
            sink.instant(
                rank,
                "rank.round",
                "engine",
                VTime::from_secs(1.0),
                &[("sent_bytes", AttrValue::U64(u64::from(rank)))],
            );
        }
        analysis.streaming = sink.stream_stats();
        analysis.host = Some(HostProfile {
            phases: vec![HostPhaseStat {
                name: "exec.schedule",
                calls: 12,
                nanos: 3_000_000,
            }],
            wall_secs: 1.25,
            virtual_secs: 2.0,
        });
        let mut m = crate::metrics::MetricsRegistry::new();
        m.observe("mem.node_peak_bytes", 4096);
        analysis.histograms = m.histogram_map();

        let html = render("scaled", &events, &analysis, None);
        assert!(html.contains("Streaming attribution"));
        assert!(html.contains("Host-wall profile"));
        assert!(html.contains("Histograms"));
        assert!(html.contains("exec.schedule"));
        assert!(html.contains("mem.node_peak_bytes"));
        assert!(html.contains("rank.round"));
        for needle in ["http://", "https://", "<script", "<link", "<img", "src="] {
            assert!(!html.contains(needle), "found {needle}");
        }
        assert_eq!(
            render("scaled", &events, &analysis, None),
            render("scaled", &events, &analysis, None),
            "rendering with the new sections stays deterministic"
        );
    }

    #[test]
    fn critical_path_renders_blame_chain_and_what_ifs() {
        use crate::causal::CausalAgg;
        use mccio_sim::causal::CausalSink as _;

        let (events, _) = sample();
        let agg = CausalAgg::new(true);
        let seq = agg.on_send(0, 1, VTime::from_secs(0.8), 64);
        agg.on_delivery(0, seq, 1, VTime::from_secs(0.2), VTime::from_secs(1.2));
        agg.op_end(1, VTime::ZERO, VTime::from_secs(2.0), "write");
        let analysis = TraceAnalysis::analyze(&events, Some(agg.chains())).unwrap();
        let html = render("causal", &events, &analysis, None);
        assert!(html.contains("1 hops via ranks 0 → 1"));
        assert!(html.contains("sync-wait"));
        assert!(html.contains("zero-network"));
        assert!(html.contains("infinite-pfs"));
        assert!(html.contains("uniform-memory"));
        for needle in ["http://", "https://", "<script", "<link", "<img", "src="] {
            assert!(!html.contains(needle), "found {needle}");
        }
        assert_eq!(
            render("causal", &events, &analysis, None),
            render("causal", &events, &analysis, None),
            "the path tables stay deterministic"
        );
    }

    #[test]
    fn diff_section_renders_when_given() {
        let (events, analysis) = sample();
        let d = analysis.diff(&analysis);
        let html = render("diffed", &events, &analysis, Some(&d));
        assert!(html.contains("A/B comparison"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let (events, analysis) = sample();
        assert_eq!(
            render("t", &events, &analysis, None),
            render("t", &events, &analysis, None)
        );
    }

    #[test]
    fn escape_covers_html_metacharacters() {
        assert_eq!(html_escape("a<b>&\"c'"), "a&lt;b&gt;&amp;&quot;c&#39;");
    }
}
