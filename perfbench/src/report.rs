//! Metric catalogue and output: one human line per metric, then the
//! result object as the last line of standard output.

use std::fmt::Write as _;

use mccio_sim::hostprof::HostPhase;

use crate::run::{median, ratio, EndToEnd, Traced};

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

pub(crate) fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// The end-to-end metrics of an untraced run. Walls are medians over
/// steady-state ops, `setup_s` the median over fresh set-ups.
#[must_use]
pub fn end_to_end(e: &EndToEnd, peak_rss_mib: f64) -> Vec<Metric> {
    vec![
        metric("write_wall_s", "s", median(&e.write_walls)),
        metric("read_wall_s", "s", median(&e.read_walls)),
        metric("setup_s", "s", median(&e.setup_s)),
        metric("peak_rss_mib", "MiB", peak_rss_mib),
        metric("virtual_write_mbps", "MB/s", e.virtual_write_mbps),
        metric("virtual_read_mbps", "MB/s", e.virtual_read_mbps),
        metric("ok_op_share", "ratio", 1.0 - e.checks.failed_share()),
    ]
}

/// The per-layer metrics of a traced run.
#[must_use]
pub fn per_layer(t: &Traced) -> Vec<Metric> {
    let sig = t.signature.unwrap_or_default();
    // Exact counters are per collective op: a pair is one write and one read.
    let per_op = |v: u64| v as f64 / 2.0;
    let mut out = t.layers.clone();
    out.extend([
        metric("net.recycler.hit_ratio", "ratio", t.recycler_hit_ratio),
        metric("engine.rounds", "count", per_op(sig.rounds)),
        metric("engine.shuffle_bytes", "bytes", per_op(sig.shuffle_bytes)),
        metric(
            "engine.storage_requests",
            "count",
            per_op(sig.storage_requests),
        ),
        metric("engine.storage_bytes", "bytes", per_op(sig.storage_bytes)),
        metric(
            "engine.payload_peak_bytes",
            "bytes",
            per_op(sig.payload_peak_bytes),
        ),
        metric("net.data_msgs", "count", per_op(sig.data_msgs)),
        metric("net.ctl_msgs", "count", per_op(sig.ctl_msgs)),
        metric("net.recycle_takes", "count", per_op(sig.recycle_takes)),
    ]);
    for (i, phase) in HostPhase::ALL.iter().enumerate() {
        let name = phase.name();
        out.push(metric(format!("hostprof.{name}.ms"), "ms", t.phase_ms(i)));
        out.push(metric(
            format!("hostprof.{name}.calls"),
            "count",
            ratio(t.phase_calls[i] as f64, t.traced_ops()),
        ));
    }
    out.push(metric(
        "hostprof.unattributed.ms",
        "ms",
        t.unattributed_ms(),
    ));
    out.push(metric("obs.overhead_pct", "%", t.overhead_pct()));
    out.push(metric("bench.input_s", "s", median(&t.input_s)));
    out.push(metric("bench.verify_s", "s", median(&t.verify_s)));
    out
}

/// The result object the benchmark prints last: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN or infinity; every metric is computed through
        // guarded ratios, so this never fires on a sane run.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The host a result was measured on: walls compare only between
/// matching hosts.
#[must_use]
pub fn host_description() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    let rustc =
        std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
            .arg("-V")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    format!("nproc={nproc} cpu=\"{cpu}\" kernel={kernel} rustc=\"{rustc}\"")
}

/// `median M unit, n=N: s1 s2 ...` of a sample set, in `unit`.
#[must_use]
pub fn summary(v: &[f64], unit: &str) -> String {
    let all: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
    format!(
        "median {:.4} {unit}, n={}: {}",
        median(v),
        v.len(),
        all.join(" ")
    )
}
