//! `trace` — run a figure-scale collective I/O config with the
//! observability layer enabled and emit its artifacts: a Chrome
//! `trace_event` JSON per strategy (loadable in Perfetto /
//! `chrome://tracing`), a JSONL event stream, and a metrics summary
//! table.
//!
//! ```text
//! cargo run --release -p mccio-bench --bin trace -- [ci|fig7] [outdir]
//! cargo run --release -p mccio-bench --bin trace -- report [ci|fig7] [outdir]
//! cargo run --release -p mccio-bench --bin trace -- causal [ci|fig7] [outdir]
//! ```
//!
//! * `ci` — the bounded 24-rank config (CI artifact validation); its
//!   deterministic counters and virtual times are pinned exactly, traced
//!   and untraced, by `crates/bench/tests/ci_goldens.rs`;
//! * `fig7` (default) — the fig7-scale config (120 ranks, IOR
//!   interleaved);
//! * `report` — runs both paper strategies traced, analyzes each trace
//!   (critical path, occupancy timelines), and writes one self-contained
//!   HTML report per strategy — the second carries the A/B diff against
//!   the first. Exits nonzero unless every op's critical-path total is
//!   bit-identical to its op span, every path tiles its span with
//!   bit-equal joints, and the JSONL artifact replays into a
//!   bit-identical analysis, segment by segment;
//! * `causal` — root-cause analysis: runs both paper strategies with
//!   message-causality tracing under a deterministic 5 µs control-plane
//!   latency (so clocks genuinely diverge and blame chains hop ranks),
//!   on *both* rank executors. Exits nonzero unless the blame chains
//!   are bit-identical across executors, every chain tiles its op span
//!   to the bit, the live DP frontier stayed bounded, and the
//!   flow-annotated Chrome trace validates. Writes one causal HTML
//!   report and one flow-annotated Chrome trace per strategy, and
//!   prints each op's blame chain and what-if projections.
//!
//! Every emitted artifact is validated before the binary exits 0, so CI
//! can treat "trace ran" as "trace is loadable". Simulator wall time is
//! measured by `perfbench/`, not here.

use std::process::exit;

use mccio_bench::{paper_pair, run_on_traced_faulty, run_traced, Platform};
use mccio_net::ExecutorKind;
use mccio_obs::{analyze, export, report, ObsSink};
use mccio_sim::fault::FaultPlan;
use mccio_sim::time::{VDuration, VTime};
use mccio_sim::units::MIB;
use mccio_workloads::Ior;

/// `(nodes, ranks, MiB per rank, aggregation-buffer MiB)` for a mode.
fn config(mode: &str) -> (usize, usize, u64, u64) {
    match mode {
        "ci" => (4, 24, 2, 4),
        "fig7" => (10, 120, 4, 16),
        other => {
            eprintln!("trace: unknown mode {other:?} (use [report|causal] ci|fig7)");
            exit(2);
        }
    }
}

fn platform_for(mode: &str) -> (Platform, Ior, u64) {
    let (n_nodes, n_ranks, per_rank_mib, buffer_mib) = config(mode);
    let platform = Platform::testbed(n_nodes, n_ranks, 8).with_memory(320 * MIB, 64 * MIB);
    let workload = Ior::interleaved_total(per_rank_mib * MIB, 16);
    (platform, workload, buffer_mib * MIB)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("report") => {
            let mode = args.get(1).cloned().unwrap_or_else(|| "fig7".to_string());
            let outdir = args.get(2).cloned().unwrap_or_else(|| ".".to_string());
            report_mode(&mode, &outdir);
        }
        Some("causal") => {
            let mode = args.get(1).cloned().unwrap_or_else(|| "fig7".to_string());
            let outdir = args.get(2).cloned().unwrap_or_else(|| ".".to_string());
            causal_mode(&mode, &outdir);
        }
        mode => {
            let mode = mode.unwrap_or("fig7").to_string();
            let outdir = args.get(1).cloned().unwrap_or_else(|| ".".to_string());
            emit(&mode, &outdir);
        }
    }
}

/// Runs both paper strategies with tracing enabled and writes the
/// artifacts into `outdir`, validating each before exit.
fn emit(mode: &str, outdir: &str) {
    let (platform, workload, buffer) = platform_for(mode);
    std::fs::create_dir_all(outdir).expect("create output directory");
    let mut failures = 0usize;
    for (name, strategy) in paper_pair(&platform, buffer) {
        let obs = ObsSink::enabled();
        let result = run_traced(&workload, &*strategy, &platform, &obs);
        // Exporters read the event list in place — no O(events) clone.
        let (n_events, chrome, jsonl) = obs.with_events(|events| {
            (
                events.len(),
                export::chrome_trace(events),
                export::jsonl(events),
            )
        });
        println!(
            "{name}: write {:.1} MB/s, read {:.1} MB/s, {n_events} events recorded",
            result.write_mbps(),
            result.read_mbps(),
        );

        let chrome_path = format!("{outdir}/trace_{name}.json");
        std::fs::write(&chrome_path, &chrome).expect("write chrome trace");
        match export::validate_chrome_trace(&chrome) {
            Ok(summary) => {
                println!(
                    "  {chrome_path}: {} events on {} tracks, ends at {:.1} virtual ms",
                    summary.events,
                    summary.tracks,
                    summary.end_ts / 1e3
                );
                // The operation must be covered end to end: plan →
                // prologue → rounds (shuffle/storage) → settle → op.
                for required in ["op", "schedule", "prologue", "round", "storage", "settle"] {
                    if !summary.has(required) {
                        eprintln!("  MISSING span {required:?} in {chrome_path}");
                        failures += 1;
                    }
                }
            }
            Err(e) => {
                eprintln!("  INVALID {chrome_path}: {e}");
                failures += 1;
            }
        }

        let jsonl_path = format!("{outdir}/events_{name}.jsonl");
        std::fs::write(&jsonl_path, &jsonl).expect("write jsonl");
        match export::validate_jsonl(&jsonl) {
            Ok(n) => println!("  {jsonl_path}: {n} lines"),
            Err(e) => {
                eprintln!("  INVALID {jsonl_path}: {e}");
                failures += 1;
            }
        }

        println!("metrics [{name}]:");
        print!("{}", obs.metrics().summary_table());
    }
    if failures > 0 {
        eprintln!("trace: {failures} artifact validation failure(s)");
        exit(1);
    }
}

/// Runs both paper strategies traced, analyzes each trace, and writes
/// one self-contained HTML report per strategy (the second carrying the
/// A/B diff against the first). Fails unless the analysis is exact: the
/// critical-path total must equal the op span's virtual duration to the
/// bit, the path's joints must be bit-equal, and the JSONL artifact must
/// replay into a bit-identical analysis.
fn report_mode(mode: &str, outdir: &str) {
    let (platform, workload, buffer) = platform_for(mode);
    std::fs::create_dir_all(outdir).expect("create output directory");
    let mut failures = 0usize;
    let mut first: Option<analyze::TraceAnalysis> = None;
    for (name, strategy) in paper_pair(&platform, buffer) {
        let obs = ObsSink::enabled();
        let result = run_traced(&workload, &*strategy, &platform, &obs);
        let analysis = analyze::TraceAnalysis::of_sink(&obs).unwrap_or_else(|e| {
            eprintln!("report[{name}]: analysis failed: {e}");
            exit(1);
        });

        // Acceptance invariant 1: the critical-path total is the op
        // span's priced duration, bit for bit, and the path tiles it
        // with bit-equal joints. Cross-check against the events
        // independently of how the analyzer stored it.
        let events = obs.trace_events();
        let op_durs: Vec<f64> = events
            .iter()
            .filter(|e| e.name == "op")
            .map(|e| e.end().as_secs() - e.kind.at().as_secs())
            .collect();
        let virt = [result.write_secs, result.read_secs];
        for (i, op) in analysis.ops.iter().enumerate() {
            if op.total.as_secs().to_bits() != virt[i.min(1)].to_bits() {
                eprintln!(
                    "report[{name}]: op {i} critical-path total {} != measured virtual {}",
                    op.total.as_secs(),
                    virt[i.min(1)]
                );
                failures += 1;
            }
            if op_durs
                .get(i)
                .is_none_or(|d| d.to_bits() != op.total.as_secs().to_bits())
            {
                eprintln!("report[{name}]: op {i} total does not match its span event");
                failures += 1;
            }
            if let Err(e) = op.verify_tiling() {
                eprintln!("report[{name}]: op {i} path does not tile its span: {e}");
                failures += 1;
            }
        }
        // Acceptance invariant 2: the JSONL artifact replays into a
        // bit-identical analysis: totals, attribution, and every
        // segment's bounds and phase.
        let replayed = analyze::TraceEvent::from_jsonl(&obs.with_events(export::jsonl))
            .and_then(|evs| analyze::TraceAnalysis::from_events(&evs))
            .unwrap_or_else(|e| {
                eprintln!("report[{name}]: JSONL replay failed: {e}");
                exit(1);
            });
        let bits = |t: VTime| t.as_secs().to_bits();
        let same_path = |r: &analyze::CriticalPath, l: &analyze::CriticalPath| {
            r.total.as_secs().to_bits() == l.total.as_secs().to_bits()
                && r.attribution.total().to_bits() == l.attribution.total().to_bits()
                && r.segments.len() == l.segments.len()
                && r.segments.iter().zip(&l.segments).all(|(a, b)| {
                    bits(a.from) == bits(b.from) && bits(a.to) == bits(b.to) && a.phase == b.phase
                })
        };
        if replayed.ops.len() != analysis.ops.len()
            || !replayed
                .ops
                .iter()
                .zip(&analysis.ops)
                .all(|(r, l)| same_path(r, l))
        {
            eprintln!("report[{name}]: JSONL replay is not bit-identical to the live analysis");
            failures += 1;
        }

        let diff = first.as_ref().map(|a| a.diff(&analysis));
        let title = format!("mccio trace report — {mode} / {name}");
        let html = report::render(&title, &events, &analysis, diff.as_ref());
        if !html.starts_with("<!DOCTYPE html>") || !html.ends_with("</html>\n") {
            eprintln!("report[{name}]: malformed HTML envelope");
            failures += 1;
        }
        let path = format!("{outdir}/report_{mode}_{name}.html");
        std::fs::write(&path, &html).expect("write report");
        for op in &analysis.ops {
            println!(
                "report[{name}]: {} op {:.6}s over {} rounds, dominant {}, top straggler {}",
                op.dir,
                op.total.as_secs(),
                op.rounds,
                op.attribution.dominant().name(),
                op.top_straggler()
                    .map_or("none".to_string(), |(r, n)| format!(
                        "rank {r} ({n} rounds)"
                    )),
            );
        }
        for tl in &analysis.memory {
            println!(
                "report[{name}]: node {} peak {} B of ceiling, balance {} B, overflow windows {}",
                tl.node,
                tl.peak,
                tl.final_occupancy,
                tl.overflow.len()
            );
        }
        println!("  wrote {path} ({} bytes)", html.len());
        first = Some(analysis);
    }
    if failures > 0 {
        eprintln!("report: {failures} invariant failure(s)");
        exit(1);
    }
}

/// Deterministic control-plane latency for the causal mode. The
/// engine's phases are root-priced — every rank charges the same
/// broadcast duration — so without real message latency all clocks move
/// in lock-step, every delivery is slack, and blame chains degenerate
/// to a single local-work segment. A few microseconds of control-plane
/// latency genuinely advances receiver clocks at barriers and gathers,
/// which is what makes cross-rank chains non-vacuous to check.
const CAUSAL_CTL_DELAY_MICROS: f64 = 5.0;

/// Seed for the causal mode's fault plan (the plan carries only the
/// deterministic control delay; no random faults fire).
const CAUSAL_SEED: u64 = 0xCA05;

fn causal_plan() -> FaultPlan {
    FaultPlan::new(CAUSAL_SEED).delay_control(VDuration::from_micros(CAUSAL_CTL_DELAY_MICROS))
}

/// Root-cause analysis over both paper strategies: runs each with
/// causal tracing armed under [`causal_plan`] on *both* rank executors,
/// requires the recorded blame chains to be bit-identical across them,
/// requires every chain to tile its op span to the bit and to actually
/// hop ranks, then writes one causal HTML report and one flow-annotated
/// Chrome trace per strategy and prints the blame chains and what-if
/// projections.
fn causal_mode(mode: &str, outdir: &str) {
    let (platform, workload, buffer) = platform_for(mode);
    std::fs::create_dir_all(outdir).expect("create output directory");
    let mut failures = 0usize;
    for (name, strategy) in paper_pair(&platform, buffer) {
        let run_causal = |executor: ExecutorKind| {
            let obs = ObsSink::enabled().with_causal();
            let result = run_on_traced_faulty(
                &workload,
                &*strategy,
                &platform,
                executor,
                &obs,
                causal_plan(),
            );
            (obs, result)
        };
        let (obs, result) = run_causal(ExecutorKind::Event);
        let (obs_thr, result_thr) = run_causal(ExecutorKind::Threads);

        // The analysis must be engine-independent: same virtual times,
        // same blame chains, bit for bit, on both executors.
        if result.write_secs.to_bits() != result_thr.write_secs.to_bits()
            || result.read_secs.to_bits() != result_thr.read_secs.to_bits()
        {
            eprintln!(
                "causal[{name}]: executors disagree on virtual time \
                 (write {} vs {}, read {} vs {})",
                result.write_secs, result_thr.write_secs, result.read_secs, result_thr.read_secs
            );
            failures += 1;
        }
        if obs.causal_chains() != obs_thr.causal_chains() {
            eprintln!("causal[{name}]: blame chains differ across executors");
            failures += 1;
        }

        // The online DP must have settled clean and stayed bounded.
        let agg = obs.causal().expect("causal tracing is armed");
        if agg.inflight_len() != 0 {
            eprintln!(
                "causal[{name}]: {} message(s) still in flight after the run",
                agg.inflight_len()
            );
            failures += 1;
        }
        if agg.nodes_created() == 0 {
            eprintln!("causal[{name}]: no deliveries bound — the control delay skewed nothing");
            failures += 1;
        }
        if agg.live_nodes() as u64 > agg.nodes_created() {
            eprintln!(
                "causal[{name}]: live frontier {} exceeds nodes created {}",
                agg.live_nodes(),
                agg.nodes_created()
            );
            failures += 1;
        }

        let analysis = analyze::TraceAnalysis::of_sink(&obs).unwrap_or_else(|e| {
            eprintln!("causal[{name}]: analysis failed: {e}");
            exit(1);
        });
        for (i, op) in analysis.ops.iter().enumerate() {
            let chain = &op.chain;
            if let Err(e) = chain.verify_tiling().and_then(|()| op.verify_tiling()) {
                eprintln!("causal[{name}]: op {i} path does not tile: {e}");
                failures += 1;
            }
            // The chain's [t0, end] window is the op span itself, so its
            // total must be the critical-path total to the bit.
            if op.total.as_secs().to_bits() != chain.total().as_secs().to_bits() {
                eprintln!(
                    "causal[{name}]: op {i} chain total {} is not the op span",
                    chain.total().as_secs()
                );
                failures += 1;
            }
            if chain.hops() == 0 {
                eprintln!("causal[{name}]: op {i} blame chain never leaves rank 0");
                failures += 1;
            }
            println!(
                "causal[{name}]: {} op {:.6}s, {} hop(s) across ranks {:?}, \
                 wait {:.6}s / work {:.6}s",
                chain.dir,
                chain.total().as_secs(),
                chain.hops(),
                chain.ranks(),
                chain.wait_secs(),
                chain.work_secs(),
            );
            for w in op.what_ifs() {
                println!(
                    "  what-if {:>14}: {:.6}s projected ({:.2}x)",
                    w.name, w.projected_secs, w.speedup
                );
            }
        }

        // Artifacts: the causal HTML report and the flow-annotated
        // Chrome trace, both validated before exit.
        let events = obs.trace_events();
        let title = format!("mccio causal report — {mode} / {name}");
        let html = report::render(&title, &events, &analysis, None);
        if !html.starts_with("<!DOCTYPE html>") || !html.ends_with("</html>\n") {
            eprintln!("causal[{name}]: malformed HTML envelope");
            failures += 1;
        }
        let html_path = format!("{outdir}/report_causal_{mode}_{name}.html");
        std::fs::write(&html_path, &html).expect("write causal report");
        println!("  wrote {html_path} ({} bytes)", html.len());

        let edges = obs.causal_edges();
        if edges.is_empty() {
            eprintln!("causal[{name}]: buffered sink retained no message edges");
            failures += 1;
        }
        let chrome = obs.with_events(|events| export::chrome_trace_flows(events, &edges));
        let chrome_path = format!("{outdir}/trace_causal_{name}.json");
        std::fs::write(&chrome_path, &chrome).expect("write causal chrome trace");
        match export::validate_chrome_trace(&chrome) {
            Ok(summary) => println!(
                "  {chrome_path}: {} events on {} tracks, {} flow edge(s)",
                summary.events,
                summary.tracks,
                edges.len()
            ),
            Err(e) => {
                eprintln!("  INVALID {chrome_path}: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("causal: {failures} invariant failure(s)");
        exit(1);
    }
    println!(
        "causal: ok (chains bit-identical across executors, tiled to the bit, artifacts valid)"
    );
}
