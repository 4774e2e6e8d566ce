//! Rank-scaling runs: the memory-conscious strategy at 1k, 10k and 100k
//! ranks on both rank executors, with the streaming-observability and
//! causal-tracing flagships on top. Each mode prints its points as JSON
//! on stdout; simulator wall time is measured by `perfbench/`, and the
//! walls printed here are for the log only.
//!
//! Each point runs the memory-conscious strategy on a fig7-shaped
//! platform (testbed nodes of 12 cores, 8 OSTs, Normal(320 MiB, 64 MiB)
//! per-node memory, IOR interleaved) with the per-rank volume scaled
//! down as ranks grow, so the axis measures executor overhead rather
//! than total data volume. The thread-per-rank oracle runs where one
//! OS thread per rank is still feasible; wherever both engines run a
//! point, their virtual times must agree bit for bit.
//!
//! ```text
//! cargo run --release -p mccio-bench --bin scale [full|ci|10k|100k|obs|causal] [--obs] [out.json]
//! ```
//!
//! * `full` (default) — 120 / 1008 / 10080 / 100800 ranks, both
//!   executors up to the thread ceiling;
//! * `ci` — the 1008-rank event-executor smoke, bounded for CI;
//! * `10k` — the 10080-rank event-executor point alone, then one pass
//!   with a streaming sink whose stream cell, fold and retain counts and
//!   virtual write/read times must equal pinned constants exactly;
//! * `100k` — the 100800-rank event-executor point alone (the
//!   allocation-free hot-path acceptance gate);
//! * `obs` — the streaming-observability flagship: the 10k and 100k
//!   fig7 shapes with a streaming `ObsSink` and the host-wall profiler
//!   on, asserting virtual-time bit-identity obs on/off, bounded obs
//!   allocations, host-wall overhead under threshold, and a stream cell
//!   count that does not grow with ranks; writes per-point HTML reports
//!   under `trace_obs/`;
//! * `causal` — the causal-tracing flagship: the 10k fig7 shape under
//!   a deterministic 5 µs control-plane latency (so clocks genuinely
//!   diverge and blame chains hop ranks) with a *streaming* sink and
//!   causal tracing armed, asserting virtual-time bit-identity causal
//!   on/off, the same fixed obs allocation budget, host-wall overhead
//!   under threshold, and non-degenerate cross-rank blame chains;
//!   writes an HTML report under `trace_obs/`.
//!
//! `--obs` attaches the same streaming-observability comparison to any
//! mode (CI runs `scale ci --obs` as its bounded-memory smoke). The JSON
//! always goes to stdout, and also to `out.json` when a path is given;
//! the `--obs` and `causal` runs also leave a copy under `trace_obs/`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use mccio_bench::{paper_pair, run_on, run_on_traced, run_on_traced_faulty, Platform};
use mccio_core::Strategy;
use mccio_net::ExecutorKind;
use mccio_obs::{analyze, report, ObsSink, StreamConfig};
use mccio_sim::fault::FaultPlan;
use mccio_sim::hostprof::{self, HostProfile};
use mccio_sim::time::VDuration;
use mccio_sim::units::{KIB, MIB};
use mccio_workloads::Ior;

/// Largest rank count the thread-per-rank oracle is asked to run: one
/// OS thread per rank stops being feasible long before 10k ranks (stack
/// reservation and scheduler pressure), which is the point of the event
/// executor.
const THREADS_MAX_RANKS: usize = 2048;

/// Counting wrapper around the system allocator: the per-point
/// allocation line in the log and the obs allocation budget read it.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static BIG_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    if size >= 128 * 1024 {
        BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    // Forward instead of inheriting the defaults: the default
    // `alloc_zeroed` is alloc + memset, which defeats lazily-zeroed
    // calloc mappings and would charge giant one-shot buffers (the
    // coroutine stack slab, the file image) with an eager fault storm
    // the real program never pays.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_snapshot() -> (u64, u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
        BIG_ALLOCS.load(Ordering::Relaxed),
    )
}

/// One point on the rank axis. Volume shrinks as ranks grow: group
/// analysis memory is O(ranks) per rank, and the axis measures executor
/// overhead, not aggregate bandwidth.
struct Point {
    ranks: usize,
    per_rank_kib: u64,
    segments: u64,
}

fn points(mode: &str) -> Vec<Point> {
    let p = |ranks, per_rank_kib, segments| Point {
        ranks,
        per_rank_kib,
        segments,
    };
    match mode {
        // The fig7 config, then three decades up it.
        "full" => vec![
            p(120, 4096, 16),
            p(1008, 512, 8),
            p(10_080, 64, 2),
            p(100_800, 16, 1),
        ],
        "ci" => vec![p(1008, 256, 4)],
        "fig7" => vec![p(120, 4096, 16)],
        "10k" => vec![p(10_080, 64, 2)],
        "100k" => vec![p(100_800, 16, 1)],
        // The streaming-observability flagship pair (ISSUE 9).
        "obs" => vec![p(10_080, 64, 2), p(100_800, 16, 1)],
        // The causal-tracing flagship (ISSUE 10): the 10k fig7 shape.
        "causal" => vec![p(10_080, 64, 2)],
        other => panic!("scale: unknown mode {other:?} (use full|ci|fig7|10k|100k|obs|causal)"),
    }
}

struct Row {
    ranks: usize,
    executor: ExecutorKind,
    per_rank_kib: u64,
    segments: u64,
    wall_secs: f64,
    write_secs: f64,
    read_secs: f64,
    write_mbps: f64,
    read_mbps: f64,
}

/// Fixed budget for observability allocations in an obs-on run: the
/// streaming sink, its aggregation cells, and the exemplar lanes must
/// fit in this regardless of rank count — the bound that makes
/// 100k-rank observability feasible. Measured as the allocated-bytes
/// delta between a warm obs-on run and a warm obs-off run.
const OBS_ALLOC_BUDGET_BYTES: u64 = 64 * 1024 * 1024;

/// Host-wall overhead threshold for streaming observability at the
/// 10k+ flagship shapes (the ISSUE 9 acceptance gate).
const OBS_MAX_OVERHEAD: f64 = 0.10;

/// Exemplar rank lanes the streaming sink keeps at full fidelity.
const OBS_EXEMPLARS: u32 = 8;

// `scale 10k`'s streaming pass: the exact stream counters and virtual
// times (as bits) of the 10,080-rank point under
// `StreamConfig::for_ranks(10_080, OBS_EXEMPLARS)`.
const STREAM_10K_CELLS: usize = 12;
const STREAM_10K_FOLDED: u64 = 65_134;
const STREAM_10K_RETAINED: u64 = 90;
const STREAM_10K_WRITE_BITS: u64 = 0x3fc5_1de1_cc7f_e788; // 0.164974427 s
const STREAM_10K_READ_BITS: u64 = 0x3fc0_e824_7b51_20cc; // 0.132084427 s

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let obs_flag = args.iter().any(|a| a == "--obs");
    let positional: Vec<&String> = args.iter().filter(|a| *a != "--obs").collect();
    let mode = positional
        .first()
        .map_or_else(|| "full".to_string(), |s| (*s).clone());
    let out_path = positional.get(1).map(|s| s.as_str());
    if mode == "causal" {
        run_causal(&mode, out_path);
        return;
    }
    if obs_flag || mode == "obs" {
        run_obs(&mode, out_path);
        return;
    }
    let event_only = mode != "full" && mode != "fig7";

    let mut rows: Vec<Row> = Vec::new();
    for point in points(&mode) {
        let Point {
            ranks,
            per_rank_kib,
            segments,
        } = point;
        let platform = Platform::testbed(ranks / 12, ranks, 8).with_memory(320 * MIB, 64 * MIB);
        let workload = Ior::interleaved_total(per_rank_kib * KIB, segments);
        // The figure pair's memory-conscious half — the paper's subject.
        let [_, (name, strategy)] = paper_pair(&platform, 4 * MIB);
        let mut executors = vec![ExecutorKind::Event];
        if !event_only && ranks <= THREADS_MAX_RANKS {
            executors.push(ExecutorKind::Threads);
        }
        for executor in executors {
            eprintln!(
                "scale[{mode}]: {ranks} ranks x {per_rank_kib} KiB, {name}, {executor:?} ..."
            );
            let a0 = alloc_snapshot();
            let t0 = Instant::now();
            let r = run_on(&workload, &*strategy, &platform, executor);
            let wall = t0.elapsed().as_secs_f64();
            let a1 = alloc_snapshot();
            eprintln!(
                "  allocs {} ({} MiB, {} >=128KiB)",
                a1.0 - a0.0,
                (a1.1 - a0.1) / (1024 * 1024),
                a1.2 - a0.2
            );
            eprintln!(
                "  {wall:.3}s wall, virtual write {:.6}s, rounds {}, shuffle {} MiB, msgs {}",
                r.write_secs,
                r.metrics.rounds,
                r.metrics.shuffle_bytes / (1024 * 1024),
                r.traffic.data_msgs + r.traffic.ctl_msgs
            );
            eprintln!(
                "  assembly pool hits {} misses {}, recycler takes {} returns {}, peak held {} KiB",
                r.metrics.pool_hits,
                r.metrics.pool_misses,
                r.metrics.recycle_takes,
                r.metrics.recycle_returns,
                r.metrics.payload_peak_bytes / 1024
            );
            rows.push(Row {
                ranks,
                executor,
                per_rank_kib,
                segments,
                wall_secs: wall,
                write_secs: r.write_secs,
                read_secs: r.read_secs,
                write_mbps: r.write_mbps(),
                read_mbps: r.read_mbps(),
            });
        }
        if mode == "10k" {
            check_stream_pass(&workload, &*strategy, &platform, ranks);
        }
    }

    // Wherever both engines ran a point, their virtual times must agree
    // bit for bit — the scale bench doubles as a large-rank differential
    // check the unit suites can't afford.
    for ranks in rows.iter().map(|r| r.ranks).collect::<Vec<_>>() {
        let of = |kind: ExecutorKind| rows.iter().find(|r| r.ranks == ranks && r.executor == kind);
        if let (Some(e), Some(t)) = (of(ExecutorKind::Event), of(ExecutorKind::Threads)) {
            assert_eq!(
                e.write_secs.to_bits(),
                t.write_secs.to_bits(),
                "{ranks} ranks: executors disagree on virtual write time"
            );
            assert_eq!(
                e.read_secs.to_bits(),
                t.read_secs.to_bits(),
                "{ranks} ranks: executors disagree on virtual read time"
            );
        }
    }

    emit_json(&render_json(&mode, &rows), out_path);
}

/// Prints `json` on stdout and, when a path is given, writes it there.
fn emit_json(json: &str, out_path: Option<&str>) {
    if let Some(path) = out_path {
        std::fs::write(path, json).expect("write bench json");
        eprintln!("scale: wrote {path}");
    }
    println!("{json}");
}

/// Runs one pass with a streaming sink and requires its stream cell,
/// fold and retain counts and its virtual write/read times to equal the
/// `STREAM_10K_*` constants exactly.
fn check_stream_pass(workload: &Ior, strategy: &dyn Strategy, platform: &Platform, ranks: usize) {
    eprintln!("scale[10k]: streaming pass ...");
    let sink = ObsSink::streaming(StreamConfig::for_ranks(ranks, OBS_EXEMPLARS));
    let r = run_on_traced(workload, strategy, platform, ExecutorKind::Event, &sink);
    let agg = sink
        .stream_stats()
        .expect("streaming sink has an aggregate");
    eprintln!(
        "  stream: {} folded into {} cells, {} retained; virtual write {:.9}s ({:#018x}), \
         read {:.9}s ({:#018x})",
        agg.folded_events,
        agg.cell_count(),
        agg.retained_events,
        r.write_secs,
        r.write_secs.to_bits(),
        r.read_secs,
        r.read_secs.to_bits()
    );
    assert_eq!(agg.cell_count(), STREAM_10K_CELLS, "stream cells");
    assert_eq!(agg.folded_events, STREAM_10K_FOLDED, "events folded");
    assert_eq!(agg.retained_events, STREAM_10K_RETAINED, "events retained");
    assert_eq!(
        r.write_secs.to_bits(),
        STREAM_10K_WRITE_BITS,
        "virtual write {}",
        r.write_secs
    );
    assert_eq!(
        r.read_secs.to_bits(),
        STREAM_10K_READ_BITS,
        "virtual read {}",
        r.read_secs
    );
}

/// One obs-comparison point: the same shape run obs-off then obs-on
/// (streaming sink + host profiler), both warm.
struct ObsRow {
    ranks: usize,
    per_rank_kib: u64,
    segments: u64,
    wall_off: f64,
    wall_obs: f64,
    write_secs: f64,
    read_secs: f64,
    obs_allocs: u64,
    obs_bytes: u64,
    retained: u64,
    folded: u64,
    cells: usize,
    profile: HostProfile,
}

impl ObsRow {
    fn overhead(&self) -> f64 {
        if self.wall_off > 0.0 {
            (self.wall_obs - self.wall_off) / self.wall_off
        } else {
            0.0
        }
    }
}

/// The streaming-observability comparison (`scale obs` / `--obs`): per
/// point, one warmup run, one measured obs-off run, one measured obs-on
/// run with a streaming sink and the host profiler. Asserts virtual
/// bit-identity, the fixed obs allocation budget, and (at 10k+ ranks)
/// the host-wall overhead threshold; writes one HTML report per point
/// under `trace_obs/` and the JSON to `trace_obs/scale_obs.json`.
fn run_obs(mode: &str, out_path: Option<&str>) {
    std::fs::create_dir_all("trace_obs").expect("create trace_obs");
    let mut rows: Vec<ObsRow> = Vec::new();
    for point in points(mode) {
        let Point {
            ranks,
            per_rank_kib,
            segments,
        } = point;
        let platform = Platform::testbed(ranks / 12, ranks, 8).with_memory(320 * MIB, 64 * MIB);
        let workload = Ior::interleaved_total(per_rank_kib * KIB, segments);
        let [_, (name, strategy)] = paper_pair(&platform, 4 * MIB);
        eprintln!("scale[{mode} --obs]: {ranks} ranks x {per_rank_kib} KiB, {name}, Event ...");

        // Warmup: commit the coroutine stack slab and allocator pools so
        // neither measured run pays first-touch faults the other skips.
        let _ = run_on(&workload, &*strategy, &platform, ExecutorKind::Event);

        let a0 = alloc_snapshot();
        let t0 = Instant::now();
        let off = run_on(&workload, &*strategy, &platform, ExecutorKind::Event);
        let wall_off = t0.elapsed().as_secs_f64();
        let a1 = alloc_snapshot();

        hostprof::reset();
        hostprof::set_enabled(true);
        let sink = ObsSink::streaming(StreamConfig::for_ranks(ranks, OBS_EXEMPLARS));
        let a2 = alloc_snapshot();
        let t1 = Instant::now();
        let on = run_on_traced(&workload, &*strategy, &platform, ExecutorKind::Event, &sink);
        let wall_obs = t1.elapsed().as_secs_f64();
        let a3 = alloc_snapshot();
        hostprof::set_enabled(false);
        let mut profile = hostprof::snapshot();
        profile.wall_secs = wall_obs;
        profile.virtual_secs = on.write_secs + on.read_secs;

        // Acceptance: observability must not move virtual time by a bit.
        assert_eq!(
            off.write_secs.to_bits(),
            on.write_secs.to_bits(),
            "{ranks} ranks: streaming obs moved virtual write time"
        );
        assert_eq!(
            off.read_secs.to_bits(),
            on.read_secs.to_bits(),
            "{ranks} ranks: streaming obs moved virtual read time"
        );

        // Acceptance: obs allocations fit the fixed, rank-independent
        // budget (delta of the two warm runs' allocation deltas).
        let obs_allocs = (a3.0 - a2.0).saturating_sub(a1.0 - a0.0);
        let obs_bytes = (a3.1 - a2.1).saturating_sub(a1.1 - a0.1);
        assert!(
            obs_bytes <= OBS_ALLOC_BUDGET_BYTES,
            "{ranks} ranks: obs allocations {obs_bytes} B exceed the fixed \
             {OBS_ALLOC_BUDGET_BYTES} B budget"
        );

        let overhead = (wall_obs - wall_off) / wall_off;
        if ranks >= 10_000 {
            assert!(
                overhead < OBS_MAX_OVERHEAD,
                "{ranks} ranks: streaming obs host-wall overhead {:.1}% exceeds {:.0}%",
                overhead * 100.0,
                OBS_MAX_OVERHEAD * 100.0
            );
        }

        let agg = sink
            .stream_stats()
            .expect("streaming sink has an aggregate");
        assert!(agg.folded_events > 0, "streaming sink folded nothing");
        eprintln!(
            "  off {wall_off:.3}s, obs {wall_obs:.3}s ({:+.1}%), \
             obs allocs {obs_allocs} ({} KiB)",
            overhead * 100.0,
            obs_bytes / 1024
        );
        eprintln!(
            "  stream: {} folded into {} cells, {} retained; virtual write {:.6}s",
            agg.folded_events,
            agg.cell_count(),
            agg.retained_events,
            on.write_secs
        );
        for p in &profile.phases {
            if p.calls > 0 {
                eprintln!(
                    "  host {}: {} calls, {:.3} ms",
                    p.name,
                    p.calls,
                    p.secs() * 1e3
                );
            }
        }

        // The streamed trace still analyzes and reports: engine spans
        // are exact, exemplar lanes render, the streaming and host
        // sections carry the folded bulk.
        let analysis = analyze::TraceAnalysis::of_sink(&sink)
            .expect("streamed trace analyzes")
            .with_host_profile(profile.clone());
        let events = sink.trace_events();
        let title = format!("mccio scale --obs — {ranks} ranks / {name}");
        let html = report::render(&title, &events, &analysis, None);
        let path = format!("trace_obs/scale_obs_{ranks}.html");
        std::fs::write(&path, &html).expect("write obs report");
        eprintln!("  wrote {path} ({} bytes)", html.len());

        rows.push(ObsRow {
            ranks,
            per_rank_kib,
            segments,
            wall_off,
            wall_obs,
            write_secs: on.write_secs,
            read_secs: on.read_secs,
            obs_allocs,
            obs_bytes,
            retained: agg.retained_events,
            folded: agg.folded_events,
            cells: agg.cell_count(),
            profile,
        });
    }

    // Bounded independent of rank count: the budget is fixed, so every
    // point passing it is the rank-independence assert; additionally the
    // aggregate cell count must not scale with ranks across points.
    if let (Some(small), Some(big)) = (rows.first(), rows.last()) {
        if big.ranks > small.ranks {
            let rank_factor = big.ranks as f64 / small.ranks as f64;
            assert!(
                (big.cells as f64) < (small.cells as f64) * rank_factor / 2.0,
                "stream cells scale with ranks: {} cells at {} ranks vs {} at {}",
                big.cells,
                big.ranks,
                small.cells,
                small.ranks
            );
        }
    }

    let json = render_obs_json(mode, &rows);
    std::fs::write("trace_obs/scale_obs.json", &json).expect("write obs json artifact");
    emit_json(&json, out_path);
}

/// Deterministic control-plane latency for the causal flagship. The
/// engine's phases are root-priced, so without real message latency all
/// clocks move in lock-step and blame chains never hop ranks; a few
/// microseconds of ctl latency genuinely advances receiver clocks.
const CAUSAL_CTL_DELAY_MICROS: f64 = 5.0;

/// Seed for the causal plan (it carries only the deterministic ctl
/// delay; no random faults fire).
const CAUSAL_SEED: u64 = 0xCA05;

fn causal_plan() -> FaultPlan {
    FaultPlan::new(CAUSAL_SEED).delay_control(VDuration::from_micros(CAUSAL_CTL_DELAY_MICROS))
}

/// One causal-comparison point: the same shape and fault plan run with
/// causal tracing off (streaming obs absent entirely) then on.
struct CausalRow {
    ranks: usize,
    per_rank_kib: u64,
    segments: u64,
    wall_off: f64,
    wall_obs: f64,
    write_secs: f64,
    read_secs: f64,
    obs_allocs: u64,
    obs_bytes: u64,
    retained: u64,
    folded: u64,
    cells: usize,
    chains: usize,
    hops: usize,
    wait_secs: f64,
    work_secs: f64,
    nodes_created: u64,
    live_nodes: usize,
    slack_deliveries: u64,
    profile: HostProfile,
}

impl CausalRow {
    fn overhead(&self) -> f64 {
        if self.wall_off > 0.0 {
            (self.wall_obs - self.wall_off) / self.wall_off
        } else {
            0.0
        }
    }
}

/// The causal-tracing flagship (`scale causal`): per point, one warmup
/// run, one measured obs-off run, one measured run with a streaming
/// sink, causal tracing, and the host profiler on — all under the same
/// deterministic control-delay plan, so the comparison is apples to
/// apples. Asserts virtual bit-identity, the fixed obs allocation
/// budget, the host-wall overhead threshold, and non-degenerate blame
/// chains (cross-rank hops, exact tiling, clean in-flight table);
/// writes the JSON and an HTML report under `trace_obs/`.
fn run_causal(mode: &str, out_path: Option<&str>) {
    std::fs::create_dir_all("trace_obs").expect("create trace_obs");
    let mut rows: Vec<CausalRow> = Vec::new();
    for point in points(mode) {
        let Point {
            ranks,
            per_rank_kib,
            segments,
        } = point;
        let platform = Platform::testbed(ranks / 12, ranks, 8).with_memory(320 * MIB, 64 * MIB);
        let workload = Ior::interleaved_total(per_rank_kib * KIB, segments);
        let [_, (name, strategy)] = paper_pair(&platform, 4 * MIB);
        eprintln!("scale[causal]: {ranks} ranks x {per_rank_kib} KiB, {name}, Event ...");

        // Warmup: commit the coroutine stack slab and allocator pools so
        // neither measured run pays first-touch faults the other skips.
        let _ = run_on_traced_faulty(
            &workload,
            &*strategy,
            &platform,
            ExecutorKind::Event,
            &ObsSink::disabled(),
            causal_plan(),
        );

        let a0 = alloc_snapshot();
        let t0 = Instant::now();
        let off = run_on_traced_faulty(
            &workload,
            &*strategy,
            &platform,
            ExecutorKind::Event,
            &ObsSink::disabled(),
            causal_plan(),
        );
        let wall_off = t0.elapsed().as_secs_f64();
        let a1 = alloc_snapshot();

        hostprof::reset();
        hostprof::set_enabled(true);
        let sink = ObsSink::streaming(StreamConfig::for_ranks(ranks, OBS_EXEMPLARS)).with_causal();
        let a2 = alloc_snapshot();
        let t1 = Instant::now();
        let on = run_on_traced_faulty(
            &workload,
            &*strategy,
            &platform,
            ExecutorKind::Event,
            &sink,
            causal_plan(),
        );
        let wall_obs = t1.elapsed().as_secs_f64();
        let a3 = alloc_snapshot();
        hostprof::set_enabled(false);
        let mut profile = hostprof::snapshot();
        profile.wall_secs = wall_obs;
        profile.virtual_secs = on.write_secs + on.read_secs;

        // Acceptance: causal tracing must not move virtual time by a bit.
        assert_eq!(
            off.write_secs.to_bits(),
            on.write_secs.to_bits(),
            "{ranks} ranks: causal tracing moved virtual write time"
        );
        assert_eq!(
            off.read_secs.to_bits(),
            on.read_secs.to_bits(),
            "{ranks} ranks: causal tracing moved virtual read time"
        );

        // Acceptance: the streaming sink *plus the causal fold* still
        // fits the fixed, rank-independent obs allocation budget.
        let obs_allocs = (a3.0 - a2.0).saturating_sub(a1.0 - a0.0);
        let obs_bytes = (a3.1 - a2.1).saturating_sub(a1.1 - a0.1);
        assert!(
            obs_bytes <= OBS_ALLOC_BUDGET_BYTES,
            "{ranks} ranks: causal obs allocations {obs_bytes} B exceed the fixed \
             {OBS_ALLOC_BUDGET_BYTES} B budget"
        );

        let overhead = (wall_obs - wall_off) / wall_off;
        if ranks >= 10_000 {
            assert!(
                overhead < OBS_MAX_OVERHEAD,
                "{ranks} ranks: causal obs host-wall overhead {:.1}% exceeds {:.0}%",
                overhead * 100.0,
                OBS_MAX_OVERHEAD * 100.0
            );
        }

        // Acceptance: the online DP settled clean, stayed bounded, and
        // recorded non-degenerate cross-rank chains that tile exactly.
        let agg = sink.causal().expect("causal tracing is armed");
        assert_eq!(
            agg.inflight_len(),
            0,
            "{ranks} ranks: messages still in flight after the run"
        );
        assert!(
            agg.nodes_created() > 0,
            "{ranks} ranks: no deliveries bound — the control delay skewed nothing"
        );
        assert!(
            agg.live_nodes() as u64 <= agg.nodes_created(),
            "{ranks} ranks: live frontier exceeds nodes created"
        );
        let chains = sink.causal_chains();
        assert!(
            !chains.is_empty(),
            "{ranks} ranks: no blame chains recorded"
        );
        for (i, chain) in chains.iter().enumerate() {
            chain
                .verify_tiling()
                .unwrap_or_else(|e| panic!("{ranks} ranks: chain {i} does not tile: {e}"));
            assert!(
                chain.hops() > 0,
                "{ranks} ranks: chain {i} never leaves rank 0"
            );
        }
        let hops: usize = chains.iter().map(mccio_obs::BlameChain::hops).sum();
        let wait_secs: f64 = chains.iter().map(mccio_obs::BlameChain::wait_secs).sum();
        let work_secs: f64 = chains.iter().map(mccio_obs::BlameChain::work_secs).sum();

        let stream = sink
            .stream_stats()
            .expect("streaming sink has an aggregate");
        eprintln!(
            "  off {wall_off:.3}s, causal {wall_obs:.3}s ({:+.1}%), \
             obs allocs {obs_allocs} ({} KiB)",
            overhead * 100.0,
            obs_bytes / 1024
        );
        eprintln!(
            "  causal: {} chain(s), {hops} hop(s), wait {wait_secs:.6}s / work {work_secs:.6}s, \
             {} node(s) created ({} live), {} slack deliveries",
            chains.len(),
            agg.nodes_created(),
            agg.live_nodes(),
            agg.slack_deliveries()
        );
        for p in &profile.phases {
            if p.calls > 0 {
                eprintln!(
                    "  host {}: {} calls, {:.3} ms",
                    p.name,
                    p.calls,
                    p.secs() * 1e3
                );
            }
        }

        // The streamed causal trace still analyzes and reports: every
        // op's critical path is cut from its recorded chain, so the
        // report carries the blame chains and what-if projections.
        let analysis = analyze::TraceAnalysis::of_sink(&sink)
            .expect("streamed causal trace analyzes")
            .with_host_profile(profile.clone());
        assert!(
            analysis.ops.iter().map(|op| &op.chain).eq(&chains),
            "{ranks} ranks: critical paths are not cut from the recorded chains"
        );
        let events = sink.trace_events();
        let title = format!("mccio scale causal — {ranks} ranks / {name}");
        let html = report::render(&title, &events, &analysis, None);
        let path = format!("trace_obs/scale_causal_{ranks}.html");
        std::fs::write(&path, &html).expect("write causal report");
        eprintln!("  wrote {path} ({} bytes)", html.len());

        rows.push(CausalRow {
            ranks,
            per_rank_kib,
            segments,
            wall_off,
            wall_obs,
            write_secs: on.write_secs,
            read_secs: on.read_secs,
            obs_allocs,
            obs_bytes,
            retained: stream.retained_events,
            folded: stream.folded_events,
            cells: stream.cell_count(),
            chains: chains.len(),
            hops,
            wait_secs,
            work_secs,
            nodes_created: agg.nodes_created(),
            live_nodes: agg.live_nodes(),
            slack_deliveries: agg.slack_deliveries(),
            profile,
        });
    }

    let json = render_causal_json(mode, &rows);
    std::fs::write("trace_obs/scale_causal.json", &json).expect("write causal json artifact");
    emit_json(&json, out_path);
}

/// Hand-rolled JSON for the causal comparison rows.
fn render_causal_json(mode: &str, rows: &[CausalRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"scale-causal\",");
    let _ = writeln!(out, "  \"mode\": \"{mode}\",");
    let _ = writeln!(out, "  \"workload\": \"ior-interleaved\",");
    let _ = writeln!(out, "  \"strategy\": \"memory-conscious\",");
    let _ = writeln!(out, "  \"executor\": \"event\",");
    let _ = writeln!(out, "  \"ctl_delay_micros\": {CAUSAL_CTL_DELAY_MICROS},");
    let _ = writeln!(
        out,
        "  \"obs_alloc_budget_bytes\": {OBS_ALLOC_BUDGET_BYTES},"
    );
    let _ = writeln!(out, "  \"obs_max_overhead\": {OBS_MAX_OVERHEAD},");
    let _ = writeln!(out, "  \"exemplar_lanes\": {OBS_EXEMPLARS},");
    let _ = writeln!(out, "  \"points\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let mut host = String::new();
        for (j, p) in r.profile.phases.iter().filter(|p| p.calls > 0).enumerate() {
            if j > 0 {
                host.push_str(", ");
            }
            let _ = write!(
                host,
                "{{\"phase\": \"{}\", \"calls\": {}, \"host_ms\": {:.3}}}",
                p.name,
                p.calls,
                p.secs() * 1e3
            );
        }
        let _ = writeln!(
            out,
            "    {{\"ranks\": {}, \"per_rank_kib\": {}, \"segments\": {}, \
             \"wall_secs_off\": {:.3}, \"wall_secs_obs\": {:.3}, \
             \"overhead_pct\": {:.2}, \
             \"obs_allocs\": {}, \"obs_alloc_bytes\": {}, \
             \"events_folded\": {}, \"events_retained\": {}, \"stream_cells\": {}, \
             \"virtual_write_secs\": {:.9}, \"virtual_read_secs\": {:.9}, \
             \"chains\": {}, \"chain_hops\": {}, \
             \"chain_wait_secs\": {:.9}, \"chain_work_secs\": {:.9}, \
             \"nodes_created\": {}, \"live_nodes\": {}, \"slack_deliveries\": {}, \
             \"host_profile\": [{host}]}}{comma}",
            r.ranks,
            r.per_rank_kib,
            r.segments,
            r.wall_off,
            r.wall_obs,
            r.overhead() * 100.0,
            r.obs_allocs,
            r.obs_bytes,
            r.folded,
            r.retained,
            r.cells,
            r.write_secs,
            r.read_secs,
            r.chains,
            r.hops,
            r.wait_secs,
            r.work_secs,
            r.nodes_created,
            r.live_nodes,
            r.slack_deliveries,
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = write!(out, "}}");
    out
}

/// Hand-rolled JSON for the obs comparison rows.
fn render_obs_json(mode: &str, rows: &[ObsRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"scale-obs\",");
    let _ = writeln!(out, "  \"mode\": \"{mode}\",");
    let _ = writeln!(out, "  \"workload\": \"ior-interleaved\",");
    let _ = writeln!(out, "  \"strategy\": \"memory-conscious\",");
    let _ = writeln!(out, "  \"executor\": \"event\",");
    let _ = writeln!(
        out,
        "  \"obs_alloc_budget_bytes\": {OBS_ALLOC_BUDGET_BYTES},"
    );
    let _ = writeln!(out, "  \"obs_max_overhead\": {OBS_MAX_OVERHEAD},");
    let _ = writeln!(out, "  \"exemplar_lanes\": {OBS_EXEMPLARS},");
    let _ = writeln!(out, "  \"points\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let mut host = String::new();
        for (j, p) in r.profile.phases.iter().filter(|p| p.calls > 0).enumerate() {
            if j > 0 {
                host.push_str(", ");
            }
            let _ = write!(
                host,
                "{{\"phase\": \"{}\", \"calls\": {}, \"host_ms\": {:.3}}}",
                p.name,
                p.calls,
                p.secs() * 1e3
            );
        }
        let _ = writeln!(
            out,
            "    {{\"ranks\": {}, \"per_rank_kib\": {}, \"segments\": {}, \
             \"wall_secs_off\": {:.3}, \"wall_secs_obs\": {:.3}, \
             \"overhead_pct\": {:.2}, \
             \"obs_allocs\": {}, \"obs_alloc_bytes\": {}, \
             \"events_folded\": {}, \"events_retained\": {}, \"stream_cells\": {}, \
             \"virtual_write_secs\": {:.9}, \"virtual_read_secs\": {:.9}, \
             \"host_profile\": [{host}]}}{comma}",
            r.ranks,
            r.per_rank_kib,
            r.segments,
            r.wall_off,
            r.wall_obs,
            r.overhead() * 100.0,
            r.obs_allocs,
            r.obs_bytes,
            r.folded,
            r.retained,
            r.cells,
            r.write_secs,
            r.read_secs,
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = write!(out, "}}");
    out
}

/// Hand-rolled JSON (the workspace is dependency-free by design).
fn render_json(mode: &str, rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"scale\",");
    let _ = writeln!(out, "  \"mode\": \"{mode}\",");
    let _ = writeln!(out, "  \"workload\": \"ior-interleaved\",");
    let _ = writeln!(out, "  \"strategy\": \"memory-conscious\",");
    let _ = writeln!(out, "  \"points\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let executor = match r.executor {
            ExecutorKind::Event => "event",
            ExecutorKind::Threads => "threads",
        };
        let _ = writeln!(
            out,
            "    {{\"ranks\": {}, \"executor\": \"{executor}\", \
             \"per_rank_kib\": {}, \"segments\": {}, \
             \"wall_secs\": {:.3}, \
             \"virtual_write_secs\": {:.9}, \"virtual_read_secs\": {:.9}, \
             \"virtual_write_mbps\": {:.1}, \"virtual_read_mbps\": {:.1}}}{comma}",
            r.ranks,
            r.per_rank_kib,
            r.segments,
            r.wall_secs,
            r.write_secs,
            r.read_secs,
            r.write_mbps,
            r.read_mbps,
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = write!(out, "}}");
    out
}
