//! `mccio` — command-line driver: run any workload under any strategy
//! on a configurable simulated platform and print the virtual-time
//! bandwidths plus the per-phase breakdown.
//!
//! ```text
//! cargo run --release -p mccio-bench --bin mccio -- \
//!     --nodes 10 --ranks 120 --servers 8 \
//!     --workload ior:block=2m,segments=16,mode=interleaved \
//!     --hints "mccio=enable,cb_buffer_size=16m" \
//!     --mem 96m:50m
//! ```
//!
//! Workload specs:
//!
//! ```text
//! ior:block=<size>,segments=<n>[,mode=interleaved|segmented|random]
//! coll_perf:dim=<elems>[,elem=<bytes>]
//! fs_test:record=<size>,objects=<n>[,touch=<size>]
//! synthetic:slice=<size>,extents=<n>,min=<size>,max=<size>[,seed=<n>]
//! ```

use std::collections::BTreeMap;
use std::process::exit;

use mccio_bench::{run_traced, Platform};
use mccio_core::Hints;
use mccio_obs::analyze::{Phase, TraceAnalysis};
use mccio_obs::ObsSink;
use mccio_sim::units::{fmt_bandwidth, fmt_bytes};
use mccio_workloads::{CollPerf, FsTest, Ior, IorMode, Synthetic, Workload};

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run with --help for usage");
    exit(2);
}

fn parse_size(v: &str) -> u64 {
    let v = v.trim().to_ascii_lowercase();
    let (digits, mult) = match v.strip_suffix(['k', 'm', 'g']) {
        Some(rest) => (
            rest,
            match v.as_bytes()[v.len() - 1] {
                b'k' => 1u64 << 10,
                b'm' => 1 << 20,
                _ => 1 << 30,
            },
        ),
        None => (v.as_str(), 1),
    };
    digits
        .trim()
        .parse::<u64>()
        .unwrap_or_else(|_| fail(&format!("bad size {v:?}")))
        .checked_mul(mult)
        .unwrap_or_else(|| fail(&format!("size {v:?} overflows")))
}

fn parse_kv(spec: &str) -> BTreeMap<String, String> {
    spec.split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|item| {
            let (k, v) = item
                .split_once('=')
                .unwrap_or_else(|| fail(&format!("expected key=value, got {item:?}")));
            (k.trim().to_string(), v.trim().to_string())
        })
        .collect()
}

fn build_workload(spec: &str, ranks: usize) -> Box<dyn Workload> {
    let (kind, rest) = spec.split_once(':').unwrap_or((spec, ""));
    let kv = parse_kv(rest);
    let get = |k: &str| kv.get(k).map(String::as_str);
    match kind {
        "ior" => {
            let block = parse_size(get("block").unwrap_or("1m"));
            let segments: u64 = get("segments")
                .unwrap_or("8")
                .parse()
                .unwrap_or_else(|_| fail("bad segments"));
            let mode = match get("mode").unwrap_or("interleaved") {
                "interleaved" => IorMode::Interleaved,
                "segmented" => IorMode::Segmented,
                "random" => IorMode::Random(
                    get("seed")
                        .unwrap_or("42")
                        .parse()
                        .unwrap_or_else(|_| fail("bad seed")),
                ),
                other => fail(&format!("unknown IOR mode {other:?}")),
            };
            Box::new(Ior::new(block, segments, mode))
        }
        "coll_perf" => {
            let dim = parse_size(get("dim").unwrap_or("120"));
            let elem = parse_size(get("elem").unwrap_or("4"));
            Box::new(CollPerf::cube(dim, ranks, elem))
        }
        "fs_test" => {
            let record = parse_size(get("record").unwrap_or("64k"));
            let objects: u64 = get("objects")
                .unwrap_or("8")
                .parse()
                .unwrap_or_else(|_| fail("bad objects"));
            let touch = get("touch").map_or(record, parse_size);
            Box::new(FsTest::new(record, objects, touch))
        }
        "synthetic" => {
            let slice = parse_size(get("slice").unwrap_or("1m"));
            let extents: usize = get("extents")
                .unwrap_or("16")
                .parse()
                .unwrap_or_else(|_| fail("bad extents"));
            let min = parse_size(get("min").unwrap_or("1k"));
            let max = parse_size(get("max").unwrap_or("16k"));
            let seed: u64 = get("seed")
                .unwrap_or("1")
                .parse()
                .unwrap_or_else(|_| fail("bad seed"));
            Box::new(Synthetic::new(slice, extents, min, max, seed))
        }
        other => fail(&format!("unknown workload {other:?}")),
    }
}

const HELP: &str = "\
mccio — run a simulated collective-I/O experiment

options (all have defaults):
  --nodes N            cluster nodes                     [4]
  --ranks N            MPI ranks                         [48]
  --servers N          storage servers (OSTs)            [8]
  --stripe SIZE        stripe unit                       [1m]
  --workload SPEC      see below                         [ior:block=1m,segments=8]
  --hints \"K=V,...\"    ROMIO-style hints                 [\"\"]
  --mem MEAN:STD       per-node available memory         [none = pristine]
  --seed N             memory-sampling seed              [0xC0FFEE]
  --trace-out PATH     write trace artifacts: PATH.json (Chrome),
                       PATH.jsonl (event stream), PATH.html (report)
  --help

workload specs:
  ior:block=<size>,segments=<n>[,mode=interleaved|segmented|random]
  coll_perf:dim=<elems>[,elem=<bytes>]
  fs_test:record=<size>,objects=<n>[,touch=<size>]
  synthetic:slice=<size>,extents=<n>,min=<size>,max=<size>[,seed=<n>]

hints: romio_cb_write, cb_buffer_size, romio_ds_write, ind_rd_buffer_size,
       mccio, mccio_n_ah, mccio_msg_ind, mccio_msg_group, mccio_seed
";

fn main() {
    let mut args = std::env::args().skip(1);
    let mut nodes = 4usize;
    let mut ranks = 48usize;
    let mut servers = 8usize;
    let mut stripe = 1u64 << 20;
    let mut workload_spec = "ior:block=1m,segments=8".to_string();
    let mut hints_spec = String::new();
    let mut mem: Option<(u64, u64)> = None;
    let mut seed = 0xC0FFEEu64;
    let mut trace_out: Option<String> = None;
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--nodes" => {
                nodes = value("--nodes")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --nodes"))
            }
            "--ranks" => {
                ranks = value("--ranks")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --ranks"))
            }
            "--servers" => {
                servers = value("--servers")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --servers"));
            }
            "--stripe" => stripe = parse_size(&value("--stripe")),
            "--workload" => workload_spec = value("--workload"),
            "--hints" => hints_spec = value("--hints"),
            "--mem" => {
                let v = value("--mem");
                let (mean, std) = v
                    .split_once(':')
                    .unwrap_or_else(|| fail("--mem wants MEAN:STD"));
                mem = Some((parse_size(mean), parse_size(std)));
            }
            "--seed" => {
                seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --seed"))
            }
            "--trace-out" => trace_out = Some(value("--trace-out")),
            "--help" | "-h" => {
                print!("{HELP}");
                return;
            }
            other => fail(&format!("unknown option {other:?}")),
        }
    }

    let mut platform = Platform::testbed(nodes, ranks, servers);
    platform.stripe = stripe;
    platform.seed = seed;
    if let Some((mean, std)) = mem {
        platform = platform.with_memory(mean, std);
    }
    let workload = build_workload(&workload_spec, ranks);
    let strategy = Hints::parse(&hints_spec)
        .unwrap_or_else(|e| fail(&e.to_string()))
        .resolve(&platform.cluster, &platform.pfs, servers, stripe)
        .unwrap_or_else(|e| fail(&e.to_string()));

    println!(
        "platform : {nodes} nodes, {ranks} ranks, {servers} OSTs, {} stripes",
        fmt_bytes(stripe)
    );
    println!("workload : {}", workload.name());
    println!("strategy : {}", strategy.name());
    println!(
        "data     : {} total",
        fmt_bytes(workload.total_bytes(ranks))
    );

    let obs = ObsSink::enabled();
    let result = run_traced(workload.as_ref(), &*strategy, &platform, &obs);
    let analysis = TraceAnalysis::of_sink(&obs)
        .unwrap_or_else(|e| fail(&format!("trace analysis failed: {e}")));

    println!();
    println!(
        "write    : {}  ({:.3} s virtual)",
        fmt_bandwidth(result.write_bw),
        result.write_secs
    );
    println!(
        "read     : {}  ({:.3} s virtual)",
        fmt_bandwidth(result.read_bw),
        result.read_secs
    );
    for label in ["write", "read"] {
        let ops = analysis.ops.iter().filter(|op| op.dir == label);
        let rounds: usize = ops.clone().map(|op| op.rounds).sum();
        if rounds == 0 {
            continue; // independent paths do not run the round engine
        }
        let ms = |phase: Phase| ops.clone().map(|op| op.attribution.get(phase)).sum::<f64>() * 1e3;
        println!(
            "{label} rounds: {rounds} — sync {:.1}ms, shuffle {:.1}ms, storage {:.1}ms, \
             assembly {:.1}ms",
            ms(Phase::Sync),
            ms(Phase::Shuffle),
            ms(Phase::Storage),
            ms(Phase::Assembly),
        );
    }
    let m = result.metrics;
    if m.any() {
        println!(
            "engine   : {} rounds, shuffle {}, storage {} in {} requests, \
             assembly pool {}/{} hits",
            m.rounds,
            fmt_bytes(m.shuffle_bytes),
            fmt_bytes(m.storage_bytes),
            m.storage_requests,
            m.pool_hits,
            m.pool_hits + m.pool_misses,
        );
    }
    let peaks = result.peak_mem;
    if peaks.count() > 0 {
        println!(
            "peak aggregation memory per node: mean {}, max {}, cv {:.2}",
            fmt_bytes(peaks.mean() as u64),
            fmt_bytes(peaks.max() as u64),
            peaks.cv()
        );
    }
    println!(
        "network  : {} intra-node, {} inter-node, {} data msgs",
        fmt_bytes(result.traffic.intra_bytes),
        fmt_bytes(result.traffic.inter_bytes),
        result.traffic.data_msgs
    );
    if let Some(prefix) = trace_out {
        write_trace_artifacts(&prefix, &obs, &analysis);
    }
}

/// Writes the run's trace as `<prefix>.json` (Chrome), `<prefix>.jsonl`
/// (event stream), and `<prefix>.html` (self-contained report), each
/// validated before it lands on disk.
fn write_trace_artifacts(prefix: &str, obs: &ObsSink, analysis: &TraceAnalysis) {
    use mccio_obs::{export, report};
    let (chrome, jsonl) =
        obs.with_events(|events| (export::chrome_trace(events), export::jsonl(events)));
    export::validate_chrome_trace(&chrome)
        .unwrap_or_else(|e| fail(&format!("emitted Chrome trace is invalid: {e}")));
    let chrome_path = format!("{prefix}.json");
    std::fs::write(&chrome_path, &chrome)
        .unwrap_or_else(|e| fail(&format!("write {chrome_path}: {e}")));
    export::validate_jsonl(&jsonl)
        .unwrap_or_else(|e| fail(&format!("emitted JSONL is invalid: {e}")));
    let jsonl_path = format!("{prefix}.jsonl");
    std::fs::write(&jsonl_path, &jsonl)
        .unwrap_or_else(|e| fail(&format!("write {jsonl_path}: {e}")));
    let html = report::render("mccio run report", &obs.trace_events(), analysis, None);
    let html_path = format!("{prefix}.html");
    std::fs::write(&html_path, &html).unwrap_or_else(|e| fail(&format!("write {html_path}: {e}")));
    println!("trace    : wrote {chrome_path}, {jsonl_path}, {html_path}");
}
