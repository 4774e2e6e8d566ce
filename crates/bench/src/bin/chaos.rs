//! Chaos sweep: seeded aggregator crashes combined with transient
//! storage faults, swept across a seed grid, proving every recovery
//! path delivers the crash-free bytes.
//!
//! For each strategy the sweep first records a crash-free baseline run
//! and hashes the resulting file, then replays the same workload under
//! a grid of fault plans — one targeted mid-write crash plus two random
//! rank crashes inside the operation window plus a 2 % transient
//! storage-failure rate per seed — and asserts the recovered file
//! hashes to exactly the baseline value.
//! The per-run recovery counters (crashes detected, re-elections,
//! rounds replayed, ladder fallbacks, checksums verified) land in a
//! JSON artifact so CI can archive how hostile the grid actually was.
//!
//! ```text
//! cargo run --release -p mccio-bench --bin chaos [n_seeds] [outdir]
//! ```
//!
//! Exits non-zero if any recovered run's bytes differ from its
//! baseline, or if the whole grid failed to exercise crash detection
//! at least once (a silent no-op sweep must not pass as coverage).

use mccio_bench::{paper_pair, run_with, Platform};
use mccio_core::prelude::*;
use mccio_mpiio::{Resilience, SieveConfig};
use mccio_net::World;
use mccio_pfs::FileSystem;
use mccio_sim::cost::CostModel;
use mccio_sim::fault::FaultPlan;
use mccio_sim::time::VTime;
use mccio_sim::topology::{FillOrder, Placement};
use mccio_sim::units::MIB;
use mccio_workloads::{Ior, Workload};

/// Random crashes injected per seed, on top of one targeted crash of
/// rank `seed % n_ranks` at a time guaranteed to be mid-operation. The
/// targeted crash makes aggregator coverage deterministic — rank 0 is
/// an aggregator under both collectives, so a grid of ≥1 seed always
/// exercises detection — while the random ones supply the chaos. Three
/// dead ranks of sixteen leaves survivors on every node, so recovery
/// should re-elect rather than fall down the ladder; fallbacks are
/// reported, not asserted, because a seed that kills every candidate
/// of a small domain may legally descend.
const RANDOM_CRASHES_PER_SEED: usize = 2;

/// Virtual time of the targeted per-seed crash: inside the write phase
/// of every strategy at this scale.
const TARGETED_CRASH_SECS: f64 = 0.01;

/// Transient storage-failure rate combined with every crash schedule.
const TRANSIENT_RATE: f64 = 0.02;

struct Row {
    strategy: String,
    seed: u64,
    hash_ok: bool,
    write_secs: f64,
    read_secs: f64,
    res: Resilience,
}

fn main() {
    let n_seeds: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let outdir = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "chaos_out".to_string());
    std::fs::create_dir_all(&outdir).expect("create outdir");

    let platform = Platform::testbed(4, 16, 4).with_memory(64 * MIB, 16 * MIB);
    // Interleaved IOR (the fig7 access pattern) at a bounded scale: the
    // sweep runs 3 strategies x (1 baseline + n_seeds) full runs.
    let workload = Ior::interleaved_total(MIB, 4);
    let strategies = all_three(&platform);
    eprintln!(
        "chaos: {} strategies x {n_seeds} seeds, {} crashes + {:.0}% transient per seed",
        strategies.len(),
        RANDOM_CRASHES_PER_SEED + 1,
        TRANSIENT_RATE * 100.0
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut mismatches = 0u64;
    for (name, strategy) in &strategies {
        let (baseline_hash, baseline) = execute(&platform, &workload, &**strategy, None);
        eprintln!(
            "  {name}: baseline hash {baseline_hash:#018x} (w {:.6}s r {:.6}s)",
            baseline.0, baseline.1
        );
        for seed in 0..n_seeds {
            let plan = FaultPlan::new(0xC4A0_5000 + seed)
                .crash_rank_at(
                    VTime::from_secs(TARGETED_CRASH_SECS),
                    seed as usize % platform.n_ranks,
                )
                .random_crashes(
                    RANDOM_CRASHES_PER_SEED,
                    platform.n_ranks,
                    VTime::ZERO,
                    VTime::from_secs(0.05),
                )
                .transient_io_rate(TRANSIENT_RATE);
            let (hash, (w, r, res)) = execute(&platform, &workload, &**strategy, Some(plan));
            let hash_ok = hash == baseline_hash;
            if !hash_ok {
                mismatches += 1;
                eprintln!(
                    "  {name} seed {seed}: HASH MISMATCH {hash:#018x} != {baseline_hash:#018x}"
                );
            }
            rows.push(Row {
                strategy: name.clone(),
                seed,
                hash_ok,
                write_secs: w,
                read_secs: r,
                res,
            });
        }
    }

    let total: Resilience = rows.iter().fold(Resilience::default(), |mut acc, row| {
        acc.absorb(row.res);
        acc
    });
    let json = render_json(n_seeds, mismatches, &total, &rows);
    let path = format!("{outdir}/chaos.json");
    std::fs::write(&path, &json).expect("write chaos json");
    println!("{json}");
    eprintln!(
        "chaos: {} runs, {} mismatches, {} crashes detected, {} re-elections, \
         {} rounds replayed, {} message checksums verified -> {path}",
        rows.len(),
        mismatches,
        total.crashes_detected,
        total.reelections,
        total.rounds_replayed,
        total.integrity_verified,
    );
    if mismatches > 0 {
        eprintln!("chaos: FAILED - recovered bytes differ from crash-free baseline");
        std::process::exit(1);
    }
    // Coverage gate: each collective must have detected crashes
    // somewhere in the grid, or the sweep silently stopped testing
    // recovery (sieved has no aggregators, so it is exempt by design).
    for (name, _) in &strategies {
        if name == "sieved" {
            continue;
        }
        let detected: u64 = rows
            .iter()
            .filter(|row| &row.strategy == name)
            .map(|row| row.res.crashes_detected)
            .sum();
        if detected == 0 {
            eprintln!("chaos: FAILED - {name} never detected a crash; widen the window");
            std::process::exit(1);
        }
    }
}

/// The three strategies of the paper's comparison. Independent sieving
/// has no aggregator roles to crash, so it pins the sweep's control
/// case: crashes are no-ops yet the checksum contract must still hold.
fn all_three(platform: &Platform) -> Vec<(String, Box<dyn Strategy>)> {
    let mut v: Vec<(String, Box<dyn Strategy>)> = vec![(
        "sieved".to_string(),
        Box::new(IndependentSieved(SieveConfig::default())),
    )];
    v.extend(paper_pair(platform, 4 * MIB));
    v
}

/// One full write+read run under `plan` (crash-free when `None`),
/// returning the file hash and `(write_secs, read_secs, resilience)`.
fn execute(
    platform: &Platform,
    workload: &dyn Workload,
    strategy: &dyn Strategy,
    plan: Option<FaultPlan>,
) -> (u64, (f64, f64, Resilience)) {
    let placement = Placement::new(&platform.cluster, platform.n_ranks, FillOrder::Block)
        .expect("platform placement");
    let world = World::new(CostModel::new(platform.cluster.clone()), placement);
    let fs = FileSystem::new(platform.n_servers, platform.stripe, platform.pfs);
    let mem = platform.memory();
    let env = match plan {
        Some(p) => IoEnv::with_faults(fs, mem, p),
        None => IoEnv::new(fs, mem),
    };
    let result = run_with(&world, &env, workload, strategy);
    let file = format!("bench-{}-{}", workload.name(), strategy.name());
    let handle = env.fs.open(&file).expect("run created the file");
    let (bytes, _) = handle.read_at(0, handle.len());
    (
        fnv1a(&bytes),
        (result.write_secs, result.read_secs, result.resilience),
    )
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hand-rolled JSON (the workspace is dependency-free by design).
fn render_json(n_seeds: u64, mismatches: u64, total: &Resilience, rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"chaos\",");
    let _ = writeln!(out, "  \"seeds\": {n_seeds},");
    let _ = writeln!(
        out,
        "  \"crashes_per_seed\": {},",
        RANDOM_CRASHES_PER_SEED + 1
    );
    let _ = writeln!(out, "  \"transient_rate\": {TRANSIENT_RATE},");
    let _ = writeln!(out, "  \"mismatches\": {mismatches},");
    let _ = writeln!(
        out,
        "  \"total_crashes_detected\": {},",
        total.crashes_detected
    );
    let _ = writeln!(out, "  \"total_reelections\": {},", total.reelections);
    let _ = writeln!(
        out,
        "  \"total_rounds_replayed\": {},",
        total.rounds_replayed
    );
    let _ = writeln!(
        out,
        "  \"total_integrity_verified\": {},",
        total.integrity_verified
    );
    let _ = writeln!(out, "  \"runs\": [");
    for (i, row) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"strategy\": \"{}\", \"seed\": {}, \"hash_ok\": {}, \
             \"write_secs\": {:.9}, \"read_secs\": {:.9}, \
             \"crashes_detected\": {}, \"reelections\": {}, \"rounds_replayed\": {}, \
             \"fallbacks\": {}, \"transient_faults\": {}, \"integrity_verified\": {}}}{sep}",
            row.strategy,
            row.seed,
            row.hash_ok,
            row.write_secs,
            row.read_secs,
            row.res.crashes_detected,
            row.res.reelections,
            row.res.rounds_replayed,
            row.res.fallbacks,
            row.res.transient_faults,
            row.res.integrity_verified,
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}
