//! # mccio-bench — the experiment harness
//!
//! Reproduces every table and figure of the paper (see EXPERIMENTS.md
//! for the index and the paper-vs-measured record):
//!
//! * `table1` binary — the exascale design-point comparison;
//! * `fig6` binary — coll_perf write/read bandwidth vs per-aggregator
//!   memory at 120 ranks, normal two-phase vs memory-conscious;
//! * `fig7` binary — IOR interleaved at 120 ranks;
//! * `fig8` binary — IOR interleaved at 1080 ranks;
//! * Criterion benches under `benches/` — component microbenchmarks and
//!   the ablations called out in DESIGN.md.
//!
//! The harness library runs one `(workload, strategy, platform)` triple
//! end-to-end — write phase, barrier, read phase, byte-for-byte
//! verification — and reports the aggregate bandwidths the paper plots:
//! `total bytes / slowest rank's virtual elapsed time`.

#![warn(missing_docs)]

use std::sync::Arc;

use mccio_core::prelude::*;
use mccio_mem::MemoryModel;
use mccio_mpiio::{OpMetrics, Resilience};
use mccio_net::{ExecutorKind, TrafficSnapshot, World};
use mccio_obs::ObsSink;
use mccio_pfs::{FileSystem, PfsParams};
use mccio_sim::cost::CostModel;
use mccio_sim::stats::Welford;
use mccio_sim::topology::{ClusterSpec, FillOrder, Placement};
use mccio_sim::units::MIB;
use mccio_workloads::{data, Workload};

/// The platform a run executes on.
#[derive(Debug, Clone)]
pub struct Platform {
    /// The cluster (nodes, NICs, memory).
    pub cluster: ClusterSpec,
    /// Ranks launched on it.
    pub n_ranks: usize,
    /// Storage servers (OSTs).
    pub n_servers: usize,
    /// Stripe unit, bytes.
    pub stripe: u64,
    /// Storage service parameters.
    pub pfs: PfsParams,
    /// Per-node available-memory distribution `(mean, stddev)` in bytes;
    /// `None` leaves nodes pristine. The paper samples availability from
    /// a Normal distribution to model cross-node variance.
    pub mem_available: Option<(u64, u64)>,
    /// Seed for memory sampling.
    pub seed: u64,
}

impl Platform {
    /// A scaled slice of the paper's 640-node testbed: `n_nodes` nodes
    /// of 12 cores, Lustre-like storage with 1 MiB stripes over
    /// `n_servers` OSTs.
    #[must_use]
    pub fn testbed(n_nodes: usize, n_ranks: usize, n_servers: usize) -> Self {
        Platform {
            cluster: ClusterSpec::testbed(n_nodes),
            n_ranks,
            n_servers,
            stripe: MIB,
            pfs: PfsParams::default(),
            mem_available: None,
            seed: 0xC0FFEE,
        }
    }

    /// Constrains per-node available memory to Normal(`mean`, `std`²).
    #[must_use]
    pub fn with_memory(mut self, mean: u64, std: u64) -> Self {
        self.mem_available = Some((mean, std));
        self
    }

    /// Builds the memory model for this platform.
    #[must_use]
    pub fn memory(&self) -> MemoryModel {
        match self.mem_available {
            Some((mean, std)) => {
                MemoryModel::with_available_variance(&self.cluster, mean, std, self.seed)
            }
            None => MemoryModel::pristine(&self.cluster),
        }
    }

    /// Derives the MC-CIO tuning for this platform.
    #[must_use]
    pub fn tuning(&self) -> Tuning {
        Tuning::derive(&self.cluster, &self.pfs, self.n_servers)
    }
}

/// Aggregate outcome of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Paper-style write bandwidth: total bytes / slowest rank's write
    /// time, bytes/second.
    pub write_bw: f64,
    /// Read bandwidth, bytes/second.
    pub read_bw: f64,
    /// Total application bytes moved in each phase.
    pub total_bytes: u64,
    /// Virtual seconds of the slowest rank, write phase.
    pub write_secs: f64,
    /// Virtual seconds of the slowest rank, read phase.
    pub read_secs: f64,
    /// Peak aggregation-memory statistics across aggregating nodes
    /// (mean/stddev/CV) — the paper's memory consumption and variance
    /// metric.
    pub peak_mem: Welford,
    /// Network traffic counters at the end of the run.
    pub traffic: TrafficSnapshot,
    /// Engine metrics summed across every rank's write and read reports
    /// (memory high-water fields are environment-wide, taken once).
    pub metrics: OpMetrics,
    /// Resilience counters absorbed across every rank's write and read
    /// reports — what the run endured (faults, retries, crash
    /// recoveries) on its way to the reported bandwidths.
    pub resilience: Resilience,
}

impl RunResult {
    /// Write bandwidth in the paper's MB/s (2^20).
    #[must_use]
    pub fn write_mbps(&self) -> f64 {
        self.write_bw / MIB as f64
    }

    /// Read bandwidth in MB/s.
    #[must_use]
    pub fn read_mbps(&self) -> f64 {
        self.read_bw / MIB as f64
    }
}

/// Runs one `(workload, strategy)` pair on `platform`: collective write
/// of the whole dataset, barrier, collective read, verification.
///
/// # Panics
/// Panics if any rank reads back bytes that differ from what the
/// workload wrote — correctness is part of every measurement.
#[must_use]
pub fn run(workload: &dyn Workload, strategy: &dyn Strategy, platform: &Platform) -> RunResult {
    run_traced(workload, strategy, platform, &ObsSink::disabled())
}

/// Like [`run`], pinned to one rank executor instead of inheriting the
/// `MCCIO_EXECUTOR` override — the scale bench compares the two engines
/// side by side, so each run must name its engine explicitly.
#[must_use]
pub fn run_on(
    workload: &dyn Workload,
    strategy: &dyn Strategy,
    platform: &Platform,
    executor: ExecutorKind,
) -> RunResult {
    run_on_traced(workload, strategy, platform, executor, &ObsSink::disabled())
}

/// Like [`run_on`], with the environment recording into `obs` — the
/// executor-pinned and traced axes combined. The `scale --obs` flagship
/// uses this with a streaming sink to observe the 10k/100k shapes.
#[must_use]
pub fn run_on_traced(
    workload: &dyn Workload,
    strategy: &dyn Strategy,
    platform: &Platform,
    executor: ExecutorKind,
    obs: &ObsSink,
) -> RunResult {
    let placement = Placement::new(&platform.cluster, platform.n_ranks, FillOrder::Block)
        .expect("platform placement");
    let world = World::with_executor(
        CostModel::new(platform.cluster.clone()),
        placement,
        executor,
    );
    let env = IoEnv::new(
        FileSystem::new(platform.n_servers, platform.stripe, platform.pfs),
        platform.memory(),
    )
    .with_obs(obs.clone());
    run_with(&world, &env, workload, strategy)
}

/// Like [`run_on_traced`], with a fault plan installed on the
/// environment. The causal benches use this with a deterministic
/// control-plane delay: the engine's phases are root-priced, so without
/// real message latency every rank's clock moves in lock-step and blame
/// chains never hop ranks.
#[must_use]
pub fn run_on_traced_faulty(
    workload: &dyn Workload,
    strategy: &dyn Strategy,
    platform: &Platform,
    executor: ExecutorKind,
    obs: &ObsSink,
    plan: mccio_sim::fault::FaultPlan,
) -> RunResult {
    let placement = Placement::new(&platform.cluster, platform.n_ranks, FillOrder::Block)
        .expect("platform placement");
    let world = World::with_executor(
        CostModel::new(platform.cluster.clone()),
        placement,
        executor,
    );
    let env = IoEnv::with_faults(
        FileSystem::new(platform.n_servers, platform.stripe, platform.pfs),
        platform.memory(),
        plan,
    )
    .with_obs(obs.clone());
    run_with(&world, &env, workload, strategy)
}

/// Like [`run`], with the environment recording spans and metrics into
/// `obs`. Tracing never moves virtual time, so a traced run's bandwidths
/// are bit-identical to [`run`]'s.
#[must_use]
pub fn run_traced(
    workload: &dyn Workload,
    strategy: &dyn Strategy,
    platform: &Platform,
    obs: &ObsSink,
) -> RunResult {
    let placement = Placement::new(&platform.cluster, platform.n_ranks, FillOrder::Block)
        .expect("platform placement");
    let world = World::new(CostModel::new(platform.cluster.clone()), placement);
    let env = IoEnv::new(
        FileSystem::new(platform.n_servers, platform.stripe, platform.pfs),
        platform.memory(),
    )
    .with_obs(obs.clone());
    run_with(&world, &env, workload, strategy)
}

/// Like [`run`], but over a caller-provided world and environment (used
/// by the ablation benches to share or perturb state).
#[must_use]
pub fn run_with(
    world: &Arc<World>,
    env: &IoEnv,
    workload: &dyn Workload,
    strategy: &dyn Strategy,
) -> RunResult {
    let n_ranks = world.n_ranks();
    let file = format!("bench-{}-{}", workload.name(), strategy.name());
    let reports = world.run(|ctx| {
        let env = env.clone();
        let handle = env.fs.open_or_create(&file);
        let extents = workload.extents(ctx.rank(), n_ranks);
        let payload = data::fill(&extents);
        let w = mccio_core::strategy::write_all(ctx, &env, &handle, &extents, &payload, strategy);
        ctx.barrier();
        let (back, r) = mccio_core::strategy::read_all(ctx, &env, &handle, &extents, strategy);
        if let Some(bad) = data::verify(&extents, &back) {
            panic!(
                "rank {} read back wrong data at file offset {bad} ({})",
                ctx.rank(),
                strategy.name()
            );
        }
        (w, r)
    });
    let total_bytes = workload.total_bytes(n_ranks);
    let write_secs = reports
        .iter()
        .map(|(w, _)| w.elapsed.as_secs())
        .fold(0.0, f64::max);
    let read_secs = reports
        .iter()
        .map(|(_, r)| r.elapsed.as_secs())
        .fold(0.0, f64::max);
    let mut metrics = OpMetrics::default();
    let mut resilience = Resilience::default();
    for (w, r) in &reports {
        metrics.absorb(w.metrics);
        metrics.absorb(r.metrics);
        resilience.absorb(w.resilience);
        resilience.absorb(r.resilience);
    }
    RunResult {
        write_bw: if write_secs > 0.0 {
            total_bytes as f64 / write_secs
        } else {
            0.0
        },
        read_bw: if read_secs > 0.0 {
            total_bytes as f64 / read_secs
        } else {
            0.0
        },
        total_bytes,
        write_secs,
        read_secs,
        peak_mem: env.mem.peak_statistics(),
        traffic: world.traffic().snapshot(),
        metrics,
        resilience,
    }
}

/// Builds the pair of strategies every figure compares: the two-phase
/// baseline with a fixed `buffer`-byte collective buffer, and
/// memory-conscious collective I/O whose sampled buffers have the same
/// mean (the paper's protocol).
#[must_use]
pub fn paper_pair(platform: &Platform, buffer: u64) -> [(String, Box<dyn Strategy>); 2] {
    let tuning = platform.tuning();
    [
        (
            "two-phase".to_string(),
            Box::new(TwoPhase(TwoPhaseConfig::with_buffer(buffer))) as Box<dyn Strategy>,
        ),
        (
            "memory-conscious".to_string(),
            Box::new(MemoryConscious(MccioConfig::new(
                tuning,
                buffer,
                platform.stripe,
            ))),
        ),
    ]
}

/// The buffer axis of a figure sweep in MiB: the `MCCIO_BUFFERS` env var
/// (a comma-separated MiB list) when set, `default_mib` otherwise.
///
/// # Panics
/// Panics if `MCCIO_BUFFERS` is set but not a comma-separated integer
/// list.
#[must_use]
pub fn sweep_buffers_mib(default_mib: &[u64]) -> Vec<u64> {
    std::env::var("MCCIO_BUFFERS")
        .ok()
        .map(|v| {
            v.split(',')
                .map(|x| x.trim().parse().expect("MCCIO_BUFFERS: MiB list"))
                .collect()
        })
        .unwrap_or_else(|| default_mib.to_vec())
}

/// Shared driver for the figure binaries (fig6/fig7/fig8): sweeps the
/// buffer axis (see [`sweep_buffers_mib`]), runs the [`paper_pair`] at
/// each point, prints the formatted table to stdout followed by the
/// paper's reference numbers for comparison.
pub fn run_figure(
    title: &str,
    workload: &dyn Workload,
    platform: &Platform,
    default_buffers_mib: &[u64],
    paper_reference: &str,
) {
    let mut rows = Vec::new();
    for buffer_mib in sweep_buffers_mib(default_buffers_mib) {
        let buffer = buffer_mib * MIB;
        let pair = paper_pair(platform, buffer);
        eprintln!("  running buffer {buffer_mib} MiB ...");
        let tp = run(workload, &*pair[0].1, platform);
        let mc = run(workload, &*pair[1].1, platform);
        rows.push((buffer, tp, mc));
    }
    println!("{}", format_figure(title, &rows));
    println!("{paper_reference}");
}

/// Formats a figure table: one row per buffer size, write and read
/// bandwidth for each strategy plus the MC/two-phase improvement.
#[must_use]
pub fn format_figure(
    title: &str,
    rows: &[(u64, RunResult, RunResult)], // (buffer, two-phase, memory-conscious)
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:>10}  {:>12} {:>12} {:>8}   {:>12} {:>12} {:>8}",
        "buffer", "2ph write", "mc write", "impr", "2ph read", "mc read", "impr"
    );
    let mut w_impr = Vec::new();
    let mut r_impr = Vec::new();
    for (buffer, tp, mc) in rows {
        let wi = mc.write_bw / tp.write_bw - 1.0;
        let ri = mc.read_bw / tp.read_bw - 1.0;
        w_impr.push(wi);
        r_impr.push(ri);
        let _ = writeln!(
            out,
            "{:>8}MB  {:>10.1}MB/s {:>10.1}MB/s {:>7.1}%   {:>10.1}MB/s {:>10.1}MB/s {:>7.1}%",
            buffer / MIB,
            tp.write_mbps(),
            mc.write_mbps(),
            wi * 100.0,
            tp.read_mbps(),
            mc.read_mbps(),
            ri * 100.0,
        );
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let _ = writeln!(
        out,
        "average improvement: write {:+.1}%  read {:+.1}%",
        avg(&w_impr) * 100.0,
        avg(&r_impr) * 100.0
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccio_sim::units::KIB;
    use mccio_workloads::{Ior, IorMode};

    fn tiny_platform() -> Platform {
        let mut p = Platform::testbed(2, 8, 4);
        p.cluster = mccio_sim::topology::test_cluster(2, 4);
        p.stripe = 64 * KIB;
        p
    }

    #[test]
    fn harness_runs_both_paper_strategies() {
        let platform = tiny_platform();
        let ior = Ior::new(64 * KIB, 4, IorMode::Interleaved);
        for (name, strategy) in paper_pair(&platform, 256 * KIB) {
            let result = run(&ior, &*strategy, &platform);
            assert!(result.write_bw > 0.0, "{name} write");
            assert!(result.read_bw > 0.0, "{name} read");
            assert_eq!(result.total_bytes, 8 * 4 * 64 * KIB);
            assert!(result.traffic.data_msgs > 0);
        }
    }

    #[test]
    fn results_are_deterministic() {
        let platform = tiny_platform().with_memory(64 * MIB, 16 * MIB);
        let ior = Ior::new(32 * KIB, 2, IorMode::Interleaved);
        let (_, strategy) = &paper_pair(&platform, 128 * KIB)[1];
        let a = run(&ior, &**strategy, &platform);
        let b = run(&ior, &**strategy, &platform);
        assert_eq!(a.write_secs, b.write_secs);
        assert_eq!(a.read_secs, b.read_secs);
    }

    #[test]
    fn figure_formatting_contains_all_rows() {
        let platform = tiny_platform();
        let ior = Ior::new(32 * KIB, 2, IorMode::Interleaved);
        let pair = paper_pair(&platform, 128 * KIB);
        let tp = run(&ior, &*pair[0].1, &platform);
        let mc = run(&ior, &*pair[1].1, &platform);
        let table = format_figure("test table", &[(MIB, tp, mc)]);
        assert!(table.contains("test table"));
        assert!(table.contains("1MB"));
        assert!(table.contains("average improvement"));
    }
}
