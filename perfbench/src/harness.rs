//! Runs a workload's collective ops and times them from outside.
//!
//! Each write+read pair is one `World::run` on the event executor, so
//! every op starts from virtual time zero exactly like the workspace's
//! goldens. Inside the run each op sits between a start and an end
//! world barrier; the host-wall window opens when the first rank leaves
//! the start barrier and closes when the last rank leaves the end
//! barrier. Input generation happens before the run and verification
//! after it, so neither is inside any window.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use mccio_bench::Platform;
use mccio_core::prelude::*;
use mccio_mpiio::OpMetrics;
use mccio_net::ExecutorKind;
use mccio_sim::cost::CostModel;
use mccio_sim::hostprof;
use mccio_sim::topology::{FillOrder, Placement};

use crate::spec::{Inputs, Spec};

/// The simulated file every op writes and reads back.
const FILE: &str = "perfbench";

/// World barriers the harness adds around each write+read pair.
const HARNESS_BARRIERS: u64 = 4;

/// Host-wall window of one collective op, start barrier to end barrier.
pub(crate) struct Window {
    ranks: usize,
    profile: bool,
    entered: AtomicUsize,
    exited: AtomicUsize,
    start: OnceLock<Instant>,
    end: OnceLock<Instant>,
}

impl Window {
    pub(crate) fn new(ranks: usize, profile: bool) -> Self {
        Window {
            ranks,
            profile,
            entered: AtomicUsize::new(0),
            exited: AtomicUsize::new(0),
            start: OnceLock::new(),
            end: OnceLock::new(),
        }
    }

    /// Called by every rank right after the start barrier returns.
    pub(crate) fn enter(&self) {
        if self.entered.fetch_add(1, Ordering::SeqCst) == 0 {
            if self.profile {
                hostprof::set_enabled(true);
            }
            let _ = self.start.set(Instant::now());
        }
    }

    /// Called by every rank right after the end barrier returns.
    pub(crate) fn exit(&self) {
        if self.exited.fetch_add(1, Ordering::SeqCst) + 1 == self.ranks {
            let _ = self.end.set(Instant::now());
            if self.profile {
                hostprof::set_enabled(false);
            }
        }
    }

    pub(crate) fn secs(&self) -> f64 {
        match (self.start.get(), self.end.get()) {
            (Some(s), Some(e)) => e.duration_since(*s).as_secs_f64(),
            _ => 0.0,
        }
    }
}

/// Exact outputs of one write+read pair: virtual times as bits and the
/// program's own counters. Identical whenever the program does the same
/// thing, whatever the host.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Signature {
    /// Slowest rank's virtual write seconds, `f64::to_bits`.
    pub write_bits: u64,
    /// Slowest rank's virtual read seconds, `f64::to_bits`.
    pub read_bits: u64,
    /// `OpMetrics::rounds`, summed over ranks, write + read.
    pub rounds: u64,
    /// `OpMetrics::shuffle_bytes`, summed.
    pub shuffle_bytes: u64,
    /// `OpMetrics::storage_requests`, summed.
    pub storage_requests: u64,
    /// `OpMetrics::storage_bytes`, summed.
    pub storage_bytes: u64,
    /// `OpMetrics::payload_peak_bytes`, summed.
    pub payload_peak_bytes: u64,
    /// `OpMetrics::recycle_takes`, summed.
    pub recycle_takes: u64,
    /// Data-plane messages delivered during the pair.
    pub data_msgs: u64,
    /// Control-plane messages delivered during the pair, less the
    /// harness's own barriers.
    pub ctl_msgs: u64,
}

impl Signature {
    /// Virtual write seconds.
    #[must_use]
    pub fn write_secs(&self) -> f64 {
        f64::from_bits(self.write_bits)
    }

    /// Virtual read seconds.
    #[must_use]
    pub fn read_secs(&self) -> f64 {
        f64::from_bits(self.read_bits)
    }
}

/// Outcome of one write+read pair.
#[derive(Debug)]
pub struct Pair {
    /// Host seconds of the write window.
    pub write_wall: f64,
    /// Host seconds of the read window.
    pub read_wall: f64,
    /// Every rank's read-back, in rank order (empty after a panic).
    pub read_back: Vec<Vec<u8>>,
    /// Exact outputs (`None` after a panic).
    pub signature: Option<Signature>,
    /// The panic message, if a rank panicked.
    pub error: Option<String>,
}

/// A live simulation: world, environment and strategy of one workload.
pub struct Rig {
    /// The workload this rig runs.
    pub spec: Spec,
    /// The simulated platform.
    pub platform: Platform,
    /// The communication world, on the event executor.
    pub world: Arc<World>,
    /// The untraced environment.
    pub env: IoEnv,
    /// The strategy under test.
    pub strategy: MemoryConscious,
}

impl Rig {
    /// Builds the world and the environment for `spec`.
    ///
    /// # Panics
    /// Panics if the workload's ranks do not fit its nodes.
    #[must_use]
    pub fn new(spec: Spec) -> Rig {
        let platform = spec.platform();
        let placement = Placement::new(&platform.cluster, platform.n_ranks, FillOrder::Block)
            .expect("workload ranks fit the testbed nodes");
        let world = World::with_executor(
            CostModel::new(platform.cluster.clone()),
            placement,
            ExecutorKind::Event,
        );
        let env = IoEnv::new(
            FileSystem::new(platform.n_servers, platform.stripe, platform.pfs),
            platform.memory(),
        );
        let strategy = MemoryConscious(MccioConfig::new(
            platform.tuning(),
            spec.buffer,
            platform.stripe,
        ));
        Rig {
            spec,
            platform,
            world,
            env,
            strategy,
        }
    }

    /// An environment over the same file system and memory model that
    /// records into `sink`.
    #[must_use]
    pub fn traced_env(&self, sink: mccio_obs::ObsSink) -> IoEnv {
        IoEnv::new(self.env.fs.clone(), self.env.mem.clone()).with_obs(sink)
    }

    /// Runs one collective write and one collective read of `inputs`
    /// against `env`. With `profile` set, the host profiler records
    /// inside the two op windows and nowhere else.
    #[must_use]
    pub fn run_pair(&self, env: &IoEnv, inputs: &Inputs, profile: bool) -> Pair {
        let n = self.world.n_ranks();
        let (w, r) = (Window::new(n, profile), Window::new(n, profile));
        let strategy = &self.strategy;
        let traffic0 = self.world.traffic().snapshot();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.world.run(|ctx| {
                let rank = ctx.rank();
                let (extents, payload) = (&inputs.extents[rank], &inputs.payloads[rank]);
                let handle = env.fs.open_or_create(FILE);
                ctx.barrier();
                w.enter();
                let wr = strategy.write(ctx, env, &handle, extents, payload);
                ctx.barrier();
                w.exit();
                ctx.barrier();
                r.enter();
                let (back, rr) = strategy.read(ctx, env, &handle, extents);
                ctx.barrier();
                r.exit();
                (wr, rr, back)
            })
        }));
        if profile {
            hostprof::set_enabled(false);
        }
        let reports = match outcome {
            Ok(reports) => reports,
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_else(|| "rank panicked".to_string());
                return Pair {
                    write_wall: w.secs(),
                    read_wall: r.secs(),
                    read_back: Vec::new(),
                    signature: None,
                    error: Some(msg),
                };
            }
        };
        let traffic = self.world.traffic().snapshot();
        let mut metrics = OpMetrics::default();
        let (mut write_secs, mut read_secs) = (0.0_f64, 0.0_f64);
        let mut read_back = Vec::with_capacity(n);
        for (wr, rr, back) in reports {
            write_secs = write_secs.max(wr.elapsed.as_secs());
            read_secs = read_secs.max(rr.elapsed.as_secs());
            metrics.absorb(wr.metrics);
            metrics.absorb(rr.metrics);
            read_back.push(back);
        }
        let barrier_msgs = HARNESS_BARRIERS * 2 * (n as u64 - 1);
        Pair {
            write_wall: w.secs(),
            read_wall: r.secs(),
            read_back,
            signature: Some(Signature {
                write_bits: write_secs.to_bits(),
                read_bits: read_secs.to_bits(),
                rounds: metrics.rounds,
                shuffle_bytes: metrics.shuffle_bytes,
                storage_requests: metrics.storage_requests,
                storage_bytes: metrics.storage_bytes,
                payload_peak_bytes: metrics.payload_peak_bytes,
                recycle_takes: metrics.recycle_takes,
                data_msgs: traffic.data_msgs - traffic0.data_msgs,
                ctl_msgs: (traffic.ctl_msgs - traffic0.ctl_msgs).saturating_sub(barrier_msgs),
            }),
            error: None,
        }
    }
}
