//! Per-layer timings: calls into each workspace crate's public
//! functions with the workload's real inputs, timed from here.
//!
//! Each measurement repeats its call a few times and keeps the median,
//! so one preempted repetition does not move the figure.

use std::hint::black_box;
use std::time::Instant;

use mccio_core::mccio::plan_mccio;
use mccio_core::plan::CollectivePlan;
use mccio_core::CommSchedule;
use mccio_mpiio::{Extent, ExtentList, GroupPattern};
use mccio_net::{BytePool, RankSet};
use mccio_pfs::FileSystem;

use crate::harness::{Rig, Window};
use crate::report::{metric, Metric};
use crate::run::{median, ratio};
use crate::spec::Inputs;

/// Repetitions of each timed call.
const REPS: usize = 5;
/// Barriers per timed window of the barrier measurement.
const BARRIERS: usize = 4;
/// Recycler takes held at once by the take measurement.
const TAKE_BATCH: usize = 16;

/// Seconds `f` takes, median of `reps` calls.
fn timed(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Measures every layer against `inputs` on `rig`'s platform.
#[must_use]
pub fn measure(rig: &Rig, inputs: &Inputs) -> Vec<Metric> {
    let n = rig.spec.ranks;
    let nf = n as f64;
    let mut out = Vec::new();

    // core: planning and schedule build.
    let pattern = GroupPattern::from_parts(RankSet::world(n), inputs.extents.clone());
    let placement = rig.world.placement();
    let cfg = &rig.strategy.0;
    let mem = rig.platform.memory();
    let mut plan = CollectivePlan::default();
    let plan_s = timed(REPS, || plan = plan_mccio(&pattern, placement, &mem, cfg));
    let schedule_s = timed(3, || {
        for (rank, extents) in inputs.extents.iter().enumerate() {
            black_box(CommSchedule::build(&plan, &pattern, rank, extents));
        }
    });
    out.push(metric("core.plan.us", "us", plan_s * 1e6));
    out.push(metric(
        "core.plan.domains",
        "count",
        plan.domains.len() as f64,
    ));
    let aggregators = plan.aggregators().len() as f64;
    out.push(metric("core.plan.aggregators", "count", aggregators));
    out.push(metric(
        "core.schedule.us_per_rank",
        "us",
        schedule_s * 1e6 / nf,
    ));
    out.push(metric("core.schedule.calls", "count", nf));

    // mpiio: the extent codec.
    let n_extents: usize = inputs.extents.iter().map(|e| e.as_slice().len()).sum();
    let mut encoded = Vec::new();
    let encode_s = timed(REPS, || {
        encoded = inputs
            .extents
            .iter()
            .map(ExtentList::encode_compact)
            .collect();
    });
    let decode_s = timed(REPS, || {
        for bytes in &encoded {
            black_box(ExtentList::decode_compact(bytes));
        }
    });
    let ns_per_extent = 1e9 / n_extents as f64;
    out.push(metric(
        "mpiio.extent.encode_ns",
        "ns",
        encode_s * ns_per_extent,
    ));
    out.push(metric(
        "mpiio.extent.decode_ns",
        "ns",
        decode_s * ns_per_extent,
    ));

    // net: launch, barrier, fact gather.
    let world = &rig.world;
    let launch_s = timed(3, || drop(world.run(|_| ())));
    let barriers = windowed(rig, |ctx| {
        for _ in 0..BARRIERS {
            ctx.barrier();
        }
    });
    // The window holds the measured barriers plus its closing one.
    let per_barrier = barriers / (BARRIERS + 1) as f64;
    let gather = windowed(rig, |ctx| {
        let set = std::sync::Arc::clone(ctx.world().rank_set());
        black_box(ctx.group_allgather_shared(&set, encoded[ctx.rank()].clone()));
    });
    let us_per_rank = 1e6 / nf;
    out.push(metric(
        "net.launch_us_per_rank",
        "us",
        launch_s * us_per_rank,
    ));
    out.push(metric(
        "net.barrier_us_per_rank",
        "us",
        per_barrier * us_per_rank,
    ));
    let gather_s = (gather - per_barrier).max(0.0);
    out.push(metric(
        "net.allgather_us_per_rank",
        "us",
        gather_s * us_per_rank,
    ));

    // net: the recycler, over the op's payload and window sizes.
    let windows = windows(&plan);
    let sizes: Vec<usize> = inputs
        .payloads
        .iter()
        .map(Vec::len)
        .chain(windows.iter().map(|w| w.len as usize))
        .collect();
    // Takes go in batches returned before the next, which bounds the
    // memory held to one batch of buffers.
    let pool = BytePool::for_ranks(n);
    let cycle = |pool: &BytePool| {
        let mut took = 0.0;
        for batch in sizes.chunks(TAKE_BATCH) {
            let t = Instant::now();
            let held: Vec<Vec<u8>> = batch.iter().map(|&s| pool.take(s)).collect();
            took += t.elapsed().as_secs_f64();
            for buf in held {
                pool.put(buf);
            }
        }
        took
    };
    cycle(&pool);
    let takes: Vec<f64> = (0..REPS).map(|_| cycle(&pool)).collect();
    let take_ns = median(&takes) * 1e9 / sizes.len() as f64;
    out.push(metric("net.recycler.take_ns", "ns", take_ns));
    drop(pool);

    // pfs: the plan's domain windows on a fresh file system.
    let p = &rig.platform;
    let fs = FileSystem::new(p.n_servers, p.stripe, p.pfs);
    let file = fs.open_or_create("layers");
    let largest = windows.iter().map(|w| w.len).max().unwrap_or(0) as usize;
    let mut buf: Vec<u8> = (0..largest).map(|i| i as u8).collect();
    let bytes: u64 = windows.iter().map(|w| w.len).sum();
    let mib = bytes as f64 / (1u64 << 20) as f64;
    let write_s = timed(3, || {
        for w in &windows {
            black_box(file.write_at(w.offset, &buf[..w.len as usize]));
        }
    });
    let read_s = timed(3, || {
        for w in &windows {
            black_box(file.read_into(w.offset, &mut buf[..w.len as usize]));
        }
    });
    out.push(metric("pfs.write_mib_s", "MiB/s", ratio(mib, write_s)));
    out.push(metric("pfs.read_mib_s", "MiB/s", ratio(mib, read_s)));
    out.push(metric("pfs.requests", "count", windows.len() as f64));
    drop(fs);

    // mem: one reservation per planned aggregator buffer, then release.
    let reserve_s = timed(REPS, || {
        let held: Vec<_> = plan
            .domains
            .iter()
            .map(|d| mem.try_reserve(placement.node_of(d.aggregator), d.buffer))
            .collect();
        drop(black_box(held));
    });
    let reserve_ns = ratio(reserve_s * 1e9, plan.domains.len() as f64);
    out.push(metric("mem.reserve_ns", "ns", reserve_ns));
    out
}

/// Every round window of every planned domain, in domain order.
fn windows(plan: &CollectivePlan) -> Vec<Extent> {
    plan.domains
        .iter()
        .flat_map(|d| (0..d.rounds()).filter_map(move |r| d.window(r)))
        .collect()
}

/// Host seconds of `body` run by every rank between a start and an end
/// world barrier, median of three runs (first leaver of the start
/// barrier to last leaver of the end barrier).
fn windowed(rig: &Rig, body: impl Fn(&mut mccio_net::Ctx) + Send + Sync) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let window = Window::new(rig.spec.ranks, false);
            rig.world.run(|ctx| {
                ctx.barrier();
                window.enter();
                body(ctx);
                ctx.barrier();
                window.exit();
            });
            window.secs()
        })
        .collect();
    median(&samples)
}
