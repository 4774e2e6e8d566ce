//! The shared entry and exit of every collective operation: clock sync,
//! fault application, collective buffer reservation — and the matching
//! epilogue that releases buffers and assembles the final report.
//!
//! Write and read run exactly this code; the direction only shows up in
//! the round loop (`super::rounds`).

use std::sync::Arc;

use mccio_mem::Reservation;
use mccio_mpiio::{IoReport, OpMetrics, Resilience};
use mccio_net::{Ctx, RankSet, RecycleStats};
use mccio_obs::{AttrValue, ObsSink, ENGINE_TRACK};
use mccio_pfs::IoFaults;
use mccio_sim::error::{SimError, SimResult};
use mccio_sim::fault::{FaultEvent, TimedEvent};
use mccio_sim::time::VTime;

use crate::plan::CollectivePlan;
use crate::resilience::MAX_ESCALATIONS;

use super::env::IoEnv;
use super::pool::BufferPool;

/// Everything the prologue established, carried through the round loop
/// and consumed by [`close`].
pub(super) struct OpState {
    /// All ranks of the communicator (shared, built once per world).
    pub(super) world: Arc<RankSet>,
    /// Synchronized start-of-operation clock.
    pub(super) t0: VTime,
    /// Whether a fault plan is active (legacy fault-free path when not).
    pub(super) active: bool,
    /// This rank's per-operation transient-failure context.
    pub(super) faults: IoFaults,
    /// Assembly buffers recycled across rounds and domains.
    pub(super) pool: BufferPool,
    /// Per-rank engine counters accumulated across the round loop
    /// (local facts only — filling them never moves virtual time).
    pub(super) scratch: OpMetrics,
    /// World-recycler counters at open; [`close`] reports the delta.
    recycle0: RecycleStats,
    /// Aggregation buffers held for the whole operation.
    reservations: Vec<Reservation>,
}

impl OpState {
    /// Releases every aggregation buffer this rank holds, with the
    /// paired `mem.release` trace marks. Used when this rank's
    /// aggregator role dies mid-operation (the replacement re-reserves)
    /// and on the collective error path out of recovery, so occupancy
    /// timelines stay balanced even when [`close`] never runs.
    pub(super) fn release_reservations(&mut self, ctx: &Ctx, env: &IoEnv) {
        let obs = env.obs();
        if obs.is_enabled() {
            for r in &self.reservations {
                mark_mem_event(obs, ctx.rank() as u32, "mem.release", ctx.clock(), env, r);
                obs.counter_add("mem.release.bytes", r.bytes());
            }
        }
        self.reservations.clear();
    }

    /// Adopts a mid-operation reservation (a re-elected aggregator's
    /// buffer for a domain inherited from a dead rank), with the same
    /// `mem.reserve` trace mark the prologue emits.
    pub(super) fn adopt_reservation(&mut self, ctx: &Ctx, env: &IoEnv, r: Reservation) {
        let obs = env.obs();
        if obs.is_enabled() {
            mark_mem_event(obs, ctx.rank() as u32, "mem.reserve", ctx.clock(), env, &r);
            obs.counter_add("mem.reserve.bytes", r.bytes());
        }
        self.reservations.push(r);
    }
}

/// Marks one aggregation-buffer accounting event (`mem.reserve` /
/// `mem.release`) on the recording rank's track. Each event carries the
/// node, the delta, and the node's current ceiling (capacity minus
/// application usage), so an occupancy timeline can be reconstructed
/// exactly from the trace — every reserve is paired with a release, and
/// the ceiling steps when fault revocations move it.
fn mark_mem_event(
    obs: &ObsSink,
    rank: u32,
    name: &'static str,
    at: VTime,
    env: &IoEnv,
    r: &Reservation,
) {
    obs.instant(
        rank,
        name,
        "mem",
        at,
        &[
            ("node", AttrValue::U64(r.node() as u64)),
            ("bytes", AttrValue::U64(r.bytes())),
            ("ceiling", AttrValue::U64(env.mem.ceiling(r.node()))),
        ],
    );
    obs.counter_add(name, 1);
}

/// Marks fault events applied by this rank on the trace's engine track.
pub(super) fn mark_fault_events(obs: &ObsSink, fired: &[TimedEvent]) {
    if !obs.is_enabled() {
        return;
    }
    for timed in fired {
        match timed.event {
            FaultEvent::RevokeMemory { node, bytes }
            | FaultEvent::RestoreMemory { node, bytes } => {
                let name = if matches!(timed.event, FaultEvent::RevokeMemory { .. }) {
                    "fault.mem.revoke"
                } else {
                    "fault.mem.restore"
                };
                obs.instant(
                    ENGINE_TRACK,
                    name,
                    "fault",
                    timed.at,
                    &[
                        ("node", AttrValue::U64(node as u64)),
                        ("bytes", AttrValue::U64(bytes)),
                    ],
                );
                obs.counter_add("fault.mem.events", 1);
            }
            FaultEvent::RankCrash { rank } | FaultEvent::RankRecover { rank } => {
                let name = if matches!(timed.event, FaultEvent::RankCrash { .. }) {
                    "fault.rank.crash"
                } else {
                    "fault.rank.recover"
                };
                obs.instant(
                    ENGINE_TRACK,
                    name,
                    "fault",
                    timed.at,
                    &[("rank", AttrValue::U64(rank as u64))],
                );
                obs.counter_add("fault.rank.events", 1);
            }
        }
    }
}

/// The shared prologue: invariants, clock sync, due fault events, and
/// the (collective, under faults) aggregation-buffer reservation.
///
/// # Errors
/// Returns [`SimError::TransientIo`] when aggregation memory cannot be
/// reserved within the retry budget; the verdict is collective, so every
/// rank returns `Err` together.
pub(super) fn open(
    ctx: &mut Ctx,
    env: &IoEnv,
    plan: &CollectivePlan,
    res: &mut Resilience,
) -> SimResult<OpState> {
    plan.assert_invariants();
    let active = env.faults().is_active();
    let world = ctx.world_ranks();
    let me = ctx.rank();
    let t0 = ctx.group_sync_clocks(&world);
    if active {
        ctx.world().set_ctl_delay(env.faults().plan().ctl_delay);
        let fired = env.faults().apply_due(ctx.clock(), &env.mem);
        mark_fault_events(env.obs(), &fired);
        ctx.group_barrier(&world);
    }

    // Aggregators reserve their buffers for the whole operation. The
    // healthy path pages infallibly (pressure, not failure); under a
    // fault plan reservation is collective and can be refused.
    let my_demands: Vec<u64> = plan
        .domains_of(me)
        .map(|di| plan.domains[di].buffer)
        .collect();
    let reservations: Vec<Reservation> = if active {
        reserve_collectively(ctx, env, &world, &my_demands, res)?
    } else {
        my_demands
            .iter()
            .map(|&bytes| env.mem.reserve(ctx.node(), bytes))
            .collect()
    };
    ctx.group_barrier(&world);
    let faults = if active {
        env.faults().take_io_faults(me)
    } else {
        IoFaults::none()
    };
    let obs = env.obs();
    if obs.is_enabled() {
        for r in &reservations {
            mark_mem_event(obs, me as u32, "mem.reserve", ctx.clock(), env, r);
            obs.counter_add("mem.reserve.bytes", r.bytes());
        }
        obs.span(
            me as u32,
            "prologue",
            "engine",
            t0,
            ctx.clock() - t0,
            &[("reservations", AttrValue::U64(reservations.len() as u64))],
        );
    }
    Ok(OpState {
        world,
        t0,
        active,
        faults,
        pool: BufferPool::backed(Arc::clone(ctx.world().recycler())),
        scratch: OpMetrics::default(),
        recycle0: ctx.world().recycler().stats(),
        reservations,
    })
}

/// The shared epilogue: releases the aggregation buffers, parks the
/// fault stream, folds revocations into `res`, and builds the report.
pub(super) fn close(
    ctx: &mut Ctx,
    env: &IoEnv,
    state: OpState,
    bytes: u64,
    res: &mut Resilience,
) -> IoReport {
    assert_eq!(
        state.pool.loans_outstanding(),
        0,
        "buffer-pool loan leaked out of the round loop"
    );
    // Retire the op pool now so its free list drains into the world
    // recycler before we snapshot the recycler's counters below.
    let pstats = state.pool.finish();
    let recycle = ctx.world().recycler().stats();
    if env.obs().is_enabled() {
        // The paired half of the prologue's `mem.reserve` marks: every
        // buffer held for the operation releases here, at the virtual
        // time the epilogue runs, so occupancy timelines balance to zero.
        for r in &state.reservations {
            mark_mem_event(
                env.obs(),
                ctx.rank() as u32,
                "mem.release",
                ctx.clock(),
                env,
                r,
            );
            env.obs().counter_add("mem.release.bytes", r.bytes());
        }
    }
    drop(state.reservations);
    ctx.group_barrier(&state.world);
    if state.active {
        env.faults().return_io_faults(ctx.rank(), state.faults, res);
        res.revocations += env
            .faults()
            .plan()
            .revocations_between(state.t0, ctx.clock());
    }
    let mut metrics = crate::resilience::mem_metrics(env);
    metrics.rounds = state.scratch.rounds;
    metrics.shuffle_bytes = state.scratch.shuffle_bytes;
    metrics.storage_requests = state.scratch.storage_requests;
    metrics.storage_bytes = state.scratch.storage_bytes;
    metrics.pool_hits = pstats.hits;
    metrics.pool_misses = pstats.misses;
    metrics.recycle_takes = pstats.recycle_takes;
    metrics.recycle_returns = pstats.recycle_returns;
    metrics.payload_peak_bytes = pstats.peak_bytes;
    let obs = env.obs();
    if obs.is_enabled() {
        obs.counter_add("pool.hits", pstats.hits);
        obs.counter_add("pool.misses", pstats.misses);
        obs.counter_add("recycle.takes", pstats.recycle_takes);
        obs.counter_add("recycle.returns", pstats.recycle_returns);
        // Recycler hit/miss splits and live-byte marks are world-global
        // (and scheduling-dependent under the threaded executor), so one
        // rank reports them as gauges — observability, never compared
        // bit-for-bit.
        if ctx.rank() == 0 {
            obs.gauge_set(
                "recycle.hits",
                (recycle.hits.saturating_sub(state.recycle0.hits)) as f64,
            );
            obs.gauge_set(
                "recycle.misses",
                (recycle.misses.saturating_sub(state.recycle0.misses)) as f64,
            );
            obs.gauge_max("recycle.peak_live_bytes", recycle.peak_live_bytes as f64);
            obs.gauge_set("recycle.retained_bytes", recycle.retained_bytes as f64);
            let slab = mccio_net::slab_stats();
            obs.gauge_set("exec.stacks_reused", slab.reused as f64);
            obs.gauge_set("exec.stacks_fresh", slab.fresh as f64);
        }
        // One rank snapshots the per-node memory high-water marks so the
        // registry's histogram (and its CoV) reflects each node once per
        // operation, not once per rank.
        if ctx.rank() == 0 {
            for node in 0..env.mem.n_nodes() {
                let peak = env.mem.peak_reserved(node);
                if peak > 0 {
                    obs.observe("mem.node_peak_bytes", peak);
                    obs.counter_sample(
                        ENGINE_TRACK,
                        "mem.peak_reserved",
                        "mem",
                        ctx.clock(),
                        peak as f64,
                        &[("node", AttrValue::U64(node as u64))],
                    );
                }
            }
        }
    }
    IoReport::builder(bytes)
        .elapsed(ctx.clock() - state.t0)
        .resilience(*res)
        .metrics(metrics)
        .build()
}

/// Collectively reserves this rank's aggregation buffers under the
/// fault plan's retry policy.
///
/// Success is all-or-nothing across the world: if any rank cannot fit
/// its buffers, everyone releases, advances a uniform backoff in virtual
/// time (during which a scheduled memory restoration may land), and
/// retries. The verdict is an allreduce, so every rank returns the same
/// way — `Err` here is a *collective* decision the degradation ladder
/// can act on without divergence.
///
/// Success itself is schedule-independent: per node, all `try_reserve`
/// calls succeed iff the node's total demand fits its free memory, no
/// matter the order ranks interleave in.
fn reserve_collectively(
    ctx: &mut Ctx,
    env: &IoEnv,
    world: &RankSet,
    demands: &[u64],
    res: &mut Resilience,
) -> SimResult<Vec<Reservation>> {
    let policy = env.faults().plan().retry;
    for attempt in 0..policy.max_attempts {
        let mut held = Vec::with_capacity(demands.len());
        let mut ok = true;
        for &bytes in demands {
            match env.mem.try_reserve(ctx.node(), bytes) {
                Some(r) => held.push(r),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        let anyone_failed = ctx.group_allreduce_max_f64(world, if ok { 0.0 } else { 1.0 }) > 0.0;
        if !anyone_failed {
            return Ok(held);
        }
        drop(held);
        // All partial reservations must be back before anyone retries.
        ctx.group_barrier(world);
        if attempt + 1 < policy.max_attempts {
            let pause = policy.backoff(attempt);
            ctx.advance(pause);
            res.retries += 1;
            res.backoff += pause;
            env.obs().instant(
                ctx.rank() as u32,
                "reserve.retry",
                "mem",
                ctx.clock(),
                &[("attempt", AttrValue::U64(u64::from(attempt)))],
            );
            env.obs().counter_add("reserve.retries", 1);
            // A restoration event may fire during the pause and rescue
            // the next attempt.
            let fired = env.faults().apply_due(ctx.clock(), &env.mem);
            mark_fault_events(env.obs(), &fired);
            ctx.group_barrier(world);
        }
    }
    res.exhausted += 1;
    env.obs().instant(
        ctx.rank() as u32,
        "reserve.exhausted",
        "mem",
        ctx.clock(),
        &[],
    );
    env.obs().counter_add("reserve.exhausted", 1);
    Err(SimError::TransientIo {
        attempts: policy.max_attempts,
    })
}

/// Drives one aggregator storage access to completion: retries inside
/// `op` are governed by `faults`; a drained retry budget escalates — a
/// policy-wide pause charged as backoff, then a full re-drive — up to
/// [`MAX_ESCALATIONS`]. Collective correctness depends on this never
/// returning failure: a per-rank error here would desynchronize the
/// lock-step rounds, so a plan hostile enough to defeat escalation is a
/// configuration error and panics.
pub(super) fn drive_storage<T>(
    faults: &mut IoFaults,
    mut op: impl FnMut(&mut IoFaults) -> SimResult<T>,
) -> T {
    let _t = mccio_sim::hostprof::timer(mccio_sim::hostprof::HostPhase::StorageHop);
    let policy = faults.policy();
    for _ in 0..MAX_ESCALATIONS {
        match op(faults) {
            Ok(out) => return out,
            Err(_) => {
                faults.log.backoff += policy.backoff(policy.max_attempts.saturating_sub(1));
            }
        }
    }
    panic!(
        "aggregator storage access failed {MAX_ESCALATIONS} consecutive escalations; \
         the fault plan's failure rate defeats its retry policy"
    );
}
