//! The lock-step round engine: executes any [`CollectivePlan`].
//!
//! Both strategies reduce to the same execution shape, the two phases of
//! two-phase collective I/O run `rounds` times:
//!
//! * **write round**: every rank clips its request against each active
//!   domain window and ships the pieces to the window's aggregator
//!   (shuffle); aggregators assemble the pieces and issue one sieved
//!   storage access per window (I/O);
//! * **read round**: aggregators fetch their windows with one sieved
//!   access and scatter the pieces back to the requesting ranks.
//!
//! Bytes move for real (the tests check round trips bit-for-bit). Time
//! is charged once per round, computed at the world root from the
//! gathered round facts — the exchange flow list, every aggregator's
//! storage [`mccio_pfs::ServiceReport`], assembled-buffer volumes, and
//! the memory model's current pressure factors — and broadcast, so
//! virtual time is a pure function of the plan and never of thread
//! scheduling.
//!
//! Before the first byte moves, the executor builds the operation's
//! [`crate::schedule::CommSchedule`] — per round: send destinations
//! with exact wire sizes, receive lists, each aggregated window's union
//! layout and assembly size, and where every piece sits in its owner's
//! packed buffer. The round loop is then pure data movement: each rank
//! exposes its request (write) or output (read) through the world's
//! exposure table (`mccio_net::expose`) and aggregators copy every byte
//! once per direction, straight between those buffers and the file;
//! shuffle messages carry the wire sizes, not the bytes. Assembly
//! buffers for windows with holes are recycled through a bounded pool
//! instead of reallocated per window per round. The schedule
//! reproduces the legacy per-round discovery exactly, so virtual time,
//! file bytes, and traffic are bit-identical
//! (`tests/golden_determinism.rs`) while wall-clock and memory drop
//! (measured by the workspace benchmark, `perfbench/`).
//!
//! The module tree separates the phases every operation shares from the
//! one thing that differs between directions:
//!
//! * [`env`](self) — [`IoEnv`], the environment operations run against;
//! * `wire` — the crash-gated integrity hash shuffle messages carry and
//!   the fact codec of pricing messages;
//! * `pool` — the bounded buffer free-list the round loop recycles
//!   assembly buffers through;
//! * `prologue` — clock sync, fault application, collective reservation,
//!   and the matching epilogue;
//! * `rounds` — the single direction-agnostic round executor, driven by
//!   an `Op::Write`/`Op::Read` data-plane parameter over the schedule;
//! * `recover` — crash detection, aggregator re-election, and mid-op
//!   re-planning when the fault plan schedules rank crashes;
//! * `settle` — round pricing at the world root.

mod env;
mod pool;
mod prologue;
mod recover;
mod rounds;
mod settle;
mod wire;

pub use env::IoEnv;
pub(crate) use wire::CHECKSUM_TRAILER;

use mccio_mpiio::{ExtentList, GroupPattern, IoReport, Resilience};
use mccio_net::Ctx;
use mccio_pfs::FileHandle;
use mccio_sim::error::SimResult;

use crate::plan::CollectivePlan;

use rounds::{execute_op, Op};

/// Executes a collective write of `data` (this rank's extents packed in
/// offset order). SPMD: every rank of the world calls this with the same
/// `plan` and `pattern`.
///
/// Infallible facade over [`try_execute_write`] for healthy
/// environments.
///
/// # Panics
/// Panics if the environment carries an active fault plan and
/// aggregation memory cannot be reserved within the retry budget —
/// callers running under faults should use the degradation ladder
/// (`crate::resilience::ladder_write`) or [`try_execute_write`]
/// directly.
pub fn execute_write(
    ctx: &mut Ctx,
    env: &IoEnv,
    handle: &FileHandle,
    plan: &CollectivePlan,
    pattern: &GroupPattern,
    my_extents: &ExtentList,
    data: &[u8],
) -> IoReport {
    let mut res = Resilience::default();
    try_execute_write(ctx, env, handle, plan, pattern, my_extents, data, &mut res)
        .expect("collective write failed: aggregation memory unavailable after retries")
}

/// Fallible collective write: the engine under an active fault plan.
///
/// Accumulates everything endured into `res` (which the returned
/// report's `resilience` mirrors on success) so a caller falling down
/// the degradation ladder keeps the counts from failed rungs.
///
/// # Errors
/// Returns [`mccio_sim::error::SimError::TransientIo`] when aggregation
/// memory cannot be reserved within the retry budget. The decision is
/// collective: every rank returns `Err` together.
#[allow(clippy::too_many_arguments)]
pub fn try_execute_write(
    ctx: &mut Ctx,
    env: &IoEnv,
    handle: &FileHandle,
    plan: &CollectivePlan,
    pattern: &GroupPattern,
    my_extents: &ExtentList,
    data: &[u8],
    res: &mut Resilience,
) -> SimResult<IoReport> {
    let (_, report) = execute_op(
        ctx,
        env,
        handle,
        plan,
        pattern,
        my_extents,
        Op::Write { data },
        res,
    )?;
    Ok(report)
}

/// Executes a collective read; returns this rank's data packed in extent
/// offset order. SPMD like [`execute_write`].
///
/// # Panics
/// Like [`execute_write`], panics if an active fault plan defeats
/// reservation — use the ladder entry points or [`try_execute_read`].
pub fn execute_read(
    ctx: &mut Ctx,
    env: &IoEnv,
    handle: &FileHandle,
    plan: &CollectivePlan,
    pattern: &GroupPattern,
    my_extents: &ExtentList,
) -> (Vec<u8>, IoReport) {
    let mut res = Resilience::default();
    try_execute_read(ctx, env, handle, plan, pattern, my_extents, &mut res)
        .expect("collective read failed: aggregation memory unavailable after retries")
}

/// Fallible collective read; see [`try_execute_write`].
///
/// # Errors
/// Returns [`mccio_sim::error::SimError::TransientIo`] when aggregation
/// memory cannot be reserved within the retry budget, collectively on
/// every rank.
pub fn try_execute_read(
    ctx: &mut Ctx,
    env: &IoEnv,
    handle: &FileHandle,
    plan: &CollectivePlan,
    pattern: &GroupPattern,
    my_extents: &ExtentList,
    res: &mut Resilience,
) -> SimResult<(Vec<u8>, IoReport)> {
    let (out, report) = execute_op(ctx, env, handle, plan, pattern, my_extents, Op::Read, res)?;
    Ok((out.expect("read always produces an output buffer"), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::DomainPlan;
    use mccio_mem::MemoryModel;
    use mccio_mpiio::Extent;
    use mccio_net::{RankSet, World};
    use mccio_pfs::{FileSystem, PfsParams};
    use mccio_sim::cost::CostModel;
    use mccio_sim::topology::{test_cluster, FillOrder, Placement};

    fn env() -> IoEnv {
        let cluster = test_cluster(2, 2);
        IoEnv::new(
            FileSystem::new(4, 64, PfsParams::default()),
            MemoryModel::pristine(&cluster),
        )
    }

    fn world() -> std::sync::Arc<World> {
        let cluster = test_cluster(2, 2);
        let placement = Placement::new(&cluster, 4, FillOrder::Block).unwrap();
        World::new(CostModel::new(cluster), placement)
    }

    fn simple_plan(range: Extent, buffer: u64, aggs: &[usize]) -> CollectivePlan {
        let n = aggs.len() as u64;
        let chunk = range.len.div_ceil(n);
        CollectivePlan {
            domains: aggs
                .iter()
                .enumerate()
                .map(|(i, &a)| {
                    let off = range.offset + i as u64 * chunk;
                    let len = chunk.min(range.end().saturating_sub(off));
                    DomainPlan {
                        domain: Extent::new(off, len),
                        aggregator: a,
                        buffer,
                        group: 0,
                    }
                })
                .collect(),
        }
    }

    fn rank_extents(rank: usize) -> ExtentList {
        // Interleaved 32-byte blocks, 8 per rank over 4 ranks.
        ExtentList::normalize(
            (0..8u64)
                .map(|i| Extent::new((i * 4 + rank as u64) * 32, 32))
                .collect(),
        )
    }

    fn rank_data(rank: usize) -> Vec<u8> {
        (0..256u32)
            .map(|i| (i as u8).wrapping_mul(7).wrapping_add(rank as u8 * 31))
            .collect()
    }

    #[test]
    fn write_read_roundtrip_multiround() {
        let w = world();
        let e = env();
        let reports = w.run(|ctx| {
            let env = e.clone();
            let handle = env.fs.open_or_create("f");
            let extents = rank_extents(ctx.rank());
            let data = rank_data(ctx.rank());
            let pattern = GroupPattern::gather(ctx, &RankSet::world(4), &extents);
            // Two aggregators, small buffers → several rounds.
            let plan = simple_plan(pattern.global_range().unwrap(), 100, &[0, 2]);
            assert!(plan.rounds() > 1);
            let wr = execute_write(ctx, &env, &handle, &plan, &pattern, &extents, &data);
            let (back, rr) = execute_read(ctx, &env, &handle, &plan, &pattern, &extents);
            assert_eq!(back, data, "rank {} roundtrip", ctx.rank());
            (wr, rr)
        });
        for (wr, rr) in reports {
            assert_eq!(wr.bytes, 256);
            assert!(wr.elapsed.as_secs() > 0.0);
            assert!(rr.elapsed.as_secs() > 0.0);
        }
    }

    #[test]
    fn file_contents_match_global_layout() {
        let w = world();
        let e = env();
        let _ = w.run(|ctx| {
            let env = e.clone();
            let handle = env.fs.open_or_create("g");
            let extents = rank_extents(ctx.rank());
            let data = rank_data(ctx.rank());
            let pattern = GroupPattern::gather(ctx, &RankSet::world(4), &extents);
            let plan = simple_plan(pattern.global_range().unwrap(), 1 << 20, &[1]);
            let _ = execute_write(ctx, &env, &handle, &plan, &pattern, &extents, &data);
        });
        // Check the file directly against the generators.
        let handle = e.fs.open("g").unwrap();
        assert_eq!(handle.len(), 4 * 256);
        let (all, _) = handle.read_at(0, 1024);
        for rank in 0..4usize {
            let data = rank_data(rank);
            for (ext, range) in rank_extents(rank).with_buffer_ranges() {
                assert_eq!(
                    &all[ext.offset as usize..ext.end() as usize],
                    &data[range],
                    "rank {rank} extent {ext:?}"
                );
            }
        }
    }

    #[test]
    fn sparse_pattern_with_idle_ranks() {
        let w = world();
        let e = env();
        let _ = w.run(|ctx| {
            let env = e.clone();
            let handle = env.fs.open_or_create("sparse");
            let extents = if ctx.rank() == 2 {
                ExtentList::normalize(vec![Extent::new(1000, 64), Extent::new(5000, 64)])
            } else {
                ExtentList::default()
            };
            let data = vec![0xCDu8; extents.total_bytes() as usize];
            let pattern = GroupPattern::gather(ctx, &RankSet::world(4), &extents);
            let plan = simple_plan(pattern.global_range().unwrap(), 512, &[0, 3]);
            let _ = execute_write(ctx, &env, &handle, &plan, &pattern, &extents, &data);
            let (back, _) = execute_read(ctx, &env, &handle, &plan, &pattern, &extents);
            assert_eq!(back, data);
        });
        let handle = e.fs.open("sparse").unwrap();
        let (b, _) = handle.read_at(1000, 64);
        assert!(b.iter().all(|&x| x == 0xCD));
        let (hole, _) = handle.read_at(1064, 100);
        assert!(hole.iter().all(|&x| x == 0));
    }

    #[test]
    fn overlapping_reads_fan_out() {
        let w = world();
        let e = env();
        let _ = w.run(|ctx| {
            let env = e.clone();
            let handle = env.fs.open_or_create("shared");
            if ctx.rank() == 0 {
                handle.write_at(0, &(0..=255u8).collect::<Vec<_>>());
            }
            ctx.barrier();
            // Every rank reads the same 256 bytes.
            let extents = ExtentList::normalize(vec![Extent::new(0, 256)]);
            let pattern = GroupPattern::gather(ctx, &RankSet::world(4), &extents);
            let plan = simple_plan(pattern.global_range().unwrap(), 64, &[1]);
            let (back, _) = execute_read(ctx, &env, &handle, &plan, &pattern, &extents);
            assert_eq!(back, (0..=255u8).collect::<Vec<_>>());
        });
    }

    #[test]
    fn empty_plan_is_a_noop() {
        let w = world();
        let e = env();
        let reports = w.run(|ctx| {
            let env = e.clone();
            let handle = env.fs.open_or_create("empty");
            let extents = ExtentList::default();
            let pattern = GroupPattern::gather(ctx, &RankSet::world(4), &extents);
            let plan = CollectivePlan::default();
            execute_write(ctx, &env, &handle, &plan, &pattern, &extents, &[])
        });
        for r in reports {
            assert_eq!(r.bytes, 0);
        }
    }

    #[test]
    fn virtual_time_is_deterministic_across_runs() {
        let run = || {
            let w = world();
            let e = env();
            let reports = w.run(|ctx| {
                let env = e.clone();
                let handle = env.fs.open_or_create("det");
                let extents = rank_extents(ctx.rank());
                let data = rank_data(ctx.rank());
                let pattern = GroupPattern::gather(ctx, &RankSet::world(4), &extents);
                let plan = simple_plan(pattern.global_range().unwrap(), 128, &[0, 2]);
                execute_write(ctx, &env, &handle, &plan, &pattern, &extents, &data)
            });
            reports
                .into_iter()
                .map(|r| r.elapsed.as_secs())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn memory_pressure_slows_the_same_plan() {
        // Big enough volumes that DRAM time is visible next to the
        // storage terms: each rank writes 2 MiB contiguously.
        let elapsed_with = |mem: MemoryModel| {
            let w = world();
            let e = IoEnv::new(FileSystem::new(4, 1 << 16, PfsParams::default()), mem);
            let reports = w.run(|ctx| {
                let env = e.clone();
                let handle = env.fs.open_or_create("p");
                let r = ctx.rank() as u64;
                let extents = ExtentList::normalize(vec![Extent::new(r * (2 << 20), 2 << 20)]);
                let data = vec![r as u8 + 1; 2 << 20];
                let pattern = GroupPattern::gather(ctx, &RankSet::world(4), &extents);
                // Aggregator rank 0 sits on node 0 with a huge buffer.
                let plan = simple_plan(pattern.global_range().unwrap(), 16 << 20, &[0]);
                execute_write(ctx, &env, &handle, &plan, &pattern, &extents, &data)
            });
            reports[0].elapsed.as_secs()
        };
        let cluster = test_cluster(2, 2);
        let healthy = elapsed_with(MemoryModel::pristine(&cluster));
        // Node 0 completely full: the 1 MiB reservation pages entirely.
        let starved = elapsed_with(MemoryModel::build(
            &cluster,
            |n, cap| if n == 0 { cap } else { 0 },
            mccio_mem::MemParams::default(),
        ));
        assert!(
            starved > healthy * 2.0,
            "pressure must slow the op: healthy {healthy}, starved {starved}"
        );
    }
}
