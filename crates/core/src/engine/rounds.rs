//! The direction-agnostic round loop, driven by the plan-time
//! communication schedule.
//!
//! One executor ([`execute_op`]) runs both directions of two-phase
//! collective I/O; the data plane — which bytes this rank contributes
//! before the shuffle and which bytes it absorbs after — is the only
//! thing [`Op`] varies:
//!
//! * [`Op::Write`]: clients send each window's aggregator one message
//!   per round (shuffle); aggregators store each window with one priced
//!   storage access, copying the scheduled pieces straight out of the
//!   clients' packed requests — into the file when the union is
//!   hole-free, into an assembly buffer sieved back when it is not;
//! * [`Op::Read`]: aggregators fetch their windows with one priced
//!   access (a zero-copy file view when hole-free, a sieved read
//!   otherwise), copy the scheduled pieces straight into the requesting
//!   ranks' outputs, and send each one message.
//!
//! Each byte is copied once per direction: every rank exposes its
//! request (write) or its output (read) through the world's exposure
//! table for the whole operation (`mccio_net::expose`), and the
//! messages carry the scheduled wire sizes, not the bytes — under a
//! crash plan, the FNV-1a of the source ranges they stand for.
//!
//! Nothing is discovered here: send destinations, receive lists, piece
//! routings, union layouts, and buffer sizes all come from the
//! [`CommSchedule`] built once per operation, so the loop is pure data
//! movement, with assembly buffers recycled through the [`BufferPool`]
//! instead of reallocated per window per round. Everything else —
//! prologue, reservation, exchange, pricing, epilogue — is shared code
//! in the sibling modules, which keeps the comparison between strategies
//! honest and every future engine capability paid for exactly once.

use std::sync::Arc;

use mccio_mpiio::sieve::{sieved_read_into, sieved_write_r};
use mccio_mpiio::{Extent, ExtentList, GroupPattern, IoReport, Resilience};
use mccio_net::{Ctx, Exposed, ExposureTable};
use mccio_obs::{AttrValue, ENGINE_TRACK};
use mccio_pfs::{FileHandle, IoFaults, ServiceReport};
use mccio_sim::error::SimResult;

use crate::plan::CollectivePlan;
use crate::schedule::{CommSchedule, RoundSchedule, SendDst, WindowSchedule};

use super::env::IoEnv;
use super::pool::BufferPool;
use super::prologue::{self, drive_storage};
use super::recover::CrashTracker;
use super::settle::settle_round;
use super::wire::{check_hash, fnv1a, hash_body, retry_delta, FNV_BASIS};

/// The data plane of a collective operation: what varies between the
/// write and read directions of the round loop.
#[derive(Clone, Copy)]
pub(super) enum Op<'d> {
    /// Aggregators copy `data` (this rank's extents packed in offset
    /// order) into the file.
    Write {
        /// This rank's request, packed in extent offset order.
        data: &'d [u8],
    },
    /// Aggregators fetch their windows and copy the pieces into the
    /// requesting ranks' outputs.
    Read,
}

/// Mutable per-round facts both directions fill in and settle with.
#[derive(Default)]
pub(super) struct RoundFacts {
    /// `(dst, bytes)` flows this rank sends this round (recovery
    /// prepends the interrupted round's lost flows so the replay is
    /// priced).
    pub(super) flows: Vec<(usize, u64)>,
    /// Bytes this rank assembled in aggregation buffers.
    pub(super) assembled: u64,
    /// Message hashes this rank verified (crash-gated, else zero).
    pub(super) integrity: u64,
}

/// Executes one collective operation of either direction. SPMD: every
/// rank of the world calls in with the same `plan` and `pattern`.
/// Returns this rank's packed data for [`Op::Read`], `None` for
/// [`Op::Write`].
///
/// # Errors
/// Returns [`mccio_sim::error::SimError::TransientIo`] when aggregation
/// memory cannot be reserved within the retry budget, collectively on
/// every rank.
#[allow(clippy::too_many_arguments)]
pub(super) fn execute_op(
    ctx: &mut Ctx,
    env: &IoEnv,
    handle: &FileHandle,
    plan: &CollectivePlan,
    pattern: &GroupPattern,
    my_extents: &ExtentList,
    op: Op<'_>,
    res: &mut Resilience,
) -> SimResult<(Option<Vec<u8>>, IoReport)> {
    // The exposure spans the whole op: it opens before the prologue's
    // first collective and closes after the epilogue, so every peer's
    // access — each ordered before its own round's settlement — lands
    // inside it (see `mccio_net::expose`).
    let world = Arc::clone(ctx.world());
    let table = world.exposure();
    let me = ctx.rank();
    let run = |ctx: &mut Ctx, res: &mut Resilience| {
        run_rounds(ctx, env, table, handle, plan, pattern, my_extents, op, res)
    };
    match op {
        Op::Write { data } => {
            debug_assert!(data.len() as u64 >= my_extents.total_bytes());
            let report = table.scope(me, Exposed::Source(data), || run(ctx, res))?;
            Ok((None, report))
        }
        Op::Read => {
            let mut out = vec![0u8; my_extents.total_bytes() as usize];
            let report = table.scope(me, Exposed::Sink(&mut out), || run(ctx, res))?;
            Ok((Some(out), report))
        }
    }
}

/// The op inside its exposure scope: prologue, rounds, epilogue.
#[allow(clippy::too_many_arguments)]
fn run_rounds(
    ctx: &mut Ctx,
    env: &IoEnv,
    table: &ExposureTable,
    handle: &FileHandle,
    plan: &CollectivePlan,
    pattern: &GroupPattern,
    my_extents: &ExtentList,
    op: Op<'_>,
    res: &mut Resilience,
) -> SimResult<IoReport> {
    let mut state = prologue::open(ctx, env, plan, res)?;
    let me = ctx.rank();
    // Arm causal tracing on the world the first time an op runs with a
    // causal-enabled sink; installation is idempotent and the hook is a
    // pure observer, so the engine's virtual time never moves.
    if let Some(hook) = env.obs().causal_hook() {
        ctx.world().install_causal(hook);
    }
    // Everything crash recovery needs — message hashes, the agreed
    // clock, the mutable live plan — is gated on the plan actually
    // scheduling crashes, so crash-free runs execute the exact healthy
    // path (bit-identical goldens).
    let integrity = env.faults().plan().has_crashes();
    let mut schedule = {
        let _t = mccio_sim::hostprof::timer(mccio_sim::hostprof::HostPhase::ScheduleBuild);
        CommSchedule::build_with_integrity(plan, pattern, me, my_extents, integrity)
    };
    let mut tracker = CrashTracker::begin(ctx, env, &state.world);
    let mut live_plan = tracker.as_ref().map(|_| plan.clone());
    let obs = env.obs().clone();
    if obs.is_enabled() {
        obs.instant(
            me as u32,
            "schedule",
            "plan",
            ctx.clock(),
            &[
                ("rounds", AttrValue::U64(schedule.rounds.len() as u64)),
                ("client_bytes", AttrValue::U64(schedule.client_bytes())),
                (
                    "assembled_bytes",
                    AttrValue::U64(schedule.assembled_bytes()),
                ),
            ],
        );
    }
    let n_rounds = schedule.rounds.len();
    for round in 0..n_rounds {
        let log_before = state.faults.log;
        let mut report = ServiceReport::empty(env.fs.n_servers());
        let mut facts = RoundFacts::default();

        // --- recover: detect crashes, re-elect, re-plan (crash-gated) ---
        if let Some(t) = tracker.as_mut() {
            let live = live_plan.as_mut().expect("tracker implies a live plan");
            if let Err(e) = t.begin_round(
                ctx,
                env,
                &mut state,
                live,
                pattern,
                my_extents,
                &mut schedule,
                round as u64,
                matches!(op, Op::Write { .. }),
                &mut facts,
                res,
            ) {
                // Collective failure: every rank returns together.
                // Release with trace marks so occupancy balances even
                // though the epilogue never runs on this path.
                state.release_reservations(ctx, env);
                return Err(e);
            }
        }
        let rs = &schedule.rounds[round];

        // --- contribute: what this rank puts on the wire ---
        let (sends, recv_from) = match op {
            Op::Write { data } => (
                client_sends(rs, data, &mut facts, integrity),
                rs.agg_sources.as_slice(),
            ),
            Op::Read => (
                fetch_and_scatter(
                    table,
                    handle,
                    rs,
                    &mut state.faults,
                    &mut report,
                    &mut facts,
                    &state.pool,
                    integrity,
                ),
                rs.client_sources.as_slice(),
            ),
        };

        // --- shuffle: the one exchange both directions share ---
        let received = ctx.exchange(&state.world, sends, recv_from);

        // --- absorb: what this rank does with what arrived ---
        match op {
            Op::Write { .. } => aggregate_and_store(
                table,
                handle,
                rs,
                &received,
                &mut state.faults,
                &mut report,
                &mut facts,
                &state.pool,
                integrity,
            ),
            Op::Read if integrity => verify_scatter(table, me, rs, &received, &mut facts),
            Op::Read => {}
        }

        let delta = retry_delta(state.faults.log, log_before);
        let sent: u64 = facts.flows.iter().map(|&(_, b)| b).sum();
        state.scratch.rounds += 1;
        state.scratch.shuffle_bytes += sent;
        state.scratch.storage_requests += report.total_requests();
        state.scratch.storage_bytes += report.total_bytes();
        if obs.is_enabled() {
            // Rank clocks stand still between settlements, so per-rank
            // round facts are zero-duration marks at the round's start.
            obs.instant(
                me as u32,
                "rank.round",
                "engine",
                ctx.clock(),
                &[
                    ("sent_bytes", AttrValue::U64(sent)),
                    ("assembled_bytes", AttrValue::U64(facts.assembled)),
                    ("storage_requests", AttrValue::U64(report.total_requests())),
                    ("storage_bytes", AttrValue::U64(report.total_bytes())),
                    ("retries", AttrValue::U64(delta.retries)),
                ],
            );
            obs.counter_add("shuffle.bytes", sent);
            obs.counter_add("storage.requests", report.total_requests());
            obs.counter_add("storage.bytes", report.total_bytes());
        }

        res.integrity_verified += facts.integrity;
        let settled = settle_round(
            ctx,
            env,
            &state.world,
            &facts.flows,
            &report,
            facts.assembled,
            delta,
            matches!(op, Op::Write { .. }),
            facts.integrity,
        );
        if let Some(t) = tracker.as_mut() {
            t.advance(settled);
        }
    }

    let t0 = state.t0;
    let bytes = my_extents.total_bytes();
    let rounds = state.scratch.rounds;
    let report = prologue::close(ctx, env, state, bytes, res);
    if obs.is_enabled() && me == 0 {
        let dir = match op {
            Op::Write { .. } => "write",
            Op::Read => "read",
        };
        obs.span(
            ENGINE_TRACK,
            "op",
            "engine",
            t0,
            ctx.clock() - t0,
            &[
                ("dir", AttrValue::Str(dir)),
                ("bytes", AttrValue::U64(bytes)),
                ("rounds", AttrValue::U64(rounds)),
            ],
        );
        obs.counter_add("op.count", 1);
        // Walk the causal frontier back from this op's end: the blame
        // chain's [t0, clock] window is exactly the op span above, so
        // its total is bit-equal to the span duration by construction.
        obs.causal_op_end(t0, ctx.clock(), dir);
    }
    Ok(report)
}

/// One message per destination at its scheduled wire size. Bodies are
/// empty, or under a crash plan (`hashes` non-empty) each carries its
/// destination's integrity hash.
fn messages(dsts: &[SendDst], hashes: &[u64]) -> Vec<(usize, u64, Vec<u8>)> {
    dsts.iter()
        .enumerate()
        .map(|(i, d)| {
            let body = hashes.get(i).map_or_else(Vec::new, |&h| hash_body(h));
            (d.rank, d.payload_bytes as u64, body)
        })
        .collect()
}

/// Integrity hashes for `n` destinations under a crash plan; none
/// otherwise, so every hash fold below is skipped.
fn hash_slots(integrity: bool, n: usize) -> Vec<u64> {
    if integrity {
        vec![FNV_BASIS; n]
    } else {
        Vec::new()
    }
}

/// Write contribute-half: one message per destination aggregator. The
/// aggregators copy the pieces straight out of this rank's exposed
/// `data`; under a crash plan each message carries the FNV-1a of the
/// pieces it stands for, in schedule order.
fn client_sends(
    rs: &RoundSchedule,
    data: &[u8],
    facts: &mut RoundFacts,
    integrity: bool,
) -> Vec<(usize, u64, Vec<u8>)> {
    let mut hashes = hash_slots(integrity, rs.client_dsts.len());
    for cw in &rs.client_windows {
        facts.flows.push((rs.client_dsts[cw.dst].rank, cw.bytes));
        if let Some(h) = hashes.get_mut(cw.dst) {
            for &(e, start) in &cw.pieces {
                *h = fnv1a(*h, &data[start as usize..(start + e.len) as usize]);
            }
        }
    }
    messages(&rs.client_dsts, &hashes)
}

/// Copies every scheduled piece of window `ws` out of its client's
/// exposed request into `dst`, at `pos_of(piece)`. Clients apply in
/// ascending rank order, so overlapping writers resolve to the highest
/// rank's bytes.
fn gather_window(
    table: &ExposureTable,
    ws: &WindowSchedule,
    dst: &mut [u8],
    pos_of: impl Fn(Extent) -> usize,
) {
    for rp in &ws.per_rank {
        for &(e, start) in &rp.pieces {
            let pos = pos_of(e);
            table.read(rp.rank, start as usize, e.len as usize, |src| {
                dst[pos..pos + src.len()].copy_from_slice(src);
            });
        }
    }
}

/// Write absorb-half: store each scheduled window, copying the pieces
/// straight out of the clients' exposed requests. A hole-free window
/// (single-extent union) gathers into the file as the one span write the
/// sieve would issue — no assembly buffer at all; a window with holes
/// assembles into a pooled buffer and goes through the sieve's
/// read-modify-write. Under a crash plan every arrived message's hash is
/// checked against the client's bytes first.
#[allow(clippy::too_many_arguments)]
fn aggregate_and_store(
    table: &ExposureTable,
    handle: &FileHandle,
    rs: &RoundSchedule,
    received: &[(usize, Vec<u8>)],
    faults: &mut IoFaults,
    report: &mut ServiceReport,
    facts: &mut RoundFacts,
    pool: &BufferPool,
    integrity: bool,
) {
    if integrity {
        for (src, body) in received {
            let pieces = rs
                .agg_windows
                .iter()
                .flat_map(|ws| &ws.per_rank)
                .filter(|rp| rp.rank == *src)
                .flat_map(|rp| &rp.pieces);
            verify_message(table, *src, pieces, *src, body, facts);
        }
    }
    for ws in &rs.agg_windows {
        facts.assembled += ws.assembly_bytes;
        if let [span] = ws.union.as_slice() {
            // The union tiles the span, so the sieve would blind-write
            // exactly this range; gather the pieces into it directly.
            let r = drive_storage(faults, |f| {
                handle.try_write_at_with(span.offset, span.len, f, |dst| {
                    gather_window(table, ws, dst, |e| (e.offset - span.offset) as usize);
                })
            });
            report.merge(&r);
            continue;
        }
        let mut buf = pool.loan_filled(ws.assembly_bytes as usize);
        gather_window(table, ws, &mut buf, |e| ws.position(e.offset));
        let out = drive_storage(faults, |f| {
            sieved_write_r(handle, &ws.union, &buf, ws.sieve(), f)
        });
        report.merge(&out.report);
    }
}

/// Copies every scheduled piece of window `ws` from `src_of(piece)` into
/// its requesting rank's exposed output, folding it into that rank's
/// message hash under a crash plan (`hashes` non-empty).
fn scatter_window<'v>(
    table: &ExposureTable,
    ws: &WindowSchedule,
    hashes: &mut [u64],
    src_of: impl Fn(Extent) -> &'v [u8],
) {
    for rp in &ws.per_rank {
        for &(e, start) in &rp.pieces {
            let src = src_of(e);
            if let Some(h) = hashes.get_mut(rp.dst) {
                *h = fnv1a(*h, src);
            }
            table.write(rp.rank, start as usize, src);
        }
    }
}

/// Read contribute-half: fetch each scheduled window with one priced
/// storage access and copy the pieces straight into the requesting
/// ranks' exposed outputs, then address one message to each. A
/// hole-free window inside EOF copies out of a zero-copy file view;
/// otherwise the union is sieved into a pooled buffer first (which also
/// supplies the zero bytes of any beyond-EOF tail).
#[allow(clippy::too_many_arguments)]
fn fetch_and_scatter(
    table: &ExposureTable,
    handle: &FileHandle,
    rs: &RoundSchedule,
    faults: &mut IoFaults,
    report: &mut ServiceReport,
    facts: &mut RoundFacts,
    pool: &BufferPool,
    integrity: bool,
) -> Vec<(usize, u64, Vec<u8>)> {
    let mut hashes = hash_slots(integrity, rs.agg_dsts.len());
    for ws in &rs.agg_windows {
        facts.assembled += ws.assembly_bytes;
        for rp in &ws.per_rank {
            facts.flows.push((rp.rank, rp.bytes));
        }
        if let [span] = ws.union.as_slice() {
            if span.end() <= handle.len() {
                let ((), r) = drive_storage(faults, |f| {
                    handle.try_read_at_with(span.offset, span.len, f, |view| {
                        scatter_window(table, ws, &mut hashes, |e| {
                            let pos = (e.offset - span.offset) as usize;
                            &view[pos..pos + e.len as usize]
                        });
                    })
                });
                report.merge(&r);
                continue;
            }
        }
        let mut packed = pool.loan(ws.assembly_bytes as usize);
        let sv = drive_storage(faults, |f| {
            sieved_read_into(handle, &ws.union, ws.sieve(), f, &mut packed)
        });
        report.merge(&sv.report);
        scatter_window(table, ws, &mut hashes, |e| {
            let pos = ws.position(e.offset);
            &packed[pos..pos + e.len as usize]
        });
    }
    messages(&rs.agg_dsts, &hashes)
}

/// Read absorb-half under a crash plan: the aggregators already copied
/// this rank's pieces into its exposed output; check each arrived
/// message against the pieces it stands for.
fn verify_scatter(
    table: &ExposureTable,
    me: usize,
    rs: &RoundSchedule,
    received: &[(usize, Vec<u8>)],
    facts: &mut RoundFacts,
) {
    for (src, body) in received {
        let pieces = rs
            .client_windows
            .iter()
            .filter(|cw| rs.client_dsts[cw.dst].rank == *src)
            .flat_map(|cw| &cw.pieces);
        verify_message(table, me, pieces, *src, body, facts);
    }
}

/// Re-hashes `pieces` (with their starts in `owner`'s exposed buffer),
/// in schedule order, and checks the hash the message from `src`
/// carries in `body`.
fn verify_message<'s>(
    table: &ExposureTable,
    owner: usize,
    pieces: impl Iterator<Item = &'s (Extent, u64)>,
    src: usize,
    body: &[u8],
    facts: &mut RoundFacts,
) {
    let mut h = FNV_BASIS;
    for &(e, start) in pieces {
        h = table.read(owner, start as usize, e.len as usize, |b| fnv1a(h, b));
    }
    check_hash(body, h, src);
    facts.integrity += 1;
}
