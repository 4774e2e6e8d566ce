//! Mid-operation aggregator crash recovery: detection, re-election,
//! and incremental re-planning at round boundaries.
//!
//! The lock-step engine is SPMD: every rank must make the same control
//! decisions or the collectives deadlock. A crashed rank therefore
//! loses its *aggregator role*, not its thread — the thread keeps
//! lock-step as a plain client (its data still ships, so recovered
//! runs produce byte-identical files), while every surviving and dead
//! rank alike derives the dead set from the same pure function of the
//! shared fault plan and an *agreed* clock.
//!
//! ## The agreed clock
//!
//! Per-rank virtual clocks can skew (control-plane delay charges the
//! root differently from leaves), so "is rank `r` dead at time `t`?"
//! must not be asked against `ctx.clock()`. Instead the root broadcasts
//! its clock once after the prologue ([`CrashTracker::begin`]) and every
//! rank accumulates the *broadcast* round durations onto that base
//! ([`CrashTracker::advance`]). The result is bit-identical on every
//! rank by construction, so `FaultPlan::crashed_at(agreed)` is a
//! collective agreement that costs no extra communication per round.
//! Detection and re-election overhead deliberately does not feed the
//! agreed clock: it is the same on every rank, and keeping it out makes
//! the crash schedule independent of how long recovery itself takes.
//!
//! ## Detection, priced in virtual time
//!
//! Real MPI failure detectors time out on silence. The simulator prices
//! exactly that: each rank posts a receive with a deadline
//! ([`mccio_net::Ctx::recv_deadline`]) against each newly-dead
//! aggregator on [`TAG_FAILOVER_PROBE`] — a tag nothing ever sends on —
//! and the miss charges the plan's `detect_timeout` to the virtual
//! clock. Because the probed rank is provably silent on that tag, the
//! timeout fires deterministically regardless of wall-clock scheduling.
//!
//! ## Recovery
//!
//! For each dead-owned domain with rounds remaining, every rank runs
//! the same pure re-election ([`crate::placement::reelect_aggregator`])
//! over the survivor set, patches the live plan's `aggregator` field,
//! and rebuilds its [`CommSchedule`]. Window geometry never changes —
//! only who services each window — so the round count is preserved and
//! the round being recovered simply executes against the new schedule
//! (the new aggregators copy the lost round's pieces straight out of
//! the clients' still-exposed requests). The flows that died with the old aggregator are appended to
//! the round's fact list so the wasted shuffle attempt is priced.
//! Replacements reserve the adopted buffers collectively; a failed
//! verdict — or an empty survivor set — returns
//! [`SimError::RankFailed`] on every rank together, which the
//! degradation ladder consumes like any other collective refusal.

use mccio_mpiio::{ExtentList, GroupPattern, Resilience};
use mccio_net::{Ctx, RankSet, INTERNAL_TAG_BASE};
use mccio_obs::{AttrValue, CRASH_DETECTED, ENGINE_TRACK, REELECTION, ROUNDS_REPLAYED};
use mccio_sim::error::{SimError, SimResult};
use mccio_sim::time::{VDuration, VTime};

use crate::placement::{reelect_aggregator, AggregatorLoad};
use crate::plan::CollectivePlan;
use crate::schedule::CommSchedule;

use super::env::IoEnv;
use super::prologue::OpState;
use super::rounds::RoundFacts;

/// The failure-detector probe tag. The engine's collectives use
/// `INTERNAL_TAG_BASE + 1..=5` and the exchange `+5`; nothing ever
/// *sends* on this tag, so a deadline receive against it times out
/// deterministically.
pub(super) const TAG_FAILOVER_PROBE: u32 = INTERNAL_TAG_BASE + 16;

/// Per-operation crash bookkeeping: the agreed clock and the ranks
/// currently considered dead. Exists only when the fault plan schedules
/// crashes — the healthy path carries `None` and pays nothing.
pub(super) struct CrashTracker {
    /// Collectively agreed clock: the root's post-prologue clock plus
    /// every broadcast round duration since. Identical on every rank.
    agreed: VTime,
    /// Ranks dead as of `agreed` (aggregators and clients alike — a
    /// dead client needs no recovery but must not win an election).
    dead: Vec<usize>,
}

impl CrashTracker {
    /// Establishes the agreed clock (one broadcast) and an empty dead
    /// set. Returns `None` — no per-round overhead at all — unless the
    /// plan schedules rank crashes.
    pub(super) fn begin(ctx: &mut Ctx, env: &IoEnv, world: &RankSet) -> Option<Self> {
        if !env.faults().plan().has_crashes() {
            return None;
        }
        let raw = ctx.group_bcast(world, mccio_net::wire::encode_f64(ctx.clock().as_secs()));
        Some(CrashTracker {
            agreed: VTime::from_secs(mccio_net::wire::decode_f64(&raw)),
            dead: Vec::new(),
        })
    }

    /// Folds one settled round's broadcast duration into the agreed
    /// clock. Every rank adds the same duration, so agreement is
    /// preserved without further communication.
    pub(super) fn advance(&mut self, d: VDuration) {
        self.agreed += d;
    }

    /// Runs detection and recovery at the top of round `round`:
    /// evaluates the crash schedule at the agreed clock, prices the
    /// detection timeouts, appends the lost flows of the interrupted
    /// round to `facts`, re-elects replacements for every dead-owned
    /// domain still running, re-reserves their buffers, and rebuilds
    /// `schedule` against the patched `plan`.
    ///
    /// # Errors
    /// Returns [`SimError::RankFailed`] — collectively, on every rank —
    /// when no survivor can be elected or the replacements cannot
    /// reserve the adopted buffers. The caller releases its held
    /// reservations and falls down the degradation ladder.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn begin_round(
        &mut self,
        ctx: &mut Ctx,
        env: &IoEnv,
        state: &mut OpState,
        plan: &mut CollectivePlan,
        pattern: &GroupPattern,
        my_extents: &ExtentList,
        schedule: &mut CommSchedule,
        round: u64,
        is_write: bool,
        facts: &mut RoundFacts,
        res: &mut Resilience,
    ) -> SimResult<()> {
        let now_dead = env.faults().plan().crashed_at(self.agreed);
        // Only aggregator deaths need detection and recovery; a crashed
        // client keeps lock-step as dead weight (its role never mattered
        // to the plan), but stays in `dead` so it cannot be elected.
        let newly: Vec<usize> = now_dead
            .iter()
            .copied()
            .filter(|r| !self.dead.contains(r))
            .filter(|&r| plan.domains.iter().any(|d| d.aggregator == r))
            .collect();
        self.dead = now_dead;
        if newly.is_empty() {
            return Ok(());
        }

        let me = ctx.rank();
        let timeout = env.faults().plan().detect_timeout();
        // Detection is a fact even when recovery fails below: count it
        // before the survivor-exhausted Err can return. Every rank
        // observed the same schedule crossing, so the counter is
        // identical rank-wide.
        res.crashes_detected += newly.len() as u64;

        // --- detect: one timed-out probe per newly-dead aggregator ---
        for &dead in &newly {
            if dead == me {
                // The dead rank prices its own eviction symmetrically so
                // per-rank clocks stay in step with the probing ranks.
                ctx.advance(timeout);
                continue;
            }
            let deadline = ctx.clock() + timeout;
            let probe = ctx.recv_deadline(dead, TAG_FAILOVER_PROBE, deadline);
            debug_assert!(probe.is_err(), "failover probe must time out");
        }

        // --- price the interrupted round's wasted traffic ---
        // The flows this rank had already put on the wire toward (or,
        // when this rank is the dying aggregator, from) the dead rank
        // under the OLD schedule are charged to this round's pricing:
        // the replay is not free.
        if let Some(rs) = schedule.rounds.get(round as usize) {
            if is_write {
                for cw in &rs.client_windows {
                    let agg = rs.client_dsts[cw.dst].rank;
                    if newly.contains(&agg) {
                        facts.flows.push((agg, cw.bytes));
                    }
                }
            } else if newly.contains(&me) {
                for ws in &rs.agg_windows {
                    for rp in &ws.per_rank {
                        facts.flows.push((rp.rank, rp.bytes));
                    }
                }
            }
        }

        // --- the dead rank surrenders its aggregation buffers ---
        if newly.contains(&me) {
            state.release_reservations(ctx, env);
        }
        // Freed memory must be visible before any replacement reserves.
        ctx.group_barrier(&state.world);

        // --- re-elect replacements for every dead-owned live domain ---
        // Seed the load tracker from the surviving plan so elections
        // spread adopted domains instead of piling onto one node.
        let mut load = AggregatorLoad::new();
        for d in &plan.domains {
            if !self.dead.contains(&d.aggregator) {
                load.record(ctx.placement().node_of(d.aggregator), d.aggregator);
            }
        }
        let mut moves: Vec<(usize, usize)> = Vec::new();
        for di in 0..plan.domains.len() {
            let d = &plan.domains[di];
            if !newly.contains(&d.aggregator) || round >= d.rounds() {
                continue;
            }
            match reelect_aggregator(
                d.domain,
                d.buffer,
                pattern,
                &state.world,
                ctx.placement(),
                &env.mem,
                &self.dead,
                &mut load,
            ) {
                Some(agg) => moves.push((di, agg)),
                // Survivor set exhausted: the same inputs produce the
                // same `None` on every rank, so this Err is collective.
                None => return Err(SimError::RankFailed { rank: d.aggregator }),
            }
        }

        // --- adopt: patch the plan, reserve the moved buffers ---
        // Elections read live memory (`mem.available` breaks ties); the
        // reservations below mutate it. Without this barrier a fast rank
        // could reserve while a slow rank is still electing, and the two
        // would elect different replacements — divergent schedules, then
        // deadlock. Quiescing memory between the phases keeps the
        // election a pure function of agreed state on every rank.
        ctx.group_barrier(&state.world);
        for &(di, agg) in &moves {
            plan.domains[di].aggregator = agg;
        }
        let mut held = Vec::new();
        let mut ok = true;
        for &(di, agg) in &moves {
            if agg != me {
                continue;
            }
            match env.mem.try_reserve(ctx.node(), plan.domains[di].buffer) {
                Some(r) => held.push(r),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        let anyone_failed =
            ctx.group_allreduce_max_f64(&state.world, if ok { 0.0 } else { 1.0 }) > 0.0;
        if anyone_failed {
            drop(held);
            // Partial reservations must be back before the ladder's next
            // rung reserves for itself.
            ctx.group_barrier(&state.world);
            return Err(SimError::RankFailed { rank: newly[0] });
        }
        for r in held {
            state.adopt_reservation(ctx, env, r);
        }

        // --- re-plan: same windows, new owners ---
        let n_rounds = schedule.rounds.len();
        *schedule = CommSchedule::build_with_integrity(plan, pattern, me, my_extents, true);
        assert_eq!(
            schedule.rounds.len(),
            n_rounds,
            "re-election must preserve window geometry"
        );

        // Collective knowledge: every rank observed the same moves, so
        // the counters are identical rank-wide.
        res.reelections += moves.len() as u64;
        if !moves.is_empty() {
            res.rounds_replayed += 1;
        }
        let obs = env.obs();
        if me == 0 && obs.is_enabled() {
            for &dead in &newly {
                obs.instant(
                    ENGINE_TRACK,
                    CRASH_DETECTED,
                    "fault",
                    ctx.clock(),
                    &[
                        ("rank", AttrValue::U64(dead as u64)),
                        ("round", AttrValue::U64(round)),
                    ],
                );
            }
            obs.counter_add(CRASH_DETECTED, newly.len() as u64);
            for &(di, agg) in &moves {
                obs.instant(
                    ENGINE_TRACK,
                    REELECTION,
                    "fault",
                    ctx.clock(),
                    &[
                        ("domain", AttrValue::U64(di as u64)),
                        ("aggregator", AttrValue::U64(agg as u64)),
                    ],
                );
            }
            obs.counter_add(REELECTION, moves.len() as u64);
            if !moves.is_empty() {
                obs.instant(
                    ENGINE_TRACK,
                    ROUNDS_REPLAYED,
                    "fault",
                    ctx.clock(),
                    &[("round", AttrValue::U64(round))],
                );
                obs.counter_add(ROUNDS_REPLAYED, 1);
            }
        }
        Ok(())
    }
}
