//! Round pricing: one virtual-time charge per round, computed at the
//! world root from gathered facts and broadcast, so time is a pure
//! function of the plan and never of thread scheduling.

use mccio_net::{Ctx, RankSet};
use mccio_obs::{AttrValue, ENGINE_TRACK};
use mccio_pfs::{RetryLog, ServiceReport};
use mccio_sim::cost::Flow;
use mccio_sim::time::VDuration;

use super::env::IoEnv;
use super::prologue::mark_fault_events;
use super::wire::{decode_facts, encode_facts};

/// Gathers every rank's round facts at the world root, prices the round,
/// broadcasts the duration, and advances every rank's clock by it.
/// Returns the broadcast duration — identical on every rank — which the
/// crash tracker folds into the agreed clock.
#[allow(clippy::too_many_arguments)]
pub(super) fn settle_round(
    ctx: &mut Ctx,
    env: &IoEnv,
    world: &RankSet,
    my_flows: &[(usize, u64)],
    my_report: &ServiceReport,
    my_assembled: u64,
    my_retry: RetryLog,
    is_write: bool,
    my_integrity: u64,
) -> VDuration {
    let payload = encode_facts(my_flows, my_report, my_assembled, my_retry, my_integrity);
    let gathered = ctx.group_gather(world, payload);
    let duration = if let Some(parts) = gathered {
        let fault_plan = env.faults().plan();
        let mut flows: Vec<Flow> = Vec::new();
        let mut merged = ServiceReport::empty(env.fs.n_servers());
        let mut max_client = 0u64;
        let mut n_clients = 0usize;
        let mut assembly = VDuration::ZERO;
        // The round cannot finish before its slowest rank clears its
        // retry backoff: the waiting term is the max over ranks.
        let mut waiting = VDuration::ZERO;
        let mut transient_faults = 0u64;
        let mut retries = 0u64;
        let mut integrity = 0u64;
        // Straggler attribution: the rank whose contribution set each
        // max-over-ranks phase term. Critical-path analysis names these
        // per round (`obs::analyze`).
        let mut assembly_rank = 0u64;
        let mut storage_rank = 0u64;
        let mut backoff_rank = 0u64;
        let mut factors = env.mem.pressure_factors();
        // Straggler nodes run their compute/memory phases slower; this
        // composes with memory pressure the same way pressure composes
        // with itself — as a multiplier on the node's local work.
        for (node, f) in factors.iter_mut().enumerate() {
            *f *= fault_plan.straggler_factor(node);
        }
        let cost = ctx.cost();
        let placement = ctx.placement();
        for (idx, part) in parts.iter().enumerate() {
            let src = world.members()[idx];
            let facts = decode_facts(part);
            for (dst, bytes) in facts.flows {
                flows.push(Flow { src, dst, bytes });
            }
            if facts.report.total_bytes() > 0 {
                n_clients += 1;
            }
            if facts.report.total_bytes() > max_client {
                storage_rank = src as u64;
            }
            max_client = max_client.max(facts.report.total_bytes());
            merged.merge(&facts.report);
            if facts.assembled > 0 {
                let node = placement.node_of(src);
                let local = cost.local_copy(node, facts.assembled, factors[node]);
                if local > assembly {
                    assembly = local;
                    assembly_rank = src as u64;
                }
            }
            if facts.retry.backoff > waiting {
                backoff_rank = src as u64;
            }
            waiting = waiting.max(facts.retry.backoff);
            transient_faults += facts.retry.transient_faults;
            retries += facts.retry.retries;
            integrity += facts.integrity;
        }
        let sync = cost.round_sync(world.len());
        let shuffle = cost.shuffle_phase(placement, &flows, &factors);
        let slowdowns = if fault_plan.has_slow_servers() {
            fault_plan.server_slowdowns(env.fs.n_servers())
        } else {
            Vec::new()
        };
        let storage = env
            .fs
            .params()
            .phase_time_faulty(&merged, max_client, is_write, n_clients, &slowdowns);
        let obs = env.obs();
        if obs.is_enabled() {
            // The root's clock has not advanced yet, so `ctx.clock()` is
            // the round's virtual start; the phase spans tile the round
            // in pricing order. Everything `mccio_obs::analyze` needs to
            // attribute the round rides on the round span's attrs.
            let start = ctx.clock();
            let total = sync + shuffle + storage + assembly + waiting;
            obs.span(
                ENGINE_TRACK,
                "round",
                "engine",
                start,
                total,
                &[
                    (
                        "dir",
                        AttrValue::Str(if is_write { "write" } else { "read" }),
                    ),
                    ("flows", AttrValue::U64(flows.len() as u64)),
                    ("volume", AttrValue::U64(merged.total_bytes())),
                    ("requests", AttrValue::U64(merged.total_requests())),
                    ("clients", AttrValue::U64(n_clients as u64)),
                    ("sync_secs", AttrValue::F64(sync.as_secs())),
                    ("shuffle_secs", AttrValue::F64(shuffle.as_secs())),
                    ("storage_secs", AttrValue::F64(storage.as_secs())),
                    ("assembly_secs", AttrValue::F64(assembly.as_secs())),
                    ("backoff_secs", AttrValue::F64(waiting.as_secs())),
                    ("transient_faults", AttrValue::U64(transient_faults)),
                    ("retries", AttrValue::U64(retries)),
                    // Straggler attribution (meaningful only when the
                    // matching phase term is non-zero).
                    ("storage_rank", AttrValue::U64(storage_rank)),
                    ("assembly_rank", AttrValue::U64(assembly_rank)),
                    ("backoff_rank", AttrValue::U64(backoff_rank)),
                ],
            );
            let mut t = start;
            for (name, dur) in [
                ("sync", sync),
                ("shuffle", shuffle),
                ("storage", storage),
                ("assembly", assembly),
                ("backoff", waiting),
            ] {
                if dur.as_secs() > 0.0 {
                    obs.span(ENGINE_TRACK, name, "engine", t, dur, &[]);
                }
                t += dur;
            }
            obs.instant(
                ENGINE_TRACK,
                "settle",
                "engine",
                t,
                &[("round_secs", AttrValue::F64(total.as_secs()))],
            );
            if !slowdowns.is_empty() {
                obs.instant(
                    ENGINE_TRACK,
                    "pfs.slow_servers",
                    "fault",
                    start,
                    &[(
                        "servers",
                        AttrValue::U64(slowdowns.iter().filter(|&&f| f > 1.0).count() as u64),
                    )],
                );
            }
            obs.counter_add("round.count", 1);
            obs.counter_add("storage.volume_bytes", merged.total_bytes());
            obs.observe("round.clients", n_clients as u64);
            // Crash-gated: zero on healthy runs, so traces never grow a
            // dead counter.
            if integrity > 0 {
                obs.counter_add(mccio_obs::INTEGRITY_VERIFIED, integrity);
            }
        }
        (sync + shuffle + storage + assembly + waiting).as_secs()
    } else {
        0.0
    };
    let secs = ctx.group_bcast(world, mccio_net::wire::encode_f64(duration));
    let settled = VDuration::from_secs(mccio_net::wire::decode_f64(&secs));
    ctx.advance(settled);
    // Memory events that fired during this round take effect before the
    // next one prices: every rank reports the same crossing, the state
    // applies each event once.
    if env.faults().is_active() {
        let fired = env.faults().apply_due(ctx.clock(), &env.mem);
        mark_fault_events(env.obs(), &fired);
    }
    settled
}
