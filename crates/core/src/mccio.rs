//! Memory-conscious collective I/O (paper §3) — the contribution.
//!
//! Planning pipeline, component for component:
//!
//! 1. **Aggregation Group Division** (`crate::groups`): the workload is
//!    split into disjoint groups guided by `Msg_group`, confining
//!    shuffle traffic;
//! 2. **I/O Workload Partition** (`crate::ptree`): each group's region
//!    is recursively bisected into a binary partition tree whose leaves
//!    are `Msg_ind`-sized file domains;
//! 3. **Workload Portion Remerging + Aggregators Location**
//!    (`crate::placement`): per domain, candidate hosts (of the
//!    processes whose data lives there, each below `N_ah` aggregators)
//!    are ranked by available memory `Mem_avl`; domains whose best host
//!    falls below `Mem_min` are remerged with their neighbour through
//!    the partition tree and re-inspected;
//! 4. **buffer sizing** — the memory-conscious twist the evaluation
//!    exercises: per-aggregator buffers are drawn from the experiment's
//!    Normal distribution (mean = the baseline's fixed buffer) but
//!    *capped to the chosen host's fair share of available memory*, so
//!    an aggregator never thrashes its node.
//!
//! The resulting [`CollectivePlan`] runs on the same round engine as the
//! baseline, which keeps the comparison honest: every advantage MC-CIO
//! shows comes from *where* aggregators sit, *how big* their buffers
//! are, and *how far* shuffle traffic travels — not from a different
//! executor.

use mccio_mem::MemoryModel;
use mccio_mpiio::GroupPattern;
use mccio_sim::rng::{stream_rng, NormalSampler};
use mccio_sim::topology::Placement;
use mccio_sim::units::{div_ceil, KIB};

use crate::groups::divide_groups;
use crate::placement::{assign_aggregators, AggregatorLoad, PlacementPolicy};
use crate::plan::{CollectivePlan, DomainPlan};
use crate::ptree::PartitionTree;
use crate::tuner::Tuning;

/// Memory-conscious collective I/O configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MccioConfig {
    /// The tuned platform parameters (`N_ah`, `Msg_ind`, `Mem_min`,
    /// `Msg_group`).
    pub tuning: Tuning,
    /// Mean aggregation-buffer size, bytes. The paper sets this equal to
    /// the baseline's fixed buffer in every comparison.
    pub buffer_mean: u64,
    /// Standard deviation of the buffer distribution (the paper uses a
    /// Normal with σ = 50, interpreted here as 50 × 1 MiB-scale units of
    /// the configured mean's magnitude — callers pass bytes).
    pub buffer_stddev: u64,
    /// Seed for the buffer draw; plans are pure functions of
    /// `(pattern, placement, memory state, config)`.
    pub seed: u64,
    /// Alignment for partition-tree bisection midpoints (set to the file
    /// system stripe unit).
    pub align: u64,
}

impl MccioConfig {
    /// A configuration with sensible experiment defaults: buffers
    /// Normal(`buffer_mean`, (`buffer_mean`/8)²), stripe-aligned splits.
    #[must_use]
    pub fn new(tuning: Tuning, buffer_mean: u64, align: u64) -> Self {
        MccioConfig {
            tuning,
            buffer_mean,
            buffer_stddev: buffer_mean / 8,
            seed: 0x5EED,
            align,
        }
    }
}

/// Smallest buffer the planner will ever emit.
const MIN_BUFFER: u64 = 64 * KIB;

/// Plans a memory-conscious collective operation.
#[must_use]
pub fn plan_mccio(
    pattern: &GroupPattern,
    placement: &Placement,
    mem: &MemoryModel,
    cfg: &MccioConfig,
) -> CollectivePlan {
    // A group narrower than a couple of nodes' share of the workload
    // would leave Aggregators Location with a single candidate host —
    // no memory choice, no N_ah headroom. Widen Msg_group so each group
    // spans at least ~2 nodes' worth of the accessed range.
    let msg_group = match pattern.global_range() {
        Some(range) => {
            let min_span = (2 * range.len / placement.n_nodes().max(1) as u64).max(1);
            cfg.tuning.msg_group.max(min_span)
        }
        None => cfg.tuning.msg_group,
    };
    let groups = divide_groups(pattern, placement, msg_group);
    let policy = PlacementPolicy {
        n_ah: cfg.tuning.n_ah,
        mem_min: cfg.tuning.mem_min,
    };
    let mut load = AggregatorLoad::new();
    let mut rng = stream_rng(cfg.seed, "mccio-aggregation-buffers");
    let mut sampler = NormalSampler::new(cfg.buffer_mean as f64, cfg.buffer_stddev as f64);
    // Aggregator-slot quota per group, proportional to the group's share
    // of the accessed bytes (capped by its own hosts' N_ah capacity).
    // Proportional budgeting keeps domains near-equal across groups —
    // first-come slot consumption would leave late groups with giant
    // single domains whenever adjacent groups share boundary nodes.
    let total_len: u64 = groups.iter().map(|g| g.region.len).sum();
    let total_slots: u64 = (placement.n_nodes() * cfg.tuning.n_ah) as u64;
    let mut domains = Vec::new();
    for (gi, g) in groups.iter().enumerate() {
        let mut group_hosts: Vec<usize> = g.members.iter().map(|r| placement.node_of(r)).collect();
        group_hosts.sort_unstable();
        group_hosts.dedup();
        let host_cap = (group_hosts.len() * cfg.tuning.n_ah) as u64;
        let quota = (total_slots * g.region.len)
            .checked_div(total_len)
            .map_or(1, |q| q.clamp(1, host_cap));
        // When the region exceeds `quota × Msg_ind`, bisect into equal
        // quota-sized domains instead of letting remerges skew the tail.
        let by_msg_ind = div_ceil(g.region.len, cfg.tuning.msg_ind);
        let n_leaves = by_msg_ind.min(quota).clamp(1, g.region.len) as usize;
        let mut tree = PartitionTree::build_equal(g.region, n_leaves, cfg.align.max(1));
        let assignments = assign_aggregators(
            &mut tree, pattern, &g.members, placement, mem, policy, &mut load,
        );
        for a in assignments {
            let node = placement.node_of(a.aggregator);
            // Memory-conscious buffer: the experiment's sampled size,
            // capped to (a) the domain itself — a buffer never needs to
            // exceed the data it aggregates — and (b) a fair share of
            // what the host actually has free, with headroom so N_ah
            // aggregators plus the application never page.
            let sampled =
                sampler.sample_clamped(&mut rng, MIN_BUFFER as f64, u64::MAX as f64 / 2.0) as u64;
            let fair_share = (mem.available(node) / (2 * cfg.tuning.n_ah as u64)).max(MIN_BUFFER);
            let need = a.domain.len.max(MIN_BUFFER);
            let mut buffer = sampled.min(fair_share).min(need);
            // Quantize: a buffer within 10 % of the whole domain serves
            // it in one round; otherwise equalize the windows so the
            // last round is not a dribble, rounding the window up to the
            // stripe alignment — stripe-aligned windows hit whole server
            // objects (one request per server) instead of splitting every
            // round across two.
            if buffer * 10 >= need * 9 {
                buffer = need;
            } else {
                let rounds = need.div_ceil(buffer);
                let equal = need.div_ceil(rounds).max(MIN_BUFFER);
                let align = cfg.align.max(1);
                let aligned = equal.div_ceil(align).saturating_mul(align);
                // Alignment must never override the memory constraint.
                buffer = if aligned <= fair_share {
                    aligned
                } else {
                    equal
                };
            }
            domains.push(DomainPlan {
                domain: a.domain,
                aggregator: a.aggregator,
                buffer,
                group: gi,
            });
        }
    }
    CollectivePlan { domains }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccio_mem::MemParams;
    use mccio_mpiio::{Extent, ExtentList};
    use mccio_net::RankSet;
    use mccio_sim::topology::{test_cluster, FillOrder};
    use mccio_sim::units::MIB;

    fn tuning() -> Tuning {
        Tuning {
            n_ah: 2,
            msg_ind: 4 * MIB,
            mem_min: 8 * MIB,
            msg_group: 32 * MIB,
        }
    }

    fn serial_pattern(ranks: usize, per_rank: u64) -> GroupPattern {
        GroupPattern::from_parts(
            RankSet::world(ranks),
            (0..ranks as u64)
                .map(|r| ExtentList::normalize(vec![Extent::new(r * per_rank, per_rank)]))
                .collect(),
        )
    }

    #[test]
    fn plan_covers_all_data_in_order() {
        let cluster = test_cluster(4, 2);
        let placement = Placement::new(&cluster, 8, FillOrder::Block).unwrap();
        let mem = MemoryModel::pristine(&cluster);
        let pattern = serial_pattern(8, 16 * MIB);
        let cfg = MccioConfig::new(tuning(), 8 * MIB, MIB);
        let plan = plan_mccio(&pattern, &placement, &mem, &cfg);
        plan.assert_invariants();
        let covered: u64 = plan.domains.iter().map(|d| d.domain.len).sum();
        assert_eq!(covered, 128 * MIB);
        assert!(plan.domains.len() > 1);
    }

    #[test]
    fn plan_is_deterministic() {
        let cluster = test_cluster(4, 2);
        let placement = Placement::new(&cluster, 8, FillOrder::Block).unwrap();
        let mem = MemoryModel::pristine(&cluster);
        let pattern = serial_pattern(8, 16 * MIB);
        let cfg = MccioConfig::new(tuning(), 8 * MIB, MIB);
        let a = plan_mccio(&pattern, &placement, &mem, &cfg);
        let b = plan_mccio(&pattern, &placement, &mem, &cfg);
        assert_eq!(a, b);
        // Different seed, (almost surely) different buffers.
        let cfg2 = MccioConfig { seed: 99, ..cfg };
        let c = plan_mccio(&pattern, &placement, &mem, &cfg2);
        assert_ne!(
            a.domains.iter().map(|d| d.buffer).collect::<Vec<_>>(),
            c.domains.iter().map(|d| d.buffer).collect::<Vec<_>>()
        );
    }

    #[test]
    fn buffers_respect_host_availability() {
        let cluster = test_cluster(4, 2); // 256 MiB nodes
        let placement = Placement::new(&cluster, 8, FillOrder::Block).unwrap();
        // Every node has only ~6 MiB free.
        let mem = MemoryModel::build(
            &cluster,
            |_, cap| cap - 6 * MIB,
            MemParams {
                os_reserve_fraction: 0.0,
                ..MemParams::default()
            },
        );
        let pattern = serial_pattern(8, 16 * MIB);
        // Experiment asks for 64 MiB buffers — far beyond what fits.
        let cfg = MccioConfig::new(tuning(), 64 * MIB, MIB);
        let plan = plan_mccio(&pattern, &placement, &mem, &cfg);
        for d in &plan.domains {
            assert!(
                d.buffer <= 3 * MIB / 2 + KIB,
                "buffer {} exceeds the fair share of a 6 MiB node",
                d.buffer
            );
        }
    }

    #[test]
    fn respects_n_ah_across_groups() {
        let cluster = test_cluster(2, 4);
        let placement = Placement::new(&cluster, 8, FillOrder::Block).unwrap();
        let mem = MemoryModel::pristine(&cluster);
        let pattern = serial_pattern(8, 32 * MIB);
        let cfg = MccioConfig::new(tuning(), 8 * MIB, MIB);
        let plan = plan_mccio(&pattern, &placement, &mem, &cfg);
        let mut per_node = std::collections::HashMap::new();
        for agg in plan.aggregators() {
            *per_node.entry(placement.node_of(agg)).or_insert(0usize) += 1;
        }
        for (&node, &n) in &per_node {
            assert!(n <= tuning().n_ah, "node {node} runs {n} aggregators");
        }
    }

    #[test]
    fn end_to_end_roundtrip_with_memory_variance() {
        use crate::engine::IoEnv;
        use crate::strategy::{MemoryConscious, Strategy};
        use mccio_net::World;
        use mccio_pfs::{FileSystem, PfsParams};
        use mccio_sim::cost::CostModel;
        let cluster = test_cluster(3, 2);
        let placement = Placement::new(&cluster, 6, FillOrder::Block).unwrap();
        let world = World::new(CostModel::new(cluster.clone()), placement);
        let env = IoEnv::new(
            FileSystem::new(4, 64 * KIB, PfsParams::default()),
            MemoryModel::with_available_variance(&cluster, 32 * MIB, 16 * MIB, 11),
        );
        let cfg = MccioConfig::new(
            Tuning {
                n_ah: 2,
                msg_ind: MIB,
                mem_min: 2 * MIB,
                msg_group: 4 * MIB,
            },
            2 * MIB,
            64 * KIB,
        );
        let reports = world.run(|ctx| {
            let env = env.clone();
            let handle = env.fs.open_or_create("mc");
            let r = ctx.rank() as u64;
            let extents = ExtentList::normalize(
                (0..32)
                    .map(|i| Extent::new((r * 32 + i) * 8 * KIB, 8 * KIB))
                    .collect(),
            );
            let data: Vec<u8> = (0..extents.total_bytes())
                .map(|i| (i as u8).wrapping_add(r as u8 * 13))
                .collect();
            let strat = MemoryConscious(cfg);
            let wr = strat.write(ctx, &env, &handle, &extents, &data);
            let (back, rr) = strat.read(ctx, &env, &handle, &extents);
            assert_eq!(back, data, "rank {r}");
            (wr, rr)
        });
        for (wr, rr) in reports {
            assert!(wr.bandwidth() > 0.0);
            assert!(rr.bandwidth() > 0.0);
        }
    }
}
