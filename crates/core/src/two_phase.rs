//! The baseline: ROMIO-style two-phase collective I/O.
//!
//! Exactly the strategy the paper compares against (its §2 and Figure 2):
//!
//! * **aggregators**: one process per node, the ROMIO default, chosen
//!   *independently of the data distribution* — the first rank on each
//!   node;
//! * **file domains**: the aggregate access range `[min, max)` divided
//!   evenly among the aggregators;
//! * **buffering**: every aggregator uses the same fixed collective
//!   buffer (`cb_buffer_size`), working through its domain in
//!   buffer-sized windows over multiple rounds — with no regard to how
//!   much memory its node actually has free, which is precisely the
//!   behaviour memory-conscious collective I/O fixes.

use mccio_mpiio::GroupPattern;
use mccio_sim::topology::Placement;
use mccio_sim::units::div_ceil;

use crate::plan::{CollectivePlan, DomainPlan};

/// Baseline configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoPhaseConfig {
    /// The fixed collective buffer per aggregator, bytes (ROMIO's
    /// `cb_buffer_size`; the paper's x-axis).
    pub cb_buffer_size: u64,
    /// Align file-domain boundaries down to this unit (0/1 = none).
    /// Setting it to the stripe unit gives the layout-aware variant
    /// (LACIO-style / ROMIO's Lustre `striping_unit` alignment) the
    /// paper's related work discusses: domains that never split a
    /// stripe between two aggregators.
    pub align: u64,
}

impl Default for TwoPhaseConfig {
    fn default() -> Self {
        TwoPhaseConfig {
            // ROMIO's historical default is 4 MiB; the paper sweeps this.
            cb_buffer_size: 4 * 1024 * 1024,
            align: 1,
        }
    }
}

impl TwoPhaseConfig {
    /// Plain two-phase with the given buffer (no alignment).
    #[must_use]
    pub fn with_buffer(cb_buffer_size: u64) -> Self {
        TwoPhaseConfig {
            cb_buffer_size,
            align: 1,
        }
    }

    /// The layout-aware variant: domains aligned to `stripe`.
    #[must_use]
    pub fn layout_aware(cb_buffer_size: u64, stripe: u64) -> Self {
        TwoPhaseConfig {
            cb_buffer_size,
            align: stripe.max(1),
        }
    }
}

/// Plans a two-phase operation: one aggregator per node, even domains.
#[must_use]
pub fn plan_two_phase(
    pattern: &GroupPattern,
    placement: &Placement,
    cfg: TwoPhaseConfig,
) -> CollectivePlan {
    assert!(cfg.cb_buffer_size > 0, "cb_buffer_size must be positive");
    let Some(global) = pattern.global_range() else {
        return CollectivePlan::default();
    };
    // ROMIO default: the first rank of every node that hosts ranks.
    let aggregators: Vec<usize> = (0..placement.n_nodes())
        .filter_map(|n| placement.ranks_on(n).first().copied())
        .collect();
    assert!(!aggregators.is_empty(), "no ranks placed");
    let fd = div_ceil(global.len, aggregators.len() as u64).max(1);
    let align = cfg.align.max(1);
    // Domain boundaries; the layout-aware variant snaps interior
    // boundaries down to the alignment unit so no stripe is split
    // between two aggregators.
    let mut cuts = Vec::with_capacity(aggregators.len() + 1);
    cuts.push(global.offset);
    for i in 1..aggregators.len() as u64 {
        let raw = global.offset + i * fd;
        let snapped = (raw - raw % align).clamp(global.offset, global.end());
        cuts.push(snapped);
    }
    cuts.push(global.end());
    cuts.dedup();
    let mut domains = Vec::new();
    for (w, &agg) in cuts.windows(2).zip(aggregators.iter()) {
        let (start, end) = (w[0], w[1]);
        if start >= end {
            continue;
        }
        domains.push(DomainPlan {
            domain: mccio_mpiio::Extent::new(start, end - start),
            aggregator: agg,
            buffer: cfg.cb_buffer_size,
            group: 0,
        });
    }
    CollectivePlan { domains }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccio_mpiio::{Extent, ExtentList};
    use mccio_net::RankSet;
    use mccio_sim::topology::{test_cluster, FillOrder};

    fn pattern_for(ranks: usize) -> GroupPattern {
        GroupPattern::from_parts(
            RankSet::world(ranks),
            (0..ranks as u64)
                .map(|r| ExtentList::normalize(vec![Extent::new(r * 100, 100)]))
                .collect(),
        )
    }

    #[test]
    fn one_aggregator_per_node_first_rank() {
        let cluster = test_cluster(3, 4);
        let placement = Placement::new(&cluster, 12, FillOrder::Block).unwrap();
        let plan = plan_two_phase(&pattern_for(12), &placement, TwoPhaseConfig::default());
        plan.assert_invariants();
        assert_eq!(plan.aggregators(), vec![0, 4, 8]);
        assert_eq!(plan.domains.len(), 3);
        assert_eq!(plan.domains[0].domain, Extent::new(0, 400));
        assert_eq!(plan.domains[2].domain, Extent::new(800, 400));
    }

    #[test]
    fn domains_cover_range_exactly_with_remainder() {
        let cluster = test_cluster(4, 2);
        let placement = Placement::new(&cluster, 8, FillOrder::Block).unwrap();
        // 7 ranks of data → range 0..700, 4 aggregators → fd 175.
        let pattern = GroupPattern::from_parts(
            RankSet::world(8),
            (0..8u64)
                .map(|r| {
                    if r < 7 {
                        ExtentList::normalize(vec![Extent::new(r * 100, 100)])
                    } else {
                        ExtentList::default()
                    }
                })
                .collect(),
        );
        let plan = plan_two_phase(&pattern, &placement, TwoPhaseConfig::default());
        let total: u64 = plan.domains.iter().map(|d| d.domain.len).sum();
        assert_eq!(total, 700);
        let mut cursor = 0;
        for d in &plan.domains {
            assert_eq!(d.domain.offset, cursor);
            cursor = d.domain.end();
        }
    }

    #[test]
    fn buffer_is_fixed_regardless_of_memory() {
        let cluster = test_cluster(2, 2);
        let placement = Placement::new(&cluster, 4, FillOrder::Block).unwrap();
        let cfg = TwoPhaseConfig::with_buffer(123);
        let plan = plan_two_phase(&pattern_for(4), &placement, cfg);
        for d in &plan.domains {
            assert_eq!(d.buffer, 123);
        }
        assert_eq!(plan.rounds(), div_ceil(200, 123));
    }

    #[test]
    fn layout_aware_boundaries_land_on_stripes() {
        let cluster = test_cluster(4, 2);
        let placement = Placement::new(&cluster, 8, FillOrder::Block).unwrap();
        // Range 0..700 over 4 aggregators, stripes of 128: raw cuts at
        // 175/350/525 snap down to 128/256/512.
        let plan = plan_two_phase(
            &pattern_for(7),
            &Placement::new(&test_cluster(4, 2), 8, FillOrder::Block).unwrap(),
            TwoPhaseConfig::layout_aware(1 << 20, 128),
        );
        let _ = placement;
        plan.assert_invariants();
        let offsets: Vec<u64> = plan.domains.iter().map(|d| d.domain.offset).collect();
        assert_eq!(offsets, vec![0, 128, 256, 512]);
        let total: u64 = plan.domains.iter().map(|d| d.domain.len).sum();
        assert_eq!(total, 700);
        for d in &plan.domains[..plan.domains.len() - 1] {
            assert_eq!(d.domain.offset % 128, 0);
        }
    }

    #[test]
    fn degenerate_alignment_merges_cuts() {
        // Alignment coarser than the range: everything collapses into
        // one domain for the first aggregator.
        let cluster = test_cluster(4, 2);
        let placement = Placement::new(&cluster, 8, FillOrder::Block).unwrap();
        let plan = plan_two_phase(
            &pattern_for(7),
            &placement,
            TwoPhaseConfig::layout_aware(1 << 20, 1 << 20),
        );
        plan.assert_invariants();
        assert_eq!(plan.domains.len(), 1);
        assert_eq!(plan.domains[0].domain, Extent::new(0, 700));
    }

    #[test]
    fn empty_pattern_plans_nothing() {
        let cluster = test_cluster(2, 2);
        let placement = Placement::new(&cluster, 4, FillOrder::Block).unwrap();
        let pattern = GroupPattern::from_parts(RankSet::world(4), vec![ExtentList::default(); 4]);
        let plan = plan_two_phase(&pattern, &placement, TwoPhaseConfig::default());
        assert!(plan.domains.is_empty());
    }

    #[test]
    fn range_smaller_than_aggregator_count() {
        let cluster = test_cluster(4, 2);
        let placement = Placement::new(&cluster, 8, FillOrder::Block).unwrap();
        let pattern = GroupPattern::from_parts(
            RankSet::world(8),
            (0..8)
                .map(|r| {
                    if r == 0 {
                        ExtentList::normalize(vec![Extent::new(10, 2)])
                    } else {
                        ExtentList::default()
                    }
                })
                .collect(),
        );
        let plan = plan_two_phase(&pattern, &placement, TwoPhaseConfig::default());
        plan.assert_invariants();
        // 2 bytes over 4 aggregators: fd = 1, only 2 domains materialize.
        assert_eq!(plan.domains.len(), 2);
    }
}
