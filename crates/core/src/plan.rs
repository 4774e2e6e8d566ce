//! Shared planning types: what every collective-I/O strategy produces
//! before any byte moves.
//!
//! Both the two-phase baseline and memory-conscious collective I/O
//! reduce, after their (very different) planning stages, to the same
//! executable shape: a list of [`DomainPlan`]s — file domains, each owned
//! by one aggregator rank working through it in buffer-sized windows —
//! processed in lock-step rounds by the round engine (`crate::engine`).
//! Keeping the plan explicit makes the strategies directly comparable
//! and the planning logic unit-testable without running ranks.

use mccio_mpiio::Extent;
use mccio_sim::units::div_ceil;

/// One file domain and how it will be serviced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainPlan {
    /// The contiguous file range this domain covers.
    pub domain: Extent,
    /// The rank that aggregates for this domain.
    pub aggregator: usize,
    /// Aggregation buffer bytes = the window the aggregator services per
    /// round.
    pub buffer: u64,
    /// Index of the aggregation group this domain belongs to (0 for the
    /// baseline's single implicit group).
    pub group: usize,
}

impl DomainPlan {
    /// Rounds this domain needs: `ceil(len / buffer)`.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        if self.domain.is_empty() {
            0
        } else {
            div_ceil(self.domain.len, self.buffer)
        }
    }

    /// The window serviced in round `r`, or `None` when the domain is
    /// already finished.
    #[must_use]
    pub fn window(&self, round: u64) -> Option<Extent> {
        let start = self
            .domain
            .offset
            .checked_add(round.checked_mul(self.buffer)?)?;
        if start >= self.domain.end() {
            return None;
        }
        let len = self.buffer.min(self.domain.end() - start);
        Some(Extent::new(start, len))
    }
}

/// A complete collective-operation plan.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CollectivePlan {
    /// Domains in ascending file order. Domains never overlap.
    pub domains: Vec<DomainPlan>,
}

impl CollectivePlan {
    /// Lock-step round count: the slowest domain's round count.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.domains
            .iter()
            .map(DomainPlan::rounds)
            .max()
            .unwrap_or(0)
    }

    /// Indices of the domains any of `extents` intersects, ascending.
    /// `O(E log D + K)` by binary search over the (ordered,
    /// non-overlapping) domains — the schedule builder's round loop
    /// iterates this instead of every domain of every round.
    #[must_use]
    pub fn domains_overlapping(&self, extents: &[Extent]) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::new();
        for e in extents {
            if e.is_empty() {
                continue;
            }
            let mut i = self.domains.partition_point(|d| d.domain.end() <= e.offset);
            // A domain spanning two of the rank's extents would be found
            // twice; resume past what the previous extent recorded.
            if let Some(&last) = out.last() {
                i = i.max(last + 1);
            }
            while i < self.domains.len() && self.domains[i].domain.offset < e.end() {
                out.push(i);
                i += 1;
            }
        }
        out
    }

    /// Distinct aggregator ranks, ascending.
    #[must_use]
    pub fn aggregators(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.domains.iter().map(|d| d.aggregator).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Indices of the domains aggregated by `rank`, ascending.
    pub fn domains_of(&self, rank: usize) -> impl Iterator<Item = usize> + '_ {
        self.domains
            .iter()
            .enumerate()
            .filter(move |(_, d)| d.aggregator == rank)
            .map(|(i, _)| i)
    }

    /// Asserts structural invariants: ordered, non-overlapping,
    /// positive-size domains with positive buffers.
    pub fn assert_invariants(&self) {
        let mut cursor = 0u64;
        for (i, d) in self.domains.iter().enumerate() {
            assert!(!d.domain.is_empty(), "domain {i} is empty");
            assert!(d.buffer > 0, "domain {i} has zero buffer");
            assert!(
                d.domain.offset >= cursor || i == 0,
                "domain {i} overlaps its predecessor"
            );
            cursor = d.domain.end();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dp(offset: u64, len: u64, buffer: u64) -> DomainPlan {
        DomainPlan {
            domain: Extent::new(offset, len),
            aggregator: 0,
            buffer,
            group: 0,
        }
    }

    #[test]
    fn rounds_and_windows() {
        let d = dp(100, 250, 100);
        assert_eq!(d.rounds(), 3);
        assert_eq!(d.window(0), Some(Extent::new(100, 100)));
        assert_eq!(d.window(1), Some(Extent::new(200, 100)));
        assert_eq!(d.window(2), Some(Extent::new(300, 50)));
        assert_eq!(d.window(3), None);
    }

    #[test]
    fn exact_multiple_has_no_tail_window() {
        let d = dp(0, 200, 100);
        assert_eq!(d.rounds(), 2);
        assert_eq!(d.window(2), None);
    }

    #[test]
    fn plan_round_count_is_max() {
        let plan = CollectivePlan {
            domains: vec![dp(0, 100, 100), dp(100, 500, 100)],
        };
        assert_eq!(plan.rounds(), 5);
        plan.assert_invariants();
    }

    #[test]
    fn aggregator_queries() {
        let mut plan = CollectivePlan {
            domains: vec![dp(0, 10, 10), dp(10, 10, 10), dp(20, 10, 10)],
        };
        plan.domains[0].aggregator = 4;
        plan.domains[2].aggregator = 4;
        plan.domains[1].aggregator = 1;
        assert_eq!(plan.aggregators(), vec![1, 4]);
        assert_eq!(plan.domains_of(4).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(plan.domains_of(7).count(), 0);
    }

    #[test]
    fn empty_plan_is_zero_rounds() {
        let plan = CollectivePlan::default();
        assert_eq!(plan.rounds(), 0);
        plan.assert_invariants();
    }

    #[test]
    #[should_panic(expected = "zero buffer")]
    fn zero_buffer_caught() {
        let plan = CollectivePlan {
            domains: vec![dp(0, 10, 0)],
        };
        plan.assert_invariants();
    }
}
