//! Access-pattern analysis: the metadata exchange at the head of every
//! collective I/O operation.
//!
//! Each rank flattens its own request to an extent list; an allgather
//! inside the (sub)communicator gives every member the complete picture
//! ([`GroupPattern`]). Everything the drivers decide — file domains,
//! aggregation groups, aggregator placement — derives from this shared
//! state, which is why both sides of every later exchange can be computed
//! locally without further negotiation.

use std::sync::{Arc, OnceLock};

use mccio_net::{Ctx, RankSet};

use crate::extent::{Extent, ExtentList, ExtentTable, ExtentsView, TouchIndex};

/// The complete access pattern of a group: every member's extent list,
/// in group order, flattened into one [`ExtentTable`] (two allocations
/// for the whole group, however many members).
#[derive(Debug)]
pub struct GroupPattern {
    group: RankSet,
    table: ExtentTable,
    /// Interval index over `table`, built lazily on the first
    /// [`GroupPattern::ranks_touching`] call — the gathered pattern is
    /// shared by every member, so one build serves the whole world.
    index: OnceLock<TouchIndex>,
    /// Packed-buffer starts of `table`'s extents, built lazily on the
    /// first [`GroupPattern::packed_starts`] call and shared the same
    /// way as `index`.
    packed: OnceLock<Vec<u64>>,
}

impl Clone for GroupPattern {
    fn clone(&self) -> Self {
        GroupPattern {
            group: self.group.clone(),
            table: self.table.clone(),
            index: OnceLock::new(),
            packed: OnceLock::new(),
        }
    }
}

/// The index is a cache derived from `table`; identity is the group and
/// the extents.
impl PartialEq for GroupPattern {
    fn eq(&self, other: &Self) -> bool {
        self.group == other.group && self.table == other.table
    }
}

impl Eq for GroupPattern {}

impl GroupPattern {
    /// SPMD: all members call this with their own extents; everyone
    /// returns the full pattern.
    ///
    /// Every member returns a handle to the *same* decoded pattern: the
    /// all-gather delivers one shared packed buffer to the whole group,
    /// and the world's decode cache parses it exactly once. At 10k+
    /// ranks this is the difference between one O(ranks) decode per
    /// operation and one per rank — and the shared handle's identity is
    /// what lets downstream plan caches recognize "same operation".
    ///
    /// The wire form is the delta varint encoding
    /// ([`ExtentList::encode_compact`]); the exchange is a control
    /// collective, so its virtual cost is payload-size-independent and
    /// shrinking the encoding changes no clock.
    pub fn gather(ctx: &mut Ctx, group: &RankSet, mine: &ExtentList) -> Arc<GroupPattern> {
        let packed = ctx.group_allgather_shared(group, mine.encode_compact());
        // Borrow, don't clone: the decode closure runs on the one rank
        // that populates the shared cache, so only that rank pays for
        // copying the member list (at 100k ranks an eager per-rank clone
        // here is gigabytes of churn per operation).
        ctx.world().decode_shared(&packed, |bytes| {
            let mut table = ExtentTable::new();
            for part in Ctx::allgather_parts(bytes) {
                table.push_compact(part);
            }
            GroupPattern {
                group: group.clone(),
                table,
                index: OnceLock::new(),
                packed: OnceLock::new(),
            }
        })
    }

    /// Builds a pattern directly (single-threaded analysis, tests,
    /// tuner). `per_rank` must be in group order.
    ///
    /// # Panics
    /// Panics if the lengths disagree.
    #[must_use]
    pub fn from_parts(group: RankSet, per_rank: Vec<ExtentList>) -> GroupPattern {
        assert_eq!(group.len(), per_rank.len(), "one extent list per member");
        GroupPattern {
            group,
            table: ExtentTable::from_lists(per_rank),
            index: OnceLock::new(),
            packed: OnceLock::new(),
        }
    }

    /// The group this pattern covers.
    #[must_use]
    pub fn group(&self) -> &RankSet {
        &self.group
    }

    /// Extents of a global `rank` (must be a member).
    ///
    /// # Panics
    /// Panics if `rank` is not in the group.
    #[must_use]
    pub fn extents_of_rank(&self, rank: usize) -> ExtentsView<'_> {
        let idx = self
            .group
            .index_of(rank)
            .unwrap_or_else(|| panic!("rank {rank} not in group"));
        self.table.view(idx)
    }

    /// Where each of `rank`'s extents starts in that rank's packed
    /// buffer, parallel to [`GroupPattern::extents_of_rank`] — so an
    /// aggregator can address a client's bytes without the client.
    ///
    /// # Panics
    /// Panics if `rank` is not in the group.
    #[must_use]
    pub fn packed_starts(&self, rank: usize) -> &[u64] {
        let idx = self
            .group
            .index_of(rank)
            .unwrap_or_else(|| panic!("rank {rank} not in group"));
        let all = self.packed.get_or_init(|| self.table.packed_starts());
        &all[self.table.range(idx)]
    }

    /// The smallest extent covering every member's accesses, or `None`
    /// when nobody accesses anything.
    #[must_use]
    pub fn global_range(&self) -> Option<Extent> {
        let begin = self.table.views().filter_map(|v| v.begin()).min()?;
        let end = self.table.views().filter_map(|v| v.end()).max()?;
        Some(Extent::new(begin, end - begin))
    }

    /// Total application bytes across members.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.table.all_extents().iter().map(|e| e.len).sum()
    }

    /// Global ranks whose accesses intersect `window`, ascending.
    ///
    /// Index-backed: `O(log n + k)` in the total extent count `n` and
    /// match count `k`, not `O(members)`. The member set is identical to
    /// the old per-member scan — collecting the owner of every matching
    /// extent and deduplicating selects exactly the members with at
    /// least one overlap, and sorting member indices restores ascending
    /// rank order (the group is sorted).
    #[must_use]
    pub fn ranks_touching(&self, window: Extent) -> Vec<usize> {
        let index = self.index.get_or_init(|| TouchIndex::build(&self.table));
        let mut members: Vec<u32> = Vec::new();
        index.members_touching(window, &mut members);
        members.sort_unstable();
        members.dedup();
        let ranks = self.group.members();
        members.into_iter().map(|m| ranks[m as usize]).collect()
    }

    /// Per-member `(begin, end)` of their access range, in group order;
    /// `None` for members with no accesses. This is the linearization the
    /// paper's Figure 4 draws.
    #[must_use]
    pub fn linearization(&self) -> Vec<Option<(u64, u64)>> {
        self.table
            .views()
            .map(|v| match (v.begin(), v.end()) {
                (Some(b), Some(x)) => Some((b, x)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccio_net::World;
    use mccio_sim::cost::CostModel;
    use mccio_sim::topology::{test_cluster, FillOrder, Placement};

    fn list(ranges: &[(u64, u64)]) -> ExtentList {
        ExtentList::normalize(ranges.iter().map(|&(o, l)| Extent::new(o, l)).collect())
    }

    #[test]
    fn from_parts_queries() {
        let g = RankSet::new(vec![0, 2, 5]);
        let p = GroupPattern::from_parts(
            g.clone(),
            vec![list(&[(0, 10)]), list(&[]), list(&[(50, 10), (100, 5)])],
        );
        assert_eq!(p.global_range(), Some(Extent::new(0, 105)));
        assert_eq!(p.total_bytes(), 25);
        assert_eq!(p.extents_of_rank(5).len(), 2);
        assert_eq!(p.ranks_touching(Extent::new(0, 60)), vec![0, 5]);
        assert_eq!(p.ranks_touching(Extent::new(20, 10)), Vec::<usize>::new());
        assert_eq!(
            p.linearization(),
            vec![Some((0, 10)), None, Some((50, 105))]
        );
    }

    #[test]
    fn gather_distributes_everything() {
        let cluster = test_cluster(2, 2);
        let placement = Placement::new(&cluster, 4, FillOrder::Block).unwrap();
        let world = World::new(CostModel::new(cluster), placement);
        let patterns = world.run(|ctx| {
            let group = RankSet::world(ctx.size());
            let mine = list(&[(ctx.rank() as u64 * 100, 10)]);
            GroupPattern::gather(ctx, &group, &mine)
        });
        for p in &patterns {
            assert_eq!(p, &patterns[0], "everyone sees the same pattern");
            assert_eq!(p.global_range(), Some(Extent::new(0, 310)));
            for r in 0..4 {
                assert_eq!(
                    p.extents_of_rank(r).as_slice(),
                    &[Extent::new(r as u64 * 100, 10)]
                );
            }
        }
    }

    #[test]
    fn empty_pattern_has_no_range() {
        let g = RankSet::new(vec![0, 1]);
        let p = GroupPattern::from_parts(g, vec![ExtentList::default(), ExtentList::default()]);
        assert_eq!(p.global_range(), None);
        assert_eq!(p.total_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "not in group")]
    fn wrong_rank_lookup_panics() {
        let g = RankSet::new(vec![0]);
        let p = GroupPattern::from_parts(g, vec![ExtentList::default()]);
        let _ = p.extents_of_rank(3);
    }
}
