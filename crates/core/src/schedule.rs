//! Plan-time communication schedule: everything the round loop would
//! otherwise rediscover each round, computed once per collective
//! operation.
//!
//! Given a `(CollectivePlan, GroupPattern)` pair, who sends which bytes
//! to whom in round `r` is fully determined before the first byte
//! moves. The legacy round loop nevertheless rescanned all group
//! members against all active windows on every rank every round
//! (`O(members × windows)` even on ranks that aggregate nothing),
//! re-normalized window unions, and rebuilt packed layouts. The
//! [`CommSchedule`] front-loads all of it:
//!
//! * per round, this rank's **client sends** — destination aggregators
//!   in first-touch order with exact wire sizes, and the pieces of this
//!   rank's request routed to each ([`ClientWindow`]);
//! * per round, the windows this rank **aggregates** — contributing
//!   ranks with their clipped extents and where each piece sits in the
//!   contributor's packed buffer, the precomputed union
//!   [`ExtentList`], its packed-buffer layout, and the assembly-buffer
//!   size ([`WindowSchedule`]);
//! * both **receive lists**: who sends to this aggregator (write) and
//!   which aggregators cover this client (read).
//!
//! The round executor (`crate::engine`) then reduces to a pure
//! data-movement loop. Virtual time is unaffected by construction: the
//! schedule reproduces exactly the per-round flow lists, storage
//! shapes, and assembly volumes the legacy discovery produced, in the
//! same order — `tests/golden_determinism.rs` pins this to the bit.
//!
//! Candidate contributors are prefiltered per *domain* (once per
//! operation), so each round's aggregator-side work touches only ranks
//! whose requests can intersect the domain at all — the schedule build
//! is `O(rounds × (my windows + my domains' candidates))`, not
//! `O(rounds × members × windows)`.

use mccio_mpiio::{Extent, ExtentList, ExtentsView, GroupPattern, SieveConfig};

use crate::plan::CollectivePlan;

/// Wire cost of one section header: domain word + piece-count word.
const SECTION_HEADER: usize = 16;
/// Wire cost of one piece header: offset word + length word.
const PIECE_HEADER: usize = 16;
/// Wire cost of the leading section-count word.
const COUNT_WORD: usize = 8;

/// One send destination of a round: the peer rank and the message's
/// wire size. The bytes themselves move through the exposure table
/// (`mccio_net::expose`); the message carries the size the traffic
/// counters record — a count word, then per window section a header,
/// a header per piece and the piece bytes, plus the integrity trailer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendDst {
    /// Destination rank.
    pub rank: usize,
    /// The message's wire size in bytes.
    pub payload_bytes: usize,
}

impl SendDst {
    /// `trailer` is the per-message overhead of the end-to-end checksum
    /// (0 when integrity is off, [`crate::engine::CHECKSUM_TRAILER`]
    /// under a crash plan).
    fn new(rank: usize, trailer: usize) -> Self {
        SendDst {
            rank,
            payload_bytes: COUNT_WORD + trailer,
        }
    }

    /// Adds one window's section of `n_pieces` pieces totalling `bytes`.
    fn add_section(&mut self, n_pieces: usize, bytes: u64) {
        self.payload_bytes += SECTION_HEADER + PIECE_HEADER * n_pieces + bytes as usize;
    }
}

/// One active window this rank contributes to as a client in the write
/// direction: where the pieces go and exactly which bytes they are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientWindow {
    /// Index of the window's domain in the plan.
    pub domain: usize,
    /// Slot into the round's [`RoundSchedule::client_dsts`].
    pub dst: usize,
    /// Bytes this rank ships for this window (the priced flow).
    pub bytes: u64,
    /// The pieces: each clipped file extent paired with its start
    /// offset in this rank's packed data buffer.
    pub pieces: Vec<(Extent, u64)>,
}

/// One contributing rank within an aggregated window: its clipped
/// extents, where they sit in its packed buffer, and (for the read
/// direction) which message they ride.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankPieces {
    /// The contributing (write) / requesting (read) rank.
    pub rank: usize,
    /// Slot into the round's [`RoundSchedule::agg_dsts`].
    pub dst: usize,
    /// Bytes of this rank inside the window (the priced read flow).
    pub bytes: u64,
    /// The rank's extents clipped to the window, each paired with its
    /// start offset in that rank's packed buffer — the same pairs the
    /// rank's own [`ClientWindow`] for this window holds.
    pub pieces: Vec<(Extent, u64)>,
}

/// One window this rank aggregates in a round, with its precomputed
/// assembly shape: the union extent list, its packed-buffer layout, and
/// the buffer size the assembly needs.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSchedule {
    /// Index of the window's domain in the plan.
    pub domain: usize,
    /// The file window serviced this round.
    pub window: Extent,
    /// Contributing ranks in ascending order with their clipped pieces.
    pub per_rank: Vec<RankPieces>,
    /// Union of every contributor's pieces — the shape of the one
    /// sieved storage access this window issues.
    pub union: ExtentList,
    /// Assembly-buffer bytes (`union.total_bytes()`), the volume priced
    /// as aggregation-memory traffic.
    pub assembly_bytes: u64,
    /// Packed-buffer cumulative offsets of `union`.
    cum: Vec<u64>,
}

impl WindowSchedule {
    /// Position of file byte `off` in the window's packed assembly
    /// buffer. `off` must be covered by the union.
    #[must_use]
    pub fn position(&self, off: u64) -> usize {
        let slice = self.union.as_slice();
        let idx = slice.partition_point(|e| e.end() <= off);
        let e = &slice[idx];
        debug_assert!(e.contains(off), "offset {off} outside window layout");
        (self.cum[idx] + (off - e.offset)) as usize
    }

    /// The sieve configuration of this window's storage access: one
    /// covering access sized to the window.
    #[must_use]
    pub fn sieve(&self) -> SieveConfig {
        SieveConfig {
            buffer_size: self.window.len.max(1),
        }
    }
}

/// `extents` clipped to window `w`, each piece paired with its start in
/// the owner's packed buffer (`starts` is parallel to `extents`), and
/// the pieces' total bytes.
fn clip_packed(extents: ExtentsView<'_>, starts: &[u64], w: Extent) -> (Vec<(Extent, u64)>, u64) {
    let mut bytes = 0u64;
    let pieces = extents
        .clip_indexed(w)
        .map(|(idx, piece)| {
            bytes += piece.len;
            let base = extents.as_slice()[idx];
            (piece, starts[idx] + (piece.offset - base.offset))
        })
        .collect();
    (pieces, bytes)
}

/// Everything one rank does in one round, precomputed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RoundSchedule {
    /// Write-direction destinations in first-touch (domain) order.
    pub client_dsts: Vec<SendDst>,
    /// This rank's contributions per active window, in domain order.
    pub client_windows: Vec<ClientWindow>,
    /// Windows this rank aggregates, in domain order.
    pub agg_windows: Vec<WindowSchedule>,
    /// Read-direction scatter destinations in first-touch order.
    pub agg_dsts: Vec<SendDst>,
    /// Write-direction receive list: ranks whose data falls in a window
    /// this rank aggregates, ascending.
    pub agg_sources: Vec<usize>,
    /// Read-direction receive list: the aggregators of windows covering
    /// this rank's request, ascending.
    pub client_sources: Vec<usize>,
}

/// The complete per-rank communication schedule of one collective
/// operation: one [`RoundSchedule`] per lock-step round.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CommSchedule {
    /// Per-round schedules, index = round number.
    pub rounds: Vec<RoundSchedule>,
}

impl CommSchedule {
    /// Builds rank `me`'s schedule for executing `plan` against
    /// `pattern`. `my_extents` is the rank's own request (what the
    /// engine is handed), `pattern` the gathered view the aggregator
    /// side works from; for group members the two agree.
    ///
    /// Pure — no communication, no clock movement — so callers may
    /// build and inspect schedules freely.
    #[must_use]
    pub fn build(
        plan: &CollectivePlan,
        pattern: &GroupPattern,
        me: usize,
        my_extents: &ExtentList,
    ) -> Self {
        Self::build_with_integrity(plan, pattern, me, my_extents, false)
    }

    /// Like [`CommSchedule::build`], with optional end-to-end
    /// integrity: when `integrity` is set every scheduled message is
    /// sized for the checksum the engine's crash-gated path sends.
    #[must_use]
    pub fn build_with_integrity(
        plan: &CollectivePlan,
        pattern: &GroupPattern,
        me: usize,
        my_extents: &ExtentList,
        integrity: bool,
    ) -> Self {
        let trailer = if integrity {
            crate::engine::CHECKSUM_TRAILER
        } else {
            0
        };
        let my_cum = my_extents.cumulative_offsets();
        // Contributor candidates per domain this rank aggregates,
        // prefiltered once against the whole domain so per-round clips
        // touch only ranks that can intersect it. Index-backed
        // ([`GroupPattern::ranks_touching`]): the candidate list is the
        // identical ascending set the old full-member scan produced,
        // found in `O(log n + k)` instead of `O(members)` per domain.
        let my_domains: Vec<(usize, Vec<usize>)> = plan
            .domains_of(me)
            .map(|di| (di, pattern.ranks_touching(plan.domains[di].domain)))
            .collect();

        // Domains this rank's own request can intersect, ascending.
        // Iterating these per round instead of every active window skips
        // only windows whose clip would come back empty (a window is a
        // subset of its domain), so the emitted schedule is unchanged.
        let my_client_domains = plan.domains_overlapping(my_extents.as_slice());

        let n_rounds = plan.rounds();
        let mut rounds = Vec::with_capacity(n_rounds as usize);
        for round in 0..n_rounds {
            let mut rs = RoundSchedule::default();

            // Client (write) side: clip this rank's request against
            // every active window; destinations in first-touch order.
            for (di, w) in my_client_domains
                .iter()
                .filter_map(|&di| plan.domains[di].window(round).map(|w| (di, w)))
            {
                let (pieces, bytes) = clip_packed(my_extents.view(), &my_cum, w);
                if pieces.is_empty() {
                    continue;
                }
                let agg = plan.domains[di].aggregator;
                let dst = rs
                    .client_dsts
                    .iter()
                    .position(|d| d.rank == agg)
                    .unwrap_or_else(|| {
                        rs.client_dsts.push(SendDst::new(agg, trailer));
                        rs.client_dsts.len() - 1
                    });
                rs.client_dsts[dst].add_section(pieces.len(), bytes);
                rs.client_windows.push(ClientWindow {
                    domain: di,
                    dst,
                    bytes,
                    pieces,
                });
            }
            rs.client_sources = rs
                .client_windows
                .iter()
                .map(|c| plan.domains[c.domain].aggregator)
                .collect();
            rs.client_sources.sort_unstable();
            rs.client_sources.dedup();

            // Aggregator side: one WindowSchedule per active window this
            // rank owns, contributors clipped from the candidate lists.
            for (di, candidates) in &my_domains {
                let Some(w) = plan.domains[*di].window(round) else {
                    continue;
                };
                let mut shapes: Vec<Extent> = Vec::new();
                let mut per_rank: Vec<RankPieces> = Vec::new();
                for &rank in candidates {
                    let (pieces, bytes) = clip_packed(
                        pattern.extents_of_rank(rank),
                        pattern.packed_starts(rank),
                        w,
                    );
                    if pieces.is_empty() {
                        continue;
                    }
                    shapes.extend(pieces.iter().map(|&(e, _)| e));
                    let dst = rs
                        .agg_dsts
                        .iter()
                        .position(|d| d.rank == rank)
                        .unwrap_or_else(|| {
                            rs.agg_dsts.push(SendDst::new(rank, trailer));
                            rs.agg_dsts.len() - 1
                        });
                    rs.agg_dsts[dst].add_section(pieces.len(), bytes);
                    per_rank.push(RankPieces {
                        rank,
                        dst,
                        bytes,
                        pieces,
                    });
                }
                if per_rank.is_empty() {
                    continue;
                }
                let union = ExtentList::normalize(shapes);
                debug_assert!(union.end().unwrap_or(0) <= w.end());
                rs.agg_windows.push(WindowSchedule {
                    domain: *di,
                    window: w,
                    per_rank,
                    assembly_bytes: union.total_bytes(),
                    cum: union.cumulative_offsets(),
                    union,
                });
            }
            rs.agg_sources = rs
                .agg_windows
                .iter()
                .flat_map(|ws| ws.per_rank.iter().map(|p| p.rank))
                .collect();
            rs.agg_sources.sort_unstable();
            rs.agg_sources.dedup();

            rounds.push(rs);
        }
        CommSchedule { rounds }
    }

    /// Total bytes this rank ships as a client across all rounds.
    #[must_use]
    pub fn client_bytes(&self) -> u64 {
        self.rounds
            .iter()
            .flat_map(|r| r.client_windows.iter())
            .map(|c| c.bytes)
            .sum()
    }

    /// Total bytes this rank assembles as an aggregator across all
    /// rounds.
    #[must_use]
    pub fn assembled_bytes(&self) -> u64 {
        self.rounds
            .iter()
            .flat_map(|r| r.agg_windows.iter())
            .map(|w| w.assembly_bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::DomainPlan;
    use mccio_net::RankSet;

    fn pattern_of(per_rank: Vec<Vec<(u64, u64)>>) -> GroupPattern {
        let n = per_rank.len();
        GroupPattern::from_parts(
            RankSet::world(n),
            per_rank
                .into_iter()
                .map(|v| {
                    ExtentList::normalize(v.into_iter().map(|(o, l)| Extent::new(o, l)).collect())
                })
                .collect(),
        )
    }

    fn plan_of(domains: Vec<(u64, u64, usize, u64)>) -> CollectivePlan {
        CollectivePlan {
            domains: domains
                .into_iter()
                .map(|(off, len, agg, buffer)| DomainPlan {
                    domain: Extent::new(off, len),
                    aggregator: agg,
                    buffer,
                    group: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn schedule_routes_interleaved_pattern() {
        // Two ranks interleave 10-byte blocks over [0, 40); rank 0
        // aggregates [0, 20), rank 1 aggregates [20, 40), 10-byte
        // windows -> 2 rounds.
        let pattern = pattern_of(vec![vec![(0, 10), (20, 10)], vec![(10, 10), (30, 10)]]);
        let plan = plan_of(vec![(0, 20, 0, 10), (20, 20, 1, 10)]);
        let s0 = CommSchedule::build(&plan, &pattern, 0, &pattern.extents_of_rank(0).to_list());
        assert_eq!(s0.rounds.len(), 2);
        // Round 0: windows [0,10) (agg 0) and [20,30) (agg 1); rank 0
        // owns both pieces.
        let r0 = &s0.rounds[0];
        assert_eq!(r0.client_dsts.len(), 2);
        assert_eq!(r0.client_dsts[0].rank, 0);
        assert_eq!(r0.client_dsts[1].rank, 1);
        assert_eq!(r0.client_windows.len(), 2);
        assert_eq!(r0.client_windows[0].bytes, 10);
        // Rank 0 aggregates [0,10): only rank 0 contributes there.
        assert_eq!(r0.agg_windows.len(), 1);
        assert_eq!(r0.agg_windows[0].per_rank.len(), 1);
        assert_eq!(r0.agg_windows[0].assembly_bytes, 10);
        assert_eq!(r0.agg_sources, vec![0]);
        assert_eq!(r0.client_sources, vec![0, 1]);
        // Round 1: windows [10,20) and [30,40); rank 1's data only.
        let r1 = &s0.rounds[1];
        assert!(r1.client_windows.is_empty());
        assert_eq!(r1.agg_windows.len(), 1);
        assert_eq!(r1.agg_windows[0].per_rank[0].rank, 1);
        assert!(r1.client_sources.is_empty());
    }

    #[test]
    fn payload_bytes_match_wire_format() {
        let pattern = pattern_of(vec![vec![(0, 5), (8, 4)], vec![]]);
        let plan = plan_of(vec![(0, 12, 1, 12)]);
        let s = CommSchedule::build(&plan, &pattern, 0, &pattern.extents_of_rank(0).to_list());
        let dst = &s.rounds[0].client_dsts[0];
        // count + (domain + n_pieces) + 2 piece headers + 9 data bytes.
        assert_eq!(dst.payload_bytes, 8 + 16 + 2 * 16 + 9);
        // The aggregator's view prices the same volume.
        let s1 = CommSchedule::build(&plan, &pattern, 1, &pattern.extents_of_rank(1).to_list());
        let ws = &s1.rounds[0].agg_windows[0];
        assert_eq!(ws.assembly_bytes, 9);
        assert_eq!(ws.per_rank[0].bytes, 9);
        // Each piece keeps its start in rank 0's packed buffer.
        assert_eq!(
            ws.per_rank[0].pieces,
            [(Extent::new(0, 5), 0), (Extent::new(8, 4), 5)]
        );
        assert_eq!(ws.position(8), 5);
        assert_eq!(ws.sieve().buffer_size, 12);
    }

    #[test]
    fn integrity_sizing_adds_one_trailer_per_message() {
        let pattern = pattern_of(vec![vec![(0, 5), (8, 4)], vec![]]);
        let plan = plan_of(vec![(0, 12, 1, 12)]);
        let plain = CommSchedule::build(&plan, &pattern, 0, &pattern.extents_of_rank(0).to_list());
        let sealed = CommSchedule::build_with_integrity(
            &plan,
            &pattern,
            0,
            &pattern.extents_of_rank(0).to_list(),
            true,
        );
        let p = &plain.rounds[0].client_dsts[0];
        let s = &sealed.rounds[0].client_dsts[0];
        assert_eq!(s.payload_bytes, p.payload_bytes + 8);
        // Everything but message sizing is identical.
        assert_eq!(
            plain.rounds[0].client_windows,
            sealed.rounds[0].client_windows
        );
        assert_eq!(plain.client_bytes(), sealed.client_bytes());
    }

    #[test]
    fn totals_roll_up() {
        let pattern = pattern_of(vec![vec![(0, 16)], vec![(16, 16)]]);
        let plan = plan_of(vec![(0, 32, 0, 8)]);
        let s = CommSchedule::build(&plan, &pattern, 0, &pattern.extents_of_rank(0).to_list());
        assert_eq!(s.client_bytes(), 16);
        assert_eq!(s.assembled_bytes(), 32);
    }

    #[test]
    fn empty_plan_yields_empty_schedule() {
        let pattern = pattern_of(vec![vec![], vec![]]);
        let plan = CollectivePlan::default();
        let s = CommSchedule::build(&plan, &pattern, 0, &ExtentList::default());
        assert!(s.rounds.is_empty());
        assert_eq!(s.client_bytes(), 0);
    }
}
