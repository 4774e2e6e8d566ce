//! Group collectives over the point-to-point layer.
//!
//! All collectives here are *control-plane*: they move driver metadata
//! (offset lists, clocks, exchange matrices) and enforce causality, but
//! charge no transfer time — the bulk-data phases they coordinate are
//! priced analytically through [`mccio_sim::CostModel::shuffle_phase`].
//! The one data-plane collective, [`Ctx::exchange`], stands for the
//! shuffle's bytes (which move through the exposure table,
//! [`crate::expose`]) and likewise charges no transfer time, because
//! every caller immediately follows it with an analytic phase charge; it
//! updates the data-traffic counters at each message's declared wire
//! size so experiments can report shuffle volumes.
//!
//! Every operation is defined over a [`RankSet`] and must be called by
//! *all* members of the set, SPMD-style, in the same order — exactly
//! MPI's rule. The designated root is the smallest member.

use std::sync::Arc;

use mccio_sim::time::VTime;

use crate::engine::Ctx;
use crate::group::RankSet;
use crate::mailbox::Payload;
use crate::wire::{decode_f64, encode_f64, put_u64, Reader};

/// Internal tag space; user tags must stay below this.
pub const INTERNAL_TAG_BASE: u32 = 0xFF00_0000;
const TAG_GATHER: u32 = INTERNAL_TAG_BASE + 1;
const TAG_BCAST: u32 = INTERNAL_TAG_BASE + 2;
const TAG_BARRIER_IN: u32 = INTERNAL_TAG_BASE + 3;
const TAG_BARRIER_OUT: u32 = INTERNAL_TAG_BASE + 4;
const TAG_EXCHANGE: u32 = INTERNAL_TAG_BASE + 5;

impl Ctx {
    fn assert_member(&self, group: &RankSet, op: &str) {
        assert!(
            group.contains(self.rank()),
            "rank {} called {op} on a group it is not a member of: {:?}",
            self.rank(),
            group.members()
        );
    }

    /// Barrier over `group`. On return every member's clock equals the
    /// maximum entry clock across the group.
    pub fn group_barrier(&mut self, group: &RankSet) {
        self.assert_member(group, "group_barrier");
        let root = group.root();
        if self.rank() == root {
            for src in group.iter().filter(|&r| r != root) {
                let _ = self.recv(src, TAG_BARRIER_IN);
            }
            for dst in group.iter().filter(|&r| r != root) {
                self.send_ctl(dst, TAG_BARRIER_OUT, Vec::new());
            }
        } else {
            self.send_ctl(root, TAG_BARRIER_IN, Vec::new());
            let _ = self.recv(root, TAG_BARRIER_OUT);
        }
    }

    /// World barrier (all ranks).
    pub fn barrier(&mut self) {
        let world = self.world_ranks();
        self.group_barrier(&world);
    }

    /// Gathers each member's payload at the root. Returns
    /// `Some(payloads in group order)` at the root, `None` elsewhere.
    pub fn group_gather(&mut self, group: &RankSet, payload: Vec<u8>) -> Option<Vec<Vec<u8>>> {
        self.assert_member(group, "group_gather");
        let root = group.root();
        if self.rank() == root {
            let mut out: Vec<Vec<u8>> = Vec::with_capacity(group.len());
            for member in group.iter() {
                if member == root {
                    out.push(payload.clone());
                } else {
                    out.push(self.recv(member, TAG_GATHER));
                }
            }
            Some(out)
        } else {
            self.send_ctl(root, TAG_GATHER, payload);
            None
        }
    }

    /// Broadcasts the root's payload to every member; all members return
    /// the payload. Non-roots pass anything (conventionally empty).
    ///
    /// All in-flight copies share one buffer: a plan broadcast to 100k
    /// ranks queues O(plan) bytes, not O(ranks × plan). Receivers copy
    /// out on delivery.
    pub fn group_bcast(&mut self, group: &RankSet, payload: Vec<u8>) -> Vec<u8> {
        self.assert_member(group, "group_bcast");
        let root = group.root();
        if self.rank() == root {
            let shared: Arc<[u8]> = payload.as_slice().into();
            for dst in group.iter().filter(|&r| r != root) {
                self.send_ctl_payload(dst, TAG_BCAST, Payload::Shared(Arc::clone(&shared)));
            }
            payload
        } else {
            self.recv(root, TAG_BCAST)
        }
    }

    /// [`Ctx::group_bcast`] without the receive-side copy: every member
    /// (root included) returns a clone of the *same* shared allocation,
    /// whose identity can key [`crate::World::decode_shared`]. Wire
    /// traffic and clocks are identical to [`Ctx::group_bcast`].
    pub fn group_bcast_shared(&mut self, group: &RankSet, payload: Vec<u8>) -> Arc<[u8]> {
        self.assert_member(group, "group_bcast");
        let root = group.root();
        if self.rank() == root {
            let shared: Arc<[u8]> = payload.into();
            for dst in group.iter().filter(|&r| r != root) {
                self.send_ctl_payload(dst, TAG_BCAST, Payload::Shared(Arc::clone(&shared)));
            }
            shared
        } else {
            self.recv_shared(root, TAG_BCAST)
        }
    }

    /// All-gather: every member returns all members' payloads in group
    /// order. Implemented as gather + bcast of the concatenation.
    pub fn group_allgather(&mut self, group: &RankSet, payload: Vec<u8>) -> Vec<Vec<u8>> {
        let packed = self.group_allgather_shared(group, payload);
        let mut r = Reader::new(&packed);
        let n = r.u64() as usize;
        let lens: Vec<usize> = (0..n).map(|_| r.u64() as usize).collect();
        let parts = lens.iter().map(|&len| r.bytes(len).to_vec()).collect();
        r.finish();
        parts
    }

    /// [`Ctx::group_allgather`], returning the packed concatenation as
    /// one shared buffer instead of splitting it into per-member copies:
    /// a `u64` member count, the `u64` length of each part, then the
    /// parts back to back ([`Ctx::allgather_parts`] iterates them).
    /// Every member returns a clone of the same allocation, so decoding
    /// can be done once per world ([`crate::World::decode_shared`])
    /// instead of once per rank — the difference between O(n) and O(n²)
    /// total work for the metadata exchanges at 10k+ ranks.
    pub fn group_allgather_shared(&mut self, group: &RankSet, payload: Vec<u8>) -> Arc<[u8]> {
        self.assert_member(group, "group_allgather");
        let gathered = self.group_gather(group, payload);
        if let Some(parts) = gathered {
            let mut buf = Vec::new();
            put_u64(&mut buf, parts.len() as u64);
            for p in &parts {
                put_u64(&mut buf, p.len() as u64);
            }
            for p in &parts {
                buf.extend_from_slice(p);
            }
            self.group_bcast_shared(group, buf)
        } else {
            self.group_bcast_shared(group, Vec::new())
        }
    }

    /// Iterates the per-member parts of a packed all-gather buffer
    /// (as produced by [`Ctx::group_allgather_shared`]) without copying
    /// them out.
    ///
    /// # Panics
    /// Panics if the buffer is not a well-formed packed all-gather.
    pub fn allgather_parts(packed: &[u8]) -> impl Iterator<Item = &[u8]> {
        let mut r = Reader::new(packed);
        let n = r.u64() as usize;
        let lens: Vec<usize> = (0..n).map(|_| r.u64() as usize).collect();
        lens.into_iter().map(move |len| r.bytes(len))
    }

    /// All-reduce max over one `f64` per member.
    ///
    /// The fold over the gathered values is computed once per world and
    /// shared between the members (they all hold the same packed buffer),
    /// so a 10k-rank reduction costs one O(n) pass, not n of them.
    pub fn group_allreduce_max_f64(&mut self, group: &RankSet, value: f64) -> f64 {
        let packed = self.group_allgather_shared(group, encode_f64(value));
        *self.world().decode_shared(&packed, |bytes| {
            Ctx::allgather_parts(bytes)
                .map(decode_f64)
                .fold(f64::NEG_INFINITY, f64::max)
        })
    }

    /// Synchronizes clocks across the group: every member leaves with
    /// clock = max(entry clocks), which is also returned. Phase-based
    /// drivers call this before charging a jointly computed duration.
    pub fn group_sync_clocks(&mut self, group: &RankSet) -> VTime {
        self.group_barrier(group);
        self.clock()
    }

    /// Personalized all-to-all within a group (data plane): each send
    /// is `(dst, wire_bytes, body)`; `recv_from` lists the sources this
    /// rank expects a message from. Both sides of the exchange must be
    /// derivable from shared metadata — in collective I/O they always
    /// are. Self-sends short-circuit locally. Returns `(src, body)`
    /// pairs in `recv_from` order.
    ///
    /// The data a message stands for moves through the world's
    /// exposure table ([`crate::expose`]), so the message is counted in
    /// the traffic statistics, and reported to the causal observer, at
    /// its declared `wire_bytes`; `body` carries only what the caller
    /// adds on top (an integrity hash, or nothing). The exchange charges
    /// no transfer time: callers price the whole phase analytically.
    ///
    /// # Panics
    /// Panics if a destination or source is outside the group.
    pub fn exchange(
        &mut self,
        group: &RankSet,
        sends: Vec<(usize, u64, Vec<u8>)>,
        recv_from: &[usize],
    ) -> Vec<(usize, Vec<u8>)> {
        self.assert_member(group, "exchange");
        let me = self.rank();
        let mut self_body = None;
        for (dst, wire_bytes, body) in sends {
            assert!(
                group.contains(dst),
                "exchange destination {dst} outside group"
            );
            if dst == me {
                assert!(self_body.is_none(), "multiple self-sends in one exchange");
                self_body = Some(body);
            } else {
                self.account_exchange(dst, wire_bytes);
                self.send_sized(dst, TAG_EXCHANGE, body.into(), wire_bytes);
            }
        }
        let mut received = Vec::with_capacity(recv_from.len());
        for &src in recv_from {
            assert!(group.contains(src), "exchange source {src} outside group");
            if src == me {
                let body = self_body
                    .take()
                    .expect("recv_from lists self but sends has no self-send");
                received.push((me, body));
            } else {
                received.push((src, self.recv(src, TAG_EXCHANGE)));
            }
        }
        assert!(
            self_body.is_none(),
            "self-send was never received (missing self in recv_from)"
        );
        received
    }

    fn account_exchange(&self, dst: usize, bytes: u64) {
        let dst_node = self.placement().node_of(dst);
        self.world()
            .traffic()
            .account_data(self.node(), dst_node, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::World;
    use mccio_sim::cost::CostModel;
    use mccio_sim::time::VDuration;
    use mccio_sim::topology::{test_cluster, FillOrder, Placement};
    use std::sync::Arc;

    use crate::engine::ExecutorKind;

    const BOTH: [ExecutorKind; 2] = [ExecutorKind::Threads, ExecutorKind::Event];

    fn world_with(nodes: usize, cores: usize, ranks: usize, kind: ExecutorKind) -> Arc<World> {
        let cluster = test_cluster(nodes, cores);
        let placement = Placement::new(&cluster, ranks, FillOrder::Block).unwrap();
        World::with_executor(CostModel::new(cluster), placement, kind)
    }

    fn world(nodes: usize, cores: usize, ranks: usize) -> Arc<World> {
        world_with(nodes, cores, ranks, ExecutorKind::Threads)
    }

    #[test]
    fn barrier_syncs_clocks_to_max() {
        for kind in BOTH {
            let w = world_with(2, 2, 4, kind);
            let clocks = w.run(|ctx| {
                ctx.advance(VDuration::from_secs(ctx.rank() as f64));
                ctx.barrier();
                ctx.clock().as_secs()
            });
            for c in clocks {
                assert!((c - 3.0).abs() < 1e-12, "clock {c}");
            }
        }
    }

    #[test]
    fn gather_collects_in_group_order() {
        let w = world(1, 4, 4);
        let r = w.run(|ctx| {
            let group = RankSet::new(vec![3, 1, 0]);
            if !group.contains(ctx.rank()) {
                return None;
            }
            ctx.group_gather(&group, vec![ctx.rank() as u8])
        });
        assert_eq!(
            r[0],
            Some(vec![vec![0u8], vec![1u8], vec![3u8]]),
            "root is rank 0 and sees group order"
        );
        assert_eq!(r[1], None);
        assert_eq!(r[3], None);
    }

    #[test]
    fn bcast_distributes_root_payload() {
        for kind in BOTH {
            let w = world_with(2, 2, 4, kind);
            let r = w.run(|ctx| {
                let group = RankSet::world(ctx.size());
                let payload = if ctx.rank() == 0 {
                    b"hello".to_vec()
                } else {
                    vec![]
                };
                ctx.group_bcast(&group, payload)
            });
            for p in r {
                assert_eq!(p, b"hello");
            }
        }
    }

    #[test]
    fn allgather_gives_everyone_everything() {
        for kind in BOTH {
            let w = world_with(2, 2, 4, kind);
            let r = w.run(|ctx| {
                let group = RankSet::world(ctx.size());
                ctx.group_allgather(&group, vec![ctx.rank() as u8; ctx.rank() + 1])
            });
            for parts in r {
                assert_eq!(parts.len(), 4);
                for (i, p) in parts.iter().enumerate() {
                    assert_eq!(p, &vec![i as u8; i + 1]);
                }
            }
        }
    }

    #[test]
    fn allreduce_max() {
        let w = world(1, 4, 4);
        let r = w.run(|ctx| {
            let group = RankSet::world(ctx.size());
            ctx.group_allreduce_max_f64(&group, ctx.rank() as f64 * 1.5)
        });
        for v in r {
            assert_eq!(v, 4.5);
        }
    }

    #[test]
    fn disjoint_group_collectives_run_concurrently() {
        let w = world(2, 2, 4);
        let r = w.run(|ctx| {
            let group = if ctx.rank() < 2 {
                RankSet::new(vec![0, 1])
            } else {
                RankSet::new(vec![2, 3])
            };
            let all = ctx.group_allgather(&group, vec![ctx.rank() as u8]);
            all.into_iter().map(|p| p[0]).collect::<Vec<_>>()
        });
        assert_eq!(r[0], vec![0, 1]);
        assert_eq!(r[1], vec![0, 1]);
        assert_eq!(r[2], vec![2, 3]);
        assert_eq!(r[3], vec![2, 3]);
    }

    #[test]
    fn exchange_delivers_personalized_payloads() {
        for kind in BOTH {
            exchange_case(kind);
        }
    }

    fn exchange_case(kind: ExecutorKind) {
        let w = world_with(2, 2, 4, kind);
        let r = w.run(|ctx| {
            let group = RankSet::world(ctx.size());
            let me = ctx.rank();
            // Everyone sends one byte [me*10+dst] to every rank (self included).
            let sends: Vec<(usize, u64, Vec<u8>)> = (0..4)
                .map(|dst| (dst, 1, vec![(me * 10 + dst) as u8]))
                .collect();
            let recv_from: Vec<usize> = (0..4).collect();
            let got = ctx.exchange(&group, sends, &recv_from);
            got.into_iter()
                .map(|(src, p)| (src, p[0]))
                .collect::<Vec<_>>()
        });
        for (me, got) in r.into_iter().enumerate() {
            for (i, (src, byte)) in got.into_iter().enumerate() {
                assert_eq!(src, i);
                assert_eq!(byte as usize, src * 10 + me);
            }
        }
    }

    #[test]
    fn exchange_counts_traffic() {
        for kind in BOTH {
            let w = world_with(2, 2, 4, kind);
            // Node 0 holds ranks 0-1, node 1 holds ranks 2-3: one
            // message each way between the nodes plus one within node 0.
            // Traffic counts the declared wire sizes; bodies arrive as
            // sent.
            let got = w.run(|ctx| {
                let group = RankSet::world(ctx.size());
                let (dst, wire, body, recv_from): (_, _, _, &[usize]) = match ctx.rank() {
                    0 => (Some(2), 100, Vec::new(), &[1]),
                    1 => (Some(0), 7, vec![1u8; 7], &[3]),
                    2 => (None, 0, Vec::new(), &[0]),
                    _ => (Some(1), 40, vec![3u8; 8], &[]),
                };
                let sends = dst.map(|d| (d, wire, body)).into_iter().collect();
                ctx.exchange(&group, sends, recv_from)
            });
            assert_eq!(got[0], [(1, vec![1u8; 7])]);
            assert_eq!(got[1], [(3, vec![3u8; 8])]);
            assert_eq!(got[2], [(0, Vec::new())]);
            assert!(got[3].is_empty());
            let t = w.traffic().snapshot();
            assert_eq!(t.data_msgs, 3);
            assert_eq!(t.inter_bytes, 140);
            assert_eq!(t.intra_bytes, 7);
            assert_eq!(t.node_egress, [100, 40]);
            assert_eq!(t.node_ingress, [40, 100]);
        }
    }

    #[test]
    // The member assertion fires on the rank thread; World::run
    // propagates it as a generic scoped-thread panic.
    #[should_panic(expected = "a scoped thread panicked")]
    fn non_member_collective_is_a_bug() {
        let w = world(1, 2, 2);
        let _ = w.run(|ctx| {
            let group = RankSet::new(vec![0]);
            ctx.group_barrier(&group); // rank 1 panics
        });
    }
}
