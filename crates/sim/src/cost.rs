//! The analytic network/memory cost model.
//!
//! Collective I/O drivers know their exact communication pattern (who
//! ships how many bytes to whom in a shuffle round). Instead of trying to
//! recover contention from the interleaving of individual messages — which
//! would make virtual time depend on thread scheduling — the drivers hand
//! the whole round's *exchange pattern* to [`CostModel::shuffle_phase`],
//! which prices it deterministically:
//!
//! * every byte entering or leaving a node crosses that node's NIC once →
//!   NIC serialization term `max(ingress, egress) / nic_bw` per node;
//! * every byte sent or received also crosses the node's off-chip memory
//!   (aggregation buffers live in DRAM); intra-node transfers cross it
//!   twice (copy out of the sender, into the receiver) → DRAM term, scaled
//!   by a per-node *memory pressure factor* supplied by `mccio-mem`
//!   (1.0 = healthy, >1.0 = thrashing);
//! * a single flow can never beat the per-flow link bandwidth → per-flow
//!   floor;
//! * each message costs fixed software/injection overhead at both
//!   endpoints → per-message term that penalizes many-small-message
//!   rounds.
//!
//! The round time is the max of the serialization terms (they overlap)
//! plus the latency of the longest dependency chain. This is the only
//! pricing of message traffic: individual messages carry causality but
//! no cost of their own (see `mccio_net::engine`'s clock rule).

use crate::time::VDuration;
use crate::topology::{ClusterSpec, Placement};

/// One directed transfer in a shuffle phase: `bytes` moving from rank
/// `src` to rank `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flow {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Payload size in bytes.
    pub bytes: u64,
}

/// Per-node tallies accumulated while pricing a phase.
#[derive(Debug, Clone, Copy, Default)]
struct NodeLoad {
    /// Bytes leaving the node over the NIC.
    egress: u64,
    /// Bytes entering the node over the NIC.
    ingress: u64,
    /// Bytes crossing the node's DRAM (send + receive + 2× intra-node).
    dram: u64,
    /// Messages with an endpoint on this node.
    messages: u64,
}

/// Software cost per *shuffle* message at an endpoint, seconds. Shuffle
/// messages carry derived-datatype pieces: matching against many posted
/// receives, unpacking noncontiguous payloads. ~20 µs is the
/// small-message regime that makes many-round collective I/O expensive
/// at scale.
const SHUFFLE_MESSAGE_OVERHEAD: f64 = 20.0e-6;

/// Per-participant cost of the per-round control collective (the
/// offset/length alltoall and round synchronization), seconds.
const SYNC_PER_RANK: f64 = 2.0e-6;

/// Deterministic translator from data-movement volumes to virtual time.
#[derive(Debug, Clone)]
pub struct CostModel {
    cluster: ClusterSpec,
}

impl CostModel {
    /// Builds a cost model over `cluster`.
    #[must_use]
    pub fn new(cluster: ClusterSpec) -> Self {
        CostModel { cluster }
    }

    /// Cost of one round's control synchronization across `n` ranks:
    /// a tree latency term plus the per-rank metadata handling.
    #[must_use]
    pub fn round_sync(&self, n: usize) -> VDuration {
        if n <= 1 {
            return VDuration::ZERO;
        }
        let depth = (usize::BITS - (n - 1).leading_zeros()) as f64;
        VDuration::from_secs(self.cluster.link_latency * depth + n as f64 * SYNC_PER_RANK)
    }

    /// The cluster this model prices.
    #[must_use]
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Prices one shuffle round described by `flows`.
    ///
    /// `mem_factor[node]` scales that node's DRAM time (1.0 = healthy;
    /// values above 1.0 model paging/thrashing when aggregation buffers
    /// exceed available memory). An empty slice means all nodes healthy.
    ///
    /// # Panics
    /// Panics if a flow references a rank outside `placement`, or if
    /// `mem_factor` is non-empty but shorter than the node count — both
    /// are driver bugs.
    #[must_use]
    pub fn shuffle_phase(
        &self,
        placement: &Placement,
        flows: &[Flow],
        mem_factor: &[f64],
    ) -> VDuration {
        let n_nodes = placement.n_nodes();
        assert!(
            mem_factor.is_empty() || mem_factor.len() >= n_nodes,
            "mem_factor has {} entries for {} nodes",
            mem_factor.len(),
            n_nodes
        );
        let mut loads = vec![NodeLoad::default(); n_nodes];
        let mut per_flow_floor = VDuration::ZERO;
        let mut any_inter = false;
        let mut any_flow = false;
        for f in flows {
            if f.bytes == 0 && f.src == f.dst {
                continue;
            }
            any_flow = true;
            let sn = placement.node_of(f.src);
            let dn = placement.node_of(f.dst);
            loads[sn].messages += 1;
            loads[dn].messages += 1;
            if sn == dn {
                // Intra-node: the payload crosses DRAM twice (copy out of
                // sender's buffer, into receiver's buffer).
                loads[sn].dram += 2 * f.bytes;
                let bw = self.cluster.nodes[sn].mem_bandwidth;
                per_flow_floor = per_flow_floor.max(VDuration::transfer(f.bytes, bw));
            } else {
                any_inter = true;
                loads[sn].egress += f.bytes;
                loads[dn].ingress += f.bytes;
                loads[sn].dram += f.bytes;
                loads[dn].dram += f.bytes;
                per_flow_floor = per_flow_floor.max(VDuration::transfer(
                    f.bytes,
                    self.cluster
                        .link_bandwidth
                        .min(self.cluster.nodes[sn].nic_bandwidth)
                        .min(self.cluster.nodes[dn].nic_bandwidth),
                ));
            }
        }
        if !any_flow {
            return VDuration::ZERO;
        }
        let mut serialization = per_flow_floor;
        for (node, load) in loads.iter().enumerate() {
            let spec = &self.cluster.nodes[node];
            let nic_bytes = load.egress.max(load.ingress);
            let nic = VDuration::transfer(nic_bytes, spec.nic_bandwidth);
            let factor = mem_factor.get(node).copied().unwrap_or(1.0);
            let dram = VDuration::transfer(load.dram, spec.mem_bandwidth) * factor.max(1.0);
            let software = VDuration::from_secs(load.messages as f64 * SHUFFLE_MESSAGE_OVERHEAD);
            serialization = serialization.max(nic).max(dram).max(software);
        }
        let latency = if any_inter {
            self.cluster.link_latency
        } else {
            self.cluster.intra_latency
        };
        VDuration::from_secs(latency) + serialization
    }

    /// Cost of touching `bytes` of local memory on `node` (buffer
    /// assembly, sieving copies), under memory-pressure `factor`.
    #[must_use]
    pub fn local_copy(&self, node: usize, bytes: u64, factor: f64) -> VDuration {
        VDuration::transfer(bytes, self.cluster.nodes[node].mem_bandwidth) * factor.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{test_cluster, FillOrder};
    use crate::units::{GIB, MIB};

    fn setup(nodes: usize, cores: usize, ranks: usize) -> (CostModel, Placement) {
        let cluster = test_cluster(nodes, cores);
        let placement = Placement::new(&cluster, ranks, FillOrder::Block).unwrap();
        (CostModel::new(cluster), placement)
    }

    #[test]
    fn empty_phase_is_free() {
        let (m, p) = setup(2, 2, 4);
        assert_eq!(m.shuffle_phase(&p, &[], &[]), VDuration::ZERO);
    }

    #[test]
    fn phase_time_scales_with_nic_serialization() {
        let (m, p) = setup(3, 2, 6);
        // Two senders on distinct nodes each ship 256 MiB to rank 0:
        // node 0 ingress = 512 MiB over a 1 GiB/s NIC ≈ 0.5 s.
        let flows = [
            Flow {
                src: 2,
                dst: 0,
                bytes: 256 * MIB,
            },
            Flow {
                src: 4,
                dst: 0,
                bytes: 256 * MIB,
            },
        ];
        let t = m.shuffle_phase(&p, &flows, &[]).as_secs();
        assert!((t - 0.5).abs() < 0.05, "got {t}");
        // One sender shipping the same total is no faster (same ingress).
        let one = [Flow {
            src: 2,
            dst: 0,
            bytes: 512 * MIB,
        }];
        let t1 = m.shuffle_phase(&p, &one, &[]).as_secs();
        assert!((t1 - 0.5).abs() < 0.05, "got {t1}");
    }

    #[test]
    fn concentrating_ingress_is_slower_than_spreading() {
        let (m, p) = setup(4, 2, 8);
        let to_one: Vec<Flow> = (2..8)
            .map(|src| Flow {
                src,
                dst: 0,
                bytes: 64 * MIB,
            })
            .collect();
        // Same volume, but spread over 2 receivers on different nodes.
        let spread: Vec<Flow> = (2..8)
            .map(|src| Flow {
                src,
                dst: if src % 2 == 0 { 0 } else { 2 },
                bytes: 64 * MIB,
            })
            .collect();
        let t_one = m.shuffle_phase(&p, &to_one, &[]);
        let t_spread = m.shuffle_phase(&p, &spread, &[]);
        assert!(
            t_spread.as_secs() < t_one.as_secs(),
            "spreading ingress must win: {t_spread:?} vs {t_one:?}"
        );
    }

    #[test]
    fn memory_pressure_slows_a_phase() {
        let (m, p) = setup(2, 2, 4);
        let flows = [Flow {
            src: 2,
            dst: 0,
            bytes: 512 * MIB,
        }];
        let healthy = m.shuffle_phase(&p, &flows, &[1.0, 1.0]);
        // Node 0 thrashing at 40x: its DRAM term (512 MiB / 10 GiB/s = 50 ms,
        // ×40 = 2 s) dominates the NIC term (0.5 s).
        let thrashing = m.shuffle_phase(&p, &flows, &[40.0, 1.0]);
        assert!(thrashing.as_secs() > 3.0 * healthy.as_secs());
        // Pressure on an uninvolved node changes nothing... node 1 *is*
        // involved (sender), so pressure there also matters.
        let sender_thrash = m.shuffle_phase(&p, &flows, &[1.0, 40.0]);
        assert!(sender_thrash > healthy);
    }

    #[test]
    fn many_small_messages_pay_software_overhead() {
        let (m, p) = setup(2, 4, 8);
        let small: Vec<Flow> = (4..8)
            .flat_map(|src| (0..4).map(move |dst| Flow { src, dst, bytes: 1 }))
            .collect();
        let t = m.shuffle_phase(&p, &small, &[]);
        // 16 messages × 2 endpoints / 2 nodes = 16 endpoint-messages per
        // node × 1 µs = 16 µs floor, plus latency.
        assert!(t.as_secs() >= 16e-6, "{t:?}");
    }

    #[test]
    fn intra_node_flows_skip_the_nic() {
        let (m, p) = setup(2, 4, 8);
        let intra = [Flow {
            src: 0,
            dst: 1,
            bytes: GIB,
        }];
        let inter = [Flow {
            src: 0,
            dst: 4,
            bytes: GIB,
        }];
        let t_intra = m.shuffle_phase(&p, &intra, &[]);
        let t_inter = m.shuffle_phase(&p, &inter, &[]);
        assert!(t_intra.as_secs() < t_inter.as_secs());
    }

    #[test]
    fn zero_byte_self_flows_ignored() {
        let (m, p) = setup(2, 2, 4);
        let flows = [Flow {
            src: 1,
            dst: 1,
            bytes: 0,
        }];
        assert_eq!(m.shuffle_phase(&p, &flows, &[]), VDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "mem_factor")]
    fn short_mem_factor_panics() {
        let (m, p) = setup(3, 2, 6);
        let flows = [Flow {
            src: 0,
            dst: 2,
            bytes: 1,
        }];
        let _ = m.shuffle_phase(&p, &flows, &[1.0]);
    }
}
