//! The benchmark's workloads and the inputs it generates for them.
//!
//! Every workload runs the memory-conscious strategy on slices of the
//! paper's testbed (12-core nodes, 8 OSTs, 1 MiB stripes) with sampled
//! per-node memory. The `--seed` argument decides the generated inputs:
//! the payload bytes of every rank and op, and for `random-1k` the block
//! permutation of every op. The platform (node memory sampling included)
//! stays at the testbed's fixed seed, so the virtual goldens hold at
//! every benchmark seed. The program only ever sees the generated
//! extents and payloads.

use mccio_bench::Platform;
use mccio_mpiio::ExtentList;
use mccio_sim::units::{KIB, MIB};
use mccio_workloads::{Ior, IorMode};

/// Virtual op times a workload must reproduce, as printed at 9 decimals
/// by the workspace's scale and perf-smoke records.
#[derive(Debug, Clone, Copy)]
pub struct Golden {
    /// Slowest rank's virtual write seconds.
    pub write: &'static str,
    /// Slowest rank's virtual read seconds.
    pub read: &'static str,
}

/// One benchmark workload: a platform shape plus an IOR access pattern.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name as passed to `--workload`.
    pub name: &'static str,
    /// Testbed nodes.
    pub nodes: usize,
    /// Ranks (12 per node).
    pub ranks: usize,
    /// IOR block size, bytes.
    pub block: u64,
    /// IOR blocks per rank.
    pub segments: u64,
    /// Blocks scattered by a fresh seeded permutation every op
    /// (`IorMode::Random`) instead of interleaved.
    pub random: bool,
    /// Per-node available memory, Normal(mean, std) bytes.
    pub mem: (u64, u64),
    /// Mean aggregation buffer, bytes.
    pub buffer: u64,
    /// Virtual times every op must reproduce, if pinned.
    pub golden: Option<Golden>,
}

/// The workloads `--workload` accepts.
pub const WORKLOADS: [Spec; 3] = [
    // Per-rank host costs dominate: executor switches, barriers, fact
    // gathers, and the per-rank schedule build over all domains.
    Spec {
        name: "ior-10k",
        nodes: 840,
        ranks: 10_080,
        block: 32 * KIB,
        segments: 2,
        random: false,
        mem: (320 * MIB, 64 * MIB),
        buffer: 4 * MIB,
        golden: Some(Golden {
            write: "0.164974427",
            read: "0.132084427",
        }),
    },
    // The fig7 shape: bytes dominate (storage hop, shuffle copies, RSS).
    Spec {
        name: "bulk-120",
        nodes: 10,
        ranks: 120,
        block: 256 * KIB,
        segments: 16,
        random: false,
        mem: (320 * MIB, 64 * MIB),
        buffer: 16 * MIB,
        golden: Some(Golden {
            write: "0.119298792",
            read: "0.102598792",
        }),
    },
    // Noncontiguous and never repeating under fig6's tight memory: plan
    // and schedule are rebuilt every op.
    Spec {
        name: "random-1k",
        nodes: 84,
        ranks: 1008,
        block: 16 * KIB,
        segments: 16,
        random: true,
        mem: (96 * MIB, 50 * MIB),
        buffer: 4 * MIB,
        golden: None,
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn by_name(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

impl Spec {
    /// The simulated platform: testbed nodes, 8 OSTs, 1 MiB stripes,
    /// sampled node memory.
    #[must_use]
    pub fn platform(&self) -> Platform {
        Platform::testbed(self.nodes, self.ranks, 8).with_memory(self.mem.0, self.mem.1)
    }

    /// Application bytes every collective op moves.
    #[must_use]
    pub fn op_bytes(&self) -> u64 {
        self.ranks as u64 * self.segments * self.block
    }

    /// The access pattern of op `op` under benchmark seed `seed`.
    #[must_use]
    pub fn pattern(&self, seed: u64, op: u64) -> Ior {
        let mode = if self.random {
            IorMode::Random(mix(&[seed, op, 0x5045_524D]))
        } else {
            IorMode::Interleaved
        };
        Ior::new(self.block, self.segments, mode)
    }

    /// Generates every rank's extents and payload for op `op`.
    #[must_use]
    pub fn inputs(&self, seed: u64, op: u64) -> Inputs {
        let mut inputs = Inputs {
            extents: Vec::new(),
            payloads: Vec::new(),
        };
        self.refill(&mut inputs, seed, op);
        inputs
    }

    /// Regenerates `inputs` for op `op` in place: payload buffers are
    /// overwritten, not reallocated, so the harness adds no allocator
    /// churn between ops.
    pub fn refill(&self, inputs: &mut Inputs, seed: u64, op: u64) {
        let pattern = self.pattern(seed, op);
        inputs.extents = (0..self.ranks)
            .map(|r| pattern.extents(r, self.ranks))
            .collect();
        inputs.payloads.resize_with(self.ranks, Vec::new);
        for (r, (extents, buf)) in inputs.extents.iter().zip(&mut inputs.payloads).enumerate() {
            let len = usize::try_from(extents.total_bytes()).expect("payload fits in memory");
            buf.resize(len, 0);
            fill(mix(&[seed, op, r as u64]), buf);
        }
    }
}

/// One op's generated inputs, indexed by rank.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Each rank's file extents.
    pub extents: Vec<ExtentList>,
    /// Each rank's payload, packed in extent order.
    pub payloads: Vec<Vec<u8>>,
}

impl Inputs {
    /// Checks every rank's read-back against what it wrote; describes
    /// the first mismatch.
    #[must_use]
    pub fn verify(&self, read_back: &[Vec<u8>]) -> Option<String> {
        if read_back.len() != self.payloads.len() {
            return Some(format!(
                "{} read-back buffers for {} ranks",
                read_back.len(),
                self.payloads.len()
            ));
        }
        for (rank, (want, got)) in self.payloads.iter().zip(read_back).enumerate() {
            if want == got {
                continue;
            }
            let Some(at) = want.iter().zip(got).position(|(a, b)| a != b) else {
                return Some(format!(
                    "rank {rank} read {} bytes, wrote {}",
                    got.len(),
                    want.len()
                ));
            };
            let offset = file_offset(&self.extents[rank], at as u64);
            return Some(format!(
                "rank {rank} read back wrong data at file offset {offset}"
            ));
        }
        None
    }
}

/// The file offset of byte `index` of a payload packed over `extents`.
fn file_offset(extents: &ExtentList, mut index: u64) -> u64 {
    for e in extents.as_slice() {
        if index < e.len {
            return e.offset + index;
        }
        index -= e.len;
    }
    u64::MAX
}

/// Overwrites `buf` with pseudo-random bytes from `key` (splitmix64
/// stream).
fn fill(key: u64, buf: &mut [u8]) {
    let mut state = key;
    for chunk in buf.chunks_mut(8) {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        chunk.copy_from_slice(&splitmix(state).to_le_bytes()[..chunk.len()]);
    }
}

/// Hashes a key tuple into one seed.
fn mix(parts: &[u64]) -> u64 {
    parts
        .iter()
        .fold(0x243F_6A88_85A3_08D3, |h, &p| splitmix(h ^ splitmix(p)))
}

fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        let spec = by_name("random-1k").expect("random-1k exists");
        let small = Spec {
            ranks: 24,
            nodes: 2,
            ..spec
        };
        let a = small.inputs(7, 1);
        let b = small.inputs(7, 1);
        assert_eq!(a.payloads, b.payloads);
        assert_eq!(a.extents, b.extents);
        let c = small.inputs(8, 1);
        assert_ne!(a.payloads, c.payloads);
        assert_ne!(a.extents, c.extents, "random permutation follows the seed");
        let d = small.inputs(7, 2);
        assert_ne!(a.extents, d.extents, "random permutation changes per op");
        assert_eq!(
            a.payloads.iter().map(Vec::len).sum::<usize>() as u64,
            small.op_bytes()
        );
    }

    #[test]
    fn verify_names_the_first_bad_offset() {
        let spec = Spec {
            ranks: 24,
            nodes: 2,
            ..WORKLOADS[1]
        };
        let inputs = spec.inputs(1, 0);
        let mut back = inputs.payloads.clone();
        assert_eq!(inputs.verify(&back), None);
        back[3][5] ^= 1;
        let msg = inputs.verify(&back).expect("mismatch found");
        let want = inputs.extents[3].as_slice()[0].offset + 5;
        assert!(msg.contains("rank 3 "), "{msg}");
        assert!(msg.contains(&format!("offset {want}")), "{msg}");
    }
}
