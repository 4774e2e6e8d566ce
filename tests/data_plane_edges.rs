//! The single-copy data plane on its edge cases, threads ≡ event.
//!
//! Aggregators copy pieces straight between the clients' exposed
//! buffers and the file, so the cases where that copy is subtle each
//! run on both executors and must agree to the bit — file bytes, read
//! outputs, every rank's virtual write/read time, the traffic snapshot
//! and the verified-integrity count — and also match what the data
//! plane promises:
//!
//! * overlapping writers: the highest rank's bytes win;
//! * windows with holes: the sieve's read-modify-write keeps the bytes
//!   already in the holes;
//! * a read past EOF: the tail reads as zeros;
//! * an aggregator that is its own client (a self-send both ways);
//! * a crash plan: the dead aggregator's windows move, and every
//!   shuffle message's integrity hash is verified.

use std::sync::Arc;

use mccio_suite::core::engine::{try_execute_read, try_execute_write};
use mccio_suite::core::plan::{CollectivePlan, DomainPlan};
use mccio_suite::core::prelude::*;
use mccio_suite::mpiio::{GroupPattern, Resilience};
use mccio_suite::net::{ExecutorKind, TrafficSnapshot};
use mccio_suite::sim::cost::CostModel;
use mccio_suite::sim::fault::FaultPlan;
use mccio_suite::sim::time::VTime;
use mccio_suite::sim::topology::{test_cluster, FillOrder, Placement};

const RANKS: usize = 6;
const FILE: &str = "edges";

/// One edge case: each rank's write and read extents, the aggregators
/// (domains split evenly among them) and their buffer, what the file
/// holds before the write, and the fault plan.
struct Case {
    name: &'static str,
    writes: fn(usize) -> Vec<(u64, u64)>,
    reads: fn(usize) -> Vec<(u64, u64)>,
    aggregators: &'static [usize],
    buffer: u64,
    prefill: Vec<u8>,
    faults: Option<FaultPlan>,
}

/// Everything both executors must agree on.
#[derive(Debug, PartialEq)]
struct Outcome {
    file: Vec<u8>,
    outputs: Vec<Vec<u8>>,
    /// Per rank: virtual write and read seconds as bits.
    times: Vec<(u64, u64)>,
    traffic: TrafficSnapshot,
    integrity_verified: u64,
}

fn list(extents: Vec<(u64, u64)>) -> ExtentList {
    ExtentList::normalize(
        extents
            .into_iter()
            .map(|(o, l)| Extent::new(o, l))
            .collect(),
    )
}

/// Rank-distinguishable bytes, so overlaps show whose bytes won.
fn rank_byte(rank: usize, offset: u64) -> u8 {
    (offset as u8).wrapping_mul(7) ^ (rank as u8 + 1).wrapping_mul(0x35)
}

fn payload(rank: usize, extents: &ExtentList) -> Vec<u8> {
    extents
        .as_slice()
        .iter()
        .flat_map(|e| (e.offset..e.end()).map(move |o| rank_byte(rank, o)))
        .collect()
}

fn plan_over(range: Extent, aggregators: &[usize], buffer: u64) -> CollectivePlan {
    let chunk = range.len.div_ceil(aggregators.len() as u64);
    CollectivePlan {
        domains: aggregators
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let off = range.offset + i as u64 * chunk;
                DomainPlan {
                    domain: Extent::new(off, chunk.min(range.end() - off)),
                    aggregator: a,
                    buffer,
                    group: 0,
                }
            })
            .collect(),
    }
}

fn run(case: &Case, kind: ExecutorKind) -> Outcome {
    let cluster = test_cluster(3, 2);
    let placement = Placement::new(&cluster, RANKS, FillOrder::Block).unwrap();
    let world = World::with_executor(CostModel::new(cluster.clone()), placement, kind);
    let fs = FileSystem::new(4, 64, PfsParams::default());
    let mem = MemoryModel::pristine(&cluster);
    let env = match &case.faults {
        Some(plan) => IoEnv::with_faults(fs, mem, plan.clone()),
        None => IoEnv::new(fs, mem),
    };
    if !case.prefill.is_empty() {
        env.fs.open_or_create(FILE).write_at(0, &case.prefill);
    }
    let per_rank = world.run(|ctx| {
        let me = ctx.rank();
        let handle = env.fs.open_or_create(FILE);
        let mut res = Resilience::default();
        let writes = list((case.writes)(me));
        let pattern: Arc<GroupPattern> = GroupPattern::gather(ctx, &ctx.world_ranks(), &writes);
        let plan = plan_over(
            pattern.global_range().unwrap(),
            case.aggregators,
            case.buffer,
        );
        let data = payload(me, &writes);
        let w = try_execute_write(
            ctx, &env, &handle, &plan, &pattern, &writes, &data, &mut res,
        )
        .expect("write completes");
        let reads = list((case.reads)(me));
        let pattern = GroupPattern::gather(ctx, &ctx.world_ranks(), &reads);
        let plan = plan_over(
            pattern.global_range().unwrap(),
            case.aggregators,
            case.buffer,
        );
        let (out, r) = try_execute_read(ctx, &env, &handle, &plan, &pattern, &reads, &mut res)
            .expect("read completes");
        (
            out,
            (w.elapsed.as_secs().to_bits(), r.elapsed.as_secs().to_bits()),
            res.integrity_verified,
        )
    });
    let handle = env.fs.open(FILE).unwrap();
    Outcome {
        file: handle.read_at(0, handle.len()).0,
        outputs: per_rank.iter().map(|(o, _, _)| o.clone()).collect(),
        times: per_rank.iter().map(|&(_, t, _)| t).collect(),
        traffic: world.traffic().snapshot(),
        integrity_verified: per_rank.iter().map(|&(_, _, i)| i).sum(),
    }
}

/// Runs `case` on both executors, asserts they agree to the bit, and
/// returns the outcome.
fn both(case: &Case) -> Outcome {
    let threads = run(case, ExecutorKind::Threads);
    let event = run(case, ExecutorKind::Event);
    assert_eq!(threads, event, "{}: executors disagree", case.name);
    assert!(threads.traffic.data_msgs > 0, "{}: no shuffle", case.name);
    threads
}

#[test]
fn overlapping_writers_resolve_to_the_highest_rank() {
    // Rank r writes [40r, 40r + 100): every byte past 40 is written by
    // two or three ranks; 32-byte windows spread each overlap over
    // several rounds and both aggregators.
    let case = Case {
        name: "overlap",
        writes: |r| vec![(40 * r as u64, 100)],
        reads: |r| vec![(40 * r as u64, 100)],
        aggregators: &[1, 4],
        buffer: 32,
        prefill: Vec::new(),
        faults: None,
    };
    let out = both(&case);
    let end = 40 * (RANKS as u64 - 1) + 100;
    assert_eq!(out.file.len() as u64, end);
    for off in 0..end {
        let winner = (0..RANKS)
            .rev()
            .find(|&r| (40 * r as u64..40 * r as u64 + 100).contains(&off))
            .unwrap();
        assert_eq!(out.file[off as usize], rank_byte(winner, off), "byte {off}");
    }
    for (r, got) in out.outputs.iter().enumerate() {
        let base = 40 * r as u64;
        assert_eq!(got, &out.file[base as usize..base as usize + 100]);
    }
}

#[test]
fn windows_with_holes_keep_the_bytes_between_pieces() {
    // Rank r writes 10 bytes at 16r of every 96-byte stripe: each
    // window's union has 6-byte holes, so it assembles and goes through
    // the sieved read-modify-write, which must keep the prefilled bytes.
    let case = Case {
        name: "holes",
        writes: |r| (0..4).map(|i| (96 * i + 16 * r as u64, 10)).collect(),
        reads: |r| (0..4).map(|i| (96 * i + 16 * r as u64, 10)).collect(),
        aggregators: &[0, 3],
        buffer: 64,
        prefill: vec![0xAB; 400],
        faults: None,
    };
    let out = both(&case);
    for off in 0..out.file.len() as u64 {
        let writer = (off % 16 < 10 && off < 384).then_some(((off % 96) / 16) as usize);
        let want = writer.map_or(0xAB, |r| rank_byte(r, off));
        assert_eq!(out.file[off as usize], want, "byte {off}");
    }
    for (r, got) in out.outputs.iter().enumerate() {
        assert_eq!(got, &payload(r, &list((case.reads)(r))), "rank {r}");
    }
}

#[test]
fn reads_past_eof_see_zeros() {
    // The file ends at 600; each rank reads 150 bytes at 100r + 50, so
    // the last ranks' windows cross EOF and read their tails as zeros.
    let case = Case {
        name: "eof",
        writes: |r| vec![(100 * r as u64, 100)],
        reads: |r| vec![(100 * r as u64 + 50, 150)],
        aggregators: &[2, 5],
        buffer: 128,
        prefill: Vec::new(),
        faults: None,
    };
    let out = both(&case);
    assert_eq!(out.file.len(), 600);
    for (r, got) in out.outputs.iter().enumerate() {
        for (i, &b) in got.iter().enumerate() {
            let off = 100 * r as u64 + 50 + i as u64;
            let want = if off < 600 { out.file[off as usize] } else { 0 };
            assert_eq!(b, want, "rank {r} byte {off}");
        }
    }
    assert!(out.outputs[RANKS - 1][100..].iter().all(|&b| b == 0));
}

#[test]
fn an_aggregator_serves_its_own_pieces() {
    // One aggregator, every rank's bytes in its one domain: rank 3
    // copies its own pieces through its own exposure slot (the
    // exchange's self-send) in both directions.
    let case = Case {
        name: "self-send",
        writes: |r| vec![(64 * r as u64, 64)],
        reads: |r| vec![(64 * ((r as u64 + 1) % RANKS as u64), 64)],
        aggregators: &[3],
        buffer: 128,
        prefill: Vec::new(),
        faults: None,
    };
    let out = both(&case);
    for (r, got) in out.outputs.iter().enumerate() {
        let src = (r + 1) % RANKS;
        assert_eq!(got, &payload(src, &list((case.writes)(src))), "rank {r}");
    }
}

#[test]
fn crash_recovery_verifies_every_message() {
    // Aggregator 0 is dead from the start: round 0 detects it, its
    // domain moves, and under the crash plan every shuffle message
    // carries the hash of the bytes it stands for.
    let case = Case {
        name: "crash",
        writes: |r| (0..3).map(|i| (200 * i + 30 * r as u64, 30)).collect(),
        reads: |r| (0..3).map(|i| (200 * i + 30 * r as u64, 30)).collect(),
        aggregators: &[0, 4],
        buffer: 96,
        prefill: Vec::new(),
        faults: Some(FaultPlan::new(0xED6E).crash_rank_at(VTime::from_secs(0.0), 0)),
    };
    let out = both(&case);
    assert!(out.integrity_verified > 0, "no message hash was verified");
    for (r, got) in out.outputs.iter().enumerate() {
        assert_eq!(got, &payload(r, &list((case.reads)(r))), "rank {r}");
    }
}
