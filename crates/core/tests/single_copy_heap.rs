//! The shuffle holds each byte once: a collective write+read of `B`
//! bytes needs the file and the read outputs on the heap, and no
//! third copy of the data in flight.
//!
//! A counting global allocator tracks the process's live heap bytes and
//! their high-water mark. 24 ranks write `B` bytes hole-free through one
//! aggregator (one window, so the simulated file grows once, to exactly
//! `B`) and read them back. Above the baseline taken just before the
//! op, the heap may peak at the file plus the outputs, `2·B`, with `B/4`
//! of headroom for plans, schedules and messages. Each executor runs on
//! a fresh world; this binary holds this one test, so nothing else
//! allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mccio_core::engine::{execute_read, execute_write, IoEnv};
use mccio_core::plan::{CollectivePlan, DomainPlan};
use mccio_mem::MemoryModel;
use mccio_mpiio::{Extent, ExtentList, GroupPattern};
use mccio_net::{ExecutorKind, World};
use mccio_pfs::{FileSystem, PfsParams};
use mccio_sim::cost::CostModel;
use mccio_sim::topology::{test_cluster, FillOrder, Placement};
use mccio_sim::units::MIB;

struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting only updates two
// atomics, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        p
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const RANKS: usize = 24;
const PER_RANK: u64 = 2 * MIB;
const B: u64 = RANKS as u64 * PER_RANK;
/// The aggregator: an interior rank that is also one of its clients.
const AGGREGATOR: usize = 5;

fn extents_of(rank: usize) -> ExtentList {
    ExtentList::normalize(vec![Extent::new(rank as u64 * PER_RANK, PER_RANK)])
}

/// Peak live heap bytes above the pre-op baseline for one hole-free
/// write+read of `B` bytes on a fresh `kind` world.
fn peak_above_baseline(kind: ExecutorKind) -> u64 {
    let cluster = test_cluster(4, RANKS / 4);
    let placement = Placement::new(&cluster, RANKS, FillOrder::Block).unwrap();
    let world = World::with_executor(CostModel::new(cluster.clone()), placement, kind);
    let env = IoEnv::new(
        FileSystem::new(4, MIB, PfsParams::default()),
        MemoryModel::pristine(&cluster),
    );
    let plan = CollectivePlan {
        domains: vec![DomainPlan {
            domain: Extent::new(0, B),
            aggregator: AGGREGATOR,
            buffer: B,
            group: 0,
        }],
    };
    let inputs: Vec<Vec<u8>> = (0..RANKS)
        .map(|r| {
            (0..PER_RANK)
                .map(|i| (i as u8).wrapping_mul(31).wrapping_add(r as u8))
                .collect()
        })
        .collect();
    // Commit the event executor's stack slab before the baseline.
    let _ = world.run(|ctx| ctx.barrier());

    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let outputs = world.run(|ctx| {
        let handle = env.fs.open_or_create("single-copy");
        let extents = extents_of(ctx.rank());
        let pattern = GroupPattern::gather(ctx, &ctx.world_ranks(), &extents);
        let data = &inputs[ctx.rank()];
        let _ = execute_write(ctx, &env, &handle, &plan, &pattern, &extents, data);
        execute_read(ctx, &env, &handle, &plan, &pattern, &extents).0
    });
    let peak = PEAK.load(Ordering::SeqCst) - base;
    assert_eq!(outputs, inputs, "{kind:?}: read back what was written");
    peak as u64
}

#[test]
fn write_read_peaks_at_file_plus_outputs() {
    for kind in [ExecutorKind::Event, ExecutorKind::Threads] {
        let peak = peak_above_baseline(kind);
        eprintln!(
            "{kind:?}: peak {peak} B above baseline = {:.3} x {B} B",
            peak as f64 / B as f64
        );
        assert!(
            peak <= 2 * B + B / 4,
            "{kind:?}: heap peaked {peak} B above baseline, over 2B + B/4 = {}",
            2 * B + B / 4
        );
    }
}
