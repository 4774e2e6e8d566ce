//! A steady-state control message costs no allocation.
//!
//! A counting global allocator tallies the allocations made on the
//! calling thread, which is where the event executor runs every rank.
//! After a warm-up run has grown every mailbox to its high-water mark,
//! a run of `2k` barriers and `2k` empty-payload ping-pongs must
//! allocate exactly as much as a run of `k` of each: whatever a run
//! allocates (task data, result slots) is per run, never per message.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use mccio_net::{ExecutorKind, World};
use mccio_sim::cost::CostModel;
use mccio_sim::topology::{test_cluster, FillOrder, Placement};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting only bumps a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const RANKS: usize = 64;

/// Allocations on this thread while `world` runs `rounds` world
/// barriers, each followed by a ping-pong between ranks `2i` and
/// `2i + 1` with empty payloads.
fn allocs_for(world: &Arc<World>, rounds: usize) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let _ = world.run(|ctx| {
        let me = ctx.rank();
        let peer = me ^ 1;
        for _ in 0..rounds {
            ctx.barrier();
            if me % 2 == 0 {
                ctx.send_ctl(peer, 1, Vec::new());
                let _ = ctx.recv(peer, 2);
            } else {
                let _ = ctx.recv(peer, 1);
                ctx.send_ctl(peer, 2, Vec::new());
            }
        }
    });
    ALLOCS.with(Cell::get) - before
}

#[test]
fn steady_state_messages_allocate_nothing() {
    let cluster = test_cluster(4, RANKS / 4);
    let placement = Placement::new(&cluster, RANKS, FillOrder::Block).unwrap();
    let world = World::with_executor(CostModel::new(cluster), placement, ExecutorKind::Event);
    let k = 50;
    let _ = allocs_for(&world, k);
    let once = allocs_for(&world, k);
    let twice = allocs_for(&world, 2 * k);
    assert_eq!(
        twice,
        once,
        "{} extra barriers and ping-pongs allocated {} times",
        k,
        twice.abs_diff(once)
    );
    let msgs = world.traffic().snapshot().ctl_msgs;
    assert_eq!(msgs, 4 * k as u64 * (2 * (RANKS as u64 - 1) + RANKS as u64));
}
