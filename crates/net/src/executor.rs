//! The discrete-event cooperative executor.
//!
//! [`run_event`] drives every rank as a *stackful coroutine* on one OS
//! thread: a scheduler repeatedly resumes the runnable task with the
//! smallest virtual clock (ties broken by `(rank, wake-seq)`), and a task
//! runs until it blocks on an empty mailbox, finishes, or panics. Blocking
//! receives become yield points — `Ctx::recv` parks the task with its
//! match [`Pattern`] and the delivery of exactly that `(src, tag)` marks
//! it runnable again — so a 100k-rank world costs 100k small stacks
//! instead of 100k threads.
//!
//! ## Determinism
//!
//! Virtual-time results in this simulator are schedule-invariant by
//! construction (receives name their sources, clock math is pure), so any
//! legal schedule reproduces the threaded engine's times bit for bit. The
//! event scheduler additionally fixes *one* canonical schedule — the
//! runnable heap is ordered by `(clock bits, rank, wake-seq)` — which
//! makes execution order itself reproducible across platforms and runs.
//!
//! ## Deadline waits without wall clocks
//!
//! The threaded engine detects a silent peer in `Ctx::recv_deadline` by
//! parking the OS thread for a small wall-clock budget. Here the rule is
//! exact: a deadline waiter is declared missed only at *quiescence* (no
//! task is runnable), earliest `(deadline bits, rank)` first. Callers may
//! only probe peers whose silence is already decided by shared data (the
//! engine's crash tracker probes a tag nothing sends on), so "nothing can
//! run" is precisely "the message will never come".
//!
//! ## Stacks
//!
//! Task stacks are carved out of one lazily-committed slab allocation
//! (100k separate mappings would exhaust `vm.max_map_count`), sized by
//! `MCCIO_STACK_KIB` (default 512 KiB, min 64). Each stack's low end
//! carries a canary word; a clobbered canary aborts with advice to raise
//! the knob. The slab has no guard pages — the canary is the tripwire.

use std::cell::{Cell, RefCell, UnsafeCell};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mccio_sim::hostprof::{self, HostPhase};
use mccio_sim::VTime;

use crate::engine::{Ctx, World};
use crate::mailbox::Pattern;

/// Default per-task stack size when `MCCIO_STACK_KIB` is unset.
const DEFAULT_STACK_KIB: usize = 512;
/// Smallest accepted stack; below this even the entry thunk is unsafe.
const MIN_STACK_KIB: usize = 64;
/// Written at the low end of every task stack; checked when the task
/// finishes and again when the world drains.
const STACK_CANARY: u64 = 0x5AFE_57AC_CA4A_717E;

/// Whether this target has a context-switch backend. On other
/// architectures `World::run` falls back to the threaded engine.
pub(crate) const SUPPORTED: bool = cfg!(any(target_arch = "x86_64", target_arch = "aarch64"));

// ---------------------------------------------------------------------
// Context switch: save callee-saved state on the current stack, store
// the stack pointer through `save`, load one from `load`, restore, ret.
// ---------------------------------------------------------------------

/// x86_64 SysV: rbp, rbx, r12-r15 are callee-saved, plus the MXCSR and
/// x87 control words. The seeded frame "returns" into `ctx_entry_thunk`.
#[cfg(target_arch = "x86_64")]
#[unsafe(naked)]
unsafe extern "C" fn ctx_swap(_save: *mut usize, _load: *const usize) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, [rsi]",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// First frame of every task. `init_stack` seeds r12 with the task-data
/// pointer and r13 with the entry function; the `sub` re-establishes the
/// 16-byte call alignment the SysV ABI requires at `call`.
#[cfg(target_arch = "x86_64")]
#[unsafe(naked)]
unsafe extern "C" fn ctx_entry_thunk() {
    core::arch::naked_asm!("sub rsp, 8", "mov rdi, r12", "call r13", "ud2")
}

/// AAPCS64: x19-x28, fp (x29), lr (x30) and d8-d15 are callee-saved.
#[cfg(target_arch = "aarch64")]
#[unsafe(naked)]
unsafe extern "C" fn ctx_swap(_save: *mut usize, _load: *const usize) {
    core::arch::naked_asm!(
        "sub sp, sp, #160",
        "stp x19, x20, [sp, #0]",
        "stp x21, x22, [sp, #16]",
        "stp x23, x24, [sp, #32]",
        "stp x25, x26, [sp, #48]",
        "stp x27, x28, [sp, #64]",
        "stp x29, x30, [sp, #80]",
        "stp d8, d9, [sp, #96]",
        "stp d10, d11, [sp, #112]",
        "stp d12, d13, [sp, #128]",
        "stp d14, d15, [sp, #144]",
        "mov x9, sp",
        "str x9, [x0]",
        "ldr x9, [x1]",
        "mov sp, x9",
        "ldp x19, x20, [sp, #0]",
        "ldp x21, x22, [sp, #16]",
        "ldp x23, x24, [sp, #32]",
        "ldp x25, x26, [sp, #48]",
        "ldp x27, x28, [sp, #64]",
        "ldp x29, x30, [sp, #80]",
        "ldp d8, d9, [sp, #96]",
        "ldp d10, d11, [sp, #112]",
        "ldp d12, d13, [sp, #128]",
        "ldp d14, d15, [sp, #144]",
        "add sp, sp, #160",
        "ret",
    )
}

/// First frame of every task: x19 = task data, x20 = entry function.
#[cfg(target_arch = "aarch64")]
#[unsafe(naked)]
unsafe extern "C" fn ctx_entry_thunk() {
    core::arch::naked_asm!("mov x0, x19", "blr x20", "brk #1")
}

type EntryFn = extern "C" fn(*mut u8);

/// Seeds a fresh stack so the first `ctx_swap` into it lands in
/// `ctx_entry_thunk` with `data`/`entry` in the thunk's registers.
/// Returns the initial saved stack pointer.
///
/// Layout (both arches): the top of the region holds the seeded
/// callee-saved frame; everything below is free stack.
fn init_stack(region: &mut [u8], entry: EntryFn, data: *mut u8) -> usize {
    let base = region.as_mut_ptr() as usize;
    // Stacks grow down from a 16-byte-aligned top.
    let top = (base + region.len()) & !15;
    let mut sp = top;
    #[cfg(target_arch = "x86_64")]
    {
        // Words are pushed high-to-low, mirroring ctx_swap's restore
        // order (low-to-high: mxcsr/fcw, r15, r14, r13, r12, rbx, rbp,
        // return address). Within-bounds by construction: the frame is
        // < 200 bytes and MIN_STACK_KIB is 64.
        let push = |sp: &mut usize, word: usize| {
            *sp -= size_of::<usize>();
            unsafe { (*sp as *mut usize).write(word) };
        };
        push(&mut sp, 0); // terminator / alignment slot
        push(&mut sp, ctx_entry_thunk as *const () as usize); // return address -> thunk
        push(&mut sp, 0); // rbp
        push(&mut sp, 0); // rbx
        push(&mut sp, data as usize); // r12
        push(&mut sp, entry as usize); // r13
        push(&mut sp, 0); // r14
        push(&mut sp, 0); // r15
                          // MXCSR (0x1F80) and x87 CW (0x037F) power-on defaults, packed
                          // into one slot exactly as ctx_swap's stmxcsr/fnstcw pair lays
                          // them out.
        push(&mut sp, (0x037F_usize << 32) | 0x1F80);
    }
    #[cfg(target_arch = "aarch64")]
    {
        sp -= 160;
        let frame = sp as *mut usize;
        for i in 0..20 {
            unsafe { frame.add(i).write(0) };
        }
        unsafe {
            frame.add(0).write(data as usize); // x19
            frame.add(1).write(entry as usize); // x20
            frame.add(11).write(ctx_entry_thunk as usize); // x30 (lr)
        }
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        let _ = (entry, data);
        unreachable!("run_event is gated on executor::SUPPORTED");
    }
    sp
}

// ---------------------------------------------------------------------
// Scheduler state
// ---------------------------------------------------------------------

#[derive(Debug)]
enum TaskState {
    /// Queued in the runnable heap (or about to be).
    Runnable,
    /// Currently on the CPU.
    Running,
    /// Parked on an empty mailbox. `deadline_bits` is set for
    /// `recv_deadline` waits; `timed_out` is set by the scheduler when
    /// the wait is declared missed at quiescence.
    Blocked {
        pattern: Pattern,
        deadline_bits: Option<u64>,
        timed_out: bool,
    },
    /// Finished (result stored or panic recorded). Never resumed.
    Done,
}

#[derive(Debug)]
struct TaskSlot {
    state: TaskState,
    /// The task's virtual clock when it last yielded; the wake-up heap
    /// key uses it so the smallest-clock task always runs next.
    clock_bits: u64,
}

/// Shared scheduler core. One per `run_event` call; tasks hold it via
/// [`TaskHandle`] inside their `Ctx`.
pub(crate) struct EventRt {
    slots: RefCell<Vec<TaskSlot>>,
    /// Min-heap of runnable tasks keyed `(clock bits, rank, wake seq)`.
    /// Non-negative f64 bit patterns order exactly like the values, and
    /// the `(rank, seq)` tie-break pins one canonical schedule.
    runnable: RefCell<BinaryHeap<Reverse<(u64, usize, u64)>>>,
    /// Blocked `recv_deadline` waiters, earliest `(deadline, rank)` first.
    waiters: RefCell<BTreeSet<(u64, usize)>>,
    /// Monotone wake-sequence counter (satellite of the heap key).
    wake_seq: Cell<u64>,
    /// Saved stack pointers: one per task plus the scheduler's own at
    /// index `n`. UnsafeCell because ctx_swap writes through raw
    /// pointers into it while Rust-level borrows are not active.
    sps: UnsafeCell<Vec<usize>>,
    /// First panic payload from any task; the scheduler stops and
    /// rethrows it on the main thread.
    panic: RefCell<Option<Box<dyn std::any::Any + Send + 'static>>>,
    n_done: Cell<usize>,
}

impl std::fmt::Debug for EventRt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRt").finish_non_exhaustive()
    }
}

/// A task's handle back into the scheduler, carried by `Ctx`.
#[derive(Debug, Clone)]
pub(crate) struct TaskHandle {
    rt: Rc<EventRt>,
    rank: usize,
}

impl EventRt {
    fn new(n: usize) -> Rc<EventRt> {
        Rc::new(EventRt {
            slots: RefCell::new(
                (0..n)
                    .map(|_| TaskSlot {
                        state: TaskState::Runnable,
                        clock_bits: 0,
                    })
                    .collect(),
            ),
            runnable: RefCell::new(BinaryHeap::with_capacity(n)),
            waiters: RefCell::new(BTreeSet::new()),
            wake_seq: Cell::new(0),
            sps: UnsafeCell::new(vec![0; n + 1]),
            panic: RefCell::new(None),
            n_done: Cell::new(0),
        })
    }

    fn n(&self) -> usize {
        self.slots.borrow().len()
    }

    fn next_seq(&self) -> u64 {
        let s = self.wake_seq.get();
        self.wake_seq.set(s + 1);
        s
    }

    fn push_runnable(&self, rank: usize, clock_bits: u64) {
        self.runnable
            .borrow_mut()
            .push(Reverse((clock_bits, rank, self.next_seq())));
    }

    /// Swap pointers for entering task `rank` from the scheduler, or
    /// (with the roles flipped) for leaving it.
    fn sp_ptrs(&self, save_idx: usize, load_idx: usize) -> (*mut usize, *const usize) {
        let v = self.sps.get();
        unsafe {
            let base = (*v).as_mut_ptr();
            (base.add(save_idx), base.add(load_idx) as *const usize)
        }
    }

    /// Parks the current task until a message matching `pattern` is
    /// queued. All RefCell borrows are released before switching.
    fn block_on_message(&self, rank: usize, pattern: Pattern, clock: VTime) {
        {
            let mut slots = self.slots.borrow_mut();
            let slot = &mut slots[rank];
            slot.clock_bits = clock.as_secs().to_bits();
            slot.state = TaskState::Blocked {
                pattern,
                deadline_bits: None,
                timed_out: false,
            };
        }
        self.yield_to_scheduler(rank);
    }

    /// Parks the current task until a match arrives or the scheduler
    /// declares the deadline missed at quiescence. Returns `true` on a
    /// miss.
    fn block_with_deadline(
        &self,
        rank: usize,
        pattern: Pattern,
        deadline: VTime,
        clock: VTime,
    ) -> bool {
        let bits = deadline.as_secs().to_bits();
        {
            let mut slots = self.slots.borrow_mut();
            let slot = &mut slots[rank];
            slot.clock_bits = clock.as_secs().to_bits();
            slot.state = TaskState::Blocked {
                pattern,
                deadline_bits: Some(bits),
                timed_out: false,
            };
        }
        self.waiters.borrow_mut().insert((bits, rank));
        self.yield_to_scheduler(rank);
        let mut slots = self.slots.borrow_mut();
        match &mut slots[rank].state {
            TaskState::Running => false,
            TaskState::Blocked { timed_out, .. } => {
                let missed = *timed_out;
                debug_assert!(missed, "resumed while still blocked without a timeout");
                slots[rank].state = TaskState::Running;
                missed
            }
            other => unreachable!("deadline waiter resumed in state {other:?}"),
        }
    }

    /// Sender-side wakeup: if `dst` is parked on exactly the `(src, tag)`
    /// just delivered, move it to the runnable heap. Comparing the two
    /// patterns is exact, with no mailbox probe: a task parks only after
    /// its own probe found no match, and the first matching delivery
    /// after that wakes it, so a parked task's mailbox never already
    /// holds a match.
    fn notify_delivery(&self, dst: usize, delivered: Pattern) {
        let mut slots = self.slots.borrow_mut();
        let slot = &mut slots[dst];
        if let TaskState::Blocked {
            pattern,
            deadline_bits,
            ..
        } = slot.state
        {
            if pattern == delivered {
                if let Some(bits) = deadline_bits {
                    self.waiters.borrow_mut().remove(&(bits, dst));
                }
                slot.state = TaskState::Running;
                let clock_bits = slot.clock_bits;
                drop(slots);
                self.push_runnable(dst, clock_bits);
            }
        }
    }

    fn yield_to_scheduler(&self, rank: usize) {
        let n = self.n();
        let (save, load) = self.sp_ptrs(rank, n);
        unsafe { ctx_swap(save, load) };
    }

    /// Marks the current task finished and switches away forever.
    fn finish(&self, rank: usize) {
        self.slots.borrow_mut()[rank].state = TaskState::Done;
        self.n_done.set(self.n_done.get() + 1);
    }

    fn record_panic(&self, payload: Box<dyn std::any::Any + Send + 'static>) {
        let mut p = self.panic.borrow_mut();
        if p.is_none() {
            *p = Some(payload);
        }
    }
}

impl TaskHandle {
    /// Cooperative receive: probe, park, repeat. `next` re-probes the
    /// mailbox after every wakeup because the scheduler only guarantees
    /// a match existed at notify time.
    pub(crate) fn block_on_message(&self, pattern: Pattern, clock: VTime) {
        self.rt.block_on_message(self.rank, pattern, clock);
    }

    /// Deadline variant; returns `true` when the wait was declared
    /// missed at quiescence.
    pub(crate) fn block_with_deadline(
        &self,
        pattern: Pattern,
        deadline: VTime,
        clock: VTime,
    ) -> bool {
        self.rt
            .block_with_deadline(self.rank, pattern, deadline, clock)
    }

    /// Called by senders after `Mailbox::deliver` with the delivered
    /// envelope's `(src, tag)`.
    pub(crate) fn notify_delivery(&self, dst: usize, delivered: Pattern) {
        self.rt.notify_delivery(dst, delivered);
    }
}

// ---------------------------------------------------------------------
// Task entry and the scheduler loop
// ---------------------------------------------------------------------

/// Everything a task needs, boxed and passed through the entry thunk as
/// a raw pointer. The raw `f`/`result` pointers outlive the task: both
/// point into `run_event`'s frame, which cannot return before every
/// task is `Done`.
struct TaskData<F, R> {
    rank: usize,
    world: Arc<World>,
    rt: Rc<EventRt>,
    f: *const F,
    result: *mut Option<R>,
}

/// Runs on the task's own stack; never returns (the final swap leaves
/// the coroutine forever).
extern "C" fn task_entry<F, R>(raw: *mut u8)
where
    F: Fn(&mut Ctx) -> R,
{
    let data: Box<TaskData<F, R>> = unsafe { Box::from_raw(raw.cast()) };
    let rank = data.rank;
    let rt = Rc::clone(&data.rt);
    {
        let handle = TaskHandle {
            rt: Rc::clone(&rt),
            rank,
        };
        let mut ctx = Ctx::for_event_task(rank, &data.world, handle);
        let f: &F = unsafe { &*data.f };
        match catch_unwind(AssertUnwindSafe(|| f(&mut ctx))) {
            Ok(r) => unsafe { *data.result = Some(r) },
            Err(payload) => rt.record_panic(payload),
        }
    }
    drop(data);
    rt.finish(rank);
    let n = rt.n();
    let (save, load) = rt.sp_ptrs(rank, n);
    // The swap targets live in run_event's Rc; drop ours first so the
    // coroutine holds nothing when it parks for good.
    drop(rt);
    unsafe { ctx_swap(save, load) };
    unreachable!("finished task was resumed");
}

fn stack_size_bytes() -> usize {
    let kib = std::env::var("MCCIO_STACK_KIB")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(DEFAULT_STACK_KIB)
        .max(MIN_STACK_KIB);
    kib * 1024
}

/// Stacks whose pages came from the thread's cached slab vs stacks that
/// required a fresh (zeroed, to-be-faulted) slab allocation, process
/// cumulative. See [`slab_stats`].
static STACKS_REUSED: AtomicU64 = AtomicU64::new(0);
static STACKS_FRESH: AtomicU64 = AtomicU64::new(0);

/// Process-cumulative slab reuse counters; see [`slab_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlabStats {
    /// Task stacks carved from a previously committed slab.
    pub reused: u64,
    /// Task stacks that came from a fresh allocation (first-touch page
    /// faults still ahead of them).
    pub fresh: u64,
}

/// How many task stacks were served from a recycled slab versus freshly
/// committed, cumulative over the process. The event executor keeps one
/// committed slab per driving thread and reuses it across `World::run`
/// calls whenever it is large enough, so repeated runs (benchmarks,
/// test suites, multi-phase jobs) stop paying the slab's first-touch
/// page faults after the first run.
#[must_use]
pub fn slab_stats() -> SlabStats {
    SlabStats {
        reused: STACKS_REUSED.load(Ordering::Relaxed),
        fresh: STACKS_FRESH.load(Ordering::Relaxed),
    }
}

thread_local! {
    /// The thread's cached stack slab (committed pages from the last
    /// `run_event` on this thread). Taken at entry, returned on the
    /// clean exit path; runs that panic abandon their slab because
    /// suspended sibling stacks inside it were leaked mid-frame.
    static SLAB_CACHE: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` once per rank as cooperative tasks over virtual time and
/// returns the per-rank results in rank order. Panics from rank code are
/// rethrown on the calling thread (suspended sibling stacks are
/// abandoned on that path, leaking their live objects — acceptable for
/// a failing run).
pub(crate) fn run_event<F, R>(world: &Arc<World>, f: F) -> Vec<R>
where
    F: Fn(&mut Ctx) -> R + Send + Sync,
    R: Send,
{
    // `World::run` only routes here on supported targets; this backstop
    // covers direct callers on an unsupported one (a compile-time assert
    // would reject unsupported targets even when the threaded fallback
    // is the one in use).
    if !SUPPORTED {
        panic!("event executor unsupported on this target");
    }
    let n = world.n_ranks();
    let rt = EventRt::new(n);
    let stack = stack_size_bytes();
    let need = n.checked_mul(stack).expect("stack slab size overflow");
    // One slab, lazily committed by the OS page by page: individual
    // mappings would trip vm.max_map_count near 100k ranks. A slab that
    // served an earlier run on this thread is reused as-is when large
    // enough — its pages are already committed, so repeat runs skip the
    // first-touch fault storm entirely. Stale bytes in a reused slab
    // are fine: `init_stack` writes every word a resumed task reads.
    let cached = SLAB_CACHE.with(|c| c.take());
    let mut slab = if cached.len() >= need {
        STACKS_REUSED.fetch_add(n as u64, Ordering::Relaxed);
        cached
    } else {
        STACKS_FRESH.fetch_add(n as u64, Ordering::Relaxed);
        vec![0u8; need]
    };
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();

    for (rank, (region, result)) in slab[..need].chunks_mut(stack).zip(&mut results).enumerate() {
        region[..8].copy_from_slice(&STACK_CANARY.to_ne_bytes());
        let data = Box::new(TaskData::<F, R> {
            rank,
            world: Arc::clone(world),
            rt: Rc::clone(&rt),
            f: &raw const f,
            result: &raw mut *result,
        });
        let sp = init_stack(region, task_entry::<F, R>, Box::into_raw(data).cast());
        // No task is running yet: the exclusive reference cannot alias
        // a ctx_swap-held pointer.
        unsafe { (&mut *rt.sps.get())[rank] = sp };
        rt.push_runnable(rank, 0);
    }

    loop {
        // Scheduler work (heap pop, quiescence resolution, slot
        // bookkeeping) is host-profiled per iteration; the guard drops
        // before the switch so the task's own run time is not charged.
        let sched_t = hostprof::timer(HostPhase::ExecSchedule);
        let next = rt.runnable.borrow_mut().pop();
        let Some(Reverse((_, rank, _))) = next else {
            if rt.n_done.get() == n {
                break;
            }
            // Quiescence: nothing can run, so every queued deadline wait
            // is now provably silent. Wake the earliest; it resumes with
            // `timed_out` and re-enters the heap.
            let woken = {
                let mut waiters = rt.waiters.borrow_mut();
                let first = waiters.iter().next().copied();
                first.inspect(|w| {
                    waiters.remove(w);
                })
            };
            match woken {
                Some((_, rank)) => {
                    let clock_bits = {
                        let mut slots = rt.slots.borrow_mut();
                        match &mut slots[rank].state {
                            TaskState::Blocked { timed_out, .. } => *timed_out = true,
                            other => unreachable!("waiter in state {other:?}"),
                        }
                        slots[rank].clock_bits
                    };
                    rt.push_runnable(rank, clock_bits);
                    continue;
                }
                None => deadlock_panic(&rt),
            }
        };
        {
            let mut slots = rt.slots.borrow_mut();
            match slots[rank].state {
                TaskState::Done => continue,
                // A quiescence-woken deadline waiter keeps its Blocked
                // state so block_with_deadline can read the timed_out
                // flag after the resume.
                TaskState::Blocked {
                    timed_out: true, ..
                } => {}
                ref mut s => *s = TaskState::Running,
            }
        }
        let (save, load) = rt.sp_ptrs(n, rank);
        drop(sched_t);
        unsafe { ctx_swap(save, load) };
        if rt.panic.borrow().is_some() {
            break;
        }
    }

    for (rank, region) in slab[..need].chunks(stack).enumerate() {
        assert_eq!(
            u64::from_ne_bytes(region[..8].try_into().unwrap()),
            STACK_CANARY,
            "rank {rank} overflowed its {stack}-byte task stack; \
             raise MCCIO_STACK_KIB"
        );
    }
    if let Some(payload) = rt.panic.borrow_mut().take() {
        resume_unwind(payload);
    }
    // Clean exit: every task unwound its own stack, so the slab holds
    // nothing live and its committed pages can serve the next run.
    SLAB_CACHE.with(|c| {
        let mut cache = c.borrow_mut();
        if cache.len() < slab.len() {
            *cache = slab;
        }
    });
    world.check_drained();
    results
        .into_iter()
        .map(|r| r.expect("every rank produced a result"))
        .collect()
}

fn deadlock_panic(rt: &EventRt) -> ! {
    let slots = rt.slots.borrow();
    let blocked: Vec<String> = slots
        .iter()
        .enumerate()
        .filter_map(|(rank, s)| match &s.state {
            TaskState::Blocked { pattern, .. } => Some(format!(
                "rank {rank} waiting on (src {}, tag {:#x})",
                pattern.src, pattern.tag
            )),
            _ => None,
        })
        .collect();
    panic!(
        "event executor deadlock: {} of {} tasks blocked with no runnable task and \
         no deadline waiter: [{}]",
        blocked.len(),
        slots.len(),
        blocked.join(", ")
    );
}
