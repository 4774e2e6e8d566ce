//! The SPMD rank engine.
//!
//! [`World::run`] executes one closure per rank, exactly like `mpiexec`
//! launches one process per core. Two executors implement that contract
//! ([`ExecutorKind`]): the *threaded* engine gives every rank its own OS
//! thread and blocks on condition variables — simple, parallel, and the
//! differential-testing oracle — while the *event* engine runs every
//! rank as a cooperative task over virtual time on one thread, which is
//! what makes 10k–100k rank worlds practical. Ranks communicate through
//! [`Ctx`] either way: point-to-point sends/receives and (in
//! `collective.rs`) MPI-style collectives.
//!
//! ## Virtual time
//!
//! Each rank carries a logical clock, and a message moves its receiver's
//! clock by one rule: the send stamps the envelope with the sender's
//! clock (plus any injected control-network delay) as its departure,
//! and the matching receive advances the receiver to
//! `max(receiver clock, departure)`. Messages carry causality only —
//! the bulk-data phases they coordinate are priced analytically at the
//! root through [`CostModel::shuffle_phase`], so no per-message transfer
//! time exists to race over. Wall-clock never enters the rule, which is
//! why both executors produce bit-identical times.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use mccio_sim::cost::CostModel;
use mccio_sim::sync::Mutex;
use mccio_sim::time::{VDuration, VTime};
use mccio_sim::topology::Placement;
use mccio_sim::{SimError, SimResult};

use crate::executor::{self, TaskHandle};
use crate::mailbox::{Envelope, Mailbox, Pattern, Payload};

/// Which engine drives the ranks of a [`World`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorKind {
    /// One OS thread per rank (the original engine). Parallel and
    /// preemptive; practical to a few thousand ranks.
    Threads,
    /// Discrete-event cooperative scheduler: every rank is a resumable
    /// task on one thread, resumed smallest-virtual-clock first.
    /// Practical to 100k ranks.
    Event,
}

impl ExecutorKind {
    /// Reads the `MCCIO_EXECUTOR` override (`threads` or `event`);
    /// `None` when unset or empty.
    ///
    /// # Panics
    /// Panics on an unrecognized value — a typo silently falling back
    /// to the default would invalidate a scaling experiment.
    #[must_use]
    pub fn from_env() -> Option<ExecutorKind> {
        let raw = std::env::var("MCCIO_EXECUTOR").ok()?;
        match raw.trim().to_ascii_lowercase().as_str() {
            "" => None,
            "threads" | "thread" => Some(ExecutorKind::Threads),
            "event" => Some(ExecutorKind::Event),
            other => panic!("MCCIO_EXECUTOR must be `threads` or `event`, got {other:?}"),
        }
    }
}

/// Aggregate traffic counters, updated on every delivery.
#[derive(Debug)]
pub struct Traffic {
    /// Bytes moved between ranks on the same node (data plane).
    pub intra_bytes: AtomicU64,
    /// Bytes moved between ranks on different nodes (data plane).
    pub inter_bytes: AtomicU64,
    /// Data-plane message count.
    pub data_msgs: AtomicU64,
    /// Control-plane message count (metadata, barriers, clock sync).
    pub ctl_msgs: AtomicU64,
    /// Per-node NIC counters, allocated on the first inter-node byte so
    /// control-plane-only worlds never pay O(nodes) memory.
    node_flows: OnceLock<NodeFlows>,
    n_nodes: usize,
}

#[derive(Debug)]
struct NodeFlows {
    ingress: Box<[AtomicU64]>,
    egress: Box<[AtomicU64]>,
}

impl NodeFlows {
    fn new(n_nodes: usize) -> NodeFlows {
        NodeFlows {
            ingress: (0..n_nodes).map(|_| AtomicU64::new(0)).collect(),
            egress: (0..n_nodes).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// A point-in-time copy of [`Traffic`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficSnapshot {
    /// Bytes moved intra-node.
    pub intra_bytes: u64,
    /// Bytes moved inter-node.
    pub inter_bytes: u64,
    /// Data-plane messages.
    pub data_msgs: u64,
    /// Control-plane messages.
    pub ctl_msgs: u64,
    /// Per-node ingress bytes.
    pub node_ingress: Vec<u64>,
    /// Per-node egress bytes.
    pub node_egress: Vec<u64>,
}

impl Traffic {
    fn new(n_nodes: usize) -> Self {
        Traffic {
            intra_bytes: AtomicU64::new(0),
            inter_bytes: AtomicU64::new(0),
            data_msgs: AtomicU64::new(0),
            ctl_msgs: AtomicU64::new(0),
            node_flows: OnceLock::new(),
            n_nodes,
        }
    }

    /// Counts one data-plane message of `bytes` from `src_node` to
    /// `dst_node`, maintaining the per-node NIC counters for the
    /// inter-node case.
    pub(crate) fn account_data(&self, src_node: usize, dst_node: usize, bytes: u64) {
        self.data_msgs.fetch_add(1, Ordering::Relaxed);
        if src_node == dst_node {
            self.intra_bytes.fetch_add(bytes, Ordering::Relaxed);
        } else {
            self.inter_bytes.fetch_add(bytes, Ordering::Relaxed);
            let flows = self.node_flows.get_or_init(|| NodeFlows::new(self.n_nodes));
            flows.egress[src_node].fetch_add(bytes, Ordering::Relaxed);
            flows.ingress[dst_node].fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Copies the counters.
    #[must_use]
    pub fn snapshot(&self) -> TrafficSnapshot {
        let load = |v: &[AtomicU64]| v.iter().map(|a| a.load(Ordering::Relaxed)).collect();
        let (node_ingress, node_egress) = match self.node_flows.get() {
            Some(flows) => (load(&flows.ingress), load(&flows.egress)),
            None => (vec![0; self.n_nodes], vec![0; self.n_nodes]),
        };
        TrafficSnapshot {
            intra_bytes: self.intra_bytes.load(Ordering::Relaxed),
            inter_bytes: self.inter_bytes.load(Ordering::Relaxed),
            data_msgs: self.data_msgs.load(Ordering::Relaxed),
            ctl_msgs: self.ctl_msgs.load(Ordering::Relaxed),
            node_ingress,
            node_egress,
        }
    }
}

/// How many decoded-payload entries a world retains. Collective I/O
/// keeps at most a couple of broadcast buffers live per operation, so a
/// small ring is ample; the cap only bounds memory if a caller streams
/// many distinct broadcasts through one world.
const DECODE_CACHE_CAP: usize = 16;

/// Per-world cache of values decoded from shared broadcast buffers,
/// keyed by buffer *identity* (`Arc::ptr_eq`). Every receiver of a
/// broadcast holds a clone of the same allocation, so the first rank to
/// decode it does the work once and the other `n - 1` ranks reuse the
/// result — turning per-rank O(ranks) decode CPU into per-world O(ranks).
/// Entries keep the keyed `Arc` alive, which is what makes pointer
/// comparison sound: a live key can never be a recycled allocation.
#[derive(Default)]
struct DecodeCache {
    entries: Mutex<Vec<DecodeEntry>>,
}

/// One cached decode: the shared packed buffer (the identity key) and
/// the type-erased decoded value.
type DecodeEntry = (Arc<[u8]>, Arc<dyn Any + Send + Sync>);

impl std::fmt::Debug for DecodeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodeCache")
            .field("entries", &self.entries.lock().len())
            .finish()
    }
}

/// The shared communication world: one mailbox per rank plus the cost
/// model and placement every rank prices its phases and local work
/// against.
#[derive(Debug)]
pub struct World {
    placement: Placement,
    cost: CostModel,
    mailboxes: Vec<Mailbox>,
    traffic: Traffic,
    executor: ExecutorKind,
    decode_cache: DecodeCache,
    /// World-level byte-buffer recycler: assembly buffers retired by
    /// one operation serve the next, so the steady-state hot path
    /// allocates nothing (see [`crate::recycle`]).
    recycle: Arc<crate::recycle::BytePool>,
    /// One exposure slot per rank: the data plane's path into peers'
    /// buffers (see [`crate::expose`]).
    exposure: crate::expose::ExposureTable,
    /// The full-world rank set, built once and shared: per-op
    /// `RankSet::world(n)` calls are an O(ranks) allocation per rank
    /// that dominated collective prologues at 10k+ ranks.
    world_set: std::sync::OnceLock<Arc<crate::group::RankSet>>,
    /// Extra latency on every control-plane message, stored as f64 bits
    /// so fault plans can set it after the world is shared. Zero when no
    /// faults are injected.
    ctl_delay_bits: AtomicU64,
    /// The installed message-causality observer, if any (see
    /// [`World::install_causal`]). Empty by default: the off path is
    /// one `OnceLock` load per send and a stamped-zero check per
    /// settle.
    causal: std::sync::OnceLock<Arc<dyn mccio_sim::causal::CausalSink>>,
}

impl World {
    /// Builds a world for `placement` priced by `cost`, driven by the
    /// `MCCIO_EXECUTOR` env override or the threaded engine by default.
    #[must_use]
    pub fn new(cost: CostModel, placement: Placement) -> Arc<World> {
        let kind = ExecutorKind::from_env().unwrap_or(ExecutorKind::Threads);
        World::with_executor(cost, placement, kind)
    }

    /// Builds a world driven by a specific executor, ignoring the env
    /// override — differential tests pin both engines this way.
    #[must_use]
    pub fn with_executor(
        cost: CostModel,
        placement: Placement,
        executor: ExecutorKind,
    ) -> Arc<World> {
        let n_ranks = placement.n_ranks();
        let n_nodes = placement.n_nodes();
        Arc::new(World {
            placement,
            cost,
            mailboxes: (0..n_ranks).map(|_| Mailbox::new()).collect(),
            traffic: Traffic::new(n_nodes),
            executor,
            decode_cache: DecodeCache::default(),
            recycle: Arc::new(crate::recycle::BytePool::for_ranks(n_ranks)),
            exposure: crate::expose::ExposureTable::new(n_ranks),
            world_set: std::sync::OnceLock::new(),
            ctl_delay_bits: AtomicU64::new(0.0_f64.to_bits()),
            causal: std::sync::OnceLock::new(),
        })
    }

    /// Decodes a shared broadcast buffer once per world: the first caller
    /// for a given `packed` allocation runs `decode` and every later
    /// caller holding a clone of the same `Arc` gets the cached value.
    ///
    /// The lock is held across `decode`, so concurrent ranks under the
    /// threaded executor wait for the one decode instead of duplicating
    /// it. `decode` must be pure (same bytes, same value) — true of every
    /// wire decoder — or caching would change behaviour; and each buffer
    /// must always be decoded to one type, or hits degrade to misses.
    pub fn decode_shared<T: Send + Sync + 'static>(
        &self,
        packed: &Arc<[u8]>,
        decode: impl FnOnce(&[u8]) -> T,
    ) -> Arc<T> {
        let mut entries = self.decode_cache.entries.lock();
        if let Some((_, v)) = entries.iter().find(|(k, _)| Arc::ptr_eq(k, packed)) {
            if let Ok(hit) = Arc::clone(v).downcast::<T>() {
                return hit;
            }
        }
        let value = Arc::new(decode(packed));
        if entries.len() == DECODE_CACHE_CAP {
            entries.remove(0);
        }
        entries.push((
            Arc::clone(packed),
            Arc::clone(&value) as Arc<dyn Any + Send + Sync>,
        ));
        value
    }

    /// The executor driving this world's ranks.
    #[must_use]
    pub fn executor(&self) -> ExecutorKind {
        self.executor
    }

    /// Sets the control-message delay injected on every subsequent
    /// [`Ctx::send_ctl`] (fault modelling: slow management network).
    pub fn set_ctl_delay(&self, delay: VDuration) {
        self.ctl_delay_bits
            .store(delay.as_secs().to_bits(), Ordering::Relaxed);
    }

    /// The currently injected control-message delay.
    #[must_use]
    pub fn ctl_delay(&self) -> VDuration {
        VDuration::from_secs(f64::from_bits(self.ctl_delay_bits.load(Ordering::Relaxed)))
    }

    /// Installs a message-causality observer: every subsequent send and
    /// delivery settlement on this world is reported through it (see
    /// [`mccio_sim::causal::CausalSink`]). At most one observer per
    /// world — the first installation wins and later calls are ignored
    /// (returning `false`), so every rank of an SPMD program can call
    /// this idempotently before its first send. Messages sent before
    /// installation carry no causal stamp and are never reported.
    pub fn install_causal(&self, sink: Arc<dyn mccio_sim::causal::CausalSink>) -> bool {
        self.causal.set(sink).is_ok()
    }

    /// The installed causality observer, if any.
    #[must_use]
    pub fn causal(&self) -> Option<&Arc<dyn mccio_sim::causal::CausalSink>> {
        self.causal.get()
    }

    /// Number of ranks.
    #[must_use]
    pub fn n_ranks(&self) -> usize {
        self.placement.n_ranks()
    }

    /// The placement ranks were launched with.
    #[must_use]
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The cost model pricing this world's phases and local work.
    #[must_use]
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Traffic counters (live; use [`Traffic::snapshot`]).
    #[must_use]
    pub fn traffic(&self) -> &Traffic {
        &self.traffic
    }

    /// The world-level byte-buffer recycler (see [`crate::recycle`]).
    #[must_use]
    pub fn recycler(&self) -> &Arc<crate::recycle::BytePool> {
        &self.recycle
    }

    /// The per-rank exposure table (see [`crate::expose`]).
    #[must_use]
    pub fn exposure(&self) -> &crate::expose::ExposureTable {
        &self.exposure
    }

    /// The rank set containing every rank, built once per world and
    /// shared — callers that need "all ranks" should clone this handle
    /// instead of materializing a fresh O(ranks) vector.
    #[must_use]
    pub fn rank_set(&self) -> &Arc<crate::group::RankSet> {
        self.world_set
            .get_or_init(|| Arc::new(crate::group::RankSet::world(self.n_ranks())))
    }

    /// Asserts every mailbox drained — a queued leftover is a protocol
    /// bug in the caller. Both executors run this at shutdown.
    pub(crate) fn check_drained(&self) {
        for (rank, mb) in self.mailboxes.iter().enumerate() {
            assert_eq!(
                mb.pending(),
                0,
                "rank {rank} exited with unmatched messages queued"
            );
        }
    }

    /// Runs `f` once per rank — on its own thread or as a cooperative
    /// task, per [`World::executor`] — and returns the per-rank results
    /// in rank order. Virtual times, file hashes, and traffic are
    /// bit-identical across executors.
    ///
    /// # Panics
    /// Propagates any rank's panic after the world has wound down, and
    /// panics if any mailbox still holds unmatched messages at exit
    /// (a protocol bug in the caller).
    pub fn run<F, R>(self: &Arc<Self>, f: F) -> Vec<R>
    where
        F: Fn(&mut Ctx) -> R + Send + Sync,
        R: Send,
    {
        match self.executor {
            ExecutorKind::Threads => self.run_threads(f),
            ExecutorKind::Event if executor::SUPPORTED => executor::run_event(self, f),
            ExecutorKind::Event => {
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "mccio-net: event executor has no context-switch backend on this \
                         architecture; falling back to the threaded engine"
                    );
                });
                self.run_threads(f)
            }
        }
    }

    fn run_threads<F, R>(self: &Arc<Self>, f: F) -> Vec<R>
    where
        F: Fn(&mut Ctx) -> R + Send + Sync,
        R: Send,
    {
        let n = self.n_ranks();
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for (rank, slot) in results.iter_mut().enumerate() {
                let world = Arc::clone(self);
                let f = &f;
                let handle = std::thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .stack_size(1 << 21)
                    .spawn_scoped(scope, move || {
                        let mut ctx = Ctx {
                            rank,
                            node: world.placement.node_of(rank),
                            world: Arc::clone(&world),
                            clock: VTime::ZERO,
                            task: None,
                        };
                        *slot = Some(f(&mut ctx));
                    })
                    .expect("spawn rank thread");
                handles.push(handle);
            }
        });
        self.check_drained();
        results
            .into_iter()
            .map(|r| r.expect("every rank produced a result"))
            .collect()
    }
}

/// A rank's handle to the world: identity, clock, and communication.
#[derive(Debug)]
pub struct Ctx {
    rank: usize,
    node: usize,
    world: Arc<World>,
    clock: VTime,
    /// Present when this rank runs as a cooperative task: blocking
    /// receives yield to the scheduler through it instead of parking an
    /// OS thread.
    task: Option<TaskHandle>,
}

impl Ctx {
    pub(crate) fn for_event_task(rank: usize, world: &Arc<World>, task: TaskHandle) -> Ctx {
        Ctx {
            rank,
            node: world.placement.node_of(rank),
            world: Arc::clone(world),
            clock: VTime::ZERO,
            task: Some(task),
        }
    }

    /// This rank's id, `0..size`.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks.
    #[must_use]
    pub fn size(&self) -> usize {
        self.world.n_ranks()
    }

    /// The node hosting this rank.
    #[must_use]
    pub fn node(&self) -> usize {
        self.node
    }

    /// The world-wide placement.
    #[must_use]
    pub fn placement(&self) -> &Placement {
        self.world.placement()
    }

    /// The cost model.
    #[must_use]
    pub fn cost(&self) -> &CostModel {
        self.world.cost()
    }

    /// The shared world (for handing to helpers).
    #[must_use]
    pub fn world(&self) -> &Arc<World> {
        &self.world
    }

    /// The shared full-world rank set (see [`World::rank_set`]).
    #[must_use]
    pub fn world_ranks(&self) -> Arc<crate::group::RankSet> {
        Arc::clone(self.world.rank_set())
    }

    /// Current virtual time at this rank.
    #[must_use]
    pub fn clock(&self) -> VTime {
        self.clock
    }

    /// Advances the local clock by `d` (local compute, buffer packing,
    /// waiting for I/O).
    pub fn advance(&mut self, d: VDuration) {
        self.clock += d;
    }

    /// Moves the clock forward to `t` if `t` is later (phase-end
    /// synchronization). Never moves the clock backwards.
    pub fn advance_to(&mut self, t: VTime) {
        self.clock = self.clock.max(t);
    }

    /// Charges the time to stream `bytes` through this node's DRAM once
    /// (memcpy-style local work), under memory-pressure `factor`.
    pub fn charge_local_copy(&mut self, bytes: u64, factor: f64) {
        let d = self.world.cost().local_copy(self.node, bytes, factor);
        self.clock += d;
    }

    /// Wakes `dst` if it runs as a task parked on exactly the message
    /// just delivered; a no-op under the threaded executor (deliver
    /// notified the condvar already if a thread was parked).
    fn notify(&self, dst: usize, delivered: Pattern) {
        if let Some(task) = &self.task {
            task.notify_delivery(dst, delivered);
        }
    }

    /// Sends a message: it carries causality only (see the module docs'
    /// clock rule), since the bulk-data phases it coordinates are priced
    /// analytically.
    pub fn send_ctl(&mut self, dst: usize, tag: u32, payload: Vec<u8>) {
        self.send_ctl_payload(dst, tag, payload.into());
    }

    /// Control-plane send of an owned *or shared* payload; collectives
    /// use the shared form so a broadcast queues one buffer, not one
    /// clone per destination.
    pub(crate) fn send_ctl_payload(&mut self, dst: usize, tag: u32, payload: Payload) {
        let bytes = payload.len() as u64;
        self.send_sized(dst, tag, payload, bytes);
    }

    /// [`Ctx::send_ctl_payload`] reporting `wire_bytes` rather than the
    /// payload's own length to the causal observer: a data-plane
    /// message stands for bytes that move through the exposure table.
    pub(crate) fn send_sized(&mut self, dst: usize, tag: u32, payload: Payload, wire_bytes: u64) {
        assert!(dst < self.size(), "send to rank {dst} of {}", self.size());
        self.world.traffic.ctl_msgs.fetch_add(1, Ordering::Relaxed);
        // An injected control-network delay shifts the departure stamp:
        // the receiver's causality rule (max with depart) then charges it
        // in virtual time without any wall-clock sleeping.
        let depart = self.clock + self.world.ctl_delay();
        let causal = match self.world.causal.get() {
            Some(sink) => sink.on_send(self.rank, dst, self.clock, wire_bytes),
            None => 0,
        };
        self.world.mailboxes[dst].deliver(Envelope {
            src: self.rank,
            tag,
            payload,
            depart,
            causal,
        });
        self.notify(
            dst,
            Pattern {
                src: self.rank,
                tag,
            },
        );
    }

    /// The one clock rule for every delivery: the receiver advances to
    /// the message's departure if that is later.
    fn settle(&mut self, env: &Envelope) {
        let before = self.clock;
        self.clock = self.clock.max(env.depart);
        if env.causal != 0 {
            if let Some(sink) = self.world.causal.get() {
                sink.on_delivery(env.src, env.causal, self.rank, before, self.clock);
            }
        }
    }

    /// Blocking receive, routed per executor: condvar park on a thread,
    /// scheduler yield as a task. The yield loop re-probes after every
    /// wakeup — the scheduler only guarantees a match existed at notify
    /// time.
    fn recv_matched(&self, pattern: Pattern) -> Envelope {
        let mb = &self.world.mailboxes[self.rank];
        match &self.task {
            None => mb.recv(pattern),
            Some(task) => loop {
                if let Some(env) = mb.try_recv(pattern) {
                    return env;
                }
                task.block_on_message(pattern, self.clock);
            },
        }
    }

    /// Blocks for a message from `src` with `tag`; returns the payload.
    pub fn recv(&mut self, src: usize, tag: u32) -> Vec<u8> {
        let env = self.recv_matched(Pattern { src, tag });
        self.settle(&env);
        env.payload.into_vec()
    }

    /// Like [`Ctx::recv`] but keeps the payload shared: at a broadcast
    /// every receiver gets a clone of the *same* `Arc`, so the buffer is
    /// never copied and its identity can key per-world decode caches.
    /// Clock and traffic behave exactly like [`Ctx::recv`].
    pub fn recv_shared(&mut self, src: usize, tag: u32) -> Arc<[u8]> {
        let env = self.recv_matched(Pattern { src, tag });
        self.settle(&env);
        env.payload.into_shared()
    }

    /// Deadline-bounded receive from `src`: the failure-detection
    /// primitive. If a matching message arrives it is settled and
    /// returned exactly like [`Ctx::recv`]; otherwise the clock advances
    /// to `deadline` — the virtual-time price of waiting out the timeout
    /// — and [`SimError::RankFailed`] names the silent peer.
    ///
    /// The miss arm is executor-specific but the result is not. The
    /// threaded engine parks for a short *wall-clock* budget; the event
    /// engine waits for quiescence (no runnable task), which proves the
    /// message can never arrive. Callers must only probe peers whose
    /// silence is already decided by shared data (the fault plan's crash
    /// schedule at an agreed virtual time). The engine's crash tracker
    /// honors this: it probes on a tag nothing ever sends on, and only
    /// ranks every peer has independently declared dead.
    ///
    /// # Errors
    /// [`SimError::RankFailed`] when no matching message arrived.
    pub fn recv_deadline(&mut self, src: usize, tag: u32, deadline: VTime) -> SimResult<Vec<u8>> {
        let pattern = Pattern { src, tag };
        let got = match &self.task {
            None => {
                const DETECT_WALL_BUDGET: std::time::Duration = std::time::Duration::from_millis(2);
                self.world.mailboxes[self.rank].recv_budgeted(pattern, DETECT_WALL_BUDGET)
            }
            Some(task) => {
                let mb = &self.world.mailboxes[self.rank];
                match mb.try_recv(pattern) {
                    Some(env) => Some(env),
                    None if task.block_with_deadline(pattern, deadline, self.clock) => None,
                    None => Some(mb.try_recv(pattern).expect("woken with a queued match")),
                }
            }
        };
        match got {
            Some(env) => {
                self.settle(&env);
                Ok(env.payload.into_vec())
            }
            None => {
                self.advance_to(deadline);
                Err(SimError::RankFailed { rank: src })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccio_sim::topology::{test_cluster, FillOrder};
    use mccio_sim::units::MIB;

    fn world_with(nodes: usize, cores: usize, ranks: usize, kind: ExecutorKind) -> Arc<World> {
        let cluster = test_cluster(nodes, cores);
        let placement = Placement::new(&cluster, ranks, FillOrder::Block).unwrap();
        World::with_executor(CostModel::new(cluster), placement, kind)
    }

    fn world(nodes: usize, cores: usize, ranks: usize) -> Arc<World> {
        world_with(nodes, cores, ranks, ExecutorKind::Threads)
    }

    const BOTH: [ExecutorKind; 2] = [ExecutorKind::Threads, ExecutorKind::Event];

    #[test]
    fn ping_pong_moves_data_and_time() {
        for kind in BOTH {
            let w = world_with(2, 1, 2, kind);
            let results = w.run(|ctx| {
                if ctx.rank() == 0 {
                    ctx.advance(VDuration::from_secs(0.5));
                    ctx.send_ctl(1, 1, vec![42; 1024]);
                    let back = ctx.recv(1, 2);
                    (back.len(), ctx.clock().as_secs())
                } else {
                    let msg = ctx.recv(0, 1);
                    ctx.advance(VDuration::from_secs(0.25));
                    ctx.send_ctl(0, 2, msg);
                    (0, ctx.clock().as_secs())
                }
            });
            assert_eq!(results[0].0, 1024);
            // Each hop pulls the receiver up to the sender's clock.
            assert_eq!(results[1].1, 0.75);
            assert_eq!(results[0].1, 0.75);
            assert_eq!(w.traffic().snapshot().ctl_msgs, 2);
        }
    }

    #[test]
    fn executors_agree_bit_for_bit() {
        let run = |kind| {
            let w = world_with(2, 2, 4, kind);
            let clocks = w.run(|ctx| {
                let me = ctx.rank();
                ctx.advance(VDuration::from_secs(me as f64 * 0.125));
                let next = (me + 1) % ctx.size();
                let prev = (me + ctx.size() - 1) % ctx.size();
                ctx.send_ctl(next, 5, vec![me as u8; 256 * (me + 1)]);
                let got = ctx.recv(prev, 5);
                assert_eq!(got.len(), 256 * (prev + 1));
                // Distinct per-rank clocks: rank 0 is pulled up to rank
                // 3's departure, the others keep their own.
                let settled = ctx.clock().as_secs().to_bits();
                ctx.barrier();
                (settled, ctx.clock().as_secs().to_bits())
            });
            (clocks, w.traffic().snapshot())
        };
        let (threaded, t_snap) = run(ExecutorKind::Threads);
        let (event, e_snap) = run(ExecutorKind::Event);
        assert_eq!(threaded, event, "virtual clocks must match bit-for-bit");
        assert_eq!(t_snap, e_snap, "traffic must match exactly");
        let settled: Vec<f64> = threaded.iter().map(|c| f64::from_bits(c.0)).collect();
        assert_eq!(settled, [0.375, 0.125, 0.25, 0.375]);
    }

    #[test]
    fn control_messages_carry_causality_without_cost() {
        for kind in BOTH {
            let w = world_with(2, 1, 2, kind);
            let results = w.run(|ctx| {
                if ctx.rank() == 0 {
                    ctx.advance(VDuration::from_secs(5.0));
                    ctx.send_ctl(1, 9, vec![]);
                    ctx.clock().as_secs()
                } else {
                    let _ = ctx.recv(0, 9);
                    ctx.clock().as_secs()
                }
            });
            // Receiver is pulled forward to the sender's clock, exactly.
            assert_eq!(results[1], 5.0);
            assert_eq!(w.traffic().snapshot().ctl_msgs, 1);
            assert_eq!(w.traffic().snapshot().inter_bytes, 0);
        }
    }

    #[test]
    fn injected_ctl_delay_shifts_causality() {
        let w = world(2, 1, 2);
        w.set_ctl_delay(VDuration::from_secs(0.25));
        let results = w.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.advance(VDuration::from_secs(1.0));
                ctx.send_ctl(1, 9, vec![]);
            } else {
                let _ = ctx.recv(0, 9);
            }
            ctx.clock().as_secs()
        });
        assert_eq!(results[1], 1.25, "receiver pays the injected delay");
        assert_eq!(results[0], 1.0, "sender does not");
    }

    #[test]
    fn results_are_in_rank_order() {
        for kind in BOTH {
            let w = world_with(2, 4, 8, kind);
            let results = w.run(|ctx| ctx.rank() * 10);
            assert_eq!(results, (0..8).map(|r| r * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn local_copy_charges_dram_time() {
        let w = world(1, 1, 1);
        let r = w.run(|ctx| {
            ctx.charge_local_copy(10 * MIB, 1.0);
            let healthy = ctx.clock().as_secs();
            ctx.charge_local_copy(10 * MIB, 4.0);
            (healthy, ctx.clock().as_secs() - healthy)
        });
        let (healthy, thrashed) = r[0];
        assert!((thrashed / healthy - 4.0).abs() < 1e-9);
    }

    #[test]
    fn receives_match_exact_pairs_out_of_arrival_order() {
        // Case 1: rank 0 parks on (2, 5) while (1, 7) and (1, 5) arrive,
        // neither of which may satisfy it; (2, 5) arrives last. Case 2:
        // three (1, 5) messages queue behind one inline head before rank
        // 0 receives any of them, and must drain in send order.
        let run = |kind| {
            let w = world_with(1, 3, 3, kind);
            w.run(|ctx| {
                let mut got = Vec::new();
                match ctx.rank() {
                    0 => {
                        for (src, tag) in [(2, 5), (1, 5), (1, 7), (1, 8), (1, 5), (1, 5), (1, 5)] {
                            let payload = ctx.recv(src, tag);
                            got.push((payload, ctx.clock().as_secs().to_bits()));
                        }
                    }
                    1 => {
                        ctx.advance(VDuration::from_secs(1.0));
                        ctx.send_ctl(0, 7, vec![17]);
                        ctx.advance(VDuration::from_secs(1.0));
                        ctx.send_ctl(0, 5, vec![15]);
                        // Only now may rank 2 send its (2, 5).
                        ctx.send_ctl(2, 9, Vec::new());
                        for byte in [b'a', b'b', b'c'] {
                            ctx.advance(VDuration::from_secs(1.0));
                            ctx.send_ctl(0, 5, vec![byte]);
                        }
                        ctx.send_ctl(0, 8, Vec::new());
                    }
                    _ => {
                        let _ = ctx.recv(1, 9);
                        ctx.send_ctl(0, 5, vec![25]);
                    }
                }
                got
            })
        };
        let threaded = run(ExecutorKind::Threads);
        let event = run(ExecutorKind::Event);
        assert_eq!(
            threaded, event,
            "payloads and clocks must match bit for bit"
        );
        let payloads: Vec<Vec<u8>> = event[0].iter().map(|(p, _)| p.clone()).collect();
        let expect: [&[u8]; 7] = [&[25], &[15], &[17], &[], b"a", b"b", b"c"];
        assert_eq!(payloads, expect);
        let clocks: Vec<f64> = event[0].iter().map(|&(_, c)| f64::from_bits(c)).collect();
        assert_eq!(clocks, [2.0, 2.0, 2.0, 5.0, 5.0, 5.0, 5.0]);
    }

    #[test]
    fn recv_deadline_charges_the_timeout_on_silence() {
        for kind in BOTH {
            let w = world_with(1, 2, 2, kind);
            let r = w.run(|ctx| {
                if ctx.rank() == 0 {
                    // Rank 1 never sends on tag 77: the deadline must expire
                    // and the clock must land exactly on it.
                    let deadline = ctx.clock() + VDuration::from_secs(0.5);
                    let err = ctx.recv_deadline(1, 77, deadline).unwrap_err();
                    assert_eq!(err, mccio_sim::SimError::RankFailed { rank: 1 });
                    ctx.clock().as_secs()
                } else {
                    0.0
                }
            });
            assert_eq!(r[0], 0.5);
        }
    }

    #[test]
    fn recv_deadline_delivers_a_present_message() {
        for kind in BOTH {
            let w = world_with(1, 2, 2, kind);
            let r = w.run(|ctx| {
                if ctx.rank() == 0 {
                    ctx.send_ctl(1, 78, vec![9]);
                    ctx.barrier();
                    0
                } else {
                    // The barrier orders the send before the probe, so the
                    // match is already queued: no wall-clock race.
                    ctx.barrier();
                    let deadline = ctx.clock() + VDuration::from_secs(10.0);
                    let payload = ctx.recv_deadline(0, 78, deadline).unwrap();
                    assert!(
                        ctx.clock().as_secs() < 10.0,
                        "delivery must not charge the deadline"
                    );
                    payload[0]
                }
            });
            assert_eq!(r[1], 9);
        }
    }

    #[test]
    fn event_deadline_waits_for_late_traffic_before_expiring() {
        // The deadline waiter must only be declared missed at
        // quiescence: rank 1 does unrelated work first, then sends the
        // probed message, and the waiter must still get it.
        let w = world_with(1, 3, 3, ExecutorKind::Event);
        let r = w.run(|ctx| match ctx.rank() {
            0 => {
                let deadline = ctx.clock() + VDuration::from_secs(4.0);
                ctx.recv_deadline(1, 80, deadline).map(|p| p[0])
            }
            1 => {
                // A detour through rank 2 keeps the world busy while
                // rank 0 is already parked on its deadline.
                ctx.send_ctl(2, 81, vec![]);
                let _ = ctx.recv(2, 82);
                ctx.send_ctl(0, 80, vec![7]);
                Ok(0)
            }
            _ => {
                let _ = ctx.recv(1, 81);
                ctx.send_ctl(1, 82, vec![]);
                Ok(0)
            }
        });
        assert_eq!(r[0], Ok(7), "late but reachable traffic beats the deadline");
    }

    #[test]
    fn event_scheduler_breaks_clock_ties_by_rank_order() {
        // Satellite: same virtual clock => wake order is (rank, seq).
        // Ranks 1..4 park at clock zero; the root's release fan-out
        // makes them all runnable at once. Their post-recv side effects
        // must interleave in rank order, reproducibly.
        let w = world_with(1, 4, 4, ExecutorKind::Event);
        let log = std::sync::Mutex::new(Vec::new());
        let _ = w.run(|ctx| {
            let me = ctx.rank();
            if me == 0 {
                for src in 1..4 {
                    let _ = ctx.recv(src, 1);
                }
                for dst in 1..4 {
                    ctx.send_ctl(dst, 2, vec![]);
                }
            } else {
                ctx.send_ctl(0, 1, vec![]);
                let _ = ctx.recv(0, 2);
                log.lock().unwrap().push(me);
            }
        });
        assert_eq!(*log.lock().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn event_scheduler_runs_smallest_clock_first() {
        // Ranks park with distinct clocks (rank r waits at n - r
        // seconds); when the root releases everyone at once, the
        // scheduler must resume them smallest clock first.
        let n = 4;
        let w = world_with(1, n, n, ExecutorKind::Event);
        let log = std::sync::Mutex::new(Vec::new());
        let _ = w.run(|ctx| {
            let me = ctx.rank();
            if me == 0 {
                for src in 1..n {
                    let _ = ctx.recv(src, 1);
                }
                for dst in 1..n {
                    ctx.send_ctl(dst, 2, vec![]);
                }
            } else {
                ctx.advance(VDuration::from_secs((n - me) as f64));
                ctx.send_ctl(0, 1, vec![]);
                let _ = ctx.recv(0, 2);
                log.lock().unwrap().push(me);
            }
        });
        assert_eq!(
            *log.lock().unwrap(),
            vec![3, 2, 1],
            "rank 3 parked at the smallest clock and must wake first"
        );
    }

    #[test]
    fn event_panic_propagates_with_its_message() {
        let w = world_with(1, 2, 2, ExecutorKind::Event);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = w.run(|ctx| {
                if ctx.rank() == 1 {
                    panic!("rank 1 exploded");
                }
            });
        }))
        .unwrap_err();
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("rank 1 exploded"), "got panic: {msg}");
    }

    #[test]
    #[should_panic(expected = "unmatched messages")]
    fn leaked_message_is_detected() {
        let w = world(1, 2, 2);
        let _ = w.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send_ctl(1, 99, vec![1]);
            }
            // rank 1 never receives.
        });
    }

    #[test]
    #[should_panic(expected = "unmatched messages")]
    fn event_leaked_message_is_detected() {
        let w = world_with(1, 2, 2, ExecutorKind::Event);
        let _ = w.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send_ctl(1, 99, vec![1]);
            }
            // rank 1 never receives.
        });
    }

    #[test]
    fn event_executor_deadlock_is_diagnosed() {
        let w = world_with(1, 2, 2, ExecutorKind::Event);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = w.run(|ctx| {
                // Everyone waits for a message nobody sends.
                let _ = ctx.recv((ctx.rank() + 1) % 2, 123);
            });
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("deadlock"), "got panic: {msg}");
        assert!(msg.contains("rank 0"), "names the stuck ranks: {msg}");
    }

    #[test]
    fn event_executor_handles_thousands_of_ranks() {
        // A 2000-rank world on OS threads would need gigabytes of
        // committed stacks; as tasks it is a quick smoke.
        let n = 2000;
        let w = world_with(20, 100, n, ExecutorKind::Event);
        let clocks = w.run(|ctx| {
            ctx.advance(VDuration::from_secs(ctx.rank() as f64 * 1e-6));
            ctx.barrier();
            ctx.clock().as_secs()
        });
        let expect = (n - 1) as f64 * 1e-6;
        for c in clocks {
            assert_eq!(c, expect, "barrier syncs every clock to the max");
        }
    }
}
