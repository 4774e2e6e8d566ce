//! # mccio-mem — per-node memory model
//!
//! The paper's whole premise is that at extreme scale, memory per core
//! collapses to megabytes and *available* memory varies widely across
//! nodes; collective I/O aggregation buffers then become a first-order
//! resource. This crate models exactly that:
//!
//! * a [`MemoryModel`] tracks, per node, the physical capacity, the memory
//!   already consumed by the application (sampled with the Normal(μ, σ)
//!   variance the paper's evaluation uses), and the bytes currently
//!   reserved for aggregation buffers;
//! * [`MemoryModel::reserve`] hands out RAII [`Reservation`]s —
//!   reservations always *succeed* (a real aggregator can always malloc
//!   and page), but oversubscribing a node drives its
//!   [`MemoryModel::pressure_factor`] above 1.0, which the cost model in
//!   `mccio-sim` uses to stretch that node's DRAM time (paging: the
//!   overflowed fraction of every buffer touch runs at swap speed);
//! * high-water marks and cross-node statistics feed the paper's "memory
//!   consumption and variance among processes" measurements.
//!
//! Everything is thread-safe (per-node locks) because rank threads
//! reserve and release concurrently, and deterministic: the sampled
//! availability depends only on `(cluster, mean, stddev, seed)`.
//!
//! Fault injection adds two things on top of the paging model:
//! [`MemoryModel::try_reserve`] refuses rather than pages (the engine's
//! retry/degradation ladder decides what to do), and
//! [`MemoryModel::revoke`]/[`MemoryModel::restore`] let a fault plan
//! reclaim and return application memory mid-run.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mccio_sim::sync::Mutex;

use mccio_sim::rng::{stream_rng, NormalSampler};
use mccio_sim::stats::Welford;
use mccio_sim::topology::ClusterSpec;
use mccio_sim::units::MIB;

/// Tuning knobs for the pressure model.
#[derive(Debug, Clone, Copy)]
pub struct MemParams {
    /// Ratio of DRAM bandwidth to swap/backing-store bandwidth. The
    /// overflowed fraction of buffer traffic runs this much slower.
    /// Default 50 (25 GB/s DRAM vs ~500 MB/s swap device).
    pub swap_slowdown: f64,
    /// Fraction of a node's capacity the OS and runtime hold at boot;
    /// folded into the baseline usage by [`MemoryModel::pristine`].
    /// Default 5 %.
    pub os_reserve_fraction: f64,
}

impl Default for MemParams {
    fn default() -> Self {
        MemParams {
            swap_slowdown: 50.0,
            os_reserve_fraction: 0.05,
        }
    }
}

#[derive(Debug)]
struct NodeMem {
    /// Physical capacity in bytes.
    capacity: u64,
    /// Bytes the application (and OS) already use — the source of
    /// cross-node variance.
    app_used: u64,
    /// Bytes currently reserved for aggregation buffers.
    reserved: u64,
    /// Largest value `reserved` ever reached.
    peak_reserved: u64,
}

impl NodeMem {
    fn free(&self) -> u64 {
        self.capacity.saturating_sub(self.app_used + self.reserved)
    }
}

/// Thread-safe per-node memory ledger. Cheap to clone (`Arc` inside).
#[derive(Debug, Clone)]
pub struct MemoryModel {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    nodes: Vec<Mutex<NodeMem>>,
    params: MemParams,
    /// Bumped on every availability-changing mutation; see
    /// [`MemoryModel::state_fingerprint`].
    version: AtomicU64,
    /// Memoized [`MemoryModel::peak_statistics`] keyed by the version it
    /// was computed at. Every rank reads the statistic once per
    /// operation epilogue; without the memo that is an
    /// `O(ranks × nodes)` lock sweep per collective.
    peak_memo: Mutex<Option<(u64, Welford)>>,
}

impl MemoryModel {
    /// A model where every node starts with its full capacity available
    /// minus the OS/runtime share ([`MemParams::os_reserve_fraction`]).
    #[must_use]
    pub fn pristine(cluster: &ClusterSpec) -> Self {
        let params = MemParams::default();
        let frac = params.os_reserve_fraction;
        Self::build(cluster, |_, cap| (cap as f64 * frac) as u64, params)
    }

    /// A model whose per-node *available* memory is sampled from
    /// Normal(`mean_available`, `stddev`²) bytes, clamped to
    /// `[256 KiB, capacity]` — the paper's evaluation setup ("memory
    /// buffer sizes for processes were set up as random variables
    /// following a normal distribution").
    ///
    /// `seed` makes the draw reproducible.
    #[must_use]
    pub fn with_available_variance(
        cluster: &ClusterSpec,
        mean_available: u64,
        stddev: u64,
        seed: u64,
    ) -> Self {
        let mut rng = stream_rng(seed, "node-available-memory");
        let mut sampler = NormalSampler::new(mean_available as f64, stddev as f64);
        let draws: Vec<u64> = cluster
            .nodes
            .iter()
            .map(|spec| {
                let floor = (MIB / 4) as f64;
                sampler.sample_clamped(&mut rng, floor, spec.mem_capacity as f64) as u64
            })
            .collect();
        let mut i = 0;
        Self::build(
            cluster,
            move |_, cap| {
                let avail = draws[i];
                i += 1;
                cap.saturating_sub(avail)
            },
            MemParams::default(),
        )
    }

    /// Full-control constructor: `app_used(node_idx, capacity)` returns
    /// the pre-existing memory consumption of each node.
    #[must_use]
    pub fn build(
        cluster: &ClusterSpec,
        mut app_used: impl FnMut(usize, u64) -> u64,
        params: MemParams,
    ) -> Self {
        let nodes = cluster
            .nodes
            .iter()
            .enumerate()
            .map(|(idx, spec)| {
                let used = app_used(idx, spec.mem_capacity).min(spec.mem_capacity);
                Mutex::new(NodeMem {
                    capacity: spec.mem_capacity,
                    app_used: used,
                    reserved: 0,
                    peak_reserved: 0,
                })
            })
            .collect();
        MemoryModel {
            inner: Arc::new(Inner {
                nodes,
                params,
                version: AtomicU64::new(0),
                peak_memo: Mutex::new(None),
            }),
        }
    }

    /// Marks an availability-changing mutation. Relaxed is enough: the
    /// fingerprint is only meaningful at points where the mutating calls
    /// are already ordered before the reading call (collective planning
    /// windows), never as a synchronization edge of its own.
    fn touch(&self) {
        self.inner.version.fetch_add(1, Ordering::Relaxed);
    }

    /// An identity-plus-version stamp of this model's availability
    /// state: two equal fingerprints from the same process observe the
    /// same `available()` values on every node (versions only grow, and
    /// the pointer half distinguishes distinct models). Plan caches use
    /// this to recognize that a re-plan would see exactly the memory
    /// landscape an existing plan was computed against.
    #[must_use]
    pub fn state_fingerprint(&self) -> (usize, u64) {
        (
            Arc::as_ptr(&self.inner) as usize,
            self.inner.version.load(Ordering::Relaxed),
        )
    }

    /// Number of nodes tracked.
    #[must_use]
    pub fn n_nodes(&self) -> usize {
        self.inner.nodes.len()
    }

    /// Bytes of memory currently available for aggregation on `node`
    /// (capacity − application/OS usage − existing reservations). This
    /// is the paper's `Mem_avl`. The OS share is folded into the
    /// baseline usage at construction ([`MemoryModel::pristine`] uses
    /// [`MemParams::os_reserve_fraction`]); constructors that sample
    /// *availability* directly deliver exactly what they sampled.
    #[must_use]
    pub fn available(&self, node: usize) -> u64 {
        self.inner.nodes[node].lock().free()
    }

    /// Reserves `bytes` of aggregation memory on `node`, returning an
    /// RAII guard that releases on drop.
    ///
    /// Reservations never fail: like a real `malloc`, an oversubscribed
    /// node pages instead. Check [`MemoryModel::pressure_factor`] for the
    /// consequences.
    #[must_use]
    pub fn reserve(&self, node: usize, bytes: u64) -> Reservation {
        {
            let mut n = self.inner.nodes[node].lock();
            n.reserved += bytes;
            n.peak_reserved = n.peak_reserved.max(n.reserved);
        }
        self.touch();
        Reservation {
            model: self.clone(),
            node,
            bytes,
        }
    }

    /// Fallible reservation for fault-aware callers: succeeds only when
    /// `bytes` genuinely fit in the node's free memory, with no paging
    /// escape hatch. The collective engine uses this under fault
    /// injection so a revocation forces an explicit re-plan instead of
    /// silently thrashing.
    ///
    /// Whether a set of concurrent `try_reserve` calls can all succeed
    /// depends only on the demanded totals, never on arrival order, so
    /// collective reservation outcomes are schedule-independent when
    /// (as in the engine) failure of any rank releases and retries all.
    #[must_use]
    pub fn try_reserve(&self, node: usize, bytes: u64) -> Option<Reservation> {
        {
            let mut n = self.inner.nodes[node].lock();
            if bytes > n.free() {
                return None;
            }
            n.reserved += bytes;
            n.peak_reserved = n.peak_reserved.max(n.reserved);
        }
        self.touch();
        Some(Reservation {
            model: self.clone(),
            node,
            bytes,
        })
    }

    /// A fault plan reclaims `bytes` of `node`'s memory (the host
    /// application or a co-tenant grows): application usage rises,
    /// availability falls. Clamped at capacity; returns the bytes
    /// actually revoked.
    pub fn revoke(&self, node: usize, bytes: u64) -> u64 {
        let mut n = self.inner.nodes[node].lock();
        let actual = bytes.min(n.capacity - n.app_used);
        n.app_used += actual;
        drop(n);
        self.touch();
        actual
    }

    /// Returns previously revoked memory: application usage falls by up
    /// to `bytes` (saturating at zero).
    pub fn restore(&self, node: usize, bytes: u64) {
        let mut n = self.inner.nodes[node].lock();
        n.app_used = n.app_used.saturating_sub(bytes);
        drop(n);
        self.touch();
    }

    /// Current DRAM-time multiplier for `node`: 1.0 while everything
    /// fits; when `app_used + reserved` exceeds capacity, the overflowed
    /// fraction of buffer traffic runs at swap speed:
    ///
    /// `factor = 1 + paged_fraction × (swap_slowdown − 1)`
    ///
    /// where `paged_fraction = overflow / reserved`.
    #[must_use]
    pub fn pressure_factor(&self, node: usize) -> f64 {
        let n = self.inner.nodes[node].lock();
        if n.reserved == 0 {
            return 1.0;
        }
        let used = n.app_used + n.reserved;
        if used <= n.capacity {
            return 1.0;
        }
        let overflow = used - n.capacity;
        let paged = (overflow as f64 / n.reserved as f64).min(1.0);
        1.0 + paged * (self.inner.params.swap_slowdown - 1.0)
    }

    /// Pressure factors for all nodes, in node order — the shape
    /// [`mccio_sim::CostModel::shuffle_phase`] consumes.
    #[must_use]
    pub fn pressure_factors(&self) -> Vec<f64> {
        (0..self.n_nodes())
            .map(|n| self.pressure_factor(n))
            .collect()
    }

    /// Bytes currently reserved on `node`.
    #[must_use]
    pub fn reserved(&self, node: usize) -> u64 {
        self.inner.nodes[node].lock().reserved
    }

    /// `node`'s aggregation-memory ceiling: capacity minus what the
    /// application and OS currently hold (`capacity − app_used`).
    /// Reservations up to the ceiling fit in DRAM; beyond it the node
    /// pages ([`MemoryModel::pressure_factor`] rises above 1.0). Fault
    /// revocations/restorations move the ceiling mid-run, which is why
    /// occupancy timelines record it per event rather than once.
    #[must_use]
    pub fn ceiling(&self, node: usize) -> u64 {
        let n = self.inner.nodes[node].lock();
        n.capacity.saturating_sub(n.app_used)
    }

    /// High-water mark of aggregation memory on `node` — the paper's
    /// per-aggregator "memory consumption" metric.
    #[must_use]
    pub fn peak_reserved(&self, node: usize) -> u64 {
        self.inner.nodes[node].lock().peak_reserved
    }

    /// Updates `node`'s application memory usage (the simulation's way
    /// of modelling application phases that grow or shrink between
    /// collective operations — the availability the *next* plan sees).
    ///
    /// # Panics
    /// Panics if `bytes` exceeds the node's capacity.
    pub fn set_app_used(&self, node: usize, bytes: u64) {
        let mut n = self.inner.nodes[node].lock();
        assert!(
            bytes <= n.capacity,
            "app usage {bytes} exceeds capacity {} on node {node}",
            n.capacity
        );
        n.app_used = bytes;
        drop(n);
        self.touch();
    }

    /// Current application memory usage on `node`.
    #[must_use]
    pub fn app_used(&self, node: usize) -> u64 {
        self.inner.nodes[node].lock().app_used
    }

    /// Node capacity in bytes.
    #[must_use]
    pub fn capacity(&self, node: usize) -> u64 {
        self.inner.nodes[node].lock().capacity
    }

    /// Summary of peak aggregation memory across nodes that aggregated
    /// anything — mean, stddev and CV quantify the paper's "variance
    /// among processes".
    ///
    /// Memoized on the model's version: repeat calls between mutations
    /// (every rank's operation epilogue reads this) reuse one sweep
    /// instead of locking every node again.
    #[must_use]
    pub fn peak_statistics(&self) -> Welford {
        let v0 = self.inner.version.load(Ordering::Relaxed);
        if let Some((v, w)) = *self.inner.peak_memo.lock() {
            if v == v0 {
                return w;
            }
        }
        let mut w = Welford::new();
        for n in &self.inner.nodes {
            let peak = n.lock().peak_reserved;
            if peak > 0 {
                w.push(peak as f64);
            }
        }
        // Only cache a snapshot no mutation raced with: if the version
        // moved mid-sweep the result may be torn, and caching it under
        // `v1` would serve the torn view to callers at that version.
        let v1 = self.inner.version.load(Ordering::Relaxed);
        if v0 == v1 {
            *self.inner.peak_memo.lock() = Some((v0, w));
        }
        w
    }

    /// Summary of available memory across all nodes (used by the tuner to
    /// pick `Mem_min` and by tests to verify the sampled variance).
    #[must_use]
    pub fn availability_statistics(&self) -> Welford {
        let mut w = Welford::new();
        for i in 0..self.n_nodes() {
            w.push(self.available(i) as f64);
        }
        w
    }

    fn release(&self, node: usize, bytes: u64) {
        let mut n = self.inner.nodes[node].lock();
        assert!(
            n.reserved >= bytes,
            "release of {bytes} B exceeds {} B reserved on node {node}",
            n.reserved
        );
        n.reserved -= bytes;
        drop(n);
        self.touch();
    }
}

/// RAII guard for an aggregation-buffer reservation.
#[derive(Debug)]
pub struct Reservation {
    model: MemoryModel,
    node: usize,
    bytes: u64,
}

impl Reservation {
    /// The node the reservation lives on.
    #[must_use]
    pub fn node(&self) -> usize {
        self.node
    }

    /// Reserved size in bytes.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.model.release(self.node, self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccio_sim::topology::test_cluster;
    use mccio_sim::units::{GIB, MIB};

    #[test]
    fn pristine_node_has_capacity_minus_reserves() {
        let cluster = test_cluster(2, 2); // 256 MiB nodes
        let m = MemoryModel::pristine(&cluster);
        let avail = m.available(0);
        // capacity − 5 % OS share ≈ 243 MiB.
        assert!(avail > 240 * MIB && avail < 248 * MIB, "{avail}");
    }

    #[test]
    fn reserve_reduces_availability_and_drop_restores_it() {
        let cluster = test_cluster(1, 2);
        let m = MemoryModel::pristine(&cluster);
        let before = m.available(0);
        {
            let _r = m.reserve(0, 64 * MIB);
            assert_eq!(m.available(0), before - 64 * MIB);
            assert_eq!(m.reserved(0), 64 * MIB);
        }
        assert_eq!(m.available(0), before);
        assert_eq!(m.reserved(0), 0);
        assert_eq!(m.peak_reserved(0), 64 * MIB);
    }

    #[test]
    fn fitting_reservation_has_no_pressure() {
        let cluster = test_cluster(1, 2);
        let m = MemoryModel::pristine(&cluster);
        let _r = m.reserve(0, 32 * MIB);
        assert_eq!(m.pressure_factor(0), 1.0);
    }

    #[test]
    fn oversubscription_thrashes_proportionally() {
        let cluster = test_cluster(1, 2); // 256 MiB capacity
                                          // Application already uses 200 MiB.
        let m = MemoryModel::build(&cluster, |_, _| 200 * MIB, MemParams::default());
        // Reserve 112 MiB: 56 MiB overflow = half the buffer pages.
        let _r = m.reserve(0, 112 * MIB);
        let f = m.pressure_factor(0);
        let expected = 1.0 + 0.5 * 49.0;
        assert!(
            (f - expected).abs() < 0.01,
            "factor {f}, expected {expected}"
        );
    }

    #[test]
    fn pressure_caps_at_full_swap_speed() {
        let cluster = test_cluster(1, 2);
        let m = MemoryModel::build(&cluster, |_, cap| cap, MemParams::default());
        let _r = m.reserve(0, GIB);
        assert!((m.pressure_factor(0) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn no_reservation_means_no_pressure_even_when_full() {
        let cluster = test_cluster(1, 2);
        let m = MemoryModel::build(&cluster, |_, cap| cap, MemParams::default());
        assert_eq!(m.pressure_factor(0), 1.0);
        assert_eq!(m.available(0), 0);
    }

    #[test]
    fn variance_sampling_is_deterministic_and_roughly_normal() {
        let cluster = test_cluster(256, 2);
        let a = MemoryModel::with_available_variance(&cluster, 128 * MIB, 32 * MIB, 7);
        let b = MemoryModel::with_available_variance(&cluster, 128 * MIB, 32 * MIB, 7);
        for node in 0..256 {
            assert_eq!(a.available(node), b.available(node));
        }
        let stats = a.availability_statistics();
        assert!(
            (stats.mean() - 128.0 * MIB as f64).abs() < 8.0 * MIB as f64,
            "mean {}",
            stats.mean() / MIB as f64
        );
        assert!(
            (stats.stddev() - 32.0 * MIB as f64).abs() < 8.0 * MIB as f64,
            "stddev {}",
            stats.stddev() / MIB as f64
        );
        let c = MemoryModel::with_available_variance(&cluster, 128 * MIB, 32 * MIB, 8);
        assert_ne!(
            c.available(0),
            a.available(0),
            "different seed, different draw"
        );
    }

    #[test]
    fn peak_statistics_only_count_aggregating_nodes() {
        let cluster = test_cluster(4, 2);
        let m = MemoryModel::pristine(&cluster);
        let _a = m.reserve(1, 10 * MIB);
        let _b = m.reserve(2, 30 * MIB);
        let stats = m.peak_statistics();
        assert_eq!(stats.count(), 2);
        assert!((stats.mean() - 20.0 * MIB as f64).abs() < 1.0);
    }

    #[test]
    fn concurrent_reservations_balance() {
        let cluster = test_cluster(1, 8);
        let m = MemoryModel::pristine(&cluster);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        let r = m.reserve(0, MIB);
                        drop(r);
                    }
                });
            }
        });
        assert_eq!(m.reserved(0), 0);
        assert!(m.peak_reserved(0) >= MIB);
    }

    #[test]
    fn ceiling_tracks_app_usage_not_reservations() {
        let cluster = test_cluster(1, 2); // 256 MiB capacity
        let m = MemoryModel::build(&cluster, |_, _| 100 * MIB, MemParams::default());
        assert_eq!(m.ceiling(0), m.capacity(0) - 100 * MIB);
        // Reservations consume availability but not the ceiling.
        let _r = m.reserve(0, 50 * MIB);
        assert_eq!(m.ceiling(0), m.capacity(0) - 100 * MIB);
        // Revocation lowers the ceiling; restoration raises it back.
        m.revoke(0, 20 * MIB);
        assert_eq!(m.ceiling(0), m.capacity(0) - 120 * MIB);
        m.restore(0, 20 * MIB);
        assert_eq!(m.ceiling(0), m.capacity(0) - 100 * MIB);
    }

    #[test]
    fn app_usage_updates_shift_availability() {
        let cluster = test_cluster(2, 2);
        let m = MemoryModel::pristine(&cluster);
        let before = m.available(0);
        m.set_app_used(0, 200 * MIB);
        assert_eq!(m.app_used(0), 200 * MIB);
        assert!(m.available(0) < before);
        assert_eq!(m.available(0), m.capacity(0) - 200 * MIB);
        // Pressure follows the new usage.
        let _r = m.reserve(0, 100 * MIB);
        assert!(m.pressure_factor(0) > 1.0, "200 + 100 > 256 MiB capacity");
    }

    #[test]
    fn try_reserve_refuses_instead_of_paging() {
        let cluster = test_cluster(1, 2); // 256 MiB
        let m = MemoryModel::build(&cluster, |_, _| 200 * MIB, MemParams::default());
        let ok = m.try_reserve(0, 40 * MIB).expect("40 MiB fits in 56 free");
        assert!(
            m.try_reserve(0, 40 * MIB).is_none(),
            "second 40 MiB does not"
        );
        assert_eq!(m.reserved(0), 40 * MIB);
        drop(ok);
        assert_eq!(m.reserved(0), 0);
    }

    #[test]
    fn revocation_shrinks_availability_and_restore_returns_it() {
        let cluster = test_cluster(1, 2);
        let m = MemoryModel::build(&cluster, |_, _| 100 * MIB, MemParams::default());
        let before = m.available(0);
        assert_eq!(m.revoke(0, 50 * MIB), 50 * MIB);
        assert_eq!(m.available(0), before - 50 * MIB);
        assert_eq!(m.app_used(0), 150 * MIB);
        m.restore(0, 50 * MIB);
        assert_eq!(m.available(0), before);
        // Revoking more than remains clamps at capacity.
        let huge = m.revoke(0, 1 << 40);
        assert_eq!(m.app_used(0), m.capacity(0));
        assert_eq!(huge, m.capacity(0) - 100 * MIB);
    }

    #[test]
    fn revocation_can_defeat_try_reserve_mid_run() {
        let cluster = test_cluster(1, 2);
        let m = MemoryModel::build(&cluster, |_, _| 100 * MIB, MemParams::default());
        assert!(m.try_reserve(0, 100 * MIB).is_some());
        m.revoke(0, 100 * MIB);
        assert!(
            m.try_reserve(0, 100 * MIB).is_none(),
            "the revocation consumed what the reservation needed"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn app_usage_beyond_capacity_rejected() {
        let cluster = test_cluster(1, 1);
        let m = MemoryModel::pristine(&cluster);
        m.set_app_used(0, 1 << 40);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn double_release_is_a_bug() {
        let cluster = test_cluster(1, 2);
        let m = MemoryModel::pristine(&cluster);
        let r = m.reserve(0, MIB);
        m.release(0, MIB);
        drop(r); // panics: releases more than reserved
    }
}
