//! Host-wall profiler: scoped timers around the *simulator's own* hot
//! phases.
//!
//! Virtual-time tracing (the `obs` crate) explains where the modeled
//! system spends its seconds; it is blind to where the *simulator*
//! spends its host seconds. PR 8 showed that at 100k ranks the gating
//! costs are host-side — context switches, schedule construction,
//! extent codec work, allocator traffic — so this module prices exactly
//! those phases with process-global monotonic counters.
//!
//! Design constraints, in order:
//!
//! 1. **Free when off.** Every instrumentation site costs one relaxed
//!    atomic load and a branch while the profiler is disabled, so an
//!    untraced run pays nothing for it (`perfbench/` measures the
//!    traced/untraced gap). No `Instant::now()` is ever taken while off.
//! 2. **Observability, not identity.** Host wall times are
//!    nondeterministic by nature. Like the recycler's hit/miss
//!    counters, profiles are reported and thresholded, never compared
//!    bit-for-bit, and nothing in the simulation consults them.
//! 3. **No allocation on the timed path.** Counters are fixed static
//!    atomic arrays indexed by [`HostPhase`]; a [`HostTimer`] guard is
//!    two `Instant` reads and one `fetch_add`.
//!
//! The phase set mirrors the simulator's hot loop: executor scheduling
//! (runnable-heap pops, slot transitions, context-switch bookkeeping),
//! plan and communication-schedule construction, extent codec
//! encode/decode, recycler take/return, and the storage hop that
//! drives PFS requests. [`snapshot`] returns a [`HostProfile`] the
//! trace report renders as a virtual-vs-host section.
//!
//! This crate otherwise performs no I/O and spawns no threads; reading
//! the host monotonic clock keeps that contract (it is observability of
//! the process itself, not simulated state).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// A simulator host phase priced by the profiler. The discriminant
/// indexes the static counter arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HostPhase {
    /// Event-executor scheduling: runnable-heap pop, quiescence /
    /// deadline resolution, and slot bookkeeping between context
    /// switches (the switch itself is included; the *task's* run time
    /// is not).
    ExecSchedule = 0,
    /// Collective plan construction (the cached `plan_cached` miss
    /// path).
    PlanBuild = 1,
    /// Per-rank communication-schedule build (`CommSchedule`).
    ScheduleBuild = 2,
    /// Extent-list compact encoding.
    ExtentEncode = 3,
    /// Extent-list compact decoding.
    ExtentDecode = 4,
    /// World byte-recycler `take` (hit lookup or fresh allocation).
    RecycleTake = 5,
    /// World byte-recycler `put` (retirement binning).
    RecycleReturn = 6,
    /// Storage hop: driving queued PFS requests to completion.
    StorageHop = 7,
    /// Causal-trace fold: registering an in-flight message edge or
    /// folding a delivery into the per-rank happens-before frontier
    /// (`obs::causal`). Zero calls when causal tracing is off.
    CausalFold = 8,
}

/// Number of profiled phases (length of [`HostPhase::ALL`]).
pub const N_PHASES: usize = 9;

impl HostPhase {
    /// Every phase, in counter-array order.
    pub const ALL: [HostPhase; N_PHASES] = [
        HostPhase::ExecSchedule,
        HostPhase::PlanBuild,
        HostPhase::ScheduleBuild,
        HostPhase::ExtentEncode,
        HostPhase::ExtentDecode,
        HostPhase::RecycleTake,
        HostPhase::RecycleReturn,
        HostPhase::StorageHop,
        HostPhase::CausalFold,
    ];

    /// Stable short name used in reports and JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            HostPhase::ExecSchedule => "exec.schedule",
            HostPhase::PlanBuild => "plan.build",
            HostPhase::ScheduleBuild => "schedule.build",
            HostPhase::ExtentEncode => "extent.encode",
            HostPhase::ExtentDecode => "extent.decode",
            HostPhase::RecycleTake => "recycle.take",
            HostPhase::RecycleReturn => "recycle.return",
            HostPhase::StorageHop => "storage.hop",
            HostPhase::CausalFold => "causal.fold",
        }
    }
}

/// Global enable flag; see [`set_enabled`].
static ENABLED: AtomicBool = AtomicBool::new(false);

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
/// Cumulative host nanoseconds per phase.
static NANOS: [AtomicU64; N_PHASES] = [ZERO; N_PHASES];
/// Cumulative timed sections per phase.
static CALLS: [AtomicU64; N_PHASES] = [ZERO; N_PHASES];

/// Turns the profiler on or off process-wide. Off is the default and
/// costs one relaxed load per instrumentation site.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the profiler is currently recording.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes every phase counter (the enable flag is left alone).
pub fn reset() {
    for i in 0..N_PHASES {
        NANOS[i].store(0, Ordering::Relaxed);
        CALLS[i].store(0, Ordering::Relaxed);
    }
}

/// A scoped timer: charges the elapsed host time to `phase` on drop.
/// Obtain one through [`timer`]; `None` while the profiler is off.
#[derive(Debug)]
pub struct HostTimer {
    phase: usize,
    start: Instant,
}

/// Starts a scoped timer for `phase`, or returns `None` (without
/// reading the clock) while the profiler is disabled.
#[inline]
#[must_use]
pub fn timer(phase: HostPhase) -> Option<HostTimer> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    Some(HostTimer {
        phase: phase as usize,
        start: Instant::now(),
    })
}

impl Drop for HostTimer {
    fn drop(&mut self) {
        let dt = self.start.elapsed().as_nanos() as u64;
        NANOS[self.phase].fetch_add(dt, Ordering::Relaxed);
        CALLS[self.phase].fetch_add(1, Ordering::Relaxed);
    }
}

/// One phase's cumulative host cost in a [`HostProfile`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostPhaseStat {
    /// Stable phase name ([`HostPhase::name`]).
    pub name: &'static str,
    /// Timed sections entered.
    pub calls: u64,
    /// Cumulative host nanoseconds.
    pub nanos: u64,
}

impl HostPhaseStat {
    /// Cumulative host seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        self.nanos as f64 / 1e9
    }
}

/// A point-in-time copy of every phase counter, plus optional run
/// context filled in by the caller (total host wall and total virtual
/// time of the run being profiled).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HostProfile {
    /// Per-phase cumulative cost, in [`HostPhase::ALL`] order.
    pub phases: Vec<HostPhaseStat>,
    /// Host wall seconds of the whole profiled run (0 when unknown).
    pub wall_secs: f64,
    /// Virtual seconds the profiled run simulated (0 when unknown).
    pub virtual_secs: f64,
}

impl HostProfile {
    /// Sum of profiled host seconds across phases. Phases can nest
    /// (e.g. a recycler take inside a storage hop), so this may
    /// exceed exclusive time; it is an attribution, not a partition.
    #[must_use]
    pub fn profiled_secs(&self) -> f64 {
        self.phases.iter().map(HostPhaseStat::secs).sum()
    }

    /// True when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.phases.iter().all(|p| p.calls == 0)
    }
}

/// Snapshots the current per-phase counters.
#[must_use]
pub fn snapshot() -> HostProfile {
    HostProfile {
        phases: HostPhase::ALL
            .iter()
            .map(|&p| HostPhaseStat {
                name: p.name(),
                calls: CALLS[p as usize].load(Ordering::Relaxed),
                nanos: NANOS[p as usize].load(Ordering::Relaxed),
            })
            .collect(),
        wall_secs: 0.0,
        virtual_secs: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The profiler is process-global state; serialize the tests that
    /// toggle it so the parallel test harness cannot interleave them.
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_profiler_records_nothing() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(false);
        reset();
        assert!(timer(HostPhase::PlanBuild).is_none());
        assert!(snapshot().is_empty());
    }

    #[test]
    fn enabled_profiler_accumulates_calls_and_time() {
        let _g = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        reset();
        for _ in 0..3 {
            let t = timer(HostPhase::ExtentEncode);
            std::hint::black_box(17u64.wrapping_mul(31));
            drop(t);
        }
        let prof = snapshot();
        set_enabled(false);
        let enc = prof
            .phases
            .iter()
            .find(|p| p.name == "extent.encode")
            .expect("phase present");
        assert_eq!(enc.calls, 3);
        assert!(!prof.is_empty());
        assert_eq!(prof.phases.len(), N_PHASES);
        reset();
        assert!(snapshot().is_empty());
    }
}
