//! The shared simulation environment a collective operation runs
//! against: file system, memory model, fault state.

use std::any::Any;
use std::fmt;
use std::sync::Arc;

use mccio_mem::MemoryModel;
use mccio_mpiio::GroupPattern;
use mccio_obs::ObsSink;
use mccio_pfs::FileSystem;
use mccio_sim::fault::FaultPlan;
use mccio_sim::sync::Mutex;

use crate::plan::CollectivePlan;
use crate::resilience::FaultState;

/// Entries the plan cache retains. Collective operations are planned in
/// lock-step, so at any instant the live set is one plan per in-flight
/// (strategy, pattern) — a handful even with re-plan ladder rungs.
const PLAN_CACHE_CAP: usize = 16;

/// One memoized collective plan.
///
/// The key is pure identity: *which* gathered pattern (by shared-`Arc`
/// pointer — every rank of a group holds the same decoded pattern, see
/// [`GroupPattern::gather`]), *which* strategy (its value, compared by
/// type first, so two strategy types never share a plan and two
/// configurations differing in any field never do either), and *which*
/// memory-model state (allocation-version fingerprint, so a re-plan
/// after a revocation never sees a stale plan). Holding a strong `Arc`
/// to the pattern keeps the pointer from being recycled while the entry
/// lives.
struct PlanEntry {
    pattern: Arc<GroupPattern>,
    strategy: Box<dyn Any + Send + Sync>,
    mem_fp: (usize, u64),
    plan: Arc<CollectivePlan>,
}

/// A small per-environment memo of collective plans.
///
/// Planning is a pure function of (pattern, placement, memory state,
/// config), and under SPMD every rank computes the identical plan — so
/// the environment computes it once and hands every rank the same
/// `Arc`. Clones of an [`IoEnv`] share the cache, which is exactly what
/// per-rank `env.clone()` closures want.
#[derive(Clone, Default)]
struct PlanCache {
    entries: Arc<Mutex<Vec<PlanEntry>>>,
}

impl fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlanCache")
            .field("entries", &self.entries.lock().len())
            .finish()
    }
}

/// Shared simulation environment a collective operation runs against.
///
/// Construct with [`IoEnv::new`] (healthy) or [`IoEnv::with_faults`]
/// (hostile). Without a fault plan every code path is bit-identical to
/// the engine before fault injection existed.
#[derive(Debug, Clone)]
pub struct IoEnv {
    /// The parallel file system.
    pub fs: FileSystem,
    /// The per-node memory model.
    pub mem: MemoryModel,
    faults: FaultState,
    obs: ObsSink,
    plans: PlanCache,
}

impl IoEnv {
    /// A healthy environment: no fault injection.
    #[must_use]
    pub fn new(fs: FileSystem, mem: MemoryModel) -> Self {
        IoEnv {
            fs,
            mem,
            faults: FaultState::none(),
            obs: ObsSink::disabled(),
            plans: PlanCache::default(),
        }
    }

    /// An environment executing `plan`'s faults: scheduled memory
    /// revocations, transient storage failures, degraded servers,
    /// straggler nodes, control-plane delay.
    #[must_use]
    pub fn with_faults(fs: FileSystem, mem: MemoryModel, plan: FaultPlan) -> Self {
        IoEnv {
            fs,
            mem,
            faults: FaultState::new(plan),
            obs: ObsSink::disabled(),
            plans: PlanCache::default(),
        }
    }

    /// The same environment, recording spans and metrics into `obs`.
    ///
    /// Tracing is a pure side-channel: every priced virtual time is
    /// bit-identical with tracing on or off. Each environment carries
    /// its own sink, so concurrent simulation worlds never interleave
    /// records (the cross-world caveat of the process-global recorder
    /// this crate used to carry).
    #[must_use]
    pub fn with_obs(mut self, obs: ObsSink) -> Self {
        self.obs = obs;
        self
    }

    /// The fault state this environment executes under.
    #[must_use]
    pub fn faults(&self) -> &FaultState {
        &self.faults
    }

    /// The observability sink this environment records into (the
    /// disabled, inert sink unless [`IoEnv::with_obs`] was used).
    #[must_use]
    pub fn obs(&self) -> &ObsSink {
        &self.obs
    }

    /// Returns the memoized collective plan for (`pattern`, `strategy`,
    /// current memory state), computing it with `compute` on the first
    /// call. `strategy` is the planning strategy's value: a hit needs the
    /// same type and an equal value, so the hit path neither formats nor
    /// allocates.
    ///
    /// SPMD redundancy elimination: every rank of a group plans the
    /// identical operation against identical inputs, so the first rank
    /// to arrive computes and the rest share the `Arc`. The lock is held
    /// across `compute` deliberately — concurrent ranks wait for one
    /// plan instead of racing to duplicate it. `compute` must therefore
    /// be pure (no communication, no clock movement — already the
    /// [`crate::strategy::Strategy::plan`] contract) and must not
    /// re-enter this cache.
    ///
    /// Keying on [`MemoryModel::state_fingerprint`] makes the memo safe
    /// for memory-conscious planning: any reservation, revocation, or
    /// restore bumps the fingerprint, so a re-plan ladder rung always
    /// recomputes against the post-revocation landscape.
    pub fn plan_cached<S: PartialEq + Clone + Send + Sync + 'static>(
        &self,
        pattern: &Arc<GroupPattern>,
        strategy: &S,
        compute: impl FnOnce() -> CollectivePlan,
    ) -> Arc<CollectivePlan> {
        let mem_fp = self.mem.state_fingerprint();
        let mut entries = self.plans.entries.lock();
        if let Some(e) = entries.iter().find(|e| {
            e.mem_fp == mem_fp
                && Arc::ptr_eq(&e.pattern, pattern)
                && e.strategy.downcast_ref::<S>() == Some(strategy)
        }) {
            return Arc::clone(&e.plan);
        }
        let plan = {
            let _t = mccio_sim::hostprof::timer(mccio_sim::hostprof::HostPhase::PlanBuild);
            Arc::new(compute())
        };
        if entries.len() == PLAN_CACHE_CAP {
            entries.remove(0);
        }
        entries.push(PlanEntry {
            pattern: Arc::clone(pattern),
            strategy: Box::new(strategy.clone()),
            mem_fp,
            plan: Arc::clone(&plan),
        });
        plan
    }
}
