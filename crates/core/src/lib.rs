//! # mccio-core — memory-conscious collective I/O
//!
//! The paper's contribution and its baseline, both runnable against the
//! simulated substrates (`mccio-net`, `mccio-pfs`, `mccio-mem`):
//!
//! * [`two_phase`] — ROMIO-style two-phase collective I/O: one
//!   aggregator per node, even file domains, a fixed collective buffer;
//! * [`mccio`] — the memory-conscious strategy, built from:
//!   [`groups`] (Aggregation Group Division), [`ptree`] (the binary
//!   partition tree of the I/O Workload Partition, with the Figure-5
//!   remerge cases), [`placement`] (memory-aware Aggregators Location
//!   with remerge fallback) and [`tuner`] (runtime derivation of `N_ah`,
//!   `Msg_ind`, `Mem_min`, `Msg_group`);
//! * [`engine`] — the lock-step round executor both strategies share, so
//!   measured differences come from planning decisions only;
//! * [`schedule`] — the plan-time communication schedule the engine
//!   executes: per-round send/receive lists, piece routings, and window
//!   assembly layouts, computed once per collective operation;
//! * [`resilience`] — fault application and the degradation ladder's
//!   per-rank machinery: under an active `mccio_sim::fault::FaultPlan`
//!   the collective entry points retry, re-plan, and finally degrade
//!   (memory-conscious → re-planned memory-conscious → two-phase →
//!   independent I/O) instead of failing;
//! * [`strategy`] — the [`strategy::Strategy`] trait (`plan`/`write`/
//!   `read`) and its implementations (`Independent`, sieved, two-phase,
//!   memory-conscious), the uniform dispatch surface for workloads,
//!   benches, and hint resolution.
//!
//! ## Quick example
//!
//! ```
//! use mccio_core::prelude::*;
//! use mccio_sim::cost::CostModel;
//! use mccio_sim::topology::{test_cluster, FillOrder, Placement};
//!
//! let cluster = test_cluster(2, 2);
//! let placement = Placement::new(&cluster, 4, FillOrder::Block).unwrap();
//! let world = World::new(CostModel::new(cluster.clone()), placement);
//! let env = IoEnv::new(
//!     FileSystem::new(4, 1 << 16, PfsParams::default()),
//!     MemoryModel::pristine(&cluster),
//! );
//! let strat = TwoPhase(TwoPhaseConfig::default());
//! let reports = world.run(|ctx| {
//!     let env = env.clone();
//!     let handle = env.fs.open_or_create("demo");
//!     let extents = ExtentList::normalize(vec![Extent::new(ctx.rank() as u64 * 1024, 1024)]);
//!     let data = vec![ctx.rank() as u8; 1024];
//!     strat.write(ctx, &env, &handle, &extents, &data)
//! });
//! assert!(reports.iter().all(|r| r.bytes == 1024));
//! ```

#![deny(missing_docs)]

pub mod engine;
pub mod groups;
pub mod hints;
pub mod mccio;
pub mod placement;
pub mod plan;
pub mod ptree;
pub mod resilience;
pub mod schedule;
pub mod strategy;
pub mod tuner;
pub mod two_phase;

pub use engine::IoEnv;
pub use hints::Hints;
pub use mccio::MccioConfig;
pub use resilience::FaultState;
pub use schedule::CommSchedule;
pub use strategy::{Independent, IndependentSieved, MemoryConscious, Strategy, TwoPhase};
pub use tuner::Tuning;
pub use two_phase::TwoPhaseConfig;

/// Everything a typical caller needs in scope.
pub mod prelude {
    pub use crate::engine::IoEnv;
    pub use crate::mccio::MccioConfig;
    pub use crate::strategy::{
        read_all, write_all, Independent, IndependentSieved, MemoryConscious, Strategy, TwoPhase,
    };
    pub use crate::tuner::Tuning;
    pub use crate::two_phase::TwoPhaseConfig;
    pub use mccio_mem::MemoryModel;
    pub use mccio_mpiio::{Datatype, Extent, ExtentList, IoReport};
    pub use mccio_net::{Ctx, RankSet, World};
    pub use mccio_pfs::{FileSystem, PfsParams};
    pub use mccio_sim::fault::{FaultPlan, RetryPolicy};
}
