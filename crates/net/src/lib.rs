//! # mccio-net — SPMD rank engine with virtual-time message passing
//!
//! MPI bindings for Rust are immature and the reproduction needs no real
//! cluster: collective I/O is a data-movement algorithm whose correctness
//! and traffic pattern are fully exercised in-process. This crate runs
//! one closure per rank ([`World::run`]) under either of two executors
//! ([`ExecutorKind`]) — one OS thread per rank, or a discrete-event
//! cooperative scheduler that scales to 100k ranks on a single thread —
//! gives each rank a [`Ctx`] with point-to-point messaging and MPI-style
//! collectives over arbitrary [`RankSet`]s, and keeps a *virtual* clock
//! per rank:
//!
//! * every message ([`Ctx::send_ctl`], and every collective built on it)
//!   moves its receiver's clock by one rule, `max(clock, depart)`: a
//!   receiver can never observe a message "before" it was sent, but no
//!   message charges transfer time of its own, because collective-I/O
//!   drivers price whole shuffle rounds analytically with
//!   [`mccio_sim::CostModel::shuffle_phase`] — that keeps virtual time
//!   deterministic regardless of thread scheduling;
//! * the [`engine::Traffic`] counters record every message, and the
//!   declared wire bytes of the data-plane exchange ([`Ctx::exchange`]),
//!   so experiments can report shuffle volumes and per-node NIC
//!   pressure. The data itself moves through the per-rank exposure
//!   table ([`expose`]): aggregators copy straight out of clients'
//!   requests and into readers' outputs, once per byte.
//!
//! Message matching follows MPI semantics for named sources: receives
//! match on `(source, tag)` with non-overtaking order per pair. Nothing
//! in the simulator receives from an unnamed source, so there is no
//! `ANY_SOURCE`.

#![warn(missing_docs)]

pub mod collective;
pub mod engine;
mod executor;
pub mod expose;
pub mod group;
pub mod mailbox;
pub mod recycle;
pub mod wire;

pub use collective::INTERNAL_TAG_BASE;
pub use engine::{Ctx, ExecutorKind, Traffic, TrafficSnapshot, World};
pub use executor::{slab_stats, SlabStats};
pub use expose::{Exposed, ExposureTable};
pub use group::RankSet;
pub use recycle::{BytePool, RecycleStats};
