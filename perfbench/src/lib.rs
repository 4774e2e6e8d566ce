//! Steady-state host-cost benchmark of the mccio workspace.
//!
//! One command, one workload per process, on the single-threaded event
//! executor. The untraced run times every steady-state collective write
//! and read barrier to barrier, times fresh set-ups, reads peak RSS and
//! the exact virtual bandwidth. The traced run turns the host profiler
//! and a streaming obs sink on from outside, interleaves traced and
//! untraced ops, and times calls into every layer crate with the
//! workload's real inputs. Every op's read-back and exact outputs are
//! checked in both runs. See `README.md` beside this crate for what
//! each metric should move.

#![warn(missing_docs)]

pub mod harness;
pub mod layers;
pub mod report;
pub mod run;
pub mod spec;
