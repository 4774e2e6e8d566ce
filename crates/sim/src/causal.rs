//! The causal-tracing hook: the interface through which the network
//! layer reports message-level happens-before edges to an observer.
//!
//! The network engine (`mccio-net`) cannot depend on the observability
//! crate (`mccio-obs`) — both sit directly above this crate — so the
//! hook trait lives here. `obs::causal` implements it; the engine's
//! `World` holds at most one installed sink and consults it at every
//! send and at every receive settlement.
//!
//! Contract, in causality order:
//!
//! 1. [`CausalSink::on_send`] fires in the *sender's* context, before
//!    the envelope is delivered. It returns a **per-sender** sequence
//!    number (≥ 1) the engine stamps into the envelope; `(src, seq)` is
//!    the edge's identity. Sequence numbers are per-sender — a global
//!    counter would be allocated in wall-clock order under the threaded
//!    executor and break cross-executor determinism.
//! 2. [`CausalSink::on_delivery`] fires in the *receiver's* context
//!    when the matching receive settles the envelope, with the
//!    receiver's clock before and after the settlement rule
//!    (`clock = max(clock, departure)`). `after > before` means the
//!    message *bound* the receiver's clock — a true happens-before
//!    edge on the critical path; `after == before` means the message
//!    arrived early and contributed only slack.
//!
//! Neither call may advance any virtual clock: causal tracing is a
//! pure side-channel, and the engine's priced times are bit-identical
//! with tracing on or off.

use crate::time::VTime;

/// An observer of message-level causality; see the module docs for the
/// call contract. Implementations must be cheap and lock-light: both
/// hooks sit on the engine's per-message hot path.
pub trait CausalSink: Send + Sync + std::fmt::Debug {
    /// A message is departing `src` for `dst` at the sender's current
    /// clock. Returns the per-sender sequence number (≥ 1) identifying
    /// this message; the engine stamps it into the envelope so the
    /// delivery can be matched back to this send.
    fn on_send(&self, src: usize, dst: usize, clock: VTime, bytes: u64) -> u64;

    /// The message `(src, seq)` settled at `dst`, moving the receiver's
    /// clock from `before` to `after` (equal when the message arrived
    /// early and did not bind the clock).
    fn on_delivery(&self, src: usize, seq: u64, dst: usize, before: VTime, after: VTime);
}
