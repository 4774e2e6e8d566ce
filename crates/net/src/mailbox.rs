//! Per-rank message matching.
//!
//! Each rank owns a [`Mailbox`]: an indexed store of delivered envelopes
//! plus a condition variable (used only by the threaded executor; the
//! event executor parks tasks instead). `recv` blocks until an envelope
//! matching `(src, tag)` is present, then removes and returns the
//! *earliest delivered* match, giving MPI's non-overtaking guarantee for
//! messages with the same source and tag. Every receive names its
//! source; there is no `ANY_SOURCE`.
//!
//! Matching is one hash lookup rather than a linear scan: flat
//! collectives funnel `n - 1` messages through the root's mailbox, so at
//! 10k+ ranks a scan per receive turns every barrier into an O(n²) hot
//! spot. The one index maps `(src, tag)` to a FIFO under a small
//! in-tree hasher (the keys are the simulator's own, so SipHash's
//! flooding resistance buys nothing). A FIFO keeps its first envelope
//! inline and spills to a `VecDeque` only while a second same-key
//! message is queued; an emptied FIFO leaves the map. Once the map has
//! grown to its high-water mark, a steady-state send and receive
//! allocates nothing.
//!
//! `deliver` calls `notify_all` only when a thread is parked in `recv`:
//! std's futex condvar makes a syscall on every notify, waiter or not.
//! The parked count is read and written under the mailbox lock, so a
//! receiver that found no match is counted before it releases the lock
//! to wait, and no delivery can slip between its probe and its park.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use mccio_sim::sync::{Condvar, Mutex};

use mccio_sim::VTime;

/// Message payload bytes. Point-to-point sends own their buffer;
/// broadcast-style fan-outs share one allocation between all receivers
/// so a megabyte plan broadcast to 100k ranks queues one buffer, not
/// 100k copies.
#[derive(Debug, Clone)]
pub enum Payload {
    /// Exclusively owned bytes (moved, never copied after send).
    Owned(Vec<u8>),
    /// One buffer shared by many in-flight envelopes.
    Shared(Arc<[u8]>),
}

impl Payload {
    /// Number of payload bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Payload::Owned(v) => v.len(),
            Payload::Shared(s) => s.len(),
        }
    }

    /// True when the payload is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The payload bytes.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Payload::Owned(v) => v,
            Payload::Shared(s) => s,
        }
    }

    /// Extracts owned bytes: free for owned payloads, one copy for
    /// shared ones (the receive-side half of the broadcast bargain).
    #[must_use]
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            Payload::Owned(v) => v,
            Payload::Shared(s) => s.to_vec(),
        }
    }

    /// Extracts the bytes as a shared buffer: free for shared payloads
    /// (the receiver aliases the sender's allocation — at a broadcast
    /// every receiver holds the *same* `Arc`, which downstream caches
    /// exploit as an identity key), one move for owned ones.
    #[must_use]
    pub fn into_shared(self) -> Arc<[u8]> {
        match self {
            Payload::Owned(v) => v.into(),
            Payload::Shared(s) => s,
        }
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Payload {
        Payload::Owned(v)
    }
}

/// A message in flight or queued at the receiver.
#[derive(Debug)]
pub struct Envelope {
    /// Sending rank.
    pub src: usize,
    /// Match tag.
    pub tag: u32,
    /// Payload bytes.
    pub payload: Payload,
    /// Virtual time at which the message left the sender.
    pub depart: VTime,
    /// Per-sender causal sequence number stamped by the world's
    /// installed [`mccio_sim::causal::CausalSink`], or 0 when causal
    /// tracing is off. `(src, causal)` identifies the happens-before
    /// edge this delivery closes.
    pub causal: u64,
}

/// Matching criteria for a receive: one source rank and one tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pattern {
    /// Required source rank.
    pub src: usize,
    /// Required tag.
    pub tag: u32,
}

impl Pattern {
    /// The index key: source in the high half, tag in the low half.
    fn key(self) -> u64 {
        ((self.src as u64) << 32) | u64::from(self.tag)
    }
}

/// Hasher for [`Pattern::key`]: one folded 64×64→128-bit multiply, so
/// the bucket bits and the table's control bits both depend on every
/// key bit. Deterministic, unlike `RandomState`, so a mailbox's table
/// grows the same way on every run.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        let wide = u128::from(self.0) * 0x9E37_79B9_7F4A_7C15;
        (wide as u64) ^ ((wide >> 64) as u64)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// The queued envelopes of one `(src, tag)` pair, oldest first.
#[derive(Debug)]
struct Fifo {
    head: Envelope,
    /// Later same-key envelopes; `VecDeque::new` allocates nothing
    /// until the first spill.
    rest: VecDeque<Envelope>,
}

#[derive(Debug, Default)]
struct Queue {
    fifos: HashMap<u64, Fifo, BuildHasherDefault<KeyHasher>>,
    /// Total queued envelopes.
    len: usize,
    /// Threads parked on the condvar in `recv`/`recv_budgeted`.
    parked: usize,
}

impl Queue {
    fn push(&mut self, env: Envelope) {
        let key = Pattern {
            src: env.src,
            tag: env.tag,
        }
        .key();
        match self.fifos.entry(key) {
            Entry::Occupied(mut fifo) => fifo.get_mut().rest.push_back(env),
            Entry::Vacant(slot) => {
                slot.insert(Fifo {
                    head: env,
                    rest: VecDeque::new(),
                });
            }
        }
        self.len += 1;
    }

    /// Removes and returns the earliest-delivered match, if any. Probes
    /// with `get_mut` rather than `entry`, which reserves room for an
    /// insert even on a miss.
    fn take(&mut self, pattern: Pattern) -> Option<Envelope> {
        let key = pattern.key();
        let fifo = self.fifos.get_mut(&key)?;
        let env = match fifo.rest.pop_front() {
            Some(next) => std::mem::replace(&mut fifo.head, next),
            None => self.fifos.remove(&key).expect("probed above").head,
        };
        self.len -= 1;
        Some(env)
    }
}

/// One rank's incoming-message store.
#[derive(Debug, Default)]
pub struct Mailbox {
    queue: Mutex<Queue>,
    available: Condvar,
}

impl Mailbox {
    /// Creates an empty mailbox.
    #[must_use]
    pub fn new() -> Self {
        Mailbox::default()
    }

    /// Delivers an envelope (called from the sender's thread or task).
    pub fn deliver(&self, env: Envelope) {
        let mut q = self.queue.lock();
        q.push(env);
        // Wake all parked receivers: with one owner thread per mailbox
        // there is at most one, but collectives on helper threads must
        // not deadlock if that ever changes.
        if q.parked > 0 {
            self.available.notify_all();
        }
    }

    /// Blocks until a message matching `pattern` arrives, then removes
    /// and returns it. Threaded executor only — event-mode tasks use
    /// `try_recv` plus a scheduler yield.
    pub fn recv(&self, pattern: Pattern) -> Envelope {
        let mut q = self.queue.lock();
        loop {
            if let Some(env) = q.take(pattern) {
                return env;
            }
            q.parked += 1;
            self.available.wait(&mut q);
            q.parked -= 1;
        }
    }

    /// Bounded receive: blocks until a message matching `pattern`
    /// arrives or `budget` of *wall-clock* time elapses, returning
    /// `None` on expiry. The budget is an implementation detail of the
    /// threaded executor's failure detection — it only bounds how long
    /// the OS thread parks; the virtual-time price of a miss is charged
    /// by the caller ([`crate::Ctx::recv_deadline`]) and never depends
    /// on the budget. The event executor detects misses at quiescence
    /// instead and never calls this.
    pub fn recv_budgeted(&self, pattern: Pattern, budget: std::time::Duration) -> Option<Envelope> {
        let deadline = std::time::Instant::now() + budget;
        let mut q = self.queue.lock();
        loop {
            if let Some(env) = q.take(pattern) {
                return Some(env);
            }
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return None;
            }
            // A timed-out wait loops once more: the predicate re-check
            // above decides, so a racing delivery is never missed.
            q.parked += 1;
            let _ = self.available.wait_timeout(&mut q, remaining);
            q.parked -= 1;
        }
    }

    /// Non-blocking probe: removes and returns a match if one is queued.
    pub fn try_recv(&self, pattern: Pattern) -> Option<Envelope> {
        self.queue.lock().take(pattern)
    }

    /// Number of queued (unmatched) messages; used by shutdown checks to
    /// assert no message was silently dropped.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.lock().len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: usize, tag: u32, byte: u8) -> Envelope {
        Envelope {
            src,
            tag,
            payload: vec![byte].into(),
            depart: VTime::ZERO,
            causal: 0,
        }
    }

    fn pat(src: usize, tag: u32) -> Pattern {
        Pattern { src, tag }
    }

    #[test]
    fn matches_by_src_and_tag() {
        let mb = Mailbox::new();
        mb.deliver(env(1, 10, b'a'));
        mb.deliver(env(2, 10, b'b'));
        mb.deliver(env(1, 20, b'c'));
        let got = mb.recv(pat(2, 10));
        assert_eq!(got.payload.as_slice(), b"b");
        let got = mb.recv(pat(1, 20));
        assert_eq!(got.payload.as_slice(), b"c");
        assert_eq!(mb.pending(), 1);
    }

    #[test]
    fn same_src_tag_is_fifo() {
        let mb = Mailbox::new();
        for b in [b'1', b'2', b'3'] {
            mb.deliver(env(0, 5, b));
        }
        for expect in [b'1', b'2', b'3'] {
            let got = mb.recv(pat(0, 5));
            assert_eq!(got.payload.into_vec(), vec![expect]);
        }
        assert_eq!(mb.pending(), 0);
    }

    #[test]
    fn spilled_fifo_refills_and_drains_in_order() {
        // Interleave pushes and pops on one key so the inline head is
        // replaced from the spill more than once, next to an unrelated
        // key that must not be disturbed.
        let mb = Mailbox::new();
        mb.deliver(env(0, 1, b'a'));
        mb.deliver(env(1, 1, b'x'));
        mb.deliver(env(0, 1, b'b'));
        assert_eq!(mb.recv(pat(0, 1)).payload.as_slice(), b"a");
        mb.deliver(env(0, 1, b'c'));
        assert_eq!(mb.recv(pat(0, 1)).payload.as_slice(), b"b");
        assert_eq!(mb.recv(pat(0, 1)).payload.as_slice(), b"c");
        assert!(mb.try_recv(pat(0, 1)).is_none());
        assert_eq!(mb.recv(pat(1, 1)).payload.as_slice(), b"x");
        assert_eq!(mb.pending(), 0);
    }

    #[test]
    fn keys_keep_source_and_tag_apart() {
        // Swapped source and tag values are different keys.
        let mb = Mailbox::new();
        mb.deliver(env(1, 0, b'p'));
        mb.deliver(env(0, 1, b'q'));
        assert_eq!(mb.recv(pat(0, 1)).payload.as_slice(), b"q");
        assert_eq!(mb.recv(pat(1, 0)).payload.as_slice(), b"p");
    }

    #[test]
    fn try_recv_does_not_block() {
        let mb = Mailbox::new();
        assert!(mb.try_recv(pat(0, 1)).is_none());
        mb.deliver(env(0, 1, b'z'));
        assert!(mb.try_recv(pat(1, 1)).is_none(), "wrong source");
        assert!(mb.try_recv(pat(0, 1)).is_some());
        assert!(mb.try_recv(pat(0, 1)).is_none());
    }

    #[test]
    fn shared_payloads_alias_one_buffer() {
        let mb = Mailbox::new();
        let shared: Arc<[u8]> = b"plan".as_slice().into();
        for src in 0..3 {
            mb.deliver(Envelope {
                src,
                tag: 6,
                payload: Payload::Shared(Arc::clone(&shared)),
                depart: VTime::ZERO,
                causal: 0,
            });
        }
        assert_eq!(Arc::strong_count(&shared), 4, "queued envelopes alias");
        for src in 0..3 {
            let got = mb.recv(pat(src, 6));
            assert_eq!(got.payload.into_vec(), b"plan");
        }
        assert_eq!(Arc::strong_count(&shared), 1);
    }

    #[test]
    fn recv_budgeted_expires_and_delivers() {
        let mb = Mailbox::new();
        let got = mb.recv_budgeted(pat(2, 4), std::time::Duration::from_millis(5));
        assert!(got.is_none(), "empty mailbox: budget expires");
        assert_eq!(mb.queue.lock().parked, 0, "an expired wait unparks");
        mb.deliver(env(2, 4, b'k'));
        let got = mb.recv_budgeted(pat(2, 4), std::time::Duration::from_secs(5));
        assert_eq!(got.unwrap().payload.into_vec(), b"k");
        assert_eq!(mb.pending(), 0);
    }

    #[test]
    fn recv_blocks_until_delivery() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let handle = std::thread::spawn(move || mb2.recv(pat(9, 42)).payload.into_vec()[0]);
        // Deliver a non-matching message first, then the match. The
        // receiver may or may not be parked yet; either way the parked
        // count gates the notify and the match must reach it.
        std::thread::sleep(std::time::Duration::from_millis(10));
        mb.deliver(env(8, 42, b'n'));
        mb.deliver(env(9, 42, b'm'));
        assert_eq!(handle.join().unwrap(), b'm');
        assert_eq!(mb.pending(), 1);
        assert_eq!(mb.queue.lock().parked, 0);
    }

    #[test]
    fn ping_pong_threads_never_miss_a_wakeup() {
        // Two threads bounce 2,000 messages: a delivery that skipped its
        // notify while the peer was parked would hang this test.
        let a = Arc::new(Mailbox::new());
        let b = Arc::new(Mailbox::new());
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let peer = std::thread::spawn(move || {
            for i in 0..2_000u32 {
                let got = b2.recv(pat(0, 3));
                a2.deliver(env(1, 3, got.payload.as_slice()[0] ^ (i as u8)));
            }
        });
        for i in 0..2_000u32 {
            b.deliver(env(0, 3, i as u8));
            assert_eq!(a.recv(pat(1, 3)).payload.as_slice(), [0]);
        }
        peer.join().unwrap();
        assert_eq!(a.pending() + b.pending(), 0);
    }
}
