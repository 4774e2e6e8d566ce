//! Per-rank message matching.
//!
//! Each rank owns a [`Mailbox`]: an indexed store of delivered envelopes
//! plus a condition variable (used only by the threaded executor; the
//! event executor parks tasks instead). `recv` blocks until an envelope
//! matching `(src, tag)` is present, then removes and returns the
//! *earliest delivered* match, giving MPI's non-overtaking guarantee for
//! messages with the same source and tag.
//!
//! Matching is O(log n) in queued messages rather than a linear scan:
//! flat collectives funnel `n - 1` messages through the root's mailbox,
//! so at 10k+ ranks a scan per receive turns every barrier into an
//! O(n²) hot spot. Exact `(src, tag)` receives hit a per-pair FIFO
//! directly; `ANY_SOURCE` receives consult a per-tag index ordered by
//! delivery sequence. Empty per-pair queues are dropped eagerly, so a
//! mailbox that drained returns its memory instead of holding
//! high-water-mark capacity for the rest of the run.

use std::collections::{BTreeSet, HashMap, VecDeque};
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

/// Matching criteria for a receive.
#[derive(Debug, Clone, Copy)]
pub struct Pattern {
    /// Required source rank, or `None` for MPI_ANY_SOURCE semantics.
    pub src: Option<usize>,
    /// Required tag.
    pub tag: u32,
}

#[derive(Debug, Default)]
struct Queue {
    /// Per-(src, tag) FIFO of `(delivery seq, envelope)`.
    by_pair: HashMap<(usize, u32), VecDeque<(u64, Envelope)>>,
    /// Per-tag index of queued messages as `(delivery seq, src)`,
    /// ordered so ANY_SOURCE takes the earliest delivered match.
    by_tag: HashMap<u32, BTreeSet<(u64, usize)>>,
    /// Total queued envelopes.
    len: usize,
    /// Next delivery sequence number.
    next_seq: u64,
}

impl Queue {
    fn push(&mut self, env: Envelope) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.by_tag
            .entry(env.tag)
            .or_default()
            .insert((seq, env.src));
        self.by_pair
            .entry((env.src, env.tag))
            .or_default()
            .push_back((seq, env));
        self.len += 1;
    }

    /// The earliest-delivered queued match, if any, as `(src, tag)`.
    fn find(&self, pattern: Pattern) -> Option<(usize, u32)> {
        match pattern.src {
            Some(src) => self
                .by_pair
                .contains_key(&(src, pattern.tag))
                .then_some((src, pattern.tag)),
            None => self
                .by_tag
                .get(&pattern.tag)
                .and_then(|set| set.iter().next())
                .map(|&(_, src)| (src, pattern.tag)),
        }
    }

    /// Removes the FIFO head for `key`; `key` must come from `find`.
    fn pop(&mut self, key: (usize, u32)) -> Envelope {
        let std::collections::hash_map::Entry::Occupied(mut entry) = self.by_pair.entry(key) else {
            unreachable!("pop without find");
        };
        let (seq, env) = entry.get_mut().pop_front().expect("find returned the key");
        if entry.get().is_empty() {
            entry.remove();
        }
        let tag_set = self.by_tag.get_mut(&key.1).expect("index in sync");
        tag_set.remove(&(seq, key.0));
        if tag_set.is_empty() {
            self.by_tag.remove(&key.1);
        }
        self.len -= 1;
        env
    }

    fn take(&mut self, pattern: Pattern) -> Option<Envelope> {
        self.find(pattern).map(|key| self.pop(key))
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
        // Wake all blocked receivers: with one owner thread per mailbox
        // there is at most one waiter, but collectives on helper threads
        // must not deadlock if that ever changes.
        self.available.notify_all();
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
            self.available.wait(&mut q);
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
            let _ = self.available.wait_timeout(&mut q, remaining);
        }
    }

    /// Non-blocking probe: removes and returns a match if one is queued.
    pub fn try_recv(&self, pattern: Pattern) -> Option<Envelope> {
        self.queue.lock().take(pattern)
    }

    /// True when a matching message is queued (does not remove it).
    /// The event scheduler's wakeup predicate.
    #[must_use]
    pub fn has_match(&self, pattern: Pattern) -> bool {
        self.queue.lock().find(pattern).is_some()
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

    #[test]
    fn matches_by_src_and_tag() {
        let mb = Mailbox::new();
        mb.deliver(env(1, 10, b'a'));
        mb.deliver(env(2, 10, b'b'));
        mb.deliver(env(1, 20, b'c'));
        let got = mb.recv(Pattern {
            src: Some(2),
            tag: 10,
        });
        assert_eq!(got.payload.as_slice(), b"b");
        let got = mb.recv(Pattern {
            src: Some(1),
            tag: 20,
        });
        assert_eq!(got.payload.as_slice(), b"c");
        assert_eq!(mb.pending(), 1);
    }

    #[test]
    fn any_source_takes_earliest_delivered() {
        let mb = Mailbox::new();
        mb.deliver(env(3, 7, b'x'));
        mb.deliver(env(1, 7, b'y'));
        let got = mb.recv(Pattern { src: None, tag: 7 });
        assert_eq!(got.src, 3, "earliest delivery wins under ANY_SOURCE");
    }

    #[test]
    fn same_src_tag_is_fifo() {
        let mb = Mailbox::new();
        for b in [b'1', b'2', b'3'] {
            mb.deliver(env(0, 5, b));
        }
        for expect in [b'1', b'2', b'3'] {
            let got = mb.recv(Pattern {
                src: Some(0),
                tag: 5,
            });
            assert_eq!(got.payload.into_vec(), vec![expect]);
        }
    }

    #[test]
    fn try_recv_does_not_block() {
        let mb = Mailbox::new();
        assert!(mb.try_recv(Pattern { src: None, tag: 1 }).is_none());
        mb.deliver(env(0, 1, b'z'));
        assert!(mb.try_recv(Pattern { src: None, tag: 1 }).is_some());
        assert!(mb.try_recv(Pattern { src: None, tag: 1 }).is_none());
    }

    #[test]
    fn has_match_probes_without_removing() {
        let mb = Mailbox::new();
        let pat = Pattern {
            src: Some(4),
            tag: 2,
        };
        assert!(!mb.has_match(pat));
        mb.deliver(env(4, 2, b'q'));
        assert!(mb.has_match(pat));
        assert!(!mb.has_match(Pattern {
            src: Some(5),
            tag: 2
        }));
        assert!(mb.has_match(Pattern { src: None, tag: 2 }));
        assert_eq!(mb.pending(), 1, "has_match must not consume");
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
            let got = mb.recv(Pattern {
                src: Some(src),
                tag: 6,
            });
            assert_eq!(got.payload.into_vec(), b"plan");
        }
        assert_eq!(Arc::strong_count(&shared), 1);
    }

    #[test]
    fn interleaved_tags_and_sources_stay_in_sync() {
        let mb = Mailbox::new();
        mb.deliver(env(0, 1, b'a'));
        mb.deliver(env(1, 1, b'b'));
        mb.deliver(env(0, 1, b'c'));
        // ANY_SOURCE drains in delivery order across sources.
        let order: Vec<u8> = (0..3)
            .map(|_| mb.recv(Pattern { src: None, tag: 1 }).payload.into_vec()[0])
            .collect();
        assert_eq!(order, b"abc");
        assert_eq!(mb.pending(), 0);
    }

    #[test]
    fn recv_budgeted_expires_and_delivers() {
        let mb = Mailbox::new();
        let got = mb.recv_budgeted(
            Pattern { src: None, tag: 4 },
            std::time::Duration::from_millis(5),
        );
        assert!(got.is_none(), "empty mailbox: budget expires");
        mb.deliver(env(2, 4, b'k'));
        let got = mb.recv_budgeted(
            Pattern { src: None, tag: 4 },
            std::time::Duration::from_secs(5),
        );
        assert_eq!(got.unwrap().payload.into_vec(), b"k");
        assert_eq!(mb.pending(), 0);
    }

    #[test]
    fn recv_blocks_until_delivery() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let handle = std::thread::spawn(move || {
            let got = mb2.recv(Pattern {
                src: Some(9),
                tag: 42,
            });
            got.payload.into_vec()[0]
        });
        // Deliver a non-matching message first, then the match.
        std::thread::sleep(std::time::Duration::from_millis(10));
        mb.deliver(env(8, 42, b'n'));
        mb.deliver(env(9, 42, b'm'));
        assert_eq!(handle.join().unwrap(), b'm');
        assert_eq!(mb.pending(), 1);
    }
}
