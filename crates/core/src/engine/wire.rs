//! The round engine's message contents: the crash-gated integrity hash
//! shuffle messages carry, and the per-round fact records the root
//! prices.

use mccio_net::wire::{put_u64, Reader};
use mccio_pfs::{RetryLog, ServiceReport};
use mccio_sim::time::VDuration;

/// Bytes the end-to-end integrity hash adds to a shuffle message's
/// wire size (its whole body under a crash plan).
pub(crate) const CHECKSUM_TRAILER: usize = 8;

/// FNV-1a of no bytes: the start of every integrity hash.
pub(super) const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the running FNV-1a hash `h` — the end-to-end
/// integrity hash, streamed over a message's source ranges in schedule
/// order. Kept in-tree (like the test suites' copies) so the check
/// never depends on an external hasher's stability.
pub(super) fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The body of an integrity-carrying shuffle message: its hash.
pub(super) fn hash_body(h: u64) -> Vec<u8> {
    h.to_le_bytes().to_vec()
}

/// Checks the hash `got` the receiver computed over the bytes a message
/// from `src` stands for against the hash its `body` carries.
///
/// # Panics
/// Panics on mismatch: inside the simulator a mismatch can only mean an
/// engine bug (the two sides of a replayed round routing different
/// pieces), and that must never be silently priced as success.
pub(super) fn check_hash(body: &[u8], got: u64, src: usize) {
    let want = u64::from_le_bytes(
        body.try_into()
            .expect("integrity message body is one 8-byte hash"),
    );
    assert_eq!(
        got, want,
        "end-to-end checksum mismatch on the shuffle message from rank {src}"
    );
}

/// Round facts each rank contributes to the root's pricing:
/// `[n_flows]{dst, bytes}` (flows this rank *sends*), the rank's storage
/// report pairs, the bytes it assembled in aggregation buffers, the
/// retry activity it endured this round, and the message hashes it
/// verified (crash-gated, zero otherwise). The record rides `send_ctl`,
/// whose traffic accounting counts messages rather than bytes, so
/// growing it never disturbs crash-free goldens.
pub(super) fn encode_facts(
    flows: &[(usize, u64)],
    report: &ServiceReport,
    assembled: u64,
    retry: RetryLog,
    integrity: u64,
) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, flows.len() as u64);
    for &(dst, bytes) in flows {
        put_u64(&mut buf, dst as u64);
        put_u64(&mut buf, bytes);
    }
    let pairs = report.to_pairs();
    put_u64(&mut buf, pairs.len() as u64);
    for p in pairs {
        put_u64(&mut buf, p);
    }
    put_u64(&mut buf, assembled);
    put_u64(&mut buf, retry.backoff.as_secs().to_bits());
    put_u64(&mut buf, retry.transient_faults);
    put_u64(&mut buf, retry.retries);
    put_u64(&mut buf, retry.exhausted);
    put_u64(&mut buf, integrity);
    buf
}

pub(super) struct Facts {
    pub(super) flows: Vec<(usize, u64)>,
    pub(super) report: ServiceReport,
    pub(super) assembled: u64,
    pub(super) retry: RetryLog,
    pub(super) integrity: u64,
}

pub(super) fn decode_facts(buf: &[u8]) -> Facts {
    let mut r = Reader::new(buf);
    let n = r.u64() as usize;
    let flows = (0..n).map(|_| (r.u64() as usize, r.u64())).collect();
    let n_pairs = r.u64() as usize;
    let pairs: Vec<u64> = (0..n_pairs).map(|_| r.u64()).collect();
    let assembled = r.u64();
    let retry = RetryLog {
        backoff: VDuration::from_secs(f64::from_bits(r.u64())),
        transient_faults: r.u64(),
        retries: r.u64(),
        exhausted: r.u64(),
    };
    let integrity = r.u64();
    r.finish();
    Facts {
        flows,
        report: ServiceReport::from_pairs(&pairs),
        assembled,
        retry,
        integrity,
    }
}

/// What `now` accumulated beyond the `before` snapshot.
pub(super) fn retry_delta(now: RetryLog, before: RetryLog) -> RetryLog {
    RetryLog {
        transient_faults: now.transient_faults - before.transient_faults,
        retries: now.retries - before.retries,
        backoff: VDuration::from_secs((now.backoff.as_secs() - before.backoff.as_secs()).max(0.0)),
        exhausted: now.exhausted - before.exhausted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamed_hash_matches_the_whole_hash() {
        let whole = fnv1a(FNV_BASIS, &[1, 2, 3, 4, 5]);
        let streamed = fnv1a(fnv1a(FNV_BASIS, &[1, 2]), &[3, 4, 5]);
        assert_eq!(streamed, whole);
        check_hash(&hash_body(whole), streamed, 0);
    }

    #[test]
    #[should_panic(expected = "checksum mismatch on the shuffle message from rank 4")]
    fn corrupted_bytes_are_caught() {
        let sent = fnv1a(FNV_BASIS, &[9u8; 32]);
        let mut got = [9u8; 32];
        got[4] ^= 0xFF;
        check_hash(&hash_body(sent), fnv1a(FNV_BASIS, &got), 4);
    }

    #[test]
    fn facts_carry_the_integrity_count() {
        let buf = encode_facts(
            &[(3, 100)],
            &ServiceReport::empty(2),
            42,
            RetryLog::default(),
            7,
        );
        let facts = decode_facts(&buf);
        assert_eq!(facts.flows, vec![(3, 100)]);
        assert_eq!(facts.assembled, 42);
        assert_eq!(facts.integrity, 7);
    }
}
