//! A small free-list of assembly buffers reused across rounds and
//! domains.
//!
//! Windows with holes assemble their pieces into a buffer before the
//! sieve's read-modify-write, and sieved reads fetch into one before the
//! pieces are copied out; at MiB scale a fresh `vec![0u8; …]` per window
//! per round is an `mmap`/`munmap` pair plus page faults on first touch.
//! The pool keeps a bounded number of retired buffers and hands them
//! back out sized from the scheduled byte counts. Hole-free windows need
//! no buffer at all, and shuffle messages carry no bytes (the
//! aggregators copy through the exposure table), so assembly buffers are
//! the pool's only tenants.
//!
//! Buffer *contents* never leak between uses: [`BufferPool::loan`]
//! returns an empty (cleared) buffer and [`BufferPool::loan_filled`] a
//! zero-filled one, exactly matching what fresh allocation produced —
//! pooling is invisible to the file bytes and virtual time.
//!
//! ## Leak safety
//!
//! Buffers are handed out as [`PoolLoan`] RAII guards that return
//! themselves on drop, so an early `?`-return from a faulted storage
//! access can never strand a buffer outside the pool.
//! [`BufferPool::loans_outstanding`] counts live loans; the epilogue
//! asserts it is zero so any future leak fails loudly instead of
//! silently bloating allocation.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use mccio_net::BytePool;

/// Retired buffers kept for reuse; beyond this the pool hands buffers
/// to the world recycler (or lets them drop) so a burst of wide rounds
/// cannot pin memory in one rank's free list for the whole operation.
const POOL_CAP: usize = 16;

#[derive(Debug, Default)]
struct Inner {
    free: Vec<Vec<u8>>,
    /// World-level recycler backing this op's pool: fresh allocations
    /// come from it and retirees drain back into it, so buffers survive
    /// operation boundaries. Recycled buffers have *exactly* the
    /// capacity a fresh `Vec::with_capacity` would, which keeps the
    /// hit/miss counters below bit-stable — they are pinned exactly by
    /// `crates/bench/tests/ci_goldens.rs`, and must not observe the
    /// (scheduling-dependent) shared pool state.
    shared: Option<Arc<BytePool>>,
    /// Takes served from a retired buffer without allocating.
    hits: u64,
    /// Takes that had to allocate (or grow a too-small retiree).
    misses: u64,
    /// Takes forwarded to the shared recycler (own free list empty).
    shared_takes: u64,
    /// Buffers retired into the shared recycler (overflow + drain).
    shared_returns: u64,
    /// Bytes of buffer capacity currently handed out of the pool.
    held_bytes: u64,
    /// High-water mark of `held_bytes`.
    peak_held_bytes: u64,
    /// Live [`PoolLoan`]s not yet returned.
    outstanding: u64,
}

impl Inner {
    fn take(&mut self, cap: usize) -> Vec<u8> {
        let v = self.take_inner(cap);
        // Everything feeding this accounting — request sizes, free-list
        // contents, `Vec` growth — is a deterministic function of this
        // rank's own call sequence, so the peak may sit in `OpMetrics`
        // (which bit-identity tests compare across executors).
        self.held_bytes += v.capacity() as u64;
        self.peak_held_bytes = self.peak_held_bytes.max(self.held_bytes);
        v
    }

    fn take_inner(&mut self, cap: usize) -> Vec<u8> {
        if let Some(i) = self.free.iter().position(|b| b.capacity() >= cap) {
            self.hits += 1;
            let mut v = self.free.swap_remove(i);
            v.clear();
            return v;
        }
        self.misses += 1;
        match self.free.pop() {
            Some(mut v) => {
                v.clear();
                v.reserve(cap);
                v
            }
            None => match &self.shared {
                Some(pool) => {
                    self.shared_takes += 1;
                    pool.take(cap)
                }
                None => Vec::with_capacity(cap),
            },
        }
    }

    fn put(&mut self, buf: Vec<u8>) {
        // Saturating: a loan may have grown while outstanding, so held
        // accounting is a floor.
        self.held_bytes = self.held_bytes.saturating_sub(buf.capacity() as u64);
        if buf.capacity() == 0 {
            return;
        }
        if self.free.len() < POOL_CAP {
            self.free.push(buf);
        } else if let Some(pool) = self.shared.clone() {
            self.shared_returns += 1;
            pool.put(buf);
        }
    }

    fn drain_to_shared(&mut self) {
        if let Some(pool) = self.shared.clone() {
            for buf in self.free.drain(..) {
                self.shared_returns += 1;
                pool.put(buf);
            }
        }
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        self.drain_to_shared();
    }
}

/// Lifetime counters of one op's pool; all fields are deterministic
/// per-rank facts (see [`Inner::take`]).
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct PoolStats {
    /// Takes served from a retired buffer without allocating.
    pub(super) hits: u64,
    /// Takes that had to allocate (or grow a too-small retiree).
    pub(super) misses: u64,
    /// Takes forwarded to the world recycler.
    pub(super) recycle_takes: u64,
    /// Buffers retired into the world recycler.
    pub(super) recycle_returns: u64,
    /// High-water mark of buffer bytes held out of the pool at once.
    pub(super) peak_bytes: u64,
}

/// A bounded free-list of byte buffers (see module docs). Interior
/// mutability (the pool lives in the per-rank `OpState` and is only
/// ever touched from its own rank's thread) lets loans borrow the pool
/// while the round loop keeps using it.
#[derive(Debug, Default)]
pub(super) struct BufferPool {
    inner: RefCell<Inner>,
}

impl BufferPool {
    /// A pool backed by the world-level recycler: fresh allocations are
    /// drawn from `shared` and every retiree (overflow and end-of-op
    /// drain alike) goes back to it, so the steady-state hot path stops
    /// allocating once the first operation has populated the recycler.
    pub(super) fn backed(shared: Arc<BytePool>) -> Self {
        let mut inner = Inner::default();
        inner.shared = Some(shared);
        BufferPool {
            inner: RefCell::new(inner),
        }
    }

    /// A tracked, auto-returning empty buffer with at least `cap` bytes
    /// of capacity, preferring a retired buffer that already fits.
    pub(super) fn loan(&self, cap: usize) -> PoolLoan<'_> {
        let buf = {
            let mut inner = self.inner.borrow_mut();
            inner.outstanding += 1;
            inner.take(cap)
        };
        PoolLoan {
            pool: self,
            buf: Some(buf),
        }
    }

    /// A tracked, auto-returning zero-filled buffer of exactly `len`
    /// bytes.
    pub(super) fn loan_filled(&self, len: usize) -> PoolLoan<'_> {
        let mut loan = self.loan(len);
        loan.resize(len, 0);
        loan
    }

    /// Retires the pool: drains its free list into the backing recycler
    /// (so the drain is counted, unlike a bare drop) and returns the
    /// final counters.
    pub(super) fn finish(self) -> PoolStats {
        let mut inner = self.inner.into_inner();
        inner.drain_to_shared();
        PoolStats {
            hits: inner.hits,
            misses: inner.misses,
            recycle_takes: inner.shared_takes,
            recycle_returns: inner.shared_returns,
            peak_bytes: inner.peak_held_bytes,
        }
    }

    /// Live loans not yet dropped; the epilogue asserts this is zero.
    pub(super) fn loans_outstanding(&self) -> u64 {
        self.inner.borrow().outstanding
    }
}

/// RAII loan of a pooled buffer: derefs to `Vec<u8>` and returns itself
/// to the pool on drop — including drops driven by `?`-propagation out
/// of a faulted round.
#[derive(Debug)]
pub(super) struct PoolLoan<'p> {
    pool: &'p BufferPool,
    buf: Option<Vec<u8>>,
}

impl Deref for PoolLoan<'_> {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        self.buf.as_ref().expect("loan present until drop")
    }
}

impl DerefMut for PoolLoan<'_> {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        self.buf.as_mut().expect("loan present until drop")
    }
}

impl Drop for PoolLoan<'_> {
    fn drop(&mut self) {
        let buf = self.buf.take().expect("loan returned exactly once");
        let mut inner = self.pool.inner.borrow_mut();
        inner.outstanding -= 1;
        inner.put(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuses_capacity_and_clears_contents() {
        let pool = BufferPool::default();
        let mut a = pool.loan(64);
        a.extend_from_slice(&[7u8; 64]);
        let ptr = a.as_ptr();
        drop(a);
        let b = pool.loan(32);
        assert_eq!(b.as_ptr(), ptr, "buffer not reused");
        assert!(b.is_empty());
        assert!(b.capacity() >= 64);
    }

    #[test]
    fn loan_filled_is_zeroed() {
        let pool = BufferPool::default();
        let mut a = pool.loan(8);
        a.extend_from_slice(&[0xFFu8; 8]);
        drop(a);
        let b = pool.loan_filled(8);
        assert_eq!(*b, vec![0u8; 8]);
    }

    #[test]
    fn prefers_a_buffer_that_already_fits() {
        let pool = BufferPool::default();
        drop((pool.loan(8), pool.loan(256)));
        let v = pool.loan(100);
        assert!(v.capacity() >= 256, "should pick the larger retiree");
    }

    #[test]
    fn hit_miss_accounting() {
        let pool = BufferPool::default();
        drop(pool.loan(16));
        drop(pool.loan(8));
        drop(pool.loan(1024));
        let s = pool.finish();
        assert_eq!((s.hits, s.misses), (1, 2));
    }

    #[test]
    fn shared_backing_recycles_across_pool_lifetimes() {
        let shared = Arc::new(BytePool::default());
        let first = BufferPool::backed(Arc::clone(&shared));
        let mut a = first.loan(1 << 12);
        a.extend_from_slice(&[9u8; 100]);
        let ptr = a.as_ptr();
        drop(a);
        let s = first.finish();
        assert_eq!(s.recycle_takes, 1, "fresh alloc drawn through recycler");
        assert_eq!(s.recycle_returns, 1, "end-of-op drain counted");
        assert!(s.peak_bytes >= 1 << 12);

        let second = BufferPool::backed(Arc::clone(&shared));
        let b = second.loan(1 << 12);
        assert_eq!(b.as_ptr(), ptr, "buffer survived the pool boundary");
        assert!(b.is_empty());
        assert_eq!(shared.stats().hits, 1);
    }

    #[test]
    fn pool_is_bounded() {
        let pool = BufferPool::default();
        let loans: Vec<_> = (0..POOL_CAP + 10).map(|_| pool.loan(16)).collect();
        drop(loans);
        assert_eq!(pool.inner.borrow().free.len(), POOL_CAP);
        pool.inner.borrow_mut().put(Vec::new()); // no allocation -> not retained
        assert_eq!(pool.inner.borrow().free.len(), POOL_CAP);
    }

    #[test]
    fn loans_return_on_drop_even_mid_error_path() {
        let pool = BufferPool::default();
        let attempt = |pool: &BufferPool| -> Result<(), ()> {
            let mut a = pool.loan(128);
            a.extend_from_slice(&[1, 2, 3]);
            assert_eq!(pool.loans_outstanding(), 1);
            Err(())?; // early exit: the loan must still come home
            Ok(())
        };
        assert!(attempt(&pool).is_err());
        assert_eq!(pool.loans_outstanding(), 0, "loan returned on unwind");
        let b = pool.loan(64);
        assert!(b.capacity() >= 128, "errored loan's buffer was pooled");
    }

    #[test]
    fn concurrent_loans_are_counted() {
        let pool = BufferPool::default();
        let a = pool.loan(8);
        let b = pool.loan_filled(16);
        assert_eq!(pool.loans_outstanding(), 2);
        drop(a);
        drop(b);
        assert_eq!(pool.loans_outstanding(), 0);
    }
}
