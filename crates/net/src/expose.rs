//! The exposure table: one slot per rank through which peers copy
//! straight out of, or into, a rank's own buffer.
//!
//! The in-process shuffle moves each byte once per direction. A writing
//! rank exposes its packed request as a [`Exposed::Source`] and every
//! aggregator copies its scheduled pieces out of it into the file (or
//! its assembly buffer); a reading rank exposes its output buffer as a
//! [`Exposed::Sink`] and every aggregator copies its pieces into it.
//! Messages still flow between the same pairs — they carry the
//! causality and the wire size, not the bytes.
//!
//! ## Lifetime protocol
//!
//! [`ExposureTable::scope`] publishes a buffer for the length of one
//! closure and clears the slot when the closure returns or unwinds.
//! Clearing first unpublishes the pointer, then waits until every
//! in-flight access has unpinned it, so the buffer is never freed under
//! a reader. The collective engine opens the scope before its op's
//! first collective and closes it after the epilogue: a peer's access
//! in round `r` happens after the prologue's first collective (so the
//! slot is published) and before the peer's round-`r` facts reach the
//! root's gather (so the owner, which cannot leave that round's
//! broadcast before the gather completes, is still inside the scope).
//! The pin count is a backstop for that round-settlement fence.
//!
//! ## Fail-safe accesses
//!
//! An access to a slot with nothing published — never exposed, or
//! already cleared — panics naming the rank, as does a range outside
//! the exposed buffer or a write into a source. Nothing is read from or
//! written to memory the table cannot vouch for.
//!
//! ## No aliasing
//!
//! While a buffer is exposed the table holds its only access path: a
//! source is behind a shared borrow (nobody writes it), and a sink's
//! exclusive borrow is held by the scope, so its owner reaches it only
//! through the table too. Every access to a sink holds the slot's lock,
//! so even overlapping ranges from concurrent threads never race; on
//! the event executor the lock is always free.

use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};

use mccio_sim::sync::Mutex;

/// A buffer a rank publishes to its peers for one [`ExposureTable::scope`].
#[derive(Debug)]
pub enum Exposed<'b> {
    /// Peers may read the bytes (a writer's packed request).
    Source(&'b [u8]),
    /// Peers may write into the bytes (a reader's output buffer).
    Sink(&'b mut [u8]),
}

#[derive(Debug, Default)]
struct Slot {
    /// Start of the published buffer; null while nothing is published.
    ptr: AtomicPtr<u8>,
    /// Length of the published buffer (valid while `ptr` is non-null).
    len: AtomicUsize,
    /// Whether the published buffer is a sink.
    sink: AtomicBool,
    /// Held by the one scope that owns the slot, from publish to clear.
    claimed: AtomicBool,
    /// Accesses in flight; clearing waits for this to reach zero.
    pins: AtomicUsize,
    /// Serialises every access to a sink.
    sink_lock: Mutex<()>,
}

/// One pinned access to a published buffer; unpins on drop.
struct Pin<'t> {
    slot: &'t Slot,
    ptr: *mut u8,
    len: usize,
}

impl Drop for Pin<'_> {
    fn drop(&mut self) {
        self.slot.pins.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Unpublishes a slot when its scope ends, then waits out pinned
/// accesses.
struct Clear<'t> {
    slot: &'t Slot,
}

impl Drop for Clear<'_> {
    fn drop(&mut self) {
        self.slot.ptr.store(ptr::null_mut(), Ordering::SeqCst);
        // Pins are held for one copy and never across a yield, so on
        // the event executor this loop never spins; on threads it waits
        // out at most one in-flight copy per peer.
        while self.slot.pins.load(Ordering::SeqCst) != 0 {
            std::hint::spin_loop();
            std::thread::yield_now();
        }
        self.slot.claimed.store(false, Ordering::Release);
    }
}

/// One exposure slot per rank of a world (see the module docs).
#[derive(Debug)]
pub struct ExposureTable {
    slots: Box<[Slot]>,
}

impl ExposureTable {
    /// A table of `n_ranks` empty slots.
    pub(crate) fn new(n_ranks: usize) -> Self {
        ExposureTable {
            slots: (0..n_ranks).map(|_| Slot::default()).collect(),
        }
    }

    fn slot(&self, rank: usize) -> &Slot {
        self.slots
            .get(rank)
            .unwrap_or_else(|| panic!("rank {rank} has no exposure slot"))
    }

    /// Publishes `buf` as `rank`'s buffer while `f` runs, then clears
    /// the slot — also when `f` unwinds — waiting for in-flight accesses
    /// to finish first.
    ///
    /// # Panics
    /// Panics if `rank` already has a buffer exposed.
    pub fn scope<R>(&self, rank: usize, buf: Exposed<'_>, f: impl FnOnce() -> R) -> R {
        let slot = self.slot(rank);
        assert!(
            !slot.claimed.swap(true, Ordering::Acquire),
            "rank {rank} already has a buffer exposed"
        );
        let (start, len, sink) = match buf {
            Exposed::Source(b) => (b.as_ptr().cast_mut(), b.len(), false),
            Exposed::Sink(b) => (b.as_mut_ptr(), b.len(), true),
        };
        slot.len.store(len, Ordering::Relaxed);
        slot.sink.store(sink, Ordering::Relaxed);
        slot.ptr.store(start, Ordering::SeqCst);
        let _clear = Clear { slot };
        f()
    }

    /// Pins `rank`'s published buffer for one access to
    /// `offset..offset + len`.
    fn pin(&self, rank: usize, offset: usize, len: usize) -> Pin<'_> {
        let slot = self.slot(rank);
        slot.pins.fetch_add(1, Ordering::SeqCst);
        let pin = Pin {
            slot,
            ptr: slot.ptr.load(Ordering::SeqCst),
            len: slot.len.load(Ordering::Relaxed),
        };
        assert!(
            !pin.ptr.is_null(),
            "rank {rank} has no buffer exposed (never exposed, or its op already ended)"
        );
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= pin.len),
            "piece {offset}+{len} lies outside rank {rank}'s exposed {} bytes",
            pin.len
        );
        pin
    }

    /// Runs `f` over `len` bytes at `offset` of `rank`'s exposed buffer.
    ///
    /// # Panics
    /// Panics, naming the rank, if nothing is exposed or the range lies
    /// outside the buffer.
    pub fn read<R>(&self, rank: usize, offset: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        let pin = self.pin(rank, offset, len);
        let _lock = pin
            .slot
            .sink
            .load(Ordering::Relaxed)
            .then(|| pin.slot.sink_lock.lock());
        // SAFETY: the buffer is alive. The engine reads a peer's slot
        // only after the prologue's first collective, which the owner
        // enters exposed, and before its own round facts reach the
        // root's gather, whose broadcast the owner cannot leave before
        // (the round-settlement fence). The pin backs that fence: the
        // scope cannot return, so its borrow cannot end, until the pin
        // drops (clear-then-wait in `Clear::drop`).
        // `pin` checked the range against the published length. A
        // source is never written while exposed (shared borrow); a
        // sink is only touched under `sink_lock`, held here.
        let bytes = unsafe { std::slice::from_raw_parts(pin.ptr.add(offset), len) };
        f(bytes)
    }

    /// Copies `src` into `rank`'s exposed sink at `offset`.
    ///
    /// # Panics
    /// Panics, naming the rank, if nothing is exposed, the exposed
    /// buffer is a source, or the range lies outside the buffer.
    pub fn write(&self, rank: usize, offset: usize, src: &[u8]) {
        let pin = self.pin(rank, offset, src.len());
        assert!(
            pin.slot.sink.load(Ordering::Relaxed),
            "rank {rank}'s exposed buffer is a read-only source"
        );
        let _lock = pin.slot.sink_lock.lock();
        // SAFETY: the sink is alive. The engine writes a reader's output
        // only after the prologue's first collective, which the reader
        // enters exposed, and before its own round facts reach the
        // root's gather, whose broadcast the reader cannot leave before
        // (the round-settlement fence). The pin backs that fence
        // (clear-then-wait in `Clear::drop`). The range was
        // checked against the sink's length, and `sink_lock` makes this
        // the only access to it. `src` cannot overlap the sink: the
        // sink's only borrow is held by its scope, so no slice of it
        // exists outside a locked table access.
        unsafe { ptr::copy_nonoverlapping(src.as_ptr(), pin.ptr.add(offset), src.len()) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU8;

    #[test]
    fn peers_read_a_source_and_write_a_sink() {
        let table = ExposureTable::new(2);
        let data = [1u8, 2, 3, 4];
        let mut out = vec![0u8; 4];
        table.scope(0, Exposed::Source(&data), || {
            table.scope(1, Exposed::Sink(&mut out), || {
                let mid = table.read(0, 1, 2, <[u8]>::to_vec);
                table.write(1, 2, &mid);
                assert_eq!(table.read(1, 0, 4, <[u8]>::to_vec), [0, 0, 2, 3]);
            });
        });
        assert_eq!(out, [0, 0, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "rank 1 has no buffer exposed")]
    fn access_after_the_scope_ended_panics() {
        let table = ExposureTable::new(2);
        let data = vec![7u8; 16];
        table.scope(1, Exposed::Source(&data), || {
            table.read(1, 0, 16, |_| ());
        });
        drop(data);
        table.read(1, 0, 16, |_| ());
    }

    #[test]
    #[should_panic(expected = "rank 3 has no buffer exposed")]
    fn access_to_a_never_exposed_slot_panics() {
        let table = ExposureTable::new(4);
        table.write(3, 0, &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "outside rank 2's exposed 8 bytes")]
    fn out_of_range_piece_panics() {
        let table = ExposureTable::new(3);
        let data = [0u8; 8];
        table.scope(2, Exposed::Source(&data), || {
            table.read(2, 6, 4, |_| ());
        });
    }

    #[test]
    #[should_panic(expected = "rank 0's exposed buffer is a read-only source")]
    fn writing_into_a_source_panics() {
        let table = ExposureTable::new(1);
        let data = [0u8; 8];
        table.scope(0, Exposed::Source(&data), || table.write(0, 0, &[1]));
    }

    #[test]
    #[should_panic(expected = "rank 0 already has a buffer exposed")]
    fn exposing_twice_panics() {
        let table = ExposureTable::new(1);
        let (a, b) = ([0u8; 1], [0u8; 1]);
        table.scope(0, Exposed::Source(&a), || {
            table.scope(0, Exposed::Source(&b), || ());
        });
    }

    #[test]
    fn a_failed_access_leaves_the_slot_reusable() {
        let table = ExposureTable::new(1);
        let data = [5u8; 4];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            table.scope(0, Exposed::Source(&data), || table.read(0, 3, 2, |_| ()));
        }));
        assert!(caught.is_err());
        let slot = &table.slots[0];
        assert_eq!(slot.pins.load(Ordering::SeqCst), 0, "unwind unpinned");
        assert!(slot.ptr.load(Ordering::SeqCst).is_null(), "unwind cleared");
        table.scope(0, Exposed::Source(&data), || {
            assert_eq!(table.read(0, 0, 4, <[u8]>::to_vec), [5; 4]);
        });
    }

    /// The owner's scope ends while a reader on another thread is pinned
    /// mid-copy: the clear must wait for that reader before the scope
    /// returns. Handshake: 1 = exposed, 2 = reader pinned; the reader
    /// then holds its pin until it sees the slot unpublished (the owner
    /// is inside the clear) and only then copies.
    #[test]
    fn clearing_waits_for_a_pinned_reader() {
        let table = ExposureTable::new(1);
        let stage = AtomicU8::new(0);
        let copied = AtomicBool::new(false);
        let data: Vec<u8> = (0..64).collect();
        std::thread::scope(|s| {
            s.spawn(|| {
                while stage.load(Ordering::SeqCst) != 1 {
                    std::hint::spin_loop();
                }
                let bytes = table.read(0, 0, 64, |bytes| {
                    stage.store(2, Ordering::SeqCst);
                    while !table.slots[0].ptr.load(Ordering::SeqCst).is_null() {
                        std::hint::spin_loop();
                    }
                    let v = bytes.to_vec();
                    copied.store(true, Ordering::SeqCst);
                    v
                });
                assert_eq!(bytes, data);
            });
            table.scope(0, Exposed::Source(&data), || {
                stage.store(1, Ordering::SeqCst);
                while stage.load(Ordering::SeqCst) != 2 {
                    std::hint::spin_loop();
                }
            });
            assert!(
                copied.load(Ordering::SeqCst),
                "scope returned before the pinned reader finished its copy"
            );
        });
    }
}
