//! The simulated parallel file system: named striped files with real
//! byte contents.
//!
//! Data is stored for real — a write followed by a read returns the
//! exact bytes, which is what lets the test suite verify collective I/O
//! end-to-end. Only *time* is simulated: every access returns the
//! [`ServiceReport`] describing the per-server request shape it induced
//! under the file's striping, and drivers price those reports through
//! [`PfsParams`].
//!
//! There is deliberately no client-side cache: the paper's evaluation
//! flushes caches between write and read phases, so cold reads are the
//! behaviour to reproduce.

use std::collections::HashMap;
use std::sync::Arc;

use mccio_sim::error::{SimError, SimResult};
use mccio_sim::sync::{Mutex, MutexGuard, RwLock};

use crate::retry::IoFaults;
use crate::service::{PfsParams, ServiceReport};
use crate::striping::Striping;

#[derive(Debug)]
struct FileObject {
    data: RwLock<Vec<u8>>,
    /// Serializes read-modify-write cycles (data sieving writes).
    rmw: Mutex<()>,
}

/// The file system: a namespace of striped files plus the cost
/// parameters. Cheap to clone (`Arc` inside); share one per simulation.
#[derive(Debug, Clone)]
pub struct FileSystem {
    inner: Arc<FsInner>,
}

#[derive(Debug)]
struct FsInner {
    striping: Striping,
    params: PfsParams,
    files: Mutex<HashMap<String, Arc<FileObject>>>,
}

impl FileSystem {
    /// Creates a file system striping over `n_servers` OSTs with the
    /// given stripe `unit` and cost parameters.
    #[must_use]
    pub fn new(n_servers: usize, unit: u64, params: PfsParams) -> Self {
        FileSystem {
            inner: Arc::new(FsInner {
                striping: Striping::new(n_servers, unit),
                params,
                files: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// The striping layout applied to every file.
    #[must_use]
    pub fn striping(&self) -> Striping {
        self.inner.striping
    }

    /// Storage cost parameters.
    #[must_use]
    pub fn params(&self) -> PfsParams {
        self.inner.params
    }

    /// Number of servers.
    #[must_use]
    pub fn n_servers(&self) -> usize {
        self.inner.striping.n_servers
    }

    /// Creates an empty file. Fails if the name exists.
    pub fn create(&self, name: &str) -> SimResult<FileHandle> {
        let mut files = self.inner.files.lock();
        if files.contains_key(name) {
            return Err(SimError::FileExists(name.to_string()));
        }
        let obj = Arc::new(FileObject {
            data: RwLock::new(Vec::new()),
            rmw: Mutex::new(()),
        });
        files.insert(name.to_string(), Arc::clone(&obj));
        Ok(self.handle(obj))
    }

    /// Opens an existing file.
    pub fn open(&self, name: &str) -> SimResult<FileHandle> {
        let files = self.inner.files.lock();
        files
            .get(name)
            .map(|obj| self.handle(Arc::clone(obj)))
            .ok_or_else(|| SimError::NoSuchFile(name.to_string()))
    }

    /// Opens, creating if missing — the common collective-open path.
    pub fn open_or_create(&self, name: &str) -> FileHandle {
        if let Ok(h) = self.open(name) {
            return h;
        }
        match self.create(name) {
            Ok(h) => h,
            // A concurrent creator won the race; open must now succeed.
            Err(_) => self.open(name).expect("file exists after create race"),
        }
    }

    fn handle(&self, file: Arc<FileObject>) -> FileHandle {
        FileHandle {
            file,
            striping: self.inner.striping,
            n_servers: self.inner.striping.n_servers,
        }
    }
}

/// An open file: byte-addressed reads and writes, each returning the
/// per-server request shape it induced under the file's striping.
#[derive(Debug, Clone)]
pub struct FileHandle {
    file: Arc<FileObject>,
    striping: Striping,
    n_servers: usize,
}

impl FileHandle {
    /// Number of servers the file is striped over.
    #[must_use]
    pub fn n_servers(&self) -> usize {
        self.n_servers
    }

    /// The striping layout of this file.
    #[must_use]
    pub fn striping(&self) -> Striping {
        self.striping
    }

    /// Current file length in bytes.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.file.data.read().len() as u64
    }

    /// True when the file holds no bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes `data` at `offset`, growing (zero-filling) the file as
    /// needed. Returns the per-server request shape of the access.
    pub fn write_at(&self, offset: u64, data: &[u8]) -> ServiceReport {
        self.write_at_with(offset, data.len() as u64, |dst| {
            dst.copy_from_slice(data);
        })
    }

    /// Reads `buf.len()` bytes at `offset` into `buf`. Bytes beyond EOF
    /// read as zero (sparse-file semantics — collective readers may
    /// legitimately cover holes). Returns the request shape.
    pub fn read_into(&self, offset: u64, buf: &mut [u8]) -> ServiceReport {
        let len = buf.len() as u64;
        self.read_at_with(offset, len, |src| fill_from(buf, src)).1
    }

    /// Convenience allocation-returning read.
    pub fn read_at(&self, offset: u64, len: u64) -> (Vec<u8>, ServiceReport) {
        let mut buf = vec![0u8; len as usize];
        let report = self.read_into(offset, &mut buf);
        (buf, report)
    }

    /// One contiguous write of `len` bytes at `offset`, with the bytes
    /// produced in place: `fill` receives the destination file slice
    /// and must write every byte of it. Built for gather-style callers
    /// (the collective round engine) that would otherwise assemble the
    /// span in a staging buffer only to copy it here.
    pub fn write_at_with(
        &self,
        offset: u64,
        len: u64,
        fill: impl FnOnce(&mut [u8]),
    ) -> ServiceReport {
        if len == 0 {
            return ServiceReport::empty(self.n_servers);
        }
        let end = (offset + len) as usize;
        {
            let mut bytes = self.file.data.write();
            if bytes.len() < end {
                bytes.resize(end, 0);
            }
            fill(&mut bytes[offset as usize..end]);
        }
        self.request_shape(offset, len)
    }

    /// One contiguous read of `len` bytes at `offset`, handed to the
    /// caller as a zero-copy view instead of filling a buffer:
    /// `consume` receives the in-file portion of the range — shorter
    /// than `len` when the range crosses EOF, where the missing tail
    /// reads as zero by the sparse-file semantics. Built for
    /// scatter-style callers that pick pieces out of the span without
    /// ever materialising it.
    pub fn read_at_with<R>(
        &self,
        offset: u64,
        len: u64,
        consume: impl FnOnce(&[u8]) -> R,
    ) -> (R, ServiceReport) {
        let r = {
            let bytes = self.file.data.read();
            let start = (offset.min(bytes.len() as u64)) as usize;
            let n = (bytes.len() - start).min(len as usize);
            consume(&bytes[start..start + n])
        };
        (r, self.request_shape(offset, len))
    }

    /// [`FileHandle::write_at`] through a fallible request path: each
    /// attempt may transiently fail per `faults`' stream, failed attempts
    /// still charge zero-byte requests at every touched server (the RPCs
    /// went out), and recovery is bounded by the retry policy. The
    /// returned report covers the successful attempt *plus* the waste;
    /// backoff accumulates in `faults.log` for the engine to price.
    ///
    /// # Errors
    /// [`SimError::TransientIo`] when the retry budget is exhausted,
    /// [`SimError::Timeout`] when the backoff deadline passes first. The
    /// file is untouched on error.
    pub fn try_write_at(
        &self,
        offset: u64,
        data: &[u8],
        faults: &mut IoFaults,
    ) -> SimResult<ServiceReport> {
        self.try_write_at_with(offset, data.len() as u64, faults, |dst| {
            dst.copy_from_slice(data);
        })
    }

    /// [`FileHandle::read_into`] through a fallible request path; see
    /// [`FileHandle::try_write_at`] for the failure semantics.
    ///
    /// # Errors
    /// [`SimError::TransientIo`] or [`SimError::Timeout`] as above; `buf`
    /// contents are unspecified on error.
    pub fn try_read_into(
        &self,
        offset: u64,
        buf: &mut [u8],
        faults: &mut IoFaults,
    ) -> SimResult<ServiceReport> {
        let len = buf.len() as u64;
        self.try_read_at_with(offset, len, faults, |src| fill_from(buf, src))
            .map(|((), report)| report)
    }

    /// [`FileHandle::write_at_with`] through a fallible request path;
    /// see [`FileHandle::try_write_at`] for the failure semantics.
    /// `fill` runs only on the successful attempt.
    ///
    /// # Errors
    /// [`SimError::TransientIo`] or [`SimError::Timeout`] as
    /// [`FileHandle::try_write_at`]. The file is untouched on error.
    pub fn try_write_at_with(
        &self,
        offset: u64,
        len: u64,
        faults: &mut IoFaults,
        fill: impl FnOnce(&mut [u8]),
    ) -> SimResult<ServiceReport> {
        self.retrying(offset, len, faults, || {
            ((), self.write_at_with(offset, len, fill))
        })
        .map(|((), report)| report)
    }

    /// [`FileHandle::read_at_with`] through a fallible request path;
    /// see [`FileHandle::try_write_at`] for the failure semantics.
    /// `consume` runs only on the successful attempt.
    ///
    /// # Errors
    /// [`SimError::TransientIo`] or [`SimError::Timeout`] as above.
    pub fn try_read_at_with<R>(
        &self,
        offset: u64,
        len: u64,
        faults: &mut IoFaults,
        consume: impl FnOnce(&[u8]) -> R,
    ) -> SimResult<(R, ServiceReport)> {
        self.retrying(offset, len, faults, || {
            self.read_at_with(offset, len, consume)
        })
    }

    /// Runs `access` (one attempt at `len` bytes from `offset`) under
    /// `faults`' retry policy, adding to its report the wasted
    /// round-trips of every failed attempt: each fans out and pays its
    /// overhead at every touched server, but moves no payload.
    fn retrying<R>(
        &self,
        offset: u64,
        len: u64,
        faults: &mut IoFaults,
        access: impl FnOnce() -> (R, ServiceReport),
    ) -> SimResult<(R, ServiceReport)> {
        if len == 0 || !faults.can_fail() {
            return Ok(access());
        }
        let mut wasted = ServiceReport::empty(self.n_servers);
        let (r, mut report) = faults.run(
            || {
                for ext in self.striping.map_range(offset, len) {
                    wasted.add_request(ext.server, 0);
                }
            },
            access,
        )?;
        report.merge(&wasted);
        Ok((r, report))
    }

    /// The per-server request shape of one access to `len` bytes at
    /// `offset`.
    fn request_shape(&self, offset: u64, len: u64) -> ServiceReport {
        let mut report = ServiceReport::empty(self.n_servers);
        if len > 0 {
            for ext in self.striping.map_range(offset, len) {
                report.add_request(ext.server, ext.len);
            }
        }
        report
    }

    /// Takes the file's read-modify-write lock. Data-sieving writes hold
    /// this across their read + write-back so concurrent sieved writes
    /// to overlapping regions cannot lose updates.
    pub fn rmw_lock(&self) -> MutexGuard<'_, ()> {
        self.file.rmw.lock()
    }
}

/// Copies the in-file bytes `src` to the head of `buf` and zero-fills
/// the rest: the part of the range past EOF.
fn fill_from(buf: &mut [u8], src: &[u8]) {
    let (head, tail) = buf.split_at_mut(src.len());
    head.copy_from_slice(src);
    tail.fill(0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mccio_sim::units::MIB;

    fn fs() -> FileSystem {
        FileSystem::new(4, 1024, PfsParams::default())
    }

    #[test]
    fn create_open_delete_lifecycle() {
        let fs = fs();
        assert!(matches!(fs.open("a"), Err(SimError::NoSuchFile(_))));
        let h = fs.create("a").unwrap();
        assert!(h.is_empty());
        assert!(matches!(fs.create("a"), Err(SimError::FileExists(_))));
        assert!(fs.open("a").is_ok());
    }

    #[test]
    fn write_then_read_roundtrips() {
        let fs = fs();
        let h = fs.create("f").unwrap();
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        h.write_at(500, &data);
        assert_eq!(h.len(), 10_500);
        let (back, _) = h.read_at(500, 10_000);
        assert_eq!(back, data);
    }

    #[test]
    fn holes_and_eof_read_as_zero() {
        let fs = fs();
        let h = fs.create("f").unwrap();
        h.write_at(100, b"xyz");
        let (head, _) = h.read_at(0, 100);
        assert!(head.iter().all(|&b| b == 0));
        let (past, _) = h.read_at(103, 50);
        assert!(past.iter().all(|&b| b == 0));
        let (exact, _) = h.read_at(99, 5);
        assert_eq!(exact, [0, b'x', b'y', b'z', 0]);
    }

    #[test]
    fn reports_reflect_striping() {
        let fs = FileSystem::new(4, 1024, PfsParams::default());
        let h = fs.create("f").unwrap();
        // One full stripe: 4 KiB = one request per server.
        let r = h.write_at(0, &vec![1u8; 4096]);
        assert_eq!(r.total_requests(), 4);
        assert_eq!(r.total_bytes(), 4096);
        for load in r.loads() {
            assert_eq!(load.requests, 1);
            assert_eq!(load.bytes, 1024);
        }
        // A sub-unit read touches exactly one server.
        let (_, r) = h.read_at(100, 10);
        assert_eq!(r.total_requests(), 1);
    }

    #[test]
    fn independent_handles_see_the_same_file() {
        let fs = fs();
        let a = fs.create("shared").unwrap();
        let b = fs.open("shared").unwrap();
        a.write_at(0, b"hello");
        let (got, _) = b.read_at(0, 5);
        assert_eq!(got, b"hello");
    }

    #[test]
    fn concurrent_disjoint_writes_compose() {
        let fs = fs();
        let h = fs.create("par").unwrap();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let h = h.clone();
                s.spawn(move || {
                    let block = vec![t as u8 + 1; MIB as usize / 8];
                    h.write_at(t * MIB / 8, &block);
                });
            }
        });
        assert_eq!(h.len(), MIB);
        let (all, _) = h.read_at(0, MIB);
        for t in 0..8u64 {
            let start = (t * MIB / 8) as usize;
            assert!(all[start..start + (MIB / 8) as usize]
                .iter()
                .all(|&b| b == t as u8 + 1));
        }
    }

    #[test]
    fn fallible_paths_with_healthy_context_match_infallible() {
        let fs = fs();
        let h = fs.create("f").unwrap();
        let mut iof = IoFaults::none();
        let w = h.try_write_at(0, b"hello world", &mut iof).unwrap();
        assert_eq!(w, h.write_at(0, b"hello world"));
        let mut buf = vec![0u8; 11];
        let r = h.try_read_into(0, &mut buf, &mut iof).unwrap();
        assert_eq!(buf, b"hello world");
        assert_eq!(r.total_bytes(), 11);
        assert_eq!(iof.log, crate::retry::RetryLog::default());
    }

    #[test]
    fn failed_attempts_charge_wasted_requests_and_data_survives() {
        use mccio_sim::fault::{FaultPlan, RetryPolicy};
        let fs = fs();
        let h = fs.create("flaky").unwrap();
        let plan = FaultPlan::new(21).transient_io_rate(0.4);
        let mut iof = IoFaults::new(plan.io_stream(0), RetryPolicy::default());
        let data: Vec<u8> = (0..50_000u64).map(|i| (i % 249) as u8).collect();
        let mut completed = Vec::new();
        let chunk = 5000;
        let mut wasted_requests = 0;
        for (i, c) in data.chunks(chunk).enumerate() {
            let off = (i * chunk) as u64;
            let faults_before = iof.log.transient_faults;
            if let Ok(r) = h.try_write_at(off, c, &mut iof) {
                // The returned report charges every failed attempt's
                // round-trips on top of the successful one, but no
                // extra bytes: failed attempts move no payload.
                let clean = h.striping().map_range(off, c.len() as u64).len() as u64;
                let failed = iof.log.transient_faults - faults_before;
                assert_eq!(r.total_bytes(), c.len() as u64, "chunk at {off}");
                assert_eq!(r.total_requests(), clean * (1 + failed), "chunk at {off}");
                wasted_requests += r.total_requests() - clean;
                completed.push((off, c));
            }
        }
        assert!(wasted_requests > 0, "some completed write was retried");
        assert!(iof.log.transient_faults > 0, "rate 0.4 must bite");
        assert!(!completed.is_empty());
        // Every completed chunk reads back exactly; failed chunks left
        // no partial garbage (holes read as zero, not junk).
        for (off, c) in &completed {
            let (back, _) = h.read_at(*off, c.len() as u64);
            assert_eq!(&back, c, "chunk at {off}");
        }
    }

    #[test]
    fn open_or_create_is_idempotent() {
        let fs = fs();
        let a = fs.open_or_create("x");
        a.write_at(0, b"1");
        let b = fs.open_or_create("x");
        assert_eq!(b.len(), 1);
    }
}
