//! A forwarding [`Vfs`] that counts and times every call into the storage
//! layer from outside it.
//!
//! Every trait method is overridden, including the deferred-durability
//! ones that have eager defaults: a wrapper that inherited those defaults
//! would silently switch the daemon back to a per-write fsync, and the
//! numbers would describe a different program. The traced run checks that
//! traces, reports and `io_syncs_batched` are identical with and without
//! the wrapper.

use mwrepair_service::{RealVfs, Vfs};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Trait methods in declaration order; the index is the counter slot.
pub const METHODS: [&str; 15] = [
    "create_dir_all",
    "read",
    "append_sync",
    "truncate_sync",
    "file_len",
    "write_atomic",
    "remove_file",
    "remove_dir_all",
    "exists",
    "injected_faults",
    "append_deferred",
    "write_atomic_deferred",
    "sync_file",
    "commit_atomic",
    "sync_barrier",
];

/// Methods that hand bytes to the storage layer.
pub const WRITERS: [&str; 4] = [
    "append_sync",
    "write_atomic",
    "append_deferred",
    "write_atomic_deferred",
];

#[derive(Debug, Default)]
struct Slot {
    calls: AtomicU64,
    nanos: AtomicU64,
    bytes: AtomicU64,
}

/// Per-method totals of one [`CountingVfs`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MethodTotals {
    pub calls: u64,
    pub ms: f64,
    pub bytes: u64,
}

/// [`RealVfs`] behind per-method call, time and byte counters.
#[derive(Debug, Default)]
pub struct CountingVfs {
    inner: RealVfs,
    slots: [Slot; METHODS.len()],
}

fn slot_of(method: &str) -> usize {
    METHODS
        .iter()
        .position(|m| *m == method)
        .expect("method is listed in METHODS")
}

impl CountingVfs {
    fn timed<T>(&self, method: &str, bytes: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let slot = &self.slots[slot_of(method)];
        slot.nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        slot.calls.fetch_add(1, Relaxed);
        slot.bytes.fetch_add(bytes as u64, Relaxed);
        out
    }

    /// Totals for `method` so far.
    pub fn totals(&self, method: &str) -> MethodTotals {
        let slot = &self.slots[slot_of(method)];
        MethodTotals {
            calls: slot.calls.load(Relaxed),
            ms: slot.nanos.load(Relaxed) as f64 / 1e6,
            bytes: slot.bytes.load(Relaxed),
        }
    }
}

impl Vfs for CountingVfs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.timed("create_dir_all", 0, || self.inner.create_dir_all(path))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.timed("read", 0, || self.inner.read(path))
    }

    fn append_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.timed("append_sync", bytes.len(), || {
            self.inner.append_sync(path, bytes)
        })
    }

    fn truncate_sync(&self, path: &Path, len: u64) -> io::Result<()> {
        self.timed("truncate_sync", 0, || self.inner.truncate_sync(path, len))
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.timed("file_len", 0, || self.inner.file_len(path))
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.timed("write_atomic", bytes.len(), || {
            self.inner.write_atomic(path, bytes)
        })
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.timed("remove_file", 0, || self.inner.remove_file(path))
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        self.timed("remove_dir_all", 0, || self.inner.remove_dir_all(path))
    }

    fn exists(&self, path: &Path) -> bool {
        self.timed("exists", 0, || self.inner.exists(path))
    }

    fn injected_faults(&self) -> u64 {
        self.timed("injected_faults", 0, || self.inner.injected_faults())
    }

    fn append_deferred(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.timed("append_deferred", bytes.len(), || {
            self.inner.append_deferred(path, bytes)
        })
    }

    fn write_atomic_deferred(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.timed("write_atomic_deferred", bytes.len(), || {
            self.inner.write_atomic_deferred(path, bytes)
        })
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.timed("sync_file", 0, || self.inner.sync_file(path))
    }

    fn commit_atomic(&self, path: &Path) -> io::Result<()> {
        self.timed("commit_atomic", 0, || self.inner.commit_atomic(path))
    }

    fn sync_barrier(&self, paths: &[PathBuf]) -> Vec<io::Result<()>> {
        self.timed("sync_barrier", 0, || self.inner.sync_barrier(paths))
    }
}
