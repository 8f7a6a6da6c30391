//! Log storage backends.
//!
//! The WAL distinguishes *appended* bytes (handed to the backend, may
//! still sit in a buffer) from *durable* bytes (survive a crash — the
//! fsync boundary). [`FileStorage`] maps the distinction onto a real file
//! and `sync_data`; [`MemStorage`] keeps both byte strings in memory so
//! tests can crash the "process" at any boundary and hand the durable
//! prefix to recovery.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

/// Where log bytes go.
pub trait Storage: Send {
    /// Buffer `bytes` at the end of the log.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Make everything appended so far durable (the group-commit flush
    /// boundary — fsync-equivalent).
    fn sync(&mut self) -> io::Result<()>;

    /// Atomically replace the whole log with `bytes` (checkpoint
    /// truncation) and make it durable.
    fn reset(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Bytes appended so far (durable or not).
    fn len(&self) -> u64;

    /// Whether nothing has been appended.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// File-backed storage: appends buffer in memory, [`Storage::sync`]
/// writes and fsyncs, [`Storage::reset`] rewrites via a temp file +
/// rename so a crash mid-checkpoint leaves either the old or the new log.
pub struct FileStorage {
    path: PathBuf,
    file: File,
    buffer: Vec<u8>,
    len: u64,
}

/// Fsync the parent directory of `path`, so a just-created or
/// just-renamed directory entry survives a power failure. (Best effort on
/// platforms where directories cannot be opened for sync.)
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let Some(parent) = path.parent() else {
        return Ok(());
    };
    if parent.as_os_str().is_empty() {
        return Ok(());
    }
    match File::open(parent) {
        Ok(dir) => dir.sync_all(),
        // e.g. Windows refuses to open directories; the rename itself is
        // atomic there, only the power-failure window differs.
        Err(_) => Ok(()),
    }
}

impl FileStorage {
    /// Create (truncating any previous log at `path`).
    pub fn create(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        sync_parent_dir(&path)?;
        Ok(FileStorage {
            path,
            file,
            buffer: Vec::new(),
            len: 0,
        })
    }
}

impl Storage for FileStorage {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.buffer.extend_from_slice(bytes);
        self.len += bytes.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        if !self.buffer.is_empty() {
            self.file.write_all(&self.buffer)?;
            self.buffer.clear();
        }
        self.file.sync_data()
    }

    fn reset(&mut self, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.path.with_extension("wal.tmp");
        let mut f = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
        std::fs::rename(&tmp, &self.path)?;
        // Make the rename itself durable: without a directory fsync, a
        // power failure could resurrect the old inode and lose every
        // commit synced to the new one afterwards.
        sync_parent_dir(&self.path)?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.buffer.clear();
        self.len = bytes.len() as u64;
        Ok(())
    }

    fn len(&self) -> u64 {
        self.len
    }
}

/// The shared byte store behind [`MemStorage`] handles.
#[derive(Default)]
struct MemDevice {
    durable: Vec<u8>,
    buffered: Vec<u8>,
}

/// In-memory storage with an explicit durability boundary. Cloning the
/// handle shares the device, so a test can keep one handle while the WAL
/// owns the other, then read [`MemStorage::durable`] (what a crash would
/// preserve) at any point. The writer hands the device only whole sealed
/// buffers, right before syncing them, so the "every appended byte" view
/// lives on the writer: [`Wal::epoch_bytes`](crate::Wal::epoch_bytes).
#[derive(Clone, Default)]
pub struct MemStorage {
    device: Arc<Mutex<MemDevice>>,
}

impl MemStorage {
    /// A fresh empty device.
    #[must_use]
    pub fn new() -> Self {
        MemStorage::default()
    }

    /// The durable prefix: everything up to the last sync.
    #[must_use]
    pub fn durable(&self) -> Vec<u8> {
        self.device.lock().durable.clone()
    }
}

impl Storage for MemStorage {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.device.lock().buffered.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut d = self.device.lock();
        let buffered = std::mem::take(&mut d.buffered);
        d.durable.extend_from_slice(&buffered);
        Ok(())
    }

    fn reset(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut d = self.device.lock();
        d.durable = bytes.to_vec();
        d.buffered.clear();
        Ok(())
    }

    fn len(&self) -> u64 {
        let d = self.device.lock();
        (d.durable.len() + d.buffered.len()) as u64
    }
}

/// A unique scratch path under the system temp dir (no external tempfile
/// crate in this workspace). The directory is created; the caller removes
/// it when done — or leaves it, temp dirs are scratch by definition. The
/// pid and the counter are zero-padded to their types' widths, so under
/// one temp dir a label's paths all have one length, whatever the process.
pub fn scratch_dir(label: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("croesus-wal-{label}-{pid:010}-{n:020}"));
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

#[cfg(test)]
impl MemStorage {
    /// Bytes appended since the last sync.
    #[must_use]
    pub(crate) fn unsynced_len(&self) -> usize {
        self.device.lock().buffered.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_tracks_durability_boundary() {
        let probe = MemStorage::new();
        let mut s = probe.clone();
        s.append(b"aaa").unwrap();
        assert_eq!(probe.durable(), b"");
        assert_eq!(probe.unsynced_len(), 3);
        s.sync().unwrap();
        assert_eq!(probe.durable(), b"aaa");
        s.append(b"bb").unwrap();
        assert_eq!(probe.durable(), b"aaa");
        s.reset(b"cp").unwrap();
        assert_eq!(probe.durable(), b"cp");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn file_storage_roundtrips_through_disk() {
        let dir = scratch_dir("storage-test");
        let path = dir.join("edge-0.wal");
        let mut s = FileStorage::create(&path).unwrap();
        s.append(b"hello ").unwrap();
        s.append(b"wal").unwrap();
        assert_eq!(s.len(), 9);
        s.sync().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"hello wal");
        // Reset replaces contents atomically.
        s.reset(b"checkpoint!").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"checkpoint!");
        s.append(b" tail").unwrap();
        s.sync().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"checkpoint! tail");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unsynced_file_bytes_stay_buffered() {
        let dir = scratch_dir("storage-buf");
        let path = dir.join("buffered.wal");
        let mut s = FileStorage::create(&path).unwrap();
        s.append(b"not yet").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"", "no sync, no bytes");
        s.sync().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"not yet");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
