//! Deployment-level durability selection.
//!
//! [`DurabilityMode`] is what `Croesus::builder().durability(..)` takes:
//! it names a directory and a flush policy over the one writer — a group
//! size ([`WalConfig`]) and a [`FlushDriver`] — and the builder opens one
//! log per edge node (`edge-<i>.wal`) — per-edge logs because each edge
//! owns its partition of the data (§4.5) and recovers independently.

use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use crate::coalesce::SyncCoalescer;
use crate::storage::FileStorage;
use crate::writer::{FlushDriver, Wal, WalConfig};

/// How (and whether) a deployment logs transactions durably.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum DurabilityMode {
    /// No logging at all — byte-identical behaviour with the pre-WAL
    /// system. The default.
    #[default]
    Disabled,
    /// Log with group commit: one durable sync per `group` commit points,
    /// paid inline by the commit point that fills the group.
    GroupCommit {
        /// Directory holding the per-edge log files.
        dir: PathBuf,
        /// Commit points per sync (≥ 1).
        group: usize,
    },
    /// Log with a sync at every commit point (group size 1).
    Strict {
        /// Directory holding the per-edge log files.
        dir: PathBuf,
    },
    /// Group commit with the sync moved off the commit path: every
    /// `group` commit points the buffer seals onto a dedicated flusher
    /// thread, which syncs it while new appends keep going. Group-commit
    /// loss window, without the inline sync stall.
    Pipelined {
        /// Directory holding the per-edge log files.
        dir: PathBuf,
        /// Commit points per buffer seal (≥ 1).
        group: usize,
        /// Share one sync window across every edge in the deployment
        /// (they share `dir`, hence a device) via a [`SyncCoalescer`].
        coalesce: bool,
    },
}

impl DurabilityMode {
    /// Group commit in `dir` with the default group size.
    #[must_use]
    pub fn group_commit(dir: impl Into<PathBuf>) -> Self {
        DurabilityMode::GroupCommit {
            dir: dir.into(),
            group: WalConfig::default().group_commit,
        }
    }

    /// Pipelined logging in `dir` with the default group size and
    /// cross-edge sync coalescing on.
    #[must_use]
    pub fn pipelined(dir: impl Into<PathBuf>) -> Self {
        DurabilityMode::Pipelined {
            dir: dir.into(),
            group: WalConfig::default().group_commit,
            coalesce: true,
        }
    }

    /// A shared per-device sync window for this deployment, when the
    /// mode asks for one. The builder calls this once and threads the
    /// same `Arc` through every [`DurabilityMode::open_edge_wal_with`].
    #[must_use]
    pub fn device_coalescer(&self) -> Option<Arc<SyncCoalescer>> {
        match self {
            DurabilityMode::Pipelined { coalesce: true, .. } => {
                Some(Arc::new(SyncCoalescer::new()))
            }
            _ => None,
        }
    }

    /// Whether logging is enabled.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        !matches!(self, DurabilityMode::Disabled)
    }

    /// The log file path for edge `i`, if logging is enabled.
    #[must_use]
    pub fn edge_log_path(&self, edge: usize) -> Option<PathBuf> {
        let dir = match self {
            DurabilityMode::Disabled => return None,
            DurabilityMode::GroupCommit { dir, .. }
            | DurabilityMode::Strict { dir }
            | DurabilityMode::Pipelined { dir, .. } => dir,
        };
        Some(dir.join(format!("edge-{edge}.wal")))
    }

    /// The writer configuration this mode implies.
    #[must_use]
    pub fn wal_config(&self) -> WalConfig {
        match self {
            DurabilityMode::Disabled => WalConfig::default(),
            DurabilityMode::Strict { .. } => WalConfig::strict(),
            DurabilityMode::GroupCommit { group, .. } => WalConfig::group(*group),
            DurabilityMode::Pipelined { group, .. } => WalConfig::group(*group),
        }
    }

    /// Who lands sealed buffers under this mode. The coalescer is
    /// deployment-shared state the caller owns; see
    /// [`DurabilityMode::device_coalescer`].
    #[must_use]
    pub fn flush_driver(&self, coalescer: Option<Arc<SyncCoalescer>>) -> FlushDriver {
        match self {
            DurabilityMode::Pipelined { .. } => FlushDriver::Thread { coalescer },
            _ => FlushDriver::Inline,
        }
    }

    /// Open a fresh log for edge `i` (truncating a previous one — recover
    /// from it first if its contents matter), threading the deployment's
    /// shared device coalescer through. `Ok(None)` when disabled.
    pub fn open_edge_wal_with(
        &self,
        edge: usize,
        coalescer: Option<Arc<SyncCoalescer>>,
    ) -> io::Result<Option<Wal>> {
        let Some(path) = self.edge_log_path(edge) else {
            return Ok(None);
        };
        Ok(Some(Wal::with_storage(
            Box::new(FileStorage::create(path)?),
            self.wal_config(),
            self.flush_driver(coalescer),
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_default_and_opens_nothing() {
        let mode = DurabilityMode::default();
        assert!(!mode.is_enabled());
        assert_eq!(mode.edge_log_path(0), None);
        assert!(mode.open_edge_wal_with(0, None).unwrap().is_none());
    }

    #[test]
    fn modes_map_to_configs() {
        let dir = PathBuf::from("/tmp/x");
        assert_eq!(
            DurabilityMode::Strict { dir: dir.clone() }.wal_config(),
            WalConfig::strict()
        );
        assert_eq!(
            DurabilityMode::GroupCommit {
                dir: dir.clone(),
                group: 16
            }
            .wal_config()
            .group_commit,
            16
        );
        assert!(matches!(
            DurabilityMode::pipelined(&dir).flush_driver(None),
            FlushDriver::Thread { coalescer: None }
        ));
        assert!(matches!(
            DurabilityMode::group_commit(&dir).flush_driver(None),
            FlushDriver::Inline
        ));
        assert_eq!(
            DurabilityMode::group_commit(&dir).edge_log_path(3),
            Some(dir.join("edge-3.wal"))
        );
    }

    #[test]
    fn open_edge_wal_creates_the_file() {
        let dir = crate::storage::scratch_dir("mode-test");
        let mode = DurabilityMode::Strict { dir: dir.clone() };
        let wal = mode.open_edge_wal_with(2, None).unwrap().unwrap();
        wal.flush().unwrap();
        assert!(dir.join("edge-2.wal").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
