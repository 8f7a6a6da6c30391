//! Per-edge durability for Croesus: an append-only, CRC-framed
//! redo/undo log with group commit, checkpoints and **apology-aware**
//! crash recovery.
//!
//! The multi-stage model makes recovery unusual. Croesus exposes initial
//! results to clients before the cloud validates them (§3.3.2), so a
//! crashed edge owes more than redo: a transaction whose **initial**
//! commit survived but whose **final** commit did not can never be
//! finished — its final-section input (the cloud labels) died with the
//! process — and the only §4.4-consistent exit is to *retract its effects
//! and apologize*, exactly as a live final section would on a wrong guess.
//!
//! The pieces:
//!
//! * [`frame`] — CRC-32 framing; a torn tail cleanly delimits the valid
//!   prefix.
//! * [`record`] — one frame per record: a whole executed [`StageRecord`]
//!   (write images + commit metadata), a [`RetractRecord`], a 2PC
//!   coordinator decision, or a [`CheckpointRecord`].
//! * [`writer`] — the [`Wal`] appender: one LSN-boundary writer (active
//!   buffer → seal every [`WalConfig::group_commit`] commit points → one
//!   sync per sealed buffer → `last_flushed_lsn`), landed by a
//!   [`FlushDriver`]; scheduled checkpoints that atomically truncate the
//!   log.
//! * [`mod@recover`] — replay: [`recover()`](recover::recover) rebuilds a
//!   [`KvStore`](croesus_store::KvStore) from the valid prefix and
//!   reports the [`unfinalized`](RecoveryReport::unfinalized)
//!   transactions the edge owes apologies for.
//! * [`coalesce`] — one sync window per storage device, shared by the
//!   flusher threads of every edge on it.
//! * [`ship`] — the durable image published for a cloud replica to tail.
//! * [`mode`] — [`DurabilityMode`], the deployment-level switch
//!   (`Croesus::builder().durability(..)`; off by default): a group size
//!   and a flush driver over the same writer.
//!
//! Commit points are **per protocol**: MS-IA and the staged discipline
//! log one at every stage (their stages are client-visible commits);
//! MS-SR logs only final commit (its locks hide earlier stages, so a
//! crash legitimately un-happens an unfinished transaction). The glue
//! that feeds unfinalized transactions through
//! `ApologyManager::retract` lives in `croesus_txn::recovery`, keeping
//! this crate dependent on `croesus-store` alone.
//!
//! ```
//! use croesus_store::{KvStore, TxnId, Value};
//! use croesus_wal::{recover, StageFlags, StageRecord, Wal, WalConfig, WriteImage};
//! use std::sync::Arc;
//!
//! let (wal, probe) = Wal::in_memory(WalConfig::group(4));
//! wal.append_stage(StageRecord {
//!     txn: TxnId(1),
//!     stage: 0,
//!     total: 2,
//!     flags: StageFlags(StageFlags::COMMIT_POINT | StageFlags::REGISTER),
//!     reads: vec![],
//!     writes: vec!["balance".into()],
//!     images: vec![WriteImage {
//!         key: "balance".into(),
//!         pre: None,
//!         post: Some(Arc::new(Value::Int(50))),
//!     }],
//! }).unwrap();
//! wal.flush().unwrap();
//!
//! // Crash: only the durable bytes survive.
//! let report = recover(&probe.durable());
//! assert_eq!(report.store.get(&"balance".into()).as_deref(), Some(&Value::Int(50)));
//! assert_eq!(report.unfinalized, vec![TxnId(1)]); // owes an apology
//! ```

pub mod coalesce;
pub mod frame;
pub mod mode;
pub mod record;
pub mod recover;
pub(crate) use croesus_store::sched;
pub mod ship;
pub mod storage;
pub mod writer;

pub use coalesce::{CoalesceStats, SyncCoalescer};
pub use frame::{crc32, FrameReader, TailState};
pub use mode::DurabilityMode;
pub use record::{
    CheckpointEntry, CheckpointRecord, RetractRecord, StageFlags, StageRecord, WalRecord,
    WriteImage,
};
pub use recover::{recover, recover_file, RecoveryReport, RecoveryState};
pub use ship::{LogShipper, ShipBatch, ShipCursor, ShipFetch};
pub use storage::{scratch_dir, FileStorage, MemStorage, Storage};
pub use writer::{FlushDriver, Wal, WalConfig, WalStats};
