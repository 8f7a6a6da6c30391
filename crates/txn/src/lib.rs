//! Multi-stage transactions (§4 of the Croesus paper).
//!
//! A multi-stage transaction has m ≥ 2 sections: an **initial** section,
//! triggered by the fast edge model's labels, and a **final** section,
//! triggered when the accurate cloud model's labels arrive (plus optional
//! intermediate stages, §3.5). If the initial section commits, the final
//! section *must* commit — that guarantee is the crux of the model, and the
//! consistency protocols differ in how they pay for it.
//!
//! Every protocol is one [`Executor`]: a [`ProtocolKind`]'s lock schedule
//! over shared [`ExecutorCore`] state, so any driver runs any protocol
//! through the same concrete type:
//!
//! * **MS-SR** ([`ms_sr`], [`ProtocolKind::MsSr`]) mimics serializability:
//!   a transaction's sections appear back-to-back in the serial order. The
//!   Two-Stage 2PL protocol (Algorithm 1) achieves this by acquiring the
//!   *later* stages' locks before initial commit and holding everything
//!   until final commit — which means locks are held across the edge→cloud
//!   round trip.
//! * **MS-IA** ([`ms_ia`], [`ProtocolKind::MsIa`]) adapts invariant
//!   confluence and apologies: every stage commits and releases its locks
//!   immediately (apply-then-check); the final section later reconciles
//!   errors, issuing [`apology`] retractions — cascading if needed — while
//!   invariants ([`invariant`]) bound what must be undone.
//! * **Staged** ([`staged`], [`ProtocolKind::Staged`]) generalizes the
//!   MS-IA discipline to m stages, keeping every stage's footprint
//!   retractable.
//!
//! ```
//! use std::sync::Arc;
//! use croesus_store::{KvStore, LockManager, LockPolicy, TxnId};
//! use croesus_txn::{ExecutorCore, ProtocolKind, RwSet};
//!
//! for kind in ProtocolKind::ALL {
//!     let protocol = kind.build(ExecutorCore::new(
//!         Arc::new(KvStore::new()),
//!         Arc::new(LockManager::new(kind.default_lock_policy())),
//!     ));
//!     let rw = RwSet::new().write("x");
//!     let handle = protocol.begin(TxnId(1), &[rw.clone(), rw.clone()]);
//!     let (_, next) = protocol.stage(handle, &rw, |ctx| ctx.write("x", 1)).unwrap();
//!     protocol.stage(next.unwrap(), &rw, |ctx| ctx.write("x", 2)).unwrap();
//!     assert_eq!(protocol.stats().snapshot().commits, 1);
//! }
//! ```
//!
//! Supporting machinery: a [`model`] for sections/read-write sets, a
//! [`history`] recorder with checkers for the MS-SR/MS-IA ordering
//! conditions, protocol [`stats`], a single-threaded [`sequencer`] that
//! orders conflicting transactions into non-overlapping waves (the paper's
//! 0%-abort MS-IA configuration), and [`tpc`] two-phase commit for
//! multi-partition transactions (§4.5).
//!
//! Durability: attach a `croesus_wal::Wal` via [`ExecutorCore::with_wal`]
//! and every protocol logs its stages through the same hook — commit
//! points at every stage for the releasing protocols, at final commit
//! only for MS-SR. After a crash, [`recovery`] replays the log and feeds
//! initially-committed-but-unfinalized transactions through
//! [`ApologyManager::retract`], so restarts keep the §4.4 contract.

pub mod apology;
pub mod history;
pub mod invariant;
pub mod model;
pub mod ms_ia;
pub mod ms_sr;
pub mod protocol;
pub mod recovery;
pub(crate) use croesus_store::sched;
pub mod runtime;
pub mod sequencer;
pub mod staged;
pub mod stats;
pub mod tpc;

pub use apology::{Apology, ApologyManager, RetractionReport};
pub use history::{HistoryChecker, HistoryRecorder, SectionEvent, SectionKind};
pub use invariant::{
    merge_decision, FnInvariant, Invariant, InvariantViolation, MergeOutcome, NonNegativeInvariant,
};
pub use model::{RwSet, SectionCtx, SectionOutput, TxnError};
pub use protocol::{Executor, ExecutorCore, ProtocolKind, StageCtx, StageOutcome, TxnHandle};
pub use recovery::{recover_edge, recover_edge_file, RecoveredEdge};
pub use runtime::{current_worker, WorkerPool};
pub use sequencer::Sequencer;
pub use stats::{ProtocolStats, StatsSnapshot};
pub use tpc::{Coordinator, Participant, PartitionParticipant, TpcOutcome, Vote};
