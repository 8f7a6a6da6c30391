//! Deterministic-scheduler model checking for Croesus: explore **every
//! interleaving** of small protocol scenarios and **every crash point**
//! inside each interleaving, checking the DESIGN.md commit-point table and
//! the shipping/recovery contracts as executable invariants.
//!
//! The checker is loom-shaped but home-grown (no new dependencies):
//!
//! * [`scheduler`] — virtual tasks (one OS thread each) hand control to a
//!   driver at instrumented yield points (`croesus_store::sched`, enabled
//!   by the `mcheck` feature on the store/wal/txn crates). Only one task
//!   runs between points, so a schedule **is** its decision list; replays
//!   are exact.
//! * [`mod@explore`] — exhaustive DFS over the decision tree with state-hash
//!   pruning, falling back to seeded random sampling when the space
//!   outgrows the budget. Violations carry a replayable [`Trace`]
//!   (`seed` + decision list).
//! * [`crash`] — within a schedule's WAL byte stream, crash at every
//!   frame boundary: recover the prefix (raw and apology-aware), compare
//!   with an independent record-interpreting [`Oracle`], and enforce the
//!   §4.4 contract (unfinalized ⇒ retracted + apologized).
//! * [`scenarios`] — MS-SR / MS-IA / staged scripts over the real
//!   executors, the MS-SR commit-point mutation self-test, a Block-policy
//!   deadlock demo, a 2PC coordinator-crash scenario, and the WAL's buffer
//!   pipeline under the manual and inline flush drivers (with its
//!   publish-before-sync mutation self-test). All three kinds of world
//!   share one end-of-schedule verdict, store fingerprint, flush-and-sweep
//!   step and trace check. The edge runtime's worker pool is not among
//!   them: std channels carry all its handoffs, so it has no wait of its
//!   own to explore.
//!
//! Production builds are untouched: the instrumentation compiles to
//! nothing unless the `mcheck` feature is enabled, and only this crate
//! (a dev-dependency of the workspace root) enables it.

pub mod crash;
pub mod explore;
pub mod scenarios;
pub mod scheduler;

pub use crash::{sweep, CrashCut, Oracle};
pub use explore::{explore, replay, Config, Report, Scenario, Violation};
pub use scenarios::{
    ms_sr_block_deadlock, ms_sr_commit_point, retract_self, three_txn_hot_key, two_txn_two_stage,
    wal_pipeline, Ack, ProtoWorld, ProtocolScenario, StageOp, StageScript, TpcCoordinatorCrash,
    TpcWorld, TxnScript, WalPipelineScenario, WalPipelineWorld,
};
pub use scheduler::{advance, Decision, RunEnd, SchedStats, Trace};
