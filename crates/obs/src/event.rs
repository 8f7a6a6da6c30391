//! The typed event vocabulary: everything the stack can say about one
//! transaction or one fleet incident, stamped with deterministic clocks.
//!
//! An [`Event`] carries three coordinates — the emitting edge, the *sim
//! frame clock* at emission, and a monotone per-edge sequence number —
//! plus an optional transaction id and an [`EventKind`] payload. The
//! frame clock is the simulation's own time base, never the wall clock:
//! two runs with the same seed produce byte-identical event streams, so
//! traces can be compared with `==`, attached to deterministic fleet
//! reports, and replayed under the mcheck scheduler.

/// One observed fact about the system, in per-edge emission order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Monotone per-edge sequence number (0, 1, 2, … per edge stream).
    pub seq: u64,
    /// Sim frame clock at emission (frame index, not wall time).
    pub frame: u64,
    /// The edge node that emitted the event.
    pub edge: u32,
    /// The transaction this event belongs to, if any.
    pub txn: Option<u64>,
    /// What happened.
    pub kind: EventKind,
}

/// What happened — the transaction + fleet lifecycle vocabulary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A video frame entered the edge pipeline.
    FrameIngest,
    /// A multi-stage transaction was opened with this many stages.
    TxnBegin {
        /// Total stages the transaction will run.
        stages: u32,
    },
    /// Stage `stage` started executing (locks granted).
    StageStart {
        /// Zero-based stage index.
        stage: u32,
    },
    /// Stage `stage` finished (stage record logged, locks releasable).
    StageEnd {
        /// Zero-based stage index.
        stage: u32,
    },
    /// The initial (stage-0) commit made the guess visible.
    InitialCommit,
    /// The final stage committed; the transaction is terminal.
    FinalCommit,
    /// Bytes were appended to the WAL buffer (not yet durable).
    WalAppend {
        /// Global LSN of the append tail (a byte count that never resets,
        /// not even at a checkpoint).
        lsn: u64,
    },
    /// The WAL was fsynced up to `lsn` within `epoch`.
    WalSync {
        /// The durable boundary: global LSN of the last synced byte.
        lsn: u64,
        /// Checkpoint epoch the sync landed in.
        epoch: u64,
    },
    /// The writer sealed its active buffer onto the queue `step` lands
    /// from; appends continue into the next buffer.
    WalBufferSeal {
        /// Global LSN of the last sealed byte.
        lsn: u64,
    },
    /// A device-level sync window ran, covering this many flushers'
    /// fsync-equivalents in one coalesced round.
    WalCoalescedSync {
        /// Sync requests the window covered (≥ 1).
        requests: u64,
    },
    /// Durable bytes up to `lsn` were published to the log shipper.
    ShipPublish {
        /// Published byte offset within the epoch (≤ the synced lsn).
        lsn: u64,
        /// Checkpoint epoch the offset is relative to.
        epoch: u64,
    },
    /// The cloud replica validated and accepted a shipped batch.
    ShipAccept {
        /// Bytes accepted this round.
        bytes: u64,
    },
    /// The cloud replica rejected a damaged batch (cursor unmoved).
    ShipReject,
    /// The cloud's verdict on one frame's initial guesses arrived.
    CloudVerdict {
        /// Initial labels the cloud confirmed.
        correct: u32,
        /// Initial labels the cloud corrected.
        corrected: u32,
        /// Initial labels the cloud struck as wrong.
        erroneous: u32,
        /// Objects the edge missed entirely.
        missed: u32,
    },
    /// A committed guess was rolled back (cascades included).
    Retract,
    /// An apology was issued to clients of a retracted transaction.
    Apology,
    /// The fleet supervisor missed this edge's heartbeat this frame.
    HeartbeatMiss,
    /// Failover began: the replica log is being recovered.
    TakeoverStart,
    /// Failover finished: a replacement node is serving.
    TakeoverEnd {
        /// Unfinalized transactions recovery retracted.
        retractions: u32,
    },
    /// A deposed or stale node was fenced off from the fleet.
    Fence,
    /// The 2PC coordinator logged its commit/abort decision.
    TpcDecision {
        /// `true` for commit, `false` for abort.
        commit: bool,
    },
}

impl EventKind {
    /// Stable display / counter name for the kind.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::FrameIngest => "frame_ingest",
            EventKind::TxnBegin { .. } => "txn_begin",
            EventKind::StageStart { .. } => "stage_start",
            EventKind::StageEnd { .. } => "stage_end",
            EventKind::InitialCommit => "initial_commit",
            EventKind::FinalCommit => "final_commit",
            EventKind::WalAppend { .. } => "wal_append",
            EventKind::WalSync { .. } => "wal_sync",
            EventKind::WalBufferSeal { .. } => "wal_buffer_seal",
            EventKind::WalCoalescedSync { .. } => "wal_coalesced_sync",
            EventKind::ShipPublish { .. } => "ship_publish",
            EventKind::ShipAccept { .. } => "ship_accept",
            EventKind::ShipReject => "ship_reject",
            EventKind::CloudVerdict { .. } => "cloud_verdict",
            EventKind::Retract => "retract",
            EventKind::Apology => "apology",
            EventKind::HeartbeatMiss => "heartbeat_miss",
            EventKind::TakeoverStart => "takeover_start",
            EventKind::TakeoverEnd { .. } => "takeover_end",
            EventKind::Fence => "fence",
            EventKind::TpcDecision { .. } => "tpc_decision",
        }
    }

    /// Dense index used for the per-kind atomic counters.
    #[must_use]
    pub(crate) fn index(self) -> usize {
        match self {
            EventKind::FrameIngest => 0,
            EventKind::TxnBegin { .. } => 1,
            EventKind::StageStart { .. } => 2,
            EventKind::StageEnd { .. } => 3,
            EventKind::InitialCommit => 4,
            EventKind::FinalCommit => 5,
            EventKind::WalAppend { .. } => 6,
            EventKind::WalSync { .. } => 7,
            EventKind::WalBufferSeal { .. } => 8,
            EventKind::WalCoalescedSync { .. } => 9,
            EventKind::ShipPublish { .. } => 10,
            EventKind::ShipAccept { .. } => 11,
            EventKind::ShipReject => 12,
            EventKind::CloudVerdict { .. } => 13,
            EventKind::Retract => 14,
            EventKind::Apology => 15,
            EventKind::HeartbeatMiss => 16,
            EventKind::TakeoverStart => 17,
            EventKind::TakeoverEnd { .. } => 18,
            EventKind::Fence => 19,
            EventKind::TpcDecision { .. } => 20,
        }
    }

    /// How many distinct kinds exist (size of the counter array).
    pub(crate) const COUNT: usize = 21;

    /// All counter names, in dense counter-index order.
    #[must_use]
    pub fn names() -> [&'static str; EventKind::COUNT] {
        [
            "frame_ingest",
            "txn_begin",
            "stage_start",
            "stage_end",
            "initial_commit",
            "final_commit",
            "wal_append",
            "wal_sync",
            "wal_buffer_seal",
            "wal_coalesced_sync",
            "ship_publish",
            "ship_accept",
            "ship_reject",
            "cloud_verdict",
            "retract",
            "apology",
            "heartbeat_miss",
            "takeover_start",
            "takeover_end",
            "fence",
            "tpc_decision",
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_match_indices() {
        let names = EventKind::names();
        for (kind, want) in [
            (EventKind::FrameIngest, "frame_ingest"),
            (EventKind::TxnBegin { stages: 2 }, "txn_begin"),
            (EventKind::StageStart { stage: 0 }, "stage_start"),
            (EventKind::StageEnd { stage: 0 }, "stage_end"),
            (EventKind::InitialCommit, "initial_commit"),
            (EventKind::FinalCommit, "final_commit"),
            (EventKind::WalAppend { lsn: 0 }, "wal_append"),
            (EventKind::WalSync { lsn: 0, epoch: 0 }, "wal_sync"),
            (EventKind::WalBufferSeal { lsn: 0 }, "wal_buffer_seal"),
            (
                EventKind::WalCoalescedSync { requests: 1 },
                "wal_coalesced_sync",
            ),
            (EventKind::ShipPublish { lsn: 0, epoch: 0 }, "ship_publish"),
            (EventKind::ShipAccept { bytes: 0 }, "ship_accept"),
            (EventKind::ShipReject, "ship_reject"),
            (
                EventKind::CloudVerdict {
                    correct: 0,
                    corrected: 0,
                    erroneous: 0,
                    missed: 0,
                },
                "cloud_verdict",
            ),
            (EventKind::Retract, "retract"),
            (EventKind::Apology, "apology"),
            (EventKind::HeartbeatMiss, "heartbeat_miss"),
            (EventKind::TakeoverStart, "takeover_start"),
            (EventKind::TakeoverEnd { retractions: 0 }, "takeover_end"),
            (EventKind::Fence, "fence"),
            (EventKind::TpcDecision { commit: true }, "tpc_decision"),
        ] {
            assert_eq!(kind.name(), want);
            assert_eq!(names[kind.index()], want);
        }
    }
}
