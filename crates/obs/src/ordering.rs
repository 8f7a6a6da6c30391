//! The executable event-ordering contract: replay a collected stream
//! and reject it if any happens-before invariant is violated.
//!
//! This is observability as correctness tooling, the same move the
//! mcheck crate made for interleavings: the trace a run emits is not
//! just for humans, it is *checkable*. The contract (one invariant per
//! row, mirrored in DESIGN.md):
//!
//! | invariant | meaning |
//! |---|---|
//! | `seq-monotone` | per-edge sequence strictly increasing, frame clock non-decreasing |
//! | `txn-begin-first` | no lifecycle event for a txn before its `TxnBegin` (a repeated `TxnBegin` opens a new *incarnation* — crash recovery reuses ids that never became durable) |
//! | `stage-start-before-end` | every `StageEnd(s)` closes an open `StageStart(s)` |
//! | `initial-before-final` | `FinalCommit` only after `InitialCommit` |
//! | `terminal-event-last` | no lifecycle event for a txn after its `FinalCommit` |
//! | `shipped-subset-durable` | `ShipPublish(lsn, epoch)` only after `WalSync(lsn', epoch)` with `lsn' ≥ lsn` |
//! | `buffer-seal-monotone` | per-edge `WalBufferSeal` LSNs never go backwards within one writer (LSNs are global and never reset at a checkpoint; a `WalAppend` at or below the previous one can only be a writer restarted after a crash, whose LSN space starts over) |
//! | `seal-covers-appends` | a `WalBufferSeal(lsn)` seals everything appended: `lsn ≥` every `WalAppend` LSN that writer emitted so far |
//! | `coalesced-window-nonempty` | every `WalCoalescedSync` window covers ≥ 1 request |
//! | `retract-implies-apology` | every `Retract` is followed by an `Apology` for the same txn |
//! | `takeover-sequence` | `HeartbeatMiss` precedes `TakeoverStart`; `Fence`/`TakeoverEnd` only inside an open takeover |
//!
//! Retract/Apology after `FinalCommit` are deliberately *allowed*: a
//! retraction cascade (or crash recovery) may roll back transactions
//! whose dependents already finalized.
//!
//! Streams truncated by the bounded ring (dropped > 0) are checked in
//! *pre-window* mode: per-txn invariants are skipped for transactions
//! whose `TxnBegin` may have been dropped, but stream-shape invariants
//! (`seq-monotone`, `shipped-subset-durable`) still apply.

use std::collections::HashMap;
use std::fmt;

use crate::event::{Event, EventKind};
use crate::sink::Obs;

/// A rejected stream: which invariant broke, where, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Name of the violated invariant (stable, test-assertable).
    pub invariant: &'static str,
    /// The edge stream the violation was found in.
    pub edge: u32,
    /// Sequence number of the offending event.
    pub seq: u64,
    /// Human-readable detail.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ordering violation [{}] at edge {} seq {}: {}",
            self.invariant, self.edge, self.seq, self.detail
        )
    }
}

impl std::error::Error for Violation {}

/// What a clean check covered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OrderingReport {
    /// Events replayed.
    pub events: usize,
    /// Distinct edge streams seen.
    pub edges: usize,
    /// Distinct transactions tracked.
    pub txns: usize,
    /// Transactions that reached `FinalCommit` inside the window.
    pub finalized: usize,
}

#[derive(Default)]
struct TxnState {
    begun: bool,
    initial: bool,
    finalized: bool,
    open_stage: Option<u32>,
    /// Retracts not yet matched by an apology.
    pending_retracts: u64,
    last_seq: u64,
}

#[derive(Default)]
struct EdgeState {
    last_seq: Option<u64>,
    last_frame: u64,
    /// Highest synced lsn per WAL epoch.
    synced: HashMap<u64, u64>,
    /// Last `WalAppend` lsn of the current writer incarnation.
    max_append: u64,
    /// Highest `WalBufferSeal` lsn of the current writer incarnation.
    max_seal: u64,
    /// Heartbeat misses since the last completed takeover.
    misses: u64,
    takeover_open: bool,
    /// Once an edge has failed over, fencing its deposed ghost is
    /// legitimate at any later point (e.g. on resurrection).
    fence_ok: bool,
}

/// Check one edge-grouped event stream against the ordering contract.
///
/// `pre_window` relaxes per-transaction invariants for transactions
/// first seen mid-stream (use when the ring dropped events). Events
/// must be grouped by edge with each edge's events in emission order —
/// exactly what [`Obs::events`] returns.
pub fn check_stream(events: &[Event], pre_window: bool) -> Result<OrderingReport, Violation> {
    let mut edges: HashMap<u32, EdgeState> = HashMap::new();
    let mut txns: HashMap<(u32, u64), TxnState> = HashMap::new();

    for event in events {
        let edge = edges.entry(event.edge).or_default();

        // seq-monotone: strictly increasing seq, non-decreasing frame.
        if let Some(prev) = edge.last_seq {
            if event.seq <= prev {
                return Err(violation(
                    "seq-monotone",
                    event,
                    format!("seq {} after seq {prev}", event.seq),
                ));
            }
            if event.frame < edge.last_frame {
                return Err(violation(
                    "seq-monotone",
                    event,
                    format!(
                        "frame clock went backwards: {} after {}",
                        event.frame, edge.last_frame
                    ),
                ));
            }
        }
        edge.last_seq = Some(event.seq);
        edge.last_frame = edge.last_frame.max(event.frame);

        match event.kind {
            EventKind::WalAppend { lsn } => {
                // Within one writer LSNs strictly increase (appends are
                // emitted under its state lock), so an append at or below
                // the last one is a writer resumed in place after a
                // crash: the seal rules track it from scratch.
                if lsn <= edge.max_append {
                    edge.max_seal = 0;
                }
                edge.max_append = lsn;
            }
            EventKind::WalBufferSeal { lsn } => {
                if lsn < edge.max_seal {
                    return Err(violation(
                        "buffer-seal-monotone",
                        event,
                        format!("seal lsn {lsn} after seal lsn {}", edge.max_seal),
                    ));
                }
                if lsn < edge.max_append {
                    return Err(violation(
                        "seal-covers-appends",
                        event,
                        format!(
                            "seal lsn {lsn} below the appended high-water mark {}",
                            edge.max_append
                        ),
                    ));
                }
                edge.max_seal = lsn;
            }
            EventKind::WalCoalescedSync { requests: 0 } => {
                return Err(violation(
                    "coalesced-window-nonempty",
                    event,
                    "a coalesced sync window covered zero requests".to_string(),
                ));
            }
            EventKind::WalCoalescedSync { .. } => {}
            EventKind::WalSync { lsn, epoch } => {
                let cur = edge.synced.entry(epoch).or_insert(0);
                *cur = (*cur).max(lsn);
            }
            EventKind::ShipPublish { lsn, epoch } => {
                let durable = edge.synced.get(&epoch).copied().unwrap_or(0);
                if lsn > durable {
                    return Err(violation(
                        "shipped-subset-durable",
                        event,
                        format!(
                            "published lsn {lsn} in epoch {epoch} but only {durable} bytes synced"
                        ),
                    ));
                }
            }
            EventKind::HeartbeatMiss => edge.misses += 1,
            EventKind::TakeoverStart => {
                if edge.misses == 0 && !pre_window {
                    return Err(violation(
                        "takeover-sequence",
                        event,
                        "TakeoverStart without a preceding HeartbeatMiss".to_string(),
                    ));
                }
                if edge.takeover_open {
                    return Err(violation(
                        "takeover-sequence",
                        event,
                        "TakeoverStart while a takeover is already in progress".to_string(),
                    ));
                }
                edge.takeover_open = true;
                edge.fence_ok = true;
            }
            EventKind::Fence if !edge.fence_ok && !pre_window => {
                return Err(violation(
                    "takeover-sequence",
                    event,
                    "Fence before any TakeoverStart".to_string(),
                ));
            }
            EventKind::TakeoverEnd { .. } => {
                if !edge.takeover_open {
                    return Err(violation(
                        "takeover-sequence",
                        event,
                        "TakeoverEnd without an open TakeoverStart".to_string(),
                    ));
                }
                edge.takeover_open = false;
                edge.misses = 0;
                // A replacement writer restarts its LSN space; the seal
                // rules track the new incarnation from scratch.
                edge.max_append = 0;
                edge.max_seal = 0;
            }
            _ => {}
        }

        let Some(txn_id) = event.txn else { continue };
        let key = (event.edge, txn_id);
        let known = txns.contains_key(&key);
        let txn = txns.entry(key).or_default();
        txn.last_seq = event.seq;

        // In pre-window mode, a transaction first seen via a non-begin
        // event is assumed to have begun before the window.
        let assumed_begun =
            pre_window && !known && !matches!(event.kind, EventKind::TxnBegin { .. });
        if assumed_begun {
            txn.begun = true;
            txn.initial = true;
        }

        match event.kind {
            EventKind::TxnBegin { .. } => {
                // A repeated TxnBegin opens a *new incarnation*: crash
                // recovery restarts the id counter at the durable
                // high-water mark, so ids whose commits never became
                // durable (or never reached the replica) are legitimately
                // reused by the replacement node on the same stream. The
                // previous incarnation's unmatched retracts still owe
                // their apologies.
                let pending = txn.pending_retracts;
                *txn = TxnState {
                    begun: true,
                    pending_retracts: pending,
                    last_seq: event.seq,
                    ..TxnState::default()
                };
            }
            EventKind::StageStart { stage } => {
                if !txn.begun {
                    return Err(violation(
                        "txn-begin-first",
                        event,
                        format!("StageStart({stage}) before TxnBegin for txn {txn_id}"),
                    ));
                }
                if txn.finalized {
                    return Err(violation(
                        "terminal-event-last",
                        event,
                        format!("StageStart({stage}) after FinalCommit for txn {txn_id}"),
                    ));
                }
                if let Some(open) = txn.open_stage {
                    return Err(violation(
                        "stage-start-before-end",
                        event,
                        format!("StageStart({stage}) while stage {open} is still open"),
                    ));
                }
                txn.open_stage = Some(stage);
            }
            EventKind::StageEnd { stage } => {
                if txn.finalized {
                    return Err(violation(
                        "terminal-event-last",
                        event,
                        format!("StageEnd({stage}) after FinalCommit for txn {txn_id}"),
                    ));
                }
                match txn.open_stage {
                    Some(open) if open == stage => txn.open_stage = None,
                    Some(open) => {
                        return Err(violation(
                            "stage-start-before-end",
                            event,
                            format!("StageEnd({stage}) while stage {open} is open"),
                        ));
                    }
                    None => {
                        if !assumed_begun && !pre_window {
                            return Err(violation(
                                "stage-start-before-end",
                                event,
                                format!("StageEnd({stage}) without a StageStart"),
                            ));
                        }
                    }
                }
            }
            EventKind::InitialCommit => {
                if !txn.begun {
                    return Err(violation(
                        "txn-begin-first",
                        event,
                        format!("InitialCommit before TxnBegin for txn {txn_id}"),
                    ));
                }
                if txn.finalized {
                    return Err(violation(
                        "terminal-event-last",
                        event,
                        format!("InitialCommit after FinalCommit for txn {txn_id}"),
                    ));
                }
                txn.initial = true;
            }
            EventKind::FinalCommit => {
                if !txn.begun {
                    return Err(violation(
                        "txn-begin-first",
                        event,
                        format!("FinalCommit before TxnBegin for txn {txn_id}"),
                    ));
                }
                if txn.finalized {
                    return Err(violation(
                        "terminal-event-last",
                        event,
                        format!("duplicate FinalCommit for txn {txn_id}"),
                    ));
                }
                if !txn.initial {
                    return Err(violation(
                        "initial-before-final",
                        event,
                        format!("FinalCommit before InitialCommit for txn {txn_id}"),
                    ));
                }
                txn.finalized = true;
            }
            EventKind::Retract => txn.pending_retracts += 1,
            EventKind::Apology => txn.pending_retracts = txn.pending_retracts.saturating_sub(1),
            _ => {}
        }
    }

    // retract-implies-apology is an end-of-stream obligation.
    for ((edge, txn_id), txn) in &txns {
        if txn.pending_retracts > 0 {
            return Err(Violation {
                invariant: "retract-implies-apology",
                edge: *edge,
                seq: txn.last_seq,
                detail: format!(
                    "txn {txn_id} was retracted {} time(s) without a matching apology",
                    txn.pending_retracts
                ),
            });
        }
    }

    Ok(OrderingReport {
        events: events.len(),
        edges: edges.len(),
        txns: txns.len(),
        finalized: txns.values().filter(|t| t.finalized).count(),
    })
}

/// Check everything a collector gathered, honouring ring truncation.
pub fn check_obs(obs: &Obs) -> Result<OrderingReport, Violation> {
    check_stream(&obs.events(), obs.dropped() > 0)
}

fn violation(invariant: &'static str, event: &Event, detail: String) -> Violation {
    Violation {
        invariant,
        edge: event.edge,
        seq: event.seq,
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, txn: Option<u64>, kind: EventKind) -> Event {
        Event {
            seq,
            frame: seq / 4,
            edge: 0,
            txn,
            kind,
        }
    }

    fn clean_txn_stream() -> Vec<Event> {
        vec![
            ev(0, None, EventKind::FrameIngest),
            ev(1, Some(1), EventKind::TxnBegin { stages: 2 }),
            ev(2, Some(1), EventKind::StageStart { stage: 0 }),
            ev(3, Some(1), EventKind::StageEnd { stage: 0 }),
            ev(4, Some(1), EventKind::InitialCommit),
            ev(5, None, EventKind::WalAppend { lsn: 100 }),
            ev(6, None, EventKind::WalSync { lsn: 100, epoch: 0 }),
            ev(7, None, EventKind::ShipPublish { lsn: 100, epoch: 0 }),
            ev(8, Some(1), EventKind::StageStart { stage: 1 }),
            ev(9, Some(1), EventKind::StageEnd { stage: 1 }),
            ev(10, Some(1), EventKind::FinalCommit),
        ]
    }

    #[test]
    fn clean_stream_passes() {
        let report = check_stream(&clean_txn_stream(), false).expect("clean stream");
        assert_eq!(report.events, 11);
        assert_eq!(report.edges, 1);
        assert_eq!(report.txns, 1);
        assert_eq!(report.finalized, 1);
    }

    #[test]
    fn reordered_stream_is_rejected_naming_the_invariant() {
        // Swap StageStart(0) and TxnBegin: lifecycle before begin.
        let mut events = clean_txn_stream();
        events.swap(1, 2);
        // Re-stamp seqs so only the *logical* order is wrong.
        for (i, e) in events.iter_mut().enumerate() {
            e.seq = i as u64;
        }
        let err = check_stream(&events, false).expect_err("reordered stream must be rejected");
        assert_eq!(err.invariant, "txn-begin-first");
        let msg = err.to_string();
        assert!(
            msg.contains("txn-begin-first"),
            "message must name the invariant: {msg}"
        );
    }

    #[test]
    fn publish_beyond_sync_is_rejected() {
        let events = vec![
            ev(0, None, EventKind::WalSync { lsn: 50, epoch: 0 }),
            ev(1, None, EventKind::ShipPublish { lsn: 51, epoch: 0 }),
        ];
        let err = check_stream(&events, false).expect_err("shipped beyond durable");
        assert_eq!(err.invariant, "shipped-subset-durable");
    }

    #[test]
    fn publish_in_new_epoch_needs_new_sync() {
        let events = vec![
            ev(0, None, EventKind::WalSync { lsn: 500, epoch: 0 }),
            ev(1, None, EventKind::ShipPublish { lsn: 10, epoch: 1 }),
        ];
        let err = check_stream(&events, false).expect_err("epoch-crossing publish");
        assert_eq!(err.invariant, "shipped-subset-durable");
    }

    #[test]
    fn stage_end_without_start_is_rejected() {
        let events = vec![
            ev(0, Some(1), EventKind::TxnBegin { stages: 2 }),
            ev(1, Some(1), EventKind::StageEnd { stage: 0 }),
        ];
        let err = check_stream(&events, false).expect_err("end without start");
        assert_eq!(err.invariant, "stage-start-before-end");
    }

    #[test]
    fn lifecycle_after_final_commit_is_rejected() {
        let mut events = clean_txn_stream();
        events.push(ev(11, Some(1), EventKind::StageStart { stage: 1 }));
        let err = check_stream(&events, false).expect_err("lifecycle after final");
        assert_eq!(err.invariant, "terminal-event-last");
    }

    #[test]
    fn retract_after_final_commit_is_allowed_with_apology() {
        let mut events = clean_txn_stream();
        events.push(ev(11, Some(1), EventKind::Retract));
        events.push(ev(12, Some(1), EventKind::Apology));
        check_stream(&events, false).expect("cascade retraction of a finalized dependent");
    }

    #[test]
    fn retract_without_apology_is_rejected() {
        let mut events = clean_txn_stream();
        events.push(ev(11, Some(1), EventKind::Retract));
        let err = check_stream(&events, false).expect_err("unapologetic retract");
        assert_eq!(err.invariant, "retract-implies-apology");
    }

    #[test]
    fn takeover_without_heartbeat_miss_is_rejected() {
        let events = vec![ev(0, None, EventKind::TakeoverStart)];
        let err = check_stream(&events, false).expect_err("takeover from nowhere");
        assert_eq!(err.invariant, "takeover-sequence");
    }

    #[test]
    fn full_takeover_sequence_passes() {
        let events = vec![
            ev(0, None, EventKind::HeartbeatMiss),
            ev(1, None, EventKind::HeartbeatMiss),
            ev(2, None, EventKind::TakeoverStart),
            ev(3, None, EventKind::Fence),
            ev(4, None, EventKind::TakeoverEnd { retractions: 1 }),
        ];
        check_stream(&events, false).expect("canonical failover sequence");
    }

    #[test]
    fn non_monotone_seq_is_rejected() {
        let mut events = clean_txn_stream();
        events[5].seq = 3; // duplicate/backwards
        let err = check_stream(&events, false).expect_err("seq went backwards");
        assert_eq!(err.invariant, "seq-monotone");
    }

    #[test]
    fn final_commit_without_initial_is_rejected() {
        let events = vec![
            ev(0, Some(9), EventKind::TxnBegin { stages: 2 }),
            ev(1, Some(9), EventKind::FinalCommit),
        ];
        let err = check_stream(&events, false).expect_err("final without initial");
        assert_eq!(err.invariant, "initial-before-final");
    }

    #[test]
    fn re_begin_opens_a_new_incarnation() {
        // Crash recovery restarts ids at the durable high-water mark, so
        // a replacement node can legitimately re-begin a txn id whose
        // first incarnation (even its InitialCommit) was never durable.
        let events = vec![
            ev(0, Some(5), EventKind::TxnBegin { stages: 2 }),
            ev(1, Some(5), EventKind::StageStart { stage: 0 }),
            ev(2, Some(5), EventKind::StageEnd { stage: 0 }),
            ev(3, Some(5), EventKind::InitialCommit),
            // ...crash: the unsynced tail is lost, the id comes back...
            ev(4, Some(5), EventKind::TxnBegin { stages: 2 }),
            ev(5, Some(5), EventKind::StageStart { stage: 0 }),
            ev(6, Some(5), EventKind::StageEnd { stage: 0 }),
            ev(7, Some(5), EventKind::InitialCommit),
            ev(8, Some(5), EventKind::FinalCommit),
        ];
        let report = check_stream(&events, false).expect("reincarnation is legitimate");
        assert_eq!(report.finalized, 1);
        // The new incarnation starts from scratch: its FinalCommit still
        // needs its *own* InitialCommit.
        let events = vec![
            ev(0, Some(5), EventKind::TxnBegin { stages: 2 }),
            ev(1, Some(5), EventKind::InitialCommit),
            ev(2, Some(5), EventKind::TxnBegin { stages: 2 }),
            ev(3, Some(5), EventKind::FinalCommit),
        ];
        let err = check_stream(&events, false).expect_err("state was reset");
        assert_eq!(err.invariant, "initial-before-final");
    }

    #[test]
    fn pipelined_seal_stream_passes_and_regressions_are_caught() {
        // The pipelined writer's shape: appends, a seal covering them, a
        // coalesced window, the sync, then the publish.
        let events = vec![
            ev(0, None, EventKind::WalAppend { lsn: 40 }),
            ev(1, None, EventKind::WalAppend { lsn: 80 }),
            ev(2, None, EventKind::WalBufferSeal { lsn: 80 }),
            ev(3, None, EventKind::WalCoalescedSync { requests: 3 }),
            ev(4, None, EventKind::WalSync { lsn: 80, epoch: 0 }),
            ev(5, None, EventKind::ShipPublish { lsn: 80, epoch: 0 }),
        ];
        check_stream(&events, false).expect("pipelined flush sequence");

        // A seal below an already-appended lsn sealed "into the past".
        let events = vec![
            ev(0, None, EventKind::WalAppend { lsn: 40 }),
            ev(1, None, EventKind::WalBufferSeal { lsn: 30 }),
        ];
        let err = check_stream(&events, false).expect_err("seal below append");
        assert_eq!(err.invariant, "seal-covers-appends");

        // Seals must never go backwards.
        let events = vec![
            ev(0, None, EventKind::WalBufferSeal { lsn: 80 }),
            ev(1, None, EventKind::WalBufferSeal { lsn: 40 }),
        ];
        let err = check_stream(&events, false).expect_err("seal went backwards");
        assert_eq!(err.invariant, "buffer-seal-monotone");

        // ...except across an in-place restart: the resumed writer's LSN
        // space starts over, which its first append announces.
        let events = vec![
            ev(0, None, EventKind::WalAppend { lsn: 80 }),
            ev(1, None, EventKind::WalBufferSeal { lsn: 80 }),
            ev(2, None, EventKind::WalAppend { lsn: 30 }),
            ev(3, None, EventKind::WalBufferSeal { lsn: 30 }),
        ];
        check_stream(&events, false).expect("a restarted writer seals from scratch");

        // An empty coalesced window is a bookkeeping bug.
        let events = vec![ev(0, None, EventKind::WalCoalescedSync { requests: 0 })];
        let err = check_stream(&events, false).expect_err("empty window");
        assert_eq!(err.invariant, "coalesced-window-nonempty");
    }

    #[test]
    fn pre_window_mode_tolerates_truncated_transactions() {
        // Stream starts mid-transaction: no TxnBegin in the window.
        let events = vec![
            ev(5, Some(3), EventKind::StageStart { stage: 1 }),
            ev(6, Some(3), EventKind::StageEnd { stage: 1 }),
            ev(7, Some(3), EventKind::FinalCommit),
        ];
        check_stream(&events, false).expect_err("strict mode rejects");
        check_stream(&events, true).expect("pre-window mode tolerates");
    }
}
