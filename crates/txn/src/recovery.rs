//! Apology-aware crash recovery (§4.4 semantics applied to restarts).
//!
//! `croesus_wal::recover` rebuilds the committed store and reports the
//! transactions whose **initial** commit survived but whose **final**
//! commit did not. Replaying them forward is impossible — their
//! final-section inputs (the cloud labels in flight at the crash) are
//! gone — and silently keeping their effects would expose guesses nobody
//! will ever validate. The multi-stage answer is the same one a live
//! final section gives a wrong guess: *retract the effects, cascade to
//! dependents, apologize to the affected users*.
//!
//! [`recover_edge`] is that glue: replay the log, hand every live entry
//! to a fresh [`ApologyManager`] by move (replay and the manager share
//! the log's entry type), then feed each unfinalized transaction through
//! [`ApologyManager::retract`]. The result carries
//! the store, the populated manager (apologies included, ready to render
//! to clients) and the retraction reports, and can be turned into a
//! working [`ExecutorCore`](crate::ExecutorCore) to resume service.
//!
//! ```
//! use croesus_store::{LockManager, LockPolicy, TxnId, Value};
//! use croesus_wal::{StageFlags, StageRecord, Wal, WalConfig, WriteImage};
//! use croesus_txn::recovery::recover_edge;
//! use croesus_txn::ExecutorCore;
//! use std::sync::Arc;
//!
//! // A log whose only transaction initially committed and then crashed.
//! let (wal, probe) = Wal::in_memory(WalConfig::strict());
//! wal.append_stage(StageRecord {
//!     txn: TxnId(1),
//!     stage: 0,
//!     total: 2,
//!     flags: StageFlags(StageFlags::COMMIT_POINT | StageFlags::REGISTER),
//!     reads: vec![],
//!     writes: vec!["guess".into()],
//!     images: vec![WriteImage { key: "guess".into(), pre: None, post: Some(Arc::new(Value::Int(1))) }],
//! }).unwrap();
//!
//! let recovered = recover_edge(&probe.durable());
//! assert!(!recovered.store.contains(&"guess".into()), "retracted");
//! assert_eq!(recovered.apologies.apologies().len(), 1, "and apologized for");
//! let locks = Arc::new(LockManager::new(LockPolicy::Block));
//! let core = ExecutorCore::new(recovered.store, locks).with_apologies(recovered.apologies);
//! assert_eq!(core.store().len(), 0);
//! ```

use std::io;
use std::path::Path;
use std::sync::Arc;

use croesus_store::{KvStore, TxnId};
use croesus_wal::{RecoveryReport, RecoveryState, WalRecord};

use crate::apology::{ApologyManager, RetractionReport};

/// A recovered edge: committed state, the rebuilt apology machinery, and
/// what recovery had to retract.
pub struct RecoveredEdge {
    /// The store as of the last durable commit point, with unfinalized
    /// transactions already retracted.
    pub store: Arc<KvStore>,
    /// The apology manager, holding the log's live entries; holds the
    /// apologies issued for crash-retracted transactions.
    pub apologies: Arc<ApologyManager>,
    /// One report per unfinalized transaction retracted (cascades
    /// included). Transactions already swept up by an earlier cascade
    /// produce no separate report.
    pub retractions: Vec<RetractionReport>,
    /// The transactions recovery retracted and owes apologies for.
    pub unfinalized: Vec<TxnId>,
    /// 2PC coordinator decisions found in the log (see
    /// [`Coordinator::resolve_in_doubt`](crate::tpc::Coordinator::resolve_in_doubt)).
    pub tpc_decisions: Vec<(TxnId, bool)>,
    /// Whether the log ended in a torn/corrupt tail (discarded).
    pub torn_tail: bool,
    /// Valid frames replayed.
    pub frames: usize,
    /// One past the highest transaction id in the log — a replacement
    /// node continues assigning ids from here.
    pub next_txn: u64,
    /// The WAL replay state with the crash retractions already folded in —
    /// hand this (with [`store`](Self::store)) to `Wal::resume` so the new
    /// log continues exactly where recovery left the world.
    pub state: RecoveryState,
}

impl RecoveredEdge {
    /// Every apology the recovered edge owes its users.
    #[must_use]
    pub fn apologies_owed(&self) -> Vec<crate::apology::Apology> {
        self.apologies.apologies()
    }
}

/// Apology-aware recovery over raw log bytes (what the crash preserved).
#[must_use]
pub fn recover_edge(bytes: &[u8]) -> RecoveredEdge {
    apology_aware(croesus_wal::recover(bytes))
}

/// Apology-aware recovery from a log file. A missing file is a fresh
/// edge: empty store, nothing owed.
pub fn recover_edge_file(path: impl AsRef<Path>) -> io::Result<RecoveredEdge> {
    Ok(apology_aware(croesus_wal::recover_file(path)?))
}

/// The second half of recovery: take a raw replay report and make it
/// §4.4-consistent — take over the surviving entries, retract every
/// initially-committed-but-unfinalized transaction, collect apologies.
#[must_use]
pub(crate) fn apology_aware(report: RecoveryReport) -> RecoveredEdge {
    let RecoveryReport {
        store,
        entries,
        unfinalized,
        tpc_decisions,
        frames,
        torn_tail,
        next_txn,
        mut state,
        ..
    } = report;
    let store = Arc::new(store);
    // The replayed entries keep their log sequence numbers, so the
    // manager reproduces the pre-crash cascade ordering.
    let apologies = Arc::new(ApologyManager::recovered(entries));
    let mut retractions = Vec::new();
    for txn in &unfinalized {
        let r = apologies.retract(
            *txn,
            &store,
            "crash recovery: initial commit survived, final commit did not",
        );
        // A transaction already swept up by a previous cascade yields an
        // empty (idempotent) report — don't record those.
        if !r.retracted.is_empty() {
            // Mirror the retraction into the replay state (the store was
            // already rolled back by the manager above), so a writer
            // resumed from this state checkpoints the post-recovery world.
            for record in &r.restores {
                state.apply(WalRecord::Retract(record.clone()), None);
            }
            retractions.push(r);
        }
    }
    RecoveredEdge {
        store,
        apologies,
        retractions,
        unfinalized,
        tpc_decisions,
        torn_tail,
        frames,
        next_txn,
        state,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::RwSet;
    use crate::protocol::{Executor, ExecutorCore, ProtocolKind};
    use croesus_store::{LockManager, LockPolicy, Value};
    use croesus_wal::{MemStorage, Wal, WalConfig};

    /// A protocol executor with a fresh in-memory WAL attached.
    fn durable_protocol(kind: ProtocolKind) -> (Executor, MemStorage) {
        let (wal, probe) = Wal::in_memory(WalConfig::strict());
        let core = ExecutorCore::new(
            Arc::new(KvStore::new()),
            Arc::new(LockManager::new(LockPolicy::Block)),
        )
        .with_wal(Arc::new(wal));
        (kind.build(core), probe)
    }

    #[test]
    fn completed_txns_recover_with_nothing_owed() {
        for kind in ProtocolKind::ALL {
            let (p, probe) = durable_protocol(kind);
            let rw = RwSet::new().write("x");
            let h = p.begin(TxnId(1), &[rw.clone(), rw.clone()]);
            let (_, h) = p.stage(h, &rw, |ctx| ctx.write("x", 1)).unwrap();
            p.stage(h.unwrap(), &rw, |ctx| ctx.write("x", 2)).unwrap();

            let rec = recover_edge(&probe.durable());
            assert_eq!(
                rec.store.get(&"x".into()).as_deref(),
                Some(&Value::Int(2)),
                "{kind}"
            );
            assert!(rec.unfinalized.is_empty(), "{kind}");
            assert!(rec.retractions.is_empty(), "{kind}");
            assert!(rec.apologies_owed().is_empty(), "{kind}");
        }
    }

    #[test]
    fn ms_ia_initial_only_txn_is_retracted_with_apology() {
        let (p, probe) = durable_protocol(ProtocolKind::MsIa);
        let rw = RwSet::new().write("guess");
        let h = p.begin(TxnId(9), &[rw.clone(), rw.clone()]);
        let (_, _pending) = p.stage(h, &rw, |ctx| ctx.write("guess", 42)).unwrap();
        // Crash: the final stage never runs.

        let rec = recover_edge(&probe.durable());
        assert_eq!(rec.unfinalized, vec![TxnId(9)]);
        assert!(
            !rec.store.contains(&"guess".into()),
            "the unvalidated guess is retracted"
        );
        let owed = rec.apologies_owed();
        assert_eq!(owed.len(), 1);
        assert_eq!(owed[0].txn, TxnId(9));
        assert!(owed[0].reason.contains("crash recovery"));
    }

    #[test]
    fn crash_retraction_cascades_to_dependents() {
        let (p, probe) = durable_protocol(ProtocolKind::MsIa);
        // t1 guesses; t2 reads the guess, writes c, and fully finalizes.
        let rw1 = RwSet::new().write("b");
        let h1 = p.begin(TxnId(1), &[rw1.clone(), RwSet::new()]);
        let (_, _p1) = p.stage(h1, &rw1, |ctx| ctx.write("b", 50)).unwrap();
        let rw2 = RwSet::new().read("b").write("c");
        let h2 = p.begin(TxnId(2), &[rw2.clone(), RwSet::new()]);
        let (_, p2) = p
            .stage(h2, &rw2, |ctx| {
                let b = ctx.read("b")?.and_then(|v| v.as_int()).unwrap_or(0);
                ctx.write("c", b)
            })
            .unwrap();
        p.stage(p2.unwrap(), &RwSet::new(), |_| Ok(())).unwrap();
        // Crash before t1's final stage.

        let rec = recover_edge(&probe.durable());
        assert_eq!(rec.unfinalized, vec![TxnId(1)]);
        assert_eq!(rec.retractions.len(), 1);
        assert_eq!(
            rec.retractions[0].retracted,
            vec![TxnId(2), TxnId(1)],
            "t2 read the doomed guess: cascade takes it too, despite its own final commit"
        );
        assert!(!rec.store.contains(&"b".into()));
        assert!(!rec.store.contains(&"c".into()));
        assert_eq!(rec.apologies_owed().len(), 2);
    }

    #[test]
    fn ms_sr_unfinalized_txn_vanishes_without_apology() {
        let (p, probe) = durable_protocol(ProtocolKind::MsSr);
        let rw = RwSet::new().write("held");
        let h = p.begin(TxnId(3), &[rw.clone(), rw.clone()]);
        let (_, _pending) = p.stage(h, &rw, |ctx| ctx.write("held", 5)).unwrap();
        // Crash while the locks were held across the cloud wait.

        let rec = recover_edge(&probe.durable());
        assert!(
            !rec.store.contains(&"held".into()),
            "MS-SR's locks hid the write; recovery un-happens the txn"
        );
        assert!(rec.unfinalized.is_empty(), "no commit point → no apology");
        assert!(rec.apologies_owed().is_empty());
    }

    #[test]
    fn live_retraction_replays_without_double_apology() {
        let (p, probe) = durable_protocol(ProtocolKind::MsIa);
        let store_live = Arc::clone(p.store());
        store_live.put("room".into(), Value::Str("free".into()));
        let rw = RwSet::new().write("room");
        let h = p.begin(TxnId(1), &[rw.clone(), RwSet::new()]);
        let (_, h) = p
            .stage(h, &rw, |ctx| ctx.write("room", "reserved"))
            .unwrap();
        p.stage(h.unwrap(), &RwSet::new(), |ctx| {
            Ok(ctx.retract_self("wrong building"))
        })
        .unwrap();

        let rec = recover_edge(&probe.durable());
        // Note the pre-existing value was written outside any transaction,
        // so replay starts from the logged pre-image.
        assert_eq!(
            rec.store.get(&"room".into()).as_deref(),
            Some(&Value::Str("free".into())),
            "the logged retraction replayed its restores"
        );
        assert!(
            rec.unfinalized.is_empty(),
            "an already-retracted txn owes nothing more"
        );
        assert!(rec.retractions.is_empty());
    }

    #[test]
    fn recovered_core_resumes_service() {
        let (p, probe) = durable_protocol(ProtocolKind::MsIa);
        let rw = RwSet::new().write("x");
        let h = p.begin(TxnId(1), &[rw.clone(), rw.clone()]);
        let (_, h) = p.stage(h, &rw, |ctx| ctx.write("x", 1)).unwrap();
        p.stage(h.unwrap(), &rw, |ctx| ctx.write("x", 2)).unwrap();

        let rec = recover_edge(&probe.durable());
        let core = ExecutorCore::new(rec.store, Arc::new(LockManager::new(LockPolicy::Block)))
            .with_apologies(rec.apologies);
        let p2 = ProtocolKind::MsIa.build(core);
        let rw2 = RwSet::new().read("x").write("y");
        let h = p2.begin(TxnId(100), &[rw2.clone(), rw2.clone()]);
        let (seen, h) = p2
            .stage(h, &rw2, |ctx| {
                let x = ctx.read("x")?.and_then(|v| v.as_int()).unwrap_or(0);
                ctx.write("y", x + 1)?;
                Ok(x)
            })
            .unwrap();
        assert_eq!(seen, 2, "recovered state is readable");
        p2.stage(h.unwrap(), &rw2, |_| Ok(())).unwrap();
        assert_eq!(p2.store().get(&"y".into()).as_deref(), Some(&Value::Int(3)));
    }
}
