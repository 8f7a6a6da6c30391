//! Two-phase commit for multi-partition multi-stage transactions (§4.5).
//!
//! "Locking data objects in remote partitions will be performed by sending
//! the lock requests to the remote edge node that is responsible for the
//! partition. ... after the transaction finishes, the partitions engage in a
//! two-phase commit protocol to ensure that the distributed commit is
//! performed in an atomic way." For MS-SR the atomic-commit step runs at
//! the end of the final section only (locks are never released in between);
//! for MS-IA it runs at the end of both sections.
//!
//! Participants here are in-process [`Partition`]s; the [`Participant`]
//! trait allows tests to inject failures (a participant voting no).
//!
//! With a WAL attached ([`Coordinator::with_wal`]), the coordinator logs
//! its phase-1 decision — durably, before any participant enters phase 2.
//! A coordinator crash between the two phases then leaves participants
//! prepared (locks held, writes staged) but *not* in doubt: recovery
//! reads the decision record and finishes phase 2 via
//! [`Coordinator::resolve_in_doubt`]. No decision record means phase 1
//! never completed, and presumed-abort applies.

use std::sync::Arc;

use croesus_store::{Key, Partition, PartitionMap, TxnId, UndoLog, Value};
use croesus_wal::Wal;

/// A participant's prepare vote.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Vote {
    /// Ready to commit: locks held, writes staged.
    Yes,
    /// Cannot commit; the coordinator must abort globally.
    No,
}

/// A two-phase-commit participant.
pub trait Participant {
    /// Phase 1: attempt to lock and stage the given writes. A `Yes` vote
    /// promises that `commit` will succeed.
    fn prepare(&self, txn: TxnId, writes: &[(Key, Value)]) -> Vote;

    /// Phase 2 (commit): make staged writes durable and release locks.
    fn commit(&self, txn: TxnId);

    /// Phase 2 (abort): discard staged writes and release locks.
    fn abort(&self, txn: TxnId);
}

/// A partition acting as a participant: prepare locks the keys and applies
/// the writes through an undo log; abort rolls the log back.
pub struct PartitionParticipant {
    partition: Arc<Partition>,
    staged: parking_lot::Mutex<Vec<(TxnId, UndoLog, Vec<Key>)>>,
}

impl PartitionParticipant {
    /// Wrap a partition.
    pub fn new(partition: Arc<Partition>) -> Self {
        PartitionParticipant {
            partition,
            staged: parking_lot::Mutex::new(Vec::new()),
        }
    }

    /// The wrapped partition.
    pub fn partition(&self) -> &Arc<Partition> {
        &self.partition
    }
}

impl Participant for PartitionParticipant {
    fn prepare(&self, txn: TxnId, writes: &[(Key, Value)]) -> Vote {
        let pairs: Vec<(Key, croesus_store::LockMode)> = writes
            .iter()
            .map(|(k, _)| (k.clone(), croesus_store::LockMode::Exclusive))
            .collect();
        if self.partition.locks.acquire_all(txn, &pairs, None).is_err() {
            return Vote::No;
        }
        let mut undo = UndoLog::new();
        for (k, v) in writes {
            undo.put(&self.partition.store, k.clone(), v.clone());
        }
        let keys = pairs.into_iter().map(|(k, _)| k).collect();
        self.staged.lock().push((txn, undo, keys));
        Vote::Yes
    }

    fn commit(&self, txn: TxnId) {
        let mut staged = self.staged.lock();
        if let Some(pos) = staged.iter().position(|(t, _, _)| *t == txn) {
            let (_, _undo, keys) = staged.remove(pos);
            // Writes already applied; just release.
            self.partition.locks.release_all(txn, keys.iter());
        }
    }

    fn abort(&self, txn: TxnId) {
        let mut staged = self.staged.lock();
        if let Some(pos) = staged.iter().position(|(t, _, _)| *t == txn) {
            let (_, undo, keys) = staged.remove(pos);
            undo.rollback(&self.partition.store);
            self.partition.locks.release_all(txn, keys.iter());
        }
    }
}

/// A participant paired with the writes routed to it.
pub type ParticipantWrites<'a> = (&'a dyn Participant, &'a [(Key, Value)]);

/// The coordinator: runs 2PC over the partitions owning a write set.
pub struct Coordinator {
    partitions: Arc<PartitionMap>,
    wal: Option<Arc<Wal>>,
    obs: croesus_obs::EdgeObs,
}

/// Result of a coordinated commit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TpcOutcome {
    /// All participants voted yes; writes are durable everywhere.
    Committed {
        /// How many partitions participated.
        participants: usize,
    },
    /// Some participant voted no; nothing took effect anywhere.
    Aborted {
        /// How many participants voted before the abort.
        voted: usize,
    },
}

impl Coordinator {
    /// Create a coordinator over a partition map.
    pub fn new(partitions: Arc<PartitionMap>) -> Self {
        Coordinator {
            partitions,
            wal: None,
            obs: croesus_obs::EdgeObs::disabled(),
        }
    }

    /// Log phase-1 decisions to a WAL (synced before phase 2 starts).
    #[must_use]
    pub fn with_wal(mut self, wal: Arc<Wal>) -> Self {
        self.wal = Some(wal);
        self
    }

    /// Emit `TpcDecision` events to an observability stream.
    #[must_use]
    pub fn with_obs(mut self, obs: croesus_obs::EdgeObs) -> Self {
        self.obs = obs;
        self
    }

    fn log_decision(&self, txn: TxnId, commit: bool) {
        if let Some(wal) = &self.wal {
            wal.append_tpc_decision(txn, commit)
                .expect("WAL append failed — the 2PC decision must be durable before phase 2");
        }
        self.obs
            .emit_txn(txn.0, croesus_obs::EventKind::TpcDecision { commit });
    }

    /// Log that phase 2 finished: every participant acked, so the decision
    /// entry may be expired from the writer's replay state. Unsynced on
    /// purpose — losing the record only means a recovering coordinator
    /// re-runs an idempotent phase 2.
    fn log_end(&self, txn: TxnId) {
        if let Some(wal) = &self.wal {
            wal.append_tpc_end(txn)
                .expect("WAL append failed — durability cannot be guaranteed");
        }
    }

    /// Finish phase 2 for an in-doubt transaction after a coordinator
    /// crash: `decision` is what recovery found in the coordinator's log
    /// (`Some(true)` = commit everywhere; `Some(false)` or `None` =
    /// presumed abort — no durable commit decision means phase 1 never
    /// completed, so aborting cannot contradict any acknowledged commit).
    pub fn resolve_in_doubt<'a>(
        decision: Option<bool>,
        txn: TxnId,
        participants: impl IntoIterator<Item = &'a dyn Participant>,
    ) -> TpcOutcome {
        let participants: Vec<&dyn Participant> = participants.into_iter().collect();
        if decision == Some(true) {
            for p in &participants {
                p.commit(txn);
            }
            TpcOutcome::Committed {
                participants: participants.len(),
            }
        } else {
            for p in &participants {
                p.abort(txn);
            }
            TpcOutcome::Aborted {
                voted: participants.len(),
            }
        }
    }

    /// Atomically apply `writes`, which may span partitions.
    pub fn commit_writes(&self, txn: TxnId, writes: &[(Key, Value)]) -> TpcOutcome {
        let keys: Vec<Key> = writes.iter().map(|(k, _)| k.clone()).collect();
        let groups = self.partitions.group_by_partition(keys.iter());
        let participants: Vec<(PartitionParticipant, Vec<(Key, Value)>)> = groups
            .into_iter()
            .map(|(pid, keys)| {
                let part = Arc::clone(
                    self.partitions
                        .get(pid)
                        .expect("group_by_partition returns valid ids"),
                );
                let ws: Vec<(Key, Value)> = writes
                    .iter()
                    .filter(|(k, _)| keys.contains(k))
                    .cloned()
                    .collect();
                (PartitionParticipant::new(part), ws)
            })
            .collect();
        self.run(
            txn,
            participants
                .iter()
                .map(|(p, w)| (p as &dyn Participant, w.as_slice())),
        )
    }

    /// Phase 1 only: collect votes and (with a WAL) durably log the
    /// decision. `Ok(())` means every participant is prepared and the
    /// commit decision is logged — phase 2 may run now, or after a
    /// coordinator crash via [`resolve_in_doubt`](Self::resolve_in_doubt).
    /// `Err(voted)` means some participant refused; everyone who had
    /// already staged is rolled back here (their locks released), and the
    /// abort decision is logged.
    pub fn run_phase1(
        &self,
        txn: TxnId,
        participants: &[ParticipantWrites<'_>],
    ) -> Result<(), usize> {
        let mut voted = 0;
        for (p, writes) in participants {
            crate::sched::yield_point("tpc.prepare");
            match p.prepare(txn, writes) {
                Vote::Yes => voted += 1,
                Vote::No => {
                    self.log_decision(txn, false);
                    // Abort everyone who already voted: staged writes roll
                    // back and every prepared lock is released.
                    for (q, _) in participants.iter().take(voted) {
                        q.abort(txn);
                    }
                    return Err(voted);
                }
            }
        }
        self.log_decision(txn, true);
        crate::sched::yield_point("tpc.decided");
        Ok(())
    }

    /// Run 2PC over explicit participants (for failure-injection tests).
    pub fn run<'a>(
        &self,
        txn: TxnId,
        participants: impl IntoIterator<Item = ParticipantWrites<'a>>,
    ) -> TpcOutcome {
        let participants: Vec<ParticipantWrites<'a>> = participants.into_iter().collect();
        match self.run_phase1(txn, &participants) {
            Ok(()) => {
                // Phase 2: commit everywhere.
                for (p, _) in &participants {
                    crate::sched::yield_point("tpc.phase2.commit");
                    p.commit(txn);
                }
                self.log_end(txn);
                TpcOutcome::Committed {
                    participants: participants.len(),
                }
            }
            Err(voted) => {
                // Phase 1 already rolled the voters back — phase 2 is done.
                self.log_end(txn);
                TpcOutcome::Aborted { voted }
            }
        }
    }

    /// Resolve an in-doubt transaction against this coordinator's **own
    /// decision log** (the same log a cloud replica tails): commit if a
    /// durable commit decision exists, presumed abort otherwise, then
    /// expire the decision. This is the recovery path a new coordinator
    /// epoch runs for every transaction its predecessor left prepared.
    pub fn resolve_from_log<'a>(
        &self,
        txn: TxnId,
        participants: impl IntoIterator<Item = &'a dyn Participant>,
    ) -> TpcOutcome {
        let decision = self.wal.as_ref().and_then(|w| w.tpc_decision(txn));
        let outcome = Self::resolve_in_doubt(decision, txn, participants);
        self.log_end(txn);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use croesus_store::LockPolicy;

    fn map() -> Arc<PartitionMap> {
        Arc::new(PartitionMap::new(4, LockPolicy::NoWait))
    }

    fn writes(n: u64) -> Vec<(Key, Value)> {
        (0..n)
            .map(|i| (Key::indexed("w", i), Value::Int(i as i64)))
            .collect()
    }

    #[test]
    fn cross_partition_commit_applies_everywhere() {
        let pm = map();
        let coord = Coordinator::new(Arc::clone(&pm));
        let ws = writes(20);
        let outcome = coord.commit_writes(TxnId(1), &ws);
        assert!(matches!(outcome, TpcOutcome::Committed { participants } if participants > 1));
        for (k, v) in &ws {
            assert_eq!(pm.partition_of(k).store.get(k).as_deref(), Some(&v.clone()));
        }
        // All locks released.
        for p in pm.partitions() {
            assert_eq!(p.locks.locked_keys(), 0);
        }
    }

    #[test]
    fn conflicting_lock_aborts_globally() {
        let pm = map();
        let coord = Coordinator::new(Arc::clone(&pm));
        let ws = writes(20);
        // Block one key on its home partition.
        let victim = &ws[7].0;
        pm.partition_of(victim)
            .locks
            .lock(TxnId(99), victim, croesus_store::LockMode::Exclusive)
            .unwrap();
        let outcome = coord.commit_writes(TxnId(1), &ws);
        assert!(matches!(outcome, TpcOutcome::Aborted { .. }));
        // Nothing is visible anywhere — atomicity.
        for (k, _) in &ws {
            assert_eq!(pm.partition_of(k).store.get(k), None, "leaked write at {k}");
        }
    }

    #[test]
    fn abort_releases_prepared_locks() {
        let pm = map();
        let coord = Coordinator::new(Arc::clone(&pm));
        let ws = writes(20);
        let victim = &ws[7].0;
        pm.partition_of(victim)
            .locks
            .lock(TxnId(99), victim, croesus_store::LockMode::Exclusive)
            .unwrap();
        let _ = coord.commit_writes(TxnId(1), &ws);
        pm.partition_of(victim).locks.release(TxnId(99), victim);
        // Retry now succeeds: every previously-prepared lock was released.
        let outcome = coord.commit_writes(TxnId(2), &ws);
        assert!(matches!(outcome, TpcOutcome::Committed { .. }));
    }

    /// A participant that always refuses — simulates a failed edge node.
    struct Refusenik;
    impl Participant for Refusenik {
        fn prepare(&self, _txn: TxnId, _writes: &[(Key, Value)]) -> Vote {
            Vote::No
        }
        fn commit(&self, _txn: TxnId) {}
        fn abort(&self, _txn: TxnId) {}
    }

    #[test]
    fn injected_no_vote_aborts_and_rolls_back() {
        let pm = map();
        let coord = Coordinator::new(Arc::clone(&pm));
        let part = Arc::clone(&pm.partitions()[0]);
        part.store.put("pre".into(), Value::Int(1));
        let good = PartitionParticipant::new(Arc::clone(&part));
        let bad = Refusenik;
        let ws_good: Vec<(Key, Value)> = vec![("pre".into(), Value::Int(2))];
        let ws_bad: Vec<(Key, Value)> = vec![];
        let outcome = coord.run(
            TxnId(5),
            [
                (&good as &dyn Participant, ws_good.as_slice()),
                (&bad as &dyn Participant, ws_bad.as_slice()),
            ],
        );
        assert_eq!(outcome, TpcOutcome::Aborted { voted: 1 });
        assert_eq!(
            part.store.get(&"pre".into()).as_deref(),
            Some(&Value::Int(1)),
            "good participant's staged write must be rolled back"
        );
        assert_eq!(part.locks.locked_keys(), 0);
    }

    #[test]
    fn coordinator_crash_after_yes_votes_recovers_via_wal_decision() {
        use croesus_wal::{Wal, WalConfig};

        let pm = map();
        let (wal, probe) = Wal::in_memory(WalConfig::group(64));
        let coord = Coordinator::new(Arc::clone(&pm)).with_wal(Arc::new(wal));
        let ws = writes(20);

        // Phase 1 completes: every participant voted Yes (locks held,
        // writes staged) and the commit decision hit the log.
        let keys: Vec<Key> = ws.iter().map(|(k, _)| k.clone()).collect();
        let groups = pm.group_by_partition(keys.iter());
        let participants: Vec<(PartitionParticipant, Vec<(Key, Value)>)> = groups
            .into_iter()
            .map(|(pid, keys)| {
                let part = Arc::clone(pm.get(pid).unwrap());
                let w: Vec<(Key, Value)> = ws
                    .iter()
                    .filter(|(k, _)| keys.contains(k))
                    .cloned()
                    .collect();
                (PartitionParticipant::new(part), w)
            })
            .collect();
        assert!(participants.len() > 1, "the write set must span partitions");
        let pw: Vec<ParticipantWrites<'_>> = participants
            .iter()
            .map(|(p, w)| (p as &dyn Participant, w.as_slice()))
            .collect();
        assert!(coord.run_phase1(TxnId(7), &pw).is_ok());

        // Coordinator crashes before phase 2: participants sit prepared.
        drop(coord);
        for p in pm.partitions() {
            assert!(
                p.locks.locked_keys() > 0 || !ws.iter().any(|(k, _)| pm.partition_of(k).id == p.id),
                "prepared participants still hold their locks"
            );
        }

        // Recovery: the decision record is durable (append_tpc_decision
        // syncs unconditionally, even under a lazy group-commit policy).
        let report = croesus_wal::recover(&probe.durable());
        assert_eq!(report.tpc_decisions, vec![(TxnId(7), true)]);

        // A new coordinator epoch finishes phase 2 from the record.
        let outcome = Coordinator::resolve_in_doubt(
            report
                .tpc_decisions
                .iter()
                .find(|(t, _)| *t == TxnId(7))
                .map(|(_, c)| *c),
            TxnId(7),
            pw.iter().map(|(p, _)| *p),
        );
        assert!(matches!(outcome, TpcOutcome::Committed { .. }));
        for (k, v) in &ws {
            assert_eq!(pm.partition_of(k).store.get(k).as_deref(), Some(&v.clone()));
        }
        for p in pm.partitions() {
            assert_eq!(p.locks.locked_keys(), 0, "every prepared lock released");
        }
    }

    #[test]
    fn in_doubt_txn_without_decision_record_presumes_abort() {
        let pm = map();
        let ws = writes(8);
        let part = Arc::clone(&pm.partitions()[0]);
        let participant = PartitionParticipant::new(Arc::clone(&part));
        assert_eq!(participant.prepare(TxnId(5), &ws), Vote::Yes);
        assert!(part.locks.locked_keys() > 0);

        // No WAL decision found for TxnId(5): presumed abort.
        let outcome =
            Coordinator::resolve_in_doubt(None, TxnId(5), [&participant as &dyn Participant]);
        assert!(matches!(outcome, TpcOutcome::Aborted { .. }));
        for (k, _) in &ws {
            assert_eq!(part.store.get(k), None, "staged write rolled back at {k}");
        }
        assert_eq!(part.locks.locked_keys(), 0);
    }

    #[test]
    fn abort_after_partial_prepare_releases_all_staged_locks() {
        // Two participants vote Yes (staging writes, holding locks), the
        // third refuses: phase 1 must leave zero locks held anywhere and
        // no staged write visible.
        let pm = map();
        let coord = Coordinator::new(Arc::clone(&pm));
        let a = PartitionParticipant::new(Arc::clone(&pm.partitions()[0]));
        let b = PartitionParticipant::new(Arc::clone(&pm.partitions()[1]));
        let bad = Refusenik;
        let ws_a: Vec<(Key, Value)> = vec![("a/1".into(), Value::Int(1))];
        let ws_b: Vec<(Key, Value)> = vec![("b/1".into(), Value::Int(2))];
        let pw: Vec<ParticipantWrites<'_>> = vec![
            (&a as &dyn Participant, ws_a.as_slice()),
            (&b as &dyn Participant, ws_b.as_slice()),
            (&bad as &dyn Participant, &[]),
        ];
        assert_eq!(coord.run_phase1(TxnId(9), &pw), Err(2));
        for p in pm.partitions() {
            assert_eq!(
                p.locks.locked_keys(),
                0,
                "partition {:?} leaked locks",
                p.id
            );
        }
        assert_eq!(pm.partitions()[0].store.get(&"a/1".into()), None);
        assert_eq!(pm.partitions()[1].store.get(&"b/1".into()), None);
    }

    #[test]
    fn abort_decision_is_logged_too() {
        use croesus_wal::{Wal, WalConfig};
        let pm = map();
        let (wal, probe) = Wal::in_memory(WalConfig::strict());
        let coord = Coordinator::new(Arc::clone(&pm)).with_wal(Arc::new(wal));
        let bad = Refusenik;
        let pw: Vec<ParticipantWrites<'_>> = vec![(&bad as &dyn Participant, &[])];
        assert!(coord.run_phase1(TxnId(4), &pw).is_err());
        let report = croesus_wal::recover(&probe.durable());
        assert_eq!(report.tpc_decisions, vec![(TxnId(4), false)]);
    }

    #[test]
    fn single_partition_degenerates_to_local_commit() {
        let pm = Arc::new(PartitionMap::new(1, LockPolicy::NoWait));
        let coord = Coordinator::new(Arc::clone(&pm));
        let outcome = coord.commit_writes(TxnId(1), &writes(5));
        assert_eq!(outcome, TpcOutcome::Committed { participants: 1 });
    }

    #[test]
    fn empty_write_set_commits_trivially() {
        let pm = map();
        let coord = Coordinator::new(pm);
        let outcome = coord.commit_writes(TxnId(1), &[]);
        assert_eq!(outcome, TpcOutcome::Committed { participants: 0 });
    }

    #[test]
    fn completed_phase2_expires_the_decision_entry() {
        use croesus_wal::{Wal, WalConfig};
        let pm = map();
        let (wal, _) = Wal::in_memory(WalConfig::group(64));
        let wal = Arc::new(wal);
        let coord = Coordinator::new(Arc::clone(&pm)).with_wal(Arc::clone(&wal));
        for i in 0..100u64 {
            coord.commit_writes(TxnId(i), &writes(6));
        }
        assert_eq!(
            wal.tpc_decision_count(),
            0,
            "every acked phase 2 expired its decision"
        );
    }

    #[test]
    fn resolve_from_log_finishes_phase2_and_expires() {
        use croesus_wal::{Wal, WalConfig};
        let pm = map();
        let (wal, _) = Wal::in_memory(WalConfig::strict());
        let wal = Arc::new(wal);
        let coord = Coordinator::new(Arc::clone(&pm)).with_wal(Arc::clone(&wal));
        let part = Arc::clone(&pm.partitions()[0]);
        let participant = PartitionParticipant::new(Arc::clone(&part));
        let ws: Vec<(Key, Value)> = vec![("k".into(), Value::Int(1))];
        let pw: Vec<ParticipantWrites<'_>> =
            vec![(&participant as &dyn Participant, ws.as_slice())];
        assert!(coord.run_phase1(TxnId(7), &pw).is_ok());
        assert_eq!(wal.tpc_decision(TxnId(7)), Some(true));
        // The old epoch dies here; a new one resolves from the log.
        let outcome = coord.resolve_from_log(TxnId(7), [&participant as &dyn Participant]);
        assert!(matches!(outcome, TpcOutcome::Committed { .. }));
        assert_eq!(part.store.get(&"k".into()).as_deref(), Some(&Value::Int(1)));
        assert_eq!(wal.tpc_decision_count(), 0);
        assert_eq!(part.locks.locked_keys(), 0);
    }
}
