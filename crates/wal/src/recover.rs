//! Log replay and crash recovery.
//!
//! [`RecoveryState`] is the one redo/undo state machine of the subsystem.
//! It runs in two places:
//!
//! * **live**, inside the [`Wal`](crate::Wal) writer, folding every
//!   appended record into the writer's own *shadow store* — the committed
//!   state a replay of the log would rebuild — so the writer always knows
//!   exactly what its log contains and serializes a checkpoint from its
//!   own state, never from the executor's live store;
//! * **replay**, inside [`recover`], folding the decoded records of a log
//!   byte stream into a fresh [`KvStore`].
//!
//! Redo discipline: a stage's write images are *buffered* per transaction
//! until a record with [`StageFlags::COMMIT_POINT`](crate::StageFlags::COMMIT_POINT) arrives, then applied
//! in order. MS-IA and the staged discipline mark every stage, so their
//! effects reappear exactly as clients saw them; MS-SR marks only final
//! commit, so a transaction that crashed mid-flight leaves no trace — its
//! locks guaranteed nobody read the lost writes.
//!
//! The [`RecoveryReport`] also names every transaction whose initial
//! commit survived but whose final commit did not. Those are the paper's
//! §4.4 obligation: the client already saw their initial results, so the
//! recovering edge must retract them *with apologies* — see
//! `croesus_txn::recovery` for the glue that feeds them through
//! `ApologyManager::retract`.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Arc;

use croesus_store::{Key, KvStore, TxnId, UndoLog, Value};

use crate::frame::{FrameReader, TailState};
use crate::record::{
    CheckpointEntry, CheckpointRecord, CheckpointTxn, RetractRecord, StageRecord, WalRecord,
    WriteImage,
};

/// One registered (retractable) footprint rebuilt from the log — the
/// durable mirror of an `ApologyManager` entry.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveredEntry {
    /// The owning transaction.
    pub txn: TxnId,
    /// Registration sequence number (cascade ordering).
    pub seq: u64,
    /// Declared reads of the registered stage.
    pub reads: Vec<Key>,
    /// Declared writes of the registered stage.
    pub writes: Vec<Key>,
    /// Undo pre-images (first write wins), in record order.
    pub undo: Vec<(Key, Option<Arc<Value>>)>,
}

/// One registered entry plus its retraction bit. Retraction is per entry
/// (not per transaction): a live retraction consumes the entries that
/// existed at that moment, but a later stage of the same transaction may
/// register fresh live entries afterwards — exactly the `ApologyManager`
/// behaviour.
#[derive(Clone, Debug)]
struct EntryState {
    entry: RecoveredEntry,
    retracted: bool,
}

/// Per-transaction replay state.
#[derive(Clone, Debug, Default)]
struct TxnState {
    /// Write images logged but not yet covered by a commit point.
    pending: Vec<WriteImage>,
    /// Registered entries, in registration order.
    entries: Vec<EntryState>,
    initial_committed: bool,
    finalized: bool,
}

impl TxnState {
    fn has_live_entry(&self) -> bool {
        self.entries.iter().any(|e| !e.retracted)
    }

    /// The inverse of one transaction in [`RecoveryState::to_checkpoint`].
    fn from_checkpoint(t: CheckpointTxn) -> Self {
        let txn = t.txn;
        TxnState {
            pending: t.pending,
            entries: t
                .entries
                .into_iter()
                .map(|e| EntryState {
                    entry: RecoveredEntry {
                        txn,
                        seq: e.seq,
                        reads: e.reads,
                        writes: e.writes,
                        undo: e.undo,
                    },
                    retracted: e.retracted,
                })
                .collect(),
            initial_committed: t.initial_committed,
            finalized: t.finalized,
        }
    }
}

/// The redo/undo state machine over a record stream.
#[derive(Clone, Debug, Default)]
pub struct RecoveryState {
    txns: BTreeMap<u64, TxnState>,
    next_seq: u64,
    /// Running count of final commits (transactions themselves are pruned
    /// once settled, so this cannot be derived from `txns`).
    finalized_total: u64,
    tpc: Vec<(TxnId, bool)>,
    /// One past the highest transaction id seen — the id a replacement
    /// node must continue from after taking over the partition.
    next_txn: u64,
}

impl RecoveryState {
    /// An empty state (fresh log).
    #[must_use]
    pub fn new() -> Self {
        RecoveryState::default()
    }

    /// Fold one record. With `store = Some(..)` the store mutations are
    /// performed — replay, and the live writer folding into its shadow
    /// store; with `None` only the bookkeeping moves, for a caller that
    /// already mutated the store itself (apology-aware recovery mirroring
    /// the retractions it ran).
    ///
    /// The record is folded by move: a commit point drains its images
    /// into the store and the undo list without copying them, a
    /// registered entry keeps the record's own read and write sets, and a
    /// checkpoint moves its pairs into the store. The writer has already
    /// encoded the record, so nothing reads it afterwards.
    pub fn apply(&mut self, record: WalRecord, store: Option<&KvStore>) {
        match record {
            WalRecord::Stage(s) => self.apply_stage(s, store),
            WalRecord::Retract(r) => self.apply_retract(r, store),
            WalRecord::TpcDecision { txn, commit } => {
                if let Some(slot) = self.tpc.iter_mut().find(|(t, _)| *t == txn) {
                    slot.1 = commit;
                } else {
                    self.tpc.push((txn, commit));
                }
            }
            WalRecord::Checkpoint(cp) => {
                let cp = *cp;
                *self = RecoveryState {
                    txns: cp
                        .txns
                        .into_iter()
                        .map(|t| (t.txn.0, TxnState::from_checkpoint(t)))
                        .collect(),
                    next_seq: cp.next_seq,
                    finalized_total: cp.finalized,
                    tpc: cp.tpc,
                    next_txn: cp.next_txn,
                };
                if let Some(store) = store {
                    store.clear();
                    for (k, v) in cp.store {
                        store.put(k, v);
                    }
                }
            }
            WalRecord::Settle => self.settle(),
            WalRecord::TpcEnd { txn } => {
                self.tpc.retain(|(t, _)| *t != txn);
            }
        }
    }

    /// Replay of a [`WalRecord::Settle`]: drop every registered entry and
    /// every transaction state that is now inert. The live side only logs
    /// a settle at quiescence (no frame in flight), where no future
    /// retraction cascade can reach the dropped entries.
    fn settle(&mut self) {
        for t in self.txns.values_mut() {
            t.entries.clear();
        }
        self.txns
            .retain(|_, t| !t.pending.is_empty() || !t.finalized);
    }

    fn apply_stage(&mut self, s: StageRecord, store: Option<&KvStore>) {
        let (txn, flags, images) = (s.txn, s.flags, s.images);
        self.next_txn = self.next_txn.max(txn.0 + 1);
        let t = self.txns.entry(txn.0).or_default();
        if !flags.commit_point() {
            t.pending.extend(images);
            return;
        }
        // The record's images follow whatever earlier stages buffered;
        // with nothing buffered they are drained as they came.
        let drained = if t.pending.is_empty() {
            images
        } else {
            let mut buffered = std::mem::take(&mut t.pending);
            buffered.extend(images);
            buffered
        };
        t.initial_committed = true;
        // The live executors dedupe through `UndoLog` (first write to a
        // key keeps its pre-image); rebuild through the same type so the
        // rule lives in exactly one place.
        let mut undo = flags.register().then(UndoLog::new);
        for w in drained {
            if let Some(undo) = &mut undo {
                undo.record(w.key.clone(), w.pre);
            }
            if let Some(store) = store {
                store.restore(w.key, w.post); // put the post-image, or delete
            }
        }
        if let Some(undo) = undo {
            t.entries.push(EntryState {
                entry: RecoveredEntry {
                    txn,
                    seq: self.next_seq,
                    reads: s.reads,
                    writes: s.writes,
                    undo: undo
                        .into_records()
                        .into_iter()
                        .map(|r| (r.key, r.previous))
                        .collect(),
                },
                retracted: false,
            });
            self.next_seq += 1;
        }
        if flags.is_final() {
            if !t.finalized {
                self.finalized_total += 1;
            }
            t.finalized = true;
        }
        self.prune(txn);
    }

    fn apply_retract(&mut self, r: RetractRecord, store: Option<&KvStore>) {
        if let Some(store) = store {
            for (k, v) in r.restores {
                store.restore(k, v);
            }
        }
        if let Some(t) = self.txns.get_mut(&r.txn.0) {
            // The live retraction consumed every entry existing right now;
            // entries registered by later stages stay live.
            for e in &mut t.entries {
                e.retracted = true;
            }
        }
        self.prune(r.txn);
    }

    /// Drop a transaction's state once nothing about it can matter again:
    /// finalized, nothing buffered, and no live entry a future cascade
    /// could retract. Keeps the writer's shadow state (and checkpoints)
    /// from growing with every transaction ever executed. Finalized
    /// transactions that still hold live entries (MS-IA initial guesses)
    /// are retained — the live `ApologyManager` keeps those too; see the
    /// ROADMAP settle-and-prune item.
    fn prune(&mut self, txn: TxnId) {
        if let Some(t) = self.txns.get(&txn.0) {
            if t.finalized && t.pending.is_empty() && !t.has_live_entry() {
                self.txns.remove(&txn.0);
            }
        }
    }

    /// Live registered entries (not yet retracted), in sequence order —
    /// the registration order a rebuilt `ApologyManager` must use.
    #[must_use]
    pub fn live_entries(&self) -> Vec<RecoveredEntry> {
        let mut entries: Vec<RecoveredEntry> = self
            .txns
            .values()
            .flat_map(|t| t.entries.iter())
            .filter(|e| !e.retracted)
            .map(|e| e.entry.clone())
            .collect();
        entries.sort_by_key(|e| e.seq);
        entries
    }

    /// Transactions whose initial commit survived but whose final commit
    /// did not, and that still have a live (unretracted) footprint — the
    /// set the recovering edge owes retractions and apologies for. In
    /// commit order.
    #[must_use]
    pub fn unfinalized(&self) -> Vec<TxnId> {
        let mut with_seq: Vec<(u64, TxnId)> = self
            .txns
            .iter()
            .filter(|(_, t)| t.initial_committed && !t.finalized && t.has_live_entry())
            .map(|(id, t)| {
                let seq = t
                    .entries
                    .iter()
                    .find(|e| !e.retracted)
                    .map_or(u64::MAX, |e| e.entry.seq);
                (seq, TxnId(*id))
            })
            .collect();
        with_seq.sort();
        with_seq.into_iter().map(|(_, t)| t).collect()
    }

    /// Coordinator decisions seen (latest per transaction).
    #[must_use]
    pub fn tpc_decisions(&self) -> &[(TxnId, bool)] {
        &self.tpc
    }

    /// The phase-1 decision logged for `txn`, if any.
    #[must_use]
    pub fn tpc_decision(&self, txn: TxnId) -> Option<bool> {
        self.tpc
            .iter()
            .find(|(t, _)| *t == txn)
            .map(|(_, commit)| *commit)
    }

    /// Count of transactions whose final commit this state has seen.
    #[must_use]
    pub fn finalized_count(&self) -> usize {
        self.finalized_total as usize
    }

    /// One past the highest transaction id seen (0 for an empty log) — a
    /// replacement node continues assigning ids from here.
    #[must_use]
    pub fn next_txn(&self) -> u64 {
        self.next_txn
    }

    /// Count of registered entries still tracked (live or retracted) —
    /// what settle-and-prune keeps bounded.
    #[must_use]
    pub fn tracked_entries(&self) -> usize {
        self.txns.values().map(|t| t.entries.len()).sum()
    }

    /// Forget writes that were logged but never reached a commit point.
    /// After a crash, the transactions that buffered them are dead — their
    /// locks died with the process, so the writes can never commit — but a
    /// rebuilt writer must not carry their stale images into future
    /// checkpoints. States left empty by the drop are removed.
    pub fn abandon_pending(&mut self) {
        for t in self.txns.values_mut() {
            t.pending.clear();
        }
        self.txns
            .retain(|_, t| t.initial_committed || !t.entries.is_empty());
    }

    /// Serialize into a checkpoint record. `store` is the store this
    /// state was folded with ([`apply`](Self::apply)'s `store`, the
    /// writer's shadow store): it holds only committed state, because
    /// writes still pending (logged without a commit point — MS-SR
    /// transactions caught mid-flight) stay buffered in the state and
    /// never reach it. Pairs are in canonical order (hash, then key),
    /// which depends only on the state, so two writers with the same
    /// state write the same bytes.
    #[must_use]
    pub fn to_checkpoint(&self, store: &KvStore) -> CheckpointRecord {
        CheckpointRecord {
            store: store.canonical_pairs(),
            txns: self
                .txns
                .iter()
                .map(|(id, t)| CheckpointTxn {
                    txn: TxnId(*id),
                    pending: t.pending.clone(),
                    entries: t
                        .entries
                        .iter()
                        .map(|e| CheckpointEntry {
                            seq: e.entry.seq,
                            retracted: e.retracted,
                            reads: e.entry.reads.clone(),
                            writes: e.entry.writes.clone(),
                            undo: e.entry.undo.clone(),
                        })
                        .collect(),
                    initial_committed: t.initial_committed,
                    finalized: t.finalized,
                })
                .collect(),
            next_seq: self.next_seq,
            finalized: self.finalized_total,
            tpc: self.tpc.clone(),
            next_txn: self.next_txn,
        }
    }
}

/// The result of replaying a log byte stream.
pub struct RecoveryReport {
    /// The rebuilt store: every committed effect, in commit order, as of
    /// the last valid frame.
    pub store: KvStore,
    /// Live registered footprints, in registration order — feed these to
    /// `ApologyManager::register` before retracting anything.
    pub entries: Vec<RecoveredEntry>,
    /// Initially-committed transactions whose final commit is missing:
    /// the set the recovering edge owes retractions and apologies for.
    pub unfinalized: Vec<TxnId>,
    /// 2PC coordinator decisions found in the log.
    pub tpc_decisions: Vec<(TxnId, bool)>,
    /// Valid frames replayed.
    pub frames: usize,
    /// Bytes of valid prefix replayed.
    pub bytes_replayed: u64,
    /// Whether a torn/corrupt tail was discarded.
    pub torn_tail: bool,
    /// Transactions whose final commit survived.
    pub finalized: usize,
    /// One past the highest transaction id in the log — where a
    /// replacement node continues the id sequence.
    pub next_txn: u64,
    /// The full replay state machine at the end of the valid prefix —
    /// hand this to [`Wal::resume`](crate::Wal::resume) to continue the
    /// log where the crash left it.
    pub state: RecoveryState,
}

/// Replay a log byte stream (everything the crash preserved) into a fresh
/// store. Stops at the first torn or corrupt frame: the log up to there is
/// a prefix of history, and the report reflects exactly that prefix.
#[must_use]
pub fn recover(bytes: &[u8]) -> RecoveryReport {
    let store = KvStore::new();
    let mut state = RecoveryState::new();
    let mut frames = 0usize;
    let mut reader = FrameReader::new(bytes);
    let mut decode_failed = false;
    let mut bytes_replayed = 0u64;
    while let Some(payload) = reader.next() {
        match WalRecord::decode(payload) {
            Ok(record) => {
                state.apply(record, Some(&store));
                frames += 1;
                bytes_replayed = reader.offset() as u64;
            }
            Err(_) => {
                // A frame with a valid checksum but an undecodable payload
                // is corruption all the same; stop at the prefix before it.
                decode_failed = true;
                break;
            }
        }
    }
    let torn_tail = decode_failed || reader.tail() == TailState::Torn;
    RecoveryReport {
        entries: state.live_entries(),
        unfinalized: state.unfinalized(),
        tpc_decisions: state.tpc_decisions().to_vec(),
        finalized: state.finalized_count(),
        next_txn: state.next_txn(),
        store,
        frames,
        bytes_replayed,
        torn_tail,
        state,
    }
}

/// Replay a log file. A missing file recovers to an empty store (a fresh
/// edge that never wrote a log is a valid pre-crash state).
pub fn recover_file(path: impl AsRef<Path>) -> io::Result<RecoveryReport> {
    let path = path.as_ref();
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    Ok(recover(&bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::write_frame;
    use crate::record::StageFlags;

    fn stage(
        txn: u64,
        stage: u32,
        total: u32,
        flags: u8,
        images: Vec<(&str, Option<i64>, Option<i64>)>,
    ) -> WalRecord {
        WalRecord::Stage(StageRecord {
            txn: TxnId(txn),
            stage,
            total,
            flags: StageFlags(flags),
            reads: vec![],
            writes: images.iter().map(|(k, _, _)| Key::new(k)).collect(),
            images: images
                .into_iter()
                .map(|(k, pre, post)| WriteImage {
                    key: Key::new(k),
                    pre: pre.map(|v| Arc::new(Value::Int(v))),
                    post: post.map(|v| Arc::new(Value::Int(v))),
                })
                .collect(),
        })
    }

    fn log_of(records: &[WalRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in records {
            write_frame(&mut out, &r.encode());
        }
        out
    }

    const CP: u8 = StageFlags::COMMIT_POINT;
    const FIN: u8 = StageFlags::FINAL;
    const REG: u8 = StageFlags::REGISTER;

    #[test]
    fn committed_stages_reappear() {
        let log = log_of(&[
            stage(1, 0, 2, CP | REG, vec![("a", None, Some(1))]),
            stage(1, 1, 2, CP | FIN, vec![("a", Some(1), Some(2))]),
        ]);
        let r = recover(&log);
        assert_eq!(r.store.get(&"a".into()).as_deref(), Some(&Value::Int(2)));
        assert!(r.unfinalized.is_empty());
        assert_eq!(r.finalized, 1);
        assert_eq!(r.frames, 2);
        assert!(!r.torn_tail);
    }

    #[test]
    fn initial_commit_without_final_is_reported_unfinalized() {
        let log = log_of(&[stage(7, 0, 2, CP | REG, vec![("x", None, Some(10))])]);
        let r = recover(&log);
        assert_eq!(r.store.get(&"x".into()).as_deref(), Some(&Value::Int(10)));
        assert_eq!(r.unfinalized, vec![TxnId(7)]);
        assert_eq!(r.entries.len(), 1);
        assert_eq!(r.entries[0].undo, vec![("x".into(), None)]);
    }

    #[test]
    fn ms_sr_writes_stay_invisible_without_final_commit() {
        // No COMMIT_POINT on the early stage: replay buffers, never applies.
        let log = log_of(&[stage(3, 0, 2, 0, vec![("held", None, Some(5))])]);
        let r = recover(&log);
        assert!(!r.store.contains(&"held".into()));
        assert!(r.unfinalized.is_empty(), "nothing was initially committed");
    }

    #[test]
    fn ms_sr_final_commit_applies_all_buffered_stages() {
        let log = log_of(&[
            stage(3, 0, 2, 0, vec![("a", None, Some(1))]),
            stage(3, 1, 2, CP | FIN, vec![("b", None, Some(2))]),
        ]);
        let r = recover(&log);
        assert_eq!(r.store.get(&"a".into()).as_deref(), Some(&Value::Int(1)));
        assert_eq!(r.store.get(&"b".into()).as_deref(), Some(&Value::Int(2)));
        assert_eq!(r.finalized, 1);
    }

    #[test]
    fn retract_record_replays_the_restores() {
        let log = log_of(&[
            stage(1, 0, 2, CP | REG, vec![("a", Some(0), Some(9))]),
            WalRecord::Retract(RetractRecord {
                txn: TxnId(1),
                restores: vec![("a".into(), Some(Arc::new(Value::Int(0))))],
            }),
        ]);
        let r = recover(&log);
        assert_eq!(r.store.get(&"a".into()).as_deref(), Some(&Value::Int(0)));
        assert!(r.unfinalized.is_empty(), "retracted txns owe no apology");
        assert!(r.entries.is_empty(), "retracted entries are not live");
    }

    #[test]
    fn torn_tail_yields_the_prefix() {
        let full = log_of(&[
            stage(1, 0, 2, CP, vec![("a", None, Some(1))]),
            stage(1, 1, 2, CP | FIN, vec![("a", Some(1), Some(2))]),
        ]);
        // Cut into the middle of the second frame.
        let r = recover(&full[..full.len() - 3]);
        assert!(r.torn_tail);
        assert_eq!(r.frames, 1);
        assert_eq!(r.store.get(&"a".into()).as_deref(), Some(&Value::Int(1)));
    }

    #[test]
    fn checkpoint_restarts_replay_state() {
        let mut state = RecoveryState::new();
        let store = KvStore::new();
        let rec = stage(1, 0, 2, CP | REG, vec![("a", None, Some(1))]);
        state.apply(rec, Some(&store));
        let cp = state.to_checkpoint(&store);
        let log = log_of(&[
            WalRecord::Checkpoint(Box::new(cp)),
            stage(1, 1, 2, CP | FIN, vec![("a", Some(1), Some(5))]),
        ]);
        let r = recover(&log);
        assert_eq!(r.store.get(&"a".into()).as_deref(), Some(&Value::Int(5)));
        assert!(r.unfinalized.is_empty());
        assert_eq!(r.finalized, 1);
    }

    #[test]
    fn checkpoint_excludes_pending_uncommitted_writes() {
        // An MS-SR transaction logged stage 0 (no commit point), folded
        // through the store as the writer does. The checkpoint must
        // contain the pre-image, and replay must still finish the txn.
        let mut state = RecoveryState::new();
        let store = KvStore::new();
        store.put("a".into(), Value::Int(7)); // pre-existing
        let rec = stage(9, 0, 2, 0, vec![("a", Some(7), Some(100))]);
        state.apply(rec, Some(&store)); // buffered: the store keeps 7
        let cp = state.to_checkpoint(&store);
        assert_eq!(
            cp.store,
            vec![(Key::new("a"), Arc::new(Value::Int(7)))],
            "checkpoint holds the committed pre-image"
        );
        let log = log_of(&[
            WalRecord::Checkpoint(Box::new(cp)),
            stage(9, 1, 2, CP | FIN, vec![]),
        ]);
        let r = recover(&log);
        assert_eq!(
            r.store.get(&"a".into()).as_deref(),
            Some(&Value::Int(100)),
            "final commit applies the buffered stage-0 write"
        );
    }

    #[test]
    fn checkpoint_drops_keys_created_by_pending_writes() {
        let mut state = RecoveryState::new();
        let store = KvStore::new();
        let rec = stage(9, 0, 2, 0, vec![("fresh", None, Some(1))]);
        state.apply(rec, Some(&store));
        let cp = state.to_checkpoint(&store);
        assert!(cp.store.is_empty(), "pending insert is not committed state");
    }

    #[test]
    fn checkpoint_restores_pending_deletes_in_canonical_order() {
        // Pending deletes stay buffered and never take keys out of the
        // store, so the checkpoint keeps every key's committed value in
        // canonical order: ascending FNV-1a hash, then key.
        let mut state = RecoveryState::new();
        let store = KvStore::new();
        for (k, v) in [("a", 1), ("b", 2), ("c", 3), ("d", 4), ("e", 5)] {
            store.put(k.into(), Value::Int(v));
        }
        let before = store.canonical_pairs();
        let rec = stage(9, 0, 2, 0, vec![("b", Some(2), None), ("d", Some(4), None)]);
        state.apply(rec, Some(&store));
        let cp = state.to_checkpoint(&store);
        let keys: Vec<&str> = cp.store.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["e", "d", "a", "c", "b"]);
        assert_eq!(*cp.store[1].1, Value::Int(4));
        assert_eq!(cp.store, before, "the store as it was before the deletes");
    }

    #[test]
    fn tpc_decisions_survive_recovery() {
        let log = log_of(&[
            WalRecord::TpcDecision {
                txn: TxnId(5),
                commit: true,
            },
            WalRecord::TpcDecision {
                txn: TxnId(6),
                commit: false,
            },
        ]);
        let r = recover(&log);
        assert_eq!(r.tpc_decisions, vec![(TxnId(5), true), (TxnId(6), false)]);
    }

    #[test]
    fn empty_and_missing_logs_recover_to_empty_store() {
        let r = recover(&[]);
        assert!(r.store.is_empty());
        assert_eq!(r.frames, 0);
        assert!(!r.torn_tail);
        let r = recover_file("/nonexistent/croesus/edge-0.wal").unwrap();
        assert!(r.store.is_empty());
    }

    #[test]
    fn undecodable_valid_crc_frame_is_corruption() {
        let mut log = log_of(&[stage(1, 0, 2, CP, vec![("a", None, Some(1))])]);
        write_frame(&mut log, &[250, 1, 2, 3]); // valid CRC, bogus record
        let r = recover(&log);
        assert!(r.torn_tail);
        assert_eq!(r.frames, 1);
    }

    #[test]
    fn staged_protocol_final_guess_stays_live_after_finalize() {
        // REGISTER on the final stage (staged discipline): the entry stays
        // live for cascades, but the txn is finalized — no apology owed.
        let log = log_of(&[
            stage(2, 0, 2, CP | REG, vec![("g", None, Some(1))]),
            stage(2, 1, 2, CP | FIN | REG, vec![("g", Some(1), Some(2))]),
        ]);
        let r = recover(&log);
        assert!(r.unfinalized.is_empty());
        assert_eq!(r.entries.len(), 2);
        assert_eq!(r.entries[0].seq, 0);
        assert_eq!(r.entries[1].seq, 1);
    }

    #[test]
    fn settle_drops_finalized_entries_but_keeps_the_store() {
        let log = log_of(&[
            stage(1, 0, 2, CP | REG, vec![("a", None, Some(1))]),
            stage(1, 1, 2, CP | FIN | REG, vec![("a", Some(1), Some(2))]),
            WalRecord::Settle,
        ]);
        let r = recover(&log);
        assert_eq!(r.store.get(&"a".into()).as_deref(), Some(&Value::Int(2)));
        assert!(r.entries.is_empty(), "settle dropped the live guesses");
        assert_eq!(r.state.tracked_entries(), 0);
        assert_eq!(r.finalized, 1, "the finalized count survives settling");
        assert_eq!(r.next_txn, 2);
    }

    #[test]
    fn tpc_end_expires_the_decision() {
        let log = log_of(&[
            WalRecord::TpcDecision {
                txn: TxnId(5),
                commit: true,
            },
            WalRecord::TpcDecision {
                txn: TxnId(6),
                commit: false,
            },
            WalRecord::TpcEnd { txn: TxnId(5) },
        ]);
        let r = recover(&log);
        assert_eq!(r.tpc_decisions, vec![(TxnId(6), false)]);
    }

    #[test]
    fn abandon_pending_forgets_uncommitted_writes() {
        // An MS-SR transaction died mid-flight: stage 0 logged, no commit
        // point. Its buffered pre-image must not leak into checkpoints
        // taken by a writer resumed from this state.
        let mut state = RecoveryState::new();
        let store = KvStore::new();
        state.apply(
            stage(3, 0, 2, 0, vec![("held", Some(7), Some(100))]),
            Some(&store),
        );
        state.abandon_pending();
        let cp = state.to_checkpoint(&store);
        assert!(cp.txns.is_empty(), "the dead txn's state is gone");
        assert!(cp.store.is_empty(), "no stale pre-image overlay");
        assert_eq!(state.next_txn(), 4, "the id high-water mark survives");
    }

    #[test]
    fn next_txn_survives_a_checkpoint_roundtrip() {
        let mut state = RecoveryState::new();
        let store = KvStore::new();
        state.apply(
            stage(41, 0, 1, CP | FIN, vec![("a", None, Some(1))]),
            Some(&store),
        );
        let log = log_of(&[WalRecord::Checkpoint(Box::new(state.to_checkpoint(&store)))]);
        let r = recover(&log);
        assert_eq!(r.next_txn, 42);
    }
}
