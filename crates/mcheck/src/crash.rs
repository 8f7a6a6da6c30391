//! Crash-point checking: for a WAL byte stream produced by one schedule,
//! crash at **every frame boundary**, recover the prefix, and check it
//! against a dumb record-interpreting oracle plus the §4.4 recovery
//! contract (unfinalized ⇒ retracted + apologized).
//!
//! The oracle deliberately shares no code with `croesus_wal::recover`: it
//! applies decoded records to a `BTreeMap`, buffering a transaction's
//! images until its first commit point, exactly as the commit-point table
//! in DESIGN.md specifies. A checkpoint (the first frame of every log that
//! has taken one) is read field by field from [`CheckpointRecord`]'s
//! public fields.
//!
//! This is the one crash-boundary oracle: the mcheck scenarios sweep every
//! explored schedule's log with it, and `tests/crash_recovery.rs` sweeps
//! its seeded workloads' logs.

use std::collections::{BTreeMap, BTreeSet};

use croesus_store::{KvStore, Value};
use croesus_txn::recovery::{recover_edge, RecoveredEdge};
use croesus_wal::{recover, CheckpointRecord, FrameReader, RecoveryReport, WalRecord};

/// The prefix-interpreting oracle.
#[derive(Default, Clone)]
pub struct Oracle {
    /// Applied (committed) state.
    pub store: BTreeMap<String, Value>,
    /// txn → buffered (key, post-image) pairs awaiting a commit point.
    pub pending: BTreeMap<u64, Vec<(String, Option<Value>)>>,
    /// Transactions whose first commit point was replayed.
    pub initial: BTreeSet<u64>,
    /// Transactions whose final commit point was replayed.
    pub finalized: BTreeSet<u64>,
    /// Registered, unretracted apology entries, as (txn, stage) pairs.
    pub live_entries: BTreeSet<(u64, u32)>,
    /// 2PC decisions still live (decision seen, no matching end).
    pub tpc: BTreeMap<u64, bool>,
    /// Every 2PC decision seen in the prefix, never expired (after a
    /// checkpoint: the ones it carried, then every later one).
    pub tpc_all: BTreeMap<u64, bool>,
}

impl Oracle {
    /// Apply one decoded record.
    pub fn apply(&mut self, record: &WalRecord) {
        match record {
            WalRecord::Stage(s) => {
                let pending = self.pending.entry(s.txn.0).or_default();
                for w in &s.images {
                    pending.push((w.key.as_str().to_string(), w.post.as_deref().cloned()));
                }
                if s.flags.commit_point() {
                    for (key, post) in std::mem::take(pending) {
                        match post {
                            Some(v) => {
                                self.store.insert(key, v);
                            }
                            None => {
                                self.store.remove(&key);
                            }
                        }
                    }
                    self.initial.insert(s.txn.0);
                    if s.flags.register() {
                        self.live_entries.insert((s.txn.0, s.stage));
                    }
                    if s.flags.is_final() {
                        self.finalized.insert(s.txn.0);
                    }
                }
            }
            WalRecord::Retract(r) => {
                for (key, value) in &r.restores {
                    match value {
                        Some(v) => {
                            self.store.insert(key.as_str().to_string(), (**v).clone());
                        }
                        None => {
                            self.store.remove(key.as_str());
                        }
                    }
                }
                self.live_entries.remove(&(r.txn.0, r.stage));
            }
            WalRecord::TpcDecision { txn, commit } => {
                self.tpc.insert(txn.0, *commit);
                self.tpc_all.insert(txn.0, *commit);
            }
            WalRecord::TpcEnd { txn } => {
                self.tpc.remove(&txn.0);
            }
            WalRecord::Checkpoint(cp) => *self = Oracle::from_checkpoint(cp),
            WalRecord::Settle => {}
        }
    }

    /// The state a checkpoint restarts the log from: its committed store,
    /// each transaction's pending images, commit flags and unretracted
    /// entries, and its live 2PC decisions.
    fn from_checkpoint(cp: &CheckpointRecord) -> Self {
        let mut oracle = Oracle {
            store: cp
                .store
                .iter()
                .map(|(k, v)| (k.as_str().to_string(), (**v).clone()))
                .collect(),
            tpc: cp.tpc.iter().map(|(t, c)| (t.0, *c)).collect(),
            ..Oracle::default()
        };
        oracle.tpc_all = oracle.tpc.clone();
        for t in &cp.txns {
            let txn = t.txn.0;
            let pending = t
                .pending
                .iter()
                .map(|w| (w.key.as_str().to_string(), w.post.as_deref().cloned()));
            oracle.pending.insert(txn, pending.collect());
            if t.initial_committed {
                oracle.initial.insert(txn);
            }
            if t.finalized {
                oracle.finalized.insert(txn);
            }
            for e in t.entries.iter().filter(|e| !e.retracted) {
                oracle.live_entries.insert((txn, e.stage));
            }
        }
        oracle
    }

    /// The transactions a recovering edge owes retractions for.
    #[must_use]
    pub(crate) fn expected_unfinalized(&self) -> BTreeSet<u64> {
        self.initial
            .iter()
            .filter(|&&t| {
                !self.finalized.contains(&t)
                    && self
                        .live_entries
                        .range((t, 0)..=(t, u32::MAX))
                        .next()
                        .is_some()
            })
            .copied()
            .collect()
    }
}

/// One crash point: the log truncated at a frame boundary, recovered both
/// raw and apology-aware, with the oracle's view of the same prefix.
pub struct CrashCut<'a> {
    /// Whole frames in the prefix.
    pub frames: usize,
    /// Byte offset of the cut.
    pub cut: usize,
    /// Raw replay of the prefix.
    pub report: &'a RecoveryReport,
    /// Apology-aware recovery of the prefix (retractions applied).
    pub edge: &'a RecoveredEdge,
    /// The oracle after the same records.
    pub oracle: &'a Oracle,
}

fn snapshot_of(store: &KvStore) -> BTreeMap<String, Value> {
    store
        .snapshot()
        .into_iter()
        .map(|(k, v)| (k.as_str().to_string(), (*v.value).clone()))
        .collect()
}

/// Crash at every frame boundary of `log`; at each cut, check prefix
/// consistency (oracle equality, unfinalized set, apology coverage) and
/// then the scenario-specific `extra` predicate. The first failure is
/// returned with the cut position baked into the message.
pub fn sweep(
    log: &[u8],
    mut extra: impl FnMut(&CrashCut<'_>) -> Result<(), String>,
) -> Result<(), String> {
    let mut boundaries = vec![0usize];
    {
        let mut reader = FrameReader::new(log);
        while reader.next().is_some() {
            boundaries.push(reader.offset());
        }
        if *boundaries.last().unwrap() != log.len() {
            return Err(format!(
                "the schedule's own log must parse completely: valid prefix {} of {} bytes",
                boundaries.last().unwrap(),
                log.len()
            ));
        }
    }
    let mut oracle = Oracle::default();
    let mut oracle_at: Vec<Oracle> = vec![oracle.clone()];
    {
        let reader = FrameReader::new(log);
        for payload in reader {
            let record =
                WalRecord::decode(payload).map_err(|e| format!("undecodable record: {e:?}"))?;
            oracle.apply(&record);
            oracle_at.push(oracle.clone());
        }
    }

    for (frames, &cut) in boundaries.iter().enumerate() {
        let at = |msg: String| format!("crash at frame {frames} (byte {cut}): {msg}");
        let report = recover(&log[..cut]);
        if report.frames != frames {
            return Err(at(format!("recovery replayed {} frames", report.frames)));
        }
        if report.torn_tail {
            return Err(at("boundary cut misreported as torn".into()));
        }
        let expected = &oracle_at[frames];
        let got = snapshot_of(&report.store);
        if got != expected.store {
            return Err(at(format!(
                "store mismatch: recovered {got:?}, oracle {:?}",
                expected.store
            )));
        }
        let unfinalized: BTreeSet<u64> = report.unfinalized.iter().map(|t| t.0).collect();
        if unfinalized != expected.expected_unfinalized() {
            return Err(at(format!(
                "unfinalized mismatch: recovered {unfinalized:?}, oracle {:?}",
                expected.expected_unfinalized()
            )));
        }
        let tpc: BTreeMap<u64, bool> = report
            .tpc_decisions
            .iter()
            .map(|(t, c)| (t.0, *c))
            .collect();
        if tpc != expected.tpc {
            return Err(at(format!(
                "2PC decision mismatch: recovered {tpc:?}, oracle {:?}",
                expected.tpc
            )));
        }

        // Apology-aware recovery on the same prefix: every unfinalized
        // transaction must end up retracted (not live) and apologized for.
        let edge = recover_edge(&log[..cut]);
        let apologized: BTreeSet<u64> = edge.apologies_owed().iter().map(|a| a.txn.0).collect();
        for txn in &unfinalized {
            if edge.apologies.is_live(croesus_store::TxnId(*txn)) {
                return Err(at(format!(
                    "unfinalized txn {txn} still live after recovery"
                )));
            }
            if !apologized.contains(txn) {
                return Err(at(format!("txn {txn} owes its users an apology")));
            }
        }
        // Apologies ⊇ everything recovery retracted (cascades included).
        for r in &edge.retractions {
            for t in &r.retracted {
                if !apologized.contains(&t.0) {
                    return Err(at(format!(
                        "cascade-retracted txn {} lacks an apology",
                        t.0
                    )));
                }
            }
        }

        extra(&CrashCut {
            frames,
            cut,
            report: &report,
            edge: &edge,
            oracle: expected,
        })
        .map_err(at)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use croesus_store::TxnId;
    use croesus_wal::{StageFlags, StageRecord, Wal, WalConfig, WriteImage};
    use std::sync::Arc;

    fn stage(txn: u64, key: &str, val: i64, flags: u8) -> StageRecord {
        StageRecord {
            txn: TxnId(txn),
            stage: 0,
            total: 2,
            flags: StageFlags(flags),
            reads: vec![],
            writes: vec![key.into()],
            images: vec![WriteImage {
                key: key.into(),
                pre: None,
                post: Some(Arc::new(Value::Int(val))),
            }],
        }
    }

    #[test]
    fn sweep_accepts_a_clean_log_and_rejects_nothing() {
        let (wal, probe) = Wal::in_memory(WalConfig::strict());
        wal.append_stage(stage(
            1,
            "x",
            7,
            StageFlags::COMMIT_POINT | StageFlags::REGISTER,
        ))
        .unwrap();
        wal.append_stage(stage(
            1,
            "x",
            8,
            StageFlags::COMMIT_POINT | StageFlags::FINAL,
        ))
        .unwrap();
        let mut cuts = 0;
        sweep(&wal.epoch_bytes(&probe), |cut| {
            cuts += 1;
            if cut.frames == 1 {
                assert_eq!(cut.oracle.expected_unfinalized(), BTreeSet::from([1]));
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(cuts, 3, "empty prefix + two boundaries");
    }

    #[test]
    fn sweep_propagates_extra_check_failures_with_cut_position() {
        let (wal, probe) = Wal::in_memory(WalConfig::strict());
        wal.append_stage(stage(3, "k", 1, StageFlags::COMMIT_POINT))
            .unwrap();
        let err = sweep(&wal.epoch_bytes(&probe), |cut| {
            if cut.frames == 1 {
                Err("scenario invariant failed".into())
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert!(err.contains("crash at frame 1"), "got: {err}");
        assert!(err.contains("scenario invariant failed"));
    }
}
