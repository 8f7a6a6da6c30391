//! Apologies and cascading retraction — the machinery behind MS-IA (§4.4).
//!
//! MS-IA flips invariant confluence "from a pattern of check-then-apply to
//! a pattern of apply-then-check": initial sections commit optimistically;
//! when the final section discovers a wrong trigger or input it may
//! *retract* the initial section's effects. Because other transactions may
//! already have read those effects, retraction cascades: "an apology
//! procedure in the final section could retract the effects of t₁ and any
//! other transactions that depended on it".
//!
//! [`ApologyManager`] records one entry per registering stage — its
//! read/write footprint and undo pre-images, in the log's own
//! [`CheckpointEntry`] type — and computes the transitive dependent set
//! when asked to retract, in one forward walk over the entries in
//! sequence order. Each rolled-back entry yields a [`RetractRecord`]
//! naming its transaction and stage, which the write-ahead log appends
//! as it is; crash recovery hands replayed entries back through
//! [`ApologyManager::recovered`]. Every retracted transaction yields an
//! [`Apology`] that the application can render to affected users ("e.g.,
//! a message is sent to both B and C, with a free game item").

use std::collections::HashSet;
use std::fmt;

use parking_lot::Mutex;

use croesus_store::{Key, KvStore, TxnId, UndoLog};
use croesus_wal::{CheckpointEntry, RetractRecord};

/// An apology owed to users affected by a retraction.
#[derive(Clone, Debug, PartialEq)]
pub struct Apology {
    /// The retracted transaction.
    pub txn: TxnId,
    /// Why the retraction happened.
    pub reason: String,
}

impl fmt::Display for Apology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "apology for {}: {}", self.txn, self.reason)
    }
}

/// The result of one retraction request.
#[derive(Clone, Debug, Default)]
pub struct RetractionReport {
    /// All transactions retracted, in the (reverse-commit) order their
    /// effects were undone. The requested transaction is last.
    pub retracted: Vec<TxnId>,
    /// Apologies generated, one per retracted transaction.
    pub apologies: Vec<Apology>,
    /// The store restores performed, one record per rolled-back entry in
    /// rollback order, naming the entry's transaction and stage. The
    /// write-ahead log appends these as they are, so replay repeats the
    /// exact mutations instead of re-deriving the cascade.
    pub restores: Vec<RetractRecord>,
}

/// Tracks initially-committed transactions for possible retraction.
#[derive(Default)]
pub struct ApologyManager {
    inner: Mutex<ManagerInner>,
}

#[derive(Default)]
struct ManagerInner {
    /// Registered entries with their owning transactions, in sequence
    /// order — the log's own entry type, so recovery hands replayed
    /// entries over without a copy.
    entries: Vec<(TxnId, CheckpointEntry)>,
    next_seq: u64,
    apologies: Vec<Apology>,
}

impl ApologyManager {
    /// A fresh manager.
    pub fn new() -> Self {
        ApologyManager::default()
    }

    /// A manager that takes over entries replayed from a log, in sequence
    /// order. They keep their sequence numbers, and a new registration
    /// orders after them.
    #[must_use]
    pub fn recovered(entries: Vec<(TxnId, CheckpointEntry)>) -> Self {
        let next_seq = entries.last().map_or(0, |(_, e)| e.seq + 1);
        ApologyManager {
            inner: Mutex::new(ManagerInner {
                entries,
                next_seq,
                apologies: Vec::new(),
            }),
        }
    }

    /// Register stage `stage` of `txn` at its commit: its footprint and
    /// undo log. Returns the commit sequence number.
    pub fn register(
        &self,
        txn: TxnId,
        stage: u32,
        reads: Vec<Key>,
        writes: Vec<Key>,
        undo: UndoLog,
    ) -> u64 {
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let entry = CheckpointEntry::registered(seq, stage, reads, writes, undo);
        inner.entries.push((txn, entry));
        seq
    }

    /// Whether `txn` is registered and not yet retracted.
    pub fn is_live(&self, txn: TxnId) -> bool {
        self.inner
            .lock()
            .entries
            .iter()
            .any(|(t, e)| *t == txn && !e.retracted)
    }

    /// Retract `txn`: undo its initial-section effects and those of every
    /// later transaction that (transitively) read or overwrote its writes.
    /// Rollbacks run in reverse commit order so pre-images layer correctly.
    ///
    /// The caller is responsible for isolation (the paper's implementation
    /// runs retraction inside a sequenced final section, so no concurrent
    /// conflicting transaction is in flight).
    pub fn retract(&self, txn: TxnId, store: &KvStore, reason: &str) -> RetractionReport {
        let mut inner = self.inner.lock();
        let affected = cascade(&inner.entries, txn);
        inner.undo(&affected, txn, store, reason)
    }

    /// Drop every tracked entry — live, retracted and finalized alike —
    /// keeping issued apologies and the sequence counter. Returns how many
    /// entries were dropped.
    ///
    /// Only safe at **quiescence**: with no transaction mid-flight there
    /// is no retraction root left, and any *future* retraction can only
    /// start from a transaction registered after this point — its cascade
    /// flows forward in sequence order and never reaches the dropped
    /// entries. The pipeline calls this between frames (see
    /// `EdgeNode::settle`), which is what keeps the manager bounded over
    /// arbitrarily long runs.
    pub fn settle_all(&self) -> usize {
        let mut inner = self.inner.lock();
        let dropped = inner.entries.len();
        inner.entries.clear();
        dropped
    }

    /// Number of entries currently tracked (live **or** retracted) — the
    /// quantity [`settle_all`](Self::settle_all) keeps bounded.
    pub fn tracked_count(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// All apologies issued so far.
    pub fn apologies(&self) -> Vec<Apology> {
        self.inner.lock().apologies.clone()
    }

    /// How many apologies have been issued so far, without cloning them.
    pub fn apology_count(&self) -> usize {
        self.inner.lock().apologies.len()
    }
}

impl ManagerInner {
    /// Roll back the `affected` entries (indices in sequence order) newest
    /// first, so pre-images layer correctly, and apologize for each.
    fn undo(
        &mut self,
        affected: &[usize],
        txn: TxnId,
        store: &KvStore,
        reason: &str,
    ) -> RetractionReport {
        let mut report = RetractionReport::default();
        for &i in affected.iter().rev() {
            let (owner, entry) = &mut self.entries[i];
            let owner = *owner;
            entry.retracted = true;
            // Rollback restores pre-images in reverse record order.
            let mut restores = std::mem::take(&mut entry.undo);
            restores.reverse();
            for (key, value) in &restores {
                store.restore(key.clone(), value.clone());
            }
            report.restores.push(RetractRecord {
                txn: owner,
                stage: entry.stage,
                restores,
            });
            let why = if owner == txn {
                reason.to_string()
            } else {
                format!("cascading retraction (depended on {txn}): {reason}")
            };
            report.retracted.push(owner);
            report.apologies.push(Apology {
                txn: owner,
                reason: why,
            });
        }
        self.apologies.extend(report.apologies.iter().cloned());
        report
    }
}

/// The live entries a retraction of `txn` undoes, as indices in sequence
/// order. Every live entry of `txn` is a root: the staged discipline (and
/// m-stage MS-IA) registers one entry per stage, and stages with disjoint
/// footprints would otherwise survive their own transaction's retraction.
/// A later live entry depends on an affected one when it read or wrote a
/// key that entry wrote. Dependencies only point forward in sequence
/// order, so one walk from the first root, carrying the affected entries'
/// declared writes, finds the whole transitive set.
fn cascade(entries: &[(TxnId, CheckpointEntry)], txn: TxnId) -> Vec<usize> {
    let Some(first) = entries.iter().position(|(t, e)| *t == txn && !e.retracted) else {
        return Vec::new();
    };
    let mut written: HashSet<&Key> = HashSet::new();
    let mut affected = Vec::new();
    for (i, (t, e)) in entries.iter().enumerate().skip(first) {
        if e.retracted {
            continue;
        }
        if *t == txn || e.reads.iter().chain(&e.writes).any(|k| written.contains(k)) {
            written.extend(&e.writes);
            affected.push(i);
        }
    }
    affected
}

/// The reference [`cascade`]: grow the affected set from the roots until
/// no live entry depends on it (entry B depends on entry A when A.seq <
/// B.seq and B read or wrote a key A wrote), O(entries² × keys).
#[cfg(test)]
fn cascade_fixpoint(entries: &[(TxnId, CheckpointEntry)], txn: TxnId) -> Vec<usize> {
    let mut affected: HashSet<usize> = (0..entries.len())
        .filter(|&i| entries[i].0 == txn && !entries[i].1.retracted)
        .collect();
    loop {
        let mut grew = false;
        for (i, (_, later)) in entries.iter().enumerate() {
            if affected.contains(&i) || later.retracted {
                continue;
            }
            let depends = affected.iter().any(|&a| {
                let base = &entries[a].1;
                base.seq < later.seq
                    && base
                        .writes
                        .iter()
                        .any(|w| later.reads.contains(w) || later.writes.contains(w))
            });
            if depends {
                affected.insert(i);
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    let mut order: Vec<usize> = affected.into_iter().collect();
    order.sort_by_key(|&i| entries[i].1.seq);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use croesus_store::Value;

    /// Perform `writes` through an undo log and register the txn.
    fn run_initial(
        mgr: &ApologyManager,
        store: &KvStore,
        txn: TxnId,
        reads: &[&str],
        writes: &[(&str, i64)],
    ) {
        let mut undo = UndoLog::new();
        for (k, v) in writes {
            undo.put(store, Key::new(k), Value::Int(*v));
        }
        mgr.register(
            txn,
            0,
            reads.iter().map(|k| Key::new(k)).collect(),
            writes.iter().map(|(k, _)| Key::new(k)).collect(),
            undo,
        );
    }

    #[test]
    fn retract_single_transaction() {
        let store = KvStore::new();
        store.put("a".into(), Value::Int(1));
        let mgr = ApologyManager::new();
        run_initial(&mgr, &store, TxnId(1), &[], &[("a", 99)]);
        assert_eq!(store.get(&"a".into()).as_deref(), Some(&Value::Int(99)));
        let report = mgr.retract(TxnId(1), &store, "wrong label");
        assert_eq!(store.get(&"a".into()).as_deref(), Some(&Value::Int(1)));
        assert_eq!(report.retracted, vec![TxnId(1)]);
        assert!(report.apologies[0].reason.contains("wrong label"));
    }

    #[test]
    fn retraction_cascades_to_readers() {
        let store = KvStore::new();
        let mgr = ApologyManager::new();
        // t1 writes b; t2 reads b and writes c.
        run_initial(&mgr, &store, TxnId(1), &[], &[("b", 10)]);
        run_initial(&mgr, &store, TxnId(2), &["b"], &[("c", 20)]);
        let report = mgr.retract(TxnId(1), &store, "bad input");
        assert_eq!(report.retracted, vec![TxnId(2), TxnId(1)], "reverse order");
        assert!(!store.contains(&"b".into()));
        assert!(!store.contains(&"c".into()));
    }

    #[test]
    fn cascade_is_transitive() {
        let store = KvStore::new();
        let mgr = ApologyManager::new();
        run_initial(&mgr, &store, TxnId(1), &[], &[("a", 1)]);
        run_initial(&mgr, &store, TxnId(2), &["a"], &[("b", 2)]);
        run_initial(&mgr, &store, TxnId(3), &["b"], &[("c", 3)]);
        let report = mgr.retract(TxnId(1), &store, "cascade");
        assert_eq!(report.retracted, vec![TxnId(3), TxnId(2), TxnId(1)]);
        for key in ["a", "b", "c"] {
            assert!(!store.contains(&key.into()));
        }
    }

    #[test]
    fn independent_transactions_survive() {
        let store = KvStore::new();
        let mgr = ApologyManager::new();
        run_initial(&mgr, &store, TxnId(1), &[], &[("a", 1)]);
        run_initial(&mgr, &store, TxnId(2), &[], &[("z", 2)]);
        let report = mgr.retract(TxnId(1), &store, "only t1");
        assert_eq!(report.retracted, vec![TxnId(1)]);
        assert_eq!(store.get(&"z".into()).as_deref(), Some(&Value::Int(2)));
        assert!(mgr.is_live(TxnId(2)));
        assert!(!mgr.is_live(TxnId(1)));
    }

    #[test]
    fn paper_token_game_example() {
        // §4.4: A=50, B=10, C=0, D=0. t1: A→B 50. t2: B→C 10. t3: B→C 50.
        // The final section of t1 discovers the recipient should have been
        // D. Full cascade retracts t2 and t3 as well (the MS-IA *merge*
        // refinement that keeps t2 is exercised in the invariant module).
        let store = KvStore::new();
        for (k, v) in [("A", 50i64), ("B", 10), ("C", 0), ("D", 0)] {
            store.put(k.into(), Value::Int(v));
        }
        let mgr = ApologyManager::new();
        let transfer = |mgr: &ApologyManager, id: u64, from: &str, to: &str, amt: i64| {
            let mut undo = UndoLog::new();
            let f = store.get(&from.into()).unwrap().as_int().unwrap();
            let t = store.get(&to.into()).unwrap().as_int().unwrap();
            undo.put(&store, from.into(), Value::Int(f - amt));
            undo.put(&store, to.into(), Value::Int(t + amt));
            mgr.register(
                TxnId(id),
                0,
                vec![from.into(), to.into()],
                vec![from.into(), to.into()],
                undo,
            );
        };
        transfer(&mgr, 1, "A", "B", 50);
        transfer(&mgr, 2, "B", "C", 10);
        transfer(&mgr, 3, "B", "C", 50);
        // State now: A=0, B=0, C=60.
        assert_eq!(store.get(&"C".into()).as_deref(), Some(&Value::Int(60)));
        let report = mgr.retract(TxnId(1), &store, "recipient was D, not B");
        assert_eq!(report.retracted, vec![TxnId(3), TxnId(2), TxnId(1)]);
        // Everything rolled back to the start.
        assert_eq!(store.get(&"A".into()).as_deref(), Some(&Value::Int(50)));
        assert_eq!(store.get(&"B".into()).as_deref(), Some(&Value::Int(10)));
        assert_eq!(store.get(&"C".into()).as_deref(), Some(&Value::Int(0)));
        assert_eq!(mgr.apologies().len(), 3);
        assert_eq!(mgr.apology_count(), 3);
    }

    #[test]
    fn retract_unknown_txn_is_empty_report() {
        let store = KvStore::new();
        let mgr = ApologyManager::new();
        let report = mgr.retract(TxnId(404), &store, "ghost");
        assert!(report.retracted.is_empty());
        assert!(report.apologies.is_empty());
    }

    #[test]
    fn double_retract_is_idempotent() {
        let store = KvStore::new();
        let mgr = ApologyManager::new();
        run_initial(&mgr, &store, TxnId(1), &[], &[("a", 1)]);
        let first = mgr.retract(TxnId(1), &store, "once");
        assert_eq!(first.retracted.len(), 1);
        let second = mgr.retract(TxnId(1), &store, "twice");
        assert!(second.retracted.is_empty());
    }

    #[test]
    fn settle_all_drops_entries_but_keeps_apologies_and_seq() {
        let store = KvStore::new();
        let mgr = ApologyManager::new();
        run_initial(&mgr, &store, TxnId(1), &[], &[("a", 1)]);
        run_initial(&mgr, &store, TxnId(2), &["a"], &[("b", 2)]);
        mgr.retract(TxnId(1), &store, "pre-settle");
        assert_eq!(mgr.tracked_count(), 2, "retracted entries linger");
        assert_eq!(mgr.settle_all(), 2);
        assert_eq!(mgr.tracked_count(), 0);
        assert_eq!(mgr.apologies().len(), 2, "history of apologies survives");
        // The sequence counter keeps counting: a post-settle registration
        // orders after everything that ever existed.
        let mut undo = UndoLog::new();
        undo.put(&store, Key::new("c"), Value::Int(3));
        let seq = mgr.register(TxnId(3), 0, vec![], vec![Key::new("c")], undo);
        assert_eq!(seq, 2);
    }

    #[test]
    fn recovered_entries_keep_their_sequence_numbers() {
        let entry = |seq, key: &str| CheckpointEntry {
            seq,
            stage: 0,
            retracted: false,
            reads: vec![],
            writes: vec![Key::new(key)],
            undo: vec![(Key::new(key), None)],
        };
        let mgr =
            ApologyManager::recovered(vec![(TxnId(4), entry(5, "a")), (TxnId(7), entry(9, "b"))]);
        let seqs: Vec<u64> = mgr
            .inner
            .lock()
            .entries
            .iter()
            .map(|(_, e)| e.seq)
            .collect();
        assert_eq!(seqs, [5, 9], "the log's sequence numbers");
        let store = KvStore::new();
        store.put("b".into(), Value::Int(1));
        let mut undo = UndoLog::new();
        undo.put(&store, Key::new("c"), Value::Int(2));
        let seq = mgr.register(TxnId(8), 0, vec![Key::new("b")], vec![Key::new("c")], undo);
        assert_eq!(seq, 10, "a new registration orders after them");
        let report = mgr.retract(TxnId(7), &store, "recovered guess");
        assert_eq!(report.retracted, vec![TxnId(8), TxnId(7)]);
        assert!(!store.contains(&"b".into()));
        assert!(!store.contains(&"c".into()));
    }

    /// Retract `txn` from `mgr` through the reference fixpoint.
    fn retract_by_fixpoint(
        mgr: &ApologyManager,
        txn: TxnId,
        store: &KvStore,
        reason: &str,
    ) -> RetractionReport {
        let mut inner = mgr.inner.lock();
        let affected = cascade_fixpoint(&inner.entries, txn);
        inner.undo(&affected, txn, store, reason)
    }

    #[test]
    fn forward_cascade_matches_the_fixpoint_on_random_histories() {
        use croesus_sim::DetRng;
        let keys = ["a", "b", "c", "d", "e"];
        let mut cascaded = 0;
        for seed in 0..300 {
            let mut rng = DetRng::new(seed);
            let pair = [
                (ApologyManager::new(), KvStore::new()),
                (ApologyManager::new(), KvStore::new()),
            ];
            let mut stages = [0u32; 5];
            for step in 0..12 + rng.index(12) {
                // A handful of transactions, so most register several
                // entries; now and then one is retracted mid-history.
                let txn = TxnId(rng.index(5) as u64);
                if rng.index(5) == 0 {
                    let (fast, fast_store) = &pair[0];
                    let (slow, slow_store) = &pair[1];
                    let got = fast.retract(txn, fast_store, "why");
                    let want = retract_by_fixpoint(slow, txn, slow_store, "why");
                    assert_eq!(got.retracted, want.retracted, "seed {seed} step {step}");
                    assert_eq!(got.apologies, want.apologies, "seed {seed} step {step}");
                    assert_eq!(got.restores, want.restores, "seed {seed} step {step}");
                    assert_eq!(fast_store.canonical_pairs(), slow_store.canonical_pairs());
                    cascaded += got.retracted.len().saturating_sub(1);
                    continue;
                }
                let pick = |rng: &mut DetRng| -> Vec<&str> {
                    keys.iter().copied().filter(|_| rng.index(3) == 0).collect()
                };
                let reads = pick(&mut rng);
                let writes = pick(&mut rng);
                let value = rng.index(100) as i64;
                let stage = stages[txn.0 as usize];
                stages[txn.0 as usize] += 1;
                for (mgr, store) in &pair {
                    let mut undo = UndoLog::new();
                    for k in &writes {
                        undo.put(store, Key::new(k), Value::Int(value));
                    }
                    mgr.register(
                        txn,
                        stage,
                        reads.iter().map(|k| Key::new(k)).collect(),
                        writes.iter().map(|k| Key::new(k)).collect(),
                        undo,
                    );
                }
            }
        }
        assert!(
            cascaded > 100,
            "the histories cascade ({cascaded} dependents)"
        );
    }

    #[test]
    fn later_unrelated_writer_not_cascaded() {
        let store = KvStore::new();
        let mgr = ApologyManager::new();
        run_initial(&mgr, &store, TxnId(1), &[], &[("a", 1)]);
        run_initial(&mgr, &store, TxnId(2), &["q"], &[("r", 7)]);
        let report = mgr.retract(TxnId(1), &store, "x");
        assert_eq!(report.retracted, vec![TxnId(1)]);
        assert_eq!(store.get(&"r".into()).as_deref(), Some(&Value::Int(7)));
    }
}
