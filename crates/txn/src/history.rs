//! Execution-history recording and the MS-SR / MS-IA safety checkers.
//!
//! The ordering relation `<h` of §4.3 "represents the ordering relative to
//! the commitment rather than the beginning of the section". The recorder
//! assigns a global sequence number to every event; the checkers read the
//! commit order plus per-section read/write sets and verify:
//!
//! * **MS-SR(a)**: for conflicting `t_k`, `t_j` with `iᵏ <h iʲ`, the final
//!   section `fᵏ` commits after `iᵏ` and before `fʲ`.
//! * **MS-SR(b)**: if `fᵏ` conflicts with `iʲ`, then `fᵏ <h iʲ`.
//! * **MS-IA**: every initial section commits before its final section.
//! * **Section serializability** (assumed by both levels): the conflict
//!   graph over committed *sections* is acyclic.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use croesus_store::{Key, TxnId};

/// Which section of a multi-stage transaction.
///
/// The two-stage model of §4 uses `Initial` and `Final`; the generalized
/// m-stage model of §3.5 adds numbered `Intermediate` sections between
/// them. The derived ordering (`Initial < Intermediate(0) < … < Final`)
/// matches the required commit order within a transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SectionKind {
    /// The edge-triggered initial section (stage `s₀`).
    Initial,
    /// An intermediate stage of the generalized model, numbered from 0.
    Intermediate(u16),
    /// The final section (stage `s_{m-1}`), triggered by the most accurate
    /// model's labels.
    Final,
}

impl fmt::Display for SectionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SectionKind::Initial => write!(f, "initial"),
            SectionKind::Intermediate(i) => write!(f, "intermediate[{i}]"),
            SectionKind::Final => write!(f, "final"),
        }
    }
}

/// One recorded event.
#[derive(Clone, Debug, PartialEq)]
pub enum SectionEvent {
    /// A section began.
    Begin {
        /// Transaction id.
        txn: TxnId,
        /// Section kind.
        section: SectionKind,
        /// Global sequence number.
        seq: u64,
    },
    /// A read was performed.
    Read {
        /// Transaction id.
        txn: TxnId,
        /// Section kind.
        section: SectionKind,
        /// Key read.
        key: Key,
        /// Global sequence number.
        seq: u64,
    },
    /// A write was performed.
    Write {
        /// Transaction id.
        txn: TxnId,
        /// Section kind.
        section: SectionKind,
        /// Key written.
        key: Key,
        /// Global sequence number.
        seq: u64,
    },
    /// A section committed.
    Commit {
        /// Transaction id.
        txn: TxnId,
        /// Section kind.
        section: SectionKind,
        /// Global sequence number.
        seq: u64,
    },
    /// The transaction aborted (before initial commit; §4's guarantee).
    Abort {
        /// Transaction id.
        txn: TxnId,
        /// Global sequence number.
        seq: u64,
    },
}

impl SectionEvent {
    /// The global sequence number of this event.
    pub fn seq(&self) -> u64 {
        match self {
            SectionEvent::Begin { seq, .. }
            | SectionEvent::Read { seq, .. }
            | SectionEvent::Write { seq, .. }
            | SectionEvent::Commit { seq, .. }
            | SectionEvent::Abort { seq, .. } => *seq,
        }
    }
}

#[derive(Default)]
struct Inner {
    events: Vec<SectionEvent>,
    next_seq: u64,
}

/// A thread-safe, shareable history recorder.
#[derive(Clone, Default)]
pub struct HistoryRecorder {
    inner: Arc<Mutex<Inner>>,
}

impl HistoryRecorder {
    /// A fresh recorder.
    pub fn new() -> Self {
        HistoryRecorder::default()
    }

    fn push(&self, f: impl FnOnce(u64) -> SectionEvent) {
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let ev = f(seq);
        inner.events.push(ev);
    }

    /// Record a section begin.
    pub(crate) fn record_begin(&self, txn: TxnId, section: SectionKind) {
        self.push(|seq| SectionEvent::Begin { txn, section, seq });
    }

    /// Record a read.
    pub(crate) fn record_read(&self, txn: TxnId, section: SectionKind, key: &Key) {
        let key = key.clone();
        self.push(move |seq| SectionEvent::Read {
            txn,
            section,
            key,
            seq,
        });
    }

    /// Record a write.
    pub(crate) fn record_write(&self, txn: TxnId, section: SectionKind, key: &Key) {
        let key = key.clone();
        self.push(move |seq| SectionEvent::Write {
            txn,
            section,
            key,
            seq,
        });
    }

    /// Record a section commit.
    pub(crate) fn record_commit(&self, txn: TxnId, section: SectionKind) {
        self.push(|seq| SectionEvent::Commit { txn, section, seq });
    }

    /// Record a transaction abort.
    pub(crate) fn record_abort(&self, txn: TxnId) {
        self.push(|seq| SectionEvent::Abort { txn, seq });
    }

    /// Snapshot of all events, in order.
    pub fn events(&self) -> Vec<SectionEvent> {
        self.inner.lock().events.clone()
    }

    /// Build a checker over the current history.
    pub fn checker(&self) -> HistoryChecker {
        HistoryChecker::from_events(self.events())
    }
}

/// A section instance in the analyzed history.
#[derive(Clone, Debug)]
struct SectionInfo {
    txn: TxnId,
    section: SectionKind,
    commit_seq: Option<u64>,
    /// Each read's key and sequence number.
    reads: Vec<(Key, u64)>,
    /// Each write's key and sequence number.
    writes: Vec<(Key, u64)>,
}

impl SectionInfo {
    fn conflicts_with(&self, other: &SectionInfo) -> bool {
        let hits = |a: &[(Key, u64)], b: &[(Key, u64)]| {
            a.iter().any(|(k, _)| b.iter().any(|(other, _)| other == k))
        };
        hits(&self.writes, &other.writes)
            || hits(&self.writes, &other.reads)
            || hits(&self.reads, &other.writes)
    }
}

/// Analyzes a recorded history against the multi-stage safety conditions.
pub struct HistoryChecker {
    sections: Vec<SectionInfo>,
    /// Every abort, with its sequence number: an id may abort and begin
    /// again, so an abort is placed by `seq`, not by its id.
    aborted: Vec<(TxnId, u64)>,
}

impl HistoryChecker {
    /// Build from an event stream.
    pub(crate) fn from_events(events: Vec<SectionEvent>) -> Self {
        let mut map: HashMap<(TxnId, SectionKind), SectionInfo> = HashMap::new();
        let mut aborted = Vec::new();
        for ev in &events {
            match ev {
                SectionEvent::Begin { txn, section, .. } => {
                    let s = map.entry((*txn, *section)).or_insert_with(|| SectionInfo {
                        txn: *txn,
                        section: *section,
                        commit_seq: None,
                        reads: Vec::new(),
                        writes: Vec::new(),
                    });
                    // Beginning an uncommitted section again retries an
                    // aborted attempt, whose operations were rolled back.
                    if s.commit_seq.is_none() {
                        s.reads.clear();
                        s.writes.clear();
                    }
                }
                SectionEvent::Read {
                    txn, section, key, ..
                } => {
                    if let Some(s) = map.get_mut(&(*txn, *section)) {
                        s.reads.push((key.clone(), ev.seq()));
                    }
                }
                SectionEvent::Write {
                    txn, section, key, ..
                } => {
                    if let Some(s) = map.get_mut(&(*txn, *section)) {
                        s.writes.push((key.clone(), ev.seq()));
                    }
                }
                SectionEvent::Commit { txn, section, seq } => {
                    if let Some(s) = map.get_mut(&(*txn, *section)) {
                        s.commit_seq = Some(*seq);
                    }
                }
                SectionEvent::Abort { txn, seq } => aborted.push((*txn, *seq)),
            }
        }
        let mut sections: Vec<SectionInfo> = map.into_values().collect();
        sections.sort_by_key(|s| (s.commit_seq, s.txn, s.section));
        HistoryChecker { sections, aborted }
    }

    fn committed(&self, txn: TxnId, kind: SectionKind) -> Option<&SectionInfo> {
        self.sections
            .iter()
            .find(|s| s.txn == txn && s.section == kind && s.commit_seq.is_some())
    }

    /// Committed transaction ids (those whose initial section committed).
    pub fn committed_txns(&self) -> Vec<TxnId> {
        let mut out: Vec<TxnId> = self
            .sections
            .iter()
            .filter(|s| s.section == SectionKind::Initial && s.commit_seq.is_some())
            .map(|s| s.txn)
            .collect();
        out.sort();
        out
    }

    /// The multi-stage base guarantee (also the whole of MS-IA's ordering
    /// condition): every transaction whose initial section committed has a
    /// committed final section, committed after the initial, and no abort
    /// of it follows that initial commit (§4.1: an initially-committed
    /// transaction must finally commit). Transactions in `still_pending`
    /// (final input not yet delivered) are exempt from the "final
    /// committed" half only.
    pub fn check_ms_ia(&self, still_pending: &[TxnId]) -> Result<(), String> {
        for s in &self.sections {
            if s.section != SectionKind::Initial {
                continue;
            }
            let Some(init_seq) = s.commit_seq else {
                continue;
            };
            if let Some((_, abort_seq)) = self
                .aborted
                .iter()
                .find(|&&(txn, seq)| txn == s.txn && seq > init_seq)
            {
                return Err(format!(
                    "{}: aborted at {} after its initial section committed at {}",
                    s.txn, abort_seq, init_seq
                ));
            }
            match self.committed(s.txn, SectionKind::Final) {
                Some(f) => {
                    let f_seq = f.commit_seq.expect("committed() implies Some");
                    if f_seq <= init_seq {
                        return Err(format!(
                            "{}: final committed at {} before initial at {}",
                            s.txn, f_seq, init_seq
                        ));
                    }
                }
                None if still_pending.contains(&s.txn) => {}
                None => {
                    return Err(format!("{}: initial committed but final never did", s.txn));
                }
            }
        }
        Ok(())
    }

    /// Generalized stage ordering (§3.5): within each transaction, the
    /// committed sections' commit order must follow the stage order
    /// `Initial < Intermediate(0) < … < Final`.
    pub fn check_stage_order(&self) -> Result<(), String> {
        let mut txns: Vec<TxnId> = self.sections.iter().map(|s| s.txn).collect();
        txns.sort();
        txns.dedup();
        for txn in txns {
            let mut stages: Vec<(&SectionKind, u64)> = self
                .sections
                .iter()
                .filter(|s| s.txn == txn && s.commit_seq.is_some())
                .map(|s| (&s.section, s.commit_seq.expect("filtered to committed")))
                .collect();
            stages.sort_by_key(|(k, _)| **k);
            for pair in stages.windows(2) {
                if pair[0].1 >= pair[1].1 {
                    return Err(format!(
                        "{txn}: section {} committed at {} but {} at {}",
                        pair[0].0, pair[0].1, pair[1].0, pair[1].1
                    ));
                }
            }
        }
        Ok(())
    }

    /// MS-SR conditions (a) and (b) over all conflicting committed pairs.
    pub fn check_ms_sr(&self) -> Result<(), String> {
        // The base guarantee first.
        self.check_ms_ia(&[])?;
        let committed = self.committed_txns();
        for (i, &tk) in committed.iter().enumerate() {
            for &tj in &committed[i + 1..] {
                self.check_ms_sr_pair(tk, tj)?;
                self.check_ms_sr_pair(tj, tk)?;
            }
        }
        Ok(())
    }

    fn check_ms_sr_pair(&self, tk: TxnId, tj: TxnId) -> Result<(), String> {
        let (Some(ik), Some(ij), Some(fk), Some(fj)) = (
            self.committed(tk, SectionKind::Initial),
            self.committed(tj, SectionKind::Initial),
            self.committed(tk, SectionKind::Final),
            self.committed(tj, SectionKind::Final),
        ) else {
            return Ok(());
        };
        let seq = |s: &SectionInfo| s.commit_seq.expect("committed");
        // Only pairs with at least one conflicting section matter (§4.1).
        let conflicting = ik.conflicts_with(ij)
            || ik.conflicts_with(fj)
            || fk.conflicts_with(ij)
            || fk.conflicts_with(fj);
        if !conflicting || seq(ik) >= seq(ij) {
            return Ok(());
        }
        // MS-SR(a): iᵏ <h fᵏ <h fʲ.
        if !(seq(ik) < seq(fk) && seq(fk) < seq(fj)) {
            return Err(format!(
                "MS-SR(a) violated for ({tk},{tj}): i_k={} f_k={} f_j={}",
                seq(ik),
                seq(fk),
                seq(fj)
            ));
        }
        // MS-SR(b): conflict(fᵏ, iʲ) ⟹ fᵏ <h iʲ.
        if fk.conflicts_with(ij) && seq(fk) >= seq(ij) {
            return Err(format!(
                "MS-SR(b) violated for ({tk},{tj}): f_k={} i_j={}",
                seq(fk),
                seq(ij)
            ));
        }
        Ok(())
    }

    /// Conflict-serializability of *sections*: both safety levels assume
    /// "each section is serializable relative to other transactions'
    /// sections" (§4.2). Over the committed sections, an edge a→b means
    /// a's operation on a key preceded b's conflicting operation on it
    /// (different transactions, at least one of the two a write); the
    /// history serializes iff that graph is acyclic. Quadratic in the
    /// operations per key: a checker for test-sized histories.
    pub fn check_section_serializability(&self) -> Result<(), String> {
        let committed: Vec<&SectionInfo> = self
            .sections
            .iter()
            .filter(|s| s.commit_seq.is_some())
            .collect();
        // Per key, every operation as (seq, section index, is a write).
        let mut ops: HashMap<&Key, Vec<(u64, usize, bool)>> = HashMap::new();
        for (i, s) in committed.iter().enumerate() {
            for (key, seq) in &s.reads {
                ops.entry(key).or_default().push((*seq, i, false));
            }
            for (key, seq) in &s.writes {
                ops.entry(key).or_default().push((*seq, i, true));
            }
        }
        let mut succ = vec![BTreeSet::new(); committed.len()];
        for key_ops in ops.values_mut() {
            key_ops.sort_unstable();
            for (j, &(_, b, b_writes)) in key_ops.iter().enumerate() {
                for &(_, a, a_writes) in &key_ops[..j] {
                    if committed[a].txn != committed[b].txn && (a_writes || b_writes) {
                        succ[a].insert(b);
                    }
                }
            }
        }
        // Peel off sections nothing unpeeled precedes; whatever is left
        // lies on a cycle or behind one.
        let mut preds = vec![0usize; committed.len()];
        for &b in succ.iter().flatten() {
            preds[b] += 1;
        }
        let mut ready: Vec<usize> = (0..committed.len()).filter(|&i| preds[i] == 0).collect();
        while let Some(a) = ready.pop() {
            for &b in &succ[a] {
                preds[b] -= 1;
                if preds[b] == 0 {
                    ready.push(b);
                }
            }
        }
        let stuck: Vec<String> = (0..committed.len())
            .filter(|&i| preds[i] > 0)
            .map(|i| format!("{} {}", committed[i].txn, committed[i].section))
            .collect();
        if stuck.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "conflict cycle among sections: {}",
                stuck.join(", ")
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        Key::new(s)
    }

    /// Record a full transaction: initial (read x, write y), later final
    /// (write z). Returns recorder for further composition.
    fn record_txn(
        h: &HistoryRecorder,
        id: u64,
        initial_rw: (&[&str], &[&str]),
        final_rw: (&[&str], &[&str]),
    ) {
        let t = TxnId(id);
        h.record_begin(t, SectionKind::Initial);
        for r in initial_rw.0 {
            h.record_read(t, SectionKind::Initial, &k(r));
        }
        for w in initial_rw.1 {
            h.record_write(t, SectionKind::Initial, &k(w));
        }
        h.record_commit(t, SectionKind::Initial);
        h.record_begin(t, SectionKind::Final);
        for r in final_rw.0 {
            h.record_read(t, SectionKind::Final, &k(r));
        }
        for w in final_rw.1 {
            h.record_write(t, SectionKind::Final, &k(w));
        }
        h.record_commit(t, SectionKind::Final);
    }

    #[test]
    fn sequential_transactions_satisfy_both_levels() {
        let h = HistoryRecorder::new();
        record_txn(&h, 1, (&["x"], &[]), (&[], &["x"]));
        record_txn(&h, 2, (&["x"], &[]), (&[], &["x"]));
        let c = h.checker();
        assert!(c.check_ms_ia(&[]).is_ok());
        assert!(c.check_ms_sr().is_ok());
        assert!(c.check_section_serializability().is_ok());
        assert_eq!(c.committed_txns(), vec![TxnId(1), TxnId(2)]);
    }

    #[test]
    fn interleaved_conflicting_sections_fail_serializability() {
        // t1 reads x, t2 writes x and y, t1 writes y: t1 precedes t2 on x
        // and follows it on y, so no serial order of the two exists.
        let h = HistoryRecorder::new();
        let (t1, t2) = (TxnId(1), TxnId(2));
        h.record_begin(t1, SectionKind::Initial);
        h.record_read(t1, SectionKind::Initial, &k("x"));
        h.record_begin(t2, SectionKind::Initial);
        h.record_write(t2, SectionKind::Initial, &k("x"));
        h.record_write(t2, SectionKind::Initial, &k("y"));
        h.record_write(t1, SectionKind::Initial, &k("y"));
        h.record_commit(t2, SectionKind::Initial);
        h.record_commit(t1, SectionKind::Initial);
        let err = h.checker().check_section_serializability().unwrap_err();
        assert!(err.contains("cycle"), "{err}");
    }

    #[test]
    fn a_retried_section_forgets_its_aborted_attempt() {
        // t1's first attempt reads x and aborts; t2 then writes x; t1's
        // retry reads x after t2. Only the retry's read orders t1.
        let h = HistoryRecorder::new();
        let (t1, t2) = (TxnId(1), TxnId(2));
        h.record_begin(t1, SectionKind::Initial);
        h.record_read(t1, SectionKind::Initial, &k("x"));
        h.record_abort(t1);
        h.record_begin(t2, SectionKind::Initial);
        h.record_write(t2, SectionKind::Initial, &k("x"));
        h.record_commit(t2, SectionKind::Initial);
        h.record_begin(t1, SectionKind::Initial);
        h.record_read(t1, SectionKind::Initial, &k("x"));
        h.record_write(t1, SectionKind::Initial, &k("y"));
        h.record_commit(t1, SectionKind::Initial);
        assert!(h.checker().check_section_serializability().is_ok());
    }

    #[test]
    fn missing_final_fails_ms_ia() {
        let h = HistoryRecorder::new();
        let t = TxnId(1);
        h.record_begin(t, SectionKind::Initial);
        h.record_write(t, SectionKind::Initial, &k("x"));
        h.record_commit(t, SectionKind::Initial);
        let c = h.checker();
        assert!(c.check_ms_ia(&[]).is_err());
        // ... unless the final input simply has not arrived yet.
        assert!(c.check_ms_ia(&[t]).is_ok());
    }

    #[test]
    fn interleaved_finals_fail_ms_sr_but_pass_ms_ia() {
        // The §4.2 anomaly: both initial sections read x, then both finals
        // write x — i1 i2 f1 f2. MS-SR(b) requires f1 <h i2 (they conflict).
        let h = HistoryRecorder::new();
        let (t1, t2) = (TxnId(1), TxnId(2));
        for t in [t1, t2] {
            h.record_begin(t, SectionKind::Initial);
            h.record_read(t, SectionKind::Initial, &k("x"));
            h.record_commit(t, SectionKind::Initial);
        }
        for t in [t1, t2] {
            h.record_begin(t, SectionKind::Final);
            h.record_write(t, SectionKind::Final, &k("x"));
            h.record_commit(t, SectionKind::Final);
        }
        let c = h.checker();
        assert!(c.check_ms_ia(&[]).is_ok(), "MS-IA allows this interleaving");
        assert!(c.check_ms_sr().is_err(), "MS-SR must reject it");
    }

    #[test]
    fn tspl_style_ordering_passes_ms_sr() {
        // i1 f1 i2 f2 — what TSPL produces for conflicting transactions.
        let h = HistoryRecorder::new();
        record_txn(&h, 1, (&["x"], &[]), (&[], &["x"]));
        record_txn(&h, 2, (&["x"], &[]), (&[], &["x"]));
        assert!(h.checker().check_ms_sr().is_ok());
    }

    #[test]
    fn non_conflicting_interleaving_passes_ms_sr() {
        // Interleaved finals are fine when transactions do not conflict.
        let h = HistoryRecorder::new();
        let (t1, t2) = (TxnId(1), TxnId(2));
        h.record_begin(t1, SectionKind::Initial);
        h.record_read(t1, SectionKind::Initial, &k("a"));
        h.record_commit(t1, SectionKind::Initial);
        h.record_begin(t2, SectionKind::Initial);
        h.record_read(t2, SectionKind::Initial, &k("b"));
        h.record_commit(t2, SectionKind::Initial);
        for t in [t2, t1] {
            h.record_begin(t, SectionKind::Final);
            h.record_write(t, SectionKind::Final, &k(if t == t1 { "a" } else { "b" }));
            h.record_commit(t, SectionKind::Final);
        }
        assert!(h.checker().check_ms_sr().is_ok());
    }

    #[test]
    fn final_before_initial_fails() {
        let h = HistoryRecorder::new();
        let t = TxnId(1);
        h.record_begin(t, SectionKind::Final);
        h.record_commit(t, SectionKind::Final);
        h.record_begin(t, SectionKind::Initial);
        h.record_commit(t, SectionKind::Initial);
        assert!(h.checker().check_ms_ia(&[]).is_err());
    }

    #[test]
    fn aborts_are_tracked_and_exempt() {
        let h = HistoryRecorder::new();
        let t = TxnId(9);
        h.record_begin(t, SectionKind::Initial);
        h.record_abort(t);
        let c = h.checker();
        assert_eq!(c.aborted, [(t, 1)]);
        // An aborted transaction never initially committed: no obligation.
        assert!(c.check_ms_ia(&[]).is_ok());
        assert!(c.committed_txns().is_empty());
    }

    #[test]
    fn abort_after_initial_commit_fails_ms_ia_even_when_pending() {
        let h = HistoryRecorder::new();
        let t = TxnId(3);
        h.record_begin(t, SectionKind::Initial);
        h.record_write(t, SectionKind::Initial, &k("x"));
        h.record_commit(t, SectionKind::Initial);
        h.record_abort(t);
        let c = h.checker();
        assert!(
            c.check_ms_ia(&[t]).is_err(),
            "pending does not excuse an abort"
        );
        assert!(c.check_ms_ia(&[]).is_err());
        assert!(c.check_ms_sr().is_err());
    }

    #[test]
    fn an_id_aborted_then_begun_again_and_committed_passes() {
        // MS-SR's wait-die may abort an id before its initial commit and
        // begin it again; the earlier abort precedes the commit in `seq`.
        let h = HistoryRecorder::new();
        let t = TxnId(4);
        h.record_begin(t, SectionKind::Initial);
        h.record_abort(t);
        record_txn(&h, 4, (&["x"], &[]), (&[], &["x"]));
        let c = h.checker();
        assert!(c.check_ms_ia(&[]).is_ok());
        assert!(c.check_ms_sr().is_ok());
        assert_eq!(c.committed_txns(), vec![t]);
    }

    #[test]
    fn events_carry_monotonic_seqs() {
        let h = HistoryRecorder::new();
        record_txn(&h, 1, (&["x"], &[]), (&[], &["x"]));
        let evs = h.events();
        for w in evs.windows(2) {
            assert!(w[0].seq() < w[1].seq());
        }
    }
}
