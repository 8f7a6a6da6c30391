//! The multi-stage transaction model: sections, read/write sets, section
//! execution contexts and errors.
//!
//! §4.1: "every transaction comprises of two distinct sections: the initial
//! section and the final section. Each section consists of read and write
//! operations in addition to control operations to begin and commit each
//! section."

use std::fmt;
use std::sync::Arc;

use croesus_store::{IntoSharedValue, Key, KvStore, LockError, LockMode, UndoLog, Value};

use crate::history::{HistoryRecorder, SectionKind};
use croesus_store::TxnId;

/// The declared read/write set of one section.
///
/// TSPL needs the final section's (potential) read/write set *before*
/// initial commit — "the system can infer what data will be accessed (or
/// potentially accessed) in the final section" (§4.3 discussion) — so
/// sections declare their sets up front.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RwSet {
    /// Keys the section may read.
    pub reads: Vec<Key>,
    /// Keys the section may write.
    pub writes: Vec<Key>,
}

impl RwSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        RwSet::default()
    }

    /// Builder: add a read key.
    #[must_use]
    pub fn read(mut self, key: impl Into<Key>) -> Self {
        self.reads.push(key.into());
        self
    }

    /// Builder: add a write key.
    #[must_use]
    pub fn write(mut self, key: impl Into<Key>) -> Self {
        self.writes.push(key.into());
        self
    }

    /// All keys with the lock mode each needs: writes exclusively, reads
    /// shared (a key both read and written needs exclusive only).
    pub fn lock_pairs(&self) -> Vec<(Key, LockMode)> {
        let mut pairs: Vec<(Key, LockMode)> = self
            .writes
            .iter()
            .map(|k| (k.clone(), LockMode::Exclusive))
            .collect();
        for k in &self.reads {
            if !self.writes.contains(k) {
                pairs.push((k.clone(), LockMode::Shared));
            }
        }
        // Dedup (a key may be listed twice).
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        pairs.dedup_by(|a, b| {
            if a.0 == b.0 {
                // Keep the stronger mode in `b` (the retained element).
                if a.1 == LockMode::Exclusive {
                    b.1 = LockMode::Exclusive;
                }
                true
            } else {
                false
            }
        });
        pairs
    }

    /// All keys (reads ∪ writes), deduplicated.
    pub fn keys(&self) -> Vec<Key> {
        self.lock_pairs().into_iter().map(|(k, _)| k).collect()
    }

    /// Whether two sets conflict: at least one shared key where one side
    /// writes. (§4.1: "two transactions are conflicting if there is at
    /// least one conflicting operation in either of the sections".)
    pub fn conflicts_with(&self, other: &RwSet) -> bool {
        let hits = |mine: &[Key], theirs: &[Key]| mine.iter().any(|k| theirs.contains(k));
        hits(&self.writes, &other.writes)
            || hits(&self.writes, &other.reads)
            || hits(&self.reads, &other.writes)
    }

    /// Union of two sets.
    #[must_use]
    pub fn union(&self, other: &RwSet) -> RwSet {
        let mut out = self.clone();
        out.reads.extend(other.reads.iter().cloned());
        out.writes.extend(other.writes.iter().cloned());
        out
    }
}

/// Errors from executing a transaction section.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxnError {
    /// A lock could not be acquired; the transaction aborted before its
    /// initial commit. (After initial commit, aborts are impossible by
    /// construction — see the protocol modules.)
    Aborted(LockError),
    /// A section accessed a key outside its declared read/write set.
    UndeclaredAccess(String),
    /// An application invariant failed and no merge was possible.
    Invariant(String),
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::Aborted(e) => write!(f, "transaction aborted: {e}"),
            TxnError::UndeclaredAccess(k) => write!(f, "access outside declared rw-set: {k}"),
            TxnError::Invariant(m) => write!(f, "invariant violation: {m}"),
        }
    }
}

impl std::error::Error for TxnError {}

/// What a section produced: the response sent to the client (§3.3.2 sends
/// initial-section responses and final-section responses/apologies back).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SectionOutput {
    /// Application-level response values. A value read from the store is
    /// the stored allocation itself, shared — not a copy.
    pub response: Vec<Arc<Value>>,
}

impl SectionOutput {
    /// An empty output.
    #[must_use]
    pub fn new() -> Self {
        SectionOutput::default()
    }

    /// Output with a single response value.
    #[must_use]
    pub fn respond(value: impl Into<Value>) -> Self {
        SectionOutput {
            response: vec![Arc::new(value.into())],
        }
    }
}

/// The execution context handed to section bodies.
///
/// Reads and writes go through the context so that (1) every access is
/// checked against the declared read/write set — the locks only cover
/// declared keys, (2) writes are undo-logged — MS-IA retraction needs
/// pre-images, and (3) the operation stream is recorded in the history for
/// the safety checkers.
pub struct SectionCtx<'a> {
    txn: TxnId,
    kind: SectionKind,
    store: &'a KvStore,
    declared: &'a RwSet,
    undo: &'a mut UndoLog,
    history: Option<&'a HistoryRecorder>,
}

impl<'a> SectionCtx<'a> {
    /// Build a context (used by the protocol executors).
    pub(crate) fn new(
        txn: TxnId,
        kind: SectionKind,
        store: &'a KvStore,
        declared: &'a RwSet,
        undo: &'a mut UndoLog,
        history: Option<&'a HistoryRecorder>,
    ) -> Self {
        SectionCtx {
            txn,
            kind,
            store,
            declared,
            undo,
            history,
        }
    }

    /// This transaction's id.
    pub fn txn(&self) -> TxnId {
        self.txn
    }

    /// Which section is executing.
    pub fn section(&self) -> SectionKind {
        self.kind
    }

    /// Read a key. Errors if the key was not declared as a read or write.
    /// Returns a shared handle to the stored value — a refcount bump, not
    /// a deep clone.
    pub fn read(&mut self, key: impl Into<Key>) -> Result<Option<Arc<Value>>, TxnError> {
        let key = key.into();
        if !self.declared.reads.contains(&key) && !self.declared.writes.contains(&key) {
            return Err(TxnError::UndeclaredAccess(key.to_string()));
        }
        if let Some(h) = self.history {
            h.record_read(self.txn, self.kind, &key);
        }
        Ok(self.store.get(&key))
    }

    /// The read/write set this section declared. The reference outlives
    /// the context's borrow, so a body can iterate its declared keys while
    /// it reads and writes them.
    pub fn declared(&self) -> &'a RwSet {
        self.declared
    }

    /// Write a key. Errors if the key was not declared as a write. The
    /// value is anything [`IntoSharedValue`]: an `Arc<Value>` is stored as
    /// is, so one value written under several keys is one allocation.
    pub fn write(
        &mut self,
        key: impl Into<Key>,
        value: impl IntoSharedValue,
    ) -> Result<(), TxnError> {
        let key = key.into();
        if !self.declared.writes.contains(&key) {
            return Err(TxnError::UndeclaredAccess(key.to_string()));
        }
        if let Some(h) = self.history {
            h.record_write(self.txn, self.kind, &key);
        }
        self.undo.put(self.store, key, value.into_shared());
        Ok(())
    }

    /// Delete a key. Errors if the key was not declared as a write.
    pub fn delete(&mut self, key: impl Into<Key>) -> Result<(), TxnError> {
        let key = key.into();
        if !self.declared.writes.contains(&key) {
            return Err(TxnError::UndeclaredAccess(key.to_string()));
        }
        if let Some(h) = self.history {
            h.record_write(self.txn, self.kind, &key);
        }
        self.undo.delete(self.store, &key);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str) -> Key {
        Key::new(s)
    }

    #[test]
    fn rwset_builder_and_lock_pairs() {
        let rw = RwSet::new().read("a").write("b").read("b");
        let pairs = rw.lock_pairs();
        assert_eq!(pairs.len(), 2);
        assert!(pairs.contains(&(key("a"), LockMode::Shared)));
        assert!(pairs.contains(&(key("b"), LockMode::Exclusive)));
    }

    #[test]
    fn duplicate_keys_keep_strongest_mode() {
        let rw = RwSet::new().read("a").write("a").read("a");
        let pairs = rw.lock_pairs();
        assert_eq!(pairs, vec![(key("a"), LockMode::Exclusive)]);
        assert_eq!(rw.keys(), vec![key("a")]);
    }

    #[test]
    fn conflict_detection() {
        let a = RwSet::new().read("x").write("y");
        let b = RwSet::new().read("y");
        let c = RwSet::new().read("x");
        let d = RwSet::new().write("x");
        assert!(a.conflicts_with(&b), "write-read conflict");
        assert!(!a.conflicts_with(&c), "read-read is no conflict");
        assert!(a.conflicts_with(&d), "read-write conflict");
        assert!(d.conflicts_with(&d.clone()), "write-write conflict");
    }

    #[test]
    fn union_merges() {
        let a = RwSet::new().read("x");
        let b = RwSet::new().write("y");
        let u = a.union(&b);
        assert_eq!(u.reads, vec![key("x")]);
        assert_eq!(u.writes, vec![key("y")]);
    }

    #[test]
    fn ctx_enforces_declared_reads() {
        let store = KvStore::new();
        let declared = RwSet::new().read("a");
        let mut undo = UndoLog::new();
        let mut ctx = SectionCtx::new(
            TxnId(1),
            SectionKind::Initial,
            &store,
            &declared,
            &mut undo,
            None,
        );
        assert!(ctx.read("a").is_ok());
        assert!(matches!(
            ctx.read("other"),
            Err(TxnError::UndeclaredAccess(_))
        ));
    }

    #[test]
    fn ctx_enforces_declared_writes() {
        let store = KvStore::new();
        let declared = RwSet::new().read("a").write("w");
        let mut undo = UndoLog::new();
        let mut ctx = SectionCtx::new(
            TxnId(1),
            SectionKind::Initial,
            &store,
            &declared,
            &mut undo,
            None,
        );
        assert!(ctx.write("w", 1).is_ok());
        // Reads do not authorize writes.
        assert!(matches!(
            ctx.write("a", 1),
            Err(TxnError::UndeclaredAccess(_))
        ));
        assert!(matches!(
            ctx.delete("a"),
            Err(TxnError::UndeclaredAccess(_))
        ));
    }

    #[test]
    fn writes_are_undo_logged() {
        let store = KvStore::new();
        store.put("w".into(), Value::Int(1));
        let declared = RwSet::new().write("w");
        let mut undo = UndoLog::new();
        {
            let mut ctx = SectionCtx::new(
                TxnId(1),
                SectionKind::Initial,
                &store,
                &declared,
                &mut undo,
                None,
            );
            ctx.write("w", 2).unwrap();
        }
        assert_eq!(store.get(&"w".into()).as_deref(), Some(&Value::Int(2)));
        undo.rollback(&store);
        assert_eq!(store.get(&"w".into()).as_deref(), Some(&Value::Int(1)));
    }

    #[test]
    fn a_write_declared_key_can_be_read() {
        let store = KvStore::new();
        store.put("w".into(), Value::Int(7));
        let declared = RwSet::new().write("w");
        let mut undo = UndoLog::new();
        let mut ctx = SectionCtx::new(
            TxnId(1),
            SectionKind::Final,
            &store,
            &declared,
            &mut undo,
            None,
        );
        assert_eq!(ctx.read("w").unwrap().as_deref(), Some(&Value::Int(7)));
        assert_eq!(ctx.section(), SectionKind::Final);
        assert_eq!(ctx.txn(), TxnId(1));
    }

    #[test]
    fn a_body_writes_one_shared_value_under_its_declared_keys() {
        let store = KvStore::new();
        store.put("r".into(), Value::Int(7));
        let declared = RwSet::new().write("a").write("b").read("r");
        let mut undo = UndoLog::new();
        let mut ctx = SectionCtx::new(
            TxnId(1),
            SectionKind::Initial,
            &store,
            &declared,
            &mut undo,
            None,
        );
        let value = Arc::new(Value::from("v"));
        for k in &ctx.declared().writes {
            ctx.write(k.clone(), Arc::clone(&value)).unwrap();
        }
        let read = ctx.read("r").unwrap().unwrap();
        assert!(Arc::ptr_eq(&store.get(&"a".into()).unwrap(), &value));
        assert!(Arc::ptr_eq(&store.get(&"b".into()).unwrap(), &value));
        assert!(Arc::ptr_eq(&store.get(&"r".into()).unwrap(), &read));
    }

    #[test]
    fn section_output_helpers() {
        assert!(SectionOutput::new().response.is_empty());
        assert_eq!(SectionOutput::respond(5).response, vec![Value::Int(5)]);
    }

    #[test]
    fn txn_error_display() {
        let e = TxnError::Aborted(LockError::Die);
        assert!(e.to_string().contains("abort"));
        assert!(TxnError::UndeclaredAccess("k".to_string())
            .to_string()
            .contains("rw-set"));
    }
}
