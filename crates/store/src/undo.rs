//! Per-transaction undo logs.
//!
//! MS-IA (§4.4) commits initial sections optimistically and may later need
//! to "retract the effects" of a transaction when the final section
//! discovers the trigger or input was wrong ("apply-then-check"). An
//! [`UndoLog`] records, per write, the state a key had before the
//! transaction touched it, so the apology machinery can restore it.

use std::sync::Arc;

use crate::kv::KvStore;
use crate::value::{Key, Value};

/// One undo record: the key and its pre-image (None = key did not exist).
#[derive(Clone, Debug, PartialEq)]
pub struct UndoRecord {
    /// The written key.
    pub key: Key,
    /// The value before the first write by this transaction, if any.
    /// Shared with the store's history — never a deep clone.
    pub previous: Option<Arc<Value>>,
}

/// The undo log of one transaction section.
///
/// A duplicate write is found by scanning the records, comparing the hash
/// cached inside each [`Key`] first. Sections write a handful of keys, so
/// the scan costs no allocation and a few integer compares; a section that
/// writes `n` distinct keys pays O(n²) compares in total.
#[derive(Clone, Debug, Default)]
pub struct UndoLog {
    records: Vec<UndoRecord>,
}

impl UndoLog {
    /// An empty log.
    pub fn new() -> Self {
        UndoLog::default()
    }

    /// Record a write's pre-image. Only the *first* write to a key within
    /// this log keeps its pre-image — later writes by the same transaction
    /// would otherwise undo to an intermediate state.
    pub fn record(&mut self, key: Key, previous: Option<Arc<Value>>) {
        if self.records.iter().all(|r| r.key != key) {
            self.records.push(UndoRecord { key, previous });
        }
    }

    /// Perform a write through the store, recording the pre-image.
    pub fn put(&mut self, store: &KvStore, key: Key, value: impl Into<Arc<Value>>) {
        let prev = store.get(&key);
        self.record(key.clone(), prev);
        store.put(key, value);
    }

    /// Perform a delete through the store, recording the pre-image.
    pub fn delete(&mut self, store: &KvStore, key: &Key) {
        let prev = store.get(key);
        self.record(key.clone(), prev);
        store.delete(key);
    }

    /// Undo all recorded writes, in reverse order.
    pub fn rollback(self, store: &KvStore) {
        for rec in self.records.into_iter().rev() {
            store.restore(rec.key, rec.previous);
        }
    }

    /// Keys this log would restore.
    pub fn keys(&self) -> impl Iterator<Item = &Key> {
        self.records.iter().map(|r| &r.key)
    }

    /// The recorded `(key, pre-image)` pairs in record order — what a
    /// write-ahead log serializes alongside the post-images.
    pub fn records(&self) -> &[UndoRecord] {
        &self.records
    }

    /// [`records`](Self::records) by value, for a caller that keeps them.
    pub fn into_records(self) -> Vec<UndoRecord> {
        self.records
    }

    /// The recorded pre-image for `key`, if this log touched it.
    /// `Some(None)` means the key did not exist before.
    pub fn pre_image(&self, key: &Key) -> Option<&Option<Arc<Value>>> {
        self.records
            .iter()
            .find(|r| r.key == *key)
            .map(|r| &r.previous)
    }

    /// Number of distinct keys recorded.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollback_restores_overwritten_value() {
        let s = KvStore::new();
        s.put("k".into(), Value::Int(1));
        let mut log = UndoLog::new();
        log.put(&s, "k".into(), Value::Int(2));
        assert_eq!(s.get(&"k".into()).as_deref(), Some(&Value::Int(2)));
        log.rollback(&s);
        assert_eq!(s.get(&"k".into()).as_deref(), Some(&Value::Int(1)));
    }

    #[test]
    fn rollback_removes_inserted_key() {
        let s = KvStore::new();
        let mut log = UndoLog::new();
        log.put(&s, "new".into(), Value::Int(5));
        assert!(s.contains(&"new".into()));
        log.rollback(&s);
        assert!(!s.contains(&"new".into()));
    }

    #[test]
    fn rollback_restores_deleted_key() {
        let s = KvStore::new();
        s.put("k".into(), Value::Int(9));
        let mut log = UndoLog::new();
        log.delete(&s, &"k".into());
        assert!(!s.contains(&"k".into()));
        log.rollback(&s);
        assert_eq!(s.get(&"k".into()).as_deref(), Some(&Value::Int(9)));
    }

    #[test]
    fn first_pre_image_wins() {
        let s = KvStore::new();
        s.put("k".into(), Value::Int(1));
        let mut log = UndoLog::new();
        log.put(&s, "k".into(), Value::Int(2));
        log.put(&s, "k".into(), Value::Int(3));
        assert_eq!(log.len(), 1);
        log.rollback(&s);
        assert_eq!(s.get(&"k".into()).as_deref(), Some(&Value::Int(1)));
    }

    #[test]
    fn multiple_keys_rollback_in_reverse() {
        let s = KvStore::new();
        let mut log = UndoLog::new();
        log.put(&s, "a".into(), Value::Int(1));
        log.put(&s, "b".into(), Value::Int(2));
        log.delete(&s, &"a".into());
        log.rollback(&s);
        assert!(!s.contains(&"a".into()));
        assert!(!s.contains(&"b".into()));
    }

    #[test]
    fn pre_image_lookup() {
        let s = KvStore::new();
        s.put("k".into(), Value::Int(1));
        let mut log = UndoLog::new();
        log.put(&s, "k".into(), Value::Int(2));
        log.put(&s, "fresh".into(), Value::Int(3));
        assert_eq!(
            log.pre_image(&"k".into()),
            Some(&Some(Value::Int(1).into()))
        );
        assert_eq!(log.pre_image(&"fresh".into()), Some(&None));
        assert_eq!(log.pre_image(&"untouched".into()), None);
    }

    #[test]
    fn empty_log_rollback_is_noop() {
        let s = KvStore::new();
        s.put("k".into(), Value::Int(1));
        UndoLog::new().rollback(&s);
        assert_eq!(s.get(&"k".into()).as_deref(), Some(&Value::Int(1)));
        assert!(UndoLog::new().is_empty());
    }

    #[test]
    fn large_write_sets_keep_one_record_per_key() {
        // 20k writes over 2k distinct keys: ~20M inline-hash compares.
        let s = KvStore::new();
        let mut log = UndoLog::new();
        for i in 0..20_000u64 {
            log.put(&s, Key::indexed("k", i % 2_000), Value::Int(i as i64));
        }
        assert_eq!(log.len(), 2_000);
        // First pre-image won for every key.
        assert_eq!(log.pre_image(&Key::indexed("k", 0)), Some(&None));
        log.rollback(&s);
        assert!(s.is_empty());
    }

    #[test]
    fn repeats_early_and_late_in_a_long_log_keep_the_first_pre_image() {
        const N: usize = 16;
        let s = KvStore::new();
        for i in 0..N as u64 * 2 {
            s.put(Key::indexed("k", i), Value::Int(i as i64));
        }
        let before = s.snapshot();
        let mut log = UndoLog::new();
        // Every key is written twice while the log is short.
        for i in 0..N as u64 {
            log.put(&s, Key::indexed("k", i), Value::Int(-1));
            log.put(&s, Key::indexed("k", i), Value::Int(-2));
        }
        assert_eq!(log.len(), N);
        // Then the same keys again, new keys twice each, a delete and
        // fresh inserts, while the log grows past them.
        for i in 0..N as u64 * 2 {
            log.put(&s, Key::indexed("k", i), Value::Int(-3));
            log.delete(&s, &Key::indexed("k", i));
            log.put(&s, Key::indexed("fresh", i), Value::Int(-4));
            log.put(&s, Key::indexed("fresh", i), Value::Int(-5));
        }
        assert_eq!(log.len(), N * 4);
        for rec in log.records() {
            let expected = rec
                .key
                .as_str()
                .strip_prefix("k/")
                .map(|i| Value::Int(i.parse().unwrap()));
            assert_eq!(rec.previous.as_deref(), expected.as_ref(), "{}", rec.key);
        }
        log.rollback(&s);
        let after = s.snapshot();
        assert_eq!(after.len(), before.len());
        for ((k0, v0), (k1, v1)) in before.iter().zip(&after) {
            assert_eq!(k0, k1);
            assert_eq!(v0.value, v1.value, "{k0}");
        }
    }

    #[test]
    fn records_expose_key_and_pre_image_in_order() {
        let s = KvStore::new();
        s.put("a".into(), Value::Int(1));
        let mut log = UndoLog::new();
        log.put(&s, "a".into(), Value::Int(2));
        log.put(&s, "b".into(), Value::Int(3));
        let recs = log.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].key.as_str(), "a");
        assert_eq!(recs[0].previous.as_deref(), Some(&Value::Int(1)));
        assert_eq!(recs[1].key.as_str(), "b");
        assert_eq!(recs[1].previous, None);
    }

    #[test]
    fn keys_iterates_recorded_keys() {
        let s = KvStore::new();
        let mut log = UndoLog::new();
        log.put(&s, "a".into(), Value::Int(1));
        log.put(&s, "b".into(), Value::Int(2));
        let keys: Vec<&str> = log.keys().map(|k| k.as_str()).collect();
        assert_eq!(keys, vec!["a", "b"]);
    }
}
