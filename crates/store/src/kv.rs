//! A sharded, versioned, thread-safe key-value store.
//!
//! Concurrency control lives *above* this store (in the lock manager and
//! the transaction protocols); the store itself only guarantees that each
//! individual operation is atomic and that versions increase monotonically
//! per key. Sharding by key hash keeps unrelated operations from contending
//! on one map lock.
//!
//! Hot-path properties (see the crate docs for the full contract):
//!
//! * **Zero rehashing** — shard selection and the shard `HashMap` both
//!   reuse the FNV-1a hash cached inside [`Key`]; no byte of key text is
//!   hashed after key construction.
//! * **Zero-copy reads** — values are stored as `Arc<Value>`, so `get`,
//!   `get_versioned` and `snapshot` return refcount bumps, never deep
//!   clones of string/byte payloads.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::value::{Key, KeyHashBuilder, Value};

/// A value with its per-key version. Versions start at 1 for the first
/// write and increase by 1 with every subsequent write to the same key.
#[derive(Clone, Debug, PartialEq)]
pub struct Versioned {
    /// The stored value (shared, never deep-cloned on read).
    pub value: Arc<Value>,
    /// Monotonic per-key version.
    pub version: u64,
}

type ShardMap = HashMap<Key, Versioned, KeyHashBuilder>;

/// The sharded store.
///
/// ```
/// use croesus_store::{KvStore, Value};
/// let store = KvStore::new();
/// store.put("balance/alice".into(), Value::Int(50));
/// assert_eq!(store.get(&"balance/alice".into()).as_deref(), Some(&Value::Int(50)));
/// assert_eq!(store.get_versioned(&"balance/alice".into()).unwrap().version, 1);
/// ```
pub struct KvStore {
    shards: Vec<RwLock<ShardMap>>,
}

impl KvStore {
    /// Default shard count: enough to keep 8–16 worker threads from
    /// colliding on map locks.
    pub const DEFAULT_SHARDS: usize = 32;

    /// Create a store with the default shard count.
    pub fn new() -> Self {
        KvStore::with_shards(Self::DEFAULT_SHARDS)
    }

    /// Create a store with an explicit shard count. Panics if zero.
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards > 0, "store needs at least one shard");
        KvStore {
            shards: (0..shards)
                .map(|_| RwLock::new(ShardMap::default()))
                .collect(),
        }
    }

    #[inline]
    fn shard(&self, key: &Key) -> &RwLock<ShardMap> {
        &self.shards[key.shard_index(self.shards.len())]
    }

    /// Read a value. Cheap: a shard read-lock, one hash-free map probe and
    /// an `Arc` clone.
    pub fn get(&self, key: &Key) -> Option<Arc<Value>> {
        self.shard(key)
            .read()
            .get(key)
            .map(|v| Arc::clone(&v.value))
    }

    /// Read a value with its version.
    pub fn get_versioned(&self, key: &Key) -> Option<Versioned> {
        self.shard(key).read().get(key).cloned()
    }

    /// Write a value; returns the previous versioned value if any.
    pub fn put(&self, key: Key, value: impl Into<Arc<Value>>) -> Option<Versioned> {
        let value = value.into();
        let mut shard = self.shard(&key).write();
        let next_version = shard.get(&key).map_or(1, |v| v.version + 1);
        shard.insert(
            key,
            Versioned {
                value,
                version: next_version,
            },
        )
    }

    /// Delete a key; returns the previous versioned value if any.
    pub fn delete(&self, key: &Key) -> Option<Versioned> {
        self.shard(key).write().remove(key)
    }

    /// Whether a key exists.
    pub fn contains(&self, key: &Key) -> bool {
        self.shard(key).read().contains_key(key)
    }

    /// Restore a key to a previous state: `Some(value)` reinstates the
    /// value (bumping the version — history is linear, not rewound),
    /// `None` deletes the key. The undo machinery uses this.
    pub fn restore(&self, key: Key, previous: Option<Arc<Value>>) {
        match previous {
            Some(value) => {
                self.put(key, value);
            }
            None => {
                self.delete(&key);
            }
        }
    }

    /// Number of live keys (O(shards), takes all read locks briefly).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Remove all keys.
    pub fn clear(&self) {
        for s in &self.shards {
            s.write().clear();
        }
    }

    /// Snapshot every key-value pair (sorted by key, for deterministic
    /// comparisons in tests and checkers). Fills one preallocated buffer —
    /// no per-shard intermediate `Vec`s — and clones only `Arc`s. Keys are
    /// unique, so the unstable sort (no scratch buffer) gives the one order.
    pub fn snapshot(&self) -> Vec<(Key, Versioned)> {
        let mut all: Vec<(Key, Versioned)> = Vec::with_capacity(self.len());
        for s in &self.shards {
            let shard = s.read();
            all.extend(shard.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        all.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        all
    }

    /// Every key-value pair in canonical order ([`Key::canonical_cmp`]:
    /// ascending cached FNV-1a hash, ties by key text). Like
    /// [`snapshot`](Self::snapshot)'s key order it depends only on the
    /// contents, never on insertion history, but the sort compares the
    /// hash cached inline in each [`Key`]. Clones only `Arc`s and leaves
    /// versions out: this is what a checkpoint serializes.
    pub fn canonical_pairs(&self) -> Vec<(Key, Arc<Value>)> {
        let mut all: Vec<(Key, Arc<Value>)> = Vec::with_capacity(self.len());
        for s in &self.shards {
            let shard = s.read();
            all.extend(shard.iter().map(|(k, v)| (k.clone(), Arc::clone(&v.value))));
        }
        all.sort_unstable_by(|a, b| a.0.canonical_cmp(&b.0));
        all
    }
}

impl Default for KvStore {
    fn default() -> Self {
        KvStore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn put_get_roundtrip() {
        let s = KvStore::new();
        assert_eq!(s.get(&"a".into()), None);
        s.put("a".into(), Value::Int(1));
        assert_eq!(s.get(&"a".into()).as_deref(), Some(&Value::Int(1)));
    }

    #[test]
    fn get_is_zero_copy() {
        let s = KvStore::new();
        s.put("k".into(), Value::Str("payload".into()));
        let a = s.get(&"k".into()).unwrap();
        let b = s.get(&"k".into()).unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "reads must share the stored allocation"
        );
    }

    #[test]
    fn versions_increase_monotonically() {
        let s = KvStore::new();
        s.put("k".into(), Value::Int(1));
        assert_eq!(s.get_versioned(&"k".into()).unwrap().version, 1);
        s.put("k".into(), Value::Int(2));
        assert_eq!(s.get_versioned(&"k".into()).unwrap().version, 2);
        s.delete(&"k".into());
        s.put("k".into(), Value::Int(3));
        // Deletion resets history for the key.
        assert_eq!(s.get_versioned(&"k".into()).unwrap().version, 1);
    }

    #[test]
    fn put_returns_previous() {
        let s = KvStore::new();
        assert!(s.put("k".into(), Value::Int(1)).is_none());
        let prev = s.put("k".into(), Value::Int(2)).unwrap();
        assert_eq!(prev.value, Value::Int(1));
        assert_eq!(prev.version, 1);
    }

    #[test]
    fn delete_removes() {
        let s = KvStore::new();
        s.put("k".into(), Value::Int(1));
        let prev = s.delete(&"k".into()).unwrap();
        assert_eq!(prev.value, Value::Int(1));
        assert!(!s.contains(&"k".into()));
        assert!(s.delete(&"k".into()).is_none());
    }

    #[test]
    fn restore_reinstates_or_deletes() {
        let s = KvStore::new();
        s.put("k".into(), Value::Int(2));
        s.restore("k".into(), Some(Value::Int(1).into()));
        assert_eq!(s.get(&"k".into()).as_deref(), Some(&Value::Int(1)));
        s.restore("k".into(), None);
        assert_eq!(s.get(&"k".into()), None);
    }

    #[test]
    fn len_and_clear() {
        let s = KvStore::new();
        for i in 0..100 {
            s.put(Key::indexed("k", i), Value::Int(i as i64));
        }
        assert_eq!(s.len(), 100);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let s = KvStore::new();
        for i in [3u64, 1, 2] {
            s.put(Key::indexed("k", i), Value::Int(i as i64));
        }
        let snap = s.snapshot();
        assert_eq!(snap.len(), 3);
        let keys: Vec<&str> = snap.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["k/1", "k/2", "k/3"]);
    }

    #[test]
    fn canonical_pairs_are_hash_ordered_whatever_the_insertion_order() {
        let keys: Vec<Key> = (0..2_000u64).map(|i| Key::indexed("k", i)).collect();
        let (forward, backward) = (KvStore::new(), KvStore::new());
        for (i, k) in keys.iter().enumerate() {
            forward.put(k.clone(), Value::Int(i as i64));
        }
        for (i, k) in keys.iter().enumerate().rev() {
            backward.put(k.clone(), Value::Int(i as i64));
        }
        let pairs = forward.canonical_pairs();
        assert_eq!(pairs, backward.canonical_pairs());
        assert_eq!(pairs.len(), keys.len());
        assert!(pairs
            .windows(2)
            .all(|w| w[0].0.hash_u64() < w[1].0.hash_u64()));
    }

    #[test]
    fn single_shard_still_works() {
        let s = KvStore::with_shards(1);
        s.put("a".into(), Value::Int(1));
        s.put("b".into(), Value::Int(2));
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        KvStore::with_shards(0);
    }

    #[test]
    fn concurrent_writers_do_not_lose_updates() {
        let s = Arc::new(KvStore::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        s.put(Key::indexed("t", t * 1000 + i), Value::Int(i as i64));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(s.len(), 8 * 500);
    }

    #[test]
    fn concurrent_versioning_on_one_key_is_gapless() {
        let s = Arc::new(KvStore::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..250 {
                        s.put("hot".into(), Value::Int(0));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(s.get_versioned(&"hot".into()).unwrap().version, 1000);
    }
}
