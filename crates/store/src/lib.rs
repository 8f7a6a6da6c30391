//! Storage substrate.
//!
//! The Croesus edge node "hosts the main copy of its partition's data" and
//! "maintains a data store and processes transactions" (§3.1, §5.1). This
//! crate provides that data store and the locking machinery the multi-stage
//! concurrency-control protocols (in `croesus-txn`) are built on:
//!
//! * [`value`] — keys and typed values.
//! * [`kv`] — a sharded, thread-safe key-value store.
//! * [`lock`] — a shared/exclusive lock manager with pluggable conflict
//!   policies (block, no-wait, wait-die) and deadlock-free waiting.
//! * [`undo`] — per-transaction undo logs, the mechanism behind MS-IA's
//!   apologies and retractions.
//! * [`partition`] — named partitions (store + lock manager) for the
//!   multi-partition / two-phase-commit extension (§4.5).
//!
//! # The hashing contract
//!
//! [`Key`] computes the **FNV-1a hash of its text exactly once, at
//! construction**, and keeps it inline beside its text slot: a text of up
//! to 22 bytes sits in the slot itself (no allocation, and a clone or drop
//! is a plain copy), a longer one in one
//! shared allocation. Every consumer reuses the hash:
//!
//! * `HashMap` probes go through [`value::KeyHashBuilder`], a pass-through
//!   hasher that forwards the cached hash (finalized with a splitmix64
//!   avalanche) instead of SipHashing the key text;
//! * [`KvStore`] and [`LockManager`] pick shards from the *upper* 32 bits
//!   of the mixed hash, keeping shard residues decorrelated from map
//!   bucket indices;
//! * [`PartitionMap::partition_of`] routes on the **raw** FNV-1a value —
//!   byte-identical to the historical per-call FNV scan, and therefore
//!   **stable across runs, processes and versions**. Routing stability is
//!   pinned by golden-value tests; do not change [`value::fnv1a`] without
//!   a data-migration story.
//!
//! The net effect: after a key is constructed, no store, lock-manager or
//! routing operation hashes a single byte of key text, and comparing two
//! short keys follows no pointer.
//!
//! # The ownership contract
//!
//! Stored values live behind `Arc<Value>`. Reads ([`KvStore::get`],
//! [`KvStore::snapshot`], the pre-images `put` and `delete` return)
//! return refcount bumps that *alias the stored allocation*:
//!
//! * `Value`s are immutable once stored — there is no `&mut` path to a
//!   stored value, so aliasing is safe by construction;
//! * a reader's `Arc<Value>` stays valid (and unchanged) even if the key
//!   is overwritten or deleted afterwards — it simply keeps the old
//!   value alive, snapshot-style;
//! * responses alias stored values: a client response (`SectionOutput` in
//!   `croesus-txn`) holds the `Arc<Value>` its read returned;
//! * one value may be stored under several keys: writes take any
//!   [`IntoSharedValue`], so a writer that puts one `Arc<Value>` under a
//!   whole write set stores one allocation;
//! * clone a `Value` only when a caller needs one of its own to mutate.
//!
//! # Lock batching
//!
//! A stage touches each key once on the lock path.
//! [`LockManager::plan`] turns its declared writes and reads into one
//! [`LockPlan`] — deduplicated, each key in its stronger mode, in the
//! global `(shard index, key)` order, shard index cached — with one
//! allocation and one sort, borrowing the keys.
//! [`LockManager::acquire_plan`] and [`LockManager::release_plan`] walk
//! that list, taking each shard mutex once per *transaction* rather than
//! once per key, and the release neither collects nor sorts.
//! [`LockManager::acquire_all`] / [`LockManager::release_all`] plan a
//! caller's list and walk it the same way. Keys are granted incrementally
//! along the global order — the total order is what makes concurrent
//! batched acquisition deadlock-free under [`LockPolicy::Block`] — and the
//! plan's prior-mode journal rolls failed acquisitions back to the exact
//! pre-call state (pre-held locks and upgrade modes included); see the
//! [`lock`] module docs for the full argument.
//!
//! # One probe per write
//!
//! A grant or an ungrant probes its shard's lock table once, and
//! [`KvStore::put`] is one map insert that returns the pre-image it
//! replaced, which [`UndoLog::put`] records instead of reading it first.

pub mod kv;
pub mod lock;
pub mod partition;
#[cfg(feature = "mcheck")]
pub mod sched;
#[cfg(not(feature = "mcheck"))]
pub mod sched {
    //! No-op stand-ins for the model-checker hooks (`mcheck` feature off), so
    //! call sites here, in txn and in wal stay unconditional and compile away.
    #[inline(always)]
    pub fn active() -> bool {
        false
    }
    #[inline(always)]
    pub fn yield_point(_label: &'static str) {}
    #[inline(always)]
    pub fn block_point(_label: &'static str) {}
    #[inline(always)]
    pub fn progress(_label: &'static str) {}
}
pub mod undo;
pub mod value;

pub use kv::{KvStore, Stored};
pub use lock::{LockError, LockManager, LockMode, LockPlan, LockPolicy, TxnId};
pub use partition::{Partition, PartitionId, PartitionMap};
pub use undo::{UndoLog, UndoRecord};
pub use value::{IntoSharedValue, Key, Value};
