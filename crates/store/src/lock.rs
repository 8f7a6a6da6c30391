//! Shared/exclusive lock manager with pluggable conflict policies.
//!
//! The multi-stage protocols of §4 are lock-based: Two-Stage 2PL (MS-SR)
//! holds initial-section locks across the edge→cloud round trip, MS-IA
//! releases them at initial commit. This manager provides the primitive
//! they share: per-key S/X locks with
//!
//! * **Block** — wait indefinitely (safe only with externally-ordered
//!   acquisition),
//! * **NoWait** — fail immediately on conflict, and
//! * **WaitDie** — the classic deadlock-avoidance scheme: an *older*
//!   transaction (smaller [`TxnId`]) waits for a younger holder, a
//!   *younger* requester dies ([`LockError::Die`]) and must retry with the
//!   same id (keeping its priority, which guarantees progress).
//!
//! Waiting uses per-shard condvars; all policies additionally accept an
//! optional timeout. A release notifies its shard's condvar, and that
//! notify is free unless a waiter is parked there (the vendored
//! `parking_lot::Condvar` counts its waiters), so an uncontended
//! grant/release costs one shard-mutex hold per shard and no syscall.
//!
//! # Owner sets
//!
//! Each shard's table maps a locked key to its `Owners`: the first
//! holder sits inline and only shared co-holders spill into a `Vec`, so a
//! sole holder — the uncontended case — allocates nothing. A key with no
//! holder has no table entry.
//!
//! # Lock plans
//!
//! A stage declares the keys it writes and reads; [`plan`](LockManager::plan)
//! turns them into its [`LockPlan`] once: one list, deduplicated (a key
//! both read and written is planned exclusive), in the global
//! `(shard index, key)` order, each entry carrying its shard index. That
//! is one allocation and one sort, and the plan borrows the declared keys.
//! [`acquire_plan`](LockManager::acquire_plan) and
//! [`release_plan`](LockManager::release_plan) walk the same list, taking
//! each shard's mutex once per shard run, and the release neither collects
//! nor sorts. [`acquire_all`](LockManager::acquire_all) and
//! [`release_all`](LockManager::release_all) plan a caller's list and walk
//! it the same way; single-key [`acquire`](LockManager::acquire) walks a
//! one-entry list on the stack.
//!
//! # Batched acquisition
//!
//! The acquisition walk takes each shard's run of the plan under a *single
//! mutex hold per attempt*. Grants are incremental: each grantable key is
//! taken and *held* immediately, and the transaction waits only at the
//! first conflicting key. The global total order makes concurrent batched
//! acquisition deadlock-free under `Block` (the same ordered-resources
//! argument as sorted per-key acquisition), and holding the granted prefix
//! preserves wait-die's priority-based progress for the oldest
//! transaction. The plan is also the undo record: each entry stores the
//! mode the transaction held before its grant, so a failed acquisition
//! restores the granted prefix of the list and pre-held locks and modes
//! survive untouched. Compared to per-key acquisition this takes each
//! shard mutex once per *transaction* instead of once per *key*, and wakes
//! waiters once per shard batch on release. A grant and an ungrant each
//! probe the shard's table once.

use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::value::{Key, KeyHashBuilder};

/// Transaction identifier. Doubles as the transaction's *age* for wait-die:
/// smaller ids are older and win conflicts.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

impl fmt::Debug for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Lock mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Shared (read) — compatible with other shared holders.
    Shared,
    /// Exclusive (write) — compatible with nothing.
    Exclusive,
}

/// What to do when a requested lock conflicts with current holders.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockPolicy {
    /// Wait until granted (caller must prevent deadlock, e.g. by ordered
    /// acquisition or by always using [`LockManager::acquire_all`]).
    Block,
    /// Fail immediately with [`LockError::WouldBlock`].
    NoWait,
    /// Wait-die deadlock avoidance: older requesters wait, younger die.
    WaitDie,
}

/// Why an acquisition failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockError {
    /// NoWait policy and the lock was held incompatibly.
    WouldBlock,
    /// Wait-die policy and the requester is younger than a holder.
    Die,
    /// The optional timeout elapsed while waiting.
    Timeout,
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::WouldBlock => write!(f, "lock is held (no-wait)"),
            LockError::Die => write!(f, "wait-die: younger requester must abort"),
            LockError::Timeout => write!(f, "lock wait timed out"),
        }
    }
}

impl std::error::Error for LockError {}

/// The holders of one locked key. A sole holder sits inline in `first`;
/// only shared co-holders spill into `rest`. `first` is `None` only for an
/// empty set, which `LockManager::ungrant` removes from the table.
struct Owners {
    first: Option<(TxnId, LockMode)>,
    rest: Vec<(TxnId, LockMode)>,
}

impl Owners {
    fn sole(txn: TxnId, mode: LockMode) -> Self {
        Owners {
            first: Some((txn, mode)),
            rest: Vec::new(),
        }
    }

    fn iter(&self) -> impl Iterator<Item = (TxnId, LockMode)> + '_ {
        self.first.iter().chain(&self.rest).copied()
    }

    fn get(&self, txn: TxnId) -> Option<LockMode> {
        self.iter().find(|&(o, _)| o == txn).map(|(_, m)| m)
    }

    fn get_mut(&mut self, txn: TxnId) -> Option<&mut LockMode> {
        self.first
            .iter_mut()
            .chain(&mut self.rest)
            .find(|(o, _)| *o == txn)
            .map(|(_, m)| m)
    }

    /// Whether `txn` can be granted `mode` alongside the current holders.
    fn grantable(&self, txn: TxnId, mode: LockMode) -> bool {
        match mode {
            LockMode::Shared => self.iter().all(|(o, m)| o == txn || m == LockMode::Shared),
            LockMode::Exclusive => self.iter().all(|(o, _)| o == txn),
        }
    }

    /// Grant `mode` to `txn` (it must be grantable). Returns the mode `txn`
    /// held *before* this grant (`None` = not held).
    fn grant(&mut self, txn: TxnId, mode: LockMode) -> Option<LockMode> {
        if let Some(held) = self.get_mut(txn) {
            let prior = *held;
            // Upgrade persists; downgrade does not overwrite.
            if mode == LockMode::Exclusive {
                *held = LockMode::Exclusive;
            }
            return Some(prior);
        }
        // A set in the table is never empty, so `first` is taken.
        self.rest.push((txn, mode));
        None
    }

    /// Drop `txn` from the set (no-op if absent); returns whether the set
    /// is now empty.
    fn remove(&mut self, txn: TxnId) -> bool {
        if self.first.is_some_and(|(o, _)| o == txn) {
            self.first = self.rest.pop();
        } else if let Some(i) = self.rest.iter().position(|&(o, _)| o == txn) {
            self.rest.swap_remove(i);
        }
        self.first.is_none()
    }
}

type LockTable = HashMap<Key, Owners, KeyHashBuilder>;

/// A requested lock is held incompatibly by another transaction.
struct Conflict;

/// One entry of a [`LockPlan`]: a key with its cached shard index and the
/// mode planned for it. `prior` is the grant journal: an acquisition fills
/// it with the mode the transaction held before its grant (`None` = not
/// held) — what a rollback restores.
#[derive(Clone, Debug)]
struct Planned<K> {
    shard: usize,
    key: K,
    mode: LockMode,
    prior: Option<LockMode>,
}

/// A stage's lock footprint, planned once by [`LockManager::plan`]: every
/// key once, in the stronger of its requested modes, in the global
/// `(shard index, key)` order, each with its shard index cached. The
/// acquisition and the release walk this one list.
///
/// `K` is how the plan holds its keys: `&Key` borrows the declared sets
/// for the span of a stage, `Key` owns them for a plan that outlives the
/// call that built it (MS-SR's locks, held from initial to final commit).
#[derive(Clone, Debug)]
pub struct LockPlan<K> {
    locks: Vec<Planned<K>>,
}

impl<K> Default for LockPlan<K> {
    fn default() -> Self {
        LockPlan { locks: Vec::new() }
    }
}

impl<K: Borrow<Key>> LockPlan<K> {
    /// Sort `locks` into the global order and merge duplicates into the
    /// stronger mode.
    fn sorted(mut locks: Vec<Planned<K>>) -> Self {
        locks.sort_unstable_by(|a, b| {
            a.shard
                .cmp(&b.shard)
                .then_with(|| a.key.borrow().cmp(b.key.borrow()))
        });
        locks.dedup_by(|later, kept| {
            let same = later.key.borrow() == kept.key.borrow();
            if same && later.mode == LockMode::Exclusive {
                kept.mode = LockMode::Exclusive;
            }
            same
        });
        LockPlan { locks }
    }

    /// Number of planned keys.
    pub fn len(&self) -> usize {
        self.locks.len()
    }

    /// Whether the plan locks nothing.
    pub fn is_empty(&self) -> bool {
        self.locks.is_empty()
    }

    /// How many entries the plan has room for; `0` for a plan that never
    /// allocated.
    pub fn capacity(&self) -> usize {
        self.locks.capacity()
    }

    /// The planned `(key, mode)` pairs, in acquisition order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&Key, LockMode)> + Clone + '_ {
        self.locks.iter().map(|p| (p.key.borrow(), p.mode))
    }

    /// The mode planned for `key`, if the plan holds it.
    pub fn mode_of(&self, key: &Key) -> Option<LockMode> {
        self.iter().find(|&(k, _)| k == key).map(|(_, m)| m)
    }
}

#[derive(Default)]
struct Shard {
    table: Mutex<LockTable>,
    released: Condvar,
}

/// The lock manager.
pub struct LockManager {
    shards: Vec<Shard>,
    policy: LockPolicy,
}

impl LockManager {
    /// Default shard count.
    pub(crate) const DEFAULT_SHARDS: usize = 64;

    /// Create a manager with the given policy and default sharding.
    pub fn new(policy: LockPolicy) -> Self {
        LockManager::with_shards(policy, Self::DEFAULT_SHARDS)
    }

    /// Create a manager with an explicit shard count. Panics if zero.
    pub fn with_shards(policy: LockPolicy, shards: usize) -> Self {
        assert!(shards > 0, "lock manager needs at least one shard");
        LockManager {
            shards: (0..shards).map(|_| Shard::default()).collect(),
            policy,
        }
    }

    #[inline]
    fn shard_index(&self, key: &Key) -> usize {
        key.shard_index(self.shards.len())
    }

    /// `key` as a plan entry, its shard index cached.
    fn planned<K: Borrow<Key>>(&self, key: K, mode: LockMode) -> Planned<K> {
        Planned {
            shard: self.shard_index(key.borrow()),
            key,
            mode,
            prior: None,
        }
    }

    /// Grant `(key, mode)` to `txn` in `table` if it is compatible with the
    /// current holders. `Ok` carries the mode `txn` held *before* this
    /// grant (`None` = not held), so a failed multi-key acquisition can
    /// restore the exact prior state; `Err` means the key conflicts.
    ///
    /// One table probe: the entry found (or made) for the key.
    fn grant(
        table: &mut LockTable,
        txn: TxnId,
        key: &Key,
        mode: LockMode,
    ) -> Result<Option<LockMode>, Conflict> {
        match table.entry(key.clone()) {
            Entry::Vacant(slot) => {
                slot.insert(Owners::sole(txn, mode));
                Ok(None)
            }
            Entry::Occupied(mut slot) if slot.get().grantable(txn, mode) => {
                Ok(slot.get_mut().grant(txn, mode))
            }
            Entry::Occupied(_) => Err(Conflict),
        }
    }

    /// Remove `txn` from `key`'s owner set in `table` (no-op if not held),
    /// and the entry with it once the set is empty — one table probe.
    fn ungrant(table: &mut LockTable, txn: TxnId, key: &Key) {
        if let Entry::Occupied(mut slot) = table.entry(key.clone()) {
            if slot.get_mut().remove(txn) {
                slot.remove();
            }
        }
    }

    /// Undo one [`grant`](Self::grant): restore `txn`'s pre-grant state on
    /// `key` — drop the lock if it was not held before, or restore the
    /// prior mode (undoing an upgrade) if it was. A pre-held lock is still
    /// held: only its own transaction releases it.
    fn restore_grant(table: &mut LockTable, txn: TxnId, key: &Key, prior: Option<LockMode>) {
        match prior {
            None => Self::ungrant(table, txn, key),
            Some(mode) => {
                if let Some(held) = table.get_mut(key).and_then(|owners| owners.get_mut(txn)) {
                    *held = mode;
                }
            }
        }
    }

    /// Acquire every entry of `batch` — all of which must live in one
    /// shard, in ascending key order — under one shard-mutex hold per
    /// attempt.
    ///
    /// Grants are **incremental in key order** for every policy: each
    /// grantable key is taken (and *held*) immediately and the transaction
    /// waits only at the first conflicting key. Because every multi-key
    /// acquisition walks the same global `(shard index, key)` order, the
    /// held prefix can never participate in a wait cycle under `Block`
    /// (classic total-order resource acquisition — same argument as the
    /// seed's sorted per-key protocol, one mutex hold per shard instead of
    /// per key). Under `WaitDie` holding the prefix also preserves the
    /// priority guarantee: younger contenders die against it instead of
    /// starving the batch.
    ///
    /// Each grant records the mode it replaced in its entry's `prior`; on
    /// failure this returns how many entries it granted, and the *caller*
    /// restores them, so a failed acquisition leaves pre-held locks and
    /// modes exactly as they were.
    fn acquire_shard_batch<K: Borrow<Key>>(
        &self,
        txn: TxnId,
        batch: &mut [Planned<K>],
        timeout: Option<Duration>,
    ) -> Result<(), (LockError, usize)> {
        let shard = &self.shards[batch[0].shard];
        let mut next = 0; // first batch entry not yet granted by this call
        let mut table = shard.table.lock();
        loop {
            while let Some(entry) = batch.get_mut(next) {
                match Self::grant(&mut table, txn, entry.key.borrow(), entry.mode) {
                    Ok(held) => entry.prior = held,
                    Err(Conflict) => break,
                }
                next += 1;
            }
            if next == batch.len() {
                return Ok(());
            }
            // Conflict at batch[next]; the granted prefix stays held and
            // records its prior modes — the caller rolls back on error.
            match self.policy {
                LockPolicy::NoWait => return Err((LockError::WouldBlock, next)),
                LockPolicy::WaitDie => {
                    // Standard wait-die on the blocking key: die if any
                    // conflicting holder is *older* (smaller id); wait only
                    // when every conflicting holder is younger.
                    let older_holder = table
                        .get(batch[next].key.borrow())
                        .is_some_and(|owners| owners.iter().any(|(o, _)| o != txn && o < txn));
                    if older_holder {
                        return Err((LockError::Die, next));
                    }
                }
                LockPolicy::Block => {}
            }
            // Wait for a release in this shard, then re-check from `next`.
            match timeout {
                Some(t) => {
                    if shard.released.wait_for(&mut table, t).timed_out() {
                        return Err((LockError::Timeout, next));
                    }
                }
                None => {
                    if crate::sched::active() {
                        // Model-checked run: hand the wait to the checker's
                        // scheduler instead of parking on the condvar. The
                        // shard mutex must be released across the switch.
                        drop(table);
                        crate::sched::block_point("store.lock.wait");
                        table = shard.table.lock();
                        continue;
                    }
                    shard.released.wait(&mut table);
                }
            }
        }
    }

    /// Acquire a planned list shard run by shard run. On failure the
    /// granted prefix is restored (see [`rollback`](Self::rollback)).
    fn acquire_planned<K: Borrow<Key>>(
        &self,
        txn: TxnId,
        locks: &mut [Planned<K>],
        timeout: Option<Duration>,
    ) -> Result<(), LockError> {
        let mut start = 0;
        while start < locks.len() {
            let shard = locks[start].shard;
            let end = locks[start..]
                .iter()
                .position(|p| p.shard != shard)
                .map_or(locks.len(), |p| start + p);
            if let Err((e, granted)) =
                self.acquire_shard_batch(txn, &mut locks[start..end], timeout)
            {
                self.rollback(txn, &locks[..start + granted]);
                return Err(e);
            }
            start = end;
        }
        Ok(())
    }

    /// Restore every grant in `granted` (reverse order), returning each key
    /// to its exact pre-call state. One mutex hold + one wakeup per shard
    /// touched; the list is shard-contiguous by construction.
    fn rollback<K: Borrow<Key>>(&self, txn: TxnId, granted: &[Planned<K>]) {
        for batch in granted.chunk_by(|a, b| a.shard == b.shard).rev() {
            let shard = &self.shards[batch[0].shard];
            let mut table = shard.table.lock();
            for entry in batch.iter().rev() {
                Self::restore_grant(&mut table, txn, entry.key.borrow(), entry.prior);
            }
            drop(table);
            shard.released.notify_all();
            crate::sched::progress("store.lock.rollback");
        }
    }

    /// Plan a stage's locks: every requested `(key, mode)` once, in the
    /// stronger of its requested modes, in the global `(shard index, key)`
    /// order, with its shard index cached. One allocation (the requests
    /// are counted first) and one sort; `K` is `&Key` to borrow the
    /// requested keys or `Key` to own them.
    pub fn plan<K, I>(&self, requests: I) -> LockPlan<K>
    where
        K: Borrow<Key>,
        I: IntoIterator<Item = (K, LockMode)>,
        I::IntoIter: Clone,
    {
        let requests = requests.into_iter();
        let mut locks = Vec::with_capacity(requests.clone().count());
        locks.extend(requests.map(|(key, mode)| self.planned(key, mode)));
        LockPlan::sorted(locks)
    }

    /// Acquire every lock of `plan` for `txn`, walking it in its global
    /// order: one shard-mutex hold per shard run and attempt, waiting per
    /// the policy, with an optional wall-clock timeout (re-armed per
    /// wait).
    ///
    /// On failure, every grant made by this call is rolled back to its
    /// exact prior state: locks the transaction already held before the
    /// call (re-entrant grants, upgrades) keep their pre-call modes.
    pub fn acquire_plan<K: Borrow<Key>>(
        &self,
        txn: TxnId,
        plan: &mut LockPlan<K>,
        timeout: Option<Duration>,
    ) -> Result<(), LockError> {
        self.acquire_planned(txn, &mut plan.locks, timeout)
    }

    /// Release every lock of `plan` held by `txn` (keys it does not hold
    /// are skipped): one mutex hold and one condvar wakeup per shard run,
    /// instead of one per key.
    pub fn release_plan<K: Borrow<Key>>(&self, txn: TxnId, plan: &LockPlan<K>) {
        for batch in plan.locks.chunk_by(|a, b| a.shard == b.shard) {
            let shard = &self.shards[batch[0].shard];
            let mut table = shard.table.lock();
            for entry in batch {
                Self::ungrant(&mut table, txn, entry.key.borrow());
            }
            drop(table);
            shard.released.notify_all();
            crate::sched::progress("store.lock.release");
        }
    }

    /// Acquire `mode` on `key` for `txn`, waiting per the policy, with an
    /// optional wall-clock timeout (re-armed per wait).
    ///
    /// Re-entrant: a transaction already holding the key in a covering mode
    /// returns immediately; holding `Shared` and requesting `Exclusive`
    /// upgrades when the transaction is the sole owner.
    pub fn acquire(
        &self,
        txn: TxnId,
        key: &Key,
        mode: LockMode,
        timeout: Option<Duration>,
    ) -> Result<(), LockError> {
        let mut one = [self.planned(key, mode)];
        self.acquire_planned(txn, &mut one, timeout)
    }

    /// Convenience: acquire with the policy's default (no timeout).
    pub fn lock(&self, txn: TxnId, key: &Key, mode: LockMode) -> Result<(), LockError> {
        self.acquire(txn, key, mode, None)
    }

    /// Acquire a set of keys: [`plan`](Self::plan) them, then
    /// [`acquire_plan`](Self::acquire_plan) — one shard-mutex hold per
    /// shard (not per key), shards in increasing index order, keys in
    /// ascending order within each shard. That global total order makes
    /// concurrent batched acquisition deadlock-free under `Block` even for
    /// overlapping sets, and a failed call leaves every lock as it was.
    pub fn acquire_all(
        &self,
        txn: TxnId,
        keys: &[(Key, LockMode)],
        timeout: Option<Duration>,
    ) -> Result<(), LockError> {
        if let [(key, mode)] = keys {
            return self.acquire(txn, key, *mode, timeout);
        }
        let mut plan = self.plan(keys.iter().map(|(k, m)| (k, *m)));
        self.acquire_plan(txn, &mut plan, timeout)
    }

    /// Release `txn`'s lock on `key` (no-op if not held).
    pub fn release(&self, txn: TxnId, key: &Key) {
        let shard = &self.shards[self.shard_index(key)];
        let mut table = shard.table.lock();
        Self::ungrant(&mut table, txn, key);
        drop(table);
        shard.released.notify_all();
        crate::sched::progress("store.lock.release");
    }

    /// Release a set of keys: plan them and
    /// [`release_plan`](Self::release_plan) — one mutex hold and one
    /// condvar wakeup per shard touched, instead of one per key.
    pub fn release_all<'a>(&self, txn: TxnId, keys: impl IntoIterator<Item = &'a Key>) {
        let locks = keys
            .into_iter()
            .map(|key| self.planned(key, LockMode::Shared))
            .collect();
        self.release_plan(txn, &LockPlan::sorted(locks));
    }

    /// The mode `txn` holds on `key`, if any.
    pub fn held_mode(&self, txn: TxnId, key: &Key) -> Option<LockMode> {
        self.shards[self.shard_index(key)]
            .table
            .lock()
            .get(key)?
            .get(txn)
    }

    /// Number of keys with at least one holder (diagnostics).
    pub fn locked_keys(&self) -> usize {
        self.shards.iter().map(|s| s.table.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread;

    fn k(s: &str) -> Key {
        Key::new(s)
    }

    #[test]
    fn shared_locks_are_compatible() {
        let lm = LockManager::new(LockPolicy::NoWait);
        assert!(lm.lock(TxnId(1), &k("a"), LockMode::Shared).is_ok());
        assert!(lm.lock(TxnId(2), &k("a"), LockMode::Shared).is_ok());
        assert_eq!(lm.held_mode(TxnId(1), &k("a")), Some(LockMode::Shared));
        assert_eq!(lm.held_mode(TxnId(2), &k("a")), Some(LockMode::Shared));
    }

    #[test]
    fn exclusive_conflicts_with_shared() {
        let lm = LockManager::new(LockPolicy::NoWait);
        lm.lock(TxnId(1), &k("a"), LockMode::Shared).unwrap();
        assert_eq!(
            lm.lock(TxnId(2), &k("a"), LockMode::Exclusive),
            Err(LockError::WouldBlock)
        );
    }

    #[test]
    fn exclusive_conflicts_with_exclusive() {
        let lm = LockManager::new(LockPolicy::NoWait);
        lm.lock(TxnId(1), &k("a"), LockMode::Exclusive).unwrap();
        assert_eq!(
            lm.lock(TxnId(2), &k("a"), LockMode::Exclusive),
            Err(LockError::WouldBlock)
        );
        assert_eq!(
            lm.lock(TxnId(2), &k("a"), LockMode::Shared),
            Err(LockError::WouldBlock)
        );
    }

    #[test]
    fn reentrant_acquisition() {
        let lm = LockManager::new(LockPolicy::NoWait);
        lm.lock(TxnId(1), &k("a"), LockMode::Exclusive).unwrap();
        assert!(lm.lock(TxnId(1), &k("a"), LockMode::Exclusive).is_ok());
        assert!(lm.lock(TxnId(1), &k("a"), LockMode::Shared).is_ok());
        // X covers S: mode stays exclusive.
        assert_eq!(lm.held_mode(TxnId(1), &k("a")), Some(LockMode::Exclusive));
    }

    #[test]
    fn upgrade_when_sole_owner() {
        let lm = LockManager::new(LockPolicy::NoWait);
        lm.lock(TxnId(1), &k("a"), LockMode::Shared).unwrap();
        assert!(lm.lock(TxnId(1), &k("a"), LockMode::Exclusive).is_ok());
        assert_eq!(lm.held_mode(TxnId(1), &k("a")), Some(LockMode::Exclusive));
    }

    #[test]
    fn upgrade_blocked_by_other_reader() {
        let lm = LockManager::new(LockPolicy::NoWait);
        lm.lock(TxnId(1), &k("a"), LockMode::Shared).unwrap();
        lm.lock(TxnId(2), &k("a"), LockMode::Shared).unwrap();
        assert_eq!(
            lm.lock(TxnId(1), &k("a"), LockMode::Exclusive),
            Err(LockError::WouldBlock)
        );
    }

    #[test]
    fn release_frees_the_key() {
        let lm = LockManager::new(LockPolicy::NoWait);
        lm.lock(TxnId(1), &k("a"), LockMode::Exclusive).unwrap();
        lm.release(TxnId(1), &k("a"));
        assert_eq!(lm.held_mode(TxnId(1), &k("a")), None);
        assert!(lm.lock(TxnId(2), &k("a"), LockMode::Exclusive).is_ok());
        assert_eq!(lm.locked_keys(), 1);
    }

    #[test]
    fn release_unheld_is_noop() {
        let lm = LockManager::new(LockPolicy::NoWait);
        lm.release(TxnId(1), &k("nope"));
        assert_eq!(lm.locked_keys(), 0);
    }

    #[test]
    fn wait_die_younger_dies() {
        let lm = LockManager::new(LockPolicy::WaitDie);
        lm.lock(TxnId(1), &k("a"), LockMode::Exclusive).unwrap();
        // TxnId(5) is younger than the holder TxnId(1): dies.
        assert_eq!(
            lm.lock(TxnId(5), &k("a"), LockMode::Exclusive),
            Err(LockError::Die)
        );
    }

    #[test]
    fn wait_die_older_waits_until_release() {
        let lm = Arc::new(LockManager::new(LockPolicy::WaitDie));
        lm.lock(TxnId(5), &k("a"), LockMode::Exclusive).unwrap();
        let got_it = Arc::new(AtomicBool::new(false));
        let waiter = {
            let lm = Arc::clone(&lm);
            let got_it = Arc::clone(&got_it);
            thread::spawn(move || {
                // TxnId(1) is older: waits instead of dying.
                lm.lock(TxnId(1), &k("a"), LockMode::Exclusive).unwrap();
                got_it.store(true, Ordering::SeqCst);
            })
        };
        thread::sleep(Duration::from_millis(50));
        assert!(
            !got_it.load(Ordering::SeqCst),
            "older txn should still wait"
        );
        lm.release(TxnId(5), &k("a"));
        waiter.join().unwrap();
        assert!(got_it.load(Ordering::SeqCst));
    }

    #[test]
    fn blocking_waiter_wakes_on_release() {
        let lm = Arc::new(LockManager::new(LockPolicy::Block));
        lm.lock(TxnId(1), &k("a"), LockMode::Exclusive).unwrap();
        let lm2 = Arc::clone(&lm);
        let waiter = thread::spawn(move || lm2.lock(TxnId(2), &k("a"), LockMode::Exclusive));
        thread::sleep(Duration::from_millis(30));
        lm.release(TxnId(1), &k("a"));
        assert!(waiter.join().unwrap().is_ok());
    }

    #[test]
    fn timeout_fires() {
        let lm = LockManager::new(LockPolicy::Block);
        lm.lock(TxnId(1), &k("a"), LockMode::Exclusive).unwrap();
        let r = lm.acquire(
            TxnId(2),
            &k("a"),
            LockMode::Exclusive,
            Some(Duration::from_millis(20)),
        );
        assert_eq!(r, Err(LockError::Timeout));
    }

    #[test]
    fn acquire_all_rolls_back_on_failure() {
        let lm = LockManager::new(LockPolicy::NoWait);
        lm.lock(TxnId(9), &k("b"), LockMode::Exclusive).unwrap();
        let keys = vec![
            (k("a"), LockMode::Exclusive),
            (k("b"), LockMode::Exclusive),
            (k("c"), LockMode::Exclusive),
        ];
        assert!(lm.acquire_all(TxnId(10), &keys, None).is_err());
        // "a" must have been released again.
        assert_eq!(lm.held_mode(TxnId(10), &k("a")), None);
        assert!(lm.lock(TxnId(11), &k("a"), LockMode::Exclusive).is_ok());
    }

    #[test]
    fn acquire_all_rolls_back_across_many_shards() {
        // Enough keys to span most shards, with the conflict parked on an
        // arbitrary one: every key from every other shard batch must be
        // released again.
        let lm = LockManager::new(LockPolicy::NoWait);
        let keys: Vec<(Key, LockMode)> = (0..200)
            .map(|i| (Key::indexed("r", i), LockMode::Exclusive))
            .collect();
        let victim = keys[137].0.clone();
        lm.lock(TxnId(1), &victim, LockMode::Exclusive).unwrap();
        assert!(lm.acquire_all(TxnId(2), &keys, None).is_err());
        assert_eq!(lm.locked_keys(), 1, "only the pre-held victim remains");
        lm.release(TxnId(1), &victim);
        assert!(lm.acquire_all(TxnId(2), &keys, None).is_ok());
        lm.release_all(TxnId(2), keys.iter().map(|(k, _)| k));
        assert_eq!(lm.locked_keys(), 0);
    }

    #[test]
    fn acquire_all_sorted_order_prevents_deadlock() {
        let lm = Arc::new(LockManager::new(LockPolicy::Block));
        let keys_ab = vec![(k("a"), LockMode::Exclusive), (k("b"), LockMode::Exclusive)];
        let keys_ba = vec![(k("b"), LockMode::Exclusive), (k("a"), LockMode::Exclusive)];
        let done = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let lm = Arc::clone(&lm);
                let keys = if i % 2 == 0 {
                    keys_ab.clone()
                } else {
                    keys_ba.clone()
                };
                let done = Arc::clone(&done);
                thread::spawn(move || {
                    for _ in 0..50 {
                        lm.acquire_all(TxnId(i), &keys, None).unwrap();
                        let ks: Vec<Key> = keys.iter().map(|(k, _)| k.clone()).collect();
                        lm.release_all(TxnId(i), ks.iter());
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(done.load(Ordering::SeqCst), 8);
        assert_eq!(lm.locked_keys(), 0);
    }

    #[test]
    fn failed_acquire_all_preserves_preheld_locks() {
        // Regression: rollback must distinguish locks granted by the failed
        // call from re-entrant grants of locks the transaction already
        // held. Sweep many key pairs so both shard orders are exercised.
        let lm = LockManager::new(LockPolicy::NoWait);
        for i in 0..100u64 {
            let a = Key::indexed("pre", i * 2);
            let b = Key::indexed("pre", i * 2 + 1);
            lm.lock(TxnId(1), &a, LockMode::Exclusive).unwrap();
            lm.lock(TxnId(2), &b, LockMode::Exclusive).unwrap();
            let pairs = vec![
                (a.clone(), LockMode::Exclusive),
                (b.clone(), LockMode::Exclusive),
            ];
            assert_eq!(
                lm.acquire_all(TxnId(1), &pairs, None),
                Err(LockError::WouldBlock)
            );
            assert_eq!(
                lm.held_mode(TxnId(1), &a),
                Some(LockMode::Exclusive),
                "pre-held lock on {a} lost by failed acquire_all"
            );
            lm.release(TxnId(1), &a);
            lm.release(TxnId(2), &b);
        }
        assert_eq!(lm.locked_keys(), 0);
    }

    #[test]
    fn failed_acquire_all_restores_upgrade_to_prior_mode() {
        // A Shared lock upgraded to Exclusive inside a failed batch must
        // come back as Shared — neither lost nor left Exclusive.
        let lm = LockManager::new(LockPolicy::NoWait);
        for i in 0..100u64 {
            let a = Key::indexed("up", i * 2);
            let b = Key::indexed("up", i * 2 + 1);
            lm.lock(TxnId(1), &a, LockMode::Shared).unwrap();
            lm.lock(TxnId(2), &b, LockMode::Exclusive).unwrap();
            let pairs = vec![
                (a.clone(), LockMode::Exclusive),
                (b.clone(), LockMode::Exclusive),
            ];
            assert_eq!(
                lm.acquire_all(TxnId(1), &pairs, None),
                Err(LockError::WouldBlock)
            );
            assert_eq!(
                lm.held_mode(TxnId(1), &a),
                Some(LockMode::Shared),
                "upgrade on {a} not restored to Shared by failed acquire_all"
            );
            // A concurrent reader is compatible again — the upgrade really
            // was undone in the table, not just in held_mode's view.
            assert!(lm.lock(TxnId(3), &a, LockMode::Shared).is_ok());
            lm.release(TxnId(1), &a);
            lm.release(TxnId(2), &b);
            lm.release(TxnId(3), &a);
        }
        assert_eq!(lm.locked_keys(), 0);
    }

    #[test]
    fn wait_die_batch_holds_partial_grants_so_oldest_cannot_starve() {
        // Regression test for incremental in-shard grants: the oldest
        // transaction's batch takes grantable keys immediately and *holds*
        // them while waiting for the rest, so younger single-key cyclers
        // die against the held prefix instead of starving the batch.
        use std::sync::atomic::AtomicBool;
        let lm = Arc::new(LockManager::with_shards(LockPolicy::WaitDie, 1));
        let keys: Vec<(Key, LockMode)> = (0..4)
            .map(|i| (Key::indexed("s", i), LockMode::Exclusive))
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        let youngers: Vec<_> = (0..3u64)
            .map(|t| {
                let lm = Arc::clone(&lm);
                let stop = Arc::clone(&stop);
                let keys = keys.clone();
                thread::spawn(move || {
                    let mut i = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let (k, _) = &keys[i % keys.len()];
                        i += 1;
                        if lm.lock(TxnId(100 + t), k, LockMode::Exclusive).is_ok() {
                            lm.release(TxnId(100 + t), k);
                        }
                    }
                })
            })
            .collect();
        // The oldest transaction must complete every round despite the
        // younger churn (watchdogless: wait-die guarantees it never dies,
        // and held partial grants guarantee forward progress).
        for _ in 0..50 {
            lm.acquire_all(TxnId(1), &keys, None).unwrap();
            lm.release_all(TxnId(1), keys.iter().map(|(k, _)| k));
        }
        stop.store(true, Ordering::Relaxed);
        for t in youngers {
            t.join().unwrap();
        }
        assert_eq!(lm.locked_keys(), 0);
    }

    #[test]
    fn exclusive_lock_provides_mutual_exclusion() {
        let lm = Arc::new(LockManager::new(LockPolicy::Block));
        let counter = Arc::new(AtomicUsize::new(0));
        let in_cs = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let lm = Arc::clone(&lm);
                let counter = Arc::clone(&counter);
                let in_cs = Arc::clone(&in_cs);
                thread::spawn(move || {
                    for _ in 0..200 {
                        lm.lock(TxnId(i), &k("hot"), LockMode::Exclusive).unwrap();
                        assert_eq!(in_cs.fetch_add(1, Ordering::SeqCst), 0);
                        counter.fetch_add(1, Ordering::SeqCst);
                        in_cs.fetch_sub(1, Ordering::SeqCst);
                        lm.release(TxnId(i), &k("hot"));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 1600);
    }

    #[test]
    fn readers_and_writers_mix_safely_under_stress() {
        // 4 writers and 4 readers hammer one key under Block; writers get
        // exclusive access, readers may overlap each other but never a
        // writer.
        let lm = Arc::new(LockManager::new(LockPolicy::Block));
        let writers_in = Arc::new(AtomicUsize::new(0));
        let readers_in = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for i in 0..4u64 {
            let lm = Arc::clone(&lm);
            let writers_in = Arc::clone(&writers_in);
            let readers_in = Arc::clone(&readers_in);
            handles.push(thread::spawn(move || {
                for _ in 0..100 {
                    lm.lock(TxnId(i), &k("mix"), LockMode::Exclusive).unwrap();
                    assert_eq!(writers_in.fetch_add(1, Ordering::SeqCst), 0);
                    assert_eq!(readers_in.load(Ordering::SeqCst), 0);
                    writers_in.fetch_sub(1, Ordering::SeqCst);
                    lm.release(TxnId(i), &k("mix"));
                }
            }));
        }
        for i in 4..8u64 {
            let lm = Arc::clone(&lm);
            let writers_in = Arc::clone(&writers_in);
            let readers_in = Arc::clone(&readers_in);
            handles.push(thread::spawn(move || {
                for _ in 0..100 {
                    lm.lock(TxnId(i), &k("mix"), LockMode::Shared).unwrap();
                    readers_in.fetch_add(1, Ordering::SeqCst);
                    assert_eq!(writers_in.load(Ordering::SeqCst), 0);
                    readers_in.fetch_sub(1, Ordering::SeqCst);
                    lm.release(TxnId(i), &k("mix"));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(lm.locked_keys(), 0);
    }

    #[test]
    fn wait_die_applies_to_shared_holders_too() {
        let lm = LockManager::new(LockPolicy::WaitDie);
        lm.lock(TxnId(1), &k("a"), LockMode::Shared).unwrap();
        lm.lock(TxnId(2), &k("a"), LockMode::Shared).unwrap();
        // A younger exclusive requester dies against the older readers.
        assert_eq!(
            lm.lock(TxnId(9), &k("a"), LockMode::Exclusive),
            Err(LockError::Die)
        );
        // Readers keep their locks.
        assert_eq!(lm.held_mode(TxnId(1), &k("a")), Some(LockMode::Shared));
    }

    #[test]
    fn timeout_leaves_no_stale_waiter_state() {
        let lm = LockManager::new(LockPolicy::Block);
        lm.lock(TxnId(1), &k("a"), LockMode::Exclusive).unwrap();
        for _ in 0..5 {
            let _ = lm.acquire(
                TxnId(2),
                &k("a"),
                LockMode::Exclusive,
                Some(Duration::from_millis(5)),
            );
        }
        // No timed-out waiter is still counted on the key's shard condvar.
        assert_eq!(lm.shards[lm.shard_index(&k("a"))].released.notify_all(), 0);
        lm.release(TxnId(1), &k("a"));
        // Nothing lingers; a fresh acquisition succeeds instantly.
        assert!(lm.lock(TxnId(3), &k("a"), LockMode::Exclusive).is_ok());
        lm.release(TxnId(3), &k("a"));
        assert_eq!(lm.locked_keys(), 0);
    }

    /// The holders of `key` that spilled past the inline slot.
    fn spilled(lm: &LockManager, key: &Key) -> Vec<TxnId> {
        let table = lm.shards[lm.shard_index(key)].table.lock();
        table.get(key).map_or_else(Vec::new, |owners| {
            owners.rest.iter().map(|&(t, _)| t).collect()
        })
    }

    #[test]
    fn shared_co_holders_spill_and_survive_the_inline_holder_leaving() {
        let lm = LockManager::new(LockPolicy::NoWait);
        let a = k("a");
        for t in 1..=3 {
            lm.lock(TxnId(t), &a, LockMode::Shared).unwrap();
        }
        assert_eq!(spilled(&lm, &a), [TxnId(2), TxnId(3)]);
        // The inline holder leaves first; the spilled two keep their modes.
        lm.release(TxnId(1), &a);
        assert_eq!(lm.held_mode(TxnId(1), &a), None);
        for t in [2, 3] {
            assert_eq!(lm.held_mode(TxnId(t), &a), Some(LockMode::Shared));
        }
        assert_eq!(
            lm.lock(TxnId(9), &a, LockMode::Exclusive),
            Err(LockError::WouldBlock)
        );
        lm.release(TxnId(3), &a);
        assert_eq!(lm.held_mode(TxnId(2), &a), Some(LockMode::Shared));
        assert_eq!(
            lm.lock(TxnId(9), &a, LockMode::Exclusive),
            Err(LockError::WouldBlock)
        );
        assert_eq!(lm.locked_keys(), 1);
        lm.release(TxnId(2), &a);
        assert_eq!(lm.locked_keys(), 0);
        assert!(lm.lock(TxnId(9), &a, LockMode::Exclusive).is_ok());
        lm.release(TxnId(9), &a);
        assert_eq!(lm.locked_keys(), 0);
    }

    #[test]
    fn wait_die_dies_against_an_older_spilled_holder() {
        let lm = LockManager::new(LockPolicy::WaitDie);
        let a = k("a");
        // The inline holder is younger than the requester, the older one
        // sits in the spill list.
        lm.lock(TxnId(5), &a, LockMode::Shared).unwrap();
        lm.lock(TxnId(2), &a, LockMode::Shared).unwrap();
        assert_eq!(spilled(&lm, &a), [TxnId(2)]);
        assert_eq!(
            lm.lock(TxnId(3), &a, LockMode::Exclusive),
            Err(LockError::Die)
        );
        assert_eq!(lm.held_mode(TxnId(3), &a), None);
        assert_eq!(lm.held_mode(TxnId(2), &a), Some(LockMode::Shared));
        assert_eq!(lm.held_mode(TxnId(5), &a), Some(LockMode::Shared));
    }

    #[test]
    fn failed_two_shard_acquire_all_restores_upgrade_and_spilled_mode() {
        let lm = LockManager::with_shards(LockPolicy::NoWait, 2);
        let lm_ref = &lm;
        let in_shard = |shard| {
            (0..)
                .map(|i| Key::indexed("two", i))
                .filter(move |key| lm_ref.shard_index(key) == shard)
        };
        let mut first = in_shard(0);
        let (up, co, fresh) = (
            first.next().unwrap(),
            first.next().unwrap(),
            first.next().unwrap(),
        );
        let blocked = in_shard(1).next().unwrap();
        // `up`: t1 the sole Shared holder (upgraded by the batch).
        lm.lock(TxnId(1), &up, LockMode::Shared).unwrap();
        // `co`: t7 inline, t1 a spilled Shared co-holder (re-granted).
        lm.lock(TxnId(7), &co, LockMode::Shared).unwrap();
        lm.lock(TxnId(1), &co, LockMode::Shared).unwrap();
        assert_eq!(spilled(&lm, &co), [TxnId(1)]);
        // `blocked`: held by t9 in the later shard, so shard 0 is granted
        // in full before the batch fails.
        lm.lock(TxnId(9), &blocked, LockMode::Exclusive).unwrap();
        let pairs = vec![
            (up.clone(), LockMode::Exclusive),
            (co.clone(), LockMode::Shared),
            (fresh.clone(), LockMode::Exclusive),
            (blocked.clone(), LockMode::Exclusive),
        ];
        assert_eq!(
            lm.acquire_all(TxnId(1), &pairs, None),
            Err(LockError::WouldBlock)
        );
        assert_eq!(lm.held_mode(TxnId(1), &up), Some(LockMode::Shared));
        assert_eq!(lm.held_mode(TxnId(1), &co), Some(LockMode::Shared));
        assert_eq!(lm.held_mode(TxnId(7), &co), Some(LockMode::Shared));
        assert_eq!(spilled(&lm, &co), [TxnId(1)]);
        assert_eq!(lm.held_mode(TxnId(1), &fresh), None);
        assert_eq!(lm.held_mode(TxnId(9), &blocked), Some(LockMode::Exclusive));
        // The upgrade was undone in the table: another reader fits again.
        assert!(lm.lock(TxnId(3), &up, LockMode::Shared).is_ok());
        assert_eq!(lm.locked_keys(), 3);
    }

    #[test]
    fn wait_die_cannot_deadlock_under_symmetric_contention() {
        // Two transactions repeatedly locking {a, b} in opposite orders under
        // WaitDie: progress is guaranteed because one always dies and retries
        // (keeping its id/priority).
        let lm = Arc::new(LockManager::new(LockPolicy::WaitDie));
        let threads: Vec<_> = (0..2)
            .map(|i| {
                let lm = Arc::clone(&lm);
                thread::spawn(move || {
                    let (first, second) = if i == 0 {
                        (k("a"), k("b"))
                    } else {
                        (k("b"), k("a"))
                    };
                    let me = TxnId(i);
                    let mut commits = 0;
                    while commits < 50 {
                        if lm.lock(me, &first, LockMode::Exclusive).is_err() {
                            continue;
                        }
                        match lm.lock(me, &second, LockMode::Exclusive) {
                            Ok(()) => {
                                commits += 1;
                                lm.release(me, &first);
                                lm.release(me, &second);
                            }
                            Err(_) => {
                                lm.release(me, &first);
                                std::thread::yield_now();
                            }
                        }
                    }
                    commits
                })
            })
            .collect();
        for t in threads {
            assert_eq!(t.join().unwrap(), 50);
        }
    }
}

/// Property tests of [`LockManager::plan`] and the walks over it, against a
/// reference built the way read/write sets were locked before plans: the
/// sort-and-dedup of `lock_pairs`, then the `(shard, key)` sort of the
/// acquisition.
#[cfg(test)]
mod plan_props {
    use super::*;
    use proptest::prelude::*;

    /// A small key space, so lists repeat keys and keys are both read and
    /// written; every fourth key is too long to sit inline.
    fn key(n: u64) -> Key {
        if n.is_multiple_of(4) {
            Key::indexed("a-keyspace-past-the-inline-slot", n)
        } else {
            Key::indexed("k", n)
        }
    }

    fn keys(ns: &[u64]) -> Vec<Key> {
        ns.iter().map(|&n| key(n)).collect()
    }

    /// The pre-plan way: writes exclusive, reads not written shared, sorted
    /// by key with the stronger mode kept, then sorted by `(shard, key)`.
    fn reference(lm: &LockManager, writes: &[Key], reads: &[Key]) -> Vec<(Key, LockMode)> {
        let mut pairs: Vec<(Key, LockMode)> = writes
            .iter()
            .map(|k| (k.clone(), LockMode::Exclusive))
            .collect();
        for k in reads {
            if !writes.contains(k) {
                pairs.push((k.clone(), LockMode::Shared));
            }
        }
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        pairs.dedup_by(|a, b| {
            if a.0 == b.0 {
                if a.1 == LockMode::Exclusive {
                    b.1 = LockMode::Exclusive;
                }
                true
            } else {
                false
            }
        });
        pairs.sort_by(|a, b| {
            lm.shard_index(&a.0)
                .cmp(&lm.shard_index(&b.0))
                .then_with(|| a.0.cmp(&b.0))
        });
        pairs
    }

    fn requests<'a>(
        writes: &'a [Key],
        reads: &'a [Key],
    ) -> impl DoubleEndedIterator<Item = (&'a Key, LockMode)> + Clone {
        let writes = writes.iter().map(|k| (k, LockMode::Exclusive));
        writes.chain(reads.iter().map(|k| (k, LockMode::Shared)))
    }

    fn planned<K: Borrow<Key>>(plan: &LockPlan<K>) -> Vec<(Key, LockMode)> {
        plan.iter().map(|(k, m)| (k.clone(), m)).collect()
    }

    /// `pairs` shuffled by a splitmix64 stream from `seed`.
    fn permuted(pairs: &[(Key, LockMode)], seed: u64) -> Vec<(Key, LockMode)> {
        let mut out = pairs.to_vec();
        let mut state = seed;
        for i in (1..out.len()).rev() {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let j = (mix_for_shuffle(state) % (i as u64 + 1)) as usize;
            out.swap(i, j);
        }
        out
    }

    fn mix_for_shuffle(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    proptest! {
        #[test]
        fn a_plan_is_the_deduplicated_pairs_in_shard_then_key_order(
            writes in prop::collection::vec(0u64..12, 0..10),
            reads in prop::collection::vec(0u64..12, 0..10),
            shards in 1usize..6
        ) {
            let lm = LockManager::with_shards(LockPolicy::NoWait, shards);
            let (writes, reads) = (keys(&writes), keys(&reads));
            let expected = reference(&lm, &writes, &reads);
            let borrowed = lm.plan(requests(&writes, &reads));
            prop_assert_eq!(planned(&borrowed), expected.clone());
            prop_assert_eq!(borrowed.capacity(), writes.len() + reads.len());
            let owned = lm.plan(requests(&writes, &reads).map(|(k, m)| (k.clone(), m)));
            prop_assert_eq!(planned(&owned), expected.clone());
            // Reads first: the stronger mode wins whatever the order.
            prop_assert_eq!(planned(&lm.plan(requests(&writes, &reads).rev())), expected);
        }

        #[test]
        fn acquire_all_over_any_permutation_holds_the_same_modes(
            requested in prop::collection::vec((0u64..12, prop::bool::ANY), 1..16),
            seed in any::<u64>(),
            shards in 1usize..6
        ) {
            // Duplicates in either mode, so some keys are read and written.
            let pairs: Vec<(Key, LockMode)> = requested
                .iter()
                .map(|&(n, exclusive)| {
                    let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                    (key(n), mode)
                })
                .collect();
            let txn = TxnId(1);
            let orders = [pairs.clone(), permuted(&pairs, seed), permuted(&pairs, !seed)];
            let held = |lm: &LockManager| -> Vec<Option<LockMode>> {
                (0..12).map(|n| lm.held_mode(txn, &key(n))).collect()
            };
            let mut modes = Vec::new();
            for order in &orders {
                let lm = LockManager::with_shards(LockPolicy::NoWait, shards);
                prop_assert!(lm.acquire_all(txn, order, None).is_ok());
                modes.push(held(&lm));
                let reversed: Vec<&Key> = order.iter().rev().map(|(k, _)| k).collect();
                lm.release_all(txn, reversed);
                prop_assert_eq!(lm.locked_keys(), 0);
            }
            let lm = LockManager::with_shards(LockPolicy::NoWait, shards);
            let mut plan = lm.plan(pairs.iter().map(|(k, m)| (k, *m)));
            prop_assert!(lm.acquire_plan(txn, &mut plan, None).is_ok());
            modes.push(held(&lm));
            lm.release_plan(txn, &plan);
            prop_assert_eq!(lm.locked_keys(), 0);
            let expected: Vec<Option<LockMode>> = (0..12)
                .map(|n| {
                    let requested = pairs.iter().filter(|(k, _)| *k == key(n)).map(|&(_, m)| m);
                    requested.reduce(|a, b| if b == LockMode::Exclusive { b } else { a })
                })
                .collect();
            for got in modes {
                prop_assert_eq!(got, expected.clone());
            }
        }
    }
}
