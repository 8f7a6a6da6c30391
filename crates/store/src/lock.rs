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
//! # Batched acquisition
//!
//! [`acquire_all`](LockManager::acquire_all) groups a transaction's lock
//! pairs by shard and acquires each shard's batch under a *single mutex
//! hold per attempt*, walking a global `(shard index, key)` order. Grants
//! are incremental: each grantable key is taken and *held* immediately,
//! and the transaction waits only at the first conflicting key. The global
//! total order makes concurrent batched acquisition deadlock-free under
//! `Block` (the same ordered-resources argument as sorted per-key
//! acquisition), and holding the granted prefix preserves wait-die's
//! priority-based progress for the oldest transaction. The shard-sorted
//! grant list is also the undo record: each entry stores the mode the
//! transaction held before its grant, so a failed acquisition restores
//! the granted prefix of the list and pre-held locks and modes survive
//! untouched. Compared to per-key acquisition this takes each shard mutex
//! once per *transaction* instead of once per *key*, and wakes waiters
//! once per shard batch on release. [`release_all`](LockManager::release_all)
//! is batched the same way; single-key [`acquire`](LockManager::acquire)
//! runs the same path on a one-entry list.

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

/// One entry of an acquisition's grant list: `(shard, key, requested mode,
/// prior)`. `prior` is filled in when the entry is granted with the mode
/// the transaction held before (`None` = not held) — what a rollback
/// restores.
type Grant<'a> = (usize, &'a Key, LockMode, Option<LockMode>);

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
    pub const DEFAULT_SHARDS: usize = 64;

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

    /// The conflict policy.
    pub fn policy(&self) -> LockPolicy {
        self.policy
    }

    #[inline]
    fn shard_index(&self, key: &Key) -> usize {
        key.shard_index(self.shards.len())
    }

    /// Grant `(key, mode)` to `txn` in `table` if it is compatible with the
    /// current holders. `Ok` carries the mode `txn` held *before* this
    /// grant (`None` = not held), so a failed multi-key acquisition can
    /// restore the exact prior state; `Err` means the key conflicts.
    fn grant(
        table: &mut LockTable,
        txn: TxnId,
        key: &Key,
        mode: LockMode,
    ) -> Result<Option<LockMode>, Conflict> {
        match table.get_mut(key) {
            None => {
                table.insert(key.clone(), Owners::sole(txn, mode));
                Ok(None)
            }
            Some(owners) if owners.grantable(txn, mode) => Ok(owners.grant(txn, mode)),
            Some(_) => Err(Conflict),
        }
    }

    /// Remove `txn` from `key`'s owner set in `table` (no-op if not held).
    fn ungrant(table: &mut LockTable, txn: TxnId, key: &Key) {
        if table.get_mut(key).is_some_and(|owners| owners.remove(txn)) {
            table.remove(key);
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
    fn acquire_shard_batch(
        &self,
        txn: TxnId,
        batch: &mut [Grant<'_>],
        timeout: Option<Duration>,
    ) -> Result<(), (LockError, usize)> {
        let shard = &self.shards[batch[0].0];
        let mut next = 0; // first batch entry not yet granted by this call
        let mut table = shard.table.lock();
        loop {
            while let Some((_, key, mode, prior)) = batch.get_mut(next) {
                match Self::grant(&mut table, txn, key, *mode) {
                    Ok(held) => *prior = held,
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
                        .get(batch[next].1)
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

    /// Acquire a shard-sorted grant list shard by shard. On failure the
    /// granted prefix is restored (see [`rollback`](Self::rollback)).
    fn acquire_sorted(
        &self,
        txn: TxnId,
        grants: &mut [Grant<'_>],
        timeout: Option<Duration>,
    ) -> Result<(), LockError> {
        let mut start = 0;
        while start < grants.len() {
            let shard_idx = grants[start].0;
            let end = grants[start..]
                .iter()
                .position(|g| g.0 != shard_idx)
                .map_or(grants.len(), |p| start + p);
            if let Err((e, granted)) =
                self.acquire_shard_batch(txn, &mut grants[start..end], timeout)
            {
                self.rollback(txn, &grants[..start + granted]);
                return Err(e);
            }
            start = end;
        }
        Ok(())
    }

    /// Restore every grant in `granted` (reverse order), returning each key
    /// to its exact pre-call state. One mutex hold + one wakeup per shard
    /// touched; the list is shard-contiguous by construction.
    fn rollback(&self, txn: TxnId, granted: &[Grant<'_>]) {
        for batch in granted.chunk_by(|a, b| a.0 == b.0).rev() {
            let shard = &self.shards[batch[0].0];
            let mut table = shard.table.lock();
            for &(_, key, _, prior) in batch.iter().rev() {
                Self::restore_grant(&mut table, txn, key, prior);
            }
            drop(table);
            shard.released.notify_all();
            crate::sched::progress("store.lock.rollback");
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
        let mut one = [(self.shard_index(key), key, mode, None)];
        self.acquire_sorted(txn, &mut one, timeout)
    }

    /// Convenience: acquire with the policy's default (no timeout).
    pub fn lock(&self, txn: TxnId, key: &Key, mode: LockMode) -> Result<(), LockError> {
        self.acquire(txn, key, mode, None)
    }

    /// Acquire a set of keys, batched by shard: one shard-mutex hold per
    /// shard (not per key), shards in increasing index order, keys in
    /// ascending order within each shard — a global total order that makes
    /// concurrent batched acquisition deadlock-free under `Block` even for
    /// overlapping sets.
    ///
    /// On failure, every grant made by this call is rolled back to its
    /// exact prior state: locks the transaction already held before the
    /// call (re-entrant grants, upgrades) keep their pre-call modes.
    pub fn acquire_all(
        &self,
        txn: TxnId,
        keys: &[(Key, LockMode)],
        timeout: Option<Duration>,
    ) -> Result<(), LockError> {
        if let [(key, mode)] = keys {
            return self.acquire(txn, key, *mode, timeout);
        }
        // Shard-major, then key order: the global acquisition order that
        // underpins deadlock freedom under Block.
        let mut sorted: Vec<Grant<'_>> = keys
            .iter()
            .map(|(k, m)| (self.shard_index(k), k, *m, None))
            .collect();
        sorted.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(b.1)));
        self.acquire_sorted(txn, &mut sorted, timeout)
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

    /// Release a set of keys, batched by shard: one mutex hold and one
    /// condvar wakeup per shard touched, instead of one per key.
    pub fn release_all<'a>(&self, txn: TxnId, keys: impl IntoIterator<Item = &'a Key>) {
        let mut items: Vec<(usize, &Key)> =
            keys.into_iter().map(|k| (self.shard_index(k), k)).collect();
        items.sort_unstable_by_key(|e| e.0);
        for batch in items.chunk_by(|a, b| a.0 == b.0) {
            let shard = &self.shards[batch[0].0];
            let mut table = shard.table.lock();
            for &(_, key) in batch {
                Self::ungrant(&mut table, txn, key);
            }
            drop(table);
            shard.released.notify_all();
            crate::sched::progress("store.lock.release");
        }
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
