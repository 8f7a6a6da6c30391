//! MS-SR via Two-Stage 2PL (TSPL) — Algorithm 1 of the paper.
//!
//! ```text
//! items ← get_rwsets(tᵢ)
//! if acquirelocks(items):
//!     execute(tᵢ)
//!     items ← get_rwsets(t_f)
//!     if acquirelocks(items):
//!         Initial Commit
//!         execute(t_f)          // once the final input is available
//!         Final Commit
//!     else abort
//! else abort
//! releaselocks(...)
//! ```
//!
//! The protocol's defining property: locks for *later* stages are acquired
//! before initial commit, so an initially-committed transaction can never
//! abort — but every lock is held across the edge→cloud round trip, which
//! is where MS-SR's contention (Fig 6a) and aborts under hot spots
//! (Fig 6b) come from.
//!
//! Under the unified [`MultiStageProtocol`] API the caller waits for the
//! final input *between* `run_stage` calls; TSPL simply keeps all locks
//! held across that gap (that is the point). Because later stages must not
//! acquire anything new after initial commit, every stage's read/write set
//! must be covered by the sets declared at [`begin`](TsplExecutor::begin).
//!
//! The executor is stateless: what a transaction will lock (the later
//! stages' pairs, until the end of stage 0) and what it holds (keys and
//! lock epoch, from there to final commit) ride in its [`TxnHandle`]. A
//! stage is the shared lifecycle of [`ExecutorCore`] (`execute`,
//! `commit_stage`, `finish`); this file holds only Algorithm 1's part:
//! which locks are taken before the body, which after it, that only final
//! commit is a commit point, and that nothing is released before it.

use std::time::Instant;

use croesus_store::{Key, LockMode, TxnId};

use crate::model::{RwSet, TxnError};
use crate::protocol::{
    ExecutorCore, MultiStageProtocol, ProtocolKind, StageBody, StageOutcome, TxnHandle,
};

/// The Two-Stage 2PL executor (generalized to m stages: all locks are
/// acquired by the end of stage 0 and held until the final stage commits).
pub struct TsplExecutor {
    core: ExecutorCore,
    /// Mutation self-test flag (mcheck builds only): when set, the final
    /// commit record is logged *after* the locks are released — a seeded
    /// commit-point bug the model checker must be able to catch.
    #[cfg(feature = "mcheck")]
    mutate_log_final_after_release: std::sync::atomic::AtomicBool,
}

impl TsplExecutor {
    /// A TSPL executor over shared core state.
    #[must_use]
    pub fn from_core(core: ExecutorCore) -> Self {
        TsplExecutor {
            core,
            #[cfg(feature = "mcheck")]
            mutate_log_final_after_release: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Arm the deliberate commit-point bug (self-test for the model
    /// checker — see `tests/mcheck.rs`). Never use outside tests.
    #[cfg(feature = "mcheck")]
    pub fn enable_log_final_after_release_mutation(&self) {
        self.mutate_log_final_after_release
            .store(true, std::sync::atomic::Ordering::Relaxed);
    }

    /// Release what [`TxnHandle::take_held`] took out of a handle and
    /// record how long it was held. A handle that held nothing (the
    /// mutation below got there first) releases nothing and records
    /// nothing.
    fn release(&self, txn: TxnId, (held, lock_epoch): (Vec<Key>, Option<Instant>)) {
        if let Some(epoch) = lock_epoch {
            self.core.stats().record_lock_hold(epoch.elapsed());
            self.core.locks().release_all(txn, held.iter());
        }
    }

    /// Mutation self-test (mcheck builds only): when armed, release the
    /// locks *before* the final commit record is appended — deliberately
    /// breaking MS-SR's "log under locks, then release" discipline so a
    /// checker run can prove it would catch such a bug.
    #[cfg(feature = "mcheck")]
    fn maybe_release_before_final_log(&self, handle: &mut TxnHandle) {
        use std::sync::atomic::Ordering;
        if handle.is_final() && self.mutate_log_final_after_release.load(Ordering::Relaxed) {
            self.release(handle.txn(), handle.take_held());
            crate::sched::yield_point("ms_sr.mutated.unlogged-window");
        }
    }

    #[cfg(not(feature = "mcheck"))]
    fn maybe_release_before_final_log(&self, _handle: &mut TxnHandle) {}

    /// Stage 0: lock the initial items, execute, then lock every later
    /// stage's declared items *before* initial commit — the acquisition
    /// order that guarantees later stages cannot abort.
    fn run_initial(
        &self,
        mut handle: TxnHandle,
        rw: &RwSet,
        body: StageBody<'_>,
    ) -> Result<StageOutcome, TxnError> {
        let txn = handle.txn();
        let core = &self.core;
        let started = Instant::now();
        let initial_pairs = rw.lock_pairs();
        if let Err(e) = core.locks().acquire_all(txn, &initial_pairs, None) {
            core.record_abort(txn);
            return Err(TxnError::Aborted(e));
        }
        handle.lock_epoch = Some(Instant::now());
        crate::sched::yield_point("ms_sr.initial.locked");
        let (output, undo) = core
            .execute(&handle, rw, body)
            .inspect_err(|_| core.abort_locked(txn, &initial_pairs))?;

        // Lock the later stages' items *before* initial commit: this is
        // what guarantees the remaining stages cannot abort.
        let later_pairs = std::mem::take(&mut handle.later_pairs);
        if let Err(e) = core.locks().acquire_all(txn, &later_pairs, None) {
            undo.rollback(core.store());
            core.abort_locked(txn, &initial_pairs);
            return Err(TxnError::Aborted(e));
        }
        crate::sched::yield_point("ms_sr.later.locked");

        // MS-SR's durable commit point is *final* commit: log this stage's
        // writes without the commit-point flag, so replay buffers them —
        // the held locks guarantee no other transaction saw them, and a
        // crash before final commit legitimately un-happens the whole txn.
        core.commit_stage(&handle, rw, &undo, started, false, false);

        // Remember everything held, deduplicated, for the final release.
        handle.held = initial_pairs
            .into_iter()
            .chain(later_pairs)
            .map(|(k, _)| k)
            .collect();
        handle.held.sort();
        handle.held.dedup();
        Ok(core.finish(handle, output, started))
    }

    /// Stages `1..`: every lock is already held; execute under them and
    /// release everything at final commit. Errors here are application
    /// bugs — the protocol guarantees commit, so the body must not fail.
    fn run_held(
        &self,
        mut handle: TxnHandle,
        rw: &RwSet,
        body: StageBody<'_>,
    ) -> Result<StageOutcome, TxnError> {
        let txn = handle.txn();
        let core = &self.core;
        let started = Instant::now();
        // The declared sets at begin() are binding under MS-SR: acquiring
        // anything new after initial commit could abort or block, which
        // the guarantee forbids.
        for (key, mode) in rw.lock_pairs() {
            match core.locks().held_mode(txn, &key) {
                Some(LockMode::Exclusive) => {}
                Some(LockMode::Shared) if mode == LockMode::Shared => {}
                held => panic!(
                    "stage {} of {txn} accesses {key} ({mode:?}) but holds {held:?} — \
                     MS-SR requires every stage's items to be declared at begin()",
                    handle.stage()
                ),
            }
        }
        let (output, undo) = core.execute(&handle, rw, body)?;
        self.maybe_release_before_final_log(&mut handle);

        // Final commit is MS-SR's one durable commit point; intermediate
        // stages keep buffering (replay applies everything at the final
        // record).
        core.commit_stage(&handle, rw, &undo, started, handle.is_final(), false);

        // `finish` consumes the handle, and the final commit is recorded
        // while the locks are still held — so take them out first.
        let held = handle.is_final().then(|| handle.take_held());
        let outcome = core.finish(handle, output, started);
        if let Some(held) = held {
            self.release(txn, held);
        }
        Ok(outcome)
    }
}

impl MultiStageProtocol for TsplExecutor {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::MsSr
    }

    fn core(&self) -> &ExecutorCore {
        &self.core
    }

    fn begin(&self, txn: TxnId, stages: &[RwSet]) -> TxnHandle {
        let mut handle = TxnHandle::first(txn, stages.len());
        self.core.note_begin(txn, stages.len());
        let later = stages[1..]
            .iter()
            .fold(RwSet::new(), |acc, rw| acc.union(rw));
        handle.later_pairs = later.lock_pairs();
        handle
    }

    fn run_stage(
        &self,
        handle: TxnHandle,
        rw: &RwSet,
        body: StageBody<'_>,
    ) -> Result<StageOutcome, TxnError> {
        if handle.stage() == 0 {
            self.run_initial(handle, rw, body)
        } else {
            self.run_held(handle, rw, body)
        }
    }

    fn abort(&self, handle: TxnHandle) {
        self.core.abort_handle(&handle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryRecorder;
    use crate::protocol::{MultiStageProtocolExt, StageCtx};
    use croesus_store::{KvStore, LockManager, LockPolicy, Value};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::thread;

    fn executor(policy: LockPolicy) -> TsplExecutor {
        TsplExecutor::from_core(
            ExecutorCore::new(Arc::new(KvStore::new()), Arc::new(LockManager::new(policy)))
                .with_history(HistoryRecorder::new()),
        )
    }

    /// The old `execute` shape, rebuilt on the unified API: both stages
    /// back-to-back with a wait in between.
    fn execute<TI, TF>(
        ex: &TsplExecutor,
        txn: TxnId,
        initial_rw: &RwSet,
        final_rw: &RwSet,
        initial: impl FnOnce(&mut StageCtx) -> Result<TI, TxnError>,
        await_final_input: impl FnOnce(),
        final_section: impl FnOnce(&mut StageCtx) -> Result<TF, TxnError>,
    ) -> Result<(TI, TF), TxnError> {
        let h = ex.begin(txn, &[initial_rw.clone(), final_rw.clone()]);
        let (ti, h) = ex.stage(h, initial_rw, initial)?;
        await_final_input();
        let (tf, done) = ex.stage(h.expect("two stages"), final_rw, final_section)?;
        assert!(done.is_none());
        Ok((ti, tf))
    }

    #[test]
    fn single_transaction_commits_both_sections() {
        let ex = executor(LockPolicy::Block);
        let initial_rw = RwSet::new().read("x");
        let final_rw = RwSet::new().write("x");
        let (i, f) = execute(
            &ex,
            TxnId(1),
            &initial_rw,
            &final_rw,
            |ctx| Ok(ctx.read("x")?.and_then(|v| v.as_int()).unwrap_or(0)),
            || {},
            |ctx| {
                ctx.write("x", 42)?;
                Ok("done")
            },
        )
        .unwrap();
        assert_eq!(i, 0);
        assert_eq!(f, "done");
        assert_eq!(
            ex.store().get(&"x".into()).as_deref(),
            Some(&Value::Int(42))
        );
        assert_eq!(ex.stats().snapshot().commits, 1);
    }

    #[test]
    fn all_locks_released_after_commit() {
        let ex = executor(LockPolicy::NoWait);
        let rw = RwSet::new().write("a").write("b");
        execute(&ex, TxnId(1), &rw, &rw, |_| Ok(()), || {}, |_| Ok(())).unwrap();
        // A second transaction can take everything immediately.
        execute(&ex, TxnId(2), &rw, &rw, |_| Ok(()), || {}, |_| Ok(())).unwrap();
    }

    #[test]
    fn initial_section_error_rolls_back_and_aborts() {
        let ex = executor(LockPolicy::Block);
        let rw = RwSet::new().write("x");
        let r: Result<((), ()), TxnError> = execute(
            &ex,
            TxnId(1),
            &rw,
            &RwSet::new(),
            |ctx| {
                ctx.write("x", 1)?;
                Err(TxnError::Invariant("nope".into()))
            },
            || {},
            |_| Ok(()),
        );
        assert!(r.is_err());
        assert_eq!(ex.store().get(&"x".into()), None, "write rolled back");
        assert_eq!(ex.stats().snapshot().aborts, 1);
        // Locks are free again.
        execute(
            &ex,
            TxnId(2),
            &rw,
            &RwSet::new(),
            |_| Ok(()),
            || {},
            |_| Ok(()),
        )
        .unwrap();
    }

    #[test]
    fn lock_conflict_aborts_under_nowait() {
        let store = Arc::new(KvStore::new());
        let locks = Arc::new(LockManager::new(LockPolicy::NoWait));
        let ex = TsplExecutor::from_core(ExecutorCore::new(Arc::clone(&store), Arc::clone(&locks)));
        // Hold "x" from outside.
        locks
            .lock(TxnId(99), &"x".into(), croesus_store::LockMode::Exclusive)
            .unwrap();
        let rw = RwSet::new().write("x");
        let r: Result<((), ()), _> = execute(
            &ex,
            TxnId(100),
            &rw,
            &RwSet::new(),
            |_| Ok(()),
            || {},
            |_| Ok(()),
        );
        assert!(matches!(r, Err(TxnError::Aborted(_))));
    }

    #[test]
    fn failed_final_lock_acquisition_rolls_back_initial_writes() {
        let store = Arc::new(KvStore::new());
        store.put("y".into(), Value::Int(0));
        let locks = Arc::new(LockManager::new(LockPolicy::NoWait));
        let ex = TsplExecutor::from_core(ExecutorCore::new(Arc::clone(&store), Arc::clone(&locks)));
        // Another holder blocks the *final* set only.
        locks
            .lock(TxnId(1), &"z".into(), croesus_store::LockMode::Exclusive)
            .unwrap();
        let r: Result<((), ()), _> = execute(
            &ex,
            TxnId(2),
            &RwSet::new().write("y"),
            &RwSet::new().write("z"),
            |ctx| {
                ctx.write("y", 7)?;
                Ok(())
            },
            || {},
            |_| Ok(()),
        );
        assert!(r.is_err());
        assert_eq!(
            store.get(&"y".into()).as_deref(),
            Some(&Value::Int(0)),
            "initial write must be undone because initial commit never happened"
        );
    }

    #[test]
    #[should_panic(expected = "declared at begin")]
    fn undeclared_final_access_panics() {
        let ex = executor(LockPolicy::Block);
        let h = ex.begin(TxnId(1), &[RwSet::new(), RwSet::new().write("a")]);
        let (_, h) = ex.stage(h, &RwSet::new(), |_| Ok(())).unwrap();
        // "b" was never declared: acquiring it now could block or abort
        // after initial commit, so TSPL refuses.
        let _ = ex.stage(h.unwrap(), &RwSet::new().write("b"), |_| Ok(()));
    }

    #[test]
    fn conflicting_transactions_serialize_and_satisfy_ms_sr() {
        let history = HistoryRecorder::new();
        let store = Arc::new(KvStore::new());
        store.put("x".into(), Value::Int(0));
        let locks = Arc::new(LockManager::new(LockPolicy::Block));
        let ex = Arc::new(TsplExecutor::from_core(
            ExecutorCore::new(Arc::clone(&store), locks).with_history(history.clone()),
        ));
        // The §4.2 increment anomaly: read x in initial, write x+1 in final.
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let ex = Arc::clone(&ex);
                thread::spawn(move || {
                    let initial_rw = RwSet::new().read("x").write("x");
                    let final_rw = RwSet::new().write("x");
                    execute(
                        &ex,
                        TxnId(i),
                        &initial_rw,
                        &final_rw,
                        |ctx| Ok(ctx.read("x")?.and_then(|v| v.as_int()).unwrap_or(0)),
                        || thread::sleep(std::time::Duration::from_millis(5)),
                        |ctx| {
                            // Re-read inside the final section: locks are
                            // still held so this is the same value.
                            let v = ctx.read("x")?.and_then(|v| v.as_int()).unwrap_or(0);
                            ctx.write("x", v + 1)
                        },
                    )
                    .unwrap();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // No lost updates: x incremented once per transaction.
        assert_eq!(store.get(&"x".into()).as_deref(), Some(&Value::Int(4)));
        let checker = history.checker();
        checker
            .check_ms_sr()
            .expect("TSPL history must satisfy MS-SR");
    }

    #[test]
    fn lock_hold_time_covers_the_final_wait() {
        let ex = executor(LockPolicy::Block);
        let rw = RwSet::new().write("x");
        execute(
            &ex,
            TxnId(1),
            &rw,
            &rw,
            |_| Ok(()),
            || thread::sleep(std::time::Duration::from_millis(25)),
            |_| Ok(()),
        )
        .unwrap();
        let snap = ex.stats().snapshot();
        assert!(
            snap.avg_lock_hold_ms >= 25.0,
            "hold {} must include the cloud wait",
            snap.avg_lock_hold_ms
        );
    }

    #[test]
    fn wait_die_aborts_on_hot_spot_and_retry_succeeds() {
        let store = Arc::new(KvStore::new());
        let locks = Arc::new(LockManager::new(LockPolicy::WaitDie));
        let ex = Arc::new(TsplExecutor::from_core(ExecutorCore::new(
            store,
            Arc::clone(&locks),
        )));
        let committed = Arc::new(AtomicU64::new(0));
        let rw = RwSet::new().write("hot");
        let threads: Vec<_> = (0..6)
            .map(|i| {
                let ex = Arc::clone(&ex);
                let committed = Arc::clone(&committed);
                let rw = rw.clone();
                thread::spawn(move || loop {
                    let r: Result<((), ()), _> = execute(
                        &ex,
                        TxnId(i),
                        &rw,
                        &RwSet::new(),
                        |_| Ok(()),
                        || thread::sleep(std::time::Duration::from_micros(200)),
                        |_| Ok(()),
                    );
                    if r.is_ok() {
                        committed.fetch_add(1, Ordering::SeqCst);
                        break;
                    }
                    thread::yield_now();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(committed.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn three_stage_tspl_holds_everything_to_the_end() {
        let store = Arc::new(KvStore::new());
        let locks = Arc::new(LockManager::new(LockPolicy::NoWait));
        let ex = TsplExecutor::from_core(ExecutorCore::new(Arc::clone(&store), Arc::clone(&locks)));
        let a = RwSet::new().write("a");
        let b = RwSet::new().write("b");
        let c = RwSet::new().write("c");
        let h = ex.begin(TxnId(1), &[a.clone(), b.clone(), c.clone()]);
        let (_, h) = ex.stage(h, &a, |ctx| ctx.write("a", 1)).unwrap();
        // All three keys are locked already — even "c", two stages ahead.
        assert!(locks
            .lock(TxnId(2), &"c".into(), croesus_store::LockMode::Exclusive)
            .is_err());
        let (_, h) = ex.stage(h.unwrap(), &b, |ctx| ctx.write("b", 2)).unwrap();
        let (_, done) = ex.stage(h.unwrap(), &c, |ctx| ctx.write("c", 3)).unwrap();
        assert!(done.is_none());
        // Released only now.
        assert!(locks
            .lock(TxnId(2), &"c".into(), croesus_store::LockMode::Exclusive)
            .is_ok());
        assert_eq!(ex.stats().snapshot().commits, 1);
    }

    #[test]
    fn aborted_txn_id_can_begin_again() {
        let locks = Arc::new(LockManager::new(LockPolicy::NoWait));
        let ex = TsplExecutor::from_core(ExecutorCore::new(
            Arc::new(KvStore::new()),
            Arc::clone(&locks),
        ));
        let rw = RwSet::new().write("x");
        let stages = [rw.clone(), RwSet::new().write("y")];
        ex.abort(ex.begin(TxnId(1), &stages));
        assert_eq!(locks.locked_keys(), 0, "an unrun handle holds nothing");
        // The first incarnation left nothing behind for the second to trip on.
        let h = ex.begin(TxnId(1), &stages);
        let (_, h) = ex.stage(h, &rw, |ctx| ctx.write("x", 1)).unwrap();
        assert_eq!(locks.locked_keys(), 2);
        ex.stage(h.unwrap(), &stages[1], |ctx| ctx.write("y", 2))
            .unwrap();
        assert_eq!(locks.locked_keys(), 0);
        let snap = ex.stats().snapshot();
        assert_eq!((snap.begun, snap.commits, snap.aborts), (2, 1, 1));
    }

    #[test]
    fn the_handle_carries_what_is_held_and_releases_it_once() {
        let locks = Arc::new(LockManager::new(LockPolicy::NoWait));
        let ex = TsplExecutor::from_core(ExecutorCore::new(
            Arc::new(KvStore::new()),
            Arc::clone(&locks),
        ));
        // "a" is declared by two stages: held once, released once.
        let stages = [
            RwSet::new().write("a"),
            RwSet::new().read("a").write("b"),
            RwSet::new().write("c"),
        ];
        let h = ex.begin(TxnId(1), &stages);
        assert_eq!(h.later_pairs.len(), 3);
        assert!(h.held.is_empty() && h.lock_epoch.is_none());
        let (_, h) = ex.stage(h, &stages[0], |ctx| ctx.write("a", 1)).unwrap();
        let h = h.unwrap();
        assert_eq!(locks.locked_keys(), 3);
        assert_eq!(h.held, ["a".into(), "b".into(), "c".into()]);
        assert!(h.later_pairs.is_empty() && h.lock_epoch.is_some());
        let (_, h) = ex.stage(h, &stages[1], |ctx| ctx.write("b", 2)).unwrap();
        let h = h.unwrap();
        assert_eq!(locks.locked_keys(), 3, "stage 1 releases nothing");
        assert_eq!(h.held.len(), 3);
        thread::sleep(std::time::Duration::from_millis(2));
        let (_, done) = ex.stage(h, &stages[2], |ctx| ctx.write("c", 3)).unwrap();
        assert!(done.is_none());
        assert_eq!(locks.locked_keys(), 0);
        // One sample on a fresh collector: the mean is the max.
        let snap = ex.stats().snapshot();
        assert!(snap.max_lock_hold_ms > 0.0);
        assert_eq!(snap.avg_lock_hold_ms, snap.max_lock_hold_ms);
    }
}
