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
//! Under [`Executor::run_stage`](crate::Executor::run_stage) the caller
//! waits for the final input *between* `run_stage` calls; TSPL simply
//! keeps all locks held across that gap (that is the point). Because
//! later stages must not acquire anything new after initial commit, every
//! stage's read/write set must be covered by the sets declared at
//! [`begin`](crate::Executor::begin).
//!
//! The schedule is stateless: what a transaction will lock (the later
//! stages' pairs, until the end of stage 0) and what it holds (keys and
//! lock epoch, from there to final commit) ride in its [`TxnHandle`]. A
//! stage is the shared lifecycle of [`ExecutorCore`] (`execute`,
//! `commit_stage`, `finish`); this file holds only Algorithm 1's part:
//! which locks are taken before the body, which after it, that only final
//! commit is a commit point, and that nothing is released before it.

use std::time::Instant;

use croesus_store::{Key, LockManager, LockMode, LockPlan, TxnId};

use crate::model::{RwSet, TxnError};
use crate::protocol::{ExecutorCore, StageBody, StageOutcome, TxnHandle};

/// The lock plan of every stage after the first, taken (and then held)
/// at the end of stage 0. It owns its keys: the handle carries it from
/// `begin` to the end of stage 0.
pub(crate) fn later_plan(locks: &LockManager, later: &[RwSet]) -> LockPlan<Key> {
    locks.plan(
        later
            .iter()
            .flat_map(RwSet::lock_requests)
            .map(|(key, mode)| (key.clone(), mode)),
    )
}

/// Release what [`TxnHandle::take_held`] took out of a handle and record
/// how long it was held. A handle that held nothing (the mutation in
/// [`run_held`] got there first) releases nothing and records nothing.
fn release(core: &ExecutorCore, txn: TxnId, (held, lock_epoch): (LockPlan<Key>, Option<Instant>)) {
    if let Some(epoch) = lock_epoch {
        core.stats().record_lock_hold(epoch.elapsed());
        core.locks().release_plan(txn, &held);
    }
}

/// Stage 0: lock the initial items, execute, then lock every later
/// stage's declared items *before* initial commit — the acquisition
/// order that guarantees later stages cannot abort.
pub(crate) fn run_initial(
    core: &ExecutorCore,
    mut handle: TxnHandle,
    rw: &RwSet,
    body: StageBody<'_>,
) -> Result<StageOutcome, TxnError> {
    let txn = handle.txn();
    let mut initial = core.locks().plan(rw.lock_requests());
    if let Err(e) = core.locks().acquire_plan(txn, &mut initial, None) {
        core.record_abort(txn);
        return Err(TxnError::Aborted(e));
    }
    handle.lock_epoch = Some(Instant::now());
    crate::sched::yield_point("ms_sr.initial.locked");
    let (output, undo) = core
        .execute(&handle, rw, body)
        .inspect_err(|_| core.abort_locked(txn, &initial))?;

    // Lock the later stages' items *before* initial commit: this is
    // what guarantees the remaining stages cannot abort.
    let mut later = std::mem::take(&mut handle.later);
    if let Err(e) = core.locks().acquire_plan(txn, &mut later, None) {
        undo.rollback(core.store());
        core.abort_locked(txn, &initial);
        return Err(TxnError::Aborted(e));
    }
    crate::sched::yield_point("ms_sr.later.locked");

    // MS-SR's durable commit point is *final* commit: log this stage's
    // writes without the commit-point flag, so replay buffers them —
    // the held locks guarantee no other transaction saw them, and a
    // crash before final commit legitimately un-happens the whole txn.
    core.commit_stage(&handle, rw, &undo, false, false);

    // Everything held, as one plan, for the final release.
    let everything = later.iter().chain(initial.iter());
    handle.held = core
        .locks()
        .plan(everything.map(|(key, mode)| (key.clone(), mode)));
    Ok(core.finish(handle, output))
}

/// Stages `1..`: every lock is already held; execute under them and
/// release everything at final commit. Errors here are application
/// bugs — the protocol guarantees commit, so the body must not fail.
///
/// `release_before_log` is the mcheck mutation self-test (always `false`
/// otherwise): the final stage releases its locks *before* its commit
/// record is appended — deliberately breaking "log under locks, then
/// release" so a checker run can prove it would catch such a bug.
pub(crate) fn run_held(
    core: &ExecutorCore,
    mut handle: TxnHandle,
    rw: &RwSet,
    body: StageBody<'_>,
    release_before_log: bool,
) -> Result<StageOutcome, TxnError> {
    let txn = handle.txn();
    // The declared sets at begin() are binding under MS-SR: acquiring
    // anything new after initial commit could abort or block, which
    // the guarantee forbids.
    for (key, mode) in rw.lock_requests() {
        match handle.held.mode_of(key) {
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
    if release_before_log && handle.is_final() {
        release(core, txn, handle.take_held());
        crate::sched::yield_point("ms_sr.mutated.unlogged-window");
    }

    // Final commit is MS-SR's one durable commit point; intermediate
    // stages keep buffering (replay applies everything at the final
    // record).
    core.commit_stage(&handle, rw, &undo, handle.is_final(), false);

    // `finish` consumes the handle, and the final commit is recorded
    // while the locks are still held — so take them out first.
    let held = handle.is_final().then(|| handle.take_held());
    let outcome = core.finish(handle, output);
    if let Some(held) = held {
        release(core, txn, held);
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryRecorder;
    use crate::protocol::{Executor, ProtocolKind, StageCtx};
    use croesus_store::{KvStore, LockManager, LockPolicy, Value};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::thread;

    fn executor(policy: LockPolicy) -> Executor {
        ProtocolKind::MsSr.build(
            ExecutorCore::new(Arc::new(KvStore::new()), Arc::new(LockManager::new(policy)))
                .with_history(HistoryRecorder::new()),
        )
    }

    /// The old `execute` shape, rebuilt on the unified API: both stages
    /// back-to-back with a wait in between.
    fn execute<TI, TF>(
        ex: &Executor,
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
        let ex =
            ProtocolKind::MsSr.build(ExecutorCore::new(Arc::clone(&store), Arc::clone(&locks)));
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
        let ex =
            ProtocolKind::MsSr.build(ExecutorCore::new(Arc::clone(&store), Arc::clone(&locks)));
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
        let ex = Arc::new(
            ProtocolKind::MsSr
                .build(ExecutorCore::new(Arc::clone(&store), locks).with_history(history.clone())),
        );
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
        let ex = Arc::new(ProtocolKind::MsSr.build(ExecutorCore::new(store, Arc::clone(&locks))));
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
        let ex =
            ProtocolKind::MsSr.build(ExecutorCore::new(Arc::clone(&store), Arc::clone(&locks)));
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
        let ex = ProtocolKind::MsSr.build(ExecutorCore::new(
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
        let ex = ProtocolKind::MsSr.build(ExecutorCore::new(
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
        assert_eq!(h.later.len(), 3);
        assert!(h.held.is_empty() && h.lock_epoch.is_none());
        let (_, h) = ex.stage(h, &stages[0], |ctx| ctx.write("a", 1)).unwrap();
        let h = h.unwrap();
        assert_eq!(locks.locked_keys(), 3);
        let mut held: Vec<(&str, LockMode)> = h.held.iter().map(|(k, m)| (k.as_str(), m)).collect();
        held.sort_by_key(|&(k, _)| k);
        let exclusive = LockMode::Exclusive;
        assert_eq!(held, [("a", exclusive), ("b", exclusive), ("c", exclusive)]);
        assert!(h.later.is_empty() && h.lock_epoch.is_some());
        let (_, h) = ex.stage(h, &stages[1], |ctx| ctx.write("b", 2)).unwrap();
        let h = h.unwrap();
        assert_eq!(locks.locked_keys(), 3, "stage 1 releases nothing");
        assert_eq!(h.held.len(), 3);
        thread::sleep(std::time::Duration::from_millis(2));
        let (_, done) = ex.stage(h, &stages[2], |ctx| ctx.write("c", 3)).unwrap();
        assert!(done.is_none());
        assert_eq!(locks.locked_keys(), 0);
        // One hold spans the 2 ms sleep between stages 1 and 2: a hold
        // recorded per stage would average below it.
        let snap = ex.stats().snapshot();
        assert!(snap.avg_lock_hold_ms >= 2.0, "{}", snap.avg_lock_hold_ms);
    }
}
