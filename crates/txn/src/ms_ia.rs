//! MS-IA: Multi-Stage Invariant Confluence with Apologies — Algorithm 2.
//!
//! ```text
//! items ← get_rwsets(tᵢ)
//! if acquirelocks(items): execute(tᵢ)
//! Initial Commit
//! releaselocks(get_rwsets(tᵢ))          // ← locks released *here*
//! items ← get_rwsets(t_f)
//! if acquirelocks(items): execute(t_f) else abort
//! Final Commit
//! releaselocks(get_rwsets(t_f))
//! ```
//!
//! Unlike TSPL, "we did not hold the locks for the initial section until the
//! end of the final section and we reach the point of initial-commit
//! immediately after processing the initial section" (§4.4). The price is
//! that the final section must reconcile errors itself — it runs as a guess
//! → apology pair, with [`crate::apology::ApologyManager`] providing
//! retraction (via [`crate::StageCtx::retract_self`]) when the guess cannot
//! be merged.
//!
//! The schedule is [`ProtocolKind::MsIa`](crate::ProtocolKind::MsIa)'s arm
//! of [`Executor::run_stage`](crate::Executor::run_stage): the lock-release
//! discipline it shares with the staged protocol, with the final
//! section's footprint left unregistered — the final section is the
//! reconciliation itself and is never retracted. All the lock / undo /
//! history / stats plumbing lives in the shared
//! [`ExecutorCore`](crate::ExecutorCore).
//!
//! ```
//! use std::sync::Arc;
//! use croesus_store::{KvStore, LockManager, LockPolicy, TxnId, Value};
//! use croesus_txn::{ExecutorCore, ProtocolKind, RwSet};
//!
//! let ex = ProtocolKind::MsIa.build(ExecutorCore::new(
//!     Arc::new(KvStore::new()),
//!     Arc::new(LockManager::new(LockPolicy::Block)),
//! ));
//! let rw = RwSet::new().write("x");
//! // The guess: commits and releases its locks immediately.
//! let h = ex.begin(TxnId(1), &[rw.clone(), rw.clone()]);
//! let (_, h) = ex.stage(h, &rw, |ctx| ctx.write("x", 1)).unwrap();
//! // Later, when the cloud labels arrive, the final section reconciles.
//! ex.stage(h.unwrap(), &rw, |ctx| ctx.write("x", 2)).unwrap();
//! assert_eq!(ex.store().get(&"x".into()).as_deref(), Some(&Value::Int(2)));
//! ```

#[cfg(test)]
mod tests {
    use crate::history::HistoryRecorder;
    use crate::model::{RwSet, TxnError};
    use crate::protocol::{Executor, ExecutorCore, ProtocolKind};
    use croesus_store::{KvStore, LockManager, LockPolicy, TxnId, Value};
    use std::sync::Arc;
    use std::thread;

    fn executor(policy: LockPolicy) -> Executor {
        ProtocolKind::MsIa.build(
            ExecutorCore::new(Arc::new(KvStore::new()), Arc::new(LockManager::new(policy)))
                .with_history(HistoryRecorder::new()),
        )
    }

    #[test]
    fn initial_then_final_commits() {
        let ex = executor(LockPolicy::Block);
        let rw = RwSet::new().write("x");
        let h = ex.begin(TxnId(1), &[rw.clone(), rw.clone()]);
        let (_, h) = ex.stage(h, &rw, |ctx| ctx.write("x", 1)).unwrap();
        assert_eq!(ex.store().get(&"x".into()).as_deref(), Some(&Value::Int(1)));
        ex.stage(h.unwrap(), &rw, |ctx| ctx.write("x", 2)).unwrap();
        assert_eq!(ex.store().get(&"x".into()).as_deref(), Some(&Value::Int(2)));
        assert_eq!(ex.stats().snapshot().commits, 1);
    }

    #[test]
    fn initial_effects_visible_before_final() {
        // The key MS-IA behaviour: another transaction can read t1's
        // initial write before t1's final section runs.
        let ex = executor(LockPolicy::Block);
        let w = RwSet::new().write("shared");
        let r = RwSet::new().read("shared");
        let h1 = ex.begin(TxnId(1), &[w.clone(), RwSet::new()]);
        let (_, p1) = ex.stage(h1, &w, |ctx| ctx.write("shared", 10)).unwrap();
        let h2 = ex.begin(TxnId(2), &[r.clone(), RwSet::new()]);
        let (seen, p2) = ex
            .stage(h2, &r, |ctx| {
                Ok(ctx.read("shared")?.and_then(|v| v.as_int()))
            })
            .unwrap();
        assert_eq!(seen, Some(10), "t2 observed t1's initial effects");
        ex.stage(p1.unwrap(), &RwSet::new(), |_| Ok(())).unwrap();
        ex.stage(p2.unwrap(), &RwSet::new(), |_| Ok(())).unwrap();
    }

    #[test]
    fn locks_released_after_initial() {
        let store = Arc::new(KvStore::new());
        let locks = Arc::new(LockManager::new(LockPolicy::NoWait));
        let ex =
            ProtocolKind::MsIa.build(ExecutorCore::new(Arc::clone(&store), Arc::clone(&locks)));
        let rw = RwSet::new().write("x");
        let h = ex.begin(TxnId(1), &[rw.clone(), rw.clone()]);
        let (_, _pending) = ex.stage(h, &rw, |ctx| ctx.write("x", 1)).unwrap();
        // Immediately lockable by someone else — unlike TSPL.
        assert!(locks
            .lock(TxnId(2), &"x".into(), croesus_store::LockMode::Exclusive)
            .is_ok());
    }

    #[test]
    fn aborted_initial_rolls_back() {
        let ex = executor(LockPolicy::Block);
        let rw = RwSet::new().write("x");
        let h = ex.begin(TxnId(1), &[rw.clone(), rw.clone()]);
        let r = ex.stage(h, &rw, |ctx| {
            ctx.write("x", 1)?;
            Err::<(), _>(TxnError::Invariant("bad trigger".into()))
        });
        assert!(r.is_err());
        assert_eq!(ex.store().get(&"x".into()), None);
        assert_eq!(ex.stats().snapshot().aborts, 1);
    }

    #[test]
    fn final_section_can_retract_self() {
        let ex = executor(LockPolicy::Block);
        let store = Arc::clone(ex.store());
        store.put("room".into(), Value::Str("free".into()));
        let rw = RwSet::new().write("room");
        let h = ex.begin(TxnId(1), &[rw.clone(), RwSet::new()]);
        let (_, h) = ex
            .stage(h, &rw, |ctx| ctx.write("room", "reserved-by-1"))
            .unwrap();
        let (report, _) = ex
            .stage(h.unwrap(), &RwSet::new(), |ctx| {
                Ok(ctx.retract_self("wrong building detected"))
            })
            .unwrap();
        assert_eq!(report.retracted, vec![TxnId(1)]);
        assert_eq!(
            store.get(&"room".into()).as_deref(),
            Some(&Value::Str("free".into()))
        );
        assert_eq!(ex.apologies().apologies().len(), 1);
    }

    #[test]
    fn retraction_cascades_across_transactions() {
        let ex = executor(LockPolicy::Block);
        // t1 guesses; t2 reads t1's output in its initial section.
        let rw1 = RwSet::new().write("b");
        let h1 = ex.begin(TxnId(1), &[rw1.clone(), RwSet::new()]);
        let (_, p1) = ex.stage(h1, &rw1, |ctx| ctx.write("b", 50)).unwrap();
        let rw2 = RwSet::new().read("b").write("c");
        let h2 = ex.begin(TxnId(2), &[rw2.clone(), RwSet::new()]);
        let (_, p2) = ex
            .stage(h2, &rw2, |ctx| {
                let b = ctx.read("b")?.and_then(|v| v.as_int()).unwrap_or(0);
                ctx.write("c", b)
            })
            .unwrap();
        // t2 finalizes cleanly first (its input was correct).
        ex.stage(p2.unwrap(), &RwSet::new(), |_| Ok(())).unwrap();
        // t1's final discovers the error and retracts: cascade takes t2.
        let (report, _) = ex
            .stage(p1.unwrap(), &RwSet::new(), |ctx| {
                Ok(ctx.retract_self("wrong player"))
            })
            .unwrap();
        assert_eq!(report.retracted, vec![TxnId(2), TxnId(1)]);
        assert!(!ex.store().contains(&"b".into()));
        assert!(!ex.store().contains(&"c".into()));
    }

    #[test]
    fn history_satisfies_ms_ia_but_interleaving_breaks_ms_sr() {
        let history = HistoryRecorder::new();
        let ex = ProtocolKind::MsIa.build(
            ExecutorCore::new(
                Arc::new(KvStore::new()),
                Arc::new(LockManager::new(LockPolicy::Block)),
            )
            .with_history(history.clone()),
        );
        ex.store().put("x".into(), Value::Int(0));
        // The §4.2 anomaly under MS-IA: i1 i2 f1 f2 on the same key.
        let rw = RwSet::new().read("x").write("x");
        let rwf = RwSet::new().write("x");
        let h1 = ex.begin(TxnId(1), &[rw.clone(), rwf.clone()]);
        let (v1, p1) = ex
            .stage(h1, &rw, |ctx| {
                Ok(ctx.read("x")?.and_then(|v| v.as_int()).unwrap_or(0))
            })
            .unwrap();
        let h2 = ex.begin(TxnId(2), &[rw.clone(), rwf.clone()]);
        let (v2, p2) = ex
            .stage(h2, &rw, |ctx| {
                Ok(ctx.read("x")?.and_then(|v| v.as_int()).unwrap_or(0))
            })
            .unwrap();
        ex.stage(p1.unwrap(), &rwf, |ctx| ctx.write("x", v1 + 1))
            .unwrap();
        ex.stage(p2.unwrap(), &rwf, |ctx| ctx.write("x", v2 + 1))
            .unwrap();
        // Lost update happened (both read 0): that is exactly the anomaly
        // MS-IA permits and MS-SR forbids.
        assert_eq!(ex.store().get(&"x".into()).as_deref(), Some(&Value::Int(1)));
        let checker = history.checker();
        assert!(checker.check_ms_ia(&[]).is_ok());
        assert!(checker.check_ms_sr().is_err());
    }

    #[test]
    fn concurrent_ms_ia_transactions_all_commit() {
        let ex = Arc::new(executor(LockPolicy::WaitDie));
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let ex = Arc::clone(&ex);
                thread::spawn(move || {
                    let rw = RwSet::new().write("hot");
                    // Retry initial on wait-die kills with the same id.
                    let pending = loop {
                        let h = ex.begin(TxnId(i), &[rw.clone(), rw.clone()]);
                        match ex.stage(h, &rw, |ctx| ctx.write("hot", i as i64)) {
                            Ok((_, p)) => break p.unwrap(),
                            Err(_) => thread::yield_now(),
                        }
                    };
                    ex.stage(pending, &rw, |ctx| ctx.write("hot", 100 + i as i64))
                        .unwrap();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ex.stats().snapshot().commits, 8);
        let checker = ex.history().unwrap().checker();
        checker.check_ms_ia(&[]).unwrap();
    }

    #[test]
    fn ms_ia_lock_hold_is_short_even_with_slow_cloud() {
        // The Fig 6a contrast: the "cloud wait" happens *between* stages,
        // while no locks are held.
        let ex = executor(LockPolicy::Block);
        let rw = RwSet::new().write("x");
        let h = ex.begin(TxnId(1), &[rw.clone(), rw.clone()]);
        let (_, pending) = ex.stage(h, &rw, |ctx| ctx.write("x", 1)).unwrap();
        thread::sleep(std::time::Duration::from_millis(30)); // cloud round trip
        ex.stage(pending.unwrap(), &rw, |ctx| ctx.write("x", 2))
            .unwrap();
        let snap = ex.stats().snapshot();
        assert!(
            snap.avg_lock_hold_ms < 10.0,
            "MS-IA holds locks only during sections, got {}",
            snap.avg_lock_hold_ms
        );
    }
}
