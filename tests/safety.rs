//! Safety integration tests: the recorded histories of concurrent MS-SR and
//! MS-IA executions must satisfy their respective §4 ordering conditions.
//! Both protocols are driven through the unified `Executor` API.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use croesus::store::{KvStore, LockManager, LockPolicy, TxnId, Value};
use croesus::txn::{Executor, ExecutorCore, HistoryRecorder, ProtocolKind, RwSet, Sequencer};

fn protocol(
    kind: ProtocolKind,
    store: &Arc<KvStore>,
    policy: LockPolicy,
    history: &HistoryRecorder,
) -> Arc<Executor> {
    Arc::new(
        kind.build(
            ExecutorCore::new(Arc::clone(store), Arc::new(LockManager::new(policy)))
                .with_history(history.clone()),
        ),
    )
}

/// Run `n` concurrent increment transactions (read x initially, write x+1
/// finally — the §4.2 anomaly workload) under TSPL.
fn run_tspl_increments(n: u64, threads: usize) -> (Arc<KvStore>, HistoryRecorder) {
    let history = HistoryRecorder::new();
    let store = Arc::new(KvStore::new());
    store.put("x".into(), Value::Int(0));
    let executor = protocol(ProtocolKind::MsSr, &store, LockPolicy::WaitDie, &history);
    let per = n / threads as u64;
    let handles: Vec<_> = (0..threads as u64)
        .map(|t| {
            let executor = Arc::clone(&executor);
            thread::spawn(move || {
                for i in 0..per {
                    let id = TxnId(t * per + i);
                    let rw = RwSet::new().read("x").write("x");
                    loop {
                        let h = executor.begin(id, &[rw.clone(), rw.clone()]);
                        let initial = executor.stage(h, &rw, |ctx| {
                            Ok(ctx.read("x")?.and_then(|v| v.as_int()).unwrap_or(0))
                        });
                        let Ok((_, pending)) = initial else {
                            thread::yield_now();
                            continue;
                        };
                        thread::sleep(Duration::from_micros(100)); // cloud wait, locks held
                        executor
                            .stage(pending.expect("two stages"), &rw, |ctx| {
                                let v = ctx.read("x")?.and_then(|v| v.as_int()).unwrap_or(0);
                                ctx.write("x", v + 1)
                            })
                            .expect("final stages cannot abort");
                        break;
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    (store, history)
}

#[test]
fn tspl_history_satisfies_ms_sr_and_loses_no_updates() {
    let (store, history) = run_tspl_increments(24, 4);
    // MS-SR forbids the lost-update anomaly: x counts every increment.
    assert_eq!(store.get(&"x".into()).as_deref(), Some(&Value::Int(24)));
    let checker = history.checker();
    checker.check_ms_sr().expect("TSPL must satisfy MS-SR");
    checker
        .check_section_serializability()
        .expect("sections must serialize");
    assert_eq!(checker.committed_txns().len(), 24);
}

#[test]
fn ms_ia_concurrent_history_satisfies_ms_ia() {
    let history = HistoryRecorder::new();
    let store = Arc::new(KvStore::new());
    let executor = protocol(ProtocolKind::MsIa, &store, LockPolicy::WaitDie, &history);
    let handles: Vec<_> = (0..6u64)
        .map(|t| {
            let executor = Arc::clone(&executor);
            thread::spawn(move || {
                let rw = RwSet::new().read("hot").write("hot");
                let pending = loop {
                    let h = executor.begin(TxnId(t), &[rw.clone(), rw.clone()]);
                    match executor.stage(h, &rw, |ctx| {
                        let v = ctx.read("hot")?.and_then(|v| v.as_int()).unwrap_or(0);
                        ctx.write("hot", v + 1)
                    }) {
                        Ok((_, p)) => break p.expect("two stages"),
                        Err(_) => thread::yield_now(),
                    }
                };
                thread::sleep(Duration::from_micros(200)); // cloud wait, no locks
                executor
                    .stage(pending, &rw, |ctx| {
                        let v = ctx.read("hot")?.and_then(|v| v.as_int()).unwrap_or(0);
                        ctx.write("hot", v)
                    })
                    .unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let checker = history.checker();
    checker.check_ms_ia(&[]).expect("MS-IA ordering must hold");
    assert_eq!(checker.committed_txns().len(), 6);
    // Because initial sections hold their locks while incrementing, the
    // counter itself is exact even under MS-IA.
    assert_eq!(store.get(&"hot".into()).as_deref(), Some(&Value::Int(6)));
}

#[test]
fn sequenced_ms_ia_batches_preserve_exactness() {
    // The paper's sequencer configuration: order a batch so conflicting
    // transactions never overlap; the result equals serial execution.
    let store = Arc::new(KvStore::new());
    let history = HistoryRecorder::new();
    let executor = protocol(ProtocolKind::MsIa, &store, LockPolicy::Block, &history);
    store.put("acc".into(), Value::Int(0));
    let sets: Vec<RwSet> = (0..20)
        .map(|i| {
            if i % 2 == 0 {
                RwSet::new().read("acc").write("acc")
            } else {
                RwSet::new().write(format!("private/{i}").as_str())
            }
        })
        .collect();
    let mut pendings = Vec::new();
    for idx in Sequencer::waves(&sets).into_iter().flatten() {
        let rw = &sets[idx];
        let h = executor.begin(TxnId(idx as u64), &[rw.clone(), RwSet::new()]);
        let (_, p) = executor
            .stage(h, rw, |ctx| {
                if idx % 2 == 0 {
                    let v = ctx.read("acc")?.and_then(|v| v.as_int()).unwrap_or(0);
                    ctx.write("acc", v + 1)?;
                } else {
                    ctx.write(format!("private/{idx}").as_str(), idx as i64)?;
                }
                Ok(())
            })
            .unwrap();
        pendings.push(p.expect("two stages"));
    }
    for p in pendings {
        executor.stage(p, &RwSet::new(), |_| Ok(())).unwrap();
    }
    assert_eq!(store.get(&"acc".into()).as_deref(), Some(&Value::Int(10)));
    assert_eq!(
        executor.stats().snapshot().aborts,
        0,
        "sequenced = 0 aborts"
    );
}

#[test]
fn retraction_cascade_is_consistent_under_interleaving() {
    // t1 guesses; t2 builds on it; t3 is unrelated. After t1 retracts,
    // exactly t1 and t2 are gone and t3 survives.
    let store = Arc::new(KvStore::new());
    let history = HistoryRecorder::new();
    let executor = protocol(ProtocolKind::MsIa, &store, LockPolicy::Block, &history);
    let two = |rw: &RwSet| [rw.clone(), RwSet::new()];
    let rw1 = RwSet::new().write("guess");
    let h1 = executor.begin(TxnId(1), &two(&rw1));
    let (_, p1) = executor
        .stage(h1, &rw1, |ctx| ctx.write("guess", 100))
        .unwrap();
    let rw2 = RwSet::new().read("guess").write("derived");
    let h2 = executor.begin(TxnId(2), &two(&rw2));
    let (_, p2) = executor
        .stage(h2, &rw2, |ctx| {
            let g = ctx.read("guess")?.and_then(|v| v.as_int()).unwrap_or(0);
            ctx.write("derived", g * 2)
        })
        .unwrap();
    let rw3 = RwSet::new().write("elsewhere");
    let h3 = executor.begin(TxnId(3), &two(&rw3));
    let (_, p3) = executor
        .stage(h3, &rw3, |ctx| ctx.write("elsewhere", 7))
        .unwrap();
    executor
        .stage(p2.unwrap(), &RwSet::new(), |_| Ok(()))
        .unwrap();
    executor
        .stage(p3.unwrap(), &RwSet::new(), |_| Ok(()))
        .unwrap();
    let (report, _) = executor
        .stage(p1.unwrap(), &RwSet::new(), |ctx| {
            Ok(ctx.retract_self("trigger was wrong"))
        })
        .unwrap();
    assert_eq!(report.retracted, vec![TxnId(2), TxnId(1)]);
    assert!(!store.contains(&"guess".into()));
    assert!(!store.contains(&"derived".into()));
    assert_eq!(
        store.get(&"elsewhere".into()).as_deref(),
        Some(&Value::Int(7))
    );
    assert_eq!(executor.apologies().apologies().len(), 2);
}
