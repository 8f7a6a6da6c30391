//! Protocol conformance suite: one shared scenario set executed against
//! all three protocols through one `Executor`.
//!
//! The paper's claim is that MS-SR, MS-IA and the generalized staged
//! discipline are *one* transaction model under interchangeable
//! consistency protocols. These tests pin that down: wherever the paper
//! requires identical outcomes (serial execution, aborts before initial
//! commit, atomicity of rollback, multi-partition footprints), every
//! protocol must produce the same store state — and where the protocols
//! are *defined* to differ (lock-release discipline), the difference is
//! asserted per [`ProtocolKind`].

use std::sync::Arc;

use croesus::store::{Key, KvStore, LockManager, LockMode, LockPolicy, PartitionMap, TxnId, Value};
use croesus::txn::{Executor, ExecutorCore, HistoryRecorder, ProtocolKind, RwSet, TxnError};

struct Harness {
    kind: ProtocolKind,
    store: Arc<KvStore>,
    locks: Arc<LockManager>,
    protocol: Executor,
}

fn harness(kind: ProtocolKind, policy: LockPolicy) -> Harness {
    let store = Arc::new(KvStore::new());
    let locks = Arc::new(LockManager::new(policy));
    let protocol = kind.build(
        ExecutorCore::new(Arc::clone(&store), Arc::clone(&locks))
            .with_history(HistoryRecorder::new()),
    );
    Harness {
        kind,
        store,
        locks,
        protocol,
    }
}

fn all(policy: LockPolicy) -> Vec<Harness> {
    ProtocolKind::ALL
        .into_iter()
        .map(|k| harness(k, policy))
        .collect()
}

/// Deterministic single-threaded scenarios cannot interleave, so the
/// paper requires every protocol to leave the same state behind.
fn assert_same_states(harnesses: &[Harness], keys: &[&str]) {
    for key in keys {
        let reference = harnesses[0].store.get(&Key::new(key));
        for h in &harnesses[1..] {
            assert_eq!(
                h.store.get(&Key::new(key)),
                reference,
                "{}: state of {key} diverges from {}",
                h.kind,
                harnesses[0].kind
            );
        }
    }
}

#[test]
fn commit_scenario_produces_identical_state() {
    let harnesses = all(LockPolicy::Block);
    for h in &harnesses {
        let rw_i = RwSet::new().write("balance").write("log");
        let rw_f = RwSet::new().write("balance");
        let t = h.protocol.begin(TxnId(1), &[rw_i.clone(), rw_f.clone()]);
        let (_, t) = h
            .protocol
            .stage(t, &rw_i, |ctx| {
                ctx.write("balance", 100)?;
                ctx.write("log", "initial")
            })
            .unwrap();
        let (_, done) = h
            .protocol
            .stage(t.unwrap(), &rw_f, |ctx| ctx.write("balance", 150))
            .unwrap();
        assert!(done.is_none(), "{}", h.kind);
        let snap = h.protocol.stats().snapshot();
        assert_eq!(snap.commits, 1, "{}", h.kind);
        assert_eq!(snap.aborts, 0, "{}", h.kind);
    }
    assert_same_states(&harnesses, &["balance", "log"]);
}

#[test]
fn abort_scenario_rolls_back_identically() {
    let harnesses = all(LockPolicy::Block);
    for h in &harnesses {
        h.store.put("seed".into(), Value::Int(1));
        let rw = RwSet::new().write("seed").write("fresh");
        let t = h.protocol.begin(TxnId(1), &[rw.clone(), rw.clone()]);
        let r = h.protocol.stage(t, &rw, |ctx| {
            ctx.write("seed", 999)?;
            ctx.write("fresh", 1)?;
            Err::<(), _>(TxnError::Invariant("trigger was wrong".into()))
        });
        assert!(r.is_err(), "{}", h.kind);
        assert_eq!(h.protocol.stats().snapshot().aborts, 1, "{}", h.kind);
        // Rollback restored the pre-image and removed the fresh insert.
        assert_eq!(
            h.store.get(&"seed".into()).as_deref(),
            Some(&Value::Int(1)),
            "{}",
            h.kind
        );
        assert!(!h.store.contains(&"fresh".into()), "{}", h.kind);
        // Every lock is free again: a new transaction can take them all.
        let t = h.protocol.begin(TxnId(2), &[rw.clone(), rw.clone()]);
        let (_, t) = h.protocol.stage(t, &rw, |_| Ok(())).unwrap();
        h.protocol.stage(t.unwrap(), &rw, |_| Ok(())).unwrap();
    }
    assert_same_states(&harnesses, &["seed", "fresh"]);
}

#[test]
fn conflict_scenario_aborts_only_before_initial_commit() {
    // An older transaction (TxnId 0) holds the hot key; every protocol's
    // younger transaction must abort its *initial* stage (wait-die kills
    // the younger requester), and succeed after the holder releases.
    let harnesses = all(LockPolicy::WaitDie);
    for h in &harnesses {
        let hot: Key = "hot".into();
        h.locks.lock(TxnId(0), &hot, LockMode::Exclusive).unwrap();
        let rw = RwSet::new().write("hot");
        let t = h.protocol.begin(TxnId(5), &[rw.clone(), rw.clone()]);
        let r = h.protocol.stage(t, &rw, |ctx| ctx.write("hot", 1));
        assert!(
            matches!(r, Err(TxnError::Aborted(_))),
            "{}: younger txn must die on the held lock",
            h.kind
        );
        assert!(!h.store.contains(&hot), "{}: nothing committed", h.kind);
        h.locks.release(TxnId(0), &hot);
        // Retry with the same id (wait-die priority) now commits.
        let t = h.protocol.begin(TxnId(5), &[rw.clone(), rw.clone()]);
        let (_, t) = h.protocol.stage(t, &rw, |ctx| ctx.write("hot", 1)).unwrap();
        h.protocol
            .stage(t.unwrap(), &rw, |ctx| ctx.write("hot", 2))
            .unwrap();
    }
    assert_same_states(&harnesses, &["hot"]);
}

#[test]
fn multi_partition_scenario_spans_partitions_atomically() {
    // A transfer whose keys are homed on different partitions (§4.5). The
    // partition map only routes; the protocols must keep the multi-key
    // footprint atomic and identical.
    let pm = PartitionMap::new(4, LockPolicy::Block);
    let (alice, bob): (Key, Key) = ("alice".into(), "bob".into());
    assert_ne!(
        pm.partition_of(&alice).id,
        pm.partition_of(&bob).id,
        "scenario needs keys on different partitions"
    );

    let harnesses = all(LockPolicy::Block);
    for h in &harnesses {
        h.store.put(alice.clone(), Value::Int(100));
        h.store.put(bob.clone(), Value::Int(100));
        let rw = RwSet::new()
            .read("alice")
            .write("alice")
            .read("bob")
            .write("bob");
        let t = h.protocol.begin(TxnId(1), &[rw.clone(), rw.clone()]);
        let (_, t) = h
            .protocol
            .stage(t, &rw, |ctx| {
                let a = ctx.read("alice")?.and_then(|v| v.as_int()).unwrap_or(0);
                let b = ctx.read("bob")?.and_then(|v| v.as_int()).unwrap_or(0);
                ctx.write("alice", a - 40)?;
                ctx.write("bob", b + 40)
            })
            .unwrap();
        // The correction (final stage) moves 10 back.
        h.protocol
            .stage(t.unwrap(), &rw, |ctx| {
                let a = ctx.read("alice")?.and_then(|v| v.as_int()).unwrap_or(0);
                let b = ctx.read("bob")?.and_then(|v| v.as_int()).unwrap_or(0);
                ctx.write("alice", a + 10)?;
                ctx.write("bob", b - 10)
            })
            .unwrap();
        let a = h.store.get(&alice).and_then(|v| v.as_int()).unwrap();
        let b = h.store.get(&bob).and_then(|v| v.as_int()).unwrap();
        assert_eq!(a + b, 200, "{}: tokens conserved", h.kind);
        assert_eq!(a, 70, "{}", h.kind);
    }
    assert_same_states(&harnesses, &["alice", "bob"]);
}

#[test]
fn three_stage_scenario_is_protocol_agnostic() {
    // §3.5's m-stage model runs under every protocol — TSPL simply locks
    // all three declared sets up front, the others release between stages.
    let harnesses = all(LockPolicy::Block);
    for h in &harnesses {
        let s0 = RwSet::new().write("draft");
        let s1 = RwSet::new().read("draft").write("review");
        let s2 = RwSet::new().read("review").write("published");
        let t = h
            .protocol
            .begin(TxnId(7), &[s0.clone(), s1.clone(), s2.clone()]);
        let (_, t) = h
            .protocol
            .stage(t, &s0, |ctx| ctx.write("draft", 1))
            .unwrap();
        let (_, t) = h
            .protocol
            .stage(t.unwrap(), &s1, |ctx| {
                let d = ctx.read("draft")?.and_then(|v| v.as_int()).unwrap_or(0);
                ctx.write("review", d + 1)
            })
            .unwrap();
        let (_, done) = h
            .protocol
            .stage(t.unwrap(), &s2, |ctx| {
                let r = ctx.read("review")?.and_then(|v| v.as_int()).unwrap_or(0);
                ctx.write("published", r + 1)
            })
            .unwrap();
        assert!(done.is_none(), "{}", h.kind);
        assert_eq!(h.protocol.stats().snapshot().commits, 1, "{}", h.kind);
    }
    assert_same_states(&harnesses, &["draft", "review", "published"]);
}

#[test]
fn lock_release_discipline_differs_by_design() {
    // The one place the protocols *must* disagree: after the initial
    // stage, MS-IA/staged have released everything, MS-SR holds both the
    // initial and the declared final items (Fig. 6a is this difference).
    for kind in ProtocolKind::ALL {
        let h = harness(kind, LockPolicy::NoWait);
        let rw_i = RwSet::new().write("i");
        let rw_f = RwSet::new().write("f");
        let t = h.protocol.begin(TxnId(1), &[rw_i.clone(), rw_f.clone()]);
        let (_, t) = h.protocol.stage(t, &rw_i, |ctx| ctx.write("i", 1)).unwrap();
        let externally_lockable = h
            .locks
            .lock(TxnId(99), &"f".into(), LockMode::Exclusive)
            .is_ok();
        match kind {
            ProtocolKind::MsSr => assert!(
                !externally_lockable,
                "MS-SR must already hold the final stage's items"
            ),
            ProtocolKind::MsIa | ProtocolKind::Staged => {
                assert!(
                    externally_lockable,
                    "{kind} must have released everything at initial commit"
                );
                h.locks.release(TxnId(99), &"f".into());
            }
        }
        h.protocol
            .stage(t.unwrap(), &rw_f, |ctx| ctx.write("f", 2))
            .unwrap();
        assert_eq!(h.locks.locked_keys(), 0, "{kind}: all released at the end");
    }
}
