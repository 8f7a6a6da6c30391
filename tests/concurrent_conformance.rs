//! Lincheck-style concurrent conformance tests: threads submit stages
//! against each protocol, and the *observed* history is checked against a
//! sequential specification by searching for a valid linearization
//! (pattern after `SmnTin/lincheck`'s `LinearizabilityChecker`: DFS over
//! interleavings, executing a sequential spec and matching each
//! invocation's recorded result).
//!
//! The workload is a two-account transfer. Every stage atomically reads
//! both balances (the recorded observation) and moves one unit between
//! them, so the sequential spec is exact: an operation is admissible only
//! when its observation equals the spec state. A stage that executed
//! non-atomically (torn writes, reads outside the locks) would record an
//! observation no interleaving can produce, and the search would fail.
//!
//! Granularity is the protocols' own promise (§4):
//!
//! * **MS-IA / staged** release locks between stages — each *stage* is an
//!   atomic operation; stages of different transactions may interleave.
//! * **MS-SR** makes a transaction's sections appear back-to-back in the
//!   serial order, so both stages form one *composite* operation — if the
//!   executor wrongly released locks between stages, a foreign stage
//!   could slip in between and the txn-granularity search would fail.
//!
//! The same spec is the crash/failover oracle: the workload runs over a
//! strict WAL shipping to a cloud replica, the edge crashes with one guess
//! acked at its initial commit, and recovery *from the replica* must keep
//! every acked-final transfer, conserve money, linearize, and retract the
//! guess with an apology.

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;
use std::thread;

use croesus::core::ReplicaTailer;
use croesus::store::{KvStore, LockManager, TxnId, Value};
use croesus::txn::{
    current_worker, Executor, ExecutorCore, ProtocolKind, RecoveredEdge, RwSet, StageCtx, TxnError,
    WorkerPool,
};
use croesus::wal::{LogShipper, Wal, WalConfig};

const ACCT_A: &str = "acct/a";
const ACCT_B: &str = "acct/b";
const INIT_A: i64 = 100;
const INIT_B: i64 = 0;
/// Each full transaction moves 1 + 2 units a → b.
const MOVED_PER_TXN: i64 = 3;

/// One atomic operation of the sequential spec: what the stage observed
/// and the transfer it applied.
#[derive(Clone, Copy, Debug)]
struct AtomicOp {
    observed: (i64, i64),
    moved: i64, // units moved a → b
}

/// One invocation as the checker schedules it: a group of atomic ops that
/// must execute back-to-back (len 1 = stage granularity; len 2 = a whole
/// MS-SR transaction).
type Composite = Vec<AtomicOp>;

/// Sequential spec state.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Accounts {
    a: i64,
    b: i64,
}

const INIT: Accounts = Accounts {
    a: INIT_A,
    b: INIT_B,
};

impl Accounts {
    /// Execute a composite against the spec: every op's observation must
    /// equal the state it runs in.
    fn exec(mut self, comp: &Composite) -> Option<Accounts> {
        for op in comp {
            if (self.a, self.b) != op.observed {
                return None;
            }
            self.a -= op.moved;
            self.b += op.moved;
        }
        Some(self)
    }
}

/// DFS over interleavings of the per-thread composite sequences
/// (program order preserved per thread), executing the spec and matching
/// observations — the lincheck search, with memoization on thread
/// positions (the spec state is a function of the multiset of applied
/// transfers, hence of the positions).
fn linearizable(threads: &[Vec<Composite>], init: Accounts) -> bool {
    fn dfs(
        threads: &[Vec<Composite>],
        pos: &mut Vec<usize>,
        state: Accounts,
        dead: &mut HashSet<Vec<usize>>,
    ) -> bool {
        if pos.iter().zip(threads).all(|(&p, ops)| p == ops.len()) {
            return true;
        }
        if dead.contains(pos) {
            return false;
        }
        for t in 0..threads.len() {
            if pos[t] < threads[t].len() {
                if let Some(next) = state.exec(&threads[t][pos[t]]) {
                    pos[t] += 1;
                    if dfs(threads, pos, next, dead) {
                        return true;
                    }
                    pos[t] -= 1;
                }
            }
        }
        dead.insert(pos.clone());
        false
    }
    let mut pos = vec![0; threads.len()];
    dfs(threads, &mut pos, init, &mut HashSet::new())
}

fn transfer_rw() -> RwSet {
    RwSet::new().write(ACCT_A).write(ACCT_B)
}

/// The stage body: atomically observe both balances and move `moved`.
fn transfer_stage(ctx: &mut StageCtx<'_>, moved: i64) -> Result<AtomicOp, TxnError> {
    let a = ctx.read(ACCT_A)?.and_then(|v| v.as_int()).unwrap_or(0);
    let b = ctx.read(ACCT_B)?.and_then(|v| v.as_int()).unwrap_or(0);
    ctx.write(ACCT_A, a - moved)?;
    ctx.write(ACCT_B, b + moved)?;
    Ok(AtomicOp {
        observed: (a, b),
        moved,
    })
}

/// The two accounts under one protocol; with a `shipper`, over a strict
/// in-memory WAL that ships to it (the cloud replica).
fn shared_protocol(kind: ProtocolKind, shipper: Option<&Arc<LogShipper>>) -> Arc<Executor> {
    let store = Arc::new(KvStore::new());
    store.put(ACCT_A.into(), Value::Int(INIT_A));
    store.put(ACCT_B.into(), Value::Int(INIT_B));
    let mut core = ExecutorCore::new(
        store,
        Arc::new(LockManager::new(kind.default_lock_policy())),
    );
    if let Some(shipper) = shipper {
        let (wal, _) = Wal::in_memory(WalConfig::strict());
        wal.attach_shipper(Arc::clone(shipper));
        core = core.with_wal(Arc::new(wal));
    }
    Arc::new(kind.build(core))
}

/// The balances in `store` conserve money and carry exactly `txns` whole
/// transfers.
fn assert_balances(store: &KvStore, txns: i64, what: &str) {
    let a = store.get(&ACCT_A.into()).unwrap().as_int().unwrap();
    let b = store.get(&ACCT_B.into()).unwrap().as_int().unwrap();
    assert_eq!(a + b, INIT_A + INIT_B, "{what}: transfers conserve money");
    assert_eq!(
        b,
        INIT_B + txns * MOVED_PER_TXN,
        "{what}: every transaction landed"
    );
}

const THREADS: usize = 3;
const TXNS_PER_THREAD: u64 = 3;

/// Run the concurrent workload to completion on `protocol`; returns
/// per-thread observed histories at the granularity the protocol
/// guarantees.
fn run_history(protocol: &Arc<Executor>, txn_granularity: bool) -> Vec<Vec<Composite>> {
    let handles: Vec<_> = (0..THREADS as u64)
        .map(|tid| {
            let p = Arc::clone(protocol);
            thread::spawn(move || {
                let mut history: Vec<Composite> = Vec::new();
                for i in 0..TXNS_PER_THREAD {
                    let txn = TxnId(tid * 100 + i);
                    let rw = transfer_rw();
                    let stages = [rw.clone(), rw.clone()];
                    // Wait-die (MS-SR's pairing) can kill stage 0; retry
                    // the whole transaction like the pipeline does.
                    let (op0, pending) = loop {
                        let h = p.begin(txn, &stages);
                        match p.stage(h, &rw, |ctx| transfer_stage(ctx, 1)) {
                            Ok((op, next)) => break (op, next.expect("two stages")),
                            Err(_) => thread::yield_now(),
                        }
                    };
                    let (op1, done) = p
                        .stage(pending, &rw, |ctx| transfer_stage(ctx, 2))
                        .expect("later stages cannot abort");
                    assert!(done.is_none());
                    if txn_granularity {
                        history.push(vec![op0, op1]);
                    } else {
                        history.push(vec![op0]);
                        history.push(vec![op1]);
                    }
                }
                history
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

#[test]
fn ms_ia_stages_linearize_against_the_sequential_spec() {
    for round in 0..5 {
        let history = run_history(&shared_protocol(ProtocolKind::MsIa, None), false);
        assert!(
            linearizable(&history, INIT),
            "round {round}: no interleaving of atomic stages explains the observations: {history:?}"
        );
    }
}

#[test]
fn staged_stages_linearize_against_the_sequential_spec() {
    for round in 0..5 {
        let history = run_history(&shared_protocol(ProtocolKind::Staged, None), false);
        assert!(linearizable(&history, INIT), "round {round}: {history:?}");
    }
}

#[test]
fn ms_sr_whole_transactions_linearize_back_to_back() {
    for round in 0..5 {
        let history = run_history(&shared_protocol(ProtocolKind::MsSr, None), true);
        assert!(
            linearizable(&history, INIT),
            "round {round}: MS-SR must admit a serial order with both \
             sections adjacent: {history:?}"
        );
    }
}

// --- pool-driven histories: the edge runtime's own worker pool ----------

const POOL_WORKERS: usize = 4;
const POOL_WAVES: u64 = 3;
const POOL_WAVE_WIDTH: u64 = 4;

/// Run the transfer workload through [`WorkerPool::run_wave`] — the same
/// machinery the edge runtime uses for wave-parallel initial stages — and
/// return the observed history grouped per *worker thread*.
///
/// Program order per worker is what the checker needs, and the grouping
/// delivers it: a worker pops queue jobs in FIFO order, so within a wave
/// its jobs appear in submission order, and `run_wave` is a barrier, so
/// ordering across waves is real time. Each job runs one whole
/// transaction (both stages), retrying on a wait-die kill exactly like
/// the pipeline does.
fn run_pooled_history(kind: ProtocolKind, txn_granularity: bool) -> Vec<Vec<Composite>> {
    let protocol = shared_protocol(kind, None);
    let pool = WorkerPool::new(POOL_WORKERS);
    let mut per_worker: Vec<Vec<Composite>> = vec![Vec::new(); POOL_WORKERS];
    for wave in 0..POOL_WAVES {
        let jobs: Vec<_> = (0..POOL_WAVE_WIDTH)
            .map(|j| {
                let p = Arc::clone(&protocol);
                let txn = TxnId(wave * POOL_WAVE_WIDTH + j);
                move || {
                    let rw = transfer_rw();
                    let stages = [rw.clone(), rw.clone()];
                    let (op0, pending) = loop {
                        let h = p.begin(txn, &stages);
                        match p.stage(h, &rw, |ctx| transfer_stage(ctx, 1)) {
                            Ok((op, next)) => break (op, next.expect("two stages")),
                            Err(_) => thread::yield_now(),
                        }
                    };
                    let (op1, done) = p
                        .stage(pending, &rw, |ctx| transfer_stage(ctx, 2))
                        .expect("later stages cannot abort");
                    assert!(done.is_none());
                    let worker = current_worker().expect("jobs run on pool workers");
                    (worker, op0, op1)
                }
            })
            .collect();
        for (worker, op0, op1) in pool.run_wave(jobs) {
            if txn_granularity {
                per_worker[worker].push(vec![op0, op1]);
            } else {
                per_worker[worker].push(vec![op0]);
                per_worker[worker].push(vec![op1]);
            }
        }
    }
    // The pool must conserve money just like hand-rolled threads.
    let pooled = (POOL_WAVES * POOL_WAVE_WIDTH) as i64;
    assert_balances(protocol.store(), pooled, &format!("{kind} pooled"));
    per_worker
}

#[test]
fn pooled_ms_ia_stage_histories_linearize() {
    for round in 0..3 {
        let history = run_pooled_history(ProtocolKind::MsIa, false);
        assert!(
            linearizable(&history, INIT),
            "round {round}: no interleaving of atomic stages explains the \
             pool-worker observations: {history:?}"
        );
    }
}

#[test]
fn pooled_staged_stage_histories_linearize() {
    for round in 0..3 {
        let history = run_pooled_history(ProtocolKind::Staged, false);
        assert!(linearizable(&history, INIT), "round {round}: {history:?}");
    }
}

#[test]
fn pooled_ms_sr_transactions_linearize_back_to_back() {
    for round in 0..3 {
        let history = run_pooled_history(ProtocolKind::MsSr, true);
        assert!(
            linearizable(&history, INIT),
            "round {round}: MS-SR run on the worker pool must still admit \
             a serial order with both sections adjacent: {history:?}"
        );
    }
}

#[test]
fn final_balances_conserve_the_total() {
    for kind in ProtocolKind::ALL {
        let protocol = shared_protocol(kind, None);
        run_history(&protocol, false);
        let txns = (THREADS as i64) * (TXNS_PER_THREAD as i64);
        assert_balances(protocol.store(), txns, &kind.to_string());
    }
}

// --- the crash/failover oracle: recovery from the cloud replica ---------

/// Run the concurrent transfer workload to completion over a WAL shipping
/// to a cloud replica (those transactions are acked-final), then one more
/// transaction through its *initial* stage only (acked-initial,
/// retractable) — and crash. Recover from the replica and check every
/// guarantee the chaos harness depends on.
fn crash_and_check(kind: ProtocolKind, txn_granularity: bool) {
    let shipper = Arc::new(LogShipper::new());
    let protocol = shared_protocol(kind, Some(&shipper));
    let histories = run_history(&protocol, txn_granularity);

    // One guess acked at its initial commit, never validated: the crash
    // window the apology machinery exists for.
    let guess = TxnId(900);
    let rw = transfer_rw();
    let h = protocol.begin(guess, &[rw.clone(), rw.clone()]);
    let _pending = protocol
        .stage(h, &rw, |ctx| transfer_stage(ctx, 1))
        .expect("no contention after the threads joined");

    // CRASH. The edge is gone; the cloud replica is all that's left.
    drop(protocol);
    let mut tailer = ReplicaTailer::new(shipper);
    tailer.catch_up();
    let rec: RecoveredEdge = tailer.recover();

    // No acked-final write is lost, and the retracted guess un-happened:
    // the balances are exactly the finalized transfers' net effect.
    let txns = (THREADS as i64) * (TXNS_PER_THREAD as i64);
    assert_balances(&rec.store, txns, &format!("{kind} recovered"));

    if kind == ProtocolKind::MsSr {
        // MS-SR acks nothing before final commit — the guess simply never
        // happened, so there is nothing to retract or apologize for.
        assert!(rec.unfinalized.is_empty(), "MS-SR buffers until final");
        assert!(rec.retractions.is_empty());
    } else {
        // The guess was acked (initial commit) and is now gone — the
        // client MUST hold an apology for it.
        assert_eq!(rec.unfinalized, vec![guess], "{kind}");
        let retracted: BTreeSet<u64> = rec
            .retractions
            .iter()
            .flat_map(|r| r.retracted.iter().map(|t| t.0))
            .collect();
        assert!(
            retracted.contains(&guess.0),
            "{kind}: the guess is retracted"
        );
        let apologized: BTreeSet<u64> = rec.apologies_owed().iter().map(|a| a.txn.0).collect();
        assert_eq!(
            retracted, apologized,
            "{kind}: an apology for every retraction, and nothing else"
        );
    }

    // The surviving (acked-final) history must linearize against the
    // sequential spec — recovery may lose nothing *and* invent nothing.
    assert!(
        linearizable(&histories, INIT),
        "{kind}: surviving history does not linearize: {histories:?}"
    );
}

#[test]
fn ms_ia_acked_writes_survive_crash_failover() {
    crash_and_check(ProtocolKind::MsIa, false);
}

#[test]
fn staged_acked_writes_survive_crash_failover() {
    crash_and_check(ProtocolKind::Staged, false);
}

#[test]
fn ms_sr_acked_writes_survive_crash_failover() {
    crash_and_check(ProtocolKind::MsSr, true);
}

// --- checker self-tests: the search must reject impossible histories ----

#[test]
fn checker_accepts_a_valid_sequential_history() {
    let t1 = vec![vec![AtomicOp {
        observed: (100, 0),
        moved: 1,
    }]];
    let t2 = vec![vec![AtomicOp {
        observed: (99, 1),
        moved: 2,
    }]];
    assert!(linearizable(&[t1, t2], Accounts { a: 100, b: 0 }));
}

#[test]
fn checker_rejects_a_lost_update_history() {
    // Both stages claim to have observed the initial state, yet both
    // applied — no sequential order explains that.
    let t1 = vec![vec![AtomicOp {
        observed: (100, 0),
        moved: 1,
    }]];
    let t2 = vec![vec![AtomicOp {
        observed: (100, 0),
        moved: 1,
    }]];
    assert!(!linearizable(&[t1, t2], Accounts { a: 100, b: 0 }));
}

#[test]
fn checker_rejects_an_interleaved_composite() {
    // Composite (MS-SR) semantics: t1's two stages observed a foreign
    // transfer in between — fine at stage granularity, impossible
    // back-to-back.
    let t1 = vec![vec![
        AtomicOp {
            observed: (100, 0),
            moved: 1,
        },
        AtomicOp {
            observed: (98, 2), // t2's transfer slipped in between
            moved: 2,
        },
    ]];
    let t2 = vec![vec![AtomicOp {
        observed: (99, 1),
        moved: 1,
    }]];
    assert!(
        !linearizable(&[t1.clone(), t2.clone()], Accounts { a: 100, b: 0 }),
        "txn granularity must reject the interleaving"
    );
    // The same history at stage granularity is fine.
    let t1_stages: Vec<Composite> = t1[0].iter().map(|&op| vec![op]).collect();
    assert!(linearizable(&[t1_stages, t2], Accounts { a: 100, b: 0 }));
}
