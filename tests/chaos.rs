//! Chaos tests: seeded fault schedules against the full fleet driver, plus
//! a direct crash/failover oracle for the guarantee the fleet relies on —
//! **no committed-and-acked write is ever lost**, and every retraction
//! produces an apology.
//!
//! Three layers:
//!
//! 1. **Fleet chaos** — `run_fleet` under `FaultPlan::seeded` schedules
//!    (kill / stall / partition / resurrect / corrupt-shipment) across all
//!    three protocols. Invariants: every frame is accounted for, every
//!    takeover is explained by a kill or over-long stall and detected
//!    within the heartbeat timeout, and recovery apologies are owed for
//!    every takeover retraction.
//! 2. **The crash oracle** — a concurrent two-account transfer workload
//!    (the `concurrent_conformance` spec) over a protocol with a strict
//!    WAL shipping to a cloud replica. Crash, recover *from the replica*,
//!    and check: survivors linearize, money is conserved, acked-final
//!    effects all survive, and the acked-but-unfinalized guess is
//!    retracted with an apology.
//! 3. **Cross-edge commits** — the 2PC coordinator path: in-doubt
//!    resolution against the *shipped* decision log, and the regression
//!    that the decision map stays bounded across 10k cross-edge
//!    transactions.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::thread;

use croesus::core::{Croesus, DurabilityMode, FaultKind, FaultPlan, ReplicaTailer};
use croesus::obs::{check_stream, EventKind, Obs};
use croesus::store::{Key, KvStore, LockManager, LockPolicy, PartitionMap, TxnId, Value};
use croesus::txn::{
    recover_edge_file, Coordinator, ExecutorCore, MultiStageProtocol, MultiStageProtocolExt,
    Participant, PartitionParticipant, ProtocolKind, RecoveredEdge, RwSet, StageCtx, TxnError,
};
use croesus::wal::{recover, scratch_dir, LogShipper, Wal, WalConfig};

// ------------------------------------------------------------------
// Layer 1: the fleet under seeded chaos
// ------------------------------------------------------------------

const FRAMES: u64 = 40;
const EDGES: usize = 3;
const TIMEOUT: u64 = 3;

/// Every enabled durability mode: the fleet invariants are the flush
/// policy's too — a group-commit or pipelined edge loses a longer
/// unsynced tail to a kill, never an acked-durable byte.
const MODES: [fn(&Path) -> DurabilityMode; 3] = [
    |dir| DurabilityMode::Strict { dir: dir.into() },
    |dir| DurabilityMode::group_commit(dir),
    |dir| DurabilityMode::pipelined(dir),
];

#[test]
fn seeded_chaos_preserves_fleet_invariants_across_protocols() {
    for kind in ProtocolKind::ALL {
        for (seed, mode) in [11u64, 23].into_iter().flat_map(|s| MODES.map(|m| (s, m))) {
            let plan = FaultPlan::seeded(seed, FRAMES, EDGES, 0.06);
            let dir = scratch_dir(&format!("chaos-fleet-{kind}-{seed}"));
            let mode = mode(&dir);
            let obs = Obs::shared();
            let r = Croesus::builder()
                .protocol(kind)
                .frames(FRAMES)
                .edges(EDGES)
                .durability(mode.clone())
                .failover(true)
                .heartbeat_timeout(TIMEOUT)
                .faults(plan.clone())
                .observe(Arc::clone(&obs))
                .build()
                .run_fleet();

            // Every frame either reached a serving edge or is an accounted
            // drop inside a detection window.
            assert_eq!(
                r.frames_processed + r.frames_dropped,
                FRAMES,
                "{kind} seed {seed} {mode:?}: every frame accounted for"
            );

            // Every takeover traces back to a kill or an over-long stall
            // on that edge, detected within the heartbeat timeout of the
            // moment the edge went silent.
            for t in &r.takeovers {
                let explained = plan.events().iter().any(|e| {
                    e.edge == t.edge
                        && matches!(e.kind, FaultKind::Kill | FaultKind::Stall { .. })
                        && e.frame <= t.detected_at
                        && t.detected_at <= e.frame + TIMEOUT + 1
                });
                assert!(
                    explained,
                    "{kind} seed {seed} {mode:?}: takeover of edge {} at frame {} has no \
                     matching kill/stall within the timeout window: {:?}",
                    t.edge,
                    t.detected_at,
                    plan.events()
                );
            }

            // Every takeover is *explained by the trace*: the event
            // timeline must satisfy the ordering contract (which forces
            // HeartbeatMiss ≺ TakeoverStart, and TakeoverEnd only inside
            // an open takeover), and carry exactly one
            // TakeoverStart/TakeoverEnd pair per reported takeover, on
            // the failed edge's own stream. On failure, dump the last
            // events per edge — the flight recorder.
            if let Err(v) = check_stream(&r.timeline, obs.dropped() > 0) {
                panic!(
                    "{kind} seed {seed} {mode:?}: {v}\n{}",
                    r.flight_recorder(12)
                );
            }
            let count = |edge: usize, want: fn(&EventKind) -> bool| {
                r.timeline
                    .iter()
                    .filter(|e| e.edge as usize == edge && want(&e.kind))
                    .count()
            };
            for t in &r.takeovers {
                let misses = count(t.edge, |k| matches!(k, EventKind::HeartbeatMiss));
                let starts = count(t.edge, |k| matches!(k, EventKind::TakeoverStart));
                let ends = count(t.edge, |k| matches!(k, EventKind::TakeoverEnd { .. }));
                assert!(
                    misses >= starts && starts == ends && starts >= 1,
                    "{kind} seed {seed} {mode:?}: takeover of edge {} unexplained \
                     ({misses} misses, {starts} starts, {ends} ends)\n{}",
                    t.edge,
                    r.flight_recorder(12)
                );
            }
            let total_starts = r
                .timeline
                .iter()
                .filter(|e| matches!(e.kind, EventKind::TakeoverStart))
                .count();
            assert_eq!(
                total_starts,
                r.takeovers.len(),
                "{kind} seed {seed} {mode:?}: one TakeoverStart per reported takeover\n{}",
                r.flight_recorder(12)
            );

            // Crash recovery apologizes for everything it retracts; those
            // apologies live on in the replacement nodes.
            let takeover_retractions: u64 = r.takeovers.iter().map(|t| t.retractions as u64).sum();
            assert!(
                r.apologies_owed >= takeover_retractions,
                "{kind} seed {seed} {mode:?}: {} takeover retractions but only {} apologies owed",
                takeover_retractions,
                r.apologies_owed
            );

            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

// ------------------------------------------------------------------
// Layer 2: the crash/failover oracle
// ------------------------------------------------------------------
// Sequential spec + lincheck-style search, as in concurrent_conformance:
// every stage atomically observes both balances and moves units a → b.

const ACCT_A: &str = "acct/a";
const ACCT_B: &str = "acct/b";
const INIT_A: i64 = 100;
const INIT_B: i64 = 0;

#[derive(Clone, Copy, Debug)]
struct AtomicOp {
    observed: (i64, i64),
    moved: i64,
}

/// Ops that must execute back-to-back (len 1 = one stage; len 2 = a whole
/// MS-SR transaction).
type Composite = Vec<AtomicOp>;

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Accounts {
    a: i64,
    b: i64,
}

impl Accounts {
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

/// Memoized DFS over interleavings (program order preserved per thread).
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

/// A protocol over a strict in-memory WAL shipping to a cloud replica.
fn shipped_protocol(kind: ProtocolKind) -> (Arc<Box<dyn MultiStageProtocol>>, Arc<LogShipper>) {
    let store = Arc::new(KvStore::new());
    store.put(ACCT_A.into(), Value::Int(INIT_A));
    store.put(ACCT_B.into(), Value::Int(INIT_B));
    let (wal, _) = Wal::in_memory(WalConfig::strict());
    let shipper = Arc::new(LogShipper::new());
    wal.attach_shipper(Arc::clone(&shipper));
    let core = ExecutorCore::new(
        store,
        Arc::new(LockManager::new(kind.default_lock_policy())),
    )
    .with_wal(Arc::new(wal));
    (Arc::new(kind.build(core)), shipper)
}

const THREADS: usize = 3;
const TXNS_PER_THREAD: u64 = 3;
// Each full transaction moves 1 + 2 units a → b.
const MOVED_PER_TXN: i64 = 3;

/// The oracle: run the concurrent transfer workload to completion (those
/// transactions are acked-final), then one more transaction through its
/// *initial* stage only (acked-initial, retractable) — and crash. Recover
/// from the cloud replica and check every guarantee the chaos harness
/// depends on.
fn crash_and_check(kind: ProtocolKind, txn_granularity: bool) {
    let (protocol, shipper) = shipped_protocol(kind);
    let handles: Vec<_> = (0..THREADS as u64)
        .map(|tid| {
            let p = Arc::clone(&protocol);
            thread::spawn(move || {
                let mut history: Vec<Composite> = Vec::new();
                for i in 0..TXNS_PER_THREAD {
                    let txn = TxnId(tid * 100 + i);
                    let rw = transfer_rw();
                    let stages = [rw.clone(), rw.clone()];
                    // Wait-die (MS-SR) can kill stage 0; retry the whole
                    // transaction like the pipeline does.
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
    let histories: Vec<Vec<Composite>> = handles.into_iter().map(|h| h.join().unwrap()).collect();

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
    let moved: i64 = (THREADS as i64) * (TXNS_PER_THREAD as i64) * MOVED_PER_TXN;
    let a = rec.store.get(&ACCT_A.into()).unwrap().as_int().unwrap();
    let b = rec.store.get(&ACCT_B.into()).unwrap().as_int().unwrap();
    assert_eq!(a + b, INIT_A + INIT_B, "{kind}: recovery conserves money");
    assert_eq!(
        b,
        INIT_B + moved,
        "{kind}: every acked-final transfer survived"
    );

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
        linearizable(
            &histories,
            Accounts {
                a: INIT_A,
                b: INIT_B
            }
        ),
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

// ------------------------------------------------------------------
// Replica-vs-in-place recovery equivalence
// ------------------------------------------------------------------

fn snapshot_of(store: &KvStore) -> BTreeMap<String, Value> {
    store
        .snapshot()
        .into_iter()
        .map(|(k, v)| (k.as_str().to_string(), (*v.value).clone()))
        .collect()
}

/// The failover correctness keystone: recovering the cloud replica must be
/// indistinguishable from recovering the edge's own log file — starting
/// with the bytes themselves.
#[test]
fn replica_recovery_is_byte_identical_to_in_place_recovery() {
    let dir = scratch_dir("chaos-replica-eq");
    let path = dir.join("edge-0.wal");
    let wal = Wal::create(&path, WalConfig::strict()).unwrap();
    let shipper = Arc::new(LogShipper::new());
    wal.attach_shipper(Arc::clone(&shipper));
    let store = Arc::new(KvStore::new());
    store.put(ACCT_A.into(), Value::Int(INIT_A));
    store.put(ACCT_B.into(), Value::Int(INIT_B));
    let core = ExecutorCore::new(
        store,
        Arc::new(LockManager::new(ProtocolKind::MsIa.default_lock_policy())),
    )
    .with_wal(Arc::new(wal));
    let p = ProtocolKind::MsIa.build(core);

    // Two finalized transfers and one dangling guess.
    for i in 0..2u64 {
        let rw = transfer_rw();
        let h = p.begin(TxnId(i), &[rw.clone(), rw.clone()]);
        let (_, pending) = p.stage(h, &rw, |ctx| transfer_stage(ctx, 1)).unwrap();
        p.stage(pending.unwrap(), &rw, |ctx| transfer_stage(ctx, 2))
            .unwrap();
    }
    let rw = transfer_rw();
    let h = p.begin(TxnId(9), &[rw.clone(), rw.clone()]);
    p.stage(h, &rw, |ctx| transfer_stage(ctx, 1)).unwrap();
    drop(p); // crash (strict mode: the file already holds every frame)

    let mut tailer = ReplicaTailer::new(shipper);
    tailer.catch_up();
    assert_eq!(
        tailer.log(),
        std::fs::read(&path).unwrap().as_slice(),
        "the replica holds byte-identical log content"
    );

    let from_replica = tailer.recover();
    let in_place = recover_edge_file(&path).unwrap();
    assert_eq!(
        snapshot_of(&from_replica.store),
        snapshot_of(&in_place.store),
        "identical stores"
    );
    assert_eq!(from_replica.unfinalized, in_place.unfinalized);
    assert_eq!(from_replica.next_txn, in_place.next_txn);
    let ids = |rec: &RecoveredEdge| -> Vec<Vec<u64>> {
        rec.retractions
            .iter()
            .map(|r| r.retracted.iter().map(|t| t.0).collect())
            .collect()
    };
    assert_eq!(ids(&from_replica), ids(&in_place), "identical retractions");
    let owed = |rec: &RecoveredEdge| -> BTreeSet<u64> {
        rec.apologies_owed().iter().map(|a| a.txn.0).collect()
    };
    assert_eq!(owed(&from_replica), owed(&in_place), "identical apologies");

    std::fs::remove_dir_all(&dir).unwrap();
}

// ------------------------------------------------------------------
// Layer 3: the cross-edge (2PC) coordinator path
// ------------------------------------------------------------------

fn cross_edge_writes(n: u64, salt: u64) -> Vec<(Key, Value)> {
    (0..n)
        .map(|i| (Key::indexed("w", i), Value::Int((salt + i) as i64)))
        .collect()
}

/// Satellite regression: resolved decisions are expired once every
/// participant acked, so the decision map cannot grow with throughput.
#[test]
fn tpc_decision_map_stays_bounded_across_10k_cross_edge_txns() {
    let pm = Arc::new(PartitionMap::new(4, LockPolicy::NoWait));
    let (wal, probe) = Wal::in_memory(WalConfig::group(64));
    let wal = Arc::new(wal);
    let coord = Coordinator::new(Arc::clone(&pm)).with_wal(Arc::clone(&wal));
    for i in 0..10_000u64 {
        coord.commit_writes(TxnId(i), &cross_edge_writes(4, i));
    }
    assert_eq!(
        wal.tpc_decision_count(),
        0,
        "every acked phase 2 expired its decision entry"
    );
    // And the durable image agrees once the end records hit the disk.
    wal.flush().unwrap();
    let report = recover(&probe.durable());
    assert!(
        report.tpc_decisions.is_empty(),
        "recovery finds no unresolved decision: {:?}",
        report.tpc_decisions
    );
}

/// In-doubt resolution against the *shipped* decision log: the coordinator
/// dies between phases; the cloud replica of its log carries the durable
/// commit decision, and a new coordinator epoch finishes phase 2 from it.
#[test]
fn in_doubt_txn_resolves_against_the_shipped_decision_log() {
    let pm = Arc::new(PartitionMap::new(4, LockPolicy::NoWait));
    let (wal, _) = Wal::in_memory(WalConfig::strict());
    let shipper = Arc::new(LogShipper::new());
    wal.attach_shipper(Arc::clone(&shipper));
    let coord = Coordinator::new(Arc::clone(&pm)).with_wal(Arc::new(wal));

    let part = Arc::clone(&pm.partitions()[0]);
    let participant = PartitionParticipant::new(Arc::clone(&part));
    let ws: Vec<(Key, Value)> = vec![("k".into(), Value::Int(9))];
    let pw = [(&participant as &dyn Participant, ws.as_slice())];
    assert!(coord.run_phase1(TxnId(7), &pw).is_ok());

    // The coordinator crashes before phase 2; the participant sits
    // prepared, locks held. The cloud tails the shipped log instead.
    drop(coord);
    let mut tailer = ReplicaTailer::new(shipper);
    tailer.catch_up();
    let report = recover(tailer.log());
    let decision = report
        .tpc_decisions
        .iter()
        .find(|(t, _)| *t == TxnId(7))
        .map(|(_, c)| *c);
    assert_eq!(decision, Some(true), "the shipped log carries the decision");

    let outcome =
        Coordinator::resolve_in_doubt(decision, TxnId(7), [&participant as &dyn Participant]);
    assert!(matches!(
        outcome,
        croesus::txn::TpcOutcome::Committed { .. }
    ));
    assert_eq!(part.store.get(&"k".into()).as_deref(), Some(&Value::Int(9)));
    assert_eq!(part.locks.locked_keys(), 0, "every prepared lock released");
}
