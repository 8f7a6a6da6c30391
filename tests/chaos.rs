//! Chaos tests: seeded fault schedules against the full fleet driver, and
//! the replication paths a failover stands on.
//!
//! Three layers:
//!
//! 1. **Fleet chaos** — `run_fleet` under `FaultPlan::seeded` schedules
//!    (kill / stall / partition / resurrect / corrupt-shipment) across all
//!    three protocols. Invariants: every frame is accounted for, every
//!    takeover is explained by a kill or over-long stall and detected
//!    within the heartbeat timeout, and recovery apologies are owed for
//!    every takeover retraction.
//! 2. **Replica equivalence** — recovering the cloud replica is
//!    byte-for-byte and state-for-state the same as recovering the edge's
//!    own log file.
//! 3. **Cross-edge commits** — the 2PC coordinator path: in-doubt
//!    resolution against the *shipped* decision log, and the regression
//!    that the decision map stays bounded across 10k cross-edge
//!    transactions.
//!
//! The crash/failover oracle — a concurrent transfer workload crashed and
//! recovered from its replica, checked against the linearizability spec
//! (`*_acked_writes_survive_crash_failover`) — lives in
//! `tests/concurrent_conformance.rs`, beside that spec.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

use croesus::core::{Croesus, DurabilityMode, FaultKind, FaultPlan, ReplicaTailer};
use croesus::obs::{check_stream, EventKind, Obs};
use croesus::store::{Key, KvStore, LockManager, LockPolicy, PartitionMap, TxnId, Value};
use croesus::txn::{
    recover_edge_file, Coordinator, ExecutorCore, Participant, PartitionParticipant, ProtocolKind,
    RecoveredEdge, RwSet, StageCtx,
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
    |dir| DurabilityMode::GroupCommit {
        dir: dir.into(),
        group: 1,
    },
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
// Layer 2: replica-vs-in-place recovery equivalence
// ------------------------------------------------------------------

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
    store.put("a".into(), Value::Int(100));
    store.put("b".into(), Value::Int(0));
    let core = ExecutorCore::new(
        store,
        Arc::new(LockManager::new(ProtocolKind::MsIa.default_lock_policy())),
    )
    .with_wal(Arc::new(wal));
    let p = ProtocolKind::MsIa.build(core);

    // Two finalized transfers a → b and one dangling guess.
    let rw = RwSet::new().write("a").write("b");
    let transfer = |ctx: &mut StageCtx<'_>, moved: i64| {
        let a = ctx.read("a")?.and_then(|v| v.as_int()).unwrap_or(0);
        let b = ctx.read("b")?.and_then(|v| v.as_int()).unwrap_or(0);
        ctx.write("a", a - moved)?;
        ctx.write("b", b + moved)
    };
    for i in 0..2u64 {
        let h = p.begin(TxnId(i), &[rw.clone(), rw.clone()]);
        let (_, pending) = p.stage(h, &rw, |ctx| transfer(ctx, 1)).unwrap();
        p.stage(pending.unwrap(), &rw, |ctx| transfer(ctx, 2))
            .unwrap();
    }
    let h = p.begin(TxnId(9), &[rw.clone(), rw.clone()]);
    p.stage(h, &rw, |ctx| transfer(ctx, 1)).unwrap();
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
        from_replica.store.snapshot(),
        in_place.store.snapshot(),
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
