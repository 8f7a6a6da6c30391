//! Ready-made scenarios over the real stack: scripted multi-stage
//! transactions racing through MS-SR / MS-IA / staged executors with a
//! strict-sync in-memory WAL, a 2PC coordinator crash, and the WAL's
//! buffer pipeline under both thread-free flush drivers.
//!
//! The protocol and 2PC scenarios express the DESIGN.md commit-point table
//! as invariant predicates checked at the end of **every schedule** and at
//! **every WAL-record-boundary crash point** within it:
//!
//! * acked final commits survive any later crash point;
//! * MS-SR transactions un-happen atomically (a commit point implies the
//!   final commit — nothing partial is ever replayed);
//! * MS-IA / staged acked stages are durable commit points;
//! * unfinalized transactions are retracted and apologized for
//!   (apologies ⊇ retracted state — enforced inside [`crate::crash::sweep`]);
//! * 2PC decisions are durable before any participant enters phase 2 and
//!   are never contradicted by in-doubt resolution.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use parking_lot::Mutex;

use croesus_obs::EdgeObs;
use croesus_store::{Key, KvStore, LockManager, LockPolicy, PartitionMap, TxnId, Value};
use croesus_txn::tpc::ParticipantWrites;
use croesus_txn::{
    Coordinator, Executor, ExecutorCore, HistoryRecorder, Participant, PartitionParticipant,
    ProtocolKind, RwSet, StageCtx, TpcOutcome, TxnError, TxnHandle,
};
use croesus_wal::{FlushDriver, LogShipper, MemStorage, Wal, WalConfig};

use crate::crash::{sweep, CrashCut};
use crate::explore::Scenario;
use crate::scheduler::{RunEnd, TaskFn};

/// One operation inside a stage body.
#[derive(Clone, Copy, Debug)]
pub enum StageOp {
    /// `key = value`.
    Write(&'static str, i64),
    /// `key += delta` (missing reads as 0).
    Add(&'static str, i64),
    /// `dst = src` (missing reads as 0) — a dependent read, the probe for
    /// dirty-read/commit-point bugs.
    CopyFrom(&'static str, &'static str),
    /// `ctx.retract_self(reason)` — the apology path.
    RetractSelf(&'static str),
}

/// One stage: its declared read/write set and its body.
#[derive(Clone, Debug)]
pub struct StageScript {
    /// Declared footprint (binding under MS-SR).
    pub rw: RwSet,
    /// Operations the body performs, in order.
    pub ops: Vec<StageOp>,
}

/// A scripted multi-stage transaction.
#[derive(Clone, Debug)]
pub struct TxnScript {
    /// Transaction id (WaitDie age: smaller = older).
    pub txn: TxnId,
    /// The stages, initial first.
    pub stages: Vec<StageScript>,
}

/// A stage-commit acknowledgement, as the client would see it: sampled
/// *after* the stage call returned, with the WAL record count at that
/// moment. `records_at_ack ≤` a crash cut's frame count means everything
/// the client was promised is inside that cut.
#[derive(Clone, Copy, Debug)]
pub struct Ack {
    /// The transaction.
    pub txn: TxnId,
    /// Stage index.
    pub stage: usize,
    /// Whether this was the final stage.
    pub is_final: bool,
    /// `wal.stats().records` right after the stage returned.
    pub records_at_ack: u64,
    /// The stage aborted instead of committing.
    pub aborted: bool,
}

// ---------------------------------------------------------------------------
// Plumbing every scenario shares
// ---------------------------------------------------------------------------

/// The verdict on how a schedule ended: a panicking task is a violation,
/// and so is a deadlock, reported as `deadlock` followed by the blocked
/// tasks.
fn completed(end: &RunEnd, deadlock: &str) -> Result<(), String> {
    match end {
        RunEnd::Complete => Ok(()),
        RunEnd::Panic { message } => Err(format!("task panic: {message}")),
        RunEnd::Deadlock { blocked } => Err(format!("{deadlock}: {blocked:?}")),
    }
}

/// Fold a store into a fingerprint in key order, so two schedules that
/// reach the same contents hash alike.
fn hash_store(store: &KvStore, h: &mut DefaultHasher) {
    let mut snapshot = store.snapshot();
    snapshot.sort_by(|a, b| a.0.as_str().cmp(b.0.as_str()));
    for (k, v) in snapshot {
        k.as_str().hash(h);
        format!("{:?}", v.value).hash(h);
    }
}

/// Flush the schedule's WAL and crash at every frame boundary of what it
/// logged ([`sweep`]), with `extra` as the scenario's per-cut predicate.
/// Returns the swept log.
fn flush_and_sweep(
    wal: &Wal,
    probe: &MemStorage,
    extra: impl FnMut(&CrashCut<'_>) -> Result<(), String>,
) -> Result<Vec<u8>, String> {
    wal.flush()
        .map_err(|e| format!("final flush failed: {e}"))?;
    let log = wal.epoch_bytes(probe);
    sweep(&log, extra)?;
    Ok(log)
}

/// Replay the schedule's event stream through the executable ordering
/// contract; a disabled stream passes.
fn check_trace(obs: &EdgeObs) -> Result<(), String> {
    if obs.is_enabled() {
        croesus_obs::check_stream(&obs.events(), obs.dropped() > 0)
            .map_err(|v| format!("event-ordering contract: {v}"))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Scripted transactions through one protocol executor
// ---------------------------------------------------------------------------

/// The world one schedule runs in: a fresh executor + store + strict-sync
/// in-memory WAL, rebuilt per schedule.
pub struct ProtoWorld {
    /// The executor under test (its store and locks via `core()`).
    pub protocol: Executor,
    /// Its WAL (strict sync: every append is durable on return).
    pub wal: Arc<Wal>,
    /// The WAL's backing storage — `wal.epoch_bytes(&probe)` is the
    /// crash-sweep input.
    pub probe: MemStorage,
    /// History recorder for the serializability checks.
    pub history: HistoryRecorder,
    /// Client-visible acks, in ack order.
    pub acks: Mutex<Vec<Ack>>,
    /// The observability stream (disabled unless the scenario traces).
    pub obs: EdgeObs,
}

/// Extra per-cut predicate a scenario can attach to the crash sweep.
pub(crate) type CutCheck = Arc<dyn Fn(&CrashCut<'_>) -> Result<(), String> + Send + Sync>;

/// Scripted transactions racing through one protocol executor.
pub struct ProtocolScenario {
    /// Which protocol.
    pub kind: ProtocolKind,
    /// Scenario label for reports.
    pub label: String,
    /// Lock policy override (`None` = the protocol's default). Under
    /// `Some(LockPolicy::Block)` deadlocking schedules are legitimate
    /// outcomes (the MS-SR Block-policy demo), not violations.
    pub policy: Option<LockPolicy>,
    /// The racing transactions, one task each.
    pub scripts: Vec<TxnScript>,
    /// Arm the MS-SR log-final-after-release mutation (self-test).
    pub mutate_ms_sr: bool,
    /// Scenario-specific crash-cut predicate.
    pub extra_crash_check: Option<CutCheck>,
    /// Collect a structured event trace and verify it against the
    /// `croesus_obs` ordering contract at the end of every schedule.
    pub trace: bool,
}

impl ProtocolScenario {
    /// A scenario on the protocol's default lock policy, unmutated,
    /// untraced and with no extra crash-cut predicate.
    fn new(kind: ProtocolKind, label: &str, scripts: Vec<TxnScript>) -> Self {
        ProtocolScenario {
            kind,
            label: label.into(),
            policy: None,
            scripts,
            mutate_ms_sr: false,
            extra_crash_check: None,
            trace: false,
        }
    }

    /// Enable per-schedule event tracing + ordering-contract checking.
    #[must_use]
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }
}

fn apply_ops(ctx: &mut StageCtx<'_>, ops: &[StageOp]) -> Result<(), TxnError> {
    for op in ops {
        match *op {
            StageOp::Write(key, v) => ctx.write(key, v)?,
            StageOp::Add(key, delta) => {
                let cur = ctx.read(key)?.and_then(|v| v.as_int()).unwrap_or(0);
                ctx.write(key, cur + delta)?;
            }
            StageOp::CopyFrom(src, dst) => {
                let cur = ctx.read(src)?.and_then(|v| v.as_int()).unwrap_or(0);
                ctx.write(dst, cur)?;
            }
            StageOp::RetractSelf(reason) => {
                ctx.retract_self(reason);
            }
        }
    }
    Ok(())
}

fn run_script(world: &ProtoWorld, script: &TxnScript) {
    let rws: Vec<RwSet> = script.stages.iter().map(|s| s.rw.clone()).collect();
    let mut handle: Option<TxnHandle> = Some(world.protocol.begin(script.txn, &rws));
    for (i, s) in script.stages.iter().enumerate() {
        let h = handle
            .take()
            .expect("script length matches declared stages");
        let next = world
            .protocol
            .stage(h, &s.rw, |ctx| apply_ops(ctx, &s.ops))
            .map(|(_, next)| next);
        world.acks.lock().push(Ack {
            txn: script.txn,
            stage: i,
            is_final: matches!(next, Ok(None)),
            records_at_ack: world.wal.stats().records,
            aborted: next.is_err(),
        });
        // An abort rolled everything back and the client sees it. No
        // retry: keeps the schedule space finite.
        let Ok(next) = next else { return };
        handle = next;
    }
}

impl Scenario for ProtocolScenario {
    type World = ProtoWorld;

    fn name(&self) -> String {
        format!("{}/{}", self.kind.paper_name(), self.label)
    }

    fn build(&self) -> Arc<ProtoWorld> {
        let policy = self
            .policy
            .unwrap_or_else(|| self.kind.default_lock_policy());
        let history = HistoryRecorder::new();
        let (wal, probe) = Wal::in_memory(WalConfig::strict());
        let obs = if self.trace {
            EdgeObs::standalone(0)
        } else {
            EdgeObs::disabled()
        };
        wal.set_obs(obs.clone());
        let wal = Arc::new(wal);
        let core = ExecutorCore::new(Arc::new(KvStore::new()), Arc::new(LockManager::new(policy)))
            .with_history(history.clone())
            .with_obs(obs.clone())
            .with_wal(Arc::clone(&wal));
        let protocol = self.kind.build(core);
        if self.mutate_ms_sr {
            protocol.enable_log_final_after_release_mutation();
        }
        Arc::new(ProtoWorld {
            protocol,
            wal,
            probe,
            history,
            acks: Mutex::new(Vec::new()),
            obs,
        })
    }

    fn tasks(&self, world: &Arc<ProtoWorld>) -> Vec<TaskFn> {
        self.scripts
            .iter()
            .map(|script| {
                let world = Arc::clone(world);
                let script = script.clone();
                Box::new(move || run_script(&world, &script)) as TaskFn
            })
            .collect()
    }

    fn fingerprint(&self, world: &ProtoWorld) -> u64 {
        let mut h = DefaultHasher::new();
        hash_store(world.protocol.store(), &mut h);
        world.wal.epoch_bytes(&world.probe).hash(&mut h);
        world.protocol.core().locks().locked_keys().hash(&mut h);
        format!("{:?}", world.history.events()).hash(&mut h);
        for a in world.acks.lock().iter() {
            (a.txn.0, a.stage, a.is_final, a.records_at_ack, a.aborted).hash(&mut h);
        }
        h.finish()
    }

    fn check(&self, world: &ProtoWorld, end: &RunEnd) -> Result<(), String> {
        if self.policy == Some(LockPolicy::Block) && matches!(end, RunEnd::Deadlock { .. }) {
            // The crossed-lock deadlock the Block-policy demo must find.
            return Ok(());
        }
        completed(end, "unexpected deadlock")?;

        // Every transaction finished (committed or aborted): no lock may
        // survive the schedule.
        let leaked = world.protocol.core().locks().locked_keys();
        if leaked != 0 {
            return Err(format!("{leaked} locks leaked after all txns finished"));
        }

        // The ordering contract holds on every explored interleaving, not
        // just the fault-free fleet runs.
        check_trace(&world.obs)?;

        let checker = world.history.checker();
        match self.kind {
            ProtocolKind::MsSr => checker
                .check_ms_sr()
                .map_err(|e| format!("MS-SR history: {e}"))?,
            ProtocolKind::MsIa | ProtocolKind::Staged => checker
                .check_stage_order()
                .map_err(|e| format!("stage order: {e}"))?,
        }

        let acks = world.acks.lock().clone();
        let ms_sr = self.kind == ProtocolKind::MsSr;
        flush_and_sweep(&world.wal, &world.probe, |cut| {
            // MS-SR un-happens atomically: its only durable commit point is
            // the final one, so a replayed commit point implies FINAL.
            if ms_sr {
                for t in &cut.oracle.initial {
                    if !cut.oracle.finalized.contains(t) {
                        return Err(format!(
                            "MS-SR txn {t} replayed a non-final commit point — \
                             partial transactions must un-happen"
                        ));
                    }
                }
            }
            // Acked durability: anything acknowledged to the client by
            // record `r` must be honoured by every cut that contains `r`.
            for a in acks.iter().filter(|a| !a.aborted) {
                if (a.records_at_ack as usize) > cut.frames {
                    continue;
                }
                // Under MS-IA and staged every stage is a client-visible
                // durable commit; under MS-SR only the final one is.
                if !ms_sr && !cut.oracle.initial.contains(&a.txn.0) {
                    return Err(format!(
                        "acked stage {} of {} lost at this cut",
                        a.stage, a.txn
                    ));
                }
                if a.is_final && !cut.oracle.finalized.contains(&a.txn.0) {
                    return Err(format!("acked final commit of {} lost at this cut", a.txn));
                }
            }
            if let Some(f) = &self.extra_crash_check {
                f(cut)?;
            }
            Ok(())
        })?;
        Ok(())
    }
}

/// A two-stage script: each stage's declared footprint and body.
fn script(txn: u64, stages: [(RwSet, Vec<StageOp>); 2]) -> TxnScript {
    TxnScript {
        txn: TxnId(txn),
        stages: stages
            .into_iter()
            .map(|(rw, ops)| StageScript { rw, ops })
            .collect(),
    }
}

/// The canonical 2-txn / 2-stage conflict: t1 rewrites `a`; t2 copies `a`
/// into `b` and then bumps `b`. Exhaustively explorable for all three
/// protocols.
#[must_use]
pub fn two_txn_two_stage(kind: ProtocolKind) -> ProtocolScenario {
    ProtocolScenario::new(
        kind,
        "2txn-2stage",
        vec![
            script(
                1,
                [
                    (RwSet::new().write("a"), vec![StageOp::Write("a", 1)]),
                    (RwSet::new().write("a"), vec![StageOp::Write("a", 10)]),
                ],
            ),
            script(
                2,
                [
                    (
                        RwSet::new().read("a").write("b"),
                        vec![StageOp::CopyFrom("a", "b")],
                    ),
                    (RwSet::new().write("b"), vec![StageOp::Add("b", 100)]),
                ],
            ),
        ],
    )
}

/// MS-IA's apology path: t1 retracts itself in its final section while t2
/// commits independently — the crash sweep checks retraction records and
/// apology coverage at every cut.
#[must_use]
pub fn retract_self(kind: ProtocolKind) -> ProtocolScenario {
    ProtocolScenario::new(
        kind,
        "retract-self",
        vec![
            script(
                1,
                [
                    (RwSet::new().write("a"), vec![StageOp::Write("a", 1)]),
                    (
                        RwSet::new().write("a"),
                        vec![
                            StageOp::RetractSelf("cloud disagreed"),
                            StageOp::Write("a", 2),
                        ],
                    ),
                ],
            ),
            script(
                2,
                [
                    (RwSet::new().write("b"), vec![StageOp::Write("b", 5)]),
                    (RwSet::new().write("b"), vec![StageOp::Add("b", 1)]),
                ],
            ),
        ],
    )
}

/// The MS-SR Block-policy hazard: crossing initial/later lock sets
/// genuinely deadlock under `LockPolicy::Block` — the reason MS-SR
/// defaults to WaitDie. The checker must *find* the deadlocking schedule.
#[must_use]
pub fn ms_sr_block_deadlock() -> ProtocolScenario {
    let crossed = |txn, first, then, v| {
        script(
            txn,
            [
                (RwSet::new().write(first), vec![StageOp::Write(first, v)]),
                (RwSet::new().write(then), vec![StageOp::Write(then, v)]),
            ],
        )
    };
    ProtocolScenario {
        policy: Some(LockPolicy::Block),
        ..ProtocolScenario::new(
            ProtocolKind::MsSr,
            "block-deadlock",
            vec![crossed(1, "x", "y", 1), crossed(2, "y", "x", 2)],
        )
    }
}

/// The mutation self-test scenario: t1's final section writes `x = 1`; t2
/// copies `x` into `y`. Under the armed mutation (final commit logged
/// *after* lock release) a schedule exists where t2 commits durably with
/// `y = 1` while t1's final record is still unlogged — the crash-cut
/// predicate below catches exactly that.
#[must_use]
pub fn ms_sr_commit_point(mutate: bool) -> ProtocolScenario {
    let scripts = vec![
        script(
            1,
            [
                (RwSet::new().write("x"), vec![]),
                (RwSet::new().write("x"), vec![StageOp::Write("x", 1)]),
            ],
        ),
        script(
            2,
            [
                (
                    RwSet::new().read("x").write("y"),
                    vec![StageOp::CopyFrom("x", "y")],
                ),
                (RwSet::new(), vec![]),
            ],
        ),
    ];
    let label = if mutate {
        "commit-point-mutated"
    } else {
        "commit-point"
    };
    ProtocolScenario {
        mutate_ms_sr: mutate,
        extra_crash_check: Some(Arc::new(|cut: &CrashCut<'_>| {
            // If t2's committed `y` carries t1's final value, t1's final
            // commit must be in the same durable prefix — otherwise a
            // crash resurrects a value derived from a transaction that
            // un-happened.
            let y_is_dirty = cut.oracle.finalized.contains(&2)
                && cut.oracle.store.get("y") == Some(&Value::Int(1))
                && !cut.oracle.finalized.contains(&1);
            if y_is_dirty {
                Err("t2 durably committed y copied from t1's unlogged final write".into())
            } else {
                Ok(())
            }
        })),
        ..ProtocolScenario::new(ProtocolKind::MsSr, label, scripts)
    }
}

/// A 3-txn scenario over a shared hot key — too large to enumerate within
/// a small DFS budget, exercising the seeded-sampling fallback.
#[must_use]
pub fn three_txn_hot_key(kind: ProtocolKind) -> ProtocolScenario {
    let hot = |txn| {
        script(
            txn,
            [
                (
                    RwSet::new().read("hot").write("hot"),
                    vec![StageOp::Add("hot", 1)],
                ),
                (
                    RwSet::new().write("hot").write("out"),
                    vec![StageOp::Add("hot", 1), StageOp::CopyFrom("hot", "out")],
                ),
            ],
        )
    };
    ProtocolScenario::new(kind, "3txn-hot-key", vec![hot(1), hot(2), hot(3)])
}

// ---------------------------------------------------------------------------
// 2PC coordinator crash
// ---------------------------------------------------------------------------

/// The world of the 2PC scenario: two partitions, a WAL-backed
/// coordinator, one transaction that crashes between phases and one that
/// races it to completion.
pub struct TpcWorld {
    /// The partitions.
    pub pm: Arc<PartitionMap>,
    /// The coordinator (decision log attached).
    pub coord: Coordinator,
    /// The coordinator's WAL.
    pub wal: Arc<Wal>,
    /// Backing storage of the WAL.
    pub probe: MemStorage,
    /// Prepared participants of the crashing transaction, kept so recovery
    /// can finish phase 2 after the run.
    pub crashed: Vec<(PartitionParticipant, Vec<(Key, Value)>)>,
    /// Phase-1 result of the crashing transaction (`None` until it ran).
    pub phase1: Mutex<Option<bool>>,
    /// Outcome of the racing transaction: (committed, records at return).
    pub raced: Mutex<Option<(bool, u64)>>,
}

/// A coordinator that crashes after phase 1 (txn 1) racing a full 2PC
/// commit (txn 2) that conflicts with it on one key. Every interleaving of
/// prepares, the decision append and phase-2 commits is explored; every
/// crash cut checks decision durability; and the post-run in-doubt
/// resolution must agree with whatever the log says.
pub struct TpcCoordinatorCrash;

/// Writes for the crashing transaction: one key on each partition.
fn crash_writes(pm: &PartitionMap) -> Vec<(Key, Value)> {
    let mut writes: Vec<(Key, Value)> = Vec::new();
    let mut covered: Vec<bool> = vec![false; pm.partitions().len()];
    let mut i = 0u64;
    while covered.iter().any(|c| !c) {
        let k = Key::indexed("w", i);
        let pid = pm.partition_of(&k).id;
        let idx = pm.partitions().iter().position(|p| p.id == pid).unwrap();
        if !covered[idx] {
            covered[idx] = true;
            writes.push((k, Value::Int(i as i64 + 1)));
        }
        i += 1;
    }
    writes.sort_by(|a, b| a.0.as_str().cmp(b.0.as_str()));
    writes
}

impl Scenario for TpcCoordinatorCrash {
    type World = TpcWorld;

    fn name(&self) -> String {
        "2pc/coordinator-crash".into()
    }

    fn build(&self) -> Arc<TpcWorld> {
        let pm = Arc::new(PartitionMap::new(2, LockPolicy::NoWait));
        let (wal, probe) = Wal::in_memory(WalConfig::strict());
        let wal = Arc::new(wal);
        let coord = Coordinator::new(Arc::clone(&pm)).with_wal(Arc::clone(&wal));
        let writes = crash_writes(&pm);
        let crashed: Vec<(PartitionParticipant, Vec<(Key, Value)>)> = pm
            .group_by_partition(writes.iter().map(|(k, _)| k))
            .into_iter()
            .map(|(pid, keys)| {
                let part = Arc::clone(pm.get(pid).expect("valid partition id"));
                let ws: Vec<(Key, Value)> = writes
                    .iter()
                    .filter(|(k, _)| keys.contains(k))
                    .cloned()
                    .collect();
                (PartitionParticipant::new(part), ws)
            })
            .collect();
        Arc::new(TpcWorld {
            pm,
            coord,
            wal,
            probe,
            crashed,
            phase1: Mutex::new(None),
            raced: Mutex::new(None),
        })
    }

    fn tasks(&self, world: &Arc<TpcWorld>) -> Vec<TaskFn> {
        let w1 = Arc::clone(world);
        let w2 = Arc::clone(world);
        vec![
            // The crashing coordinator: phase 1 only, then the task ends —
            // modelling a crash between the phases. Participants stay
            // prepared (locks held) until post-run resolution.
            Box::new(move || {
                let pw: Vec<ParticipantWrites<'_>> = w1
                    .crashed
                    .iter()
                    .map(|(p, ws)| (p as &dyn Participant, ws.as_slice()))
                    .collect();
                let ok = w1.coord.run_phase1(TxnId(1), &pw).is_ok();
                *w1.phase1.lock() = Some(ok);
            }),
            // The racing transaction: a full 2PC commit conflicting on the
            // crashing transaction's first key.
            Box::new(move || {
                let mut writes = crash_writes(&w2.pm);
                writes.truncate(1); // the shared, conflicting key
                writes[0].1 = Value::Int(77);
                let outcome = w2.coord.commit_writes(TxnId(2), &writes);
                let committed = matches!(outcome, TpcOutcome::Committed { .. });
                *w2.raced.lock() = Some((committed, w2.wal.stats().records));
            }),
        ]
    }

    fn fingerprint(&self, world: &TpcWorld) -> u64 {
        let mut h = DefaultHasher::new();
        world.wal.epoch_bytes(&world.probe).hash(&mut h);
        for p in world.pm.partitions() {
            p.locks.locked_keys().hash(&mut h);
            hash_store(&p.store, &mut h);
        }
        format!("{:?} {:?}", *world.phase1.lock(), *world.raced.lock()).hash(&mut h);
        h.finish()
    }

    fn check(&self, world: &TpcWorld, end: &RunEnd) -> Result<(), String> {
        completed(end, "2PC under NoWait must not deadlock")?;
        let raced = world.raced.lock().expect("racing task finished");
        let log = flush_and_sweep(&world.wal, &world.probe, |cut| {
            // The racing txn's acked commit implies its durable decision:
            // any cut containing the records present at its return must
            // contain the commit decision (possibly already expired by the
            // phase-2-complete record, which only ever follows it).
            let (committed, records_at_return) = raced;
            if (records_at_return as usize) <= cut.frames {
                match cut.oracle.tpc_all.get(&2) {
                    Some(&decision) if decision == committed => {}
                    Some(&decision) => {
                        return Err(format!(
                            "txn 2 returned {} but the durable decision says {}",
                            if committed { "commit" } else { "abort" },
                            if decision { "commit" } else { "abort" },
                        ))
                    }
                    None => {
                        return Err("txn 2 returned before its 2PC decision was durable".to_string())
                    }
                }
            }
            // Never contradicted: a cut without txn 1's decision record
            // presumes abort — legal only while no participant has entered
            // phase 2, which holds by construction (txn 1 never starts
            // phase 2) — and a cut *with* the decision must resolve to it.
            if let Some(&decision) = cut.oracle.tpc.get(&1) {
                let resolved = cut.report.tpc_decisions.iter().find(|(t, _)| t.0 == 1);
                if resolved.map(|(_, c)| *c) != Some(decision) {
                    return Err("recovery dropped txn 1's live decision record".to_string());
                }
            }
            Ok(())
        })?;

        // Post-crash resolution: a new coordinator epoch reads the durable
        // decision and finishes phase 2. The resolution must agree with
        // phase 1's outcome and leave no lock held anywhere.
        let phase1 = world.phase1.lock().expect("crashing task ran phase 1");
        let report = croesus_wal::recover(&log);
        let decision = report
            .tpc_decisions
            .iter()
            .find(|(t, _)| t.0 == 1)
            .map(|(_, c)| *c);
        if decision != Some(phase1) {
            return Err(format!(
                "phase 1 {} but the log's decision is {decision:?}",
                if phase1 { "committed" } else { "aborted" }
            ));
        }
        let outcome = Coordinator::resolve_in_doubt(
            decision,
            TxnId(1),
            world.crashed.iter().map(|(p, _)| p as &dyn Participant),
        );
        match (phase1, outcome) {
            (true, TpcOutcome::Committed { .. }) => {
                for (k, v) in world.crashed.iter().flat_map(|(_, ws)| ws) {
                    if world.pm.partition_of(k).store.get(k).as_deref() != Some(v) {
                        return Err(format!("resolved commit lost write {k}"));
                    }
                }
            }
            (false, TpcOutcome::Aborted { .. }) => {}
            (p1, out) => {
                return Err(format!(
                    "in-doubt resolution ({out:?}) contradicts phase 1 (ok={p1})"
                ))
            }
        }
        for p in world.pm.partitions() {
            if p.locks.locked_keys() != 0 {
                return Err(format!(
                    "partition {:?} leaked locks after resolution",
                    p.id
                ));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The WAL's buffer pipeline: appender / step / shipper interleavings
// ---------------------------------------------------------------------------

/// The world of the WAL-pipeline scenario: one writer whose sealed
/// buffers are landed by virtual tasks (never a thread), its shared
/// in-memory device probe, its shipper, and the observations the monitor
/// and appenders record for [`WalPipelineScenario::check`].
pub struct WalPipelineWorld {
    /// The writer under test.
    pub wal: Wal,
    /// Shared handle on the writer's device: `durable()` is what a crash
    /// would keep right now.
    pub probe: MemStorage,
    /// The publication side of the shipping contract.
    pub shipper: Arc<LogShipper>,
    /// `(requested LSN, boundary at ack)` for every `flush_lsn` return.
    pub acks: Mutex<Vec<(u64, u64)>>,
    /// `last_flushed_lsn` samples, in observation order (appenders and
    /// monitor all contribute).
    pub boundaries: Mutex<Vec<u64>>,
    /// First shipped-⊆-durable breach the monitor observed, if any.
    pub ship_breach: Mutex<Option<String>>,
    /// The writer's event stream, checked against the ordering contract
    /// at the end of every schedule.
    pub obs: EdgeObs,
}

impl WalPipelineWorld {
    fn sample(&self) {
        self.boundaries.lock().push(self.wal.last_flushed_lsn());
        // Read the published side *first*: publication follows the sync,
        // so durable sampled second can only be larger — a transient
        // reordering here can never fake a breach.
        let shipped = self.shipper.shipped_len();
        let durable = self.probe.durable().len();
        if shipped > durable {
            let mut breach = self.ship_breach.lock();
            if breach.is_none() {
                *breach = Some(format!(
                    "shipping contract breach: shipped {shipped} bytes > durable {durable} bytes"
                ));
            }
        }
    }

    /// Log one group-1 commit point per `(txn, key)` — each seals a
    /// buffer — then ack each with `flush_lsn`.
    fn append_and_ack(&self, commits: &[(u64, &'static str)]) {
        let lsns: Vec<u64> = commits
            .iter()
            .map(|&(txn, key)| {
                let record = WalPipelineScenario::commit_record(txn, key, txn as i64);
                self.wal.append_stage(record).unwrap()
            })
            .collect();
        for lsn in lsns {
            self.wal.flush_lsn(lsn).unwrap();
            let boundary = self.wal.last_flushed_lsn();
            self.acks.lock().push((lsn, boundary));
            self.boundaries.lock().push(boundary);
        }
    }
}

/// The WAL's seal → `step` → boundary pipeline under the model checker,
/// once per way of driving `step` without a thread, plus a **monitor**
/// sampling the boundary and the shipped-vs-durable byte counts between
/// explicit yield points:
///
/// * [`FlushDriver::Manual`] — an **appender** logging two commit points
///   (the second append's seal exercises the LSN-boundary backpressure
///   wait) and a **flusher** task running `flusher_step` until shutdown,
///   parking on `wal.buffer.drain` like the real thread.
/// * [`FlushDriver::Inline`] — **two appenders**, one commit point each.
///   Whoever seals first lands its buffer with the storage checked out
///   while the other appends, fills its own group and must wait out the
///   flight before landing (or finding itself already covered) — the
///   interleaving a single writer mutex never had.
///
/// Every interleaving of the `wal.buffer.*` yield, block and progress
/// points is explored. Invariants: no deadlock, `last_flushed_lsn` is
/// monotone, no `flush_lsn` ack below its requested LSN, shipped ⊆
/// durable at every observation, the final shipped image equals the
/// durable bytes, and the event stream obeys the ordering contract.
///
/// With `mutate` set, the writer publishes each buffer *before* its
/// sync ([`Wal::mutate_publish_before_sync`]) — the deliberately wrong
/// order the shipping contract forbids. The checker must catch it with
/// a replayable trace (the mutation self-test).
pub struct WalPipelineScenario {
    /// Who lands sealed buffers: `Manual` or `Inline`.
    pub driver: FlushDriver,
    /// Publish sealed buffers before their sync (the planted bug).
    pub mutate: bool,
}

/// The canonical instance per driver; `mutate` plants the
/// publish-before-sync bug.
#[must_use]
pub fn wal_pipeline(driver: FlushDriver, mutate: bool) -> WalPipelineScenario {
    assert!(
        !matches!(driver, FlushDriver::Thread { .. }),
        "the checker schedules virtual tasks, not threads"
    );
    WalPipelineScenario { driver, mutate }
}

impl WalPipelineScenario {
    fn commit_record(txn: u64, key: &'static str, val: i64) -> croesus_wal::StageRecord {
        use croesus_wal::{StageFlags, StageRecord, WriteImage};
        StageRecord {
            txn: TxnId(txn),
            stage: 0,
            total: 1,
            flags: StageFlags(StageFlags::COMMIT_POINT | StageFlags::FINAL),
            reads: vec![],
            writes: vec![Key::new(key)],
            images: vec![WriteImage {
                key: Key::new(key),
                pre: None,
                post: Some(Arc::new(Value::Int(val))),
            }],
        }
    }

    fn inline(&self) -> bool {
        matches!(self.driver, FlushDriver::Inline)
    }
}

impl Scenario for WalPipelineScenario {
    type World = WalPipelineWorld;

    fn name(&self) -> String {
        format!(
            "wal/pipeline-{}{}",
            if self.inline() { "inline" } else { "manual" },
            if self.mutate {
                "-publish-before-sync"
            } else {
                ""
            }
        )
    }

    fn build(&self) -> Arc<WalPipelineWorld> {
        let (wal, probe) = Wal::in_memory_with(WalConfig::group(1), self.driver.clone());
        let shipper = Arc::new(LogShipper::new());
        wal.attach_shipper(Arc::clone(&shipper));
        let obs = EdgeObs::standalone(0);
        wal.set_obs(obs.clone());
        if self.mutate {
            wal.mutate_publish_before_sync();
        }
        Arc::new(WalPipelineWorld {
            wal,
            probe,
            shipper,
            acks: Mutex::new(Vec::new()),
            boundaries: Mutex::new(Vec::new()),
            ship_breach: Mutex::new(None),
            obs,
        })
    }

    fn tasks(&self, world: &Arc<WalPipelineWorld>) -> Vec<TaskFn> {
        let task = |f: fn(&WalPipelineWorld)| {
            let w = Arc::clone(world);
            Box::new(move || f(&w)) as TaskFn
        };
        let monitor = task(|w| {
            for _ in 0..3 {
                w.sample();
                croesus_store::sched::yield_point("mcheck.wal.monitor");
            }
            w.sample();
        });
        if self.inline() {
            return vec![
                task(|w| w.append_and_ack(&[(1, "a")])),
                task(|w| w.append_and_ack(&[(2, "b")])),
                monitor,
            ];
        }
        let appender = task(|w| {
            w.append_and_ack(&[(1, "a"), (2, "b")]);
            w.wal.shutdown_flusher();
        });
        let flusher = task(|w| while w.wal.flusher_step().expect("pipeline io") {});
        vec![appender, flusher, monitor]
    }

    fn fingerprint(&self, world: &WalPipelineWorld) -> u64 {
        let mut h = DefaultHasher::new();
        world.acks.lock().hash(&mut h);
        world.boundaries.lock().hash(&mut h);
        world.shipper.shipped_len().hash(&mut h);
        world.wal.epoch_bytes(&world.probe).hash(&mut h);
        world.probe.durable().len().hash(&mut h);
        world.ship_breach.lock().is_some().hash(&mut h);
        h.finish()
    }

    fn check(&self, world: &WalPipelineWorld, end: &RunEnd) -> Result<(), String> {
        completed(
            end,
            "the pipeline must never deadlock — every landed buffer and \
             the shutdown wake every waiter",
        )?;
        if let Some(breach) = world.ship_breach.lock().as_ref() {
            return Err(breach.clone());
        }
        // One task runs at a time and every sample is taken and pushed
        // without a yield in between, so the push order is the global
        // observation order.
        if let Some(w) = world.boundaries.lock().windows(2).find(|w| w[1] < w[0]) {
            return Err(format!(
                "last_flushed_lsn went backwards: {} then {}",
                w[0], w[1]
            ));
        }
        for (requested, at_ack) in world.acks.lock().iter() {
            if at_ack < requested {
                return Err(format!(
                    "flush_lsn({requested}) acked at boundary {at_ack} — \
                     an ack below the flushed boundary"
                ));
            }
        }
        let shipped = world.shipper.image();
        let durable = world.probe.durable();
        if shipped != durable {
            return Err(format!(
                "final shipped image ({} bytes) != durable bytes ({}) after drain",
                shipped.len(),
                durable.len()
            ));
        }
        if world.wal.last_flushed_lsn() != world.wal.latest_lsn() {
            return Err("the run completed with an unflushed acked tail".into());
        }
        // The mutation breaks the contract's `shipped-subset-durable` rule
        // in *every* schedule's trace; the self-test is about the monitor
        // catching it through an interleaving, so only clean runs are
        // held to the trace.
        if self.mutate {
            return Ok(());
        }
        check_trace(&world.obs)
    }
}
