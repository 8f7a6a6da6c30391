//! The unified multi-stage protocol API.
//!
//! The paper's central claim is that multi-stage transactions are *one*
//! model with interchangeable consistency protocols: "we propose two
//! variants of safety guarantees — multi-stage serializability (MS-SR) and
//! multi-stage invariant confluence (MS-IA)" (§4). MS-SR and MS-IA (and the
//! generalized m-stage discipline of §3.5) differ only in *when* locks are
//! released and *how* later stages are ordered and repaired; everything
//! else — the store, the lock manager, undo logging, statistics, history
//! recording, apologies — is shared.
//!
//! This module makes that claim executable:
//!
//! * [`ExecutorCore`] owns the shared state every protocol needs, and
//!   the stage lifecycle every protocol runs: `execute` (events, history,
//!   undo log, contexts, the body, the one error policy), `commit_stage`
//!   (WAL record, history commit, `StageEnd`, initial-commit bookkeeping)
//!   and `finish` (final-commit bookkeeping, or the next handle). A
//!   protocol adds only its lock schedule around those three calls and
//!   the `commit_point` / `register` flags it passes.
//! * [`TxnHandle`] is the affine token threaded through the stages; it
//!   carries the per-transaction protocol state (MS-SR's held locks), so
//!   no executor keeps a table of in-flight transactions.
//! * [`Executor`] is a [`ProtocolKind`] over a core:
//!   [`begin`](Executor::begin) declares a transaction and its per-stage
//!   read/write sets, [`run_stage`](Executor::run_stage) executes one
//!   section and returns a typed [`StageOutcome`], and
//!   [`abort`](Executor::abort) gives up before initial commit.
//!   `run_stage`'s one `match` on the kind is the only place a lock
//!   schedule is chosen, so pipelines, benches and tests are
//!   parameterized by protocol with a value, not a type.
//!
//! ```
//! use std::sync::Arc;
//! use croesus_store::{KvStore, LockManager, LockPolicy, TxnId, Value};
//! use croesus_txn::{ExecutorCore, ProtocolKind, RwSet};
//!
//! let core = ExecutorCore::new(
//!     Arc::new(KvStore::new()),
//!     Arc::new(LockManager::new(LockPolicy::Block)),
//! );
//! // Any protocol, same driver code:
//! let protocol = ProtocolKind::MsIa.build(core);
//! let rw = RwSet::new().write("x");
//! let handle = protocol.begin(TxnId(1), &[rw.clone(), rw.clone()]);
//! let (_, next) = protocol
//!     .stage(handle, &rw, |ctx| ctx.write("x", 1))
//!     .unwrap();
//! protocol
//!     .stage(next.unwrap(), &rw, |ctx| ctx.write("x", 2))
//!     .unwrap();
//! assert_eq!(protocol.store().get(&"x".into()).as_deref(), Some(&Value::Int(2)));
//! ```

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use croesus_obs::{EdgeObs, EventKind, HistKind};
use croesus_store::{Key, KvStore, LockManager, LockMode, TxnId, UndoLog};
use croesus_wal::{RetractRecord, StageFlags, StageRecord, Wal, WriteImage};

use crate::apology::{ApologyManager, RetractionReport};
use crate::history::{HistoryRecorder, SectionKind};
use crate::model::{RwSet, SectionCtx, SectionOutput, TxnError};
use crate::stats::ProtocolStats;

/// The three multi-stage consistency protocols of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Multi-stage serializability via Two-Stage 2PL (Algorithm 1, see
    /// [`crate::ms_sr`]): later stages' locks are acquired before initial
    /// commit and held to the end, so sections of a transaction appear
    /// back-to-back in the serial order.
    MsSr,
    /// Multi-stage invariant confluence with apologies (Algorithm 2, see
    /// [`crate::ms_ia`]): every stage commits and releases its locks
    /// immediately; later stages reconcile errors with retractions and
    /// apologies.
    MsIa,
    /// The generalized m-stage discipline of §3.5 (see [`crate::staged`]):
    /// the MS-IA release schedule, with every stage's footprint registered
    /// as a retractable guess until the transaction's last stage confirms
    /// it.
    Staged,
}

impl ProtocolKind {
    /// All protocols, for matrices and conformance sweeps.
    pub const ALL: [ProtocolKind; 3] =
        [ProtocolKind::MsSr, ProtocolKind::MsIa, ProtocolKind::Staged];

    /// The paper's name for the protocol.
    #[must_use]
    pub fn paper_name(self) -> &'static str {
        match self {
            ProtocolKind::MsSr => "MS-SR",
            ProtocolKind::MsIa => "MS-IA",
            ProtocolKind::Staged => "staged",
        }
    }

    /// The lock policy a single-pipeline deployment should pair with this
    /// protocol. MS-SR holds locks across the edge→cloud round trip, so a
    /// blocking policy could stall a sequenced pipeline on a conflict;
    /// wait-die turns that into the abort-and-drop behaviour the paper
    /// reports (Fig. 6b). MS-IA and the staged discipline release between
    /// stages and are safe to block under the sequencer.
    #[must_use]
    pub fn default_lock_policy(self) -> croesus_store::LockPolicy {
        match self {
            ProtocolKind::MsSr => croesus_store::LockPolicy::WaitDie,
            ProtocolKind::MsIa | ProtocolKind::Staged => croesus_store::LockPolicy::Block,
        }
    }

    /// The executor running this protocol's lock schedule over `core`.
    #[must_use]
    pub fn build(self, core: ExecutorCore) -> Executor {
        Executor {
            kind: self,
            core,
            #[cfg(feature = "mcheck")]
            mutate_log_final_after_release: std::sync::atomic::AtomicBool::new(false),
        }
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.paper_name())
    }
}

/// The state shared by every protocol executor: the store, the lock
/// manager, statistics, the (optional) history recorder, and the apology
/// manager. Protocols differ in *when* they use these, never in *what*
/// they hold.
pub struct ExecutorCore {
    store: Arc<KvStore>,
    locks: Arc<LockManager>,
    stats: Arc<ProtocolStats>,
    history: Option<HistoryRecorder>,
    apologies: Arc<ApologyManager>,
    wal: Option<Arc<Wal>>,
    /// High-water mark of the LSNs this core's commit points were acked
    /// at (0 until the first logged stage). LSNs are global, so this
    /// is the boundary a client-visible ack is durable at-or-below.
    acked_lsn: AtomicU64,
    obs: EdgeObs,
}

impl ExecutorCore {
    /// A core over a store and lock manager.
    #[must_use]
    pub fn new(store: Arc<KvStore>, locks: Arc<LockManager>) -> Self {
        ExecutorCore {
            store,
            locks,
            stats: Arc::new(ProtocolStats::new()),
            history: None,
            apologies: Arc::new(ApologyManager::new()),
            wal: None,
            acked_lsn: AtomicU64::new(0),
            obs: EdgeObs::disabled(),
        }
    }

    /// Attach a history recorder (for the §4 safety checkers).
    #[must_use]
    pub fn with_history(mut self, history: HistoryRecorder) -> Self {
        self.history = Some(history);
        self
    }

    /// Attach a write-ahead log: every protocol logs its stages through
    /// the same hook (the crate-internal `log_stage`), differing only in
    /// which stage carries the durable commit point — every stage under
    /// the lock-releasing protocols, final commit only under MS-SR.
    /// Without a WAL attached, execution is byte-identical with the
    /// pre-durability system.
    #[must_use]
    pub fn with_wal(mut self, wal: Arc<Wal>) -> Self {
        self.wal = Some(wal);
        self
    }

    /// Start from an already-populated apology manager (the crash-recovery
    /// path re-registers the entries rebuilt from the log).
    #[must_use]
    pub fn with_apologies(mut self, apologies: Arc<ApologyManager>) -> Self {
        self.apologies = apologies;
        self
    }

    /// Attach a structured-observability stream: every stage lifecycle
    /// transition is emitted as a typed event and commit latencies feed
    /// the per-edge histograms. The default is the disabled handle, so
    /// unobserved execution takes a single branch per emission site and
    /// stays byte-identical with the uninstrumented system.
    #[must_use]
    pub fn with_obs(mut self, obs: EdgeObs) -> Self {
        self.obs = obs;
        self
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<KvStore> {
        &self.store
    }

    /// The lock manager.
    pub fn locks(&self) -> &Arc<LockManager> {
        &self.locks
    }

    /// The statistics collector.
    pub fn stats(&self) -> &Arc<ProtocolStats> {
        &self.stats
    }

    /// The history recorder, if attached.
    pub fn history(&self) -> Option<&HistoryRecorder> {
        self.history.as_ref()
    }

    /// The apology manager.
    pub fn apologies(&self) -> &Arc<ApologyManager> {
        &self.apologies
    }

    /// The write-ahead log, if durability is enabled.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// The observability stream handle (disabled unless attached).
    pub fn obs(&self) -> &EdgeObs {
        &self.obs
    }

    /// The shared durability hook: serialize one executed stage — its
    /// write images (pre + post) and commit metadata — into the WAL. Runs
    /// while the stage's locks are still held, so the log order equals the
    /// commit order. At a commit point the group-commit policy decides
    /// whether this call pays the sync, and the checkpoint schedule may
    /// fold the log down to a snapshot (the commit path is the documented
    /// quiescent point for checkpoints).
    fn log_stage(
        &self,
        handle: &TxnHandle,
        rw: &RwSet,
        undo: &UndoLog,
        commit_point: bool,
        register: bool,
    ) -> Option<u64> {
        let Some(wal) = &self.wal else { return None };
        let images: Vec<WriteImage> = undo
            .records()
            .iter()
            .map(|r| WriteImage {
                key: r.key.clone(),
                pre: r.previous.clone(),
                post: self.store.get(&r.key),
            })
            .collect();
        let mut flags = 0u8;
        if commit_point {
            flags |= StageFlags::COMMIT_POINT;
        }
        if handle.is_final() {
            flags |= StageFlags::FINAL;
        }
        if register {
            flags |= StageFlags::REGISTER;
        }
        let lsn = wal
            .append_stage(StageRecord {
                txn: handle.txn(),
                stage: handle.stage() as u32,
                total: handle.total_stages() as u32,
                flags: StageFlags(flags),
                reads: rw.reads.clone(),
                writes: rw.writes.clone(),
                images,
            })
            .expect("WAL append failed — durability cannot be guaranteed");
        if commit_point {
            self.acked_lsn.fetch_max(lsn, Ordering::Relaxed);
            wal.maybe_checkpoint()
                .expect("WAL checkpoint failed — durability cannot be guaranteed");
        }
        Some(lsn)
    }

    /// The highest LSN any commit point on this core was acked at; `0`
    /// before the first one. Pair with [`Wal::last_flushed_lsn`] to ask
    /// "is everything this core acked durable yet?".
    #[must_use]
    pub fn acked_lsn(&self) -> u64 {
        self.acked_lsn.load(Ordering::Relaxed)
    }

    /// Record an abort in the history and statistics.
    pub(crate) fn record_abort(&self, txn: TxnId) {
        if let Some(h) = &self.history {
            h.record_abort(txn);
        }
        self.stats.record_abort();
    }

    /// Abort stage 0 while it holds `pairs`: release them, then record the
    /// abort. Whatever the body wrote is already rolled back.
    pub(crate) fn abort_locked(&self, txn: TxnId, pairs: &[(Key, LockMode)]) {
        self.locks.release_all(txn, pairs.iter().map(|(k, _)| k));
        self.record_abort(txn);
    }

    /// Run one stage body under locks the caller already holds: the
    /// `StageStart` event, the history section, a fresh undo log, the
    /// contexts, the body — and the one error policy. A failed stage 0
    /// rolls its writes back and returns the error with the locks still
    /// held (the caller releases them and records the abort, see
    /// [`abort_locked`](Self::abort_locked)); a failed later stage panics,
    /// because earlier stages committed and the transaction must finish.
    pub(crate) fn execute(
        &self,
        handle: &TxnHandle,
        rw: &RwSet,
        body: StageBody<'_>,
    ) -> Result<(SectionOutput, UndoLog), TxnError> {
        let txn = handle.txn();
        let kind = handle.section_kind();
        self.obs.emit_txn(
            txn.0,
            EventKind::StageStart {
                stage: handle.stage() as u32,
            },
        );
        if let Some(h) = &self.history {
            h.record_begin(txn, kind);
        }
        let mut undo = UndoLog::new();
        let out = {
            let section = SectionCtx::new(txn, kind, &self.store, rw, &mut undo, self.history());
            body(&mut StageCtx::new(section, self))
        };
        match out {
            Ok(output) => Ok((output, undo)),
            Err(e) if handle.stage() == 0 => {
                undo.rollback(&self.store);
                Err(e)
            }
            Err(e) => panic!(
                "stage {} of {txn} failed after earlier stages committed — \
                 the multi-stage guarantee forbids this: {e}",
                handle.stage()
            ),
        }
    }

    /// Commit an executed stage while its locks are still held: log it
    /// (`commit_point` and `register` are the two flags the protocols
    /// differ in), close the history section, emit `StageEnd`, and for
    /// stage 0 do the initial-commit bookkeeping — from here on the
    /// response may be exposed to the client.
    pub(crate) fn commit_stage(
        &self,
        handle: &TxnHandle,
        rw: &RwSet,
        undo: &UndoLog,
        started: Instant,
        commit_point: bool,
        register: bool,
    ) {
        let txn = handle.txn();
        self.log_stage(handle, rw, undo, commit_point, register);
        crate::sched::yield_point("txn.stage.logged");
        if let Some(h) = &self.history {
            h.record_commit(txn, handle.section_kind());
        }
        self.obs.emit_txn(
            txn.0,
            EventKind::StageEnd {
                stage: handle.stage() as u32,
            },
        );
        if handle.stage() == 0 {
            let latency = started.elapsed();
            self.stats.record_initial_latency(latency);
            self.obs.emit_txn(txn.0, EventKind::InitialCommit);
            self.obs.record_duration(HistKind::InitialCommitMs, latency);
        }
    }

    /// Turn a committed stage into its outcome: the final-commit
    /// bookkeeping after the last stage, the next stage's handle otherwise.
    pub(crate) fn finish(
        &self,
        handle: TxnHandle,
        output: SectionOutput,
        started: Instant,
    ) -> StageOutcome {
        if handle.is_final() {
            self.stats.record_commit();
            self.obs.emit_txn(handle.txn().0, EventKind::FinalCommit);
            self.obs
                .record_duration(HistKind::FinalCommitMs, started.elapsed());
            StageOutcome::Complete { output }
        } else {
            StageOutcome::Committed {
                output,
                next: handle.advance(),
            }
        }
    }

    /// The lock-release schedule shared by MS-IA (Algorithm 2) and the
    /// staged discipline (§3.5): acquire the stage's locks (stage 0 may abort; later
    /// stages retry until granted, because committed earlier stages oblige
    /// the transaction to finish), execute, commit, register the footprint
    /// with the apology manager, release.
    ///
    /// `register_final_guess` controls whether the *final* stage's
    /// footprint is registered too (the staged discipline treats every
    /// stage as a retractable guess; MS-IA's final section is the
    /// reconciliation itself and is never retracted).
    pub(crate) fn run_released_stage(
        &self,
        handle: TxnHandle,
        rw: &RwSet,
        body: StageBody<'_>,
        register_final_guess: bool,
    ) -> Result<StageOutcome, TxnError> {
        let txn = handle.txn();
        let started = Instant::now();
        let pairs = rw.lock_pairs();
        if handle.stage() == 0 {
            if let Err(e) = self.locks.acquire_all(txn, &pairs, None) {
                self.record_abort(txn);
                return Err(TxnError::Aborted(e));
            }
        } else {
            // Committed earlier stages oblige us to finish: retry, with a
            // small backoff to let wait-die conflicts drain.
            let mut backoff = 0u32;
            while self.locks.acquire_all(txn, &pairs, None).is_err() {
                if crate::sched::active() {
                    // Model-checked run: the retry is a real blocking wait
                    // from the scheduler's point of view.
                    crate::sched::block_point("txn.stage.retry");
                    continue;
                }
                backoff = (backoff + 1).min(6);
                std::thread::yield_now();
                if backoff > 2 {
                    std::thread::sleep(std::time::Duration::from_micros(1 << backoff));
                }
            }
        }
        crate::sched::yield_point("txn.stage.locked");
        let lock_epoch = Instant::now();
        let (output, undo) = self
            .execute(&handle, rw, body)
            .inspect_err(|_| self.abort_locked(txn, &pairs))?;

        // Under the lock-releasing disciplines every stage is a durable
        // commit point — stage 0 *is* the initial commit the client sees.
        crate::sched::yield_point("txn.stage.executed");
        let register = !handle.is_final() || register_final_guess;
        self.commit_stage(&handle, rw, &undo, started, true, register);
        if register {
            self.apologies
                .register(txn, rw.reads.clone(), rw.writes.clone(), undo);
        }
        self.stats.record_lock_hold(lock_epoch.elapsed());
        self.locks.release_all(txn, pairs.iter().map(|(k, _)| k));
        Ok(self.finish(handle, output, started))
    }
}

/// Permission to run the next stage of an in-flight transaction.
///
/// Handles are not clonable and each [`Executor::run_stage`] call
/// consumes one, so the type system enforces stage order: "the final
/// section of a transaction cannot begin before the initial section"
/// (§4.1), generalized to m stages.
///
/// The handle is also where a protocol keeps what it knows about the
/// transaction between stages: being linear, it needs no table and no
/// lock. Only MS-SR keeps anything there (what it will lock, what it
/// holds) — under the lock-releasing protocols that state stays empty and
/// never allocates.
#[derive(Debug)]
pub struct TxnHandle {
    txn: TxnId,
    stage: usize,
    total: usize,
    /// MS-SR: union of the lock pairs declared for stages `1..`, taken
    /// (and then held) at the end of stage 0.
    pub(crate) later_pairs: Vec<(Key, LockMode)>,
    /// MS-SR: the deduplicated keys held from initial to final commit.
    pub(crate) held: Vec<Key>,
    /// MS-SR: when the first lock was granted (for Fig-6a lock-hold
    /// times); `None` while — or once again when — nothing is held.
    pub(crate) lock_epoch: Option<Instant>,
}

impl TxnHandle {
    /// A handle for stage 0 of a `total`-stage transaction. Panics unless
    /// `total >= 2` — one stage is a plain transaction, and the paper's
    /// model starts at two.
    pub(crate) fn first(txn: TxnId, total: usize) -> Self {
        assert!(
            total >= 2,
            "a multi-stage transaction needs at least 2 stages"
        );
        TxnHandle {
            txn,
            stage: 0,
            total,
            later_pairs: Vec::new(),
            held: Vec::new(),
            lock_epoch: None,
        }
    }

    /// The handle for the next stage.
    pub(crate) fn advance(self) -> Self {
        TxnHandle {
            stage: self.stage + 1,
            ..self
        }
    }

    /// Take what the handle holds out of it, leaving it holding nothing.
    pub(crate) fn take_held(&mut self) -> (Vec<Key>, Option<Instant>) {
        (std::mem::take(&mut self.held), self.lock_epoch.take())
    }

    /// The transaction this handle belongs to.
    pub fn txn(&self) -> TxnId {
        self.txn
    }

    /// The stage this handle authorizes (0-based).
    pub fn stage(&self) -> usize {
        self.stage
    }

    /// Total stages in the transaction.
    pub fn total_stages(&self) -> usize {
        self.total
    }

    /// Whether this handle authorizes the final stage.
    #[must_use]
    pub fn is_final(&self) -> bool {
        self.stage + 1 == self.total
    }

    /// The history section kind this stage maps to.
    #[must_use]
    pub fn section_kind(&self) -> SectionKind {
        if self.stage == 0 {
            SectionKind::Initial
        } else if self.is_final() {
            SectionKind::Final
        } else {
            SectionKind::Intermediate(
                u16::try_from(self.stage - 1).expect("more than 65k stages is absurd"),
            )
        }
    }
}

/// The typed result of running one stage — the only result surface the
/// protocols expose.
#[derive(Debug)]
pub enum StageOutcome {
    /// The stage committed and the transaction continues: run the next
    /// stage with `next` once its input is available.
    Committed {
        /// The response produced for the client.
        output: SectionOutput,
        /// Permission for the next stage.
        next: TxnHandle,
    },
    /// The final stage committed; the transaction is complete.
    Complete {
        /// The response produced for the client.
        output: SectionOutput,
    },
}

impl StageOutcome {
    /// The stage's client response.
    pub fn output(&self) -> &SectionOutput {
        match self {
            StageOutcome::Committed { output, .. } | StageOutcome::Complete { output } => output,
        }
    }

    /// The handle for the next stage, if the transaction is not complete.
    #[must_use]
    pub fn into_next(self) -> Option<TxnHandle> {
        match self {
            StageOutcome::Committed { next, .. } => Some(next),
            StageOutcome::Complete { .. } => None,
        }
    }

    /// Whether the transaction finally committed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        matches!(self, StageOutcome::Complete { .. })
    }
}

/// The execution context handed to stage bodies: the plain read/write
/// [`SectionCtx`] (via `Deref`), plus the reconciliation capabilities a
/// later stage needs — retraction with cascade, and apology bookkeeping
/// (§4.4).
pub struct StageCtx<'a> {
    section: SectionCtx<'a>,
    core: &'a ExecutorCore,
    reports: Vec<RetractionReport>,
}

impl<'a> StageCtx<'a> {
    pub(crate) fn new(section: SectionCtx<'a>, core: &'a ExecutorCore) -> Self {
        StageCtx {
            section,
            core,
            reports: Vec::new(),
        }
    }

    /// The plain section context (for code written against [`SectionCtx`]).
    pub fn section_mut(&mut self) -> &mut SectionCtx<'a> {
        &mut self.section
    }

    /// Retract a transaction's committed stage effects (cascading to
    /// dependents), usually this transaction's own earlier guess. With
    /// durability on, the store restores are logged (one record per
    /// rolled-back entry, in rollback order) so replay repeats them
    /// byte-for-byte; their durability rides this stage's commit flush.
    pub fn retract(&mut self, txn: TxnId, reason: &str) -> RetractionReport {
        let core = self.core;
        let report = core.apologies.retract(txn, &core.store, reason);
        if let Some(wal) = &core.wal {
            wal.append_retracts(report.restores.iter().map(|(txn, restores)| RetractRecord {
                txn: *txn,
                restores: restores.clone(),
            }))
            .expect("WAL append failed — durability cannot be guaranteed");
        }
        for retracted in &report.retracted {
            core.obs.emit_txn(retracted.0, EventKind::Retract);
            core.obs.emit_txn(retracted.0, EventKind::Apology);
        }
        self.reports.push(report.clone());
        report
    }

    /// Retract this transaction's own earlier stages:
    /// `ctx.retract_self("detected the wrong building")`.
    pub fn retract_self(&mut self, reason: &str) -> RetractionReport {
        let txn = self.section.txn();
        self.retract(txn, reason)
    }

    /// Retraction reports accumulated by this stage.
    pub fn reports(&self) -> &[RetractionReport] {
        &self.reports
    }
}

impl<'a> Deref for StageCtx<'a> {
    type Target = SectionCtx<'a>;
    fn deref(&self) -> &Self::Target {
        &self.section
    }
}

impl DerefMut for StageCtx<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.section
    }
}

/// A stage body as [`Executor::run_stage`] takes it. Use
/// [`Executor::stage`] for a typed-closure convenience.
pub type StageBody<'b> = &'b mut dyn FnMut(&mut StageCtx<'_>) -> Result<SectionOutput, TxnError>;

/// One multi-stage consistency protocol — MS-SR, MS-IA, or the generalized
/// staged discipline — over the shared [`ExecutorCore`]. Built by
/// [`ProtocolKind::build`]; the kind is a value, so a pipeline swaps
/// protocols without a type parameter or a vtable.
///
/// The lifecycle: [`begin`](Self::begin) declares the transaction and its
/// per-stage read/write sets, then each [`run_stage`](Self::run_stage)
/// consumes the current [`TxnHandle`] and yields a [`StageOutcome`]
/// carrying the next one. Only stage 0 may fail with
/// [`TxnError::Aborted`]; once it commits, the protocol guarantees every
/// later stage commits too (the crux of the model, §4.1).
pub struct Executor {
    kind: ProtocolKind,
    core: ExecutorCore,
    /// Mutation self-test flag (mcheck builds only): when set, MS-SR logs
    /// the final commit record *after* releasing the locks — a seeded
    /// commit-point bug the model checker must be able to catch.
    #[cfg(feature = "mcheck")]
    mutate_log_final_after_release: std::sync::atomic::AtomicBool,
}

impl Executor {
    /// Which protocol this executor runs.
    pub fn kind(&self) -> ProtocolKind {
        self.kind
    }

    /// The shared executor state.
    pub fn core(&self) -> &ExecutorCore {
        &self.core
    }

    /// Declare a transaction with one read/write set per stage
    /// (`stages.len()` is the stage count; panics unless ≥ 2). Records the
    /// begin and emits `TxnBegin` *before* any lock acquisition, so every
    /// recorded commit or abort is preceded by its recorded begin (the
    /// consistent-snapshot invariant of [`ProtocolStats`]).
    ///
    /// MS-SR is the reason the sets are declared up front: it must lock
    /// *later* stages' items before initial commit — "the system can infer
    /// what data will be accessed (or potentially accessed) in the final
    /// section" (§4.3) — so its handle carries their lock pairs. The
    /// lock-releasing protocols treat the declared sets as advisory and
    /// lock whatever each `run_stage` call passes.
    pub fn begin(&self, txn: TxnId, stages: &[RwSet]) -> TxnHandle {
        let mut handle = TxnHandle::first(txn, stages.len());
        self.core.stats.record_begin();
        self.core.obs.emit_txn(
            txn.0,
            EventKind::TxnBegin {
                stages: stages.len() as u32,
            },
        );
        if self.kind == ProtocolKind::MsSr {
            handle.later_pairs = crate::ms_sr::later_pairs(&stages[1..]);
        }
        handle
    }

    /// Run one stage: lock `rw` per the protocol's schedule, execute
    /// `body`, commit, and release per the schedule. `rw` must be covered
    /// by the set declared at [`begin`](Self::begin) under MS-SR.
    ///
    /// This `match` is the one place a lock schedule is chosen: every arm
    /// runs the same lifecycle of the core.
    pub fn run_stage(
        &self,
        handle: TxnHandle,
        rw: &RwSet,
        body: StageBody<'_>,
    ) -> Result<StageOutcome, TxnError> {
        let core = &self.core;
        match self.kind {
            ProtocolKind::MsSr if handle.stage() == 0 => {
                crate::ms_sr::run_initial(core, handle, rw, body)
            }
            ProtocolKind::MsSr => {
                crate::ms_sr::run_held(core, handle, rw, body, self.log_final_after_release())
            }
            ProtocolKind::MsIa => core.run_released_stage(handle, rw, body, false),
            ProtocolKind::Staged => core.run_released_stage(handle, rw, body, true),
        }
    }

    /// Abort a transaction that has not yet committed its first stage.
    /// Panics if any stage already committed — initially-committed
    /// transactions must finally commit (§4.1).
    pub fn abort(&self, handle: TxnHandle) {
        assert_eq!(
            handle.stage(),
            0,
            "{} cannot abort at stage {}: initially-committed transactions \
             must finally commit (§4.1)",
            handle.txn(),
            handle.stage()
        );
        self.core.record_abort(handle.txn());
    }

    /// [`run_stage`](Self::run_stage) with a typed body: the body returns
    /// any `T` and the stage result arrives as `(T, Option<TxnHandle>)`.
    pub fn stage<T>(
        &self,
        handle: TxnHandle,
        rw: &RwSet,
        body: impl FnOnce(&mut StageCtx<'_>) -> Result<T, TxnError>,
    ) -> Result<(T, Option<TxnHandle>), TxnError> {
        let mut body = Some(body);
        let mut slot = None;
        let outcome = self.run_stage(handle, rw, &mut |ctx| {
            let f = body.take().expect("a stage body runs exactly once");
            slot = Some(f(ctx)?);
            Ok(SectionOutput::new())
        })?;
        Ok((slot.expect("the stage body ran"), outcome.into_next()))
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<KvStore> {
        self.core.store()
    }

    /// The statistics collector.
    pub fn stats(&self) -> &Arc<ProtocolStats> {
        self.core.stats()
    }

    /// The apology manager (issued apologies, manual retraction).
    pub fn apologies(&self) -> &Arc<ApologyManager> {
        self.core.apologies()
    }

    /// The history recorder, if attached.
    pub fn history(&self) -> Option<&HistoryRecorder> {
        self.core.history()
    }

    /// Arm MS-SR's deliberate commit-point bug (self-test for the model
    /// checker — see `tests/mcheck.rs`). Never use outside tests.
    #[cfg(feature = "mcheck")]
    pub fn enable_log_final_after_release_mutation(&self) {
        assert_eq!(self.kind, ProtocolKind::MsSr, "the mutation targets MS-SR");
        self.mutate_log_final_after_release
            .store(true, Ordering::Relaxed);
    }

    #[cfg(feature = "mcheck")]
    fn log_final_after_release(&self) -> bool {
        self.mutate_log_final_after_release.load(Ordering::Relaxed)
    }

    #[cfg(not(feature = "mcheck"))]
    fn log_final_after_release(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::SectionEvent;
    use croesus_store::{Key, LockMode, LockPolicy, Value};

    fn protocol(kind: ProtocolKind) -> Executor {
        let core = ExecutorCore::new(
            Arc::new(KvStore::new()),
            Arc::new(LockManager::new(LockPolicy::Block)),
        )
        .with_history(HistoryRecorder::new());
        kind.build(core)
    }

    #[test]
    fn every_protocol_commits_a_two_stage_txn() {
        for kind in ProtocolKind::ALL {
            let p = protocol(kind);
            let rw = RwSet::new().write("x");
            let h = p.begin(TxnId(1), &[rw.clone(), rw.clone()]);
            let (_, h) = p.stage(h, &rw, |ctx| ctx.write("x", 1)).unwrap();
            let (_, done) = p.stage(h.unwrap(), &rw, |ctx| ctx.write("x", 2)).unwrap();
            assert!(done.is_none(), "{kind}: two stages complete the txn");
            assert_eq!(
                p.store().get(&"x".into()).as_deref(),
                Some(&Value::Int(2)),
                "{kind}"
            );
            assert_eq!(p.stats().snapshot().commits, 1, "{kind}");
        }
    }

    #[test]
    fn handle_kinds_map_to_sections() {
        let h = TxnHandle::first(TxnId(1), 4);
        assert_eq!(h.section_kind(), SectionKind::Initial);
        assert!(!h.is_final());
        let h = h.advance();
        assert_eq!(h.section_kind(), SectionKind::Intermediate(0));
        let h = h.advance();
        assert_eq!(h.section_kind(), SectionKind::Intermediate(1));
        let h = h.advance();
        assert_eq!(h.section_kind(), SectionKind::Final);
        assert!(h.is_final());
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn single_stage_panics() {
        protocol(ProtocolKind::MsIa).begin(TxnId(1), &[RwSet::new()]);
    }

    #[test]
    fn abort_before_first_commit_is_clean() {
        for kind in ProtocolKind::ALL {
            let p = protocol(kind);
            let h = p.begin(TxnId(3), &[RwSet::new(), RwSet::new()]);
            p.abort(h);
            assert_eq!(p.stats().snapshot().aborts, 1, "{kind}");
            assert_eq!(p.store().len(), 0, "{kind}");
        }
    }

    #[test]
    fn lock_releasing_handles_carry_nothing() {
        for kind in [ProtocolKind::MsIa, ProtocolKind::Staged] {
            let p = protocol(kind);
            let rw = RwSet::new().write("x");
            let empty = |h: &TxnHandle| {
                h.later_pairs.capacity() == 0 && h.held.capacity() == 0 && h.lock_epoch.is_none()
            };
            let h = p.begin(TxnId(1), &[rw.clone(), rw.clone()]);
            assert!(empty(&h), "{kind}: begin allocates nothing");
            let (_, h) = p.stage(h, &rw, |ctx| ctx.write("x", 1)).unwrap();
            assert!(empty(&h.unwrap()), "{kind}: nor does a committed stage");
        }
    }

    #[test]
    fn outcome_accessors() {
        let p = protocol(ProtocolKind::MsIa);
        let h = p.begin(TxnId(9), &[RwSet::new(), RwSet::new()]);
        let out = p.run_stage(h, &RwSet::new(), &mut |_| Ok(SectionOutput::respond(5)));
        let out = out.unwrap();
        assert!(!out.is_complete());
        assert_eq!(out.output().response, vec![Value::Int(5)]);
        let h = out.into_next().unwrap();
        let out = p.run_stage(h, &RwSet::new(), &mut |_| Ok(SectionOutput::new()));
        assert!(out.unwrap().is_complete());
    }

    /// Everything one protocol's stage lifecycle leaves behind over the
    /// four scenarios of `stage_lifecycle_is_pinned_per_protocol`.
    #[derive(Debug, PartialEq)]
    struct Lifecycle {
        /// The edge stream, executor and WAL events interleaved.
        events: Vec<(Option<u64>, EventKind)>,
        /// Every appended stage record as `(txn, stage, flags)`.
        wal: Vec<(u64, u32, u8)>,
        /// The history recorder's operation sequence.
        history: Vec<String>,
        /// `(begun, commits, aborts)`.
        stats: (u64, u64, u64),
        /// `LockManager::locked_keys()` inside every stage body and after
        /// every `run_stage` call, in order.
        locked: Vec<usize>,
        /// Retractable guesses left registered with the apology manager.
        registered: usize,
    }

    fn run_lifecycle(kind: ProtocolKind) -> Lifecycle {
        let obs = EdgeObs::standalone(0);
        let (wal, device) = Wal::in_memory(croesus_wal::WalConfig::strict());
        wal.set_obs(obs.clone());
        let wal = Arc::new(wal);
        let locks = Arc::new(LockManager::new(LockPolicy::NoWait));
        let history = HistoryRecorder::new();
        let p = kind.build(
            ExecutorCore::new(Arc::new(KvStore::new()), Arc::clone(&locks))
                .with_history(history.clone())
                .with_wal(Arc::clone(&wal))
                .with_obs(obs.clone()),
        );
        let mut locked = Vec::new();

        // (i) A 3-stage transaction to completion.
        let stages = [
            RwSet::new().write("a"),
            RwSet::new().read("a").write("b"),
            RwSet::new().write("c"),
        ];
        let mut next = Some(p.begin(TxnId(1), &stages));
        for (rw, key) in stages.iter().zip(["a", "b", "c"]) {
            let (_, n) = p
                .stage(next.take().unwrap(), rw, |ctx| {
                    locked.push(locks.locked_keys());
                    if key == "b" {
                        ctx.read("a")?;
                    }
                    ctx.write(key, 1)
                })
                .unwrap();
            locked.push(locks.locked_keys());
            next = n;
        }
        assert!(next.is_none(), "{kind}: three stages complete the txn");

        // (ii) A stage-0 body failure: the write is rolled back.
        let rw = RwSet::new().write("d");
        let h = p.begin(TxnId(2), &[rw.clone(), rw.clone()]);
        let failed: Result<((), _), _> = p.stage(h, &rw, |ctx| {
            locked.push(locks.locked_keys());
            ctx.write("d", 1)?;
            Err(TxnError::Invariant("nope".into()))
        });
        assert!(matches!(failed, Err(TxnError::Invariant(_))), "{kind}");
        assert_eq!(p.store().get(&"d".into()), None, "{kind}: rolled back");
        locked.push(locks.locked_keys());

        // (iii) A stage-0 lock conflict against a key held from outside.
        let held = Key::from("e");
        locks.lock(TxnId(99), &held, LockMode::Exclusive).unwrap();
        let rw = RwSet::new().write("e");
        let h = p.begin(TxnId(3), &[rw.clone(), rw.clone()]);
        let refused = p.stage(h, &rw, |_| -> Result<(), _> {
            unreachable!("never locked")
        });
        assert!(matches!(refused, Err(TxnError::Aborted(_))), "{kind}");
        locked.push(locks.locked_keys());

        // (iv) The conflict sits on the *later* stage's key: MS-SR aborts
        // before initial commit, the lock-releasing protocols commit
        // stage 0 and finish once the key is free.
        let (first, later) = (RwSet::new().write("f"), RwSet::new().write("e"));
        let h = p.begin(TxnId(4), &[first.clone(), later.clone()]);
        let initial = p.stage(h, &first, |ctx| {
            locked.push(locks.locked_keys());
            ctx.write("f", 1)
        });
        locked.push(locks.locked_keys());
        locks.release_all(TxnId(99), [&held]);
        match initial {
            Ok((_, next)) => {
                assert_ne!(kind, ProtocolKind::MsSr);
                let (_, done) = p
                    .stage(next.unwrap(), &later, |ctx| {
                        locked.push(locks.locked_keys());
                        ctx.write("e", 1)
                    })
                    .unwrap();
                assert!(done.is_none(), "{kind}");
            }
            Err(e) => {
                assert_eq!(kind, ProtocolKind::MsSr);
                assert!(matches!(e, TxnError::Aborted(_)));
                assert_eq!(p.store().get(&"f".into()), None, "rolled back");
            }
        }
        locked.push(locks.locked_keys());

        let bytes = wal.epoch_bytes(&device);
        let stats = p.stats().snapshot();
        Lifecycle {
            events: obs.events().into_iter().map(|e| (e.txn, e.kind)).collect(),
            wal: croesus_wal::FrameReader::new(&bytes)
                .map(|payload| match croesus_wal::WalRecord::decode(payload) {
                    Ok(croesus_wal::WalRecord::Stage(r)) => (r.txn.0, r.stage, r.flags.0),
                    other => panic!("{kind}: only stage records are logged here: {other:?}"),
                })
                .collect(),
            history: history
                .events()
                .iter()
                .map(|e| match e {
                    SectionEvent::Begin { txn, section, .. } => format!("begin {txn} {section}"),
                    SectionEvent::Read {
                        txn, section, key, ..
                    } => format!("read {txn} {section} {key}"),
                    SectionEvent::Write {
                        txn, section, key, ..
                    } => format!("write {txn} {section} {key}"),
                    SectionEvent::Commit { txn, section, .. } => format!("commit {txn} {section}"),
                    SectionEvent::Abort { txn, .. } => format!("abort {txn}"),
                })
                .collect(),
            stats: (stats.begun, stats.commits, stats.aborts),
            locked,
            registered: p.apologies().tracked_count(),
        }
    }

    /// `(txn, kind)` for an executor event, `(None, kind)` for a WAL event.
    fn t(txn: u64, kind: EventKind) -> (Option<u64>, EventKind) {
        (Some(txn), kind)
    }

    fn w(kind: EventKind) -> (Option<u64>, EventKind) {
        (None, kind)
    }

    fn lines(history: &[&str]) -> Vec<String> {
        history.iter().map(|l| (*l).to_string()).collect()
    }

    /// Algorithm 1: nothing is a commit point (and nothing syncs) before
    /// the final stage; every declared key is held from the end of
    /// stage 0's body to final commit; a conflict on a later stage's key
    /// aborts stage 0 *after* its body ran, with nothing logged.
    fn ms_sr_lifecycle() -> Lifecycle {
        use EventKind::*;
        Lifecycle {
            events: vec![
                t(1, TxnBegin { stages: 3 }),
                t(1, StageStart { stage: 0 }),
                w(WalAppend { lsn: 59 }),
                t(1, StageEnd { stage: 0 }),
                t(1, InitialCommit),
                t(1, StageStart { stage: 1 }),
                w(WalAppend { lsn: 123 }),
                t(1, StageEnd { stage: 1 }),
                t(1, StageStart { stage: 2 }),
                w(WalAppend { lsn: 182 }),
                w(WalBufferSeal { lsn: 182 }),
                w(WalSync { lsn: 182, epoch: 0 }),
                t(1, StageEnd { stage: 2 }),
                t(1, FinalCommit),
                t(2, TxnBegin { stages: 2 }),
                t(2, StageStart { stage: 0 }),
                t(3, TxnBegin { stages: 2 }),
                t(4, TxnBegin { stages: 2 }),
                t(4, StageStart { stage: 0 }),
            ],
            wal: vec![(1, 0, 0b000), (1, 1, 0b000), (1, 2, 0b011)],
            history: lines(&[
                "begin t1 initial",
                "write t1 initial a",
                "commit t1 initial",
                "begin t1 intermediate[0]",
                "read t1 intermediate[0] a",
                "write t1 intermediate[0] b",
                "commit t1 intermediate[0]",
                "begin t1 final",
                "write t1 final c",
                "commit t1 final",
                "begin t2 initial",
                "write t2 initial d",
                "abort t2",
                "abort t3",
                "begin t4 initial",
                "write t4 initial f",
                "abort t4",
            ]),
            stats: (4, 1, 3),
            // (i) body/after ×3 · (ii) body, after · (iii) after (the
            // outside holder) · (iv) body, after, then the holder gone.
            locked: vec![1, 3, 3, 3, 3, 0, 1, 0, 1, 2, 1, 0],
            registered: 0,
        }
    }

    /// Algorithm 2 and the staged discipline: every stage is a synced
    /// commit point and holds only its own keys, only while it runs; the
    /// later-stage conflict of scenario (iv) is invisible to stage 0. The
    /// two differ in one bit — whether the final stage registers too.
    fn released_lifecycle(final_flags: u8, registered: usize) -> Lifecycle {
        use EventKind::*;
        Lifecycle {
            events: vec![
                t(1, TxnBegin { stages: 3 }),
                t(1, StageStart { stage: 0 }),
                w(WalAppend { lsn: 59 }),
                w(WalBufferSeal { lsn: 59 }),
                w(WalSync { lsn: 59, epoch: 0 }),
                t(1, StageEnd { stage: 0 }),
                t(1, InitialCommit),
                t(1, StageStart { stage: 1 }),
                w(WalAppend { lsn: 123 }),
                w(WalBufferSeal { lsn: 123 }),
                w(WalSync { lsn: 123, epoch: 0 }),
                t(1, StageEnd { stage: 1 }),
                t(1, StageStart { stage: 2 }),
                w(WalAppend { lsn: 182 }),
                w(WalBufferSeal { lsn: 182 }),
                w(WalSync { lsn: 182, epoch: 0 }),
                t(1, StageEnd { stage: 2 }),
                t(1, FinalCommit),
                t(2, TxnBegin { stages: 2 }),
                t(2, StageStart { stage: 0 }),
                t(3, TxnBegin { stages: 2 }),
                t(4, TxnBegin { stages: 2 }),
                t(4, StageStart { stage: 0 }),
                w(WalAppend { lsn: 241 }),
                w(WalBufferSeal { lsn: 241 }),
                w(WalSync { lsn: 241, epoch: 0 }),
                t(4, StageEnd { stage: 0 }),
                t(4, InitialCommit),
                t(4, StageStart { stage: 1 }),
                w(WalAppend { lsn: 300 }),
                w(WalBufferSeal { lsn: 300 }),
                w(WalSync { lsn: 300, epoch: 0 }),
                t(4, StageEnd { stage: 1 }),
                t(4, FinalCommit),
            ],
            wal: vec![
                (1, 0, 0b101),
                (1, 1, 0b101),
                (1, 2, final_flags),
                (4, 0, 0b101),
                (4, 1, final_flags),
            ],
            history: lines(&[
                "begin t1 initial",
                "write t1 initial a",
                "commit t1 initial",
                "begin t1 intermediate[0]",
                "read t1 intermediate[0] a",
                "write t1 intermediate[0] b",
                "commit t1 intermediate[0]",
                "begin t1 final",
                "write t1 final c",
                "commit t1 final",
                "begin t2 initial",
                "write t2 initial d",
                "abort t2",
                "abort t3",
                "begin t4 initial",
                "write t4 initial f",
                "commit t4 initial",
                "begin t4 final",
                "write t4 final e",
                "commit t4 final",
            ]),
            stats: (4, 2, 2),
            // As above, with (iv) running on: stage-1 body, then the end.
            locked: vec![1, 0, 2, 0, 1, 0, 1, 0, 1, 2, 1, 1, 0],
            registered,
        }
    }

    #[test]
    fn stage_lifecycle_is_pinned_per_protocol() {
        assert_eq!(run_lifecycle(ProtocolKind::MsSr), ms_sr_lifecycle());
        assert_eq!(
            run_lifecycle(ProtocolKind::MsIa),
            released_lifecycle(0b011, 3)
        );
        assert_eq!(
            run_lifecycle(ProtocolKind::Staged),
            released_lifecycle(0b111, 5)
        );
    }

    #[test]
    fn display_and_policy() {
        assert_eq!(ProtocolKind::MsSr.to_string(), "MS-SR");
        assert_eq!(
            ProtocolKind::MsSr.default_lock_policy(),
            LockPolicy::WaitDie
        );
        assert_eq!(ProtocolKind::MsIa.default_lock_policy(), LockPolicy::Block);
    }
}
