//! The append side of the log: one LSN-boundary writer, landed by a
//! per-mode flush driver; checkpoint scheduling and truncation.
//!
//! # One writer
//!
//! Every record is framed into an in-memory *active buffer* and gets a
//! **global, never-resetting byte LSN**. A record is encoded once, into
//! a scratch buffer the writer reuses, and its frame (header, then those
//! bytes) is written straight into the active buffer — the bytes of
//! [`write_frame`](crate::frame::write_frame) over
//! [`WalRecord::encode`], without their two intermediate copies. Every
//! [`WalConfig::group_commit`] commit points the buffer is *sealed* onto
//! a queue; one `step` lands the oldest sealed buffer — append + the
//! fsync-equivalent [`Storage::sync`], state unlocked — and then, in one
//! state-lock section, advances `last_flushed_lsn`, publishes the landed
//! bytes to the shipper and wakes waiters. That section is the only
//! publish site, so shipped ⊆ durable by construction. The one
//! durability primitive is [`Wal::flush_lsn`]; whatever is not yet
//! landed is the loss window. A durability mode is only a
//! [`FlushDriver`] — who calls `step`, and what the commit point that
//! fills a group waits for:
//!
//! | driver | the group-filling commit point | `step` runs on |
//! |---|---|---|
//! | `Inline` (GroupCommit, group 1 = strict) | seals, lands its own LSN, returns | the committing thread |
//! | `Thread` (Pipelined) | waits out the *previous* buffer, seals, returns | a flusher thread |
//! | `Manual` (harnesses) | seals, returns | [`Wal::flusher_step`] callers |
//!
//! # Checkpoints
//!
//! The writer mirrors its own log through the shared [`RecoveryState`]
//! machine *with a shadow store attached* — the committed state a replay
//! of the log would produce, maintained under the writer mutex (cheap:
//! the shadow's `Arc<Value>`s alias the live store's). Once encoded, a
//! record is folded into the shadow *by move*
//! ([`RecoveryState::apply`] takes it by value), so its images, key sets
//! and values are never copied for the shadow's sake; a record refused
//! by a poisoned writer is neither logged nor folded. A checkpoint is
//! therefore a pure serialization of writer-internal state, written as
//! one record that *replaces* the log ([`Storage::reset`]) — truncation
//! and checkpoint are one atomic step, consistent even while other
//! threads are mid-stage on the live store. It restarts the on-device
//! epoch, not the LSN space. Its store is written in canonical order
//! ([`KvStore::canonical_pairs`]: cached key hash, then key), which
//! depends only on the state, so any two writers with one state — however
//! their shadows were filled — write the same checkpoint bytes. The
//! checkpoint is encoded straight into its frame buffer.
//!
//! A checkpoint costs O(state) and replay starts from it, so it is
//! scheduled by size, not by count: [`Wal::maybe_checkpoint`] (called
//! from the commit path) takes one once [`WalConfig::checkpoint_every`]
//! commit points have accumulated *and* the log has grown by at least
//! the last checkpoint's framed length since it was taken. Each
//! checkpoint is thereby paid for by at least its own size in appended
//! log: the checkpoint bytes ever written are at most the bytes appended
//! plus the latest checkpoint, a growing state is checkpointed a
//! logarithmic number of times, and replay reads one checkpoint plus at
//! most as many log bytes again.

use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard};
use std::thread::JoinHandle;

use parking_lot::Mutex;

use croesus_obs::{EdgeObs, EventKind, HistKind};
use croesus_store::{KvStore, TxnId};

use crate::coalesce::SyncCoalescer;
use crate::frame::{frame_header, FRAME_HEADER_LEN};
use crate::record::{RetractRecord, StageRecord, WalRecord};
use crate::recover::RecoveryState;
use crate::ship::LogShipper;
use crate::storage::{FileStorage, MemStorage, Storage};

/// Message used when the std state mutex is poisoned — only a panicking
/// `step` could poison it, and that already aborts the run.
const PIPE_LOCK: &str = "wal pipeline lock";

/// Writer tuning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalConfig {
    /// Commit points per sealed buffer, i.e. per durable sync (1 =
    /// strict).
    pub group_commit: usize,
    /// The fewest commit points between automatic checkpoints (0 =
    /// never). A floor, not a period: past it a checkpoint also waits
    /// until the log has grown by the last checkpoint's length (see the
    /// module docs).
    pub checkpoint_every: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            group_commit: 8,
            checkpoint_every: 1024,
        }
    }
}

impl WalConfig {
    /// Strict durability: sync at every commit point.
    #[must_use]
    pub fn strict() -> Self {
        WalConfig {
            group_commit: 1,
            ..WalConfig::default()
        }
    }

    /// Group commit with the given batch size.
    #[must_use]
    pub fn group(group_commit: usize) -> Self {
        assert!(group_commit >= 1, "group size must be at least 1");
        WalConfig {
            group_commit,
            ..WalConfig::default()
        }
    }
}

/// Counters exposed for benches and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended.
    pub records: u64,
    /// Commit points among them.
    pub commit_points: u64,
    /// Durable syncs performed (group commit amortizes these).
    pub syncs: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Bytes handed to storage (excluding checkpoint rewrites).
    pub bytes_appended: u64,
}

/// Who lands sealed buffers — the whole difference between durability
/// modes (see the module table).
#[derive(Clone, Default)]
pub enum FlushDriver {
    /// The commit point that fills a group seals the buffer and lands it
    /// on its own thread before returning. No thread is spawned.
    #[default]
    Inline,
    /// A dedicated flusher thread lands buffers while appends keep
    /// filling the next one; a group-filling commit point waits only for
    /// the *previous* buffer's boundary (double buffering).
    Thread {
        /// Shared per-device sync window, when several edges' logs live
        /// on one storage device. `None` syncs alone.
        coalescer: Option<Arc<SyncCoalescer>>,
    },
    /// Nothing lands by itself: the harness calls [`Wal::flusher_step`]
    /// (the model checker runs it as a virtual task; the crash sweeps cut
    /// the device at exact buffer boundaries). Outside the checker
    /// [`Wal::flush_lsn`] pumps inline instead of waiting.
    Manual,
}

/// Everything the appenders and `step` exchange. One plain mutex:
/// appenders touch it briefly (extend the active buffer, bump counters),
/// `step` holds it only outside I/O — the sync itself runs with the
/// state unlocked, so appends keep landing in the next buffer.
#[derive(Default)]
struct PipeState {
    /// The log device. `None` while a `step` has it checked out to land
    /// the front sealed buffer (appenders never touch storage).
    storage: Option<Box<dyn Storage>>,
    /// Bytes appended since the last seal.
    active: Vec<u8>,
    /// Commit points in the active buffer.
    active_commits: usize,
    /// Sealed buffers not yet landed, oldest first; they land in order,
    /// so landing one advances `last_flushed_lsn` by its length. While
    /// the storage is checked out, the front one is mid-I/O (shared with
    /// that `step`).
    sealed: VecDeque<Arc<Vec<u8>>>,
    /// Global LSN of the last appended byte. Never resets — epochs
    /// re-frame the on-device log, not the LSN space.
    latest_lsn: u64,
    /// Global durable boundary: everything at or below is synced (or
    /// folded into a durable checkpoint). Monotone.
    last_flushed_lsn: u64,
    /// Accepting no more work; the flusher drains `sealed` and exits.
    shutdown: bool,
    /// Durable syncs performed (reported through [`WalStats`]).
    syncs: u64,
    /// Checkpoint epoch (the on-device log restarted this many times).
    epoch: u64,
    /// Bytes landed in the current epoch's on-device log.
    epoch_len: u64,
    /// Shipping endpoint; published to *only* in `step`'s post-sync
    /// section and the checkpoint's epoch restart — shipped ⊆ durable.
    shipper: Option<Arc<LogShipper>>,
    /// Observability stream (disabled by default). Events carry global
    /// LSNs and the checkpoint epoch.
    obs: EdgeObs,
    /// An I/O failure is sticky: appends and boundary waits fail fast
    /// instead of acking commits that can never become durable.
    io_error: Option<(io::ErrorKind, String)>,
    /// Model-checker mutation: publish a buffer *before* syncing it,
    /// violating shipped ⊆ durable. Exists so `tests/mcheck.rs` can
    /// prove the checker catches the bug class this writer must avoid.
    #[cfg(feature = "mcheck")]
    publish_before_sync: bool,
}

/// The buffer/boundary half of a [`Wal`], shared with the flusher thread.
struct Shared {
    state: StdMutex<PipeState>,
    /// Signals the flusher: a buffer was sealed (or shutdown was set).
    work_cv: Condvar,
    /// Signals boundary waiters: `last_flushed_lsn` advanced, or a
    /// checked-out buffer came back.
    boundary_cv: Condvar,
    driver: FlushDriver,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, PipeState> {
        self.state.lock().expect(PIPE_LOCK)
    }

    /// Park until `cv` is signalled (under the model checker: until the
    /// next `progress`). Spurious returns are fine — callers re-check.
    fn wait<'a>(
        &'a self,
        cv: &Condvar,
        state: MutexGuard<'a, PipeState>,
        label: &'static str,
    ) -> MutexGuard<'a, PipeState> {
        if crate::sched::active() {
            drop(state);
            crate::sched::block_point(label);
            self.lock()
        } else {
            cv.wait(state).expect(PIPE_LOCK)
        }
    }

    /// Whether someone other than the caller lands sealed buffers, so
    /// waiting for a boundary cannot deadlock: the flusher thread, or
    /// mcheck's virtual flusher task.
    fn driven_elsewhere(&self) -> bool {
        match self.driver {
            FlushDriver::Inline => false,
            FlushDriver::Thread { .. } => true,
            FlushDriver::Manual => crate::sched::active(),
        }
    }

    fn io_error_locked(state: &PipeState) -> io::Result<()> {
        match &state.io_error {
            Some((kind, msg)) => Err(io::Error::new(*kind, msg.clone())),
            None => Ok(()),
        }
    }

    /// Seal the active buffer onto the queue. Caller holds the state
    /// lock; returns whether anything was sealed so the caller can mark
    /// scheduler progress *after* unlocking.
    fn seal_locked(&self, state: &mut PipeState) -> bool {
        if state.active.is_empty() {
            return false;
        }
        let bytes = std::mem::take(&mut state.active);
        state.active_commits = 0;
        state.sealed.push_back(Arc::new(bytes));
        state.obs.emit(EventKind::WalBufferSeal {
            lsn: state.latest_lsn,
        });
        self.work_cv.notify_one();
        true
    }

    /// The commit point at `lsn` filled its group. Inline: it pays for
    /// the group — seal and land up to its own LSN on this thread. With a
    /// flusher: apply backpressure (wait for the *previous* buffer's
    /// boundary — double buffering bounds the pipeline at one in-flight
    /// buffer), then seal; `group` is re-checked under the lock because a
    /// racing commit may have sealed first.
    fn seal_for_commit(&self, lsn: u64, group: usize) -> io::Result<()> {
        if matches!(self.driver, FlushDriver::Inline) {
            return self.flush_lsn(lsn);
        }
        let mut state = self.lock();
        if state.active_commits < group {
            return Ok(()); // someone else sealed this group already
        }
        if self.driven_elsewhere() {
            while !state.sealed.is_empty() && state.io_error.is_none() {
                state = self.wait(&self.boundary_cv, state, "wal.buffer.backpressure");
            }
        }
        Self::io_error_locked(&state)?;
        let sealed = self.seal_locked(&mut state);
        drop(state);
        if sealed {
            crate::sched::progress("wal.buffer.sealed");
        }
        Ok(())
    }

    /// Wait until the durable boundary covers `lsn` (clamped to the log
    /// tip), sealing the active buffer first when `lsn` still sits inside
    /// it. Returns immediately when `lsn ≤ last_flushed_lsn`. When nobody
    /// else drives `step`, the caller lands buffers itself — unless
    /// another appender has one in flight, which it waits out.
    fn flush_lsn(&self, lsn: u64) -> io::Result<()> {
        let mut state = self.lock();
        loop {
            if state.last_flushed_lsn >= lsn.min(state.latest_lsn) {
                return Ok(());
            }
            Self::io_error_locked(&state)?;
            let sealed_lsn = state.latest_lsn - state.active.len() as u64;
            if lsn > sealed_lsn && self.seal_locked(&mut state) {
                drop(state);
                crate::sched::progress("wal.buffer.sealed");
                state = self.lock();
            } else if state.storage.is_none() || self.driven_elsewhere() {
                state = self.wait(&self.boundary_cv, state, "wal.buffer.boundary");
            } else {
                drop(state);
                self.step(false)?;
                state = self.lock();
            }
        }
    }

    /// Land the oldest sealed buffer: append + sync (through the device
    /// coalescer when present), then advance `last_flushed_lsn` and
    /// publish the landed bytes — publication lives *here*, strictly
    /// after the sync and in the same state-lock section as the boundary
    /// advance, which is the structural form of the shipped ⊆ durable
    /// contract. With nothing to land (or another `step` mid-I/O) it
    /// waits if `wait_for_work`, else returns `Ok(false)`; also
    /// `Ok(false)` once shut down and drained.
    fn step(&self, wait_for_work: bool) -> io::Result<bool> {
        #[cfg_attr(not(feature = "mcheck"), allow(unused_mut))]
        let mut pre_published = false;
        let (mut storage, buf, lsn, obs_enabled) = {
            let mut state = self.lock();
            loop {
                let busy = state.storage.is_none();
                if let Some(buf) = state.sealed.front().filter(|_| !busy).cloned() {
                    let storage = state.storage.take().expect("not checked out");
                    let lsn = state.last_flushed_lsn + buf.len() as u64;
                    #[cfg(feature = "mcheck")]
                    if state.publish_before_sync {
                        // The deliberately wrong order the self-test hunts.
                        Self::publish_locked(&mut state, &buf, lsn);
                        pre_published = true;
                    }
                    break (storage, buf, lsn, state.obs.is_enabled());
                }
                if !wait_for_work || (state.shutdown && !busy) {
                    return Ok(false);
                }
                state = if busy {
                    self.wait(&self.boundary_cv, state, "wal.buffer.boundary")
                } else {
                    self.wait(&self.work_cv, state, "wal.buffer.drain")
                };
            }
        };
        // The I/O runs with the state unlocked: appends keep landing in
        // the next buffer while this one syncs.
        crate::sched::yield_point("wal.buffer.sync");
        let timer = obs_enabled.then(std::time::Instant::now);
        let mut windows_led = Vec::new();
        let io_result = match storage.append(&buf) {
            Err(e) => Err(e),
            Ok(()) => match &self.driver {
                FlushDriver::Thread {
                    coalescer: Some(coalescer),
                } => {
                    let (returned, outcome) = coalescer.sync(storage);
                    storage = returned;
                    windows_led = outcome.windows_led;
                    outcome.result
                }
                _ => storage.sync(),
            },
        };
        let mut state = self.lock();
        state.storage = Some(storage);
        match &io_result {
            Err(e) => state.io_error = Some((e.kind(), e.to_string())),
            Ok(()) => {
                state.sealed.pop_front();
                state.last_flushed_lsn = lsn;
                state.syncs += 1;
                state.epoch_len += buf.len() as u64;
                if let Some(t0) = timer {
                    state.obs.record_duration(HistKind::WalSyncMs, t0.elapsed());
                }
                for window in windows_led {
                    state.obs.emit(EventKind::WalCoalescedSync {
                        requests: window as u64,
                    });
                }
                let epoch = state.epoch;
                state.obs.emit(EventKind::WalSync { lsn, epoch });
                if !pre_published {
                    Self::publish_locked(&mut state, &buf, lsn);
                }
            }
        }
        drop(state);
        self.boundary_cv.notify_all();
        crate::sched::progress("wal.buffer.flushed");
        io_result.map(|()| true)
    }

    /// Publish one landed buffer to the shipper (caller holds the state
    /// lock, making the publish atomic with the boundary advance — a
    /// checkpoint can never slide an epoch bump between them).
    fn publish_locked(state: &mut PipeState, buf: &[u8], lsn: u64) {
        if let Some(shipper) = &state.shipper {
            shipper.publish(buf);
            let epoch = state.epoch;
            state.obs.emit(EventKind::ShipPublish { lsn, epoch });
        }
    }
}

/// What the writer mutex orders: the shadow of the log, so that log
/// order == shadow order.
#[derive(Default)]
struct WalInner {
    shadow: RecoveryState,
    /// The committed state at the log tip — what replaying the log now
    /// would rebuild. Values alias the live store's `Arc`s.
    shadow_store: KvStore,
    commits_since_checkpoint: u64,
    /// Framed bytes appended since the last checkpoint.
    bytes_since_checkpoint: u64,
    /// Framed length of the last checkpoint (0 before the first).
    checkpoint_len: u64,
    /// `syncs` is kept by `step` in [`PipeState`]; see [`Wal::stats`].
    stats: WalStats,
    /// Each appended record is encoded here, then framed into the active
    /// buffer; reused, so an append allocates nothing for its bytes.
    scratch: Vec<u8>,
}

impl WalInner {
    /// The framed checkpoint record serializing the shadow state, encoded
    /// straight into its frame: the header is patched in once the payload
    /// is known. A checkpoint holds nothing that was not in the last one
    /// or in a record appended since, so their lengths together presize
    /// the one buffer.
    fn checkpoint_frame(&self) -> Vec<u8> {
        let cp = self.shadow.to_checkpoint(&self.shadow_store);
        let mut framed =
            Vec::with_capacity((self.checkpoint_len + self.bytes_since_checkpoint) as usize);
        framed.resize(FRAME_HEADER_LEN, 0);
        WalRecord::Checkpoint(Box::new(cp)).encode_into(&mut framed);
        let header = frame_header(&framed[FRAME_HEADER_LEN..]);
        framed[..FRAME_HEADER_LEN].copy_from_slice(&header);
        framed
    }

    /// The schedule: at least `every` commit points, and at least the
    /// last checkpoint's length in appended log, since that checkpoint.
    fn checkpoint_due(&self, every: u64) -> bool {
        every > 0
            && self.commits_since_checkpoint >= every
            && self.bytes_since_checkpoint >= self.checkpoint_len
    }
}

/// A per-edge write-ahead log. Thread-safe; share via `Arc`.
pub struct Wal {
    config: WalConfig,
    inner: Mutex<WalInner>,
    shared: Arc<Shared>,
    /// The dedicated flusher thread ([`FlushDriver::Thread`] only),
    /// joined on drop.
    flusher: Option<JoinHandle<()>>,
}

impl Wal {
    /// A log over any storage backend, landed by `driver`.
    #[must_use]
    pub fn with_storage(storage: Box<dyn Storage>, config: WalConfig, driver: FlushDriver) -> Self {
        let shared = Arc::new(Shared {
            state: StdMutex::new(PipeState {
                storage: Some(storage),
                ..PipeState::default()
            }),
            work_cv: Condvar::new(),
            boundary_cv: Condvar::new(),
            driver,
        });
        let flusher = matches!(shared.driver, FlushDriver::Thread { .. }).then(|| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("wal-flusher".into())
                .spawn(move || {
                    // An Err is sticky in the state; waiters fail fast,
                    // so the thread just stops pumping.
                    while matches!(shared.step(true), Ok(true)) {}
                })
                .expect("spawn wal flusher")
        });
        Wal {
            config,
            inner: Mutex::new(WalInner::default()),
            shared,
            flusher,
        }
    }

    /// A fresh file-backed log at `path`, landed inline (truncates an
    /// existing file — recover from it *first* via
    /// [`crate::recover_file`]).
    pub fn create(path: impl AsRef<Path>, config: WalConfig) -> io::Result<Self> {
        Ok(Wal::with_storage(
            Box::new(FileStorage::create(path.as_ref())?),
            config,
            FlushDriver::Inline,
        ))
    }

    /// A fresh in-memory log landed inline; the returned [`MemStorage`]
    /// handle shares the device, for crash simulation.
    #[must_use]
    pub fn in_memory(config: WalConfig) -> (Self, MemStorage) {
        Wal::in_memory_with(config, FlushDriver::Inline)
    }

    /// [`in_memory`](Wal::in_memory) under any driver.
    #[must_use]
    pub fn in_memory_with(config: WalConfig, driver: FlushDriver) -> (Self, MemStorage) {
        let probe = MemStorage::new();
        let wal = Wal::with_storage(Box::new(probe.clone()), config, driver);
        (wal, probe)
    }

    /// Rebuild a writer over recovered state: the log restarts as a single
    /// durable checkpoint frame at epoch 1 serializing `state` (as
    /// recovered — see [`RecoveryReport::state`](crate::RecoveryReport))
    /// over `store` (the recovered committed store); `storage` is
    /// truncated to it, so recover from it *first*. Writes the recovered
    /// transactions never committed are abandoned first: their owners
    /// died with their locks, so they can never finish, and their stale
    /// images must not ride into future checkpoints. With a shipper,
    /// the replica's tail restarts at the new epoch.
    pub fn resume(
        storage: Box<dyn Storage>,
        config: WalConfig,
        driver: FlushDriver,
        mut state: RecoveryState,
        store: &KvStore,
        shipper: Option<Arc<LogShipper>>,
    ) -> io::Result<Self> {
        state.abandon_pending();
        let wal = Wal::with_storage(storage, config, driver);
        {
            let mut inner = wal.inner.lock();
            inner.shadow = state;
            for (key, value) in store.canonical_pairs() {
                inner.shadow_store.put(key, value);
            }
            inner.stats.checkpoints = 1;
            let framed = inner.checkpoint_frame();
            inner.checkpoint_len = framed.len() as u64;
            let mut pstate = wal.shared.lock();
            let storage = pstate.storage.as_mut().expect("no step has run yet");
            storage.reset(&framed)?;
            pstate.syncs = 1;
            pstate.epoch = 1;
            pstate.epoch_len = framed.len() as u64;
            if let Some(shipper) = &shipper {
                shipper.restart_epoch(&framed);
            }
            pstate.shipper = shipper;
        }
        Ok(wal)
    }

    /// Whether this writer owns a flusher thread (only under
    /// [`FlushDriver::Thread`]).
    #[must_use]
    pub fn owns_flusher_thread(&self) -> bool {
        self.flusher.is_some()
    }

    /// Attach an observability stream: appends, seals, syncs and
    /// publishes are emitted as typed events, and sync latency feeds the
    /// per-edge histogram. Safe to call at any point; the default is
    /// disabled.
    pub fn set_obs(&self, obs: EdgeObs) {
        self.shared.lock().obs = obs;
    }

    /// Attach a cloud shipping endpoint. Must happen before the first
    /// append — the writer cannot read already-written bytes back out of
    /// its storage to backfill the replica.
    pub fn attach_shipper(&self, shipper: Arc<LogShipper>) {
        let mut state = self.shared.lock();
        let fresh = state.latest_lsn == 0 && state.epoch_len == 0;
        if fresh {
            state.shipper = Some(shipper);
        }
        drop(state); // a panic under the guard would poison the writer
        assert!(fresh, "attach the shipper before the first append");
    }

    /// Frame `record` into the active buffer and fold it into the shadow,
    /// both under the writer mutex (log order == shadow order); storage
    /// is never touched on this path. The record is encoded once, into
    /// the reused scratch buffer, and its frame is written straight into
    /// the active buffer; the shadow then takes the record by move. A
    /// poisoned writer refuses the record before it is logged, folded or
    /// counted. Returns the record's LSN and, for a commit point, whether
    /// it filled its group.
    fn append(
        &self,
        inner: &mut WalInner,
        record: WalRecord,
        commit_point: bool,
    ) -> io::Result<(u64, bool)> {
        inner.scratch.clear();
        record.encode_into(&mut inner.scratch);
        let header = frame_header(&inner.scratch);
        let framed_len = (FRAME_HEADER_LEN + inner.scratch.len()) as u64;
        let mut state = self.shared.lock();
        Shared::io_error_locked(&state)?;
        state.active.extend_from_slice(&header);
        state.active.extend_from_slice(&inner.scratch);
        state.latest_lsn += framed_len;
        let lsn = state.latest_lsn;
        state.obs.emit(EventKind::WalAppend { lsn });
        state.active_commits += usize::from(commit_point);
        let filled = commit_point && state.active_commits >= self.config.group_commit;
        drop(state);
        inner.stats.records += 1;
        inner.stats.bytes_appended += framed_len;
        inner.bytes_since_checkpoint += framed_len;
        if commit_point {
            inner.stats.commit_points += 1;
            inner.commits_since_checkpoint += 1;
        }
        // Split-borrow: fold into the shadow state *and* shadow store.
        let WalInner {
            shadow,
            shadow_store,
            ..
        } = inner;
        shadow.apply(record, Some(shadow_store));
        Ok((lsn, filled))
    }

    /// Log one executed stage, returning its LSN. If the record is the
    /// commit point that fills a group, the [`FlushDriver`] decides what
    /// this call pays: inline it seals and lands the group before
    /// returning; with a flusher it at most waits on the *previous*
    /// buffer's LSN boundary while this one syncs in the background.
    pub fn append_stage(&self, record: StageRecord) -> io::Result<u64> {
        crate::sched::yield_point("wal.append_stage");
        let commit_point = record.flags.commit_point();
        let record = WalRecord::Stage(record);
        let (lsn, filled) = self.append(&mut self.inner.lock(), record, commit_point)?;
        if filled {
            // Outside the writer mutex: landing (or the backpressure
            // wait) must not block other appenders.
            self.shared.seal_for_commit(lsn, self.config.group_commit)?;
        }
        Ok(lsn)
    }

    /// Log the retraction of apology entries (one record per entry, in
    /// rollback order). Durability rides the enclosing stage's commit.
    pub fn append_retracts(
        &self,
        retracts: impl IntoIterator<Item = RetractRecord>,
    ) -> io::Result<()> {
        crate::sched::yield_point("wal.append_retracts");
        let mut inner = self.inner.lock();
        for r in retracts {
            self.append(&mut inner, WalRecord::Retract(r), false)?;
        }
        Ok(())
    }

    /// Log a 2PC coordinator decision and make it durable *before*
    /// returning — the decision must be durable before any participant
    /// enters phase 2, or a coordinator crash leaves them in doubt
    /// forever. Waits on the decision's own LSN boundary.
    pub fn append_tpc_decision(&self, txn: TxnId, commit: bool) -> io::Result<()> {
        crate::sched::yield_point("wal.append_tpc_decision");
        let record = WalRecord::TpcDecision { txn, commit };
        let (lsn, _) = self.append(&mut self.inner.lock(), record, false)?;
        self.shared.flush_lsn(lsn)
    }

    /// Log the completion of a 2PC transaction's phase 2: every
    /// participant acked, so the decision entry may be forgotten. Not
    /// synced on its own — losing this record merely re-runs an
    /// idempotent phase 2 under presumed abort.
    pub fn append_tpc_end(&self, txn: TxnId) -> io::Result<()> {
        crate::sched::yield_point("wal.append_tpc_end");
        self.append(&mut self.inner.lock(), WalRecord::TpcEnd { txn }, false)?;
        Ok(())
    }

    /// Log a settle point: the caller vouches the edge is quiescent (no
    /// frame in flight) and the apology manager dropped all its entries;
    /// the shadow state drops its mirror of them. Durability rides the
    /// next sync — a lost settle only means some entries get re-dropped
    /// by the next one.
    pub fn append_settle(&self) -> io::Result<()> {
        self.append(&mut self.inner.lock(), WalRecord::Settle, false)?;
        Ok(())
    }

    /// The phase-1 decision the shadow state holds for `txn`, if it has
    /// not been expired by a [`WalRecord::TpcEnd`].
    #[must_use]
    pub fn tpc_decision(&self, txn: TxnId) -> Option<bool> {
        self.inner.lock().shadow.tpc_decision(txn)
    }

    /// Unexpired coordinator decisions currently tracked.
    #[must_use]
    pub fn tpc_decision_count(&self) -> usize {
        self.inner.lock().shadow.tpc_decisions().len()
    }

    /// Force the durable boundary forward over everything appended.
    pub fn flush(&self) -> io::Result<()> {
        self.flush_lsn(self.latest_lsn())
    }

    /// Wait until the durable boundary covers `lsn` (as returned by
    /// [`Wal::append_stage`]). Returns immediately at or below
    /// `last_flushed_lsn`; past it, seals as needed and waits for — or,
    /// with no flusher, runs — the `step` that lands the covering buffer.
    pub fn flush_lsn(&self, lsn: u64) -> io::Result<()> {
        crate::sched::yield_point("wal.buffer.flush_lsn");
        self.shared.flush_lsn(lsn)
    }

    /// The global LSN of the last appended byte.
    #[must_use]
    pub fn latest_lsn(&self) -> u64 {
        self.shared.lock().latest_lsn
    }

    /// The durable LSN boundary: everything at or below survives a
    /// crash (directly, or folded into a durable checkpoint).
    #[must_use]
    pub fn last_flushed_lsn(&self) -> u64 {
        self.shared.lock().last_flushed_lsn
    }

    /// Land one sealed buffer by hand ([`FlushDriver::Manual`]): the
    /// crash sweep uses it to cut the device at exact buffer boundaries,
    /// and the model checker runs it as a virtual task (where it parks
    /// until there is work). Returns `Ok(false)` with nothing to land.
    pub fn flusher_step(&self) -> io::Result<bool> {
        crate::sched::yield_point("wal.buffer.flusher");
        self.shared.step(crate::sched::active())
    }

    /// Seal the active buffer onto the queue without waiting for any
    /// boundary (harness companion to [`Wal::flusher_step`]).
    pub fn seal_active(&self) {
        let sealed = self.shared.seal_locked(&mut self.shared.lock());
        if sealed {
            crate::sched::progress("wal.buffer.sealed");
        }
    }

    /// Stop accepting flusher work after the queue drains: pending
    /// sealed buffers still land, the unsealed active tail is the loss
    /// window. Idempotent; `Drop` calls it too — where a poisoned state
    /// lock (a `step` that panicked) must not panic again.
    pub fn shutdown_flusher(&self) {
        if let Ok(mut state) = self.shared.state.lock() {
            state.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        crate::sched::progress("wal.buffer.shutdown");
    }

    /// Model-checker mutation hook: make `step` publish each buffer
    /// *before* syncing it. This plants the exact bug class the shipping
    /// contract forbids; `tests/mcheck.rs` proves the checker finds it.
    #[cfg(feature = "mcheck")]
    pub fn mutate_publish_before_sync(&self) {
        self.shared.lock().publish_before_sync = true;
    }

    /// Take a checkpoint now: serialize the shadow store + replay state
    /// into one record and truncate the log to it (atomically, synced).
    /// Consistent under concurrency — the snapshot comes from the
    /// writer's own shadow of the log, never from the live store.
    ///
    /// The writer mutex fences appenders; the in-flight buffer — if any
    /// — is waited out, and then the truncation, the epoch bump, the
    /// boundary advance and the shipper restart all happen under the
    /// state lock, atomically with respect to `step`. Unlanded buffers
    /// are discarded: their effects live inside the checkpoint, so the
    /// boundary jumps *forward* to `latest_lsn` and every waiter wakes
    /// durable.
    pub fn checkpoint(&self) -> io::Result<()> {
        self.checkpoint_locked(&mut self.inner.lock())
    }

    /// [`Wal::checkpoint`] under a writer-mutex hold the caller already
    /// has.
    fn checkpoint_locked(&self, inner: &mut WalInner) -> io::Result<()> {
        let framed = inner.checkpoint_frame();
        let shared = &*self.shared;
        let mut state = shared.lock();
        while state.storage.is_none() {
            state = shared.wait(&shared.boundary_cv, state, "wal.buffer.checkpoint");
        }
        Shared::io_error_locked(&state)?;
        let storage = state.storage.as_mut().expect("checked in");
        storage.reset(&framed)?;
        state.sealed.clear();
        state.active.clear();
        state.active_commits = 0;
        state.last_flushed_lsn = state.latest_lsn;
        state.syncs += 1;
        state.epoch += 1;
        state.epoch_len = framed.len() as u64;
        inner.stats.checkpoints += 1;
        inner.commits_since_checkpoint = 0;
        inner.bytes_since_checkpoint = 0;
        inner.checkpoint_len = framed.len() as u64;
        let lsn = state.latest_lsn;
        let epoch = state.epoch;
        state.obs.emit(EventKind::WalSync { lsn, epoch });
        if let Some(shipper) = &state.shipper {
            shipper.restart_epoch(&framed);
            state.obs.emit(EventKind::ShipPublish { lsn, epoch });
        }
        drop(state);
        shared.boundary_cv.notify_all();
        crate::sched::progress("wal.buffer.checkpoint");
        Ok(())
    }

    /// Checkpoint if at least [`WalConfig::checkpoint_every`] commit
    /// points, and at least the last checkpoint's length in log bytes,
    /// accumulated since the last one (call from the commit path).
    /// Decided and taken under one writer-mutex hold, so racing commit
    /// points cannot both find it due.
    pub fn maybe_checkpoint(&self) -> io::Result<bool> {
        let mut inner = self.inner.lock();
        let due = inner.checkpoint_due(self.config.checkpoint_every);
        if due {
            self.checkpoint_locked(&mut inner)?;
        }
        Ok(due)
    }

    /// Counters so far.
    #[must_use]
    pub fn stats(&self) -> WalStats {
        let inner = self.inner.lock();
        WalStats {
            syncs: self.shared.lock().syncs,
            ..inner.stats
        }
    }

    /// Bytes in the current log (post-truncation), landed or not.
    #[must_use]
    pub fn log_len(&self) -> u64 {
        let state = self.shared.lock();
        state.epoch_len + (state.latest_lsn - state.last_flushed_lsn)
    }

    /// Harness view of "every appended byte" of the current epoch — what
    /// a crash that lost nothing would leave on `device` (the probe this
    /// writer was built over): its durable bytes, then the sealed
    /// buffers (in flight or queued), then the active buffer. Crash
    /// sweeps cut this string at every frame boundary.
    #[must_use]
    pub fn epoch_bytes(&self, device: &MemStorage) -> Vec<u8> {
        let state = self.shared.lock();
        let mut out = device.durable();
        // A `step` between its sync and its state update has the device
        // one buffer ahead of `epoch_len`; that buffer is still in
        // `sealed`.
        out.truncate(state.epoch_len as usize);
        for buf in &state.sealed {
            out.extend_from_slice(buf);
        }
        out.extend_from_slice(&state.active);
        out
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        self.shutdown_flusher();
        if let Some(flusher) = self.flusher.take() {
            let _ = flusher.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::write_frame;
    use crate::record::{StageFlags, WriteImage};
    use crate::recover::recover;
    use croesus_store::{Key, Value};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn stage_record(txn: u64, stage: u32, flags: u8, key: &str, post: i64) -> StageRecord {
        StageRecord {
            txn: TxnId(txn),
            stage,
            total: 2,
            flags: StageFlags(flags),
            reads: vec![],
            writes: vec![Key::new(key)],
            images: vec![WriteImage {
                key: Key::new(key),
                pre: None,
                post: Some(Arc::new(Value::Int(post))),
            }],
        }
    }

    const CP: u8 = StageFlags::COMMIT_POINT;
    const FIN: u8 = StageFlags::FINAL;
    const REG: u8 = StageFlags::REGISTER;

    #[test]
    fn group_commit_amortizes_syncs() {
        let (wal, probe) = Wal::in_memory(WalConfig::group(4));
        for i in 0..8u64 {
            wal.append_stage(stage_record(i, 0, CP, "k", i as i64))
                .unwrap();
        }
        let stats = wal.stats();
        assert_eq!(stats.commit_points, 8);
        assert_eq!(stats.syncs, 2, "4-commit groups → 2 syncs for 8 commits");
        assert_eq!(wal.last_flushed_lsn(), wal.latest_lsn());
        assert_eq!(probe.durable().len() as u64, wal.latest_lsn());
    }

    #[test]
    fn strict_mode_syncs_every_commit() {
        let (wal, _) = Wal::in_memory(WalConfig::strict());
        for i in 0..5u64 {
            let lsn = wal.append_stage(stage_record(i, 0, CP, "k", 0)).unwrap();
            assert!(
                wal.last_flushed_lsn() >= lsn,
                "a strict commit point is durable at return"
            );
        }
        assert_eq!(wal.stats().syncs, 5);
    }

    #[test]
    fn unsynced_tail_is_lost_synced_prefix_survives() {
        let (wal, probe) = Wal::in_memory(WalConfig::group(2));
        wal.append_stage(stage_record(1, 0, CP, "a", 1)).unwrap();
        wal.append_stage(stage_record(2, 0, CP, "b", 2)).unwrap(); // sync here
        wal.append_stage(stage_record(3, 0, CP, "c", 3)).unwrap(); // buffered
        let crash = probe.durable();
        let r = recover(&crash);
        assert!(r.store.contains(&"a".into()));
        assert!(r.store.contains(&"b".into()));
        assert!(
            !r.store.contains(&"c".into()),
            "the unsynced commit is inside the group-commit loss window"
        );
        wal.flush().unwrap();
        let r = recover(&probe.durable());
        assert!(r.store.contains(&"c".into()));
    }

    #[test]
    fn non_commit_records_do_not_trigger_sync() {
        let (wal, _) = Wal::in_memory(WalConfig::strict());
        wal.append_stage(stage_record(1, 0, 0, "a", 1)).unwrap(); // MS-SR early stage
        assert_eq!(wal.stats().syncs, 0);
        assert!(wal.last_flushed_lsn() < wal.latest_lsn());
    }

    #[test]
    fn checkpoint_truncates_and_recovery_continues_from_it() {
        let (wal, probe) = Wal::in_memory(WalConfig::group(1));
        wal.append_stage(stage_record(1, 0, CP, "a", 1)).unwrap();
        wal.append_stage(StageRecord {
            images: vec![WriteImage {
                key: "a".into(),
                pre: Some(Arc::new(Value::Int(1))),
                post: Some(Arc::new(Value::Int(2))),
            }],
            ..stage_record(1, 1, CP | FIN, "a", 2)
        })
        .unwrap();
        let before = wal.log_len();
        // The checkpoint serializes the writer's own shadow of the log —
        // no live store involved.
        wal.checkpoint().unwrap();
        assert!(wal.log_len() < before, "checkpoint shrank the log");
        // More activity after the checkpoint. Stage 0 registers its
        // footprint, like every real lock-releasing initial commit.
        wal.append_stage(stage_record(2, 0, CP | REG, "b", 9))
            .unwrap();
        let r = recover(&probe.durable());
        assert_eq!(r.store.get(&"a".into()).as_deref(), Some(&Value::Int(2)));
        assert_eq!(r.store.get(&"b".into()).as_deref(), Some(&Value::Int(9)));
        assert_eq!(r.unfinalized, vec![TxnId(2)]);
        assert_eq!(r.finalized, 1, "the finalized count survives truncation");
    }

    #[test]
    fn auto_checkpoint_schedule_fires() {
        let config = WalConfig {
            group_commit: 1,
            checkpoint_every: 3,
        };
        let (wal, _) = Wal::in_memory(config);
        for i in 0..7u64 {
            wal.append_stage(stage_record(i, 0, CP | FIN, "k", 0))
                .unwrap();
            wal.maybe_checkpoint().unwrap();
        }
        assert_eq!(wal.stats().checkpoints, 2, "commits 3 and 6 checkpoint");
    }

    #[test]
    fn checkpoints_are_paid_for_by_their_own_size_in_appended_log() {
        // Every record commits a fresh key, so each checkpoint is bigger
        // than the last: the size rule, not the floor, sets the pace.
        const N: u64 = 2048;
        let config = WalConfig {
            group_commit: 8,
            checkpoint_every: 16,
        };
        let (wal, probe) = Wal::in_memory(config);
        let mut checkpoint_lens = Vec::new();
        let mut lsn_at_checkpoint = 0;
        let mut checkpoints_at_n = 0;
        let mut longest_record = 0;
        for i in 0..2 * N {
            let before = wal.latest_lsn();
            wal.append_stage(stage_record(i, 0, CP | FIN, &format!("k{i}"), i as i64))
                .unwrap();
            longest_record = longest_record.max(wal.latest_lsn() - before);
            if wal.maybe_checkpoint().unwrap() {
                let appended = wal.latest_lsn() - lsn_at_checkpoint;
                let previous = checkpoint_lens.last().copied().unwrap_or(0);
                assert!(appended >= previous, "checkpoint {i} was not paid for");
                lsn_at_checkpoint = wal.latest_lsn();
                checkpoint_lens.push(wal.log_len());
            }
            if i + 1 == N {
                checkpoints_at_n = wal.stats().checkpoints;
            }
        }
        let stats = wal.stats();
        assert_eq!(stats.checkpoints, checkpoint_lens.len() as u64);
        let all_but_last: u64 = checkpoint_lens[..checkpoint_lens.len() - 1].iter().sum();
        assert!(
            all_but_last <= stats.bytes_appended,
            "{all_but_last} checkpoint bytes for {} appended",
            stats.bytes_appended
        );
        assert!(
            stats.checkpoints - checkpoints_at_n <= 3,
            "doubling the stream took {checkpoints_at_n} → {} checkpoints",
            stats.checkpoints
        );
        // Replay is one checkpoint plus at most as many log bytes again
        // (the record that would have made the next one due aside).
        wal.flush().unwrap();
        let last = *checkpoint_lens.last().unwrap();
        let tail = wal.latest_lsn() - lsn_at_checkpoint;
        assert_eq!(probe.durable().len() as u64, last + tail);
        assert!(
            tail < last + longest_record,
            "tail {tail}, checkpoint {last}"
        );
        assert_eq!(recover(&probe.durable()).store.len() as u64, 2 * N);
    }

    #[test]
    fn no_checkpoint_fires_before_the_commit_point_floor() {
        // One key: the checkpoint stays tiny, so only the floor holds it.
        let config = WalConfig {
            group_commit: 2,
            checkpoint_every: 10,
        };
        let (wal, _) = Wal::in_memory(config);
        let mut commits_since = 0;
        for i in 0..100u64 {
            // Every third record is not a commit point and does not count.
            let commit_point = i % 3 != 0;
            if commit_point {
                wal.append_stage(stage_record(i, 0, CP | FIN, "k", i as i64))
                    .unwrap();
            } else {
                wal.append_settle().unwrap();
            }
            commits_since += u64::from(commit_point);
            if wal.maybe_checkpoint().unwrap() {
                assert_eq!(commits_since, 10, "record {i}");
                commits_since = 0;
            }
        }
        assert_eq!(wal.stats().checkpoints, wal.stats().commit_points / 10);
    }

    #[test]
    fn racing_commit_points_never_checkpoint_twice() {
        // Concurrent committers (pooled waves) each call maybe_checkpoint
        // after their commit point. One key per thread keeps the
        // checkpoint tiny, so the floor alone sets the schedule.
        const THREADS: u64 = 4;
        const COMMITS: u64 = 2_000;
        const EVERY: u64 = 8;
        let config = WalConfig {
            group_commit: 64,
            checkpoint_every: EVERY,
        };
        for round in 0..50 {
            let (wal, _) = Wal::in_memory(config);
            let start = std::sync::Barrier::new(THREADS as usize);
            std::thread::scope(|s| {
                for t in 0..THREADS {
                    let (wal, start) = (&wal, &start);
                    s.spawn(move || {
                        let key = format!("k{t}");
                        start.wait();
                        for i in 0..COMMITS {
                            let txn = t * COMMITS + i;
                            wal.append_stage(stage_record(txn, 0, CP | FIN, &key, 0))
                                .unwrap();
                            wal.maybe_checkpoint().unwrap();
                        }
                    });
                }
            });
            let stats = wal.stats();
            assert_eq!(stats.commit_points, THREADS * COMMITS);
            assert!(
                stats.checkpoints <= stats.commit_points / EVERY,
                "round {round}: {} checkpoints for {} commit points, one per {EVERY} at most",
                stats.checkpoints,
                stats.commit_points
            );
        }
    }

    #[test]
    fn checkpoint_mid_stage_on_another_thread_stays_committed_only() {
        // A concurrent thread has mutated the live store mid-stage (its
        // record not yet appended). The checkpoint must not see it: the
        // snapshot comes from the shadow store, which only moves at
        // appended commit points.
        let (wal, probe) = Wal::in_memory(WalConfig::group(1));
        wal.append_stage(stage_record(1, 0, CP | FIN, "committed", 1))
            .unwrap();
        // (The live store — with some other thread's uncommitted write —
        // is simply never consulted; there is nothing to pass in.)
        wal.checkpoint().unwrap();
        let r = recover(&probe.durable());
        assert_eq!(
            r.store.get(&"committed".into()).as_deref(),
            Some(&Value::Int(1))
        );
        assert_eq!(r.store.len(), 1, "only logged commits reach checkpoints");
    }

    #[test]
    fn tpc_decision_is_synced_immediately() {
        let (wal, probe) = Wal::in_memory(WalConfig::group(1000));
        wal.append_tpc_decision(TxnId(77), true).unwrap();
        let r = recover(&probe.durable());
        assert_eq!(r.tpc_decisions, vec![(TxnId(77), true)]);
    }

    #[test]
    fn file_backed_wal_survives_a_real_roundtrip() {
        let dir = crate::storage::scratch_dir("writer-test");
        let path = dir.join("edge-0.wal");
        let wal = Wal::create(&path, WalConfig::strict()).unwrap();
        wal.append_stage(stage_record(1, 0, CP | REG, "k", 42))
            .unwrap();
        drop(wal);
        let r = crate::recover::recover_file(&path).unwrap();
        assert_eq!(r.store.get(&"k".into()).as_deref(), Some(&Value::Int(42)));
        assert_eq!(r.unfinalized, vec![TxnId(1)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shipped_image_equals_durable_image_at_every_sync() {
        let (wal, probe) = Wal::in_memory(WalConfig::group(2));
        let shipper = Arc::new(LogShipper::new());
        wal.attach_shipper(Arc::clone(&shipper));
        wal.append_stage(stage_record(1, 0, CP, "a", 1)).unwrap();
        assert_eq!(shipper.shipped_len(), 0, "unsynced bytes are never shipped");
        wal.append_stage(stage_record(2, 0, CP, "b", 2)).unwrap(); // group sync
        assert_eq!(shipper.image(), probe.durable());
        wal.append_stage(stage_record(3, 0, CP, "c", 3)).unwrap(); // buffered
        wal.flush().unwrap();
        assert_eq!(shipper.image(), probe.durable());
    }

    #[test]
    fn checkpoint_restarts_the_shipping_epoch() {
        let (wal, probe) = Wal::in_memory(WalConfig::group(1));
        let shipper = Arc::new(LogShipper::new());
        wal.attach_shipper(Arc::clone(&shipper));
        wal.append_stage(stage_record(1, 0, CP | FIN, "a", 1))
            .unwrap();
        wal.checkpoint().unwrap();
        assert_eq!(shipper.epoch(), 1);
        assert_eq!(shipper.image(), probe.durable());
        let r = recover(&shipper.image());
        assert_eq!(r.store.get(&"a".into()).as_deref(), Some(&Value::Int(1)));
    }

    #[test]
    #[should_panic(expected = "before the first append")]
    fn attaching_a_shipper_to_a_dirty_log_panics() {
        let (wal, _) = Wal::in_memory(WalConfig::strict());
        wal.append_stage(stage_record(1, 0, CP, "a", 1)).unwrap();
        wal.attach_shipper(Arc::new(LogShipper::new()));
    }

    #[test]
    fn resume_restarts_the_log_as_a_checkpoint_and_continues() {
        let thread = FlushDriver::Thread { coalescer: None };
        for driver in [FlushDriver::Inline, FlushDriver::Manual, thread] {
            // A crash after one unfinalized commit, then a resumed writer
            // over the recovered state.
            let (wal, probe) = Wal::in_memory_with(WalConfig::strict(), driver.clone());
            wal.append_stage(stage_record(1, 0, CP | REG, "a", 1))
                .unwrap();
            wal.append_stage(stage_record(9, 0, 0, "held", 5)).unwrap(); // MS-SR mid-flight
            wal.flush().unwrap(); // the mid-flight record reaches the disk...
            let r = recover(&probe.durable()); // ...then the process dies
            assert_eq!(r.unfinalized, vec![TxnId(1)]);

            let shipper = Arc::new(LogShipper::new());
            let probe2 = MemStorage::new();
            let resumed = Wal::resume(
                Box::new(probe2.clone()),
                WalConfig::strict(),
                driver,
                r.state,
                &r.store,
                Some(Arc::clone(&shipper)),
            )
            .unwrap();
            assert_eq!(shipper.image(), probe2.durable());
            assert_eq!(shipper.epoch(), 1, "resume = epoch restart for shippers");
            assert_eq!(resumed.stats().checkpoints, 1);
            // New work continues against the resumed log.
            resumed
                .append_stage(stage_record(1, 1, CP | FIN, "a", 2))
                .unwrap();
            resumed.flush().unwrap();
            assert_eq!(shipper.image(), probe2.durable());
            let r2 = recover(&probe2.durable());
            assert_eq!(r2.store.get(&"a".into()).as_deref(), Some(&Value::Int(2)));
            assert!(r2.unfinalized.is_empty(), "txn 1 finalized after resume");
            assert!(
                !r2.store.contains(&"held".into()),
                "the dead mid-flight write never reappears"
            );
            assert_eq!(r2.next_txn, 10, "the id high-water mark survived resume");
        }
    }

    /// A device whose syncs fail while `fail` is set.
    struct FailingSync {
        device: MemStorage,
        fail: Arc<AtomicBool>,
    }

    impl Storage for FailingSync {
        fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.device.append(bytes)
        }
        fn sync(&mut self) -> io::Result<()> {
            if self.fail.load(Ordering::SeqCst) {
                return Err(io::Error::other("injected sync failure"));
            }
            self.device.sync()
        }
        fn reset(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.device.reset(bytes)
        }
        fn len(&self) -> u64 {
            self.device.len()
        }
    }

    #[test]
    fn a_failed_sync_poisons_the_writer_under_every_driver() {
        let thread = FlushDriver::Thread { coalescer: None };
        for driver in [FlushDriver::Inline, FlushDriver::Manual, thread] {
            let fail = Arc::new(AtomicBool::new(true));
            let storage = FailingSync {
                device: MemStorage::new(),
                fail: Arc::clone(&fail),
            };
            let wal = Wal::with_storage(Box::new(storage), WalConfig::group(64), driver);
            let shipper = Arc::new(LogShipper::new());
            wal.attach_shipper(Arc::clone(&shipper));
            let lsn = wal.append_stage(stage_record(1, 0, CP, "a", 1)).unwrap();
            assert!(wal.flush_lsn(lsn).is_err(), "the ack must fail");
            // The device recovers, but pages may have been dropped: the
            // writer must stay poisoned rather than retry-and-succeed.
            fail.store(false, Ordering::SeqCst);
            assert!(wal.flush().is_err());
            // Every append is refused, and a refused record is neither
            // folded into the shadow nor counted.
            let before = wal.stats();
            assert!(wal.append_stage(stage_record(2, 0, CP, "b", 2)).is_err());
            assert!(wal.append_tpc_decision(TxnId(7), true).is_err());
            assert_eq!(
                wal.tpc_decision(TxnId(7)),
                None,
                "a refused decision must not read as a durable one"
            );
            let retract = RetractRecord {
                txn: TxnId(1),
                restores: vec![(Key::new("a"), None)],
            };
            assert!(wal.append_retracts([retract]).is_err());
            assert!(wal.append_tpc_end(TxnId(7)).is_err());
            assert!(wal.append_settle().is_err());
            assert_eq!(wal.stats(), before, "refused appends are not counted");
            assert!(!wal.inner.lock().shadow_store.contains(&"b".into()));
            assert_eq!(wal.last_flushed_lsn(), 0, "nothing was ever acked");
            assert_eq!(shipper.shipped_len(), 0, "nothing was ever published");
        }
    }

    /// A registered entry and a pending (uncommitted) image: the
    /// checkpoint of a shadow that saw these carries both.
    fn busy_records() -> [StageRecord; 2] {
        [
            stage_record(1, 0, CP | REG, "a", 1),
            stage_record(2, 0, 0, "held", 5),
        ]
    }

    #[test]
    fn append_lands_exactly_the_reference_frame_of_every_record() {
        // The reference is `write_frame` over `encode()`.
        let (mut shadow, store) = (RecoveryState::new(), KvStore::new());
        for r in busy_records() {
            shadow.apply(WalRecord::Stage(r), Some(&store));
        }
        let checkpoint = shadow.to_checkpoint(&store);
        assert!(checkpoint.txns.iter().any(|t| !t.pending.is_empty()));
        assert!(checkpoint.txns.iter().any(|t| !t.entries.is_empty()));
        let records = [
            WalRecord::Stage(stage_record(3, 0, CP | FIN | REG, "b", 7)),
            WalRecord::Retract(RetractRecord {
                txn: TxnId(1),
                restores: vec![
                    (Key::new("a"), None),
                    (Key::new("b"), Some(Arc::new(Value::Str("s".into())))),
                ],
            }),
            WalRecord::TpcDecision {
                txn: TxnId(4),
                commit: true,
            },
            WalRecord::TpcEnd { txn: TxnId(4) },
            WalRecord::Settle,
            WalRecord::Checkpoint(Box::new(checkpoint)),
        ];
        // Exhaustive: a new record kind does not compile until it is here.
        let kinds: std::collections::BTreeSet<u8> = records
            .iter()
            .map(|r| match r {
                WalRecord::Stage(_) => 0,
                WalRecord::Retract(_) => 1,
                WalRecord::TpcDecision { .. } => 2,
                WalRecord::Checkpoint(_) => 3,
                WalRecord::Settle => 4,
                WalRecord::TpcEnd { .. } => 5,
            })
            .collect();
        assert_eq!(kinds.len(), 6, "one record of every kind");

        let (wal, probe) = Wal::in_memory_with(WalConfig::group(64), FlushDriver::Manual);
        let mut expected = Vec::new();
        for record in records {
            write_frame(&mut expected, &record.encode());
            wal.append(&mut wal.inner.lock(), record, false).unwrap();
        }
        assert_eq!(wal.epoch_bytes(&probe), expected);

        // A checkpoint frame is encoded into its own buffer, header
        // patched in place; it too must equal the reference.
        let (wal, probe) = Wal::in_memory(WalConfig::group(64));
        for r in busy_records() {
            wal.append_stage(r).unwrap();
        }
        let mut expected = Vec::new();
        {
            let inner = wal.inner.lock();
            let cp = inner.shadow.to_checkpoint(&inner.shadow_store);
            write_frame(&mut expected, &WalRecord::Checkpoint(Box::new(cp)).encode());
        }
        wal.checkpoint().unwrap();
        assert_eq!(probe.durable(), expected);
    }

    #[test]
    fn writers_with_one_state_write_one_checkpoint_whatever_the_key_order() {
        // The same commits in opposite orders, and a writer resumed from
        // the recovered store: three shadows that saw the keys inserted
        // in different orders, one state, one checkpoint.
        const N: u64 = 2_000;
        let config = WalConfig::group(64);
        let logged = |order: &mut dyn Iterator<Item = u64>| {
            let (wal, probe) = Wal::in_memory(config);
            for i in order {
                wal.append_stage(stage_record(i, 0, CP | FIN, &format!("k{i}"), i as i64))
                    .unwrap();
            }
            (wal, probe)
        };
        let checkpoint_of = |(wal, probe): (Wal, MemStorage)| {
            wal.checkpoint().unwrap();
            probe.durable()
        };
        let forward = checkpoint_of(logged(&mut (0..N)));
        let backward = checkpoint_of(logged(&mut (0..N).rev()));
        assert_eq!(forward, backward);

        let (wal, probe) = logged(&mut (0..N));
        wal.flush().unwrap();
        let r = recover(&probe.durable());
        let device = MemStorage::new();
        let driver = FlushDriver::Inline;
        Wal::resume(
            Box::new(device.clone()),
            config,
            driver,
            r.state,
            &r.store,
            None,
        )
        .unwrap();
        assert_eq!(device.durable(), forward);
    }

    #[test]
    fn the_commit_that_fills_a_group_is_durable_at_return() {
        let (wal, probe) = Wal::in_memory(WalConfig::group(3));
        assert!(!wal.owns_flusher_thread(), "inline modes are thread-free");
        for i in 1..=6u64 {
            let lsn = wal.append_stage(stage_record(i, 0, CP, "k", 0)).unwrap();
            if i % 3 == 0 {
                assert_eq!(wal.last_flushed_lsn(), lsn);
                assert_eq!(probe.durable().len() as u64, lsn);
            } else {
                assert!(wal.last_flushed_lsn() < lsn, "inside the loss window");
            }
        }
    }

    #[test]
    fn pipelined_manual_boundary_advances_monotonically() {
        let (wal, probe) = Wal::in_memory_with(WalConfig::group(2), FlushDriver::Manual);
        let l1 = wal.append_stage(stage_record(1, 0, CP, "a", 1)).unwrap();
        // One commit in a group of two: nothing sealed, nothing durable.
        assert_eq!(wal.last_flushed_lsn(), 0);
        let l2 = wal.append_stage(stage_record(2, 0, CP, "b", 2)).unwrap();
        assert!(l2 > l1, "LSNs are monotone byte offsets");
        assert_eq!(wal.latest_lsn(), l2);
        // The second commit sealed the buffer onto the flusher queue, but
        // no flusher has run: still not durable.
        assert_eq!(wal.last_flushed_lsn(), 0);
        assert_eq!(probe.durable().len(), 0);
        assert!(wal.flusher_step().unwrap(), "one sealed buffer to land");
        assert_eq!(wal.last_flushed_lsn(), l2);
        assert_eq!(probe.durable().len(), l2 as usize);
        assert!(!wal.flusher_step().unwrap(), "queue drained");
        let r = recover(&probe.durable());
        assert!(r.store.contains(&"a".into()));
        assert!(r.store.contains(&"b".into()));
    }

    #[test]
    fn pipelined_flush_lsn_returns_at_boundary_not_tail() {
        let (wal, probe) = Wal::in_memory_with(WalConfig::group(2), FlushDriver::Manual);
        wal.append_stage(stage_record(1, 0, CP, "a", 1)).unwrap();
        let sealed = wal.append_stage(stage_record(2, 0, CP, "b", 2)).unwrap();
        wal.flusher_step().unwrap();
        let tail = wal.append_stage(stage_record(3, 0, CP, "c", 3)).unwrap();
        // Waiting for an already-durable LSN is a pure boundary check; the
        // newer unsealed commit stays in the loss window.
        wal.flush_lsn(sealed).unwrap();
        assert!(
            !recover(&probe.durable()).store.contains(&"c".into()),
            "flush_lsn(sealed) must not drain the active buffer"
        );
        // Waiting past the boundary seals and (manual mode) pumps inline.
        wal.flush_lsn(tail).unwrap();
        assert_eq!(wal.last_flushed_lsn(), tail);
        assert!(recover(&probe.durable()).store.contains(&"c".into()));
    }

    #[test]
    fn pipelined_publishes_only_after_the_sync() {
        let (wal, probe) = Wal::in_memory_with(WalConfig::group(2), FlushDriver::Manual);
        let shipper = Arc::new(LogShipper::new());
        wal.attach_shipper(Arc::clone(&shipper));
        wal.append_stage(stage_record(1, 0, CP, "a", 1)).unwrap();
        wal.append_stage(stage_record(2, 0, CP, "b", 2)).unwrap();
        assert_eq!(
            shipper.shipped_len(),
            0,
            "sealed-but-unsynced bytes must not be published"
        );
        wal.flusher_step().unwrap();
        assert_eq!(shipper.image(), probe.durable());
        assert_eq!(shipper.shipped_len(), probe.durable().len());
    }

    #[test]
    fn pipelined_checkpoint_discards_queue_and_restarts_epoch() {
        let (wal, probe) = Wal::in_memory_with(WalConfig::group(2), FlushDriver::Manual);
        let shipper = Arc::new(LogShipper::new());
        wal.attach_shipper(Arc::clone(&shipper));
        wal.append_stage(stage_record(1, 0, CP | REG, "a", 1))
            .unwrap();
        wal.append_stage(stage_record(1, 1, CP | FIN, "a", 2))
            .unwrap();
        wal.flusher_step().unwrap();
        // Sealed-but-unsynced work racing the checkpoint: its effects ride
        // in the checkpoint image instead of the discarded buffer.
        wal.append_stage(stage_record(2, 0, CP | REG, "b", 9))
            .unwrap();
        wal.append_stage(stage_record(3, 0, CP | REG, "c", 7))
            .unwrap(); // seals
        let tail = wal.latest_lsn();
        wal.checkpoint().unwrap();
        assert_eq!(shipper.epoch(), 1, "checkpoint bumped the shipping epoch");
        assert_eq!(shipper.image(), probe.durable(), "full re-tail");
        assert_eq!(
            wal.last_flushed_lsn(),
            tail,
            "checkpoint jumps the boundary to the tail"
        );
        assert!(
            !wal.flusher_step().unwrap(),
            "the stale sealed buffer was discarded, not flushed"
        );
        let r = recover(&probe.durable());
        assert_eq!(r.store.get(&"a".into()).as_deref(), Some(&Value::Int(2)));
        assert_eq!(r.store.get(&"b".into()).as_deref(), Some(&Value::Int(9)));
        assert_eq!(r.store.get(&"c".into()).as_deref(), Some(&Value::Int(7)));
        // LSNs keep counting across the checkpoint — the space is global.
        let next = wal.append_stage(stage_record(4, 0, CP, "d", 4)).unwrap();
        assert!(next > tail);
    }

    #[test]
    fn pipelined_spawned_flusher_drains_on_flush_and_drop() {
        let (wal, probe) =
            Wal::in_memory_with(WalConfig::group(4), FlushDriver::Thread { coalescer: None });
        for i in 0..32u64 {
            wal.append_stage(stage_record(i, 0, CP, "k", i as i64))
                .unwrap();
        }
        wal.flush().unwrap();
        let stats = wal.stats();
        assert_eq!(stats.commit_points, 32);
        assert!(stats.syncs >= 1, "the flusher thread landed buffers");
        assert!(
            stats.syncs <= 9,
            "at most one sync per seal (8 groups) + the final flush"
        );
        let r = recover(&probe.durable());
        assert_eq!(r.store.get(&"k".into()).as_deref(), Some(&Value::Int(31)));
        drop(wal); // joins the flusher without hanging
    }

    #[test]
    fn pipelined_coalesced_edges_share_device_windows() {
        let coalescer = Arc::new(crate::coalesce::SyncCoalescer::new());
        let wals: Vec<_> = (0..4)
            .map(|_| {
                let (wal, probe) = Wal::in_memory_with(
                    WalConfig::group(1),
                    FlushDriver::Thread {
                        coalescer: Some(Arc::clone(&coalescer)),
                    },
                );
                (Arc::new(wal), probe)
            })
            .collect();
        let mut handles = Vec::new();
        for (edge, (wal, _)) in wals.iter().enumerate() {
            let wal = Arc::clone(wal);
            handles.push(std::thread::spawn(move || {
                for i in 0..16u64 {
                    wal.append_stage(stage_record(i, 0, CP, "k", edge as i64))
                        .unwrap();
                }
                wal.flush().unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = coalescer.stats();
        assert!(stats.requests >= 4, "every edge's flusher used the device");
        assert!(stats.windows <= stats.requests);
        for (wal, probe) in &wals {
            assert_eq!(wal.last_flushed_lsn(), wal.latest_lsn());
            let r = recover(&probe.durable());
            assert!(r.store.contains(&"k".into()));
            assert_eq!(r.frames, 16, "every commit landed durably");
        }
    }

    #[test]
    fn pipelined_tpc_decision_is_durable_at_return() {
        let (wal, probe) = Wal::in_memory_with(WalConfig::group(64), FlushDriver::Manual);
        wal.append_stage(stage_record(1, 0, CP, "a", 1)).unwrap();
        wal.append_tpc_decision(TxnId(1), true).unwrap();
        // The decision waits on its own LSN boundary: everything up to and
        // including it is durable when the append returns.
        assert_eq!(wal.last_flushed_lsn(), wal.latest_lsn());
        let r = recover(&probe.durable());
        assert!(r.store.contains(&"a".into()));
    }
}
