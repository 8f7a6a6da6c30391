//! The edge node (§3.3.2).
//!
//! The edge node runs the small model over incoming frames, consults the
//! transactions bank for the transactions each label triggers, processes
//! their initial sections immediately (initial commit → response to the
//! client), and keeps the pending final sections until the cloud labels
//! arrive (or the frame is locally finalized when thresholding decides not
//! to validate it).
//!
//! Transaction processing goes through one [`Executor`] — the edge node
//! does not care whether the deployment runs MS-IA (the paper's default),
//! MS-SR, or the staged discipline; swap the protocol at construction and
//! every workload runs unchanged.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use croesus_detect::{Detection, DetectionModel, SimulatedModel};
use croesus_sim::{DetRng, SimDuration};
use croesus_store::{KvStore, LockManager, TxnId};
use croesus_txn::{
    Executor, ExecutorCore, ProtocolKind, RwSet, SectionOutput, Sequencer, StageOutcome, TxnHandle,
    WorkerPool,
};
use croesus_video::Frame;

use crate::bank::TransactionsBank;
use crate::matching::{match_edge_to_cloud, FinalInput};

type FinalBody = crate::bank::FinalSectionBody;

struct PendingTxn {
    handle: TxnHandle,
    final_rw: RwSet,
    final_body: FinalBody,
    edge_label: Detection,
}

/// Result of processing a frame's initial stage.
pub struct InitialStage {
    /// Transactions whose initial sections committed.
    pub committed: u64,
    /// Wall-clock time spent executing initial sections.
    pub txn_latency: SimDuration,
    /// Responses produced for the client.
    pub responses: Vec<SectionOutput>,
}

/// Result of a frame's final stage.
pub struct FinalStage {
    /// Final sections committed (including fresh missed-label transactions).
    pub committed: u64,
    /// Wall-clock time spent executing final sections.
    pub txn_latency: SimDuration,
    /// Verdict counts: (correct, corrected, erroneous, missed).
    pub counts: (u64, u64, u64, u64),
}

/// The edge node.
pub struct EdgeNode {
    model: SimulatedModel,
    protocol: Arc<Executor>,
    bank: Arc<TransactionsBank>,
    overlap_threshold: f64,
    txn_counter: AtomicU64,
    rng: Mutex<DetRng>,
    pending: Mutex<HashMap<u64, Vec<PendingTxn>>>,
    /// Wave-parallel runtime: initial sections of one sequencer wave run
    /// across this pool's workers. The default inline pool (1 worker) is
    /// the historic single-threaded pipeline, byte-identical.
    pool: WorkerPool,
}

impl EdgeNode {
    /// Create an edge node: small model, fresh store, MS-IA transaction
    /// processing (the paper's default consistency level, §5.1).
    pub fn new(
        model: SimulatedModel,
        bank: Arc<TransactionsBank>,
        overlap_threshold: f64,
        seed: u64,
    ) -> Self {
        let kind = ProtocolKind::MsIa;
        let core = ExecutorCore::new(
            Arc::new(KvStore::new()),
            Arc::new(LockManager::new(kind.default_lock_policy())),
        );
        Self::with_protocol(model, bank, overlap_threshold, seed, kind.build(core))
    }

    /// Create an edge node driving transactions through an arbitrary
    /// multi-stage protocol.
    pub fn with_protocol(
        model: SimulatedModel,
        bank: Arc<TransactionsBank>,
        overlap_threshold: f64,
        seed: u64,
        protocol: Executor,
    ) -> Self {
        EdgeNode {
            model,
            protocol: Arc::new(protocol),
            bank,
            overlap_threshold,
            txn_counter: AtomicU64::new(0),
            rng: Mutex::new(DetRng::new(seed).fork_named("edge-node")),
            pending: Mutex::new(HashMap::new()),
            pool: WorkerPool::inline_pool(),
        }
    }

    /// Replace the execution pool: initial sections of each sequencer wave
    /// run across the pool's workers. With `WorkerPool::new(1)` (the
    /// default) execution is inline and byte-identical with the historic
    /// single-threaded pipeline.
    #[must_use]
    pub fn with_worker_pool(mut self, pool: WorkerPool) -> Self {
        self.pool = pool;
        self
    }

    /// Worker threads executing this edge's waves (1 = inline).
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The edge datastore.
    pub fn store(&self) -> &Arc<KvStore> {
        self.protocol.store()
    }

    /// The transaction protocol (stats, apologies, history).
    pub fn protocol(&self) -> &Executor {
        &self.protocol
    }

    fn next_txn(&self) -> TxnId {
        TxnId(self.txn_counter.fetch_add(1, Ordering::Relaxed))
    }

    /// Run the small model over a frame.
    pub fn detect(&self, frame: &Frame) -> (Vec<Detection>, SimDuration) {
        (
            self.model.detect(frame),
            self.model.inference_latency(frame),
        )
    }

    /// Run one instantiated transaction's initial section: begin, execute,
    /// commit. `None` when the protocol aborted it (MS-SR wait-die against
    /// a pending holder's locks — deterministic, it depends only on txn
    /// ids). A free function over the `Arc`'d protocol so pool jobs can
    /// own everything they touch.
    fn run_initial_txn(
        protocol: &Executor,
        txn: TxnId,
        label: Detection,
        inst: crate::bank::TxnInstance,
    ) -> Option<(SectionOutput, PendingTxn)> {
        // The declared slice owns both sets: stage 0 borrows the first,
        // the second moves on into the pending transaction.
        let stages = [inst.initial_rw, inst.final_rw];
        let handle = protocol.begin(txn, &stages);
        let mut body = Some(inst.initial);
        match protocol.run_stage(handle, &stages[0], &mut |ctx| {
            (body.take().expect("initial body runs once"))(ctx.section_mut())
        }) {
            Ok(StageOutcome::Committed { output, next }) => {
                let [_, final_rw] = stages;
                Some((
                    output,
                    PendingTxn {
                        handle: next,
                        final_rw,
                        final_body: inst.final_section,
                        edge_label: label,
                    },
                ))
            }
            Ok(StageOutcome::Complete { .. }) => {
                unreachable!("two stages were declared")
            }
            Err(_) => {
                // Sequenced MS-IA execution cannot conflict; under MS-SR a
                // pending transaction's held locks can abort this one —
                // drop it (the protocol recorded the abort).
                None
            }
        }
    }

    /// Trigger and run the initial sections for the surviving labels of a
    /// frame. Transactions are ordered by the sequencer so conflicting
    /// initial sections never overlap (§5.2.4); within a wave the runner
    /// parallelizes across the edge's worker pool. Under MS-SR a
    /// conflicting transaction can still abort on the locks a *pending*
    /// transaction holds across its cloud wait; it is then dropped, which
    /// is the hot-spot behaviour of Fig. 6(b).
    ///
    /// Determinism: waves are computed over each transaction's **merged**
    /// declared footprint (initial ∪ final), not just its initial rw-set —
    /// MS-SR acquires the later stages' locks at begin, so two wave-mates
    /// overlapping only on final keys would contend inside a wave. With
    /// merged footprints, wave-mates are fully lock-disjoint; the only
    /// conflicts left are against *pending* transactions from earlier
    /// frames, which always hold lower txn ids, so wait-die resolves them
    /// identically no matter which worker runs what. Txn ids are assigned
    /// in wave-major submission order, and results are collected in that
    /// same order — `workers(1)` and `workers(n)` produce the same
    /// responses, the same pendings, the same stats.
    pub fn run_initial_stage(&self, frame_index: u64, labels: &[Detection]) -> InitialStage {
        let started = Instant::now();
        // Frame ingest advances the stream's sim frame clock: every event
        // this frame produces (stages, syncs, verdicts) is stamped with it.
        let obs = self.protocol.core().obs();
        obs.set_frame(frame_index);
        obs.emit(croesus_obs::EventKind::FrameIngest);
        // Instantiate all triggered transactions.
        let mut instances = Vec::new();
        {
            let rng = self.rng.lock();
            for (li, label) in labels.iter().enumerate() {
                let mut lrng = rng.fork(frame_index << 20 | li as u64);
                for rule in self.bank.triggered_by_label(label) {
                    instances.push((label.clone(), rule.template.instantiate(label, &mut lrng)));
                }
            }
        }
        // Sequence by merged footprint, read in place, and execute wave by
        // wave.
        let waves =
            Sequencer::waves_of(instances.iter().map(|(_, i)| [&i.initial_rw, &i.final_rw]));
        let mut slots: Vec<Option<(Detection, crate::bank::TxnInstance)>> =
            instances.into_iter().map(Some).collect();
        let mut committed = 0u64;
        let mut responses = Vec::new();
        let mut pendings = Vec::new();
        for wave in waves {
            if self.pool.is_inline() || wave.len() == 1 {
                for idx in wave {
                    let (label, inst) = slots[idx].take().expect("each index runs once");
                    let txn = self.next_txn();
                    if let Some((output, ptxn)) =
                        Self::run_initial_txn(&self.protocol, txn, label, inst)
                    {
                        committed += 1;
                        responses.push(output);
                        pendings.push(ptxn);
                    }
                }
            } else {
                let jobs: Vec<_> = wave
                    .iter()
                    .map(|&idx| {
                        let (label, inst) = slots[idx].take().expect("each index runs once");
                        // Ids are handed out at submission time, in wave
                        // order — the same sequence the inline path sees.
                        let txn = self.next_txn();
                        let protocol = Arc::clone(&self.protocol);
                        move || Self::run_initial_txn(&protocol, txn, label, inst)
                    })
                    .collect();
                for (output, ptxn) in self.pool.run_wave(jobs).into_iter().flatten() {
                    committed += 1;
                    responses.push(output);
                    pendings.push(ptxn);
                }
            }
        }
        // Merge rather than overwrite: dropping earlier pending handles
        // would leak the locks MS-SR transactions hold across their wait.
        self.pending
            .lock()
            .entry(frame_index)
            .or_default()
            .extend(pendings);
        InitialStage {
            committed,
            txn_latency: SimDuration::from_secs_f64(started.elapsed().as_secs_f64()),
            responses,
        }
    }

    /// Run one pending transaction's final stage with its matched input.
    fn finalize_one(&self, ptxn: PendingTxn, input: &FinalInput) {
        let mut body = Some(ptxn.final_body);
        self.protocol
            .run_stage(ptxn.handle, &ptxn.final_rw, &mut |ctx| {
                (body.take().expect("final body runs once"))(ctx.section_mut(), input)
            })
            .expect("final sections cannot abort");
    }

    /// Deliver the cloud labels for a validated frame: match them against
    /// the pending edge labels, run every pending final section with its
    /// verdict, and spawn fresh transactions for cloud labels the edge
    /// missed.
    pub fn deliver_cloud_labels(&self, frame_index: u64, cloud_labels: &[Detection]) -> FinalStage {
        let started = Instant::now();
        let pendings = self.pending.lock().remove(&frame_index).unwrap_or_default();
        let edge_labels: Vec<Detection> = pendings.iter().map(|p| p.edge_label.clone()).collect();
        let frame_match = match_edge_to_cloud(&edge_labels, cloud_labels, self.overlap_threshold);
        let (correct, corrected, erroneous) = {
            let c = frame_match.counts();
            (c.0 as u64, c.1 as u64, c.2 as u64)
        };

        let mut committed = 0u64;
        for (ptxn, input) in pendings.into_iter().zip(frame_match.inputs) {
            self.finalize_one(ptxn, &input);
            committed += 1;
        }

        // Cloud labels with no edge counterpart trigger fresh initial+final
        // pairs (§3.3.2, last paragraph): every matching rule, in rule
        // order, all drawing from the label's one rng fork.
        let missed = frame_match.missed.len() as u64;
        for (mi, label) in frame_match.missed.iter().enumerate() {
            let mut lrng = self
                .rng
                .lock()
                .fork(frame_index << 20 | (1 << 19) | mi as u64);
            for rule in self.bank.triggered_by_label(label) {
                let inst = rule.template.instantiate(label, &mut lrng);
                let txn = self.next_txn();
                if let Some((_, ptxn)) =
                    Self::run_initial_txn(&self.protocol, txn, label.clone(), inst)
                {
                    let input = FinalInput::correct(ptxn.edge_label.clone());
                    self.finalize_one(ptxn, &input);
                    committed += 1;
                }
            }
        }

        self.protocol
            .core()
            .obs()
            .emit(croesus_obs::EventKind::CloudVerdict {
                correct: correct as u32,
                corrected: corrected as u32,
                erroneous: erroneous as u32,
                missed: missed as u32,
            });

        FinalStage {
            committed,
            txn_latency: SimDuration::from_secs_f64(started.elapsed().as_secs_f64()),
            counts: (correct, corrected, erroneous, missed),
        }
    }

    /// Finalize a frame locally (thresholding decided not to validate):
    /// every pending final section runs with its edge label assumed
    /// correct.
    pub fn finalize_local(&self, frame_index: u64) -> FinalStage {
        let started = Instant::now();
        let pendings = self.pending.lock().remove(&frame_index).unwrap_or_default();
        let mut committed = 0u64;
        let n = pendings.len() as u64;
        for ptxn in pendings {
            let input = FinalInput::assumed_correct(ptxn.edge_label.clone());
            self.finalize_one(ptxn, &input);
            committed += 1;
        }
        FinalStage {
            committed,
            txn_latency: SimDuration::from_secs_f64(started.elapsed().as_secs_f64()),
            counts: (n, 0, 0, 0),
        }
    }

    /// Settle-and-prune: when the edge is quiescent (no frame awaiting a
    /// final section), every registered transaction is finalized and can
    /// never become a retraction root; future cascades can only involve
    /// future transactions. Dropping the retractable entries here is what
    /// keeps the apology manager and the WAL's replay state bounded over
    /// an unbounded run, and where the WAL checkpoints the live store when
    /// due. Returns the entries dropped (0 when not quiescent — a pending
    /// transaction could still retract, so nothing is safe to forget).
    pub fn settle(&self) -> usize {
        let pending = self.pending.lock();
        if !pending.is_empty() {
            return 0;
        }
        let core = self.protocol.core();
        let dropped = core.apologies().settle_all();
        if let Some(wal) = core.wal() {
            if dropped > 0 {
                wal.append_settle()
                    .expect("WAL append failed — durability cannot be guaranteed");
            }
            wal.maybe_checkpoint()
                .expect("WAL checkpoint failed — durability cannot be guaranteed");
        }
        dropped
    }

    /// Start assigning transaction ids from `n` — a replacement node takes
    /// over from a recovered log's high-water mark so ids never collide
    /// with the dead node's.
    pub(crate) fn set_txn_start(&self, n: u64) {
        self.txn_counter.store(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
impl EdgeNode {
    /// Number of frames with pending final sections.
    pub(crate) fn pending_frames(&self) -> usize {
        self.pending.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::TriggerRule;
    use crate::workload::YcsbWorkload;
    use croesus_detect::ModelProfile;
    use croesus_video::{BoundingBox, VideoPreset};

    fn bank() -> Arc<TransactionsBank> {
        Arc::new(TransactionsBank::new().with_rule(TriggerRule {
            class_group: "any".into(),
            classes: vec![],
            requires_aux: None,
            template: Arc::new(YcsbWorkload::new()),
        }))
    }

    fn edge() -> EdgeNode {
        EdgeNode::new(
            SimulatedModel::new(ModelProfile::tiny_yolov3(), 7),
            bank(),
            0.10,
            7,
        )
    }

    fn edge_with(kind: ProtocolKind) -> EdgeNode {
        let core = ExecutorCore::new(
            Arc::new(KvStore::new()),
            Arc::new(LockManager::new(kind.default_lock_policy())),
        );
        EdgeNode::with_protocol(
            SimulatedModel::new(ModelProfile::tiny_yolov3(), 7),
            bank(),
            0.10,
            7,
            kind.build(core),
        )
    }

    fn det(class: &str, conf: f64, x: f64) -> Detection {
        Detection::new(class.into(), conf, BoundingBox::new(x, 0.4, 0.15, 0.15))
    }

    #[test]
    fn initial_stage_commits_one_txn_per_label() {
        let e = edge();
        let stage = e.run_initial_stage(0, &[det("car", 0.8, 0.1), det("car", 0.7, 0.5)]);
        assert_eq!(stage.committed, 2);
        assert_eq!(e.pending_frames(), 1);
        assert!(e.store().len() >= 6, "3 inserts per transaction");
    }

    #[test]
    fn local_finalize_keeps_inserts() {
        let e = edge();
        e.run_initial_stage(0, &[det("car", 0.9, 0.1)]);
        let before = e.store().len();
        let stage = e.finalize_local(0);
        assert_eq!(stage.committed, 1);
        assert_eq!(stage.counts, (1, 0, 0, 0));
        assert_eq!(e.store().len(), before);
        assert_eq!(e.pending_frames(), 0);
    }

    #[test]
    fn cloud_confirmation_keeps_state() {
        let e = edge();
        let label = det("car", 0.8, 0.1);
        e.run_initial_stage(3, std::slice::from_ref(&label));
        let before = e.store().len();
        let stage = e.deliver_cloud_labels(3, &[det("car", 0.95, 0.12)]);
        assert_eq!(stage.counts, (1, 0, 0, 0));
        assert_eq!(e.store().len(), before);
    }

    #[test]
    fn erroneous_label_state_is_removed() {
        let e = edge();
        e.run_initial_stage(4, &[det("car", 0.6, 0.1)]);
        let before = e.store().len();
        // Cloud saw nothing where the edge saw a car.
        let stage = e.deliver_cloud_labels(4, &[]);
        assert_eq!(stage.counts, (0, 0, 1, 0));
        assert_eq!(e.store().len(), before - 3, "erroneous inserts deleted");
    }

    #[test]
    fn missed_cloud_labels_spawn_fresh_transactions() {
        let e = edge();
        e.run_initial_stage(5, &[]);
        let stage = e.deliver_cloud_labels(5, &[det("car", 0.9, 0.7)]);
        assert_eq!(stage.counts.3, 1, "one missed label");
        assert_eq!(stage.committed, 1, "fresh txn ran both sections");
        assert!(e.store().len() >= 3);
    }

    #[test]
    fn missed_cloud_labels_run_every_matching_rule() {
        let rule = || TriggerRule {
            class_group: "any".into(),
            classes: vec![],
            requires_aux: None,
            template: Arc::new(YcsbWorkload::new()),
        };
        let bank = TransactionsBank::new().with_rule(rule()).with_rule(rule());
        let e = EdgeNode::new(
            SimulatedModel::new(ModelProfile::tiny_yolov3(), 7),
            Arc::new(bank),
            0.10,
            7,
        );
        e.run_initial_stage(5, &[]);
        let stage = e.deliver_cloud_labels(5, &[det("car", 0.9, 0.7)]);
        assert_eq!(stage.counts.3, 1, "one missed label");
        assert_eq!(stage.committed, 2, "both rules ran both sections");
    }

    #[test]
    fn detection_runs_small_model() {
        let e = edge();
        let v = VideoPreset::StreetTraffic.generate(10, 7);
        let (dets, latency) = e.detect(v.frame(0));
        let _ = dets;
        // Tiny YOLOv3 ≈ 190 ms.
        assert!(latency.as_millis_f64() > 140.0 && latency.as_millis_f64() < 240.0);
    }

    #[test]
    fn ms_ia_history_obligations_hold() {
        let e = edge();
        e.run_initial_stage(0, &[det("car", 0.8, 0.1)]);
        e.run_initial_stage(1, &[det("car", 0.8, 0.3)]);
        e.deliver_cloud_labels(0, &[det("car", 0.9, 0.1)]);
        e.finalize_local(1);
        let snap = e.protocol().stats().snapshot();
        assert_eq!(snap.commits, 2);
        assert_eq!(snap.aborts, 0);
    }

    #[test]
    fn delivering_labels_for_unknown_frame_is_safe() {
        let e = edge();
        let stage = e.deliver_cloud_labels(999, &[]);
        assert_eq!(stage.committed, 0);
        assert_eq!(stage.counts, (0, 0, 0, 0));
    }

    #[test]
    fn every_protocol_drives_the_same_frame_flow() {
        // The tentpole claim: the edge node works unchanged under any
        // protocol. YCSB keys are unique per transaction, so the
        // conflict-free flow commits identically everywhere.
        for kind in ProtocolKind::ALL {
            let e = edge_with(kind);
            let s0 = e.run_initial_stage(0, &[det("car", 0.8, 0.1)]);
            assert_eq!(s0.committed, 1, "{kind}");
            let fin = e.deliver_cloud_labels(0, &[det("car", 0.9, 0.1)]);
            assert_eq!(fin.committed, 1, "{kind}");
            let snap = e.protocol().stats().snapshot();
            assert_eq!(snap.commits, 1, "{kind}");
            assert_eq!(e.protocol().kind(), kind);
        }
    }

    /// The tentpole contract: a wave-parallel edge (workers > 1) commits
    /// the same transactions, produces the same responses in the same
    /// order, and leaves the same store state as the inline edge — for
    /// every protocol.
    #[test]
    fn pooled_edge_matches_inline_edge_exactly() {
        for kind in ProtocolKind::ALL {
            let inline_edge = edge_with(kind);
            let pooled_edge = edge_with(kind).with_worker_pool(WorkerPool::new(4));
            assert_eq!(pooled_edge.workers(), 4);
            let labels: Vec<Detection> = (0..12)
                .map(|i| det("car", 0.6 + 0.03 * i as f64, 0.05 * i as f64))
                .collect();
            for frame in 0..4u64 {
                let a = inline_edge.run_initial_stage(frame, &labels);
                let b = pooled_edge.run_initial_stage(frame, &labels);
                assert_eq!(a.committed, b.committed, "{kind} frame {frame}");
                assert_eq!(a.responses.len(), b.responses.len(), "{kind}");
                let fa = inline_edge.finalize_local(frame);
                let fb = pooled_edge.finalize_local(frame);
                assert_eq!(fa.committed, fb.committed, "{kind} frame {frame}");
            }
            let sa = inline_edge.protocol().stats().snapshot();
            let sb = pooled_edge.protocol().stats().snapshot();
            assert_eq!(sa.begun, sb.begun, "{kind}");
            assert_eq!(sa.commits, sb.commits, "{kind}");
            assert_eq!(sa.aborts, sb.aborts, "{kind}");
            assert_eq!(
                inline_edge.store().len(),
                pooled_edge.store().len(),
                "{kind}: store state must not depend on the worker count"
            );
        }
    }

    #[test]
    fn settle_prunes_entries_only_at_quiescence() {
        let e = edge();
        e.run_initial_stage(0, &[det("car", 0.8, 0.1)]);
        assert_eq!(e.settle(), 0, "a pending final section blocks settling");
        e.finalize_local(0);
        assert!(e.settle() > 0, "quiescent: retractable entries dropped");
        assert_eq!(e.settle(), 0, "nothing left for a second settle");
        assert_eq!(e.protocol().core().apologies().tracked_count(), 0);
    }

    #[test]
    fn checkpoints_wait_for_the_frame_boundary_on_a_pooled_edge() {
        // Four workers run each frame's stages, and the WAL may checkpoint
        // only in `settle`, where none is in flight: every checkpoint is
        // the whole log right after a frame's last record, and replaying
        // the log gives the live store after every frame.
        use croesus_wal::{recover, FrameReader, Wal, WalConfig, WalRecord};
        let config = WalConfig {
            group_commit: 2,
            checkpoint_every: 4,
        };
        let labels: Vec<Detection> = (0..12)
            .map(|i| det("car", 0.6 + 0.03 * i as f64, 0.05 * i as f64))
            .collect();
        for kind in ProtocolKind::ALL {
            let (wal, probe) = Wal::in_memory(config);
            let wal = Arc::new(wal);
            let core = ExecutorCore::new(
                Arc::new(KvStore::new()),
                Arc::new(LockManager::new(kind.default_lock_policy())),
            )
            .with_wal(Arc::clone(&wal));
            let e = EdgeNode::with_protocol(
                SimulatedModel::new(ModelProfile::tiny_yolov3(), 7),
                bank(),
                0.10,
                7,
                kind.build(core),
            )
            .with_worker_pool(WorkerPool::new(4));
            for frame in 0..12u64 {
                let before = wal.stats().checkpoints;
                e.run_initial_stage(frame, &labels);
                if frame % 2 == 0 {
                    e.finalize_local(frame);
                } else {
                    // Half the labels confirmed, half erroneous: retractions.
                    e.deliver_cloud_labels(frame, &labels[..6]);
                }
                assert_eq!(wal.stats().checkpoints, before, "{kind} frame {frame}");
                e.settle();
                let log = wal.epoch_bytes(&probe);
                if wal.stats().checkpoints > before {
                    let mut records = FrameReader::new(&log).map(WalRecord::decode);
                    let first = records.next();
                    assert!(matches!(first, Some(Ok(WalRecord::Checkpoint(_)))));
                    assert!(records.next().is_none(), "{kind} frame {frame}");
                }
                assert_eq!(
                    recover(&log).store.canonical_pairs(),
                    e.store().canonical_pairs(),
                    "{kind} frame {frame}: the log replays to the live store"
                );
            }
            let checkpoints = wal.stats().checkpoints;
            assert!(checkpoints >= 2, "{kind}: {checkpoints} checkpoints");
        }
    }

    #[test]
    fn txn_ids_continue_from_the_configured_start() {
        use croesus_wal::{Wal, WalConfig};
        let kind = ProtocolKind::MsIa;
        let (wal, probe) = Wal::in_memory(WalConfig::strict());
        let core = ExecutorCore::new(
            Arc::new(KvStore::new()),
            Arc::new(LockManager::new(kind.default_lock_policy())),
        )
        .with_wal(Arc::new(wal));
        let e = EdgeNode::with_protocol(
            SimulatedModel::new(ModelProfile::tiny_yolov3(), 7),
            bank(),
            0.10,
            7,
            kind.build(core),
        );
        e.set_txn_start(500);
        e.run_initial_stage(0, &[det("car", 0.8, 0.1)]);
        e.finalize_local(0);
        let r = croesus_wal::recover(&probe.durable());
        assert_eq!(r.next_txn, 501, "ids picked up at the configured start");
    }

    #[test]
    fn ms_sr_holds_locks_across_the_cloud_wait() {
        let e = edge_with(ProtocolKind::MsSr);
        e.run_initial_stage(0, &[det("car", 0.8, 0.1)]);
        // The pending transaction's final items are locked right now.
        assert!(e.protocol().core().locks().locked_keys() > 0);
        e.finalize_local(0);
        assert_eq!(e.protocol().core().locks().locked_keys(), 0);
    }
}
