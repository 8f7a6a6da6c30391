//! The cloud node.
//!
//! §3.3.3: "The cloud node has a single task of processing frames using the
//! cloud model Mc. When a frame f is received from an edge node, the labels
//! Lc are derived using Mc and then sent back to the edge node."
//!
//! Besides inference, the cloud is the failover site for edge durability:
//! a [`ReplicaTailer`] per edge tails that edge's shipped WAL bytes and
//! keeps a validated replica of its durable log, so that when the edge
//! dies the cloud can rebuild its committed state (apologies included)
//! and take over its partition.

use std::sync::Arc;

use croesus_detect::{Detection, DetectionModel, ModelKind, SimulatedModel};
use croesus_sim::SimDuration;
use croesus_txn::recovery::{recover_edge, RecoveredEdge};
use croesus_video::Frame;
use croesus_wal::{FrameReader, LogShipper, ShipCursor, ShipFetch, TailState, WalRecord};

/// The cloud node: a wrapper around the accurate (slow) model.
pub struct CloudNode {
    pub(crate) model: SimulatedModel,
}

impl CloudNode {
    /// Create a cloud node running the given model size.
    pub fn new(kind: ModelKind, seed: u64) -> Self {
        CloudNode {
            model: SimulatedModel::new(kind.profile(), seed),
        }
    }

    /// Process a frame: returns the cloud labels and the inference latency.
    pub fn process(&self, frame: &Frame) -> (Vec<Detection>, SimDuration) {
        let labels = self.model.detect(frame);
        let latency = self.model.inference_latency(frame);
        (labels, latency)
    }
}

/// What one tailing round observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TailPoll {
    /// New validated bytes were appended to the replica log.
    Advanced {
        /// Bytes accepted this round.
        bytes: usize,
        /// Whether the batch replaced the replica log (the source
        /// checkpointed or resumed into a new epoch).
        restarted: bool,
    },
    /// The cursor is at the shipped tip.
    UpToDate,
    /// The uplink is down; try again later.
    Offline,
    /// The fetched batch failed validation (damaged in flight) and was
    /// discarded without moving the cursor — the next poll refetches.
    Rejected,
}

/// The cloud's replica of one edge's durable log.
///
/// Tails a [`LogShipper`] with an LSN-style [`ShipCursor`] and validates
/// every batch before accepting it: the batch must frame-parse with a
/// clean tail *and* every payload must decode as a [`WalRecord`]. The
/// source only publishes synced whole frames, so anything less is
/// in-flight damage; rejecting without advancing the cursor makes the
/// next poll an automatic refetch. The replica therefore holds, at all
/// times, a valid prefix of the edge's durable log — exactly what crash
/// recovery accepts.
///
/// Validating the batch alone is the whole-log rule, at the cost of the
/// batch: the replica log already validates and ends on a frame
/// boundary, so `log ∥ batch` validates exactly when `batch` does.
pub struct ReplicaTailer {
    shipper: Arc<LogShipper>,
    cursor: ShipCursor,
    log: Vec<u8>,
}

impl ReplicaTailer {
    /// Start tailing from the beginning of the current epoch.
    #[must_use]
    pub fn new(shipper: Arc<LogShipper>) -> Self {
        ReplicaTailer {
            shipper,
            cursor: ShipCursor::default(),
            log: Vec::new(),
        }
    }

    /// Every frame CRC-clean to the very end, every payload a record.
    fn validates(bytes: &[u8]) -> bool {
        let mut reader = FrameReader::new(bytes);
        for payload in reader.by_ref() {
            if WalRecord::decode(payload).is_err() {
                return false;
            }
        }
        reader.tail() == TailState::Clean
    }

    /// One tailing round: fetch from the cursor, validate the batch, then
    /// append it (or, for a restart batch, replace the log with it).
    pub fn poll(&mut self) -> TailPoll {
        match self.shipper.fetch(self.cursor) {
            ShipFetch::Offline => TailPoll::Offline,
            ShipFetch::UpToDate => TailPoll::UpToDate,
            ShipFetch::Batch(batch) => {
                if !Self::validates(&batch.bytes) {
                    return TailPoll::Rejected;
                }
                let bytes = batch.bytes.len();
                if batch.restart {
                    self.log = batch.bytes;
                } else {
                    self.log.extend_from_slice(&batch.bytes);
                }
                self.cursor = ShipCursor {
                    epoch: batch.epoch,
                    offset: self.log.len(),
                };
                TailPoll::Advanced {
                    bytes,
                    restarted: batch.restart,
                }
            }
        }
    }

    /// Poll until the replica is at the shipped tip (or the link drops).
    /// Returns the final poll outcome.
    pub fn catch_up(&mut self) -> TailPoll {
        loop {
            match self.poll() {
                TailPoll::Advanced { .. } => continue,
                done => return done,
            }
        }
    }

    /// The replicated log bytes — a valid prefix of the edge's durable
    /// log.
    #[must_use]
    pub fn log(&self) -> &[u8] {
        &self.log
    }

    /// The replication cursor.
    #[must_use]
    pub fn cursor(&self) -> ShipCursor {
        self.cursor
    }

    /// Apology-aware recovery over the replica — what takeover runs when
    /// the edge is declared dead. Byte-identical input to in-place
    /// recovery of the same durable prefix, so the rebuilt state is too.
    #[must_use]
    pub fn recover(&self) -> RecoveredEdge {
        recover_edge(&self.log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use croesus_video::VideoPreset;

    #[test]
    fn cloud_node_detects_with_model_latency() {
        let v = VideoPreset::StreetTraffic.generate(30, 3);
        let node = CloudNode::new(ModelKind::YoloV3_416, 3);
        let (labels, latency) = node.process(v.frame(5));
        assert!(!labels.is_empty() || v.frame(5).objects.is_empty());
        // YOLOv3-416 ≈ 1.12 s.
        assert!(latency.as_millis_f64() > 900.0 && latency.as_millis_f64() < 1400.0);
    }

    #[test]
    fn processing_is_deterministic() {
        let v = VideoPreset::StreetTraffic.generate(30, 3);
        let node = CloudNode::new(ModelKind::YoloV3_416, 3);
        let (a, la) = node.process(v.frame(7));
        let (b, lb) = node.process(v.frame(7));
        assert_eq!(a, b);
        assert_eq!(la, lb);
    }

    #[test]
    fn model_sizes_have_ordered_latency() {
        let v = VideoPreset::StreetTraffic.generate(5, 3);
        let f = v.frame(0);
        let l320 = CloudNode::new(ModelKind::YoloV3_320, 3).process(f).1;
        let l608 = CloudNode::new(ModelKind::YoloV3_608, 3).process(f).1;
        assert!(l608 > l320);
    }

    mod tailer {
        use super::super::*;
        use croesus_sim::DetRng;
        use croesus_store::{TxnId, Value};
        use croesus_wal::frame::write_frame;
        use croesus_wal::{StageFlags, StageRecord, Wal, WalConfig, WriteImage};

        fn shipped_wal() -> (Wal, Arc<LogShipper>) {
            let (wal, _) = Wal::in_memory(WalConfig::strict());
            let shipper = Arc::new(LogShipper::new());
            wal.attach_shipper(Arc::clone(&shipper));
            (wal, shipper)
        }

        fn commit(wal: &Wal, txn: u64, key: &str, val: i64) {
            wal.append_stage(StageRecord {
                txn: TxnId(txn),
                stage: 0,
                total: 2,
                flags: StageFlags(StageFlags::COMMIT_POINT | StageFlags::REGISTER),
                reads: vec![],
                writes: vec![key.into()],
                images: vec![WriteImage {
                    key: key.into(),
                    pre: None,
                    post: Some(Arc::new(Value::Int(val))),
                }],
            })
            .unwrap();
        }

        fn finalize(wal: &Wal, txn: u64) {
            wal.append_stage(StageRecord {
                txn: TxnId(txn),
                stage: 1,
                total: 2,
                flags: StageFlags(StageFlags::COMMIT_POINT | StageFlags::FINAL),
                reads: vec![],
                writes: vec![],
                images: vec![],
            })
            .unwrap();
        }

        #[test]
        fn replica_tracks_the_durable_log() {
            let (wal, shipper) = shipped_wal();
            let mut tailer = ReplicaTailer::new(shipper.clone());
            assert_eq!(tailer.poll(), TailPoll::UpToDate, "nothing shipped yet");
            commit(&wal, 1, "a", 1);
            finalize(&wal, 1);
            commit(&wal, 2, "b", 2);
            assert!(matches!(
                tailer.poll(),
                TailPoll::Advanced {
                    restarted: false,
                    ..
                }
            ));
            assert_eq!(tailer.log(), &shipper.image()[..]);
            let rec = tailer.recover();
            assert_eq!(rec.store.get(&"a".into()).as_deref(), Some(&Value::Int(1)));
            assert_eq!(rec.unfinalized, vec![TxnId(2)], "caught mid-flight");
            assert!(
                !rec.store.contains(&"b".into()),
                "the unvalidated guess is retracted on the replica too"
            );
        }

        #[test]
        fn damaged_batch_is_rejected_then_refetched() {
            let (wal, shipper) = shipped_wal();
            let mut tailer = ReplicaTailer::new(shipper.clone());
            commit(&wal, 1, "a", 1);
            shipper.corrupt_next_fetch();
            assert_eq!(tailer.poll(), TailPoll::Rejected);
            assert!(tailer.log().is_empty(), "nothing damaged was kept");
            assert!(matches!(tailer.poll(), TailPoll::Advanced { .. }));
            assert_eq!(tailer.log(), &shipper.image()[..]);
        }

        #[test]
        fn offline_link_stalls_the_tail_without_losing_the_cursor() {
            let (wal, shipper) = shipped_wal();
            let mut tailer = ReplicaTailer::new(shipper.clone());
            commit(&wal, 1, "a", 1);
            assert!(matches!(tailer.catch_up(), TailPoll::UpToDate));
            shipper.set_offline(true);
            commit(&wal, 2, "b", 2);
            assert_eq!(tailer.poll(), TailPoll::Offline);
            shipper.set_offline(false);
            assert!(matches!(
                tailer.poll(),
                TailPoll::Advanced {
                    restarted: false,
                    ..
                }
            ));
            assert_eq!(tailer.log(), &shipper.image()[..]);
        }

        /// The accept rule before batch-only validation, kept as the
        /// oracle: append the batch to a copy of the whole replica log (or
        /// start over for a restart) and validate all of it.
        struct WholeLogTailer {
            shipper: LogShipper,
            cursor: ShipCursor,
            log: Vec<u8>,
        }

        impl WholeLogTailer {
            fn poll(&mut self) -> TailPoll {
                match self.shipper.fetch(self.cursor) {
                    ShipFetch::Offline => TailPoll::Offline,
                    ShipFetch::UpToDate => TailPoll::UpToDate,
                    ShipFetch::Batch(batch) => {
                        let mut candidate = if batch.restart {
                            Vec::new()
                        } else {
                            self.log.clone()
                        };
                        candidate.extend_from_slice(&batch.bytes);
                        if !ReplicaTailer::validates(&candidate) {
                            return TailPoll::Rejected;
                        }
                        self.log = candidate;
                        self.cursor = ShipCursor {
                            epoch: batch.epoch,
                            offset: self.log.len(),
                        };
                        TailPoll::Advanced {
                            bytes: batch.bytes.len(),
                            restarted: batch.restart,
                        }
                    }
                }
            }
        }

        /// A random run of framed records: decodable ones, and now and
        /// then a CRC-clean frame whose payload is not a record.
        fn random_frames(rng: &mut DetRng) -> Vec<u8> {
            let mut out = Vec::new();
            for _ in 0..rng.int_range(1, 5) {
                let txn = TxnId(rng.int_range(0, 100));
                let record = match rng.index(5) {
                    0 => WalRecord::Settle,
                    1 => WalRecord::TpcEnd { txn },
                    2 => WalRecord::TpcDecision {
                        txn,
                        commit: rng.bernoulli(0.5),
                    },
                    _ => WalRecord::Stage(StageRecord {
                        txn,
                        stage: 0,
                        total: 2,
                        flags: StageFlags(StageFlags::COMMIT_POINT),
                        reads: vec![],
                        writes: vec!["k".into()],
                        images: vec![WriteImage {
                            key: "k".into(),
                            pre: None,
                            post: Some(Arc::new(Value::Int(txn.0 as i64))),
                        }],
                    }),
                };
                if rng.bernoulli(0.05) {
                    write_frame(&mut out, &[250, 1, 2, 3]);
                } else {
                    write_frame(&mut out, &record.encode());
                }
            }
            out
        }

        #[test]
        fn batch_only_acceptance_equals_the_whole_log_rule() {
            for seed in 0..64 {
                let mut rng = DetRng::new(seed);
                // Two shippers fed the same dialogue: the tailer under
                // test on one, the oracle on the other (a fetch consumes
                // a pending corruption, so they cannot share one).
                let shipper = Arc::new(LogShipper::new());
                let mut tailer = ReplicaTailer::new(Arc::clone(&shipper));
                let mut oracle = WholeLogTailer {
                    shipper: LogShipper::new(),
                    cursor: ShipCursor::default(),
                    log: Vec::new(),
                };
                let (mut accepted, mut rejected) = (0, 0);
                for step in 0..200 {
                    match rng.index(10) {
                        // Publish frames, sometimes cut in two publishes
                        // with a poll able to land between the halves.
                        0..=2 => {
                            let bytes = random_frames(&mut rng);
                            let cut = rng.index(bytes.len() + 1);
                            let (head, tail) = bytes.split_at(cut);
                            shipper.publish(head);
                            oracle.shipper.publish(head);
                            if rng.bernoulli(0.5) {
                                assert_eq!(tailer.poll(), oracle.poll(), "seed {seed} step {step}");
                            }
                            shipper.publish(tail);
                            oracle.shipper.publish(tail);
                        }
                        // A checkpoint: the image restarts, whole or torn.
                        3 => {
                            let mut bytes = random_frames(&mut rng);
                            if rng.bernoulli(0.2) {
                                bytes.truncate(rng.index(bytes.len()));
                            }
                            shipper.restart_epoch(&bytes);
                            oracle.shipper.restart_epoch(&bytes);
                        }
                        4 => {
                            shipper.corrupt_next_fetch();
                            oracle.shipper.corrupt_next_fetch();
                        }
                        _ => {
                            let outcome = tailer.poll();
                            assert_eq!(outcome, oracle.poll(), "seed {seed} step {step}");
                            match outcome {
                                TailPoll::Advanced { .. } => accepted += 1,
                                TailPoll::Rejected => rejected += 1,
                                _ => {}
                            }
                        }
                    }
                    assert_eq!(tailer.log(), &oracle.log[..], "seed {seed} step {step}");
                    assert_eq!(tailer.cursor(), oracle.cursor, "seed {seed} step {step}");
                }
                assert!(
                    accepted > 0 && rejected > 0,
                    "seed {seed} exercised one rule only"
                );
            }
        }

        #[test]
        fn checkpoint_restarts_the_replica_log() {
            let (wal, shipper) = shipped_wal();
            let mut tailer = ReplicaTailer::new(shipper.clone());
            commit(&wal, 1, "a", 1);
            finalize(&wal, 1);
            tailer.catch_up();
            // The store the checkpoint snapshots: replay's fold of the log.
            wal.attach_store(Arc::new(croesus_wal::recover(&shipper.image()).store));
            wal.checkpoint().unwrap();
            commit(&wal, 2, "b", 2);
            assert!(matches!(
                tailer.poll(),
                TailPoll::Advanced {
                    restarted: true,
                    ..
                }
            ));
            tailer.catch_up();
            assert_eq!(tailer.log(), &shipper.image()[..]);
            let rec = tailer.recover();
            assert_eq!(rec.store.get(&"a".into()).as_deref(), Some(&Value::Int(1)));
            assert_eq!(rec.unfinalized, vec![TxnId(2)]);
        }
    }
}
