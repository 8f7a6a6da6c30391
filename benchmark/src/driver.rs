//! The benchmark's own frame loop over the system's public API.
//!
//! `Deployment::run` is one call with no timing point inside it, so it can
//! give throughput but not per-frame latency. This loop makes the same
//! calls in `run_multistage`'s order — edge detection, thresholding, initial
//! sections, cloud detection, final sections, settle — with a timestamp pair
//! per frame, and every trial checks its commits and corrections against
//! `Deployment::run` on the same configuration, so the copy cannot drift
//! from the real loop unnoticed. What it leaves out is the simulation's
//! book-keeping (link latencies, bandwidth meter, accuracy scoring), which
//! is not work the deployed system does.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use croesus_core::{
    evaluation_bank, CloudNode, CorrectionCounts, Deployment, EdgeNode, ThresholdPair,
    TransactionsBank, ValidationPolicy,
};
use croesus_detect::{Detection, ModelProfile, SimulatedModel};
use croesus_store::{KvStore, LockManager};
use croesus_txn::{ExecutorCore, WorkerPool};
use croesus_video::{Frame, LabelClass, Video};
use croesus_wal::{CoalesceStats, DurabilityMode, SyncCoalescer, Wal, WalStats};

use crate::spans::Tracer;

/// Span names, one per layer boundary the loop crosses.
pub const FRAME: &str = "frame";
pub const DETECT_EDGE: &str = "detect.edge";
pub const THRESHOLD: &str = "core.threshold";
pub const INITIAL_STAGE: &str = "core.edge.initial_stage";
pub const DETECT_CLOUD: &str = "detect.cloud";
pub const FINAL_STAGE: &str = "core.edge.final_stage";
pub const SETTLE: &str = "core.edge.settle";
/// The stage spans in loop order.
pub const STAGES: [&str; 6] = [
    DETECT_EDGE,
    THRESHOLD,
    INITIAL_STAGE,
    DETECT_CLOUD,
    FINAL_STAGE,
    SETTLE,
];

/// The edge fleet, the cloud node and the handles the benchmark reads its
/// counters from — built the way `Deployment::build_edges` builds them.
pub struct Rig {
    pub edges: Vec<EdgeNode>,
    pub wals: Vec<Arc<Wal>>,
    pub coalescer: Option<Arc<SyncCoalescer>>,
    pub bank: Arc<TransactionsBank>,
    durability: DurabilityMode,
    cloud: CloudNode,
    thresholds: ThresholdPair,
}

impl Rig {
    pub fn new(deployment: &Deployment) -> Rig {
        let cfg = deployment.config();
        let ValidationPolicy::Thresholds(thresholds) = cfg.validation else {
            panic!("benchmark workloads validate by thresholds");
        };
        assert_eq!(
            cfg.cloud_loss_rate, 0.0,
            "benchmark workloads lose no labels"
        );
        let bank = evaluation_bank();
        let protocol = deployment.protocol();
        let coalescer = deployment.durability().device_coalescer();
        let mut wals = Vec::new();
        let edges = (0..deployment.num_edges())
            .map(|i| {
                let model = SimulatedModel::new(ModelProfile::tiny_yolov3(), cfg.seed ^ 0xE)
                    .with_hardware_factor(cfg.setup.edge.hardware_factor());
                let mut core = ExecutorCore::new(
                    Arc::new(KvStore::new()),
                    Arc::new(LockManager::new(protocol.default_lock_policy())),
                );
                if let Some(wal) = deployment
                    .durability()
                    .open_edge_wal_with(i, coalescer.clone())
                    .expect("the scratch directory is writable")
                {
                    let wal = Arc::new(wal);
                    wals.push(Arc::clone(&wal));
                    core = core.with_wal(wal);
                }
                EdgeNode::with_protocol(
                    model,
                    Arc::clone(&bank),
                    cfg.overlap_threshold,
                    cfg.seed ^ ((i as u64) << 48),
                    protocol.build(core),
                )
                .with_worker_pool(WorkerPool::new(deployment.num_workers()))
            })
            .collect();
        Rig {
            edges,
            wals,
            coalescer,
            bank,
            durability: deployment.durability().clone(),
            cloud: CloudNode::new(cfg.cloud_model, cfg.seed ^ 0xC),
            thresholds,
        }
    }

    /// Edge `i`'s log file, when the deployment is durable.
    pub fn log_path(&self, i: usize) -> Option<PathBuf> {
        self.durability.edge_log_path(i)
    }

    /// What edge 0 makes of `frame`: whether it goes to the cloud, and the
    /// labels its thresholds let through (each triggers one transaction).
    pub fn edge_decision(&self, frame: &Frame, query: &LabelClass) -> (bool, Vec<Detection>) {
        let (detections, _) = self.edges[0].detect(frame);
        decide(&self.thresholds, &detections, query)
    }

    /// The cloud model's labels for `frame`.
    pub fn cloud_labels(&self, frame: &Frame) -> Vec<Detection> {
        self.cloud.process(frame).0
    }

    /// Clean shutdown, as `Deployment::run` ends: push every WAL's
    /// durability boundary over the group-commit tail.
    pub fn flush_wals(&self) {
        for wal in &self.wals {
            wal.flush().expect("WAL flush at shutdown failed");
        }
    }

    pub fn wal_stats(&self) -> WalStats {
        let mut total = WalStats::default();
        for wal in &self.wals {
            let s = wal.stats();
            total.records += s.records;
            total.commit_points += s.commit_points;
            total.syncs += s.syncs;
            total.checkpoints += s.checkpoints;
            total.bytes_appended += s.bytes_appended;
        }
        total
    }

    pub fn coalesce_stats(&self) -> CoalesceStats {
        self.coalescer
            .as_ref()
            .map(|c| c.stats())
            .unwrap_or_default()
    }
}

/// Frames of the seed's video that hold `txns` triggered transactions: the
/// shortest prefix on which the edge model, at the reference workload's
/// thresholds, lets that many labels through (each triggers one
/// transaction). Videos are prefix-stable — `generate(n, seed)` is the first
/// `n` frames of `generate(m, seed)` — so every workload and every trial of a
/// seed replays the same frames. A video too sparse to reach `txns` within
/// `txns / 3` frames is cut there.
pub fn stream_frames(seed: u64, txns: u64) -> u64 {
    let reference = &crate::workloads::WORKLOADS[0];
    let cap = (txns / 3).max(1);
    let deployment = reference
        .builder(cap, seed, std::path::Path::new(""))
        .build();
    let rig = Rig::new(&deployment);
    let video = crate::workloads::PRESET.generate(cap, seed);
    let query = video.query_class().clone();
    let mut triggered = 0;
    for frame in video.frames() {
        triggered += rig.edge_decision(frame, &query).1.len() as u64;
        if triggered >= txns {
            return frame.index + 1;
        }
    }
    cap
}

/// The edge-side decision for one frame: what the threshold pair lets
/// through and whether the frame goes to the cloud.
fn decide(
    thresholds: &ThresholdPair,
    detections: &[Detection],
    query: &LabelClass,
) -> (bool, Vec<Detection>) {
    let decision = thresholds.decide_frame(detections, query);
    (decision.send, decision.surviving())
}

/// What one pass of the loop observed.
#[derive(Clone, Debug, Default)]
pub struct DriveOutcome {
    /// Wall time of the whole loop plus the shutdown flush, seconds.
    pub wall_s: f64,
    /// Per frame: handed to the edge → `run_initial_stage` returned, µs.
    pub initial_response_us: Vec<f64>,
    /// Per frame: handed to the edge → final sections ran and `settle` returned, µs.
    pub final_commit_us: Vec<f64>,
    pub frames: u64,
    pub frames_validated: u64,
    pub transactions_committed: u64,
    pub corrections: CorrectionCounts,
    pub settled_entries: u64,
}

/// Replay `video` through `rig`, closed loop: the next frame is handed over
/// only when the previous one is settled.
pub fn drive<T: Tracer>(rig: &Rig, video: &Video, tracer: &mut T) -> DriveOutcome {
    let query = video.query_class().clone();
    let frames = video.frames();
    let mut out = DriveOutcome {
        initial_response_us: Vec::with_capacity(frames.len()),
        final_commit_us: Vec::with_capacity(frames.len()),
        ..DriveOutcome::default()
    };
    let started = Instant::now();
    for frame in frames {
        let index = frame.index;
        let edge = &rig.edges[(index as usize) % rig.edges.len()];
        tracer.enter(FRAME, index);
        let handed_in = Instant::now();

        tracer.enter(DETECT_EDGE, index);
        let (detections, _) = edge.detect(frame);
        tracer.exit();

        tracer.enter(THRESHOLD, index);
        let (send, surviving) = decide(&rig.thresholds, &detections, &query);
        tracer.exit();

        tracer.enter(INITIAL_STAGE, index);
        let initial = edge.run_initial_stage(index, &surviving);
        tracer.exit();
        out.initial_response_us
            .push(handed_in.elapsed().as_secs_f64() * 1e6);
        out.transactions_committed += initial.committed;

        // `run_multistage` computes the cloud labels for every frame (they
        // are its accuracy reference) and so does this loop.
        tracer.enter(DETECT_CLOUD, index);
        let cloud_labels = rig.cloud_labels(frame);
        tracer.exit();

        tracer.enter(FINAL_STAGE, index);
        let fin = if send {
            out.frames_validated += 1;
            edge.deliver_cloud_labels(index, &cloud_labels)
        } else {
            edge.finalize_local(index)
        };
        tracer.exit();
        let (correct, corrected, erroneous, missed) = fin.counts;
        out.corrections.correct += correct;
        out.corrections.corrected += corrected;
        out.corrections.erroneous += erroneous;
        out.corrections.missed += missed;

        tracer.enter(SETTLE, index);
        out.settled_entries += edge.settle() as u64;
        tracer.exit();
        out.final_commit_us
            .push(handed_in.elapsed().as_secs_f64() * 1e6);
        tracer.exit();
    }
    rig.flush_wals();
    out.wall_s = started.elapsed().as_secs_f64();
    out.frames = frames.len() as u64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::NoTrace;
    use crate::workloads::WORKLOADS;

    fn committed(frames: u64, seed: u64) -> u64 {
        WORKLOADS[0]
            .builder(frames, seed, std::path::Path::new(""))
            .build()
            .run()
            .transactions_committed
    }

    #[test]
    fn the_stream_is_the_shortest_prefix_holding_the_transactions() {
        for seed in [7, 42] {
            let frames = stream_frames(seed, 800);
            assert_eq!(frames, stream_frames(seed, 800), "same seed, same stream");
            assert!(committed(frames, seed) >= 800);
            assert!(committed(frames - 1, seed) < 800);
            assert!(stream_frames(seed, 1600) > frames);
        }
    }

    #[test]
    fn the_frame_loop_commits_what_deployment_run_commits() {
        let deployment = WORKLOADS[0]
            .builder(120, 42, std::path::Path::new(""))
            .build();
        let metrics = deployment.run();
        let video = deployment.config().preset.generate(120, 42);
        let out = drive(&Rig::new(&deployment), &video, &mut NoTrace);
        assert_eq!(out.transactions_committed, metrics.transactions_committed);
        assert_eq!(out.corrections, metrics.corrections);
        assert_eq!(out.initial_response_us.len(), 120);
        assert_eq!(out.final_commit_us.len(), 120);
    }
}
