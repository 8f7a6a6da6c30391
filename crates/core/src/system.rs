//! The `Croesus` system builder — the one entry point for every deployment.
//!
//! The paper evaluates one system under many configurations: the
//! multi-stage pipeline (Figure 1) under MS-IA or MS-SR, the edge-only and
//! cloud-only baselines of §5, one or many edge nodes, different videos,
//! validation policies and codecs. This module expresses all of them as a
//! [`CroesusBuilder`] producing a [`Deployment`] whose
//! [`run`](Deployment::run) yields the [`RunMetrics`] the figures are
//! built from. This module only configures; every mode runs the one frame
//! loop in [`crate::fleet`].
//!
//! The builder is the one configuration vocabulary: every option is one
//! of its setters, and [`CroesusConfig`] is only the plain data it
//! resolves, read back through [`Deployment::config`]. A configuration
//! shared across runs is a cloned builder:
//!
//! ```
//! use croesus_core::{Croesus, DeploymentMode, ProtocolKind};
//! use croesus_core::ThresholdPair;
//! use croesus_video::VideoPreset;
//!
//! let base = Croesus::builder()
//!     .preset(VideoPreset::StreetTraffic)
//!     .thresholds(ThresholdPair::new(0.4, 0.6))
//!     .protocol(ProtocolKind::MsIa)
//!     .frames(40);
//! let metrics = base.clone().build().run();
//! let edge = base.mode(DeploymentMode::EdgeOnly).build().run();
//! assert!(metrics.transactions_committed > 0);
//! assert_eq!(edge.bytes_sent, 0, "the edge baseline never calls the cloud");
//! ```
//!
//! Durability is a builder switch too:
//! [`durability`](CroesusBuilder::durability) gives every edge node its
//! own write-ahead log (`edge-<i>.wal` under the chosen directory), so a
//! crashed edge can rebuild its partition and retract-with-apologies the
//! transactions whose final sections died with it (see
//! `croesus_txn::recovery`). Off by default — a durability-off run is
//! byte-identical with the pre-WAL system.

use std::sync::Arc;

use croesus_detect::ModelKind;
use croesus_net::{PayloadCodec, Setup};
use croesus_obs::{EdgeObs, Obs};
use croesus_sim::FaultPlan;
use croesus_txn::ProtocolKind;
use croesus_video::VideoPreset;
use croesus_wal::{DurabilityMode, SyncCoalescer};

use crate::config::{CroesusConfig, ValidationPolicy};
use crate::metrics::RunMetrics;
use crate::threshold::ThresholdPair;

/// What the deployment runs: the multi-stage pipeline or one of the
/// state-of-the-art baselines of §5. Baselines are deployments too — they
/// share the edge node, the transactions bank and the protocol plumbing,
/// differing only in which frames travel where — so they run under any
/// protocol and any edge-fleet size, and accept a
/// [`codec`](CroesusBuilder::codec) for Figure 6(c)'s hybrid variants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeploymentMode {
    /// The Croesus pipeline of Figure 1: edge detection, thresholding,
    /// initial commit, cloud validation, final commit.
    MultiStage,
    /// The edge baseline: "a performance-centric video analytics
    /// application where a compact model (Tiny YOLOv3) is deployed on the
    /// edge machine for lower latency." Labels are whatever the edge model
    /// says above the conventional 0.5 confidence; transactions commit in
    /// one stage and nothing crosses the edge→cloud link.
    EdgeOnly,
    /// The cloud baseline: "an accuracy-centric video analytics
    /// application where a computationally expensive model (YOLOv3) is
    /// deployed on a resourceful cloud machine." Every frame crosses the
    /// edge→cloud link and waits for the big model; by the paper's
    /// ground-truth convention its accuracy is 1.0.
    CloudOnly,
}

/// Default edge-baseline confidence filter: detections below this are
/// dropped (the conventional 0.5 deployment threshold; Figure 3 shows the
/// (0.5, 0.5) Croesus pair matching this baseline's accuracy).
pub(crate) const EDGE_BASELINE_CONFIDENCE: f64 = 0.5;

/// The Croesus system. Start with [`Croesus::builder`].
pub struct Croesus;

impl Croesus {
    /// A builder with the paper's defaults: street-traffic video,
    /// `(0.4, 0.6)` thresholds, 300 frames, seed 42, MS-IA, one edge node
    /// with one (inline) worker, multi-stage mode, durability off.
    #[must_use]
    pub fn builder() -> CroesusBuilder {
        CroesusBuilder::default()
    }
}

/// Builder for a [`Deployment`].
#[derive(Clone, Debug)]
pub struct CroesusBuilder {
    config: CroesusConfig,
    protocol: ProtocolKind,
    mode: DeploymentMode,
    edges: usize,
    workers: usize,
    durability: DurabilityMode,
    faults: FaultPlan,
    failover: bool,
    heartbeat_timeout: u64,
    obs: Option<Arc<Obs>>,
}

impl Default for CroesusBuilder {
    /// The paper's defaults: YOLOv3-416 cloud model, regular edge in
    /// California / cloud in Virginia, raw payloads, 10% label overlap.
    fn default() -> Self {
        CroesusBuilder {
            config: CroesusConfig {
                preset: VideoPreset::StreetTraffic,
                num_frames: 300,
                seed: 42,
                cloud_model: ModelKind::YoloV3_416,
                setup: Setup::default_paper(),
                validation: ValidationPolicy::Thresholds(ThresholdPair::new(0.4, 0.6)),
                codec: PayloadCodec::raw(),
                overlap_threshold: 0.10,
                low_confidence_filter: 0.25,
                cloud_loss_rate: 0.0,
                cloud_timeout_ms: 3_000.0,
            },
            protocol: ProtocolKind::MsIa,
            mode: DeploymentMode::MultiStage,
            edges: 1,
            workers: 1,
            durability: DurabilityMode::Disabled,
            faults: FaultPlan::new(),
            failover: false,
            heartbeat_timeout: 3,
            obs: None,
        }
    }
}

impl CroesusBuilder {
    /// The video preset to process.
    #[must_use]
    pub fn preset(mut self, preset: VideoPreset) -> Self {
        self.config.preset = preset;
        self
    }

    /// Bandwidth thresholds `(θL, θU)` (§3.4); switches validation to
    /// [`ValidationPolicy::Thresholds`].
    #[must_use]
    pub fn thresholds(mut self, pair: ThresholdPair) -> Self {
        self.config.validation = ValidationPolicy::Thresholds(pair);
        self
    }

    /// The consistency protocol transactions run under.
    #[must_use]
    pub fn protocol(mut self, kind: ProtocolKind) -> Self {
        self.protocol = kind;
        self
    }

    /// Pipeline or baseline.
    #[must_use]
    pub fn mode(mut self, mode: DeploymentMode) -> Self {
        self.mode = mode;
        self
    }

    /// Number of edge nodes; frames are routed round-robin and each edge
    /// owns its partition of the data (§4.5). Panics if `n == 0`.
    #[must_use]
    pub fn edges(mut self, n: usize) -> Self {
        assert!(n >= 1, "a deployment needs at least one edge node");
        self.edges = n;
        self
    }

    /// Worker threads per edge node: each `Sequencer::waves` wave of
    /// initial sections executes across this many threads (§5.2.4 —
    /// "within a wave the runner may parallelize freely"). The default of
    /// 1 is the inline, thread-free path, byte-identical with the historic
    /// single-threaded pipeline (a standing contract, see ROADMAP.md);
    /// `workers(n)` keeps the same deterministic outcomes — txn ids are
    /// assigned in wave submission order and wait-die conflicts depend
    /// only on ids — while spreading wave execution over `n` threads.
    /// Panics if `n == 0`.
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        assert!(n >= 1, "a deployment needs at least one worker per edge");
        self.workers = n;
        self
    }

    /// Number of frames to generate. Panics if `n == 0` — a video needs at
    /// least one frame, and the scene generator would reject it mid-`run`.
    #[must_use]
    pub fn frames(mut self, n: u64) -> Self {
        assert!(n >= 1, "a deployment needs at least one frame of video");
        self.config.num_frames = n;
        self
    }

    /// Experiment seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// The cloud model.
    #[must_use]
    pub fn cloud_model(mut self, kind: ModelKind) -> Self {
        self.config.cloud_model = kind;
        self
    }

    /// Deployment setup (edge machine class and colocation).
    #[must_use]
    pub fn setup(mut self, setup: Setup) -> Self {
        self.config.setup = setup;
        self
    }

    /// Frame validation policy.
    #[must_use]
    pub fn validation(mut self, policy: ValidationPolicy) -> Self {
        self.config.validation = policy;
        self
    }

    /// Payload encoding for edge→cloud transfers.
    #[must_use]
    pub fn codec(mut self, codec: PayloadCodec) -> Self {
        self.config.codec = codec;
        self
    }

    /// Durability for the edge datastores: every edge logs its stages to
    /// its own write-ahead log (`edge-<i>.wal` under the mode's
    /// directory) through the shared `ExecutorCore` hook, whatever the
    /// protocol. Off by default. Each `run()` opens *fresh* logs — to
    /// recover a previous run's logs, replay them first with
    /// `croesus_txn::recovery::recover_edge_file`.
    #[must_use]
    pub fn durability(mut self, mode: DurabilityMode) -> Self {
        self.durability = mode;
        self
    }

    /// Attach an observability collector: every edge's executor, WAL and
    /// the fleet loop emit typed [`croesus_obs::Event`]s into the
    /// collector's per-edge streams, and its per-kind counters count them.
    /// Off by default — an unobserved run takes the exact same code paths
    /// with a single `Option`-is-`None` branch at each emission site, so
    /// the golden pins stay byte-identical.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use croesus_core::Croesus;
    ///
    /// let obs = croesus_obs::Obs::shared();
    /// Croesus::builder()
    ///     .frames(30)
    ///     .observe(Arc::clone(&obs))
    ///     .build()
    ///     .run();
    /// croesus_obs::check_obs(&obs).expect("the trace obeys the ordering contract");
    /// ```
    #[must_use]
    pub fn observe(mut self, obs: Arc<Obs>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Fault schedule for chaos runs ([`Deployment::run_fleet`]): scripted
    /// or seeded kill/stall/partition/resurrect events against individual
    /// edges. Empty by default (the fault-free control run).
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Enable edge→cloud failover: the cloud tails every edge's shipped
    /// WAL and takes over a dead edge's partition once the failure
    /// detector times it out. Requires durability — [`build`] rejects the
    /// combination with `durability(Disabled)`, because without a WAL
    /// there is nothing to ship and the replica would take over from
    /// nothing, silently dropping every committed write.
    ///
    /// [`build`]: CroesusBuilder::build
    #[must_use]
    pub fn failover(mut self, on: bool) -> Self {
        self.failover = on;
        self
    }

    /// Frames without a heartbeat before an edge is declared dead
    /// (failure detection is frame-synchronous). Panics on 0 — a zero
    /// timeout deposes every edge at the first missed beat, including
    /// ones that were merely scheduled after a busy frame.
    #[must_use]
    pub fn heartbeat_timeout(mut self, frames: u64) -> Self {
        assert!(
            frames >= 1,
            "the heartbeat timeout must be at least one frame"
        );
        self.heartbeat_timeout = frames;
        self
    }

    /// Build the deployment.
    #[must_use]
    pub fn build(self) -> Deployment {
        assert!(
            !self.failover || self.durability.is_enabled(),
            "failover requires durability: the cloud replica takes over from the \
             edge's shipped WAL, and durability(Disabled) ships nothing — enable a \
             durability mode or drop failover(true)"
        );
        Deployment {
            config: self.config,
            protocol: self.protocol,
            mode: self.mode,
            edges: self.edges,
            workers: self.workers,
            coalescer: self.durability.device_coalescer(),
            durability: self.durability,
            faults: self.faults,
            failover: self.failover,
            heartbeat_timeout: self.heartbeat_timeout,
            obs: self.obs,
        }
    }
}

/// A configured Croesus deployment, ready to run.
#[derive(Clone, Debug)]
pub struct Deployment {
    pub(crate) config: CroesusConfig,
    pub(crate) protocol: ProtocolKind,
    pub(crate) mode: DeploymentMode,
    pub(crate) edges: usize,
    pub(crate) workers: usize,
    pub(crate) durability: DurabilityMode,
    /// One sync window per deployment when the durability mode coalesces:
    /// every edge's flusher shares it (they share the log directory,
    /// hence a storage device).
    pub(crate) coalescer: Option<Arc<SyncCoalescer>>,
    pub(crate) faults: FaultPlan,
    pub(crate) failover: bool,
    pub(crate) heartbeat_timeout: u64,
    pub(crate) obs: Option<Arc<Obs>>,
}

impl Deployment {
    /// The run configuration.
    pub fn config(&self) -> &CroesusConfig {
        &self.config
    }

    /// The consistency protocol transactions run under.
    pub fn protocol(&self) -> ProtocolKind {
        self.protocol
    }

    /// Pipeline or baseline.
    pub fn mode(&self) -> DeploymentMode {
        self.mode
    }

    /// Number of edge nodes.
    pub fn num_edges(&self) -> usize {
        self.edges
    }

    /// Worker threads per edge node (1 = inline execution).
    pub fn num_workers(&self) -> usize {
        self.workers
    }

    /// The durability mode.
    pub fn durability(&self) -> &DurabilityMode {
        &self.durability
    }

    /// The emission handle for edge `i`: the collector's persistent
    /// per-edge stream when observing, the no-op handle otherwise.
    pub(crate) fn edge_obs(&self, i: usize) -> EdgeObs {
        self.obs
            .as_ref()
            .map_or_else(EdgeObs::disabled, |o| o.edge(i))
    }

    /// Run the deployment over its video; returns the metrics the paper's
    /// figures are built from. The shared frame loop with no failure model
    /// attached: no WAL shipping, no fault plan, no timeline.
    pub fn run(&self) -> RunMetrics {
        self.drive(false).0
    }
}

#[cfg(test)]
impl CroesusBuilder {
    /// Probability that a validated frame's cloud labels never arrive.
    #[must_use]
    pub(crate) fn cloud_loss(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "loss rate must be in [0,1]");
        self.config.cloud_loss_rate = rate;
        self
    }
}

/// Every enabled durability mode over `dir`: the deployment-level
/// durability tests (here and in `fleet.rs`) hold under each flush policy.
#[cfg(test)]
pub(crate) fn durable_modes(dir: &std::path::Path) -> [DurabilityMode; 3] {
    [
        DurabilityMode::GroupCommit {
            dir: dir.into(),
            group: 1,
        },
        DurabilityMode::group_commit(dir),
        DurabilityMode::pipelined(dir),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> CroesusBuilder {
        Croesus::builder().frames(60)
    }

    #[test]
    fn builder_defaults_match_paper() {
        let d = Croesus::builder().build();
        assert_eq!(d.protocol(), ProtocolKind::MsIa);
        assert_eq!(d.mode(), DeploymentMode::MultiStage);
        assert_eq!(d.num_edges(), 1);
        assert_eq!(d.num_workers(), 1, "inline unless asked otherwise");
        let c = d.config();
        assert_eq!(c.preset, VideoPreset::StreetTraffic);
        assert_eq!(c.num_frames, 300);
        assert_eq!(c.seed, 42);
        assert_eq!(c.cloud_model, ModelKind::YoloV3_416);
        assert_eq!(c.setup, Setup::default_paper());
        assert_eq!(
            c.validation,
            ValidationPolicy::Thresholds(ThresholdPair::new(0.4, 0.6))
        );
        assert_eq!(c.codec, PayloadCodec::raw());
        assert_eq!(c.overlap_threshold, 0.10);
        assert_eq!(c.low_confidence_filter, 0.25);
        assert_eq!(c.cloud_loss_rate, 0.0);
        assert_eq!(c.cloud_timeout_ms, 3_000.0);
    }

    #[test]
    fn builder_matches_legacy_pipeline_exactly() {
        // The durability-off contract: a single-edge MS-IA builder run is
        // byte-identical with the historical `run_croesus` pipeline. The
        // legacy shim is gone, so the pin is its captured output for this
        // exact configuration (any drift here is a behaviour change).
        let cfg = Croesus::builder()
            .thresholds(ThresholdPair::new(0.3, 0.7))
            .frames(60);
        let a = cfg.clone().build().run();
        assert_eq!(a.f_score, 0.922_779_922_779_922_8);
        assert_eq!(a.bytes_sent, 7_500_000);
        assert_eq!(a.transactions_committed, 284);
        assert_eq!(a.bandwidth_utilization, 0.833_333_333_333_333_4);
        assert_eq!(a.label, "croesus v2 (0.3,0.7)");
        // Explicitly disabled durability is the very same code path.
        let b = cfg.durability(DurabilityMode::Disabled).build().run();
        assert_eq!(a.f_score, b.f_score);
        assert_eq!(a.bytes_sent, b.bytes_sent);
        assert_eq!(a.transactions_committed, b.transactions_committed);
        assert_eq!(a.label, b.label);
    }

    /// The wave-parallel runtime contract: `workers(n)` preserves every
    /// pipeline metric — the deterministic wave execution (pre-assigned
    /// txn ids, submission-order results, id-only wait-die) makes the
    /// worker count an implementation detail of wall-clock speed, never
    /// of outcomes. `workers(1)` is the inline path, so its half of this
    /// test is the golden byte-identity pin restated.
    #[test]
    fn worker_count_does_not_perturb_the_pipeline() {
        let cfg = Croesus::builder()
            .thresholds(ThresholdPair::new(0.3, 0.7))
            .frames(60);
        for kind in ProtocolKind::ALL {
            let one = cfg.clone().protocol(kind).workers(1).build().run();
            let four = cfg.clone().protocol(kind).workers(4).build().run();
            assert_eq!(one.f_score, four.f_score, "{kind}");
            assert_eq!(one.bytes_sent, four.bytes_sent, "{kind}");
            assert_eq!(
                one.transactions_committed, four.transactions_committed,
                "{kind}"
            );
            assert_eq!(one.corrections, four.corrections, "{kind}");
            assert_eq!(
                one.bandwidth_utilization, four.bandwidth_utilization,
                "{kind}"
            );
        }
        // And workers(1) against the golden pins directly (MS-IA default).
        let pinned = cfg.workers(1).build().run();
        assert_eq!(pinned.f_score, 0.922_779_922_779_922_8);
        assert_eq!(pinned.bytes_sent, 7_500_000);
        assert_eq!(pinned.transactions_committed, 284);
    }

    /// A wave-parallel observed run still satisfies the obs ordering
    /// contract: per-worker emission shares the per-edge ring whose seq is
    /// allocated under the ring lock, so ring order == seq order from any
    /// thread.
    #[test]
    fn pooled_run_passes_the_ordering_contract() {
        let obs = croesus_obs::Obs::shared();
        let m = quick().workers(4).observe(Arc::clone(&obs)).build().run();
        assert!(m.transactions_committed > 0);
        croesus_obs::check_obs(&obs).expect("workers(4) trace obeys the contract");
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = Croesus::builder().workers(0);
    }

    #[test]
    fn durability_does_not_perturb_the_pipeline() {
        let dir = croesus_wal::scratch_dir("system-durability");
        let off = quick().build().run();
        for mode in durable_modes(&dir) {
            let on = quick().durability(mode.clone()).build().run();
            assert_eq!(off.f_score, on.f_score, "{mode:?}");
            assert_eq!(off.bytes_sent, on.bytes_sent, "{mode:?}");
            assert_eq!(off.transactions_committed, on.transactions_committed);
            assert_eq!(off.corrections, on.corrections, "{mode:?}");
            // The log replays to a fully-finalized edge: every initially
            // committed transaction finally committed, so recovery owes no
            // apologies after a clean run.
            let rec = croesus_txn::recovery::recover_edge_file(dir.join("edge-0.wal")).unwrap();
            assert!(rec.frames > 0, "{mode:?}: the WAL saw the run");
            assert!(rec.unfinalized.is_empty(), "{mode:?}");
            assert!(rec.apologies_owed().is_empty(), "{mode:?}");
            assert!(!rec.torn_tail, "{mode:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_protocol_logs_through_the_same_hook() {
        let dir = croesus_wal::scratch_dir("system-durability-proto");
        for kind in ProtocolKind::ALL {
            for mode in durable_modes(&dir) {
                let m = quick()
                    .protocol(kind)
                    .durability(mode.clone())
                    .build()
                    .run();
                assert!(m.transactions_committed > 0, "{kind} {mode:?}");
                let rec = croesus_txn::recovery::recover_edge_file(dir.join("edge-0.wal")).unwrap();
                assert!(rec.frames > 0, "{kind} {mode:?}: stages were logged");
                assert!(rec.unfinalized.is_empty(), "{kind} {mode:?}: clean run");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn multi_edge_deployment_logs_one_wal_per_edge() {
        let dir = croesus_wal::scratch_dir("system-durability-edges");
        for mode in durable_modes(&dir) {
            let m = quick().edges(3).durability(mode.clone()).build().run();
            assert!(m.transactions_committed > 0);
            let mut edges_with_frames = 0;
            for i in 0..3 {
                let path = mode.edge_log_path(i).unwrap();
                assert!(path.exists(), "{mode:?}: edge {i} has its own log");
                let rec = croesus_txn::recovery::recover_edge_file(&path).unwrap();
                assert!(rec.unfinalized.is_empty(), "{mode:?}: edge {i}");
                if rec.frames > 0 {
                    edges_with_frames += 1;
                }
            }
            assert!(
                edges_with_frames >= 2,
                "{mode:?}: round-robin routing reaches multiple edges"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `workers(1)` is the thread-free path, and the inline durability
    /// modes keep it so: the commit point that fills a group lands it on
    /// its own thread. Only `Pipelined` owns a flusher.
    #[test]
    fn inline_durability_modes_spawn_no_thread() {
        let dir = croesus_wal::scratch_dir("system-thread-free");
        for mode in durable_modes(&dir) {
            let d = quick().workers(1).durability(mode.clone()).build();
            let bank = crate::bank::evaluation_bank();
            for i in 0..d.num_edges() {
                let edge = d
                    .build_slot(&bank, i, false)
                    .node
                    .expect("a fresh seat is alive");
                let wal = edge.protocol().core().wal().expect("durability is on");
                let pipelined = matches!(mode, DurabilityMode::Pipelined { .. });
                assert_eq!(wal.owns_flusher_thread(), pipelined, "{mode:?}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn any_protocol_runs_the_pipeline() {
        let mut scores = Vec::new();
        for kind in ProtocolKind::ALL {
            let m = quick().protocol(kind).build().run();
            assert!(m.transactions_committed > 0, "{kind}");
            assert!(m.f_score > 0.0, "{kind}");
            scores.push(m.f_score);
        }
        // Accuracy is a property of the models and thresholds, not the
        // consistency protocol: all three agree.
        assert!(scores.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-9));
    }

    #[test]
    fn protocol_shows_up_in_the_label() {
        let m = quick().protocol(ProtocolKind::MsSr).build().run();
        assert!(m.label.contains("MS-SR"), "{}", m.label);
        let m = quick().build().run();
        assert!(!m.label.contains("MS-IA"), "default stays clean");
    }

    #[test]
    fn baselines_run_under_any_protocol() {
        for mode in [DeploymentMode::EdgeOnly, DeploymentMode::CloudOnly] {
            for kind in [ProtocolKind::MsIa, ProtocolKind::MsSr] {
                let m = quick().mode(mode).protocol(kind).build().run();
                assert!(m.transactions_committed > 0, "{mode:?}/{kind}");
            }
        }
    }

    #[test]
    fn multi_edge_deployment_partitions_the_work() {
        let one = quick().build().run();
        let four = quick().edges(4).build().run();
        // Same video, same thresholds: accuracy and bandwidth agree; the
        // transactions are simply spread over four stores.
        assert!((one.bandwidth_utilization - four.bandwidth_utilization).abs() < 1e-9);
        assert_eq!(one.transactions_committed, four.transactions_committed);
        assert!(four.label.contains("4 edges"), "{}", four.label);
    }

    /// Every deterministic (simulated-clock) field of [`RunMetrics`], pinned
    /// per mode and validation policy: the values were captured at the
    /// commit *before* the four frame loops became one, so any drift here
    /// is a behaviour change of the shared driver. `breakdown.edge_link_ms`
    /// and `cloud_link_ms` pin the `"links"` RNG draw order. The wall-clock
    /// fields (`*_txn_ms` and the commit means) are not pinned.
    #[test]
    fn pins_every_simulated_run_metric_per_mode() {
        // (f_score, precision, recall, bandwidth_utilization,
        //  transfer_dollars, edge_link_ms, edge_detect_ms, cloud_link_ms,
        //  cloud_detect_ms) and (bytes_sent, transactions_committed,
        //  cloud_timeouts, correct, corrected, erroneous, missed).
        type Pin = (&'static str, Deployment, &'static str, [f64; 9], [u64; 7]);
        let cfg = Croesus::builder()
            .thresholds(ThresholdPair::new(0.3, 0.7))
            .frames(60);
        let forced = cfg.clone().validation(ValidationPolicy::ForcedBu(0.5));
        let pins: [Pin; 6] = [
            (
                "multistage",
                cfg.clone().build(),
                "croesus v2 (0.3,0.7)",
                [
                    0.922_779_922_779_922_8,
                    1.0,
                    0.856_630_824_372_759_8,
                    0.833_333_333_333_333_4,
                    0.000_674_999_999_999_999_4,
                    10.982_683_333_333_33,
                    186.471_65,
                    148.819_78,
                    1_113.790_46,
                ],
                [7_500_000, 284, 0, 212, 56, 16, 195],
            ),
            (
                "edge-only",
                cfg.clone().mode(DeploymentMode::EdgeOnly).build(),
                "edge-only v2",
                [
                    0.464_379_947_229_551_45,
                    0.88,
                    0.315_412_186_379_928_3,
                    0.0,
                    0.0,
                    10.980_950_000_000_004,
                    186.471_65,
                    0.0,
                    0.0,
                ],
                [0, 212, 0, 0, 0, 0, 0],
            ),
            (
                "cloud-only",
                cfg.clone().mode(DeploymentMode::CloudOnly).build(),
                "cloud-only v2",
                [
                    1.0,
                    1.0,
                    1.0,
                    1.0,
                    0.000_809_999_999_999_998_9,
                    11.070_600_000_000_002,
                    0.0,
                    148.316_566_666_666_7,
                    1_120.555_833_333_333_6,
                ],
                [9_000_000, 506, 0, 0, 0, 0, 0],
            ),
            (
                "forced bu=0.5",
                forced.build(),
                "croesus v2 bu=50%",
                [
                    0.787_368_421_052_631_6,
                    0.954_081_632_653_061_2,
                    0.670_250_896_057_347_7,
                    0.5,
                    0.000_405_000_000_000_000_03,
                    11.029_616_666_666_664,
                    186.471_65,
                    148.058,
                    1_117.797_433_333_333_4,
                ],
                [4_500_000, 299, 0, 244, 43, 12, 106],
            ),
            (
                "cloud loss 0.5",
                cfg.clone().cloud_loss(0.5).build(),
                "croesus v2 (0.3,0.7)",
                [
                    0.712_694_877_505_567_9,
                    0.941_176_470_588_235_3,
                    0.573_476_702_508_960_5,
                    0.833_333_333_333_333_4,
                    0.000_674_999_999_999_999_4,
                    10.835_766_666_666_67,
                    186.471_65,
                    1_688.409_919_999_999_8,
                    509.548_839_999_999_87,
                ],
                [7_500_000, 284, 27, 252, 24, 8, 87],
            ),
            (
                "3 edges, MS-SR",
                cfg.edges(3).protocol(ProtocolKind::MsSr).build(),
                "croesus v2 (0.3,0.7) [MS-SR] [3 edges]",
                [
                    0.922_779_922_779_922_8,
                    1.0,
                    0.856_630_824_372_759_8,
                    0.833_333_333_333_333_4,
                    0.000_674_999_999_999_999_4,
                    10.982_683_333_333_33,
                    186.471_65,
                    148.819_78,
                    1_113.790_46,
                ],
                [7_500_000, 271, 0, 202, 53, 16, 205],
            ),
        ];
        for (name, deployment, label, floats, counts) in pins {
            let m = deployment.run();
            let (b, c) = (m.breakdown, m.corrections);
            assert_eq!(m.label, label, "{name}");
            assert_eq!(
                [
                    m.f_score,
                    m.precision,
                    m.recall,
                    m.bandwidth_utilization,
                    m.transfer_dollars,
                    b.edge_link_ms,
                    b.edge_detect_ms,
                    b.cloud_link_ms,
                    b.cloud_detect_ms,
                ],
                floats,
                "{name}"
            );
            assert_eq!(
                [
                    m.bytes_sent,
                    m.transactions_committed,
                    m.cloud_timeouts,
                    c.correct,
                    c.corrected,
                    c.erroneous,
                    c.missed,
                ],
                counts,
                "{name}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one edge")]
    fn zero_edges_panics() {
        let _ = Croesus::builder().edges(0);
    }

    /// Rejected at the setter, in every mode, instead of inside `run()`'s
    /// scene generator.
    #[test]
    #[should_panic(expected = "at least one frame of video")]
    fn zero_frames_panics() {
        let _ = Croesus::builder().frames(0);
    }

    #[test]
    #[should_panic(expected = "failover requires durability")]
    fn failover_without_durability_is_rejected() {
        let _ = Croesus::builder().failover(true).build();
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_heartbeat_timeout_panics() {
        let _ = Croesus::builder().heartbeat_timeout(0);
    }

    #[test]
    fn per_frame_settling_keeps_apology_state_bounded() {
        // The leak regression: without settling, every finalized txn with
        // live retractable entries stayed registered forever (manager and
        // WAL replay state both). With per-frame settling, a clean run ends
        // with zero tracked entries — the log replays to an empty registry.
        let dir = croesus_wal::scratch_dir("system-settle");
        for mode in durable_modes(&dir) {
            quick().durability(mode.clone()).build().run();
            let rec = croesus_txn::recovery::recover_edge_file(dir.join("edge-0.wal")).unwrap();
            assert_eq!(
                rec.apologies.tracked_count(),
                0,
                "{mode:?}: the final settle dropped every retractable entry"
            );
            assert!(rec.unfinalized.is_empty(), "{mode:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // The §5 baselines: fast-but-inaccurate edge, slow-but-perfect cloud.

    fn baseline(mode: DeploymentMode, preset: VideoPreset) -> RunMetrics {
        quick().preset(preset).mode(mode).build().run()
    }

    #[test]
    fn edge_baseline_is_fast_but_inaccurate() {
        let m = baseline(DeploymentMode::EdgeOnly, VideoPreset::MallSurveillance);
        assert!(
            m.final_commit_ms < 300.0,
            "edge path only: {}",
            m.final_commit_ms
        );
        assert!(m.f_score < 0.8, "tiny model on a hard video: {}", m.f_score);
        assert_eq!(m.bandwidth_utilization, 0.0);
        assert_eq!(m.bytes_sent, 0);
    }

    #[test]
    fn cloud_baseline_is_slow_but_perfect() {
        let m = baseline(DeploymentMode::CloudOnly, VideoPreset::MallSurveillance);
        assert!(
            m.final_commit_ms > 1000.0,
            "cloud path: {}",
            m.final_commit_ms
        );
        assert!((m.f_score - 1.0).abs() < 1e-9);
        assert!((m.bandwidth_utilization - 1.0).abs() < 1e-9);
        assert!(m.bytes_sent > 0);
        assert!(m.transfer_dollars > 0.0);
    }

    #[test]
    fn edge_baseline_on_easy_video_is_decent() {
        let easy = baseline(DeploymentMode::EdgeOnly, VideoPreset::AirportRunway);
        let hard = baseline(DeploymentMode::EdgeOnly, VideoPreset::MallSurveillance);
        assert!(
            easy.f_score > hard.f_score + 0.2,
            "airport {} vs mall {}",
            easy.f_score,
            hard.f_score
        );
    }

    #[test]
    fn compression_reduces_cloud_baseline_latency_slightly() {
        let raw = baseline(DeploymentMode::CloudOnly, VideoPreset::ParkDog);
        let compressed = quick()
            .preset(VideoPreset::ParkDog)
            .mode(DeploymentMode::CloudOnly)
            .codec(PayloadCodec::compressed())
            .build()
            .run();
        assert!(compressed.bytes_sent < raw.bytes_sent);
        // Detection dominates, so the improvement is small (§5.2.5).
        assert!(compressed.final_commit_ms < raw.final_commit_ms);
        let gain = raw.final_commit_ms - compressed.final_commit_ms;
        assert!(gain < 100.0, "small improvement expected, got {gain}");
    }

    #[test]
    fn baselines_are_reproducible() {
        let a = baseline(DeploymentMode::EdgeOnly, VideoPreset::StreetTraffic);
        let b = baseline(DeploymentMode::EdgeOnly, VideoPreset::StreetTraffic);
        assert_eq!(a.f_score, b.f_score);
    }
}
