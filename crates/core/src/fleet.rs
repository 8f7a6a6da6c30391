//! The edge fleet: the one frame loop every deployment runs, and the
//! failure model that attaches to it.
//!
//! `Deployment::drive` is the single per-frame driver: the execution
//! pattern of Figure 1 over one seat (`EdgeSlot`) per edge, with the
//! deployment mode read in one place (the frame policy).
//! [`Deployment::run`] and [`Deployment::run_fleet`] are thin wrappers over
//! it. Only `run_fleet` attaches the failure model — detection, WAL-shipping
//! failover and degradation, while a [`FaultPlan`](croesus_sim::FaultPlan)
//! kills, stalls, partitions and resurrects individual edges. Per frame:
//! clock → detect → faults → beats → route → frame → settle → tail. The
//! pieces:
//!
//! * **Heartbeats** — every serving edge beats once per frame (failure
//!   detection is frame-synchronous, like everything else in the
//!   simulation). An edge silent for more than
//!   [`heartbeat_timeout`](crate::CroesusBuilder::heartbeat_timeout)
//!   frames is declared dead.
//! * **Shipping** — each edge's WAL publishes its durable bytes to a
//!   [`LogShipper`]; a cloud-side [`ReplicaTailer`] per edge tails and
//!   validates them, holding a valid prefix of the durable log at all
//!   times.
//! * **Takeover** — when the detector times an edge out (and failover is
//!   on), the cloud recovers the replica apology-aware
//!   ([`ReplicaTailer::recover`]) and stands up a replacement node over
//!   the recovered state: same model, same workload stream, transaction
//!   ids continuing from the log's high-water mark. Clients see
//!   retractions-with-apologies for the in-flight guesses, never lost
//!   finalized state. The dead edge is *fenced*: if it ever wakes (a
//!   stall that outlived the timeout, a resurrect after takeover), it
//!   must not rejoin.
//! * **Degradation** — a partition cuts only the edge→cloud data plane.
//!   The edge is still alive and authoritative, so this is explicitly
//!   *not* a failover trigger: validated frames finalize locally
//!   (degraded accuracy, full availability) until the uplink heals.

use std::sync::Arc;

use croesus_detect::{score_against, Detection, ModelProfile, SimulatedModel};
use croesus_net::BandwidthMeter;
use croesus_obs::{EdgeObs, Event, EventKind};
use croesus_sim::{DetRng, FaultEvent, FaultInjector, FaultKind, SimDuration};
use croesus_store::{KvStore, LockManager};
use croesus_txn::recovery::{recover_edge_file, RecoveredEdge};
use croesus_txn::{ExecutorCore, ProtocolKind};
use croesus_video::{Frame, LabelClass};
use croesus_wal::{FileStorage, LogShipper, MemStorage, Storage, Wal};

use crate::bank::{evaluation_bank, TransactionsBank};
use crate::cloud::{CloudNode, ReplicaTailer, TailPoll};
use crate::config::ValidationPolicy;
use crate::edge::EdgeNode;
use crate::metrics::{MetricsCollector, RunMetrics};
use crate::optimizer::ThresholdEvaluator;
use crate::system::{Deployment, DeploymentMode, EDGE_BASELINE_CONFIDENCE};

/// One completed failover.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Takeover {
    /// The edge whose partition the cloud took over.
    pub edge: usize,
    /// Frame at which the failure detector declared it dead.
    pub detected_at: u64,
    /// Transactions recovery had to retract (apologies issued), cascades
    /// counted once per root.
    pub retractions: usize,
}

/// What a chaos run observed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FleetReport {
    /// Frames that reached a serving edge.
    pub frames_processed: u64,
    /// Frames routed to a dead or stalled edge before takeover (the
    /// availability gap the heartbeat timeout buys).
    pub frames_dropped: u64,
    /// Validated-band frames finalized locally because the uplink was
    /// partitioned (graceful degradation, not failover).
    pub degraded_frames: u64,
    /// Transactions whose initial sections the edges' initial stages
    /// committed, across the fleet. The fresh transactions run at the final
    /// stage for labels only the cloud saw are not counted.
    pub transactions_committed: u64,
    /// Completed failovers, in detection order.
    pub takeovers: Vec<Takeover>,
    /// Killed edges restarted in place from their own durable log
    /// (resurrect before the detector fired).
    pub in_place_restarts: u64,
    /// Deposed nodes that woke (or resurrected) after a takeover and were
    /// refused re-entry.
    pub fenced_wakeups: u64,
    /// Shipped batches the replica rejected as damaged (each was refetched
    /// intact afterwards).
    pub rejected_batches: u64,
    /// Apology entries dropped by per-frame settling.
    pub settled_entries: u64,
    /// Apologies owed across the surviving fleet at shutdown (crash
    /// retractions included).
    pub apologies_owed: u64,
    /// The structured event timeline, grouped by edge in per-edge
    /// emission order — exactly what the ordering checker consumes. Empty
    /// unless the deployment was built with
    /// [`observe`](crate::CroesusBuilder::observe); fully deterministic
    /// (events carry the sim frame clock, never wall time), so it
    /// participates in the report's equality.
    pub timeline: Vec<Event>,
}

impl FleetReport {
    /// A "flight recorder" dump: the last `per_edge` events of every
    /// edge stream, formatted for a failing chaos assertion. Explains
    /// *which* heartbeat, takeover, sync or retraction happened in what
    /// order — instead of bare counters.
    #[must_use]
    pub fn flight_recorder(&self, per_edge: usize) -> String {
        if self.timeline.is_empty() {
            return "(no timeline: the run was not built with .observe(..))".to_string();
        }
        let mut by_edge: std::collections::BTreeMap<u32, Vec<&Event>> =
            std::collections::BTreeMap::new();
        for e in &self.timeline {
            by_edge.entry(e.edge).or_default().push(e);
        }
        let mut out = String::new();
        for (edge, events) in by_edge {
            let skip = events.len().saturating_sub(per_edge);
            out.push_str(&format!(
                "edge {edge} — last {} of {} events:\n",
                events.len() - skip,
                events.len()
            ));
            for e in &events[skip..] {
                let txn = e.txn.map_or_else(|| "-".to_string(), |t| t.to_string());
                out.push_str(&format!(
                    "  seq {:>5}  frame {:>4}  txn {:>4}  {:?}\n",
                    e.seq, e.frame, txn, e.kind
                ));
            }
        }
        out
    }
}

/// One edge's seat in the fleet: the node (if alive), its shipping
/// endpoint, the cloud's replica tail, and its fault clocks.
pub(crate) struct EdgeSlot {
    /// The serving node: the original edge, its in-place resurrection, or
    /// (after takeover) the cloud-side replacement. `None` while killed.
    pub(crate) node: Option<EdgeNode>,
    /// The fleet-wide transactions bank every node in this seat runs.
    bank: Arc<TransactionsBank>,
    /// Where the edge's WAL publishes its durable bytes — attached to the
    /// WAL (and tailed) on the [`run_fleet`](Deployment::run_fleet) path
    /// only; `run()` ships nothing.
    shipper: Arc<LogShipper>,
    tailer: ReplicaTailer,
    /// Last frame the seat's node beat in.
    last_seen: u64,
    /// Frame until which the node is frozen (misses heartbeats, serves
    /// nothing, loses nothing).
    stalled_until: u64,
    /// Frame until which the edge→cloud uplink is cut.
    partition_until: u64,
    /// The cloud replacement owns this partition; the original edge is
    /// fenced forever.
    failed_over: bool,
    /// The edge's observability stream — persistent across takeover, so
    /// the replacement node continues the dead node's sequence numbers.
    obs: EdgeObs,
}

impl EdgeSlot {
    /// The node serving frames (and beating) at `now`, if any. A
    /// failed-over slot's replacement ignores the original's stall clock.
    fn serving(&self, now: u64) -> Option<&EdgeNode> {
        let awake = self.failed_over || now >= self.stalled_until;
        self.node.as_ref().filter(|_| awake)
    }

    /// Tail the shipped log until it is up to date, the link is down, or
    /// more than `reject_budget` batches were rejected as damaged (a
    /// rejected batch does not move the cursor: the next poll refetches).
    fn tail(&mut self, reject_budget: u32, report: &mut FleetReport) {
        let mut rejects = 0;
        loop {
            match self.tailer.poll() {
                TailPoll::Advanced { bytes, .. } => {
                    self.obs.emit(EventKind::ShipAccept {
                        bytes: bytes as u64,
                    });
                }
                TailPoll::Rejected => {
                    self.obs.emit(EventKind::ShipReject);
                    report.rejected_batches += 1;
                    rejects += 1;
                    if rejects > reject_budget {
                        break;
                    }
                }
                TailPoll::UpToDate | TailPoll::Offline => break,
            }
        }
    }
}

/// What a frame's policy decides, given the serving edge, the frame and
/// the cloud's labels for it: the labels that trigger transactions, the
/// inference latency the initial commit waited for, and whether the frame
/// goes up to the cloud.
type FramePolicy<'a> =
    Box<dyn Fn(&EdgeNode, &Frame, &[Detection]) -> (Vec<Detection>, SimDuration, bool) + 'a>;

/// The edge model's detections at or above a confidence floor, and the
/// inference latency.
fn confident(edge: &EdgeNode, frame: &Frame, floor: f64) -> (Vec<Detection>, SimDuration) {
    let (detections, latency) = edge.detect(frame);
    let labels = detections.into_iter().filter(|d| d.confidence >= floor);
    (labels.collect(), latency)
}

impl Deployment {
    /// The executor core of edge `i` over `store`: the protocol's lock
    /// policy, the edge's observability stream and (with durability on)
    /// its write-ahead log.
    fn core(&self, i: usize, store: Arc<KvStore>, wal: Option<Wal>) -> ExecutorCore {
        let eobs = self.edge_obs(i);
        let locks = Arc::new(LockManager::new(self.protocol.default_lock_policy()));
        let mut core = ExecutorCore::new(store, locks).with_obs(eobs.clone());
        if let Some(wal) = wal {
            wal.set_obs(eobs);
            core = core.with_wal(Arc::new(wal));
        }
        core
    }

    /// The deployed edge model. Every edge runs it (same seed → identical
    /// detections however frames are routed). The setup's edge machine
    /// class applies to inference latency — except in the cloud baseline,
    /// where detection happens at the cloud and the edge model is only a
    /// datastore placeholder.
    fn edge_model(&self) -> SimulatedModel {
        let model = SimulatedModel::new(ModelProfile::tiny_yolov3(), self.config.seed ^ 0xE);
        if self.mode == DeploymentMode::CloudOnly {
            model
        } else {
            model.with_hardware_factor(self.config.setup.edge.hardware_factor())
        }
    }

    /// The cloud node, running the configured cloud model.
    fn cloud(&self) -> CloudNode {
        CloudNode::new(self.config.cloud_model, self.config.seed ^ 0xC)
    }

    /// The bandwidth optimizer of §3.4 for this deployment: both of its
    /// models over its own frames, scored with its label overlap. What
    /// [`ThresholdEvaluator::evaluate`] predicts for a pair is what
    /// [`run`](Deployment::run) measures with that pair's thresholds.
    ///
    /// ```
    /// use croesus_core::Croesus;
    ///
    /// let base = Croesus::builder().frames(60);
    /// let optimal = base.clone().build().threshold_evaluator().brute_force(0.8, 0.1);
    /// let metrics = base.thresholds(optimal.pair).build().run();
    /// assert!((metrics.bandwidth_utilization - optimal.outcome.bu).abs() < 1e-9);
    /// ```
    pub fn threshold_evaluator(&self) -> ThresholdEvaluator {
        let cfg = &self.config;
        // `generate` yields exactly the frames `drive` streams.
        let video = cfg.preset.generate(cfg.num_frames, cfg.seed);
        let (edge, cloud) = (self.edge_model(), self.cloud());
        ThresholdEvaluator::build(&video, &edge, &cloud.model, cfg.overlap_threshold)
    }

    /// Edge node `i` over `core` — the one place an [`EdgeNode`] is built,
    /// whether fresh, restarted in place or standing in at the cloud.
    fn node(&self, i: usize, bank: &Arc<TransactionsBank>, core: ExecutorCore) -> EdgeNode {
        let cfg = &self.config;
        // Only the workload RNG is salted per edge. Edge 0 keeps the
        // historical seeds so single-edge runs are byte-identical with the
        // pre-builder pipeline.
        let salt = (i as u64) << 48;
        let protocol = self.protocol.build(core);
        EdgeNode::with_protocol(
            self.edge_model(),
            Arc::clone(bank),
            cfg.overlap_threshold,
            cfg.seed ^ salt,
            protocol,
        )
        .with_worker_pool(croesus_txn::WorkerPool::new(self.workers))
    }

    /// A fresh seat: the edge owns its own store, lock manager and protocol
    /// executor (its partition of the data, §4.5). `ship` attaches the
    /// seat's shipper to the WAL — it must happen before the first append.
    pub(crate) fn build_slot(
        &self,
        bank: &Arc<TransactionsBank>,
        i: usize,
        ship: bool,
    ) -> EdgeSlot {
        let wal = self
            .durability
            .open_edge_wal_with(i, self.coalescer.clone())
            .expect("durability directory must be creatable and writable");
        let shipper = Arc::new(LogShipper::new());
        if let (Some(wal), true) = (&wal, ship) {
            wal.attach_shipper(Arc::clone(&shipper));
        }
        let core = self.core(i, Arc::new(KvStore::new()), wal);
        EdgeSlot {
            node: Some(self.node(i, bank, core)),
            bank: Arc::clone(bank),
            tailer: ReplicaTailer::new(Arc::clone(&shipper)),
            shipper,
            last_seen: 0,
            stalled_until: 0,
            partition_until: 0,
            failed_over: false,
            obs: self.edge_obs(i),
        }
    }

    /// Stand the seat's node back up over recovered state: the WAL
    /// restarts as a checkpoint of the recovered world (publishing to the
    /// seat's shipper again when `ship`), the apology manager carries the
    /// crash retractions, and transaction ids continue from the log's
    /// high-water mark. Returns how many transactions the recovery
    /// retracted.
    fn revive(
        &self,
        i: usize,
        slot: &mut EdgeSlot,
        rec: RecoveredEdge,
        storage: Box<dyn Storage>,
        ship: bool,
    ) -> usize {
        let wal = Wal::resume(
            storage,
            self.durability.wal_config(),
            self.durability.flush_driver(self.coalescer.clone()),
            rec.state,
            &rec.store,
            ship.then(|| Arc::clone(&slot.shipper)),
        )
        .expect("resuming the write-ahead log must succeed");
        let core = self
            .core(i, rec.store, Some(wal))
            .with_apologies(rec.apologies);
        let node = self.node(i, &slot.bank, core);
        node.set_txn_start(rec.next_txn);
        slot.node = Some(node);
        rec.retractions.len()
    }

    /// The cloud takes over a dead edge's partition from its replica.
    fn take_over(&self, i: usize, now: u64, slot: &mut EdgeSlot, report: &mut FleetReport) {
        slot.obs.emit(EventKind::TakeoverStart);
        if slot.node.take().is_some() {
            // The node was stalled, not dead: it gets deposed now and
            // fenced when it wakes. Deposed before the tail, so a pipelined
            // flusher has landed every sealed buffer, as it would have in
            // the frames the detector waited, instead of racing the tail.
            report.fenced_wakeups += 1;
            slot.obs.emit(EventKind::Fence);
        }
        // Pull whatever the link still carries; if it is down, the replica
        // serves from what already shipped — a stale-but-valid durable
        // prefix is exactly what a crash would have preserved anyway.
        slot.tail(3, report);
        let rec = slot.tailer.recover();
        // Recovery's crash retractions, apology-paired in the trace: the
        // in-flight guesses the takeover rolls back.
        if slot.obs.is_enabled() {
            for retraction in &rec.retractions {
                for txn in &retraction.retracted {
                    slot.obs.emit_txn(txn.0, EventKind::Retract);
                    slot.obs.emit_txn(txn.0, EventKind::Apology);
                }
            }
        }
        let retractions = self.revive(i, slot, rec, Box::new(MemStorage::new()), false);
        slot.failed_over = true;
        slot.obs.emit(EventKind::TakeoverEnd {
            retractions: retractions as u32,
        });
        report.takeovers.push(Takeover {
            edge: i,
            detected_at: now,
            retractions,
        });
    }

    /// A killed edge restarts from its own durable log file (resurrect
    /// before the detector fired). After a takeover it is fenced instead.
    fn resurrect(&self, i: usize, slot: &mut EdgeSlot, report: &mut FleetReport) {
        if slot.failed_over {
            report.fenced_wakeups += 1;
            slot.obs.emit(EventKind::Fence);
            return;
        }
        if slot.node.is_some() {
            return; // scripted resurrect of a live edge: nothing to do
        }
        let path = self.durability.edge_log_path(i).expect("durability is on");
        let rec = recover_edge_file(&path).expect("the durable log file is readable");
        let storage: Box<dyn Storage> =
            Box::new(FileStorage::create(&path).expect("the durable log file is writable"));
        // Resuming restarts the shipping epoch, so the replica re-tails
        // from the restart checkpoint.
        self.revive(i, slot, rec, storage, true);
        report.in_place_restarts += 1;
    }

    fn apply_fault(&self, ev: FaultEvent, slot: &mut EdgeSlot, report: &mut FleetReport) {
        match ev.kind {
            // Process death: the node (and its unsynced WAL buffer) is
            // gone; only the synced file — and its shipped image — remain.
            FaultKind::Kill => {
                if !slot.failed_over {
                    slot.node = None;
                }
            }
            FaultKind::Stall { frames } => {
                if !slot.failed_over && slot.node.is_some() {
                    slot.stalled_until = ev.frame + frames;
                }
            }
            // Data-plane only: shipping stops, the edge keeps serving.
            FaultKind::Partition { frames } => {
                slot.partition_until = slot.partition_until.max(ev.frame + frames);
            }
            FaultKind::Resurrect => self.resurrect(ev.edge, slot, report),
            FaultKind::CorruptShipment => slot.shipper.corrupt_next_fetch(),
        }
    }

    /// The run's label and its per-frame policy — the one place the
    /// deployment mode is read.
    fn policy<'a>(&'a self, query: &'a LabelClass) -> (String, FramePolicy<'a>) {
        let config = &self.config;
        let video = config.preset.paper_id();
        let (mut label, policy): (String, FramePolicy<'a>) = match self.mode {
            // Figure 1: small-model detection, then the validation policy
            // decides what the edge acts on and whether the cloud checks it.
            DeploymentMode::MultiStage => match config.validation {
                ValidationPolicy::Thresholds(pair) => (
                    format!("croesus {video} ({:.1},{:.1})", pair.lower, pair.upper),
                    Box::new(move |edge: &EdgeNode, frame: &Frame, _: &[Detection]| {
                        let (detections, latency) = edge.detect(frame);
                        let d = pair.decide_frame(&detections, query);
                        (d.surviving(), latency, d.send)
                    }),
                ),
                ValidationPolicy::ForcedBu(bu) => (
                    format!("croesus {video} bu={:.0}%", bu * 100.0),
                    Box::new(move |edge: &EdgeNode, frame: &Frame, _: &[Detection]| {
                        let (labels, latency) =
                            confident(edge, frame, config.low_confidence_filter);
                        (
                            labels,
                            latency,
                            ValidationPolicy::forced_send(bu, frame.index),
                        )
                    }),
                ),
            },
            // The edge-only baseline of §5: single-stage commits with the
            // edge model's labels, no cloud traffic.
            DeploymentMode::EdgeOnly => (
                format!("edge-only {video}"),
                Box::new(|edge: &EdgeNode, frame: &Frame, _: &[Detection]| {
                    let (labels, latency) = confident(edge, frame, EDGE_BASELINE_CONFIDENCE);
                    (labels, latency, false)
                }),
            ),
            // The cloud-only baseline of §5 (optionally with compression /
            // difference pre-processing at the edge): transactions trigger
            // only after the accurate labels arrive, and both sections run
            // back-to-back with the correct input. The edge model never
            // runs — the data lives at the edge partitions, nothing else.
            DeploymentMode::CloudOnly => (
                format!("cloud-only{} {video}", config.codec.label()),
                Box::new(|_: &EdgeNode, _: &Frame, cloud_labels: &[Detection]| {
                    (cloud_labels.to_vec(), SimDuration::ZERO, true)
                }),
            ),
        };
        if self.protocol != ProtocolKind::MsIa {
            label.push_str(&format!(" [{}]", self.protocol.paper_name()));
        }
        if self.edges > 1 {
            label.push_str(&format!(" [{} edges]", self.edges));
        }
        (label, policy)
    }

    /// The one frame loop — the Croesus execution pattern of Figure 1. For
    /// every frame: client→edge transfer, the frame policy (detection and
    /// thresholding), initial transaction sections (initial commit →
    /// response), then — when the frame goes up and its labels come back —
    /// edge→cloud transfer, big-model detection, label matching and final
    /// sections (final commit); every other frame finalizes locally.
    ///
    /// `chaos` attaches the failure model: every WAL ships to its replica,
    /// each frame starts with the fleet prologue (clock → detect → faults →
    /// beats) and ends with a tail round, and the report carries the
    /// timeline. Without it those hooks cost one branch each and nothing
    /// is shipped.
    pub(crate) fn drive(&self, chaos: bool) -> (RunMetrics, FleetReport) {
        let config = &self.config;
        // The video streams: the loop holds its tracks and the current
        // frame, never the frames it has finished.
        let frames = config.preset.stream(config.num_frames, config.seed);
        let query: LabelClass = config.preset.query();
        let bank = evaluation_bank();
        let cloud = self.cloud();
        let topology = config.setup.topology();
        let mut link_rng = DetRng::new(config.seed).fork_named("links");
        let (label, policy) = self.policy(&query);
        // Only the multi-stage pipeline *validates*: its cloud labels can
        // be lost, and they correct the edge's guesses. The cloud
        // baseline's trip up is the detection itself.
        let validating = self.mode == DeploymentMode::MultiStage;
        let in_query = |labels: &[Detection]| -> Vec<Detection> {
            let of_query = labels.iter().filter(|l| l.is_class(&query));
            of_query.cloned().collect()
        };

        let mut slots: Vec<EdgeSlot> = (0..self.edges)
            .map(|i| self.build_slot(&bank, i, chaos))
            .collect();
        let mut injector = FaultInjector::new(self.faults.clone());
        let mut meter = BandwidthMeter::new();
        let mut collector = MetricsCollector::new();
        let mut report = FleetReport::default();

        for frame in frames {
            let now = frame.index;
            if chaos {
                // The failure model's prologue, before the frame is routed.
                // Advance every stream's sim frame clock first: fault, miss
                // and takeover events this frame must be stamped with it.
                for slot in &slots {
                    slot.obs.set_frame(now);
                }
                // Failure detection runs FIRST in the frame, on last frame's
                // heartbeat state — before this frame's faults (a resurrect)
                // or beats are applied. This is the pinned boundary semantics:
                // the detector's `silence > heartbeat_timeout` condition is
                // evaluated like a lease — once an edge's silence exceeds the
                // timeout, the takeover wins the frame, and a resurrect
                // arriving at that exact frame is fenced rather than racing
                // the detector back in. A resurrect one frame earlier (silence
                // exactly == timeout, not >) still restarts in place. Live
                // edges see silence == 1 here (they last beat in the previous
                // frame), which the `timeout >= 1` builder floor makes
                // harmless.
                for (i, slot) in slots.iter_mut().enumerate() {
                    let silence = now.saturating_sub(slot.last_seen);
                    if self.failover && !slot.failed_over && silence > self.heartbeat_timeout {
                        self.take_over(i, now, slot, &mut report);
                        slot.last_seen = now;
                    }
                }
                for ev in injector.take_due(now) {
                    if let Some(slot) = slots.get_mut(ev.edge) {
                        self.apply_fault(ev, slot, &mut report);
                    }
                }
                for slot in &mut slots {
                    slot.shipper.set_offline(now < slot.partition_until);
                    if slot.serving(now).is_some() {
                        slot.last_seen = now;
                    } else if !slot.failed_over {
                        slot.obs.emit(EventKind::HeartbeatMiss);
                    }
                }
            }

            let slot = &slots[(now as usize) % self.edges];
            if let Some(edge) = slot.serving(now) {
                meter.record_processed();
                let edge_link = topology
                    .client_edge
                    .transfer_latency(frame.bytes, &mut link_rng);
                // The cloud reference is always computed for scoring; its
                // latency and bandwidth are only charged when the frame is
                // actually sent.
                let (cloud_labels, cloud_detect) = cloud.process(&frame);
                let (labels, edge_detect, goes_up) = policy(edge, &frame, &cloud_labels);

                // Initial stage: trigger transactions, commit initial sections.
                let initial = edge.run_initial_stage(now, &labels);
                collector.record_transactions(initial.committed);
                report.transactions_committed += initial.committed;

                // A partitioned uplink carries nothing and the frame
                // degrades to a local finalize (the replacement node lives
                // at the cloud: its "uplink" cannot be partitioned away).
                // A validated frame's labels can also be lost to a cloud
                // outage: the frame and its bytes were sent, but it times
                // out and finalizes locally — not a degraded frame.
                let partitioned = !slot.failed_over && now < slot.partition_until;
                let sent = goes_up && !partitioned;
                let lost = sent && validating && link_rng.bernoulli(config.cloud_loss_rate);
                let came_back = sent && !lost;
                if goes_up && partitioned {
                    report.degraded_frames += 1;
                }

                // Final stage. After a timeout the multi-stage guarantee
                // holds — every initially-committed transaction still
                // finally commits, with the guess retained.
                let fin = if came_back && validating {
                    edge.deliver_cloud_labels(now, &cloud_labels)
                } else {
                    edge.finalize_local(now)
                };
                if validating {
                    let (correct, corrected, erroneous, missed) = fin.counts;
                    collector.record_corrections(correct, corrected, erroneous, missed);
                }

                // The trip up and back, charged only to a frame that was
                // sent: (link, detect), or (timeout, nothing) when lost.
                let cloud_leg = sent.then(|| {
                    let encoded = config.codec.encode(frame.bytes, now.is_multiple_of(30));
                    meter.record_sent(
                        encoded.bytes,
                        topology.edge_cloud.transfer_cost(encoded.bytes),
                    );
                    if lost {
                        collector.record_cloud_timeout();
                        let timeout = SimDuration::from_millis_f64(config.cloud_timeout_ms);
                        (timeout, SimDuration::ZERO)
                    } else {
                        let up = topology
                            .edge_cloud
                            .transfer_latency(encoded.bytes, &mut link_rng)
                            + encoded.encode_latency;
                        // Labels travel back as a small payload (propagation-bound).
                        let down = topology.edge_cloud.transfer_latency(2_048, &mut link_rng);
                        (up + down, cloud_detect)
                    }
                });
                collector.record_frame(
                    edge_link,
                    edge_detect,
                    initial.txn_latency,
                    cloud_leg,
                    fin.txn_latency,
                );

                // The client sees the cloud's query labels when they came
                // back (by the ground-truth convention, cloud output scores
                // perfectly); otherwise it keeps every label the edge acted
                // on — nothing was corrected.
                let cloud_query = in_query(&cloud_labels);
                let kept = (!came_back).then(|| in_query(&labels));
                collector.record_accuracy(score_against(
                    kept.as_ref().unwrap_or(&cloud_query),
                    &cloud_query,
                    &query,
                    config.overlap_threshold,
                ));
                report.frames_processed += 1;
            } else {
                report.frames_dropped += 1;
            }

            for slot in &mut slots {
                // Settle-and-prune: every frame routed here is fully
                // finalized, so at quiescence the retractable entries (and
                // the WAL replay state's mirror of them) are dropped — an
                // unbounded run no longer accumulates apology state for
                // transactions that can never be retraction roots again.
                // The WAL checkpoints here too, when due.
                if let Some(edge) = &slot.node {
                    report.settled_entries += edge.settle() as u64;
                }
                if chaos && !slot.failed_over {
                    // Stop at the first reject: next frame's poll refetches.
                    slot.tail(0, &mut report);
                }
            }
        }

        // Clean shutdown: push every surviving WAL's durability boundary
        // over the group-commit tail (a *crash* is exactly the absence of
        // this call — the unsynced tail is the loss window group commit
        // trades away), let every replica catch up (chaos assertions
        // compare them against the files), and total the apologies the
        // fleet owes.
        for slot in &mut slots {
            if let Some(edge) = &slot.node {
                if let Some(wal) = edge.protocol().core().wal() {
                    wal.flush().expect("WAL flush at shutdown failed");
                }
                report.apologies_owed += edge.protocol().core().apologies().apology_count() as u64;
            }
            if chaos && !slot.failed_over {
                slot.shipper.set_offline(false);
                slot.tailer.catch_up();
            }
        }
        if let (true, Some(obs)) = (chaos, &self.obs) {
            report.timeline = obs.events();
        }
        (collector.finish(label, &meter), report)
    }

    /// Run the multi-stage pipeline across the fleet under the configured
    /// [`FaultPlan`](croesus_sim::FaultPlan): the frame loop with the
    /// failure model attached. Requires the multi-stage mode and durability
    /// (the builder enforces the failover half of that contract). Fully
    /// deterministic: the report is a pure function of the configuration
    /// and the plan.
    pub fn run_fleet(&self) -> FleetReport {
        assert!(
            self.mode == DeploymentMode::MultiStage,
            "the fleet driver runs the multi-stage pipeline only: the paper's baselines \
             have no failure model (CloudOnly under a partitioned uplink is undefined)"
        );
        assert!(
            self.durability.is_enabled(),
            "the fleet driver requires durability: WAL shipping is the failover substrate"
        );
        self.drive(true).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{durable_modes, Croesus, CroesusBuilder};
    use crate::threshold::ThresholdPair;
    use croesus_sim::FaultPlan;
    use croesus_video::VideoPreset;

    /// The fleet under test, once per durability mode: what the failure
    /// detector, the fence and the replica do must not depend on the
    /// edge's flush policy.
    fn fleets(dir: &std::path::Path) -> impl Iterator<Item = CroesusBuilder> {
        durable_modes(dir).into_iter().map(|mode| {
            Croesus::builder()
                .frames(30)
                .edges(3)
                .durability(mode)
                .failover(true)
                .heartbeat_timeout(3)
        })
    }

    #[test]
    fn fault_free_fleet_processes_everything() {
        let dir = croesus_wal::scratch_dir("fleet-clean");
        for fleet in fleets(&dir) {
            let r = fleet.clone().build().run_fleet();
            assert_eq!(r.frames_processed, 30);
            assert_eq!(r.frames_dropped, 0);
            assert!(r.takeovers.is_empty());
            assert_eq!(r.apologies_owed, 0);
            assert!(r.settled_entries > 0, "per-frame settling fired");
            assert!(r.transactions_committed > 0);
            // One frame loop: without faults the fleet path commits exactly
            // what `run()` commits, under every protocol.
            for kind in croesus_txn::ProtocolKind::ALL {
                let deployment = fleet.clone().protocol(kind).build();
                assert_eq!(
                    deployment.run_fleet().transactions_committed,
                    deployment.run().transactions_committed,
                    "{kind}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `cloud_loss` reaches the fleet path through the shared driver: a
    /// lost validated frame times out and finalizes locally exactly as in
    /// `run()`. It is not a degraded frame — that counter is partition-only.
    #[test]
    fn fleet_honours_cloud_loss() {
        let dir = croesus_wal::scratch_dir("fleet-loss");
        for fleet in fleets(&dir) {
            let healthy = fleet.clone().build().drive(true);
            let lossy = fleet.cloud_loss(1.0).build().drive(true);
            assert_eq!(healthy.0.cloud_timeouts, 0);
            assert!(lossy.0.cloud_timeouts > 0);
            assert_eq!(lossy.0.corrections.corrected, 0, "nothing came back");
            assert_eq!(lossy.1.degraded_frames, 0, "loss is not a partition");
            assert_ne!(healthy.1, lossy.1, "the report sees the loss");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "multi-stage pipeline only")]
    fn baseline_fleet_is_rejected() {
        let _ = Croesus::builder()
            .mode(DeploymentMode::EdgeOnly)
            .build()
            .run_fleet();
    }

    #[test]
    fn killed_edge_fails_over_exactly_at_the_timeout() {
        let dir = croesus_wal::scratch_dir("fleet-kill");
        let plan = FaultPlan::new().at(6, 1, FaultKind::Kill);
        for fleet in fleets(&dir) {
            let r = fleet.faults(plan.clone()).build().run_fleet();
            assert_eq!(r.takeovers.len(), 1);
            let t = &r.takeovers[0];
            assert_eq!(t.edge, 1);
            assert_eq!(
                t.detected_at,
                6 + 3,
                "last beat at frame 5, declared dead once the silence exceeds the timeout"
            );
            // Frame 7 (the only frame routed to edge 1 during the gap) dropped.
            assert_eq!(r.frames_dropped, 1);
            assert_eq!(r.frames_processed, 29);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Boundary pin: a resurrect landing on the exact detection frame
    /// LOSES the frame. Detection runs before fault application, so once
    /// silence exceeds the timeout the takeover is decided and the
    /// returning original is fenced — it cannot race the detector back in.
    #[test]
    fn resurrect_at_the_exact_detection_frame_is_fenced() {
        let dir = croesus_wal::scratch_dir("fleet-boundary-lose");
        // Kill at 6 → last beat at 5 → silence first exceeds timeout 3 at
        // frame 9, the same frame the resurrect arrives.
        let plan = FaultPlan::new()
            .at(6, 1, FaultKind::Kill)
            .at(9, 1, FaultKind::Resurrect);
        for fleet in fleets(&dir) {
            let r = fleet.faults(plan.clone()).build().run_fleet();
            assert_eq!(r.takeovers.len(), 1, "the detector wins the tie");
            assert_eq!(r.takeovers[0].detected_at, 9);
            assert_eq!(r.fenced_wakeups, 1, "the late riser is fenced out");
            assert_eq!(r.in_place_restarts, 0);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Boundary pin, other side: one frame earlier the silence equals the
    /// timeout (not exceeds), the detector stays quiet, and the edge
    /// restarts in place.
    #[test]
    fn resurrect_one_frame_before_detection_restarts_in_place() {
        let dir = croesus_wal::scratch_dir("fleet-boundary-win");
        let plan = FaultPlan::new()
            .at(6, 1, FaultKind::Kill)
            .at(8, 1, FaultKind::Resurrect);
        for fleet in fleets(&dir) {
            let r = fleet.faults(plan.clone()).build().run_fleet();
            assert!(r.takeovers.is_empty(), "silence == timeout is still alive");
            assert_eq!(r.fenced_wakeups, 0);
            assert_eq!(r.in_place_restarts, 1);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_stall_recovers_without_failover() {
        let dir = croesus_wal::scratch_dir("fleet-stall");
        let plan = FaultPlan::new().at(5, 2, FaultKind::Stall { frames: 2 });
        for fleet in fleets(&dir) {
            let r = fleet.faults(plan.clone()).build().run_fleet();
            assert!(r.takeovers.is_empty(), "woke before the detector fired");
            assert_eq!(r.fenced_wakeups, 0);
            assert_eq!(r.frames_dropped, 1, "frame 5 (5 % 3 == 2) was missed");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn long_stall_is_deposed_and_fenced() {
        let dir = croesus_wal::scratch_dir("fleet-long-stall");
        let plan = FaultPlan::new().at(5, 0, FaultKind::Stall { frames: 10 });
        for fleet in fleets(&dir) {
            let r = fleet.faults(plan.clone()).build().run_fleet();
            assert_eq!(r.takeovers.len(), 1, "a stall past the timeout is death");
            assert_eq!(r.fenced_wakeups, 1, "the frozen original must not rejoin");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partition_degrades_instead_of_failing_over() {
        let dir = croesus_wal::scratch_dir("fleet-partition");
        let plan = FaultPlan::new().at(3, 0, FaultKind::Partition { frames: 12 });
        for fleet in fleets(&dir) {
            let r = fleet.faults(plan.clone()).build().run_fleet();
            assert!(
                r.takeovers.is_empty(),
                "a partitioned edge is alive and authoritative — never deposed"
            );
            assert_eq!(r.frames_dropped, 0, "full availability throughout");
            assert!(r.degraded_frames > 0, "validated frames finalized locally");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resurrect_before_detection_restarts_in_place() {
        let dir = croesus_wal::scratch_dir("fleet-resurrect");
        let plan = FaultPlan::new()
            .at(6, 1, FaultKind::Kill)
            .at(8, 1, FaultKind::Resurrect);
        for fleet in fleets(&dir) {
            let obs = croesus_obs::Obs::shared();
            let r = fleet
                .heartbeat_timeout(5)
                .faults(plan.clone())
                .observe(Arc::clone(&obs))
                .build()
                .run_fleet();
            assert!(r.takeovers.is_empty(), "back before the detector fired");
            assert_eq!(r.in_place_restarts, 1);
            // The resumed writer's LSN space starts over mid-stream.
            croesus_obs::check_obs(&obs).expect("an in-place restart obeys the contract");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resurrect_after_takeover_is_fenced() {
        let dir = croesus_wal::scratch_dir("fleet-fence");
        let plan = FaultPlan::new()
            .at(6, 1, FaultKind::Kill)
            .at(15, 1, FaultKind::Resurrect);
        for fleet in fleets(&dir) {
            let r = fleet.faults(plan.clone()).build().run_fleet();
            assert_eq!(r.takeovers.len(), 1);
            assert_eq!(r.in_place_restarts, 0);
            assert_eq!(r.fenced_wakeups, 1, "the zombie stays out");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_shipment_is_rejected_and_refetched() {
        let dir = croesus_wal::scratch_dir("fleet-corrupt");
        let plan = FaultPlan::new().at(4, 0, FaultKind::CorruptShipment);
        for fleet in fleets(&dir) {
            let r = fleet.faults(plan.clone()).build().run_fleet();
            assert!(r.rejected_batches >= 1);
            assert!(r.takeovers.is_empty());
            assert_eq!(r.frames_processed, 30, "damage in flight costs nothing");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Two whole chaos reports as literals, captured at the commit before
    /// the fleet loop became the shared per-frame driver: a chaos run is a
    /// pure function of `(config, plan)`, so every field is pinned (the
    /// run is unobserved — `timeline` stays empty).
    #[test]
    fn pins_whole_fleet_reports() {
        let takeover = |edge, detected_at, retractions| Takeover {
            edge,
            detected_at,
            retractions,
        };
        let pins = [
            (
                11,
                FleetReport {
                    frames_processed: 37,
                    frames_dropped: 3,
                    transactions_committed: 137,
                    takeovers: vec![takeover(0, 6, 0), takeover(1, 7, 0), takeover(2, 7, 0)],
                    fenced_wakeups: 4,
                    settled_entries: 233,
                    ..FleetReport::default()
                },
            ),
            (
                99,
                FleetReport {
                    frames_processed: 36,
                    frames_dropped: 4,
                    transactions_committed: 132,
                    takeovers: vec![takeover(1, 6, 0), takeover(0, 23, 0), takeover(2, 32, 6)],
                    fenced_wakeups: 4,
                    settled_entries: 228,
                    apologies_owed: 6,
                    ..FleetReport::default()
                },
            ),
        ];
        let dir = croesus_wal::scratch_dir("fleet-pins");
        for (seed, pinned) in pins {
            let r = Croesus::builder()
                .frames(40)
                .edges(3)
                .durability(croesus_wal::DurabilityMode::group_commit(&dir))
                .failover(true)
                .heartbeat_timeout(3)
                .faults(FaultPlan::seeded(seed, 40, 3, 0.08))
                .build()
                .run_fleet();
            assert_eq!(r, pinned, "seed {seed}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let dir_a = croesus_wal::scratch_dir("fleet-det-a");
        let dir_b = croesus_wal::scratch_dir("fleet-det-b");
        let plan = FaultPlan::seeded(99, 30, 3, 0.08);
        for (a, b) in fleets(&dir_a).zip(fleets(&dir_b)) {
            let a = a.faults(plan.clone()).build().run_fleet();
            let b = b.faults(plan.clone()).build().run_fleet();
            assert_eq!(a, b, "a chaos run is a pure function of (config, plan)");
        }
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    /// A device whose syncs take a while, so a pipelined flusher is still
    /// landing a sealed buffer when the detector fires.
    struct SlowSync(MemStorage);

    impl Storage for SlowSync {
        fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            self.0.append(bytes)
        }

        fn sync(&mut self) -> std::io::Result<()> {
            std::thread::sleep(std::time::Duration::from_millis(50));
            self.0.sync()
        }

        fn reset(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            self.0.reset(bytes)
        }

        fn len(&self) -> u64 {
            self.0.len()
        }
    }

    /// A stalled pipelined edge is deposed before the replica tails it, so
    /// the takeover recovers every buffer the edge sealed, not whatever
    /// its flusher had landed by the time the detector fired.
    #[test]
    fn takeover_of_a_stalled_pipelined_edge_recovers_every_sealed_buffer() {
        use croesus_store::{Key, TxnId, Value};
        use croesus_wal::{StageFlags, StageRecord, WriteImage};

        let dir = croesus_wal::scratch_dir("fleet-stalled-pipelined");
        let d = Croesus::builder()
            .durability(croesus_wal::DurabilityMode::pipelined(&dir))
            .failover(true)
            .build();
        let mut slot = d.build_slot(&evaluation_bank(), 0, true);
        let fresh = croesus_txn::recovery::recover_edge(&[]);
        d.revive(
            0,
            &mut slot,
            fresh,
            Box::new(SlowSync(MemStorage::new())),
            true,
        );
        let key = Key::from("sealed/0");
        let wal = Arc::clone(slot.node.as_ref().unwrap().protocol().core().wal().unwrap());
        wal.append_stage(StageRecord {
            txn: TxnId(1),
            stage: 0,
            total: 1,
            flags: StageFlags(StageFlags::COMMIT_POINT | StageFlags::FINAL),
            reads: vec![],
            writes: vec![key.clone()],
            images: vec![WriteImage {
                key: key.clone(),
                pre: None,
                post: Some(Arc::new(Value::Int(1))),
            }],
        })
        .unwrap();
        wal.seal_active();
        drop(wal);

        d.take_over(0, 5, &mut slot, &mut FleetReport::default());
        let replica = slot.node.as_ref().expect("the replacement serves");
        assert!(
            replica.protocol().core().store().contains(&key),
            "the sealed record reached the replica"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // The Figure 1 pipeline end to end: what validation costs and buys.

    fn pipeline(preset: VideoPreset, pair: ThresholdPair) -> CroesusBuilder {
        Croesus::builder()
            .preset(preset)
            .thresholds(pair)
            .frames(80)
    }

    fn quick(preset: VideoPreset, pair: ThresholdPair) -> RunMetrics {
        pipeline(preset, pair).build().run()
    }

    #[test]
    fn run_produces_consistent_metrics() {
        let m = quick(VideoPreset::StreetTraffic, ThresholdPair::new(0.4, 0.6));
        assert!(m.f_score > 0.0 && m.f_score <= 1.0);
        assert!(m.bandwidth_utilization >= 0.0 && m.bandwidth_utilization <= 1.0);
        assert!(m.initial_commit_ms > 150.0, "edge detect dominates initial");
        assert!(m.final_commit_ms >= m.initial_commit_ms);
        assert!(m.transactions_committed > 0);
    }

    #[test]
    fn validated_frames_pay_the_cloud_path() {
        let all = quick(VideoPreset::StreetTraffic, ThresholdPair::new(0.0, 0.9));
        let none = quick(VideoPreset::StreetTraffic, ThresholdPair::new(0.5, 0.5));
        assert!(all.bandwidth_utilization > 0.8);
        assert!(none.bandwidth_utilization < 0.1);
        assert!(
            all.final_commit_ms > none.final_commit_ms + 500.0,
            "cloud path ≈1.2s: {} vs {}",
            all.final_commit_ms,
            none.final_commit_ms
        );
        assert!(all.f_score > none.f_score);
    }

    #[test]
    fn initial_commit_is_real_time_regardless_of_validation() {
        let all = quick(VideoPreset::StreetTraffic, ThresholdPair::new(0.0, 0.9));
        // Initial commit stays ~edge-path even when every frame goes to
        // the cloud — the client "has the illusion of both fast and
        // accurate detection".
        assert!(
            all.initial_commit_ms < 300.0,
            "initial {}",
            all.initial_commit_ms
        );
    }

    #[test]
    fn forced_bu_sweep_is_monotone_in_latency() {
        let base = pipeline(VideoPreset::ParkDog, ThresholdPair::new(0.4, 0.6)).frames(60);
        let lo = base
            .clone()
            .validation(ValidationPolicy::ForcedBu(0.25))
            .build()
            .run();
        let hi = base
            .validation(ValidationPolicy::ForcedBu(1.0))
            .build()
            .run();
        assert!((lo.bandwidth_utilization - 0.25).abs() < 0.05);
        assert!(hi.bandwidth_utilization > 0.95);
        assert!(hi.final_commit_ms > lo.final_commit_ms);
        assert!(hi.f_score >= lo.f_score);
    }

    #[test]
    fn runs_are_reproducible() {
        let a = quick(VideoPreset::MallSurveillance, ThresholdPair::new(0.3, 0.6));
        let b = quick(VideoPreset::MallSurveillance, ThresholdPair::new(0.3, 0.6));
        assert_eq!(a.f_score, b.f_score);
        assert_eq!(a.bandwidth_utilization, b.bandwidth_utilization);
        assert_eq!(a.bytes_sent, b.bytes_sent);
        assert_eq!(a.corrections, b.corrections);
    }

    #[test]
    fn no_pending_frames_leak() {
        // The deployment drains every frame (validated or local).
        let m = pipeline(VideoPreset::StreetTraffic, ThresholdPair::new(0.3, 0.7))
            .frames(40)
            .build()
            .run();
        assert!(m.transactions_committed > 0);
    }

    #[test]
    fn cloud_loss_degrades_accuracy_but_never_blocks_commits() {
        let base = pipeline(VideoPreset::MallSurveillance, ThresholdPair::new(0.2, 0.8));
        let healthy = base.clone().build().run();
        let lossy = base.cloud_loss(1.0).build().run();
        assert_eq!(healthy.cloud_timeouts, 0);
        assert!(lossy.cloud_timeouts > 0);
        // With total loss, no frame ever gets corrected.
        assert!(lossy.f_score < healthy.f_score);
        // The guarantee holds: every transaction still finally committed.
        assert!(lossy.transactions_committed > 0);
        // Timeouts dominate latency for validated frames.
        assert!(lossy.final_commit_ms > healthy.final_commit_ms);
    }

    #[test]
    fn partial_cloud_loss_sits_between_extremes() {
        let base = pipeline(VideoPreset::StreetTraffic, ThresholdPair::new(0.3, 0.7));
        let none = base.clone().build().run();
        let half = base.clone().cloud_loss(0.5).build().run();
        let all = base.cloud_loss(1.0).build().run();
        assert!(half.cloud_timeouts > 0 && half.cloud_timeouts < all.cloud_timeouts);
        assert!(half.f_score <= none.f_score + 1e-9);
        assert!(half.f_score >= all.f_score - 1e-9);
    }

    #[test]
    fn corrections_happen_on_hard_video_with_validation() {
        let m = quick(VideoPreset::MallSurveillance, ThresholdPair::new(0.2, 0.8));
        let c = m.corrections;
        assert!(
            c.corrected + c.erroneous + c.missed > 0,
            "hard video must produce corrections: {c:?}"
        );
    }
}
