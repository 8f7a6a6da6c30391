//! The fault-injected edge fleet: failure detection, WAL-shipping
//! failover, and degradation.
//!
//! [`Deployment::run_fleet`] drives the multi-stage pipeline across the
//! edge fleet while a [`FaultPlan`](croesus_sim::FaultPlan) kills, stalls,
//! partitions and resurrects individual edges. The pieces:
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

use std::path::PathBuf;
use std::sync::Arc;

use croesus_detect::{Detection, ModelProfile, SimulatedModel};
use croesus_obs::{EdgeObs, Event, EventKind, HistKind};
use croesus_sim::{FaultEvent, FaultInjector, FaultKind};
use croesus_store::{KvStore, LockManager};
use croesus_txn::recovery::{recover_edge_file, RecoveredEdge};
use croesus_txn::ExecutorCore;
use croesus_wal::{FileStorage, LogShipper, MemStorage, Storage, Wal};

use crate::bank::TransactionsBank;
use crate::cloud::{CloudNode, ReplicaTailer, TailPoll};
use crate::config::ValidationPolicy;
use crate::edge::EdgeNode;
use crate::pipeline::evaluation_bank;
use crate::system::Deployment;

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
    /// Initial sections committed across the fleet.
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
struct EdgeSlot {
    /// The serving node: the original edge, its in-place resurrection, or
    /// (after takeover) the cloud-side replacement. `None` while killed.
    node: Option<EdgeNode>,
    shipper: Arc<LogShipper>,
    tailer: ReplicaTailer,
    wal_path: PathBuf,
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
    /// Whether the slot serves frames (and beats) at `now`. A failed-over
    /// slot's replacement ignores the original's stall clock.
    fn serving(&self, now: u64) -> bool {
        self.node.is_some() && (self.failed_over || now >= self.stalled_until)
    }
}

impl Deployment {
    fn edge_model(&self) -> SimulatedModel {
        SimulatedModel::new(ModelProfile::tiny_yolov3(), self.config.seed ^ 0xE)
            .with_hardware_factor(self.config.setup.edge.hardware_factor())
    }

    fn build_slot(&self, bank: &Arc<TransactionsBank>, i: usize) -> EdgeSlot {
        let cfg = &self.config;
        let salt = (i as u64) << 48;
        let wal = self
            .durability
            .open_edge_wal_with(i, self.coalescer.clone())
            .expect("durability directory must be creatable and writable")
            .expect("the fleet driver requires durability");
        let shipper = Arc::new(LogShipper::new());
        wal.attach_shipper(Arc::clone(&shipper));
        let eobs = self.edge_obs(i);
        wal.set_obs(eobs.clone());
        let core = ExecutorCore::new(
            Arc::new(KvStore::new()),
            Arc::new(LockManager::new(self.protocol.default_lock_policy())),
        )
        .with_obs(eobs.clone())
        .with_wal(Arc::new(wal));
        let node = EdgeNode::with_protocol(
            self.edge_model(),
            Arc::clone(bank),
            cfg.overlap_threshold,
            cfg.seed ^ salt,
            self.protocol.build(core),
        )
        .with_worker_pool(croesus_txn::WorkerPool::new(self.workers));
        EdgeSlot {
            node: Some(node),
            tailer: ReplicaTailer::new(Arc::clone(&shipper)),
            shipper,
            wal_path: self.durability.edge_log_path(i).expect("durability is on"),
            stalled_until: 0,
            partition_until: 0,
            failed_over: false,
            obs: eobs,
        }
    }

    /// Stand a node back up over recovered state: the WAL restarts as a
    /// checkpoint of the recovered world, the apology manager carries the
    /// crash retractions, and transaction ids continue from the log's
    /// high-water mark. Returns the node and how many transactions the
    /// recovery retracted.
    fn revive_node(
        &self,
        i: usize,
        bank: &Arc<TransactionsBank>,
        rec: RecoveredEdge,
        storage: Box<dyn Storage>,
        shipper: Option<Arc<LogShipper>>,
    ) -> (EdgeNode, usize) {
        let RecoveredEdge {
            store,
            apologies,
            retractions,
            next_txn,
            state,
            ..
        } = rec;
        let wal = Wal::resume(
            storage,
            self.durability.wal_config(),
            self.durability.flush_driver(self.coalescer.clone()),
            state,
            &store,
            shipper,
        )
        .expect("resuming the write-ahead log must succeed");
        let eobs = self.edge_obs(i);
        wal.set_obs(eobs.clone());
        let core = ExecutorCore::new(
            store,
            Arc::new(LockManager::new(self.protocol.default_lock_policy())),
        )
        .with_obs(eobs)
        .with_apologies(apologies)
        .with_wal(Arc::new(wal));
        let salt = (i as u64) << 48;
        let node = EdgeNode::with_protocol(
            self.edge_model(),
            Arc::clone(bank),
            self.config.overlap_threshold,
            self.config.seed ^ salt,
            self.protocol.build(core),
        )
        .with_worker_pool(croesus_txn::WorkerPool::new(self.workers));
        node.set_txn_start(next_txn);
        (node, retractions.len())
    }

    /// The cloud takes over a dead edge's partition from its replica.
    fn take_over(
        &self,
        i: usize,
        now: u64,
        silence_frames: u64,
        slot: &mut EdgeSlot,
        bank: &Arc<TransactionsBank>,
        report: &mut FleetReport,
    ) {
        slot.obs.emit(EventKind::TakeoverStart);
        slot.obs
            .record_value(HistKind::DetectToTakeoverFrames, silence_frames);
        // Pull whatever the link still carries; if it is down, the replica
        // serves from what already shipped — a stale-but-valid durable
        // prefix is exactly what a crash would have preserved anyway.
        let mut rejects = 0;
        loop {
            match slot.tailer.poll() {
                TailPoll::Advanced { bytes, .. } => {
                    slot.obs.emit(EventKind::ShipAccept {
                        bytes: bytes as u64,
                    });
                }
                TailPoll::Rejected => {
                    slot.obs.emit(EventKind::ShipReject);
                    report.rejected_batches += 1;
                    rejects += 1;
                    if rejects > 3 {
                        break;
                    }
                }
                TailPoll::UpToDate | TailPoll::Offline => break,
            }
        }
        if slot.node.take().is_some() {
            // The node was stalled, not dead: it gets deposed now and
            // fenced when it wakes.
            report.fenced_wakeups += 1;
            slot.obs.emit(EventKind::Fence);
        }
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
        let (node, retractions) = self.revive_node(i, bank, rec, Box::new(MemStorage::new()), None);
        slot.node = Some(node);
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
    fn resurrect(
        &self,
        i: usize,
        slot: &mut EdgeSlot,
        bank: &Arc<TransactionsBank>,
        report: &mut FleetReport,
    ) {
        if slot.failed_over {
            report.fenced_wakeups += 1;
            slot.obs.emit(EventKind::Fence);
            return;
        }
        if slot.node.is_some() {
            return; // scripted resurrect of a live edge: nothing to do
        }
        let rec = recover_edge_file(&slot.wal_path).expect("the durable log file is readable");
        let storage: Box<dyn Storage> = Box::new(
            FileStorage::create(&slot.wal_path).expect("the durable log file is writable"),
        );
        // Resuming restarts the shipping epoch, so the replica re-tails
        // from the restart checkpoint.
        let (node, _) = self.revive_node(i, bank, rec, storage, Some(Arc::clone(&slot.shipper)));
        slot.node = Some(node);
        report.in_place_restarts += 1;
    }

    fn apply_fault(
        &self,
        ev: FaultEvent,
        slot: &mut EdgeSlot,
        bank: &Arc<TransactionsBank>,
        report: &mut FleetReport,
    ) {
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
            FaultKind::Resurrect => self.resurrect(ev.edge, slot, bank, report),
            FaultKind::CorruptShipment => slot.shipper.corrupt_next_fetch(),
        }
    }

    /// Run the multi-stage pipeline across the fleet under the configured
    /// [`FaultPlan`](croesus_sim::FaultPlan). Requires durability (the
    /// builder enforces the failover half of that contract). Fully
    /// deterministic: the report is a pure function of the configuration
    /// and the plan.
    pub fn run_fleet(&self) -> FleetReport {
        assert!(
            self.durability.is_enabled(),
            "the fleet driver requires durability: WAL shipping is the failover substrate"
        );
        let config = &self.config;
        let video = config.preset.generate(config.num_frames, config.seed);
        let query = video.query_class().clone();
        let bank = evaluation_bank();
        let cloud = CloudNode::new(config.cloud_model, config.seed ^ 0xC);
        let mut slots: Vec<EdgeSlot> = (0..self.edges).map(|i| self.build_slot(&bank, i)).collect();
        let mut injector = FaultInjector::new(self.faults.clone());
        let mut last_seen = vec![0u64; self.edges];
        let mut report = FleetReport::default();

        for frame in video.frames() {
            let now = frame.index;
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
            if self.failover {
                for i in 0..self.edges {
                    let silence = now.saturating_sub(last_seen[i]);
                    if !slots[i].failed_over && silence > self.heartbeat_timeout {
                        self.take_over(i, now, silence, &mut slots[i], &bank, &mut report);
                        last_seen[i] = now;
                    }
                }
            }
            for ev in injector.take_due(now) {
                if ev.edge < self.edges {
                    let slot = &mut slots[ev.edge];
                    self.apply_fault(ev, slot, &bank, &mut report);
                }
            }
            for (i, slot) in slots.iter_mut().enumerate() {
                slot.shipper.set_offline(now < slot.partition_until);
                if slot.serving(now) {
                    last_seen[i] = now;
                } else if !slot.failed_over {
                    slot.obs.emit(EventKind::HeartbeatMiss);
                }
            }

            let i = (now as usize) % self.edges;
            let slot = &mut slots[i];
            if !slot.serving(now) {
                report.frames_dropped += 1;
            } else {
                let edge = slot.node.as_ref().expect("serving implies a node");
                let (detections, _) = edge.detect(frame);
                let (send, surviving): (bool, Vec<Detection>) = match config.validation {
                    ValidationPolicy::Thresholds(pair) => {
                        let d = pair.decide_frame(&detections, &query);
                        (d.send, d.surviving())
                    }
                    ValidationPolicy::ForcedBu(bu) => (
                        ValidationPolicy::forced_send(bu, now),
                        detections
                            .into_iter()
                            .filter(|d| d.confidence >= config.low_confidence_filter)
                            .collect(),
                    ),
                };
                let initial = edge.run_initial_stage(now, &surviving);
                report.transactions_committed += initial.committed;
                // The replacement node lives at the cloud: its "uplink"
                // cannot be partitioned away.
                let partitioned = !slot.failed_over && now < slot.partition_until;
                if send && !partitioned {
                    let (cloud_labels, _) = cloud.process(frame);
                    edge.deliver_cloud_labels(now, &cloud_labels);
                } else {
                    edge.finalize_local(now);
                    if send {
                        report.degraded_frames += 1;
                    }
                }
                report.frames_processed += 1;
            }

            for slot in &mut slots {
                if let Some(edge) = &slot.node {
                    report.settled_entries += edge.settle() as u64;
                }
                if !slot.failed_over {
                    // Replication lag, sampled before this frame's tail
                    // round: durable-but-unreplicated bytes at the source.
                    if slot.obs.is_enabled() {
                        let lag = slot
                            .shipper
                            .shipped_len()
                            .saturating_sub(slot.tailer.log().len());
                        slot.obs.record_value(HistKind::ShipLagBytes, lag as u64);
                    }
                    loop {
                        match slot.tailer.poll() {
                            TailPoll::Advanced { bytes, .. } => {
                                slot.obs.emit(EventKind::ShipAccept {
                                    bytes: bytes as u64,
                                });
                            }
                            TailPoll::Rejected => {
                                slot.obs.emit(EventKind::ShipReject);
                                report.rejected_batches += 1;
                                break; // next frame's poll refetches
                            }
                            TailPoll::UpToDate | TailPoll::Offline => break,
                        }
                    }
                }
            }
        }

        // Clean shutdown: flush the surviving WALs, let every replica
        // catch up (chaos assertions compare them against the files), and
        // total the apologies the fleet owes.
        for slot in &mut slots {
            if let Some(edge) = &slot.node {
                if let Some(wal) = edge.protocol().core().wal() {
                    wal.flush().expect("WAL flush at shutdown failed");
                }
                report.apologies_owed +=
                    edge.protocol().core().apologies().apologies().len() as u64;
            }
            if !slot.failed_over {
                slot.shipper.set_offline(false);
                slot.tailer.catch_up();
            }
        }
        if let Some(obs) = &self.obs {
            report.timeline = obs.events();
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{durable_modes, Croesus, CroesusBuilder};
    use croesus_sim::FaultPlan;

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
            let r = fleet.build().run_fleet();
            assert_eq!(r.frames_processed, 30);
            assert_eq!(r.frames_dropped, 0);
            assert!(r.takeovers.is_empty());
            assert_eq!(r.apologies_owed, 0);
            assert!(r.settled_entries > 0, "per-frame settling fired");
            assert!(r.transactions_committed > 0);
        }
        std::fs::remove_dir_all(&dir).unwrap();
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
}
