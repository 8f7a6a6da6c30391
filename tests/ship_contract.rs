//! Property tests for the PR 4 edge→cloud shipping contract
//! (DESIGN.md, "Failure model & failover"):
//!
//! * an epoch bump always reaches the replica as a **restart batch** — the
//!   replica replaces its copy wholesale and never appends across epochs;
//! * a rejected (damaged) batch never advances the cursor or mutates the
//!   replica's log — the next poll is an automatic refetch;
//! * whenever the replica's epoch matches the source, its log is exactly
//!   the shipped image up to its cursor (shipped ⊆ durable ⇒ the replica
//!   can lag, never run ahead).

use proptest::prelude::*;

use croesus::core::{ReplicaTailer, TailPoll};
use croesus::store::{KvStore, TxnId};
use croesus::wal::frame::write_frame;
use croesus::wal::{
    FlushDriver, FrameReader, LogShipper, MemStorage, RecoveryState, StageFlags, StageRecord,
    TailState, Wal, WalConfig, WalRecord, WalStats,
};
use std::sync::Arc;

/// One source-side or replica-side step of the shipping dialogue.
#[derive(Clone, Debug)]
enum Ev {
    /// The edge syncs new records: frame and publish them.
    Publish(Vec<(u64, bool)>),
    /// The edge checkpoints: epoch bump, image replaced.
    Checkpoint,
    /// The next fetched copy is damaged in flight.
    Corrupt,
    /// Cut or restore the uplink.
    Offline(bool),
    /// The replica polls once.
    Poll,
}

fn arb_event() -> impl Strategy<Value = Ev> {
    prop_oneof![
        prop::collection::vec((1u64..9, any::<bool>()), 1..4).prop_map(Ev::Publish),
        Just(Ev::Checkpoint),
        Just(Ev::Corrupt),
        any::<bool>().prop_map(Ev::Offline),
        // Weight polls up so runs actually consume what they publish.
        Just(Ev::Poll),
        Just(Ev::Poll),
        Just(Ev::Poll),
    ]
}

fn framed(records: &[WalRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in records {
        write_frame(&mut out, &r.encode());
    }
    out
}

fn decision_frames(decisions: &[(u64, bool)]) -> Vec<u8> {
    let records: Vec<WalRecord> = decisions
        .iter()
        .map(|&(txn, commit)| WalRecord::TpcDecision {
            txn: TxnId(txn),
            commit,
        })
        .collect();
    framed(&records)
}

fn parses_cleanly(bytes: &[u8]) -> bool {
    let mut reader = FrameReader::new(bytes);
    for payload in reader.by_ref() {
        if WalRecord::decode(payload).is_err() {
            return false;
        }
    }
    reader.tail() == TailState::Clean
}

proptest! {
    #[test]
    fn shipping_contract_holds_for_any_dialogue(events in prop::collection::vec(arb_event(), 1..40)) {
        let shipper = Arc::new(LogShipper::new());
        let mut tailer = ReplicaTailer::new(Arc::clone(&shipper));

        for ev in &events {
            match ev {
                Ev::Publish(decisions) => shipper.publish(&decision_frames(decisions)),
                Ev::Checkpoint => shipper.restart_epoch(&framed(&[WalRecord::Settle])),
                Ev::Corrupt => shipper.corrupt_next_fetch(),
                Ev::Offline(down) => shipper.set_offline(*down),
                Ev::Poll => {
                    let cursor_before = tailer.cursor();
                    let log_before = tailer.log().to_vec();
                    match tailer.poll() {
                        TailPoll::Rejected => {
                            // A damaged batch must be a pure no-op.
                            prop_assert_eq!(tailer.cursor(), cursor_before);
                            prop_assert_eq!(tailer.log(), log_before.as_slice());
                        }
                        TailPoll::Advanced { bytes, restarted } => {
                            let cursor = tailer.cursor();
                            if cursor.epoch != cursor_before.epoch {
                                // Epoch bump ⇒ full re-tail, never append.
                                prop_assert!(restarted, "cross-epoch batch must restart");
                            }
                            if restarted {
                                // The replica's copy is replaced wholesale
                                // by the new epoch's whole image.
                                prop_assert_eq!(tailer.log(), shipper.image().as_slice());
                            } else {
                                // Same epoch: strictly appended.
                                prop_assert_eq!(cursor.epoch, cursor_before.epoch);
                                prop_assert!(tailer.log().starts_with(&log_before));
                                prop_assert_eq!(tailer.log().len(), log_before.len() + bytes);
                            }
                            prop_assert_eq!(cursor.offset, tailer.log().len());
                        }
                        TailPoll::Offline => prop_assert!(shipper.is_offline()),
                        TailPoll::UpToDate => {
                            prop_assert_eq!(cursor_before.offset, shipper.shipped_len());
                        }
                    }
                    // The replica always holds a valid, replayable prefix.
                    prop_assert!(parses_cleanly(tailer.log()));
                    // And when epochs agree, exactly the shipped image up
                    // to its cursor — lagging, never ahead.
                    if tailer.cursor().epoch == shipper.epoch() {
                        let image = shipper.image();
                        prop_assert!(tailer.cursor().offset <= image.len());
                        prop_assert_eq!(tailer.log(), &image[..tailer.cursor().offset]);
                    }
                }
            }
        }

        // Drain: back online, at most one pending corrupt fetch to shed,
        // then the replica must converge on the full image.
        shipper.set_offline(false);
        for _ in 0..2 {
            match tailer.catch_up() {
                TailPoll::UpToDate => break,
                TailPoll::Rejected => continue,
                other => prop_assert!(false, "unexpected drain outcome: {other:?}"),
            }
        }
        prop_assert_eq!(tailer.log(), shipper.image().as_slice());
        prop_assert_eq!(tailer.cursor().epoch, shipper.epoch());
    }
}

/// One step of the shipping dialogue whose publication source is a real
/// writer (publish rides `step`'s post-sync section), not hand-called
/// `publish`.
#[derive(Clone, Debug)]
enum PipeEv {
    /// Log one commit-point stage (lands in the active buffer; under an
    /// inline driver the one that fills the group seals and lands it).
    Commit(i64),
    /// Seal the active buffer onto the queue (unsynced!).
    Seal,
    /// One `step`: sync + publish of the oldest sealed buffer.
    Step,
    /// Drain the whole pipeline (`Wal::flush`).
    FlushAll,
    /// Checkpoint — the epoch bump racing whatever is sealed-but-unsynced.
    Checkpoint,
    /// The next fetched copy is damaged in flight.
    Corrupt,
    /// Cut or restore the uplink.
    Offline(bool),
    /// The replica polls once.
    Poll,
}

fn arb_pipe_event() -> impl Strategy<Value = PipeEv> {
    prop_oneof![
        (1i64..100).prop_map(PipeEv::Commit),
        Just(PipeEv::Seal),
        // Weight steps and polls up so dialogues actually move bytes.
        Just(PipeEv::Step),
        Just(PipeEv::Step),
        Just(PipeEv::FlushAll),
        Just(PipeEv::Checkpoint),
        Just(PipeEv::Corrupt),
        any::<bool>().prop_map(PipeEv::Offline),
        Just(PipeEv::Poll),
        Just(PipeEv::Poll),
        Just(PipeEv::Poll),
    ]
}

/// Every way of driving the one writer, as `(group, driver)`. Manual at
/// group 64 leaves publish timing entirely to the dialogue's
/// Seal/Step/FlushAll events; the inline groups and the flusher thread
/// also land buffers on their own schedule.
fn drivers() -> [(usize, FlushDriver); 4] {
    [
        (64, FlushDriver::Manual),
        (1, FlushDriver::Inline),
        (3, FlushDriver::Inline),
        (2, FlushDriver::Thread { coalescer: None }),
    ]
}

fn commit_stage(txn: u64, val: i64) -> StageRecord {
    StageRecord {
        txn: TxnId(txn),
        stage: 0,
        total: 1,
        flags: StageFlags(StageFlags::COMMIT_POINT | StageFlags::FINAL),
        reads: vec![],
        writes: vec!["k".into()],
        images: vec![croesus::wal::WriteImage {
            key: "k".into(),
            pre: None,
            post: Some(Arc::new(croesus::store::Value::Int(val))),
        }],
    }
}

/// The store a writer's checkpoints snapshot: replay's own fold of every
/// commit the dialogue logs.
struct Folded {
    state: RecoveryState,
    store: Arc<KvStore>,
    txn: u64,
}

impl Folded {
    fn attached_to(wal: &Wal) -> Self {
        let store = Arc::new(KvStore::new());
        wal.attach_store(Arc::clone(&store));
        Folded {
            state: RecoveryState::new(),
            store,
            txn: 0,
        }
    }

    /// Fold the next transaction's commit into the store, then log it.
    fn commit(&mut self, wal: &Wal, val: i64) {
        self.txn += 1;
        let record = commit_stage(self.txn, val);
        let folded = WalRecord::Stage(record.clone());
        self.state.apply(folded, Some(&self.store));
        wal.append_stage(record).unwrap();
    }
}

/// The writer-side events of a dialogue through one driver: what ends up
/// durable and shipped after the final flush, and the counters that must
/// not depend on who lands the buffers (`syncs` does).
fn drive_writer(
    events: &[PipeEv],
    group: usize,
    driver: FlushDriver,
) -> (Vec<u8>, Vec<u8>, u64, WalStats) {
    let (wal, probe) = Wal::in_memory_with(WalConfig::group(group), driver);
    let shipper = Arc::new(LogShipper::new());
    wal.attach_shipper(Arc::clone(&shipper));
    let mut folded = Folded::attached_to(&wal);
    for ev in events {
        match ev {
            PipeEv::Commit(val) => folded.commit(&wal, *val),
            PipeEv::FlushAll => wal.flush().unwrap(),
            PipeEv::Checkpoint => wal.checkpoint().unwrap(),
            _ => {}
        }
    }
    wal.flush().unwrap();
    let stats = WalStats {
        syncs: 0,
        ..wal.stats()
    };
    (probe.durable(), shipper.image(), shipper.epoch(), stats)
}

proptest! {
    #[test]
    fn pipelined_publish_timing_holds_the_shipping_contract(
        events in prop::collection::vec(arb_pipe_event(), 1..40),
        pick in 0usize..4,
    ) {
        let (group, driver) = drivers()[pick].clone();
        // A flusher thread lands buffers concurrently with this thread's
        // reads: between its sync and its publish the device is ahead of
        // the shipper, so equality is only observable once it is idle.
        let threaded = matches!(driver, FlushDriver::Thread { .. });
        let (wal, probe): (Wal, MemStorage) =
            Wal::in_memory_with(WalConfig::group(group), driver);
        let shipper = Arc::new(LogShipper::new());
        wal.attach_shipper(Arc::clone(&shipper));
        let mut tailer = ReplicaTailer::new(Arc::clone(&shipper));
        let mut folded = Folded::attached_to(&wal);

        for ev in &events {
            match ev {
                PipeEv::Commit(val) => folded.commit(&wal, *val),
                PipeEv::Seal => wal.seal_active(),
                PipeEv::Step => { wal.flusher_step().unwrap(); }
                PipeEv::FlushAll => wal.flush().unwrap(),
                PipeEv::Checkpoint => wal.checkpoint().unwrap(),
                PipeEv::Corrupt => shipper.corrupt_next_fetch(),
                PipeEv::Offline(down) => shipper.set_offline(*down),
                PipeEv::Poll => {
                    let cursor_before = tailer.cursor();
                    let log_before = tailer.log().to_vec();
                    match tailer.poll() {
                        TailPoll::Rejected => {
                            // A damaged batch must be a pure no-op.
                            prop_assert_eq!(tailer.cursor(), cursor_before);
                            prop_assert_eq!(tailer.log(), log_before.as_slice());
                        }
                        TailPoll::Advanced { bytes, restarted } => {
                            let cursor = tailer.cursor();
                            if cursor.epoch != cursor_before.epoch {
                                // Epoch bump ⇒ full re-tail, never append.
                                prop_assert!(restarted, "cross-epoch batch must restart");
                            }
                            if restarted && !threaded {
                                prop_assert_eq!(tailer.log(), shipper.image().as_slice());
                            } else if !restarted {
                                prop_assert_eq!(cursor.epoch, cursor_before.epoch);
                                prop_assert!(tailer.log().starts_with(&log_before));
                                prop_assert_eq!(tailer.log().len(), log_before.len() + bytes);
                            }
                            prop_assert_eq!(cursor.offset, tailer.log().len());
                        }
                        TailPoll::Offline => prop_assert!(shipper.is_offline()),
                        TailPoll::UpToDate if threaded => {
                            prop_assert!(cursor_before.offset <= shipper.shipped_len());
                        }
                        TailPoll::UpToDate => {
                            prop_assert_eq!(cursor_before.offset, shipper.shipped_len());
                        }
                    }
                    prop_assert!(parses_cleanly(tailer.log()));
                }
            }
            // The structural core of the one writer: publication lives in
            // `step`'s post-sync section, so at every step of every
            // dialogue the shipped image IS the durable bytes — sealed
            // or in-flight buffers are never visible to the replica.
            // (Shipped is read first: the device can only be ahead.)
            let shipped = shipper.image();
            let durable = probe.durable();
            if threaded && !matches!(ev, PipeEv::FlushAll | PipeEv::Checkpoint) {
                prop_assert!(
                    durable.starts_with(&shipped),
                    "the flusher shipped bytes the device does not hold"
                );
            } else {
                prop_assert_eq!(
                    &shipped,
                    &durable,
                    "shipped image diverged from the durable device"
                );
            }
            // And the replica can lag but never run ahead of it.
            if tailer.cursor().epoch == shipper.epoch() {
                prop_assert!(tailer.cursor().offset <= shipped.len());
                prop_assert_eq!(tailer.log(), &shipped[..tailer.cursor().offset]);
            }
        }

        // Drain: pipeline flushed, uplink up, at most one damaged fetch
        // to shed — the replica must converge on the full durable image.
        wal.flush().unwrap();
        shipper.set_offline(false);
        for _ in 0..2 {
            match tailer.catch_up() {
                TailPoll::UpToDate => break,
                TailPoll::Rejected => continue,
                other => prop_assert!(false, "unexpected drain outcome: {other:?}"),
            }
        }
        prop_assert_eq!(tailer.log(), probe.durable().as_slice());
        prop_assert_eq!(tailer.cursor().epoch, shipper.epoch());
    }

    // One writer: the same record / flush / checkpoint sequence leaves
    // the same durable log, the same shipped image and epoch and the same
    // counters whichever driver landed the buffers. Only the number of
    // syncs it took is the driver's own.
    #[test]
    fn every_driver_lands_the_same_log(
        events in prop::collection::vec(arb_pipe_event(), 1..40),
    ) {
        let [(group, manual), others @ ..] = drivers();
        let reference = drive_writer(&events, group, manual);
        prop_assert_eq!(&reference.0, &reference.1, "shipped == durable after flush");
        for (group, driver) in others {
            let got = drive_writer(&events, group, driver);
            prop_assert_eq!(&got, &reference, "group {}", group);
        }
    }
}
