//! Golden pins for the inline durability modes.
//!
//! `DurabilityMode::GroupCommit` — at group 1 (strict) and above — must
//! stay *byte-identical* with the synchronous writer it was first
//! implemented by: same `WalStats`, same durable bytes, same shipped
//! image, same checkpoint/truncation behaviour. These tests drive a fixed workload
//! through the writer and pin everything to values captured on that
//! writer — any drift in what the inline flush driver lands, syncs or
//! ships fails loudly here, independent of the behavioural test suites.

use std::sync::Arc;

use croesus_store::{Key, KvStore, TxnId, Value};
use croesus_wal::{
    crc32, LogShipper, RecoveryState, RetractRecord, StageFlags, StageRecord, Wal, WalConfig,
    WalRecord, WalStats, WriteImage,
};

const CP: u8 = StageFlags::COMMIT_POINT;
const FIN: u8 = StageFlags::FINAL;
const REG: u8 = StageFlags::REGISTER;

fn stage(txn: u64, idx: u32, flags: u8, key: &str, post: i64) -> StageRecord {
    StageRecord {
        txn: TxnId(txn),
        stage: idx,
        total: 2,
        flags: StageFlags(flags),
        reads: vec![Key::new("r")],
        writes: vec![Key::new(key)],
        images: vec![WriteImage {
            key: Key::new(key),
            pre: None,
            post: Some(Arc::new(Value::Int(post))),
        }],
    }
}

/// The fixed workload: every writer entry point, deterministic records.
fn drive(wal: &Wal) {
    for i in 0..10u64 {
        wal.append_stage(stage(i, 0, CP | REG, &format!("k{}", i % 3), i as i64))
            .unwrap();
    }
    // A non-commit mid-flight record (MS-SR early stage).
    wal.append_stage(stage(50, 0, 0, "held", 5)).unwrap();
    for i in 0..10u64 {
        wal.append_stage(stage(i, 1, CP | FIN, &format!("k{}", i % 3), -(i as i64)))
            .unwrap();
    }
    wal.append_retracts(vec![
        RetractRecord {
            txn: TxnId(3),
            stage: 0,
            restores: vec![(Key::new("k0"), Some(Arc::new(Value::Int(7))))],
        },
        RetractRecord {
            txn: TxnId(3),
            stage: 0,
            restores: vec![(Key::new("k1"), None)],
        },
    ])
    .unwrap();
    wal.append_tpc_decision(TxnId(100), true).unwrap();
    wal.append_tpc_end(TxnId(100)).unwrap();
    wal.append_settle().unwrap();
    wal.flush().unwrap();
}

/// What the pins capture for one run.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    stats: WalStats,
    durable_len: usize,
    durable_crc: u32,
    shipped_len: usize,
    shipped_crc: u32,
    ship_epoch: u64,
    log_len: u64,
}

fn run(config: WalConfig, checkpoint_midway: bool) -> Fingerprint {
    let (wal, probe) = Wal::in_memory(config);
    let shipper = Arc::new(LogShipper::new());
    wal.attach_shipper(Arc::clone(&shipper));
    if checkpoint_midway {
        // The store the checkpoint snapshots: replay's own fold of the
        // records logged before it.
        let (mut state, store) = (RecoveryState::new(), Arc::new(KvStore::new()));
        wal.attach_store(Arc::clone(&store));
        for i in 0..4u64 {
            let record = stage(i, 0, CP | FIN, "c", i as i64);
            state.apply(WalRecord::Stage(record.clone()), Some(&store));
            wal.append_stage(record).unwrap();
        }
        wal.checkpoint().unwrap();
    }
    drive(&wal);
    let durable = probe.durable();
    let shipped = shipper.image();
    Fingerprint {
        stats: wal.stats(),
        durable_len: durable.len(),
        durable_crc: crc32(&durable),
        shipped_len: shipped.len(),
        shipped_crc: crc32(&shipped),
        ship_epoch: shipper.epoch(),
        log_len: wal.log_len(),
    }
}

#[test]
fn strict_mode_is_pinned_to_the_pre_pipeline_writer() {
    let got = run(WalConfig::strict(), false);
    assert_eq!(
        got,
        Fingerprint {
            stats: WalStats {
                records: 26,
                commit_points: 20,
                syncs: 22,
                checkpoints: 0,
                bytes_appended: 1507,
            },
            durable_len: 1507,
            durable_crc: 1_505_187_504,
            shipped_len: 1507,
            shipped_crc: 1_505_187_504,
            ship_epoch: 0,
            log_len: 1507,
        }
    );
}

#[test]
fn group_commit_mode_is_pinned_to_the_pre_pipeline_writer() {
    let got = run(WalConfig::group(4), false);
    assert_eq!(
        got,
        Fingerprint {
            stats: WalStats {
                records: 26,
                commit_points: 20,
                syncs: 7,
                checkpoints: 0,
                bytes_appended: 1507,
            },
            durable_len: 1507,
            durable_crc: 1_505_187_504,
            shipped_len: 1507,
            shipped_crc: 1_505_187_504,
            ship_epoch: 0,
            log_len: 1507,
        }
    );
}

#[test]
fn checkpointed_group_commit_is_pinned_to_the_pre_pipeline_writer() {
    let got = run(WalConfig::group(4), true);
    assert_eq!(
        got,
        Fingerprint {
            stats: WalStats {
                records: 30,
                commit_points: 24,
                syncs: 9,
                checkpoints: 1,
                bytes_appended: 1763,
            },
            durable_len: 1566,
            durable_crc: 584_492_780,
            shipped_len: 1566,
            shipped_crc: 584_492_780,
            ship_epoch: 1,
            log_len: 1566,
        }
    );
}
