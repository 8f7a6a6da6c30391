//! Crash-at-every-record-boundary property tests for the durability
//! subsystem.
//!
//! Strategy: drive a randomized interleaved multi-stage workload through a
//! real protocol executor with an in-memory WAL, take the full log byte
//! stream, then *crash at every frame boundary* — truncate the log there,
//! recover, and check the rebuilt store against an independent oracle that
//! interprets the same record prefix naively. Mid-frame cuts (torn writes)
//! must recover exactly like the last whole-frame boundary before them.
//!
//! The oracle is deliberately dumb: a `BTreeMap` fed record-by-record,
//! sharing no code with `croesus_wal::recover`'s state machine.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;

use croesus::store::{KvStore, LockManager, TxnId, Value};
use croesus::txn::{
    recovery::recover_edge, ExecutorCore, MultiStageProtocolExt, ProtocolKind, RwSet,
};
use croesus::wal::{recover, FlushDriver, FrameReader, MemStorage, Wal, WalConfig, WalRecord};

/// SplitMix64 — the test's own deterministic stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// The prefix-interpreting oracle: applies decoded records to a plain map.
#[derive(Default, Clone)]
struct Oracle {
    store: BTreeMap<String, Value>,
    pending: BTreeMap<u64, Vec<(String, Option<Value>)>>, // txn → buffered (key, post)
    initial: BTreeSet<u64>,
    finalized: BTreeSet<u64>,
    live_entries: BTreeMap<u64, usize>, // txn → registered, unretracted entries
}

impl Oracle {
    fn apply(&mut self, record: &WalRecord) {
        match record {
            WalRecord::Stage(s) => {
                let pending = self.pending.entry(s.txn.0).or_default();
                for w in &s.images {
                    pending.push((w.key.as_str().to_string(), w.post.as_deref().cloned()));
                }
                if s.flags.commit_point() {
                    for (key, post) in std::mem::take(pending) {
                        match post {
                            Some(v) => {
                                self.store.insert(key, v);
                            }
                            None => {
                                self.store.remove(&key);
                            }
                        }
                    }
                    self.initial.insert(s.txn.0);
                    if s.flags.register() {
                        *self.live_entries.entry(s.txn.0).or_default() += 1;
                    }
                    if s.flags.is_final() {
                        self.finalized.insert(s.txn.0);
                    }
                }
            }
            WalRecord::Retract(r) => {
                for (key, value) in &r.restores {
                    match value {
                        Some(v) => {
                            self.store.insert(key.as_str().to_string(), (**v).clone());
                        }
                        None => {
                            self.store.remove(key.as_str());
                        }
                    }
                }
                self.live_entries.remove(&r.txn.0);
            }
            WalRecord::TpcDecision { .. }
            | WalRecord::TpcEnd { .. }
            | WalRecord::Checkpoint(_)
            | WalRecord::Settle => {
                unreachable!("this workload emits none of these")
            }
        }
    }

    fn expected_unfinalized(&self) -> BTreeSet<u64> {
        self.initial
            .iter()
            .filter(|t| {
                !self.finalized.contains(t) && self.live_entries.get(t).copied().unwrap_or(0) > 0
            })
            .copied()
            .collect()
    }
}

fn snapshot_of(store: &KvStore) -> BTreeMap<String, Value> {
    store
        .snapshot()
        .into_iter()
        .map(|(k, v)| (k.as_str().to_string(), (*v.value).clone()))
        .collect()
}

/// Drive a seeded interleaved workload; return the full log bytes.
fn run_workload(seed: u64, kind: ProtocolKind) -> Vec<u8> {
    let mut rng = Rng(seed);
    let group = match rng.below(3) {
        0 => WalConfig::strict(),
        1 => WalConfig::group(3),
        _ => WalConfig::group(64),
    };
    let (wal, probe): (Wal, MemStorage) = Wal::in_memory(group);
    let wal = Arc::new(wal);
    let core = ExecutorCore::new(
        Arc::new(KvStore::new()),
        Arc::new(LockManager::new(kind.default_lock_policy())),
    )
    .with_wal(Arc::clone(&wal));
    let protocol = kind.build(core);

    let n_txns = 6 + rng.below(6);
    // MS-SR holds every declared lock across its pending window, so give
    // it disjoint per-txn keys (the paper's hot-spot aborts are measured
    // elsewhere); the releasing protocols share a small pool → cascades.
    let key_for = |rng: &mut Rng, txn: u64| -> String {
        if kind == ProtocolKind::MsSr {
            format!("t{txn}/{}", rng.below(2))
        } else {
            format!("k/{}", rng.below(5))
        }
    };

    struct Active {
        handle: croesus::txn::TxnHandle,
        final_rw: RwSet,
        retract: bool,
    }
    let mut active: Vec<Active> = Vec::new();
    let mut started = 0u64;
    while started < n_txns || !active.is_empty() {
        let start_new = started < n_txns && (active.is_empty() || rng.chance(55));
        if start_new {
            let txn = TxnId(started);
            let k0 = key_for(&mut rng, started);
            let k1 = key_for(&mut rng, started);
            let initial_rw = RwSet::new().write(k0.as_str()).write(k1.as_str());
            let kf = key_for(&mut rng, started);
            let final_rw = if rng.chance(70) {
                RwSet::new().write(kf.as_str())
            } else {
                RwSet::new()
            };
            let v = rng.below(1000) as i64;
            let handle = protocol.begin(txn, &[initial_rw.clone(), final_rw.clone()]);
            let (_, next) = protocol
                .stage(handle, &initial_rw, |ctx| {
                    ctx.write(k0.as_str(), v)?;
                    ctx.write(k1.as_str(), v + 1)?;
                    Ok(())
                })
                .expect("sequential initial stages cannot conflict");
            let retract = kind != ProtocolKind::MsSr && rng.chance(25);
            active.push(Active {
                handle: next.expect("two stages declared"),
                final_rw,
                retract,
            });
            started += 1;
        } else {
            let idx = rng.below(active.len() as u64) as usize;
            let a = active.remove(idx);
            let v = rng.below(1000) as i64;
            protocol
                .stage(a.handle, &a.final_rw, |ctx| {
                    if a.retract {
                        ctx.retract_self("guessed wrong");
                    }
                    if let Some(k) = a.final_rw.writes.first().cloned() {
                        ctx.write(k, v)?;
                    }
                    Ok(())
                })
                .expect("final stages cannot abort");
        }
    }
    // No flush: `epoch_bytes` is the every-byte-made-it view (durable,
    // then whatever still sits in the writer's buffers); the boundary
    // sweep below is the crash simulation.
    wal.epoch_bytes(&probe)
}

fn check_every_boundary(log: &[u8]) {
    // Frame boundaries + per-frame oracle snapshots.
    let mut boundaries = vec![0usize];
    {
        let mut reader = FrameReader::new(log);
        while reader.next().is_some() {
            boundaries.push(reader.offset());
        }
        assert_eq!(
            *boundaries.last().unwrap(),
            log.len(),
            "the workload's own log must parse completely"
        );
    }
    let mut oracle = Oracle::default();
    let mut oracle_at: Vec<Oracle> = vec![oracle.clone()];
    {
        let reader = FrameReader::new(log);
        for payload in reader {
            oracle.apply(&WalRecord::decode(payload).expect("valid payload"));
            oracle_at.push(oracle.clone());
        }
    }

    for (frames, &cut) in boundaries.iter().enumerate() {
        let report = recover(&log[..cut]);
        assert_eq!(report.frames, frames, "cut at byte {cut}");
        assert!(!report.torn_tail, "boundary cuts are clean");
        let expected = &oracle_at[frames];
        assert_eq!(
            snapshot_of(&report.store),
            expected.store,
            "store mismatch after {frames} frames (cut at byte {cut})"
        );
        let unfinalized: BTreeSet<u64> = report.unfinalized.iter().map(|t| t.0).collect();
        assert_eq!(
            unfinalized,
            expected.expected_unfinalized(),
            "unfinalized mismatch after {frames} frames"
        );

        // Apology-aware recovery on the same prefix: every unfinalized
        // transaction ends up retracted (not live) and apologized for.
        let rec = recover_edge(&log[..cut]);
        for txn in &report.unfinalized {
            assert!(
                !rec.apologies.is_live(*txn),
                "unfinalized {txn} must be retracted during recovery"
            );
        }
        let apologized: BTreeSet<u64> = rec.apologies_owed().iter().map(|a| a.txn.0).collect();
        for txn in &unfinalized {
            assert!(
                apologized.contains(txn),
                "txn {txn} owes its users an apology"
            );
        }
    }
}

/// What one pipelined run observed, for the crash sweeps below.
struct PipelinedRun {
    /// The fully drained log (every appended byte landed durably).
    log: Vec<u8>,
    /// `(durable image, last_flushed_lsn)` at every post-sync boundary
    /// the interleaved flusher reached mid-run.
    flush_points: Vec<(Vec<u8>, u64)>,
    /// `latest_lsn` at every explicit buffer seal (the seal boundaries).
    seal_points: Vec<u64>,
    /// `(requested LSN, boundary at return)` for every mid-run
    /// `flush_lsn` ack.
    acks: Vec<(u64, u64)>,
}

/// Drive the seeded workload through the *pipelined* writer in manual
/// mode, interleaving buffer seals and flusher steps at seeded points —
/// a single-threaded schedule of the appender/flusher race (the
/// exhaustive multi-threaded version lives in the `wal_pipeline` mcheck
/// scenario; this sweep trades exhaustiveness for real executor
/// workloads and per-byte crash cuts).
fn run_workload_pipelined(seed: u64, kind: ProtocolKind) -> PipelinedRun {
    let mut rng = Rng(seed ^ 0xD1CE);
    let group = WalConfig::group([1, 2, 3][rng.below(3) as usize]);
    let (wal, probe) = Wal::in_memory_with(group, FlushDriver::Manual);
    let wal = Arc::new(wal);
    let core = ExecutorCore::new(
        Arc::new(KvStore::new()),
        Arc::new(LockManager::new(kind.default_lock_policy())),
    )
    .with_wal(Arc::clone(&wal));
    let protocol = kind.build(core);

    let mut run = PipelinedRun {
        log: Vec::new(),
        flush_points: Vec::new(),
        seal_points: Vec::new(),
        acks: Vec::new(),
    };
    // The seeded appender/flusher interleaving: after every protocol op,
    // maybe seal the active buffer, pump the flusher, or wait on an ack.
    let pump = |rng: &mut Rng, run: &mut PipelinedRun| {
        for _ in 0..rng.below(3) {
            match rng.below(4) {
                0 => {
                    wal.seal_active();
                    run.seal_points.push(wal.latest_lsn());
                }
                1 | 2 => {
                    if wal.flusher_step().expect("in-memory pipeline io") {
                        let image = probe.durable();
                        let lsn = wal.last_flushed_lsn();
                        run.flush_points.push((image, lsn));
                    }
                }
                _ => {
                    let lsn = wal.latest_lsn();
                    wal.flush_lsn(lsn).expect("in-memory pipeline io");
                    run.acks.push((lsn, wal.last_flushed_lsn()));
                }
            }
        }
    };

    let n_txns = 6 + rng.below(6);
    let key_for = |rng: &mut Rng, txn: u64| -> String {
        if kind == ProtocolKind::MsSr {
            format!("t{txn}/{}", rng.below(2))
        } else {
            format!("k/{}", rng.below(5))
        }
    };
    struct Active {
        handle: croesus::txn::TxnHandle,
        final_rw: RwSet,
        retract: bool,
    }
    let mut active: Vec<Active> = Vec::new();
    let mut started = 0u64;
    while started < n_txns || !active.is_empty() {
        let start_new = started < n_txns && (active.is_empty() || rng.chance(55));
        if start_new {
            let txn = TxnId(started);
            let k0 = key_for(&mut rng, started);
            let k1 = key_for(&mut rng, started);
            let initial_rw = RwSet::new().write(k0.as_str()).write(k1.as_str());
            let kf = key_for(&mut rng, started);
            let final_rw = if rng.chance(70) {
                RwSet::new().write(kf.as_str())
            } else {
                RwSet::new()
            };
            let v = rng.below(1000) as i64;
            let handle = protocol.begin(txn, &[initial_rw.clone(), final_rw.clone()]);
            let (_, next) = protocol
                .stage(handle, &initial_rw, |ctx| {
                    ctx.write(k0.as_str(), v)?;
                    ctx.write(k1.as_str(), v + 1)?;
                    Ok(())
                })
                .expect("sequential initial stages cannot conflict");
            let retract = kind != ProtocolKind::MsSr && rng.chance(25);
            active.push(Active {
                handle: next.expect("two stages declared"),
                final_rw,
                retract,
            });
            started += 1;
        } else {
            let idx = rng.below(active.len() as u64) as usize;
            let a = active.remove(idx);
            let v = rng.below(1000) as i64;
            protocol
                .stage(a.handle, &a.final_rw, |ctx| {
                    if a.retract {
                        ctx.retract_self("guessed wrong");
                    }
                    if let Some(k) = a.final_rw.writes.first().cloned() {
                        ctx.write(k, v)?;
                    }
                    Ok(())
                })
                .expect("final stages cannot abort");
        }
        pump(&mut rng, &mut run);
    }
    // Drain the pipeline: the final log is every appended byte.
    wal.flush().expect("in-memory pipeline io");
    run.log = wal.epoch_bytes(&probe);
    assert_eq!(
        probe.durable(),
        run.log,
        "a drained pipeline leaves nothing unsynced"
    );
    assert_eq!(wal.last_flushed_lsn(), wal.latest_lsn());
    run
}

/// The pipelined durability contract, checked against one seeded run:
/// every mid-run durable image is a prefix of the final log ending at
/// `last_flushed_lsn`; seal and flush boundaries are clean frame cuts;
/// acks never return below their requested LSN; and the full per-frame
/// crash sweep matches the oracle.
fn check_pipelined_run(run: &PipelinedRun) {
    check_every_boundary(&run.log);
    for (image, lsn) in &run.flush_points {
        prop_assert_eq!(
            image.len() as u64,
            *lsn,
            "with no checkpoint an LSN is a global byte offset"
        );
        prop_assert!(
            run.log.starts_with(image),
            "a durable image must be a prefix of the final log — \
             anything acked at LSN {} survives every cut at or past it",
            lsn
        );
        let report = recover(image);
        prop_assert!(!report.torn_tail, "post-sync boundaries are clean cuts");
    }
    for lsn in &run.seal_points {
        let report = recover(&run.log[..*lsn as usize]);
        prop_assert!(!report.torn_tail, "seal boundaries are clean cuts");
    }
    for (requested, at_ack) in &run.acks {
        prop_assert!(
            at_ack >= requested,
            "flush_lsn({}) returned at boundary {}",
            requested,
            at_ack
        );
    }
}

proptest! {
    #[test]
    fn crash_at_every_record_boundary_is_prefix_consistent_ms_ia(seed in any::<u64>()) {
        check_every_boundary(&run_workload(seed, ProtocolKind::MsIa));
    }

    #[test]
    fn crash_at_every_record_boundary_is_prefix_consistent_staged(seed in any::<u64>()) {
        check_every_boundary(&run_workload(seed, ProtocolKind::Staged));
    }

    #[test]
    fn crash_at_every_record_boundary_is_prefix_consistent_ms_sr(seed in any::<u64>()) {
        check_every_boundary(&run_workload(seed, ProtocolKind::MsSr));
    }

    #[test]
    fn torn_mid_frame_cuts_recover_like_the_preceding_boundary(seed in any::<u64>()) {
        let log = run_workload(seed, ProtocolKind::MsIa);
        let mut boundaries = vec![0usize];
        let mut reader = FrameReader::new(&log);
        while reader.next().is_some() {
            boundaries.push(reader.offset());
        }
        // Sample torn cuts inside frames; each must recover exactly the
        // state of the last whole frame before the tear.
        let mut cut = 1usize;
        while cut < log.len() {
            if !boundaries.contains(&cut) {
                let torn = recover(&log[..cut]);
                prop_assert!(torn.torn_tail);
                let base = *boundaries.iter().take_while(|&&b| b < cut).last().unwrap();
                let clean = recover(&log[..base]);
                prop_assert_eq!(
                    snapshot_of(&torn.store),
                    snapshot_of(&clean.store),
                    "torn cut at {} must equal boundary at {}",
                    cut,
                    base
                );
                prop_assert_eq!(&torn.unfinalized, &clean.unfinalized);
            }
            cut += 7; // sample; exhaustive per-byte would be slow × 64 cases
        }
    }

    #[test]
    fn pipelined_crash_sweep_matches_oracle_ms_ia(seed in any::<u64>()) {
        check_pipelined_run(&run_workload_pipelined(seed, ProtocolKind::MsIa));
    }

    #[test]
    fn pipelined_crash_sweep_matches_oracle_staged(seed in any::<u64>()) {
        check_pipelined_run(&run_workload_pipelined(seed, ProtocolKind::Staged));
    }

    #[test]
    fn pipelined_torn_cuts_inside_the_inflight_buffer_recover_to_the_boundary(seed in any::<u64>()) {
        // Cuts *between* a flush boundary and the next — bytes that were
        // in flight inside the pipeline — behave exactly like torn tails:
        // recovery lands on the last whole frame at or before the cut.
        let run = run_workload_pipelined(seed, ProtocolKind::MsIa);
        let log = &run.log;
        let mut boundaries = vec![0usize];
        let mut reader = FrameReader::new(log);
        while reader.next().is_some() {
            boundaries.push(reader.offset());
        }
        let mut cut = 1usize;
        while cut < log.len() {
            if !boundaries.contains(&cut) {
                let torn = recover(&log[..cut]);
                prop_assert!(torn.torn_tail);
                let base = *boundaries.iter().take_while(|&&b| b < cut).last().unwrap();
                let clean = recover(&log[..base]);
                prop_assert_eq!(
                    snapshot_of(&torn.store),
                    snapshot_of(&clean.store),
                    "torn cut at {} must equal boundary at {}",
                    cut,
                    base
                );
                prop_assert_eq!(&torn.unfinalized, &clean.unfinalized);
            }
            cut += 11; // sample; exhaustive per-byte would be slow × 64 cases
        }
    }

    #[test]
    fn corrupted_byte_never_panics_recovery(seed in any::<u64>(), flip in any::<u64>()) {
        let mut log = run_workload(seed, ProtocolKind::Staged);
        prop_assert!(!log.is_empty(), "every workload logs at least one stage");
        let pos = (flip % log.len() as u64) as usize;
        log[pos] ^= 0x5A;
        // Recovery must stop cleanly at some prefix, never panic.
        let report = recover(&log);
        prop_assert!(report.bytes_replayed <= log.len() as u64);
    }
}

/// Deterministic end-to-end: a two-transaction dependency chain crashed
/// between the dependent's final commit and the guesser's — recovery must
/// cascade the retraction through the *finalized* dependent.
#[test]
fn crash_mid_chain_cascades_through_finalized_dependents() {
    let (wal, probe) = Wal::in_memory(WalConfig::strict());
    let core = ExecutorCore::new(
        Arc::new(KvStore::new()),
        Arc::new(LockManager::new(ProtocolKind::MsIa.default_lock_policy())),
    )
    .with_wal(Arc::new(wal));
    let p = ProtocolKind::MsIa.build(core);

    let rw1 = RwSet::new().write("b");
    let h1 = p.begin(TxnId(1), &[rw1.clone(), RwSet::new()]);
    let (_, _h1) = p.stage(h1, &rw1, |ctx| ctx.write("b", 50)).unwrap();
    let rw2 = RwSet::new().read("b").write("c");
    let h2 = p.begin(TxnId(2), &[rw2.clone(), RwSet::new()]);
    let (_, h2) = p
        .stage(h2, &rw2, |ctx| {
            let b = ctx.read("b")?.and_then(|v| v.as_int()).unwrap_or(0);
            ctx.write("c", b * 2)
        })
        .unwrap();
    p.stage(h2.unwrap(), &RwSet::new(), |_| Ok(())).unwrap();
    // t2 finalized; t1 never did. Crash.

    let rec = recover_edge(&probe.durable());
    assert_eq!(rec.unfinalized, vec![TxnId(1)]);
    assert_eq!(rec.retractions.len(), 1);
    assert_eq!(rec.retractions[0].retracted, vec![TxnId(2), TxnId(1)]);
    assert!(!rec.store.contains(&"b".into()));
    assert!(!rec.store.contains(&"c".into()));
    assert_eq!(rec.apologies_owed().len(), 2, "both users get apologies");
}

/// LSNs are global under every flush driver: strictly increasing across
/// checkpoints, so the high-water mark a core acked its commit points at
/// stays comparable with the writer's durable boundary. (Epoch-relative
/// LSNs restart at every checkpoint: this workload then acks up to 1069
/// against a final boundary of 565.)
#[test]
fn lsns_increase_across_checkpoints_and_acks_stay_below_the_boundary() {
    let thread = FlushDriver::Thread { coalescer: None };
    for (group, driver) in [
        (1, FlushDriver::Inline),
        (4, FlushDriver::Inline),
        (4, thread),
    ] {
        let config = WalConfig {
            group_commit: group,
            checkpoint_every: 16,
        };
        let (wal, _probe) = Wal::in_memory_with(config, driver);
        let wal = Arc::new(wal);
        let core = ExecutorCore::new(
            Arc::new(KvStore::new()),
            Arc::new(LockManager::new(ProtocolKind::MsIa.default_lock_policy())),
        )
        .with_wal(Arc::clone(&wal));
        let p = ProtocolKind::MsIa.build(core);

        let rw = RwSet::new().write("k");
        let mut last_lsn = 0;
        for txn in 0..20u64 {
            let h = p.begin(TxnId(txn), &[rw.clone(), rw.clone()]);
            let (_, h) = p.stage(h, &rw, |ctx| ctx.write("k", txn as i64)).unwrap();
            assert!(wal.latest_lsn() > last_lsn, "group {group}, txn {txn}");
            last_lsn = wal.latest_lsn();
            p.stage(h.unwrap(), &rw, |ctx| ctx.write("k", -(txn as i64)))
                .unwrap();
            assert!(wal.latest_lsn() > last_lsn, "group {group}, txn {txn}");
            last_lsn = wal.latest_lsn();
            assert_eq!(p.core().acked_lsn(), last_lsn, "every stage is a commit");
        }
        assert_eq!(wal.stats().checkpoints, 2, "40 commits, one per 16");
        wal.flush().unwrap();
        assert_eq!(wal.last_flushed_lsn(), wal.latest_lsn());
        assert!(p.core().acked_lsn() <= wal.last_flushed_lsn());
    }
}
