//! Crash-at-every-record-boundary property tests for the durability
//! subsystem, on seeded workloads through the real executors.
//!
//! One generator drives a randomized interleaved multi-stage workload
//! through a protocol executor with an in-memory WAL: under the inline
//! writer, with and without checkpoints, and under the pipelined writer in
//! manual mode with seeded seals and flusher steps between stages. Each
//! full log is then crashed at every frame boundary by
//! `croesus_mcheck::sweep` — the one crash-boundary oracle, which the
//! model checker also runs on every explored schedule: recover the
//! prefix raw and apology-aware, compare it with a record-interpreting
//! oracle that shares no code with `croesus_wal::recover`, and require
//! every unfinalized transaction to be retracted and apologized for.
//! Mid-frame cuts (torn writes) must recover exactly like the last
//! whole-frame boundary before them. Two deterministic tests pin a
//! cascade through a finalized dependent and global LSNs across
//! checkpoints.

use std::sync::Arc;

use proptest::prelude::*;

use croesus::store::{KvStore, LockManager, TxnId};
use croesus::txn::{
    recovery::recover_edge, Executor, ExecutorCore, ProtocolKind, RwSet, TxnHandle,
};
use croesus::wal::{recover, FlushDriver, FrameReader, MemStorage, Wal, WalConfig, WalRecord};
use croesus_mcheck::sweep;

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

/// A protocol of `kind` on a fresh store, logging to `wal`.
fn protocol_on(kind: ProtocolKind, wal: &Arc<Wal>) -> Executor {
    kind.build(
        ExecutorCore::new(
            Arc::new(KvStore::new()),
            Arc::new(LockManager::new(kind.default_lock_policy())),
        )
        .with_wal(Arc::clone(wal)),
    )
}

/// Between two operations no stage is in flight: the harness's quiescent
/// point, where the writer checkpoints the live store when one is due.
fn quiescent(protocol: &Executor) {
    if let Some(wal) = protocol.core().wal() {
        wal.maybe_checkpoint().expect("in-memory checkpoint");
    }
}

/// Drive a seeded interleaved workload of `stages`-stage transactions (2
/// or 3) through `protocol`, calling `step` after every stage the loop
/// runs, once the writer has had its checkpoint there. A third stage sits
/// between the initial and the final one: it reads one key and writes
/// another, so a later retraction can cascade into it and leave the
/// transaction's initial stage live.
fn drive(
    rng: &mut Rng,
    kind: ProtocolKind,
    stages: u32,
    protocol: &Executor,
    mut step: impl FnMut(&mut Rng),
) {
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
        handle: TxnHandle,
        middle_rw: Option<RwSet>,
        final_rw: RwSet,
        retract: bool,
    }
    let mut active: Vec<Active> = Vec::new();
    let mut started = 0u64;
    while started < n_txns || !active.is_empty() {
        let start_new = started < n_txns && (active.is_empty() || rng.chance(55));
        if start_new {
            let txn = TxnId(started);
            let k0 = key_for(rng, started);
            let k1 = key_for(rng, started);
            let initial_rw = RwSet::new().write(k0.as_str()).write(k1.as_str());
            let kf = key_for(rng, started);
            let final_rw = if rng.chance(70) {
                RwSet::new().write(kf.as_str())
            } else {
                RwSet::new()
            };
            let v = rng.below(1000) as i64;
            let middle_rw = (stages == 3).then(|| {
                let read = key_for(rng, started);
                RwSet::new()
                    .read(read.as_str())
                    .write(key_for(rng, started).as_str())
            });
            let mut declared = vec![initial_rw.clone()];
            declared.extend(middle_rw.clone());
            declared.push(final_rw.clone());
            let handle = protocol.begin(txn, &declared);
            let (_, next) = protocol
                .stage(handle, &initial_rw, |ctx| {
                    ctx.write(k0.as_str(), v)?;
                    ctx.write(k1.as_str(), v + 1)?;
                    Ok(())
                })
                .expect("sequential initial stages cannot conflict");
            let retract = kind != ProtocolKind::MsSr && rng.chance(25);
            active.push(Active {
                handle: next.expect("at least two stages declared"),
                middle_rw,
                final_rw,
                retract,
            });
            started += 1;
        } else {
            let idx = rng.below(active.len() as u64) as usize;
            let mut a = active.remove(idx);
            if let Some(rw) = a.middle_rw.take() {
                let (read, write) = (rw.reads[0].clone(), rw.writes[0].clone());
                let (_, next) = protocol
                    .stage(a.handle, &rw, |ctx| {
                        let seen = ctx.read(read.clone())?.and_then(|v| v.as_int());
                        ctx.write(write.clone(), seen.unwrap_or(0) + 1)
                    })
                    .expect("middle stages cannot abort");
                a.handle = next.expect("the final stage follows");
                active.push(a);
                quiescent(protocol);
                step(rng);
                continue;
            }
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
        quiescent(protocol);
        step(rng);
    }
}

/// Drive the seeded workload of `stages`-stage transactions through the
/// inline writer (strict, or group commit of 3 or 64) checkpointing every
/// `checkpoint_every` commit points (0 = never); return the full log
/// bytes.
fn run_workload(seed: u64, kind: ProtocolKind, stages: u32, checkpoint_every: u64) -> Vec<u8> {
    let mut rng = Rng(seed);
    let config = WalConfig {
        group_commit: [1, 3, 64][rng.below(3) as usize],
        checkpoint_every,
    };
    let (wal, probe): (Wal, MemStorage) = Wal::in_memory(config);
    let wal = Arc::new(wal);
    drive(&mut rng, kind, stages, &protocol_on(kind, &wal), |_| {});
    // No flush: `epoch_bytes` is the every-byte-made-it view (durable,
    // then whatever still sits in the writer's buffers); the boundary
    // sweep is the crash simulation.
    wal.epoch_bytes(&probe)
}

/// Torn cuts sampled every `stride` bytes inside `log`'s frames: each
/// must recover exactly the state of the last whole frame before the tear.
fn check_torn_cuts(log: &[u8], stride: usize) {
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
                torn.store.snapshot(),
                clean.store.snapshot(),
                "torn cut at {} must equal boundary at {}",
                cut,
                base
            );
            prop_assert_eq!(&torn.unfinalized, &clean.unfinalized);
        }
        cut += stride; // sample; exhaustive per-byte would be slow × 64 cases
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
    let mut run = PipelinedRun {
        log: Vec::new(),
        flush_points: Vec::new(),
        seal_points: Vec::new(),
        acks: Vec::new(),
    };
    // The seeded appender/flusher interleaving: after every protocol op,
    // maybe seal the active buffer, pump the flusher, or wait on an ack.
    drive(&mut rng, kind, 2, &protocol_on(kind, &wal), |rng| {
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
    });
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
    sweep(&run.log, |_| Ok(())).unwrap();
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

/// The checkpointed workload's log: at least 6 commit points against a
/// floor of 4, so it always begins with a checkpoint.
fn run_checkpointed(seed: u64, kind: ProtocolKind, stages: u32) -> Vec<u8> {
    let log = run_workload(seed, kind, stages, 4);
    let first = FrameReader::new(&log).next().expect("a non-empty log");
    assert!(
        matches!(WalRecord::decode(first), Ok(WalRecord::Checkpoint(_))),
        "the log must begin with a checkpoint"
    );
    log
}

proptest! {
    #[test]
    fn crash_at_every_record_boundary_is_prefix_consistent_ms_ia(seed in any::<u64>()) {
        sweep(&run_workload(seed, ProtocolKind::MsIa, 2, 0), |_| Ok(())).unwrap();
    }

    #[test]
    fn crash_at_every_record_boundary_is_prefix_consistent_staged(seed in any::<u64>()) {
        sweep(&run_workload(seed, ProtocolKind::Staged, 2, 0), |_| Ok(())).unwrap();
    }

    #[test]
    fn crash_at_every_record_boundary_is_prefix_consistent_ms_sr(seed in any::<u64>()) {
        sweep(&run_workload(seed, ProtocolKind::MsSr, 2, 0), |_| Ok(())).unwrap();
    }

    #[test]
    fn checkpointed_crash_sweep_matches_oracle_ms_ia(seed in any::<u64>()) {
        sweep(&run_checkpointed(seed, ProtocolKind::MsIa, 2), |_| Ok(())).unwrap();
    }

    #[test]
    fn checkpointed_crash_sweep_matches_oracle_staged(seed in any::<u64>()) {
        sweep(&run_checkpointed(seed, ProtocolKind::Staged, 2), |_| Ok(())).unwrap();
    }

    #[test]
    fn checkpointed_crash_sweep_matches_oracle_ms_sr(seed in any::<u64>()) {
        sweep(&run_checkpointed(seed, ProtocolKind::MsSr, 2), |_| Ok(())).unwrap();
    }

    #[test]
    fn three_stage_crash_sweep_matches_oracle_ms_ia(seed in any::<u64>()) {
        sweep(&run_workload(seed, ProtocolKind::MsIa, 3, 0), |_| Ok(())).unwrap();
    }

    #[test]
    fn three_stage_crash_sweep_matches_oracle_staged(seed in any::<u64>()) {
        sweep(&run_workload(seed, ProtocolKind::Staged, 3, 0), |_| Ok(())).unwrap();
    }

    #[test]
    fn checkpointed_three_stage_crash_sweep_matches_oracle_ms_ia(seed in any::<u64>()) {
        sweep(&run_checkpointed(seed, ProtocolKind::MsIa, 3), |_| Ok(())).unwrap();
    }

    #[test]
    fn checkpointed_three_stage_crash_sweep_matches_oracle_staged(seed in any::<u64>()) {
        sweep(&run_checkpointed(seed, ProtocolKind::Staged, 3), |_| Ok(())).unwrap();
    }

    #[test]
    fn torn_mid_frame_cuts_recover_like_the_preceding_boundary(seed in any::<u64>()) {
        check_torn_cuts(&run_workload(seed, ProtocolKind::MsIa, 2, 0), 7);
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
        check_torn_cuts(&run_workload_pipelined(seed, ProtocolKind::MsIa).log, 11);
    }

    #[test]
    fn corrupted_byte_never_panics_recovery(seed in any::<u64>(), flip in any::<u64>()) {
        let mut log = run_workload(seed, ProtocolKind::Staged, 2, 0);
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
    let p = protocol_on(ProtocolKind::MsIa, &Arc::new(wal));

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

/// A retraction names the stage it undid. T guesses `t0` at stage 0 and
/// reads R's guess at stage 1; R's final section retracts R, and the
/// cascade takes T's stage 1 but not its stage 0. A crash before T's
/// final stage must still retract `t0` and apologize for T.
#[test]
fn a_cascade_into_one_stage_leaves_the_earlier_stage_owed() {
    for kind in [ProtocolKind::MsIa, ProtocolKind::Staged] {
        let (wal, probe) = Wal::in_memory(WalConfig::strict());
        let wal = Arc::new(wal);
        let p = protocol_on(kind, &wal);
        let t0 = RwSet::new().write("t0");
        let t1 = RwSet::new().read("r").write("t1");
        let r = RwSet::new().write("r");

        let ht = p.begin(TxnId(1), &[t0.clone(), t1.clone(), RwSet::new()]);
        let (_, ht) = p.stage(ht, &t0, |ctx| ctx.write("t0", 1)).unwrap();
        let hr = p.begin(TxnId(2), &[r.clone(), RwSet::new()]);
        let (_, hr) = p.stage(hr, &r, |ctx| ctx.write("r", 2)).unwrap();
        let (_, _ht) = p
            .stage(ht.unwrap(), &t1, |ctx| {
                let seen = ctx.read("r")?.and_then(|v| v.as_int()).unwrap_or(0);
                ctx.write("t1", seen)
            })
            .unwrap();
        let (report, _) = p
            .stage(hr.unwrap(), &RwSet::new(), |ctx| {
                Ok(ctx.retract_self("wrong guess"))
            })
            .unwrap();
        assert_eq!(report.retracted, vec![TxnId(1), TxnId(2)], "{kind}");
        assert!(
            p.apologies().is_live(TxnId(1)),
            "{kind}: T's stage 0 survives"
        );
        // Crash before T's final stage.
        wal.flush().unwrap();
        let log = probe.durable();

        let rec = recover_edge(&log);
        assert_eq!(rec.unfinalized, vec![TxnId(1)], "{kind}");
        assert!(!rec.store.contains(&"t0".into()), "{kind}: t0 is retracted");
        assert!(!rec.apologies.is_live(TxnId(1)), "{kind}");
        assert!(
            rec.apologies_owed().iter().any(|a| a.txn == TxnId(1)),
            "{kind}: T's users get an apology"
        );
        sweep(&log, |_| Ok(())).unwrap();
    }
}

/// LSNs are global under every flush driver: strictly increasing across
/// checkpoints (taken between stages, where nothing is in flight), so the
/// high-water mark a core acked its commit points at
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
        let p = protocol_on(ProtocolKind::MsIa, &wal);

        let rw = RwSet::new().write("k");
        let mut last_lsn = 0;
        for txn in 0..20u64 {
            let h = p.begin(TxnId(txn), &[rw.clone(), rw.clone()]);
            let (_, h) = p.stage(h, &rw, |ctx| ctx.write("k", txn as i64)).unwrap();
            wal.maybe_checkpoint().unwrap();
            assert!(wal.latest_lsn() > last_lsn, "group {group}, txn {txn}");
            last_lsn = wal.latest_lsn();
            p.stage(h.unwrap(), &rw, |ctx| ctx.write("k", -(txn as i64)))
                .unwrap();
            wal.maybe_checkpoint().unwrap();
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
