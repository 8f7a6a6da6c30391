//! Layer probes: the workload's own inputs replayed through one layer at a
//! time, through that layer's public functions only.
//!
//! A stage span says where a frame's time goes between the calls the frame
//! loop makes; it cannot see below `run_initial_stage`. The probes go below:
//! they re-derive what the workload feeds each lower layer — its triggered
//! transactions and their read/write sets, its wave widths, its end-of-run
//! store and log — and time each layer alone on exactly that input. A probe
//! gives a unit cost; the exact counters beside it give how often the
//! workload pays it.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use croesus_core::{match_edge_to_cloud, FinalInput, ReplicaTailer, TailPoll, TxnInstance};
use croesus_detect::Detection;
use croesus_obs::{EventKind, Obs};
use croesus_sim::DetRng;
use croesus_store::{KvStore, LockManager, TxnId};
use croesus_txn::recovery::recover_edge_file;
use croesus_txn::{ExecutorCore, RwSet, Sequencer, WorkerPool};
use croesus_video::Video;
use croesus_wal::{LogShipper, StageFlags, StageRecord, WriteImage};

use crate::driver::Rig;
use crate::stats::median;
use crate::workloads::{Durability, Workload};

/// What one frame feeds the layers below the frame loop.
struct FrameInputs {
    surviving: Vec<Detection>,
    cloud_labels: Vec<Detection>,
    send: bool,
    /// One per triggered transaction, in trigger order.
    instances: Vec<(Detection, TxnInstance)>,
}

/// Everything the probes need from the run they explain.
pub struct ProbeContext<'a> {
    pub workload: &'a Workload,
    pub seed: u64,
    pub video: &'a Video,
    pub scratch: &'a Path,
    /// The store as the run left it.
    pub store: Arc<KvStore>,
    /// The run's flushed log, when the workload is durable.
    pub log: Option<PathBuf>,
}

fn ns_per(total: std::time::Duration, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        total.as_nanos() as f64 / count as f64
    }
}

/// Re-derive the run's per-frame inputs the way `EdgeNode` derives them:
/// same models, same thresholds, same per-label RNG forks. Returns the
/// inputs, the time spent in `instantiate` alone, and the deployment's
/// label-matching overlap threshold.
fn frame_inputs(ctx: &ProbeContext) -> (Vec<FrameInputs>, std::time::Duration, f64) {
    let w = Workload {
        durability: Durability::Off,
        fleet: false,
        ..*ctx.workload
    };
    let deployment = w
        .builder(ctx.video.len() as u64, ctx.seed, ctx.scratch)
        .build();
    let rig = Rig::new(&deployment);
    let query = ctx.video.query_class().clone();
    let rng = DetRng::new(deployment.config().seed).fork_named("edge-node");
    let mut instantiate = std::time::Duration::ZERO;
    let frames = ctx
        .video
        .frames()
        .iter()
        .map(|frame| {
            let (send, surviving) = rig.edge_decision(frame, &query);
            let mut instances = Vec::new();
            for (li, label) in surviving.iter().enumerate() {
                let mut lrng = rng.fork(frame.index << 20 | li as u64);
                for rule in rig.bank.triggered_by_label(label) {
                    let t = Instant::now();
                    let instance = rule.template.instantiate(label, &mut lrng);
                    instantiate += t.elapsed();
                    instances.push((label.clone(), instance));
                }
            }
            FrameInputs {
                surviving,
                cloud_labels: rig.cloud_labels(frame),
                send,
                instances,
            }
        })
        .collect();
    (frames, instantiate, deployment.config().overlap_threshold)
}

/// The footprint `EdgeNode` sequences and MS-SR locks: initial ∪ final.
fn merged(instance: &TxnInstance) -> RwSet {
    instance.initial_rw.union(&instance.final_rw)
}

fn probe_sequencer(frames: &[FrameInputs], out: &mut Vec<(&'static str, f64)>) -> Vec<usize> {
    let mut widths = Vec::new();
    let mut spent = std::time::Duration::ZERO;
    for frame in frames {
        let rwsets: Vec<RwSet> = frame.instances.iter().map(|(_, i)| merged(i)).collect();
        let t = Instant::now();
        let waves = black_box(Sequencer::waves(black_box(&rwsets)));
        spent += t.elapsed();
        widths.extend(waves.iter().map(Vec::len));
    }
    let jobs: usize = widths.iter().sum();
    out.push((
        "txn.sequencer.waves_ns_per_frame",
        ns_per(spent, frames.len()),
    ));
    out.push((
        "txn.sequencer.waves_per_frame",
        widths.len() as f64 / frames.len().max(1) as f64,
    ));
    out.push((
        "txn.sequencer.wave_width_mean",
        jobs as f64 / widths.len().max(1) as f64,
    ));
    widths
}

/// No-op jobs at the workload's wave widths through its worker count, by
/// `EdgeNode`'s own rule: an inline pool or a one-job wave never reaches
/// the queue.
fn probe_runtime(workers: usize, widths: &[usize], out: &mut Vec<(&'static str, f64)>) {
    let pool = WorkerPool::new(workers);
    let mut jobs = 0usize;
    let t = Instant::now();
    for &width in widths {
        jobs += width;
        if pool.is_inline() || width == 1 {
            for i in 0..width {
                black_box(i);
            }
        } else {
            let wave: Vec<_> = (0..width).map(|i| move || black_box(i)).collect();
            black_box(pool.run_wave(wave));
        }
    }
    out.push(("txn.runtime.run_wave_ns_per_job", ns_per(t.elapsed(), jobs)));
}

fn probe_locks(w: &Workload, frames: &[FrameInputs], out: &mut Vec<(&'static str, f64)>) {
    let locks = LockManager::new(w.protocol.default_lock_policy());
    let mut spent = std::time::Duration::ZERO;
    let mut txns = 0usize;
    for (_, instance) in frames.iter().flat_map(|f| &f.instances) {
        let pairs = merged(instance).lock_pairs();
        let txn = TxnId(txns as u64);
        txns += 1;
        let t = Instant::now();
        locks
            .acquire_all(txn, &pairs, None)
            .expect("an uncontended footprint locks");
        locks.release_all(txn, pairs.iter().map(|(k, _)| k));
        spent += t.elapsed();
    }
    out.push(("store.lock.acquire_release_ns_per_txn", ns_per(spent, txns)));
}

fn probe_matching(overlap: f64, frames: &[FrameInputs], out: &mut Vec<(&'static str, f64)>) {
    let validated: Vec<&FrameInputs> = frames.iter().filter(|f| f.send).collect();
    let t = Instant::now();
    for frame in &validated {
        black_box(match_edge_to_cloud(
            &frame.surviving,
            &frame.cloud_labels,
            overlap,
        ));
    }
    out.push((
        "core.matching.match_ns_per_frame",
        ns_per(t.elapsed(), validated.len()),
    ));
}

/// The two log records a clean MS-IA transaction appends: the initial
/// stage with its inserts, the final stage confirming them.
fn stage_records(txn: u64, label: &Detection, instance: &TxnInstance) -> [StageRecord; 2] {
    let value = Arc::new(croesus_store::Value::Str(format!("seen:{}", label.class)));
    let initial = StageRecord {
        txn: TxnId(txn),
        stage: 0,
        total: 2,
        flags: StageFlags(StageFlags::COMMIT_POINT | StageFlags::REGISTER),
        reads: instance.initial_rw.reads.clone(),
        writes: instance.initial_rw.writes.clone(),
        images: instance
            .initial_rw
            .writes
            .iter()
            .map(|key| WriteImage {
                key: key.clone(),
                pre: None,
                post: Some(Arc::clone(&value)),
            })
            .collect(),
    };
    let fin = StageRecord {
        txn: TxnId(txn),
        stage: 1,
        total: 2,
        flags: StageFlags(StageFlags::COMMIT_POINT | StageFlags::FINAL),
        reads: instance.final_rw.reads.clone(),
        writes: instance.final_rw.writes.clone(),
        images: Vec::new(),
    };
    [initial, fin]
}

/// `append_stage` in the workload's durability mode on the workload's own
/// records, then `checkpoint` once the writer's shadow holds every item
/// the run inserted.
fn probe_wal_writer(
    ctx: &ProbeContext,
    frames: &[FrameInputs],
    out: &mut Vec<(&'static str, f64)>,
) {
    let mode = ctx.workload.durability_mode(&ctx.scratch.join("probe-wal"));
    let Some(wal) = mode
        .open_edge_wal_with(0, mode.device_coalescer())
        .expect("the scratch directory is writable")
    else {
        return;
    };
    let records: Vec<StageRecord> = frames
        .iter()
        .flat_map(|f| &f.instances)
        .enumerate()
        .flat_map(|(txn, (label, instance))| stage_records(txn as u64, label, instance))
        .collect();
    let count = records.len();
    let t = Instant::now();
    for record in records {
        wal.append_stage(record).expect("WAL append failed");
    }
    wal.flush().expect("WAL flush failed");
    out.push(("wal.writer.append_stage_ns", ns_per(t.elapsed(), count)));
    out.push((
        "wal.writer.checkpoint_ms",
        median(&timed_ms(3, || {
            wal.checkpoint().expect("WAL checkpoint failed")
        })),
    ));
}

fn timed_ms<R>(repeats: usize, mut f: impl FnMut() -> R) -> Vec<f64> {
    (0..repeats)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// The WAL's read side on the run's own log: crash recovery from the file,
/// and one replica tailing round over a log of that length.
fn probe_wal_readers(log: Option<&Path>, out: &mut Vec<(&'static str, f64)>) {
    let Some(log) = log else {
        return;
    };
    let mut records = 0usize;
    let recover_ms = median(&timed_ms(3, || {
        records = recover_edge_file(log)
            .expect("the run's log is readable")
            .frames;
    }));
    out.push(("txn.recovery.recover_ms", recover_ms));
    out.push((
        "wal.recover.records_per_s",
        records as f64 / (recover_ms / 1e3),
    ));
    let bytes = std::fs::read(log).expect("the run's log is readable");
    let poll_ms = median(&timed_ms(3, || {
        let shipper = Arc::new(LogShipper::new());
        shipper.publish(&bytes);
        let mut tailer = ReplicaTailer::new(shipper);
        assert!(
            matches!(tailer.poll(), TailPoll::Advanced { .. }),
            "the run's log validates"
        );
    }));
    out.push(("core.cloud.tailer_poll_us", poll_ms * 1e3));
}

/// Point reads and overwrites at the run's final store size, every key
/// once, in a seeded shuffle.
fn probe_kv(store: &KvStore, seed: u64, out: &mut Vec<(&'static str, f64)>) {
    let mut entries = store.snapshot();
    DetRng::new(seed)
        .fork_named("benchmark-kv")
        .shuffle(&mut entries);
    let t = Instant::now();
    for (key, _) in &entries {
        black_box(store.get(key));
    }
    out.push(("store.kv.get_ns", ns_per(t.elapsed(), entries.len())));
    let t = Instant::now();
    for (key, versioned) in &entries {
        black_box(store.put(key.clone(), Arc::clone(&versioned.value)));
    }
    out.push(("store.kv.put_ns", ns_per(t.elapsed(), entries.len())));
}

/// `begin` plus both stages through `dyn MultiStageProtocol`, the
/// workload's protocol and lock policy, real section bodies, no WAL.
fn probe_protocol(w: &Workload, frames: Vec<FrameInputs>, out: &mut Vec<(&'static str, f64)>) {
    let core = ExecutorCore::new(
        Arc::new(KvStore::new()),
        Arc::new(LockManager::new(w.protocol.default_lock_policy())),
    );
    let protocol = w.protocol.build(core);
    let mut spent = std::time::Duration::ZERO;
    let mut txns = 0usize;
    for frame in frames {
        for (label, instance) in frame.instances {
            let input = FinalInput::assumed_correct(label);
            let txn = TxnId(txns as u64);
            txns += 1;
            let (mut initial, mut fin) = (Some(instance.initial), Some(instance.final_section));
            let t = Instant::now();
            let handle = protocol.begin(
                txn,
                &[instance.initial_rw.clone(), instance.final_rw.clone()],
            );
            let next = protocol
                .run_stage(handle, &instance.initial_rw, &mut |ctx| {
                    (initial.take().expect("runs once"))(ctx.section_mut())
                })
                .expect("an uncontended initial section commits")
                .into_next()
                .expect("two stages were declared");
            protocol
                .run_stage(next, &instance.final_rw, &mut |ctx| {
                    (fin.take().expect("runs once"))(ctx.section_mut(), &input)
                })
                .expect("final sections cannot abort");
            spent += t.elapsed();
        }
        // What `EdgeNode::settle` does between frames.
        protocol.core().apologies().settle_all();
    }
    out.push(("txn.protocol.two_stage_txn_ns", ns_per(spent, txns)));
}

fn probe_obs(out: &mut Vec<(&'static str, f64)>) {
    const EVENTS: usize = 200_000;
    let obs = Obs::shared();
    let edge = obs.edge(0);
    edge.set_frame(1);
    let t = Instant::now();
    for _ in 0..EVENTS {
        edge.emit(black_box(EventKind::FrameIngest));
    }
    out.push(("obs.emit_ns", ns_per(t.elapsed(), EVENTS)));
}

/// Run every probe; returns `(metric name, value)` pairs. A probe whose
/// layer the workload does not use reports nothing.
pub fn run(ctx: &ProbeContext) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let (frames, instantiate, overlap) = frame_inputs(ctx);
    let txns: usize = frames.iter().map(|f| f.instances.len()).sum();
    out.push((
        "core.bank.instantiate_ns_per_txn",
        ns_per(instantiate, txns),
    ));
    let widths = probe_sequencer(&frames, &mut out);
    probe_runtime(ctx.workload.workers, &widths, &mut out);
    probe_locks(ctx.workload, &frames, &mut out);
    probe_matching(overlap, &frames, &mut out);
    probe_wal_writer(ctx, &frames, &mut out);
    probe_wal_readers(ctx.log.as_deref(), &mut out);
    probe_kv(&ctx.store, ctx.seed, &mut out);
    probe_protocol(ctx.workload, frames, &mut out);
    probe_obs(&mut out);
    out
}
