//! One trial of one workload, in a process of its own.
//!
//! The parent runs trials strictly one at a time and starts a fresh process
//! for each: allocator state, page cache and thread pools from one trial
//! (or one workload) never reach the next, which in-process repetition
//! could not promise. A trial measures, checks its own outputs, and prints
//! one JSON record on its last line for the parent to aggregate.
//!
//! An *untraced* trial makes the end-to-end measurements: (a) the timed
//! `Deployment::run()` / `run_fleet()` call gives throughput, (b) the
//! benchmark's frame loop gives per-frame latency. A *traced* trial gives
//! the per-layer numbers — stage spans, layer probes, exact counters — and
//! never feeds an end-to-end metric.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::Path;
use std::time::Instant;

use croesus_core::{CorrectionCounts, FleetReport};
use croesus_store::KvStore;
use croesus_txn::recovery::recover_edge_file;

use crate::driver::{drive, stream_frames, DriveOutcome, Rig, FRAME, STAGES};
use crate::env::{peak_rss_mb, ScratchDir};
use crate::json::{obj, Json};
use crate::metrics as m;
use crate::probes::{self, ProbeContext};
use crate::spans::{self_times, trace_json, NoTrace, SpanLog};
use crate::stats::{median, percentile};
use crate::workloads::{fault_plan, scripted_restarts, Workload, PRESET, WARMUP_FRAMES};

/// What the parent asked this process to do.
pub struct TrialArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Stream size in triggered transactions.
    pub txns: u64,
    pub traced: bool,
}

/// The trial's stream: the workload, the seed and the frames that hold the
/// asked-for transactions.
struct Stream {
    workload: &'static Workload,
    seed: u64,
    frames: u64,
}

/// Correctness failures found by this trial, in words.
#[derive(Default)]
struct Checks(Vec<String>);

impl Checks {
    fn require(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        if !ok {
            self.0.push(failure());
        }
    }
}

/// Everything one trial reports.
struct Record {
    values: Vec<(&'static str, f64)>,
    /// Operations attempted: transactions begun, or frames for the fleet.
    attempted: u64,
    /// Every exact count of the run: must be identical in every trial.
    digest: String,
    /// Commits, corrections and final store contents: must equal the
    /// `must_equal` workload's.
    outcome: String,
}

fn corrections_text(c: &CorrectionCounts) -> String {
    format!(
        "correct={} corrected={} erroneous={} missed={}",
        c.correct, c.corrected, c.erroneous, c.missed
    )
}

/// Whether two stores hold the same keys and values (versions aside:
/// recovery does not replay them).
fn same_contents(a: &KvStore, b: &KvStore) -> bool {
    let (a, b) = (a.snapshot(), b.snapshot());
    a.len() == b.len()
        && a.iter()
            .zip(&b)
            .all(|((ka, va), (kb, vb))| ka == kb && va.value == vb.value)
}

/// A hash of a store's keys and values, in key order.
fn store_hash(store: &KvStore) -> u64 {
    let mut hasher = DefaultHasher::new();
    for (key, versioned) in store.snapshot() {
        key.as_str().hash(&mut hasher);
        format!("{:?}", versioned.value).hash(&mut hasher);
    }
    hasher.finish()
}

/// Push each `(metric, level)` percentile of `samples`. A level the sample
/// cannot support (p99 of a `--quick` stream) is left out rather than read
/// off a handful of frames.
fn percentiles(
    samples: &[f64],
    levels: &[(&'static str, f64)],
    out: &mut Vec<(&'static str, f64)>,
) {
    let mut ascending = samples.to_vec();
    ascending.sort_by(|a, b| a.partial_cmp(b).expect("latencies are never NaN"));
    for &(name, level) in levels {
        if let Ok(value) = percentile(&ascending, level) {
            out.push((name, value));
        }
    }
}

/// Recovery from the flushed log of a clean run must rebuild exactly the
/// live store and retract nothing.
fn check_recovery(rig: &Rig, checks: &mut Checks) {
    for (i, edge) in rig.edges.iter().enumerate() {
        let Some(path) = rig.log_path(i) else {
            continue;
        };
        match recover_edge_file(&path) {
            Err(e) => checks.require(false, || format!("edge {i}: log unreadable: {e}")),
            Ok(rec) => {
                checks.require(!rec.torn_tail, || {
                    format!("edge {i}: torn tail after a clean flush")
                });
                checks.require(
                    rec.retractions.is_empty() && rec.unfinalized.is_empty(),
                    || {
                        format!(
                            "edge {i}: recovery retracted {} transactions after a clean run",
                            rec.unfinalized.len()
                        )
                    },
                );
                checks.require(same_contents(&rec.store, edge.store()), || {
                    format!("edge {i}: recovered store differs from the live store")
                });
            }
        }
    }
}

/// The untimed warm-up of the benchmark's loop: the first frames of the
/// stream through a rig of their own.
fn warm_up_drive(args: &Stream, scratch: &Path) {
    let warm = WARMUP_FRAMES.min(args.frames);
    let deployment = args
        .workload
        .builder(warm, args.seed, &scratch.join("warm-drive"))
        .build();
    drive(
        &Rig::new(&deployment),
        &PRESET.generate(warm, args.seed),
        &mut NoTrace,
    );
}

fn edge_untraced(args: &Stream, scratch: &Path, born: Instant, checks: &mut Checks) -> Record {
    let w = args.workload;
    // Set-up: one untimed warm-up of both measurements, then the stream.
    let warm = WARMUP_FRAMES.min(args.frames);
    let _ = w
        .builder(warm, args.seed, &scratch.join("warm-run"))
        .build()
        .run();
    warm_up_drive(args, scratch);
    let video = PRESET.generate(args.frames, args.seed);
    let setup_s = born.elapsed().as_secs_f64();

    // (a) the real loop, one timestamp pair around the call.
    let deployment = w
        .builder(args.frames, args.seed, &scratch.join("run"))
        .build();
    let started = Instant::now();
    let metrics = deployment.run();
    let run_s = started.elapsed().as_secs_f64();

    // (b) the benchmark's loop, one timestamp pair per frame.
    let deployment = w
        .builder(args.frames, args.seed, &scratch.join("drive"))
        .build();
    let rig = Rig::new(&deployment);
    let out = drive(&rig, &video, &mut NoTrace);
    // Read before the checks below copy the store to compare it.
    let peak_rss = peak_rss_mb();

    checks.require(
        out.transactions_committed == metrics.transactions_committed
            && out.corrections == metrics.corrections,
        || {
            format!(
                "the benchmark's frame loop drifted from Deployment::run: {} commits, {} vs {} commits, {}",
                out.transactions_committed,
                corrections_text(&out.corrections),
                metrics.transactions_committed,
                corrections_text(&metrics.corrections),
            )
        },
    );
    check_recovery(&rig, checks);

    let stats = rig.edges[0].protocol().stats().snapshot();
    let mut values = vec![
        (m::FRAMES_PER_S, args.frames as f64 / run_s),
        (m::TXN_PER_S, metrics.transactions_committed as f64 / run_s),
        (m::SETUP_S, setup_s),
        (
            m::OPS_FAILED_SHARE,
            stats.aborts as f64 / stats.begun.max(1) as f64,
        ),
    ];
    values.extend(peak_rss.map(|rss| (m::PEAK_RSS_MB, rss)));
    percentiles(
        &out.initial_response_us,
        &[(m::INITIAL_P50, 0.5), (m::INITIAL_P99, 0.99)],
        &mut values,
    );
    percentiles(
        &out.final_commit_us,
        &[(m::FINAL_P50, 0.5), (m::FINAL_P99, 0.99)],
        &mut values,
    );
    let outcome = format!(
        "commits={} {} store={:016x}",
        out.transactions_committed,
        corrections_text(&out.corrections),
        store_hash(rig.edges[0].store()),
    );
    Record {
        values,
        attempted: stats.begun,
        digest: format!(
            "{outcome} begun={} protocol_commits={} aborts={} settled={} validated={}",
            stats.begun, stats.commits, stats.aborts, out.settled_entries, out.frames_validated
        ),
        outcome,
    }
}

fn fleet_digest(report: &FleetReport) -> String {
    format!(
        "processed={} dropped={} degraded={} commits={} takeovers={:?} restarts={} fenced={} rejected={} settled={} owed={}",
        report.frames_processed,
        report.frames_dropped,
        report.degraded_frames,
        report.transactions_committed,
        report.takeovers,
        report.in_place_restarts,
        report.fenced_wakeups,
        report.rejected_batches,
        report.settled_entries,
        report.apologies_owed,
    )
}

fn check_fleet(args: &Stream, report: &FleetReport, checks: &mut Checks) {
    checks.require(
        report.frames_processed + report.frames_dropped == args.frames,
        || {
            format!(
                "fleet: {} processed + {} dropped != {} frames",
                report.frames_processed, report.frames_dropped, args.frames
            )
        },
    );
    let scripted = scripted_restarts(&fault_plan(args.seed, args.frames));
    checks.require(report.in_place_restarts == scripted, || {
        format!(
            "fleet: {} in-place restarts, the plan scripts {scripted}",
            report.in_place_restarts
        )
    });
}

fn fleet_untraced(args: &Stream, scratch: &Path, born: Instant, checks: &mut Checks) -> Record {
    let w = args.workload;
    let warm = WARMUP_FRAMES.min(args.frames);
    let _ = w
        .builder(warm, args.seed, &scratch.join("warm-run"))
        .build()
        .run_fleet();
    let setup_s = born.elapsed().as_secs_f64();

    let deployment = w
        .builder(args.frames, args.seed, &scratch.join("run"))
        .build();
    let started = Instant::now();
    let report = deployment.run_fleet();
    let run_s = started.elapsed().as_secs_f64();
    check_fleet(args, &report, checks);

    let digest = fleet_digest(&report);
    let mut values = vec![
        (m::FRAMES_PER_S, args.frames as f64 / run_s),
        (m::TXN_PER_S, report.transactions_committed as f64 / run_s),
        (m::SETUP_S, setup_s),
        (
            m::OPS_FAILED_SHARE,
            report.frames_dropped as f64 / args.frames as f64,
        ),
    ];
    values.extend(peak_rss_mb().map(|rss| (m::PEAK_RSS_MB, rss)));
    Record {
        values,
        attempted: args.frames,
        outcome: String::new(),
        digest,
    }
}

/// Stage-span metrics from the traced loop: median self time per frame and
/// share of all frame time, per stage; returns the summed self time of
/// every span (which must account for the loop's wall time).
fn span_metrics(log: &SpanLog, values: &mut Vec<(&'static str, f64)>) -> f64 {
    let spans = log.spans();
    let own = self_times(spans);
    let frame_total: u64 = spans
        .iter()
        .filter(|s| s.name == FRAME)
        .map(|s| s.duration_ns())
        .sum();
    for stage in STAGES {
        let per_frame: Vec<f64> = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == stage)
            .map(|(_, own)| *own as f64 / 1e3)
            .collect();
        let total_us: f64 = per_frame.iter().sum();
        let (us_name, share_name) = stage_metric_names(stage);
        values.push((us_name, median(&per_frame)));
        values.push((share_name, total_us * 1e3 / frame_total.max(1) as f64));
    }
    own.iter().sum::<u64>() as f64 / 1e9
}

fn stage_metric_names(stage: &str) -> (&'static str, &'static str) {
    let find = |suffix: &str| {
        m::PER_LAYER
            .iter()
            .map(|metric| metric.name)
            .find(|name| name.strip_suffix(suffix) == Some(stage))
            .expect("every stage span has its two metrics")
    };
    (find(".us_per_frame"), find(".share"))
}

fn edge_traced(args: &Stream, scratch: &Path, checks: &mut Checks) -> Record {
    let w = args.workload;
    warm_up_drive(args, scratch);
    let video = PRESET.generate(args.frames, args.seed);

    // The untraced pass: the exact counters come from its objects.
    let deployment = w
        .builder(args.frames, args.seed, &scratch.join("drive"))
        .build();
    let rig = Rig::new(&deployment);
    let plain = drive(&rig, &video, &mut NoTrace);

    // The traced pass: same loop, spans kept in memory.
    let traced_deployment = w
        .builder(args.frames, args.seed, &scratch.join("traced"))
        .build();
    let mut log = SpanLog::with_capacity(video.len() * (STAGES.len() + 1));
    let traced = drive(&Rig::new(&traced_deployment), &video, &mut log);

    let mut values = Vec::new();
    let accounted_s = span_metrics(&log, &mut values);
    // The spans must explain the traced loop: what they miss is the loop's
    // own glue and the shutdown flush.
    checks.require((accounted_s / traced.wall_s - 1.0).abs() <= 0.03, || {
        format!(
            "stage-span self times sum to {accounted_s:.4}s, the traced loop took {:.4}s",
            traced.wall_s
        )
    });
    values.push((m::TRACE_OVERHEAD_SHARE, traced.wall_s / plain.wall_s - 1.0));
    write_trace(w.name, args.seed, &log);

    counters(&rig, &plain, &mut values);
    percentiles(
        &plain.initial_response_us,
        &[(m::INITIAL_P99, 0.99)],
        &mut values,
    );
    percentiles(&plain.final_commit_us, &[(m::FINAL_P99, 0.99)], &mut values);
    let ctx = ProbeContext {
        workload: w,
        seed: args.seed,
        video: &video,
        scratch,
        store: rig.edges[0].store().clone(),
        log: rig.log_path(0),
    };
    values.extend(probes::run(&ctx));
    let stats = rig.edges[0].protocol().stats().snapshot();
    Record {
        values,
        attempted: stats.begun,
        digest: String::new(),
        outcome: String::new(),
    }
}

/// Exact counters from the untraced pass's own objects.
fn counters(rig: &Rig, out: &DriveOutcome, values: &mut Vec<(&'static str, f64)>) {
    let stats = rig.edges[0].protocol().stats().snapshot();
    let wal = rig.wal_stats();
    let coalesce = rig.coalesce_stats();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    values.extend([
        (m::OPS_FAILED_SHARE, ratio(stats.aborts, stats.begun)),
        ("txn.protocol.begun", stats.begun as f64),
        ("txn.protocol.commits", stats.commits as f64),
        ("txn.protocol.aborts", stats.aborts as f64),
        ("txn.apology.settled_entries", out.settled_entries as f64),
        (
            "txn.apology.apologies_owed",
            rig.edges[0].protocol().apologies().apologies().len() as f64,
        ),
        (
            "core.metrics.validated_share",
            ratio(out.frames_validated, out.frames),
        ),
        ("core.metrics.corrected", out.corrections.corrected as f64),
        ("core.metrics.erroneous", out.corrections.erroneous as f64),
        ("core.metrics.missed", out.corrections.missed as f64),
        ("store.kv.items_final", rig.edges[0].store().len() as f64),
        ("wal.writer.records", wal.records as f64),
        ("wal.writer.commit_points", wal.commit_points as f64),
        ("wal.writer.syncs", wal.syncs as f64),
        ("wal.writer.checkpoints", wal.checkpoints as f64),
        ("wal.writer.bytes_appended", wal.bytes_appended as f64),
        (
            "wal.writer.bytes_per_txn",
            ratio(wal.bytes_appended, stats.commits),
        ),
        (
            "wal.writer.commit_points_per_sync",
            ratio(wal.commit_points, wal.syncs),
        ),
        ("wal.coalesce.requests", coalesce.requests as f64),
        ("wal.coalesce.windows", coalesce.windows as f64),
    ]);
}

/// The fleet's slots are private: there is no outside timing point inside
/// `run_fleet`, so its traced trial has no stage spans. It reports the
/// `FleetReport` counters and probes the WAL's read side on edge 0's log.
fn fleet_traced(args: &Stream, scratch: &Path, checks: &mut Checks) -> Record {
    let w = args.workload;
    let run_dir = scratch.join("run");
    let deployment = w.builder(args.frames, args.seed, &run_dir).build();
    let report = deployment.run_fleet();
    check_fleet(args, &report, checks);
    write_trace(w.name, args.seed, &SpanLog::with_capacity(0));

    let log = w.durability_mode(&run_dir).edge_log_path(0);
    let store = log
        .as_ref()
        .and_then(|path| recover_edge_file(path).ok())
        .map(|rec| rec.store)
        .unwrap_or_default();
    let mut values = Vec::new();
    values.extend([
        (
            m::OPS_FAILED_SHARE,
            report.frames_dropped as f64 / args.frames as f64,
        ),
        ("txn.apology.settled_entries", report.settled_entries as f64),
        ("txn.apology.apologies_owed", report.apologies_owed as f64),
        ("store.kv.items_final", store.len() as f64),
        (
            "core.fleet.in_place_restarts",
            report.in_place_restarts as f64,
        ),
        ("core.fleet.takeovers", report.takeovers.len() as f64),
        ("core.fleet.frames_dropped", report.frames_dropped as f64),
        (
            "core.fleet.rejected_batches",
            report.rejected_batches as f64,
        ),
    ]);
    let video = PRESET.generate(args.frames, args.seed);
    let ctx = ProbeContext {
        workload: w,
        seed: args.seed,
        video: &video,
        scratch,
        store,
        log,
    };
    values.extend(probes::run(&ctx));
    Record {
        values,
        attempted: args.frames,
        digest: String::new(),
        outcome: String::new(),
    }
}

fn write_trace(workload: &str, seed: u64, log: &SpanLog) {
    let path = crate::env::out_dir().join(format!("trace-{workload}.json"));
    let json = trace_json(workload, seed, log.spans());
    if let Err(e) = std::fs::write(&path, json.render()) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Run the trial and print its record as the last line of standard output.
/// Exits non-zero when a correctness check failed.
pub fn run(args: &TrialArgs, born: Instant) -> ! {
    let scratch = ScratchDir::create(args.workload.name).expect("benchmark/out is writable");
    let mut checks = Checks::default();
    let stream = Stream {
        workload: args.workload,
        seed: args.seed,
        frames: stream_frames(args.seed, args.txns),
    };
    let mut record = match (args.workload.fleet, args.traced) {
        (false, false) => edge_untraced(&stream, scratch.path(), born, &mut checks),
        (false, true) => edge_traced(&stream, scratch.path(), &mut checks),
        (true, false) => fleet_untraced(&stream, scratch.path(), born, &mut checks),
        (true, true) => fleet_traced(&stream, scratch.path(), &mut checks),
    };
    drop(scratch);
    if args.traced {
        // A layer the workload does not use (no WAL, no fleet, no outside
        // timing point) reports 0, so every traced trial lists every metric.
        for metric in &m::PER_LAYER {
            if !record.values.iter().any(|(name, _)| *name == metric.name) {
                record.values.push((metric.name, 0.0));
            }
        }
    }
    for failure in &checks.0 {
        eprintln!("CHECK FAILED [{}]: {failure}", args.workload.name);
    }
    let json = obj([
        ("workload", Json::from(args.workload.name)),
        ("traced", Json::from(args.traced)),
        ("frames", Json::from(stream.frames)),
        ("attempted", Json::from(record.attempted)),
        ("digest", Json::from(record.digest)),
        ("outcome", Json::from(record.outcome)),
        (
            "failures",
            Json::Arr(checks.0.iter().map(|f| Json::from(f.as_str())).collect()),
        ),
        (
            "values",
            obj(record.values.iter().map(|(k, v)| (*k, Json::from(*v)))),
        ),
    ]);
    println!("{}", json.render());
    std::process::exit(i32::from(!checks.0.is_empty()));
}
