//! The allocation ratchet: heap allocations and peak live heap bytes per
//! `Deployment::run()`, as exact, gateable numbers.
//!
//! A counting `#[global_allocator]` (this test binary only) counts every
//! `alloc`, `alloc_zeroed` and `realloc` made *by the calling thread*, and
//! keeps that thread's live bytes and their high-water mark: `alloc` and
//! `alloc_zeroed` add the block's size, `dealloc` subtracts it and
//! `realloc` adds the difference. The tallies live in `const` thread-locals,
//! so the harness's other test threads never leak into them. With
//! `workers(1)` and durability disabled or group commit (whose inline flush
//! driver lands every buffer on the committing thread, and whose
//! checkpoints the frame loop's settle takes) the whole run executes on
//! the test thread, and both numbers are identical run to run, in debug
//! and in release. The live-bytes peak is
//! the heap the run holds at its fullest, which a process's peak RSS
//! follows only loosely (the allocator's mmap threshold and page reuse sit
//! in between).
//!
//! Observing a run is costed the same way, but exactly rather than as a
//! ratchet: what an observed run makes beyond the unobserved one is pinned
//! at two lengths, so a cost per transaction cannot hide in it, and the
//! run's event counts per kind are pinned beside it.
//!
//! The budgets are a ratchet. A change that lowers a count lowers the
//! budget with it; a change that must raise it says why in `CHANGES.md`.
//!
//! The counts include what std allocates on the run's behalf (map and
//! vector growth, sort scratch, formatting), so a new toolchain can move
//! them with no code change. Each budget is therefore the count measured
//! with rustc 1.95.0 plus [`MARGIN_PERCENT`]; re-measure when the margin is
//! spent.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use croesus::core::{Croesus, ProtocolKind, ThresholdPair};
use croesus::obs::{Event, EventKind, Obs};
use croesus::store::Key;
use croesus::txn::WorkerPool;
use croesus::wal::DurabilityMode;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated and has not freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The high-water mark of `LIVE`.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: an allocation during thread teardown must not panic.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn grow(bytes: i64) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// `const`-initialized thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        grow(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        grow(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        grow(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Restart the live-bytes high-water mark at the current level, which it
/// returns.
fn reset_peak() -> i64 {
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
    live
}

fn peak() -> i64 {
    PEAK.with(Cell::get)
}

/// Whether the run logs: not at all, or group commit (landed inline on the
/// calling thread) into a fresh scratch directory.
#[derive(Clone, Copy, Debug)]
enum Logging {
    Off,
    GroupCommit,
}

/// What one `run()` made on the calling thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct RunCount {
    allocations: u64,
    /// The live-bytes high-water mark minus the level at the start.
    peak_live_bytes: u64,
    committed: u64,
}

/// One `run()` of 300 frames, seed 11, thresholds (0.3, 0.7), inline.
fn count_run(protocol: ProtocolKind, logging: Logging) -> RunCount {
    measure(protocol, logging, 300, None)
}

/// One `run()` of `frames` frames, seed 11, thresholds (0.3, 0.7), inline,
/// observed into `obs` when one is given.
fn measure(
    protocol: ProtocolKind,
    logging: Logging,
    frames: u64,
    obs: Option<&Arc<Obs>>,
) -> RunCount {
    let dir = match logging {
        Logging::Off => None,
        Logging::GroupCommit => Some(croesus::wal::scratch_dir("alloc-budget")),
    };
    let durability = match &dir {
        None => DurabilityMode::Disabled,
        Some(dir) => DurabilityMode::group_commit(dir),
    };
    let mut builder = Croesus::builder()
        .frames(frames)
        .seed(11)
        .thresholds(ThresholdPair::new(0.3, 0.7))
        .protocol(protocol)
        .workers(1)
        .durability(durability);
    if let Some(obs) = obs {
        builder = builder.observe(Arc::clone(obs));
    }
    let deployment = builder.build();
    let before = allocations();
    let start = reset_peak();
    let metrics = deployment.run();
    let count = RunCount {
        allocations: allocations() - before,
        peak_live_bytes: (peak() - start) as u64,
        committed: metrics.transactions_committed,
    };
    if let Some(dir) = dir {
        std::fs::remove_dir_all(dir).expect("scratch dir is removable");
    }
    count
}

/// Headroom over the measured count for allocations std makes differently
/// from one toolchain to the next.
const MARGIN_PERCENT: u64 = 1;

fn budget(measured: u64) -> u64 {
    measured + measured * MARGIN_PERCENT / 100
}

fn assert_within_budget(protocol: ProtocolKind, logging: Logging, measured: u64) {
    let budget = budget(measured);
    let RunCount {
        allocations: made,
        committed,
        ..
    } = count_run(protocol, logging);
    println!(
        "{protocol} ({logging:?}): {made} allocations for {committed} committed transactions \
         ({:.1} per transaction; measured {measured}, budget {budget})",
        made as f64 / committed.max(1) as f64
    );
    assert!(
        made <= budget,
        "{protocol} ({logging:?}): {made} allocations exceed the budget of {budget}"
    );
}

fn assert_within_live_budget(protocol: ProtocolKind, logging: Logging, measured: u64) {
    let budget = budget(measured);
    let peak = count_run(protocol, logging).peak_live_bytes;
    println!(
        "{protocol} ({logging:?}): {peak} peak live heap bytes \
         (measured {measured}, budget {budget})"
    );
    assert!(
        peak <= budget,
        "{protocol} ({logging:?}): {peak} peak live heap bytes exceed the budget of {budget}"
    );
}

#[test]
fn ms_ia_run_stays_within_its_allocation_budget() {
    assert_within_budget(ProtocolKind::MsIa, Logging::Off, 49_701);
}

#[test]
fn ms_sr_run_stays_within_its_allocation_budget() {
    assert_within_budget(ProtocolKind::MsSr, Logging::Off, 46_621);
}

#[test]
fn group_commit_run_stays_within_its_allocation_budget() {
    assert_within_budget(ProtocolKind::MsIa, Logging::GroupCommit, 75_871);
}

#[test]
fn ms_ia_run_stays_within_its_live_heap_budget() {
    assert_within_live_budget(ProtocolKind::MsIa, Logging::Off, 736_476);
}

#[test]
fn ms_sr_run_stays_within_its_live_heap_budget() {
    assert_within_live_budget(ProtocolKind::MsSr, Logging::Off, 749_520);
}

#[test]
fn group_commit_run_stays_within_its_live_heap_budget() {
    assert_within_live_budget(ProtocolKind::MsIa, Logging::GroupCommit, 1_137_916);
}

/// What observing adds to one run with durability off: (allocations, peak
/// live bytes), the observed run's counts minus the unobserved run's.
fn obs_cost(protocol: ProtocolKind, frames: u64) -> (i64, i64) {
    let plain = measure(protocol, Logging::Off, frames, None);
    let observed = measure(protocol, Logging::Off, frames, Some(&Obs::shared()));
    (
        observed.allocations as i64 - plain.allocations as i64,
        observed.peak_live_bytes as i64 - plain.peak_live_bytes as i64,
    )
}

#[test]
fn observing_a_run_costs_one_fixed_stream_and_nothing_per_transaction() {
    // The edge's stream is allocated whole when the run first asks for it:
    // the 16 Ki-event ring and the shared state around it. Nothing an
    // emission does allocates, so the cost is the same at 150 frames as at
    // 300.
    let ring = 16_384 * std::mem::size_of::<Event>() as i64;
    let stream = (3, ring + 296);
    for protocol in [ProtocolKind::MsIa, ProtocolKind::MsSr] {
        let short = obs_cost(protocol, 150);
        let long = obs_cost(protocol, 300);
        println!("{protocol}: observing adds {short:?} at 150 frames, {long:?} at 300");
        assert_eq!(short, long, "{protocol}: a per-frame cost");
        assert_eq!(long, stream, "{protocol}: (allocations, peak live bytes)");
    }
}

#[test]
fn an_observed_run_counts_every_event_kind() {
    // `Obs::count` never drops, while the ring keeps only the last 16 Ki
    // events: this run emits 23 787, so `events()` is a window of it.
    let obs = Obs::shared();
    measure(ProtocolKind::MsIa, Logging::Off, 300, Some(&obs));
    let kinds = [
        EventKind::FrameIngest,
        EventKind::TxnBegin { stages: 0 },
        EventKind::StageStart { stage: 0 },
        EventKind::StageEnd { stage: 0 },
        EventKind::InitialCommit,
        EventKind::FinalCommit,
        EventKind::WalAppend { lsn: 0 },
        EventKind::WalSync { lsn: 0, epoch: 0 },
        EventKind::WalBufferSeal { lsn: 0 },
        EventKind::WalCoalescedSync { requests: 0 },
        EventKind::ShipPublish { lsn: 0, epoch: 0 },
        EventKind::ShipAccept { bytes: 0 },
        EventKind::ShipReject,
        EventKind::CloudVerdict {
            correct: 0,
            corrected: 0,
            erroneous: 0,
            missed: 0,
        },
        EventKind::Retract,
        EventKind::Apology,
        EventKind::HeartbeatMiss,
        EventKind::TakeoverStart,
        EventKind::TakeoverEnd { retractions: 0 },
        EventKind::Fence,
        EventKind::TpcDecision { commit: false },
    ];
    let counts: Vec<(&str, u64)> = kinds.iter().map(|&k| (k.name(), obs.count(k))).collect();
    assert_eq!(
        counts,
        [
            ("frame_ingest", 300),
            ("txn_begin", 3_318),
            ("stage_start", 6_636),
            ("stage_end", 6_636),
            ("initial_commit", 3_318),
            ("final_commit", 3_318),
            ("wal_append", 0),
            ("wal_sync", 0),
            ("wal_buffer_seal", 0),
            ("wal_coalesced_sync", 0),
            ("ship_publish", 0),
            ("ship_accept", 0),
            ("ship_reject", 0),
            ("cloud_verdict", 261),
            ("retract", 0),
            ("apology", 0),
            ("heartbeat_miss", 0),
            ("takeover_start", 0),
            ("takeover_end", 0),
            ("fence", 0),
            ("tpc_decision", 0),
        ]
    );
    let emitted: u64 = counts.iter().map(|&(_, n)| n).sum();
    assert_eq!(emitted, 23_787);
    assert_eq!(obs.dropped(), emitted - 16_384, "the ring keeps 16 Ki");
}

#[test]
fn short_keys_allocate_nothing_and_a_long_key_allocates_once() {
    let before = allocations();
    for n in 0..1_000u64 {
        let key = Key::indexed("item", n);
        let copy = key.clone();
        assert_eq!(copy, key);
    }
    assert_eq!(allocations() - before, 0, "item keys sit inline");

    let before = allocations();
    let long = Key::new("item/0123456789abcdefgh");
    assert_eq!(long.as_str().len(), 23);
    let copy = long.clone();
    drop(long);
    drop(copy);
    assert_eq!(
        allocations() - before,
        1,
        "a 23-byte key is one shared text"
    );
}

/// What one pooled wave of `width` jobs allocates on the submitting thread
/// at most, over a few waves on a fresh pool of `workers`, after one
/// uncounted wave (the thread's first wait on a channel sets up its wait
/// context once).
///
/// The jobs only return their index, except the last one, which sleeps.
/// It sits in a pool thread's chunk, so the submitter waits for its
/// report, and that wait registers the submitter with the wave's channel,
/// which allocates once. A wave whose reports all came back before the
/// submitter asked would skip that allocation; the maximum ignores it.
fn pooled_wave_allocations(workers: usize, width: usize) -> u64 {
    let pool = WorkerPool::new(workers);
    let mut most = 0;
    for wave in 0..=8 {
        let jobs: Vec<_> = (0..width)
            .map(|i| {
                move || {
                    if i == width - 1 {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                    i
                }
            })
            .collect();
        let before = allocations();
        let out = pool.run_wave(jobs);
        if wave > 0 {
            most = most.max(allocations() - before);
        }
        assert_eq!(out, (0..width).collect::<Vec<_>>());
    }
    most
}

#[test]
fn a_pooled_wave_allocates_per_worker_not_per_job() {
    // Compared across widths rather than pinned: std's channels allocate
    // a block per 31 sends, and each pool thread gets one send per wave,
    // so the two pools' counts move together.
    for workers in [2, 4] {
        assert_eq!(
            pooled_wave_allocations(workers, 8),
            pooled_wave_allocations(workers, 32),
            "workers({workers}): a wider wave must not allocate more"
        );
    }
}

#[test]
fn the_count_is_repeatable() {
    for logging in [Logging::Off, Logging::GroupCommit] {
        assert_eq!(
            count_run(ProtocolKind::MsIa, logging),
            count_run(ProtocolKind::MsIa, logging)
        );
    }
}
