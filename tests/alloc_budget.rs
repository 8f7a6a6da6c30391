//! The allocation ratchet: heap allocations per `Deployment::run()`, as an
//! exact, gateable number.
//!
//! A counting `#[global_allocator]` (this test binary only) counts every
//! `alloc`, `alloc_zeroed` and `realloc` made *by the calling thread* — the
//! count lives in a `const` thread-local, so the harness's other test
//! threads never leak into it. With `workers(1)` and durability disabled or
//! group commit (whose inline flush driver lands every buffer and takes
//! every checkpoint on the committing thread) the whole run executes on the
//! test thread, and the count is identical run to run, in debug and in
//! release.
//!
//! The budgets are a ratchet. A change that lowers the count lowers the
//! budget with it; a change that must raise it says why in `CHANGES.md`.
//!
//! The count includes what std allocates on the run's behalf (map and
//! vector growth, sort scratch, formatting), so a new toolchain can move it
//! with no code change. Each budget is therefore the count measured with
//! rustc 1.95.0 plus [`MARGIN_PERCENT`]; re-measure when the margin is spent.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use croesus::core::{Croesus, ProtocolKind, ThresholdPair};
use croesus::wal::DurabilityMode;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: an allocation during thread teardown must not panic.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// a `const`-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Whether the run logs: not at all, or group commit (landed inline on the
/// calling thread) into a fresh scratch directory.
#[derive(Clone, Copy, Debug)]
enum Logging {
    Off,
    GroupCommit,
}

/// One `run()` of 300 frames, seed 11, thresholds (0.3, 0.7), inline:
/// `(allocations made by run(), transactions committed)`.
fn count_run(protocol: ProtocolKind, logging: Logging) -> (u64, u64) {
    let dir = match logging {
        Logging::Off => None,
        Logging::GroupCommit => Some(croesus::wal::scratch_dir("alloc-budget")),
    };
    let durability = match &dir {
        None => DurabilityMode::Disabled,
        Some(dir) => DurabilityMode::group_commit(dir),
    };
    let deployment = Croesus::builder()
        .frames(300)
        .seed(11)
        .thresholds(ThresholdPair::new(0.3, 0.7))
        .protocol(protocol)
        .workers(1)
        .durability(durability)
        .build();
    let before = allocations();
    let metrics = deployment.run();
    let made = allocations() - before;
    if let Some(dir) = dir {
        std::fs::remove_dir_all(dir).expect("scratch dir is removable");
    }
    (made, metrics.transactions_committed)
}

/// Headroom over the measured count for allocations std makes differently
/// from one toolchain to the next.
const MARGIN_PERCENT: u64 = 1;

fn assert_within_budget(protocol: ProtocolKind, logging: Logging, measured: u64) {
    let budget = measured + measured * MARGIN_PERCENT / 100;
    let (made, committed) = count_run(protocol, logging);
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

#[test]
fn ms_ia_run_stays_within_its_allocation_budget() {
    assert_within_budget(ProtocolKind::MsIa, Logging::Off, 96_133);
}

#[test]
fn ms_sr_run_stays_within_its_allocation_budget() {
    assert_within_budget(ProtocolKind::MsSr, Logging::Off, 96_577);
}

#[test]
fn group_commit_run_stays_within_its_allocation_budget() {
    assert_within_budget(ProtocolKind::MsIa, Logging::GroupCommit, 122_759);
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
